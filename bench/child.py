"""Cold child process for the benchmark.

    python bench/child.py setup <workload> <smoke 0|1>
        Import the package and run the workload's warm-up; print the
        seconds both took as one JSON object on stdout.
    python bench/child.py cli <result.json> <argv...>
        Run ``mellin_cipher.cli.main(argv)`` as ``python -m mellin_cipher``
        would, exit with its code, and write the ``perf_counter`` instants at
        start, after the package import and after ``main`` to result.json.

The package is found through PYTHONPATH, which the benchmark sets to the
checkout's ``src``.
"""

import time

START = time.perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402


def _setup(workload: str, smoke: bool) -> None:
    import mellin_cipher  # noqa: F401

    import workloads

    workloads.WORKLOADS[workload].warm_up(smoke)
    print(json.dumps({"setup_s": time.perf_counter() - START}))


def _cli(result_path: str, argv: list[str]) -> int:
    import mellin_cipher  # noqa: F401
    from mellin_cipher import cli

    imported = time.perf_counter()
    try:
        code = cli.main(argv)
    except Exception:  # what the interpreter would do with an uncaught error
        traceback.print_exc()
        code = 1
    finished = time.perf_counter()
    sys.stdout.flush()
    with open(result_path, "w") as handle:
        json.dump({"start": START, "imported": imported, "finished": finished}, handle)
    return code


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        _setup(sys.argv[2], sys.argv[3] == "1")
    else:
        sys.exit(_cli(sys.argv[2], sys.argv[3:]))
