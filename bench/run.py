"""The repository benchmark: one workload per run, metrics as JSON on the last line.

    python3 bench/run.py --workload {cli-mix,bulk-roundtrip,attack-verify}
                         --seed N --seconds S --trace {0,1} [--smoke]

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the last line of stdout carries every end-to-end metric
named in BENCHMARK.json; with ``--trace 1`` every per-layer metric, and the
spans go to ``.bench_out/trace-<workload>-<seed>.json``. A line above it
stamps the result with the seed, the source revision and the versions.
``--smoke`` shrinks the inputs so the benchmark's own test runs quickly.

The traced run times the workload's loop untraced for half of ``--seconds``
and traced for the other half, on the same inputs; the difference is the
tracing overhead. It then runs one traced unit of each other workload, so
every layer has measured spans whichever workload is named.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPS = 3
IMPORT_REPS = 3


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    raise SystemExit(2)


def _import_package():
    if not (SRC / "mellin_cipher" / "__init__.py").is_file():
        _fail(f"no package source at {SRC.relative_to(ROOT)}/mellin_cipher; run from a checkout")
    sys.path.insert(0, str(SRC))
    import mellin_cipher

    if Path(mellin_cipher.__file__).resolve().parent != (SRC / "mellin_cipher").resolve():
        _fail(f"imported mellin_cipher from {mellin_cipher.__file__}, not from the checkout")


def _stamp(seed: int) -> dict[str, object]:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        ).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "seed": seed,
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": os.cpu_count(),
    }


def _closed_loop(workload, seconds: float):
    """Whole units until the next one would most likely end past ``seconds``."""
    samples, unit_times = [], []
    start = time.perf_counter()
    while True:
        unit_start = time.perf_counter()
        samples.extend(workload.unit())
        unit_times.append(time.perf_counter() - unit_start)
        if time.perf_counter() - start + statistics.fmean(unit_times) / 2 >= seconds:
            return samples


def _setup_seconds(name: str, smoke: bool, workdir: Path) -> tuple[float, dict[str, object]]:
    """Package import plus warm-up in fresh processes: the speed-adjusted median, and a report."""
    from workloads import COLD_REFERENCE_NOMINAL_S, cold_reference, package_env, run_child

    times, reference = [], []
    argv = [sys.executable, str(Path(__file__).resolve().parent / "child.py"), "setup", name, str(int(smoke))]
    for _ in range(1 if smoke else SETUP_REPS):
        reference.append(cold_reference(workdir))
        stdout, stderr = workdir / "setup.out", workdir / "setup.err"
        code, _, _ = run_child(argv, workdir, package_env(), stdout, stderr)
        if code != 0:
            _fail(f"setup probe exited {code}: {stderr.read_text()[-2000:]}")
        times.append(json.loads(stdout.read_text())["setup_s"])
    raw = statistics.median(times)
    adjusted = raw * COLD_REFERENCE_NOMINAL_S / statistics.median(reference)
    return adjusted, {"value": adjusted, "raw": raw, "samples": len(times)}


def _import_probe(smoke: bool, workdir: Path) -> dict[str, float]:
    """``-X importtime`` of ``import mellin_cipher`` net of a bare interpreter; medians."""
    from tracing import import_breakdown
    from workloads import package_env, run_child

    code = "import sys{}; print(len(sys.modules))"
    runs: dict[str, list[float]] = {"total": [], "oracle": [], "numpy_scipy": []}
    modules = {}
    for _ in range(1 if smoke else IMPORT_REPS):
        outputs = {}
        for label, extra in (("package", ", mellin_cipher"), ("bare", "")):
            stdout, stderr = workdir / f"{label}.out", workdir / f"{label}.err"
            argv = [sys.executable, "-X", "importtime", "-c", code.format(extra)]
            status, _, _ = run_child(argv, workdir, package_env(), stdout, stderr)
            if status != 0:
                _fail(f"import probe exited {status}: {stderr.read_text()[-2000:]}")
            outputs[label] = stderr.read_text()
            modules[label] = int(stdout.read_text())
        for key, value in import_breakdown(outputs["package"], outputs["bare"], "mellin_cipher").items():
            runs[key].append(value)
    metrics = {f"import.{key}_s": statistics.median(values) for key, values in runs.items()}
    metrics["import.modules_loaded"] = modules["package"]
    metrics["import.modules_bare"] = modules["bare"]
    return metrics


def _peak_rss_mb(samples) -> float:
    """A cold CLI command's own high-water RSS (median over commands), else this process's."""
    per_command = [sample.rss_mb for sample in samples if sample.rss_mb]
    if per_command:
        return statistics.median(per_command)
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _outcome(samples) -> tuple[bool, int, int]:
    correct = all(sample.ok for sample in samples if not sample.hostile)
    failed = sum(not sample.ok for sample in samples)
    return correct, len(samples), failed


def _mean(values: list[float], what: str) -> float:
    if not values:
        _fail(f"the traced run recorded no {what}")
    return statistics.fmean(values)


def _per_layer(tracer, traced, untraced, workload, imports) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json from the spans and counts of a traced run."""
    spans = {}
    for _, _, _, name, start, end in tracer.spans:
        spans.setdefault(name, []).append(end - start)

    def mean(name: str) -> float:
        return _mean(spans.get(name, []), f"{name} span")

    metrics = dict(imports)
    for kind in ("encrypt", "decrypt", "recover", "verify"):
        metrics[f"cli.main_{kind}_s"] = mean(f"cli.main_{kind}")
    # a cold command's span minus the child's import and main spans
    metrics["cli.process_overhead_s"] = _mean(
        [own for span, own in zip(tracer.spans, tracer.self_times()) if span[3].startswith("bench.cli_")],
        "cold command",
    )
    metrics["cli.traceback_count"] = tracer.counts["cli.traceback_count"]
    metrics["cli.exit_mismatch_count"] = tracer.counts["cli.exit_mismatch_count"]

    metrics["alphabet.encode_text_s"] = mean("alphabet.encode_text")
    metrics["alphabet.decode_values_s"] = mean("alphabet.decode_values")
    for part in ("exponent_schedule", "transform_coefficients", "split_mod26", "validate", "encrypt", "decrypt"):
        metrics[f"cipher.{part}_s"] = mean(f"cipher.{part}")
    # exponent_schedule runs inside transform_coefficients, so it is not subtracted again
    metrics["cipher.encrypt_unattributed_s"] = metrics["cipher.encrypt_s"] - sum(
        mean(name)
        for name in ("alphabet.encode_text", "cipher.transform_coefficients", "cipher.split_mod26", "cipher.validate")
    )
    metrics["cipher.recover_s_s"] = mean("cipher.recover_s")
    metrics["cipher.trial_reject_s"] = mean("cipher.trial_reject")
    metrics["cipher.trial_accept_s"] = mean("cipher.trial_accept")
    tried = tracer.counts["cipher.recover_candidates_tried"]
    accepted = tracer.counts["cipher.recover_candidates_accepted"]
    metrics["cipher.recover_candidates_tried"] = tried
    metrics["cipher.recover_candidates_accepted"] = accepted
    metrics["cipher.recover_useful_ratio"] = accepted / tried
    metrics["errors.not_divisible_s"] = mean("errors.not_divisible")

    for step in ("read_key", "write_key", "read_ciphertext", "write_ciphertext"):
        metrics[f"keyio.{step}_s"] = mean(f"keyio.{step}")
    key_bytes = tracer.counts["keyio.key_bytes"]
    metrics["keyio.key_bytes"] = key_bytes / tracer.counts["keyio.keys"]
    metrics["keyio.key_parse_bytes_per_s"] = key_bytes / sum(spans["keyio.read_key"])

    for name in ("numeric_mellin", "numeric_mellin_log", "scaling_check", "shift_check"):
        metrics[f"oracle.{name}_s"] = mean(f"oracle.{name}")
    metrics["oracle.rows"] = tracer.counts["oracle.rows"]

    table = tracer.layer_table()
    for layer in ("import", "cli", "alphabet", "cipher", "keyio", "oracle", "errors", "bench"):
        metrics[f"self.{layer}_s"] = table.get(layer, {}).get("self_s", 0.0)

    traced_p50 = workload.summary(traced)[0]["op_p50_ms"]
    untraced_p50 = workload.summary(untraced)[0]["op_p50_ms"]
    metrics["trace.overhead_ms"] = traced_p50 - untraced_p50
    metrics["trace.overhead_share"] = (traced_p50 - untraced_p50) / untraced_p50
    metrics["trace.spans"] = len(tracer.spans)
    return metrics


def _metric_specs() -> dict[str, list[dict]]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="small inputs, for the benchmark's own test")
    args = parser.parse_args(argv)

    _import_package()
    from tracing import Tracer
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    specs = _metric_specs()
    stamp = {"workload": args.workload, "trace": args.trace, **_stamp(args.seed)}
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    chosen = WORKLOADS[args.workload]
    report: dict[str, object] = {}
    try:
        if args.trace == 0:
            setup_s, setup_report = _setup_seconds(args.workload, args.smoke, workdir)
            chosen.warm_up(args.smoke)
            workload = chosen(args.seed, args.smoke, workdir, Tracer(False))
            samples = _closed_loop(workload, args.seconds)
            metrics, report = workload.summary(samples)
            metrics["setup_s"] = setup_s
            report["setup_s"] = setup_report
            correct, attempted, failed = _outcome(samples)
            metrics["ok_share"] = (attempted - failed) / attempted
            metrics["peak_rss_mb"] = _peak_rss_mb(samples)
            report["failed_share"] = {"value": failed / attempted, "samples": attempted}
            names = specs["end_to_end"]
        else:
            imports = _import_probe(args.smoke, workdir)
            for other in WORKLOADS.values():
                other.warm_up(args.smoke)
            untraced = _closed_loop(chosen(args.seed, args.smoke, workdir, Tracer(False)), args.seconds / 2)
            tracer = Tracer(True)
            workload = chosen(args.seed, args.smoke, workdir, tracer)
            traced = _closed_loop(workload, args.seconds / 2)
            samples = untraced + traced
            for name, other in WORKLOADS.items():
                if name != args.workload:
                    samples += other(args.seed, args.smoke, workdir, tracer).probe()
            metrics = _per_layer(tracer, traced, untraced, workload, imports)
            correct, attempted, failed = _outcome(samples)
            names = specs["per_layer"]
            table = tracer.layer_table()
            print(f"{'layer':<10}{'spans':>8}{'total_s':>12}{'self_s':>12}", file=sys.stderr)
            for layer, row in sorted(table.items(), key=lambda item: -item[1]["self_s"]):
                print(f"{layer:<10}{row['spans']:>8}{row['total_s']:>12.4f}{row['self_s']:>12.4f}", file=sys.stderr)
            with open(OUT / f"trace-{args.workload}-{args.seed}.json", "w") as handle:
                json.dump(
                    {"stamp": stamp, "self_time": table, "counts": tracer.counts, "spans": tracer.spans},
                    handle,
                )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = {spec["name"]: spec["unit"] for spec in names}
    missing = set(units) ^ set(metrics)
    if missing:
        _fail(f"metrics and BENCHMARK.json disagree on {sorted(missing)}")
    if report:
        print(json.dumps({"report": report}), file=sys.stderr)
    print("stamp " + json.dumps(stamp))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
