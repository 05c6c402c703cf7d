import ast
import subprocess
import sys
from pathlib import Path

import pytest
from conftest import package_env

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_worked_examples_script():
    result = run_script("worked_examples.py")
    assert result.returncode == 0, result.stderr
    assert "JBHDN" in result.stdout
    assert "VPJHL" in result.stdout
    assert "HELLOWORLD with s=13 -> ZZZZZZZZZZ" in result.stdout


def test_key_recovery_demo_script():
    result = run_script("key_recovery_demo.py", "--trials", "20")
    assert result.returncode == 0, result.stderr
    assert "recovered the true s in 20/20 trials" in result.stdout


def test_key_recovery_demo_ciphertext_only():
    result = run_script("key_recovery_demo.py", "--ciphertext-only", "--trials", "20", "--max-s", "14")
    assert result.returncode == 0, result.stderr
    rows = {}
    for line in result.stdout.splitlines()[2:]:
        s, *shares = line.split()
        rows[int(s)] = [float(share.rstrip("%")) for share in shares]
    assert sorted(rows) == list(range(1, 15))
    in_clear, pair, _ = rows[1]
    assert in_clear > 0 and in_clear + pair == 100.0  # e = 1 or 2: every letter is in clear or one of 2
    for s in range(2, 7):  # 2 <= e <= 12 everywhere: no Z is forced, so no candidate in 2..6 stands out
        assert rows[s] == [0.0, 100.0, 0.0]
    for s in (13, 14):  # all Z: the ciphertext shows only that s >= 13
        assert rows[s] == [0.0, 0.0, 0.0]


def test_key_recovery_demo_tamper():
    result = run_script("key_recovery_demo.py", "--tamper", "--trials", "20", "--max-s", "14")
    assert result.returncode == 0, result.stderr
    rows = {}
    for line in result.stdout.splitlines()[2:]:
        s, *fields = line.split()
        rows[int(s)] = [float(field.rstrip("%")) for field in fields if field.endswith("%")]
    assert sorted(rows) == list(range(1, 15))
    assert rows[1][0] > 0  # under s = 1 a letter edit often lands on another multiple of e! <= 2
    for s, (ciphertext_edits, _, known_shifts) in rows.items():
        assert known_shifts == 100.0, s  # a quotient edit by e!/gcd(e!, 26) decrypts to the letter predicted
        assert ciphertext_edits == 0.0 or s < 5, s  # a letter edit moves c by <= 25, never a multiple of e! >= 120


_BAD_DEMO_ARGS = [
    ["--trials", "0"],
    ["--trials", "-3"],
    ["--trials", "x"],
    ["--max-s", "0"],
    ["--ciphertext-only", "--tamper"],
    ["--verbose"],
    ["--seed", "1"],
    ["--max-len", "5"],
]


@pytest.mark.parametrize("args", _BAD_DEMO_ARGS, ids=" ".join)
def test_key_recovery_demo_refuses_bad_options_as_usage_errors(args):
    result = run_script("key_recovery_demo.py", *args)
    assert result.returncode == 2, result.stdout + result.stderr
    assert "Traceback" not in result.stderr
    (error,) = [line for line in result.stderr.splitlines() if "error:" in line]
    assert args[0] in error, error
    if args[0] in ("--trials", "--max-s"):
        assert error.endswith(f"invalid count value: {args[1]!r}"), error


def test_no_module_imports_a_name_it_never_reads():
    # a name listed in __all__ counts as read; from __future__ imports are directives, not names
    unused = {}
    for path in sorted(path for top in ("src", "scripts", "tests") for path in (ROOT / top).rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported, read = set(), set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Assign) and "__all__" in [getattr(name, "id", None) for name in node.targets]:
                read.update(ast.literal_eval(node.value))
        if imported - read:
            unused[str(path.relative_to(ROOT))] = sorted(imported - read)
    assert not unused
