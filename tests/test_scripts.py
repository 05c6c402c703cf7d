import os
import subprocess
import sys
from pathlib import Path

import mellin_cipher

ROOT = Path(__file__).resolve().parents[1]
SRC = str(Path(mellin_cipher.__file__).resolve().parents[1])


def run_script(name, *args):
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env={**os.environ, "PYTHONPATH": SRC},
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
