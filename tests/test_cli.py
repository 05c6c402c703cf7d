import hashlib
import math
import os
import stat
import subprocess
import sys
from pathlib import Path

import pytest

from mellin_cipher import cli
from mellin_cipher.cli import (
    EXIT_DATA,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    main,
)

EXAMPLE_KEY_BYTES = b"MELLIN-KEY-V1\ns=4\nn=5\nq1=7\nq2=23\nq3=332\nq4=2326\nq5=23261\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "hello.txt").write_bytes(b"HELLO\n")
    return tmp_path


def run_encrypt(workdir, s="4", infile="hello.txt", extra=()):
    return main(
        [
            "encrypt",
            "--s",
            s,
            "--in",
            str(workdir / infile),
            "--out",
            str(workdir / "ct.txt"),
            "--key-out",
            str(workdir / "key.mk"),
            *extra,
        ]
    )


def test_encrypt_worked_example(workdir):
    assert run_encrypt(workdir) == EXIT_OK
    assert (workdir / "ct.txt").read_bytes() == b"JBHDN\n"
    assert (workdir / "key.mk").read_bytes() == EXAMPLE_KEY_BYTES


def test_decrypt_worked_example(workdir):
    run_encrypt(workdir)
    code = main(
        [
            "decrypt",
            "--key",
            str(workdir / "key.mk"),
            "--in",
            str(workdir / "ct.txt"),
            "--out",
            str(workdir / "pt.txt"),
        ]
    )
    assert code == EXIT_OK
    assert (workdir / "pt.txt").read_bytes() == b"HELLO\n"


def test_cli_round_trip_matches_library(workdir):
    (workdir / "msg.txt").write_bytes(b"ATTACKATDAWN\n")
    assert run_encrypt(workdir, s="7", infile="msg.txt") == EXIT_OK
    code = main(
        [
            "decrypt",
            "--key",
            str(workdir / "key.mk"),
            "--in",
            str(workdir / "ct.txt"),
            "--out",
            str(workdir / "pt.txt"),
        ]
    )
    assert code == EXIT_OK
    assert (workdir / "pt.txt").read_bytes() == b"ATTACKATDAWN\n"


def test_encrypt_folds_case_by_default(workdir):
    (workdir / "lower.txt").write_bytes(b"hello\n")
    assert run_encrypt(workdir, infile="lower.txt") == EXIT_OK
    assert (workdir / "ct.txt").read_bytes() == b"JBHDN\n"


def test_encrypt_no_fold_case_rejects_lowercase(workdir):
    (workdir / "lower.txt").write_bytes(b"hello\n")
    assert run_encrypt(workdir, infile="lower.txt", extra=("--no-fold-case",)) == EXIT_DATA


def test_encrypt_empty_message(workdir):
    (workdir / "empty.txt").write_bytes(b"")
    assert run_encrypt(workdir, s="7", infile="empty.txt") == EXIT_OK
    assert (workdir / "ct.txt").read_bytes() == b"\n"
    assert (workdir / "key.mk").read_bytes() == b"MELLIN-KEY-V1\ns=7\nn=0\n"


def test_encrypt_rejects_interior_whitespace(workdir):
    (workdir / "bad.txt").write_bytes(b"HE LLO\n")
    assert run_encrypt(workdir, infile="bad.txt") == EXIT_DATA
    (workdir / "bad2.txt").write_bytes(b"HELLO\n\n")
    assert run_encrypt(workdir, infile="bad2.txt") == EXIT_DATA


@pytest.mark.parametrize(
    "plaintext, message",
    [
        (b"H\xc4LLO\n", "non-alphabet character '\xc4' at index 1 in plaintext"),  # latin-1
        (b"H\xc3\x84LLO\n", "non-alphabet character '\xc3' at index 1 in plaintext"),  # UTF-8
        (b"HE LL\xc4\n", "non-alphabet character ' ' at index 2 in plaintext"),  # first fault
        (b"STRA\xdfE\n", "non-alphabet character '\xdf' at index 4 in plaintext"),  # not SS
        (b"STRA\xffE\n", "non-alphabet character '\xff' at index 4 in plaintext"),  # not U+0178
    ],
    ids=["latin-1", "utf-8", "ascii-first", "sharp-s", "y-diaeresis"],
)
@pytest.mark.parametrize("fold", ["--fold-case", "--no-fold-case"])
def test_encrypt_non_ascii_names_byte(workdir, capsys, plaintext, message, fold):
    (workdir / "bad.txt").write_bytes(plaintext)
    assert run_encrypt(workdir, infile="bad.txt", extra=(fold,)) == EXIT_DATA
    assert capsys.readouterr().err == f"mellin-cipher: {message}\n"
    assert not (workdir / "ct.txt").exists() and not (workdir / "key.mk").exists()


def test_encrypt_s_bounds(workdir):
    assert run_encrypt(workdir, s="0") == EXIT_USAGE
    assert run_encrypt(workdir, s="65") == EXIT_USAGE
    assert run_encrypt(workdir, s="65", extra=("--max-s-param", "100")) == EXIT_OK


def test_missing_input_file_is_io_error(workdir):
    assert run_encrypt(workdir, infile="nope.txt") == EXIT_IO


def test_usage_errors():
    assert main([]) == EXIT_USAGE
    assert main(["frobnicate"]) == EXIT_USAGE
    assert main(["encrypt", "--s", "4"]) == EXIT_USAGE
    assert main(["recover-s", "--in", "x", "--quotients", "1,zap", "--max-s", "8"]) == EXIT_USAGE


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "encrypt" in capsys.readouterr().out


def test_decrypt_corrupted_key(workdir):
    run_encrypt(workdir)
    corrupted = EXAMPLE_KEY_BYTES.replace(b"q5=23261", b"q5=23260")
    (workdir / "key.mk").write_bytes(corrupted)
    code = main(
        [
            "decrypt",
            "--key",
            str(workdir / "key.mk"),
            "--in",
            str(workdir / "ct.txt"),
            "--out",
            str(workdir / "pt.txt"),
        ]
    )
    assert code == EXIT_DATA
    assert not (workdir / "pt.txt").exists()


@pytest.mark.parametrize(
    "key_bytes, letters",
    [
        (EXAMPLE_KEY_BYTES.replace(b"s=4", b"s=2000"), b"JBHDN\n"),  # divisor 2000!
        (b"MELLIN-KEY-V1\ns=1\nn=1\nq1=1" + b"0" * 4299 + b"\n", b"A\n"),  # value > 10^4300
    ],
    ids=["not-divisible", "out-of-range"],
)
def test_decrypt_wide_integer_is_data_error(workdir, capsys, key_bytes, letters):
    (workdir / "key.mk").write_bytes(key_bytes)
    (workdir / "ct.txt").write_bytes(letters)
    code = main(
        [
            "decrypt",
            "--key",
            str(workdir / "key.mk"),
            "--in",
            str(workdir / "ct.txt"),
            "--out",
            str(workdir / "pt.txt"),
        ]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert "-bit integer>" in err


def test_decrypt_s_past_sys_maxsize_is_data_error(workdir):
    # math.factorial refuses an s above sys.maxsize with OverflowError; the cold command
    # must end in one error line and exit 3, not in a traceback
    (workdir / "key.mk").write_bytes(b"MELLIN-KEY-V1\ns=%d\nn=1\nq1=0\n" % 2**63)
    (workdir / "ct.txt").write_bytes(b"A\n")
    argv = ["decrypt", "--key", "key.mk", "--in", "ct.txt", "--out", "pt.txt"]
    result = _fresh_python(workdir, "import sys\nfrom mellin_cipher.cli import run\nrun()\n", *argv)
    assert result.returncode == EXIT_DATA
    assert result.stderr.count("\n") == 1 and "Traceback" not in result.stderr
    assert "sys.maxsize" in result.stderr and result.stdout == ""
    assert not (workdir / "pt.txt").exists()


def test_encrypt_key_past_digit_limit_writes_nothing(workdir, capsys, digit_limit):
    # 2000! has 5736 digits, so every quotient is past the limit
    assert run_encrypt(workdir, s="2000", extra=("--max-s-param", "3000")) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"more than {digit_limit} digits" in err
    assert not (workdir / "ct.txt").exists()
    assert not (workdir / "key.mk").exists()


@pytest.mark.parametrize("s", ["1560", "1000000", str(10**19)])
def test_encrypt_rejects_unwritable_s_before_any_factorial(workdir, capsys, monkeypatch, digit_limit, s):
    # the gate starts at s = 1560 (every quotient then has more than 4300 digits); 10**19 is past
    # what math.factorial accepts
    monkeypatch.setattr(math, "factorial", lambda k: pytest.fail(f"factorial({k}) computed"))
    assert run_encrypt(workdir, s=s, extra=("--max-s-param", s)) == EXIT_DATA
    assert capsys.readouterr().err == (
        f"mellin-cipher: cannot write key: an integer has more than {digit_limit} digits "
        "(sys.get_int_max_str_digits())\n"
    )
    assert not (workdir / "ct.txt").exists()
    assert not (workdir / "key.mk").exists()
    (workdir / "bad.txt").write_bytes(b"HE LO\n")  # a bad letter is still named first
    assert run_encrypt(workdir, s=s, infile="bad.txt", extra=("--max-s-param", s)) == EXIT_DATA
    assert "index 2" in capsys.readouterr().err
    (workdir / "empty.txt").write_bytes(b"\n")  # no quotient, so any s can be written
    assert run_encrypt(workdir, s=s, infile="empty.txt", extra=("--max-s-param", s)) == EXIT_OK
    assert (workdir / "key.mk").read_bytes() == b"MELLIN-KEY-V1\ns=%b\nn=0\n" % s.encode()


def test_encrypt_leaves_borderline_s_to_the_key_writer(workdir, capsys, monkeypatch, digit_limit):
    calls = []
    factorial = math.factorial
    monkeypatch.setattr(math, "factorial", lambda k: calls.append(k) or factorial(k))
    (workdir / "a.txt").write_bytes(b"A\n")  # its one quotient is s! / 26 - 1
    for s, code in (("1558", EXIT_OK), ("1559", EXIT_DATA)):  # 4298 digits, then 4302
        assert run_encrypt(workdir, s=s, infile="a.txt", extra=("--max-s-param", "2000")) == code
    assert f"more than {digit_limit} digits" in capsys.readouterr().err
    assert calls == [1558, 1559]
    sys.set_int_max_str_digits(0)  # no limit, so no gate; the fixture restores it
    assert run_encrypt(workdir, s="1600", infile="a.txt", extra=("--max-s-param", "2000")) == EXIT_OK
    assert calls == [1558, 1559, 1600]


def _tree(root):
    return {p.relative_to(root): p.read_bytes() if p.is_file() else None for p in root.rglob("*")}


@pytest.mark.parametrize(
    "out, key_out, unwritable",
    [
        ("new.txt", "nodir/key.mk", "nodir/key.mk"),
        ("ct.txt", "nodir/key.mk", "nodir/key.mk"),
        ("ct.txt", "adir", "adir"),
        ("adir", "key.mk", "adir"),
    ],
    ids=["key-dir-missing", "key-dir-missing-out-exists", "key-out-is-dir", "out-is-dir"],
)
def test_encrypt_failed_write_changes_no_file(workdir, capsys, out, key_out, unwritable):
    (workdir / "ct.txt").write_bytes(b"OLD\n")
    (workdir / "key.mk").write_bytes(EXAMPLE_KEY_BYTES.replace(b"s=4", b"s=5"))
    (workdir / "adir").mkdir()
    before = _tree(workdir)
    code = main(
        [
            "encrypt",
            "--s",
            "4",
            "--in",
            str(workdir / "hello.txt"),
            "--out",
            str(workdir / out),
            "--key-out",
            str(workdir / key_out),
        ]
    )
    assert code == EXIT_IO
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert repr(str(workdir / unwritable)) in err  # the target, not a temp file
    assert _tree(workdir) == before  # no output replaced, no temp file left


@pytest.mark.parametrize("out", ["y", "./y", "sub/../y"])
@pytest.mark.parametrize("infile", ["hello.txt", "missing.txt"])  # refused before it is read
def test_encrypt_refuses_one_file_for_both_outputs(workdir, capsys, monkeypatch, out, infile):
    (workdir / "sub").mkdir()
    before = _tree(workdir)
    monkeypatch.chdir(workdir)
    argv = ["encrypt", "--s", "4", "--in", infile, "--out", out, "--key-out", "y"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err == (
        "mellin-cipher: error: --out and --key-out name the same file\n"
    )
    assert _tree(workdir) == before


def test_encrypt_keeps_file_modes(workdir):
    umask = os.umask(0o022)
    try:
        assert run_encrypt(workdir) == EXIT_OK
        assert stat.S_IMODE((workdir / "ct.txt").stat().st_mode) == 0o644
        assert stat.S_IMODE((workdir / "key.mk").stat().st_mode) == 0o644
        (workdir / "key.mk").chmod(0o600)
        (workdir / "key.mk").write_bytes(b"OLD\n")
        assert run_encrypt(workdir) == EXIT_OK
    finally:
        os.umask(umask)
    assert stat.S_IMODE((workdir / "key.mk").stat().st_mode) == 0o600
    assert (workdir / "key.mk").read_bytes() == EXAMPLE_KEY_BYTES
    assert sorted(p.name for p in workdir.iterdir()) == ["ct.txt", "hello.txt", "key.mk"]


def run_decrypt(workdir, out="pt.txt"):
    args = ["--key", str(workdir / "key.mk"), "--in", str(workdir / "ct.txt")]
    return main(["decrypt", *args, "--out", str(workdir / out)])


@pytest.mark.parametrize(
    "out, message",
    [
        ("nodir/pt.txt", "[Errno 2] No such file or directory"),
        ("adir", "[Errno 21] Is a directory"),
    ],
    ids=["dir-missing", "out-is-dir"],
)
def test_decrypt_failed_write_changes_no_file(workdir, capsys, out, message):
    run_encrypt(workdir)
    (workdir / "adir").mkdir()
    before = _tree(workdir)
    assert run_decrypt(workdir, out) == EXIT_IO
    assert capsys.readouterr().err == f"mellin-cipher: i/o error: {message}: {str(workdir / out)!r}\n"
    assert _tree(workdir) == before  # no temp file left


def test_decrypt_failed_replace_leaves_no_temp_file(workdir, capsys, monkeypatch):
    run_encrypt(workdir)
    (workdir / "pt.txt").write_bytes(b"OLD\n")
    before = _tree(workdir)

    def fail(src, dst):
        raise OSError(28, "No space left on device", dst)

    monkeypatch.setattr(os, "replace", fail)
    assert run_decrypt(workdir) == EXIT_IO
    assert capsys.readouterr().err.count("\n") == 1
    assert _tree(workdir) == before  # the old plaintext stays, no temp file is left


def test_decrypt_keeps_file_mode(workdir):
    run_encrypt(workdir)
    (workdir / "pt.txt").write_bytes(b"OLD\n")
    (workdir / "pt.txt").chmod(0o600)
    assert run_decrypt(workdir) == EXIT_OK
    assert stat.S_IMODE((workdir / "pt.txt").stat().st_mode) == 0o600
    assert (workdir / "pt.txt").read_bytes() == b"HELLO\n"
    assert sorted(p.name for p in workdir.iterdir()) == ["ct.txt", "hello.txt", "key.mk", "pt.txt"]


@pytest.mark.parametrize("field", [b"s=4", b"q1=7"], ids=["s", "q1"])
def test_decrypt_key_field_past_digit_limit(workdir, capsys, digit_limit, field):
    run_encrypt(workdir)
    wide = field.split(b"=")[0] + b"=1" + b"0" * 5000
    (workdir / "key.mk").write_bytes(EXAMPLE_KEY_BYTES.replace(field, wide))
    code = main(
        [
            "decrypt",
            "--key",
            str(workdir / "key.mk"),
            "--in",
            str(workdir / "ct.txt"),
            "--out",
            str(workdir / "pt.txt"),
        ]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"more than {digit_limit} digits" in err
    assert not (workdir / "pt.txt").exists()


_LONG = 5000  # characters in the rejected field: far more than a message quotes


@pytest.mark.parametrize(
    "key_bytes, message",
    [
        (
            b"MELLIN-KEY-V1\n" + b"x" * _LONG + b"\nn=0\n",
            "line 2: expected 's=<int>', got 'xxxxxxxxxxxxxxxxxxxx'...",
        ),
        (
            b"MELLIN-KEY-V1\ns=4\n" + b"y" * _LONG + b"\n",
            "line 3: expected 'n=<int>', got 'yyyyyyyyyyyyyyyyyyyy'...",
        ),
        (
            EXAMPLE_KEY_BYTES.replace(b"q2=23", b"q9=" + b"1" * _LONG),
            "line 5: expected 'q2=' prefix, got 'q9=11111111111111111'...",
        ),
        (
            EXAMPLE_KEY_BYTES.replace(b"q2=23", b"q2=x" + b"0" * _LONG),
            "line 5: non-canonical integer 'x0000000000000000000'...",
        ),
        (
            EXAMPLE_KEY_BYTES + b"z" * _LONG + b"\n",
            "unexpected content at line 9: 'zzzzzzzzzzzzzzzzzzzz'...",
        ),
    ],
    ids=["s-line", "n-line", "q-prefix", "non-canonical", "trailing"],
)
def test_decrypt_long_key_line_is_quoted_short(workdir, capsys, key_bytes, message):
    (workdir / "key.mk").write_bytes(key_bytes)
    (workdir / "ct.txt").write_bytes(b"JBHDN\n")
    code = main(
        [
            "decrypt",
            "--key",
            str(workdir / "key.mk"),
            "--in",
            str(workdir / "ct.txt"),
            "--out",
            str(workdir / "pt.txt"),
        ]
    )
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.encode()) < 500
    assert err == f"mellin-cipher: {message}\n"


def test_decrypt_malformed_key_file(workdir):
    run_encrypt(workdir)
    (workdir / "key.mk").write_bytes(b"NOT-A-KEY\n")
    code = main(
        [
            "decrypt",
            "--key",
            str(workdir / "key.mk"),
            "--in",
            str(workdir / "ct.txt"),
            "--out",
            str(workdir / "pt.txt"),
        ]
    )
    assert code == EXIT_DATA


def test_verify_transform_table(capsys):
    assert main(["verify-transform"]) == EXIT_OK
    out = capsys.readouterr().out
    rows = [line for line in out.splitlines() if line.endswith("PASS")]
    assert len(rows) == 36
    assert not any(line.endswith("FAIL") for line in out.splitlines())


def test_verify_transform_custom_grid(capsys):
    assert main(["verify-transform", "--n-max", "2", "--s-max", "3", "--tol", "1e-8"]) == EXIT_OK
    out = capsys.readouterr().out
    assert len([line for line in out.splitlines() if line.endswith("PASS")]) == 6


def test_verify_transform_impossible_tol_fails(capsys):
    # a tolerance below machine epsilon must produce FAIL rows and exit 4
    assert main(["verify-transform", "--tol", "1e-30"]) == EXIT_VERIFY
    out = capsys.readouterr().out
    assert any(line.endswith("FAIL") for line in out.splitlines())


def test_verify_transform_rejects_bad_tol(capsys):
    for tol in ["-1", "nan"]:
        assert main(["verify-transform", "--tol", tol]) == EXIT_USAGE
        assert capsys.readouterr() == ("", "mellin-cipher: error: --tol must be > 0\n")


def test_recover_s_worked_example(workdir, capsys):
    run_encrypt(workdir)
    code = main(
        [
            "recover-s",
            "--in",
            str(workdir / "ct.txt"),
            "--quotients",
            "7,23,332,2326,23261",
            "--max-s",
            "32",
        ]
    )
    assert code == EXIT_OK
    lines = capsys.readouterr().out.split()
    assert "4" in lines


def test_recover_s_rejects_wide_integers(workdir, capsys):
    run_encrypt(workdir)
    # rejecting s up to 2000 builds NotDivisible errors around divisors up to 2000!
    code = main(
        [
            "recover-s",
            "--in",
            str(workdir / "ct.txt"),
            "--quotients",
            "7,23,332,2326,23261",
            "--max-s",
            "2000",
        ]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == "4\n"
    # a 4300-digit quotient recovers a value far outside 1..26
    (workdir / "a.txt").write_bytes(b"A\n")
    code = main(
        ["recover-s", "--in", str(workdir / "a.txt"), "--quotients", "1" + "0" * 4299, "--max-s", "1"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out == ""


def test_recover_s_quotient_past_digit_limit_is_usage_error(workdir, capsys, digit_limit):
    (workdir / "ab.txt").write_bytes(b"AB\n")
    wide = "1" + "0" * 5000
    code = main(
        ["recover-s", "--in", str(workdir / "ab.txt"), "--quotients", f"7,{wide}", "--max-s", "1"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.encode()) < 500
    assert f"quotient 2 has more than {digit_limit} digits" in err
    assert "_nonneg_int_list" not in err


def test_recover_s_bad_quotient_is_short_usage_error(workdir, capsys):
    (workdir / "ab.txt").write_bytes(b"AB\n")
    token = "x" + "0" * 4999
    code = main(
        ["recover-s", "--in", str(workdir / "ab.txt"), "--quotients", f"7,{token}", "--max-s", "3"]
    )
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert len(err.encode()) < 500
    assert [line for line in err.splitlines() if "error:" in line] == [
        "mellin-cipher recover-s: error: argument --quotients: "
        "quotient 2 is not a decimal >= 0: 'x0000000000000000000'..."
    ]


_REPORT_NUMPY = "print('numpy' in sys.modules, file=sys.stderr)\n"


def _fresh_python(workdir, code, *argv):
    """Run ``code`` in a fresh interpreter that imports the package from this checkout."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        cwd=workdir,
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )


def test_no_command_loads_numpy(workdir, capsys):
    bare = _fresh_python(workdir, "import sys, mellin_cipher\n" + _REPORT_NUMPY)
    assert (bare.returncode, bare.stderr) == (0, "False\n")
    # the last stderr line says whether the command loaded numpy
    run_main = "import sys\nfrom mellin_cipher.cli import main\ncode = main(sys.argv[1:])\n"
    run_main += _REPORT_NUMPY + "sys.exit(code)\n"
    for argv in (
        ["encrypt", "--s", "4", "--in", "hello.txt", "--out", "ct.txt", "--key-out", "key.mk"],
        ["decrypt", "--key", "key.mk", "--in", "ct.txt", "--out", "pt.txt"],
        ["recover-s", "--in", "ct.txt", "--quotients", "7,23,332,2326,23261", "--max-s", "8"],
    ):
        result = _fresh_python(workdir, run_main, *argv)
        assert (result.returncode, result.stderr) == (EXIT_OK, "False\n"), argv
    assert (workdir / "pt.txt").read_bytes() == b"HELLO\n"
    cold = _fresh_python(workdir, run_main, "verify-transform", "--n-max", "3", "--s-max", "3")
    assert main(["verify-transform", "--n-max", "3", "--s-max", "3"]) == EXIT_OK
    warm = capsys.readouterr()
    assert cold.returncode == EXIT_OK
    assert (cold.stdout, cold.stderr) == (warm.out, warm.err + "False\n")


def test_cold_commands_skip_heavy_imports(workdir):
    # without site (-S), the commands load none of these; site itself may import typing
    src = str(Path(cli.__file__).resolve().parents[1])
    code = (
        "import sys\n"
        f"sys.path.insert(0, {src!r})\n"
        "from mellin_cipher.cli import main\n"
        "codes = [\n"
        "    main(['encrypt', '--s', '4', '--in', 'hello.txt', '--out', 'ct.txt', '--key-out', 'key.mk']),\n"
        "    main(['decrypt', '--key', 'key.mk', '--in', 'ct.txt', '--out', 'pt.txt']),\n"
        "    main(['recover-s', '--in', 'ct.txt', '--quotients', '7,23,332,2326,23261', '--max-s', '8']),\n"
        "]\n"
        "heavy = ('dataclasses', 'inspect', 'typing', 'numpy')\n"
        "print(codes, [name for name in heavy if name in sys.modules], file=sys.stderr)\n"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code], cwd=workdir, capture_output=True, text=True
    )
    assert (result.returncode, result.stdout, result.stderr) == (0, "4\n", "[0, 0, 0] []\n")
    assert (workdir / "pt.txt").read_bytes() == b"HELLO\n"


def test_recover_s_empty(workdir, capsys):
    (workdir / "empty.txt").write_bytes(b"\n")
    code = main(
        ["recover-s", "--in", str(workdir / "empty.txt"), "--quotients", "", "--max-s", "3"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.split() == ["1", "2", "3"]


def test_recover_s_empty_lists_every_s(workdir, capsys):
    (workdir / "empty.txt").write_bytes(b"\n")
    code = main(
        ["recover-s", "--in", str(workdir / "empty.txt"), "--quotients", "", "--max-s", "1000000"]
    )
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert out == "".join(f"{s}\n" for s in range(1, 1000001))


def test_recover_s_empty_streams_under_a_memory_limit(workdir):
    # a set of 3 * 10**6 candidates needs about 280 MB; the child may grow by 64 MB
    if not os.path.exists("/proc/self/statm"):
        pytest.skip("needs /proc/self/statm for the child's address space")
    (workdir / "empty.txt").write_bytes(b"\n")
    code = (
        "import os, resource, sys\n"
        "from mellin_cipher.cli import main\n"
        "with open('/proc/self/statm') as f:\n"
        "    size = int(f.read().split()[0]) * os.sysconf('SC_PAGE_SIZE')\n"
        "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
        "resource.setrlimit(resource.RLIMIT_AS, (size + (64 << 20), hard))\n"
        "sys.exit(main(['recover-s', '--in', 'empty.txt', '--quotients', '', '--max-s', '3000000']))\n"
    )
    src = str(Path(cli.__file__).resolve().parents[1])
    with open(workdir / "out.txt", "wb") as out:
        result = subprocess.run(
            [sys.executable, "-c", code],
            cwd=workdir,
            env={**os.environ, "PYTHONPATH": src},
            stdout=out,
            stderr=subprocess.PIPE,
        )
    assert (result.returncode, result.stderr) == (EXIT_OK, b"")
    expected = hashlib.sha256()
    for start in range(1, 3_000_001, 100_000):
        expected.update("".join(f"{s}\n" for s in range(start, start + 100_000)).encode())
    assert hashlib.sha256((workdir / "out.txt").read_bytes()).digest() == expected.digest()


def test_recover_s_length_mismatch(workdir):
    run_encrypt(workdir)
    code = main(
        ["recover-s", "--in", str(workdir / "ct.txt"), "--quotients", "1,2", "--max-s", "8"]
    )
    assert code == EXIT_DATA
