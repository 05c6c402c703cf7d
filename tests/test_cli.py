import os
import stat

import pytest

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


def test_encrypt_key_past_digit_limit_writes_nothing(workdir, capsys, digit_limit):
    # 2000! has 5736 digits, so every quotient is past the limit
    assert run_encrypt(workdir, s="2000", extra=("--max-s-param", "3000")) == EXIT_DATA
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    assert f"more than {digit_limit} digits" in err
    assert not (workdir / "ct.txt").exists()
    assert not (workdir / "key.mk").exists()


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


def test_verify_transform_rejects_bad_tol():
    assert main(["verify-transform", "--tol", "-1"]) == EXIT_USAGE


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


def test_recover_s_empty(workdir, capsys):
    (workdir / "empty.txt").write_bytes(b"\n")
    code = main(
        ["recover-s", "--in", str(workdir / "empty.txt"), "--quotients", "", "--max-s", "3"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.split() == ["1", "2", "3"]


def test_recover_s_length_mismatch(workdir):
    run_encrypt(workdir)
    code = main(
        ["recover-s", "--in", str(workdir / "ct.txt"), "--quotients", "1,2", "--max-s", "8"]
    )
    assert code == EXIT_DATA
