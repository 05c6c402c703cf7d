import argparse
import contextlib
import errno
import functools
import hashlib
import io
import math
import os
import re
import stat
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from unittest import mock

import pytest
from conftest import default_digit_limit, refuse_factorials_past
from hypothesis import assume, example, given, settings, strategies as st

from mellin_cipher import cli
from mellin_cipher.alphabet import ALPHABET
from mellin_cipher.cipher import _EXACT_S, CipherText, encrypt, recover_s
from mellin_cipher.keyio import write_ciphertext, write_key
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


def run_decrypt(workdir, out="pt.txt"):
    args = ["--key", str(workdir / "key.mk"), "--in", str(workdir / "ct.txt")]
    return main(["decrypt", *args, "--out", str(workdir / out)])


def test_encrypt_worked_example(workdir):
    assert run_encrypt(workdir) == EXIT_OK
    assert (workdir / "ct.txt").read_bytes() == b"JBHDN\n"
    assert (workdir / "key.mk").read_bytes() == EXAMPLE_KEY_BYTES


def test_decrypt_worked_example(workdir):
    run_encrypt(workdir)
    code = run_decrypt(workdir)
    assert code == EXIT_OK
    assert (workdir / "pt.txt").read_bytes() == b"HELLO\n"


def test_cli_round_trip_matches_library(workdir):
    (workdir / "msg.txt").write_bytes(b"ATTACKATDAWN\n")
    assert run_encrypt(workdir, s="7", infile="msg.txt") == EXIT_OK
    code = run_decrypt(workdir)
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


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["encrypt", "--s", "4", "--in", "hello.txt", "--out", "ct.txt", "--key-out", "key.mk"]
            + ["--max-s-param", "0"],
            "--max-s-param must be >= 1",
        ),
        (["verify-transform", "--n-max", "0"], "--n-max and --s-max must be >= 1"),
        (["verify-transform", "--s-max", "0"], "--n-max and --s-max must be >= 1"),
        (["recover-s", "--in", "hello.txt", "--quotients", "7", "--max-s", "0"], "--max-s must be >= 1"),
    ],
    ids=["max-s-param", "n-max", "s-max", "max-s"],
)
def test_bound_below_one_is_usage_error(workdir, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(workdir)
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"mellin-cipher: error: {message}\n")
    assert sorted(os.listdir(workdir)) == ["hello.txt"]


_HELP = {  # command -> (option, the end of its help line)
    "encrypt": [
        ("--s S", "secret parameter (>= 1) (required)"),
        ("--in INFILE", "plaintext file (required)"),
        ("--out OUTFILE", "ciphertext file to write (required)"),
        ("--key-out KEYFILE", "key file to write (required)"),
        ("--fold-case | --no-fold-case", "uppercase the input before validation (default: True)"),
        ("--max-s-param MAX_S_PARAM", "upper bound accepted for --s (default: 64)"),
    ],
    "decrypt": [
        ("--key KEYFILE", "key file (required)"),
        ("--in INFILE", "ciphertext file (required)"),
        ("--out OUTFILE", "plaintext file to write (required)"),
    ],
    "verify-transform": [
        ("--n-max N_MAX", "largest n (default: 6)"),
        ("--s-max S_MAX", "largest s (default: 6)"),
        ("--tol TOL", "relative tolerance (default: 1e-09)"),
    ],
    "recover-s": [
        ("--in INFILE", "ciphertext file (required)"),
        ("--quotients QUOTIENTS", "comma-separated quotients ('' for none) (required)"),
        ("--max-s MAX_S", "largest s to try (>= 1) (required)"),
    ],
}


def test_help_exits_zero(capsys):
    assert main(["--help"]) == EXIT_OK
    assert "encrypt" in capsys.readouterr().out
    for command, options in _HELP.items():  # each option, its help text and its default
        for flag in ("-h", "--help"):
            assert main([command, flag]) == EXIT_OK
            out, err = capsys.readouterr()
            assert err == "" and out.startswith(f"usage: mellin-cipher {command} ")
            lines = out.splitlines()
            for option, text in options:
                assert any(option in line and line.endswith(text) for line in lines), (command, option)


def test_value_word_may_start_with_a_dash(workdir, capsys):
    # the word after an option that takes a value is that value, so the quotient check sees '-7'
    argv = ["recover-s", "--in", str(workdir / "hello.txt"), "--quotients", "-7,23", "--max-s", "8"]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr().err.splitlines()[-1] == (
        "mellin-cipher recover-s: error: argument --quotients: quotient 1 is not a decimal >= 0: '-7'"
    )
    assert main(["verify-transform", "--n-max", "-1"]) == EXIT_USAGE  # a negative number, as before
    assert capsys.readouterr().err == "mellin-cipher: error: --n-max and --s-max must be >= 1\n"


def test_decrypt_corrupted_key(workdir):
    run_encrypt(workdir)
    corrupted = EXAMPLE_KEY_BYTES.replace(b"q5=23261", b"q5=23260")
    (workdir / "key.mk").write_bytes(corrupted)
    code = run_decrypt(workdir)
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
    code = run_decrypt(workdir)
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


def test_decrypt_refuses_a_huge_s_before_its_factorial(workdir):
    # 10**6! has about 18.5 million bits and took about 10 s to compute; the key's first
    # coefficient 7 * 26 + 10 cannot be a multiple of it, and decrypt says so by size alone
    (workdir / "key.mk").write_bytes(EXAMPLE_KEY_BYTES.replace(b"s=4", b"s=1000000"))
    (workdir / "ct.txt").write_bytes(b"JBHDN\n")
    argv = ["decrypt", "--key", "key.mk", "--in", "ct.txt", "--out", "pt.txt"]
    start = time.perf_counter()
    result = _fresh_python(workdir, "from mellin_cipher.cli import run\nrun()\n", *argv)
    assert time.perf_counter() - start < 5.0
    assert result.returncode == EXIT_DATA
    assert result.stderr == (
        "mellin-cipher: coefficient 192 at position 1 is not divisible by 1000000!, which exceeds it\n"
    )
    assert result.stdout == "" and not (workdir / "pt.txt").exists()


_EDIT_BYTES = b"0179=\nqsnAJZz \xff,-\ra"


@st.composite
def _mutated(draw, data: bytes) -> bytes:
    """``data`` with up to three bytes replaced, inserted or deleted."""
    data = bytearray(data)
    for _ in range(draw(st.integers(0, 3))):
        at, byte = draw(st.integers(0, len(data))), draw(st.sampled_from(_EDIT_BYTES))
        edit = draw(st.sampled_from(["replace", "insert", "delete"]))
        if edit == "insert":
            data.insert(at, byte)
        elif at < len(data):
            data[at : at + 1] = bytes([byte]) if edit == "replace" else b""
    return bytes(data)


_BAD = ["0", "-1", "1.5", "x", "", "1" + "0" * 5000]  # no integer option accepts these
_HOSTILE = [*_BAD, "100000", "1000000", str(2**63)]
_EXITS = {  # each subcommand's documented exit codes
    "encrypt": {EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_DATA},
    "decrypt": {EXIT_OK, EXIT_IO, EXIT_DATA},
    "verify-transform": {EXIT_OK, EXIT_USAGE, EXIT_DATA, EXIT_VERIFY},
    "recover-s": {EXIT_OK, EXIT_USAGE, EXIT_IO, EXIT_DATA},
}
_VALID_USAGE = {  # the usage errors valid values still meet: --s past --max-s-param, bad --quotients
    "encrypt": "error: --s must be in 1..",
    "recover-s": "error: argument --quotients: quotient ",
}


@pytest.mark.parametrize("command", list(_EXITS))
@given(
    letters=st.text(alphabet=ALPHABET, max_size=6),
    true_s=st.integers(1, 20),
    big=st.integers(1, 2**63 + 1) | st.sampled_from([10**5, 10**6]),
    data=st.data(),
)
@example(letters="HELLO", true_s=4, big=10**6, data=None)
@example(letters="HELLO", true_s=4, big=10**9, data=None)
@settings(max_examples=150, deadline=None)
def test_hostile_input_ends_in_a_documented_exit(command, letters, true_s, big, data):
    """Hostile-input gate: every subcommand ends in a documented exit, in time, whatever its input.

    A short message is encrypted under true_s, and up to three bytes of each input made from it
    are edited. Each number the command reads (an option, or the key's s) is true_s, big or a
    hostile text; the explicit examples edit nothing and give big for each. Options go as
    --option=text, so a text that starts with '-' reaches the option's own check. math.factorial
    raises past 10**4, and past 12 for recover-s, whose ciphertext keeps a letter other than Z
    and so rules out every s >= 13. An all-Z ciphertext stays out until the scan has a closed
    form: its scan grows faster than --max-s (about 2 minutes at --max-s 20000, 2-vCPU host).
    """
    values = []

    def value(*valid):
        choices = st.sampled_from(valid or (str(true_s), str(big))) | st.sampled_from(_HOSTILE)
        values.append(str(big) if data is None else data.draw(choices))
        return values[-1]

    def mutated(contents):
        return contents if data is None else data.draw(_mutated(contents))

    ciphertext, key = encrypt(letters, true_s)  # q1 has a few digits: s! > c1 past _EXACT_S
    with tempfile.TemporaryDirectory() as tmp:
        path, files = functools.partial(os.path.join, tmp), {}
        if command == "encrypt":
            files["pt.txt"] = mutated(letters.encode() + b"\n")
            fold = "--no-fold-case" if data is not None and data.draw(st.booleans()) else "--fold-case"
            argv = [f"--s={value()}", f"--max-s-param={value()}", fold, "--in", path("pt.txt")]
            argv += ["--out", path("ct.txt"), "--key-out", path("key.mk")]
        elif command == "decrypt":
            key_bytes = write_key(key).replace(b"\ns=%d\n" % true_s, b"\ns=%s\n" % value().encode(), 1)
            files = {"key.mk": mutated(key_bytes), "ct.txt": mutated(write_ciphertext(ciphertext))}
            argv = ["--key", path("key.mk"), "--in", path("ct.txt"), "--out", path("pt.txt")]
        elif command == "verify-transform":
            argv = [f"--n-max={value()}", f"--s-max={value()}", f"--tol={value('1e-9', '1e-30')}"]
        else:
            files["ct.txt"] = mutated(write_ciphertext(ciphertext))
            assume(any(letter in files["ct.txt"] for letter in ALPHABET[:-1].encode()))
            quotients = mutated(",".join(map(str, key.quotients)).encode()).decode("latin-1")
            argv = ["--in", path("ct.txt"), f"--quotients={quotients}", f"--max-s={value()}"]
        for name, contents in files.items():
            Path(path(name)).write_bytes(contents)
        limit, out, err = 12 if command == "recover-s" else _EXACT_S, io.StringIO(), io.StringIO()
        start = time.perf_counter()
        # the digit limit is pinned here, as hypothesis refuses the function-scoped digit_limit fixture
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), default_digit_limit():
            with mock.patch.object(math, "factorial", refuse_factorials_past(limit)):
                code = main([command, *argv])
        seconds = time.perf_counter() - start
    err = err.getvalue()
    assert code in _EXITS[command] and "Traceback" not in err
    if code == EXIT_USAGE:  # the usage line, then the one error line
        lines = err.splitlines()
        assert err.endswith("\n") and [line for line in lines if "error:" in line] == lines[-1:]
        assert not set(values).isdisjoint(_BAD) or _VALID_USAGE.get(command, "\0") in lines[-1]
    else:  # one line per failure; verify-transform's one line is its summary or its error
        assert err.count("\n") == (1 if command == "verify-transform" else code != EXIT_OK)
    if command == "recover-s":  # values[0] is --max-s
        assert all(1 <= int(line) <= min(int(values[0]), 12) for line in out.getvalue().split())
    assert seconds < 5.0, (command, argv, files)


class _ReferenceParser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _reference_quotients(text):
    try:
        return cli._nonneg_int_list(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that the option table replaced, as it was."""
    parser = _ReferenceParser(prog="mellin-cipher", description=cli.__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, metavar="command")

    p_enc = commands.add_parser("encrypt", help="encrypt a letters-only file")
    p_enc.add_argument("--s", type=int, required=True, help="secret parameter (>= 1)")
    p_enc.add_argument("--in", dest="infile", required=True, help="plaintext file")
    p_enc.add_argument("--out", dest="outfile", required=True, help="ciphertext file to write")
    p_enc.add_argument("--key-out", dest="keyfile", required=True, help="key file to write")
    p_enc.add_argument(
        "--fold-case",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="uppercase the input before validation (default: on)",
    )
    p_enc.add_argument(
        "--max-s-param",
        type=int,
        default=cli.DEFAULT_MAX_S_PARAM,
        help=f"upper bound accepted for --s (default {cli.DEFAULT_MAX_S_PARAM})",
    )

    p_dec = commands.add_parser("decrypt", help="decrypt a ciphertext file with a key file")
    p_dec.add_argument("--key", dest="keyfile", required=True, help="key file")
    p_dec.add_argument("--in", dest="infile", required=True, help="ciphertext file")
    p_dec.add_argument("--out", dest="outfile", required=True, help="plaintext file to write")

    p_ver = commands.add_parser(
        "verify-transform", help="check the integral identity on an (n, s) grid"
    )
    p_ver.add_argument("--n-max", type=int, default=6, help="largest n (default 6)")
    p_ver.add_argument("--s-max", type=int, default=6, help="largest s (default 6)")
    p_ver.add_argument("--tol", type=float, default=1e-9, help="relative tolerance (default 1e-9)")

    p_rec = commands.add_parser(
        "recover-s", help="scan for secret parameters consistent with ciphertext + quotients"
    )
    p_rec.add_argument("--in", dest="infile", required=True, help="ciphertext file")
    p_rec.add_argument(
        "--quotients",
        type=_reference_quotients,
        required=True,
        help="comma-separated quotients ('' for an empty message)",
    )
    p_rec.add_argument("--max-s", type=int, required=True, help="largest s to try (>= 1)")

    return parser


def _outcome(parse, argv):
    """(exit code or None if accepted, parsed values by dest, stdout, stderr) of one parse."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), default_digit_limit():
        try:
            values = parse(argv)
        except SystemExit as exc:
            return exc.code, None, out.getvalue(), err.getvalue()
    return None, {name: repr(value) for name, value in values.items()}, out.getvalue(), err.getvalue()


def _parse_with_table(argv):
    table = cli.build_parser()
    handler, values = cli._parse(table, argv)
    return {"command": next(name for name, (_, h, _) in table.items() if h is handler), **values}


_NEGATIVE = re.compile(r"^-\d+$|^-\d*\.\d+$")  # argparse reads these as values, not options
_WORDS = ["foo", "x=1", "-", "-x", "--bogus", "--bogus=1", "encrypt", "-h", "--h", "--help=x"]
_VALID = {  # values that each option type accepts, negative numbers among them
    int: ["4", "64", "-7", "+3", " 7"],
    float: ["1e-9", "-1.5", "-.5", "nan"],
    str: ["hello.txt", ""],
    cli._nonneg_int_list: ["7,23", " 7 ,23", ""],
}
_VALUES = [*_HOSTILE, "-7,23", "1,zap", "1,,2", "x" + "0" * 30, "-h", "--in", "--s=4", "- 1", "-"]


def _value_words_read_as_options(options, words):
    """Whether the word after an option that takes a value starts with '-' and is no plain negative number."""
    words = iter(words)
    for word in words:
        long = word.startswith("--") and len(word) > 2
        found = [o for o in options if o == word] or [o for o in options if long and o.startswith(word)]
        if len(found) == 1 and options[found[0]][1] is not bool:
            value = next(words, "")
            if value.startswith("-") and not _NEGATIVE.match(value):
                return True
    return False


@st.composite
def _argv(draw):
    """Maybe a word before the command, the command, most of its required options, up to 4 more items."""
    table = cli.build_parser()
    command = draw(st.sampled_from([*table, *table, *table, "frobnicate", "encryp", None]))
    words = draw(st.sampled_from([[], [], [], [], ["-h"], ["--he"], ["--bogus"], ["-x"]]))
    if command is None:  # argparse took the first word that is '-' or a negative number for the command
        return words
    words.append(command)
    options = table.get(command, (None, None, {}))[2]
    names = [*options, *(f"--no-{name[2:]}" for name, spec in options.items() if spec[1] is bool)]
    unique = [name[:k] for name in names for k in range(3, len(name))]
    unique = [prefix for prefix in unique if sum(o.startswith(prefix) for o in [*names, "--help"]) == 1]
    other = ["--tol", "--s", "--key", "--in"]  # options of other commands; --s is a prefix of --s-max
    option = st.sampled_from([*names, *unique, *other])
    value = st.sampled_from([value for values in _VALID.values() for value in values] + _VALUES)
    required = [name for name, spec in options.items() if spec[2] is None]
    items = [[name, draw(st.sampled_from(_VALID[options[name][1]]))] for name in required if draw(st.integers(0, 7))]
    items += draw(st.lists(st.one_of(
        st.tuples(option, value).map(list),  # --option value
        st.tuples(option, value).map(lambda pair: ["=".join(pair)]),  # --option=value
        option.map(lambda name: [name]),  # a flag, or a value missing
        st.sampled_from(_WORDS).map(lambda word: [word]),  # help or an unknown word
    ), max_size=4))
    for item in draw(st.permutations(items)):
        words += item
    return words


@given(argv=_argv())
@example(argv=["recover-s", "--in", "ct.txt", "--quotients", "1,zap", "--max-s", "8"])
@example(argv=["encrypt", "--ma", "100", "--s=-1", "--in", "a", "--out", "b", "--key-out", "c", "--no-f"])
@example(argv=["verify-transform", "--s", "3", "--s=-4", "--n", "x"])
@settings(max_examples=400, deadline=None)
def test_table_parser_matches_the_argparse_parser_it_replaced(argv):
    """Differential test: the option table reads each command line as the argparse parser did.

    Both give the same exit code (None when they accept) and the same values when both accept.
    Each usage error ends in one error line, the same last line as argparse's, but for a flag
    given a value with '=', which argparse named by both its forms (-h/--help). A draw in which
    a value word starts with '-' and is not a plain negative number is left out: argparse read
    such a word as an option and refused the line, where the table parser reads it as the value
    (test_value_word_may_start_with_a_dash).
    """
    command = next((word for word in argv if word[:1] != "-"), None)  # the words before it start with '-'
    options = cli.build_parser().get(command, (None, None, {}))[2]
    assume(not _value_words_read_as_options(options, argv))
    ref = _outcome(lambda words: vars(_reference_parser().parse_args(words)), argv)
    new = _outcome(_parse_with_table, argv)
    assert new[:2] == ref[:2], (argv, ref, new)
    if new[0] == EXIT_USAGE:
        lines = new[3].splitlines()
        assert [line for line in lines if "error:" in line] == lines[-1:]
        if "ignored explicit argument" not in ref[3]:  # argparse named a flag by both its forms
            assert lines[-1] == ref[3].splitlines()[-1], argv
    if new[0] == EXIT_OK:
        assert new[2].startswith("usage: mellin-cipher") and new[3] == ""


def test_recover_s_at_a_huge_max_s_returns_from_a_cold_process(workdir):
    # JBHDN has letters other than Z, so only s in 1..12 can decrypt it, whatever --max-s says
    (workdir / "ct.txt").write_bytes(b"JBHDN\n")
    argv = ["recover-s", "--in", "ct.txt", "--quotients", "7,23,332,2326,23261", "--max-s", "1000000000"]
    try:
        result = _cold_cli(workdir, *argv, timeout=30)
    except subprocess.TimeoutExpired:
        pytest.fail("recover-s --max-s 1000000000 ran past 30 s")
    assert (result.returncode, result.stdout, result.stderr) == (EXIT_OK, "4\n", "")


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
    monkeypatch.setattr(math, "factorial", refuse_factorials_past(-1))  # no factorial at all
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
    code = run_decrypt(workdir)
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
    code = run_decrypt(workdir)
    assert code == EXIT_DATA
    err = capsys.readouterr().err
    assert len(err.encode()) < 500
    assert err == f"mellin-cipher: {message}\n"


def test_decrypt_malformed_key_file(workdir):
    run_encrypt(workdir)
    (workdir / "key.mk").write_bytes(b"NOT-A-KEY\n")
    code = run_decrypt(workdir)
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


def _child_env():
    """The environment with this checkout's package on the path and stdout buffered as in a user's shell."""
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    env.pop("PYTHONUNBUFFERED", None)  # a pipe or a file is then block-buffered, and flushed at the end
    return env


def _fresh_python(workdir, code, *argv):
    """Run ``code`` in a fresh interpreter that imports the package from this checkout."""
    return subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=workdir, env=_child_env(), capture_output=True, text=True
    )


def _cold_cli(workdir, *argv, **options):
    """Run ``python -m mellin_cipher argv`` as _fresh_python runs code; ``options`` go to subprocess.run."""
    options = {"stdout": subprocess.PIPE, "stderr": subprocess.PIPE, "text": True, "env": _child_env(), **options}
    return subprocess.run([sys.executable, "-m", "mellin_cipher", *argv], cwd=workdir, **options)


def test_cold_output_through_a_pipe_is_complete(workdir):
    # stdout to a pipe is block-buffered: an exit that skipped a flush would cut the output short
    (workdir / "empty.txt").write_bytes(b"\n")
    result = _cold_cli(workdir, "recover-s", "--in", "empty.txt", "--quotients", "", "--max-s", "200000")
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert result.stdout == "".join(f"{s}\n" for s in range(1, 200001))
    result = _cold_cli(workdir, "verify-transform")
    assert (result.returncode, result.stderr) == (EXIT_OK, "verify-transform: 36/36 pass (tol 1e-09)\n")
    rows = result.stdout.splitlines()
    assert len(rows) == 37 and all(row.endswith(" PASS") for row in rows[1:])


def test_run_ends_the_process_without_teardown(workdir):
    # atexit handlers run in the interpreter's teardown, which run() skips once its output is flushed
    code = "import atexit, sys\natexit.register(print, 'teardown', file=sys.stderr)\n"
    result = _fresh_python(workdir, code + "from mellin_cipher.cli import run\nrun()\n", "recover-s", "-h")
    assert (result.returncode, result.stderr) == (EXIT_OK, "")
    assert result.stdout.startswith("usage: mellin-cipher recover-s [-h] --in INFILE")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("argv", [["verify-transform"], ["-h"], ["decrypt", "--help"]])
def test_a_failed_final_write_to_stdout_exits_two(workdir, argv):
    # stdout to a file is block-buffered, so the write fails only when main() flushes it
    with open("/dev/full", "w") as full:
        result = _cold_cli(workdir, *argv, stdout=full)
    assert result.returncode == EXIT_IO
    assert result.stderr.endswith(f"mellin-cipher: i/o error: [Errno {errno.ENOSPC}] {os.strerror(errno.ENOSPC)}\n")
    assert result.stderr.count("\n") == (2 if argv == ["verify-transform"] else 1)  # and its summary line
    assert "Traceback" not in result.stderr and "Exception ignored" not in result.stderr


def test_a_closed_stdout_fails_only_a_command_that_writes_to_it(workdir):
    # with fd 1 closed at start-up (a shell's >&-) sys.stdout is None; encrypt and decrypt write only files
    ebadf = f"mellin-cipher: i/o error: [Errno {errno.EBADF}] {os.strerror(errno.EBADF)}\n"
    for argv, code, err in (
        (["encrypt", "--s", "4", "--in", "hello.txt", "--out", "ct.txt", "--key-out", "key.mk"], EXIT_OK, ""),
        (["decrypt", "--key", "key.mk", "--in", "ct.txt", "--out", "pt.txt"], EXIT_OK, ""),
        (["recover-s", "--in", "ct.txt", "--quotients", "7,23,332,2326,23261", "--max-s", "8"], EXIT_IO, ebadf),
        (["recover-s", "--in", "ct.txt", "--quotients", "8,23,332,2326,23261", "--max-s", "32"], EXIT_OK, ""),
        (["verify-transform", "--n-max", "2", "--s-max", "2"], EXIT_IO, ebadf),
        (["-h"], EXIT_IO, ebadf),
    ):
        result = _cold_cli(workdir, *argv, stdout=None, preexec_fn=functools.partial(os.close, 1))
        assert (result.returncode, result.stderr) == (code, err), argv
    assert (workdir / "pt.txt").read_bytes() == b"HELLO\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
def test_a_full_stdout_fails_only_a_recover_s_that_prints(workdir):
    # as with stdout closed: a scan that finds no candidate writes nothing, so nothing fails
    assert run_encrypt(workdir) == EXIT_OK
    for quotients, code in (("7,23,332,2326,23261", EXIT_IO), ("8,23,332,2326,23261", EXIT_OK)):
        with open("/dev/full", "w") as full:
            argv = ["recover-s", "--in", "ct.txt", "--quotients", quotients, "--max-s", "32"]
            result = _cold_cli(workdir, *argv, stdout=full)
        assert result.returncode == code, quotients
        assert result.stderr.startswith("mellin-cipher: i/o error:") == (code == EXIT_IO), result.stderr


def test_a_closed_stderr_drops_diagnostics_and_keeps_stdout_for_results(workdir):
    # with fd 2 closed at start-up (a shell's 2>&-) sys.stderr is None, and print(file=None) writes to stdout
    assert run_encrypt(workdir) == EXIT_OK
    for argv, code, out in (
        (["decrypt", "--key", "missing.mk", "--in", "hello.txt", "--out", "pt.txt"], EXIT_IO, ""),
        (["decrypt", "--key", "missing.mk"], EXIT_USAGE, ""),
        (["recover-s", "--in", "ct.txt", "--quotients", "7,23,332,2326,23261", "--max-s", "8"], EXIT_OK, "4\n"),
    ):
        result = _cold_cli(workdir, *argv, stderr=None, preexec_fn=functools.partial(os.close, 2))
        assert (result.returncode, result.stdout) == (code, out), argv
    assert not (workdir / "pt.txt").exists()


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full, where every write fails")
@pytest.mark.parametrize("unbuffered", [False, True])
def test_a_failed_diagnostic_write_keeps_the_exit_code(workdir, unbuffered):
    # each diagnostic fails to write and is dropped, as with fd 2 closed; results still go to stdout
    assert run_encrypt(workdir) == EXIT_OK
    (workdir / "bad.mk").write_bytes(EXAMPLE_KEY_BYTES.replace(b"MELLIN", b"MERLIN"))
    env = {**_child_env(), **({"PYTHONUNBUFFERED": "1"} if unbuffered else {})}
    for argv, code, lines in (  # the exit code and the number of stdout lines
        (["decrypt", "--key", "missing.mk", "--in", "ct.txt", "--out", "pt.txt"], EXIT_IO, 0),
        (["verify-transform", "--n-max", "2", "--s-max", "2"], EXIT_OK, 5),
        (["decrypt", "--key", "missing.mk"], EXIT_USAGE, 0),
        (["decrypt", "--key", "bad.mk", "--in", "ct.txt", "--out", "pt.txt"], EXIT_DATA, 0),
        (["recover-s", "--in", "ct.txt", "--quotients", "7,23,332,2326,23261", "--max-s", "8"], EXIT_OK, 1),
    ):
        with open("/dev/full", "w") as full:
            result = _cold_cli(workdir, *argv, stderr=full, env=env)
        assert (result.returncode, result.stdout.count("\n")) == (code, lines), argv
    assert result.stdout == "4\n"
    assert not (workdir / "pt.txt").exists()


_STREAM_FDS = {"stdout": 1, "stderr": 2}


@pytest.mark.parametrize("missing", [("stdout",), ("stderr",), ("stdout", "stderr")])
def test_main_treats_a_missing_stream_as_a_cold_process_treats_a_closed_fd(workdir, monkeypatch, missing):
    # an embedding host or pythonw calls main() with sys.stdout or sys.stderr None, as a cold
    # process started with fd 1 or fd 2 closed has them; each pair of runs must agree
    monkeypatch.chdir(workdir)
    kept = [name for name in _STREAM_FDS if name not in missing]
    for argv, code, prints in (  # the exit code with both streams open; whether the command prints results
        (["encrypt", "--s", "4", "--in", "hello.txt", "--out", "ct.txt", "--key-out", "key.mk"], EXIT_OK, False),
        (["decrypt", "--key", "missing.mk", "--in", "ct.txt", "--out", "pt.txt"], EXIT_IO, False),
        (["verify-transform", "--n-max", "2", "--s-max", "2"], EXIT_OK, True),
        (["recover-s", "--in", "ct.txt", "--quotients", "7,23,332,2326,23261", "--max-s", "8"], EXIT_OK, True),
        (["recover-s", "--in", "ct.txt", "--quotients", "1,2", "--max-s", "8"], EXIT_DATA, False),
        (["-h"], EXIT_OK, True),
        (["decrypt", "--key", "missing.mk"], EXIT_USAGE, False),
    ):
        expected = EXIT_IO if prints and "stdout" in missing else code
        fds = [_STREAM_FDS[name] for name in missing]
        close = functools.partial(os.closerange, min(fds), max(fds) + 1)
        cold = _cold_cli(workdir, *argv, preexec_fn=close, **dict.fromkeys(missing))
        out = io.StringIO()
        with mock.patch.multiple(sys, **dict.fromkeys(missing), **dict.fromkeys(kept, out)):
            warm = main(argv)  # an exception out of main() fails the test
        assert (warm, cold.returncode) == (expected, expected), (argv, missing)
        assert out.getvalue() == (getattr(cold, kept[0]) if kept else ""), (argv, missing)
    assert not (workdir / "pt.txt").exists()


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


def test_a_verify_transform_usage_error_loads_no_oracle(workdir):
    code = "import sys\nfrom mellin_cipher.cli import main\ncode = main(sys.argv[1:])\n"
    code += "print(code, 'mellin_cipher.oracle' in sys.modules, file=sys.stderr)\n"
    for argv in (["--n-max", "0"], ["--s-max", "0"], ["--tol", "0"]):
        result = _fresh_python(workdir, code, "verify-transform", *argv)
        assert result.stderr.endswith(f"\n{EXIT_USAGE} False\n"), argv


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
        "heavy = ('__future__', 'dataclasses', 'inspect', 'typing', 'numpy', 'argparse', 'gettext', 'locale', 're',\n"
        "         'shutil', 'decimal')\n"
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


@given(
    letters=st.text(alphabet=ALPHABET, max_size=40),
    true_s=st.integers(1, 70),
    edit=st.sampled_from([None, "letter", "quotient", "extra quotient"]),
    max_s=st.integers(1, 150),
    data=st.data(),
)
@settings(max_examples=100, deadline=None)
def test_recover_s_prints_exactly_the_library_answer(letters, true_s, edit, max_s, data):
    ciphertext, key = encrypt(letters, true_s)
    residues, quotients = list(ciphertext.residues), list(key.quotients)
    if edit in ("letter", "quotient") and letters:
        at = data.draw(st.integers(0, len(letters) - 1))
        if edit == "letter":
            residues[at] = data.draw(st.integers(1, 26))
        else:
            quotients[at] += 1
    elif edit == "extra quotient":
        quotients.append(data.draw(st.integers(0, 10**6)))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "ct.txt")
        Path(path).write_bytes(write_ciphertext(CipherText(residues)))
        argv = ["recover-s", "--in", path, "--quotients", ",".join(map(str, quotients)), "--max-s", str(max_s)]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    if len(quotients) != len(residues):
        assert (code, out.getvalue()) == (EXIT_DATA, "")
    else:
        assert (code, err.getvalue()) == (EXIT_OK, "")
        expected = sorted(recover_s(CipherText(residues), quotients, max_s))
        assert out.getvalue() == "".join(f"{s}\n" for s in expected)


def test_recover_s_length_mismatch(workdir):
    run_encrypt(workdir)
    code = main(
        ["recover-s", "--in", str(workdir / "ct.txt"), "--quotients", "1,2", "--max-s", "8"]
    )
    assert code == EXIT_DATA
