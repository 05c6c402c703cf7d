"""Command-line front end: encrypt, decrypt, verify-transform, recover-s.

Exit codes are stable: 0 success, 1 usage error, 2 I/O error, 3 validation
or corruption error, 4 verification failure. Results go to stdout or named
files; diagnostics go to stderr. Behavior depends only on arguments and the
named files.
"""

import contextlib
import errno
import itertools
import math
import os
import stat
import sys
from collections.abc import Sequence

from . import keyio
from .alphabet import encode_text
from .cipher import _candidates, encrypt, decrypt
from .errors import CipherToolkitError, _quote

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

DEFAULT_MAX_S_PARAM = 64
_CHUNK = 1 << 16  # recover-s lines per write: one write per line is 3-5x slower into a write-through stdout


def _nonneg_int_list(text: str) -> list[int]:
    values = []
    for index, token in enumerate(text.split(",") if text else (), start=1):
        token = token.strip()
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"quotient {index} is not a decimal >= 0: {_quote(token)}")
        try:
            values.append(int(token))
        except ValueError:  # str -> int refuses integers past the digit limit
            raise ValueError(f"quotient {index} has {keyio._too_wide()}") from None
    return values


def build_parser() -> dict[str, tuple]:
    """Each command's summary, handler and options: option -> (dest, type, default or None if required, help)."""
    return {
        "encrypt": ("encrypt a letters-only file", _cmd_encrypt, {
            "--s": ("s", int, None, "secret parameter (>= 1)"),
            "--in": ("infile", str, None, "plaintext file"),
            "--out": ("outfile", str, None, "ciphertext file to write"),
            "--key-out": ("keyfile", str, None, "key file to write"),
            "--fold-case": ("fold_case", bool, True, "uppercase the input before validation"),  # and --no-fold-case
            "--max-s-param": ("max_s_param", int, DEFAULT_MAX_S_PARAM, "upper bound accepted for --s"),
        }),
        "decrypt": ("decrypt a ciphertext file with a key file", _cmd_decrypt, {
            "--key": ("keyfile", str, None, "key file"),
            "--in": ("infile", str, None, "ciphertext file"),
            "--out": ("outfile", str, None, "plaintext file to write"),
        }),
        "verify-transform": ("check the integral identity on an (n, s) grid", _cmd_verify_transform, {
            "--n-max": ("n_max", int, 6, "largest n"),
            "--s-max": ("s_max", int, 6, "largest s"),
            "--tol": ("tol", float, 1e-9, "relative tolerance"),
        }),
        "recover-s": ("scan for secret parameters consistent with ciphertext + quotients", _cmd_recover_s, {
            "--in": ("infile", str, None, "ciphertext file"),
            "--quotients": ("quotients", _nonneg_int_list, None, "comma-separated quotients ('' for none)"),
            "--max-s": ("max_s", int, None, "largest s to try (>= 1)"),
        }),
    }


def _say(line: str) -> None:  # a diagnostic: dropped if there is no stderr (fd 2 closed at start-up) or it fails
    if sys.stderr is not None:  # print(file=None) would write it to stdout
        with contextlib.suppress(OSError):  # a full device, say: the exit code still tells what happened
            print(line, file=sys.stderr)


def _stdout():  # the stream for results; with none (fd 1 closed at start-up), the error a write to fd 1 gives
    if sys.stdout is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    return sys.stdout


def _fail(message: str, usage: str = "", prog: str = "mellin-cipher"):
    _say(f"{usage}{prog}: error: {message}")
    raise SystemExit(EXIT_USAGE)


def _read(prog: str, summary: str, options: dict, words: Sequence[str], rows=()) -> tuple[dict, list]:
    """Read words against one option table: the values by dest, and the words it does not know.

    An option is its name or a unique prefix of it; a bool one is a flag with a --no- form. Its
    value is the text after '=', or else the next word, whatever it starts with. The last of a
    repeated option wins. -h or --help prints help and raises SystemExit(0); a bad word or a
    missing option prints argparse's usage and error lines and raises SystemExit(1).
    """
    usage, rows = [f"usage: {prog} [-h]"], [*rows, ("-h, --help", "show this help and exit")]
    for name, (dest, kind, default, text) in options.items():
        shown = f"{name} | --no-{name[2:]}" if kind is bool else f"{name} {dest.upper()}"
        usage.append(shown if default is None else f"[{shown}]")
        rows.append((shown, f"{text} ({'required' if default is None else f'default: {default}'})"))
    usage = " ".join(usage) + ("" if options else " command ...") + "\n"
    flags = {"-h": None, "--help": None, **options}
    flags.update({f"--no-{name[2:]}": spec for name, spec in options.items() if spec[1] is bool})
    values = {dest: default for dest, _, default, _ in options.values() if default is not None}
    extras, words = [], iter(words)
    for word in words:
        name, eq, text = word.partition("=")
        found = [flag for flag in flags if flag == name]
        if not found and name.startswith("--") and name != "--":  # no table has an ambiguous prefix
            found = [flag for flag in flags if flag.startswith(name)]
        if len(found) != 1:
            extras.append(word)
            continue
        dest, kind, *_ = flags[found[0]] or (None, None)  # no dest: -h or --help
        if eq and kind in (None, bool):
            _fail(f"argument {found[0]}: ignored explicit argument {text!r}", usage, prog)
        if dest is None:
            print(usage, summary, "", *(f"  {left:<28} {right}" for left, right in rows), sep="\n", file=_stdout())
            raise SystemExit(EXIT_OK)
        if kind is bool:
            values[dest] = not found[0].startswith("--no-")
        elif not eq and (text := next(words, None)) is None:
            _fail(f"argument {found[0]}: expected one argument", usage, prog)
        else:
            try:
                values[dest] = kind(text)
            except ValueError as exc:  # int and float are named as argparse named them
                reason = exc if kind is _nonneg_int_list else f"invalid {kind.__name__} value: {text!r}"
                _fail(f"argument {found[0]}: {reason}", usage, prog)
    if missing := [name for name, spec in options.items() if spec[0] not in values]:
        _fail(f"the following arguments are required: {', '.join(missing)}", usage, prog)
    return values, extras


def _parse(commands: dict, argv: Sequence[str]) -> tuple:
    """The handler of the command argv names, and its option values by dest (see _read)."""
    prog, usage = "mellin-cipher", "usage: mellin-cipher [-h] command ...\n"
    at = next((i for i, word in enumerate(argv) if word[:1] != "-"), len(argv))  # the command
    rows = [(name, summary) for name, (summary, *_) in commands.items()]
    extras = _read(prog, __doc__.splitlines()[0], {}, argv[:at], rows)[1]
    if at == len(argv):
        _fail("the following arguments are required: command", usage)
    if argv[at] not in commands:
        choices = ", ".join(map(repr, commands))
        _fail(f"argument command: invalid choice: {argv[at]!r} (choose from {choices})", usage)
    summary, handler, options = commands[argv[at]]
    values, more = _read(f"{prog} {argv[at]}", summary, options, argv[at + 1 :])
    if extras or more:
        _fail(f"unrecognized arguments: {' '.join(extras + more)}", usage)
    return handler, values


def _read_plaintext(path: str, fold_case: bool) -> str:
    with open(path, "rb") as handle:
        # editors append one LF; anything beyond that must fail validation
        data = handle.read().removesuffix(b"\n")
    # bytes.upper folds a..z alone: byte 0xDF is rejected as chr(0xDF), never uppercased to SS
    return (data.upper() if fold_case else data).decode("latin-1")  # byte i is chr(byte i)


def _write_all_or_none(outputs: list[tuple[str, bytes]]) -> None:
    """Write each (path, data) pair in order, or leave every path as it was.

    Each payload goes to a fresh temp file beside its target, and the targets
    are replaced only after every temp file is written. A new file gets the
    mode ``open`` would give it; an existing one keeps its mode. A symlink is
    replaced by a file, not written through.
    """
    temps: list[str] = []
    try:
        for path, data in outputs:
            if os.path.isdir(path):  # os.replace would fail only after earlier targets moved
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), path)
            head, tail = os.path.split(path)
            temp = os.path.join(head, f".{tail}.{os.urandom(4).hex()}.tmp")
            try:
                fd = os.open(temp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
            except OSError as exc:  # name the target, not the temp file
                raise OSError(exc.errno, exc.strerror, path) from None
            temps.append(temp)
            with open(fd, "wb") as handle:
                handle.write(data)
            with contextlib.suppress(FileNotFoundError):
                os.chmod(temp, stat.S_IMODE(os.stat(path).st_mode))
        for (path, _), temp in zip(outputs, temps):
            os.replace(temp, path)
    finally:
        for temp in temps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(temp)


def _cmd_encrypt(s: int, infile: str, outfile: str, keyfile: str, fold_case: bool, max_s_param: int) -> int:
    if max_s_param < 1:
        _fail("--max-s-param must be >= 1")
    if not 1 <= s <= max_s_param:
        _fail(f"--s must be in 1..{max_s_param} (raise --max-s-param for larger values)")
    if os.path.realpath(outfile) == os.path.realpath(keyfile):  # one replaces the other
        _fail("--out and --key-out name the same file")
    plaintext = _read_plaintext(infile, fold_case)
    limit = sys.get_int_max_str_digits()  # 0 is no limit
    # Each quotient is at least (s! - 26) / 26, so none fits the limit once log10(s!) > limit + 3;
    # skip the factorial then. Past 10**300 (not a float) log10(s!) is larger still.
    if plaintext and limit and math.lgamma(min(s, 10**300) + 1) / math.log(10) > limit + 3:
        encode_text(plaintext, fold_case=False)  # a bad letter is named first, as encrypt names it
        raise keyio._unwritable()
    ciphertext, key = encrypt(plaintext, s, fold_case=False)
    _write_all_or_none([(keyfile, keyio.write_key(key)), (outfile, keyio.write_ciphertext(ciphertext))])
    return EXIT_OK


def _cmd_decrypt(keyfile: str, infile: str, outfile: str) -> int:
    with open(keyfile, "rb") as handle:
        key = keyio.read_key(handle.read())
    with open(infile, "rb") as handle:
        ciphertext = keyio.read_ciphertext(handle.read())
    _write_all_or_none([(outfile, decrypt(ciphertext, key).encode("ascii") + b"\n")])
    return EXIT_OK


def _cmd_verify_transform(n_max: int, s_max: int, tol: float) -> int:
    if n_max < 1 or s_max < 1:
        _fail("--n-max and --s-max must be >= 1")
    if not tol > 0:  # NaN too
        _fail("--tol must be > 0")
    from .oracle import numeric_mellin  # the only command that needs the oracle
    failures, out = 0, _stdout()
    print(f"{'n':>3} {'s':>3} {'exponent':>8} {'numeric':>24} {'exact':>20} {'rel_err':>10} status", file=out)
    for n in range(1, n_max + 1):
        for s in range(1, s_max + 1):
            result = numeric_mellin(n, s)
            ok = result.relative_error <= tol
            failures += not ok
            print(
                f"{n:>3} {s:>3} {s + n - 1:>8} {result.numeric:>24.12e} "
                f"{result.exact:>20} {result.relative_error:>10.2e} {'PASS' if ok else 'FAIL'}", file=out
            )
    total = n_max * s_max
    _say(f"verify-transform: {total - failures}/{total} pass (tol {tol:g})")
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_recover_s(infile: str, quotients: list[int], max_s: int) -> int:
    if max_s < 1:
        _fail("--max-s must be >= 1")
    with open(infile, "rb") as handle:
        ciphertext = keyio.read_ciphertext(handle.read())
    found = iter(_candidates(ciphertext, quotients, max_s))  # a bad input exits 3 with no stdout
    while chunk := "".join(map("{}\n".format, itertools.islice(found, _CHUNK))):
        _stdout().write(chunk)  # asked for only with a line to write: no candidate needs no stdout
    return EXIT_OK


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command and flush stdout; returns the exit code instead of exiting.

    A missing stdout or stderr (None, as under pythonw) is treated as a cold process treats a closed fd 1 or 2.
    """
    try:
        try:
            handler, values = _parse(build_parser(), sys.argv[1:] if argv is None else argv)
            code = handler(**values)
        except SystemExit as exc:  # raised by -h (0) and by _fail (1)
            code = int(exc.code)
        except CipherToolkitError as exc:
            _say(f"mellin-cipher: {exc}")
            code = EXIT_DATA
        if sys.stdout is not None:  # None with fd 1 closed at start-up
            sys.stdout.flush()  # a write error still in the buffer is an i/o error like any other
        return code
    except OSError as exc:
        _say(f"mellin-cipher: i/o error: {exc}")
        return EXIT_IO


def run() -> None:
    """Console-script entry point: runs main() on sys.argv and ends the process with its code."""
    os._exit(main())  # no interpreter teardown: the OS frees the memory, and atexit handlers do not run
