"""Command-line front end: encrypt, decrypt, verify-transform, recover-s.

Exit codes are stable: 0 success, 1 usage error, 2 I/O error, 3 validation
or corruption error, 4 verification failure. Results go to stdout or named
files; diagnostics go to stderr. Behavior depends only on arguments and the
named files.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import math
import os
import stat
import sys
from collections.abc import Sequence

from . import keyio
from .alphabet import encode_text
from .cipher import encrypt, decrypt, recover_s
from .errors import CipherToolkitError, _quote

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_DATA = 3
EXIT_VERIFY = 4

DEFAULT_MAX_S_PARAM = 64
_CHUNK = 1 << 16  # candidates per write when recover-s lists every s


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad arguments; the contract wants 1
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _nonneg_int_list(text: str) -> list[int]:
    if text == "":
        return []
    values = []
    for index, token in enumerate(text.split(","), start=1):
        token = token.strip()
        if not (token.isascii() and token.isdigit()):
            shown = _quote(token)
            raise argparse.ArgumentTypeError(f"quotient {index} is not a decimal >= 0: {shown}")
        try:
            values.append(int(token))
        except ValueError:  # str -> int refuses integers past the digit limit
            raise argparse.ArgumentTypeError(f"quotient {index} has {keyio._too_wide()}") from None
    return values


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="mellin-cipher", description=__doc__.splitlines()[0])
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
        default=DEFAULT_MAX_S_PARAM,
        help=f"upper bound accepted for --s (default {DEFAULT_MAX_S_PARAM})",
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
        type=_nonneg_int_list,
        required=True,
        help="comma-separated quotients ('' for an empty message)",
    )
    p_rec.add_argument("--max-s", type=int, required=True, help="largest s to try (>= 1)")

    return parser


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
    mode ``open`` would give it; an existing one keeps its mode.
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


def _cmd_encrypt(args) -> int:
    if args.max_s_param < 1:
        print("mellin-cipher: error: --max-s-param must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if not 1 <= args.s <= args.max_s_param:
        print(
            f"mellin-cipher: error: --s must be in 1..{args.max_s_param} "
            "(raise --max-s-param for larger values)",
            file=sys.stderr,
        )
        return EXIT_USAGE
    if os.path.realpath(args.outfile) == os.path.realpath(args.keyfile):  # one replaces the other
        print("mellin-cipher: error: --out and --key-out name the same file", file=sys.stderr)
        return EXIT_USAGE
    plaintext = _read_plaintext(args.infile, args.fold_case)
    limit = sys.get_int_max_str_digits()  # 0 is no limit
    # Each quotient is at least (s! - 26) / 26, so none fits the limit once log10(s!) > limit + 3;
    # skip the factorial then. Past 10**300 (not a float) log10(s!) is larger still.
    if plaintext and limit and math.lgamma(min(args.s, 10**300) + 1) / math.log(10) > limit + 3:
        encode_text(plaintext, fold_case=False)  # a bad letter is named first, as encrypt names it
        raise keyio._unwritable()
    ciphertext, key = encrypt(plaintext, args.s, fold_case=False)
    _write_all_or_none(
        [(args.keyfile, keyio.write_key(key)), (args.outfile, keyio.write_ciphertext(ciphertext))]
    )
    return EXIT_OK


def _cmd_decrypt(args) -> int:
    with open(args.keyfile, "rb") as handle:
        key = keyio.read_key(handle.read())
    with open(args.infile, "rb") as handle:
        ciphertext = keyio.read_ciphertext(handle.read())
    _write_all_or_none([(args.outfile, decrypt(ciphertext, key).encode("ascii") + b"\n")])
    return EXIT_OK


def _cmd_verify_transform(args) -> int:
    from .oracle import numeric_mellin  # the only command that needs the oracle

    if args.n_max < 1 or args.s_max < 1:
        print("mellin-cipher: error: --n-max and --s-max must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    if not args.tol > 0:  # NaN too
        print("mellin-cipher: error: --tol must be > 0", file=sys.stderr)
        return EXIT_USAGE
    failures = 0
    print(f"{'n':>3} {'s':>3} {'exponent':>8} {'numeric':>24} {'exact':>20} {'rel_err':>10} status")
    for n in range(1, args.n_max + 1):
        for s in range(1, args.s_max + 1):
            result = numeric_mellin(n, s)
            ok = result.relative_error <= args.tol
            failures += not ok
            print(
                f"{n:>3} {s:>3} {s + n - 1:>8} {result.numeric:>24.12e} "
                f"{result.exact:>20} {result.relative_error:>10.2e} {'PASS' if ok else 'FAIL'}"
            )
    total = args.n_max * args.s_max
    print(f"verify-transform: {total - failures}/{total} pass (tol {args.tol:g})", file=sys.stderr)
    return EXIT_OK if failures == 0 else EXIT_VERIFY


def _cmd_recover_s(args) -> int:
    if args.max_s < 1:
        print("mellin-cipher: error: --max-s must be >= 1", file=sys.stderr)
        return EXIT_USAGE
    with open(args.infile, "rb") as handle:
        ciphertext = keyio.read_ciphertext(handle.read())
    if not args.quotients and not len(ciphertext):  # every s decrypts it: list them without a set
        for start in range(1, args.max_s + 1, _CHUNK):
            stop = min(start + _CHUNK, args.max_s + 1)
            sys.stdout.write("".join(map("{}\n".format, range(start, stop))))
        return EXIT_OK
    candidates = sorted(recover_s(ciphertext, args.quotients, args.max_s))
    sys.stdout.writelines(f"{s}\n" for s in candidates)
    return EXIT_OK


_HANDLERS = {
    "encrypt": _cmd_encrypt,
    "decrypt": _cmd_decrypt,
    "verify-transform": _cmd_verify_transform,
    "recover-s": _cmd_recover_s,
}


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command; returns the exit code instead of exiting."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # raised by --help (0) and by _Parser.error (1)
        return int(exc.code or 0)
    try:
        return _HANDLERS[args.command](args)
    except OSError as exc:
        print(f"mellin-cipher: i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except CipherToolkitError as exc:
        print(f"mellin-cipher: {exc}", file=sys.stderr)
        return EXIT_DATA


def run() -> None:
    """Console-script entry point."""
    sys.exit(main())
