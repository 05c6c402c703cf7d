"""The benchmark's three workloads: seeded inputs, one closed loop each, output checks.

Every workload is a closed loop with one client and no extra threads: the
next operation starts when the previous one has finished. Inputs come from
``random.Random`` seeded with the workload name and the run's seed, so the
same seed gives the same inputs; the package only ever sees those inputs.

- ``cli-mix``: cold ``python -m mellin_cipher`` processes, one at a time.
  Import dominates; ``verify-transform`` is the command a lazy oracle import
  should not move. A hostile slice checks exit codes on bad input.
- ``bulk-roundtrip``: seal (``encrypt``, ``write_ciphertext``, ``write_key``)
  and open (``read_key``, ``read_ciphertext``, ``decrypt``) 10^5 letters at
  s = 4 and s = 64, in process. Cipher and key format do the work.
- ``attack-verify``: ``recover_s`` over 1..1000 on 50-letter ciphertexts,
  then a batch of oracle rows, in process. Many short decrypts that nearly
  all reject, and real quadrature.

A unit is one step of the loop; each returns the :class:`Sample` of every
operation it ran. ``probe`` runs one traced unit, so that a traced run of
another workload still records every layer.
"""

from __future__ import annotations

import json
import math
import os
import random
import signal
import statistics
import string
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from mellin_cipher.alphabet import decode_values, encode_text
from mellin_cipher.cipher import (
    CipherKey,
    CipherText,
    decrypt,
    encrypt,
    exponent_schedule,
    recover_s,
    split_mod26,
    transform_coefficients,
)
from mellin_cipher.errors import NotDivisible, ValueOutOfRange
from mellin_cipher.keyio import read_ciphertext, read_key, write_ciphertext, write_key

from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
LETTERS = string.ascii_uppercase
CHILD_TIMEOUT_S = 120
# The host's speed drifts by tens of percent over minutes. A run times a
# fixed reference task alongside its operations and scales every timing it
# reports to a host on which that task takes its nominal time: in-process
# work by reference_loop, cold processes by cold_reference, because a CPU
# loop in this process does not follow the cost of starting another one.
REFERENCE_NOMINAL_S = 0.008
COLD_REFERENCE_NOMINAL_S = 0.17
_COLD_REFERENCE_IMPORTS = (
    "asyncio, email.mime.multipart, http.server, xml.dom.minidom, unittest, decimal, sqlite3, ctypes, "
    "multiprocessing, logging.handlers, zipfile, tarfile, csv, json, ssl, urllib.request, "
    "concurrent.futures, statistics, fractions, difflib, pydoc"
)


def random_text(rng: random.Random, length: int) -> str:
    return "".join(rng.choices(LETTERS, k=length))


def reference_loop() -> float:
    """Seconds for a fixed mix of bytecode, big-integer and dict work."""
    start = time.perf_counter()
    total = 0
    for k in range(60_000):
        total += k * k % 7
    products = [math.factorial(40 + k % 30) * 26 for k in range(3_000)]
    table = {str(k): k for k in range(5_000)}
    del products, table
    return time.perf_counter() - start


@dataclass
class Sample:
    """One operation: its kind, its wall time, and whether its output checked out.

    ``hostile`` marks operations on deliberately bad input; a wrong outcome
    there counts as failed but does not make the run's outputs incorrect.
    """

    kind: str
    seconds: float
    ok: bool
    hostile: bool = False
    work: int = 0
    rss_mb: float = 0.0
    parts: dict[str, float] = field(default_factory=dict)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def run_child(argv: list[str], cwd: Path, env: dict[str, str], stdout: Path, stderr: Path):
    """Run one child process to completion; return (exit code, seconds, peak RSS in MB).

    ``os.wait4`` reaps the child itself, which gives that child's own
    high-water RSS. A child still running after CHILD_TIMEOUT_S is killed
    and reported with exit code -9.
    """
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.alarm(CHILD_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except _Timeout:
        proc.kill()
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, seconds, usage.ru_maxrss / 1024


def package_env() -> dict[str, str]:
    """This environment, with the checkout's ``src`` as the only PYTHONPATH entry."""
    return {**os.environ, "PYTHONPATH": str(BENCH_DIR.parent / "src")}


def cold_reference(workdir: Path) -> float:
    """Seconds for a fresh interpreter to import a fixed set of standard-library modules."""
    argv = [sys.executable, "-c", f"import {_COLD_REFERENCE_IMPORTS}"]
    code, seconds, _ = run_child(argv, workdir, dict(os.environ), workdir / "ref.out", workdir / "ref.err")
    if code != 0:
        raise RuntimeError(f"reference process exited {code}: {(workdir / 'ref.err').read_text()[-2000:]}")
    return seconds


class Workload:
    name = ""
    reference_nominal_s = REFERENCE_NOMINAL_S

    def __init__(self, seed: int, smoke: bool, workdir: Path, tracer: Tracer):
        self.rng = random.Random(f"{self.name}:{seed}")
        self.smoke = smoke
        self.workdir = workdir
        self.tracer = tracer
        self.reference: list[float] = []

    def calibrate(self) -> None:
        """Time the reference loop once; called before each timed operation."""
        self.reference.append(reference_loop())

    @staticmethod
    def warm_up(smoke: bool) -> None:
        """Work done once before timing; the setup_s probe times it in a cold process."""

    def unit(self) -> list[Sample]:
        raise NotImplementedError

    def probe(self) -> list[Sample]:
        return self.unit()

    def summary(self, samples: list[Sample]) -> tuple[dict[str, float], dict[str, dict]]:
        """op_p50_ms and work_per_s, and the report: each figure with its sample count."""
        raise NotImplementedError


def _summarize(workload: Workload, ops: list[Sample], work: float, work_samples: int, seconds: float):
    times = [sample.seconds for sample in ops]
    p90 = statistics.quantiles(times, n=10, method="inclusive")[-1] if len(times) > 1 else times[0]
    raw = {
        "op_p50_ms": 1e3 * statistics.median(times),
        "op_p90_ms": 1e3 * p90,
        "work_per_s": work / seconds,
    }
    reference = statistics.median(workload.reference)
    scale = workload.reference_nominal_s / reference
    adjusted = {
        "op_p50_ms": raw["op_p50_ms"] * scale,
        "op_p90_ms": raw["op_p90_ms"] * scale,
        "work_per_s": raw["work_per_s"] / scale,
    }
    report = {name: {"value": value, "raw": raw[name], "samples": len(ops)} for name, value in adjusted.items()}
    report["work_per_s"]["samples"] = work_samples
    report["reference_ms"] = {"value": 1e3 * reference, "samples": len(workload.reference)}
    # the p90 stays in the report: too few samples lie beyond it in a run of
    # cli-mix or bulk-roundtrip for it to be steady from run to run
    metrics = {name: adjusted[name] for name in ("op_p50_ms", "work_per_s")}
    return metrics, report


@dataclass
class Command:
    """One CLI invocation and the outcome it must have."""

    kind: str
    argv: list[str]
    codes: frozenset[int]
    hostile: bool = False
    files: dict[str, bytes] = field(default_factory=dict)
    stdout: bytes | None = None
    lines: tuple[str, ...] = ()
    pass_rows: int = 0

    def check(self, code: int, stdout: bytes, stderr: bytes, workdir: Path) -> bool:
        if code not in self.codes or b"Traceback" in stderr:
            return False
        if code != 0:
            return True
        for name, expected in self.files.items():
            path = workdir / name
            if not path.is_file() or path.read_bytes() != expected:
                return False
        if self.stdout is not None and stdout != self.stdout:
            return False
        if any(line.encode() not in stdout.splitlines() for line in self.lines):
            return False
        if self.pass_rows:
            rows = stdout.decode("ascii", "replace").splitlines()[1:]
            return len(rows) == self.pass_rows and all(row.endswith(" PASS") for row in rows)
        return True


# ROADMAP item 3: inputs that today end in exit 1 and a traceback.
_JBHDN = "JBHDN"
_JBHDN_QUOTIENTS = (7, 23, 332, 2326, 23261)


class CliMix(Workload):
    """A fixed mix of cold CLI commands, shuffled within each round."""

    name = "cli-mix"
    reference_nominal_s = COLD_REFERENCE_NOMINAL_S
    max_letters = 1000
    verify_rows = 36  # verify-transform defaults: n, s in 1..6

    def __init__(self, seed, smoke, workdir, tracer):
        super().__init__(seed, smoke, workdir, tracer)
        self.env = package_env()
        self.round = 0

    @staticmethod
    def warm_up(smoke):
        from mellin_cipher import cli

        cli.build_parser()

    def _write(self, name: str, data: bytes) -> str:
        (self.workdir / name).write_bytes(data)
        return name

    def commands(self) -> list[Command]:
        rng, tag = self.rng, f"r{self.round}"
        self.round += 1
        ok = frozenset({0})
        commands = []
        for s in (4, 64):
            plain = random_text(rng, rng.randint(1, self.max_letters))
            ct, key = encrypt(plain, s)
            name = f"{tag}-enc{s}"
            commands.append(Command(
                "encrypt",
                ["encrypt", "--s", str(s), "--in", self._write(name + ".txt", plain.encode() + b"\n"),
                 "--out", name + ".ct", "--key-out", name + ".mk"],
                ok,
                files={name + ".ct": write_ciphertext(ct), name + ".mk": write_key(key)},
            ))
        for s in (4, 64):
            plain = random_text(rng, rng.randint(1, self.max_letters))
            ct, key = encrypt(plain, s)
            name = f"{tag}-dec{s}"
            commands.append(Command(
                "decrypt",
                ["decrypt", "--key", self._write(name + ".mk", write_key(key)),
                 "--in", self._write(name + ".ct", write_ciphertext(ct)), "--out", name + ".out"],
                ok,
                files={name + ".out": plain.encode() + b"\n"},
            ))
        true_s = rng.randint(1, 64)
        ct, key = encrypt(random_text(rng, rng.randint(20, 50)), true_s)
        found = sorted(recover_s(ct, key.quotients, 64))
        commands.append(Command(
            "recover",
            ["recover-s", "--in", self._write(f"{tag}-rec.ct", write_ciphertext(ct)),
             "--quotients", ",".join(map(str, key.quotients)), "--max-s", "64"],
            ok,
            stdout="".join(f"{s}\n" for s in found).encode(),
            lines=(str(true_s),),
        ))
        commands.append(Command("verify", ["verify-transform"], ok, pass_rows=self.verify_rows))

        # Well-formed failures: the documented exit codes, no traceback.
        s = rng.choice((4, 64))
        ct, key = encrypt(random_text(rng, rng.randint(1, self.max_letters)), s)
        quotients = list(key.quotients)
        quotients[rng.randrange(len(quotients))] += 1
        ct_name = self._write(f"{tag}-bad.ct", write_ciphertext(ct))
        corrupted = self._write(f"{tag}-corrupt.mk", write_key(CipherKey(s, tuple(quotients))))
        bad_magic = self._write(f"{tag}-magic.mk", write_key(key).replace(b"MELLIN-KEY-V1", b"MELLIN-KEY-V2", 1))
        for key_name, codes in ((corrupted, {3}), (bad_magic, {3}), (f"{tag}-missing.mk", {2})):
            commands.append(Command(
                "reject",
                ["decrypt", "--key", key_name, "--in", ct_name, "--out", f"{tag}-bad.out"],
                frozenset(codes),
                hostile=True,
            ))

        # Extreme parameters (ROADMAP item 3): must not exit 1 or print a traceback.
        survives = frozenset({0, 2, 3})
        jbhdn = self._write(f"{tag}-jbhdn.ct", _JBHDN.encode() + b"\n")
        commands.append(Command(
            "extreme",
            ["recover-s", "--in", jbhdn, "--quotients", ",".join(map(str, _JBHDN_QUOTIENTS)), "--max-s", "2000"],
            survives,
            hostile=True,
            lines=("4",),
        ))
        plain = random_text(rng, 5)
        commands.append(Command(
            "extreme",
            ["encrypt", "--s", "2000", "--max-s-param", "3000",
             "--in", self._write(f"{tag}-big.txt", plain.encode() + b"\n"),
             "--out", f"{tag}-big.ct", "--key-out", f"{tag}-big.mk"],
            survives,
            hostile=True,
            files={f"{tag}-big.ct": write_ciphertext(encrypt(plain, 2000)[0])},
        ))
        huge_s = b"MELLIN-KEY-V1\ns=100000\nn=5\n" + b"".join(
            b"q%d=%d\n" % (i, q) for i, q in enumerate(_JBHDN_QUOTIENTS, start=1)
        )
        commands.append(Command(
            "extreme",
            ["decrypt", "--key", self._write(f"{tag}-huge.mk", huge_s), "--in", jbhdn, "--out", f"{tag}-huge.out"],
            frozenset({2, 3}),
            hostile=True,
        ))
        rng.shuffle(commands)
        return commands

    def run(self, command: Command) -> Sample:
        tag = f"cmd{os.getpid()}"
        stdout, stderr, result = (self.workdir / f"{tag}.{ext}" for ext in ("out", "err", "json"))
        if self.tracer.enabled:
            prefix = [sys.executable, str(BENCH_DIR / "child.py"), "cli", str(result)]
        else:
            prefix = [sys.executable, "-m", "mellin_cipher"]
        with self.tracer.op(f"bench.cli_{command.kind}"):
            code, seconds, rss_mb = run_child(prefix + command.argv, self.workdir, self.env, stdout, stderr)
            if self.tracer.enabled and result.is_file():
                instants = json.loads(result.read_text())
                self.tracer.add("import.mellin_cipher", instants["start"], instants["imported"])
                self.tracer.add(f"cli.main_{command.kind}", instants["imported"], instants["finished"])
                result.unlink()
        err = stderr.read_bytes()
        ok = command.check(code, stdout.read_bytes(), err, self.workdir)
        self.tracer.count("cli.traceback_count", b"Traceback" in err)
        self.tracer.count("cli.exit_mismatch_count", code not in command.codes)
        return Sample(command.kind, seconds, ok, command.hostile, rss_mb=rss_mb)

    def _clean(self) -> None:
        for path in self.workdir.iterdir():
            path.unlink()

    def calibrate(self):
        self.reference.append(cold_reference(self.workdir))

    def unit(self):
        samples = []
        try:
            for index, command in enumerate(self.commands()):
                if index % 2 == 0:
                    self.calibrate()
                samples.append(self.run(command))
        finally:
            self._clean()
        return samples

    def probe(self):
        """One well-formed command of each subcommand."""
        seen: dict[str, Command] = {}
        for command in self.commands():
            if not command.hostile:
                seen.setdefault(command.kind, command)
        try:
            return [self.run(command) for command in seen.values()]
        finally:
            self._clean()

    def summary(self, samples):
        metrics, report = _summarize(self, samples, len(samples), len(samples), sum(s.seconds for s in samples))
        for kind in ("encrypt", "decrypt", "recover", "verify"):
            seconds = [sample.seconds for sample in samples if sample.kind == kind]
            report[f"cli.{kind}_p50_s"] = {"value": statistics.median(seconds), "samples": len(seconds)}
        return metrics, report


class BulkRoundtrip(Workload):
    """Seal then open one fresh message at each s; a unit covers both values of s."""

    name = "bulk-roundtrip"
    s_values = (4, 64)

    @property
    def letters(self) -> int:
        return 2_000 if self.smoke else 100_000

    @staticmethod
    def warm_up(smoke):
        rng = random.Random("bulk-roundtrip:warm-up")
        for s in BulkRoundtrip.s_values:
            plain = random_text(rng, 1_000)
            ct, key = encrypt(plain, s)
            decrypt(read_ciphertext(write_ciphertext(ct)), read_key(write_key(key)))

    def _roundtrip(self, plain: str, s: int, sealed: list) -> tuple[bool, float, float]:
        """Seal and open one message; traced, also keep what encrypt returned in ``sealed``."""
        tr = self.tracer
        start = time.perf_counter()
        ct, key = tr.call("cipher.encrypt", encrypt, plain, s)
        ct_bytes = tr.call("keyio.write_ciphertext", write_ciphertext, ct)
        key_bytes = tr.call("keyio.write_key", write_key, key)
        sealed_at = time.perf_counter()
        opened_key = tr.call("keyio.read_key", read_key, key_bytes)
        opened_ct = tr.call("keyio.read_ciphertext", read_ciphertext, ct_bytes)
        recovered = tr.call("cipher.decrypt", decrypt, opened_ct, opened_key)
        opened_at = time.perf_counter()
        tr.count("keyio.keys")
        tr.count("keyio.key_bytes", len(key_bytes))
        ok = (
            recovered == plain
            and write_key(opened_key) == key_bytes
            and write_ciphertext(opened_ct) == ct_bytes
        )
        if tr.enabled:
            sealed.append((plain, s, ct, key))
        return ok, sealed_at - start, opened_at - sealed_at

    def _encrypt_parts(self, plain: str, s: int, ct: CipherText, key: CipherKey) -> bool:
        """Encrypt again through its public parts; the result must equal ``encrypt``'s."""
        tr = self.tracer
        with tr.op("bench.encrypt_parts"):
            values = tr.call("alphabet.encode_text", encode_text, plain)
            tr.call("cipher.exponent_schedule", exponent_schedule, s, len(values))
            coefficients = tr.call("cipher.transform_coefficients", transform_coefficients, values, s)
            quotients, residues = [], []
            with tr.span("cipher.split_mod26"):
                for coefficient in coefficients:
                    quotient, residue = split_mod26(coefficient)
                    quotients.append(quotient)
                    residues.append(residue)
            with tr.span("cipher.validate"):
                parts_ct = CipherText(tuple(residues))
                parts_key = CipherKey(s, tuple(quotients))
            text = tr.call("alphabet.decode_values", decode_values, values)
        return parts_ct == ct and parts_key == key and text == plain

    def unit(self):
        plains = [random_text(self.rng, self.letters) for _ in self.s_values]
        ok, parts, sealed = True, {"seal_s": 0.0, "open_s": 0.0}, []
        with self.tracer.op("bench.roundtrip"):
            for plain, s in zip(plains, self.s_values):
                self.calibrate()
                try:
                    good, seal_s, open_s = self._roundtrip(plain, s, sealed)
                except Exception:  # a crash is a failed operation, not the end of the run
                    good, seal_s, open_s = False, 0.0, 0.0
                ok = ok and good
                parts["seal_s"] += seal_s
                parts["open_s"] += open_s
        if self.tracer.enabled:
            for plain, s, ct, key in sealed:
                ok = self._encrypt_parts(plain, s, ct, key) and ok
        seconds = parts["seal_s"] + parts["open_s"]
        return [Sample("roundtrip", seconds, ok, work=len(plains) * self.letters, parts=parts)]

    def summary(self, samples):
        letters = sum(sample.work for sample in samples)
        metrics, report = _summarize(self, samples, letters, len(samples), sum(s.seconds for s in samples))
        for step in ("seal", "open"):
            report[f"bulk.{step}_letters_per_s"] = {
                "value": letters / sum(sample.parts[f"{step}_s"] for sample in samples),
                "samples": len(samples),
            }
        return metrics, report


class AttackVerify(Workload):
    """One ``recover_s`` scan, then one batch of oracle rows, per unit."""

    name = "attack-verify"
    letters = 50
    max_true_s = 64
    max_s = 1000
    replay_every = 8  # traced units that also replay the scan's trials one by one
    # (kind, rows per unit); tolerances follow the package's own oracle tests
    oracle_rows = (("linear", 16), ("log", 8), ("scaling", 8), ("shift", 8))

    def __init__(self, seed, smoke, workdir, tracer):
        from mellin_cipher import oracle

        super().__init__(seed, smoke, workdir, tracer)
        self.oracle = oracle
        self.units = 0

    @staticmethod
    def warm_up(smoke):
        from mellin_cipher.oracle import numeric_mellin, scaling_check, shift_check

        ct, key = encrypt(random_text(random.Random("attack-verify:warm-up"), AttackVerify.letters), 7)
        recover_s(ct, key.quotients, AttackVerify.max_s)
        # fill the oracle's per-node-count rule cache over every degree the rows use
        for degree in range(1, 41):
            numeric_mellin(1, degree)
        for degree in range(1, 301):
            numeric_mellin(1, degree, log_space=True)
        scaling_check(2.0, 1, 1, 1e-8)
        shift_check(1, 1, 1, 1e-9)

    def _rows(self) -> list[tuple[str, tuple, float]]:
        rng, rows = self.rng, []
        for kind, count in self.oracle_rows:
            for _ in range(count):
                if kind in ("linear", "log"):
                    degree = rng.randint(1, 40 if kind == "linear" else 300)
                    n = rng.randint(1, degree)
                    tol = 1e-9 if kind == "log" or degree <= 15 else 1e-6
                    rows.append((kind, (n, degree - n + 1), tol))
                elif kind == "scaling":
                    rows.append((kind, (rng.choice((0.5, 1.0, 2.0, 4.0)), rng.randint(1, 6), rng.randint(1, 6)), 1e-8))
                else:
                    rows.append((kind, (rng.randint(0, 3), rng.randint(1, 5), rng.randint(1, 5)), 1e-9))
        return rows

    def _row(self, kind: str, args: tuple, tol: float) -> bool:
        tr, oracle = self.tracer, self.oracle
        if kind == "scaling":
            return tr.call("oracle.scaling_check", oracle.scaling_check, *args, tol)
        if kind == "shift":
            return tr.call("oracle.shift_check", oracle.shift_check, *args, tol)
        n, s = args
        if kind == "log":
            result = tr.call("oracle.numeric_mellin_log", oracle.numeric_mellin, n, s, log_space=True)
        else:
            result = tr.call("oracle.numeric_mellin", oracle.numeric_mellin, n, s)
        return result.exact == math.factorial(n + s - 1) and result.relative_error <= tol

    def _replay(self, ct: CipherText, quotients: tuple[int, ...]) -> None:
        """The scan's trials one by one, each a public ``decrypt`` under a candidate s."""
        tr = self.tracer
        with tr.op("bench.trials"):
            for s in range(1, self.max_s + 1):
                start = time.perf_counter()
                try:
                    decrypt(ct, CipherKey(s, quotients))
                    rejection = None
                except (NotDivisible, ValueOutOfRange) as exc:
                    rejection = exc
                tr.add("cipher.trial_accept" if rejection is None else "cipher.trial_reject", start, time.perf_counter())
                if isinstance(rejection, NotDivisible):
                    tr.call("errors.not_divisible", NotDivisible, rejection.position, rejection.value, rejection.divisor)

    def unit(self, replay: bool = False):
        rng, tr = self.rng, self.tracer
        true_s = rng.randint(1, self.max_true_s)
        ct, key = encrypt(random_text(rng, self.letters), true_s)
        rows = self._rows()
        self.calibrate()
        with tr.op("bench.recover"):
            start = time.perf_counter()
            try:
                found = tr.call("cipher.recover_s", recover_s, ct, key.quotients, self.max_s)
            except Exception:  # a crash is a failed operation, not the end of the run
                found = set()
            seconds = time.perf_counter() - start
        tr.count("cipher.recover_candidates_tried", self.max_s)
        tr.count("cipher.recover_candidates_accepted", len(found))
        samples = [Sample("recover", seconds, true_s in found)]
        if tr.enabled and (replay or self.units % self.replay_every == 0):
            self._replay(ct, key.quotients)
        self.units += 1
        with tr.op("bench.oracle"):
            for kind, args, tol in rows:
                start = time.perf_counter()
                try:
                    ok = self._row(kind, args, tol)
                except Exception:  # a crash is a failed operation, not the end of the run
                    ok = False
                samples.append(Sample(kind, time.perf_counter() - start, ok))
        tr.count("oracle.rows", len(rows))
        return samples

    def probe(self):
        return self.unit(replay=True)

    def summary(self, samples):
        scans = [sample for sample in samples if sample.kind == "recover"]
        rows = [sample for sample in samples if sample.kind != "recover"]
        return _summarize(self, scans, len(rows), len(rows), sum(sample.seconds for sample in rows))


WORKLOADS = {workload.name: workload for workload in (CliMix, BulkRoundtrip, AttackVerify)}
