"""README.md against the code: every example runs, and every output and table is regenerated.

Each ```python block runs in one namespace, in order. An expression followed by a comment on its
own last line, or on the comment-only line just below it, must have that comment as its repr, or
raise the exception a ``# raises Name`` comment names. A block of ``$ `` lines is a session: the
lines after a command are its stdout and then its stderr, byte for byte, and a trailing
``  # exit N`` gives its exit code (0 if none). ``python3 scripts/...`` commands run through
test_scripts.run_script; the other commands run in sh in one temporary directory, with
``mellin-cipher`` run as ``python -m mellin_cipher`` on the checkout's src.
"""

import ast
import io
import math
import re
import shlex
import subprocess
import sys
import tokenize
from pathlib import Path
from unittest import mock

import pytest
from conftest import SRC, package_env, refuse_factorials_past
from test_scripts import ROOT, run_script

from mellin_cipher import cipher, cli, errors, oracle

README = (ROOT / "README.md").read_text(encoding="utf-8")
_PROSE = " ".join(README.split())
_BLOCKS = re.findall(r"^```(\w*)\n(.*?)^```$", README, re.M | re.S)  # (language, body)


def _block(start: str) -> str:
    (body,) = [body for _, body in _BLOCKS if body.startswith(start)]
    return body


def _session(body: str) -> list[list]:
    """[command, exit code, expected output] for each ``$ `` line of a block."""
    steps = []
    for line in body.splitlines(keepends=True):
        if line.startswith("$ "):
            command, _, code = line[2:].rstrip("\n").partition("  # exit ")
            steps.append([command, int(code or 0), ""])
        else:
            steps[-1][2] += line
    return steps


_SCRIPT_RUNS = [step for _, body in _BLOCKS if body.startswith("$ python3 scripts/") for step in _session(body)]


def test_python_blocks_give_the_values_their_comments_show():
    namespace, checked = {}, 0
    for body in [body for language, body in _BLOCKS if language == "python"]:
        lines = body.splitlines()
        comments = {
            token.start[0]: token.string.removeprefix("#").strip()
            for token in tokenize.generate_tokens(io.StringIO(body).readline)
            if token.type == tokenize.COMMENT
        }
        for statement in ast.parse(body).body:
            end = statement.end_lineno
            comment = comments.get(end)
            if comment is None and end < len(lines) and lines[end].lstrip().startswith("#"):
                comment = comments[end + 1]  # the comment-only line below
            if not isinstance(statement, ast.Expr) or comment is None:
                exec(compile(ast.Module([statement], []), "README.md", "exec"), namespace)
                continue
            try:
                shown = repr(eval(compile(ast.Expression(statement.value), "README.md", "eval"), namespace))
            except Exception as exc:
                shown = f"raises {type(exc).__name__}"
            assert shown == comment, ast.get_source_segment(body, statement)
            checked += 1
    assert checked


@pytest.mark.parametrize("command, code, output", _SCRIPT_RUNS, ids=[step[0] for step in _SCRIPT_RUNS])
def test_script_blocks_are_what_the_scripts_print(command, code, output):
    name, *args = shlex.split(command.removeprefix("python3 scripts/"))
    result = run_script(name, *args)
    assert (result.returncode, result.stdout + result.stderr) == (code, output)


def test_cli_block_runs_as_shown(tmp_path):
    steps = _session(_block("$ printf 'HELLO\\n' > hello.txt\n"))
    python = f"{shlex.quote(sys.executable)} -m mellin_cipher"
    for command, code, output in steps:
        result = subprocess.run(
            ["sh", "-c", re.sub(r"^mellin-cipher ", f"{python} ", command)],
            cwd=tmp_path,
            env=package_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert (result.returncode, result.stdout + result.stderr) == (code, output), command
    assert {code for _, code, _ in steps} == set(range(cli.EXIT_OK, cli.EXIT_VERIFY + 1))


def test_error_block_is_the_exception_hierarchy():
    classes = [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.CipherToolkitError)]
    names = ["  " * c.__mro__.index(errors.CipherToolkitError) + c.__name__ for c in classes]
    width = max(map(len, names)) + 4
    rows = [f"{name:<{width}}{c.__doc__.splitlines()[0]}\n" for name, c in zip(names, classes)]
    assert _block("CipherToolkitError ") == "".join(rows)


def test_layout_block_lists_every_module():
    listed = re.findall(r"^  (\S+\.py) ", _block("src/mellin_cipher/\n"), re.M)
    assert sorted(listed) == sorted(path.name for path in (Path(SRC) / "mellin_cipher").glob("*.py"))


def test_test_block_shows_the_tier_1_command():
    command = re.search(r"^\*\*Tier-1 verify:\*\* `(.+)`$", (ROOT / "ROADMAP.md").read_text(), re.M)[1]
    assert any(command in body.splitlines() for _, body in _BLOCKS)


@pytest.mark.parametrize(
    "fact",
    [
        f"`--s` is accepted in `1..{cli.DEFAULT_MAX_S_PARAM}`",
        f"Above `s = {cipher._EXACT_S:,}`",
        f"(`sys.get_int_max_str_digits()`, {sys.int_info.default_max_str_digits} by default)",
        f"at most its first {errors._SHOWN_CHARS} characters",
        f"bounded at {oracle.DEFAULT_EXACTNESS_BOUND}, or {oracle.LOG_SPACE_EXACTNESS_BOUND} with",
        f"`nodes` at {oracle._MAX_NODES}",
    ],
)
def test_prose_names_the_constants_of_the_code(fact):
    assert fact in _PROSE


def test_encrypt_refuses_from_the_s_the_prose_names(tmp_path, digit_limit):
    s = int(re.search(r"from `s = (\d+)` on, before it computes any factorial", _PROSE)[1])
    (tmp_path / "pt.txt").write_text("A")

    def encrypt_at(s):
        argv = ["encrypt", f"--s={s}", f"--max-s-param={s}", "--in", str(tmp_path / "pt.txt")]
        with mock.patch.object(math, "factorial", refuse_factorials_past(0)):
            return cli.main([*argv, "--out", str(tmp_path / "ct"), "--key-out", str(tmp_path / "key")])

    assert encrypt_at(s) == cli.EXIT_DATA
    with pytest.raises(AssertionError, match="computed"):
        encrypt_at(s - 1)
