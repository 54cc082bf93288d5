"""The installed package must run on the standard library alone."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"


def _python(flags, *args, cwd):
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, *flags, *args],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=60,
    )


@pytest.mark.parametrize("flags", [["-S"], []], ids=["no-site", "site"])
def test_import_pulls_in_no_third_party_module(flags, tmp_path):
    # -S leaves only the standard library and src importable; the run with
    # site-packages catches an optional import that -S would hide
    code = (
        "import sys, fracadm, fracadm.cli\n"
        "bad = sorted(m for m in sys.modules if m.split('.')[0] in ('scipy', 'numpy'))\n"
        "assert not bad, bad\n"
    )
    proc = _python(flags, "-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_import_loads_no_fractions_decimal_or_numbers(tmp_path):
    # exact exponents come from repr strings and integer arithmetic: importing
    # fractions would add decimal and numbers to every CLI start.  Records are
    # named tuples: dataclasses (which imports inspect) or typing would add
    # several ms more.  A site .pth file may import typing itself, so that
    # check runs under -S.
    for flags, modules in (
        ([], ("fractions", "decimal", "numbers")),
        (["-S"], ("dataclasses", "inspect", "typing")),
    ):
        code = (
            "import sys, fracadm, fracadm.cli\n"
            f"bad = sorted(m for m in {modules!r} if m in sys.modules)\n"
            "assert not bad, bad\n"
        )
        proc = _python(flags, "-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_site_packages(tmp_path):
    proc = _python(
        ["-S"], "-m", "fracadm.cli", "table", "--example", "4", "--terms", "6",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 28
