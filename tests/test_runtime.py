"""The installed package must run on the standard library alone."""

import ast
import os
import re
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
    # several ms more.  Annotations are evaluated as written, with no PEP 563
    # import, and re (with enum, copyreg and _sre) is imported only by a parse
    # or a dash-led option value.  A site .pth file may import typing or re
    # itself, so that check runs under -S.
    for flags, modules in (
        ([], ("fractions", "decimal", "numbers")),
        (["-S"], ("dataclasses", "inspect", "typing", "re", "__future__")),
    ):
        code = (
            "import sys, fracadm, fracadm.cli\n"
            f"bad = sorted(m for m in {modules!r} if m in sys.modules)\n"
            "assert not bad, bad\n"
        )
        proc = _python(flags, "-c", code, cwd=tmp_path)
        assert proc.returncode == 0, proc.stderr


def test_a_call_loads_no_argparse_gettext_or_locale(tmp_path):
    # argv is read by cli's own table: importing and setting up argparse took
    # about 7 ms a call, gettext and locale included; a table call parses no
    # expression and no dash-led value, so it imports no re either
    code = (
        "import sys\n"
        "from fracadm import cli\n"
        "assert cli.run(['table', '--example', '4', '--terms', '2']) == 0\n"
        "bad = sorted(m for m in ('argparse', 'gettext', 'locale', 're') if m in sys.modules)\n"
        "assert not bad, bad\n"
    )
    proc = _python(["-S"], "-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_runs_without_site_packages(tmp_path):
    proc = _python(
        ["-S"], "-m", "fracadm.cli", "table", "--example", "4", "--terms", "6",
        cwd=tmp_path,
    )
    assert proc.returncode == 0, proc.stderr
    assert len(proc.stdout.splitlines()) == 28


def test_reproduce_tables_script_runs_without_site_packages(tmp_path):
    script = SRC.parent / "scripts" / "reproduce_tables.py"
    proc = _python(["-S"], str(script), "--example", "4", cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert "recovered depth: 6\n" in proc.stdout


def test_import_leaves_the_collector_unfrozen(tmp_path):
    # only main(), the process's own entry, freezes the heap; an importer's
    # collector is not fracadm's to change
    code = (
        "import gc, fracadm, fracadm.cli\n"
        "assert gc.get_freeze_count() == 0, gc.get_freeze_count()\n"
    )
    proc = _python([], "-c", code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_the_readme_names_every_standard_module_the_runtime_imports():
    # the README's "The runtime imports only ..." sentence, against the
    # top-level modules that src/fracadm/*.py import, at any depth
    imported = set()
    for path in (SRC / "fracadm").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    readme = " ".join((SRC.parent / "README.md").read_text().split())
    sentence = re.search(r"The runtime imports only (.*?) from the standard library\.", readme)
    assert sentence, "the README no longer lists the runtime's imports"
    assert set(re.findall(r"`(\w+)`", sentence.group(1))) == imported
