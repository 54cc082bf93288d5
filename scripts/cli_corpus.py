#!/usr/bin/env python3
"""Record or check the CLI's exact output on a fixed corpus of calls.

``tests/data/cli_corpus.json`` maps each argv to the exit code, stdout and
stderr that ``fracadm`` gave when the file was recorded.  A text of at most
``FULL_TEXT_BYTES`` bytes is stored whole; a longer one as its sha256, its
length in bytes, and its first and last lines.  The file also records the
platform it was made on: the last digit of a value can change with the C
library's ``pow`` and ``exp``.

Usage, from the repository root:

    PYTHONPATH=src python scripts/cli_corpus.py record
    PYTHONPATH=src python scripts/cli_corpus.py check
    python scripts/cli_corpus.py check --cli fracadm

``record`` runs every call in this process through ``fracadm.cli.run`` and
rewrites the file.  ``check`` replays the file's calls, in process or, with
``--cli``, as subprocesses of that command (an installed entry point), each
within ``TIMEOUT`` seconds, and exits 1 naming each call whose exit code,
stdout or stderr differs or that timed out.  A change that alters an entry
re-records the file and names the entry.

The corpus is the runtime calls that CI checks only through this file
(``CI_CALLS``), a set of dash-led option values and help calls, and pass 0
of seeds 1 and 2 of each benchmark workload, generated read-only by
``perfbench/workloads.py``.  CI runs by hand only the calls of ``LEFT_OUT``,
which the corpus cannot hold, and a start-up import check.  Only the
standard library is used.
"""

import argparse
import contextlib
import hashlib
import io
import json
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "tests" / "data" / "cli_corpus.json"
FULL_TEXT_BYTES = 4096
TIMEOUT = 30  # seconds a call of ``check --cli`` may take

_DENSE = ["solve", "--example", "1", "--alpha", "0.5", "--beta", "0.5", "--terms", "20",
          "--grid", "x=0.05:0.9:0.01;y=0.001:0.1:0.001"]
_GENERIC = ["--alpha", "0.897148293561466", "--beta", "0.7433369009864794"]
_IC30 = " + ".join(f"{k + 1}*x^{k / 7!r}" for k in range(30))

# The runtime calls that CI checks only through the corpus: calls that write
# no file and take under about 0.5 s in process.  The digits pairs also run
# by hand in CI, where a memory bound holds them.
CI_CALLS = [
    ["table", "--example", "4", "--terms", "2"],
    ["--help"],
    ["table", "--example", "4", "--terms", "6"],
    ["scan", "--example", "3", "--terms", "8"],
    # at (0.75, 0.75) the solve fails at u_5: depths 1-5 come from the
    # components finished before it
    ["scan", "--example", "1", "--terms", "20"],
    _DENSE,
    [*_DENSE, "--digits", "767", "--format", "tsv"],
    # 211 terms with 211 x-exponents and 40 y-exponents: grouped by y
    ["solve", "--example", "1", *_GENERIC, "--terms", "20",
     "--grid", "x=0.05:0.9:0.01;y=0.001:0.05:0.001"],
    ["solve", "--example", "1", "--terms", "40", *_GENERIC, "--grid", "x=0.3,0.6;y=0.001"],
    # coefficients reach 1e17, and the constant term survives: approx 0.767190
    ["solve", "--example", "4", "--alpha", "0.5", "--beta", "1", "--terms", "50",
     "--grid", "x=1;y=0.1"],
    ["solve", "--ic", "1 + x^1e-13", "--terms", "1", "--dump-series"],
    ["solve", "--ic", "x", "--terms", "1", "--grid", "x=0:2.9999999999:1;y=0"],
    # the fourth x is 0.3 (0.29999999999999999), not 0 + 3*0.1
    ["solve", "--ic", "x", "--terms", "1", "--grid", "x=0:1:0.1;y=0"],
    # 140,955 raw products to depth 4: no single product is capped
    ["solve", "--ic", _IC30, "--g", "1", "--alpha", "0.9", "--beta", "0.8", "--terms", "4",
     "--dump-series"],
    # the exact value is 5e307 where 2x overflows
    ["solve", "--example", "2", "--terms", "1", "--grid", "x=1e308;y=3"],
    ["solve", "--example", "4", "--terms", "2", "--grid=x=1;y=0.1", "--digits", "2147483647"],
    ["solve", "--example", "4", "--terms", "2", "--grid=x=1;y=0.1", "--digits", "767"],
    ["solve", "--example", "4", "--terms", "2", "--dump-series", "--digits", "2147483647"],
    ["solve", "--example", "4", "--terms", "2", "--dump-series", "--digits", "767"],
    [*_DENSE, "--digits", "2147483647"],
    [*_DENSE, "--digits", "767"],
    ["solve", "--ic", "1e400", "--terms", "3", "--grid", "x=0.5;y=0.1"],
    # the merged coefficient is refused before the missing grid is noticed
    ["solve", "--ic", "1e308*x + 1e308*x", "--terms", "1"],
    # the exact sum, 1e308, decides in either order: the same bytes
    ["solve", "--ic", "1e308 + 1e308 - 1e308", "--g", "0", "--terms", "1", "--grid", "x=0.5;y=0.1"],
    ["solve", "--ic", "1e308 - 1e308 + 1e308", "--g", "0", "--terms", "1", "--grid", "x=0.5;y=0.1"],
    ["solve", "--ic", "1e154*x + 6e153*x^2", "--terms", "3", "--grid", "x=0.5;y=0.1"],
    ["solve", "--ic", "1", "--g", "1.7e308", "--alpha", "0.5", "--terms", "3", "--grid", "x=1;y=0.1"],
    ["solve", "--ic", "x^1e306", "--terms", "2", "--grid", "x=1;y=1"],
    # refused while parsing: no file is written
    ["table", "--example", "4", "--terms", "2", "--out", ""],
    ["table", "--example", "1", "--terms", "6"],
    ["solve", "--ic", "1+x", "--g", "1", "--alpha", "0.6", "--beta", "0.7", "--terms", "6",
     "--grid", "x=0.5,0;y=0.1,-0.2"],
    ["solve", "--ic", "1e300*x - 1e300*x^1.5", "--terms", "1", "--grid", "x=1e10;y=0"],
    ["solve", "--ic", "1", "--g", "1e300*x", "--terms", "1", "--grid", "x=1e10;y=0"],
    ["solve", "--ic", "1e300*x", "--terms", "1", "--grid", "x=1e10;y=0"],
    ["solve", "--ic", "x^2", "--terms", "1", "--grid", "x=1e300;y=0"],
    ["solve", "--example", "2", "--terms", "1", "--grid", "x=1e308;y=0.5"],
    # the grid is read before the solve, which would fail at u_5
    ["solve", "--ic", "1+x", "--g", "1", "--alpha", "0.75", "--beta", "0.75", "--terms", "8",
     "--grid", "x=1"],
    ["scan", "--example", "4", "--terms", "2", "--digits", "-1"],
    ["solve", "--example", "4", "--terms", "2", "--grid", "x=1;y=0.1", "--digits", "2147483648"],
    # past the grid evaluation budget after the solve, before any evaluation
    ["solve", "--example", "1", *_GENERIC, "--terms", "76",
     "--grid", "x=0.001:1:0.001;y=0.0001:0.1:0.0001"],
    # stops at the solve's work budget, at u_76
    ["solve", "--example", "1", *_GENERIC, "--terms", "400", "--dump-series"],
    ["table", "--example", "4", "--alpha", "0.5"],
    ["solve", "--example", "4", "--g", "x", "--grid", "x=1;y=0.1"],
    ["solve", "--example", "3", "--terms", "2", "--dump-series", "--format", "tsv"],
]

# Option values that start with "-", taken as values or refused, and the
# help texts.
DASH_CALLS = [
    ["solve", "--ic", "-x", "--terms", "2", "--grid", "x=0.5;y=0.1"],
    ["solve", "--ic", "- x", "--terms", "2", "--grid", "x=0.5;y=0.1"],
    ["solve", "--ic", "1", "--g", "-1e-3", "--terms", "2", "--grid", "x=0.5;y=0.1"],
    ["solve", "--ic", "1", "--g", "-.5", "--terms", "2", "--grid", "x=0.5;y=0.1"],
    ["solve", "--ic", "1", "--g", "-", "--terms", "2", "--grid", "x=0.5;y=0.1"],
    ["solve", "--example", "4", "--terms", "-2", "--grid", "x=0.5;y=0.1"],
    ["solve", "--example", "4", "--alpha", "-h", "--grid", "x=0.5;y=0.1"],
    ["solve", "--ic", "1\n+x", "--terms", "2", "--grid", "x=0.5;y=0.1"],
    ["-h"],
    ["solve", "-h"],
    ["table", "--help"],
]

WORKLOAD_SEEDS = (1, 2)

# The calls of the CI workflow kept out of the corpus, and why; times are in
# process on a 2-core x86 VM with Python 3.11.
LEFT_OUT = [
    {"call": "solve --example 1 --alpha 0.5 --beta 0.5 --terms 20 --grid "
             "'x=0.05:0.9:0.01;y=0.001:0.1:0.001' --out dense-out.csv",
     "why": "writes a file; the same call to stdout is in the corpus"},
    {"call": "solve --example 1 --terms 6 --grid 'x=0:1:0.005;y=0:1:0.001', to stdout and "
             "with --out out.csv",
     "why": "201,201 points and 19.8 MB of text: about 0.46 s in process; the --out call "
            "writes a file"},
    {"call": "solve --ic 1+x --terms 2 --grid 'x=0:999:1;y=0:999:1' --out cap.csv; "
             "solve --ic 1+x --terms 2 --grid 'x=0:999999:1;y=0' --out wide.csv",
     "why": "write files, and 1,000,000 points take seconds"},
    {"call": "solve --ic '<1,224 terms>' --alpha 0.9 --beta 0.8 --terms 2 --grid "
             "'x=0.5:0.515:0.001;y=0.1'",
     "why": "7-10 s and about 400 MB"},
    {"call": "scan --example 4 --terms 1000000000",
     "why": "every depth's solve runs to the work budget: about 4.6 s in process"},
    {"call": "solve --ic 1 --terms 1000000000 --grid 'x=1;y=1'",
     "why": "runs to the work budget at u_1732: about 0.68 s in process"},
    {"call": "table --example 4 --terms 6 > /dev/full; table --example 4 --terms 2 >&-",
     "why": "test a failing or closed stdout, which an in-process replay does not have"},
    {"call": "python scripts/reproduce_tables.py --example 4",
     "why": "not a fracadm call"},
]


def corpus_argvs() -> list[tuple[str, list[str]]]:
    """(source, argv) of each call, in order, without repeats."""
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads  # read-only: the benchmark's own argv generator

    reference = workloads.load_reference()
    calls = [("ci", argv) for argv in CI_CALLS] + [("dash", argv) for argv in DASH_CALLS]
    for name in workloads.WORKLOADS:
        for seed in WORKLOAD_SEEDS:
            for call in workloads.make_pass(name, seed, 0, reference):
                calls.append((f"{name}:{seed}", call.argv))
    seen, out = set(), []
    for source, argv in calls:
        if tuple(argv) not in seen:
            seen.add(tuple(argv))
            out.append((source, list(argv)))
    return out


def run_in_process(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``fracadm.cli.run(argv)``."""
    from fracadm.cli import run

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def run_command(command: list[str], argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of ``command argv`` as a subprocess.

    Raises ``subprocess.TimeoutExpired`` after ``TIMEOUT`` seconds.
    """
    proc = subprocess.run([*command, *argv], capture_output=True, encoding="utf-8",
                          timeout=TIMEOUT, check=False)
    return proc.returncode, proc.stdout, proc.stderr


def stored(text: str):
    """The text whole if it is short, else its sha256, length and end lines."""
    data = text.encode("utf-8")
    if len(data) <= FULL_TEXT_BYTES:
        return text
    lines = text.splitlines()
    return {"sha256": hashlib.sha256(data).hexdigest(), "bytes": len(data),
            "first": lines[0], "last": lines[-1]}


def this_platform() -> dict:
    libc, version = platform.libc_ver()
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "libc_and_libm": f"{libc} {version}".strip() or "unknown",
            "machine": platform.machine()}


def differences(entry: dict, got: tuple[int, str, str]) -> list[str]:
    """What of an entry's exit code, stdout and stderr ``got`` does not match."""
    code, out, err = got
    diffs = [] if code == entry["code"] else [f"exit code {code}, recorded {entry['code']}"]
    for name, text in (("stdout", out), ("stderr", err)):
        if stored(text) != entry[name]:
            diffs.append(f"{name} {json.dumps(stored(text))[:300]}, recorded "
                         f"{json.dumps(entry[name])[:300]}")
    return diffs


def record() -> None:
    entries = []
    for source, argv in corpus_argvs():
        start = time.perf_counter()
        code, out, err = run_in_process(argv)
        seconds = time.perf_counter() - start
        print(f"{seconds:7.3f} s  exit {code}  {source:<16} {' '.join(argv)[:100]}", file=sys.stderr)
        entries.append({"source": source, "argv": argv, "code": code,
                        "stdout": stored(out), "stderr": stored(err)})
    corpus = {"platform": this_platform(), "left_out": LEFT_OUT, "entries": entries}
    CORPUS.write_text(json.dumps(corpus, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
    print(f"recorded {len(entries)} calls in {CORPUS}", file=sys.stderr)


def check(command: list[str] | None) -> int:
    corpus = json.loads(CORPUS.read_text(encoding="utf-8"))
    failed = 0
    for entry in corpus["entries"]:
        try:
            got = run_command(command, entry["argv"]) if command else run_in_process(entry["argv"])
        except subprocess.TimeoutExpired:
            diffs = [f"timed out after {TIMEOUT} s"]
        else:
            diffs = differences(entry, got)
        for diff in diffs:
            failed += 1
            print(f"{entry['argv']!r}: {diff}", file=sys.stderr)
    if failed and corpus["platform"] != this_platform():
        print(f"recorded on {corpus['platform']}, checked on {this_platform()}", file=sys.stderr)
    print(f"{len(corpus['entries'])} calls, {failed} differences", file=sys.stderr)
    return 1 if failed else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("action", choices=("record", "check"))
    parser.add_argument("--cli", help="check: run each call as this command, e.g. fracadm")
    args = parser.parse_args()
    if args.action == "record":
        record()
        return 0
    return check(args.cli.split() if args.cli else None)


if __name__ == "__main__":
    sys.exit(main())
