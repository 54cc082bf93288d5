#!/usr/bin/env python3
"""fracadm benchmark: CLI-call latency and memory, or a traced per-layer breakdown.

Run from the repository root:

    python3 perfbench/run.py --workload paper_tables --seed 1 --seconds 22 --trace 0

--trace 0  Closed loop, one client, one call in flight: each call is
           ``python -m fracadm.cli ...`` with PYTHONPATH=src, timed from spawn
           to exit, its peak RSS read from os.wait4.  Calls run until
           --seconds have passed and at least MIN_CALLS are done.  Set-up
           time is the median of fresh interpreters running
           ``import fracadm.cli``.  All times are normalized for the
           host's speed by reference probes (see PROBE_CODE).
--trace 1  The same argv lists replayed in this process through
           fracadm.cli.run, alternating untraced and traced passes, plus
           ``-X importtime`` probes of the import layer.

Every call's output is checked (see workloads.py).  The last line of
stdout is the result JSON; the line before it is the full record
(environment, invocation, raw per-call samples), also written under
perfbench/out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.metadata
import io
import json
import os
import platform
import selectors
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))
import tracer  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MODULE_CMD = ["-m", "fracadm.cli"]
IMPORT_CODE = "import fracadm.cli"
# Speed normalization.  On VMs with shared CPUs, machine speed drifts by up
# to 2x within minutes (seen on a 2-core x86 VM), so raw wall times of runs
# minutes apart disagree by 30-40%.  A reference probe runs before and after every timed
# subprocess: a fresh interpreter importing stdlib modules and running a
# short pure-Python loop, the same two kinds of work as a CLI call (startup,
# then Python compute), none of which a change to fracadm can affect.  A
# time is reported as raw * PROBE_NOMINAL_S / mean(probe before, probe
# after), so it reads as seconds on a host where the probe takes 0.1 s (an
# idle 2-core x86 VM).  Raw times stay in the record.
PROBE_CODE = "import json, decimal, argparse, dataclasses\ns = 0\nfor i in range(300000): s += i * i"
PROBE_NOMINAL_S = 0.100
# Enough calls that the tail percentile has 10 calls beyond it.
MIN_CALLS = 11
SETUP_REPEATS = 3
IMPORT_PROBES = 3
CALL_TIMEOUT_S = 60.0
# No new call starts after this, so a run ends well inside 180 s.
HARD_STOP_S = 110.0


def child_env() -> dict:
    # bytecode caching on, as for an installed package: the set-up warm-up
    # import writes src/fracadm/__pycache__ and every call reads it
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    return dict(env, PYTHONPATH="src")


def spawn(args: list[str], timeout: float = CALL_TIMEOUT_S):
    """Run `python <args>` in ROOT; (seconds, maxrss_mb, returncode, stdout, stderr)."""
    start = perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, env=child_env(),
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: bytearray(), proc.stderr: bytearray()}
    with selectors.DefaultSelector() as sel:
        for pipe in chunks:
            sel.register(pipe, selectors.EVENT_READ)
        deadline = start + timeout
        timed_out = False
        while sel.get_map():
            remaining = deadline - perf_counter()
            if remaining <= 0:
                proc.kill()
                timed_out = True
                break
            for key, _ in sel.select(remaining):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].extend(data)
                else:
                    sel.unregister(key.fileobj)
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for pipe in chunks:
        pipe.close()
    return (elapsed, usage.ru_maxrss / 1024.0, None if timed_out else proc.returncode,
            chunks[proc.stdout].decode(), chunks[proc.stderr].decode())


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it: (value, percentile)."""
    ordered = sorted(samples)
    rank = max(len(ordered) - 10, 1)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def environment(args) -> dict:
    try:
        scipy_version = importlib.metadata.version("scipy")
    except importlib.metadata.PackageNotFoundError:
        scipy_version = None
    commit = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = git.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fracadm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "executable": sys.executable,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "scipy": scipy_version,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "invocation": "PYTHONPATH=src python -m fracadm.cli <argv>",
    }


def run_python(args: list[str]) -> tuple[float, str]:
    """(seconds, stderr) of a helper interpreter run that must succeed."""
    seconds, _, rc, _, err = spawn(args)
    if rc != 0:
        raise SystemExit(f"perfbench: `python {' '.join(args)}` failed: {err.strip()[-500:]}")
    return seconds, err


def probe() -> float:
    """Wall time of the reference probe (see PROBE_CODE)."""
    return run_python(["-c", PROBE_CODE])[0]


def import_cli() -> float:
    return run_python(["-c", IMPORT_CODE])[0]


class Clock:
    """Wall times normalized for host speed by the probes around them."""

    def __init__(self):
        self.last = probe()

    def sample(self, seconds: float) -> dict:
        """Probe after a timed run; the run's raw time, probes and normalized time."""
        before, after = self.last, probe()
        self.last = after
        return {"seconds": seconds, "probe_before_s": before, "probe_after_s": after,
                "normalized_s": seconds * PROBE_NOMINAL_S * 2.0 / (before + after)}


def run_untraced(args, reference) -> tuple[dict, dict]:
    import_cli()  # warm-up: writes the bytecode cache in a fresh checkout
    clock = Clock()
    setup = [clock.sample(import_cli()) for _ in range(SETUP_REPEATS)]
    samples = []
    start = perf_counter()
    for call in workloads.call_stream(args.workload, args.seed, reference):
        elapsed = perf_counter() - start
        if elapsed >= HARD_STOP_S or (elapsed >= args.seconds and len(samples) >= MIN_CALLS):
            break
        seconds, rss_mb, rc, out, err = spawn([*MODULE_CMD, *call.argv])
        problem = "timed out" if rc is None else workloads.check(call, rc, out, err)
        samples.append({"argv": call.argv, **clock.sample(seconds), "maxrss_mb": rss_mb,
                        "returncode": rc, "failure": problem})
    times = [s["normalized_s"] for s in samples]
    tail_s, tail_pct = tail(times)
    failed = sum(s["failure"] is not None for s in samples)
    metrics = {
        "call_s_p50": (statistics.median(times), "s"),
        "call_s_tail": (tail_s, "s"),
        "peak_rss_mb": (statistics.median(s["maxrss_mb"] for s in samples), "MB"),
        "setup_s": (statistics.median(s["normalized_s"] for s in setup), "s"),
    }
    record = {"setup_samples": setup, "calls": samples, "tail_percentile": tail_pct,
              "attempted": len(samples), "failed": failed, "fail_ratio": failed / len(samples),
              "measured_s": perf_counter() - start}
    return metrics, record


def parse_importtime(stderr: str) -> tuple[float, float]:
    """(fracadm excluding scipy, scipy) cumulative import seconds from -X importtime."""
    entries = []  # (depth, cumulative_us, module) in completion order
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        stripped = name.lstrip()
        entries.append(((len(name) - len(stripped) - 1) // 2, int(cumulative), stripped))
    fracadm_us = scipy_us = 0
    for i, (depth, cumulative, name) in enumerate(entries):
        # the parent is the next entry that completes at a shallower depth
        parent = next((n for d, _, n in entries[i + 1:] if d < depth), "")
        if depth == 0 and name.split(".")[0] == "fracadm":
            fracadm_us += cumulative
        if name.split(".")[0] == "scipy" and parent.split(".")[0] != "scipy":
            scipy_us += cumulative
    return (fracadm_us - scipy_us) / 1e6, scipy_us / 1e6


def replay_call(call) -> tuple[float, str | None, int]:
    """Run one call in-process; (seconds, failure or None, data rows)."""
    run = sys.modules["fracadm.cli"].run  # the tracer's wrapper while installed
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = run(call.argv)
    except Exception:  # a crash is a failed call; the replay goes on
        return perf_counter() - start, traceback.format_exc(limit=3), 0
    seconds = perf_counter() - start
    text = out.getvalue()
    problem = workloads.check(call, rc, text, err.getvalue())
    return seconds, problem and f"{call.argv}: {problem}", max(text.count("\n") - 1, 0)


def run_traced(args, reference) -> tuple[dict, dict]:
    import_cli()  # warm-up: writes the bytecode cache in a fresh checkout
    probes = [parse_importtime(run_python(["-X", "importtime", "-c", IMPORT_CODE])[1])
              for _ in range(IMPORT_PROBES)]
    sys.path.insert(0, str(ROOT / "src"))
    import fracadm.cli  # noqa: F401  (the tracer patches loaded modules)

    calls = workloads.make_pass(args.workload, args.seed, 0, reference)
    # warm-up: first-call costs (lazy imports, caches) stay out of both sides
    failures = [f for f in [replay_call(calls[0])[1]] if f]
    attempted, untraced_s, traced_s = 1, 0.0, 0.0
    layer, span_file = [], None
    start = perf_counter()
    while not layer or perf_counter() - start < args.seconds * len(layer) / (len(layer) + 1):
        # each call runs untraced and traced back to back, so both see the same
        # host speed; which goes first alternates, so warm caches favour neither
        trace, rows = tracer.Tracer(), 0
        for i, call in enumerate(calls):
            for traced in (False, True) if i % 2 == 0 else (True, False):
                if traced:
                    trace.call_id = i
                    trace.install()
                try:
                    seconds, failure, n_rows = replay_call(call)
                finally:
                    trace.uninstall()
                if traced:
                    traced_s += seconds
                    rows += n_rows
                else:
                    untraced_s += seconds
                failures += [failure] if failure else []
        attempted += 2 * len(calls)
        metrics = tracer.layer_metrics(trace.names, trace.spans, len(calls))
        metrics["cli.rows"] = rows / len(calls)
        layer.append(metrics)
        if span_file is None:
            OUT_DIR.mkdir(exist_ok=True)
            span_file = OUT_DIR / f"spans-{args.workload}.csv.gz"
            trace.write_spans(span_file)
    metrics = {name: statistics.median(m[name] for m in layer) for name in layer[0]}
    metrics["import.fracadm_s"] = statistics.median(p[0] for p in probes)
    metrics["import.scipy_s"] = statistics.median(p[1] for p in probes)
    metrics["trace.overhead_ratio"] = traced_s / untraced_s
    metrics["fail_ratio"] = len(failures) / attempted
    units = {name: ("s" if name.endswith("_s") else "ratio" if name.endswith("ratio") else "count")
             for name in metrics}
    record = {"argvs": [c.argv for c in calls], "passes": len(layer),
              "untraced_s": untraced_s, "traced_s": traced_s, "import_probes_s": probes,
              "attempted": attempted, "failed": len(failures), "failures": failures[:20],
              "spans_file": str(span_file.relative_to(ROOT)),
              "measured_s": perf_counter() - start}
    return {k: (v, units[k]) for k, v in metrics.items()}, record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fracadm" / "cli.py").is_file():
        print(f"perfbench: no fracadm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()
    metrics, record = (run_traced if args.trace else run_untraced)(args, reference)
    record = {"environment": environment(args), **record}
    OUT_DIR.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT_DIR / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps(record))
    print(json.dumps({
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
