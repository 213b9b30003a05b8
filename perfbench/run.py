#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the jacgraph command line.

One client replays a seeded stream of CLI requests in a closed loop: the
next request starts when the previous one has returned.  Requests go
through ``jacgraph.cli.main(argv)`` inside this process with stdout
captured, so interpreter start-up does not swamp millisecond requests.
Every answer is checked; see ``workloads.py`` for the workloads, why each
exists, and the checks.

    python3 perfbench/run.py --workload enumerate --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics with nothing
patched.  With ``--trace 1`` it replays a fixed number of rounds twice,
first untraced and then with every public jacgraph function wrapped (see
``spans.py``), and reports the per-layer split and the tracing overhead.
The last line of stdout is the result as one JSON object.

Times are scaled to a reference machine speed.  The speed of a shared
machine drifts by tens of percent within seconds, so a fixed probe of
interpreter work (``probe``) runs right before and right after every timed
request, and the request's wall time is multiplied by ``PROBE_REF_S``
over the mean of the two probe times.  Raw wall times go to the result
file as well (see NOTES.md).

The package is imported from ``src/`` of the checkout this file sits in,
exactly as ``import jacgraph`` loads it there; whichever kernel that
gives is recorded with the result.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

WORKLOAD_NAMES = ("enumerate", "sweep", "query")
SETUP_REPEATS = 3
MIN_SAMPLES = 100  # so that ten samples lie beyond the p90
PROBE_UNITS = 2
# probe time that scaled times refer to: about what PROBE_UNITS units take
# on an idle core of a 2-vCPU x86-64 VM under CPython 3.11
PROBE_REF_S = 0.005


def probe_unit():
    """A fixed slice of interpreter work like the program's own, in about
    equal parts: a subset sum recurrence over a table of 2^13 fresh ints
    (the kernel's tables at 13 vertices), Fraction sums, and small dicts
    and frozensets (graph surgery)."""
    size = 1 << 13
    vals = list(range(-5, 8))
    sums = [0] * size
    best = 0
    for m in range(1, size):
        lsb = m & -m
        s = sums[m ^ lsb] + vals[lsb.bit_length() - 1] * 1000
        sums[m] = s
        if s > best:
            best = s
    acc = Fraction(0)
    for i in range(1, 300):
        acc += Fraction(i, 2 * i + 1)
    rows = [{"v": i, "w": frozenset((i, i + 1))} for i in range(1000)]
    return best, acc, rows


def probe() -> float:
    t0 = time.perf_counter()
    for _ in range(PROBE_UNITS):
        probe_unit()
    return time.perf_counter() - t0


def timed(fn):
    """(result, wall seconds, wall seconds scaled to the reference speed)."""
    before = probe()
    t0 = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - t0
    after = probe()
    return result, raw, raw * PROBE_REF_S * 2 / (before + after)


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Client:
    """Calls the CLI in-process, checks each answer and keeps the time of
    each timed request."""

    def __init__(self, cli):
        self.cli = cli
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.commands: list[str] = []
        self.failures: list[str] = []
        self.attempted = 0

    def call(self, argv):
        """(exit code, stdout, stderr) of one request."""
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.cli.main(argv)
            except SystemExit as exc:  # argparse rejects the arguments
                code = exc.code if isinstance(exc.code, int) else 2
            except Exception:  # a traceback is a failed request, not a crash
                code = "traceback: " + traceback.format_exc(limit=-3)
        return code, out.getvalue(), err.getvalue()

    def run(self, request, timed_request=True):
        gc.collect()  # each request starts from a swept heap, as in a fresh process
        if timed_request:
            (code, out, err), raw, scaled = timed(lambda: self.call(request.argv))
            self.raw.append(raw)
            self.scaled.append(scaled)
            self.commands.append(request.command)
        else:
            code, out, err = self.call(request.argv)
        self.attempted += 1
        problem = None
        if code != 0:
            problem = f"exit {code}: {err.strip()[-300:]}"
        elif request.check is not None:
            try:
                problem = request.check(json.loads(out))
            except (ValueError, KeyError, TypeError) as exc:
                problem = f"malformed answer: {exc!r}"
        if problem:
            self.failures.append(f"{' '.join(request.argv)}: {problem}")

    def run_json(self, argv):
        code, out, err = self.call(argv)
        if code != 0:
            raise RuntimeError(f"{' '.join(argv)} exited {code}: {err.strip()}")
        return json.loads(out)


def observe_routing(run, select):
    """Largest operand bound passed to ``_kernel.select`` while ``run()``
    executes, seen through a profile hook so that nothing is patched."""
    seen = [0]
    code = select.__code__

    def hook(frame, event, arg):
        if event == "call" and frame.f_code is code:
            seen[0] = max(seen[0], frame.f_locals["value_bound"])

    sys.setprofile(hook)
    try:
        run()
    finally:
        sys.setprofile(None)
    return seen[0]


def p90(values):
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    bench_kernel = ROOT / "benchmarks" / "bench_kernel.py"
    for needed in (src / "jacgraph" / "__init__.py", bench_kernel):
        if not needed.is_file():
            print(f"error: {needed} is missing; run from a jacgraph checkout", file=sys.stderr)
            return 2
    sys.path[:0] = [str(src), str(bench_kernel.parent)]

    def load():
        import jacgraph.cli

        return jacgraph

    jacgraph, _, import_s = timed(load)
    if Path(jacgraph.__file__).resolve().parent != (src / "jacgraph").resolve():
        print(f"error: imported jacgraph from {jacgraph.__file__}, not {src}", file=sys.stderr)
        return 2

    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    run_dir = OUT / f"work-{args.workload}-s{args.seed}-p{os.getpid()}"
    try:
        return measure(args, workload, Client(jacgraph.cli), run_dir, import_s, jacgraph)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def measure(args, workload, client, run_dir, import_s, jacgraph) -> int:
    from jacgraph import _kernel

    import spans
    import workloads

    # set-up: problem generation plus one warm-up request per command,
    # repeated; the import happens once per process and is added
    def set_up(d):
        d.mkdir(parents=True)
        workload.setup(d)
        first = {}
        for r in workload.round(0, d):
            first.setdefault(r.command, r)
        for r in first.values():
            client.run(r, timed_request=False)
        return list(first.values())

    setups = []
    for i in range(SETUP_REPEATS):
        warmups, _, scaled = timed(lambda: set_up(run_dir / f"setup-{i}"))
        setups.append(scaled)
    setup_s = import_s + statistics.median(setups)
    if client.failures:
        print("error: warm-up failed: " + "; ".join(client.failures), file=sys.stderr)
        return 1

    workload.prepare(client.run_json)
    routing_bound = observe_routing(
        lambda: [client.run(r, timed_request=False) for r in warmups], _kernel.select
    )
    routing_seen_on = "warm-up requests"
    client.attempted = 0

    def play(k, tracer=None):
        d = run_dir / f"round-{k}"
        d.mkdir(parents=True)
        for r in workload.round(k, d):
            if tracer is not None:
                tracer.request = client.attempted
            client.run(r)
        shutil.rmtree(d)

    if args.trace == 0:
        t_end = time.perf_counter() + args.seconds
        rounds = 0
        while len(client.scaled) < MIN_SAMPLES or time.perf_counter() < t_end:
            play(rounds)
            rounds += 1
        lat = client.scaled
        metrics = {
            "throughput_rps": (len(lat) / sum(lat), "1/s"),
            "latency_p50_ms": (statistics.median(lat) * 1e3, "ms"),
            "latency_p90_ms": (p90(lat) * 1e3, "ms"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
        by_command = {}
        for c, dt in zip(client.commands, lat):
            by_command.setdefault(c, []).append(dt)
        raw = client.raw
        extra = {
            "rounds": rounds,
            "samples": len(lat),
            "raw_wall": {
                "throughput_rps": len(raw) / sum(raw),
                "latency_p50_ms": statistics.median(raw) * 1e3,
                "latency_p90_ms": p90(raw) * 1e3,
            },
            "scaled_p50_ms_by_command": {c: statistics.median(v) * 1e3 for c, v in by_command.items()},
            "scaled_ms": [round(dt * 1e3, 3) for dt in lat],
        }
    else:
        # a fixed number of rounds, so counts repeat exactly for a seed
        rounds = max(1, round(args.seconds / (2 * workload.round_nominal_s)))
        for k in range(rounds):
            play(k)
        untraced = sum(client.scaled)
        client.scaled = []
        tracer = spans.Tracer()
        tracer.install()
        for k in range(rounds):
            play(k, tracer)
        traced = sum(client.scaled)
        OUT.mkdir(exist_ok=True)
        tracer.write(str(OUT / f"trace-{args.workload}"))  # one per workload: spans are large
        layer = tracer.layer_metrics()
        layer["trace.overhead_frac"] = traced / untraced - 1
        metrics = {name: (value, spans.unit_of(name)) for name, value in layer.items()}
        routing_bound = max(routing_bound, tracer.max_value_bound)
        routing_seen_on = "warm-up and all traced requests"
        extra = {
            "rounds": rounds,
            "spans": len(tracer.span_start),
            "untraced_scaled_s": untraced,
            "traced_scaled_s": traced,
        }

    failed = len(client.failures)
    error_rate = failed / client.attempted
    env = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "kernel": jacgraph.implementation_name(),
        "kernel_routing": {
            "max_value_bound": routing_bound,
            "above_fast_bound": routing_bound >= _kernel.FAST_BOUND,
            "observed_on": routing_seen_on,
        },
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "why": workloads.WHY[args.workload],
    }
    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:14.6f} {unit}")
    print(f"{'error_rate':32s} {error_rate:14.6f} ratio ({failed} failed of {client.attempted} attempted)")
    for line in client.failures[:20]:
        print("FAILED", line)
    print("env", json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": client.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    record = dict(result, error_rate=error_rate, env=env, **extra)
    path = OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
    path.write_text(json.dumps(record, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
