"""Per-phase times of the CLI on perfbench's request streams, in process.

Replays rounds of one perfbench workload (``perfbench/workloads.py``,
imported read-only, as are ``run.git_commit`` and ``run.probe``) through
the four steps of ``jacgraph.cli.main``: parse the arguments, load the
problem file, run the command and write its JSON.  Each request runs
``--repeat`` times, each after a ``gc.collect()`` and one perfbench probe
(``run.probe``, a fixed slice of interpreter work), as perfbench times it,
and each phase keeps its best time; an answer that the workload can check
without reference answers is checked once.  The script prints, per command,
the request count and the sums of those best times in ms, and the median
probe time.  With ``--json OUT`` it also writes those sums to OUT as one
JSON object, with the Python version, the kernel, the commit, the seed, the
rounds, the repeat count and the median probe time in ms, a measure of the
machine's speed at the time against which records of different runs can be
scaled.

    python benchmarks/bench_cli.py --workload query
    python benchmarks/bench_cli.py --workload sweep --seed 3 --rounds 2 --repeat 5
    python benchmarks/bench_cli.py --workload query --json BENCH_cli_query.json
    python setup.py build_ext --build-lib BUILD
    python benchmarks/bench_cli.py --workload enumerate --ext BUILD/jacgraph

``jacgraph`` and the workloads are imported from this checkout, so the
kernel is the pure one unless an extension was built into ``src/``; its
name heads the output.  ``--ext DIR`` adds a directory holding a built
``_speedups`` to the package path, as ``cli_snapshot.py --ext`` does, and
the script exits with code 2 before any request when the compiled kernel
does not load from it.  ``bench_kernel.py`` times the kernel layer.
"""

from __future__ import annotations

import argparse
import gc
import importlib.machinery
import importlib.util
import io
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PHASES = ("parse", "load", "command", "write")


def phase_times(cli, argv, write) -> tuple:
    """The times of the four phases of one request, as ``cli.main`` runs them."""
    t0 = time.perf_counter()
    args = cli._parse_argv(argv)
    t1 = time.perf_counter()
    stratum = getattr(args, "stratum", None)
    problem = cli.load_problem(
        args.file,
        basepoint_flag=getattr(args, "basepoint", None),
        stratum_flag=None if stratum is None else [s for s in stratum.split(",") if s],
    )
    t2 = time.perf_counter()
    payload = getattr(cli, "cmd_" + args.command.replace("-", "_"))(problem, args)
    t3 = time.perf_counter()
    cli._write_json(write, payload, "")
    t4 = time.perf_counter()
    return t1 - t0, t2 - t1, t3 - t2, t4 - t3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="query", choices=("enumerate", "sweep", "query"))
    parser.add_argument("--seed", type=int, default=3)
    parser.add_argument("--rounds", type=int, default=2, help="play rounds 0 to ROUNDS - 1")
    parser.add_argument("--repeat", type=int, default=5, help="take the best of this many runs")
    parser.add_argument("--json", metavar="OUT", help="also write the sums to OUT as JSON")
    parser.add_argument("--ext", metavar="DIR", help="directory holding a built _speedups")
    args = parser.parse_args(argv)
    for d in ("perfbench", "benchmarks", "src"):
        if str(ROOT / d) not in sys.path:
            sys.path.insert(0, str(ROOT / d))
    if args.ext:
        spec = importlib.machinery.PathFinder.find_spec("jacgraph", [str(ROOT / "src")])
        spec.submodule_search_locations.append(str(Path(args.ext).resolve()))
        jacgraph = importlib.util.module_from_spec(spec)
        sys.modules["jacgraph"] = jacgraph
        spec.loader.exec_module(jacgraph)
        if jacgraph.implementation_name() != "compiled":
            print(f"--ext {args.ext}: the compiled kernel did not load from it", file=sys.stderr)
            return 2
    import workloads
    from run import git_commit, probe  # perfbench's; git_commit reads .git without running git

    from jacgraph import _kernel, cli

    sums = {}  # command -> [requests, parse, load, command, write]
    probes = []
    with tempfile.TemporaryDirectory() as tmp:
        workload = workloads.WORKLOADS[args.workload](args.seed)
        workload.setup(Path(tmp))
        for k in range(args.rounds):
            (work := Path(tmp) / f"round-{k}").mkdir()
            for request in workload.round(k, work):
                best = [float("inf")] * len(PHASES)
                for _ in range(args.repeat):
                    gc.collect()
                    probes.append(probe())
                    out = io.StringIO()
                    best = list(map(min, best, phase_times(cli, request.argv, out.write)))
                check = request.check or (lambda payload: None)
                if fault := check(json.loads(out.getvalue())):
                    raise SystemExit(f"{' '.join(request.argv)}: {fault}")
                row = sums.setdefault(request.command, [0] + [0.0] * len(PHASES))
                row[0] += 1
                row[1:] = map(sum, zip(row[1:], best))
    print(
        f"{args.workload}, seed {args.seed}, rounds 0-{args.rounds - 1}, "
        f"best of {args.repeat}, {_kernel.implementation_name()} kernel (ms)"
    )
    columns = (*PHASES, "total")
    print(f"{'command':<14}{'requests':>9}" + "".join(f"{p:>10}" for p in columns))
    sums["all"] = [sum(column) for column in zip(*sums.values())]
    table = {}  # command -> {"requests": count, phase: ms, ..., "total": ms}
    for command, (count, *times) in sums.items():
        ms = [t * 1e3 for t in (*times, sum(times))]
        table[command] = {"requests": count, **dict(zip(columns, ms))}
        print(f"{command:<14}{count:>9}" + "".join(f"{t:>10.2f}" for t in ms))
    probe_ms = statistics.median(probes) * 1e3
    print(f"median probe {probe_ms:.2f} ms")
    if args.json:
        record = {
            "workload": args.workload,
            "python": platform.python_version(),
            "kernel": _kernel.implementation_name(),
            "commit": git_commit(),
            "seed": args.seed,
            "rounds": args.rounds,
            "repeat": args.repeat,
            "probe_ms": probe_ms,
            "ms": table,
        }
        Path(args.json).write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
