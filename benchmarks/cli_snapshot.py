"""Write the stdout and stderr of a fixed list of CLI requests to one file, so that two
checkouts, or the two kernels, can be compared byte for byte.

The requests are ``enum`` of all three kinds, ``strata`` and ``strata
--max-codim=1 --verbose``, ``check-pol --verbose``, ``complexity`` and
``reduce`` of the multidegree with the whole budget on the first vertex on
every case of the test corpus (``tests/corpus.py``), ``blowup-check`` and
``blowup-check --verbose`` on the cases with at most 7 edges, then
``strata``, ``strata --max-codim=1 --verbose``, ``blowup-check --verbose``,
``check-pol --verbose`` and ``complexity`` on three fixed graphs the corpus,
connected by construction, never holds (two components, one vertex with two
loops, two chorded 4-cycles joined by a bridge), and round 0 of perfbench's
``enumerate`` (seeds 5 and 6), ``sweep`` (seed 7) and ``query`` (seed 3).
Each runs through
``jacgraph.cli.main`` in this process.  The file holds, per request, a
header line with its arguments (the problem directory written as ``W``)
and exit code, then its stdout, then its stderr, if any, under a
``--- stderr`` line.

    python setup.py build_ext --build-lib BUILD     # for the compiled kernel
    python benchmarks/cli_snapshot.py CHECKOUT OUT [--ext BUILD/jacgraph]
    cmp OUT_A OUT_B

``jacgraph``, the corpus and the workloads are imported from CHECKOUT;
``--ext`` adds a directory holding a built ``_speedups`` to the package
path, and the script exits with code 2 before any request when the
compiled kernel does not load.  Without it the pure kernel runs unless
CHECKOUT's ``src/`` holds a built extension.
"""

from __future__ import annotations

import argparse
import importlib.util
import io
import json
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROUNDS = (("enumerate", 5), ("enumerate", 6), ("sweep", 7), ("query", 3))

# the tree count 0, the disconnected branch of the tree lister and bridges
_CHORDED = [("0", "1"), ("1", "2"), ("2", "3"), ("3", "0"), ("0", "2")]
FIXED = {
    "two-components": (["a", "b", "c", "d"], [("a", "b"), ("a", "b"), ("c", "d"), ("c", "c")]),
    "two-loops": (["x"], [("x", "x"), ("x", "x")]),
    "bridged-chorded": (
        [f"{side}{i}" for side in "pq" for i in range(4)],
        [(side + u, side + v) for side in "pq" for u, v in _CHORDED] + [("p2", "q0")],
    ),
}


def fixed_requests(work: Path):
    for name, (vertices, edges) in FIXED.items():
        data = {
            "vertices": vertices,
            "edges": [{"endpoints": list(pair)} for pair in edges],
            "polarization": {v: "1" if k == 0 else "0" for k, v in enumerate(vertices)},
            "basepoint": vertices[0],
        }
        path = work / f"{name}.json"
        path.write_text(json.dumps(data))
        yield ["strata", str(path)]
        yield ["strata", str(path), "--max-codim=1", "--verbose"]
        yield ["blowup-check", str(path), "--verbose"]
        yield ["check-pol", str(path), "--verbose"]
        yield ["complexity", str(path)]


def corpus_requests(corpus, work: Path):
    for case in corpus.corpus():
        g = case.graph
        data = {
            "vertices": list(g.vertices),
            "edges": [{"id": e.id, "endpoints": [e.u, e.v]} for e in g.edges],
            "polarization": {v: str(x) for v, x in zip(g.vertices, case.q.values)},
            "basepoint": case.basepoint,
            "stratum": sorted(case.stratum),
        }
        path = work / f"case{case.index}.json"
        path.write_text(json.dumps(data))
        for kind in ("ss", "qs", "stable"):
            yield ["enum", str(path), "--kind", kind]
        yield ["strata", str(path)]
        yield ["strata", str(path), "--max-codim=1", "--verbose"]
        yield ["check-pol", str(path), "--verbose"]
        yield ["complexity", str(path)]
        budget = case.q.total - len(case.stratum)
        degrees = [budget] + [0] * (g.num_vertices - 1)
        yield ["reduce", str(path), "--multidegree=" + ",".join(map(str, degrees))]
        if g.num_edges <= 7:
            yield ["blowup-check", str(path)]
            yield ["blowup-check", str(path), "--verbose"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkout", type=Path)
    parser.add_argument("out", type=Path)
    parser.add_argument("--ext", help="directory holding a built _speedups")
    args = parser.parse_args(argv)
    root = args.checkout.resolve()
    sys.path[:0] = [str(root / d) for d in ("src", "benchmarks", "perfbench", "tests")]
    spec = importlib.util.find_spec("jacgraph")
    if args.ext:
        spec.submodule_search_locations.append(str(Path(args.ext).resolve()))
    jacgraph = importlib.util.module_from_spec(spec)
    sys.modules["jacgraph"] = jacgraph
    spec.loader.exec_module(jacgraph)
    if args.ext and jacgraph.implementation_name() != "compiled":
        print(f"--ext {args.ext}: the compiled kernel did not load from it", file=sys.stderr)
        return 2
    import corpus
    import jacgraph.cli
    import workloads

    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        requests = list(corpus_requests(corpus, work)) + list(fixed_requests(work))
        for name, seed in ROUNDS:
            d = work / f"{name}-{seed}"
            d.mkdir()
            workload = workloads.WORKLOADS[name](seed)
            workload.setup(d)
            requests += [list(r.argv) for r in workload.round(0, d)]
        with args.out.open("w") as fh:
            for request in requests:
                out, err = io.StringIO(), io.StringIO()
                with redirect_stdout(out), redirect_stderr(err):
                    try:
                        code = jacgraph.cli.main(request)
                    except SystemExit as exc:
                        code = exc.code
                shown = [a.replace(tmp, "W") for a in request]
                fh.write(f"### {shown} -> {code}\n{out.getvalue()}\n")
                if err.getvalue():
                    fh.write(f"--- stderr\n{err.getvalue().replace(tmp, 'W')}\n")
    print(f"{jacgraph.implementation_name()} kernel: {len(requests)} requests")
    return 0


if __name__ == "__main__":
    sys.exit(main())
