"""What a fresh interpreter loads, and the command line run as a fresh
process.  Each check starts its own interpreter: in this one another test
has already imported every module, so a broken lazy import would not show.
"""

import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import jacgraph
from jacgraph.cli import main

SRC = Path(jacgraph.__file__).resolve().parent.parent

# what every command pays for at start-up but none of them needs
NOT_AT_STARTUP = ("dataclasses", "inspect", "jacgraph.strata", "jacgraph._kernel_py")


def _python(*args, cwd=None, stdout=subprocess.PIPE):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], cwd=cwd, env=env, stdout=stdout, stderr=subprocess.PIPE, text=True
    )


IMPORT_CHECK = f"""
import json, sys
import jacgraph.cli
report = {{"loaded": [m for m in {NOT_AT_STARTUP!r} if m in sys.modules]}}
import jacgraph
report["strata_report"] = jacgraph.strata_report.__module__
report["strata"] = jacgraph.strata.__name__
names = {{}}
exec("from jacgraph import *", names)
report["unresolved"] = [n for n in jacgraph.__all__ if n not in names]
report["undir"] = [n for n in jacgraph.__all__ + ["strata"] if n not in dir(jacgraph)]
from jacgraph import _kernel
report["select"] = _kernel.select(_kernel.FAST_BOUND).__name__
report["kernel_py_loaded"] = "jacgraph._kernel_py" in sys.modules
try:
    jacgraph.no_such_name
except AttributeError:
    report["missing_raises"] = True
print(json.dumps(report))
"""


def test_cli_import_leaves_the_unneeded_modules_unloaded():
    done = _python("-c", IMPORT_CHECK)
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout)
    assert report == {
        "loaded": [],
        "strata_report": "jacgraph.strata",
        "strata": "jacgraph.strata",
        "unresolved": [],
        "undir": [],
        "select": "jacgraph._kernel_py",
        "kernel_py_loaded": True,
        "missing_raises": True,
    }


def _small_case(corpus_cases):
    """The first corpus case with a stratum, three or more vertices and more
    edges than vertices."""
    return next(
        c
        for c in corpus_cases
        if c.stratum and c.graph.num_vertices >= 3 and c.graph.num_edges > c.graph.num_vertices
    )


def _argvs(case, path):
    g = case.graph
    budget = int(sum((case.q[v] for v in g.vertices), Fraction(0))) - len(case.stratum)
    rest = g.num_vertices - 1
    far = [budget + 4 * rest] + [-4] * rest  # away from quasistable, total kept
    return [
        ["complexity", path],
        ["enum", path, "--kind", "ss"],
        ["reduce", path, "--multidegree=" + ",".join(map(str, far))],
        ["check-pol", path],
        ["strata", path, "--max-codim", "2"],
        ["blowup-check", path],
    ]


def test_fresh_process_commands_match_in_process_main(corpus_cases, tmp_path, capsys):
    case = _small_case(corpus_cases)
    g = case.graph
    data = {
        "vertices": [{"name": v, "genus": g.genus_of(v)} for v in g.vertices],
        "edges": [{"id": e.id, "endpoints": [e.u, e.v]} for e in g.edges],
        "polarization": {v: str(case.q[v]) for v in g.vertices},
        "basepoint": case.basepoint,
        "stratum": sorted(case.stratum),
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(data))
    for argv in _argvs(case, str(path)):
        assert main(argv) == 0, argv
        expected = capsys.readouterr().out
        done = _python("-m", "jacgraph.cli", *argv, cwd=tmp_path)
        assert done.returncode == 0, (argv, done.stderr)
        assert done.stdout == expected, argv
        assert expected.strip(), argv


def test_closed_stdout_ends_without_a_traceback(tmp_path):
    # the read end of the pipe is closed before the child writes, as
    # `jacgraph ... | head -1` may do on a long report
    path = tmp_path / "problem.json"
    edges = [{"endpoints": ["u", "v"]}] * 2
    data = {"vertices": ["u", "v"], "edges": edges, "polarization": {"u": 1, "v": 0}}
    path.write_text(json.dumps(data))
    shim = "from jacgraph.cli import entry_point; entry_point()"
    for runner in (["-m", "jacgraph.cli"], ["-c", shim]):
        for argv in (["enum", str(path), "--kind", "ss"], ["complexity", str(path)]):
            read, write = os.pipe()
            os.close(read)
            try:
                done = _python(*runner, *argv, stdout=write)
            finally:
                os.close(write)
            assert done.returncode == 1, (runner, argv, done.stderr)
            assert "Traceback" not in done.stderr, (runner, argv)
