import contextlib
import errno
import importlib.util
import io
import json
import os
import random
import subprocess
import sys
import tempfile
from importlib.machinery import EXTENSION_SUFFIXES
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jacgraph import StratumContext, _kernel, blowup_decomposition, cli, strata_report
from jacgraph.cli import main

import corpus
import oracles

BANANA = {
    "vertices": ["u", "v"],
    "edges": [{"endpoints": ["u", "v"]}, {"endpoints": ["u", "v"]}],
    "polarization": {"u": 1, "v": 0},
    "basepoint": "u",
}


def _case_data(case):
    """The problem file of a corpus case."""
    g = case.graph
    return {
        "vertices": [{"name": v, "genus": g.genus_of(v)} for v in g.vertices],
        "edges": [{"id": e.id, "endpoints": [e.u, e.v]} for e in g.edges],
        "polarization": {v: str(case.q[v]) for v in g.vertices},
        "basepoint": case.basepoint,
        "stratum": sorted(case.stratum),
    }


@pytest.fixture
def problem(tmp_path):
    def write(data):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(data))
        return str(path)

    return write


def run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    payload = json.loads(out.out) if out.out.strip() else None
    return rc, payload, out.err


class TestComplexity:
    def test_banana(self, problem, capsys):
        rc, payload, _ = run(capsys, ["complexity", problem(BANANA)])
        assert rc == 0
        assert payload == {"complexity": 2, "picard": [2]}

    def test_disconnected_graph_reports_zero(self, problem, capsys):
        data = {"vertices": ["a", "b"], "edges": []}
        rc, payload, _ = run(capsys, ["complexity", problem(data)])
        assert rc == 0
        assert payload["complexity"] == 0
        assert payload["picard"] is None
        assert "picard_error" in payload


class TestEnum:
    def test_quasistable_default(self, problem, capsys):
        rc, payload, _ = run(capsys, ["enum", problem(BANANA)])
        assert rc == 0
        assert payload["kind"] == "quasistable"
        assert payload["vertices"] == ["u", "v"]
        assert payload["multidegrees"] == [[1, 0], [2, -1]]
        assert payload["count"] == 2

    def test_kinds(self, problem, capsys):
        path = problem(BANANA)
        _, ss, _ = run(capsys, ["enum", path, "--kind", "ss"])
        _, st, _ = run(capsys, ["enum", path, "--kind", "stable"])
        assert ss["multidegrees"] == [[0, 1], [1, 0], [2, -1]]
        assert st["multidegrees"] == [[1, 0]]

    def test_stratum_flag_overrides(self, problem, capsys):
        data = dict(BANANA, stratum=["e0", "e1"])
        rc, payload, _ = run(
            capsys, ["enum", problem(data), "--stratum", "e0"]
        )
        assert rc == 0
        assert payload["multidegrees"] == [[1, -1]]

    def test_basepoint_flag(self, problem, capsys):
        rc, payload, _ = run(capsys, ["enum", problem(BANANA), "--basepoint", "v"])
        assert rc == 0
        assert payload["multidegrees"] == [[0, 1], [1, 0]]

    def test_empty_basepoint_flag(self, problem, capsys):
        # a vertex named "" is a valid basepoint and overrides the file's
        data = {
            "vertices": ["", "a"],
            "edges": [{"endpoints": ["", "a"]}, {"endpoints": ["", "a"]}],
            "polarization": {"": 1, "a": 0},
            "basepoint": "a",
        }
        rc, payload, _ = run(capsys, ["enum", problem(data), "--basepoint", ""])
        assert rc == 0
        assert payload["multidegrees"] == [[1, 0], [2, -1]]

    def test_verbose_summary_on_stderr(self, problem, capsys):
        rc, _, err = run(capsys, ["enum", problem(BANANA), "--verbose"])
        assert rc == 0
        assert "2 quasistable multidegrees" in err

    def test_polarization_required(self, problem, capsys):
        data = {"vertices": ["a"], "edges": []}
        rc, _, err = run(capsys, ["enum", problem(data)])
        assert rc == 2
        assert "polarization" in err


class TestReduce:
    def test_banana(self, problem, capsys):
        rc, payload, _ = run(
            capsys, ["reduce", problem(BANANA), "--multidegree", "0,1"]
        )
        assert rc == 0
        assert payload["input"] == [0, 1]
        assert payload["output"] == [2, -1]
        assert payload["steps"] == 1
        assert payload["class_checked"] is True

    def test_wrong_arity(self, problem, capsys):
        rc, _, err = run(capsys, ["reduce", problem(BANANA), "--multidegree", "1"])
        assert rc == 2
        assert "2 integers" in err

    def test_non_integer_values(self, problem, capsys):
        rc, _, _ = run(capsys, ["reduce", problem(BANANA), "--multidegree", "a,b"])
        assert rc == 2

    def test_ascii_integers_only(self, problem, capsys):
        # int() alone would read "1_0" as 10 and an Arabic-Indic three as 3
        path = problem(BANANA)
        for bad in ("1_0,2", "\u0663,-2", "1,0x1", "1.0,0", "1,", "+-1,2"):
            rc, _, err = run(capsys, ["reduce", path, f"--multidegree={bad}"])
            assert rc == 2, bad
            assert "--multidegree must be comma-separated integers" in err, bad
        rc, payload, _ = run(capsys, ["reduce", path, "--multidegree= +1 , -0"])
        assert rc == 0 and payload["input"] == [1, 0]

    def test_negative_leading_multidegree(self, problem, capsys):
        path = problem(BANANA)
        for argv in (["--multidegree", "-1,2"], ["--multidegree=-1,2"]):
            rc, payload, _ = run(capsys, ["reduce", path, *argv])
            assert rc == 0
            assert payload["input"] == [-1, 2]
            assert payload["output"] == [1, 0]

    def test_class_checked_on_corpus(self, problem, capsys, corpus_cases):
        rng = random.Random(67)
        for case in corpus_cases:
            g = case.graph
            data = _case_data(case)
            budget = int(sum((case.q[v] for v in g.vertices), Fraction(0))) - len(case.stratum)
            values = [rng.randint(-12, 12) for _ in g.vertices[1:]]
            values.insert(0, budget - sum(values))
            arg = "--multidegree=" + ",".join(map(str, values))
            rc, payload, _ = run(capsys, ["reduce", problem(data), arg])
            assert rc == 0 and payload["class_checked"] is True, case.index

    def test_wrong_potential_fails_the_certificate(self, problem, capsys, monkeypatch):
        # output - input must be the Laplacian of the reported potential; a
        # potential moved at one vertex gives another Laplacian image
        from jacgraph import Cochain, StratumContext

        real = StratumContext.reduce_report

        def skewed(self, d):
            rep = real(self, d)
            z = rep.potential.values
            return rep._replace(potential=Cochain(d.graph, (z[0] + 1,) + z[1:]))

        path = problem(BANANA)
        rc, payload, _ = run(capsys, ["reduce", path, "--multidegree", "0,1"])
        assert payload["class_checked"] is True
        monkeypatch.setattr(StratumContext, "reduce_report", skewed)
        rc, payload, _ = run(capsys, ["reduce", path, "--multidegree", "0,1"])
        assert rc == 0
        assert payload["output"] == [2, -1]
        assert payload["class_checked"] is False

    def test_disconnected_stratum_is_domain_error(self, problem, capsys):
        rc, _, err = run(
            capsys,
            [
                "reduce",
                problem(BANANA),
                "--stratum",
                "e0,e1",
                "--multidegree",
                "0,-1",
            ],
        )
        assert rc == 3
        assert "connected" in err


class TestCheckPol:
    def test_degenerate(self, problem, capsys):
        rc, payload, _ = run(capsys, ["check-pol", problem(BANANA)])
        assert rc == 0
        assert payload == {
            "general": False,
            "nondegenerate": False,
            "witness": {"vertices": ["u"], "is_spine": False},
        }

    def test_general(self, problem, capsys):
        data = dict(BANANA, polarization={"u": "1/2", "v": "1/2"})
        rc, payload, _ = run(capsys, ["check-pol", problem(data)])
        assert rc == 0
        assert payload["general"] is True
        assert payload["witness"] is None


class TestStrata:
    def test_banana_report(self, problem, capsys):
        rc, payload, _ = run(capsys, ["strata", problem(BANANA)])
        assert rc == 0
        assert payload["complete"] is True
        assert payload["total_multidegrees"] == 4
        assert payload["subdivided_complexity"] == 4
        assert [r["stratum"] for r in payload["rows"]] == [
            [],
            ["e0"],
            ["e1"],
            ["e0", "e1"],
        ]
        assert [len(r["multidegrees"]) for r in payload["rows"]] == [2, 1, 1, 0]

    def test_rows_match_the_library_on_corpus(self, problem, capsys, corpus_cases):
        # the CLI writes the plain rows, the library wraps them: both must
        # give the same strata and buckets
        for case in corpus_cases:
            g = case.graph
            path = problem(_case_data(case))
            rc, payload, _ = run(capsys, ["strata", path])
            assert rc == 0, case.index
            rows = [
                {
                    "stratum": list(r.stratum),
                    "codimension": r.codimension,
                    "connected": r.connected,
                    "expected_count": r.expected_count,
                    "multidegrees": [list(d.values) for d in r.multidegrees],
                }
                for r in strata_report(g, case.basepoint, case.q).rows
            ]
            assert payload["rows"] == rows, case.index
            if g.num_edges > 7:
                continue
            rc, payload, _ = run(capsys, ["blowup-check", path])
            assert rc == 0, case.index
            buckets = [
                {
                    "stratum": list(b.stratum),
                    "count": b.count,
                    "expected_count": b.expected_count,
                    "multidegrees": [list(d.values) for d in b.multidegrees],
                }
                for b in blowup_decomposition(g, case.basepoint, case.q).buckets
            ]
            assert payload["buckets"] == buckets, case.index

    def test_stdout_is_the_library_rows_on_corpus(self, problem, capsys, corpus_cases):
        # the rows reach the writer packed; stdout must be, byte for byte,
        # the indent-2 JSON of what the library returns unpacked
        for case in corpus_cases[::3]:
            g, bp, q = case.graph, case.basepoint, case.q
            path = problem(_case_data(case))
            ctx = StratumContext(g, q, bp, case.stratum)
            for flag, kind in cli.KIND_NAMES.items():
                found = [d.values for d in ctx.enumerate(kind)]
                want = {"kind": kind, "vertices": list(g.vertices), "count": len(found),
                        "multidegrees": found}
                assert main(["enum", path, "--kind", flag]) == 0
                assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n", case.index
            rep = strata_report(g, bp, q)
            want = {
                "vertices": list(g.vertices),
                "basepoint": bp,
                "complete": rep.complete,
                "total_multidegrees": rep.total_multidegrees,
                "subdivided_complexity": rep.subdivided_complexity,
                "rows": [
                    {
                        "stratum": r.stratum,
                        "codimension": r.codimension,
                        "connected": r.connected,
                        "expected_count": r.expected_count,
                        "multidegrees": [d.values for d in r.multidegrees],
                    }
                    for r in rep.rows
                ],
            }
            assert main(["strata", path]) == 0
            assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n", case.index
            if g.num_edges > 7:
                continue
            dec = blowup_decomposition(g, bp, q)
            want = {
                "vertices": list(g.vertices),
                "subdivided_vertices": list(dec.subdivided_graph.vertices),
                "exceptional_vertices": dict(dec.exceptional_vertices),
                "total": dec.total,
                "expected_total": dec.expected_total,
                "buckets": [
                    {
                        "stratum": b.stratum,
                        "count": b.count,
                        "expected_count": b.expected_count,
                        "multidegrees": [d.values for d in b.multidegrees],
                    }
                    for b in dec.buckets
                ],
            }
            assert main(["blowup-check", path]) == 0
            assert capsys.readouterr().out == json.dumps(want, indent=2) + "\n", case.index

    def test_max_codim(self, problem, capsys):
        rc, payload, _ = run(
            capsys, ["strata", problem(BANANA), "--max-codim", "1"]
        )
        assert rc == 0
        assert payload["complete"] is False
        assert len(payload["rows"]) == 3

    def test_negative_max_codim_rejected(self, problem, capsys):
        rc, payload, err = run(capsys, ["strata", problem(BANANA), "--max-codim", "-1"])
        assert rc == 2
        assert payload is None
        assert "--max-codim" in err

    def test_guard_env(self, problem, capsys, monkeypatch):
        # JACGRAPH_GUARD_EDGES is read no more: whatever it holds, the
        # strata and the buckets are those of the limit alone
        path = problem(BANANA)
        want = [run(capsys, [command, path])[1] for command in ("strata", "blowup-check")]
        for value in ("1", "lots", "-1"):
            monkeypatch.setenv("JACGRAPH_GUARD_EDGES", value)
            for command, payload in zip(("strata", "blowup-check"), want):
                assert run(capsys, [command, path]) == (0, payload, ""), (value, command)

    def test_limit_refused(self, problem, capsys, monkeypatch):
        # each command that lists refuses past the limit with exit 3 and a
        # message naming its count, never a traceback; two vertices joined
        # by five edges have 5 quasistable rows, 3 connected subsets, 32
        # strata and 32 buckets
        edges = [{"endpoints": ["u", "v"]}] * 5
        path = problem(dict(BANANA, edges=edges, polarization={"u": "1/3", "v": "2/3"}))
        for argv, message in (
            (["enum", path, "--kind", "qs"], "5 quasistable rows found so far exceed the limit of 4"),
            (["check-pol", path], "3 connected subsets listed so far exceed the limit of 2"),
            (["strata", path], "32 strata up to codimension 5 exceed the limit of 31"),
            (["blowup-check", path], "32 buckets, one per edge subset, exceed the limit of 31"),
        ):
            monkeypatch.setattr(_kernel, "LIMIT", int(message.split()[-1]))
            rc, payload, err = run(capsys, argv)
            assert (rc, payload) == (3, None), argv
            assert message in err and "Traceback" not in err, err

    def test_past_the_old_edge_guard(self, problem, capsys):
        # a chorded 20-cycle has 24 edges, past the old guard of 16: its
        # strata up to codimension 1 are 25 rows holding 9,300 * (1 + 5)
        # points
        g = corpus.chorded_cycle(20)
        data = {
            "vertices": list(g.vertices),
            "edges": [{"id": e.id, "endpoints": [e.u, e.v]} for e in g.edges],
            "polarization": {v: "1/2" for v in g.vertices},
            "basepoint": "c0",
        }
        rc, payload, _ = run(capsys, ["strata", problem(data), "--max-codim", "1"])
        assert rc == 0
        assert len(payload["rows"]) == 25
        assert payload["total_multidegrees"] == 55_800

    def test_max_codim_ascii_only(self, problem, capsys):
        # int() alone would read "1_0" as 10 and an Arabic-Indic one as 1
        path = problem(BANANA)
        for bad in ("1_0", "\u0661", "1.0", "0x1"):
            with pytest.raises(SystemExit) as exc:
                main(["strata", path, f"--max-codim={bad}"])
            assert exc.value.code == 2, bad
            assert f"argument --max-codim: invalid int value: {bad!r}" in capsys.readouterr().err
        rc, payload, _ = run(capsys, ["strata", path, "--max-codim= +1 "])
        assert rc == 0 and len(payload["rows"]) == 3


class TestBlowupCheck:
    def test_banana(self, problem, capsys):
        rc, payload, _ = run(capsys, ["blowup-check", problem(BANANA)])
        assert rc == 0
        assert payload["total"] == 4
        assert payload["expected_total"] == 4
        assert payload["exceptional_vertices"] == {"e0": "e0*", "e1": "e1*"}
        counts = {tuple(b["stratum"]): b["count"] for b in payload["buckets"]}
        assert counts[()] == 2
        assert counts[("e0", "e1")] == 0


class TestProblemFileValidation:
    def test_missing_file(self, capsys, tmp_path):
        rc, _, err = run(capsys, ["complexity", str(tmp_path / "nope.json")])
        assert rc == 2
        assert "cannot read" in err

    def test_directory(self, capsys, tmp_path):
        # the message names the path twice, as open() raised it; a read of
        # a directory's descriptor raises EISDIR with no path of its own
        rc, _, err = run(capsys, ["complexity", str(tmp_path)])
        assert rc == 2
        reason = f"[Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: {str(tmp_path)!r}"
        assert err == f"error: cannot read {tmp_path}: {reason}\n"

    def test_invalid_json(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        rc, _, err = run(capsys, ["complexity", str(path)])
        assert rc == 2
        assert "invalid JSON" in err

    def test_float_polarization_rejected(self, problem, capsys):
        data = dict(BANANA, polarization={"u": 0.5, "v": 0.5})
        rc, _, err = run(capsys, ["enum", problem(data)])
        assert rc == 2
        assert "float" in err

    def test_ascii_rationals_only(self, problem, capsys):
        # Fraction() alone would read "1_0" as 10, Arabic-Indic digits as
        # theirs, and decimals and exponents
        for bad in ("1_0", "\u0661/\u0662", "0.5", "1e3", "1/-2", "1/", "/2", "1/2/3", "\u00bd"):
            data = dict(BANANA, polarization={"u": bad, "v": "0"})
            rc, _, err = run(capsys, ["enum", problem(data)])
            assert rc == 2, bad
            assert f"cannot parse rational {bad!r}" in err, bad
        data = dict(BANANA, polarization={"u": " +3/2 ", "v": "-1/2"})
        rc, payload, _ = run(capsys, ["enum", problem(data)])
        assert rc == 0 and payload["count"] == 2

    def test_fractional_total_rejected(self, problem, capsys):
        data = dict(BANANA, polarization={"u": "1/2", "v": 0})
        rc, _, err = run(capsys, ["enum", problem(data)])
        assert rc == 2
        assert "total" in err

    def test_unknown_vertex_in_edge(self, problem, capsys):
        data = {"vertices": ["a"], "edges": [{"endpoints": ["a", "zz"]}]}
        rc, _, err = run(capsys, ["complexity", problem(data)])
        assert rc == 2
        assert "zz" in err

    def test_bare_endpoint_pair_rejected(self, problem, capsys):
        data = {"vertices": ["u", "v"], "edges": [["u", "v"]]}
        rc, payload, err = run(capsys, ["complexity", problem(data)])
        assert rc == 2
        assert payload is None
        assert "cannot interpret edge entry ['u', 'v']" in err

    def test_unknown_stratum_edge(self, problem, capsys):
        rc, _, err = run(capsys, ["enum", problem(BANANA), "--stratum", "e9"])
        assert rc == 2
        assert "e9" in err

    def test_unknown_basepoint(self, problem, capsys):
        rc, _, _ = run(capsys, ["enum", problem(BANANA), "--basepoint", "zz"])
        assert rc == 2

    def test_duplicate_vertex_names(self, problem, capsys):
        data = {"vertices": ["a", "a"], "edges": []}
        rc, _, err = run(capsys, ["complexity", problem(data)])
        assert rc == 2
        assert "duplicate" in err

    def test_explicit_edge_ids(self, problem, capsys):
        data = {
            "vertices": ["a", "b"],
            "edges": [
                {"id": "left", "endpoints": ["a", "b"]},
                {"id": "right", "endpoints": ["a", "b"]},
            ],
            "polarization": {"a": 1, "b": 0},
        }
        rc, payload, _ = run(capsys, ["enum", problem(data), "--stratum", "left"])
        assert rc == 0
        assert payload["count"] == 1

    def test_vertex_objects_with_genus(self, problem, capsys):
        data = {
            "vertices": [{"name": "a", "genus": 1}, {"name": "b", "genus": 1}],
            "edges": [{"endpoints": ["a", "b"]}],
        }
        rc, payload, _ = run(capsys, ["complexity", problem(data)])
        assert rc == 0
        assert payload["complexity"] == 1

    def test_bad_genus(self, problem, capsys):
        data = {"vertices": [{"name": "a", "genus": -1}], "edges": []}
        rc, _, err = run(capsys, ["complexity", problem(data)])
        assert rc == 2
        assert "genus" in err

    def test_list_basepoint_rejected(self, problem, capsys):
        rc, _, err = run(capsys, ["enum", problem(dict(BANANA, basepoint=["u"]))])
        assert rc == 2
        assert "basepoint" in err

    def test_list_stratum_entry_rejected(self, problem, capsys):
        rc, _, err = run(capsys, ["enum", problem(dict(BANANA, stratum=[["a"]]))])
        assert rc == 2
        assert "stratum" in err

    def test_list_endpoint_rejected(self, problem, capsys):
        data = {"vertices": ["a"], "edges": [{"endpoints": [["a"], "a"]}]}
        rc, _, err = run(capsys, ["complexity", problem(data)])
        assert rc == 2
        assert "endpoint" in err

    def test_list_edge_id_rejected(self, problem, capsys):
        data = {"vertices": ["a"], "edges": [{"id": ["x"], "endpoints": ["a", "a"]}]}
        rc, _, _ = run(capsys, ["complexity", problem(data)])
        assert rc == 2

    def test_edges_must_be_a_list(self, problem, capsys):
        rc, _, err = run(capsys, ["complexity", problem({"vertices": ["a"], "edges": 3})])
        assert rc == 2
        assert "edges" in err

    def test_undecodable_file(self, capsys, tmp_path):
        path = tmp_path / "latin.json"
        path.write_bytes(b"\xff\xfe{")
        rc, _, err = run(capsys, ["complexity", str(path)])
        assert rc == 2
        assert "invalid JSON" in err

    @pytest.mark.parametrize(
        "raw",
        [
            b'\xef\xbb\xbf{"vertices": ["a"]}',
            '{"vertices": ["a"]}'.encode("utf-16"),
            b'{\r\n "vertices": ["a"],\r\n "edges": [}\r\n',
            b'{\r "vertices": ["a"],\r "edges": [}\r',
        ],
        ids=["utf-8 bom", "utf-16", "crlf", "cr"],
    )
    def test_read_as_utf8_bytes(self, capsys, tmp_path, raw):
        # no byte order mark is skipped, and error positions count newlines
        # as text mode reads them, as the text-mode loader did
        path = tmp_path / "problem.json"
        path.write_bytes(raw)
        with pytest.raises(cli.ProblemFileError) as ref:
            oracles.load_problem_reference(str(path))
        assert run(capsys, ["complexity", str(path)]) == (2, None, f"error: {ref.value}\n")
        assert str(ref.value).startswith(f"invalid JSON in {path}: ")

    def test_crlf_file_loads(self, tmp_path):
        path = tmp_path / "crlf.json"
        path.write_bytes(json.dumps(K5_DOUBLED, indent=1).replace("\n", "\r\n").encode())
        want = _loaded(oracles.load_problem_reference, str(path))
        assert want[0] != "error" and _loaded(cli.load_problem, str(path)) == want

    def test_empty_graph(self, problem, capsys):
        # a graph without vertices has no basepoint: each command says it
        # needs a vertex, with exit code 3, as complexity and check-pol do
        path = problem({"vertices": [], "edges": [], "polarization": {}})
        for argv, message in (
            (["complexity"], "complexity of the empty graph is undefined"),
            (["check-pol"], "classification needs at least one vertex"),
            (["enum"], "enum needs at least one vertex"),
            (["reduce", "--multidegree", ""], "reduce needs at least one vertex"),
            (["strata"], "strata needs at least one vertex"),
            (["blowup-check"], "blowup-check needs at least one vertex"),
        ):
            rc, payload, err = run(capsys, [argv[0], path, *argv[1:]])
            assert (rc, payload, err) == (3, None, f"error: {message}\n"), argv
        # without a polarization the missing entry is reported first
        rc, _, err = run(capsys, ["enum", problem({"vertices": [], "edges": []})])
        assert rc == 2 and "polarization" in err


def _edge(u, v, **kw):
    return dict(kw, endpoints=[u, v])


AB = ["a", "b"]
AB_EDGE = [_edge("a", "b")]
POL = {"a": 1, "b": 0}

# Files with two or more faults each, and the one message the loader gives:
# the checks run in a fixed order, and these pin that order.
MULTI_FAULT_FILES = [
    pytest.param(
        "complexity",
        {"vertices": AB, "edges": [_edge("a", "b", id="x"), _edge("a", "b", id="x"), _edge("a", "zz")]},
        "edge 2 endpoint 'zz' is not a vertex",
        id="bad endpoint after a duplicate id",
    ),
    pytest.param(
        "complexity",
        {"vertices": AB, "edges": [_edge("a", "b", id="x"), _edge("b", "a", id="x"), _edge("a", "a", id=3)]},
        "edge id 3 must be a string",
        id="non-string id after a duplicate id",
    ),
    pytest.param(
        "complexity",
        {"vertices": AB, "edges": [_edge("a", "b"), _edge("a", "b", id="e0"), _edge("a", "b", id="e0")]},
        "default id 'e0' collides with an explicit edge id",
        id="default id collides, duplicate id later",
    ),
    pytest.param(
        "complexity",
        {"vertices": AB, "edges": [_edge("a", "b"), {"id": "e0"}]},
        "default id 'e0' collides with an explicit edge id",
        id="default id collides with a later malformed entry",
    ),
    pytest.param(
        "complexity",
        {"vertices": AB, "edges": [_edge("a", "b", id="e1"), _edge("a", "b"), _edge("a", "q")]},
        "default id 'e1' collides with an explicit edge id",
        id="default id collides with an earlier id, bad endpoint later",
    ),
    pytest.param(
        "enum",
        {
            "vertices": AB,
            "edges": [_edge("a", "b", id="x"), _edge("a", "b", id="x")],
            "polarization": POL,
            "stratum": ["zz"],
        },
        "duplicate edge ids",
        id="duplicate ids, unknown stratum edge",
    ),
    pytest.param(
        "complexity",
        {"vertices": AB, "edges": [{"id": 5, "endpoints": ["a"]}]},
        "edge 0 needs exactly two endpoints",
        id="wrong endpoint count next to a bad id",
    ),
    pytest.param(
        "complexity",
        {"vertices": AB, "edges": [_edge(["a"], "zz")]},
        "edge 0 endpoint ['a'] is not a vertex",
        id="list endpoint next to an unknown one",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": AB_EDGE, "polarization": {"a": 1, "zz": 0}},
        "polarization names unknown vertices ['zz']",
        id="unknown polarization vertex next to a missing one",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": AB_EDGE, "polarization": {"a": 1}, "stratum": ["zz"]},
        "polarization misses vertices ['b']",
        id="missing polarization vertex, unknown stratum edge",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": AB_EDGE, "polarization": {"b": 0.5, "a": "p/q"}},
        'float 0.5 rejected; write rationals as "p/q" strings',
        id="float value next to a bad rational",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": AB_EDGE, "polarization": {"a": "1/0", "b": 0.5}},
        "cannot parse rational '1/0'",
        id="bad rational next to a float value",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": AB_EDGE, "polarization": {"a": "1/2", "b": "1/3"}, "basepoint": "zz"},
        "polarization total 5/6 is not an integer",
        id="fractional total, unknown basepoint",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": AB_EDGE, "polarization": [1, 0], "stratum": "e0"},
        "'polarization' must be an object",
        id="polarization not an object, bad stratum",
    ),
    pytest.param(
        "complexity",
        {"vertices": [{"name": "a", "genus": -1}, "a"], "edges": []},
        "genus of 'a' must be a nonnegative integer",
        id="bad genus next to a duplicate name",
    ),
    pytest.param(
        "complexity",
        {"vertices": ["a", "a", {"name": "b", "genus": 1.5}], "edges": []},
        "duplicate vertex name 'a'",
        id="duplicate name, then a bad genus",
    ),
    pytest.param(
        "complexity",
        {"vertices": ["a", {"name": "a", "genus": True}], "edges": []},
        "genus of 'a' must be a nonnegative integer",
        id="boolean genus on a duplicate name",
    ),
    pytest.param(
        "complexity",
        {"vertices": ["a", {"genus": 1}], "edges": {}},
        "cannot interpret vertex entry {'genus': 1}",
        id="nameless vertex, edges not a list",
    ),
    pytest.param(
        "complexity",
        {"vertices": AB, "edges": "e0"},
        "'edges' must be a list",
        id="edges not a list, no edge entries",
    ),
    pytest.param(
        "enum",
        {
            "vertices": AB,
            "edges": [_edge("a", "b"), _edge("a", "b")],
            "polarization": POL,
            "basepoint": ["a"],
            "stratum": ["e0", "e0"],
        },
        "basepoint ['a'] is not a vertex",
        id="list basepoint, repeated stratum edge",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": AB_EDGE, "polarization": POL, "stratum": ["e0", "e0", "zz"]},
        "stratum names unknown edges ['zz']",
        id="repeated stratum edge next to an unknown one",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": [_edge("a", "b"), _edge("a", "b")], "stratum": ["e1", "e1"]},
        "stratum lists an edge twice",
        id="repeated stratum edge, enum without polarization",
    ),
    pytest.param(
        "enum",
        {"vertices": AB, "edges": AB_EDGE, "stratum": {"e0": 1}},
        "'stratum' must be a list of edge ids",
        id="stratum not a list, no polarization",
    ),
]


@pytest.mark.parametrize("command, data, message", MULTI_FAULT_FILES)
def test_first_fault_reported(problem, capsys, command, data, message):
    rc = main([command, problem(data)])
    out = capsys.readouterr()
    assert (rc, out.out, out.err) == (2, "", f"error: {message}\n")


class TestParserReuse:
    def test_parser_built_once_per_process(self, problem, capsys, monkeypatch):
        real = cli.build_parser
        calls = []
        monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
        cli._parser.cache_clear()
        path = problem(BANANA)
        for argv in (["complexity", path], ["enum", path, "--kind", "ss"], ["complexity", path]):
            assert run(capsys, argv)[0] == 0
        cli._parser.cache_clear()
        assert len(calls) == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["enum", "--", "FILE"],
            ["enum", "FILE", "extra"],
            ["enum", "FILE", "--kind", "bad"],
            ["enum", "FILE", "--ki", "ss"],
            ["reduce", "FILE"],
            ["reduce", "FILE", "--multidegree", "-1,1"],
            ["enum"],
            [],
            ["foo", "FILE"],
            ["-h"],
            ["enum", "-h"],
            ["enum", "FILE", "--kind=ss", "--bogus"],
            ["complexity", "FILE", "--verbose=1"],
            ["strata", "FILE", "--max-codim", "x"],
        ],
    )
    def test_one_pass_parse_matches_two_pass(self, problem, capsys, monkeypatch, argv):
        # the command's own subparser, with the top-level parser behind it,
        # prints and exits exactly as the top-level parser alone does
        argv = [problem(BANANA) if a == "FILE" else a for a in argv]
        one_pass = cli._parse_argv

        def outcome(parse):
            seen = []  # the parsed arguments, when parsing returns

            def recorded(a):
                seen.append(vars(args := parse(a)))
                return args

            monkeypatch.setattr(cli, "_parse_argv", recorded)
            try:
                rc = main(list(argv))
            except SystemExit as exc:
                rc = exc.code
            out = capsys.readouterr()
            return rc, out.out, out.err, seen

        fresh = cli.build_parser()
        two_pass = outcome(lambda a: fresh.parse_args(cli._join_negative_multidegree(a)))
        assert outcome(one_pass) == two_pass

    def test_handler_replaced_on_module_runs(self, problem, capsys, monkeypatch):
        path = problem(BANANA)
        assert run(capsys, ["complexity", path])[0] == 0
        monkeypatch.setattr(cli, "cmd_complexity", lambda problem, args: {"replaced": True})
        assert run(capsys, ["complexity", path])[1] == {"replaced": True}


# -- output --------------------------------------------------------------------

K5_DOUBLED = {
    "vertices": list("abcde"),
    "edges": [
        {"endpoints": [u, v]} for i, u in enumerate("abcde") for v in "abcde"[i + 1 :]
    ]
    * 2,
    "polarization": {"a": "1/2", "b": "-1/2", "c": 1, "d": 0, "e": 0},
    "basepoint": "c",
}
LOOPED_TRIANGLE = {
    "vertices": ["x", "y", "z"],
    "edges": [{"endpoints": ["x", "x"]}]
    + [{"endpoints": pair} for pair in (["x", "y"], ["y", "z"], ["z", "x"])] * 2,
    "polarization": {"x": 1, "y": 0, "z": 0},
}
ONE_VERTEX = {"vertices": ["x"], "edges": [{"endpoints": ["x", "x"]}], "polarization": {"x": 2}}
# a bridge with half on each end has no stable multidegree
BRIDGE = {
    "vertices": ["u", "v"],
    "edges": [{"endpoints": ["u", "v"]}],
    "polarization": {"u": "1/2", "v": "1/2"},
}
ODD_IDS = {
    "vertices": ["p", "q"],
    "edges": [
        {"id": 'a"b', "endpoints": ["p", "q"]},
        {"id": "c\\d", "endpoints": ["p", "q"]},
        {"id": "é😀", "endpoints": ["q", "q"]},
    ],
    "polarization": {"p": "1/2", "q": "1/2"},
}


def _verbose_summary(argv, problem):
    """The --verbose line of ``strata`` and ``blowup-check``, from the
    library's report."""
    args = cli._parser().parse_args(argv[:1] + ["file"] + argv[1:])
    g, q, bp = problem.graph, problem.polarization, problem.basepoint
    if args.command == "strata":
        rep = strata_report(g, bp, q, max_codim=args.max_codim)
        tail = f", subdivision has {rep.subdivided_complexity}" if rep.complete else " (truncated)"
        return f"{len(rep.rows)} strata, {rep.total_multidegrees} multidegrees{tail}\n"
    dec = blowup_decomposition(g, bp, q)
    ok = dec.total == dec.expected_total and all(b.count == b.expected_count for b in dec.buckets)
    return (
        f"total {dec.total}, expected {dec.expected_total}, "
        f"buckets {'consistent' if ok else 'INCONSISTENT'}\n"
    )


class TestOutput:
    """stdout is the indent-2 JSON of the handler's payload, byte for byte."""

    @pytest.mark.parametrize(
        "argv, data",
        [
            (["complexity"], K5_DOUBLED),
            (["enum", "--kind", "ss"], K5_DOUBLED),
            (["enum", "--kind", "stable", "--stratum", "e0,e10"], K5_DOUBLED),
            (["reduce", "--multidegree=7,-9,2,0,1"], K5_DOUBLED),
            (["check-pol"], K5_DOUBLED),
            (["strata"], LOOPED_TRIANGLE),
            (["blowup-check"], LOOPED_TRIANGLE),
            (["enum", "--kind", "ss"], ONE_VERTEX),
            (["enum", "--kind", "stable"], BRIDGE),
            (["strata", "--max-codim=0"], LOOPED_TRIANGLE),
            (["strata", "--max-codim=1"], LOOPED_TRIANGLE),
            (["strata"], ONE_VERTEX),
            (["strata"], ODD_IDS),
            (["blowup-check"], ODD_IDS),
        ],
    )
    def test_stdout_is_indented_payload(self, problem, capsys, monkeypatch, argv, data):
        name = "cmd_" + argv[0].replace("-", "_")
        handler, payloads = getattr(cli, name), []
        monkeypatch.setattr(
            cli, name, lambda p, args: payloads.append(handler(p, args)) or payloads[-1]
        )
        path = problem(data)
        assert main([argv[0], path, *argv[1:]]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(_unpacked(payloads[0]), indent=2) + "\n"
        # --verbose adds its summary on stderr and leaves stdout as it is
        assert main([argv[0], path, "--verbose", *argv[1:]]) == 0
        verbose = capsys.readouterr()
        assert verbose.out == out
        if argv[0] in ("strata", "blowup-check"):
            assert verbose.err == _verbose_summary(argv, cli.load_problem(path))

    def test_one_vertex_and_empty_enumerations(self, problem, capsys):
        assert main(["enum", problem(ONE_VERTEX)]) == 0
        assert json.loads(capsys.readouterr().out)["multidegrees"] == [[2]]
        assert main(["enum", problem(BRIDGE), "--kind", "stable"]) == 0
        assert json.loads(capsys.readouterr().out)["multidegrees"] == []

    def test_rows_span_several_slices(self, problem, capsys):
        # the ss enumeration above takes more than one slice of rows
        assert main(["enum", problem(K5_DOUBLED), "--kind", "ss"]) == 0
        count = json.loads(capsys.readouterr().out)["count"]
        assert count > 2 * cli._ROW_SLICE


TEXT = st.text(st.sampled_from(["a", "Z", "0", '"', "\\", "/", "%", "\n", "\x00", "é", "€", "😀"]), max_size=5)
SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.integers(-(2**80), 2**80),
    TEXT,
)


@st.composite
def row_lists(draw):
    """A list of nonempty int rows, of one row to a few slices, sometimes
    with a value that is not an int, or a row that is empty or nested, in
    any slice."""
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.sampled_from([1, 2, cli._ROW_SLICE, cli._ROW_SLICE + 1, 600]))
    width = draw(st.integers(1, 4))
    rows = [[rng.randint(-12, 12) for _ in range(width)] for _ in range(count)]
    if draw(st.booleans()):
        odd = draw(st.one_of(SCALARS, st.floats(), st.just([]), st.just([[1]])))
        rows[rng.randrange(count)][rng.randrange(width)] = odd
    if draw(st.booleans()):
        rows[rng.randrange(count)] = draw(st.sampled_from([[], [[1, 2]], "row"]))
    return rows


# field sizes of 1, 2 and 4 bytes: code counts up to 256, up to 65,536
# and past it, made by the first vertex's box width
FIELD_WIDTHS = {1: 1, 2: 300, 4: 65_600}
LOWS = [-(2**70), -(2**64), -3, 0, 7, 2**64, 2**70]


def _layout(rng, width, size):
    """A layout of ``width`` vertices whose low ends come from ``LOWS`` and
    whose fields take ``size`` bytes."""
    lo = [rng.choice(LOWS) for _ in range(width)]
    wide = [FIELD_WIDTHS[size]] + [rng.randint(1, 4) for _ in range(width - 1)]
    layout = _kernel.Layout.of(lo, [a + w - 1 for a, w in zip(lo, wide)])
    assert layout.size == size
    return layout


def _rows(rng, layout, count):
    """``count`` packed rows drawn from the box of ``layout``."""
    rows = [[rng.randint(a, b) for a, b in zip(layout.lo, layout.hi)] for _ in range(count)]
    return list(map(layout.pack, rows))


def _packed(rng, layout, count):
    """A ``_PackedRows`` of ``count`` rows drawn from the box of ``layout``."""
    return cli._PackedRows(layout, _rows(rng, layout, count))


@st.composite
def packed_columns(draw, count):
    """A ``_PackedColumn`` of ``count`` table rows in one layout of 1-, 2-
    or 4-byte fields, one to three values a multidegree: each row empty,
    one multidegree or a few slices of them, or every row empty."""
    rng = draw(st.randoms(use_true_random=False))
    layout = _layout(rng, draw(st.integers(1, 3)), draw(st.sampled_from([1, 1, 1, 2, 4])))
    sizes = draw(st.sampled_from([[0], [0, 1, 3, cli._ROW_SLICE + 1]]))
    return cli._PackedColumn(layout, [_rows(rng, layout, rng.choice(sizes)) for _ in range(count)])


def _unpacked(obj):
    """``obj`` with every ``_PackedRows`` in it as its value tuples, and
    every ``_Table`` as its list of rows."""
    if type(obj) is cli._Table:
        return [dict(zip(obj, row)) for row in zip(*map(_unpacked, obj.values()))]
    if type(obj) is cli._PackedColumn:
        return [obj.layout.unpack(rows) for rows in obj]
    if type(obj) is cli._PackedRows:
        return obj.layout.unpack(obj)
    if isinstance(obj, dict):
        return {k: _unpacked(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_unpacked(x) for x in obj]
    return obj


# the values of a plain column
VALUES = [
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.lists(TEXT, max_size=3),
    st.lists(TEXT, max_size=3).map(tuple),
]


def _columns(count):
    """A strategy of columns of ``count`` rows: ints, bools, lists or tuples
    of strings, or a ``_PackedColumn``."""
    plain = st.sampled_from(VALUES).flatmap(
        lambda values: st.lists(values, min_size=count, max_size=count)
    )
    return st.one_of(plain, packed_columns(count))


@st.composite
def table_lists(draw):
    """A ``_Table`` of no row to a few, with one to four keys, each holding
    a column of ints, bools, lists or tuples of strings, or a
    ``_PackedColumn``."""
    keys = draw(st.lists(TEXT, min_size=1, max_size=4, unique=True))
    count = draw(st.integers(0, 3))
    return cli._Table({k: draw(_columns(count)) for k in keys})


PAYLOADS = st.recursive(
    st.one_of(SCALARS, row_lists(), table_lists()),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(TEXT, inner, max_size=4)
    ),
    max_leaves=6,
)


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(PAYLOADS)
@example([[1, 2]] * (cli._ROW_SLICE + 10) + [[3, "x"]])
@example([[1]] * (cli._ROW_SLICE + 1) + [[True]])
@example({"rows": [[-(2**70)]], "é\"\\": {}, "": [], "n": None, "t": [True, False]})
@example({"t": True, "f": False, "z": 0, "o": 1, "l": [True, 0, False, 1]})
@example([", ", "], [", '"', "\\", '\\"', "é€😀", "\n", ""])
@example(
    {
        "a": [[], {}, cli._PackedRows(_kernel.Layout.of([0], [1]))],
        "b": {"c": {"d": [], "e": {}, "f": cli._PackedRows(_kernel.Layout.of([0], [9]))}},
    }
)
# a plain list of ints alone or of strings alone takes one template; a bool is not an int
@example([True, 1])
@example([1, True])
@example(["a", 1])
@example([2**70, -1, 0])
@example(["é\"\\", ""])
@example(
    {
        "rows": cli._Table(
            stratum=[("e0", "e1"), ()],
            codimension=[2, 0],
            connected=[False, False],
            expected_count=[0, 0],
            multidegrees=cli._PackedColumn(_kernel.Layout.of([0, 0], [1, 1]), [[], []]),
        )
    }
)
@example([cli._Table(a=[], b=cli._PackedColumn(_kernel.Layout.of([0], [1]), []))])
@example(
    cli._Table(
        {
            "%d": [0, 1, 2],
            "%s": [False, True, True],
            "é\"\\": [["e%", "\x00"][:k] for k in range(3)],
            "m": cli._PackedColumn(
                _kernel.Layout.of([-1, 0], [2, 5]),
                [_rows(random.Random(k), _kernel.Layout.of([-1, 0], [2, 5]), k) for k in range(3)],
            ),
        }
    )
)
def test_writer_matches_json_dumps(obj):
    out = io.StringIO()
    cli._write_json(out.write, obj, "")
    assert out.getvalue() == json.dumps(_unpacked(obj), indent=2)


def test_trusted_rows_match_json_dumps():
    # the enumeration's rows reach the writer packed, unchecked: 1-, 2- and
    # 4-byte fields, low ends up to 2**70 in size, and row counts at the
    # slice edges
    rng = random.Random(7)
    for count in (0, 1, 2, cli._ROW_SLICE, cli._ROW_SLICE + 1, 600):
        for width, size in product((1, 2, 5), (1, 2, 4)):
            rows = _packed(rng, _layout(rng, width, size), count)
            payload = {"count": count, "multidegrees": rows, "tail": [rows]}
            out = io.StringIO()
            cli._write_json(out.write, payload, "")
            assert out.getvalue() == json.dumps(_unpacked(payload), indent=2), (count, width)


# -- fuzzed problem files ------------------------------------------------------

NAMES = ["a", "b", "c", "d", "e", "f"]
JUNK = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(-3, 3),
        st.floats(-2, 2, width=16),
        st.sampled_from(["a", "e0", "x", "", "1/2", "-1/3", "1/0", "p/q"]),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=3),
        st.dictionaries(
            st.sampled_from(["name", "id", "endpoints", "genus", "a"]), inner, max_size=3
        ),
    ),
    max_leaves=5,
)
RATIONAL_VALUES = [0, 1, -1, 2, "1/2", "-1/2", "1/3", "2/3", "3/4"]


def _sometimes_junk(strategy):
    """The strategy, or about one time in ten junk of any JSON type."""
    return st.sampled_from([strategy] * 9 + [JUNK]).flatmap(lambda s: s)


@st.composite
def problem_files(draw):
    """Mostly well-formed problem files on at most six vertices and four
    edges, with junk of any JSON type swapped in for some fields."""
    names = draw(st.lists(st.sampled_from(NAMES), max_size=6, unique=True))
    name = st.sampled_from(names) if names else st.just("a")
    vertices = [
        draw(_sometimes_junk(st.one_of(st.just(v), st.just({"name": v, "genus": 1}))))
        for v in names
    ]
    edges = []
    for k in range(draw(st.integers(0, 4))):
        edge = {"endpoints": draw(_sometimes_junk(st.lists(name, min_size=2, max_size=2)))}
        if draw(st.booleans()):
            edge["id"] = draw(_sometimes_junk(st.sampled_from(["x", "y", f"e{k}"])))
        edges.append(draw(_sometimes_junk(st.just(edge))))
    data = {"vertices": draw(_sometimes_junk(st.just(vertices))), "edges": edges}
    if draw(st.integers(0, 4)):
        pol = {v: draw(_sometimes_junk(st.sampled_from(RATIONAL_VALUES))) for v in names}
        values = [Fraction(x) for x in pol.values() if x in RATIONAL_VALUES]
        if names and len(values) == len(names) and draw(st.booleans()):
            # round the total off to an integer through the last vertex
            last = Fraction(pol[names[-1]]) - sum(values) % 1
            pol[names[-1]] = f"{last.numerator}/{last.denominator}"
        data["polarization"] = draw(_sometimes_junk(st.just(pol)))
    if draw(st.booleans()):
        data["basepoint"] = draw(_sometimes_junk(name))
    if draw(st.booleans()):
        ids = [
            e.get("id", f"e{k}") if isinstance(e, dict) else "e0" for k, e in enumerate(edges)
        ]
        stratum = st.lists(st.sampled_from(ids), max_size=2) if ids else st.just([])
        data["stratum"] = draw(_sometimes_junk(stratum))
    return draw(_sometimes_junk(st.just(data)))


COMMANDS = st.one_of(
    st.just(["complexity"]),
    st.sampled_from(["ss", "qs", "stable"]).map(lambda k: ["enum", "--kind", k]),
    st.lists(st.integers(-4, 4), min_size=1, max_size=6).map(
        lambda ds: ["reduce", "--multidegree", ",".join(map(str, ds))]
    ),
    st.just(["check-pol"]),
    st.sampled_from(["0", "1", "-1"]).map(lambda c: ["strata", "--max-codim", c]),
    st.just(["strata"]),
    st.just(["blowup-check"]),
)


@settings(max_examples=150, deadline=None, database=None, derandomize=True)
@given(data=problem_files(), command=COMMANDS)
def test_fuzzed_problem_files_exit_cleanly(data, command):
    """Any problem file gives a report (0), a usage error (2) or a domain
    error (3); never a traceback."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "problem.json")
        with open(path, "w") as fh:
            json.dump(data, fh)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = main([command[0], path, *command[1:]])
    assert rc in (0, 2, 3), err.getvalue()
    if rc == 0:
        json.loads(out.getvalue())


# -- the loader against the one it replaced --------------------------------------


def _loaded(load, path, basepoint_flag=None, stratum_flag=None):
    """What ``load`` makes of a file: its error message, or the parts of
    the problem."""
    try:
        p = load(path, basepoint_flag=basepoint_flag, stratum_flag=stratum_flag)
    except cli.ProblemFileError as exc:
        return "error", str(exc)
    g, q = p.graph, p.polarization
    return (
        g.vertices,
        [(type(e), e.id, e.u, e.v) for e in g.edges],
        g._pairs,
        g._genus,
        None if q is None else [(type(x), x) for x in q.values],
        p.basepoint,
        p.stratum,
    )


def _rational_text(rng, x: Fraction):
    """``x`` as a JSON int or a "p/q" string with a sign, leading zeros or
    spaces, sometimes not in lowest terms."""
    if x.denominator == 1 and rng.random() < 0.3:
        return int(x)
    k = rng.choice([1, 1, 2, 3])
    num, den = abs(x.numerator) * k, x.denominator * k
    sign = "-" if x < 0 else rng.choice(["", "", "+"])
    zeros = "0" * rng.choice([0, 0, 1, 2])
    text = f"{sign}{zeros}{num}" + ("" if den == 1 and rng.random() < 0.5 else f"/{zeros}{den}")
    return rng.choice(["", " "]) + text + rng.choice(["", "  "])


def perfbench_shaped(rng):
    """A problem file like perfbench's: bare and genus vertices, explicit
    and default edge ids, loops and parallel edges, rationals written in
    every way the grammar allows, and now and then one fault."""
    names = [f"v{i}" for i in range(rng.randint(1, 14))]
    rng.shuffle(names)
    vertices = [
        {"name": v, "genus": rng.randint(1, 2)} if rng.random() < 0.2 else v for v in names
    ]
    edges = []
    for k in range(rng.randint(0, 2 * len(names))):
        edge = {"endpoints": [rng.choice(names), rng.choice(names)]}
        if rng.random() < 0.7:
            edge["id"] = rng.choice([f"x{k}"] * 12 + [f"e{k}", f"e{k + 1}"])
        edges.append(edge)
    values = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6])) for _ in names]
    if rng.random() < 0.9:
        values[-1] -= sum(values) % 1  # an integer total
    data = {
        "vertices": vertices,
        "edges": edges,
        "polarization": {v: _rational_text(rng, x) for v, x in zip(names, values)},
    }
    if rng.random() < 0.5:
        data["basepoint"] = rng.choice(names)
    if edges and rng.random() < 0.5:
        ids = [e.get("id", f"e{k}") for k, e in enumerate(edges)]
        data["stratum"] = rng.sample(ids, rng.randint(0, min(2, len(ids))))
    if rng.random() < 0.15:
        fault = rng.choice(
            [
                ("vertices", vertices + [True]),
                ("vertices", vertices + [{"name": names[0]}]),
                ("edges", edges + [{"endpoints": [names[0], ["x"]]}]),
                ("edges", edges + [{"endpoints": [{"a": 1}, names[0]]}]),
                ("edges", edges + [{"endpoints": [names[0]], "id": 7}]),
                ("polarization", dict(data["polarization"], **{names[0]: "1/00"})),
                ("polarization", dict(data["polarization"], **{names[0]: True})),
                ("stratum", ["zz", "zz"]),
            ]
        )
        data[fault[0]] = fault[1]
    return data


class TestLoaderAgainstReference:
    """The one-pass loader gives what the loader it replaced gave: the same
    problem, or the same message."""

    def _same(self, path, *flags):
        got = _loaded(cli.load_problem, path, *flags)
        assert got == _loaded(oracles.load_problem_reference, path, *flags)
        return got

    @settings(max_examples=150, deadline=None, database=None, derandomize=True)
    @given(
        data=problem_files(),
        basepoint=st.none() | st.sampled_from(NAMES + ["zz"]),
        stratum=st.none() | st.lists(st.sampled_from(["x", "y", "e0", "e1", "zz"]), max_size=3),
    )
    def test_fuzzed_files(self, data, basepoint, stratum):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "problem.json")
            with open(path, "w") as fh:
                json.dump(data, fh)
            self._same(path)
            self._same(path, basepoint, stratum)

    @pytest.mark.parametrize("command, data, message", MULTI_FAULT_FILES)
    def test_multi_fault_files(self, problem, command, data, message):
        assert self._same(problem(data)) == ("error", message)

    def test_perfbench_shaped_files(self, problem):
        rng = random.Random(28)
        outcomes = set()
        for _ in range(400):
            got = self._same(problem(perfbench_shaped(rng)))
            outcomes.add(got[1] if got[0] == "error" else "loaded")
        # most files load; each kind of fault shows up
        assert "loaded" in outcomes and len(outcomes) > 8, outcomes


class TestCliBenchScript:
    def test_one_query_round(self, capsys, tmp_path):
        # benchmarks/bench_cli.py runs the steps of main one by one, so a
        # change to them that it misses fails here
        path = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_cli.py"
        spec = importlib.util.spec_from_file_location("bench_cli", path)
        bench = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(bench)
        out = tmp_path / "bench.json"
        argv = ["--workload", "query", "--rounds", "1", "--repeat", "1", "--json", str(out)]
        assert bench.main(argv) == 0
        head, columns, *rows, probe = capsys.readouterr().out.splitlines()
        kernel = _kernel.implementation_name()
        assert head == f"query, seed 3, rounds 0-0, best of 1, {kernel} kernel (ms)"
        assert columns.split() == ["command", "requests", *bench.PHASES, "total"]
        counts = {row.split()[0]: int(row.split()[1]) for row in rows}
        # a query round: three variants of four reductions, fourteen complexity graphs
        assert counts == {"reduce": 12, "complexity": 14, "all": 26}
        record = json.loads(out.read_text())
        assert {k: record[k] for k in ("workload", "kernel", "seed", "rounds", "repeat")} == {
            "workload": "query", "kernel": kernel, "seed": 3, "rounds": 1, "repeat": 1
        }
        assert record["python"] and "commit" in record
        # the median time of the probe run before each request
        assert record["probe_ms"] > 0 and probe == f"median probe {record['probe_ms']:.2f} ms"
        for command, row in record["ms"].items():
            assert row["requests"] == counts[command]
            assert row["total"] == pytest.approx(sum(row[p] for p in bench.PHASES))
            # the printed cells are the record's, to two places
            assert [f"{row[p]:.2f}" for p in (*bench.PHASES, "total")] == next(
                r.split()[2:] for r in rows if r.split()[0] == command
            )

    SCRIPT = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_cli.py"

    def _run(self, *argv):
        # a fresh process, as --ext replaces the imported jacgraph
        return subprocess.run(
            [sys.executable, str(self.SCRIPT), "--rounds", "1", "--repeat", "1", *argv],
            capture_output=True, text=True,
        )

    def test_ext_that_does_not_load(self, tmp_path):
        src = self.SCRIPT.parent.parent / "src" / "jacgraph"
        if any((src / f"_speedups{suffix}").exists() for suffix in EXTENSION_SUFFIXES):
            pytest.skip("src/ holds a built extension, which loads whatever --ext names")
        run = self._run("--ext", str(tmp_path))
        assert run.returncode == 2, run.stderr
        assert run.stdout == ""
        assert run.stderr == f"--ext {tmp_path}: the compiled kernel did not load from it\n"

    @pytest.mark.skipif(not _kernel.HAVE_SPEEDUPS, reason="compiled kernel not built")
    def test_ext_loads_the_compiled_kernel(self):
        run = self._run("--ext", str(Path(_kernel._speedups.__file__).parent))
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines()[0] == (
            "query, seed 3, rounds 0-0, best of 1, compiled kernel (ms)"
        )
