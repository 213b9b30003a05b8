"""The result records are immutable named tuples; their field names and
order, defaults, ``repr`` text and methods are part of the public API."""

import pytest

from jacgraph import (
    BlowupBucket,
    BlowupDecomposition,
    Cochain,
    DefectReport,
    PicardGroup,
    PushforwardDegrees,
    ReduceReport,
    StrataReport,
    StratumRow,
    picard_group,
    pushforward_multidegree,
)
from jacgraph.cli import Problem

RECORDS = {
    DefectReport: (
        "max_excess",
        "max_deficit",
        "excess_core",
        "deficit_core",
        "basepoint_deficit_core",
    ),
    ReduceReport: ("output", "steps", "potential"),
    PicardGroup: ("invariant_factors", "order"),
    StratumRow: ("stratum", "codimension", "connected", "expected_count", "multidegrees"),
    StrataReport: (
        "graph",
        "basepoint",
        "rows",
        "complete",
        "total_multidegrees",
        "subdivided_complexity",
    ),
    PushforwardDegrees: ("graph", "stratum", "vertex_degrees", "total"),
    BlowupBucket: ("stratum", "count", "expected_count", "multidegrees"),
    BlowupDecomposition: (
        "graph",
        "subdivided_graph",
        "basepoint",
        "exceptional_vertices",
        "total",
        "expected_total",
        "buckets",
    ),
    Problem: ("graph", "polarization", "basepoint", "stratum"),
}


def _values(fields):
    """Distinct stand-in values, one per field."""
    return tuple((k, f"v{k}") for k in range(len(fields)))


@pytest.mark.parametrize("cls", list(RECORDS), ids=lambda c: c.__name__)
class TestRecordContract:
    def test_fields_in_order(self, cls):
        assert cls._fields == RECORDS[cls]

    def test_positional_and_keyword_construction(self, cls):
        fields = RECORDS[cls]
        values = _values(fields)
        by_position = cls(*values)
        by_keyword = cls(**dict(zip(fields, values)))
        assert by_position == by_keyword
        for name, value in zip(fields, values):
            # by name: BlowupBucket.count shadows tuple.count
            assert getattr(by_position, name) == value

    def test_repr_names_every_field(self, cls):
        fields = RECORDS[cls]
        values = _values(fields)
        listed = ", ".join(f"{f}={v!r}" for f, v in zip(fields, values))
        assert repr(cls(*values)) == f"{cls.__name__}({listed})"

    def test_fields_cannot_be_assigned(self, cls):
        record = cls(*_values(RECORDS[cls]))
        for name in RECORDS[cls]:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)

    def test_no_field_defaults_but_the_potential(self, cls):
        expected = {"potential": None} if cls is ReduceReport else {}
        assert cls._field_defaults == expected


def test_reduce_report_potential_defaults_to_none():
    report = ReduceReport("output", 3)
    assert report.potential is None
    assert report == ReduceReport(output="output", steps=3, potential=None)


def test_picard_group_repr_and_str(banana, triangle, path2):
    group = picard_group(banana)
    assert repr(group) == "PicardGroup(invariant_factors=(2,), order=2)"
    assert str(group) == "Z/2"
    assert str(picard_group(triangle)) == "Z/3"
    assert str(picard_group(path2)) == "trivial"
    assert str(PicardGroup((2, 4), 8)) == "Z/2 x Z/4"


def test_blowup_bucket_count_is_the_field():
    bucket = BlowupBucket(stratum=("e0",), count=5, expected_count=5, multidegrees=())
    assert bucket.count == 5
    assert bucket._replace(count=6).count == 6


def test_pushforward_degree_of(dumbbell):
    # the loop at x is in the stratum: x gains one, and so does every subset
    # holding both ends of a non-loop stratum edge
    d = Cochain(dumbbell, (0, 1))
    push = pushforward_multidegree(dumbbell, ["e0", "e1"], d)
    assert push.vertex_degrees.values == (1, 1)
    assert push.total == 3
    assert push.degree_of(["x"]) == 1
    assert push.degree_of(["y"]) == 1
    assert push.degree_of(["x", "y"]) == 3
    assert push.degree_of([]) == 0
