"""Command line interface.

Problem files are JSON objects:

    {
      "vertices": [{"name": "u", "genus": 1}, {"name": "v"}],
      "edges": [{"id": "e0", "endpoints": ["u", "v"]},
                {"endpoints": ["u", "v"]}],
      "polarization": {"u": "1/2", "v": "1/2"},
      "basepoint": "u",
      "stratum": ["e0"]
    }

Vertices may be given as bare names; genus defaults to 0.  Edge ids
default to "e0", "e1", ... in file order.  Rationals are written as
"p/q" strings or integer literals; floats are rejected.  Results are
JSON on stdout; --verbose adds a human summary on stderr.

Exit codes: 0 success, 2 bad usage or problem file, 3 domain errors
raised while computing (disconnected graph where forbidden, guard
limits, ...).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
from fractions import Fraction
from itertools import accumulate, chain, pairwise
from typing import NamedTuple

from .errors import DisconnectedGraphError, EmptyGraphError, JacGraphError
from .graph import Edge, Multigraph
from .lattice import Cochain, complexity, laplacian_apply, picard_group
from .polarization import Polarization, _text_fraction
from .quasistable import StratumContext

KIND_NAMES = {"ss": "semistable", "qs": "quasistable", "stable": "stable"}

# integers as text: ASCII digits only, unlike int(), which also reads "1_0"
# and non-ASCII digits; rationals follow polarization._RATIONAL
_INTEGER = re.compile(r"[+-]?[0-9]+")


class ProblemFileError(Exception):
    """Anything wrong with the problem file or the request itself."""


def _ascii_int(text: str) -> int:
    if not _INTEGER.fullmatch(text.strip()):
        raise ValueError(f"not an integer: {text!r}")
    return int(text)


_ascii_int.__name__ = "int"  # argparse names the type in its message


def parse_rational(value) -> Fraction:
    # json yields exact types, and a bool is not an int here
    if type(value) is int:
        return Fraction(value)
    if type(value) is str:
        if (parsed := _text_fraction(value)) is not None:
            return parsed
        raise ProblemFileError(f"cannot parse rational {value!r}")
    if type(value) is float:
        raise ProblemFileError(f'float {value!r} rejected; write rationals as "p/q" strings')
    raise ProblemFileError(f"not a rational: {value!r}")


class Problem(NamedTuple):
    graph: Multigraph
    polarization: Polarization | None
    basepoint: str
    stratum: frozenset


def load_problem(path: str, basepoint_flag=None, stratum_flag=None) -> Problem:
    """The problem in the file at ``path``, checked in one pass.  The file
    is read as bytes and decoded as UTF-8, whatever the locale, with no
    byte order mark skipped: a UTF-8 file with one, or a UTF-16 file, is
    invalid JSON.  ``json`` yields exact types, so every entry is checked
    by ``type(x) is ...``, which also keeps a bool from passing for an int."""
    try:
        fd = os.open(path, os.O_RDONLY)  # fewer system calls than a file object
        try:
            chunks = []
            while chunk := os.read(fd, 1 << 20):
                chunks.append(chunk)
        except IsADirectoryError as exc:
            exc.filename = path  # as open() names it; os.read does not
            raise
        finally:
            os.close(fd)
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    raw = b"".join(chunks)
    try:
        text = raw.decode("utf-8")
        if "\r" in text:  # newlines as text mode reads them, which error positions count
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad JSON, bad UTF-8, deep nesting
        raise ProblemFileError(f"invalid JSON in {path}: {exc}") from exc
    if type(data) is not dict:
        raise ProblemFileError("problem file must be a JSON object")

    raw_vertices = data.get("vertices")
    if type(raw_vertices) is not list:
        raise ProblemFileError("'vertices' must be a list")
    pos, genus = {}, {}
    for entry in raw_vertices:
        if type(entry) is str:
            name, gv = entry, 0
        elif type(entry) is dict and type(name := entry.get("name")) is str:
            gv = entry.get("genus", 0)
            if type(gv) is not int or gv < 0:
                raise ProblemFileError(f"genus of {name!r} must be a nonnegative integer")
        else:
            raise ProblemFileError(f"cannot interpret vertex entry {entry!r}")
        if name in pos:
            raise ProblemFileError(f"duplicate vertex name {name!r}")
        pos[name], genus[name] = len(pos), gv

    raw_edges = data.get("edges", [])
    if type(raw_edges) is not list:
        raise ProblemFileError("'edges' must be a list")
    by_id, pairs, explicit, new = {}, [], None, tuple.__new__
    for k, entry in enumerate(raw_edges):
        if type(entry) is not dict or "endpoints" not in entry:
            raise ProblemFileError(f"cannot interpret edge entry {entry!r}")
        ends = entry["endpoints"]
        if type(ends) is not list or len(ends) != 2:
            raise ProblemFileError(f"edge {k} needs exactly two endpoints")
        u, v = ends
        try:
            a, b = pos.get(u), pos.get(v)
        except TypeError:  # a list or an object; only a string names a vertex
            a, b = pos.get(u) if type(u) is str else None, None
        if a is None or b is None:
            raise ProblemFileError(f"edge {k} endpoint {u if a is None else v!r} is not a vertex")
        eid = entry.get("id")
        if eid is None:
            eid = f"e{k}"
            if explicit is None:  # the ids given anywhere in the file
                ids = (e.get("id") for e in raw_edges if type(e) is dict)
                explicit = {x for x in ids if type(x) is str}
            if eid in explicit:
                raise ProblemFileError(f"default id {eid!r} collides with an explicit edge id")
        elif type(eid) is not str:
            raise ProblemFileError(f"edge id {eid!r} must be a string")
        by_id[eid] = new(Edge, (eid, u, v))  # one tuple, not the namedtuple's __new__
        pairs.append((a, b))
    if len(by_id) != len(pairs):
        raise ProblemFileError("duplicate edge ids")
    graph = Multigraph._of(pos, by_id, tuple(pairs), genus)

    pol = None
    if "polarization" in data:
        raw_pol = data["polarization"]
        if type(raw_pol) is not dict:
            raise ProblemFileError("'polarization' must be an object")
        if unknown := [k for k in raw_pol if k not in pos]:
            raise ProblemFileError(f"polarization names unknown vertices {unknown!r}")
        if len(raw_pol) != len(pos):  # every name is a vertex, so some vertex is missing
            missing = [v for v in pos if v not in raw_pol]
            raise ProblemFileError(f"polarization misses vertices {missing!r}")
        parsed = {k: parse_rational(v) for k, v in raw_pol.items()}  # errors in file order
        pol = Polarization._of(graph, tuple(parsed[v] for v in pos))
        if (fault := pol._total_fault()) is not None:
            raise ProblemFileError(fault)

    basepoint = basepoint_flag if basepoint_flag is not None else data.get("basepoint")
    if basepoint is None and pos:
        basepoint = graph.vertices[0]
    if basepoint is not None and not (type(basepoint) is str and basepoint in pos):
        raise ProblemFileError(f"basepoint {basepoint!r} is not a vertex")

    raw_stratum = stratum_flag if stratum_flag is not None else data.get("stratum", [])
    if stratum_flag is None and type(raw_stratum) is not list:
        raise ProblemFileError("'stratum' must be a list of edge ids")
    if bad := [eid for eid in raw_stratum if type(eid) is not str or eid not in by_id]:
        raise ProblemFileError(f"stratum names unknown edges {bad!r}")
    stratum = frozenset(raw_stratum)
    if len(stratum) != len(raw_stratum):
        raise ProblemFileError("stratum lists an edge twice")

    return Problem(graph, pol, basepoint, stratum)


def _require_polarization(problem: Problem) -> Polarization:
    if problem.polarization is None:
        raise ProblemFileError("this command needs a 'polarization' entry")
    return problem.polarization


def _basepoint(problem: Problem, command: str) -> str:
    """The problem's basepoint, which only a graph without vertices lacks."""
    if problem.basepoint is None:
        raise EmptyGraphError(f"{command} needs at least one vertex")
    return problem.basepoint


def _context(problem: Problem, command: str) -> StratumContext:
    q = _require_polarization(problem)
    return StratumContext(problem.graph, q, _basepoint(problem, command), problem.stratum)


# -- subcommands -------------------------------------------------------------


def cmd_complexity(problem: Problem, args) -> dict:
    g = problem.graph
    if g.num_vertices == 0:
        complexity(g)  # raises the empty-graph error
    try:
        pic = picard_group(g)
    except DisconnectedGraphError as exc:
        c = 0  # a disconnected graph has no spanning tree
        payload = {"complexity": c, "picard": None, "picard_error": str(exc)}
    else:
        # on a connected graph the group's order is the spanning-tree count
        c = pic.order
        payload = {"complexity": c, "picard": list(pic.invariant_factors)}
    if args.verbose:
        print(f"complexity {c}", file=sys.stderr)
    return payload


def cmd_enum(problem: Problem, args) -> dict:
    kind = KIND_NAMES[args.kind]
    ctx = _context(problem, "enum")
    found = _PackedRows(*ctx._packed(kind))
    if args.verbose:
        print(
            f"{len(found)} {kind} multidegrees "
            f"(budget {ctx.budget}, stratum {sorted(ctx.stratum)})",
            file=sys.stderr,
        )
    return {
        "kind": kind,
        "vertices": list(problem.graph.vertices),
        "count": len(found),
        "multidegrees": found,
    }


def cmd_reduce(problem: Problem, args) -> dict:
    ctx = _context(problem, "reduce")
    g = problem.graph
    parts = [p.strip() for p in args.multidegree.split(",")]
    if len(parts) != g.num_vertices:
        raise ProblemFileError(
            f"--multidegree needs {g.num_vertices} integers, got {len(parts)}"
        )
    try:
        values = [_ascii_int(p) for p in parts]
    except ValueError:
        raise ProblemFileError(
            f"--multidegree must be comma-separated integers, got {args.multidegree!r}"
        ) from None
    d = Cochain(g, values)
    report = ctx.reduce_report(d)
    # an exact certificate: output - input is the Laplacian of the potential
    gdel = ctx.deleted_graph
    moved = laplacian_apply(gdel, Cochain._of(gdel, report.potential.values)).values
    checked = moved == tuple(map(int.__sub__, report.output.values, values))
    if args.verbose:
        print(f"reduced in {report.steps} steps", file=sys.stderr)
    return {
        "vertices": list(g.vertices),
        "input": values,
        "output": list(report.output.values),
        "steps": report.steps,
        "class_checked": checked,
    }


def cmd_check_pol(problem: Problem, args) -> dict:
    q = _require_polarization(problem)
    # one scan: the witness is a non-spine whenever an integral one exists
    hit = q.integral_witness()
    general = hit is None
    nondegenerate = general or hit[1]
    witness = None
    if hit is not None:
        W, spine = hit
        witness = {
            "vertices": [v for v in problem.graph.vertices if v in W],
            "is_spine": spine,
        }
    if args.verbose:
        msg = f"general: {'yes' if general else 'no'}"
        msg += f", nondegenerate: {'yes' if nondegenerate else 'no'}"
        if witness:
            kind = "spine" if witness["is_spine"] else "non-spine"
            msg += f" (integral {kind} subset {witness['vertices']})"
        print(msg, file=sys.stderr)
    return {
        "general": general,
        "nondegenerate": nondegenerate,
        "witness": witness,
    }


def cmd_strata(problem: Problem, args) -> dict:
    from .strata import strata_rows

    q = _require_polarization(problem)
    if args.max_codim is not None and args.max_codim < 0:
        raise ProblemFileError(f"--max-codim must be nonnegative, got {args.max_codim}")
    layout, strata, rows, complete, total, subdivided = strata_rows(
        problem.graph, _basepoint(problem, "strata"), q, max_codim=args.max_codim
    )
    if args.verbose:
        print(
            f"{len(strata)} strata, {total} multidegrees"
            + (f", subdivision has {subdivided}" if complete else " (truncated)"),
            file=sys.stderr,
        )
    counts = list(map(len, rows))
    return {
        "vertices": list(problem.graph.vertices),
        "basepoint": problem.basepoint,
        "complete": complete,
        "total_multidegrees": total,
        "subdivided_complexity": subdivided,
        "rows": _Table(
            stratum=strata,
            codimension=list(map(len, strata)),
            connected=list(map(bool, counts)),
            expected_count=counts,
            multidegrees=_PackedColumn(layout, rows),
        ),
    }


def cmd_blowup_check(problem: Problem, args) -> dict:
    from .strata import blowup_rows

    q = _require_polarization(problem)
    g = problem.graph
    sub, layout, strata, rows, expected, total, expected_total = blowup_rows(
        g, _basepoint(problem, "blowup-check"), q
    )
    counts = list(map(len, rows))
    if args.verbose:
        ok = total == expected_total and counts == expected
        print(
            f"total {total}, expected {expected_total}, "
            f"buckets {'consistent' if ok else 'INCONSISTENT'}",
            file=sys.stderr,
        )
    return {
        "vertices": list(g.vertices),
        "subdivided_vertices": list(sub.vertices),
        "exceptional_vertices": dict(zip(g.edge_ids(), sub.vertices[g.num_vertices :])),
        "total": total,
        "expected_total": expected_total,
        "buckets": _Table(
            stratum=strata,
            count=counts,
            expected_count=expected,
            multidegrees=_PackedColumn(layout, rows),
        ),
    }


# -- output ------------------------------------------------------------------

class _PackedRows(list):
    """Multidegrees as ints in ``layout`` (a ``_kernel.Layout``), which the
    writer takes as such unchecked."""

    __slots__ = ("layout",)

    def __init__(self, layout, rows=()):
        super().__init__(rows)
        self.layout = layout


class _PackedColumn(_PackedRows):
    """Per row of a ``_Table``, a list of multidegrees as ints in
    ``layout``, which the writer takes as such unchecked."""

    __slots__ = ()


class _Table(dict):
    """Rows as columns: one or more keys in order, each holding a list
    with one value per row, all of one length, the number of rows.  A
    column holds ints, or bools, or lists or tuples of strings, or it is a
    ``_PackedColumn``; the writer takes each column's type from its first
    value, or from the column for a ``_PackedColumn``, unchecked."""


_ROW_SLICE = 256
_encode_str = json.encoder.encode_basestring_ascii


@functools.cache
def _row_template(width: int, indent: str) -> str:
    """The ``%`` template of an int row of ``width`` values at ``indent``."""
    deep = indent + "  "
    return f"[\n{deep}" + f",\n{deep}".join(["%d"] * width) + f"\n{indent}]"


@functools.lru_cache(maxsize=1)
def _texts(layout, indent: str) -> list[str]:
    """Per code of ``layout``, the text of its value in a row at ``indent``
    with what follows it there: the first field opens the row, each field
    but the last is followed by a comma, and the last closes the row and
    puts the comma before the next one."""
    deep = indent + "  "
    last = len(layout.lo) - 1
    texts = []
    for v, (a, b) in enumerate(zip(layout.lo, layout.hi)):
        head = f"[\n{deep}" if v == 0 else ""
        tail = f"\n{indent}],\n{indent}" if v == last else f",\n{deep}"
        texts += [f"{head}{x}{tail}" for x in range(a, b + 1)]
    return texts


def _packed_rows(layout, rows, indent: str) -> str:
    """The rows of nonempty ``rows`` packed in ``layout`` at ``indent``,
    joined by commas: one table lookup per field."""
    texts = _texts(layout, indent)
    return "".join(map(texts.__getitem__, layout.codes(rows)))[: -len(indent) - 2]


def _table(table: _Table, indent: str) -> str:
    """The text of ``table`` as the list of its rows, starting ``indent``
    spaces in: each key is encoded once, each column formatted whole by its
    type, and the rows are one ``%`` of the row template repeated, on the
    columns' values row after row."""
    inner = indent + "  "
    deep = inner + "  "
    fields, columns = [], []
    for key, column in table.items():
        if not column:
            return "[]"
        kind = type(column[0])
        if type(column) is _PackedColumn:
            # one text table and one code array for the whole column, and
            # each row one join of its slice of the field texts
            layout, at = column.layout, deep + "  "
            look, cut = _texts(layout, at).__getitem__, -len(at) - 2
            texts = list(map(look, layout.codes(chain.from_iterable(column))))
            ends = accumulate(map(len(layout.lo).__mul__, map(len, column)), initial=0)
            column = [
                f"[\n{at}{''.join(texts[a:b])[:cut]}\n{deep}]" if a < b else "[]"
                for a, b in pairwise(ends)
            ]
        elif kind is bool:
            column = list(map(("false", "true").__getitem__, column))
        elif kind is not int:
            # strings that are their own text in quotes (edge ids) join as they are
            quote = '"'
            if not all(_encode_str(x) == f'"{x}"' for x in {*chain.from_iterable(column)}):
                column, quote = [list(map(_encode_str, v)) for v in column], ""
            sep = f"{quote},\n{deep}  {quote}"
            column = [
                f"[\n{deep}  {quote}{sep.join(v)}{quote}\n{deep}]" if v else "[]"
                for v in column
            ]
        fields.append(_encode_str(key).replace("%", "%%") + (": %d" if kind is int else ": %s"))
        columns.append(column)
    template = f"{{\n{deep}" + f",\n{deep}".join(fields) + f"\n{inner}}}"
    text = f",\n{inner}".join([template] * len(column)) % tuple(chain.from_iterable(zip(*columns)))
    return f"[\n{inner}{text}\n{indent}]"


def _write_json(write, obj, indent: str):
    """Write ``json.dumps(obj, indent=2)`` piece by piece, for a value that
    starts ``indent`` spaces in, a ``_Table`` as the list of its rows.
    ``json`` turns its C encoder off for an indent, so a ``_Table`` or a
    nonempty ``_PackedRows`` is laid out by the templates and text tables
    above, unchecked, and written at once or a slice of rows at a time; a
    list of ints alone (a bool is not one)
    takes the row template and a list of strings alone one join; other
    lists and dicts with string keys are walked here, and what is left goes
    to ``json.dumps`` itself."""
    if type(obj) is _Table:
        write(_table(obj, indent))
    elif isinstance(obj, (list, tuple)) or isinstance(obj, dict) and {*map(type, obj)} <= {str}:
        if not obj:
            write("{}" if isinstance(obj, dict) else "[]")
            return
        inner = indent + "  "
        sep = "\n" + inner
        if type(obj) is _PackedRows:
            for start in range(0, len(obj), _ROW_SLICE):
                rows = _packed_rows(obj.layout, obj[start : start + _ROW_SLICE], inner)
                write(f"{',' if start else '['}{sep}{rows}")
            write(f"\n{indent}]")
        elif isinstance(obj, dict):
            write("{")
            for k, v in obj.items():
                write(f"{sep}{_encode_str(k)}: ")
                _write_json(write, v, inner)
                sep = ",\n" + inner
            write(f"\n{indent}}}")
        elif (kinds := {*map(type, obj)}) == {int}:
            write(_row_template(len(obj), indent) % tuple(obj))
        elif kinds == {str}:
            write(f"[{sep}" + f",{sep}".join(map(_encode_str, obj)) + f"\n{indent}]")
        else:
            write("[")
            for x in obj:
                write(sep)
                _write_json(write, x, inner)
                sep = ",\n" + inner
            write(f"\n{indent}]")
    elif isinstance(obj, str):
        write(_encode_str(obj))
    elif obj is None:
        write("null")
    elif obj is True or obj is False:
        write("true" if obj else "false")
    elif isinstance(obj, int):
        write(int.__repr__(obj))
    else:
        write(json.dumps(obj, indent=2).replace("\n", "\n" + indent))


# -- wiring ------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="jacgraph",
        description="Multidegree stability, degree class groups and strata "
        "for vertex-weighted multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, stratum=False, basepoint=False):
        p.add_argument("file", help="problem file (JSON)")
        p.add_argument("--verbose", action="store_true", help="summary on stderr")
        if stratum:
            p.add_argument(
                "--stratum",
                help="comma-separated edge ids, overriding the file",
            )
        if basepoint:
            p.add_argument("--basepoint", help="vertex name, overriding the file")

    p = sub.add_parser("complexity", help="spanning-tree count and degree class group")
    common(p)

    p = sub.add_parser("enum", help="list multidegrees of a given kind")
    common(p, stratum=True, basepoint=True)
    p.add_argument(
        "--kind",
        choices=sorted(KIND_NAMES),
        default="qs",
        help="ss=semistable, qs=quasistable (default), stable",
    )

    p = sub.add_parser("reduce", help="reduce a multidegree to the quasistable representative")
    common(p, stratum=True, basepoint=True)
    p.add_argument(
        "--multidegree",
        required=True,
        help="comma-separated integers in vertex order",
    )

    p = sub.add_parser("check-pol", help="classify the polarization")
    common(p)

    p = sub.add_parser("strata", help="stratum-by-stratum report")
    common(p, basepoint=True)
    p.add_argument("--max-codim", type=_ascii_int, default=None, help="truncate the report")

    p = sub.add_parser("blowup-check", help="subdivision decomposition consistency")
    common(p, basepoint=True)

    return parser


def _join_negative_multidegree(argv: list) -> list:
    """``--multidegree -3,4`` as ``--multidegree=-3,4``: argparse would
    take the leading minus of the value for the start of a flag."""
    out = []
    for tok in argv:
        if out and out[-1] == "--multidegree" and tok[:1] == "-" and tok[1:2].isdigit():
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def _parse_argv(argv: list) -> argparse.Namespace:
    """``_parser().parse_args`` of ``argv`` in one pass where it can be:
    when ``argv[0]`` names a command, that command's subparser reads the
    rest, as the top-level parser would hand it over, and ``command`` is
    set.  The top-level parser runs only when there is no command to read
    or when the subparser leaves arguments it does not know, so every
    usage, error and help text, and every exit code, is its own."""
    argv = _join_negative_multidegree(argv)
    parser = _parser()
    if argv:
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        if (sub := commands.choices.get(argv[0])) is not None:
            args, extra = sub.parse_known_args(argv[1:])
            if not extra:
                args.command = argv[0]
                return args
    return parser.parse_args(argv)


def main(argv=None) -> int:
    """Run one command on ``argv`` (``sys.argv[1:]`` by default) and return
    its exit code.  The command's own subparser reads its arguments; the
    top-level parser runs only when ``argv`` is empty, when its first word
    is not a command (``-h``, an unknown name) or when the subparser leaves
    arguments it does not know, and then prints its usage, error or help
    and exits.  The problem file is read as UTF-8."""
    args = _parse_argv(sys.argv[1:] if argv is None else argv)
    # looked up per call rather than bound into the cached parser, so a
    # handler replaced on this module (by a profiler, say) is the one run
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        stratum_flag = None
        if getattr(args, "stratum", None) is not None:
            stratum_flag = [s for s in args.stratum.split(",") if s]
        problem = load_problem(
            args.file,
            basepoint_flag=getattr(args, "basepoint", None),
            stratum_flag=stratum_flag,
        )
        payload = handler(problem, args)
    except ProblemFileError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JacGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    write = sys.stdout.write
    _write_json(write, payload, "")
    write("\n")
    return 0


def _process_main() -> int:
    """``main()`` for a process of its own: a reader that closes stdout
    early (``| head``) ends it with status 1 and no traceback."""
    try:
        status = main()
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit; let that go nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


def entry_point():  # pragma: no cover - console script shim
    raise SystemExit(_process_main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_process_main())
