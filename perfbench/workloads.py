"""Seeded CLI request streams for the benchmark, and the checks on their answers.

A workload is a sequence of rounds.  Every round replays the same list of
request templates (family, size, polarization type, command) on freshly
generated problem files, so each round costs about the same and no two
requests read the same file twice, except the reduction pool in ``query``,
whose quasistable sets are computed once as the reference.  Inputs come
only from the workload seed and the round number (the reductions of
``query`` from the round number alone, see ``Query.round``).

Every check lives here and is computed by the benchmark itself: Kirchhoff
determinants over ``Fraction``, subset counts, adjusted totals.  The one
reference taken from the program is the quasistable set of each reduction
problem, and its size is checked against the Kirchhoff count first.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction
from itertools import combinations
from math import comb, prod
from pathlib import Path

from bench_kernel import chorded_cycle

KIND_NAMES = {"ss": "semistable", "qs": "quasistable", "stable": "stable"}

WHY = {
    "enumerate": (
        "With the pure kernel, table build and box search take nearly all "
        "of enum; graph, polarization and strata do almost nothing. A "
        "faster kernel shows here; an integer stratum sweep should not move it."
    ),
    "sweep": (
        "strata, blowup-check and check-pol cost per-subset graph objects, "
        "Fractions and per-stratum complexity; the kernel sees many tiny "
        "calls. An integer sweep shows here; enumerate should not move."
    ),
    "query": (
        "reduce makes tens of defect scans over one cached table instead of "
        "one box search, and complexity runs Bareiss and Smith form: min-cut "
        "reduction shows here, and a box-search-only kernel gain does not."
    ),
}


# -- graph families ------------------------------------------------------
#
# A graph is (names, edges, genus) with edges as (id, u, v) triples.


def _from_multigraph(g):
    return list(g.vertices), [(e.id, e.u, e.v) for e in g.edges], {}


def chorded(n):
    """The chorded cycle of ``benchmarks/bench_kernel.py``."""
    return _from_multigraph(chorded_cycle(n))


def banana_chain(k):
    """k vertices in a row, consecutive ones joined by two parallel edges."""
    names = [f"b{i}" for i in range(k)]
    edges = []
    for i in range(k - 1):
        edges += [(names[i], names[i + 1])] * 2
    return names, [(f"e{j}", u, v) for j, (u, v) in enumerate(edges)], {}


def complete_multigraph(n, mult):
    """K_n with every edge repeated ``mult`` times."""
    names = [f"k{i}" for i in range(n)]
    pairs = [(a, b) for a, b in combinations(names, 2) for _ in range(mult)]
    return names, [(f"e{j}", u, v) for j, (u, v) in enumerate(pairs)], {}


def fixed_multigraph(n, m, loops):
    """A connected random multigraph: a spanning tree, then random (possibly
    parallel) edges up to m - loops, then ``loops`` loops; genus 0 or 1.
    Its structure depends only on (n, m, loops), so that a template's
    output size is the same for every seed."""
    rng = random.Random(f"multigraph-{n}-{m}-{loops}")
    names = [f"v{i}" for i in range(n)]
    pairs = [(names[rng.randrange(i)], names[i]) for i in range(1, n)]
    while len(pairs) < m - loops:
        pairs.append(tuple(rng.sample(names, 2)))
    pairs += [(v, v) for v in rng.sample(names, loops)]
    genus = {v: rng.choice((0, 0, 1)) for v in names}
    return names, [(f"e{j}", u, v) for j, (u, v) in enumerate(pairs)], genus


def bridged_blocks(rng, n_a, n_b):
    """Two chorded cycles joined by one bridge; returns the graph and the
    vertex list of the first block."""
    a_names, a_edges, _ = chorded(n_a)
    b_names, b_edges, _ = chorded(n_b)
    a_names = [f"a{v}" for v in a_names]
    b_names = [f"b{v}" for v in b_names]
    edges = [(f"a{e}", f"a{u}", f"a{v}") for e, u, v in a_edges]
    edges += [(f"b{e}", f"b{u}", f"b{v}") for e, u, v in b_edges]
    edges.append(("bridge", rng.choice(a_names), rng.choice(b_names)))
    return (a_names + b_names, edges, {}), a_names


# -- polarizations -------------------------------------------------------


def half_integral(rng, names):
    """1/2 plus a random integer shift at every vertex (one vertex gets a
    whole number when n is odd): the most special, degenerate case."""
    q = {v: Fraction(1, 2) + rng.randint(-1, 1) for v in names}
    if len(names) % 2:
        q[names[0]] += Fraction(1, 2)
    return q


def _general_part(rng, names, base_exp, modulus):
    """Weights 2^i/modulus on all but one vertex, which balances them to a
    zero sum.  Over one block, a subset sum of the weights is a multiple of
    1/modulus that is integral, or differs from an integer by 1/2, only for
    the empty set and the whole block (modulus odd and above the weights)."""
    order = list(names)
    rng.shuffle(order)
    weights = {v: Fraction(1 << (base_exp + i), modulus) for i, v in enumerate(order[:-1])}
    weights[order[-1]] = -sum(weights.values(), Fraction(0))
    return weights


def general(rng, names):
    """A general polarization: no proper subset is integral."""
    modulus = (1 << len(names)) - 1 + 2 * rng.randrange(50)
    q = _general_part(rng, names, 0, modulus)
    for v in names:
        q[v] += rng.randint(-1, 1)
    return q


def integer_valued(rng, names):
    """Integer values: every cycle vertex of valence two is an integral,
    non-spine subset, so the polarization is degenerate."""
    return {v: Fraction(rng.randint(-1, 2)) for v in names}


def spine_only(rng, a_names, b_names):
    """Integral on the two blocks of a bridge and nowhere else: not
    general, but non-degenerate."""
    modulus = (1 << (len(a_names) + len(b_names))) - 1 + 2 * rng.randrange(50)
    q = _general_part(rng, a_names, 0, modulus)
    q.update(_general_part(rng, b_names, len(a_names), modulus))
    # each block's adjusted total (sum minus half the bridge) is integral
    q[a_names[0]] += Fraction(1, 2)
    q[b_names[0]] += Fraction(1, 2)
    return q


# -- problems and references ---------------------------------------------


class Problem:
    """What one problem file holds, and the benchmark's own answers for it."""

    def __init__(self, graph, q=None, basepoint=None, stratum=(), rng=None):
        names, edges, genus = graph
        names = list(names)
        if rng is not None:
            # relabel by a random permutation of the names: the same graph up
            # to isomorphism, its vertices listed in another order, and no two
            # problems of a run alike in names and edges
            shuffled = list(names)
            rng.shuffle(shuffled)
            rename = dict(zip(names, shuffled))
            edges = [(e, rename[u], rename[v]) for e, u, v in edges]
            genus = {rename[v]: g for v, g in genus.items()}
            if q is not None:
                q = {rename[v]: x for v, x in q.items()}
            if basepoint is not None:
                basepoint = rename[basepoint]
        self.names = names
        self.edges = edges
        self.genus = genus
        self.q = q
        self.basepoint = basepoint if basepoint is not None else names[0]
        self.stratum = tuple(stratum)

    @property
    def budget(self) -> int:
        return int(sum(self.q.values(), Fraction(0))) - len(self.stratum)

    def write(self, path: Path) -> str:
        data = {
            "vertices": [
                {"name": v, "genus": self.genus[v]} if self.genus.get(v) else v
                for v in self.names
            ],
            "edges": [{"id": e, "endpoints": [u, v]} for e, u, v in self.edges],
            "basepoint": self.basepoint,
        }
        if self.q is not None:
            data["polarization"] = {v: str(self.q[v]) for v in self.names}
        path.write_text(json.dumps(data))
        return str(path)

    def valence(self, W) -> int:
        return sum(1 for _, u, v in self.edges if (u in W) != (v in W))

    def adjusted_total(self, W) -> Fraction:
        return sum((self.q[v] for v in W), Fraction(0)) - Fraction(self.valence(W), 2)

    def kirchhoff(self, drop=()) -> int:
        """Spanning trees of the graph minus ``drop``: the reduced Laplacian
        determinant by Gaussian elimination over Fraction."""
        drop = set(drop)
        n = len(self.names)
        pos = {v: i for i, v in enumerate(self.names)}
        lap = [[Fraction(0)] * n for _ in range(n)]
        for e, u, v in self.edges:
            if u == v or e in drop:
                continue
            a, b = pos[u], pos[v]
            lap[a][a] += 1
            lap[b][b] += 1
            lap[a][b] -= 1
            lap[b][a] -= 1
        mat = [row[1:] for row in lap[1:]]
        det = Fraction(1)
        for c in range(n - 1):
            p = next((r for r in range(c, n - 1) if mat[r][c]), None)
            if p is None:
                return 0
            if p != c:
                mat[c], mat[p] = mat[p], mat[c]
                det = -det
            pivot = mat[c][c]
            det *= pivot
            for r in range(c + 1, n - 1):
                f = mat[r][c] / pivot
                if f:
                    row, top = mat[r], mat[c]
                    for k in range(c, n - 1):
                        row[k] -= f * top[k]
        return int(det)


def connected_stratum(rng, graph, candidates, size):
    """``size`` edges from ``candidates`` whose removal keeps the graph
    connected (reductions and enumeration need a connected G - S)."""
    names, edges, _ = graph
    for _ in range(100):
        pick = rng.sample(candidates, size)
        if _connected(names, [(u, v) for e, u, v in edges if e not in pick]):
            return tuple(pick)
    raise ValueError("no connected stratum found")


def _connected(names, pairs) -> bool:
    adj = {v: [] for v in names}
    for u, v in pairs:
        adj[u].append(v)
        adj[v].append(u)
    seen = {names[0]}
    stack = [names[0]]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(names)


class Request:
    """One CLI call and the check of its JSON answer.  ``check`` returns
    None when the answer is right, else what is wrong."""

    __slots__ = ("command", "argv", "check")

    def __init__(self, argv, check):
        self.command = argv[0]
        self.argv = argv
        self.check = check


def _same(label, got, want):
    return None if got == want else f"{label}: got {got!r}, expected {want!r}"


# -- enumerate -----------------------------------------------------------


def _enum_checks(problem: Problem, kinds, is_general):
    """One check per kind.  Each checks its own answer; the one that
    completes the set checks stable <= qs <= ss (and ss == stable for a
    general polarization)."""
    n = len(problem.names)
    budget = problem.budget
    seen = {}

    def make(kind):
        def check(payload):
            err = (
                _same("kind", payload["kind"], KIND_NAMES[kind])
                or _same("vertices", payload["vertices"], problem.names)
                or _same("count", payload["count"], len(payload["multidegrees"]))
            )
            if err:
                return err
            rows = {tuple(r) for r in payload["multidegrees"]}
            if len(rows) != payload["count"]:
                return "repeated multidegrees"
            if any(len(r) != n or sum(r) != budget for r in rows):
                return f"a multidegree misses the budget {budget}"
            if kind == "qs" and len(rows) != problem.kirchhoff(problem.stratum):
                return f"quasistable count {len(rows)} != Kirchhoff count of G - S"
            seen[kind] = rows
            if len(seen) == len(kinds):
                chain = [seen[k] for k in ("stable", "qs", "ss") if k in seen]
                if any(not a <= b for a, b in zip(chain, chain[1:])):
                    return "stable <= quasistable <= semistable fails"
                if is_general and "ss" in seen and "stable" in seen and seen["ss"] != seen["stable"]:
                    return "semistable != stable for a general polarization"
            return None

        return check

    return [make(k) for k in kinds]


# (family, polarization, stratum size, kinds); cheapest first so the
# warm-up request, the first of the round, is small
ENUM_TEMPLATES = [
    (lambda rng: complete_multigraph(6, 1), "general", 0, ("qs", "ss", "stable")),
    (lambda rng: complete_multigraph(5, 2), "half", 0, ("qs", "ss", "stable")),
    (lambda rng: chorded(10), "half", 0, ("qs", "ss", "stable")),
    (lambda rng: chorded(11), "general", 0, ("qs", "ss", "stable")),
    (lambda rng: banana_chain(10), "half", 0, ("qs", "ss", "stable")),
    (lambda rng: chorded(12), "half", 0, ("qs", "ss", "stable")),
    (lambda rng: chorded(12), "general", 1, ("qs", "ss", "stable")),
    (lambda rng: banana_chain(11), "general", 1, ("qs", "ss", "stable")),
    (lambda rng: chorded(13), "half", 2, ("qs", "ss", "stable")),
    (lambda rng: chorded(13), "general", 0, ("qs", "ss", "stable")),
    (lambda rng: complete_multigraph(7, 1), "half", 1, ("qs", "ss", "stable")),
    (lambda rng: chorded(14), "half", 3, ("qs", "stable")),
]


class Workload:
    """``round(k, workdir)`` writes the problem files of round k and returns
    its requests.  ``round_nominal_s`` is about the request time of one
    round; a traced run plays a fixed number of rounds derived from it."""

    name = ""
    round_nominal_s = 1.0

    def __init__(self, seed):
        self.seed = seed

    def setup(self, workdir: Path):
        """Write the problems that every round reuses, if any."""

    def prepare(self, run_cli):
        """Compute reference answers with the program, if any."""


class Enumerate(Workload):
    name = "enumerate"
    round_nominal_s = 5.0

    def round(self, k, workdir: Path):
        rng = random.Random(f"enumerate-{self.seed}-{k}")
        out = []
        for t, (family, pol, s_size, kinds) in enumerate(ENUM_TEMPLATES):
            graph = family(rng)
            names, edges, _ = graph
            # strata come from the edges listed after the first n (the chords
            # of a chorded cycle), so each template's G - S keeps its shape
            spare = [e for e, _, _ in edges[len(names):]]
            stratum = connected_stratum(rng, graph, spare, s_size) if s_size else ()
            q = half_integral(rng, names) if pol == "half" else general(rng, names)
            problem = Problem(graph, q, rng.choice(names), stratum, rng)
            path = problem.write(workdir / f"enum-{k}-{t}.json")
            extra = ["--stratum", ",".join(stratum)] if stratum else []
            checks = _enum_checks(problem, kinds, pol == "general")
            for kind, check in zip(kinds, checks):
                out.append(Request(["enum", path, "--kind", kind, *extra], check))
        return out


# -- sweep ---------------------------------------------------------------


def _strata_check(problem: Problem, max_codim):
    m = len(problem.edges)
    depth = m if max_codim is None else min(max_codim, m)
    ids = [e for e, _, _ in problem.edges]

    def check(payload):
        rows = payload["rows"]
        want_rows = sum(comb(m, k) for k in range(depth + 1))
        err = _same("rows", len(rows), want_rows) or _same("complete", payload["complete"], depth == m)
        if err:
            return err
        total = 0
        for row in rows:
            count = len(row["multidegrees"])
            total += count
            if count != row["expected_count"]:
                return f"stratum {row['stratum']}: {count} multidegrees, expected {row['expected_count']}"
            if count != problem.kirchhoff(row["stratum"]):
                return f"stratum {row['stratum']}: count {count} != Kirchhoff count"
        if {tuple(r["stratum"]) for r in rows} != {
            tuple(ids[i] for i in c) for k in range(depth + 1) for c in combinations(range(m), k)
        }:
            return "rows are not the edge subsets up to the codimension"
        err = _same("total_multidegrees", payload["total_multidegrees"], total)
        if not err and depth == m:
            err = _same("subdivided_complexity", payload["subdivided_complexity"], total)
        return err

    return check


def _blowup_check(problem: Problem):
    m = len(problem.edges)

    def check(payload):
        buckets = payload["buckets"]
        err = _same("buckets", len(buckets), 1 << m) or _same(
            "total", payload["total"], payload["expected_total"]
        )
        if err:
            return err
        total = 0
        for b in buckets:
            total += b["count"]
            if b["count"] != b["expected_count"] or b["count"] != len(b["multidegrees"]):
                return f"bucket {b['stratum']}: {b['count']} multidegrees, expected {b['expected_count']}"
            if b["count"] != problem.kirchhoff(b["stratum"]):
                return f"bucket {b['stratum']}: count != Kirchhoff count"
        return _same("bucket total", total, payload["total"])

    return check


def _check_pol_check(problem: Problem, expected):
    """``expected`` is the class built into the polarization: general,
    nondegenerate (integral only on spines) or degenerate."""
    want_general = expected == "general"
    want_nondeg = expected != "degenerate"

    def check(payload):
        err = _same("general", payload["general"], want_general) or _same(
            "nondegenerate", payload["nondegenerate"], want_nondeg
        )
        if err:
            return err
        witness = payload["witness"]
        if want_general:
            return _same("witness", witness, None)
        if witness is None:
            return "no witness for a non-general polarization"
        W = set(witness["vertices"])
        if not W or len(W) == len(problem.names):
            return "witness is not a proper nonempty subset"
        if problem.adjusted_total(W).denominator != 1:
            return f"witness {sorted(W)} has a non-integral adjusted total"
        return _same("witness is_spine", witness["is_spine"], expected == "nondegenerate")

    return check


# (command, build) where build(rng) -> (problem, extra argv, check);
# cheapest request of each command first, for the warm-up
def _strata_t(n, m, loops, max_codim=None):
    def build(rng):
        graph = fixed_multigraph(n, m, loops)
        problem = Problem(graph, half_integral(rng, graph[0]), rng.choice(graph[0]), rng=rng)
        extra = [] if max_codim is None else [f"--max-codim={max_codim}"]
        return problem, extra, _strata_check(problem, max_codim)

    return "strata", build


def _blowup_t(n, m, loops):
    def build(rng):
        graph = fixed_multigraph(n, m, loops)
        q = general(rng, graph[0]) if rng.random() < 0.5 else half_integral(rng, graph[0])
        problem = Problem(graph, q, rng.choice(graph[0]), rng=rng)
        return problem, [], _blowup_check(problem)

    return "blowup-check", build


def _checkpol_t(make_graph, expected):
    def build(rng):
        if expected == "nondegenerate":
            graph, a_names = make_graph(rng)
            b_names = [v for v in graph[0] if v not in a_names]
            q = spine_only(rng, a_names, b_names)
        else:
            graph = make_graph(rng)
            q = general(rng, graph[0]) if expected == "general" else integer_valued(rng, graph[0])
        problem = Problem(graph, q, rng=rng)
        return problem, [], _check_pol_check(problem, expected)

    return "check-pol", build


SWEEP_TEMPLATES = [
    _strata_t(4, 6, 1),
    _strata_t(4, 7, 1),
    _strata_t(5, 8, 1),
    _strata_t(5, 9, 2),
    _strata_t(6, 9, 1),
    _strata_t(6, 11, 1, max_codim=2),
    _strata_t(7, 12, 2, max_codim=2),
    _strata_t(5, 10, 1, max_codim=3),
    # three more near the middle of the latency distribution, so the median
    # does not sit in a gap between two templates
    _strata_t(5, 8, 2),
    _strata_t(6, 12, 1, max_codim=2),
    _strata_t(6, 10, 2, max_codim=3),
    _blowup_t(3, 6, 1),
    _blowup_t(4, 6, 1),
    _blowup_t(4, 7, 1),
    _blowup_t(4, 8, 2),
    _checkpol_t(lambda rng: chorded(10), "degenerate"),
    _checkpol_t(lambda rng: chorded(12), "degenerate"),
    _checkpol_t(lambda rng: bridged_blocks(rng, 5, 5), "nondegenerate"),
    _checkpol_t(lambda rng: chorded(10), "general"),
    _checkpol_t(lambda rng: fixed_multigraph(10, 16, 1), "general"),
    _checkpol_t(lambda rng: chorded(11), "general"),
    _checkpol_t(lambda rng: bridged_blocks(rng, 5, 6), "nondegenerate"),
    _checkpol_t(lambda rng: chorded(12), "general"),
    # two more just below the top, so the p90 falls inside one cluster
    _strata_t(6, 9, 1),
    _checkpol_t(lambda rng: chorded(11), "general"),
]


class Sweep(Workload):
    name = "sweep"
    round_nominal_s = 5.0

    def round(self, k, workdir: Path):
        rng = random.Random(f"sweep-{self.seed}-{k}")
        out = []
        for t, (command, build) in enumerate(SWEEP_TEMPLATES):
            problem, extra, check = build(rng)
            path = problem.write(workdir / f"sweep-{k}-{t}.json")
            out.append(Request([command, path, *extra], check))
        return out


# -- query ---------------------------------------------------------------

# reduction pool: (family, polarization); each comes in REDUCE_VARIANTS
# variants (polarization, basepoint, labels) and every variant is reduced
# once per round
REDUCE_POOL = [
    (lambda rng: chorded(12), "half"),
    (lambda rng: banana_chain(12), "general"),
    (lambda rng: chorded(13), "general"),
    (lambda rng: chorded(14), "half"),
]
REDUCE_VARIANTS = 3

# fixed structures, relabelled every round; the eight of 56-64 vertices
# cost about what a chorded(12) reduction costs, so the median latency
# sits inside one dense cluster of requests
COMPLEXITY_POOL = [
    chorded(30),
    banana_chain(40),
    fixed_multigraph(30, 60, 2),
    chorded(40),
    chorded(50),
    chorded(56),
    chorded(58),
    chorded(60),
    chorded(62),
    chorded(64),
    fixed_multigraph(50, 90, 0),
    fixed_multigraph(52, 94, 0),
    banana_chain(70),
    chorded(80),
]


def far_multidegree(rng, n, budget, spread=40):
    """Entries in [-spread, spread] with the given total."""
    vals = [rng.randint(-spread, spread) for _ in range(n)]
    diff = budget - sum(vals)
    while diff:
        i = rng.randrange(n)
        step = 1 if diff > 0 else -1
        if abs(vals[i] + step) <= spread:
            vals[i] += step
            diff -= step
    return vals


def _reduce_check(problem: Problem, qs_set, values):
    def check(payload):
        out = tuple(payload["output"])
        err = (
            _same("input", payload["input"], values)
            or _same("vertices", payload["vertices"], problem.names)
            or _same("class_checked", payload["class_checked"], True)
            or _same("total", sum(out), sum(values))
        )
        if err:
            return err
        return None if out in qs_set else f"output {list(out)} is not quasistable"

    return check


def _complexity_check(count):
    def check(payload):
        return _same("complexity", payload["complexity"], count) or _same(
            "Picard order", prod(payload["picard"]), count
        )

    return check


class Query(Workload):
    name = "query"
    round_nominal_s = 1.2
    qs_sets = None

    def setup(self, workdir: Path):
        """Write the reduction pool.  It is the same for every seed (see
        ``round``)."""
        self.pool = []
        for t, (family, pol) in enumerate(REDUCE_POOL):
            for v in range(REDUCE_VARIANTS):
                fixed = random.Random(f"query-pool-{t}-{v}")
                graph = family(fixed)
                q = half_integral(fixed, graph[0]) if pol == "half" else general(fixed, graph[0])
                problem = Problem(graph, q, fixed.choice(graph[0]), rng=fixed)
                self.pool.append((problem, problem.write(workdir / f"reduce-pool-{t}-{v}.json")))

    def prepare(self, run_cli):
        """Quasistable set of each reduction problem, from ``enum`` after its
        size is checked against the Kirchhoff count; Kirchhoff counts of the
        complexity graphs."""
        self.qs_sets = []
        for problem, path in self.pool:
            payload = run_cli(["enum", path, "--kind", "qs"])
            rows = {tuple(r) for r in payload["multidegrees"]}
            if len(rows) != problem.kirchhoff():
                raise RuntimeError(f"reference enumeration of {path} fails its Kirchhoff count")
            self.qs_sets.append(rows)
        self.counts = [Problem(g).kirchhoff() for g in COMPLEXITY_POOL]

    def round(self, k, workdir: Path):
        """The reduction inputs of round k are the same for every seed: the
        time of one reduction varies with its input by a coefficient of
        variation of 0.4-1.0, so a hundred seeded inputs a run would leave
        the runs of different seeds apart by more than any useful bound.
        The seed relabels the complexity graphs."""
        rng = random.Random(f"query-{self.seed}-{k}")
        inputs = random.Random(f"query-inputs-{k}")
        out = []
        for (problem, path), qs_set in zip(self.pool, self.qs_sets or [None] * len(self.pool)):
            values = far_multidegree(inputs, len(problem.names), problem.budget)
            check = _reduce_check(problem, qs_set, values) if qs_set else None
            # ``--multidegree -3,4`` would parse -3,4 as a flag
            out.append(Request(["reduce", path, "--multidegree=" + ",".join(map(str, values))], check))
        for t, graph in enumerate(COMPLEXITY_POOL):
            path = Problem(graph, rng=rng).write(workdir / f"complexity-{k}-{t}.json")
            check = _complexity_check(self.counts[t]) if self.qs_sets else None
            out.append(Request(["complexity", path], check))
        return out


WORKLOADS = {w.name: w for w in (Enumerate, Sweep, Query)}
