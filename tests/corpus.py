"""Deterministic random corpus shared by the property and acceptance tests.

Connected multigraphs with up to 6 vertices and 9 edges, loops and
parallel edges allowed, genus weights up to 2, polarizations with a
single denominator from {1, 2, 3, 4} and integer total, a random
basepoint and a random stratum whose removal keeps the graph connected.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache

from jacgraph import Multigraph, Polarization

SEED = 20260823
CASE_COUNT = 220


@dataclass(frozen=True)
class Case:
    index: int
    graph: Multigraph
    q: Polarization
    basepoint: str
    stratum: frozenset
    _cache: dict = field(default_factory=dict, compare=False, repr=False)


def chorded_cycle(n: int) -> Multigraph:
    """Cycle c0..c(n-1) (edges e0..e(n-1)) plus chords c_i--c_(i+n/2) for
    i = 0, 3, 6, ... below n/2 (edges e(n), e(n+1), ...)."""
    names = [f"c{i}" for i in range(n)]
    edges = [(names[i], names[(i + 1) % n]) for i in range(n)]
    edges += [(names[i], names[i + n // 2]) for i in range(0, n // 2, 3)]
    return Multigraph(names, edges)


def _random_graph(rng: random.Random) -> Multigraph:
    n = rng.randint(1, 6)
    names = [f"v{i}" for i in range(n)]
    edges = []
    for i in range(1, n):
        edges.append((names[rng.randrange(i)], names[i]))
    extra = rng.randint(0, 9 - len(edges))
    for _ in range(extra):
        if rng.random() < 0.2:
            v = rng.choice(names)
            edges.append((v, v))
        else:
            edges.append((rng.choice(names), rng.choice(names)))
    genus = {v: rng.choice([0, 0, 0, 1, 1, 2]) for v in names}
    return Multigraph(names, edges, genus)


def _random_polarization(rng: random.Random, g: Multigraph) -> Polarization:
    den = rng.choice([1, 2, 3, 4])
    names = list(g.vertices)
    values = {v: Fraction(rng.randint(-2 * den, 3 * den), den) for v in names[:-1]}
    total = rng.randint(-1, 3)
    values[names[-1]] = total - sum(values.values(), Fraction(0))
    return Polarization(g, values)


def _random_stratum(rng: random.Random, g: Multigraph) -> frozenset:
    ids = list(g.edge_ids())
    rng.shuffle(ids)
    want = rng.randint(0, len(ids))
    picked: list = []
    for eid in ids:
        if len(picked) >= want:
            break
        if g.delete_edges(picked + [eid]).is_connected():
            picked.append(eid)
    return frozenset(picked)


@lru_cache(maxsize=1)
def corpus() -> tuple:
    rng = random.Random(SEED)
    cases = []
    for k in range(CASE_COUNT):
        g = _random_graph(rng)
        cases.append(
            Case(
                index=k,
                graph=g,
                q=_random_polarization(rng, g),
                basepoint=rng.choice(list(g.vertices)),
                stratum=_random_stratum(rng, g),
            )
        )
    return tuple(cases)


def small_cases(max_edges: int = 6) -> tuple:
    """The corpus entries whose graph fits in an exhaustive edge-subset sweep."""
    return tuple(c for c in corpus() if c.graph.num_edges <= max_edges)
