"""Rational vertex weightings (polarizations) and their classification.

A polarization assigns an exact rational to every vertex with an integer
grand total.  The module implements the standard massaging operations
(restriction, stratum normalization, subdivision transfer, bridge
contraction, the canonical weighting) and the two classification
predicates used downstream:

- *general*: no proper nonempty vertex subset is integral for q;
- *non-degenerate*: no such subset that crosses a non-bridge edge is
  integral.  Equivalently, q becomes general after contracting bridges.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from typing import Iterable

from ._kernel import check_limit
from .errors import (
    CanonicalPolarizationError,
    EmptyGraphError,
    GraphConstructionError,
    InvalidSubsetError,
    NonIntegralRestrictionError,
    PolarizationTotalError,
)
from .graph import Multigraph, Vertex, _VertexValues
from .graph import _bridge_mask, _connected_subsets, _piece_masks


# a rational as text, matched after a strip: ASCII digits only, unlike
# int() and Fraction(), which also read "1_0" and non-ASCII digits, and
# Fraction() decimals and exponents
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _text_fraction(text: str) -> Fraction | None:
    """The rational ``text`` spells in the grammar ``_RATIONAL``, built from
    its digits; None when it does not match or its denominator is zero."""
    if match := _RATIONAL.fullmatch(text.strip()):
        num, den = match.groups()
        if den is None:
            return Fraction(int(num))
        if den := int(den):
            return Fraction(int(num), den)
    return None


def _to_fraction(x) -> Fraction:
    if isinstance(x, float):
        raise GraphConstructionError(
            f"refusing float polarization value {x!r}; use Fraction, int or 'p/q'"
        )
    if isinstance(x, str):
        if (value := _text_fraction(x)) is None:
            raise GraphConstructionError(
                f"cannot parse rational {x!r}; write 'p/q' in ASCII digits, q > 0"
            )
        return value
    try:
        return Fraction(x)
    except (TypeError, ValueError, OverflowError):  # None, a list, bytes, complex, a NaN
        raise GraphConstructionError(f"polarization value {x!r} is not a rational") from None


class Polarization(_VertexValues):
    """Exact rational values on the vertices of a graph, integer total."""

    __slots__ = ("_scaled_values",)
    _noun, _convert, _zero = "polarization", staticmethod(_to_fraction), Fraction(0)

    def __init__(self, graph: Multigraph, values):
        super().__init__(graph, values)
        if (fault := self._total_fault()) is not None:
            raise PolarizationTotalError(fault)

    def _total_fault(self) -> str | None:
        """What is wrong with the total, or None when it is an integer: the
        scaled values must sum to a multiple of the scale."""
        scale, scaled = self._scaled()
        if sum(scaled) % scale:
            return f"polarization total {sum(self.values, Fraction(0))} is not an integer"
        return None

    # -- derived polarizations ------------------------------------------

    def restrict(self, W: Iterable[Vertex]) -> "Polarization":
        """Polarization induced on the subgraph spanned by W.

        Each vertex loses half an edge worth of weight for every edge it
        sends out of W.  Defined only when the subset total minus half the
        crossing valence is an integer.
        """
        g = self.graph
        W = g.vertex_subset(W)
        if not W:
            raise InvalidSubsetError("cannot restrict to the empty subset")
        adjusted = self.sum_over(W) - Fraction(g.valence(W), 2)
        if adjusted.denominator != 1:
            raise NonIntegralRestrictionError(
                f"restricted total {adjusted} is not an integer"
            )
        Wc = g.complement(W)
        sub = g.induced_subgraph(W)
        vals = {
            v: self[v] - Fraction(g.valence({v}, Wc), 2)
            for v in sub.vertices
        }
        return Polarization(sub, vals)

    def normalized(self, S: Iterable) -> "Polarization":
        """Transfer to the graph with the edges of S deleted.

        Every vertex pays half for each S-edge it crosses and a whole unit
        for each S-loop based at it; the total drops by |S|.
        """
        g = self.graph
        S = g.edge_subset(S)
        halves = [0] * g.num_vertices  # an S-loop pays both halves at its vertex
        for e, (a, b) in zip(g.edges, g._pairs):
            if e.id in S:
                halves[a] += 1
                halves[b] += 1
        vals = [x - Fraction(h, 2) for x, h in zip(self.values, halves)]
        return Polarization(g.delete_edges(S), vals)

    def blown_up(self, S: Iterable) -> "Polarization":
        """Transfer to the subdivision of the edges of S: old vertices keep
        their values, the new middle vertices get zero."""
        gsub, middle = self.graph.subdivide_edges(S)  # new vertices come last
        return Polarization(gsub, self.values + (Fraction(0),) * len(middle))

    def contracted(self) -> "Polarization":
        """Transfer to the bridge contraction; merged vertices add values."""
        g = self.graph
        gc, mapping = g.contract_bridges()
        vals = {v: Fraction(0) for v in gc.vertices}
        for v in g.vertices:
            vals[mapping[v]] += self[v]
        return Polarization(gc, vals)

    # -- classification --------------------------------------------------

    def _scaled(self):
        """``(scale, (scale * q_v, ...))`` with scale twice the lcm of the
        denominators, computed once per polarization and kept in a slot; a
        caller that lowers entries copies the tuple first."""
        try:
            return self._scaled_values
        except AttributeError:  # not computed yet
            scale = 2 * lcm(*(x.denominator for x in self.values))
            scaled = tuple(x.numerator * (scale // x.denominator) for x in self.values)
            self._scaled_values = scale, scaled
            return self._scaled_values

    def _integrality(self):
        """``(scale, residues, test)``: ``scale * (q_P - val(P)/2)`` is, mod
        scale, the sum over P of the residues ``scale * q_v - scale/2 *
        deg(v)``, and ``test(mask)`` checks that sum on every connected
        piece of the mask and of its complement: the pieces of the one
        forest over the pairs that do not cross the mask."""
        g = self.graph
        scale, resid = self._scaled()
        resid = list(resid)
        pairs = [(a, b) for a, b in g._pairs if a != b]
        for a, b in pairs:
            resid[a] -= scale // 2
            resid[b] -= scale // 2
        resid = [r % scale for r in resid]

        def test(mask: int) -> bool:
            keep = sum(1 << k for k, (a, b) in enumerate(pairs) if not (mask >> a ^ mask >> b) & 1)
            return all(
                sum(r for i, r in enumerate(resid) if piece >> i & 1) % scale == 0
                for piece in set(_piece_masks(len(resid), pairs, keep))
            )

        return scale, resid, test

    def is_integral_at(self, W: Iterable[Vertex]) -> bool:
        """Whether every connected piece of W and of its complement has an
        integer adjusted total (subset total minus half its valence)."""
        g = self.graph
        W = g.vertex_subset(W)
        if not W or len(W) == g.num_vertices:
            raise InvalidSubsetError("integrality is tested on proper nonempty subsets")
        return self._integrality()[2](g._mask(W))

    def _integral_subsets(self):
        """The integral proper subsets that are connected, as ``(mask,
        is_spine)`` in bitmask order, walked only as far as the caller reads.

        The walk visits the connected subsets level by level (top vertex k),
        each level sorted, which is mask order.  A residue sum comes from two
        tables, over the low half of the vertices and the rest, each grown by
        vertex k at level k; a mask whose sum is not 0 mod scale is never
        integral, as its pieces partition it.  Table entries count against
        ``_kernel.LIMIT`` as the subsets listed do."""
        g = self.graph
        n = g.num_vertices
        if n == 0:
            raise EmptyGraphError("classification needs at least one vertex")
        scale, resid, test = self._integrality()
        br = _bridge_mask(n, g._pairs)
        kept = [p for k, p in enumerate(g._pairs) if not br >> k & 1]
        cut = n // 2
        half, full = (1 << cut) - 1, (1 << n) - 1
        low, high = [0], [0]  # residue sums mod scale by mask of each half
        for k, level in enumerate(_connected_subsets(n, g._pairs)):
            part = low if k < cut else high
            check_limit(2 * len(part), "entries of a residue table")
            part += [(s + resid[k]) % scale for s in part]
            for m in sorted([c for c in level if not (low[c & half] + high[c >> cut]) % scale]):
                if m != full and test(m):  # a spine when no non-bridge edge crosses
                    yield m, not any((m >> a ^ m >> b) & 1 for a, b in kept)

    def integral_witness(self):
        """A proper integral subset, preferring one that is not a spine.

        Returns (subset, is_spine) or None when the polarization is general:
        the first integral non-spine subset in bitmask order, else the first
        integral spine.  Both are connected, as a piece of an integral subset
        is integral, has a smaller mask, and crosses a non-bridge edge when
        the subset does; so ``_integral_subsets`` finds them."""
        spine = None
        for m, is_spine in self._integral_subsets():
            if not is_spine:
                return self.graph._vertex_set(m), False
            if spine is None:
                spine = m
        return None if spine is None else (self.graph._vertex_set(spine), True)

    def is_general(self) -> bool:
        """True when no proper nonempty subset is integral for q: the walk
        stops at the first integral subset."""
        return next(self._integral_subsets(), None) is None

    def is_nondegenerate(self) -> bool:
        """True when no integral proper subset crosses a non-bridge edge.

        Subsets whose crossing edges are all bridges (spines) are allowed
        to be integral; everything else must not be.
        """
        hit = self.integral_witness()
        return hit is None or hit[1]


def canonical_polarization(g: Multigraph, degree: int) -> Polarization:
    """The weighting proportional to 2*genus - 2 + valence at each vertex
    (loops count twice), scaled to the requested total degree.

    The weights sum to 2g - 2 for the arithmetic genus g = sum of the vertex
    genera + |E| - |V| + 1, which is the total genus on a connected graph;
    it must not vanish.
    """
    if g.num_vertices == 0:
        raise EmptyGraphError("canonical polarization needs at least one vertex")
    weights = [2 * g._genus[v] - 2 for v in g.vertices]
    for a, b in g._pairs:  # a loop adds 2 at its vertex
        weights[a] += 1
        weights[b] += 1
    denom = sum(weights)
    if denom == 0:
        raise CanonicalPolarizationError(
            "canonical polarization undefined: 2g - 2 vanishes"
        )
    return Polarization(g, [Fraction(degree * w, denom) for w in weights])
