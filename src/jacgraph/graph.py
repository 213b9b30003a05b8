"""Vertex-weighted multigraphs with loops, subset calculus and surgeries.

Conventions used throughout the package:

- vertices and edges keep their construction order, and every derived
  listing (components, subsets, new graphs) is deterministic;
- loops are stored like any other edge but never contribute to valences,
  crossing counts or bridges;
- the endpoint index pairs of the edges, in edge order and with a loop at
  the vertex of index i as ``(i, i)``, are computed once at construction;
  the queries below and the numeric modules read them, with vertex subsets
  as bitmasks over the vertex indices;
- surgeries (edge deletion, subdivision, contraction, ...) build new
  graphs; a Multigraph is never mutated after construction.
"""

from __future__ import annotations

from typing import Hashable, Iterable, Mapping, NamedTuple

from . import _kernel
from .errors import (
    GraphConstructionError,
    InvalidSubsetError,
    UnknownEdgeError,
    UnknownVertexError,
)

Vertex = Hashable


def _adjacency_masks(n: int, pairs) -> list[int]:
    """Neighbour bitmask of each vertex index; loop pairs are skipped."""
    adj = [0] * n
    for a, b in pairs:
        if a != b:
            adj[a] |= 1 << b
            adj[b] |= 1 << a
    return adj


def _connected_subsets(n: int, adj: list[int]):
    """Per vertex k = 0, ..., n - 1 in turn, the list of the vertex subsets
    with top vertex k that are connected under the neighbour masks ``adj``,
    as bitmasks, each once.

    Each subset grows from k by one neighbour below k at a time; a branch
    never adds a vertex that an earlier sibling branch added, so no subset
    comes twice (Wernicke's ESU, IEEE/ACM TCBB 3(4), 2006).  The cost is
    proportional to the subsets listed, refused past ``_kernel.LIMIT``."""

    def grow(m, ext, seen):
        # ext: the neighbours of m outside seen, which holds m
        level.append(m)
        if len(level) > room:
            _kernel.check_limit(listed + len(level), "connected subsets listed so far")
        while ext:
            bit = ext & -ext
            ext ^= bit
            seen |= bit
            grow(m | bit, ext | (adj[bit.bit_length() - 1] & ~seen), seen)

    listed = 0
    for k in range(n):
        level, below, room = [], (1 << k) - 1, _kernel.LIMIT - listed
        grow(1 << k, adj[k] & below, ~below)
        listed += len(level)
        yield level


def _bfs_forest(n: int, pairs, roots, within: int = -1):
    """``(parent, up, depth, queue)`` of the breadth-first forest on the
    vertices 0..n-1 over the endpoint index pairs whose bit is set in
    ``within`` (all of them by default): a tree grows from each of
    ``roots`` not yet reached, neighbours walked in pair order.  A root is
    its own parent and an unreached vertex has parent -1; ``up[v]`` is the
    index of the pair from v to its parent (-1 at a root), ``depth[v]`` the
    distance from its root, and ``queue`` the reached vertices in the order
    met, tree after tree."""
    adj = [[] for _ in range(n)]
    for k, (a, b) in enumerate(pairs):
        if within >> k & 1:
            adj[a].append((b, k))
            adj[b].append((a, k))
    parent, up, depth, queue = [-1] * n, [-1] * n, [0] * n, []
    for root in roots:
        if parent[root] < 0:
            parent[root] = root
            tree = [root]
            for v in tree:
                for w, k in adj[v]:
                    if parent[w] < 0:
                        parent[w], up[w], depth[w] = v, k, depth[v] + 1
                        tree.append(w)
            queue += tree
    return parent, up, depth, queue


def _mask_pieces(mask: int, adj: list[int]):
    """Connected pieces of the vertex bitmask ``mask`` under the neighbour
    masks ``adj``, as bitmasks, ordered by their lowest vertex."""
    while mask:
        piece = frontier = mask & -mask
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            grown = adj[low.bit_length() - 1] & mask & ~piece
            piece |= grown
            frontier |= grown
        yield piece
        mask ^= piece


class Edge(NamedTuple):
    id: Hashable
    u: Vertex
    v: Vertex

    @property
    def is_loop(self) -> bool:
        return self.u == self.v

    def other(self, w: Vertex) -> Vertex:
        if w == self.u:
            return self.v
        if w == self.v:
            return self.u
        raise UnknownVertexError(f"vertex {w!r} is not an endpoint of edge {self.id!r}")


class Multigraph:
    """A finite multigraph with integer genus weights on the vertices.

    Parallel edges and loops are allowed.  Edges carry stable ids; when an
    edge is given as a plain endpoint pair the id defaults to ``e<k>`` with
    ``k`` the position in the input listing.  The constructor also records
    each edge's endpoint index pair ``(pos[u], pos[v])`` in ``_pairs``, in
    edge order, a loop as ``(i, i)``.  A malformed edge entry or genus raises
    GraphConstructionError, an endpoint that is not a vertex
    UnknownVertexError.
    """

    __slots__ = ("vertices", "edges", "_genus", "_vpos", "_edge_by_id", "_pairs")

    def __init__(
        self,
        vertices: Iterable[Vertex],
        edges: Iterable = (),
        genus: Mapping[Vertex, int] | None = None,
    ):
        vs = tuple(vertices)
        if len(set(vs)) != len(vs):
            raise GraphConstructionError("duplicate vertex labels")
        self.vertices = vs
        self._vpos = {v: i for i, v in enumerate(vs)}

        norm, pairs, pos = [], [], self._vpos
        for k, item in enumerate(edges):
            try:
                size = len(item)  # an Edge is an (id, u, v) triple
            except TypeError:
                size = None
            if size == 2:
                (u, v), eid = item, f"e{k}"
            elif size == 3:
                eid, u, v = item
            else:
                raise GraphConstructionError(f"cannot interpret edge entry {item!r}")
            a, b = pos.get(u), pos.get(v)
            if a is None or b is None:
                w = u if a is None else v
                raise UnknownVertexError(f"edge {eid!r} endpoint {w!r} is not a vertex")
            norm.append(Edge(eid, u, v))
            pairs.append((a, b))
        self.edges = tuple(norm)
        self._pairs = tuple(pairs)
        self._edge_by_id = {e.id: e for e in self.edges}
        if len(self._edge_by_id) != len(self.edges):
            raise GraphConstructionError("duplicate edge ids")

        g = {v: 0 for v in vs}
        for v, gv in (genus or {}).items():
            if v not in self._vpos:
                raise UnknownVertexError(f"genus given for unknown vertex {v!r}")
            try:
                ok = int(gv) == gv and gv >= 0
            except (TypeError, ValueError, OverflowError):
                ok = False
            if not ok:
                raise GraphConstructionError(f"genus of {v!r} must be a nonnegative integer")
            g[v] = int(gv)
        self._genus = g

    @classmethod
    def _of(cls, vpos: dict, edge_by_id: dict, pairs: tuple, genus: dict) -> "Multigraph":
        """A graph from parts the caller has checked: the vertex positions,
        the ``Edge``s keyed by id in edge order, their index pairs, the genus."""
        self = object.__new__(cls)
        self.vertices, self._vpos, self._genus = tuple(vpos), vpos, genus
        self.edges, self._edge_by_id, self._pairs = tuple(edge_by_id.values()), edge_by_id, pairs
        return self

    # -- basic queries ---------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def genus_of(self, v: Vertex) -> int:
        self._check_vertex(v)
        return self._genus[v]

    def genus_map(self) -> dict[Vertex, int]:
        return dict(self._genus)

    def edge(self, eid) -> Edge:
        try:
            return self._edge_by_id[eid]
        except KeyError:
            raise UnknownEdgeError(f"unknown edge id {eid!r}") from None

    def edge_ids(self) -> tuple:
        return tuple(e.id for e in self.edges)

    def loops_at(self, v: Vertex) -> int:
        self._check_vertex(v)
        i = self._vpos[v]
        return self._pairs.count((i, i))

    def adjacency(self, u: Vertex, v: Vertex) -> int:
        """Number of non-loop edges joining two distinct vertices."""
        self._check_vertex(u)
        self._check_vertex(v)
        if u == v:
            return 0
        i, j = self._vpos[u], self._vpos[v]
        return self._pairs.count((i, j)) + self._pairs.count((j, i))

    def _check_vertex(self, v):
        if v not in self._vpos:
            raise UnknownVertexError(f"unknown vertex {v!r}")

    def _mask(self, W) -> int:
        """Bitmask over the vertex indices of the checked vertex set W."""
        pos = self._vpos
        return sum(1 << pos[v] for v in W)

    def _vertex_set(self, mask: int) -> frozenset:
        """The vertices whose index bits are set in ``mask``."""
        return frozenset(v for i, v in enumerate(self.vertices) if mask >> i & 1)

    def vertex_subset(self, ws: Iterable[Vertex]) -> frozenset:
        W = frozenset(ws)
        for v in W:
            self._check_vertex(v)
        return W

    def edge_subset(self, es: Iterable) -> frozenset:
        S = frozenset(es)
        for eid in S:
            if eid not in self._edge_by_id:
                raise UnknownEdgeError(f"unknown edge id {eid!r}")
        return S

    def complement(self, W: Iterable[Vertex]) -> frozenset:
        W = self.vertex_subset(W)
        return frozenset(v for v in self.vertices if v not in W)

    # -- valences --------------------------------------------------------

    def valence(self, W1: Iterable[Vertex], W2: Iterable[Vertex] | None = None) -> int:
        """Number of non-loop edges with one endpoint in W1 and one in W2.

        With W2 omitted it counts the edges crossing from W1 to its
        complement.  W1 and W2 must be disjoint; loops never count.
        """
        return sum(self._crossing(W1, W2))

    def valence_in(
        self,
        S: Iterable,
        W1: Iterable[Vertex],
        W2: Iterable[Vertex] | None = None,
    ) -> int:
        """Like :meth:`valence` but only edges from the set S are counted."""
        S = self.edge_subset(S)
        return sum(c for e, c in zip(self.edges, self._crossing(W1, W2)) if e.id in S)

    def _crossing(self, W1, W2):
        """Per edge, in edge order, 1 when it joins W1 to W2 (the complement
        of W1 when None) and 0 otherwise; W1 and W2 are checked first."""
        m1 = self._mask(self.vertex_subset(W1))
        full = (1 << self.num_vertices) - 1
        m2 = full ^ m1 if W2 is None else self._mask(self.vertex_subset(W2))
        if m1 & m2:
            raise InvalidSubsetError("valence requires disjoint vertex subsets")
        # a loop never counts: its one end cannot lie in both subsets
        return [(m1 >> a & m2 >> b | m2 >> a & m1 >> b) & 1 for a, b in self._pairs]

    def induced_edge_count(self, S: Iterable, W: Iterable[Vertex]) -> int:
        """Number of edges of S with both endpoints in W; loops at W count."""
        S = self.edge_subset(S)
        m = self._mask(self.vertex_subset(W))
        return sum(
            1 for e, (a, b) in zip(self.edges, self._pairs) if m >> a & m >> b & 1 and e.id in S
        )

    # -- connectivity ----------------------------------------------------

    def _pieces(self):
        """The components as vertex bitmasks, ordered by lowest vertex."""
        n = self.num_vertices
        return _mask_pieces((1 << n) - 1, _adjacency_masks(n, self._pairs))

    def components(self) -> list[frozenset]:
        """Connected components as vertex sets, ordered by first vertex."""
        return [self._vertex_set(piece) for piece in self._pieces()]

    def is_connected(self) -> bool:
        return len(list(self._pieces())) <= 1

    def first_betti(self) -> int:
        """Cycle rank |E| - |V| + (number of components); loops contribute."""
        return self.num_edges - self.num_vertices + len(list(self._pieces()))

    def subcurve_genus(self, W: Iterable[Vertex]) -> int:
        """Total genus carried by W: vertex genera plus the cycle rank of
        the induced subgraph."""
        W = self.vertex_subset(W)
        if not W:
            raise InvalidSubsetError("subcurve genus needs a nonempty vertex subset")
        sub = self.induced_subgraph(W)
        return sum(self._genus[v] for v in W) + sub.first_betti()

    # -- bridges and spines ----------------------------------------------

    def bridges(self) -> frozenset:
        """Edge ids whose removal disconnects their component.

        Iterative depth-first search with low-links over the incidence
        lists of the edge indices; a parallel edge is never a bridge because
        the twin edge provides the back link, and loops are ignored outright.
        """
        n = self.num_vertices
        incident = [[] for _ in range(n)]
        for k, (a, b) in enumerate(self._pairs):
            if a != b:
                incident[a].append((k, b))
                incident[b].append((k, a))
        disc, low, out, counter = [-1] * n, [0] * n, [], 0
        for root in range(n):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = counter
            counter += 1
            stack = [(root, -1, iter(incident[root]))]
            while stack:
                x, via, it = stack[-1]
                for k, y in it:
                    if k == via:
                        continue
                    if disc[y] < 0:
                        disc[y] = low[y] = counter
                        counter += 1
                        stack.append((y, k, iter(incident[y])))
                        break
                    low[x] = min(low[x], disc[y])
                else:
                    stack.pop()
                    if stack:
                        parent = stack[-1][0]
                        low[parent] = min(low[parent], low[x])
                        if low[x] > disc[parent]:
                            out.append(self.edges[via].id)
        return frozenset(out)

    def is_spine(self, W: Iterable[Vertex]) -> bool:
        """True when every edge crossing from W to its complement is a bridge."""
        m = self._mask(self.vertex_subset(W))
        br = self.bridges()
        return all(
            e.id in br for e, (a, b) in zip(self.edges, self._pairs) if (m >> a ^ m >> b) & 1
        )

    # -- surgeries -------------------------------------------------------

    def delete_edges(self, S: Iterable) -> "Multigraph":
        S = self.edge_subset(S)
        return Multigraph(
            self.vertices,
            [e for e in self.edges if e.id not in S],
            self._genus,
        )

    def remove_loops(self) -> "Multigraph":
        return Multigraph(
            self.vertices,
            [e for e in self.edges if not e.is_loop],
            self._genus,
        )

    def induced_subgraph(self, W: Iterable[Vertex]) -> "Multigraph":
        """Subgraph on W keeping every edge (loops included) inside W."""
        W = self.vertex_subset(W)
        return Multigraph(
            [v for v in self.vertices if v in W],
            [e for e in self.edges if e.u in W and e.v in W],
            {v: self._genus[v] for v in W},
        )

    def subdivide_edges(self, S: Iterable) -> tuple["Multigraph", dict]:
        """Replace each edge of S by a length-two path through a fresh
        genus-zero vertex.

        Returns the new graph and the map edge id -> new middle vertex.
        Loops become two parallel edges between the old vertex and the new
        one.  New vertices are appended after the old ones in the order of
        the subdivided edges.
        """
        S = self.edge_subset(S)
        taken = set(self.vertices)
        new_vertices = list(self.vertices)
        genus = dict(self._genus)
        middle: dict = {}
        edge_items: list[Edge] = []
        used_ids = {e.id for e in self.edges if e.id not in S}

        def fresh(label, used):
            while label in used:
                label = label + "'" if isinstance(label, str) else (label, "'")
            used.add(label)
            return label

        for e in self.edges:
            if e.id not in S:
                edge_items.append(e)
                continue
            x = fresh(f"{e.id}*" if isinstance(e.id, str) else (e.id, "*"), taken)
            new_vertices.append(x)
            genus[x] = 0
            middle[e.id] = x
            base = e.id if isinstance(e.id, str) else str(e.id)
            edge_items.append(Edge(fresh(f"{base}:a", used_ids), e.u, x))
            edge_items.append(Edge(fresh(f"{base}:b", used_ids), x, e.v))
        return Multigraph(new_vertices, edge_items, genus), middle

    def contract_bridges(self) -> tuple["Multigraph", dict]:
        """Contract every bridge; genus weights add up on merged vertices.

        Returns the contracted graph together with the vertex surjection
        old vertex -> merged vertex.  Merged vertices are labelled by their
        earliest member.  Non-bridge edges survive; an edge whose endpoints
        merge becomes a loop.
        """
        br = self.bridges()
        n, vs = self.num_vertices, self.vertices
        adj = _adjacency_masks(n, [p for e, p in zip(self.edges, self._pairs) if e.id in br])
        rep = list(range(n))  # the merged classes are the pieces of the bridge forest
        for piece in _mask_pieces(sum(1 << i for i, nb in enumerate(adj) if nb), adj):
            low = (piece & -piece).bit_length() - 1
            for i in range(low, piece.bit_length()):
                if piece >> i & 1:
                    rep[i] = low
        mapping = {v: vs[r] for v, r in zip(vs, rep)}
        reps = [vs[i] for i, r in enumerate(rep) if r == i]
        genus = {r: 0 for r in reps}
        for v in self.vertices:
            genus[mapping[v]] += self._genus[v]
        edge_items = [
            Edge(e.id, mapping[e.u], mapping[e.v])
            for e in self.edges
            if e.id not in br
        ]
        return Multigraph(reps, edge_items, genus), mapping

    # -- equality --------------------------------------------------------

    def __eq__(self, other):
        if not isinstance(other, Multigraph):
            return NotImplemented
        return (
            self.vertices == other.vertices
            and self.edges == other.edges
            and self._genus == other._genus
        )

    def __hash__(self):
        return hash((self.vertices, self.edges))

    def __repr__(self):
        return (
            f"Multigraph({len(self.vertices)} vertices, {len(self.edges)} edges)"
        )


class _VertexValues:
    """One value per vertex of a graph, in vertex order: the base of
    ``Cochain`` and ``Polarization``.  A subclass names its ``_noun`` for
    the error messages, the ``_convert`` applied to each given value and the
    ``_zero`` that sums start from."""

    __slots__ = ("graph", "values")

    def __init__(self, graph: Multigraph, values):
        self.graph = graph
        convert, noun = self._convert, self._noun
        if isinstance(values, Mapping):
            missing = [v for v in graph.vertices if v not in values]
            if missing:
                raise GraphConstructionError(f"{noun} misses values for {missing!r}")
            if len(values) != len(graph.vertices):
                extra = [v for v in values if v not in graph._vpos]
                raise GraphConstructionError(f"{noun} has values for non-vertices {extra!r}")
            vals = tuple(convert(values[v]) for v in graph.vertices)
        else:
            vals = tuple(map(convert, values))
            if len(vals) != len(graph.vertices):
                raise GraphConstructionError(
                    f"expected {len(graph.vertices)} values, got {len(vals)}"
                )
        self.values = vals

    @classmethod
    def _of(cls, graph: Multigraph, values: tuple):
        """An instance on a tuple of ``graph.num_vertices`` values that the
        library computed itself, without the checks of the constructor."""
        self = object.__new__(cls)
        self.graph = graph
        self.values = values
        return self

    def __getitem__(self, v: Vertex):
        return self.values[self.graph._vpos[v]]

    @property
    def total(self) -> int:
        return int(sum(self.values, self._zero))

    def sum_over(self, W: Iterable[Vertex]):
        W = self.graph.vertex_subset(W)
        return sum((self[v] for v in W), self._zero)

    def as_dict(self) -> dict:
        return dict(zip(self.graph.vertices, self.values))

    def __eq__(self, other):
        if not isinstance(other, type(self)):
            return NotImplemented
        return self.values == other.values and self.graph == other.graph

    def __hash__(self):
        return hash(self.values)

    def __repr__(self):
        pairs = ", ".join(f"{v!r}: {x}" for v, x in zip(self.graph.vertices, self.values))
        return f"{type(self).__name__}({{{pairs}}})"
