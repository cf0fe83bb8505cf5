"""Tessellated-sphere diagrams of strongly cyclic branched covers.

The construction tessellates the 2-sphere with two poles, n meridians of
2a + b edges each (a in each outer band, b in the middle), and n
transversal arcs of c edges. That cuts the sphere into n faces above the
arcs and n below. Gluing each upper face to a lower face, rotated by a
twist r and shifted by s meridians with orientations reversed, produces a
closed pseudo-complex with n 2-cells and one 3-cell.

When the gluing identifies all vertices to a single point and the edges to
exactly n classes, walking each upper face boundary spells out one relator
per face, and those relators form a cyclic presentation: the diagram then
presents the branched cover geometrically. `check_seifert_diagram` runs
the whole pipeline for one Seifert parameter tuple and compares the
read-off against the expected defining word.

Internally every cell is a small integer. With m = 2a + b, edge j of
meridian i (both counted from 1) has id (i - 1)m + j - 1, and edge j of
arc i follows all meridian edges with id nm + (i - 1)c + j - 1; this is
the order of `Tessellation.edges`. Vertices are numbered 0..V-1 after the
identifications that degenerate strand counts force. Each face boundary
is stored once as lists of edge ids, traversal signs and corner vertices,
and the gluing runs a list-backed union-find over those ids. The tuple
forms (`Tessellation.edges`, `GluedDiagram.edge_location`,
`GluedDiagram.edge_classes`) are built from the integer results when they
are first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .freegroup import FreeWord, seifert_word
from .knots11 import knot_from_seifert

Edge = tuple[str, int, int]

# raw vertex ids of the poles; the inner vertices of each sheet follow
_SOUTH = 0
_NORTH = 1


class GluingError(ValueError):
    """The face pairing forces an edge onto its own reverse (non-manifold)."""


def _forced_reverse(u: Edge, v: Edge) -> GluingError:
    return GluingError(f"edge {u} is forced to match its own reverse via {v}")


class _ParityDSU:
    """Union-find over range(size) that tracks a relative orientation bit
    per element.

    Vertex unions leave the bit at its default 0; edge unions record
    whether the two edges are glued with or against their orientations.
    """

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.parity = [0] * size
        self.classes = size  # number of classes

    def find(self, x: int) -> tuple[int, int]:
        parent = self.parent
        up = parent[x]
        if up == x:
            return x, 0
        if parent[up] == up:  # compressed path: x hangs off its root
            return up, self.parity[x]
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        root = x
        par = 0
        parity = self.parity
        for node in reversed(path):
            par ^= parity[node]
            parent[node] = root
            parity[node] = par
        return root, par

    def union(self, x: int, y: int, rel: int = 0) -> None:
        """Record orientation(x) = orientation(y) xor rel."""
        parent, parity = self.parent, self.parity
        # find() inlined for the common cases: a root, or a child of one
        rx = parent[x]
        if rx == x:
            px = 0
        elif parent[rx] == rx:
            px = parity[x]
        else:
            rx, px = self.find(x)
        ry = parent[y]
        if ry == y:
            py = 0
        elif parent[ry] == ry:
            py = parity[y]
        else:
            ry, py = self.find(y)
        if rx == ry:
            if px ^ py != rel:
                raise GluingError(
                    f"element {x} is forced to match its own reverse via {y}"
                )
            return
        parent[ry] = rx
        parity[ry] = px ^ rel ^ py
        self.classes -= 1

    def roots(self) -> list[int]:
        """One representative per class, in order of first appearance."""
        find = self.find
        return list(dict.fromkeys(find(x)[0] for x in range(len(self.parent))))

    def locate(self, order: Iterable[int]) -> list[tuple[int, int]]:
        """(class index, parity) of each element of the given order:
        classes are indexed by first appearance in that order, and
        parities are re-anchored to the first element of each class so the
        orientation baseline is stable.
        """
        index: dict[int, int] = {}
        anchor_parity: list[int] = []
        location: list[tuple[int, int]] = []
        for x in order:
            root, par = self.find(x)
            idx = index.get(root)
            if idx is None:
                idx = index[root] = len(anchor_parity)
                anchor_parity.append(par)
            location.append((idx, par ^ anchor_parity[idx]))
        return location


def _backwards(seq: list[int], start: int) -> list[int]:
    """seq read cyclically backwards, starting at seq[start % len(seq)]."""
    k = (-start - 1) % len(seq)
    rev = seq[::-1]
    return rev[k:] + rev[:k]


class Tessellation:
    """The pole/meridian/arc tessellation of the sphere, with the vertex
    identifications that degenerate parameters force (an empty arc merges
    its two endpoints, an empty band merges the vertices it would separate).
    """

    def __init__(self, a: int, b: int, c: int, n: int):
        if min(a, b, c) < 0 or n < 1:
            raise ValueError("need a, b, c >= 0 and n >= 1")
        if 2 * a + b == 0:
            raise ValueError("meridians need at least one edge (2a + b >= 1)")
        if a + b + c == 0:
            raise ValueError("need at least one strand")
        self.a, self.b, self.c, self.n = a, b, c, n
        m = 2 * a + b
        self.cycle_length = m + c
        self.num_edges = n * (m + c)

        # raw vertex ids: the poles, then per sheet the m - 1 inner
        # meridian vertices followed by the c - 1 inner arc vertices
        self._sheet_size = m - 1 + max(c - 1, 0)
        vertex_of = list(range(2 + n * self._sheet_size))
        if c == 0:
            merged = _ParityDSU(len(vertex_of))
            for i in range(1, n + 1):
                merged.union(
                    self._meridian_vertex(self._prev(i), a),
                    self._meridian_vertex(i, a + b),
                )
            compact = {root: k for k, root in enumerate(merged.roots())}
            vertex_of = [compact[merged.find(x)[0]] for x in vertex_of]
        self.num_vertices = max(vertex_of) + 1

        # endpoints of each edge, indexed by edge id
        self._tail: list[int] = []
        self._head: list[int] = []
        for i in range(1, n + 1):
            base = 2 + (i - 1) * self._sheet_size
            meridian = [_SOUTH, *range(base, base + m - 1), _NORTH]
            chain = [vertex_of[v] for v in meridian]
            self._tail += chain[:-1]
            self._head += chain[1:]
        for i in range(1, n + 1) if c > 0 else ():  # an empty arc has no edges
            base = 2 + (i - 1) * self._sheet_size + m - 1
            arc = [
                self._meridian_vertex(self._prev(i), a),
                *range(base, base + c - 1),
                self._meridian_vertex(i, a + b),
            ]
            chain = [vertex_of[v] for v in arc]
            self._tail += chain[:-1]
            self._head += chain[1:]

        # face boundaries as (edge ids, signs, corners), face i at index i - 1;
        # signs are traversal directions, and the corners are filled in by
        # the boundary walk. The face above arc i starts at the north pole:
        # down the top of meridian i, backwards along the arc, then up the
        # middle and top of meridian i - 1. The face below it starts at the
        # south pole: up the bottom of meridian i - 1, along the arc, then
        # down the middle and bottom of meridian i.
        self._upper: list[tuple[list[int], list[int], list[int]]] = []
        self._lower: list[tuple[list[int], list[int], list[int]]] = []
        up_signs = [-1] * (a + c) + [1] * (a + b)
        low_signs = [1] * (a + c) + [-1] * (a + b)
        for i in range(1, n + 1):
            mer = (i - 1) * m  # first edge of meridian i
            prev = (self._prev(i) - 1) * m  # first edge of meridian i - 1
            arc = n * m + (i - 1) * c  # first edge of arc i
            upper = [
                *range(mer + m - 1, mer + m - 1 - a, -1),
                *range(arc + c - 1, arc - 1, -1),
                *range(prev + a, prev + m),
            ]
            lower = [
                *range(prev, prev + a),
                *range(arc, arc + c),
                *range(mer + a + b - 1, mer - 1, -1),
            ]
            self._upper.append((upper, up_signs, []))
            self._lower.append((lower, low_signs, []))
        self._check_boundaries(vertex_of[_NORTH], vertex_of[_SOUTH])
        if self.num_vertices - self.num_edges + 2 * n != 2:  # 2n faces
            raise ValueError(
                f"strand counts a={a}, b={b}, c={c} with n={n} force vertex "
                "identifications that do not tessellate a sphere"
            )

    def _prev(self, i: int) -> int:
        return i - 1 if i > 1 else self.n

    def _meridian_vertex(self, i: int, h: int) -> int:
        m = 2 * self.a + self.b
        if h == 0:
            return _SOUTH
        if h == m:
            return _NORTH
        return 2 + (i - 1) * self._sheet_size + h - 1

    @cached_property
    def edges(self) -> list[Edge]:
        """Every edge in id order: ("m", i, j) is edge j of meridian i,
        counted up from the south pole; ("a", i, j) is edge j of arc i."""
        m, c = 2 * self.a + self.b, self.c
        meridians = range(1, self.n + 1)
        return [("m", i, j) for i in meridians for j in range(1, m + 1)] + [
            ("a", i, j) for i in meridians for j in range(1, c + 1)
        ]

    def _check_boundaries(self, north: int, south: int) -> None:
        """Check that every face boundary chains from its base pole back to
        it, and record each slot's start corner."""
        tail, head = self._tail, self._head
        for i in range(self.n):
            for (edges, signs, corners), base in (
                (self._upper[i], north),
                (self._lower[i], south),
            ):
                if len(edges) != self.cycle_length:
                    raise AssertionError("boundary length mismatch")
                pairs = [
                    (tail[e], head[e]) if sign > 0 else (head[e], tail[e])
                    for e, sign in zip(edges, signs)
                ]
                corners[:] = [start for start, _ in pairs]
                ends = [end for _, end in pairs]
                if corners[0] != base or corners[1:] != ends[:-1]:
                    raise AssertionError("boundary cycle does not chain")
                if ends[-1] != base:
                    raise AssertionError("boundary cycle does not close")


@dataclass(frozen=True)
class DiagramParams:
    """Gluing data D(a, b, c, n, r, s): strand counts, meridian count,
    twist, and shift (which lower face each upper face lands on)."""

    a: int
    b: int
    c: int
    n: int
    r: int
    s: int

    def __post_init__(self) -> None:
        if min(self.a, self.b, self.c) < 0 or self.n < 1:
            raise ValueError("need a, b, c >= 0 and n >= 1")
        if 2 * self.a + self.b == 0 or self.a + self.b + self.c == 0:
            raise ValueError("degenerate tessellation")
        if self.s not in (0, 1):
            raise ValueError("shift must be 0 or 1")

    def __str__(self) -> str:
        return f"D({self.a},{self.b},{self.c},{self.n},{self.r},{self.s})"


class GluedDiagram:
    """Result of the face pairing: edge classes with orientations, vertex
    classes, and the relators read off the upper faces."""

    def __init__(self, params: DiagramParams):
        self.params = params
        self.tessellation = Tessellation(params.a, params.b, params.c, params.n)
        tess = self.tessellation
        n, r, s = params.n, params.r, params.s

        edge_dsu = _ParityDSU(tess.num_edges)
        vertex_dsu = _ParityDSU(tess.num_vertices)
        join_edges, join_vertices = edge_dsu.union, vertex_dsu.union
        # slot x of upper face j meets slot (r - 1 - x) mod L of its lower
        # partner, and corner x meets corner (r - x) mod L: the partner's
        # boundary is read backwards from a start the twist sets
        try:
            for j in range(n):
                u_edges, u_signs, u_corners = tess._upper[j]
                l_edges, l_signs, l_corners = tess._lower[(j + s) % n]
                for u, v, eps, delta in zip(
                    u_edges,
                    _backwards(l_edges, r - 1),
                    u_signs,
                    _backwards(l_signs, r - 1),
                ):
                    join_edges(u, v, eps == delta)
                for x, y in zip(u_corners, _backwards(l_corners, r)):
                    join_vertices(x, y)
        except GluingError:
            raise _forced_reverse(tess.edges[u], tess.edges[v]) from None

        self.vertex_class_count = vertex_dsu.classes
        self._edge_class_count = edge_dsu.classes
        # (class index, parity) per edge id, classes by first appearance
        self._location = edge_dsu.locate(range(tess.num_edges))

    @cached_property
    def edge_location(self) -> dict[Edge, tuple[int, int]]:
        """Edge -> (class index, parity relative to the class's first edge)."""
        return dict(zip(self.tessellation.edges, self._location))

    @cached_property
    def edge_classes(self) -> list[list[tuple[Edge, int]]]:
        """The edges of each class with their parities, in edge order."""
        classes: list[list[tuple[Edge, int]]] = [
            [] for _ in range(self._edge_class_count)
        ]
        for e, (idx, rel) in zip(self.tessellation.edges, self._location):
            classes[idx].append((e, rel))
        return classes

    def counts(self) -> tuple[int, int, int, int]:
        """(vertex classes, edge classes, faces, 3-cells) after gluing."""
        return (
            self.vertex_class_count,
            self._edge_class_count,
            self.params.n,
            1,
        )

    def satisfies_cover_criterion(self) -> bool:
        """One vertex class and exactly n edge classes: the condition for
        the read-off to present the branched cover."""
        return self.vertex_class_count == 1 and self._edge_class_count == self.params.n

    def read_off_words(self) -> list[FreeWord]:
        """One relator per upper face, walking the boundary from the
        anchor corner; each slot contributes its edge-class generator with
        the sign of the traversal relative to the class orientation.
        Generator x_i labels the class of the first (bottom) edge of
        meridian i, so those n edges must lie in n distinct classes."""
        n = self.params.n
        if self._edge_class_count != n:
            raise GluingError(
                f"read-off needs exactly {n} edge classes, "
                f"got {self._edge_class_count}"
            )
        location = self._location
        m = 2 * self.params.a + self.params.b
        firsts = [location[i * m][0] for i in range(n)]  # edge ("m", i + 1, 1)
        if len(set(firsts)) != n:
            raise GluingError(
                "the first edges of the meridians do not lie in distinct "
                "edge classes, so they cannot label the generators"
            )
        labels = {cls: i + 1 for i, cls in enumerate(firsts)}
        start = self.params.a + self.params.c if self.params.s == 0 else self.params.a
        words = []
        for edges, signs, _ in self.tessellation._upper:
            syllables = []
            for e, sign in zip(
                edges[start:] + edges[:start], signs[start:] + signs[:start]
            ):
                cls, par = location[e]
                syllables.append((labels[cls], sign if par == 0 else -sign))
            words.append(FreeWord(n, syllables))
        return words


def diagram_from_seifert(n: int, p: int, q: int, l: int) -> DiagramParams:
    """Gluing data whose diagram presents the Seifert manifold with
    invariants (n, p, q, l) as an n-fold strongly cyclic branched cover."""
    cover = knot_from_seifert(n, p, q, l)
    k = cover.knot
    return DiagramParams(k.a, k.b, k.c, n, k.r, cover.shift)


def expected_identifications(
    a: int, b: int, c: int, n: int
) -> list[tuple[Edge, Edge]]:
    """Orientation-preserving edge pairs that the gluing with twist a + c
    and shift 0 must produce: each meridian edge below the top band
    matches the edge a steps higher on the previous meridian, and the
    2a + c edges of the bottom-arc-top path across each face match
    themselves shifted by a. Together these are exactly one pair per
    boundary slot, n(2a + b + c) in all.
    """
    if a < 1:
        raise ValueError("the shifted-path family needs a >= 1")
    pairs: list[tuple[Edge, Edge]] = []
    for i in range(1, n + 1):
        prev = i - 1 if i > 1 else n
        for j in range(1, a + b + 1):
            pairs.append((("m", i, j), ("m", prev, j + a)))
        path: list[Edge] = (
            [("m", prev, t) for t in range(1, a + 1)]
            + [("a", i, t) for t in range(1, c + 1)]
            + [("m", i, a + b + t) for t in range(1, a + 1)]
        )
        for j in range(len(path) - a):
            pairs.append((path[j], path[j + a]))
    return pairs


def edge_partition_from_pairs(
    edges: Sequence[Edge], pairs: Iterable[tuple[Edge, Edge]]
) -> dict[Edge, tuple[int, int]]:
    """Edge -> (class index, parity) from orientation-preserving pairs,
    with classes indexed by first appearance in the given edge order.
    Comparable to GluedDiagram.edge_location when fed the same edge list.
    """
    index = {e: k for k, e in enumerate(edges)}
    dsu = _ParityDSU(len(edges))
    try:
        for u, v in pairs:
            dsu.union(index[u], index[v])
    except GluingError:
        raise _forced_reverse(u, v) from None
    return dict(zip(edges, dsu.locate(range(len(edges)))))


def read_off_matches_cyclic(words: Sequence[FreeWord], w: FreeWord) -> bool:
    """Do the read-off relators present the cyclic presentation of w?

    True when, after some uniform relabeling shift k, face i reads exactly
    the (k + i)-th shift of the defining word.
    """
    n = w.n
    if len(words) != n:
        return False
    return any(
        all(words[i] == w.shift(k + i) for i in range(n)) for k in range(n)
    )


def check_seifert_diagram(n: int, p: int, q: int, l: int) -> tuple[GluedDiagram, bool]:
    """Build the diagram for (n, p, q, l) and say whether it meets the
    one-vertex/n-edge criterion and reads off the defining word's cyclic
    presentation: returns (diagram, relators match)."""
    diagram = GluedDiagram(diagram_from_seifert(n, p, q, l))
    match = diagram.satisfies_cover_criterion() and read_off_matches_cyclic(
        diagram.read_off_words(), seifert_word(n, p, q, l)
    )
    return diagram, match
