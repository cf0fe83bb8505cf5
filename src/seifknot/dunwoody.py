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
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Hashable, Iterable, Sequence

from .freegroup import FreeWord, seifert_word
from .knots11 import knot_from_seifert

Edge = tuple[str, int, int]
Vertex = Hashable
Slot = tuple[Edge, int]

SOUTH = ("pole", "S")
NORTH = ("pole", "N")


class GluingError(ValueError):
    """The face pairing forces an edge onto its own reverse (non-manifold)."""


class _ParityDSU:
    """Union-find that tracks a relative orientation bit per element.

    Vertex unions leave the bit at its default 0; edge unions record
    whether the two edges are glued with or against their orientations.
    """

    def __init__(self, items: Iterable[Hashable]):
        self.parent: dict[Hashable, Hashable] = {x: x for x in items}
        self.parity: dict[Hashable, int] = {x: 0 for x in self.parent}

    def find(self, x: Hashable) -> tuple[Hashable, int]:
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
        for node in reversed(path):
            par ^= self.parity[node]
            parent[node] = root
            self.parity[node] = par
        return root, par

    def union(self, x: Hashable, y: Hashable, rel: int = 0) -> None:
        """Record orientation(x) = orientation(y) xor rel."""
        rx, px = self.find(x)
        ry, py = self.find(y)
        if rx == ry:
            if px ^ py != rel:
                raise GluingError(
                    f"edge {x} is forced to match its own reverse via {y}"
                )
            return
        self.parent[ry] = rx
        self.parity[ry] = px ^ rel ^ py

    def roots(self) -> list[Hashable]:
        """One representative per class, in order of first appearance."""
        return list(dict.fromkeys(self.find(x)[0] for x in self.parent))

    def locate(self, order: Iterable[Hashable]) -> dict[Hashable, tuple[int, int]]:
        """Element -> (class index, parity): classes are indexed by first
        appearance in the given order, and parities are re-anchored to the
        first element of each class so the orientation baseline is stable.
        """
        index: dict[Hashable, int] = {}
        anchor_parity: list[int] = []
        location: dict[Hashable, tuple[int, int]] = {}
        for x in order:
            root, par = self.find(x)
            if root not in index:
                index[root] = len(anchor_parity)
                anchor_parity.append(par)
            idx = index[root]
            location[x] = (idx, par ^ anchor_parity[idx])
        return location


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
        self.cycle_length = 2 * a + b + c

        self.edges: list[Edge] = []
        for i in range(1, n + 1):
            self.edges.extend(("m", i, j) for j in range(1, 2 * a + b + 1))
        for i in range(1, n + 1):
            self.edges.extend(("a", i, j) for j in range(1, c + 1))

        raw: list[Vertex] = [SOUTH, NORTH]
        for i in range(1, n + 1):
            raw.extend(("mv", i, h) for h in range(1, 2 * a + b))
            raw.extend(("av", i, t) for t in range(1, c))
        self._vertex_dsu = _ParityDSU(raw)
        if c == 0:
            for i in range(1, n + 1):
                self._vertex_dsu.union(
                    self._meridian_vertex(self._prev(i), a),
                    self._meridian_vertex(i, a + b),
                )
        self._endpoints: dict[Edge, tuple[Vertex, Vertex]] = {}
        for e in self.edges:
            kind, i, j = e
            if kind == "m":
                tail = self._meridian_vertex(i, j - 1)
                head = self._meridian_vertex(i, j)
            else:
                tail = self._arc_vertex(i, j - 1)
                head = self._arc_vertex(i, j)
            self._endpoints[e] = (
                self._vertex_dsu.find(tail)[0],
                self._vertex_dsu.find(head)[0],
            )
        self.vertices: list[Vertex] = sorted(self._vertex_dsu.roots(), key=repr)
        self._check_boundaries()
        if self.euler_characteristic() != 2:
            raise ValueError(
                f"strand counts a={a}, b={b}, c={c} with n={n} force vertex "
                "identifications that do not tessellate a sphere"
            )

    def _prev(self, i: int) -> int:
        return i - 1 if i > 1 else self.n

    def _meridian_vertex(self, i: int, h: int) -> Vertex:
        if h == 0:
            return SOUTH
        if h == 2 * self.a + self.b:
            return NORTH
        return ("mv", i, h)

    def _arc_vertex(self, i: int, t: int) -> Vertex:
        if t == 0:
            return self._meridian_vertex(self._prev(i), self.a)
        if t == self.c:
            return self._meridian_vertex(i, self.a + self.b)
        return ("av", i, t)

    def endpoints(self, e: Edge) -> tuple[Vertex, Vertex]:
        return self._endpoints[e]

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    @property
    def num_faces(self) -> int:
        return 2 * self.n

    def euler_characteristic(self) -> int:
        return self.num_vertices - self.num_edges + self.num_faces

    def upper_boundary(self, i: int) -> list[Slot]:
        """Boundary of the face above arc i, starting at the north pole:
        down the top of meridian i, backwards along the arc, then up the
        middle and top of meridian i-1. Signs are traversal directions.
        """
        a, b, c = self.a, self.b, self.c
        prev = self._prev(i)
        cyc: list[Slot] = []
        cyc.extend((("m", i, 2 * a + b - t + 1), -1) for t in range(1, a + 1))
        cyc.extend((("a", i, c - t + 1), -1) for t in range(1, c + 1))
        cyc.extend((("m", prev, a + t), +1) for t in range(1, b + 1))
        cyc.extend((("m", prev, a + b + t), +1) for t in range(1, a + 1))
        return cyc

    def lower_boundary(self, i: int) -> list[Slot]:
        """Boundary of the face below arc i, starting at the south pole:
        up the bottom of meridian i-1, along the arc, then down the middle
        and bottom of meridian i.
        """
        a, b, c = self.a, self.b, self.c
        prev = self._prev(i)
        cyc: list[Slot] = []
        cyc.extend((("m", prev, t), +1) for t in range(1, a + 1))
        cyc.extend((("a", i, t), +1) for t in range(1, c + 1))
        cyc.extend((("m", i, a + b - t + 1), -1) for t in range(1, a + b + 1))
        return cyc

    def _slot_ends(self, slot: Slot) -> tuple[Vertex, Vertex]:
        (edge, sign) = slot
        tail, head = self.endpoints(edge)
        return (tail, head) if sign > 0 else (head, tail)

    def corner(self, cycle: Sequence[Slot], position: int) -> Vertex:
        """Vertex at the given boundary position: the start of the slot
        position + 1 (position 0 is the cycle's base pole)."""
        return self._slot_ends(cycle[position % len(cycle)])[0]

    def _check_boundaries(self) -> None:
        for i in range(1, self.n + 1):
            for cycle, base in (
                (self.upper_boundary(i), NORTH),
                (self.lower_boundary(i), SOUTH),
            ):
                if len(cycle) != self.cycle_length:
                    raise AssertionError("boundary length mismatch")
                here = self._vertex_dsu.find(base)[0]
                for slot in cycle:
                    start, end = self._slot_ends(slot)
                    if start != here:
                        raise AssertionError("boundary cycle does not chain")
                    here = end
                if here != self._vertex_dsu.find(base)[0]:
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
        L = tess.cycle_length
        n, r, s = params.n, params.r, params.s

        edge_dsu = _ParityDSU(tess.edges)
        vertex_dsu = _ParityDSU(tess.vertices)
        for j in range(1, n + 1):
            upper = tess.upper_boundary(j)
            partner = ((j + s - 1) % n) + 1
            lower = tess.lower_boundary(partner)
            for k in range(1, L + 1):
                u, eps = upper[k - 1]
                v, delta = lower[(r - k) % L]
                edge_dsu.union(u, v, rel=1 if eps == delta else 0)
            for x in range(L):
                vertex_dsu.union(
                    tess.corner(upper, x), tess.corner(lower, (r - x) % L)
                )

        self.vertex_class_count = len(vertex_dsu.roots())
        self.edge_location: dict[Edge, tuple[int, int]] = edge_dsu.locate(tess.edges)
        self.edge_classes: list[list[tuple[Edge, int]]] = []
        for e, (idx, rel) in self.edge_location.items():
            if idx == len(self.edge_classes):
                self.edge_classes.append([])
            self.edge_classes[idx].append((e, rel))

    def counts(self) -> tuple[int, int, int, int]:
        """(vertex classes, edge classes, faces, 3-cells) after gluing."""
        return (
            self.vertex_class_count,
            len(self.edge_classes),
            self.params.n,
            1,
        )

    def euler_characteristic(self) -> int:
        v, e, f, cells = self.counts()
        return v - e + f - cells

    def satisfies_cover_criterion(self) -> bool:
        """One vertex class and exactly n edge classes: the condition for
        the read-off to present the branched cover."""
        return self.vertex_class_count == 1 and len(self.edge_classes) == self.params.n

    def read_off_words(self) -> list[FreeWord]:
        """One relator per upper face, walking the boundary from the
        anchor corner; each slot contributes its edge-class generator with
        the sign of the traversal relative to the class orientation.
        Generator x_i labels the class of the first (bottom) edge of
        meridian i, so those n edges must lie in n distinct classes."""
        n = self.params.n
        if len(self.edge_classes) != n:
            raise GluingError(
                f"read-off needs exactly {n} edge classes, "
                f"got {len(self.edge_classes)}"
            )
        firsts = [self.edge_location[("m", i, 1)][0] for i in range(1, n + 1)]
        if len(set(firsts)) != n:
            raise GluingError(
                "the first edges of the meridians do not lie in distinct "
                "edge classes, so they cannot label the generators"
            )
        labels = {cls: i + 1 for i, cls in enumerate(firsts)}
        tess = self.tessellation
        L = tess.cycle_length
        start = self.params.a + self.params.c if self.params.s == 0 else self.params.a
        words = []
        for i in range(1, n + 1):
            cycle = tess.upper_boundary(i)
            syllables = []
            for t in range(L):
                edge, sign = cycle[(start + t) % L]
                cls, par = self.edge_location[edge]
                exp = sign * (1 if par == 0 else -1)
                syllables.append((labels[cls], exp))
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
    dsu = _ParityDSU(edges)
    for u, v in pairs:
        dsu.union(u, v)
    return dsu.locate(edges)


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


@dataclass(frozen=True)
class DiagramReport:
    """Outcome of the full pipeline for one Seifert parameter tuple."""

    params: DiagramParams
    counts: tuple[int, int, int, int]
    criterion: bool
    relators_match: bool
    diagram: GluedDiagram = field(compare=False, repr=False)


def check_seifert_diagram(n: int, p: int, q: int, l: int) -> DiagramReport:
    """Build the diagram for (n, p, q, l), test the one-vertex/n-edge
    criterion, and compare the read-off relators with the defining word."""
    params = diagram_from_seifert(n, p, q, l)
    diagram = GluedDiagram(params)
    criterion = diagram.satisfies_cover_criterion()
    match = False
    if criterion:
        match = read_off_matches_cyclic(
            diagram.read_off_words(), seifert_word(n, p, q, l)
        )
    return DiagramReport(params, diagram.counts(), criterion, match, diagram)
