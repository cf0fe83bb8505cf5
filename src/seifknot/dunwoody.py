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
presents the branched cover geometrically. `check_seifert_diagram` builds
the diagram of a Seifert tuple's knot cover and checks that upper face i
reads the (s + i)-th shift of the defining word, s the cover's shift.

Internally every cell is a small integer. With m = 2a + b, edge j of
meridian i (both counted from 1) has id (i - 1)m + j - 1, and edge j of
arc i follows all meridian edges with id nm + (i - 1)c + j - 1; this is
the order of `GluedDiagram.edges`. Vertices are numbered 0..V-1 after
the identifications that degenerate strand counts force. Each face
boundary is stored once as a list of edge ids, with one traversal-sign
pattern for every upper face and its negative for every lower one; a
slot's end vertices are read from its edge's tail and head. The gluing
runs a list-backed union-find over the slot pairs of those ids, and the
identification rules (`expected_identifications`) speak the same ids.
The tuple names (`GluedDiagram.edges`, `GluedDiagram.edge_classes`, the
text of a `GluingError`) are built only for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

from .freegroup import FreeWord
from .knots11 import CoveredKnot

Edge = tuple[str, int, int]

# raw vertex ids of the poles; the inner vertices of each sheet follow
_SOUTH = 0
_NORTH = 1


class GluingError(ValueError):
    """The face pairing forces an edge onto its own reverse (non-manifold)."""


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

    def locate(self) -> list[tuple[int, int]]:
        """(class index, parity) of each element in turn: classes are
        indexed by first appearance, and parities are re-anchored to the
        first element of each class so the orientation baseline is stable.
        """
        index: dict[int, int] = {}
        anchor_parity: list[int] = []
        location: list[tuple[int, int]] = []
        for x in range(len(self.parent)):
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
        if 2 * self.a + self.b == 0:  # meridians need an edge, so a strand
            raise ValueError("degenerate tessellation")
        if self.s not in (0, 1):
            raise ValueError("shift must be 0 or 1")

    def __str__(self) -> str:
        return f"D({self.a},{self.b},{self.c},{self.n},{self.r},{self.s})"


class GluedDiagram:
    """D(a, b, c, n, r, s): the pole/meridian/arc tessellation of the
    sphere and the result of its face pairing, that is edge classes with
    orientations, vertex classes, and the relators read off the upper
    faces.

    The tessellation carries the vertex identifications that degenerate
    strand counts force (an empty arc merges its two endpoints, an empty
    band merges the vertices it would separate); strand counts whose
    identifications leave no sphere raise ValueError. `edge_location[e]`
    is (class index, parity relative to the class's first edge) of edge id
    e, with classes indexed by first appearance in id order.
    """

    def __init__(self, params: DiagramParams):
        self.params = params
        self._glue(self._tessellate())

    def _tessellate(self) -> int:
        """Build the edge ends (`_tail`, `_head`, indexed by edge id) and
        the face boundaries (`_upper`, `_lower`, face i at index i - 1) of
        the sphere, check that they tessellate it, and return its number
        of vertices."""
        a, b, c, n = self.params.a, self.params.b, self.params.c, self.params.n
        m = 2 * a + b
        # raw vertex ids: the poles, then per sheet the m - 1 inner
        # meridian vertices followed by the c - 1 inner arc vertices
        sheet = m - 1 + max(c - 1, 0)

        def arc_ends(i: int) -> tuple[int, int]:
            """Raw ids of the ends of arc i + 1: a edges up meridian i
            (meridian n for the first arc) and a edges down meridian
            i + 1, so the poles when a = 0."""
            if a == 0:
                return _SOUTH, _NORTH
            return 2 + (i - 1) % n * sheet + a - 1, 2 + i * sheet + a + b - 1

        vertex_of = list(range(2 + n * sheet))
        if c == 0:  # an empty arc merges its ends
            merged = _ParityDSU(len(vertex_of))
            for i in range(n):
                merged.union(*arc_ends(i))
            vertex_of = [k for k, _ in merged.locate()]
        num_vertices = max(vertex_of) + 1

        self._tail: list[int] = []
        self._head: list[int] = []
        for i in range(n):
            base = 2 + i * sheet
            chain = [vertex_of[v] for v in (_SOUTH, *range(base, base + m - 1), _NORTH)]
            self._tail += chain[:-1]
            self._head += chain[1:]
        for i in range(n) if c > 0 else ():  # an empty arc has no edges
            base = 2 + i * sheet + m - 1
            low, high = arc_ends(i)
            chain = [vertex_of[v] for v in (low, *range(base, base + c - 1), high)]
            self._tail += chain[:-1]
            self._head += chain[1:]

        # The face above arc i starts at the north pole: down the top of
        # meridian i, backwards along the arc, then up the middle and top
        # of meridian i - 1. The face below it starts at the south pole: up
        # the bottom of meridian i - 1, along the arc, then down the middle
        # and bottom of meridian i. Every face has the same traversal signs
        # as the others on its side, +1 along an edge and -1 against it.
        self._up_signs = [-1] * (a + c) + [1] * (a + b)
        self._low_signs = [1] * (a + c) + [-1] * (a + b)
        self._upper: list[list[int]] = []
        self._lower: list[list[int]] = []
        for i in range(n):
            mer = i * m  # first edge of meridian i + 1
            prev = (i - 1) % n * m  # first edge of meridian i
            arc = n * m + i * c  # first edge of arc i + 1
            self._upper.append([
                *range(mer + m - 1, mer + m - 1 - a, -1),
                *range(arc + c - 1, arc - 1, -1),
                *range(prev + a, prev + m),
            ])
            self._lower.append([
                *range(prev, prev + a),
                *range(arc, arc + c),
                *range(mer + a + b - 1, mer - 1, -1),
            ])
        self._check_boundaries(vertex_of[_NORTH], vertex_of[_SOUTH])
        if num_vertices - len(self._tail) + 2 * n != 2:  # 2n faces
            raise ValueError(
                f"strand counts a={a}, b={b}, c={c} with n={n} force vertex "
                "identifications that do not tessellate a sphere"
            )
        return num_vertices

    def _check_boundaries(self, north: int, south: int) -> None:
        """Check that every face boundary chains from its base pole back to
        it."""
        tail, head = self._tail, self._head
        length = 2 * self.params.a + self.params.b + self.params.c
        for i in range(self.params.n):
            for edges, signs, base in (
                (self._upper[i], self._up_signs, north),
                (self._lower[i], self._low_signs, south),
            ):
                if len(edges) != length:
                    raise AssertionError("boundary length mismatch")
                at = base
                for e, sign in zip(edges, signs):
                    start, end = (tail[e], head[e]) if sign > 0 else (head[e], tail[e])
                    if start != at:
                        raise AssertionError("boundary cycle does not chain")
                    at = end
                if at != base:
                    raise AssertionError("boundary cycle does not close")

    def _slots(self) -> Iterator[tuple[int, int, int, int]]:
        """Each boundary slot of the face pairing as (u, v, eps, delta):
        upper edge u, the lower edge v glued to it, and their traversal
        signs, so u and v are glued against their orientations exactly
        when eps == delta. The gluing unions these pairs and
        identification-rules compares them with the closed-form ones."""
        n, r, s = self.params.n, self.params.r, self.params.s
        # slot x of upper face j meets slot (r - 1 - x) mod L of its lower
        # partner, read backwards from a start the twist sets; so the start
        # of slot x meets the end of the partner slot
        low_signs = _backwards(self._low_signs, r - 1)
        for j in range(n):
            yield from zip(
                self._upper[j],
                _backwards(self._lower[(j + s) % n], r - 1),
                self._up_signs,
                low_signs,
            )

    def _glue(self, num_vertices: int) -> None:
        """Pair each upper face with its lower partner, merging edges (with
        their relative orientation) and vertices."""
        tail, head = self._tail, self._head
        edge_dsu = _ParityDSU(len(tail))
        vertex_dsu = _ParityDSU(num_vertices)
        join_edges, join_vertices = edge_dsu.union, vertex_dsu.union
        try:
            for u, v, eps, delta in self._slots():
                join_edges(u, v, eps == delta)
                join_vertices(
                    tail[u] if eps > 0 else head[u],
                    head[v] if delta > 0 else tail[v],
                )
        except GluingError:
            raise GluingError(
                f"edge {self.edges[u]} is forced to match its own reverse "
                f"via {self.edges[v]}"
            ) from None

        self.vertex_class_count = vertex_dsu.classes
        self._edge_class_count = edge_dsu.classes
        self.edge_location = edge_dsu.locate()

    @cached_property
    def edges(self) -> list[Edge]:
        """Every edge in id order: ("m", i, j) is edge j of meridian i,
        counted up from the south pole; ("a", i, j) is edge j of arc i."""
        p = self.params
        m, c = 2 * p.a + p.b, p.c
        meridians = range(1, p.n + 1)
        return [("m", i, j) for i in meridians for j in range(1, m + 1)] + [
            ("a", i, j) for i in meridians for j in range(1, c + 1)
        ]

    @cached_property
    def edge_classes(self) -> list[list[tuple[Edge, int]]]:
        """The edges of each class with their parities, in edge order."""
        classes: list[list[tuple[Edge, int]]] = [
            [] for _ in range(self._edge_class_count)
        ]
        for e, (idx, rel) in zip(self.edges, self.edge_location):
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
        location = self.edge_location
        m = 2 * self.params.a + self.params.b
        firsts = [location[i * m][0] for i in range(n)]  # edge ("m", i + 1, 1)
        if len(set(firsts)) != n:
            raise GluingError(
                "the first edges of the meridians do not lie in distinct "
                "edge classes, so they cannot label the generators"
            )
        labels = {cls: i + 1 for i, cls in enumerate(firsts)}
        start = self.params.a + self.params.c if self.params.s == 0 else self.params.a
        signs = self._up_signs[start:] + self._up_signs[:start]
        words = []
        for edges in self._upper:
            syllables = []
            for e, sign in zip(edges[start:] + edges[:start], signs):
                cls, par = location[e]
                syllables.append((labels[cls], sign if par == 0 else -sign))
            words.append(FreeWord(n, syllables))
        return words


def expected_identifications(a: int, b: int, c: int, n: int) -> list[tuple[int, int]]:
    """Orientation-preserving edge-id pairs (ids as in `GluedDiagram.edges`)
    that the gluing with twist a + c and shift 0 must produce: each
    meridian edge below the top band matches the edge a steps higher on
    the previous meridian, and the 2a + c edges of the bottom-arc-top path
    across each face match themselves shifted by a. Together these are
    exactly one pair per boundary slot, n(2a + b + c) in all.
    """
    if a < 1:
        raise ValueError("the shifted-path family needs a >= 1")
    m = 2 * a + b
    pairs: list[tuple[int, int]] = []
    for i in range(n):
        mer = i * m  # first edge of meridian i + 1
        prev = (i - 1) % n * m  # first edge of the meridian before it
        arc = n * m + i * c  # first edge of arc i + 1
        pairs += [(mer + j, prev + j + a) for j in range(a + b)]
        path = [*range(prev, prev + a), *range(arc, arc + c), *range(mer + a + b, mer + m)]
        pairs += zip(path, path[a:])
    return pairs


def check_seifert_diagram(cover: CoveredKnot, w: FreeWord) -> tuple[GluedDiagram, bool]:
    """Build D(a, b, c, n, r, s) for the n-fold cover, with shift s, of the
    knot K(a, b, c, r), and say whether it meets the one-vertex/n-edge
    criterion and face i reads the (s + i)-th shift of the defining word w:
    returns (diagram, relators match)."""
    k, s = cover.knot, cover.shift
    diagram = GluedDiagram(DiagramParams(k.a, k.b, k.c, cover.sheets, k.r, s))
    match = diagram.satisfies_cover_criterion() and all(
        word == w.shift(s + i) for i, word in enumerate(diagram.read_off_words())
    )
    return diagram, match
