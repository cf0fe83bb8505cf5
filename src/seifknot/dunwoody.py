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

The diagram is Z/n-symmetric: the sheet shift, which moves each meridian
and arc to the next and fixes the two poles, carries upper face j and its
lower partner onto face j + 1 and its partner. So the gluing is computed on
one sector. With m = 2a + b and L = m + c, sector edge x < m is edge x + 1
of meridian 1 and sector edge x >= m is edge x - m + 1 of arc 1; its copy
on sheet i is the same edge of meridian (or arc) i + 1. Face 0's upper and
lower boundaries are stored as L (sector edge, sheet offset) pairs, and
each sector edge's ends as (sector vertex, sheet offset) pairs. Face 0's L
slot pairs are the edges of a voltage graph over Z/n x Z/2 (sheet offset,
orientation flip), and one union-find on the L sector edges and one on the
sector vertices glue all n faces at once (Gross and Tucker, Topological
Graph Theory, 1987).

Each root of such a union-find carries its holonomy, the subgroup
<(g, phi)> + <(0, eps)> of Z/n x Z/2 that the closed walks through it
realize, with g | n. The copies of a root on sheets t and t + g are one
class, glued with flip phi, so the root lifts to g classes; eps = 1 means
that an edge is glued to its own reverse, a `GluingError`. Only upper
face 0's relator is read slot by slot: the shift maps the class of
generator x_i onto that of x_(i+1), reversed where the first edges of
meridians i and i + 1 lie against their classes differently, so face
j + 1 reads the image of face j's relator under x_i -> x_(i+1)^(+-1).

Edge ids number the whole diagram: edge j of meridian i (both counted
from 1) has id (i - 1)m + j - 1, and edge j of arc i follows all meridian
edges with id nm + (i - 1)c + j - 1; this is the order of
`GluedDiagram.edges`, of `edge_location` and `slots()`, and of the
identification rules (`expected_identifications`). These per-edge
listings cost time linear in nL and are built, by arithmetic on the
sector's union-find, only when read.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import gcd
from typing import Iterator

from .freegroup import FreeWord
from .knots11 import CoveredKnot

Edge = tuple[str, int, int]

# sector vertex ids of the poles; the inner vertices of meridian 1, then
# those of arc 1, follow
_SOUTH = 0
_NORTH = 1

Holonomy = tuple[int, int, int]


class GluingError(ValueError):
    """The face pairing forces an edge onto its own reverse (non-manifold)."""


def _bezout(a: int, b: int) -> tuple[int, int]:
    """(x, y) with x a + y b = gcd(a, b), by the extended Euclidean
    algorithm."""
    x0, y0, x1, y1 = 1, 0, 0, 1
    while b:
        q = a // b
        a, b = b, a - q * b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    return x0, y0


def _add_to_holonomy(n: int, hol: Holonomy, k: int, pi: int) -> Holonomy:
    """The subgroup <(g, phi)> + <(0, eps)> of Z/n x Z/2, given as
    hol = (g, phi, eps) with g | n and (n/g)phi in <eps>, with the element
    (k, pi), 0 <= k < n, added; the result has the same form."""
    g, phi, eps = hol
    h = gcd(g, k)
    if h == g:  # (k, pi) - (k/g)(g, phi) lies in Z/2
        return g, phi, eps | (pi ^ k // g * phi) & 1
    x, y = _bezout(g, k)
    new_phi = (x * phi + y * pi) & 1  # (h, new_phi) = x(g, phi) + y(k, pi)
    eps |= (phi ^ g // h * new_phi) & 1  # (g, phi) - (g/h)(h, new_phi)
    eps |= (pi ^ k // h * new_phi) & 1
    # (n/h)(h, new_phi) = (0, ...) needs no term of its own: it is n/g
    # times (g/h)(h, new_phi), which is (g, phi) up to <eps>
    return h, new_phi, eps


class _VoltageDSU:
    """Union-find over the sector nodes of a Z/n-symmetric complex. Node x
    stands for its copies (x, t) on the sheets t in Z/n, a single copy if
    the shift fixes it. Each node stores the sheet offset and orientation
    flip to its parent, (x, t) ~ (parent, t + offset) with that flip, and
    each root its holonomy (see `_add_to_holonomy`), (1, 0, 0) for a fixed
    node."""

    def __init__(self, size: int, n: int, fixed: tuple[int, ...] = ()):
        self.n = n
        self.parent = list(range(size))
        self.offset = [0] * size
        self.parity = [0] * size
        self.holonomy = [(n, 0, 0)] * size
        for x in fixed:
            self.holonomy[x] = (1, 0, 0)

    def find(self, x: int) -> tuple[int, int, int]:
        """(root, offset, flip) with (x, t) ~ (root, t + offset) glued
        with that orientation flip."""
        parent, offset, parity, n = self.parent, self.offset, self.parity, self.n
        up = parent[x]
        if up == x:
            return x, 0, 0
        if parent[up] == up:  # compressed path: x hangs off its root
            return up, offset[x], parity[x]
        path = []
        while parent[x] != x:
            path.append(x)
            x = parent[x]
        off = flip = 0
        for node in reversed(path):
            off = (off + offset[node]) % n
            flip ^= parity[node]
            parent[node], offset[node], parity[node] = x, off, flip
        return x, off, flip

    def union(self, x: int, y: int, k: int, flip: int = 0) -> None:
        """Glue (x, t) to (y, t + k) with orientation flip `flip`, on every
        sheet t."""
        parent, offset, parity, holonomy, n = (
            self.parent, self.offset, self.parity, self.holonomy, self.n
        )
        # find() inlined for the common cases: a root, or a child of one
        rx = parent[x]
        if rx == x:
            ox = px = 0
        elif parent[rx] == rx:
            ox, px = offset[x], parity[x]
        else:
            rx, ox, px = self.find(x)
        ry = parent[y]
        if ry == y:
            oy = py = 0
        elif parent[ry] == ry:
            oy, py = offset[y], parity[y]
        else:
            ry, oy, py = self.find(y)
        d = (k + oy - ox) % n  # (rx, t) ~ (ry, t + d)
        flip ^= px ^ py
        if rx == ry:  # a closed walk
            holonomy[rx] = _add_to_holonomy(n, holonomy[rx], d, flip)
            return
        parent[ry], offset[ry], parity[ry] = rx, -d % n, flip
        g, phi, eps = holonomy[ry]
        if g != n or eps:  # ry's closed walks, now through rx
            g, phi, eps_x = _add_to_holonomy(n, holonomy[rx], g % n, phi)
            holonomy[rx] = g, phi, eps_x | eps

    def roots(self) -> list[int]:
        return [x for x, up in enumerate(self.parent) if up == x]

    def classes(self) -> int:
        """The number of classes the nodes' copies fall into."""
        return sum(self.holonomy[x][0] for x in self.roots())


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
        a, b, c, n = params.a, params.b, params.c, params.n
        m = 2 * a + b
        length = m + c

        # The face above arc 1 starts at the north pole: down the top of
        # meridian 1, backwards along the arc, then up the middle and top
        # of meridian n, one sheet back. The face below it starts at the
        # south pole: up the bottom of meridian n, along the arc, then down
        # the middle and bottom of meridian 1. Face j is face 0 moved by j
        # sheets; traversal signs are +1 along an edge and -1 against it.
        up = [
            *((x, 0) for x in range(m - 1, m - 1 - a, -1)),
            *((x, 0) for x in range(length - 1, m - 1, -1)),
            *((x, -1) for x in range(a, m)),
        ]
        low = [
            *((x, -1) for x in range(a)),
            *((x, 0) for x in range(m, length)),
            *((x, 0) for x in range(a + b - 1, -1, -1)),
        ]
        up_signs = [-1] * (a + c) + [1] * (a + b)
        low_signs = [1] * (a + c) + [-1] * (a + b)
        self._up, self._up_signs = up, up_signs

        # The ends of each sector edge. An arc runs from a edges up
        # meridian n to a edges down meridian 1, so between the poles when
        # a = 0; an empty arc merges those ends.
        meridian = [(_SOUTH, 0), *((2 + k, 0) for k in range(m - 1)), (_NORTH, 0)]
        ends = ((_SOUTH, 0), (_NORTH, 0)) if a == 0 else ((1 + a, -1), (1 + a + b, 0))
        arc = [ends[0], *((m + 1 + k, 0) for k in range(c - 1)), ends[1]] if c else []
        self._ends = [*zip(meridian, meridian[1:]), *zip(arc, arc[1:])]
        vertices = _VoltageDSU(1 + m + max(c - 1, 0), n, fixed=(_SOUTH, _NORTH))
        if c == 0:
            (low_end, low_sheet), (high_end, high_sheet) = ends
            vertices.union(low_end, high_end, high_sheet - low_sheet)
        num_vertices = vertices.classes()
        self._check_boundaries(vertices, low, low_signs)
        if num_vertices - n * length + 2 * n != 2:  # 2n faces
            raise ValueError(
                f"strand counts a={a}, b={b}, c={c} with n={n} force vertex "
                "identifications that do not tessellate a sphere"
            )

        # slot k of upper face j meets slot (r - 1 - k) mod L of its lower
        # partner, face j + s, read backwards from a start the twist sets;
        # so the start of slot k meets the end of the partner slot
        self._slots = []
        for k, ((x, sheet), eps) in enumerate(zip(up, up_signs)):
            partner = (params.r - 1 - k) % length
            (y, partner_sheet), delta = low[partner], low_signs[partner]
            self._slots.append((x, sheet, y, partner_sheet + params.s, eps, delta))
        self._glue(vertices)

    def _check_boundaries(
        self, vertices: _VoltageDSU, low: list[tuple[int, int]], low_signs: list[int]
    ) -> None:
        """Check that face 0's boundaries chain from their base poles back
        to them; by the symmetry, every face's then do."""
        length = 2 * self.params.a + self.params.b + self.params.c

        place = [vertices.find(v) for v in range(len(vertices.parent))]

        def vertex(end: tuple[int, int], sheet: int) -> tuple[int, int]:
            node, shift = end
            root, offset, _ = place[node]
            return root, (sheet + shift + offset) % vertices.holonomy[root][0]

        for edges, signs, base in (
            (self._up, self._up_signs, (_NORTH, 0)),
            (low, low_signs, (_SOUTH, 0)),
        ):
            if len(edges) != length:
                raise AssertionError("boundary length mismatch")
            at = vertex(base, 0)
            for (x, sheet), sign in zip(edges, signs):
                start, end = self._ends[x] if sign > 0 else self._ends[x][::-1]
                if vertex(start, sheet) != at:
                    raise AssertionError("boundary cycle does not chain")
                at = vertex(end, sheet)
            if at != vertex(base, 0):
                raise AssertionError("boundary cycle does not close")

    def _glue(self, vertices: _VoltageDSU) -> None:
        """Pair upper face 0 with its lower partner, merging sector edges
        (with their sheet offset and relative orientation) and sector
        vertices; by the symmetry this glues every face."""
        n = self.params.n
        ends = self._ends
        edges = _VoltageDSU(len(ends), n)
        for x, sheet, y, partner_sheet, eps, delta in self._slots:
            edges.union(x, y, partner_sheet - sheet, eps == delta)
            start, start_sheet = ends[x][0] if eps > 0 else ends[x][1]
            end, end_sheet = ends[y][1] if delta > 0 else ends[y][0]
            vertices.union(start, end, partner_sheet + end_sheet - sheet - start_sheet)

        self.vertex_class_count = vertices.classes()
        self._sector = [edges.find(x) for x in range(len(ends))]
        self._holonomy = edges.holonomy
        for x, (root, _, _) in enumerate(self._sector):
            if edges.holonomy[root][2]:
                m = 2 * self.params.a + self.params.b
                edge = ("m", 1, x + 1) if x < m else ("a", 1, x - m + 1)
                raise GluingError(f"{self.params}: edge {edge} is glued to its own reverse")
        self._edge_class_count = edges.classes()

    def slots(self) -> Iterator[tuple[int, int, int, int]]:
        """Each boundary slot of the face pairing as (u, v, eps, delta):
        upper edge u, the lower edge v glued to it, and their traversal
        signs, so u and v are glued against their orientations exactly
        when eps == delta. Face by face, each face's L slots in turn; the
        identification-rules check compares them with the closed-form
        pairs."""
        p = self.params
        n, m, c = p.n, 2 * p.a + p.b, p.c
        # the id of sector edge x on sheet t is base + t * stride
        place = [(x, m) for x in range(m)] + [(n * m + x, c) for x in range(c)]
        table = [
            (*place[x], sheet, *place[y], partner_sheet, eps, delta)
            for x, sheet, y, partner_sheet, eps, delta in self._slots
        ]
        for j in range(n):
            for base, stride, sheet, partner, partner_stride, partner_sheet, eps, delta in table:
                yield (
                    base + (sheet + j) % n * stride,
                    partner + (partner_sheet + j) % n * partner_stride,
                    eps,
                    delta,
                )

    @cached_property
    def edge_location(self) -> list[tuple[int, int]]:
        """(class index, parity) of each edge id in turn: classes are
        indexed by first appearance, and parities are relative to the
        first edge of each class. Sector edge x on sheet i lies at sheet
        t = i + offset of its root, in the root's class t mod g, with flip
        phi for each g sheets."""
        p = self.params
        n, m = p.n, 2 * p.a + p.b
        index: dict[tuple[int, int], int] = {}
        anchor_parity: list[int] = []
        location: list[tuple[int, int]] = []
        sector, holonomy = self._sector, self._holonomy
        for part in (range(m), range(m, m + p.c)):
            for i in range(n):
                for x in part:
                    root, offset, flip = sector[x]
                    g, phi, _ = holonomy[root]
                    t = (i + offset) % n
                    key = root, t % g
                    parity = flip ^ (phi & t // g)
                    idx = index.get(key)
                    if idx is None:
                        idx = index[key] = len(anchor_parity)
                        anchor_parity.append(parity)
                    location.append((idx, parity ^ anchor_parity[idx]))
        return location

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
        the sign of the traversal relative to the class orientation, that
        of the class's first edge. Generator x_i labels the class of the
        first (bottom) edge of meridian i, so those n edges must lie in n
        distinct classes."""
        p = self.params
        n, m = p.n, 2 * p.a + p.b
        if self._edge_class_count != n:
            raise GluingError(
                f"read-off needs exactly {n} edge classes, "
                f"got {self._edge_class_count}"
            )
        sector = self._sector
        root, first_offset, first_flip = sector[0]  # edge ("m", 1, 1)
        if self._holonomy[root][0] != n:
            raise GluingError(
                "the first edges of the meridians do not lie in distinct "
                "edge classes, so they cannot label the generators"
            )
        # So every edge lies in the one root, and sector edge x on sheet i
        # in class t = i + offset mod n, with its own flip. Class t's first
        # edge is a meridian edge: the least x at the nearest offset at or
        # below t, cyclically.
        least = [-1] * n
        for x in range(m):
            offset = sector[x][1]
            if least[offset] < 0:
                least[offset] = x
        first = least[max(t for t in range(n) if least[t] >= 0)]
        anchor_flip = []
        for t in range(n):
            if least[t] >= 0:
                first = least[t]
            anchor_flip.append(sector[first][2])

        start = p.a + p.c if p.s == 0 else p.a
        syllables = []
        for (x, sheet), sign in zip(self._up[start:] + self._up[:start],
                                    self._up_signs[start:] + self._up_signs[:start]):
            _, offset, flip = sector[x]
            t = (sheet + offset) % n
            syllables.append(((t - first_offset) % n + 1, -sign if flip ^ anchor_flip[t] else sign))
        word = FreeWord(n, syllables)

        # the shift maps x_i's class onto x_(i+1)'s, reversed where the
        # first edges of meridians i and i + 1 lie against their classes'
        # first edges differently
        against = [first_flip ^ anchor_flip[(i + first_offset) % n] for i in range(n)]
        image = [(0, 0)] + [
            (i % n + 1, -1 if against[i - 1] != against[i % n] else 1) for i in range(1, n + 1)
        ]
        words = [word]
        for _ in range(n - 1):
            word = FreeWord._reduced(n, tuple(
                (image[gen][0], image[gen][1] * exp) for gen, exp in word.syllables
            ))
            words.append(word)
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
