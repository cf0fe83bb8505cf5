import hashlib
from collections import Counter
from itertools import product

import pytest

from seifknot.dunwoody import (
    DiagramParams,
    _ParityDSU,
    GluedDiagram,
    GluingError,
    check_seifert_diagram,
    expected_identifications,
)
from seifknot import verify
from seifknot.freegroup import parse_word, seifert_word
from seifknot.knots11 import knot_from_seifert
from seifknot.presentations import seifert_parameter_grid
from seifknot.verify import GATE_GRID

# digests recorded with the tuple-keyed construction this kernel replaced
GATE_GRID_DIGEST = "4e0a534d655044784237c94e7735a58cd435cef26d67876f96db27084f31fae1"
RAW_SWEEP_DIGEST = "f19a467498c280048057a8239b5d76f4571a69409e7e46169575c7c55a7b5758"


def test_sphere_counts():
    # (V, E, F) of the tessellated sphere before the gluing
    cases = {
        (1, 1, 0, 3, 1, 0): (5, 9, 6),
        (1, 1, 4, 2, 1, 1): (12, 14, 4),
        (2, 2, 1, 3, 3, 0): (17, 21, 6),
        (0, 1, 1, 2, 1, 0): (2, 4, 4),
    }
    for params, (v, e, f) in cases.items():
        a, b, c, n = params[:4]
        diagram = GluedDiagram(DiagramParams(*params))
        vertices = len(set(diagram._tail + diagram._head))
        edges = len(diagram.edges)
        assert (vertices, edges, 2 * n) == (v, e, f)
        assert len(diagram._tail) == len(diagram._head) == len(diagram.edge_location) == edges
        assert vertices - edges + 2 * n == 2
        assert vertices == 2 + n * (2 * a + b + c - 2)


def test_non_sphere_strand_counts_are_rejected():
    # vertex identifications that collapse the sphere
    for params in [(1, 0, 0, 1, 0, 0), (0, 1, 0, 2, 0, 0)]:
        with pytest.raises(ValueError, match="do not tessellate a sphere"):
            GluedDiagram(DiagramParams(*params))
    # the one-loop tessellation is fine
    assert GluedDiagram(DiagramParams(0, 1, 0, 1, 0, 0)).counts() == (1, 1, 1, 1)


def test_boundary_cycles_cover_each_edge_twice():
    diagram = GluedDiagram(DiagramParams(2, 1, 3, 2, 5, 0))
    slots = Counter()
    for i in range(2):
        for edge in diagram._upper[i] + diagram._lower[i]:
            slots[edge] += 1
    assert len(slots) == len(diagram.edges)
    assert set(slots.values()) == {2}


def test_boundary_cycle_length():
    diagram = GluedDiagram(DiagramParams(2, 2, 1, 3, 3, 0))
    length = 2 * 2 + 2 + 1
    assert len(diagram._up_signs) == len(diagram._low_signs) == length
    for i in range(3):
        for face in (diagram._upper[i], diagram._lower[i]):
            assert len(face) == length


def test_glued_diagram_pinned_counts():
    diagram = GluedDiagram(DiagramParams(1, 1, 0, 3, 1, 0))
    assert diagram.counts() == (1, 3, 3, 1)
    assert diagram.satisfies_cover_criterion()
    vertices, edges, faces, cells = diagram.counts()
    assert vertices - edges + faces - cells == 0
    assert sorted(len(cls) for cls in diagram.edge_classes) == [3, 3, 3]
    assert [str(w) for w in diagram.read_off_words()] == [
        "x1 x2 x3^-1",
        "x2 x3 x1^-1",
        "x3 x1 x2^-1",
    ]

    diagram = GluedDiagram(DiagramParams(1, 1, 4, 2, 1, 1))
    assert diagram.counts() == (1, 2, 2, 1)
    assert diagram.satisfies_cover_criterion()


def test_glued_diagram_failing_rotation():
    diagram = GluedDiagram(DiagramParams(1, 1, 0, 3, 0, 0))
    assert diagram.counts() == (2, 4, 3, 1)
    assert not diagram.satisfies_cover_criterion()
    with pytest.raises(GluingError):
        diagram.read_off_words()


def seifert_diagram(n, p, q, l, word=None):
    """(diagram, relators match) for the point, read off against its
    defining word unless another word is given."""
    if word is None:
        word = seifert_word(n, p, q, l)
    return check_seifert_diagram(knot_from_seifert(n, p, q, l), word)


def test_seifert_diagram_params_pinned():
    assert seifert_diagram(3, 2, 1, 1)[0].params == DiagramParams(1, 1, 0, 3, 1, 0)
    assert seifert_diagram(2, 3, 2, 2)[0].params == DiagramParams(1, 1, 4, 2, 1, 1)
    assert seifert_diagram(3, 5, 2, 1)[0].params == DiagramParams(2, 2, 1, 3, 3, 0)


def test_check_seifert_diagram():
    for params in [(2, 3, 2, 2), (3, 2, 1, 1), (3, 5, 2, 1), (4, 3, 2, 1)]:
        cover = knot_from_seifert(*params)
        k = cover.knot
        diagram, relators_match = check_seifert_diagram(cover, seifert_word(*params))
        assert diagram.params == DiagramParams(k.a, k.b, k.c, params[0], k.r, cover.shift)
        assert diagram.counts()[0] == 1
        assert diagram.counts()[1] == params[0]
        assert diagram.satisfies_cover_criterion()
        assert relators_match


def test_read_off_matches_cyclic():
    assert seifert_diagram(3, 2, 1, 1)[1]
    assert not seifert_diagram(3, 2, 1, 1, parse_word("x1 x2 x3", 3))[1]


@pytest.mark.parametrize(
    "point", [(3, 2, 1, 1), (2, 3, 2, 2)], ids=["aligned", "crossed"]
)
def test_read_off_is_compared_at_the_covers_shift(point):
    # face i must read the defining word shifted by exactly s + i; another
    # relabeling shift of the same word does not match
    diagram, relators_match = seifert_diagram(*point)
    assert diagram.satisfies_cover_criterion() and relators_match
    assert not seifert_diagram(*point, seifert_word(*point).shift(1))[1]


def edge_partition_from_pairs(num_edges, pairs):
    """(class index, parity) of each edge id in range(num_edges), from
    orientation-preserving pairs, with classes indexed by first appearance
    in id order: comparable to `GluedDiagram.edge_location`."""
    dsu = _ParityDSU(num_edges)
    for u, v in pairs:  # parity 0 throughout, so no union can contradict
        dsu.union(u, v)
    return dsu.locate()


def test_expected_identifications_match_gluing():
    aligned = [point for point in seifert_parameter_grid(*GATE_GRID) if point[1] >= 2 * point[2]]
    assert len(aligned) == 126
    for point in aligned:
        diagram = seifert_diagram(*point)[0]
        params = diagram.params
        assert params.s == 0  # the rules cover the unshifted family
        pairs = expected_identifications(params.a, params.b, params.c, params.n)
        assert len(pairs) == params.n * (2 * params.a + params.b + params.c)
        # the partition the pairs generate, and the pairs themselves
        rebuilt = edge_partition_from_pairs(len(diagram.edges), pairs)
        assert rebuilt == diagram.edge_location, point
        slots = diagram._slots()
        glued = Counter((min(u, v), max(u, v), eps == delta) for u, v, eps, delta in slots)
        assert glued == Counter((min(u, v), max(u, v), False) for u, v in pairs), point


def test_identification_rules_compare_pairs_not_partitions(monkeypatch):
    # every edge lies in two slots, so each edge class is a cycle of pairs:
    # in a class of three or more edges, replacing one pair by a copy of
    # another leaves the partition as it was but not the pairs
    point = (3, 2, 1, 1)
    diagram = seifert_diagram(*point)[0]
    params = diagram.params
    strands = (params.a, params.b, params.c, params.n)
    rules = expected_identifications(*strands)
    location = diagram.edge_location
    sizes = Counter(cls for cls, _ in location)
    i, j = next(
        (i, j)
        for i, (u, _) in enumerate(rules)
        for j, (x, _) in enumerate(rules)
        if rules[i] != rules[j] and location[u][0] == location[x][0]
        and sizes[location[u][0]] >= 3
    )
    doctored = list(rules)
    doctored[i] = rules[j]
    assert edge_partition_from_pairs(len(location), doctored) == location

    def rules_with_a_copy(*args):
        return doctored if args == strands else expected_identifications(*args)

    at = verify._GridPoint(point)
    assert verify._identification_at(at) is None
    monkeypatch.setattr(verify, "expected_identifications", rules_with_a_copy)
    assert verify._identification_at(at) == f"identification mismatch at {point}"


@pytest.mark.parametrize(
    "params,named",
    [
        (
            (1, 1, 1, 2, 2, 0),
            [
                (("m", 1, 1), ("m", 2, 2)),
                (("m", 1, 2), ("m", 2, 3)),
                (("m", 2, 1), ("a", 1, 1)),
                (("a", 1, 1), ("m", 1, 3)),
                (("m", 2, 1), ("m", 1, 2)),
                (("m", 2, 2), ("m", 1, 3)),
                (("m", 1, 1), ("a", 2, 1)),
                (("a", 2, 1), ("m", 2, 3)),
            ],
        ),
        (
            (2, 0, 1, 2, 3, 0),
            [
                (("m", 1, 1), ("m", 2, 3)),
                (("m", 1, 2), ("m", 2, 4)),
                (("m", 2, 1), ("a", 1, 1)),
                (("m", 2, 2), ("m", 1, 3)),
                (("a", 1, 1), ("m", 1, 4)),
                (("m", 2, 1), ("m", 1, 3)),
                (("m", 2, 2), ("m", 1, 4)),
                (("m", 1, 1), ("a", 2, 1)),
                (("m", 1, 2), ("m", 2, 3)),
                (("a", 2, 1), ("m", 2, 4)),
            ],
        ),
    ],
)
def test_expected_identifications_are_pinned(params, named):
    # the id pairs, named through `edges`, are the (kind, i, j) pairs the
    # rules gave when they were written in edge names
    edges = GluedDiagram(DiagramParams(*params)).edges
    pairs = expected_identifications(*params[:4])
    assert [(edges[u], edges[v]) for u, v in pairs] == named


def test_expected_identifications_need_outer_strands():
    with pytest.raises(ValueError):
        expected_identifications(0, 2, 1, 3)


def test_diagram_params_validation():
    with pytest.raises(ValueError):
        DiagramParams(-1, 1, 1, 2, 0, 0)
    with pytest.raises(ValueError):
        DiagramParams(0, 0, 1, 2, 0, 0)  # meridians need an edge
    with pytest.raises(ValueError):
        DiagramParams(0, 0, 0, 1, 0, 0)
    with pytest.raises(ValueError):
        DiagramParams(1, 1, 0, 3, 1, 2)  # shift flag is 0 or 1
    with pytest.raises(ValueError):
        DiagramParams(1, 1, 0, 0, 1, 0)
    assert str(DiagramParams(1, 1, 0, 3, 1, 0)) == "D(1,1,0,3,1,0)"


def test_whole_grid_produces_cover_diagrams():
    for n, p, q, l in seifert_parameter_grid(4, 5, 2):
        diagram, relators_match = seifert_diagram(n, p, q, l)
        assert diagram.satisfies_cover_criterion() and relators_match, (n, p, q, l)


def test_every_raw_cover_diagram_reads_off():
    # each meridian's first edge lands in its own class whenever the cover
    # criterion holds, so read-off never needs another labelling
    covers = 0
    for a, b, c, n, s in product(range(3), range(4), range(4), range(1, 5), (0, 1)):
        for r in range(2 * a + b + c):
            try:
                diagram = GluedDiagram(DiagramParams(a, b, c, n, r, s))
            except ValueError:
                continue  # degenerate or non-sphere strand counts
            if diagram.satisfies_cover_criterion():
                assert len(diagram.read_off_words()) == n
                covers += 1
    assert covers > 100


def test_parity_union_find():
    dsu = _ParityDSU(4)
    dsu.union(0, 1, rel=1)
    dsu.union(1, 2)
    dsu.union(2, 0, rel=1)  # consistent with the first two
    assert dsu.classes == 2
    assert [k for k, _ in dsu.locate()] == [0, 0, 0, 1]
    with pytest.raises(GluingError):
        dsu.union(0, 2)  # 0 and 2 are already glued with opposite orientations

    # unions that make 3 the root of the class {1, 2, 3}, whose first
    # element 1 carries parity 1 relative to it
    dsu = _ParityDSU(4)
    dsu.union(3, 2, rel=1)
    dsu.union(2, 1)
    assert dsu.find(1) == (3, 1)
    # classes by first appearance, parities re-anchored to each class's
    # first element
    assert dsu.locate() == [(0, 0), (1, 0), (1, 0), (1, 1)]


def _diagram_digest(param_list):
    """sha256 over each diagram's edge locations, vertex class count and
    read-off words, or the type of the error its construction or read-off
    raises."""
    digest = hashlib.sha256()
    for params in param_list:
        try:
            diagram = GluedDiagram(DiagramParams(*params))
        except (ValueError, AssertionError) as exc:
            digest.update(f"{params} {type(exc).__name__}\n".encode())
            continue
        try:
            words = [str(w) for w in diagram.read_off_words()]
        except GluingError:
            words = "GluingError"
        location = list(zip(diagram.edges, diagram.edge_location))
        record = (location, diagram.vertex_class_count, words)
        digest.update(f"{params} {record}\n".encode())
    return digest.hexdigest()


def test_gate_grid_diagrams_are_pinned():
    points = seifert_parameter_grid(*GATE_GRID)
    params = []
    for point in points:
        p = seifert_diagram(*point)[0].params
        params.append((p.a, p.b, p.c, p.n, p.r, p.s))
    assert len(params) == 238
    assert _diagram_digest(params) == GATE_GRID_DIGEST


def test_raw_sweep_diagrams_are_pinned():
    params = [
        (a, b, c, n, r, s)
        for a, b, c, n, s in product(range(3), range(4), range(4), range(1, 5), (0, 1))
        for r in range(-1, 2 * a + b + c + 2)
    ]
    assert len(params) == 3072
    assert _diagram_digest(params) == RAW_SWEEP_DIGEST
