import hashlib
from collections import Counter
from itertools import product

import pytest

from seifknot.dunwoody import (
    DiagramParams,
    _ParityDSU,
    GluedDiagram,
    GluingError,
    Tessellation,
    check_seifert_diagram,
    diagram_from_seifert,
    edge_partition_from_pairs,
    expected_identifications,
    read_off_matches_cyclic,
)
from seifknot.freegroup import parse_word, seifert_word
from seifknot.presentations import seifert_parameter_grid
from seifknot.verify import GATE_GRID

# digests recorded with the tuple-keyed construction this kernel replaced
GATE_GRID_DIGEST = "4e0a534d655044784237c94e7735a58cd435cef26d67876f96db27084f31fae1"
RAW_SWEEP_DIGEST = "f19a467498c280048057a8239b5d76f4571a69409e7e46169575c7c55a7b5758"


def test_tessellation_counts():
    cases = {
        (1, 1, 0, 3): (5, 9, 6),
        (1, 1, 4, 2): (12, 14, 4),
        (2, 2, 1, 3): (17, 21, 6),
        (0, 1, 1, 2): (2, 4, 4),
    }
    for (a, b, c, n), (v, e, f) in cases.items():
        tess = Tessellation(a, b, c, n)
        assert (tess.num_vertices, tess.num_edges, 2 * n) == (v, e, f)
        assert tess.num_vertices - tess.num_edges + 2 * n == 2
        assert tess.num_vertices == 2 + n * (2 * a + b + c - 2)


def test_tessellation_validation():
    with pytest.raises(ValueError):
        Tessellation(-1, 1, 1, 2)
    with pytest.raises(ValueError):
        Tessellation(0, 0, 1, 2)  # meridians need an edge
    with pytest.raises(ValueError):
        Tessellation(0, 0, 0, 1)
    # vertex identifications that collapse the sphere
    with pytest.raises(ValueError):
        Tessellation(1, 0, 0, 1)
    with pytest.raises(ValueError):
        Tessellation(0, 1, 0, 2)
    Tessellation(0, 1, 0, 1)  # the one-loop tessellation is fine


def test_boundary_cycles_cover_each_edge_twice():
    tess = Tessellation(2, 1, 3, 2)
    slots = Counter()
    for i in range(2):
        for edge in tess._upper[i][0] + tess._lower[i][0]:
            slots[edge] += 1
    assert len(slots) == tess.num_edges
    assert set(slots.values()) == {2}


def test_boundary_cycle_length():
    tess = Tessellation(2, 2, 1, 3)
    for i in range(3):
        for face in (tess._upper[i], tess._lower[i]):
            assert [len(run) for run in face] == [tess.cycle_length] * 3


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


def test_diagram_from_seifert_pinned():
    assert diagram_from_seifert(3, 2, 1, 1) == DiagramParams(1, 1, 0, 3, 1, 0)
    assert diagram_from_seifert(2, 3, 2, 2) == DiagramParams(1, 1, 4, 2, 1, 1)
    assert diagram_from_seifert(3, 5, 2, 1) == DiagramParams(2, 2, 1, 3, 3, 0)


def test_check_seifert_diagram():
    for params in [(2, 3, 2, 2), (3, 2, 1, 1), (3, 5, 2, 1), (4, 3, 2, 1)]:
        diagram, relators_match = check_seifert_diagram(*params)
        assert diagram.params == diagram_from_seifert(*params)
        assert diagram.counts()[0] == 1
        assert diagram.counts()[1] == params[0]
        assert diagram.satisfies_cover_criterion()
        assert relators_match


def test_read_off_matches_cyclic():
    diagram = GluedDiagram(DiagramParams(1, 1, 0, 3, 1, 0))
    words = diagram.read_off_words()
    assert read_off_matches_cyclic(words, seifert_word(3, 2, 1, 1))
    assert not read_off_matches_cyclic(words, parse_word("x1 x2 x3", 3))


def test_expected_identifications_match_gluing():
    for seifert in [(3, 5, 2, 1), (2, 5, 2, 2), (4, 7, 3, 1)]:
        params = diagram_from_seifert(*seifert)
        assert params.s == 0  # the rules cover the unshifted family
        diagram = GluedDiagram(params)
        pairs = expected_identifications(params.a, params.b, params.c, params.n)
        assert len(pairs) == params.n * diagram.tessellation.cycle_length
        rebuilt = edge_partition_from_pairs(diagram.tessellation.edges, pairs)
        assert rebuilt == diagram.edge_location


def test_expected_identifications_need_outer_strands():
    with pytest.raises(ValueError):
        expected_identifications(0, 2, 1, 3)


def test_diagram_params_validation():
    with pytest.raises(ValueError):
        DiagramParams(1, 1, 0, 3, 1, 2)  # shift flag is 0 or 1
    with pytest.raises(ValueError):
        DiagramParams(1, 1, 0, 0, 1, 0)
    assert str(DiagramParams(1, 1, 0, 3, 1, 0)) == "D(1,1,0,3,1,0)"


def test_whole_grid_produces_cover_diagrams():
    for n, p, q, l in seifert_parameter_grid(4, 5, 2):
        diagram, relators_match = check_seifert_diagram(n, p, q, l)
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
    assert dsu.roots() == [0, 3]
    # classes by first appearance in the order, parities re-anchored to
    # each class's first element
    assert dsu.locate([3, 2, 1, 0]) == [(0, 0), (1, 0), (1, 0), (1, 1)]
    with pytest.raises(GluingError):
        dsu.union(0, 2)  # 0 and 2 are already glued with opposite orientations


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
        record = (list(diagram.edge_location.items()), diagram.vertex_class_count, words)
        digest.update(f"{params} {record}\n".encode())
    return digest.hexdigest()


def test_gate_grid_diagrams_are_pinned():
    points = seifert_parameter_grid(*GATE_GRID)
    params = []
    for point in points:
        p = diagram_from_seifert(*point)
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
