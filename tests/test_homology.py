import hashlib
import json
import random
from itertools import combinations, permutations
from math import gcd, prod

import pytest

from seifknot import homology
from seifknot.cli import main
from seifknot.homology import (
    AbelianGroup,
    bareiss_determinant,
    circulant_order,
    cokernel,
    cokernel_cj_dp,
    cyclic_h1,
    first_homology,
    resultant,
    seifert_h1,
    smith_normal_form,
    standard_h1,
    verify_snf_certificate,
)
from seifknot.freegroup import FreeWord, seifert_word
from seifknot.knots11 import knot_from_seifert
from seifknot.presentations import (
    Presentation,
    seifert_cyclic_presentation,
    seifert_parameter_grid,
    standard_seifert_presentation,
)
from seifknot import verify
from seifknot.verify import GATE_GRID


def test_bareiss_determinant():
    assert bareiss_determinant([]) == 1
    assert bareiss_determinant([[7]]) == 7
    assert bareiss_determinant([[1, 2], [3, 4]]) == -2
    assert bareiss_determinant([[0, 1], [1, 0]]) == -1
    assert bareiss_determinant([[2, 0, 0], [0, 3, 0], [0, 0, 5]]) == 30
    assert bareiss_determinant([[1, 2], [2, 4]]) == 0
    # against the Leibniz expansion, with zero pivots and singular matrices
    rng = random.Random(3)
    for _ in range(300):
        size = rng.randint(1, 5)
        mat = [[rng.choice([0, 0, rng.randint(-9, 9)]) for _ in range(size)] for _ in range(size)]
        leibniz = 0
        for perm in permutations(range(size)):
            inversions = sum(perm[i] > perm[j] for i, j in combinations(range(size), 2))
            leibniz += (-1) ** inversions * prod(mat[i][perm[i]] for i in range(size))
        assert bareiss_determinant(mat) == leibniz, mat


def test_smith_normal_form_pinned():
    mat = [[4, 1], [1, 4]]
    d, u, v = smith_normal_form(mat)
    assert d == [[1, 0], [0, 15]]
    assert verify_snf_certificate(mat, d, u, v)


def test_smith_normal_form_rectangular():
    mat = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    d, u, v = smith_normal_form(mat)
    assert [d[i][i] for i in range(3)] == [2, 2, 156]
    assert verify_snf_certificate(mat, d, u, v)
    wide = [[1, 2, 3], [4, 5, 6]]
    d, u, v = smith_normal_form(wide)
    assert [d[i][i] for i in range(2)] == [1, 3]
    assert verify_snf_certificate(wide, d, u, v)


def test_snf_certificate_rejects_tampering():
    mat = [[4, 1], [1, 4]]
    d, u, v = smith_normal_form(mat)
    assert not verify_snf_certificate(mat, [[1, 0], [0, 14]], u, v)
    assert not verify_snf_certificate(mat, [[15, 0], [0, 1]], u, v)
    # one broken property at a time
    mat = [[2, 4, 4], [-6, 6, 12], [10, -4, -16]]
    d, u, v = smith_normal_form(mat)
    assert verify_snf_certificate(mat, d, u, v)
    identity2 = [[1, 0], [0, 1]]
    broken = [
        # u and v of the wrong width would not even multiply
        (mat, d, [row[:2] for row in u], v),
        (mat, d, u, v[:2]),
        (mat, d[:2], u, v),  # d has the wrong size
        (mat, [[1, 0, 0], [0, 6, 0], [0, 0, 12]], u, v),  # u mat v != d
        ([[2]], [[4]], [[2]], [[1]]),  # u mat v == d, but det u = 2
        ([[1, 1], [0, 1]], [[1, 1], [0, 1]], identity2, identity2),  # off-diagonal
        ([[-1]], [[-1]], [[1]], [[1]]),  # negative diagonal entry
        ([[2, 0], [0, 3]], [[2, 0], [0, 3]], identity2, identity2),  # 2 does not divide 3
        ([[0, 0], [0, 1]], [[0, 0], [0, 1]], identity2, identity2),  # zero before nonzero
    ]
    for case in broken:
        assert not verify_snf_certificate(*case), case


def test_matrix_shape_errors():
    with pytest.raises(ValueError, match="ragged matrix"):
        smith_normal_form([[1, 2], [3]])
    with pytest.raises(ValueError, match="ragged matrix"):
        verify_snf_certificate([[1]], [[1]], [[1], [0, 1]], [[1]])
    with pytest.raises(ValueError, match="row width does not match column count"):
        cokernel([[1, 2, 3]], 2)


def test_snf_random_certificates():
    rng = random.Random(11)
    for _ in range(150):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        d, u, v = smith_normal_form(mat)
        assert verify_snf_certificate(mat, d, u, v)


def _smith_digest(matrices):
    """sha256 over each matrix's Smith form (d, u, v) and its cokernel."""
    digest = hashlib.sha256()
    for mat in matrices:
        cols = len(mat[0]) if mat else 3
        record = (smith_normal_form(mat), cokernel(mat, cols))
        digest.update(f"{mat} {record}\n".encode())
    return digest.hexdigest()


# digests recorded before the elimination was bordered with identities
GATE_GRID_SMITH_DIGEST = "c78e2e82a6c3c65e21646916e0d22b84a1ff0bcc79ae4b38af238dae3530e86f"
RANDOM_SMITH_DIGEST = "e9312888726f4770c40a30a69fb7e679a7b3c24e721ce09c410bbf8f12deeb82"


def test_gate_grid_smith_forms_are_pinned():
    matrices = []
    for point in seifert_parameter_grid(*GATE_GRID):
        for build in (seifert_cyclic_presentation, standard_seifert_presentation):
            matrices.append(build(*point).relation_matrix())
    assert len(matrices) == 476
    assert _smith_digest(matrices) == GATE_GRID_SMITH_DIGEST
    for mat in matrices:
        assert verify_snf_certificate(mat, *smith_normal_form(mat)), mat


def test_random_smith_forms_are_pinned():
    # drawn as check_property_suite draws its matrices, up to 6 x 6, with
    # zero and repeated rows; then the empty and one-row/one-column shapes
    rng = random.Random(2024)
    matrices = []
    for _ in range(2000):
        rows = rng.randint(0, 6)
        cols = rng.randint(0, 6)
        mat = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        if rows and cols and rng.random() < 0.3:
            mat[rng.randrange(rows)] = [0] * cols
        if rows >= 2 and rng.random() < 0.3:
            mat[rng.randrange(rows)] = list(mat[rng.randrange(rows)])
        matrices.append(mat)
    matrices += [[], [[]], [[]] * 3]
    for size in range(1, 9):
        row = [rng.randint(-30, 30) for _ in range(size)]
        matrices += [[row], [[x] for x in row], [[0] * size], [[0]] * size]
    assert _smith_digest(matrices) == RANDOM_SMITH_DIGEST


def test_abelian_group_strings_and_orders():
    assert str(AbelianGroup(2, ())) == "Z^2"
    assert str(AbelianGroup(1, (2,))) == "Z + Z/2"
    assert str(AbelianGroup(0, (3, 15))) == "Z/3 + Z/15"
    assert AbelianGroup(0, (3, 15)).order() == 45
    assert AbelianGroup(1, ()).order() is None
    trivial = AbelianGroup(0, ())
    assert trivial.order() == 1
    assert str(trivial) == "0"


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup(0, (3, 4))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroup(-1, ())
    with pytest.raises(ValueError):
        AbelianGroup(0, (0,))


def test_cokernel():
    assert cokernel([[2, 0], [0, 3]], 2) == AbelianGroup(0, (6,))
    assert cokernel([], 2) == AbelianGroup(2, ())
    assert cokernel([[0, 0]], 2) == AbelianGroup(2, ())
    assert cokernel([[1, 0], [0, 1]], 2) == AbelianGroup(0, ())
    assert cokernel([[2, 0]], 2) == AbelianGroup(1, (2,))


def test_first_homology_pinned():
    assert str(first_homology(seifert_cyclic_presentation(3, 2, 1, 1))) == "Z/2 + Z/2"
    assert str(first_homology(seifert_cyclic_presentation(2, 3, 2, 2))) == "Z/15"
    assert (
        str(first_homology(seifert_cyclic_presentation(4, 3, 2, 1)))
        == "Z/3 + Z/3 + Z/15"
    )


@pytest.mark.parametrize(
    "point, h1",
    [
        ((2, 4, 1, 2), "Z + Z/2"),  # m = |nlq - p| = 0: the last summand is Z
        ((3, 4, 1, 2), "Z/2 + Z/4 + Z/4"),  # g = gcd(p, l) = 2
        ((3, 2, 1, 1), "Z/2 + Z/2"),
        ((2, 3, 2, 2), "Z/15"),
    ],
)
def test_seifert_h1_closed_form(point, h1):
    assert str(seifert_h1(*point)) == h1
    assert seifert_h1(*point) == first_homology(seifert_cyclic_presentation(*point))


def test_seifert_h1_rejects_parameters_outside_the_family():
    for point in [(1, 3, 1, 1), (3, 4, 2, 1), (2, 3, 1, 1)]:
        with pytest.raises(ValueError):
            seifert_h1(*point)


def test_first_homology_route_independence():
    for params in [(2, 3, 2, 2), (3, 2, 1, 1), (3, 5, 2, 1), (4, 3, 2, 1)]:
        cyclic = first_homology(seifert_cyclic_presentation(*params))
        standard = first_homology(standard_seifert_presentation(*params))
        assert cyclic == standard


def test_cokernel_cj_dp_matches_dense_cokernel():
    rng = random.Random(12)
    for _ in range(2500):
        n = rng.randint(2, 9)
        c, d = rng.randint(-12, 12), rng.randint(-12, 12)
        if rng.random() < 0.1:
            c, d = rng.choice([(0, d), (c, 0), (0, 0), (c, -n * c)])
        perm = rng.sample(range(n), n)
        mat = [[c + d * (perm[i] == j) for j in range(n)] for i in range(n)]
        assert cokernel_cj_dp(n, c, d) == cokernel(mat, n), (n, c, d, perm)
    assert cokernel_cj_dp(3, 0, 0) == AbelianGroup(3)
    with pytest.raises(ValueError, match="need n >= 2"):
        cokernel_cj_dp(1, 2, 3)
    with pytest.raises(ValueError, match="need n >= 2"):
        cyclic_h1(Presentation(("x1",), (FreeWord(1, [(1, 2)]),)))


def _large_points():
    rng = random.Random(40)
    points = []
    for n in (40, 105, 150):
        for l in (1, 2, 3):
            p = rng.randint(2, 13)
            q = rng.choice([q for q in range(1, p) if gcd(p, q) == 1])
            points.append((n, p, q, l))
    return points


@pytest.mark.parametrize(
    "points",
    [seifert_parameter_grid(8, 11, 4), _large_points()],
    ids=["stress-grid", "large-n"],
)
def test_linear_routes_match_dense_smith_forms(points):
    for point in points:
        cyclic = seifert_cyclic_presentation(*point)
        standard = standard_seifert_presentation(*point)
        closed = seifert_h1(*point)
        assert cyclic_h1(cyclic) == first_homology(cyclic) == closed, point
        assert standard_h1(standard) == first_homology(standard) == closed, point


def _with_relator(pres, index, relator):
    relators = list(pres.relators)
    relators[index] = FreeWord(pres.num_generators, relator)
    return Presentation(pres.generators, tuple(relators))


@pytest.mark.parametrize(
    "index, relator, premise",
    [
        (5, [(1, 4), (6, 2)], "fibre rows"),  # y1^4 h^2 for y1^5 h^2
        (7, [(2, 5), (6, 2)], "fibre rows"),  # y3's fibre row names y2
        (2, [(3, 1), (6, 1)], "commutator row"),
        (10, [(1, 1), (2, 1), (3, 1), (4, 1), (5, 2), (6, 1)], "pivot on y"),
        (9, [(5, 2), (6, 2)], "pivot on h"),  # y^2 h^2 for y^2 h
        (10, [(1, 1), (2, 1), (3, 2), (4, 1), (5, 1), (6, 1)], r"t h \+ a"),
    ],
)
def test_standard_route_refuses_a_failed_premise(index, relator, premise):
    pres = _with_relator(standard_seifert_presentation(4, 5, 2, 2), index, relator)
    with pytest.raises(ValueError, match=premise):
        standard_h1(pres)


def test_cyclic_route_refuses_a_failed_premise():
    pres = seifert_cyclic_presentation(4, 5, 2, 1)  # rotations of (2, 2, 2, -3)
    with pytest.raises(ValueError, match="relator 2 is not relator 0 shifted by 2"):
        cyclic_h1(_with_relator(pres, 2, [(1, 2), (2, 2), (3, 2), (4, -3)]))
    word = FreeWord(4, [(1, 2), (2, 2), (3, 3), (4, -3)])
    rotations = Presentation(pres.generators, tuple(word.shift(k) for k in range(4)))
    with pytest.raises(ValueError, match="not constant but for one"):
        cyclic_h1(rotations)


def test_linear_routes_build_no_dense_matrix(monkeypatch, capsys):
    def dense(*args):
        raise AssertionError("a dense relation matrix or elimination was used")

    monkeypatch.setattr(homology, "_diagonalize", dense)
    monkeypatch.setattr(Presentation, "relation_matrix", dense)
    with pytest.raises(AssertionError):  # the patches are in place
        first_homology(seifert_cyclic_presentation(3, 2, 1, 1))
    h1 = seifert_h1(150, 7, 2, 3)
    for source in ("cyclic", "standard"):
        assert main(["--json", "homology", source, "150", "7", "2", "3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out == {"rank": h1.rank, "torsion": list(h1.torsion)}


def test_resultant_pinned():
    assert resultant([1, 0, 1], [-1, 0, 1]) == 4  # res(x^2+1, x^2-1)
    assert resultant([-1, 1], [1, 1]) == 2  # res(x-1, x+1)
    assert resultant([-1, 1], [-1, 0, 1]) == 0  # shared root at 1


def test_resultant_swap_sign():
    f = [3, 1, 2]
    g = [-1, 4, 0, 1]
    assert resultant(f, g) == (-1) ** (2 * 3) * resultant(g, f)
    h = [5, 1]
    assert resultant(h, f) == (-1) ** (1 * 2) * resultant(f, h)


def test_circulant_order():
    assert circulant_order([4, 1]) == 15
    assert circulant_order([1, 1, -1]) == 4
    assert circulant_order([1, -1]) == 0  # singular: infinite quotient
    assert circulant_order([2]) == 2


def test_circulant_order_matches_cokernel():
    for row in [[4, 1], [1, 1, -1], [3, 0, 1, 1], [2, -1, 0, -1]]:
        n = len(row)
        mat = [[row[(j - i) % n] for j in range(n)] for i in range(n)]
        group = cokernel(mat, n)
        order = group.order()
        assert circulant_order(row) == (0 if order is None else order)


def test_h1_order_is_p_power_times_ambient_lens_order():
    # |H1(M)| = p^(n-1) |nlq - p|, and |nlq - p| is the order of H1 of the
    # lens space the knot K(a,b,c,r) lives in; 0 stands for infinite H1
    for n, p, q, l in seifert_parameter_grid(*GATE_GRID):
        order = circulant_order(seifert_word(n, p, q, l).exponent_vector())
        assert order == p ** (n - 1) * abs(n * l * q - p), (n, p, q, l)
        assert knot_from_seifert(n, p, q, l).ambient[0] == abs(n * l * q - p)
    # the stricter check passes on a grid and keeps its detail string
    grid = seifert_parameter_grid(4, 5, 2)
    for point in grid:
        assert verify._homology_at(verify._GridPoint(point)) is None, point
    assert verify._homology_tail(grid) == (
        True,
        "45 parameter tuples, H1 equal both routes",
    )


@pytest.mark.parametrize(
    "call",
    [
        lambda: smith_normal_form([[1.5, 2.0]]),
        lambda: cokernel([[True, 2]], 2),
        lambda: resultant([1.9, 1], ["3", 1]),
        lambda: bareiss_determinant([[2.7]]),
    ],
    ids=["snf-float", "cokernel-bool", "resultant-float-string", "bareiss-float"],
)
def test_entries_are_never_coerced(call):
    # each of these once truncated its entries with int()
    with pytest.raises(ValueError, match="entries must be integers"):
        call()
