import random
from fractions import Fraction

import pytest

from seifknot.foxcalc import (
    ONE,
    ZERO,
    LaurentPoly,
    alexander_matrix,
    alexander_polynomial,
    example_knot_presentation,
    fox_derivative,
    laurent_determinant,
    laurent_gcd,
)
from seifknot.freegroup import FreeWord, parse_word
from seifknot.presentations import Presentation, seifert_cyclic_presentation


def lp(low, *coeffs):
    return LaurentPoly(low, coeffs)


def test_laurent_construction_trims():
    assert lp(0, 0, 1, 0) == lp(1, 1)
    assert lp(3) == ZERO
    assert lp(5, 0, 0) == ZERO
    assert not ZERO
    assert ONE


def test_laurent_arithmetic():
    one_plus_t = lp(0, 1, 1)
    one_minus_t = lp(0, 1, -1)
    assert one_plus_t * one_minus_t == lp(0, 1, 0, -1)
    assert one_plus_t + one_minus_t == lp(0, 2)
    assert one_plus_t - one_plus_t == ZERO
    assert -one_plus_t == lp(0, -1, -1)
    assert lp(-1, 1) * lp(1, 1) == ONE


def test_laurent_evaluation():
    p = lp(-1, 1, 0, 3)  # t^-1 + 3t
    assert p(2) == Fraction(1, 2) + 6
    assert p(-1) == -4
    assert ZERO(5) == 0


def test_laurent_str():
    assert str(lp(0, 1, -4, 5, -4, 1)) == "1 - 4t + 5t^2 - 4t^3 + t^4"
    assert str(lp(-2, 1, 0, -3)) == "t^-2 - 3"
    assert str(ZERO) == "0"
    assert str(lp(1, 1)) == "t"


def test_laurent_normalized():
    assert lp(-2, -1, 2).normalized() == lp(0, 1, -2)
    assert lp(3, 2, 4).normalized() == lp(0, 2, 4)
    assert ZERO.normalized() == ZERO


def test_laurent_gcd():
    a = lp(0, 1, 0, -1)  # 1 - t^2
    b = lp(0, 1, 1)  # 1 + t
    assert laurent_gcd([a, b]) == b
    assert laurent_gcd([lp(0, 2, 2), lp(0, 4)]) == lp(0, 2)
    assert laurent_gcd([ZERO, b]) == b
    assert laurent_gcd([lp(2, 6), lp(0, 4)]) == lp(0, 2)


def test_fox_derivative_syllables():
    x_sq = FreeWord(2, ((1, 2),))
    x_inv = FreeWord(2, ((1, -1),))
    xy = FreeWord(2, ((1, 1), (2, 1)))
    assert fox_derivative(x_sq, 1) == lp(0, 1, 1)  # 1 + t
    assert fox_derivative(x_inv, 1) == lp(-1, -1)  # -t^-1
    assert fox_derivative(xy, 1) == ONE
    assert fox_derivative(xy, 2) == lp(1, 1)
    assert fox_derivative(FreeWord(2, ((2, 1),)), 1) == ZERO


def test_fox_derivative_product_rule():
    u = parse_word("x1 x2^-1 x1", 2)
    v = parse_word("x2 x1^2", 2)
    for gen in (1, 2):
        lhs = fox_derivative(u * v, gen)
        t_wu = LaurentPoly.monomial(1, sum(e for _, e in u.letters()))
        rhs = fox_derivative(u, gen) + t_wu * fox_derivative(v, gen)
        assert lhs == rhs


def test_fox_fundamental_identity():
    w = parse_word("x1^2 x2^-3 x1 x2", 2)
    weights = (2, 1)
    total = ZERO
    for gen in (1, 2):
        shift = LaurentPoly.monomial(1, weights[gen - 1]) - ONE
        total = total + fox_derivative(w, gen, weights) * shift
    weight_of_w = sum(e * weights[g - 1] for g, e in w.letters())
    assert total == LaurentPoly.monomial(1, weight_of_w) - ONE


def test_fox_derivative_with_weights():
    xy = FreeWord(2, ((1, 1), (2, 1)))
    assert fox_derivative(xy, 2, weights=(3, 1)) == lp(3, 1)


def test_fox_derivative_rejects_bad_generator_and_weight_count():
    word = FreeWord(2, [(1, 2), (2, -1)])
    for gen in (0, 3, -1):
        with pytest.raises(ValueError, match="outside 1..2"):
            fox_derivative(word, gen)
    for weights in ([1], [1, 2, 3], []):
        with pytest.raises(ValueError, match="one weight per generator"):
            fox_derivative(word, 1, weights)


@pytest.mark.parametrize(
    "weights", [[1.9, "3"], [True, 2], [1, 2.0]], ids=["float-string", "bool", "float"]
)
def test_weights_are_never_coerced(weights):
    # int() would read the first two as (1, 3) and (1, 2) and answer 1 + t
    with pytest.raises(ValueError, match="weights must be integers"):
        fox_derivative(FreeWord(2, [(1, 2)]), 1, weights)


def test_alexander_trefoil():
    trefoil = Presentation(
        ("x", "y"), (parse_word("x y x y^-1 x^-1 y^-1", 2, ("x", "y")),)
    )
    matrix = alexander_matrix(trefoil)
    assert len(matrix) == 1 and len(matrix[0]) == 2
    assert str(alexander_polynomial(trefoil)) == "1 - t + t^2"


def test_alexander_example_pinned():
    pres = example_knot_presentation()
    delta = alexander_polynomial(pres)
    assert delta == lp(0, 1, -4, 5, -4, 1)
    assert abs(delta(-1)) == 15
    assert abs(delta(1)) == 1  # knot polynomial normalization


def test_alexander_needs_deficiency_one():
    with pytest.raises(ValueError):
        alexander_polynomial(seifert_cyclic_presentation(3, 2, 1, 1))


def test_laurent_determinant():
    t = lp(1, 1)
    mat = [[ONE, t], [t, ONE]]
    assert laurent_determinant(mat) == ONE - t * t
    assert laurent_determinant([]) == ONE
    with pytest.raises(ValueError):
        laurent_determinant([[ONE, t]])


# -- oracle: the cofactor expansion Bareiss elimination replaced ----------------


def _cofactor_determinant(matrix):
    size = len(matrix)
    if size == 0:
        return ONE
    total = ZERO
    for j in range(size):
        if not matrix[0][j]:
            continue
        minor = [[row[k] for k in range(size) if k != j] for row in matrix[1:]]
        term = matrix[0][j] * _cofactor_determinant(minor)
        total = total + term if j % 2 == 0 else total - term
    return total


def _random_laurent(rng):
    if rng.random() < 0.35:
        return ZERO
    return LaurentPoly(rng.randint(-2, 2), [rng.randint(-3, 3) for _ in range(rng.randint(1, 3))])


def test_bareiss_matches_cofactor_expansion():
    rng = random.Random(5)
    kinds = {"zero pivot": 0, "singular": 0}
    for case in range(400):
        size = rng.randint(1, 6)
        mat = [[_random_laurent(rng) for _ in range(size)] for _ in range(size)]
        if size >= 2 and case % 4 == 1:  # force a row swap at the first pivot
            mat[0][0] = ZERO
            kinds["zero pivot"] += 1
        if size >= 2 and case % 4 == 2:  # a row that is a multiple of another
            i, j = rng.sample(range(size), 2)
            factor = _random_laurent(rng)
            mat[i] = [factor * x for x in mat[j]]
            kinds["singular"] += 1
        want = _cofactor_determinant(mat)
        assert laurent_determinant(mat) == want, mat
        if size >= 2 and case % 4 == 2:
            assert want == ZERO
    assert laurent_determinant([[ZERO, ONE], [ONE, ZERO]]) == -ONE
    assert laurent_determinant([[ZERO, ONE], [ZERO, ONE]]) == ZERO
    assert min(kinds.values()) >= 75


def test_exact_quotient():
    a, b = lp(-1, 2, 1), lp(3, 1, -1, 4)
    assert (a * b) // b == a
    assert ZERO // b == ZERO
    with pytest.raises(ArithmeticError):
        lp(0, 1, 1) // lp(0, 2)
    with pytest.raises(ArithmeticError):
        lp(0, 1, 0, 1) // lp(0, 1, 1)
    with pytest.raises(ArithmeticError):
        lp(0, 1, 1) // lp(0, 1, 1, 1)
    with pytest.raises(ZeroDivisionError):
        a // ZERO
