import random

import pytest

from seifknot.freegroup import (
    FreeWord,
    commutator,
    conjugate,
    format_word,
    generator,
    identity,
    parse_word,
    seifert_word,
)


def w(text: str, n: int = 3) -> FreeWord:
    return parse_word(text, n)


def test_reduction_cancels_adjacent_inverses():
    assert w("x1 x2 x2^-1 x1") == w("x1^2")
    assert w("x1 x1^-1").is_identity()
    assert len(w("x1^3 x1^-5")) == 2


def test_reduction_cascades():
    assert w("x1 x2 x3 x3^-1 x2^-1 x1^-1").is_identity()


def test_zero_exponents_are_dropped():
    assert FreeWord(2, ((1, 0),)).is_identity()
    assert FreeWord(2, ((1, 3), (2, 0), (1, -3))).is_identity()


def test_generator_index_is_validated():
    with pytest.raises(ValueError):
        FreeWord(2, ((3, 1),))
    with pytest.raises(ValueError):
        FreeWord(2, ((0, 1),))


def test_product_and_inverse():
    u = w("x1 x2^-2")
    v = w("x2^2 x3")
    assert u * v == w("x1 x3")
    assert (u * u.inverse()).is_identity()
    assert u.inverse().inverse() == u


def test_powers():
    u = w("x1 x2")
    assert u**3 == w("x1 x2 x1 x2 x1 x2")
    assert u**0 == identity(3)
    assert u**-2 == u.inverse() ** 2


def test_shift_rotates_generator_indices():
    u = w("x1 x2^2 x3^-1")
    assert u.shift(1) == w("x2 x3^2 x1^-1")
    assert u.shift(3) == u
    assert u.shift(1).shift(2) == u


def test_exponent_vector():
    assert w("x1^2 x2^-3 x1").exponent_vector() == (3, -3, 0)


def test_letters_and_support():
    u = w("x1^2 x3^-1")
    assert list(u.letters()) == [(1, 1), (1, 1), (3, -1)]
    assert u.support() == {1, 3}


def test_conjugate_and_commutator():
    g = generator(2, 1, 1)
    h = generator(2, 2, 1)
    assert conjugate(h, g) == w("x1^-1 x2 x1", 2)
    assert commutator(g, h) == w("x1^-1 x2^-1 x1 x2", 2)
    assert commutator(g, g).is_identity()


def test_seifert_word_small_cases():
    assert seifert_word(3, 2, 1, 1) == w("x1 x2 x3^-1")
    assert seifert_word(2, 3, 2, 2) == w("x1^2 x2^2 x1^2 x2^-1", 2)


def test_seifert_word_reduced_length():
    # freely reduced length must be n*q*l + p - 2q
    for n, p, q, l in [(2, 3, 2, 2), (3, 2, 1, 1), (4, 7, 3, 2), (5, 5, 4, 3)]:
        assert len(seifert_word(n, p, q, l)) == n * q * l + p - 2 * q


def test_format_with_custom_names():
    u = w("x1 x2^-1", 2)
    assert format_word(u, ("u", "v")) == "u v^-1"
    assert format_word(identity(2)) == "1"


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_word("x9", 3)
    with pytest.raises(ValueError):
        parse_word("frog", 3)


def test_parse_format_round_trip():
    rng = random.Random(7)
    for _ in range(200):
        n = rng.randint(1, 5)
        syllables = tuple(
            (rng.randint(1, n), rng.choice([-3, -2, -1, 1, 2, 3]))
            for _ in range(rng.randint(0, 8))
        )
        u = FreeWord(n, syllables)
        assert parse_word(format_word(u), n) == u
