import random

import pytest

from seifknot.freegroup import (
    FreeWord,
    commutator,
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
    assert g.inverse() * h * g == w("x1^-1 x2 x1", 2)
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
    # a caret needs an exponent: "x1^ x2" is not x1 x2
    for text in ("x1^ x2", "x1^", "x1 x2^"):
        with pytest.raises(ValueError, match="bad exponent"):
            parse_word(text, 2)


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


# -- oracles: the merging constructions the fast paths replaced ----------------


def _merged_product(u: FreeWord, v: FreeWord) -> FreeWord:
    """Product by concatenating and re-reducing the whole syllable stream."""
    return FreeWord(u.n, u.syllables + v.syllables)


def _repeated_power(u: FreeWord, k: int) -> FreeWord:
    base = u if k > 0 else FreeWord(u.n, [(g, -e) for g, e in reversed(u.syllables)])
    out = FreeWord(u.n)
    for _ in range(abs(k)):
        out = _merged_product(out, base)
    return out


def _random_word(rng: random.Random, n: int, syllables: int) -> FreeWord:
    return FreeWord(
        n, [(rng.randint(1, n), rng.choice([-3, -2, -1, 1, 2, 3])) for _ in range(syllables)]
    )


def test_product_matches_merged_concatenation():
    rng = random.Random(11)
    for _ in range(3000):
        n = rng.randint(1, 4)
        u = _random_word(rng, n, rng.randint(0, 8))
        v = _random_word(rng, n, rng.randint(0, 8))
        if rng.random() < 0.3:  # a long cancellation at the seam
            v = u.inverse() * v
        assert u * v == _merged_product(u, v)
        assert (u * v).syllables == _merged_product(u, v).syllables


def test_power_matches_repeated_multiplication():
    rng = random.Random(12)
    bases = [w("x1 x2 x1^-1"), w("x1^2 x3 x2^-1 x1^-2"), w("x2^-1"), identity(3)]
    bases += [_random_word(rng, 3, rng.randint(0, 6)) for _ in range(60)]
    for u in bases:
        for k in range(-9, 10):
            assert u**k == _repeated_power(u, k), (u, k)
    assert w("x1 x2 x1^-1") ** 1000 == w("x1 x2^1000 x1^-1")


def test_seifert_word_matches_block_power():
    for n, p, q, l in [(2, 3, 2, 2), (3, 2, 1, 1), (4, 7, 3, 2), (5, 5, 4, 3), (3, 8, 5, 7)]:
        block = FreeWord(n, [(i, q) for i in range(1, n + 1)])
        assert seifert_word(n, p, q, l) == _merged_product(
            _repeated_power(block, l), generator(n, n, -p)
        )
