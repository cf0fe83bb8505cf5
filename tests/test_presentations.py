import itertools

import pytest

from seifknot.freegroup import FreeWord, generator, identity, parse_word, seifert_word
from seifknot.presentations import (
    BudgetExceeded,
    Presentation,
    count_homomorphisms,
    cyclic_presentation,
    seifert_cyclic_presentation,
    seifert_parameter_grid,
    standard_seifert_presentation,
    symmetric_group,
    tietze_witnesses,
    validate_seifert_params,
)


def test_cyclic_presentation_shifts_the_word():
    w = seifert_word(3, 2, 1, 1)
    pres = cyclic_presentation(w)
    assert pres.generators == ("x1", "x2", "x3")
    assert pres.relators == (w, w.shift(1), w.shift(2))


def test_presentation_str():
    pres = seifert_cyclic_presentation(3, 2, 1, 1)
    assert str(pres) == "< x1, x2, x3 | x1 x2 x3^-1, x2 x3 x1^-1, x3 x1 x2^-1 >"


def test_presentation_validates_names_and_alphabet():
    with pytest.raises(ValueError):
        Presentation(("x", "x"), ())
    with pytest.raises(ValueError):
        Presentation(("x",), (FreeWord(2, ((2, 1),)),))


def test_relation_matrix():
    pres = seifert_cyclic_presentation(3, 2, 1, 1)
    assert pres.relation_matrix() == [[1, 1, -1], [-1, 1, 1], [1, -1, 1]]


def test_dict_round_trip():
    pres = standard_seifert_presentation(2, 3, 2, 2)
    assert Presentation.from_dict(pres.to_dict()) == pres


def test_validate_rejects_bad_parameters():
    bad = [
        (1, 2, 1, 1),  # too few symmetries
        (3, 2, 2, 1),  # q not below p
        (3, 4, 2, 1),  # p, q not coprime
        (2, 3, 2, 1),  # two symmetries force l >= 2
        (3, 2, 1, 0),  # l must be positive
    ]
    for params in bad:
        with pytest.raises(ValueError):
            validate_seifert_params(*params)
    validate_seifert_params(2, 3, 2, 2)


def test_standard_presentation_shape():
    pres = standard_seifert_presentation(3, 2, 1, 1)
    assert pres.generators == ("y1", "y2", "y3", "y", "h")
    assert len(pres.relators) == 2 * 3 + 3


def test_standard_relators_match_their_composed_words():
    # the relators are written from their syllables; composing them from
    # generators by the group operations gives the same reduced words
    for n, p, q, l in seifert_parameter_grid(5, 7, 3) + [(9, 11, 4, 1)]:
        total = n + 2
        y = [generator(total, i) for i in range(1, n + 2)]
        h = generator(total, total)
        composed = [a.inverse() * h.inverse() * a * h for a in y]
        composed += [y[i] ** p * h**q for i in range(n)]
        composed.append(y[n] ** l * h ** (l - 1))
        surface = identity(total)
        for a in y:
            surface = surface * a
        composed.append(surface * h)
        pres = standard_seifert_presentation(n, p, q, l)
        assert pres.relators == tuple(composed), (n, p, q, l)


def test_parameter_grid():
    grid = seifert_parameter_grid(6, 7, 3)
    assert len(grid) == 238
    assert len(set(grid)) == 238
    assert (2, 3, 2, 2) in grid
    assert (2, 3, 2, 1) not in grid
    for params in grid:
        validate_seifert_params(*params)


def test_tietze_witnesses_hold():
    for n, p, q, l in [(2, 3, 2, 2), (3, 2, 1, 1), (4, 5, 3, 2), (5, 7, 2, 1)]:
        witnesses = tietze_witnesses(n, p, q, l)
        assert len(witnesses) == 2 * n - 2
        for label, lhs, rhs in witnesses:
            assert lhs == rhs, label


def test_tietze_pinned_witness():
    by_label = {label: (lhs, rhs) for label, lhs, rhs in tietze_witnesses(3, 2, 1, 1)}
    lhs, rhs = by_label["descent[1]"]
    assert str(lhs) == "x1^2 x2^-2"
    assert lhs == rhs


def test_symmetric_group():
    assert len(symmetric_group(1)) == 1
    assert len(symmetric_group(3)) == 6
    assert len(symmetric_group(4)) == 24
    assert symmetric_group(3)[0] == (0, 1, 2)


def naive_count(pres: Presentation, elements) -> int:
    """Brute-force homomorphism count, written independently of the
    syllable-table implementation under test."""

    def compose(p, q):
        return tuple(p[q[i]] for i in range(len(p)))

    def invert(p):
        out = [0] * len(p)
        for i, v in enumerate(p):
            out[v] = i
        return tuple(out)

    ident = tuple(range(len(elements[0])))
    total = 0
    for images in itertools.product(elements, repeat=pres.num_generators):
        for rel in pres.relators:
            acc = ident
            for g, e in rel.letters():
                acc = compose(acc, images[g - 1] if e == 1 else invert(images[g - 1]))
            if acc != ident:
                break
        else:
            total += 1
    return total


def test_hom_count_matches_naive_enumeration():
    s3 = symmetric_group(3)
    trefoil = Presentation(
        ("x", "y"), (parse_word("x y x y^-1 x^-1 y^-1", 2, ("x", "y")),)
    )
    cases = [
        trefoil,
        seifert_cyclic_presentation(3, 2, 1, 1),
        seifert_cyclic_presentation(2, 3, 2, 2),
    ]
    for pres in cases:
        assert count_homomorphisms(pres, s3) == naive_count(pres, s3)


def test_hom_count_pinned_values():
    s3 = symmetric_group(3)
    s4 = symmetric_group(4)
    assert count_homomorphisms(seifert_cyclic_presentation(3, 2, 1, 1), s3) == 10
    assert count_homomorphisms(seifert_cyclic_presentation(2, 3, 2, 2), s3) == 3
    assert count_homomorphisms(seifert_cyclic_presentation(2, 3, 2, 2), s4) == 33


def test_hom_count_agrees_across_presentations():
    s3 = symmetric_group(3)
    for params in [(2, 3, 2, 2), (3, 2, 1, 1)]:
        cyclic = count_homomorphisms(seifert_cyclic_presentation(*params), s3)
        standard = count_homomorphisms(standard_seifert_presentation(*params), s3)
        assert cyclic == standard


def test_hom_count_rejects_bad_targets():
    pres = seifert_cyclic_presentation(2, 3, 2, 2)
    bad = [
        ([], "empty target group"),
        ([(0, 1, 2), (1, 0, 2), (0, 1, 2)], "duplicate target elements"),
        ([(1, 0, 2), (0, 2, 1)], "must contain the identity"),
        ([(0, 1, 2), (1, 2, 0)], "not closed under composition"),
    ]
    for elements, message in bad:
        with pytest.raises(ValueError, match=message):
            count_homomorphisms(pres, elements)


def test_budget_guard():
    pres = seifert_cyclic_presentation(4, 3, 2, 1)
    with pytest.raises(BudgetExceeded):
        count_homomorphisms(pres, symmetric_group(4), budget=1000)
