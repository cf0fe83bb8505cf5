import itertools

import pytest

from seifknot.freegroup import FreeWord, generator, identity, parse_word, seifert_word
from seifknot.presentations import (
    BudgetExceeded,
    Presentation,
    count_homomorphisms,
    count_seifert_homomorphisms,
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


def plain_count(pres: Presentation, elements) -> int:
    """The plain backtracker: every generator ranges over every element,
    generators in the most relators first, each relator checked once all
    its generators have images. No conjugacy classes, no fibred count."""
    ident = tuple(range(len(elements[0])))
    index = {e: i for i, e in enumerate(elements)}
    mult = [[index[tuple(a[i] for i in b)] for b in elements] for a in elements]

    def power(x, e):
        val = index[ident]
        for _ in range(abs(e)):
            val = mult[val][x]
        return val if e >= 0 else mult[val].index(index[ident])

    g = pres.num_generators
    uses = [sum(gi in r.support() for r in pres.relators) for gi in range(g + 1)]
    order = sorted(range(1, g + 1), key=lambda gi: (-uses[gi], gi))
    level_of = {gi: lvl for lvl, gi in enumerate(order)}
    exponents = {e for r in pres.relators for _, e in r.syllables}
    tables = {e: [power(x, e) for x in range(len(elements))] for e in exponents}
    ready = [[] for _ in range(g)]
    for r in pres.relators:
        if r.syllables:
            syls = [(level_of[gi], tables[e]) for gi, e in r.syllables]
            ready[max(lvl for lvl, _ in syls)].append(syls)
    assign = [0] * g

    def descend(level):
        if level == g:
            return 1
        total = 0
        for cand in range(len(elements)):
            assign[level] = cand
            for syls in ready[level]:
                val = index[ident]
                for lvl, table in syls:
                    val = mult[val][table[assign[lvl]]]
                if val != index[ident]:
                    break
            else:
                total += descend(level + 1)
        return total

    return descend(0)


def subgroup(generators):
    """The permutation group the given permutations generate."""
    group = {tuple(range(len(generators[0])))}
    frontier = list(group)
    while frontier:
        a = frontier.pop()
        for b in generators:
            c = tuple(a[i] for i in b)
            if c not in group:
                group.add(c)
                frontier.append(c)
    return sorted(group)


A4 = subgroup([(1, 2, 0, 3), (0, 2, 3, 1)])
C4 = subgroup([(1, 2, 3, 0)])
TREFOIL = Presentation(("x", "y"), (parse_word("x y x y^-1 x^-1 y^-1", 2, ("x", "y")),))
HOM_POINTS = [(2, 3, 2, 2), (3, 2, 1, 1), (3, 5, 2, 1), (4, 3, 2, 1)]


def test_hom_count_matches_naive_enumeration():
    s3 = symmetric_group(3)
    for pres in [
        TREFOIL,
        seifert_cyclic_presentation(3, 2, 1, 1),
        seifert_cyclic_presentation(2, 3, 2, 2),
    ]:
        assert count_homomorphisms(pres, s3) == plain_count(pres, s3) == naive_count(pres, s3)


@pytest.mark.parametrize("target", ["S3", "S4", "A4", "C4"])
def test_class_representatives_match_the_plain_backtracker(target):
    elements = {"S3": symmetric_group(3), "S4": symmetric_group(4), "A4": A4, "C4": C4}[target]
    assert len(subgroup(elements)) == len(elements) == {"S3": 6, "S4": 24, "A4": 12, "C4": 4}[target]
    cases = [TREFOIL]
    for point in HOM_POINTS:
        cases += [seifert_cyclic_presentation(*point), standard_seifert_presentation(*point)]
    for pres in cases:
        assert count_homomorphisms(pres, elements, 10**12) == plain_count(pres, elements), str(pres)


def test_class_representatives_in_any_element_order():
    # the class of the first listed element is not that of the identity
    pres = seifert_cyclic_presentation(3, 2, 1, 1)
    elements = symmetric_group(4)[::-1]
    assert count_homomorphisms(pres, elements) == 52


@pytest.mark.parametrize("m", [3, 4])
def test_fibred_count_matches_the_plain_backtracker(m):
    elements = symmetric_group(m)
    for point in seifert_parameter_grid(4, 5, 3):
        if m == 4 and point[:2] == (4, 4):
            continue  # 2-4 s each for the plain backtracker; S3 covers them
        pres = standard_seifert_presentation(*point)
        assert count_seifert_homomorphisms(*point, elements) == plain_count(pres, elements), point


def test_fibred_count_into_subgroups():
    for elements in (A4, C4):
        for point in HOM_POINTS:
            pres = standard_seifert_presentation(*point)
            assert count_seifert_homomorphisms(*point, elements) == plain_count(pres, elements)


def test_fibred_count_validates_its_input():
    with pytest.raises(ValueError, match="need gcd"):
        count_seifert_homomorphisms(3, 4, 2, 1, symmetric_group(3))
    with pytest.raises(ValueError, match="not closed under composition"):
        count_seifert_homomorphisms(3, 2, 1, 1, [(0, 1, 2), (1, 2, 0)])


def test_s5_counts_are_pinned():
    s5 = symmetric_group(5)
    expected = [165, 196, 265, 3645]
    assert [count_seifert_homomorphisms(*point, s5) for point in HOM_POINTS] == expected
    # the cyclic side of (4, 3, 2, 1) takes about 16 s
    for point, count in zip(HOM_POINTS[:3], expected):
        assert count_homomorphisms(seifert_cyclic_presentation(*point), s5) == count


def test_no_generators_gives_one_homomorphism():
    assert count_homomorphisms(Presentation((), ()), symmetric_group(3)) == 1
    assert count_homomorphisms(Presentation((), (FreeWord(0, ()),)), symmetric_group(1)) == 1


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
