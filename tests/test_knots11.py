import pytest

from seifknot.homology import first_homology
from seifknot.knots11 import (
    CoveredKnot,
    KnotParams,
    UnsupportedTwist,
    band_swap,
    coincident_seifert_params,
    knot_from_seifert,
    lens_closed_form,
    lens_name,
    normalize_lens,
    one_step_moves,
    reduce_to_lens,
    swap,
)
from seifknot.presentations import seifert_cyclic_presentation


def test_normalize_lens_pinned():
    assert normalize_lens(1, 5) == (1, 0)
    assert normalize_lens(0, 1) == (0, 1)
    assert normalize_lens(0, -1) == (0, 1)
    assert normalize_lens(5, 4) == (5, 1)
    assert normalize_lens(7, 3) == (7, 2)  # 3 * 5 = 1 mod 7
    assert normalize_lens(7, 2) == (7, 2)
    assert normalize_lens(-7, 3) == (7, 2)
    assert normalize_lens(5, 7) == (5, 2)


def test_normalize_lens_rejects_non_coprime():
    with pytest.raises(ValueError):
        normalize_lens(4, 2)
    with pytest.raises(ValueError):
        normalize_lens(0, 2)
    with pytest.raises(ValueError):
        normalize_lens(0, 0)


def test_lens_name():
    assert lens_name((1, 0)) == "S^3"
    assert lens_name((0, 1)) == "S^2 x S^1"
    assert lens_name((7, 2)) == "L(7,2)"


def test_knot_params_validation():
    with pytest.raises(ValueError):
        KnotParams(-1, 0, 2, 0)
    with pytest.raises(ValueError):
        KnotParams(0, 0, 0, 1)
    k = KnotParams(1, 2, 3, 11)
    assert k.period == 7
    assert k.twist == 4
    assert str(k) == "K(1,2,3,11)"


def test_swap_and_band_swap():
    k = KnotParams(1, 2, 3, 4)
    assert swap(swap(k)) == KnotParams(1, 2, 3, k.twist)
    flat = KnotParams(2, 0, 3, 4)
    assert band_swap(flat) == KnotParams(2, 3, 0, 4)
    assert band_swap(band_swap(flat)) == flat
    with pytest.raises(ValueError):
        band_swap(k)  # needs an empty band


def test_reduction_pinned_traces():
    lens, trace = reduce_to_lens(KnotParams(2, 1, 3, 2))
    assert lens == (4, 1)
    assert trace == [("III", 2, KnotParams(0, 3, 1, 0))]

    lens, trace = reduce_to_lens(KnotParams(1, 2, 3, 4))
    assert lens == (1, 0)
    assert trace == [
        ("swap", 1, KnotParams(1, 3, 2, 3)),
        ("IV", 2, KnotParams(1, 1, 0, 1)),
        ("swap0", 1, KnotParams(1, 0, 1, 1)),
        ("I", 1, KnotParams(0, 0, 1, 0)),
    ]

    lens, trace = reduce_to_lens(KnotParams(2, 0, 5, 2))
    assert lens == (5, 2)
    assert trace == []

    lens, trace = reduce_to_lens(KnotParams(5, 0, 2, 5))
    assert lens == (2, 1)
    assert trace == [("I", 2, KnotParams(1, 0, 2, 1))]


# -- oracle: the one-move-per-step reducer the run-length trace replaced ------


def _subtractive_reduce(k):
    """Reduce K(a, b, c, r) one move at a time; returns (lens, trace) with
    one (label, state) entry per move."""
    trace = []

    def single_band(k):
        while True:
            if k.a == 0:
                return normalize_lens(k.c, 0), trace
            if k.c == 0:
                return normalize_lens(0, k.a), trace
            if k.a < k.c:
                return normalize_lens(k.c, k.a), trace
            k = KnotParams(k.a - k.c, 0, k.c, k.a - k.c)
            trace.append(("I", k))

    def aligned(k):
        while k.a > 0 and k.b > 0 and k.c > 0:
            k = KnotParams(k.a - 1, k.b + 1, k.c - 1, k.a - 1)
            trace.append(("III", k))
        if k.b > 0:
            if k.a == 0:
                return normalize_lens(k.b + k.c, k.b), trace
            k = band_swap(k)
            trace.append(("swap0", k))
        return single_band(k)

    def crossed(k):
        if k.c > k.b:
            k = swap(k)
            trace.append(("swap", k))
        while k.c > 0:
            k = KnotParams(k.a, k.b - 1, k.c - 1, k.r - 1)
            trace.append(("IV", k))
        if k.b > 0:
            k = band_swap(k)
            trace.append(("swap0", k))
        return single_band(k)

    m, t = k.period, k.twist
    if t == k.a % m:
        return aligned(KnotParams(k.a, k.b, k.c, k.a))
    if k.a > 0 and t == (k.a + k.c) % m:
        return crossed(KnotParams(k.a, k.b, k.c, k.a + k.c))
    if t == (k.a + k.b + k.c) % m:
        k = swap(KnotParams(k.a, k.b, k.c, k.a + k.b + k.c))
        trace.append(("swap", k))
        return aligned(k)
    raise UnsupportedTwist(f"twist {t} mod {m}")


def _supported_residues(a, b, c):
    m = 2 * a + b + c
    residues = {a % m, (a + b + c) % m}
    if a > 0:
        residues.add((a + c) % m)
    return sorted(residues)


def test_run_length_trace_expands_to_subtractive_trace():
    compared = 0
    for a in range(13):
        for b in range(13):
            for c in range(13):
                if a + b + c == 0:
                    continue
                for r in _supported_residues(a, b, c):
                    k = KnotParams(a, b, c, r)
                    try:
                        want = _subtractive_reduce(k)
                    except ValueError as exc:
                        with pytest.raises(type(exc)):
                            reduce_to_lens(k)
                        continue
                    lens, trace = reduce_to_lens(k)
                    assert len(trace) <= 4, k
                    moves = [(label, KnotParams(*state)) for label, *state in one_step_moves(trace)]
                    assert (lens, moves) == want, k
                    assert sum(runs for _, runs, _ in trace) == len(want[1]), k
                    compared += 1
    assert compared > 3500


def test_every_unsupported_twist_is_refused_alike():
    # every residue no family admits, on every strand triple up to 12;
    # verify's lens-closed-forms check probes only the first per triple
    refused = 0
    for a in range(13):
        for b in range(13):
            for c in range(13):
                if a + b + c == 0:
                    continue
                m = 2 * a + b + c
                supported = _supported_residues(a, b, c)
                for r in range(m):
                    if r in supported:
                        continue
                    k = KnotParams(a, b, c, r)
                    with pytest.raises(UnsupportedTwist) as engine:
                        reduce_to_lens(k)
                    with pytest.raises(UnsupportedTwist) as closed:
                        lens_closed_form(k)
                    message = f"twist {r} mod {m} is not one of a, a+c, a+b+c for {k}"
                    assert str(engine.value) == str(closed.value) == message
                    refused += 1
    assert refused == 46_788


def test_reduction_terminal_spheres():
    lens, _ = reduce_to_lens(KnotParams(1, 0, 0, 1))
    assert lens_name(lens) == "S^2 x S^1"
    lens, _ = reduce_to_lens(KnotParams(0, 1, 0, 0))
    assert lens == (1, 0)


def test_unsupported_twist():
    with pytest.raises(UnsupportedTwist):
        reduce_to_lens(KnotParams(1, 1, 1, 0))
    with pytest.raises(UnsupportedTwist):
        lens_closed_form(KnotParams(1, 1, 1, 0))
    # crossed residue needs outer strands
    with pytest.raises(UnsupportedTwist):
        reduce_to_lens(KnotParams(0, 1, 1, 1))


def test_non_coprime_is_rejected_not_unsupported():
    k = KnotParams(1, 3, 1, 1)  # aligned form would be L(4, 4)
    with pytest.raises(ValueError) as closed_err:
        lens_closed_form(k)
    assert not isinstance(closed_err.value, UnsupportedTwist)
    with pytest.raises(ValueError) as engine_err:
        reduce_to_lens(k)
    assert not isinstance(engine_err.value, UnsupportedTwist)


def test_closed_form_matches_engine():
    checked = 0
    for a in range(7):
        for b in range(7):
            for c in range(7):
                if a + b + c == 0:
                    continue
                m = 2 * a + b + c
                residues = {a % m, (a + b + c) % m}
                if a > 0:
                    residues.add((a + c) % m)
                for r in residues:
                    k = KnotParams(a, b, c, r)
                    try:
                        closed = lens_closed_form(k)
                    except UnsupportedTwist:
                        raise
                    except ValueError:
                        continue
                    lens, trace = reduce_to_lens(k)
                    assert lens == closed, k
                    assert sum(runs for _, runs, _ in trace) <= a + b + c + 2, k
                    checked += 1
    assert checked > 300


def test_knot_from_seifert_pinned():
    cover = knot_from_seifert(3, 2, 1, 1)
    assert cover == CoveredKnot(KnotParams(1, 1, 0, 1), (1, 0), 3, 0)
    cover = knot_from_seifert(2, 3, 2, 2)
    assert cover == CoveredKnot(KnotParams(1, 1, 4, 1), (5, 2), 2, 1)
    cover = knot_from_seifert(3, 5, 2, 1)
    assert cover.knot == KnotParams(2, 2, 1, 3)
    assert cover.ambient == (1, 0)


def test_knot_from_seifert_reduces_to_ambient():
    for params in [(2, 3, 2, 2), (3, 2, 1, 1), (3, 5, 2, 1), (4, 3, 2, 1), (5, 7, 3, 2)]:
        cover = knot_from_seifert(*params)
        lens, _ = reduce_to_lens(cover.knot)
        assert lens == cover.ambient
        assert lens_closed_form(cover.knot) == cover.ambient


def test_coincident_parameters():
    first, second = coincident_seifert_params(3, 2)
    assert first == (3, 2, 1, 1)
    assert second == (2, 2, 1, 2)
    k1 = knot_from_seifert(*first)
    k2 = knot_from_seifert(*second)
    assert k1.knot == KnotParams(1, 1, 0, 1)
    assert k2.knot == KnotParams(1, 2, 0, 1)
    assert k1.ambient == (1, 0)
    assert k2.ambient == (2, 1)
    h1 = first_homology(seifert_cyclic_presentation(*first))
    h2 = first_homology(seifert_cyclic_presentation(*second))
    assert h1 == h2


def test_coincident_parameters_validation():
    with pytest.raises(ValueError):
        coincident_seifert_params(2, 2)
    with pytest.raises(ValueError):
        coincident_seifert_params(3, 1)
