"""Correctness oracles: each checks one op's answer against a second,
independent route. Every function returns None when the answer holds and
a one-line reason when it does not. They are pure: the runner obtains the
second route's answer and passes it in, so a test can hand any oracle a
deliberately wrong answer.
"""

from __future__ import annotations

import json
from math import prod


def _parsed(rc: int | None, out: str) -> tuple[dict | None, str | None]:
    if rc != 0:
        return None, f"exit status {rc}"
    try:
        return json.loads(out), None
    except ValueError:
        return None, "stdout is not JSON"


def word_length(text: str) -> int:
    """Letters in a word written as `x1^2 x2^-3 x1`; "1" is the identity."""
    if text.strip() in ("", "1"):
        return 0
    total = 0
    for chunk in text.split():
        _, _, exp = chunk.partition("^")
        total += abs(int(exp)) if exp else 1
    return total


def check_present(params: list[int], rc: int | None, out: str) -> str | None:
    """n cyclic relators, each of reduced length n*q*l + p - 2q."""
    data, err = _parsed(rc, out)
    if err:
        return err
    n, p, q, l = params
    rels = data.get("cyclic", {}).get("relators", [])
    if len(rels) != n:
        return f"{len(rels)} cyclic relators, expected {n}"
    want = n * q * l + p - 2 * q
    lengths = {word_length(r) for r in rels}
    if lengths != {want}:
        return f"relator lengths {sorted(lengths)}, expected {want}"
    return None


def check_tietze(params: list[int], rc: int | None, out: str) -> str | None:
    """All 2n - 2 witnesses reported, each with equal sides."""
    data, err = _parsed(rc, out)
    if err:
        return err
    n = params[0]
    rows = data.get("witnesses", [])
    if len(rows) != 2 * n - 2:
        return f"{len(rows)} witnesses, expected {2 * n - 2}"
    bad = [r["label"] for r in rows if r["left"] != r["right"] or not r["equal"]]
    if bad or data.get("all_equal") is not True:
        return f"witnesses fail: {bad[:3]}"
    return None


def check_homology(rc: int | None, out: str, circulant: int) -> str | None:
    """The group order equals the circulant determinant of the defining
    word's exponent vector (0 meaning infinite)."""
    data, err = _parsed(rc, out)
    if err:
        return err
    order = 0 if data["rank"] else prod(data["torsion"])
    if order != circulant:
        return f"order {order or 'infinite'}, circulant order {circulant}"
    return None


def check_knot_reduce(params: list[int], rc: int | None, out: str, ambient: list[int]) -> str | None:
    """The reduced lens equals the closed-form ambient space, in at most
    a + b + c + 2 moves."""
    data, err = _parsed(rc, out)
    if err:
        return err
    a, b, c, _ = params
    if data["lens"] != ambient:
        return f"reduced to {data['lens']}, closed form {ambient}"
    if len(data["moves"]) > a + b + c + 2:
        return f"{len(data['moves'])} moves, bound {a + b + c + 2}"
    return None


def check_dunwoody(params: list[int], rc: int | None, out: str) -> str | None:
    """Counts (1, n, n, 1) and the read-off relators match."""
    data, err = _parsed(rc, out)
    if err:
        return err
    n = params[0]
    if data["counts"] != [1, n, n, 1]:
        return f"counts {data['counts']}, expected {[1, n, n, 1]}"
    if not (data["criterion"] and data["relators_match"]):
        return "criterion or relator match fails"
    return None


def check_alexander(rc: int | None, out: str, alt_rc: int | None, alt_out: str) -> str | None:
    """Dropping a different relator of the cyclic presentation gives the
    same polynomial (the shift symmetry maps one to the other)."""
    data, err = _parsed(rc, out)
    if err:
        return err
    alt, alt_err = _parsed(alt_rc, alt_out)
    if alt_err:
        return f"other relator dropped: {alt_err}"
    if data["alexander"] != alt["alexander"]:
        return f"{data['alexander']!r} vs {alt['alexander']!r} with another relator dropped"
    return None


def check_hom_pair(via_cyclic: int | None, via_standard: int | None) -> str | None:
    """Both presentations of one group give the same homomorphism count."""
    if via_cyclic is None or via_standard is None:
        return "a search did not finish"
    if via_cyclic != via_standard:
        return f"cyclic {via_cyclic} vs standard {via_standard}"
    return None


def check_grid(rc: int | None, out: str, checks: tuple[str, ...]) -> list[str]:
    """Names of the failing checks; every expected check must be present
    and pass, and all_passed must hold."""
    data, err = _parsed(rc, out)
    if err:
        return [err]
    got = {c["name"]: c["passed"] for c in data.get("checks", [])}
    failed = [name for name in checks if got.get(name) is not True]
    if not failed and data.get("all_passed") is not True:
        failed.append("all_passed is false")
    return failed
