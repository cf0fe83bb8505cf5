"""Reduced words in a finitely generated free group F(x1..xn).

A word is stored as a tuple of syllables (generator index, nonzero exponent)
with adjacent syllables on distinct generators, i.e. in reduced normal form.
Generator indices are 1-based so that index arithmetic mod n stays close to
the usual notation for cyclic shifts.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

Syllable = tuple[int, int]


def _merge(syllables: Iterable[Syllable]) -> tuple[Syllable, ...]:
    """Stack-reduce a syllable stream: merge equal neighbours, drop zeros."""
    out: list[Syllable] = []
    for gen, exp in syllables:
        if exp == 0:
            continue
        if out and out[-1][0] == gen:
            merged = out[-1][1] + exp
            out.pop()
            if merged:
                out.append((gen, merged))
        else:
            out.append((gen, exp))
    return tuple(out)


@dataclass(frozen=True)
class FreeWord:
    """An element of the free group on generators x1..xn, in reduced form.

    Instances are immutable and hashable; the public constructor reduces
    its input and the group operations keep words reduced, so two equal
    group elements compare equal as Python objects.
    """

    n: int
    syllables: tuple[Syllable, ...] = field(default=())

    def __init__(self, n: int, syllables: Iterable[Syllable] = ()):
        if n < 0:
            raise ValueError("alphabet size must be non-negative")
        reduced = _merge(syllables)
        for gen, _ in reduced:
            if not 1 <= gen <= n:
                raise ValueError(f"generator index {gen} outside 1..{n}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "syllables", reduced)

    @classmethod
    def _reduced(cls, n: int, syllables: tuple[Syllable, ...]) -> "FreeWord":
        """Wrap syllables that are already reduced and in range, without
        merging or validating them again."""
        word = object.__new__(cls)
        object.__setattr__(word, "n", n)
        object.__setattr__(word, "syllables", syllables)
        return word

    # -- group operations -------------------------------------------------

    def __mul__(self, other: "FreeWord") -> "FreeWord":
        """Both factors are reduced, so cancellation happens only at the
        seam: the cost is linear in the length of the product."""
        if self.n != other.n:
            raise ValueError("words live in free groups of different rank")
        left, right = self.syllables, other.syllables
        i, j = len(left), 0
        while i and j < len(right) and left[i - 1][0] == right[j][0]:
            exp = left[i - 1][1] + right[j][1]
            if exp:
                seam = ((right[j][0], exp),)
                return FreeWord._reduced(self.n, left[: i - 1] + seam + right[j + 1 :])
            i -= 1
            j += 1
        return FreeWord._reduced(self.n, left[:i] + right[j:])

    def inverse(self) -> "FreeWord":
        return FreeWord._reduced(self.n, tuple((g, -e) for g, e in reversed(self.syllables)))

    def __pow__(self, k: int) -> "FreeWord":
        """k-th power by repeated squaring, in time linear in the output."""
        base = self if k >= 0 else self.inverse()
        k = abs(k)
        out = FreeWord._reduced(self.n, ())
        while k:
            if k & 1:
                out = out * base
            k >>= 1
            if k:
                base = base * base
        return out

    def is_identity(self) -> bool:
        return not self.syllables

    # -- structure ---------------------------------------------------------

    def __len__(self) -> int:
        """Reduced word length (number of letters, not syllables)."""
        return sum(abs(e) for _, e in self.syllables)

    def shift(self, k: int = 1) -> "FreeWord":
        """Apply the cyclic substitution x_i -> x_{i+k} (indices mod n).

        The substitution permutes the alphabet, so the result is already
        reduced; no merging can occur.
        """
        if self.n == 0:
            return self
        shifted = tuple(((g - 1 + k) % self.n + 1, e) for g, e in self.syllables)
        return FreeWord._reduced(self.n, shifted)

    def exponent_vector(self) -> tuple[int, ...]:
        """Total exponent of each generator, as a length-n tuple."""
        totals = [0] * self.n
        for g, e in self.syllables:
            totals[g - 1] += e
        return tuple(totals)

    def letters(self) -> Iterator[tuple[int, int]]:
        """Yield (generator, +-1) per letter, in order."""
        for g, e in self.syllables:
            sign = 1 if e > 0 else -1
            for _ in range(abs(e)):
                yield (g, sign)

    def support(self) -> frozenset[int]:
        return frozenset(g for g, _ in self.syllables)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"FreeWord(n={self.n}, {format_word(self)!r})"


def generator(n: int, i: int, exp: int = 1) -> FreeWord:
    """The word x_i^exp in F(x1..xn)."""
    return FreeWord(n, [(i, exp)])


def identity(n: int) -> FreeWord:
    return FreeWord(n)


def seifert_word(n: int, p: int, q: int, l: int) -> FreeWord:
    """Defining word (x1^q x2^q ... xn^q)^l xn^-p of the cyclic presentation
    attached to the parameters (n, p, q, l).

    Reduced length is n*q*l + p - 2*q (the block's trailing xn^q cancels
    into xn^-p).
    """
    block = FreeWord(n, [(i, q) for i in range(1, n + 1)])
    return block**l * generator(n, n, -p)


# -- text form -------------------------------------------------------------


def format_word(w: FreeWord, names: Sequence[str] | None = None) -> str:
    """Render a word as e.g. "x1^2 x2^-3 x1"; the identity renders as "1"."""
    if not w.syllables:
        return "1"
    parts = []
    for g, e in w.syllables:
        name = names[g - 1] if names is not None else f"x{g}"
        parts.append(name if e == 1 else f"{name}^{e}")
    return " ".join(parts)


# Most characters of a rejected input that an error message quotes
MAX_ENTRY_ECHO = 40


def clip(text: str) -> str:
    """text cut to MAX_ENTRY_ECHO characters, ending in "..." if cut."""
    return text if len(text) <= MAX_ENTRY_ECHO else text[: MAX_ENTRY_ECHO - 3] + "..."


def read_int(digits: str, what: str) -> int:
    """int() of a well-formed integer text. One of more digits than the
    interpreter reads is refused, naming `what` and quoting it clipped."""
    try:
        return int(digits)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"{what} {clip(digits)} has over {limit} digits") from None


# the only syllable texts format_word writes, in ASCII digits
_EXPONENT = re.compile("-?[1-9][0-9]*")
_GENERATOR = re.compile("x[1-9][0-9]*")


def parse_word(text: str, n: int, names: Sequence[str] | None = None) -> FreeWord:
    """Parse the output format of format_word (whitespace-separated syllables).

    Each syllable is name or name^exp, where exp is a nonzero ASCII
    integer with no sign but "-" and no leading zero, as format_word
    writes it. With explicit generator names each name must be one of
    them; otherwise names are x1..xn, again in plain ASCII digits. "1"
    denotes the identity.
    """
    text = text.strip()
    if text in ("", "1"):
        return FreeWord(n)
    if names is not None:
        index = {name: i + 1 for i, name in enumerate(names)}
    syllables: list[Syllable] = []
    for chunk in text.split():
        base, caret, exp_text = chunk.partition("^")
        if not caret:
            exp = 1
        elif _EXPONENT.fullmatch(exp_text):
            exp = read_int(exp_text, "exponent")
        else:
            raise ValueError(f"bad exponent in syllable {clip(chunk)!r}")
        if names is not None:
            if base not in index:
                raise ValueError(f"unknown generator {clip(base)!r}")
            gen = index[base]
        else:
            if not _GENERATOR.fullmatch(base):
                raise ValueError(f"unknown generator {clip(base)!r}")
            gen = int(base[1:])
        syllables.append((gen, exp))
    return FreeWord(n, syllables)
