"""Cyclic words with Koszul-signed rotations, and rational sums of them.

A word is a tuple of generator indices read cyclically.  Rotating a word
left by one position moves its first letter past the rest and costs the
Koszul sign (-1)**(parity(first) * parity(rest)).  The canonical
representative is the lexicographically smallest rotation, ties broken by
the earliest rotation offset.  A word some rotation of which reproduces
the same letter sequence with accumulated sign -1 is zero and cannot be
stored; for a single odd generator this kills exactly the even lengths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import UsageError
from .space import SymplecticSpace

Word = tuple  # tuple of generator indices


def rotations(space: SymplecticSpace, letters):
    """Yield (rotated word, accumulated Koszul sign) for every left rotation."""
    cur = tuple(letters)
    sign = 1
    for _ in range(len(cur)):
        yield cur, sign
        head = cur[0]
        rest_parity = sum(space.parities[g] for g in cur[1:]) & 1
        sign *= (-1) ** (space.parities[head] * rest_parity)
        cur = cur[1:] + (head,)


def normalize_word(space: SymplecticSpace, letters):
    """Canonical rotation of a word with its sign, or None for the zero word."""
    letters = tuple(letters)
    if not letters:
        raise UsageError("the empty word has no canonical form")
    for g in letters:
        if not isinstance(g, int) or not 0 <= g < space.size:
            raise UsageError(f"invalid generator index: {g!r}")
    rots = list(rotations(space, letters))
    best = min(w for w, _ in rots)
    signs = [s for w, s in rots if w == best]
    if any(s != signs[0] for s in signs):
        return None
    return best, signs[0]


def accumulate(terms: dict, key, coeff: Fraction) -> None:
    """Add coeff to terms[key], deleting the entry if it cancels to zero."""
    if coeff == 0:
        return
    new = terms.get(key, Fraction(0)) + coeff
    if new == 0:
        terms.pop(key, None)
    else:
        terms[key] = new


def canonical_words(space: SymplecticSpace, max_length: int, min_length: int = 1,
                    parity=None):
    """All distinct canonical nonzero words with lengths in the given range.

    Deterministic order: by length, then lexicographically.
    """
    out = []
    seen = set()
    for length in range(min_length, max_length + 1):
        for seq in product(range(space.size), repeat=length):
            nm = normalize_word(space, seq)
            if nm is None or nm[0] in seen:
                continue
            seen.add(nm[0])
            if parity is None or space.word_parity(nm[0]) == parity:
                out.append(nm[0])
    return out


@dataclass
class Hamiltonian:
    """A finite rational combination of canonical cyclic words plus a scalar.

    Words longer than max_length are truncated away at construction; stored
    coefficients are nonzero and stored words canonical.  max_length = None
    means no length bound.
    """

    space: SymplecticSpace
    terms: dict = field(default_factory=dict)
    scalar: Fraction = Fraction(0)
    max_length: int | None = None

    def __post_init__(self):
        clean: dict = {}
        for word, coeff in self.terms.items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            if self.max_length is not None and len(word) > self.max_length:
                continue
            nm = normalize_word(self.space, word)
            if nm is None:
                continue
            accumulate(clean, nm[0], coeff * nm[1])
        self.terms = clean
        self.scalar = Fraction(self.scalar)

    def is_zero(self) -> bool:
        return not self.terms and self.scalar == 0

    def parity(self):
        """Common parity of all stored words, or None if mixed or zero."""
        pars = {self.space.word_parity(w) for w in self.terms}
        if self.scalar != 0:
            pars.add(0)
        if len(pars) == 1:
            return pars.pop()
        return None

    def __add__(self, other: "Hamiltonian") -> "Hamiltonian":
        if self.space != other.space:
            raise UsageError("cannot add over different spaces")
        merged = dict(self.terms)
        for w, c in other.terms.items():
            accumulate(merged, w, c)
        bound = self.max_length
        if bound is not None and other.max_length is not None:
            bound = min(bound, other.max_length)
        elif other.max_length is not None:
            bound = other.max_length
        return Hamiltonian(self.space, merged, self.scalar + other.scalar, bound)

    def scale(self, c) -> "Hamiltonian":
        c = Fraction(c)
        return Hamiltonian(self.space, {w: v * c for w, v in self.terms.items()},
                           self.scalar * c, self.max_length)
