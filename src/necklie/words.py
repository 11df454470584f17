"""Cyclic words with Koszul-signed rotations, and rational sums of them.

A word is a tuple of generator indices read cyclically.  Rotating a word
left by one position moves its first letter past the rest and costs the
Koszul sign (-1)**(parity(first) * parity(rest)).  The canonical
representative is the lexicographically smallest rotation, ties broken by
the earliest rotation offset.  A word some rotation of which reproduces
the same letter sequence with accumulated sign -1 is zero and cannot be
stored; for a single odd generator this kills exactly the even lengths.

``rotations`` and ``_canonical`` are memoized through
``space.memoized``, which states the memo rule.  ``_canonical`` owns the
rotation rule and ``normalize_word`` is its validating public boundary;
``_canonical_words`` enumerates through it, and ``canonical_words`` is its
public name.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import product

from .errors import UsageError
from .space import SymplecticSpace, exact_fraction, memoized

Word = tuple  # tuple of generator indices


def checked_word(space: SymplecticSpace, letters) -> Word:
    """The letters as a tuple, or UsageError unless they form a nonempty
    word of valid generator indices."""
    letters = tuple(letters)
    if not letters:
        raise UsageError("a word needs at least one letter")
    size = space.size
    for g in letters:
        if not isinstance(g, int) or not 0 <= g < size:
            raise UsageError(f"invalid generator index: {g!r}")
    return letters


@memoized("rotations")
def rotations(space: SymplecticSpace, letters: Word):
    """Every left rotation of a word of valid indices, as a memoized tuple
    of (rotated word, accumulated Koszul sign) in order of offset."""
    pars = space.parities
    total = space.word_parity(letters)
    out = []
    cur, sign = letters, 1
    for head in letters:
        out.append((cur, sign))
        # the head moves past the rest of the word
        sign *= (-1) ** (pars[head] * ((total - pars[head]) & 1))
        cur = cur[1:] + (head,)
    return tuple(out)


@memoized("canonical")
def _canonical(space: SymplecticSpace, letters: Word):
    """Memoized canonical rotation of a nonempty tuple of valid indices
    with its sign, or None for the zero word."""
    rots = rotations(space, letters)
    best = min(w for w, _ in rots)
    signs = {s for w, s in rots if w == best}
    return (best, signs.pop()) if len(signs) == 1 else None


def normalize_word(space: SymplecticSpace, letters):
    """Canonical rotation of a word with its sign, or None for the zero word."""
    return _canonical(space, checked_word(space, letters))


_ZERO = Fraction(0)


def accumulate(terms: dict, key, coeff: Fraction) -> None:
    """Add coeff to terms[key], deleting the entry if it cancels to zero."""
    if coeff == 0:
        return
    new = terms.get(key, _ZERO) + coeff
    if new == 0:
        terms.pop(key, None)
    else:
        terms[key] = new


def _canonical_words(space: SymplecticSpace, max_length: int,
                     min_length: int = 1, parity=None):
    """``canonical_words`` through ``_canonical`` only, for memoized
    callers whose misses must make no traced call."""
    if min_length < 1 and min_length <= max_length:
        raise UsageError("a word needs at least one letter")
    out = []
    seen = set()
    for length in range(min_length, max_length + 1):
        for seq in product(range(space.size), repeat=length):
            nm = _canonical(space, seq)
            if nm is None or nm[0] in seen:
                continue
            seen.add(nm[0])
            if parity is None or space.word_parity(nm[0]) == parity:
                out.append(nm[0])
    return out


def canonical_words(space: SymplecticSpace, max_length: int, min_length: int = 1,
                    parity=None):
    """All distinct canonical nonzero words with lengths in the given range.

    Deterministic order: by length, then lexicographically.  A nonempty
    range that starts below length 1 raises UsageError.
    """
    return _canonical_words(space, max_length, min_length, parity)


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
            coeff = exact_fraction(coeff)
            if coeff == 0:
                continue
            if self.max_length is not None and len(word) > self.max_length:
                continue
            nm = normalize_word(self.space, word)
            if nm is None:
                continue
            accumulate(clean, nm[0], coeff * nm[1])
        self.terms = clean
        self.scalar = exact_fraction(self.scalar)

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
        c = exact_fraction(c)
        return Hamiltonian(self.space, {w: v * c for w, v in self.terms.items()},
                           self.scalar * c, self.max_length)
