"""Bracket and cobracket on cyclic words, with a machine-checked axiom suite.

The bracket of two words contracts one letter of each through the dual
pairing: rotate the first word so the contracted letter sits last, rotate
the second so its letter sits first (both rotations carry Koszul signs),
drop the two letters and concatenate.  Length-0 outputs span a central
summand and are dropped; the bracket descends to words of length >= 1.

The cobracket of a word contracts two of its own letters: for each ordered
pair of positions, rotate the first letter to the front, split the rest at
the second letter into (between, after), and weight by the pairing and by
the sign moving the second letter out past "between".  The ordered-pair
sum with the global 1/2 realizes the symmetrized splitting; sides that
come out empty are kept as explicit Empty markers here and turn into the
deformation letter nu only inside the CE complex.

``bracket_raw`` and ``cobracket_raw`` are validating boundaries: they
check their words, then read ``_bracket`` and ``_cobracket``, memoized
through ``space.memoized`` (which states the memo rule) as read-only
mappings that every caller shares.  The bodies take valid words as they
are; the tensor layer (``cecomplex``) validates its keys once and calls
them directly.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from types import MappingProxyType

from .errors import UsageError
from .space import SymplecticSpace, memoized
from .words import (Hamiltonian, _canonical, accumulate, canonical_words,
                    checked_word, rotations)


def bracket_raw(space: SymplecticSpace, A, B):
    """Word-level bracket of two raw words.

    Returns (terms, scalar): read-only canonical-word coefficients plus the
    length-0 output coefficient, kept separate so callers choose its fate.
    """
    return _bracket(space, checked_word(space, A), checked_word(space, B))


@memoized("bracket")
def _bracket(space: SymplecticSpace, A, B):
    """Memoized body of bracket_raw for two words of valid indices."""
    out: dict = {}
    scalar = Fraction(0)
    rots_a = rotations(space, A)
    rots_b = rotations(space, B)
    n, m = len(A), len(B)
    for i in range(n):
        for j in range(m):
            w = space.pairing(A[i], B[j])
            if w == 0:
                continue
            seq_a, sign_a = rots_a[(i + 1) % n]   # A[i] rotated to last
            seq_b, sign_b = rots_b[j]             # B[j] rotated to first
            glue = seq_a[:-1] + seq_b[1:]
            coeff = w * sign_a * sign_b
            if not glue:
                scalar += coeff
                continue
            nm = _canonical(space, glue)
            if nm is None:
                continue
            accumulate(out, nm[0], coeff * nm[1])
    return MappingProxyType(out), scalar


def bracket_combo(space: SymplecticSpace, a: dict, b: dict):
    """Bilinear extension of bracket_raw to word->coeff dictionaries."""
    out: dict = {}
    scalar = Fraction(0)
    for wa, ca in a.items():
        for wb, cb in b.items():
            terms, s = bracket_raw(space, wa, wb)
            c = ca * cb
            for w, cw in terms.items():
                accumulate(out, w, c * cw)
            scalar += c * s
    return out, scalar


def cobracket_raw(space: SymplecticSpace, W):
    """Word-level cobracket: read-only (left, right) -> coeff, None = empty
    side."""
    return _cobracket(space, checked_word(space, W))


@memoized("cobracket")
def _cobracket(space: SymplecticSpace, W):
    """Memoized body of cobracket_raw for a word of valid indices."""
    out: dict = {}
    n = len(W)
    rots = rotations(space, W)
    for i in range(n):
        seq, sign_i = rots[i]
        for dj in range(1, n):
            between = seq[1:dj]
            wj = seq[dj]
            after = seq[dj + 1:]
            w = space.pairing(seq[0], wj)
            if w == 0:
                continue
            # move the contracted second letter out past "between"
            s = (-1) ** (space.parities[wj] *
                         (sum(space.parities[x] for x in between) & 1))
            coeff = Fraction(1, 2) * w * sign_i * s
            nl = _canonical(space, between) if between else ((), 1)
            nr = _canonical(space, after) if after else ((), 1)
            if nl is None or nr is None:
                continue
            left = nl[0] if between else None
            right = nr[0] if after else None
            accumulate(out, (left, right), coeff * nl[1] * nr[1])
    return MappingProxyType(out)


def cobracket_combo(space: SymplecticSpace, a: dict):
    out: dict = {}
    for w, c in a.items():
        for pair, cc in cobracket_raw(space, w).items():
            accumulate(out, pair, c * cc)
    return out


@dataclass
class CobracketValue:
    """Rational combination of ordered (left, right) word pairs.

    A side of None marks an empty word; these are retained here and convert
    to the nu parameter only in the CE complex.
    """

    space: SymplecticSpace
    pairs: dict = field(default_factory=dict)

    def is_zero(self) -> bool:
        return not self.pairs


def bracket(a: Hamiltonian, b: Hamiltonian,
            max_length: int | None = None) -> Hamiltonian:
    """Bracket of two Hamiltonians, words longer than max_length dropped.

    Scalar parts are central and contribute nothing; length-0 outputs are
    dropped for the same reason.
    """
    if a.space != b.space:
        raise UsageError("bracket arguments live over different spaces")
    terms, _ = bracket_combo(a.space, a.terms, b.terms)
    return Hamiltonian(a.space, terms, Fraction(0), max_length)


def cobracket(a: Hamiltonian) -> CobracketValue:
    """Cobracket of a Hamiltonian; length-1 words and scalars contribute 0."""
    return CobracketValue(a.space, cobracket_combo(a.space, a.terms))


# ---------------------------------------------------------------------------
# axiom suite


@dataclass
class IdentityResult:
    name: str
    checked: int = 0
    passed: bool = True
    witness: str | None = None

    def record(self, ok: bool, describe) -> None:
        self.checked += 1
        if not ok and self.passed:
            self.passed = False
            self.witness = describe()


@dataclass
class AxiomReport:
    passed: bool
    results: dict
    exhaustive_words: int
    sampled_combos: int
    seed: int

    def summary_lines(self):
        lines = []
        for r in self.results.values():
            status = "pass" if r.passed else f"FAIL ({r.witness})"
            lines.append(f"{r.name}: {r.checked} checks, {status}")
        return lines


def _shifted(space, word_parity):
    return (word_parity + space.form_parity) & 1


def _check_antisym(space, a: dict, b: dict) -> bool:
    """{a,b} + (-1)^{(|a|+1)(|b|+1)} {b,a} = 0, parities shifted by the form."""
    pa = {space.word_parity(w) for w in a}
    pb = {space.word_parity(w) for w in b}
    if len(pa) != 1 or len(pb) != 1:
        raise UsageError("antisymmetry check needs homogeneous inputs")
    sign = (-1) ** (_shifted(space, pa.pop()) * _shifted(space, pb.pop()))
    t1, s1 = bracket_combo(space, a, b)
    t2, s2 = bracket_combo(space, b, a)
    for w, c in t2.items():
        accumulate(t1, w, sign * c)
    return not t1 and s1 + sign * s2 == 0


def _check_jacobi(space, a: dict, b: dict, c: dict) -> bool:
    """{a,{b,c}} = {{a,b},c} + (-1)^{(|a|+1)(|b|+1)} {b,{a,c}}, shifted."""
    pa = space.word_parity(next(iter(a)))
    pb = space.word_parity(next(iter(b)))
    sign = (-1) ** (_shifted(space, pa) * _shifted(space, pb))
    bc, _ = bracket_combo(space, b, c)
    lhs, ls = bracket_combo(space, a, bc)
    ab, _ = bracket_combo(space, a, b)
    r1, s1 = bracket_combo(space, ab, c)
    ac, _ = bracket_combo(space, a, c)
    r2, s2 = bracket_combo(space, b, ac)
    for w, v in r1.items():
        accumulate(lhs, w, -v)
    for w, v in r2.items():
        accumulate(lhs, w, -sign * v)
    return not lhs and ls - s1 - sign * s2 == 0


def _one_factor(terms: dict) -> dict:
    return {(0, 0, (w,)): c for w, c in terms.items()}


def _check_cojacobi(space, a: dict) -> bool:
    """Square of the Leibniz-extended cobracket vanishes on single factors."""
    from .cecomplex import raw_extend_cobracket
    return not raw_extend_cobracket(space, raw_extend_cobracket(
        space, _one_factor(a)))


def _check_involutive(space, a: dict) -> bool:
    """Composing cobracket then bracket gives zero."""
    from .cecomplex import raw_ce_delta, raw_extend_cobracket
    return not raw_ce_delta(space, raw_extend_cobracket(space, _one_factor(a)))


def _check_compat(space, a: dict, b: dict) -> bool:
    """Delta({a,b}) = [a, Delta(b)] - (-1)^{|a||b|} [b, Delta(a)]."""
    from .cecomplex import raw_bracket, raw_extend_cobracket
    pa = space.word_parity(next(iter(a)))
    pb = space.word_parity(next(iter(b)))
    ab, _ = bracket_combo(space, a, b)
    lhs = raw_extend_cobracket(space, _one_factor(ab))
    rhs = raw_bracket(space, _one_factor(a),
                      raw_extend_cobracket(space, _one_factor(b)))
    sign = (-1) ** (pa * pb)
    for key, c in raw_bracket(space, _one_factor(b),
                              raw_extend_cobracket(space, _one_factor(a))).items():
        accumulate(rhs, key, -sign * c)
    for key, c in rhs.items():
        accumulate(lhs, key, -c)
    return not lhs


def check_bialgebra_axioms(space: SymplecticSpace, max_length: int = 5,
                           samples: int = 100, seed: int = 2718) -> AxiomReport:
    """Verify the five bialgebra identities exhaustively and on random input.

    The exhaustive sweep covers all canonical words of length <= 3; the
    sampled sweep draws `samples` homogeneous rational combinations of words
    of length <= max_length from a fixed-seed generator.
    """
    results = {name: IdentityResult(name) for name in
               ("antisymmetry", "jacobi", "cojacobi", "compatibility",
                "involutivity")}
    small = canonical_words(space, 3)
    singles = [{w: Fraction(1)} for w in small]

    def describe(*elems):
        return lambda: " ; ".join(repr(sorted(e.items())) for e in elems)

    for a in singles:
        results["cojacobi"].record(_check_cojacobi(space, a), describe(a))
        results["involutivity"].record(_check_involutive(space, a), describe(a))
        for b in singles:
            results["antisymmetry"].record(_check_antisym(space, a, b),
                                           describe(a, b))
            results["compatibility"].record(_check_compat(space, a, b),
                                            describe(a, b))
            for c in singles:
                results["jacobi"].record(_check_jacobi(space, a, b, c),
                                         describe(a, b, c))

    rng = random.Random(seed)
    pool = canonical_words(space, max_length)
    by_parity = {0: [w for w in pool if space.word_parity(w) == 0],
                 1: [w for w in pool if space.word_parity(w) == 1]}

    def draw():
        parity = rng.choice((0, 1))
        words = by_parity[parity] or by_parity[1 - parity]
        combo: dict = {}
        for _ in range(rng.randint(1, 3)):
            c = Fraction(rng.randint(-3, 3))
            if c:
                accumulate(combo, rng.choice(words), c)
        return combo or {rng.choice(words): Fraction(1)}

    sampled = 0
    for _ in range(samples):
        a, b, c = draw(), draw(), draw()
        results["antisymmetry"].record(_check_antisym(space, a, b),
                                       describe(a, b))
        results["jacobi"].record(_check_jacobi(space, a, b, c),
                                 describe(a, b, c))
        results["cojacobi"].record(_check_cojacobi(space, a), describe(a))
        results["compatibility"].record(_check_compat(space, a, b),
                                        describe(a, b))
        results["involutivity"].record(_check_involutive(space, a), describe(a))
        sampled += 1

    return AxiomReport(all(r.passed for r in results.values()), results,
                       len(small), sampled, seed)
