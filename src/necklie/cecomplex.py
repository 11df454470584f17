"""Symmetric-algebra tensors on cyclic words and the deformed differential.

A tensor gamma^g nu^n (w_1 ... w_k) is stored as a key (g, n, factors)
with the factors Koszul-sorted; a repeated odd factor makes the tensor
zero, and nu^2 = 0 when nu is odd (even pairing).  Three graded pieces
are tracked per tensor: its parity, its definition order g + n + total
length, and its filtration order 2g + n + k - 1.

The differential is d = gamma * delta + Delta:

* delta contracts an unordered pair of factors through the word bracket,
  moves both to the front with Koszul signs, and carries one extra factor
  (-1)**parity(first factor) fixed by requiring delta^2 = 0 on three and
  more factors together with the coderivation and Leibniz identities.
* Delta applies the word cobracket to one factor; an empty side raises
  the nu exponent instead of contributing a factor.  Sign bookkeeping
  transports the operator (whose parity depends on how many nu's the
  branch creates) past the preceding factors and migrates new nu's to
  the prefix.

Setting nu = 0 yields the gamma-only variant; single words of length
>= 2 with the zero differential form the third variant.  Elements are
truncated against a TruncationProfile; all arithmetic is exact.

This module owns the graded-symmetric rules that the chain level
(``chains``) reuses with blocks in place of words: the Koszul sort that
kills a repeated odd factor, the signed unshuffle, and the truncated
combination class both element kinds derive from.

The raw operations are bilinear sums over their input keys.
``raw_bracket`` sums one memoized result per key pair, stored in the
space's ``memo`` under ``("tensor_bracket", k1, k2)``; ``raw_differential``
sums one memoized full differential per key, under
``("differential", key)``, and drops the nu-terms on read when asked for
the nu-free part.  Memo keys are tensor keys only, never coefficients;
the results are read-only (``types.MappingProxyType``) and every public
function returns a fresh dict.  Each public function validates every key
of its input once (nonnegative integer exponents, valid words) before
any lookup, so a hit rejects what a miss rejects.  The per-key bodies
(``_tensor``, ``_key_ce_delta``, ``_key_cobracket``) take valid keys and
call only untraced internals (``bialgebra._bracket`` and ``_cobracket``,
``words._canonical``), never a function ``bench/spans.py`` traces.

Operation results enter ``TruncatedCombination`` with
``already_canonical=True``: their keys are canonical and distinct, so the
constructor checks the variant, cuts by the profile and drops zeros, but
does not normalize or merge them again.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from types import MappingProxyType

from .bialgebra import _bracket, _cobracket
from .errors import UsageError
from .space import SymplecticSpace
from .words import _canonical, accumulate, checked_word

VARIANTS = ("lgv", "lg", "hq2")


def definition_order(key) -> int:
    g, n, ws = key
    return g + n + sum(len(w) for w in ws)


def filtration_order(key) -> int:
    g, n, ws = key
    return 2 * g + n + len(ws) - 1


def tensor_parity(space: SymplecticSpace, key) -> int:
    g, n, ws = key
    return (sum(space.word_parity(w) for w in ws) + n * space.nu_parity) & 1


def _word_key(w):
    return (len(w), w)


def koszul_sort(factors, key, parity):
    """Sort factors by key with the Koszul sign of the permutation.

    Returns (sorted tuple, sign), or None when an odd factor repeats.
    Equal keys never swap, so keys must tell distinct factors apart.
    """
    fs = list(factors)
    sign = 1
    for a in range(1, len(fs)):
        b = a
        while b > 0 and key(fs[b - 1]) > key(fs[b]):
            if parity(fs[b - 1]) and parity(fs[b]):
                sign = -sign
            fs[b - 1], fs[b] = fs[b], fs[b - 1]
            b -= 1
    for a in range(1, len(fs)):
        if fs[a] == fs[a - 1] and parity(fs[a]):
            return None
    return tuple(fs), sign


def _check_key(space: SymplecticSpace, g, n, words) -> tuple:
    """The words as a tuple of letter tuples, or UsageError unless the
    exponents are nonnegative integers and every word is valid."""
    if not (isinstance(g, int) and isinstance(n, int)) or g < 0 or n < 0:
        raise UsageError("gamma and nu exponents must be nonnegative integers")
    return tuple(checked_word(space, w) for w in words)


def _check_keys(space: SymplecticSpace, terms: dict) -> None:
    for g, n, ws in terms:
        _check_key(space, g, n, ws)


def normalize_tensor(space: SymplecticSpace, g: int, n: int, words):
    """Canonical Koszul-sorted key (g, n, words) with sign, or None when zero.

    Each word is canonicalized first; a zero word, a repeated odd factor,
    or nu^2 with odd nu all make the whole tensor zero.
    """
    return _tensor(space, g, n, _check_key(space, g, n, words))


def _tensor(space: SymplecticSpace, g: int, n: int, words):
    """Body of normalize_tensor for valid exponents and words."""
    if space.nu_parity == 1 and n >= 2:
        return None
    ws = []
    sign = 1
    for w in words:
        nm = _canonical(space, w)
        if nm is None:
            return None
        ws.append(nm[0])
        sign *= nm[1]
    srt = koszul_sort(ws, _word_key, space.word_parity)
    if srt is None:
        return None
    return (g, n, srt[0]), sign * srt[1]


# ---------------------------------------------------------------------------
# raw operations on dict {(g, n, factors): coeff} with canonical keys
#
# Each operation is the bilinear extension of its value on single keys.
# The per-key bodies take valid keys and call only untraced internals;
# the public functions validate every key of their input once, then sum.


def _add_scaled(out: dict, coeff, terms) -> None:
    for key, c in terms.items():
        accumulate(out, key, coeff * c)


def _key_ce_delta(space: SymplecticSpace, key) -> dict:
    """Pairwise bracket contraction of one valid key, without gamma."""
    g, n, ws = key
    out: dict = {}
    pars = [space.word_parity(w) for w in ws]
    k = len(ws)
    for i in range(k):
        for j in range(i + 1, k):
            pre_i = sum(pars[:i]) & 1
            pre_j = (sum(pars[:j]) - pars[i]) & 1
            s = (-1) ** (pars[i] * pre_i + pars[j] * pre_j + pars[i])
            contracted, _scalar = _bracket(space, ws[i], ws[j])
            # length-0 outputs live in the dropped central summand
            rest = tuple(w for l, w in enumerate(ws) if l not in (i, j))
            for u, cu in contracted.items():
                nm = _tensor(space, g, n, (u,) + rest)
                if nm is None:
                    continue
                accumulate(out, nm[0], cu if s == nm[1] else -cu)
    return out


def _key_cobracket(space: SymplecticSpace, key) -> dict:
    """Leibniz cobracket of one valid key; empty sides become nu."""
    g, n, ws = key
    out: dict = {}
    P = space.form_parity
    nu_par = space.nu_parity
    pars = [space.word_parity(w) for w in ws]
    for i, w in enumerate(ws):
        pre = sum(pars[:i]) & 1
        before, after = ws[:i], ws[i + 1:]
        for (left, right), cc in _cobracket(space, w).items():
            nu_new = (left is None) + (right is None)
            branch_parity = (P + nu_new * nu_par) & 1
            s = (-1) ** (branch_parity * pre)
            # transport past the nu-prefix of the tensor itself
            s *= (-1) ** (branch_parity * ((n * nu_par) & 1))
            if nu_new:
                # each created nu migrates to the prefix
                s *= (-1) ** (nu_par * pre)
                if right is None and left is not None:
                    s *= (-1) ** (nu_par * space.word_parity(left))
            produced = tuple(x for x in (left, right) if x is not None)
            words = before + produced + after
            if not words:
                continue  # no factors left: central summand, dropped
            nm = _tensor(space, g, n + nu_new, words)
            if nm is None:
                continue
            accumulate(out, nm[0], cc if s == nm[1] else -cc)
    return out


def _key_differential(space: SymplecticSpace, key):
    """Memoized d = gamma*delta + Delta of one valid key, read-only."""
    memo_key = ("differential", key)
    found = space.memo.get(memo_key)
    if found is None:
        out = {(g + 1, n, ws): c
               for (g, n, ws), c in _key_ce_delta(space, key).items()}
        _add_scaled(out, 1, _key_cobracket(space, key))
        found = space.memo[memo_key] = MappingProxyType(out)
    return found


def _key_bracket(space: SymplecticSpace, k1, k2):
    """Memoized Leibniz bracket of two valid keys, read-only."""
    memo_key = ("tensor_bracket", k1, k2)
    found = space.memo.get(memo_key)
    if found is not None:
        return found
    (g1, n1, U), (g2, n2, V) = k1, k2
    out: dict = {}
    P = space.form_parity
    nu_par = space.nu_parity
    if not (nu_par == 1 and n1 + n2 >= 2):
        pu = [space.word_parity(w) for w in U]
        pv = [space.word_parity(w) for w in V]
        # the nu-prefix of the second argument crosses all of U
        s0 = (-1) ** ((n2 * nu_par) * (sum(pu) & 1))
        for i in range(len(U)):
            for j in range(len(V)):
                pre_i = sum(pu[:i]) & 1
                pre_j = ((sum(pu) - pu[i]) + sum(pv[:j])) & 1
                s = s0 * (-1) ** (pu[i] * pre_i + pv[j] * pre_j)
                # the bracket operation itself (parity P) crosses the
                # unused factors of the first slot
                s *= (-1) ** (P * ((sum(pu) - pu[i]) & 1))
                contracted, _scalar = _bracket(space, U[i], V[j])
                rest = (tuple(w for l, w in enumerate(U) if l != i) +
                        tuple(w for l, w in enumerate(V) if l != j))
                for u, cu in contracted.items():
                    nm = _tensor(space, g1 + g2, n1 + n2, (u,) + rest)
                    if nm is None:
                        continue
                    accumulate(out, nm[0], cu if s == nm[1] else -cu)
    found = space.memo[memo_key] = MappingProxyType(out)
    return found


def raw_ce_delta(space: SymplecticSpace, terms: dict) -> dict:
    """Pairwise bracket contraction; does not multiply by gamma."""
    _check_keys(space, terms)
    out: dict = {}
    for key, c in terms.items():
        _add_scaled(out, c, _key_ce_delta(space, key))
    return out


def raw_extend_cobracket(space: SymplecticSpace, terms: dict) -> dict:
    """Leibniz extension of the cobracket; empty sides become nu factors."""
    _check_keys(space, terms)
    out: dict = {}
    for key, c in terms.items():
        _add_scaled(out, c, _key_cobracket(space, key))
    return out


def raw_differential(space: SymplecticSpace, terms: dict,
                     with_nu: bool = True) -> dict:
    """d = gamma*delta + Delta; with_nu=False keeps only the nu-free part."""
    _check_keys(space, terms)
    out: dict = {}
    for key, c in terms.items():
        for k, v in _key_differential(space, key).items():
            if with_nu or not k[1]:
                accumulate(out, k, c * v)
    return out


def raw_bracket(space: SymplecticSpace, x: dict, y: dict) -> dict:
    """Leibniz bi-extension of the word bracket to tensors."""
    _check_keys(space, x)
    _check_keys(space, y)
    out: dict = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            pair = _key_bracket(space, k1, k2)
            if pair:
                _add_scaled(out, c1 * c2, pair)
    return out


def unshuffle(terms: dict, parity) -> dict:
    """Unshuffle the factors of (g, n, factors) keys into ordered pairs of
    keys with Koszul signs by factor parity; the g/n prefix rides left."""
    out: dict = {}
    for (g, n, fs), c in terms.items():
        pars = [parity(f) for f in fs]
        k = len(fs)
        for mask in range(1 << k):
            sign = 1
            for j in range(k):
                if not (mask >> j) & 1:
                    continue
                for i in range(j):
                    if not (mask >> i) & 1:
                        sign *= (-1) ** (pars[i] * pars[j])
            left = tuple(fs[j] for j in range(k) if (mask >> j) & 1)
            right = tuple(fs[j] for j in range(k) if not (mask >> j) & 1)
            accumulate(out, ((g, n, left), (0, 0, right)), c * sign)
    return out


def raw_coproduct(space: SymplecticSpace, terms: dict) -> dict:
    """Unshuffle of tensor factors; words carry their own parity."""
    return unshuffle(terms, space.word_parity)


# ---------------------------------------------------------------------------
# truncation profiles and the element wrapper


@dataclass(frozen=True)
class TruncationProfile:
    """Bounds kept by truncated elements; results are exact modulo excess.

    L: max word length, K: max factor count, G: max gamma exponent,
    N: max nu exponent, P: max filtration order.  P defaults to the largest
    filtration order reachable within the other bounds.  Every bound must
    be an int: a profile is part of the memo key of its basis slices, and
    3.0 would hash like 3.
    """

    L: int
    K: int
    G: int
    N: int = 0
    P: int | None = None

    def __post_init__(self):
        for name in ("L", "K", "G", "N", "P"):
            value = getattr(self, name)
            if not (isinstance(value, int) or (name == "P" and value is None)):
                raise UsageError(
                    f"profile bound {name} must be an integer, got {value!r}")
        if self.P is None:
            object.__setattr__(self, "P", 2 * self.G + self.N + self.K - 1)
        if min(self.L, self.K, self.G, self.P) < 1 or self.N < 0:
            raise UsageError("profile bounds must be >= 1 (N >= 0)")

    def admits(self, key) -> bool:
        g, n, ws = key
        return (g <= self.G and n <= self.N and len(ws) <= self.K
                and all(len(w) <= self.L for w in ws)
                and filtration_order(key) <= self.P)


def unbounded_profile() -> TruncationProfile:
    """A profile so large no computation in the test sizes ever hits it."""
    big = 10 ** 6
    return TruncationProfile(L=big, K=big, G=big, N=big, P=big)


def variant_complaint(variant: str, key) -> str | None:
    """None if the tensor key belongs to the variant, else a complaint."""
    g, n, ws = key
    if len(ws) < 1:
        return "needs at least one word factor"
    if definition_order(key) < 2:
        return "order-1 terms do not belong to the deformation complex"
    if variant == "lg" and n > 0:
        return "nu is not available in the gamma-only variant"
    if variant == "hq2":
        if g or n or len(ws) != 1 or len(ws[0]) < 2:
            return "only single words of length >= 2 belong to this variant"
    return None


def variant_cut(variant: str, terms: dict) -> dict:
    """Drop the nu-terms an operation produced when they leave the
    gamma-only variant; the other variants keep every term."""
    if variant != "lg":
        return terms
    return {k: c for k, c in terms.items() if k[1] == 0}


class TruncatedCombination:
    """Truncated rational combination of canonical (g, n, factors) keys in
    one variant.  A subclass says how a key is normalized (_normalize),
    which keys raise (_complaint) and which keys its profile keeps
    (_keeps); terms outside the profile are dropped silently."""

    __slots__ = ("space", "variant", "profile", "terms")

    def __init__(self, space: SymplecticSpace, variant: str,
                 profile: TruncationProfile, terms: dict | None = None,
                 already_canonical: bool = False):
        if variant not in VARIANTS:
            raise UsageError(f"unknown variant {variant!r}; pick from {VARIANTS}")
        self.space = space
        self.variant = variant
        self.profile = profile
        clean: dict = {}
        for key, coeff in (terms or {}).items():
            if already_canonical:
                # the keys of a dict are distinct: nothing to merge
                if not coeff:
                    continue
                self._check(key)
                if self._keeps(key):
                    clean[key] = (coeff if type(coeff) is Fraction
                                  else Fraction(coeff))
                continue
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            nm = self._normalize(*key)
            if nm is None:
                continue
            canon, sign = nm
            self._check(canon)
            if self._keeps(canon):
                accumulate(clean, canon, coeff * sign)
        self.terms = clean

    def _check(self, key) -> None:
        complaint = self._complaint(key)
        if complaint is not None:
            raise UsageError(f"term {key} rejected: {complaint}")

    def replace_terms(self, terms: dict):
        return type(self)(self.space, self.variant, self.profile, terms,
                          already_canonical=True)

    def with_profile(self, profile: TruncationProfile):
        """The same terms under another profile, cut by its caps."""
        return type(self)(self.space, self.variant, profile, self.terms,
                          already_canonical=True)

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self.space == other.space
                and self.variant == other.variant
                and self.terms == other.terms)

    def __add__(self, other):
        self._check_compatible(other)
        merged = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(merged, k, c)
        return self.replace_terms(merged)

    def __sub__(self, other):
        self._check_compatible(other)
        merged = dict(self.terms)
        for k, c in other.terms.items():
            accumulate(merged, k, -c)
        return self.replace_terms(merged)

    def scale(self, c):
        c = Fraction(c)
        return self.replace_terms({k: v * c for k, v in self.terms.items()})

    def _check_compatible(self, other) -> None:
        if type(other) is not type(self):
            raise UsageError(f"expected a {type(self).__name__}")
        if self.space != other.space:
            raise UsageError("elements live over different spaces")
        if self.variant != other.variant:
            raise UsageError(
                f"variant mismatch: {self.variant} vs {other.variant}")

    def __repr__(self):
        return (f"{type(self).__name__}({self.variant}, "
                f"{sorted(self.terms.items())!r})")


class LambdaElement(TruncatedCombination):
    """Truncated rational combination of canonical tensors in one variant."""

    __slots__ = ()

    def _normalize(self, g, n, words):
        return normalize_tensor(self.space, g, n, words)

    def _complaint(self, key):
        return variant_complaint(self.variant, key)

    def _keeps(self, key) -> bool:
        return self.profile.admits(key)

    def parity(self):
        pars = {tensor_parity(self.space, k) for k in self.terms}
        return pars.pop() if len(pars) == 1 else None

    def min_filtration_order(self):
        return min((filtration_order(k) for k in self.terms), default=None)

    def component_of_order(self, p: int) -> "LambdaElement":
        return self.replace_terms({k: c for k, c in self.terms.items()
                                   if filtration_order(k) == p})


# ---------------------------------------------------------------------------
# public operations


def ce_delta(x: LambdaElement) -> LambdaElement:
    """Pairwise-bracket differential without the gamma weight."""
    return x.replace_terms(raw_ce_delta(x.space, x.terms))


def extend_cobracket(x: LambdaElement) -> LambdaElement:
    """Leibniz extension of the cobracket; empty sides become nu."""
    if x.variant == "hq2":
        raise UsageError("the cobracket extension lands outside the "
                         "single-word variant; embed into lgv first")
    return x.replace_terms(
        variant_cut(x.variant, raw_extend_cobracket(x.space, x.terms)))


def lambda_differential(x: LambdaElement) -> LambdaElement:
    """gamma*delta + Delta on the full variant, its nu-free part on the
    gamma-only variant, zero on single-word Hamiltonian space."""
    if x.variant == "hq2":
        return x.replace_terms({})
    return x.replace_terms(
        raw_differential(x.space, x.terms, with_nu=(x.variant == "lgv")))


def lambda_bracket(x: LambdaElement, y: LambdaElement) -> LambdaElement:
    """Leibniz bi-extension of the word bracket."""
    x._check_compatible(y)
    return x.replace_terms(
        variant_cut(x.variant, raw_bracket(x.space, x.terms, y.terms)))


_PROJECTIONS = {("lgv", "lg"), ("lgv", "hq2"), ("lg", "hq2"),
                ("lgv", "lgv"), ("lg", "lg"), ("hq2", "hq2")}


def project(x: LambdaElement, target: str) -> LambdaElement:
    """Quotient maps: drop nu-terms, then set gamma = 0 keeping single words."""
    if target not in VARIANTS:
        raise UsageError(f"unknown variant {target!r}")
    if (x.variant, target) not in _PROJECTIONS:
        raise UsageError(f"no projection from {x.variant} to {target}")
    terms = x.terms
    if x.variant == "lgv" and target in ("lg", "hq2"):
        terms = {k: c for k, c in terms.items() if k[1] == 0}
    if target == "hq2":
        terms = {k: c for k, c in terms.items()
                 if k[0] == 0 and len(k[2]) == 1 and len(k[2][0]) >= 2}
    return LambdaElement(x.space, target, x.profile, terms,
                         already_canonical=True)


def coproduct(x) -> dict:
    """Unshuffle into ordered pairs of keys; accepts elements or raw dicts."""
    if isinstance(x, LambdaElement):
        return raw_coproduct(x.space, x.terms)
    from .chains import CEChainElement, chain_coproduct
    if isinstance(x, CEChainElement):
        return chain_coproduct(x)
    space, terms = x
    return raw_coproduct(space, terms)
