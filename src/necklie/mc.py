"""Maurer-Cartan residuals, the gauge flow, and the exponential class.

Candidates are even when the pairing is odd and odd when the pairing is
even; gauge parameters are odd in both cases (the even-pairing case makes
"opposite parity" literally false: there the nilpotent hamiltonians and
the flow directions share the odd parity).

The gauge flow integrates x' = dy - [y, x]:

    exp(y) . x  =  x + sum_m (-ad y)^m (dy - [y, x]) / (m+1)!

which reproduces x + dy on a one-generator space and preserves the
residual d(x) + 1/2 [x, x] within truncation.  On chains the same flow
acts through the rate operator

    rate_y(c)  =  embed(dy) . c  -  sum_i +/- [y, B_i] . (c without B_i)

satisfying rate_y = delta o (embed(y) . -) + (embed(y) . -) o delta for
odd y, so that exp(rate_y) matches ch of the flowed element.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement

from .bialgebra import IdentityResult
from .cecomplex import (LambdaElement, TruncationProfile, lambda_bracket,
                        lambda_differential, normalize_tensor, raw_bracket,
                        unbounded_profile)
from .chains import (CEChainElement, block_parity, chain_delta, chain_mul,
                     chain_normalize, chain_order, chain_unit, embed_element)
from .errors import PreconditionError, UsageError
from .space import SymplecticSpace
from .words import Hamiltonian, accumulate, canonical_words

GAUGE_PARITY = 1          # flow directions are odd for both pairing parities
_SERIES_LIMIT = 60


def candidate_parity(space: SymplecticSpace) -> int:
    """Parity of admissible deformation candidates over this space."""
    return 0 if space.form_parity == 1 else 1


@dataclass(frozen=True)
class MCCandidate:
    """A homogeneous element of the structure parity, possibly non-flat."""

    value: object     # LambdaElement, or Hamiltonian for single-word data

    def __post_init__(self):
        v = self.value
        if not isinstance(v, (LambdaElement, Hamiltonian)):
            raise UsageError("candidate must wrap a complex element or a "
                             "hamiltonian")
        want = candidate_parity(v.space)
        got = v.parity()
        if got is not None and got != want:
            raise UsageError(
                f"candidate must be homogeneous of parity {want}, got {got}")

    @property
    def space(self) -> SymplecticSpace:
        return self.value.space


def as_candidate(x) -> MCCandidate:
    return x if isinstance(x, MCCandidate) else MCCandidate(x)


def _hamiltonian_profile(h: Hamiltonian) -> TruncationProfile:
    longest = max((len(w) for w in h.terms), default=2)
    return TruncationProfile(L=max(h.max_length or 0, longest, 2),
                             K=1, G=1, N=0, P=1)


def element_of_hamiltonian(h: Hamiltonian,
                           profile: TruncationProfile | None = None
                           ) -> LambdaElement:
    """Single-word view of a hamiltonian supported in length >= 2."""
    profile = profile or _hamiltonian_profile(h)
    terms = {(0, 0, (w,)): c for w, c in h.terms.items()}
    return LambdaElement(h.space, "hq2", profile, terms,
                         already_canonical=True)


def hamiltonian_of_element(x: LambdaElement) -> Hamiltonian:
    if x.variant != "hq2":
        raise UsageError("only single-word elements convert to hamiltonians")
    return Hamiltonian(x.space, {ws[0]: c for (_, _, ws), c in x.terms.items()})


def mc_residual(x):
    """d(x) + 1/2 [x, x] in the candidate's own variant, truncated.

    Returns the same kind of object as the wrapped value.
    """
    cand = as_candidate(x)
    v = cand.value
    if isinstance(v, Hamiltonian):
        from .bialgebra import bracket
        return bracket(v, v, max_length=v.max_length).scale(Fraction(1, 2))
    return (lambda_differential(v)
            + lambda_bracket(v, v).scale(Fraction(1, 2)))


def _check_gauge_parameter(y: LambdaElement, against: LambdaElement) -> None:
    if not isinstance(y, LambdaElement):
        raise UsageError("gauge parameter must be a complex element")
    if y.space != against.space:
        raise UsageError("gauge parameter lives over a different space")
    if y.variant != against.variant:
        raise UsageError(f"variant mismatch: {y.variant} vs {against.variant}")
    p = y.parity()
    if p is not None and p != GAUGE_PARITY:
        raise UsageError("gauge parameters must be odd")


def gauge_act(y: LambdaElement, x) -> MCCandidate:
    """Integrated gauge flow exp(y) . x; truncation caps come from x."""
    cand = as_candidate(x)
    v = cand.value
    if isinstance(v, Hamiltonian):
        ve = element_of_hamiltonian(v)
        if isinstance(y, Hamiltonian):
            y = element_of_hamiltonian(y, ve.profile)
        flowed = _flow(y, ve)
        return MCCandidate(hamiltonian_of_element(flowed))
    _check_gauge_parameter(y, v)
    return MCCandidate(_flow(y, v))


def _flow(y: LambdaElement, x: LambdaElement) -> LambdaElement:
    out = x
    cur = lambda_differential(y) - lambda_bracket(y, x)
    fact = Fraction(1)
    m = 0
    while not cur.is_zero():
        fact /= m + 1
        out = out + cur.scale(fact)
        cur = lambda_bracket(y, cur).scale(-1)
        m += 1
        if m > _SERIES_LIMIT:
            raise UsageError("gauge series did not terminate; the profile "
                             "admits order-zero directions it cannot exhaust")
    return out


# ---------------------------------------------------------------------------
# the exponential class on chains


def exp_chain(x: LambdaElement,
              profile: TruncationProfile | None = None) -> CEChainElement:
    """1 + x + x.x/2 + ... in the chain algebra, truncated by the profile.

    The block-count bound makes the series finite: every multiplication
    adds a block.
    """
    profile = profile or x.profile
    xc = embed_element(x, profile)
    out = chain_unit(x.space, x.variant, profile)
    term = out
    r = 0
    while True:
        r += 1
        term = chain_mul(term, xc).scale(Fraction(1, r))
        if term.is_zero():
            return out
        out = out + term
        if r > min(profile.K + 2, _SERIES_LIMIT):
            raise UsageError("exponential series exceeded the block bound")


def char_class(x) -> CEChainElement:
    """Exponential class of a flat candidate; caps come from x's profile."""
    cand = as_candidate(x)
    v = cand.value
    if isinstance(v, Hamiltonian):
        v = element_of_hamiltonian(v)
    residual = mc_residual(cand)
    if not residual.is_zero():
        raise PreconditionError(
            "candidate is not flat within truncation", evidence=residual)
    return exp_chain(v)


def left_product(y: LambdaElement, c: CEChainElement) -> CEChainElement:
    """Multiplication by y embedded as a one-block chain."""
    return chain_mul(embed_element(y, c.profile), c)


def gauge_rate(y: LambdaElement, c: CEChainElement) -> CEChainElement:
    """Infinitesimal gauge action on chains: embed(dy).c minus the signed
    bracket of y into each block."""
    space = c.space
    nu_par = space.nu_parity
    with_nu = c.variant == "lgv"
    if y.space != space:
        raise UsageError("gauge parameter lives over a different space")
    dy = lambda_differential(y)
    out = dict(chain_mul(embed_element(dy, c.profile), c).terms)
    for (G, N, blocks), c0 in c.terms.items():
        bpars = [block_parity(space, b) for b in blocks]
        for i, block in enumerate(blocks):
            pre = sum(bpars[:i]) & 1
            s0 = (-1) ** (bpars[i] * pre + 1)
            br = raw_bracket(space, y.terms, {(0, 0, block): Fraction(1)})
            rest = tuple(b for l, b in enumerate(blocks) if l != i)
            for (g2, n2, ws2), c2 in br.items():
                if not ws2 or (not with_nu and n2):
                    continue
                cpar = ((sum(space.word_parity(w) for w in ws2)
                         + n2 * nu_par) - bpars[i]) & 1
                s = s0 * (-1) ** (cpar * (N * nu_par))
                nm = chain_normalize(space, G + g2, N + n2, (ws2,) + rest)
                if nm is None:
                    continue
                accumulate(out, nm[0], c0 * c2 * s * nm[1])
    return c.replace_terms(out)


def exp_gauge_rate(y: LambdaElement, c: CEChainElement) -> CEChainElement:
    """Operator exponential of the rate, truncated by c's profile."""
    out = c
    term = c
    m = 0
    while not term.is_zero():
        m += 1
        term = gauge_rate(y, term).scale(Fraction(1, m))
        out = out + term
        if m > _SERIES_LIMIT:
            raise UsageError("rate exponential did not terminate")
    return out


# ---------------------------------------------------------------------------
# verification


@dataclass
class HomotopyReport:
    operator_identity: IdentityResult
    flow_identity: IdentityResult

    @property
    def passed(self) -> bool:
        return self.operator_identity.passed and self.flow_identity.passed

    def summary_lines(self):
        return [f"{r.name}: {'ok' if r.passed else 'FAIL'} "
                f"({r.checked} checked)"
                + (f" witness: {r.witness}" if r.witness else "")
                for r in (self.operator_identity, self.flow_identity)]


def _chain_pool(space, variant, profile, limit):
    """Deterministic small family of chain keys inside the profile."""
    words = canonical_words(space, min(profile.L, 4))
    blocks = []
    for w in words:
        if len(w) >= 2:
            blocks.append((w,))
    for a in range(len(words)):
        for b in range(a, len(words)):
            nm = normalize_tensor(space, 0, 0, (words[a], words[b]))
            if nm is not None:
                blocks.append(nm[0][2])
    blocks = sorted(set(blocks),
                    key=lambda bl: (sum(len(w) for w in bl), bl))[:12]
    n_max = 0 if variant == "lg" else min(profile.N, 1)
    pool = set()
    for count in range(0, min(profile.K, 2) + 1):
        for combo in combinations_with_replacement(blocks, count):
            for g in range(0, min(profile.G, 1) + 1):
                for n in range(0, n_max + 1):
                    nm = chain_normalize(space, g, n, combo)
                    if nm is not None and chain_order(nm[0]) <= profile.P:
                        pool.add(nm[0])
    return sorted(pool, key=lambda k: (chain_order(k), k))[:limit]


def homotopy_check(y: LambdaElement, x, profile: TruncationProfile,
                   pool_limit: int = 40) -> HomotopyReport:
    """Two independent consistency checks of the gauge flow on chains.

    (a) rate_y = delta o left_y + left_y o delta, evaluated exactly (each
        single application is a finite sum, so no caps are needed);
    (b) exp(rate_y) applied to the class of x equals the class of the
        flowed element, compared inside the window where both series are
        accurate: order <= P-2, blocks <= K-1, pooled gamma <= G and nu
        <= N.  Brackets, d, products and the rate never lower G or N, so
        the flowed element's G and N caps are exact below them, while the
        rate side is capped by P and K only.
    """
    cand = as_candidate(x)
    v = cand.value
    if isinstance(v, Hamiltonian):
        v = element_of_hamiltonian(v)
    _check_gauge_parameter(y, v)
    space = v.space
    variant = v.variant

    op = IdentityResult("rate equals commutator with left multiplication")
    wide = unbounded_profile()
    y_wide = LambdaElement(space, variant, wide, y.terms,
                           already_canonical=True)
    for key in _chain_pool(space, variant, profile, pool_limit):
        e = CEChainElement(space, variant, wide, {key: Fraction(1)},
                           already_canonical=True)
        lhs = gauge_rate(y_wide, e)
        rhs = (chain_delta(left_product(y_wide, e))
               + left_product(y_wide, chain_delta(e)))
        op.record(lhs == rhs, lambda k=key: f"chain {k}")

    flow = IdentityResult("exponential of the rate matches the flowed class")
    x_prof = LambdaElement(space, variant, profile, v.terms,
                           already_canonical=True)
    y_prof = LambdaElement(space, variant, profile, y.terms,
                           already_canonical=True)
    flowed = _flow(y_prof, x_prof)
    lhs = exp_chain(flowed, profile)
    rhs = exp_gauge_rate(y_prof, exp_chain(x_prof, profile))
    window_o, window_k = profile.P - 2, profile.K - 1

    def window(c):
        return {k: v for k, v in c.capped(window_o, window_k).terms.items()
                if k[0] <= profile.G and k[1] <= profile.N}
    flow.record(window(lhs) == window(rhs),
                lambda: f"window order<={window_o} blocks<={window_k} "
                        f"G<={profile.G} N<={profile.N}")

    return HomotopyReport(op, flow)


def class_residual_identity(x: LambdaElement) -> bool:
    """delta(exp(x)) = (dx + [x,x]/2) . exp(x) inside the accurate window;
    holds for any homogeneous x of candidate parity, flat or not.

    The product form needs the blocks of x to be even in the outer
    symmetric algebra, which is the odd-pairing case.  Over an even
    pairing the candidates are odd blocks, exp(x) collapses to 1 + x,
    and the computation degenerates to delta(exp(x)) = dx; that is the
    form verified there."""
    if x.parity() not in (candidate_parity(x.space), None):
        raise UsageError("identity applies to candidate-parity elements")
    prof = x.profile
    cx = exp_chain(x)
    lhs = chain_delta(cx)
    if x.space.form_parity == 1:
        res = mc_residual(MCCandidate(x))
        rhs = chain_mul(embed_element(res), cx)
    else:
        rhs = embed_element(lambda_differential(x))
    w_o, w_k = prof.P - 1, prof.K - 1
    return lhs.capped(w_o, w_k) == rhs.capped(w_o, w_k)
