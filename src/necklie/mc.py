"""Maurer-Cartan residuals, the gauge flow, and the exponential class.

Candidates, gauge parameters and flowed elements are complex elements
(``LambdaElement``).  Single-word data enters as the ``hq2`` slice of the
complex through ``obstruction.embed_hamiltonian(h, "hq2", profile)``.

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
odd y, so that exp(rate_y) matches ch of the flowed element.  Its bracket
of y into one block is ``chains.bracket_into_block``, the contraction of
the outer differential.

The bracket part of the rate is a sum of one memoized result per pair of
a tensor key of y and a chain key (``_key_rate``); ``embed(dy) . c`` goes
through ``chain_mul``, and its terms enter the same ``words.scaled_sum``
(the one owner of scaled sums) as the bracket part.  The chain-key pool of
``homotopy_check`` (``_chain_pool``) is memoized too, both through
``space.memoized``, which states the memo rule.

embed(dy) depends on y and on the chain profile only, so it is taken once
per caller and handed to the rate body ``_rate``: once per call of
``gauge_rate``, once per series of ``exp_gauge_rate``, and once for the
whole pool loop of ``homotopy_check``, which embeds y once there too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations_with_replacement
from types import MappingProxyType

from .bialgebra import IdentityResult
from .cecomplex import (LambdaElement, TruncationProfile, _tensor,
                        lambda_bracket, lambda_differential,
                        unbounded_profile)
from .chains import (CEChainElement, block_parity, bracket_into_block,
                     chain_delta, chain_mul, chain_order, chain_unit,
                     embed_element, sort_blocks)
from .errors import PreconditionError, UsageError
from .space import SymplecticSpace, memoized
from .words import _canonical_words, scaled_sum

GAUGE_PARITY = 1          # flow directions are odd for both pairing parities
_SERIES_LIMIT = 60


def candidate_parity(space: SymplecticSpace) -> int:
    """Parity of admissible deformation candidates over this space."""
    return 0 if space.form_parity == 1 else 1


def check_parity(x, want: int, what: str) -> None:
    """Refuse x when it is homogeneous of a parity other than want; zero
    and mixed elements pass (flat one-generator samples mix parities)."""
    got = x.parity()
    if got is not None and got != want:
        raise UsageError(f"{what} must have parity {want}, got {got}")


@dataclass(frozen=True)
class MCCandidate:
    """A complex element of the structure parity, possibly non-flat."""

    value: LambdaElement

    def __post_init__(self):
        if not isinstance(self.value, LambdaElement):
            raise UsageError("candidate must wrap a complex element")
        check_parity(self.value, candidate_parity(self.value.space),
                     "candidate")


def as_candidate(x) -> MCCandidate:
    return x if isinstance(x, MCCandidate) else MCCandidate(x)


def mc_residual(x) -> LambdaElement:
    """d(x) + 1/2 [x, x] in the candidate's own variant, truncated."""
    v = as_candidate(x).value
    return (lambda_differential(v)
            + lambda_bracket(v, v).scale(Fraction(1, 2)))


def _check_gauge_parameter(y: LambdaElement, against: LambdaElement) -> None:
    against._check_compatible(y)
    check_parity(y, GAUGE_PARITY, "gauge parameter")


def gauge_act(y: LambdaElement, x) -> MCCandidate:
    """Integrated gauge flow exp(y) . x; truncation caps come from x."""
    v = as_candidate(x).value
    _check_gauge_parameter(y, v)
    return MCCandidate(_flow(y, v))


def _series(term, step):
    """term + step(term, 1) + step(step(term, 1), 2) + ..., summed until a
    term vanishes; step(t, m) returns the m-th term from the one before."""
    out = term
    m = 0
    while not term.is_zero():
        m += 1
        if m > _SERIES_LIMIT:
            raise UsageError("series did not terminate; the profile admits "
                             "order-zero directions it cannot exhaust")
        term = step(term, m)
        out = out + term
    return out


def _flow(y: LambdaElement, x: LambdaElement) -> LambdaElement:
    # the partial sums run in y's profile, which already truncates every
    # term (each comes from lambda_bracket(y, .)); adding x applies its caps
    return x + _series(
        lambda_differential(y) - lambda_bracket(y, x),
        lambda t, m: lambda_bracket(y, t).scale(Fraction(-1, m + 1)))


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
    return _series(chain_unit(x.space, x.variant, profile),
                   lambda t, m: chain_mul(t, xc).scale(Fraction(1, m)))


def char_class(x) -> CEChainElement:
    """Exponential class of a flat candidate; caps come from x's profile."""
    cand = as_candidate(x)
    residual = mc_residual(cand)
    if not residual.is_zero():
        raise PreconditionError(
            "candidate is not flat within truncation", evidence=residual)
    return exp_chain(cand.value)


@memoized("chain_rate")
def _key_rate(space: SymplecticSpace, with_nu: bool, ykey, ckey):
    """Memoized bracket of the tensor key ykey into each block of the chain
    key ckey, signed and summed, read-only."""
    G, N, blocks = ckey
    out: dict = {}
    bpars = [block_parity(space, b) for b in blocks]
    for i, block in enumerate(blocks):
        pre = sum(bpars[:i]) & 1
        rest = tuple(b for l, b in enumerate(blocks) if l != i)
        sign = 1 if bpars[i] * pre & 1 else -1
        bracket_into_block(out, space, G, N, sign, ykey, (0, 0, block),
                           bpars[i], rest, with_nu)
    return MappingProxyType(out)


def _rate(y: LambdaElement, dy: CEChainElement,
          c: CEChainElement) -> CEChainElement:
    """Body of gauge_rate, given dy = embed(d y) in c's profile."""
    space = c.space
    with_nu = c.variant == "lgv"
    product = chain_mul(dy, c).terms.items()
    params = [(ykey, cy.numerator, cy.denominator)
              for ykey, cy in y.terms.items()]
    return c.replace_terms(scaled_sum(chain(
        ((1, 1, product),),
        ((cc.numerator * yn, cc.denominator * yd,
          _key_rate(space, with_nu, ykey, ckey).items())
         for ckey, cc in c.terms.items() for ykey, yn, yd in params))))


def gauge_rate(y: LambdaElement, c: CEChainElement) -> CEChainElement:
    """Infinitesimal gauge action on chains: embed(dy).c minus the signed
    bracket of y into each block."""
    return _rate(y, embed_element(lambda_differential(y), c.profile), c)


def exp_gauge_rate(y: LambdaElement, c: CEChainElement) -> CEChainElement:
    """Operator exponential of the rate, truncated by c's profile; every
    term of the series has that profile, so dy is embedded once."""
    dy = embed_element(lambda_differential(y), c.profile)
    return _series(c, lambda t, m: _rate(y, dy, t).scale(Fraction(1, m)))


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


@memoized("chain_pool")
def _chain_pool(space, variant, profile, limit):
    """Deterministic small family of chain keys inside the profile, as a
    tuple memoized per (variant, profile, limit); its blocks are canonical
    tensors, so keys need only the outer sort."""
    words = _canonical_words(space, min(profile.L, 4))
    blocks = []
    for w in words:
        if len(w) >= 2:
            blocks.append((w,))
    for a in range(len(words)):
        for b in range(a, len(words)):
            nm = _tensor(space, 0, 0, (words[a], words[b]))
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
                    nm = sort_blocks(space, g, n, combo)
                    if nm is not None and chain_order(nm[0]) <= profile.P:
                        pool.add(nm[0])
    return tuple(sorted(pool, key=lambda k: (chain_order(k), k))[:limit])


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
    v = as_candidate(x).value
    _check_gauge_parameter(y, v)
    space = v.space
    variant = v.variant

    op = IdentityResult("rate equals commutator with left multiplication")
    wide = unbounded_profile()
    y_wide = y.with_profile(wide)
    # every chain of the loop has the wide profile: embed y and dy once
    dy_wide = embed_element(lambda_differential(y_wide), wide)
    left = embed_element(y_wide, wide)
    empty = CEChainElement(space, variant, wide)
    for key in _chain_pool(space, variant, profile, pool_limit):
        e = empty.replace_terms({key: Fraction(1)})
        lhs = _rate(y_wide, dy_wide, e)
        rhs = chain_delta(chain_mul(left, e)) + chain_mul(left, chain_delta(e))
        op.record(lhs == rhs, lambda k=key: f"chain {k}")

    flow = IdentityResult("exponential of the rate matches the flowed class")
    x_prof = v.with_profile(profile)
    y_prof = y.with_profile(profile)
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
    check_parity(x, candidate_parity(x.space), "the identity's element")
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
