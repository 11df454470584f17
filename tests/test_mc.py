import random
import sys
from fractions import Fraction
from types import MappingProxyType

import pytest

import necklie.cecomplex as cecomplex
import necklie.mc as mc
from necklie import (LambdaElement, PreconditionError, TruncationProfile,
                     UsageError, char_class, embed_element, embed_hamiltonian,
                     gauge_act, general_solution_sample, homotopy_check,
                     mc_residual, one_dim_space, two_dim_space)
from necklie.bialgebra import IdentityResult
from necklie.cecomplex import normalize_tensor, variant_complaint
from necklie.chains import CEChainElement, chain_delta, chain_mul
from necklie.mc import (HomotopyReport, MCCandidate, _chain_pool,
                        as_candidate, candidate_parity,
                        class_residual_identity, exp_chain, exp_gauge_rate,
                        gauge_rate)
from necklie.words import Hamiltonian, canonical_words

F = Fraction

T, X, XI = (0,), 0, 1          # generator indices: t in 1-d, x/xi in 2-d


def elem(space, variant, terms, L=9, K=3, G=2, N=2, P=4):
    return LambdaElement(space, variant, TruncationProfile(L, K, G, N, P),
                         {k: F(c) for k, c in terms.items()})


def single_words(space, terms):
    """Single-word data in the hq2 slice, with the caps L=6, K=1, G=1,
    N=0, P=1 the golden values were computed in."""
    return embed_hamiltonian(Hamiltonian(space, terms), "hq2",
                             TruncationProfile(L=6, K=1, G=1, N=0, P=1))


def test_candidate_parity_rules(sp1, sp2):
    assert candidate_parity(sp1) == 1      # even pairing, odd candidates
    assert candidate_parity(sp2) == 0
    as_candidate(elem(sp1, "lgv", {(0, 0, ((0, 0, 0),)): 1}))
    as_candidate(elem(sp2, "lgv", {(0, 0, ((X, X),)): 2}))
    as_candidate(elem(sp1, "lgv", {}))     # zero is vacuously homogeneous
    # a flat one-generator sample mixing term parities 0 and 1 passes
    mixed = general_solution_sample({(0, (1, 2)): 3, (1, (1,)): F(1, 5)},
                                     TruncationProfile(L=5, K=2, G=1))
    assert mixed.parity() is None
    as_candidate(mixed)
    cand = as_candidate(single_words(sp2, {(X, X): 1}))
    assert as_candidate(cand) is cand      # idempotent wrapper
    with pytest.raises(UsageError):
        MCCandidate(elem(sp1, "lgv", {(0, 1, ((0,),)): 1}))    # even in 1-d
    with pytest.raises(UsageError):
        MCCandidate(elem(sp2, "lgv", {(0, 0, ((X, X, XI),)): 1}))  # odd in 2-d
    with pytest.raises(UsageError):        # single words enter embedded
        MCCandidate(Hamiltonian(sp2, {(X, X): F(1)}))
    with pytest.raises(UsageError):
        MCCandidate("not an element")


def test_residual_goldens(sp1, sp2):
    t3 = {(0, 0, ((0, 0, 0),)): 1}
    r = mc_residual(elem(sp1, "lgv", t3))
    assert r.terms == {(0, 1, ((0,),)): F(3)}      # d(t^3) = 3 nu t
    assert mc_residual(elem(sp1, "lg", t3)).is_zero()
    assert mc_residual(elem(sp1, "hq2", t3)).is_zero()
    assert mc_residual(elem(sp2, "lgv", {(0, 0, ((X, X),)): 2})).is_zero()
    rh = mc_residual(single_words(sp2, {(X, X): F(2)}))
    assert isinstance(rh, LambdaElement) and rh.terms == {}


def test_gauge_parameter_validation(sp1, sp2):
    x = elem(sp2, "lgv", {(0, 0, ((X, X),)): 2})
    with pytest.raises(UsageError):        # even parameter
        gauge_act(elem(sp2, "lgv", {(0, 0, ((X, X),)): 1}), x)
    with pytest.raises(UsageError):        # wrong space
        gauge_act(elem(sp1, "lgv", {(0, 0, ((0, 0, 0),)): 1}), x)
    with pytest.raises(UsageError):        # wrong variant
        gauge_act(elem(sp2, "lg", {(0, 0, ((X, X, XI),)): 1}), x)
    with pytest.raises(UsageError):
        gauge_act("y", x)


def test_gauge_flow_preserves_flatness_exactly(sp2):
    """Roomy caps on every axis make the truncated flow agree with the
    exact one through order P, so the residual stays literally zero."""
    prof = TruncationProfile(L=14, K=5, G=6, N=6, P=4)
    x = LambdaElement(sp2, "lgv", prof, {(0, 0, ((X, X),)): F(2)})
    assert mc_residual(x).is_zero()
    y = LambdaElement(sp2, "lgv", prof,
                      {(0, 0, ((X, X, XI),)): F(1), (0, 1, ((XI,),)): F(1, 3)})
    assert y.parity() == 1
    flowed = gauge_act(y, x)
    assert flowed.value != x               # the orbit actually moves
    assert mc_residual(flowed).is_zero()


def test_gauge_flow_is_trivial_in_one_dim_lg(sp1):
    """With the circle parameter removed every 1-d bracket vanishes and
    the flow degenerates to the identity."""
    prof = TruncationProfile(L=11, K=3, G=4, N=0, P=5)
    x = LambdaElement(sp1, "lg", prof, {(0, 0, ((0, 0, 0),)): F(1)})
    y = LambdaElement(sp1, "lg", prof, {(0, 0, ((0, 0, 0, 0, 0),)): F(1, 2)})
    assert gauge_act(y, x).value == x


def test_gauge_flow_hamiltonian_golden(sp2):
    x = single_words(sp2, {(X, X): F(2)})
    y = single_words(sp2, {(X, X, XI): F(1)})
    flowed = gauge_act(y, x)
    assert flowed.value.variant == "hq2"
    assert flowed.value.terms == {
        (0, 0, ((X, X),)): F(2),
        (0, 0, ((X, X, X),)): F(4),
        (0, 0, ((X, X, X, X),)): F(6),
        (0, 0, ((X, X, X, X, X),)): F(8),
        (0, 0, ((X, X, X, X, X, X),)): F(10),
    }
    assert mc_residual(flowed).terms == {}


def test_exp_chain_unit_and_block_cap(sp2):
    prof = TruncationProfile(L=4, K=2, G=1, N=1, P=4)
    zero = LambdaElement(sp2, "lgv", prof, {})
    assert exp_chain(zero).terms == {(0, 0, ()): F(1)}
    x = LambdaElement(sp2, "lgv", prof, {(0, 0, ((X, X),)): F(2)})
    cx = exp_chain(x)
    xx = (X, X)
    assert cx.terms == {
        (0, 0, ()): F(1),
        (0, 0, ((xx,),)): F(2),
        (0, 0, ((xx,), (xx,))): F(2),      # 2*2/2!, third power capped away
    }


def test_exp_chain_tight_equals_roomy_truncated(sp1, sp2):
    """Skipping products past the caps drops only what truncation drops:
    the class in a tight profile is the roomy class cut to that profile."""
    roomy = TruncationProfile(L=8, K=5, G=3, N=3, P=9)
    tights = (TruncationProfile(L=8, K=5, G=3, N=3, P=3),
              TruncationProfile(L=8, K=2, G=3, N=3, P=9),
              TruncationProfile(L=3, K=5, G=3, N=3, P=9),
              TruncationProfile(L=4, K=3, G=1, N=1, P=4))
    rng = random.Random(1618)
    for space in (sp1, sp2):
        words = canonical_words(space, 4 if space is sp1 else 3)
        for variant in ("lg", "lgv"):
            keys = set()
            for g in (0, 1):
                for n in ((0, 1) if variant == "lgv" else (0,)):
                    for k in (1, 2):
                        for _ in range(12):
                            nm = normalize_tensor(
                                space, g, n,
                                [rng.choice(words) for _ in range(k)])
                            if nm and not variant_complaint(variant, nm[0]):
                                keys.add(nm[0])
            keys = sorted(keys)
            cuts, largest = 0, 0
            for _ in range(3):
                x = LambdaElement(space, variant, roomy,
                                  {k: F(rng.randint(-4, 4) or 1,
                                        rng.randint(1, 3))
                                   for k in rng.sample(keys, 4)})
                wide = exp_chain(x, roomy)
                largest = max(largest, len(wide.terms))
                for tight in tights:
                    cut = CEChainElement(space, variant, tight, wide.terms,
                                         already_canonical=True)
                    cuts += len(cut.terms) < len(wide.terms)
                    assert exp_chain(x, tight) == cut, (space.names,
                                                        variant, tight)
            assert cuts >= 6 and largest > 8, (space.names, variant)


def test_char_class_requires_flat(sp1, sp2):
    bad = elem(sp1, "lgv", {(0, 0, ((0, 0, 0),)): 1})
    with pytest.raises(PreconditionError) as err:
        char_class(bad)
    assert err.value.evidence.terms == {(0, 1, ((0,),)): F(3)}
    flat = elem(sp2, "lgv", {(0, 0, ((X, X),)): 2}, L=4, K=2, G=1, N=1)
    assert char_class(flat) == exp_chain(flat)


def test_homotopy_identities_seeded(sp1, sp2):
    prof1 = TruncationProfile(L=7, K=3, G=2, N=2, P=3)
    prof2 = TruncationProfile(L=5, K=3, G=1, N=1, P=3)
    odd_pool_1 = [(0, 0, ((0, 0, 0),)), (0, 0, ((0, 0, 0, 0, 0),)),
                  (1, 0, ((0, 0, 0),)), (0, 2, ((0, 0, 0),))]
    odd_pool_2 = [(0, 0, ((X, X, XI),)), (0, 0, ((XI,) * 3,)),
                  (0, 1, ((XI,),)), (1, 0, ((XI,),))]
    rng = random.Random(2718)
    for _ in range(4):
        y1 = LambdaElement(sp1, "lgv", prof1,
                           {k: F(rng.randint(1, 3)) for k in
                            rng.sample(odd_pool_1, 2)})
        x1 = LambdaElement(sp1, "lgv", prof1, {(0, 0, ((0, 0, 0),)): F(1)})
        rep = homotopy_check(y1, x1, prof1)
        assert rep.passed, rep.summary_lines()
        assert rep.operator_identity.checked > 10

        y2 = LambdaElement(sp2, "lgv", prof2,
                           {k: F(rng.randint(1, 3)) for k in
                            rng.sample(odd_pool_2, 2)})
        x2 = LambdaElement(sp2, "lgv", prof2, {(0, 0, ((X, X),)): F(2)})
        rep = homotopy_check(y2, x2, prof2)
        assert rep.passed, rep.summary_lines()

    # a two-step orbit whose G and N caps bind below P: the flowed element
    # loses terms to them, so the flow comparison must leave them out too
    prof3 = TruncationProfile(L=4, K=3, G=1, N=1)
    x3 = LambdaElement(sp2, "lgv", prof3,
                       {(0, 0, ((X, X),)): F(rng.randint(1, 3)),
                        (1, 0, ((X, X),)): F(rng.randint(1, 3))})
    for keys in (((0, 0, ((X, X, XI),)),),
                 ((0, 1, ((XI,),)), (1, 0, ((XI,),)))):
        y3 = LambdaElement(sp2, "lgv", prof3,
                           {k: F(rng.randint(1, 3)) for k in keys})
        rep = homotopy_check(y3, x3, prof3)
        assert rep.passed, rep.summary_lines()
        x3 = gauge_act(y3, x3).value


def test_class_residual_identity(sp1, sp2):
    flat = elem(sp2, "lgv", {(0, 0, ((X, X),)): 2}, L=6, K=3, G=1, N=1)
    assert class_residual_identity(flat)
    bumpy = elem(sp2, "lgv", {(0, 0, ((X, X, XI, XI),)): 1,
                              (0, 0, ((X, XI),)): 2}, L=8, K=4, P=3)
    assert not mc_residual(bumpy).is_zero()
    assert class_residual_identity(bumpy)  # product form, non-flat input
    crooked = elem(sp1, "lgv", {(0, 0, ((0, 0, 0),)): 1},
                   L=7, K=3, G=2, N=2)     # not flat, degenerate form
    assert class_residual_identity(crooked)
    with pytest.raises(UsageError):
        class_residual_identity(elem(sp2, "lgv", {(0, 0, ((X, X, XI),)): 1}))


def test_even_pairing_exponential_collapses(sp1):
    """Candidates over an even pairing are odd blocks, so the series
    stops after the linear term and the product form of the cycle
    computation overcounts by exactly residual . x."""
    t, t3 = (0,), (0, 0, 0)
    prof = TruncationProfile(L=9, K=3, G=2, N=2, P=4)
    x = LambdaElement(sp1, "lgv", prof, {(0, 0, (t3,)): F(1)})
    cx = exp_chain(x)
    assert cx.terms == {(0, 0, ()): F(1), (0, 0, ((t3,),)): F(1)}
    res = mc_residual(x)
    defect = chain_delta(cx) - chain_mul(embed_element(res), cx)
    assert defect.terms == {(0, 1, ((t,), (t3,))): F(-3)}


def _orbit_job(space, x_coeffs, y_coeffs):
    """One gauge step, its homotopy check and the class of the endpoint."""
    prof = TruncationProfile(L=3, K=3, G=3, N=5, P=5)
    x = LambdaElement(space, "lgv", prof,
                      {(0, 0, ((X, X),)): x_coeffs[0],
                       (1, 0, ((X, X),)): x_coeffs[1]})
    y = LambdaElement(space, "lgv", prof,
                      {(0, 1, ((XI,),)): y_coeffs[0],
                       (1, 0, ((XI,),)): y_coeffs[1]})
    flowed = gauge_act(y, x)
    assert homotopy_check(y, x, prof).passed
    return char_class(flowed)


def test_chain_memo_keys_carry_no_coefficients():
    """A second orbit job with the same keys and new coefficients adds no
    memo entry, and the chain entries are read-only."""
    space = two_dim_space()
    _orbit_job(space, (F(2), F(-1)), (F(1), F(1, 3)))
    filled = len(space.memo)
    kinds = {k[0] for k in space.memo}
    assert {"chain_product", "chain_delta", "chain_rate",
            "chain_pool"} <= kinds
    cls = _orbit_job(space, (F(-7, 2), F(5)), (F(-3), F(2, 9)))
    assert len(space.memo) == filled
    assert cls == _orbit_job(two_dim_space(), (F(-7, 2), F(5)),
                             (F(-3), F(2, 9)))
    for key, entry in space.memo.items():
        if key[0] in ("chain_delta", "chain_rate"):
            assert isinstance(entry, MappingProxyType)
            with pytest.raises(TypeError):
                entry[(0, 0, ())] = F(1)
        elif key[0] in ("chain_product", "chain_pool"):
            assert entry is None or isinstance(entry, tuple)


def test_a_chain_miss_calls_no_traced_function(monkeypatch):
    """A cold chain product, outer differential, rate and pool reach the
    tensor and word layers through their private bodies only; the one
    raw_differential call is the rate's own dy."""
    def refuse(*args, **kwargs):
        raise AssertionError("a traced function ran on a miss")
    seen = []

    def counted(space, terms, with_nu=True):
        seen.append(dict(terms))
        return original(space, terms, with_nu)
    original = cecomplex.raw_differential
    for name, module in list(sys.modules.items()):
        if name.startswith("necklie"):
            for fn in ("raw_bracket", "normalize_tensor", "canonical_words",
                       "normalize_word", "chain_normalize"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
            if hasattr(module, "raw_differential"):
                monkeypatch.setattr(module, "raw_differential", counted)
    space = two_dim_space()
    prof = TruncationProfile(L=4, K=3, G=2, N=2)
    pool = _chain_pool(space, "lgv", prof, 40)
    assert len(pool) == 40 and _chain_pool(space, "lgv", prof, 40) is pool
    c = CEChainElement(space, "lgv", prof,
                       {key: F(i + 1) for i, key in enumerate(pool)},
                       already_canonical=True)
    assert not chain_mul(c, c).is_zero()
    assert not chain_delta(c).is_zero()
    assert not seen
    y = LambdaElement(space, "lgv", prof, {(0, 0, ((X, X, XI),)): F(1),
                                           (0, 1, ((XI,),)): F(2)},
                      already_canonical=True)
    assert not gauge_rate(y, c).is_zero()
    assert seen == [y.terms]


def _report(operator_checked):
    return HomotopyReport(
        IdentityResult("rate equals commutator with left multiplication",
                       operator_checked),
        IdentityResult("exponential of the rate matches the flowed class",
                       1))


def test_rate_series_and_check_take_dy_once(monkeypatch):
    """exp_gauge_rate takes d y once, however long its series runs;
    homotopy_check takes it three times (pool loop, rate series, flow),
    and its reports on both shipped spaces are pinned."""
    calls = []

    def counting(x):
        calls.append(x)
        return lambda_differential(x)
    rates = []

    def counting_rate(y, dy, c):
        rates.append(c)
        return rate(y, dy, c)
    lambda_differential, rate = mc.lambda_differential, mc._rate
    monkeypatch.setattr(mc, "lambda_differential", counting)
    monkeypatch.setattr(mc, "_rate", counting_rate)

    sp1, sp2 = one_dim_space(), two_dim_space()
    prof1 = TruncationProfile(L=7, K=3, G=2, N=2, P=3)
    y1 = LambdaElement(sp1, "lgv", prof1, {(0, 0, ((0, 0, 0),)): F(2),
                                           (1, 0, ((0, 0, 0),)): F(-1, 3)})
    x1 = LambdaElement(sp1, "lgv", prof1, {(0, 0, ((0, 0, 0),)): F(1)})
    prof2 = TruncationProfile(L=5, K=3, G=1, N=1, P=3)
    y2 = LambdaElement(sp2, "lgv", prof2, {(0, 0, ((X, X, XI),)): F(3, 2),
                                           (0, 1, ((XI,),)): F(-1)})
    x2 = LambdaElement(sp2, "lgv", prof2, {(0, 0, ((X, X),)): F(2)})
    lengths = set()
    for y, x in ((y1, x1), (y2, x2)):
        for c in (exp_chain(x), embed_element(x)):
            calls.clear()
            rates.clear()
            exp_gauge_rate(y, c)
            assert len(calls) == 1
            lengths.add(len(rates))
    assert len(lengths) >= 2 and max(lengths) >= 3, lengths

    for y, x, prof, checked in ((y1, x1, prof1, 16), (y2, x2, prof2, 40)):
        calls.clear()
        assert homotopy_check(y, x, prof) == _report(checked)
        assert len(calls) == 3
