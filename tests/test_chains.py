import random
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from necklie import (CEChainElement, LambdaElement, TruncationProfile,
                     UsageError, chain_delta, chain_mul, chain_unit,
                     embed_element, lambda_differential, one_dim_space,
                     two_dim_space, unbounded_profile)
from necklie.cecomplex import VARIANTS
from necklie.chains import chain_normalize, chain_order, chain_parity
from necklie.mc import gauge_rate
from necklie.words import canonical_words
from oracles import (necklace_classes, omega_matrix, oracle_chain_delta,
                     oracle_chain_key, oracle_chain_mul, oracle_gauge_rate,
                     oracle_tensor_key)
from test_cecomplex import _three_generator_space

F = Fraction


def chain_pool(space, max_word_len, max_blocks):
    """Small deterministic family of canonical chain keys, all (G, N) in
    {0,1}^2, sign +1 representatives only."""
    words = canonical_words(space, max_word_len)
    blocks = [(w,) for w in words if len(w) >= 2]
    for a, b in combinations_with_replacement(words, 2):
        nm = chain_normalize(space, 0, 0, ((a, b),))
        if nm is not None and len(a) + len(b) <= max_word_len + 2:
            blocks.append(nm[0][2][0])
    blocks = sorted(set(blocks), key=str)[:8]
    keys = set()
    for nb in range(max_blocks + 1):
        for combo in combinations_with_replacement(blocks, nb):
            for G in (0, 1):
                for N in (0, 1):
                    nm = chain_normalize(space, G, N, combo)
                    if nm is not None:
                        keys.add(nm[0])
    return sorted(keys, key=str)


def wide_chain(space, keys, variant="lgv"):
    return CEChainElement(space, variant, unbounded_profile(),
                          {k: F(i + 1) for i, k in enumerate(keys)},
                          already_canonical=True)


def test_chain_normalize_sorts_blocks_and_kills_repeats(sp1):
    t, t3 = (0,), (0, 0, 0)
    nm = chain_normalize(sp1, 0, 0, ((t3,), (t,)))
    assert nm == ((0, 0, ((t,), (t3,))), -1)      # two odd blocks swap
    assert chain_normalize(sp1, 0, 0, ((t,), (t,))) is None
    assert chain_normalize(sp1, 0, 2, ((t,),)) is None
    with pytest.raises(UsageError):
        chain_normalize(sp1, 0, 0, ((),))


def test_chain_order_counts_internal_degrees(sp1):
    key = (1, 1, (((0,), (0, 0, 0)), ((0,),)))
    assert chain_order(key) == 2 + 1 + 1 + 0
    assert chain_parity(sp1, key) == (0 + 1 + 1) & 1


def test_chain_delta_squares_to_zero(sp1, sp2):
    for space, pool in ((sp1, chain_pool(sp1, 5, 3)),
                        (sp2, chain_pool(sp2, 3, 3))):
        checked = 0
        for key in pool:
            x = wide_chain(space, [key])
            assert chain_delta(chain_delta(x)).is_zero(), key
            checked += 1
        assert checked > 30


def test_chain_delta_is_second_order(sp1, sp2):
    """The outer differential is not a derivation of the outer product:
    its Leibniz defect on two one-block chains is exactly the block
    bracket, re-embedded as a single block.  Pair branch, isolated."""
    from necklie.cecomplex import raw_bracket, tensor_parity
    for space, max_len in ((sp1, 4), (sp2, 3)):
        P = space.form_parity
        singles = [k for k in chain_pool(space, max_len, 1)
                   if len(k[2]) == 1]
        checked = 0
        for ga, na, (block_a,) in singles:
            for gb, nb, (block_b,) in singles:
                a = wide_chain(space, [(ga, na, (block_a,))])
                b = wide_chain(space, [(gb, nb, (block_b,))])
                sign_a = (-1) ** chain_parity(space, (ga, na, (block_a,)))
                defect = (chain_delta(chain_mul(a, b))
                          - chain_mul(chain_delta(a), b)
                          - chain_mul(a, chain_delta(b)).scale(sign_a))
                glue = raw_bracket(space, {(0, 0, block_a): F(1)},
                                   {(0, 0, block_b): F(1)})
                sign = (-1) ** (P * tensor_parity(space, (0, 0, block_a)))
                want: dict = {}
                for (g, n, ws), c in glue.items():
                    nm = chain_normalize(space, ga + gb + g, na + nb + n,
                                         (ws,))
                    if nm is not None:
                        want[nm[0]] = want.get(nm[0], F(0)) + sign * c * nm[1]
                want = {k: c for k, c in want.items() if c}
                assert defect.terms == want, (space.names, block_a, block_b)
                checked += 1
        assert checked > 50


def test_chain_mul_is_graded_commutative_and_associative(sp2):
    pool = chain_pool(sp2, 3, 2)[:12]
    for ka in pool:
        for kb in pool:
            a, b = wide_chain(sp2, [ka]), wide_chain(sp2, [kb])
            sign = (-1) ** (chain_parity(sp2, ka) * chain_parity(sp2, kb))
            assert chain_mul(a, b) == chain_mul(b, a).scale(sign)
    for ka in pool[:6]:
        for kb in pool[:6]:
            for kc in pool[:6]:
                a, b, c = (wide_chain(sp2, [k]) for k in (ka, kb, kc))
                assert chain_mul(chain_mul(a, b), c) == \
                    chain_mul(a, chain_mul(b, c))


def test_chain_unit_is_neutral(sp1):
    one = chain_unit(sp1, "lgv", unbounded_profile())
    x = wide_chain(sp1, chain_pool(sp1, 5, 2)[:10])
    assert chain_mul(one, x) == x
    assert chain_mul(x, one) == x
    assert chain_delta(one).is_zero()


def test_embed_intertwines_differentials(sp1, sp2):
    """On single-tensor elements the outer differential restricts to the
    inner one."""
    from necklie.cecomplex import normalize_tensor
    from itertools import product as iproduct
    for space, max_len in ((sp1, 5), (sp2, 3)):
        words = canonical_words(space, max_len)
        keys = set()
        for g in (0, 1):
            for n in (0, 1):
                for k in (1, 2):
                    for combo in iproduct(words, repeat=k):
                        nm = normalize_tensor(space, g, n, combo)
                        if nm is not None and g + n + sum(
                                len(w) for w in combo) >= 2:
                            keys.add(nm[0])
        for key in sorted(keys, key=str)[:40]:
            x = LambdaElement(space, "lgv", unbounded_profile(),
                              {key: F(1)}, already_canonical=True)
            assert embed_element(lambda_differential(x)) == \
                chain_delta(embed_element(x)), key


def test_chain_truncation_caps(sp1):
    prof = TruncationProfile(L=3, K=1, G=1, N=1, P=2)
    t, t3 = (0,), (0, 0, 0)
    x = CEChainElement(sp1, "lgv", prof, {
        (0, 0, ((t,), (t3,))): 1,          # two blocks > K
        (0, 0, ((t, t3),)): 1,             # order 1, fits
        (2, 0, ((t,),)): 1,                # order 4 > P
    })
    assert set(x.terms) == {(0, 0, ((t, t3),))}
    capped = x.capped(max_order=0, max_blocks=1)
    assert capped.is_zero()


def test_chain_compatibility_checks(sp1, sp2):
    a = chain_unit(sp1, "lgv", unbounded_profile())
    b = chain_unit(sp2, "lgv", unbounded_profile())
    with pytest.raises(UsageError):
        chain_mul(a, b)
    c = chain_unit(sp1, "lg", unbounded_profile())
    with pytest.raises(UsageError):
        a + c
    # a complex element is never a chain, even with equal (empty) terms
    lam = LambdaElement(sp1, "lgv", unbounded_profile(), {})
    chn = CEChainElement(sp1, "lgv", unbounded_profile(), {})
    assert lam.terms == chn.terms
    assert lam != chn and chn != lam
    with pytest.raises(UsageError):
        chn + lam
    with pytest.raises(UsageError):
        lam + chn


def random_chain(space, profile, words, rng, size):
    """Seeded chain with up to size terms of 0-3 blocks of 1-2 words,
    canonicalized at the CEChainElement boundary."""
    terms = {}
    for _ in range(size):
        blocks = tuple(tuple(rng.choice(words)
                             for _ in range(rng.randint(1, 2)))
                       for _ in range(rng.randint(0, 3)))
        key = (rng.randint(0, 1), rng.randint(0, 1), blocks)
        terms[key] = F(rng.choice((-1, 1)) * rng.randint(1, 5),
                       rng.randint(1, 3))
    return CEChainElement(space, "lgv", profile, terms)


def test_chain_mul_with_binding_caps_against_oracle(sp1, sp2):
    """Products truncated by the left operand's P, K and L equal the
    oracle's untruncated product cut afterwards; the left and right
    profiles differ, and each cap drops terms the others keep."""
    roomy = TruncationProfile(L=6, K=6, G=2, N=2, P=14)
    pairs = (
        (TruncationProfile(L=6, K=6, G=2, N=2, P=3), roomy),    # P binds
        (TruncationProfile(L=6, K=2, G=2, N=2, P=14), roomy),   # K binds
        (TruncationProfile(L=3, K=6, G=2, N=2, P=14), roomy),   # L binds
        (TruncationProfile(L=5, K=3, G=2, N=2, P=4),
         TruncationProfile(L=6, K=4, G=2, N=2, P=6)),
        (roomy, TruncationProfile(L=4, K=2, G=1, N=1, P=3)),
    )
    for space, max_len, seed in ((sp1, 5, 1009), (sp2, 4, 2003)):
        rng = random.Random(seed)
        words = canonical_words(space, max_len)
        dropped = {"P": 0, "K": 0, "L": 0}
        for _ in range(6):
            for left_prof, right_prof in pairs:
                a = random_chain(space, left_prof, words, rng, 8)
                b = random_chain(space, right_prof, words, rng, 8)
                caps = (left_prof.P, left_prof.K, left_prof.L)
                want = oracle_chain_mul(space.parities, space.nu_parity,
                                        a.terms, b.terms, caps)
                assert chain_mul(a, b).terms == want, (space.names, caps)
                for ka in a.terms:
                    for kb in b.terms:
                        order = chain_order(ka) + chain_order(kb)
                        count = len(ka[2]) + len(kb[2])
                        longest = max((len(w) for bl in ka[2] + kb[2]
                                       for w in bl), default=0)
                        dropped["P"] += order > left_prof.P
                        dropped["K"] += count > left_prof.K
                        dropped["L"] += longest > left_prof.L
        assert min(dropped.values()) > 20, dropped


def _random_chain_terms(rng, space, words, variant, count):
    """count canonical chain terms of 0-3 blocks of 1-2 words, through
    the oracle; N stays 0 in the gamma-only variant."""
    terms: dict = {}
    while len(terms) < count:
        blocks = [tuple(rng.choice(words) for _ in range(rng.randint(1, 2)))
                  for _ in range(rng.randint(0, 3))]
        nus = rng.randint(0, 0 if variant == "lg" else 1)
        nm = oracle_chain_key(space.parities, space.nu_parity,
                              rng.randint(0, 1), ["nu"] * nus + blocks)
        if nm is not None:
            terms[nm[0]] = F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return terms


def _random_parameter_terms(rng, space, words, variant):
    """1-2 tensor keys of the variant whose differential stays in it."""
    terms: dict = {}
    while len(terms) < rng.randint(1, 2):
        if variant == "hq2":
            g, n, ws = 0, 0, [rng.choice([w for w in words if len(w) >= 2])]
        else:
            g = rng.randint(0, 1)
            n = rng.randint(0, 1) if variant == "lgv" else 0
            ws = [rng.choice(words) for _ in range(rng.randint(1, 2))]
        nm = oracle_tensor_key(space.parities, space.nu_parity, g, n, ws)
        if nm is None:
            continue
        # lg drops terms of definition order below 2, and d lowers it by 2
        g, n, ws = nm[0]
        if variant == "hq2" or g + n + sum(len(w) for w in ws) >= 4:
            terms[nm[0]] = F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return terms


@pytest.mark.parametrize("make, max_len", [
    (one_dim_space, 5), (two_dim_space, 3), (_three_generator_space, 3)])
def test_chain_operations_cold_and_warm_match_the_oracles(make, max_len):
    """chain_mul, chain_delta and gauge_rate against references that cache
    nothing, first on a fresh space (misses), then again (hits): the
    second pass adds no memo entry."""
    space = make()
    pars, fp = space.parities, space.form_parity
    omega = omega_matrix(space.form)
    words = sorted(w for length in range(1, max_len + 1)
                   for w in necklace_classes(pars, space.size, length))
    profiles = (unbounded_profile(),
                TruncationProfile(L=max_len + 1, K=3, G=2, N=2, P=4),
                TruncationProfile(L=max_len, K=2, G=2, N=2, P=3))
    rng = random.Random(4099)
    samples = []
    for variant in VARIANTS:
        for _ in range(6):
            prof = rng.choice(profiles)
            a = CEChainElement(space, variant, prof, _random_chain_terms(
                rng, space, words, variant, 4), already_canonical=True)
            b = CEChainElement(space, variant, rng.choice(profiles),
                               _random_chain_terms(rng, space, words,
                                                   variant, 4),
                               already_canonical=True)
            y = LambdaElement(space, variant, unbounded_profile(),
                              _random_parameter_terms(rng, space, words,
                                                      variant),
                              already_canonical=True)
            caps = (prof.P, prof.K, prof.L)
            want = (
                oracle_chain_mul(pars, space.nu_parity, a.terms, b.terms,
                                 caps),
                oracle_chain_delta(pars, omega, fp, a.terms, caps, variant),
                oracle_gauge_rate(pars, omega, fp, y.terms, a.terms, caps,
                                  variant))
            samples.append((a, b, y, want))
    assert any(w[1] for *_, w in samples)
    assert any(w[2] for *_, w in samples)
    assert not space.memo
    for rounds in range(2):
        for a, b, y, (product, delta, rate) in samples:
            assert chain_mul(a, b).terms == product, (a, b)
            assert chain_delta(a).terms == delta, a
            assert gauge_rate(y, a).terms == rate, (y, a)
        if rounds == 0:
            filled = len(space.memo)
    assert len(space.memo) == filled
