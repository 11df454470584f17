import re
from fractions import Fraction
from itertools import product
from random import Random

import pytest

from necklie import (CEChainElement, LambdaElement, SymplecticSpace,
                     TruncationProfile, UsageError, chain_coproduct, coproduct,
                     extend_cobracket, lambda_bracket, lambda_differential,
                     normalize_tensor, one_dim_space, project,
                     two_dim_space, unbounded_profile)
from necklie.cecomplex import (definition_order, filtration_order,
                               raw_ce_delta, raw_coproduct, raw_differential,
                               raw_extend_cobracket, raw_bracket,
                               tensor_parity)
from necklie.words import canonical_words
from oracles import (necklace_classes, omega_matrix, oracle_tensor_bracket,
                     oracle_tensor_differential, oracle_tensor_key)
from test_bialgebra import _halved_one_dim_space

F = Fraction


def tensor_basis(space, max_len, max_factors, max_g=1, max_n=1):
    """Every canonical tensor key within the caps, sign +1 representatives."""
    words = canonical_words(space, max_len)
    keys = set()
    for g in range(max_g + 1):
        for n in range(max_n + 1):
            for k in range(1, max_factors + 1):
                for combo in product(words, repeat=k):
                    nm = normalize_tensor(space, g, n, combo)
                    if nm is not None:
                        keys.add(nm[0])
    return sorted(keys, key=str)


def compose(op1, op2, key):
    out: dict = {}
    for k, c in op2({key: F(1)}).items():
        for k2, c2 in op1({k: F(1)}).items():
            out[k2] = out.get(k2, F(0)) + c * c2
    return {k: c for k, c in out.items() if c}


# ---------------------------------------------------------------------------
# normalization


def test_normalize_sorts_with_koszul_signs(sp1):
    t, t3 = (0,), (0, 0, 0)
    assert normalize_tensor(sp1, 0, 0, (t3, t)) == ((0, 0, (t, t3)), -1)
    assert normalize_tensor(sp1, 0, 0, (t, t3)) == ((0, 0, (t, t3)), 1)


def test_normalize_kills_repeated_odd_factor(sp1, sp2):
    assert normalize_tensor(sp1, 0, 0, ((0,), (0,))) is None
    assert normalize_tensor(sp2, 0, 0, ((1,), (1,))) is None
    # even factors may repeat
    assert normalize_tensor(sp2, 0, 0, ((0, 0), (0, 0))) is not None


def test_normalize_kills_nu_squared_only_for_odd_nu(sp1, sp2):
    assert sp1.nu_parity == 1 and sp2.nu_parity == 0
    assert normalize_tensor(sp1, 0, 2, ((0,),)) is None
    assert normalize_tensor(sp2, 0, 2, ((0,),)) is not None


def test_normalize_canonicalizes_each_word(sp2):
    got = normalize_tensor(sp2, 0, 0, ((1, 0),))
    assert got == ((0, 0, ((0, 1),)), 1)
    with pytest.raises(UsageError):
        normalize_tensor(sp2, -1, 0, ((0,),))


def test_orders(sp1):
    key = (2, 1, ((0,), (0, 0, 0)))
    assert definition_order(key) == 2 + 1 + 4
    assert filtration_order(key) == 4 + 1 + 2 - 1
    assert tensor_parity(sp1, key) == (1 + 1 + 1) & 1


# ---------------------------------------------------------------------------
# differential identities; raw operators, no truncation anywhere


@pytest.mark.parametrize("which", ["delta", "cobracket", "mixed", "full",
                                   "nu_free"])
def test_squares_vanish_1d(sp1, which):
    _check_square(sp1, which, tensor_basis(sp1, 5, 3, max_g=2, max_n=1))


@pytest.mark.parametrize("which", ["delta", "cobracket", "mixed", "full",
                                   "nu_free"])
def test_squares_vanish_2d(sp2, which):
    _check_square(sp2, which, tensor_basis(sp2, 3, 3, max_g=1, max_n=2))


def _check_square(space, which, basis):
    delta = lambda t: raw_ce_delta(space, t)
    cob = lambda t: raw_extend_cobracket(space, t)
    full = lambda t: raw_differential(space, t, with_nu=True)
    nu_free = lambda t: raw_differential(space, t, with_nu=False)
    checked = 0
    for key in basis:
        if which == "delta":
            bad = compose(delta, delta, key)
        elif which == "cobracket":
            bad = compose(cob, cob, key)
        elif which == "mixed":
            bad = compose(delta, cob, key)
            for k, c in compose(cob, delta, key).items():
                bad[k] = bad.get(k, F(0)) + c
            bad = {k: c for k, c in bad.items() if c}
        elif which == "full":
            bad = compose(full, full, key)
        else:
            if key[1] != 0:
                continue
            bad = compose(nu_free, nu_free, key)
        checked += 1
        assert not bad, (which, key, bad)
    assert checked > (15 if which == "nu_free" else 40)


def test_delta_is_a_coproduct_coderivation(sp1, sp2):
    """delta on a factor of the unshuffle, transported past the left factor
    with the operator parity (the form parity), equals delta then unshuffle."""
    for space, basis in ((sp1, tensor_basis(sp1, 5, 3)),
                         (sp2, tensor_basis(sp2, 3, 3))):
        P = space.form_parity
        for key in basis:
            lhs: dict = {}
            for (kl, kr), c in raw_coproduct(space, {key: F(1)}).items():
                for k2, c2 in raw_ce_delta(space, {kl: F(1)}).items():
                    _add(lhs, (k2, kr), c * c2)
                s = (-1) ** (P * tensor_parity(space, kl))
                for k2, c2 in raw_ce_delta(space, {kr: F(1)}).items():
                    _add(lhs, (kl, k2), c * c2 * s)
            rhs: dict = {}
            for k2, c2 in raw_ce_delta(space, {key: F(1)}).items():
                for kk, cc in raw_coproduct(space, {k2: c2}).items():
                    _add(rhs, kk, cc)
            for k, c in rhs.items():
                _add(lhs, k, -c)
            assert not lhs, key


def _add(d, k, c):
    if c == 0:
        return
    new = d.get(k, F(0)) + c
    if new == 0:
        d.pop(k, None)
    else:
        d[k] = new


# ---------------------------------------------------------------------------
# bracket identities on tensors


def _single(key):
    return {key: F(1)}


def test_bracket_shifted_antisymmetry(sp1, sp2):
    for space in (sp1, sp2):
        P = space.form_parity
        basis = tensor_basis(space, 3, 2)[:25]
        for u in basis:
            for v in basis:
                uv = raw_bracket(space, _single(u), _single(v))
                vu = raw_bracket(space, _single(v), _single(u))
                s = (-1) ** ((tensor_parity(space, u) + P)
                             * (tensor_parity(space, v) + P))
                bad = dict(uv)
                for k, c in vu.items():
                    _add(bad, k, s * c)
                assert not bad, (u, v)


def test_bracket_graded_jacobi(sp2):
    P = sp2.form_parity
    basis = tensor_basis(sp2, 3, 2)[:12]
    for u in basis:
        for v in basis:
            for w in basis:
                bad: dict = {}
                for k, c in raw_bracket(
                        sp2, _single(u),
                        raw_bracket(sp2, _single(v), _single(w))).items():
                    _add(bad, k, c)
                for k, c in raw_bracket(
                        sp2, raw_bracket(sp2, _single(u), _single(v)),
                        _single(w)).items():
                    _add(bad, k, -c)
                s = (-1) ** ((tensor_parity(sp2, u) + P)
                             * (tensor_parity(sp2, v) + P))
                for k, c in raw_bracket(
                        sp2, _single(v),
                        raw_bracket(sp2, _single(u), _single(w))).items():
                    _add(bad, k, -s * c)
                assert not bad, (u, v, w)


def test_bracket_leibniz_over_wedge(sp2):
    P = sp2.form_parity
    basis = tensor_basis(sp2, 3, 1)[:10]
    for u in basis:
        for v in basis:
            for w in basis:
                vw = _wedge(sp2, v, w)
                lhs: dict = {}
                for kk, cc in vw.items():
                    for k2, c2 in raw_bracket(sp2, _single(u),
                                              {kk: cc}).items():
                        _add(lhs, k2, c2)
                for k2, c2 in raw_bracket(sp2, _single(u),
                                          _single(v)).items():
                    for k3, c3 in _wedge(sp2, k2, w).items():
                        _add(lhs, k3, -c2 * c3)
                s = (-1) ** ((tensor_parity(sp2, u) + P)
                             * tensor_parity(sp2, v))
                for k2, c2 in raw_bracket(sp2, _single(u),
                                          _single(w)).items():
                    for k3, c3 in _wedge(sp2, v, k2).items():
                        _add(lhs, k3, -s * c2 * c3)
                assert not lhs, (u, v, w)


def _wedge(space, k1, k2):
    g1, n1, w1 = k1
    g2, n2, w2 = k2
    nm = normalize_tensor(space, g1 + g2, n1 + n2, w1 + w2)
    return {} if nm is None else {nm[0]: F(nm[1])}


# ---------------------------------------------------------------------------
# filtration and definition gradings


def test_differential_shifts_gradings(sp1, sp2):
    for space, basis in ((sp1, tensor_basis(sp1, 5, 3)),
                         (sp2, tensor_basis(sp2, 3, 3))):
        for key in basis:
            for out, _ in raw_differential(space, {key: F(1)},
                                           with_nu=True).items():
                assert filtration_order(out) == filtration_order(key) + 1
                assert definition_order(out) == definition_order(key) - 1


def test_bracket_adds_filtration_orders(sp2):
    basis = tensor_basis(sp2, 3, 2)[:20]
    for u in basis:
        for v in basis:
            want = filtration_order(u) + filtration_order(v)
            for out in raw_bracket(sp2, _single(u), _single(v)):
                assert filtration_order(out) == want


# ---------------------------------------------------------------------------
# the element wrapper


def test_element_validates_variant(sp1):
    prof = TruncationProfile(L=5, K=2, G=1, N=1)
    x = LambdaElement(sp1, "lgv", prof, {(0, 1, ((0,),)): 1})
    assert x.terms == {(0, 1, ((0,),)): F(1)}
    with pytest.raises(UsageError):
        LambdaElement(sp1, "lg", prof, {(0, 1, ((0,),)): 1})
    with pytest.raises(UsageError):
        # definition order 1 is below the complex
        LambdaElement(sp1, "lgv", prof, {(0, 0, ((0,),)): 1})
    with pytest.raises(UsageError):
        LambdaElement(sp1, "bogus", prof, {})


def test_element_silently_drops_out_of_profile_terms(sp1):
    prof = TruncationProfile(L=3, K=1, G=1, N=1)
    x = LambdaElement(sp1, "lgv", prof,
                      {(0, 0, ((0, 0, 0), (0, 0, 0, 0, 0))): 1,   # K and L
                       (0, 1, ((0, 0, 0),)): 2})
    assert x.terms == {(0, 1, ((0, 0, 0),)): F(2)}


def test_element_zero_terms_cleared_before_variant_check(sp1):
    prof = TruncationProfile(L=4, K=2, G=1, N=1)
    x = LambdaElement(sp1, "lgv", prof, {(0, 0, ((0, 0),)): 1})
    assert x.is_zero()            # t^2 is the zero necklace, not a violation


def test_element_arithmetic_and_components(sp1):
    prof = TruncationProfile(L=5, K=2, G=2, N=1)
    a = LambdaElement(sp1, "lgv", prof, {(1, 0, ((0,),)): 1})
    b = LambdaElement(sp1, "lgv", prof, {(0, 1, ((0, 0, 0),)): 3})
    s = a + b
    assert s.min_filtration_order() == 1    # nu t^3 sits at order 1
    assert s.component_of_order(2).terms == a.terms
    assert s.component_of_order(1).terms == b.terms
    assert (s - s).is_zero()
    assert s.scale(F(1, 3)).terms[(0, 1, ((0, 0, 0),))] == F(1)
    assert a.parity() == 1 and s.parity() is None


def test_lambda_differential_identity_at_element_level(sp1, sp2):
    wide = unbounded_profile()
    for space, keys in ((sp1, tensor_basis(sp1, 5, 3)),
                        (sp2, tensor_basis(sp2, 3, 2))):
        picks = [k for k in keys if definition_order(k) >= 2][:30]
        x = LambdaElement(space, "lgv", wide,
                          {k: F(i + 1) for i, k in enumerate(picks)})
        assert lambda_differential(lambda_differential(x)).is_zero()


def test_lambda_bracket_filters_nu_in_gamma_variant(sp1):
    wide = unbounded_profile()
    x = LambdaElement(sp1, "lg", wide, {(0, 0, ((0,), (0, 0, 0))): 1})
    y = LambdaElement(sp1, "lg", wide, {(1, 0, ((0, 0, 0),)): 1})
    out = lambda_bracket(x, y)
    assert all(k[1] == 0 for k in out.terms)
    with pytest.raises(UsageError):
        lambda_bracket(x, LambdaElement(sp1, "lgv", wide, {}))


def test_extend_cobracket_variants(sp1):
    wide = unbounded_profile()
    x = LambdaElement(sp1, "lgv", wide, {(0, 0, ((0, 0, 0),)): 1})
    assert extend_cobracket(x).terms == {(0, 1, ((0,),)): F(3)}
    h = LambdaElement(sp1, "hq2", wide, {(0, 0, ((0, 0, 0),)): 1})
    with pytest.raises(UsageError):
        extend_cobracket(h)
    assert lambda_differential(h).is_zero()


def test_project_quotients(sp1):
    wide = unbounded_profile()
    x = LambdaElement(sp1, "lgv", wide, {(0, 1, ((0,),)): 1,
                                         (1, 0, ((0, 0, 0),)): 2,
                                         (0, 0, ((0, 0, 0),)): 5})
    lg = project(x, "lg")
    assert set(lg.terms) == {(1, 0, ((0, 0, 0),)), (0, 0, ((0, 0, 0),))}
    hq = project(x, "hq2")
    assert hq.terms == {(0, 0, ((0, 0, 0),)): F(5)}
    with pytest.raises(UsageError):
        project(hq, "lgv")


def test_coproduct_is_counital_unshuffle(sp2):
    key = (1, 0, ((0,), (0, 0)))
    cop = raw_coproduct(sp2, {key: F(1)})
    # 2 factors -> 4 ordered splits; empty side keeps the prefix left
    assert len(cop) == 4
    assert cop[((1, 0, ((0,), (0, 0))), (0, 0, ()))] == F(1)
    assert cop[((1, 0, ()), (0, 0, ((0,), (0, 0))))] == F(1)
    # chains unshuffle blocks the same way: swapping the two odd blocks
    # w[xi] and w[x,x,xi] costs -1, and the gamma prefix rides left
    b1, b2 = ((1,),), ((0, 0, 1),)
    chain = CEChainElement(sp2, "lgv", unbounded_profile(),
                           {(1, 0, (b1, b2)): F(1)})
    assert coproduct(chain) == chain_coproduct(chain) == {
        ((1, 0, ()), (0, 0, (b1, b2))): F(1),
        ((1, 0, (b1,)), (0, 0, (b2,))): F(1),
        ((1, 0, (b2,)), (0, 0, (b1,))): F(-1),
        ((1, 0, (b1, b2)), (0, 0, ())): F(1),
    }


def test_profile_validation():
    with pytest.raises(UsageError):
        TruncationProfile(L=0, K=1, G=1, N=0)
    with pytest.raises(UsageError):
        TruncationProfile(L=1, K=0, G=1, N=0)
    prof = TruncationProfile(L=2, K=2, G=1, N=1)
    assert prof.P == 2 * 1 + 1 + 2 - 1


def _random_combination(rng, space, words):
    """A combination of 1-4 canonical keys, gamma and nu exponents 0-2."""
    out: dict = {}
    while len(out) < rng.randint(1, 4):
        nm = oracle_tensor_key(space.parities, space.nu_parity,
                               rng.randint(0, 2), rng.randint(0, 2),
                               [rng.choice(words)
                                for _ in range(rng.randint(1, 3))])
        if nm is not None:
            out[nm[0]] = F(rng.randint(-4, 4) or 1, rng.randint(1, 3))
    return out


def _three_generator_space():
    """Odd a with <a,a> = 1 beside even p, q with <p,q> = 1 = -<q,p>: nu
    is odd, the bracket is not zero and odd words exist, which no shipped
    space combines."""
    z, o = F(0), F(1)
    return SymplecticSpace(("a", "p", "q"), (1, 0, 0),
                           ((o, z, z), (z, z, o), (z, -o, z)), 0)


def _scaled_two_dim_space():
    """Like two_dim_space, but <x,xi> = 3/2 = -<xi,x>: the dual pairing
    is 2/3, so memoized brackets and differentials hold thirds."""
    z, c = F(0), F(3, 2)
    return SymplecticSpace(("x", "xi"), (0, 1), ((z, c), (-c, z)), 1)


# on one generator the bracket is zero and the cobracket always makes a
# nu, so only the full differential takes nonzero values there
@pytest.mark.parametrize("make, max_len, bracket_nonzero",
                         [(one_dim_space, 5, False), (two_dim_space, 3, True),
                          (_three_generator_space, 3, True),
                          (_halved_one_dim_space, 5, False),
                          (_scaled_two_dim_space, 3, True)])
def test_tensor_operations_cold_and_warm_match_the_oracle(make, max_len,
                                                          bracket_nonzero):
    """raw_bracket and raw_differential against a reference that caches
    nothing, first on a fresh space (misses), then again (hits)."""
    space = make()
    pars = space.parities
    omega = omega_matrix(space.form)
    words = sorted(w for length in range(1, max_len + 1)
                   for w in necklace_classes(pars, space.size, length))
    rng = Random(1311)
    samples = [(_random_combination(rng, space, words),
                _random_combination(rng, space, words)) for _ in range(40)]
    want = [(oracle_tensor_bracket(pars, omega, space.form_parity, x, y),
             oracle_tensor_differential(pars, omega, space.form_parity, x),
             oracle_tensor_differential(pars, omega, space.form_parity, x,
                                        with_nu=False))
            for x, y in samples]
    assert any(w[1] for w in want)
    assert any(w[0] for w in want) == any(w[2] for w in want) == \
        bracket_nonzero
    assert not space.memo
    for rounds in range(2):
        for (x, y), (bracket, full, nu_free) in zip(samples, want):
            assert raw_bracket(space, x, y) == bracket, (x, y)
            assert raw_differential(space, x, with_nu=True) == full, x
            assert raw_differential(space, x, with_nu=False) == nu_free, x
        if rounds == 0:
            filled = len(space.memo)
    assert len(space.memo) == filled


def test_warm_tensor_memo_keeps_its_boundary():
    """A memoized key does not let an invalid key through, memo entries
    are read-only, and a returned dict belongs to its caller."""
    space = two_dim_space()
    key = (1, 0, ((0,), (0, 0, 1)))
    one, other = {key: F(1)}, {(0, 0, ((0, 0, 1),)): F(1)}
    bracket = raw_bracket(space, one, other)
    differential = raw_differential(space, one)
    assert bracket and differential
    # the first two hash like the memoized key
    for bad in [(1, 0, ((0.0,), (0, 0, 1))), (1.0, 0, ((0,), (0, 0, 1))),
                (1, 0, ((0,), (0, 0, -1))), (1, 0, ((0,), (0, 0, space.size))),
                (-1, 0, ((0,),)), (0, -1, ((0,),))]:
        with pytest.raises(UsageError):
            raw_bracket(space, {bad: F(1)}, one)
        with pytest.raises(UsageError):
            raw_bracket(space, one, {bad: F(1)})
        with pytest.raises(UsageError):
            raw_differential(space, {bad: F(1)})
        with pytest.raises(UsageError):
            raw_differential(space, {bad: F(1)}, with_nu=False)
    entries = [v for k, v in space.memo.items()
               if k[0] in ("tensor_bracket", "differential")]
    assert entries
    for entry in entries:
        with pytest.raises(TypeError):
            entry[key] = F(5)
    bracket.clear()
    differential[key] = F(7)
    assert raw_bracket(space, one, other) == raw_bracket(two_dim_space(),
                                                         one, other)
    assert raw_differential(space, one) == raw_differential(two_dim_space(),
                                                            one)


def test_canonical_construction_path(sp1):
    """replace_terms takes the keys as they are, and still drops zeros and
    out-of-profile keys, stores Fractions and raises on keys outside the
    variant."""
    prof = TruncationProfile(L=3, K=2, G=1, N=1)
    inside, longer = (0, 1, ((0,),)), (0, 1, ((0,) * 5,))
    x = LambdaElement(sp1, "lgv", prof).replace_terms(
        {inside: 2, (1, 0, ((0, 0, 0),)): F(0), longer: F(1)})
    assert x.terms == {inside: F(2)}
    assert type(x.terms[inside]) is F
    with pytest.raises(UsageError):
        LambdaElement(sp1, "lg", prof).replace_terms({inside: F(1)})
    assert x.replace_terms({inside: F(0)}).is_zero()


@pytest.mark.parametrize("value", ["abc", None, [1], "1/0"], ids=repr)
def test_elements_refuse_non_rational_coefficients(sp2, value):
    """The raw and canonical construction paths and scale refuse a
    coefficient that is not a rational with UsageError naming it, for
    complex and chain elements alike."""
    prof = TruncationProfile(L=3, K=2, G=1, N=1)
    named = re.escape(repr(value))
    for cls, key in ((LambdaElement, (0, 0, ((0, 0),))),
                     (CEChainElement, (0, 0, (((0, 0),),)))):
        with pytest.raises(UsageError, match=named):
            cls(sp2, "lgv", prof, {key: value})
        with pytest.raises(UsageError, match=named):
            cls(sp2, "lgv", prof).replace_terms({key: value})
        with pytest.raises(UsageError, match=named):
            cls(sp2, "lgv", prof, {key: 1}).scale(value)


def test_elements_refuse_float_coefficients(sp1, sp2):
    """The raw and canonical construction paths and scale refuse a float
    and name it, for complex and chain elements alike."""
    prof = TruncationProfile(L=3, K=2, G=1, N=1)
    key = (0, 0, ((0, 0),))

    def raw(cls, terms):
        return cls(sp2, "lgv", prof, terms)

    def canonical(cls, terms):
        return cls(sp2, "lgv", prof).replace_terms(terms)

    for build in (raw, canonical):
        with pytest.raises(UsageError, match="0.1"):
            build(LambdaElement, {key: 0.1})
        with pytest.raises(UsageError, match="0.0"):
            build(LambdaElement, {key: 0.0})
        with pytest.raises(UsageError, match="0.5"):
            build(CEChainElement, {(0, 0, ((0, 0),)): 0.5})
    x = LambdaElement(sp2, "lgv", prof, {key: "1/10"})
    assert x.terms == {key: F(1, 10)}
    with pytest.raises(UsageError, match="0.1"):
        x.scale(0.1)
    assert x.scale(10).terms == {key: F(1)}
    t3 = LambdaElement(sp1, "lgv", prof, {(0, 1, ((0, 0, 0),)): 1})
    with pytest.raises(UsageError, match="2.0"):
        t3.scale(2.0)
