from fractions import Fraction
from itertools import product

import pytest

from necklie import (CEChainElement, LambdaElement, TruncationProfile,
                     UsageError, chain_coproduct, coproduct,
                     extend_cobracket, lambda_bracket, lambda_differential,
                     normalize_tensor, project, unbounded_profile)
from necklie.cecomplex import (definition_order, filtration_order,
                               raw_ce_delta, raw_coproduct, raw_differential,
                               raw_extend_cobracket, raw_bracket,
                               tensor_parity)
from necklie.words import canonical_words

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
