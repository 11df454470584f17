from fractions import Fraction

import pytest

from necklie import (IntegrityError, TruncationProfile, UsageError, cobracket,
                     general_solution_sample, make_family, mc_residual,
                     verify_kontsevich_suite)
from necklie.mc import MCCandidate

F = Fraction


def test_make_family_goldens():
    space, h = make_family({1: 1})
    assert space.names == ("t",) and space.parities == (1,)
    assert h.terms == {(0, 0, 0): F(1)}

    space, h = make_family({1: F(1, 2), 3: -2})
    assert h.terms == {(0, 0, 0): F(1, 2), (0,) * 7: F(-2)}

    space, h = make_family()
    assert h.is_zero()


def test_make_family_key_validation():
    with pytest.raises(UsageError, match="t\\^\\(2i\\+1\\)"):
        make_family({0: 1})
    with pytest.raises(UsageError):
        make_family({-2: 1})
    with pytest.raises(UsageError):
        make_family({"1": 1})
    with pytest.raises(UsageError, match="invertible"):
        make_family({1: 1}, pairing=0)


def test_pairing_knob_rescales_cobracket():
    space, h = make_family({1: 1}, pairing=2)
    assert space.form == ((F(2),),)
    got = cobracket(h)
    # omega is the inverse pairing, so the count 3 becomes 3/2
    assert got.pairs == {(None, (0,)): F(3, 4), ((0,), None): F(-3, 4)}

    plain, h1 = make_family({1: 1})
    assert cobracket(h1).pairs == {(None, (0,)): F(3, 2),
                                   ((0,), None): F(-3, 2)}


def test_general_solution_terms_and_flatness():
    prof = TruncationProfile(L=7, K=3, G=2, N=0, P=4)
    el = general_solution_sample({(0, (1, 2)): 3, (1, (1,)): F(1, 5)}, prof)
    t3, t5 = (0,) * 3, (0,) * 5
    assert el.terms == {(0, 0, (t3, t5)): F(3), (1, 0, (t3,)): F(1, 5)}
    assert el.variant == "lg"
    assert mc_residual(MCCandidate(el)).is_zero()

    # a repeated odd power wedges to zero instead of erroring
    squashed = general_solution_sample({(0, (1, 1)): 7}, prof)
    assert squashed.is_zero()

    dropped = general_solution_sample({(0, (1, 2)): 0}, prof)
    assert dropped.is_zero()


def test_general_solution_rejects_bad_indices():
    prof = TruncationProfile(L=7, K=3, G=2, N=0, P=4)
    with pytest.raises(UsageError, match="gamma exponent"):
        general_solution_sample({(-1, (1,)): 1}, prof)
    with pytest.raises(UsageError, match="power index"):
        general_solution_sample({(0, (1, -2)): 1}, prof)
    with pytest.raises(UsageError, match="order 2"):
        general_solution_sample({(0, ()): 1}, prof)
    with pytest.raises(UsageError, match="order 2"):
        general_solution_sample({(1, ()): 1}, prof)


def test_general_solution_respects_profile():
    prof = TruncationProfile(L=5, K=2, G=1, N=0, P=3)
    for bad in ({(0, (1, 2, 3)): 1},        # too many wedge factors
                {(2, (1,)): 1},             # gamma power beyond G
                {(0, (3,)): 1}):            # t^7 beyond L=5
        with pytest.raises(UsageError, match="outside the profile"):
            general_solution_sample(bad, prof)


def test_suite_passes_and_reports():
    rep = verify_kontsevich_suite(n_max=3, lift_order=3)
    assert rep.passed
    assert all(r.checked > 0 for r in rep.results)
    lines = rep.summary_lines()
    assert len(lines) == len(rep.results)
    assert all(line.startswith("ok") for line in lines)
    names = " ".join(r.name for r in rep.results)
    assert "blocks at level one" in names
    assert "nu-free tower extends" in names


def test_suite_on_zero_hamiltonian_skips_blocking():
    rep = verify_kontsevich_suite(coeffs={}, n_max=2, lift_order=2)
    assert rep.passed
    names = [r.name for r in rep.results]
    assert not any("blocks" in n for n in names)


def test_one_generator_entry_points_refuse_float_coefficients():
    with pytest.raises(UsageError, match="0.1"):
        make_family({1: 0.1})
    with pytest.raises(UsageError, match="0.5"):
        make_family({1: 1}, pairing=0.5)
    prof = TruncationProfile(L=7, K=3, G=2, N=0, P=4)
    with pytest.raises(UsageError, match="0.2"):
        general_solution_sample({(1, (1,)): 0.2}, prof)
    el = general_solution_sample({(1, (1,)): "1/5"}, prof)
    assert el.terms == {(1, 0, ((0,) * 3,)): F(1, 5)}
