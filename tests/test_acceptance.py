"""Acceptance gate: one test per shipped guarantee, exact equality only.

Each test prints a single PASS line so a verbose run reads as a checklist.
The runtime-bounded items assert their own wall-clock budget.
"""

import json
import random
import time
from fractions import Fraction
from itertools import product

from necklie import (Hamiltonian, TruncationProfile, bracket, canonical_words,
                     char_class, check_bialgebra_axioms, gauge_act,
                     general_solution_sample, homotopy_check,
                     hochschild_cohomology, kunneth_check, lift, mc_residual,
                     normalize_word, one_dim_space, parse_expression,
                     two_dim_space)
from necklie.bialgebra import bracket_raw, cobracket_raw
from necklie.cecomplex import (LambdaElement, filtration_order, raw_bracket,
                               raw_ce_delta, raw_coproduct, raw_differential,
                               raw_extend_cobracket, tensor_parity,
                               unbounded_profile)
from necklie.chains import chain_delta
from necklie.cli import main
from necklie.exprs import render_element
from necklie.linalg import (SparseRationalMatrix, TensorSliceSpec,
                            WordSliceSpec, enumerate_basis,
                            matrix_of_operator, solve_and_kernel)
from necklie.mc import as_candidate

from oracles import (dense_solve, markowitz_free_columns, mat_vec,
                     omega_matrix, oracle_bracket, oracle_cobracket)

F = Fraction
T3 = (0, 0, 0)


def _ok(name):
    print(f"PASS  {name}")


def _cubic():
    space = one_dim_space()
    return space, Hamiltonian(space, {T3: F(1)})


def _compose(op1, op2, key):
    out = {}
    for k, c in op2({key: F(1)}).items():
        for k2, c2 in op1({k: F(1)}).items():
            out[k2] = out.get(k2, F(0)) + c * c2
    return {k: c for k, c in out.items() if c}


def test_criterion_01_bialgebra_axiom_suite():
    space = two_dim_space()
    t0 = time.time()
    rep = check_bialgebra_axioms(space, max_length=5, samples=100, seed=2718)
    elapsed = time.time() - t0
    assert rep.passed, rep.summary_lines()
    assert set(rep.results) == {"antisymmetry", "jacobi", "cojacobi",
                                "compatibility", "involutivity"}
    assert rep.exhaustive_words == len(canonical_words(space, 3))
    assert rep.sampled_combos >= 100
    assert elapsed < 120, f"{elapsed:.1f}s"
    _ok(f"bialgebra axioms: exhaustive <=3 plus {rep.sampled_combos} "
        f"sampled combinations in {elapsed:.1f}s")


def test_criterion_02_differential_squares():
    space = two_dim_space()
    profile = TruncationProfile(L=4, K=2, G=2, N=2)
    basis = enumerate_basis(space, TensorSliceSpec(profile, "lgv")).elements
    assert len(basis) > 500
    delta = lambda t: raw_ce_delta(space, t)
    cob = lambda t: raw_extend_cobracket(space, t)
    full = lambda t: raw_differential(space, t, with_nu=True)
    t0 = time.time()
    for key in basis:
        # the full differential really is (gamma . delta) + Delta
        split = {(g + 1, n, ws): c
                 for (g, n, ws), c in delta({key: F(1)}).items()}
        for k, c in cob({key: F(1)}).items():
            split[k] = split.get(k, F(0)) + c
        assert {k: c for k, c in split.items() if c} == full({key: F(1)})

        assert not _compose(full, full, key), key
        assert not _compose(delta, delta, key), key
        assert not _compose(cob, cob, key), key
        mixed = _compose(delta, cob, key)
        for k, c in _compose(cob, delta, key).items():
            mixed[k] = mixed.get(k, F(0)) + c
        assert not {k: c for k, c in mixed.items() if c}, key

        # delta is a coderivation of the unshuffle coproduct
        P = space.form_parity
        lhs = {}
        for (kl, kr), c in raw_coproduct(space, {key: F(1)}).items():
            for k2, c2 in raw_ce_delta(space, {kl: F(1)}).items():
                lhs[(k2, kr)] = lhs.get((k2, kr), F(0)) + c * c2
            s = (-1) ** (P * tensor_parity(space, kl))
            for k2, c2 in raw_ce_delta(space, {kr: F(1)}).items():
                lhs[(kl, k2)] = lhs.get((kl, k2), F(0)) + c * c2 * s
        for k2, c2 in raw_ce_delta(space, {key: F(1)}).items():
            for kk, cc in raw_coproduct(space, {k2: c2}).items():
                lhs[kk] = lhs.get(kk, F(0)) - cc
        assert not {k: c for k, c in lhs.items() if c}, key
    elapsed = time.time() - t0
    assert elapsed < 300, f"{elapsed:.1f}s"
    _ok(f"d^2 = delta^2 = Delta^2 = (delta Delta + Delta delta) = 0 and "
        f"coderivation identity over {len(basis)} basis tensors "
        f"in {elapsed:.1f}s")


def test_criterion_03_filtration_laws():
    space = two_dim_space()
    profile = TruncationProfile(L=4, K=2, G=2, N=2)
    basis = enumerate_basis(space, TensorSliceSpec(profile, "lgv")).elements
    for key in basis:
        p = filtration_order(key)
        for out in raw_differential(space, {key: F(1)}, with_nu=True):
            assert filtration_order(out) == p + 1, key
    pairs = 0
    for u in basis:
        pu = filtration_order(u)
        for v in basis:
            want = pu + filtration_order(v)
            for out in raw_bracket(space, {u: F(1)}, {v: F(1)}):
                assert filtration_order(out) == want, (u, v)
            pairs += 1
    _ok(f"d(F_p) in F_(p+1) on {len(basis)} tensors and bracket "
        f"additivity on {pairs} pairs")


def test_criterion_04_one_generator_goldens():
    space, _ = _cubic()
    for n in range(1, 6):
        got = raw_extend_cobracket(
            space, {(0, 0, ((0,) * (2 * n + 1),)): F(1)})
        assert got == {(0, 1, ((0,) * (2 * n - 1),)): F(2 * n + 1)}, n
    for k in range(1, 5):
        assert normalize_word(space, (0,) * (2 * k)) is None, k
    words = canonical_words(space, 9)
    assert len(words) == 5          # odd lengths only survive
    for a in words:
        for b in words:
            assert bracket(Hamiltonian(space, {a: F(1)}),
                           Hamiltonian(space, {b: F(1)})).is_zero(), (a, b)
    _ok("cobracket towers, vanishing even powers, and the trivial "
        "one-generator bracket match the stated values")


def test_criterion_05_adjoint_cohomology():
    space, h = _cubic()
    op = lambda w: bracket(h, Hamiltonian(space, {w: F(1)}),
                           max_length=None).terms
    dom = enumerate_basis(space, WordSliceSpec(max_length=7))
    cod = enumerate_basis(space, WordSliceSpec(max_length=9))
    assert matrix_of_operator(op, dom, cod).is_zero()
    rep = hochschild_cohomology(h, WordSliceSpec(max_length=7))
    assert {k: v for k, v in rep.dims.items() if v} == {
        (1, 1): 1, (3, 1): 1, (5, 1): 1, (7, 1): 1}
    assert [r.terms for r in rep.flat_representatives()] == [
        {(0,) * n: F(1)} for n in (1, 3, 5, 7)]
    _ok("ad(t^3) is the zero matrix through length 7 and its cohomology "
        "basis is exactly {t, t^3, t^5, t^7}")


def test_criterion_06_obstruction_dichotomy():
    space, h = _cubic()
    t0 = time.time()
    blocked = lift(h, 1, "lgv")
    assert not blocked.succeeded and blocked.failure_level == 1
    rep = blocked.report
    assert rep.cocycle.terms == {(0, 1, ((0,),)): F(3)}   # o_1 = 3 nu t
    assert rep.is_cocycle and not rep.class_vanishes
    assert rep.certificate is not None                    # exact NoSolution

    lifted = lift(h, 6, "lg")
    elapsed = time.time() - t0
    assert lifted.succeeded and lifted.state.level == 6
    low = lifted.state.residual().min_filtration_order()
    assert low is None or low >= 7                        # residual in F_7
    assert elapsed < 120, f"{elapsed:.1f}s"
    _ok(f"nu-tower blocks at level 1 with certified o_1 = 3 nu t; nu-free "
        f"tower reaches order 6 with residual in F_7 ({elapsed:.1f}s)")


def test_criterion_07_general_solution_family():
    profile = TruncationProfile(L=7, K=3, G=2, N=0)
    rng = random.Random(2718)
    keys = []
    for i in range(3):
        for k in (1, 3):        # odd factor counts keep candidate parity
            for rs in product(range(4), repeat=k):
                key = (i, 0, tuple((0,) * (2 * r + 1) for r in rs))
                if (i + sum(2 * r + 1 for r in rs) >= 2
                        and filtration_order(key) <= profile.P):
                    keys.append((i, rs))
    for trial in range(20):
        assignment = {}
        for _ in range(rng.randint(1, 4)):
            i, rs = keys[rng.randrange(len(keys))]
            assignment[(i, rs)] = F(rng.randint(-9, 9), rng.randint(1, 5))
        x = general_solution_sample(assignment, profile)
        assert mc_residual(as_candidate(x)).is_zero(), trial
        assert chain_delta(char_class(as_candidate(x))).is_zero(), trial
    _ok("20 seeded coefficient assignments are flat and their exponential "
        "classes are closed")


def test_criterion_08_gauge_homotopy_machinery():
    rng = random.Random(2718)
    s1, s2 = one_dim_space(), two_dim_space()
    t, t3, t5 = (0,), T3, (0,) * 5
    x, xi = 0, 1
    setups = [
        (s1, "lg", TruncationProfile(L=9, K=3, G=2, N=0),
         [(0, 0, (t3,)), (0, 0, (t5,)), (1, 0, (t3,)), (0, 0, (t, t3, t5))],
         [(0, 0, (t3,)), (0, 0, (t, t3, t5)), (1, 0, (t5,)), (2, 0, (t3,))]),
        (s2, "lgv", TruncationProfile(L=6, K=3, G=2, N=2),
         [(0, 0, ((x, x, xi),)), (0, 0, ((xi, xi, xi),)),
          (0, 1, ((xi,),)), (1, 0, ((xi,),))],
         [(0, 0, ((x, x),)), (1, 0, ((x, x),)), (0, 1, ((x, x),)),
          (0, 0, ((x, x), (x, x))), (0, 0, ((x, x, xi, xi),)),
          (0, 0, ((x, xi), (x, xi)))]),
    ]
    instances = 0
    for space, variant, profile, y_pool, x_pool in setups:
        for _ in range(12):
            y = LambdaElement(space, variant, profile, {
                y_pool[rng.randrange(len(y_pool))]:
                    F(rng.randint(1, 5), rng.randint(1, 3))})
            xt = {}
            for _ in range(rng.randint(1, 2)):
                k = x_pool[rng.randrange(len(x_pool))]
                xt[k] = xt.get(k, F(0)) + F(rng.randint(-4, 4))
            xe = LambdaElement(space, variant, profile, xt)
            rep = homotopy_check(y, xe, profile)
            assert rep.passed, rep.summary_lines()
            before = mc_residual(as_candidate(xe))
            after = mc_residual(gauge_act(y, xe))
            assert before.is_zero() == after.is_zero()
            if before.is_zero():
                assert after.is_zero()
            instances += 1
    assert instances >= 20
    _ok(f"homotopy operator and flow identities plus gauge-invariant "
        f"flatness on {instances} seeded instances over both spaces")


def test_criterion_09_kunneth_cross_check():
    profile = TruncationProfile(L=5, K=2, G=1, N=1)
    s1, h1 = _cubic()
    rep1 = kunneth_check(h1, profile)
    assert rep1.agree and rep1.mismatches() == []
    assert {k: v for k, v in rep1.direct.items() if v} == {
        (0, 1): 2, (1, 0): 6, (2, 1): 6, (3, 0): 6, (4, 1): 3}

    s2 = two_dim_space()
    rep2 = kunneth_check(Hamiltonian(s2, {(0, 0): F(1)}), profile)
    assert rep2.agree and rep2.mismatches() == []
    _ok("slice cohomology equals the symmetric-power prediction for the "
        "one-generator family and a two-generator instance")


def test_criterion_10_oracle_equivalence():
    rng = random.Random(2718)
    for trial in range(50):
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        entries = {(r, c): F(rng.randint(-5, 5), rng.randint(1, 3))
                   for r in range(rows) for c in range(cols)
                   if rng.random() < 0.35}
        dense = [[entries.get((r, c), F(0)) for c in range(cols)]
                 for r in range(rows)]
        if trial % 2 == 0:
            xs = [F(rng.randint(-3, 3)) for _ in range(cols)]
            b = [sum(dense[r][c] * xs[c] for c in range(cols))
                 for r in range(rows)]
        else:
            b = [F(rng.randint(-3, 3)) for _ in range(rows)]
        M = SparseRationalMatrix(rows, cols, entries)
        got = solve_and_kernel(M, b)
        want = dense_solve(dense, b)
        assert got.rank == want["rank"], trial
        assert len(got.kernel) == want["nullity"], trial
        assert got.solvable == want["consistent"], trial
        if got.solvable:
            assert mat_vec(dense, got.particular) == b, trial
        else:
            y = got.certificate
            assert all(sum(y[r] * dense[r][c] for r in range(rows)) == 0
                       for c in range(cols)), trial
            assert sum(y[r] * b[r] for r in range(rows)) != 0, trial
        assert all(not any(mat_vec(dense, vec)) for vec in got.kernel), trial
        # kernel vectors are 1 at their own free column of the pivot rule
        # and 0 at the others; the particular solution is 0 there
        free = markowitz_free_columns(dense)
        assert [[vec[f] for f in free] for vec in got.kernel] == [
            [int(i == j) for j in range(len(free))]
            for i in range(len(free))], trial
        if got.solvable:
            assert not any(got.particular[f] for f in free), trial

    checked = 0
    for space in (two_dim_space(), one_dim_space()):
        om = omega_matrix([[F(e) for e in row] for row in space.form])
        words = canonical_words(space, 3)
        for w in words:
            assert cobracket_raw(space, w) == oracle_cobracket(
                space.parities, om, w), w
            for v in words:
                assert bracket_raw(space, w, v) == oracle_bracket(
                    space.parities, om, w, v), (w, v)
                checked += 1
    _ok(f"solver agrees with the dense oracle on 50 seeded systems; "
        f"bracket and cobracket match term expansion on {checked} pairs")


def _round_trip_exprs(payload, space, variant):
    """Every rendered element in a report must reparse to the same text."""
    if isinstance(payload, dict):
        for key, value in payload.items():
            if key == "expr":
                back = parse_expression(value, space, variant,
                                        unbounded_profile())
                assert render_element(back) == value, value
            else:
                _round_trip_exprs(value, space, variant)
    elif isinstance(payload, list):
        for item in payload:
            _round_trip_exprs(item, space, variant)


def test_criterion_11_cli_contract(capsys):
    s1 = one_dim_space()
    code = main(["lift", "--space", "spaces/1d.json", "--variant", "lg",
                 "--order", "6", "--format", "json", "1 * w[t,t,t]"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["succeeded"] is True and payload["level"] == 6
    low = payload["residual_min_order"]
    assert low is None or low >= 7
    _round_trip_exprs(payload, s1, "lg")

    argv = ["lift", "--variant", "lgv", "--format", "json", "1 * w[t,t,t]"]
    code = main(argv)
    first = capsys.readouterr().out
    assert code == 1
    payload = json.loads(first)
    assert payload["succeeded"] is False and payload["failure_level"] == 1
    assert payload["obstruction"]["cocycle"]["expr"] == "3 * v^1 * w[t]"
    _round_trip_exprs(payload, s1, "lgv")
    assert main(argv) == 1
    assert capsys.readouterr().out == first   # byte-identical rerun

    code = main(["mc-check", "--format", "json", "0"])
    out = capsys.readouterr().out
    assert code == 0
    payload = json.loads(out)
    assert payload["flat"] is True
    assert payload["residual"]["expr"] == "0"
    _round_trip_exprs(payload, s1, "lgv")
    _ok("documented lift and mc-check invocations return the stated exit "
        "codes with round-trip-stable JSON")
