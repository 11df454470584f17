"""Tests of the benchmark itself: references against hand-worked values,
checks against corrupted results, the tracer, and the import guard.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

import copy
import os
import random
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

F = Fraction
T = refs.t_word
P1, FORM1 = refs.ONE_GEN
P2, FORM2 = refs.TWO_GEN
X, XI = 0, 1


# ---------------------------------------------------------------------------
# references against cases worked by hand


def test_canonical_words_by_hand():
    assert refs.canonical(P1, T(2)) is None            # even powers vanish
    assert refs.canonical(P1, T(3)) == (T(3), 1)
    assert refs.canonical(P2, (XI, X)) == ((X, XI), 1)  # xi passes even x
    assert refs.canonical(P2, (XI, XI)) is None        # odd swap with itself
    assert refs.canonical(P2, (XI, X, XI)) == ((X, XI, XI), -1)


def test_bracket_and_cobracket_by_hand():
    om2 = refs.omega_of(FORM2)
    # each x of w[x,x] contracts with xi and leaves w[x]
    assert refs.bracket(P2, om2, (X, X), (XI,)) == {(X,): F(2)}
    assert refs.bracket(P2, om2, (X, X), (X, X)) == {}
    om1 = refs.omega_of(FORM1)
    assert refs.bracket(P1, om1, T(3), T(5)) == {}     # one generator
    assert refs.cobracket(P1, om1, T(3)) == {(None, T(1)): F(3, 2),
                                             (T(1), None): F(-3, 2)}
    assert refs.one_gen_d({(0, 0, (T(3),)): F(1)}) == {(0, 1, (T(1),)): F(3)}
    assert refs.dense_rank([[1, 2], [2, 4]]) == 1


def test_one_generator_counts_by_hand():
    # profile L=5, K=2, G=1, N=1, P=4: order 0 holds t^3 and t^5; order 1
    # holds nu t, nu t^3, nu t^5 and the wedges t^a t^b of distinct odd
    # powers (3 of them); since ad(t^3) = 0 these are also the dimensions
    table = {(0, 1): 2, (1, 0): 6, (2, 1): 6, (3, 0): 6, (4, 1): 3}
    profile = (5, 2, 1, 1, 4)
    counted = {(p, c): refs.one_gen_slice_count(profile, True, p, c)
               for p in range(5) for c in (0, 1)}
    assert {k: v for k, v in counted.items() if v} == table
    words = refs.word_cohomology(P1, FORM1, {T(3): F(1)}, 7)
    assert {k: v for k, v in words.items() if v} == {
        (1, 1): 1, (3, 1): 1, (5, 1): 1, (7, 1): 1}
    predicted = refs.symmetric_power_dims(words, profile, nu_parity=1,
                                          with_nu=True)
    assert predicted == table


def test_lift_tower_elements_match_enumeration():
    from necklie import TensorSliceSpec, enumerate_basis, one_dim_space
    from necklie.obstruction import default_lift_profile
    space = one_dim_space()
    total = 0
    for variant, levels in (("lg", range(1, 5)), ("lgv", (1,))):
        profile = default_lift_profile(space, variant, 3)
        for level in levels:
            for par in (0, 1):
                total += len(enumerate_basis(space, TensorSliceSpec(
                    profile, variant, parity=par, order=level)))
    assert refs.lift_tower_elements(3) == total


# ---------------------------------------------------------------------------
# every check fails on a corrupted result


def _job(name, seed=3):
    w = workloads.WORKLOADS[name]()
    inp = w.make_input(random.Random(seed))
    rec = w.record(inp, w.run(inp))
    w.check(inp, rec)
    return w, inp, rec


def _flip_first(terms):
    key = next(iter(terms))
    terms[key] = -terms[key]


def _drop_first(terms):
    del terms[next(iter(terms))]


def _fails(w, inp, rec, corrupt):
    bad = copy.deepcopy(rec)
    corrupt(bad)
    with pytest.raises(checks.CheckFailed):
        w.check(inp, bad)


def test_lift_tower_checks_catch_corruption():
    w, inp, rec = _job("lift-tower")
    _fails(w, inp, rec, lambda r: _flip_first(r["lgv_cocycle"]))
    _fails(w, inp, rec, lambda r: _drop_first(r["lgv_cocycle"]))
    _fails(w, inp, rec, lambda r: _flip_first(r["lg_components"][0]))
    _fails(w, inp, rec, lambda r: r["lg_components"][2].update(
        {(1, 0, (T(3),)): F(1)}))
    _fails(w, inp, rec, lambda r: r.update(next_slice=r["next_slice"] + 1))
    _fails(w, inp, rec, lambda r: r.update(lgv_slice=r["lgv_slice"] + 1))
    _fails(w, inp, rec, lambda r: r.update(lgv_vanishes=True))


def test_cohomology_checks_catch_corruption():
    w, inp, rec = _job("cohomology")
    _fails(w, inp, rec, lambda r: r["k1_direct"].update(
        {(2, 1): r["k1_direct"][(2, 1)] + 1}))
    _fails(w, inp, rec, lambda r: r["k2_direct"].update({(1, 0): 1}))
    _fails(w, inp, rec, lambda r: r["w1_dims"].update({(3, 1): 0}))
    _fails(w, inp, rec, lambda r: r["w2_dims"].update({(2, 0): 1}))
    _fails(w, inp, rec, lambda r: r.update(k2_agree=False))


def test_gauge_orbit_checks_catch_corruption():
    w, inp, rec = _job("gauge-orbit")
    _fails(w, inp, rec, lambda r: _flip_first(r["one_gen_step"]))
    _fails(w, inp, rec, lambda r: _drop_first(r["one_gen_step"]))
    _fails(w, inp, rec, lambda r: _flip_first(r["class_one_block"]))
    _fails(w, inp, rec, lambda r: _drop_first(r["class_one_block"]))
    _fails(w, inp, rec, lambda r: r["residuals"][1].update(
        {(0, 0, ((X,),)): F(1)}))
    _fails(w, inp, rec, lambda r: r["class_delta"].update(
        {(0, 0, (((X,),),)): F(1)}))
    _fails(w, inp, rec, lambda r: r["homotopy"].__setitem__(0, False))


def test_cli_checks_catch_corruption():
    w, inp, rec = _job("cli-requests")
    _fails(w, inp, rec, lambda r: _flip_first(r["bracket"]["terms"]))
    _fails(w, inp, rec, lambda r: _drop_first(r["cobracket"]["pairs"]))
    _fails(w, inp, rec, lambda r: _flip_first(r["diff"]["terms"]))
    _fails(w, inp, rec, lambda r: r["hochschild"]["dims"].update(
        {(2, 0): 1}))
    _fails(w, inp, rec, lambda r: r["mc-check"].update(flat=False))
    _fails(w, inp, rec, lambda r: _flip_first(r["ch"]["one_block"]))
    _fails(w, inp, rec, lambda r: r["constraint"].update(code=0))


# ---------------------------------------------------------------------------
# tracer and import guard


def test_tracer_restores_and_counts_repeat():
    import necklie.linalg
    import necklie.obstruction
    original = necklie.obstruction.enumerate_basis
    w = workloads.WORKLOADS["lift-tower"]()
    inp = w.make_input(random.Random(5))
    counts = []
    for _ in range(2):
        tracer = spans.Tracer(callers=[workloads])
        tracer.install()
        try:
            assert necklie.obstruction.enumerate_basis is not original
            w.run(inp)
        finally:
            tracer.uninstall()
        counts.append((dict(tracer.calls), dict(tracer.sizes)))
    assert necklie.obstruction.enumerate_basis is original
    assert necklie.linalg.enumerate_basis is original
    assert counts[0] == counts[1]
    assert counts[0][1]["linalg.enumerate_basis.elements"] == \
        refs.lift_tower_elements(w.order)
    assert counts[0][0]["obstruction.lift"] == 2


def test_run_refuses_without_checkout_source(tmp_path):
    """A directory holding only the benchmark has no src/ to measure."""
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "trace-out"))
    argv = [sys.executable, str(tmp_path / "bench" / "run.py"), "--workload",
            "cli-requests", "--seed", "1", "--seconds", "1", "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    for outside in (None, str(BENCH.parent / "src")):
        # the second pass makes a necklie from elsewhere importable
        if outside is not None:
            env["PYTHONPATH"] = outside
        done = subprocess.run(argv, cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode != 0 and done.stdout == ""
        assert "refusing to run" in done.stderr
