"""Checks of one job's results against the references in refs.py.

Each check takes plain data (dicts of terms with Fraction coefficients,
integers, booleans) pulled out of the program's results, so that the
tests can corrupt a result by hand and see the check fail.  A failed
check raises CheckFailed naming what differed.
"""

from fractions import Fraction

import refs


class CheckFailed(Exception):
    """A job's result disagrees with its reference."""


def expect(what, got, want):
    if got != want:
        raise CheckFailed(f"{what}: got {got!r}, want {want!r}")


def expect_tables(what, got, want):
    """Dimension tables compared key by key, a missing key reading 0."""
    for key in sorted(set(got) | set(want)):
        expect(f"{what} at {key}", got.get(key, 0), want.get(key, 0))


def embedded_hamiltonian(coeffs):
    """{(0, 0, (t^(2i+1),)): c_i} for coefficients keyed by i."""
    return {(0, 0, (refs.t_word(2 * i + 1),)): c for i, c in coeffs.items()}


def level_one_cocycle(coeffs):
    """The full tower's level-1 cocycle: sum of c_i (2i+1) nu t^(2i-1)."""
    return {(0, 1, (refs.t_word(2 * i - 1),)): c * (2 * i + 1)
            for i, c in coeffs.items()}


# ---------------------------------------------------------------------------
# per-workload checks; `inp` is the job input, `rec` the plain result


def check_lift_tower(inp, rec):
    order = inp["order"]
    coeffs = inp["coeffs"]
    expect("lg tower succeeded", rec["lg_succeeded"], True)
    expect("lg tower level", len(rec["lg_components"]) - 1, order)
    expect("lg order-0 component", rec["lg_components"][0],
           embedded_hamiltonian(coeffs))
    for i, part in enumerate(rec["lg_components"][1:], start=1):
        expect(f"lg component {i}", part, {})
    lg_profile = refs.lift_profile(order, with_nu=False)
    expect("lg next obstruction level", rec["next_level"], order + 1)
    expect("lg next obstruction cocycle", rec["next_cocycle"], {})
    expect("lg next obstruction vanishes", rec["next_vanishes"], True)
    expect("lg next witness", rec["next_witness"], {})
    expect("lg next slice size", rec["next_slice"],
           refs.one_gen_slice_count(lg_profile, False, order + 1, 1))
    lgv_profile = refs.lift_profile(order, with_nu=True)
    expect("lgv tower succeeded", rec["lgv_succeeded"], False)
    expect("lgv failure level", rec["lgv_failure_level"], 1)
    expect("lgv level-1 cocycle", rec["lgv_cocycle"],
           level_one_cocycle(coeffs))
    expect("lgv class vanishes", rec["lgv_vanishes"], False)
    expect("lgv certificate present", rec["lgv_certificate"], True)
    expect("lgv slice size", rec["lgv_slice"],
           refs.one_gen_slice_count(lgv_profile, True, 1, 1))


class CohomologyRefs:
    """Reference tables of the cohomology workload; the dimensions do not
    depend on the nonzero coefficients, so they are computed once."""

    def __init__(self, two_profile, one_profile, two_words, one_words):
        parities2, form2 = refs.TWO_GEN
        parities1, form1 = refs.ONE_GEN
        xx, t3 = (0, 0), refs.t_word(3)
        self.kunneth_words = refs.word_cohomology(
            parities2, form2, {xx: Fraction(1)}, two_profile[0])
        self.kunneth_direct = refs.symmetric_power_dims(
            self.kunneth_words, two_profile, nu_parity=0, with_nu=True)
        self.one_slices = {
            (p, c): refs.one_gen_slice_count(one_profile, True, p, c)
            for p in range(one_profile[4] + 1) for c in (0, 1)}
        self.words_two = refs.word_cohomology(
            parities2, form2, {xx: Fraction(1)}, two_words)
        self.words_one = refs.word_cohomology(
            parities1, form1, {t3: Fraction(1)}, one_words)


def check_cohomology(inp, rec, ref):
    expect("two-generator Kunneth agreement flag", rec["k2_agree"], True)
    expect_tables("two-generator direct vs predicted", rec["k2_direct"],
                  rec["k2_predicted"])
    expect_tables("two-generator direct vs reference", rec["k2_direct"],
                  ref.kunneth_direct)
    expect_tables("two-generator Kunneth word dims", rec["k2_words"],
                  ref.kunneth_words)
    expect("one-generator Kunneth agreement flag", rec["k1_agree"], True)
    expect_tables("one-generator direct vs slice dimensions",
                  rec["k1_direct"], ref.one_slices)
    expect_tables("one-generator predicted vs slice dimensions",
                  rec["k1_predicted"], ref.one_slices)
    expect_tables("two-generator word cohomology", rec["w2_dims"],
                  ref.words_two)
    expect_tables("one-generator word cohomology", rec["w1_dims"],
                  ref.words_one)


def check_gauge_orbit(inp, rec):
    for i, (residual, passed) in enumerate(zip(rec["residuals"],
                                               rec["homotopy"]), start=1):
        expect(f"residual after step {i}", residual, {})
        expect(f"homotopy identities at step {i}", passed, True)
    expect("class unit term", rec["class_unit"], Fraction(1))
    expect("one-block part of the class", rec["class_one_block"],
           {(g, n, (ws,)): c for (g, n, ws), c in rec["endpoint"].items()})
    expect("delta of the class", rec["class_delta"], {})
    want = dict(inp["x1"])
    for key, c in refs.one_gen_d(inp["y1"]).items():
        refs.add_term(want, key, c)
    expect("one-generator step x + dy", rec["one_gen_step"], want)


class CliRefs:
    """Reference replies of the cli-requests workload."""

    def __init__(self, hochschild_length):
        parities, form = refs.TWO_GEN
        self.hochschild = refs.word_cohomology(
            parities, form, {(0, 0): Fraction(1)}, hochschild_length)


def _flat_by_reference(space, h, nu_free):
    """Single-word h is flat when its bracket square vanishes and the
    cobracket leaves nothing: no pairs at all, or in the nu-free variant
    only pairs with an empty side (those become nu terms)."""
    parities, form = space
    omega = refs.omega_of(form)
    if refs.bracket_sum(parities, omega, h, h):
        return False
    pairs = refs.cobracket_sum(parities, omega, h)
    if nu_free:
        return all(None in pair for pair in pairs)
    return not pairs


def check_cli_requests(inp, rec, ref):
    p2, f2 = refs.TWO_GEN
    om2 = refs.omega_of(f2)
    p1, f1 = refs.ONE_GEN
    om1 = refs.omega_of(f1)
    codes = {"bracket": 0, "cobracket": 0, "diff": 0, "mc-check": 0,
             "constraint": 1, "hochschild": 0, "ch": 0}
    for name, code in codes.items():
        expect(f"{name} exit code", rec[name]["code"], code)
    a, b = inp["bracket"]
    expect("bracket reply", rec["bracket"]["terms"],
           refs.bracket_sum(p2, om2, a, b))
    expect("cobracket reply", rec["cobracket"]["pairs"],
           refs.cobracket_sum(p2, om2, inp["cobracket"]))
    expect("diff reply", rec["diff"]["terms"], refs.one_gen_d(
        {(0, 0, (w,)): c for w, c in inp["diff"].items()}))
    expect("mc-check flatness", rec["mc-check"]["flat"],
           _flat_by_reference(refs.TWO_GEN, inp["mc-check"], False))
    expect("constraint kernel membership", rec["constraint"]["in_kernel"],
           not refs.cobracket_sum(p1, om1, inp["constraint"]))
    expect_tables("hochschild reply", rec["hochschild"]["dims"],
                  ref.hochschild)
    expect("ch flatness", rec["ch"]["flat"],
           _flat_by_reference(refs.ONE_GEN, {
               ws[0]: c for (g, n, ws), c in inp["ch"].items()}, True))
    expect("ch unit term", rec["ch"]["unit"], Fraction(1))
    expect("ch one-block part", rec["ch"]["one_block"],
           {(g, n, (ws,)): c for (g, n, ws), c in inp["ch"].items()})
