"""The one-generator example family and its golden regression battery.

One odd generator t with pairing <t,t> = 1 (rescalable for covariance
tests).  Even powers of t vanish by the rotation sign rule, the word
bracket is trivial on words of length >= 1, and the cobracket collapses
to Delta(t^(2n+1)) = (2n+1) nu t^(2n-1).  Flat hamiltonians are exactly
the odd-power sums; their nu-tower lifting fails at level one unless
h = 0, while the nu-free tower extends with zero at every level.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bialgebra import IdentityResult, bracket, bracket_raw
from .cecomplex import (LambdaElement, TruncationProfile, definition_order,
                        filtration_order, normalize_tensor,
                        raw_extend_cobracket)
from .errors import IntegrityError, UsageError
from .linalg import WordSliceSpec
from .mc import MCCandidate, mc_residual
from .obstruction import hochschild_cohomology, lift
from .space import SymplecticSpace, one_dim_space
from .words import Hamiltonian, accumulate, canonical_words, normalize_word


def make_family(coeffs: dict | None = None,
                pairing=Fraction(1)) -> tuple[SymplecticSpace, Hamiltonian]:
    """Space and hamiltonian h = sum over i of coeffs[i] * t^(2i+1).

    Keys are the indices i >= 1, so {1: 1} builds t^3.  The nontrivial
    pairing value is a test knob, not part of the example.
    """
    if pairing == 0:
        raise UsageError("the pairing must be invertible")
    space = (one_dim_space() if pairing == 1 else
             SymplecticSpace(("t",), (1,), ((Fraction(pairing),),), 0))
    terms = {}
    for i, c in (coeffs or {}).items():
        if not isinstance(i, int) or i < 1:
            raise UsageError(
                f"index {i!r} invalid: coefficients attach to t^(2i+1) "
                f"with integer i >= 1, keeping every power odd and >= 3")
        terms[(0,) * (2 * i + 1)] = Fraction(c)
    h = Hamiltonian(space, terms)
    if not (bracket_raw(space, (0,), (0,))[0] == {}):
        raise IntegrityError("one-generator bracket produced word terms")
    return space, h


def general_solution_sample(assignment: dict,
                            profile: TruncationProfile) -> LambdaElement:
    """Element sum a[(i, (r_1..r_k))] * g^i * (t^(2r_1+1) ... t^(2r_k+1))
    of the nu-free complex; certified flat before returning.

    Raises on any index outside the profile rather than dropping it.
    """
    space = one_dim_space()
    terms: dict = {}
    for (i, rs), c in assignment.items():
        c = Fraction(c)
        if c == 0:
            continue
        if not isinstance(i, int) or i < 0:
            raise UsageError(f"gamma exponent {i!r} must be an integer >= 0")
        words = []
        for r in rs:
            if not isinstance(r, int) or r < 0:
                raise UsageError(f"power index {r!r} must be an integer >= 0")
            words.append((0,) * (2 * r + 1))
        key = (i, 0, tuple(words))
        if definition_order(key) < 2:
            raise UsageError(f"assignment {(i, tuple(rs))} has total order "
                             f"{definition_order(key)}; the complex starts "
                             f"at order 2")
        if (i > profile.G or len(words) > profile.K
                or any(len(w) > profile.L for w in words)
                or filtration_order(key) > profile.P):
            raise UsageError(
                f"assignment {(i, tuple(rs))} falls outside the profile")
        nm = normalize_tensor(space, *key)
        if nm is None:
            continue  # repeated odd power: the wedge is zero
        accumulate(terms, nm[0], c * nm[1])
    out = LambdaElement(space, "lg", profile, terms, already_canonical=True)
    res = mc_residual(MCCandidate(out))
    if not res.is_zero():
        raise IntegrityError("a one-generator nu-free element failed the "
                             "flatness certificate")
    return out


@dataclass
class OneDimReport:
    profile: TruncationProfile
    results: list

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def summary_lines(self):
        lines = []
        for r in self.results:
            status = "ok" if r.passed else "FAIL"
            line = f"{status:4s} {r.name} ({r.checked} checked)"
            if r.witness:
                line += f" witness: {r.witness}"
            lines.append(line)
        return lines


def default_suite_profile() -> TruncationProfile:
    return TruncationProfile(L=9, K=3, G=2, N=2)


def verify_kontsevich_suite(profile: TruncationProfile | None = None,
                            coeffs: dict | None = None,
                            n_max: int = 5,
                            lift_order: int = 6) -> OneDimReport:
    """Golden battery for the one-generator family.

    coeffs defaults to {1: 1} (the cubic hamiltonian); failures are
    recorded, not raised.
    """
    profile = profile or default_suite_profile()
    space, h = make_family({1: 1} if coeffs is None else coeffs)
    results = []

    r = IdentityResult("even powers of t vanish, odd powers are canonical")
    for k in range(1, profile.L + 1):
        nm = normalize_word(space, (0,) * k)
        ok = (nm is None) if k % 2 == 0 else (nm is not None and nm[1] == 1)
        r.record(ok, lambda k=k: f"t^{k}")
    results.append(r)

    r = IdentityResult("word bracket is trivial on all slice pairs")
    ws = canonical_words(space, profile.L)
    for a in ws:
        for b in ws:
            terms, _scalar = bracket_raw(space, a, b)
            r.record(not terms, lambda a=a, b=b: f"lengths {len(a)},{len(b)}")
    results.append(r)

    r = IdentityResult("cobracket of t^(2n+1) is (2n+1) nu t^(2n-1)")
    for n in range(1, n_max + 1):
        got = raw_extend_cobracket(
            space, {(0, 0, ((0,) * (2 * n + 1),)): Fraction(1)})
        want = {(0, 1, ((0,) * (2 * n - 1),)): Fraction(2 * n + 1)}
        r.record(got == want, lambda n=n, got=got: f"n={n}: {got}")
    results.append(r)

    r = IdentityResult("flat in single-word space: residual of h is zero")
    r.record(bracket(h, h, max_length=None).is_zero(), lambda: "h")
    results.append(r)

    r = IdentityResult("adjoint cohomology is every odd-length word")
    hoch = hochschild_cohomology(h, WordSliceSpec(max_length=7))
    for length in range(1, 8):
        for par in (0, 1):
            want = 1 if (length % 2 == 1 and par == 1) else 0
            got = hoch.dims.get((length, par), 0)
            r.record(got == want,
                     lambda length=length, par=par, got=got:
                     f"(length {length}, parity {par}) dim {got}")
    r.record(hoch.odd_vanishes, lambda: "obstruction parity should vanish")
    results.append(r)

    if not h.is_zero():
        r = IdentityResult("nu-tower lifting blocks at level one")
        out = lift(h, lift_order, "lgv")
        expect = {}
        for w, c in h.terms.items():
            n = (len(w) - 1) // 2
            expect[(0, 1, ((0,) * (2 * n - 1),))] = c * (2 * n + 1)
        ok = (not out.succeeded and out.failure_level == 1
              and out.report is not None
              and out.report.cocycle.terms == expect
              and not out.report.class_vanishes)
        r.record(ok, lambda out=out: f"outcome {out.report or out.state}")
        results.append(r)

    r = IdentityResult(
        f"nu-free tower extends through order {lift_order}")
    out = lift(h, lift_order, "lg")
    ok = out.succeeded
    if ok:
        res = out.state.residual()
        low = res.min_filtration_order()
        ok = low is None or low > lift_order
    r.record(ok, lambda out=out: f"outcome {out.report or out.state}")
    results.append(r)

    return OneDimReport(profile, results)
