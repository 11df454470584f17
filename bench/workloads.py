"""The four workloads: seeded job inputs, the timed job, and the plain
record of its results that checks.py compares with the references.

Every job of a workload makes the same fixed mix of calls; only the
coefficients change from job to job.  Coefficients are nonzero rationals
p/q with |p| <= 9 and 1 <= q <= 5 drawn from the run's seeded generator.
"""

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

from necklie import (Hamiltonian, LambdaElement, SymplecticSpace,
                     TruncationProfile, WordSliceSpec, chain_delta,
                     char_class, gauge_act, hochschild_cohomology,
                     homotopy_check, kunneth_check, lift, mc_residual)
from necklie.cli import main as cli_main
from necklie.obstruction import obstruction_class

import checks
import refs

ROOT = Path(__file__).resolve().parent.parent
SPACE_1D = ROOT / "spaces" / "1d.json"
SPACE_2D = ROOT / "spaces" / "2d.json"

X, XI = 0, 1
T1, T3, T5 = (0,), (0, 0, 0), (0,) * 5


def coefficient(rng):
    return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 5))


def _profile_tuple(p):
    return (p.L, p.K, p.G, p.N, p.P)


class LiftTower:
    """lg tower of c_1 t^3 + c_2 t^5 to order 2, the lg obstruction one
    level further, and the lgv tower that blocks at 1."""

    name = "lift-tower"
    order = 2
    # basis elements enumerated per job, checked in traced runs
    expected_enumerated = refs.lift_tower_elements(order)

    def __init__(self):
        self.space = SymplecticSpace.load(SPACE_1D)

    def make_input(self, rng):
        return {"order": self.order,
                "coeffs": {i: coefficient(rng) for i in (1, 2)}}

    def run(self, inp):
        h = Hamiltonian(self.space, {(0,) * (2 * i + 1): c
                                     for i, c in inp["coeffs"].items()})
        lg = lift(h, inp["order"], "lg")
        nxt = obstruction_class(lg.state)
        lgv = lift(h, inp["order"], "lgv")
        return lg, nxt, lgv

    def record(self, inp, out):
        lg, nxt, lgv = out
        rep = lgv.report
        return {
            "lg_succeeded": lg.succeeded,
            "lg_components": [dict(c.terms) for c in lg.state.components],
            "next_level": nxt.level, "next_cocycle": dict(nxt.cocycle.terms),
            "next_vanishes": nxt.class_vanishes,
            "next_witness": dict(nxt.witness.terms),
            "next_slice": nxt.slice_size,
            "lgv_succeeded": lgv.succeeded,
            "lgv_failure_level": lgv.failure_level,
            "lgv_cocycle": dict(rep.cocycle.terms),
            "lgv_vanishes": rep.class_vanishes,
            "lgv_certificate": rep.certificate is not None,
            "lgv_slice": rep.slice_size,
        }

    def check(self, inp, rec):
        checks.check_lift_tower(inp, rec)


class Cohomology:
    """Kunneth cross-checks of c w[x,x] (two generators) and c t^3 (one
    generator), plus word cohomology tables of both."""

    name = "cohomology"
    two_profile = TruncationProfile(L=3, K=2, G=1, N=1)
    one_profile = TruncationProfile(L=5, K=2, G=1, N=1)
    two_words, one_words = 6, 7

    def __init__(self):
        self.s1 = SymplecticSpace.load(SPACE_1D)
        self.s2 = SymplecticSpace.load(SPACE_2D)
        self._refs = None

    def make_input(self, rng):
        return {"c2": coefficient(rng), "c1": coefficient(rng)}

    def run(self, inp):
        h2 = Hamiltonian(self.s2, {(X, X): inp["c2"]})
        h1 = Hamiltonian(self.s1, {T3: inp["c1"]})
        return (kunneth_check(h2, self.two_profile, "lgv", strict=False),
                kunneth_check(h1, self.one_profile, "lgv", strict=False),
                hochschild_cohomology(h2, WordSliceSpec(self.two_words)),
                hochschild_cohomology(h1, WordSliceSpec(self.one_words)))

    def record(self, inp, out):
        k2, k1, w2, w1 = out
        return {"k2_agree": k2.agree, "k2_direct": dict(k2.direct),
                "k2_predicted": dict(k2.predicted),
                "k2_words": dict(k2.word_dims),
                "k1_agree": k1.agree, "k1_direct": dict(k1.direct),
                "k1_predicted": dict(k1.predicted),
                "w2_dims": dict(w2.dims), "w1_dims": dict(w1.dims)}

    def check(self, inp, rec):
        if self._refs is None:
            self._refs = checks.CohomologyRefs(
                _profile_tuple(self.two_profile),
                _profile_tuple(self.one_profile),
                self.two_words, self.one_words)
        checks.check_cohomology(inp, rec, self._refs)


class GaugeOrbit:
    """Two gauge steps of a w[x,x] + b g w[x,x] in the full two-generator
    complex (first by c w[x,x,xi], then by c nu w[xi] + c' g w[xi]), each
    step gauge_act, mc_residual, homotopy_check; then char_class.  A
    one-generator step of p g t + q t^t^3^t^5 by r t^3 + s g t^5 rides
    along, where the flow reduces to x + dy."""

    name = "gauge-orbit"
    # G and N stay above what P reaches, so neither cap cuts a term that
    # the homotopy check's comparison window still sees
    profile = TruncationProfile(L=3, K=3, G=3, N=5, P=5)
    one_profile = TruncationProfile(L=7, K=3, G=1, N=1)
    steps = (((0, 0, ((X, X, XI),)),),
             ((0, 1, ((XI,),)), (1, 0, ((XI,),))))

    def __init__(self):
        self.s1 = SymplecticSpace.load(SPACE_1D)
        self.s2 = SymplecticSpace.load(SPACE_2D)

    def make_input(self, rng):
        return {
            "x0": {(0, 0, ((X, X),)): coefficient(rng),
                   (1, 0, ((X, X),)): coefficient(rng)},
            "ys": [{key: coefficient(rng) for key in keys}
                   for keys in self.steps],
            "x1": {(1, 0, (T1,)): coefficient(rng),
                   (0, 0, (T1, T3, T5)): coefficient(rng)},
            "y1": {(0, 0, (T3,)): coefficient(rng),
                   (1, 0, (T5,)): coefficient(rng)},
        }

    def run(self, inp):
        p = self.profile
        x = LambdaElement(self.s2, "lgv", p, inp["x0"])
        residuals, reports = [], []
        for y_terms in inp["ys"]:
            y = LambdaElement(self.s2, "lgv", p, y_terms)
            flowed = gauge_act(y, x).value
            residuals.append(mc_residual(flowed))
            reports.append(homotopy_check(y, x, p))
            x = flowed
        cls = char_class(x)
        x1 = LambdaElement(self.s1, "lgv", self.one_profile, inp["x1"])
        y1 = LambdaElement(self.s1, "lgv", self.one_profile, inp["y1"])
        return residuals, reports, x, cls, gauge_act(y1, x1).value

    def record(self, inp, out):
        residuals, reports, endpoint, cls, step = out
        return {
            "residuals": [dict(r.terms) for r in residuals],
            "homotopy": [r.passed for r in reports],
            "endpoint": dict(endpoint.terms),
            "class_unit": cls.terms.get((0, 0, ())),
            "class_one_block": {k: c for k, c in cls.terms.items()
                                if len(k[2]) == 1},
            "class_delta": dict(chain_delta(cls).terms),
            "one_gen_step": dict(step.terms),
        }

    def check(self, inp, rec):
        checks.check_gauge_orbit(inp, rec)


# ---------------------------------------------------------------------------
# the command-line front end


def _expr(names, terms):
    """Expression text for {(g, n, words): c} in the cli grammar."""
    out = ""
    for (g, n, words), c in terms.items():
        factors = [f"{abs(c.numerator)}/{c.denominator}"]
        if g:
            factors.append(f"g^{g}")
        if n:
            factors.append(f"v^{n}")
        factors += ["w[" + ",".join(names[i] for i in w) + "]" for w in words]
        sign = "-" if c < 0 else ("+" if out else "")
        out += f" {sign} " + " * ".join(factors)
    return out.strip()


def _word_expr(names, terms):
    return _expr(names, {(0, 0, (w,)): c for w, c in terms.items()})


def _word_of(names, rendered):
    """Index tuple of a payload word: a list of names or 'w[a,b]' text."""
    if isinstance(rendered, str):
        rendered = rendered[2:-1].split(",")
    return tuple(names.index(n) for n in rendered)


class CliRequests:
    """A fixed batch of seven small requests through cli.main with
    --format json, over both space files."""

    name = "cli-requests"
    hochschild_length = 4
    names1, names2 = ("t",), ("x", "xi")

    def __init__(self):
        self.spaces = {"1d": str(SPACE_1D), "2d": str(SPACE_2D)}
        self._refs = None

    def make_input(self, rng):
        c = lambda: coefficient(rng)  # noqa: E731
        inp = {
            "bracket": ({(X, X, XI): c(), (X, XI, XI): c()},
                        {(X, XI): c(), (XI,): c()}),
            "cobracket": {(X, X, XI, XI): c(), (X, XI, XI): c()},
            "diff": {T3: c(), T5: c()},
            "mc-check": {(X, X): c(), (X, X, X, X): c()},
            "constraint": {T3: c(), T5: c()},
            "hochschild": {(X, X): c()},
            "ch": {(0, 0, (T3,)): c(), (1, 0, (T1,)): c()},
        }
        inp["argv"] = self.argvs(inp)
        return inp

    def argvs(self, inp):
        n1, n2 = self.names1, self.names2
        s1, s2 = self.spaces["1d"], self.spaces["2d"]
        a, b = inp["bracket"]
        common = ["--format", "json", "--space"]
        return [
            ("bracket", ["bracket", *common, s2, _word_expr(n2, a),
                         _word_expr(n2, b)]),
            ("cobracket", ["cobracket", *common, s2,
                           _word_expr(n2, inp["cobracket"])]),
            ("diff", ["diff", *common, s1, _word_expr(n1, inp["diff"])]),
            ("mc-check", ["mc-check", *common, s2,
                          _word_expr(n2, inp["mc-check"])]),
            ("constraint", ["constraint", *common, s1,
                            _word_expr(n1, inp["constraint"])]),
            ("hochschild", ["hochschild", *common, s2, "--length",
                            str(self.hochschild_length),
                            _word_expr(n2, inp["hochschild"])]),
            ("ch", ["ch", *common, s1, "--variant", "lg", "--trunc",
                    "7,3,2,0", _expr(n1, inp["ch"])]),
        ]

    def run(self, inp):
        replies = []
        for name, argv in inp["argv"]:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli_main(argv)
            replies.append((name, code, buf.getvalue()))
        return replies

    def record(self, inp, out):
        n1, n2 = self.names1, self.names2
        rec = {}
        for name, code, text in out:
            payload = json.loads(text)
            entry = {"code": code}
            if name == "bracket":
                entry["terms"] = {_word_of(n2, t["words"][0]):
                                  Fraction(t["coeff"])
                                  for t in payload["result"]["terms"]}
            elif name == "cobracket":
                entry["pairs"] = {
                    tuple(None if s is None else _word_of(n2, s)
                          for s in (p["left"], p["right"])):
                    Fraction(p["coeff"]) for p in payload["pairs"]}
            elif name == "diff":
                entry["terms"] = {
                    (t["gamma"], t["nu"],
                     tuple(_word_of(n1, w) for w in t["words"])):
                    Fraction(t["coeff"]) for t in payload["result"]["terms"]}
            elif name == "mc-check":
                entry["flat"] = payload["flat"]
            elif name == "constraint":
                entry["in_kernel"] = payload["in_kernel"]
            elif name == "hochschild":
                entry["dims"] = {(d["length"], d["parity"]): d["dim"]
                                 for d in payload["dims"]}
            elif name == "ch":
                entry["flat"] = payload["flat"]
                terms = {(t["gamma"], t["nu"],
                          tuple(tuple(_word_of(n1, w) for w in b)
                                for b in t["blocks"])): Fraction(t["coeff"])
                         for t in payload["result"]["terms"]}
                entry["unit"] = terms.get((0, 0, ()))
                entry["one_block"] = {k: c for k, c in terms.items()
                                      if len(k[2]) == 1}
            rec[name] = entry
        return rec

    def check(self, inp, rec):
        if self._refs is None:
            self._refs = checks.CliRefs(self.hochschild_length)
        checks.check_cli_requests(inp, rec, self._refs)


WORKLOADS = {w.name: w for w in (LiftTower, Cohomology, GaugeOrbit,
                                 CliRequests)}
