"""Command-line front end.

One subcommand per operation family; shared flags select the underlying
symplectic space, the truncation profile, the complex variant, and the
output format.  Exit status 0 means the requested check passed (or the
computation succeeded), 1 means a verification failed, 2 means the
invocation itself was bad.
"""

from __future__ import annotations

import argparse
import functools
import sys

from .bialgebra import bracket, check_bialgebra_axioms, cobracket
from .cecomplex import TruncationProfile, lambda_differential, raw_extend_cobracket
from .errors import IntegrityError, NecklieError, PreconditionError, UsageError
from .exprs import (parse_expression, parse_hamiltonian, render_chain_terms,
                    render_element, render_hamiltonian, render_terms,
                    render_word)
from .linalg import WordSliceSpec
from .mc import as_candidate, char_class, gauge_act, mc_residual
from .obstruction import (default_lift_profile, extension_space,
                          hochschild_cohomology, kunneth_check, lift,
                          obstruction_class, quantum_constraint_check)
from .onedim import default_suite_profile, verify_kontsevich_suite
from .reports import (chain_payload, dump_json, element_payload,
                      hamiltonian_payload, terms_payload)
from .space import SymplecticSpace, one_dim_space

_VARIANTS = ("hq2", "lg", "lgv")
_DEFAULT_PROFILE = TruncationProfile(L=9, K=3, G=2, N=2)
_DEFAULT_KUNNETH = TruncationProfile(L=5, K=2, G=1, N=1)


def _parse_trunc(text: str) -> TruncationProfile:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) not in (4, 5):
        raise UsageError("--trunc expects L,K,G,N or L,K,G,N,P")
    try:
        nums = [int(p) for p in parts]
    except ValueError:
        raise UsageError(f"--trunc expects integers, got {text!r}") from None
    return TruncationProfile(*nums)


def _load_space(args) -> SymplecticSpace:
    if args.space is None:
        return one_dim_space()
    try:
        return SymplecticSpace.load(args.space)
    except OSError as exc:
        raise UsageError(f"cannot read space file: {exc}") from None
    except ValueError as exc:
        raise UsageError(f"bad space file {args.space}: {exc}") from None


def _profile(args, default: TruncationProfile = _DEFAULT_PROFILE):
    if args.trunc is None:
        return default
    return _parse_trunc(args.trunc)


def _profile_payload(p: TruncationProfile) -> dict:
    return {"L": p.L, "K": p.K, "G": p.G, "N": p.N, "P": p.P}


def _identity_payload(results) -> list:
    return [{"name": r.name, "checked": r.checked, "passed": r.passed,
             "witness": r.witness} for r in results]


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit code, text lines, json payload)


def _cmd_axioms(args, space):
    rep = check_bialgebra_axioms(space, max_length=args.max_length,
                                 samples=args.samples, seed=args.seed)
    payload = {"command": "axioms", "passed": rep.passed,
               "exhaustive_words": rep.exhaustive_words,
               "sampled_combos": rep.sampled_combos, "seed": rep.seed,
               "identities": _identity_payload(rep.results.values())}
    lines = rep.summary_lines()
    lines.append("all identities hold" if rep.passed else "identity FAILED")
    return (0 if rep.passed else 1), lines, payload


def _cmd_bracket(args, space):
    a = parse_hamiltonian(args.exprs[0], space)
    b = parse_hamiltonian(args.exprs[1], space)
    out = bracket(a, b)
    payload = {"command": "bracket", "result": hamiltonian_payload(out)}
    return 0, [render_hamiltonian(out)], payload


def _cmd_cobracket(args, space):
    h = parse_hamiltonian(args.exprs[0], space)
    val = cobracket(h)
    pair_items = []
    for (left, right), c in sorted(
            val.pairs.items(),
            key=lambda kv: (kv[0][0] or (), kv[0][1] or ())):
        pair_items.append({
            "left": render_word(space, left) if left is not None else None,
            "right": render_word(space, right) if right is not None else None,
            "coeff": c})
    extended = raw_extend_cobracket(space, {(0, 0, (w,)): c
                                            for w, c in h.terms.items()})
    payload = {"command": "cobracket", "pairs": pair_items,
               "extended": terms_payload(space, extended)}
    lines = []
    for item in pair_items:
        lines.append(f"  {item['coeff']} * "
                     f"({item['left'] or '1'} (x) {item['right'] or '1'})")
    lines = [f"pairs ({len(pair_items)}):"] + (lines or ["  0"])
    lines.append("extended form: " + render_terms(space, extended))
    return 0, lines, payload


def _cmd_diff(args, space):
    x = parse_expression(args.exprs[0], space, variant=args.variant,
                         profile=_profile(args))
    out = lambda_differential(x)
    payload = {"command": "diff", "variant": args.variant,
               "result": element_payload(out)}
    return 0, [render_element(out)], payload


def _cmd_mc_check(args, space):
    x = parse_expression(args.exprs[0], space, variant=args.variant,
                         profile=_profile(args))
    res = mc_residual(as_candidate(x))
    flat = res.is_zero()
    payload = {"command": "mc-check", "flat": flat,
               "residual": element_payload(res)}
    lines = ["residual: " + render_element(res),
             "flat within truncation" if flat else "NOT flat"]
    return (0 if flat else 1), lines, payload


def _cmd_gauge(args, space):
    profile = _profile(args)
    y = parse_expression(args.exprs[0], space, variant=args.variant,
                         profile=profile)
    x = parse_expression(args.exprs[1], space, variant=args.variant,
                         profile=profile)
    out = gauge_act(y, x).value
    payload = {"command": "gauge", "result": element_payload(out)}
    return 0, [render_element(out)], payload


def _cmd_ch(args, space):
    x = parse_expression(args.exprs[0], space, variant=args.variant,
                         profile=_profile(args))
    try:
        c = char_class(as_candidate(x))
    except PreconditionError as exc:
        payload = {"command": "ch", "flat": False, "error": str(exc),
                   "residual": element_payload(exc.evidence)}
        lines = [f"failed: {exc}",
                 "residual: " + render_element(exc.evidence)]
        return 1, lines, payload
    payload = {"command": "ch", "flat": True, "result": chain_payload(c)}
    return 0, [render_chain_terms(c.space, c.terms)], payload


def _cmd_hochschild(args, space):
    h = parse_hamiltonian(args.exprs[0], space)
    rep = hochschild_cohomology(h, WordSliceSpec(max_length=args.length))
    dim_items = []
    lines = []
    for key in sorted(rep.dims):
        length, par = key
        reps = [render_hamiltonian(r) for r in rep.representatives[key]]
        dim_items.append({"length": length, "parity": par,
                          "dim": rep.dims[key], "representatives": reps})
        if rep.dims[key]:
            lines.append(f"length {length} parity {par}: dim {rep.dims[key]}"
                         f"  reps: {'; '.join(reps)}")
    lines.append(f"obstruction-parity part vanishes: "
                 f"{'yes' if rep.odd_vanishes else 'no'}")
    payload = {"command": "hochschild", "shift": rep.shift,
               "odd_vanishes": rep.odd_vanishes, "dims": dim_items}
    return 0, lines, payload


def _obstruction_payload(rep, command: str) -> dict:
    payload = {"command": command, "level": rep.level,
               "class_vanishes": rep.class_vanishes,
               "cocycle": element_payload(rep.cocycle),
               "slice_size": rep.slice_size}
    if rep.witness is not None:
        payload["witness"] = element_payload(rep.witness)
    return payload


def _obstruction_lines(rep) -> list:
    lines = [rep.summary(), "cocycle: " + render_element(rep.cocycle)]
    if rep.witness is not None:
        lines.append("witness: " + render_element(rep.witness))
    return lines


def _cmd_obstruct(args, space):
    h = parse_hamiltonian(args.exprs[0], space)
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    profile = _profile(args, default_lift_profile(space, args.variant,
                                                  args.order))
    out = lift(h, args.order - 1, args.variant, profile)
    if not out.succeeded:
        rep = out.report
        lines = [f"lift already blocked at level {rep.level}"]
        lines += _obstruction_lines(rep)
        return 1, lines, _obstruction_payload(rep, "obstruct")
    rep = obstruction_class(out.state)
    code = 0 if rep.class_vanishes else 1
    return code, _obstruction_lines(rep), _obstruction_payload(rep, "obstruct")


def _cmd_lift(args, space):
    if args.order < 0:
        raise UsageError("--order must be >= 0")
    h = parse_hamiltonian(args.exprs[0], space)
    profile = _profile(args, default_lift_profile(space, args.variant,
                                                  args.order))
    out = lift(h, args.order, args.variant, profile)
    if out.succeeded:
        res = out.state.residual()
        low = res.min_filtration_order()
        payload = {"command": "lift", "succeeded": True,
                   "level": out.state.level,
                   "profile": _profile_payload(profile),
                   "components": [element_payload(c)
                                  for c in out.state.components],
                   "residual_min_order": low}
        lines = [f"lift reached order {out.state.level}",
                 "residual vanishes" if low is None
                 else f"residual starts at filtration order {low}",
                 "value: " + render_element(out.state.value())]
        return 0, lines, payload
    rep = out.report
    payload = {"command": "lift", "succeeded": False,
               "failure_level": out.failure_level,
               "profile": _profile_payload(profile),
               "obstruction": _obstruction_payload(rep, "obstruct")}
    lines = [f"lift blocked at level {out.failure_level}"]
    lines += _obstruction_lines(rep)
    return 1, lines, payload


def _cmd_extspace(args, space):
    h = parse_hamiltonian(args.exprs[0], space)
    if args.order < 1:
        raise UsageError("--order must be >= 1")
    profile = _profile(args, default_lift_profile(space, args.variant,
                                                  args.order))
    out = lift(h, args.order - 1, args.variant, profile)
    if not out.succeeded:
        rep = out.report
        lines = [f"lift blocked at level {rep.level}"]
        lines += _obstruction_lines(rep)
        return 1, lines, _obstruction_payload(rep, "extspace")
    sp = extension_space(out.state)
    payload = {"command": "extspace", "level": sp.level,
               "dimension": len(sp.parameter_basis),
               "particular": element_payload(sp.particular),
               "basis": [element_payload(b) for b in sp.parameter_basis]}
    lines = [f"extensions at level {sp.level}: affine space of dimension "
             f"{len(sp.parameter_basis)}",
             "particular: " + render_element(sp.particular)]
    lines += ["basis: " + render_element(b) for b in sp.parameter_basis]
    return 0, lines, payload


def _cmd_kunneth(args, space):
    h = parse_hamiltonian(args.exprs[0], space)
    profile = _profile(args, _DEFAULT_KUNNETH)
    rep = kunneth_check(h, profile, variant=args.variant, strict=False)
    rows = []
    keys = sorted(set(rep.direct) | set(rep.predicted))
    for key in keys:
        rows.append({"order": key[0], "parity": key[1],
                     "direct": rep.direct.get(key, 0),
                     "predicted": rep.predicted.get(key, 0)})
    payload = {"command": "kunneth", "agree": rep.agree,
               "profile": _profile_payload(profile),
               "word_dims": [{"length": k[0], "parity": k[1], "dim": d}
                             for k, d in sorted(rep.word_dims.items())],
               "table": rows}
    lines = [f"order {r['order']} parity {r['parity']}: "
             f"direct {r['direct']}  predicted {r['predicted']}"
             for r in rows]
    lines.append("symmetric-power prediction "
                 + ("matches" if rep.agree else "DISAGREES"))
    return (0 if rep.agree else 1), lines, payload


def _cmd_constraint(args, space):
    h = parse_hamiltonian(args.exprs[0], space)
    rep = quantum_constraint_check(h)
    extended = raw_extend_cobracket(space, {(0, 0, (w,)): c
                                            for w, c in h.terms.items()})
    payload = {"command": "constraint", "in_kernel": rep.in_k,
               "mc_certified": rep.mc_certified,
               "deficit": terms_payload(space, extended)}
    lines = ["cobracket deficit: " + render_terms(space, extended)]
    lines.append("lies in the cobracket kernel" if rep.in_k
                 else "NOT in the cobracket kernel")
    if rep.mc_certified is not None:
        lines.append("flatness in the full complex: "
                     + ("certified" if rep.mc_certified else "FAILED"))
    return (0 if rep.in_k else 1), lines, payload


def _cmd_example_1d(args, space):
    if args.space is not None:
        raise UsageError("example-1d fixes its own space; drop --space")
    profile = (_parse_trunc(args.trunc) if args.trunc is not None
               else default_suite_profile())
    rep = verify_kontsevich_suite(profile=profile)
    payload = {"command": "example-1d", "passed": rep.passed,
               "profile": _profile_payload(rep.profile),
               "results": _identity_payload(rep.results)}
    lines = rep.summary_lines()
    lines.append("suite passed" if rep.passed else "suite FAILED")
    return (0 if rep.passed else 1), lines, payload


_HANDLERS = {
    "axioms": _cmd_axioms,
    "bracket": _cmd_bracket,
    "cobracket": _cmd_cobracket,
    "diff": _cmd_diff,
    "mc-check": _cmd_mc_check,
    "gauge": _cmd_gauge,
    "ch": _cmd_ch,
    "hochschild": _cmd_hochschild,
    "obstruct": _cmd_obstruct,
    "lift": _cmd_lift,
    "extspace": _cmd_extspace,
    "kunneth": _cmd_kunneth,
    "constraint": _cmd_constraint,
    "example-1d": _cmd_example_1d,
}


def _add_common(sub):
    sub.add_argument("--space", metavar="FILE",
                     help="JSON description of the symplectic space "
                          "(default: the one-generator odd space)")
    sub.add_argument("--trunc", metavar="L,K,G,N[,P]",
                     help="truncation profile")
    sub.add_argument("--variant", choices=_VARIANTS, default="lgv",
                     help="complex variant (default lgv)")
    sub.add_argument("--format", choices=("text", "json"), default="text")
    sub.add_argument("--seed", type=int, default=2718,
                     help="seed for sampled checks")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="necklie",
        description="Exact computations in the cyclic-word Lie bialgebra "
                    "and its deformed Chevalley-Eilenberg complexes.")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("axioms", help="verify the bialgebra identities")
    sub.add_argument("--max-length", type=int, default=5)
    sub.add_argument("--samples", type=int, default=100)
    _add_common(sub)

    for name, nargs, help_ in (
            ("bracket", 2, "bracket of two word combinations"),
            ("cobracket", 1, "cobracket of a word combination"),
            ("diff", 1, "differential of a complex element"),
            ("mc-check", 1, "flatness of a candidate element"),
            ("gauge", 2, "gauge action: gauge PARAM CANDIDATE"),
            ("ch", 1, "exponential class of a flat candidate"),
            ("kunneth", 1, "compare direct and predicted cohomology"),
            ("constraint", 1, "cobracket-kernel membership")):
        sub = subs.add_parser(name, help=help_)
        sub.add_argument("exprs", nargs=nargs, metavar="EXPR")
        _add_common(sub)

    sub = subs.add_parser("hochschild", help="word-space cohomology of ad(h)")
    sub.add_argument("exprs", nargs=1, metavar="EXPR")
    sub.add_argument("--length", type=int, default=7,
                     help="largest word length analyzed (default 7)")
    _add_common(sub)

    for name, default, help_ in (
            ("obstruct", 1, "obstruction class at a given level"),
            ("lift", 6, "iterate the lifting tower to a target order"),
            ("extspace", 1, "affine space of extensions at a level")):
        sub = subs.add_parser(name, help=help_)
        sub.add_argument("exprs", nargs=1, metavar="EXPR")
        sub.add_argument("--order", type=int, default=default)
        _add_common(sub)

    sub = subs.add_parser("example-1d",
                          help="golden battery for the one-generator family")
    _add_common(sub)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first request and reused by later ones."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        space = _load_space(args)
        code, lines, payload = _HANDLERS[args.command](args, space)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PreconditionError, IntegrityError) as exc:
        print(f"failed: {exc}", file=sys.stderr)
        return 1
    except NecklieError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.format == "json":
        print(dump_json(payload))
    else:
        for line in lines:
            print(line)
    return code


if __name__ == "__main__":
    sys.exit(main())
