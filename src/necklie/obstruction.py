"""Order-by-order lifting of flat hamiltonians through the deformation tower.

A state stores components h_0, ..., h_n, with h_i homogeneous of
filtration order i, whose sum has residual vanishing below order n+1.
The order-(n+1) component of the residual is the obstruction cocycle;
extensions exist exactly when it is a coboundary of the adjoint
differential ad(h), solved here as a sparse rational linear system over
the order-(n+1) slice.  The affine space of extensions is parameterized
by adjoint-cohomology representatives of matching order and parity.

The cyclic Hochschild side (cohomology of ad(h) on single words) feeds
the symmetric-power bookkeeping that predicts slice cohomology of the
full complex, cross-validating signs and truncation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb

from .bialgebra import CobracketValue, bracket, bracket_combo, cobracket
from .cecomplex import (LambdaElement, TruncationProfile, filtration_order,
                        lambda_bracket, raw_bracket, unbounded_profile,
                        variant_cut)
from .errors import (IntegrityError, PreconditionError, SliceRangeError,
                     UsageError)
from .linalg import (BasisSlice, TensorSliceSpec, WordSliceSpec,
                     enumerate_basis, homology_dims, matrix_of_operator,
                     solve_and_kernel)
from .mc import MCCandidate, candidate_parity, check_parity, mc_residual
from .space import SymplecticSpace
from .words import Hamiltonian


def obstruction_parity(space: SymplecticSpace) -> int:
    """Residuals of homogeneous candidates land in the opposite parity."""
    return (candidate_parity(space) + 1) & 1


def _require_flat(h: Hamiltonian) -> None:
    sq = bracket(h, h, max_length=None).scale(Fraction(1, 2))
    if not sq.is_zero():
        raise PreconditionError("hamiltonian does not square to zero",
                                evidence=sq)


def embed_hamiltonian(h: Hamiltonian, variant: str,
                      profile: TruncationProfile) -> LambdaElement:
    """Order-zero component of a lifting state: single-word tensors."""
    for w in h.terms:
        if len(w) < 2:
            raise UsageError("base hamiltonian must live in length >= 2")
    terms = {(0, 0, (w,)): c for w, c in h.terms.items()}
    return LambdaElement(h.space, variant, profile, terms)


# ---------------------------------------------------------------------------
# states and reports


class MCState:
    """Partial solution h_0 + ... + h_n with residual vanishing to order n.

    A base h_0 that does not square to zero raises PreconditionError with
    the square as evidence.
    """

    __slots__ = ("space", "variant", "profile", "components", "_residual")

    def __init__(self, components):
        components = tuple(components)
        if not components:
            raise UsageError("a state needs at least the order-zero component")
        base = components[0]
        if not isinstance(base, LambdaElement):
            raise UsageError("components must be complex elements")
        self.space = base.space
        self.variant = base.variant
        self.profile = base.profile
        want = candidate_parity(self.space)
        for i, part in enumerate(components):
            part._check_compatible(base)
            if any(filtration_order(k) != i for k in part.terms):
                raise UsageError(
                    f"component {i} is not homogeneous of filtration order {i}")
            check_parity(part, want, f"component {i}")
        for k in base.terms:
            if k[0] or k[1] or len(k[2]) != 1:
                raise UsageError("the base component must be a sum of "
                                 "single-word tensors")
        self.components = components
        _require_flat(self.base_hamiltonian())
        res = self._residual = mc_residual(MCCandidate(self.value()))
        low = res.min_filtration_order()
        if low is not None and low <= self.level:
            raise UsageError(
                f"residual has an order-{low} term; the state only claims "
                f"flatness below order {self.level + 1}")

    @property
    def level(self) -> int:
        return len(self.components) - 1

    def value(self) -> LambdaElement:
        out = self.components[0]
        for part in self.components[1:]:
            out = out + part
        return out

    def residual(self) -> LambdaElement:
        """The residual of the whole value, computed once when validating."""
        return self._residual

    def base_hamiltonian(self) -> Hamiltonian:
        return Hamiltonian(
            self.space, {ws[0]: c for (_, _, ws), c in
                         self.components[0].terms.items()})

    def extended(self, part: LambdaElement) -> "MCState":
        return MCState(self.components + (part,))

    def __repr__(self):
        return (f"MCState(level={self.level}, variant={self.variant}, "
                f"terms={sum(len(p.terms) for p in self.components)})")


@dataclass
class ObstructionReport:
    level: int
    cocycle: LambdaElement
    is_cocycle: bool
    class_vanishes: bool
    witness: LambdaElement | None          # an extension, when one exists
    certificate: list | None = None        # row combination proving no solution
    slice_size: int = 0
    # (candidate slice, obstruction slice, d_out) of the solve, which
    # extension_space reuses; not part of the report's value
    system: tuple | None = field(default=None, repr=False, compare=False)

    def summary(self) -> str:
        verdict = ("vanishes" if self.class_vanishes
                   else "does not vanish")
        return (f"order-{self.level} obstruction {verdict} "
                f"({len(self.cocycle.terms)} cocycle terms, "
                f"slice dimension {self.slice_size})")


@dataclass
class ExtensionSpace:
    level: int
    particular: LambdaElement
    parameter_basis: list          # cohomology representatives, same order

    def extension(self, alpha=None) -> LambdaElement:
        """Affine point particular + sum alpha_j basis_j."""
        if alpha is None:
            alpha = [Fraction(0)] * len(self.parameter_basis)
        if len(alpha) != len(self.parameter_basis):
            raise UsageError(
                f"parameter vector has length {len(alpha)}, "
                f"basis has {len(self.parameter_basis)}")
        out = self.particular
        for a, b in zip(alpha, self.parameter_basis):
            out = out + b.scale(a)
        return out


# ---------------------------------------------------------------------------
# the adjoint differential on words


def hochschild_differential(h: Hamiltonian, f: Hamiltonian,
                            max_length: int | None = None) -> Hamiltonian:
    """ad(h) f = {h, f}, truncated to f's declared length bound."""
    _require_flat(h)
    if max_length is None:
        max_length = f.max_length
    return bracket(h, f, max_length=max_length)


def _length_shift(h: Hamiltonian) -> int | None:
    """Uniform length change of ad(h), or None when h mixes lengths."""
    lengths = {len(w) for w in h.terms}
    if not lengths:
        return 0
    if len(lengths) > 1:
        return None
    return lengths.pop() - 2


@dataclass
class HochschildReport:
    dims: dict                         # (length or None, parity) -> dimension
    representatives: dict              # same keys -> list of Hamiltonian
    odd_vanishes: bool
    shift: int | None

    def flat_representatives(self):
        out = []
        for key in sorted(self.representatives,
                          key=lambda k: (k[0] if k[0] is not None else -1, k[1])):
            out.extend(self.representatives[key])
        return out


def hochschild_cohomology(h: Hamiltonian,
                          constraints: WordSliceSpec) -> HochschildReport:
    """Kernel mod image of ad(h) on the word slice, graded by length when
    ad(h) shifts lengths uniformly.

    The differential out of each degree (length, parity) is built once per
    call and serves as d_out of that degree and d_in of the degree it maps
    to.  It is not memoized across calls: it depends on the coefficients
    of h.

    ad(h) squares to zero only when it is odd, that is when the parity of
    h differs from the form parity; an h of the form's parity raises
    UsageError."""
    space = h.space
    if h.parity() == space.form_parity:
        raise UsageError(
            f"ad(h) is even: h has parity {h.parity()} and the form has "
            f"parity {space.form_parity}; cohomology needs an odd ad(h), "
            f"from an h of parity {1 - space.form_parity}")
    _require_flat(h)
    shift = _length_shift(h)
    if shift is None:
        raise UsageError("ad(h) mixes word lengths; analyze "
                         "length-homogeneous parts separately")

    def op(word):
        return bracket_combo(space, h.terms, {word: Fraction(1)})[0]

    def slice_of(length, par):
        if length < 1:
            return BasisSlice(space, "word", ())
        return enumerate_basis(space, WordSliceSpec(
            max_length=length, min_length=length, parity=par))

    mats: dict = {}

    def d(length, par):
        """ad(h) out of the degree (length, par)."""
        found = mats.get((length, par))
        if found is None:
            found = mats[(length, par)] = matrix_of_operator(
                op, slice_of(length, par),
                slice_of(length + shift, (par + 1) & 1))
        return found

    dims: dict = {}
    reps: dict = {}
    for length in range(max(constraints.min_length, 1),
                        constraints.max_length + 1):
        for par in (0, 1):
            if constraints.parity is not None and par != constraints.parity:
                continue
            dom = slice_of(length, par)
            hom = homology_dims(d(length - shift, (par + 1) & 1),
                                d(length, par))
            dims[(length, par)] = hom.homology_dim
            reps[(length, par)] = [_word_vector_to_ham(space, dom, v)
                                   for v in hom.representatives]

    bad_par = obstruction_parity(space)
    odd_vanishes = all(dim == 0 for k, dim in dims.items()
                       if k[1] == bad_par)
    return HochschildReport(dims, reps, odd_vanishes, shift)


def _word_vector_to_ham(space, slice_, vector) -> Hamiltonian:
    return Hamiltonian(space, {w: c for w, c in
                               zip(slice_.elements, vector) if c})


# ---------------------------------------------------------------------------
# obstruction solving


def _adjoint_op(space, h_terms, variant):
    """v -> [v, h] as a raw-terms operator on tensor keys."""
    def op(key):
        return variant_cut(variant,
                           raw_bracket(space, {key: Fraction(1)}, h_terms))
    return op


def _slices_at(state: MCState, order: int):
    cand = enumerate_basis(state.space, TensorSliceSpec(
        state.profile, state.variant, parity=candidate_parity(state.space),
        order=order))
    obst = enumerate_basis(state.space, TensorSliceSpec(
        state.profile, state.variant, parity=obstruction_parity(state.space),
        order=order))
    return cand, obst


def obstruction_class(state: MCState) -> ObstructionReport:
    """Extract o_{level+1}, verify it is an adjoint cocycle, and decide
    whether it bounds."""
    level = state.level + 1
    o = state.residual().component_of_order(level)

    base = state.components[0]
    wide = unbounded_profile()
    commutator = lambda_bracket(base.with_profile(wide), o.with_profile(wide))
    if not commutator.is_zero():
        raise IntegrityError(
            f"order-{level} residual component is not an adjoint cocycle; "
            f"[h, o] has {len(commutator.terms)} terms")

    cand, obst = _slices_at(state, level)
    op = _adjoint_op(state.space, base.terms, state.variant)
    matrix = matrix_of_operator(op, cand, obst)
    rhs = obst.vector_of({k: -c for k, c in o.terms.items()})
    solved = solve_and_kernel(matrix, rhs)

    witness = None
    if solved.solvable:
        witness = state.components[0].replace_terms(
            cand.combination(solved.particular))
    return ObstructionReport(
        level=level, cocycle=o, is_cocycle=True,
        class_vanishes=solved.solvable, witness=witness,
        certificate=None if solved.solvable else solved.certificate,
        slice_size=len(cand), system=(cand, obst, matrix))


def extend_step(state: MCState, choice=None):
    """One tower step: state at level n -> level n+1, or the blocking report.

    choice selects a cohomology representative to add to the particular
    extension; its length must match the parameter basis.
    """
    report = obstruction_class(state)
    if not report.class_vanishes:
        return report
    part = report.witness
    if choice is not None:
        space = extension_space(state, _report=report)
        part = space.extension(choice)
    return state.extended(part)


def extension_space(state: MCState, _report=None) -> ExtensionSpace:
    """Affine parameterization of all extensions at the next level.

    _report, when given, is obstruction_class(state); its slices and
    d_out are reused, so only d_in is built here."""
    report = _report or obstruction_class(state)
    if not report.class_vanishes:
        raise PreconditionError(
            "the obstruction class does not vanish; no extensions exist",
            evidence=report)
    cand, obst, d_out = report.system
    op = _adjoint_op(state.space, state.components[0].terms, state.variant)
    d_in = matrix_of_operator(op, obst, cand)
    hom = homology_dims(d_in, d_out)
    base = state.components[0]
    basis = [base.replace_terms(cand.combination(v))
             for v in hom.representatives]
    return ExtensionSpace(level=report.level, particular=report.witness,
                          parameter_basis=basis)


@dataclass
class LiftOutcome:
    state: MCState | None
    failure_level: int | None
    report: ObstructionReport | None
    history: list = field(default_factory=list)

    @property
    def succeeded(self) -> bool:
        return self.state is not None


def default_lift_profile(space: SymplecticSpace, variant: str,
                         order: int) -> TruncationProfile:
    """Roomy bounds for lifting to the given order: long enough words and
    enough factors that no admissible term of order <= order+1 is cut."""
    if variant == "lgv":
        n_cap = 1 if space.nu_parity else order + 1
    else:
        n_cap = 0
    return TruncationProfile(L=2 * order + 3, K=order + 2,
                             G=max(order, 1), N=n_cap, P=order + 1)


def lift(h: Hamiltonian, target_order: int, variant: str,
         profile: TruncationProfile | None = None,
         choices: dict | None = None) -> LiftOutcome:
    """Iterate tower steps from the bare hamiltonian up to target_order.

    choices maps a level to its cohomology parameter vector; omitted
    levels use the zero vector (the particular solution).
    """
    if target_order < 0:
        raise UsageError("target order must be nonnegative")
    profile = profile or default_lift_profile(h.space, variant, target_order)
    base = embed_hamiltonian(h, variant, profile)
    if len(base.terms) < len(h.terms):
        # the profile dropped words of h, so the state's check of its base
        # does not see all of h
        _require_flat(h)
    state = MCState([base])
    history = []
    while state.level < target_order:
        step = extend_step(state, (choices or {}).get(state.level + 1))
        if isinstance(step, ObstructionReport):
            return LiftOutcome(state=None, failure_level=step.level,
                               report=step, history=history + [step])
        state = step
        history.append(None)
    return LiftOutcome(state=state, failure_level=None, report=None,
                       history=history)


# ---------------------------------------------------------------------------
# quantum constraint


@dataclass
class QuantumConstraintReport:
    in_k: bool
    deficit: CobracketValue
    mc_certified: bool | None = None


def quantum_constraint_check(h: Hamiltonian) -> QuantumConstraintReport:
    """Membership in the cobracket kernel; flat members embed as exactly
    flat elements of the full complex."""
    deficit = cobracket(h)
    in_k = deficit.is_zero()
    certified = None
    if in_k and bracket(h, h, max_length=None).is_zero():
        p = h.parity()
        if p in (None, candidate_parity(h.space)) and all(
                len(w) >= 2 for w in h.terms):
            big = max((len(w) for w in h.terms), default=2)
            prof = TruncationProfile(L=2 * big, K=2, G=1,
                                     N=1 if h.space.nu_parity else 2, P=3)
            emb = embed_hamiltonian(h, "lgv", prof)
            certified = mc_residual(MCCandidate(emb)).is_zero()
    return QuantumConstraintReport(in_k=in_k, deficit=deficit,
                                   mc_certified=certified)


# ---------------------------------------------------------------------------
# symmetric-power bookkeeping


@dataclass
class KunnethReport:
    agree: bool
    direct: dict                     # (order, parity) -> dim
    predicted: dict
    word_dims: dict                  # (length, parity) -> dim

    def mismatches(self):
        keys = set(self.direct) | set(self.predicted)
        return sorted(k for k in keys
                      if self.direct.get(k, 0) != self.predicted.get(k, 0))


def _predict_dims(space, variant, profile, word_dims) -> dict:
    """Count tensors built from word-cohomology classes: symmetric powers
    of even classes, exterior powers of odd ones, times gamma/nu weights."""
    types = [(length, par, dim) for (length, par), dim in
             sorted(word_dims.items()) if dim > 0 and length is not None]
    nu_cap = 0 if variant != "lgv" else profile.N
    if space.nu_parity == 1:
        nu_cap = min(nu_cap, 1)
    buckets: dict = {}

    def place(idx, count, total_len, par_sum, ways):
        if ways == 0:
            return
        if idx == len(types):
            if count == 0:
                return
            for g in range(profile.G + 1):
                for n in range(nu_cap + 1):
                    if g + n + total_len < 2:
                        continue
                    p = 2 * g + n + count - 1
                    if p > profile.P:
                        continue
                    c = (par_sum + n * space.nu_parity) & 1
                    key = (p, c)
                    buckets[key] = buckets.get(key, 0) + ways
            return
        length, par, dim = types[idx]
        max_pick = profile.K - count
        if par == 1:
            max_pick = min(max_pick, dim)
        for j in range(max_pick + 1):
            w = comb(dim, j) if par == 1 else comb(dim + j - 1, j)
            place(idx + 1, count + j, total_len + j * length,
                  par_sum + j * par, ways * w)

    place(0, 0, 0, 0, 1)
    return buckets


def kunneth_check(h: Hamiltonian, profile: TruncationProfile,
                  variant: str = "lgv", strict: bool = True) -> KunnethReport:
    """Slice cohomology of ad(h) on the full complex, computed directly and
    predicted from word cohomology; disagreement means a sign or truncation
    bug (or a profile whose slices ad(h) does not preserve).

    Each differential, one per (order, parity), is built once per call.
    It is not memoized across calls: it depends on the coefficients of
    h."""
    _require_flat(h)
    space = h.space
    # building the specs checks the profile and the variant before any work
    specs = {(p, c): TensorSliceSpec(profile, variant, parity=c, order=p)
             for p in range(profile.P + 1) for c in (0, 1)}
    word_report = hochschild_cohomology(
        h, WordSliceSpec(max_length=profile.L))
    op = _adjoint_op(space, {(0, 0, (w,)): c for w, c in h.terms.items()},
                     variant)
    direct: dict = {}
    try:
        for p in range(profile.P + 1):
            # ad(h) keeps the order and flips the parity, so the two
            # differentials of order p serve both of its degrees
            slices = {c: enumerate_basis(space, specs[(p, c)])
                      for c in (0, 1)}
            d = {c: matrix_of_operator(op, slices[c], slices[1 - c])
                 for c in (0, 1)}
            for c in (0, 1):
                hom = homology_dims(d[1 - c], d[c])
                if hom.homology_dim or len(slices[c]):
                    direct[(p, c)] = hom.homology_dim
    except SliceRangeError as exc:
        raise UsageError(
            "profile slices are not closed under ad(h); pick a "
            "length-preserving hamiltonian or a zero differential") from exc

    predicted = _predict_dims(space, variant, profile, word_report.dims)
    keys = set(direct) | set(predicted)
    agree = all(direct.get(k, 0) == predicted.get(k, 0) for k in keys)
    report = KunnethReport(agree=agree, direct=direct, predicted=predicted,
                           word_dims=word_report.dims)
    if strict and not agree:
        raise IntegrityError(
            f"slice cohomology disagrees with the symmetric-power "
            f"prediction at {report.mismatches()[:4]}")
    return report
