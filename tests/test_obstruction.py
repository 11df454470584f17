from fractions import Fraction

import pytest

import necklie.obstruction as obstruction
from necklie import (Hamiltonian, LambdaElement, PreconditionError,
                     TruncationProfile, UsageError, canonical_words,
                     hochschild_cohomology, kunneth_check, lift,
                     one_dim_space, quantum_constraint_check)
from necklie.cecomplex import raw_bracket
from necklie.linalg import (TensorSliceSpec, WordSliceSpec, enumerate_basis,
                            matrix_of_operator, solve_and_kernel)
from necklie.mc import MCCandidate, candidate_parity, mc_residual
from necklie.obstruction import (MCState, _adjoint_op, _slices_at,
                                 default_lift_profile, embed_hamiltonian,
                                 extend_step, extension_space,
                                 hochschild_differential, obstruction_class,
                                 obstruction_parity)
from oracles import dense_rows, dense_solve

F = Fraction


@pytest.fixture(scope="module")
def t3(sp1):
    return Hamiltonian(sp1, {(0, 0, 0): F(1)})


@pytest.fixture(scope="module")
def xx(sp2):
    return Hamiltonian(sp2, {(0, 0): F(1)})


def test_embed_and_state_validation(sp1, t3):
    prof = default_lift_profile(sp1, "lgv", 1)
    base = embed_hamiltonian(t3, "lgv", prof)
    assert base.terms == {(0, 0, ((0, 0, 0),)): F(1)}
    with pytest.raises(UsageError):
        embed_hamiltonian(Hamiltonian(sp1, {(0,): F(1)}), "lgv", prof)

    state = MCState([base])
    assert state.level == 0
    assert state.base_hamiltonian().terms == t3.terms
    assert state.value() == base
    with pytest.raises(UsageError):
        MCState([])
    with pytest.raises(UsageError):
        MCState(["nope"])
    # second component must be homogeneous of filtration order 1
    with pytest.raises(UsageError, match="filtration order 1"):
        MCState([base, LambdaElement(sp1, "lgv", prof,
                                     {(1, 0, ((0, 0, 0),)): F(1)})])
    # pair tensors carry filtration order >= 1, so they cannot open a state
    with pytest.raises(UsageError, match="filtration order 0"):
        MCState([LambdaElement(sp1, "lgv", prof,
                               {(0, 0, ((0,), (0, 0, 0))): F(1)})])
    # a zero extension cannot claim flatness past the 3*nu*t residual
    with pytest.raises(UsageError, match="order-1 term"):
        MCState([base, LambdaElement(sp1, "lgv", prof, {})])


def test_adjoint_differential_needs_flat_base(sp2):
    crooked = Hamiltonian(sp2, {(0, 0, 1, 1): F(1)})
    with pytest.raises(PreconditionError):
        hochschild_differential(crooked, Hamiltonian(sp2, {(0, 1): F(1)}))
    with pytest.raises(PreconditionError) as err:
        MCState([embed_hamiltonian(crooked, "lgv",
                                   default_lift_profile(sp2, "lgv", 1))])
    assert not err.value.evidence.is_zero()


def test_adjoint_of_cubic_vanishes_on_all_words(sp1, t3):
    for length in range(1, 8):
        for w in canonical_words(sp1, length, length):
            image = hochschild_differential(
                t3, Hamiltonian(sp1, {w: F(1)}), max_length=length + 1)
            assert image.is_zero(), w


def test_word_cohomology_one_dim(sp1, t3):
    rep = hochschild_cohomology(t3, WordSliceSpec(max_length=7))
    assert rep.shift == 1 and rep.odd_vanishes
    assert {k: v for k, v in rep.dims.items() if v} == {
        (1, 1): 1, (3, 1): 1, (5, 1): 1, (7, 1): 1}
    assert set(rep.dims) == {(n, p) for n in range(1, 8) for p in (0, 1)}
    flats = rep.flat_representatives()
    assert [h.terms for h in flats] == [
        {(0,) * n: F(1)} for n in (1, 3, 5, 7)]


def test_word_cohomology_two_dim_acyclic(sp2, xx):
    rep = hochschild_cohomology(xx, WordSliceSpec(max_length=4))
    assert rep.shift == 0 and rep.odd_vanishes
    assert all(d == 0 for d in rep.dims.values())


def test_word_cohomology_rejects_mixed_lengths(sp1):
    mixed = Hamiltonian(sp1, {(0, 0, 0): F(1), (0,) * 5: F(1)})
    with pytest.raises(UsageError, match="mixes word lengths"):
        hochschild_cohomology(mixed, WordSliceSpec(max_length=3))


def test_obstruction_dichotomy(sp1, t3):
    blocked = lift(t3, 1, "lgv")
    assert not blocked.succeeded
    assert blocked.failure_level == 1
    rep = blocked.report
    assert rep.is_cocycle and not rep.class_vanishes
    assert rep.cocycle.terms == {(0, 1, ((0,),)): F(3)}
    assert rep.slice_size == 0             # no candidate directions at all
    assert rep.witness is None
    assert "does not vanish" in rep.summary()

    lifted = lift(t3, 3, "lg")
    assert lifted.succeeded and lifted.state.level == 3
    assert lifted.state.residual().is_zero()
    assert lifted.report is None and lifted.failure_level is None


def test_state_residual_is_the_residual_of_its_value(sp1, t3):
    """The residual kept from validation is the residual of the whole
    value, for a lifted state and for a non-flat base state."""
    h = t3 + Hamiltonian(sp1, {(0, 0, 0, 0, 0): F(2, 3)})
    lifted = lift(h, 2, "lg").state
    blocked = lift(t3, 0, "lgv").state
    assert lifted.level == 2 and blocked.level == 0
    for state in (lifted, blocked):
        assert state.residual() == mc_residual(MCCandidate(state.value()))
    assert blocked.residual().terms == {(0, 1, ((0,),)): F(3)}


def test_no_solution_certificate_checks_out(sp1, t3):
    rep = lift(t3, 1, "lgv").report
    prof = default_lift_profile(sp1, "lgv", 1)
    cand = enumerate_basis(sp1, TensorSliceSpec(
        prof, "lgv", parity=candidate_parity(sp1), order=1))
    obst = enumerate_basis(sp1, TensorSliceSpec(
        prof, "lgv", parity=obstruction_parity(sp1), order=1))
    assert len(cand) == 0                  # y.M = 0 holds vacuously
    rhs = obst.vector_of({k: -c for k, c in rep.cocycle.terms.items()})
    y = rep.certificate
    assert y is not None and len(y) == len(obst)
    assert sum(a * b for a, b in zip(y, rhs)) != 0


def test_extension_space_is_affine(sp1, t3):
    state = lift(t3, 1, "lg").state
    space = extension_space(state)
    assert space.level == 2
    dim = len(space.parameter_basis)
    assert dim > 0
    assert space.extension() == space.particular
    alpha = [F(0)] * dim
    alpha[0] = F(2)
    ext = space.extension(alpha)
    assert ext == space.particular + space.parameter_basis[0].scale(2)
    with pytest.raises(UsageError, match="length"):
        space.extension([F(1)])
    # every affine point extends the state to a valid next level
    for point in (space.extension(), ext):
        nxt = state.extended(point)
        assert nxt.level == 2
        low = nxt.residual().min_filtration_order()
        assert low is None or low > 2

    blocked = MCState([embed_hamiltonian(
        t3, "lgv", default_lift_profile(sp1, "lgv", 1))])
    with pytest.raises(PreconditionError):
        extension_space(blocked)


def test_extend_step_with_cohomology_choice(sp1, t3):
    state = lift(t3, 1, "lg").state       # level-2 space has free directions
    plain = extend_step(state)
    assert isinstance(plain, MCState)
    dim = len(extension_space(state).parameter_basis)
    alpha = [F(0)] * dim
    alpha[0] = F(1)
    steered = extend_step(state, alpha)
    assert isinstance(steered, MCState)
    assert steered.components[2] != plain.components[2]


def test_extend_step_reuses_the_obstruction_matrix(sp1, t3, monkeypatch):
    """A steered step builds d_out once, for the obstruction solve, and
    d_in once, for the extension space."""
    state = lift(t3, 1, "lg").state
    report = obstruction_class(state)
    reused = extension_space(state, _report=report).parameter_basis
    assert reused == extension_space(state).parameter_basis
    assert reused
    built = []

    def counting(op, dom, cod):
        built.append((len(dom), len(cod)))
        return matrix_of_operator(op, dom, cod)
    monkeypatch.setattr(obstruction, "matrix_of_operator", counting)
    alpha = [F(0)] * len(reused)
    alpha[-1] = F(1)
    assert isinstance(extend_step(state, alpha), MCState)
    assert len(built) == 2


def test_each_differential_is_built_once_per_call(t3, xx, monkeypatch):
    """The differential out of each degree is built once per call and is
    also d_in of the degree it maps to; the answers are unchanged."""
    built = []

    def counting(op, dom, cod):
        built.append((len(dom), len(cod)))
        return matrix_of_operator(op, dom, cod)
    monkeypatch.setattr(obstruction, "matrix_of_operator", counting)

    # shift 0: one differential out of each (length, parity), length 1-4
    rep = hochschild_cohomology(xx, WordSliceSpec(max_length=4))
    assert len(built) == 2 * 4
    assert rep.dims == {(n, p): 0 for n in range(1, 5) for p in (0, 1)}
    assert rep.flat_representatives() == []

    # shift 1: lengths 0-7, the two of length 0 with an empty domain
    built.clear()
    rep = hochschild_cohomology(t3, WordSliceSpec(max_length=7))
    assert len(built) == 2 * 8
    assert {k: v for k, v in rep.dims.items() if v} == {
        (1, 1): 1, (3, 1): 1, (5, 1): 1, (7, 1): 1}
    assert [h.terms for h in rep.flat_representatives()] == [
        {(0,) * n: F(1)} for n in (1, 3, 5, 7)]

    # the word table of lengths 0-5, then two differentials per order 0-4
    built.clear()
    rep = kunneth_check(t3, TruncationProfile(L=5, K=2, G=1, N=1))
    assert len(built) == 2 * 6 + 2 * 5
    assert rep.agree
    assert rep.direct == {(0, 1): 2, (1, 0): 6, (2, 1): 6, (3, 0): 6,
                          (4, 1): 3}
    built.clear()
    rep = kunneth_check(xx, TruncationProfile(L=3, K=2, G=1, N=1))
    assert len(built) == 2 * 3 + 2 * 5
    assert rep.direct == {(p, c): 0 for p in range(5) for c in (0, 1)}


def test_two_generator_lift_to_order_two(sp2):
    """The default order-2 profile has 11 752 tensors in each level-2
    slice."""
    out = lift(Hamiltonian(sp2, {(0, 0): F(3, 2)}), 2, "lg")
    assert out.succeeded and out.state.level == 2
    residual = out.state.residual()
    assert all(residual.component_of_order(k).is_zero() for k in range(3))


def test_two_generator_extension_space_at_level_two(sp2):
    state = lift(Hamiltonian(sp2, {(0, 0): F(3, 2)}), 1, "lg").state
    space = extension_space(state)
    assert space.level == 2 and space.parameter_basis == []
    cand, obst = _slices_at(state, 2)
    d_out = matrix_of_operator(
        _adjoint_op(sp2, state.components[0].terms, "lg"), cand, obst)
    assert (d_out.rows, d_out.cols) == (680, 680)
    assert (solve_and_kernel(d_out).rank
            == dense_solve(dense_rows(d_out))["rank"])


def test_lift_input_validation(sp1, sp2, t3):
    with pytest.raises(UsageError):
        lift(t3, -1, "lg")
    with pytest.raises(PreconditionError):
        lift(Hamiltonian(sp2, {(0, 0, 1, 1): F(1)}), 1, "lgv")
    # at order 0 the default profile (L=3) drops the length-4 word, so the
    # base is empty and only h itself shows it is not flat
    with pytest.raises(PreconditionError):
        lift(Hamiltonian(sp2, {(0, 0, 1, 1): F(1)}), 0, "lgv")
    trivial = lift(t3, 0, "lg")
    assert trivial.succeeded and trivial.state.level == 0


def test_quantum_constraint_both_outcomes(sp1, sp2, t3, xx):
    out = quantum_constraint_check(t3)
    assert not out.in_k
    assert out.deficit.pairs == {(None, (0,)): F(3, 2),
                                 ((0,), None): F(-3, 2)}
    assert out.mc_certified is None

    good = quantum_constraint_check(xx)
    assert good.in_k and good.deficit.is_zero()
    assert good.mc_certified is True

    # in the kernel and flat, but of gauge parity: no MC certificate applies
    lone = quantum_constraint_check(Hamiltonian(sp2, {(1,): F(1)}))
    assert lone.in_k and lone.mc_certified is None


def test_kunneth_goldens(sp1, sp2, t3, xx):
    rep = kunneth_check(t3, TruncationProfile(L=5, K=2, G=1, N=1, P=2))
    assert rep.agree and rep.mismatches() == []
    assert rep.direct == {(0, 1): 2, (1, 0): 6, (2, 1): 6}

    rep2 = kunneth_check(xx, TruncationProfile(L=3, K=2, G=1, N=1, P=2))
    assert rep2.agree
    assert set(rep2.direct) == {(p, c) for p in (0, 1, 2) for c in (0, 1)}
    assert all(d == 0 for d in rep2.direct.values())


def test_kunneth_refuses_leaky_slices(sp2):
    growing = Hamiltonian(sp2, {(0, 0, 0): F(1)})     # ad raises length
    with pytest.raises(UsageError, match="not closed"):
        kunneth_check(growing, TruncationProfile(L=3, K=2, G=1, N=1, P=2))


def test_kunneth_strict_flag(sp1, t3):
    rep = kunneth_check(t3, TruncationProfile(L=5, K=2, G=1, N=1, P=2),
                        strict=False)
    assert rep.agree                       # non-strict path returns the report


def test_obstruction_cocycle_is_adjoint_closed(sp1, t3):
    state = MCState([embed_hamiltonian(
        t3, "lgv", default_lift_profile(sp1, "lgv", 1))])
    rep = obstruction_class(state)
    o = rep.cocycle
    glue = raw_bracket(sp1, {(0, 0, ((0, 0, 0),)): F(1)}, o.terms)
    assert not any(glue.values())


def test_memo_keys_carry_no_coefficients():
    """A second lift with the same words and new coefficients is all hits."""
    space = one_dim_space()
    lift(Hamiltonian(space, {(0, 0, 0): F(1), (0,) * 5: F(2, 3)}), 2, "lg")
    filled = len(space.memo)
    assert filled
    lift(Hamiltonian(space, {(0, 0, 0): F(-5, 7), (0,) * 5: F(11, 3)}), 2,
         "lg")
    assert len(space.memo) == filled
