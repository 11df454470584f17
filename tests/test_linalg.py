import random
import sys
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest

from necklie import (SliceRangeError, TruncationProfile, UsageError, bracket,
                     enumerate_basis, kunneth_check, matrix_of_operator,
                     one_dim_space, solve_and_kernel, two_dim_space)
from necklie.cecomplex import filtration_order, normalize_tensor, tensor_parity
from necklie.linalg import (BasisSlice, IntegrityError, SparseRationalMatrix,
                            TensorSliceSpec, WordSliceSpec, homology_dims)
from necklie.obstruction import (MCState, _adjoint_op, _slices_at,
                                 default_lift_profile, embed_hamiltonian)
from necklie.words import Hamiltonian, canonical_words
from oracles import (brute_force_tensor_slice, dense_rows, dense_solve,
                     markowitz_free_columns, mat_vec, necklace_classes,
                     vec_mat)
from test_cecomplex import _three_generator_space

F = Fraction


def random_sparse(rng, rows, cols, density=Fraction(3, 10)):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return SparseRationalMatrix(rows, cols, entries)


def _order_one_obstruction_matrix():
    """The 100x100 order-1 obstruction matrix of 3/2 w[x,x] on the
    two-generator space (L=5, K=3, G=1, P=2) and its right-hand side."""
    space = two_dim_space()
    h = Hamiltonian(space, {(0, 0): F(3, 2)})
    state = MCState([embed_hamiltonian(
        h, "lg", default_lift_profile(space, "lg", 1))])
    cand, obst = _slices_at(state, 1)
    M = matrix_of_operator(_adjoint_op(space, state.components[0].terms,
                                       "lg"), cand, obst)
    o = state.residual().component_of_order(1)
    return M, obst.vector_of({k: -c for k, c in o.terms.items()})


def test_solver_against_dense_oracle():
    """Seeded random systems up to 14x14 and the order-1 obstruction
    system of a two-generator lift, solved twice: sparse elimination vs
    the naive dense oracle."""
    systems = []
    for seed in range(60):
        rng = random.Random(1000 + seed)
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        M = random_sparse(rng, rows, cols)
        if seed % 2 == 0:
            x = [F(rng.randint(-3, 3)) for _ in range(cols)]
            b = mat_vec(dense_rows(M), x)   # consistent by construction
        else:
            b = [F(rng.randint(-3, 3)) for _ in range(rows)]
        systems.append((seed, M, b))
    # denser systems, where a pivot rule that ignored stale counts would
    # pick other free columns on seeds 2016 and 2162
    for seed in range(2000, 2200):
        rng = random.Random(seed)
        M = random_sparse(rng, rng.randint(1, 14), rng.randint(1, 14),
                          rng.uniform(0.1, 0.6))
        systems.append((seed, M, [F(rng.randint(-3, 3))
                                  for _ in range(M.rows)]))
    M, rhs = _order_one_obstruction_matrix()
    assert (M.rows, M.cols) == (100, 100)
    rng = random.Random(99)
    image = mat_vec(dense_rows(M),
                    [F(rng.randint(-3, 3)) for _ in range(M.cols)])
    off_image = [F(rng.randint(-3, 3)) for _ in range(M.rows)]  # rank is 45
    systems += [("obstruction", M, rhs), ("obstruction image", M, image),
                ("obstruction off image", M, off_image)]
    agreed = 0
    for seed, M, b in systems:
        got = solve_and_kernel(M, b)
        dense = dense_rows(M)
        want = dense_solve(dense, b)
        assert got.rank == want["rank"], seed
        assert len(got.kernel) == want["nullity"], seed
        assert got.solvable == want["consistent"], seed
        for vec in got.kernel:
            assert not any(mat_vec(dense, vec)), seed
        if got.solvable:
            assert mat_vec(dense, got.particular) == b, seed
        else:
            y = got.certificate
            assert y is not None
            assert not any(vec_mat(y, dense)), seed
            assert sum(yi * bi for yi, bi in zip(y, b)) != 0, seed
        # each kernel vector is 1 at its own free column and 0 at the
        # others, and the particular solution is 0 there; the free columns
        # are the pivot rule's, which makes both unique
        free = markowitz_free_columns(dense)
        assert [[vec[f] for f in free] for vec in got.kernel] == [
            [int(i == j) for j in range(len(free))]
            for i in range(len(free))], seed
        if got.solvable:
            assert not any(got.particular[f] for f in free), seed
        assert got.sparse_kernel == [{c: v for c, v in enumerate(vec) if v}
                                     for vec in got.kernel], seed
        # the kernel really spans: its vectors are independent
        if got.kernel:
            kmat = [[got.kernel[j][i] for j in range(len(got.kernel))]
                    for i in range(M.cols)]
            assert dense_solve(kmat)["rank"] == len(got.kernel)
        agreed += 1
    assert agreed == 263


def test_solver_without_rhs_and_validation():
    rng = random.Random(7)
    M = random_sparse(rng, 5, 7)
    res = solve_and_kernel(M)
    assert res.particular is None and res.certificate is None
    assert res.rank + len(res.kernel) == 7
    with pytest.raises(UsageError):
        solve_and_kernel(M, [F(1)] * 4)


def test_sparse_matrix_basics():
    M = SparseRationalMatrix(2, 3, {(0, 0): F(1), (1, 2): F(-2), (0, 1): 0})
    assert (0, 1) not in M.entries          # zeros dropped on entry
    assert dense_rows(M) == [[F(1), F(0), F(0)], [F(0), F(0), F(-2)]]
    eye = SparseRationalMatrix(3, 3, {(i, i): F(1) for i in range(3)})
    assert M.compose(eye).entries == M.entries
    assert SparseRationalMatrix(2, 2).is_zero()
    with pytest.raises(UsageError):
        SparseRationalMatrix(2, 2, {(2, 0): F(1)})
    with pytest.raises(UsageError):
        M.compose(M)


def test_compose_against_oracle():
    """Sparse products equal dense ones and store no zero, including
    entries of +-1 products that cancel and products with a kernel basis,
    which vanish exactly."""
    rng = random.Random(21)

    def signs(rows, cols):
        return SparseRationalMatrix(rows, cols, {
            (r, c): F(rng.choice((-1, 1))) for r in range(rows)
            for c in range(cols) if rng.random() < 0.6})

    cases = []
    for _ in range(15):
        A = random_sparse(rng, rng.randint(1, 6), rng.randint(1, 6))
        cases.append((A, random_sparse(rng, A.cols, rng.randint(1, 6))))
    for _ in range(15):
        A = signs(rng.randint(1, 6), rng.randint(2, 6))
        cases.append((A, signs(A.cols, rng.randint(1, 6))))
        kernel = dense_solve(dense_rows(A))["kernel"]
        if kernel:
            K = SparseRationalMatrix(A.cols, len(kernel), {
                (r, j): v for j, vec in enumerate(kernel)
                for r, v in enumerate(vec)})
            assert A.compose(K).is_zero()
    cancelled = 0
    for A, B in cases:
        product = A.compose(B)
        got = dense_rows(product)
        want = [mat_vec(dense_rows(A), col)
                for col in zip(*dense_rows(B))] if B.cols else []
        want = [list(row) for row in zip(*want)] if want else \
            [[F(0)] * 0 for _ in range(A.rows)]
        assert got == want
        assert all(product.entries.values())
        cancelled += sum(1 for r in range(A.rows) for c in range(B.cols)
                         if not want[r][c] and any(
                             (r, k) in A.entries and (k, c) in B.entries
                             for k in range(A.cols)))
    assert cancelled > 0


def test_word_slice_enumeration(sp2):
    sl = enumerate_basis(sp2, WordSliceSpec(max_length=4, min_length=2,
                                            parity=0))
    assert sl.kind == "word" and len(sl) > 0
    for w in sl.elements:
        assert 2 <= len(w) <= 4
        assert sp2.word_parity(w) == 0
    assert list(sl.elements) == list(canonical_words(sp2, 4, 2, 0))
    # round trip through coordinates
    terms = {sl.elements[0]: F(2), sl.elements[-1]: F(-1, 3)}
    vec = sl.vector_of(terms)
    assert sl.combination(vec) == terms
    with pytest.raises(SliceRangeError):
        sl.vector_of({(0,): F(1)})          # length 1, below the cut


def test_tensor_slice_respects_all_cuts(sp1):
    prof = TruncationProfile(L=5, K=2, G=1, N=1, P=3)
    sl = enumerate_basis(sp1, TensorSliceSpec(prof, variant="lgv",
                                              parity=1, order=2))
    assert len(sl) > 0
    seen = set()
    for key in sl.elements:
        g, n, ws = key
        assert g <= prof.G and n <= prof.N and len(ws) <= prof.K
        assert all(len(w) <= prof.L for w in ws)
        assert filtration_order(key) == 2
        assert tensor_parity(sp1, key) == 1
        assert g + n + sum(len(w) for w in ws) >= 2
        assert normalize_tensor(sp1, g, n, ws) == (key, 1)
        seen.add(key)
    assert len(seen) == len(sl)
    # ambient slice (variant None) admits order-1 tensors the variant cut bans
    ambient = enumerate_basis(sp1, TensorSliceSpec(prof))
    assert (0, 0, ((0,),)) in ambient.elements
    assert (0, 0, ((0,),)) not in enumerate_basis(
        sp1, TensorSliceSpec(prof, variant="lgv")).elements
    with pytest.raises(UsageError):
        enumerate_basis(sp1, object())


def test_matrix_of_operator_and_truncation(sp2):
    h = Hamiltonian(sp2, {(0, 0, 0): F(1)})    # cubic, raises length by one
    dom = enumerate_basis(sp2, WordSliceSpec(max_length=2, min_length=2))
    cod_small = enumerate_basis(sp2, WordSliceSpec(max_length=2, min_length=1))
    cod_big = enumerate_basis(sp2, WordSliceSpec(max_length=3, min_length=1))

    def op(word):
        return bracket(h, Hamiltonian(sp2, {word: F(1)})).terms

    assert any(op(w) for w in dom.elements)
    with pytest.raises(SliceRangeError, match="outside the codomain"):
        matrix_of_operator(op, dom, cod_small)   # every image word has length 3
    full = matrix_of_operator(op, dom, cod_big)
    dense = dense_rows(full)
    for j, w in enumerate(dom.elements):
        column = [dense[i][j] for i in range(len(cod_big))]
        assert cod_big.combination(column) == op(w)


def test_homology_of_hand_built_complexes():
    d_in = SparseRationalMatrix(2, 1, {(0, 0): F(1), (1, 0): F(1)})
    d_out = SparseRationalMatrix(1, 2, {(0, 0): F(1), (0, 1): F(-1)})
    res = homology_dims(d_in, d_out)
    assert (res.kernel_dim, res.image_dim, res.homology_dim) == (1, 1, 0)
    assert res.representatives == []

    zero_out = SparseRationalMatrix(1, 2)
    res2 = homology_dims(d_in, zero_out)
    assert res2.homology_dim == 1
    rep = res2.representatives[0]
    assert rep[0] != rep[1]                 # independent of the image (1,1)

    with pytest.raises(IntegrityError):
        homology_dims(SparseRationalMatrix(2, 1, {(0, 0): F(1)}),
                      SparseRationalMatrix(1, 2, {(0, 0): F(1)}))
    with pytest.raises(UsageError):
        homology_dims(SparseRationalMatrix(3, 1), zero_out)


def test_basis_slice_is_deterministic(sp2):
    spec = TensorSliceSpec(TruncationProfile(L=3, K=2, G=1, N=1, P=3))
    a = enumerate_basis(sp2, spec)
    b = enumerate_basis(sp2, spec)
    assert a.elements == b.elements
    assert isinstance(a, BasisSlice)


@pytest.mark.parametrize("space_name, profile", [
    # P binds below 2G + N + K - 1; N = 2 meets the odd nu of the 1d space
    ("sp1", TruncationProfile(L=5, K=3, G=1, N=2, P=2)),
    ("sp1", TruncationProfile(L=4, K=3, G=2, N=2)),
    ("sp2", TruncationProfile(L=3, K=3, G=1, N=2, P=3)),
    ("sp2", TruncationProfile(L=4, K=2, G=1, N=1)),
])
def test_tensor_slices_match_brute_force(request, space_name, profile):
    """Direct generation returns the brute-force slice exactly, order
    included, across variants, parity cuts and order cuts."""
    space = request.getfixturevalue(space_name)
    checked = 0
    for variant in (None, "lgv", "lg", "hq2"):
        for parity in (None, 0, 1):
            for order in (None, *range(profile.P + 2)):
                got = enumerate_basis(space, TensorSliceSpec(
                    profile, variant, parity, order)).elements
                want = brute_force_tensor_slice(space, profile, variant,
                                                parity, order)
                assert got == want, (variant, parity, order)
                checked += bool(want)
    assert checked > 0


@pytest.mark.parametrize("make, profile", [
    (one_dim_space, TruncationProfile(L=5, K=3, G=1, N=2, P=2)),
    (two_dim_space, TruncationProfile(L=3, K=3, G=1, N=2, P=3)),
    (_three_generator_space, TruncationProfile(L=3, K=2, G=1, N=2)),
])
def test_slices_cold_and_warm_match_the_oracles(make, profile):
    """Word and tensor slices against references, first on a fresh space
    (misses), then again (hits); the second pass stores nothing new and
    returns the stored slices."""
    space, ref = make(), make()        # the tensor oracle fills ref's memo
    cases = []
    for variant in (None, "lgv", "lg", "hq2"):
        for parity in (None, 0, 1):
            for order in (None, *range(profile.P + 2)):
                cases.append((TensorSliceSpec(profile, variant, parity, order),
                              brute_force_tensor_slice(ref, profile, variant,
                                                       parity, order)))
    for lo in (1, 2):
        for hi in range(profile.L + 1):
            for parity in (None, 0, 1):
                words = sorted((w for n in range(lo, hi + 1)
                                for w in necklace_classes(space.parities,
                                                          space.size, n)),
                               key=lambda w: (len(w), w))
                cases.append((WordSliceSpec(hi, lo, parity), tuple(
                    w for w in words if parity is None
                    or sum(space.parities[x] for x in w) % 2 == parity)))
    assert sum(bool(want) for _, want in cases) > len(cases) // 3
    assert not space.memo
    stored = None
    for _ in range(2):
        got = [enumerate_basis(space, spec) for spec, _ in cases]
        for sl, (spec, want) in zip(got, cases):
            assert sl.elements == want, spec
            assert dict(sl.index) == {e: i for i, e in enumerate(want)}
        if stored is None:
            stored = dict(space.memo)
        else:
            assert space.memo == stored
            assert all(a is stored[("basis", spec)]
                       for a, (spec, _) in zip(got, cases))


def test_a_miss_calls_no_public_word_function(monkeypatch):
    """A traced caller must make the same traced calls whether a slice is
    stored or not, so a miss reaches the word layer through its private
    bodies only."""
    def refuse(*args, **kwargs):
        raise AssertionError("a public word function ran on a miss")
    for name, module in list(sys.modules.items()):
        if name.startswith("necklie"):
            for fn in ("canonical_words", "normalize_word"):
                if hasattr(module, fn):
                    monkeypatch.setattr(module, fn, refuse)
    space = _three_generator_space()
    assert len(enumerate_basis(space, WordSliceSpec(3, 2, 1))) > 0
    assert len(enumerate_basis(space, TensorSliceSpec(
        TruncationProfile(L=3, K=2, G=1, N=1), "lgv", 0, 2))) > 0


def _invalid_specs(profile):
    return {
        "float bound": lambda: TensorSliceSpec(TruncationProfile(
            L=3.0, K=2, G=1, N=1)),
        "float P": lambda: TensorSliceSpec(TruncationProfile(
            L=3, K=2, G=1, N=1, P=4.0)),
        "parity 2": lambda: TensorSliceSpec(profile, "lgv", parity=2),
        "float parity": lambda: TensorSliceSpec(profile, "lgv", parity=1.0),
        "negative order": lambda: TensorSliceSpec(profile, "lgv", order=-1),
        "float order": lambda: TensorSliceSpec(profile, "lgv", order=1.0),
        "unknown variant": lambda: TensorSliceSpec(profile, "bogus"),
        "not a profile": lambda: TensorSliceSpec((3, 2, 1, 1)),
        "float length": lambda: WordSliceSpec(3.0),
        "float min length": lambda: WordSliceSpec(3, min_length=1.0),
        "word parity 2": lambda: WordSliceSpec(3, parity=2),
        "word parity -1": lambda: WordSliceSpec(3, parity=-1),
        "not a spec": lambda: object(),
    }


@pytest.mark.parametrize("make, h_word", [(one_dim_space, (0, 0, 0)),
                                          (two_dim_space, (0, 0))])
def test_invalid_specs_raise_on_fresh_and_warm_spaces(make, h_word):
    """Each invalid spec raises UsageError before any slice is made, also
    once its valid neighbours (3 for 3.0, parity 1, variant lgv, order 1)
    are stored."""
    space = make()
    profile = TruncationProfile(L=3, K=2, G=1, N=1)
    h = Hamiltonian(space, {h_word: F(1)})
    for warm in (False, True):
        before = dict(space.memo)
        for name, make_spec in _invalid_specs(profile).items():
            with pytest.raises(UsageError):
                enumerate_basis(space, make_spec())
                pytest.fail(name)
        with pytest.raises(UsageError, match="unknown variant"):
            kunneth_check(h, profile, "bogus", strict=False)
        assert not any(key[0] == "basis" and key not in before
                       for key in space.memo)
        if not warm:
            for variant in (None, "lgv"):
                for order in (None, 1):
                    for parity in (None, 0, 1):
                        enumerate_basis(space, TensorSliceSpec(
                            profile, variant, parity, order))
            for parity in (None, 1):
                enumerate_basis(space, WordSliceSpec(3, parity=parity))
            kunneth_check(h, profile, "lgv", strict=False)


def test_shared_slices_are_read_only():
    space = two_dim_space()
    spec = WordSliceSpec(max_length=3)
    sl = enumerate_basis(space, spec)
    assert enumerate_basis(space, spec) is sl
    first = sl.elements[0]
    with pytest.raises(TypeError):
        sl.index[first] = 5
    with pytest.raises(TypeError):
        del sl.index[first]
    with pytest.raises(FrozenInstanceError):
        sl.elements = ()
    assert isinstance(BasisSlice(space, "word", [first]).elements, tuple)
    vec = sl.vector_of({first: F(2)})
    vec[0] = F(7)
    assert sl.vector_of({first: F(2)})[0] == F(2)
    terms = sl.combination(vec)
    terms.clear()
    assert sl.combination(vec) == {first: F(7)}
    assert enumerate_basis(space, spec).index == {
        w: i for i, w in enumerate(canonical_words(space, 3))}
