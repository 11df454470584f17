import random
from fractions import Fraction

import pytest

from necklie import (SliceRangeError, TruncationProfile, UsageError, bracket,
                     enumerate_basis, matrix_of_operator, solve_and_kernel)
from necklie.cecomplex import filtration_order, normalize_tensor, tensor_parity
from necklie.linalg import (BasisSlice, IntegrityError, SparseRationalMatrix,
                            TensorSliceSpec, WordSliceSpec, homology_dims)
from necklie.words import Hamiltonian, canonical_words
from oracles import brute_force_tensor_slice, dense_solve, mat_vec, vec_mat

F = Fraction


def random_sparse(rng, rows, cols, density=Fraction(3, 10)):
    entries = {}
    for r in range(rows):
        for c in range(cols):
            if rng.random() < density:
                entries[(r, c)] = F(rng.randint(-4, 4), rng.randint(1, 3))
    return SparseRationalMatrix(rows, cols, entries)


def dense_rows(M):
    return M.to_dense()


def test_solver_against_dense_oracle():
    """Seeded random systems up to 12x12, solved twice: fraction-free
    sparse elimination vs the naive dense oracle."""
    agreed = 0
    for seed in range(60):
        rng = random.Random(1000 + seed)
        rows = rng.randint(1, 12)
        cols = rng.randint(1, 12)
        M = random_sparse(rng, rows, cols)
        if seed % 2 == 0:
            x = [F(rng.randint(-3, 3)) for _ in range(cols)]
            b = M.apply(x)                  # consistent by construction
        else:
            b = [F(rng.randint(-3, 3)) for _ in range(rows)]
        got = solve_and_kernel(M, b)
        want = dense_solve(dense_rows(M), b)
        assert got.rank == want["rank"]
        assert len(got.kernel) == want["nullity"]
        assert got.solvable == want["consistent"]
        for vec in got.kernel:
            assert not any(M.apply(vec)), seed
        if got.solvable:
            assert M.apply(got.particular) == b, seed
        else:
            y = got.certificate
            assert y is not None
            assert not any(vec_mat(y, dense_rows(M))), seed
            assert sum(yi * bi for yi, bi in zip(y, b)) != 0, seed
        # the kernel really spans: its vectors are independent
        if got.kernel:
            kmat = [[got.kernel[j][i] for j in range(len(got.kernel))]
                    for i in range(cols)]
            assert dense_solve(kmat)["rank"] == len(got.kernel)
        agreed += 1
    assert agreed == 60


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
    assert M.to_dense() == [[F(1), F(0), F(0)], [F(0), F(0), F(-2)]]
    assert M.apply([F(1), F(5), F(2)]) == [F(1), F(-4)]
    eye = SparseRationalMatrix.identity(3)
    assert M.compose(eye).entries == M.entries
    assert SparseRationalMatrix(2, 2).is_zero()
    with pytest.raises(UsageError):
        SparseRationalMatrix(2, 2, {(2, 0): F(1)})
    with pytest.raises(UsageError):
        M.apply([F(1)])
    with pytest.raises(UsageError):
        M.compose(M)


def test_compose_against_oracle():
    rng = random.Random(21)
    for _ in range(15):
        A = random_sparse(rng, rng.randint(1, 6), rng.randint(1, 6))
        B = random_sparse(rng, A.cols, rng.randint(1, 6))
        got = A.compose(B).to_dense()
        want = [mat_vec(dense_rows(A), col)
                for col in zip(*dense_rows(B))] if B.cols else []
        want = [list(row) for row in zip(*want)] if want else \
            [[F(0)] * 0 for _ in range(A.rows)]
        assert got == want


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
    assert sl.vector_of({(0,): F(1)}, truncate=True) == [F(0)] * len(sl)


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
    with pytest.raises(SliceRangeError, match="truncate=True"):
        matrix_of_operator(op, dom, cod_small)
    full = matrix_of_operator(op, dom, cod_big)
    cut = matrix_of_operator(op, dom, cod_small, truncate=True)
    dense = full.to_dense()
    for j, w in enumerate(dom.elements):
        column = [dense[i][j] for i in range(len(cod_big))]
        assert cod_big.combination(column) == op(w)
    assert cut.is_zero()                    # every image word has length 3
    assert cut.rows == len(cod_small) and cut.cols == len(dom)


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
