"""Exact sparse rational linear algebra over enumerated truncation bases.

Tensor slices are generated directly in canonical form.  The word list
``canonical_words`` is sorted by (length, word), which is exactly the key
``normalize_tensor`` Koszul-sorts factors by, so every multiset drawn from
it in order is already canonical with sign +1.  Such a draw is zero only
when two equal odd words sit next to each other or when nu is odd and its
exponent is at least 2; nothing else is normalized.  The filtration order
2g + n + k - 1 is known before any word is drawn, so an order cut picks
the factor count instead of filtering the whole profile.

Elimination is fraction-free in the Bareiss style: each step applies the
two-term update (a_ij * p - a_ik * a_kj) / p_prev whose division is exact,
with the pivot chosen by a minimal-fill (Markowitz) heuristic over the
sparse entries.  Correctness, not speed, is the contract; a naive dense
oracle lives in the test tree for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations_with_replacement

from .cecomplex import TruncationProfile, tensor_parity, variant_complaint
from .errors import IntegrityError, SliceRangeError, UsageError
from .space import SymplecticSpace
from .words import canonical_words


# ---------------------------------------------------------------------------
# basis slices


@dataclass(frozen=True)
class WordSliceSpec:
    """Canonical words with lengths in range and an optional parity cut."""
    max_length: int
    min_length: int = 1
    parity: int | None = None


@dataclass(frozen=True)
class TensorSliceSpec:
    """Tensors within a profile; variant None means the ambient slice
    (any tensor with at least one factor, no order >= 2 cut)."""
    profile: TruncationProfile
    variant: str | None = None
    parity: int | None = None
    order: int | None = None


@dataclass(frozen=True)
class BasisSlice:
    space: SymplecticSpace
    kind: str                      # "word" or "tensor"
    elements: tuple
    index: dict = field(compare=False, repr=False, default=None)

    def __post_init__(self):
        object.__setattr__(self, "index",
                           {e: i for i, e in enumerate(self.elements)})

    def __len__(self) -> int:
        return len(self.elements)

    def vector_of(self, terms: dict):
        """Coordinates of a terms dict; out-of-slice keys are an error."""
        vec = [Fraction(0)] * len(self.elements)
        for key, coeff in terms.items():
            pos = self.index.get(key)
            if pos is None:
                raise SliceRangeError(
                    f"component {key!r} falls outside the declared slice")
            vec[pos] = Fraction(coeff)
        return vec

    def combination(self, vector) -> dict:
        return {e: Fraction(c) for e, c in zip(self.elements, vector) if c}


def _factor_counts(prof: TruncationProfile, g: int, n: int, order):
    """Factor counts k with 2g + n + k - 1 within P (and equal to order)."""
    top = min(prof.K, prof.P + 1 - 2 * g - n)
    if order is None:
        return range(1, top + 1)
    k = order + 1 - 2 * g - n
    return (k,) if 1 <= k <= top else ()


def enumerate_basis(space: SymplecticSpace, constraints) -> BasisSlice:
    """Complete deterministic enumeration of a constrained slice.

    Word slices are ``canonical_words``.  Tensor slices run over the gamma
    exponent g, then the nu exponent n, then the factor count k, then the
    multisets of k words in ``combinations_with_replacement`` order.  The
    words come from ``canonical_words(space, L)``, whose (length, word)
    order is ``normalize_tensor``'s sort key, so each drawn multiset is a
    canonical key with sign +1 and needs no normalizing.  The only zero
    draws are two equal odd words next to each other and n >= 2 when nu
    is odd; both are skipped.  The variant and parity cuts follow.
    """
    if isinstance(constraints, WordSliceSpec):
        words = canonical_words(space, constraints.max_length,
                                constraints.min_length, constraints.parity)
        return BasisSlice(space, "word", tuple(words))
    if isinstance(constraints, TensorSliceSpec):
        prof = constraints.profile
        variant, parity = constraints.variant, constraints.parity
        words = canonical_words(space, prof.L)
        odd = [space.word_parity(w) == 1 for w in words]
        n_top = min(prof.N, 1) if space.nu_parity == 1 else prof.N
        out = []
        for g in range(prof.G + 1):
            for n in range(n_top + 1):
                for k in _factor_counts(prof, g, n, constraints.order):
                    for combo in combinations_with_replacement(
                            range(len(words)), k):
                        if any(a == b and odd[a]
                               for a, b in zip(combo, combo[1:])):
                            continue
                        key = (g, n, tuple(words[i] for i in combo))
                        if (variant is not None
                                and variant_complaint(variant, key)):
                            continue
                        if (parity is not None
                                and tensor_parity(space, key) != parity):
                            continue
                        out.append(key)
        return BasisSlice(space, "tensor", tuple(out))
    raise UsageError(f"unsupported constraint object: {constraints!r}")


# ---------------------------------------------------------------------------
# sparse matrices


class SparseRationalMatrix:
    """Immutable-by-convention sparse matrix with exact rational entries."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows: int, cols: int, entries: dict | None = None):
        self.rows = rows
        self.cols = cols
        self.entries = {}
        for (r, c), v in (entries or {}).items():
            v = Fraction(v)
            if v == 0:
                continue
            if not (0 <= r < rows and 0 <= c < cols):
                raise UsageError(f"entry ({r},{c}) outside a {rows}x{cols} matrix")
            self.entries[(r, c)] = v

    def compose(self, other: "SparseRationalMatrix") -> "SparseRationalMatrix":
        """self @ other."""
        if self.cols != other.rows:
            raise UsageError("dimension mismatch in composition")
        by_row: dict = {}
        for (r, k), v in self.entries.items():
            by_row.setdefault(r, []).append((k, v))
        by_col: dict = {}
        for (k, c), v in other.entries.items():
            by_col.setdefault(c, []).append((k, v))
        out: dict = {}
        for c, col_items in by_col.items():
            col = dict(col_items)
            for r, row_items in by_row.items():
                s = Fraction(0)
                for k, v in row_items:
                    w = col.get(k)
                    if w is not None:
                        s += v * w
                if s:
                    out[(r, c)] = s
        return SparseRationalMatrix(self.rows, other.cols, out)

    def is_zero(self) -> bool:
        return not self.entries


def matrix_of_operator(op, domain: BasisSlice,
                       codomain: BasisSlice) -> SparseRationalMatrix:
    """Matrix whose column j holds the codomain coordinates of op(basis_j).

    op maps a basis element to a terms dict.  Output components outside the
    codomain slice raise a range error naming the offender.
    """
    entries: dict = {}
    for j, elem in enumerate(domain.elements):
        image = op(elem)
        for key, coeff in image.items():
            if coeff == 0:
                continue
            pos = codomain.index.get(key)
            if pos is None:
                raise SliceRangeError(
                    f"op({elem!r}) has component {key!r} outside the codomain "
                    f"slice")
            entries[(pos, j)] = Fraction(coeff)
    return SparseRationalMatrix(len(codomain), len(domain), entries)


# ---------------------------------------------------------------------------
# elimination


@dataclass
class SolveResult:
    rank: int
    kernel: list               # list of column vectors spanning ker M
    particular: list | None    # a solution of M x = b, if requested and solvable
    no_solution: bool = False
    certificate: list | None = None   # y with y.M = 0 and y.b != 0

    @property
    def solvable(self) -> bool:
        return not self.no_solution


def _pick_pivot(rows_nnz, cols_nnz, row_data):
    """Markowitz minimal-fill pivot: minimize (nnz_row-1)*(nnz_col-1)."""
    best = None
    for r, cols in row_data.items():
        rn = rows_nnz[r]
        for c in cols:
            score = (rn - 1) * (cols_nnz[c] - 1)
            key = (score, c, r)
            if best is None or key < best[0]:
                best = (key, r, c)
    if best is None:
        return None
    return best[1], best[2]


def solve_and_kernel(M: SparseRationalMatrix, b=None) -> SolveResult:
    """Fraction-free elimination returning rank, kernel and solve data.

    When b is supplied and inconsistent, the result carries a certificate
    vector y with y.M = 0 and y.b != 0 built from the eliminated row.
    """
    if b is not None and len(b) != M.rows:
        raise UsageError("right-hand side length does not match row count")
    rows = {r: {} for r in range(M.rows)}
    for (r, c), v in M.entries.items():
        rows[r][c] = v
    rhs = [Fraction(x) for x in b] if b is not None else None
    # row-operation tracker for the certificate
    track = ({r: {r: Fraction(1)} for r in range(M.rows)}
             if b is not None else None)

    active_rows = set(range(M.rows))
    active_cols = set(range(M.cols))
    prev_pivot = Fraction(1)
    pivots = []                      # list of (row, col, value at elimination)

    def nnz_maps():
        rn = {r: len([c for c in rows[r] if c in active_cols])
              for r in active_rows}
        cn: dict = {}
        for r in active_rows:
            for c in rows[r]:
                if c in active_cols:
                    cn[c] = cn.get(c, 0) + 1
        return rn, cn

    while True:
        candidates = {r: [c for c in rows[r] if c in active_cols]
                      for r in active_rows}
        candidates = {r: cs for r, cs in candidates.items() if cs}
        if not candidates:
            break
        rn, cn = nnz_maps()
        pick = _pick_pivot(rn, cn, candidates)
        if pick is None:
            break
        pr, pc = pick
        pval = rows[pr][pc]
        # Bareiss update of every other active row, including rows with a
        # zero in the pivot column (pure rescale); divisions are exact
        for r in active_rows:
            if r == pr:
                continue
            factor = rows[r].get(pc, Fraction(0))
            new_row = {}
            cols_union = set(rows[r]) | (set(rows[pr]) if factor else set())
            for c in cols_union:
                if c == pc:
                    continue
                val = (rows[r].get(c, Fraction(0)) * pval
                       - factor * rows[pr].get(c, Fraction(0))) / prev_pivot
                if val:
                    new_row[c] = val
            rows[r] = new_row
            if rhs is not None:
                rhs[r] = (rhs[r] * pval - factor * rhs[pr]) / prev_pivot
            if track is not None:
                updated = {}
                for k in set(track[r]) | (set(track[pr]) if factor else set()):
                    val = (track[r].get(k, Fraction(0)) * pval
                           - factor * track[pr].get(k, Fraction(0))) / prev_pivot
                    if val:
                        updated[k] = val
                track[r] = updated
        pivots.append((pr, pc, pval))
        active_rows.discard(pr)
        active_cols.discard(pc)
        prev_pivot = pval

    rank = len(pivots)

    no_solution = False
    certificate = None
    if rhs is not None:
        for r in active_rows:
            live = {c: v for c, v in rows[r].items()}
            if not live and rhs[r] != 0:
                no_solution = True
                certificate = [track[r].get(k, Fraction(0))
                               for k in range(M.rows)]
                break

    particular = None
    if rhs is not None and not no_solution:
        particular = [Fraction(0)] * M.cols
        for pr, pc, _ in reversed(pivots):
            acc = rhs[pr]
            for c, v in rows[pr].items():
                if c != pc and particular[c]:
                    acc -= v * particular[c]
            particular[pc] = acc / rows[pr][pc]

    kernel = []
    pivot_cols = {pc: pr for pr, pc, _ in pivots}
    free_cols = [c for c in range(M.cols) if c not in pivot_cols]
    for fc in free_cols:
        vec = [Fraction(0)] * M.cols
        vec[fc] = Fraction(1)
        for pr, pc, _ in reversed(pivots):
            acc = Fraction(0)
            for c, v in rows[pr].items():
                if c != pc and vec[c]:
                    acc -= v * vec[c]
            vec[pc] = acc / rows[pr][pc]
        kernel.append(vec)

    return SolveResult(rank, kernel, particular, no_solution, certificate)


@dataclass
class HomologyResult:
    kernel_dim: int
    image_dim: int
    homology_dim: int
    representatives: list    # vectors in C_k spanning a complement of im(d_in)


def homology_dims(d_in: SparseRationalMatrix,
                  d_out: SparseRationalMatrix) -> HomologyResult:
    """Homology of C_{k+1} --d_in--> C_k --d_out--> C_{k-1}.

    The composite is checked to vanish exactly first; a nonzero composite
    is an integrity error signalling a sign bug upstream.
    """
    if d_in.rows != d_out.cols:
        raise UsageError("chain spaces of d_in and d_out do not match")
    if not d_out.compose(d_in).is_zero():
        raise IntegrityError("d_out composed with d_in is nonzero")
    ker = solve_and_kernel(d_out).kernel
    # reduce the image columns and then each kernel vector against one
    # growing echelon basis; the image columns leave rank(d_in) rows, and a
    # kernel vector is a representative when it does not reduce to zero
    by_col: dict = {}
    for (r, c), v in d_in.entries.items():
        by_col.setdefault(c, {})[r] = v
    echelon: dict = {}
    for col in by_col.values():
        _echelon_insert(echelon, col)
    rank_in = len(echelon)
    hom = len(ker) - rank_in
    reps = [vec for vec in ker
            if _echelon_insert(echelon, {i: v for i, v in enumerate(vec) if v})]
    if len(reps) != hom:
        raise IntegrityError("representative count disagrees with dimensions")
    return HomologyResult(len(ker), rank_in, hom, reps)


def _echelon_insert(echelon: dict, vec: dict) -> bool:
    """Reduce the sparse vector vec ({index: value}) against the rows of
    echelon ({lead index: sparse row, zero before its lead}); store the
    remainder and return True when it is nonzero, i.e. when vec is
    independent of the rows.  vec is consumed."""
    while vec:
        i = min(vec)
        row = echelon.get(i)
        if row is None:
            echelon[i] = vec
            return True
        f = vec[i] / row[i]
        for j, x in row.items():
            v = vec.get(j, 0) - f * x
            if v:
                vec[j] = v
            else:
                vec.pop(j, None)
    return False
