"""Exact sparse rational linear algebra over enumerated truncation bases.

Tensor slices are generated directly in canonical form.  The word list
``canonical_words`` is sorted by (length, word), which is exactly the key
``normalize_tensor`` Koszul-sorts factors by, so every multiset drawn from
it in order is already canonical with sign +1.  Such a draw is zero only
when two equal odd words sit next to each other or when nu is odd and its
exponent is at least 2; nothing else is normalized.  The filtration order
2g + n + k - 1 is known before any word is drawn, so an order cut picks
the factor count instead of filtering the whole profile.

Elimination is sparse Gaussian elimination over Fraction.  The pivot is
the entry with the least Markowitz (1957) key ((row nnz - 1) * (col nnz -
1), col, row), kept in a lazy heap: after a pivot only the entries whose
row or column count changed get fresh keys, and stale keys are dropped
when popped.  A pivot updates only the rows with a nonzero in its column;
the others are not touched.  The kernel is built on first read, by one
triangular solve per free column that visits only the pivot rows it
reaches (Gilbert and Peierls, 1988).  Correctness, not speed, is the
contract; a naive dense oracle lives in the test tree for cross-checking.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from heapq import heapify, heappop, heappush
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
        for (k, c), w in other.entries.items():
            by_row.setdefault(k, []).append((c, w))
        out: dict = {}
        for (r, k), v in self.entries.items():
            for c, w in by_row.get(k, ()):
                out[(r, c)] = out.get((r, c), 0) + v * w
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
    """Rank, solve data and kernel of one elimination of M.

    ``particular`` solves M x = b when b was given and is consistent; it is
    zero on the free (non-pivot) columns.  When b is inconsistent,
    ``certificate`` is some y with y.M = 0 and y.b != 0, with no
    normalisation: any nonzero multiple proves the same.

    ``kernel`` spans ker M with one vector per free column, in increasing
    column order; each is 1 at its own free column and 0 at the other free
    columns.  It is built from the eliminated rows on first read and is a
    list of dense column vectors; ``sparse_kernel`` holds the same vectors
    as {column: value} dicts without zeros.
    """
    rank: int
    particular: list | None    # a solution of M x = b, if requested and solvable
    no_solution: bool = False
    certificate: list | None = None   # y with y.M = 0 and y.b != 0
    _pivots: list = field(default_factory=list, repr=False, compare=False)
    _cols: int = field(default=0, repr=False, compare=False)

    @property
    def solvable(self) -> bool:
        return not self.no_solution

    @cached_property
    def sparse_kernel(self) -> list:
        """One triangular solve per free column over the pivot rows
        (pivot column, row) it reaches, latest pivot first."""
        pivots = self._pivots
        holders: dict = {}           # column -> pivots whose rows hold it
        for k, (pc, prow) in enumerate(pivots):
            for c in prow:
                if c != pc:
                    holders.setdefault(c, []).append(k)
        pivot_cols = {pc for pc, _ in pivots}
        out = []
        for fc in range(self._cols):
            if fc in pivot_cols:
                continue
            reached, stack = set(), [fc]
            while stack:
                for k in holders.get(stack.pop(), ()):
                    if k not in reached:
                        reached.add(k)
                        stack.append(pivots[k][0])
            vec = {fc: Fraction(1)}
            for k in sorted(reached, reverse=True):
                pc, prow = pivots[k]
                acc = sum(v * vec[c] for c, v in prow.items() if c in vec)
                if acc:
                    vec[pc] = -acc / prow[pc]
            out.append(vec)
        return out

    @cached_property
    def kernel(self) -> list:
        zero = Fraction(0)
        return [[vec.get(c, zero) for c in range(self._cols)]
                for vec in self.sparse_kernel]


def solve_and_kernel(M: SparseRationalMatrix, b=None) -> SolveResult:
    """Sparse Gaussian elimination of M with the module's pivot rule,
    returning rank, solve data and a kernel built when read.

    When b is supplied, its entries and a row-operation tracker follow the
    row updates; the tracked combination of the first row left reading
    0 = nonzero is the certificate.
    """
    if b is not None and len(b) != M.rows:
        raise UsageError("right-hand side length does not match row count")
    rows = {r: {} for r in range(M.rows)}        # the rows not yet pivots
    col_rows: dict = {}                          # column -> rows holding it
    for (r, c), v in M.entries.items():
        rows[r][c] = v
        col_rows.setdefault(c, set()).add(r)
    rhs = [Fraction(x) for x in b] if b is not None else None
    track = ({r: {r: Fraction(1)} for r in range(M.rows)}
             if b is not None else None)

    heap = [((len(rows[r]) - 1) * (len(col_rows[c]) - 1), c, r)
            for r, c in M.entries]
    heapify(heap)
    pivots = []                      # (row, col, row entries) in pivot order
    while heap:
        score, pc, pr = heappop(heap)
        prow = rows.get(pr)
        if (prow is None or pc not in prow
                or score != (len(prow) - 1) * (len(col_rows[pc]) - 1)):
            continue
        del rows[pr]
        pivots.append((pr, pc, prow))
        touched = col_rows.pop(pc)
        touched.discard(pr)
        for c in prow:
            if c != pc:
                col_rows[c].discard(pr)
        pval = prow[pc]
        for r in touched:
            row = rows[r]
            f = row.pop(pc) / pval
            for c, v in prow.items():
                if c == pc:
                    continue
                old = row.get(c)
                if old is None:
                    row[c] = -f * v
                    col_rows[c].add(r)
                else:
                    new = old - f * v
                    if new:
                        row[c] = new
                    else:
                        del row[c]
                        col_rows[c].discard(r)
            if rhs is not None:
                rhs[r] -= f * rhs[pr]
                tr = track[r]
                for k, v in track[pr].items():
                    new = tr.get(k, 0) - f * v
                    if new:
                        tr[k] = new
                    else:
                        del tr[k]
        # fresh keys: every entry of a column of the pivot row, whose count
        # changed, and the other entries of each updated row
        for c in prow:
            if c != pc:
                cn = len(col_rows[c]) - 1
                for r in col_rows[c]:
                    heappush(heap, ((len(rows[r]) - 1) * cn, c, r))
        for r in touched:
            rn = len(rows[r]) - 1
            for c in rows[r]:
                if c not in prow:
                    heappush(heap, (rn * (len(col_rows[c]) - 1), c, r))

    no_solution = False
    certificate = None
    particular = None
    if rhs is not None:
        # every row left over is empty; the first with a nonzero right-hand
        # side proves there is no solution
        bad = next((r for r in rows if rhs[r]), None)
        if bad is not None:
            no_solution = True
            certificate = [track[bad].get(k, Fraction(0))
                           for k in range(M.rows)]
        else:
            x: dict = {}
            for pr, pc, prow in reversed(pivots):
                acc = rhs[pr] - sum(v * x[c] for c, v in prow.items()
                                    if c in x)
                if acc:
                    x[pc] = acc / prow[pc]
            particular = [x.get(c, Fraction(0)) for c in range(M.cols)]

    return SolveResult(len(pivots), particular, no_solution, certificate,
                       [(pc, prow) for _, pc, prow in pivots], M.cols)



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
    ker = solve_and_kernel(d_out).sparse_kernel
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
    zero = Fraction(0)
    reps = [[vec.get(i, zero) for i in range(d_out.cols)] for vec in ker
            if _echelon_insert(echelon, dict(vec))]
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
