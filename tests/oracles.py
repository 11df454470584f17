"""Independent reference implementations used only by the test suite.

Everything here recomputes results from first principles with deliberately
different bookkeeping than the package: rotation and extraction signs are
accumulated one adjacent transposition at a time, linear words are merged
only at the very end, and the dense solver is plain Gaussian elimination.
Nothing imports from necklie except the brute-force slice enumeration,
which pins the package's direct generation of tensor slices to the
normalize-everything route it replaced, element by element and in order.
"""

from fractions import Fraction


# ---------------------------------------------------------------------------
# signed cyclic words, swap by swap


def swap_adjacent(parities, seq, i):
    """Exchange positions i, i+1; returns (new seq, Koszul sign)."""
    seq = list(seq)
    sign = (-1) ** (parities[seq[i]] * parities[seq[i + 1]])
    seq[i], seq[i + 1] = seq[i + 1], seq[i]
    return tuple(seq), sign


def rotate_once(parities, seq):
    """Move the first letter to the end through len-1 adjacent swaps."""
    sign = 1
    seq = tuple(seq)
    for i in range(len(seq) - 1):
        seq, s = swap_adjacent(parities, seq, i)
        sign *= s
    return seq, sign


def linear_rotations(parities, seq):
    out = []
    cur, sign = tuple(seq), 1
    for _ in range(len(seq)):
        out.append((cur, sign))
        cur, s = rotate_once(parities, cur)
        sign *= s
    return out


def canonical_by_swaps(parities, seq):
    """Minimal rotation with its sign; None when the necklace is zero."""
    rots = linear_rotations(parities, seq)
    best = min(w for w, _ in rots)
    signs = {s for w, s in rots if w == best}
    if len(signs) > 1:
        return None
    return best, signs.pop()


def necklace_classes(parities, size, length):
    """All nonzero necklaces of exactly this length, as canonical tuples."""
    from itertools import product
    out = set()
    for seq in product(range(size), repeat=length):
        nm = canonical_by_swaps(parities, seq)
        if nm is not None:
            out.add(nm[0])
    return out


def bubble_out_sign(parities, block, letter):
    """Sign to move `letter` leftward past every letter of `block`."""
    sign = 1
    for q in block:
        sign *= (-1) ** (parities[letter] * parities[q])
    return sign


# ---------------------------------------------------------------------------
# pairing helpers; `form` is the matrix of <u_i, u_j>, omega its inverse
# transposed so that contraction reads off omega[i][j]


def omega_matrix(form):
    n = len(form)
    aug = [[Fraction(form[r][c]) for c in range(n)] +
           [Fraction(1 if c == r else 0) for c in range(n)] for r in range(n)]
    for col in range(n):
        piv = next(r for r in range(col, n) if aug[r][col] != 0)
        aug[col], aug[piv] = aug[piv], aug[col]
        pv = aug[col][col]
        aug[col] = [v / pv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [v - f * w for v, w in zip(aug[r], aug[col])]
    inv = [row[n:] for row in aug]
    return [[inv[c][r] for c in range(n)] for r in range(n)]


def _accumulate(d, k, c):
    if c == 0:
        return
    new = d.get(k, Fraction(0)) + c
    if new == 0:
        d.pop(k, None)
    else:
        d[k] = new


def oracle_bracket(parities, omega, a, b):
    """Necklace bracket of two linear words.

    Contracts the last letter of every rotation of `a` with the first
    letter of every rotation of `b`, glues the leftovers as a linear word,
    and canonicalizes only after all contributions are summed.  Returns
    (dict canonical word -> coeff, scalar from the empty glue).
    """
    linear: dict = {}
    scalar = Fraction(0)
    for u, su in linear_rotations(parities, a):
        for v, sv in linear_rotations(parities, b):
            coeff = omega[u[-1]][v[0]] * su * sv
            if coeff == 0:
                continue
            glue = u[:-1] + v[1:]
            if not glue:
                scalar += coeff
            else:
                _accumulate(linear, glue, coeff)
    out: dict = {}
    for seq, c in linear.items():
        nm = canonical_by_swaps(parities, seq)
        if nm is not None:
            _accumulate(out, nm[0], c * nm[1])
    return out, scalar


def oracle_cobracket(parities, omega, w):
    """Necklace cobracket as a sum of ordered (left, right) pairs.

    For every rotation, the head letter is contracted against each later
    letter; the sign to pull that letter out of the middle is accumulated
    one swap at a time.  None stands for an empty side.  Sides are
    canonicalized only at the end.
    """
    raw: dict = {}
    for u, su in linear_rotations(parities, w):
        head = u[0]
        for m in range(1, len(u)):
            mid, tail = u[1:m], u[m + 1:]
            coeff = (Fraction(1, 2) * omega[head][u[m]] * su
                     * bubble_out_sign(parities, mid, u[m]))
            _accumulate(raw, (mid, tail), coeff)
    out: dict = {}
    for (left, right), c in raw.items():
        sides = []
        for seq in (left, right):
            if not seq:
                sides.append(None)
                continue
            nm = canonical_by_swaps(parities, seq)
            if nm is None:
                break
            sides.append(nm[0])
            c = c * nm[1]
        else:
            _accumulate(out, tuple(sides), c)
    return out


# ---------------------------------------------------------------------------
# dense exact linear algebra


def dense_solve(rows, rhs=None):
    """Gaussian elimination over Fraction.

    rows is a list of lists (the matrix, row major).  Returns a dict with
    rank, nullity, a particular solution (None if inconsistent), and a
    kernel basis.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    a = [[Fraction(v) for v in row] for row in rows]
    b = [Fraction(v) for v in (rhs if rhs is not None else [0] * m)]
    pivots = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        b[r], b[piv] = b[piv], b[r]
        pv = a[r][c]
        a[r] = [v / pv for v in a[r]]
        b[r] /= pv
        for i in range(m):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[r])]
                b[i] -= f * b[r]
        pivots.append(c)
        r += 1
    consistent = all(b[i] == 0 for i in range(r, m))
    particular = None
    if consistent:
        particular = [Fraction(0)] * n
        for i, c in enumerate(pivots):
            particular[c] = b[i]
    free = [c for c in range(n) if c not in pivots]
    kernel = []
    for fc in free:
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for i, c in enumerate(pivots):
            vec[c] = -a[i][fc]
        kernel.append(vec)
    return {"rank": r, "nullity": n - r, "particular": particular,
            "kernel": kernel, "consistent": consistent}


def markowitz_free_columns(rows):
    """Free columns of dense Gaussian elimination that pivots, at each
    step, on the nonzero with the least Markowitz key ((row nnz - 1) *
    (col nnz - 1), col, row) among the rows and columns not yet pivots,
    found by scanning every entry."""
    a = [[Fraction(v) for v in row] for row in rows]
    live_rows = set(range(len(a)))
    live_cols = set(range(len(a[0]) if a else 0))
    while True:
        nonzero = [(r, c) for r in live_rows for c in live_cols if a[r][c]]
        if not nonzero:
            return sorted(live_cols)
        rn = {r: sum(1 for c in live_cols if a[r][c]) for r in live_rows}
        cn = {c: sum(1 for r in live_rows if a[r][c]) for c in live_cols}
        _, pc, pr = min(((rn[r] - 1) * (cn[c] - 1), c, r)
                        for r, c in nonzero)
        for r in live_rows - {pr}:
            if a[r][pc]:
                f = a[r][pc] / a[pr][pc]
                a[r] = [v - f * w for v, w in zip(a[r], a[pr])]
        live_rows.discard(pr)
        live_cols.discard(pc)


def dense_rows(matrix):
    """Row lists of a SparseRationalMatrix, zeros filled in."""
    rows = [[Fraction(0)] * matrix.cols for _ in range(matrix.rows)]
    for (r, c), v in matrix.entries.items():
        rows[r][c] = v
    return rows


def mat_vec(rows, vec):
    return [sum((Fraction(v) * x for v, x in zip(row, vec) if v and x),
                Fraction(0)) for row in rows]


def vec_mat(vec, rows):
    n = len(rows[0]) if rows else 0
    out = [Fraction(0)] * n
    for y, row in zip(vec, rows):
        if y == 0:
            continue
        for j, v in enumerate(row):
            out[j] += Fraction(y) * Fraction(v)
    return out


# ---------------------------------------------------------------------------
# truncated chain products, block by block and swap by swap


def _bubble_sort(items, key, parity):
    """Adjacent-swap sort with the Koszul sign; None when an odd item
    repeats."""
    items = list(items)
    sign = 1
    for end in range(len(items) - 1, 0, -1):
        for i in range(end):
            if key(items[i]) > key(items[i + 1]):
                sign *= (-1) ** (parity(items[i]) * parity(items[i + 1]))
                items[i], items[i + 1] = items[i + 1], items[i]
    for a, b in zip(items, items[1:]):
        if a == b and parity(a):
            return None
    return tuple(items), sign


def oracle_chain_mul(parities, nu_parity, left, right, caps):
    """Product of chain combinations {(G, N, blocks): c}, truncated by the
    left operand's caps (P, K, L).

    Blocks are concatenated, every word and every block is canonicalized
    from scratch, the blocks are bubble-sorted (factor count first, then
    words by length and letters) and only then is the result cut.
    """
    P, K, L = caps

    def word_parity(w):
        return sum(parities[x] for x in w) & 1

    def block_parity(block):
        return sum(word_parity(w) for w in block) & 1

    def canonical_block(block):
        sign = 1
        words = []
        for w in block:
            nm = canonical_by_swaps(parities, w)
            if nm is None:
                return None
            words.append(nm[0])
            sign *= nm[1]
        srt = _bubble_sort(words, lambda w: (len(w), w), word_parity)
        return None if srt is None else (srt[0], sign * srt[1])

    out: dict = {}
    for (G1, N1, bl1), c1 in left.items():
        for (G2, N2, bl2), c2 in right.items():
            G, N = G1 + G2, N1 + N2
            if nu_parity and N >= 2:
                continue
            # right's nu-prefix moves left past every block of left
            sign = (-1) ** (N2 * nu_parity * sum(map(block_parity, bl1)))
            blocks = []
            for block in bl1 + bl2:
                nm = canonical_block(block)
                if nm is None:
                    break
                blocks.append(nm[0])
                sign *= nm[1]
            else:
                srt = _bubble_sort(
                    blocks, lambda b: (len(b), [(len(w), w) for w in b]),
                    block_parity)
                if srt is None:
                    continue
                blocks = srt[0]
                order = 2 * G + N + sum(len(b) - 1 for b in blocks)
                if (order > P or len(blocks) > K
                        or any(len(w) > L for b in blocks for w in b)):
                    continue
                _accumulate(out, (G, N, blocks), c1 * c2 * sign * srt[1])
    return out


# ---------------------------------------------------------------------------
# tensor slices by brute force: normalize every multiset, then cut


def brute_force_tensor_slice(space, profile, variant=None, parity=None,
                             order=None):
    """Keys (g, n, words) of a tensor slice, in enumeration order.

    Every multiset of canonical words of length <= L, with every gamma
    and nu exponent and factor count in the profile, is normalized;
    zeros are dropped and the filtration, variant, order and parity cuts
    applied to what is left.
    """
    from itertools import combinations_with_replacement

    from necklie.cecomplex import normalize_tensor
    from necklie.words import canonical_words

    words = canonical_words(space, profile.L)
    out = []
    for g in range(profile.G + 1):
        for n in range(profile.N + 1):
            for k in range(1, profile.K + 1):
                for combo in combinations_with_replacement(words, k):
                    nm = normalize_tensor(space, g, n, combo)
                    if nm is None:
                        continue
                    key = tuple(nm[0])
                    ws = key[2]
                    filt = 2 * g + n + len(ws) - 1
                    if filt > profile.P:
                        continue
                    if variant is not None:
                        if g + n + sum(len(w) for w in ws) < 2:
                            continue
                        if variant == "lg" and n > 0:
                            continue
                        if variant == "hq2" and (g or n or len(ws) != 1
                                                 or len(ws[0]) < 2):
                            continue
                    if order is not None and filt != order:
                        continue
                    par = (sum(space.parities[x] for w in ws for x in w)
                           + n * space.nu_parity) & 1
                    if parity is not None and par != parity:
                        continue
                    out.append(key)
    return tuple(out)
