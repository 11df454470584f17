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


# ---------------------------------------------------------------------------
# tensor bracket and differential, factor by factor and swap by swap
#
# Tensor keys are (g, n, words).  nu is odd exactly when the form is even.
# Every factor is moved by adjacent swaps, nothing is cached, and words
# are canonicalized by rotation swaps only when a term is complete.

_NU = "nu"


def _item_parity(parities, nu_parity, item):
    if item == _NU:
        return nu_parity
    return sum(parities[x] for x in item) & 1


def _moved(items, parity, src, dst):
    """items with items[src] moved left to dst by adjacent swaps, and the
    Koszul sign of the moves."""
    items = list(items)
    sign = 1
    for p in range(src, dst, -1):
        sign *= (-1) ** (parity(items[p - 1]) * parity(items[p]))
        items[p - 1], items[p] = items[p], items[p - 1]
    return items, sign


def oracle_tensor_key(parities, nu_parity, g, n, words):
    """Canonical tensor key with its sign, or None when the tensor is 0."""
    if nu_parity and n >= 2:
        return None
    sign = 1
    canon = []
    for w in words:
        nm = canonical_by_swaps(parities, w)
        if nm is None:
            return None
        canon.append(nm[0])
        sign *= nm[1]
    srt = _bubble_sort(canon, lambda w: (len(w), w),
                       lambda w: _item_parity(parities, nu_parity, w))
    if srt is None:
        return None
    return (g, n, srt[0]), sign * srt[1]


def _add_term(out, parities, nu_parity, g, n, words, coeff):
    nm = oracle_tensor_key(parities, nu_parity, g, n, words)
    if nm is not None:
        _accumulate(out, nm[0], coeff * nm[1])


def oracle_tensor_bracket(parities, omega, form_parity, x, y):
    """Leibniz bracket of two combinations {(g, n, words): c}.

    For each pair of factors U_i of x and V_j of y: the nu's of y cross
    U, U_i moves to the front, V_j moves behind it, the bracket (of the
    form's parity) crosses the rest of U, and the two are contracted.
    """
    nu_parity = 1 - form_parity
    par = lambda item: _item_parity(parities, nu_parity, item)
    out: dict = {}
    for (g1, n1, U), c1 in x.items():
        for (g2, n2, V), c2 in y.items():
            sign0 = 1
            for _ in range(n2):
                for u in U:
                    sign0 *= (-1) ** (nu_parity * par(u))
            for i in range(len(U)):
                for j in range(len(V)):
                    items, s1 = _moved(list(U) + list(V), par, i, 0)
                    items, s2 = _moved(items, par, len(U) + j, 1)
                    sign = sign0 * s1 * s2
                    for u in items[2:len(U) + 1]:
                        sign *= (-1) ** (form_parity * par(u))
                    glued, _scalar = oracle_bracket(parities, omega,
                                                    items[0], items[1])
                    for w, cw in glued.items():
                        _add_term(out, parities, nu_parity, g1 + g2,
                                  n1 + n2, [w] + items[2:],
                                  c1 * c2 * sign * cw)
    return out


def oracle_tensor_differential(parities, omega, form_parity, terms,
                               with_nu=True):
    """gamma * delta + Delta on a combination {(g, n, words): c}; with_nu
    False keeps the nu-free terms.

    delta: factors i < j move to the front by adjacent swaps, with one more
    sign (-1)**parity(w_i), and are contracted under one more gamma.
    Delta: the cobracket (of the form's parity, plus nu for each empty
    side) crosses the nu's and the factors before w_i, w_i splits in
    place, and every new nu moves left past the words before it.
    """
    nu_parity = 1 - form_parity
    par = lambda item: _item_parity(parities, nu_parity, item)
    out: dict = {}
    for (g, n, ws), c in terms.items():
        k = len(ws)
        for i in range(k):
            for j in range(i + 1, k):
                items, s1 = _moved(ws, par, i, 0)
                items, s2 = _moved(items, par, j, 1)
                sign = s1 * s2 * (-1) ** par(ws[i])
                glued, _scalar = oracle_bracket(parities, omega,
                                                items[0], items[1])
                for w, cw in glued.items():
                    _add_term(out, parities, nu_parity, g + 1, n,
                              [w] + items[2:], c * sign * cw)
        for i in range(k):
            for (left, right), cc in oracle_cobracket(parities, omega,
                                                      ws[i]).items():
                produced = [left or _NU, right or _NU]
                op_parity = (form_parity
                             + nu_parity * produced.count(_NU)) & 1
                sign = 1
                for item in [_NU] * n + list(ws[:i]):
                    sign *= (-1) ** (op_parity * par(item))
                items = list(ws[:i]) + produced + list(ws[i + 1:])
                nus = 0
                while _NU in items:
                    items, s = _moved(items, par, items.index(_NU), 0)
                    sign *= s
                    items.pop(0)
                    nus += 1
                if items:
                    _add_term(out, parities, nu_parity, g, n + nus, items,
                              c * cc * sign)
    if not with_nu:
        out = {key: v for key, v in out.items() if key[1] == 0}
    return out


# ---------------------------------------------------------------------------
# the outer differential and the gauge rate on chains, item by item
#
# A chain gamma^G nu^N (B_1 ... B_r) is laid out as a list of items: N
# nu's, then the blocks.  An operator crosses every item before the place
# it acts on, new nu's move left to the prefix one swap at a time, and the
# blocks are bubble-sorted last.  Tensor results come from the uncached
# tensor oracles above.


def _chain_item_parity(parities, nu_parity, item):
    if item == _NU:
        return nu_parity
    return sum(parities[x] for w in item for x in w) & 1


def _crossing(parity, op_parity, items):
    sign = 1
    for item in items:
        sign *= (-1) ** (op_parity * parity(item))
    return sign


def oracle_chain_key(parities, nu_parity, G, items):
    """Canonical chain key of gamma^G times items (nu's and blocks in any
    order) with its sign, or None when the chain is zero."""
    par = lambda item: _chain_item_parity(parities, nu_parity, item)
    items = list(items)
    sign = 1
    N = 0
    while _NU in items:
        items, s = _moved(items, par, items.index(_NU), 0)
        sign *= s
        items.pop(0)
        N += 1
    if nu_parity and N >= 2:
        return None
    blocks = []
    for block in items:
        nm = oracle_tensor_key(parities, nu_parity, 0, 0, block)
        if nm is None:
            return None
        blocks.append(nm[0][2])
        sign *= nm[1]
    srt = _bubble_sort(blocks, lambda b: (len(b), [(len(w), w) for w in b]),
                       par)
    if srt is None:
        return None
    return (G, N, srt[0]), sign * srt[1]


def _add_chain(out, parities, nu_parity, G, items, coeff, caps):
    """Accumulate coeff * gamma^G items, canonicalized and then cut by the
    caps (P, K, L)."""
    nm = oracle_chain_key(parities, nu_parity, G, items)
    if nm is None:
        return
    (G, N, blocks), sign = nm
    P, K, L = caps
    if (2 * G + N + sum(len(b) - 1 for b in blocks) > P or len(blocks) > K
            or any(len(w) > L for b in blocks for w in b)):
        return
    _accumulate(out, (G, N, blocks), coeff * sign)


def _tensor_item_parity(parities, nu_parity, key):
    g, n, ws = key
    return (sum(parities[x] for w in ws for x in w) + n * nu_parity) & 1


def oracle_chain_delta(parities, omega, form_parity, terms, caps, variant):
    """Outer differential of a chain combination {(G, N, blocks): c}, cut
    by caps (P, K, L): zero in hq2, its nu-free part in lg.

    d of block i is the tensor differential of that block; each of its
    terms is an operator of the parity it changes, which crosses every
    item before the block.  For a pair i < j, block i moves to the front
    of the blocks and block j behind it by adjacent swaps, with one more
    sign (-1)**parity(block i); their tensor bracket crosses the nu's.
    """
    if variant == "hq2":
        return {}
    with_nu = variant == "lgv"
    nu_parity = 1 - form_parity
    par = lambda item: _chain_item_parity(parities, nu_parity, item)
    out: dict = {}
    for (G, N, blocks), c in terms.items():
        items = [_NU] * N + list(blocks)
        for i in range(N, len(items)):
            block = items[i]
            image = oracle_tensor_differential(
                parities, omega, form_parity, {(0, 0, block): Fraction(1)},
                with_nu)
            for (g, n, ws), cw in image.items():
                op = (_tensor_item_parity(parities, nu_parity, (g, n, ws))
                      - par(block)) & 1
                sign = _crossing(par, op, items[:i])
                _add_chain(out, parities, nu_parity, G + g,
                           items[:i] + [_NU] * n + [ws] + items[i + 1:],
                           c * cw * sign, caps)
        for i in range(N, len(items)):
            for j in range(i + 1, len(items)):
                moved, s1 = _moved(items, par, i, N)
                moved, s2 = _moved(moved, par, j, N + 1)
                first, second = moved[N], moved[N + 1]
                sign = s1 * s2 * (-1) ** par(first)
                image = oracle_tensor_bracket(
                    parities, omega, form_parity,
                    {(0, 0, first): Fraction(1)},
                    {(0, 0, second): Fraction(1)})
                for (g, n, ws), cw in image.items():
                    if n and not with_nu:
                        continue
                    op = (_tensor_item_parity(parities, nu_parity, (g, n, ws))
                          - par(first) - par(second)) & 1
                    _add_chain(out, parities, nu_parity, G + g,
                               moved[:N] + [_NU] * n + [ws] + moved[N + 2:],
                               c * cw * sign * _crossing(par, op, moved[:N]),
                               caps)
    return out


def oracle_gauge_rate(parities, omega, form_parity, y, terms, caps, variant):
    """Gauge rate embed(dy) . c - sum_i (+/-) [y, B_i] . (c without B_i) of
    a tensor combination y on a chain combination c, cut by caps (P, K, L).

    dy is the tensor differential of y (zero in hq2, nu-free in lg), each
    term a one-block chain multiplied on the left through oracle_chain_mul.
    For the bracket part, block i moves to the front of the blocks by
    adjacent swaps, y is bracketed into it, and the bracket crosses the
    nu's.
    """
    with_nu = variant == "lgv"
    nu_parity = 1 - form_parity
    par = lambda item: _chain_item_parity(parities, nu_parity, item)
    dy = ({} if variant == "hq2" else oracle_tensor_differential(
        parities, omega, form_parity, y, with_nu))
    out = oracle_chain_mul(parities, nu_parity,
                           {(g, n, (ws,)): c for (g, n, ws), c in dy.items()},
                           terms, caps)
    for (G, N, blocks), c in terms.items():
        items = [_NU] * N + list(blocks)
        for i in range(N, len(items)):
            moved, s1 = _moved(items, par, i, N)
            block = moved[N]
            for ykey, cy in y.items():
                image = oracle_tensor_bracket(parities, omega, form_parity,
                                              {ykey: Fraction(1)},
                                              {(0, 0, block): Fraction(1)})
                for (g, n, ws), cw in image.items():
                    if n and not with_nu:
                        continue
                    op = (_tensor_item_parity(parities, nu_parity, (g, n, ws))
                          - par(block)) & 1
                    _add_chain(out, parities, nu_parity, G + g,
                               moved[:N] + [_NU] * n + [ws] + moved[N + 1:],
                               -c * cy * cw * s1 * _crossing(par, op,
                                                             moved[:N]),
                               caps)
    return out
