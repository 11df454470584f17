"""Reference values for the benchmark's correctness checks.

Nothing here imports necklie.  Words are plain tuples of generator
indices; signs are accumulated one adjacent transposition at a time,
linear expansions are canonicalized only at the end, and ranks come from
dense Gaussian elimination over Fraction.  The one-generator closed forms
(slice counts, the level-1 cocycle, d of single words) follow from three
facts: even powers of the odd generator t vanish, the word bracket is
zero, and the cobracket sends t^(2n+1) to (2n+1) nu t^(2n-1).
"""

from fractions import Fraction
from itertools import combinations_with_replacement, product
from math import comb

# ---------------------------------------------------------------------------
# the two spaces, as (parities, pairing matrix)

ONE_GEN = ((1,), ((Fraction(1),),))
TWO_GEN = ((0, 1), ((Fraction(0), Fraction(1)), (Fraction(-1), Fraction(0))))


def omega_of(form):
    """Contraction weights: omega[i][j] = (form^-1)[j][i]."""
    n = len(form)
    aug = [[Fraction(v) for v in form[r]] + [Fraction(int(r == c))
                                             for c in range(n)]
           for r in range(n)]
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
    return [[inv[j][i] for j in range(n)] for i in range(n)]


def add_term(d, key, c):
    if c == 0:
        return
    v = d.get(key, Fraction(0)) + c
    if v == 0:
        d.pop(key, None)
    else:
        d[key] = v


# ---------------------------------------------------------------------------
# signed cyclic words


def _rotate_once(parities, seq):
    """First letter to the back by adjacent swaps; returns (seq, sign)."""
    seq = list(seq)
    sign = 1
    for i in range(len(seq) - 1):
        if parities[seq[i]] and parities[seq[i + 1]]:
            sign = -sign
        seq[i], seq[i + 1] = seq[i + 1], seq[i]
    return tuple(seq), sign


def rotations(parities, seq):
    out = []
    cur, sign = tuple(seq), 1
    for _ in range(len(seq)):
        out.append((cur, sign))
        cur, s = _rotate_once(parities, cur)
        sign *= s
    return out


def canonical(parities, seq):
    """Smallest rotation with its sign, or None for a zero necklace."""
    rots = rotations(parities, seq)
    best = min(w for w, _ in rots)
    signs = {s for w, s in rots if w == best}
    if len(signs) > 1:
        return None
    return best, signs.pop()


def necklaces(parities, length, parity=None):
    """Sorted nonzero canonical words of exactly this length."""
    out = set()
    for seq in product(range(len(parities)), repeat=length):
        nm = canonical(parities, seq)
        if nm is None:
            continue
        if parity is None or sum(parities[g] for g in nm[0]) % 2 == parity:
            out.add(nm[0])
    return sorted(out)


def bracket(parities, omega, a, b):
    """Word bracket {a, b}: contract the last letter of each rotation of a
    with the first letter of each rotation of b; the empty glue is dropped."""
    linear = {}
    for u, su in rotations(parities, a):
        for v, sv in rotations(parities, b):
            w = omega[u[-1]][v[0]]
            glue = u[:-1] + v[1:]
            if w and glue:
                add_term(linear, glue, w * su * sv)
    out = {}
    for seq, c in linear.items():
        nm = canonical(parities, seq)
        if nm is not None:
            add_term(out, nm[0], c * nm[1])
    return out


def bracket_sum(parities, omega, x, y):
    out = {}
    for a, ca in x.items():
        for b, cb in y.items():
            for w, c in bracket(parities, omega, a, b).items():
                add_term(out, w, ca * cb * c)
    return out


def cobracket(parities, omega, word):
    """Ordered (left, right) pairs, None for an empty side.  The letter
    contracted with the head is pulled out of the middle swap by swap."""
    raw = {}
    for u, su in rotations(parities, word):
        for m in range(1, len(u)):
            w = omega[u[0]][u[m]]
            if not w:
                continue
            sign = su
            for q in u[1:m]:
                if parities[q] and parities[u[m]]:
                    sign = -sign
            add_term(raw, (u[1:m], u[m + 1:]), Fraction(1, 2) * w * sign)
    out = {}
    for (left, right), c in raw.items():
        sides = []
        for seq in (left, right):
            if not seq:
                sides.append(None)
                continue
            nm = canonical(parities, seq)
            if nm is None:
                break
            sides.append(nm[0])
            c *= nm[1]
        else:
            add_term(out, tuple(sides), c)
    return out


def cobracket_sum(parities, omega, x):
    out = {}
    for a, ca in x.items():
        for pair, c in cobracket(parities, omega, a).items():
            add_term(out, pair, ca * c)
    return out


# ---------------------------------------------------------------------------
# dense rank and word-space cohomology


def dense_rank(rows):
    a = [[Fraction(v) for v in row] for row in rows]
    rank = 0
    ncols = len(a[0]) if a else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(a)) if a[i][c] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        for i in range(rank + 1, len(a)):
            if a[i][c] != 0:
                f = a[i][c] / a[rank][c]
                a[i] = [v - f * w for v, w in zip(a[i], a[rank])]
        rank += 1
    return rank


def _ad_matrix(parities, omega, h, dom, cod):
    """Rows indexed by cod, columns by dom: the words of {h, f}."""
    index = {w: i for i, w in enumerate(cod)}
    rows = [[Fraction(0)] * len(dom) for _ in cod]
    for j, f in enumerate(dom):
        for w, c in bracket_sum(parities, omega, h, {f: Fraction(1)}).items():
            rows[index[w]][j] = c
    return rows


def word_cohomology(parities, form, h, max_length):
    """{(length, parity): dim} of ad(h) = {h, -} on canonical words, for a
    hamiltonian h whose words share one length (so ad(h) shifts length
    uniformly by that length minus 2)."""
    omega = omega_of(form)
    shift = len(next(iter(h))) - 2
    dims = {}
    for length in range(1, max_length + 1):
        for par in (0, 1):
            dom = necklaces(parities, length, par)
            cod = (necklaces(parities, length + shift, 1 - par)
                   if length + shift >= 1 else [])
            prev = (necklaces(parities, length - shift, 1 - par)
                    if length - shift >= 1 else [])
            kernel = len(dom) - (dense_rank(_ad_matrix(parities, omega, h,
                                                       dom, cod))
                                 if dom and cod else 0)
            image = (dense_rank(_ad_matrix(parities, omega, h, prev, dom))
                     if prev and dom else 0)
            dims[(length, par)] = kernel - image
    return dims


def symmetric_power_dims(word_dims, profile, nu_parity, with_nu):
    """{(filtration order, parity): count} of tensors built from word
    classes, counted by listing every multiset of class labels (odd labels
    at most once) with every gamma and nu exponent the profile allows."""
    L, K, G, N, P = profile
    labels = [(length, par, i)
              for (length, par), d in sorted(word_dims.items())
              if length <= L for i in range(d)]
    n_cap = (min(N, 1) if nu_parity else N) if with_nu else 0
    out = {}
    for k in range(1, K + 1):
        for combo in combinations_with_replacement(labels, k):
            if any(lab[1] == 1 and combo.count(lab) > 1 for lab in combo):
                continue
            total = sum(lab[0] for lab in combo)
            par = sum(lab[1] for lab in combo)
            for g in range(G + 1):
                for n in range(n_cap + 1):
                    p = 2 * g + n + k - 1
                    if g + n + total < 2 or p > P:
                        continue
                    key = (p, (par + n * nu_parity) % 2)
                    out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# one-generator closed forms


def t_word(length):
    return (0,) * length


def one_gen_slice_count(profile, with_nu, order, parity):
    """Tensors g^a nu^n (t^l1 ^ ... ^ t^lk) with distinct odd l_i <= L,
    inside the profile, of this filtration order and parity.  nu is odd
    (the pairing is even), so n <= 1; the lone word t is excluded by the
    order >= 2 rule of the complex."""
    L, K, G, N, P = profile
    if order > P:
        return 0
    odd_lengths = (L + 1) // 2
    count = 0
    for g in range(G + 1):
        for n in range(min(N, 1) + 1 if with_nu else 1):
            k = order + 1 - 2 * g - n
            if k < 1 or k > K or (k + n) % 2 != parity:
                continue
            ways = comb(odd_lengths, k)
            if g == 0 and n == 0 and k == 1:
                ways -= 1
            count += ways
    return count


def lift_profile(order, with_nu):
    """The default lifting profile for one generator, as (L, K, G, N, P)."""
    return (2 * order + 3, order + 2, max(order, 1), 1 if with_nu else 0,
            order + 1)


def lift_tower_elements(order):
    """Basis elements enumerated by one lift-tower job: lg levels 1..order,
    the lg obstruction at order+1, and the lgv level-1 block; each
    obstruction enumerates its candidate and its obstruction slice."""
    lg, lgv = lift_profile(order, False), lift_profile(order, True)
    total = sum(one_gen_slice_count(lg, False, level, par)
                for level in range(1, order + 2) for par in (0, 1))
    return total + sum(one_gen_slice_count(lgv, True, 1, par)
                       for par in (0, 1))


def one_gen_d(terms):
    """d of single-word tensors {(g, 0, (t^(2n+1),)): c} in the full
    complex: (2n+1) c g^a nu t^(2n-1)."""
    out = {}
    for (g, n, words), c in terms.items():
        (w,) = words
        if n or len(w) % 2 == 0:
            raise ValueError("expects single odd words without nu")
        if len(w) > 1:
            add_term(out, (g, 1, (t_word(len(w) - 2),)), c * len(w))
    return out
