"""The symmetric algebra on the deformation complex, home of ch(x).

A chain term is gamma^G nu^N (B_1 v ... v B_r) where each block B_i is a
Koszul-sorted multiset of cyclic words (the word part of a complex tensor;
the gamma/nu prefixes of all blocks are pooled into G and N).  Blocks are
sorted at the outer level with Koszul signs by block parity; a repeated
odd block vanishes, as does nu^2 when nu is odd.  The sort, the signed
unshuffle and the combination arithmetic are ``cecomplex``'s, which owns
the Koszul rule; here they run on blocks instead of words.

Every block of a stored chain key is a canonical tensor.  Raw input is
canonicalized once, block by block, by ``chain_normalize`` at the
``CEChainElement`` boundary; everything else keeps the invariant and only
re-sorts the outer blocks through ``sort_blocks``, the one owner of the
outer rule.  Products concatenate canonical blocks, and the contractions
of ``chain_delta`` place one new block, canonical as the tensor layer
returns it, among canonical neighbours.

The outer differential applies d to one block, or contracts two blocks
through the tensor bracket into one, with the same front-loading sign
convention as the inner differential.  ``bracket_into_block`` owns that
contraction and its nu sign; ``mc.gauge_rate`` reuses it to bracket the
gauge parameter into one block.  The outer filtration order is
2G + N + sum(k_i - 1); truncation keeps order <= P, block count <= K and
word length <= L of the profile.  Order and block count add under the
product and word lengths do not change, so ``chain_mul`` never forms a
pair that exceeds the left operand's P or K.

Both operations are sums of one memoized result per chain key, stored in
the space's ``memo``.  ``chain_mul`` reads the product of each key pair
that passes the caps under ``("chain_product", k1, k2)``: the sorted key
with its sign, the nu-crossing sign folded in, or None when it vanishes.
``chain_delta`` sums the full outer differential of each key, stored
under ``("chain_delta", with_nu, key)`` as a read-only mapping.  Entries
are uncut and carry no coefficient; the caller's ``replace_terms``
applies its own profile.  A miss goes through the tensor layer's
untraced bodies (``cecomplex._key_differential`` and ``_key_bracket``)
and ``sort_blocks`` only, never a function ``bench/spans.py`` traces.
"""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

from .cecomplex import (LambdaElement, TruncatedCombination,
                        TruncationProfile, _add_scaled, _key_bracket,
                        _key_differential, koszul_sort, normalize_tensor,
                        tensor_parity, unshuffle)
from .errors import UsageError
from .space import SymplecticSpace
from .words import accumulate

_MISSING = object()


def block_parity(space: SymplecticSpace, block) -> int:
    return sum(space.word_parity(w) for w in block) & 1


def _block_key(block):
    return (len(block), tuple((len(w), w) for w in block))


def chain_order(key) -> int:
    """Outer filtration order 2G + N + sum over blocks of (factors - 1)."""
    G, N, blocks = key
    return 2 * G + N + sum(len(b) - 1 for b in blocks)


def chain_parity(space: SymplecticSpace, key) -> int:
    G, N, blocks = key
    return (sum(block_parity(space, b) for b in blocks)
            + N * space.nu_parity) & 1


def sort_blocks(space: SymplecticSpace, G: int, N: int, blocks):
    """Koszul-sort canonical blocks into a chain key with its sign; None
    when an odd block repeats or nu^2 vanishes.  The blocks are taken as
    they are: each must already be a canonical tensor."""
    if space.nu_parity == 1 and N >= 2:
        return None
    srt = koszul_sort(blocks, _block_key, lambda b: block_parity(space, b))
    if srt is None:
        return None
    return (G, N, srt[0]), srt[1]


def chain_normalize(space: SymplecticSpace, G: int, N: int, blocks):
    """Canonicalize every block, then Koszul-sort the blocks; None if zero."""
    bs = []
    sign = 1
    for block in blocks:
        if not block:
            raise UsageError("chain blocks must be nonempty")
        nm = normalize_tensor(space, 0, 0, block)
        if nm is None:
            return None
        bs.append(nm[0][2])
        sign *= nm[1]
    nm = sort_blocks(space, G, N, bs)
    if nm is None:
        return None
    return nm[0], sign * nm[1]


class CEChainElement(TruncatedCombination):
    """Truncated rational combination of canonical chain terms."""

    __slots__ = ()

    def _normalize(self, G, N, blocks):
        return chain_normalize(self.space, G, N, blocks)

    def _complaint(self, key):
        if self.variant == "lg" and key[1] > 0:
            return "nu is not available in the gamma-only variant"
        return None

    def _keeps(self, key) -> bool:
        G, N, blocks = key
        return (chain_order(key) <= self.profile.P
                and len(blocks) <= self.profile.K
                and all(len(w) <= self.profile.L for b in blocks for w in b))

    def capped(self, max_order: int, max_blocks: int) -> "CEChainElement":
        return self.replace_terms(
            {k: c for k, c in self.terms.items()
             if chain_order(k) <= max_order and len(k[2]) <= max_blocks})


def chain_unit(space, variant, profile) -> CEChainElement:
    return CEChainElement(space, variant, profile, {(0, 0, ()): Fraction(1)},
                          already_canonical=True)


def embed_element(x: LambdaElement,
                  profile: TruncationProfile | None = None) -> CEChainElement:
    """View a complex element as one-block chains (pooling gamma, nu),
    truncated by profile, x's own by default."""
    out: dict = {}
    for (g, n, ws), c in x.terms.items():
        nm = sort_blocks(x.space, g, n, (ws,))
        if nm is not None:
            accumulate(out, nm[0], c * nm[1])
    return CEChainElement(x.space, x.variant, profile or x.profile, out,
                          already_canonical=True)


def _key_product(space: SymplecticSpace, k1, k2):
    """Memoized product of two chain keys: the sorted key with its sign,
    the nu-crossing sign folded in, or None when it vanishes."""
    memo_key = ("chain_product", k1, k2)
    found = space.memo.get(memo_key, _MISSING)
    if found is _MISSING:
        (G1, N1, bl1), (G2, N2, bl2) = k1, k2
        found = sort_blocks(space, G1 + G2, N1 + N2, bl1 + bl2)
        # the nu-prefix of the right key crosses every block of the left
        left_par = sum(block_parity(space, b) for b in bl1)
        if found is not None and N2 * space.nu_parity * left_par & 1:
            found = found[0], -found[1]
        space.memo[memo_key] = found
    return found


def chain_mul(a: CEChainElement, b: CEChainElement) -> CEChainElement:
    """Graded product: concatenate block lists, nu-prefix crossing the left.
    A pair past the order or block cap of a's profile is not formed."""
    a._check_compatible(b)
    space = a.space
    max_order, max_blocks = a.profile.P, a.profile.K
    right = [(key, chain_order(key), len(key[2]), c2)
             for key, c2 in b.terms.items()]
    out: dict = {}
    for key1, c1 in a.terms.items():
        room = max_order - chain_order(key1)
        slots = max_blocks - len(key1[2])
        for key2, order2, count2, c2 in right:
            if order2 > room or count2 > slots:
                continue
            found = _key_product(space, key1, key2)
            if found is not None:
                accumulate(out, found[0],
                           (c1 if found[1] > 0 else -c1) * c2)
    return a.replace_terms(out)


def _key_delta(space: SymplecticSpace, key, with_nu: bool):
    """Memoized outer differential of one chain key, read-only: d on each
    block plus the contraction of each pair of blocks."""
    memo_key = ("chain_delta", with_nu, key)
    found = space.memo.get(memo_key)
    if found is not None:
        return found
    G, N, blocks = key
    nu_par = space.nu_parity
    out: dict = {}
    r = len(blocks)
    bpars = [block_parity(space, b) for b in blocks]
    for i in range(r):
        pre = sum(bpars[:i]) & 1
        for (g2, n2, ws2), c2 in _key_differential(
                space, (0, 0, blocks[i])).items():
            if not ws2 or (not with_nu and n2):
                continue
            cpar = (tensor_parity(space, (g2, n2, ws2)) - bpars[i]) & 1
            flip = (cpar * (N * nu_par + pre) + n2 * nu_par * pre) & 1
            nb = blocks[:i] + (ws2,) + blocks[i + 1:]
            nm = sort_blocks(space, G + g2, N + n2, nb)
            if nm is None:
                continue
            sign = -nm[1] if flip else nm[1]
            accumulate(out, nm[0], c2 if sign > 0 else -c2)
    for i in range(r):
        for j in range(i + 1, r):
            pre_i = sum(bpars[:i]) & 1
            pre_j = (sum(bpars[:j]) - bpars[i]) & 1
            flip = (bpars[i] * pre_i + bpars[j] * pre_j + bpars[i]) & 1
            rest = tuple(b for l, b in enumerate(blocks) if l not in (i, j))
            bracket_into_block(out, space, G, N, -1 if flip else 1,
                               (0, 0, blocks[i]), (0, 0, blocks[j]),
                               bpars[i] + bpars[j], rest, with_nu)
    found = space.memo[memo_key] = MappingProxyType(out)
    return found


def chain_delta(x: CEChainElement) -> CEChainElement:
    """Outer differential: d on one block plus bracket contraction of pairs."""
    if x.variant == "hq2":
        return x.replace_terms({})
    with_nu = x.variant == "lgv"
    out: dict = {}
    for key, c in x.terms.items():
        _add_scaled(out, c, _key_delta(x.space, key, with_nu))
    return x.replace_terms(out)


def bracket_into_block(out: dict, space: SymplecticSpace, G: int, N: int,
                       sign: int, k1, k2, consumed: int, rest: tuple,
                       with_nu: bool) -> None:
    """Accumulate sign * [k1, k2] of two tensor keys into out as one block
    in front of rest, in place of blocks of total parity consumed of a
    chain with prefixes G, N.  Results without words or with a nu outside
    the variant drop; the contracted parity (result's less consumed)
    crosses the N nu's.  sign (+1 or -1) is the caller's front-loading
    sign.  The blocks of rest and of the bracket are canonical, so only
    the outer sort runs."""
    nu_par = space.nu_parity
    for (g2, n2, ws2), c2 in _key_bracket(space, k1, k2).items():
        if not ws2 or (not with_nu and n2):
            continue
        cpar = (tensor_parity(space, (g2, n2, ws2)) - consumed) & 1
        nm = sort_blocks(space, G + g2, N + n2, (ws2,) + rest)
        if nm is None:
            continue
        s = -nm[1] if cpar * N * nu_par & 1 else nm[1]
        accumulate(out, nm[0], c2 if s == sign else -c2)


def chain_coproduct(x: CEChainElement) -> dict:
    """Unshuffle of chain blocks; blocks carry their block parity."""
    return unshuffle(x.terms, lambda b: block_parity(x.space, b))
