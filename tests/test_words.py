import re
from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import given, strategies as st

from necklie import (Hamiltonian, SymplecticSpace, UsageError,
                     canonical_words, normalize_word, two_dim_space)
from necklie.words import rotations, scaled_sum

from oracles import canonical_by_swaps, linear_rotations, necklace_classes


def all_seqs(size, max_len):
    for length in range(1, max_len + 1):
        yield from product(range(size), repeat=length)


def test_normalization_matches_swap_oracle_1d(sp1):
    for seq in all_seqs(1, 9):
        assert normalize_word(sp1, seq) == canonical_by_swaps(sp1.parities, seq)


def test_normalization_matches_swap_oracle_2d(sp2):
    for seq in all_seqs(2, 6):
        assert normalize_word(sp2, seq) == canonical_by_swaps(sp2.parities, seq)


def test_rotation_signs_match_swap_oracle(sp2):
    for seq in all_seqs(2, 5):
        got = list(rotations(sp2, seq))
        want = linear_rotations(sp2.parities, seq)
        assert got == want


def test_single_odd_generator_kills_even_lengths(sp1):
    for k in range(1, 10):
        nm = normalize_word(sp1, (0,) * k)
        if k % 2 == 0:
            assert nm is None
        else:
            assert nm == ((0,) * k, 1)


def test_canonical_words_enumerates_necklace_classes(sp2):
    for length in range(1, 6):
        got = {w for w in canonical_words(sp2, length) if len(w) == length}
        assert got == necklace_classes(sp2.parities, 2, length)


def test_canonical_words_order_and_parity_filter(sp2):
    ws = canonical_words(sp2, 3)
    assert ws == sorted(ws, key=lambda w: (len(w), w))
    odd = canonical_words(sp2, 3, parity=1)
    assert odd and all(sp2.word_parity(w) == 1 for w in odd)
    assert set(odd) <= set(ws)


@given(st.lists(st.integers(0, 1), min_size=1, max_size=7), st.integers(0, 6))
def test_normalize_is_rotation_invariant(sp2, letters, shift):
    """Any rotation of a word normalizes to the same necklace, with the
    coefficient ratio given by the accumulated rotation sign."""
    seq = tuple(letters)
    rots = linear_rotations(sp2.parities, seq)
    rot, sign = rots[shift % len(seq)]
    base = normalize_word(sp2, seq)
    moved = normalize_word(sp2, rot)
    if base is None:
        assert moved is None
    else:
        assert moved is not None
        assert moved[0] == base[0]
        assert moved[1] * sign == base[1]


def test_normalize_rejects_bad_input(sp1):
    with pytest.raises(UsageError):
        normalize_word(sp1, ())
    with pytest.raises(UsageError):
        normalize_word(sp1, (3,))
    # (0.0,) hashes like (0,), whose canonical form is memoized by now
    assert normalize_word(sp1, (0,)) == ((0,), 1)
    with pytest.raises(UsageError):
        normalize_word(sp1, (0.0,))


def test_hamiltonian_merges_rotations(sp2):
    # xxi and its rotation xix are the same necklace with sign +1
    h = Hamiltonian(sp2, {(0, 0, 1): Fraction(1), (0, 1, 0): Fraction(2)})
    assert h.terms == {(0, 0, 1): Fraction(3)}


def test_hamiltonian_drops_zero_necklaces_and_truncates(sp2):
    h = Hamiltonian(sp2, {(1, 1): 1, (0, 0, 0): 2}, max_length=2)
    assert h.terms == {}          # xi xi is zero, xxx is too long
    assert h.is_zero()


def test_hamiltonian_parity_and_slices(sp2):
    h = Hamiltonian(sp2, {(0,): 1, (0, 0, 1): 1})
    assert h.parity() is None                 # mixed
    assert Hamiltonian(sp2, {(0, 1): 1}).parity() == 1


def test_hamiltonian_add_and_scale(sp1):
    a = Hamiltonian(sp1, {(0, 0, 0): Fraction(1, 2)})
    b = Hamiltonian(sp1, {(0, 0, 0): Fraction(1, 2), (0,): 1})
    s = a + b.scale(-1)
    assert s.terms == {(0,): Fraction(-1)}
    with pytest.raises(UsageError):
        a + Hamiltonian(two_dim_space(), {})


def test_space_takes_exact_form_entries_only():
    """A float pairing would make every bracket coefficient inexact, so
    form entries pass the coefficient rule: a float raises, and an int
    is stored as a Fraction."""
    with pytest.raises(UsageError, match="0.1"):
        SymplecticSpace(("t",), (1,), ((0.1,),), 0)
    space = SymplecticSpace(("t",), (1,), ((2,),), 0)
    assert type(space.form[0][0]) is Fraction
    assert space.omega == ((Fraction(1, 2),),)
    assert space == SymplecticSpace(("t",), (1,), ((Fraction(2),),), 0)


def test_scaled_sum_cancels_across_denominators_and_normalizes():
    """Each (num, den, items) adds num/den times every value of items; a
    key whose terms of different denominators cancel (1/2 + 1/3 - 5/6)
    is dropped, and each kept key holds one normalized nonzero Fraction,
    in order of first appearance."""
    got = scaled_sum([
        (1, 2, {"a": 1, "b": Fraction(3, 4)}.items()),
        (1, 3, [("a", 1), ("c", Fraction(-1, 5))]),
        (-5, 6, [("a", 1)]),
        (2, 1, [("b", Fraction(1, 8)), ("c", 1), ("d", 0)]),
        (1, 4, [("e", 2)]),
    ])
    assert got == {"b": Fraction(5, 8), "c": Fraction(29, 15),
                   "e": Fraction(1, 2)}
    assert list(got) == ["b", "c", "e"]
    for value in got.values():
        assert type(value) is Fraction and value != 0
        assert gcd(value.numerator, value.denominator) == 1
    assert (got["e"].numerator, got["e"].denominator) == (1, 2)
    assert scaled_sum([]) == {}
    assert scaled_sum(iter([(3, 1, []), (0, 1, [("a", 1)])])) == {}


@pytest.mark.parametrize("value", ["abc", None, [1], "1/0"], ids=repr)
def test_non_rational_input_raises_usage_error_naming_it(sp2, value):
    """Hamiltonian terms, scalar and scale and the form entries of a space
    go through one coefficient rule, which refuses what is not a rational
    with UsageError and names it, instead of a bare ValueError, TypeError
    or ZeroDivisionError."""
    named = re.escape(repr(value))
    with pytest.raises(UsageError, match=named):
        Hamiltonian(sp2, {(0, 0): value})
    with pytest.raises(UsageError, match=named):
        Hamiltonian(sp2, {(0, 0): 1}, scalar=value)
    with pytest.raises(UsageError, match=named):
        Hamiltonian(sp2, {(0, 0): 1}).scale(value)
    with pytest.raises(UsageError, match=named):
        SymplecticSpace(("t",), (1,), ((value,),), 0)
    with pytest.raises(UsageError, match=named):
        SymplecticSpace(("x", "xi"), (0, 1), ((0, value), (-1, 0)), 1)


def test_hamiltonian_refuses_float_coefficients(sp2):
    """A float is not the number it was typed as, so terms, scalar and
    scale refuse one and name it; exact strings and Fractions pass."""
    with pytest.raises(UsageError, match="0.1"):
        Hamiltonian(sp2, {(0, 0): 0.1})
    with pytest.raises(UsageError, match="0.5"):
        Hamiltonian(sp2, {(0, 0): 1}, scalar=0.5)
    h = Hamiltonian(sp2, {(0, 0): "1/10"}, scalar=Fraction(1, 2))
    assert h.terms == {(0, 0): Fraction(1, 10)}
    with pytest.raises(UsageError, match="0.25"):
        h.scale(0.25)
    assert h.scale("1/4").terms == {(0, 0): Fraction(1, 40)}
