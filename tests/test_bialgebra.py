from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, strategies as st

from necklie import (Hamiltonian, SymplecticSpace, UsageError, bracket,
                     check_bialgebra_axioms, cobracket, normalize_word,
                     one_dim_space, two_dim_space)
from necklie.bialgebra import bracket_raw, cobracket_raw
from necklie.words import canonical_words, rotations

from oracles import (canonical_by_swaps, linear_rotations, omega_matrix,
                     oracle_bracket, oracle_cobracket)

X, XI = (0,), (1,)

# hand-checked values, independently reproduced by the swap-sign oracle
BRACKET_GOLDENS_2D = {
    (XI, (0, 0)): {(0,): Fraction(-2)},
    (XI, (0, 1)): {(1,): Fraction(-1)},
    (X, (0, 1)): {(0,): Fraction(1)},
    ((0, 0), (0, 1)): {(0, 0): Fraction(2)},
    ((0, 0, 0), (1, 1, 1)): {(0, 0, 1, 1): Fraction(9)},
    ((0, 1, 1), (0, 0, 1)): {(0, 0, 1, 1): Fraction(-1)},
}

COBRACKET_GOLDENS_2D = {
    (0, 1, 1): {((1,), None): Fraction(-1), (None, (1,)): Fraction(1)},
    (0, 1, 1, 1): {((1,), (1,)): Fraction(-1)},
    (0, 0, 1, 1): {((0, 1), None): Fraction(-1), (None, (0, 1)): Fraction(1),
                   ((0,), (1,)): Fraction(1), ((1,), (0,)): Fraction(-1)},
}


def _omega(space):
    return omega_matrix([[space.form[i][j] for j in range(space.size)]
                         for i in range(space.size)])


def test_bracket_goldens(sp2):
    for (a, b), want in BRACKET_GOLDENS_2D.items():
        terms, _sc = bracket_raw(sp2, a, b)
        assert terms == want, (a, b)


def test_bracket_scalar_part(sp2, sp1):
    terms, sc = bracket_raw(sp2, X, XI)
    assert terms == {} and sc == 1
    terms, sc = bracket_raw(sp1, (0,), (0,))
    assert terms == {} and sc == 1


def test_cobracket_goldens(sp2):
    for w, want in COBRACKET_GOLDENS_2D.items():
        assert cobracket_raw(sp2, w) == want


def test_bracket_matches_term_expansion_oracle(sp2):
    om = _omega(sp2)
    words = canonical_words(sp2, 4)
    for a in words:
        for b in words:
            got_terms, got_sc = bracket_raw(sp2, a, b)
            want_terms, want_sc = oracle_bracket(sp2.parities, om, a, b)
            assert got_terms == want_terms, (a, b)
            assert got_sc == want_sc, (a, b)


def test_bracket_matches_oracle_1d(sp1):
    om = _omega(sp1)
    words = canonical_words(sp1, 9)
    for a in words:
        for b in words:
            assert bracket_raw(sp1, a, b) == oracle_bracket(sp1.parities,
                                                            om, a, b)


def test_cobracket_matches_term_expansion_oracle(sp2, sp1):
    for space, bound in ((sp2, 5), (sp1, 9)):
        om = _omega(space)
        for w in canonical_words(space, bound):
            got = cobracket_raw(space, w)
            assert got == oracle_cobracket(space.parities, om, w), w


def test_short_words_have_zero_cobracket(sp2):
    for w in canonical_words(sp2, 2):
        if len(w) < 3:
            pairs = cobracket_raw(sp2, w)
            # length-1 words can only produce empty-empty pairs, which
            # cancel; length-2 likewise after symmetrization
            assert all(k == (None, None) for k in pairs) or not pairs


def test_hamiltonian_bracket_drops_scalars(sp1, sp2):
    a = Hamiltonian(sp2, {X: 1})
    b = Hamiltonian(sp2, {XI: 1})
    out = bracket(a, b)
    assert out.is_zero()          # {x, xi} is scalar, central in h_{>=1}
    with pytest.raises(UsageError):
        bracket(a, Hamiltonian(sp1, {(0,): 1}))


def test_bracket_respects_length_bound(sp2):
    a = Hamiltonian(sp2, {(0, 0, 0): 1})
    b = Hamiltonian(sp2, {(1, 1, 1): 1})
    assert bracket(a, b).terms == {(0, 0, 1, 1): Fraction(9)}
    assert bracket(a, b, max_length=3).is_zero()


def test_cobracket_of_combination(sp2):
    h = Hamiltonian(sp2, {(0, 1, 1): 2, (0, 1, 1, 1): 3})
    val = cobracket(h)
    assert val.pairs == {
        ((1,), None): Fraction(-2), (None, (1,)): Fraction(2),
        ((1,), (1,)): Fraction(-3)}
    assert not val.is_zero()
    assert cobracket(Hamiltonian(sp2, {(0, 0): 1})).is_zero()


@given(st.integers(-3, 3), st.integers(-3, 3))
def test_bracket_is_bilinear(sp2, c1, c2):
    a = Hamiltonian(sp2, {(0, 0): c1, (0, 1): c2})
    b = Hamiltonian(sp2, {(1,): 1, (0, 0, 1): -2})
    parts = (bracket(Hamiltonian(sp2, {(0, 0): c1}), b)
             + bracket(Hamiltonian(sp2, {(0, 1): c2}), b))
    assert bracket(a, b).terms == parts.terms


def test_axiom_suite_passes_on_both_spaces(sp1, sp2):
    for space in (sp1, sp2):
        rep = check_bialgebra_axioms(space, max_length=4, samples=25, seed=11)
        assert rep.passed, [r.witness for r in rep.results.values()
                            if not r.passed]
        assert all(r.checked > 0 for r in rep.results.values())


def test_axiom_suite_is_seed_deterministic(sp2):
    a = check_bialgebra_axioms(sp2, max_length=4, samples=10, seed=5)
    b = check_bialgebra_axioms(sp2, max_length=4, samples=10, seed=5)
    assert [(r.name, r.checked) for r in a.results.values()] == \
           [(r.name, r.checked) for r in b.results.values()]


# ---------------------------------------------------------------------------
# the word-layer memo each space owns


def _halved_one_dim_space():
    """Like one_dim_space, but <t,t> = 2, so every pairing is halved."""
    return SymplecticSpace(("t",), (1,), ((Fraction(2),),), 0)


def _three_generator_space():
    """Odd a with <a,a> = 1 beside even p, q with <p,q> = 1 = -<q,p>."""
    z, o = Fraction(0), Fraction(1)
    return SymplecticSpace(("a", "p", "q"), (1, 0, 0),
                           ((o, z, z), (z, z, o), (z, -o, z)), 0)


def test_word_operations_reject_invalid_words():
    """Indices are checked before the memo is consulted: -1 would wrap to
    the last generator, and (0.0,) hashes like the cached (0,)."""
    sp = two_dim_space()
    assert bracket_raw(sp, (0,), (0, 1))[0] == {(0,): 1}
    assert cobracket_raw(sp, (0, 1, 1))
    for bad in ((-1,), (2,), (0.0,), (), (0, "x")):
        with pytest.raises(UsageError):
            bracket_raw(sp, bad, (0,))
        with pytest.raises(UsageError):
            bracket_raw(sp, (0, 1), bad)
        with pytest.raises(UsageError):
            cobracket_raw(sp, bad)
    with pytest.raises(UsageError):
        bracket_raw(sp, (0.0,), (0.0, 1.0))
    with pytest.raises(UsageError):
        cobracket_raw(sp, (0.0, 1.0, 1.0))


def test_memo_belongs_to_the_instance_not_its_id():
    """Fresh spaces reuse the ids of dropped ones; their brackets differ."""
    for round_ in range(50):
        if round_ % 2:
            space, want = _halved_one_dim_space(), Fraction(1, 2)
        else:
            space, want = one_dim_space(), Fraction(1)
        terms, scalar = bracket_raw(space, (0,), (0,))
        assert terms == {} and scalar == want, round_
        del space   # freed before the next one is built, which takes its id


def test_hits_and_misses_match_the_oracles():
    """Each input twice on a fresh space: a miss, then a hit."""
    for space, bound in ((one_dim_space(), 7), (_halved_one_dim_space(), 7),
                         (two_dim_space(), 4), (_three_generator_space(), 3)):
        pars = space.parities
        om = omega_matrix([list(row) for row in space.form])
        seqs = [seq for n in range(1, bound + 1)
                for seq in product(range(space.size), repeat=n)]
        for _ in range(2):
            for seq in seqs:
                assert normalize_word(space, seq) == \
                    canonical_by_swaps(pars, seq), seq
                assert list(rotations(space, seq)) == \
                    linear_rotations(pars, seq), seq
                assert cobracket_raw(space, seq) == \
                    oracle_cobracket(pars, om, seq), seq
        words = canonical_words(space, bound)
        for _ in range(2):
            for a in words:
                for b in words:
                    assert bracket_raw(space, a, b) == \
                        oracle_bracket(pars, om, a, b), (a, b)


def test_memoized_results_are_read_only(sp2):
    terms, _scalar = bracket_raw(sp2, (0, 0), (0, 1))
    with pytest.raises(TypeError):
        terms[(0,)] = Fraction(5)
    pairs = cobracket_raw(sp2, (0, 0, 1, 1))
    with pytest.raises(TypeError):
        del pairs[((0, 1), None)]
    assert bracket_raw(sp2, (0, 0), (0, 1))[0] == {(0, 0): Fraction(2)}
