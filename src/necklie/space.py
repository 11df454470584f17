"""Graded vector spaces with an exact pairing between generators.

A space is a finite ordered list of generators, each with a parity bit,
together with an invertible rational matrix B whose entry B[i][j] pairs
generator i with generator j.  The matrix is homogeneous of a fixed parity
(``form_parity``): B[i][j] = 0 unless parity(i) + parity(j) agrees with it
mod 2, and B obeys the graded rule

    B[j][i] == -(-1)**(parity(i)*parity(j)) * B[i][j]

for either form parity.  The inverse matrix induces the pairing on dual
generators used throughout: omega[i][j] = (B^{-1})[j][i].
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import wraps

from .errors import UsageError


def exact_fraction(value) -> Fraction:
    """A user coefficient as a Fraction, or UsageError naming the value: a
    float, because a binary float is not the number it was typed as
    (Fraction(0.1) is 3602879701896397/36028797018963968), so it never
    enters exact data, and anything Fraction does not read as a rational,
    such as "abc", None or [1]."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise UsageError(f"coefficient {value!r} is a float; give an int, "
                         f"a Fraction or a string such as '1/10'")
    try:
        return Fraction(value)
    except (TypeError, ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"coefficient {value!r} is not a rational number; "
                         f"give an int, a Fraction or a string such as "
                         f"'1/10'") from exc


def parse_rational(text) -> Fraction:
    """Read an exact rational from a string like '3', '-1/2', or '7/1'."""
    if isinstance(text, Fraction):
        return text
    if isinstance(text, int):
        return Fraction(text)
    try:
        return Fraction(str(text).strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"not a rational number: {text!r}") from exc


def render_rational(q: Fraction) -> str:
    """Render a rational as 'p' or 'p/q' with no whitespace."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def _invert(matrix):
    """Exact inverse of a square Fraction matrix by Gauss-Jordan."""
    n = len(matrix)
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(matrix)]
    for col in range(n):
        piv = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if piv is None:
            raise UsageError("pairing matrix is singular")
        aug[col], aug[piv] = aug[piv], aug[col]
        inv = Fraction(1) / aug[col][col]
        aug[col] = [v * inv for v in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[col])]
    return tuple(tuple(row[n:]) for row in aug)


@dataclass(frozen=True)
class SymplecticSpace:
    """Ordered generators with parities and an invertible graded pairing.

    Form entries are stored as ``Fraction``; a float raises UsageError.

    ``memo`` holds the memoized results of the word, tensor, basis and
    chain layers of this instance, filled through ``memoized`` (which
    states the rule) under these keys:

    ==================  ===============================  ==================
    tag                 function                         arguments
    ==================  ===============================  ==================
    ``rotations``       ``words.rotations``              letters
    ``canonical``       ``words._canonical``             letters
    ``bracket``         ``bialgebra._bracket``           A, B
    ``cobracket``       ``bialgebra._cobracket``         W
    ``differential``    ``cecomplex._key_differential``  key
    ``tensor_bracket``  ``cecomplex._key_bracket``       k1, k2
    ``basis``           ``linalg._enumerate``            slice spec
    ``chain_product``   ``chains._key_product``          k1, k2
    ``chain_delta``     ``chains._key_delta``            with_nu, key
    ``chain_rate``      ``mc._key_rate``                 with_nu, ykey, ckey
    ``chain_pool``      ``mc._chain_pool``               variant, profile,
                                                         limit
    ==================  ===============================  ==================

    The memo starts empty, is never shared, and lives and dies with the
    instance; it takes no part in equality or hashing.
    """

    names: tuple[str, ...]
    parities: tuple[int, ...]
    form: tuple[tuple[Fraction, ...], ...]
    form_parity: int
    omega: tuple[tuple[Fraction, ...], ...] = field(init=False, repr=False,
                                                    compare=False)
    memo: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def __post_init__(self):
        n = len(self.names)
        if n == 0:
            raise UsageError("a space needs at least one generator")
        if len(set(self.names)) != n:
            raise UsageError("generator names must be distinct")
        if len(self.parities) != n or any(p not in (0, 1) for p in self.parities):
            raise UsageError("each generator needs a parity bit 0 or 1")
        if self.form_parity not in (0, 1):
            raise UsageError("form parity must be 0 or 1")
        if len(self.form) != n or any(len(row) != n for row in self.form):
            raise UsageError("pairing matrix must be square of generator size")
        object.__setattr__(self, "form", tuple(
            tuple(exact_fraction(v) for v in row) for row in self.form))
        for i in range(n):
            for j in range(n):
                bij = self.form[i][j]
                if (self.parities[i] + self.parities[j]) % 2 != self.form_parity:
                    if bij != 0:
                        raise UsageError(
                            f"form entry ({i},{j}) must vanish: parity mismatch")
                sign = -(-1) ** (self.parities[i] * self.parities[j])
                if self.form[j][i] != sign * bij:
                    raise UsageError(
                        f"form entry ({j},{i}) breaks the graded symmetry rule")
        inv = _invert([list(row) for row in self.form])
        # pairing on dual generators: omega[i][j] = (B^{-1})[j][i]
        omega = tuple(tuple(inv[j][i] for j in range(n)) for i in range(n))
        object.__setattr__(self, "omega", omega)

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def nu_parity(self) -> int:
        """Parity of the formal deformation letter nu: odd iff form is even."""
        return 0 if self.form_parity == 1 else 1

    def index(self, name: str) -> int:
        try:
            return self.names.index(name)
        except ValueError:
            raise UsageError(f"unknown generator: {name!r}") from None

    def parity(self, i: int) -> int:
        return self.parities[i]

    def pairing(self, i: int, j: int) -> Fraction:
        """Pairing of dual generators i and j; zero off the parity shell."""
        return self.omega[i][j]

    def word_parity(self, word) -> int:
        return sum(self.parities[g] for g in word) & 1

    @classmethod
    def from_json(cls, data) -> "SymplecticSpace":
        if isinstance(data, str):
            data = json.loads(data)
        try:
            gens = data["generators"]
            form = data["form"]
            fp = int(data["form_parity"])
        except (KeyError, TypeError, ValueError) as exc:
            raise UsageError(f"malformed space description: {exc}") from exc
        names = tuple(str(g["name"]) for g in gens)
        parities = tuple(int(g["parity"]) for g in gens)
        matrix = tuple(tuple(parse_rational(v) for v in row) for row in form)
        return cls(names, parities, matrix, fp)

    def to_json(self) -> dict:
        return {
            "generators": [{"name": n, "parity": p}
                           for n, p in zip(self.names, self.parities)],
            "form": [[render_rational(v) for v in row] for row in self.form],
            "form_parity": self.form_parity,
        }

    @classmethod
    def load(cls, path) -> "SymplecticSpace":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_json(json.load(fh))


_MISS = object()


def memoized(tag: str):
    """Decorator memoizing ``body(space, *args)`` in ``space.memo``.

    This is the memo rule of every layer.  The key is ``(tag,) + args``,
    the positional arguments after the space, so callers pass them
    positionally and never a coefficient: the memo grows with the
    distinct words, keys, key pairs and specs used, not with the number
    of calls.  On a miss the body runs and its result is stored; on a hit
    the stored result is returned, a stored None included.  Results are
    shared, so a body returns a read-only value (a tuple, a
    ``MappingProxyType``, a frozen object or None).  The arguments must be
    valid: the public boundary checks its input before the lookup,
    because ``(0.0,)`` hashes like ``(0,)`` and a hit must not accept what
    a miss would reject.  A body calls none of the functions
    ``bench/spans.py`` traces, so a warm space makes the same traced
    calls as a cold one.  The tags in use are listed in the
    ``SymplecticSpace`` docstring.
    """
    prefix = (tag,)

    def decorate(body):
        @wraps(body)
        def lookup(space, *args):
            key = prefix + args
            found = space.memo.get(key, _MISS)
            if found is _MISS:
                found = space.memo[key] = body(space, *args)
            return found
        return lookup
    return decorate


def one_dim_space() -> SymplecticSpace:
    """The one-generator space: a single odd generator t with <t,t> = 1."""
    return SymplecticSpace(("t",), (1,), ((Fraction(1),),), 0)


def two_dim_space() -> SymplecticSpace:
    """Even x and odd xi with odd pairing <x,xi> = 1 = -<xi,x>."""
    zero, one = Fraction(0), Fraction(1)
    return SymplecticSpace(("x", "xi"), (0, 1),
                           ((zero, one), (-one, zero)), 1)
