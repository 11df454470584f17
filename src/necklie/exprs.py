"""Parsing and rendering of element expressions.

Grammar (whitespace insensitive, '*' between factors optional):

    element := ['-'] term (('+'|'-') term)*
    term    := rational ('*' factor)*
    factor  := 'g^'INT | 'v^'INT | word
    word    := 'w[' NAME (',' NAME)* ']'

gamma is spelled g and nu is spelled v; juxtaposed words multiply in the
symmetric algebra.  Rendering emits one canonical form per element and
parsing it back reproduces the element exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .cecomplex import (LambdaElement, TruncationProfile, unbounded_profile)
from .errors import UsageError
from .space import SymplecticSpace, render_rational
from .words import Hamiltonian, accumulate


class ExpressionError(UsageError):
    """Syntax or lookup failure, carrying the source position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


_TOKEN = re.compile(r"""
      (?P<ws>\s+)
    | (?P<rational>\d+(?:\s*/\s*\d+)?)
    | (?P<gamma>g\^\d+)
    | (?P<nu>v\^\d+)
    | (?P<word>w\[[^\]]*\])
    | (?P<plus>\+)
    | (?P<minus>-)
    | (?P<star>\*)
""", re.VERBOSE)

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append((m.lastgroup, m.group(), pos))
        pos = m.end()
    return tokens


def _parse_word(space: SymplecticSpace, token: str, pos: int):
    inner = token[2:-1]
    names = [p.strip() for p in inner.split(",")]
    letters = []
    for name in names:
        if not _NAME.match(name):
            raise ExpressionError(f"bad generator name {name!r}", pos)
        try:
            letters.append(space.index(name))
        except UsageError:
            raise ExpressionError(f"unknown generator {name!r}", pos) from None
    if not letters:
        raise ExpressionError("a word needs at least one letter", pos)
    return tuple(letters)


def _parse_terms(text: str, space: SymplecticSpace):
    """List of (coeff, gamma, nu, words, position) straight from the text."""
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression", 0)
    out = []
    i = 0
    sign = 1
    if tokens[0][0] == "minus":
        sign = -1
        i = 1
    while True:
        if i >= len(tokens) or tokens[i][0] != "rational":
            pos = tokens[i][2] if i < len(tokens) else len(text)
            raise ExpressionError("expected a rational coefficient", pos)
        kind, tok, pos = tokens[i]
        coeff = sign * Fraction(tok.replace(" ", ""))
        term_pos = pos
        i += 1
        gamma = nu = 0
        words = []
        while i < len(tokens) and tokens[i][0] in ("star", "gamma", "nu",
                                                   "word"):
            if tokens[i][0] == "star":
                i += 1
                if i >= len(tokens) or tokens[i][0] not in ("gamma", "nu",
                                                            "word"):
                    pos = tokens[i][2] if i < len(tokens) else len(text)
                    raise ExpressionError("expected a factor after '*'", pos)
                continue
            kind, tok, pos = tokens[i]
            if kind == "gamma":
                gamma += int(tok[2:])
            elif kind == "nu":
                nu += int(tok[2:])
            else:
                words.append(_parse_word(space, tok, pos))
            i += 1
        out.append((coeff, gamma, nu, tuple(words), term_pos))
        if i >= len(tokens):
            return out
        if tokens[i][0] == "plus":
            sign = 1
        elif tokens[i][0] == "minus":
            sign = -1
        else:
            raise ExpressionError("expected '+' or '-' between terms",
                                  tokens[i][2])
        i += 1


def parse_expression(text: str, space: SymplecticSpace,
                     variant: str = "lgv",
                     profile: TruncationProfile | None = None
                     ) -> LambdaElement:
    """Parse into a canonical element of the chosen variant."""
    profile = profile or unbounded_profile()
    terms: dict = {}
    for coeff, gamma, nu, words, _pos in _parse_terms(text, space):
        if coeff == 0:
            continue
        if not words and gamma == 0 and nu == 0:
            raise UsageError("constant terms do not belong to the complex; "
                             "only 0 parses to the zero element")
        accumulate(terms, (gamma, nu, words), coeff)
    return LambdaElement(space, variant, profile, terms)


def parse_hamiltonian(text: str, space: SymplecticSpace,
                      max_length: int | None = None) -> Hamiltonian:
    """Parse a sum of single words (no gamma or nu factors)."""
    terms: dict = {}
    for coeff, gamma, nu, words, pos in _parse_terms(text, space):
        if coeff == 0:
            continue
        if gamma or nu:
            raise ExpressionError(
                "hamiltonians take only word factors", pos)
        if len(words) != 1:
            raise ExpressionError(
                "hamiltonian terms are single words", pos)
        accumulate(terms, words[0], coeff)
    return Hamiltonian(space, terms, max_length=max_length)


# ---------------------------------------------------------------------------
# rendering


def render_word(space: SymplecticSpace, word) -> str:
    return "w[" + ",".join(space.names[i] for i in word) + "]"


def _render_term(space, coeff, g, n, words) -> str:
    parts = [render_rational(abs(coeff))]
    if g:
        parts.append(f"g^{g}")
    if n:
        parts.append(f"v^{n}")
    parts.extend(render_word(space, w) for w in words)
    return " * ".join(parts)


def render_terms(space: SymplecticSpace, terms: dict) -> str:
    """Canonical text for {(g, n, words): coeff}; key-sorted, zero -> \"0\"."""
    if not terms:
        return "0"
    chunks = []
    for (g, n, words) in sorted(terms):
        coeff = terms[(g, n, words)]
        body = _render_term(space, coeff, g, n, words)
        if not chunks:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)


def render_element(x: LambdaElement) -> str:
    return render_terms(x.space, x.terms)


def render_hamiltonian(h: Hamiltonian) -> str:
    return render_terms(h.space, {(0, 0, (w,)): c for w, c in h.terms.items()})


def render_chain_terms(space: SymplecticSpace, terms: dict) -> str:
    """Display form for chains; blocks in braces.  Not re-parseable."""
    if not terms:
        return "0"
    chunks = []
    for (G, N, blocks) in sorted(terms, key=lambda k: (len(k[2]), k)):
        coeff = terms[(G, N, blocks)]
        parts = [render_rational(abs(coeff))]
        if G:
            parts.append(f"g^{G}")
        if N:
            parts.append(f"v^{N}")
        for block in blocks:
            parts.append(
                "{" + " ".join(render_word(space, w) for w in block) + "}")
        body = " * ".join(parts)
        if not chunks:
            chunks.append(("-" if coeff < 0 else "") + body)
        else:
            chunks.append(("- " if coeff < 0 else "+ ") + body)
    return " ".join(chunks)
