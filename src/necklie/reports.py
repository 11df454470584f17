"""Structured report payloads; every rational serializes as a string."""

from __future__ import annotations

import json
from fractions import Fraction

from .cecomplex import LambdaElement
from .chains import CEChainElement
from .exprs import (render_chain_terms, render_hamiltonian, render_rational,
                    render_terms)
from .words import Hamiltonian


def element_payload(x: LambdaElement) -> dict:
    return terms_payload(x.space, x.terms)


def hamiltonian_payload(h: Hamiltonian) -> dict:
    names = h.space.names
    return {
        "expr": render_hamiltonian(h),
        "terms": [{"words": [[names[i] for i in w]],
                   "coeff": render_rational(h.terms[w])}
                  for w in sorted(h.terms, key=lambda w: (len(w), w))],
    }


def chain_payload(c: CEChainElement) -> dict:
    names = c.space.names
    return {
        "display": render_chain_terms(c.space, c.terms),
        "terms": [{"gamma": G, "nu": N,
                   "blocks": [[[names[i] for i in w] for w in b]
                              for b in blocks],
                   "coeff": render_rational(c.terms[(G, N, blocks)])}
                  for (G, N, blocks) in sorted(c.terms)],
    }


def terms_payload(space, terms: dict) -> dict:
    names = space.names
    return {
        "expr": render_terms(space, terms),
        "terms": [{"gamma": g, "nu": n,
                   "words": [[names[i] for i in w] for w in ws],
                   "coeff": render_rational(terms[(g, n, ws)])}
                  for (g, n, ws) in sorted(terms)],
    }


def _stringify(value):
    if isinstance(value, Fraction):
        return render_rational(value)
    if isinstance(value, dict):
        return {str(k): _stringify(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_stringify(v) for v in value]
    return value


def dump_json(payload: dict) -> str:
    return json.dumps(_stringify(payload), indent=2, sort_keys=True)
