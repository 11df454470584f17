"""Spans and counts recorded from outside the program.

The tracer replaces the listed public functions of each necklie module by
wrappers, in every necklie module namespace that holds them and in the
calling modules it is given (modules import each other's functions by
name), and puts the originals back when it is removed.  Each call
records a span (name, start, end, parent span, job); self time is the
span's duration minus the time its traced children cover, accumulated as
calls return.  Size counts are taken at the same call boundaries.
"""

import json
import sys
import time
from collections import defaultdict

PACKAGE = "necklie"

TRACED = {
    "words": ("normalize_word", "canonical_words"),
    "bialgebra": ("bracket_raw", "cobracket_raw"),
    "cecomplex": ("normalize_tensor", "raw_bracket", "raw_differential",
                  "raw_extend_cobracket"),
    "chains": ("chain_normalize", "chain_mul", "chain_delta"),
    "linalg": ("enumerate_basis", "matrix_of_operator", "solve_and_kernel",
               "homology_dims"),
    "obstruction": ("lift", "obstruction_class", "extension_space",
                    "hochschild_cohomology", "kunneth_check"),
    "mc": ("mc_residual", "gauge_act", "exp_chain", "homotopy_check",
           "char_class"),
    "exprs": ("parse_expression", "parse_hamiltonian", "render_element"),
    "reports": ("dump_json",),
    "cli": ("build_parser", "main"),
}

TRACED_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)

# the functions every workload calls: their self times go into the result
# line; a self time that reads 0 on every run of a workload is kept out
SELF_TIMED = ("words.normalize_word", "words.canonical_words",
              "bialgebra.bracket_raw", "cecomplex.normalize_tensor",
              "cecomplex.raw_bracket")

# spans kept in memory for the trace file; calls beyond this still count
SPAN_LIMIT = 50_000


class Tracer:
    def __init__(self, callers=()):
        self.callers = tuple(callers)
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.sizes = defaultdict(int)
        self.spans = []
        self.dropped = 0
        self.job = None
        self._stack = []          # [span id, name, start, child seconds]
        self._active = defaultdict(int)
        self._next_id = 0
        self._patches = []

    # -- installation ---------------------------------------------------

    def install(self):
        mods = {name: mod for name, mod in sys.modules.items()
                if name == PACKAGE or name.startswith(PACKAGE + ".")}
        namespaces = list(mods.values()) + list(self.callers)
        for short, funcs in TRACED.items():
            home = mods[f"{PACKAGE}.{short}"]
            for fname in funcs:
                orig = getattr(home, fname)
                wrapper = self._wrap(f"{short}.{fname}", orig)
                for mod in namespaces:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._patches.append((mod, attr, orig))
                            setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    # -- recording ------------------------------------------------------

    def _wrap(self, name, fn):
        clock = time.perf_counter
        stack = self._stack
        active = self._active
        on_return = _SIZE_HOOKS.get(name)

        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else None
            frame = [span_id, name, clock(), 0.0]
            stack.append(frame)
            active[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                active[name] -= 1
                stack.pop()
                duration = end - frame[2]
                self.calls[name] += 1
                self.self_s[name] += duration - frame[3]
                if stack:
                    stack[-1][3] += duration
                if len(self.spans) < SPAN_LIMIT:
                    self.spans.append((span_id, name, frame[2], end, parent,
                                       self.job))
                else:
                    self.dropped += 1
            if on_return is not None:
                on_return(self, args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def under(self, name):
        return self._active[name] > 0

    def write(self, path):
        """Spans as JSON lines after a header line of totals."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"calls": dict(self.calls),
                                 "self_s": dict(self.self_s),
                                 "sizes": dict(self.sizes),
                                 "spans_kept": len(self.spans),
                                 "spans_dropped": self.dropped}) + "\n")
            for span_id, name, start, end, parent, job in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name,
                                     "start": start, "end": end,
                                     "parent": parent, "job": job}) + "\n")


# ---------------------------------------------------------------------------
# size counts at the call boundary


def _enumerated(tracer, args, result):
    tracer.sizes["linalg.enumerate_basis.elements"] += len(result)


def _normalized_tensor(tracer, args, result):
    if tracer.under("linalg.enumerate_basis"):
        tracer.sizes["cecomplex.normalize_tensor.under_enumerate"] += 1


def _matrix_built(tracer, args, result):
    tracer.sizes["linalg.matrix_of_operator.entries"] += len(result.entries)


def _eliminated(tracer, args, result):
    tracer.sizes["linalg.solve_and_kernel.entries"] += len(args[0].entries)
    if tracer.under("linalg.homology_dims"):
        tracer.sizes["linalg.solve_and_kernel.under_homology"] += 1


def _word_normalized(tracer, args, result):
    if result is not None:
        tracer.sizes["words.normalize_word.nonzero"] += 1


_SIZE_HOOKS = {
    "linalg.enumerate_basis": _enumerated,
    "cecomplex.normalize_tensor": _normalized_tensor,
    "linalg.matrix_of_operator": _matrix_built,
    "linalg.solve_and_kernel": _eliminated,
    "words.normalize_word": _word_normalized,
}


def ratio(num, den):
    """num / den, or 0.0 when nothing was counted in the base."""
    return num / den if den else 0.0
