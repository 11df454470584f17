"""Smoke test of the example scripts: each main(argv) runs to its exit
code, and the gauge orbit prints what it always printed."""

import hashlib
import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("script, argv, code", [
    ("lift_tower", ["--variant", "lg", "--order", "3"], 0),
    ("lift_tower", ["--order", "2"], 1),       # the lgv tower blocks
    ("gauge_orbit", ["--steps", "2"], 0),
], ids=["lift-lg", "lift-blocks", "gauge"])
def test_script_main_exits(capsys, script, argv, code):
    assert load(script).main(argv) == code
    assert capsys.readouterr().out


# the full output of scripts/gauge_orbit.py --steps 4 --seed 7; its
# 919-term endpoint class is pinned by a digest of its sorted terms
GAUGE_ORBIT_STEPS_4_SEED_7 = (
    'start: 2 * w[x,x] - 1 * g^1 * w[x,x]\n'
    'residual: 0\n'
    'step 1: y = 1 * v^1 * w[xi]\n'
    '  flowed element now has 4 terms\n'
    '  residual 0; homotopy identities hold\n'
    'step 2: y = 1/3 * w[x,x,xi]\n'
    '  flowed element now has 22 terms\n'
    '  residual 0; homotopy identities hold\n'
    'step 3: y = 1 * w[x,x,xi]\n'
    '  flowed element now has 22 terms\n'
    '  residual 0; homotopy identities hold\n'
    'step 4: y = 2 * w[x,x,xi]\n'
    '  flowed element now has 22 terms\n'
    '  residual 0; homotopy identities hold\n'
    'endpoint class: 919 chain terms; single-block part 1 + 2 * '
    '{w[x,x]} + 40/3 * {w[x,x,x]} + 200/3 * {w[x,x,x,x]} + 8000/27 '
    '* {w[x,x,x,x,x]} + 100000/81 * {w[x,x,x,x,x,x]} + 4 * v^1 * '
    '{w[x]} + 40/3 * v^1 * {w[x,x]} + 400/9 * v^1 * {w[x,x,x]} + '
    '4000/27 * v^1 * {w[x,x,x,x]} + 40000/81 * v^1 * '
    '{w[x,x,x,x,x]} + 400000/243 * v^1 * {w[x,x,x,x,x,x]} - 1 * '
    'g^1 * {w[x,x]} - 20/3 * g^1 * {w[x,x,x]} - 100/3 * g^1 * '
    '{w[x,x,x,x]} - 4000/27 * g^1 * {w[x,x,x,x,x]} - 50000/81 * '
    'g^1 * {w[x,x,x,x,x,x]} - 2 * g^1 * v^1 * {w[x]} - 20/3 * g^1 '
    '* v^1 * {w[x,x]} - 200/9 * g^1 * v^1 * {w[x,x,x]} - 2000/27 * '
    'g^1 * v^1 * {w[x,x,x,x]} - 20000/81 * g^1 * v^1 * '
    '{w[x,x,x,x,x]} - 200000/243 * g^1 * v^1 * {w[x,x,x,x,x,x]}\n'
)
ENDPOINT_CLASS_SHA256 = (
    "d1635588b5a0b08a02f233101f4bbc98ad4743bebc1902a0e62f1246d201280e")


def test_gauge_orbit_output_is_pinned(capsys):
    module = load("gauge_orbit")
    classes = []

    def keep(x):
        classes.append(char_class(x))
        return classes[-1]
    char_class = module.char_class
    module.char_class = keep
    assert module.main(["--steps", "4", "--seed", "7"]) == 0
    assert capsys.readouterr().out == GAUGE_ORBIT_STEPS_4_SEED_7
    (endpoint,) = classes
    assert len(endpoint.terms) == 919
    digest = hashlib.sha256(repr(sorted(endpoint.terms.items())).encode())
    assert digest.hexdigest() == ENDPOINT_CLASS_SHA256
