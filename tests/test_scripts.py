"""Smoke test of the example scripts: each main(argv) runs to its exit code."""

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
