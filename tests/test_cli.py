import json

import pytest

from necklie.cli import main

SPACE_2D = "spaces/2d.json"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_usage_errors_exit_2(capsys, tmp_path):
    assert run(capsys, )[0] == 2                       # missing subcommand
    assert run(capsys, "frobnicate")[0] == 2           # unknown subcommand
    code, _, err = run(capsys, "mc-check", "1 w[t,t,t]", "--trunc", "1,2")
    assert code == 2 and "--trunc expects" in err
    code, _, err = run(capsys, "mc-check", "1 w[t,t,t]",
                       "--space", str(tmp_path / "none.json"))
    assert code == 2 and "cannot read space file" in err
    code, _, err = run(capsys, "bracket", "1 w[q]", "0")
    assert code == 2 and "unknown generator" in err
    code, _, err = run(capsys, "lift", "1 w[t,t,t]", "--order", "-1")
    assert code == 2 and "--order" in err
    code, _, err = run(capsys, "example-1d", "--space", SPACE_2D)
    assert code == 2 and "drop --space" in err


def test_flags_no_handler_reads_are_refused(capsys):
    """Each subcommand takes only the shared flags its handler reads."""
    assert run(capsys, "hochschild", "1 w[x,x]", "--space", SPACE_2D,
               "--variant", "lg")[0] == 2
    assert run(capsys, "bracket", "1 w[t,t,t]", "1 w[t]",
               "--seed", "3")[0] == 2
    assert run(capsys, "constraint", "1 w[t,t,t]",
               "--trunc", "3,2,1,1")[0] == 2
    code, out, _ = run(capsys, "axioms", "--max-length", "2", "--samples",
                       "3", "--seed", "5", "--format", "json")
    assert code == 0 and json.loads(out)["seed"] == 5


def test_help_exits_0(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys, "lift", "--help")[0] == 0


def test_bracket_and_cobracket_text(capsys):
    code, out, _ = run(capsys, "bracket", "1 w[t,t,t]", "1 w[t]")
    assert code == 0 and out.strip() == "0"

    code, out, _ = run(capsys, "cobracket", "1 w[t,t,t]")
    assert code == 0
    assert "pairs (2):" in out
    assert "3/2 * (1 (x) w[t])" in out
    assert "-3/2 * (w[t] (x) 1)" in out
    assert "extended form: 3 * v^1 * w[t]" in out

    code, out, _ = run(capsys, "bracket", "1 w[x,x]", "1 w[xi]",
                       "--space", SPACE_2D)
    assert code == 0 and out.strip() == "2 * w[x]"


def test_fresh_spaces_in_turn_get_their_own_brackets(capsys, tmp_path):
    """Each request loads a new space, now and then at the address of the
    one before; a memo keyed by id(space) answered for the wrong space."""
    with open(SPACE_2D, encoding="utf-8") as fh:
        scaled = json.load(fh)
    scaled["form"] = [["0", "2"], ["-2", "0"]]
    scaled_path = tmp_path / "2d-scaled.json"
    scaled_path.write_text(json.dumps(scaled), encoding="utf-8")
    requests = [
        (["1 w[t,t,t]", "1 w[t]", "--space", "spaces/1d.json"], "0"),
        (["1 w[x,x]", "1 w[xi]", "--space", SPACE_2D], "2 * w[x]"),
        (["1 w[x,x]", "1 w[xi]", "--space", str(scaled_path)], "1 * w[x]"),
    ]
    for round_ in range(40):
        for args, want in requests:
            code, out, _ = run(capsys, "bracket", *args, "--format", "json")
            assert code == 0
            assert json.loads(out)["result"]["expr"] == want, (round_, args)


def test_diff_and_mc_check(capsys):
    code, out, _ = run(capsys, "diff", "1 w[t,t,t]")
    assert code == 0 and out.strip() == "3 * v^1 * w[t]"
    code, out, _ = run(capsys, "diff", "1 w[t,t,t]", "--variant", "lg")
    assert code == 0 and out.strip() == "0"

    assert run(capsys, "mc-check", "0")[0] == 0
    code, out, _ = run(capsys, "mc-check", "1 w[t,t,t]")
    assert code == 1 and "NOT flat" in out
    code, out, _ = run(capsys, "mc-check", "1 w[t,t,t]", "--variant", "lg")
    assert code == 0 and "flat within truncation" in out


def test_gauge_and_ch(capsys):
    code, out, _ = run(capsys, "gauge", "1 w[t,t,t]", "1 w[t,t,t]",
                       "--variant", "lg")
    assert code == 0 and out.strip() == "1 * w[t,t,t]"

    code, out, _ = run(capsys, "ch", "1 w[t,t,t]", "--variant", "lg")
    assert code == 0 and out.strip() == "1 + 1 * {w[t,t,t]}"
    code, out, err = run(capsys, "ch", "1 w[t,t,t]")
    assert code == 1 and "not flat" in out


def test_hochschild_text(capsys):
    code, out, _ = run(capsys, "hochschild", "1 w[t,t,t]", "--length", "5")
    assert code == 0
    assert "length 1 parity 1: dim 1" in out
    assert "length 5 parity 1: dim 1" in out
    assert "obstruction-parity part vanishes: yes" in out


def test_hochschild_refuses_an_even_adjoint(capsys):
    code, out, err = run(capsys, "hochschild", "1 w[x,xi]", "--space",
                         SPACE_2D, "--length", "3")
    assert code == 2 and not out
    assert "ad(h) is even: h has parity 1 and the form has parity 1" in err


def test_lift_dichotomy(capsys):
    code, out, _ = run(capsys, "lift", "1 w[t,t,t]", "--order", "2",
                       "--variant", "lg")
    assert code == 0
    assert "lift reached order 2" in out and "residual vanishes" in out

    code, out, _ = run(capsys, "lift", "1 w[t,t,t]", "--order", "1")
    assert code == 1
    assert "lift blocked at level 1" in out
    assert "cocycle: 3 * v^1 * w[t]" in out


def test_obstruct_and_extspace(capsys):
    code, out, _ = run(capsys, "obstruct", "1 w[t,t,t]", "--order", "1")
    assert code == 1 and "does not vanish" in out

    code, out, _ = run(capsys, "obstruct", "1 w[t,t,t]", "--order", "1",
                       "--variant", "lg")
    assert code == 0 and "vanishes" in out

    code, out, _ = run(capsys, "extspace", "1 w[t,t,t]", "--order", "2",
                       "--variant", "lg")
    assert code == 0 and "affine space of dimension" in out


def test_kunneth_and_constraint(capsys):
    code, out, _ = run(capsys, "kunneth", "1 w[t,t,t]")
    assert code == 0 and "prediction matches" in out

    code, out, _ = run(capsys, "constraint", "1 w[t,t,t]")
    assert code == 1 and "NOT in the cobracket kernel" in out

    code, out, _ = run(capsys, "constraint", "1 w[x,x]", "--space", SPACE_2D)
    assert code == 0
    assert "lies in the cobracket kernel" in out
    assert "flatness in the full complex: certified" in out


def test_axioms_small(capsys):
    code, out, _ = run(capsys, "axioms", "--max-length", "2",
                       "--samples", "3")
    assert code == 0 and "all identities hold" in out


def test_json_output_is_stable_and_typed(capsys):
    argv = ("cobracket", "1 w[t,t,t]", "--format", "json")
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2                    # byte-identical rerun
    payload = json.loads(out1)
    assert payload["command"] == "cobracket"
    assert payload["pairs"][0]["coeff"] == "3/2"       # rationals as strings
    assert json.loads(out2) == payload

    code, out, _ = run(capsys, "axioms", "--max-length", "2", "--samples",
                       "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True and payload["seed"] == 2718


def test_json_seed_changes_sampling_not_result(capsys):
    a = run(capsys, "axioms", "--max-length", "2", "--samples", "4",
            "--seed", "1", "--format", "json")
    b = run(capsys, "axioms", "--max-length", "2", "--samples", "4",
            "--seed", "2", "--format", "json")
    assert a[0] == b[0] == 0
    assert json.loads(a[1])["seed"] == 1
    assert json.loads(b[1])["seed"] == 2


def test_consecutive_requests_share_no_state(capsys):
    """One process serves request after request through one parser:
    a bad request, a repeat and a dropped flag leave nothing behind."""
    assert run(capsys, "lift", "1 w[t,t,t]", "--order", "x")[0] == 2
    code, out, _ = run(capsys, "bracket", "1 w[x,x]", "1 w[xi]",
                       "--space", SPACE_2D)
    assert code == 0 and out.strip() == "2 * w[x]"

    argv = ("lift", "1 w[t,t,t]", "--order", "2", "--variant", "lg",
            "--format", "json")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first[0] == second[0] == 0
    assert first[1] == second[1]

    axioms = ("axioms", "--max-length", "2", "--samples", "3",
              "--format", "json")
    code, out, _ = run(capsys, *axioms, "--seed", "5")
    assert code == 0 and json.loads(out)["seed"] == 5
    code, out, _ = run(capsys, *axioms)
    assert code == 0 and json.loads(out)["seed"] == 2718
