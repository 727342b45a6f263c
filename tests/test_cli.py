import json
import time

import pytest

from toricapprox.cli import main, parse_fan
from toricapprox.fan import hirzebruch, inverse_image_coefficients, projective_space
from toricapprox.points import _factorize_cached


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_parse_fan_shorthands():
    assert parse_fan("p2") == projective_space(2)
    assert parse_fan("hirzebruch:3") == hirzebruch(3)
    assert parse_fan("h:3") == hirzebruch(3)
    assert set(parse_fan("p11r:2").rays) == {(-1, 2), (1, 0), (0, -1)}
    assert len(parse_fan("p1xp1").rays) == 4


def test_validate(capsys):
    rc, out, _ = run(capsys, "validate", "--fan", "p2")
    assert rc == 0 and "fan ok" in out
    bad = json.dumps({"dim": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]})
    rc, _, err = run(capsys, "validate", "--fan", bad)
    assert rc == 2 and "primitive" in err


def test_validate_unreadable_fan(capsys):
    rc, _, err = run(capsys, "validate", "--fan", "/nonexistent.json")
    assert rc == 2 and "input error" in err


def test_decide_yes_and_assert_no(capsys):
    rc, out, _ = run(capsys, "decide", "m-approx", "--fan", "p2",
                     "--darmon", "2,3,5")
    assert rc == 0 and "YES" in out
    rc, out, _ = run(capsys, "decide", "m-approx", "--fan", "p1",
                     "--darmon", "2,2", "--assert")
    assert rc == 1 and "NO" in out
    # without --assert a NO verdict is still a successful run
    rc, out, _ = run(capsys, "decide", "m-approx", "--fan", "p1",
                     "--darmon", "2,2")
    assert rc == 0


def test_decide_json_output(capsys):
    rc, out, _ = run(capsys, "decide", "m-approx", "--fan", "p2",
                     "--darmon", "2,3,5", "--json")
    obj = json.loads(out)
    assert rc == 0 and obj["holds"] == "yes"
    assert obj["invariants"]["index"] == 1


def test_decide_thinness(capsys):
    rc, out, _ = run(capsys, "decide", "thinness", "--fan", "p1",
                     "--darmon", "2,2")
    assert rc == 0 and "strictly" in out.lower()


def test_decide_missing_conditions(capsys):
    rc, _, err = run(capsys, "decide", "m-approx", "--fan", "p2")
    assert rc == 2 and "cond" in err


def test_pi1(capsys):
    rc, out, _ = run(capsys, "pi1", "--fan", "p2", "--m", "2,2,2", "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["invariant_factors"] == [2, 2]
    rc, out, _ = run(capsys, "pi1", "--fan", "p1", "--m", "2,3")
    assert rc == 0 and "trivial" in out


def test_check_point(capsys):
    rc, out, _ = run(capsys, "check-point", "--fan", "p1", "--campana", "2,2",
                     "--point", '{"coords": ["4", "9"]}')
    assert rc == 0 and "yes" in out
    rc, out, _ = run(capsys, "check-point", "--fan", "p1", "--darmon", "2,2",
                     "--point", '{"coords": ["8", "9"]}', "--assert", "--json")
    assert rc == 1
    obj = json.loads(out)
    assert obj["is_m_point"] is False and obj["prime"] == 2


def test_approximate(capsys):
    targets = json.dumps({"7": {"point": {"coords": ["5", "1"]}, "digits": 2}})
    rc, out, _ = run(capsys, "approximate", "--fan", "p1", "--darmon", "2,3",
                     "--targets", targets, "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["verified"] is True


def test_enumerate(capsys):
    rc, out, _ = run(capsys, "enumerate", "--fan", "p1", "--campana", "2,2",
                     "--height", "9")
    assert rc == 0 and "count: 24" in out
    rc, out, _ = run(capsys, "enumerate", "--fan", "p1", "--campana", "2,2",
                     "--height", "2", "--csv")
    assert rc == 0 and out.splitlines()[0] == "a0,a1,is_m_point"


def test_crosscheck(capsys):
    rc, out, _ = run(capsys, "crosscheck", "--fan", "p1", "--darmon", "2,3",
                     "--height", "15")
    assert rc == 0 and "no divergences" in out


def test_analyze_json(capsys):
    rc, out, _ = run(capsys, "analyze", "--fan", "p2", "--darmon", "2,2,2",
                     "--json")
    assert rc == 0
    obj = json.loads(out)
    assert obj["index"] == 4
    assert obj["invariant_factors"] == [2, 2]
    assert obj["cone_full"] is True


@pytest.mark.parametrize("argv", [
    ["example", "pn-darmon"],
    ["example", "pn-darmon", "--n", "3", "--m", "2,4,3"],
    ["example", "hirzebruch", "--r", "3", "--m", "1,2,1,2"],
    ["example", "p11r", "--r", "2", "--m", "2,3,7"],
    ["example", "affine-space", "--d", "2"],
])
def test_examples_are_consistent(capsys, argv):
    rc, out, _ = run(capsys, *argv)
    assert rc == 0, out
    assert "consistent" in out


def test_scan_cap_defect_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("TORICAPPROX_SCAN_CAP", "1")
    targets = json.dumps({"2": {"point": {"coords": ["3", "1"]}, "digits": 3}})
    rc, _, err = run(capsys, "approximate", "--fan", "p1", "--darmon", "2,3",
                     "--targets", targets)
    assert rc == 3 and "defect" in err


@pytest.mark.parametrize("exc, msg", [(AssertionError(), "AssertionError"),
                                      (ZeroDivisionError("division by zero"), "division by zero")])
def test_internal_defects_exit_3(capsys, monkeypatch, exc, msg):
    def defect(pair):
        raise exc

    monkeypatch.setattr("toricapprox.cli.invariants_of", defect)
    rc, _, err = run(capsys, "analyze", "--fan", "p2", "--darmon", "2,3,5")
    assert rc == 3 and err == f"computational defect: {msg}\n"


HANG_PRIME = 999999999989  # the largest prime below 10^12
BIG_N = 1000000007 * 1000000009


@pytest.mark.parametrize("argv, want_rc, want_out", [
    (["decide", "m-approx", "--fan", "p2", "--darmon", "2,3,5", "--field",
      json.dumps({"kind": "global_function_field", "q": HANG_PRIME})], (0,), "YES"),
    (["decide", "m-approx", "--fan", "p1", "--darmon", f"{BIG_N},{BIG_N}", "--field",
      json.dumps({"kind": "function_field", "base": "separably_closed", "char": 0})],
     (0,), "SUFFICIENT_ONLY"),
    (["decide", "thinness", "--fan", "p1", "--darmon", f"{HANG_PRIME},{HANG_PRIME}"],
     (0,), f"thinness: strictly_d_thin d=[{HANG_PRIME}]"),
    (["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets",
      json.dumps({"7": {"point": {"coords": ["1", "2", "3"]}, "digits": 400}})], (0, 3), ""),
    (["decide", "m-approx", "--fan", "p1", "--darmon", "2,2", "--field",
      json.dumps({"kind": "function_field", "base": "p_closed", "char": 3,
                  "closed_primes": [2, 4]})], (2,), ""),
    (["decide", "m-approx", "--fan", "p1", "--darmon", "2,2", "--field",
      json.dumps({"kind": "function_field", "base": "p_closed", "char": 3,
                  "closed_primes": 5})], (2,), ""),
    # malformed fan JSON: a non-primitive ray, overlapping cones, a bad index
    (["decide", "m-approx", "--darmon", "2,3", "--fan",
      '{"dim":2,"rays":[[2,0],[0,1]],"max_cones":[[0,1]]}'], (2,), ""),
    (["decide", "m-approx", "--darmon", "2,3,5", "--fan",
      '{"dim":2,"rays":[[1,0],[0,1],[1,1]],"max_cones":[[0,1],[1,2]]}'], (2,), ""),
    (["analyze", "--darmon", "2,3", "--fan",
      '{"dim":2,"rays":[[1,0],[0,1]],"max_cones":[[0,5]]}'], (2,), ""),
    # singular fans: Campana and Darmon conditions pulled back to the resolution
    (["analyze", "--fan", "p11r:3", "--campana", "2,3,7"], (0,), ""),
    (["decide", "m-approx", "--fan", "p11r:3", "--darmon", "2,3,7"], (0,), "YES"),
])
def test_arithmetic_inputs_end_promptly(capsys, argv, want_rc, want_out):
    """Inputs whose index, field size, digits or prime list once made a
    primality, divisor, root or pullback loop hang, overflow or raise: each
    ends in seconds with an answer or a defect/input exit code."""
    _factorize_cached.cache_clear()
    inverse_image_coefficients.cache_clear()
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert rc in want_rc, err
    assert want_out in out
    assert "Traceback" not in err
