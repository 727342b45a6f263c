import io
import json
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout

import pytest
from hypothesis import given, settings, strategies as st

import toricapprox
from toricapprox.cli import build_parser, main, parse_fan
from toricapprox.conditions import Kind
from toricapprox.fan import NotPrincipalError, hirzebruch, product, projective_space
from toricapprox.points import _factorize_cached


def run(capsys, *argv):
    rc = main(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def _cli_env() -> dict:
    """The environment of a fresh interpreter that imports this toricapprox."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(toricapprox.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def test_parse_fan_shorthands():
    assert parse_fan("p2") == projective_space(2)
    assert parse_fan("hirzebruch:3") == hirzebruch(3)
    assert parse_fan("h:3") == hirzebruch(3)
    assert set(parse_fan("p11r:2").rays) == {(-1, 2), (1, 0), (0, -1)}
    assert len(parse_fan("p1xp1").rays) == 4


def test_validate(capsys):
    rc, out, _ = run(capsys, "validate", "--fan", "p2")
    assert rc == 0 and "fan ok" in out
    rc, out, _ = run(capsys, "validate", "--fan", "p2", "--darmon", "2,3,5", "--json")
    assert (rc, json.loads(out)) == (0, {"valid": True, "conditions": True})
    bad = json.dumps({"dim": 2, "rays": [[2, 0], [0, 1]], "max_cones": [[0, 1]]})
    rc, _, err = run(capsys, "validate", "--fan", bad)
    assert rc == 2 and "primitive" in err


STRAY_RAY_FAN = '{"dim":2,"rays":[[1,0],[0,1],[-1,-1],[1,1]],"max_cones":[[0,1],[1,2],[0,2]]}'
REPEATED_CONE_FAN = '{"dim":2,"rays":[[1,0],[0,1]],"max_cones":[[0,1],[1,0]]}'


@pytest.mark.parametrize("argv, diag", [
    (["validate", "--fan", STRAY_RAY_FAN], "ray 3 lies in no maximal cone"),
    (["analyze", "--fan", STRAY_RAY_FAN, "--darmon", "2,2,2,1"], "ray 3 lies in no maximal cone"),
    (["decide", "m-approx", "--fan", REPEATED_CONE_FAN, "--darmon", "1,1", "--everywhere"],
     "cone (0, 1) is listed twice"),
])
def test_a_stray_ray_or_a_repeated_cone_exits_2(capsys, argv, diag):
    """A ray in no maximal cone would add a generator to N_M, and a cone
    listed twice pairs every wall of an incomplete fan: both are bad input."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and diag in err


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


@pytest.mark.parametrize("argv, want_rc", [
    (["analyze", "--fan", "p2", "--darmon", "2,3,5"], 0),
    (["decide", "m-approx", "--fan", "p1", "--darmon", "2,2", "--assert"], 1),
])
def test_closed_stdout_keeps_the_exit_status(argv, want_rc):
    """A reader that has closed the pipe is not an input error: the command
    exits as it would have, with nothing on stderr."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "toricapprox.cli", *argv],
                              stdout=write_end, stderr=subprocess.PIPE, env=_cli_env(),
                              timeout=60)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr.decode()) == (want_rc, "")


@pytest.mark.parametrize("argv", [
    ["decide", "m-approx", "--fan", "p2", "--darmon", "2,3,5"],
    ["decide", "thinness", "--fan", "p1", "--darmon", "2,2"],
    ["analyze", "--fan", "hirzebruch:1", "--campana", "2,2,2,2", "--json"],
    ["pi1", "--fan", "p2", "--m", "2,2,2"],
    ["check-point", "--fan", "p1", "--campana", "2,2", "--point", '{"coords": ["4", "9"]}'],
    ["validate", "--fan", "p1xp1"],
])
def test_commands_import_only_what_they_run(argv):
    """The approximation and census modules, and dataclasses, stay unloaded
    by every command that does not use them: each is start-up cost."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "toricapprox.cli", *argv],
                          capture_output=True, text=True, env=_cli_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                if line.startswith("import time:")}
    assert "toricapprox.decide" in imported
    assert not imported & {"toricapprox.approx", "toricapprox.enumerate", "dataclasses"}


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


def test_approximate_certifies_a_54_digit_coordinate(capsys, cold_caches):
    """ROADMAP section 3's reproduction: to 5 digits at 7 and 11, the point
    has the coordinate 69474126697^3 * 52105595023^2, past trial division."""
    spec = {"point": {"coords": ["1", "2", "3"]}, "digits": 5}
    rc, out, err = run(capsys, "approximate", "--fan", "p2", "--campana", "2,2,2",
                       "--targets", json.dumps({"7": spec, "11": spec}), "--json")
    assert rc == 0, err
    obj = json.loads(out)
    assert obj["verified"] is True and obj["excluded_primes"] == [7, 11]
    assert int(obj["point"]["coords"][1]) % (69474126697 ** 3 * 52105595023 ** 2) == 0
    assert [m["p"] for m in obj["multiplicities"]][-2:] == [52105595023, 69474126697]
    rc, out, err = run(capsys, "check-point", "--fan", "p2", "--campana", "2,2,2",
                       "--point", json.dumps(obj["point"]), "--exclude", "7,11",
                       "--assert", "--json")
    assert rc == 0, err
    assert json.loads(out) == {"is_m_point": True, "prime": None, "vector": None}


def test_enumerate(capsys):
    rc, out, _ = run(capsys, "enumerate", "--fan", "p1", "--campana", "2,2",
                     "--height", "9")
    assert rc == 0 and "count: 24" in out
    rc, out, _ = run(capsys, "enumerate", "--fan", "p1", "--campana", "2,2",
                     "--height", "2", "--csv")
    assert rc == 0 and out.splitlines()[0] == "a0,a1,is_m_point"


def test_interior_census_on_a_rank_3_fan(capsys):
    fan = json.dumps(product(hirzebruch(2), projective_space(1))._asdict())
    rc, out, _ = run(capsys, "enumerate", "--fan", fan, "--campana", ",".join("2" * 6),
                     "--interior", "--height", "4", "--json")
    assert rc == 0 and json.loads(out)["count"] == 432


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


@pytest.mark.parametrize("fan", ["p2", "p11r:2"])
def test_analyze_notes_a_custom_set_on_smooth_and_singular_fans(capsys, fan):
    cond = '{"type": "custom", "vectors": [[0, 0, 0], [1, 1, 0], [0, 0, 1]]}'
    rc, out, _ = run(capsys, "analyze", "--fan", fan, "--cond", cond, "--json")
    assert rc == 0
    assert json.loads(out)["notes"][-1].startswith("custom(3 vectors;")


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


@pytest.mark.parametrize("exc, msg", [
    (AssertionError(), "AssertionError"),
    (ZeroDivisionError("division by zero"), "division by zero"),
    (NotPrincipalError(0, "source cone not contained in any target cone"),
     "inverse image of divisor 0 not certified principal: "
     "source cone not contained in any target cone")])
def test_internal_defects_exit_3(capsys, monkeypatch, exc, msg):
    def defect(pair):
        raise exc

    monkeypatch.setattr("toricapprox.cli.invariants_of", defect)
    rc, _, err = run(capsys, "analyze", "--fan", "p2", "--darmon", "2,3,5")
    assert rc == 3 and err == f"computational defect: {msg}\n"


HANG_PRIME = 999999999989  # the largest prime below 10^12
INCOMPLETE_FAN = '{"dim":2,"rays":[[1,0],[0,1],[-1,-1]],"max_cones":[[0,1],[1,2]]}'
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
    # JSON of the wrong shape for a point, targets or conditions
    (["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point", '{"coords": 5}'],
     (2,), ""),
    (["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point", "[1,2,3]"], (2,), ""),
    (["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point",
      '{"coords": [null,1,1]}'], (2,), ""),
    (["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets", "[1]"], (2,), ""),
    (["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets", '{"7": 5}'],
     (2,), ""),
    (["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets",
      json.dumps({"7": {"point": {"coords": ["1", "2", "3"]}, "digits": None}})], (2,), ""),
    (["analyze", "--fan", "p2", "--cond", "[5,5,5]"], (2,), ""),
    # a zero denominator and a target key that is not a prime
    (["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point",
      '{"coords": ["1/0", 1, 1]}'], (2,), ""),
    (["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets",
      json.dumps({"1": {"point": {"coords": ["1", "2", "3"]}, "digits": 1}})], (2,), ""),
    # a census box too large to allocate
    (["enumerate", "--fan", "p2", "--darmon", "2,2,2", "--height", str(10 ** 12)], (3,), ""),
    (["enumerate", "--fan", "p1xp1", "--darmon", "2,2,2,2", "--interior", "--height",
      str(10 ** 12)], (3,), ""),
    # a crosscheck over an empty box
    (["crosscheck", "--fan", "p2", "--darmon", "2,2,2", "--height", "0"], (2,), ""),
    (["crosscheck", "--fan", "p2", "--darmon", "2,2,2", "--height", "-3"], (2,), ""),
    # singular cones of index 20 and 1,001, beyond any small search box
    (["analyze", "--fan", "p11r:20", "--darmon", "2,3,5"], (0,), "index: 1"),
    (["analyze", "--darmon", "2,3,5", "--fan",
      '{"dim":2,"rays":[[1,0],[-3,1001],[-1,-1]],"max_cones":[[0,1],[1,2],[0,2]]}'],
     (0,), "index: 1"),
    (["analyze", "--darmon", "2,3,5", "--fan",
      '{"dim":2,"rays":[[1,0],[-3,3001],[-1,-1]],"max_cones":[[0,1],[1,2],[0,2]]}'],
     (0,), "index: 1"),
    # the index is not factored for a verdict that does not list its divisors
    (["decide", "hilbert", "--fan", "p1", "--darmon", f"{BIG_N},{BIG_N}"], (0,), "NO"),
])
def test_arithmetic_inputs_end_promptly(capsys, cold_caches, argv, want_rc, want_out):
    """Inputs whose index, field size, digits or prime list once made a
    primality, divisor, root or pullback loop hang, overflow or raise: each
    ends in seconds, from empty caches, with an answer or a defect/input exit
    code."""
    start = time.perf_counter()
    rc, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert rc in want_rc, err
    assert want_out in out
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, msg", [
    (["example", "p11r", "--m", "2,3"], "example p11r needs 3 multiplicities, got 2"),
    (["example", "hirzebruch", "--m", "2,2"], "example hirzebruch needs 4 multiplicities, got 2"),
    (["example", "p11r", "--m", "inf,2,3"], "example p11r needs finite multiplicities"),
    (["example", "pn-darmon", "--n", "0"], "example pn-darmon needs n >= 2, got 0"),
    (["example", "affine-space", "--d", "0"], "example affine-space needs d >= 1, got 0"),
    (["pi1", "--fan", "p2", "--m", "2,2,2", "--char", "4"],
     "characteristic must be 0 or a prime, got 4"),
    (["pi1", "--fan", "p2", "--m", "2,2,2", "--char", "-3"],
     "characteristic must be 0 or a prime, got -3"),
    (["decide", "strong-approx", "--fan", "p2", "--removed", "7"],
     "removed divisors must lie in 0..2: [7]"),
    (["decide", "strong-approx", "--fan", "p2", "--removed", "-1"],
     "removed divisors must lie in 0..2: [-1]"),
    *[(["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point",
        '{"coords": ["8", "9", "1"]}', "--exclude", p],
       f"excluded primes must be primes, got {p}") for p in ("4", "1", "0", "-2")],
    *[(["decide", "m-approx", "--fan", "p1", "--cond", cond], f"cannot read conditions: {msg}")
      for cond, msg in (
          ('{"type": "custom", "vectors": [[0, 0], [-1, 0], [0, -1]]}',
           "custom multiplicities must be naturals or infinity, got -1"),
          ('{"type": "custom", "vectors": [[0, 0, 0], [1, 2]]}',
           "custom multiplicity vectors must all have the same length"),
          ('[{"type": "campana", "m": true}, {"type": "campana", "m": 2}]',
           "multiplicity must be an integer or 'inf', got True"),
          ('[{"type": "finite_set", "values": [true]}, {"type": "any"}]',
           "FINITE_SET needs a tuple of naturals"),
          ('{"type": "weak_campana", "m": [true, 2]}',
           "multiplicity must be an integer or 'inf', got True"))],
    # a fan whose support is a proper cone: every verdict assumes a complete fan
    *[(argv + ["--fan", INCOMPLETE_FAN],
       "verdicts need a complete fan: the maximal cones do not cover N_R")
      for argv in (["decide", "m-approx", "--darmon", "1,1,1"],
                   ["analyze", "--darmon", "2,2,2"],
                   ["decide", "thinness", "--darmon", "2,2,2"])],
    # conditions that do not fit the fan: validate prints nothing on stdout
    *[(["validate", "--fan", "p2", "--darmon", "2,2"] + json_flag,
       "multiplicity set arity must equal the number of rays") for json_flag in ([], ["--json"])],
    # digits that are not an integer >= 1 (a JSON boolean is not one)
    *[(["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets",
        json.dumps({"2": {"point": {"coords": ["1", "3", "5"]}, "digits": k}})],
       f"digits at p=2 must be an integer >= 1, got {k!r}") for k in (-1, 0, True, 2.7)],
    # a comma list, or a shorthand's parameter, that is not made of integers
    (["decide", "strong-approx", "--fan", "p2", "--removed", "x"],
     "--removed takes a comma list of integers, got 'x'"),
    (["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point",
      '{"coords": ["8", "9", "1"]}', "--exclude", "y"],
     "--exclude takes a comma list of integers, got 'y'"),
    *[(["analyze", "--fan", "p2", flag, "2,x,2"],
       f"{flag} takes a comma list of integers or inf, got '2,x,2'")
      for flag in ("--darmon", "--campana")],
    *[(argv + ["--m", "2,x,2"], "--m takes a comma list of integers or inf, got '2,x,2'")
      for argv in (["pi1", "--fan", "p2"], ["example", "p11r"])],
    *[(["analyze", "--fan", f"{head}:{r}", "--darmon", "2,2,2"],
       f"--fan {head}:<r> takes an integer, got {r!r}")
      for head in ("h", "hirzebruch", "p11r") for r in ("x", "2,3")],
])
def test_out_of_range_values_exit_2(capsys, argv, msg):
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"input error: {msg}\n")


def _fan_json(dim=2, rays=([1, 0], [0, 1], [-1, -1]), cones=([0, 1], [1, 2], [0, 2])) -> str:
    return json.dumps({"dim": dim, "rays": list(rays), "max_cones": list(cones)})


@pytest.mark.parametrize("argv, msg", [
    (["validate", "--fan", _fan_json(rays=([1.5, 0], [0, 1], [-1, -1]))],
     "dim, ray entries and cone indices must be integers, got 1.5"),
    (["analyze", "--darmon", "2,2,2", "--fan",
      _fan_json(rays=([1.9, 0], [0, 1], [-1, -1]), cones=([0.7, 1], [1, 2], [0, 2]))],
     "dim, ray entries and cone indices must be integers, got 1.9"),
    (["analyze", "--darmon", "2,2,2", "--fan", _fan_json(cones=([0.7, 1], [1, 2], [0, 2]))],
     "dim, ray entries and cone indices must be integers, got 0.7"),
    (["validate", "--fan", _fan_json(dim=True)],
     "dim, ray entries and cone indices must be integers, got True"),
    (["validate", "--fan", _fan_json(rays=(["1", "0"], [0, 1], [-1, -1]))],
     "dim, ray entries and cone indices must be integers, got '1'"),
    *[(["decide", "m-approx", "--fan", "p2", "--darmon", "2,2,2", "--field", json.dumps(field)],
       f"cannot read field descriptor: {msg}") for field, msg in (
          ({"kind": "global_function_field", "q": 4.5}, "q must be a JSON int, got 4.5"),
          ({"kind": "global_function_field", "q": True}, "q must be a JSON int, got True"),
          ({"kind": "function_field", "base": "finite", "char": 2.9},
           "char must be a JSON int, got 2.9"),
          ({"kind": "function_field", "base": "real_closed", "curve_has_real_point": "no"},
           "curve_has_real_point must be a JSON bool, got 'no'"))],
    *[(["check-point", "--fan", "p1", "--point", '{"coords": ["0", "1"]}', "--json", "--cond",
        '[{"type": "finite_set", "values": [2], "allow_infinity": %s}, {"type": "any"}]' % flag],
       f"cannot read conditions: allow_infinity must be true or false, got {got}")
      for flag, got in (('"no"', "'no'"), ("null", "None"), ("1", "1"), ("0", "0"))],
    # a coordinate is a JSON integer or string: 0.1 is no binary fraction, true no 1
    *[(["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point",
        json.dumps({"coords": [c, 2, 3]})],
       f"cannot read point: coords must be a JSON int or str, got {c!r}") for c in (0.1, True)],
    *[(["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets",
        json.dumps({"2": {"point": {"coords": ["1", c, "5"]}}})],
       f"cannot read targets: coords must be a JSON int or str, got {c!r}") for c in (0.1, True)],
    (["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point", '{"coords": ["1/0", 1, 1]}'],
     "cannot read point: coordinate '1/0' has a zero denominator"),
    (["decide", "m-approx", "--fan", "p2", "--darmon", "2,2,2", "--field",
      json.dumps({"kind": "function_field", "base": "p_closed", "char": 3,
                  "closed_primes": [[2]]})],
     "cannot read field descriptor: closed_primes must be a JSON int, got [2]"),
])
def test_json_fields_are_not_coerced(capsys, argv, msg):
    """A fan, field, condition or point given as JSON takes integers and
    booleans as they are: a float, string, null or bool in their place exits
    2 rather than being truncated or read for its truth value."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out) == (2, "") and err.startswith("input error: ") and err.endswith(msg + "\n")


@pytest.mark.parametrize("cond, msg", [
    ([{"type": "any", "m": 7}, {"type": "any"}, {"type": "any"}], "any takes no key 'm'"),
    ([{"type": "campana", "m": 2, "values": [5]}] * 3, "campana takes no key 'values'"),
    ([{"type": "darmon", "m": 2}, {"type": "finite_set", "values": [2], "m": 3},
      {"type": "any"}], "finite_set takes no key 'm'"),
    ([{"type": "any"}, 5, {"type": "any"}], "a condition must be a JSON object, got 5"),
    ([{"type": "any"}, ["darmon", 2], {"type": "any"}],
     "a condition must be a JSON object, got ['darmon', 2]"),
    ({"type": "custom", "vectors": [[0, 0, 0]], "m": [2, 2, 2]}, "custom takes no key 'm'"),
    ({"type": "weak_campana", "m": [2, 2, 2], "values": [1]},
     "weak_campana takes no key 'values'"),
])
def test_json_conditions_take_only_their_own_keys(capsys, cond, msg):
    """A JSON condition is read as strictly as the Python API reads one: a
    key its kind does not take, or a list entry that is not an object, exits
    2 rather than being dropped."""
    rc, out, err = run(capsys, "analyze", "--fan", "p2", "--cond", json.dumps(cond))
    assert (rc, out, err) == (2, "", f"input error: cannot read conditions: {msg}\n")


_NO_DIM_FAN = '{"rays": [[1], [-1]], "max_cones": [[0], [1]]}'


@pytest.mark.parametrize("argv, msg", [
    *[(["analyze", "--fan", "p1", "--cond", json.dumps([{"type": kind}, {"type": "any"}])],
       f"cannot read conditions: missing key {key!r} in a {kind} condition")
      for kind, key in (("campana", "m"), ("darmon", "m"), ("strict_darmon", "m"),
                        ("finite_set", "values"))],
    (["analyze", "--fan", "p1", "--cond", '[{"m": 2}, {"type": "any"}]'],
     "cannot read conditions: missing key 'type' in a condition"),
    (["analyze", "--fan", "p1", "--cond", '{"vectors": [[0, 0]]}'],
     "cannot read conditions: missing key 'type' in a multiplicity set"),
    (["analyze", "--fan", "p1", "--cond", '{"type": "custom"}'],
     "cannot read conditions: missing key 'vectors' in a custom multiplicity set"),
    (["analyze", "--fan", "p1", "--cond", '{"type": "weak_campana"}'],
     "cannot read conditions: missing key 'm' in a weak_campana multiplicity set"),
    (["decide", "m-approx", "--fan", "p1", "--darmon", "2,2", "--field", "{}"],
     "cannot read field descriptor: missing key 'kind' in a field descriptor"),
    (["decide", "m-approx", "--fan", "p1", "--darmon", "2,2", "--field",
      '{"kind": "function_field", "char": 0}'],
     "cannot read field descriptor: missing key 'base' in a function_field descriptor"),
    (["check-point", "--fan", "p1", "--darmon", "2,2", "--point", '{"coord": ["1", "2"]}'],
     "cannot read point: missing key 'coords' in a point"),
    (["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets", '{"7": {"digits": 2}}'],
     "cannot read targets: missing key 'point' in a target"),
    (["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets", '{"7": {"point": {}}}'],
     "cannot read targets: missing key 'coords' in a point"),
    (["validate", "--fan", _NO_DIM_FAN],
     f"cannot read fan from {_NO_DIM_FAN!r}: missing key 'dim' in a fan"),
])
def test_a_missing_json_key_is_named_with_its_object(capsys, argv, msg):
    """A JSON object without a key it needs exits 2 with a message naming
    the key and the object, never a bare quoted key."""
    rc, out, err = run(capsys, *argv)
    assert (rc, out, err) == (2, "", f"input error: {msg}\n")


# each: the help, version or usage error that the parser of the command argv
# names must print exactly as the parser of every command does
_PARSER_ARGV = [
    [], ["--help"], ["--version"], ["bogus"], ["--", "bogus"], ["decide"], ["decide", "--help"],
    ["decide", "bogus"], ["example"], ["example", "--help"], ["analyze", "--help"],
    ["pi1", "--help"], ["decide", "thinness", "--help"], ["example", "p11r", "--help"],
    ["analyze", "--fan", "p2", "--bogus"],
    ["analyze", "--fan", "p2", "--darmon", "2", "--campana", "2"],
    ["decide", "m-approx", "--fan", "p2", "--darmon", "2,2,2", "--removed=0"],
    ["decide", "hilbert", "--fan", "p1", "--everywhere"], ["decide", "--fan", "p2", "m-approx"],
    ["check-point", "--fan", "p2"], ["enumerate", "--fan", "p2", "--height", "x"],
    ["example", "hirzebruch", "--m"], ["example", "pn-darmon", "--n", "x"],
]


@pytest.mark.parametrize("argv", _PARSER_ARGV, ids=" ".join)
def test_the_parser_of_the_named_command_prints_what_the_full_one_does(argv):
    def parse(parser):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit) as exc:
            parser.parse_args(argv)
        return exc.value.code, out.getvalue(), err.getvalue()

    assert parse(build_parser(argv)) == parse(build_parser())


def test_the_parser_builds_only_the_named_command_and_verdict(capsys):
    argv = ["decide", "m-approx", "--fan", "p2", "--darmon", "2,2,2"]
    assert build_parser(argv).parse_args(argv).what == "m-approx"
    for other in (["analyze", "--fan", "p2"], ["decide", "integral", "--fan", "p2"]):
        with pytest.raises(SystemExit):
            build_parser(argv).parse_args(other)
        assert "invalid choice" in capsys.readouterr().err


# Each (command, flag) pair here was once accepted and then ignored.  Each
# base call runs as it is; adding the flag makes argparse reject the call.
_P2_DARMON = ["--fan", "p2", "--darmon", "2,2,2"]
_UNREAD_FLAGS = [
    (["decide", "m-approx", *_P2_DARMON], ["--removed=0", "--b-equals-c"]),
    (["decide", "integral", *_P2_DARMON], ["--removed=0", "--b-equals-c"]),
    (["decide", "strong-approx", "--fan", "p2"],
     ['--cond={"type": "any"}', "--darmon=2,2,2", "--campana=2,2,2", "--b-equals-c"]),
    (["decide", "thinness", *_P2_DARMON], ["--assert", "--removed=0"]),
    (["decide", "hilbert", *_P2_DARMON], ["--everywhere", "--removed=0", "--b-equals-c"]),
    (["example", "pn-darmon"], ["--r=2", "--d=2"]),
    (["example", "hirzebruch"], ["--n=3", "--d=2"]),
    (["example", "p11r"], ["--n=3", "--d=2"]),
    (["example", "affine-space"], ["--n=3", "--r=2", "--m=2,2"]),
]
# flags that exclude each other: one condition set, one output format
_CONFLICTS = [
    ["decide", "m-approx", *_P2_DARMON, "--campana=2,2,2"],
    ["analyze", "--fan", "p2", "--campana=2,2,2", '--cond={"type": "any"}'],
    ["check-point", *_P2_DARMON, '--cond={"type": "any"}', "--point", '{"coords": ["1", "1", "1"]}'],
    ["enumerate", "--fan", "p1", "--campana", "2,2", "--height", "2", "--csv", "--json"],
]


@pytest.mark.parametrize("base, flag", [(b, f) for b, flags in _UNREAD_FLAGS for f in flags],
                         ids=lambda x: x if isinstance(x, str) else " ".join(x[:2]))
def test_a_flag_the_command_does_not_read_exits_2(capsys, base, flag):
    assert main(base) == 0
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main(base + [flag])
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert err.startswith("usage: toricapprox") and "unrecognized arguments" in err


@pytest.mark.parametrize("argv", _CONFLICTS, ids=lambda argv: argv[0])
def test_exclusive_flags_given_together_exit_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, out) == (2, "")
    assert "not allowed with argument" in err


def test_a_flag_before_the_verdict_name_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["decide", "--fan", "p2", "m-approx", "--darmon", "2,2,2"])
    assert exc.value.code == 2


# CLI contract fuzz: well-formed commands with at most one malformed part, so
# that every parse stage and the computations behind it are reached
_SCALAR = (st.none() | st.booleans() | st.integers(-3, 8) | st.floats()
           | st.sampled_from(["", "inf", "2", "x", "1/2"]))
_KEYS = st.sampled_from(["dim", "rays", "max_cones", "coords", "point", "digits",
                         "type", "m", "values", "allow_infinity", "vectors", "7", "mult"])
_JSON = st.recursive(_SCALAR, lambda kids: st.lists(kids, max_size=4)
                     | st.dictionaries(_KEYS, kids, max_size=3), max_leaves=8)
_BUILTIN_RAYS = {"p1": 2, "p2": 3, "p1xp1": 4, "h:1": 4, "p11r:2": 3}
_BAD_FAN = st.one_of(
    st.sampled_from(["p0", "p11r:0", "h:-1", "h:x", "pq", "/nonexistent.json"]),
    st.fixed_dictionaries({
        "dim": st.integers(-1, 3) | _JSON,
        "rays": st.lists(st.lists(st.integers(-2, 2), max_size=3), max_size=4) | _JSON,
        "max_cones": st.lists(st.lists(st.integers(-1, 4), max_size=3), max_size=4) | _JSON,
    }).map(json.dumps),
    _JSON.map(json.dumps))
_TOKEN = st.sampled_from(["1", "2", "3", "inf"])
_BAD_TOKEN = st.sampled_from(["0", "-1", "oo", "x", ""])
# the keys each kind of condition takes besides "type"
_TAKES = {"campana": "m", "darmon": "m", "strict_darmon": "m", "finite_set": "values"}
_CONDITION = st.fixed_dictionaries({
    "type": st.sampled_from([k.value for k in Kind]), "m": st.integers(1, 4),
    "values": st.just([1, 2])}).map(
    lambda o: {k: v for k, v in o.items() if k in ("type", _TAKES.get(o["type"]))})
# a malformed type or m, a key the kind does not take, or not an object
_BAD_CONDITION = st.fixed_dictionaries({
    "type": st.sampled_from([k.value for k in Kind] + ["bogus"]) | _JSON,
    "m": st.integers(-1, 4) | st.just("inf") | _JSON}) \
    | st.builds(dict, _CONDITION, allow_infinity=st.booleans() | _JSON) \
    | st.builds(dict, _CONDITION, mult=_SCALAR) | _SCALAR
_COORD = st.integers(-9, 9) | st.sampled_from(["1/2", "-4/9", "12"])
_BAD_COORD = st.sampled_from(["x", "1/0"]) | _SCALAR


def _conds(n, bad):
    token = _BAD_TOKEN | _TOKEN if bad else _TOKEN
    mults = st.lists(token, min_size=n, max_size=n)
    if bad:
        mults |= st.lists(_TOKEN, max_size=5)
    cond_json = st.lists(_BAD_CONDITION if bad else _CONDITION, min_size=n, max_size=n)
    if bad:
        cond_json |= st.fixed_dictionaries(
            {"type": st.just("custom"), "vectors": _JSON}, optional={"m": _JSON}) \
            | st.fixed_dictionaries(
                {"type": st.just("weak_campana"), "m": _JSON}, optional={"vectors": _JSON}) \
            | _JSON
    options = [mults.map(lambda t: ["--darmon=" + ",".join(t)]),
               mults.map(lambda t: ["--campana=" + ",".join(t)]),
               cond_json.map(lambda o: ["--cond=" + json.dumps(o)])]
    return st.one_of(options + [st.just([])] if bad else options)


def _point(n, bad):
    if not bad:
        return st.fixed_dictionaries({"coords": st.lists(_COORD, min_size=n, max_size=n)})
    coords = st.lists(_BAD_COORD | _COORD, min_size=n, max_size=n) | _JSON
    return st.fixed_dictionaries({"coords": coords}) | _JSON


def _targets(n, bad):
    prime = st.sampled_from(["2", "3", "7"])
    digits = st.integers(1, 2)
    if bad:
        prime |= st.sampled_from(["4", "1", "0", "-3", "x"])
        digits |= st.none() | st.integers(-1, 0) | st.just("2")
    spec = st.fixed_dictionaries({"point": _point(n, bad), "digits": digits})
    targets = st.dictionaries(prime, spec | _JSON if bad else spec, max_size=2)
    return targets | _JSON if bad else targets


# each decide verdict and the flags it reads besides --fan, its conditions
# and --json; strong-approx alone reads no conditions
_VERDICT_FLAGS = {
    "m-approx": ("--everywhere", "--assert", "--field=q"),
    "strong-approx": ("--everywhere", "--assert", "--field=q", "--removed=0"),
    "integral": ("--everywhere", "--assert", "--field=q"),
    "thinness": ("--everywhere", "--b-equals-c", "--field=q"),
    "hilbert": ("--assert", "--field=q"),
}


@st.composite
def _malformed_argv(draw):
    """A command in which at most one of the fan, the conditions and the
    point or targets is malformed."""
    cmd = draw(st.sampled_from(["validate", "analyze", "decide", "check-point",
                                "approximate", "enumerate", "crosscheck"]))
    broken = draw(st.sampled_from(["none", "fan", "conds", "payload"]))
    argv = [cmd]
    flags = ("--assert",) if cmd == "check-point" else ()
    if cmd == "decide":
        what = draw(st.sampled_from(sorted(_VERDICT_FLAGS)))
        argv.append(what)
        flags = _VERDICT_FLAGS[what]
    fan = draw(_BAD_FAN if broken == "fan" else st.sampled_from(sorted(_BUILTIN_RAYS)))
    n = _BUILTIN_RAYS.get(fan, 3)
    argv.append("--fan=" + fan)
    if "strong-approx" not in argv:
        argv += draw(_conds(n, broken == "conds"))
    if cmd == "check-point":
        argv.append("--point=" + json.dumps(draw(_point(n, broken == "payload"))))
    elif cmd == "approximate":
        argv.append("--targets=" + json.dumps(draw(_targets(n, broken == "payload"))))
    elif cmd in ("enumerate", "crosscheck"):
        argv.append(f"--height={draw(st.integers(-1, 2))}")
        if cmd == "enumerate" and draw(st.booleans()):
            argv.append("--interior")
    return argv + [flag for flag in flags if draw(st.booleans())]


_BARE_KEY = re.compile(r"input error: (cannot read (fan from '[^']*'|[a-z ]+): )?'\w*'\n")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_malformed_argv())
def test_cli_contract_on_malformed_inputs(argv):
    """Every input ends in an answer (0), a NO under --assert (1), an input
    error (2) or a computational defect (3); no exception escapes main."""
    _factorize_cached.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc in (0, 1, 2, 3), (argv, rc, err.getvalue())
    # a missing key is named with its object, never printed as a bare 'key'
    assert not _BARE_KEY.fullmatch(err.getvalue()), (argv, err.getvalue())
    if rc == 1:
        assert "--assert" in argv, (argv, out.getvalue())
        assert ": NO" in out.getvalue() or "M-point: no" in out.getvalue(), argv
