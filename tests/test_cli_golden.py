"""Golden CLI transcripts: one call of every subcommand, byte for byte.

Each case's stdout, stderr and exit code are stored in cli_golden.json.  When
an output change is intended, rewrite that file with

    PYTHONPATH=src python tests/test_cli_golden.py

and review its diff: every changed line is a changed output.
"""
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest

from toricapprox.cli import main

GOLDEN = Path(__file__).with_name("cli_golden.json")

_T2_EXACT = json.dumps({"2": {"point": {"coords": ["1", "2"]}, "digits": 3}})
_T7 = json.dumps({"7": {"point": {"coords": ["5", "1"]}, "digits": 2}})

# (argv, environment overrides)
CASES = [
    (["validate", "--fan", "p2", "--darmon", "2,3,5"], {}),
    (["validate", "--fan", "hirzebruch:1", "--json"], {}),
    (["analyze", "--fan", "p2", "--darmon", "2,2,2"], {}),
    (["analyze", "--fan", "p11r:3", "--campana", "2,3,7", "--json"], {}),
    (["decide", "m-approx", "--fan", "p2", "--darmon", "2,3,5"], {}),
    (["decide", "m-approx", "--fan", "hirzebruch:2", "--darmon", "2,2,2,2", "--json"], {}),
    (["decide", "integral", "--fan", "p1", "--campana", "2,3", "--everywhere"], {}),
    (["decide", "strong-approx", "--fan", "p2", "--removed", "0"], {}),
    (["decide", "thinness", "--fan", "p1", "--darmon", "2,2"], {}),
    (["decide", "thinness", "--fan", "p2", "--darmon", "2,3,5", "--json"], {}),
    (["decide", "hilbert", "--fan", "p2", "--darmon", "2,2,2"], {}),
    (["pi1", "--fan", "p2", "--m", "2,2,2"], {}),
    (["pi1", "--fan", "p1", "--m", "4,6", "--char", "2", "--json"], {}),
    (["check-point", "--fan", "p1", "--campana", "2,2", "--point",
      '{"coords": ["4", "9"]}'], {}),
    (["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point",
      '{"coords": ["8", "9", "0"]}', "--json"], {}),
    # an exact p-adic match: the closeness is infinite
    (["approximate", "--fan", "p1", "--darmon", "2,3", "--targets", _T2_EXACT], {}),
    (["approximate", "--fan", "p1", "--darmon", "2,3", "--targets", _T2_EXACT, "--json"], {}),
    (["approximate", "--fan", "p1", "--darmon", "2,3", "--targets", _T7, "--json"], {}),
    (["enumerate", "--fan", "p1", "--campana", "2,2", "--height", "3", "--csv"], {}),
    (["enumerate", "--fan", "p1xp1", "--darmon", "2,2,2,2", "--height", "4",
      "--interior"], {}),
    (["crosscheck", "--fan", "p2", "--darmon", "2,3,2", "--height", "3"], {}),
    (["example", "hirzebruch", "--r", "3", "--m", "1,2,1,2"], {}),
    (["example", "pn-darmon", "--json"], {}),
    # bad input (exit 2) and a computational defect (exit 3)
    (["approximate", "--fan", "p1", "--darmon", "2,3", "--targets",
      json.dumps({"1": {"point": {"coords": ["1", "2"]}, "digits": 1}})], {}),
    (["check-point", "--fan", "p2", "--darmon", "2,2,2", "--point",
      '{"coords": ["8", "9", "1"]}', "--exclude", "4"], {}),
    (["approximate", "--fan", "p1", "--darmon", "2,3", "--targets", _T7],
     {"TORICAPPROX_SCAN_CAP": "1"}),
    # the integer construction: two primes on P^2, negative exponents on H_2
    # (rays with negative entries), two primes on P^1 x P^1
    (["approximate", "--fan", "p2", "--campana", "2,2,2", "--targets", json.dumps(
        {"7": {"point": {"coords": ["1", "2", "3"]}, "digits": 2},
         "11": {"point": {"coords": ["-2/5", "3", "7"]}, "digits": 1}})], {}),
    (["approximate", "--fan", "hirzebruch:2", "--campana", "2,1,1,3", "--targets",
      json.dumps({"3": {"point": {"coords": ["-3/4", "5", "2/9", "7"]}, "digits": 2}}),
      "--json"], {}),
    (["approximate", "--fan", "hirzebruch:2", "--darmon", "2,3,1,5", "--targets", json.dumps(
        {"2": {"point": {"coords": ["-3/4", "5", "2/9", "7"]}, "digits": 1},
         "5": {"point": {"coords": ["6", "-1/25", "3", "2/7"]}, "digits": 1}})], {}),
    (["approximate", "--fan", "p1xp1", "--darmon", "2,3,2,5", "--targets", json.dumps(
        {"2": {"point": {"coords": ["3", "-5/3", "7", "1/11"]}, "digits": 1},
         "13": {"point": {"coords": ["2", "9", "-4", "5/7"]}, "digits": 1}}), "--json"], {}),
]


def transcript(argv, env) -> dict:
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, env), redirect_stdout(out), redirect_stderr(err):
        rc = main(list(argv))
    return {"argv": argv, "env": env, "rc": rc,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def _case_id(case) -> str:
    argv, _ = case
    return " ".join(a for a in argv[:2] if not a.startswith("-"))


@pytest.mark.parametrize("index", range(len(CASES)),
                         ids=[f"{i}-{_case_id(c)}" for i, c in enumerate(CASES)])
def test_cli_transcript_is_unchanged(index):
    want = json.loads(GOLDEN.read_text())[index]
    assert transcript(*CASES[index]) == want


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps([transcript(*c) for c in CASES], indent=1) + "\n")
    print(f"wrote {len(CASES)} transcripts to {GOLDEN}", file=sys.stderr)
