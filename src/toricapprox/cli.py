"""Command-line front end.

Exit codes: 0 success, 1 mathematical NO under --assert, 2 input error
(including a fan JSON that fails fan_validate), 3 computational defect (scan
cap, retries, non-principal pullback, oversized factorization, a failed
internal assertion or an arithmetic error).
"""
from __future__ import annotations

import argparse
import json
import math
import sys

from . import __version__
from .approx import RetriesExhausted, ScanCapExhausted, m_point_approximate
from .conditions import (
    NotPrincipalError,
    ToricPair,
    conditions_from_json,
    darmon,
    MultiplicitySet,
)
from .decide import (
    Holds,
    Verdict,
    classify_thinness,
    darmon_projective_closed_form,
    decide_integral_m_approx,
    decide_m_approx,
    decide_strong_approx,
    integral_any_pair,
    invariants_of,
    pi1_root_stack,
)
from .enumerate import census_to_csv, crosscheck, enumerate_projective, enumerate_toric
from .fan import Fan, fan_validate, hirzebruch, product, projective_space, weighted_P11r
from .fields import FieldDescriptor, field_from_json, rho_of
from .points import CoxPoint, FactorizationError, is_m_point
from .intlat import INF


class InputError(ValueError):
    pass


def _load_json_arg(arg: str):
    """Accept either inline JSON or a path to a JSON file."""
    s = arg.strip()
    if s.startswith("{") or s.startswith("["):
        return json.loads(s)
    with open(arg) as fh:
        return json.load(fh)


def parse_fan(arg: str) -> Fan:
    """A builtin shorthand (p1, p2, p1xp1, hirzebruch:2, p11r:3) or JSON.

    A fan given as JSON must pass fan_validate; builtins are valid by
    construction.
    """
    s = arg.strip().lower()
    if s.startswith("p1xp1"):
        return product(projective_space(1), projective_space(1))
    if s.startswith("hirzebruch:") or s.startswith("h:"):
        return hirzebruch(int(s.split(":")[1]))
    if s.startswith("p11r:"):
        return weighted_P11r(int(s.split(":")[1]))
    if len(s) >= 2 and s[0] == "p" and s[1:].isdigit():
        return projective_space(int(s[1:]))
    try:
        fan = Fan.from_json_obj(_load_json_arg(arg))
        diags = fan_validate(fan)
    except (OSError, json.JSONDecodeError, KeyError, TypeError) as e:
        raise InputError(f"cannot read fan from {arg!r}: {e}")
    if diags:
        raise InputError("invalid fan: " + "; ".join(diags))
    return fan


def _parse_mult(token: str):
    return INF if token in ("inf", "oo") else int(token)


def parse_conditions(args, n_rays: int) -> MultiplicitySet:
    if args.darmon:
        return darmon([_parse_mult(t) for t in args.darmon.split(",")])
    if args.campana:
        from .conditions import campana
        return campana([_parse_mult(t) for t in args.campana.split(",")])
    if args.cond:
        try:
            return conditions_from_json(_load_json_arg(args.cond))
        except (OSError, json.JSONDecodeError, ValueError) as e:
            raise InputError(f"cannot read conditions: {e}")
    raise InputError("supply --cond, --darmon or --campana")


def parse_field(arg) -> FieldDescriptor:
    if arg is None or arg.strip().lower() in ("q", "number_field"):
        return FieldDescriptor.number_field()
    try:
        return field_from_json(_load_json_arg(arg))
    except (OSError, json.JSONDecodeError, ValueError, KeyError, TypeError) as e:
        raise InputError(f"cannot read field descriptor: {e}")


def _emit_verdict(v: Verdict, args) -> int:
    if args.json:
        print(json.dumps(v.to_json(), indent=2))
    else:
        print(f"{v.property}: {v.holds.value.upper()}")
        for r in v.reasons:
            print(f"  - {r}")
    if getattr(args, "assert_", False) and v.holds is Holds.NO:
        return 1
    return 0


def cmd_validate(args) -> int:
    fan = parse_fan(args.fan)
    print("fan ok" if not args.json else json.dumps({"valid": True}))
    if args.cond or args.darmon or args.campana:
        ms = parse_conditions(args, len(fan.rays))
        ToricPair(fan, ms)  # arity check
        print("conditions ok" if not args.json else json.dumps({"conditions": True}))
    return 0


def cmd_analyze(args) -> int:
    fan = parse_fan(args.fan)
    pair = ToricPair(fan, parse_conditions(args, len(fan.rays)))
    obj = invariants_of(pair).to_json()
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        for k, v in obj.items():
            print(f"{k}: {v}")
    return 0


def cmd_decide(args) -> int:
    fan = parse_fan(args.fan)
    field = parse_field(args.field)
    T_nonempty = not args.everywhere
    if args.what == "strong-approx":
        removed = [int(x) for x in args.removed.split(",")] if args.removed else []
        v = decide_strong_approx(fan, removed, field, T_nonempty)
        return _emit_verdict(v, args)
    pair = ToricPair(fan, parse_conditions(args, len(fan.rays)))
    if args.what == "m-approx":
        v = decide_m_approx(pair, field, T_nonempty)
    elif args.what == "integral":
        v = decide_integral_m_approx(pair, field, T_nonempty)
    elif args.what in ("thinness", "hilbert"):
        rep = classify_thinness(pair, field, B_equals_C=args.b_equals_c,
                                T_nonempty=T_nonempty)
        if args.what == "thinness":
            if args.json:
                print(json.dumps(rep.to_json(), indent=2))
            else:
                print(f"thinness: {rep.classification.value}"
                      + (f" d={list(rep.d_list)}" if rep.d_list else ""))
                print(f"zariski_dense: {rep.zariski_dense.value}")
                for r in rep.reasons:
                    print(f"  - {r}")
            return 0
        # hilbert: over a global field the M-Hilbert property is equivalent to
        # M-approximation off T
        if not field.is_global():
            v = Verdict("m_hilbert_property", Holds.UNKNOWN,
                        ("the equivalence with M-approximation is stated over "
                         "global fields",))
        else:
            inner = decide_m_approx(pair, field, True)
            v = Verdict("m_hilbert_property", inner.holds, inner.reasons,
                        inner.invariants)
    else:
        raise InputError(f"unknown decision {args.what!r}")
    return _emit_verdict(v, args)


def cmd_pi1(args) -> int:
    fan = parse_fan(args.fan)
    ms = darmon([_parse_mult(t) for t in args.m.split(",")])
    res = pi1_root_stack(ToricPair(fan, ms), char=args.char)
    q = res.quotient
    obj = {"invariant_factors": list(q.invariant_factors),
           "free_rank": q.free_rank, "label": res.label}
    if args.json:
        print(json.dumps(obj))
    else:
        body = "trivial" if q.is_trivial else list(q.invariant_factors)
        print(f"{body} ({res.label}"
              + (f", plus {q.free_rank} copies of Z-hat" if q.free_rank else "")
              + ")")
    return 0


def cmd_check_point(args) -> int:
    fan = parse_fan(args.fan)
    pair = ToricPair(fan, parse_conditions(args, len(fan.rays)))
    obj = _load_json_arg(args.point)
    P = CoxPoint.from_json(fan, obj)
    excluded = [int(x) for x in args.exclude.split(",")] if args.exclude else []
    w = is_m_point(pair, P, excluded_primes=excluded)
    if args.json:
        print(json.dumps({"is_m_point": w.ok, "prime": w.prime,
                          "vector": None if w.vector is None
                          else [str(x) for x in w.vector]}))
    else:
        if w.ok:
            print("M-point: yes")
        else:
            where = f"at p={w.prime}" if w.prime else "generically"
            print(f"M-point: no ({where}, multiplicities {w.vector})")
    if args.assert_ and not w.ok:
        return 1
    return 0


def cmd_approximate(args) -> int:
    fan = parse_fan(args.fan)
    pair = ToricPair(fan, parse_conditions(args, len(fan.rays)))
    raw = _load_json_arg(args.targets)
    targets = {}
    for p, spec in raw.items():
        targets[int(p)] = (CoxPoint.from_json(fan, spec["point"]),
                           int(spec.get("digits", 1)))
    cert = m_point_approximate(pair, targets)
    if args.json:
        print(json.dumps(cert.to_json(), indent=2))
    else:
        print("point:", ":".join(str(c) for c in cert.point.coords))
        print("verified:", cert.verified())
        for p, k, got in cert.closeness:
            print(f"  p={p}: requested {k} digits, achieved {got}")
    return 0


def cmd_enumerate(args) -> int:
    fan = parse_fan(args.fan)
    pair = ToricPair(fan, parse_conditions(args, len(fan.rays)))
    if args.interior:
        census = enumerate_toric(pair, args.height)
    else:
        census = enumerate_projective(pair, args.height)
    if args.csv:
        print(census_to_csv(census), end="")
    elif args.json:
        print(json.dumps(census.to_json(), indent=2))
    else:
        print(f"count: {census.count} (height <= {census.height})")
        print(f"note: {census.normalization_note}")
    return 0


def cmd_crosscheck(args) -> int:
    fan = parse_fan(args.fan)
    pair = ToricPair(fan, parse_conditions(args, len(fan.rays)))
    rep = crosscheck(pair, args.height)
    if args.json:
        print(json.dumps({"checked": rep.checked, "ok": rep.ok,
                          "divergences": [list(map(str, d)) for d in rep.divergences]}))
    else:
        print(f"checked {rep.checked} points: "
              + ("no divergences" if rep.ok else f"DIVERGED at {rep.divergences[0]}"))
    return 0 if rep.ok else 1


def example_catalog(name: str, params: dict):
    """Worked setups with their expected verdicts attached."""
    Q = FieldDescriptor.number_field()
    rho = rho_of(Q)
    if name == "pn-darmon":
        n = int(params.get("n", 3))
        m = params.get("m", (2, 3, 5))
        fan = projective_space(n - 1)
        expected = darmon_projective_closed_form(n, m, rho, True).holds
        return fan, darmon(list(m)), Q, expected
    if name == "hirzebruch":
        r = int(params.get("r", 2))
        m = params.get("m", (2, 2, 2, 2))
        fan = hirzebruch(r)
        m1, m2, m3, m4 = m
        g = math.gcd(m1 * m2, m1 * m4, m2 * m3, m3 * m4, r * m1 * m3)
        expected = Holds.YES if g == 1 else Holds.NO
        return fan, darmon(list(m)), Q, expected
    if name == "p11r":
        r = int(params.get("r", 2))
        m = params.get("m", (2, 3, 7))
        fan = weighted_P11r(r)
        ok = math.gcd(m[0], m[1]) == 1 and math.gcd(m[0] * m[1], m[2], r - 1) == 1
        expected = Holds.YES if ok else Holds.NO
        return fan, darmon(list(m)), Q, expected
    if name == "affine-space":
        d = int(params.get("d", 2))
        fan = projective_space(d)
        pair = integral_any_pair(fan, [d])  # remove one hyperplane
        return fan, pair.conditions, Q, Holds.YES
    raise InputError(f"unknown example {name!r}; choose from pn-darmon, "
                     "hirzebruch, p11r, affine-space")


def cmd_example(args) -> int:
    params = {}
    if args.n:
        params["n"] = args.n
    if args.r is not None:
        params["r"] = args.r
    if args.m:
        params["m"] = tuple(_parse_mult(t) for t in args.m.split(","))
    if args.d:
        params["d"] = args.d
    fan, ms, field, expected = example_catalog(args.name, params)
    pair = ToricPair(fan, ms)
    v = decide_m_approx(pair, field, True)
    match = v.holds == expected
    if args.json:
        obj = v.to_json()
        obj["expected"] = expected.value
        obj["matches_expected"] = match
        print(json.dumps(obj, indent=2))
    else:
        print(f"example {args.name}: pipeline={v.holds.value.upper()} "
              f"expected={expected.value.upper()} "
              + ("(consistent)" if match else "(MISMATCH)"))
        for r in v.reasons:
            print(f"  - {r}")
    return 0 if match else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="toricapprox",
                                description="Approximation, Hilbert-property and "
                                "thinness verdicts for toric pairs over Q")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, cond=True, field=False):
        sp.add_argument("--fan", required=True,
                        help="builtin shorthand (p2, p1xp1, hirzebruch:2, p11r:3) "
                        "or fan JSON (inline or path)")
        sp.add_argument("--json", action="store_true", help="machine output")
        if cond:
            sp.add_argument("--cond", help="multiplicity set JSON (inline or path)")
            sp.add_argument("--darmon", help="comma list of m (or inf) per ray")
            sp.add_argument("--campana", help="comma list of m (or inf) per ray")
        if field:
            sp.add_argument("--field", help="field JSON or 'q' (default: Q)")
            sp.add_argument("--everywhere", action="store_true",
                            help="T empty: approximation at the full place set")
            sp.add_argument("--assert", dest="assert_", action="store_true",
                            help="exit 1 on a NO verdict")

    sp = sub.add_parser("validate", help="check a fan (and optional conditions)")
    common(sp)
    sp.set_defaults(func=cmd_validate)

    sp = sub.add_parser("analyze", help="print the pair invariants")
    common(sp)
    sp.set_defaults(func=cmd_analyze)

    sp = sub.add_parser("decide", help="theorem-level verdicts")
    sp.add_argument("what", choices=["m-approx", "strong-approx", "integral",
                                     "thinness", "hilbert"])
    common(sp, field=True)
    sp.add_argument("--removed", help="ray indices to remove (strong-approx)")
    sp.add_argument("--b-equals-c", action="store_true",
                    help="the model is proper (B = C, function fields)")
    sp.set_defaults(func=cmd_decide)

    sp = sub.add_parser("pi1", help="fundamental group of the root stack")
    sp.add_argument("--fan", required=True)
    sp.add_argument("--m", required=True, help="comma list of multiplicities")
    sp.add_argument("--char", type=int, default=0)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_pi1)

    sp = sub.add_parser("check-point", help="M-point membership with witness")
    common(sp)
    sp.add_argument("--point", required=True, help='{"coords": ["12","5","9"]}')
    sp.add_argument("--exclude", help="comma list of excluded primes")
    sp.add_argument("--assert", dest="assert_", action="store_true")
    sp.set_defaults(func=cmd_check_point)

    sp = sub.add_parser("approximate", help="construct an M-point near targets")
    common(sp)
    sp.add_argument("--targets", required=True,
                    help='{"2": {"point": {"coords": [..]}, "digits": 2}, ...}')
    sp.set_defaults(func=cmd_approximate)

    sp = sub.add_parser("enumerate", help="bounded-height census")
    common(sp)
    sp.add_argument("--height", type=int, required=True)
    sp.add_argument("--interior", action="store_true",
                    help="all-nonzero Cox tuples on a general smooth fan")
    sp.add_argument("--csv", action="store_true")
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("crosscheck", help="fan machinery vs arithmetic oracle")
    common(sp)
    sp.add_argument("--height", type=int, required=True)
    sp.set_defaults(func=cmd_crosscheck)

    sp = sub.add_parser("example", help="worked setups with expected verdicts")
    sp.add_argument("name", choices=["pn-darmon", "hirzebruch", "p11r",
                                     "affine-space"])
    sp.add_argument("--n", type=int)
    sp.add_argument("--r", type=int)
    sp.add_argument("--m")
    sp.add_argument("--d", type=int)
    sp.add_argument("--json", action="store_true")
    sp.set_defaults(func=cmd_example)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ScanCapExhausted, RetriesExhausted, NotPrincipalError,
            FactorizationError, AssertionError, ArithmeticError) as e:
        print(f"computational defect: {str(e) or type(e).__name__}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
