"""Command-line front end.

Exit codes: 0 success, 1 mathematical NO under --assert, 2 input error (a fan
failing fan_validate, which ToricPair and validate check first, or lacking
what the command assumes of it, which fan.require checks), 3
computational defect (scan cap, non-principal pullback, a factorization past
its rho budget, a failed internal assertion, an arithmetic error or exhausted memory).
"""
from __future__ import annotations

import argparse
import io
import json
import math
import os
import sys
from contextlib import redirect_stdout

from . import __version__
from .conditions import (
    ToricPair,
    campana,
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
    VERDICT_FAN,
)
from .fan import (Fan, NotPrincipalError, check_fan, hirzebruch, product, projective_space,
                  require, weighted_P11r)
from .fields import FieldDescriptor, field_from_json, rho_of
from .points import (CoxPoint, FactorizationError, ScanCapExhausted, is_m_point,
                     is_prime)
from .intlat import INF, json_object, json_value


def _read_json(arg: str, read, what: str):
    """read(the JSON of arg, inline or a file path), or ValueError "cannot read <what>: ..."."""
    s = arg.strip()
    try:
        if s.startswith("{") or s.startswith("["):
            return read(json.loads(s))
        with open(arg) as fh:
            return read(json.load(fh))
    except (OSError, ValueError) as e:
        raise ValueError(f"cannot read {what}: {e}")


def _ints(flag: str, text: str, inf: bool = False, one: bool = False):
    """text as a comma list of integers ("inf" and "oo" too, with inf), or with
    one as a single integer; a ValueError names flag and what it takes."""
    try:
        out = [INF if inf and t in ("inf", "oo") else int(t) for t in text.split(",")]
        if one:
            (out,) = out
        return out
    except ValueError:
        takes = "an integer" if one else "a comma list of integers" + (" or inf" if inf else "")
        raise ValueError(f"{flag} takes {takes}, got {text!r}") from None


def parse_fan(arg: str) -> Fan:
    """A builtin shorthand (p1, p2, p1xp1, hirzebruch:2, p11r:3) or JSON, not yet
    validated: ToricPair checks the fan, and validate before any conditions."""
    s = arg.strip().lower()
    if s.startswith("p1xp1"):
        return product(projective_space(1), projective_space(1))
    head, colon, r = s.partition(":")
    if colon and head in ("hirzebruch", "h", "p11r"):
        r = _ints(f"--fan {head}:<r>", r, one=True)
        return weighted_P11r(r) if head == "p11r" else hirzebruch(r)
    if len(s) >= 2 and s[0] == "p" and s[1:].isdigit():
        return projective_space(int(s[1:]))
    return _read_json(arg, Fan.from_json_obj, f"fan from {arg!r}")


def parse_conditions(args) -> MultiplicitySet:
    if args.darmon:
        return darmon(_ints("--darmon", args.darmon, inf=True))
    if args.campana:
        return campana(_ints("--campana", args.campana, inf=True))
    if args.cond:
        return _read_json(args.cond, conditions_from_json, "conditions")
    raise ValueError("supply --cond, --darmon or --campana")


def parse_field(arg) -> FieldDescriptor:
    if arg is None or arg.strip().lower() in ("q", "number_field"):
        return FieldDescriptor.number_field()
    return _read_json(arg, field_from_json, "field descriptor")


def parse_targets(fan: Fan, arg: str) -> dict:
    """{"p": {"point": {"coords": [...]}, "digits": k}, ...} as {p: (point, k)}.

    k is passed on as given: m_point_approximate rejects anything but an
    integer >= 1."""
    def target(spec):
        point = json_value(spec, "point", "a target")
        json_object(spec, "a target", "point", "digits")
        return CoxPoint.from_json(fan, point), json_value(spec, "digits", "a target", default=1)

    def key(p):
        if not (p.isascii() and p.isdigit()):
            raise ValueError(f"target keys must be primes in decimal digits, got {p!r}")
        return int(p)

    def read(raw):
        return {key(p): target(spec) for p, spec in json_object(raw, "the targets").items()}

    targets = _read_json(arg, read, "targets")
    for p in targets:
        if not is_prime(p):
            raise ValueError(f"target keys must be primes, got {p}")
    return targets


def _emit_verdict(v: Verdict, args) -> int:
    if args.json:
        print(json.dumps(v.to_json(), indent=2))
    else:
        print(f"{v.property}: {v.holds.value.upper()}")
        for r in v.reasons:
            print(f"  - {r}")
    return 1 if args.assert_ and v.holds is Holds.NO else 0


def _pair(args) -> ToricPair:
    return ToricPair(parse_fan(args.fan), parse_conditions(args))


def cmd_validate(args) -> int:
    fan = parse_fan(args.fan)
    check_fan(fan)
    given = bool(args.cond or args.darmon or args.campana)
    if given:
        ToricPair(fan, parse_conditions(args))  # arity check
    if args.json:
        print(json.dumps({"valid": True, "conditions": True} if given else {"valid": True}))
    else:
        print("fan ok\nconditions ok" if given else "fan ok")
    return 0


def cmd_analyze(args) -> int:
    obj = invariants_of(_pair(args)).to_json()
    if args.json:
        print(json.dumps(obj, indent=2))
    else:
        for k, v in obj.items():
            print(f"{k}: {v}")
    return 0


def cmd_decide(args) -> int:
    fan = parse_fan(args.fan)
    field = parse_field(args.field)
    if args.what == "strong-approx":
        removed = _ints("--removed", args.removed) if args.removed else []
        return _emit_verdict(decide_strong_approx(fan, removed, field, not args.everywhere),
                             args)
    pair = ToricPair(fan, parse_conditions(args))
    if args.what == "thinness":
        rep = classify_thinness(pair, field, B_equals_C=args.b_equals_c,
                                T_nonempty=not args.everywhere)
        if args.json:
            print(json.dumps(rep.to_json(), indent=2))
        else:
            print(f"thinness: {rep.classification.value}"
                  + (f" d={list(rep.d_list)}" if rep.d_list else ""))
            print(f"zariski_dense: {rep.zariski_dense.value}")
            for r in rep.reasons:
                print(f"  - {r}")
        return 0
    if args.what != "hilbert":
        decide = decide_m_approx if args.what == "m-approx" else decide_integral_m_approx
        return _emit_verdict(decide(pair, field, not args.everywhere), args)
    # over a global field the M-Hilbert property is equivalent to
    # M-approximation off T
    if field.is_global():
        inner = decide_m_approx(pair, field, True)
        v = Verdict("m_hilbert_property", inner.holds, inner.reasons, inner.invariants)
    else:
        require(fan, "verdicts", *VERDICT_FAN)
        v = Verdict("m_hilbert_property", Holds.UNKNOWN,
                    ("the equivalence with M-approximation is stated over "
                     "global fields",))
    return _emit_verdict(v, args)


def cmd_pi1(args) -> int:
    fan = parse_fan(args.fan)
    ms = darmon(_ints("--m", args.m, inf=True))
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
    pair = _pair(args)
    P = _read_json(args.point, lambda obj: CoxPoint.from_json(pair.fan, obj), "point")
    excluded = _ints("--exclude", args.exclude) if args.exclude else []
    for p in excluded:
        if not is_prime(p):
            raise ValueError(f"excluded primes must be primes, got {p}")
    w = is_m_point(pair, P, excluded_primes=excluded)
    if args.json:
        print(json.dumps({"is_m_point": w.ok, "prime": w.prime,
                          "vector": None if w.vector is None
                          else [str(x) for x in w.vector]}))
    elif w.ok:
        print("M-point: yes")
    else:
        where = f"at p={w.prime}" if w.prime else "generically"
        print(f"M-point: no ({where}, multiplicities {w.vector})")
    return 1 if args.assert_ and not w.ok else 0


def cmd_approximate(args) -> int:
    from .approx import m_point_approximate

    pair = _pair(args)
    cert = m_point_approximate(pair, parse_targets(pair.fan, args.targets))
    if args.json:
        print(json.dumps(cert.to_json(), indent=2))
    else:
        print("point:", ":".join(str(c) for c in cert.point.coords))
        print("verified:", cert.verified())
        for p, k, got in cert.closeness:
            print(f"  p={p}: requested {k} digits, achieved {got}")
    return 0


def cmd_enumerate(args) -> int:
    from .enumerate import census_to_csv, enumerate_projective, enumerate_toric

    pair = _pair(args)
    census = (enumerate_toric if args.interior else enumerate_projective)(pair, args.height)
    if args.csv:
        print(census_to_csv(census), end="")
    elif args.json:
        print(json.dumps(census.to_json(), indent=2))
    else:
        print(f"count: {census.count} (height <= {census.height})")
        print(f"note: {census.normalization_note}")
    return 0


def cmd_crosscheck(args) -> int:
    from .enumerate import crosscheck

    rep = crosscheck(_pair(args), args.height)
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

    def mults(default, count, finite=True):
        m = tuple(params.get("m", default))
        if len(m) != count:
            raise ValueError(f"example {name} needs {count} multiplicities, got {len(m)}")
        if finite and INF in m:
            raise ValueError(f"example {name} needs finite multiplicities")
        return m

    if name == "pn-darmon":
        n = int(params.get("n", 3))
        if n < 2:
            raise ValueError(f"example pn-darmon needs n >= 2, got {n}")
        m = mults((2, 3, 5), n, finite=False)
        fan = projective_space(n - 1)
        expected = darmon_projective_closed_form(n, m, rho_of(Q), True).holds
        return fan, darmon(list(m)), Q, expected
    if name == "hirzebruch":
        r = int(params.get("r", 2))
        m1, m2, m3, m4 = m = mults((2, 2, 2, 2), 4)
        fan = hirzebruch(r)
        g = math.gcd(m1 * m2, m1 * m4, m2 * m3, m3 * m4, r * m1 * m3)
        expected = Holds.YES if g == 1 else Holds.NO
        return fan, darmon(list(m)), Q, expected
    if name == "p11r":
        r = int(params.get("r", 2))
        m = mults((2, 3, 7), 3)
        fan = weighted_P11r(r)
        ok = math.gcd(m[0], m[1]) == 1 and math.gcd(m[0] * m[1], m[2], r - 1) == 1
        expected = Holds.YES if ok else Holds.NO
        return fan, darmon(list(m)), Q, expected
    if name == "affine-space":
        d = int(params.get("d", 2))
        if d < 1:
            raise ValueError(f"example affine-space needs d >= 1, got {d}")
        fan = projective_space(d)
        pair = integral_any_pair(fan, [d])  # remove one hyperplane
        return fan, pair.conditions, Q, Holds.YES
    raise ValueError(f"unknown example {name!r}; choose from pn-darmon, "
                     "hirzebruch, p11r, affine-space")


def cmd_example(args) -> int:
    params = {k: v for k, v in vars(args).items() if k in ("n", "r", "m", "d") and v is not None}
    if "m" in params:
        params["m"] = tuple(_ints("--m", params["m"], inf=True))
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


# every command and the function that runs it, in the order --help lists them
COMMANDS = {"validate": cmd_validate, "analyze": cmd_analyze, "decide": cmd_decide,
            "pi1": cmd_pi1, "check-point": cmd_check_point, "approximate": cmd_approximate,
            "enumerate": cmd_enumerate, "crosscheck": cmd_crosscheck, "example": cmd_example}


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of every command, or, when argv names one, of that command
    alone and, under decide or example, of the verdict or example it names."""
    p = argparse.ArgumentParser(prog="toricapprox",
                                description="Approximation, Hilbert-property and "
                                "thinness verdicts for toric pairs over Q")
    p.add_argument("--version", action="version", version=__version__)

    def subcommands(parser, dest, names, i):
        """add_parser for dest, giving None for every name but argv[i] if
        argv[i] is one of names; usage still lists them all."""
        keep = argv[i] if len(argv) > i and argv[i] in names else None
        sub = parser.add_subparsers(dest=dest, required=True,
                                    metavar=keep and "{" + ",".join(names) + "}")
        return lambda name, **kw: sub.add_parser(name, **kw) if keep in (None, name) else None

    def common(sp, cond=True):
        """--fan, --json and, with cond, at most one of the three condition
        flags; returns the output-format group that holds --json."""
        sp.add_argument("--fan", required=True,
                        help="builtin shorthand (p2, p1xp1, hirzebruch:2, p11r:3) "
                        "or fan JSON (inline or path)")
        output = sp.add_mutually_exclusive_group()
        output.add_argument("--json", action="store_true", help="machine output")
        if cond:
            given = sp.add_mutually_exclusive_group()
            given.add_argument("--cond", help="multiplicity set JSON (inline or path)")
            given.add_argument("--darmon", help="comma list of m (or inf) per ray")
            given.add_argument("--campana", help="comma list of m (or inf) per ray")
        return output

    add = subcommands(p, "command", COMMANDS, 0)
    if sp := add("validate", help="check a fan (and optional conditions)"):
        common(sp)
    if sp := add("analyze", help="print the pair invariants"):
        common(sp)

    # each verdict: conditions?, --everywhere?, --assert?, the flags it alone reads
    verdicts = {
        "m-approx": (True, True, True, {}),
        "strong-approx": (False, True, True,
                          {"--removed": dict(help="comma list of ray indices to remove")}),
        "integral": (True, True, True, {}),
        "thinness": (True, True, False,
                     {"--b-equals-c": dict(action="store_true",
                                           help="the model is proper (B = C, function fields)")}),
        "hilbert": (True, False, True, {})}
    if sp := add("decide", help="theorem-level verdicts"):
        add_verdict = subcommands(sp, "what", verdicts, 1)
        for what, (cond, everywhere, assert_, own) in verdicts.items():
            if vp := add_verdict(what):
                common(vp, cond)
                vp.add_argument("--field", help="field JSON or 'q' (default: Q)")
                if everywhere:
                    vp.add_argument("--everywhere", action="store_true",
                                    help="T empty: approximation at the full place set")
                if assert_:
                    vp.add_argument("--assert", dest="assert_", action="store_true",
                                    help="exit 1 on a NO verdict")
                for flag, kwargs in own.items():
                    vp.add_argument(flag, **kwargs)

    if sp := add("pi1", help="fundamental group of the root stack"):
        sp.add_argument("--fan", required=True)
        sp.add_argument("--m", required=True, help="comma list of multiplicities")
        sp.add_argument("--char", type=int, default=0)
        sp.add_argument("--json", action="store_true")

    if sp := add("check-point", help="M-point membership with witness"):
        common(sp)
        sp.add_argument("--point", required=True, help='{"coords": ["12","5","9"]}')
        sp.add_argument("--exclude", help="comma list of excluded primes")
        sp.add_argument("--assert", dest="assert_", action="store_true")

    if sp := add("approximate", help="construct an M-point near targets"):
        common(sp)
        sp.add_argument("--targets", required=True,
                        help='{"2": {"point": {"coords": [..]}, "digits": 2}, ...}')

    if sp := add("enumerate", help="bounded-height census"):
        common(sp).add_argument("--csv", action="store_true")
        sp.add_argument("--height", type=int, required=True)
        sp.add_argument("--interior", action="store_true",
                        help="all-nonzero Cox tuples on a general smooth fan")

    if sp := add("crosscheck", help="fan machinery vs arithmetic oracle"):
        common(sp)
        sp.add_argument("--height", type=int, required=True)

    examples = {"pn-darmon": "nm", "hirzebruch": "rm", "p11r": "rm", "affine-space": "d"}
    if sp := add("example", help="worked setups with expected verdicts"):
        add_example = subcommands(sp, "name", examples, 1)
        for name, params in examples.items():
            if ep := add_example(name):
                for k in params:
                    ep.add_argument("--" + k, type=None if k == "m" else int)
                ep.add_argument("--json", action="store_true")
    return p


def _run(args) -> int:
    try:
        return COMMANDS[args.command](args)
    except (ScanCapExhausted, NotPrincipalError, FactorizationError, AssertionError,
            ArithmeticError, MemoryError) as e:
        print(f"computational defect: {str(e) or type(e).__name__}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 2


def main(argv=None) -> int:
    """Run one command.  Its output is held until its exit status is decided,
    so a reader that closes the pipe early changes neither."""
    args = build_parser(sys.argv[1:] if argv is None else argv).parse_args(argv)
    out = io.StringIO()
    try:
        with redirect_stdout(out):
            return _run(args)
    finally:
        try:
            sys.stdout.write(out.getvalue())
            sys.stdout.flush()
        except BrokenPipeError:
            # the interpreter flushes stdout again at exit; send that to
            # the null device rather than into the closed pipe
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


if __name__ == "__main__":
    sys.exit(main())
