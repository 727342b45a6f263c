"""Seeded workload generators, op execution and output checks.

Each workload is a fixed pool of inputs, drawn once from a fixed generator
seed, and a run is an endless stream of rounds: round r is the whole pool in
the order that --seed draws for it.  Every seed therefore does the same work
in a different order, and since each op starts from a cold factorize cache,
the order does not change its cost; the figures of runs on different seeds
compare.  No measured op fails at seed: the inputs that reproduce the known
defects of ROADMAP section 4 form a separate probe (defect_probe), run in the
traced run only.  Ops are plain data; the package sees only the objects
built from them.
"""
from __future__ import annotations

import contextlib
import importlib
import io
import itertools
import json
import math
import os
import random
import signal
import subprocess
import sys
from fractions import Fraction
from types import SimpleNamespace

import refs
from refs import INF

MODULES = ("intlat", "fan", "conditions", "fields", "decide", "points",
           "approx", "enumerate", "cli")

# per-op time limit in seconds; an op that runs past it counts as failed
OP_LIMIT_S = {"verdicts": 10.0, "census": 10.0, "approximate": 2.0, "cli": 2.0}
KNOWN_FAILURES = ("FactorizationError", "ScanCapExhausted", "RetriesExhausted",
                  "NotPrincipalError")
FAILURE_CLASSES = KNOWN_FAILURES + ("timeout", "traceback", "exit3", "other")


def load_lib() -> SimpleNamespace:
    return SimpleNamespace(**{m: importlib.import_module(f"toricapprox.{m}")
                              for m in MODULES})


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------

def _singular_cycle() -> list:
    """The P(1,1,r) Darmon pairs every verdicts run cycles through.

    The grid is r in {2,3} (r = 1 is the smooth P^2), m in {1..4}^3, cut to
    the pairs of cost class at most 40 (box size grows with lcm(m); m_i = 1
    admits more generators): each goes through nm_singular in about 30 to
    300 ms.  The costlier pairs (0.5 to 2.5 s each) are left out: four of
    them took about half of a round, and their times swung the most with the
    load of the shared host.  The cut grid is ordered by cost class, walked with a
    golden-ratio stride, and the first 16 pairs of that walk form the cycle,
    in which expensive and cheap pairs alternate.  The cycle is the same for
    every seed."""
    def cost_class(item):
        r, m = item
        return (math.lcm(*m) ** 2 * (1 + m.count(1)), r, m)

    grid = sorted(((r, m) for r in (2, 3)
                   for m in itertools.product((1, 2, 3, 4), repeat=3)
                   if cost_class((r, m))[0] <= 40), key=cost_class)
    stride = round(0.618 * len(grid))
    while math.gcd(stride, len(grid)) != 1:
        stride += 1
    cycle = sorted((grid[(j * stride) % len(grid)] for j in range(16)), key=cost_class)
    return [x for pair in zip(cycle[::-1], cycle) for x in pair][:len(cycle)]


SINGULAR_CYCLE = _singular_cycle()
PN_M = (1, 2, 3, 4, 5, 6, INF)
HIRZ_M = (1, 2, 3, 4, 6)
SMALL_PRIMES = (2, 3, 5, 7, 11, 13)
HANG_PRIME = 999999999989


def _verdicts_pool(rng) -> list:
    """16 groups of 20 pairs: 19 smooth pairs and one from the P(1,1,r) cycle."""
    ops = []
    for r, m in SINGULAR_CYCLE:
        slots = ["p1", "p1", "p2", "p2", "p3", "p3"] + ["hirzebruch"] * 7 + ["campana"] * 6
        for s in slots:
            if s.startswith("p"):
                n = int(s[1])
                ops.append({"family": "pn", "fan": s,
                            "m": [rng.choice(PN_M) for _ in range(n + 1)]})
            elif s == "hirzebruch":
                h = rng.randrange(6)
                ops.append({"family": "hirzebruch", "fan": f"hirzebruch:{h}", "r": h,
                            "m": [rng.choice(HIRZ_M) for _ in range(4)]})
            else:
                fan = rng.choice(["p1", "p2", "p1xp1", "hirzebruch:0", "hirzebruch:1",
                                  "hirzebruch:2", "hirzebruch:3"])
                ops.append({"family": "campana", "fan": fan,
                            "m": [rng.choice((2, 3, 5)) for _ in range(_n_rays(fan))]})
        ops.append({"family": "p11r", "fan": f"p11r:{r}", "r": r, "m": list(m)})
    return ops


def _census_pool(rng) -> list:
    """48 jobs, eight of each kind, with H stepping through a range per kind
    so that job costs (about 2 to 320 ms) spread evenly rather than in a
    few clusters, which would make the median jump between them."""
    def cond(kinds, ms, n):
        kind = rng.choice(kinds)
        return [[kind, None if kind == "squarefree" else rng.choice(ms)] for _ in range(n)]

    any_kind = ["squarefree", "darmon", "campana"]
    kinds = [
        ("enumerate_projective", "p2", (2, 3, 4, 5), lambda: cond(["campana"], (2, 3), 3)),
        ("enumerate_projective", "p2", (2, 3, 4, 5), lambda: cond(["darmon"], (2, 3), 3)),
        ("crosscheck", "p1", (6, 9, 12, 15, 18, 21), lambda: cond(any_kind, (2, 3), 2)),
        ("crosscheck", "p2", (2, 3, 4), lambda: cond(any_kind, (2, 3), 3)),
        ("enumerate_toric", "p1", (3, 4, 5, 6, 7, 8),
         lambda: cond(["campana", "darmon"], (1, 2, 3), 2)),
        ("enumerate_toric", "p1xp1", (1, 2), lambda: cond(["campana", "darmon"], (1, 2, 3), 4)),
    ]
    ops = []
    for job, fan, heights, conds in kinds:
        for i in range(8):
            ops.append({"job": job, "fan": fan, "H": heights[i % len(heights)], "conds": conds()})
    return ops


def _index_one_conds(rng, fan: str, kind: str) -> list:
    """Campana or Darmon conditions with |N : N_M| = 1 (pairwise coprime
    Darmon multiplicities within each projective factor)."""
    if kind == "campana":
        return [["campana", rng.choice((2, 3))] for _ in range(_n_rays(fan))]
    ms = []
    for block in refs.BLOCKS[fan]:
        ms += rng.sample((2, 3, 5, 7), len(block))
    return [["darmon", m] for m in ms]


def _random_target(rng, n: int) -> list:
    return [str(Fraction(rng.randint(1, 9) * rng.choice((1, -1)), rng.randint(1, 4)))
            for _ in range(n)]


def _approximate_requests(rng, cells, draws: int) -> list:
    """draws requests in every (fan, condition kind, (primes, digits)) cell."""
    ops = []
    for _ in range(draws):
        for fan, kind, (k, digits) in itertools.product(("p1", "p2", "p1xp1"),
                                                        ("campana", "darmon"), cells):
            primes = sorted(rng.sample(SMALL_PRIMES, k))
            ops.append({"fan": fan, "conds": _index_one_conds(rng, fan, kind),
                        "targets": {str(p): [_random_target(rng, _n_rays(fan)), digits]
                                    for p in primes}})
    return ops


# (number of primes, digits): the workload's cells, where no request failed
# in 15 draws per cell, and the cells of the factorization defect (ROADMAP
# 4(a)), where about two thirds of the requests end in FactorizationError;
# those run only in the known-defect probe
APPROX_CELLS = ((1, 1), (1, 2), (1, 3), (2, 1))
APPROX_DEFECT_CELLS = tuple((k, d) for k in (2, 3) for d in (2, 3, 4, 5))


def _approximate_pool(rng) -> list:
    return _approximate_requests(rng, APPROX_CELLS, 4)


def _cli_pool(rng) -> list:
    kinds = (["m-approx"] * 5 + ["hilbert"] * 2 + ["thinness"] * 4 + ["analyze"] * 4
             + ["pi1"] * 3 + ["check-point"] * 3 + ["validate"] * 3)
    return [_cli_op(rng, kind) for kind in kinds]


def _cli_op(rng, kind: str) -> dict:
    def pn_darmon(ns=(1, 2, 3)):
        n = rng.choice(ns)
        return f"p{n}", [rng.randint(1, 6) for _ in range(n + 1)]

    if kind in ("m-approx", "hilbert", "analyze"):
        if kind == "hilbert" or rng.random() < 0.6:
            fan, m = pn_darmon()
            r = None
        else:
            r = rng.randrange(6)
            fan, m = f"hirzebruch:{r}", [rng.choice(HIRZ_M) for _ in range(4)]
        argv = ["decide", kind] if kind != "analyze" else ["analyze"]
        argv += ["--fan", fan, "--darmon", ",".join(map(str, m))]
        everywhere = kind == "m-approx" and rng.random() < 0.3
        as_json = kind == "analyze" or rng.random() < 0.3
        argv += ["--everywhere"] * everywhere + ["--json"] * as_json
        return {"kind": kind, "argv": argv, "fan": fan, "r": r, "m": m, "json": as_json}
    if kind == "thinness":
        fan, m = pn_darmon()
        return {"kind": kind, "fan": fan, "m": m,
                "argv": ["decide", "thinness", "--fan", fan, "--darmon", ",".join(map(str, m))]}
    if kind == "pi1":
        fan, m = pn_darmon((1, 2))
        return {"kind": kind, "fan": fan, "m": m,
                "argv": ["pi1", "--fan", fan, "--m", ",".join(map(str, m)), "--json"]}
    if kind == "check-point":
        fan = rng.choice(["p1", "p2"])
        n = _n_rays(fan)
        cond_kind = rng.choice(("campana", "darmon"))
        conds = [[cond_kind, rng.choice((2, 3))] for _ in range(n)]
        while True:
            pt = [rng.choice((1, -1)) * math.prod(rng.choice((1, 2, 3, 5)) ** rng.randint(0, 3)
                                                  for _ in range(2)) for _ in range(n)]
            if math.gcd(*pt) == 1:
                break
        return {"kind": kind, "fan": fan, "conds": conds, "point": pt,
                "argv": ["check-point", "--fan", fan, f"--{cond_kind}", ",".join(str(c[1]) for c in conds),
                         "--point", json.dumps({"coords": [str(x) for x in pt]}), "--json"]}
    if kind == "validate":
        fan = rng.choice(["p1", "p2", "p3", "p1xp1"] + [f"hirzebruch:{r}" for r in range(4)])
        return {"kind": kind, "argv": ["validate", "--fan", fan]}
    if kind == "nonprimitive":
        a = rng.choice((2, 3))
        fan = {"dim": 2, "rays": [[a, 0], [0, 1], [-1, -1]], "max_cones": [[0, 1], [1, 2], [0, 2]]}
        return {"kind": kind, "argv": ["decide", "m-approx", "--fan", json.dumps(fan),
                                       "--darmon", "2,2,2"]}
    if kind == "approx400":
        p = rng.choice((7, 11))
        # distinct coordinates: a target on the point (1:1:1) is met exactly
        # and never reaches the large-integer scan
        coords = [str(x) for x in rng.sample(range(1, 10), 3)]
        targets = {str(p): [coords, 400]}
        spec = {str(p): {"point": {"coords": coords}, "digits": 400}}
        return {"kind": kind, "fan": "p2", "conds": [["campana", 2]] * 3, "targets": targets,
                "argv": ["approximate", "--fan", "p2", "--campana", "2,2,2",
                         "--targets", json.dumps(spec), "--json"]}
    if kind == "hang":
        return {"kind": kind, "fan": "p1", "m": [HANG_PRIME, HANG_PRIME],
                "argv": ["decide", "thinness", "--fan", "p1",
                         "--darmon", f"{HANG_PRIME},{HANG_PRIME}"]}
    raise ValueError(kind)


_POOLS = {"verdicts": _verdicts_pool, "census": _census_pool,
          "approximate": _approximate_pool, "cli": _cli_pool}


def pool(workload: str) -> list:
    """The workload's fixed inputs: one round.  The same for every seed, so
    runs on different seeds do the same work and their figures compare."""
    return _POOLS[workload](random.Random(f"{workload}/pool"))


def round_size(workload: str) -> int:
    return len(pool(workload))


def stream(workload: str, seed: int):
    """Endless rounds; round r is the pool in the order the seed draws for it."""
    ops = pool(workload)
    for r in itertools.count():
        order = list(range(len(ops)))
        random.Random(f"{workload}/{seed}/{r}").shuffle(order)
        yield from (ops[i] for i in order)


def defect_probe(workload: str) -> list:
    """Fixed inputs that reproduce the known defects of ROADMAP section 4.

    They run only in the traced run, outside the measured ops, and their
    failures are reported as the per-layer failures.* shares."""
    rng = random.Random(f"{workload}/defects")
    if workload == "approximate":
        return _approximate_requests(rng, APPROX_DEFECT_CELLS, 1)
    if workload == "cli":
        return [_cli_op(rng, kind) for kind in ("nonprimitive", "approx400", "hang")]
    return []


def _n_rays(fan: str) -> int:
    return {"p1": 2, "p2": 3, "p3": 4, "p1xp1": 4}.get(fan, 4 if fan.startswith("h") else 3)


# ---------------------------------------------------------------------------
# building package inputs
# ---------------------------------------------------------------------------

def build_fan(lib, name: str):
    f = lib.fan
    if name == "p1xp1":
        return f.product(f.projective_space(1), f.projective_space(1))
    if name.startswith("hirzebruch:"):
        return f.hirzebruch(int(name.split(":")[1]))
    if name.startswith("p11r:"):
        return f.weighted_P11r(int(name.split(":")[1]))
    return f.projective_space(int(name[1:]))


def _mult(x):
    return math.inf if x == INF else x


def build_conditions(lib, conds):
    c = lib.conditions
    return c.MultiplicitySet.of([
        c.DivisorCondition(c.Kind(kind)) if kind == "squarefree"
        else c.DivisorCondition(c.Kind(kind), _mult(m)) for kind, m in conds])


def prepare(lib, workload: str, op: dict):
    """A zero-argument callable that performs the op through the package.

    Library objects are built here, outside the timed call; the callable looks
    functions up on their modules at call time, so a tracer's wrappers see it.
    """
    if workload == "cli":
        return None  # run by run_cli / run_cli_inprocess
    fan = build_fan(lib, op["fan"])
    if workload == "verdicts":
        if op["family"] == "campana":
            ms = lib.conditions.campana(op["m"])
        else:
            ms = lib.conditions.darmon([_mult(x) for x in op["m"]])
        pair = lib.conditions.ToricPair(fan, ms)
        field = lib.fields.FieldDescriptor.number_field()

        def call():
            d = lib.decide
            return (d.decide_m_approx(pair, field, True), d.decide_m_approx(pair, field, False),
                    d.classify_thinness(pair, field))
        return call
    pair = lib.conditions.ToricPair(fan, build_conditions(lib, op["conds"]))
    if workload == "census":
        job, H = op["job"], op["H"]
        return lambda: getattr(lib.enumerate, job)(pair, H)
    targets = {int(p): (lib.points.CoxPoint.make(fan, [Fraction(c) for c in coords]), digits)
               for p, (coords, digits) in op["targets"].items()}
    return lambda: lib.approx.m_point_approximate(pair, targets)


def digest(workload: str, op: dict, raw):
    """Plain-data form of an op's output, compared across runs and checked."""
    if workload == "verdicts":
        t, empty, thin = raw
        idx = t.invariants.index
        return {"t": t.holds.value, "empty": empty.holds.value,
                "thin": thin.classification.value, "d": list(thin.d_list),
                "index": INF if idx == math.inf else idx}
    if workload == "census":
        if op["job"] == "crosscheck":
            return {"checked": raw.checked, "divergences": [list(map(str, d)) for d in raw.divergences]}
        return {"points": [list(p) for p in raw.points]}
    if workload == "approximate":
        return raw.to_json()
    return raw


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check(workload: str, op: dict, out) -> tuple:
    """(mismatches, work units) for one successful op."""
    if workload == "verdicts":
        return refs.check_verdicts(op["family"], op, out), 1
    if workload == "census":
        conds = [tuple(c) for c in op["conds"]]
        H = op["H"]
        if op["job"] == "enumerate_toric":
            want = refs.toric_points(op["fan"], conds, H)
            got = tuple(tuple(p) for p in out["points"])
            return ([] if got == want else [f"toric census {len(got)} != {len(want)} points"],
                    (2 * H) ** len(conds))
        count, want = refs.projective_points(conds, H)
        if op["job"] == "crosscheck":
            bad = [] if out["checked"] == count else [f"checked {out['checked']} != {count}"]
            bad += [f"divergence {d}" for d in out["divergences"]]
            return bad, count
        got = tuple(tuple(p) for p in out["points"])
        return ([] if got == want else [f"projective census {len(got)} != {len(want)} points"],
                count)
    if workload == "approximate":
        targets = {int(p): v for p, v in op["targets"].items()}
        return refs.check_certificate(op["fan"], [tuple(c) for c in op["conds"]], targets, out), 1
    return check_cli(op, out), 1


def check_cli(op: dict, out: dict) -> list:
    """Exit code and stdout verdict of one CLI call against the references."""
    kind, rc, stdout = op["kind"], out["rc"], out["stdout"]
    if kind == "nonprimitive":
        return [] if rc == 2 else [f"exit {rc} on a non-primitive ray, expected 2"]
    if rc != 0:
        return [f"exit {rc}"]
    lines = stdout.splitlines()
    try:
        if kind in ("m-approx", "hilbert"):
            if op["fan"].startswith("p"):
                want = refs.expected_verdicts("pn", {"m": op["m"]})["t"]
            else:
                want = refs.hirzebruch_g(op["r"], op["m"]) == 1
            got = json.loads(stdout)["holds"] if op.get("json") else lines[0].split(": ")[1].lower()
            return [] if got == ("yes" if want else "no") else [f"verdict {got}"]
        if kind == "analyze":
            obj = json.loads(stdout)
            if op["fan"].startswith("p"):
                ok = obj["index"] == refs.pn_darmon_index(op["m"])
            else:
                g = refs.hirzebruch_g(op["r"], op["m"])
                ok = obj["index"] != "inf" and refs.radical(obj["index"]) == refs.radical(g)
            return [] if ok and obj["cone_full"] else [f"invariants {obj}"]
        if kind in ("thinness", "hang"):
            idx = refs.pn_darmon_index(op["m"])
            want = ("thinness: not_thin" if idx == 1
                    else f"thinness: strictly_d_thin d={refs.divisors_gt1(idx)}")
            return [] if lines[0] == want else [f"{lines[0]!r} != {want!r}"]
        if kind == "pi1":
            obj = json.loads(stdout)
            m = op["m"]
            if len(m) == 2:
                facs = [math.gcd(*m)]
            else:
                d1 = math.gcd(*m)
                facs = [d1, math.gcd(m[0] * m[1], m[1] * m[2], m[0] * m[2]) // d1]
            want = [f for f in facs if f > 1]
            return [] if obj["invariant_factors"] == want and obj["free_rank"] == 0 \
                else [f"pi1 {obj}"]
        if kind == "check-point":
            want = all(refs.coord_ok(k, m, a) for (k, m), a in zip(op["conds"], op["point"]))
            got = json.loads(stdout)["is_m_point"]
            return [] if got == want else [f"is_m_point {got}"]
        if kind == "validate":
            return [] if lines[0] == "fan ok" else [f"validate {lines[0]!r}"]
        if kind == "approx400":
            targets = {int(p): v for p, v in op["targets"].items()}
            return refs.check_certificate("p2", [tuple(c) for c in op["conds"]], targets,
                                          json.loads(stdout))
    except (ValueError, KeyError, IndexError) as e:
        return [f"unparsable output {stdout[:200]!r}: {e}"]
    raise ValueError(kind)


# ---------------------------------------------------------------------------
# running one op
# ---------------------------------------------------------------------------

class OpTimeout(BaseException):
    """Raised by the interval timer when an in-process op exceeds its limit.
    A BaseException, so no handler inside the package can swallow it."""


@contextlib.contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout()

    old = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def failure_class(exc: BaseException) -> str:
    if isinstance(exc, OpTimeout):
        return "timeout"
    name = type(exc).__name__
    return name if name in KNOWN_FAILURES else "other"


def run_cli(src: str, argv: list, limit: float) -> dict:
    """One CLI call in a fresh interpreter; waits for (or kills) the child."""
    env = dict(os.environ, PYTHONPATH=src)
    try:
        p = subprocess.run([sys.executable, "-m", "toricapprox.cli", *argv], env=env,
                           capture_output=True, text=True, timeout=limit)
    except subprocess.TimeoutExpired:
        return {"rc": None, "stdout": "", "fail": "timeout"}
    return _cli_outcome(p.returncode, p.stdout, "Traceback (most recent call last)" in p.stderr)


def run_cli_inprocess(lib, argv: list, limit: float) -> dict:
    """cli.main(argv) in this process, with stdout captured and stderr dropped."""
    out = io.StringIO()
    tb = False
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()), \
                time_limit(limit):
            try:
                rc = lib.cli.main(argv)
            except SystemExit as e:
                rc = e.code if isinstance(e.code, int) else 2
    except OpTimeout:
        return {"rc": None, "stdout": "", "fail": "timeout"}
    except Exception:  # an uncaught exception is the in-process form of a traceback
        rc, tb = 1, True
    return _cli_outcome(rc, out.getvalue(), tb)


def _cli_outcome(rc, stdout: str, tb: bool) -> dict:
    fail = "traceback" if tb else "exit3" if rc == 3 else None
    return {"rc": rc, "stdout": stdout, "fail": fail}
