"""Tests of the benchmark itself.

    python3 -m pytest -q perfbench/test_perfbench.py
"""
import itertools
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import refs  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def test_generator_is_deterministic_and_seeded():
    for w in run.WORKLOADS:
        n = 2 * workloads.round_size(w)
        first = list(itertools.islice(workloads.stream(w, SEED), n))
        again = list(itertools.islice(workloads.stream(w, SEED), n))
        other = list(itertools.islice(workloads.stream(w, SEED + 1), n))
        assert first == again, w
        assert first != other, w
        assert json.loads(json.dumps(first)) == first, w  # plain data only


def test_every_round_is_the_whole_pool():
    def key(op):
        return json.dumps(op, sort_keys=True)

    for w in run.WORKLOADS:
        pool = sorted(map(key, workloads.pool(w)))
        size = workloads.round_size(w)
        for seed in (1, 2):
            ops = list(itertools.islice(workloads.stream(w, seed), 2 * size))
            assert sorted(map(key, ops[:size])) == pool, (w, seed)
            assert sorted(map(key, ops[size:])) == pool, (w, seed)
    families = [o["family"] for o in workloads.pool("verdicts")]
    assert families.count("p11r") == len(workloads.SINGULAR_CYCLE) == 16


def test_defect_probe_holds_the_known_defects():
    kinds = [o["kind"] for o in workloads.defect_probe("cli")]
    assert kinds == ["nonprimitive", "approx400", "hang"]
    cells = {(len(o["targets"]), next(iter(o["targets"].values()))[1])
             for o in workloads.defect_probe("approximate")}
    assert cells == set(workloads.APPROX_DEFECT_CELLS)
    assert not cells & set(workloads.APPROX_CELLS)
    assert workloads.defect_probe("verdicts") == workloads.defect_probe("census") == []


def _run(lib, w, ops):
    records, bad = run.run_ops(workloads, lib, w, ops, float("inf"), cli_inprocess=True)
    assert not bad, bad
    return [(fail, out) for _, fail, _, out in records]


def test_traced_and_untraced_runs_give_identical_outputs():
    lib = workloads.load_lib()
    originals = {(m, f): getattr(getattr(lib, m), f) for m, f in tracer.WRAPPED}
    sizes = {"verdicts": 8, "census": 2, "approximate": 8, "cli": 10}
    for w, k in sizes.items():
        ops = list(itertools.islice(workloads.stream(w, SEED), k))
        plain = _run(lib, w, ops)
        tr = tracer.Tracer(lib)
        tr.install()
        try:
            traced = _run(lib, w, ops)
        finally:
            tr.uninstall()
        assert plain == traced, w
        assert tr.summary()["spans"] > 0, w
    for (m, f), fn in originals.items():
        assert getattr(getattr(lib, m), f) is fn
    assert "wrapper" not in lib.conditions.MultiplicitySet.admits_vector.__code__.co_name


def test_references_reject_wrong_outputs():
    good = {"t": "yes", "empty": "yes", "thin": "not_thin", "index": 1}
    params = {"m": [2, 3, 5]}
    assert refs.check_verdicts("pn", params, good) == []
    assert refs.check_verdicts("pn", params, {**good, "t": "no", "thin": "strictly_d_thin"})
    assert refs.check_verdicts("pn", params, {**good, "thin": "stably_thin"})
    op = {"kind": "pi1", "m": [2, 2, 2]}
    assert workloads.check_cli(op, {"rc": 0, "stdout": '{"invariant_factors": [2, 2], '
                                    '"free_rank": 0}'}) == []
    assert workloads.check_cli(op, {"rc": 0, "stdout": '{"invariant_factors": [4], '
                                    '"free_rank": 0}'})
    count, pts = refs.projective_points([("campana", 2), ("campana", 2)], 9)
    assert len(pts) == 24  # the census anchor of the acceptance tests
    assert workloads.check("census", {"job": "enumerate_projective", "fan": "p1", "H": 9,
                                      "conds": [["campana", 2]] * 2},
                           {"points": [list(p) for p in pts[1:]]})[0]


def test_benchmark_json_matches_the_harness():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.E2E)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [m[:3] for m in run.LAYER_METRICS]


def test_no_measured_op_fails():
    lib = workloads.load_lib()
    for w in run.WORKLOADS:
        records, bad = run.run_ops(workloads, lib, w, workloads.pool(w), float("inf"),
                                   cli_inprocess=True)
        assert not bad, (w, bad[:1])
        assert [r[1] for r in records] == [None] * len(records), w
