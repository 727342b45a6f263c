"""Outside-in tracing: spans around calls into each layer's public functions.

The tracer wraps the functions in WRAPPED, replacing the function object in
every toricapprox module namespace that binds it (a `from .points import
factorize` in approx is patched too), plus MultiplicitySet.admits_vector.
Spans (name, start, end, parent) are kept in flat arrays in memory and
written out when the run ends.  Nothing inside the package changes.
"""
from __future__ import annotations

import json
import os
from array import array
from collections import defaultdict
from functools import update_wrapper
from time import perf_counter_ns

WRAPPED = (
    ("intlat", "cone_contains"), ("intlat", "cone_is_full"), ("intlat", "hnf"),
    ("intlat", "snf"), ("intlat", "solve_in_smooth_cone"),
    ("fan", "resolve_2d"), ("fan", "inverse_image_coefficients"),
    ("fan", "minimal_cone_containing"), ("fan", "is_smooth"),
    ("conditions", "nm_generators"), ("conditions", "pair_invariants"),
    ("conditions", "nm_singular"),
    ("decide", "invariants_of"), ("decide", "decide_m_approx"),
    ("decide", "classify_thinness"),
    ("fields", "rho_contains"),
    ("points", "factorize"), ("points", "mult_at_prime"), ("points", "is_m_point"),
    ("points", "is_squarefree"),
    ("approx", "squarefree_approximate"), ("approx", "recombine"),
    ("approx", "m_point_approximate"),
    ("enumerate", "canonical_interior"), ("enumerate", "enumerate_projective"),
    ("enumerate", "enumerate_toric"), ("enumerate", "crosscheck"),
    ("cli", "main"), ("cli", "parse_fan"),
)
ADMITS = "conditions.admits_vector"


class Tracer:
    def __init__(self, lib):
        self.lib = lib
        self.names: list = []
        self._ids: dict = {}
        self.name_of = array("i")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack: list = []
        self.counters = defaultdict(int)
        self.missing: list = []
        self._restore: list = []

    # -- installation -------------------------------------------------------

    def install(self):
        mods = [getattr(self.lib, m) for m in vars(self.lib)]
        hooks = self._hooks()
        for mod_name, fn_name in WRAPPED:
            orig = getattr(getattr(self.lib, mod_name), fn_name, None)
            if orig is None:  # renamed or removed in this version of the package
                self.missing.append(f"{mod_name}.{fn_name}")
                continue
            w = self._wrap(f"{mod_name}.{fn_name}", orig, hooks.get(f"{mod_name}.{fn_name}"))
            for mod in mods:
                for attr, val in list(vars(mod).items()):
                    if val is orig:
                        self._restore.append((mod, attr, val))
                        setattr(mod, attr, w)
        cls = getattr(self.lib.conditions, "MultiplicitySet", None)
        orig = getattr(cls, "admits_vector", None)
        if orig is None:
            self.missing.append(ADMITS)
        else:
            self._restore.append((cls, "admits_vector", orig))
            cls.admits_vector = self._wrap(ADMITS, orig, None)

    def uninstall(self):
        for obj, attr, val in reversed(self._restore):
            setattr(obj, attr, val)
        self._restore.clear()

    def _wrap(self, name, fn, hook):
        nid = self._ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        name_of, parent, start, end, stack = (self.name_of, self.parent, self.start,
                                              self.end, self._stack)

        def wrapper(*args, **kwargs):
            idx = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0)
            stack.append(idx)
            start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter_ns()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return update_wrapper(wrapper, fn)

    def _hooks(self) -> dict:
        c = self.counters

        def cone_is_full(args, result):
            c["cone_is_full.gens"] += len(args[0])

        def nm_generators(args, result):
            gens = result[0]
            c["nm_generators.gens_raw"] += len(gens)
            c["nm_generators.gens_distinct"] += len({tuple(g) for g in gens})

        def nm_singular(args, result):
            note = next((n for n in result.notes if "W=" in n), None)
            if note is None:
                return
            W = int(note.split("W=")[1].split()[0])
            c["nm_singular.box_vectors"] += sum((W + 1) ** len(cone)
                                                for cone in args[1].source.max_cones)
            c["nm_singular.gens_distinct"] += len(result.cone_generators)

        def factorize(args, result):
            c["factorize.max_input_digits"] = max(c["factorize.max_input_digits"],
                                                  len(str(abs(args[0]))))

        def squarefree_approximate(args, result):
            c["scan.accepted"] += len(result)

        return {"intlat.cone_is_full": cone_is_full, "conditions.nm_generators": nm_generators,
                "conditions.nm_singular": nm_singular, "points.factorize": factorize,
                "approx.squarefree_approximate": squarefree_approximate}

    # -- analysis -----------------------------------------------------------

    def summary(self) -> dict:
        """Per-name calls and self time, top-level time, and the counts that
        depend on a span's ancestors."""
        n = len(self.start)
        calls = defaultdict(int)
        self_ns = defaultdict(int)
        top_ns = 0
        names, name_of, parent, start, end = (self.names, self.name_of, self.parent,
                                              self.start, self.end)
        child_ns = [0] * n
        scan_id = self._ids.get("approx.squarefree_approximate", -2)
        toric_id = self._ids.get("enumerate.enumerate_toric", -2)
        in_scan = bytearray(n)
        in_toric = bytearray(n)
        nested = defaultdict(int)
        for i in range(n):
            d = end[i] - start[i]
            p = parent[i]
            nm = names[name_of[i]]
            calls[nm] += 1
            if p < 0:
                top_ns += d
            else:
                child_ns[p] += d
                in_scan[i] = in_scan[p] or name_of[p] == scan_id
                in_toric[i] = in_toric[p] or name_of[p] == toric_id
                if in_scan[i]:
                    nested[f"{nm}@scan"] += 1
                if in_toric[i]:
                    nested[f"{nm}@toric"] += 1
        for i in range(n):
            self_ns[names[name_of[i]]] += end[i] - start[i] - child_ns[i]
        return {"spans": n, "calls": dict(calls),
                "self_s": {k: v / 1e9 for k, v in self_ns.items()},
                "top_level_s": top_ns / 1e9, "nested": dict(nested)}

    def write(self, path: str, meta: dict):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump({**meta, "names": self.names, "fields": ["name", "start_ns", "end_ns", "parent"],
                       "spans": [[a, b, c, d] for a, b, c, d in
                                 zip(self.name_of, self.start, self.end, self.parent)]}, fh)
