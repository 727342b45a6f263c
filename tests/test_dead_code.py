"""Every top-level function, class and constant of the package has a reader in
the package.

A name counts as used when some other top-level definition, or module-level
code, of any package module loads it, as a bare name or as an attribute.  A
recursive call, an assignment, an import or a mention in a docstring is not a
use.  Code that only the tests need lives under tests/.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "toricapprox"

# The benchmark's tracer (perfbench/tracer.py) wraps these by name, and its
# tests look each one up, so they stay until the tracer stops naming them.
# mult_at_prime is also the per-point form of the multiplicity vector that the
# tests check; the package itself reads vectors through points.m_point_check.
PINNED = {("intlat", "solve_in_smooth_cone"), ("fan", "minimal_cone_containing"),
          ("points", "mult_at_prime")}


def _definitions_and_uses():
    defined, assigned, used = [], [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for top in tree.body:
            owner = None
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                owner = top.name
                defined.append((path.stem, top.name))
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                assigned += [(path.stem, node.id) for t in targets for node in ast.walk(t)
                             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]
            for node in ast.walk(top):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                else:
                    continue
                if name != owner:
                    used.add(name)
    return defined, assigned, used


def test_every_package_definition_has_a_caller():
    defined, _, used = _definitions_and_uses()
    assert defined
    unused = [(mod, name) for mod, name in defined if name not in used]
    assert sorted(set(unused) - PINNED) == []
    # a pinned name that gains a caller leaves the list
    assert set(unused) >= PINNED


def _tracer_wrapped() -> set:
    """The tracer's WRAPPED tuple, read from its source without importing the
    benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    return set(next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and any(isinstance(t, ast.Name) and t.id == "WRAPPED" for t in node.targets)))


def test_every_pin_is_wrapped_by_the_tracer():
    """A pin lasts only while the tracer names it."""
    assert PINNED <= _tracer_wrapped()


def test_every_name_the_tracer_wraps_is_defined():
    """The benchmark's own tests look up every wrapped (module, name), so a
    deletion or rename here would break them unnoticed by these tests."""
    defined, assigned, _ = _definitions_and_uses()
    assert sorted(_tracer_wrapped() - set(defined) - set(assigned)) == []


def test_every_package_constant_is_read():
    """A top-level assignment that no package code reads is a setting that
    changes nothing."""
    _, assigned, used = _definitions_and_uses()
    assert assigned
    assert sorted((mod, name) for mod, name in assigned if name not in used) == []


# The tracer counts the distinct pullback generators from this field of the
# nm_singular result; the package itself reads N_M through the lattice.
PINNED_FIELDS = {("conditions", "PairInvariants", "cone_generators")}


def _unread_record_fields():
    """Fields of the package's NamedTuple records, declared as annotations or
    through a namedtuple base, that no package code reads as an attribute."""
    fields, read = [], set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for base in cls.bases:
                if isinstance(base, ast.Name) and base.id == "NamedTuple":
                    names = [s.target.id for s in cls.body if isinstance(s, ast.AnnAssign)]
                elif isinstance(base, ast.Call) and getattr(base.func, "id", "") == "namedtuple":
                    names = base.args[1].value.split()
                else:
                    continue
                fields += [(path.stem, cls.name, name) for name in names]
        read |= {node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert fields
    return [f for f in fields if f[2] not in read]


def test_every_record_field_is_read():
    """A field that nothing reads is a value computed for no one."""
    unread = _unread_record_fields()
    assert sorted(set(unread) - PINNED_FIELDS) == []
    assert set(unread) >= PINNED_FIELDS


def test_every_pinned_field_is_named_by_the_tracer():
    """A field pin lasts only while the tracer's source names the field."""
    tracer = (ROOT / "perfbench" / "tracer.py").read_text()
    assert all(name in tracer for _, _, name in PINNED_FIELDS)


# points._mult_memo reads no parameter on purpose: lru_cache keys the empty
# dict it returns on the fan, so each fan gets its own memo.
UNREAD_BY_DESIGN = {("points", "_mult_memo", "fan")}


def _unread_parameters():
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            body = fn.body if isinstance(fn.body, list) else [fn.body]
            loaded = {node.id for stmt in body for node in ast.walk(stmt)
                      if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
            a = fn.args
            for arg in [*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg]:
                if arg and arg.arg not in loaded and arg.arg not in ("self", "cls"):
                    unread.append((path.stem, getattr(fn, "name", "<lambda>"), arg.arg))
    return unread


def test_every_package_parameter_is_read():
    """A parameter that the body never reads is a setting that changes
    nothing.  Reads inside nested functions and lambdas count."""
    unread = _unread_parameters()
    assert sorted(set(unread) - UNREAD_BY_DESIGN) == []
    assert set(unread) >= UNREAD_BY_DESIGN
