"""Source hygiene: no module imports a name it never uses, no function
binds a local name it never reads, no option goes unset by every caller,
no random stream is keyed by an integer offset, every stream purpose word
keys a stream, every config field has a type the checker knows, every
error the package raises has a CLI exit code and every package error is
raised, no function is wrapped in a functools cache, and no module
imports scipy, a test-only dependency: every CLI command gives its usual
exit code with scipy blocked."""

import ast
import builtins
import importlib
import json
import os
import subprocess
import sys
import typing
from dataclasses import fields, is_dataclass
from pathlib import Path

import numpy as np
import pytest

from mvlevy import cli, errors, rng
from mvlevy.levy import SigmaSpec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "mvlevy"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = sorted((line, name) for name, line in imported.items() if name not in used)
    assert not unused, f"{path.name}: unused imports (line, name): {unused}"


def _scipy_imports(tree):
    """Lines of the statements in tree that import scipy or a submodule of
    it, at module level or inside a function."""
    return sorted(n.lineno for n in ast.walk(tree)
                  if isinstance(n, ast.Import)
                  and any(a.name.split(".")[0] == "scipy" for a in n.names)
                  or isinstance(n, ast.ImportFrom) and n.level == 0
                  and n.module.split(".")[0] == "scipy")


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_imports_scipy(path):
    # scipy is a test-only dependency: every functional has a closed form
    lines = _scipy_imports(ast.parse(path.read_text()))
    assert not lines, f"{path.name}: scipy imported on lines {lines}"


def test_scipy_import_check_sees_every_form():
    tree = ast.parse(
        "import numpy, scipy\n"
        "import scipy.stats as st\n"
        "from scipy import integrate\n"
        "from scipy.optimize import brentq\n"
        "from . import scipy_like\n"
        "from .scipy import x\n"
        "import scipyx\n"
        "def f():\n"
        "    from scipy.special import gammainc\n")
    assert _scipy_imports(tree) == [1, 2, 3, 4, 9]


_CACHES = {"lru_cache", "cache"}


def _cached_functions(tree):
    """(line, name) for each function decorated with functools.lru_cache or
    functools.cache, called or bare, through the module or a name imported
    from it, aliases included."""
    names = {a.asname or a.name for n in ast.walk(tree)
             if isinstance(n, ast.ImportFrom) and n.module == "functools"
             for a in n.names if a.name in _CACHES}
    modules = {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
               for a in n.names if a.name == "functools"}
    cached = []
    for fn in (n for n in ast.walk(tree) if isinstance(n, FUNCTIONS)):
        for dec in fn.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            if (isinstance(dec, ast.Name) and dec.id in names
                    or isinstance(dec, ast.Attribute) and dec.attr in _CACHES
                    and getattr(dec.value, "id", None) in modules):
                cached.append((fn.lineno, fn.name))
    return sorted(cached)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_cached_functions(path):
    # a cache beside slow code is a second path to the same answer: the
    # code itself should do the work once
    cached = _cached_functions(ast.parse(path.read_text()))
    assert not cached, f"{path.name}: functools caches on (line, function): {cached}"


def test_cache_check_sees_every_form():
    tree = ast.parse(
        "import functools\n"
        "import functools as ft\n"
        "from functools import lru_cache, cache as memo, wraps\n"
        "@functools.lru_cache(maxsize=64)\n"
        "def a(x): pass\n"
        "@ft.cache\n"
        "def b(x): pass\n"
        "@lru_cache\n"
        "def c(x): pass\n"
        "class K:\n"
        "    @memo\n"
        "    def d(self): pass\n"
        "@wraps(a)\n"
        "def e(x): pass\n"
        "@other.cache\n"
        "def f(x): pass\n")
    assert _cached_functions(tree) == [(5, "a"), (7, "b"), (9, "c"), (12, "d")]


_SIM = '{"dt": 0.002, "T": 2.0, "n_chains": 20, "thin": 10, "seed": 3}'
_SIGMA_APPENDIX = {"K1": 1.0, "K2": 0.5, "K3": 1.0, "kappa": 1.0, "l0": 1.0, "C_V": 2.0,
                   "lambda_V": 0.5, "sigma_knots": [[0.01, 0.05], [2.0, 0.25]]}
# every command, each of which exits 0 when scipy is installed
SCIPY_FREE_RUNS = {
    "sample-truncated": [
        "sample", "--set", "seed=1", "--set", "n=2000", "--set",
        'levy={"kind": "truncated_stable", "alpha": 1.2, "cutoff": 2.0, "dim": 2}'],
    "sample-compound": [
        "sample", "--set", "seed=1", "--set", "n=2000", "--set",
        'levy={"kind": "compound_poisson", "rate": 3.0, "dim": 2, '
        '"jump_dist": ["uniform", 0.5, 1.5]}'],
    "simulate": [
        "simulate", "--set", 'levy={"alpha": 1.5}',
        "--set", 'drift={"family": "mean_field_ou", "lam": 2.0}', "--set", f"sim={_SIM}"],
    "fixpoint": [
        "fixpoint", "--set", 'levy={"alpha": 2.0}',
        "--set", 'drift={"family": "mean_field_ou", "lam": 2.0}', "--set", f"sim={_SIM}",
        "--set", 'fixed_point={"max_iter": 2, "w1_tol": 0.3}'],
    "multiplicity": [
        "multiplicity", "--set", 'levy={"alpha": 1.8, "scale": 0.05}',
        "--set", 'drift={"family": "double_well", "lam": 1.0, "kappa": 1.0, '
                 '"a1": -1.0, "a2": 1.0}', "--set", f"sim={_SIM}",
        "--set", 'fixed_point={"max_iter": 2, "w1_tol": 0.3}',
        "--set", "seeds=[[-1.0], [1.0]]"],
    "check": [
        "check", "--set", 'levy={"kind": "compound_poisson", "alpha": 1.8, "rate": 2.0, '
                          '"jump_dist": ["gaussian", 0.3]}',
        "--set", 'ex14={"lam": 1.0, "kappa": 4.5, "beta": 1.2, "eps": 1e-4, "r0": 0.24975, '
                 '"a1": -1.0, "a2": 1.0}',
        "--set", 'm_star={"C_b": 1.0, "lam1": 1.0, "lam2": 0.5, "theta1": 3.0, '
                 '"theta2": 1.0, "theta3": 1.0, "theta4": 1.0, "beta": 1.2}'],
    "selfconsistent": ["selfconsistent", "--gamma", "2", "--beta", "1"],
    "selfconsistent-scan": ["selfconsistent", "--gamma", "2", "--beta-scan", "0.5:1.5:0.5"],
    "constants": [
        "constants", "--set", 'levy={"kind": "truncated_stable", "alpha": 1.5, "cutoff": 3.0}',
        "--set", f"appendix={json.dumps(_SIGMA_APPENDIX)}"],
}


@pytest.mark.parametrize("argv", SCIPY_FREE_RUNS.values(), ids=SCIPY_FREE_RUNS.keys())
def test_cli_commands_load_no_scipy_submodule(tmp_path, argv):
    # a fresh interpreter in which importing scipy fails; the check and
    # constants runs take compound tail moments and the truncated overlap
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC.parent),
                                                      env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys\n"
         "sys.modules['scipy'] = None\n"
         "import mvlevy.cli\n"
         f"sys.exit(mvlevy.cli.main({[*argv, '--out', str(tmp_path)]!r}))"],
        capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def _own_stores(fn):
    """Names assigned in fn's own scope (not in nested functions or
    classes), with the line of their first assignment."""
    stores, todo = {}, list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        if isinstance(node, FUNCTIONS + (ast.ClassDef, ast.Lambda)):
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            stores[node.id] = min(node.lineno, stores.get(node.id, node.lineno))
        todo.extend(ast.iter_child_nodes(node))
    return stores


def _dead_locals(tree):
    dead = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        # a read anywhere inside fn counts, closures included; an augmented
        # assignment reads its target
        read = {n.id for n in ast.walk(fn)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        read |= {n.target.id for n in ast.walk(fn)
                 if isinstance(n, ast.AugAssign) and isinstance(n.target, ast.Name)}
        dead += [(line, fn.name, name) for name, line in _own_stores(fn).items()
                 if name not in read and name != "_"]
    return sorted(dead)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_dead_local_bindings(path):
    dead = _dead_locals(ast.parse(path.read_text()))
    assert not dead, f"{path.name}: locals bound and never read (line, function, name): {dead}"


def test_dead_local_check_sees_unpacking_and_closures():
    tree = ast.parse(
        "def f(xs):\n"
        "    a, err = xs\n"
        "    n = 0\n"
        "    n += 1\n"
        "    for i, _ in xs:\n"
        "        pass\n"
        "    def g():\n"
        "        return a\n"
        "    return g\n")
    assert _dead_locals(tree) == [(2, "f", "err"), (5, "f", "i")]


def _options(tree):
    """(function, parameter, position) for each parameter with a default.
    The position counts the arguments a call passes, so a method's self or
    cls takes none; it is None for a keyword-only parameter."""
    methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body
               if isinstance(f, FUNCTIONS)
               and "staticmethod" not in [getattr(d, "id", None) for d in f.decorator_list]}
    opts = []
    for fn in ast.walk(tree):
        if isinstance(fn, FUNCTIONS):
            args, skip = fn.args, int(id(fn) in methods)
            pos = args.posonlyargs + args.args
            opts += [(fn.name, a.arg, i - skip) for i, a in enumerate(pos)
                     if i >= len(pos) - len(args.defaults)]
            opts += [(fn.name, a.arg, None)
                     for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return opts


def _passed(trees):
    """(function name, keyword or position) for every argument some call
    passes; a *args call passes every position ("*"), a **kwargs call
    every keyword (None)."""
    passed = set()
    for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        passed |= {(name, "*" if isinstance(a, ast.Starred) else i)
                   for i, a in enumerate(call.args)}
        passed |= {(name, kw.arg) for kw in call.keywords}
    return passed


def _unset_options(defs, callers):
    """(function, parameter) of each option in defs that no call in callers
    passes."""
    passed = _passed(callers)
    return sorted((fn, name) for tree in defs for fn, name, pos in _options(tree)
                  if not {(fn, name), (fn, None)} & passed
                  and (pos is None or not {(fn, pos), (fn, "*")} & passed))


def test_every_option_has_a_caller():
    # an option no caller sets is a value nobody chose: make it a literal
    callers = [ast.parse(p.read_text()) for d in ("src", "tests", "perfbench")
               for p in sorted((ROOT / d).rglob("*.py"))]
    unset = _unset_options([ast.parse(p.read_text()) for p in MODULES], callers)
    assert not unset, f"options no caller passes (function, parameter): {unset}"


def test_option_check_sees_positions_keywords_and_methods():
    defs = ast.parse(
        "def f(x, a=1, b=2, *, c=3, d=4):\n"
        "    pass\n"
        "def g(u=0):\n"
        "    pass\n"
        "def h(u=0):\n"
        "    pass\n"
        "class K:\n"
        "    def m(self, y=0, z=0):\n"
        "        pass\n"
        "    @staticmethod\n"
        "    def s(y=0, z=0):\n"
        "        pass\n")
    callers = ast.parse("f(0, 1, c=2)\ng(**kw)\nh(*args)\nk.m(1)\nK.s(1)\n")
    assert _unset_options([defs], [callers]) == [
        ("f", "b"), ("f", "d"), ("m", "z"), ("s", "z")]


def _offset_keys(tree):
    """Stream keys built by arithmetic and seeds rewritten through
    dataclasses.replace: random streams must be told apart by key words
    (see mvlevy.rng), not by offsets that can alias."""
    bad = []
    for call in ast.walk(tree):
        if not isinstance(call, ast.Call):
            continue
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name == "stream" and any(isinstance(n, (ast.BinOp, ast.UnaryOp))
                                    for arg in call.args for n in ast.walk(arg)):
            bad.append((call.lineno, "stream"))
        if name == "replace" and any(kw.arg == "seed" for kw in call.keywords):
            bad.append((call.lineno, "replace"))
    return sorted(bad)


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_stream_offsets(path):
    bad = _offset_keys(ast.parse(path.read_text()))
    assert not bad, f"{path.name}: stream offsets (line, call): {bad}"


def test_stream_offset_check_sees_keys_and_seeds():
    tree = ast.parse(
        "def f(cfg, key, i):\n"
        "    a = _rng.stream(cfg.seed, *key, INIT)\n"
        "    b = stream(cfg.seed, base + 1_000_000)\n"
        "    c = _rng.stream(cfg.seed, *(k * 2 for k in key))\n"
        "    d = replace(cfg, dt=cfg.dt / 2.0)\n"
        "    e = replace(cfg.sim, seed=cfg.sim.seed + i)\n"
        "    return a, b, c, d, e\n")
    assert _offset_keys(tree) == [(3, "stream"), (4, "stream"), (6, "replace")]


def _keyed_purposes(trees, purposes):
    """The words of purposes that key a stream: named in the arguments of a
    stream(...) call, or of a call to a function that passes its own *key
    on to stream(...), directly or through a name assigned in the module
    and starred into that call."""
    def name(node):
        return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)

    def words(node):
        return {name(n) for n in ast.walk(node)} & purposes

    forwarders = {"stream"} | {
        fn.name for tree in trees for fn in ast.walk(tree)
        if isinstance(fn, FUNCTIONS) and fn.args.vararg and any(
            isinstance(c, ast.Call) and name(c.func) == "stream"
            and any(isinstance(a, ast.Starred) and name(a.value) == fn.args.vararg.arg
                    for a in c.args)
            for c in ast.walk(fn))}
    keyed = set()
    for tree in trees:
        assigned = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    assigned.setdefault(name(target), set()).update(words(node.value))
        for call in ast.walk(tree):
            if isinstance(call, ast.Call) and name(call.func) in forwarders:
                for arg in call.args:
                    keyed |= words(arg)
                    if isinstance(arg, ast.Starred):
                        keyed |= assigned.get(name(arg.value), set())
    return keyed


def test_every_stream_purpose_keys_a_stream():
    # a purpose word whose caller is gone is dead: no stream draws for it
    purposes = {k for k, v in vars(rng).items() if k.isupper() and isinstance(v, int)}
    assert purposes >= {"INIT", "INCREMENTS", "RETRY"}
    unkeyed = purposes - _keyed_purposes([ast.parse(p.read_text()) for p in MODULES],
                                         purposes)
    assert not unkeyed, f"stream purposes no stream(...) call is keyed by: {sorted(unkeyed)}"


def test_purpose_check_follows_forwarded_keys():
    tree = ast.parse(
        "def run(cfg, *key):\n"
        "    return _rng.stream(cfg.seed, *key)\n"
        "def f(cfg, key, h):\n"
        "    a = _rng.stream(cfg.seed, *key, _rng.INIT)\n"
        "    purpose = (h, _rng.RETRY) if h else (_rng.INCREMENTS,)\n"
        "    b = run(cfg, *key, *purpose)\n"
        "    c = other(cfg, _rng.SPARE)\n"
        "    return a, b, c, _rng.DEAD\n")
    words = {"INIT", "INCREMENTS", "RETRY", "SPARE", "DEAD", "UNUSED"}
    assert _keyed_purposes([tree], words) == {"INIT", "INCREMENTS", "RETRY"}


def _known_type(tp):
    """A declared field type errors._check_types can check: float, int, str,
    tuple, tuple[k, ...] of a known k, or a dataclass."""
    if typing.get_origin(tp) is tuple:
        args = typing.get_args(tp)
        return len(args) == 2 and args[1] is Ellipsis and _known_type(args[0])
    return tp in (float, int, str, tuple) or is_dataclass(tp)


def test_config_fields_have_known_types(config_dataclasses):
    assert {"LevyMeasureSpec", "DriftSpec", "SimConfig", "FixedPointConfig", "A1Params",
            "AppendixParams"} <= {cls.__name__ for cls in config_dataclasses}
    unknown = sorted((cls.__name__, f.name, repr(f.type)) for cls in config_dataclasses
                     for f in fields(cls) if not _known_type(f.type))
    assert not unknown, f"config fields of a type the checker does not know: {unknown}"


def test_known_type_check_rejects_other_annotations():
    assert _known_type(tuple[float, ...]) and _known_type(SigmaSpec)
    assert not any(_known_type(tp) for tp in (list, dict, bool, tuple[float, str],
                                              np.ndarray, float | None))


def _raised_names(tree):
    """(line, name) for each raise statement in tree that names what it
    raises: raise X, raise X(...), raise mod.X(...), with or without a
    from clause, or raise exc for a bound name.  A bare raise re-raises
    what an except clause caught, so it names nothing."""
    raised = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Raise) and node.exc is not None:
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            name = exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None)
            raised.append((node.lineno, name))
    return sorted(raised)


def _exit_code_errors():
    """The exception types that cli.main's except clauses turn into an exit
    code (2 or 3), read from those clauses."""
    main = next(n for n in ast.parse((SRC / "cli.py").read_text()).body
                if isinstance(n, ast.FunctionDef) and n.name == "main")
    caught = []
    for handler in (h for n in ast.walk(main) if isinstance(n, ast.Try) for h in n.handlers):
        kind = eval(compile(ast.Expression(handler.type), "cli.py", "eval"), vars(cli))
        caught += kind if isinstance(kind, tuple) else [kind]
    return tuple(caught)


def _uncaught(tree, namespace, caught):
    """(line, name) for each raise in tree whose name, looked up in
    namespace and then among the builtins, is no subclass of caught."""
    uncaught = []
    for line, name in _raised_names(tree):
        kind = namespace.get(name, getattr(builtins, name, None))
        if not (isinstance(kind, type) and issubclass(kind, caught)):
            uncaught.append((line, name))
    return uncaught


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raised_error_has_an_exit_code(path):
    # every bad input reaches exit code 2 or 3, never a traceback: what the
    # package raises, cli.main must catch
    module = importlib.import_module(f"mvlevy.{path.stem}")
    uncaught = _uncaught(ast.parse(path.read_text()), vars(module), _exit_code_errors())
    assert not uncaught, f"{path.name}: raises with no exit code (line, name): {uncaught}"


def test_every_package_error_is_raised():
    raised = {name for p in MODULES for _, name in _raised_names(ast.parse(p.read_text()))}
    package = {name for name, v in vars(errors).items()
               if isinstance(v, type) and issubclass(v, errors.MvLevyError)
               and v is not errors.MvLevyError}
    assert not package - raised, f"package errors never raised: {sorted(package - raised)}"


def test_raise_check_sees_every_form():
    tree = ast.parse(
        "def f(x):\n"
        "    if x:\n"
        "        raise ValueError('x')\n"
        "    raise errors.Blowup(1, 2.0) from None\n"
        "def g():\n"
        "    try:\n"
        "        pass\n"
        "    except KeyError:\n"
        "        raise\n"
        "    except OSError as exc:\n"
        "        raise exc\n"
        "    raise StopIteration\n")
    assert _raised_names(tree) == [(3, "ValueError"), (4, "Blowup"), (11, "exc"),
                                   (12, "StopIteration")]
    caught = _exit_code_errors()
    assert set(caught) == {*cli.NUMERICAL_ERRORS, errors.MvLevyError, ValueError,
                           KeyError, OSError, json.JSONDecodeError}
    assert _uncaught(tree, vars(errors), caught) == [(11, "exc"), (12, "StopIteration")]
