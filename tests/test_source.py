"""Checks over the package source itself."""

import ast
import builtins
import importlib
import inspect
import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).parent.parent / "src"
SOURCES = sorted((SRC / "otsuki").glob("*.py"))


def _functions(tree):
    """Module-level functions and the methods of module-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    unread = []
    for name, fn in _functions(ast.parse(path.read_text())):
        a = fn.args
        params = [x.arg for x in a.posonlyargs + a.args + a.kwonlyargs]
        params += [x.arg for x in (a.vararg, a.kwarg) if x is not None]
        read = {node.id for stmt in fn.body for node in ast.walk(stmt)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        # a method's receiver is fixed by the protocol it implements
        unread += [f"{name}({p})" for p in params
                   if p not in read and p not in ("self", "cls")]
    assert not unread, f"parameters never read: {unread}"


# the node loops of the sweeps and the level loops of the reductions
SWEEP_LOOPS = {"_inertia_d1", "_inertia_d2_cyclic",
               "_inertia_d1_reduction", "_inertia_d2_reduction"}


def test_sweep_loops_do_real_arithmetic():
    # the wrap multipliers enter after the loop, so no loop of an inertia
    # kernel, a sweep's node loop or a reduction's level loop, converts,
    # tests or takes apart a complex number
    path = next(p for p in SOURCES if p.name == "eigencount.py")
    kernels, found = [], []
    for name, fn in _functions(ast.parse(path.read_text())):
        if not name.startswith("_inertia_"):
            continue
        for loop in (n for n in ast.walk(fn)
                     if isinstance(n, (ast.For, ast.While))):
            kernels.append(name)
            for node in ast.walk(loop):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                        and node.func.id in ("complex", "isinstance")):
                    found.append(f"{name}: {node.func.id}()")
                elif (isinstance(node, ast.Attribute)
                        and node.attr in ("conjugate", "real", "imag")):
                    found.append(f"{name}: .{node.attr}")
    assert SWEEP_LOOPS <= set(kernels), "an inertia kernel loop is missing"
    assert not found, f"complex arithmetic in sweep loops: {found}"


def test_only_inertia_knows_an_operator_is_band():
    # inertia takes a band operator as the cyclic one with no wrap once, at
    # its entry, so no kernel, finish or reduction has a band branch
    path = next(p for p in SOURCES if p.name == "eigencount.py")
    readers = {name for name, fn in _functions(ast.parse(path.read_text()))
               for node in ast.walk(fn)
               if isinstance(node, ast.Attribute) and node.attr == "cyclic"}
    others = {name for name in readers - {"inertia"}
              if not name.startswith("BandOperator.")}
    assert not others, f".cyclic read outside inertia: {sorted(others)}"


def _calls_the_tracer_may_wrap(tree, allowed=()):
    """(calls, found): the calls under tree, and those of them that are
    not to a private name, a name in allowed, a math or numpy function or
    an array method."""
    import math

    import numpy as np

    modules = {"math": math, "np": np}
    calls, found = 0, []
    for node in (n for n in ast.walk(tree) if isinstance(n, ast.Call)):
        calls += 1
        func = node.func
        if isinstance(func, ast.Name):
            ok = func.id.startswith("_") or func.id in allowed
        elif isinstance(func.value, ast.Name) and func.value.id in modules:
            ok = hasattr(modules[func.value.id], func.attr)
        else:
            ok = hasattr(np.ndarray, func.attr)
        if not ok:
            found.append(f"line {node.lineno}: {ast.unparse(func)}")
    return calls, found


def test_fundamental_rhs_calls_nothing_traced():
    # perfbench records a span for every call of a public package function,
    # and the ODE right-hand side runs once per integrator stage: it calls
    # only private helpers, math and numpy functions and array methods
    path = next(p for p in SOURCES if p.name == "edwards.py")
    fn = dict(_functions(ast.parse(path.read_text())))["_fundamental_rhs"]
    calls, found = _calls_the_tracer_may_wrap(fn)
    assert calls, "no call found in _fundamental_rhs"
    assert not found, f"calls the tracer may wrap: {found}"
    # nor does the stepper's step loop, which holds the stage loop: about
    # 8800 stages in one pass of the q <= 10 Edwards sweep.  It may also
    # call builtins, which no tracer wraps, the right-hand side fun, and
    # OdeResult, a class, on the return after a failed step
    path = next(p for p in SOURCES if p.name == "ode.py")
    fn = dict(_functions(ast.parse(path.read_text())))["solve_ivp"]
    loop = next(n for n in fn.body if isinstance(n, ast.While))
    stages = [n for n in ast.walk(loop) if isinstance(n, ast.For)]
    assert stages and any(
        isinstance(n, ast.Call) and ast.unparse(n.func) == "fun"
        for n in ast.walk(stages[0])), "no stage loop calling fun found"
    _, found = _calls_the_tracer_may_wrap(
        loop, {"fun", "OdeResult", *dir(builtins)})
    assert not found, f"calls the tracer may wrap: {found}"


def test_fundamental_rhs_takes_one_cos_sin_pair():
    # per evaluation, counted through every package function it calls: the
    # formula homes take cos(phi) and sin(phi) and take neither again
    defs = {name: fn for path in SOURCES
            for name, fn in _functions(ast.parse(path.read_text()))}
    seen, todo, calls = set(), ["_fundamental_rhs"], []
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                calls.append(func.rpartition(".")[2])
                if func in defs and func not in seen:
                    todo.append(func)
    assert (calls.count("cos"), calls.count("sin")) == (1, 1)
    assert "_phi_ddot" in seen and "_q_entries" in seen


def test_kernel_rows_read_the_half_period_nodes():
    # the kernel fields are twisted profiles on [0, T), whatever q: no
    # closed-length grid, and no Trajectory.at in the fields or their
    # residuals, counted through every package function they call
    named = [path.name for path in SOURCES
             if "full_period_grid" in path.read_text()]
    assert not named, f"sources naming full_period_grid: {named}"
    defs = {name: fn for path in SOURCES
            for name, fn in _functions(ast.parse(path.read_text()))}
    seen, todo, found = set(), ["kernel_fields", "kernel_residuals"], []
    while todo:
        name = todo.pop()
        seen.add(name)
        for node in ast.walk(defs[name]):
            if isinstance(node, ast.Call):
                func = ast.unparse(node.func)
                if func.rpartition(".")[2] == "at":
                    found.append(f"{name}: {func}")
                elif func in defs and func not in seen:
                    todo.append(func)
    assert "_residual" in seen and "_q_entries" in seen
    assert not found, f"Trajectory.at calls: {found}"


def _tau_comparisons(tree):
    """(owner, node) of each comparison that names TAU_ZERO, by the
    module-level function or class that holds it."""
    for node in tree.body:
        owner = getattr(node, "name", "<module>")
        for cmp in ast.walk(node):
            if isinstance(cmp, ast.Compare) and "TAU_ZERO" in {
                    getattr(n, "id", getattr(n, "attr", None))
                    for n in ast.walk(cmp)}:
                yield owner, cmp


def test_no_module_but_spectral_decides_the_zero_class():
    found = [f"{path.name}: {owner}, line {cmp.lineno}" for path in SOURCES
             if path.name != "spectral.py"
             for owner, cmp in _tau_comparisons(ast.parse(path.read_text()))]
    assert not found, f"comparisons against TAU_ZERO: {found}"


def test_one_zero_class_rule_in_spectral():
    # _zero_classes is the rule; the third-mesh band of _located_counts
    # only picks the values to classify again
    path = next(p for p in SOURCES if p.name == "spectral.py")
    tree = ast.parse(path.read_text())
    located = dict(_functions(tree))["_located_counts"]
    band = {id(n) for stmt in ast.walk(located)
            if isinstance(stmt, ast.Assign)
            and [ast.unparse(t) for t in stmt.targets] == ["borderline"]
            for n in ast.walk(stmt)}
    found = list(_tau_comparisons(tree))
    stray = [f"{owner}, line {cmp.lineno}" for owner, cmp in found
             if owner != "_zero_classes" and id(cmp) not in band]
    assert "_zero_classes" in {owner for owner, _ in found}
    assert not stray, f"zero-class comparisons outside the rule: {stray}"


def test_every_sweep_goes_through_inertia():
    # the benchmark's tracer counts sweeps at ``eigencount.inertia``, so no
    # other module may reach a kernel or a raw sweep
    root = pathlib.Path(__file__).parent.parent
    found = []
    for path in SOURCES + sorted((root / "scripts").glob("*.py")):
        if path.name == "eigencount.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([node.id] if isinstance(node, ast.Name) else
                     [node.attr] if isinstance(node, ast.Attribute) else
                     [a.name for a in node.names]
                     if isinstance(node, ast.ImportFrom) else [])
            found += [f"{path.name}: {name}" for name in names
                      if name.startswith("_inertia")]
    assert not found, f"sweeps that bypass eigencount.inertia: {found}"


def test_one_locate_and_extrapolate_path():
    # every listing or bisection in spectral.py runs through _extrapolated,
    # so the zone location and the listings share one extrapolation
    path = next(p for p in SOURCES if p.name == "spectral.py")
    calls = {}
    for node in ast.parse(path.read_text()).body:
        owner = getattr(node, "name", "<module>")
        for call in ast.walk(node):
            if isinstance(call, ast.Call):
                func = call.func
                name = getattr(func, "id", getattr(func, "attr", None))
                if name in ("_bisect", "eigenvalues_in"):
                    calls.setdefault(owner, []).append(name)
    assert set(calls.pop("_extrapolated", ())) == {"_bisect", "eigenvalues_in"}
    assert not calls, f"located outside _extrapolated: {calls}"


def test_edwards_imports_of_the_counting_layers():
    # the boundary-form route reads the finite-difference counts only for
    # its Dirichlet gate (and binds spectrum_counts for the benchmark's
    # tracer), so its interface to them must not grow
    path = next(p for p in SOURCES if p.name == "edwards.py")
    imported = {}
    for node in ast.parse(path.read_text()).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            imported.setdefault(node.module, set()).update(
                a.name for a in node.names)
    assert imported["spectral"] == {"LOCATE_TOL", "TAU_ZERO", "_zone",
                                    "_zone_rows", "spectrum_counts"}
    assert imported["eigencount"] == {"BandOperator", "eigenvalues_in"}


def test_only_the_helper_module_forks_and_its_child_leaves_by_os_exit():
    # the helper, a forked child, that returned into its caller's stack
    # would run the atexit handlers, flush the buffered output and tear
    # down the tests a second time, so its function, which serves every
    # family of the process, holds no return and ends in os._exit, in a
    # finally; the first thing it does is to give up the descriptors it
    # inherited
    forking = sorted({path.name for path in SOURCES
                      for node in ast.walk(ast.parse(path.read_text()))
                      if isinstance(node, ast.Call)
                      and ast.unparse(node.func).split(".")[-1]
                      in ("fork", "forkpty")})
    assert forking == ["_helper.py"], f"modules that fork: {forking}"
    path = next(p for p in SOURCES if p.name == "_helper.py")
    tree = ast.parse(path.read_text())
    fn = dict(_functions(tree))["_serve"]
    last = fn.body[-1]
    assert isinstance(last, ast.Try) and last.finalbody, \
        "the child's function does not end in a try/finally"
    assert ast.unparse(last.finalbody[-1]).startswith("os._exit("), \
        "the child's function does not end in os._exit"
    assert not [node for node in ast.walk(fn) if isinstance(node, ast.Return)]
    assert ast.unparse(last.body[0]).split(" = ")[-1].startswith(
        "_only_descriptors("), "the child keeps its inherited descriptors"
    # the child branch of the fork enters it and nothing else
    child = [node for node in ast.walk(tree) if isinstance(node, ast.If)
             and ast.unparse(node.test) == "pid == 0"]
    assert len(child) == 1
    assert ast.unparse(child[0].body[-1]).startswith("_serve(")


def test_one_mesh_count_function_for_both_processes():
    # the parent's counts (_counted) and the helper's mesh-2n counts
    # (_mesh2n, the work that _count_beside sends) reduce each stack
    # through one function, so the two processes count alike
    defined = [(path.name, name) for path in SOURCES
               for name, _ in _functions(ast.parse(path.read_text()))
               if name == "_mesh_counts"]
    assert defined == [("spectral.py", "_mesh_counts")]
    path = next(p for p in SOURCES if p.name == "spectral.py")
    functions = dict(_functions(ast.parse(path.read_text())))

    def names(fn):
        return {node.id for node in ast.walk(fn) if isinstance(node, ast.Name)}

    callers = sorted(name for name, fn in functions.items()
                     if "_mesh_counts" in names(fn))
    assert callers == ["_counted", "_mesh2n"]
    assert "_mesh2n" in names(functions["_count_beside"])


def _public_names(tree):
    """Module-level functions, classes and constants without a leading
    underscore."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        yield from (name for name in names if not name.startswith("_"))


def test_every_public_function_has_a_caller():
    # functions, classes and constants alike: a public name that only the
    # tests read belongs in the tests
    root = pathlib.Path(__file__).parent.parent
    used = set()
    for path in SOURCES + sorted((root / "scripts").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    public = {name for path in SOURCES
              for name in _public_names(ast.parse(path.read_text()))}
    unread = sorted(public - used)
    assert not unread, \
        f"public names nothing in src/ or scripts/ reads: {unread}"


def test_benchmark_bindings_exist():
    # perfbench traces the names in its BINDINGS at every module that binds
    # them; a refactor that drops one must fail here, not only in the slow
    # benchmark self-test
    root = pathlib.Path(__file__).parent.parent
    tree = ast.parse((root / "perfbench" / "selftest.py").read_text())
    bindings = next(ast.literal_eval(node.value) for node in tree.body
                    if isinstance(node, ast.Assign)
                    and [t.id for t in node.targets] == ["BINDINGS"])
    missing = [f"{module}.{name}" for module, names in bindings.items()
               for name in names
               if not inspect.isfunction(getattr(
                   importlib.import_module(f"otsuki.{module}"), name, None))]
    assert not missing, f"benchmark bindings not found: {missing}"
    from otsuki.sl import SLSystem
    assert inspect.isfunction(SLSystem.discretize)


# ``body`` runs in a fresh interpreter, may set ``code``, and may exit;
# the probe prints that code and the scipy modules loaded by then
_PROBE = """
import contextlib, io, json, sys
code = 0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        {body}
    except SystemExit as exc:
        code = exc.code
print(json.dumps({{"code": code, "scipy": sorted(
    m for m in sys.modules if m == "scipy" or m.startswith("scipy."))}}))
"""


def _probe(setup, body="pass"):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", setup + "\n" + _PROBE.format(body=body)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def _cli(*argv):
    return _probe("from otsuki.cli import run_cli",
                  f"code = run_cli({list(argv)!r})")


def test_import_leaves_scipy_unloaded():
    assert _probe("import otsuki") == {"code": 0, "scipy": []}


def test_import_forks_nothing():
    # the helper is forked at the first family that reads boundary forms
    setup = ("import os\nforked, fork = [], os.fork\n"
             "os.fork = lambda: forked.append(1) or fork()\n"
             "import otsuki, otsuki.cli")
    assert _probe(setup, "code = len(forked)") == {"code": 0, "scipy": []}


@pytest.mark.parametrize("argv", [
    ["--help"], ["geodesic", "--p", "2", "--q", "3"],
    ["index", "--p", "2", "--q", "3", "--n", "512", "--method", "direct",
     "--no-cache"]], ids=lambda a: a[0])
def test_cli_without_integration_leaves_scipy_unloaded(argv):
    assert _cli(*argv) == {"code": 0, "scipy": []}


def test_index_cache_hit_leaves_scipy_unloaded(tmp_path):
    argv = ["index", "--p", "2", "--q", "3", "--n", "512",
            "--cache-dir", str(tmp_path)]
    miss = _cli(*argv)
    assert miss == {"code": 0, "scipy": []}
    assert len(list(tmp_path.iterdir())) == 1
    assert _cli(*argv) == {"code": 0, "scipy": []}


# the boundary-form route integrates with the package's own DOP853 stepper,
# so computing an index loads no scipy (the miss above runs --method both)
def test_index_edwards_leaves_scipy_unloaded():
    assert _cli("index", "--p", "2", "--q", "3", "--n", "512", "--method",
                "edwards", "--no-cache") == {"code": 0, "scipy": []}


def test_verify_leaves_scipy_unloaded():
    assert _cli("verify", "--p", "2", "--q", "3", "--n", "512") == \
        {"code": 0, "scipy": []}


def test_boundary_form_leaves_scipy_unloaded():
    got = _probe("from otsuki.edwards import boundary_form\n"
                 "from otsuki.geodesic import sample_trajectory, solve_parameter",
                 "boundary_form(1, sample_trajectory(solve_parameter(2, 3), 1024),"
                 " n=2048)")
    assert got == {"code": 0, "scipy": []}


def test_no_source_imports_scipy():
    found = []
    for path in SOURCES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            elif isinstance(node, ast.Call):
                names = [a.value for a in node.args
                         if isinstance(a, ast.Constant) and isinstance(a.value, str)]
            else:
                continue
            found += [f"{path.name}: line {node.lineno}: {name}" for name in names
                      if name == "scipy" or name.startswith("scipy.")]
    assert not found, f"scipy imports under src/otsuki: {found}"
