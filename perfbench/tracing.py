"""Per-layer tracing of the otsuki package from outside its source tree.

``Tracer.install`` wraps every public function of the traced modules and
rebinds the wrapper wherever the original object is bound, so names
imported with ``from .x import y`` are traced too.  ``SLSystem.discretize``
is wrapped on its class, and ``solve_ivp`` as bound in ``edwards`` is
wrapped (without a span) to read its ``nfev``.

Each wrapped call records a span ``[name, start, end, parent, error,
attrs]`` in memory; ``metrics`` derives counts, self times (duration minus
the direct children) and total times (outermost span of a name only).
Operator fingerprints (array bytes, wrap data and, for sweeps, sigma) are
computed here only, to count distinct sweeps and discretizations.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import time
import weakref
from collections import Counter, defaultdict

TRACED_MODULES = ("geodesic", "quadrature", "surface", "sl", "eigencount",
                  "spectral", "edwards", "pipeline", "jsonio")
SWEEP_KINDS = ("d1_band", "d1_cyclic", "d2_band", "d2_cyclic_real",
               "d2_cyclic_twisted")

NAME, START, END, PARENT, ERROR, ATTRS = range(6)


def sweep_kind(op) -> str:
    if not op.cyclic:
        return f"d{op.dim}_band"
    if op.dim == 1:
        return "d1_cyclic"
    return "d2_cyclic_twisted" if op.is_complex() else "d2_cyclic_real"


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self._stack: list = []
        self._patches: list = []
        self._fingerprints: dict = {}
        self.sweep_keys: set = set()
        self.operator_keys: set = set()
        self.counts: Counter = Counter()

    # -- recording ---------------------------------------------------------

    def _wrap(self, name, fn, hook=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None, None]
            stack.append(len(spans))
            spans.append(rec)
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                rec[ERROR] = type(exc).__name__
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
            if hook is not None:
                rec[ATTRS] = hook(args, kwargs, result)
            return result

        return wrapper

    def _fingerprint(self, op) -> str:
        entry = self._fingerprints.get(id(op))
        if entry is not None and entry[0]() is op:
            return entry[1]
        h = hashlib.blake2b(digest_size=16)
        h.update(op.diag.tobytes())
        h.update(op.off.tobytes())
        h.update(repr((op.dim, op.wrap_off, op.wrap_mult)).encode())
        digest = h.hexdigest()
        self._fingerprints[id(op)] = (weakref.ref(op), digest)
        return digest

    # -- hooks: run after the call returns, outside its span -----------------

    def _on_inertia(self, args, kwargs, result):
        op, sigma = args[0], float(args[1] if len(args) > 1 else kwargs["sigma"])
        self.sweep_keys.add((self._fingerprint(op), sigma))
        return {"kind": sweep_kind(op), "m": op.m}

    def _on_discretize(self, args, kwargs, result):
        self.operator_keys.add(self._fingerprint(result))
        return {"n": result.meta["n"]}

    def _on_boundary_counts(self, args, kwargs, result):
        n = args[1] if len(args) > 1 else kwargs["n"]
        return {"n": n}

    def _on_dumps(self, args, kwargs, result):
        self.counts["jsonio.dumps.bytes"] += len(result.encode())
        return None

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        """Wrap the package's public functions at every binding."""
        package = importlib.import_module("otsuki")
        modules = [package] + [importlib.import_module(f"otsuki.{m}")
                               for m in ("cli",) + TRACED_MODULES]
        hooks = {"eigencount.inertia": self._on_inertia,
                 "spectral.boundary_counts": self._on_boundary_counts,
                 "jsonio.dumps": self._on_dumps}
        wrappers = {}
        for short in TRACED_MODULES:
            mod = importlib.import_module(f"otsuki.{short}")
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    name = f"{short}.{attr}"
                    wrappers[id(obj)] = (obj, self._wrap(name, obj, hooks.get(name)))

        edwards = importlib.import_module("otsuki.edwards")
        solve_ivp = edwards.solve_ivp

        @functools.wraps(solve_ivp)
        def counted_solve_ivp(*args, **kwargs):
            sol = solve_ivp(*args, **kwargs)
            self.counts["edwards.ode_rhs_evals"] += int(sol.nfev)
            return sol

        wrappers[id(solve_ivp)] = (solve_ivp, counted_solve_ivp)
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        sl_system = importlib.import_module("otsuki.sl").SLSystem
        self._patch(sl_system, "discretize",
                    self._wrap("sl.discretize", sl_system.discretize,
                               self._on_discretize))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- derived metrics -----------------------------------------------------

    def metrics(self) -> dict:
        spans = self.spans
        child_s = [0.0] * len(spans)
        for rec in spans:
            if rec[PARENT] >= 0:
                child_s[rec[PARENT]] += rec[END] - rec[START]
        calls, self_s, tot_s = Counter(), defaultdict(float), defaultdict(float)
        for i, rec in enumerate(spans):
            name, dur = rec[NAME], rec[END] - rec[START]
            calls[name] += 1
            self_s[name] += dur - child_s[i]
            if not self._nested_in_same_name(i):
                tot_s[name] += dur

        sweeps, sweep_s, nodes = Counter(), defaultdict(float), Counter()
        bisection = third_mesh = inapplicable = 0
        for rec in spans:
            parent = spans[rec[PARENT]] if rec[PARENT] >= 0 else None
            if rec[NAME] == "eigencount.inertia" and rec[ATTRS] is not None:
                kind = rec[ATTRS]["kind"]
                sweeps[kind] += 1
                sweep_s[kind] += rec[END] - rec[START]
                nodes[kind] += rec[ATTRS]["m"]
                if parent is not None and parent[NAME] == "eigencount.eigenvalues_in":
                    bisection += 1
            elif (rec[NAME] == "sl.discretize" and rec[ATTRS] is not None
                  and parent is not None
                  and parent[NAME] == "spectral.boundary_counts"
                  and parent[ATTRS] is not None
                  and rec[ATTRS]["n"] == 4 * parent[ATTRS]["n"]):
                third_mesh += 1
            elif (rec[NAME] == "edwards.boundary_form"
                  and rec[ERROR] == "EdwardsInapplicableError"):
                inapplicable += 1

        out = {
            "eigencount.sweeps": (calls["eigencount.inertia"], "count"),
            "eigencount.sweeps_distinct": (len(self.sweep_keys), "count"),
        }
        for kind in SWEEP_KINDS:
            out[f"eigencount.sweeps.{kind}"] = (sweeps[kind], "count")
            out[f"eigencount.sweep_s.{kind}"] = (sweep_s[kind], "s")
            out[f"eigencount.us_per_node.{kind}"] = (
                1e6 * sweep_s[kind] / nodes[kind] if nodes[kind] else 0.0, "us")
        out.update({
            "eigencount.eigenvalues_in.calls":
                (calls["eigencount.eigenvalues_in"], "count"),
            "eigencount.eigenvalues_in.sweeps": (bisection, "count"),
            "eigencount.scalar_eigenfunctions.self_s":
                (self_s["eigencount.scalar_eigenfunctions"], "s"),
            "sl.discretize.calls": (calls["sl.discretize"], "count"),
            "sl.discretize.distinct": (len(self.operator_keys), "count"),
            "sl.discretize.self_s": (self_s["sl.discretize"], "s"),
            "spectral.boundary_counts.calls":
                (calls["spectral.boundary_counts"], "count"),
            "spectral.third_mesh": (third_mesh, "count"),
        })
        for name in ("spectral.direct_twisted_counts", "spectral.spectral_index",
                     "spectral.verify_high_l_positive",
                     "spectral.antiperiodic_check_l0"):
            out[f"{name}.tot_s"] = (tot_s[name], "s")
        out.update({
            "edwards.dirichlet_negative_count.calls":
                (calls["edwards.dirichlet_negative_count"], "count"),
            "edwards.dirichlet_negative_count.tot_s":
                (tot_s["edwards.dirichlet_negative_count"], "s"),
            "edwards.boundary_solutions.self_s":
                (self_s["edwards.boundary_solutions"], "s"),
            "edwards.ode_rhs_evals": (self.counts["edwards.ode_rhs_evals"], "count"),
            "edwards.inapplicable": (inapplicable, "count"),
            "geodesic.solve_parameter.calls":
                (calls["geodesic.solve_parameter"], "count"),
            "geodesic.solve_parameter.self_s":
                (self_s["geodesic.solve_parameter"], "s"),
            "geodesic.sample_trajectory.self_s":
                (self_s["geodesic.sample_trajectory"], "s"),
            "quadrature.adaptive_gauss.calls":
                (calls["quadrature.adaptive_gauss"], "count"),
            "surface.separated_coefficients.self_s":
                (self_s["surface.separated_coefficients"], "s"),
            "surface.kernel_fields.self_s": (self_s["surface.kernel_fields"], "s"),
            "pipeline.compute_index.tot_s": (tot_s["pipeline.compute_index"], "s"),
            "pipeline.verify_family.tot_s": (tot_s["pipeline.verify_family"], "s"),
            "jsonio.dumps.bytes": (self.counts["jsonio.dumps.bytes"], "bytes"),
            "trace.spans": (len(spans), "count"),
        })
        return out

    def _nested_in_same_name(self, i: int) -> bool:
        name = self.spans[i][NAME]
        j = self.spans[i][PARENT]
        while j >= 0:
            if self.spans[j][NAME] == name:
                return True
            j = self.spans[j][PARENT]
        return False

    def write(self, path: str, header: dict) -> None:
        """Write the header and one JSON line per span."""
        with open(path, "w") as fh:
            fh.write(json.dumps(dict(header, run=self.run_id)) + "\n")
            for rec in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "name": rec[NAME], "start": rec[START],
                    "end": rec[END], "parent": rec[PARENT], "error": rec[ERROR],
                    "attrs": rec[ATTRS]}) + "\n")
