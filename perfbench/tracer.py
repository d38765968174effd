"""Span tracer that wraps the public functions of every ``stackheat`` module.

Spans are recorded from outside the program: each public function (and
``ScenarioRecipe.build``) is replaced by a wrapper at *every* module binding,
because ``from .heat import march`` in ``saddle``/``hum`` and the writers bound
in ``runner`` each hold their own reference.  ``missing()`` scans all loaded
``stackheat.*`` modules and names any binding that still holds an unwrapped
original.

A span's self time is its duration minus the durations of its child spans;
per function the tracer keeps calls, self time and total time, plus the work
counters read off return values (time steps marched, Picard sweeps, CG
iterations, bytes written).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import pkgutil
import sys
from collections import defaultdict
from time import perf_counter

BYTES_PER_FLOAT = 8
# Operand arrays of one march step, each n_interior float64 values: y^k read,
# the three bands of (I - theta dt D) read, y^{k+1} written, plus the source
# row when there is one.  The byte count is computed from these sizes, not
# measured.
MARCH_ARRAYS_PER_STEP = 5


def _march_post(tr, out, args, kwargs):
    steps, n = out.shape[0] - 1, out.shape[1]
    source = args[3] if len(args) > 3 else kwargs.get("source")
    c = tr.counters
    c["heat.steps"] += steps
    c["heat.cells"] += steps * n
    c["heat.bytes_computed"] += (BYTES_PER_FLOAT * n * steps
                                 * (MARCH_ARRAYS_PER_STEP + (source is not None)))


def _picard_post(tr, out, args, kwargs):
    tr.counters["saddle.picard.sweeps"] += out[2]
    tr.ratios.extend(out[4])


def _adjoint_post(tr, out, args, kwargs):
    tr.counters["hum.adjoint_sweeps"] += out.iterations


def _hum_post(tr, out, args, kwargs):
    tr.counters["hum.cg_iterations"] += out.cg_iterations


def _probe_post(tr, out, args, kwargs):
    tr.counters["hum.probe.samples"] += out.n_samples
    tr.counters["hum.probe.skipped"] += out.skipped


def _csv_post(tr, out, args, kwargs):
    path = args[0] if args else kwargs["path"]
    tr.counters["csvio.files"] += 1
    tr.counters["csvio.bytes_written"] += os.path.getsize(path)


def _report_post(tr, out, args, kwargs):
    tr.stages.extend(out.stages)


# Left unwrapped: the dense oracle runs only in `converge`; the products
# helpers and the per-cell CSV formatter cost microseconds per call, so their
# time stays in their callers' self time instead of paying a wrapper per call.
SKIP_MODULES = {"oracle", "products"}
SKIP_FUNCTIONS = {"csvio.fmt"}

POST_HOOKS = {
    "heat.march": _march_post,
    "saddle.picard_coupled": _picard_post,
    "hum.solve_adjoint": _adjoint_post,
    "hum.hum_minimize": _hum_post,
    "hum.observability_probe": _probe_post,
    "csvio.write_csv": _csv_post,
    "runner.run_experiment": _report_post,
    "runner.eps_sweep": _report_post,
    "runner.probe_run": _report_post,
}


def stackheat_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "stackheat" or name.startswith("stackheat.")) and m is not None]


class Tracer:
    """Wraps ``stackheat`` once per process; ``install``/``uninstall`` toggle it."""

    def __init__(self):
        self.stats = {}                 # name -> [calls, self_s, total_s]
        self.counters = defaultdict(int)
        self.ratios = []                # Picard contraction ratios
        self.stages = []                # (name, seconds) from RunReport.stages
        self.root_s = 0.0               # summed duration of top-level spans
        self._stack = []
        self._originals = {}            # id(original) -> (original, wrapper)
        self._patched = []              # (owner, attribute, original)

    # -- wrapping ---------------------------------------------------------
    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        post = POST_HOOKS.get(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]               # time covered by child spans
            stack.append(frame)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                stats[0] += 1
                stats[1] += dur - frame[0]
                stats[2] += dur
                if stack:
                    stack[-1][0] += dur
                else:
                    tracer.root_s += dur
            if post is not None:
                post(tracer, out, args, kwargs)
            return out

        return traced

    def install(self):
        if self._patched:
            return
        import stackheat
        from stackheat.config import ScenarioRecipe

        for info in pkgutil.iter_modules(stackheat.__path__):
            importlib.import_module(f"stackheat.{info.name}")
        modules = stackheat_modules()
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            if short in SKIP_MODULES:
                continue
            for attr, obj in vars(mod).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP_FUNCTIONS):
                    self._originals[id(obj)] = (obj, self._wrap(name, obj))
        build = ScenarioRecipe.build
        self._originals[id(build)] = (build, self._wrap("config.recipe_build", build))
        for owner in self._owners(modules):
            for attr, obj in list(vars(owner).items()):
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(owner, attr, hit[1])
                    self._patched.append((owner, attr, obj))

    def uninstall(self):
        for owner, attr, obj in reversed(self._patched):
            setattr(owner, attr, obj)
        self._patched.clear()
        self._originals.clear()

    @staticmethod
    def _owners(modules):
        """Modules plus the classes they define: every place a binding can live."""
        owners = []
        for mod in modules:
            owners.append(mod)
            owners += [obj for obj in vars(mod).values()
                       if inspect.isclass(obj) and obj.__module__ == mod.__name__]
        return owners

    def missing(self) -> list:
        """Bindings in loaded ``stackheat`` modules that still hold an unwrapped original."""
        out = []
        for owner in self._owners(stackheat_modules()):
            for attr, obj in vars(owner).items():
                hit = self._originals.get(id(obj))
                if hit is not None and hit[0] is obj:
                    where = (owner.__name__ if inspect.ismodule(owner)
                             else f"{owner.__module__}.{owner.__qualname__}")
                    out.append(f"{where}.{attr}")
        return sorted(out)

    # -- records ----------------------------------------------------------
    def reset(self):
        for st in self.stats.values():
            st[0], st[1], st[2] = 0, 0.0, 0.0
        self.counters.clear()
        self.ratios.clear()
        self.stages.clear()
        self.root_s = 0.0

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items() if v[0]},
                "counters": dict(self.counters),
                "ratios": list(self.ratios),
                "stages": [list(s) for s in self.stages],
                "root_s": self.root_s}
