"""Runs one workload in-process through ``stackheat.cli.main`` and prints JSON.

One caller in a closed loop: each invocation starts when the previous one and
its output check have finished.  Passes repeat until the time budget would be
exceeded (at least one pass).  With ``--trace 1`` the first half of the
budget runs untraced and the second half traced, which gives the tracing
overhead and the per-layer metrics.  ``run.py`` starts this script in a child
process with BLAS/OpenMP threads pinned to 1 and ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
if HERE not in sys.path:
    sys.path.insert(0, HERE)

import checks  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Workload, reference_key, write_config  # noqa: E402

WARMUP_N = 8   # grid of the untimed warm-up invocation that runs lazy imports once
REF_STEPS = 4000   # time steps of the reference kernel timed around each invocation
SETUP_SAMPLES = 7  # fresh-interpreter set-up timings per run, one before each pass

# Wrapped functions reported with calls and self time, and with self time only.
CALLS_AND_SELF = (
    "heat.march", "heat.march_backward",
    "saddle.solve_optimality", "saddle.picard_coupled", "saddle.build_problem",
    "saddle.verify_saddle", "saddle.evaluate_functional_raw",
    "hum.hum_minimize", "hum.gram_apply", "hum.solve_adjoint", "hum.observability_probe",
    "weights.admissibility_check", "weights.target_weight", "weights.rho_star_inv_sq",
    "csvio.write_field_csv",
)
SELF_ONLY = (
    "hum.target_admissibility", "csvio.write_csv", "csvio.write_trace_csv",
    "csvio.write_manifest", "config.parse_config", "config.recipe_build",
)
STAGES = ("saddle", "hum", "verify", "eps-law", "eps-sweep", "probe")
CONFIGS = "ABCD"


@dataclass
class Invocation:
    config: str
    wall_s: float
    failures: list
    identical: bool
    outputs: dict | None
    trace: dict | None
    ref_s: float = 0.0   # reference-kernel seconds around this invocation


def reference_kernel(n: int, steps: int = REF_STEPS) -> float:
    """Seconds for a fixed theta-scheme loop in plain numpy/scipy on an n-point grid.

    The host's CPU speed swings by tens of percent over tens of seconds, and
    this kernel, timed around each invocation, measures that speed at the
    moment.  It uses no stackheat code, so no change to the program moves it.
    The constant source keeps the iterates away from subnormal numbers.
    """
    import numpy as np
    from scipy.linalg import solve_banded

    ab = np.empty((3, n))
    ab[0] = ab[2] = -1.0
    ab[1] = 4.0
    y = np.ones(n)
    t0 = perf_counter()
    for _ in range(steps):
        rhs = 0.5 * y + 1.0
        rhs[1:] += 0.25 * y[:-1]
        rhs[:-1] += 0.25 * y[1:]
        y = solve_banded((1, 1), ab, rhs)
    return perf_counter() - t0


class Runner:
    """Generated configs for one workload and the loop that invokes the CLI on them."""

    def __init__(self, workload: Workload, seed: int, work_dir: str, reference: dict):
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.reference = reference
        self.paths = {c: write_config(ROOT, c, workload.n, work_dir) for c in workload.configs}
        self.first_manifest = {}
        self.setups = []

    def probe_setup(self):
        """Time set-up for the first config in a fresh interpreter (setup_probe.py).

        Taken between passes, so the samples spread over the run's swings in
        host speed instead of all falling into one.
        """
        wl = self.workload
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "setup_probe.py"),
             self.paths[wl.configs[0]], str(wl.n), str(self.seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        self.setups.append(json.loads(proc.stdout.strip().splitlines()[-1]))

    def invoke(self, letter: str, tracer: Tracer | None = None) -> Invocation:
        from stackheat import cli

        wl = self.workload
        out_dir = os.path.join(self.work_dir, f"out_{letter}")
        argv = [wl.command, self.paths[letter], "--out", out_dir,
                "--seed", str(self.seed), "--quiet"]
        if tracer is not None:
            tracer.reset()
        error = None
        t0 = perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code
        except Exception:  # a crash is a failed invocation; the loop goes on
            rc, error = None, traceback.format_exc(limit=3).strip().splitlines()[-1]
        wall = perf_counter() - t0
        trace = None if tracer is None else tracer.snapshot()

        try:
            outputs = checks.read_outputs(wl.command, out_dir)
        except (OSError, KeyError, ValueError):
            outputs = None
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        ref = self.reference.get(reference_key(wl.command, letter, wl.n))
        reasons = checks.failures(wl.command, rc, outputs, ref)
        if error:
            reasons.insert(0, f"exception: {error}")
        identical = False
        if outputs is not None:
            first = self.first_manifest.setdefault(letter, outputs["manifest"])
            identical = checks.manifest_identical(outputs["manifest"], ref, first)
        return Invocation(letter, wall, reasons, identical, outputs, trace)

    def run_pass(self, tracer: Tracer | None = None) -> list:
        """One invocation per config, each bracketed by reference-kernel timings."""
        out = []
        before = reference_kernel(self.workload.n)
        for letter in self.workload.configs:
            inv = self.invoke(letter, tracer)
            after = reference_kernel(self.workload.n)
            inv.ref_s = (before + after) / 2
            before = after
            out.append(inv)
        return out


def measure(runner: Runner, budget_s: float, tracer: Tracer | None = None) -> list:
    """Whole passes until another one would end past the budget; at least one."""
    passes = []
    t_start = perf_counter()
    while True:
        runner.probe_setup()
        passes.append(runner.run_pass(tracer))
        spent = perf_counter() - t_start
        if spent + spent / len(passes) > budget_s:
            return passes


def warm_up(workload: Workload, seed: int, work_dir: str):
    """One untimed small-grid invocation, so lazy imports are not timed."""
    small = Workload(workload.command, workload.configs[0], WARMUP_N)
    Runner(small, seed, work_dir, {}).run_pass()


def pass_wall(p: list) -> float:
    return sum(inv.wall_s for inv in p)


def pass_wall_ref(p: list) -> float:
    """Pass wall time with each invocation in units of its reference-kernel time."""
    return sum(inv.wall_s / inv.ref_s for inv in p)


def _median_config(passes: list, letter: str, ref: bool) -> float:
    values = [inv.wall_s / inv.ref_s if ref else inv.wall_s
              for p in passes for inv in p if inv.config == letter]
    return statistics.median(values) if values else 0.0


def layer_metrics(untraced: list, traced: list) -> dict:
    """Per-layer metrics, per pass, from the traced passes of one run."""
    n = len(traced)
    stats, counters, ratios, stages = {}, {}, [], {}
    unstaged = 0.0
    for inv in (inv for p in traced for inv in p):
        tr = inv.trace
        for name, (calls, self_s, total_s) in tr["stats"].items():
            acc = stats.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += self_s
            acc[2] += total_s
        for name, value in tr["counters"].items():
            counters[name] = counters.get(name, 0) + value
        ratios += tr["ratios"]
        for name, secs in tr["stages"]:
            stages[name] = stages.get(name, 0.0) + secs
        unstaged += inv.wall_s - sum(secs for _, secs in tr["stages"])

    def stat(name, i):
        return stats.get(name, [0, 0.0, 0.0])[i] / n

    def count(name):
        return counters.get(name, 0) / n

    m = {}
    for name in CALLS_AND_SELF:
        m[f"{name}.calls"] = stat(name, 0)
        m[f"{name}.self_s"] = stat(name, 1)
    for name in SELF_ONLY:
        m[f"{name}.self_s"] = stat(name, 1)

    steps, cells, march_s = count("heat.steps"), count("heat.cells"), stat("heat.march", 2)
    m["heat.steps"] = steps
    m["heat.us_per_step"] = march_s / steps * 1e6 if steps else 0.0
    m["heat.ns_per_cell"] = march_s / cells * 1e9 if cells else 0.0
    m["heat.bytes_computed"] = count("heat.bytes_computed")
    m["saddle.picard.sweeps"] = count("saddle.picard.sweeps")
    m["saddle.picard.contraction_median"] = statistics.median(ratios) if ratios else 0.0
    cg = count("hum.cg_iterations")
    m["hum.cg_iterations"] = cg
    m["hum.gram_apply_per_cg_iteration"] = stat("hum.gram_apply", 0) / cg if cg else 0.0
    m["hum.adjoint_sweeps"] = count("hum.adjoint_sweeps")
    samples = count("hum.probe.samples")
    m["hum.probe.skipped_frac"] = count("hum.probe.skipped") / samples if samples else 0.0
    m["csvio.bytes_written"] = count("csvio.bytes_written")
    m["csvio.files"] = count("csvio.files")
    every = [inv for p in untraced + traced for inv in p]
    m["csvio.manifest_identical_frac"] = sum(inv.identical for inv in every) / len(every)
    for name in STAGES:
        m[f"runner.stage.{name}.s"] = stages.get(name, 0.0) / n
    m["runner.unstaged_s"] = unstaged / n
    m["trace.overhead_frac"] = (statistics.median(pass_wall_ref(p) for p in traced)
                                / statistics.median(pass_wall_ref(p) for p in untraced) - 1.0)
    for letter in CONFIGS:
        m[f"runner.config.{letter}.s"] = _median_config(untraced, letter, ref=False)
        m[f"runner.config.{letter}.ref"] = _median_config(untraced, letter, ref=True)
    m["runner.wall_s"] = statistics.median(pass_wall(p) for p in untraced)
    return m


def top_self(traced: list, limit: int = 15) -> list:
    """The wrapped functions with the most self time per pass."""
    acc = {}
    for inv in (inv for p in traced for inv in p):
        for name, (calls, self_s, _) in inv.trace["stats"].items():
            c, s = acc.get(name, (0, 0.0))
            acc[name] = (c + calls, s + self_s)
    n = len(traced)
    rows = sorted(acc.items(), key=lambda kv: -kv[1][1])[:limit]
    return [[name, calls / n, self_s / n] for name, (calls, self_s) in rows]


def provenance() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
            "threads": {k: os.environ.get(k) for k in
                        ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}}


def run_workload(workload: Workload, seed: int, seconds: float, trace: bool,
                 work_dir: str, reference: dict) -> dict:
    warm_up(workload, seed, work_dir)
    runner = Runner(workload, seed, work_dir, reference)
    if trace:
        untraced = measure(runner, seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            missing = tracer.missing()
            if missing:
                raise RuntimeError(f"tracer left unwrapped bindings: {missing}")
            traced = measure(runner, seconds / 2, tracer)
        finally:
            tracer.uninstall()
    else:
        untraced, traced = measure(runner, seconds), []
    while len(runner.setups) < SETUP_SAMPLES:
        runner.probe_setup()
    every = [inv for p in untraced + traced for inv in p]
    failed = [inv for inv in every if inv.failures]
    out = {
        "passes": [{"wall_s": pass_wall(p), "wall_ref": pass_wall_ref(p),
                    "ref_s": [inv.ref_s for inv in p],
                    "config_ref": {inv.config: inv.wall_s / inv.ref_s for inv in p},
                    "configs": {inv.config: inv.wall_s for inv in p}} for p in untraced],
        "attempted": len(every),
        "failed": len(failed),
        "failures": [f"{inv.config}: {'; '.join(inv.failures)}" for inv in failed[:5]],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup": runner.setups,
        "provenance": provenance(),
    }
    if trace:
        out["layers"] = layer_metrics(untraced, traced)
        out["top_self"] = top_self(traced)
        out["traced_passes"] = len(traced)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args(argv)

    import stackheat
    src = os.path.join(ROOT, "src") + os.sep
    if not os.path.abspath(stackheat.__file__).startswith(src):
        print(f"stackheat imported from {stackheat.__file__}, not from {src}", file=sys.stderr)
        return 2
    result = run_workload(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
                          args.work_dir, checks.load_reference())
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
