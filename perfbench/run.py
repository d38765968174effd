"""stackheat benchmark: certified run/probe/sweep-eps wall time and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload run-n50 --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
program is imported from ``src/`` of the checkout; without it the benchmark
exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

TOTAL_TIMEOUT_S = 170.0
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

# End-to-end metrics: name -> unit.  Raw wall times swing with the host's CPU
# speed by more than any allowed bound between runs, so the timed metric is
# wall_ref: pass wall time in units of a reference kernel timed around each
# invocation.  Raw and per-configuration times are printed for information and
# reported as the layer metrics runner.wall_s and runner.config.<X>.{s,ref}.
END_TO_END = {"wall_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "1"}


class BenchError(RuntimeError):
    pass


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(script: str, args: list, deadline: float) -> dict:
    """Run a benchmark script in a child interpreter; return its last JSON line."""
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise BenchError(f"no time left to run {script}")
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, script), *args],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{script} did not finish within {timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"{script} exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def spread_note(values: list, unit: str, what: str) -> str:
    """Median, the highest percentile with ten samples beyond it (else the max), count."""
    values = sorted(values)
    n = len(values)
    text = f"median of {n} {what}"
    if n > 10:
        pct = int(100 * (1 - 10 / n))
        q = statistics.quantiles(values, n=100)[pct - 1] if pct >= 1 else values[-1]
        return text + f"; p{pct} {q:.6g} {unit}"
    return text + f"; max {values[-1]:.6g} {unit} (too few for a percentile with 10 beyond it)"


def end_to_end(res: dict) -> tuple:
    refs = [p["wall_ref"] for p in res["passes"]]
    setup = [s["setup_s"] for s in res["setup"]]
    fail_frac = res["failed"] / res["attempted"]
    metrics = {
        "wall_ref": statistics.median(refs),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": res["peak_rss_mb"],
        "pass_frac": 1.0 - fail_frac,
    }
    notes = {
        "wall_ref": spread_note(refs, "ref", "passes"),
        "setup_s": spread_note(setup, "s", "fresh interpreters"),
        "peak_rss_mb": "peak resident set of the workload's child process (1 sample)",
        "pass_frac": f"1 - fail_frac; fail_frac = {res['failed']}/{res['attempted']}"
                     f" = {fail_frac:.6g} [1]",
    }
    return metrics, notes


def per_layer_units() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    needed = [os.path.join(ROOT, "src", "stackheat", "__init__.py"),
              os.path.join(ROOT, "configs", "demo_a.ini")]
    absent = [p for p in needed if not os.path.isfile(p)]
    if absent:
        print(f"perfbench: not a stackheat checkout, missing {absent}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TOTAL_TIMEOUT_S
    workload = WORKLOADS[args.workload]
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_ROOT)
    try:
        res = run_child("worker.py", ["--workload", args.workload, "--seed", str(args.seed),
                                      "--seconds", str(args.seconds), "--trace", str(args.trace),
                                      "--work-dir", work], deadline)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(WORK_ROOT)
        except OSError:
            pass

    prov = dict(res["provenance"], nproc=os.cpu_count(), cpu=cpu_model(),
                python=platform.python_version(), workload=args.workload, seed=args.seed,
                seconds=args.seconds, trace=args.trace)
    print(f"provenance {json.dumps(prov)}")
    for line in res["failures"]:
        print(f"FAILED {line}")
    if args.trace:
        metrics = dict(res["layers"])
        metrics["setup.import_s"] = statistics.median(s["import_s"] for s in res["setup"])
        units = per_layer_units()
        print(f"traced passes: {res['traced_passes']}; top self time per pass:")
        for name, calls, self_s in res["top_self"]:
            print(f"  {name:<40} {calls:>10.0f} calls {self_s:>10.4f} s")
        for name in sorted(metrics):
            print(f"{name:<40} {metrics[name]:>14.6g} {units[name]}")
    else:
        metrics, notes = end_to_end(res)
        units = END_TO_END
        for name, value in metrics.items():
            print(f"{name:<12} {value:>12.6g} {units[name]:<3} {notes[name]}")
        walls = [p["wall_s"] for p in res["passes"]]
        kernel = [r for p in res["passes"] for r in p["ref_s"]]
        print(f"(wall_s: {statistics.median(walls):.6g} s, {spread_note(walls, 's', 'passes')})")
        print(f"(reference kernel: {statistics.median(kernel):.6g} s, "
              f"{spread_note(kernel, 's', 'timings')})")
        for letter in workload.configs:
            walls = [p["configs"][letter] for p in res["passes"]]
            refs = [p["config_ref"][letter] for p in res["passes"]]
            print(f"(config {letter}: {statistics.median(refs):.6g} ref, "
                  f"{statistics.median(walls):.6g} s, {spread_note(walls, 's', 'invocations')})")
    print(json.dumps({"correct": res["failed"] == 0, "attempted": res["attempted"],
                      "failed": res["failed"],
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
