"""Tests of the benchmark's own machinery, on small grids.

    python -m pytest perfbench/tests -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from worker import Runner, layer_metrics, pass_wall_ref  # noqa: E402
from workloads import TEST_WORKLOADS  # noqa: E402

SEED = 7
COUNTS = ("heat.march.calls", "heat.steps", "saddle.picard.sweeps",
          "hum.adjoint_sweeps", "hum.cg_iterations")


def _plain_and_traced(name, work_dir, n_traced=1):
    """One untraced pass, then ``n_traced`` passes each under a fresh tracer."""
    runner = Runner(TEST_WORKLOADS[name], SEED, str(work_dir), checks.load_reference())
    plain = runner.run_pass()
    traced = []
    for _ in range(n_traced):
        tracer = Tracer()
        tracer.install()
        try:
            assert tracer.missing() == []
            traced.append(runner.run_pass(tracer))
        finally:
            tracer.uninstall()
    return plain, traced


@pytest.fixture(scope="module")
def run_n12(tmp_path_factory):
    return _plain_and_traced("run-n12", tmp_path_factory.mktemp("run"), n_traced=2)


def _assert_same_outputs(plain, traced):
    assert [inv.config for inv in plain] == [inv.config for inv in traced]
    for a, b in zip(plain, traced):
        assert a.failures == [] and b.failures == []
        assert a.outputs["verdicts"] == b.outputs["verdicts"]
        assert a.outputs["manifest"] == b.outputs["manifest"]
        assert a.identical and b.identical


def test_traced_run_matches_untraced(run_n12):
    plain, traced = run_n12
    _assert_same_outputs(plain, traced[0])


@pytest.mark.parametrize("name", ["probe-n12", "sweep-n12"])
def test_traced_probe_and_sweep_match_untraced(name, tmp_path):
    plain, traced = _plain_and_traced(name, tmp_path)
    _assert_same_outputs(plain, traced[0])


def test_every_invocation_has_a_reference_time(run_n12):
    plain, traced = run_n12
    for p in [plain] + traced:
        assert all(inv.ref_s > 0 for inv in p)
        assert pass_wall_ref(p) == pytest.approx(sum(inv.wall_s / inv.ref_s for inv in p))


def test_work_counts_repeat_exactly(run_n12):
    plain, (first, second) = run_n12
    a = layer_metrics([plain], [first])
    b = layer_metrics([plain], [second])
    for name in COUNTS:
        assert a[name] > 0
        assert a[name] == b[name], name


def test_self_times_add_up_to_wall_time(run_n12):
    _, traced = run_n12
    for inv in traced[0]:
        self_times = [s[1] for s in inv.trace["stats"].values()]
        unattributed = inv.wall_s - sum(self_times)
        assert min(self_times) >= -1e-12
        # self times partition the top-level spans exactly ...
        assert sum(self_times) == pytest.approx(inv.trace["root_s"], rel=1e-9, abs=1e-12)
        # ... and the top-level span (cli.main) covers almost all of the invocation
        assert 0.0 <= unattributed <= 0.05 * inv.wall_s + 1e-3
        assert sum(self_times) + unattributed == pytest.approx(inv.wall_s)


def test_coverage_check_finds_an_unwrapped_binding():
    import stackheat.heat
    import stackheat.hum
    import stackheat.saddle

    original = stackheat.heat.march
    tracer = Tracer()
    tracer.install()
    try:
        assert tracer.missing() == []
        assert stackheat.saddle.march is stackheat.heat.march is stackheat.hum.march
        assert stackheat.saddle.march is not original
        stackheat.saddle.march = original
        assert tracer.missing() == ["stackheat.saddle.march"]
    finally:
        tracer.uninstall()
    assert stackheat.saddle.march is original and stackheat.heat.march is original


def test_output_check_rules():
    ref = {"residuals": [1.0], "manifest": {"a.csv": "h1"}}
    good = {"verdicts": [("x", "pass", "", "")], "manifest": {"a.csv": "h1", "v.csv": "h2"},
            "residuals": [1.04]}
    assert checks.failures("run", 0, good, ref) == []
    assert checks.failures("run", 1, good, ref) == ["exit code 1"]
    assert checks.failures("run", 0, None, ref)
    assert checks.failures("run", 0, good, None)
    assert checks.failures("run", 0, dict(good, residuals=[1.06]), ref)
    assert checks.failures("run", 0, dict(good, verdicts=[("x", "error", "boom", "")]), ref)
    assert checks.failures("probe", 0, dict(good, residuals=[]), None) == []
    assert checks.manifest_identical(good["manifest"], ref, None)
    assert not checks.manifest_identical({"a.csv": "h3"}, ref, None)
    assert not checks.manifest_identical(good["manifest"], ref, {"a.csv": "h1"})


def test_metric_names_match_benchmark_json(run_n12):
    plain, traced = run_n12
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    emitted = set(layer_metrics([plain], [traced[0]])) | {"setup.import_s"}
    assert emitted == {m["name"] for m in spec["per_layer"]}
    assert set(run.END_TO_END) == {m["name"] for m in spec["end_to_end"]}
    assert {m["name"] for m in spec["workloads"]} == set(run.WORKLOADS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "run-n50",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
