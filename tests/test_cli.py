"""CLI and runner: pipeline verdicts, CSV determinism, study outputs."""

import csv
import os

import pytest

from stackheat.cli import main
from stackheat.config import parse_config
from stackheat.csvio import sha256_of
from stackheat.hum import _OBSERVED_CUT
from stackheat.runner import convergence_study, eps_sweep, probe_run, run_experiment


def small_config(tmp_path, conf="A", n=12, k=12, extra="", name="exp.ini"):
    lines = ["[scenario]", f"configuration = {conf}", "horizon = 0.5"]
    lines += [ln for ln in extra.splitlines() if ln.strip()]
    lines += ["", "[grid]", f"n_interior = {n}", f"n_steps = {k}",
              "", "[hum]", "epsilon = 1e-3", "cg_tol = 1e-9",
              "", "[output]", f"directory = {tmp_path}/out", "seed = 3",
              "verify_perturbations = 20"]
    p = tmp_path / name
    p.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(p)


def test_run_experiment_pipeline(tmp_path):
    spec = parse_config(small_config(tmp_path))
    report = run_experiment(spec, quiet=True)
    assert report.passed, [f"{v.name}: {v.reason}" for v in report.verdicts if not v.ok]
    names = {v.name for v in report.verdicts}
    assert {"saddle_conditions", "equilibrium_stationarity",
            "residual_certificate", "epsilon_law"} <= names
    for f in ("saddle_state.csv", "leader.csv", "verdicts.csv", "manifest.csv",
              "weights.csv", "cg_trace.csv"):
        assert os.path.exists(os.path.join(report.out_dir, f))
    # every emitted CSV has a header row
    with open(os.path.join(report.out_dir, "hum_summary.csv")) as fh:
        header = fh.readline()
    assert "epsilon" in header


def test_run_zero_data_all_pass(tmp_path):
    spec = parse_config(small_config(tmp_path, extra="y0 = zero\ntarget = zero"))
    report = run_experiment(spec, quiet=True)
    assert report.passed
    res = [v for v in report.verdicts if v.name == "residual_certificate"][0]
    assert res.value == 0.0
    eps_v = [v for v in report.verdicts if v.name == "epsilon_law"][0]
    assert eps_v.status in ("pass", "skipped")


def test_run_config_d(tmp_path):
    spec = parse_config(small_config(tmp_path, conf="D", n=10, k=10,
                                     extra="target2 = sine_cutoff"))
    report = run_experiment(spec, quiet=True)
    assert report.passed, [f"{v.name}: {v.reason}" for v in report.verdicts if not v.ok]
    assert any(v.name == "nash_conditions" for v in report.verdicts)
    assert os.path.exists(os.path.join(report.out_dir, "saddle_follower1.csv"))


def test_determinism_byte_identical(tmp_path):
    path = small_config(tmp_path, extra="y0 = random\ntarget = random")
    spec = parse_config(path)
    r1 = run_experiment(spec, out_dir=str(tmp_path / "run1"), quiet=True)
    spec2 = parse_config(path)
    r2 = run_experiment(spec2, out_dir=str(tmp_path / "run2"), quiet=True)
    assert set(r1.files) == set(r2.files)
    for name in r1.files:
        h1 = sha256_of(os.path.join(r1.out_dir, name))
        h2 = sha256_of(os.path.join(r2.out_dir, name))
        assert h1 == h2, f"{name} differs between identical runs"


def test_seed_changes_sampled_outputs(tmp_path):
    path = small_config(tmp_path, extra="y0 = random\ntarget = random")
    # rough random data sits outside the sqrt-eps scaling window, so the
    # epsilon-law diagnostic may legitimately report fail (exit code 1);
    # the subject here is seeding, not the law
    code1 = main(["run", path, "--out", str(tmp_path / "s1"), "--seed", "1", "--quiet"])
    code2 = main(["run", path, "--out", str(tmp_path / "s2"), "--seed", "2", "--quiet"])
    assert code1 in (0, 1) and code2 in (0, 1)
    h1 = sha256_of(str(tmp_path / "s1" / "saddle_state.csv"))
    h2 = sha256_of(str(tmp_path / "s2" / "saddle_state.csv"))
    assert h1 != h2


def test_convergence_study(tmp_path):
    spec = parse_config(small_config(
        tmp_path, extra="", n=12, k=12))
    spec = parse_config(small_config(tmp_path, n=12, k=12))
    report = convergence_study(spec, out_dir=str(tmp_path / "conv"), quiet=True)
    assert report.passed, [v.reason for v in report.verdicts if not v.ok]
    order = [v for v in report.verdicts if v.name == "heat_solver_order"][0]
    assert order.value >= 1.9
    oracle = [v for v in report.verdicts if v.name == "oracle_equivalence"][0]
    assert oracle.value <= 1e-10
    assert os.path.exists(os.path.join(report.out_dir, "convergence.csv"))
    assert os.path.exists(os.path.join(report.out_dir, "eps_sweep.csv"))


def test_eps_sweep_ratios(tmp_path):
    spec = parse_config(small_config(tmp_path, n=16, k=16))
    report = eps_sweep(spec, out_dir=str(tmp_path / "sweep"), quiet=True)
    law = [v for v in report.verdicts if v.name == "epsilon_law"][0]
    assert law.status == "pass", law.reason


def test_one_rung_eps_sweep_skips_the_law(tmp_path):
    spec = parse_config(small_config(tmp_path, n=8, k=8))
    import dataclasses
    spec = dataclasses.replace(spec, epsilon_ladder=(1e-3,))
    report = eps_sweep(spec, out_dir=str(tmp_path / "sweep"), quiet=True)
    law = [v for v in report.verdicts if v.name == "epsilon_law"][0]
    assert (law.status, law.reason) == ("skipped", "fewer than two rungs")
    with open(os.path.join(report.out_dir, "eps_sweep.csv")) as fh:
        assert len(fh.read().splitlines()) == 2


def test_summaries_report_the_picard_exit_status(tmp_path):
    report = run_experiment(parse_config(small_config(tmp_path, n=8, k=8)), quiet=True)
    for name in ("saddle_summary.csv", "controlled_summary.csv"):
        with open(os.path.join(report.out_dir, name)) as fh:
            rows = list(csv.DictReader(fh))
        assert [r["exit_status"] for r in rows] == ["converged"]


def test_probe_run(tmp_path):
    spec = parse_config(small_config(tmp_path, n=8, k=8))
    import dataclasses
    spec = dataclasses.replace(spec, probe_samples=10)
    report = probe_run(spec, out_dir=str(tmp_path / "probe"), quiet=True)
    assert report.passed
    assert os.path.exists(os.path.join(report.out_dir, "probe_ratios.csv"))
    # refined_max names the cut of the observation form it depends on
    with open(os.path.join(report.out_dir, "probe_summary.csv")) as fh:
        row, = csv.DictReader(fh)
    assert float(row["observed_cut [1]"]) == _OBSERVED_CUT


def test_cli_exit_codes(tmp_path):
    bad = tmp_path / "bad.ini"
    bad.write_text("[scenario]\nconfiguration = Z\n", encoding="utf-8")
    assert main(["run", str(bad), "--quiet"]) == 2
    good = small_config(tmp_path, n=8, k=8)
    assert main(["sweep-eps", good, "--out", str(tmp_path / "o"), "--quiet"]) == 0


@pytest.mark.parametrize("body", [
    "[scenario.obs]\na = 0.9\nb = 0.2",        # a > b
    "[robust]\nell = -1",                     # nonpositive weight
    "[grid]\nn_interior = 1",                 # too few nodes
    "[scenario.obs]\na = 0.401\nb = 0.402",   # no interior node at n = 50
    "[hum]\nepsilon_ladder = 1e-2, 0",        # non-positive rung
    "[hum]\nepsilon_ladder = 1e-2, 1e-4, 1e-2",  # duplicate rung
    "[hum]\nepsilon_ladder =",                # no rung: sweep-eps would solve nothing
    "[hum]\ncg_max_iters = 0",                # no iteration allowed
    "[grid]\ntheta = 0.75",                   # unknown key: the solvers are Crank-Nicolson
    "[grid]\nladder = 25, 50",                # a convergence ladder needs 3 grids
    "[output]\nverify_perturbations = 0",     # a saddle check over no perturbation
    "[output]\nprobe_samples = 0",            # a probe of no sample
    "[output]\nseed = -1",                    # numpy rejects negative seeds
], ids=["reversed-region", "negative-ell", "one-node-grid", "empty-region",
        "zero-epsilon-rung", "duplicate-epsilon-rung", "empty-eps-ladder", "zero-cg-iterations",
        "theta-key", "short-ladder", "zero-perturbations", "zero-probe-samples", "negative-seed"])
def test_rejected_config_value_exits_2(tmp_path, body, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text(f"[scenario]\nconfiguration = A\n{body}\n", encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    assert f"config error: {bad}" in capsys.readouterr().err


def test_run_lets_runtime_warnings_of_the_leader_synthesis_out(tmp_path, monkeypatch):
    import warnings

    import stackheat.runner as runner_module

    real = runner_module.hum_minimize

    def warning(*args, **kwargs):
        warnings.warn("overflow in the leader synthesis", RuntimeWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_module, "hum_minimize", warning)
    spec = parse_config(small_config(tmp_path, n=8, k=8))
    with pytest.warns(RuntimeWarning, match="overflow in the leader synthesis"):
        run_experiment(spec, out_dir=str(tmp_path / "o"), quiet=True)


def test_run_solves_no_equilibrium_of_its_own(tmp_path, monkeypatch):
    # the Gram basis holds the zero-leader equilibrium and the HUM result the
    # controlled one; the runner solves neither again
    import stackheat.runner as runner_module

    def refuse(*args, **kwargs):
        raise AssertionError("run solved a follower equilibrium a second time")

    monkeypatch.setattr(runner_module, "solve_optimality", refuse)
    report = run_experiment(parse_config(small_config(tmp_path, n=8, k=8)), quiet=True)
    assert report.passed, [f"{v.name}: {v.reason}" for v in report.verdicts if not v.ok]


def test_run_verify_stage_times_verify_saddle(tmp_path, monkeypatch):
    import time

    import stackheat.runner as runner_module

    real = runner_module.verify_saddle
    spent = []

    def slow_verify(*args, **kwargs):
        t0 = time.perf_counter()
        time.sleep(0.05)   # longer than any n=8 equilibrium solve
        out = real(*args, **kwargs)
        spent.append(time.perf_counter() - t0)
        return out

    monkeypatch.setattr(runner_module, "verify_saddle", slow_verify)
    report = run_experiment(parse_config(small_config(tmp_path, n=8, k=8)), quiet=True)
    assert [name for name, _ in report.stages] == ["saddle", "hum", "verify", "eps-law"]
    assert len(spent) == 1 and dict(report.stages)["verify"] >= spent[0]


def test_convergence_study_times_its_eps_sweep_and_writes_verdicts_once(tmp_path,
                                                                         monkeypatch):
    import stackheat.runner as runner_module

    real = runner_module.write_csv
    written = []

    def counting(path, *args, **kwargs):
        written.append(os.path.basename(path))
        return real(path, *args, **kwargs)

    monkeypatch.setattr(runner_module, "write_csv", counting)
    spec = parse_config(small_config(tmp_path, n=8, k=8))
    report = convergence_study(spec, out_dir=str(tmp_path / "conv"), quiet=True)
    assert [name for name, _ in report.stages] == ["heat-ladder", "oracle", "eps-sweep"]
    assert written.count("verdicts.csv") == 1
    assert report.files == ("convergence.csv", "oracle.csv", "eps_sweep.csv", "verdicts.csv",
                            "manifest.csv")


def test_stage_error_aborts_with_partial_manifest(tmp_path):
    # non-contracting weights kill the saddle stage; the report and manifest
    # must still be written, with an error verdict and no later-stage files
    spec = parse_config(small_config(tmp_path, extra="", n=8, k=8))
    import dataclasses
    from stackheat.scenario import RobustParams
    bad = dataclasses.replace(spec, robust=RobustParams(ell=0.05, gamma=0.05))
    report = run_experiment(bad, out_dir=str(tmp_path / "bad"), quiet=True)
    assert not report.passed
    assert any(v.status == "error" for v in report.verdicts)
    assert os.path.exists(os.path.join(report.out_dir, "manifest.csv"))
    assert os.path.exists(os.path.join(report.out_dir, "verdicts.csv"))
    assert not os.path.exists(os.path.join(report.out_dir, "leader.csv"))


def test_shipped_demo_configs_parse():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("demo_a", "demo_b", "demo_c", "demo_d"):
        spec = parse_config(os.path.join(here, "configs", f"{name}.ini"))
        assert spec.scenario.grid.n_interior == 50
