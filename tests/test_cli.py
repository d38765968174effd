"""CLI and runner: pipeline verdicts, CSV determinism, study outputs."""

import csv
import os
import subprocess
import sys

import pytest

import stackheat
from stackheat.cli import main
from stackheat.config import parse_config
from stackheat.errors import ConfigError
from stackheat.hum import _OBSERVED_CUT
from stackheat.runner import convergence_study, eps_sweep, probe_run, run_experiment

from _instruments import sha256_of


def small_config(tmp_path, conf="A", n=12, k=12, extra="", name="exp.ini"):
    lines = ["[scenario]", f"configuration = {conf}", "horizon = 0.5"]
    lines += [ln for ln in extra.splitlines() if ln.strip()]
    lines += ["", "[grid]", f"n_interior = {n}", f"n_steps = {k}",
              "", "[hum]", "epsilon = 1e-3", "cg_tol = 1e-9",
              "", "[output]", f"directory = {tmp_path}/out", "seed = 3"]
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


@pytest.mark.parametrize("body, reason", [
    ("[scenario.obs]\na = 0.9\nb = 0.2",         # a > b
     "region must have a < b, got (0.9, 0.2)"),
    ("[robust]\nell = -1",                      # nonpositive weight
     "ell and gamma must be positive"),
    ("[grid]\nn_interior = 1",                  # too few nodes
     "n_interior must be >= 2, got 1"),
    ("[scenario.obs]\na = 0.401\nb = 0.402",    # no interior node at n = 50
     "region (0.401, 0.402) contains no interior node"),
    ("[hum]\nepsilon_ladder = 1e-2, 0",         # non-positive rung
     "epsilon_ladder must hold distinct positive finite rungs, got (0.01, 0.0)"),
    ("[hum]\nepsilon_ladder = 1e-2, 1e-4, 1e-2",  # duplicate rung
     "epsilon_ladder must hold distinct positive finite rungs, got (0.01, 0.0001, 0.01)"),
    ("[hum]\nepsilon_ladder =",                 # no rung: sweep-eps would solve nothing
     "epsilon_ladder needs at least one rung"),
    ("[hum]\ncg_tol = 0",                       # a nonpositive CG tolerance
     "cg_tol must be positive and finite, got 0.0"),
    ("[hum]\ncg_max_iters = 5000",              # unknown key: the Krylov basis bounds the CG
     "unknown key 'cg_max_iters' in [hum]"),
    ("[grid]\ntheta = 0.75",                    # unknown key: the solvers are Crank-Nicolson
     "unknown key 'theta' in [grid]"),
    ("[grid]\nladder = 25, 50",                 # a convergence ladder needs 3 grids
     "[grid] ladder needs at least 3 grids, got (25, 50)"),
    ("[output]\nverify_perturbations = 0",      # retired: verify draws no perturbation
     "unknown key 'verify_perturbations' in [output]"),
    ("[output]\nprobe_samples = 0",             # a probe of no sample
     "[output] probe_samples must be >= 1, got 0"),
    ("[output]\nseed = -1",                     # numpy rejects negative seeds
     "[output] seed must be a nonnegative integer, got -1"),
    ("[robust]\nell2 = 12.0",                   # a second follower outside D
     "[robust] ell2 applies to configuration D only"),
    ("global_disturbance = true",               # [scenario]: the B variant outside B
     "[scenario] global_disturbance applies to configuration B only"),
    ("[hum]\nepsilon = inf",                    # LAPACK would factor a non-finite matrix
     "epsilon must be positive and finite, got inf"),
    ("[hum]\ncg_tol = inf",                     # would end the CG after one iteration
     "cg_tol must be positive and finite, got inf"),
    ("[hum]\nepsilon_ladder = 1e-2, inf",       # a rung sweep-eps cannot solve
     "epsilon_ladder must hold distinct positive finite rungs, got (0.01, inf)"),
    ("[robust]\nfixed_point_tol = inf",         # every Picard solve would stop after one sweep
     "fixed_point_tol must be positive and finite, got inf"),
    ("[robust]\nell = inf",                     # J would be nan
     "ell and gamma must be positive and finite, got ell = inf, gamma = 10.0"),
    ("[robust]\ngamma = inf",                   # J would be nan
     "ell and gamma must be positive and finite, got ell = 10.0, gamma = inf"),
    ("configuration = D\n[robust]\nell2 = inf",  # the second follower's J would be nan
     "ell2 must be positive and finite when given, got inf"),
], ids=["reversed-region", "negative-ell", "one-node-grid", "empty-region",
        "zero-epsilon-rung", "duplicate-epsilon-rung", "empty-eps-ladder", "zero-cg-tol",
        "cg-max-iters-key", "theta-key", "short-ladder", "zero-perturbations",
        "zero-probe-samples", "negative-seed", "ell2-outside-d", "global-disturbance-outside-b",
        "inf-epsilon", "inf-cg-tol", "inf-epsilon-rung", "inf-fixed-point-tol", "inf-ell",
        "inf-gamma", "inf-ell2"])
def test_rejected_config_value_exits_2(tmp_path, body, reason, capsys):
    # the reason proves the row is rejected for what it tests, not for another error
    bad = tmp_path / "bad.ini"
    conf = "" if body.startswith("configuration =") else "configuration = A\n"
    bad.write_text(f"[scenario]\n{conf}{body}\n", encoding="utf-8")
    assert main(["run", str(bad), "--out", str(tmp_path / "o"), "--quiet"]) == 2
    err = capsys.readouterr().err
    assert f"config error: {bad}: " in err and reason in err


def test_main_calls_share_no_parser_state(monkeypatch):
    # the parser is built once per process; each call parses into a fresh namespace
    import stackheat.cli as cli

    parsed = []

    def stop(args):
        parsed.append(vars(args).copy())
        raise ConfigError("parsed")   # exit 2 before any stage runs

    monkeypatch.setattr(cli, "_load", stop)
    assert main(["run", "a.ini", "--seed", "5", "--out", "o", "--quiet"]) == 2
    assert main(["probe", "b.ini"]) == 2
    assert parsed == [
        {"command": "run", "config": "a.ini", "seed": 5, "out": "o", "quiet": True},
        {"command": "probe", "config": "b.ini", "seed": None, "out": None, "quiet": False}]
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("conf", "AB")
def test_run_fails_its_saddle_verdicts_on_a_nan_functional(conf, tmp_path, monkeypatch):
    # nan > violation is False, so a nan gain once slipped past the check: here
    # every cost verify scores is nan, the derivatives and curvatures with it;
    # both verdicts fail, and their reasons show the nan
    import numpy as np

    import stackheat.saddle as saddle_module

    real = saddle_module._block_values

    def nan_on_blocks(*args, **kwargs):
        return real(*args, **kwargs) * np.nan

    # every value at a stationarity point, and the equilibrium's, is a block value
    monkeypatch.setattr(saddle_module, "_block_values", nan_on_blocks)
    report = run_experiment(parse_config(small_config(tmp_path, conf, n=8, k=8)), quiet=True)
    verdicts = {v.name: v for v in report.verdicts}
    assert verdicts["saddle_conditions"].status == "fail"
    assert "curvature nan ell^2" in verdicts["saddle_conditions"].reason
    assert "disturbance gain nan" in verdicts["saddle_conditions"].reason
    assert verdicts["equilibrium_stationarity"].status == "fail"
    assert "derivative nan" in verdicts["equilibrium_stationarity"].reason
    assert not report.passed


def test_run_lets_runtime_warnings_of_the_leader_synthesis_out(tmp_path, monkeypatch):
    import warnings

    import stackheat.runner as runner_module

    real = runner_module.hum_ladder

    def warning(*args, **kwargs):
        warnings.warn("overflow in the leader synthesis", RuntimeWarning)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_module, "hum_ladder", warning)
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
    # the hum stage certifies the eps-law step too, in the same batch
    assert [name for name, _ in report.stages] == ["saddle", "hum", "verify"]
    assert len(spent) == 1 and dict(report.stages)["verify"] >= spent[0]


def test_run_with_a_large_epsilon_solves_one_rung_and_skips_the_law(tmp_path):
    import dataclasses

    spec = parse_config(small_config(tmp_path, n=8, k=8))
    spec = dataclasses.replace(spec, hum=dataclasses.replace(spec.hum, epsilon=0.01))
    report = run_experiment(spec, quiet=True)
    law = {v.name: v for v in report.verdicts}["epsilon_law"]
    assert (law.status, law.reason) == ("skipped",
                                        "epsilon too large for a 100x comparison step")
    assert [name for name, _ in report.stages] == ["saddle", "hum", "verify"]
    assert report.passed


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


@pytest.mark.parametrize("command, written", [
    ("probe", ["verdicts.csv"]),
    ("converge", ["convergence.csv", "verdicts.csv"]),
    ("sweep-eps", ["verdicts.csv"]),
])
def test_probe_and_converge_report_a_stage_error_as_run_does(tmp_path, command, written):
    # no saddle point exists at ell = gamma = 0.05, so Picard refuses the
    # probe's adjoint solves, converge's oracle rungs and the sweep's
    # zero-leader solve; the error is a pipeline verdict, written with the
    # manifest of the files before it
    config = small_config(tmp_path, extra="[robust]\nell = 0.05\ngamma = 0.05")
    out = tmp_path / command
    assert main([command, config, "--out", str(out), "--quiet"]) == 1
    with open(out / "verdicts.csv") as fh:
        last = list(csv.DictReader(fh))[-1]
    assert (last["check"], last["status"]) == ("pipeline", "error")
    assert "not contracting" in last["reason"]
    with open(out / "manifest.csv") as fh:
        assert [row["file"] for row in csv.DictReader(fh)] == written


def test_run_without_verify_perturbations_does_not_pass(tmp_path, monkeypatch):
    # the verification draws no perturbation; a check along no stationarity
    # direction would test nothing, and still cannot pass
    from stackheat import saddle
    spec = parse_config(small_config(tmp_path, n=8, k=8))
    monkeypatch.setattr(saddle, "STATIONARITY_DIRECTIONS", 0)
    with pytest.raises(ValueError, match="at least one direction"):
        run_experiment(spec, out_dir=str(tmp_path / "bare"), quiet=True)


def test_run_rejects_a_spec_without_perturbations_before_any_stage(tmp_path):
    # the retired perturbation count is neither a spec field nor a config key:
    # the key is rejected before the output directory is made or a stage runs
    import dataclasses

    from stackheat.errors import ConfigError
    spec = parse_config(small_config(tmp_path, n=8, k=8))
    with pytest.raises(TypeError, match="verify_perturbations"):
        dataclasses.replace(spec, verify_perturbations=0)
    path = small_config(tmp_path, n=8, k=8, name="retired.ini")
    with open(path, "a", encoding="utf-8") as fh:
        fh.write("verify_perturbations = 100\n")
    with pytest.raises(ConfigError, match="unknown key 'verify_perturbations'"):
        run_experiment(parse_config(path), quiet=True)
    assert not os.path.exists(tmp_path / "out")


def test_march_overflow_reaches_the_partial_manifest(tmp_path):
    # a datum of 1e308 overflows in the march's transform; numpy's overflow
    # warning is silenced here so the march's own non-finite check is what fails
    import dataclasses

    import numpy as np
    spec = parse_config(small_config(tmp_path, n=8, k=8))
    huge = dataclasses.replace(spec.scenario, y0=np.full(8, 1e308))
    with np.errstate(over="ignore"):
        report = run_experiment(dataclasses.replace(spec, scenario=huge),
                                out_dir=str(tmp_path / "huge"), quiet=True)
    assert not report.passed
    assert [(v.name, v.status) for v in report.verdicts] == [("pipeline", "error")]
    assert "non-finite" in report.verdicts[0].reason
    assert os.path.exists(os.path.join(report.out_dir, "verdicts.csv"))
    assert os.path.exists(os.path.join(report.out_dir, "manifest.csv"))


def test_shipped_demo_configs_parse():
    here = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    for name in ("demo_a", "demo_b", "demo_c", "demo_d"):
        spec = parse_config(os.path.join(here, "configs", f"{name}.ini"))
        assert spec.scenario.grid.n_interior == 50


def test_no_command_imports_scipy(tmp_path):
    # a fresh interpreter: the other tests import scipy into this one
    demo = os.path.join(os.path.dirname(__file__), "..", "configs", "demo_b.ini")
    with open(demo, encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("n_interior = 50", "n_interior = 8").replace("n_steps = 50", "n_steps = 8")
    cfg = tmp_path / "demo_b8.ini"
    cfg.write_text(text, encoding="utf-8")
    script = (
        "import sys\n"
        "import stackheat\n"
        "from stackheat.cli import main\n"
        "codes = [main([cmd, sys.argv[1], '--out', sys.argv[2] + '/' + cmd, '--quiet'])\n"
        "         for cmd in ('run', 'sweep-eps', 'probe', 'converge')]\n"
        "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    src = os.path.dirname(os.path.dirname(stackheat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path)],
                         capture_output=True, text=True, env=env, check=True, timeout=300).stdout
    assert out.strip() == "[0, 0, 0, 0] []"
    for cmd in ("run", "sweep-eps", "probe", "converge"):
        assert os.path.exists(tmp_path / cmd / "manifest.csv")


def test_run_imports_neither_the_oracle_nor_difflib(tmp_path):
    # a fresh interpreter: only converge needs the dense oracle, and only a
    # configuration error the name suggestions of difflib
    demo = os.path.join(os.path.dirname(__file__), "..", "configs", "demo_a.ini")
    with open(demo, encoding="utf-8") as fh:
        text = fh.read()
    text = text.replace("n_interior = 50", "n_interior = 8").replace("n_steps = 50", "n_steps = 8")
    cfg = tmp_path / "demo_a8.ini"
    cfg.write_text(text, encoding="utf-8")
    script = (
        "import sys\n"
        "from stackheat.cli import main\n"
        "code = main(['run', sys.argv[1], '--out', sys.argv[2], '--quiet'])\n"
        "print(code, [m for m in ('stackheat.oracle', 'difflib') if m in sys.modules])\n")
    src = os.path.dirname(os.path.dirname(stackheat.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", script, str(cfg), str(tmp_path / "run")],
                         capture_output=True, text=True, env=env, check=True, timeout=300).stdout
    assert out.strip() == "0 []"
