"""Experiment orchestration: saddle solve, leader synthesis, verification, CSVs.

Every run writes RFC-4180 CSVs (LF endings, 17 significant digits) plus a
manifest with content hashes.  Timings are reported on stdout only, so the
emitted files are byte-identical across runs of the same config and seed.
"""

from __future__ import annotations

import dataclasses
import os
import time
from dataclasses import dataclass

import numpy as np

from .csvio import write_csv, write_field_csv, write_manifest, write_trace_csv
from .errors import ConfigError, StackheatError
from .grids import SpaceTimeField, SpatialGrid, TimeGrid
from .heat import solve_forward
from .hum import _OBSERVED_CUT, GramBasis, hum_ladder, observability_probe, target_admissibility
from .config import ExperimentSpec
from .products import l2_q
from .saddle import STATIONARITY_DIRECTIONS, solve_optimality, verify_saddle
from .scenario import ScenarioConfig
from .weights import rho_star_inv_sq, target_weight, target_weight_inv_sq


@dataclass
class Verdict:
    name: str
    status: str       # pass | fail | skipped | error
    reason: str
    value: float | None = None

    @property
    def ok(self) -> bool:
        return self.status in ("pass", "skipped")


@dataclass
class RunReport:
    out_dir: str
    stages: tuple = ()        # (name, seconds)
    verdicts: tuple = ()
    files: tuple = ()

    @property
    def passed(self) -> bool:
        return all(v.ok for v in self.verdicts)


class _Emitter:
    def __init__(self, out_dir: str, quiet: bool):
        self.out_dir = out_dir
        self.quiet = quiet
        self.written = []     # (name, sha256, size) of each file written, in order
        self.stages = []      # (name, seconds)
        os.makedirs(out_dir, exist_ok=True)

    def log(self, msg: str):
        if not self.quiet:
            print(msg)

    def write(self, writer, name: str, *args):
        """``writer(path of name, *args)``; the (sha256, size) it returns is listed once written."""
        self.written.append((name, *writer(os.path.join(self.out_dir, name), *args)))

    def timed(self, name: str, fn):
        """``fn()``, its wall time recorded and logged as stage ``name``."""
        t0 = time.perf_counter()
        out = fn()
        self.stages.append((name, time.perf_counter() - t0))
        self.log(f"[{name}] done in {self.stages[-1][1]:.2f} s")
        return out

    def collect(self, stages) -> RunReport:
        """Write the verdicts that ``stages`` yields, and the manifest; the command's report.

        A stage error (``StackheatError``) ends ``stages`` with a
        ``pipeline`` verdict of status error, after the verdicts and the
        files of the stages before it.
        """
        verdicts = []
        try:
            for verdict in stages:
                verdicts.append(verdict)
        except StackheatError as exc:
            verdicts.append(Verdict("pipeline", "error", str(exc)))
            self.log(f"[error] {exc}")
        return self.report(verdicts)

    def report(self, verdicts) -> RunReport:
        """Write ``verdicts.csv`` and the manifest; the command's report."""
        self.write(write_csv, "verdicts.csv", ["check", "status", "reason", "value"],
                   [[v.name, v.status, v.reason, "" if v.value is None else v.value]
                    for v in verdicts])
        write_manifest(self.out_dir, self.written)
        files = tuple(name for name, _, _ in self.written) + ("manifest.csv",)
        return RunReport(self.out_dir, tuple(self.stages), tuple(verdicts), files)


def _emit_saddle(em: _Emitter, cfg: ScenarioConfig, sol, prefix: str):
    em.write(write_field_csv, f"{prefix}_state.csv", sol.state, "y")
    for i, adj in enumerate(sol.adjoints, start=1):
        suffix = "" if len(sol.adjoints) == 1 else str(i)
        em.write(write_field_csv, f"{prefix}_adjoint{suffix}.csv", adj, "q")
    if cfg.configuration == "A":
        for side, tr in sol.follower.items():
            em.write(write_trace_csv, f"{prefix}_follower_{side}.csv", cfg.tgrid,
                     tr.values, "v")
    elif cfg.configuration == "B":
        em.write(write_field_csv, f"{prefix}_follower.csv", sol.follower, "v")
    elif cfg.configuration == "C":
        em.write(write_trace_csv, f"{prefix}_follower.csv", cfg.tgrid,
                 sol.follower.values, "v")
    else:
        for i, tr in enumerate(sol.follower, start=1):
            em.write(write_trace_csv, f"{prefix}_follower{i}.csv", cfg.tgrid,
                     tr.values, f"v{i}")
    if sol.disturbance is not None:
        em.write(write_field_csv, f"{prefix}_disturbance.csv", sol.disturbance, "psi")
    em.write(write_csv, f"{prefix}_summary.csv",
             ["configuration", "iterations", "exit_status", "relative_residual [1]",
              "contraction_ratio [1]", "functional_value [cost]",
              "follower_norm [control]", "disturbance_norm [control]"],
             [[cfg.configuration, sol.iterations, sol.exit_status, sol.residual,
               sol.contraction_ratio, sol.functional_value,
               _follower_norm(cfg, sol),
               0.0 if sol.disturbance is None
               else l2_q(sol.disturbance, sol.disturbance) ** 0.5]])


def _follower_norm(cfg: ScenarioConfig, sol) -> float:
    conf, f = cfg.configuration, sol.follower
    if conf == "B":
        return l2_q(f, f) ** 0.5
    traces = f.values() if conf == "A" else (f,) if conf == "C" else f
    return sum(float(np.sqrt(cfg.tgrid.dt * np.sum(tr.values ** 2))) for tr in traces)


def _emit_weights(em: _Emitter, cfg: ScenarioConfig):
    """``weights.csv``: the target weights (nan at T, where undefined) and rho_star^-2 (C/D)."""
    t, horizon = cfg.tgrid.times(), cfg.tgrid.horizon
    conf, eta = cfg.configuration, cfg.eta()
    live = t < horizon
    tw = np.full(len(t), np.nan)
    tw[live] = target_weight(conf, cfg.wspec, eta, t[live])
    twi = target_weight_inv_sq(conf, cfg.wspec, eta, np.minimum(t, horizon * (1 - 1e-12)))
    header = ["t [time]", "target_weight [1]", "target_weight_inv_sq [1]"]
    columns = [t, tw, twi]
    if conf in ("C", "D"):
        header.append("rho_star_inv_sq [1]")
        columns.append(rho_star_inv_sq(cfg.wspec, eta, t))
    em.write(write_csv, "weights.csv", header, np.column_stack(columns))


def _emit_leader(em: _Emitter, cfg: ScenarioConfig, leader):
    if isinstance(leader, SpaceTimeField):
        em.write(write_field_csv, "leader.csv", leader, "h")
    else:
        em.write(write_trace_csv, "leader.csv", cfg.tgrid, leader.values, "h")


# Accepted band of the terminal-residual ratio across a 100x epsilon step
# (square-root law nominal 10), in `run`'s epsilon_law and in `sweep-eps`'s.
def _obeys_eps_law(ratio: float) -> bool:
    return 3.0 <= ratio <= 30.0


def run_experiment(spec: ExperimentSpec, out_dir: str | None = None,
                   quiet: bool = False) -> RunReport:
    """Full pipeline: saddle solve at h = 0, HUM synthesis, verification.

    Each follower equilibrium is solved once: the zero-leader one by the
    saddle stage's ``GramBasis``, on which the hum stage certifies epsilon and
    the eps-law step 100 epsilon as one batch (``hum_ladder``), and the
    controlled one by the HUM certificate, which the verify stage checks.
    Any stage error aborts the remaining stages; the verdicts and the partial
    manifest are still written (``_Emitter.collect``).
    """
    em = _Emitter(out_dir or spec.out_dir, quiet)
    report = em.collect(_run_stages(spec, em))
    verdicts = report.verdicts
    em.log(f"verdicts: {'all ok' if report.passed else 'FAILURES'} "
           f"({sum(v.status == 'pass' for v in verdicts)} pass, "
           f"{sum(v.status == 'fail' for v in verdicts)} fail, "
           f"{sum(v.status == 'skipped' for v in verdicts)} skipped)")
    return report


def _run_stages(spec: ExperimentSpec, em: _Emitter):
    """``run``'s stages, writing their files; yields their verdicts."""
    cfg, robust, hum = spec.scenario, spec.robust, spec.hum
    # reference follower equilibrium for the zero leader
    basis = em.timed("saddle", lambda: GramBasis(cfg, robust))
    _emit_saddle(em, cfg, basis.free, "saddle")
    _emit_weights(em, cfg)

    adm = target_admissibility(cfg)
    if adm is None:
        yield Verdict("target_admissibility", "skipped", "zero target")
    else:
        yield Verdict(
            "target_admissibility", "pass" if adm.admissible else "fail",
            f"refinement ratios {tuple(round(r, 3) for r in adm.ratios)}")

    # hum's epsilon and the eps-law step 100x above it, certified as one batch
    # on the saddle stage's basis; a one-rung ladder skips the law
    rungs = [hum]
    if hum.epsilon * 100.0 < 0.5:
        rungs.append(dataclasses.replace(hum, epsilon=hum.epsilon * 100.0))
    res, *coarse = em.timed("hum", lambda: hum_ladder(cfg, robust, rungs, basis=basis))
    _emit_leader(em, cfg, res.leader)
    em.write(write_csv, "cg_trace.csv",
             ["iteration", "functional_value [cost]", "residual_norm [H10]"],
             list(res.trace))
    em.write(write_csv, "hum_summary.csv",
             ["epsilon [1]", "cg_iterations", "terminal_residual [Hminus1]",
              "internal_estimate [Hminus1]", "leader_norm_sq [control]",
              "functional_value [cost]"],
             [[res.epsilon, res.cg_iterations, res.terminal_residual_hminus1,
               res.internal_residual_estimate, res.leader_norm_sq,
               res.functional_value]])

    # verification of the full hierarchy at the certified equilibrium
    _emit_saddle(em, cfg, res.controlled, "controlled")
    rep = em.timed("verify", lambda: verify_saddle(
        cfg, res.controlled, res.leader, robust, seed=spec.seed + 1000))
    yield from _verify_verdicts(cfg, rep)

    scale = max(res.terminal_residual_hminus1, 1e-300)
    agree = abs(res.internal_residual_estimate - res.terminal_residual_hminus1) / scale
    yield Verdict(
        "residual_certificate", "pass" if agree <= 1e-8 else "fail",
        f"independent vs CG-internal relative gap {agree:.3g}",
        res.terminal_residual_hminus1)

    if not coarse:
        yield Verdict("epsilon_law", "skipped", "epsilon too large for a 100x comparison step")
    elif coarse[0].terminal_residual_hminus1 == 0.0 and res.terminal_residual_hminus1 == 0.0:
        yield Verdict("epsilon_law", "skipped", "terminal residual identically zero")
    else:
        ratio = coarse[0].terminal_residual_hminus1 / max(res.terminal_residual_hminus1, 1e-300)
        yield Verdict(
            "epsilon_law", "pass" if _obeys_eps_law(ratio) else "fail",
            f"residual ratio across a 100x epsilon step: {ratio:.3g} "
            "(square-root law nominal 10)", ratio)


def _verify_verdicts(cfg: ScenarioConfig, rep) -> list:
    """The verdicts of ``verify_saddle``'s report ``rep``: conditions, stationarity, concavity.

    ``{kind}_conditions`` holds when every player's first- and second-order
    rules hold, ``equilibrium_stationarity`` reports the first-order rule
    alone, and A/B's ``disturbance_concavity`` the certified bound of |G|^2
    against gamma^2.
    """
    kind = {"A": "saddle", "B": "saddle", "C": "minimality", "D": "nash"}[cfg.configuration]
    first = (f"max directional derivative {rep.max_directional_derivative:.3g} "
             f"(tolerance {rep.stationarity_tol:.3g})")
    second = ", ".join(
        f"{p.label} gain {p.curvature:.3g} (<= {rep.concavity.bound:.3g})" if p.maximizes
        else f"{p.label} curvature {p.curvature:.3g} ell^2 (>= 0)" for p in rep.players)
    verdicts = [
        Verdict(f"{kind}_conditions", "pass" if rep.conditions_hold else "fail",
                f"{first}; {second} over {STATIONARITY_DIRECTIONS} directions"
                + (f"; fails for {rep.offender}" if rep.offender else "")),
        Verdict("equilibrium_stationarity", "pass" if rep.stationary else "fail", first,
                rep.max_directional_derivative)]
    if rep.concavity is not None:
        value, bound, method, steps = rep.concavity
        how = ("closed bound" if method == "closed"
               else f"Lanczos bound ({steps} steps, Ritz value {value:.3g} <= |G|^2)")
        verdicts.append(Verdict("disturbance_concavity", "pass" if rep.concave else "fail",
                                f"|G|^2 <= {bound:.3g} by the {how}; gamma^2 = {rep.gamma2:.3g}",
                                bound))
    return verdicts


def _heat_ladder_rows(spec: ExperimentSpec, ladder):
    """Errors of the Crank-Nicolson solver against the separable solution."""
    rows = []
    errs, hs = [], []
    L = spec.recipe.length
    T = spec.recipe.horizon
    for n in ladder:
        grid = SpatialGrid(n, L)
        n_steps = max(2, round(T / grid.dx))
        tgrid = TimeGrid(n_steps, T)
        y = solve_forward(grid, tgrid, np.sin(np.pi * grid.interior_nodes() / L))
        x = grid.nodes()
        t = tgrid.times()
        exact = np.exp(-(np.pi / L) ** 2 * t)[:, None] * np.sin(np.pi * x / L)[None, :]
        err = float(np.max(np.abs(y.values - exact)))
        errs.append(err)
        hs.append(grid.dx)
        order = ""
        if len(errs) > 1:
            order = float(np.log(errs[-2] / errs[-1]) / np.log(hs[-2] / hs[-1]))
        rows.append([n, grid.dx, n_steps, err, order])
    return rows, errs, hs


def _oracle_rows(spec: ExperimentSpec, ladder):
    """Dense-vs-Picard discrepancy at every rung of at most 64 unknowns (n * K).

    When no ladder rung qualifies, the canonical tiny grids keep the oracle
    column populated.
    """
    from .oracle import dense_optimality_solve   # converge only: run imports no oracle

    rungs = [(n, n) for n in ladder if n * n <= 64]
    if not rungs:
        rungs = [(4, 4), (4, 16), (8, 8)]
    rows = []
    for n, k in rungs:
        cfg = spec.recipe.build(n, k)
        sol = solve_optimality(cfg, None, spec.robust)
        state, adjoints = dense_optimality_solve(cfg, None, spec.robust)
        scale = max(float(np.max(np.abs(state))), 1.0)
        disc = float(np.max(np.abs(sol.state.interior - state))) / scale
        for a_fp, a_d in zip(sol.adjoints, adjoints):
            disc = max(disc, float(np.max(np.abs(a_fp.interior - a_d))) / scale)
        rows.append([n, k, disc])
    return rows


def _sweep_eps(spec: ExperimentSpec, em: _Emitter) -> Verdict:
    """Solve the epsilon ladder (``hum_ladder``), write ``eps_sweep.csv``; the law's verdict."""
    rows, residuals = [], []
    rungs = [dataclasses.replace(spec.hum, epsilon=eps)
             for eps in sorted(spec.epsilon_ladder, reverse=True)]
    for res in hum_ladder(spec.scenario, spec.robust, rungs):
        residuals.append(res.terminal_residual_hminus1)
        ratio = "" if len(residuals) < 2 else residuals[-2] / max(residuals[-1], 1e-300)
        rows.append([res.epsilon, res.terminal_residual_hminus1,
                     res.internal_residual_estimate, res.cg_iterations,
                     res.leader_norm_sq, ratio])
        em.log(f"[eps-sweep] eps={res.epsilon:g}: residual {res.terminal_residual_hminus1:.4g}, "
               f"{res.cg_iterations} CG iterations")
    em.write(write_csv, "eps_sweep.csv",
             ["epsilon [1]", "terminal_residual [Hminus1]", "internal_estimate [Hminus1]",
              "cg_iterations", "leader_norm_sq [control]", "residual_ratio [1]"], rows)
    ratios = [a / max(b, 1e-300) for a, b in zip(residuals, residuals[1:])]
    if not ratios:
        return Verdict("epsilon_law", "skipped", "fewer than two rungs")
    return Verdict("epsilon_law", "pass" if all(map(_obeys_eps_law, ratios)) else "fail",
                   f"successive residual ratios {[round(r, 2) for r in ratios]}")


def _sweep_stage(spec: ExperimentSpec, em: _Emitter):
    """The ``eps-sweep`` stage of ``sweep-eps`` and ``converge``; yields its verdict."""
    yield em.timed("eps-sweep", lambda: _sweep_eps(spec, em))


def eps_sweep(spec: ExperimentSpec, out_dir: str | None = None,
              quiet: bool = False) -> RunReport:
    """Terminal-residual law across the configured epsilon ladder; errors as in ``run``."""
    em = _Emitter(out_dir or spec.out_dir, quiet)
    return em.collect(_sweep_stage(spec, em))


def convergence_study(spec: ExperimentSpec, out_dir: str | None = None,
                      quiet: bool = False) -> RunReport:
    """Heat-solver refinement ladder, tiny-grid oracle column and epsilon sweep.

    A stage error aborts the remaining stages, as in ``run_experiment``.
    """
    ladder = spec.ladder or (25, 50, 100)
    if len(ladder) < 3:
        raise ConfigError("convergence study needs a ladder of at least 3 grids")
    em = _Emitter(out_dir or spec.out_dir, quiet)
    report = em.collect(_convergence_stages(spec, em, ladder))
    em.log(f"convergence study: {'all ok' if report.passed else 'FAILURES'}")
    return report


def _convergence_stages(spec: ExperimentSpec, em: _Emitter, ladder):
    """``converge``'s stages, writing their files; yields their verdicts."""
    rows, errs, hs = em.timed("heat-ladder", lambda: _heat_ladder_rows(spec, ladder))
    em.write(write_csv, "convergence.csv",
             ["n_interior", "dx [space]", "n_steps", "max_error [state]",
              "observed_order [1]"], rows)
    order = float(np.polyfit(np.log(hs), np.log(errs), 1)[0])
    em.log(f"convergence study: order {order:.3f}")
    yield Verdict("heat_solver_order", "pass" if order >= 1.9 else "fail",
                  f"observed space-time order {order:.3f} over ladder {ladder}", order)

    orows = em.timed("oracle", lambda: _oracle_rows(spec, ladder))
    em.write(write_csv, "oracle.csv",
             ["n_interior", "n_steps", "dense_vs_fixed_point [relative]"], orows)
    worst = max(r[2] for r in orows)
    yield Verdict("oracle_equivalence", "pass" if worst <= 1e-10 else "fail",
                  f"max dense-solve discrepancy {worst:.3g}", worst)

    yield from _sweep_stage(spec, em)


def probe_run(spec: ExperimentSpec, out_dir: str | None = None,
              quiet: bool = False) -> RunReport:
    """Observability-ratio sampling for the configured scenario.

    A probe error is reported as in ``run_experiment``.
    """
    em = _Emitter(out_dir or spec.out_dir, quiet)
    return em.collect(_probe_stages(spec, em))


def _probe_stages(spec: ExperimentSpec, em: _Emitter):
    """``probe``'s stage, writing its files; yields its verdict."""
    rep = em.timed("probe", lambda: observability_probe(
        spec.scenario, spec.robust, n_samples=spec.probe_samples, seed=spec.seed))
    em.write(write_csv, "probe_ratios.csv", ["sample", "ratio [1]"],
             list(enumerate(rep.ratios)))
    em.write(write_csv, "probe_summary.csv",
             ["n_samples", "skipped", "min_ratio [1]", "median_ratio [1]",
              "max_ratio [1]", "refined_max [1]", "observed_cut [1]", "argmax_sample"],
             [[rep.n_samples, rep.skipped, rep.min_ratio, rep.median_ratio,
               rep.max_ratio, rep.refined_max, _OBSERVED_CUT, rep.argmax_sample]])
    em.write(write_csv, "probe_spectrum.csv",
             ["mode", "relative_eigenvalue [1]", "pencil_max [1]", "above_cut"],
             [[k, rel, pencil, int(above)]
              for k, (rel, pencil, above) in enumerate(rep.spectrum, start=1)])
    em.log(f"probe: {rep.n_samples} samples, max ratio {rep.max_ratio:.4g}")
    yield Verdict("probe_finite", "pass" if np.isfinite(rep.max_ratio) else "fail",
                  f"max ratio {rep.max_ratio:.4g}, refined {rep.refined_max:.4g}", rep.max_ratio)
