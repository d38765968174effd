"""Timings of the modal Picard sweep's parts at n = K = 50, with pytest-benchmark.

Run with ``python -m pytest tests/bench_modal.py``; the tier-1 run does not
collect this file (it is not named ``test_*``).  It times one modal march
(``heat._modal_levels``) of width 1 and of width 25, one Gram image
(``hum._gram``) per demo configuration and one width-25 block of adjoint
pairs (``hum._adjoint_pairs``) on demos A and B, the block the probe solves
at this grid.  Each Gram image stores in ``extra_info`` its
``_modal_levels`` calls (``modal_levels_calls``) and the batch shape of each
(``modal_levels_batches``, in call order), which repeat exactly: its adjoint
pair and equilibrium march as the two columns of one Picard loop, so demo A
makes 13 marches (ten of width 2, then three of width 1), B 8 (all of width
2), C 4 (two of width 2, then two of width 1) and D 4 (the live fields
[phi, p_1, p_2] and [theta_1, y, theta_2], then the equilibrium's [p_1, p_2]
and [y]: widths 3, 3, 2 and 1), where the pair solve and then the
equilibrium solve made 22, 18, 7 and 7 marches.  It also times demo A's ladder of Galerkin solves
(``hum.GramBasis.galerkin`` for k = 1 ... kmax and each eps of the config's
ladder, on a basis that has solved nothing yet), where kmax is the most
vectors a rung of ``sweep-eps`` uses.  Last, it times ``verify_saddle`` on
each demo's zero-leader equilibrium with 100 perturbations, the check
``run`` makes, and stores in ``extra_info`` two counts of one warm call:
its minor page faults (``minor_faults``, the ``ru_minflt`` delta of
``getrusage``, on Linux only) and its ``tracemalloc`` peak in bytes
(``tracemalloc_peak_bytes``).  Pin the BLAS threads
(``OPENBLAS_NUM_THREADS=1``) to compare runs.
"""

import copy
import dataclasses
import os
import sys
import tracemalloc

import numpy as np
import pytest

from stackheat import heat, hum, saddle
from stackheat.config import parse_config
from stackheat.grids import LEFT, RIGHT

N = 50
WIDTH = 25
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _problem(demo):
    spec = parse_config(os.path.join(ROOT, "configs", f"demo_{demo}.ini"))
    prob = saddle.build_problem(spec.recipe.build(N, N), spec.robust)
    prob.modal   # built once, outside the timing
    return prob


@pytest.mark.parametrize("width", [1, WIDTH])
def test_modal_levels(benchmark, width):
    prob = _problem("a")
    rng = np.random.default_rng(0)
    klev = prob.cfg.tgrid.n_levels
    datum = rng.standard_normal((width, N))
    source = rng.standard_normal((width, klev, N))
    edges = {LEFT: rng.standard_normal((width, klev)), RIGHT: rng.standard_normal((width, klev))}
    plan = prob.modal.plan
    benchmark(lambda: heat._modal_levels(plan.work((width,)), datum, source, edges))


@pytest.mark.parametrize("demo", "abcd")
def test_gram_image(benchmark, demo, monkeypatch):
    prob = _problem(demo)
    datum = np.random.default_rng(1).standard_normal(N)
    batches = []
    real = heat._modal_levels

    def counted(wk, *args, **kwargs):
        batches.append(list(wk.w_columns.shape[:-2]))
        return real(wk, *args, **kwargs)

    with monkeypatch.context() as patched:
        patched.setattr(saddle, "_modal_levels", counted)
        hum._gram(prob, datum)
    benchmark.extra_info["modal_levels_calls"] = len(batches)
    benchmark.extra_info["modal_levels_batches"] = batches
    benchmark(hum._gram, prob, datum)


@pytest.mark.parametrize("demo", "ab")
def test_adjoint_pair_block(benchmark, demo):
    prob = _problem(demo)
    data = np.random.default_rng(2).standard_normal((WIDTH, N))
    benchmark(hum._adjoint_pairs, prob, data)


def test_galerkin_ladder(benchmark):
    spec = parse_config(os.path.join(ROOT, "configs", "demo_a.ini"))
    cfg = spec.recipe.build(N, N)
    grown = hum.GramBasis(cfg, spec.robust)
    rungs = [dataclasses.replace(spec.hum, epsilon=eps) for eps in spec.epsilon_ladder]
    for settings in rungs:
        hum._galerkin_iteration(grown, settings)
    kmax = len(grown)
    fresh = hum.GramBasis(cfg, spec.robust)
    while len(fresh) < kmax:
        fresh.extend()

    def ladder(basis):
        for eps in spec.epsilon_ladder:
            for k in range(1, kmax + 1):
                basis.galerkin(k, eps)

    benchmark.pedantic(ladder, setup=lambda: ((copy.deepcopy(fresh),), {}), rounds=200)


@pytest.mark.parametrize("demo", "abcd")
def test_verify_saddle(benchmark, demo):
    spec = parse_config(os.path.join(ROOT, "configs", f"demo_{demo}.ini"))
    cfg = spec.recipe.build(N, N)
    sol = saddle.solve_optimality(cfg, None, spec.robust)

    def call():
        return saddle.verify_saddle(cfg, sol, None, spec.robust, seed=0)

    call()   # the grid pair's march plan and its buffers exist from here on
    if sys.platform.startswith("linux"):
        import resource
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        call()
        benchmark.extra_info["minor_faults"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    tracemalloc.start()
    try:
        call()
        benchmark.extra_info["tracemalloc_peak_bytes"] = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    benchmark(call)
