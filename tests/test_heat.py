"""Heat solver: oracles, duality, stability and accuracy."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

from stackheat import heat
from stackheat.errors import GridMismatchError, NonFiniteError
from stackheat.grids import LEFT, RIGHT, BoundaryTrace, SpaceTimeField, SpatialGrid, TimeGrid
from stackheat.heat import (favg, modal_march, modal_march_backward, normal_derivative_o1,
                            solve_backward, solve_forward)

import _modal_reference
from _gtsv import march, march_backward

# each (forward, backward) pair of raw marches: the gtsv reference and the modal one
MARCHES = pytest.mark.parametrize("marches", [(march, march_backward),
                                              (modal_march, modal_march_backward)],
                                  ids=["gtsv", "modal"])


def make_grids(n=20, k=20, length=1.0, horizon=0.5):
    return SpatialGrid(n, length), TimeGrid(k, horizon)


def separable_solution(grid, tgrid):
    """Closed-form y = exp(-pi^2 t) sin(pi x) on (0,1), homogeneous Dirichlet."""
    x = grid.nodes()
    t = tgrid.times()
    return np.exp(-np.pi ** 2 * t)[:, None] * np.sin(np.pi * x)[None, :]


def test_zero_data_gives_zero_field():
    grid, tgrid = make_grids()
    y = solve_forward(grid, tgrid, np.zeros(grid.n_interior))
    assert np.all(y.values == 0.0)
    q = solve_backward(grid, tgrid, np.zeros(grid.n_interior))
    assert np.all(q.values == 0.0)


def test_linear_steady_state_is_exact():
    grid, tgrid = make_grids(n=17, k=9)
    x = grid.nodes()
    right = BoundaryTrace(tgrid, RIGHT, np.ones(tgrid.n_levels))
    y = solve_forward(grid, tgrid, x[1:-1], right=right)
    exact = np.broadcast_to(x, y.values.shape)
    assert np.max(np.abs(y.values - exact)) < 1e-13


@pytest.mark.parametrize("n", [25, 50, 100])
def test_separable_oracle_error_small(n):
    grid = SpatialGrid(n)
    tgrid = TimeGrid(max(2, round(0.5 / grid.dx)), 0.5)
    y = solve_forward(grid, tgrid, np.sin(np.pi * grid.interior_nodes()))
    err = np.max(np.abs(y.values - separable_solution(grid, tgrid)))
    assert err < 5.0 / n ** 2


def test_crank_nicolson_order_at_least_1_9():
    errs, hs = [], []
    for n in (25, 50, 100):
        grid = SpatialGrid(n)
        tgrid = TimeGrid(max(2, round(0.5 / grid.dx)), 0.5)
        y = solve_forward(grid, tgrid, np.sin(np.pi * grid.interior_nodes()))
        errs.append(np.max(np.abs(y.values - separable_solution(grid, tgrid))))
        hs.append(grid.dx)
    order = np.polyfit(np.log(hs), np.log(errs), 1)[0]
    assert order >= 1.9


def test_backward_is_time_reversed_forward():
    rng = np.random.default_rng(3)
    grid, tgrid = make_grids(n=13, k=11)
    src = SpaceTimeField(grid, tgrid, rng.standard_normal((tgrid.n_levels, grid.n_nodes)))
    left = BoundaryTrace(tgrid, LEFT, rng.standard_normal(tgrid.n_levels))
    datum = rng.standard_normal(grid.n_interior)

    q = solve_backward(grid, tgrid, datum, source=src, left=left)
    src_rev = SpaceTimeField(grid, tgrid, src.values[::-1])
    left_rev = BoundaryTrace(tgrid, LEFT, left.values[::-1])
    y = solve_forward(grid, tgrid, datum, source=src_rev, left=left_rev)
    assert np.array_equal(q.values, y.values[::-1])
    assert np.array_equal(q.values[-1][1:-1], datum)


def test_backward_separable_oracle():
    grid = SpatialGrid(60)
    tgrid = TimeGrid(60, 0.5)
    q = solve_backward(grid, tgrid, np.sin(np.pi * grid.interior_nodes()))
    t = tgrid.times()
    exact = np.exp(-np.pi ** 2 * (tgrid.horizon - t))[:, None] * np.sin(np.pi * grid.nodes())
    assert np.max(np.abs(q.values - exact)) < 2e-3


def test_discrete_summation_by_parts_identity():
    """Exact duality of the Crank-Nicolson scheme, boundary-in-time terms included."""
    rng = np.random.default_rng(7)
    grid, tgrid = make_grids(n=9, k=8, horizon=0.3)
    dt, dx = tgrid.dt, grid.dx

    def rnd_field():
        return SpaceTimeField(grid, tgrid, rng.standard_normal((tgrid.n_levels, grid.n_nodes)))

    def rnd_trace(side):
        return BoundaryTrace(tgrid, side, rng.standard_normal(tgrid.n_levels))

    f, g = rnd_field(), rnd_field()
    gl, gr = rnd_trace(LEFT), rnd_trace(RIGHT)
    hl, hr = rnd_trace(LEFT), rnd_trace(RIGHT)
    y0 = rng.standard_normal(grid.n_interior)
    qT = rng.standard_normal(grid.n_interior)

    y = solve_forward(grid, tgrid, y0, source=f, left=gl, right=gr)
    q = solve_backward(grid, tgrid, qT, source=g, left=hl, right=hr)
    yi, qi = y.interior, q.interior

    lhs = dx * (qi[-1] @ yi[-1] - qi[0] @ yi[0])
    forward_terms = dt * dx * np.sum(favg(f.interior) * favg(qi))
    forward_terms += (dt / dx) * np.sum(favg(gl.values) * favg(qi[:, 0]))
    forward_terms += (dt / dx) * np.sum(favg(gr.values) * favg(qi[:, -1]))
    backward_terms = dt * dx * np.sum(favg(g.interior) * favg(yi))
    backward_terms += (dt / dx) * np.sum(favg(hl.values) * favg(yi[:, 0]))
    backward_terms += (dt / dx) * np.sum(favg(hr.values) * favg(yi[:, -1]))
    rhs = forward_terms - backward_terms
    assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs), 1.0)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10 ** 6))
def test_superposition(seed):
    rng = np.random.default_rng(seed)
    grid, tgrid = make_grids(n=7, k=6)
    shape = (tgrid.n_levels, grid.n_nodes)
    f1 = SpaceTimeField(grid, tgrid, rng.standard_normal(shape))
    f2 = SpaceTimeField(grid, tgrid, rng.standard_normal(shape))
    a0 = rng.standard_normal(grid.n_interior)
    b0 = rng.standard_normal(grid.n_interior)
    tr = BoundaryTrace(tgrid, LEFT, rng.standard_normal(tgrid.n_levels))

    ya = solve_forward(grid, tgrid, a0, source=f1, left=tr)
    yb = solve_forward(grid, tgrid, b0, source=f2)
    fsum = SpaceTimeField(grid, tgrid, f1.values + f2.values)
    ysum = solve_forward(grid, tgrid, a0 + b0, source=fsum, left=tr)
    assert np.allclose(ysum.interior, ya.interior + yb.interior,
                       rtol=1e-12, atol=1e-12)


def test_normal_derivative_o1_sign_convention():
    grid, tgrid = make_grids(n=10, k=3)
    f = SpaceTimeField.from_function(grid, tgrid, lambda x, t: np.sin(np.pi * x))
    dn_left = normal_derivative_o1(f.interior, grid, LEFT)
    dn_right = normal_derivative_o1(f.interior, grid, RIGHT)
    assert np.all(dn_left < 0) and np.all(dn_right < 0)


@MARCHES
def test_march_of_an_empty_batch_is_empty(marches):
    # gtsv handed zero right-hand sides corrupts the heap, so march must not call it
    grid, tgrid = make_grids(n=10, k=3)
    for solver in marches:
        y = solver(grid, tgrid, np.zeros((0, grid.n_interior)))
        assert y.shape == (0, tgrid.n_levels, grid.n_interior)


def test_normal_derivative_o1_reads_the_space_axis_of_a_batch():
    grid, tgrid = make_grids(n=10, k=3)
    u = np.random.default_rng(0).standard_normal((2, tgrid.n_levels, grid.n_interior))
    for side in (LEFT, RIGHT):
        dn = normal_derivative_o1(u, grid, side)
        assert dn.shape == (2, tgrid.n_levels)
        for j in range(2):
            column = u[j]
            assert np.array_equal(dn[j], normal_derivative_o1(column, grid, side))
            assert np.array_equal(dn[j, -1], normal_derivative_o1(column[-1], grid, side))


def test_input_validation():
    grid, tgrid = make_grids()
    other = TimeGrid(7, 0.5)
    with pytest.raises(GridMismatchError):
        solve_forward(grid, tgrid, np.zeros(5))
    with pytest.raises(GridMismatchError):
        bad = SpaceTimeField.zeros(grid, other)
        solve_forward(grid, tgrid, np.zeros(grid.n_interior), source=bad)
    with pytest.raises(ValueError):
        y0 = np.zeros(grid.n_interior)
        y0[0] = np.nan
        solve_forward(grid, tgrid, y0)


def test_nonfinite_rejected_in_field():
    grid, tgrid = make_grids(n=4, k=3)
    vals = np.zeros((tgrid.n_levels, grid.n_nodes))
    vals[1, 1] = np.inf
    with pytest.raises(ValueError):
        SpaceTimeField(grid, tgrid, vals)


# --- raw marches against a per-step solve_banded reference ---------------------

def reference_march(grid, tgrid, y0, source, left, right, theta):
    """The theta scheme written out step by step with scipy's banded solver."""
    n, dt, dx = grid.n_interior, tgrid.dt, grid.dx
    r = theta * dt / dx ** 2
    ab = np.zeros((3, n))
    ab[0, 1:] = -r
    ab[1, :] = 1.0 + 2.0 * r
    ab[2, :-1] = -r
    re = (1.0 - theta) * dt / dx ** 2
    scale = dt / dx ** 2
    y = np.empty((tgrid.n_levels, n))
    y[0] = y0
    for k in range(tgrid.n_steps):
        rhs = (1.0 - 2.0 * re) * y[k]
        rhs[1:] += re * y[k][:-1]
        rhs[:-1] += re * y[k][1:]
        rhs = rhs + dt * (theta * source[k + 1] + (1.0 - theta) * source[k])
        rhs[0] += scale * (theta * left[k + 1] + (1.0 - theta) * left[k])
        rhs[-1] += scale * (theta * right[k + 1] + (1.0 - theta) * right[k])
        y[k + 1] = solve_banded((1, 1), ab, rhs)
    return y


def random_march_data(rng, grid, tgrid, batch=()):
    klev, n = tgrid.n_levels, grid.n_interior
    return (rng.standard_normal(batch + (n,)), rng.standard_normal(batch + (klev, n)),
            rng.standard_normal(batch + (klev,)), rng.standard_normal(batch + (klev,)))


@pytest.mark.parametrize("n", [2, 3, 50])
def test_march_matches_banded_reference_bitwise(n):
    rng = np.random.default_rng(n)
    grid, tgrid = make_grids(n=n, k=7)
    y0, src, left, right = random_march_data(rng, grid, tgrid)
    y = march(grid, tgrid, y0, src, left, right)
    assert np.array_equal(y, reference_march(grid, tgrid, y0, src, left, right, 0.5))
    q = march_backward(grid, tgrid, y0, src, left, right)
    q_ref = reference_march(grid, tgrid, y0, src[::-1], left[::-1], right[::-1], 0.5)[::-1]
    assert np.array_equal(q, q_ref)


@MARCHES
def test_batched_march_columns_equal_single_marches(marches):
    rng = np.random.default_rng(5)
    grid, tgrid = make_grids(n=9, k=6)
    y0, src, left, right = random_march_data(rng, grid, tgrid, batch=(4,))
    for solver in marches:
        ys = solver(grid, tgrid, y0, src, left, right)
        assert ys.shape == (4, tgrid.n_levels, grid.n_interior)
        for j in range(4):
            single = solver(grid, tgrid, y0[j], src[j], left[j], right[j])
            assert np.array_equal(ys[j], single)
            assert ys[j].flags.c_contiguous
    # inputs without the batch axis are shared by every column
    forward = marches[0]
    ys = forward(grid, tgrid, y0[0], src, left[0], right)
    for j in range(4):
        single = forward(grid, tgrid, y0[0], src[j], left[0], right[j])
        assert np.array_equal(ys[j], single)


@MARCHES
def test_march_rejects_nonfinite_source(marches):
    grid, tgrid = make_grids(n=6, k=5)
    src = np.zeros((tgrid.n_levels, grid.n_interior))
    src[2, 3] = np.nan
    for solver in marches:
        with pytest.raises(ValueError):
            solver(grid, tgrid, np.zeros(grid.n_interior), src)


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 64), k=st.integers(2, 64), width=st.integers(0, 4),
       present=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       seed=st.integers(0, 10 ** 6))
def test_modal_march_agrees_with_gtsv(n, k, width, present, seed):
    rng = np.random.default_rng(seed)
    grid, tgrid = make_grids(n=n, k=k)
    y0, *forcing = random_march_data(rng, grid, tgrid, batch=(width,))
    forcing = [f if p else None for f, p in zip(forcing, present)]
    y = modal_march(grid, tgrid, y0, *forcing)
    ref = march(grid, tgrid, y0, *forcing)
    assert y.shape == ref.shape
    assert np.max(np.abs(y - ref), initial=0.0) <= 1e-12 * np.max(np.abs(ref), initial=0.0)
    assert np.array_equal(y[:, 0], y0)
    # the backward march is the forward one on reversed data, exactly
    reversed_forcing = [None if f is None else np.flip(f, axis=1) for f in forcing]
    q = modal_march_backward(grid, tgrid, y0, *reversed_forcing)
    assert np.array_equal(q, y[:, ::-1])
    assert np.array_equal(q[:, -1], y0)


# --- the modal march against its fresh-array reference, bit for bit -----------

# every present/absent combination of (source, left, right)
PRESENCE = list(itertools.product((False, True), repeat=3))


def assert_equals_reference(grid, tgrid, y0, forcing):
    """Forward and backward march of the data equal the reference march's bits."""
    for new, ref in ((modal_march, _modal_reference.modal_march),
                     (modal_march_backward, _modal_reference.modal_march_backward)):
        got, want = new(grid, tgrid, y0, *forcing), ref(grid, tgrid, y0, *forcing)
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=80, deadline=None)
@given(n=st.integers(2, 64), k=st.integers(2, 64), width=st.one_of(st.none(), st.integers(0, 4)),
       present=st.tuples(st.booleans(), st.booleans(), st.booleans()),
       shared_y0=st.booleans(), seed=st.integers(0, 10 ** 6))
def test_modal_march_equals_its_reference_bit_for_bit(n, k, width, present, shared_y0, seed):
    # width None: inputs without batch axes; shared_y0: one datum for every column
    rng = np.random.default_rng(seed)
    grid, tgrid = make_grids(n=n, k=k)
    y0, *forcing = random_march_data(rng, grid, tgrid, batch=() if width is None else (width,))
    if shared_y0:
        y0 = rng.standard_normal(grid.n_interior)
    assert_equals_reference(grid, tgrid, y0,
                            [f if p else None for f, p in zip(forcing, present)])


@pytest.mark.parametrize("present", PRESENCE)
def test_a_width_25_march_equals_its_reference_bit_for_bit(present):
    rng = np.random.default_rng(25)
    grid, tgrid = make_grids(n=50, k=50)
    y0, *forcing = random_march_data(rng, grid, tgrid, batch=(25,))
    assert_equals_reference(grid, tgrid, y0,
                            [f if p else None for f, p in zip(forcing, present)])


# --- the plan's reused work buffers cannot leak into a result -----------------

def test_a_march_result_is_unchanged_by_later_marches_on_any_grid():
    rng = np.random.default_rng(11)
    grid, tgrid = make_grids(n=12, k=9)
    data = random_march_data(rng, grid, tgrid, batch=(3,))
    results = [modal_march(grid, tgrid, *data), modal_march_backward(grid, tgrid, *data)]
    kept = [r.copy() for r in results]
    plan = heat._plan(grid, tgrid)
    for r in results:
        assert not np.shares_memory(r, plan.z) and not np.shares_memory(r, plan.w)
    for g, t in ((grid, tgrid), make_grids(n=7, k=5)):
        for width in (1, 5, 2):
            later = random_march_data(rng, g, t, batch=(width,))
            modal_march(g, t, *later)
            modal_march_backward(g, t, *later)
    for r, k in zip(results, kept):
        assert np.array_equal(r, k)


@pytest.mark.parametrize("present", PRESENCE)
def test_a_march_after_a_non_finite_one_equals_the_reference(present):
    rng = np.random.default_rng(13)
    grid, tgrid = make_grids(n=9, k=6)
    y0, src, left, right = random_march_data(rng, grid, tgrid, batch=(2,))
    bad = src.copy()
    bad[1, 3, 4] = np.nan
    for solver in (modal_march_backward, modal_march):
        with pytest.raises(NonFiniteError):
            solver(grid, tgrid, y0, bad, left, right)
    assert_equals_reference(grid, tgrid, y0,
                            [f if p else None for f, p in zip((src, left, right), present)])


def test_the_plan_keeps_one_buffer_pair_sized_for_the_widest_batch():
    rng = np.random.default_rng(17)
    grid, tgrid = SpatialGrid(23, 2.0), TimeGrid(19, 0.75)
    heat._plan.cache_clear()
    for width in range(1, 26):
        modal_march(grid, tgrid, *random_march_data(rng, grid, tgrid, batch=(width,)))
    plan = heat._plan(grid, tgrid)
    size = 25 * tgrid.n_levels * grid.n_interior
    assert plan.z.shape == plan.w.shape == (size,)
    z, w = plan.z, plan.w
    # a narrower batch marches in the pair's leading part, and every cached
    # view is a view of the pair
    data = random_march_data(rng, grid, tgrid, batch=(4,))
    assert np.array_equal(modal_march(grid, tgrid, *data),
                          _modal_reference.modal_march(grid, tgrid, *data))
    assert plan.z is z and plan.w is w
    for views in plan._views.values():
        for v in views[:4]:
            assert v.base is z or v.base is w


def test_an_unsourced_march_after_a_sourced_one_equals_the_reference():
    rng = np.random.default_rng(19)
    grid, tgrid = make_grids(n=14, k=10)
    y0, src, left, right = random_march_data(rng, grid, tgrid, batch=(3,))
    for solver, ref in ((modal_march, _modal_reference.modal_march),
                        (modal_march_backward, _modal_reference.modal_march_backward)):
        for forcing in ((None, None, None), (None, left, None), (None, None, right)):
            solver(grid, tgrid, y0, src, left, right)
            assert np.array_equal(solver(grid, tgrid, y0, *forcing),
                                  ref(grid, tgrid, y0, *forcing))
