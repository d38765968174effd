"""CSV emission: the ndarray rows and the per-value rows print the same bytes."""

import os

import numpy as np

from stackheat.config import parse_config
from stackheat.csvio import write_csv
from stackheat.runner import _Emitter, _emit_weights
from stackheat.weights import rho_star_inv_sq, target_weight, target_weight_inv_sq

_SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e20, -1e20, np.nan, np.inf, -np.inf,
            0.1, 1.0 / 3.0, 123456789.0, 2.0 ** 53 + 2.0]


def _per_value(tmp_path, header, rows):
    """The bytes of the list-of-rows path (``fmt`` on every value)."""
    path = tmp_path / "per_value.csv"
    write_csv(str(path), header, [list(row) for row in rows])
    return path.read_bytes()


def test_ndarray_rows_print_the_bytes_of_the_per_value_path(tmp_path):
    rng = np.random.default_rng(0)
    rows = rng.standard_normal((40, 7)) * 10.0 ** rng.integers(-300, 300, (40, 7))
    rows.flat[:len(_SPECIAL)] = _SPECIAL
    header = ["t [time]"] + [f"u(x={k}) [state]" for k in range(6)]
    write_csv(str(tmp_path / "array.csv"), header, rows)
    got = (tmp_path / "array.csv").read_bytes()
    assert got == _per_value(tmp_path, header, rows)
    for text in (b"nan", b"inf", b"-inf", b"-0,", b"4.9406564584124654e-324"):
        assert text in got


def test_one_column_and_empty_arrays(tmp_path):
    for rows in (np.array(_SPECIAL)[:, None], np.empty((0, 3))):
        header = [f"c{k}" for k in range(rows.shape[1])]
        write_csv(str(tmp_path / "array.csv"), header, rows)
        assert (tmp_path / "array.csv").read_bytes() == _per_value(tmp_path, header, rows)


def test_weights_csv_equals_a_per_level_scalar_evaluation(tmp_path):
    # demo C at n = K = 8: nan target weight at T, rho_star^-2 exactly 0 where
    # it underflows
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    cfg = parse_config(os.path.join(root, "configs", "demo_c.ini")).recipe.build(8, 8)
    _emit_weights(_Emitter(str(tmp_path / "out"), quiet=True), cfg)
    T, eta = cfg.tgrid.horizon, cfg.eta()
    rows = [[t,
             target_weight("C", cfg.wspec, eta, t) if t < T else float("nan"),
             target_weight_inv_sq("C", cfg.wspec, eta, min(t, T * (1 - 1e-12))),
             rho_star_inv_sq(cfg.wspec, eta, t)]
            for t in cfg.tgrid.times()]
    header = ["t [time]", "target_weight [1]", "target_weight_inv_sq [1]",
              "rho_star_inv_sq [1]"]
    got = (tmp_path / "out" / "weights.csv").read_bytes()
    assert got == _per_value(tmp_path, header, rows)
    assert np.isnan(rows[-1][1])
    assert any(row[3] == 0.0 for row in rows[1:-1])   # underflow, not only t in {0, T}
