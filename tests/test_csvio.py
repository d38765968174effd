"""CSV emission: the ndarray rows and the per-value rows print the same bytes."""

import csv
import dataclasses
import decimal
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stackheat import csvio
from stackheat import runner as runner_module
from stackheat.config import parse_config
from stackheat.csvio import write_csv
from stackheat.hum import GramBasis
from stackheat.runner import (_Emitter, _emit_weights, convergence_study, eps_sweep,
                              probe_run, run_experiment)
from stackheat.weights import rho_star_inv_sq, target_weight, target_weight_inv_sq

from _instruments import reference_write_csv, sha256_of

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

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


def _array_and_per_value(directory, rows):
    """(bytes of ``rows`` written as an ndarray, bytes of the same rows written value by value)."""
    header = [f"c{k}" for k in range(rows.shape[1])]
    array, per_value = os.path.join(directory, "array.csv"), os.path.join(directory, "rows.csv")
    write_csv(array, header, rows)
    write_csv(per_value, header, [list(row) for row in rows])
    with open(array, "rb") as a, open(per_value, "rb") as b:
        return a.read(), b.read()


_BIT_PATTERNS = st.integers(0, 2 ** 64 - 1).map(
    lambda bits: float(np.array(bits, dtype=np.uint64).view(np.float64)))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(_BIT_PATTERNS, st.floats()), min_size=1, max_size=24),
       st.integers(1, 4))
def test_any_float64_prints_as_fmt_prints_it(values, ncols):
    # any bit pattern: subnormals, +-0, nan payloads and +-inf included
    rows = np.resize(np.array(values), (-(-len(values) // ncols)) * ncols).reshape(-1, ncols)
    with tempfile.TemporaryDirectory() as directory:
        got, want = _array_and_per_value(directory, rows)
    assert got == want


def test_powers_of_ten_their_neighbours_and_the_extremes(tmp_path, monkeypatch):
    values = []
    for k in range(-323, 309):
        power = float(f"1e{k}")
        values += [np.nextafter(power, 0.0), power, np.nextafter(power, np.inf)]
    # 9.9999999999999997e-278 sits just below a power of ten: its exponent is
    # one less than log10's rounded floor, and its digits round up to 1e16
    values += [9.9999999999999997e-278, 5e-324, 1.7976931348623157e308, 0.5, 0.25, 1e16,
               1e17, 99999999999999999.0, 12345678901234567.0, 0.0001, 0.00012345, 1e-5]
    rows = np.array(values + [-v for v in values])[:, None]
    got, want = _array_and_per_value(tmp_path, rows)
    assert got == want
    lines = got.splitlines()[1:]
    assert b"9.9999999999999997e-278" in lines and b"-1.7976931348623157e+308" in lines
    # only the values outside the table's safe range and the exact ties go
    # through fmt: a power of ten's neighbours keep to the vector path
    calls = []
    monkeypatch.setattr(csvio, "fmt", lambda v: calls.append(v) or f"{v:.17g}")
    assert csvio._format_rows(rows) == got[got.index(b"\n") + 1:]
    assert calls == [v for v in rows[:, 0].tolist() if not 1e-280 < abs(v) < 1e290 or _tie(v)]
    assert sum(map(_tie, calls)) == 2   # -+999999999999999.875


def _tie(value: float) -> bool:
    """Whether ``value``'s exact decimal expansion lies halfway between two 17-digit ones."""
    with decimal.localcontext() as ctx:
        ctx.prec = 800
        d = abs(decimal.Decimal(value))
        scaled = d.scaleb(16 - d.adjusted())
        return scaled - scaled.to_integral_value(decimal.ROUND_FLOOR) == decimal.Decimal("0.5")


def test_all_zero_and_all_negative_zero_arrays(tmp_path):
    for zero, text in ((0.0, b"0"), (-0.0, b"-0")):
        rows = np.full((51, 52), zero)
        got, want = _array_and_per_value(tmp_path, rows)
        assert got == want
        assert got.splitlines()[1] == b",".join([text] * 52)


def _demo_spec(conf, n):
    spec = parse_config(os.path.join(ROOT, "configs", f"demo_{conf}.ini"))
    return dataclasses.replace(spec, scenario=spec.recipe.build(n, n))


def test_run_outputs_equal_the_per_row_writer_byte_for_byte(tmp_path, monkeypatch):
    # run A-D at n = 12: every file, the manifest included, equals what the
    # per-row %-format writer prints; the manifest's hashes, taken from the
    # bytes written, equal the files' own
    for conf in "abcd":
        spec = _demo_spec(conf, 12)
        new = run_experiment(spec, out_dir=str(tmp_path / f"{conf}_new"), quiet=True)
        with monkeypatch.context() as patch:
            patch.setattr(csvio, "write_csv", reference_write_csv)
            patch.setattr(runner_module, "write_csv", reference_write_csv)
            old = run_experiment(spec, out_dir=str(tmp_path / f"{conf}_old"), quiet=True)
        assert new.files == old.files and "leader.csv" in new.files
        for name in new.files:
            with open(os.path.join(new.out_dir, name), "rb") as a, \
                    open(os.path.join(old.out_dir, name), "rb") as b:
                assert a.read() == b.read(), (conf, name)


def test_follower_norm_weighs_the_edge_trace_ends_by_half():
    # demo A at n = K = 12: each edge trace is normed by the trapezoid rule in
    # time, as l2_q norms the field controls, and the traces' norms summed
    spec = _demo_spec("a", 12)
    cfg = spec.scenario
    sol = GramBasis(cfg, spec.robust).free
    half_ends = np.ones(cfg.tgrid.n_levels)
    half_ends[[0, -1]] = 0.5
    traces = [tr.values for tr in sol.follower.values()]
    want = sum(float(np.sqrt(cfg.tgrid.dt * np.sum(half_ends * v ** 2))) for v in traces)
    assert runner_module._follower_norm(cfg, sol) == want
    assert want != sum(float(np.sqrt(cfg.tgrid.dt * np.sum(v ** 2))) for v in traces)


_COMMANDS = {"run": run_experiment, "probe": probe_run, "sweep-eps": eps_sweep,
             "converge": convergence_study}


def _manifest(out_dir: str) -> list:
    """The (file, sha256, bytes) rows of ``manifest.csv``."""
    with open(os.path.join(out_dir, "manifest.csv"), encoding="utf-8", newline="") as fh:
        return list(csv.reader(fh))[1:]


def _stale_rows(out_dir: str) -> list:
    """Files whose manifest row differs from their sha256 and size on disk."""
    return [name for name, digest, size in _manifest(out_dir)
            if (digest, int(size)) != (sha256_of(os.path.join(out_dir, name)),
                                       os.path.getsize(os.path.join(out_dir, name)))]


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_manifest_lists_the_bytes_each_command_wrote(tmp_path, command):
    # one row per file of the report, sorted, each its file's hash and size;
    # a file changed after the command no longer matches its row
    report = _COMMANDS[command](_demo_spec("a", 12), out_dir=str(tmp_path / command),
                                quiet=True)
    listed = [row[0] for row in _manifest(report.out_dir)]
    assert report.files[-1] == "manifest.csv"
    assert listed == sorted(report.files[:-1]) and "verdicts.csv" in listed
    assert _stale_rows(report.out_dir) == []
    with open(os.path.join(report.out_dir, "verdicts.csv"), "a", encoding="utf-8") as fh:
        fh.write("changed,pass,,\n")
    assert _stale_rows(report.out_dir) == ["verdicts.csv"]


def test_a_file_changed_before_the_manifest_keeps_the_row_of_its_written_bytes(
        tmp_path, monkeypatch):
    # the rows come from what the writers returned, not from the files on disk
    real = runner_module.write_manifest

    def change_then_write(out_dir, entries):
        with open(os.path.join(out_dir, "verdicts.csv"), "a", encoding="utf-8") as fh:
            fh.write("changed,pass,,\n")
        return real(out_dir, entries)

    monkeypatch.setattr(runner_module, "write_manifest", change_then_write)
    report = run_experiment(_demo_spec("a", 12), out_dir=str(tmp_path / "run"), quiet=True)
    assert _stale_rows(report.out_dir) == ["verdicts.csv"]


def test_run_makes_its_directory_once_and_stats_no_file_it_writes(tmp_path, monkeypatch):
    out = str(tmp_path / "run")
    made, stated = [], []
    real_makedirs, real_stat = os.makedirs, os.stat

    def makedirs(name, *args, **kwargs):
        made.append(name)
        return real_makedirs(name, *args, **kwargs)

    def stat(path, *args, **kwargs):
        stated.append(path)
        return real_stat(path, *args, **kwargs)

    spec = _demo_spec("a", 12)
    with monkeypatch.context() as patch:
        patch.setattr(os, "makedirs", makedirs)
        patch.setattr(os, "stat", stat)
        report = run_experiment(spec, out_dir=out, quiet=True)
    assert made == [out] and "leader.csv" in report.files
    inside = [p for p in stated if not isinstance(p, int)
              and os.path.abspath(os.fsdecode(p)).startswith(out + os.sep)]
    assert inside == []
