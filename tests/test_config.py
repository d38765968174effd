"""Configuration parsing: defaults, schema errors, geometry rejection."""

import textwrap

import pytest

from stackheat.config import parse_config
from stackheat.errors import ConfigError


def write(tmp_path, body, name="exp.ini"):
    p = tmp_path / name
    p.write_text(textwrap.dedent(body), encoding="utf-8")
    return str(p)


def test_minimal_config_a_defaults(tmp_path):
    spec = parse_config(write(tmp_path, """
        [scenario]
        configuration = A
    """))
    assert spec.scenario.configuration == "A"
    assert spec.scenario.wspec.lam == 1.0
    assert spec.scenario.wspec.s == 1.0
    assert spec.scenario.wspec.m == 4
    assert spec.scenario.grid.n_interior == 50
    assert spec.robust.ell == 10.0
    assert spec.hum.epsilon == 1e-4
    assert spec.seed == 0


def test_full_config_round_trip(tmp_path):
    spec = parse_config(write(tmp_path, """
        [scenario]
        configuration = B
        horizon = 0.5
        y0 = random
        y0_amplitude = 0.5
        target = random
        gamma = left

        [scenario.b1]
        a = 0.0
        b = 0.3

        [scenario.b2]
        a = 0.0
        b = 0.25

        [scenario.obs]
        a = 0.6
        b = 0.9

        [robust]
        ell = 7.0
        gamma = 9.0

        [hum]
        epsilon = 1e-3
        epsilon_ladder = 1e-2, 1e-4, 1e-6

        [grid]
        n_interior = 12
        n_steps = 10
        ladder = 25, 50, 100

        [output]
        directory = results
        seed = 42
    """))
    assert spec.scenario.configuration == "B"
    assert spec.scenario.b1.b == 0.3
    assert spec.robust.gamma == 9.0
    assert spec.epsilon_ladder == (1e-2, 1e-4, 1e-6)
    assert spec.ladder == (25, 50, 100)
    assert spec.out_dir == "results"
    assert spec.seed == 42
    # the recipe rebuilds the same scenario on another grid
    small = spec.recipe.build(4, 4)
    assert small.grid.n_interior == 4
    assert small.configuration == "B"


def test_unknown_key_suggests_nearest(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, """
            [scenario]
            configuration = A

            [robust]
            gama = 10.0
        """))
    assert "gama" in str(exc.value) and "gamma" in str(exc.value)


def test_unknown_section_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, """
            [scenario]
            configuration = A

            [robustness]
            ell = 2.0
        """))
    assert "robustness" in str(exc.value)


def test_geometry_violation_names_theorem(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, """
            [scenario]
            configuration = A

            [scenario.omega]
            a = 0.1
            b = 0.3

            [scenario.obs]
            a = 0.5
            b = 0.9
        """))
    assert "Theorem 1" in str(exc.value)


def test_parse_error_reports_line(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, """
            [scenario
            configuration = A
        """))
    assert "line" in str(exc.value).lower()


def test_bad_value_type(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, """
            [scenario]
            configuration = A

            [robust]
            ell = strong
        """))
    assert "ell" in str(exc.value)


def test_region_requires_both_endpoints(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, """
            [scenario]
            configuration = A

            [scenario.omega]
            a = 0.2
        """))
    assert "'b'" in str(exc.value)


def test_inapplicable_region_rejected(tmp_path):
    with pytest.raises(ConfigError) as exc:
        parse_config(write(tmp_path, """
            [scenario]
            configuration = A

            [scenario.b1]
            a = 0.0
            b = 0.3
        """))
    assert "b1" in str(exc.value)


def test_missing_file():
    with pytest.raises(ConfigError):
        parse_config("/nonexistent/path.ini")


def test_config_d_targets(tmp_path):
    spec = parse_config(write(tmp_path, """
        [scenario]
        configuration = D
        target2 = random

        [grid]
        n_interior = 8
        n_steps = 8
    """))
    assert spec.scenario.target2 is not None
    assert spec.scenario.gamma_set.support == ("left",)
    assert spec.scenario.gamma1.support == ("right",)
