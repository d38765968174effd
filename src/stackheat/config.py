"""Experiment configuration files: INI sections mapped to typed settings.

The file format is plain key-value text with nested sections, e.g.::

    [scenario]
    configuration = A
    [scenario.omega]
    a = 0.2
    b = 0.6
    [robust]
    ell = 10.0

Unknown sections or keys are errors (with the nearest valid name suggested);
numeric fields are decimal.  Every field has a documented default, so the
minimal file is just ``[scenario]`` with ``configuration = A``.
"""

from __future__ import annotations

import configparser
import difflib
from dataclasses import dataclass

from .errors import ConfigError
from .grids import LEFT, RIGHT, BoundarySet, Region, SpatialGrid, TimeGrid
from .hum import HumSettings
from .scenario import (RobustParams, ScenarioConfig, make_initial, make_target,
                       validate_config)
from .weights import WeightSpec

_SCHEMA = {
    "scenario": {
        "configuration": str,
        "length": float,
        "horizon": float,
        "y0": str,
        "y0_amplitude": float,
        "target": str,
        "target_amplitude": float,
        "target2": str,
        "target2_amplitude": float,
        "gamma": str,
        "gamma1": str,
        "gamma2": str,
        "global_disturbance": bool,
    },
    "robust": {
        "ell": float,
        "gamma": float,
        "ell2": float,
        "fixed_point_tol": float,
        "max_iterations": int,
    },
    "hum": {
        "epsilon": float,
        "cg_tol": float,
        "cg_max_iters": int,
        "epsilon_ladder": "floats",
    },
    "weights": {
        "lambda": float,
        "s": float,
        "m": int,
    },
    "grid": {
        "n_interior": int,
        "n_steps": int,
        "ladder": "ints",
    },
    "output": {
        "directory": str,
        "seed": int,
        "probe_samples": int,
        "verify_perturbations": int,
    },
}

_REGION_DEFAULTS = {
    "A": {"omega": (0.2, 0.6), "obs": (0.4, 0.8)},
    "B": {"b1": (0.0, 0.3), "b2": (0.0, 0.25), "obs": (0.6, 0.9)},
    "C": {"obs": (0.3, 0.7)},
    "D": {"obs1": (0.2, 0.45), "obs2": (0.55, 0.8)},
}
_REGION_NAMES = {name for regions in _REGION_DEFAULTS.values() for name in regions}

_SIDE_DEFAULTS = {
    "A": {"gamma": "left"},
    "B": {"gamma": "left"},
    "C": {"gamma1": "left", "gamma2": "right"},
    "D": {"gamma": "left", "gamma1": "right", "gamma2": "right"},
}


@dataclass(frozen=True)
class ScenarioRecipe:
    """Generative description of a scenario, rebuildable on any grid size."""

    configuration: str
    length: float
    horizon: float
    regions: tuple          # ((name, a, b), ...)
    sides: tuple            # ((key, BoundarySet), ...)
    y0_kind: str
    y0_amplitude: float
    target_kind: str
    target_amplitude: float
    target2_kind: str
    target2_amplitude: float
    wspec: WeightSpec
    global_disturbance: bool
    seed: int

    def build(self, n_interior: int, n_steps: int) -> ScenarioConfig:
        grid = SpatialGrid(n_interior, self.length)
        tgrid = TimeGrid(n_steps, self.horizon)
        region_objs = {name: Region(a, b) for name, a, b in self.regions}
        side_objs = dict(self.sides)
        obs_key = "obs1" if self.configuration == "D" else "obs"
        target = make_target(grid, tgrid, region_objs[obs_key], self.target_kind,
                             self.target_amplitude, seed=self.seed + 1)
        target2 = None
        if self.configuration == "D":
            target2 = make_target(grid, tgrid, region_objs["obs2"], self.target2_kind,
                                  self.target2_amplitude, seed=self.seed + 2)
        return ScenarioConfig(
            configuration=self.configuration, grid=grid, tgrid=tgrid,
            y0=make_initial(grid, self.y0_kind, self.y0_amplitude, seed=self.seed),
            target=target, target2=target2, wspec=self.wspec,
            omega=region_objs.get("omega"), obs=region_objs.get("obs"),
            obs1=region_objs.get("obs1"), obs2=region_objs.get("obs2"),
            b1=region_objs.get("b1"), b2=region_objs.get("b2"),
            gamma_set=side_objs.get("gamma"), gamma1=side_objs.get("gamma1"),
            gamma2=side_objs.get("gamma2"),
            allow_global_disturbance=self.global_disturbance)


@dataclass
class ExperimentSpec:
    """Everything one experiment needs, parsed and validated."""

    scenario: ScenarioConfig
    recipe: ScenarioRecipe
    robust: RobustParams
    hum: HumSettings
    seed: int = 0
    out_dir: str = "out"
    ladder: tuple = ()
    epsilon_ladder: tuple = (1e-2, 1e-4, 1e-6)
    probe_samples: int = 100
    verify_perturbations: int = 100


def _suggest(name, candidates):
    close = difflib.get_close_matches(name, list(candidates), n=1)
    return f"; did you mean {close[0]!r}?" if close else ""


def _parse_value(section, key, raw, kind, path):
    try:
        if kind is float:
            return float(raw)
        if kind is int:
            v = float(raw)
            if v != int(v):
                raise ValueError("not an integer")
            return int(v)
        if kind is bool:
            low = raw.strip().lower()
            if low in ("true", "yes", "1", "on"):
                return True
            if low in ("false", "no", "0", "off"):
                return False
            raise ValueError("not a boolean")
        if kind == "floats":
            return tuple(float(tok) for tok in raw.replace(",", " ").split())
        if kind == "ints":
            return tuple(int(tok) for tok in raw.replace(",", " ").split())
        return raw.strip()
    except ValueError as exc:
        raise ConfigError(
            f"{path}: invalid value {raw!r} for [{section}] {key}: {exc}") from exc


def _parse_sides(raw, section_key, path) -> BoundarySet:
    sides = [tok.strip() for tok in raw.replace(",", " ").split()]
    for s in sides:
        if s not in (LEFT, RIGHT):
            raise ConfigError(
                f"{path}: [{'scenario'}] {section_key} must list endpoints "
                f"'left' and/or 'right', got {s!r}")
    if not sides:
        raise ConfigError(f"{path}: [{'scenario'}] {section_key} is empty")
    return BoundarySet.from_sides(*dict.fromkeys(sides))


def parse_config(path: str) -> ExperimentSpec:
    """Read, type-check and geometrically validate an experiment file."""
    parser = configparser.ConfigParser(interpolation=None, strict=True)
    try:
        with open(path, "r", encoding="utf-8") as fh:
            parser.read_file(fh, source=path)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ConfigError(f"parse error in {path}: {exc}") from exc

    values = {sec: {} for sec in _SCHEMA}
    regions = {}
    for section in parser.sections():
        if section.startswith("scenario.") and section.split(".", 1)[1] in _REGION_NAMES:
            rname = section.split(".", 1)[1]
            body = dict(parser.items(section))
            for key in body:
                if key not in ("a", "b"):
                    raise ConfigError(
                        f"{path}: unknown key {key!r} in [{section}] (regions "
                        f"take exactly 'a' and 'b'){_suggest(key, ('a', 'b'))}")
            for key in ("a", "b"):
                if key not in body:
                    raise ConfigError(f"{path}: [{section}] is missing {key!r}")
            regions[rname] = tuple(_parse_value(section, key, body[key], float, path)
                                   for key in ("a", "b"))
            continue
        if section not in _SCHEMA:
            raise ConfigError(
                f"{path}: unknown section [{section}]"
                f"{_suggest(section, list(_SCHEMA) + ['scenario.' + r for r in _REGION_NAMES])}")
        schema = _SCHEMA[section]
        for key, raw in parser.items(section):
            if key not in schema:
                raise ConfigError(
                    f"{path}: unknown key {key!r} in [{section}]{_suggest(key, schema)}")
            values[section][key] = _parse_value(section, key, raw, schema[key], path)

    try:
        return _build_spec(path, values, regions)
    except ConfigError:
        raise
    except ValueError as exc:  # a value the typed settings reject
        raise ConfigError(f"{path}: {exc}") from exc


def _build_spec(path: str, values: dict, regions: dict) -> ExperimentSpec:
    """Typed, geometrically validated settings from the schema-checked values."""
    sc = values["scenario"]
    if "configuration" not in sc:
        raise ConfigError(f"{path}: [scenario] must set configuration = A|B|C|D")
    conf = sc["configuration"].strip().upper()
    if conf not in ("A", "B", "C", "D"):
        raise ConfigError(f"{path}: configuration must be one of A, B, C, D, got {conf!r}")

    length = sc.get("length", 1.0)
    horizon = sc.get("horizon", 0.5)
    gr = values["grid"]
    grid = SpatialGrid(gr.get("n_interior", 50), length)
    tgrid = TimeGrid(gr.get("n_steps", 50), horizon)

    seed = values["output"].get("seed", 0)
    if seed < 0:
        raise ConfigError(f"{path}: [output] seed must be a nonnegative integer, got {seed}")

    reg = dict(_REGION_DEFAULTS[conf])
    reg.update({k: v for k, v in regions.items() if k in reg})
    extra = set(regions) - set(_REGION_DEFAULTS[conf])
    if extra:
        raise ConfigError(
            f"{path}: region section(s) {sorted(extra)} do not apply to configuration {conf}; "
            f"expected {sorted(_REGION_DEFAULTS[conf])}")

    sides = dict(_SIDE_DEFAULTS[conf])
    for key in ("gamma", "gamma1", "gamma2"):
        if key in sc:
            if key not in sides:
                raise ConfigError(
                    f"{path}: [scenario] {key} does not apply to configuration {conf}")
            sides[key] = sc[key]
    side_objs = {k: _parse_sides(v, k, path) for k, v in sides.items()}

    wv = values["weights"]
    wspec = WeightSpec(lam=wv.get("lambda", 1.0), s=wv.get("s", 1.0),
                       m=wv.get("m", 4), horizon=horizon)

    if conf != "D" and ("target2" in sc or "target2_amplitude" in sc):
        raise ConfigError(f"{path}: target2 applies to configuration D only")

    recipe = ScenarioRecipe(
        configuration=conf, length=length, horizon=horizon,
        regions=tuple((name, a, b) for name, (a, b) in sorted(reg.items())),
        sides=tuple(sorted(side_objs.items())),
        y0_kind=sc.get("y0", "sine"), y0_amplitude=sc.get("y0_amplitude", 1.0),
        target_kind=sc.get("target", "sine_cutoff"),
        target_amplitude=sc.get("target_amplitude", 1.0),
        target2_kind=sc.get("target2", "sine_cutoff"),
        target2_amplitude=sc.get("target2_amplitude", 1.0),
        wspec=wspec,
        global_disturbance=sc.get("global_disturbance", False), seed=seed)

    scenario = recipe.build(grid.n_interior, tgrid.n_steps)
    problems = validate_config(scenario)
    if problems:
        raise ConfigError(f"{path}: invalid scenario geometry: " + "; ".join(problems))

    rv = values["robust"]
    robust = RobustParams(ell=rv.get("ell", 10.0), gamma=rv.get("gamma", 10.0),
                          ell2=rv.get("ell2"),
                          fixed_point_tol=rv.get("fixed_point_tol", 1e-13),
                          max_iterations=rv.get("max_iterations", 400))
    hv = values["hum"]
    hum = HumSettings(epsilon=hv.get("epsilon", 1e-4), cg_tol=hv.get("cg_tol", 1e-10),
                      cg_max_iters=hv.get("cg_max_iters", 5000))

    ladder = tuple(gr.get("ladder", ()))
    if any(b <= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError(f"{path}: [grid] ladder must be strictly increasing, got {ladder}")
    if 0 < len(ladder) < 3:
        raise ConfigError(f"{path}: [grid] ladder needs at least 3 grids, got {ladder}")

    eps_ladder = tuple(hv.get("epsilon_ladder", (1e-2, 1e-4, 1e-6)))
    if not eps_ladder:
        raise ConfigError(f"{path}: [hum] epsilon_ladder needs at least one rung")
    if not all(e > 0 for e in eps_ladder) or len(set(eps_ladder)) != len(eps_ladder):
        raise ConfigError(
            f"{path}: [hum] epsilon_ladder must hold distinct positive rungs, got {eps_ladder}")

    ov = values["output"]
    counts = {key: ov.get(key, 100) for key in ("probe_samples", "verify_perturbations")}
    for key, count in counts.items():
        if count < 1:
            raise ConfigError(f"{path}: [output] {key} must be >= 1, got {count}")
    return ExperimentSpec(
        scenario=scenario, recipe=recipe, robust=robust, hum=hum, seed=seed,
        out_dir=ov.get("directory", "out"),
        ladder=ladder,
        epsilon_ladder=eps_ladder,
        **counts)
