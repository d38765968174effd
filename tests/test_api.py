"""The public surface of the package: what ``from stackheat import *`` exports."""

import inspect
import os
import re

import stackheat
from stackheat import csvio
from stackheat.config import _SCHEMA

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "README.md")

# The library's entry points plus the submodules that ``__init__`` imports.  A
# change that drops or adds one of them must say so by editing this list.
PUBLIC = [
    "AdjointPair", "AdmissibilityReport", "BoundarySet", "BoundaryTrace", "Eta0", "EtaBar",
    "EtaPair", "ExperimentSpec", "GramBasis", "HumResult", "HumSettings", "Region",
    "RobustParams", "RunReport", "SaddleSolution", "ScenarioConfig", "SpaceTimeField",
    "SpatialGrid", "TimeGrid", "WeightSpec", "admissibility_check", "alpha_xi", "beta_weights",
    "config", "convergence_study", "csvio", "eps_sweep", "errors", "evaluate_functional",
    "gram_apply", "grids", "h10_inner", "h10_norm", "heat", "hminus1_norm", "hum",
    "hum_ladder", "hum_minimize", "l2_q", "l_of_t", "make_initial", "make_target",
    "observability_probe", "observation", "oracle", "parse_config", "probe_run", "products",
    "rho_star", "rho_star_inv_sq", "run_experiment", "runner", "saddle", "scenario",
    "section3_weights", "solve_adjoint", "solve_backward", "solve_forward", "solve_optimality",
    "target_weight", "validate_config", "verify_saddle", "weights",
]


def test_public_surface_is_pinned():
    assert sorted(stackheat.__all__) == PUBLIC


def test_every_exported_name_resolves():
    # a stale entry breaks ``from stackheat import *``, which the pinned list does not see
    exec("from stackheat import *", {})


def test_csv_writers_keep_the_names_and_first_argument_that_perfbench_hooks():
    # perfbench's tracer wraps these public names and reads the output path
    # off a writer's first argument; a rename would read its emission rows 0
    for name, first in (("write_csv", "path"), ("write_field_csv", "path"),
                        ("write_trace_csv", "path"), ("write_manifest", "out_dir")):
        fn = getattr(csvio, name)
        assert inspect.isfunction(fn) and fn.__module__ == "stackheat.csvio", name
        assert next(iter(inspect.signature(fn).parameters)) == first, name


def _readme_block(heading: str, lang: str, index: int = 0) -> str:
    """The ``index``-th fenced ``lang`` block of the README section under ``heading``."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split(f"\n## {heading}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", section, re.S)[index]


def test_readme_entry_point_imports_run():
    exec(_readme_block("Library entry points", "python"), {})


def test_readme_schema_lists_exactly_the_config_keys():
    # the full schema is the second ini block of the section, after the minimal file
    listed, section = {}, None
    for line in _readme_block("Configuration files", "ini", 1).splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            section = line.strip("[]")
        elif "=" in line and "." not in section:   # region subsections take a and b
            listed.setdefault(section, set()).add(line.split("=", 1)[0].strip())
    assert listed == {sec: set(keys) for sec, keys in _SCHEMA.items()}


def _readme_stages() -> dict:
    """command -> its stage names, from the README's stage table (parentheticals dropped)."""
    with open(README, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    table = section.split("| command | stages |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
    stages = {}
    for row in table.splitlines():
        command, cell = (c.strip() for c in row.strip("|").split("|"))
        stages[command.strip("`")] = re.findall(r"`([^`]+)`", re.sub(r"\([^)]*\)", "", cell))
    return stages


def test_readme_stage_table_matches_each_command(tmp_path):
    from stackheat.config import parse_config
    from stackheat.runner import convergence_study, eps_sweep, probe_run, run_experiment

    config = tmp_path / "tiny.ini"
    config.write_text("[scenario]\nconfiguration = A\n[grid]\nn_interior = 8\nn_steps = 8\n"
                      "ladder = 4, 6, 8\n[output]\nprobe_samples = 4\n",
                      encoding="utf-8")
    spec = parse_config(str(config))
    commands = {"run": run_experiment, "converge": convergence_study, "probe": probe_run,
                "sweep-eps": eps_sweep}
    ran = {name: [stage for stage, _ in command(spec, out_dir=str(tmp_path / name),
                                                quiet=True).stages]
           for name, command in commands.items()}
    assert _readme_stages() == ran
