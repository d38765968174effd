"""Workloads of the stackheat benchmark and the config files they run.

Every input is one of the shipped ``configs/demo_*.ini`` files with only the
grid changed (``n_interior = n_steps = n``).  The benchmark seed reaches the
program through the CLI's own ``--seed``, which drives the ``verify_saddle``
perturbations and the probe samples.
"""

from __future__ import annotations

import configparser
import os
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    command: str   # stackheat subcommand
    configs: str   # demo configurations, each run once per pass, in this order
    n: int         # n_interior = n_steps


WORKLOADS = {
    # The shipped user path at the demo grid; every layer works here.
    "run-n50": Workload("run", "ABCD", 50),
    # 100 independent adjoint solves per config: no CG, no verification and
    # no field CSVs.  Batching independent solves shows here; Gram/CG is bypassed.
    "probe-n50": Workload("probe", "AB", 50),
    # Only the sequential warm-started CG down the eps ladder, including the
    # eps=1e-6 rung that `run` never reaches.  An assembled Gram matrix shows here.
    "sweep-n50": Workload("sweep-eps", "AB", 50),
}

# Small grids that the benchmark's own tests run; reference.json covers them too.
TEST_WORKLOADS = {
    "run-n12": Workload("run", "ABCD", 12),
    "probe-n12": Workload("probe", "AB", 12),
    "sweep-n12": Workload("sweep-eps", "AB", 12),
}


def write_config(root: str, letter: str, n: int, dest_dir: str) -> str:
    """Copy ``configs/demo_<letter>.ini`` into ``dest_dir`` with the grid set to n."""
    src = os.path.join(root, "configs", f"demo_{letter.lower()}.ini")
    parser = configparser.ConfigParser(interpolation=None)
    with open(src, encoding="utf-8") as fh:
        parser.read_file(fh, source=src)
    parser["grid"]["n_interior"] = str(n)
    parser["grid"]["n_steps"] = str(n)
    path = os.path.join(dest_dir, f"demo_{letter.lower()}_n{n}.ini")
    with open(path, "w", encoding="utf-8") as fh:
        parser.write(fh)
    return path


def reference_key(command: str, letter: str, n: int) -> str:
    return f"{command}/{letter}/n{n}"
