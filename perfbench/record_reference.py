"""Record reference.json: certified residuals and seed-independent output hashes.

Runs every invocation of every workload (and of the test workloads) once at
seed 0 and once at seed 1, untraced.  Output files whose hashes agree across
the two seeds are recorded as seed-independent; the residuals must agree.
Re-record only when a change is meant to alter the program's numbers.

    PYTHONPATH=src OMP_NUM_THREADS=1 python3 perfbench/record_reference.py
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from checks import REFERENCE_PATH, read_outputs
from worker import ROOT
from workloads import TEST_WORKLOADS, WORKLOADS, reference_key, write_config


def record() -> dict:
    from stackheat import cli

    reference = {}
    work_root = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(work_root, exist_ok=True)
    work = tempfile.mkdtemp(prefix="record-", dir=work_root)
    try:
        for workload in {**WORKLOADS, **TEST_WORKLOADS}.values():
            for letter in workload.configs:
                key = reference_key(workload.command, letter, workload.n)
                if key in reference:
                    continue
                path = write_config(ROOT, letter, workload.n, work)
                out_dir = os.path.join(work, "out")
                runs = []
                for seed in (0, 1):
                    rc = cli.main([workload.command, path, "--out", out_dir,
                                   "--seed", str(seed), "--quiet"])
                    if rc != 0:
                        raise SystemExit(f"{key} seed {seed}: exit code {rc}")
                    runs.append(read_outputs(workload.command, out_dir))
                    shutil.rmtree(out_dir)
                a, b = runs
                if a["residuals"] != b["residuals"]:
                    raise SystemExit(f"{key}: residuals depend on the seed")
                manifest = {f: h for f, h in a["manifest"].items()
                            if b["manifest"].get(f) == h}
                reference[key] = {"residuals": a["residuals"], "manifest": manifest}
                print(key, a["residuals"], f"{len(manifest)} seed-independent files", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return reference


if __name__ == "__main__":
    sys.path.insert(0, os.path.join(ROOT, "src"))
    ref = record()
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")
