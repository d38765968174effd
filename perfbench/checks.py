"""Per-invocation output check of the stackheat benchmark.

An invocation fails on a non-zero exit or an exception, on a ``fail`` or
``error`` verdict, and, for ``run`` and ``sweep-eps`` (whose numbers do not
depend on the seed), on a certified terminal residual more than 5% from the
reference recorded in ``reference.json``.  Byte-identical manifests are
counted, not required: a change may legitimately alter an output such as
``cg_trace.csv``.
"""

from __future__ import annotations

import csv
import json
import os

RESIDUAL_RTOL = 0.05   # the bound tests/baselines.json uses
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
RESIDUAL_FILES = {"run": "hum_summary.csv", "sweep-eps": "eps_sweep.csv"}
RESIDUAL_COLUMN = "terminal_residual [Hminus1]"


def load_reference(path: str = REFERENCE_PATH) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _rows(path: str) -> list:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def read_outputs(command: str, out_dir: str) -> dict:
    """Verdict rows, manifest hashes and certified residuals of one invocation."""
    verdicts = [(r["check"], r["status"], r["reason"], r["value"])
                for r in _rows(os.path.join(out_dir, "verdicts.csv"))]
    manifest = {r["file"]: r["sha256"] for r in _rows(os.path.join(out_dir, "manifest.csv"))}
    residuals = []
    if command in RESIDUAL_FILES:
        residuals = [float(r[RESIDUAL_COLUMN])
                     for r in _rows(os.path.join(out_dir, RESIDUAL_FILES[command]))]
    return {"verdicts": verdicts, "manifest": manifest, "residuals": residuals}


def failures(command: str, rc, outputs: dict | None, ref: dict | None) -> list:
    """Reasons the invocation failed; empty when it passed."""
    reasons = []
    if rc != 0:
        reasons.append(f"exit code {rc}")
    if outputs is None:
        return reasons + ["outputs missing or unreadable"]
    reasons += [f"verdict {check} is {status}: {why}"
                for check, status, why, _ in outputs["verdicts"] if status in ("fail", "error")]
    if command in RESIDUAL_FILES:
        expected = None if ref is None else ref["residuals"]
        got = outputs["residuals"]
        if not expected or len(expected) != len(got):
            reasons.append(f"residuals {got} do not match the reference layout {expected}")
        else:
            reasons += [f"terminal residual {g!r} is more than {RESIDUAL_RTOL:.0%} from {e!r}"
                        for g, e in zip(got, expected) if abs(g - e) > RESIDUAL_RTOL * abs(e)]
    return reasons


def manifest_identical(manifest: dict, ref: dict | None, first: dict | None) -> bool:
    """Whether the outputs are byte-identical to what this commit of the program wrote.

    Files whose content does not depend on the seed are compared with the
    reference hashes; the whole manifest is compared with the same config's
    first pass in this run, which had the same seed.
    """
    if ref is None or any(manifest.get(name) != h for name, h in ref["manifest"].items()):
        return False
    return first is None or manifest == first
