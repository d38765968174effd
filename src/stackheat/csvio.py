"""CSV emission: RFC-4180-style, LF line endings, 17 significant digits.

``write_csv`` has two paths with one output format.  Rows of mixed type (the
summaries, ``verdicts.csv``, ``cg_trace.csv``, the probe tables and the
manifest) go through ``fmt`` value by value and then ``csv.writer``.  A 2-D
float ndarray (the fields, the traces and ``weights.csv``) is written one
line per row with a single ``%``-format of ``%.17g`` for every column.  The
bytes agree: ``%.17g`` and the ``f"{x:.17g}"`` of ``fmt`` go through the same
float-to-string routine of Python, so ``nan``, ``inf``, ``-inf`` and ``-0``
print alike, and a number's text holds no comma, quote or line break, so
``csv.writer`` would quote none of them.
"""

from __future__ import annotations

import csv
import hashlib
import os

import numpy as np

from .grids import SpaceTimeField


def fmt(value) -> str:
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return str(value)


def write_csv(path: str, header, rows):
    """Header row and data rows; ``rows`` is a list of rows or a 2-D float array."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        if isinstance(rows, np.ndarray):
            line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
            fh.writelines(line % tuple(row) for row in rows.tolist())
        else:
            for row in rows:
                writer.writerow([fmt(v) for v in row])


def write_field_csv(path: str, field: SpaceTimeField, name: str = "u"):
    """One row per time level, one column per node (units: state values)."""
    xs = field.grid.nodes()
    header = ["t [time]"] + [f"{name}(x={x:.8g}) [state]" for x in xs]
    write_csv(path, header, np.column_stack([field.tgrid.times(), field.values]))


def write_trace_csv(path: str, tgrid, values, name: str = "v"):
    header = ["t [time]", f"{name} [control]"]
    write_csv(path, header, np.column_stack([tgrid.times(), values]))


def sha256_of(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def write_manifest(out_dir: str, filenames) -> str:
    """Manifest of emitted files with content hashes; returns its path."""
    path = os.path.join(out_dir, "manifest.csv")
    rows = []
    for name in sorted(filenames):
        fp = os.path.join(out_dir, name)
        rows.append([name, sha256_of(fp), os.path.getsize(fp)])
    write_csv(path, ["file", "sha256", "bytes"], rows)
    return path
