"""Set-up cost of one CLI invocation, measured in a fresh interpreter.

Times ``import stackheat``, ``parse_config`` and the scenario rebuild that
``stackheat`` does for a ``--seed`` override, then prints one JSON line.

    python3 perfbench/setup_probe.py CONFIG N SEED
"""

import dataclasses
import json
import sys
from time import perf_counter


def main(argv) -> int:
    path, n, seed = argv[0], int(argv[1]), int(argv[2])
    t0 = perf_counter()
    import stackheat
    t_import = perf_counter()
    spec = stackheat.parse_config(path)
    dataclasses.replace(spec.recipe, seed=seed).build(n, n)
    t_end = perf_counter()
    print(json.dumps({"setup_s": t_end - t0, "import_s": t_import - t0}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
