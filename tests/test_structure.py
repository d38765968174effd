"""The package's structure: where the modal coupling of a Picard sweep may be
written, and which functions no command reaches."""

import ast
import json
import os
import re
import subprocess
import sys

import stackheat

PACKAGE = os.path.dirname(os.path.abspath(stackheat.__file__))

# The functions that may reach ``heat._modal_levels``, the march on modal
# coefficients: ``heat`` itself, the two sweep marches that form every Picard
# sweep's sources and edge rows, and verify's response march of deviations
# and its transpose (the Lanczos fallback of the concavity certificate).
MODAL_LEVELS_CALLERS = {"saddle._forward_hat", "saddle._backward_hat", "saddle._Readout.response",
                        "saddle._Readout.transpose"}


def _references(module: str, name: str) -> list:
    """The qualified name of each function (or module, at top level) that reads ``name``."""
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = []

    def visit(node, scope):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = scope + (node.name,)
        if (isinstance(node, ast.Name) and node.id == name) or (
                isinstance(node, ast.Attribute) and node.attr == name):
            found.append(".".join((module,) + scope[:2]))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return found


def test_only_the_two_sweep_marches_and_verify_march_on_modal_levels():
    # a Picard sweep's coupling is written once, in saddle's two sweep marches;
    # a third copy of it would have to call the modal march itself
    modules = sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))
    callers = [ref for module in modules if module != "heat"
               for ref in _references(module, "_modal_levels")]
    assert callers and set(callers) <= MODAL_LEVELS_CALLERS, callers


# The functions that ``run``, ``sweep-eps``, ``probe`` and ``converge`` on
# demos A-D never call: error paths, grid constructors, the typed public edge
# that README names, a Gram image's sequential solves (blocks one column
# wide, at larger n), verify's Lanczos fallback and the paper's hypothesis
# checks.  A function added outside every command's path fails the test
# below until it is listed here, so dead code is a decision, not a leftover.
UNREACHED = {
    "config._suggest", "errors.NonContractionError.__init__",
    "grids.BoundaryTrace.zeros", "grids.SpaceTimeField.copy",
    "grids.SpaceTimeField.from_function", "grids.SpaceTimeField.zeros",
    "heat.modal_march_backward", "heat.solve_backward",
    "hum.AdjointPair.theta", "hum._gram.<locals>.leader", "hum._gram.<locals>.lifted",
    "hum.gram_apply", "hum.hum_minimize", "hum.observation", "hum.solve_adjoint",
    "hum.solve_adjoint.<locals>.physical",
    "saddle.SaddleSolution.adjoint", "saddle.VerifyReport.passed",
    "saddle._Readout.transpose", "saddle._lanczos_gain", "saddle._lanczos_gain.<locals>.gram",
    "saddle.evaluate_functional",
    "weights.Eta0.check", "weights.Eta0.gradient_zero", "weights.Eta0.value",
    "weights.EtaPair._s", "weights.EtaPair.check", "weights.EtaPair.value1",
    "weights.EtaPair.value2", "weights.admissibility_check",
}

# Run in a fresh interpreter: a plan or DST cached by an earlier test would
# hide the calls that build it.  Records the (file, first line) of each
# package function called.
_TRACE = """\
import json, os, sys
package, out, configs = sys.argv[1], sys.argv[2], sys.argv[3:]
called = set()

def profile(frame, event, arg):
    if event == "call" and frame.f_code.co_filename.startswith(package + os.sep):
        called.add((os.path.basename(frame.f_code.co_filename), frame.f_code.co_firstlineno))

sys.setprofile(profile)
from stackheat.cli import main
for config in configs:
    for command in ("run", "sweep-eps", "probe", "converge"):
        main([command, config, "--out", os.path.join(out, os.path.basename(config), command),
              "--quiet"])
sys.setprofile(None)
print(json.dumps(sorted(called)))
"""


def _functions(module: str) -> dict:
    """{first line: ``module.qualname``} of each function defined in ``module``.

    The first line is a decorated function's first decorator, as its code
    object's ``co_firstlineno``.
    """
    with open(os.path.join(PACKAGE, f"{module}.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    found = {}

    def visit(node, qualname):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                found[first] = ".".join((module,) + qualname + (child.name,))
                visit(child, qualname + (child.name, "<locals>"))
            else:
                visit(child, qualname + ((child.name,) if isinstance(child, ast.ClassDef) else ()))

    visit(tree, ())
    return found


def test_the_commands_reach_every_function_but_the_pinned_ones(tmp_path):
    # run, sweep-eps, probe and converge on demos A-D at n = K = 12 (exit
    # codes not asserted: converge on A fails a verdict at that grid)
    configs = []
    for conf in "abcd":
        with open(os.path.join(os.path.dirname(__file__), "..", "configs", f"demo_{conf}.ini"),
                  encoding="utf-8") as fh:
            text = re.sub(r"^ladder = .*\n", "", fh.read(), flags=re.M)
        text = text.replace("n_interior = 50", "n_interior = 12").replace(
            "n_steps = 50", "n_steps = 12\nladder = 6, 8, 12")
        configs.append(str(tmp_path / f"demo_{conf}.ini"))
        with open(configs[-1], "w", encoding="utf-8") as fh:
            fh.write(text)
    src = os.path.dirname(PACKAGE)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    out = subprocess.run([sys.executable, "-c", _TRACE, PACKAGE, str(tmp_path / "out"), *configs],
                         capture_output=True, text=True, env=env, check=True, timeout=300).stdout
    called = {tuple(entry) for entry in json.loads(out)}
    defined = {(f"{module}.py", line): name
               for module in sorted(f[:-3] for f in os.listdir(PACKAGE) if f.endswith(".py"))
               for line, name in _functions(module).items()}
    assert {name for key, name in defined.items() if key not in called} == UNREACHED
