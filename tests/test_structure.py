"""The package's structure: where the modal coupling of a Picard sweep may be written."""

import ast
import os

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
