"""Every case of ``bench_modal.py`` runs once, through a stub ``benchmark`` fixture.

The tier-1 run does not collect the benchmark file, so a change to what it
calls (``hum._gram``, ``heat._Work``, ``saddle.verify_saddle``) could break it
unseen.  Here each of its cases runs once: the stub calls the timed function
once and carries the ``extra_info`` dict the cases fill.
"""

import inspect

import pytest

import bench_modal


class _StubBenchmark:
    """pytest-benchmark's ``benchmark`` fixture reduced to one call of the timed function."""

    def __init__(self):
        self.extra_info = {}

    def __call__(self, function, *args, **kwargs):
        return function(*args, **kwargs)

    def pedantic(self, function, args=(), kwargs=None, setup=None, **_):
        if setup is not None:
            args, kwargs = setup()
        return function(*args, **(kwargs or {}))


def _cases():
    """One ``pytest.param(case, arguments)`` per case of the benchmark file, as pytest would collect it."""
    for name, case in vars(bench_modal).items():
        if not name.startswith("test_"):
            continue
        marks = [m for m in getattr(case, "pytestmark", []) if m.name == "parametrize"]
        if not marks:
            yield pytest.param(case, {}, id=name)
            continue
        (mark,) = marks
        argname, values = mark.args
        for value in values:
            yield pytest.param(case, {argname: value}, id=f"{name}[{value}]")


@pytest.mark.parametrize("case, arguments", list(_cases()))
def test_bench_case_runs_once(case, arguments, monkeypatch):
    bench = _StubBenchmark()
    fixtures = {"benchmark": bench, "monkeypatch": monkeypatch}
    wanted = inspect.signature(case).parameters
    case(**{name: f for name, f in fixtures.items() if name in wanted}, **arguments)
    if case is bench_modal.test_gram_image:
        info = bench.extra_info
        assert info["modal_levels_calls"] == len(info["modal_levels_batches"]) > 0
        # the pair and the equilibrium march together first: two fields, or D's three live ones
        assert info["modal_levels_batches"][0] == [3 if arguments["demo"] == "d" else 2]
