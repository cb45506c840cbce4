"""The in-process study engine (``map_items``) and its study contract.

``map_items`` replaced the old parallel map, so these tests keep its
class names: results come back in input order, a closure needs no
pickling, exceptions propagate, and counters bumped by the mapped
function land in the caller's registry.
"""

import pytest

from repro import harness, obs
from repro.exec import map_items

SMALL = harness.ExperimentConfig(stencils=("7pt",), domain=(64, 64, 64))


@pytest.fixture
def registry():
    prev = obs.get_registry()
    reg = obs.set_registry(obs.MetricsRegistry())
    yield reg
    obs.set_registry(prev)


def _square(x):
    return x * x


def _fail_on_seven(x):
    if x == 7:
        raise ValueError("seven is right out")
    return x


def _count_call(x):
    obs.counter("map_test.calls").inc()
    return x + 1


class TestParallelMap:
    def test_results_in_input_order(self):
        items = list(range(53))
        assert map_items(_square, items) == [x * x for x in items]

    def test_serial_fallback_runs_in_process(self):
        # Nothing is pickled: a closure works fine.
        assert map_items(lambda x: x + 1, [1, 2, 3]) == [2, 3, 4]

    def test_single_item_runs_in_process(self):
        assert map_items(lambda x: -x, [5]) == [-5]

    def test_empty(self):
        assert map_items(_square, []) == []

    def test_exceptions_propagate(self):
        with pytest.raises(ValueError, match="seven"):
            map_items(_fail_on_seven, list(range(20)))

    def test_worker_counters_aggregate(self, registry):
        map_items(_count_call, list(range(40)))
        assert registry.counter("map_test.calls").value == 40


class TestStudyEquivalence:
    def test_parallel_study_equals_serial(self):
        serial = harness.run_study(SMALL)
        vectorized = harness.run_study(SMALL, dispatch="vectorized")
        assert list(vectorized.results) == list(serial.results)  # same order
        assert vectorized.results == serial.results  # same values

    def test_parallel_counters_match_serial(self, registry):
        harness.run_study(SMALL, dispatch="vectorized")
        # 1 stencil x 5 platforms x 3 variants.
        assert registry.counter("simulate.calls").value == 15
        assert registry.counter("study.points").value == 15
        assert registry.counter("codegen.vector_ops").value > 0
