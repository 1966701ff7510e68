"""The benchmark's traced boundaries exist in the sources.  A traced run
of `perfbench/run.py` reports calls, self time and a counter for each
boundary in `perfbench/child.py`'s LAYERS; a boundary that is renamed or
deleted drops its metrics, and the run no longer has the metric names of
the runs it is compared with.  child.py is loaded by path and nothing is
wrapped."""

import importlib
import types
from pathlib import Path

import pytest

import kalvar
from kalvar.bott import BottOutcome, bundle_cohomology
from kalvar.partitions import Partition, SkewShape, skew_schur_dim
from kalvar.resolution import KalmanParams, resolution_normalization

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def load_child():
    """child.py run as a module that is not __main__, writing no
    bytecode beside it."""
    module = types.ModuleType("perfbench_child")
    module.__file__ = str(CHILD)
    exec(compile(CHILD.read_text(), str(CHILD), "exec"), vars(module))
    return module


LAYERS = load_child().LAYERS
COUNTER_OF = {(module, attr): counter_of for module, attr, counter, counter_of in LAYERS if counter}


@pytest.mark.parametrize("module_name, attr", [layer[:2] for layer in LAYERS])
def test_boundary_is_a_callable_in_src(module_name, attr):
    module = importlib.import_module(module_name)
    assert Path(module.__file__).resolve().parent == Path(kalvar.__file__).resolve().parent
    owner = module
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)


def test_counters_read_what_the_boundaries_return():
    table = resolution_normalization(KalmanParams(1, 2, 4))
    assert type(table.terms) is list
    assert COUNTER_OF["kalvar.resolution", "resolution_normalization"](table) == len(table.terms) > 0

    outcome = bundle_cohomology(Partition((1,)), Partition(()), 1, 2)
    assert type(outcome) is tuple and len(outcome) == 2
    assert isinstance(outcome[0], BottOutcome) and type(outcome[1]) is int
    assert COUNTER_OF["kalvar.bott", "bundle_cohomology"](outcome) == int(outcome[0].vanishes)

    skew = skew_schur_dim(SkewShape.of((2, 1), (1,)), 2)
    assert COUNTER_OF["kalvar.partitions", "skew_schur_dim"](skew) == skew == 4
