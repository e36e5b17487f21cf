"""The benchmark's hooks into the program still hold.

``perfbench/tracing.py`` replaces module attributes by name during a traced
round; a name that moved or lost its import would fail only there.  Each
workload builds its configs when it is constructed, so a stricter config
check would otherwise show only in a benchmark run.  The benchmark sources
are executed into fresh namespaces, so nothing is written under
``perfbench/``.
"""

import sys
import types
from pathlib import Path

import pytest

from blocklearn import harness, inverse
from blocklearn.graphs import SbmParams
from blocklearn.harness import ExperimentConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
TRACING = PERFBENCH / "tracing.py"


def load_source(path, module):
    module.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def load_tracing():
    return load_source(TRACING, types.ModuleType("perfbench_tracing"))


@pytest.fixture
def workloads(monkeypatch):
    # workloads.py imports its sibling oracle.py by its plain name, and its
    # dataclasses look their own module up in sys.modules
    modules = {"oracle": types.ModuleType("oracle"),
               "workloads": types.ModuleType("perfbench_workloads")}
    for module in modules.values():
        monkeypatch.setitem(sys.modules, module.__name__, module)
    load_source(PERFBENCH / "oracle.py", modules["oracle"])
    return load_source(PERFBENCH / "workloads.py", modules["workloads"])


def test_every_wrapped_name_is_in_its_owner():
    targets = [(owner, attr) for owner, attr, _, _ in load_tracing().TARGETS]
    targets.append((inverse.BeliefSeries, "from_trace_csv"))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets
               if attr not in owner.__dict__]
    assert not missing


def test_redraw_counter_reads_a_block():
    # the sparse law of two_community: its block of 20 seeds redraws 9 times
    sparse = SbmParams(n0=15, n1=15, p0=0.25, p1=0.25, q0=0.1, q1=0.1)
    block = harness.sample_sbm(sparse, range(2024, 2044))
    assert load_tracing()._count_retries(block, (sparse,)) == {"graphs.redraws": 9}


def test_every_workload_builds(workloads):
    assert sorted(workloads.WORKLOADS) == ["cli_roundtrip", "three_community", "two_community"]
    for name in workloads.WORKLOADS:
        workload = workloads.build(name, 0)
        assert workload.operations > 0 and workload.replicate_steps > 0
        if name == "cli_roundtrip":
            # the JSON configs the round writes, as `simulate` and `predict` read them
            ExperimentConfig.from_dict(workload.sim_config)
            ExperimentConfig.from_dict(workload.predict_config)
        else:
            assert all(isinstance(c, ExperimentConfig) for c in workload.configs)
