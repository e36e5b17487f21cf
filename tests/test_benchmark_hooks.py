"""The names the benchmark's tracer wraps exist where it looks them up.

``perfbench/tracing.py`` replaces module attributes by name during a traced
round; a name that moved or lost its import would fail only there.  The
tracer source is executed into a fresh namespace, so nothing is written
under ``perfbench/``.
"""

import types
from pathlib import Path

from blocklearn import inverse

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_every_wrapped_name_is_in_its_owner():
    targets = [(owner, attr) for owner, attr, _, _ in load_tracing().TARGETS]
    targets.append((inverse.BeliefSeries, "from_trace_csv"))
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}" for owner, attr in targets
               if attr not in owner.__dict__]
    assert not missing
