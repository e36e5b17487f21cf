import json
from pathlib import Path

import numpy as np
import pytest

from blocklearn import learning
from blocklearn.writers import TRACE_NAME


@pytest.fixture
def recorded(monkeypatch):
    """``recorded(result)``: in-memory Traces of the replicates that a
    ``store_traces`` run wrote into its ``out_dir``, in file order.

    ``learning.simulate_block`` is wrapped so that a ``TraceRecorder`` sees
    each chunk of every block before the run's own hook.  Each Trace takes
    the run's clusters, and its metadata from its file's sidecar.  A call
    returns the blocks recorded since the last call, so take each run's
    traces before the next run.  A run that stores no traces skips the
    burn-in's estimates, and its blocks are not recorded.
    """
    recorders = []
    simulate_block = learning.simulate_block

    def tee(combination_t, profile, symbols, strategy, delta, pair, estimator, on_chunk,
            burn_in=0):
        if burn_in:
            return simulate_block(combination_t, profile, symbols, strategy, delta, pair,
                                  estimator, on_chunk, burn_in=burn_in)
        # the run's clusters replace the zeros when the traces are taken
        recorder = learning.TraceRecorder(len(symbols), symbols.shape[2],
                                          np.zeros(profile.n_agents, dtype=int),
                                          profile.n_hypotheses, symbols)
        recorders.append(recorder)

        def both(*chunk):
            recorder(*chunk)
            on_chunk(*chunk)

        simulate_block(combination_t, profile, symbols, strategy, delta, pair, estimator, both,
                       burn_in=burn_in)

    monkeypatch.setattr(learning, "simulate_block", tee)

    def traces(result):
        out = Path(result.config.out_dir)
        blocks = [r.close([{}] * len(r.psi)) for r in recorders]
        recorders.clear()
        traces = [trace for block in blocks for trace in block]
        for i, trace in enumerate(traces):
            trace.clusters = result.clusters.copy()
            trace.metadata = json.loads((out / (TRACE_NAME.format(i) + ".meta.json")).read_text())
            if not result.config.record_observations:
                trace.observations = None
        return traces

    return traces
