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

    ``learning.simulate_block`` is wrapped so that each chunk of every block
    is copied into the block's series as the run takes it.  Each Trace takes
    the run's clusters, and its metadata from its file's sidecar.  A call
    returns the blocks recorded since the last call, so take each run's
    traces before the next run.  A run that stores no traces skips the
    burn-in's estimates, and its blocks are not recorded.
    """
    blocks = []
    simulate_block = learning.simulate_block

    def tap(combination_t, profile, symbols, *args, burn_in=0):
        chunks = simulate_block(combination_t, profile, symbols, *args, burn_in=burn_in)
        return chunks if burn_in else keep(chunks, profile, symbols)

    def keep(chunks, profile, symbols):
        n_reps, n_agents, horizon = symbols.shape
        # iteration 0 is the uniform initial state: log-ratios zero, estimate 0
        psi, mu = np.zeros((2, n_reps, horizon + 1, n_agents))
        est = np.zeros(psi.shape, dtype=np.min_scalar_type(profile.n_hypotheses - 1))
        blocks.append((psi, mu, est, symbols))
        for start, *chunk in chunks:
            rows = slice(start + 1, start + 1 + chunk[0].shape[0])
            for series, values in zip((psi, mu, est), chunk):
                series[:, rows] = values.transpose(1, 0, 2)
            yield start, *chunk

    monkeypatch.setattr(learning, "simulate_block", tap)

    def traces(result):
        out = Path(result.config.out_dir)
        traces = [learning.Trace(log_ratio=psi[j], estimates=est[j],
                                 clusters=result.clusters.copy(), metadata=None,
                                 mu_log_ratio=mu[j],
                                 observations=symbols[j] if result.config.record_observations
                                 else None)
                  for psi, mu, est, symbols in blocks for j in range(len(psi))]
        blocks.clear()
        for i, trace in enumerate(traces):
            trace.metadata = json.loads((out / (TRACE_NAME.format(i) + ".meta.json")).read_text())
        return traces

    return traces
