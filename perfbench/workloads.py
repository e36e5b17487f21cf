"""The benchmark's workloads.

Laws, profiles, horizons and base seeds are those of the acceptance suite
(``tests/test_acceptance.py``); only the replicate counts are smaller, so
that one round takes a few seconds and a run can time several rounds.  A
round always does the same fixed work: a workload's size is set by replicate
counts, never by time.

``--seed n`` picks which block of replicates a round runs: replicate r uses
``base_seed + n * R + r``, so seed 0 replays the first R replicates of the
acceptance battery.  Two parts keep fixed inputs on purpose:

* the sparse law of ``two_community`` keeps base seed 2024.  Its criterion
  (every cluster recovers its truth by majority) is marginal, with a
  cluster-0 error rate near 0.45, so at 20 replicates it holds on some
  replicate blocks and not on others.  Its role here is the connectivity
  redraws, which any block exercises.
* ``cli_roundtrip`` reproduces one fixed-graph run whose theory rows the
  program flags every time (see ``CliRoundTrip``), and a failure the
  benchmark counts must not depend on the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import shutil
import subprocess
import sys
import threading
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from blocklearn import cli, harness
from blocklearn.graphs import BlockModel, SbmParams, sample_sbm
from blocklearn.models import bernoulli_profile, observation_matrix, random_multinomial_profile

import oracle

VB1 = SbmParams(n0=15, n1=15, p0=0.8, p1=0.8, q0=0.1, q1=0.1)
SPARSE = SbmParams(n0=15, n1=15, p0=0.25, p1=0.25, q0=0.1, q1=0.1)
BERNOULLI = (0.1, 0.5)
CHILD_TIMEOUT_S = 150


@dataclass(frozen=True)
class Battery:
    """One ``run_experiment`` call: a law, a profile and a replicate block."""

    key: tuple
    law: object
    profile: object  # a LikelihoodProfile, or the Bernoulli success probabilities
    delta: float
    horizon: int
    burn_in: int
    replicates: int
    base_seed: int

    def config(self):
        profile = self.profile
        if not hasattr(profile, "likelihoods"):
            profile = {"kind": "bernoulli", "success_probs": list(profile)}
        return harness.ExperimentConfig(
            network=self.law,
            profile=profile,
            strategy="asl",
            delta=self.delta,
            horizon=self.horizon,
            burn_in=self.burn_in,
            replicates=self.replicates,
            base_seed=self.base_seed,
            n_jobs=1,
        )

    def likelihoods(self, clusters):
        if hasattr(self.profile, "likelihoods"):
            return self.profile.likelihoods
        return oracle.bernoulli_likelihoods(clusters.size, self.profile)

    def regenerate(self, clusters):
        """Inputs of every replicate, drawn again through the public samplers
        with the documented seed ``base_seed + r``."""
        profile = self.profile
        if not hasattr(profile, "likelihoods"):
            profile = bernoulli_profile(clusters, profile)
        seeds = [self.base_seed + r for r in range(self.replicates)]
        adjacencies = np.stack([sample_sbm(self.law, seed=s).adjacency for s in seeds])
        symbols = np.stack([observation_matrix(profile, self.horizon, s) for s in seeds])
        return adjacencies, symbols


def _digest(arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str((a.dtype, a.shape)).encode())
        h.update(a.tobytes())
    return h.hexdigest()


class InProcessWorkload:
    """Monte Carlo batteries run through ``harness.run_experiment``."""

    def __init__(self, batteries, properties):
        self.batteries = batteries
        self.properties = properties
        self.configs = [b.config() for b in batteries]

    @property
    def operations(self):
        return sum(b.replicates for b in self.batteries)

    @property
    def replicate_steps(self):
        return sum(b.replicates * b.horizon for b in self.batteries)

    def run_round(self, workdir, tracer):
        # looked up on the module at call time, so tracing can wrap it
        return {b.key: harness.run_experiment(cfg) for b, cfg in zip(self.batteries, self.configs)}

    @staticmethod
    def failed(results):
        return sum(len(r.failures) for r in results.values())

    @staticmethod
    def digest(results):
        parts = []
        for r in results.values():
            parts += [r.rep_means_psi, r.rep_means_mu, r.iter_mean, r.iter_std,
                      r.pooled_var_psi, r.pooled_var_mu, r.error_report.counts]
        return _digest(parts)

    def check(self, results):
        for b in self.batteries:
            res = results[b.key]
            adjacencies, symbols = b.regenerate(res.clusters)
            oracle.check_battery(
                res,
                adjacencies=adjacencies,
                symbols=symbols,
                likelihoods=b.likelihoods(res.clusters),
                delta=b.delta,
                burn_in=b.burn_in,
            )
        self.properties(results)
        return 0

    def discard(self, results):
        pass


def two_community(seed, replicates=16, sparse_replicates=20):
    """Criteria 2/3 (VB1 at three step sizes) plus the criterion-6 sparse law."""
    batteries = [
        Battery(("vb1", d), VB1, BERNOULLI, d, 1500, 500, replicates, 42 + seed * replicates)
        for d in (0.01, 0.1, 0.3)
    ]
    batteries.append(Battery(("sparse", 0.286), SPARSE, BERNOULLI, 0.26 * 1.1, 1000, 400,
                             sparse_replicates, 2024))

    def properties(results):
        oracle.check_two_community_properties(
            {key[1]: res for key, res in results.items() if key[0] == "vb1"},
            results[("sparse", 0.286)],
        )

    return InProcessWorkload(batteries, properties)


def three_community(seed, replicates=16):
    """Criterion 5: sizes (20, 25, 30), 25-symbol multinomial profile."""
    probs = np.full((3, 3), 0.05)
    np.fill_diagonal(probs, [0.9, 0.8, 0.9])
    law = BlockModel(sizes=(20, 25, 30), probs=probs)
    profile = random_multinomial_profile(law.labels(), alphabet_size=25, seed=10)
    batteries = [
        Battery(("three", d), law, profile, d, 800, 400, replicates, 777 + seed * replicates)
        for d in (0.1, 0.01)
    ]

    def properties(results):
        oracle.check_three_community_properties({key[1]: res for key, res in results.items()})

    return InProcessWorkload(batteries, properties)


# -- the CLI round trip ------------------------------------------------------------


def _cli_child(argv, cwd, log_path):
    """Run ``blocklearn`` in a fresh process; returns (exit code, peak RSS kB)."""
    with open(log_path, "wb") as log:
        proc = subprocess.Popen([sys.executable, "-m", "blocklearn.cli", *argv],
                                cwd=cwd, stdout=log, stderr=subprocess.STDOUT)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def _cli_inprocess(argv, cwd, log_path):
    """Run ``blocklearn.cli.main`` in this process; returns the exit code."""
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(cwd)
    try:
        with redirect_stdout(out), redirect_stderr(out):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    Path(log_path).write_text(out.getvalue())
    return code


class CliRoundTrip:
    """``generate``, ``simulate --fixed-graph``, ``predict``, ``fit-delta``.

    One VB1 graph (seed 42), 20 stored traces with recorded observations at
    delta = 0.1.  ``simulate`` compares its fixed-graph run against the
    graph-averaged block-law prediction instead of the one for the drawn
    graph, so both rows of ``theory_comparison.csv`` are flagged; each
    flagged row counts as a failed operation.
    """

    def __init__(self, replicates=20):
        self.sim_config = {
            "version": 1,
            "network": {"kind": "sbm", **VB1.to_dict()},
            "profile": {"kind": "bernoulli", "success_probs": list(BERNOULLI)},
            "strategy": "asl",
            "delta": 0.1,
            "horizon": 1500,
            "burn_in": 500,
            "replicates": replicates,
            "base_seed": 42,
            "store_traces": True,
            "record_observations": True,
        }
        self.predict_config = {
            "version": 1,
            "network": {"kind": "file", "path": "net/network.txt"},
            "profile": self.sim_config["profile"],
            "strategy": "asl",
            "delta": 0.1,
        }
        self.fit_traces = sorted({0, replicates - 1})  # the first and the last stored trace
        law = ["--n0", "15", "--n1", "15", "--p0", "0.8", "--p1", "0.8", "--q0", "0.1", "--q1", "0.1"]
        self.steps = [
            ("generate", ["generate", "--seed", "42", "--out", "net", *law]),
            ("simulate", ["simulate", "--config", "sim.json", "--out", "sim", "--fixed-graph"]),
            ("predict", ["predict", "--config", "predict.json", "--out", "pred"]),
            *[("fit_delta", ["fit-delta", "--trace", f"sim/trace_{i:04d}.csv", "--network",
                             "net/network.txt", "--traditional", "--out", f"fit_{i:04d}"])
              for i in self.fit_traces],
        ]
        self.peak_rss_kb = 0

    @property
    def operations(self):
        return len(self.steps) + 2  # invocations plus the two theory rows

    @property
    def replicate_steps(self):
        return self.sim_config["replicates"] * self.sim_config["horizon"]

    def run_round(self, workdir, tracer):
        """Untraced rounds start a fresh ``blocklearn`` process per step;
        traced ones call ``blocklearn.cli.main`` in this process (or, with
        ``tracer=False``, the same in-process calls without spans)."""
        workdir = Path(workdir)
        workdir.mkdir(parents=True)
        (workdir / "sim.json").write_text(json.dumps(self.sim_config))
        (workdir / "predict.json").write_text(json.dumps(self.predict_config))
        codes = []
        for i, (name, argv) in enumerate(self.steps):
            log = workdir / f"step{i}_{name}.log"
            if tracer is None:
                code, rss = _cli_child(argv, workdir, log)
            elif tracer is False:
                code, rss = _cli_inprocess(argv, workdir, log), 0
            else:
                with tracer.span(f"cli.{name}"):
                    code, rss = _cli_inprocess(argv, workdir, log), 0
            codes.append(code)
            self.peak_rss_kb = max(self.peak_rss_kb, rss)
            if code != 0:
                break
        return {"dir": workdir, "codes": codes}

    def failed(self, result):
        return sum(code != 0 for code in result["codes"]) + len(self.steps) - len(result["codes"])

    @staticmethod
    def digest(result):
        h = hashlib.sha256()
        root = result["dir"]
        for path in sorted(root.rglob("*")):
            if path.is_file() and not path.name.endswith(".log"):
                h.update(str(path.relative_to(root)).encode())
                h.update(path.read_bytes())
        return h.hexdigest()

    def check(self, result):
        """Independent checks; returns the number of flagged theory rows."""
        root = result["dir"]
        oracle.require(result["codes"] == [0] * len(self.steps),
                       f"blocklearn exit codes {result['codes']} (logs in {root})")
        adjacency, clusters = oracle.parse_network(root / "net" / "network.txt")
        psi, mu_stats = oracle.check_simulate_outputs(root / "sim", adjacency, clusters, self.sim_config)
        prediction = oracle.check_prediction(root / "pred" / "prediction.json", adjacency, clusters,
                                             self.sim_config)
        for i in self.fit_traces:
            oracle.check_fit_delta(root / f"fit_{i:04d}" / "delta_scan.csv", psi[i], adjacency)
        return oracle.check_theory_rows(root / "sim" / "theory_comparison.csv", prediction, clusters,
                                        mu_stats)

    @staticmethod
    def discard(result):
        shutil.rmtree(result["dir"], ignore_errors=True)


WORKLOADS = {
    "two_community": two_community,
    "three_community": three_community,
    "cli_roundtrip": lambda seed: CliRoundTrip(),
}


def build(name, seed):
    return WORKLOADS[name](seed)

