"""blocklearn benchmark: one workload, one run, one JSON line.

    python3 perfbench/run.py --workload two_community --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  A run repeats whole rounds of its workload until ``--seconds``
have passed, checks the first round's outputs against an independent
recomputation (``oracle.py``) and every later round for bitwise equality with
the first, and prints the end-to-end metrics (``--trace 0``) or the
per-layer metrics of a traced run (``--trace 1``) as the last stdout line.
Everything runs serially: one process at a time, one BLAS/OpenMP thread.
"""

from __future__ import annotations

import os

# before numpy is imported, here and in every process this run starts
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
WORKLOADS = ("two_community", "three_community", "cli_roundtrip")
SETUP_PROBES = 5
IMPORT_PROBES = 3
PROBE_TIMEOUT_S = 60


def _import_program():
    """Put ``src/`` first on the path and import the package from it."""
    if not (SRC / "blocklearn" / "__init__.py").is_file():
        sys.exit(f"perfbench: no blocklearn source under {SRC}; run from a source checkout")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import blocklearn

    if Path(blocklearn.__file__).resolve().parent != (SRC / "blocklearn").resolve():
        sys.exit(f"perfbench: imported blocklearn from {blocklearn.__file__}, not from {SRC}")
    return blocklearn


def machine_info():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cores": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _probe(workload, seed):
    """Body of a set-up probe process: import and build, then report ready."""
    _import_program()
    import workloads

    workloads.build(workload, seed)
    print("ready", flush=True)


def _timed_child(argv):
    """Seconds from starting a child to its first line of output."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        _, err = proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0 or not line.strip():
        raise RuntimeError(f"probe {argv[1:]} failed: {err.strip()[-500:]}")
    return elapsed, line


def setup_seconds(workload, seed):
    """Median, over fresh processes, of process start to ready-to-time:
    interpreter start, ``import blocklearn`` and building the workload."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--probe", workload, "--seed", str(seed)]
    return statistics.median(_timed_child(argv)[0] for _ in range(SETUP_PROBES))


def import_seconds():
    """Median time of ``import blocklearn.cli`` in a fresh process."""
    code = ("import time; t = time.perf_counter(); import blocklearn.cli; "
            "print(time.perf_counter() - t)")
    return statistics.median(float(_timed_child([sys.executable, "-c", code])[1])
                             for _ in range(IMPORT_PROBES))


def measure(workload, seconds, trace, workdir):
    """Repeat whole rounds for ``seconds``; returns the run's record.

    Untraced runs time every round.  Traced runs alternate an untraced and a
    traced round, so the tracing overhead is measured within the run.
    """
    import oracle
    import tracing

    tracer = tracing.Tracer() if trace else None
    walls, untraced_walls, traced_rounds = [], [], []
    first = first_digest = None
    start = time.perf_counter()
    index = 0
    while True:
        round_dir = workdir / f"round{index}"
        if trace and index % 2 == 1:
            with tracer.traced_round(index):
                result = workload.run_round(round_dir, tracer)
            traced_rounds.append(index)
        else:
            t0 = time.perf_counter()
            # False: untraced, but in-process like the traced rounds
            result = workload.run_round(round_dir, False if trace else None)
            (untraced_walls if trace else walls).append(time.perf_counter() - t0)
        digest = workload.digest(result)
        if first is None:
            first, first_digest = result, digest
        else:
            oracle.require(digest == first_digest, f"round {index} differs from round 0 (same inputs)")
            workload.discard(result)
        index += 1
        if time.perf_counter() - start >= seconds and (not trace or traced_rounds):
            break
    # the CLI workload reports its largest blocklearn child, the others this process
    rss_kb = getattr(workload, "peak_rss_kb", None) or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "rounds": index,
        "walls": walls,
        "untraced_walls": untraced_walls,
        "traced_rounds": traced_rounds,
        "tracer": tracer,
        "first": first,
        "peak_rss_mb": rss_kb / 1024.0,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe:
        return _probe(args.probe, args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    _import_program()
    import oracle
    import workloads

    machine = machine_info()
    print("machine " + json.dumps(machine), flush=True)
    setup_s = None if args.trace else setup_seconds(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed)
    workdir = OUT / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        run = measure(workload, args.seconds, bool(args.trace), workdir)
        correct, failed_per_round = True, 0
        try:
            failed_per_round = workload.check(run["first"]) + workload.failed(run["first"])
            if args.trace:
                error = run["tracer"].nesting_error()
                oracle.require(error is None, f"trace: {error}")
        except oracle.CheckFailed as exc:
            correct = False
            print(f"check failed: {exc}", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = run["rounds"]
    if args.trace:
        import tracing

        layer = tracing.layer_metrics(run["tracer"], run["traced_rounds"], workload.replicate_steps,
                                      run["untraced_walls"], import_seconds())
        run["tracer"].write(OUT / f"spans-{args.workload}-seed{args.seed}.json", machine)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        wall = statistics.median(run["walls"])
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "replicate_steps_per_s": {"value": workload.replicate_steps / wall, "unit": "1/s"},
            "peak_rss_mb": {"value": run["peak_rss_mb"], "unit": "MB"},
        }
    walls = run["walls"] or run["untraced_walls"]
    print(f"rounds {rounds}, operations per round {workload.operations}, failed per round "
          f"{failed_per_round}, round walls {' '.join(f'{w:.3f}' for w in walls)}", flush=True)
    print(json.dumps({
        "correct": correct,
        "attempted": rounds * workload.operations,
        "failed": rounds * failed_per_round,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
