"""Command-line interface.

Subcommands: generate (emit an SBM network file), simulate (run a configured
Monte Carlo experiment), thresholds (step-size bounds for given parameters),
predict (steady-state log-ratio table), fit-delta (step-size scan on a trace
file), verify (built-in property/oracle suites).
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial

import numpy as np

from . import __version__
from .exceptions import BlocklearnError, MalformedFile
from .graphs import (
    BlockModel,
    SbmParams,
    load_matrix_csv,
    load_network,
    sample_sbm,
    save_matrix_csv,
    save_network,
)
from .writers import text_column, write_directory, write_table

# A subcommand imports the layers above ``graphs`` itself, so that each
# command loads only the code it runs.  These three are looked up in this
# module's namespace, where perfbench/tracing.py wraps them (with
# ``sample_sbm``); each imports its layer when first called.


def run_experiment(*args, **kwargs):
    from .harness import run_experiment
    return run_experiment(*args, **kwargs)


def expected_log_ratio(*args, **kwargs):
    from .theory import expected_log_ratio
    return expected_log_ratio(*args, **kwargs)


def scan_delta(*args, **kwargs):
    from .inverse import scan_delta
    return scan_delta(*args, **kwargs)


def _parse_float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_grid(text):
    try:
        if ":" not in text:
            grid = np.asarray(_parse_float_list(text))
        else:
            start, stop, step = (float(tok) for tok in text.split(":"))
            grid = np.arange(start, stop + step / 2, step) if step else None
    except ValueError:
        grid = np.empty(0)
    if grid is None:
        raise ValueError(f"--grid step must be nonzero, got {text!r}")
    if not grid.size:
        raise ValueError(f"--grid takes start:stop:step or a comma list of numbers, got {text!r}")
    return grid


def _add_sbm_flags(parser):
    for name in SbmParams.FIELDS:
        parser.add_argument(f"--{name}", type=int if name in ("n0", "n1") else float)


def _sbm_params(args):
    """The two-community law of the six SBM flags; ValueError names the missing ones."""
    fields = {name: getattr(args, name) for name in SbmParams.FIELDS}
    missing = [name for name, value in fields.items() if value is None]
    if missing:
        raise ValueError(f"two-community mode needs {', '.join('--' + m for m in missing)}")
    return SbmParams(**fields)


def _cmd_generate(args):
    if args.sizes:
        if args.p is None or args.q is None:
            raise ValueError("k-community mode needs --sizes, --p and --q")
        sizes = _parse_int_list(args.sizes)
        intra = _parse_float_list(args.p)
        if len(intra) == 1:
            intra = intra * len(sizes)
        if len(intra) != len(sizes):
            raise ValueError("--p must list one probability per community (or a single value)")
        probs = np.full((len(sizes), len(sizes)), args.q)
        np.fill_diagonal(probs, intra)
        law = BlockModel(sizes=tuple(sizes), probs=probs)
    else:
        law = _sbm_params(args)
    network = sample_sbm(law, seed=args.seed, max_retries=args.max_retries)
    write_directory(args.out, "generate", [
        ("network.txt", partial(save_network, network=network)),
        ("combination.csv", partial(save_matrix_csv, matrix=network.combination))])
    print(f"wrote network with {network.size} agents to {args.out} (retries={network.retries})")
    return 0


def _load_config(args, **overrides):
    from .config import ExperimentConfig

    # flags are applied before the config is built, so a null burn_in
    # follows a --delta override
    return ExperimentConfig.from_json(
        args.config,
        base_seed=args.seed,
        out_dir=args.out,
        delta=args.delta,
        fixed_graph=args.fixed_graph or None,
        **overrides,
    )


def _cmd_simulate(args):
    from .harness import compare_theory

    config = _load_config(args, replicates=args.replicates, estimator=args.estimator,
                          n_jobs=args.jobs)
    if not config.out_dir:
        raise ValueError("an output directory is required (--out or out_dir in the config)")
    result = run_experiment(config)
    comparison = None
    if config.strategy == "asl":
        # a run on one graph is compared with the prediction for that graph, a
        # run that redraws the graph with the graph-averaged one
        prediction = expected_log_ratio(result.network, result.profile, config.delta, config.pair)
        comparison = compare_theory(result, prediction)
    result.write_outputs(config.out_dir, comparison=comparison)
    for cluster, stats in result.cluster_statistics("mu").items():
        print(f"cluster {cluster}: mean log-ratio {stats['mean']:+.4f} (se {stats['stderr']:.4f})")
    if result.failures:
        print(f"{len(result.failures)} replicate(s) failed", file=sys.stderr)
    return 0


def _cmd_thresholds(args):
    from .theory import asymmetric_delta_thresholds, symmetric_delta_threshold

    report = {}
    if args.p is not None and args.q is not None:
        report["delta_min_symmetric"] = symmetric_delta_threshold(args.d0, args.d1, args.p, args.q)
    if any(getattr(args, name) is not None for name in SbmParams.FIELDS):
        params = _sbm_params(args)
        report["asymmetric"] = asymmetric_delta_thresholds(params, args.d0, args.d1).to_json()
    if not report:
        raise ValueError("provide --p/--q for the symmetric bound and/or full SBM parameters")
    text = json.dumps(report, indent=2)
    print(text)
    if args.out:
        write_directory(args.out, "thresholds", [("thresholds.json", text + "\n")])
    return 0


def _cmd_predict(args):
    from .config import resolve_inputs

    config = _load_config(args)
    source, clusters, profile = resolve_inputs(config)
    prediction = expected_log_ratio(source, profile, config.delta, config.pair)
    print(json.dumps({"cluster_means": prediction.cluster_means(clusters)}, indent=2))
    if args.out:
        write_directory(args.out, "predict",
                        [("prediction.json", json.dumps(prediction.to_json(), indent=2))])
    return 0


def _cmd_fit_delta(args):
    from .inverse import BeliefSeries

    grid = _parse_grid(args.grid)
    if args.combination:
        combination = load_matrix_csv(args.combination)
        bad = ~(combination >= 0).all(axis=0) | ~(np.abs(combination.sum(axis=0) - 1.0) <= 1e-9)
        if bad.any():  # a NaN fails both tests; 1e-9 is Network's tolerance
            raise MalformedFile(f"{args.combination}: column {bad.argmax()} is not a combination "
                                "column: its entries must be nonnegative and sum to 1")
    elif args.network:
        combination = load_network(args.network).combination
    else:
        raise ValueError("provide --network or --combination")
    series = BeliefSeries.from_trace_csv(args.trace, split_index=args.split)
    result = scan_delta(series, combination, grid, include_traditional=args.traditional)
    payload = {
        "best_delta": result.best_delta,
        "best_error": result.best_error,
        "traditional_error": result.traditional_error,
    }
    print(json.dumps(payload, indent=2))
    if args.out:
        # the traditional fit comes first, as the row of delta 0.0
        traditional = [] if result.traditional_error is None else [
            [text_column(["0.0"]), [result.traditional_error]]]
        write_directory(args.out, "fit-delta", [("delta_scan.csv", lambda path: write_table(
            path, ["delta", "fit_error"], *traditional, [result.deltas, result.errors]))])
    return 0


def _cmd_verify(args):
    from .verify import run_all

    results = run_all(names=args.suite or None)
    if not results:
        raise ValueError(f"no suites matched {args.suite}")
    failed = 0
    for res in results:
        status = "PASS" if res.passed else "FAIL"
        print(f"{status} {res.name}: {res.detail}")
        failed += not res.passed
    return 1 if failed else 0


def build_parser():
    parser = argparse.ArgumentParser(prog="blocklearn", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="sample an SBM network and write it to disk")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True)
    _add_sbm_flags(gen)
    gen.add_argument("--sizes", help="comma list of community sizes (k-community mode)")
    gen.add_argument("--p", help="comma list of intra-community probabilities")
    gen.add_argument("--q", type=float, help="between-community probability (k-community mode)")
    gen.add_argument("--max-retries", type=int, default=100)
    gen.set_defaults(func=_cmd_generate)

    def _add_config_flags(p):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--seed", type=int)
        p.add_argument("--out")
        p.add_argument("--delta", type=float)
        p.add_argument("--fixed-graph", action="store_true")

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config file")
    _add_config_flags(sim)
    sim.add_argument("--replicates", type=int)
    sim.add_argument("--estimator", choices=("mu", "psi"))
    sim.add_argument("--jobs", type=int,
                     help="accepted and ignored: replicates run batched in one process")
    sim.set_defaults(func=_cmd_simulate)

    thr = sub.add_parser("thresholds", help="step-size thresholds for given parameters")
    thr.add_argument("--d0", type=float, required=True)
    thr.add_argument("--d1", type=float, required=True)
    thr.add_argument("--p", type=float)
    thr.add_argument("--q", type=float)
    _add_sbm_flags(thr)
    thr.add_argument("--out")
    thr.set_defaults(func=_cmd_thresholds)

    pred = sub.add_parser("predict", help="steady-state log-ratio prediction table")
    _add_config_flags(pred)
    pred.set_defaults(func=_cmd_predict)

    fit = sub.add_parser("fit-delta", help="scan step sizes against a recorded trace")
    fit.add_argument("--trace", required=True, help="trace CSV (iter or step, agent, log_ratio columns)")
    fit.add_argument("--network", help="network text file (averaging-rule weights)")
    fit.add_argument("--combination", help="explicit combination matrix CSV")
    fit.add_argument("--grid", default="0.025:0.975:0.025", help="start:stop:step or comma list")
    fit.add_argument("--split", type=int, help="train/validation split index (default: half)")
    fit.add_argument("--traditional", action="store_true", help="also report the step-size-free fit")
    fit.add_argument("--out")
    fit.set_defaults(func=_cmd_fit_delta)

    ver = sub.add_parser("verify", help="run the built-in property/oracle suites")
    ver.add_argument("--suite", action="append", help="run only the named suite (repeatable)")
    ver.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (BlocklearnError, ValueError, OSError) as exc:
        print(json.dumps({"error": type(exc).__name__, "detail": str(exc)}), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
