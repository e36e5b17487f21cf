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
from pathlib import Path

import numpy as np

from . import __version__
from .exceptions import BlocklearnError
from .graphs import (
    BlockModel,
    SbmParams,
    load_matrix_csv,
    load_network,
    sample_sbm,
    save_matrix_csv,
    save_network,
)
from .harness import (
    ExperimentConfig,
    compare_theory,
    resolve_inputs,
    run_experiment,
    write_manifest,
)
from .inverse import BeliefSeries, scan_delta
from .learning import write_rows
from .theory import asymmetric_delta_thresholds, expected_log_ratio, symmetric_delta_threshold


def _parse_float_list(text):
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_int_list(text):
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _parse_grid(text):
    if ":" in text:
        start, stop, step = (float(tok) for tok in text.split(":"))
        if step == 0:
            raise ValueError(f"grid step must be nonzero, got {text!r}")
        return np.arange(start, stop + step / 2, step)
    return np.asarray(_parse_float_list(text))


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
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_network(out / "network.txt", network)
    save_matrix_csv(out / "combination.csv", network.combination)
    write_manifest(out, "generate", ["network.txt", "combination.csv"])
    print(f"wrote network with {network.size} agents to {out} (retries={network.retries})")
    return 0


def _load_config(args, require_out=False):
    # flags are applied before the config is built, so a null burn_in
    # follows a --delta override
    config = ExperimentConfig.from_json(
        args.config,
        base_seed=args.seed,
        out_dir=args.out,
        replicates=args.replicates,
        delta=args.delta,
        estimator=args.estimator,
        n_jobs=args.jobs,
        fixed_graph=args.fixed_graph or None,
    )
    if require_out and not config.out_dir:
        raise ValueError("an output directory is required (--out or out_dir in the config)")
    return config


def _cmd_simulate(args):
    config = _load_config(args, require_out=True)
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "thresholds.json").write_text(text + "\n")
        write_manifest(out, "thresholds", ["thresholds.json"])
    return 0


def _cmd_predict(args):
    config = _load_config(args)
    source, clusters, profile = resolve_inputs(config)
    prediction = expected_log_ratio(source, profile, config.delta, config.pair)
    print(json.dumps({"cluster_means": prediction.cluster_means(clusters)}, indent=2))
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "prediction.json", "w") as fh:
            json.dump(prediction.to_json(), fh, indent=2)
        write_manifest(out, "predict", ["prediction.json"])
    return 0


def _cmd_fit_delta(args):
    grid = _parse_grid(args.grid)
    if args.combination:
        combination = load_matrix_csv(args.combination)
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
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        with open(out / "delta_scan.csv", "w", newline="") as fh:
            fh.write("delta,fit_error\r\n")
            if result.traditional_error is not None:
                fh.write("0.0,%.17g\r\n" % result.traditional_error)  # delta 0: traditional
            write_rows(fh, "%.17g,%.17g\r\n", [result.deltas, result.errors])
        write_manifest(out, "fit-delta", ["delta_scan.csv"])
    return 0


def _cmd_verify(args):
    # imported here, so that the other subcommands do not compile the suites
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
        p.add_argument("--replicates", type=int)
        p.add_argument("--delta", type=float)
        p.add_argument("--fixed-graph", action="store_true")
        p.add_argument("--estimator", choices=("mu", "psi"))
        p.add_argument("--jobs", type=int,
                       help="accepted and ignored: replicates run batched in one process")

    sim = sub.add_parser("simulate", help="run a Monte Carlo experiment from a config file")
    _add_config_flags(sim)
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
    fit.add_argument("--trace", required=True, help="trace CSV (iter, agent, log_ratio columns)")
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
