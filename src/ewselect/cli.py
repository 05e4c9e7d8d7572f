"""Command-line interface.

Subcommands: fit (single dataset from CSV), experiment (replication sweep
from a spec file), diagnose (design diagnostics), lasso (one lasso fit).
Exit codes: 0 success, 2 validation error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import math
import sys
import warnings

import numpy as np

from .baselines import (LassoConfig, default_lasso_penalty,
                        estimate_noise_variance, lasso_coordinate_descent)
from .data import Dataset, rescale_columns
from .diagnostics import design_report
from .errors import (DomainError, NonFiniteError, NotConvergedError,
                     SingularError, TooLargeError)
from .experiments import emit, parse_spec_file, run_experiment
from .mcmc import (ChainConfig, default_threshold, posterior_mean, run_chain,
                   threshold_coefficients)
from .priors import PosteriorConfig, practical_lambda

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3


def _g17(v: float) -> str:
    return f"{float(v):.17g}"


def read_dataset_csv(path, sigma=None, rescale=False):
    """Load columns y, x1..xp from a CSV file with a header row.

    The header is parsed with the csv module; the numeric rows go through
    numpy's C reader in one call (optional double quotes, blank lines
    skipped, no comment character). Returns (Dataset, scales); scales is
    None unless rescale is set, in which case coefficients on the rescaled
    design divide by scales to return to original units.
    """
    with open(path, newline="") as fh:
        line = fh.readline()
        if not line:
            raise DomainError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([line]))]
        if len(set(header)) != len(header):
            raise DomainError(f"{path}: repeated column names in header")
        if "y" not in header:
            raise DomainError(f"{path}: missing 'y' column")
        x_names = [h for h in header if h != "y"]
        expected = [f"x{i}" for i in range(1, len(x_names) + 1)]
        if sorted(x_names) != sorted(expected):
            raise DomainError(
                f"{path}: predictor columns must be x1..x{len(x_names)}, got {x_names}")
        try:
            with warnings.catch_warnings():
                warnings.filterwarnings(
                    "ignore", "loadtxt: input contained no data", UserWarning)
                table = np.loadtxt(fh, delimiter=",", quotechar='"',
                                   comments=None, dtype=np.float64, ndmin=2)
        except ValueError as exc:
            if "number of columns changed" in str(exc):
                raise DomainError(f"{path}: ragged rows ({exc})") from None
            raise DomainError(f"{path}: non-numeric cell ({exc})") from None
    if table.shape[0] == 0:
        raise DomainError(f"{path}: no data rows")
    if table.shape[1] != len(header):
        raise DomainError(f"{path}: ragged rows")
    column = {name: i for i, name in enumerate(header)}
    y = table[:, column["y"]]
    X = table[:, [column[name] for name in expected]]
    scales = None
    if rescale:
        X, scales = rescale_columns(X)
    return Dataset(X, y, sigma), scales


def _write_coefficients(beta, scales, stream):
    w = csv.writer(stream)
    w.writerow(["index", "coefficient"])
    for j in np.flatnonzero(beta):
        value = beta[j] / scales[j] if scales is not None else beta[j]
        w.writerow([int(j), _g17(value)])


def _cmd_fit(args) -> int:
    data, scales = read_dataset_csv(args.data, sigma=args.sigma,
                                    rescale=args.rescale)
    sigma = args.sigma
    if sigma is None:
        sigma2 = estimate_noise_variance(data)
        sigma = math.sqrt(sigma2)
        print(f"estimated sigma = {_g17(sigma)}", file=sys.stderr)
    else:
        sigma2 = sigma * sigma
    if sigma2 <= 0:
        raise DomainError("noise variance must be positive to run the sampler")
    cap = args.sbar if args.sbar is not None else max(data.n // 2, 1)
    pcfg = PosteriorConfig(lam=practical_lambda(data.p, args.lambda_kappa),
                           max_support=cap, sigma2=sigma2)
    ccfg = ChainConfig(burn_in=args.t0, samples=args.t, seed=args.seed)
    acc = run_chain(data, pcfg, ccfg)
    mean = posterior_mean(acc)
    tau = args.threshold if args.threshold is not None \
        else default_threshold(sigma, data.n, data.p)
    beta, support = threshold_coefficients(mean, tau)
    print(f"selected support: {list(support)}", file=sys.stderr)
    print(f"acceptance rate: {acc.accept_rate:.4f}", file=sys.stderr)
    _write_coefficients(beta, scales, sys.stdout)
    return EXIT_OK


def _cmd_lasso(args) -> int:
    data, scales = read_dataset_csv(args.data, sigma=args.sigma,
                                    rescale=args.rescale)
    if args.lambda_l is not None:
        lam = args.lambda_l
    else:
        if args.sigma is None:
            raise DomainError("--a needs --sigma (or pass --lambda-l directly)")
        lam = default_lasso_penalty(args.sigma, data.n, data.p, a=args.a)
    beta = lasso_coordinate_descent(
        data, LassoConfig(lam=lam, max_iter=args.max_iter, tol=args.tol))
    print(f"lambda_l = {_g17(lam)}", file=sys.stderr)
    _write_coefficients(beta, scales, sys.stdout)
    return EXIT_OK


def _cmd_diagnose(args) -> int:
    data, _ = read_dataset_csv(args.data, rescale=args.rescale)
    sizes = [int(v) for v in args.s.split(",") if v.strip()]
    if not sizes:
        raise DomainError("--s must list at least one size")
    reports = [design_report(data, s, mode=args.mode, samples=args.samples,
                             seed=args.seed, sigma=args.sigma, lam=args.lam,
                             cap=args.cap)
               for s in sizes]
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow(["s", "min_singular", "max_singular", "mode", "samples",
                    "identifiable_2s", "signal_threshold"])
        for r in reports:
            w.writerow([r.s, _g17(r.min_singular), _g17(r.max_singular),
                        r.mode, r.samples if r.samples is not None else "",
                        "" if r.identifiable_2s is None else int(r.identifiable_2s),
                        "" if r.signal_threshold is None else _g17(r.signal_threshold)])
    else:
        import json
        for r in reports:
            print(json.dumps({
                "s": r.s, "min_singular": r.min_singular,
                "max_singular": r.max_singular, "mode": r.mode,
                "samples": r.samples, "identifiable_2s": r.identifiable_2s,
                "signal_threshold": r.signal_threshold}, sort_keys=True))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    spec = parse_spec_file(args.spec)
    summary = run_experiment(spec, jobs=args.jobs)
    written = emit(summary, args.out)
    for path in written:
        print(path, file=sys.stderr)
    for m in spec.methods:
        s = summary.methods[m]
        print(f"{m}: linf {s.mean_linf:.4g} (sd {s.sd_linf:.4g}), "
              f"fp {s.mean_fp:.4g}, tp rate {s.tp_rate:.4g}, ok {s.reps_ok}",
              file=sys.stderr)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="ewselect",
        description="Variable selection for sparse linear regression via an "
                    "exponential-weights posterior over supports.")
    sub = ap.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="sample the support posterior on one dataset")
    fit.add_argument("data", help="CSV with columns y, x1..xp")
    fit.add_argument("--lambda-kappa", type=float, default=4.0, dest="lambda_kappa")
    fit.add_argument("--sbar", type=int, default=None,
                     help="support cap (default n//2)")
    fit.add_argument("--sigma", type=float, default=None,
                     help="noise level; estimated from a greedy fit if omitted")
    fit.add_argument("--t0", type=int, default=3000, help="burn-in steps")
    fit.add_argument("--t", type=int, default=7000, help="recorded steps")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--threshold", type=float, default=None,
                     help="sparsifier cutoff (default sigma*sqrt(2 log p / n))")
    fit.add_argument("--rescale", action="store_true",
                     help="rescale columns to ||X_j||^2 = n; output stays in "
                          "original units")
    fit.set_defaults(func=_cmd_fit)

    lasso = sub.add_parser("lasso", help="one coordinate-descent lasso fit")
    lasso.add_argument("data")
    group = lasso.add_mutually_exclusive_group()
    group.add_argument("--lambda-l", type=float, default=None, dest="lambda_l")
    group.add_argument("--a", type=float, default=4.0,
                       help="multiplier in A*sigma*sqrt(log p / n)")
    lasso.add_argument("--sigma", type=float, default=None)
    lasso.add_argument("--max-iter", type=int, default=100_000)
    lasso.add_argument("--tol", type=float, default=1e-8)
    lasso.add_argument("--rescale", action="store_true")
    lasso.set_defaults(func=_cmd_lasso)

    diag = sub.add_parser("diagnose", help="design-matrix diagnostics")
    diag.add_argument("data")
    diag.add_argument("--s", required=True,
                      help="comma-separated subset sizes to probe")
    diag.add_argument("--mode", choices=("exact", "mc"), default="exact")
    diag.add_argument("--samples", type=int, default=10_000)
    diag.add_argument("--seed", type=int, default=0)
    diag.add_argument("--sigma", type=float, default=None)
    diag.add_argument("--lam", type=float, default=None)
    diag.add_argument("--cap", type=int, default=None)
    diag.add_argument("--format", choices=("csv", "jsonl"), default="csv")
    diag.add_argument("--rescale", action="store_true")
    diag.set_defaults(func=_cmd_diagnose)

    exp = sub.add_parser("experiment", help="run a replication sweep")
    exp.add_argument("--spec", required=True, help="key=value spec file")
    exp.add_argument("--out", required=True, help="output directory")
    exp.add_argument("--jobs", type=int, default=1)
    exp.set_defaults(func=_cmd_experiment)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, TooLargeError, NonFiniteError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (NotConvergedError, SingularError, np.linalg.LinAlgError,
            FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
