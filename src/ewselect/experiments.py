"""Simulation harness: instance generator, per-method fits, replication
runner, and CSV/SVG emitters.

Every random quantity derives from (spec.seed, rep_index) through a seed
sequence, so a run is reproducible byte for byte regardless of worker
count; replication results merge in rep order.
"""

from __future__ import annotations

import csv
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .baselines import L0Config, LassoConfig, default_lasso_penalty, \
    lasso_coordinate_descent, l0_select
from .data import Dataset
from .errors import DomainError, EwselectError
from .mcmc import ChainConfig, default_threshold, posterior_mean, run_chain, \
    threshold_coefficients
from .priors import PosteriorConfig, practical_lambda, support_cap
from .svgplot import boxplot_svg

METHOD_NAMES = ("ew", "lasso", "l0")
_SPEC_ALIASES = {"s_star": "sparsity", "t0": "burn_in", "t": "samples"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One simulation setting: dimensions, replications, methods, tuning."""

    n: int
    p: int
    sparsity: int
    reps: int = 100
    seed: int = 0
    methods: tuple[str, ...] = METHOD_NAMES
    lambda_kappa: float = 4.0
    chain: ChainConfig = field(default_factory=ChainConfig)
    normalize: bool = True
    lasso_a: float = 4.0
    lasso_a_grid: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0)
    tune_reps: int = 10
    threshold: float | None = None
    # Multiplies the true coefficients after the noise level is set, so
    # larger values mean genuinely stronger signal at unchanged noise.
    signal_scale: float = 1.0
    max_support: int | None = None

    def __post_init__(self):
        if self.n < 1 or self.p < 2:
            raise DomainError("need n >= 1 and p >= 2")
        if not (0 <= self.sparsity <= self.p):
            raise DomainError("sparsity must be in [0, p]")
        if self.reps < 1:
            raise DomainError("reps must be >= 1")
        if self.seed < 0:
            raise DomainError("seed must be >= 0")
        methods = tuple(self.methods)
        if any(m not in METHOD_NAMES for m in methods):
            raise DomainError(f"unknown methods in {self.methods}")
        repeated = [m for m in METHOD_NAMES if methods.count(m) > 1]
        if repeated:
            raise DomainError(f"method {repeated[0]!r} is listed more than once")
        object.__setattr__(self, "methods", methods)
        if not (math.isfinite(self.lambda_kappa) and self.lambda_kappa > 0):
            raise DomainError("lambda_kappa must be finite and > 0")
        if self.threshold is not None and not self.threshold >= 0:  # or NaN
            raise DomainError("threshold must be >= 0")
        if self.max_support is not None and self.max_support < 1:
            raise DomainError("max_support must be >= 1")
        if not (math.isfinite(self.lasso_a) and self.lasso_a > 0):
            raise DomainError("lasso_a must be finite and > 0")
        if not all(math.isfinite(a) and a > 0 for a in self.lasso_a_grid):
            raise DomainError("every lasso_a_grid entry must be finite and > 0")
        if not math.isfinite(self.signal_scale):
            raise DomainError("signal_scale must be finite")


def generate_instance(spec: ExperimentSpec, rep_index: int):
    """Draw (Dataset, beta_true, support_true) for one replication.

    X has i.i.d. standard normal entries, rescaled by default so every
    column satisfies ||X_j||^2 = n; the first `sparsity` coefficients are
    1 (times signal_scale) and the noise level makes the population
    signal-to-noise ratio 9: sigma^2 = ||X beta||^2 / (9 n).
    """
    if not (0 <= rep_index):
        raise DomainError("rep_index must be >= 0")
    rng = np.random.default_rng(np.random.SeedSequence([spec.seed, rep_index]))
    X = rng.standard_normal((spec.n, spec.p))
    if spec.normalize:
        X *= math.sqrt(spec.n) / np.linalg.norm(X, axis=0)
    beta = np.zeros(spec.p)
    beta[: spec.sparsity] = 1.0
    mean = X @ beta
    sigma = math.sqrt(float(mean @ mean) / (9.0 * spec.n))
    beta *= spec.signal_scale
    y = X @ beta + sigma * rng.standard_normal(spec.n)
    support = tuple(range(spec.sparsity))
    return Dataset(X, y, sigma), beta, support


@dataclass(frozen=True)
class MetricRecord:
    rep: int
    method: str
    ok: bool
    linf: float
    l2: float
    false_positives: int
    true_positives: int
    support_size: int


def compute_metrics(beta_hat, support_hat, beta_true, support_true,
                    rep: int = 0, method: str = "") -> MetricRecord:
    """Sup-norm and Euclidean errors plus support confusion counts."""
    beta_hat = np.asarray(beta_hat, dtype=np.float64)
    beta_true = np.asarray(beta_true, dtype=np.float64)
    if beta_hat.shape != beta_true.shape:
        raise DomainError("coefficient vectors must have equal length")
    diff = beta_hat - beta_true
    hat = set(int(v) for v in support_hat)
    true = set(int(v) for v in support_true)
    return MetricRecord(
        rep=rep, method=method, ok=True,
        linf=float(np.max(np.abs(diff))) if len(diff) else 0.0,
        l2=float(np.linalg.norm(diff)),
        false_positives=len(hat - true),
        true_positives=len(hat & true),
        support_size=len(hat),
    )


def _chain_seed(spec: ExperimentSpec, rep: int) -> int:
    ss = np.random.SeedSequence([spec.seed, rep, 7])
    return int(ss.generate_state(1, np.uint64)[0])


def ew_select(data: Dataset, sigma2: float, chain: ChainConfig | None = None,
              lambda_kappa: float = 4.0, max_support: int | None = None,
              threshold: float | None = None):
    """The thresholded posterior mean of the exponential-weights posterior:
    the chain at lam = practical_lambda(p, lambda_kappa), with the cap
    support_cap(n, max_support), then its ergodic mean cut at `threshold`
    (default default_threshold(sqrt(sigma2), n, p)).  Returns (support,
    beta, accumulators), in l0_select's order."""
    pcfg = PosteriorConfig(lam=practical_lambda(data.p, lambda_kappa),
                           max_support=support_cap(data.n, max_support),
                           sigma2=sigma2)
    acc = run_chain(data, pcfg, chain)
    tau = threshold if threshold is not None \
        else default_threshold(math.sqrt(sigma2), data.n, data.p)
    beta, support = threshold_coefficients(posterior_mean(acc), tau)
    return support, beta, acc


def fit_exponential_weights(data: Dataset, spec: ExperimentSpec, rep: int):
    """ew_select under the spec's settings; returns (beta, support)."""
    sigma = data.sigma
    if not sigma or sigma <= 0:
        raise DomainError("exponential-weights fit needs a positive sigma")
    support, beta, _ = ew_select(
        data, sigma * sigma, replace(spec.chain, seed=_chain_seed(spec, rep)),
        spec.lambda_kappa, spec.max_support, spec.threshold)
    return beta, support


def fit_lasso(data: Dataset, spec: ExperimentSpec, a: float):
    sigma = data.sigma
    if not sigma or sigma <= 0:
        raise DomainError("lasso default penalty needs a positive sigma")
    lam = default_lasso_penalty(sigma, data.n, data.p, a=a)
    beta = lasso_coordinate_descent(data, LassoConfig(lam=lam))
    return beta, tuple(int(j) for j in np.flatnonzero(beta))


def fit_l0_greedy(data: Dataset, spec: ExperimentSpec):
    sigma = data.sigma
    if not sigma or sigma <= 0:
        raise DomainError("subset-penalty fit needs a positive sigma")
    lam = 2.0 * sigma * sigma * practical_lambda(data.p, spec.lambda_kappa)
    support, beta = l0_select(data, L0Config(
        lam=lam, max_support=support_cap(data.n, spec.max_support),
        strategy="greedy"))
    return beta, support


def _failed_record(rep: int, method: str) -> MetricRecord:
    nan = float("nan")
    return MetricRecord(rep=rep, method=method, ok=False, linf=nan, l2=nan,
                        false_positives=-1, true_positives=-1, support_size=-1)


def _run_rep(spec: ExperimentSpec, rep: int, lasso_a: float) -> list[MetricRecord]:
    data, beta_true, support_true = generate_instance(spec, rep)
    out = []
    for method in spec.methods:
        try:
            if method == "ew":
                beta, support = fit_exponential_weights(data, spec, rep)
            elif method == "lasso":
                beta, support = fit_lasso(data, spec, lasso_a)
            else:
                beta, support = fit_l0_greedy(data, spec)
            out.append(compute_metrics(beta, support, beta_true, support_true,
                                       rep=rep, method=method))
        except (EwselectError, np.linalg.LinAlgError, FloatingPointError):
            out.append(_failed_record(rep, method))
    return out


def tune_lasso_multiplier(spec: ExperimentSpec) -> float:
    """Pick the penalty multiplier with the smallest mean sup-norm error on
    the first block of replications, then freeze it for the whole sweep."""
    if "lasso" not in spec.methods or not spec.lasso_a_grid or spec.tune_reps < 1:
        return spec.lasso_a
    block = min(spec.tune_reps, spec.reps)
    errs = [[] for _ in spec.lasso_a_grid]
    for rep in range(block):
        data, beta_true, _ = generate_instance(spec, rep)
        for a, err in zip(spec.lasso_a_grid, errs):
            try:
                beta, _ = fit_lasso(data, spec, a)
            except EwselectError:
                err.append(math.inf)
                continue
            err.append(float(np.max(np.abs(beta - beta_true))))
    best_a, best_err = spec.lasso_a, math.inf
    for a, err in zip(spec.lasso_a_grid, errs):
        mean_err = float(np.mean(err))
        if mean_err < best_err:
            best_a, best_err = a, mean_err
    return best_a


@dataclass(frozen=True)
class MethodSummary:
    method: str
    reps_ok: int
    mean_linf: float
    sd_linf: float
    mean_l2: float
    sd_l2: float
    mean_fp: float
    tp_rate: float


@dataclass
class ExperimentSummary:
    spec: ExperimentSpec
    lasso_a: float
    records: list[MetricRecord]
    methods: dict[str, MethodSummary]


def _summarize(spec: ExperimentSpec, records: Sequence[MetricRecord],
               method: str) -> MethodSummary:
    rows = [r for r in records if r.method == method and r.ok]
    if not rows:
        nan = float("nan")
        return MethodSummary(method, 0, nan, nan, nan, nan, nan, nan)
    linf = np.array([r.linf for r in rows])
    l2 = np.array([r.l2 for r in rows])
    fp = np.array([r.false_positives for r in rows], dtype=np.float64)
    if spec.sparsity > 0:
        tp = float(np.mean([r.true_positives / spec.sparsity for r in rows]))
    else:
        tp = 1.0
    sd = (lambda v: float(np.std(v, ddof=1)) if len(v) > 1 else 0.0)
    return MethodSummary(method, len(rows), float(np.mean(linf)), sd(linf),
                         float(np.mean(l2)), sd(l2), float(np.mean(fp)), tp)


def run_experiment(spec: ExperimentSpec, jobs: int = 1) -> ExperimentSummary:
    """Run every replication for every requested method.

    Per-method failures become flagged rows and never abort the sweep.
    With jobs > 1, replications run in separate processes; results are
    collected in rep order, so the output is identical to a serial run.
    """
    lasso_a = tune_lasso_multiplier(spec)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            batches = list(pool.map(_run_rep, [spec] * spec.reps,
                                    range(spec.reps),
                                    [lasso_a] * spec.reps, chunksize=1))
    else:
        batches = [_run_rep(spec, rep, lasso_a) for rep in range(spec.reps)]
    records = [rec for batch in batches for rec in batch]
    methods = {m: _summarize(spec, records, m) for m in spec.methods}
    return ExperimentSummary(spec=spec, lasso_a=lasso_a, records=records,
                             methods=methods)


_REPS_HEADER = ["rep", "method", "ok", "linf_error", "l2_error",
                "false_positives", "true_positives", "support_size"]
_SUMMARY_HEADER = ["method", "reps_ok", "mean_linf", "sd_linf", "mean_l2",
                   "sd_l2", "mean_fp", "tp_rate", "lasso_a"]


def _g17(v: float) -> str:
    return f"{float(v):.17g}"


def emit(summary: ExperimentSummary, out_dir) -> list[str]:
    """Write summary.csv, reps.csv, and per-metric boxplots; returns paths."""
    os.makedirs(out_dir, exist_ok=True)
    written = []
    reps_path = os.path.join(out_dir, "reps.csv")
    with open(reps_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_REPS_HEADER)
        for r in summary.records:
            w.writerow([r.rep, r.method, int(r.ok), _g17(r.linf),
                        _g17(r.l2), r.false_positives, r.true_positives,
                        r.support_size])
    written.append(reps_path)
    summary_path = os.path.join(out_dir, "summary.csv")
    with open(summary_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(_SUMMARY_HEADER)
        for m in summary.spec.methods:
            s = summary.methods[m]
            w.writerow([s.method, s.reps_ok, _g17(s.mean_linf),
                        _g17(s.sd_linf), _g17(s.mean_l2), _g17(s.sd_l2),
                        _g17(s.mean_fp), _g17(s.tp_rate),
                        _g17(summary.lasso_a)])
    written.append(summary_path)
    for metric, label in (("linf", "sup-norm error"),
                          ("l2", "Euclidean error"),
                          ("fp", "false positives")):
        groups = {}
        for m in summary.spec.methods:
            vals = [getattr(r, {"linf": "linf", "l2": "l2",
                                "fp": "false_positives"}[metric])
                    for r in summary.records if r.method == m and r.ok]
            if vals:
                groups[m] = vals
        if not groups:
            continue
        path = os.path.join(out_dir, f"boxplot_{metric}.svg")
        with open(path, "w") as fh:
            fh.write(boxplot_svg(groups, title=label, ylabel=label))
        written.append(path)
    return written


def parse_spec_file(path) -> ExperimentSpec:
    """Read a key=value spec file ('#' starts a comment) into an ExperimentSpec.

    A key given twice, directly or through its alias, is an error."""
    raw: dict[str, str] = {}
    seen: dict[str, int] = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DomainError(f"{path}:{lineno}: expected key=value")
            key, val = (part.strip() for part in line.split("=", 1))
            key = key.lower()
            name = _SPEC_ALIASES.get(key, key)
            if name in seen:
                raise DomainError(f"{path}:{lineno}: spec key {key!r} repeats "
                                  f"line {seen[name]}")
            seen[name] = lineno
            raw[key] = val
    return spec_from_mapping(raw)


def _number(kind, key: str, text: str):
    """kind(text), or a DomainError that names the spec key."""
    try:
        return kind(text)
    except ValueError:
        raise DomainError(f"bad value for spec key {key!r}: {text!r}") from None


def spec_from_mapping(raw: dict) -> ExperimentSpec:
    fields = {}
    chain_fields = {}
    bool_values = {"true": True, "false": False, "1": True, "0": False,
                   "yes": True, "no": False}
    for given, val in raw.items():
        key = _SPEC_ALIASES.get(given, given)
        if key in fields or key in chain_fields:
            raise DomainError(f"spec key {given!r} sets {key!r} a second time")
        if key in ("n", "p", "sparsity", "reps", "seed", "tune_reps",
                   "max_support"):
            fields[key] = _number(int, given, val)
        elif key in ("lambda_kappa", "lasso_a", "signal_scale"):
            fields[key] = _number(float, given, val)
        elif key == "threshold":
            fields[key] = None if str(val).lower() in ("auto", "none") \
                else _number(float, given, val)
        elif key == "normalize":
            try:
                fields[key] = bool_values[str(val).lower()]
            except KeyError:
                raise DomainError(f"bad boolean for normalize: {val!r}") from None
        elif key == "methods":
            fields[key] = tuple(m.strip() for m in str(val).split(",") if m.strip())
        elif key == "lasso_a_grid":
            fields[key] = tuple(_number(float, given, v)
                                for v in str(val).split(",") if v.strip())
        elif key in ("burn_in", "samples", "chains"):
            chain_fields[key] = _number(int, given, val)
        else:
            raise DomainError(f"unknown spec key {key!r}")
    for req in ("n", "p", "sparsity"):
        if req not in fields:
            raise DomainError(f"spec file is missing {req!r}")
    if chain_fields:
        fields["chain"] = replace(ChainConfig(), **chain_fields)
    return ExperimentSpec(**fields)
