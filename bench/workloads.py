"""The benchmark's workloads: seeded inputs, one timed operation, output checks.

Each workload holds a small fixed list of inputs made from the seed and runs
them in turn, one operation at a time (a closed loop with one caller).  An
operation calls ewselect through the module attributes its users call, so the
tracer can wrap them.  ``check`` runs outside the timed region; it returns
the number of failed units, a digest of the outputs (equal inputs must give
byte-identical outputs) and, for the exponential-weights selector, one
(exact support, sup-norm error, false positives) row per fit.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import itertools
import math
import os

import numpy as np

import ewselect.baselines
import ewselect.cli
import ewselect.diagnostics
import ewselect.experiments
import ewselect.posterior
from ewselect.baselines import L0Config
from ewselect.data import Dataset
from ewselect.enumeration import subset_count, subset_index_array
from ewselect.experiments import ExperimentSpec
from ewselect.mcmc import default_threshold, threshold_coefficients
# The dense references the checks use are bound here, before the tracer
# replaces any module attribute, so checks never run through a wrapper.
from ewselect.diagnostics import subset_min_singular
from ewselect.posterior import log_posterior_unnorm
from ewselect.priors import PosteriorConfig, log_prior_table, practical_lambda
from ewselect.subsets import residual_ss


def _rng(seed: int, tag: str, k: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence([seed, int.from_bytes(tag.encode(), "little"), k]))


def _seed_int(rng: np.random.Generator) -> int:
    return int(rng.integers(1, 2**31 - 1))


def planted_design(rng, n: int, p: int, s: int):
    """Gaussian design, s unit coefficients at random columns, SNR 9.

    Columns are rescaled to ||X_j||^2 = n, the convention the selector
    assumes; sigma^2 = ||X beta||^2 / (9 n).
    """
    X = rng.standard_normal((n, p))
    X *= math.sqrt(n) / np.linalg.norm(X, axis=0)
    beta = np.zeros(p)
    support = np.sort(rng.choice(p, size=s, replace=False))
    beta[support] = 1.0
    mean = X @ beta
    sigma = math.sqrt(float(mean @ mean) / (9.0 * n))
    y = mean + sigma * rng.standard_normal(n)
    return X, y, beta, sigma


def _quality_row(beta_hat, support_hat, beta_true):
    true = set(np.flatnonzero(beta_true).tolist())
    hat = set(int(j) for j in support_hat)
    linf = float(np.max(np.abs(np.asarray(beta_hat) - beta_true)))
    return hat == true, linf, len(hat - true)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else repr(part).encode())
    return h.hexdigest()


def _sample_subsets(rng, p: int, sizes, count: int) -> list[tuple[int, ...]]:
    return [tuple(sorted(rng.choice(p, size=int(rng.choice(sizes)),
                                    replace=False).tolist()))
            for _ in range(count)]


class Sweep:
    """The paper's simulation table: run_experiment + emit at (100, 200, 5)."""

    name = "sweep"
    n, p, s = 100, 200, 5
    reps = 20          # replications per operation
    inputs = 2         # distinct specs, each with its own seed

    def __init__(self, seed: int, workdir: str):
        self.workdir = workdir
        self.specs = [ExperimentSpec(n=self.n, p=self.p, sparsity=self.s,
                                     reps=self.reps,
                                     seed=_seed_int(_rng(seed, self.name, k)),
                                     methods=("ew", "lasso", "l0"))
                      for k in range(self.inputs)]

    def units(self, k: int) -> int:
        return self.reps

    items = units

    def run(self, k: int):
        out_dir = os.path.join(self.workdir, f"sweep{k}")
        summary = ewselect.experiments.run_experiment(self.specs[k], jobs=1)
        written = ewselect.experiments.emit(summary, out_dir)
        return summary, out_dir, written

    def check(self, k: int, result):
        summary, out_dir, written = result
        spec = self.specs[k]
        bad = {r.rep for r in summary.records if not r.ok}
        expected = {(rep, m) for rep in range(spec.reps) for m in spec.methods}
        if {(r.rep, r.method) for r in summary.records} != expected:
            return spec.reps, "", []
        by_key = {(r.rep, r.method): r for r in summary.records}
        try:
            with open(os.path.join(out_dir, "reps.csv"), newline="") as fh:
                rows = list(csv.DictReader(fh))
            with open(os.path.join(out_dir, "summary.csv"), newline="") as fh:
                summary_rows = list(csv.DictReader(fh))
            if len(rows) != len(expected) or len(summary_rows) != len(spec.methods):
                raise ValueError("row count")
            for row in rows:
                rec = by_key[(int(row["rep"]), row["method"])]
                linf = float(row["linf_error"])
                if (int(row["ok"]) != 1 or not math.isfinite(linf)
                        or linf != rec.linf
                        or int(row["false_positives"]) != rec.false_positives):
                    bad.add(rec.rep)
            for row in summary_rows:
                if not math.isfinite(float(row["mean_linf"])):
                    raise ValueError("summary")
        except (OSError, KeyError, ValueError):
            return spec.reps, "", []
        blobs = []
        for path in sorted(written):
            with open(path, "rb") as fh:
                blobs.append(fh.read())
        quality = [(r.false_positives == 0 and r.true_positives == spec.sparsity,
                    r.linf, r.false_positives)
                   for r in summary.records if r.method == "ew" and r.ok]
        return len(bad), _digest(*blobs), quality


class FitWide:
    """`ewselect fit FILE --sigma S --seed K` on CSV files at (400, 5000, 5)."""

    name = "fit-wide"
    n, p, s = 400, 5000, 5
    inputs = 2

    def __init__(self, seed: int, workdir: str):
        self.cases = []
        for k in range(self.inputs):
            rng = _rng(seed, self.name, k)
            X, y, beta, sigma = planted_design(rng, self.n, self.p, self.s)
            path = os.path.join(workdir, f"fit{k}.csv")
            with open(path, "w") as fh:
                fh.write(",".join(["y"] + [f"x{j}" for j in
                                           range(1, self.p + 1)]) + "\n")
                np.savetxt(fh, np.column_stack([y, X]), fmt="%.17g",
                           delimiter=",")
            self.cases.append((path, beta, sigma, _seed_int(rng)))

    def units(self, k: int) -> int:
        return 1

    items = units

    def run(self, k: int):
        path, _, sigma, chain_seed = self.cases[k]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = ewselect.cli.main(["fit", path, "--sigma", repr(sigma),
                                      "--seed", str(chain_seed)])
        return code, out.getvalue(), err.getvalue()

    def check(self, k: int, result):
        code, out, _ = result
        beta_true = self.cases[k][1]
        if code != 0:
            return 1, "", []
        beta = np.zeros(self.p)
        try:
            rows = list(csv.reader(io.StringIO(out)))
            if rows[0] != ["index", "coefficient"]:
                raise ValueError("header")
            idx = [int(r[0]) for r in rows[1:]]
            vals = [float(r[1]) for r in rows[1:]]
        except (IndexError, ValueError):
            return 1, "", []
        if (any(j < 0 or j >= self.p for j in idx) or idx != sorted(set(idx))
                or len(idx) > self.n // 2
                or not all(math.isfinite(v) for v in vals)):
            return 1, "", []
        beta[idx] = vals
        return 0, _digest(out.encode()), [_quality_row(beta, idx, beta_true)]


class ScanEnum:
    """Exhaustive enumeration, exact estimators and exhaustive l0 at p = 20."""

    name = "scan-enum"
    n, p, s, cap = 100, 20, 3, 7
    inputs = 2
    samples = 64       # subsets compared with the dense references

    def __init__(self, seed: int, workdir: str):
        self.cases = []
        for k in range(self.inputs):
            rng = _rng(seed, self.name, k)
            X, y, beta, sigma = planted_design(rng, self.n, self.p, self.s)
            data = Dataset(X, y, sigma)
            lam = practical_lambda(self.p)
            pcfg = PosteriorConfig(lam=lam, max_support=self.cap,
                                   sigma2=sigma * sigma)
            l0cfg = L0Config(lam=2.0 * sigma * sigma * lam,
                             max_support=self.cap, strategy="exhaustive")
            sample = _sample_subsets(rng, self.p, range(1, self.cap + 1),
                                     self.samples)
            self.cases.append((data, beta, pcfg, l0cfg, sample))

    def units(self, k: int) -> int:
        return 1

    def items(self, k: int) -> int:
        return subset_count(self.p, self.cap)

    def run(self, k: int):
        data, _, pcfg, l0cfg, _ = self.cases[k]
        # every CLI process builds the subset index afresh; so does every op
        subset_index_array.cache_clear()
        table = ewselect.posterior.enumerate_posterior(data, pcfg)
        est = ewselect.posterior.exact_estimators(table, data)
        l0 = ewselect.baselines.l0_select(data, l0cfg)
        return table, est, l0

    def check(self, k: int, result):
        table, est, (l0_support, l0_beta) = result
        data, beta_true, pcfg, l0cfg, sample = self.cases[k]
        total = sum(float(np.sum(b.prob)) for b in table.blocks)
        lp = log_prior_table(self.p, pcfg)

        def crit(J):
            return residual_ss(data, J) + l0cfg.lam * len(J)

        best_l0 = crit(l0_support)
        ok = (abs(total - 1.0) <= 1e-9
              and table.n_entries == subset_count(self.p, self.cap)
              and est.map_subset == table.map_subset
              and all(np.all(np.isfinite(a)) for a in
                      (est.mean_beta, est.map_beta, l0_beta)))
        for J in sample:
            ref = log_posterior_unnorm(data, J, pcfg)
            got = table.log_weight_of(J)
            rss = (lp[len(J)] - got) * 2.0 * pcfg.sigma2
            ok = ok and (abs(got - ref) <= 1e-9 * (1.0 + abs(ref))
                         and abs(rss - residual_ss(data, J))
                         <= 1e-9 * data.yty
                         and got <= table.map_log_weight
                         and best_l0 <= crit(J) + 1e-9 * data.yty)
        if not ok:
            return 1, "", []
        digest = _digest(table.log_normalizer, table.map_subset,
                         *(b.prob.tobytes() + b.log_weight.tobytes()
                           for b in table.blocks),
                         est.mean_beta.tobytes(),
                         est.restricted_mean_beta.tobytes(),
                         est.map_beta.tobytes(), l0_support, l0_beta.tobytes())
        tau = default_threshold(math.sqrt(pcfg.sigma2), self.n, self.p)
        beta, support = threshold_coefficients(est.mean_beta, tau)
        return 0, digest, [_quality_row(beta, support, beta_true)]


def _brute_force_extremes(data: Dataset, s: int) -> tuple[float, float]:
    """min and max over all size-s subsets of sigma_min(X_J / sqrt(n)),
    by one unpruned batched eigvalsh over every Gram block."""
    G = data.gram / data.n
    subs = np.array(list(itertools.combinations(range(data.p), s)))
    lam = np.linalg.eigvalsh(G[subs[:, :, None], subs[:, None, :]])[:, 0]
    return (math.sqrt(max(float(lam.min()), 0.0)),
            math.sqrt(max(float(lam.max()), 0.0)))


class ScanDiag:
    """min_/max_restricted_singular at (n, p, s) = (200, 50, 5), all subsets.

    The design is raw Gaussian, as a user's data reaches `diagnose` without
    --rescale; with unit-norm columns the max scan cannot prune at all.
    """

    name = "scan-diag"
    n, p, s = 200, 50, 5
    cap = 2_200_000
    inputs = 2
    samples = 256
    # The sampled bounds cannot see a small error in the pruned scan, so the
    # first columns of each design, still enough subsets (C(30, 5) =
    # 142,506) to take the pruned path, are also checked exactly.
    exact_p = 30

    def __init__(self, seed: int, workdir: str):
        self.cases = []
        for k in range(self.inputs):
            rng = _rng(seed, self.name, k)
            X = rng.standard_normal((self.n, self.p))
            data = Dataset(X, rng.standard_normal(self.n))
            sample = _sample_subsets(rng, self.p, [self.s], self.samples)
            self.cases.append((data, sample))
        self.exact_checked = set()

    def units(self, k: int) -> int:
        return 1

    def items(self, k: int) -> int:
        return 2 * math.comb(self.p, self.s)

    def run(self, k: int):
        data = self.cases[k][0]
        subset_index_array.cache_clear()
        lo = ewselect.diagnostics.min_restricted_singular(data, self.s,
                                                          cap=self.cap)
        hi = ewselect.diagnostics.max_restricted_singular(data, self.s,
                                                          cap=self.cap)
        return lo, hi

    def check(self, k: int, result):
        lo, hi = result
        data, sample = self.cases[k]
        vals = [subset_min_singular(data, J) for J in sample]
        tol = 1e-9
        ok = (math.isfinite(lo) and math.isfinite(hi) and 0.0 <= lo <= hi
              and lo <= min(vals) + tol and hi >= max(vals) - tol)
        if ok and k not in self.exact_checked:
            self.exact_checked.add(k)
            part = Dataset(data.X[:, : self.exact_p], data.y)
            got = (ewselect.diagnostics.min_restricted_singular(part, self.s),
                   ewselect.diagnostics.max_restricted_singular(part, self.s))
            ref = _brute_force_extremes(part, self.s)
            ok = all(abs(g - r) <= 1e-12 for g, r in zip(got, ref))
        return (0, _digest(lo, hi), []) if ok else (1, "", [])


WORKLOADS = {w.name: w for w in (Sweep, FitWide, ScanEnum, ScanDiag)}
