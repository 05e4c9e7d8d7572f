"""Spans around the public functions of each ewselect module, from outside.

The benchmark does not edit the package.  It replaces the module attributes
that callers look up (for example ``ewselect.mcmc.peek_rss_add``, which
``run_chain`` calls, or ``ewselect.cli.read_dataset_csv``, which the ``fit``
subcommand calls) with timing wrappers, and restores them afterwards.  The
layer of a span is the part of its name before the first dot, which is the
module the wrapped function belongs to.

Every call updates per-name aggregates (calls, inclusive and self time);
the first ``SPAN_CAP`` spans are also kept in full (id, parent, name, start,
end) so they can be written out when the run ends.
"""

from __future__ import annotations

import csv
import os
import time
from collections import defaultdict
from functools import cached_property

import ewselect.baselines
import ewselect.cli
import ewselect.diagnostics
import ewselect.enumeration
import ewselect.experiments
import ewselect.mcmc
import ewselect.posterior
import ewselect.subsets
from ewselect.data import Dataset
from ewselect.subsets import SubsetState

QUALITY_UNITS = {"support_exact_frac": "ratio", "linf_err_mean": "coef",
                 "fp_mean": "count"}

SPAN_CAP = 200_000   # spans kept in full; later ones only update the aggregates

LAYERS = ("cli", "data", "mcmc", "subsets", "baselines", "enumeration",
          "posterior", "diagnostics", "experiments")


def _add(key, amount):
    def hook(counters, args, result, pre):
        counters[key] += amount(args, result)
    return hook


def _chain_hook(counters, args, result, pre):
    counters["mcmc.proposals"] += result.proposals
    counters["mcmc.accepted"] += result.accepted


def _index_hook(counters, args, result, pre):
    # the builder is lru_cached: only calls that missed the cache build
    if ewselect.enumeration.subset_index_array.cache_info().misses > pre:
        counters["enumeration.index_bytes"] += result.nbytes


def _index_pre():
    return ewselect.enumeration.subset_index_array.cache_info().misses


def _l0_name(args, kwargs):
    cfg = args[1] if len(args) > 1 else kwargs["cfg"]
    return f"baselines.l0_{cfg.strategy}"


# (module, attribute, span name, hook, pre-call probe).  The module is the
# caller's, so the wrapper sits exactly where the caller looks the name up.
PATCHES = (
    (ewselect.cli, "main", "cli.main", None, None),
    (ewselect.cli, "read_dataset_csv", "cli.read_csv",
     _add("cli.read_bytes", lambda a, r: os.path.getsize(a[0])), None),
    (ewselect.cli, "run_chain", "mcmc.run_chain", _chain_hook, None),
    (ewselect.experiments, "run_chain", "mcmc.run_chain", _chain_hook, None),
    (ewselect.mcmc, "make_state", "subsets.make_state", None, None),
    (ewselect.mcmc, "peek_rss_add", "subsets.peek_add", None, None),
    (ewselect.mcmc, "peek_rss_remove", "subsets.peek_remove", None, None),
    (ewselect.mcmc, "update_add", "subsets.update_add", None, None),
    (ewselect.mcmc, "update_remove", "subsets.update_remove", None, None),
    # inside subsets: refactorization after drift or a rank-restoring
    # removal, and the SVD fallback for rank-deficient supports
    (ewselect.subsets, "make_state", "subsets.refactor", None, None),
    (ewselect.subsets, "residual_ss", "subsets.dense_fallback", None, None),
    (ewselect.experiments, "lasso_coordinate_descent", "baselines.lasso",
     None, None),
    (ewselect.experiments, "l0_select", _l0_name, None, None),
    (ewselect.baselines, "l0_select", _l0_name, None, None),
    (ewselect.posterior, "subset_index_array", "enumeration.index",
     _index_hook, _index_pre),
    (ewselect.baselines, "subset_index_array", "enumeration.index",
     _index_hook, _index_pre),
    (ewselect.diagnostics, "subset_index_array", "enumeration.index",
     _index_hook, _index_pre),
    (ewselect.enumeration, "gather_gram", "enumeration.gather",
     _add("enumeration.gather_bytes", lambda a, r: r.nbytes), None),
    (ewselect.diagnostics, "gather_gram", "enumeration.gather",
     _add("enumeration.gather_bytes", lambda a, r: r.nbytes), None),
    (ewselect.posterior, "batched_rss", "enumeration.batched_rss",
     _add("enumeration.rss_rows", lambda a, r: len(a[3])), None),
    (ewselect.baselines, "batched_rss", "enumeration.batched_rss",
     _add("enumeration.rss_rows", lambda a, r: len(a[3])), None),
    (ewselect.posterior, "batched_beta", "enumeration.batched_beta",
     _add("enumeration.beta_rows", lambda a, r: len(a[2])), None),
    (ewselect.posterior, "enumerate_posterior", "posterior.enumerate",
     None, None),
    (ewselect.posterior, "exact_estimators", "posterior.estimators",
     None, None),
    (ewselect.diagnostics, "min_restricted_singular", "diagnostics.min_scan",
     None, None),
    (ewselect.diagnostics, "max_restricted_singular", "diagnostics.max_scan",
     None, None),
    (ewselect.experiments, "run_experiment", "experiments.run", None, None),
    (ewselect.experiments, "generate_instance", "experiments.generate",
     None, None),
    (ewselect.experiments, "tune_lasso_multiplier", "experiments.tune_lasso",
     None, None),
    (ewselect.experiments, "emit", "experiments.emit", None, None),
    (Dataset, "__init__", "data.dataset", None, None),
    (SubsetState, "beta_sparse", "subsets.beta", None, None),
)


class Tracer:
    """Collects spans while installed; a no-op for code it does not wrap."""

    def __init__(self):
        self.spans: list[tuple] = []      # (id, parent id, name, start, end)
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl, self
        self.counters = defaultdict(float)
        self.top_level_s = 0.0
        self.unpatched: set[str] = set()
        self._stack: list[list] = []      # [span id, child time]
        self._next_id = 0
        self._saved: list[tuple] = []

    def wrap(self, fn, name, hook=None, pre=None):
        stack, stats, spans, counters = (self._stack, self.stats, self.spans,
                                         self.counters)
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            span_name = name if isinstance(name, str) else name(args, kwargs)
            sid = tracer._next_id
            tracer._next_id = sid + 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            before = pre() if pre is not None else None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                dur = t1 - t0
                st = stats[span_name]
                st[0] += 1
                st[1] += dur
                st[2] += dur - frame[1]
                if parent is not None:
                    parent[1] += dur
                else:
                    tracer.top_level_s += dur
                if sid < SPAN_CAP:
                    spans.append((sid, parent[0] if parent else -1, span_name,
                                  t0, t1))
            if hook is not None:
                hook(counters, args, result, before)
            return result

        return traced

    def install(self) -> None:
        for owner, attr, name, hook, pre in PATCHES:
            if attr not in vars(owner):
                self.unpatched.add(f"{owner.__name__}.{attr}")
                continue
            orig = vars(owner)[attr]
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self.wrap(orig, name, hook, pre))
        gram = vars(Dataset)["gram"]
        wrapped = cached_property(self.wrap(
            gram.func, "data.gram",
            _add("data.gram_bytes", lambda a, r: r.nbytes)))
        wrapped.__set_name__(Dataset, "gram")
        self._saved.append((Dataset, "gram", gram))
        Dataset.gram = wrapped

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def layer_self_s(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, (_, _, self_s) in self.stats.items():
            layer = name.split(".", 1)[0]
            out[layer] = out.get(layer, 0.0) + self_s
        return out

    def write_spans(self, path) -> None:
        """Spans as CSV (times in microseconds from the first span)."""
        origin = self.spans[0][3] if self.spans else 0.0
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["id", "parent", "name", "start_us", "end_us"])
            for sid, parent, name, t0, t1 in self.spans:
                w.writerow([sid, parent, name, f"{(t0 - origin) * 1e6:.1f}",
                            f"{(t1 - origin) * 1e6:.1f}"])

    def write_self_times(self, path, traced_wall_s: float) -> None:
        """Per-span calls and times plus self time per layer, as CSV."""
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["name", "calls", "inclusive_s", "self_s"])
            for name in sorted(self.stats):
                calls, incl, self_s = self.stats[name]
                w.writerow([name, calls, f"{incl:.6f}", f"{self_s:.6f}"])
            for layer, self_s in self.layer_self_s().items():
                w.writerow([f"layer:{layer}", "", "", f"{self_s:.6f}"])
            w.writerow(["layer:bench", "", "",
                        f"{traced_wall_s - self.top_level_s:.6f}"])


def per_layer_metrics(tracer: Tracer, units: float, traced_wall_s: float,
                      overhead_frac: float, quality: dict) -> dict:
    """The per-layer metrics, normalized per workload unit where stated."""
    st, c = tracer.stats, tracer.counters
    u = max(units, 1.0)

    def calls(name):
        return st[name][0] if name in st else 0

    def incl(name):
        return st[name][1] if name in st else 0.0

    def self_s(name):
        return st[name][2] if name in st else 0.0

    def per_call_us(name):
        return incl(name) / calls(name) * 1e6 if calls(name) else 0.0

    def ratio(a, b):
        return a / b if b else 0.0

    proposals = c["mcmc.proposals"]
    m = {
        "trace.overhead_frac": (overhead_frac, "ratio"),
        "cli.read_csv_s": (incl("cli.read_csv") / u, "s"),
        "cli.read_csv_mb_per_s": (ratio(c["cli.read_bytes"] / 1e6,
                                        incl("cli.read_csv")), "MB/s"),
        "data.dataset_s": (incl("data.dataset") / u, "s"),
        "data.gram_s": (incl("data.gram") / u, "s"),
        "data.gram_mb": (c["data.gram_bytes"] / 1e6 / u, "MB"),
        "mcmc.run_chain_s": (incl("mcmc.run_chain") / u, "s"),
        "mcmc.step_us": (ratio(incl("mcmc.run_chain") * 1e6, proposals), "us"),
        "mcmc.accept_frac": (ratio(c["mcmc.accepted"], proposals), "ratio"),
        "mcmc.memo_miss_frac": (ratio(calls("subsets.peek_add")
                                      + calls("subsets.peek_remove"),
                                      proposals), "ratio"),
    }
    for op in ("peek_add", "peek_remove", "update_add", "update_remove"):
        m[f"subsets.{op}_calls"] = (calls(f"subsets.{op}") / u, "count")
        m[f"subsets.{op}_us"] = (per_call_us(f"subsets.{op}"), "us")
    m["subsets.refactor_calls"] = (calls("subsets.refactor") / u, "count")
    m["subsets.dense_fallback_calls"] = (calls("subsets.dense_fallback") / u,
                                         "count")
    m.update({
        "baselines.lasso_s": (incl("baselines.lasso") / u, "s"),
        "baselines.lasso_calls": (calls("baselines.lasso") / u, "count"),
        "baselines.l0_greedy_s": (incl("baselines.l0_greedy") / u, "s"),
        "baselines.l0_exhaustive_s": (incl("baselines.l0_exhaustive") / u, "s"),
        "enumeration.index_build_s": (incl("enumeration.index") / u, "s"),
        "enumeration.index_mb": (c["enumeration.index_bytes"] / 1e6 / u, "MB"),
        "enumeration.gather_s": (incl("enumeration.gather") / u, "s"),
        "enumeration.gather_mb": (c["enumeration.gather_bytes"] / 1e6 / u,
                                  "MB"),
        "enumeration.batched_rss_us_per_subset": (
            ratio(incl("enumeration.batched_rss") * 1e6,
                  c["enumeration.rss_rows"]), "us"),
        "enumeration.batched_beta_us_per_subset": (
            ratio(incl("enumeration.batched_beta") * 1e6,
                  c["enumeration.beta_rows"]), "us"),
        "posterior.enumerate_s": (incl("posterior.enumerate") / u, "s"),
        "posterior.estimators_s": (incl("posterior.estimators") / u, "s"),
        "diagnostics.min_scan_s": (incl("diagnostics.min_scan") / u, "s"),
        "diagnostics.max_scan_s": (incl("diagnostics.max_scan") / u, "s"),
        # scan self time: the screen and eigensolves, without gather/index
        "diagnostics.eig_screen_s": ((self_s("diagnostics.min_scan")
                                      + self_s("diagnostics.max_scan")) / u,
                                     "s"),
        "experiments.generate_s": (incl("experiments.generate") / u, "s"),
        "experiments.tune_lasso_s": (incl("experiments.tune_lasso") / u, "s"),
        "experiments.emit_s": (incl("experiments.emit") / u, "s"),
    })
    layer_self = tracer.layer_self_s()
    for layer in LAYERS:
        m[f"self_frac.{layer}"] = (ratio(layer_self[layer], traced_wall_s),
                                   "ratio")
    m["self_frac.bench"] = (ratio(traced_wall_s - tracer.top_level_s,
                                  traced_wall_s), "ratio")
    for key in ("support_exact_frac", "linf_err_mean", "fp_mean"):
        m[f"ew.{key}"] = (quality.get(key, 0.0), QUALITY_UNITS[key])
    return {k: {"value": float(v), "unit": unit} for k, (v, unit) in m.items()}
