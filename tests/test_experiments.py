import csv
import math
import os
import re
from pathlib import Path

import numpy as np
import pytest

import ewselect.experiments as exps
from ewselect import (ChainConfig, DomainError, ExperimentSpec, MetricRecord,
                      compute_metrics, emit, generate_instance,
                      parse_spec_file, run_experiment)
from ewselect.experiments import spec_from_mapping

GOLDEN = Path(__file__).parent / "golden"


def first_difference(name, new, old):
    """Message naming the first line where two files differ, both versions."""
    new_lines, old_lines = new.splitlines(), old.splitlines()
    for i, (a, b) in enumerate(zip(new_lines, old_lines), 1):
        if a != b:
            return (f"golden mismatch: {name} line {i}\n"
                    f"  old: {b.decode()}\n  new: {a.decode()}")
    return (f"golden mismatch: {name} has {len(new_lines)} lines, "
            f"golden {len(old_lines)} (or line endings differ)")


def tiny_spec(**over):
    base = dict(n=30, p=10, sparsity=2, reps=3, seed=123,
                chain=ChainConfig(burn_in=300, samples=700), tune_reps=2)
    base.update(over)
    return ExperimentSpec(**base)


class TestGenerateInstance:
    def test_zero_sparsity_means_zero_response(self):
        spec = ExperimentSpec(n=20, p=5, sparsity=0, seed=7)
        data, beta, support = generate_instance(spec, 0)
        assert support == ()
        assert np.all(beta == 0.0)
        assert data.sigma == 0.0
        assert np.all(data.y == 0.0)

    def test_deterministic_per_rep(self):
        spec = ExperimentSpec(n=25, p=8, sparsity=2, seed=11)
        d1, b1, s1 = generate_instance(spec, 3)
        d2, b2, s2 = generate_instance(spec, 3)
        assert np.array_equal(d1.X, d2.X)
        assert np.array_equal(d1.y, d2.y)
        assert d1.sigma == d2.sigma
        d3, _, _ = generate_instance(spec, 4)
        assert not np.array_equal(d1.y, d3.y)

    def test_columns_normalized_by_default(self):
        spec = ExperimentSpec(n=40, p=12, sparsity=3, seed=2)
        data, _, _ = generate_instance(spec, 0)
        assert data.max_normalization_error() <= 1e-12
        raw = ExperimentSpec(n=40, p=12, sparsity=3, seed=2, normalize=False)
        data_raw, _, _ = generate_instance(raw, 0)
        assert data_raw.max_normalization_error() > 1e-3

    def test_noise_variance_expectation(self):
        # E ||X beta||^2 = n * sparsity for disjoint normalized columns, so
        # the mean of sigma^2 over draws approaches sparsity / 9
        spec = ExperimentSpec(n=100, p=200, sparsity=5, seed=31)
        draws = [generate_instance(spec, r)[0].sigma ** 2 for r in range(100)]
        assert np.mean(draws) == pytest.approx(5.0 / 9.0, rel=0.10)

    def test_signal_scale_leaves_noise_alone(self):
        base = ExperimentSpec(n=30, p=8, sparsity=2, seed=5)
        strong = ExperimentSpec(n=30, p=8, sparsity=2, seed=5,
                                signal_scale=10.0)
        d1, b1, _ = generate_instance(base, 0)
        d2, b2, _ = generate_instance(strong, 0)
        assert d1.sigma == d2.sigma
        np.testing.assert_allclose(b2, 10.0 * b1)


class TestMetrics:
    def test_perfect_estimate(self):
        beta = np.array([1.0, 1.0, 0.0, 0.0])
        m = compute_metrics(beta, (0, 1), beta, (0, 1))
        assert m.linf == 0.0 and m.l2 == 0.0
        assert m.false_positives == 0 and m.true_positives == 2

    def test_zero_estimate(self):
        beta = np.zeros(6)
        truth = np.zeros(6)
        truth[:3] = 1.0
        m = compute_metrics(beta, (), truth, (0, 1, 2))
        assert m.linf == 1.0
        assert m.l2 == pytest.approx(math.sqrt(3.0))
        assert m.true_positives == 0

    def test_random_pair_matches_loop_oracle(self, rng):
        bh = rng.standard_normal(9)
        bt = rng.standard_normal(9)
        sh, st = (1, 3, 5), (3, 4)
        m = compute_metrics(bh, sh, bt, st)
        linf = max(abs(bh[j] - bt[j]) for j in range(9))
        l2 = math.sqrt(sum((bh[j] - bt[j]) ** 2 for j in range(9)))
        assert m.linf == pytest.approx(linf, rel=1e-15)
        assert m.l2 == pytest.approx(l2, rel=1e-15)
        assert m.false_positives == len(set(sh) - set(st))
        assert m.true_positives == len(set(sh) & set(st))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            compute_metrics(np.zeros(3), (), np.zeros(4), ())


class TestRunExperiment:
    def test_single_rep_single_method(self):
        spec = tiny_spec(reps=1, methods=("ew",))
        summ = run_experiment(spec)
        assert len(summ.records) == 1
        rec = summ.records[0]
        s = summ.methods["ew"]
        assert s.reps_ok == 1
        assert s.mean_linf == pytest.approx(rec.linf)
        assert s.sd_linf == 0.0
        assert s.mean_fp == rec.false_positives

    def test_summary_matches_recomputation_from_rows(self):
        spec = tiny_spec(reps=4)
        summ = run_experiment(spec)
        for method in spec.methods:
            rows = [r for r in summ.records if r.method == method and r.ok]
            s = summ.methods[method]
            assert s.mean_linf == np.mean([r.linf for r in rows])
            assert s.mean_fp == np.mean([r.false_positives for r in rows])
            if len(rows) > 1:
                assert s.sd_linf == pytest.approx(
                    np.std([r.linf for r in rows], ddof=1), rel=1e-12)

    def test_method_failure_is_flagged_not_fatal(self, monkeypatch):
        def boom(data, spec, a):
            raise DomainError("forced failure")
        monkeypatch.setattr(exps, "fit_lasso", boom)
        spec = tiny_spec(reps=2, methods=("lasso", "l0"), tune_reps=0)
        summ = run_experiment(spec)
        lasso_rows = [r for r in summ.records if r.method == "lasso"]
        assert all(not r.ok for r in lasso_rows)
        assert summ.methods["lasso"].reps_ok == 0
        assert math.isnan(summ.methods["lasso"].mean_linf)
        assert summ.methods["l0"].reps_ok == 2

    def test_parallel_jobs_match_serial(self):
        spec = tiny_spec(reps=4, methods=("lasso", "l0"), tune_reps=0)
        serial = run_experiment(spec, jobs=1)
        parallel = run_experiment(spec, jobs=2)
        assert serial.records == parallel.records

    def test_stronger_signal_does_not_add_false_positives(self):
        base = tiny_spec(reps=5, methods=("ew",), n=40, p=12, sparsity=2)
        strong = tiny_spec(reps=5, methods=("ew",), n=40, p=12, sparsity=2,
                           signal_scale=10.0)
        fp_base = run_experiment(base).methods["ew"].mean_fp
        fp_strong = run_experiment(strong).methods["ew"].mean_fp
        assert fp_strong <= fp_base + 1e-12

    def test_lasso_tuning_prefers_small_error(self):
        spec = tiny_spec(reps=3, methods=("lasso",),
                         lasso_a_grid=(0.5, 8.0), tune_reps=3)
        summ = run_experiment(spec)
        assert summ.lasso_a == 0.5

    def test_tuning_generates_each_replication_once(self, monkeypatch):
        reps = []
        generate = exps.generate_instance

        def counted(spec, rep):
            reps.append(rep)
            return generate(spec, rep)

        monkeypatch.setattr(exps, "generate_instance", counted)
        exps.tune_lasso_multiplier(tiny_spec(reps=12, methods=("lasso",),
                                             tune_reps=10))
        assert reps == list(range(10))

    def test_summary_statistics_in_valid_ranges(self):
        spec = tiny_spec(reps=4)
        summ = run_experiment(spec)
        for m in spec.methods:
            s = summ.methods[m]
            assert s.sd_linf >= 0.0 and s.sd_l2 >= 0.0
            assert 0.0 <= s.mean_fp <= spec.p - spec.sparsity
            assert 0.0 <= s.tp_rate <= 1.0
        for r in summ.records:
            assert 0 <= r.false_positives <= spec.p - spec.sparsity
            assert 0 <= r.true_positives <= spec.sparsity


class TestEmit:
    def test_files_and_round_trip(self, tmp_path):
        summ = run_experiment(tiny_spec())
        files = emit(summ, tmp_path)
        names = {os.path.basename(f) for f in files}
        assert {"reps.csv", "summary.csv", "boxplot_linf.svg",
                "boxplot_l2.svg", "boxplot_fp.svg"} <= names
        with open(tmp_path / "reps.csv", newline="") as fh:
            back = [MetricRecord(
                rep=int(row["rep"]), method=row["method"],
                ok=bool(int(row["ok"])), linf=float(row["linf_error"]),
                l2=float(row["l2_error"]),
                false_positives=int(row["false_positives"]),
                true_positives=int(row["true_positives"]),
                support_size=int(row["support_size"]))
                for row in csv.DictReader(fh)]
        assert back == summ.records

    def test_empty_method_set_header_only(self, tmp_path):
        summ = run_experiment(tiny_spec(methods=(), reps=1))
        emit(summ, tmp_path)
        with open(tmp_path / "reps.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1  # header only
        with open(tmp_path / "summary.csv") as fh:
            lines = fh.read().strip().splitlines()
        assert len(lines) == 1

    def test_seventeen_digit_floats(self, tmp_path):
        summ = run_experiment(tiny_spec(reps=2, methods=("lasso",)))
        emit(summ, tmp_path)
        with open(tmp_path / "reps.csv", newline="") as fh:
            row = next(csv.DictReader(fh))
        assert float(row["linf_error"]) == summ.records[0].linf

    def test_byte_identical_across_runs(self, tmp_path):
        spec = tiny_spec()
        emit(run_experiment(spec), tmp_path / "a")
        emit(run_experiment(spec), tmp_path / "b")
        for name in ("reps.csv", "summary.csv", "boxplot_linf.svg"):
            assert (tmp_path / "a" / name).read_bytes() == \
                (tmp_path / "b" / name).read_bytes()

    def test_matches_golden_files(self, tmp_path):
        spec = tiny_spec()  # fixed-seed 3-rep run committed as golden output
        emit(run_experiment(spec), tmp_path)
        for name in ("reps.csv", "summary.csv", "boxplot_linf.svg",
                     "boxplot_fp.svg", "boxplot_l2.svg"):
            new = (tmp_path / name).read_bytes()
            old = (GOLDEN / name).read_bytes()
            assert new == old, first_difference(name, new, old)


class TestSpecParsing:
    def test_parse_file(self, tmp_path):
        path = tmp_path / "run.spec"
        path.write_text(
            "# comment line\n"
            "n = 100\np=200\ns_star = 5\nreps= 7\nseed=99\n"
            "methods = ew, lasso\nlambda_kappa = 3.5\n"
            "t0 = 500\nt = 1500\nnormalize = false\nthreshold = auto\n")
        spec = parse_spec_file(path)
        assert (spec.n, spec.p, spec.sparsity, spec.reps) == (100, 200, 5, 7)
        assert spec.methods == ("ew", "lasso")
        assert spec.chain.burn_in == 500 and spec.chain.samples == 1500
        assert spec.normalize is False
        assert spec.threshold is None

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "bad.spec"
        path.write_text("n=10\np=5\ns_star=1\nwhatever=3\n")
        with pytest.raises(DomainError):
            parse_spec_file(path)

    @pytest.mark.parametrize("text,line", [
        ("n = 20\np = 10\ns_star = 2\nn = 30\n", 4),
        ("n = 20\np = 10\nsparsity = 2\nt0 = 100\nburn_in = 200\n", 5),
        ("n = 20\np = 10\nsamples = 300\ns_star = 2\nT = 400\n", 5),
        ("n = 20\np = 10\ns_star = 2\nsparsity = 2\n", 4)])
    def test_repeated_key_rejected(self, tmp_path, text, line):
        path = tmp_path / "twice.spec"
        path.write_text(text)
        with pytest.raises(DomainError, match=re.escape(f"{path}:{line}: ")):
            parse_spec_file(path)

    @pytest.mark.parametrize("pair", [("t0", "burn_in"), ("samples", "t"),
                                      ("sparsity", "s_star")])
    def test_key_and_alias_rejected(self, pair):
        raw = {"n": "20", "p": "10", "sparsity": "2", "t0": "100", "t": "300"}
        raw.update(dict.fromkeys(pair, "2"))
        with pytest.raises(DomainError, match="second time"):
            spec_from_mapping(raw)

    def test_missing_required_key(self):
        with pytest.raises(DomainError):
            spec_from_mapping({"n": "10", "p": "5"})

    def test_validation(self):
        with pytest.raises(DomainError):
            ExperimentSpec(n=10, p=5, sparsity=9)
        with pytest.raises(DomainError):
            ExperimentSpec(n=10, p=5, sparsity=2, methods=("ridge",))
        with pytest.raises(DomainError, match="'ew' is listed more than once"):
            ExperimentSpec(n=20, p=10, sparsity=2, reps=3,
                           methods=("ew", "ew", "lasso"))

    @pytest.mark.parametrize("bad", [{"max_support": 0}, {"max_support": -2},
                                     {"lasso_a": -1.0}, {"lasso_a": 0.0},
                                     {"lasso_a": math.inf},
                                     {"lasso_a": math.nan},
                                     {"lambda_kappa": math.inf},
                                     {"threshold": math.nan}])
    def test_rejects_out_of_range_values(self, bad):
        # each would otherwise pass, then fail or empty every rep of a method
        with pytest.raises(DomainError):
            ExperimentSpec(n=10, p=5, sparsity=2, **bad)

    def test_rejects_negative_seed(self):
        with pytest.raises(DomainError, match="seed"):
            ExperimentSpec(n=10, p=5, sparsity=2, seed=-3)

    @pytest.mark.parametrize("key,value", [("lasso_a_grid", (-1.0, 2.0)),
                                           ("lasso_a_grid", (0.0,)),
                                           ("lasso_a_grid", (math.nan,)),
                                           ("lasso_a_grid", (1.0, math.inf)),
                                           ("signal_scale", math.nan),
                                           ("signal_scale", -math.inf)])
    def test_rejects_bad_grid_or_signal_scale(self, key, value):
        # tuning used to skip or fall back past a bad grid entry silently,
        # and a non-finite scale surfaced later as a NaN in y
        with pytest.raises(DomainError, match=key):
            ExperimentSpec(n=10, p=5, sparsity=2, **{key: value})
