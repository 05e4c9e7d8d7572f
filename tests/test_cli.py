import csv
import io
import re
import warnings

import numpy as np
import pytest

from ewselect.cli import main, read_dataset_csv
from ewselect.errors import DomainError, NonFiniteError

from conftest import normalized_gaussian


def write_dataset_csv(path, X, y):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        p = X.shape[1]
        w.writerow(["y"] + [f"x{i}" for i in range(1, p + 1)])
        for i in range(X.shape[0]):
            w.writerow([f"{y[i]:.17g}"] + [f"{v:.17g}" for v in X[i]])


@pytest.fixture
def planted_csv(tmp_path, rng):
    n, p = 50, 8
    X = normalized_gaussian(rng, n, p)
    beta = np.zeros(p)
    beta[:2] = [1.5, -1.2]
    sigma = 0.4
    y = X @ beta + sigma * rng.standard_normal(n)
    path = tmp_path / "data.csv"
    write_dataset_csv(path, X, y)
    return path, X, y, beta, sigma


class TestReadDataset:
    def test_round_trip(self, planted_csv):
        path, X, y, _, _ = planted_csv
        data, scales = read_dataset_csv(path)
        assert scales is None
        np.testing.assert_allclose(data.X, X, rtol=1e-15)
        np.testing.assert_allclose(data.y, y, rtol=1e-15)

    def test_round_trip_is_exact(self, planted_csv):
        path, _, _, _, _ = planted_csv
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))[1:]
        cells = np.array([[float(v) for v in row] for row in rows])
        data, _ = read_dataset_csv(path)
        assert np.array_equal(data.y, cells[:, 0])
        assert np.array_equal(data.X, cells[:, 1:])

    def test_columns_in_any_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x2, y ,x1\n1,2,3\n4,5,6\n")
        data, _ = read_dataset_csv(path)
        assert data.y.tolist() == [2.0, 5.0]
        assert data.X.tolist() == [[3.0, 1.0], [6.0, 4.0]]

    def test_quotes_blank_lines_and_crlf(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'y,"x1",x2\r\n"1.5",2,-3e-2\r\n\r\n'
                         b'4,"5", 6 \r\n\r\n')
        data, _ = read_dataset_csv(path)
        assert data.y.tolist() == [1.5, 4.0]
        assert data.X.tolist() == [[2.0, -0.03], [5.0, 6.0]]

    def test_missing_y(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,x2\n1,2\n")
        with pytest.raises(DomainError):
            read_dataset_csv(path)

    def test_bad_predictor_names(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,a,b\n1,2,3\n")
        with pytest.raises(DomainError):
            read_dataset_csv(path)

    def test_non_numeric(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1,frog\n")
        with pytest.raises(DomainError):
            read_dataset_csv(path)

    def test_rescale(self, tmp_path, rng):
        X = rng.standard_normal((20, 3)) * np.array([5.0, 1.0, 0.1])
        y = rng.standard_normal(20)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, X, y)
        data, scales = read_dataset_csv(path, rescale=True)
        assert data.max_normalization_error() <= 1e-12
        np.testing.assert_allclose(data.X * scales, X, rtol=1e-12)


BAD_FILES = [
    ("", DomainError, "empty file"),
    ("y,x1,x2\n", DomainError, "no data rows"),
    ("y,x1,x2\n\n\n", DomainError, "no data rows"),
    ("y,x1,y\n1,2,3\n", DomainError, "repeated column names"),
    ("y,y,x1\n1,2,3\n", DomainError, "repeated column names"),
    ("y,x1,x2,x1\n1,2,3,4\n", DomainError, "repeated column names"),
    ("y,x1\n1,\n", DomainError, "non-numeric cell"),
    ("y,x1\n1,2\n#3,4\n", DomainError, "non-numeric cell"),
    ("y,x1,x2\n1,2,3\n4,5\n", DomainError, "ragged rows"),
    ("y,x1,x2\n1,2,3\n4,5,6,7\n", DomainError, "ragged rows"),
    ("y,x1,x2\n1,2\n4,5\n", DomainError, "ragged rows"),
    ("y,x1,x2\n1,2,3,4\n", DomainError, "ragged rows"),
    ("y,x1\n1,nan\n2,3\n", NonFiniteError, "NaN or infinite"),
    ("y,x1\n1,2\ninf,3\n", NonFiniteError, "NaN or infinite"),
]


@pytest.mark.parametrize("text,exc,message", BAD_FILES)
def test_bad_file_rejected(tmp_path, capsys, text, exc, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exc, match=re.escape(message)):
            read_dataset_csv(path)
        assert main(["fit", str(path), "--sigma", "1"]) == 2
    assert message in capsys.readouterr().err


class TestFitCommand:
    def test_recovers_support(self, planted_csv, capsys):
        path, _, _, beta, sigma = planted_csv
        code = main(["fit", str(path), "--sigma", str(sigma),
                     "--t0", "500", "--t", "1500", "--seed", "7"])
        assert code == 0
        out = capsys.readouterr().out
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {int(r["index"]): float(r["coefficient"]) for r in rows}
        assert set(got) == {0, 1}
        assert got[0] == pytest.approx(1.5, abs=0.3)
        assert got[1] == pytest.approx(-1.2, abs=0.3)

    def test_estimates_sigma_when_missing(self, planted_csv, capsys):
        path = planted_csv[0]
        code = main(["fit", str(path), "--t0", "200", "--t", "800"])
        assert code == 0
        err = capsys.readouterr().err
        assert "estimated sigma" in err

    def test_rescaled_fit_reports_original_units(self, tmp_path, rng, capsys):
        n = 60
        X = normalized_gaussian(rng, n, 6)
        X[:, 0] *= 10.0   # break normalization
        beta = np.zeros(6)
        beta[0] = 0.2     # equals 2.0 on the rescaled column
        sigma = 0.1
        y = X @ beta + sigma * rng.standard_normal(n)
        path = tmp_path / "d.csv"
        write_dataset_csv(path, X, y)
        code = main(["fit", str(path), "--sigma", str(sigma), "--rescale",
                     "--t0", "200", "--t", "800"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        got = {int(r["index"]): float(r["coefficient"]) for r in rows}
        assert got[0] == pytest.approx(0.2, abs=0.05)

    def test_validation_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("y,a\n1,2\n")
        assert main(["fit", str(path)]) == 2

    def test_missing_file_exit_code(self, capsys):
        assert main(["fit", "/nonexistent/file.csv"]) == 2


class TestLassoCommand:
    def test_fit_and_exit_zero(self, planted_csv, capsys):
        path, _, _, _, sigma = planted_csv
        code = main(["lasso", str(path), "--sigma", str(sigma), "--a", "1.0"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        got = {int(r["index"]) for r in rows}
        assert {0, 1} <= got

    def test_requires_sigma_or_lambda(self, planted_csv, capsys):
        path = planted_csv[0]
        assert main(["lasso", str(path)]) == 2

    def test_numerical_exit_code(self, planted_csv, capsys):
        path = planted_csv[0]
        # one sweep at a tiny penalty cannot converge at tol 1e-16
        code = main(["lasso", str(path), "--lambda-l", "1e-9",
                     "--max-iter", "1", "--tol", "1e-16"])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestDiagnoseCommand:
    def test_csv_rows(self, planted_csv, capsys):
        path = planted_csv[0]
        code = main(["diagnose", str(path), "--s", "1,2,3"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [int(r["s"]) for r in rows] == [1, 2, 3]
        nus = [float(r["min_singular"]) for r in rows]
        assert nus[0] >= nus[1] >= nus[2]
        assert all(r["identifiable_2s"] == "1" for r in rows)

    def test_jsonl(self, planted_csv, capsys):
        import json
        path = planted_csv[0]
        code = main(["diagnose", str(path), "--s", "2", "--format", "jsonl",
                     "--mode", "mc", "--samples", "32"])
        assert code == 0
        rec = json.loads(capsys.readouterr().out.strip())
        assert rec["mode"] == "mc" and rec["samples"] == 32

    def test_validation(self, planted_csv):
        path = planted_csv[0]
        assert main(["diagnose", str(path), "--s", "0"]) == 2
        for samples in ("0", "-3"):
            assert main(["diagnose", str(path), "--s", "2", "--mode", "mc",
                         "--samples", samples]) == 2

    def test_mc_mode_beyond_exhaustive_cap(self, tmp_path, rng, capsys):
        n, p = 100, 200
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, rng.standard_normal((n, p)),
                          rng.standard_normal(n))
        code = main(["diagnose", str(path), "--s", "5", "--mode", "mc",
                     "--samples", "1000"])
        assert code == 0
        (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
        assert row["mode"] == "mc" and row["samples"] == "1000"
        assert 0.0 < float(row["min_singular"]) <= float(row["max_singular"])
        assert main(["diagnose", str(path), "--s", "5"]) == 2


class TestExperimentCommand:
    def test_end_to_end(self, tmp_path, capsys):
        spec = tmp_path / "run.spec"
        spec.write_text("n=30\np=10\ns_star=2\nreps=2\nseed=5\n"
                        "methods=aew,lasso\nt0=200\nt=600\ntune_reps=1\n")
        out = tmp_path / "out"
        code = main(["experiment", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        assert (out / "reps.csv").exists()
        assert (out / "summary.csv").exists()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"ew", "lasso"}

    def test_bad_spec_exit_code(self, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("nope\n")
        assert main(["experiment", "--spec", str(spec),
                     "--out", str(tmp_path / "o")]) == 2
