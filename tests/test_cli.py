import csv
import dataclasses
import io
import multiprocessing
import os
import re
import signal
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import ewselect
from ewselect import cli
from ewselect import ChainConfig, estimate_noise_variance, ew_select
from ewselect.cli import main, read_dataset_csv
from ewselect.diagnostics import design_report
from ewselect.errors import DomainError, NonFiniteError
from ewselect.experiments import ExperimentSpec, generate_instance

from conftest import duplicated_column_lasso, normalized_gaussian


def write_dataset_csv(path, X, y):
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        p = X.shape[1]
        w.writerow(["y"] + [f"x{i}" for i in range(1, p + 1)])
        for i in range(X.shape[0]):
            w.writerow([f"{y[i]:.17g}"] + [f"{v:.17g}" for v in X[i]])


def test_imports_numpy_only():
    # numpy is the one dependency: a fresh interpreter that imports the CLI
    # loads no other third-party package (__mp_main__ is multiprocessing's
    # alias of the main module)
    src = os.path.dirname(os.path.dirname(ewselect.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys; before = set(sys.modules); import ewselect.cli; "
            "print(*{m.partition('.')[0] for m in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True,
                         timeout=120).stdout.split()
    assert set(out) <= {"__mp_main__", "ewselect", "numpy"}


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


def use_cpus(m, cpus, chunk=3):
    """Make read_dataset_csv see `cpus` usable CPUs, cut rows into blocks of
    a byte or more and find the header and the cuts `chunk` bytes at a
    time, through the monkeypatch (or its context) m."""
    m.setattr(cli, "_BLOCK_BYTES", 1)
    m.setattr(cli, "_CHUNK", chunk)
    m.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)),
              raising=False)


@pytest.fixture
def split_blocks(monkeypatch):
    """Cut the rows of every CSV read into up to four blocks, so a file of
    more than one row is parsed by forked children."""
    use_cpus(monkeypatch, 4, chunk=61)


def read_blocks(monkeypatch, path, cpus=4):
    """read_dataset_csv(path) on `cpus` CPUs: (Dataset, blocks parsed)."""
    with monkeypatch.context() as m:
        use_cpus(m, cpus)
        data, _ = read_dataset_csv(path)
    return data, cli._last_read_blocks


def read_error(path):
    with pytest.raises(DomainError) as info:
        read_dataset_csv(path)
    return str(info.value)


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

    def test_byte_order_mark(self, tmp_path, planted_csv):
        # spreadsheet exports start with a UTF-8 byte-order mark
        path = planted_csv[0]
        marked = tmp_path / "bom.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, _ = read_dataset_csv(path)
        data, _ = read_dataset_csv(marked)
        assert np.array_equal(data.X, plain.X)
        assert np.array_equal(data.y, plain.y)

    @pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
    def test_pipe(self):
        # a pipe cannot seek, so its rows are one block after the header
        r, w = os.pipe()
        os.write(w, b"y,x1,x2\r1,2,3\r4,5,6\r")
        os.close(w)
        try:
            data, _ = read_dataset_csv(f"/dev/fd/{r}")
        finally:
            os.close(r)
        assert data.y.tolist() == [1.0, 4.0]
        assert data.X.tolist() == [[2.0, 3.0], [5.0, 6.0]]

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


    def test_peak_memory_is_two_copies_of_x(self, tmp_path, rng):
        import tracemalloc
        X = rng.standard_normal((50, 2000))
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, X, rng.standard_normal(50))
        tracemalloc.start()
        try:
            data, _ = read_dataset_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.75 * data.X.nbytes


@pytest.mark.usefixtures("split_blocks")
class TestReadDatasetInBlocks(TestReadDataset):
    """Every TestReadDataset case with the rows cut into blocks."""


class TestBlocks:
    """Rows cut into blocks parse to the one-block arrays and errors."""

    def test_quoted_newline_straddles_a_cut(self, tmp_path, monkeypatch):
        # the middle target (byte 73 of 146) falls in the quoted cell
        path = tmp_path / "q.csv"
        path.write_bytes(b"y,x1\n" + b"1,2\n" * 10 + b'3,"4' + b"\n" * 60
                         + b'"\n' + b"5,6\n" * 10)
        one, blocks = read_blocks(monkeypatch, path, cpus=1)
        assert blocks == 1
        data, blocks = read_blocks(monkeypatch, path)
        assert blocks == 4
        assert data.y.tolist() == [1.0] * 10 + [3.0] + [5.0] * 10
        assert np.array_equal(data.X, one.X)
        assert np.array_equal(data.y, one.y)

    @pytest.mark.parametrize("eol", [b"\r", b"\r\n"])
    def test_line_endings(self, tmp_path, monkeypatch, rng, eol):
        table = rng.standard_normal((40, 4))
        rows = [b",".join(b"%.17g" % v for v in row) for row in table]
        path = tmp_path / "e.csv"
        path.write_bytes(eol.join([b"y,x1,x2,x3"] + rows[:20] + [b""]
                                  + rows[20:]) + eol)
        data, blocks = read_blocks(monkeypatch, path)
        assert blocks == 4
        assert np.array_equal(data.y, table[:, 0])
        assert np.array_equal(data.X, table[:, 1:])

    @pytest.mark.parametrize("bad,category", [(b"4,5", "ragged rows"),
                                              (b"4,5,x", "non-numeric cell")])
    def test_error_in_last_block_names_the_file_row(
            self, tmp_path, monkeypatch, bad, category):
        # 20 good rows, a blank line, then the bad row inside the last block
        path = tmp_path / "bad.csv"
        path.write_bytes(b"y,x1,x2\n" + b"1.5,2.5,3.5\n" * 20 + b"\n"
                         + b"1,2,3\n" + bad + b"\n")
        with monkeypatch.context() as m:
            use_cpus(m, 1)
            whole = read_error(path)
        with monkeypatch.context() as m:
            use_cpus(m, 4)
            split = read_error(path)
        assert category in split and re.search(r"at data row 22\b", split)
        assert split == whole

    @pytest.mark.parametrize("text,row", [("y,x1\n1,2\n\n3,frog\n", 2),
                                          ("y,x1\n1,2\n\n3\n", 2),
                                          ("y,x1\nfrog,2\n", 1)])
    @pytest.mark.parametrize("cpus", [1, 4])
    def test_errors_name_the_data_row_from_one(self, tmp_path, monkeypatch,
                                               text, row, cpus):
        # both error kinds count data rows from 1, the header and blank
        # lines left out, in one block and in blocks
        path = tmp_path / "bad.csv"
        path.write_text(text)
        with monkeypatch.context() as m:
            use_cpus(m, cpus)
            message = read_error(path)
        assert re.search(rf"at data row {row}\b", message)

    def test_peak_memory_in_blocks_is_x_and_a_block(self, tmp_path,
                                                    monkeypatch, rng):
        # the gathered X goes to Dataset uncopied: the peak is X plus the
        # parent's own block
        import tracemalloc
        X = rng.standard_normal((200, 1000))
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, X, rng.standard_normal(200))
        with monkeypatch.context() as m:
            use_cpus(m, 4, chunk=1 << 16)
            tracemalloc.start()
            try:
                data, _ = read_dataset_csv(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert cli._last_read_blocks == 4
        assert peak <= 1.75 * data.X.nbytes

    @pytest.mark.parametrize("patch", ["one cpu", "no fork"])
    def test_one_block_makes_no_child(self, planted_csv, monkeypatch, patch):
        def refuse(*args):
            raise AssertionError("a child process was started")
        use_cpus(monkeypatch, 1 if patch == "one cpu" else 4)
        if patch == "no fork":
            monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                                lambda: ["spawn"])
        monkeypatch.setattr(multiprocessing, "get_context", refuse)
        data, _ = read_dataset_csv(planted_csv[0])
        assert cli._last_read_blocks == 1
        np.testing.assert_allclose(data.X, planted_csv[1], rtol=1e-15)

    def test_killed_child_raises_and_leaves_no_process(
            self, planted_csv, split_blocks, monkeypatch, capsys):
        def killed(*args):
            os.kill(os.getpid(), signal.SIGKILL)
        monkeypatch.setattr(cli, "_parse_child", killed)
        with pytest.raises(OSError, match="ended without a report"):
            read_dataset_csv(planted_csv[0])
        assert multiprocessing.active_children() == []
        assert main(["fit", str(planted_csv[0]), "--sigma", "1"]) == 2
        assert "exit code -9" in capsys.readouterr().err

    def test_parent_error_terminates_children(self, tmp_path, split_blocks,
                                              monkeypatch):
        def hang(*args):
            time.sleep(60)
        monkeypatch.setattr(cli, "_parse_child", hang)
        path = tmp_path / "bad.csv"
        path.write_text("y,x1\n1,frog\n" + "2,3\n" * 30)
        start = time.perf_counter()
        assert "non-numeric cell" in read_error(path)
        assert time.perf_counter() - start < 30
        assert multiprocessing.active_children() == []


def test_interrupt_exits_130(planted_csv, monkeypatch, capsys):
    def interrupted(*args):
        raise KeyboardInterrupt
    monkeypatch.setattr(ewselect.experiments, "run_chain", interrupted)
    assert main(["fit", str(planted_csv[0]), "--sigma", "1"]) == 130
    assert capsys.readouterr().err == "interrupted\n"


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
def test_interrupt_during_parse_leaves_no_process(tmp_path):
    # Ctrl-C reaches the whole process group while forked children parse:
    # the parent ends them and exits 130, and nothing prints a traceback
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n" + "1,2\n" * 40)
    code = f"""
import os, signal, sys, time
signal.signal(signal.SIGINT, signal.default_int_handler)
from ewselect import cli
cli._BLOCK_BYTES = 1
os.sched_getaffinity = lambda pid: set(range(4))
def slow(*args):
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    os.write(1, b"parsing\\n")
    time.sleep(60)
cli._parse_child = slow
sys.exit(cli.main(["fit", {str(path)!r}, "--sigma", "1"]))
"""
    src = os.path.dirname(os.path.dirname(ewselect.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        for _ in range(3):  # one line from each child
            assert proc.stdout.readline() == "parsing\n"
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):  # the group is empty
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 130
    assert "Traceback" not in err and err.endswith("interrupted\n")


@pytest.mark.skipif(not hasattr(os, "killpg"), reason="no process groups")
def test_interrupt_while_forking_leaves_no_process(tmp_path):
    # Ctrl-C right after each fork of a parser, where an after-fork hook
    # would swallow it or the new child is not yet listed for the parent
    # to end: the parent still ends every child and exits 130
    path = tmp_path / "d.csv"
    path.write_text("y,x1\n" + "1,2\n" * 40)
    code = f"""
import os, signal, sys, time
signal.signal(signal.SIGINT, signal.default_int_handler)
from ewselect import cli
cli._BLOCK_BYTES = 1
os.sched_getaffinity = lambda pid: set(range(4))
def slow(*args):
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    time.sleep(60)
cli._parse_child = slow
os.register_at_fork(
    after_in_parent=lambda: os.kill(os.getpid(), signal.SIGINT))
sys.exit(cli.main(["fit", {str(path)!r}, "--sigma", "1"]))
"""
    src = os.path.dirname(os.path.dirname(ewselect.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.Popen([sys.executable, "-c", code], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, start_new_session=True)
    try:
        _, err = proc.communicate(timeout=60)
        with pytest.raises(ProcessLookupError):  # the group is empty
            os.killpg(proc.pid, 0)
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    assert proc.returncode == 130
    assert "Traceback" not in err and err.endswith("interrupted\n")


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
    (b"y,x1\xff\n1,2\n", DomainError, "not UTF-8 text"),
    (b"y,x1\n1,2\n3,4\xff\n", DomainError, "not UTF-8 text"),
]


@pytest.mark.parametrize("text,exc,message", BAD_FILES)
def test_bad_file_rejected(tmp_path, capsys, text, exc, message):
    path = tmp_path / "bad.csv"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(exc, match=re.escape(message)):
            read_dataset_csv(path)
        assert main(["fit", str(path), "--sigma", "1"]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", [["fit"], ["lasso", "--lambda-l", "1"],
                                     ["diagnose", "--s", "1"]])
def test_response_only_file_exit_code(tmp_path, capsys, command):
    # a header with y and no x column is a malformed header, not a crash
    path = tmp_path / "y.csv"
    path.write_text("y\n1\n2\n")
    assert main([command[0], str(path)] + command[1:]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    assert "error:" in captured.err and "no predictor columns" in captured.err


@pytest.mark.parametrize("text,exc,message", BAD_FILES)
def test_bad_file_rejected_in_blocks(split_blocks, tmp_path, capsys, text,
                                     exc, message):
    test_bad_file_rejected(tmp_path, capsys, text, exc, message)


class TestFitCommand:
    def test_recovers_support(self, planted_csv, capsys):
        path, _, _, beta, sigma = planted_csv
        code = main(["fit", str(path), "--sigma", str(sigma),
                     "--t0", "500", "--t", "1500", "--seed", "7"])
        assert code == 0
        out, err = capsys.readouterr()
        # one line counts the 2000 steps by move and the windows' share
        (line,) = [s for s in err.splitlines() if s.startswith("moves")]
        counts = re.findall(r"(\w+) (\d+)/(\d+)", line)
        assert [name for name, _, _ in counts] == ["none", "add", "drop",
                                                   "swap"]
        assert sum(int(k) for _, k, _ in counts) == 2000
        rate = float(re.search(r"acceptance rate: (\S+)", err).group(1))
        assert sum(int(a) for *_, a in counts) / 2000 == pytest.approx(
            rate, abs=1e-4)
        assert 0 <= int(line.rsplit(" ", 1)[1]) <= 2000
        rows = list(csv.DictReader(io.StringIO(out)))
        got = {int(r["index"]): float(r["coefficient"]) for r in rows}
        assert set(got) == {0, 1}
        assert got[0] == pytest.approx(1.5, abs=0.3)
        assert got[1] == pytest.approx(-1.2, abs=0.3)

    def test_reports_neighbour_builds(self, planted_csv, monkeypatch,
                                      capsys):
        # its own line counts the chain's Neighbours builds
        runs, real = [], ewselect.experiments.run_chain

        def recorded(*args):
            runs.append(real(*args))
            return runs[-1]

        monkeypatch.setattr(ewselect.experiments, "run_chain", recorded)
        path, _, _, _, sigma = planted_csv
        assert main(["fit", str(path), "--sigma", str(sigma), "--t0", "500",
                     "--t", "1500", "--seed", "7"]) == 0
        err = capsys.readouterr()[1]
        (acc,) = runs
        assert acc.neighbour_builds > 0 and acc.window_steps > 0
        assert f"\nneighbour scores built: {acc.neighbour_builds}\n" in err

    def test_phase_wall_seconds(self, planted_csv, monkeypatch, capsys):
        # one stderr line times the phases; stdout is the same in blocks
        path = str(planted_csv[0])
        argv = ["fit", path, "--sigma", "0.4", "--t0", "200", "--t", "300"]
        outs = []
        for cpus in (1, 4):
            with monkeypatch.context() as m:
                use_cpus(m, cpus)
                assert main(argv) == 0
            out, err = capsys.readouterr()
            (line,) = [s for s in err.splitlines() if s.startswith("wall")]
            m = re.fullmatch(r"wall seconds: read (\S+) \((\d+) blocks\), "
                             r"noise (\S+), chain (\S+)", line)
            assert m is not None
            assert int(m.group(2)) == (1 if cpus == 1 else 4)
            assert all(0 <= float(v) < 60 for v in m.group(1, 3, 4))
            outs.append(out)
        assert outs[0] == outs[1]

    def test_fit_never_builds_the_gram(self, tmp_path, rng, capsys, no_gram):
        n, p = 60, 400
        X = normalized_gaussian(rng, n, p)
        y = X[:, :3] @ np.array([1.5, -1.2, 1.0]) + 0.3 * rng.standard_normal(n)
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, X, y)
        assert main(["fit", str(path), "--sigma", "0.3",
                     "--t0", "200", "--t", "800"]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "index,coefficient"

    def test_estimates_sigma_when_missing(self, planted_csv, capsys):
        path = planted_csv[0]
        code = main(["fit", str(path), "--t0", "200", "--t", "800"])
        assert code == 0
        err = capsys.readouterr().err
        assert "estimated sigma" in err

    def test_estimated_sigma_holds_at_p_above_n(self, tmp_path, capsys):
        data, _, _ = generate_instance(
            ExperimentSpec(n=100, p=1000, sparsity=5, seed=0), 0)
        path = tmp_path / "wide.csv"
        write_dataset_csv(path, data.X, data.y)
        assert main(["fit", str(path), "--t0", "50", "--t", "100"]) == 0
        est = re.search(r"estimated sigma = (\S+)", capsys.readouterr().err)
        assert 0.75 <= float(est.group(1)) / data.sigma <= 1.33

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

    def test_one_row_without_sigma_exit_code(self, tmp_path, capsys):
        path = tmp_path / "one.csv"
        path.write_text("y,x1,x2\n1,2,3\n")
        assert main(["fit", str(path)]) == 2
        assert "noise variance" in capsys.readouterr().err

    def test_missing_file_exit_code(self, capsys):
        assert main(["fit", "/nonexistent/file.csv"]) == 2

    def test_negative_seed_exit_code(self, planted_csv, capsys):
        path = planted_csv[0]
        assert main(["fit", str(path), "--sigma", "0.3", "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    def test_nan_threshold_exit_code(self, planted_csv, capsys):
        path = planted_csv[0]
        assert main(["fit", str(path), "--sigma", "1", "--t0", "10",
                     "--t", "10", "--threshold", "nan"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "tau" in captured.err


    def test_sigma_too_small_for_the_posterior_exit_code(self, planted_csv,
                                                          capsys):
        # at sigma^2 = 1e-310 y'y / (2 sigma^2) overflows and every
        # log-weight would be -inf; sigma^2 = 1e-300 still runs
        path = str(planted_csv[0])
        argv = ["fit", path, "--t0", "10", "--t", "10", "--sigma"]
        assert main(argv + ["1e-155"]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "overflows" in captured.err
        assert main(argv + ["1e-150"]) == 0


@pytest.mark.parametrize("flags,kwargs", [
    (["--sigma", "0.4"], {}),
    ([], {}),  # sigma^2 from estimate_noise_variance
    (["--sigma", "0.4", "--threshold", "0.1"], {"threshold": 0.1}),
    (["--sigma", "0.4", "--sbar", "1"], {"max_support": 1}),
])
def test_ew_select_prints_what_fit_prints(planted_csv, capsys, flags, kwargs):
    path = str(planted_csv[0])
    assert main(["fit", path, "--t0", "200", "--t", "300", "--seed", "5"]
                + flags) == 0
    printed = capsys.readouterr().out
    data, _ = read_dataset_csv(path)
    sigma2 = 0.4 * 0.4 if flags else estimate_noise_variance(data)
    _, beta, _ = ew_select(data, sigma2,
                           ChainConfig(burn_in=200, samples=300, seed=5),
                           **kwargs)
    out = io.StringIO()
    cli._write_coefficients(beta, None, out)
    assert out.getvalue() == printed


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


    def test_max_iter_bounds_every_sweep(self, tmp_path, rng, capsys,
                                         lasso_sweeps):
        path = tmp_path / "dup.csv"
        write_dataset_csv(path, *duplicated_column_lasso(rng))
        code = main(["lasso", str(path), "--lambda-l", "0.05",
                     "--max-iter", "5", "--tol", "1e-300"])
        assert code == 3
        assert lasso_sweeps[0] == 5
        assert "in 5 sweeps" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--lambda-l", "nan"],
                                       ["--lambda-l", "inf"],
                                       ["--sigma", "0.1", "--a", "nan"],
                                       ["--sigma", "0.1", "--a", "inf"]])
    def test_non_finite_penalty_exit_code(self, planted_csv, capsys, flags):
        path = planted_csv[0]
        assert main(["lasso", str(path)] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err


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

    @pytest.mark.parametrize("flags,kwargs", [
        (["--sigma", "0.4", "--lam", "0.3"], {"sigma": 0.4, "lam": 0.3}),
        (["--mode", "mc", "--samples", "32"], {"mode": "mc", "samples": 32})])
    def test_csv_and_jsonl_agree(self, planted_csv, capsys, flags, kwargs):
        import json
        path = planted_csv[0]
        data, _ = read_dataset_csv(path)
        expect = [dataclasses.asdict(design_report(data, s, **kwargs))
                  for s in (1, 2)]
        assert main(["diagnose", str(path), "--s", "1,2"] + flags) == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert main(["diagnose", str(path), "--s", "1,2", "--format", "jsonl"]
                    + flags) == 0
        records = [json.loads(line) for line
                   in capsys.readouterr().out.splitlines()]
        parse = {"s": int, "min_singular": float, "max_singular": float,
                 "mode": str, "samples": int,
                 "identifiable_2s": lambda v: bool(int(v)),
                 "signal_threshold": float}
        from_csv = [{k: None if v == "" else parse[k](v) for k, v in r.items()}
                    for r in rows]
        assert from_csv == records == expect
        assert all(r["max_singular"] > 0 and
                   (r["signal_threshold"] is None) == ("lam" not in kwargs)
                   for r in records)

    def test_validation(self, planted_csv):
        path = planted_csv[0]
        assert main(["diagnose", str(path), "--s", "0"]) == 2
        for samples in ("0", "-3"):
            assert main(["diagnose", str(path), "--s", "2", "--mode", "mc",
                         "--samples", samples]) == 2

    @pytest.mark.parametrize("sizes", ["a", "2,x", "1.5"])
    def test_malformed_sizes_exit_code(self, planted_csv, capsys, sizes):
        path = planted_csv[0]
        assert main(["diagnose", str(path), "--s", sizes]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--s" in captured.err

    def test_negative_seed_exit_code(self, planted_csv, capsys):
        path = planted_csv[0]
        assert main(["diagnose", str(path), "--s", "2", "--mode", "mc",
                     "--seed", "-1"]) == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--sigma", "1", "--lam", "nan"],
                                       ["--sigma", "nan", "--lam", "1"],
                                       ["--sigma", "inf", "--lam", "1"]])
    def test_non_finite_signal_threshold_exit_code(self, planted_csv, capsys,
                                                   flags):
        path = planted_csv[0]
        assert main(["diagnose", str(path), "--s", "2"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "error:" in captured.err

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
                        "methods=ew,lasso\nt0=200\nt=600\ntune_reps=1\n")
        out = tmp_path / "out"
        code = main(["experiment", "--spec", str(spec), "--out", str(out)])
        assert code == 0
        assert (out / "reps.csv").exists()
        assert (out / "summary.csv").exists()
        with open(out / "summary.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["method"] for r in rows} == {"ew", "lasso"}

    @pytest.mark.parametrize("line", ["max_support=0", "lasso_a=-1",
                                      "methods=ew,ew", "n=40"])
    def test_invalid_spec_value_exit_code(self, tmp_path, line):
        spec = tmp_path / "bad.spec"
        spec.write_text("n=30\np=10\ns_star=2\nreps=2\nt0=20\nt=40\n"
                        f"tune_reps=0\n{line}\n")
        out = tmp_path / "o"
        assert main(["experiment", "--spec", str(spec),
                     "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("line", ["lasso_a_grid=-1,2", "lasso_a_grid=nan",
                                      "signal_scale=nan", "n=abc",
                                      "lasso_a_grid=1,x", "chains=two",
                                      "t0=1.5", "threshold=low"])
    def test_invalid_spec_value_names_the_key(self, tmp_path, capsys, line):
        spec = tmp_path / "bad.spec"
        spec.write_text("n=30\np=10\ns_star=2\nreps=2\nt0=20\nt=40\n"
                        f"methods=lasso\n{line}\n")
        out = tmp_path / "o"
        assert main(["experiment", "--spec", str(spec),
                     "--out", str(out)]) == 2
        assert line.split("=")[0] in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("jobs", ["0", "-2"])
    def test_nonpositive_jobs_exit_code(self, tmp_path, capsys, jobs):
        spec = tmp_path / "run.spec"
        spec.write_text("n=30\np=10\ns_star=2\nreps=2\nt0=20\nt=40\n"
                        "methods=lasso\ntune_reps=0\n")
        out = tmp_path / "o"
        assert main(["experiment", "--spec", str(spec), "--out", str(out),
                     "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        spec = tmp_path / "run.spec"
        spec.write_text("n=30\np=10\ns_star=2\nreps=2\nt0=20\nt=40\n"
                        "methods=lasso\ntune_reps=0\nseed=-3\n")
        out = tmp_path / "o"
        assert main(["experiment", "--spec", str(spec),
                     "--out", str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_spec_exit_code(self, tmp_path):
        spec = tmp_path / "bad.spec"
        spec.write_text("nope\n")
        assert main(["experiment", "--spec", str(spec),
                     "--out", str(tmp_path / "o")]) == 2
