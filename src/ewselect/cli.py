"""Command-line interface.

Subcommands: fit (single dataset from CSV), experiment (replication sweep
from a spec file), diagnose (design diagnostics), lasso (one lasso fit).
Exit codes: 0 success, 2 validation error, 3 numerical failure, 130
interrupted (Ctrl-C).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import math
import mmap
import multiprocessing
import os
import re
import signal
import sys
import threading
import time
import warnings

import numpy as np

from .baselines import (LassoConfig, default_lasso_penalty,
                        estimate_noise_variance, lasso_coordinate_descent)
from .data import Dataset, rescale_columns
from .diagnostics import DesignReport, design_report
from .errors import (DomainError, NonFiniteError, NotConvergedError,
                     SingularError, TooLargeError)
from .experiments import _g17, emit, parse_spec_file, run_experiment
from .mcmc import (MOVES, ChainConfig, default_threshold, posterior_mean,
                   run_chain, threshold_coefficients)
from .priors import PosteriorConfig, practical_lambda, support_cap

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NUMERICAL = 3
EXIT_INTERRUPTED = 130  # 128 + SIGINT, as a shell reports it


# Data rows are parsed in byte blocks of at least this size, one block per
# usable CPU, every block but the first in a forked child.  A child costs
# about 5 ms (fork, shared buffer, join) and 17-digit cells parse at about
# 60 MB/s on one core: on a 2-vCPU host, two blocks lost to one at 0.1 and
# 0.25 MB of rows (5.7 vs 2.0 ms, 8.0 vs 4.4 ms), broke even near 0.5 MB,
# and won from 1 MB on (2.5 MB: 41 vs 70 ms; 20 MB: 0.26 vs 0.50 s).
_BLOCK_BYTES = 1 << 20

# Bytes read at a time while finding the cuts, and the buffer size of the
# header's and each block's stream.
_CHUNK = 1 << 16

_QUOTE_OR_LINE_END = re.compile(rb'"|\r\n?|\n')

# Blocks that the last read_dataset_csv call parsed, for fit's phase line.
_last_read_blocks = 0


class _Span(io.RawIOBase):
    """Raw stream of the next `size` bytes of the open raw file `raw`."""

    def __init__(self, raw, size):
        self._raw, self._left = raw, size

    def readable(self):
        return True

    def readinto(self, buf):
        with memoryview(buf) as view:
            k = self._raw.readinto(view[:self._left])
        self._left -= k
        return k


def _text(raw):
    """The raw binary stream `raw` as strict UTF-8 text in which LF, CR LF
    and a lone CR end a line and are kept."""
    return io.TextIOWrapper(io.BufferedReader(raw, _CHUNK), encoding="utf-8",
                            newline="")


def _parse_block(text):
    """Parse the data rows of the text stream into a 2-d table.

    The lines are streamed into numpy's C reader: cells may be
    double-quoted, blank lines are skipped and nothing is a comment.
    """
    with warnings.catch_warnings():
        warnings.filterwarnings(
            "ignore", "loadtxt: input contained no data", UserWarning)
        return np.loadtxt(text, delimiter=",", quotechar='"', comments=None,
                          dtype=np.float64, ndmin=2)


def _parse_child(conn, path, start, end, ncols, out):
    """Forked child: parse bytes [start, end) of path into the shared buffer
    `out`, column by column, and send back the table's shape or the error.
    An interrupt is the parent's to handle: it terminates its children."""
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
        with open(path, "rb", buffering=0) as raw:
            raw.seek(start)
            table = _parse_block(_text(_Span(raw, end - start)))
        if table.shape[1] == ncols and table.size:
            np.frombuffer(out, np.float64, table.size).reshape(
                ncols, -1)[...] = table.T
        conn.send(table.shape)
    except Exception as exc:  # the parent raises it in file order
        conn.send(exc)


def _block_count(nbytes):
    """Blocks to parse nbytes of rows in: one per usable CPU, none under
    _BLOCK_BYTES, and one where processes cannot be forked."""
    if "fork" not in multiprocessing.get_all_start_methods():
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    return max(1, min(cpus, nbytes // _BLOCK_BYTES))


def _cuts(raw, start, end, blocks):
    """Offsets [start, ..., end] that cut bytes [start, end) of the seekable
    raw file into at most `blocks` parts of about equal size.  Each inner
    cut falls just after the first line end at or past its target that
    lies outside double quotes (an even number of quotes precede it).  A
    quote inside an unquoted cell makes that cell non-numeric, and every
    cut before such a cell is exact, so its block reports it first."""
    cuts, pos, odd = [start], start, 0
    raw.seek(start)
    for k in range(1, blocks):
        target = start + (end - start) * k // blocks
        while pos < target:
            chunk = raw.read(min(_CHUNK, target - pos))
            if b'"' in chunk:
                odd ^= chunk.count(b'"') & 1
            pos += len(chunk)
        cut = None
        while cut is None:
            chunk = raw.read(_CHUNK)
            if not chunk:
                return cuts + [end]
            for m in _QUOTE_OR_LINE_END.finditer(chunk):
                if m.group() == b'"':
                    odd ^= 1
                elif not odd:
                    cut = pos + m.end()
                    if m.group() == b"\r" and m.end() == len(chunk):
                        cut += raw.read(1) == b"\n"
                    break
            else:
                pos += len(chunk)
        if cut >= end:
            break
        cuts.append(cut)
        pos = cut
        raw.seek(cut)
    return cuts + [end]


def _data_error(path, exc, row0):
    """The DomainError for a block's parse error.  numpy counts a ragged row
    from 1 and a bad cell's from 0, within the block, which row0 data rows
    precede: both become data rows of the file, counted from 1."""
    if isinstance(exc, UnicodeDecodeError):
        return DomainError(f"{path}: not UTF-8 text ({exc.reason})")
    if not isinstance(exc, ValueError):
        return exc
    ragged = "number of columns changed" in str(exc)
    msg = re.sub(r"(.*at )row (\d+)",
                 lambda m: f"{m.group(1)}data row "
                           f"{int(m.group(2)) + row0 + (not ragged)}",
                 str(exc), count=1, flags=re.DOTALL)
    if ragged:
        return DomainError(f"{path}: ragged rows ({msg})")
    return DomainError(f"{path}: non-numeric cell ({msg})")


def _parse_rows(path, cuts, first, ncols):
    """Tables of the data rows between successive cuts, in file order.

    The parent parses the first block from the text stream `first` while
    a forked child parses each other block into a shared anonymous mmap,
    column by column; a child reports only its shape or its error, over a
    pipe.  The first error in file order is raised.  Every child is joined
    before this returns or raises, and is terminated first if it has not
    reported.
    """
    ctx = multiprocessing.get_context("fork") if len(cuts) > 2 else None
    children = []
    # A Ctrl-C while forking is lost in an after-fork hook or orphans the
    # child being forked, so the main thread holds it until all are listed.
    hold = ctx and threading.current_thread() is threading.main_thread()
    held, previous = [], hold and signal.signal(
        signal.SIGINT, lambda *args: held.append(args))
    try:
        try:
            for start, end in zip(cuts[1:-1], cuts[2:]):
                # a row of ncols non-empty cells takes at least 2*ncols bytes
                rows = (end - start + 1) // (2 * ncols)
                out = mmap.mmap(-1, 8 * ncols * max(rows, 1))
                recv, send = ctx.Pipe(duplex=False)
                child = ctx.Process(target=_parse_child,
                                    args=(send, path, start, end, ncols, out))
                child.start()
                send.close()
                children.append((child, recv, out))
        finally:
            if hold:
                signal.signal(signal.SIGINT, previous)
        if held:
            signal.raise_signal(signal.SIGINT)
        tables, row0 = [], 0
        for k in range(len(cuts) - 1):
            if k == 0:
                try:
                    table = _parse_block(first)
                    shape = table.shape
                except ValueError as exc:
                    shape = exc
            else:
                child, recv, out = children[k - 1]
                try:
                    shape = recv.recv()
                except EOFError:
                    shape = None
                child.join()
                if shape is None:
                    raise OSError(f"{path}: the reader of bytes {cuts[k]}-"
                                  f"{cuts[k + 1]} ended without a report "
                                  f"(exit code {child.exitcode})")
            if isinstance(shape, BaseException):
                raise _data_error(path, shape, row0)
            rows, cols = shape
            if rows and cols != ncols:  # the block's first row is ragged
                raise DomainError(f"{path}: ragged rows ({cols} columns, not "
                                  f"{ncols}, at data row {row0 + 1})")
            if rows:
                if k:
                    table = np.frombuffer(out, np.float64, rows * ncols
                                          ).reshape(ncols, rows).T
                tables.append(table)
            row0 += rows
        return tables
    finally:
        for child, recv, _ in children:
            if child.exitcode is None:
                child.terminate()
            child.join()
            recv.close()


def read_dataset_csv(path, sigma=None, rescale=False):
    """Load columns y, x1..xp from a UTF-8 CSV file with a header row.

    The header line is read from the file's UTF-8 text stream and, after an
    optional byte-order mark, parsed with the csv module.  A pipe's rows
    are read on from that stream in one block.  A file's rows are cut into
    byte blocks, one per usable CPU and none under _BLOCK_BYTES, that
    numpy's C reader parses in parallel (see _parse_rows).  y and the
    blocks are gathered into one column-major X, which Dataset keeps
    without a copy.  Returns (Dataset, scales); scales is None unless
    rescale is set, in which case coefficients on the rescaled design
    divide by scales to return to original units.
    """
    global _last_read_blocks
    with open(path, "rb", buffering=0) as raw:
        text = _text(raw)
        try:
            line = text.readline()
        except UnicodeDecodeError as exc:
            raise _data_error(path, exc, 0) from None
        start = len(line.encode())  # a byte-order mark included
        line = line.removeprefix("\ufeff")
        if not line:
            raise DomainError(f"{path}: empty file")
        header = [h.strip() for h in next(csv.reader([line]))]
        if len(set(header)) != len(header):
            raise DomainError(f"{path}: repeated column names in header")
        if "y" not in header:
            raise DomainError(f"{path}: missing 'y' column")
        x_names = [h for h in header if h != "y"]
        if not x_names:
            raise DomainError(f"{path}: no predictor columns")
        expected = [f"x{i}" for i in range(1, len(x_names) + 1)]
        if sorted(x_names) != sorted(expected):
            raise DomainError(
                f"{path}: predictor columns must be x1..x{len(x_names)}, got {x_names}")
        cuts = [0, None]  # a pipe: one block, read on from the header's stream
        if raw.seekable():
            text.detach().detach()  # the buffer would close raw when freed
            end = os.fstat(raw.fileno()).st_size
            cuts = _cuts(raw, start, end, _block_count(end - start))
            raw.seek(start)
            text = _text(_Span(raw, cuts[1] - start))
        tables = _parse_rows(path, cuts, text, len(header))
    _last_read_blocks = len(cuts) - 1
    n = sum(t.shape[0] for t in tables)
    if n == 0:
        raise DomainError(f"{path}: no data rows")
    column = {name: i for i, name in enumerate(header)}
    ycol = column["y"]
    xcols = [column[name] for name in expected]
    if xcols == list(range(xcols[0], xcols[0] + len(xcols))):
        xcols = slice(xcols[0], xcols[0] + len(xcols))  # no copy per block
    X = np.empty((n, len(expected)), order="F")
    y = np.empty(n)
    row0 = 0
    while tables:
        table = tables.pop(0)  # frees each block once it is copied
        rows = table.shape[0]
        y[row0:row0 + rows] = table[:, ycol]
        X[row0:row0 + rows] = table[:, xcols]
        row0 += rows
        del table
    scales = None
    if rescale:
        X, scales = rescale_columns(X)
    X.setflags(write=False)  # frozen and owned: Dataset keeps them
    y.setflags(write=False)
    return Dataset(X, y, sigma), scales


def _write_coefficients(beta, scales, stream):
    w = csv.writer(stream)
    w.writerow(["index", "coefficient"])
    for j in np.flatnonzero(beta):
        value = beta[j] / scales[j] if scales is not None else beta[j]
        w.writerow([int(j), _g17(value)])


def _cmd_fit(args) -> int:
    t_read = time.perf_counter()
    data, scales = read_dataset_csv(args.data, sigma=args.sigma,
                                    rescale=args.rescale)
    t_noise = time.perf_counter()
    sigma = args.sigma
    if sigma is None:
        sigma2 = estimate_noise_variance(data)
        sigma = math.sqrt(sigma2)
        print(f"estimated sigma = {_g17(sigma)}", file=sys.stderr)
    else:
        sigma2 = sigma * sigma
    if sigma2 <= 0:
        raise DomainError("noise variance must be positive to run the sampler")
    pcfg = PosteriorConfig(lam=practical_lambda(data.p, args.lambda_kappa),
                           max_support=support_cap(data.n, args.sbar),
                           sigma2=sigma2)
    ccfg = ChainConfig(burn_in=args.t0, samples=args.t, seed=args.seed)
    t_chain = time.perf_counter()
    acc = run_chain(data, pcfg, ccfg)
    mean = posterior_mean(acc)
    t_threshold = time.perf_counter()
    tau = args.threshold if args.threshold is not None \
        else default_threshold(sigma, data.n, data.p)
    beta, support = threshold_coefficients(mean, tau)
    t_end = time.perf_counter()
    print(f"selected support: {list(support)}", file=sys.stderr)
    print(f"acceptance rate: {acc.accept_rate:.4f}", file=sys.stderr)
    moves = ", ".join(f"{name} {k}/{a}" for name, k, a in
                      zip(MOVES, acc.moves_proposed, acc.moves_accepted))
    print(f"moves (proposed/accepted): {moves}; window-scanned steps "
          f"{acc.window_steps}", file=sys.stderr)
    print(f"neighbour scores built: {acc.neighbour_builds}", file=sys.stderr)
    print(f"wall seconds: read {t_noise - t_read:.4f} "
          f"({_last_read_blocks} blocks), noise {t_chain - t_noise:.4f}, "
          f"chain {t_threshold - t_chain:.4f}, "
          f"threshold {t_end - t_threshold:.4f}", file=sys.stderr)
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


def _csv_cell(v):
    """None as an empty cell, a bool as 0/1, a float to 17 digits."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return int(v)
    return _g17(v) if isinstance(v, float) else v


def _cmd_diagnose(args) -> int:
    data, _ = read_dataset_csv(args.data, rescale=args.rescale)
    try:
        sizes = [int(v) for v in args.s.split(",") if v.strip()]
    except ValueError:
        raise DomainError(f"--s must list integers, got {args.s!r}") from None
    if not sizes:
        raise DomainError("--s must list at least one size")
    reports = [design_report(data, s, mode=args.mode, samples=args.samples,
                             seed=args.seed, sigma=args.sigma, lam=args.lam,
                             cap=args.cap)
               for s in sizes]
    if args.format == "csv":
        w = csv.writer(sys.stdout)
        w.writerow([f.name for f in dataclasses.fields(DesignReport)])
        for r in reports:
            w.writerow([_csv_cell(v) for v in dataclasses.astuple(r)])
    else:
        import json
        for r in reports:
            print(json.dumps(dataclasses.asdict(r), sort_keys=True))
    return EXIT_OK


def _cmd_experiment(args) -> int:
    if args.jobs < 1:
        raise DomainError(f"--jobs must be >= 1, got {args.jobs}")
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
                     help="noise level; estimated by the scaled lasso if omitted")
    fit.add_argument("--t0", type=int, default=3000, help="burn-in steps")
    fit.add_argument("--t", type=int, default=7000, help="recorded steps")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--threshold", type=float, default=None,
                     help="sparsifier cutoff (default sigma*sqrt(2 log p / n))")
    fit.add_argument("--rescale", action="store_true",
                     help="rescale columns to ||X_j||^2 = n; output stays in "
                          "original units")
    fit.set_defaults(func=_cmd_fit)

    lasso = sub.add_parser(
        "lasso", help="one lasso fit",
        description="One lasso fit by coordinate descent. Once the active "
                    "set's signs settle, its stationarity equations are "
                    "solved exactly, and that solution is returned when the "
                    "KKT conditions certify it.")
    lasso.add_argument("data")
    group = lasso.add_mutually_exclusive_group()
    group.add_argument("--lambda-l", type=float, default=None, dest="lambda_l")
    group.add_argument("--a", type=float, default=4.0,
                       help="multiplier in A*sigma*sqrt(log p / n)")
    lasso.add_argument("--sigma", type=float, default=None)
    lasso.add_argument("--max-iter", type=int, default=100_000,
                       help="limit on coordinate-descent sweeps, full and "
                            "active-set sweeps counted alike")
    lasso.add_argument("--tol", type=float, default=1e-8,
                       help="largest move of a converged sweep, unless an "
                            "exact finish returns first")
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
    except KeyboardInterrupt:  # the CSV reader has joined its children
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
