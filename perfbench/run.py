"""rtbm benchmark: fixed-budget fits, a serving mix, and an outside-in layer trace.

Run from the repository root:

    python3 perfbench/run.py --workload fit-gamma-nh2 --seed 1 --seconds 36 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for a reader, with the provenance of the run.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` a
span recorder wraps the rtbm layers from outside (see spans.py) and the
metrics are per layer.

Every workload is closed-loop, one caller in one process with BLAS pinned
to one thread, and repeats rounds until ``--seconds`` are used.  A round is
``train.fit`` with a fixed evaluation budget on fresh seed-derived data
(twice on fit-mix1d-nh3), then the serving mix on the committed model ``serve_model.json``:
``sample_visible``, ``log_pdf_visible`` and ``cdf_visible_1d`` at sampled
points, ``stats.build_report`` and the hidden moments.  Workloads differ in
sizes only, so each reports every end-to-end metric while stressing its own
layers.  Every output is checked against oracles.py, which never calls rtbm;
a rejected or raised operation counts in ``failed``.  Times are normalized
by a calibration kernel run around every operation (see ``Clock``); the
report lines give the raw values next to them.

The rtbm command line is not measured: it is argument parsing and atomic
file I/O around the same calls.
"""

import os
import sys

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"  # before numpy loads BLAS: one process, one thread

import argparse
import ctypes
import ctypes.util
import json
import platform
import resource
import statistics
import time
import traceback
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
if not (SRC / "rtbm" / "__init__.py").is_file():
    sys.exit(f"perfbench: no rtbm sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np
import scipy
import scipy.linalg
import scipy.special

from rtbm import model, sampler, stats, train

import oracles
import spans

SERVE_MODEL = HERE / "serve_model.json"
SPANS_DIR = ROOT / ".bench_out"

#: Optimizer settings of the acceptance suite; one restart, fixed budget.
TRAIN_KW = dict(population=24, sigma0=0.5, tol_window=100, restarts=1)

#: Points in every fitted dataset.
N_DATA = 2000

#: log_pdf_visible and cdf_visible_1d query points per call.
N_POINTS = 10**4

#: hidden_mean plus hidden_covariance pairs per moments operation.
MOMENT_REPS = 20

#: Set-ups per run; setup_s is their median.
SETUP_REPEATS = 15

#: Calibration kernel time on the reference machine.  Every operation is
#: timed between two calibrations and scaled by CAL_REF_S over their mean, so
#: the times reported are seconds on a machine that runs the kernel in
#: CAL_REF_S.  On a shared 2-core host, raw times drifted by +-25% over
#: seconds while their ratio to the adjacent calibration drifted by 2-5%.
CAL_REF_S = 0.004


@dataclass(frozen=True)
class Workload:
    name: str
    data: str  # "gamma" or "mix1d"
    nh: int
    max_evals: int  # evaluations made: 1 + 24 * floor((max_evals - 1) / 24)
    fits: int  # per round
    n_sample: int
    n_report: int
    why: str


# Fits are short and many because the cost of one fit depends on the path
# CMA-ES takes, which differs by about 18% between seeds; the mean over the
# 20-45 fits of a run is what makes fit_s repeatable.  With population 24, a
# budget of 25 evaluations is the start plus one generation, which no
# adaptation of the optimizer has steered yet: fit_nll guards fit quality
# (no speed gained by fitting worse) only on fit-gamma-nh2, with 10
# generations; on the other two workloads it is the best of 24 perturbations
# of the start.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fit-gamma-nh2", "gamma", 2, 250, 1, 10**5, 10**4,
            "nh=2 fits, where per-candidate overhead (radius solves, decode, "
            "pre-check) outweighs the theta kernel",
        ),
        Workload(
            "fit-mix1d-nh3", "mix1d", 3, 25, 2, 10**5, 10**4,
            "nh=3 fits, where the theta batch kernel and ellipsoid enumeration "
            "dominate each evaluation",
        ),
        Workload(
            "serve-gamma-nh2", "gamma", 2, 25, 1, 10**6, 10**5,
            "serving one fixed model: sampler, densities, CDF and report; the "
            "fit is a one-generation token",
        ),
    )
}

E2E_UNITS = {
    "setup_s": "s",
    "fit_s": "s",
    "fit_evals_per_s": "1/s",
    "fit_nll": "nats",
    "sample_per_s": "1/s",
    "pdf_points_per_s": "1/s",
    "cdf_points_per_s": "1/s",
    "report_s": "s",
    "moments_per_s": "1/s",
    "peak_rss_mb": "MB",
}


def make_data(kind, n, rng):
    """gamma(7.5, 1), or the 3-component 1d mixture of the acceptance suite."""
    if kind == "gamma":
        return rng.gamma(7.5, 1.0, n)
    comp = rng.choice(3, size=n, p=[0.6, 0.1, 0.3])
    return np.array([-5.0, 2.0, 5.0])[comp] + np.array([3.0, 2.0, 5.0])[comp] * rng.standard_normal(n)


def set_up():
    """Load the committed serve model and warm every cache it has."""
    m = model.RtbmModel.from_dict(json.loads(SERVE_MODEL.read_text()))
    m.validate()
    x = sampler.sample_visible(m, 64, sampler.RngStream(0)).samples
    m.log_pdf_visible(x)
    m.cdf_visible_1d(x[:, 0])
    m.hidden_covariance()
    return m


class PeakRss:
    """Peak resident memory of the process during rtbm calls only.

    Before each call, freed heap memory is returned to the system and the
    kernel's high-water mark (VmHWM) is reset to the current resident size;
    after the call the mark is read.  So memory the oracles or the benchmark
    used between calls does not count, while what the caller holds during a
    call (the data, a sample batch) does.  Where the mark cannot be reset,
    the whole process's peak is reported instead and ``scope`` says so.
    """

    CLEAR_REFS = Path("/proc/self/clear_refs")
    STATUS = Path("/proc/self/status")

    def __init__(self):
        self.mb = 0.0
        libc = ctypes.CDLL(ctypes.util.find_library("c"))
        self._trim = getattr(libc, "malloc_trim", lambda pad: 0)
        try:
            self._reset()
            self.resettable = True
        except OSError:
            self.resettable = False
        self.scope = "rtbm calls (VmHWM)" if self.resettable else "whole process (ru_maxrss)"

    def _reset(self):
        self._trim(0)
        self.CLEAR_REFS.write_text("5")  # 5: reset the peak resident size

    def before(self):
        if self.resettable:
            self._reset()

    def after(self):
        if self.resettable:
            kib = next(int(line.split()[1]) for line in self.STATUS.read_text().splitlines()
                       if line.startswith("VmHWM:"))
        else:
            kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        self.mb = max(self.mb, kib / 1024.0)


class Clock:
    """Times operations and normalizes them by an adjacent calibration.

    The calibration kernel is fixed numpy and scipy work that never calls
    rtbm: vectorized special functions and a sort, then small Cholesky
    solves in a Python loop, the two kinds of work rtbm's layers do.
    """

    def __init__(self):
        rng = np.random.default_rng(0)
        self._vec = rng.standard_normal(50_000)
        a = rng.standard_normal((3, 3))
        self._spd = a @ a.T + 3.0 * np.eye(3)
        self._last = self._calibrate()
        self.rss = PeakRss()

    def _kernel(self):
        v = self._vec
        total = float(np.sum(scipy.special.ndtr(v)) + np.sort(v)[0] + np.sum(np.exp(-0.5 * v * v)))
        for _ in range(60):
            low = scipy.linalg.cholesky(self._spd, lower=True)
            total += float(scipy.linalg.cho_solve((low, True), np.ones(3))[0])
        return total

    def _calibrate(self):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self._kernel()
            times.append(time.perf_counter() - start)
        return statistics.median(times)

    def time(self, fn):
        """(result, raw seconds, normalized seconds) of one call of ``fn``;
        the call's peak resident memory goes into ``self.rss``."""
        self.rss.before()
        start = time.perf_counter()
        out = fn()
        raw = time.perf_counter() - start
        self.rss.after()
        now = self._calibrate()
        scale = CAL_REF_S / (0.5 * (self._last + now))
        self._last = now
        return out, raw, raw * scale


class Tally:
    """Operation counts, failures and timings of one run."""

    def __init__(self, clock):
        self.clock = clock
        self.attempted = 0
        self.failed = 0
        self.busy = 0.0  # normalized seconds inside rtbm calls
        self.busy_raw = 0.0
        self.times = defaultdict(list)  # normalized seconds per operation kind
        self.raw = defaultdict(list)
        self.fits = []  # (evaluations, refined NLL)
        self.recorder = None

    def call(self, kind, fn):
        """Run and time one operation; returns its result, or None if it raised."""
        self.attempted += 1
        if self.recorder is not None:
            self.recorder.op = f"{kind}#{self.attempted}"
        try:
            out, raw, secs = self.clock.time(fn)
        except Exception:  # a failed operation is counted, and the run goes on
            print(f"perfbench: {kind} raised", file=sys.stderr)
            traceback.print_exc()
            self.failed += 1
            return None
        self.busy += secs
        self.busy_raw += raw
        self.times[kind].append(secs)
        self.raw[kind].append(raw)
        return out

    def skip(self, kind):
        """An operation that could not run because its input failed."""
        self.attempted += 1
        self.failed += 1
        print(f"perfbench: {kind} skipped, its input failed", file=sys.stderr)

    def verify(self, kind, check, *args):
        try:
            problems = check(*args)
        except oracles.OracleError as exc:
            problems = [f"unverifiable: {exc}"]
        if problems:
            self.failed += 1
            for p in problems:
                print(f"perfbench: {kind} rejected: {p}", file=sys.stderr)


def play_round(wl, m, oracle, seed, r, tally):
    """One round: fixed-budget fits, each on fresh data, then the serving mix on ``m``."""
    for j in range(wl.fits):
        data_seed, cma_seed = np.random.SeedSequence([seed, r, j]).generate_state(2)
        data = make_data(wl.data, N_DATA, np.random.default_rng(int(data_seed)))
        cfg = train.TrainConfig(max_evals=wl.max_evals, seed=int(cma_seed), **TRAIN_KW)
        fit = tally.call("fit", lambda: train.fit(data, wl.nh, cfg))
        if fit is not None:
            tally.fits.append((fit.evaluations, fit.nll_refined))
            tally.verify("fit", lambda: oracles.check_nll(oracles.MixtureOracle.of(fit.model), data, fit.nll_refined))

    batch = tally.call("sample", lambda: sampler.sample_visible(m, wl.n_sample, sampler.RngStream(seed, r)))
    if batch is None:
        for kind in ("pdf", "cdf", "report"):
            tally.skip(kind)
    else:
        x = batch.samples[:, 0]
        tally.verify("sample", oracles.check_sample, oracle, x)
        v = x[:N_POINTS]
        got = tally.call("pdf", lambda: m.log_pdf_visible(v[:, None]))
        if got is not None:
            tally.verify("pdf", oracles.check_log_pdf, oracle, v, got)
        got = tally.call("cdf", lambda: m.cdf_visible_1d(v))
        if got is not None:
            tally.verify("cdf", oracles.check_cdf, oracle, v, got)
        v = x[: wl.n_report]
        rep = tally.call("report", lambda: stats.build_report(m, v, data))
        if rep is not None:
            tally.verify("report", oracles.check_report_ks, oracle, v, rep.ks)

    def moments():
        for _ in range(MOMENT_REPS):
            out = m.hidden_mean(), m.hidden_covariance()
        return out

    got = tally.call("moments", moments)
    if got is not None:
        tally.verify("moments", oracles.check_moments, oracle, *got)


def play_rounds(wl, m, oracle, seed, tally, first, seconds, start):
    """Rounds ``first, first + 1, ...`` until the next would end after ``seconds``."""
    walls = []
    r = first
    while True:
        t0 = time.perf_counter()
        play_round(wl, m, oracle, seed, r, tally)
        walls.append(time.perf_counter() - t0)
        r += 1
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return r - first


def end_to_end(wl, times, fits, setup_times, peak_mb):
    """End-to-end metrics from per-operation seconds (normalized or raw)."""
    out = {"setup_s": statistics.median(setup_times)}
    if times["fit"]:
        # Every fit has its own data, so the mean is the expected cost of a fit.
        out["fit_s"] = statistics.fmean(times["fit"])
        out["fit_evals_per_s"] = sum(e for e, _ in fits) / sum(times["fit"])
        out["fit_nll"] = statistics.fmean(nll for _, nll in fits)
    for kind, name, size in (
        ("sample", "sample_per_s", wl.n_sample),
        ("pdf", "pdf_points_per_s", N_POINTS),
        ("cdf", "cdf_points_per_s", N_POINTS),
        ("moments", "moments_per_s", MOMENT_REPS),
    ):
        if times[kind]:
            out[name] = statistics.median(size / s for s in times[kind])
    if times["report"]:
        out["report_s"] = statistics.median(times["report"])
    out["peak_rss_mb"] = peak_mb
    return out


def blas_vendor():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return "unknown"
    return f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip()


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(seed, m, clock):
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_vendor(),
        "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
        "commit": git_commit(),
        "seed": seed,
        "serve_model": m.fingerprint(),
        "peak_rss_scope": clock.rss.scope,
    }


def run(wl, seed, seconds, traced, spans_path=None):
    """One benchmark run; returns (result dict, report lines)."""
    clock = Clock()
    setup = [clock.time(set_up) for _ in range(SETUP_REPEATS)]
    m = setup[-1][0]
    oracle = oracles.MixtureOracle.of(m)
    lines = [f"provenance {json.dumps(provenance(seed, m, clock), sort_keys=True)}"]

    start = time.perf_counter()
    tally = Tally(clock)
    if not traced:
        rounds = play_rounds(wl, m, oracle, seed, tally, 0, seconds, start)
        norm = end_to_end(wl, tally.times, tally.fits, [s for _, _, s in setup], clock.rss.mb)
        raw = end_to_end(wl, tally.raw, tally.fits, [s for _, s, _ in setup], clock.rss.mb)
        metrics = {k: {"value": float(norm[k]), "unit": u} for k, u in E2E_UNITS.items() if k in norm}
        lines.append(f"{wl.name} seed {seed}: {rounds} rounds, {len(tally.fits)} fits, "
                     f"{tally.busy_raw:.2f} s inside rtbm; times are normalized to a "
                     f"{CAL_REF_S * 1e3:g} ms calibration kernel (raw in brackets)")
        for name, metric in metrics.items():
            lines.append(f"  {name:34s} {metric['value']:.6g} {metric['unit']} ({raw[name]:.6g})")
    else:
        # Round 0 runs to warm up, then untraced and traced: the same work
        # both times, so the ratio of the two is the tracing overhead.
        play_round(wl, m, oracle, seed, 0, tally)
        warm = tally.busy
        play_round(wl, m, oracle, seed, 0, tally)
        plain = tally.busy - warm
        warm_raw = tally.busy_raw
        tally.recorder = rec = spans.SpanRecorder()
        spans.install(rec)
        try:
            play_round(wl, m, oracle, seed, 0, tally)
            first = tally.busy - warm - plain
            rounds = 1 + play_rounds(wl, m, oracle, seed, tally, 1, seconds, start)
        finally:
            rec.restore()
        metrics = spans.layer_metrics(rec, rounds)
        metrics["trace.rounds"] = {"value": float(rounds), "unit": "count"}
        metrics["trace.wall_s"] = {"value": (tally.busy_raw - warm_raw) / rounds, "unit": "s"}
        metrics["trace.overhead_ratio"] = {"value": first / plain, "unit": "ratio"}
        lines.append(f"{wl.name} seed {seed}: {rounds} traced rounds, {len(rec.spans)} spans, "
                     f"tracing overhead x{first / plain:.3f} (normalized, round 0 traced vs untraced); "
                     "counts and self times are per round")
        if rec.missing:
            absent = [name for name in spans.LAYER_METRICS if name not in metrics]
            lines.append(f"wrapped names that no longer exist: {', '.join(rec.missing)}; "
                         f"metrics absent: {', '.join(absent) or 'none'}")
        if spans_path is not None:
            rec.write(spans_path)
            lines.append(f"spans written to {spans_path.relative_to(ROOT)}")
        for name, metric in metrics.items():
            lines.append(f"  {name:34s} {metric['value']:.6g} {metric['unit']}")

    rate = tally.failed / max(tally.attempted, 1)
    lines.append(f"  {'error_rate':34s} {rate:.6g} ({tally.failed} of {tally.attempted} operations failed)")
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    spans_path = SPANS_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz" if args.trace else None
    result, lines = run(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), spans_path)
    print("\n".join(lines))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
