"""Outside-in span recorder for the benchmark's traced run.

The recorder replaces functions of the rtbm modules with timing wrappers at
the names their callers look them up by: a module attribute, or a class
attribute for methods.  ``theta``, ``train`` and ``lattice`` bind
``cholesky`` and ``solve_spd`` by ``from .numerics import``, so those
names are wrapped in each importing module as well as in ``numerics``.
The package itself carries no instrumentation.

Each span holds a name, start and end times, the index of the enclosing
span and the benchmark operation it belongs to; spans stay in memory until
the run writes them out.  A span's self time is its duration minus the
time covered by its direct children (calls nest on one thread).
"""

import gzip
import json
import time
from collections import defaultdict

import numpy as np

from rtbm import lattice, model, numerics, sampler, stats, theta, train

RAISED = "raised"

NAME, START, END, PARENT, OP, VALUE = range(6)


def _unwrap(raw):
    """Plain function behind a class attribute, and how to wrap it back."""
    if isinstance(raw, (classmethod, staticmethod)):
        return raw.__func__, type(raw)
    return raw, lambda f: f


class SpanRecorder:
    """In-memory spans and call counters for wrapped rtbm functions."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index, op id, value]
        self.counts = defaultdict(int)
        self.missing = []
        self.wrapped = set()
        self.op = None
        self._stack = []
        self._patched = []

    def _resolve(self, module, path):
        """(owner, attribute, raw value) for a dotted path, or None if gone."""
        *parents, attr = path.split(".")
        owner = module
        for part in parents:
            owner = getattr(owner, part, None)
            if owner is None:
                break
        raw = None
        if owner is not None:
            raw = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if raw is None:
            self.missing.append(f"{module.__name__}.{path}")
            return None
        return owner, attr, raw

    def _install(self, owner, attr, raw, make_wrapper):
        func, rewrap = _unwrap(raw)
        setattr(owner, attr, rewrap(make_wrapper(func)))
        self._patched.append((owner, attr, raw))

    def span(self, module, path, name, value=None):
        """Record a span ``name`` around every call of ``module.path``.

        ``value(args, kwargs, result)`` is stored with the span when given;
        a call that raises stores RAISED instead.
        """
        found = self._resolve(module, path)
        if found is None:
            return
        self.wrapped.add(name)
        spans, stack = self.spans, self._stack

        def make_wrapper(func):
            def wrapper(*args, **kwargs):
                rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
                stack.append(len(spans))
                spans.append(rec)
                rec[START] = time.perf_counter()
                try:
                    out = func(*args, **kwargs)
                except BaseException:
                    rec[END] = time.perf_counter()
                    stack.pop()
                    rec[VALUE] = RAISED
                    raise
                rec[END] = time.perf_counter()
                stack.pop()
                if value is not None:
                    rec[VALUE] = value(args, kwargs, out)
                return out

            return wrapper

        self._install(*found, make_wrapper)

    def count(self, module, path, name):
        """Count calls of ``module.path`` without recording spans."""
        found = self._resolve(module, path)
        if found is None:
            return
        self.wrapped.add(name)
        counts = self.counts

        def make_wrapper(func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)

            return wrapper

        self._install(*found, make_wrapper)

    def restore(self):
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    def write(self, path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as fh:
            json.dump({"missing": self.missing, "fields": ["name", "start", "end", "parent", "op", "value"],
                       "spans": self.spans}, fh)


def _rhs_cols(args, kwargs, out):
    b = np.asarray(args[1] if len(args) > 1 else kwargs["b"])
    return 1 if b.ndim < 2 else b.shape[1]


def _sampler_accept(args, kwargs, out):
    probs = getattr(args[0], "accept_prob", None)
    return None if probs is None else float(np.mean(probs))


def install(rec):
    """Wrap every layer boundary the per-layer metrics are built from."""
    for module in (numerics, theta, train, lattice):
        rec.span(module, "cholesky", "numerics.cholesky")
    for module in (numerics, theta, train):
        rec.span(module, "solve_spd", "numerics.solve_spd", _rhs_cols)

    rec.span(train, "fit", "train.fit", lambda a, k, out: out.evaluations)
    rec.span(train, "decode", "train.decode")
    rec.span(train, "_too_many_points", "train.precheck", lambda a, k, out: bool(out))
    rec.span(train, "negative_log_likelihood", "train.nll", lambda a, k, out: bool(np.isfinite(out)))

    rec.span(model, "RtbmModel.hidden_params", "model.hidden_params", lambda a, k, out: len(out.points))
    rec.span(model, "RtbmModel.log_pdf_visible", "model.log_pdf_visible")
    rec.span(model, "RtbmModel.cdf_visible_1d", "model.cdf_visible_1d",
             lambda a, k, out: int(np.size(a[1] if len(a) > 1 else k["x"])))
    rec.span(model, "RtbmModel.hidden_mean", "model.hidden_moments")
    rec.span(model, "RtbmModel.hidden_covariance", "model.hidden_moments")

    rec.span(theta, "theta_tilde_batch", "theta.batch",
             lambda a, k, out: int(np.atleast_2d(a[0] if a else k["zs"]).shape[0]))
    rec.span(theta, "_theta_sum", "theta.sum", lambda a, k, out: out.value.point_count)
    rec.span(theta, "_TailBound.solve_radius", "theta.radius_solve")
    rec.count(theta, "_TailBound.log_bound", "theta.tail_bound.evals")

    rec.span(lattice, "enumerate_ellipsoid", "lattice.enumerate", lambda a, k, out: len(out))
    rec.span(lattice, "shortest_vector_estimate", "lattice.svp")

    rec.span(sampler, "HiddenSamplerState.from_model", "sampler.state")
    rec.span(sampler, "sample_hidden", "sampler.hidden", _sampler_accept)
    rec.span(sampler, "sample_visible", "sampler.visible")

    rec.span(stats, "build_report", "stats.report")
    rec.span(stats, "ks_distance", "stats.ks")
    rec.span(stats, "histogram", "stats.histogram")
    rec.span(stats, "chi2_rtbm", "stats.chi2")


# Per-layer metric -> (unit, every span or counter it reads).  A self time
# also reads the child spans whose time it subtracts, where one of them wraps
# a private name: when that name is gone its time would silently move into
# the parent's.  A metric is emitted only when every source was wrapped, so
# one built on a name that no longer exists is reported absent.
LAYER_METRICS = {
    "train.objective_evals": ("count", ("train.fit",)),
    "train.nll.ms_p50": ("ms", ("train.fit", "train.nll")),
    "train.nll.ms_p99": ("ms", ("train.fit", "train.nll")),
    "train.nll.samples": ("count", ("train.fit", "train.nll")),
    "train.decode.self_s": ("s", ("train.decode",)),
    "train.precheck.self_s": ("s", ("train.precheck", "theta.radius_solve")),
    "train.inf_ratio": ("ratio", ("train.fit", "train.nll", "train.precheck", "train.decode")),
    "model.hidden_params.calls": ("count", ("model.hidden_params",)),
    "model.hidden_params.miss_ratio": ("ratio", ("model.hidden_params", "theta.sum")),
    "model.log_pdf_visible.self_s": ("s", ("model.log_pdf_visible",)),
    "model.cdf_visible_1d.self_s": ("s", ("model.cdf_visible_1d",)),
    "model.cdf_visible_1d.terms": ("count", ("model.cdf_visible_1d", "model.hidden_params")),
    "model.hidden_moments.self_s": ("s", ("model.hidden_moments", "theta.sum")),
    "model.hidden_moments.enumerations": ("count", ("model.hidden_moments", "lattice.enumerate")),
    "theta.batch.calls": ("count", ("theta.batch",)),
    "theta.batch.self_s": ("s", ("theta.batch", "theta.radius_solve")),
    "theta.batch.base_points_p50": ("count", ("theta.batch", "lattice.enumerate")),
    "theta.batch.terms": ("count", ("theta.batch", "lattice.enumerate")),
    "theta.batch.ns_per_term": ("ns", ("theta.batch", "lattice.enumerate", "theta.radius_solve")),
    "theta.sum.calls": ("count", ("theta.sum",)),
    "theta.sum.self_s": ("s", ("theta.sum", "theta.radius_solve")),
    "theta.sum.points_p50": ("count", ("theta.sum",)),
    "theta.radius_solve.calls": ("count", ("theta.radius_solve",)),
    "theta.radius_solve.self_s": ("s", ("theta.radius_solve",)),
    "theta.tail_bound.evals": ("count", ("theta.tail_bound.evals",)),
    "lattice.enumerate.calls": ("count", ("lattice.enumerate",)),
    "lattice.enumerate.self_s": ("s", ("lattice.enumerate",)),
    "lattice.enumerate.points": ("count", ("lattice.enumerate",)),
    "lattice.enumerate.us_per_point": ("us", ("lattice.enumerate",)),
    "lattice.svp.calls": ("count", ("lattice.svp",)),
    "lattice.svp.self_s": ("s", ("lattice.svp",)),
    "numerics.solve_spd.calls": ("count", ("numerics.solve_spd",)),
    "numerics.solve_spd.self_s": ("s", ("numerics.solve_spd",)),
    "numerics.solve_spd.rhs_cols": ("count", ("numerics.solve_spd",)),
    "numerics.cholesky.calls": ("count", ("numerics.cholesky",)),
    "numerics.cholesky.self_s": ("s", ("numerics.cholesky",)),
    "sampler.state.self_s": ("s", ("sampler.state",)),
    "sampler.hidden.self_s": ("s", ("sampler.hidden",)),
    "sampler.hidden.accept_ratio": ("ratio", ("sampler.hidden",)),
    "sampler.conditional.self_s": ("s", ("sampler.visible",)),
    "stats.ks.self_s": ("s", ("stats.ks",)),
    "stats.histogram.self_s": ("s", ("stats.histogram",)),
    "stats.chi2.self_s": ("s", ("stats.chi2",)),
}


def layer_metrics(rec, rounds):
    """Per-layer metrics from the recorded spans.

    Counts and self times are per traced round (totals / ``rounds``), so a
    faster commit, which fits more rounds into the same seconds, still
    compares like for like; ratios, percentiles and per-unit costs are
    computed over the whole traced run.
    """
    spans = rec.spans
    n = len(spans)
    parent = np.array([s[PARENT] for s in spans], dtype=np.int64)
    dur = np.array([s[END] - s[START] for s in spans], dtype=float)
    has_parent = parent >= 0
    self_time = dur - np.bincount(parent[has_parent], weights=dur[has_parent], minlength=n)

    by_name = defaultdict(list)
    kids = defaultdict(list)
    for i, s in enumerate(spans):
        by_name[s[NAME]].append(i)
        if s[PARENT] >= 0:
            kids[s[PARENT]].append(i)

    def idx(name):
        return by_name.get(name, [])

    def values(name):
        return [spans[i][VALUE] for i in idx(name)]

    def self_s(name):
        return float(self_time[idx(name)].sum())

    def child_values(i, child):
        return [spans[j][VALUE] for j in kids[i] if spans[j][NAME] == child]

    per = 1.0 / max(rounds, 1)
    out = {}

    evals = sum(v for v in values("train.fit") if isinstance(v, int))
    # The last NLL of each fit re-scores the winner at the strict epsilon;
    # the others are the optimizer's objective evaluations.
    search = []
    for f in idx("train.fit"):
        search += [j for j in kids[f] if spans[j][NAME] == "train.nll"][:-1]
    out["train.objective_evals"] = evals * per
    if search:
        ms = dur[search] * 1e3
        out["train.nll.ms_p50"] = float(np.percentile(ms, 50))
        out["train.nll.ms_p99"] = float(np.percentile(ms, 99))
    out["train.nll.samples"] = len(search) * per
    out["train.decode.self_s"] = self_s("train.decode") * per
    out["train.precheck.self_s"] = self_s("train.precheck") * per
    # +inf candidates: pre-check rejections, plus decodes, pre-checks and
    # NLLs that raised, plus NLLs that returned a non-finite value.
    inf = sum(1 for v in values("train.precheck") if v is True or v == RAISED)
    inf += sum(1 for v in values("train.decode") if v == RAISED)
    inf += sum(1 for j in search if spans[j][VALUE] is False or spans[j][VALUE] == RAISED)
    if evals:
        out["train.inf_ratio"] = inf / evals

    hp = idx("model.hidden_params")
    out["model.hidden_params.calls"] = len(hp) * per
    if hp:
        missed = sum(1 for i in hp if child_values(i, "theta.sum"))
        out["model.hidden_params.miss_ratio"] = missed / len(hp)
    out["model.log_pdf_visible.self_s"] = self_s("model.log_pdf_visible") * per
    out["model.cdf_visible_1d.self_s"] = self_s("model.cdf_visible_1d") * per
    terms = 0
    for i in idx("model.cdf_visible_1d"):
        pts = child_values(i, "model.hidden_params")
        if pts and isinstance(spans[i][VALUE], int):
            terms += spans[i][VALUE] * pts[-1]
    out["model.cdf_visible_1d.terms"] = terms * per

    in_moments = np.zeros(n, dtype=bool)
    for i, s in enumerate(spans):
        in_moments[i] = s[NAME] == "model.hidden_moments" or (s[PARENT] >= 0 and in_moments[s[PARENT]])
    enum = idx("lattice.enumerate")
    out["model.hidden_moments.self_s"] = self_s("model.hidden_moments") * per
    out["model.hidden_moments.enumerations"] = float(np.count_nonzero(in_moments[enum])) * per

    base, batch_terms = [], 0
    for i in idx("theta.batch"):
        pts = child_values(i, "lattice.enumerate")
        if pts and isinstance(pts[-1], int) and isinstance(spans[i][VALUE], int):
            base.append(pts[-1])
            batch_terms += pts[-1] * spans[i][VALUE]
    out["theta.batch.calls"] = len(idx("theta.batch")) * per
    out["theta.batch.self_s"] = self_s("theta.batch") * per
    if base:
        out["theta.batch.base_points_p50"] = float(np.median(base))
    out["theta.batch.terms"] = batch_terms * per
    if batch_terms:
        out["theta.batch.ns_per_term"] = self_s("theta.batch") * 1e9 / batch_terms

    sums = [v for v in values("theta.sum") if isinstance(v, int)]
    out["theta.sum.calls"] = len(idx("theta.sum")) * per
    out["theta.sum.self_s"] = self_s("theta.sum") * per
    if sums:
        out["theta.sum.points_p50"] = float(np.median(sums))
    out["theta.radius_solve.calls"] = len(idx("theta.radius_solve")) * per
    out["theta.radius_solve.self_s"] = self_s("theta.radius_solve") * per
    out["theta.tail_bound.evals"] = rec.counts["theta.tail_bound.evals"] * per

    points = sum(v for v in values("lattice.enumerate") if isinstance(v, int))
    out["lattice.enumerate.calls"] = len(enum) * per
    out["lattice.enumerate.self_s"] = self_s("lattice.enumerate") * per
    out["lattice.enumerate.points"] = points * per
    if points:
        out["lattice.enumerate.us_per_point"] = self_s("lattice.enumerate") * 1e6 / points
    out["lattice.svp.calls"] = len(idx("lattice.svp")) * per
    out["lattice.svp.self_s"] = self_s("lattice.svp") * per

    rhs = sum(v for v in values("numerics.solve_spd") if isinstance(v, int))
    out["numerics.solve_spd.calls"] = len(idx("numerics.solve_spd")) * per
    out["numerics.solve_spd.self_s"] = self_s("numerics.solve_spd") * per
    out["numerics.solve_spd.rhs_cols"] = rhs * per
    out["numerics.cholesky.calls"] = len(idx("numerics.cholesky")) * per
    out["numerics.cholesky.self_s"] = self_s("numerics.cholesky") * per

    out["sampler.state.self_s"] = self_s("sampler.state") * per
    out["sampler.hidden.self_s"] = self_s("sampler.hidden") * per
    accept = [v for v in values("sampler.hidden") if isinstance(v, float)]
    if accept:
        out["sampler.hidden.accept_ratio"] = float(np.mean(accept))
    # sample_visible's own time is its second stage: the conditional
    # Gaussian draw given the hidden states.
    out["sampler.conditional.self_s"] = self_s("sampler.visible") * per

    out["stats.ks.self_s"] = self_s("stats.ks") * per
    out["stats.histogram.self_s"] = self_s("stats.histogram") * per
    out["stats.chi2.self_s"] = self_s("stats.chi2") * per

    return {
        name: {"value": float(out[name]), "unit": unit}
        for name, (unit, sources) in LAYER_METRICS.items()
        if name in out and rec.wrapped.issuperset(sources)
    }
