"""Command-line front end.

Subcommands: ``train`` (fit a model to CSV data), ``sample`` (draw from a
model into CSV), ``pdf`` (density on a grid), ``transform`` (apply an
affine map to the parameters), ``validate`` (sample and score against a
dataset), and ``theta`` (evaluate the theta kernel for debugging).

File formats.  Models are JSON objects with integer ``format_version`` 1,
``nv``/``nh``, ``phase`` ("I", may be omitted; others exit 2), row-major
nested arrays ``t``, ``q``, ``w``, arrays ``bv``/``bh`` and an optional
free-form ``metadata`` object; floats are written with repr round-trip
precision so that load(store(m)) is bit-exact, and loading re-validates
the model.  Bulk data is CSV, one sample per row, with an optional header
(auto-detected by a non-numeric first row).

Exit codes: 0 success, 2 usage or input error, 3 model or training error,
4 numerical-guard error.  Every subcommand is deterministic given its
flags, including ``--seed``.  The environment variable RTBM_THETA_EPS
overrides the default theta tail error (1e-12).
"""

import argparse
import json
import os
import sys
import tempfile

import numpy as np

from . import stats, theta, train
from .errors import (
    InvalidModel,
    NotPositiveDefinite,
    NotSymmetric,
    PointBudgetExceeded,
    RankDeficient,
    RtbmError,
    TruncationMassTooLarge,
)
from .model import RtbmModel
from .sampler import RngStream, sample_visible

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_MODEL = 3
EXIT_GUARD = 4

EPS_ENV_VAR = "RTBM_THETA_EPS"


class _CliError(Exception):
    def __init__(self, code, message):
        self.code = code
        super().__init__(message)


def _default_eps():
    raw = os.environ.get(EPS_ENV_VAR)
    if raw is None:
        return theta.DEFAULT_EPS
    try:
        eps = float(raw)
    except ValueError:
        raise _CliError(EXIT_USAGE, f"{EPS_ENV_VAR} is not a number: {raw!r}")
    if not 0.0 < eps < 1.0:
        raise _CliError(EXIT_USAGE, f"{EPS_ENV_VAR} must lie in (0, 1), got {eps}")
    return eps


def _atomic_write(path, text):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rtbm-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def store_model(m, path, metadata=None):
    """Write a model file atomically (temp file plus rename)."""
    doc = m.to_dict()
    if metadata:
        doc["metadata"] = metadata
    _atomic_write(path, json.dumps(doc, indent=2) + "\n")


def load_model(path):
    """Read and validate a model file; invalid models are rejected."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot read model file {path}: {exc}")
    except json.JSONDecodeError as exc:
        raise _CliError(EXIT_USAGE, f"model file {path} is not valid JSON: {exc}")
    version = doc.get("format_version")
    if version != 1:
        raise _CliError(EXIT_USAGE, f"unsupported model format_version: {version!r}")
    try:
        m = RtbmModel.from_dict(doc)
        m.validate()
    except (InvalidModel, KeyError, TypeError, ValueError) as exc:
        raise _CliError(EXIT_USAGE, f"model file {path} is invalid: {exc}")
    return m, doc.get("metadata")


def load_data(path):
    """Read a CSV data file; one sample per row, optional header row."""
    try:
        with open(path) as fh:
            lines = [ln.strip() for ln in fh if ln.strip()]
    except OSError as exc:
        raise _CliError(EXIT_USAGE, f"cannot read data file {path}: {exc}")
    if not lines:
        raise _CliError(EXIT_USAGE, f"data file {path} is empty")
    rows = [ln.split(",") for ln in lines]
    start = 0
    try:
        [float(cell) for cell in rows[0]]
    except ValueError:
        start = 1
        if len(rows) == 1:
            raise _CliError(EXIT_USAGE, f"data file {path} has a header but no rows")
    width = len(rows[start])
    data = np.empty((len(rows) - start, width))
    for i, row in enumerate(rows[start:], start=start + 1):
        if len(row) != width:
            raise _CliError(
                EXIT_USAGE, f"{path}:{i}: expected {width} columns, got {len(row)}"
            )
        try:
            data[i - start - 1] = [float(cell) for cell in row]
        except ValueError as exc:
            raise _CliError(EXIT_USAGE, f"{path}:{i}: non-numeric cell ({exc})")
    if not np.all(np.isfinite(data)):
        raise _CliError(EXIT_USAGE, f"data file {path} contains non-finite values")
    return data


def _parse_matrix(text, name):
    try:
        rows = [[float(c) for c in row.split(",")] for row in text.split(";")]
    except ValueError:
        raise _CliError(EXIT_USAGE, f"malformed {name}: {text!r}")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise _CliError(EXIT_USAGE, f"ragged rows in {name}: {text!r}")
    if not np.isfinite(rows).all():
        raise _CliError(EXIT_USAGE, f"{name} entries must be finite: {text!r}")
    return np.array(rows)


def _parse_vector(text, name):
    rows = _parse_matrix(text, name)
    if rows.shape[0] != 1:
        raise _CliError(EXIT_USAGE, f"malformed {name}: {text!r}")
    return rows[0]


def _parse_grid(text):
    """Parse "min:max:steps" per dimension, semicolon-separated."""
    axes = []
    for part in text.split(";"):
        pieces = part.split(":")
        if len(pieces) != 3:
            raise _CliError(EXIT_USAGE, f"malformed grid axis: {part!r}")
        try:
            lo, hi, steps = float(pieces[0]), float(pieces[1]), int(pieces[2])
        except ValueError:
            raise _CliError(EXIT_USAGE, f"malformed grid axis: {part!r}")
        if steps < 2:
            raise _CliError(EXIT_USAGE, f"grid axis needs at least 2 steps: {part!r}")
        if not np.all(np.isfinite([lo, hi])):
            raise _CliError(EXIT_USAGE, f"grid axis bounds must be finite: {part!r}")
        if hi <= lo:
            raise _CliError(EXIT_USAGE, f"grid axis must have min < max: {part!r}")
        axes.append(np.linspace(lo, hi, steps))
    return axes


# -- subcommands -------------------------------------------------------------


def _cmd_train(args):
    data = load_data(args.data)
    if args.nh < 1:
        raise _CliError(EXIT_USAGE, f"--nh must be >= 1, got {args.nh}")
    if data.shape[0] < 10:
        raise _CliError(EXIT_USAGE, f"need at least 10 samples, got {data.shape[0]}")
    try:
        config = train.TrainConfig(
            sigma0=args.sigma0,
            max_evals=args.max_evals,
            restarts=args.restarts,
            seed=args.seed,
            population=args.population,
        )
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, f"bad optimizer setting: {exc}")
    try:
        result = train.fit(data, args.nh, config)
    except RtbmError as exc:
        raise _CliError(EXIT_MODEL, f"training failed: {exc}")
    if not np.isfinite(result.nll_refined):
        raise _CliError(EXIT_MODEL, "training failed: non-finite final likelihood")
    store_model(
        result.model,
        args.out,
        metadata={
            "seed": args.seed,
            "nll": result.nll_refined,
            "evaluations": result.evaluations,
            "restart_nlls": result.restart_nlls,
        },
    )
    print(f"final NLL: {result.nll_refined:.6f} ({result.evaluations} evaluations)")
    return EXIT_OK


def _cmd_sample(args):
    if args.n < 1:
        raise _CliError(EXIT_USAGE, f"--n must be >= 1, got {args.n}")
    m, _ = load_model(args.model)
    try:
        batch = sample_visible(m, args.n, RngStream(args.seed), eps=_default_eps())
    except TruncationMassTooLarge as exc:
        raise _CliError(EXIT_GUARD, str(exc))
    except (PointBudgetExceeded, RtbmError) as exc:
        raise _CliError(EXIT_MODEL, str(exc))
    header = ",".join(f"v{i + 1}" for i in range(m.nv))
    body = "\n".join(",".join(repr(float(x)) for x in row) for row in batch.samples)
    _atomic_write(args.out, header + "\n" + body + "\n")
    print(f"wrote {args.n} samples to {args.out}")
    return EXIT_OK


def _cmd_pdf(args):
    m, _ = load_model(args.model)
    axes = _parse_grid(args.grid)
    if len(axes) != m.nv:
        raise _CliError(
            EXIT_USAGE, f"grid has {len(axes)} axes but the model has nv={m.nv}"
        )
    eps = _default_eps()
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([ax.ravel() for ax in mesh], axis=1)
    dens = np.exp(m.log_pdf_visible(points, eps))
    cols = [f"v{i + 1}" for i in range(m.nv)] + ["pdf"]
    series = [points[:, i] for i in range(m.nv)] + [dens]
    if m.nv == 1:
        cols.append("cdf")
        series.append(m.cdf_visible_1d(points[:, 0], eps))
    lines = [",".join(cols)]
    for row in zip(*series):
        lines.append(",".join(repr(float(x)) for x in row))
    _atomic_write(args.out, "\n".join(lines) + "\n")
    print(f"wrote {points.shape[0]} grid values to {args.out}")
    return EXIT_OK


def _cmd_transform(args):
    m, _ = load_model(args.model)
    a = _parse_matrix(args.matrix, "--matrix")
    b = _parse_vector(args.shift, "--shift")
    if a.shape != (m.nv, m.nv):
        raise _CliError(
            EXIT_USAGE, f"--matrix must be {m.nv}x{m.nv}, got {a.shape[0]}x{a.shape[1]}"
        )
    if b.shape != (m.nv,):
        raise _CliError(EXIT_USAGE, f"--shift must have {m.nv} entries")
    if np.linalg.cond(a) > 1e12:
        raise _CliError(EXIT_USAGE, "--matrix is singular (condition number > 1e12)")
    try:
        out = m.affine_transform(a, b)
    except (RankDeficient, NotPositiveDefinite) as exc:
        raise _CliError(EXIT_USAGE, f"transform rejected: {exc}")
    except InvalidModel as exc:
        raise _CliError(EXIT_MODEL, f"transformed model is invalid: {exc}")
    store_model(out, args.out, metadata={"transform_of": os.path.basename(args.model)})
    print(f"wrote transformed model to {args.out}")
    return EXIT_OK


def _cmd_validate(args):
    if args.samples < 1:
        raise _CliError(EXIT_USAGE, f"--samples must be >= 1, got {args.samples}")
    if args.bins < 1:
        raise _CliError(EXIT_USAGE, f"--bins must be >= 1, got {args.bins}")
    m, _ = load_model(args.model)
    data = load_data(args.data)
    if data.shape[1] != m.nv:
        raise _CliError(
            EXIT_USAGE, f"data has {data.shape[1]} columns but the model has nv={m.nv}"
        )
    eps = _default_eps()
    try:
        batch = sample_visible(m, args.samples, RngStream(args.seed), eps=eps)
    except TruncationMassTooLarge as exc:
        raise _CliError(EXIT_GUARD, str(exc))
    if m.nv == 1:
        report = stats.build_report(
            m, batch.samples[:, 0], data[:, 0], bins=args.bins, eps=eps
        ).to_dict()
    else:
        # Multivariate models get per-axis marginal summaries only.
        axes = []
        for i in range(m.nv):
            samp = np.sort(batch.samples[:, i])
            ref = np.sort(data[:, i])
            grid = np.concatenate([samp, ref])
            s_cdf = np.searchsorted(samp, grid, side="right") / samp.size
            r_cdf = np.searchsorted(ref, grid, side="right") / ref.size
            axes.append(
                {
                    "axis": i + 1,
                    "ks_two_sample": float(np.max(np.abs(s_cdf - r_cdf))),
                    "moments_sampling": stats.central_moments(batch.samples[:, i]),
                    "moments_reference": stats.central_moments(data[:, i]),
                }
            )
        report = {"marginals": axes, "n_samples": int(args.samples)}
    report["model_fingerprint"] = batch.model_fingerprint
    report["seed"] = args.seed
    _atomic_write(args.out, json.dumps(report, indent=2) + "\n")
    print(f"wrote validation report to {args.out}")
    return EXIT_OK


def _cmd_theta(args):
    z = _parse_matrix(args.z, "--z")
    omega = _parse_matrix(args.omega, "--omega")
    if z.shape[1] == 1:
        zv = z[:, 0].astype(complex)
    elif z.shape[1] == 2:
        zv = z[:, 0] + 1j * z[:, 1]
    else:
        raise _CliError(EXIT_USAGE, "--z rows must be 're' or 're,im'")
    eps = args.eps if args.eps is not None else _default_eps()
    try:
        value = theta.theta_tilde(zv, omega, eps)
    except (NotPositiveDefinite, NotSymmetric) as exc:
        raise _CliError(EXIT_USAGE, f"omega rejected: {exc}")
    except ValueError as exc:
        raise _CliError(EXIT_USAGE, str(exc))
    print(f"log_magnitude: {value.log_magnitude!r}")
    print(f"phase: {value.phase!r}")
    print(f"tail_bound: {value.tail_bound!r}")
    print(f"radius: {value.radius!r}")
    print(f"point_count: {value.point_count}")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="rtbm",
        description="Riemann-Theta Boltzmann machine: train, sample, validate.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="fit a model to CSV data")
    p.add_argument("--data", required=True, help="CSV dataset, one sample per row")
    p.add_argument("--nh", required=True, type=int, help="number of hidden units")
    p.add_argument("--out", required=True, help="output model JSON path")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-evals", type=int, default=50_000, dest="max_evals")
    p.add_argument("--restarts", type=int, default=3)
    p.add_argument("--sigma0", type=float, default=0.3)
    p.add_argument("--population", type=int, default=None)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("sample", help="draw samples from a model into CSV")
    p.add_argument("--model", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_sample)

    p = sub.add_parser("pdf", help="evaluate the density on a grid")
    p.add_argument("--model", required=True)
    p.add_argument(
        "--grid",
        required=True,
        help='"min:max:steps" per dimension, semicolon-separated',
    )
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_pdf)

    p = sub.add_parser("transform", help="apply an affine map to the parameters")
    p.add_argument("--model", required=True)
    p.add_argument("--matrix", required=True, help='row-major, e.g. "1,0;0,1"')
    p.add_argument("--shift", required=True, help='e.g. "1,2"')
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("validate", help="sample a model and score it against data")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--samples", type=int, default=100_000)
    p.add_argument("--bins", type=int, default=stats.DEFAULT_BINS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("theta", help="evaluate the theta kernel (debugging)")
    p.add_argument("--z", required=True, help='rows "re" or "re,im", semicolon-separated')
    p.add_argument("--omega", required=True, help='row-major, e.g. "2" or "2,0;0,2"')
    p.add_argument("--eps", type=float, default=None)
    p.set_defaults(func=_cmd_theta)
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code else EXIT_OK
    try:
        return args.func(args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except RtbmError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_MODEL


def entry_point():
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
