"""Self-test of the benchmark itself.

Runs every workload at a small size, untraced and traced, and asserts that
each emits exactly the metrics BENCHMARK.json names, with their units; that
every oracle accepts the program's outputs on the committed model and
rejects them on a deliberately perturbed one; that a private name the span
recorder wraps, once gone, makes exactly the metrics read from it absent; that the command ends its
output with the JSON result line; and that without the rtbm sources the
command fails without printing a result.  Run from the repository root:

    python3 perfbench/selftest.py
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import numpy as np

import oracles
import run
import spans
from rtbm import model, sampler, stats, theta, train

SMALL = dict(max_evals=25, n_sample=4000, n_report=1000)

COMMAND = ["--workload", "fit-gamma-nh2", "--seed", "1", "--seconds", "1", "--trace", "0"]


def check_workloads():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS), bench["workloads"]
    want = {
        False: {m["name"]: m["unit"] for m in bench["end_to_end"]},
        True: {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    run.N_POINTS, run.MOMENT_REPS = 300, 1
    for wl in run.WORKLOADS.values():
        small = dataclasses.replace(wl, **SMALL)
        for traced in (False, True):
            result, lines = run.run(small, seed=7, seconds=0.1, traced=traced)
            assert result["correct"] and result["failed"] == 0, (wl.name, traced, lines)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == want[traced], (wl.name, traced, sorted(set(got.items()) ^ set(want[traced].items())))
            assert all(np.isfinite(m["value"]) for m in result["metrics"].values()), result
        print(f"ok   {wl.name}: every end-to-end and per-layer metric emitted with its unit")


#: Private names the recorder wraps -> (the spans or counters built on them,
#: a metric that reads them only indirectly and so must go absent too).
PRIVATE = {
    (train, "_too_many_points"): ({"train.precheck"}, "train.inf_ratio"),
    (theta, "_theta_sum"): ({"theta.sum"}, "model.hidden_params.miss_ratio"),
    (theta, "_TailBound"): ({"theta.radius_solve", "theta.tail_bound.evals"}, "theta.batch.self_s"),
}


def check_vanished_names():
    """Hide each private name while the recorder installs, as if it had been
    renamed; the program still runs, and the metrics that read its spans
    must be absent rather than wrong."""
    install = spans.install
    wl = dataclasses.replace(run.WORKLOADS["fit-gamma-nh2"], **SMALL)
    for (module, attr), (sources, indirect) in PRIVATE.items():
        def install_without(rec, module=module, attr=attr):
            saved = getattr(module, attr)
            delattr(module, attr)
            try:
                install(rec)
            finally:
                setattr(module, attr, saved)

        spans.install = install_without
        try:
            result, lines = run.run(wl, seed=7, seconds=0.1, traced=True)
        finally:
            spans.install = install
        assert result["correct"], lines
        want = {name for name, (_, srcs) in spans.LAYER_METRICS.items() if sources & set(srcs)}
        got = set(spans.LAYER_METRICS) - set(result["metrics"])
        assert got == want and indirect in got, (attr, indirect, sorted(got ^ want))
        assert any(f"{module.__name__}.{attr}" in line for line in lines), lines
        print(f"ok   {module.__name__}.{attr} gone: {len(want)} metrics absent ({', '.join(sorted(want))})")


def _variant(m, t=None, bv=None):
    return model.RtbmModel(m.t if t is None else t, m.q, m.w, m.bv if bv is None else bv, m.bh)


def check_oracles():
    m = run.set_up()
    oracle = oracles.MixtureOracle.of(m)
    bent = _variant(m, t=1.01 * m.t)
    # Moves every component mean by half a component standard deviation; a
    # 1% change of T is below what a KS test of a modest sample resolves.
    shifted = _variant(m, bv=m.bv - 0.5 * np.sqrt(np.diag(m.t)))
    data = run.make_data("gamma", 500, np.random.default_rng(11))
    x = sampler.sample_visible(m, 20000, sampler.RngStream(3)).samples[:, 0]
    cases = {
        "nll": (bent, lambda mm: oracles.check_nll(oracle, data, train.negative_log_likelihood(mm, data))),
        "log_pdf": (bent, lambda mm: oracles.check_log_pdf(oracle, x[:500], mm.log_pdf_visible(x[:500, None]))),
        "cdf": (bent, lambda mm: oracles.check_cdf(oracle, x[:500], mm.cdf_visible_1d(x[:500]))),
        "sample": (shifted, lambda mm: oracles.check_sample(
            oracle, sampler.sample_visible(mm, 20000, sampler.RngStream(4)).samples[:, 0])),
        "report": (bent, lambda mm: oracles.check_report_ks(
            oracle, x[:2000], stats.build_report(mm, x[:2000], data).ks)),
        "moments": (bent, lambda mm: oracles.check_moments(oracle, mm.hidden_mean(), mm.hidden_covariance())),
    }
    for name, (wrong, check) in cases.items():
        assert check(m) == [], (name, check(m))
        problems = check(wrong)
        assert problems, f"the {name} oracle accepted a perturbed model"
        print(f"ok   {name} oracle: accepts the model, rejects it perturbed ({problems[0]})")


def check_command():
    proc = subprocess.run([sys.executable, str(run.HERE / "run.py"), *COMMAND],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0, result
    print("ok   command prints the result line")


def check_bare_directory():
    bare = run.SPANS_DIR / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(run.HERE, bare / run.HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        proc = subprocess.run([sys.executable, f"{run.HERE.name}/run.py", *COMMAND],
                              cwd=bare, capture_output=True, text=True, timeout=180)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0 and not proc.stdout.strip(), (proc.returncode, proc.stdout)
    print(f"ok   without rtbm sources the command exits {proc.returncode} and prints no result")


if __name__ == "__main__":
    check_oracles()
    check_workloads()
    check_vanished_names()
    check_command()
    check_bare_directory()
