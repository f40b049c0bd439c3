"""The benchmark's trace contract, on one small traced round.

``perfbench/spans.py`` wraps rtbm functions by name and emits a per-layer
metric only when every name it reads was found.  So renaming or deleting a
wrapped name silently drops metrics from the benchmark's output.  This test
runs one small round under the recorder and checks that every wrapped name
exists and that every per-layer metric named in BENCHMARK.json comes out
finite.
"""

import json
import math
import sys
from pathlib import Path

import numpy as np

from rtbm import sampler, stats, train
from rtbm.model import RtbmModel

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import spans  # noqa: E402

#: Per-layer metrics that perfbench/run.py adds from its own round clock.
RUN_METRICS = {"trace.rounds", "trace.wall_s", "trace.overhead_ratio"}


def test_traced_round_emits_every_per_layer_metric():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in bench["per_layer"]} - RUN_METRICS
    serve = json.loads((ROOT / "perfbench" / "serve_model.json").read_text())
    data = np.random.default_rng(1).gamma(7.5, 1.0, 500)
    cfg = train.TrainConfig(population=24, sigma0=0.5, max_evals=25, restarts=1, seed=1)

    rec = spans.SpanRecorder()
    spans.install(rec)
    try:
        train.fit(data, 2, cfg)
        m = RtbmModel.from_dict(serve)
        x = sampler.sample_visible(m, 4000, sampler.RngStream(1)).samples[:, 0]
        m.log_pdf_visible(x[:300, None])
        m.cdf_visible_1d(x[:300])
        stats.build_report(m, x[:1000], data)
        m.hidden_mean(), m.hidden_covariance()
    finally:
        rec.restore()

    assert rec.missing == []
    metrics = spans.layer_metrics(rec, 1)
    assert wanted <= set(metrics), sorted(wanted - set(metrics))
    bad = {name: metrics[name]["value"] for name in wanted if not math.isfinite(metrics[name]["value"])}
    assert bad == {}
