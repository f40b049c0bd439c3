"""Regenerate serve_model.json, the model the serving mix runs on.

The model is a deterministic short fit: nh=2 on 2000 draws of gamma(7.5, 1)
from numpy's default_rng(42), with the acceptance suite's optimizer
settings, one restart, CMA-ES seed 0 and a budget of 1200 evaluations
(1177 made).  Run from the repository root:

    python3 perfbench/make_serve_model.py

The file is committed so that every commit serves the same parameters; the
benchmark prints its fingerprint with each run.
"""

import json

import numpy as np

import run
from rtbm import train


def main():
    data = np.random.default_rng(42).gamma(7.5, 1.0, 2000)
    cfg = train.TrainConfig(max_evals=1200, seed=0, **run.TRAIN_KW)
    fit = train.fit(data, 2, cfg)
    doc = fit.model.to_dict()
    doc["metadata"] = {
        "produced_by": "perfbench/make_serve_model.py",
        "evaluations": fit.evaluations,
        "nll_refined": fit.nll_refined,
        "hidden_points": len(fit.model.hidden_params().points),
    }
    run.SERVE_MODEL.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {run.SERVE_MODEL.name}: fingerprint {fit.model.fingerprint()}, {doc['metadata']}")


if __name__ == "__main__":
    main()
