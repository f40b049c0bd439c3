"""Rebuild baseline.json: every benchmark metric at one commit, with its spread.

Runs run.py untraced once per workload and seed, for seeds 1-10 and then for
seeds 11-20, one process at a time and for BENCHMARK.json's run_seconds;
then traced once per workload.  For every end-to-end metric it writes the
median, the quartiles and the spread (Q3 - Q1) / median over seeds 1-10,
next to the metric's bound, and the same median and spread over seeds 11-20
with how much worse that median is than the first (``worse_by``, a share of
the first median; negative is better).  ``problems`` lists every spread above
its bound (setup_s excepted) and every ``worse_by`` above its bound; it is
empty when two sets of runs of the same code agree.  Run from the repository
root:

    python3 perfbench/baseline.py
"""

import json
import statistics
import subprocess
import sys
import time

import run

SEED_SETS = (range(1, 11), range(11, 21))


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    print(f"{workload} seed {seed} trace {trace}: {time.perf_counter() - start:.1f} s wall, "
          f"correct {result['correct']}, {result['failed']} of {result['attempted']} failed", flush=True)
    return result, lines[0].removeprefix("provenance ")


def summarize(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median, "runs": len(values)}


def seed_set(workload, seeds, seconds):
    """Metric name -> values over ``seeds``, whether every run was correct,
    and the provenance of the last run."""
    values, correct, provenance = {}, True, None
    for seed in seeds:
        result, provenance = run_once(workload, seed, seconds, 0)
        correct &= result["correct"]
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    return values, correct, json.loads(provenance)


def main():
    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    metrics = {m["name"]: m for m in bench["end_to_end"]}

    doc = {"seconds": seconds, "seed_sets": [[s[0], s[-1]] for s in SEED_SETS], "problems": [],
           "workloads": {}}
    for wl in run.WORKLOADS:
        first, correct, provenance = seed_set(wl, SEED_SETS[0], seconds)
        second, correct2, _ = seed_set(wl, SEED_SETS[1], seconds)
        traced, _ = run_once(wl, SEED_SETS[0][0], seconds, 1)
        end_to_end, agreement = {}, {}
        for name, spec in metrics.items():
            a, b = summarize(first[name]), summarize(second[name])
            change = (b["median"] - a["median"]) / a["median"]
            worse_by = change if spec["better"] == "lower" else -change
            end_to_end[name] = {**a, "bound": spec["bound"]}
            agreement[name] = {"median": b["median"], "spread": b["spread"], "worse_by": worse_by}
            for label, s in (("seeds 1-10", a), ("seeds 11-20", b)):
                if name != "setup_s" and s["spread"] > spec["bound"]:
                    doc["problems"].append(f"{wl} {name}: spread {s['spread']:.4f} over {label} "
                                           f"exceeds the bound {spec['bound']}")
            if worse_by > spec["bound"]:
                doc["problems"].append(f"{wl} {name}: seeds 11-20 median is worse by {worse_by:.4f}, "
                                       f"over the bound {spec['bound']}")
            print(f"  {wl:16s} {name:18s} median {a['median']:.6g} spread {a['spread']:.4f} / "
                  f"{b['spread']:.4f} worse_by {worse_by:+.4f} bound {spec['bound']}", flush=True)
        doc["workloads"][wl] = {
            "correct": correct and correct2 and traced["correct"],
            "provenance": provenance,
            "end_to_end": end_to_end,
            "agreement_seeds_11_20": agreement,
            "per_layer_seed_1": {k: m["value"] for k, m in traced["metrics"].items()},
        }
        if not doc["workloads"][wl]["correct"]:
            doc["problems"].append(f"{wl}: an output failed its oracle check")
    with open(run.HERE / "baseline.json", "w") as fh:
        json.dump(doc, fh, indent=1)
        fh.write("\n")
    print("problems:", *doc["problems"] or ["none"], sep="\n  ")
    return 1 if doc["problems"] else 0


if __name__ == "__main__":
    sys.exit(main())
