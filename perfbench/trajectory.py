"""Record one point of the benchmark trajectory.

    python3 perfbench/trajectory.py LABEL

Runs the benchmark command of ``BENCHMARK.json`` on every workload: once per
default seed and once on the held-out seed untraced, then once traced. The
seeds are fixed, so every point of the trajectory is measured alike. It
writes ``perfbench/trajectory/LABEL.json`` with the environment kept apart
from the results, and prints each end-to-end metric's median and spread
(interquartile distance over the median) across the default seeds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEEDS = range(1, 11)
# No change to the program may be tuned on this seed while it is written.
HELD_OUT_SEED = 1000


def run(spec, workload, seed, trace) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env = next(line.split(" env ", 1)[1] for line in proc.stderr.splitlines()
               if " env " in line)
    return {"seed": seed, "trace": trace, "env": json.loads(env),
            **{k: result[k] for k in ("correct", "attempted", "failed")},
            "metrics": {k: v["value"] for k, v in result["metrics"].items()}}


def summary(runs, spec) -> dict:
    out = {}
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]] for r in runs]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[m["name"]] = {"median": med, "q1": q1, "q3": q3,
                          "spread": (q3 - q1) / med, "bound": m["bound"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("label")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    doc = {"environment": None, "run_seconds": spec["run_seconds"],
           "default_seeds": [DEFAULT_SEEDS[0], DEFAULT_SEEDS[-1]],
           "held_out_seed": HELD_OUT_SEED,
           "workloads": {}}
    for w in (w["name"] for w in spec["workloads"]):
        runs = [run(spec, w, s, 0) for s in DEFAULT_SEEDS]
        held = run(spec, w, HELD_OUT_SEED, 0)
        traced = run(spec, w, DEFAULT_SEEDS[0], 1)
        doc["environment"] = runs[0].pop("env")
        for r in runs[1:] + [held, traced]:
            if r.pop("env") != doc["environment"]:
                raise SystemExit(f"error: environment changed during {w}")
        doc["workloads"][w] = {"summary": summary(runs, spec), "runs": runs,
                               "held_out": held, "traced": traced}
        for name, s in doc["workloads"][w]["summary"].items():
            print(f"{w:13s} {name:12s} median {s['median']:12.6g} "
                  f"spread {s['spread']:.4f} (bound {s['bound']})", flush=True)
        bad = [r["seed"] for r in runs + [held, traced] if not r["correct"]]
        if bad:
            print(f"{w}: incorrect on seeds {bad}", file=sys.stderr)

    out = HERE / "trajectory" / f"{args.label}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
