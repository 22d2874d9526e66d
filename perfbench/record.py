#!/usr/bin/env python3
"""Run the benchmark over several seeds and write one record file.

    python3 perfbench/record.py --label "<commit>" \
        --out perfbench/results/<name>.json [--gc-probe] [--compare <earlier record>]

For each workload in BENCHMARK.json it runs `run.py` once per seed 0-9
untraced and once traced (seed 0), checks that every run is correct and prints
exactly the metrics named in BENCHMARK.json, and reports each end-to-end
metric's median and its quartile spread (q3 - q1) / median, as
`statistics.quantiles(values, n=4)` gives the quartiles. `--compare` adds,
for each of these medians, its relative change from the same median in an
earlier record of the same code, and flags a change larger than the metric's
bound. `--gc-probe` adds the cyclic-garbage memory observation: peak RSS
after a fixed number of training steps, with and without a `gc.collect()`
after every step, each in its own process.
"""

from __future__ import annotations

import argparse
import gc
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
ROW = re.compile(r"^\s+(\S+)\s+(\S+) (\S+)\s+n=(\d+)$")

# (workload, steps) for the memory observation; sized to stay under ~3 GB
GC_PROBES = [("train16", 120), ("train32", 10)]
SEEDS = list(range(10))



def bench(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=300, cwd=ROOT)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stdout}\n{proc.stderr}")
    result = json.loads(lines[-1])
    samples = {m[1]: int(m[4]) for m in map(ROW.match, lines) if m}
    notes = [ln.strip() for ln in lines if ln.startswith("  ") and not ROW.match(ln)]
    return {"seed": seed, "trace": trace, "wall_s": wall, "result": result, "samples": samples, "notes": notes}


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def gc_probe(workload: str, steps: int, collect: bool) -> None:
    """Child: train `steps` steps one train() call at a time and print peak RSS."""
    sys.argv = sys.argv[:1]
    sys.path.insert(0, str(HERE))
    import run

    w = run.WORKLOADS[workload]
    work = run.OUT / f"gcprobe-{workload}"
    try:
        data, model, _ = run.make_inputs(0, w.patch, work)
    finally:
        run.shutil.rmtree(work, ignore_errors=True)
    cfg = run.training.TrainConfig(epochs=run.HORIZON_STEPS, iters_per_epoch=1, batch=w.batch,
                                   patch_size=(w.patch,) * 3, seed=run.MODEL_SEED)
    ckpt = None
    for step in range(steps):
        ckpt, _ = run.training.train(model, data, cfg, resume=ckpt, stop_epoch=step + 1)
        if collect:
            gc.collect()
    print(json.dumps({"peak_rss_mb": run.peak_rss_mb()}))


def cache_sizes() -> dict:
    sizes = {}
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((d / f).read_text().strip() for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind in ("Data", "Unified"):
            sizes[f"L{level}"] = size
    return sizes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--label", default="")
    p.add_argument("--out", type=Path)
    p.add_argument("--compare", type=Path)
    p.add_argument("--gc-probe", action="store_true")
    p.add_argument("--gc-child", nargs=3, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.gc_child:
        name, steps, collect = args.gc_child
        gc_probe(name, int(steps), collect == "1")
        return 0

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"] for m in spec["per_layer"]}
    earlier = json.loads(args.compare.read_text())["workloads"] if args.compare else None
    sys.path.insert(0, str(HERE))
    import run

    record = {
        "label": args.label,
        "compared_with": str(args.compare) if args.compare else None,
        "date": time.strftime("%Y-%m-%d"),
        "machine": {**run.machine_facts(), "caches": cache_sizes()},
        "run_seconds": seconds,
        "seeds": SEEDS,
        "workloads": {},
    }
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = []
        for seed in SEEDS:
            r = bench(name, seed, seconds, 0)
            runs.append(r)
            vals = {k: round(v["value"], 4) for k, v in r["result"]["metrics"].items()}
            print(f"{name} seed {seed} wall {r['wall_s']:.1f}s {vals}", flush=True)
        traced = [bench(name, seed, seconds, 1) for seed in SEEDS[:1]]
        for r in runs + traced:
            res = r["result"]
            want = layers if r["trace"] else set(e2e)
            if not res["correct"] or res["failed"] or set(res["metrics"]) != want:
                problems.append(f"{name} seed {r['seed']} trace {r['trace']}: {res['failed']} failed, "
                                f"metric keys differ by {set(res['metrics']) ^ want}, notes {r['notes']}")
        summary = {}
        for key, m in e2e.items():
            s = spread([r["result"]["metrics"][key]["value"] for r in runs])
            s["bound"] = m["bound"]
            s["samples_per_run"] = statistics.median(r["samples"].get(key, 0) for r in runs)
            summary[key] = s
            if key != "setup_s" and s["spread"] > m["bound"] / 3:
                problems.append(f"{name} {key}: spread {s['spread']:.4f} above a third of bound {m['bound']}")
            line = f"  {name} {key}: median {s['median']:.6g} spread {s['spread']:.4f}"
            if earlier is not None:
                ref = earlier[name]["end_to_end"][key]["median"]
                s["median_change"] = (s["median"] - ref) / ref
                line += f" change {s['median_change']:+.4f}"
                if abs(s["median_change"]) > m["bound"]:
                    problems.append(f"{name} {key}: median moved {s['median_change']:+.4f} from {args.compare}, "
                                    f"beyond bound {m['bound']}")
            print(f"{line} (bound {m['bound']})")
        record["workloads"][name] = {
            "end_to_end": summary,
            "runs": [{"seed": r["seed"], "wall_s": r["wall_s"], "correct": r["result"]["correct"],
                      "attempted": r["result"]["attempted"], "failed": r["result"]["failed"],
                      "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}} for r in runs],
            "traced": [{"seed": r["seed"], "wall_s": r["wall_s"], "notes": r["notes"],
                        "metrics": {k: v["value"] for k, v in r["result"]["metrics"].items()}} for r in traced],
        }

    if args.gc_probe:
        probes = []
        for name, steps in GC_PROBES:
            for collect in (0, 1):
                proc = subprocess.run([sys.executable, __file__, "--gc-child", name, str(steps), str(collect)],
                                      capture_output=True, text=True, timeout=600, cwd=ROOT)
                if proc.returncode != 0:
                    raise RuntimeError(proc.stderr)
                peak = json.loads(proc.stdout.strip().splitlines()[-1])["peak_rss_mb"]
                probes.append({"workload": name, "steps": steps, "gc_collect_per_step": bool(collect),
                               "peak_rss_mb": peak})
                print(f"gc probe {name} {steps} steps collect={collect}: peak RSS {peak:.0f} MB", flush=True)
        record["gc_probe"] = probes

    record["problems"] = problems
    for line in problems:
        print(f"PROBLEM {line}")
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
