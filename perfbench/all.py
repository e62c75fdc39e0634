"""Run every workload in BENCHMARK.json once and print its metrics as a table.

    python3 perfbench/all.py --seed 1 [--seconds 12] [--trace]

Each workload runs in its own ``run.py`` process, as the benchmark's
command does; ``--trace`` adds the traced run of each workload.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = [w["name"] for w in json.loads((HERE.parent / "BENCHMARK.json").read_text())["workloads"]]


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=300,
    )
    if out.returncode != 0:
        sys.stderr.write(out.stderr[-4000:])
        raise SystemExit(f"{workload} (trace {trace}) exited with {out.returncode}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=12)
    ap.add_argument("--trace", action="store_true", help="also run the traced pass")
    args = ap.parse_args()
    ok = True
    for trace in (0, 1) if args.trace else (0,):
        for w in WORKLOADS:
            r = run_one(w, args.seed, args.seconds, trace)
            ok = ok and r["correct"]
            print(f"== {w} (trace {trace}): correct={r['correct']} "
                  f"attempted={r['attempted']} failed={r['failed']} "
                  f"failed_frac={r['failed'] / r['attempted']:.3f}")
            for name, m in r["metrics"].items():
                print(f"   {name:34s} {m['value']:>16.6g} {m['unit']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
