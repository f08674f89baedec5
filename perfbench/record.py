"""Record one entry of the BENCH_*.json trajectory: every workload at one seed,
untraced (end-to-end metrics) and traced (per-module metrics).

From the root of a checkout:

    python3 perfbench/record.py LABEL [--seed SEED] [--seconds SECONDS]

writes perfbench/BENCH_<LABEL>.json. Each workload runs in its own process,
one after another.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from run import DEFAULT_SEED, SPEC

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.splitlines()
    if not lines:
        raise SystemExit(f"{workload}: no output (exit {proc.returncode})\n{proc.stderr}")
    tagged = {line.split(" ", 1)[0]: line.split(" ", 1)[1] for line in lines
              if line.startswith(("env ", "extra "))}
    return {"exit": proc.returncode, "env": json.loads(tagged["env"]),
            "extra": json.loads(tagged["extra"]), "result": json.loads(lines[-1])}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("label")
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = ap.parse_args()
    entry = {"label": args.label, "seed": args.seed, "seconds": args.seconds, "workloads": {}}
    for w in (w["name"] for w in SPEC["workloads"]):
        plain = run(w, args.seed, args.seconds, 0)
        traced = run(w, args.seed, args.seconds, 1)
        entry.setdefault("env", plain["env"])
        entry["workloads"][w] = {
            "correct": plain["result"]["correct"] and traced["result"]["correct"],
            "end_to_end": {k: m["value"] for k, m in plain["result"]["metrics"].items()},
            "extra": plain["extra"],
            "per_layer": {k: m["value"] for k, m in traced["result"]["metrics"].items()},
            "traced_extra": traced["extra"],
        }
        print(f"{w}: done", file=sys.stderr)
    path = HERE / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(entry, indent=1) + "\n")
    print(path.relative_to(ROOT))
    return 0


if __name__ == "__main__":
    sys.exit(main())
