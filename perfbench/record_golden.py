"""Record the golden per-operation digests that `run.py` checks against.

    python3 perfbench/record_golden.py 0-31

Runs one pass of every workload for each seed in the range, in the same
workload process the benchmark measures, and rewrites perfbench/golden.json
with the digests and the numeric platform they were recorded on. Regenerate
only for an intended change of behaviour or platform, and say so.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run


def record(workload: str, seed: int) -> "tuple[list[str], dict]":
    proc = subprocess.run(run.workload_cmd(workload, seed, "--seconds", "0"),
                          capture_output=True, text=True, check=True, cwd=run.ROOT)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    (p,) = result["passes"]
    if p["error"] is not None or not all(op["ok"] for op in p["ops"]):
        raise SystemExit(f"{workload} seed {seed} failed; not recording: {p}")
    return [run.digest(op["record"]) for op in p["ops"]], result["platform"]


def main() -> None:
    lo, _, hi = sys.argv[1].partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    golden: dict = {"platform": None, "records": {}}
    for workload in run.WORKLOADS:
        for seed in seeds:
            digests, plat = record(workload, seed)
            if golden["platform"] not in (None, plat):
                raise SystemExit(f"platform changed while recording: {plat}")
            golden["platform"] = plat
            golden["records"].setdefault(workload, {})[str(seed)] = digests
            print(f"{workload} seed {seed}: {len(digests)} records", flush=True)
    run.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"wrote {run.GOLDEN}")


if __name__ == "__main__":
    main()
