"""The repository's benchmark: one workload, end-to-end or traced.

    python3 perfbench/run.py --workload cartpole-converged --seed 1 --seconds 55 --trace 0

Workloads, metrics and their bounds are listed in BENCHMARK.json and
explained in perfbench/README.md. This process starts the workload process
(`workload.py`) a few times to time set-up, then once to measure, and judges
what it reports: every operation's deterministic record must be finite, equal
across passes, and equal to the golden record for the seed when one exists
and the numeric platform matches the one it was recorded on. Human-readable
lines come first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src" / "metarl"
GOLDEN = BENCH_DIR / "golden.json"
WORKLOADS = ("cartpole-converged", "audit")

SETUP_PROBES = 5
RUN_LIMIT_S = 175.0  # the whole benchmark run must end within 180 s
# `workload.calibrate()` takes about this long on a quiet 2-core x86-64 VM.
# Reported times are wall times scaled by REF_CAL_S over the median of the
# calibrations next to the pass (or probe) they come from: seconds at that
# machine's reference speed.
REF_CAL_S = 0.0026

END_TO_END = {
    "run_s": "s",
    "op_s_p50": "s",
    "env_steps_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

# Every traced name gets `.calls`, `.busy_frac` and `.self_frac`.
TRACED = (
    "envs.step_batch",
    "policy.act_batch",
    "policy.forward_inference",
    "policy.logprob_graph",
    "policy.save_checkpoint",
    "rl.sample_batch",
    "rl.policy_objective",
    "rl.objective",
    "autodiff.grad",
    "autodiff.hvp",
    "autodiff.value",
    "autodiff.fd_grad",
    "autodiff.fd_hvp",
    "meta.train",
    "meta.train_epoch",
    "meta.evaluate_policy",
    "harness.audit_oracles",
    "runlog.save_runlog",
)
# Spans that hold a whole pass or epoch. Their self time is work that no
# traced layer accounts for, so it does not count towards trace coverage.
ENTRY_POINTS = ("meta.train", "meta.train_epoch", "harness.audit_oracles")


def digest(record: str) -> str:
    return hashlib.sha256(record.encode()).hexdigest()


def workload_cmd(workload: str, seed: int, *extra: str) -> "list[str]":
    return [sys.executable, str(BENCH_DIR / "workload.py"), "--workload", workload,
            "--seed", str(seed), *extra]


def start(cmd: "list[str]") -> "tuple[subprocess.Popen, float]":
    """Start a workload process and return it with its set-up time: from
    process start to its READY line."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
    line = proc.stdout.readline()
    setup = perf_counter() - t0
    if line.strip() != "READY":
        proc.kill()
        proc.wait()
        raise RuntimeError(f"workload process did not get ready (said {line.strip()!r})")
    return proc, setup


def measure(workload: str, seed: int, seconds: float, trace: bool, deadline: float) -> "tuple[dict, list[float]]":
    """The workload process's result, and the set-up times of the probes in
    reference seconds."""
    setups = []
    for _ in range(SETUP_PROBES):
        proc, setup = start(workload_cmd(workload, seed, "--setup-only"))
        out, _ = proc.communicate(timeout=30)
        setups.append(setup * speed(json.loads(out)["cal_s"]))
    proc, _ = start(workload_cmd(workload, seed, "--seconds", str(seconds), "--trace", str(int(trace))))
    try:
        out, _ = proc.communicate(timeout=max(deadline - perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError("workload process ran past the time limit") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"workload process failed with exit code {proc.returncode}")
    return json.loads(lines[-1]), setups


def source_record() -> "dict[str, object]":
    """Git revision when this is a git checkout, plus the line count and a
    digest of src/metarl, which identify the code in any checkout."""
    files = sorted(SRC.glob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        h.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    rev = None
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        rev = git.stdout.strip() or None
    return {"git_rev": rev, "src_metarl_lines": lines, "src_metarl_sha256": h.hexdigest()}


def judge(result: dict, golden: dict, notes: "list[str]") -> "tuple[int, int]":
    """Count attempted and failed operations. An operation fails when it
    raised, produced a non-finite value or failed the audit tolerance, when
    its record differs between passes, or when it differs from the golden
    record on the golden's platform."""
    workload, seed, n = result["workload"], str(result["seed"]), result["ops_per_pass"]
    want = golden.get("records", {}).get(workload, {}).get(seed)
    if want is None:
        notes.append(f"golden: no record for {workload} seed {seed}; checked finiteness, "
                     "tolerances and pass-to-pass equality only")
    elif golden.get("platform") != result["platform"]:
        notes.append(f"golden: NOT ENFORCED, numeric platform differs: recorded on "
                     f"{golden.get('platform')}, running on {result['platform']}")
    first = [digest(op["record"]) for op in result["passes"][0]["ops"]]
    attempted = failed = 0
    golden_misses = 0
    for p in result["passes"]:
        for i, op in enumerate(p["ops"]):
            d = digest(op["record"])
            bad = not op["ok"] or i >= len(first) or d != first[i]
            if want is not None and (i >= len(want) or d != want[i]):
                golden_misses += 1
                bad = bad or golden.get("platform") == result["platform"]
            if bad:
                notes.append(f"failed op {i}: {op['record']} ok={op['ok']}")
            attempted += 1
            failed += bad
        if p["error"] is not None:
            notes.append(f"pass error: {p['error']}")
            attempted += n - len(p["ops"])
            failed += n - len(p["ops"])
    if want is not None:
        notes.append(f"golden: {golden_misses} of {attempted} records differ from seed {seed}'s golden")
    return max(attempted, 1), failed


def speed(cal_s: "list[float]") -> float:
    """Factor that turns wall seconds into reference seconds."""
    return REF_CAL_S / statistics.median(cal_s)


def complete(result: dict, traced: bool) -> "list[tuple[dict, float]]":
    """The passes of one kind that ran all their operations, each with its
    speed factor from the calibrations made just before and just after it."""
    passes = result["passes"]
    out = [(p, speed(p["cal_s"] + (passes[i - 1]["cal_s"] if i else [])))
           for i, p in enumerate(passes) if p["traced"] == traced and p["error"] is None]
    if not out:
        raise RuntimeError(f"no {'traced' if traced else 'untraced'} pass completed")
    return out


def end_to_end(result: dict, setups: "list[float]", notes: "list[str]") -> "dict[str, float]":
    plain = complete(result, traced=False)
    wall = sum(p["wall_s"] for p, _ in plain)
    ref = sum(p["wall_s"] * f for p, f in plain)
    steps = sum(op["env_steps"] for p, _ in plain for op in p["ops"])
    op_p50 = statistics.median(op["s"] for p, _ in plain for op in p["ops"])
    notes.append(f"wall clock: {wall / len(plain):.4f} s per pass, {op_p50:.4f} s per operation "
                 f"(p50), {steps / wall:.6g} env steps/s; x{ref / wall:.4f} to reference seconds")
    return {
        "run_s": ref / len(plain),
        "op_s_p50": statistics.median(op["s"] * f for p, f in plain for op in p["ops"]),
        "env_steps_per_s": steps / ref,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict, notes: "list[str]") -> "tuple[dict[str, tuple[float, str]], bool]":
    """Per-pass layer numbers from the traced passes, and whether the exact
    call counts match the algorithm's cost structure."""
    traced = complete(result, traced=True)
    plain = complete(result, traced=False)
    n = len(traced)
    wall = sum(p["wall_s"] for p, _ in traced)
    f = sum(p["wall_s"] * f for p, f in traced) / wall
    zero = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "rows": 0}
    t = {name: result["trace"].get(name, zero) for name in TRACED}
    out: "dict[str, tuple[float, str]]" = {}
    for name in TRACED:
        out[f"{name}.calls"] = (t[name]["calls"] / n, "count")
        out[f"{name}.busy_frac"] = (t[name]["busy_s"] / wall, "frac")
        out[f"{name}.self_frac"] = (t[name]["self_s"] / wall, "frac")

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    step, act, obj = t["envs.step_batch"], t["policy.act_batch"], t["rl.objective"]
    epochs = t["meta.train_epoch"]["calls"]
    audits = [op for p, _ in traced for op in p["ops"]] if t["harness.audit_oracles"]["calls"] else []
    out.update({
        "envs.step_batch.rows": (step["rows"] / n, "count"),
        "envs.step_batch.us_per_row": (1e6 * f * ratio(step["self_s"], step["rows"]), "us"),
        "policy.act_batch.rows": (act["rows"] / n, "count"),
        "policy.act_batch.us_per_row": (1e6 * f * ratio(act["busy_s"], act["rows"]), "us"),
        "policy.forward_inference.self_s": (f * t["policy.forward_inference"]["self_s"] / n, "s"),
        "rl.sample_batch.self_s": (f * t["rl.sample_batch"]["self_s"] / n, "s"),
        "rl.rows_per_step": (ratio(step["rows"], step["calls"]), "rows"),
        "rl.mean_episode_len": (ratio(step["rows"], t["rl.sample_batch"]["rows"]), "steps"),
        "rl.objective.self_s": (f * obj["self_s"] / n, "s"),
        "rl.objective.us_per_call": (1e6 * f * ratio(obj["busy_s"], obj["calls"]), "us"),
        "autodiff.grad.self_s": (f * t["autodiff.grad"]["self_s"] / n, "s"),
        "autodiff.hvp.self_s": (f * t["autodiff.hvp"]["self_s"] / n, "s"),
        "meta.grad_per_epoch": (ratio(t["autodiff.grad"]["calls"], epochs), "count"),
        "meta.hvp_per_epoch": (ratio(t["autodiff.hvp"]["calls"], epochs), "count"),
        "meta.sample_batch_per_epoch": (ratio(t["rl.sample_batch"]["calls"], epochs), "count"),
        "meta.rollouts_per_epoch": (ratio(t["rl.sample_batch"]["rows"], epochs), "count"),
        "harness.audit.seeds_passed_frac": (ratio(sum(op["ok"] for op in audits), len(audits)), "frac"),
        "trace.overhead_frac": (
            statistics.median(p["wall_s"] * f for p, f in traced)
            / statistics.median(p["wall_s"] * f for p, f in plain) - 1.0, "frac"),
        "trace.coverage_frac": (
            sum(v["self_s"] for name, v in t.items() if name not in ENTRY_POINTS) / wall, "frac"),
    })
    counts_ok = True
    expected = result["expected_calls"]
    for name, want in expected.items():
        got = t["rl.sample_batch"]["rows"] if name == "rollouts" else t[name]["calls"]
        if got != want * n:
            notes.append(f"count mismatch: {name} made {got / n:g} calls per pass, expected {want}")
            counts_ok = False
    notes.append(f"spans written to {result['spans_file']}")
    return out, counts_ok


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = perf_counter() + RUN_LIMIT_S
    if not (SRC / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC.relative_to(ROOT)}; run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 0:
        ap.error("--seed and --seconds must be >= 0")

    golden = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    try:
        result, setups = measure(args.workload, args.seed, args.seconds, bool(args.trace), deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1

    notes: "list[str]" = []
    attempted, failed = judge(result, golden, notes)
    try:
        if args.trace:
            layer, counts_ok = per_layer(result, notes)
            if not counts_ok:
                failed = attempted
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
        else:
            metrics = {k: {"value": v, "unit": END_TO_END[k]}
                       for k, v in end_to_end(result, setups, notes).items()}
    except RuntimeError as e:
        print("\n".join(notes), file=sys.stderr)
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    notes.append("pass seconds: " + " ".join(
        f"{p['wall_s']:.4f}{'(traced)' if p['traced'] else ''}" for p in result["passes"]))

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "passes": len(result["passes"]), "ops_per_pass": result["ops_per_pass"],
            **source_record(), "platform": result["platform"]}
    print(json.dumps(info))
    for note in notes:
        print(note)
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{'ops_failed_frac':40s} {failed / attempted:.6g} ({failed} of {attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
