"""One benchmark workload, measured in this process.

`run.py` starts this file once per set-up probe and once for the measured
run; it can also be run alone to debug a workload:

    python3 perfbench/workload.py --workload audit --seed 1 --seconds 5 --trace 0

The process pins the BLAS thread count before numpy loads, because the
thread count changes output bits. It prints `READY` when set-up is done,
then repeats *passes* until `--seconds` are spent. A pass is a fixed,
seed-determined sequence of operations started from the same state, so every
pass does the same work and must produce the same records. After each pass
it times `calibrate()`, a fixed piece of pure-Python work, so that `run.py`
can report times at a reference machine speed. The last line of output is
one JSON object holding each pass's timings, calibrations and per-operation
records; `run.py` judges and reports them.
"""

from __future__ import annotations

import os
import sys

# The thread count changes output bits, so the golden records hold for this
# count only. One thread leaves the second core to the rest of the machine,
# which keeps timings steadier than two.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)
if "numpy" in sys.modules:
    raise RuntimeError("workload.py must be imported before numpy to pin the BLAS thread count")

import argparse
import dataclasses
import gc
import hashlib
import json
import platform
import resource
import shutil
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".perfbench_out"
FIXTURE = BENCH_DIR / "fixtures" / "cartpole-converged.f64"

sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH_DIR))

import numpy as np  # noqa: E402

from metarl import autodiff, envs, harness, meta, policy, rl  # noqa: E402
from tracing import Tracer  # noqa: E402

# configs/cartpole.cfg, copied so that a later change to the shipped config
# does not silently change the benchmark.
CARTPOLE = {
    "algorithm": "maml", "learner": "pg", "env": "cartpole",
    "phi_lo": "5.0", "phi_hi": "15.0",
    "alpha": "0.001", "beta": "0.001", "delta": "0.0005", "gamma": "0.99",
    "m_tasks": "5", "k_trajs": "10", "horizon": "200",
    "eval_every": "1", "eval_episodes": "4",
}
AUDIT_K, AUDIT_HORIZON = 2, 15
CAL_PER_PASS = 3


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    ops_per_pass: int
    config: "dict[str, str]"  # training config without seed, epochs and paths

    @property
    def training(self) -> bool:
        return bool(self.config)


WORKLOADS = {
    w.name: w
    for w in (
        # Starts from the converged fixture; see load_fixture().
        Workload("cartpole-converged", 3, {**CARTPOLE, "algorithm": "directed-maml"}),
        Workload("audit", 1, {}),
    )
}


def run_config(w: Workload, seed: int, out_dir: Path) -> meta.RunConfig:
    values = {**w.config, "seed": str(seed), "epochs": str(w.ops_per_pass),
              "out_dir": str(out_dir), "label": w.name}
    return harness.build_run_config(values)


def audit_phis(w: Workload, seed: int) -> "list[float]":
    """One gravity per audited operation, drawn from the workload seed."""
    gen = np.random.Generator(np.random.PCG64(seed))
    return [float(p) for p in gen.uniform(5.0, 15.0, size=w.ops_per_pass)]


def expected_calls(w: Workload, cfg: "meta.MetaConfig | None", theta_size: int) -> "dict[str, int]":
    """Exact calls per pass of the counted layers, from the algorithm's cost
    structure. An audited policy takes three gradients, one Hessian-vector
    product and two loss values per parameter. A directed-maml epoch samples
    one prestep batch and takes one gradient on it; each of its M tasks then
    samples an inner and an outer batch, takes two gradients and one
    Hessian-vector product. Every epoch is evaluated: per task, adapt on K
    rollouts with one gradient, then run `eval_episodes` more."""
    n = w.ops_per_pass
    if not w.training:
        return {"rl.sample_batch": n, "autodiff.grad": 3 * n, "autodiff.hvp": n,
                "autodiff.value": 2 * theta_size * n, "meta.train_epoch": 0}
    m, k = cfg.m_tasks, cfg.k_trajs
    batches = 1 + 2 * m
    eval_episodes = int(w.config["eval_episodes"])
    return {
        "rl.sample_batch": n * (batches + 2 * m),
        "autodiff.grad": n * (batches + m),
        "autodiff.hvp": n * m,
        "autodiff.value": 0,
        "meta.train_epoch": n,
        "rollouts": n * (batches * k + m * (k + eval_episodes)),
    }


class StepCounter:
    """Counts env transitions by patching the environments' `step_batch`."""

    def __init__(self):
        self.steps = 0
        cls = envs.CartPoleEnv
        cls.step_batch = self._counting(cls.__dict__["step_batch"])

    def _counting(self, fn):
        def step_batch(env, states, actions):
            self.steps += len(states)
            return fn(env, states, actions)
        return step_batch


def install_trace(tracer: Tracer) -> None:
    """Patch every traced name; `tracer.unpatch()` restores them."""
    def nth(i, key):
        return lambda a, kw: len(a[i]) if len(a) > i else len(kw[key])

    tracer.patch(envs.CartPoleEnv, "step_batch", "envs.step_batch", rows=nth(1, "states"))
    tracer.patch(rl, "act_batch", "policy.act_batch", rows=nth(1, "states"))
    tracer.patch(policy, "forward_inference", "policy.forward_inference")
    tracer.patch(rl, "forward_inference", "policy.forward_inference")
    tracer.patch(rl, "logprob_graph", "policy.logprob_graph")
    tracer.patch(meta, "save_checkpoint", "policy.save_checkpoint")
    tracer.patch(rl, "sample_batch", "rl.sample_batch",
                 rows=lambda a, kw: a[2] if len(a) > 2 else kw["k"])
    tracer.patch(rl, "policy_objective", "rl.policy_objective", wrap_result="rl.objective")
    for fn in ("grad", "hvp", "value", "fd_grad", "fd_hvp"):
        tracer.patch(autodiff, fn, f"autodiff.{fn}")
    for fn in ("train", "train_epoch", "evaluate_policy"):
        tracer.patch(meta, fn, f"meta.{fn}")
    tracer.patch(meta, "save_runlog", "runlog.save_runlog")
    tracer.patch(harness, "audit_oracles", "harness.audit_oracles")


def _f(x) -> str:
    return "null" if x is None else repr(float(x))


def _finite(*xs) -> bool:
    return all(x is None or np.isfinite(x) for x in xs)


def calibrate() -> float:
    """Seconds for a fixed piece of pure-Python work: an arithmetic loop and
    building a chain of 10,000 small objects, the kind of interpreter work the
    rollout loop and the graph builder do. Best of five, with the garbage
    collector off. It is the benchmark's yardstick for the machine's speed,
    which on a shared host drifts by up to 1.5x over minutes."""
    gc_enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(5):
            t0 = perf_counter()
            s = 0
            for i in range(40000):
                s += i * i
            chain: list = []
            prev = None
            for i in range(10000):
                prev = (i, prev)
                chain.append(prev)
            best = min(best, perf_counter() - t0)
        return best
    finally:
        if gc_enabled:
            gc.enable()


class PassClock:
    """Times the operations of one pass and counts their env transitions."""

    def __init__(self, counter: StepCounter):
        self.counter = counter
        self.ops: "list[dict]" = []
        self._t_start = self._t_last = perf_counter()
        self._steps_last = counter.steps

    @property
    def op_steps(self) -> int:
        """Env transitions of the operation in progress."""
        return self.counter.steps - self._steps_last

    def op_done(self, record: str, ok: bool) -> None:
        now = perf_counter()
        self.ops.append({"s": now - self._t_last, "record": record, "ok": bool(ok),
                         "env_steps": self.op_steps})
        self._t_last, self._steps_last = now, self.counter.steps

    def result(self, error: "str | None") -> dict:
        return {"wall_s": perf_counter() - self._t_start, "ops": self.ops, "error": error}


def training_pass(rc: meta.RunConfig, clock: PassClock) -> dict:
    """One `meta.train` run; an operation is one epoch, evaluation included."""

    def progress(m) -> None:
        clock.op_done(
            f"epoch={m.epoch} eval_return={_f(m.eval_return)} "
            f"grad_norm_outer={_f(m.grad_norm_outer)} "
            f"prestep_grad_norm={_f(m.prestep_grad_norm)} env_steps={clock.op_steps}",
            _finite(m.eval_return, m.grad_norm_outer, m.prestep_grad_norm),
        )

    log = meta.train(rc, progress=progress)
    return clock.result(log.diverged)


def audit_pass(phis: "list[float]", clock: PassClock) -> dict:
    """One `harness.audit_oracles` call per gravity; an operation is one
    audited seed."""
    for phi in phis:
        res = harness.audit_oracles(n_seeds=1, k=AUDIT_K, horizon=AUDIT_HORIZON, phi=phi)
        (g_err,), (h_err,) = res.grad_errors, res.hvp_errors
        clock.op_done(
            f"phi={_f(phi)} grad_rel_err={_f(g_err)} hvp_rel_err={_f(h_err)} "
            f"env_steps={clock.op_steps}",
            res.passed and _finite(g_err, h_err),
        )
    return clock.result(None)


def platform_record() -> "dict[str, object]":
    """What the output bits depend on besides the code and the seed."""
    deps = np.show_config(mode="dicts")
    blas = deps["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas['name']} {blas['version']}",
        "blas_threads": BLAS_THREADS,
        # The benchmark reads nothing outside its checkout, so the CPU is
        # identified by architecture and the SIMD extensions numpy found,
        # which are what numpy and OpenBLAS pick their kernels by.
        "cpu": platform.machine(),
        "simd": deps["SIMD Extensions"]["found"],
    }


def load_fixture() -> np.ndarray:
    """The converged cartpole policy, checked against its recorded sha256."""
    data = FIXTURE.read_bytes()
    want = FIXTURE.with_name(FIXTURE.name + ".sha256").read_text().split()[0]
    if hashlib.sha256(data).hexdigest() != want:
        raise SystemExit(f"{FIXTURE.name}: sha256 does not match its .sha256 file")
    return np.frombuffer(data, dtype="<f8").astype(np.float64)


def start_from(theta_values: np.ndarray) -> None:
    """Make `meta.train` start from the given policy parameters instead of
    the initial ones (`meta.load_state` would also check the checkpoint's
    config, which differs from the workload's)."""
    fresh = meta.init_state

    def init_state(cfg):
        state = fresh(cfg)
        return dataclasses.replace(state, theta=state.theta.with_values(theta_values.copy()))

    meta.init_state = init_state


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=55.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    w = WORKLOADS[args.workload]
    out_dir = OUT_DIR / f"{w.name}-{os.getpid()}"
    if w.training:
        rc = run_config(w, args.seed, out_dir)
        start_from(load_fixture())
        run_pass = lambda clock: training_pass(rc, clock)  # noqa: E731
        theta_size = 0
    else:
        phis = audit_phis(w, args.seed)
        run_pass = lambda clock: audit_pass(phis, clock)  # noqa: E731
        env = envs.make_env(envs.Task(envs.Family.CARTPOLE, 10.0))
        theta_size = sum(s.size for s in policy.actor_arch(env).segments())
    counter = StepCounter()
    print("READY", flush=True)
    if args.setup_only:
        print(json.dumps({"cal_s": [calibrate() for _ in range(CAL_PER_PASS)]}))
        return 0

    passes: "list[dict]" = []
    tracer = Tracer()
    min_passes = 2 if args.trace else 1
    t_start = perf_counter()
    try:
        while True:
            traced = bool(args.trace) and len(passes) % 2 == 1
            if traced:
                install_trace(tracer)
            clock = PassClock(counter)
            try:
                p = run_pass(clock)
            except Exception as e:  # the program failed: report it, do not crash
                p = clock.result(f"{type(e).__name__}: {e}")
            finally:
                tracer.unpatch()
            p["traced"] = traced
            # The machine's speed next to this pass, measured outside it.
            p["cal_s"] = [calibrate() for _ in range(CAL_PER_PASS)]
            passes.append(p)
            if p["error"] is not None:
                break
            longest = max(q["wall_s"] for q in passes)
            if len(passes) >= min_passes and perf_counter() - t_start + longest > args.seconds:
                break
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result = {
        "workload": w.name,
        "seed": args.seed,
        "ops_per_pass": w.ops_per_pass,
        "passes": passes,
        "platform": platform_record(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{w.name}-seed{args.seed}.spans.jsonl"
        tracer.write(spans_path)
        result["trace"] = tracer.summary()
        result["spans_file"] = str(spans_path.relative_to(ROOT))
        result["expected_calls"] = expected_calls(w, rc.meta if w.training else None, theta_size)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
