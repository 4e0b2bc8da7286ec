"""Command-line entry point.

Subcommands: train one run, eval a checkpoint, compare run logs, plot curves,
audit the gradient engine, and sweep a config over seeds (optionally in
parallel processes; every run is internally deterministic, so the parallel
and serial sweeps write identical run logs).
"""

from __future__ import annotations

import argparse
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import harness, meta
from .envs import CARTPOLE_HORIZON
from .errors import MetaRLError, ValidationError
from .meta import CONFIG_KEYS, MAX_ROLLOUT_ROWS, MAX_TRAJECTORIES, check_range
from .rng import Stream
from .runlog import EMA_FACTOR, load_runlog, smoothed_returns, write_atomic


def _add_config_flags(p: argparse.ArgumentParser, with_config_file: bool = True) -> None:
    if with_config_file:
        p.add_argument("--config", default=None, help="config file (key=value lines)")
    for key in CONFIG_KEYS:
        p.add_argument(f"--{key}", default=None, metavar="V", help=f"override {key}")


def _overrides(args: argparse.Namespace) -> "dict[str, str]":
    return {k: getattr(args, k) for k in CONFIG_KEYS if getattr(args, k, None) is not None}


def _config_from(args: argparse.Namespace) -> meta.RunConfig:
    if args.config is not None:
        return harness.load_config(args.config, _overrides(args))
    return harness.build_run_config(_overrides(args))


def _check_factor(flag: str, value: float) -> None:
    if not 0.0 <= value < 1.0:
        raise ValidationError(f"{flag}: smoothing factor must lie in [0, 1), got {value}")


def _parse_tau(value: str) -> "float | None":
    """A number, or 'auto' for 80% of the best smoothed return in the set."""
    if value.strip().lower() == "auto":
        return None
    return float(value)


def _auto_tau(runs, factor: float) -> float:
    curves = [smoothed_returns(log.rows, factor)[2] for log in runs]
    best = max((float(c.max()) for c in curves if c.size), default=-np.inf)
    if not np.isfinite(best):
        raise MetaRLError("cannot derive a threshold: no evaluated epochs in any run")
    return 0.8 * best


def _cmd_train(args) -> int:
    rc = _config_from(args)
    log = meta.train(rc, resume_from=args.resume)
    final = next((r.eval_return for r in reversed(log.rows) if r.eval_return is not None), None)
    msg = (
        f"{rc.label}: {len(log.rows)} epochs, convergence epoch "
        f"{log.convergence_epoch if log.convergence_epoch is not None else 'none'}, "
        f"final eval return {'n/a' if final is None else format(final, '.2f')}"
    )
    if log.diverged:
        msg += f", diverged ({log.diverged})"
    print(msg)
    print(f"wrote {Path(rc.out_dir) / (rc.label + '.runlog')}")
    return 0 if log.diverged is None else 1


def _cmd_eval(args) -> int:
    check_range("--episodes", args.episodes, 1, MAX_TRAJECTORIES)
    rc = _config_from(args)
    cfg = rc.meta
    check_range("--episodes x horizon", args.episodes * cfg.horizon, 1, MAX_ROLLOUT_ROWS)
    state = meta.load_state(args.ckpt, cfg)
    alpha = state.alpha_vec if state.alpha_vec is not None else cfg.alpha
    ret = meta.evaluate_policy(
        state.theta, state.critic, alpha, cfg, Stream(cfg.seed).child(3), args.episodes
    )
    print(
        f"mean post-adaptation return over {cfg.m_tasks} tasks x {args.episodes} episodes: {ret:.4f}"
    )
    return 0


def _load_logs(paths) -> list:
    return [load_runlog(p) for p in paths]


def _cmd_compare(args) -> int:
    check_range("--window", args.window, 1)
    _check_factor("--factor", args.factor)
    runs = _load_logs(args.logs)
    tau = args.tau if args.tau is not None else _auto_tau(runs, args.factor)
    report = harness.summarize(runs, tau, args.window, args.factor)
    text = report.render()
    out = Path(args.out) / "compare.txt"
    out.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out, text)
    print(text, end="")
    print(f"wrote {out}")
    return 0

def _cmd_plot(args) -> int:
    _check_factor("--factor", args.factor)
    runs = _load_logs(args.logs)
    svg, dat = harness.emit_plot(runs, args.factor, args.out)
    print(f"wrote {svg} and {dat}")
    return 0


def _cmd_audit(args) -> int:
    check_range("--seeds", args.seeds, 1)
    check_range("--k_trajs", args.k_trajs, 1, MAX_TRAJECTORIES)
    # The audit runs on cartpole; the horizon also sizes the rollout buffers.
    check_range("--horizon", args.horizon, 1, CARTPOLE_HORIZON)
    check_range("--k_trajs x --horizon", args.k_trajs * args.horizon, 1, MAX_ROLLOUT_ROWS)
    result = harness.audit_oracles(n_seeds=args.seeds, k=args.k_trajs, horizon=args.horizon)
    print(result.render(), end="")
    return 0 if result.passed else 1


def _sweep_worker(rc: meta.RunConfig) -> "tuple[str, int | None, str | None]":
    log = meta.train(rc)
    return rc.label, log.convergence_epoch, log.diverged


def _cmd_sweep(args) -> int:
    base = _config_from(args)
    try:
        seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    except ValueError:
        raise MetaRLError(f"--seeds expects a comma-separated integer list, got {args.seeds!r}")
    if not seeds:
        raise MetaRLError("--seeds expects at least one seed")
    repeated = sorted({s for s in seeds if seeds.count(s) > 1})
    if repeated:
        # Each seed names one run label and its files; a repeat would train
        # the run twice, or write the same files from two workers at once.
        raise MetaRLError(f"--seeds repeats seed {', '.join(map(str, repeated))}: give each seed once")
    # Checked before any pool exists: one worker per seed at most, and no
    # more workers than the machine has CPUs.
    max_workers = min(len(seeds), os.cpu_count() or 1)
    if not 1 <= args.parallel <= max_workers:
        raise MetaRLError(
            f"--parallel must lie in 1..{max_workers} ({len(seeds)} seeds, "
            f"{os.cpu_count() or 1} CPUs), got {args.parallel}"
        )
    configs = [
        replace(base, meta=replace(base.meta, seed=s), label=f"{base.label}-s{s}") for s in seeds
    ]
    if args.parallel > 1:
        with ProcessPoolExecutor(max_workers=args.parallel) as pool:
            results = list(pool.map(_sweep_worker, configs))
    else:
        results = [_sweep_worker(rc) for rc in configs]
    failures = 0
    for label, conv, diverged in results:
        status = f"convergence epoch {conv}" if conv is not None else "no convergence"
        if diverged:
            status += f", diverged ({diverged})"
            failures += 1
        print(f"{label}: {status}")
    print(f"wrote {len(results)} run logs to {base.out_dir}")
    return 0 if failures == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="metarl",
        description="Meta-reinforcement-learning benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training configuration")
    _add_config_flags(p_train)
    p_train.add_argument("--resume", default=None, help="checkpoint to resume from")
    p_train.set_defaults(fn=_cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint (adapt, then measure)")
    p_eval.add_argument("--ckpt", required=True, help="checkpoint file")
    p_eval.add_argument("--episodes", type=int, default=meta.RunConfig.eval_episodes,
                        help=f"episodes per task, 1..{MAX_TRAJECTORIES}, "
                             f"at most {MAX_ROLLOUT_ROWS} rows with the horizon")
    _add_config_flags(p_eval)
    p_eval.set_defaults(fn=_cmd_eval)

    p_cmp = sub.add_parser("compare", help="summarize run logs into a comparison table")
    p_cmp.add_argument("logs", nargs="+", help="run log files")
    p_cmp.add_argument("--tau", type=_parse_tau, default=meta.RunConfig.conv_tau,
                       help="convergence threshold, or 'auto' for 80%% of the best smoothed return")
    p_cmp.add_argument("--window", type=int, default=meta.RunConfig.conv_window,
                       help="consecutive epochs above threshold")
    p_cmp.add_argument("--factor", type=float, default=EMA_FACTOR, help="smoothing factor")
    p_cmp.add_argument("--out", default=".", help="directory for compare.txt")
    p_cmp.set_defaults(fn=_cmd_compare)

    p_plot = sub.add_parser("plot", help="plot smoothed curves from run logs")
    p_plot.add_argument("logs", nargs="+", help="run log files")
    p_plot.add_argument("--factor", type=float, default=EMA_FACTOR, help="smoothing factor")
    p_plot.add_argument("--out", default="curves.svg", help="output SVG path (.dat written beside)")
    p_plot.set_defaults(fn=_cmd_plot)

    p_audit = sub.add_parser("audit", help="check gradients against finite differences")
    p_audit.add_argument("--seeds", type=int, default=5, help="number of independent policies")
    p_audit.add_argument("--k_trajs", type=int, default=2,
                         help=f"trajectories per frozen batch, 1..{MAX_TRAJECTORIES}, "
                              f"at most {MAX_ROLLOUT_ROWS} rows with --horizon")
    p_audit.add_argument("--horizon", type=int, default=15,
                         help=f"rollout horizon, 1..{CARTPOLE_HORIZON}")
    p_audit.set_defaults(fn=_cmd_audit)

    p_sweep = sub.add_parser("sweep", help="run one config across several seeds")
    _add_config_flags(p_sweep)
    p_sweep.add_argument("--seeds", required=True, help="comma-separated seed list, e.g. 1,2,3,4,5")
    p_sweep.add_argument("--parallel", type=int, default=1,
                         help="worker processes, at most one per seed and per CPU")
    p_sweep.set_defaults(fn=_cmd_sweep)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except MetaRLError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
