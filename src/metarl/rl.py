"""Trajectory collection, discounted returns, and learner objectives.

Rollouts are deterministic by stream derivation, not scheduling: trajectory j
of a batch owns the generator of the child stream rng.child(j). Right after
that generator resets the episode, it draws the trajectory's action variates
for the whole horizon in one call, so serial, parallel, and lockstep
execution all produce identical bits. Rollouts therefore take a `Stream`,
never a generator: a generator reused across episodes would hand each
episode different variates. The lockstep loop steps every still-active
episode of a batch together. Each call of a step computes a row from that
row alone: the policy's forward is einsum's C routine, its categorical pick
folds the action columns one elementwise call at a time, and environments
step elementwise. So each row matches a solo rollout bit for bit.

Objectives canonicalize trajectory order (sorting by content) before pooling,
making the surrogate bit-invariant to the order trajectories arrive in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy._core.multiarray import count_nonzero as _count_nonzero

from . import autodiff as ad
from .autodiff import Params
from .envs import Discrete, Environment, Task, make_env
from .policy import (
    PolicyNet,
    act_batch,
    actor_arch,
    critic_arch,
    draw_variates,
    forward_inference,
    logprob_graph,
    values_graph,
)
from .rng import Stream

__all__ = [
    "Trajectory",
    "TrajectoryBatch",
    "sample_batch",
    "discounted_returns",
    "policy_objective",
    "critic_objective",
]

ADV_STD_FLOOR = 1e-12
ADV_STD_EPS = 1e-8


@dataclass(frozen=True)
class Trajectory:
    """One episode, as the objectives read it. `raws` are the
    differentiation targets: pre-clip samples for Gaussian heads, the action
    indices for categorical. Neither the clipped actions nor a behaviour
    log-probability is kept: objectives recompute log pi(a|s) from raws."""

    states: np.ndarray  # (T, d)
    rewards: np.ndarray  # (T,)
    raws: np.ndarray  # (T,)

    def __post_init__(self):
        n = len(self.states)
        if not (len(self.rewards) == len(self.raws) == n):
            raise ValueError("trajectory fields have mismatched lengths")
        if n == 0:
            raise ValueError("empty trajectory")
        if not np.all(np.isfinite(self.rewards)):
            raise ValueError("trajectory rewards must be finite")

    @property
    def length(self) -> int:
        return len(self.rewards)

    @property
    def total_return(self) -> float:
        return float(np.sum(self.rewards))


@dataclass(frozen=True)
class TrajectoryBatch:
    trajectories: "tuple[Trajectory, ...]"
    task: Task

    def __post_init__(self):
        if len(self.trajectories) < 1:
            raise ValueError("a batch needs at least one trajectory")

    @property
    def k(self) -> int:
        return len(self.trajectories)


def _run_rollouts(
    env: Environment, policy: PolicyNet, streams: "list[Stream]", horizon: int
) -> "list[Trajectory]":
    """Lockstep rollouts, one per stream: each episode resets from its own
    generator, which then draws the episode's variates up to the horizon;
    all active episodes step together until done or horizon, in one
    `env.step_batch(states, actions)` call per step on the live rows only,
    so those calls' rows add up to the trajectories' lengths. Steps are
    recorded into three (horizon, k, ...) buffers, one per Trajectory
    field, written whole while no episode has ended. A horizon below 1
    raises ValueError."""
    k = len(streams)
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1, got {horizon}")
    variates = np.empty((horizon, k))
    starts = []
    for j, stream in enumerate(streams):
        gen = stream.generator()
        starts.append(env.reset(gen))
        variates[:, j] = draw_variates(policy.arch, gen, horizon)
    cur = np.stack(starts)
    rows = np.arange(k)  # trajectory of each row of cur
    lengths = np.full(k, horizon)
    states_buf = np.empty((horizon,) + cur.shape, dtype=cur.dtype)
    for t in range(horizon):
        at = t if len(rows) == k else (t, rows)  # step t of each live row
        acts, raws = act_batch(policy, cur, variates[at])
        nxt, rews, dones = env.step_batch(cur, acts)
        if not t:  # the first step shows the dtypes of rewards and raws
            rews_buf = np.empty((horizon, k), dtype=rews.dtype)
            raws_buf = np.empty((horizon, k), dtype=raws.dtype)
        states_buf[at] = cur
        rews_buf[at] = rews
        raws_buf[at] = raws
        if _count_nonzero(dones):
            lengths[rows[dones]] = t + 1
            live = ~dones
            rows, cur = rows[live], nxt[live]
            if not len(rows):
                break
        else:
            cur = nxt
    return [
        Trajectory(states_buf[:n, j].copy(), rews_buf[:n, j].copy(), raws_buf[:n, j].copy())
        for j, n in enumerate(lengths)
    ]


def sample_batch(env: Environment, policy: PolicyNet, k: int, rng: Stream, horizon: int) -> TrajectoryBatch:
    """k rollouts on child streams rng.child(0..k-1), each truncated at
    `horizon` steps; execution order cannot affect the result."""
    if k < 1:
        raise ValueError("need at least one trajectory")
    if not isinstance(rng, Stream):
        raise TypeError("rollouts derive per-trajectory generators; pass a Stream")
    streams = [rng.child(j) for j in range(k)]
    return TrajectoryBatch(tuple(_run_rollouts(env, policy, streams, horizon)), env.task)


def discounted_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """G_t = sum_{k>=t} gamma^(k-t) r_k by backward recursion, in float64.
    The recursion runs on Python floats, which make the same IEEE-754 double
    operations in the same order as numpy float64 scalars, for less
    interpreter work."""
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must lie in (0, 1]")
    vals = np.asarray(rewards, dtype=np.float64).tolist()
    gamma = float(gamma)
    acc = 0.0
    for t in range(len(vals) - 1, -1, -1):
        acc = vals[t] + gamma * acc
        vals[t] = acc
    return np.array(vals, dtype=np.float64)


def _traj_sort_key(t: Trajectory):
    return (
        t.length,
        t.states.tobytes(),
        t.raws.tobytes(),
        t.rewards.tobytes(),
    )


def _pooled(batch: TrajectoryBatch, gamma: float):
    """Canonically ordered (states, raw targets, returns) across the batch."""
    trajs = sorted(batch.trajectories, key=_traj_sort_key)
    states = np.vstack([t.states for t in trajs])
    targets = np.concatenate([t.raws for t in trajs])
    returns = np.concatenate([discounted_returns(t.rewards, gamma) for t in trajs])
    return states, targets, returns


def _standardized(returns: np.ndarray) -> np.ndarray:
    """Mean removed, divided by std + ADV_STD_EPS. A batch with (numerically)
    identical returns would divide by ~0, so it keeps the raw returns."""
    std = float(np.std(returns))
    if std < ADV_STD_FLOOR:
        return returns  # degenerate batch: no spread to normalize by
    return (returns - np.mean(returns)) / (std + ADV_STD_EPS)


def _surrogate(
    arch, states: np.ndarray, targets: np.ndarray, adv: np.ndarray, k: int
) -> "Callable[[Params], ad.Node]":
    """(1/k) sum_t log pi(a_t|s_t) * adv_t over pooled rows, as one
    `weighted_sum` node over the log-prob graph: the bits of
    nsum(lp * adv) * (1/k). The states become a constant node here, once,
    and a categorical head's action indices become `ad.Picks`, once, which
    refuses an index outside the action set; the advantages and 1/k enter
    the sum as plain constants. So each call builds only the log-prob graph
    and the sum: on the audit's categorical policy, 5 nodes over the segment
    leaves. Inside `fd_grad`, whose evaluations share the leaves, an
    evaluation gets the layers before the moving segment kept, since their
    input is this one states node and no moving leaf reaches them, and
    builds 3 to 5."""
    states_c, scale = ad.const(states), 1.0 / k
    if isinstance(arch.head, Discrete):
        targets = ad.Picks(targets, arch.head.n)

    def obj(p: Params) -> ad.Node:
        return ad.weighted_sum(logprob_graph(arch, p, states_c, targets), adv, scale)

    return obj


def policy_objective(
    batch: TrajectoryBatch, gamma: float, critic: "ad.ParamVector | None" = None
) -> "Callable[[Params], ad.Node]":
    """Callable score-function surrogate for a frozen batch,
    (1/K) sum_traj sum_t log pi(a_t|s_t) * A_t. With a critic, A_t is the
    advantage G_t - V(s_t), the critic held constant; without one, it is the
    batch-standardized discounted return (see `_standardized`).

    Everything that depends only on the batch (pooling, returns, advantages,
    the actor architecture) is computed here, once; each call of the returned
    objective builds only the log-prob graph over its Params and the
    weighted sum (see `_surrogate`), so value, grad and hvp on the same batch
    share that work. The callable keeps no state between calls."""
    env = make_env(batch.task)
    states, targets, returns = _pooled(batch, gamma)
    if critic is None:
        adv = _standardized(returns)
    else:
        adv = returns - forward_inference(critic_arch(env), critic, states)[:, 0]
    return _surrogate(actor_arch(env), states, targets, adv, batch.k)


def critic_objective(batch: TrajectoryBatch, gamma: float) -> "Callable[[Params], ad.Node]":
    """Callable critic mean-squared-error against discounted returns."""
    c_arch = critic_arch(make_env(batch.task))
    states, _, returns = _pooled(batch, gamma)

    def obj(pc: Params) -> ad.Node:
        diff = values_graph(c_arch, pc, states) - ad.const(returns)
        return ad.nmean(diff * diff)

    return obj
