"""Meta-learning algorithms over task distributions.

Implements four base algorithms and their task-directed variants:

* maml — exact bilevel meta-gradient: per task, one inner ascent step on a
  pre-adaptation batch, then the outer gradient on a post-adaptation batch
  corrected by a Hessian-vector product through the inner surrogate.
* fomaml — the same with the Hessian term dropped; both are `meta_gradient`,
  which takes `second_order`.
* reptile — per task, several plain adaptation steps; the meta-update moves
  the initialization toward the average adapted parameters.
* metasgd — maml plus a learned per-parameter inner step-size vector,
  updated from the elementwise product of inner and outer gradients.
* directed-{maml,fomaml,metasgd} — before the base epoch body, one
  first-order ascent step of size delta on the distribution's medium task
  (the task at the mean parameter). The prestep adds exactly one gradient
  evaluation and K rollouts per epoch and never any second-order work;
  delta must stay below the outer step size beta.

The outer update adds the plain sum of per-task terms (no 1/M averaging), so
beta effectively scales with M; reptile is the exception, averaging by
construction. Every step asks its domain for one thing, a task's objective
at given parameters (`MetaProblem.task_objective`). With the actor-critic
learner, every training batch (prestep, inner, outer) also takes one critic
descent step there; evaluation only reads the critic.

Nothing here counts calls. Gradients, Hessian-vector products and rollouts
are reached through their modules (`ad.grad`, `ad.hvp`, `rl.sample_batch`),
so a caller counts them by wrapping those module globals, as the tests and
the benchmark do.

The field defaults of MetaConfig and RunConfig are the one table of
defaults; CONFIG_KEYS and the canonical fingerprint text are derived from
those fields. `iter_epochs` is the one training loop: `train` iterates it
to write checkpoints and the run log, and any caller may leave it early.
Convergence is judged by runlog.convergence_epoch.

Randomness is organized as a key-derived stream tree rooted at the config
seed: policy init, critic init, then per epoch a subtree covering the
prestep, task sampling, per-task inner/outer batches, and evaluation.
Results therefore depend only on the tree position of each draw, never on
execution order, which makes runs reproducible, resumable from checkpoints,
and safe to parallelize.
"""

from __future__ import annotations

import enum
import hashlib
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Protocol

import numpy as np

from . import __version__
from . import autodiff as ad
from . import rl
from .autodiff import Gradient, ParamVector, Params
from .envs import (
    Environment,
    Family,
    Task,
    TaskDistribution,
    make_env,
    medium_task,
    sample_tasks,
)
from .errors import EmptyTaskSet, EpochDiverged, NonFiniteValue, ValidationError
from .policy import (
    PolicyNet,
    actor_arch,
    critic_arch,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .rng import Stream
from .runlog import EpochMetrics, RunLog, convergence_epoch, fmt_float, save_runlog

__all__ = [
    "Algorithm",
    "Learner",
    "MetaConfig",
    "RunConfig",
    "MetaState",
    "MetaProblem",
    "RLProblem",
    "init_state",
    "inner_adapt",
    "meta_gradient",
    "reptile_step",
    "metasgd_step",
    "evaluate_policy",
    "load_state",
    "train_epoch",
    "iter_epochs",
    "train",
    "canonical_text",
    "fingerprint",
    "check_range",
    "CONFIG_KEYS",
    "ALPHA_VEC_FLOOR",
    "CHECKPOINT_INTERVAL",
]

ALPHA_VEC_FLOOR = 1e-6
CHECKPOINT_INTERVAL = 50
REPTILE_INNER_STEPS = 3
# Upper bounds on the config keys that size memory. Trajectories per batch
# (`k_trajs`, `eval_episodes`, and the CLI's `eval --episodes` and `audit
# --k_trajs`) each size a (horizon, trajectories) rollout buffer and one
# random stream per trajectory; `m_tasks` multiplies the batches of an
# epoch; the horizon bound admits the 500-step episodes of CartPole-v1.
# Their product, trajectories x horizon, is bounded too: it is the row count
# of one batch, which sizes the rollout buffer and the graphs of the batch's
# objective (one `hvp` on 2,000 rows peaks at 7.0 MiB of numpy memory).
MAX_TRAJECTORIES = 10_000
MAX_TASKS = 1_000
MAX_HORIZON = 1_000
MAX_ROLLOUT_ROWS = 100_000


def check_range(field: str, value: int, lo: int, hi: "int | None" = None) -> None:
    """Reject an integer outside lo..hi with a ValidationError naming the
    field (a config key or a command-line flag)."""
    if value < lo or (hi is not None and value > hi):
        bound = f"be >= {lo}" if hi is None else f"lie in {lo}..{hi}"
        raise ValidationError(f"{field}: must {bound}, got {value}")


class Algorithm(enum.Enum):
    MAML = "maml"
    FOMAML = "fomaml"
    REPTILE = "reptile"
    METASGD = "metasgd"
    DIRECTED_MAML = "directed-maml"
    DIRECTED_FOMAML = "directed-fomaml"
    DIRECTED_METASGD = "directed-metasgd"

    @staticmethod
    def parse(name: "str | Algorithm") -> "Algorithm":
        if isinstance(name, Algorithm):
            return name
        key = str(name).strip().lower().replace("_", "-")
        for algo in Algorithm:
            if algo.value == key:
                return algo
        raise ValidationError(f"algorithm: unknown value {name!r}")

    @property
    def directed(self) -> bool:
        return self.value.startswith("directed-")

    @property
    def base(self) -> "Algorithm":
        if self.directed:
            return Algorithm(self.value.removeprefix("directed-"))
        return self


class Learner(enum.Enum):
    PG = "pg"
    AC = "ac"

    @staticmethod
    def parse(name: "str | Learner") -> "Learner":
        if isinstance(name, Learner):
            return name
        key = str(name).strip().lower()
        for lrn in Learner:
            if lrn.value == key:
                return lrn
        raise ValidationError(f"learner: unknown value {name!r}")


@dataclass(frozen=True)
class MetaConfig:
    """The algorithm's hyperparameters. The field defaults of MetaConfig and
    RunConfig are the library's one table of defaults: config files and
    command-line flags only override them. Step sizes follow the benchmark
    defaults; the prestep size stays a factor below beta so directed
    algorithms validate out of the box."""

    algorithm: Algorithm = Algorithm.MAML
    learner: Learner = Learner.PG
    env: Family = Family.CARTPOLE
    phi_lo: float = 5.0
    phi_hi: float = 15.0
    alpha: float = 0.001
    beta: float = 0.001
    delta: float = 0.0005
    gamma: float = 0.99
    m_tasks: int = 5
    k_trajs: int = 10
    horizon: int = 200
    epochs: int = 150
    seed: int = 0

    def __post_init__(self):
        for field in ("alpha", "beta", "delta", "phi_lo", "phi_hi"):
            if not np.isfinite(getattr(self, field)):
                raise ValidationError(f"{field}: must be finite")
        if not self.alpha > 0:
            raise ValidationError("alpha: inner step size must be > 0")
        if not self.beta > 0:
            raise ValidationError("beta: outer step size must be > 0")
        if self.delta < 0:
            raise ValidationError("delta: prestep size must be >= 0")
        if not 0.0 < self.gamma <= 1.0:
            raise ValidationError("gamma: discount must lie in (0, 1]")
        check_range("m_tasks", self.m_tasks, 1, MAX_TASKS)
        check_range("k_trajs", self.k_trajs, 1, MAX_TRAJECTORIES)
        check_range("horizon", self.horizon, 1, MAX_HORIZON)
        check_range("k_trajs x horizon", self.k_trajs * self.horizon, 1, MAX_ROLLOUT_ROWS)
        check_range("epochs", self.epochs, 1)
        if self.seed < 0:
            raise ValidationError("seed: must be >= 0")
        if not self.phi_lo < self.phi_hi:
            raise ValidationError("phi_lo: parameter interval is empty (need phi_lo < phi_hi)")
        if self.algorithm.directed and not self.delta < self.beta:
            raise ValidationError(
                f"delta: directed prestep size must be smaller than beta "
                f"({fmt_float(self.delta)} >= {fmt_float(self.beta)})"
            )

    @property
    def dist(self) -> TaskDistribution:
        return TaskDistribution(self.env, self.phi_lo, self.phi_hi)


@dataclass(frozen=True)
class RunConfig:
    """MetaConfig plus the experiment-protocol knobs around it."""

    meta: MetaConfig
    eval_every: int = 1
    eval_episodes: int = 4
    conv_tau: float = 175.0
    conv_window: int = 20
    out_dir: str = "runs"
    label: str = "run"

    def __post_init__(self):
        check_range("eval_every", self.eval_every, 1)
        check_range("eval_episodes", self.eval_episodes, 1, MAX_TRAJECTORIES)
        rows = self.eval_episodes * self.meta.horizon
        check_range("eval_episodes x horizon", rows, 1, MAX_ROLLOUT_ROWS)
        check_range("conv_window", self.conv_window, 1)
        if not np.isfinite(self.conv_tau):
            raise ValidationError("conv_tau: must be finite")
        # The label names the run's files in out_dir: a plain file name, so
        # not "", "." or "..", and no path separator or C0 control or DEL.
        if self.label in ("", ".", "..") or any(c in "/\\\x7f" or c < " " for c in self.label):
            raise ValidationError(f"label: must be a plain file name, got {self.label!r}")


@dataclass(frozen=True)
class MetaState:
    theta: ParamVector
    critic: ParamVector | None
    alpha_vec: ParamVector | None
    epoch: int

    def __post_init__(self):
        if self.alpha_vec is not None:
            if not self.alpha_vec.layout_equal(self.theta):
                raise ValueError("alpha_vec layout must match theta")
            if not np.all(self.alpha_vec.values > 0):
                raise ValueError("alpha_vec must be strictly positive")


# Config keys in canonical order, also the accepted config-file vocabulary:
# the MetaConfig fields, then the RunConfig fields around them.
CONFIG_KEYS = tuple(f.name for cls in (MetaConfig, RunConfig) for f in fields(cls) if f.name != "meta")


def canonical_text(cfg: RunConfig) -> str:
    """One `key=value` line per config key, each value formatted by the type
    of its field's default: an enum by its value, a float to 17 significant
    digits, anything else by str()."""
    lines = []
    for obj in (cfg.meta, cfg):
        for f in fields(obj):
            if f.name == "meta":
                continue
            kind, value = type(f.default), getattr(obj, f.name)
            if issubclass(kind, enum.Enum):
                text = value.value
            elif kind is float:
                text = fmt_float(value)
            else:
                text = str(value)
            lines.append(f"{f.name}={text}")
    return "\n".join(lines) + "\n"


def fingerprint(cfg: RunConfig) -> str:
    return hashlib.sha256(canonical_text(cfg).encode("utf-8")).hexdigest()[:16]


# ---------------------------------------------------------------------------
# Problems: objective factories the algorithms run against
# ---------------------------------------------------------------------------

class MetaProblem(Protocol):
    """What an algorithm needs from its domain: the objective of a task at
    the given parameters, a graph-building callable over Params. The same
    hook serves the inner step (at theta), the outer step (at the adapted
    parameters), Reptile's steps and the directed prestep (on the medium
    task); `rng` is the stream any sampling behind the objective draws from."""

    def task_objective(
        self, task, theta: ParamVector, rng: Stream
    ) -> Callable[[Params], ad.Node]: ...


class RLProblem:
    """Rollout-backed objectives: sampling K trajectories under the given
    parameters, then the learner's surrogate over the frozen batch.

    `objective(batch)` reads the critic under the actor-critic learner only:
    a policy-gradient config may carry one (from an actor-critic checkpoint,
    say) and ignores it. For the actor-critic learner `task_objective` then
    fits the critic: one descent step on the batch it sampled, taken after
    the surrogate has captured the pre-update critic values. Evaluation
    calls `objective(sample(...))` and so leaves the critic as it was.
    """

    def __init__(self, cfg: MetaConfig, critic: ParamVector | None = None):
        self.cfg = cfg
        self.critic = critic
        if cfg.learner is Learner.AC and critic is None:
            raise ValueError("actor-critic learner needs a critic parameter vector")
        self._arch_env = self.env_for(medium_task(cfg.dist))

    def env_for(self, task: Task) -> Environment:
        env = make_env(task)
        env.horizon = self.cfg.horizon
        return env

    @property
    def actor_arch(self):
        return actor_arch(self._arch_env)

    def sample(self, task: Task, theta: ParamVector, rng: Stream) -> rl.TrajectoryBatch:
        policy = PolicyNet(self.actor_arch, theta)
        return rl.sample_batch(self.env_for(task), policy, self.cfg.k_trajs, rng)

    def objective(self, batch: rl.TrajectoryBatch) -> Callable[[Params], ad.Node]:
        critic = self.critic if self.cfg.learner is Learner.AC else None
        return rl.policy_objective(batch, self.cfg.gamma, critic)

    def task_objective(self, task, theta, rng):
        batch = self.sample(task, theta, rng)
        obj = self.objective(batch)
        if self.cfg.learner is Learner.AC:
            g = ad.grad(rl.critic_objective(batch, self.cfg.gamma), self.critic)
            self.critic = self.critic - self.cfg.alpha * g
        return obj


# ---------------------------------------------------------------------------
# Algorithm steps
# ---------------------------------------------------------------------------

def init_state(cfg: MetaConfig) -> MetaState:
    root = Stream(cfg.seed)
    env = make_env(medium_task(cfg.dist))
    theta = init_params(actor_arch(env), root.child(0))
    critic = init_params(critic_arch(env), root.child(1)) if cfg.learner is Learner.AC else None
    alpha_vec = None
    if cfg.algorithm.base is Algorithm.METASGD:
        alpha_vec = theta.with_values(np.full(theta.size, cfg.alpha))
    return MetaState(theta=theta, critic=critic, alpha_vec=alpha_vec, epoch=0)


def _scaled(alpha: "float | ParamVector", g: ParamVector) -> ParamVector:
    """alpha * g, elementwise when alpha is a per-parameter vector."""
    return alpha.hadamard(g) if isinstance(alpha, ParamVector) else float(alpha) * g


def inner_adapt(
    theta: ParamVector, objective: Callable[[Params], ad.Node], alpha: "float | ParamVector"
) -> ParamVector:
    """One ascent step: theta + alpha * grad (elementwise when alpha is a
    per-parameter vector)."""
    return theta + _scaled(alpha, ad.grad(objective, theta))


def _check_tasks(tasks) -> list:
    tasks = list(tasks)
    if not tasks:
        raise EmptyTaskSet("no tasks to meta-train on")
    return tasks


def _per_task_terms(
    theta: ParamVector,
    tasks,
    alpha: "float | ParamVector",
    rng: Stream,
    problem: MetaProblem,
    second_order: bool,
):
    """Shared maml/fomaml/metasgd loop. Yields (g_inner, g_outer, term) per
    task, where term = g_outer [+ hvp(inner, theta, alpha*g_outer)]."""
    for i, task in enumerate(_check_tasks(tasks)):
        inner = problem.task_objective(task, theta, rng.child(i, 0))
        g_in = ad.grad(inner, theta)
        theta_i = theta + _scaled(alpha, g_in)
        outer = problem.task_objective(task, theta_i, rng.child(i, 1))
        g_out = ad.grad(outer, theta_i)
        term = g_out
        if second_order:
            term = term + ad.hvp(inner, theta, _scaled(alpha, g_out))
        yield g_in, g_out, term


def meta_gradient(
    theta: ParamVector,
    tasks,
    cfg: MetaConfig,
    rng: Stream,
    problem: MetaProblem,
    second_order: bool = True,
) -> Gradient:
    """Sum over tasks of (I + alpha*H_inner) @ g_outer, the exact bilevel
    meta-gradient with one inner step (MAML; one Hessian-vector product per
    task). With second_order off, the Hessian term is dropped (FOMAML): the
    sum of post-adaptation gradients."""
    total = np.zeros(theta.size)
    for _, _, term in _per_task_terms(theta, tasks, cfg.alpha, rng, problem, second_order):
        total = total + term.values
    return theta.with_values(total)


def reptile_step(
    theta: ParamVector,
    tasks,
    cfg: MetaConfig,
    rng: Stream,
    problem: MetaProblem,
    n_inner: int = REPTILE_INNER_STEPS,
) -> ParamVector:
    """theta + beta * mean_i(theta'_i - theta) after n_inner plain adaptation
    steps per task, each on a freshly sampled batch."""
    tasks = _check_tasks(tasks)
    delta_sum = np.zeros(theta.size)
    for i, task in enumerate(tasks):
        cur = theta
        for s in range(n_inner):
            obj = problem.task_objective(task, cur, rng.child(i, s))
            cur = cur + cfg.alpha * ad.grad(obj, cur)
        delta_sum = delta_sum + (cur.values - theta.values)
    return theta.with_values(theta.values + cfg.beta * (delta_sum / len(tasks)))


def metasgd_step(
    theta: ParamVector, avec: ParamVector, tasks, cfg: MetaConfig, rng: Stream, problem: MetaProblem
) -> "tuple[ParamVector, ParamVector]":
    """MAML-style update with a learned per-parameter inner rate vector;
    returns the new (theta, alpha_vec). theta gets the exact second-order
    term through alpha_vec, alpha_vec moves along the outer objective's
    elementwise gradient g_inner * g_outer and is clamped positive."""
    total_theta = np.zeros(theta.size)
    total_alpha = np.zeros(theta.size)
    for g_in, g_out, term in _per_task_terms(theta, tasks, avec, rng, problem, second_order=True):
        total_theta = total_theta + term.values
        total_alpha = total_alpha + g_in.values * g_out.values
    new_theta = theta.with_values(theta.values + cfg.beta * total_theta)
    new_avec = avec.with_values(
        np.maximum(avec.values + cfg.beta * total_alpha, ALPHA_VEC_FLOOR)
    )
    return new_theta, new_avec


def _prestep(
    theta: ParamVector, cfg: MetaConfig, rng: Stream, problem: MetaProblem
) -> "tuple[ParamVector, float]":
    """Task-directed pre-adaptation: one first-order ascent step of size
    delta on the medium task of cfg's distribution (K trajectories under
    the current policy on the rollout problem). Adds exactly one gradient
    evaluation; returns the new parameters and the prestep gradient norm."""
    med = medium_task(cfg.dist)
    obj = problem.task_objective(med, theta, rng)
    g = ad.grad(obj, theta)
    return theta + cfg.delta * g, g.norm()


# ---------------------------------------------------------------------------
# Training loop
# ---------------------------------------------------------------------------

def evaluate_policy(
    theta: ParamVector,
    critic: ParamVector | None,
    alpha: "float | ParamVector",
    cfg: MetaConfig,
    rng: Stream,
    eval_episodes: int,
) -> float:
    """Post-adaptation performance: M fresh tasks; per task, one inner step
    from a K-trajectory batch, then eval_episodes rollouts of the adapted
    policy. Critic is read, never written."""
    problem = RLProblem(cfg, critic=critic)
    tasks = sample_tasks(cfg.dist, cfg.m_tasks, rng.child(0))
    totals: list[float] = []
    for i, task in enumerate(tasks):
        obj = problem.objective(problem.sample(task, theta, rng.child(1, i, 0)))
        adapted = inner_adapt(theta, obj, alpha)
        policy = PolicyNet(problem.actor_arch, adapted)
        batch = rl.sample_batch(problem.env_for(task), policy, eval_episodes, rng.child(1, i, 1))
        totals.extend(t.total_return for t in batch.trajectories)
    return float(np.mean(totals))


def train_epoch(
    state: MetaState,
    cfg: MetaConfig,
    eval_episodes: int = RunConfig.eval_episodes,
    evaluate: bool = True,
) -> "tuple[MetaState, EpochMetrics]":
    """One epoch: optional directed prestep, sample M tasks, run the base
    algorithm's inner/outer updates, then evaluate the new parameters.
    Non-finite values anywhere surface as EpochDiverged with epoch context."""
    ep = Stream(cfg.seed).child(2, state.epoch)
    t0 = time.perf_counter()
    try:
        problem = RLProblem(cfg, critic=state.critic)
        theta = state.theta
        avec = state.alpha_vec
        prestep_norm: float | None = None
        if cfg.algorithm.directed:
            theta, prestep_norm = _prestep(theta, cfg, ep.child(0), problem)
        tasks = sample_tasks(cfg.dist, cfg.m_tasks, ep.child(1))
        base = cfg.algorithm.base
        if base in (Algorithm.MAML, Algorithm.FOMAML):
            mg = meta_gradient(
                theta, tasks, cfg, ep.child(2), problem, second_order=base is Algorithm.MAML
            )
            new_theta = theta + cfg.beta * mg
            outer_norm = mg.norm()
        elif base is Algorithm.REPTILE:
            new_theta = reptile_step(theta, tasks, cfg, ep.child(2), problem)
            outer_norm = float(np.linalg.norm(new_theta.values - theta.values)) / cfg.beta
        elif base is Algorithm.METASGD:
            new_theta, avec = metasgd_step(theta, avec, tasks, cfg, ep.child(2), problem)
            outer_norm = float(np.linalg.norm(new_theta.values - theta.values)) / cfg.beta
        else:  # pragma: no cover - enum is exhaustive
            raise ValueError(f"unhandled algorithm {cfg.algorithm}")
        t_train = time.perf_counter()
        eval_ret: float | None = None
        eval_sec: float | None = None
        if evaluate:
            eval_ret = evaluate_policy(
                new_theta,
                problem.critic,
                avec if avec is not None else cfg.alpha,
                cfg,
                ep.child(3),
                eval_episodes,
            )
            eval_sec = max(time.perf_counter() - t_train, 1e-9)
    except NonFiniteValue as e:
        raise EpochDiverged(state.epoch, e) from e
    metrics = EpochMetrics(
        epoch=state.epoch,
        eval_return=eval_ret,
        wall_seconds=max(t_train - t0, 1e-9),
        grad_norm_outer=outer_norm,
        prestep_grad_norm=prestep_norm,
        eval_seconds=eval_sec,
    )
    new_state = MetaState(theta=new_theta, critic=problem.critic, alpha_vec=avec, epoch=state.epoch + 1)
    return new_state, metrics


def _save_state(run_cfg: RunConfig, state: MetaState) -> Path:
    out = Path(run_cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    vectors = {"policy": state.theta}
    if state.critic is not None:
        vectors["critic"] = state.critic
    if state.alpha_vec is not None:
        vectors["alpha_vec"] = state.alpha_vec
    path = out / f"{run_cfg.label}.ckpt"
    save_checkpoint(path, vectors, {"epoch": state.epoch, "seed": run_cfg.meta.seed})
    return path


def load_state(path, cfg: MetaConfig) -> MetaState:
    """Rebuild a MetaState from a checkpoint; the stream tree is re-derived
    from the seed, so resumed runs replay exactly the draws the uninterrupted
    run would have made. A checkpoint without its epoch, or without a vector
    the config needs (policy; alpha_vec for the Meta-SGD family; critic for
    the actor-critic learner), or whose vectors are laid out for another
    architecture than the config's environment family, raises a
    ValidationError naming the field."""
    vectors, meta = load_checkpoint(path)
    if meta.get("seed") != cfg.seed:
        raise ValidationError(
            f"seed: checkpoint was written by seed {meta.get('seed')}, config says {cfg.seed}"
        )
    if "epoch" not in meta:
        raise ValidationError(f"epoch: checkpoint {path} has no epoch metadata")
    needed = {"policy": "every run"}
    if cfg.algorithm.base is Algorithm.METASGD:
        needed["alpha_vec"] = f"algorithm {cfg.algorithm.value}"
    if cfg.learner is Learner.AC:
        needed["critic"] = f"learner {cfg.learner.value}"
    for name, who in needed.items():
        if name not in vectors:
            raise ValidationError(
                f"{name}: checkpoint {path} has no {name} vector, which {who} needs"
            )
    env = make_env(medium_task(cfg.dist))
    actor = actor_arch(env).segments()
    layouts = {"policy": actor, "alpha_vec": actor, "critic": critic_arch(env).segments()}
    for name, pv in vectors.items():
        want = layouts.get(name, pv.segments)
        if pv.segments != want:
            raise ValidationError(
                f"{name}: checkpoint {path} is laid out for another architecture than env "
                f"{cfg.env.value} needs ({pv.size} parameters, expected {sum(s.size for s in want)})"
            )
    return MetaState(
        theta=vectors["policy"],
        critic=vectors.get("critic"),
        alpha_vec=vectors.get("alpha_vec"),
        epoch=int(meta["epoch"]),
    )


def iter_epochs(run_cfg: RunConfig, state: MetaState):
    """The training loop from `state` to the configured epoch count: yields
    (state, metrics) after each epoch. Epoch 0, every `eval_every`-th epoch
    and the last epoch are evaluated. EpochDiverged propagates to the
    caller; a caller that stops early simply leaves the loop."""
    cfg = run_cfg.meta
    for e in range(state.epoch, cfg.epochs):
        evaluate = (e % run_cfg.eval_every == 0) or (e == cfg.epochs - 1)
        state, metrics = train_epoch(state, cfg, eval_episodes=run_cfg.eval_episodes, evaluate=evaluate)
        yield state, metrics


def train(
    run_cfg: RunConfig,
    resume_from=None,
    progress: "Callable[[EpochMetrics], None] | None" = None,
) -> RunLog:
    """Run all epochs, checkpointing every 50, then persist and return the
    RunLog (with the convergence epoch under the EMA-threshold rule). On
    divergence the partial log is still written, with the cause recorded."""
    cfg = run_cfg.meta
    state = load_state(resume_from, cfg) if resume_from is not None else init_state(cfg)
    rows: list[EpochMetrics] = []
    diverged: str | None = None
    t_start = time.perf_counter()
    try:
        for state, metrics in iter_epochs(run_cfg, state):
            rows.append(metrics)
            if progress is not None:
                progress(metrics)
            e = metrics.epoch
            if (e + 1) % CHECKPOINT_INTERVAL == 0 or e == cfg.epochs - 1:
                _save_state(run_cfg, state)
    except EpochDiverged as err:
        diverged = f"epoch {err.epoch}: {err.cause}"
    total_wall = max(time.perf_counter() - t_start, 1e-9)
    log = RunLog(
        fingerprint=fingerprint(run_cfg),
        version=__version__,
        label=run_cfg.label,
        rows=tuple(rows),
        total_wall_seconds=total_wall,
        convergence_epoch=convergence_epoch(rows, run_cfg.conv_tau, run_cfg.conv_window),
        diverged=diverged,
    )
    save_runlog(run_cfg.out_dir, log)
    return log
