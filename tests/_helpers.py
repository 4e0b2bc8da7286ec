"""Shared test fixtures: hand-built parameter vectors, reference policies,
a call counter, a traced-memory probe, and the references the library's
fast paths are checked against: a solo-episode rollout, the empirical
medium task, the graph primitives the fused nodes replace, and the rollout
step's compositions (einsum forward, categorical pick, cart-pole step) that
its per-call trims replace. Also `add`,
the sum of two nodes, which only tests' objectives need, and
`until_converged`, the prefix of a run the acceptance cache records."""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from metarl import autodiff as ad
from metarl import envs
from metarl import policy as pol
from metarl import rl
from metarl.envs import Environment, Task
from metarl.errors import EmptyTaskSet, InvalidAction, NonFiniteValue
from metarl.rng import Stream
from metarl.runlog import convergence_epoch


def zero_params(arch: pol.Arch, **overrides) -> ad.ParamVector:
    """All-zero ParamVector for an arch, with named segments overridden."""
    segs = arch.segments()
    vals = np.zeros(sum(s.size for s in segs))
    for name, arr in overrides.items():
        seg = next(s for s in segs if s.name == name)
        vals[seg.offset : seg.offset + seg.size] = np.reshape(arr, -1)
    return ad.ParamVector(vals, segs)


def make_policy(env: Environment, rng: Stream) -> pol.PolicyNet:
    """A freshly initialized policy for the environment's action spec."""
    arch = pol.actor_arch(env)
    return pol.PolicyNet(arch, pol.init_params(arch, rng))


def balancer_policy(env: Environment, sharpness: float = 1e7) -> pol.PolicyNet:
    """Cart-pole controller wired through the MLP: pushes toward the side the
    pole leans to (signal theta + 0.5*theta_dot routed through the tanh
    layers' linear region). Large sharpness makes it effectively
    deterministic; small sharpness leaves it stochastic."""
    arch = pol.actor_arch(env)
    w0 = np.zeros((4, 64))
    w0[2, 0] = 0.1
    w0[3, 0] = 0.05
    w1 = np.zeros((64, 64))
    w1[0, 0] = 0.1
    w2 = np.zeros((64, 2))
    w2[0, 0] = -sharpness
    w2[0, 1] = sharpness
    return pol.PolicyNet(arch, zero_params(arch, W0=w0, W1=w1, W2=w2))


@dataclass
class Counts:
    """Work done inside one `count_calls` block."""

    grad_calls: int = 0
    hvp_calls: int = 0
    rollouts: int = 0
    value_calls: int = 0
    batches: int = 0


@contextmanager
def count_calls() -> Iterator[Counts]:
    """Count the gradients, Hessian-vector products, objective values and
    rollouts made inside the block by wrapping the module globals the library
    calls through: `autodiff.grad` (which `fd_hvp` reaches),
    `autodiff.hvp`, `autodiff.value` (which `fd_grad` reaches), and
    `rl.sample_batch` (each call adds one batch and its trajectory count).
    The originals are back in place on exit, also when the block raises."""
    counts = Counts()
    grad, hvp, value, sample_batch = ad.grad, ad.hvp, ad.value, rl.sample_batch

    def counted_grad(*args, **kwargs):
        counts.grad_calls += 1
        return grad(*args, **kwargs)

    def counted_hvp(*args, **kwargs):
        counts.hvp_calls += 1
        return hvp(*args, **kwargs)

    def counted_value(*args, **kwargs):
        counts.value_calls += 1
        return value(*args, **kwargs)

    def counted_sample_batch(*args, **kwargs):
        batch = sample_batch(*args, **kwargs)
        counts.batches += 1
        counts.rollouts += batch.k
        return batch

    ad.grad, ad.hvp, ad.value, rl.sample_batch = counted_grad, counted_hvp, counted_value, counted_sample_batch
    try:
        yield counts
    finally:
        ad.grad, ad.hvp, ad.value, rl.sample_batch = grad, hvp, value, sample_batch


def traced_peak_mib(call) -> float:
    """Peak of the memory traced while `call()` runs (numpy reports its
    array buffers to tracemalloc), above what was traced when it began, in
    MiB. Tracing is started for the call and stopped after it, unless it was
    already on."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return (tracemalloc.get_traced_memory()[1] - base) / 2**20
    finally:
        if started:
            tracemalloc.stop()


def rollout(env: Environment, policy: pol.PolicyNet, stream: Stream, horizon: int) -> rl.Trajectory:
    """One episode alone through the lockstep engine, on the generator of
    `stream`, truncated at `horizon` steps: the solo reference a batch's
    rows are compared against."""
    return rl._run_rollouts(env, policy, [stream], horizon)[0]


def empirical_medium(tasks: "list[Task]") -> Task:
    """Task at the arithmetic mean of the sampled parameters: the law
    `envs.medium_task` (the exact mean) is checked against."""
    if not tasks:
        raise EmptyTaskSet("cannot average an empty task list")
    fam = tasks[0].family
    if any(t.family is not fam for t in tasks):
        raise ValueError("tasks span more than one family")
    return Task(fam, float(np.mean([t.phi for t in tasks])))


def add(a, b) -> ad.Node:
    """a + b, broadcasting, built on autodiff's rules: each operand's
    adjoint is the sum's, summed down to the operand's shape. No library
    objective sums two nodes, so the sum lives here."""
    a, b = ad._as_node(a), ad._as_node(b)

    def vjp(g: ad._D, acc):
        if a.needs:
            acc(a, g.unbroadcast(a.val.shape))
        if b.needs:
            acc(b, g.unbroadcast(b.val.shape))

    return ad.Node(a.val + b.val, ad._dadd(a.dot, b.dot), (a, b), vjp, a.needs or b.needs)


# ---------------------------------------------------------------------------
# Graph primitives the fused nodes replace: the bitwise references for
# `ad.tanh_affine` and `ad.log_softmax_pick`, built on autodiff's own rules.
# ---------------------------------------------------------------------------

def tanh(a) -> ad.Node:
    """tanh as a node of its own. The forward is `ad.tanh_affine`'s tanh;
    the vjp runs its in-place rule on fresh (at least 1-d) copies of the
    value and tangent, so the node's arrays are left as they were."""
    a = ad._as_node(a)
    yv = np.tanh(a.val)
    shape = np.shape(yv)

    def copy(x):
        return None if x is None else np.array(x, ndmin=1)

    yd = None
    if a.dot is not None:
        yd = ad._sech2(copy(yv)).reshape(shape)
        yd *= a.dot

    def vjp(g: ad._D, acc):
        pair = ad._tanh_adjoint(copy(yv), copy(yd), g)
        acc(a, pair.apply_linear(lambda x: np.reshape(x, shape)))

    return ad.Node(yv, yd, (a,), vjp, a.needs)


def log(a) -> ad.Node:
    a = ad._as_node(a)

    def vjp(g: ad._D, acc):
        acc(a, g / a._dual())

    return ad.Node(np.log(a.val), None if a.dot is None else a.dot / a.val, (a,), vjp, a.needs)


def gather_rows(a, idx) -> ad.Node:
    """Pick one column per row: out[i] = a[i, idx[i]]."""
    a = ad._as_node(a)
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(idx.size)

    def vjp(g: ad._D, acc):
        acc(a, ad._scatter_rows(g, rows * a.val.shape[1] + idx, a.val.shape))

    dot = None if a.dot is None else a.dot[rows, idx]
    return ad.Node(a.val[rows, idx], dot, (a,), vjp, a.needs)


def nsum_axis(a, axis: int) -> ad.Node:
    """The sum along one axis, as `ad.nsum` sums every element: the row sum
    `ad.log_softmax_pick` replaces, and the reductions of the golden
    composite and the quadratic forms."""
    a = ad._as_node(a)

    def vjp(g: ad._D, acc):
        acc(a, ad._spread(g, axis, a.val.shape))

    dot = None if a.dot is None else np.add.reduce(a.dot, axis=axis)
    return ad.Node(np.add.reduce(a.val, axis=axis), dot, (a,), vjp, a.needs)


def row_max_const(a) -> ad.Node:
    """Row maxima, detached from the graph (constant shift for stable
    log-softmax; value and all derivatives of the composition stay exact)."""
    return ad.Node(np.maximum.reduce(ad._as_node(a).val, axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# The rollout step as composed before its per-call trims: the bitwise
# references for `policy.forward_inference`, the categorical pick of
# `policy.act_batch`, `envs.cartpole_euler` and `CartPoleEnv.step_batch`.
# ---------------------------------------------------------------------------

def reference_forward(arch: pol.Arch, params: ad.ParamVector, states) -> np.ndarray:
    """Head outputs through `np.einsum("ij,jk->ik")`, the bias and tanh of
    each layer applied after it."""
    h = np.asarray(states, dtype=np.float64)
    last = len(arch.layer_names) - 1
    for i, (w, b) in enumerate(arch.layer_names):
        h = np.einsum("ij,jk->ik", h, params.segment(w))
        h += params.segment(b)
        if i < last:
            np.tanh(h, out=h)
    return h


def reference_running_sums(logits: np.ndarray) -> "tuple[np.ndarray, bool]":
    """(running sums of the action probabilities, whether every logit shift
    is finite) of a (rows x n) logits array, each step full width: the shift
    by the row max, the log-sum-exp subtracted from every column, the
    probabilities and `np.add.accumulate` along the row."""
    out = np.array(logits, dtype=np.float64)
    out -= ad._fold_columns(np.maximum, out)[:, None]
    finite = bool(np.logical_and.reduce(np.isfinite(out), axis=None))
    out -= np.log(ad._fold_columns(np.add, np.exp(out)))[:, None]
    return np.add.accumulate(np.exp(out, out=out), axis=1, out=out), finite


def reference_categorical_act(logits: np.ndarray, u: np.ndarray) -> np.ndarray:
    """The int64 count, per row, of the first n-1 running sums <= u, summed
    by `np.add.reduce`; NonFiniteValue when a logit shift is not finite."""
    cum, finite = reference_running_sums(logits)
    acts = np.add.reduce(cum[:, :-1] <= u[:, None], axis=1, dtype=np.int64)
    if not finite:
        raise NonFiniteValue("sampled action distribution is not finite")
    return acts


def reference_cartpole_euler(states: np.ndarray, forces: np.ndarray, gravity: float) -> np.ndarray:
    """One Euler step of cart-pole dynamics, each rate written into its own
    column of the next state."""
    x_dot, th, th_dot = states[:, 1], states[:, 2], states[:, 3]
    cos_th = np.cos(th)
    sin_th = np.sin(th)
    total_mass = envs.CART_MASS + envs.POLE_MASS
    polemass_length = envs.POLE_MASS * envs.HALF_LENGTH
    temp = (forces + polemass_length * th_dot * th_dot * sin_th) / total_mass
    th_acc = (gravity * sin_th - cos_th * temp) / (
        envs.HALF_LENGTH * (4.0 / 3.0 - envs.POLE_MASS * cos_th * cos_th / total_mass)
    )
    x_acc = temp - polemass_length * th_acc * cos_th / total_mass
    out = np.empty_like(states)
    out[:, 0] = x_dot
    out[:, 1] = x_acc
    out[:, 2] = th_dot
    out[:, 3] = th_acc
    out *= envs.CARTPOLE_DT
    out += states
    return out


def reference_cartpole_step(env: Environment, states, actions):
    """`CartPoleEnv.step_batch` with its actions checked by
    `np.logical_and.reduce` and its forces taken by `np.where`."""
    actions = np.asarray(actions)
    right = actions == 1
    ok = right | (actions == 0)
    if not np.logical_and.reduce(ok):
        raise InvalidAction(f"cartpole action must be 0 or 1, got {actions[~ok][0].item()!r}")
    forces = np.where(right, envs.FORCE_MAG, -envs.FORCE_MAG)
    nxt = reference_cartpole_euler(np.asarray(states, dtype=np.float64), forces, env.task.phi)
    done = np.abs(nxt[:, 2]) > envs.ANGLE_LIMIT
    done |= np.abs(nxt[:, 0]) > envs.X_LIMIT
    return nxt, np.ones(len(nxt)), done


def until_converged(rc, epochs):
    """The (state, metrics) pairs of `epochs` up to and including the first
    epoch whose rows satisfy rc's convergence rule; all of them when the
    run never converges. The acceptance cache records this prefix."""
    rows = []
    for state, m in epochs:
        yield state, m
        rows.append(m)
        if m.eval_return is not None and convergence_epoch(rows, rc.conv_tau, rc.conv_window) is not None:
            return
