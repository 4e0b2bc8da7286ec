"""Shared test fixtures: hand-built parameter vectors, reference policies,
a call counter, a traced-memory probe, and the references the library's
fast paths are checked against: a solo-episode rollout, the empirical
medium task, and the graph primitives the fused nodes replace. Also `add`,
the sum of two nodes, which only tests' objectives need."""

from __future__ import annotations

import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from metarl import autodiff as ad
from metarl import policy as pol
from metarl import rl
from metarl.envs import Environment, Task
from metarl.errors import EmptyTaskSet
from metarl.rng import Stream


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
    calls through: `autodiff.grad_and_value` (which `grad` and `fd_hvp`
    reach), `autodiff.hvp`, `autodiff.value` (which `fd_grad` reaches), and
    `rl.sample_batch` (each call adds one batch and its trajectory count).
    The originals are back in place on exit, also when the block raises."""
    counts = Counts()
    grad_and_value, hvp, value, sample_batch = ad.grad_and_value, ad.hvp, ad.value, rl.sample_batch

    def counted_grad_and_value(*args, **kwargs):
        counts.grad_calls += 1
        return grad_and_value(*args, **kwargs)

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

    ad.grad_and_value, ad.hvp, ad.value, rl.sample_batch = (
        counted_grad_and_value, counted_hvp, counted_value, counted_sample_batch
    )
    try:
        yield counts
    finally:
        ad.grad_and_value, ad.hvp, ad.value, rl.sample_batch = grad_and_value, hvp, value, sample_batch


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


def rollout(env: Environment, policy: pol.PolicyNet, stream: Stream) -> rl.Trajectory:
    """One episode alone through the lockstep engine, on the generator of
    `stream`: the solo reference a batch's rows are compared against."""
    return rl._run_rollouts(env, policy, [stream])[0]


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
        acc(a, ad._scatter_rows(g, rows, idx, a.val.shape[1]))

    dot = None if a.dot is None else a.dot[rows, idx]
    return ad.Node(a.val[rows, idx], dot, (a,), vjp, a.needs)


def row_max_const(a) -> ad.Node:
    """Row maxima, detached from the graph (constant shift for stable
    log-softmax; value and all derivatives of the composition stay exact)."""
    return ad.Node(np.maximum.reduce(ad._as_node(a).val, axis=1, keepdims=True))
