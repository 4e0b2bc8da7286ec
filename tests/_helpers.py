"""Shared test fixtures: hand-built parameter vectors, reference policies,
and a call counter."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from metarl import autodiff as ad
from metarl import policy as pol
from metarl import rl
from metarl.envs import Environment


def zero_params(arch: pol.Arch, **overrides) -> ad.ParamVector:
    """All-zero ParamVector for an arch, with named segments overridden."""
    segs = arch.segments()
    vals = np.zeros(sum(s.size for s in segs))
    for name, arr in overrides.items():
        seg = next(s for s in segs if s.name == name)
        vals[seg.offset : seg.offset + seg.size] = np.reshape(arr, -1)
    return ad.ParamVector(vals, segs)


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


@contextmanager
def count_calls() -> Iterator[Counts]:
    """Count the gradients, Hessian-vector products and rollouts made inside
    the block by wrapping the module globals the library calls through:
    `autodiff.grad_and_value` (which `grad` and `fd_hvp` reach),
    `autodiff.hvp`, and `rl.sample_batch` (each batch adds its trajectory
    count). The originals are back in place on exit, also when the block
    raises."""
    counts = Counts()
    grad_and_value, hvp, sample_batch = ad.grad_and_value, ad.hvp, rl.sample_batch

    def counted_grad_and_value(*args, **kwargs):
        counts.grad_calls += 1
        return grad_and_value(*args, **kwargs)

    def counted_hvp(*args, **kwargs):
        counts.hvp_calls += 1
        return hvp(*args, **kwargs)

    def counted_sample_batch(*args, **kwargs):
        batch = sample_batch(*args, **kwargs)
        counts.rollouts += batch.k
        return batch

    ad.grad_and_value, ad.hvp, rl.sample_batch = counted_grad_and_value, counted_hvp, counted_sample_batch
    try:
        yield counts
    finally:
        ad.grad_and_value, ad.hvp, rl.sample_batch = grad_and_value, hvp, sample_batch
