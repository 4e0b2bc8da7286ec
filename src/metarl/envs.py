"""Parameterized environment families and the uniform task distribution.

Two families, each indexed by one real parameter phi:

* cartpole — classic cart-pole balancing with gravity = phi (m/s^2). Cart mass
  1.0 kg, pole mass 0.1 kg, half-length 0.5 m, force +-10 N, dt 0.02 s, Euler
  integration, reward +1 per step, termination on |pole angle| > 12 degrees or
  |cart position| > 2.4 m.
* intersection — two vehicles approaching a perpendicular crossing. State is
  (dx, dy), each vehicle's signed distance to the conflict point. Vehicle 1
  moves along x at the commanded speed a in [0, 15] m/s; Vehicle 2 along y at
  fixed speed phi. dt 0.1 s. Reward is a/15 per step; a step that puts both
  vehicles inside the 2 m conflict zone yields exactly -100 and terminates; a
  step reaching dx >= +5 m yields exactly +50 and terminates. Transitions are
  deterministic.

Environments are immutable descriptions (assigning or deleting an attribute
of an instance raises AttributeError) without a time limit (the rollout
truncates episodes at its horizon); episode state lives in the caller.
Stepping is pure and elementwise, so stepping a batch of states produces the
same bits per row as stepping each row alone (no batch-size-dependent math).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np
from numpy._core.multiarray import count_nonzero as _count_nonzero

from .errors import InvalidAction
from .rng import Stream

__all__ = [
    "Family",
    "Task",
    "TaskDistribution",
    "Discrete",
    "Box",
    "Environment",
    "CartPoleEnv",
    "IntersectionEnv",
    "medium_task",
    "sample_tasks",
    "make_env",
    "cartpole_euler",
]

CART_MASS = 1.0
POLE_MASS = 0.1
HALF_LENGTH = 0.5
FORCE_MAG = 10.0
CARTPOLE_DT = 0.02
ANGLE_LIMIT = 12.0 * np.pi / 180.0
X_LIMIT = 2.4

INTERSECTION_DT = 0.1
SPEED_MAX = 15.0
CONFLICT_RADIUS = 2.0
CROSS_LINE = 5.0
COLLISION_REWARD = -100.0
CROSS_REWARD = 50.0


class Family(enum.Enum):
    CARTPOLE = "cartpole"
    INTERSECTION = "intersection"


@dataclass(frozen=True)
class Task:
    """One member of a family: phi is gravity (cartpole, m/s^2) or the fixed
    vehicle speed (intersection, m/s)."""

    family: Family
    phi: float

    def __post_init__(self):
        if not np.isfinite(self.phi):
            raise ValueError("task parameter must be finite")


@dataclass(frozen=True)
class TaskDistribution:
    """Uniform distribution over [phi_lo, phi_hi] within one family."""

    family: Family
    phi_lo: float
    phi_hi: float

    def __post_init__(self):
        if not (np.isfinite(self.phi_lo) and np.isfinite(self.phi_hi)):
            raise ValueError("parameter bounds must be finite")
        if not self.phi_lo < self.phi_hi:
            raise ValueError("parameter interval is empty (need phi_lo < phi_hi)")


@dataclass(frozen=True)
class Discrete:
    """The action indices {0, ..., n-1}."""

    n: int


@dataclass(frozen=True)
class Box:
    """The continuous actions in [low, high]."""

    low: float
    high: float


def medium_task(dist: TaskDistribution) -> Task:
    """Task at the exact mean of the uniform parameter distribution."""
    return Task(dist.family, 0.5 * (dist.phi_lo + dist.phi_hi))


def sample_tasks(dist: TaskDistribution, m: int, rng: Stream) -> "list[Task]":
    """m independent uniform draws from the distribution, taken from the
    generator of `rng`."""
    if m < 1:
        raise ValueError("need at least one task")
    phis = rng.generator().uniform(dist.phi_lo, dist.phi_hi, size=m)
    return [Task(dist.family, float(p)) for p in phis]


_TOTAL_MASS = CART_MASS + POLE_MASS
_POLEMASS_LENGTH = POLE_MASS * HALF_LENGTH


def cartpole_euler(states: np.ndarray, forces: np.ndarray, gravity: float) -> np.ndarray:
    """One Euler step of cart-pole dynamics for a batch of states (n, 4) under
    per-row finite applied forces (n,). Pure and elementwise; exposed
    separately so dynamics can be probed with forces outside the action set
    (e.g. zero force for free-fall checks).

    The next state state + dt * (x_dot, x_acc, th_dot, th_acc) is formed in
    one new array: th_acc and x_acc are computed in place in its columns 3
    and 1, the two velocities copied into columns 0 and 2 by one strided
    assignment, then the whole array is scaled by dt and added to the state.
    Every operation is the ufunc of the textbook expression on the same
    operands in the same order, except that an in-place product or sum may
    take its operands swapped where the other one is a constant or the
    force: IEEE-754 + and x are commutative, so the bits are the same."""
    th, th_dot = states[:, 2], states[:, 3]
    cos_th = np.cos(th)
    sin_th = np.sin(th)
    out = np.empty_like(states)
    th_acc, x_acc = out[:, 3], out[:, 1]
    # temp = (forces + polemass_length * th_dot * th_dot * sin_th) / total_mass
    temp = th_dot * _POLEMASS_LENGTH
    temp *= th_dot
    temp *= sin_th
    temp += forces
    temp /= _TOTAL_MASS
    # th_acc = (gravity * sin_th - cos_th * temp)
    #          / (half_length * (4/3 - pole_mass * cos_th * cos_th / total_mass))
    np.multiply(gravity, sin_th, th_acc)
    np.multiply(cos_th, temp, x_acc)
    th_acc -= x_acc
    den = np.multiply(cos_th, POLE_MASS, sin_th)  # sin_th is spent
    den *= cos_th
    den /= _TOTAL_MASS
    np.subtract(4.0 / 3.0, den, den)
    den *= HALF_LENGTH
    th_acc /= den
    # x_acc = temp - polemass_length * th_acc * cos_th / total_mass
    np.multiply(th_acc, _POLEMASS_LENGTH, x_acc)
    x_acc *= cos_th
    x_acc /= _TOTAL_MASS
    np.subtract(temp, x_acc, x_acc)
    out[:, 0::2] = states[:, 1::2]
    out *= CARTPOLE_DT
    out += states
    return out


class Environment:
    """Immutable family-specific rules: reset distribution, transition,
    reward, termination, and the class attributes `state_dim` and
    `action_spec`, the action set the policy takes as its head."""

    __slots__ = ("task",)

    def __init__(self, task: Task):
        object.__setattr__(self, "task", task)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        """A start state drawn from `rng`, the episode's own generator."""
        raise NotImplementedError

    def step_batch(self, states: np.ndarray, actions: np.ndarray):
        """Step n episodes at once: (n, d), (n,) -> (n, d), (n,), (n,) bool.
        Row i depends only on row i."""
        raise NotImplementedError


_CARTPOLE_FORCES = np.array([-FORCE_MAG, FORCE_MAG])  # the force of action 0 and of action 1


class CartPoleEnv(Environment):
    __slots__ = ()
    state_dim = 4
    action_spec = Discrete(2)

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(-0.05, 0.05, size=4)

    def step_batch(self, states, actions):
        actions = np.asarray(actions)
        right = actions == 1
        ok = actions == 0
        ok |= right
        if _count_nonzero(ok) != ok.size:
            raise InvalidAction(f"cartpole action must be 0 or 1, got {actions[~ok][0].item()!r}")
        forces = _CARTPOLE_FORCES.take(right)
        nxt = cartpole_euler(np.asarray(states, dtype=np.float64), forces, self.task.phi)
        done = np.abs(nxt[:, 2]) > ANGLE_LIMIT
        done |= np.abs(nxt[:, 0]) > X_LIMIT
        rewards = np.empty(len(nxt))
        rewards.fill(1.0)
        return nxt, rewards, done


class IntersectionEnv(Environment):
    __slots__ = ()
    state_dim = 2
    action_spec = Box(0.0, SPEED_MAX)

    def reset(self, rng: np.random.Generator) -> np.ndarray:
        jitter = rng.uniform(0.0, 10.0)
        return np.array([-40.0, -(40.0 + jitter)])

    def step_batch(self, states, actions):
        actions = np.asarray(actions, dtype=np.float64)
        # nan fails both comparisons and an infinity one of them
        ok = actions >= 0.0
        ok &= actions <= SPEED_MAX
        if _count_nonzero(ok) != ok.size:
            raise InvalidAction(
                f"intersection speed command must lie in [0, {SPEED_MAX}], got {actions[~ok][0].item()!r}"
            )
        states = np.asarray(states, dtype=np.float64)
        nxt = np.empty_like(states)
        x = np.multiply(INTERSECTION_DT, actions, nxt[:, 0])
        np.add(states[:, 0], x, x)
        np.add(states[:, 1], INTERSECTION_DT * self.task.phi, nxt[:, 1])
        inside = np.abs(nxt) < CONFLICT_RADIUS
        collided = inside[:, 0] & inside[:, 1]
        crossed = x >= CROSS_LINE
        rewards = actions / SPEED_MAX
        rewards[crossed] = CROSS_REWARD
        rewards[collided] = COLLISION_REWARD  # collision dominates
        done = collided | crossed
        return nxt, rewards, done


_ENV_CLASSES = {Family.CARTPOLE: CartPoleEnv, Family.INTERSECTION: IntersectionEnv}


def make_env(task: Task) -> Environment:
    """The environment of the task's family."""
    return _ENV_CLASSES[task.family](task)
