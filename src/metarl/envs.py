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


def cartpole_euler(states: np.ndarray, forces: np.ndarray, gravity: float) -> np.ndarray:
    """One Euler step of cart-pole dynamics for a batch of states (n, 4) under
    per-row applied forces (n,). Pure and elementwise; exposed separately so
    dynamics can be probed with forces outside the action set (e.g. zero
    force for free-fall checks). The next state is formed in one new array:
    the rates (x_dot, x_acc, th_dot, th_acc), the two velocities copied in by
    one strided assignment, then scaled by dt and added to the state."""
    th, th_dot = states[:, 2], states[:, 3]
    cos_th = np.cos(th)
    sin_th = np.sin(th)
    total_mass = CART_MASS + POLE_MASS
    polemass_length = POLE_MASS * HALF_LENGTH
    temp = (forces + polemass_length * th_dot * th_dot * sin_th) / total_mass
    th_acc = (gravity * sin_th - cos_th * temp) / (
        HALF_LENGTH * (4.0 / 3.0 - POLE_MASS * cos_th * cos_th / total_mass)
    )
    x_acc = temp - polemass_length * th_acc * cos_th / total_mass
    out = np.empty_like(states)  # state + dt * (x_dot, x_acc, th_dot, th_acc)
    out[:, 0::2] = states[:, 1::2]
    out[:, 1] = x_acc
    out[:, 3] = th_acc
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
        ok = right | (actions == 0)
        if np.count_nonzero(ok) != ok.size:
            raise InvalidAction(f"cartpole action must be 0 or 1, got {actions[~ok][0].item()!r}")
        forces = _CARTPOLE_FORCES.take(right)
        nxt = cartpole_euler(np.asarray(states, dtype=np.float64), forces, self.task.phi)
        done = np.abs(nxt[:, 2]) > ANGLE_LIMIT
        done |= np.abs(nxt[:, 0]) > X_LIMIT
        rewards = np.ones(len(nxt))
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
        ok = np.isfinite(actions) & (actions >= 0.0) & (actions <= SPEED_MAX)
        if not np.all(ok):
            raise InvalidAction(
                f"intersection speed command must lie in [0, {SPEED_MAX}], got {actions[~ok][0].item()!r}"
            )
        states = np.asarray(states, dtype=np.float64)
        nxt = np.empty_like(states)
        nxt[:, 0] = states[:, 0] + INTERSECTION_DT * actions
        nxt[:, 1] = states[:, 1] + INTERSECTION_DT * self.task.phi
        collided = (np.abs(nxt[:, 0]) < CONFLICT_RADIUS) & (np.abs(nxt[:, 1]) < CONFLICT_RADIUS)
        crossed = nxt[:, 0] >= CROSS_LINE
        rewards = actions / SPEED_MAX
        rewards = np.where(crossed, CROSS_REWARD, rewards)
        rewards = np.where(collided, COLLISION_REWARD, rewards)  # collision dominates
        done = collided | crossed
        return nxt, rewards, done


_ENV_CLASSES = {Family.CARTPOLE: CartPoleEnv, Family.INTERSECTION: IntersectionEnv}


def make_env(task: Task) -> Environment:
    """The environment of the task's family."""
    return _ENV_CLASSES[task.family](task)
