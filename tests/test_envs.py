"""Environment family checks: task distribution math, dynamics constants,
reward/termination rules, determinism, and batch/one-row step agreement."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import (
    empirical_medium,
    reference_cartpole_euler,
    reference_cartpole_step,
    reference_intersection_step,
)
from metarl import envs
from metarl.envs import (
    Box,
    Discrete,
    Family,
    Task,
    TaskDistribution,
    make_env,
    medium_task,
    sample_tasks,
)
from metarl.errors import EmptyTaskSet, InvalidAction, ValidationError
from metarl.harness import build_run_config
from metarl.policy import actor_arch
from metarl.rng import Stream


DIST = TaskDistribution(Family.CARTPOLE, 5.0, 15.0)


def step_one(env: envs.Environment, state, action) -> "tuple[np.ndarray, float, bool]":
    """One transition through step_batch on a one-row batch."""
    states = np.asarray(state, dtype=np.float64)[None, :]
    nxt, rewards, dones = env.step_batch(states, np.asarray([action]))
    return nxt[0], float(rewards[0]), bool(dones[0])


class TestTaskDistribution:
    def test_medium_of_default_range(self):
        assert medium_task(DIST).phi == 10.0

    def test_medium_symmetry(self):
        c = 3.7
        assert medium_task(TaskDistribution(Family.CARTPOLE, 0.0, 2 * c)).phi == c

    def test_medium_matches_monte_carlo(self):
        tasks = sample_tasks(DIST, 10_000, Stream(42))
        assert abs(empirical_medium(tasks).phi - medium_task(DIST).phi) < 0.1

    def test_empirical_medium_exact(self):
        tasks = [Task(Family.CARTPOLE, p) for p in (5.0, 7.5, 10.0, 12.5, 15.0)]
        assert empirical_medium(tasks).phi == 10.0

    def test_empirical_medium_single(self):
        assert empirical_medium([Task(Family.CARTPOLE, 7.0)]).phi == 7.0

    def test_empirical_medium_empty(self):
        with pytest.raises(EmptyTaskSet):
            empirical_medium([])

    def test_empirical_medium_mixed_families(self):
        with pytest.raises(ValueError):
            empirical_medium([Task(Family.CARTPOLE, 5.0), Task(Family.INTERSECTION, 5.0)])

    def test_sampling_deterministic(self):
        a = sample_tasks(DIST, 5, Stream(17))
        b = sample_tasks(DIST, 5, Stream(17))
        assert [t.phi for t in a] == [t.phi for t in b]

    def test_sampling_support(self):
        for t in sample_tasks(DIST, 200, Stream(3)):
            assert 5.0 <= t.phi <= 15.0
            assert t.family is Family.CARTPOLE

    def test_sampling_uniform_cdf_at_midpoint(self):
        phis = np.array([t.phi for t in sample_tasks(DIST, 10_000, Stream(5))])
        assert abs(np.mean(phis < 10.0) - 0.5) <= 0.02

    def test_sampling_needs_positive_count(self):
        with pytest.raises(ValueError):
            sample_tasks(DIST, 0, Stream(1))

    def test_empty_interval_rejected(self):
        with pytest.raises(ValueError):
            TaskDistribution(Family.CARTPOLE, 5.0, 5.0)
        with pytest.raises(ValueError):
            TaskDistribution(Family.CARTPOLE, 8.0, 5.0)

    @pytest.mark.parametrize("lo, hi", [(-np.inf, 5.0), (5.0, np.inf), (np.nan, 5.0), (5.0, np.nan)])
    def test_nonfinite_bounds_rejected(self, lo, hi):
        with pytest.raises(ValueError, match="parameter bounds must be finite"):
            TaskDistribution(Family.CARTPOLE, lo, hi)

    @pytest.mark.parametrize("phi", [np.inf, -np.inf, np.nan])
    def test_nonfinite_task_parameter_rejected(self, phi):
        with pytest.raises(ValueError, match="task parameter must be finite"):
            Task(Family.CARTPOLE, phi)

    def test_family_parse(self):
        def family(name):
            return build_run_config({"env": name}).meta.env

        assert family("CartPole") is Family.CARTPOLE
        assert family(" intersection ") is Family.INTERSECTION
        with pytest.raises(ValidationError, match="env"):
            family("lunarlander")

    def test_make_env_dispatches_on_family(self):
        assert isinstance(make_env(Task(Family.CARTPOLE, 9.0)), envs.CartPoleEnv)
        assert isinstance(make_env(Task(Family.INTERSECTION, 9.0)), envs.IntersectionEnv)


class TestCartPole:
    def test_gravity_plumbed_into_pole_acceleration(self):
        # From rest at a small angle with zero force, one Euler step changes
        # the angular velocity by dt * g*sin(th) / (l*(4/3 - m_p*cos^2/total)).
        th = 0.04
        state = np.array([[0.0, 0.0, th, 0.0]])
        g = 9.8
        nxt = envs.cartpole_euler(state, np.zeros(1), g)
        denom = envs.HALF_LENGTH * (
            4.0 / 3.0 - envs.POLE_MASS * np.cos(th) ** 2 / (envs.CART_MASS + envs.POLE_MASS)
        )
        want = envs.CARTPOLE_DT * g * np.sin(th) / denom
        assert nxt[0, 3] == pytest.approx(want, rel=1e-12)

    def test_reward_is_one_while_alive(self):
        env = make_env(Task(Family.CARTPOLE, 10.0))
        state = env.reset(Stream(1).generator())
        _, reward, _ = step_one(env, state, 1)
        assert reward == 1.0

    def test_simple_controller_reaches_max_return(self):
        # Push toward the side the pole is falling to; this balances easily,
        # so the return is capped only by the 200-step horizon.
        env = make_env(Task(Family.CARTPOLE, 10.0))
        state = env.reset(Stream(2).generator())
        total = 0.0
        for _ in range(200):
            action = 1 if state[2] + 0.5 * state[3] > 0 else 0
            state, reward, done = step_one(env, state, action)
            total += reward
            assert not done
        assert total == 200.0

    def test_random_policy_return_bounds(self):
        env = make_env(Task(Family.CARTPOLE, 10.0))
        gen = Stream(3).generator()
        for _ in range(20):
            state = env.reset(gen)
            total, done, steps = 0.0, False, 0
            while not done and steps < 200:
                state, reward, done = step_one(env, state, int(gen.integers(0, 2)))
                total += reward
                steps += 1
            assert 1.0 <= total <= 200.0
            if total == 200.0:
                assert not done  # never terminated before the horizon

    def test_reset_support_and_determinism(self):
        env = make_env(Task(Family.CARTPOLE, 10.0))
        s1 = env.reset(Stream(11).generator())
        s2 = env.reset(Stream(11).generator())
        assert np.array_equal(s1, s2)
        assert np.all(np.abs(s1) <= 0.05)

    def test_invalid_actions_rejected(self):
        env = make_env(Task(Family.CARTPOLE, 10.0))
        state = np.zeros(4)
        with pytest.raises(InvalidAction):
            step_one(env, state, 2)
        with pytest.raises(InvalidAction):
            step_one(env, state, 0.5)

    @pytest.mark.parametrize(
        "family, actions, shown",
        [
            (Family.CARTPOLE, [1.0, np.nan], "nan"),
            (Family.INTERSECTION, [1.0, np.nan], "nan"),
            (Family.INTERSECTION, [15.5, 1.0], "15.5"),
        ],
        ids=["cartpole-nan", "intersection-nan", "intersection-15.5"],
    )
    def test_invalid_action_message_shows_the_plain_value(self, family, actions, shown):
        env = make_env(Task(family, 10.0))
        with pytest.raises(InvalidAction, match=rf", got {shown}$"):
            env.step_batch(np.zeros((2, env.state_dim)), np.array(actions))

    def test_step_batch_validates_like_isin(self):
        # The batched check must reject and accept exactly what
        # np.isin(actions, (0, 1)) does, one bad row among good ones included.
        env = make_env(Task(Family.CARTPOLE, 10.0))
        states = np.zeros((3, 4))
        for bad in (2, -1, 0.5, np.nan):
            actions = np.array([0, bad, 1])
            assert not np.all(np.isin(actions, (0, 1)))
            with pytest.raises(InvalidAction):
                env.step_batch(states, actions)
        want, _, _ = env.step_batch(states, np.array([0, 1, 1]))
        for good in ([0, 1, 1], [0.0, 1.0, 1.0], [False, True, True]):
            actions = np.array(good)
            assert np.all(np.isin(actions, (0, 1)))
            nxt, _, _ = env.step_batch(states, actions)
            assert nxt.tobytes() == want.tobytes()

    def test_higher_gravity_topples_sooner_without_control(self):
        def steps_to_topple(g: float) -> int:
            state = np.array([[0.0, 0.0, 0.05, 0.0]])
            for k in range(1, 1000):
                state = envs.cartpole_euler(state, np.zeros(1), g)
                if abs(state[0, 2]) > envs.ANGLE_LIMIT:
                    return k
            raise AssertionError("pole never toppled")

        n5, n10, n15 = steps_to_topple(5.0), steps_to_topple(10.0), steps_to_topple(15.0)
        assert n5 > n10 > n15


class TestIntersection:
    def test_vehicle2_advances_phi_dt_regardless_of_action(self):
        env = make_env(Task(Family.INTERSECTION, 10.0))
        state = np.array([-40.0, -45.0])
        for action in (0.0, 7.5, 15.0):
            nxt, _, _ = step_one(env, state, action)
            assert nxt[1] - state[1] == 10.0 * envs.INTERSECTION_DT

    def test_transition_deterministic(self):
        env = make_env(Task(Family.INTERSECTION, 8.0))
        state = np.array([-12.25, -9.5])
        a = step_one(env, state, 11.3)
        b = step_one(env, state, 11.3)
        assert a[0].tobytes() == b[0].tobytes()
        assert a[1] == b[1] and a[2] == b[2]

    def test_progress_shaping(self):
        env = make_env(Task(Family.INTERSECTION, 10.0))
        _, reward, done = step_one(env, np.array([-40.0, -45.0]), 7.5)
        assert reward == 7.5 / 15.0
        assert not done

    def test_collision_constructed(self):
        env = make_env(Task(Family.INTERSECTION, 10.0))
        # After the step: dx = 1.5, dy = -1.5 -> both inside the 2 m zone.
        nxt, reward, done = step_one(env, np.array([1.0, -2.5]), 5.0)
        assert abs(nxt[0]) < envs.CONFLICT_RADIUS and abs(nxt[1]) < envs.CONFLICT_RADIUS
        assert reward == -100.0
        assert done

    def test_crossing_constructed(self):
        env = make_env(Task(Family.INTERSECTION, 10.0))
        nxt, reward, done = step_one(env, np.array([4.6, -30.0]), 15.0)
        assert nxt[0] >= envs.CROSS_LINE
        assert reward == 50.0
        assert done

    def test_reset_support_and_determinism(self):
        env = make_env(Task(Family.INTERSECTION, 10.0))
        s1 = env.reset(Stream(21).generator())
        s2 = env.reset(Stream(21).generator())
        assert np.array_equal(s1, s2)
        assert s1[0] == -40.0
        assert -50.0 <= s1[1] <= -40.0

    def test_invalid_speed_rejected(self):
        env = make_env(Task(Family.INTERSECTION, 10.0))
        state = np.array([-40.0, -45.0])
        for bad in (-0.1, 15.1, np.nan):
            with pytest.raises(InvalidAction):
                step_one(env, state, bad)

    @settings(deadline=None, max_examples=20)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_fixed_action_sequence_bit_reproducible(self, seed):
        env = make_env(Task(Family.INTERSECTION, 9.3))
        gen = np.random.default_rng(seed)
        actions = gen.uniform(0.0, 15.0, size=12)
        start = np.array([-40.0, -44.0])

        def run():
            s, out = start, []
            for a in actions:
                s, r, d = step_one(env, s, a)
                out.append((s.tobytes(), r, d))
                if d:
                    break
            return out

        assert run() == run()


class TestBatchScalarAgreement:
    def test_cartpole_rows_match_scalar_bits(self):
        env = make_env(Task(Family.CARTPOLE, 12.0))
        gen = Stream(31).generator()
        states = gen.uniform(-0.05, 0.05, size=(8, 4))
        actions = gen.integers(0, 2, size=8)
        nxt, rew, done = env.step_batch(states, actions)
        for i in range(8):
            s_i, r_i, d_i = step_one(env, states[i], int(actions[i]))
            assert s_i.tobytes() == nxt[i].tobytes()
            assert r_i == rew[i] and d_i == done[i]

    def test_intersection_rows_match_scalar_bits(self):
        env = make_env(Task(Family.INTERSECTION, 7.0))
        gen = Stream(32).generator()
        states = np.column_stack(
            [gen.uniform(-40, 5, size=6), gen.uniform(-50, 0, size=6)]
        )
        actions = gen.uniform(0, 15, size=6)
        nxt, rew, done = env.step_batch(states, actions)
        for i in range(6):
            s_i, r_i, d_i = step_one(env, states[i], float(actions[i]))
            assert s_i.tobytes() == nxt[i].tobytes()
            assert r_i == rew[i] and d_i == done[i]

    def test_masked_subset_matches_full_batch_bits(self):
        env = make_env(Task(Family.CARTPOLE, 9.0))
        gen = Stream(33).generator()
        states = gen.uniform(-0.1, 0.1, size=(10, 4))
        actions = gen.integers(0, 2, size=10)
        full, _, _ = env.step_batch(states, actions)
        keep = np.array([0, 3, 4, 8])
        sub, _, _ = env.step_batch(states[keep], actions[keep])
        assert sub.tobytes() == full[keep].tobytes()


def edge_states(gen: np.random.Generator, rows: int) -> np.ndarray:
    """Cart-pole states around the termination limits: each entry is drawn
    within (or just past) its limit, and about a third of the entries are
    replaced by a signed zero, a limit, or a limit's neighbouring float."""
    limits = np.array([envs.X_LIMIT, 2.0, envs.ANGLE_LIMIT, 2.0])
    states = gen.uniform(-1.05, 1.05, size=(rows, 4)) * limits
    specials = []
    for lim in limits:
        edge = np.array([lim, np.nextafter(lim, 0.0), np.nextafter(lim, np.inf)])
        specials.append(np.concatenate([[0.0, -0.0], edge, -edge]))
    for col, values in enumerate(specials):
        pick = gen.random(rows) < 0.35
        states[pick, col] = gen.choice(values, size=int(pick.sum()))
    return states


class TestCartPoleMatchesReference:
    """`cartpole_euler` and `CartPoleEnv.step_batch` give the bits of the
    composition they replaced: each rate in its own column and the forces
    by np.where, for int and float (0.0, 1.0) actions alike. The lockstep
    engine tests run the same step on both sides, so they cannot see a
    change of these bits."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=2000),
        st.floats(min_value=5.0, max_value=15.0),
    )
    def test_step_and_euler_bitwise(self, seed, rows, gravity):
        gen = np.random.default_rng(seed)
        states = edge_states(gen, rows)
        env = make_env(Task(Family.CARTPOLE, gravity))
        for actions in (gen.integers(0, 2, size=rows), gen.integers(0, 2, size=rows).astype(np.float64)):
            got = env.step_batch(states, actions)
            want = reference_cartpole_step(env, states, actions)
            for g, w in zip(got, want):
                assert g.dtype == w.dtype and g.shape == w.shape
                assert g.tobytes() == w.tobytes()
        forces = gen.choice([0.0, -0.0, 10.0, -10.0, 3.7], size=rows)
        got = envs.cartpole_euler(states, forces, gravity)
        assert got.tobytes() == reference_cartpole_euler(states, forces, gravity).tobytes()

    @pytest.mark.parametrize("bad", [2, -1, 0.5])
    def test_invalid_actions_refused_as_before(self, bad):
        env = make_env(Task(Family.CARTPOLE, 9.8))
        states, actions = np.zeros((3, 4)), np.array([0, bad, 1])
        with pytest.raises(InvalidAction) as got:
            env.step_batch(states, actions)
        with pytest.raises(InvalidAction) as want:
            reference_cartpole_step(env, states, actions)
        assert str(got.value) == str(want.value) == f"cartpole action must be 0 or 1, got {bad!r}"


class TestIntersectionMatchesReference:
    """`IntersectionEnv.step_batch` gives the bits, and the refusals, of the
    composition it replaced: actions checked by `np.all` over `np.isfinite`
    and both bounds, rewards set by two `np.where`. Positions sit on and
    next to the conflict zone's edges and the crossing line, where a zero
    speed leaves them, so every ending and its boundary is stepped."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=2000),
        st.sampled_from([0.0, 5.0, 10.0, 15.0]),
    )
    def test_step_bitwise(self, seed, rows, phi):
        gen = np.random.default_rng(seed)
        states = gen.uniform(-8.0, 8.0, size=(rows, 2))
        edges = [envs.CONFLICT_RADIUS, -envs.CONFLICT_RADIUS, envs.CROSS_LINE, 0.0, -0.0]
        edges += [np.nextafter(e, d) for e in edges[:3] for d in (-np.inf, np.inf)]
        pick = gen.random((rows, 2)) < 0.35
        states[pick] = gen.choice(edges, size=int(pick.sum()))
        actions = gen.uniform(0.0, envs.SPEED_MAX, size=rows)
        pick = gen.random(rows) < 0.35
        actions[pick] = gen.choice([0.0, -0.0, envs.SPEED_MAX], size=int(pick.sum()))
        env = make_env(Task(Family.INTERSECTION, phi))
        got = env.step_batch(states, actions)
        want = reference_intersection_step(env, states, actions)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    @pytest.mark.parametrize(
        "bad", [np.nan, np.inf, -np.inf, -1.0, 15.5, np.nextafter(envs.SPEED_MAX, np.inf), -5e-324]
    )
    def test_invalid_actions_refused_as_before(self, bad):
        env = make_env(Task(Family.INTERSECTION, 10.0))
        states, actions = np.zeros((3, 2)), np.array([0.0, bad, 15.0])
        with pytest.raises(InvalidAction) as got:
            env.step_batch(states, actions)
        with pytest.raises(InvalidAction) as want:
            reference_intersection_step(env, states, actions)
        assert str(got.value) == str(want.value)


class TestNoHorizon:
    """The horizon is an argument of the rollout: an environment carries
    none, and no attribute of one can be set or deleted: not the horizon,
    its task, or the family's shape and action set."""

    @pytest.mark.parametrize("family", list(Family))
    def test_environment_has_no_horizon(self, family):
        env = make_env(Task(family, 10.0))
        task, state_dim, action_spec = env.task, env.state_dim, env.action_spec
        other = Task(next(f for f in Family if f is not family), 3.0)
        assert not hasattr(env, "horizon")
        for name, value in (("horizon", 7), ("state_dim", 7), ("task", other), ("action_spec", 7)):
            with pytest.raises(AttributeError, match=f"^{type(env).__name__} is immutable$"):
                setattr(env, name, value)
        assert not hasattr(env, "horizon") and env.state_dim == state_dim
        assert env.task is task and env.action_spec == action_spec

    @pytest.mark.parametrize("family", list(Family))
    def test_task_cannot_be_deleted(self, family):
        env = make_env(Task(family, 10.0))
        task = env.task
        with pytest.raises(AttributeError, match=f"^{type(env).__name__} is immutable$"):
            del env.task
        assert env.task is task
        env.step_batch(np.stack([env.reset(Stream(0).generator())]), np.zeros(1, dtype=np.int64))

    @pytest.mark.parametrize(
        "family, action_set",
        [(Family.CARTPOLE, Discrete(2)), (Family.INTERSECTION, Box(0.0, envs.SPEED_MAX))],
    )
    def test_action_set_is_the_policy_head(self, family, action_set):
        env = make_env(Task(family, 10.0))
        assert env.action_spec == action_set
        assert actor_arch(env).head == env.action_spec
