"""Rollout, return, and objective checks: lockstep/serial bit agreement,
the rollout engine against a step-by-step reference loop, closed-form returns
vs a brute-force oracle, surrogate gradients vs finite differences, and the
score-function zero-mean identity."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metarl import autodiff as ad
from metarl import meta
from metarl import policy as pol
from metarl import rl
from metarl.autodiff import Params
from metarl.envs import Family, Task, make_env
from metarl.rl import Trajectory, TrajectoryBatch, discounted_returns
from metarl.rng import Stream

from _helpers import balancer_policy, make_policy, rollout, zero_params

CARTPOLE = make_env(Task(Family.CARTPOLE, 10.0))
INTERSECTION = make_env(Task(Family.INTERSECTION, 10.0))
FIELDS = ("states", "actions", "rewards", "raws")  # Trajectory field order


def bandit_batch(actions, rewards) -> TrajectoryBatch:
    """Synthetic one-step cart-pole episodes at the zero state."""
    trajs = [
        Trajectory(
            states=np.zeros((1, 4)),
            actions=np.array([a], dtype=np.int64),
            rewards=np.array([float(r)]),
            raws=np.array([a], dtype=np.int64),
        )
        for a, r in zip(actions, rewards)
    ]
    return TrajectoryBatch(tuple(trajs), CARTPOLE.task)


class TestRollout:
    def test_bit_identical_given_same_stream(self):
        net = make_policy(INTERSECTION, Stream(1))
        a = rollout(INTERSECTION, net, Stream(2))
        b = rollout(INTERSECTION, net, Stream(2))
        for field in FIELDS:
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes()

    def test_cartpole_reward_equals_length(self):
        net = make_policy(CARTPOLE, Stream(3))
        for seed in range(5):
            traj = rollout(CARTPOLE, net, Stream(10 + seed))
            assert traj.length <= 200
            assert traj.total_return == traj.length

    def test_horizon_truncation(self):
        traj = rollout(CARTPOLE, balancer_policy(CARTPOLE), Stream(4))
        assert traj.length == 200


class TestSampleBatch:
    def test_batch_size(self):
        net = make_policy(CARTPOLE, Stream(5))
        batch = rl.sample_batch(CARTPOLE, net, 10, Stream(6))
        assert batch.k == 10

    def test_lockstep_matches_serial_rollouts_cartpole(self):
        net = make_policy(CARTPOLE, Stream(7))
        batch = rl.sample_batch(CARTPOLE, net, 6, Stream(8))
        for j, traj in enumerate(batch.trajectories):
            solo = rollout(CARTPOLE, net, Stream(8).child(j))
            for field in FIELDS:
                assert getattr(traj, field).tobytes() == getattr(solo, field).tobytes()

    def test_lockstep_matches_serial_rollouts_intersection(self):
        net = make_policy(INTERSECTION, Stream(9))
        batch = rl.sample_batch(INTERSECTION, net, 5, Stream(10))
        for j, traj in enumerate(batch.trajectories):
            solo = rollout(INTERSECTION, net, Stream(10).child(j))
            for field in FIELDS:
                assert getattr(traj, field).tobytes() == getattr(solo, field).tobytes()

    def test_deterministic_across_runs(self):
        net = make_policy(CARTPOLE, Stream(11))
        a = rl.sample_batch(CARTPOLE, net, 4, Stream(12))
        b = rl.sample_batch(CARTPOLE, net, 4, Stream(12))
        for ta, tb in zip(a.trajectories, b.trajectories):
            assert ta.states.tobytes() == tb.states.tobytes()

    def test_sibling_streams_do_not_collide(self):
        a = Stream(13).child(0).generator().random(10_000)
        b = Stream(13).child(1).generator().random(10_000)
        assert np.sum(a == b) < 5

    def test_validation(self):
        net = make_policy(CARTPOLE, Stream(14))
        with pytest.raises(ValueError):
            rl.sample_batch(CARTPOLE, net, 0, Stream(1))
        with pytest.raises(TypeError):
            rl.sample_batch(CARTPOLE, net, 2, np.random.default_rng(0))

    def test_rollout_and_eval_take_only_a_stream(self):
        # Variates are drawn a horizon at a time, so a generator shared by
        # several episodes would give each of them different bits. Training
        # and evaluation roll out through sample_batch, the one public entry.
        net = make_policy(CARTPOLE, Stream(14))
        with pytest.raises(TypeError):
            rl.sample_batch(CARTPOLE, net, 2, np.random.default_rng(0))

    @pytest.mark.parametrize("horizon", [0, -1])
    def test_horizon_below_one_rejected(self, horizon):
        env = make_env(Task(Family.CARTPOLE, 10.0))
        env.horizon = horizon
        net = make_policy(env, Stream(15))
        with pytest.raises(ValueError, match="horizon"):
            rl.sample_batch(env, net, 2, Stream(16))
        with pytest.raises(ValueError, match="horizon"):
            rollout(env, net, Stream(17))


def stepwise_act(net, states, gens):
    """Reference sampler: row j draws one variate from gens[j] and picks its
    categorical action with searchsorted."""
    out = pol.forward_inference(net.arch, net.params, states)
    n = len(states)
    if isinstance(net.arch.head, pol.CategoricalHead):
        shift = out - np.max(out, axis=1, keepdims=True)
        lse = np.log(np.sum(np.exp(shift), axis=1))
        cum = np.cumsum(np.exp(shift - lse[:, None]), axis=1)
        acts = np.empty(n, dtype=np.int64)
        for j in range(n):
            acts[j] = min(int(np.searchsorted(cum[j], gens[j].random(), side="right")), net.arch.head.n - 1)
        return acts, acts
    head = net.arch.head
    logsig = net.params.segment("log_sigma")
    raws = out[:, 0] + np.exp(logsig)[0] * np.array([g.standard_normal() for g in gens])
    return np.clip(raws, head.low, head.high), raws


def stepwise_rollouts(env, net, k, rng):
    """Reference engine: each step draws one variate per active row from
    that row's generator, and appends every field row by row."""
    gens = [rng.child(j).generator() for j in range(k)]
    states = np.stack([env.reset(g) for g in gens])
    rec = [tuple([] for _ in FIELDS) for _ in range(k)]
    active = list(range(k))
    t = 0
    while active and t < env.horizon:
        cur = states[np.asarray(active)]
        acts, raws = stepwise_act(net, cur, [gens[j] for j in active])
        nxt, rews, dones = env.step_batch(cur, acts)
        for m, j in enumerate(active):
            for field, val in zip(rec[j], (cur[m], acts[m], rews[m], raws[m])):
                field.append(val)
        states[np.asarray(active)] = nxt
        active = [j for m, j in enumerate(active) if not dones[m]]
        t += 1
    return [Trajectory(*(np.array(f) for f in r)) for r in rec]


def mixed_cartpole():
    env = make_env(Task(Family.CARTPOLE, 14.0))
    return env, balancer_policy(env, sharpness=300.0)


def crash_or_cross():
    env = make_env(Task(Family.INTERSECTION, 10.0))
    arch = pol.actor_arch(env)
    return env, pol.PolicyNet(arch, zero_params(arch, b2=(7.5,), log_sigma=(np.log(5.0),)))


def cross_or_stall():
    env = make_env(Task(Family.INTERSECTION, 10.0))
    arch = pol.actor_arch(env)
    return env, pol.PolicyNet(arch, zero_params(arch, b2=(4.5,), log_sigma=(np.log(4.0),)))


class TestEngineMatchesStepwiseLoop:
    """sample_batch against the reference loop, field by field and dtype by
    dtype, on batches whose episodes end in every way their family allows.
    Each case asserts the endings it is meant to cover."""

    @staticmethod
    def assert_same(env, net, k, rng):
        got = rl.sample_batch(env, net, k, rng).trajectories
        want = stepwise_rollouts(env, net, k, rng)
        assert len(got) == len(want) == k
        for g, w in zip(got, want):
            for field in FIELDS:
                a, b = getattr(g, field), getattr(w, field)
                assert a.dtype == b.dtype, field
                assert a.shape == b.shape, field
                assert a.tobytes() == b.tobytes(), field
        return got

    def test_cartpole_early_terminations_and_truncations(self):
        env, net = mixed_cartpole()
        lengths = [t.length for t in self.assert_same(env, net, 8, Stream(41))]
        assert 200 in lengths and min(lengths) < 200

    def test_cartpole_all_terminate_early(self):
        net = make_policy(CARTPOLE, Stream(3))
        lengths = [t.length for t in self.assert_same(CARTPOLE, net, 8, Stream(42))]
        assert max(lengths) < 200

    def test_cartpole_all_truncated(self):
        lengths = [t.length for t in self.assert_same(CARTPOLE, balancer_policy(CARTPOLE), 4, Stream(43))]
        assert lengths == [200] * 4

    def test_intersection_collisions_and_crossings(self):
        env, net = crash_or_cross()
        last = [t.rewards[-1] for t in self.assert_same(env, net, 8, Stream(40))]
        assert -100.0 in last and 50.0 in last

    def test_intersection_crossings_and_truncations(self):
        env, net = cross_or_stall()
        trajs = self.assert_same(env, net, 12, Stream(40))
        assert any(t.length == env.horizon and t.rewards[-1] != 50.0 for t in trajs)
        assert any(t.rewards[-1] == 50.0 for t in trajs)

    @settings(deadline=None, max_examples=10)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=1, max_value=7))
    def test_random_policies(self, seed, k):
        for env in (CARTPOLE, INTERSECTION):
            self.assert_same(env, make_policy(env, Stream(seed)), k, Stream(seed).child(1))


class TestPredrawnVariates:
    """A trajectory draws its variates for the whole horizon in one call;
    for PCG64 that yields the same bits as one draw per step."""

    @settings(deadline=None, max_examples=40)
    @given(st.integers(min_value=0, max_value=2**63 - 1), st.integers(min_value=1, max_value=300))
    def test_pcg64_block_draws_equal_single_draws(self, seed, h):
        def gen():
            return np.random.Generator(np.random.PCG64(seed))

        single = gen()
        assert gen().random(h).tobytes() == np.array([single.random() for _ in range(h)]).tobytes()
        single = gen()
        assert (
            gen().standard_normal(h).tobytes()
            == np.array([single.standard_normal() for _ in range(h)]).tobytes()
        )

    def test_each_head_draws_its_own_distribution(self):
        g = Stream(44).generator
        cat = pol.draw_variates(pol.actor_arch(CARTPOLE), g(), 5)
        gauss = pol.draw_variates(pol.actor_arch(INTERSECTION), g(), 5)
        assert cat.tobytes() == g().random(5).tobytes()
        assert gauss.tobytes() == g().standard_normal(5).tobytes()
        with pytest.raises(ValueError):
            pol.draw_variates(pol.critic_arch(CARTPOLE), g(), 5)


def numpy_scalar_returns(rewards: np.ndarray, gamma: float) -> np.ndarray:
    """Reference recursion on numpy float64 scalars, one array element at a
    time, written into a preallocated array."""
    out = np.empty(len(rewards))
    acc = 0.0
    for t in range(len(rewards) - 1, -1, -1):
        acc = rewards[t] + gamma * acc
        out[t] = acc
    return out


class TestDiscountedReturns:
    @pytest.mark.parametrize("gamma", [0.99, 1.0])
    def test_matches_numpy_scalar_recursion_bitwise(self, gamma):
        gen = Stream(16).generator()
        for n in (1, 2, 37, 200):
            # rewards spanning six decades, so the sums round in many places
            rewards = gen.normal(size=n) * 10.0 ** gen.uniform(-3.0, 3.0, size=n)
            want = numpy_scalar_returns(rewards, gamma).tobytes()
            traj = Trajectory(np.zeros((n, 4)), np.zeros(n, np.int64), rewards, np.zeros(n, np.int64))
            assert discounted_returns(traj, gamma).tobytes() == want
            assert discounted_returns(rewards, gamma).tobytes() == want

    def test_closed_form_gamma_099(self):
        g = discounted_returns(np.array([1.0, 1.0, 1.0]), 0.99)
        assert g == pytest.approx([2.9701, 1.99, 1.0], abs=1e-12)

    def test_gamma_one(self):
        assert np.array_equal(discounted_returns(np.array([1.0, 2.0, 3.0]), 1.0), [6.0, 5.0, 3.0])

    def test_matches_quadratic_oracle(self):
        gen = Stream(15).generator()
        rewards = gen.normal(size=200)
        gamma = 0.99
        g = discounted_returns(rewards, gamma)
        direct = np.array(
            [sum(gamma ** (k - t) * rewards[k] for k in range(t, 200)) for t in range(200)]
        )
        assert np.max(np.abs(g - direct)) <= 1e-10

    @settings(deadline=None, max_examples=40)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_recursion_identity(self, seed, gamma):
        gen = np.random.default_rng(seed)
        rewards = gen.normal(size=int(gen.integers(1, 50)))
        g = discounted_returns(rewards, gamma)
        assert g[-1] == rewards[-1]
        resid = g[:-1] - (rewards[:-1] + gamma * g[1:])
        assert np.max(np.abs(resid), initial=0.0) <= 1e-12

    def test_gamma_validation(self):
        with pytest.raises(ValueError):
            discounted_returns(np.ones(3), 0.0)
        with pytest.raises(ValueError):
            discounted_returns(np.ones(3), 1.5)


def zero_critic() -> ad.ParamVector:
    """Cart-pole critic with V(s) = 0 everywhere: the surrogate's advantages
    under it are then the raw discounted returns."""
    return zero_params(pol.critic_arch(CARTPOLE))


def raw_return_objective(batch: TrajectoryBatch, gamma: float):
    """Reference surrogate (1/K) sum_t log pi(a_t|s_t) * G_t with the raw,
    unstandardized discounted returns."""
    states, targets, returns = rl._pooled(batch, gamma)
    arch = pol.actor_arch(make_env(batch.task))

    def obj(p: Params) -> ad.Node:
        lp = pol.logprob_graph(arch, p, states, targets)
        return ad.nsum(lp * ad.const(returns)) * (1.0 / batch.k)

    return obj


class TestReinforceObjective:
    """policy_objective without a critic: the standardized score-function
    surrogate."""

    def test_zero_rewards_zero_everything(self):
        batch = bandit_batch([0, 1, 0, 1], [0.0, 0.0, 0.0, 0.0])
        net = make_policy(CARTPOLE, Stream(16))
        obj = rl.policy_objective(batch, 0.99)
        g, val = ad.grad_and_value(obj, net.params)
        assert val == 0.0
        assert np.array_equal(g.values, np.zeros(g.size))

    def test_ascent_increases_rewarded_action_probability(self):
        batch = bandit_batch([0, 1, 0, 1, 0, 1], [1.0, 0.0, 1.0, 0.0, 1.0, 0.0])
        net = make_policy(CARTPOLE, Stream(17))
        g = ad.grad(rl.policy_objective(batch, 0.99), net.params)

        def prob_of_action0(pv):
            logits = pol.forward_inference(net.arch, pv, np.zeros((1, 4)))[0]
            e = np.exp(logits - np.max(logits))
            return e[0] / np.sum(e)

        before = prob_of_action0(net.params)
        after = prob_of_action0(net.params + 0.01 * g)
        assert after > before

    def test_grad_matches_fd_on_frozen_batch(self):
        net = make_policy(CARTPOLE, Stream(18))
        batch = rl.sample_batch(CARTPOLE, net, 2, Stream(19))
        obj = rl.policy_objective(batch, 0.99)
        g = ad.grad(obj, net.params)
        g_fd = ad.fd_grad(obj, net.params, epsilon=1e-5)
        assert ad.rel_err(g, g_fd) <= 1e-4

    def test_bit_invariant_to_trajectory_order(self):
        net = make_policy(CARTPOLE, Stream(20))
        batch = rl.sample_batch(CARTPOLE, net, 5, Stream(21))
        shuffled = TrajectoryBatch(tuple(reversed(batch.trajectories)), batch.task)
        obj_a = rl.policy_objective(batch, 0.99)
        obj_b = rl.policy_objective(shuffled, 0.99)
        ga, va = ad.grad_and_value(obj_a, net.params)
        gb, vb = ad.grad_and_value(obj_b, net.params)
        assert np.float64(va).tobytes() == np.float64(vb).tobytes()
        assert ga.values.tobytes() == gb.values.tobytes()

    def test_score_function_identity_zero_mean(self):
        # With constant advantage and no standardization (the critic form
        # under a zero critic), the expected gradient is zero. Check a random
        # projection over 30 batch gradients of 100 policy-sampled labels
        # each, within 3 standard errors.
        net = make_policy(CARTPOLE, Stream(22))
        u = Stream(23).generator().normal(size=net.params.size)
        u /= np.linalg.norm(u)
        proj = []
        for b in range(30):
            variates = pol.draw_variates(net.arch, Stream(24).child(b).generator(), 100)
            actions, _ = pol.act_batch(net, np.zeros((100, 4)), variates)
            batch = bandit_batch(actions, np.ones(100))
            g = ad.grad(rl.policy_objective(batch, 0.99, zero_critic()), net.params)
            proj.append(float(g.values @ u))
        proj = np.array(proj)
        sem = np.std(proj, ddof=1) / np.sqrt(len(proj))
        assert abs(np.mean(proj)) <= 3.0 * sem


def per_call_pg_objective(batch: TrajectoryBatch, gamma: float):
    """Reference critic-free surrogate that redoes all frozen-batch work on
    every call: pooling, standardization and the actor architecture."""

    def obj(p: Params) -> ad.Node:
        arch = pol.actor_arch(make_env(batch.task))
        states, targets, returns = rl._pooled(batch, gamma)
        std = float(np.std(returns))
        if std < rl.ADV_STD_FLOOR:
            adv = returns
        else:
            adv = (returns - np.mean(returns)) / (std + rl.ADV_STD_EPS)
        lp = pol.logprob_graph(arch, p, states, targets)
        return ad.nsum(lp * ad.const(adv)) * (1.0 / batch.k)

    return obj


def objective_bytes(obj, theta: ad.ParamVector, v: ad.ParamVector):
    """Value, gradient and HVP bytes; `value` must agree with grad's value."""
    g, val = ad.grad_and_value(obj, theta)
    assert ad.value(obj, theta) == val
    return np.float64(val).tobytes(), g.values.tobytes(), ad.hvp(obj, theta, v).values.tobytes()


class TestHoistedObjective:
    """policy_objective(batch, gamma) does the frozen-batch work once;
    its value, gradient and HVP must keep the per-call recipe's bits."""

    GAMMA = 0.99

    @pytest.fixture(scope="class")
    def net(self):
        return make_policy(CARTPOLE, Stream(40))

    @pytest.fixture(scope="class")
    def direction(self, net):
        return net.params.with_values(Stream(41).generator().standard_normal(net.params.size))

    def assert_matches_recipe(self, batch, gamma, net, direction):
        hoisted = rl.policy_objective(batch, gamma)
        first = objective_bytes(hoisted, net.params, direction)
        assert first == objective_bytes(per_call_pg_objective(batch, gamma), net.params, direction)
        # The closure keeps no state: a second round gives the same bits.
        assert objective_bytes(hoisted, net.params, direction) == first
        return first

    def test_sampled_batch(self, net, direction):
        batch = rl.sample_batch(CARTPOLE, net, 3, Stream(42))
        _, grad, _ = self.assert_matches_recipe(batch, self.GAMMA, net, direction)
        assert np.frombuffer(grad, dtype=np.float64).any()

    def test_constant_return_batch(self, net, direction):
        # Reward only on the last step and gamma = 1: every G_t equals 3.0, so
        # the returns have no spread and stay unstandardized.
        sampled = rl.sample_batch(CARTPOLE, net, 3, Stream(43))
        trajs = []
        for t in sampled.trajectories:
            rewards = np.zeros(t.length)
            rewards[-1] = 3.0
            trajs.append(Trajectory(t.states, t.actions, rewards, t.raws))
        batch = TrajectoryBatch(tuple(trajs), sampled.task)
        returns = rl._pooled(batch, 1.0)[2]
        assert float(np.std(returns)) < rl.ADV_STD_FLOOR and np.all(returns == 3.0)
        _, grad, _ = self.assert_matches_recipe(batch, 1.0, net, direction)
        assert np.frombuffer(grad, dtype=np.float64).any()

    def test_reversed_batch(self, net, direction):
        batch = rl.sample_batch(CARTPOLE, net, 4, Stream(44))
        reversed_batch = TrajectoryBatch(batch.trajectories[::-1], batch.task)
        assert self.assert_matches_recipe(reversed_batch, self.GAMMA, net, direction) == (
            objective_bytes(rl.policy_objective(batch, self.GAMMA), net.params, direction)
        )


class TestActorCriticObjective:
    def test_perfect_critic_zeroes_policy_gradient(self):
        batch = bandit_batch([0, 1, 1, 0], [5.0, 5.0, 5.0, 5.0])
        net = make_policy(CARTPOLE, Stream(25))
        c_arch = pol.critic_arch(CARTPOLE)
        critic_pv = zero_params(c_arch, b2=(5.0,))  # V == G == 5 everywhere
        pol_obj = rl.policy_objective(batch, 0.99, critic_pv)
        g, val = ad.grad_and_value(pol_obj, net.params)
        assert val == 0.0
        assert np.array_equal(g.values, np.zeros(g.size))

    def test_zero_critic_reduces_to_unstandardized_reinforce(self):
        net = make_policy(CARTPOLE, Stream(26))
        batch = rl.sample_batch(CARTPOLE, net, 3, Stream(27))
        ac_obj = rl.policy_objective(batch, 0.99, zero_critic())
        g_ac, v_ac = ad.grad_and_value(ac_obj, net.params)
        g_pg, v_pg = ad.grad_and_value(raw_return_objective(batch, 0.99), net.params)
        assert np.float64(v_ac).tobytes() == np.float64(v_pg).tobytes()
        assert g_ac.values.tobytes() == g_pg.values.tobytes()

    def test_critic_grad_matches_fd(self):
        net = make_policy(CARTPOLE, Stream(28))
        critic = pol.init_params(pol.critic_arch(CARTPOLE), Stream(29))
        batch = rl.sample_batch(CARTPOLE, net, 2, Stream(30))
        critic_obj = rl.critic_objective(batch, 0.99)
        g = ad.grad(critic_obj, critic)
        g_fd = ad.fd_grad(critic_obj, critic, epsilon=1e-5)
        assert ad.rel_err(g, g_fd) <= 1e-4


def episode_returns(env, policy, n: int, rng: Stream) -> np.ndarray:
    """Undiscounted return of each of n episodes, totalled as evaluation
    totals them."""
    return np.array([t.total_return for t in rl.sample_batch(env, policy, n, rng).trajectories])


class TestEvalReturn:
    def test_balancer_reaches_max(self):
        totals = episode_returns(CARTPOLE, balancer_policy(CARTPOLE), 8, Stream(31))
        np.testing.assert_array_equal(totals, np.full(8, 200.0))

    def test_deterministic(self):
        net = make_policy(CARTPOLE, Stream(32))
        a = episode_returns(CARTPOLE, net, 16, Stream(33))
        b = episode_returns(CARTPOLE, net, 16, Stream(33))
        assert a.tobytes() == b.tobytes()

    def test_standard_error_small_at_1000_episodes(self):
        noisy = balancer_policy(CARTPOLE, sharpness=2e5)
        totals = episode_returns(CARTPOLE, noisy, 1000, Stream(36))
        mean = float(np.mean(totals))
        sem = float(np.std(totals, ddof=1) / np.sqrt(len(totals)))
        assert sem < 0.02 * mean

    def test_needs_positive_episodes(self):
        cfg = meta.MetaConfig(m_tasks=1, k_trajs=1, horizon=5)
        theta = meta.init_state(cfg).theta
        with pytest.raises(ValueError):
            meta.evaluate_policy(theta, None, cfg.alpha, cfg, Stream(38), 0)
