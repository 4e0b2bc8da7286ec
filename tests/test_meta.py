"""Meta-algorithm tests.

Oracle strategy: on quadratic objectives J_i(x) = -1/2 x^T A_i x + b_i^T x
the one-inner-step bilevel meta-gradient has the closed form
sum_i (I - alpha*A_i) @ grad J_i(x_i'), checked here both symbolically and
against a finite difference of the full adapt-then-evaluate map. Algorithm
identities (first-order variant drops exactly the curvature term, learned
step-size vector initialized to a constant replicates the scalar update
bitwise, plain averaging variant matches a hand-unrolled loop) are asserted
at machine precision. Rollout-backed runs then only assert structure: call
counts, stream determinism, divergence wrapping, checkpoint resume.
"""

from collections import namedtuple
from dataclasses import fields, replace

import numpy as np
import pytest

from _helpers import add, count_calls, nsum_axis, until_converged
from metarl import autodiff as ad
from metarl import cli, meta, rl
from metarl.autodiff import ParamVector, Segment
from metarl.envs import Family, medium_task
from metarl.errors import EmptyTaskSet, EpochDiverged, NonFiniteValue, ValidationError
from metarl.harness import build_run_config
from metarl.policy import load_checkpoint, save_checkpoint
from metarl.rng import Stream
from metarl.runlog import load_runlog

QuadTask = namedtuple("QuadTask", ["A", "b"])


def theta_vec(values) -> ParamVector:
    arr = np.asarray(values, dtype=np.float64)
    return ParamVector(arr, [Segment("theta", 0, arr.shape)])


class QuadraticProblem:
    """Deterministic task objectives J(x) = -1/2 x^T A x + b^T x; rng unused."""

    def _objective(self, task: QuadTask):
        A = np.asarray(task.A, dtype=np.float64)
        b = np.asarray(task.b, dtype=np.float64)

        def obj(p):
            x = p.seg("theta")
            ax = nsum_axis(ad.const(A) * ad.reshape(x, (1, A.shape[0])), 1)
            return add(ad.const(-0.5) * ad.nsum(x * ax), ad.nsum(ad.const(b) * x))

        return obj

    def task_objective(self, task, theta, rng):
        return self._objective(task)


def quad_grad(task: QuadTask, x: np.ndarray) -> np.ndarray:
    return -(np.asarray(task.A) @ x) + np.asarray(task.b)


def quad_cfg(**overrides) -> meta.MetaConfig:
    base = dict(
        algorithm=meta.Algorithm.MAML,
        learner=meta.Learner.PG,
        env=Family.CARTPOLE,
        phi_lo=5.0,
        phi_hi=15.0,
        alpha=0.1,
        beta=0.05,
        delta=0.0,
        gamma=0.99,
        m_tasks=2,
        k_trajs=2,
        horizon=10,
        epochs=1,
        seed=0,
    )
    base.update(overrides)
    return meta.MetaConfig(**base)


def rl_cfg(**overrides) -> meta.MetaConfig:
    base = dict(
        algorithm=meta.Algorithm.MAML,
        learner=meta.Learner.PG,
        env=Family.CARTPOLE,
        phi_lo=5.0,
        phi_hi=15.0,
        alpha=0.001,
        beta=0.01,
        delta=0.0,
        gamma=0.99,
        m_tasks=2,
        k_trajs=2,
        horizon=20,
        epochs=2,
        seed=11,
    )
    base.update(overrides)
    return meta.MetaConfig(**base)


TASKS = [
    QuadTask(np.array([[2.0, 1.0], [1.0, 3.0]]), np.array([0.3, -0.7])),
    QuadTask(np.array([[1.0, 0.0], [0.0, 4.0]]), np.array([-1.1, 0.4])),
    QuadTask(np.array([[2.5, -0.5], [-0.5, 1.5]]), np.array([0.0, 0.9])),
]
THETA0 = theta_vec([0.8, -0.6])
S = Stream(123)


def maml_closed_form(theta: ParamVector, tasks, alpha: float) -> np.ndarray:
    n = theta.size
    total = np.zeros(n)
    for t in tasks:
        adapted = theta.values + alpha * quad_grad(t, theta.values)
        g_out = quad_grad(t, adapted)
        total += (np.eye(n) - alpha * np.asarray(t.A)) @ g_out
    return total


# ---------------------------------------------------------------------------
# Oracles first: the quadratic problem itself must be trustworthy
# ---------------------------------------------------------------------------

class TestQuadraticOracle:
    def test_gradient_matches_closed_form_and_fd(self):
        prob = QuadraticProblem()
        obj = prob.task_objective(TASKS[0], THETA0, S)
        g = ad.grad(obj, THETA0)
        np.testing.assert_allclose(g.values, quad_grad(TASKS[0], THETA0.values), atol=1e-12)
        fd = ad.fd_grad(obj, THETA0)
        np.testing.assert_allclose(g.values, fd.values, atol=1e-7)

    def test_hvp_is_negated_matrix_product(self):
        prob = QuadraticProblem()
        obj = prob.task_objective(TASKS[0], THETA0, S)
        v = theta_vec([0.4, -1.2])
        hv = ad.hvp(obj, THETA0, v)
        np.testing.assert_allclose(hv.values, -(np.asarray(TASKS[0].A) @ v.values), atol=1e-12)

    def test_bilevel_map_fd_matches_closed_form(self):
        # d/dtheta sum_i J_i(theta + alpha*grad J_i(theta)), central differences
        alpha = 0.1
        prob = QuadraticProblem()

        def bilevel(x: np.ndarray) -> float:
            total = 0.0
            for t in TASKS:
                adapted = theta_vec(x + alpha * quad_grad(t, x))
                total += ad.value(prob.task_objective(t, adapted, S), adapted)
            return total

        eps = 1e-5
        fd = np.zeros(THETA0.size)
        for i in range(THETA0.size):
            hi = THETA0.values.copy()
            hi[i] += eps
            lo = THETA0.values.copy()
            lo[i] -= eps
            fd[i] = (bilevel(hi) - bilevel(lo)) / (2 * eps)
        np.testing.assert_allclose(fd, maml_closed_form(THETA0, TASKS, alpha), atol=1e-6)


# ---------------------------------------------------------------------------
# Inner adaptation
# ---------------------------------------------------------------------------

class TestInnerAdapt:
    def test_scalar_step_closed_form(self):
        prob = QuadraticProblem()
        obj = prob.task_objective(TASKS[1], THETA0, S)
        out, g = meta.inner_adapt(THETA0, obj, 0.1)
        np.testing.assert_allclose(
            out.values, THETA0.values + 0.1 * quad_grad(TASKS[1], THETA0.values), atol=1e-12
        )
        np.testing.assert_array_equal(g.values, ad.grad(obj, THETA0).values)

    def test_vector_step_is_elementwise(self):
        prob = QuadraticProblem()
        obj = prob.task_objective(TASKS[1], THETA0, S)
        avec = theta_vec([0.2, 0.01])
        out, g_step = meta.inner_adapt(THETA0, obj, avec)
        g = quad_grad(TASKS[1], THETA0.values)
        np.testing.assert_allclose(out.values, THETA0.values + avec.values * g, atol=1e-12)
        np.testing.assert_allclose(g_step.values, g, atol=1e-12)

    def test_raw_batch_matches_explicit_objective(self):
        # A sampled batch reaches inner_adapt through RLProblem.objective.
        cfg = rl_cfg()
        theta = meta.init_state(cfg).theta
        prob = meta.RLProblem(cfg)
        batch = prob.sample(medium_task(cfg.dist), theta, S.child(9), cfg.k_trajs)
        out, _ = meta.inner_adapt(theta, prob.objective(batch), cfg.alpha)
        g = ad.grad(rl.policy_objective(batch, cfg.gamma), theta)
        np.testing.assert_array_equal(out.values, (theta + cfg.alpha * g).values)


# ---------------------------------------------------------------------------
# Exact bilevel meta-gradient and its first-order variant
# ---------------------------------------------------------------------------

class TestMetaGradients:
    def test_matches_closed_form(self):
        cfg = quad_cfg(alpha=0.1)
        mg, rate_grad = meta.meta_gradient(THETA0, TASKS, cfg.alpha, S, QuadraticProblem())
        np.testing.assert_allclose(mg.values, maml_closed_form(THETA0, TASKS, 0.1), atol=1e-10)
        assert rate_grad is None  # a scalar step size has no rate gradient

    def test_first_order_variant_drops_exactly_the_curvature_term(self):
        cfg = quad_cfg(alpha=0.1)
        prob = QuadraticProblem()
        full, _ = meta.meta_gradient(THETA0, TASKS, cfg.alpha, S, prob)
        first, _ = meta.meta_gradient(THETA0, TASKS, cfg.alpha, S, prob, second_order=False)
        correction = np.zeros(THETA0.size)
        for t in TASKS:
            inner = prob.task_objective(t, THETA0, S)
            adapted = THETA0 + cfg.alpha * ad.grad(inner, THETA0)
            g_out = ad.grad(prob.task_objective(t, adapted, S), adapted)
            correction += ad.hvp(inner, THETA0, cfg.alpha * g_out).values
        np.testing.assert_allclose(full.values - first.values, correction, atol=1e-10)

    def test_variants_agree_bitwise_when_curvature_vanishes(self):
        linear = [QuadTask(np.zeros((2, 2)), np.array([0.5, 1.5]))]
        cfg = quad_cfg()
        full, _ = meta.meta_gradient(THETA0, linear, cfg.alpha, S, QuadraticProblem())
        first, _ = meta.meta_gradient(
            THETA0, linear, cfg.alpha, S, QuadraticProblem(), second_order=False
        )
        np.testing.assert_array_equal(full.values, first.values)

    def test_call_counts(self):
        cfg = quad_cfg()
        prob = QuadraticProblem()
        with count_calls() as c:
            meta.meta_gradient(THETA0, TASKS, cfg.alpha, S, prob)
        assert c.hvp_calls == len(TASKS)
        assert c.grad_calls == 2 * len(TASKS)
        with count_calls() as c:
            meta.meta_gradient(THETA0, TASKS, cfg.alpha, S, prob, second_order=False)
        assert c.hvp_calls == 0
        assert c.grad_calls == 2 * len(TASKS)

    def test_empty_task_set_raises(self):
        cfg = quad_cfg()
        prob = QuadraticProblem()
        for second_order in (True, False):
            with pytest.raises(EmptyTaskSet):
                meta.meta_gradient(THETA0, [], cfg.alpha, S, prob, second_order=second_order)
        with pytest.raises(EmptyTaskSet):
            meta.reptile_step(THETA0, [], cfg, S, prob)
        with pytest.raises(EmptyTaskSet):
            meta.meta_gradient(THETA0, [], theta_vec([0.1, 0.1]), S, prob)


# ---------------------------------------------------------------------------
# Averaging variant
# ---------------------------------------------------------------------------

class TestReptile:
    def test_matches_hand_unrolled_loop(self):
        cfg = quad_cfg(alpha=0.05, beta=0.3)
        prob = QuadraticProblem()
        out = meta.reptile_step(THETA0, TASKS, cfg, S, prob)

        delta_sum = np.zeros(THETA0.size)
        for t in TASKS:
            cur = THETA0
            for _ in range(3):
                cur = cur + cfg.alpha * ad.grad(prob.task_objective(t, cur, S), cur)
            delta_sum = delta_sum + (cur.values - THETA0.values)
        expected = THETA0.values + cfg.beta * (delta_sum / len(TASKS))
        np.testing.assert_array_equal(out.values, expected)

    def test_makes_no_curvature_calls(self):
        cfg = quad_cfg()
        with count_calls() as c:
            meta.reptile_step(THETA0, TASKS, cfg, S, QuadraticProblem())
        assert c.hvp_calls == 0
        assert c.grad_calls == 3 * len(TASKS)


# ---------------------------------------------------------------------------
# Learned per-parameter inner rates
# ---------------------------------------------------------------------------

def constant_rates(cfg, theta=THETA0) -> ParamVector:
    return theta.with_values(np.full(theta.size, cfg.alpha))


class TestMetaSGD:
    def test_constant_rate_vector_replicates_scalar_update_bitwise(self):
        cfg = quad_cfg(alpha=0.1, beta=0.05)
        prob = QuadraticProblem()
        mg_rates, _ = meta.meta_gradient(THETA0, TASKS, constant_rates(cfg), S, prob)
        mg, _ = meta.meta_gradient(THETA0, TASKS, cfg.alpha, S, prob)
        theta = THETA0 + cfg.beta * mg_rates
        np.testing.assert_array_equal(theta.values, (THETA0 + cfg.beta * mg).values)

    def test_constant_rate_vector_replicates_scalar_update_on_rollouts(self):
        cfg = rl_cfg(algorithm=meta.Algorithm.METASGD)
        state = meta.init_state(cfg)
        tasks = [medium_task(cfg.dist)] * 2
        mg_rates, _ = meta.meta_gradient(
            state.theta, tasks, state.alpha_vec, S.child(3), meta.RLProblem(cfg)
        )
        mg, _ = meta.meta_gradient(state.theta, tasks, cfg.alpha, S.child(3), meta.RLProblem(cfg))
        theta = state.theta + cfg.beta * mg_rates
        np.testing.assert_array_equal(theta.values, (state.theta + cfg.beta * mg).values)

    def test_rate_gradient_matches_fd_of_adapted_objective(self):
        # d/da_j of sum_i J_i(theta + a (.) g_i) equals the g_in*g_out update
        prob = QuadraticProblem()
        avec = theta_vec([0.1, 0.1])
        _, rate_grad = meta.meta_gradient(THETA0, TASKS, avec, S, prob)
        update = rate_grad.values

        def adapted_value(a: np.ndarray) -> float:
            total = 0.0
            for t in TASKS:
                adapted = theta_vec(THETA0.values + a * quad_grad(t, THETA0.values))
                total += ad.value(prob.task_objective(t, adapted, S), adapted)
            return total

        eps = 1e-6
        fd = np.zeros(avec.size)
        for j in range(avec.size):
            hi = avec.values.copy()
            hi[j] += eps
            lo = avec.values.copy()
            lo[j] -= eps
            fd[j] = (adapted_value(hi) - adapted_value(lo)) / (2 * eps)
        np.testing.assert_allclose(update, fd, atol=1e-6)

    def test_rate_vector_is_clamped_positive(self, monkeypatch):
        # A strongly negative rate gradient would step every rate below zero.
        def meta_gradient(theta, tasks, alpha, rng, problem, second_order=True):
            assert isinstance(alpha, ParamVector) and second_order
            zeros = theta.with_values(np.zeros(theta.size))
            return zeros, theta.with_values(np.full(theta.size, -1e3))

        monkeypatch.setattr(meta, "meta_gradient", meta_gradient)
        cfg = rl_cfg(algorithm=meta.Algorithm.METASGD)
        state, _ = meta.train_epoch(meta.init_state(cfg), cfg, evaluate=False)
        stepped = state.alpha_vec
        np.testing.assert_array_equal(stepped.values, [meta.ALPHA_VEC_FLOOR] * stepped.size)
        assert np.all(stepped.values > 0)


# ---------------------------------------------------------------------------
# Directed prestep
# ---------------------------------------------------------------------------

class _FixedQuadratic(QuadraticProblem):
    """Quadratic objective independent of the task identity, so it can stand
    in for rollout objectives when the caller passes environment tasks."""

    def __init__(self, task: QuadTask):
        self.task = task

    def _objective(self, task):
        return super()._objective(self.task)


def prestep_epoch(cfg, monkeypatch):
    """Train one epoch of a directed config; return the tasks it asked its
    problem for, in order, and the epoch's metrics."""
    tasks, make = [], meta.RLProblem

    def spy(cfg, critic=None):
        problem = make(cfg, critic)
        ask = problem.task_objective

        def task_objective(task, theta, rng):
            tasks.append(task)
            return ask(task, theta, rng)

        problem.task_objective = task_objective
        return problem

    monkeypatch.setattr(meta, "RLProblem", spy)
    _, metrics = meta.train_epoch(meta.init_state(cfg), cfg, evaluate=False)
    return tasks, metrics


def prestep(cfg, theta, rng):
    """The prestep as train_epoch takes it: inner_adapt with step delta on
    the medium task's objective."""
    obj = meta.RLProblem(cfg).task_objective(medium_task(cfg.dist), theta, rng)
    return meta.inner_adapt(theta, obj, cfg.delta)


class TestDirectedPrestep:
    """The step train_epoch takes first for directed algorithms
    (test_zero_prestep_matches_base_algorithm_bitwise and the cost-structure
    tests run it through train_epoch)."""

    def test_closed_form_step_toward_medium_task(self, monkeypatch):
        cfg = quad_cfg(algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.03, beta=0.05)
        prob = _FixedQuadratic(TASKS[0])
        obj = prob.task_objective(medium_task(cfg.dist), THETA0, S)
        out, g_step = meta.inner_adapt(THETA0, obj, cfg.delta)
        g = ad.grad(obj, THETA0)
        np.testing.assert_array_equal(out.values, THETA0.values + cfg.delta * g.values)
        assert g_step.norm() == g.norm()
        # train_epoch asks for the medium task first and logs that step's
        # gradient norm.
        directed = rl_cfg(algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.001)
        tasks, metrics = prestep_epoch(directed, monkeypatch)
        assert tasks[:1] == [medium_task(directed.dist)]
        theta = meta.init_state(directed).theta
        _, g_med = prestep(directed, theta, Stream(directed.seed).child(2, 0, 0))
        assert metrics.prestep_grad_norm == g_med.norm()

    def test_uses_medium_task_of_the_given_distribution(self, monkeypatch):
        cfg = rl_cfg(
            algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.001, phi_lo=8.0, phi_hi=12.0
        )
        tasks, _ = prestep_epoch(cfg, monkeypatch)
        assert tasks[0].phi == pytest.approx(10.0)

    def test_zero_step_is_identity_bitwise(self):
        cfg = rl_cfg(algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.0)
        theta = meta.init_state(cfg).theta
        out, _ = prestep(cfg, theta, S.child(4))
        np.testing.assert_array_equal(out.values, theta.values)

    def test_cost_is_one_gradient_and_k_rollouts(self):
        cfg = rl_cfg(algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.001, k_trajs=3)
        theta = meta.init_state(cfg).theta
        with count_calls() as c:
            prestep(cfg, theta, S.child(4))
        assert c.grad_calls == 1
        assert c.hvp_calls == 0
        assert c.rollouts == cfg.k_trajs


# ---------------------------------------------------------------------------
# Config and state validation
# ---------------------------------------------------------------------------

class TestValidation:
    @pytest.mark.parametrize(
        "overrides,field",
        [
            (dict(alpha=0.0), "alpha"),
            (dict(alpha=-1.0), "alpha"),
            (dict(beta=0.0), "beta"),
            (dict(delta=-0.1), "delta"),
            (dict(gamma=0.0), "gamma"),
            (dict(gamma=1.5), "gamma"),
            (dict(m_tasks=0), "m_tasks"),
            (dict(k_trajs=0), "k_trajs"),
            (dict(horizon=0), "horizon"),
            (dict(epochs=0), "epochs"),
            (dict(seed=-1), "seed"),
            (dict(phi_lo=15.0, phi_hi=5.0), "phi_lo"),
            (dict(algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.05, beta=0.05), "delta"),
            (dict(algorithm=meta.Algorithm.DIRECTED_FOMAML, delta=0.1, beta=0.05), "delta"),
            (dict(m_tasks=meta.MAX_TASKS + 1), "m_tasks"),
            (dict(k_trajs=meta.MAX_TRAJECTORIES + 1), "k_trajs"),
            (dict(horizon=meta.MAX_HORIZON + 1), "horizon"),
            (dict(k_trajs=meta.MAX_ROLLOUT_ROWS // 200 + 1, horizon=200), "k_trajs x horizon"),
        ],
    )
    def test_config_errors_name_the_field(self, overrides, field):
        with pytest.raises(ValidationError, match=field):
            quad_cfg(**overrides)

    def test_memory_bounds_admit_their_limits(self):
        # The horizon bound admits the 500-step episodes of CartPole-v1.
        assert meta.MAX_HORIZON >= 500
        most, rows = meta.MAX_TRAJECTORIES, meta.MAX_ROLLOUT_ROWS
        # Every per-key maximum, at a horizon where the batch fits the row bound.
        short = quad_cfg(m_tasks=meta.MAX_TASKS, k_trajs=most, horizon=rows // most)
        assert meta.RunConfig(meta=short, eval_episodes=most).eval_episodes == most
        with pytest.raises(ValidationError, match=f"eval_episodes: must lie in 1..{most}, got {most + 1}"):
            meta.RunConfig(meta=short, eval_episodes=most + 1)
        # At the longest horizon, batches up to the row bound and not one
        # trajectory more.
        k = rows // meta.MAX_HORIZON
        long = quad_cfg(m_tasks=meta.MAX_TASKS, k_trajs=k, horizon=meta.MAX_HORIZON)
        assert meta.RunConfig(meta=long, eval_episodes=k).eval_episodes == k
        over = (k + 1) * meta.MAX_HORIZON
        with pytest.raises(ValidationError, match=f"eval_episodes x horizon: must lie in 1..{rows}, got {over}"):
            meta.RunConfig(meta=long, eval_episodes=k + 1)
        with pytest.raises(ValidationError, match=f"k_trajs x horizon: must lie in 1..{rows}, got {over}"):
            quad_cfg(k_trajs=k + 1, horizon=meta.MAX_HORIZON)

    def test_directed_allows_delta_below_beta(self):
        cfg = quad_cfg(algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.049, beta=0.05)
        assert cfg.algorithm.directed

    def test_run_config_errors(self):
        cfg = quad_cfg()
        with pytest.raises(ValidationError, match="eval_every"):
            meta.RunConfig(meta=cfg, eval_every=0)
        with pytest.raises(ValidationError, match="eval_episodes"):
            meta.RunConfig(meta=cfg, eval_episodes=0)
        with pytest.raises(ValidationError, match="conv_window"):
            meta.RunConfig(meta=cfg, conv_window=0)
        with pytest.raises(ValidationError, match="conv_tau"):
            meta.RunConfig(meta=cfg, conv_tau=float("nan"))
        with pytest.raises(ValidationError, match="label"):
            meta.RunConfig(meta=cfg, label="")

    def test_state_rejects_nonpositive_or_mismatched_rates(self):
        with pytest.raises(ValueError):
            meta.MetaState(THETA0, None, theta_vec([0.1, -0.1]), 0)
        bad_layout = ParamVector(np.zeros(2), [Segment("other", 0, (2,))])
        with pytest.raises(ValueError):
            meta.MetaState(THETA0, None, bad_layout, 0)

    def test_state_leaves_the_seed_to_the_config(self):
        # Epochs derive their streams from cfg.seed; the state holds no copy.
        assert [f.name for f in fields(meta.MetaState)] == ["theta", "critic", "alpha_vec", "epoch"]

    def test_algorithm_parse(self):
        def algorithm(name):
            return build_run_config({"algorithm": name}).meta.algorithm

        assert algorithm("directed_maml") is meta.Algorithm.DIRECTED_MAML
        assert algorithm("MAML") is meta.Algorithm.MAML
        with pytest.raises(ValidationError, match="algorithm"):
            algorithm("sgd")
        assert meta.Algorithm.DIRECTED_FOMAML.base is meta.Algorithm.FOMAML
        assert meta.Algorithm.DIRECTED_FOMAML.directed
        assert not meta.Algorithm.FOMAML.directed
        assert meta.Algorithm.FOMAML.base is meta.Algorithm.FOMAML

    def test_learner_parse(self):
        def learner(name):
            return build_run_config({"learner": name}).meta.learner

        assert learner("pg") is meta.Learner.PG
        assert learner("AC") is meta.Learner.AC
        with pytest.raises(ValidationError, match="learner"):
            learner("q")


# ---------------------------------------------------------------------------
# State initialization and fingerprints
# ---------------------------------------------------------------------------

class TestInitAndFingerprint:
    def test_init_state_shapes_by_learner_and_algorithm(self):
        pg = meta.init_state(rl_cfg())
        assert pg.critic is None and pg.alpha_vec is None and pg.epoch == 0
        ac = meta.init_state(rl_cfg(learner=meta.Learner.AC))
        assert ac.critic is not None
        msgd = meta.init_state(rl_cfg(algorithm=meta.Algorithm.DIRECTED_METASGD, delta=0.001))
        assert msgd.alpha_vec is not None
        np.testing.assert_array_equal(msgd.alpha_vec.values, np.full(msgd.theta.size, 0.001))

    def test_init_state_is_deterministic(self):
        a = meta.init_state(rl_cfg(learner=meta.Learner.AC))
        b = meta.init_state(rl_cfg(learner=meta.Learner.AC))
        np.testing.assert_array_equal(a.theta.values, b.theta.values)
        np.testing.assert_array_equal(a.critic.values, b.critic.values)

    def test_canonical_text_covers_every_key_once(self):
        rc = meta.RunConfig(meta=rl_cfg(), label="x")
        text = meta.canonical_text(rc)
        lines = text.strip().split("\n")
        assert len(lines) == len(meta.CONFIG_KEYS)
        assert [ln.split("=")[0] for ln in lines] == list(meta.CONFIG_KEYS)

    def test_fingerprint_stable_and_sensitive(self):
        rc = meta.RunConfig(meta=rl_cfg(), label="x")
        fp = meta.fingerprint(rc)
        assert fp == meta.fingerprint(meta.RunConfig(meta=rl_cfg(), label="x"))
        assert len(fp) == 16 and int(fp, 16) >= 0
        other = meta.RunConfig(meta=rl_cfg(seed=12), label="x")
        assert meta.fingerprint(other) != fp


# ---------------------------------------------------------------------------
# Epoch loop over rollouts
# ---------------------------------------------------------------------------

class _ExplodingProblem:
    def __init__(self, cfg, critic=None):
        self.cfg = cfg
        self.critic = critic

    def task_objective(self, task, theta, rng):
        raise NonFiniteValue("synthetic non-finite objective")


class TestTrainEpoch:
    def test_evaluation_rolls_out_at_the_config_horizon(self, monkeypatch):
        cfg = rl_cfg(env=Family.INTERSECTION, horizon=7)
        horizons = []
        sample_batch = rl.sample_batch

        def recording(env, policy, k, rng, horizon):
            horizons.append(horizon)
            return sample_batch(env, policy, k, rng, horizon)

        monkeypatch.setattr(rl, "sample_batch", recording)
        meta.evaluate_policy(meta.init_state(cfg), cfg, S.child(5), 3)
        # Per task, the adaptation batch and the evaluation episodes.
        assert horizons == [7] * (2 * cfg.m_tasks)

    def test_rerun_is_bit_identical(self):
        cfg = rl_cfg(algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.001)
        outs = []
        for _ in range(2):
            state, metrics = meta.train_epoch(meta.init_state(cfg), cfg, eval_episodes=2)
            outs.append((state.theta.values, metrics))
        np.testing.assert_array_equal(outs[0][0], outs[1][0])
        a, b = outs[0][1], outs[1][1]
        assert a.eval_return == b.eval_return
        assert a.grad_norm_outer == b.grad_norm_outer
        assert a.prestep_grad_norm == b.prestep_grad_norm

    def test_zero_prestep_matches_base_algorithm_bitwise(self):
        base_cfg = rl_cfg(algorithm=meta.Algorithm.MAML)
        dir_cfg = rl_cfg(algorithm=meta.Algorithm.DIRECTED_MAML, delta=0.0)
        sb, sd = meta.init_state(base_cfg), meta.init_state(dir_cfg)
        for _ in range(2):
            sb, mb = meta.train_epoch(sb, base_cfg, eval_episodes=2)
            sd, md = meta.train_epoch(sd, dir_cfg, eval_episodes=2)
            assert mb.eval_return == md.eval_return
            assert mb.grad_norm_outer == md.grad_norm_outer
            assert mb.prestep_grad_norm is None and md.prestep_grad_norm is not None
        np.testing.assert_array_equal(sb.theta.values, sd.theta.values)

    @pytest.mark.parametrize(
        "algorithm,delta,hvps,extra_grads,extra_rollouts",
        [
            (meta.Algorithm.MAML, 0.0, 3, 0, 0),
            (meta.Algorithm.FOMAML, 0.0, 0, 0, 0),
            (meta.Algorithm.DIRECTED_MAML, 0.001, 3, 1, 2),
            (meta.Algorithm.DIRECTED_FOMAML, 0.001, 0, 1, 2),
        ],
    )
    def test_cost_structure(self, algorithm, delta, hvps, extra_grads, extra_rollouts):
        cfg = rl_cfg(algorithm=algorithm, delta=delta, m_tasks=3, k_trajs=2)
        state = meta.init_state(cfg)
        with count_calls() as c:
            meta.train_epoch(state, cfg, evaluate=False)
        assert c.hvp_calls == hvps
        assert c.grad_calls == 2 * cfg.m_tasks + extra_grads
        assert c.rollouts == 2 * cfg.m_tasks * cfg.k_trajs + extra_rollouts

    @pytest.mark.parametrize(
        "algorithm,delta,evaluate,counts",
        [
            (meta.Algorithm.MAML, 0.0, False, (12, 3, 12)),
            (meta.Algorithm.MAML, 0.0, True, (15, 3, 24)),
            (meta.Algorithm.DIRECTED_MAML, 0.001, False, (14, 3, 14)),
            (meta.Algorithm.DIRECTED_MAML, 0.001, True, (17, 3, 26)),
        ],
    )
    def test_actor_critic_cost_structure(self, algorithm, delta, evaluate, counts):
        # (grad, hvp, rollouts) at M=3, K=2, 2 eval episodes. Every training
        # batch adds one critic gradient, 2 * (2M + prestep) gradients in all;
        # evaluation adapts the actor and fits no critic.
        cfg = rl_cfg(algorithm=algorithm, learner=meta.Learner.AC, delta=delta, m_tasks=3, k_trajs=2)
        state = meta.init_state(cfg)
        with count_calls() as c:
            meta.train_epoch(state, cfg, eval_episodes=2, evaluate=evaluate)
        assert (c.grad_calls, c.hvp_calls, c.rollouts) == counts

    def test_directed_metasgd_cost_matches_plain_metasgd_plus_prestep(self):
        plain = rl_cfg(algorithm=meta.Algorithm.METASGD, m_tasks=2)
        directed = rl_cfg(algorithm=meta.Algorithm.DIRECTED_METASGD, delta=0.001, m_tasks=2)
        with count_calls() as base_counts:
            meta.train_epoch(meta.init_state(plain), plain, evaluate=False)
        with count_calls() as c:
            meta.train_epoch(meta.init_state(directed), directed, evaluate=False)
        assert c.hvp_calls == base_counts.hvp_calls == plain.m_tasks
        assert c.grad_calls == base_counts.grad_calls + 1
        assert c.rollouts == base_counts.rollouts + directed.k_trajs

    def test_eval_never_mutates_critic(self):
        cfg = rl_cfg(learner=meta.Learner.AC)
        with_eval, _ = meta.train_epoch(meta.init_state(cfg), cfg, eval_episodes=2, evaluate=True)
        without, _ = meta.train_epoch(meta.init_state(cfg), cfg, evaluate=False)
        np.testing.assert_array_equal(with_eval.critic.values, without.critic.values)
        np.testing.assert_array_equal(with_eval.theta.values, without.theta.values)

    def test_divergence_is_wrapped_with_epoch(self, monkeypatch):
        monkeypatch.setattr(meta, "RLProblem", _ExplodingProblem)
        cfg = rl_cfg()
        state = meta.MetaState(theta=THETA0, critic=None, alpha_vec=None, epoch=7)
        with pytest.raises(EpochDiverged) as err:
            meta.train_epoch(state, cfg)
        assert err.value.epoch == 7


# ---------------------------------------------------------------------------
# Full runs: logs, checkpoints, resume
# ---------------------------------------------------------------------------

class TestTrain:
    def _run_cfg(self, tmp_path, label, **overrides):
        return meta.RunConfig(
            meta=rl_cfg(**overrides),
            eval_every=1,
            eval_episodes=2,
            conv_tau=5.0,
            conv_window=1,
            out_dir=str(tmp_path / label),
            label=label,
        )

    def test_writes_log_checkpoint_and_detects_convergence(self, tmp_path):
        rc = self._run_cfg(tmp_path, "short")
        log = meta.train(rc)
        assert len(log.rows) == rc.meta.epochs
        assert [r.epoch for r in log.rows] == list(range(rc.meta.epochs))
        assert log.fingerprint == meta.fingerprint(rc)
        assert log.convergence_epoch == 0  # trivially low threshold
        loaded = load_runlog(tmp_path / "short" / "short.runlog")
        assert loaded.fingerprint == log.fingerprint
        assert len(loaded.rows) == len(log.rows)
        assert loaded.rows[0].eval_return == log.rows[0].eval_return
        vectors, ckpt_meta = load_checkpoint(tmp_path / "short" / "short.ckpt")
        assert ckpt_meta["epoch"] == rc.meta.epochs
        assert vectors["policy"].size > 0

    def test_a_run_stopped_at_convergence_records_the_full_runs_prefix(self, tmp_path):
        # The acceptance cache's path: record_run over the loop, left right
        # after the epoch whose rows first satisfy the convergence rule.
        full_rc, stop_rc = (
            replace(self._run_cfg(tmp_path, label, epochs=8), conv_tau=16.5, conv_window=2)
            for label in ("full", "stop")
        )
        full = meta.train(full_rc)
        epochs = meta.iter_epochs(stop_rc, meta.init_state(stop_rc.meta))
        stopped = meta.record_run(stop_rc, until_converged(stop_rc, epochs))
        assert full.convergence_epoch == 3  # smoothed 15.5, 15.95, 16.33, 16.7, 17.03, ...
        assert stopped.convergence_epoch == full.convergence_epoch
        n = full.convergence_epoch + stop_rc.conv_window  # every epoch is evaluated
        assert len(stopped.rows) == n < len(full.rows)
        full_lines, stop_lines = (
            (tmp_path / label / f"{label}.runlog").read_text().splitlines() for label in ("full", "stop")
        )
        assert stop_lines[1:-1] == full_lines[1 : 1 + n]
        assert load_runlog(tmp_path / "stop" / "stop.runlog").convergence_epoch == 3

    @pytest.mark.parametrize(
        "learner, algorithm",
        [pytest.param(meta.Learner(lr), meta.Algorithm(alg), id=f"{lr}-{alg}")
         for lr in ("pg", "ac") for alg in ("maml", "metasgd")],
    )
    def test_resume_replays_the_uninterrupted_tail(self, tmp_path, learner, algorithm):
        # Each state shape: the policy alone, or with a critic, a step-size
        # vector, or both. The resumed tail writes the uninterrupted run's
        # epoch records and its final checkpoint, byte for byte.
        shape = dict(learner=learner, algorithm=algorithm)
        meta.train(self._run_cfg(tmp_path, "full", epochs=4, **shape))
        meta.train(self._run_cfg(tmp_path, "head", epochs=2, **shape))
        tail_rc = self._run_cfg(tmp_path, "tail", epochs=4, **shape)
        tail_log = meta.train(tail_rc, resume_from=tmp_path / "head" / "head.ckpt")

        assert [r.epoch for r in tail_log.rows] == [2, 3]
        full_lines, tail_lines = (
            (tmp_path / label / f"{label}.runlog").read_text().splitlines() for label in ("full", "tail")
        )
        assert tail_lines[1:-1] == full_lines[3:5]
        full_ckpt, tail_ckpt = (tmp_path / label / f"{label}.ckpt" for label in ("full", "tail"))
        assert tail_ckpt.read_bytes() == full_ckpt.read_bytes()
        held = {"critic"} if learner is meta.Learner.AC else set()
        held |= {"alpha_vec"} if algorithm is meta.Algorithm.METASGD else set()
        assert set(load_checkpoint(tail_ckpt)[0]) == {"policy", *held}

    def test_policy_gradient_resume_drops_the_checkpoints_critic(self, tmp_path):
        # A policy-gradient run resumed from an actor-critic checkpoint
        # neither trains nor saves the checkpoint's critic: its run log is
        # the one a policy-only checkpoint gives, and its checkpoint holds
        # the policy alone.
        meta.train(self._run_cfg(tmp_path, "ac", epochs=2, learner=meta.Learner.AC))
        ac_ckpt = tmp_path / "ac" / "ac.ckpt"
        vectors, ckpt_meta = load_checkpoint(ac_ckpt)
        assert set(vectors) == {"policy", "critic"}
        policy_only = tmp_path / "policy_only.ckpt"
        save_checkpoint(policy_only, {"policy": vectors["policy"]}, ckpt_meta)

        rc = self._run_cfg(tmp_path, "pg", epochs=3)
        assert meta.load_state(ac_ckpt, rc.meta).critic is None
        out = tmp_path / "pg"
        meta.train(rc, resume_from=policy_only)
        want = (out / "pg.runlog").read_bytes()
        meta.train(rc, resume_from=ac_ckpt)
        assert (out / "pg.runlog").read_bytes() == want
        written, _ = load_checkpoint(out / "pg.ckpt")
        assert set(written) == {"policy"}

    def test_resume_outside_the_metasgd_family_drops_the_checkpoints_rates(self, tmp_path, capsys):
        # A maml run resumed from a Meta-SGD checkpoint neither trains,
        # evaluates with, nor saves the checkpoint's rate vector: its run log
        # and its eval are the ones a policy-only checkpoint gives, and its
        # checkpoint holds the policy alone.
        meta.train(self._run_cfg(tmp_path, "msgd", epochs=2, algorithm=meta.Algorithm.DIRECTED_METASGD))
        vectors, ckpt_meta = load_checkpoint(tmp_path / "msgd" / "msgd.ckpt")
        assert set(vectors) == {"policy", "alpha_vec"}
        # Rates far from alpha, so adapting with them shows in the returns.
        rates = tmp_path / "rates.ckpt"
        save_checkpoint(rates, {**vectors, "alpha_vec": 100.0 * vectors["alpha_vec"]}, ckpt_meta)
        policy_only = tmp_path / "policy_only.ckpt"
        save_checkpoint(policy_only, {"policy": vectors["policy"]}, ckpt_meta)

        rc = self._run_cfg(tmp_path, "maml", epochs=3)
        assert meta.load_state(rates, rc.meta).alpha_vec is None
        out = tmp_path / "maml"
        meta.train(rc, resume_from=policy_only)
        want = (out / "maml.runlog").read_bytes()
        meta.train(rc, resume_from=rates)
        assert (out / "maml.runlog").read_bytes() == want
        written, _ = load_checkpoint(out / "maml.ckpt")
        assert set(written) == {"policy"}

        cfg = rc.meta
        flags = ["--algorithm", "maml", "--seed", str(cfg.seed), "--horizon", str(cfg.horizon),
                 "--m_tasks", str(cfg.m_tasks), "--k_trajs", str(cfg.k_trajs), "--eval_episodes", "4"]
        printed = []
        for ckpt in (rates, policy_only):
            capsys.readouterr()
            assert cli.main(["eval", "--ckpt", str(ckpt), *flags]) == 0
            printed.append(capsys.readouterr().out)
        assert printed[0] == printed[1]

    def test_early_exit_from_the_epoch_loop_keeps_trains_rows(self, tmp_path):
        # train iterates iter_epochs; a caller may leave the loop early.
        rc = self._run_cfg(tmp_path, "loop", epochs=3)
        log = meta.train(rc)
        seen = []
        for state, metrics in meta.iter_epochs(rc, meta.init_state(rc.meta)):
            seen.append(metrics)
            if metrics.epoch == 1:
                break
        assert state.epoch == 2 and [m.epoch for m in seen] == [0, 1]
        for got, want in zip(seen, log.rows):
            assert got.eval_return == want.eval_return
            assert got.grad_norm_outer == want.grad_norm_outer

    def test_resume_rejects_wrong_seed(self, tmp_path):
        rc = self._run_cfg(tmp_path, "seeded")
        meta.train(rc)
        with pytest.raises(ValidationError, match="seed"):
            meta.load_state(tmp_path / "seeded" / "seeded.ckpt", rl_cfg(seed=99))

    def test_divergence_writes_partial_log(self, tmp_path, monkeypatch):
        monkeypatch.setattr(meta, "RLProblem", _ExplodingProblem)
        rc = self._run_cfg(tmp_path, "boom")
        log = meta.train(rc)
        assert log.rows == ()
        assert log.diverged is not None and "epoch 0" in log.diverged
        loaded = load_runlog(tmp_path / "boom" / "boom.runlog")
        assert loaded.diverged == log.diverged

    def test_eval_every_skips_intermediate_epochs(self, tmp_path):
        rc = meta.RunConfig(
            meta=rl_cfg(epochs=3),
            eval_every=3,
            eval_episodes=2,
            conv_tau=5.0,
            conv_window=1,
            out_dir=str(tmp_path / "sparse"),
            label="sparse",
        )
        log = meta.train(rc)
        evals = [r.eval_return for r in log.rows]
        assert evals[0] is not None  # epoch 0 always measured
        assert evals[1] is None
        assert evals[2] is not None  # final epoch always measured


# ---------------------------------------------------------------------------
# Why the prestep helps: its direction agrees with the meta-gradient when the
# task distribution collapses to its mean
# ---------------------------------------------------------------------------

class TestPrestepAlignment:
    def test_prestep_direction_correlates_with_meta_gradient(self):
        cfg = rl_cfg(
            phi_lo=9.99, phi_hi=10.01, alpha=0.01, m_tasks=1, k_trajs=6, horizon=40
        )
        dots = []
        for rep in range(16):
            root = Stream(1000 + rep)
            prob = meta.RLProblem(cfg)
            theta = meta.init_state(rl_cfg(seed=1000 + rep)).theta
            med = medium_task(cfg.dist)
            g_med = ad.grad(prob.task_objective(med, theta, root.child(0)), theta)
            mg, _ = meta.meta_gradient(theta, [med], cfg.alpha, root.child(1), prob, second_order=False)
            dots.append(float(np.dot(g_med.values, mg.values)))
        dots = np.asarray(dots)
        sem = dots.std(ddof=1) / np.sqrt(len(dots))
        assert dots.mean() > 0
        assert dots.mean() - 2 * sem > 0
