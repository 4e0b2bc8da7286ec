"""Policy/critic checks: initialization statistics, sampling behavior and
its divergence guard, the batch-independent rows of forward_inference that
lockstep rollouts rely on, log-probability graphs against numpy densities
and finite differences, and the checkpoint container."""

from __future__ import annotations

import re
import struct
import warnings

import numpy as np
import pytest
from numpy._core import multiarray
from hypothesis import given, settings
from hypothesis import strategies as st

from metarl import autodiff as ad
from metarl import envs, rl
from metarl import policy as pol
from metarl.autodiff import ParamVector, Params, Segment
from metarl.envs import Box, Discrete, Family, Task, make_env
from metarl.errors import MetaRLError, NonFiniteValue, ParseError
from metarl.rng import Stream

from _helpers import (
    make_policy,
    reference_categorical_act,
    reference_forward,
    reference_gaussian_act,
    reference_running_sums,
    zero_params,
)

CARTPOLE = make_env(Task(Family.CARTPOLE, 10.0))
INTERSECTION = make_env(Task(Family.INTERSECTION, 10.0))


def make_critic(env, rng) -> "tuple[pol.Arch, ad.ParamVector]":
    arch = pol.critic_arch(env)
    return arch, pol.init_params(arch, rng)


def act_one(net: pol.PolicyNet, state, gen: np.random.Generator):
    """(action, raw) of one state: act_batch on a one-row batch, its one
    variate drawn from `gen`."""
    states = np.asarray(state, dtype=np.float64)[None, :]
    actions, raws = pol.act_batch(net, states, pol.draw_variates(net.arch, gen, 1))
    return actions[0], raws[0]


def logprob_one(net: pol.PolicyNet, state, action) -> np.float64:
    """log pi(action | state) from logprob_graph on one row."""
    states = np.asarray(state, dtype=np.float64)[None, :]
    lp = pol.logprob_graph(net.arch, Params(net.params), states, np.asarray([action]))
    return lp.val[0]


def value_one(arch: pol.Arch, params: ad.ParamVector, state) -> np.float64:
    """V(state) from values_graph on one row."""
    states = np.asarray(state, dtype=np.float64)[None, :]
    return pol.values_graph(arch, Params(params), states).val[0]


def numpy_logprob(net: pol.PolicyNet, states: np.ndarray, raws: np.ndarray) -> np.ndarray:
    """log pi(raw | state) per row from forward_inference: a log-softmax for
    a categorical head, a Gaussian log-density for a Gaussian head."""
    out = pol.forward_inference(net.arch, net.params, states)
    if isinstance(net.arch.head, Discrete):
        logits = out - out.max(axis=1, keepdims=True)
        log_softmax = logits - np.log(np.exp(logits).sum(axis=1, keepdims=True))
        return log_softmax[np.arange(len(raws)), raws]
    log_sigma = net.params.segment("log_sigma")[0]
    z = (raws - out[:, 0]) / np.exp(log_sigma)
    return -0.5 * z**2 - log_sigma - 0.5 * np.log(2.0 * np.pi)


class TestInit:
    def test_same_seed_bit_identical(self):
        arch = pol.actor_arch(CARTPOLE)
        a = pol.init_params(arch, Stream(9))
        b = pol.init_params(arch, Stream(9))
        assert a.values.tobytes() == b.values.tobytes()

    def test_biases_zero_and_log_sigma(self):
        arch = pol.actor_arch(INTERSECTION)
        pv = pol.init_params(arch, Stream(1))
        assert np.all(pv.segment("b0") == 0.0)
        assert np.all(pv.segment("b1") == 0.0)
        assert np.all(pv.segment("b2") == 0.0)
        assert pv.segment("log_sigma")[0] == pytest.approx(np.log(2.0))

    def test_weight_variance_tracks_fan_in(self):
        arch = pol.actor_arch(CARTPOLE)
        pv = pol.init_params(arch, Stream(2))
        w = pv.segment("W1")  # 64 x 64: enough samples for a stable variance
        ratio = np.var(w) * w.shape[0]
        assert 0.8 <= ratio <= 1.2

    def test_layout_matches_arch(self):
        arch = pol.actor_arch(CARTPOLE)
        assert [s.name for s in arch.segments()] == ["W0", "b0", "W1", "b1", "W2", "b2"]
        assert pol.actor_arch(INTERSECTION).segments()[-1].name == "log_sigma"
        assert pol.critic_arch(CARTPOLE).out_dim == 1


class TestAct:
    def test_dominant_logit_wins(self):
        arch = pol.actor_arch(CARTPOLE)
        net = pol.PolicyNet(arch, zero_params(arch, b2=(50.0, 0.0)))
        action, _ = act_one(net, np.zeros(4), Stream(3).generator())
        assert action == 0
        assert abs(logprob_one(net, np.zeros(4), action)) < 1e-12

    def test_small_sigma_concentrates_at_mean(self):
        arch = pol.actor_arch(INTERSECTION)
        net = pol.PolicyNet(arch, zero_params(arch, b2=(7.5,), log_sigma=(np.log(1e-8),)))
        action, _ = act_one(net, np.zeros(2), Stream(4).generator())
        assert action == pytest.approx(7.5, abs=1e-6)

    def test_gaussian_action_clipped_raw_kept(self):
        arch = pol.actor_arch(INTERSECTION)
        net = pol.PolicyNet(arch, zero_params(arch, b2=(14.0,), log_sigma=(np.log(30.0),)))
        gen = Stream(5).generator()
        saw_clip = False
        for _ in range(50):
            action, raw = act_one(net, np.zeros(2), gen)
            assert 0.0 <= action <= 15.0
            if raw != action:
                saw_clip = True
                assert raw < 0.0 or raw > 15.0
        assert saw_clip

    def test_sampling_frequencies_match_softmax(self):
        logits = np.array([0.3, -0.4])
        arch = pol.actor_arch(CARTPOLE)
        net = pol.PolicyNet(arch, zero_params(arch, b2=logits))
        n = 100_000
        variates = pol.draw_variates(arch, Stream(6).generator(), n)
        actions, _ = pol.act_batch(net, np.zeros((n, 4)), variates)
        want = np.exp(logits) / np.sum(np.exp(logits))
        freq = np.bincount(actions, minlength=2) / n
        assert np.all(np.abs(freq - want) < 0.01)

    def test_lockstep_batch_matches_serial_bits(self):
        net = make_policy(CARTPOLE, Stream(7).child(0))
        states = Stream(7).child(1).generator().uniform(-0.05, 0.05, size=(6, 4))
        variates = np.concatenate(
            [pol.draw_variates(net.arch, Stream(7).child(2, j).generator(), 1) for j in range(6)]
        )
        actions, raws = pol.act_batch(net, states, variates)
        for j in range(6):
            action, raw = act_one(net, states[j], Stream(7).child(2, j).generator())
            assert action == actions[j]
            assert raw == raws[j]

    def test_lockstep_gaussian_matches_serial_bits(self):
        net = make_policy(INTERSECTION, Stream(8).child(0))
        states = Stream(8).child(1).generator().uniform(-40, 0, size=(5, 2))
        variates = np.concatenate(
            [pol.draw_variates(net.arch, Stream(8).child(2, j).generator(), 1) for j in range(5)]
        )
        actions, raws = pol.act_batch(net, states, variates)
        for j in range(5):
            action, raw = act_one(net, states[j], Stream(8).child(2, j).generator())
            assert action.tobytes() == actions[j].tobytes()
            assert raw.tobytes() == raws[j].tobytes()

    @pytest.mark.parametrize(
        "head, overrides, states",
        [
            ("categorical", {}, np.full((3, 4), np.nan)),  # non-finite logits
            ("gaussian", {"log_sigma": (800.0,)}, np.zeros((3, 2))),  # sigma overflows
            ("gaussian", {"log_sigma": (-800.0,)}, np.zeros((3, 2))),  # sigma underflows
        ],
        ids=["nan-logits", "log-sigma-plus-800", "log-sigma-minus-800"],
    )
    def test_nonfinite_distribution_raises(self, head, overrides, states):
        env = CARTPOLE if head == "categorical" else INTERSECTION
        arch = pol.actor_arch(env)
        net = pol.PolicyNet(arch, zero_params(arch, **overrides))
        variates = pol.draw_variates(arch, Stream(9).generator(), len(states))
        with pytest.raises(NonFiniteValue):
            pol.act_batch(net, states, variates)


FORWARD_ARCHS = {
    "categorical": pol.actor_arch(CARTPOLE),
    "gaussian": pol.actor_arch(INTERSECTION),
    "critic": pol.critic_arch(CARTPOLE),
}


class TestForwardInference:
    """A row's head outputs do not depend on the other rows of the batch:
    the lockstep rollout relies on it as its episodes end. With OpenBLAS,
    np.matmul gives some of these 9 rows other bits alone, or in the subset,
    than in the full batch, so a forward pass through it fails here."""

    KEEP = np.array([0, 2, 3, 8])

    @staticmethod
    def batch(name):
        arch = FORWARD_ARCHS[name]
        params = pol.init_params(arch, Stream(31))
        states = Stream(32).generator().normal(size=(9, arch.input_dim))
        return arch, params, states, pol.forward_inference(arch, params, states)

    @pytest.mark.parametrize("name", sorted(FORWARD_ARCHS))
    def test_rows_match_batched_bitwise(self, name):
        arch, params, states, full = self.batch(name)
        for i in range(len(states)):
            row = pol.forward_inference(arch, params, states[i : i + 1])
            assert row.tobytes() == full[i : i + 1].tobytes()

    @pytest.mark.parametrize("name", sorted(FORWARD_ARCHS))
    def test_masked_subset_matches_bitwise(self, name):
        arch, params, states, full = self.batch(name)
        sub = pol.forward_inference(arch, params, states[self.KEEP])
        assert sub.tobytes() == full[self.KEEP].tobytes()

    # output widths 1 (critic, Gaussian head), 2, 3 and 64: the narrow ones
    # are where another einsum product path gives other bits
    WIDTHS = {
        "critic": pol.Arch(4, pol.HIDDEN, None),
        "gaussian": pol.Arch(2, pol.HIDDEN, Box(0.0, 15.0)),
        "categorical-2": pol.Arch(4, pol.HIDDEN, Discrete(2)),
        "categorical-3": pol.Arch(4, pol.HIDDEN, Discrete(3)),
        "categorical-64": pol.Arch(4, pol.HIDDEN, Discrete(64)),
    }

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(
        st.sampled_from(sorted(WIDTHS)),
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_matches_the_np_einsum_composition_bitwise(self, name, rows, seed):
        arch = self.WIDTHS[name]
        params = pol.init_params(arch, Stream(seed))
        states = Stream(seed).child(1).generator().normal(size=(rows, arch.input_dim))
        got = pol.forward_inference(arch, params, states)
        want = reference_forward(arch, params, states)
        assert got.shape == want.shape == (rows, arch.out_dim)
        assert got.tobytes() == want.tobytes()

    def test_binds_the_routine_np_einsum_forwards_to(self):
        assert pol._c_einsum is multiarray.c_einsum

    def test_binds_the_routine_np_count_nonzero_forwards_to(self):
        # np.count_nonzero without an axis returns this routine's count
        assert pol._count_nonzero is envs._count_nonzero is rl._count_nonzero is multiarray.count_nonzero


class TestOwnBuffers:
    """forward_inference and act_batch work in place only on arrays they
    made: the caller's states and variates keep their bytes, and the arrays
    of two calls share no memory."""

    @pytest.mark.parametrize("env", [CARTPOLE, INTERSECTION], ids=["categorical", "gaussian"])
    def test_inputs_kept_and_calls_share_no_memory(self, env):
        arch = pol.actor_arch(env)
        net = pol.PolicyNet(arch, pol.init_params(arch, Stream(51)))
        gen = Stream(52).generator()
        states = gen.normal(size=(6, arch.input_dim))
        variates = pol.draw_variates(arch, gen, 6)
        kept = (states.tobytes(), variates.tobytes(), net.params.values.tobytes())
        calls = [pol.act_batch(net, states, variates) for _ in range(2)]
        outs = [pol.forward_inference(arch, net.params, states) for _ in range(2)]
        assert (states.tobytes(), variates.tobytes(), net.params.values.tobytes()) == kept
        for a, b in zip(calls[0], calls[1]):
            assert a.tobytes() == b.tobytes()
            assert not np.shares_memory(a, b)
        assert outs[0].tobytes() == outs[1].tobytes()
        assert not np.shares_memory(outs[0], outs[1])
        for arr in (*calls[0], *outs):
            for given_in in (states, variates, net.params.values):
                assert not np.shares_memory(arr, given_in)


def categorical_cum(net: pol.PolicyNet, states: np.ndarray) -> np.ndarray:
    """The cumulative action probabilities act_batch compares its variates
    with, computed by the same operations."""
    out = pol.forward_inference(net.arch, net.params, states)
    shift = out - out.max(axis=1, keepdims=True)
    lse = np.log(np.exp(shift).sum(axis=1))
    return np.exp(shift - lse[:, None]).cumsum(axis=1)


def searchsorted_pick(cum: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Reference pick: per row, searchsorted(side="right") clamped to the
    last action."""
    n = cum.shape[1]
    return np.array([min(int(np.searchsorted(c, x, side="right")), n - 1) for c, x in zip(cum, u)])


def categorical_net(n: int, **overrides) -> pol.PolicyNet:
    arch = pol.Arch(4, pol.HIDDEN, Discrete(n))
    return pol.PolicyNet(arch, zero_params(arch, **overrides))


class TestCategoricalPick:
    @settings(deadline=None, max_examples=30)
    @given(st.integers(min_value=0, max_value=2**31 - 1), st.integers(min_value=2, max_value=6))
    def test_matches_searchsorted_on_and_around_boundaries(self, seed, n):
        arch = pol.Arch(4, pol.HIDDEN, Discrete(n))
        net = pol.PolicyNet(arch, pol.init_params(arch, Stream(seed)))
        gen = Stream(seed).child(1).generator()
        states = gen.uniform(-2.0, 2.0, size=(4, 4))
        edges = categorical_cum(net, states).ravel()
        # every cumulative entry exactly, its two float neighbours, the ends
        # of [0, 1), and some uniforms, each tried on every state
        candidates = np.concatenate(
            [edges, np.nextafter(edges, 0.0), np.nextafter(edges, 2.0),
             [0.0, np.nextafter(1.0, 0.0)], gen.random(8)]
        )
        candidates = candidates[candidates < 1.0]
        tiled = np.tile(states, (len(candidates), 1))
        u = np.repeat(candidates, len(states))
        actions, raws = pol.act_batch(net, tiled, u)
        want = searchsorted_pick(categorical_cum(net, tiled), u)
        assert actions.dtype == np.int64 and raws.dtype == np.int64
        assert np.array_equal(actions, want)
        assert np.array_equal(raws, want)

    def test_variate_on_a_boundary_takes_the_next_action(self):
        net = categorical_net(3, b2=(0.3, -0.4, 1.1))
        cum = categorical_cum(net, np.zeros((1, 4)))[0]
        u = np.array([cum[0], cum[1], np.nextafter(cum[0], 0.0)])
        actions, _ = pol.act_batch(net, np.zeros((3, 4)), u)
        assert list(actions) == [1, 2, 0]
        assert np.array_equal(actions, searchsorted_pick(np.tile(cum, (3, 1)), u))

    def test_last_cumulative_entry_below_one_clamps_to_last_action(self):
        net = categorical_net(3, b2=(1.0, 2.0, 3.0))
        cum = categorical_cum(net, np.zeros((1, 4)))[0]
        assert cum[-1] < 1.0  # the premise: the sum of the probabilities rounds low
        u = np.array([cum[-1], np.nextafter(1.0, 0.0)])
        assert np.searchsorted(cum, u[1], side="right") == 3
        actions, _ = pol.act_batch(net, np.zeros((2, 4)), u)
        assert list(actions) == [2, 2]
        lp = pol.logprob_graph(net.arch, Params(net.params), np.zeros((2, 4)), actions)
        assert np.all(np.isfinite(lp.val))

    def test_one_variate_per_row(self):
        net = categorical_net(2)
        for bad in (np.zeros(2), np.zeros(4), np.zeros((3, 1))):
            with pytest.raises(ValueError):
                pol.act_batch(net, np.zeros((3, 4)), bad)

    @settings(max_examples=25, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=2000),
        st.integers(min_value=2, max_value=7),
        st.sampled_from([0.0, 1.0, 50.0]),
    )
    def test_matches_the_full_width_composition_bitwise(self, seed, rows, n, spread):
        # every state is tried with a variate on each running sum, one ulp
        # below and above it, and one uniform; spread 0 makes every row's
        # logits equal, a large spread saturates the tanh layers
        arch = pol.Arch(4, pol.HIDDEN, Discrete(n))
        net = pol.PolicyNet(arch, pol.init_params(arch, Stream(seed)))
        gen = Stream(seed).child(1).generator()
        states = gen.normal(scale=spread, size=(rows, 4))
        cum, finite = reference_running_sums(pol.forward_inference(arch, net.params, states))
        assert finite
        u = np.concatenate(
            [cum, np.nextafter(cum, -np.inf), np.nextafter(cum, np.inf), gen.random((rows, 1))], axis=1
        )
        tiled = np.repeat(states, u.shape[1], axis=0)
        u = u.ravel()
        actions, raws = pol.act_batch(net, tiled, u)
        want = reference_categorical_act(pol.forward_inference(arch, net.params, tiled), u)
        assert actions.dtype == want.dtype == np.int64
        assert actions.tobytes() == want.tobytes()
        assert raws is actions

    @pytest.mark.parametrize("logit", [np.nan, np.inf, -np.inf], ids=["nan", "plus-inf", "minus-inf"])
    def test_nonfinite_logits_refused_as_before(self, logit):
        # the same exception and the same numpy warnings (an infinite logit
        # makes inf - inf in the shift) as the full-width composition; a
        # parameter vector is finite, so a nan logit comes from nan states
        # and an infinite one from saturated hidden units times +-1e308
        if np.isnan(logit):
            net, states = categorical_net(2), np.full((3, 4), np.nan)
        else:
            w2 = np.zeros((64, 2))
            w2[:, 0] = np.copysign(1e308, logit)
            net, states = categorical_net(2, b1=np.full(64, 30.0), W2=w2), np.zeros((3, 4))
        logits = pol.forward_inference(net.arch, net.params, states)
        assert np.array_equal(logits[:, 0], np.full(3, logit), equal_nan=True)
        u = np.array([0.1, 0.5, 0.9])
        got = act_outcome(lambda: pol.act_batch(net, states, u))
        want = act_outcome(lambda: reference_categorical_act(pol.forward_inference(net.arch, net.params, states), u))
        assert got[:2] == want[:2]
        assert got[0][0] is NonFiniteValue


def act_outcome(act):
    """(exception type and message or None, numpy warnings, result) of
    act(), with every warning recorded."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            result, raised = act(), None
        except MetaRLError as e:
            result, raised = None, (type(e), str(e))
    return raised, [(w.category, str(w.message)) for w in caught], result


class TestGaussianHead:
    """`act_batch`'s Gaussian head gives the bits, the exception and the
    numpy warnings of the composition it replaced, which took exp(log_sigma)
    for sigma and exp(-log_sigma) for the finiteness check and tested both
    by `.all()`. log_sigma runs over ordinary values and the edges where
    sigma or the inverse scale overflows."""

    LOG_SIGMAS = (
        pol.LOG_SIGMA_INIT, 0.0, -5.0, 5.0, 800.0, -800.0,
        pol._EXP_ARG_MAX, np.nextafter(pol._EXP_ARG_MAX, np.inf), np.nextafter(pol._EXP_ARG_MAX, -np.inf),
        -pol._EXP_ARG_MAX, np.nextafter(-pol._EXP_ARG_MAX, np.inf), np.nextafter(-pol._EXP_ARG_MAX, -np.inf),
    )

    def test_threshold_is_where_exp_overflows(self):
        edge = np.array([pol._EXP_ARG_MAX])
        with np.errstate(over="ignore"):
            assert np.isfinite(np.exp(edge)).all()
            assert not np.isfinite(np.exp(np.nextafter(edge, np.inf))).any()

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=1, max_value=2000),
        st.sampled_from(LOG_SIGMAS),
        st.sampled_from([0.0, 1.0, 50.0]),
    )
    def test_matches_the_two_exp_composition_bitwise(self, seed, rows, log_sigma, spread):
        # a spread of 50 saturates the tanh layers; some variates are
        # signed zeros or near the double range, so sigma * u overflows
        # and inf * 0 is nan where sigma overflows
        arch = pol.actor_arch(INTERSECTION)
        params = pol.init_params(arch, Stream(seed))
        net = pol.PolicyNet(arch, zero_params(arch, **{**params._segment_views(), "log_sigma": (log_sigma,)}))
        gen = Stream(seed).child(1).generator()
        states = gen.normal(scale=spread, size=(rows, 2))
        u = gen.standard_normal(rows)
        pick = gen.random(rows) < 0.2
        u[pick] = gen.choice([0.0, -0.0, 1e308, -1e308], size=int(pick.sum()))
        got = act_outcome(lambda: pol.act_batch(net, states, u))
        want = act_outcome(lambda: reference_gaussian_act(net, states, u))
        assert got[:2] == want[:2]
        if got[0] is None:
            for g, w in zip(got[2], want[2]):
                assert g.dtype == w.dtype == np.float64
                assert g.tobytes() == w.tobytes()


class TestLogprob:
    def test_uniform_categorical(self):
        arch = pol.actor_arch(CARTPOLE)
        net = pol.PolicyNet(arch, zero_params(arch))
        assert logprob_one(net, np.zeros(4), 1) == pytest.approx(np.log(0.5), abs=1e-15)

    def test_gaussian_at_mean_unit_sigma(self):
        arch = pol.actor_arch(INTERSECTION)
        net = pol.PolicyNet(arch, zero_params(arch, log_sigma=(0.0,)))
        want = -0.5 * np.log(2 * np.pi)
        assert logprob_one(net, np.zeros(2), 0.0) == pytest.approx(want, abs=1e-15)

    # logprob_graph on the raws act_batch samples, against numpy densities
    # of the forward_inference outputs (one row at a time, then a batch)
    def test_matches_act_bits_categorical(self):
        net = make_policy(CARTPOLE, Stream(11))
        gen = Stream(12).generator()
        for _ in range(10):
            state = gen.uniform(-0.05, 0.05, size=4)
            _, raw = act_one(net, state, gen)
            want = numpy_logprob(net, state[None, :], np.array([raw]))[0]
            assert logprob_one(net, state, raw) == pytest.approx(want, abs=1e-12)
        states = gen.uniform(-0.05, 0.05, size=(10, 4))
        _, raws = pol.act_batch(net, states, pol.draw_variates(net.arch, gen, 10))
        lp = pol.logprob_graph(net.arch, Params(net.params), states, raws)
        assert np.max(np.abs(lp.val - numpy_logprob(net, states, raws))) <= 1e-12

    def test_matches_act_bits_gaussian(self):
        net = make_policy(INTERSECTION, Stream(13))
        gen = Stream(14).generator()
        for _ in range(10):
            state = gen.uniform(-40, 0, size=2)
            _, raw = act_one(net, state, gen)
            want = numpy_logprob(net, state[None, :], np.array([raw]))[0]
            assert logprob_one(net, state, raw) == pytest.approx(want, abs=1e-12)
        states = gen.uniform(-40, 0, size=(10, 2))
        _, raws = pol.act_batch(net, states, pol.draw_variates(net.arch, gen, 10))
        lp = pol.logprob_graph(net.arch, Params(net.params), states, raws)
        assert np.max(np.abs(lp.val - numpy_logprob(net, states, raws))) <= 1e-12

    def test_logit_shift_invariance(self):
        arch = pol.actor_arch(CARTPOLE)
        base = pol.PolicyNet(arch, zero_params(arch, b2=(0.8, -0.2)))
        shifted = pol.PolicyNet(arch, zero_params(arch, b2=(0.8 + 3.3, -0.2 + 3.3)))
        s = np.array([0.01, 0.0, -0.02, 0.0])
        for a in (0, 1):
            d = abs(logprob_one(base, s, a) - logprob_one(shifted, s, a))
            assert d <= 1e-12

    def test_grad_matches_fd_categorical(self):
        net = make_policy(CARTPOLE, Stream(15))
        gen = Stream(16).generator()
        states = gen.uniform(-0.05, 0.05, size=(5, 4))
        actions = gen.integers(0, 2, size=5)

        def obj(p):
            return ad.nmean(pol.logprob_graph(net.arch, p, states, actions))

        g = ad.grad(obj, net.params)
        g_fd = ad.fd_grad(obj, net.params)
        assert ad.rel_err(g, g_fd) <= 1e-4

    def test_grad_matches_fd_gaussian(self):
        net = make_policy(INTERSECTION, Stream(17))
        gen = Stream(18).generator()
        states = gen.uniform(-40, 0, size=(5, 2))
        raws = gen.uniform(-2, 17, size=5)

        def obj(p):
            return ad.nmean(pol.logprob_graph(net.arch, p, states, raws))

        g = ad.grad(obj, net.params)
        g_fd = ad.fd_grad(obj, net.params)
        assert ad.rel_err(g, g_fd) <= 1e-4

    def test_gaussian_mean_gradient_zero_at_sample(self):
        net = make_policy(INTERSECTION, Stream(19))
        state = np.array([-10.0, -20.0])
        # the graph's own mean, so z is exactly zero
        mean = pol.values_graph(net.arch, Params(net.params), state[None, :]).val[0]

        def obj(p):
            return ad.nsum(pol.logprob_graph(net.arch, p, state[None, :], [mean]))

        g = ad.grad(obj, net.params)
        for seg in net.arch.segments():
            part = g.segment(seg.name)
            if seg.name == "log_sigma":
                assert part[0] == pytest.approx(-1.0, abs=1e-12)  # z^2 - 1 at z=0
            else:
                assert np.all(part == 0.0)


class TestValue:
    def test_a_critic_has_no_action_head(self):
        arch, params = make_critic(CARTPOLE, Stream(21))
        with pytest.raises(ValueError, match="critic networks have no action head"):
            pol.draw_variates(arch, Stream(22).generator(), 3)
        with pytest.raises(ValueError, match="critic networks have no action head"):
            pol.logprob_graph(arch, Params(params), np.zeros((3, 4)), np.zeros(3, dtype=np.int64))

    def test_zero_critic_outputs_zero(self):
        arch = pol.critic_arch(CARTPOLE)
        assert value_one(arch, zero_params(arch), np.array([0.1, -0.2, 0.03, 0.0])) == 0.0

    def test_deterministic(self):
        arch, params = make_critic(CARTPOLE, Stream(20))
        s = np.array([0.1, -0.2, 0.03, 0.0])
        assert value_one(arch, params, s).tobytes() == value_one(arch, params, s).tobytes()
        # the graph agrees with the einsum forward pass row by row
        states = Stream(20).child(1).generator().uniform(-0.1, 0.1, size=(5, 4))
        batch = pol.forward_inference(arch, params, states)[:, 0]
        for j in range(5):
            assert value_one(arch, params, states[j]) == pytest.approx(batch[j], abs=1e-12)

    def test_regresses_to_two_state_fixed_point(self):
        # Two-state loop: A ->(r=2) B ->(r=0) A, discount 0.9.
        # V(A) = 2 + 0.9 V(B), V(B) = 0.9 V(A) -> V(A) = 2/(1-0.81).
        gamma = 0.9
        v_a = 2.0 / (1.0 - gamma * gamma)
        v_b = gamma * v_a
        states = np.array([[0.0, 0.0], [1.0, 1.0]])
        targets = np.array([v_a, v_b])
        arch, params = make_critic(INTERSECTION, Stream(21))

        def mse(p):
            diff = pol.values_graph(arch, p, states) - ad.const(targets)
            return ad.nmean(diff * diff)

        for _ in range(6000):
            g, loss = ad.grad(mse, params), ad.value(mse, params)
            params = params - 0.01 * g
            if loss < 0.05**2 / 4:
                break
        preds = pol.forward_inference(arch, params, states)[:, 0]
        assert np.all(np.abs(preds - targets) < 0.05)


def rejected(path, message: str):
    """Expect load_checkpoint to raise a ParseError that names the file,
    then matches the regex `message`."""
    return pytest.raises(ParseError, match=re.escape(f"{path}: ") + message)


class TestCheckpoint:
    def test_roundtrip_bits_and_meta(self, tmp_path):
        net = make_policy(CARTPOLE, Stream(22))
        _, critic = make_critic(CARTPOLE, Stream(23))
        path = tmp_path / "state.ckpt"
        pol.save_checkpoint(path, {"policy": net.params, "critic": critic}, {"epoch": 42})
        vecs, meta = pol.load_checkpoint(path)
        assert meta == {"epoch": 42}
        assert vecs["policy"].values.tobytes() == net.params.values.tobytes()
        assert vecs["policy"].segments == net.params.segments
        assert vecs["critic"].values.tobytes() == critic.values.tobytes()

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_bytes(b"XXXX" + b"\x00" * 64)
        with rejected(path, "not a parameter checkpoint"):
            pol.load_checkpoint(path)

    def test_other_version_rejected(self, tmp_path):
        net = make_policy(CARTPOLE, Stream(24))
        path = tmp_path / "t.ckpt"
        pol.save_checkpoint(path, {"policy": net.params})
        data = path.read_bytes()
        path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
        with rejected(path, "unsupported checkpoint version 2"):
            pol.load_checkpoint(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        net = make_policy(CARTPOLE, Stream(24))
        path = tmp_path / "t.ckpt"
        pol.save_checkpoint(path, {"policy": net.params}, {"epoch": 1})
        path.write_bytes(path.read_bytes() + bytes(120))
        with rejected(path, "checkpoint has 120 bytes after its last vector"):
            pol.load_checkpoint(path)

    @pytest.mark.parametrize(
        "written, repeated",
        [("polica", "policy"), ("epocx", "epoch")],
        ids=["vector", "metadata key"],
    )
    def test_repeated_name_rejected(self, tmp_path, written, repeated):
        """A checkpoint naming one vector or metadata key twice is refused,
        not read as its last copy. The repeat is made by renaming a second
        entry of the same length in the written bytes."""
        net = make_policy(CARTPOLE, Stream(24))
        path = tmp_path / "t.ckpt"
        pol.save_checkpoint(path, {"policy": net.params, "polica": net.params}, {"epoch": 1, "epocx": 2})
        data = path.read_bytes()
        assert data.count(written.encode()) == 1
        path.write_bytes(data.replace(written.encode(), repeated.encode()))
        with rejected(path, f"checkpoint repeats .*'{repeated}'"):
            pol.load_checkpoint(path)

    def test_string_that_is_not_utf8_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        pol.save_checkpoint(path, {"policy": ParamVector(np.arange(3.0), [Segment("w", 0, (3,))])})
        name = struct.pack("<I", 1) + b"w"
        data = path.read_bytes()
        assert data.count(name) == 1
        path.write_bytes(data.replace(name, struct.pack("<I", 1) + b"\xff"))
        with rejected(path, "checkpoint string at byte .* is not UTF-8"):
            pol.load_checkpoint(path)

    def test_segment_table_that_does_not_cover_its_vector_rejected(self, tmp_path):
        path = tmp_path / "t.ckpt"
        pol.save_checkpoint(path, {"policy": ParamVector(np.arange(3.0), [Segment("w", 0, (3,))])})
        shape = struct.pack("<QIQ", 0, 1, 3)  # offset 0, one dimension, of 3
        data = path.read_bytes()
        assert data.count(shape) == 1
        path.write_bytes(data.replace(shape, struct.pack("<QIQ", 0, 1, 2)))
        with rejected(path, "checkpoint vector 'policy': segments cover 2 values, vector has 3"):
            pol.load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        net = make_policy(CARTPOLE, Stream(24))
        path = tmp_path / "t.ckpt"
        pol.save_checkpoint(path, {"policy": net.params})
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 100])
        with rejected(path, "checkpoint truncated"):
            pol.load_checkpoint(path)
