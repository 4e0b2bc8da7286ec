"""Gradient and Hessian-vector-product checks.

The finite-difference oracles (fd_grad, fd_hvp) are validated first on
closed-form cases; everything else is then measured against them. The exact
and finite-difference paths share no code beyond objective evaluation.
"""

from __future__ import annotations

import contextlib
import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import add, count_calls, gather_rows, log, nsum_axis, row_max_const, tanh, traced_peak_mib
from metarl import autodiff as ad
from metarl import rl
from metarl.envs import Discrete, Family, Task, make_env
from metarl.errors import NonFiniteValue
from metarl.policy import Arch, PolicyNet, actor_arch, critic_arch, init_params
from metarl.rng import Stream


def mlp_params(sizes: list[int], stream: Stream) -> ad.ParamVector:
    """Uniform(+-sqrt(3/fan_in)) weights, zero biases, flat layout."""
    gen = stream.generator()
    segs: list[ad.Segment] = []
    chunks: list[np.ndarray] = []
    off = 0
    for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
        w = gen.uniform(-np.sqrt(3.0 / a), np.sqrt(3.0 / a), size=(a, b))
        segs.append(ad.Segment(f"W{i}", off, (a, b)))
        off += a * b
        chunks.append(w.ravel())
        segs.append(ad.Segment(f"b{i}", off, (b,)))
        off += b
        chunks.append(np.zeros(b))
    return ad.ParamVector(np.concatenate(chunks), segs)


def params_of(arrays: "dict[str, np.ndarray]") -> ad.ParamVector:
    """One segment per named array, in the dict's order."""
    segs, off = [], 0
    for name, arr in arrays.items():
        segs.append(ad.Segment(name, off, arr.shape))
        off += arr.size
    return ad.ParamVector(np.concatenate([arr.ravel() for arr in arrays.values()]), segs)


def assert_same_bits(fused, composed, theta: ad.ParamVector, v: ad.ParamVector) -> None:
    """Two objectives agree byte for byte in value, gradient and
    Hessian-vector product."""
    assert ad.value(fused, theta).hex() == ad.value(composed, theta).hex()
    assert ad.grad(fused, theta).values.tobytes() == ad.grad(composed, theta).values.tobytes()
    assert ad.hvp(fused, theta, v).values.tobytes() == ad.hvp(composed, theta, v).values.tobytes()


def raw_bytes(*arrays) -> tuple:
    return tuple(None if a is None else (np.shape(a), np.asarray(a).tobytes()) for a in arrays)


def single_segment(values) -> ad.ParamVector:
    arr = np.asarray(values, dtype=np.float64)
    return ad.ParamVector(arr, [ad.Segment("w", 0, arr.shape)])


def fd_by_copies(obj, theta: ad.ParamVector) -> np.ndarray:
    """`fd_grad`'s central differences through two fresh copies of the
    vector per coordinate, each validated by `with_values`."""
    eps = ad.FD_GRAD_EPSILON
    out = np.zeros(theta.size)
    for i in range(theta.size):
        hi = theta.values.copy()
        hi[i] += eps
        lo = theta.values.copy()
        lo[i] -= eps
        out[i] = (ad.value(obj, theta.with_values(hi)) - ad.value(obj, theta.with_values(lo))) / (
            2.0 * eps
        )
    return out


DEEP_ARCH = Arch(4, (8, 8, 8), Discrete(3))


def deep_categorical(stream: Stream, rows: int = 12):
    """The library's policy surrogate (`rl._surrogate`) over a categorical
    policy with three hidden layers, on a drawn batch of `rows` rows, and
    the policy's parameters."""
    gen = stream.child(1).generator()
    states, actions, adv = gen.normal(size=(rows, 4)), gen.integers(0, 3, size=rows), gen.normal(size=rows)
    return rl._surrogate(DEEP_ARCH, states, actions, adv, 2), init_params(DEEP_ARCH, stream.child(0))


def quadratic_form(A: np.ndarray, x: ad.Node) -> ad.Node:
    """1/2 x^T A x for a vector leaf x, as broadcast products summed."""
    ax = nsum_axis(ad.const(A) * ad.reshape(x, (1, A.shape[0])), 1)
    return ad.nsum(x * ax) * 0.5


@pytest.fixture(scope="module")
def recorded_batch():
    gen = Stream(123).child(0).generator()
    states = gen.normal(size=(12, 2))
    actions = gen.integers(0, 2, size=12)
    adv = gen.normal(size=12)
    return states, actions, adv


@pytest.fixture(scope="module")
def surrogate(recorded_batch):
    """Score-function policy-gradient surrogate for a 2-16-2 softmax net:
    mean over the batch of log pi(a|s) * advantage."""
    states, actions, adv = recorded_batch

    def objective(p: ad.Params) -> ad.Node:
        h = tanh(ad.affine(ad.const(states), p.seg("W0"), p.seg("b0")))
        logits = ad.affine(h, p.seg("W1"), p.seg("b1"))
        shift = logits - row_max_const(logits)
        lse = log(nsum_axis(ad.exp(shift), 1))
        lp = gather_rows(shift, actions) - lse
        return ad.nmean(lp * ad.const(adv))

    return objective


@pytest.fixture(scope="module")
def net_theta():
    return mlp_params([2, 16, 2], Stream(123).child(1))


# ---------------------------------------------------------------------------
# Finite-difference oracles on closed forms (these validate the oracle itself)
# ---------------------------------------------------------------------------

class TestFdOracle:
    def test_square_scalar(self):
        theta = single_segment([1.0])
        obj = lambda p: ad.nsum(p.seg("w") * p.seg("w"))
        g = ad.fd_grad(obj, theta)
        assert abs(g.values[0] - 2.0) <= 1e-8

    def test_constant_function(self):
        theta = single_segment([0.3, -0.7, 2.0])
        obj = lambda p: ad.const(4.25)
        g = ad.fd_grad(obj, theta)
        assert np.all(np.abs(g.values) <= 1e-10)

    def test_fd_grad_matches_per_coordinate_copies(self):
        """The scratch-buffer fd_grad gives the bits of the recipe that
        copied the vector twice per coordinate, on the audit's objective."""
        env = make_env(Task(Family.CARTPOLE, 10.0))
        stream = Stream(3)
        theta = init_params(actor_arch(env), stream.child(0))
        batch = rl.sample_batch(env, PolicyNet(actor_arch(env), theta), 2, stream.child(1), 15)
        obj = rl.policy_objective(batch, 0.99)
        eps = ad.FD_GRAD_EPSILON
        expected = np.zeros(theta.size)
        for i in range(theta.size):
            hi = theta.values.copy()
            hi[i] += eps
            lo = theta.values.copy()
            lo[i] -= eps
            expected[i] = (
                ad.value(obj, theta.with_values(hi)) - ad.value(obj, theta.with_values(lo))
            ) / (2.0 * eps)
        assert ad.fd_grad(obj, theta).values.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("which", ["gaussian_surrogate", "critic", "deep_categorical"])
    def test_fd_grad_matches_per_coordinate_copies_off_the_audit(self, which):
        """The same bits on the Gaussian head's surrogate (log_sigma read
        twice, `reshape` and `exp`; while log_sigma moves, every layer is
        kept), on the critic's objective (a fresh states constant per call,
        so no layer is kept) and on a categorical policy with three hidden
        layers (kept layers reach three deep)."""
        stream = Stream(4)
        if which == "deep_categorical":
            obj, theta = deep_categorical(stream)
        else:
            family = Family.INTERSECTION if which == "gaussian_surrogate" else Family.CARTPOLE
            env = make_env(Task(family, 10.0))
            theta = init_params(actor_arch(env), stream.child(0))
            batch = rl.sample_batch(env, PolicyNet(actor_arch(env), theta), 2, stream.child(1), 12)
            if which == "critic":
                theta = init_params(critic_arch(env), stream.child(2))
                obj = rl.critic_objective(batch, 0.99)
            else:
                obj = rl.policy_objective(batch, 0.99)
        got = ad.fd_grad(obj, theta).values
        assert got.tobytes() == fd_by_copies(obj, theta).tobytes()

    @pytest.mark.parametrize(
        "which", ["segments_out_of_layer_order", "one_layer_two_inputs", "input_is_a_segment"]
    )
    def test_fd_grad_keeps_its_bits_where_a_kept_layer_would_be_stale(self, which):
        """Objectives on which a layer `fd_grad` keeps would give wrong
        values if the memo outlived the segment it was kept for, if it
        answered a request for the layer on another input, or if it kept a
        layer whose input is not a constant or a kept layer: the deep policy
        over a layout whose output layer comes first, the sum of its
        surrogate on two batches through the same layers, and a layer whose
        input is a segment leaf."""
        obj, theta = deep_categorical(Stream(5))
        if which == "segments_out_of_layer_order":
            theta = params_of({s.name: theta.segment(s.name) for s in reversed(theta.segments)})
        elif which == "one_layer_two_inputs":
            other, _ = deep_categorical(Stream(6))
            first = obj
            obj = lambda p: add(first(p), other(p))
        else:
            gen = Stream(5).generator()
            shapes = {"x": (3, 4), "w": (4, 2), "b": (2,)}
            theta = params_of({name: gen.normal(size=shape) for name, shape in shapes.items()})
            obj = lambda p: ad.nsum(p.layer(ad.tanh_affine, p.seg("x"), "w", "b"))
        assert ad.fd_grad(obj, theta).values.tobytes() == fd_by_copies(obj, theta).tobytes()

    def test_fd_grad_leaves_the_point_as_it_was(self):
        theta = single_segment([0.3, -0.7, 2.0])
        before = theta.values.tobytes()
        ad.fd_grad(lambda p: ad.nsum(ad.exp(p.seg("w"))), theta)
        assert theta.values.tobytes() == before
        assert not theta.values.flags.writeable
        with pytest.raises(ValueError):
            theta.values[0] = 1.0

    def test_fd_grad_objective_cannot_write_its_parameters(self):
        def obj(p):
            p.seg("w").val[0] = 5.0
            return ad.nsum(p.seg("w"))

        with pytest.raises(ValueError, match="read-only"):
            ad.fd_grad(obj, single_segment([1.0, 2.0]))

    def test_fd_hvp_on_quadratic(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        theta = single_segment([0.5, -1.0])
        obj = lambda p: quadratic_form(A, p.seg("w"))
        v = theta.with_values(np.array([1.0, 0.0]))
        hv = ad.fd_hvp(obj, theta, v)
        assert np.allclose(hv.values, [2.0, 1.0], atol=1e-7)


# ---------------------------------------------------------------------------
# ParamVector invariants
# ---------------------------------------------------------------------------

class TestParamVector:
    def test_rejects_nonfinite(self):
        with pytest.raises(NonFiniteValue):
            single_segment([1.0, np.nan])
        with pytest.raises(NonFiniteValue):
            single_segment([np.inf])

    def test_rejects_gaps_and_overlaps(self):
        with pytest.raises(ValueError):
            ad.ParamVector(np.zeros(4), [ad.Segment("a", 0, (2,)), ad.Segment("b", 3, (1,))])
        with pytest.raises(ValueError):
            ad.ParamVector(np.zeros(4), [ad.Segment("a", 0, (3,)), ad.Segment("b", 2, (2,))])

    def test_rejects_a_repeated_segment_name(self):
        # Otherwise `segment("a")` would silently give the second slice.
        with pytest.raises(ValueError, match="segment 'a' appears twice"):
            ad.ParamVector(np.arange(2.0), [ad.Segment("a", 0, (1,)), ad.Segment("a", 1, (1,))])

    def test_rejects_partial_cover(self):
        with pytest.raises(ValueError):
            ad.ParamVector(np.zeros(5), [ad.Segment("a", 0, (2, 2))])

    def test_values_immutable(self):
        pv = single_segment([1.0, 2.0])
        with pytest.raises(ValueError):
            pv.values[0] = 9.0
        with pytest.raises(AttributeError):
            pv.values = np.zeros(2)

    def test_attributes_cannot_be_deleted(self):
        pv = single_segment([1.0, 2.0])
        values = pv.values
        for name in ("values", "segments"):
            with pytest.raises(AttributeError, match="^ParamVector is immutable$"):
                delattr(pv, name)
        assert pv.values is values and pv.segment("w").tobytes() == values.tobytes()

    def test_combinable_requires_same_layout(self):
        a = single_segment([1.0, 2.0])
        b = ad.ParamVector(
            np.zeros(2), [ad.Segment("x", 0, (1,)), ad.Segment("y", 1, (1,))]
        )
        with pytest.raises(ValueError):
            _ = a + b
        with pytest.raises(ValueError):
            a.hadamard(b)

    def test_rejects_values_that_are_not_a_vector(self):
        with pytest.raises(ValueError, match="1-D"):
            ad.ParamVector(np.zeros((2, 2)), [ad.Segment("w", 0, (2, 2))])

    def test_with_values_checks_the_size(self):
        pv = single_segment([1.0, 2.0])
        with pytest.raises(ValueError, match="segments cover 2 values, vector has 3"):
            pv.with_values(np.zeros(3))

    def test_combines_only_with_a_vector(self):
        pv = single_segment([1.0, 2.0])
        for combine in (lambda: pv + np.ones(2), lambda: pv - 1.0, lambda: pv.hadamard([1.0, 1.0])):
            with pytest.raises(TypeError, match="expected a ParamVector"):
                combine()

    def test_arithmetic(self):
        a = single_segment([1.0, 2.0])
        b = single_segment([10.0, -4.0])
        assert np.array_equal((a + b).values, [11.0, -2.0])
        assert np.array_equal((a - b).values, [-9.0, 6.0])
        assert np.array_equal((2.0 * a).values, [2.0, 4.0])
        assert np.array_equal(a.hadamard(b).values, [10.0, -8.0])
        assert a.norm() == pytest.approx(np.sqrt(5.0))

    def test_segment_view(self):
        pv = ad.ParamVector(
            np.arange(6, dtype=float),
            [ad.Segment("W", 0, (2, 2)), ad.Segment("b", 4, (2,))],
        )
        assert np.array_equal(pv.segment("W"), [[0.0, 1.0], [2.0, 3.0]])
        assert np.array_equal(pv.segment("b"), [4.0, 5.0])
        with pytest.raises(KeyError):
            pv.segment("nope")


# ---------------------------------------------------------------------------
# grad
# ---------------------------------------------------------------------------

class TestGrad:
    def test_quadratic_identity(self):
        theta = single_segment([3.0, 4.0])
        obj = lambda p: ad.nsum(p.seg("w") * p.seg("w")) * 0.5
        g, val = ad.grad(obj, theta), ad.value(obj, theta)
        assert np.array_equal(g.values, [3.0, 4.0])
        assert val == pytest.approx(12.5)

    def test_constant_objective_zero_grad(self):
        theta = single_segment([0.1, 0.2, 0.3])
        g = ad.grad(lambda p: ad.const(7.0), theta)
        assert np.array_equal(g.values, np.zeros(3))

    def test_input_unmodified(self):
        theta = single_segment([3.0, 4.0])
        before = theta.values.copy()
        ad.grad(lambda p: ad.nsum(p.seg("w") * p.seg("w")), theta)
        assert np.array_equal(theta.values, before)

    def test_surrogate_matches_fd(self, surrogate, net_theta):
        g = ad.grad(surrogate, net_theta)
        g_fd = ad.fd_grad(surrogate, net_theta)
        assert ad.rel_err(g, g_fd) <= 1e-4

    def test_linearity_exact_composition(self, surrogate, net_theta):
        def other(p):  # the mean of tanh(x) * x over every parameter
            total = ad.const(0.0)
            for s in net_theta.segments:
                total = add(total, ad.nsum(tanh(p.seg(s.name)) * p.seg(s.name)))
            return total * (1.0 / net_theta.size)

        a, b = 1.7, -0.3
        combo = lambda p: add(surrogate(p) * a, other(p) * b)
        g_combo = ad.grad(combo, net_theta)
        g_lin = a * ad.grad(surrogate, net_theta) + b * ad.grad(other, net_theta)
        assert ad.rel_err(g_combo, g_lin) <= 1e-10

    def test_repeat_is_bit_identical(self, surrogate, net_theta):
        g1 = ad.grad(surrogate, net_theta)
        g2 = ad.grad(surrogate, net_theta)
        assert g1.values.tobytes() == g2.values.tobytes()

    def test_nonfinite_forward_raises(self):
        theta = single_segment([1.0])
        obj = lambda p: ad.nsum(p.seg("w") * ad.const(np.nan))
        with pytest.raises(NonFiniteValue):
            ad.grad(obj, theta)

    def test_nonfinite_gradient_of_a_finite_value_raises(self):
        """w * 1e308 - w * -1e308 is finite at w = 1e-300, but the two paths'
        adjoints, 1e308 each, sum to inf."""
        theta = single_segment([1e-300])
        obj = lambda p: ad.nsum(p.seg("w") * 1e308 - p.seg("w") * -1e308)
        assert ad.value(obj, theta) == 2e8
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue, match="gradient contains NaN/Inf"):
            ad.grad(obj, theta)

    def test_scalar_root_required(self):
        theta = single_segment([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.grad(lambda p: p.seg("w") * p.seg("w"), theta)

    def test_unread_segments_give_positive_zeros(self):
        """`Params` builds a leaf for every segment; the slices of segments
        the objective never reads stay +0.0 in `grad` and `hvp`, and a
        segment read twice is read through one leaf."""
        env = make_env(Task(Family.INTERSECTION, 10.0))
        theta = init_params(actor_arch(env), Stream(5))
        v = theta.with_values(Stream(6).generator().normal(size=theta.size))
        p = ad.Params(theta, v)
        assert p.seg("log_sigma") is p.seg("log_sigma")
        obj = lambda p: ad.nsum(ad.exp(p.seg("b0") * 0.5))
        for out in (ad.grad(obj, theta), ad.hvp(obj, theta, v)):
            for s in theta.segments:
                part = out.values[s.offset : s.offset + s.size]
                if s.name == "b0":
                    assert np.all(part != 0.0)
                else:
                    assert part.tobytes() == bytes(8 * s.size)

    def test_leaf_shares_the_read_only_values(self):
        """Each segment leaf takes the vectors' read-only values as they are:
        its value and tangent are the very views `ParamVector.segment`
        keeps, the ones rollouts read."""
        segments = [ad.Segment("a", 0, (2,)), ad.Segment("b", 2, (1,))]
        pv = ad.ParamVector(np.array([3.0, 4.0, 5.0]), segments)
        tangent = pv.with_values(np.array([0.5, -1.0, 2.0]))
        p = ad.Params(pv, tangent)
        leaves = []
        for name in ("a", "b"):
            assert p.seg(name).val is pv.segment(name)
            assert p.seg(name).dot is tangent.segment(name)
            leaves += [(p.seg(name).val, pv.values), (p.seg(name).dot, tangent.values)]
        assert p.seg("a") is p.seg("a")
        for arr, owner in leaves:
            assert np.shares_memory(arr, owner)
            with pytest.raises(ValueError):
                arr[0] = 5.0
        assert pv.values.tolist() == [3.0, 4.0, 5.0]
        assert tangent.values.tolist() == [0.5, -1.0, 2.0]

    def test_reshape_op(self):
        pv = single_segment([1.0, 2.0, 3.0, 4.0])
        c = np.array([[1.0, 10.0], [100.0, 1000.0]])
        obj = lambda p: ad.nsum(ad.reshape(p.seg("w"), (2, 2)) * ad.const(c))
        g = ad.grad(obj, pv)
        assert np.array_equal(g.values, c.ravel())

    def test_constants_get_no_adjoint(self):
        """Only nodes a parameter reaches take part in the backward pass: on
        a policy objective, the states are the one constant node (the
        row-max shift lives inside the categorical head's node, the
        advantages and 1/K inside the `weighted_sum` node), built once per
        objective and shared by its graphs; after `grad` and `hvp` no node
        but a parameter leaf holds an adjoint, and
        the segment leaves' adjoints, laid out by segment, are the gradient
        and the Hessian-vector product."""
        env = make_env(Task(Family.CARTPOLE, 9.0))
        theta = init_params(actor_arch(env), Stream(3).child(0))
        batch = rl.sample_batch(env, PolicyNet(actor_arch(env), theta), 2, Stream(3).child(1), 15)
        obj = rl.policy_objective(batch, 0.99)
        roots = []

        def recorded(p):
            roots.append(obj(p))
            return roots[-1]

        g = ad.grad(recorded, theta)
        hv = ad.hvp(recorded, theta, theta.with_values(np.ones(theta.size)))
        shared = []
        for root, want in ((roots[0], g.values), (roots[1], hv.values)):
            nodes, stack = {}, [root]
            while stack:
                n = stack.pop()
                if id(n) not in nodes:
                    nodes[id(n)] = n
                    stack.extend(n.parents)
            constants = [n for n in nodes.values() if not n.needs]
            leaves = [n for n in nodes.values() if n.needs and not n.parents]
            [states] = constants
            assert states.val.shape == (sum(t.length for t in batch.trajectories), env.state_dim)
            # Constants never get an adjoint; every other node's was freed.
            assert all(n.adj is None for n in nodes.values() if n not in leaves)
            # Each leaf is one segment's view; together they cover theta.
            segment_of = {id(theta.segment(s.name)): s for s in theta.segments}
            assert sorted(id(n.val) for n in leaves) == sorted(segment_of)
            got = np.zeros(theta.size)
            for n in leaves:
                seg = segment_of[id(n.val)]
                adj = n.adj.v if root is roots[0] else n.adj.d
                got[seg.offset : seg.offset + seg.size] = np.reshape(adj, -1)
            assert np.array_equal(got, want)
            shared.append({id(n) for n in constants})
        assert shared[0] == shared[1]

    def test_counts_gradient_calls(self, surrogate, net_theta):
        # A value is not a gradient: the counter keeps them apart.
        with count_calls() as c:
            ad.grad(surrogate, net_theta)
            ad.grad(surrogate, net_theta)
            ad.value(surrogate, net_theta)
        assert (c.grad_calls, c.hvp_calls, c.rollouts, c.value_calls) == (2, 0, 0, 1)


# ---------------------------------------------------------------------------
# hvp
# ---------------------------------------------------------------------------

class TestHvp:
    def test_quadratic_hv_is_av(self):
        A = np.array([[2.0, 1.0], [1.0, 3.0]])
        theta = single_segment([0.5, -1.0])
        obj = lambda p: quadratic_form(A, p.seg("w"))
        v = theta.with_values(np.array([1.0, 0.0]))
        hv = ad.hvp(obj, theta, v)
        assert np.allclose(hv.values, [2.0, 1.0], atol=1e-12)

    def test_linear_objective_zero_hessian(self):
        theta = single_segment([1.0, 2.0, 3.0])
        c = np.array([4.0, -1.0, 0.5])
        obj = lambda p: ad.nsum(p.seg("w") * ad.const(c))
        v = theta.with_values(np.array([1.0, 1.0, -2.0]))
        hv = ad.hvp(obj, theta, v)
        assert np.array_equal(hv.values, np.zeros(3))

    def test_nonfinite_product_of_a_finite_value_raises(self):
        """exp(w) at w = 1 is finite, but its Hessian-vector product along
        v = 1e308, e * 1e308, is not."""
        theta = single_segment([1.0])
        v = theta.with_values(np.array([1e308]))
        with np.errstate(over="ignore"), pytest.raises(NonFiniteValue, match="Hessian-vector product"):
            ad.hvp(lambda p: ad.nsum(ad.exp(p.seg("w"))), theta, v)

    def test_surrogate_matches_fd_hvp(self, surrogate, net_theta):
        gen = Stream(123).child(2).generator()
        v = net_theta.with_values(gen.normal(size=net_theta.size))
        hv = ad.hvp(surrogate, net_theta, v)
        hv_fd = ad.fd_hvp(surrogate, net_theta, v)
        assert ad.rel_err(hv, hv_fd) <= 1e-3

    def test_symmetry_of_inner_products(self, surrogate, net_theta):
        gen = Stream(123).child(3).generator()
        u = net_theta.with_values(gen.normal(size=net_theta.size))
        w = net_theta.with_values(gen.normal(size=net_theta.size))
        a = float(u.values @ ad.hvp(surrogate, net_theta, w).values)
        b = float(w.values @ ad.hvp(surrogate, net_theta, u).values)
        assert abs(a - b) <= 1e-8 * max(1.0, abs(a), abs(b))

    def test_layout_mismatch_rejected(self):
        theta = single_segment([1.0, 2.0])
        v = ad.ParamVector(np.ones(2), [ad.Segment("x", 0, (1,)), ad.Segment("y", 1, (1,))])
        obj = lambda p: ad.nsum(p.seg("w") * p.seg("w"))
        with pytest.raises(ValueError):
            ad.hvp(obj, theta, v)

    def test_repeat_is_bit_identical(self, surrogate, net_theta):
        gen = Stream(123).child(4).generator()
        v = net_theta.with_values(gen.normal(size=net_theta.size))
        h1 = ad.hvp(surrogate, net_theta, v)
        h2 = ad.hvp(surrogate, net_theta, v)
        assert h1.values.tobytes() == h2.values.tobytes()

    def test_counts_hvp_calls(self, surrogate, net_theta):
        v = net_theta.with_values(np.ones(net_theta.size))
        with count_calls() as c:
            ad.hvp(surrogate, net_theta, v)
        assert (c.grad_calls, c.hvp_calls, c.rollouts) == (0, 1, 0)

    @settings(deadline=None, max_examples=25)
    @given(st.integers(min_value=0, max_value=2**31 - 1))
    def test_hvp_equals_av_on_random_quadratics(self, seed):
        gen = np.random.default_rng(seed)
        n = int(gen.integers(1, 6))
        raw = gen.normal(size=(n, n))
        A = 0.5 * (raw + raw.T)
        theta = single_segment(gen.normal(size=n))
        v = theta.with_values(gen.normal(size=n))
        obj = lambda p: quadratic_form(A, p.seg("w"))
        hv = ad.hvp(obj, theta, v)
        want = A @ v.values
        assert ad.rel_err(hv, theta.with_values(want)) <= 1e-9


@pytest.mark.parametrize("raises", [False, True])
def test_count_calls_restores_the_wrapped_functions(raises):
    def wrapped():
        return ad.grad, ad.hvp, ad.value, rl.sample_batch

    originals = wrapped()
    with contextlib.suppress(RuntimeError):
        with count_calls():
            assert all(now is not was for now, was in zip(wrapped(), originals))
            if raises:
                raise RuntimeError("body failed")
    assert all(now is was for now, was in zip(wrapped(), originals))


# ---------------------------------------------------------------------------
# Affine layers: one node with the bits of np.matmul followed by the add
# ---------------------------------------------------------------------------

class TestAffine:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.sampled_from([1, 2000]),
        n_in=st.integers(1, 64),
        n_out=st.integers(1, 64),
        varied=st.sets(st.sampled_from(["h", "w", "b"]), min_size=1),
        seed=st.integers(0, 2**16),
    )
    def test_matches_matmul_then_add_bitwise(self, rows, n_in, n_out, varied, seed):
        """With each subset of the operands as parameters: the value, and the
        gradient of a linear objective, bitwise against numpy; the
        Hessian-vector product through a tanh against finite differences."""
        gen = Stream(seed).generator()
        shapes = {"h": (rows, n_in), "w": (n_in, n_out), "b": (n_out,)}
        values = {k: gen.normal(size=shape) for k, shape in shapes.items()}
        # variance 1/fan_in, as the policy's init: a saturated tanh would
        # leave finite differences without their relative accuracy
        values["w"] /= np.sqrt(n_in)
        weights = gen.normal(size=(rows, n_out))
        names = [k for k in ("h", "w", "b") if k in varied]
        theta = params_of({k: values[k] for k in names})
        v = theta.with_values(gen.normal(size=theta.size))

        def layer(p):
            return ad.affine(*(p.seg(k) if k in varied else ad.const(values[k]) for k in "hwb"))

        h, w, b = values["h"], values["w"], values["b"]
        assert layer(ad.Params(theta)).val.tobytes() == (np.matmul(h, w) + b).tobytes()
        g = ad.grad(lambda p: ad.nsum(layer(p) * ad.const(weights)), theta)
        want = {"h": weights @ w.T, "w": h.T @ weights, "b": weights.sum(0)}
        for k in names:
            assert g.segment(k).tobytes() == want[k].tobytes()
        curved = lambda p: ad.nsum(tanh(layer(p)) * ad.const(weights))
        assert ad.rel_err(ad.hvp(curved, theta, v), ad.fd_hvp(curved, theta, v)) <= 1e-4

    def test_rejects_one_dimensional_operands(self):
        with pytest.raises(ValueError):
            ad.affine(ad.const(np.ones(3)), ad.const(np.ones((3, 2))), ad.const(np.zeros(2)))
        with pytest.raises(ValueError):
            ad.tanh_affine(ad.const(np.ones(3)), ad.const(np.ones((3, 2))), ad.const(np.zeros(2)))


# ---------------------------------------------------------------------------
# Fused nodes: the bits of the primitives they replace
# ---------------------------------------------------------------------------

class TestTanhAffine:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.integers(1, 2000),
        n_in=st.integers(1, 64),
        n_out=st.integers(1, 64),
        varied=st.sets(st.sampled_from(["h", "w", "b"]), min_size=1),
        seed=st.integers(0, 2**16),
    )
    def test_matches_tanh_of_affine_bitwise(self, rows, n_in, n_out, varied, seed):
        """With each subset of the operands as parameters (so each carries a
        tangent in an `hvp`): the node's value and tangent, and the value,
        gradient and Hessian-vector product of a readout that is curved in
        the layer's output, equal those of `tanh(affine(h, w, b))` byte for
        byte."""
        gen = Stream(seed).generator()
        values = {
            "h": gen.normal(size=(rows, n_in)),
            "w": gen.normal(size=(n_in, n_out)) / np.sqrt(n_in),
            "b": gen.normal(size=(n_out,)),
        }
        weights = ad.const(gen.normal(size=(rows, n_out)))
        theta = params_of({k: values[k] for k in "hwb" if k in varied})
        v = theta.with_values(gen.normal(size=theta.size))

        def operands(p):
            return [p.seg(k) if k in varied else ad.const(values[k]) for k in "hwb"]

        def readout(y):
            return add(ad.nsum(y * weights), ad.nsum(y * y))

        for tangent in (None, v):
            fused = ad.tanh_affine(*operands(ad.Params(theta, tangent)))
            composed = tanh(ad.affine(*operands(ad.Params(theta, tangent))))
            assert raw_bytes(fused.val, fused.dot) == raw_bytes(composed.val, composed.dot)
        assert_same_bits(
            lambda p: readout(ad.tanh_affine(*operands(p))),
            lambda p: readout(tanh(ad.affine(*operands(p)))),
            theta,
            v,
        )

    @pytest.mark.parametrize("adj_tangent", [True, False], ids=["g.d", "no-g.d"])
    @pytest.mark.parametrize("node_tangent", [True, False], ids=["y.d", "no-y.d"])
    def test_vjp_gives_the_bytes_of_tanh_then_affine(self, adj_tangent, node_tangent):
        """The fused vjp, which forms the tanh rule in its node's own arrays,
        hands each operand the bytes `tanh`'s vjp and then `affine`'s give,
        in the same order, and leaves the adjoint's arrays as they were. A
        `grad` reaches only the no-tangent case and an `hvp` only the
        all-tangent one; the mixed cases are driven here."""
        gen = np.random.default_rng(5)

        def operand(*shape):
            return ad.Node(gen.normal(size=shape), gen.normal(size=shape) if node_tangent else None, needs=True)

        h, w, b = operand(7, 3), operand(3, 5), operand(5)
        g = ad._D(gen.normal(size=(7, 5)), gen.normal(size=(7, 5)) if adj_tangent else None)
        g_before = raw_bytes(g.v, g.d)

        fused = ad.tanh_affine(h, w, b)
        got: list = []
        fused.vjp(ad._D(g.v, g.d), lambda node, contrib: got.append((node, raw_bytes(contrib.v, contrib.d))))

        pre = ad.affine(h, w, b)
        pre_adj: list = []
        tanh(pre).vjp(g, lambda node, contrib: pre_adj.append(contrib))
        want: list = []
        pre.vjp(pre_adj[0], lambda node, contrib: want.append((node, raw_bytes(contrib.v, contrib.d))))

        assert [node for node, _ in got] == [h, w, b]
        assert got == want
        assert raw_bytes(g.v, g.d) == g_before


class TestColumnFold:
    @settings(max_examples=60, deadline=None)
    @given(
        rows=st.integers(1, 2000),
        cols=st.integers(1, 7),
        values=st.sampled_from(["drawn", "exponentials", "special"]),
        seed=st.integers(0, 2**16),
    )
    def test_equals_the_ufunc_reduction_bytewise(self, rows, cols, values, seed):
        """The fold's row max is np.maximum.reduce's, byte for byte, and its
        row sum is np.add.reduce's once +0.0 is added; a sum of
        exponentials needs no +0.0. Tried on drawn values of mixed sign and
        magnitude, on their exponentials, and on values among which signed
        zeros, infinities, NaNs and subnormals are frequent."""
        gen = Stream(seed).generator()
        x = gen.normal(size=(rows, cols)) * 10.0 ** gen.integers(-8, 9, size=(rows, cols))
        if values == "exponentials":
            x = np.exp(x / 1e6)
        elif values == "special":
            special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e308, -1e308])
            mask = gen.random((rows, cols)) < 0.5
            x[mask] = gen.choice(special, size=int(mask.sum()))
        with np.errstate(invalid="ignore", over="ignore"):
            assert ad._fold_columns(np.maximum, x).tobytes() == np.maximum.reduce(x, axis=1).tobytes()
            total = np.add.reduce(x, axis=1).tobytes()
            assert (ad._fold_columns(np.add, x) + 0.0).tobytes() == total
            if values == "exponentials":
                assert ad._fold_columns(np.add, x).tobytes() == total

    @pytest.mark.parametrize("cols", range(2, 8))
    def test_a_row_of_negative_zeros_is_the_one_sign_apart(self, cols):
        x = np.full((3, cols), -0.0)
        assert np.signbit(ad._fold_columns(np.add, x)).all()
        assert not np.signbit(np.add.reduce(x, axis=1)).any()
        assert not np.signbit(ad._fold_columns(np.add, x) + 0.0).any()


class TestLogSoftmaxPick:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.one_of(st.integers(1, 40), st.just(2000)),
        cols=st.integers(2, 7),
        logits=st.sampled_from(["drawn", "tied", "700 apart"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_log_softmax_composition_bitwise(self, rows, cols, logits, seed):
        """The node's value and tangent, and the value, gradient and
        Hessian-vector product of a readout curved in the log-probabilities,
        equal those of the primitives it replaces byte for byte, on `Picks`
        and on the index array alike: on drawn logits, on rows whose logits
        are all tied, and on rows with one logit 700 above the others (whose
        exponentials are then about 1e-304), for 2 to 7 actions and up to a
        2,000-row batch. The first row's tangent is all -0.0, the one case
        where a column fold and np.add.reduce differ (`_fold_columns`)."""
        gen = Stream(seed).generator()
        z = gen.normal(size=(rows, cols))
        if logits == "tied":
            z[:] = z[:, :1]
        elif logits == "700 apart":
            z[np.arange(rows), gen.integers(0, cols, size=rows)] += 700.0
        idx = gen.integers(0, cols, size=rows)
        weights = ad.const(gen.normal(size=rows))
        theta = params_of({"z": z})
        v = theta.with_values(np.concatenate([np.full(cols, -0.0), gen.normal(size=theta.size - cols)]))

        def composed_lp(out):
            shift = out - row_max_const(out)
            lse = log(nsum_axis(ad.exp(shift), 1))
            return gather_rows(shift, idx) - lse

        forms = [
            composed_lp,
            lambda out: ad.log_softmax_pick(out, ad.Picks(idx, cols)),
            lambda out: ad.log_softmax_pick(out, idx),
        ]

        def readout(form):
            def obj(p):
                lp = form(p.seg("z"))
                return add(ad.nsum(lp * weights), ad.nsum(lp * lp))

            return obj

        for tangent in (None, v):
            nodes = [form(ad.Params(theta, tangent).seg("z")) for form in forms]
            assert len({raw_bytes(n.val, n.dot) for n in nodes}) == 1
        for form in forms[1:]:
            assert_same_bits(readout(form), readout(forms[0]), theta, v)

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_an_index_outside_the_columns_is_refused_when_prepared(self, bad):
        """-1 would wrap to the last column and 3 would raise only when
        read; both are refused by `Picks`, and by the node before it
        computes anything."""
        idx = np.array([0, bad, 2])
        with pytest.raises(ValueError, match=r"pick indices must lie in 0\.\.2"):
            ad.Picks(idx, 3)
        with pytest.raises(ValueError, match=r"pick indices must lie in 0\.\.2"):
            ad.log_softmax_pick(ad.const(np.zeros((3, 3))), idx)

    def test_picks_for_another_shape_are_refused(self):
        picks = ad.Picks(np.array([0, 1, 1]), 2)
        for shape in ((3, 3), (2, 2), (4, 2)):
            with pytest.raises(ValueError, match="picks for shape"):
                ad.log_softmax_pick(ad.const(np.zeros(shape)), picks)
        with pytest.raises(ValueError, match="1-D"):
            ad.Picks(np.zeros((2, 1), dtype=np.int64), 2)


class TestWeightedSum:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(1, 5),
        shapes=st.sampled_from(["vector", "matrix", "weights broadcast", "operand broadcast"]),
        k=st.integers(1, 20),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_mul_nsum_mul_composition_bitwise(self, rows, cols, shapes, k, seed):
        """The node's value and tangent, and the value, gradient and
        Hessian-vector product of a readout curved in it, equal those of
        nsum(a * weights) * scale byte for byte: on vectors (the policy
        surrogate's form), on matrices, and with either operand broadcast
        over the other."""
        gen = Stream(seed).generator()
        a_shape, w_shape = {
            "vector": ((rows,), (rows,)),
            "matrix": ((rows, cols), (rows, cols)),
            "weights broadcast": ((rows, cols), (cols,)),
            "operand broadcast": ((cols,), (rows, cols)),
        }[shapes]
        theta = params_of({"z": gen.normal(size=a_shape)})
        v = theta.with_values(gen.normal(size=theta.size))
        weights, scale = gen.normal(size=w_shape), 1.0 / k

        def fused(p):
            return ad.weighted_sum(ad.exp(p.seg("z")), weights, scale)

        def composed(p):
            return ad.nsum(ad.exp(p.seg("z")) * weights) * scale

        for tangent in (None, v):
            got, want = fused(ad.Params(theta, tangent)), composed(ad.Params(theta, tangent))
            assert raw_bytes(got.val, got.dot) == raw_bytes(want.val, want.dot)

        def readout(total):
            return lambda p: total(p) * total(p)

        assert_same_bits(readout(fused), readout(composed), theta, v)


# ---------------------------------------------------------------------------
# The nodes an evaluation builds
# ---------------------------------------------------------------------------

def _nodes_built(call) -> int:
    """How many graph nodes `call()` makes."""
    before = next(ad._NODE_IDS)
    call()
    return next(ad._NODE_IDS) - before - 1


def _fd_grad_budget(theta: ad.ParamVector, per_evaluation: int) -> int:
    """The nodes `fd_grad` builds on a policy surrogate over `theta`, whose
    segments are W0, b0, W1, b1, ..., when one `value` there builds
    `per_evaluation` nodes: the leaves, once; then, while a segment of layer
    L moves, each evaluation builds every node but the L layers before it,
    which `fd_grad` keeps from the segment's first evaluation on."""
    total = len(theta.segments)
    for s in theta.segments:
        kept = int(s.name[1:])
        total += 2 * s.size * (per_evaluation - kept) + kept
    return total


class TestNodeBudget:
    @pytest.fixture(scope="class")
    def audit(self):
        """The audit's objective for seed 0 and its policy."""
        env = make_env(Task(Family.CARTPOLE, 10.0))
        stream = Stream(0)
        theta = init_params(actor_arch(env), stream.child(0))
        batch = rl.sample_batch(env, PolicyNet(actor_arch(env), theta), 2, stream.child(1), 15)
        return rl.policy_objective(batch, 0.99), theta

    def test_an_audit_evaluation_builds_five_nodes(self, audit):
        """Two hidden layers, the output layer, the categorical head and the
        weighted sum, over the six segment leaves: `value` on a vector
        builds all of them on every call, while `fd_grad`'s 2 x 4,610
        evaluations on its one Params build the leaves once. There, an
        evaluation that moves W1 or b1 gets the first hidden layer kept and
        builds 4 nodes, one that moves W2 or b2 gets both and builds 3:
        37,272 nodes in all."""
        obj, theta = audit
        x = theta.with_values(theta.values)
        assert _nodes_built(lambda: ad.value(obj, x)) == 6 + 5
        assert _nodes_built(lambda: ad.value(obj, x)) == 6 + 5
        assert _nodes_built(lambda: ad.fd_grad(obj, theta)) == _fd_grad_budget(theta, 5)

    def test_kept_layers_reach_every_layer_before_the_moving_one(self):
        """On three hidden layers an evaluation that moves the output layer
        builds the head, the sum and that layer alone."""
        obj, theta = deep_categorical(Stream(4))
        assert _nodes_built(lambda: ad.value(obj, theta)) == len(theta.segments) + 6
        assert _nodes_built(lambda: ad.fd_grad(obj, theta)) == _fd_grad_budget(theta, 6)

    def test_a_layer_on_a_leaf_that_is_not_moving_is_kept(self):
        """A hidden layer whose input is the segment leaf x, under an output
        layer over segments of its own: while v or c moves, no moving leaf
        reaches the hidden layer, so `fd_grad` keeps it from the segment's
        first evaluation on, and each later evaluation builds the output
        layer and the sum alone. The bits are those of fresh copies."""
        gen = Stream(5).generator()
        shapes = {"x": (3, 4), "w": (4, 2), "b": (2,), "v": (2, 1), "c": (1,)}
        theta = params_of({name: gen.normal(size=shape) for name, shape in shapes.items()})

        def obj(p):
            hidden = p.layer(ad.tanh_affine, p.seg("x"), "w", "b")
            return ad.nsum(p.layer(ad.affine, hidden, "v", "c"))

        size = {s.name: s.size for s in theta.segments}
        budget = len(size) + sum(2 * size[n] * 3 for n in "xwb") + sum(2 * size[n] * 2 + 1 for n in "vc")
        assert _nodes_built(lambda: ad.value(obj, theta)) == len(size) + 3
        assert _nodes_built(lambda: ad.fd_grad(obj, theta)) == budget
        assert ad.fd_grad(obj, theta).values.tobytes() == fd_by_copies(obj, theta).tobytes()

    def test_the_layer_memo_is_fd_grads_alone_and_bounded(self, audit):
        """Only `fd_grad`'s Params keeps layers, its layer memo: at most the
        two hidden ones here (two 25 x 64 arrays), all in one dict. A Params
        over a vector keeps none, `value` on a vector builds every node on
        every call, and `value`, `grad` and `hvp` at the point give the same
        bytes before and after an `fd_grad` from it."""
        obj, theta = audit
        x = theta.with_values(theta.values)
        v = theta.with_values(Stream(0).child(2).generator().standard_normal(theta.size))
        before = ad.value(obj, x).hex(), ad.grad(obj, x).values.tobytes(), ad.hvp(obj, x, v).values.tobytes()
        kept = []

        def recorded(p):
            out = obj(p)
            kept.append((p._layers, None if p._layers is None else len(p._layers)))
            return out

        ad.fd_grad(recorded, x)
        assert len(kept) == 2 * theta.size and all(k is kept[0][0] for k, _ in kept)
        assert isinstance(kept[0][0], dict) and max(n for _, n in kept) == 2
        kept.clear()
        ad.value(recorded, x), ad.grad(recorded, x), ad.hvp(recorded, x, v)
        assert kept == [(None, None)] * 3
        assert [_nodes_built(lambda: ad.value(obj, x)) for _ in range(3)] == [6 + 5] * 3
        after = ad.value(obj, x).hex(), ad.grad(obj, x).values.tobytes(), ad.hvp(obj, x, v).values.tobytes()
        assert after == before

    def test_grad_and_hvp_after_value_match_a_fresh_vector(self, audit):
        """`value`, `grad` and `hvp` keep nothing on a vector: after a
        `value` on it, they give the bytes of a copy it never saw."""
        obj, theta = audit
        x, fresh = theta.with_values(theta.values), theta.with_values(theta.values)
        v = theta.with_values(Stream(0).child(2).generator().standard_normal(theta.size))
        ad.value(obj, x)
        assert ad.grad(obj, x).values.tobytes() == ad.grad(obj, fresh).values.tobytes()
        assert ad.hvp(obj, x, v).values.tobytes() == ad.hvp(obj, fresh, v).values.tobytes()
        assert ad.value(obj, x).hex() == ad.value(obj, fresh).hex()


# ---------------------------------------------------------------------------
# Large graphs: memory use and the allocator policy
# ---------------------------------------------------------------------------

def _long_cartpole_objective():
    """The policy objective of a synthetic 10 x 200-row cartpole batch, as
    in a trained-state epoch, with its parameters and a unit direction. Its
    64-wide hidden layers hold 1-MB activations."""
    env = make_env(Task(Family.CARTPOLE, 9.0))
    theta = init_params(actor_arch(env), Stream(0).child(0))
    gen = Stream(1).generator()
    horizon = 200

    def trajectory():
        states = gen.normal(size=(horizon, 4))
        gen.integers(0, 2, size=horizon)  # discarded, so the raws keep their bits
        return rl.Trajectory(states, np.ones(horizon), gen.integers(0, 2, size=horizon))

    trajs = tuple(trajectory() for _ in range(10))
    obj = rl.policy_objective(rl.TrajectoryBatch(trajs, env.task), 0.99)
    v = theta.with_values(np.full(theta.size, 1.0 / np.sqrt(theta.size)))
    return obj, theta, v


def test_large_graphs_stay_within_their_memory_budget():
    """Traced numpy peak of one call on the long batch. With one
    `tanh_affine` node per hidden layer, no pre-activation is held, and the
    forward graph at its end is the two hidden outputs (with their
    tangents in an `hvp`): a `value` peaks at 2.2 MiB. Each node's adjoint,
    value, tangent and vjp are freed once its vjp has run, and the fused
    vjp forms the tanh rule in its node's own arrays, so the backward pass
    stays below the 8.2 MiB an `hvp` took with a node per affine map and per
    tanh (the end of that forward pass), and a `grad` below its 4.1 MiB;
    those graphs took 4.1 MiB for a `value`. With a node for each product
    and every adjoint kept to the end: 24.3, 11.2 and 6.1 MiB."""
    obj, theta, v = _long_cartpole_objective()
    hvp_peak = traced_peak_mib(lambda: ad.hvp(obj, theta, v))
    grad_peak = traced_peak_mib(lambda: ad.grad(obj, theta))
    value_peak = traced_peak_mib(lambda: ad.value(obj, theta))
    assert hvp_peak < 8.5, f"one hvp peaked at {hvp_peak:.2f} MiB"
    assert grad_peak < 4.4, f"one grad peaked at {grad_peak:.2f} MiB"
    assert value_peak < 2.5, f"one value peaked at {value_peak:.2f} MiB"


@pytest.mark.parametrize("dual", [True, False], ids=["hvp", "grad"])
def test_forward_graph_holds_only_the_hidden_outputs(dual):
    """At the end of the forward pass the graph's (rows x 64) arrays are
    the two hidden layers' outputs, and in an `hvp` their tangents: no
    pre-activation is held."""
    obj, theta, v = _long_cartpole_objective()
    root = obj(ad.Params(theta, v if dual else None))
    nodes = ad._reachable(root)
    rows = 10 * 200
    big = [a for n in nodes for a in (n.val, n.dot) if isinstance(a, np.ndarray) and a.shape == (rows, 64)]
    assert len(big) == (4 if dual else 2)
    hidden = [n for n in nodes if n.val.shape == (rows, 64)]
    assert len(hidden) == 2
    assert {id(a) for a in big} == {id(a) for n in hidden for a in (n.val, n.dot) if a is not None}


@pytest.mark.parametrize("shape", [(), (7, 3)], ids=["0-d", "2-d"])
@pytest.mark.parametrize("adj_tangent", [True, False], ids=["g.d", "no-g.d"])
@pytest.mark.parametrize("node_tangent", [True, False], ids=["y.d", "no-y.d"])
def test_tanh_vjp_gives_the_bytes_of_the_product_rule(shape, adj_tangent, node_tangent):
    """The in-place tanh rule, which the reference `tanh` runs on copies of
    its node's arrays, builds g * (sech^2, -2 tanh * d(tanh)) with the bytes
    of `_D.__mul__` (taken from the node's value and tangent after the vjp,
    which must leave them as they were), and leaves the adjoint it reads as
    it was. A 0-d operand gives numpy scalars, which take no `out=`: the
    reference copies them to one-element arrays."""
    gen = np.random.default_rng(7)

    def draw():
        return gen.normal(size=shape)

    def raw(pair: ad._D):
        return tuple(None if a is None else (np.shape(a), np.asarray(a).tobytes()) for a in (pair.v, pair.d))

    x = ad.Node(draw(), draw() if node_tangent else None, needs=True)
    y = tanh(x)
    g = ad._D(draw() * 3.0, draw() if adj_tangent else None)
    g_before = raw(g)
    got: list[ad._D] = []
    y.vjp(g, lambda node, contrib: got.append(contrib))
    ref = g * ad._D(1.0 - y.val * y.val, None if y.dot is None else -2.0 * y.val * y.dot)

    assert len(got) == 1
    assert raw(got[0]) == raw(ref)
    assert raw(g) == g_before


def _glibc() -> bool:
    try:
        name = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):
        return False
    return bool(name) and name.startswith("glibc")


@pytest.mark.skipif(
    not (sys.platform.startswith("linux") and _glibc()),
    reason="the mmap/trim thresholds are set through glibc's mallopt; other C libraries keep their own policy",
)
def test_large_graphs_do_not_fault_their_pages_in_again():
    """A 2,000-row cartpole batch (10 x 200 steps) gives 1-MB activations in
    the 64-wide hidden layers. Under glibc's default thresholds every graph
    faulted its freed pages in again, about 2,900 minor faults per `grad`
    and 5,300 per `hvp`; with the thresholds `metarl.autodiff` sets at
    import, a warm graph reuses the heap it freed."""
    import resource  # Unix only; the skip above has ruled the rest out

    obj, theta, v = _long_cartpole_objective()
    ad.grad(obj, theta)  # warm-up: the heap grows to a graph's size once
    ad.hvp(obj, theta, v)

    def faults_per_call(call, n):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for _ in range(n):
            call()
        return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / n

    grad_faults = faults_per_call(lambda: ad.grad(obj, theta), 5)
    hvp_faults = faults_per_call(lambda: ad.hvp(obj, theta, v), 2)
    assert grad_faults < 500, f"{grad_faults:.0f} minor faults per grad"
    assert hvp_faults < 500, f"{hvp_faults:.0f} minor faults per hvp"
