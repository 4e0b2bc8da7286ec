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

from _helpers import add, count_calls, gather_rows, log, row_max_const, tanh, traced_peak_mib
from metarl import autodiff as ad
from metarl import rl
from metarl.envs import Family, Task, make_env
from metarl.errors import NonFiniteValue
from metarl.policy import PolicyNet, actor_arch, init_params
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


def quadratic_form(A: np.ndarray, x: ad.Node) -> ad.Node:
    """1/2 x^T A x for a vector leaf x, as broadcast products summed."""
    ax = ad.nsum(ad.const(A) * ad.reshape(x, (1, A.shape[0])), axis=1)
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
        lse = log(ad.nsum(ad.exp(shift), axis=1))
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
        g = ad.fd_grad(obj, theta, epsilon=1e-5)
        assert abs(g.values[0] - 2.0) <= 1e-8

    def test_constant_function(self):
        theta = single_segment([0.3, -0.7, 2.0])
        obj = lambda p: ad.const(4.25)
        g = ad.fd_grad(obj, theta)
        assert np.all(np.abs(g.values) <= 1e-10)

    def test_epsilon_must_be_positive(self):
        theta = single_segment([1.0])
        obj = lambda p: ad.nsum(p.seg("w"))
        with pytest.raises(ValueError):
            ad.fd_grad(obj, theta, epsilon=0.0)
        with pytest.raises(ValueError):
            ad.fd_hvp(obj, theta, theta, epsilon=-1.0)

    def test_fd_grad_matches_per_coordinate_copies(self):
        """The scratch-buffer fd_grad gives the bits of the recipe that
        copied the vector twice per coordinate, on the audit's objective."""
        env = make_env(Task(Family.CARTPOLE, 10.0))
        env.horizon = 15
        stream = Stream(3)
        theta = init_params(actor_arch(env), stream.child(0))
        batch = rl.sample_batch(env, PolicyNet(actor_arch(env), theta), 2, stream.child(1))
        obj = rl.policy_objective(batch, 0.99)
        eps = 1e-5
        expected = np.zeros(theta.size)
        for i in range(theta.size):
            hi = theta.values.copy()
            hi[i] += eps
            lo = theta.values.copy()
            lo[i] -= eps
            expected[i] = (
                ad.value(obj, theta.with_values(hi)) - ad.value(obj, theta.with_values(lo))
            ) / (2.0 * eps)
        assert ad.fd_grad(obj, theta, epsilon=eps).values.tobytes() == expected.tobytes()

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

    def test_combinable_requires_same_layout(self):
        a = single_segment([1.0, 2.0])
        b = ad.ParamVector(
            np.zeros(2), [ad.Segment("x", 0, (1,)), ad.Segment("y", 1, (1,))]
        )
        with pytest.raises(ValueError):
            _ = a + b
        with pytest.raises(ValueError):
            a.hadamard(b)

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
        g, val = ad.grad_and_value(obj, theta)
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
        g_fd = ad.fd_grad(surrogate, net_theta, epsilon=1e-5)
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

    def test_scalar_root_required(self):
        theta = single_segment([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.grad(lambda p: p.seg("w") * p.seg("w"), theta)

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
        a policy objective, the states, the advantages and 1/K are
        constants (the row-max shift lives inside the categorical head's
        node), built once per objective and shared by its graphs; after
        `grad` and `hvp` no node but a parameter leaf holds an adjoint, and
        the segment leaves' adjoints, laid out by segment, are the gradient
        and the Hessian-vector product."""
        env = make_env(Task(Family.CARTPOLE, 9.0))
        env.horizon = 15
        theta = init_params(actor_arch(env), Stream(3).child(0))
        batch = rl.sample_batch(env, PolicyNet(actor_arch(env), theta), 2, Stream(3).child(1))
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
            assert len(constants) >= 3  # states, advantages, 1/K
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
        # `grad` reaches `grad_and_value` through the module, so the test
        # counter sees both under grad_calls.
        with count_calls() as c:
            ad.grad(surrogate, net_theta)
            ad.grad_and_value(surrogate, net_theta)
        assert (c.grad_calls, c.hvp_calls, c.rollouts) == (2, 0, 0)


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

    def test_surrogate_matches_fd_hvp(self, surrogate, net_theta):
        gen = Stream(123).child(2).generator()
        v = net_theta.with_values(gen.normal(size=net_theta.size))
        hv = ad.hvp(surrogate, net_theta, v)
        hv_fd = ad.fd_hvp(surrogate, net_theta, v, epsilon=1e-4)
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
        assert ad.rel_err(hv.values, want) <= 1e-9


@pytest.mark.parametrize("raises", [False, True])
def test_count_calls_restores_the_wrapped_functions(raises):
    def wrapped():
        return ad.grad_and_value, ad.hvp, ad.value, rl.sample_batch

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


class TestLogSoftmaxPick:
    @settings(max_examples=40, deadline=None)
    @given(
        rows=st.integers(1, 40),
        cols=st.integers(2, 5),
        logits=st.sampled_from(["drawn", "tied", "700 apart"]),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_log_softmax_composition_bitwise(self, rows, cols, logits, seed):
        """The node's value and tangent, and the value, gradient and
        Hessian-vector product of a readout curved in the log-probabilities,
        equal those of the primitives it replaces byte for byte: on drawn
        logits, on rows whose logits are all tied, and on rows with one
        logit 700 above the others (whose exponentials are then about
        1e-304)."""
        gen = Stream(seed).generator()
        z = gen.normal(size=(rows, cols))
        if logits == "tied":
            z[:] = z[:, :1]
        elif logits == "700 apart":
            z[np.arange(rows), gen.integers(0, cols, size=rows)] += 700.0
        idx = gen.integers(0, cols, size=rows)
        weights = ad.const(gen.normal(size=rows))
        theta = params_of({"z": z})
        v = theta.with_values(gen.normal(size=theta.size))

        def composed_lp(out):
            shift = out - row_max_const(out)
            lse = log(ad.nsum(ad.exp(shift), axis=1))
            return gather_rows(shift, idx) - lse

        def readout(lp):
            return add(ad.nsum(lp * weights), ad.nsum(lp * lp))

        for tangent in (None, v):
            fused = ad.log_softmax_pick(ad.Params(theta, tangent).seg("z"), idx)
            composed = composed_lp(ad.Params(theta, tangent).seg("z"))
            assert raw_bytes(fused.val, fused.dot) == raw_bytes(composed.val, composed.dot)
        assert_same_bits(
            lambda p: readout(ad.log_softmax_pick(p.seg("z"), idx)),
            lambda p: readout(composed_lp(p.seg("z"))),
            theta,
            v,
        )


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
    trajs = tuple(
        rl.Trajectory(
            gen.normal(size=(horizon, 4)),
            gen.integers(0, 2, size=horizon),
            np.ones(horizon),
            gen.integers(0, 2, size=horizon),
        )
        for _ in range(10)
    )
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
