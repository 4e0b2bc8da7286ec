"""Gradient and Hessian-vector-product checks.

The finite-difference oracles (fd_grad, fd_hvp) are validated first on
closed-form cases; everything else is then measured against them. The exact
and finite-difference paths share no code beyond objective evaluation.
"""

from __future__ import annotations

import contextlib
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import count_calls
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


def single_segment(values) -> ad.ParamVector:
    arr = np.asarray(values, dtype=np.float64)
    return ad.ParamVector(arr, [ad.Segment("w", 0, arr.shape)])


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
        h = ad.tanh(ad.matmul(ad.const(states), p.seg("W0")) + p.seg("b0"))
        logits = ad.matmul(h, p.seg("W1")) + p.seg("b1")
        shift = logits - ad.row_max_const(logits)
        lse = ad.log(ad.nsum(ad.exp(shift), axis=1))
        lp = ad.gather_rows(shift, actions) - lse
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
        obj = lambda p: ad.nsum(p.vec * p.vec)
        g = ad.fd_grad(obj, theta, epsilon=1e-5)
        assert abs(g.values[0] - 2.0) <= 1e-8

    def test_constant_function(self):
        theta = single_segment([0.3, -0.7, 2.0])
        obj = lambda p: ad.const(4.25)
        g = ad.fd_grad(obj, theta)
        assert np.all(np.abs(g.values) <= 1e-10)

    def test_epsilon_must_be_positive(self):
        theta = single_segment([1.0])
        obj = lambda p: ad.nsum(p.vec)
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
        obj = lambda p: 0.5 * ad.matmul(p.vec, ad.matmul(ad.const(A), p.vec))
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
        obj = lambda p: 0.5 * ad.nsum(p.vec * p.vec)
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
        ad.grad(lambda p: ad.nsum(p.vec * p.vec), theta)
        assert np.array_equal(theta.values, before)

    def test_surrogate_matches_fd(self, surrogate, net_theta):
        g = ad.grad(surrogate, net_theta)
        g_fd = ad.fd_grad(surrogate, net_theta, epsilon=1e-5)
        assert ad.rel_err(g, g_fd) <= 1e-4

    def test_linearity_exact_composition(self, surrogate, net_theta):
        def other(p):
            return ad.nmean(ad.tanh(p.vec) * p.vec)

        a, b = 1.7, -0.3
        combo = lambda p: a * surrogate(p) + b * other(p)
        g_combo = ad.grad(combo, net_theta)
        g_lin = a * ad.grad(surrogate, net_theta) + b * ad.grad(other, net_theta)
        assert ad.rel_err(g_combo, g_lin) <= 1e-10

    def test_repeat_is_bit_identical(self, surrogate, net_theta):
        g1 = ad.grad(surrogate, net_theta)
        g2 = ad.grad(surrogate, net_theta)
        assert g1.values.tobytes() == g2.values.tobytes()

    def test_nonfinite_forward_raises(self):
        theta = single_segment([1.0])
        obj = lambda p: ad.nsum(p.vec * ad.const(np.nan))
        with pytest.raises(NonFiniteValue):
            ad.grad(obj, theta)

    def test_scalar_root_required(self):
        theta = single_segment([1.0, 2.0])
        with pytest.raises(ValueError):
            ad.grad(lambda p: p.vec * p.vec, theta)

    def test_segment_and_flat_views_share_leaf(self):
        pv = ad.ParamVector(
            np.array([1.0, -2.0, 0.5]),
            [ad.Segment("a", 0, (2,)), ad.Segment("b", 2, (1,))],
        )
        via_vec = lambda p: ad.nsum(p.vec * p.vec)
        via_seg = lambda p: ad.nsum(p.seg("a") * p.seg("a")) + ad.nsum(
            p.seg("b") * p.seg("b")
        )
        g1 = ad.grad(via_vec, pv)
        g2 = ad.grad(via_seg, pv)
        assert np.allclose(g1.values, g2.values, atol=1e-15)

    def test_leaf_shares_the_read_only_values(self):
        pv = single_segment([3.0, 4.0])
        leaf = ad.Params(pv).vec.val
        assert np.shares_memory(leaf, pv.values)
        with pytest.raises(ValueError):
            leaf[0] = 5.0
        assert pv.values.tolist() == [3.0, 4.0]

    def test_reshape_op(self):
        pv = single_segment([1.0, 2.0, 3.0, 4.0])
        c = np.array([[1.0, 10.0], [100.0, 1000.0]])
        obj = lambda p: ad.nsum(ad.reshape(p.vec, (2, 2)) * ad.const(c))
        g = ad.grad(obj, pv)
        assert np.array_equal(g.values, c.ravel())

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
        obj = lambda p: 0.5 * ad.matmul(p.vec, ad.matmul(ad.const(A), p.vec))
        v = theta.with_values(np.array([1.0, 0.0]))
        hv = ad.hvp(obj, theta, v)
        assert np.allclose(hv.values, [2.0, 1.0], atol=1e-12)

    def test_linear_objective_zero_hessian(self):
        theta = single_segment([1.0, 2.0, 3.0])
        c = np.array([4.0, -1.0, 0.5])
        obj = lambda p: ad.nsum(p.vec * ad.const(c))
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
        obj = lambda p: ad.nsum(p.vec * p.vec)
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
        obj = lambda p: 0.5 * ad.matmul(p.vec, ad.matmul(ad.const(A), p.vec))
        hv = ad.hvp(obj, theta, v)
        want = A @ v.values
        assert ad.rel_err(hv.values, want) <= 1e-9


@pytest.mark.parametrize("raises", [False, True])
def test_count_calls_restores_the_wrapped_functions(raises):
    def wrapped():
        return ad.grad_and_value, ad.hvp, rl.sample_batch

    originals = wrapped()
    with contextlib.suppress(RuntimeError):
        with count_calls():
            assert all(now is not was for now, was in zip(wrapped(), originals))
            if raises:
                raise RuntimeError("body failed")
    assert all(now is was for now, was in zip(wrapped(), originals))


# ---------------------------------------------------------------------------
# Exact (batch-size-independent) matmul mode
# ---------------------------------------------------------------------------

class TestExactMatmul:
    def test_rows_match_batched_bitwise(self):
        gen = Stream(7).generator()
        X = gen.normal(size=(9, 5))
        W = gen.normal(size=(5, 4))
        full = ad.matmul(ad.const(X), ad.const(W), exact=True).val
        for i in range(X.shape[0]):
            row = ad.matmul(ad.const(X[i : i + 1]), ad.const(W), exact=True).val
            assert row.tobytes() == full[i : i + 1].tobytes()

    def test_masked_subset_matches_bitwise(self):
        gen = Stream(8).generator()
        X = gen.normal(size=(10, 6))
        W = gen.normal(size=(6, 3))
        full = ad.matmul(ad.const(X), ad.const(W), exact=True).val
        keep = np.array([0, 2, 3, 7, 9])
        sub = ad.matmul(ad.const(X[keep]), ad.const(W), exact=True).val
        assert sub.tobytes() == full[keep].tobytes()

    def test_exact_grad_matches_default_mode(self, net_theta):
        states = Stream(9).generator().normal(size=(6, 2))

        def make(exact):
            def obj(p):
                h = ad.tanh(ad.matmul(ad.const(states), p.seg("W0"), exact=exact) + p.seg("b0"))
                out = ad.matmul(h, p.seg("W1"), exact=exact) + p.seg("b1")
                return ad.nmean(out)

            return obj

        g_fast = ad.grad(make(False), net_theta)
        g_exact = ad.grad(make(True), net_theta)
        assert ad.rel_err(g_fast, g_exact) <= 1e-12


# ---------------------------------------------------------------------------
# Affine layers: one node with the bits of matmul followed by add
# ---------------------------------------------------------------------------

class TestAffine:
    @settings(max_examples=30, deadline=None)
    @given(
        rows=st.sampled_from([1, 2000]),
        n_in=st.integers(1, 64),
        n_out=st.integers(1, 64),
        exact=st.booleans(),
        varied=st.sets(st.sampled_from(["h", "w", "b"]), min_size=1),
        seed=st.integers(0, 2**16),
    )
    def test_matches_matmul_then_add_bitwise(self, rows, n_in, n_out, exact, varied, seed):
        """Value, gradient and Hessian-vector product, with a tangent on
        each subset of the operands that are parameters."""
        gen = Stream(seed).generator()
        shapes = {"h": (rows, n_in), "w": (n_in, n_out), "b": (n_out,)}
        values = {k: gen.normal(size=shape) for k, shape in shapes.items()}
        weights = gen.normal(size=(rows, n_out))
        names = [k for k in ("h", "w", "b") if k in varied]
        segs, off = [], 0
        for k in names:
            segs.append(ad.Segment(k, off, shapes[k]))
            off += values[k].size
        theta = ad.ParamVector(np.concatenate([values[k].ravel() for k in names]), segs)
        v = theta.with_values(gen.normal(size=theta.size))

        def make(fused):
            def obj(p):
                h, w, b = (p.seg(k) if k in varied else ad.const(values[k]) for k in "hwb")
                if fused:
                    out = ad.affine(h, w, b, exact=exact)
                else:
                    out = ad.matmul(h, w, exact=exact) + b
                return ad.nsum(ad.tanh(out) * ad.const(weights))

            return obj

        fused, split = make(True), make(False)
        assert np.float64(ad.value(fused, theta)).tobytes() == np.float64(
            ad.value(split, theta)
        ).tobytes()
        assert ad.grad(fused, theta).values.tobytes() == ad.grad(split, theta).values.tobytes()
        assert (
            ad.hvp(fused, theta, v).values.tobytes() == ad.hvp(split, theta, v).values.tobytes()
        )

    def test_rejects_one_dimensional_operands(self):
        with pytest.raises(ValueError):
            ad.affine(ad.const(np.ones(3)), ad.const(np.ones((3, 2))), ad.const(np.zeros(2)))


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
            np.full(horizon, np.log(0.5)),
            gen.integers(0, 2, size=horizon),
        )
        for _ in range(10)
    )
    obj = rl.policy_objective(rl.TrajectoryBatch(trajs, env.task), 0.99)
    v = theta.with_values(np.full(theta.size, 1.0 / np.sqrt(theta.size)))
    return obj, theta, v


def test_large_graphs_stay_within_their_memory_budget():
    """Traced numpy peak of one call on the long batch. With one node per
    affine layer and adjoints freed as the backward pass goes, an `hvp`
    peaks near 16 MiB and a `grad` near 7 MiB; with a node for each
    product and every adjoint kept to the end, 24.3 and 11.2 MiB."""
    obj, theta, v = _long_cartpole_objective()
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:

        def traced_peak_mib(call):
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return (tracemalloc.get_traced_memory()[1] - base) / 2**20

        hvp_peak = traced_peak_mib(lambda: ad.hvp(obj, theta, v))
        grad_peak = traced_peak_mib(lambda: ad.grad(obj, theta))
    finally:
        if started:
            tracemalloc.stop()
    assert hvp_peak < 19.0, f"one hvp peaked at {hvp_peak:.1f} MiB"
    assert grad_peak < 9.0, f"one grad peaked at {grad_peak:.1f} MiB"


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
