"""Reverse-mode autodiff over flat parameter vectors, with exact Hessian-vector products.

Scope is deliberately small: dense float64 parameter vectors, a dozen primitive
operations (matrix products, tanh, exp/log, sums/means, row gathers for
log-probabilities), and scalar objectives. The computation graph is rebuilt on
every evaluation; nothing persists between calls, so there is no stale-tape
state to manage and graphs can safely cross threads.

`affine(h, w, b)` records a network layer's h @ w + b as one node: the same
two numpy operations as `matmul` followed by `add`, and the same bits, with
no node, tangent or adjoint kept for the product in between. Both share the
product rule (`_mm`, `_mm_vjp`).

Hessian-vector products use forward-over-reverse: every node carries an
optional tangent alongside its value, and the backward pass propagates
adjoint/adjoint-tangent pairs with the product rule. The tangent of the
gradient is exactly H @ v, up to floating point.

The forward pass of every op records only its value and, when a tangent is
present, its tangent. Whatever only the backward pass needs (operand shapes
for unbroadcasting, tanh's sech^2 and its tangent, the dual pairs a product
rule multiplies by, scatter lengths) is computed inside the op's vjp, from
the values the graph already holds. So `value`, the finite-difference oracles
and the forward half of `grad`/`hvp` pay for the forward graph alone, through
the same op code; recomputing a quantity in the vjp gives the bits the
forward would have captured.

The backward pass frees each node's adjoint once its vjp has run: every node
that adds to it has a higher id and so ran first, and nothing reads it again.
A leaf has no vjp and keeps its adjoint, which is what `grad` and `hvp` read.
So at any point only the adjoints of nodes still waiting for their vjp are alive.

Finite differences exist only as test oracles (`fd_grad`, `fd_hvp`) and in
the `audit` CLI; they are never a production gradient path.

Importing this module (so importing metarl) sets glibc's malloc mmap and
trim thresholds for the whole process; see `_keep_graph_memory_mapped`. A
graph over a 2,000-row batch frees about 10 MB when it dies, and under
glibc's defaults that memory went back to the OS only for the next graph to
fault the same pages in again. Values are unchanged; the process keeps its
heap at its high-water mark instead.
"""

from __future__ import annotations

import ctypes
import itertools
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import NonFiniteValue

__all__ = [
    "ParamVector",
    "Gradient",
    "Segment",
    "Node",
    "Params",
    "value",
    "grad",
    "grad_and_value",
    "hvp",
    "fd_grad",
    "fd_hvp",
    "rel_err",
    "add",
    "sub",
    "mul",
    "matmul",
    "affine",
    "tanh",
    "exp",
    "log",
    "powc",
    "nsum",
    "nmean",
    "gather_rows",
    "row_max_const",
    "reshape",
    "const",
]


# ---------------------------------------------------------------------------
# Allocator policy
# ---------------------------------------------------------------------------

# mallopt(3) parameter numbers, from glibc's <malloc.h>.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
# glibc's largest mmap threshold on 64-bit hosts: blocks below it come from
# the heap, so a graph's 1-MB activations are reused rather than mapped anew.
_MMAP_THRESHOLD = 32 * 1024 * 1024
# Free memory at the top of the heap is returned to the OS only past this.
_TRIM_THRESHOLD = 512 * 1024 * 1024


def _keep_graph_memory_mapped() -> None:
    """Keep freed graph memory in the heap between gradients (glibc only).

    Under glibc's dynamic thresholds, the ~10 MB a 2,000-row graph frees is
    trimmed back to the OS, and the next graph faults the same pages in
    again (about 2,900 minor faults per `grad` and 5,300 per `hvp` on such a
    batch). Setting either threshold turns the dynamic rule off, so both are
    set; the trim threshold only if the mmap threshold was accepted, since
    alone it would leave the mmap threshold at 128 KiB. A C library other
    than glibc, or a value mallopt rejects, leaves the allocator as it was.
    """
    try:
        libc_name = os.confstr("CS_GNU_LIBC_VERSION")
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc_name = None
    if not libc_name or not libc_name.startswith("glibc"):
        return
    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    if mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
        mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD)


_keep_graph_memory_mapped()


# ---------------------------------------------------------------------------
# Parameter vectors
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Segment:
    """Named contiguous slice of a flat parameter vector."""

    name: str
    offset: int
    shape: tuple[int, ...]

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= int(s)
        return n


def _checked_values(values) -> np.ndarray:
    """A fresh float64 copy of a 1-D, all-finite parameter vector."""
    arr = np.array(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("parameter values must be a 1-D vector")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteValue("parameter vector contains NaN/Inf")
    return arr


class ParamVector:
    """Flat float64 parameter vector with a named-segment layout.

    Values are immutable after construction. Two vectors combine (add, scale,
    elementwise multiply) only when their layouts are identical.
    """

    __slots__ = ("values", "segments", "_views")

    def __init__(self, values: np.ndarray, segments: Sequence[Segment]):
        arr = _checked_values(values)
        segs = tuple(segments)
        offset = 0
        for s in segs:
            if s.offset != offset:
                raise ValueError(f"segment {s.name!r} not contiguous at offset {offset}")
            offset += s.size
        if offset != arr.size:
            raise ValueError(f"segments cover {offset} values, vector has {arr.size}")
        self._init(arr, segs)

    def _init(self, arr: np.ndarray, segs: "tuple[Segment, ...]") -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_views", None)

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("ParamVector is immutable")

    @property
    def size(self) -> int:
        return self.values.size

    def segment(self, name: str) -> np.ndarray:
        """Read-only view of one segment. The views are built on first use
        and kept, so a lookup costs one dict access (the rollout's forward
        pass reads every layer on every step)."""
        views = self._views
        if views is None:
            views = {
                s.name: self.values[s.offset : s.offset + s.size].reshape(s.shape)
                for s in self.segments
            }
            object.__setattr__(self, "_views", views)
        return views[name]

    def layout_equal(self, other: "ParamVector") -> bool:
        return self.segments == other.segments

    def with_values(self, values: np.ndarray) -> "ParamVector":
        """A vector of new values in this layout. The layout was validated
        when this vector was built, so only the values are checked."""
        arr = _checked_values(values)
        if arr.size != self.size:
            raise ValueError(f"segments cover {self.size} values, vector has {arr.size}")
        out = object.__new__(ParamVector)
        out._init(arr, self.segments)
        return out

    def _check_combinable(self, other: "ParamVector") -> None:
        if not isinstance(other, ParamVector):
            raise TypeError("expected a ParamVector")
        if not self.layout_equal(other):
            raise ValueError("parameter vectors have different segment layouts")

    def __add__(self, other: "ParamVector") -> "ParamVector":
        self._check_combinable(other)
        return self.with_values(self.values + other.values)

    def __sub__(self, other: "ParamVector") -> "ParamVector":
        self._check_combinable(other)
        return self.with_values(self.values - other.values)

    def scale(self, c: float) -> "ParamVector":
        return self.with_values(self.values * float(c))

    def __mul__(self, c: float) -> "ParamVector":
        return self.scale(c)

    __rmul__ = __mul__

    def hadamard(self, other: "ParamVector") -> "ParamVector":
        """Elementwise product; layouts must match."""
        self._check_combinable(other)
        return self.with_values(self.values * other.values)

    def norm(self) -> float:
        return float(np.linalg.norm(self.values))

    def __repr__(self) -> str:
        names = ",".join(s.name for s in self.segments)
        return f"ParamVector(size={self.size}, segments=[{names}])"


# A gradient shares the layout of the vector it differentiates.
Gradient = ParamVector


# ---------------------------------------------------------------------------
# Dual pairs: (value, tangent) with tangent None meaning identically zero
# ---------------------------------------------------------------------------

def _dadd(a, b):
    if a is None:
        return b
    if b is None:
        return a
    return a + b


def _dsub(a, b):
    if b is None:
        return a
    return -b if a is None else a + -b


def _dmul(xv, xd, yv, yd):
    """Tangent of a product x*y by the product rule."""
    d = None
    if xd is not None:
        d = xd * yv
    if yd is not None:
        d = _dadd(d, xv * yd)
    return d


class _D:
    """Internal dual pair. All adjoint arithmetic is written in terms of _D, so
    tangents propagate through the backward pass by construction (yielding
    exact Hessian-vector products). Forward rules share its tangent helpers
    (_dadd, _dsub, _dmul) but read node values and tangents directly."""

    __slots__ = ("v", "d")

    def __init__(self, v, d=None):
        self.v = v
        self.d = d

    @staticmethod
    def wrap(x) -> "_D":
        if isinstance(x, _D):
            return x
        return _D(x, None)

    def __add__(self, o):
        o = _D.wrap(o)
        return _D(self.v + o.v, _dadd(self.d, o.d))

    def __sub__(self, o):
        o = _D.wrap(o)
        return _D(self.v - o.v, _dsub(self.d, o.d))

    def __neg__(self):
        return _D(-self.v, None if self.d is None else -self.d)

    def __mul__(self, o):
        o = _D.wrap(o)
        return _D(self.v * o.v, _dmul(self.v, self.d, o.v, o.d))

    def __truediv__(self, o):
        o = _D.wrap(o)
        inv = 1.0 / o.v
        d = None
        if self.d is not None:
            d = self.d * inv
        if o.d is not None:
            d = _dadd(d, -self.v * o.d * inv * inv)
        return _D(self.v * inv, d)

    def apply_linear(self, f) -> "_D":
        """Apply the same linear array transform to value and tangent."""
        return _D(f(self.v), None if self.d is None else f(self.d))

    def unbroadcast(self, shape: tuple[int, ...]) -> "_D":
        return self.apply_linear(lambda a: _unbroadcast(np.asarray(a), shape))


def _unbroadcast(arr: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum an adjoint back down to the shape it was broadcast from."""
    if arr.shape == shape:
        return arr
    extra = arr.ndim - len(shape)
    if extra > 0:
        arr = arr.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and arr.shape[i] != 1)
    if axes:
        arr = arr.sum(axis=axes, keepdims=True)
    return arr.reshape(shape)


def _matmul_exact(x, y):
    if getattr(x, "ndim", 0) == 2 and getattr(y, "ndim", 0) == 2:
        return np.einsum("ij,jk->ik", x, y)
    return np.matmul(x, y)


def _mm(a: _D, b: _D, exact: bool) -> _D:
    """Dual matmul. `exact` routes through einsum, whose per-row results do not
    depend on batch size (needed where single-row and batched evaluations must
    agree bit-for-bit)."""
    mmv = _matmul_exact if exact else np.matmul
    d = None
    if a.d is not None:
        d = mmv(a.d, b.v)
    if b.d is not None:
        d = _dadd(d, mmv(a.v, b.d))
    return _D(mmv(a.v, b.v), d)


def _mm_vjp(g: _D, a: _D, b: _D, exact: bool) -> "tuple[_D, _D]":
    """Adjoints of both operands of the 2-D product a @ b, given the
    product's adjoint g: (g @ b.T, a.T @ g)."""
    ga = _mm(g, b.apply_linear(np.transpose), exact)
    gb = _mm(a.apply_linear(np.transpose), g, exact)
    return ga, gb


# ---------------------------------------------------------------------------
# Graph nodes
# ---------------------------------------------------------------------------

_NODE_IDS = itertools.count()


class Node:
    """One recorded operation result. Graphs are acyclic by construction:
    node ids increase in evaluation order, and the backward pass visits
    reachable nodes in decreasing id order."""

    __slots__ = ("val", "dot", "parents", "vjp", "adj", "idx")

    def __init__(self, val, dot=None, parents=(), vjp=None):
        self.val = val
        self.dot = dot
        self.parents = parents
        self.vjp = vjp
        self.adj: _D | None = None
        self.idx = next(_NODE_IDS)

    def _dual(self) -> _D:
        return _D(self.val, self.dot)

    # Operator sugar; scalars and arrays coerce to constants.
    def __add__(self, o):
        return add(self, o)

    __radd__ = __add__

    def __sub__(self, o):
        return sub(self, o)

    def __rsub__(self, o):
        return sub(const(o), self)

    def __mul__(self, o):
        return mul(self, o)

    __rmul__ = __mul__

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, o):
        return matmul(self, o)

    def __pow__(self, p):
        return powc(self, p)


def _as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return const(x)


def const(x) -> Node:
    """Constant graph input; carries no gradient and no tangent."""
    return Node(np.asarray(x, dtype=np.float64) if not np.isscalar(x) else np.float64(x))


def add(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)

    def vjp(g: _D, acc):
        acc(a, g.unbroadcast(np.shape(a.val)))
        acc(b, g.unbroadcast(np.shape(b.val)))

    return Node(a.val + b.val, _dadd(a.dot, b.dot), (a, b), vjp)


def sub(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)

    def vjp(g: _D, acc):
        acc(a, g.unbroadcast(np.shape(a.val)))
        acc(b, (-g).unbroadcast(np.shape(b.val)))

    return Node(a.val - b.val, _dsub(a.dot, b.dot), (a, b), vjp)


def mul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)

    def vjp(g: _D, acc):
        acc(a, (g * b._dual()).unbroadcast(np.shape(a.val)))
        acc(b, (g * a._dual()).unbroadcast(np.shape(b.val)))

    return Node(a.val * b.val, _dmul(a.val, a.dot, b.val, b.dot), (a, b), vjp)


def matmul(a, b, exact: bool = False) -> Node:
    """Matrix product for the 1-D/2-D combinations np.matmul accepts."""
    a, b = _as_node(a), _as_node(b)
    da, db = a._dual(), b._dual()
    a_vec = np.ndim(a.val) == 1
    b_vec = np.ndim(b.val) == 1
    a2 = da if not a_vec else da.apply_linear(lambda x: x[None, :])
    b2 = db if not b_vec else db.apply_linear(lambda x: x[:, None])
    out2 = _mm(a2, b2, exact)
    out = out2
    if a_vec:
        out = out.apply_linear(lambda x: x[0])
    if b_vec:
        out = out.apply_linear(lambda x: x[..., 0])

    def vjp(g: _D, acc):
        g2 = g
        if a_vec:
            g2 = g2.apply_linear(lambda x: np.reshape(x, (1, -1)))
        elif b_vec:
            g2 = g2.apply_linear(lambda x: np.reshape(x, (-1, 1)))
        ga, gb = _mm_vjp(g2, a2, b2, exact)
        if a_vec:
            ga = ga.apply_linear(lambda x: x[0])
        if b_vec:
            gb = gb.apply_linear(lambda x: x[:, 0])
        acc(a, ga)
        acc(b, gb)

    return Node(out.v, out.d, (a, b), vjp)


def affine(h, w, b, exact: bool = False) -> Node:
    """One node for the affine map h @ w + b: h (n, i), w (i, o), and b
    broadcasting to (n, o). The same two numpy operations as `matmul`
    followed by `add`, so the same bits, without a node (and an adjoint)
    for the product in between."""
    h, w, b = _as_node(h), _as_node(w), _as_node(b)
    if np.ndim(h.val) != 2 or np.ndim(w.val) != 2:
        raise ValueError("affine needs a 2-D input and a 2-D weight")
    out = _mm(h._dual(), w._dual(), exact)
    # The product is a fresh array, so the bias is added in place.
    val = out.v
    val += b.val
    dot = out.d
    if dot is None:
        dot = b.dot
    elif b.dot is not None:
        dot += b.dot

    def vjp(g: _D, acc):
        gh, gw = _mm_vjp(g, h._dual(), w._dual(), exact)
        acc(h, gh)
        acc(w, gw)
        acc(b, g.unbroadcast(np.shape(b.val)))

    return Node(val, dot, (h, w, b), vjp)


def tanh(a) -> Node:
    a = _as_node(a)
    yv = np.tanh(a.val)
    yd = None if a.dot is None else (1.0 - yv * yv) * a.dot

    def vjp(g: _D, acc):
        # sech^2 = 1 - tanh^2 and its tangent -2 tanh * d(tanh)
        acc(a, g * _D(1.0 - yv * yv, None if yd is None else -2.0 * yv * yd))

    return Node(yv, yd, (a,), vjp)


def exp(a) -> Node:
    a = _as_node(a)
    yv = np.exp(a.val)
    yd = None if a.dot is None else yv * a.dot

    def vjp(g: _D, acc):
        acc(a, g * _D(yv, yd))

    return Node(yv, yd, (a,), vjp)


def log(a) -> Node:
    a = _as_node(a)

    def vjp(g: _D, acc):
        acc(a, g / a._dual())

    return Node(np.log(a.val), None if a.dot is None else a.dot / a.val, (a,), vjp)


def powc(a, p) -> Node:
    """a ** p for a constant exponent p."""
    a = _as_node(a)
    p = float(p)
    yd = None if a.dot is None else p * a.val ** (p - 1.0) * a.dot

    def vjp(g: _D, acc):
        deriv = p * a.val ** (p - 1.0)
        deriv_d = None if a.dot is None else p * (p - 1.0) * a.val ** (p - 2.0) * a.dot
        acc(a, g * _D(deriv, deriv_d))

    return Node(a.val ** p, yd, (a,), vjp)


def nsum(a, axis: int | None = None) -> Node:
    a = _as_node(a)

    def vjp(g: _D, acc):
        shape = np.shape(a.val)

        def expand(x):
            x = np.asarray(x)
            if axis is None:
                return np.broadcast_to(x, shape)
            return np.broadcast_to(np.expand_dims(x, axis), shape)

        acc(a, g.apply_linear(expand))

    dot = None if a.dot is None else np.sum(a.dot, axis=axis)
    return Node(np.sum(a.val, axis=axis), dot, (a,), vjp)


def nmean(a, axis: int | None = None) -> Node:
    a = _as_node(a)
    n = np.size(a.val) if axis is None else np.shape(a.val)[axis]
    return mul(nsum(a, axis=axis), 1.0 / float(n))


def gather_rows(a, idx) -> Node:
    """Pick one column per row: out[i] = a[i, idx[i]]."""
    a = _as_node(a)
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(idx.size)

    def vjp(g: _D, acc):
        n_cols = np.shape(a.val)[1]

        def scatter(x):
            z = np.zeros((idx.size, n_cols))
            z[rows, idx] = x
            return z

        acc(a, g.apply_linear(scatter))

    dot = None if a.dot is None else a.dot[rows, idx]
    return Node(a.val[rows, idx], dot, (a,), vjp)


def row_max_const(a) -> Node:
    """Row maxima, detached from the graph (constant shift for stable
    log-softmax; value and all derivatives of the composition stay exact)."""
    a = _as_node(a)
    return Node(np.max(a.val, axis=1, keepdims=True))


def reshape(a, shape) -> Node:
    a = _as_node(a)

    def vjp(g: _D, acc):
        old = np.shape(a.val)
        acc(a, g.apply_linear(lambda x: np.reshape(x, old)))

    dot = None if a.dot is None else np.reshape(a.dot, shape)
    return Node(np.reshape(a.val, shape), dot, (a,), vjp)


def _segment_node(leaf: Node, seg: Segment) -> Node:
    sl = slice(seg.offset, seg.offset + seg.size)

    def vjp(g: _D, acc):
        total = np.shape(leaf.val)[0]

        def place(x):
            z = np.zeros(total)
            z[sl] = np.reshape(x, -1)
            return z

        acc(leaf, g.apply_linear(place))

    dot = None if leaf.dot is None else leaf.dot[sl].reshape(seg.shape)
    return Node(leaf.val[sl].reshape(seg.shape), dot, (leaf,), vjp)


# ---------------------------------------------------------------------------
# Objectives over parameter vectors
# ---------------------------------------------------------------------------

Objective = Callable[["Params"], Node]


class Params:
    """Graph-side view of a ParamVector.

    An objective receives one of these; `vec` is the whole flat vector as a
    leaf node, `seg(name)` a named segment. Both views share one leaf, so
    gradients assemble into a single flat vector regardless of access style.
    """

    def __init__(self, pv: ParamVector, tangent: np.ndarray | None = None):
        self.layout = pv.segments
        dot = None if tangent is None else np.array(tangent, dtype=np.float64)
        # A ParamVector's values are already read-only float64: the leaf
        # shares them rather than copying.
        self._leaf = Node(pv.values, dot)
        self._seg_nodes: dict[str, Node] = {}

    @property
    def vec(self) -> Node:
        return self._leaf

    def seg(self, name: str) -> Node:
        node = self._seg_nodes.get(name)
        if node is None:
            for s in self.layout:
                if s.name == name:
                    node = _segment_node(self._leaf, s)
                    break
            else:
                raise KeyError(name)
            self._seg_nodes[name] = node
        return node


def _scalar_value(root: Node) -> float:
    if np.size(root.val) != 1:
        raise ValueError("objective must evaluate to a scalar")
    v = float(np.reshape(root.val, ()))
    if not np.isfinite(v):
        raise NonFiniteValue(f"objective evaluated to {v}")
    return v


def _reachable(root: Node) -> list[Node]:
    seen: set[int] = set()
    out: list[Node] = []
    stack = [root]
    while stack:
        n = stack.pop()
        if id(n) in seen:
            continue
        seen.add(id(n))
        out.append(n)
        stack.extend(n.parents)
    out.sort(key=lambda n: n.idx, reverse=True)
    return out


def _backward(root: Node, dual: bool) -> None:
    nodes = _reachable(root)
    root.adj = _D(np.float64(1.0), np.float64(0.0) if dual else None)

    def acc(node: Node, contrib: _D) -> None:
        if node.adj is None:
            node.adj = contrib
        else:
            node.adj = _D(node.adj.v + contrib.v, _dadd(node.adj.d, contrib.d))

    for n in nodes:
        if n.adj is None or n.vjp is None:
            continue
        n.vjp(n.adj, acc)
        # Every node that adds to this adjoint has a higher id, so all of
        # them ran before it. Leaves (no vjp) keep theirs for the caller.
        n.adj = None


def value(objective: Objective, at: ParamVector) -> float:
    """Evaluate an objective without differentiating it."""
    return _scalar_value(objective(Params(at)))


def grad_and_value(objective: Objective, at: ParamVector) -> tuple[Gradient, float]:
    """Reverse-mode gradient and the objective's value at `at`."""
    p = Params(at)
    root = objective(p)
    val = _scalar_value(root)
    _backward(root, dual=False)
    adj = p._leaf.adj
    g = np.zeros(at.size) if adj is None else np.asarray(adj.v, dtype=np.float64)
    if not np.all(np.isfinite(g)):
        raise NonFiniteValue("gradient contains NaN/Inf")
    return at.with_values(g), val


def grad(objective: Objective, at: ParamVector) -> Gradient:
    return grad_and_value(objective, at)[0]


def hvp(objective: Objective, at: ParamVector, v: Gradient) -> Gradient:
    """Hessian-vector product H(at) @ v via forward-over-reverse."""
    at._check_combinable(v)
    p = Params(at, tangent=v.values)
    root = objective(p)
    _scalar_value(root)
    _backward(root, dual=True)
    adj = p._leaf.adj
    if adj is None or adj.d is None:
        hv = np.zeros(at.size)
    else:
        hv = np.asarray(adj.d, dtype=np.float64)
    if not np.all(np.isfinite(hv)):
        raise NonFiniteValue("Hessian-vector product contains NaN/Inf")
    return at.with_values(hv)


# ---------------------------------------------------------------------------
# Finite-difference oracles (tests and `audit` only)
# ---------------------------------------------------------------------------

def fd_grad(objective: Objective, at: ParamVector, epsilon: float = 1e-5) -> Gradient:
    """Central-difference gradient, one coordinate at a time."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    # One scratch copy, perturbed one coordinate at a time and restored;
    # `with_values` copies it again for each evaluation.
    x = at.values.copy()
    g = np.zeros(at.size)
    for i in range(at.size):
        xi = x[i]
        x[i] = xi + epsilon
        hi = value(objective, at.with_values(x))
        x[i] = xi - epsilon
        lo = value(objective, at.with_values(x))
        x[i] = xi
        g[i] = (hi - lo) / (2.0 * epsilon)
    if not np.all(np.isfinite(g)):
        raise NonFiniteValue("finite-difference gradient contains NaN/Inf")
    return at.with_values(g)


def fd_hvp(
    objective: Objective, at: ParamVector, v: Gradient, epsilon: float = 1e-4
) -> Gradient:
    """Central difference of gradients along v: (g(at+eps*v) - g(at-eps*v)) / 2eps."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    hi = grad(objective, at.with_values(at.values + epsilon * v.values))
    lo = grad(objective, at.with_values(at.values - epsilon * v.values))
    return at.with_values((hi.values - lo.values) / (2.0 * epsilon))


def rel_err(a: np.ndarray | ParamVector, b: np.ndarray | ParamVector) -> float:
    """Max absolute difference, scaled by the larger vector's max magnitude."""
    av = a.values if isinstance(a, ParamVector) else np.asarray(a)
    bv = b.values if isinstance(b, ParamVector) else np.asarray(b)
    scale = max(float(np.max(np.abs(av), initial=0.0)), float(np.max(np.abs(bv), initial=0.0)), 1e-12)
    return float(np.max(np.abs(av - bv), initial=0.0)) / scale
