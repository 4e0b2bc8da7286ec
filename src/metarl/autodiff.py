"""Reverse-mode autodiff over flat parameter vectors, with exact Hessian-vector products.

Scope is deliberately small: dense float64 parameter vectors, a few
primitive operations (affine maps, products, exp, sums/means, reshapes), two
fused nodes for a policy's layers and head, and scalar objectives. The
computation graph is rebuilt on every evaluation; nothing persists between
calls, so there is no stale-tape state to manage and graphs can safely cross
threads.

Parameters enter a graph one segment at a time: `Params.seg(name)` is a
leaf whose value (and tangent) is the ParamVector's cached read-only view
(`ParamVector.segment`), the one rollouts read. `grad` and `hvp` lay the
leaves' adjoints out as one flat vector: zeros, with each leaf's adjoint
added into its segment's slice.

`affine(h, w, b)` records a network layer's h @ w + b as one node: np.matmul
then the bias add, with no node, tangent or adjoint kept for the product in
between. Its vjp takes the product rule from `_mm`. Other products are
spelled with broadcast `mul` and `nsum`.

Fused nodes record a policy's log-probability graph with few nodes.
`tanh_affine(h, w, b)` is a hidden layer, tanh(h @ w + b), with the tanh
taken in place on the fresh product. `log_softmax_pick(logits, idx)` is the
categorical head, log softmax(logits)[i, idx[i]]. Each fused vjp runs the
`_D` operations of the primitives it stands for in the backward pass's
order, through the private rules (`_tanh_adjoint`, `_affine_adjoints`,
`_spread`, `_scatter_rows`). Those primitives (`tanh`, `log`, `gather_rows`,
`row_max_const`) live in `tests/_helpers.py`, built on the same rules, as
the bitwise reference the tests compare the fused nodes against. So does
`add`: no library objective sums two nodes, and a node's operators are
`-`, `*` and negation, with the node on the left.

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
forward would have captured. The categorical head's node keeps the
(rows x columns) arrays its forward made anyway, which its rules read.

Forward cost rule: a node costs its numpy operations plus a few attribute
reads, so the fewer nodes a graph has, the less it pays beyond numpy.
Reductions call the ufunc (`np.add.reduce`, `np.maximum.reduce`), not the
`np.sum`/`np.max` wrappers; shapes come from array attributes; a segment
leaf is the view its ParamVector already keeps; a float64 array becomes a
constant as it is, and an objective evaluated many times builds its
constants once. A node that no parameter leaf reaches (`needs` false) is a
constant: no vjp gives it an adjoint, so the backward pass computes no
product only a constant would read.

Release rule: the backward pass frees each node's adjoint, value, tangent
and vjp once its vjp has run: all that add to that adjoint or read those
arrays have higher ids and ran first. A leaf keeps its adjoint, which `grad`
and `hvp` read; a constant is left whole. So one graph serves one backward
pass. Rules build their (rows x width) temporaries in buffers of their own
(`out=`, `+=`), never in an adjoint or value another node may hold, with the
same bits. The one exception is a node's own arrays: when `tanh_affine`'s
vjp runs, every reader of its value and tangent has run, so the tanh rule
forms its adjoint pair in them, through one temporary, and the vjp releases
its adjoint (a pair `acc` stored for this node alone) once the rule has read
it. No pre-activation is ever held: on a policy with two 64-wide hidden
layers, an `hvp`'s forward graph ends holding four (rows x 64) arrays, the
hidden outputs and their tangents, and its backward pass at most seven.

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
import math
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
    "sub",
    "mul",
    "affine",
    "tanh_affine",
    "exp",
    "nsum",
    "nmean",
    "log_softmax_pick",
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
    if not np.logical_and.reduce(np.isfinite(arr)):
        raise NonFiniteValue("parameter vector contains NaN/Inf")
    return arr


class ParamVector:
    """Flat float64 parameter vector with a named-segment layout.

    Values are immutable after construction. Two vectors combine (add, scale,
    elementwise multiply) only when their layouts are identical. The layout's
    index, segment name -> (slice, shape), is built once and shared by every
    vector `with_values` derives.
    """

    __slots__ = ("values", "segments", "_index", "_views")

    def __init__(self, values: np.ndarray, segments: Sequence[Segment]):
        arr = _checked_values(values)
        segs = tuple(segments)
        offset = 0
        index = {}
        for s in segs:
            if s.offset != offset:
                raise ValueError(f"segment {s.name!r} not contiguous at offset {offset}")
            if s.name in index:
                raise ValueError(f"segment {s.name!r} appears twice")
            index[s.name] = (slice(s.offset, s.offset + s.size), s.shape)
            offset += s.size
        if offset != arr.size:
            raise ValueError(f"segments cover {offset} values, vector has {arr.size}")
        self._init(arr, segs, index)

    def _init(self, arr: np.ndarray, segs: "tuple[Segment, ...]", index: dict) -> None:
        arr.setflags(write=False)
        object.__setattr__(self, "values", arr)
        object.__setattr__(self, "segments", segs)
        object.__setattr__(self, "_index", index)
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
            views = {name: self.values[sl].reshape(shape) for name, (sl, shape) in self._index.items()}
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
        out._init(arr, self.segments, self._index)
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


def _dsum(a, b):
    """`_dadd` for an `a` the caller has just made: formed in `a` when it has the sum's shape."""
    if a is None or b is None or a.shape != b.shape:
        return _dadd(a, b)
    a += b
    return a


def _dmul(xv, xd, yv, yd):
    """Tangent of a product x*y by the product rule."""
    d = None
    if xd is not None:
        d = xd * yv
    if yd is not None:
        d = _dsum(d, xv * yd)
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

    def __add__(self, o: "_D") -> "_D":
        return _D(self.v + o.v, _dadd(self.d, o.d))

    def __neg__(self):
        return _D(-self.v, None if self.d is None else -self.d)

    def __mul__(self, o: "_D") -> "_D":
        return _D(self.v * o.v, _dmul(self.v, self.d, o.v, o.d))

    def __truediv__(self, o: "_D") -> "_D":
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


def _mm(a: _D, b: _D) -> _D:
    """Dual matrix product."""
    d = None
    if a.d is not None:
        d = np.matmul(a.d, b.v)
    if b.d is not None:
        d = _dsum(d, np.matmul(a.v, b.d))
    return _D(np.matmul(a.v, b.v), d)


# ---------------------------------------------------------------------------
# Graph nodes
# ---------------------------------------------------------------------------

_NODE_IDS = itertools.count()
_F64 = np.dtype(np.float64)


class Node:
    """One recorded operation result. Graphs are acyclic by construction:
    node ids increase in evaluation order, and the backward pass visits
    reachable nodes in decreasing id order. `needs` is true when a parameter
    leaf reaches the node; only such nodes are given an adjoint."""

    __slots__ = ("val", "dot", "parents", "vjp", "needs", "adj", "idx")

    def __init__(self, val, dot=None, parents=(), vjp=None, needs=False):
        self.val = val
        self.dot = dot
        self.parents = parents
        self.vjp = vjp
        self.needs = needs
        self.adj: _D | None = None
        self.idx = next(_NODE_IDS)

    def _dual(self) -> _D:
        return _D(self.val, self.dot)

    # Operator sugar; a scalar or array on the right coerces to a constant.
    def __sub__(self, o):
        return sub(self, o)

    def __mul__(self, o):
        return mul(self, o)

    def __neg__(self):
        return mul(self, -1.0)


def _as_node(x) -> Node:
    if isinstance(x, Node):
        return x
    return const(x)


def const(x) -> Node:
    """Constant graph input; carries no gradient and no tangent. A float64
    array is taken as it is, as `np.asarray` would."""
    if type(x) is not np.ndarray or x.dtype is not _F64:
        x = np.asarray(x, dtype=np.float64) if not np.isscalar(x) else np.float64(x)
    return Node(x)


def sub(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)

    def vjp(g: _D, acc):
        if a.needs:
            acc(a, g.unbroadcast(a.val.shape))
        if b.needs:
            acc(b, (-g).unbroadcast(b.val.shape))

    return Node(a.val - b.val, _dsub(a.dot, b.dot), (a, b), vjp, a.needs or b.needs)


def mul(a, b) -> Node:
    a, b = _as_node(a), _as_node(b)

    def vjp(g: _D, acc):
        if a.needs:
            acc(a, (g * b._dual()).unbroadcast(a.val.shape))
        if b.needs:
            acc(b, (g * a._dual()).unbroadcast(b.val.shape))

    return Node(a.val * b.val, _dmul(a.val, a.dot, b.val, b.dot), (a, b), vjp, a.needs or b.needs)


def _affine_pair(h: Node, w: Node, b: Node):
    """Value and tangent of h @ w + b: `_mm`'s products taken directly, the
    bias added in place on the fresh product. The tangent is b's own when
    only b carries one."""
    if h.val.ndim != 2 or w.val.ndim != 2:
        raise ValueError("affine needs a 2-D input and a 2-D weight")
    dot = None
    if h.dot is not None:
        dot = np.matmul(h.dot, w.val)
    if w.dot is not None:
        dot = _dsum(dot, np.matmul(h.val, w.dot))
    val = np.matmul(h.val, w.val)
    val += b.val
    if dot is None:
        dot = b.dot
    elif b.dot is not None:
        dot += b.dot
    return val, dot


def _affine_adjoints(h: Node, w: Node, b: Node, g: _D, acc) -> None:
    """The product rule of h @ w + b under adjoint g, for the operands a
    parameter reaches: g @ w.T, h.T @ g, and g summed down to b's shape."""
    if h.needs:
        acc(h, _mm(g, w._dual().apply_linear(np.transpose)))
    if w.needs:
        acc(w, _mm(h._dual().apply_linear(np.transpose), g))
    if b.needs:
        acc(b, g.unbroadcast(b.val.shape))


def affine(h, w, b) -> Node:
    """One node for the affine map h @ w + b: h (n, i), w (i, o), and b
    broadcasting to (n, o). The bits of np.matmul followed by the add,
    without a node (and an adjoint) for the product in between."""
    h, w, b = _as_node(h), _as_node(w), _as_node(b)
    val, dot = _affine_pair(h, w, b)

    def vjp(g: _D, acc):
        _affine_adjoints(h, w, b, g, acc)

    return Node(val, dot, (h, w, b), vjp, h.needs or w.needs or b.needs)


def _sech2(y: np.ndarray, out=None) -> np.ndarray:
    """1 - y * y for an array y = tanh(x), formed in `out` when one is given
    and in one fresh buffer otherwise."""
    s = np.multiply(y, y, out=out)
    return np.subtract(1.0, s, out=s)


def _tanh_adjoint(yv: np.ndarray, yd: "np.ndarray | None", g: _D) -> _D:
    """g * (sech^2, -2 tanh * d(tanh)) for y = tanh(x) with value yv and
    tangent yd: the bits of `_D.__mul__` (IEEE products and sums commute).
    yv and yd are arrays no reader needs any more, and the pair is formed in
    them, through one temporary (sech^2) when yd is present."""
    if yd is None:
        s = _sech2(yv, yv)
        d = None if g.d is None else s * g.d
        s *= g.v
        return _D(s, d)
    sech2 = _sech2(yv)
    d = np.multiply(yv, -2.0, out=yv)
    d *= yd
    d *= g.v
    if g.d is not None:
        d += np.multiply(sech2, g.d, out=yd)
    return _D(np.multiply(sech2, g.v, out=yd), d)


def tanh_affine(h, w, b) -> Node:
    """One node for the hidden layer tanh(h @ w + b): the bits of `affine`
    followed by a tanh, taken in place on the fresh product, so no
    pre-activation value, tangent or adjoint is kept.

    The vjp runs the tanh rule, then `affine`'s. Every consumer of this
    node has a higher id and has run, so the tanh rule forms its pair in the
    node's own value and tangent; the adjoint g, which is this node's alone
    and which the backward pass drops after the vjp, is released once read."""
    h, w, b = _as_node(h), _as_node(w), _as_node(b)
    yv, pre_dot = _affine_pair(h, w, b)
    np.tanh(yv, out=yv)
    yd = None
    if pre_dot is not None:
        yd = _sech2(yv)
        yd *= pre_dot

    def vjp(g: _D, acc):
        pair = _tanh_adjoint(yv, yd, g)
        g.v = g.d = None
        _affine_adjoints(h, w, b, pair, acc)

    return Node(yv, yd, (h, w, b), vjp, h.needs or w.needs or b.needs)


def exp(a) -> Node:
    a = _as_node(a)
    yv = np.exp(a.val)
    yd = None if a.dot is None else yv * a.dot

    def vjp(g: _D, acc):
        acc(a, g * _D(yv, yd))

    return Node(yv, yd, (a,), vjp, a.needs)


def _spread(g: _D, axis: "int | None", shape: "tuple[int, ...]") -> _D:
    """`nsum`'s rule: the adjoint of a sum, broadcast back over `shape`."""

    def expand(x):
        x = np.asarray(x)
        if axis is None:
            return np.broadcast_to(x, shape)
        return np.broadcast_to(np.expand_dims(x, axis), shape)

    return g.apply_linear(expand)


def nsum(a, axis: int | None = None) -> Node:
    a = _as_node(a)

    def vjp(g: _D, acc):
        acc(a, _spread(g, axis, a.val.shape))

    dot = None if a.dot is None else np.add.reduce(a.dot, axis=axis)
    return Node(np.add.reduce(a.val, axis=axis), dot, (a,), vjp, a.needs)


def nmean(a, axis: int | None = None) -> Node:
    a = _as_node(a)
    n = a.val.size if axis is None else a.val.shape[axis]
    return mul(nsum(a, axis=axis), 1.0 / float(n))


def _scatter_rows(g: _D, rows: np.ndarray, idx: np.ndarray, n_cols: int) -> _D:
    """The rule of a row gather out[i] = a[i, idx[i]]: row i's adjoint
    placed in column idx[i] of zeros."""

    def scatter(x):
        z = np.zeros((idx.size, n_cols))
        z[rows, idx] = x
        return z

    return g.apply_linear(scatter)


def log_softmax_pick(logits, idx) -> Node:
    """One node for the categorical log-probability
    out[i] = log softmax(logits[i])[idx[i]]: the bits of
    shift = logits - row_max_const(logits), then
    gather_rows(shift, idx) - log(nsum(exp(shift), axis=1)), without a node
    for any step between. The row max is a constant shift (value and all
    derivatives stay exact).

    The vjp runs the composed rules in the backward pass's order: the final
    subtraction's, the gather's, `log`'s, `nsum`'s and `exp`'s, then sums
    the two paths into the shift as the backward pass sums contributions;
    the shift's own rule passes that sum to the logits unchanged. The
    (rows x columns) arrays the rules read are kept from the forward."""
    a = _as_node(logits)
    idx = np.asarray(idx, dtype=np.int64)
    rows = np.arange(idx.size)
    sv = a.val - np.maximum.reduce(a.val, axis=1, keepdims=True)
    sd = a.dot
    ev = np.exp(sv)
    ed = None if sd is None else ev * sd
    zv = np.add.reduce(ev, axis=1)
    zd = None if ed is None else np.add.reduce(ed, axis=1)
    lv = np.log(zv)
    ld = None if zd is None else zd / zv
    val = sv[rows, idx] - lv
    dot = _dsub(None if sd is None else sd[rows, idx], ld)

    def vjp(g: _D, acc):
        log_adj = -g
        picked = _scatter_rows(g, rows, idx, ev.shape[1])
        through_exp = _spread(log_adj / _D(zv, zd), 1, ev.shape) * _D(ev, ed)
        acc(a, picked + through_exp)

    return Node(val, dot, (a,), vjp, a.needs)


def reshape(a, shape) -> Node:
    a = _as_node(a)

    def vjp(g: _D, acc):
        old = a.val.shape
        acc(a, g.apply_linear(lambda x: np.reshape(x, old)))

    dot = None if a.dot is None else np.reshape(a.dot, shape)
    return Node(np.reshape(a.val, shape), dot, (a,), vjp, a.needs)


# ---------------------------------------------------------------------------
# Objectives over parameter vectors
# ---------------------------------------------------------------------------

Objective = Callable[["Params"], Node]


class Params:
    """Graph-side view of a ParamVector, with an optional tangent vector of
    the same layout.

    An objective receives one of these and reads its parameters segment by
    segment: `seg(name)` is a leaf node whose value (and tangent) is the
    vector's cached read-only view of that segment. `_flat` lays the leaves'
    adjoints out as one flat vector."""

    def __init__(self, pv: ParamVector, tangent: "ParamVector | None" = None):
        self._pv, self._tangent = pv, tangent
        self._segs: dict[str, Node] = {}

    def seg(self, name: str) -> Node:
        node = self._segs.get(name)
        if node is None:
            dot = None if self._tangent is None else self._tangent.segment(name)
            node = self._segs[name] = Node(self._pv.segment(name), dot, needs=True)
        return node

    def _flat(self, part: str) -> np.ndarray:
        """The leaves' adjoints (`part` "v") or adjoint tangents ("d") as one
        flat vector: zeros, then each leaf's added into its segment's slice.
        These are the bits of summing the segments' adjoints zero-padded to
        full length, so a -0.0 becomes +0.0."""
        out = np.zeros(self._pv.size)
        for name, node in self._segs.items():
            x = None if node.adj is None else getattr(node.adj, part)
            if x is not None:
                out[self._pv._index[name][0]] += np.reshape(x, -1)
        return out


def _scalar_value(root: Node) -> float:
    if root.val.size != 1:
        raise ValueError("objective must evaluate to a scalar")
    v = float(root.val.reshape(()))
    if not math.isfinite(v):
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
    if not root.needs:  # no parameter reaches the root: every adjoint is 0
        return
    nodes = _reachable(root)
    root.adj = _D(np.float64(1.0), np.float64(0.0) if dual else None)

    def acc(node: Node, contrib: _D) -> None:
        node.adj = contrib if node.adj is None else node.adj + contrib

    for n in nodes:
        if n.adj is None or n.vjp is None:
            continue
        n.vjp(n.adj, acc)
        # Whatever adds to this adjoint or reads these arrays has a higher
        # id and has run. Leaves keep their adjoint for the caller;
        # constants, which objectives may share, are never visited.
        n.adj = n.val = n.dot = n.vjp = None


def value(objective: Objective, at: ParamVector) -> float:
    """Evaluate an objective without differentiating it."""
    return _scalar_value(objective(Params(at)))


def grad_and_value(objective: Objective, at: ParamVector) -> tuple[Gradient, float]:
    """Reverse-mode gradient and the objective's value at `at`."""
    p = Params(at)
    root = objective(p)
    val = _scalar_value(root)
    _backward(root, dual=False)
    g = p._flat("v")
    if not np.all(np.isfinite(g)):
        raise NonFiniteValue("gradient contains NaN/Inf")
    return at.with_values(g), val


def grad(objective: Objective, at: ParamVector) -> Gradient:
    return grad_and_value(objective, at)[0]


def hvp(objective: Objective, at: ParamVector, v: Gradient) -> Gradient:
    """Hessian-vector product H(at) @ v via forward-over-reverse."""
    at._check_combinable(v)
    p = Params(at, tangent=v)
    root = objective(p)
    _scalar_value(root)
    _backward(root, dual=True)
    hv = p._flat("d")
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
