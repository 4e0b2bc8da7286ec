"""Stochastic policies and value critics as differentiable graphs.

Both actors and critics are 2-hidden-layer (64, 64) tanh MLPs over flat
ParamVectors. Discrete actions use a categorical head over logits; continuous
actions use a Gaussian head with a state-independent learnable log-sigma
segment, sampled then clipped into the action interval (log-density is of the
pre-clip sample).

Lockstep guarantee: `forward_inference` takes its affine maps with einsum
(its C routine, bound once at import, as is `count_nonzero`'s, which counts
the sampling step's finite values), whose result for a row does not depend
on the other rows of the batch, and every other call of a sampling step is
elementwise: the categorical head folds a row's columns one call
per column and picks its action from the running sums of the first n-1
probabilities. A row sampled in a lockstep batch therefore gets the same
head outputs, action and raw sample as that row sampled alone or in any
subset of the batch. The graphs (`logprob_graph`, `values_graph`) use
np.matmul, which is faster on large batches but whose rows may differ from
einsum's in the last bits.
Learners recompute log pi(a|s) through the graph on the frozen batch, so
sampling keeps no log-probability.

Each action consumes one variate (`draw_variates`): a uniform on [0, 1) for
the categorical head, a standard normal for the Gaussian head. `act_batch`
takes them as an array, one per row, so a caller may draw a trajectory's
variates for the whole horizon in one call.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass

import numpy as np

from numpy._core.multiarray import c_einsum as _c_einsum
from numpy._core.multiarray import count_nonzero as _count_nonzero

from . import autodiff as ad
from .autodiff import ParamVector, Params, Segment, _fold_columns
from .envs import Box, Discrete, Environment
from .errors import NonFiniteValue, ParseError
from .rng import Stream
from .runlog import write_atomic

__all__ = [
    "Arch",
    "PolicyNet",
    "actor_arch",
    "critic_arch",
    "init_params",
    "forward_inference",
    "draw_variates",
    "act_batch",
    "logprob_graph",
    "values_graph",
    "save_checkpoint",
    "load_checkpoint",
]

HIDDEN = (64, 64)
LOG_SIGMA_INIT = float(np.log(2.0))
HALF_LOG_2PI = 0.5 * float(np.log(2.0 * np.pi))
# the largest float64 x for which np.exp(x) is finite
_EXP_ARG_MAX = float(np.log(np.finfo(np.float64).max))


@dataclass(frozen=True)
class Arch:
    """Layer plan; head is the action set (Discrete or Box), None for a critic."""

    input_dim: int
    hidden: tuple[int, ...]
    head: "Discrete | Box | None"

    @property
    def out_dim(self) -> int:
        if isinstance(self.head, Discrete):
            return self.head.n
        return 1

    @property
    def layer_sizes(self) -> tuple[int, ...]:
        return (self.input_dim, *self.hidden, self.out_dim)

    def segments(self) -> tuple[Segment, ...]:
        segs: list[Segment] = []
        off = 0
        sizes = self.layer_sizes
        for i, (a, b) in enumerate(zip(sizes[:-1], sizes[1:])):
            segs.append(Segment(f"W{i}", off, (a, b)))
            off += a * b
            segs.append(Segment(f"b{i}", off, (b,)))
            off += b
        if isinstance(self.head, Box):
            segs.append(Segment("log_sigma", off, (1,)))
        return tuple(segs)

    @functools.cached_property
    def layer_names(self) -> tuple[tuple[str, str], ...]:
        """(weight, bias) segment names of each affine layer, in order."""
        return tuple((f"W{i}", f"b{i}") for i in range(len(self.layer_sizes) - 1))


@dataclass(frozen=True)
class PolicyNet:
    arch: Arch
    params: ParamVector


def actor_arch(env: Environment) -> Arch:
    return Arch(env.state_dim, HIDDEN, env.action_spec)


def critic_arch(env: Environment) -> Arch:
    return Arch(env.state_dim, HIDDEN, None)


def init_params(arch: Arch, rng: Stream) -> ParamVector:
    """Uniform(+-sqrt(3/fan_in)) weights (variance 1/fan_in), zero biases,
    log-sigma = log(2.0); the weights come from the generator of `rng`."""
    gen = rng.generator()
    sizes = arch.layer_sizes
    chunks: list[np.ndarray] = []
    for a, b in zip(sizes[:-1], sizes[1:]):
        bound = np.sqrt(3.0 / a)
        chunks.append(gen.uniform(-bound, bound, size=(a, b)).ravel())
        chunks.append(np.zeros(b))
    if isinstance(arch.head, Box):
        chunks.append(np.array([LOG_SIGMA_INIT]))
    return ParamVector(np.concatenate(chunks), arch.segments())


# ---------------------------------------------------------------------------
# Forward passes
# ---------------------------------------------------------------------------

def forward_inference(arch: Arch, params: ParamVector, states: np.ndarray) -> np.ndarray:
    """Head outputs (n, out_dim) for a batch of states, plain numpy.

    Uses einsum for the affine maps: per-row results are independent of the
    batch, which the lockstep rollout relies on. Mirrors `_forward_graph` op
    for op, with einsum where the graph takes np.matmul. einsum is called as
    its C routine, which `np.einsum` forwards to unchanged when it is not
    asked to optimize, so the bits are np.einsum's without its Python layer.
    The layers read the vector's segment views, fetched once per call.
    """
    views = params._segment_views()
    *hidden, (w_out, b_out) = arch.layer_names
    h = np.asarray(states, dtype=np.float64)
    for w, b in hidden:
        # einsum returns a fresh array, so the bias and tanh go in place
        h = _c_einsum("ij,jk->ik", h, views[w])
        h += views[b]
        np.tanh(h, out=h)
    h = _c_einsum("ij,jk->ik", h, views[w_out])
    h += views[b_out]
    return h


def _forward_graph(arch: Arch, p: Params, states: "np.ndarray | ad.Node") -> ad.Node:
    """Head outputs as a graph: one `tanh_affine` node per hidden layer, one
    `affine` node for the output layer, each built by `Params.layer`.
    `states` is an array or a constant node holding one; only a constant
    node the caller reuses lets `fd_grad` reuse layers across evaluations."""
    h = states if isinstance(states, ad.Node) else ad.const(np.asarray(states, dtype=np.float64))
    *hidden, (w_out, b_out) = arch.layer_names
    for w, b in hidden:
        h = p.layer(ad.tanh_affine, h, w, b)
    return p.layer(ad.affine, h, w_out, b_out)


# ---------------------------------------------------------------------------
# Sampling
# ---------------------------------------------------------------------------

def draw_variates(arch: Arch, gen: np.random.Generator, n: int) -> np.ndarray:
    """The variates of n successive actions: uniforms on [0, 1) for a
    categorical head, standard normals for a Gaussian head. For PCG64 one
    call of size n gives the same bits as n calls of size one."""
    if isinstance(arch.head, Discrete):
        return gen.random(n)
    if isinstance(arch.head, Box):
        return gen.standard_normal(n)
    raise ValueError("critic networks have no action head")


def act_batch(
    net: PolicyNet, states: np.ndarray, variates: np.ndarray
) -> "tuple[np.ndarray, np.ndarray]":
    """Sample one action per row, row j consuming variates[j] (see
    draw_variates). Returns (actions, raws); actions are env-ready (clipped
    for Gaussian heads), raws are the differentiation targets. Raises
    NonFiniteValue when the sampled distribution is not finite: a logit
    shift, a raw sample, or the inverse scale exp(-log_sigma) that the
    log-density takes."""
    states = np.asarray(states, dtype=np.float64)
    u = np.asarray(variates, dtype=np.float64)
    n = states.shape[0]
    if u.shape != (n,):
        raise ValueError(f"need one variate per state row: {n} rows, variates of shape {u.shape}")
    out = forward_inference(net.arch, net.params, states)
    head = net.arch.head
    if isinstance(head, Discrete):
        # out is this call's own array, so the logit shift is formed in its
        # buffer; the row max and the row sum are column folds, as in
        # log_softmax_pick
        out -= _fold_columns(np.maximum, out)[:, None]
        finite = _count_nonzero(np.isfinite(out)) == out.size
        lse = np.log(_fold_columns(np.add, np.exp(out)))
        # the action is the count of the first n-1 running sums of the
        # probabilities exp(out[:, j] - lse) that are <= u, which is
        # searchsorted(running sums, u, side="right") capped at n-1: a
        # running sum of non-negative terms never decreases, and the last
        # one, whatever it rounds to, is never compared
        c = np.exp(out[:, 0] - lse)
        acts = (c <= u).astype(np.int64)
        for j in range(1, out.shape[1] - 1):
            c = c + np.exp(out[:, j] - lse)
            acts += c <= u
        actions = raws = acts
    elif isinstance(head, Box):
        logsig = net.params.segment("log_sigma")
        # raws = mean + sigma * u, formed in the mean's column of out;
        # an overflow is reported as NonFiniteValue below
        raws = out[:, 0]
        with np.errstate(over="ignore"):
            raws += np.exp(logsig)[0] * u
        # logprob_graph scales by exp(-log_sigma), which is finite exactly
        # where -log_sigma is at most _EXP_ARG_MAX
        finite = _count_nonzero(np.isfinite(raws)) == n and -logsig[0] <= _EXP_ARG_MAX
        actions = np.clip(raws, head.low, head.high)
    else:
        raise ValueError("critic networks have no action head")
    if not finite:
        raise NonFiniteValue("sampled action distribution is not finite")
    return actions, raws


# ---------------------------------------------------------------------------
# Differentiable log-probabilities and values
# ---------------------------------------------------------------------------

def logprob_graph(
    arch: Arch, p: Params, states: "np.ndarray | ad.Node", actions: "np.ndarray | ad.Picks"
) -> ad.Node:
    """(n,) log pi(a_j | s_j) as a graph over p. `states` is an array or a
    constant node holding one, which an objective evaluated many times
    builds once. For categorical heads `actions` are the action indices, or
    `ad.Picks` of them, which such an objective prepares once; for Gaussian
    heads they must be the raw pre-clip samples."""
    out = _forward_graph(arch, p, states)
    head = arch.head
    if isinstance(head, Discrete):
        return ad.log_softmax_pick(out, actions)
    if isinstance(head, Box):
        n = out.val.shape[0]
        mean = ad.reshape(out, (n,))
        raw = np.asarray(actions, dtype=np.float64)
        z = (ad.const(raw) - mean) * ad.exp(-p.seg("log_sigma"))
        return ad.const(-0.5) * z * z - p.seg("log_sigma") - ad.const(HALF_LOG_2PI)
    raise ValueError("critic networks have no action head")


def values_graph(arch: Arch, p: Params, states: np.ndarray) -> ad.Node:
    """(n,) state values as a graph over critic params."""
    out = _forward_graph(arch, p, states)
    return ad.reshape(out, (np.asarray(states).shape[0],))


# ---------------------------------------------------------------------------
# Checkpoint container: named flat f64-LE vectors behind a layout header
# ---------------------------------------------------------------------------

_MAGIC = b"MRLP"
_VERSION = 1


def _pack_str(s: str) -> bytes:
    raw = s.encode("utf-8")
    return struct.pack("<I", len(raw)) + raw


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take_bytes(self, n: int) -> bytes:
        """The next n bytes: the one bounds check of the reader."""
        if self.pos + n > len(self.buf):
            raise ParseError("checkpoint truncated")
        out = self.buf[self.pos : self.pos + n]
        self.pos += n
        return out

    def take(self, fmt: str):
        return struct.unpack(fmt, self.take_bytes(struct.calcsize(fmt)))

    def take_str(self) -> str:
        (n,) = self.take("<I")
        raw = self.take_bytes(n)
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError:
            raise ParseError(f"checkpoint string at byte {self.pos - n} is not UTF-8") from None

    def take_f64(self, count: int) -> np.ndarray:
        return np.frombuffer(self.take_bytes(8 * count), dtype="<f8").astype(np.float64)


def save_checkpoint(
    path, vectors: "dict[str, ParamVector]", meta: "dict[str, int] | None" = None
) -> None:
    """Write named parameter vectors plus integer metadata, atomically.
    Self-describing: magic, version, metadata pairs, then per vector its
    segment table and a flat little-endian f64 array."""
    meta = meta or {}
    parts = [_MAGIC, struct.pack("<I", _VERSION), struct.pack("<I", len(meta))]
    for key, val in meta.items():
        parts.append(_pack_str(key))
        parts.append(struct.pack("<q", int(val)))
    parts.append(struct.pack("<I", len(vectors)))
    for name, pv in vectors.items():
        parts.append(_pack_str(name))
        parts.append(struct.pack("<I", len(pv.segments)))
        for seg in pv.segments:
            parts.append(_pack_str(seg.name))
            parts.append(struct.pack("<QI", seg.offset, len(seg.shape)))
            parts.append(struct.pack(f"<{len(seg.shape)}Q", *seg.shape))
        parts.append(struct.pack("<Q", pv.size))
        parts.append(np.ascontiguousarray(pv.values, dtype="<f8").tobytes())
    write_atomic(path, b"".join(parts))


def load_checkpoint(path) -> "tuple[dict[str, ParamVector], dict[str, int]]":
    """Named vectors and integer metadata of a checkpoint; a ParseError names the file."""
    with open(path, "rb") as fh:
        rd = _Reader(fh.read())
    try:
        magic = rd.take_bytes(4)
        if magic != _MAGIC:
            raise ParseError(f"not a parameter checkpoint (magic {magic!r})")
        (version,) = rd.take("<I")
        if version != _VERSION:
            raise ParseError(f"unsupported checkpoint version {version}")
        (n_meta,) = rd.take("<I")
        meta: dict[str, int] = {}
        for _ in range(n_meta):
            key = rd.take_str()
            (val,) = rd.take("<q")
            if key in meta:
                raise ParseError(f"checkpoint repeats metadata key {key!r}")
            meta[key] = val
        (n_vecs,) = rd.take("<I")
        vectors: dict[str, ParamVector] = {}
        for _ in range(n_vecs):
            name = rd.take_str()
            (n_segs,) = rd.take("<I")
            segs = []
            for _ in range(n_segs):
                seg_name = rd.take_str()
                offset, ndim = rd.take("<QI")
                shape = rd.take(f"<{ndim}Q") if ndim else ()
                segs.append(Segment(seg_name, int(offset), tuple(int(d) for d in shape)))
            (size,) = rd.take("<Q")
            values = rd.take_f64(int(size))
            if name in vectors:
                raise ParseError(f"checkpoint repeats vector {name!r}")
            try:
                vectors[name] = ParamVector(values, segs)
            except ValueError as e:  # a segment table that does not lay out the values
                raise ParseError(f"checkpoint vector {name!r}: {e}") from None
        if rd.pos != len(rd.buf):
            raise ParseError(f"checkpoint has {len(rd.buf) - rd.pos} bytes after its last vector")
    except ParseError as e:
        raise ParseError(f"{path}: {e}") from None
    return vectors, meta
