"""Golden bytes: sha256 digests that any speed or refactor change must keep.

Two kinds of record are pinned:

- the `.runlog` of four tiny training runs (3 epochs, horizon 12, two tasks
  of two trajectories): MAML with the policy-gradient learner on cartpole,
  directed Meta-SGD, Reptile, and the actor-critic learner on intersection
  (Gaussian head plus critic);
- the value, gradient and Hessian-vector-product bytes of one composite
  objective that reaches every graph primitive, including the broadcast
  forms of add/sub/mul; its vector products are broadcast products summed
  along an axis, and its fractional power is exp(p * log(x)).

The digests were recorded with BLAS pinned to one thread (tests/conftest.py).
They hold on one numeric platform; a platform change regenerates them in a
change that says so.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from _helpers import add, gather_rows, log, row_max_const, tanh
from metarl import autodiff as ad
from metarl import cli
from metarl.rng import Stream

TINY = [
    "--horizon", "12",
    "--epochs", "3",
    "--m_tasks", "2",
    "--k_trajs", "2",
    "--eval_episodes", "2",
    "--alpha", "0.001",
    "--beta", "0.01",
    "--delta", "0.0005",
    "--conv_tau", "5.0",
    "--conv_window", "2",
    "--seed", "7",
]

RUNS = {
    "maml-pg-cartpole": ["--env", "cartpole", "--algorithm", "maml", "--learner", "pg"],
    "directed-metasgd-cartpole": ["--env", "cartpole", "--algorithm", "directed-metasgd"],
    "reptile-cartpole": ["--env", "cartpole", "--algorithm", "reptile"],
    "maml-ac-intersection": ["--env", "intersection", "--algorithm", "maml", "--learner", "ac"],
}

RUNLOG_SHA256 = {
    "maml-pg-cartpole": "475ca30c72cc0e127186fab9375aeae37859d758ace71900d68ccac778095554",
    "directed-metasgd-cartpole": "715e3fee47a1fdb86c640b7591e479ae18c3c5223bd2d01882cfc47ef0bd86d3",
    "reptile-cartpole": "e65ad87d93a9247fdbf0beef2b41c408f763a7d75217ca9719b77ca0f7365d03",
    "maml-ac-intersection": "b0a0d66b68878c98c6dd79a4ca8d4697baf4aacb4cf055b9cf98c1703430997b",
}

COMPOSITE_SHA256 = {
    "value": "641c8959721205c24c132ef302cdbc75847d0766480d55559d5a80bfa82b750b",
    "grad": "4fab3c52c3754a560d5bdceecec82eb04f7d211505817e4c7f8a3ce6cd6a016d",
    "hvp": "3ef0cb3b61b97041605311edc5b26ed13916e2f6af115a969e1a2b6aecdff89e",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def train_runlog(tmp_path, monkeypatch, name: str) -> bytes:
    # out_dir is part of the config fingerprint in the header: keep it fixed.
    monkeypatch.chdir(tmp_path)
    argv = ["train", *TINY, *RUNS[name], "--out_dir", "golden", "--label", name]
    assert cli.main(argv) == 0
    return (tmp_path / "golden" / f"{name}.runlog").read_bytes()


@pytest.mark.parametrize("name", sorted(RUNS))
def test_runlog_bytes(tmp_path, monkeypatch, name):
    assert _sha(train_runlog(tmp_path, monkeypatch, name)) == RUNLOG_SHA256[name]


# ---------------------------------------------------------------------------
# One objective through every primitive
# ---------------------------------------------------------------------------

SEGMENTS = (
    ad.Segment("W", 0, (3, 4)),
    ad.Segment("b", 12, (4,)),
    ad.Segment("u", 16, (4,)),
    ad.Segment("c", 20, (3,)),
    ad.Segment("s", 23, (1,)),
)
N_PARAMS = 24


def composite_inputs():
    gen = Stream(2024).generator()
    theta = ad.ParamVector(gen.uniform(-0.8, 0.8, N_PARAMS), SEGMENTS)
    tangent = theta.with_values(gen.standard_normal(N_PARAMS))
    states = gen.normal(size=(5, 3))
    actions = gen.integers(0, 4, size=5)
    adv = gen.normal(size=5)
    return theta, tangent, states, actions, adv


def composite_objective(states, actions, adv):
    def objective(p: ad.Params) -> ad.Node:
        W, b, u, c, s = (p.seg(n) for n in ("W", "b", "u", "c", "s"))
        x = ad.const(states)
        h = tanh(ad.affine(x, W, b))  # (5,3) @ (3,4) + (4,)
        he = tanh(ad.affine(x, W, -b))  # the bias negated
        logits = ad.exp(h * s) - he  # (5,4) * (1,)
        shift = logits - row_max_const(logits)  # (5,4) - (5,1)
        lse = log(ad.nsum(ad.exp(shift), axis=1))
        lp = gather_rows(shift, actions) - lse
        mv = ad.nsum(h * u, axis=1)  # h @ u: (5,4) * (4,)
        vm = ad.nsum(ad.reshape(c, (3, 1)) * W, axis=0)  # c @ W: (3,1) * (3,4)
        vv = ad.nsum(u * vm, axis=0)  # u @ vm
        flat = ad.reshape(h, (20,))
        soft = ad.exp(ad.mul(log(add(flat * flat, 1.0)), 1.5))  # (flat^2 + 1) ** 1.5
        terms = add(ad.nmean(lp * ad.const(adv)), ad.mul(ad.nsum(mv * lp), 0.1))
        terms = add(terms, vv * 0.01) - ad.nmean(soft)
        terms = add(terms, ad.nmean(ad.nmean(h * he, axis=0)))
        terms = add(terms, ad.nsum(ad.sub(1.0, log(add(mv * mv, 2.0)))))
        ridge = ad.nsum(-(W * W))  # -|theta|^2, one segment at a time
        for leaf in (b, u, c, s):
            ridge = add(ridge, ad.nsum(-(leaf * leaf)))
        return add(terms, ridge * 1e-3)

    return objective


def composite_digests() -> "dict[str, str]":
    theta, tangent, states, actions, adv = composite_inputs()
    obj = composite_objective(states, actions, adv)
    g, v = ad.grad_and_value(obj, theta)
    assert ad.value(obj, theta) == v
    hv = ad.hvp(obj, theta, tangent)
    return {
        "value": _sha(np.float64(v).tobytes()),
        "grad": _sha(g.values.tobytes()),
        "hvp": _sha(hv.values.tobytes()),
    }


def test_composite_objective_bytes():
    assert composite_digests() == COMPOSITE_SHA256


def test_composite_objective_matches_finite_differences():
    """The pinned bytes describe a correct objective, not just a stable one."""
    theta, tangent, states, actions, adv = composite_inputs()
    obj = composite_objective(states, actions, adv)
    assert ad.rel_err(ad.grad(obj, theta), ad.fd_grad(obj, theta)) < 1e-7
    assert ad.rel_err(ad.hvp(obj, theta, tangent), ad.fd_hvp(obj, theta, tangent)) < 1e-6
