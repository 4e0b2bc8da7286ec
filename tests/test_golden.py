"""Golden bytes: sha256 digests that any speed or refactor change must keep.

Two kinds of record are pinned:

- the `.runlog` of five tiny training runs (3 epochs, horizon 12, two tasks
  of two trajectories): MAML with the policy-gradient learner on cartpole,
  directed Meta-SGD, directed FOMAML (the first-order meta-gradient),
  Reptile, and the actor-critic learner on intersection (Gaussian head plus
  critic);
- the value, gradient and Hessian-vector-product bytes of one composite
  objective that reaches every graph primitive, including the broadcast
  forms of add/sub/mul; its vector products are broadcast products summed
  along an axis, and its fractional power is exp(p * log(x));
- the value, gradient and Hessian-vector-product bytes of the policy
  surrogate (`rl.policy_objective`) on one audit batch per head, categorical
  (cartpole) and Gaussian (intersection), and of its finite-difference
  oracles `fd_grad` and `fd_hvp`. The tier-1 audit holds the oracles only to
  a relative error; these digests hold their bits;
- the value, gradient and Hessian-vector-product bytes of the policy
  surrogate on a batch of more than 256 rows: ten 200-step cartpole
  rollouts of the converged policy `perfbench/fixtures` holds, the size of
  batch a long training run differentiates.

The digests were recorded with BLAS pinned to one thread (tests/conftest.py).
They hold on one numeric platform; a platform change regenerates them in a
change that says so.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np
import pytest

from _helpers import add, gather_rows, log, nsum_axis, row_max_const, tanh
from metarl import autodiff as ad
from metarl import cli, rl
from metarl.envs import Family, Task, make_env
from metarl.harness import AUDIT_GAMMA
from metarl.policy import PolicyNet, actor_arch, init_params
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
    "directed-fomaml-cartpole": ["--env", "cartpole", "--algorithm", "directed-fomaml"],
    "reptile-cartpole": ["--env", "cartpole", "--algorithm", "reptile"],
    "maml-ac-intersection": ["--env", "intersection", "--algorithm", "maml", "--learner", "ac"],
}

RUNLOG_SHA256 = {
    "maml-pg-cartpole": "475ca30c72cc0e127186fab9375aeae37859d758ace71900d68ccac778095554",
    "directed-metasgd-cartpole": "715e3fee47a1fdb86c640b7591e479ae18c3c5223bd2d01882cfc47ef0bd86d3",
    "directed-fomaml-cartpole": "e633cea29f1f75f62adf8fb859c58d4d7350a246b8ba753500f240e3a0fd7511",
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
        lse = log(nsum_axis(ad.exp(shift), 1))
        lp = gather_rows(shift, actions) - lse
        mv = nsum_axis(h * u, 1)  # h @ u: (5,4) * (4,)
        vm = nsum_axis(ad.reshape(c, (3, 1)) * W, 0)  # c @ W: (3,1) * (3,4)
        vv = nsum_axis(u * vm, 0)  # u @ vm
        flat = ad.reshape(h, (20,))
        soft = ad.exp(ad.mul(log(add(flat * flat, 1.0)), 1.5))  # (flat^2 + 1) ** 1.5
        terms = add(ad.nmean(lp * ad.const(adv)), ad.mul(ad.nsum(mv * lp), 0.1))
        terms = add(terms, vv * 0.01) - ad.nmean(soft)
        terms = add(terms, ad.nmean(ad.mul(nsum_axis(h * he, 0), 1.0 / 5)))  # column means
        terms = add(terms, ad.nsum(ad.sub(1.0, log(add(mv * mv, 2.0)))))
        ridge = ad.nsum(-(W * W))  # -|theta|^2, one segment at a time
        for leaf in (b, u, c, s):
            ridge = add(ridge, ad.nsum(-(leaf * leaf)))
        return add(terms, ridge * 1e-3)

    return objective


def composite_digests() -> "dict[str, str]":
    theta, tangent, states, actions, adv = composite_inputs()
    obj = composite_objective(states, actions, adv)
    g, v = ad.grad(obj, theta), ad.value(obj, theta)
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


# ---------------------------------------------------------------------------
# The audited policy surrogate and its finite-difference oracles
# ---------------------------------------------------------------------------

AUDIT_TASKS = {
    "cartpole": Task(Family.CARTPOLE, 10.0),
    "intersection": Task(Family.INTERSECTION, 10.0),
}

SURROGATE_SHA256 = {
    "cartpole": {
        "value": "59d5b160186f25044dc4de5a079c1703ded968712ea177d8bcd291b34e18f7c2",
        "grad": "761a5f3eef793977b7570e1126474249b4135b92dd3d789a2bffa5cdee698d5d",
        "hvp": "491ae091c295a4da24891aaa5a0b35c37395a6d6507e8b5d1c547014c31ace14",
        "fd_grad": "051687e6386918f292e999e0e42f8c6421013b57e4325b3d8d31dc978c911851",
        "fd_hvp": "8a2d9e5f9327791799a2a8a35eca11a70c6d4179d812748346641f1598df1bbb",
    },
    "intersection": {
        "value": "2d583839e077d99a2ddc5f681afaea5e4c5ad49909f4d409464285481f60c6e0",
        "grad": "59b23891688ebcb0f9314a102d02d2d6befa87e1dad6c21a1f61a83e627afb91",
        "hvp": "868b84b804f063ec6c0c9a55a0982d5386e06535b70d58cdf13adf943cacdaf8",
        "fd_grad": "d6b428bf345cf7b643d6bd4b1e69d7f1953c24dd44fa3728d7177329c10c9b6d",
        "fd_hvp": "98b540eaa84e76f6ebd3aa5d9b8734e7f82c2bbf55df0c58fee808d0edaaf7de",
    },
}


def surrogate_inputs(task: Task):
    """The surrogate of one batch (k=2, horizon 15), its policy and a unit
    direction, drawn as `harness.audit_oracles` draws them for seed 0."""
    stream = Stream(0)
    env = make_env(task)
    arch = actor_arch(env)
    theta = init_params(arch, stream.child(0))
    batch = rl.sample_batch(env, PolicyNet(arch, theta), 2, stream.child(1), 15)
    v_raw = stream.child(2).generator().standard_normal(theta.size)
    return rl.policy_objective(batch, AUDIT_GAMMA), theta, theta.with_values(v_raw / np.linalg.norm(v_raw))


def surrogate_digests(task: Task) -> "dict[str, str]":
    obj, theta, v = surrogate_inputs(task)
    return {
        "value": _sha(np.float64(ad.value(obj, theta)).tobytes()),
        "grad": _sha(ad.grad(obj, theta).values.tobytes()),
        "hvp": _sha(ad.hvp(obj, theta, v).values.tobytes()),
        "fd_grad": _sha(ad.fd_grad(obj, theta).values.tobytes()),
        "fd_hvp": _sha(ad.fd_hvp(obj, theta, v).values.tobytes()),
    }


@pytest.mark.parametrize("family", sorted(AUDIT_TASKS))
def test_policy_surrogate_bytes(family):
    assert surrogate_digests(AUDIT_TASKS[family]) == SURROGATE_SHA256[family]


# ---------------------------------------------------------------------------
# A batch of more than 256 rows
# ---------------------------------------------------------------------------

FIXTURE = Path(__file__).resolve().parent.parent / "perfbench" / "fixtures" / "cartpole-converged.f64"

LONG_BATCH_SHA256 = {
    "value": "aa736c407d2c179bbc058f0db926fc71a280b6484b50c4169d561926dae16a99",
    "grad": "ce37471cf9dfa8661e105cfcc9672a556a0c7a6f2bac0bb7b4209074907926bc",
    "hvp": "952e5fb2f06b3d923418af9a7735276da8a00d20e2bdb10d0858507b610ad15d",
}


def long_batch_inputs():
    """The surrogate of ten rollouts of at most 200 steps at gravity 10 from
    the converged cartpole policy in the benchmark's fixture (read, after
    its sha256 is checked against the file beside it), the policy, and a
    unit direction."""
    data = FIXTURE.read_bytes()
    assert _sha(data) == FIXTURE.with_name(FIXTURE.name + ".sha256").read_text().split()[0]
    env = make_env(Task(Family.CARTPOLE, 10.0))
    arch = actor_arch(env)
    stream = Stream(0)
    theta = init_params(arch, stream.child(0)).with_values(np.frombuffer(data, dtype="<f8"))
    batch = rl.sample_batch(env, PolicyNet(arch, theta), 10, stream.child(1), 200)
    v_raw = stream.child(2).generator().standard_normal(theta.size)
    v = theta.with_values(v_raw / np.linalg.norm(v_raw))
    return rl.policy_objective(batch, AUDIT_GAMMA), theta, v, batch


def test_long_batch_surrogate_bytes():
    obj, theta, v, batch = long_batch_inputs()
    assert [len(t.rewards) for t in batch.trajectories] == [200] * 10  # 2,000 rows
    digests = {
        "value": _sha(np.float64(ad.value(obj, theta)).tobytes()),
        "grad": _sha(ad.grad(obj, theta).values.tobytes()),
        "hvp": _sha(ad.hvp(obj, theta, v).values.tobytes()),
    }
    assert digests == LONG_BATCH_SHA256
