"""Pins the config fingerprint bytes.

The acceptance cache and every `.runlog` header are keyed on
`fingerprint(cfg)`, the hash of `canonical_text(cfg)`. These literals were
recorded from the default config and from each shipped `configs/*.cfg`; a
change to how defaults are stored, or to how a field is formatted, must
leave them as they are.
"""

from pathlib import Path

import pytest

from metarl.harness import build_run_config, load_config
from metarl.meta import MetaConfig, RunConfig, canonical_text, fingerprint

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

DEFAULT_TEXT = (
    "algorithm=maml\nlearner=pg\nenv=cartpole\nphi_lo=5\nphi_hi=15\nalpha=0.001\n"
    "beta=0.001\ndelta=0.00050000000000000001\ngamma=0.98999999999999999\nm_tasks=5\n"
    "k_trajs=10\nhorizon=200\nepochs=150\nseed=0\neval_every=1\neval_episodes=4\n"
    "conv_tau=175\nconv_window=20\nout_dir=runs\nlabel=run\n"
)

SHIPPED = {
    "cartpole.cfg": (
        "d5e229b547fe2a2c",
        "algorithm=maml\nlearner=pg\nenv=cartpole\nphi_lo=5\nphi_hi=15\nalpha=0.001\n"
        "beta=0.001\ndelta=0.00050000000000000001\ngamma=0.98999999999999999\nm_tasks=5\n"
        "k_trajs=10\nhorizon=200\nepochs=400\nseed=1\neval_every=1\neval_episodes=4\n"
        "conv_tau=175\nconv_window=20\nout_dir=runs\nlabel=cartpole\n",
    ),
    "intersection.cfg": (
        "785511348221d0dc",
        "algorithm=maml\nlearner=pg\nenv=intersection\nphi_lo=5\nphi_hi=15\nalpha=0.001\n"
        "beta=0.001\ndelta=0.00050000000000000001\ngamma=0.98999999999999999\nm_tasks=5\n"
        "k_trajs=10\nhorizon=100\nepochs=500\nseed=1\neval_every=1\neval_episodes=4\n"
        "conv_tau=175\nconv_window=20\nout_dir=runs\nlabel=intersection\n",
    ),
    "reference.cfg": (
        "917937564f08d7f7",
        "algorithm=maml\nlearner=pg\nenv=cartpole\nphi_lo=5\nphi_hi=15\nalpha=0.001\n"
        "beta=0.001\ndelta=0.0050000000000000001\ngamma=0.98999999999999999\nm_tasks=5\n"
        "k_trajs=10\nhorizon=200\nepochs=400\nseed=1\neval_every=1\neval_episodes=4\n"
        "conv_tau=175\nconv_window=20\nout_dir=runs\nlabel=reference\n",
    ),
}


def test_default_config_fingerprint_is_pinned():
    rc = build_run_config({})
    assert canonical_text(rc) == DEFAULT_TEXT
    assert fingerprint(rc) == "9fc903ddd811ca64"


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_config_fingerprint_is_pinned(name):
    fp, text = SHIPPED[name]
    rc = load_config(CONFIGS / name)
    assert canonical_text(rc) == text
    assert fingerprint(rc) == fp


def test_every_shipped_config_is_pinned():
    assert sorted(p.name for p in CONFIGS.glob("*.cfg")) == sorted(SHIPPED)


def test_build_run_config_defaults_are_the_dataclass_defaults():
    assert build_run_config({}) == RunConfig(meta=MetaConfig())
