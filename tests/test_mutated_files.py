"""Readers over mutated copies of real files.

Each reader of a file the library writes or ships must return or raise a
MetaRLError on any damaged copy of it, never another exception. The copies
are made from the shipped configs, a cached run log with its timing sidecar
and a cached checkpoint, by four kinds of damage: a truncation, one to three
changed bytes, a deletion of up to 50 bytes, and a splice of the head of
one file onto the tail of another. Copies are written under a temporary
directory; the source files are only read. Hypothesis runs derandomized, so
every run tries the same copies.
"""

from contextlib import suppress
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metarl import harness, meta, policy, runlog
from metarl.errors import MetaRLError
from test_acceptance import c7_config

TESTS = Path(__file__).resolve().parent
CACHE = TESTS / ".accept_cache"
CONFIGS = tuple(sorted((TESTS.parent / "configs").glob("*.cfg")))
RUNLOG, TIMING = CACHE / "c4-maml-s1.runlog", CACHE / "c4-maml-s1.timing"
CKPT = CACHE / "c7-fomaml-s1.ckpt"
SOURCES = {path: path.read_bytes() for path in (*CONFIGS, RUNLOG, TIMING, CKPT)}
EXAMPLES = 300

bounded = settings(max_examples=EXAMPLES, derandomize=True, database=None, deadline=None)


@st.composite
def damaged(draw, source: Path) -> bytes:
    data = SOURCES[source]
    n = len(data)
    kind = draw(st.sampled_from(["truncate", "change", "delete", "splice"]))
    if kind == "truncate":
        return data[: draw(st.integers(0, n - 1))]
    if kind == "change":
        out = bytearray(data)
        for _ in range(draw(st.integers(1, 3))):
            out[draw(st.integers(0, n - 1))] = draw(st.integers(0, 255))
        return bytes(out)
    if kind == "delete":
        at = draw(st.integers(0, n - 1))
        return data[:at] + data[at + draw(st.integers(1, 50)) :]
    donor = SOURCES[draw(st.sampled_from(sorted(SOURCES)))]
    return data[: draw(st.integers(0, n))] + donor[draw(st.integers(0, len(donor))) :]


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    return tmp_path_factory.mktemp("mutated")


@bounded
@given(data=st.data())
def test_load_config(work, data):
    source = data.draw(st.sampled_from(CONFIGS))
    path = work / source.name
    path.write_bytes(data.draw(damaged(source)))
    with suppress(MetaRLError):
        harness.load_config(path)


@bounded
@given(data=st.data())
def test_load_runlog(work, data):
    broken = data.draw(st.sampled_from([RUNLOG, TIMING]))
    for source in (RUNLOG, TIMING):
        text = data.draw(damaged(source)) if source == broken else SOURCES[source]
        (work / source.name).write_bytes(text)
    with suppress(MetaRLError):
        runlog.load_runlog(work / RUNLOG.name)


@bounded
@given(data=st.data())
def test_load_checkpoint_and_state(work, data):
    path = work / CKPT.name
    path.write_bytes(data.draw(damaged(CKPT)))
    with suppress(MetaRLError):
        policy.load_checkpoint(path)
    with suppress(MetaRLError):
        meta.load_state(path, c7_config().meta)
