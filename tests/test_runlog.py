"""Run-record format and curve-analysis tests.

The on-disk contract: the .runlog file is a pure function of the run's
deterministic outputs (byte-identical across reruns), wall-clock numbers live
only in the .timing sidecar, and floats survive a save/load round trip
exactly. Smoothing and convergence detection are checked against small
hand-computed series plus order/bound invariants.
"""

import json
import os
import platform
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from metarl import cli, harness, runlog
from metarl.autodiff import ParamVector, Segment
from metarl.errors import ParseError
from metarl.policy import load_checkpoint, save_checkpoint
from metarl.runlog import (
    EMA_FACTOR,
    EpochMetrics,
    RunLog,
    convergence_epoch,
    fmt_float,
    load_runlog,
    save_runlog,
    serialize_runlog,
    smoothed_returns,
    write_atomic,
)


ACCEPT_CACHE = Path(__file__).resolve().parent / ".accept_cache"
MISSING = object()


def rewrite_record(path, kind, field, value):
    """Set `field` of the first `kind` record in `path` to `value`, or delete
    it when `value` is MISSING."""
    records = [json.loads(line) for line in path.read_text().splitlines()]
    record = next(r for r in records if r["record"] == kind)
    if value is MISSING:
        del record[field]
    else:
        record[field] = value
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def row(epoch, ret=100.0, wall=0.25, outer=1.5, prestep=None, eval_s=0.0625):
    return EpochMetrics(
        epoch=epoch,
        eval_return=ret,
        wall_seconds=wall,
        grad_norm_outer=outer,
        prestep_grad_norm=prestep,
        eval_seconds=None if ret is None else eval_s,
    )


def sample_log(**overrides):
    fields = dict(
        fingerprint="abcd1234abcd1234",
        version="0.1.0",
        label="demo",
        rows=(
            row(0, ret=1 / 3, outer=0.1, prestep=2.7182818284590452),
            row(1, ret=None, wall=0.125, outer=1e-17),
            row(2, ret=199.99999999999997, outer=123456.78901234567),
        ),
        total_wall_seconds=0.625,
        convergence_epoch=None,
        diverged=None,
    )
    fields.update(overrides)
    return RunLog(**fields)


class TestFormatting:
    def test_fmt_float_none_is_null(self):
        assert fmt_float(None) == "null"

    @pytest.mark.parametrize("x", [1 / 3, 0.1, 1e-17, 199.99999999999997, -1234.5678e100, 0.0])
    def test_fmt_float_round_trips_doubles_exactly(self, x):
        assert float(fmt_float(x)) == x

    def test_epoch_metrics_validation(self):
        with pytest.raises(ValueError):
            row(-1)
        with pytest.raises(ValueError):
            row(0, wall=0.0)
        for eval_s in (0.0, -0.5):
            with pytest.raises(ValueError, match="eval_seconds must be > 0"):
                row(0, eval_s=eval_s)

    def test_rows_must_increase(self):
        with pytest.raises(ValueError):
            sample_log(rows=(row(0), row(2), row(1)))
        with pytest.raises(ValueError):
            sample_log(rows=(row(3), row(3)))


class TestRoundTrip:
    def test_save_load_preserves_every_field(self, tmp_path):
        log = sample_log(convergence_epoch=1)
        path = save_runlog(tmp_path, log)
        assert path.name == "demo.runlog"
        assert (tmp_path / "demo.timing").exists()
        loaded = load_runlog(path)
        assert loaded.fingerprint == log.fingerprint
        assert loaded.version == log.version
        assert loaded.label == log.label
        assert loaded.convergence_epoch == 1
        assert loaded.diverged is None
        assert len(loaded.rows) == 3
        for got, want in zip(loaded.rows, log.rows):
            assert got.epoch == want.epoch
            assert got.eval_return == want.eval_return
            assert got.wall_seconds == want.wall_seconds
            assert got.grad_norm_outer == want.grad_norm_outer
            assert got.prestep_grad_norm == want.prestep_grad_norm
            assert got.eval_seconds == want.eval_seconds
        assert loaded.total_wall_seconds == log.total_wall_seconds

    def test_reserialization_is_byte_identical(self, tmp_path):
        log = sample_log(diverged="epoch 2: synthetic")
        path = save_runlog(tmp_path, log)
        loaded = load_runlog(path)
        assert serialize_runlog(loaded) == serialize_runlog(log)

    def test_wall_times_stay_out_of_the_runlog(self):
        log_a = sample_log()
        slower = tuple(
            EpochMetrics(
                r.epoch,
                r.eval_return,
                r.wall_seconds * 7,
                r.grad_norm_outer,
                r.prestep_grad_norm,
                None if r.eval_seconds is None else r.eval_seconds * 7,
            )
            for r in log_a.rows
        )
        log_b = sample_log(rows=slower, total_wall_seconds=99.0)
        run_a, timing_a = serialize_runlog(log_a)
        run_b, timing_b = serialize_runlog(log_b)
        assert run_a == run_b
        assert timing_a != timing_b
        assert "wall" not in run_a

    def test_unconverged_log_roundtrips(self, tmp_path):
        log = replace(sample_log(), convergence_epoch=None)
        path = save_runlog(tmp_path, log)
        assert '"convergence_epoch": null' in path.read_text()
        assert load_runlog(path).convergence_epoch is None

    def test_load_rejects_missing_header(self, tmp_path):
        p = tmp_path / "x.runlog"
        p.write_text('{"record": "footer", "total_epochs": 0}\n')
        (tmp_path / "x.timing").write_text('{"record": "footer", "total_wall_seconds": 1.0}\n')
        with pytest.raises(ParseError):
            load_runlog(p)

    def test_load_rejects_missing_footer(self, tmp_path):
        log = sample_log()
        path = save_runlog(tmp_path, log)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(ParseError):
            load_runlog(path)

    def test_load_rejects_missing_wall_time(self, tmp_path):
        log = sample_log()
        path = save_runlog(tmp_path, log)
        timing = tmp_path / "demo.timing"
        lines = timing.read_text().splitlines()
        kept = [line for line in lines if '"epoch": 0,' not in line]  # drop epoch 0's wall
        assert len(kept) == len(lines) - 1
        timing.write_text("\n".join(kept) + "\n")
        with pytest.raises(ParseError):
            load_runlog(path)

    def test_sidecar_leads_with_the_platform_and_round_trips(self, tmp_path):
        log = sample_log()
        path = save_runlog(tmp_path, log)
        first = json.loads((tmp_path / "demo.timing").read_text().splitlines()[0])
        assert first["record"] == "platform"
        assert first["python"] == platform.python_version()
        assert first["numpy"] == np.__version__
        assert first["cpu"] == platform.machine()
        assert first["blas_threads"] == {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        }
        assert first["blas"] and isinstance(first["simd"], list)
        loaded = load_runlog(path)
        assert serialize_runlog(loaded) == serialize_runlog(log)
        assert path.read_text() == serialize_runlog(log)[0]

    def test_sidecar_without_platform_record_still_loads(self, tmp_path):
        log = sample_log()
        path = save_runlog(tmp_path, log)
        (tmp_path / "demo.timing").write_text(serialize_runlog(log)[1])
        loaded = load_runlog(path)
        assert serialize_runlog(loaded) == serialize_runlog(log)

    def test_load_rejects_garbage(self, tmp_path):
        p = tmp_path / "g.runlog"
        p.write_text("not json\n")
        with pytest.raises(ParseError):
            load_runlog(p)

    @pytest.mark.parametrize(
        "suffix, kind, field, value",
        [
            (".runlog", "epoch", "grad_norm_outer", MISSING),
            (".runlog", "epoch", "epoch", "zero"),
            (".runlog", "header", "fingerprint", MISSING),
            (".runlog", "epoch", "eval_return", "abc"),
            (".runlog", "epoch", "grad_norm_outer", True),
            (".runlog", "epoch", "grad_norm_outer", None),
            (".runlog", "footer", "convergence_epoch", 1.5),
            (".runlog", "footer", "diverged", MISSING),
            (".timing", "epoch", "wall_seconds", "0.25"),
            (".timing", "footer", "total_wall_seconds", MISSING),
        ],
    )
    def test_load_rejects_a_missing_or_mistyped_field(self, tmp_path, suffix, kind, field, value):
        path = save_runlog(tmp_path, sample_log())
        rewrite_record(path.with_suffix(suffix), kind, field, value)
        with pytest.raises(ParseError) as err:
            load_runlog(path)
        assert str(path.with_suffix(suffix)) in str(err.value)
        assert repr(field) in str(err.value)

    @pytest.mark.parametrize(
        "suffix, kind, field, value",
        [
            (".timing", "epoch", "wall_seconds", 0.0),
            (".runlog", "epoch", "epoch", 2),
            (".runlog", "footer", "total_epochs", 7),
            (".timing", "epoch", "epoch", 3),
        ],
    )
    def test_load_rejects_values_the_records_forbid(self, tmp_path, suffix, kind, field, value):
        # A zero wall time; epochs out of order (0 rewritten as 2); a footer
        # that counts 7 epochs over 3 records; a sidecar whose first epoch
        # record is for epoch 3, where the log has epoch 0.
        path = save_runlog(tmp_path, sample_log())
        rewrite_record(path.with_suffix(suffix), kind, field, value)
        with pytest.raises(ParseError) as err:
            load_runlog(path)
        assert str(path) in str(err.value)

    def test_load_rejects_a_timing_epoch_the_log_does_not_hold(self, tmp_path):
        path = save_runlog(tmp_path, sample_log())
        timing = path.with_suffix(".timing")
        lines = timing.read_text().splitlines()
        extra = '{"record": "epoch", "epoch": 3, "wall_seconds": 0.25, "eval_seconds": null}'
        timing.write_text("\n".join([*lines[:-1], extra, lines[-1]]) + "\n")
        with pytest.raises(ParseError, match="epoch record 3 is for epoch 3") as err:
            load_runlog(path)
        assert str(timing) in str(err.value)

    def test_load_rejects_a_line_that_is_not_a_record(self, tmp_path):
        path = save_runlog(tmp_path, sample_log())
        path.write_text(path.read_text() + "[1, 2]\n")
        with pytest.raises(ParseError):
            load_runlog(path)

    @pytest.mark.parametrize(
        "literal",
        ["NaN", "Infinity", "-Infinity", "1e400", "-1e400", pytest.param("1" + "0" * 400, id="1e400-as-int")],
    )
    @pytest.mark.parametrize("suffix, field", [(".runlog", "eval_return"), (".timing", "wall_seconds")])
    def test_load_rejects_a_number_that_is_not_finite(self, tmp_path, suffix, field, literal):
        """A cached run with two values edited to a number the writer never
        writes: `json` alone reads each as nan, inf or an int past the
        double range."""
        for src in (ACCEPT_CACHE / "c4-maml-s1.runlog", ACCEPT_CACHE / "c4-maml-s1.timing"):
            (tmp_path / src.name).write_bytes(src.read_bytes())
        path = tmp_path / "c4-maml-s1.runlog"
        edited = path.with_suffix(suffix)
        lines = edited.read_text().splitlines(keepends=True)
        for i in (2, 3):
            head, sep, tail = lines[i].partition(f'"{field}": ')
            lines[i] = head + sep + literal + tail[tail.index(","):]
        edited.write_text("".join(lines))
        with pytest.raises(ParseError) as err:
            load_runlog(path)
        assert str(edited) in str(err.value)


@pytest.mark.parametrize("path", sorted(ACCEPT_CACHE.glob("*.runlog")), ids=lambda p: p.name)
def test_cached_runs_reserialize_byte_for_byte(path):
    """Every cached run, written by an earlier serializer, reads back and
    writes out as the same bytes; the cached sidecars may lack the platform
    line, which the loader skips and the serializer does not write."""
    run_text, timing_text = serialize_runlog(load_runlog(path))
    timing = path.with_suffix(".timing").read_bytes().splitlines(keepends=True)
    assert run_text.encode() == path.read_bytes()
    assert timing_text.encode() == b"".join(
        line for line in timing if not line.startswith(b'{"record": "platform"')
    )


def curve(xs):
    """One evaluated row per value, epochs 0, 1, ..."""
    return [row(e, ret=float(x)) for e, x in enumerate(xs)]


class TestSmoothing:
    def test_hand_computed_two_points(self):
        np.testing.assert_allclose(smoothed_returns(curve([0.0, 10.0]))[2], [0.0, 1.0], atol=1e-15)

    def test_constant_series_is_fixed_point(self):
        np.testing.assert_allclose(smoothed_returns(curve([5.0] * 8))[2], [5.0] * 8, atol=1e-12)

    def test_empty_series(self):
        epochs, raw, smoothed = smoothed_returns([])
        assert epochs == [] and raw == [] and smoothed.size == 0

    def test_factor_is_the_module_constant(self):
        x = [3.0, -1.0, 4.0]
        s1 = EMA_FACTOR * 3.0 + (1.0 - EMA_FACTOR) * -1.0
        want = [3.0, s1, EMA_FACTOR * s1 + (1.0 - EMA_FACTOR) * 4.0]
        assert smoothed_returns(curve(x))[2].tolist() == want

    @given(xs=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=40))
    @settings(max_examples=60, deadline=None)
    def test_stays_inside_series_envelope(self, xs):
        s = smoothed_returns(curve(xs))[2]
        assert np.all(s >= min(xs) - 1e-9)
        assert np.all(s <= max(xs) + 1e-9)


class TestConvergence:
    def test_all_above_threshold(self):
        assert convergence_epoch(curve([200.0] * 25), 175.0, 20) == 0

    def test_never_converges(self):
        assert convergence_epoch(curve([100.0] * 25), 175.0, 20) is None

    def test_ramp_crossing(self):
        # Smoothing x_t = t gives s_t = t - 9 * (1 - 0.9**t), which first
        # reaches 150 at t = 159.
        assert convergence_epoch(curve(range(200)), 150.0, 20) == 159

    def test_window_must_fit(self):
        # The step smooths to 100, 190, 271, 343.9, 409.51: four epochs at
        # or above 175, from epoch 11.
        x = [0.0] * 10 + [1000.0] * 5
        assert convergence_epoch(curve(x), 175.0, 5) is None
        assert convergence_epoch(curve(x), 175.0, 4) == 11

    def test_dip_resets_the_window(self):
        # The dip smooths to 80 at epoch 5 and 92 at 6; from 7 on the curve
        # is above 100 again.
        x = [200.0] * 5 + [-1000.0] + [200.0] * 7
        assert convergence_epoch(curve(x), 100.0, 6) == 7

    def test_window_one_is_first_crossing(self):
        rows = [row(0, ret=0.0), row(1, ret=None), row(2, ret=100.0), row(3, ret=100.0)]
        # Smoothed: 0, 10, 19 at the evaluated epochs 0, 2, 3.
        assert convergence_epoch(rows, 15.0, 1) == 3

    def test_window_validation(self):
        with pytest.raises(ValueError):
            convergence_epoch(curve([1.0]), 0.5, 0)

    @given(
        xs=st.lists(st.floats(0, 300), min_size=1, max_size=30),
        tau1=st.floats(0, 300),
        tau2=st.floats(0, 300),
        w=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_monotone_in_threshold(self, xs, tau1, tau2, w):
        lo, hi = sorted((tau1, tau2))
        e_lo = convergence_epoch(curve(xs), lo, w)
        e_hi = convergence_epoch(curve(xs), hi, w)
        if e_hi is not None:
            assert e_lo is not None and e_lo <= e_hi

    @given(
        rets=st.lists(st.one_of(st.none(), st.floats(0, 300)), max_size=30),
        tau=st.floats(0, 300),
        w=st.integers(1, 5),
    )
    @settings(max_examples=60, deadline=None)
    def test_first_window_of_a_scan(self, rets, tau, w):
        rows = [row(e, ret=r) for e, r in enumerate(rets)]
        epochs, _, s = smoothed_returns(rows)
        starts = [epochs[i] for i in range(len(s) - w + 1) if np.all(s[i : i + w] >= tau)]
        assert convergence_epoch(rows, tau, w) == (starts[0] if starts else None)


class TestConvergenceEpoch:
    """The rule over epoch rows that training, compare and the acceptance
    tests share."""

    def test_smoothed_returns_skips_unevaluated_epochs(self):
        rows = [row(0, ret=0.0), row(1, ret=None), row(2, ret=10.0)]
        epochs, raw, smoothed = smoothed_returns(rows)
        assert epochs == [0, 2]
        assert raw == [0.0, 10.0]
        np.testing.assert_allclose(smoothed, [0.0, 1.0], atol=1e-15)

    @given(
        rets=st.lists(st.one_of(st.none(), st.floats(0, 300)), min_size=1, max_size=30),
        tau=st.floats(0, 300),
        w=st.integers(1, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_verdict_is_fixed_by_the_first_prefix_that_converges(self, rets, tau, w):
        # A loop may stop at the first epoch whose prefix converges: later
        # rows cannot change the verdict.
        rows = [row(e, ret=r) for e, r in enumerate(rets)]
        full = convergence_epoch(rows, tau, w)
        stop = next((n for n in range(1, len(rows) + 1) if convergence_epoch(rows[:n], tau, w) is not None), None)
        if stop is None:
            assert full is None
        else:
            assert convergence_epoch(rows[:stop], tau, w) == full


# ---------------------------------------------------------------------------
# Atomic writes
# ---------------------------------------------------------------------------

class _DiskFull:
    """A file whose write stores half the bytes and then fails."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(28, "No space left on device")


def _save_all(out):
    """Every writer that goes through write_atomic, into `out`."""
    log = sample_log(label="run")
    save_runlog(out, log)
    save_checkpoint(out / "run.ckpt", {"policy": ParamVector(np.arange(3.0), [Segment("w", 0, (3,))])})
    harness.emit_plot([log], out / "curves.svg")
    argv = ["compare", str(out / "run.runlog"), "--tau", "1", "--window", "1", "--out", str(out)]
    assert cli.main(argv) == 0


class TestAtomicWrites:
    def test_replaces_the_file(self, tmp_path):
        target = tmp_path / "f.txt"
        write_atomic(target, "old\n")
        write_atomic(target, "new\n")
        assert target.read_bytes() == b"new\n"
        write_atomic(target, b"\x00\x01")
        assert target.read_bytes() == b"\x00\x01"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_failure_midway_keeps_the_previous_bytes(self, tmp_path, monkeypatch):
        target = tmp_path / "f.txt"
        target.write_bytes(b"previous contents\n")
        monkeypatch.setattr(runlog, "open", lambda p, mode: _DiskFull(open(p, mode)), raising=False)
        with pytest.raises(OSError, match="No space"):
            write_atomic(target, "replacement that never lands\n")
        assert target.read_bytes() == b"previous contents\n"
        assert [p.name for p in tmp_path.iterdir()] == ["f.txt"]

    def test_every_output_file_survives_a_failed_rewrite(self, tmp_path, monkeypatch, capsys):
        _save_all(tmp_path)
        names = ("run.runlog", "run.timing", "run.ckpt", "curves.svg", "curves.dat", "compare.txt")
        before = {name: (tmp_path / name).read_bytes() for name in names}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        monkeypatch.setattr(runlog, "open", lambda p, mode: _DiskFull(open(p, mode)), raising=False)
        log = sample_log(label="run", rows=(row(0, ret=5.0),), total_wall_seconds=0.25)
        with pytest.raises(OSError):
            save_runlog(tmp_path, log)
        with pytest.raises(OSError):
            save_checkpoint(tmp_path / "run.ckpt", {})
        with pytest.raises(OSError):
            harness.emit_plot([log], tmp_path / "curves.svg")
        argv = ["compare", str(tmp_path / "run.runlog"), "--tau", "1", "--window", "1"]
        assert cli.main([*argv, "--out", str(tmp_path)]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert {name: (tmp_path / name).read_bytes() for name in names} == before
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)
        load_runlog(tmp_path / "run.runlog")
        load_checkpoint(tmp_path / "run.ckpt")
