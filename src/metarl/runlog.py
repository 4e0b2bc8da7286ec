"""Run records: per-epoch metrics, on-disk log format, and curve analysis.

A run produces two files. `<label>.runlog` holds only deterministic content
(header, one key-value record per epoch, footer), so two runs of the same
config and seed can be diffed byte for byte. Wall-clock numbers go to the
`<label>.timing` sidecar. Records are JSON objects, one per line, and every
value is written by its type: floats with 17 significant digits, enough to
round-trip IEEE-754 doubles exactly, everything else as JSON.

Epoch records follow `EpochMetrics`: the wall-clock fields go to `.timing`
after `epoch`, every other field to `.runlog` in field order, and the loader
checks each value against its field's annotation. A new field needs no edit
to the serializer or the loader.

The sidecar's first record names the numeric platform the run was written
on (Python, numpy, BLAS and its thread variables, CPU architecture, SIMD
extensions), since the `.runlog` bytes hold only for one platform. It goes
in the sidecar, not the `.runlog` header, so the `.runlog` stays a function
of config and seed alone; loaders skip it, and sidecars written before it
existed still load.

Every file the library writes goes through `write_atomic`, so an
interrupted write leaves the previous file, never a partial one.

The convergence rule lives here, once, in two functions over a run's
epoch rows: `smoothed_returns`, the EMA of the evaluated returns at the
fixed `EMA_FACTOR`, and `convergence_epoch`, the first window of that curve
at or above a threshold. Training, the comparison report and the acceptance
tests judge convergence with the second; plots, the training progress line
and the `compare --tau auto` threshold read the curve of the first.
"""

from __future__ import annotations

import json
import math
import os
import platform
from dataclasses import dataclass, fields
from itertools import zip_longest
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import _BLAS_THREAD_VARS
from .errors import ParseError

__all__ = [
    "EpochMetrics",
    "RunLog",
    "fmt_float",
    "save_runlog",
    "load_runlog",
    "write_atomic",
    "smoothed_returns",
    "convergence_epoch",
    "EMA_FACTOR",
]

EMA_FACTOR = 0.9  # smoothing of the convergence rule and of plotted curves


def fmt_float(x: float | None) -> str:
    if x is None:
        return "null"
    return format(float(x), ".17g")


@dataclass(frozen=True)
class EpochMetrics:
    """One epoch's record. eval_return is None on epochs where evaluation was
    skipped; prestep_grad_norm is None for non-directed algorithms.
    wall_seconds covers the training update only; evaluation rollouts are
    timed separately in eval_seconds so cost comparisons are not diluted by
    measurement overhead."""

    epoch: int
    eval_return: float | None
    wall_seconds: float
    grad_norm_outer: float
    prestep_grad_norm: float | None = None
    eval_seconds: float | None = None

    def __post_init__(self):
        if self.epoch < 0:
            raise ValueError("epoch index must be >= 0")
        if not self.wall_seconds > 0:
            raise ValueError("wall_seconds must be > 0")
        if self.eval_seconds is not None and not self.eval_seconds > 0:
            raise ValueError("eval_seconds must be > 0 when present")


@dataclass(frozen=True)
class RunLog:
    fingerprint: str
    version: str
    label: str
    rows: "tuple[EpochMetrics, ...]"
    total_wall_seconds: float
    convergence_epoch: int | None = None
    diverged: str | None = None

    def __post_init__(self):
        epochs = [r.epoch for r in self.rows]
        if any(b <= a for a, b in zip(epochs, epochs[1:])):
            raise ValueError("rows must be strictly increasing in epoch")


_WALL_CLOCK = ("wall_seconds", "eval_seconds")  # the EpochMetrics fields kept out of the .runlog
_RUNLOG_FIELDS = tuple(f.name for f in fields(EpochMetrics) if f.name not in _WALL_CLOCK)
_TIMING_FIELDS = ("epoch", *_WALL_CLOCK)
# The value types each field admits, read from its annotation: a field
# annotated `float | None` admits (float, NoneType).
_EPOCH_KINDS, _LOG_KINDS = (
    {name: get_args(hint) or (hint,) for name, hint in get_type_hints(cls).items()}
    for cls in (EpochMetrics, RunLog)
)
_FOOTER_KINDS = {**_LOG_KINDS, "total_epochs": (int,)}


def _record(kind: str, /, **values) -> str:
    """One record line, `"record": kind` first, each value formatted by its
    type: a float by `fmt_float`, anything else (None, int, str, list, dict)
    as JSON."""
    body = ", ".join(
        f'"{k}": {fmt_float(v) if isinstance(v, float) else json.dumps(v)}'
        for k, v in {"record": kind, **values}.items()
    )
    return "{" + body + "}"


def serialize_runlog(log: RunLog) -> "tuple[str, str]":
    """Returns (runlog text, timing text)."""
    lines = [_record("header", fingerprint=log.fingerprint, version=log.version, label=log.label)]
    timing_lines = []
    for r in log.rows:
        lines.append(_record("epoch", **{name: getattr(r, name) for name in _RUNLOG_FIELDS}))
        timing_lines.append(_record("epoch", **{name: getattr(r, name) for name in _TIMING_FIELDS}))
    lines.append(_record("footer", total_epochs=len(log.rows),
                         convergence_epoch=log.convergence_epoch, diverged=log.diverged))
    timing_lines.append(_record("footer", total_wall_seconds=log.total_wall_seconds))
    return "\n".join(lines) + "\n", "\n".join(timing_lines) + "\n"


def write_atomic(path, data: "str | bytes") -> None:
    """Replace `path` with `data` (text is written as UTF-8): write a
    temporary file beside it, then `os.replace` it into place. A reader sees
    the old file or the new one, never a partial write; on failure the
    temporary file is removed and `path` is left as it was. This guards
    against an interrupted or failing process, not against power loss (no
    fsync). One writer per path per process at a time."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _platform_record() -> "dict[str, object]":
    """The numeric platform of this process: what `.runlog` bytes depend on
    besides the code, the config and the seed."""
    try:
        deps = np.show_config(mode="dicts")
        blas_dep = deps["Build Dependencies"]["blas"]
        blas, simd = f"{blas_dep['name']} {blas_dep['version']}", deps["SIMD Extensions"]["found"]
    except (TypeError, KeyError):  # numpy before 1.26 has no dict form
        blas, simd = None, None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in _BLAS_THREAD_VARS},
        "cpu": platform.machine(),
        "simd": simd,
    }


def save_runlog(out_dir, log: RunLog) -> Path:
    """Write <label>.runlog and <label>.timing, the sidecar led by this
    process's `_platform_record`; returns the runlog path. The sidecar is
    written first, so a `.runlog` is never newer than its sidecar."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    run_text, timing_text = serialize_runlog(log)
    platform_line = _record("platform", **_platform_record())
    write_atomic(out / f"{log.label}.timing", platform_line + "\n" + timing_text)
    run_path = out / f"{log.label}.runlog"
    write_atomic(run_path, run_text)
    return run_path


def _finite_float(literal: str) -> float:
    """A JSON float literal, or one of the constants NaN, Infinity and
    -Infinity that `json` also reads, as `float` reads it, refused when it
    is not finite (`1e400` overflows to inf). The writer never writes one."""
    x = float(literal)
    if not math.isfinite(x):
        raise ValueError(f"number {literal} is not finite")
    return x


def _read_records(path: Path, what: str) -> "list[dict]":
    """The JSON object on each line of one file, blank lines and platform
    records skipped. A non-finite number (NaN, Infinity, -Infinity, or a
    literal past the double range) is a ParseError."""
    try:
        records = [
            json.loads(line, parse_float=_finite_float, parse_constant=_finite_float)
            for line in path.read_text().splitlines()
            if line.strip()
        ]
    except (OSError, ValueError) as e:  # ValueError: bad UTF-8, bad JSON or a non-finite number
        raise ParseError(f"cannot read {what} {path}: {e}") from None
    if not all(isinstance(r, dict) for r in records):
        raise ParseError(f"{path}: a line is not a JSON object")
    records = [r for r in records if r.get("record") != "platform"]
    if not records:
        raise ParseError(f"{path}: no records")
    return records


def _values(path: Path, record: dict, kind: str, kinds, names) -> "dict[str, object]":
    """The values of fields `names` in `record`, which must be a `kind`
    record, each checked against its entry in `kinds`. An integer stands for
    a float, since `fmt_float` writes 2.0 as 2, if it is within the double
    range; a bool is never a number."""
    if record.get("record") != kind:
        raise ParseError(f"{path}: expected a {kind} record, got {record.get('record')!r}")
    values = {}
    for name in names:
        if name not in record:
            raise ParseError(f"{path}: {kind} record has no field {name!r}")
        value = record[name]
        if type(value) is int and float in kinds[name]:
            try:
                value = float(value)
            except OverflowError:
                raise ParseError(f"{path}: field {name!r} is past the double range") from None
        if type(value) not in kinds[name]:
            allowed = " or ".join("null" if k is type(None) else k.__name__ for k in kinds[name])
            raise ParseError(f"{path}: field {name!r} must be {allowed}, got {value!r}")
        values[name] = value
    return values


def load_runlog(path) -> RunLog:
    """Parse a .runlog plus its .timing sidecar back into a RunLog. A missing
    record or field, a value of the wrong type, a footer whose total_epochs
    is not the number of epoch records, or a sidecar whose epochs are not
    the run log's, is a ParseError naming the file."""
    path = Path(path)
    timing_path = path.with_suffix(".timing")
    records = _read_records(path, "run log")
    timing = _read_records(timing_path, "timing sidecar")
    header = _values(path, records[0], "header", _LOG_KINDS, ("fingerprint", "version", "label"))
    footer = _values(path, records[-1], "footer", _FOOTER_KINDS, ("total_epochs", "convergence_epoch", "diverged"))
    total = _values(timing_path, timing[-1], "footer", _LOG_KINDS, ("total_wall_seconds",))
    walls = [_values(timing_path, r, "epoch", _EPOCH_KINDS, _TIMING_FIELDS) for r in timing[:-1]]
    logged = [_values(path, r, "epoch", _EPOCH_KINDS, _RUNLOG_FIELDS) for r in records[1:-1]]
    total_epochs = footer.pop("total_epochs")
    if total_epochs != len(logged):
        raise ParseError(f"{path}: footer says {total_epochs} epochs, the log holds {len(logged)}")
    timed, epochs = [w["epoch"] for w in walls], [r["epoch"] for r in logged]
    if timed != epochs:
        i, (t, e) = next((i, pair) for i, pair in enumerate(zip_longest(timed, epochs)) if pair[0] != pair[1])
        raise ParseError(f"{timing_path}: epoch record {i} is for epoch {t}, in {path} for epoch {e}")
    rows = [{**w, **r} for w, r in zip(walls, logged)]
    try:
        return RunLog(**header, **footer, **total, rows=tuple(EpochMetrics(**row) for row in rows))
    except ValueError as e:  # an epoch or wall time out of range, or epochs out of order
        raise ParseError(f"{path}: {e}") from None


# ---------------------------------------------------------------------------
# Curve analysis
# ---------------------------------------------------------------------------

def smoothed_returns(rows) -> "tuple[list[int], list[float], np.ndarray]":
    """The evaluated epochs among `rows` (epochs whose eval_return is set),
    their raw eval returns, and those returns smoothed with EMA_FACTOR:
    s_0 = x_0; s_t = factor*s_(t-1) + (1-factor)*x_t."""
    evaled = [r for r in rows if r.eval_return is not None]
    raw = [r.eval_return for r in evaled]
    factor, x = EMA_FACTOR, np.asarray(raw, dtype=np.float64)
    out = x.copy()
    for t in range(1, len(x)):
        out[t] = factor * out[t - 1] + (1.0 - factor) * x[t]
    return [r.epoch for r in evaled], raw, out


def convergence_epoch(rows, tau: float, w: int) -> int | None:
    """The convergence rule: the smoothed eval return is >= tau for w
    consecutive evaluated epochs (the window is counted in evaluated epochs,
    skipped ones do not break it, and it must fit inside the rows). Returns
    the epoch that opens the first such window, or None. The verdict
    depends only on the rows up to that window, so a run may stop as soon
    as it is not None."""
    if w < 1:
        raise ValueError("window must be >= 1")
    epochs, _, smoothed = smoothed_returns(rows)
    run = 0
    for i, s in enumerate(smoothed):
        run = run + 1 if s >= tau else 0
        if run == w:
            return epochs[i - w + 1]
    return None
