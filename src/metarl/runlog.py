"""Run records: per-epoch metrics, on-disk log format, and curve analysis.

A run produces two files. `<label>.runlog` holds only deterministic content
(header, one key-value record per epoch, footer), so two runs of the same
config and seed can be diffed byte for byte. Wall-clock numbers go to the
`<label>.timing` sidecar. Floats are rendered with 17 significant digits,
enough to round-trip IEEE-754 doubles exactly; records are JSON objects, one
per line.

The sidecar's first record names the numeric platform the run was written
on (Python, numpy, BLAS and its thread variables, CPU architecture, SIMD
extensions), since the `.runlog` bytes hold only for one platform. It goes
in the sidecar, not the `.runlog` header, so the `.runlog` stays a function
of config and seed alone; loaders skip it, and sidecars written before it
existed still load.

Every file the library writes goes through `write_atomic`, so an
interrupted write leaves the previous file, never a partial one.

The convergence rule lives here, once: `convergence_epoch` over a run's
epoch rows, smoothing with `EMA_FACTOR`. Training, the comparison report and
the acceptance tests all call it; plots and the `compare --tau auto`
threshold read the same smoothed curve through `smoothed_returns`.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ParseError

__all__ = [
    "EpochMetrics",
    "RunLog",
    "fmt_float",
    "save_runlog",
    "load_runlog",
    "write_atomic",
    "ema_smooth",
    "detect_convergence",
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


def _record(pairs: "list[tuple[str, str]]") -> str:
    body = ", ".join(f'"{k}": {v}' for k, v in pairs)
    return "{" + body + "}"


def _qs(s: str) -> str:
    return json.dumps(s)


def serialize_runlog(log: RunLog) -> "tuple[str, str]":
    """Returns (runlog text, timing text)."""
    lines = [
        _record(
            [
                ("record", _qs("header")),
                ("fingerprint", _qs(log.fingerprint)),
                ("version", _qs(log.version)),
                ("label", _qs(log.label)),
            ]
        )
    ]
    for r in log.rows:
        lines.append(
            _record(
                [
                    ("record", _qs("epoch")),
                    ("epoch", str(r.epoch)),
                    ("eval_return", fmt_float(r.eval_return)),
                    ("grad_norm_outer", fmt_float(r.grad_norm_outer)),
                    ("prestep_grad_norm", fmt_float(r.prestep_grad_norm)),
                ]
            )
        )
    lines.append(
        _record(
            [
                ("record", _qs("footer")),
                ("total_epochs", str(len(log.rows))),
                (
                    "convergence_epoch",
                    "null" if log.convergence_epoch is None else str(log.convergence_epoch),
                ),
                ("diverged", "null" if log.diverged is None else _qs(log.diverged)),
            ]
        )
    )
    timing_lines = [
        _record(
            [
                ("record", _qs("epoch")),
                ("epoch", str(r.epoch)),
                ("wall_seconds", fmt_float(r.wall_seconds)),
                ("eval_seconds", fmt_float(r.eval_seconds)),
            ]
        )
        for r in log.rows
    ]
    timing_lines.append(
        _record([("record", _qs("footer")), ("total_wall_seconds", fmt_float(log.total_wall_seconds))])
    )
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
        "record": "platform",
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
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
    write_atomic(out / f"{log.label}.timing", json.dumps(_platform_record()) + "\n" + timing_text)
    run_path = out / f"{log.label}.runlog"
    write_atomic(run_path, run_text)
    return run_path


def load_runlog(path) -> RunLog:
    """Parse a .runlog plus its .timing sidecar back into a RunLog."""
    path = Path(path)
    try:
        records = [json.loads(line) for line in path.read_text().splitlines() if line.strip()]
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read run log {path}: {e}") from None
    if not records or records[0].get("record") != "header":
        raise ParseError(f"{path}: missing header record")
    if records[-1].get("record") != "footer":
        raise ParseError(f"{path}: missing footer record")
    header, footer = records[0], records[-1]

    timing_path = path.with_suffix(".timing")
    try:
        t_records = [
            json.loads(line) for line in timing_path.read_text().splitlines() if line.strip()
        ]
    except (OSError, json.JSONDecodeError) as e:
        raise ParseError(f"cannot read timing sidecar {timing_path}: {e}") from None
    walls = {r["epoch"]: r for r in t_records if r.get("record") == "epoch"}
    t_footer = t_records[-1] if t_records else {}

    rows = []
    for r in records[1:-1]:
        if r.get("record") != "epoch":
            raise ParseError(f"{path}: unexpected record {r.get('record')!r}")
        epoch = int(r["epoch"])
        if epoch not in walls:
            raise ParseError(f"{timing_path}: missing wall time for epoch {epoch}")
        timing = walls[epoch]
        eval_s = timing.get("eval_seconds")
        rows.append(
            EpochMetrics(
                epoch=epoch,
                eval_return=r["eval_return"],
                wall_seconds=float(timing["wall_seconds"]),
                grad_norm_outer=float(r["grad_norm_outer"]),
                prestep_grad_norm=r["prestep_grad_norm"],
                eval_seconds=None if eval_s is None else float(eval_s),
            )
        )
    conv = footer.get("convergence_epoch")
    return RunLog(
        fingerprint=header["fingerprint"],
        version=header["version"],
        label=header["label"],
        rows=tuple(rows),
        total_wall_seconds=float(t_footer.get("total_wall_seconds", 0.0) or 0.0),
        convergence_epoch=None if conv is None else int(conv),
        diverged=footer.get("diverged"),
    )


# ---------------------------------------------------------------------------
# Curve analysis
# ---------------------------------------------------------------------------

def ema_smooth(series, factor: float) -> np.ndarray:
    """s_0 = x_0; s_t = factor*s_(t-1) + (1-factor)*x_t."""
    if not 0.0 <= factor < 1.0:
        raise ValueError("smoothing factor must lie in [0, 1)")
    x = np.asarray(series, dtype=np.float64)
    out = np.empty_like(x)
    if len(x) == 0:
        return out
    out[0] = x[0]
    for t in range(1, len(x)):
        out[t] = factor * out[t - 1] + (1.0 - factor) * x[t]
    return out


def detect_convergence(smoothed, tau: float, w: int) -> int | None:
    """First index e with smoothed[e .. e+w) all >= tau (the window must fit
    entirely inside the series); None if that never happens."""
    if w < 1:
        raise ValueError("window must be >= 1")
    x = np.asarray(smoothed, dtype=np.float64)
    ok = x >= tau
    for e in range(0, len(x) - w + 1):
        if np.all(ok[e : e + w]):
            return e
    return None


def smoothed_returns(rows, factor: float = EMA_FACTOR) -> "tuple[list[int], list[float], np.ndarray]":
    """The evaluated epochs among `rows` (epochs whose eval_return is set),
    their raw eval returns, and those returns EMA-smoothed."""
    evaled = [r for r in rows if r.eval_return is not None]
    raw = [r.eval_return for r in evaled]
    return [r.epoch for r in evaled], raw, ema_smooth(raw, factor)


def convergence_epoch(rows, tau: float, w: int, factor: float = EMA_FACTOR) -> int | None:
    """The convergence rule: the smoothed eval return is >= tau for w
    consecutive evaluated epochs (the window is counted in evaluated epochs,
    skipped ones do not break it). Returns the epoch that opens the first
    such window, or None. The verdict depends only on the rows up to that
    window, so a run may stop as soon as it is not None."""
    epochs, _, smoothed = smoothed_returns(rows, factor)
    idx = detect_convergence(smoothed, tau, w)
    return None if idx is None else epochs[idx]
