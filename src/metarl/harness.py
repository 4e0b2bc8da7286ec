"""Experiment plumbing: config files, multi-run comparison, and plots.

Config files are flat `key=value` text with `#` comments; the accepted keys
are exactly the canonical config vocabulary (meta.CONFIG_KEYS). Command-line
overrides win over file values, and keys set nowhere take the MetaConfig /
RunConfig field defaults; each value is converted by the type of its
field's default. Comparison reports aggregate per-algorithm timing and
convergence (runlog.convergence_epoch) over seeds and print a plain-text
table plus pairwise speedup ratios; curves are emitted as a standalone SVG
next to a columnar data file. Every output is a pure function of its inputs,
so identical runs produce byte-identical files.
"""

from __future__ import annotations

import enum
import json
import re
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import rl
from .envs import Family, Task, make_env
from .errors import ParseError, ValidationError
from .meta import CONFIG_KEYS, MetaConfig, RunConfig
from .policy import PolicyNet, actor_arch, init_params
from .rng import Stream
from .runlog import RunLog, convergence_epoch, fmt_float, smoothed_returns, write_atomic

__all__ = [
    "load_config",
    "parse_config_text",
    "build_run_config",
    "AlgorithmSummary",
    "ComparisonReport",
    "summarize",
    "emit_plot",
    "group_key",
    "AuditResult",
    "audit_oracles",
    "GRAD_TOL",
    "HVP_TOL",
]

GRAD_TOL = 1e-4
HVP_TOL = 1e-3
AUDIT_GAMMA = 0.99  # the discount of the audited surrogate


def parse_config_text(text: str, source: str = "<config>") -> "dict[str, str]":
    """key=value lines into a dict; '#' starts a comment; blank lines skipped.
    A key set on two lines is a ParseError."""
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"{source}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in CONFIG_KEYS:
            raise ValidationError(f"{key}: unknown configuration key ({source}:{lineno})")
        if not val:
            raise ParseError(f"{source}:{lineno}: empty value for {key}")
        if key in set_on:
            raise ParseError(f"{source}:{lineno}: {key} already set on line {set_on[key]}")
        set_on[key] = lineno
        values[key] = val
    return values


def _convert(key: str, kind: type, val: str):
    """`val` as a value of `kind`, the type of the key's field default. An
    enum member is named by its value, in any case, with `_` for `-` and
    surrounding blanks ignored."""
    if issubclass(kind, enum.Enum):
        name = val.strip().lower().replace("_", "-")
        for member in kind:
            if member.value == name:
                return member
        raise ValidationError(f"{key}: unknown value {val!r}")
    if kind is str:
        return val
    try:
        return kind(val)
    except ValueError:
        expected = "an integer" if kind is int else "a real number"
        raise ValidationError(f"{key}: expected {expected}, got {val!r}") from None


def build_run_config(values: "dict[str, str]") -> RunConfig:
    """The given values (strings, or anything str() turns into one) over the
    MetaConfig/RunConfig field defaults, converted and validated."""
    for key in values:
        if key not in CONFIG_KEYS:
            raise ValidationError(f"{key}: unknown configuration key")
    meta_kw, run_kw = {}, {}
    for kw, cls in ((meta_kw, MetaConfig), (run_kw, RunConfig)):
        for f in fields(cls):
            if f.name in values:
                kw[f.name] = _convert(f.name, type(f.default), str(values[f.name]))
    return RunConfig(meta=MetaConfig(**meta_kw), **run_kw)


def load_config(path, overrides: "dict[str, str] | None" = None) -> RunConfig:
    """Config file plus command-line overrides (overrides win)."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ParseError(f"cannot read config {path}: {e}") from None
    values = parse_config_text(text, source=str(path))
    values.update(overrides or {})
    return build_run_config(values)


# ---------------------------------------------------------------------------
# Multi-run comparison
# ---------------------------------------------------------------------------

_SEED_SUFFIX = re.compile(r"-s\d+$")


def group_key(label: str) -> str:
    """Runs labeled `<name>-s<seed>` aggregate under `<name>`."""
    return _SEED_SUFFIX.sub("", label)


@dataclass(frozen=True)
class AlgorithmSummary:
    label: str
    n_runs: int
    epoch_seconds_mean: float
    epoch_seconds_std: float
    eval_seconds_mean: "float | None"
    eval_seconds_std: "float | None"
    convergence_epoch_mean: "float | None"
    convergence_epoch_std: "float | None"
    seconds_to_convergence_mean: "float | None"
    seconds_to_convergence_std: "float | None"
    missing_convergence: int


@dataclass(frozen=True)
class ComparisonReport:
    tau: float
    window: int
    groups: "tuple[AlgorithmSummary, ...]"
    speedups: "tuple[tuple[str, str, float], ...]"  # (numerator, denominator, ratio)

    def render(self) -> str:
        header = ("algorithm", "runs", "epoch s", "eval s", "conv epoch", "to-conv s", "missing")
        rows = [
            (
                g.label,
                str(g.n_runs),
                _pm(g.epoch_seconds_mean, g.epoch_seconds_std),
                _pm(g.eval_seconds_mean, g.eval_seconds_std),
                _pm(g.convergence_epoch_mean, g.convergence_epoch_std),
                _pm(g.seconds_to_convergence_mean, g.seconds_to_convergence_std),
                str(g.missing_convergence),
            )
            for g in self.groups
        ]
        # Each column is as wide as its widest cell: the label left-aligned,
        # the numbers right-aligned.
        widths = [max(map(len, column)) for column in zip(header, *rows)]

        def line(cells) -> str:
            label, *numbers = cells
            return " ".join([label.ljust(widths[0])] + [c.rjust(w) for c, w in zip(numbers, widths[1:])])

        head = line(header)
        lines = [
            f"convergence rule: smoothed return >= {_fmt(self.tau)} "
            f"for {self.window} consecutive evaluated epochs",
            "",
            head,
            "-" * len(head),
            *map(line, rows),
        ]
        if self.speedups:
            lines.append("")
            lines.append("speedup (ratio of mean seconds to convergence):")
            for num, den, ratio in self.speedups:
                lines.append(f"  {num} / {den} = {_fmt(ratio)}x")
        return "\n".join(lines) + "\n"


def _fmt(x: float) -> str:
    return format(float(x), ".4g")


def _pm(mean: "float | None", std: "float | None") -> str:
    if mean is None:
        return "n/a"
    return f"{_fmt(mean)} +- {_fmt(std)}"


def _mean_std(xs: "list[float]") -> "tuple[float, float]":
    arr = np.asarray(xs, dtype=np.float64)
    return float(arr.mean()), float(arr.std())


def summarize(runs: "list[RunLog]", tau: float, w: int) -> ComparisonReport:
    """Aggregate runs per algorithm label (seed suffixes stripped): per-epoch
    training seconds, per-evaluation seconds, convergence epoch, and training
    seconds until convergence. Runs that never converge are counted and
    excluded from the convergence statistics."""
    if not runs:
        raise ValidationError("runs: need at least one run log to summarize")
    by_group: "dict[str, list[RunLog]]" = {}
    for log in runs:
        by_group.setdefault(group_key(log.label), []).append(log)

    groups: "list[AlgorithmSummary]" = []
    to_conv_means: "dict[str, float]" = {}
    for label in sorted(by_group):
        members = by_group[label]
        epoch_secs = [r.wall_seconds for log in members for r in log.rows]
        eval_secs = [r.eval_seconds for log in members for r in log.rows if r.eval_seconds is not None]
        conv_epochs: "list[float]" = []
        conv_secs: "list[float]" = []
        missing = 0
        for log in members:
            conv = convergence_epoch(log.rows, tau, w)
            if conv is None:
                missing += 1
                continue
            conv_epochs.append(float(conv))
            conv_secs.append(float(sum(r.wall_seconds for r in log.rows if r.epoch <= conv)))
        e_mean, e_std = _mean_std(epoch_secs)
        v_mean, v_std = _mean_std(eval_secs) if eval_secs else (None, None)
        if conv_epochs:
            c_mean, c_std = _mean_std(conv_epochs)
            s_mean, s_std = _mean_std(conv_secs)
            to_conv_means[label] = s_mean
        else:
            c_mean = c_std = s_mean = s_std = None
        groups.append(
            AlgorithmSummary(
                label=label,
                n_runs=len(members),
                epoch_seconds_mean=e_mean,
                epoch_seconds_std=e_std,
                eval_seconds_mean=v_mean,
                eval_seconds_std=v_std,
                convergence_epoch_mean=c_mean,
                convergence_epoch_std=c_std,
                seconds_to_convergence_mean=s_mean,
                seconds_to_convergence_std=s_std,
                missing_convergence=missing,
            )
        )

    speedups: "list[tuple[str, str, float]]" = []
    labels = [g.label for g in groups if g.label in to_conv_means]
    for a in labels:
        for b in labels:
            if a != b:
                speedups.append((a, b, to_conv_means[a] / to_conv_means[b]))
    return ComparisonReport(tau=tau, window=w, groups=tuple(groups), speedups=tuple(speedups))


# ---------------------------------------------------------------------------
# Autodiff audit: reverse-mode and curvature against finite differences
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AuditResult:
    grad_errors: "tuple[float, ...]"
    hvp_errors: "tuple[float, ...]"

    @property
    def max_grad_error(self) -> float:
        return max(self.grad_errors)

    @property
    def max_hvp_error(self) -> float:
        return max(self.hvp_errors)

    @property
    def passed(self) -> bool:
        return self.max_grad_error <= GRAD_TOL and self.max_hvp_error <= HVP_TOL

    def render(self) -> str:
        lines = ["autodiff audit: policy-gradient surrogate on frozen rollout batches"]
        for i, (ge, he) in enumerate(zip(self.grad_errors, self.hvp_errors)):
            lines.append(f"  seed {i}: grad rel err {ge:.3e}  hvp rel err {he:.3e}")
        verdict = "OK" if self.passed else "FAIL"
        lines.append(
            f"max grad rel err {self.max_grad_error:.3e} (tol {GRAD_TOL:g}), "
            f"max hvp rel err {self.max_hvp_error:.3e} (tol {HVP_TOL:g}): {verdict}"
        )
        return "\n".join(lines) + "\n"


def audit_oracles(
    n_seeds: int,
    k: int = 2,
    horizon: int = 15,
    phi: float = 10.0,
) -> AuditResult:
    """Check the gradient and Hessian-vector-product paths against central
    finite differences on the policy surrogate over frozen rollout batches,
    one independent policy and batch per seed, discounted at AUDIT_GAMMA."""
    if n_seeds < 1:
        raise ValidationError("n_seeds: must be >= 1")
    grad_errors: "list[float]" = []
    hvp_errors: "list[float]" = []
    for s in range(n_seeds):
        stream = Stream(s)
        env = make_env(Task(Family.CARTPOLE, phi))
        arch = actor_arch(env)
        theta = init_params(arch, stream.child(0))
        batch = rl.sample_batch(env, PolicyNet(arch, theta), k, stream.child(1), horizon)
        obj = rl.policy_objective(batch, AUDIT_GAMMA)
        g = ad.grad(obj, theta)
        grad_errors.append(ad.rel_err(g, ad.fd_grad(obj, theta)))
        v_raw = stream.child(2).generator().standard_normal(theta.size)
        v = theta.with_values(v_raw / np.linalg.norm(v_raw))
        hv = ad.hvp(obj, theta, v)
        hvp_errors.append(ad.rel_err(hv, ad.fd_hvp(obj, theta, v)))
    return AuditResult(grad_errors=tuple(grad_errors), hvp_errors=tuple(hvp_errors))


# ---------------------------------------------------------------------------
# Plotting
# ---------------------------------------------------------------------------

_PALETTE = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#ff7f0e",
    "#9467bd",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
)
_XML_INVALID = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f]")

_W, _H = 880.0, 560.0
_ML, _MR, _MT, _MB = 70.0, 30.0, 40.0, 55.0


def _svg_coord(x: float) -> str:
    return format(x, ".2f")


def emit_plot(runs: "list[RunLog]", out_path) -> "tuple[Path, Path]":
    """One EMA-smoothed eval-return polyline per run, legend by label, to a
    standalone SVG plus a columnar .dat file of the plotted points. A label
    shared by several runs names them `label`, `label#2`, ... in input order,
    in the legend and the .dat label column alike. Output bytes depend only
    on the run contents."""
    if not runs:
        raise ValidationError("runs: need at least one run log to plot")
    series: "list[tuple[str, list[int], list[float], np.ndarray]]" = []
    seen: "dict[str, int]" = {}
    for log in runs:
        xs, raw, ys = smoothed_returns(log.rows)
        if not xs:
            raise ValidationError(f"runs: {log.label} has no evaluated epochs to plot")
        seen[log.label] = n = seen.get(log.label, 0) + 1
        series.append((log.label if n == 1 else f"{log.label}#{n}", xs, raw, ys))

    x_hi = max(max(xs) for _, xs, _, _ in series)
    x_lo = min(min(xs) for _, xs, _, _ in series)
    y_all = np.concatenate([ys for _, _, _, ys in series])
    y_lo = min(0.0, float(y_all.min()))
    y_hi = float(y_all.max())
    y_hi = y_hi + 0.05 * max(y_hi - y_lo, 1.0)
    if x_hi == x_lo:
        x_hi = x_lo + 1
    plot_w = _W - _ML - _MR
    plot_h = _H - _MT - _MB

    def px(e: float) -> float:
        return _ML + (e - x_lo) / (x_hi - x_lo) * plot_w

    def py(v: float) -> float:
        return _MT + (y_hi - v) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{int(_W)}" height="{int(_H)}" '
        f'viewBox="0 0 {int(_W)} {int(_H)}">',
        f'<rect x="0" y="0" width="{int(_W)}" height="{int(_H)}" fill="white"/>',
        f'<rect x="{_svg_coord(_ML)}" y="{_svg_coord(_MT)}" width="{_svg_coord(plot_w)}" '
        f'height="{_svg_coord(plot_h)}" fill="none" stroke="black" stroke-width="1"/>',
    ]
    for i in range(5):
        fx = x_lo + (x_hi - x_lo) * i / 4
        fy = y_lo + (y_hi - y_lo) * i / 4
        parts.append(
            f'<text x="{_svg_coord(px(fx))}" y="{_svg_coord(_H - _MB + 18)}" font-size="12" '
            f'text-anchor="middle" font-family="monospace">{format(fx, ".4g")}</text>'
        )
        parts.append(
            f'<text x="{_svg_coord(_ML - 8)}" y="{_svg_coord(py(fy) + 4)}" font-size="12" '
            f'text-anchor="end" font-family="monospace">{format(fy, ".4g")}</text>'
        )
        parts.append(
            f'<line x1="{_svg_coord(_ML)}" y1="{_svg_coord(py(fy))}" x2="{_svg_coord(_W - _MR)}" '
            f'y2="{_svg_coord(py(fy))}" stroke="#dddddd" stroke-width="1"/>'
        )
    parts.append(
        f'<text x="{_svg_coord(_ML + plot_w / 2)}" y="{_svg_coord(_H - 12)}" font-size="13" '
        f'text-anchor="middle" font-family="monospace">epoch</text>'
    )
    parts.append(
        f'<text x="16" y="{_svg_coord(_MT + plot_h / 2)}" font-size="13" text-anchor="middle" '
        f'font-family="monospace" transform="rotate(-90 16 {_svg_coord(_MT + plot_h / 2)})">'
        "smoothed return</text>"
    )
    for idx, (label, xs, _, ys) in enumerate(series):
        # XML-escaped by hand: xml.sax.saxutils would import urllib and ssl.
        # XML 1.0 holds no C0 control but tab, LF and CR: the rest become U+FFFD.
        text = _XML_INVALID.sub("\ufffd", label)
        text = text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        color = _PALETTE[idx % len(_PALETTE)]
        pts = " ".join(f"{_svg_coord(px(e))},{_svg_coord(py(v))}" for e, v in zip(xs, ys))
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{pts}"/>'
        )
        ly = _MT + 16 + 16 * idx
        parts.append(
            f'<line x1="{_svg_coord(_ML + 10)}" y1="{_svg_coord(ly - 4)}" x2="{_svg_coord(_ML + 34)}" '
            f'y2="{_svg_coord(ly - 4)}" stroke="{color}" stroke-width="1.5"/>'
        )
        parts.append(
            f'<text x="{_svg_coord(_ML + 40)}" y="{_svg_coord(ly)}" font-size="12" '
            f'font-family="monospace">{text}</text>'
        )
    parts.append("</svg>")

    out_path = Path(out_path)
    out_path.parent.mkdir(parents=True, exist_ok=True)
    write_atomic(out_path, "\n".join(parts) + "\n")

    dat_path = out_path.with_suffix(".dat")
    dat_lines = ["# label epoch eval_return smoothed"]
    for label, xs, raw, ys in series:
        # A label with whitespace or quotes is written as a JSON string, so a
        # row keeps four fields; any other label keeps its bytes.
        if any(c.isspace() or c in "\"'" for c in label):
            label = json.dumps(label)
        for e, r0, sm in zip(xs, raw, ys):
            dat_lines.append(f"{label} {e} {fmt_float(r0)} {fmt_float(sm)}")
    write_atomic(dat_path, "\n".join(dat_lines) + "\n")
    return out_path, dat_path
