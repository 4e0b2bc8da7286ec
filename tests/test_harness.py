"""Config-file, comparison-report, audit, and plot tests.

Config parsing is checked key by key (types, defaults, unknown keys, file
plus override precedence). Comparison statistics are verified against
hand-computed means and the speedup-ratio identity speedup(A,B) =
1/speedup(B,A). The plot emitter is exercised for structural properties
(one polyline per run, one .dat row per evaluated epoch) and byte-level
determinism; the autodiff audit is run at a reduced size.
"""

import json
import shlex
from pathlib import Path
from xml.dom import minidom

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _helpers import count_calls
from metarl.envs import Family
from metarl.errors import ParseError, ValidationError
from metarl.harness import (
    GRAD_TOL,
    HVP_TOL,
    AuditResult,
    audit_oracles,
    build_run_config,
    emit_plot,
    group_key,
    load_config,
    parse_config_text,
    summarize,
)
from metarl.meta import Algorithm, Learner, fingerprint
from metarl.runlog import EMA_FACTOR, EpochMetrics, RunLog, convergence_epoch


def row(epoch, ret=100.0, wall=0.25, eval_s=0.0625):
    return EpochMetrics(
        epoch=epoch,
        eval_return=ret,
        wall_seconds=wall,
        grad_norm_outer=1.0,
        prestep_grad_norm=None,
        eval_seconds=None if ret is None else eval_s,
    )


def make_log(label, rows, fp="0123456789abcdef"):
    return RunLog(
        fingerprint=fp,
        version="0.1.0",
        label=label,
        rows=tuple(rows),
        total_wall_seconds=float(sum(r.wall_seconds for r in rows)),
    )


def flat_log(label, n_epochs, ret, wall=0.25):
    return make_log(label, [row(e, ret=ret, wall=wall) for e in range(n_epochs)])


class TestParseConfigText:
    def test_basic_lines_comments_blanks(self):
        text = "\n".join(
            [
                "# leading comment",
                "algorithm = fomaml   # trailing comment",
                "",
                "alpha=0.01",
                "  label =  trial-a  ",
            ]
        )
        assert parse_config_text(text) == {
            "algorithm": "fomaml",
            "alpha": "0.01",
            "label": "trial-a",
        }

    def test_missing_equals_is_parse_error_with_location(self):
        with pytest.raises(ParseError, match=r"myfile\.cfg:2: expected key=value"):
            parse_config_text("alpha = 0.1\njust words\n", source="myfile.cfg")

    def test_empty_value_is_parse_error(self):
        with pytest.raises(ParseError, match="empty value for beta"):
            parse_config_text("beta =   # nothing here")

    def test_repeated_key_is_parse_error_naming_both_lines(self):
        with pytest.raises(ParseError, match=r"^myfile\.cfg:3: seed already set on line 1$"):
            parse_config_text("seed = 1\nalpha = 0.1\nseed = 2\n", source="myfile.cfg")

    def test_unknown_key_names_the_key(self):
        with pytest.raises(ValidationError, match="learning_rate: unknown configuration key"):
            parse_config_text("learning_rate = 0.1")


class TestBuildRunConfig:
    def test_defaults_cover_every_key(self):
        # test_config_pins.py checks that these are the dataclass defaults.
        cfg = build_run_config({})
        assert cfg.meta.algorithm is Algorithm.MAML
        assert cfg.meta.learner is Learner.PG
        assert cfg.meta.env is Family.CARTPOLE
        assert cfg.meta.alpha == 0.001
        assert cfg.meta.delta < cfg.meta.beta
        assert cfg.label == "run"

    def test_values_override_defaults(self):
        cfg = build_run_config({"algorithm": "reptile", "epochs": "7", "conv_tau": "50"})
        assert cfg.meta.algorithm is Algorithm.REPTILE
        assert cfg.meta.epochs == 7
        assert cfg.conv_tau == 50.0

    def test_non_string_values_accepted(self):
        cfg = build_run_config({"epochs": 9, "gamma": 0.5})
        assert cfg.meta.epochs == 9
        assert cfg.meta.gamma == 0.5

    @pytest.mark.parametrize(
        "key,val,msg",
        [
            ("epochs", "ten", "epochs: expected an integer"),
            ("m_tasks", "2.5", "m_tasks: expected an integer"),
            ("alpha", "fast", "alpha: expected a real number"),
            ("algorithm", "sgd", "algorithm: unknown"),
            ("learner", "q", "learner: unknown"),
            ("env", "mujoco", "env: unknown value"),
            ("alpha", "inf", "^alpha: must be finite$"),
            ("beta", "inf", "^beta: must be finite$"),
            ("beta", "nan", "^beta: must be finite$"),
            ("delta", "nan", "^delta: must be finite$"),
            ("phi_lo", "-inf", "^phi_lo: must be finite$"),
            ("phi_hi", "inf", "^phi_hi: must be finite$"),
            # The label names the run's files: a plain file name only.
            ("label", "../../escape", "^label: must be a plain file name"),
            ("label", "runs/x", "^label: must be a plain file name"),
            ("label", "a\\b", "^label: must be a plain file name"),
            ("label", ".", "^label: must be a plain file name"),
            ("label", "..", "^label: must be a plain file name"),
            ("label", "nul\0byte", "^label: must be a plain file name"),
            ("label", "a\x01b", "^label: must be a plain file name"),
            ("label", "tab\tand\nnewline", "^label: must be a plain file name"),
            ("label", "esc\x1b", "^label: must be a plain file name"),
            ("label", "del\x7f", "^label: must be a plain file name"),
            # Values that would pass and fail only once training has begun:
            # a seed the checkpoint's signed 64-bit field cannot hold, a
            # label too long for the names of the run's files, and a task
            # interval wider than a double holds (the first task draw).
            ("seed", str(2**63), "^seed: must lie in 0..9223372036854775807, got 9223372036854775808$"),
            ("seed", "-1", "^seed: must lie in 0..9223372036854775807, got -1$"),
            pytest.param(
                "label", "a" * 236, "^label: must be at most 235 bytes in UTF-8, got 236$", id="label-236-bytes"
            ),
            pytest.param(
                "label", "\u00e9" * 118, "^label: must be at most 235 bytes in UTF-8, got 236$",
                id="label-118-two-byte-characters",
            ),
            pytest.param(
                "phi_hi", {"phi_lo": "-1e308", "phi_hi": "1e308"}, "^phi_hi: phi_hi - phi_lo must be finite",
                id="phi_hi-interval-width-overflows",
            ),
        ],
    )
    def test_conversion_errors_name_the_key(self, key, val, msg):
        # A row's value is the key's, or a dict of several keys' values.
        with pytest.raises(ValidationError, match=msg):
            build_run_config(val if isinstance(val, dict) else {key: val})

    def test_label_and_seed_at_their_bounds_are_accepted(self):
        cfg = build_run_config({"label": "a" * 235, "seed": str(2**63 - 1)})
        assert len(cfg.label) == 235 and cfg.meta.seed == 2**63 - 1

    def test_semantic_errors_surface_from_config(self):
        with pytest.raises(ValidationError, match="delta"):
            build_run_config({"algorithm": "directed-maml", "delta": "0.01", "beta": "0.001"})
        with pytest.raises(ValidationError, match="gamma"):
            build_run_config({"gamma": "1.5"})

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError, match="rho: unknown configuration key"):
            build_run_config({"rho": "1"})


class TestLoadConfig:
    def test_file_values_load(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("algorithm = metasgd\nepochs = 12\nlabel = filed\n")
        cfg = load_config(p)
        assert cfg.meta.algorithm is Algorithm.METASGD
        assert cfg.meta.epochs == 12
        assert cfg.label == "filed"

    def test_overrides_win_over_file(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("epochs = 12\nseed = 3\n")
        cfg = load_config(p, {"epochs": "99", "label": "cli"})
        assert cfg.meta.epochs == 99
        assert cfg.meta.seed == 3
        assert cfg.label == "cli"

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read config"):
            load_config(tmp_path / "absent.cfg")

    def test_file_that_is_not_utf8_is_parse_error(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_bytes(b"epochs = 12\nlabel = caf\xff\n")
        with pytest.raises(ParseError, match="cannot read config") as err:
            load_config(p)
        assert str(p) in str(err.value)

    def test_same_file_same_fingerprint(self, tmp_path):
        p = tmp_path / "run.cfg"
        p.write_text("alpha = 0.002\nseed = 5\n")
        assert fingerprint(load_config(p)) == fingerprint(load_config(p))

    def test_shipped_reference_config_loads_for_non_directed(self, tmp_path):
        # The reference hyperparameters set delta > beta, which only the
        # non-directed algorithms accept; requesting a directed variant on
        # top of them must fail on the delta constraint.
        text = (
            "algorithm = maml\ndelta = 0.005\nalpha = 0.001\nbeta = 0.001\n"
            "gamma = 0.99\nm_tasks = 5\nk_trajs = 10\n"
        )
        p = tmp_path / "table.cfg"
        p.write_text(text)
        cfg = load_config(p)
        assert (cfg.meta.delta, cfg.meta.alpha, cfg.meta.beta) == (0.005, 0.001, 0.001)
        assert (cfg.meta.m_tasks, cfg.meta.k_trajs) == (5, 10)
        with pytest.raises(ValidationError, match="delta"):
            load_config(p, {"algorithm": "directed-maml"})

    def test_repo_config_files_load(self):
        root = Path(__file__).resolve().parent.parent
        for name in ("reference.cfg", "cartpole.cfg", "intersection.cfg"):
            cfg = load_config(root / "configs" / name)
            assert cfg.meta.epochs >= 400


class TestGroupKey:
    @pytest.mark.parametrize(
        "label,key",
        [
            ("maml-s1", "maml"),
            ("directed-maml-s12", "directed-maml"),
            ("maml", "maml"),
            ("run-s1-s2", "run-s1"),
            ("s5", "s5"),
            ("maml-sx", "maml-sx"),
        ],
    )
    def test_seed_suffix_stripping(self, label, key):
        assert group_key(label) == key


class TestRunConvergenceEpoch:
    """runlog.convergence_epoch over a run's rows, the rule summarize uses."""

    def test_maps_to_evaluated_epoch_numbers(self):
        # Evaluated every 3 epochs; returns ramp so the rule fires at the
        # second evaluated row, whose epoch number is 3 (not index 1): the
        # smoothed returns of epochs 0, 3, 6 are 0, 20 and 38.
        rows = []
        for e in range(9):
            ret = 200.0 if e >= 3 else 0.0
            rows.append(row(e, ret=ret if e % 3 == 0 else None))
        log = make_log("r", rows)
        assert convergence_epoch(log.rows, tau=15.0, w=2) == 3

    def test_no_evaluations_is_none(self):
        log = make_log("r", [row(0, ret=None), row(1, ret=None)])
        assert convergence_epoch(log.rows, tau=1.0, w=1) is None

    def test_never_reaches_tau_is_none(self):
        log = flat_log("r", 30, ret=10.0)
        assert convergence_epoch(log.rows, tau=175.0, w=5) is None


class TestSummarize:
    def test_single_run_means_and_zero_std(self):
        log = flat_log("maml-s1", 10, ret=200.0, wall=2.0)
        rep = summarize([log], tau=100.0, w=3)
        (g,) = rep.groups
        assert g.label == "maml"
        assert g.n_runs == 1
        assert g.epoch_seconds_mean == pytest.approx(2.0)
        assert g.epoch_seconds_std == 0.0
        assert g.eval_seconds_mean == pytest.approx(0.0625)
        assert g.convergence_epoch_mean == 0.0
        # Convergence at epoch 0: only epoch 0's training time counts.
        assert g.seconds_to_convergence_mean == pytest.approx(2.0)
        assert g.missing_convergence == 0

    def test_speedup_matches_hand_ratio(self):
        # The smoothed return crosses tau only on the final epoch (0 before
        # it, 20 on it), so the whole run counts: 1404 s vs 792 s to
        # convergence gives a 1.77x speedup either way you read the table.
        def ramp(label, n, wall):
            rows = [row(e, ret=200.0 if e == n - 1 else 0.0, wall=wall) for e in range(n)]
            return make_log(label, rows)

        slow = ramp("maml-s1", 108, 13.0)
        fast = ramp("directed-maml-s1", 66, 12.0)
        rep = summarize([slow, fast], tau=15.0, w=1)
        by = {g.label: g for g in rep.groups}
        assert by["maml"].seconds_to_convergence_mean == pytest.approx(1404.0)
        assert by["directed-maml"].seconds_to_convergence_mean == pytest.approx(792.0)
        ratios = {(a, b): r for a, b, r in rep.speedups}
        assert ratios[("maml", "directed-maml")] == pytest.approx(1404.0 / 792.0)
        assert ratios[("maml", "directed-maml")] == pytest.approx(1.77, abs=0.005)

    @given(
        walls=st.lists(st.floats(0.01, 100.0), min_size=2, max_size=6),
        n_epochs=st.integers(3, 12),
    )
    @settings(max_examples=30, deadline=None)
    def test_speedup_reciprocal_identity(self, walls, n_epochs):
        runs = [
            make_log(f"g{i}-s1", [row(e, ret=200.0, wall=w) for e in range(n_epochs)])
            for i, w in enumerate(walls)
        ]
        rep = summarize(runs, tau=100.0, w=1)
        ratios = {(a, b): r for a, b, r in rep.speedups}
        for (a, b), r in ratios.items():
            assert abs(r * ratios[(b, a)] - 1.0) <= 1e-9

    def test_seed_runs_pool_and_average(self):
        a = flat_log("alg-s1", 4, ret=200.0, wall=1.0)
        b = flat_log("alg-s2", 4, ret=200.0, wall=3.0)
        rep = summarize([a, b], tau=100.0, w=2)
        (g,) = rep.groups
        assert g.n_runs == 2
        assert g.epoch_seconds_mean == pytest.approx(2.0)
        assert g.epoch_seconds_std == pytest.approx(1.0)
        # Constant-above-tau series converge at epoch 0 (window start), so
        # to-conv counts only row 0 of each run.
        assert g.convergence_epoch_mean == 0.0
        assert g.seconds_to_convergence_mean == pytest.approx((1.0 + 3.0) / 2)

    def test_missing_convergence_counted_and_excluded(self):
        good = flat_log("alg-s1", 6, ret=200.0)
        bad = flat_log("alg-s2", 6, ret=5.0)
        rep = summarize([good, bad], tau=100.0, w=2)
        (g,) = rep.groups
        assert g.missing_convergence == 1
        assert g.convergence_epoch_mean == 0.0  # from the converging run only

    def test_group_without_convergence_reports_na_and_no_speedups(self):
        never = flat_log("alg", 5, ret=5.0)
        rep = summarize([never], tau=100.0, w=2)
        (g,) = rep.groups
        assert g.convergence_epoch_mean is None
        assert g.seconds_to_convergence_mean is None
        assert rep.speedups == ()
        text = rep.render()
        assert "n/a" in text
        assert "speedup" not in text

    def test_render_includes_rule_groups_and_speedups(self):
        slow = flat_log("maml-s1", 6, ret=200.0, wall=2.0)
        fast = flat_log("directed-maml-s1", 6, ret=200.0, wall=1.0)
        text = summarize([slow, fast], tau=150.0, w=3).render()
        assert "smoothed return >= 150" in text
        assert "maml" in text and "directed-maml" in text
        assert "directed-maml / maml = 0.5x" in text
        assert "maml / directed-maml = 2x" in text

    def test_render_columns_start_at_the_header_offsets(self):
        """Every column is as wide as its widest cell, so a long cell (an
        18-character `mean +- std`, a label over 22 characters) no longer
        shifts the rest of its row: each right-aligned cell ends where its
        header label ends, and a space follows it."""
        spread = [
            flat_log("alg-s1", 4, ret=200.0, wall=0.06781),
            flat_log("alg-s2", 4, ret=200.0, wall=0.00263),
        ]
        long_label = flat_log("an-algorithm-label-of-31-chars-s1", 4, ret=200.0, wall=1.0)
        lines = summarize([*spread, long_label], tau=100.0, w=2).render().splitlines()
        at = next(i for i, text in enumerate(lines) if text.startswith("algorithm "))
        header, rule, rows = lines[at], lines[at + 1], lines[at + 2 : at + 4]
        assert rule == "-" * len(header)
        assert any("0.03522 +- 0.03259" in r for r in rows)
        assert any(r.startswith("an-algorithm-label-of-31-chars ") for r in rows)
        ends, pos = [], header.index("runs")
        for label in ("runs", "epoch s", "eval s", "conv epoch", "to-conv s", "missing"):
            pos = header.index(label, pos) + len(label)
            ends.append(pos)
        for r in rows:
            assert len(r) == len(header), r
            for end in ends:
                assert r[end - 1] != " " and r[end : end + 1] in ("", " "), (r, end)

    def test_empty_input_rejected(self):
        with pytest.raises(ValidationError, match="runs"):
            summarize([], tau=1.0, w=1)

    def test_eval_seconds_absent_renders_na(self):
        rows = [
            EpochMetrics(epoch=e, eval_return=None, wall_seconds=0.5, grad_norm_outer=1.0)
            for e in range(3)
        ]
        rep = summarize([make_log("silent", rows)], tau=1.0, w=1)
        (g,) = rep.groups
        assert g.eval_seconds_mean is None
        assert "n/a" in rep.render()


class TestEmitPlot:
    def test_single_run_structure(self, tmp_path):
        log = flat_log("demo", 10, ret=150.0)
        svg_path, dat_path = emit_plot([log], tmp_path / "curves.svg")
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 1
        pts = svg.split('points="')[1].split('"')[0]
        assert len(pts.split()) == 10
        dat = dat_path.read_text().splitlines()
        assert dat[0] == "# label epoch eval_return smoothed"
        assert len(dat) == 1 + 10
        assert dat[1].startswith("demo 0 150 ")

    def test_reemit_is_byte_identical(self, tmp_path):
        rows = [row(e, ret=float(17 * e % 191)) for e in range(25)]
        log = make_log("jagged", rows)
        p1, d1 = emit_plot([log], tmp_path / "a" / "c.svg")
        p2, d2 = emit_plot([log], tmp_path / "b" / "c.svg")
        assert p1.read_bytes() == p2.read_bytes()
        assert d1.read_bytes() == d2.read_bytes()

    def test_multi_run_legend_and_lines(self, tmp_path):
        logs = [flat_log(f"alg{i}", 5, ret=50.0 * (i + 1)) for i in range(3)]
        svg_path, dat_path = emit_plot(logs, tmp_path / "c.svg")
        svg = svg_path.read_text()
        assert svg.count("<polyline") == 3
        for log in logs:
            assert f">{log.label}</text>" in svg
        dat = dat_path.read_text().splitlines()
        assert len(dat) == 1 + 3 * 5

    def test_same_label_runs_keep_their_own_raw_returns(self, tmp_path):
        # Two runs of one label (say a/run.runlog and b/run.runlog): each
        # .dat row pairs a run's smoothed value with that run's raw return.
        first = make_log("run", [row(e, ret=10.0 * (e + 1)) for e in range(4)])
        second = make_log("run", [row(e, ret=-3.0 * (e + 1)) for e in range(0, 8, 2)])
        _, dat_path = emit_plot([first, second], tmp_path / "c.svg")
        dat = [ln.split() for ln in dat_path.read_text().splitlines()[1:]]
        assert len(dat) == 8
        for log, part in ((first, dat[:4]), (second, dat[4:])):
            raw = [r.eval_return for r in log.rows]
            smoothed = [raw[0]]
            for x in raw[1:]:
                smoothed.append(EMA_FACTOR * smoothed[-1] + (1.0 - EMA_FACTOR) * x)
            assert [int(p[1]) for p in part] == [r.epoch for r in log.rows]
            np.testing.assert_array_equal([float(p[2]) for p in part], raw)
            np.testing.assert_array_equal([float(p[3]) for p in part], smoothed)

    def test_same_label_runs_get_distinct_series_names(self, tmp_path):
        labels = ["run", "other", "run", "run"]
        logs = [flat_log(label, 3, ret=10.0 * (i + 1)) for i, label in enumerate(labels)]
        svg_path, dat_path = emit_plot(logs, tmp_path / "c.svg")
        svg = svg_path.read_text()
        names = ["run", "other", "run#2", "run#3"]
        legend = [part.split("</text>")[0] for part in svg.split('font-family="monospace">')[1:]]
        assert legend[-4:] == names
        dat = [ln.split()[0] for ln in dat_path.read_text().splitlines()[1:]]
        assert dat == [name for name in names for _ in range(3)]

    @pytest.mark.parametrize("label", ["a<b & c", "two words", 'say "hi"', "it's", "tab\tand\nnewline"])
    def test_any_label_gives_well_formed_svg_and_four_field_rows(self, tmp_path, label):
        svg_path, dat_path = emit_plot([flat_log(label, 3, ret=10.0)], tmp_path / "c.svg")
        legend = minidom.parse(str(svg_path)).getElementsByTagName("text")[-1]
        assert legend.firstChild.data == label
        lines = dat_path.read_text().splitlines()[1:]
        assert len(lines) == 3
        for line in lines:
            assert len(shlex.split(line)) == 4
            # A quoted label is a JSON string; the three numbers follow it.
            if line.startswith('"'):
                name, end = json.JSONDecoder().raw_decode(line)
                numbers = line[end:].split()
            else:
                name, *numbers = line.split()
            assert name == label and len(numbers) == 3

    @pytest.mark.parametrize(
        "label, shown",
        [("a\x01b", "a\ufffdb"), ("nul\0byte", "nul\ufffdbyte"), ("esc\x1b[0m\x0c", "esc\ufffd[0m\ufffd")],
    )
    def test_control_characters_of_a_logged_label_give_well_formed_svg(self, tmp_path, label, shown):
        # A run log written elsewhere may hold a label the config now rejects.
        svg_path, _ = emit_plot([flat_log(label, 3, ret=10.0)], tmp_path / "c.svg")
        legend = minidom.parse(str(svg_path)).getElementsByTagName("text")[-1]
        assert legend.firstChild.data == shown

    def test_plain_labels_keep_their_bytes(self, tmp_path):
        label = "c6-directed-fomaml_s1.v2+x"
        svg_path, dat_path = emit_plot([flat_log(label, 2, ret=10.0)], tmp_path / "c.svg")
        assert f">{label}</text>" in svg_path.read_text()
        assert [ln.split()[0] for ln in dat_path.read_text().splitlines()[1:]] == [label, label]

    def test_skipped_epochs_are_dropped_from_points(self, tmp_path):
        rows = [row(e, ret=100.0 if e % 2 == 0 else None) for e in range(10)]
        log = make_log("sparse", rows)
        svg_path, dat_path = emit_plot([log], tmp_path / "c.svg")
        pts = svg_path.read_text().split('points="')[1].split('"')[0]
        assert len(pts.split()) == 5
        assert len(dat_path.read_text().splitlines()) == 1 + 5

    def test_empty_and_unevaluated_rejected(self, tmp_path):
        with pytest.raises(ValidationError, match="runs"):
            emit_plot([], tmp_path / "c.svg")
        log = make_log("mute", [row(0, ret=None)])
        with pytest.raises(ValidationError, match="mute has no evaluated epochs"):
            emit_plot([log], tmp_path / "c.svg")


class TestAuditOracles:
    def test_one_policy_does_the_full_work(self):
        # The benchmark's `audit` operation: fd_grad evaluates the objective
        # twice per parameter (2 x 4,610), fd_hvp takes two gradients beside
        # the exact one. A faster audit must still do all of it.
        with count_calls() as c:
            audit_oracles(n_seeds=1, k=2, horizon=15)
        assert (c.value_calls, c.grad_calls, c.hvp_calls, c.batches) == (9220, 3, 1, 1)

    def test_small_audit_passes(self):
        res = audit_oracles(n_seeds=2, k=1, horizon=6)
        assert len(res.grad_errors) == 2
        assert res.passed
        assert res.max_grad_error <= GRAD_TOL
        assert res.max_hvp_error <= HVP_TOL

    def test_render_lists_every_seed_and_verdict(self):
        res = AuditResult(grad_errors=(1e-6, 3e-6), hvp_errors=(1e-5, 2e-5))
        text = res.render()
        assert "seed 0" in text and "seed 1" in text
        assert text.strip().endswith("OK")

    def test_failed_audit_renders_fail(self):
        res = AuditResult(grad_errors=(1e-2,), hvp_errors=(1e-5,))
        assert not res.passed
        assert res.render().strip().endswith("FAIL")

    def test_zero_seeds_rejected(self):
        with pytest.raises(ValidationError, match="n_seeds"):
            audit_oracles(n_seeds=0)
