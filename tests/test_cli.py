"""End-to-end command-line tests.

Each test drives `main()` with real argv lists and miniature runs (short
horizon, two tasks, a few epochs) so the whole pipeline executes in-process:
train writes logs and checkpoints, eval reloads them, compare and plot
consume the logs, sweep fans a config across seeds. Determinism contracts
are checked at the byte level: identical config and seed give identical
.runlog files, and a parallel sweep writes exactly the bytes the serial
sweep does.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import metarl
from metarl import cli, meta, rl
from metarl.errors import MetaRLError, NonFiniteValue
from metarl.policy import load_checkpoint, save_checkpoint
from metarl.runlog import EpochMetrics, RunLog, load_runlog, save_runlog, smoothed_returns

TINY = [
    "--env", "cartpole",
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
# Sweep takes its seeds from --seeds, so it is given TINY without --seed.
SWEEP = TINY[:-2]
# One trajectory more than a batch at the default horizon may hold.
OVER_ROWS = meta.MAX_ROLLOUT_ROWS // meta.MetaConfig.horizon + 1


def train_tiny(out_dir, label, extra=()):
    argv = ["train", *TINY, "--out_dir", str(out_dir), "--label", label, *extra]
    return cli.main(argv)


class TestTrain:
    def test_writes_runlog_timing_checkpoint(self, tmp_path, capsys):
        rc = train_tiny(tmp_path, "tiny")
        assert rc == 0
        assert (tmp_path / "tiny.runlog").exists()
        assert (tmp_path / "tiny.timing").exists()
        assert (tmp_path / "tiny.ckpt").exists()
        out = capsys.readouterr().out
        assert "tiny: 3 epochs" in out
        assert "wrote" in out

    def test_identical_config_and_seed_is_byte_identical(self, tmp_path):
        train_tiny(tmp_path, "t")
        first = (tmp_path / "t.runlog").read_bytes()
        train_tiny(tmp_path, "t")
        assert (tmp_path / "t.runlog").read_bytes() == first

    def test_different_seed_differs(self, tmp_path):
        train_tiny(tmp_path / "a", "t")
        rc = cli.main(
            ["train", *TINY[:-2], "--seed", "8", "--out_dir", str(tmp_path / "b"), "--label", "t"]
        )
        assert rc == 0
        assert (tmp_path / "a" / "t.runlog").read_bytes() != (tmp_path / "b" / "t.runlog").read_bytes()

    def test_config_file_plus_override(self, tmp_path):
        cfg = tmp_path / "mini.cfg"
        cfg.write_text(
            "env = cartpole\nhorizon = 12\nepochs = 2\nm_tasks = 2\nk_trajs = 2\n"
            f"eval_episodes = 2\nbeta = 0.01\nout_dir = {tmp_path / 'runs'}\nlabel = filed\n"
        )
        rc = cli.main(["train", "--config", str(cfg), "--epochs", "4"])
        assert rc == 0
        text = (tmp_path / "runs" / "filed.runlog").read_text()
        assert text.count('"record": "epoch"') == 4

    def test_blas_threads_pinned_when_unset(self, tmp_path):
        """The library pins BLAS to one thread unless the caller chose. On a
        2-core machine with the variables unset, OpenBLAS took both cores and
        the third cartpole epoch's record differed from a one-thread run's."""
        repo = Path(__file__).resolve().parents[1]
        cmd = [sys.executable, "-m", "metarl.cli", "train", "--config", str(repo / "configs" / "cartpole.cfg"),
               "--epochs", "3", "--out_dir", "runs", "--label", "t"]
        logs = []
        for name, threads in (("unset", {}), ("one", dict.fromkeys(metarl._BLAS_THREAD_VARS, "1"))):
            env = {k: v for k, v in os.environ.items() if k not in metarl._BLAS_THREAD_VARS} | threads
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(repo / "src"), env.get("PYTHONPATH")]))
            (tmp_path / name).mkdir()
            subprocess.run(cmd, cwd=tmp_path / name, env=env, check=True, capture_output=True)
            logs.append((tmp_path / name / "runs" / "t.runlog").read_bytes())
        assert logs[0] == logs[1]

    def test_delta_at_least_beta_for_directed_fails(self, capsys):
        rc = cli.main(
            ["train", "--algorithm", "directed-maml", "--delta", "0.01", "--beta", "0.001"]
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "delta" in err

    def test_unknown_algorithm_fails_cleanly(self, capsys):
        rc = cli.main(["train", "--algorithm", "dqn"])
        assert rc == 1
        assert "algorithm" in capsys.readouterr().err


class TestEval:
    def test_eval_from_checkpoint(self, tmp_path, capsys):
        train_tiny(tmp_path, "t")
        capsys.readouterr()
        rc = cli.main(
            [
                "eval", "--ckpt", str(tmp_path / "t.ckpt"),
                *TINY, "--out_dir", str(tmp_path), "--label", "t", "--eval_episodes", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean post-adaptation return over 2 tasks x 2 episodes:" in out

    def test_eval_reads_eval_episodes_from_the_config_file(self, tmp_path, capsys):
        train_tiny(tmp_path, "t")
        cfg = tmp_path / "eval.cfg"
        cfg.write_text(
            "env = cartpole\nhorizon = 12\nepochs = 3\nm_tasks = 2\nk_trajs = 2\n"
            "alpha = 0.001\nbeta = 0.01\ndelta = 0.0005\nseed = 7\neval_episodes = 3\n"
        )
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(tmp_path / "t.ckpt"), "--config", str(cfg)]) == 0
        assert "over 2 tasks x 3 episodes:" in capsys.readouterr().out

    def test_eval_is_deterministic(self, tmp_path, capsys):
        train_tiny(tmp_path, "t")
        argv = [
            "eval", "--ckpt", str(tmp_path / "t.ckpt"),
            *TINY, "--out_dir", str(tmp_path), "--label", "t",
        ]
        capsys.readouterr()
        assert cli.main(argv) == 0
        first = capsys.readouterr().out
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == first

    def test_seed_mismatch_rejected(self, tmp_path, capsys):
        train_tiny(tmp_path, "t")
        capsys.readouterr()
        rc = cli.main(
            ["eval", "--ckpt", str(tmp_path / "t.ckpt"), *TINY[:-2], "--seed", "9"]
        )
        assert rc == 1
        assert "seed" in capsys.readouterr().err

    def test_missing_checkpoint_errors(self, tmp_path, capsys):
        rc = cli.main(["eval", "--ckpt", str(tmp_path / "absent.ckpt"), *TINY])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_truncated_checkpoint_error_names_the_file(self, tmp_path, capsys):
        train_tiny(tmp_path, "t")
        data = (tmp_path / "t.ckpt").read_bytes()
        half = tmp_path / "half.ckpt"
        half.write_bytes(data[: len(data) // 2])
        capsys.readouterr()
        assert cli.main(["eval", "--ckpt", str(half), *TINY]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {half}: checkpoint truncated\n"


class TestResumeErrors:
    """A checkpoint that lacks what the config needs fails as a library error
    naming the field: exit status 1, one `error:` line, no traceback."""

    def resume(self, tmp_path, ckpt, extra=()):
        argv = ["train", *TINY, *extra, "--out_dir", str(tmp_path / "resumed"), "--label", "r"]
        return cli.main([*argv, "--resume", str(ckpt)])

    def rewritten(self, tmp_path, drop_vector=None, drop_meta=None, set_meta=()):
        train_tiny(tmp_path, "t")
        vectors, meta = load_checkpoint(tmp_path / "t.ckpt")
        vectors.pop(drop_vector, None)
        meta.pop(drop_meta, None)
        meta.update(set_meta)
        path = tmp_path / "edited.ckpt"
        save_checkpoint(path, vectors, meta)
        return path

    def assert_clean_error(self, capsys, field):
        self.assert_clean_error_text(capsys.readouterr().err, field)

    @staticmethod
    def assert_clean_error_text(err, field):
        assert err.startswith(f"error: {field}: checkpoint ")
        assert "Traceback" not in err

    def test_missing_policy_vector(self, tmp_path, capsys):
        ckpt = self.rewritten(tmp_path, drop_vector="policy")
        capsys.readouterr()
        assert self.resume(tmp_path, ckpt) == 1
        self.assert_clean_error(capsys, "policy")

    def test_missing_epoch_metadata(self, tmp_path, capsys):
        ckpt = self.rewritten(tmp_path, drop_meta="epoch")
        capsys.readouterr()
        assert self.resume(tmp_path, ckpt) == 1
        self.assert_clean_error(capsys, "epoch")

    def test_negative_epoch_metadata(self, tmp_path, capsys):
        ckpt = self.rewritten(tmp_path, set_meta={"epoch": -1})
        capsys.readouterr()
        assert self.resume(tmp_path, ckpt) == 1
        err = capsys.readouterr().err
        self.assert_clean_error_text(err, "epoch")
        assert err == f"error: epoch: checkpoint {ckpt} has epoch -1, below 0\n"

    def test_finished_run_is_refused_and_its_log_kept(self, tmp_path, capsys):
        """Resuming a run from its final checkpoint has no epoch left to
        train; it is refused before the run's log and timing are rewritten."""
        assert train_tiny(tmp_path, "t") == 0
        ckpt = tmp_path / "t.ckpt"
        kept = {p.name: p.read_bytes() for p in (tmp_path / "t.runlog", tmp_path / "t.timing", ckpt)}
        capsys.readouterr()
        assert train_tiny(tmp_path, "t", ["--resume", str(ckpt)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"error: epochs: checkpoint {ckpt} is at epoch 3, not below epochs = 3; "
            "nothing is left to train\n"
        )
        assert {name: (tmp_path / name).read_bytes() for name in kept} == kept

    @pytest.mark.parametrize("algorithm", ["metasgd", "directed-metasgd"])
    def test_metasgd_family_needs_alpha_vec(self, tmp_path, capsys, algorithm):
        train_tiny(tmp_path, "t")  # maml: no alpha_vec in its checkpoint
        capsys.readouterr()
        assert self.resume(tmp_path, tmp_path / "t.ckpt", ["--algorithm", algorithm]) == 1
        self.assert_clean_error(capsys, "alpha_vec")

    @pytest.mark.parametrize("command", ["eval", "resume"])
    @pytest.mark.parametrize("step", [0.0, -0.001])
    def test_metasgd_step_size_not_above_zero(self, tmp_path, capsys, command, step):
        """A Meta-SGD checkpoint whose alpha_vec has an entry <= 0 is refused
        by one error line naming the file and alpha_vec, not a traceback."""
        metasgd = ["--algorithm", "metasgd"]
        assert train_tiny(tmp_path, "t", metasgd) == 0
        vectors, saved = load_checkpoint(tmp_path / "t.ckpt")
        steps = vectors["alpha_vec"].values.copy()
        steps[3] = step
        vectors["alpha_vec"] = vectors["alpha_vec"].with_values(steps)
        ckpt = tmp_path / "edited.ckpt"
        save_checkpoint(ckpt, vectors, saved)
        capsys.readouterr()
        if command == "eval":
            assert cli.main(["eval", "--ckpt", str(ckpt), *TINY, *metasgd]) == 1
        else:
            assert self.resume(tmp_path, ckpt, [*metasgd, "--epochs", "4"]) == 1
        err = capsys.readouterr().err
        self.assert_clean_error_text(err, "alpha_vec")
        assert err == f"error: alpha_vec: checkpoint {ckpt} has a step size of {step!r}; every entry must be above 0\n"

    def test_actor_critic_needs_critic(self, tmp_path, capsys):
        train_tiny(tmp_path, "t")  # pg learner: no critic in its checkpoint
        capsys.readouterr()
        assert self.resume(tmp_path, tmp_path / "t.ckpt", ["--learner", "ac"]) == 1
        self.assert_clean_error(capsys, "critic")

    @pytest.mark.parametrize("command", ["eval", "resume"])
    def test_checkpoint_of_another_env_family(self, tmp_path, capsys, command):
        """An intersection checkpoint under a cartpole config (same seed) is
        refused before any rollout, naming the policy vector."""
        argv = ["train", *TINY, "--env", "intersection", "--epochs", "1"]
        assert cli.main([*argv, "--out_dir", str(tmp_path), "--label", "x"]) == 0
        ckpt = tmp_path / "x.ckpt"
        capsys.readouterr()
        if command == "eval":
            assert cli.main(["eval", "--ckpt", str(ckpt), *TINY]) == 1
        else:
            assert self.resume(tmp_path, ckpt) == 1
        err = capsys.readouterr().err
        self.assert_clean_error_text(err, "policy")
        assert err.count("\n") == 1

    def test_complete_checkpoint_resumes(self, tmp_path, capsys):
        ckpt = self.rewritten(tmp_path)
        assert self.resume(tmp_path, ckpt, ["--epochs", "4"]) == 0
        assert "r: 1 epochs" in capsys.readouterr().out


class _ExplodingProblem:
    """An RLProblem whose first objective is not finite, so a run diverges
    in its first epoch."""

    def __init__(self, cfg, critic=None):
        self.critic = critic

    def task_objective(self, task, theta, rng):
        raise NonFiniteValue("synthetic non-finite objective")


class TestDiverged:
    CAUSE = "diverged (epoch 0: synthetic non-finite objective)"

    def test_train_reports_divergence_and_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(meta, "RLProblem", _ExplodingProblem)
        assert train_tiny(tmp_path, "t") == 1
        out = capsys.readouterr().out.splitlines()
        assert out == [
            f"t: 0 epochs, convergence epoch none, final eval return n/a, {self.CAUSE}",
            f"wrote {tmp_path / 't.runlog'}",
        ]
        assert load_runlog(tmp_path / "t.runlog").diverged == self.CAUSE[10:-1]

    def test_sweep_reports_each_divergence_and_exits_1(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(meta, "RLProblem", _ExplodingProblem)
        argv = ["sweep", *SWEEP, "--out_dir", str(tmp_path), "--label", "alg", "--seeds", "1,2"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"alg-s1: no convergence, {self.CAUSE}",
            f"alg-s2: no convergence, {self.CAUSE}",
            f"wrote 2 run logs to {tmp_path}",
        ]


class TestDamagedFiles:
    def test_each_reading_command_fails_cleanly(self, tmp_path, capsys):
        """compare, plot, eval, train --resume and train --config, each on a
        truncated or byte-changed copy of a file a run wrote or of a config:
        exit status 1, one `error:` line and no traceback, and nothing
        written."""
        assert train_tiny(tmp_path, "t") == 0
        runlog, ckpt = (tmp_path / "t.runlog").read_bytes(), (tmp_path / "t.ckpt").read_bytes()
        config = "".join(f"{key[2:]} = {val}\n" for key, val in zip(TINY[::2], TINY[1::2])).encode()
        damaged, out = tmp_path / "damaged", tmp_path / "out"
        damaged.mkdir()

        def write(name, data):
            (damaged / name).write_bytes(data)
            return str(damaged / name)

        def changed(data, at, byte):
            return data[:at] + byte + data[at + 1 :]

        commands = [
            ["compare", write("cut.runlog", runlog[: len(runlog) // 2]), "--out", str(out)],
            ["plot", write("changed.runlog", changed(runlog, 0, b"#")), "--out", str(out / "c.svg")],
            ["eval", "--ckpt", write("cut.ckpt", ckpt[: len(ckpt) // 2]), *TINY],
            ["train", *TINY, "--out_dir", str(out), "--resume", write("changed.ckpt", changed(ckpt, 0, b"X"))],
            ["train", "--config", write("changed.cfg", changed(config, 0, b"X")), "--out_dir", str(out)],
        ]
        capsys.readouterr()
        for argv in commands:
            assert cli.main(argv) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
            assert str(damaged) in err and "Traceback" not in err
        assert not out.exists()


class TestEpochReport:
    """`train` and each `sweep` run print one stderr line per evaluated
    epoch; stdout and the run log are those of a run without the report."""

    @staticmethod
    def expected(label, runlog):
        rows = {r.epoch: r for r in load_runlog(runlog).rows}
        epochs, raw, smoothed = smoothed_returns(rows.values())
        return [
            f"{label}: epoch {e}: eval return {r:.2f}, smoothed {s:.2f} {'>=' if s >= 5.0 else '<'} "
            f"conv_tau 5, outer grad norm {rows[e].grad_norm_outer:.4g}"
            for e, r, s in zip(epochs, raw, smoothed)
        ]

    def test_train_reports_each_evaluated_epoch(self, tmp_path, capsys, monkeypatch):
        assert train_tiny(tmp_path, "t", ["--eval_every", "2"]) == 0
        reported, runlog = capsys.readouterr(), (tmp_path / "t.runlog").read_bytes()
        lines = self.expected("t", tmp_path / "t.runlog")
        assert [line.split(":")[1] for line in lines] == [" epoch 0", " epoch 2"]
        assert reported.err.splitlines() == lines
        monkeypatch.setattr(cli, "_epoch_reporter", lambda rc: None)
        assert train_tiny(tmp_path, "t", ["--eval_every", "2"]) == 0
        assert capsys.readouterr() == (reported.out, "")
        assert (tmp_path / "t.runlog").read_bytes() == runlog

    def test_each_sweep_run_reports_its_epochs(self, tmp_path, capsys):
        argv = ["sweep", *SWEEP, "--out_dir", str(tmp_path), "--label", "alg", "--seeds", "1,2"]
        assert cli.main(argv) == 0
        err = capsys.readouterr().err.splitlines()
        assert err == [*self.expected("alg-s1", tmp_path / "alg-s1.runlog"),
                       *self.expected("alg-s2", tmp_path / "alg-s2.runlog")]
        assert len(err) == 6


class TestCompareAndPlot:
    @pytest.fixture()
    def two_logs(self, tmp_path):
        train_tiny(tmp_path, "alg-s1")
        train_tiny(tmp_path, "alg-s2", extra=["--seed", "8"])
        return [str(tmp_path / "alg-s1.runlog"), str(tmp_path / "alg-s2.runlog")]

    def test_compare_writes_table(self, two_logs, tmp_path, capsys):
        out_dir = tmp_path / "report"
        rc = cli.main(
            ["compare", *two_logs, "--tau", "1.0", "--window", "1", "--out", str(out_dir)]
        )
        assert rc == 0
        table = (out_dir / "compare.txt").read_text()
        assert "convergence rule" in table
        assert "alg" in table
        out = capsys.readouterr().out
        assert "algorithm" in out
        assert f"wrote {out_dir / 'compare.txt'}" in out

    def test_compare_auto_tau(self, two_logs, tmp_path, capsys):
        rc = cli.main(
            ["compare", *two_logs, "--tau", "auto", "--window", "1", "--out", str(tmp_path)]
        )
        assert rc == 0
        assert "convergence rule" in capsys.readouterr().out

    @pytest.mark.parametrize("best", [-50.0, 0.0])
    def test_compare_auto_tau_refuses_a_best_not_above_zero(self, tmp_path, capsys, best):
        # 80% of a best of -50 is -40, which no run reaches; 80% of 0 is 0,
        # which a run flat at 0 "reaches" at its first epoch.
        rows = tuple(EpochMetrics(e, best, wall_seconds=1.0, grad_norm_outer=0.0) for e in range(5))
        log = RunLog(fingerprint="0" * 16, version="0", label="flat", rows=rows, total_wall_seconds=5.0)
        path = save_runlog(tmp_path, log)
        rc = cli.main(["compare", str(path), "--tau", "auto", "--window", "2", "--out", str(tmp_path)])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: --tau auto: ") and err.count("\n") == 1
        assert f"best smoothed return {best:g} is not above 0" in err and "numeric --tau" in err
        assert not (tmp_path / "compare.txt").exists()

    def test_plot_writes_svg_and_dat(self, two_logs, tmp_path, capsys):
        out = tmp_path / "fig" / "curves.svg"
        rc = cli.main(["plot", *two_logs, "--out", str(out)])
        assert rc == 0
        assert out.exists()
        assert out.with_suffix(".dat").exists()
        assert "wrote" in capsys.readouterr().out
        assert out.read_text().count("<polyline") == 2

    def test_compare_missing_log_errors(self, tmp_path, capsys):
        rc = cli.main(["compare", str(tmp_path / "nope.runlog")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_compare_malformed_log_is_one_error_line(self, tmp_path, capsys):
        train_tiny(tmp_path, "t")
        path = tmp_path / "t.runlog"
        path.write_text(path.read_text().replace('"grad_norm_outer": ', '"gradient": ', 1))
        capsys.readouterr()
        assert cli.main(["compare", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "grad_norm_outer" in err and str(path) in err


class TestAudit:
    def test_small_audit_exits_zero(self, capsys):
        rc = cli.main(["audit", "--seeds", "1"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed 0" in out
        assert out.strip().endswith("OK")


class TestInputErrors:
    """Bad flag values end as one `error: <flag>: ...` line and exit 1,
    before any rollout, file read or allocation they would size."""

    # Each case keeps a fixed number in its id, so removing a case renames
    # no other.
    @pytest.mark.parametrize(
        "argv, flag",
        [pytest.param(argv, flag, id=f"argv{n}-{flag}") for n, argv, flag in [
            (1, ["audit", "--seeds", "0"], "--seeds"),
            (6, ["compare", "absent.runlog", "--window", "0"], "--window"),
            (11, ["eval", "--ckpt", "absent.ckpt", "--eval_episodes", "0"], "eval_episodes"),
            (12, ["eval", "--ckpt", "absent.ckpt", "--eval_episodes", str(10**9)], "eval_episodes"),
            # Config values are checked by the config, which names the key.
            (15, ["train", "--phi_hi", "inf", "--epochs", "1"], "phi_hi"),
            (16, ["train", "--label", "../x", "--epochs", "1"], "label"),
            (17, ["train", "--label", "..", "--epochs", "1"], "label"),
            (18, ["train", "--label", "a\x01b", "--epochs", "1"], "label"),
            (19, ["train", "--label", "del\x7f", "--epochs", "1"], "label"),
            # One above each bound on a config key that sizes memory.
            (20, ["train", "--horizon", str(meta.MAX_HORIZON + 1), "--epochs", "1"], "horizon"),
            (21, ["train", "--k_trajs", str(meta.MAX_TRAJECTORIES + 1), "--epochs", "1"], "k_trajs"),
            (22, ["train", "--m_tasks", str(meta.MAX_TASKS + 1), "--epochs", "1"], "m_tasks"),
            (23, ["train", "--eval_episodes", str(meta.MAX_TRAJECTORIES + 1), "--epochs", "1"], "eval_episodes"),
            (24, ["eval", "--ckpt", "absent.ckpt", "--horizon", str(meta.MAX_HORIZON + 1)], "horizon"),
            # One trajectory above the bound on a batch's rows, trajectories
            # x horizon, at the default horizon.
            (25, ["train", "--k_trajs", str(OVER_ROWS), "--epochs", "1"], "k_trajs x horizon"),
            (26, ["train", "--eval_episodes", str(OVER_ROWS), "--epochs", "1"], "eval_episodes x horizon"),
            (27, ["eval", "--ckpt", "absent.ckpt", "--eval_episodes", str(OVER_ROWS)], "eval_episodes x horizon"),
            # Sweep takes its seeds from --seeds only.
            (28, ["sweep", "--seed", "3", "--seeds", "1"], "--seed"),
            # A threshold no smoothed return can be compared against.
            (29, ["compare", "absent.runlog", "--tau", "nan"], "--tau"),
            (30, ["compare", "absent.runlog", "--tau", "inf"], "--tau"),
            (31, ["compare", "absent.runlog", "--tau=-inf"], "--tau"),
        ]],
    )
    def test_rejected_with_the_flag_named(self, argv, flag, monkeypatch, capsys):
        def no_rollouts(*args, **kwargs):
            pytest.fail("a rollout started for an out-of-bounds flag")

        monkeypatch.setattr(rl, "sample_batch", no_rollouts)
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag}: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "extra, key",
        [
            pytest.param(["--seed", str(2**63)], "seed", id="seed-past-the-checkpoints-int64"),
            pytest.param(["--label", "a" * 250], "label", id="label-too-long-for-its-file-names"),
            pytest.param(["--phi_lo=-1e308", "--phi_hi=1e308"], "phi_hi", id="task-interval-wider-than-a-double"),
        ],
    )
    def test_values_that_fail_after_training_began_are_refused_first(self, tmp_path, capsys, extra, key):
        # Each value once passed the config's checks and failed only at the
        # first checkpoint, file write or task draw, after training began.
        out = tmp_path / "out"
        argv = ["train", "--horizon", "5", "--k_trajs", "1", "--m_tasks", "1", "--eval_episodes", "1",
                "--epochs", "1", "--out_dir", str(out), *extra]
        assert cli.main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
        assert ": epoch " not in err
        assert not list(out.glob("*"))

    def test_config_file_that_is_not_utf8_is_one_error_line(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"epochs=1\nlabel=caf\xff\n")
        assert cli.main(["train", "--config", str(cfg), "--out_dir", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert str(cfg) in err
        assert not list(tmp_path.glob("*.runlog"))

    def test_eval_accepts_the_trajectory_bound(self, tmp_path, monkeypatch, capsys):
        assert train_tiny(tmp_path, "t") == 0
        reached = []

        def stop(*args, **kwargs):
            reached.append(True)
            raise MetaRLError("stopped before rolling out")

        monkeypatch.setattr(rl, "sample_batch", stop)
        argv = [
            "eval", "--ckpt", str(tmp_path / "t.ckpt"),
            *TINY, "--out_dir", str(tmp_path), "--label", "t",
            # The trajectory bound, at the horizon that fills the row bound.
            "--eval_episodes", str(meta.MAX_TRAJECTORIES),
            "--horizon", str(meta.MAX_ROLLOUT_ROWS // meta.MAX_TRAJECTORIES),
        ]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert reached == [True]
        assert capsys.readouterr().err == "error: stopped before rolling out\n"


class TestSweep:
    def test_serial_sweep_labels_by_seed(self, tmp_path, capsys):
        rc = cli.main(
            ["sweep", *SWEEP, "--out_dir", str(tmp_path), "--label", "alg", "--seeds", "1,2"]
        )
        assert rc == 0
        assert (tmp_path / "alg-s1.runlog").exists()
        assert (tmp_path / "alg-s2.runlog").exists()
        out = capsys.readouterr().out
        assert "alg-s1:" in out and "alg-s2:" in out
        assert "wrote 2 run logs" in out

    def test_parallel_sweep_matches_serial_bytes(self, tmp_path):
        out = tmp_path / "runs"
        argv = ["sweep", *SWEEP, "--out_dir", str(out), "--label", "a", "--seeds", "1,2"]
        assert cli.main(argv) == 0
        serial = {name: (out / name).read_bytes() for name in ("a-s1.runlog", "a-s2.runlog")}
        assert cli.main([*argv, "--parallel", "2"]) == 0
        for name, data in serial.items():
            assert (out / name).read_bytes() == data

    def test_bad_seed_list_errors(self, capsys):
        rc = cli.main(["sweep", *SWEEP, "--seeds", "1,x"])
        assert rc == 1
        assert "--seeds expects" in capsys.readouterr().err

    def test_empty_seed_list_errors(self, capsys):
        rc = cli.main(["sweep", *SWEEP, "--seeds", ","])
        assert rc == 1
        assert "at least one seed" in capsys.readouterr().err

    @pytest.mark.parametrize("seeds, repeated", [("1,1", "1"), ("3,1,2,3,1", "1, 3")])
    def test_repeated_seeds_rejected_before_any_training(self, seeds, repeated, monkeypatch, capsys):
        # A repeated seed trains one label twice; in parallel, two workers
        # would write the same files.
        def no_training(*args, **kwargs):
            pytest.fail("a run was trained for a seed list with repeats")

        def no_pool(*args, **kwargs):
            pytest.fail("a process pool was built for a seed list with repeats")

        monkeypatch.setattr(meta, "train", no_training)
        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: 64)
        for extra in ([], ["--parallel", "2"]):
            rc = cli.main(["sweep", *SWEEP, "--seeds", seeds, *extra])
            assert rc == 1
            assert capsys.readouterr().err.startswith(f"error: --seeds repeats seed {repeated}:")

    @pytest.mark.parametrize(
        "cpus, parallel, limit",
        [
            (64, "0", 2),
            (64, "-1", 2),
            (64, "3", 2),  # more workers than seeds
            (64, str(10**9), 2),
            (1, "2", 1),  # more workers than CPUs
            (None, "2", 1),  # CPU count unknown: one worker
            (None, str(10**9), 1),
        ],
    )
    def test_parallel_out_of_bounds_rejected_before_any_pool(
        self, cpus, parallel, limit, monkeypatch, capsys
    ):
        def no_pool(*args, **kwargs):
            pytest.fail("a process pool was built for an out-of-bounds --parallel")

        monkeypatch.setattr(cli, "ProcessPoolExecutor", no_pool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        rc = cli.main(["sweep", *SWEEP, "--seeds", "1,2", "--parallel", parallel])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: --parallel must lie in 1..{limit} ")
        assert f"got {parallel}" in err


class TestParser:
    def test_unknown_subcommand_exits_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
        assert "usage" in capsys.readouterr().err

    def test_no_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 2

    def test_sweep_requires_seeds(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", *SWEEP])
        assert exc.value.code == 2

    def test_every_config_key_has_a_flag(self):
        parser = cli.build_parser()
        helps = parser.format_help()
        assert "train" in helps
        from metarl.meta import CONFIG_KEYS

        sub = next(
            a for a in parser._subparsers._group_actions[0].choices.items() if a[0] == "train"
        )[1]
        text = sub.format_help()
        for key in CONFIG_KEYS:
            assert f"--{key}" in text
