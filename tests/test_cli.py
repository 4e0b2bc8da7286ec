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
from metarl.envs import CARTPOLE_HORIZON
from metarl.errors import MetaRLError
from metarl.policy import load_checkpoint, save_checkpoint

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
                *TINY, "--out_dir", str(tmp_path), "--label", "t", "--episodes", "2",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean post-adaptation return over 2 tasks x 2 episodes:" in out

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


class TestResumeErrors:
    """A checkpoint that lacks what the config needs fails as a library error
    naming the field: exit status 1, one `error:` line, no traceback."""

    def resume(self, tmp_path, ckpt, extra=()):
        argv = ["train", *TINY, *extra, "--out_dir", str(tmp_path / "resumed"), "--label", "r"]
        return cli.main([*argv, "--resume", str(ckpt)])

    def rewritten(self, tmp_path, drop_vector=None, drop_meta=None):
        train_tiny(tmp_path, "t")
        vectors, meta = load_checkpoint(tmp_path / "t.ckpt")
        vectors.pop(drop_vector, None)
        meta.pop(drop_meta, None)
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

    @pytest.mark.parametrize("algorithm", ["metasgd", "directed-metasgd"])
    def test_metasgd_family_needs_alpha_vec(self, tmp_path, capsys, algorithm):
        train_tiny(tmp_path, "t")  # maml: no alpha_vec in its checkpoint
        capsys.readouterr()
        assert self.resume(tmp_path, tmp_path / "t.ckpt", ["--algorithm", algorithm]) == 1
        self.assert_clean_error(capsys, "alpha_vec")

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


class TestAudit:
    def test_small_audit_exits_zero(self, capsys):
        rc = cli.main(["audit", "--seeds", "1", "--k_trajs", "1", "--horizon", "6"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "seed 0" in out
        assert out.strip().endswith("OK")


class TestInputErrors:
    """Bad flag values end as one `error: <flag>: ...` line and exit 1,
    before any rollout, file read or allocation they would size."""

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["audit", "--k_trajs", "0"], "--k_trajs"),
            (["audit", "--seeds", "0"], "--seeds"),
            (["audit", "--horizon", "0"], "--horizon"),
            (["audit", "--horizon", "-3"], "--horizon"),
            (["audit", "--horizon", "201"], "--horizon"),
            (["audit", "--horizon", str(10**9)], "--horizon"),
            (["compare", "absent.runlog", "--window", "0"], "--window"),
            (["compare", "absent.runlog", "--factor", "1.5"], "--factor"),
            (["compare", "absent.runlog", "--factor", "nan"], "--factor"),
            (["plot", "absent.runlog", "--factor", "-1"], "--factor"),
            (["plot", "absent.runlog", "--factor", "1"], "--factor"),
            (["eval", "--ckpt", "absent.ckpt", "--episodes", "0"], "--episodes"),
            (["eval", "--ckpt", "absent.ckpt", "--episodes", str(10**9)], "--episodes"),
            (["audit", "--k_trajs", str(10**9)], "--k_trajs"),
            (["audit", "--k_trajs", str(cli.MAX_TRAJECTORIES + 1)], "--k_trajs"),
            # Config values are checked by the config, which names the key.
            (["train", "--phi_hi", "inf", "--epochs", "1"], "phi_hi"),
            (["train", "--label", "../x", "--epochs", "1"], "label"),
            (["train", "--label", "..", "--epochs", "1"], "label"),
            (["train", "--label", "a\x01b", "--epochs", "1"], "label"),
            (["train", "--label", "del\x7f", "--epochs", "1"], "label"),
            # One above each bound on a config key that sizes memory.
            (["train", "--horizon", str(meta.MAX_HORIZON + 1), "--epochs", "1"], "horizon"),
            (["train", "--k_trajs", str(meta.MAX_TRAJECTORIES + 1), "--epochs", "1"], "k_trajs"),
            (["train", "--m_tasks", str(meta.MAX_TASKS + 1), "--epochs", "1"], "m_tasks"),
            (["train", "--eval_episodes", str(meta.MAX_TRAJECTORIES + 1), "--epochs", "1"], "eval_episodes"),
            (["eval", "--ckpt", "absent.ckpt", "--horizon", str(meta.MAX_HORIZON + 1)], "horizon"),
            # One trajectory above the bound on a batch's rows, trajectories
            # x horizon, at the default horizons (audit's is 15).
            (["train", "--k_trajs", str(OVER_ROWS), "--epochs", "1"], "k_trajs x horizon"),
            (["train", "--eval_episodes", str(OVER_ROWS), "--epochs", "1"], "eval_episodes x horizon"),
            (["eval", "--ckpt", "absent.ckpt", "--episodes", str(OVER_ROWS)], "--episodes x horizon"),
            (["audit", "--k_trajs", str(meta.MAX_ROLLOUT_ROWS // 15 + 1)], "--k_trajs x --horizon"),
        ],
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

    def test_audit_accepts_the_full_cartpole_horizon(self, monkeypatch, capsys):
        reached = []

        def stop(env, *args, **kwargs):
            reached.append(env.horizon)
            raise MetaRLError("stopped before rolling out")

        monkeypatch.setattr(rl, "sample_batch", stop)
        assert cli.main(["audit", "--seeds", "1", "--horizon", str(CARTPOLE_HORIZON)]) == 1
        assert reached == [CARTPOLE_HORIZON]
        assert capsys.readouterr().err == "error: stopped before rolling out\n"

    def test_audit_accepts_the_trajectory_bound(self, monkeypatch, capsys):
        reached = []

        def stop(env, policy, k, *args, **kwargs):
            reached.append(k)
            raise MetaRLError("stopped before rolling out")

        monkeypatch.setattr(rl, "sample_batch", stop)
        # The trajectory bound, at the horizon that fills the row bound.
        horizon = meta.MAX_ROLLOUT_ROWS // cli.MAX_TRAJECTORIES
        argv = ["audit", "--seeds", "1", "--k_trajs", str(cli.MAX_TRAJECTORIES), "--horizon", str(horizon)]
        assert cli.main(argv) == 1
        assert reached == [cli.MAX_TRAJECTORIES]
        assert capsys.readouterr().err == "error: stopped before rolling out\n"

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
            "--episodes", str(cli.MAX_TRAJECTORIES),
            "--horizon", str(meta.MAX_ROLLOUT_ROWS // cli.MAX_TRAJECTORIES),
        ]
        capsys.readouterr()
        assert cli.main(argv) == 1
        assert reached == [True]
        assert capsys.readouterr().err == "error: stopped before rolling out\n"


class TestSweep:
    def test_serial_sweep_labels_by_seed(self, tmp_path, capsys):
        rc = cli.main(
            ["sweep", *TINY, "--out_dir", str(tmp_path), "--label", "alg", "--seeds", "1,2"]
        )
        assert rc == 0
        assert (tmp_path / "alg-s1.runlog").exists()
        assert (tmp_path / "alg-s2.runlog").exists()
        out = capsys.readouterr().out
        assert "alg-s1:" in out and "alg-s2:" in out
        assert "wrote 2 run logs" in out

    def test_parallel_sweep_matches_serial_bytes(self, tmp_path):
        out = tmp_path / "runs"
        argv = ["sweep", *TINY, "--out_dir", str(out), "--label", "a", "--seeds", "1,2"]
        assert cli.main(argv) == 0
        serial = {name: (out / name).read_bytes() for name in ("a-s1.runlog", "a-s2.runlog")}
        assert cli.main([*argv, "--parallel", "2"]) == 0
        for name, data in serial.items():
            assert (out / name).read_bytes() == data

    def test_bad_seed_list_errors(self, capsys):
        rc = cli.main(["sweep", *TINY, "--seeds", "1,x"])
        assert rc == 1
        assert "--seeds expects" in capsys.readouterr().err

    def test_empty_seed_list_errors(self, capsys):
        rc = cli.main(["sweep", *TINY, "--seeds", ","])
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
            rc = cli.main(["sweep", *TINY, "--seeds", seeds, *extra])
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
        rc = cli.main(["sweep", *TINY, "--seeds", "1,2", "--parallel", parallel])
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
            cli.main(["sweep", *TINY])
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
