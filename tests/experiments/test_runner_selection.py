"""Runner selection (REPRO_RUNNER / REPRO_WORKERS and the CLI flags) and
the validation of every numeric knob the harnesses read."""

import pytest

from repro.cli import main
from repro.experiments.common import make_runner
from repro.experiments.matrix import fuzz_budget
from repro.mapreduce import LocalJobRunner, ParallelJobRunner
from repro.mapreduce.runtime.shuffle import ConfigError


class TestMakeRunner:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv("REPRO_RUNNER", raising=False)
        assert isinstance(make_runner(), LocalJobRunner)

    def test_serial_aliases(self, monkeypatch):
        for name in ["serial", "local", "SERIAL"]:
            monkeypatch.setenv("REPRO_RUNNER", name)
            assert isinstance(make_runner(), LocalJobRunner)

    def test_parallel(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER", "parallel")
        monkeypatch.setenv("REPRO_WORKERS", "3")
        runner = make_runner()
        assert isinstance(runner, ParallelJobRunner)
        assert runner.max_workers == 3
        runner.close()

    def test_bad_runner_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER", "quantum")
        with pytest.raises(ValueError, match="REPRO_RUNNER"):
            make_runner()

    def test_bad_worker_count_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNNER", "parallel")
        monkeypatch.setenv("REPRO_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_WORKERS"):
            make_runner()


class TestCliFlags:
    def test_runner_flag_sets_env(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_RUNNER", raising=False)
        monkeypatch.delenv("REPRO_WORKERS", raising=False)
        monkeypatch.setenv("REPRO_SCALE", "0.12")
        import os

        assert main(["run", "E1", "--runner", "parallel", "--workers", "2"]) == 0
        assert os.environ["REPRO_RUNNER"] == "parallel"
        assert os.environ["REPRO_WORKERS"] == "2"
        assert "E1" in capsys.readouterr().out

    def test_bad_workers_flag(self, monkeypatch):
        with pytest.raises(SystemExit):
            main(["run", "E1", "--workers", "0"])


class TestMalformedEnv:
    """Every numeric knob a harness reads names its variable when the
    text is malformed or out of the documented range."""

    @pytest.mark.parametrize("var,value", [
        ("REPRO_WORKERS", "two"), ("REPRO_WORKERS", "0"),
        ("REPRO_NUM_HOSTS", "many"), ("REPRO_NUM_HOSTS", "0"),
        ("REPRO_MAX_HOST_REEXECS", "1.5"), ("REPRO_MAX_HOST_REEXECS", "-1"),
        ("REPRO_TASK_TIMEOUT", "soon"), ("REPRO_TASK_TIMEOUT", "0"),
        ("REPRO_WORKER_RLIMIT_BYTES", "4G"),
        ("REPRO_WORKER_RLIMIT_BYTES", "0"),
    ])
    def test_make_runner(self, monkeypatch, var, value):
        monkeypatch.setenv("REPRO_RUNNER", "parallel")
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError, match=f"{var}={value!r}"):
            make_runner()

    @pytest.mark.parametrize("var,value,default", [
        ("REPRO_R4_FUZZ", "-2", 3), ("REPRO_R4_FUZZ", "two", 3),
        ("REPRO_R4_SECONDS", "-1", 120), ("REPRO_R4_SECONDS", "0", 120),
        ("REPRO_R2_SECONDS", "soon", None),
    ])
    def test_fuzz_budget(self, monkeypatch, var, value, default):
        experiment = var.split("_")[1]
        monkeypatch.setenv(var, value)
        with pytest.raises(ConfigError, match=f"{var}={value!r}"):
            fuzz_budget(experiment, None, None, default_fuzz=3,
                        default_seconds=default)

    def test_fuzz_budget_defaults_and_overrides(self, monkeypatch):
        for var in ("REPRO_R2_FUZZ", "REPRO_R2_SECONDS"):
            monkeypatch.delenv(var, raising=False)
        assert fuzz_budget("R2", None, None, default_fuzz=6,
                           default_seconds=None) == (6, None)
        monkeypatch.setenv("REPRO_R2_FUZZ", "0")
        monkeypatch.setenv("REPRO_R2_SECONDS", "2.5")
        assert fuzz_budget("R2", None, None, default_fuzz=6,
                           default_seconds=None) == (0, 2.5)
        assert fuzz_budget("R2", 4, 9.0, default_fuzz=6,
                           default_seconds=None) == (4, 9.0)

    @pytest.mark.parametrize("var,value,run", [
        ("REPRO_SKIP_BUDGET", "lots", "r2_poison"),
        ("REPRO_SKIP_BUDGET", "0", "r2_poison"),
        ("REPRO_CHAOS_SEEDS", "x", "chaos"),
        ("REPRO_CHAOS_SEEDS", "0", "chaos"),
    ])
    def test_harness_knobs(self, monkeypatch, var, value, run):
        import importlib

        monkeypatch.setenv(var, value)
        module = importlib.import_module(f"repro.experiments.{run}")
        with pytest.raises(ConfigError, match=f"{var}={value!r}"):
            module.run()
