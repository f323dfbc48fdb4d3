"""Tests for the experiment CLI."""

import os

import pytest

from repro.cli import experiment_ids, main


class TestList:
    def test_list_prints_all_ids(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for exp_id in experiment_ids():
            assert exp_id in out

    def test_known_ids_present(self):
        ids = experiment_ids()
        for expected in ["E1", "E3", "E7", "A1", "A6", "A8", "F6"]:
            assert expected in ids


class TestRun:
    def test_run_fast_experiment(self, capsys):
        assert main(["run", "F6"]) == 0
        out = capsys.readouterr().out
        assert "1-2, 7, 9-10, 13" in out

    def test_run_is_case_insensitive(self, capsys):
        assert main(["run", "f5"]) == 0
        assert "ambiguity" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["run", "Z9"]) == 2
        assert "unknown" in capsys.readouterr().err

    def test_scale_flag_sets_env(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["run", "F7", "--scale", "0.5"]) == 0
        assert os.environ.get("REPRO_SCALE") == "0.5"

    def test_negative_scale_rejected(self, capsys):
        with pytest.raises(SystemExit):
            main(["run", "F7", "--scale", "-1"])

    def test_no_command_errors(self):
        with pytest.raises(SystemExit):
            main([])

    def test_r4_registered(self):
        assert "R4" in experiment_ids()


class TestCodecs:
    def test_codecs_lists_registry_with_cost_categories(self, capsys):
        from repro.mapreduce.codecs import available_codecs

        assert main(["codecs"]) == 0
        out = capsys.readouterr().out
        for name in available_codecs():
            assert name in out
        # Plain codecs report only generic codec cost; the §III stride
        # transforms split out their transform pass.
        lines = {ln.split()[0]: ln for ln in out.splitlines()}
        assert "cost: codec" in lines["zlib"]
        assert "cost: transform+codec" in lines["fastpred+zlib"]


class TestNetworkFlags:
    def test_network_transport_sets_env(self, monkeypatch):
        for var in ("REPRO_TRANSPORT", "REPRO_WIRE_CODEC",
                    "REPRO_SHUFFLE_PORT_BASE"):
            monkeypatch.delenv(var, raising=False)
        assert main(["run", "F7", "--transport", "network",
                     "--wire-codec", "fastpred+zlib",
                     "--shuffle-port-base", "28100"]) == 0
        assert os.environ.get("REPRO_TRANSPORT") == "network"
        assert os.environ.get("REPRO_WIRE_CODEC") == "fastpred+zlib"
        assert os.environ.get("REPRO_SHUFFLE_PORT_BASE") == "28100"

    def test_wire_codec_requires_network_transport(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        with pytest.raises(SystemExit):
            main(["run", "F7", "--wire-codec", "zlib"])
        with pytest.raises(SystemExit):
            main(["run", "F7", "--transport", "direct",
                  "--wire-codec", "zlib"])

    def test_unknown_wire_codec_rejected(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        with pytest.raises(SystemExit):
            main(["run", "F7", "--transport", "network",
                  "--wire-codec", "martian"])

    def test_port_base_range_checked(self, monkeypatch):
        monkeypatch.delenv("REPRO_TRANSPORT", raising=False)
        with pytest.raises(SystemExit):
            main(["run", "F7", "--transport", "network",
                  "--shuffle-port-base", "80"])


class TestPipelineFlags:
    @pytest.fixture(autouse=True)
    def _clean(self):
        # main() writes the flags into os.environ; scrub before AND
        # after so these tests neither see nor leak pipeline state.
        names = ("REPRO_PIPELINE", "REPRO_STARVATION_THRESHOLD")
        saved = {n: os.environ.pop(n, None) for n in names}
        yield
        for n in names:
            os.environ.pop(n, None)
            if saved[n] is not None:
                os.environ[n] = saved[n]

    def test_p3_registered(self):
        assert "P3" in experiment_ids()

    def test_pipeline_flag_round_trips(self):
        assert main(["run", "F7", "--pipeline"]) == 0
        assert os.environ.get("REPRO_PIPELINE") == "1"

    def test_no_pipeline_flag_round_trips(self):
        assert main(["run", "F7", "--no-pipeline"]) == 0
        assert os.environ.get("REPRO_PIPELINE") == "0"

    def test_starvation_threshold_round_trips(self):
        assert main(["run", "F7", "--pipeline",
                     "--starvation-threshold", "3"]) == 0
        assert os.environ.get("REPRO_STARVATION_THRESHOLD") == "3"

    def test_starvation_threshold_requires_pipeline(self):
        with pytest.raises(SystemExit):
            main(["run", "F7", "--starvation-threshold", "2"])
        with pytest.raises(SystemExit):
            main(["run", "F7", "--no-pipeline",
                  "--starvation-threshold", "2"])

    def test_env_pipeline_satisfies_threshold_flag(self, monkeypatch):
        # REPRO_PIPELINE=1 already on: the threshold flag is meaningful.
        monkeypatch.setenv("REPRO_PIPELINE", "1")
        assert main(["run", "F7", "--starvation-threshold", "3"]) == 0
        assert os.environ.get("REPRO_STARVATION_THRESHOLD") == "3"

    def test_starvation_threshold_range_checked(self):
        with pytest.raises(SystemExit):
            main(["run", "F7", "--pipeline", "--starvation-threshold", "0"])


class TestTune:
    def test_tune_smoke(self, capsys, monkeypatch):
        monkeypatch.delenv("REPRO_SCALE", raising=False)
        assert main(["tune", "--scale", "0.1",
                     "--num-maps", "4", "--num-reducers", "2"]) == 0
        out = capsys.readouterr().out
        # The recommendation table and the validated error band.
        for needle in ("num_reducers", "wave_size", "sort_buffer_bytes",
                       "predicted wall-clock", "model error"):
            assert needle in out

    @pytest.mark.parametrize("flags", [
        ["--scale", "-1"], ["--nodes", "0"],
        ["--num-maps", "0"], ["--num-reducers", "0"],
    ])
    def test_tune_flag_ranges_checked(self, flags):
        with pytest.raises(SystemExit):
            main(["tune"] + flags)
