import json

import numpy as np
import pytest

from ambidoa.acoustics import load_scenes
from ambidoa.cli import build_parser, main
from ambidoa.estimator import (
    Formulation,
    NetworkConfig,
    TrainConfig,
    build_network,
    save_model,
)
from ambidoa.evaluate import RenderConfig, propagate, sample_rng
from ambidoa.foa import encode_plane_wave, encode_srir, read_wav, write_wav
from ambidoa.geometry import to_cartesian


def run(argv):
    return main(argv)


class TestExitCodes:
    def test_gridinfo_success(self, capsys):
        assert run(["gridinfo", "--resolution", "10"]) == 0
        out = capsys.readouterr().out
        assert "classes: 412" in out
        assert "coverage" in out

    def test_usage_error_is_one(self):
        assert run(["train"]) == 1
        assert run(["definitely-not-a-command"]) == 1

    def test_runtime_error_is_two(self, tmp_path):
        assert run(["music", "--input", str(tmp_path / "missing.wav")]) == 2


def test_flag_defaults_are_the_config_defaults():
    parser = build_parser()
    render = vars(parser.parse_args(["render", "--scenes", "s.json", "--out", "o"]))
    simulate = vars(parser.parse_args(["simulate", "--count", "1", "--out", "o"]))
    cfg = RenderConfig()
    for flag, field in (("method", "method"), ("max_order", "max_order"),
                        ("rays", "n_rays"), ("max_bounces", "max_bounces"),
                        ("receiver_radius", "receiver_radius")):
        assert render[flag] == simulate[flag] == getattr(cfg, field)
    assert (render["window"], render["frames"]) == (cfg.window, cfg.frames)
    assert simulate["ir_seconds"] == cfg.ir_seconds
    train = vars(parser.parse_args(["train", "--manifest", "m", "--formulation",
                                    "cartesian", "--out", "o"]))
    compare = vars(parser.parse_args(["compare", "--image-manifest", "a",
                                      "--trace-manifest", "b"]))
    tcfg = TrainConfig()
    for flag in ("epochs", "batch_size"):
        assert train[flag] == compare[flag] == getattr(tcfg, flag)
    assert train["learning_rate"] == tcfg.learning_rate


@pytest.fixture(scope="module")
def pipeline_dir(tmp_path_factory):
    """simulate -> render once for the CLI tests."""
    root = tmp_path_factory.mktemp("cli")
    sim = root / "sim"
    feats = root / "feats"
    assert run([
        "simulate", "--count", "12", "--seed", "31", "--pairs", "3",
        "--absorption", "0.8", "--out", str(sim),
    ]) == 0
    assert run([
        "render", "--scenes", str(sim / "scenes.json"), "--method", "image",
        "--max-order", "2", "--seed", "32", "--out", str(feats),
    ]) == 0
    return root


class TestPipeline:
    def test_simulate_writes_manifest_and_run_json(self, pipeline_dir):
        sim = pipeline_dir / "sim"
        data = json.loads((sim / "scenes.json").read_text())
        assert sum(len(r["pairs"]) for r in data["rooms"]) == 12
        run_meta = json.loads((sim / "run.json").read_text())
        assert run_meta["subcommand"] == "simulate"
        assert run_meta["resolved"]["seed"] == 31

    def test_written_irs_are_the_ones_render_uses(self, tmp_path):
        sim = tmp_path / "sim"
        assert run([
            "simulate", "--count", "3", "--seed", "7", "--method", "trace",
            "--rays", "2000", "--write-irs", "--out", str(sim),
        ]) == 0
        cfg = RenderConfig(method="trace", n_rays=2000)
        for i, scene in enumerate(load_scenes(sim / "scenes.json")):
            expected = encode_srir(propagate(scene, cfg, sample_rng(7, i)))
            written = read_wav(sim / f"ir_{i:06d}.wav")
            np.testing.assert_array_equal(
                written.channels, expected.channels.astype(np.float32)
            )

    def test_traced_irs_refuse_a_source_in_the_receiver_sphere(self, tmp_path, capsys):
        # this draw puts scene 2's source 0.158 m from its listener
        sim = tmp_path / "sim"
        assert run([
            "simulate", "--count", "8", "--seed", "113", "--method", "trace",
            "--write-irs", "--out", str(sim),
        ]) == 2
        assert "receiver sphere in scene 2 (0.158 m)" in capsys.readouterr().err
        assert not sim.exists()

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "2.5", ""])
    def test_bad_thread_count_is_refused(self, pipeline_dir, tmp_path, monkeypatch,
                                         capsys, value):
        monkeypatch.setenv("AMBIDOA_THREADS", value)
        assert run([
            "render", "--scenes", str(pipeline_dir / "sim" / "scenes.json"),
            "--out", str(tmp_path / "feats"),
        ]) == 2
        assert "AMBIDOA_THREADS" in capsys.readouterr().err
        assert not (tmp_path / "feats" / "manifest.jsonl").exists()

    def test_render_produces_features(self, pipeline_dir):
        feats = pipeline_dir / "feats"
        rows = (feats / "manifest.jsonl").read_text().strip().splitlines()
        assert len(rows) == 12
        first = json.loads(rows[0])
        assert (feats / first["features_path"]).exists()

    def test_train_eval_roundtrip(self, pipeline_dir):
        feats = pipeline_dir / "feats"
        model = pipeline_dir / "model.adom"
        report = pipeline_dir / "report.csv"
        assert run([
            "train", "--manifest", str(feats / "manifest.jsonl"),
            "--formulation", "cartesian", "--preset", "desk",
            "--epochs", "2", "--seed", "33", "--out", str(model),
        ]) == 0
        assert model.exists()
        assert (pipeline_dir / "model.adom.history.json").exists()
        assert run([
            "eval", "--model", str(model),
            "--manifest", str(feats / "manifest.jsonl"),
            "--report", str(report),
        ]) == 0
        lines = report.read_text().strip().splitlines()
        assert lines[0] == "scene_id,error_deg"
        assert len(lines) == 13

    def test_checkpoints_reproducible(self, pipeline_dir, tmp_path):
        feats = pipeline_dir / "feats"
        m1, m2 = tmp_path / "m1.adom", tmp_path / "m2.adom"
        args = [
            "train", "--manifest", str(feats / "manifest.jsonl"),
            "--formulation", "spherical", "--preset", "desk",
            "--epochs", "1", "--seed", "77",
        ]
        assert run(args + ["--out", str(m1)]) == 0
        assert run(args + ["--out", str(m2)]) == 0
        assert m1.read_bytes() == m2.read_bytes()

    def test_compare_smoke(self, pipeline_dir, capsys, tmp_path):
        feats = pipeline_dir / "feats"
        report = tmp_path / "cmp.csv"
        assert run([
            "compare",
            "--image-manifest", str(feats / "manifest.jsonl"),
            "--trace-manifest", str(feats / "manifest.jsonl"),
            "--formulations", "cartesian",
            "--epochs", "1", "--seed", "5", "--report", str(report),
        ]) == 0
        out = capsys.readouterr().out
        assert "improv" in out
        header = report.read_text().splitlines()[0]
        assert header.startswith("method,formulation,mean_error_deg")


@pytest.fixture(scope="module")
def wave_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("wav") / "pw.wav"
    rng = np.random.default_rng(41)
    sig = encode_plane_wave(
        rng.standard_normal(32000), to_cartesian(np.radians(40), np.radians(10))
    )
    write_wav(path, sig)
    return path


class TestMusicAndTrack:
    def test_music_prints_estimate(self, wave_file, capsys):
        assert run(["music", "--input", str(wave_file), "--resolution", "10"]) == 0
        out = capsys.readouterr().out
        assert "estimated azimuth" in out
        assert "top classes" in out

    def test_track_writes_csv_and_svg(self, wave_file, tmp_path, capsys):
        csv = tmp_path / "track.csv"
        svg = tmp_path / "track.svg"
        assert run([
            "track", "--input", str(wave_file),
            "--truth-azimuth", "40", "--truth-elevation", "10",
            "--hop", "8", "--out", str(csv), "--svg", str(svg),
        ]) == 0
        assert csv.read_text().startswith("time_s,")
        assert svg.read_text().startswith("<svg")

    def test_track_with_a_model_writes_one_row_per_window(self, wave_file, tmp_path,
                                                          capsys):
        model = tmp_path / "desk.adom"
        save_model(model, build_network(NetworkConfig.desk(), Formulation("cartesian"),
                                        seed=6))
        csv = tmp_path / "track.csv"
        assert run([
            "track", "--input", str(wave_file), "--model", str(model),
            "--truth-azimuth", "40", "--truth-elevation", "10",
            "--hop", "2", "--out", str(csv),
        ]) == 0
        # desk features: window 256, hop 128, 25 frames per window
        total = (32000 - 256) // 128 + 1
        windows = len(range(0, total - 24, 2))
        rows = csv.read_text().strip().splitlines()
        assert rows[0] == "time_s,azimuth_deg,elevation_deg,error_deg"
        assert len(rows) - 1 == windows
        assert f"{windows} predictions" in capsys.readouterr().out
