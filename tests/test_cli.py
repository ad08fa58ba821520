import json

import numpy as np
import pytest
from scipy.io import wavfile

from ambidoa.acoustics import load_scenes
from ambidoa.cli import BLAS_THREAD_VARS, _feature_geometry, build_parser, main
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
    def test_gridinfo_success(self, capsys, tmp_path):
        csv = tmp_path / "grid.csv"
        assert run(["gridinfo", "--resolution", "10", "--csv", str(csv)]) == 0
        out = capsys.readouterr().out
        assert "classes: 412" in out
        assert "coverage" in out
        assert json.loads((tmp_path / "grid.csv.run.json").read_text())["subcommand"] \
            == "gridinfo"

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
    assert simulate["ir_seconds"] == cfg.ir_seconds
    train = vars(parser.parse_args(["train", "--manifest", "m", "--formulation",
                                    "cartesian", "--out", "o"]))
    compare = vars(parser.parse_args(["compare", "--image-manifest", "a",
                                      "--trace-manifest", "b"]))
    assert render["preset"] == train["preset"] == compare["preset"] == "desk"
    assert _feature_geometry(NetworkConfig.desk()) == (cfg.frames, cfg.window)
    tcfg = TrainConfig()
    for flag in ("epochs", "batch_size", "seed"):
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
            expected = encode_srir(propagate(scene, cfg, sample_rng(7, i)),
                                   cfg.sample_rate, cfg.ir_length)
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

    def test_traced_runs_refuse_a_receiver_too_large_for_a_room(self, tmp_path, capsys):
        # seed 10 draws a second room whose smallest side, 2.322 m, is under 4 x 0.6 m
        sim = tmp_path / "sim"
        assert run(["simulate", "--count", "6", "--seed", "10", "--out", str(sim)]) == 0
        flags = ["--method", "trace", "--rays", "500", "--receiver-radius", "0.6"]
        expected = ("receiver_radius 0.6 m is not below a quarter of the smallest room "
                    "dimension in scene 3 (2.322 m), 4 (2.322 m), 5 (2.322 m)")
        assert run(["render", "--scenes", str(sim / "scenes.json"), *flags,
                    "--out", str(tmp_path / "feats")]) == 2
        assert expected in capsys.readouterr().err
        assert run(["simulate", "--count", "6", "--seed", "10", *flags, "--write-irs",
                    "--out", str(tmp_path / "irs")]) == 2
        assert expected in capsys.readouterr().err
        assert not (tmp_path / "feats").exists() and not (tmp_path / "irs").exists()

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
        run_meta = json.loads((feats / "run.json").read_text())
        assert run_meta["subcommand"] == "render"
        assert run_meta["resolved"]["seed"] == 32

    def test_nan_absorption_is_refused_before_any_scene(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert run(["simulate", "--count", "2", "--absorption", "nan",
                    "--out", str(sim)]) == 2
        assert "absorption must lie in [0, 1]" in capsys.readouterr().err
        assert not (sim / "scenes.json").exists()

    def test_negative_max_bounces_is_refused_before_any_ir(self, tmp_path, capsys):
        sim = tmp_path / "sim"
        assert run([
            "simulate", "--count", "2", "--seed", "7", "--method", "trace",
            "--max-bounces", "-1", "--write-irs", "--out", str(sim),
        ]) == 2
        assert "max_bounces" in capsys.readouterr().err
        assert not list(tmp_path.rglob("*.wav"))

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

    def test_train_prints_a_line_per_epoch(self, pipeline_dir, capsys, tmp_path):
        model = tmp_path / "m.adom"
        assert run([
            "train", "--manifest", str(pipeline_dir / "feats" / "manifest.jsonl"),
            "--formulation", "cartesian", "--preset", "desk",
            "--epochs", "3", "--seed", "34", "--out", str(model),
        ]) == 0
        history = json.loads((tmp_path / "m.adom.history.json").read_text())
        lines = capsys.readouterr().out.splitlines()
        assert len(history) == 3 and len(lines) == 4
        for line, e in zip(lines, history):
            assert line == (
                f"epoch {e['epoch'] + 1}/3: train loss {e['train_loss']:.5f}, "
                f"val loss {e['val_loss']:.5f}, val error {e['val_error_deg']:.2f} deg, "
                f"grad norm mean {e['grad_norm_mean']:.3f} max {e['grad_norm_max']:.3f}, "
                f"clip fraction {e['clip_fraction']:.2f}")
        assert lines[3].startswith("trained cartesian (")

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
        run_meta = json.loads((tmp_path / "cmp.csv.run.json").read_text())
        assert run_meta["subcommand"] == "compare"

    def test_render_takes_the_feature_shape_from_the_preset(self, pipeline_dir, tmp_path,
                                                            capsys):
        paper = tmp_path / "paper"
        assert run([
            "render", "--scenes", str(pipeline_dir / "sim" / "scenes.json"),
            "--max-order", "1", "--preset", "paper", "--out", str(paper),
        ]) == 0
        manifest = paper / "manifest.jsonl"
        assert run([
            "train", "--manifest", str(manifest), "--formulation", "cartesian",
            "--epochs", "1", "--out", str(tmp_path / "m.adom"),
        ]) == 2
        assert (f"{manifest}: features of shape (6, 25, 513) do not fit the desk "
                "preset, which takes (6, 25, 129)") in capsys.readouterr().err
        assert not (tmp_path / "m.adom").exists()
        model = tmp_path / "desk.adom"
        save_model(model, build_network(NetworkConfig.desk(), Formulation("cartesian")))
        assert run(["eval", "--model", str(model), "--manifest", str(manifest),
                    "--report", str(tmp_path / "e.csv")]) == 2
        assert (f"{manifest}: features of shape (6, 25, 513) do not fit model {model}, "
                "which takes (6, 25, 129)") in capsys.readouterr().err
        assert not (tmp_path / "e.csv").exists()
        assert run(["compare", "--image-manifest", str(manifest), "--trace-manifest",
                    str(manifest), "--epochs", "1", "--report", str(tmp_path / "c.csv")]) == 2
        assert (f"{manifest}: features of shape (6, 25, 513) do not fit the desk "
                "preset, which takes (6, 25, 129)") in capsys.readouterr().err
        assert not (tmp_path / "c.csv").exists()
        assert run(["render", "--scenes", "s.json", "--window", "1024",
                    "--out", str(tmp_path / "o")]) == 1


def test_empty_manifest_is_refused_by_name(tmp_path, capsys):
    manifest = tmp_path / "empty.jsonl"
    manifest.write_text("")
    model = tmp_path / "desk.adom"
    save_model(model, build_network(NetworkConfig.desk(), Formulation("cartesian")))
    for argv in (["train", "--manifest", str(manifest), "--formulation", "cartesian",
                  "--out", str(tmp_path / "m.adom")],
                 ["eval", "--model", str(model), "--manifest", str(manifest),
                  "--report", str(tmp_path / "e.csv")]):
        assert run(argv) == 2
        assert f"error: {manifest}: the manifest lists no samples" in capsys.readouterr().err
    assert not (tmp_path / "m.adom").exists() and not (tmp_path / "e.csv").exists()


def test_readme_walkthrough_keeps_every_run_record(tmp_path, wave_file):
    """simulate -> render -> train -> eval -> track in one work directory."""
    work = tmp_path / "work"
    steps = {
        "simulate": (["--count", "6", "--seed", "1", "--absorption", "0.8",
                      "--out", str(work / "sim")], work / "sim" / "run.json"),
        "render": (["--scenes", str(work / "sim" / "scenes.json"), "--max-order", "1",
                    "--seed", "2", "--out", str(work / "feats")],
                   work / "feats" / "run.json"),
        "train": (["--manifest", str(work / "feats" / "manifest.jsonl"),
                   "--formulation", "cartesian", "--epochs", "1", "--seed", "3",
                   "--out", str(work / "model.adom")], work / "model.adom.run.json"),
        "eval": (["--model", str(work / "model.adom"),
                  "--manifest", str(work / "feats" / "manifest.jsonl"),
                  "--report", str(work / "errors.csv")], work / "errors.csv.run.json"),
        "track": (["--input", str(wave_file), "--model", str(work / "model.adom"),
                   "--truth-azimuth", "40", "--truth-elevation", "10", "--hop", "8",
                   "--out", str(work / "track.csv")], work / "track.csv.run.json"),
    }
    for subcommand, (flags, _) in steps.items():
        assert run([subcommand, *flags]) == 0
    for subcommand, (_, record) in steps.items():
        meta = json.loads(record.read_text())
        assert meta["subcommand"] == subcommand
        assert sorted(meta["env"]) == ENV_KEYS
        assert sorted(meta["env"]["blas"]) == ["name", "version"]
        assert sorted(meta["env"]["thread_vars"]) == sorted(BLAS_THREAD_VARS)
    assert not (work / "run.json").exists()


ENV_KEYS = sorted(["python", "numpy", "scipy", "blas", "thread_vars",
                   "ambidoa_threads", "cpu_count"])


def test_run_record_names_its_environment_and_reruns_identically(tmp_path, monkeypatch):
    monkeypatch.setenv("AMBIDOA_THREADS", "2")
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    commands = (
        (["gridinfo", "--resolution", "30", "--csv", str(tmp_path / "grid.csv")],
         tmp_path / "grid.csv.run.json"),
        (["simulate", "--count", "2", "--seed", "4", "--out", str(tmp_path / "sim")],
         tmp_path / "sim" / "run.json"),
    )
    for argv, record in commands:
        assert run(argv) == 0
        first = record.read_bytes()
        assert run(argv) == 0
        assert record.read_bytes() == first
        env = json.loads(first)["env"]
        assert sorted(env) == ENV_KEYS
        assert env["numpy"] == np.__version__
        assert env["ambidoa_threads"] == 2
        assert env["thread_vars"]["OPENBLAS_NUM_THREADS"] == "1"
        assert env["thread_vars"]["MKL_NUM_THREADS"] is None


@pytest.mark.parametrize("show_config", [
    lambda: None,  # numpy < 1.26: show_config takes no mode
    lambda mode: {"Build Dependencies": {}},  # a build that names no BLAS
])
def test_run_record_survives_a_build_record_without_blas(tmp_path, monkeypatch,
                                                         show_config):
    monkeypatch.setattr(np, "show_config", show_config)
    assert run(["gridinfo", "--resolution", "30", "--csv", str(tmp_path / "g.csv")]) == 0
    meta = json.loads((tmp_path / "g.csv.run.json").read_text())
    assert meta["env"]["blas"] == {"name": None, "version": None}
    assert "workers" not in meta["resolved"]  # env holds it as ambidoa_threads


def test_bad_thread_count_stops_any_command(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("AMBIDOA_THREADS", "0")
    assert run(["gridinfo", "--resolution", "30", "--csv", str(tmp_path / "g.csv")]) == 2
    assert "AMBIDOA_THREADS" in capsys.readouterr().err
    assert not (tmp_path / "g.csv").exists()


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

    @pytest.mark.parametrize("command", ["music", "track"])
    @pytest.mark.parametrize("channels, message", [
        (2, "expected a 4-channel WAV, got shape (4000, 2)"),
        (4, "FOA signal contains non-finite samples"),
    ], ids=["two-channels", "nan-sample"])
    def test_a_bad_recording_is_named(self, tmp_path, capsys, command, channels,
                                      message):
        wav = tmp_path / "bad.wav"
        data = np.random.default_rng(3).standard_normal((4000, channels))
        data[17, -1] = np.nan
        wavfile.write(wav, 16000, data.astype(np.float32))
        out = tmp_path / "track.csv"
        extra = (["--truth-azimuth", "0", "--truth-elevation", "0", "--out", str(out)]
                 if command == "track" else [])
        assert run([command, "--input", str(wav), *extra]) == 2
        assert f"error: {wav}: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("angles", [("nan", "10"), ("40", "inf"), ("-inf", "10")])
    def test_track_refuses_a_non_finite_truth(self, wave_file, tmp_path, capsys, angles):
        csv = tmp_path / "track.csv"
        assert run(["track", "--input", str(wave_file), f"--truth-azimuth={angles[0]}",
                    f"--truth-elevation={angles[1]}", "--hop", "8", "--out", str(csv)]) == 2
        assert "error: truth must be a finite, nonzero 3-vector" in capsys.readouterr().err
        assert not csv.exists()

    def test_only_music_tracks_a_recording_at_another_sample_rate(self, tmp_path,
                                                                   capsys):
        wav = tmp_path / "pw48k.wav"
        rng = np.random.default_rng(41)
        write_wav(wav, encode_plane_wave(rng.standard_normal(48000),
                                         to_cartesian(np.radians(40), np.radians(10)),
                                         sample_rate=48000))
        model = tmp_path / "desk.adom"
        save_model(model, build_network(NetworkConfig.desk(), Formulation("cartesian")))
        flags = ["track", "--input", str(wav), "--truth-azimuth", "40",
                 "--truth-elevation", "10", "--hop", "8"]
        assert run(flags + ["--model", str(model),
                            "--out", str(tmp_path / "model.csv")]) == 2
        assert f"{wav}: sample rate 48000 Hz; a model takes features rendered at " \
            "16000 Hz" in capsys.readouterr().err
        assert not (tmp_path / "model.csv").exists()
        assert run(flags + ["--out", str(tmp_path / "music.csv")]) == 0
        assert (tmp_path / "music.csv").read_text().startswith("time_s,")
