from __future__ import annotations

import json

import numpy as np
import pytest

from hearmix import AudioBuffer, CompressorParams, identity_kernel, read_wav, write_wav
from hearmix.cli import (
    EXIT_FAILURE,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_USAGE,
    _options_from_args,
    build_parser,
    main,
)
from util import (
    ZERO_LISTENER,
    exact_mix,
    synth_stems,
    write_gains_file,
    write_listener_file,
    write_stems_dir,
)


@pytest.fixture
def song(tmp_path, rng):
    stems = synth_stems(rng, seconds=0.6)
    mix = exact_mix(stems)
    write_stems_dir(stems, tmp_path / "stems")
    write_wav(mix, tmp_path / "mix.wav")
    write_gains_file(tmp_path / "gains.json")
    write_listener_file(tmp_path / "listener.json", ZERO_LISTENER)
    return tmp_path


class TestEnhanceCommand:
    def test_end_to_end(self, song, capsys):
        rc = main(
            [
                "enhance",
                "--mix", str(song / "mix.wav"),
                "--stems", str(song / "stems"),
                "--gains", str(song / "gains.json"),
                "--listener", str(song / "listener.json"),
                "--out", str(song / "enhanced.wav"),
            ]
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 2
        assert report["stages"][0] == "ensemble"
        out = read_wav(song / "enhanced.wav")
        assert out.channels == 2

    def test_creates_output_folder(self, song, capsys, monkeypatch):
        monkeypatch.chdir(song)  # relative paths, as a shell user types them
        rc = main(
            [
                "enhance",
                "--mix", "mix.wav",
                "--stems", "stems",
                "--gains", "gains.json",
                "--listener", "listener.json",
                "--out", "new_dir/x.wav",
            ]
        )
        assert rc == EXIT_OK, capsys.readouterr().err
        assert read_wav(song / "new_dir" / "x.wav").channels == 2

    def test_flags_reach_options(self, song, capsys):
        rc = main(
            [
                "enhance",
                "--mix", str(song / "mix.wav"),
                "--stems", str(song / "stems"),
                "--stems", str(song / "stems"),
                "--gains", str(song / "gains.json"),
                "--listener", str(song / "listener.json"),
                "--out", str(song / "enhanced.wav"),
                "--no-residual",
                "--no-compressor",
                "--weights", "1,3",
                "--taps", "201",
                "--comp-threshold", "-9",
                "--comp-ratio", "4",
                "--comp-attack", "2",
                "--comp-release", "50",
            ]
        )
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["options"]["use_residual"] is False
        assert report["options"]["use_compressor_heuristic"] is False
        assert report["options"]["ensemble_weights"] == [1.0, 3.0]
        assert report["options"]["n_taps"] == 201
        assert report["options"]["compressor"]["threshold_db"] == -9.0
        assert "residual" not in report["stages"]

    def test_nan_compressor_flag_fails_before_the_chain(self, song, capsys):
        rc = main(
            [
                "enhance",
                "--mix", str(song / "mix.wav"),
                "--stems", str(song / "stems"),
                "--gains", str(song / "gains.json"),
                "--listener", str(song / "listener.json"),
                "--out", str(song / "enhanced.wav"),
                "--comp-attack", "nan",
            ]
        )
        assert rc == EXIT_FAILURE
        assert "attack_ms must be finite" in capsys.readouterr().err
        assert not (song / "enhanced.wav").exists()

    def test_compressor_flag_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(
            ["enhance", "--mix", "m.wav", "--stems", "s", "--gains", "g.json",
             "--listener", "l.json", "--out", "o.wav"]
        )
        assert _options_from_args(args).compressor == CompressorParams()

    def test_missing_file_fails_cleanly(self, song, capsys):
        rc = main(
            [
                "enhance",
                "--mix", str(song / "nope.wav"),
                "--stems", str(song / "stems"),
                "--gains", str(song / "gains.json"),
                "--listener", str(song / "listener.json"),
                "--out", str(song / "enhanced.wav"),
            ]
        )
        assert rc == EXIT_FAILURE
        assert "error" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_reports_sdr(self, song, capsys):
        rc = main(
            [
                "evaluate",
                "--reference", str(song / "mix.wav"),
                "--estimate", str(song / "mix.wav"),
                "--ref-stems", str(song / "stems"),
                "--est-stems", str(song / "stems"),
                "--report", str(song / "report.json"),
            ]
        )
        assert rc == EXIT_OK
        report = json.loads((song / "report.json").read_text())
        assert report["overall_sdr_db"] == 100.0
        assert set(report["per_track_sdr_db"]) == {"vocals", "drums", "bass", "other"}

    def test_one_sided_stems_is_usage_error(self, song):
        rc = main(
            [
                "evaluate",
                "--reference", str(song / "mix.wav"),
                "--estimate", str(song / "mix.wav"),
                "--ref-stems", str(song / "stems"),
                "--report", str(song / "report.json"),
            ]
        )
        assert rc == EXIT_USAGE


class TestReferenceCommand:
    def test_builds_reference(self, song):
        rc = main(
            [
                "reference",
                "--stems", str(song / "stems"),
                "--gains", str(song / "gains.json"),
                "--listener", str(song / "listener.json"),
                "--out", str(song / "reference.wav"),
            ]
        )
        assert rc == EXIT_OK
        assert read_wav(song / "reference.wav").channels == 2


class TestSimulateCommand:
    def test_identity_kernel_round_trip(self, song, rng):
        kernel = identity_kernel(44100, length=4)
        kernel_dir = song / "kernel"
        kernel_dir.mkdir()
        for name, h in (
            ("ll.wav", kernel.h_ll),
            ("rl.wav", kernel.h_rl),
            ("lr.wav", kernel.h_lr),
            ("rr.wav", kernel.h_rr),
        ):
            write_wav(AudioBuffer(h[np.newaxis, :], 44100), kernel_dir / name)
        rc = main(
            [
                "simulate",
                "--in", str(song / "mix.wav"),
                "--kernel", str(kernel_dir),
                "--out", str(song / "received.wav"),
            ]
        )
        assert rc == EXIT_OK
        received = read_wav(song / "received.wav")
        original = read_wav(song / "mix.wav")
        np.testing.assert_array_equal(received.samples, original.samples)


class TestSegmentsCommand:
    def test_writes_report(self, song):
        rc = main(
            [
                "segments",
                "--stems", str(song / "stems"),
                "--track", "drums",
                "--seconds", "0.1",
                "--threshold", "0.05",
                "--report", str(song / "segments.json"),
            ]
        )
        assert rc == EXIT_OK
        report = json.loads((song / "segments.json").read_text())
        assert report["track"] == "drums"
        assert report["segment_frames"] == 4410
        for segment in report["segments"]:
            assert segment["energy_ratio"] >= 0.05


class TestBatchCommand:
    def _setup(self, tmp_path, rng, broken):
        write_gains_file(tmp_path / "gains.json")
        write_listener_file(tmp_path / "listener.json", ZERO_LISTENER)
        jobs = []
        for i in range(3):
            stems = synth_stems(rng, seconds=0.4)
            song_dir = tmp_path / f"song{i}"
            write_stems_dir(stems, song_dir / "stems")
            write_wav(exact_mix(stems), song_dir / "mix.wav")
            if i in broken:
                (song_dir / "stems" / "vocals.wav").unlink()
            jobs.append(
                {
                    "song_id": f"song{i}",
                    "mix": f"song{i}/mix.wav",
                    "stems": [f"song{i}/stems"],
                    "gains": "gains.json",
                    "listener": "listener.json",
                    "out": f"out/song{i}.wav",
                }
            )
        (tmp_path / "manifest.json").write_text(json.dumps({"jobs": jobs}))
        return tmp_path

    def test_all_jobs_succeed(self, tmp_path, rng):
        root = self._setup(tmp_path, rng, broken=set())
        rc = main(
            [
                "batch",
                "--manifest", str(root / "manifest.json"),
                "--report", str(root / "report.json"),
            ]
        )
        assert rc == EXIT_OK
        reports = json.loads((root / "report.json").read_text())
        assert len(reports) == 3
        assert all(r["error"] is None for r in reports)

    def test_partial_failure_exit_code(self, tmp_path, rng, capsys):
        root = self._setup(tmp_path, rng, broken={1})
        rc = main(
            [
                "batch",
                "--manifest", str(root / "manifest.json"),
                "--report", str(root / "report.json"),
                "--workers", "2",
            ]
        )
        assert rc == EXIT_PARTIAL
        reports = json.loads((root / "report.json").read_text())
        assert [r["song_id"] for r in reports] == ["song0", "song1", "song2"]
        errors = [r for r in reports if r["error"] is not None]
        assert len(errors) == 1 and errors[0]["song_id"] == "song1"
        assert (root / "out" / "song0.wav").exists()
        assert not (root / "out" / "song1.wav").exists()
        assert (root / "out" / "song2.wav").exists()
        assert "song1" in capsys.readouterr().err

    def test_malformed_manifest_is_fatal(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("{not json")
        rc = main(
            [
                "batch",
                "--manifest", str(tmp_path / "manifest.json"),
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert rc == EXIT_USAGE
        assert "fatal" in capsys.readouterr().err


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_missing_required_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["enhance", "--mix", "x.wav"])
