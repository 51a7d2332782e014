from __future__ import annotations

import json
import re

import numpy as np
import pytest

from hearmix import AudioBuffer, CompressorParams, cli, pipeline, read_wav, write_wav
from hearmix import stems as stems_module
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
    identity_kernel,
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


def _enhance(song, *flags, mix="mix.wav", gains="gains.json", separators=1):
    """Exit code of ``enhance`` on the song's files, with its stem folder
    given ``separators`` times, writing ``enhanced.wav``."""
    stems = ["--stems", str(song / "stems")] * separators
    return main(
        ["enhance", "--mix", str(song / mix), *stems, "--gains", str(song / gains),
         "--listener", str(song / "listener.json"), "--out", str(song / "enhanced.wav"), *flags]
    )


class TestEnhanceCommand:
    def test_end_to_end(self, song, capsys):
        rc = _enhance(song)
        assert rc == EXIT_OK
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 3
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
        rc = _enhance(
            song, "--no-residual", "--no-compressor", "--weights", "1,3", "--taps", "201",
            "--comp-threshold", "-9", "--comp-ratio", "4", "--comp-attack", "2",
            "--comp-release", "50", separators=2,
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
        rc = _enhance(song, "--comp-attack", "nan")
        assert rc == EXIT_FAILURE
        assert "ValueError: --comp-attack must be finite, got nan" in capsys.readouterr().err
        assert not (song / "enhanced.wav").exists()

    @pytest.mark.parametrize("taps", ["64", "63", "1", "1000000001"])
    def test_bad_taps_fail_before_any_file_is_read(self, song, capsys, monkeypatch, taps):
        def no_read(path):
            raise AssertionError(f"read {path}")

        for module in (cli, pipeline, stems_module):
            monkeypatch.setattr(module, "read_wav", no_read)
        rc = _enhance(song, "--taps", taps)
        assert rc == EXIT_FAILURE
        assert "ValueError: --taps must be " in capsys.readouterr().err
        assert not (song / "enhanced.wav").exists()

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--comp-threshold", "inf", "--comp-threshold must be finite, got inf"),
            ("--comp-ratio", "0.5", "--comp-ratio must be >= 1, got 0.5"),
            ("--comp-attack", "0", "--comp-attack must be positive, got 0.0"),
            ("--comp-release", "nan", "--comp-release must be finite, got nan"),
            ("--comp-release", "-1", "--comp-release must be positive, got -1.0"),
            ("--taps", "4", "--taps must be odd, got 4"),
            ("--taps", "63", "--taps must be >= 65, got 63"),
            ("--taps", "1000000001", "--taps must be <= 65537, got 1000000001"),
        ],
    )
    def test_bad_flag_value_fails_naming_the_flag(self, song, capsys, flag, value, message):
        rc = _enhance(song, flag, value)
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (song / "enhanced.wav").exists()

    def test_weights_whose_sum_overflows_fail_without_output(self, song, capsys):
        rc = _enhance(song, "--weights", "1e308,1e308", separators=2)
        assert rc == EXIT_FAILURE
        assert "ensemble weights must have a finite sum" in capsys.readouterr().err
        assert not (song / "enhanced.wav").exists()

    def test_weights_that_are_not_numbers_fail_naming_the_flag(self, song, capsys):
        rc = _enhance(song, "--weights", "1,,2", separators=2)
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: --weights must be comma-separated numbers, got '1,,2'")
        assert not (song / "enhanced.wav").exists()

    def test_gain_with_overflowing_linear_factor_fails_naming_the_file(self, song, capsys):
        gains = write_gains_file(song / "loud_gains.json", drums=7000)
        rc = _enhance(song, gains=gains)
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err.startswith(f"error: ValueError: {gains}: drums gain")
        assert not (song / "enhanced.wav").exists()

    def test_compressor_flag_defaults_are_the_library_defaults(self):
        args = build_parser().parse_args(
            ["enhance", "--mix", "m.wav", "--stems", "s", "--gains", "g.json",
             "--listener", "l.json", "--out", "o.wav"]
        )
        assert _options_from_args(args).compressor == CompressorParams()

    def test_missing_file_fails_cleanly(self, song, capsys):
        rc = _enhance(song, mix="nope.wav")
        assert rc == EXIT_FAILURE
        first = capsys.readouterr().err.splitlines()[0]
        assert re.fullmatch(r"error: FileNotFoundError: .*nope\.wav.*", first), first


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

    def test_one_sided_stems_checked_before_reading_files(self, song, capsys):
        rc = main(
            [
                "evaluate",
                "--reference", str(song / "missing.wav"),
                "--estimate", str(song / "mix.wav"),
                "--est-stems", str(song / "stems"),
                "--report", str(song / "report.json"),
            ]
        )
        assert rc == EXIT_USAGE
        assert "must be given together" in capsys.readouterr().err
        assert not (song / "report.json").exists()


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

    @pytest.mark.parametrize("seconds", ["inf", "nan", "0", "-1"])
    def test_bad_seconds_rejected_before_stems_are_read(self, tmp_path, capsys, seconds):
        # the stem folder does not exist, so reading it would fail differently
        rc = main(
            [
                "segments",
                "--stems", str(tmp_path / "no_such_stems"),
                "--track", "drums",
                "--seconds", seconds,
                "--report", str(tmp_path / "segments.json"),
            ]
        )
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: --seconds must be a positive finite number")
        assert not (tmp_path / "segments.json").exists()

    @pytest.mark.parametrize(
        "threshold, message",
        [
            ("nan", "--threshold must be a finite number, got nan"),
            ("2", "--threshold must be in [0, 1], got 2.0"),
            ("-0.5", "--threshold must be in [0, 1], got -0.5"),
        ],
    )
    def test_bad_threshold_fails_naming_the_flag(self, song, capsys, threshold, message):
        rc = main(
            [
                "segments",
                "--stems", str(song / "stems"),
                "--track", "drums",
                "--threshold", threshold,
                "--report", str(song / "segments.json"),
            ]
        )
        assert rc == EXIT_FAILURE
        assert capsys.readouterr().err == f"error: ValueError: {message}\n"
        assert not (song / "segments.json").exists()

    def test_seconds_shorter_than_a_frame_rejected(self, song, capsys):
        rc = main(
            [
                "segments",
                "--stems", str(song / "stems"),
                "--track", "drums",
                "--seconds", "1e-6",
                "--report", str(song / "segments.json"),
            ]
        )
        assert rc == EXIT_FAILURE
        err = capsys.readouterr().err
        assert err.startswith("error: ValueError: --seconds 1e-06 is under one frame at 44100 Hz")
        assert not (song / "segments.json").exists()


def _summary(stderr: str) -> tuple[int, int]:
    """Jobs ok and failed from the batch summary, which must be the last
    stderr line and report a positive wall time and a consistent rate."""
    match = re.fullmatch(
        r"batch: (\d+) ok, (\d+) failed, (\d+\.\d\d) s, (\d+\.\d\d) songs/s",
        stderr.splitlines()[-1],
    )
    assert match, stderr
    ok, failed, wall, rate = int(match[1]), int(match[2]), float(match[3]), float(match[4])
    assert wall >= 0.0 and rate > 0.0
    if wall >= 0.1:  # two decimals are too coarse to check the rate of a faster batch
        assert rate == pytest.approx(ok / wall, rel=0.1)
    return ok, failed


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

    def test_all_jobs_succeed(self, tmp_path, rng, capsys):
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
        assert _summary(capsys.readouterr().err) == (3, 0)

    @pytest.mark.parametrize(
        "spec, error",
        [
            (None, "FileNotFoundError: "),
            (
                {"kind": "noisy_oracle", "path": "song1/stems", "snr_db": 1e308, "seed": 1},
                "ValueError: snr_db must have a power ratio 10 ** (snr_db / 10)",
            ),
            (
                "song1/stems_48k",
                "AlignmentError: {root}/song1/mix.wav and {root}/song1/stems_48k: "
                "mix and stems have mixed sample rates: 44100 vs 48000\n",
            ),
        ],
        ids=["missing_stem", "snr_ratio_overflows", "stems_at_48k"],
    )
    def test_partial_failure_exit_code(self, tmp_path, rng, capsys, spec, error):
        root = self._setup(tmp_path, rng, broken=set() if spec else {1})
        if isinstance(spec, str):
            write_stems_dir(synth_stems(rng, seconds=0.4, rate=48000), root / spec)
        if spec:
            doc = json.loads((root / "manifest.json").read_text())
            doc["jobs"][1]["stems"] = [spec]
            (root / "manifest.json").write_text(json.dumps(doc))
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
        err = capsys.readouterr().err
        assert "song1" in err
        assert err.startswith(f"job song1 failed: {error.format(root=root)}")
        assert _summary(err) == (2, 1)

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_exit_before_the_manifest_is_read(
        self, tmp_path, capsys, monkeypatch, workers
    ):
        def no_load(path):
            raise AssertionError(f"loaded {path}")

        monkeypatch.setattr(cli, "load_manifest", no_load)
        rc = main(
            [
                "batch",
                "--manifest", str(tmp_path / "manifest.json"),
                "--report", str(tmp_path / "report.json"),
                "--workers", workers,
            ]
        )
        assert rc == EXIT_USAGE
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

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

    def test_deeply_nested_manifest_is_fatal(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text("[" * 200_000)
        rc = main(
            [
                "batch",
                "--manifest", str(tmp_path / "manifest.json"),
                "--report", str(tmp_path / "report.json"),
            ]
        )
        assert rc == EXIT_USAGE
        assert "manifest.json: JSON nested too deeply" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["transmogrify"])

    def test_missing_required_flag_exits(self):
        with pytest.raises(SystemExit):
            main(["enhance", "--mix", "x.wav"])
