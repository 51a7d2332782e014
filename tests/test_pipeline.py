from __future__ import annotations

import json
import tracemalloc

import numpy as np
import pytest

from hearmix import (
    MUTE,
    STAGE_ORDER,
    AlignmentError,
    EnhanceOptions,
    GainSpec,
    Listener,
    NoisyOracleStemProvider,
    UndefinedLoudnessError,
    build_reference,
    compress,
    enhance,
    integrated_loudness,
    load_gains,
    load_manifest,
    normalize_to_loudness,
    read_wav,
    remix,
    run_batch,
    sdr,
)
from hearmix import pipeline
from hearmix.hearing import AUDIOMETRIC_FREQUENCIES, Audiogram
from util import (
    ZERO_LISTENER,
    exact_mix,
    flat_listener,
    make_buffer,
    synth_stems,
    write_gains_file,
    write_listener_file,
    write_stems_dir,
)

UNIT_GAINS = GainSpec(0.0, 0.0, 0.0, 0.0)
NO_COMP = EnhanceOptions(use_compressor_heuristic=False)


def _is_subsequence(seq, full):
    it = iter(full)
    return all(item in it for item in seq)


def _peak_buffers(like, fn, *args):
    """Result of one call and its transient peak allocation, counted in
    buffers the size of ``like``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / like.samples.nbytes
    finally:
        tracemalloc.stop()


class TestGainSpec:
    def test_mute_representation(self):
        spec = GainSpec(MUTE, 0.0, 3.0, -2.5)
        assert spec.vocals == float("-inf")
        assert spec.as_dict()["vocals"] == "mute"
        assert spec.as_dict()["bass"] == 3.0

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            GainSpec(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GainSpec(float("inf"), 0.0, 0.0, 0.0)

    def test_load_gains(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps({"vocals": "mute", "drums": -3, "bass": 0, "other": 2.5}))
        spec = load_gains(path)
        assert spec.vocals == MUTE
        assert spec.drums == -3.0
        assert spec.other == 2.5

    def test_load_gains_rejects_missing_track(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps({"vocals": 0, "drums": 0, "bass": 0}))
        with pytest.raises(ValueError, match="missing"):
            load_gains(path)

    def test_load_gains_rejects_bad_value(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps({"vocals": "loud", "drums": 0, "bass": 0, "other": 0}))
        with pytest.raises(ValueError, match="vocals"):
            load_gains(path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"{",
            b"\xff\xfe{}",
            b'{"vocals": NaN, "drums": 0, "bass": 0, "other": 0}',
            b'{"vocals": 0, "drums": Infinity, "bass": 0, "other": 0}',
            b'{"vocals": 0, "drums": 0, "bass": -Infinity, "other": 0}',
        ],
        ids=["bad_json", "not_utf8", "nan", "infinity", "minus_infinity"],
    )
    def test_load_gains_undecodable_file_names_the_file(self, tmp_path, raw):
        path = tmp_path / "broken_gains.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="broken_gains.json"):
            load_gains(path)


class TestRemix:
    def test_unit_gains_reproduce_mix(self, rng):
        stems = synth_stems(rng, seconds=0.1)
        mix = exact_mix(stems)
        np.testing.assert_array_equal(remix(stems, UNIT_GAINS).samples, mix.samples)

    def test_mute_removes_track_exactly(self, rng):
        stems = synth_stems(rng, seconds=0.1)
        mix = exact_mix(stems)
        out = remix(stems, GainSpec(MUTE, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(out.samples, mix.samples - stems.vocals.samples)

    def test_six_db_boost_doubles_track(self, rng):
        stems = synth_stems(rng, seconds=0.1)
        mix = exact_mix(stems)
        out = remix(stems, GainSpec(6.0206, 0.0, 0.0, 0.0))
        expected = mix.samples + stems.vocals.samples
        err = np.linalg.norm(out.samples - expected)
        assert err <= 1e-4 * np.linalg.norm(expected)


class TestEnhanceOptions:
    def test_echo_round_trips_to_dict(self):
        opts = EnhanceOptions(ensemble_weights=(1.0, 2.0), use_residual=False)
        echo = opts.as_dict()
        assert echo["ensemble_weights"] == [1.0, 2.0]
        assert echo["use_residual"] is False
        assert echo["compressor"]["ratio"] == 6.0


class TestEnhance:
    def test_pipeline_identity_with_oracle_stems(self, rng):
        stems = synth_stems(rng, seconds=2.0)
        mix = exact_mix(stems)
        out, report = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        target = integrated_loudness(mix).value
        expected = normalize_to_loudness(mix, target)
        assert sdr(expected, out).value >= 60.0
        assert report.input_loudness_lufs == pytest.approx(target)
        assert not report.compressor_applied

    def test_residual_ablation_is_noop_for_perfect_stems(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        on, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        off, _ = enhance(
            mix, [stems], UNIT_GAINS, ZERO_LISTENER,
            EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
        )
        np.testing.assert_array_equal(on.samples, off.samples)

    def test_compressor_ablation_is_noop_without_clipping(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        on, report_on = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER)
        off, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        assert max(report_on.clipped_samples) == 0
        np.testing.assert_array_equal(on.samples, off.samples)

    def test_residual_repairs_corrupted_other(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        mix = exact_mix(stems)
        noise = rng.normal(0, 0.02, stems.other.samples.shape)
        corrupted = stems.with_track(
            "other", stems.other.with_samples(stems.other.samples + noise)
        )
        reference, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        on, _ = enhance(mix, [corrupted], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        off, _ = enhance(
            mix, [corrupted], UNIT_GAINS, ZERO_LISTENER,
            EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
        )
        assert sdr(reference, on).value > sdr(reference, off).value

    def test_severe_loss_triggers_compressor(self, rng):
        stems = synth_stems(rng, seconds=2.0, peak=0.22)
        mix = exact_mix(stems)
        out, report = enhance(mix, [stems], UNIT_GAINS, flat_listener(60.0))
        assert max(report.clipped_samples) >= 25_000
        assert report.compressor_applied
        assert "compress" in report.stages
        assert np.max(np.abs(out.samples)) <= 1.0

    def test_report_flag_matches_trigger_rule(self, rng):
        from hearmix import ClipReport, should_compress

        for peak, listener in ((0.2, ZERO_LISTENER), (0.22, flat_listener(60.0))):
            stems = synth_stems(rng, seconds=1.0, peak=peak)
            _, report = enhance(exact_mix(stems), [stems], UNIT_GAINS, listener)
            expected = should_compress(ClipReport(report.clipped_samples))
            assert report.compressor_applied == expected

    def test_stage_order_is_fixed(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        variants = [
            EnhanceOptions(),
            EnhanceOptions(use_residual=False),
            NO_COMP,
            EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
        ]
        for options in variants:
            _, report = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, options)
            assert _is_subsequence(report.stages, STAGE_ORDER)
            for required in ("ensemble", "remix", "normalize", "nalr", "clip_check"):
                assert required in report.stages
            if options.use_residual:
                assert "residual" in report.stages
            else:
                assert "residual" not in report.stages

    def test_deterministic_runs_bit_identical(self, rng):
        truth = synth_stems(rng, seconds=0.5)
        mix = exact_mix(truth)
        sets_a = [NoisyOracleStemProvider(truth, 10.0, seed=k).stems() for k in range(3)]
        sets_b = [NoisyOracleStemProvider(truth, 10.0, seed=k).stems() for k in range(3)]
        out_a, report_a = enhance(mix, sets_a, UNIT_GAINS, ZERO_LISTENER)
        out_b, report_b = enhance(mix, sets_b, UNIT_GAINS, ZERO_LISTENER)
        np.testing.assert_array_equal(out_a.samples, out_b.samples)
        assert report_a == report_b

    def test_one_hot_weights_match_single_set(self, rng):
        truth = synth_stems(rng, seconds=0.5)
        mix = exact_mix(truth)
        sets = [NoisyOracleStemProvider(truth, 10.0, seed=k).stems() for k in range(3)]
        ensemble, _ = enhance(
            mix, sets, UNIT_GAINS, ZERO_LISTENER,
            EnhanceOptions(ensemble_weights=(0.0, 1.0, 0.0), use_compressor_heuristic=False),
        )
        single, _ = enhance(mix, [sets[1]], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        np.testing.assert_array_equal(ensemble.samples, single.samples)

    def test_silent_mix_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        silent_mix = make_buffer(np.zeros((2, stems.n_frames)))
        with pytest.raises(UndefinedLoudnessError):
            enhance(silent_mix, [stems], UNIT_GAINS, ZERO_LISTENER)

    def test_empty_stem_sets_rejected(self, rng):
        mix = make_buffer(rng.normal(0, 0.1, (2, 44100)))
        with pytest.raises(ValueError, match="at least one"):
            enhance(mix, [], UNIT_GAINS, ZERO_LISTENER)

    def test_misaligned_mix_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = make_buffer(rng.normal(0, 0.1, (2, 100)))
        with pytest.raises(AlignmentError):
            enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER)

    def test_mono_mix_rejected_before_the_front_end(self, rng, monkeypatch):
        def front_end_ran(*args, **kwargs):
            raise AssertionError("ensemble_average ran on a mono mix")

        monkeypatch.setattr(pipeline, "ensemble_average", front_end_ran)
        stems = synth_stems(rng, seconds=0.5, channels=1)
        with pytest.raises(ValueError, match="stereo"):
            enhance(exact_mix(stems), [stems], UNIT_GAINS, ZERO_LISTENER)

    def test_report_echoes_options(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        options = EnhanceOptions(use_residual=False)
        _, report = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, options, song_id="s1")
        assert report.song_id == "s1"
        assert report.options["use_residual"] is False
        assert report.as_dict()["schema_version"] == 2


class TestPeakMemory:
    """Each stage's output is freed once the next stage has consumed it."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_enhance_holds_few_buffers_through_the_compressor(self, rng, k):
        truth = synth_stems(rng, seconds=3.0, peak=0.22)
        mix = exact_mix(truth)
        sets = [NoisyOracleStemProvider(truth, 20.0, seed=s).stems() for s in range(k)]
        (_, report), peak = _peak_buffers(
            mix, enhance, mix, sets, UNIT_GAINS, flat_listener(60.0)
        )
        assert report.compressor_applied
        assert peak <= 6.5

    def test_build_reference_holds_few_buffers(self, rng):
        truth = synth_stems(rng, seconds=3.0, peak=0.22)
        _, peak = _peak_buffers(
            truth.vocals, build_reference, truth, UNIT_GAINS, flat_listener(60.0)
        )
        assert peak <= 4.5

    def test_compress_holds_few_buffers(self, rng):
        # the output is one buffer; the detector and smoother add frame-sized
        # arrays (half a stereo buffer each) and per-block scratch
        song = make_buffer(rng.normal(0.0, 0.6, (2, 3 * 44100)))
        _, peak = _peak_buffers(song, compress, song)
        assert peak <= 2.0


class TestBuildReference:
    def test_mono_stems_rejected_before_any_stage(self, rng, monkeypatch):
        def stage_ran(*args, **kwargs):
            raise AssertionError("build_reference ran a stage on mono stems")

        monkeypatch.setattr(pipeline, "remix", stage_ran)
        monkeypatch.setattr(pipeline, "normalize_to_loudness", stage_ran)
        stems = synth_stems(rng, seconds=0.5, channels=1)
        with pytest.raises(ValueError, match="build_reference needs a stereo mix"):
            build_reference(stems, UNIT_GAINS, ZERO_LISTENER)

    def test_is_enhance_without_residual_or_compressor(self, rng):
        truth = synth_stems(rng, seconds=1.0, peak=0.22)
        gains = GainSpec(3.0, -2.0, MUTE, 1.5)
        listener = flat_listener(60.0)
        enhanced, _ = enhance(
            exact_mix(truth), [truth], gains, listener,
            EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
        )
        reference = build_reference(truth, gains, listener)
        np.testing.assert_array_equal(reference.samples, enhanced.samples)

    def test_matches_enhance_on_oracle_stems(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        mix = exact_mix(stems)
        enhanced, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        reference = build_reference(stems, UNIT_GAINS, ZERO_LISTENER)
        rms = np.sqrt(np.mean((enhanced.samples - reference.samples) ** 2))
        assert rms <= 1e-6

    def test_all_mute_gains_rejected(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        with pytest.raises(UndefinedLoudnessError):
            build_reference(stems, GainSpec(MUTE, MUTE, MUTE, MUTE), ZERO_LISTENER)

    def test_asymmetric_listener_shapes_channels(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        listener = Listener(
            "asym",
            Audiogram(AUDIOMETRIC_FREQUENCIES, (60.0,) * 6),
            Audiogram(AUDIOMETRIC_FREQUENCIES, (0.0,) * 6),
        )
        flat = build_reference(stems, UNIT_GAINS, ZERO_LISTENER)
        shaped = build_reference(stems, UNIT_GAINS, listener)
        left_gain = 10 * np.log10(
            np.sum(shaped.samples[0] ** 2) / np.sum(flat.samples[0] ** 2)
        )
        assert left_gain >= 10.0
        np.testing.assert_array_equal(shaped.samples[1], flat.samples[1])


class TestBatch:
    def _song_files(self, tmp_path, rng, name, break_stems=False):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        song_dir = tmp_path / name
        write_stems_dir(stems, song_dir / "stems")
        if break_stems:
            (song_dir / "stems" / "drums.wav").unlink()
        from hearmix import write_wav

        write_wav(mix, song_dir / "mix.wav")
        return {
            "song_id": name,
            "mix": f"{name}/mix.wav",
            "stems": [f"{name}/stems"],
            "gains": "gains.json",
            "listener": "listener.json",
            "out": f"out/{name}.wav",
        }

    def _manifest(self, tmp_path, rng, n_jobs=2, broken=()):
        jobs = [
            self._song_files(tmp_path, rng, f"song{i}", break_stems=(i in broken))
            for i in range(n_jobs)
        ]
        write_gains_file(tmp_path / "gains.json")
        write_listener_file(tmp_path / "listener.json", ZERO_LISTENER)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"jobs": jobs}))
        return manifest_path

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": []}))
        assert run_batch(load_manifest(path)) == []

    def test_two_jobs_complete(self, tmp_path, rng):
        manifest = load_manifest(self._manifest(tmp_path, rng, n_jobs=2))
        reports = run_batch(manifest)
        assert [r.song_id for r in reports] == ["song0", "song1"]
        assert all(r.error is None for r in reports)
        for i in range(2):
            out = read_wav(tmp_path / "out" / f"song{i}.wav")
            assert out.channels == 2

    def test_broken_job_is_isolated(self, tmp_path, rng):
        manifest = load_manifest(self._manifest(tmp_path, rng, n_jobs=2, broken={0}))
        reports = run_batch(manifest)
        assert reports[0].error is not None and "drums" in reports[0].error
        assert reports[1].error is None
        assert not (tmp_path / "out" / "song0.wav").exists()
        assert (tmp_path / "out" / "song1.wav").exists()

    def test_workers_do_not_change_results(self, tmp_path, rng):
        manifest = load_manifest(self._manifest(tmp_path, rng, n_jobs=3))
        serial = run_batch(manifest)
        parallel = run_batch(manifest, workers=3)
        assert [r.song_id for r in serial] == [r.song_id for r in parallel]
        for a, b in zip(serial, parallel):
            assert a.input_loudness_lufs == b.input_loudness_lufs

    def test_duplicate_song_ids_fatal(self, tmp_path, rng):
        path = self._manifest(tmp_path, rng, n_jobs=1)
        doc = json.loads(path.read_text())
        doc["jobs"].append(doc["jobs"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(path)

    def test_malformed_manifest_fatal(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": [{"song_id": "x"}]}))
        with pytest.raises(ValueError, match="bad job"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"{",
            b"\xff\xfe{}",
            b'{"jobs": [{"song_id": "a", "mix": "a.wav", "gains": "g.json", '
            b'"listener": "l.json", "out": "out/a.wav", '
            b'"stems": [{"kind": "noisy_oracle", "path": "a", "snr_db": NaN, "seed": 1}]}]}',
        ],
        ids=["bad_json", "not_utf8", "nan_snr"],
    )
    def test_undecodable_manifest_names_the_file(self, tmp_path, raw):
        path = tmp_path / "broken_manifest.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="broken_manifest.json"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "job, out",
        [
            (1, "out/song0.wav"),
            (1, "out/../out/./song0.wav"),
            (1, "song0/mix.wav"),
            (0, "song1/mix.wav"),
        ],
        ids=["same_out", "same_out_resolved", "out_is_earlier_mix", "out_is_later_mix"],
    )
    def test_output_collision_fatal(self, tmp_path, rng, job, out):
        path = self._manifest(tmp_path, rng, n_jobs=2)
        doc = json.loads(path.read_text())
        doc["jobs"][job]["out"] = out
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"manifest\.json: ") as caught:
            load_manifest(path)
        assert "'song0'" in str(caught.value) and "'song1'" in str(caught.value)

    def test_workers_below_one_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": []}))
        with pytest.raises(ValueError, match="workers"):
            run_batch(load_manifest(path), workers=0)
