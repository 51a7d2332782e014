from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearmix import (
    AlignmentError,
    AudioBuffer,
    DirectoryStemProvider,
    NoisyOracleStemProvider,
    StemSet,
    blend_other,
    compute_residual,
    ensemble_average,
    provider_from_spec,
    salient_segments,
    sdr,
    write_wav,
)
from hearmix.audio import _CHUNK_FRAMES
from hearmix.stems import TRACK_NAMES
from util import (
    CHUNK_EDGES,
    SPAN_EDGES,
    assert_read_only,
    exact_mix,
    load_script,
    make_buffer,
    peak_buffers,
    quantize,
    random_stem_sets,
    synth_stems,
    write_stems_dir,
)


# a noisy_oracle spec field to leave out
DROP = object()


def _stems_from_arrays(rate=44100, **tracks):
    return StemSet(**{k: make_buffer(v, rate) for k, v in tracks.items()})


def _offset_set(stems, delta):
    return StemSet(
        **{
            name: stems.track(name).with_samples(stems.track(name).samples + delta)
            for name in ("vocals", "drums", "bass", "other")
        }
    )


class TestStemSet:
    def test_rejects_misaligned_tracks(self):
        with pytest.raises(AlignmentError):
            _stems_from_arrays(
                vocals=np.zeros((2, 10)),
                drums=np.zeros((2, 10)),
                bass=np.zeros((2, 10)),
                other=np.zeros((2, 11)),
            )

    def test_track_lookup(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        assert stems.track("bass") is stems.bass
        with pytest.raises(ValueError, match="unknown track"):
            stems.track("piano")


class TestEnsembleAverage:
    def test_identical_sets_average_to_themselves(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        out = ensemble_average([stems, stems, stems])
        for name in ("vocals", "drums", "bass", "other"):
            np.testing.assert_array_equal(
                out.track(name).samples, stems.track(name).samples
            )

    def test_symmetric_noise_cancels_exactly(self, rng):
        truth = synth_stems(rng, seconds=0.05)
        noise = quantize(rng.normal(0, 0.01, truth.vocals.samples.shape))
        plus = _offset_set(truth, noise)
        minus = _offset_set(truth, -noise)
        out = ensemble_average([plus, minus])
        for name in ("vocals", "drums", "bass", "other"):
            np.testing.assert_array_equal(
                out.track(name).samples, truth.track(name).samples
            )

    def test_four_noisy_sets_gain_six_db(self, rng):
        # independent equal-power noise: averaging K=4 sets cuts noise power
        # by 4, so SDR should improve by 10*log10(4) = 6.02 dB
        truth = synth_stems(rng, seconds=0.5)
        gains = []
        for trial in range(8):
            sets = [
                NoisyOracleStemProvider(truth, 10.0, seed=1000 * trial + k).stems()
                for k in range(4)
            ]
            averaged = ensemble_average(sets)
            for name in ("vocals", "drums", "bass", "other"):
                individual = np.mean(
                    [sdr(truth.track(name), s.track(name)).value for s in sets]
                )
                combined = sdr(truth.track(name), averaged.track(name)).value
                gains.append(combined - individual)
        assert abs(np.mean(gains) - 6.02) < 1.0

    def test_script_table_tracks_the_predicted_gain(self):
        rows = load_script("ensemble_sdr_experiment").gain_table(trials=2, max_k=3)
        assert [k for k, _, _ in rows] == [1, 2, 3]
        for k, predicted, gains in rows:
            assert len(gains) == 4
            assert all(abs(gain - predicted) <= 0.5 for gain in gains), (k, predicted, gains)

    def test_one_hot_weights_select_exactly(self, rng):
        sets = [synth_stems(np.random.default_rng(i), seconds=0.05) for i in range(3)]
        out = ensemble_average(sets, weights=[0.0, 1.0, 0.0])
        for name in ("vocals", "drums", "bass", "other"):
            np.testing.assert_array_equal(
                out.track(name).samples, sets[1].track(name).samples
            )

    def test_permutation_invariance(self, rng):
        sets = [synth_stems(np.random.default_rng(i), seconds=0.05) for i in range(3)]
        weights = [1.0, 2.0, 5.0]
        forward = ensemble_average(sets, weights)
        shuffled = ensemble_average(
            [sets[2], sets[0], sets[1]], [weights[2], weights[0], weights[1]]
        )
        for name in ("vocals", "drums", "bass", "other"):
            np.testing.assert_allclose(
                forward.track(name).samples,
                shuffled.track(name).samples,
                rtol=0,
                atol=1e-15,
            )

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            ensemble_average([])

    def test_misaligned_sets_rejected(self, rng):
        a = synth_stems(rng, seconds=0.05)
        b = synth_stems(rng, seconds=0.06)
        with pytest.raises(AlignmentError):
            ensemble_average([a, b])

    def test_bad_weights_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        with pytest.raises(ValueError):
            ensemble_average([stems, stems], weights=[0.0, 0.0])
        with pytest.raises(ValueError):
            ensemble_average([stems, stems], weights=[1.0, -0.5])
        with pytest.raises(ValueError):
            ensemble_average([stems, stems], weights=[1.0])

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weights_rejected(self, rng, bad):
        stems = synth_stems(rng, seconds=0.05)
        with pytest.raises(ValueError, match="ensemble weights must be finite"):
            ensemble_average([stems, stems], weights=[bad, 1.0])

    def test_weights_whose_sum_overflows_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        with pytest.raises(ValueError, match="ensemble weights must have a finite sum"):
            ensemble_average([stems, stems], weights=(1e308, 1e308))

    def test_weights_whose_weighted_sum_overflows_rejected(self):
        # finite weights with a finite sum, but 1e308 * 1.9 is past float64
        loud = make_buffer(np.full((2, 100), 1.9))
        stems = StemSet(loud, loud, loud, loud)
        with pytest.raises(ValueError, match=r"ensemble weights \[1e\+308, 1e\+307\] overflow"):
            ensemble_average([stems, stems], weights=(1e308, 1e307))

    def test_overflow_names_the_first_overflowing_track_in_track_order(self):
        # vocals overflow only in the last frame, drums in the first chunk;
        # each track is summed whole, vocals first
        n = 2 * _CHUNK_FRAMES + 17
        quiet, loud = np.full((2, n), 0.5), np.full((2, n), 1.9)
        loud_end = quiet.copy()
        loud_end[:, -1] = 1.9
        stems = StemSet(*(make_buffer(x) for x in (loud_end, loud, quiet, quiet)))
        with pytest.raises(ValueError, match="overflow the weighted sum of the vocals track"):
            ensemble_average([stems, stems], weights=(1e308, 1e307))
        stems = StemSet(*(make_buffer(x) for x in (loud_end, quiet, quiet, quiet)))
        with pytest.raises(ValueError, match="overflow the weighted sum of the vocals track"):
            ensemble_average([stems, stems], weights=(1e308, 1e307))

    def test_largest_weights_with_a_finite_sum_accepted(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        out = ensemble_average([stems, stems], weights=(2.0**1022, 2.0**1022))
        np.testing.assert_array_equal(out.vocals.samples, stems.vocals.samples)


def whole_song_average(stem_sets, weights):
    """``ensemble_average`` as one whole-song sum per track: zeros, then
    ``+= w*x`` over the sets, then one division by the weight sum."""
    w = np.ones(len(stem_sets)) if weights is None else np.asarray(weights, dtype=np.float64)
    tracks = {}
    for name in TRACK_NAMES:
        acc = np.zeros_like(stem_sets[0].track(name).samples)
        for weight, stem_set in zip(w, stem_sets):
            acc += weight * stem_set.track(name).samples
        acc /= w.sum()
        tracks[name] = acc
    return tracks


class TestEnsembleChunks:
    """The span-wise average against the whole-song formula, bit for bit,
    at lengths around the chunk size and where spans outgrow it."""

    @pytest.mark.parametrize("order", ["C", "F"])
    # unit weights and a unit total skip their multiply and divide
    @pytest.mark.parametrize(
        "k, weights",
        [(1, None), (3, None), (3, (0.2, 1.5, 0.7)), (3, (1.0, 0.5, 1.0)), (2, (0.25, 0.75))],
    )
    @pytest.mark.parametrize("n_frames", CHUNK_EDGES + SPAN_EDGES)
    def test_matches_the_whole_song_formula(self, rng, n_frames, k, weights, order):
        _, sets = random_stem_sets(rng, n_frames, k, order)
        out = ensemble_average(sets, weights)
        for name, expected in whole_song_average(sets, weights).items():
            assert_read_only(out.track(name))
            got = out.track(name).samples
            assert np.array_equal(got, expected)
            assert np.array_equal(np.signbit(got), np.signbit(expected))


class TestComputeResidual:
    def test_exact_stems_leave_other(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        mix = exact_mix(stems)
        residual = compute_residual(mix, stems)
        np.testing.assert_array_equal(residual.samples, stems.other.samples)

    def test_silent_other_leaves_zeros(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        silent = replace(
            stems, other=stems.other.with_samples(np.zeros_like(stems.other.samples))
        )
        mix = exact_mix(silent)
        np.testing.assert_array_equal(compute_residual(mix, silent).samples, 0.0)

    def test_perturbed_stems_shift_residual(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        mix = exact_mix(stems)
        error = rng.normal(0, 0.001, stems.vocals.samples.shape)
        perturbed = StemSet(
            vocals=stems.vocals.with_samples(stems.vocals.samples + error / 3),
            drums=stems.drums.with_samples(stems.drums.samples + error / 3),
            bass=stems.bass.with_samples(stems.bass.samples + error / 3),
            other=stems.other,
        )
        residual = compute_residual(mix, perturbed)
        expected = stems.other.samples - error
        np.testing.assert_allclose(residual.samples, expected, rtol=0, atol=1e-12)

    def test_reconstruction_identity(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        mix = exact_mix(stems)
        residual = compute_residual(mix, stems)
        rebuilt = (
            residual.samples
            + stems.vocals.samples
            + stems.drums.samples
            + stems.bass.samples
        )
        np.testing.assert_array_equal(rebuilt, mix.samples)

    def test_misalignment_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        short_mix = make_buffer(np.zeros((2, 10)))
        with pytest.raises(AlignmentError):
            compute_residual(short_mix, stems)

    def test_overflow_names_the_stage(self):
        loud = make_buffer(np.full((2, 10), 1e308))
        stems = StemSet(vocals=loud.with_samples(-loud.samples), drums=loud, bass=loud, other=loud)
        with pytest.raises(ValueError, match="^the residual overflows float64$"):
            compute_residual(loud, stems)


class TestBlendOther:
    def test_equal_inputs_unchanged(self, rng):
        x = make_buffer(rng.normal(0, 0.1, (2, 100)))
        np.testing.assert_array_equal(blend_other(x, x).samples, x.samples)

    def test_overflow_names_the_stage(self):
        loud = make_buffer(np.full((2, 10), 1e308))
        with pytest.raises(ValueError, match="^the blend of other and residual overflows float64$"):
            blend_other(loud, loud)

    def test_zero_prediction_halves_residual(self, rng):
        residual = make_buffer(rng.normal(0, 0.1, (2, 100)))
        zeros = residual.with_samples(np.zeros_like(residual.samples))
        out = blend_other(zeros, residual)
        np.testing.assert_array_equal(out.samples, 0.5 * residual.samples)

    def test_error_halving_raises_other_sdr(self, rng):
        # exact v/d/b: the residual equals the true other, so blending turns
        # error n into n/2, i.e. a 10*log10(4) = 6.02 dB SDR improvement
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        noise = rng.normal(0, 0.01, stems.other.samples.shape)
        predicted = stems.other.with_samples(stems.other.samples + noise)
        residual = compute_residual(mix, stems)
        blended = blend_other(predicted, residual)
        np.testing.assert_allclose(
            blended.samples, stems.other.samples + noise / 2, rtol=0, atol=1e-12
        )
        improvement = (
            sdr(stems.other, blended).value - sdr(stems.other, predicted).value
        )
        assert improvement == pytest.approx(6.02, abs=0.1)

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
            min_size=1,
            max_size=32,
        ),
        st.lists(
            st.floats(min_value=-1e6, max_value=1e6, allow_subnormal=False),
            min_size=1,
            max_size=32,
        ),
    )
    def test_midpoint_property(self, a, b):
        n = min(len(a), len(b))
        p = make_buffer(np.array([a[:n]]))
        r = make_buffer(np.array([b[:n]]))
        out = blend_other(p, r)
        midpoint = (p.samples + r.samples) / 2
        assert np.max(np.abs(out.samples - midpoint)) == 0.0


class TestSalientSegments:
    def _four(self, vocals, drums, bass, other, rate=1000):
        return _stems_from_arrays(
            rate=rate, vocals=vocals, drums=drums, bass=bass, other=other
        )

    def test_silent_target_yields_nothing(self, rng):
        n = 4000
        loud = rng.normal(0, 0.1, (1, n))
        stems = self._four(np.zeros((1, n)), loud, loud, loud)
        assert salient_segments(stems, "vocals", 500, 0.1) == []

    def test_exclusive_target_fills_every_window(self, rng):
        n = 4000
        loud = rng.normal(0, 0.1, (1, n))
        stems = self._four(loud, np.zeros((1, n)), np.zeros((1, n)), np.zeros((1, n)))
        segments = salient_segments(stems, "vocals", 500, 0.1)
        assert [s.start for s in segments] == [0, 500, 1000, 1500, 2000, 2500, 3000, 3500]
        assert all(s.energy_ratio == 1.0 for s in segments)

    def test_first_half_only(self, rng):
        # target holds all its energy in the first half; elsewhere another
        # track dominates, driving the ratio to zero
        n = 4000
        first_half = np.zeros((1, n))
        first_half[:, : n // 2] = rng.normal(0, 0.5, (1, n // 2))
        background = np.zeros((1, n))
        background[:, n // 2 :] = rng.normal(0, 0.5, (1, n // 2))
        stems = self._four(first_half, background, np.zeros((1, n)), np.zeros((1, n)))
        segments = salient_segments(stems, "vocals", 500, 0.5)
        assert [s.start for s in segments] == [0, 500, 1000, 1500]

    def test_partial_trailing_window_ignored(self, rng):
        n = 1250
        loud = rng.normal(0, 0.1, (1, n))
        stems = self._four(loud, np.zeros((1, n)), np.zeros((1, n)), np.zeros((1, n)))
        segments = salient_segments(stems, "vocals", 500, 0.1)
        assert [s.start for s in segments] == [0, 500]

    def test_windows_never_overlap_and_deterministic(self, rng):
        stems = synth_stems(rng, seconds=0.5, rate=8000)
        a = salient_segments(stems, "drums", 800, 0.05)
        b = salient_segments(stems, "drums", 800, 0.05)
        assert a == b
        ends = [s.start + s.length for s in a]
        starts = [s.start for s in a]
        assert all(e <= s for e, s in zip(ends, starts[1:]))

    def test_silent_song_ratio_is_zero(self):
        n = 1000
        z = np.zeros((1, n))
        stems = self._four(z, z, z, z)
        assert salient_segments(stems, "vocals", 100, 0.0)  # ratio 0 >= threshold 0
        assert salient_segments(stems, "vocals", 100, 0.1) == []

    def test_unknown_track_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        with pytest.raises(ValueError, match="unknown track"):
            salient_segments(stems, "guitar", 100, 0.1)

    def test_bad_params_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        with pytest.raises(ValueError):
            salient_segments(stems, "vocals", 0, 0.1)
        with pytest.raises(ValueError):
            salient_segments(stems, "vocals", 100, 1.5)

    @pytest.mark.parametrize("frames", [2.5, 100.0, True, "100", 0, -100])
    def test_segment_frames_must_be_a_positive_integer(self, rng, frames):
        stems = synth_stems(rng, seconds=0.05)
        with pytest.raises(ValueError, match="^segment_frames must be a positive integer"):
            salient_segments(stems, "vocals", frames, 0.1)

    @pytest.mark.parametrize("threshold", ["0.5", None, True, float("nan")], ids=repr)
    def test_ratio_threshold_must_be_a_finite_number(self, rng, threshold):
        stems = synth_stems(rng, seconds=0.05)
        with pytest.raises(ValueError, match="^ratio_threshold must be a finite number"):
            salient_segments(stems, "vocals", 100, threshold)

    def test_numpy_integer_segment_frames_accepted(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        segments = salient_segments(stems, "vocals", np.int64(100), 0.0)
        assert [s.start for s in segments] == list(range(0, stems.n_frames - 99, 100))
        assert all(type(s.start) is int and type(s.length) is int for s in segments)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize(
        "segment_frames",
        [1, 100, _CHUNK_FRAMES - 1, _CHUNK_FRAMES, _CHUNK_FRAMES + 1, 3 * _CHUNK_FRAMES + 5],
    )
    def test_ratios_match_the_window_fsums(self, rng, segment_frames, order):
        _, (stems,) = random_stem_sets(rng, 4 * _CHUNK_FRAMES + 17, 1, order)
        n_windows = stems.n_frames // segment_frames
        energies = {}
        for name in TRACK_NAMES:
            squares = stems.track(name).samples ** 2
            energies[name] = [
                math.fsum(squares[:, i * segment_frames : (i + 1) * segment_frames].ravel())
                for i in range(n_windows)
            ]
        segments = salient_segments(stems, "drums", segment_frames, 0.0)
        assert [s.start for s in segments] == [i * segment_frames for i in range(n_windows)]
        for i, segment in enumerate(segments):
            total = math.fsum(energies[name][i] for name in TRACK_NAMES)
            expected = energies["drums"][i] / total if total > 0.0 else 0.0
            assert segment.energy_ratio == pytest.approx(expected, rel=1e-12, abs=0.0)

    def test_holds_no_song_sized_temporary(self, rng):
        _, (stems,) = random_stem_sets(rng, 3 * 44100, 1)
        segments, peak = peak_buffers(stems.vocals, salient_segments, stems, "vocals", 11025)
        assert len(segments) == 12
        assert peak <= 0.5

    def test_long_windows_hold_no_squared_copy(self, rng):
        # one 1 s window is a sixth of the 3 s stereo song: its per-frame
        # energies are the only window-sized array
        _, (stems,) = random_stem_sets(rng, 3 * 44100, 1)
        segments, peak = peak_buffers(stems.vocals, salient_segments, stems, "vocals", 44100, 0.0)
        assert len(segments) == 3
        assert peak <= 0.25


class TestProviders:
    def test_directory_round_trip(self, rng, tmp_path):
        stems = synth_stems(rng, seconds=0.05)
        write_stems_dir(stems, tmp_path / "stems")
        loaded = DirectoryStemProvider(tmp_path / "stems").stems()
        for name in ("vocals", "drums", "bass", "other"):
            assert_read_only(loaded.track(name))
            np.testing.assert_array_equal(
                loaded.track(name).samples, stems.track(name).samples
            )

    def test_directory_missing_file(self, rng, tmp_path):
        stems = synth_stems(rng, seconds=0.05)
        write_stems_dir(stems, tmp_path / "stems")
        (tmp_path / "stems" / "bass.wav").unlink()
        with pytest.raises(FileNotFoundError, match="bass"):
            DirectoryStemProvider(tmp_path / "stems").stems()

    @pytest.mark.parametrize(
        "bass, message",
        [
            (lambda b: b.with_samples(np.pad(b.samples, ((0, 0), (0, 1)))),
             "mixed lengths: 100 vs 101 frames"),
            (lambda b: AudioBuffer(b.samples, 48000), "mixed sample rates: 44100 vs 48000"),
        ],
        ids=["length", "rate"],
    )
    def test_directory_of_disagreeing_files_names_the_folder(self, rng, tmp_path, bass, message):
        stems = _stems_from_arrays(**{name: rng.normal(0, 0.1, (2, 100)) for name in TRACK_NAMES})
        folder = write_stems_dir(stems, tmp_path / "sep_2")
        write_wav(bass(stems.bass), folder / "bass.wav")
        with pytest.raises(AlignmentError, match=f"^{re.escape(str(folder))}: stems have {message}"):
            DirectoryStemProvider(folder).stems()

    def test_noisy_oracle_is_seeded(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        a = NoisyOracleStemProvider(stems, 10.0, seed=7).stems()
        b = NoisyOracleStemProvider(stems, 10.0, seed=7).stems()
        c = NoisyOracleStemProvider(stems, 10.0, seed=8).stems()
        np.testing.assert_array_equal(a.vocals.samples, b.vocals.samples)
        assert np.any(a.vocals.samples != c.vocals.samples)

    def test_noisy_oracle_hits_requested_snr(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        noisy = NoisyOracleStemProvider(stems, 10.0, seed=3).stems()
        for name in ("vocals", "drums", "bass", "other"):
            measured = sdr(stems.track(name), noisy.track(name)).value
            assert measured == pytest.approx(10.0, abs=0.3)

    def test_noisy_oracle_per_track_snr(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        snrs = {"vocals": 5.0, "drums": 15.0, "bass": 25.0, "other": 10.0}
        noisy = NoisyOracleStemProvider(stems, snrs, seed=3).stems()
        for name, target in snrs.items():
            measured = sdr(stems.track(name), noisy.track(name)).value
            assert measured == pytest.approx(target, abs=0.3)

    def test_noisy_oracle_leaves_silence_silent(self):
        n = 8000
        z = np.zeros((2, n))
        loud = np.ones((2, n)) * 0.1
        stems = _stems_from_arrays(vocals=z, drums=loud, bass=loud, other=loud)
        noisy = NoisyOracleStemProvider(stems, 10.0, seed=1).stems()
        np.testing.assert_array_equal(noisy.vocals.samples, 0.0)

    def test_provider_from_spec(self, rng, tmp_path):
        stems = synth_stems(rng, seconds=0.05)
        write_stems_dir(stems, tmp_path / "stems")
        assert isinstance(provider_from_spec("stems", tmp_path), DirectoryStemProvider)
        noisy = provider_from_spec(
            {"kind": "noisy_oracle", "path": "stems", "snr_db": 10.0, "seed": 2},
            tmp_path,
        )
        assert isinstance(noisy, NoisyOracleStemProvider)
        with pytest.raises(ValueError, match="kind"):
            provider_from_spec({"kind": "magic"}, tmp_path)
        with pytest.raises(ValueError, match="kind"):
            provider_from_spec({"kind": "oracle", "path": "stems"}, tmp_path)
        with pytest.raises(ValueError):
            provider_from_spec(42, tmp_path)

    def test_directory_kind_is_an_unknown_kind(self, rng, tmp_path):
        write_stems_dir(synth_stems(rng, seconds=0.05), tmp_path / "stems")
        with pytest.raises(ValueError, match="unknown stem provider kind 'directory'"):
            provider_from_spec({"kind": "directory", "path": "stems"}, tmp_path)

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"snr_db": {"vocals": 1.0, "bass": 1.0, "other": 1.0}}, r"snr_db map .*'vocals'"),
            (
                {"snr_db": {"vocals": 1, "drums": 1, "bass": 1, "other": 1, "piano": 1}},
                r"snr_db map .*'piano'",
            ),
            ({"snr_db": {"vocals": 1, "drums": "1", "bass": 1, "other": 1}}, r"snr_db\.drums"),
            ({"snr_db": {"vocals": 1, "drums": 1, "bass": True, "other": 1}}, r"snr_db\.bass"),
            ({"snr_db": None}, "snr_db must be"),
            ({"snr_db": [1, 2]}, "snr_db must be"),
            ({"snr_db": True}, "snr_db must be"),
            ({"snr_db": float("inf")}, "snr_db must be"),
            ({"snr_db": float("nan")}, "snr_db must be"),
            ({"snr_db": 10**400}, "snr_db must be"),
            ({"snr_db": {"vocals": 1, "drums": 1, "bass": 1, "other": 10**400}}, r"snr_db\.other"),
            ({"snr_db": 1e308}, r"^snr_db must have a power ratio .*, got 1e\+308$"),
            ({"snr_db": -1e308}, r"^snr_db must have a power ratio .*, got -1e\+308$"),
            ({"snr_db": -7000}, r"^snr_db must have a power ratio .*, got -7000\.0$"),
            ({"snr_db": {"vocals": 1, "drums": -7000, "bass": 1, "other": 1}},
             r"^snr_db\.drums must have a power ratio 10 \*\* \(snr_db\.drums / 10\)"),
            ({"seed": None}, "seed must be"),
            ({"seed": 1.5}, "seed must be"),
            ({"seed": 2.0}, "seed must be"),
            ({"seed": True}, "seed must be"),
            ({"seed": -1}, "seed must be"),
            ({"seed": "7"}, "seed must be"),
            ({"snr_db": DROP, "seed": DROP, "path": DROP}, r"missing \['path', 'snr_db', 'seed'\]"),
            ({"snr_db": DROP}, r"missing \['snr_db'\]"),
            ({"seed": DROP}, r"missing \['seed'\]"),
            ({"path": 3}, "path must be a string"),
        ],
        ids=[
            "map_missing_track", "map_extra_track", "map_string_value", "map_bool_value",
            "snr_null", "snr_list", "snr_bool", "snr_inf", "snr_nan",
            "snr_int_too_large", "map_int_too_large",
            "snr_ratio_overflows", "snr_ratio_underflows", "snr_ratio_zero", "map_ratio_zero",
            "seed_null", "seed_fraction", "seed_float", "seed_bool", "seed_negative",
            "seed_string", "missing_all", "missing_snr", "missing_seed", "path_not_string",
        ],
    )
    def test_bad_noisy_oracle_spec_names_the_field(self, rng, tmp_path, fields, match):
        write_stems_dir(synth_stems(rng, seconds=0.05), tmp_path / "stems")
        spec = {"kind": "noisy_oracle", "path": "stems", "snr_db": 10.0, "seed": 2}
        spec.update(fields)
        spec = {key: value for key, value in spec.items() if value is not DROP}
        with pytest.raises(ValueError, match=match):
            provider_from_spec(spec, tmp_path)

    @pytest.mark.parametrize(
        "peak, snr", [(1e100, -3080.0), (1e160, 10.0)], ids=["noise_power", "track_power"]
    )
    def test_noise_power_that_overflows_names_the_field(self, peak, snr):
        quiet, loud = np.full((2, 100), 0.1), np.full((2, 100), peak)
        stems = _stems_from_arrays(vocals=quiet, drums=loud, bass=quiet, other=quiet)
        provider = NoisyOracleStemProvider(stems, dict.fromkeys(TRACK_NAMES, snr), seed=1)
        message = r"^snr_db\.drums makes the drums track's noise power overflow float64$"
        with pytest.raises(ValueError, match=message):
            provider.stems()

    def test_noisy_oracle_accepts_numpy_scalars(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        a = NoisyOracleStemProvider(stems, np.float64(10.0), seed=np.int64(7)).stems()
        b = NoisyOracleStemProvider(stems, 10, seed=7).stems()
        np.testing.assert_array_equal(a.vocals.samples, b.vocals.samples)
