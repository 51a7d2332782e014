from __future__ import annotations

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
)
from util import exact_mix, make_buffer, quantize, synth_stems, write_stems_dir


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


class TestBlendOther:
    def test_equal_inputs_unchanged(self, rng):
        x = make_buffer(rng.normal(0, 0.1, (2, 100)))
        np.testing.assert_array_equal(blend_other(x, x).samples, x.samples)

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


class TestProviders:
    def test_directory_round_trip(self, rng, tmp_path):
        stems = synth_stems(rng, seconds=0.05)
        write_stems_dir(stems, tmp_path / "stems")
        loaded = DirectoryStemProvider(tmp_path / "stems").stems()
        for name in ("vocals", "drums", "bass", "other"):
            np.testing.assert_array_equal(
                loaded.track(name).samples, stems.track(name).samples
            )

    def test_directory_missing_file(self, rng, tmp_path):
        stems = synth_stems(rng, seconds=0.05)
        write_stems_dir(stems, tmp_path / "stems")
        (tmp_path / "stems" / "bass.wav").unlink()
        with pytest.raises(FileNotFoundError, match="bass"):
            DirectoryStemProvider(tmp_path / "stems").stems()

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
        assert isinstance(
            provider_from_spec({"kind": "directory", "path": "stems"}, tmp_path),
            DirectoryStemProvider,
        )
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
