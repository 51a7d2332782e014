from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearmix import (
    SDR_CAP_DB,
    AlignmentError,
    evaluate_song,
    sdr,
)
from util import CHUNK_EDGES, make_buffer, peak_buffers, synth_stems


class TestSdr:
    def test_identical_signals_hit_cap(self, rng):
        x = make_buffer(rng.normal(0, 0.3, (2, 1000)))
        assert sdr(x, x).value == SDR_CAP_DB == 100.0

    def test_half_scale_closed_form(self, rng):
        # error is 0.5x, so ratio is 1/0.25: 10*log10(4) = 6.0206
        x = make_buffer(rng.normal(0, 0.3, (2, 1000)))
        half = x.with_samples(0.5 * x.samples)
        assert sdr(x, half).value == pytest.approx(6.0206, abs=0.01)

    def test_noise_at_known_power(self, rng):
        x = make_buffer(rng.normal(0, 0.3, (2, 40000)))
        noise = rng.normal(0, 1.0, x.samples.shape)
        # scale noise power to exactly 1% of the reference power
        ref_power = np.sum(x.samples**2)
        noise *= np.sqrt(0.01 * ref_power / np.sum(noise**2))
        noisy = x.with_samples(x.samples + noise)
        assert sdr(x, noisy).value == pytest.approx(20.0, abs=0.2)

    @settings(max_examples=60, deadline=None)
    @given(
        st.floats(min_value=0.05, max_value=3.0).filter(lambda g: abs(g - 1.0) > 1e-3)
    )
    def test_scale_family_closed_form(self, gain):
        rng = np.random.default_rng(7)
        x = make_buffer(rng.normal(0, 0.3, (1, 500)))
        scaled = x.with_samples(gain * x.samples)
        expected = -10.0 * np.log10((1.0 - gain) ** 2)
        assert sdr(x, scaled).value == pytest.approx(expected, abs=1e-6)

    def test_monotone_in_relative_error(self, rng):
        x = make_buffer(rng.normal(0, 0.3, (2, 500)))
        values = [
            sdr(x, x.with_samples(x.samples * (1 + eps))).value
            for eps in (1e-4, 1e-3, 1e-2, 1e-1)
        ]
        assert values == sorted(values, reverse=True)

    def test_channel_permutation_invariance(self, rng):
        ref = make_buffer(rng.normal(0, 0.3, (2, 500)))
        est = make_buffer(ref.samples + rng.normal(0, 0.03, (2, 500)))
        swapped = sdr(
            ref.with_samples(ref.samples[::-1]), est.with_samples(est.samples[::-1])
        )
        assert sdr(ref, est).value == pytest.approx(swapped.value, abs=1e-12)

    def test_low_cap(self, rng):
        x = make_buffer(np.full((1, 100), 1e-12))
        far = x.with_samples(np.full((1, 100), 1e6))
        assert sdr(x, far).value == -100.0

    def test_zero_reference_rejected(self, rng):
        zero = make_buffer(np.zeros((2, 100)))
        est = make_buffer(rng.normal(0, 0.1, (2, 100)))
        with pytest.raises(ValueError, match="all-zero"):
            sdr(zero, est)

    def test_misalignment_rejected(self, rng):
        a = make_buffer(rng.normal(0, 0.1, (2, 100)))
        b = make_buffer(rng.normal(0, 0.1, (2, 101)))
        with pytest.raises(AlignmentError):
            sdr(a, b)


class TestSdrChunks:
    """Powers summed chunk by chunk against the whole-array formula."""

    @pytest.mark.parametrize("n", CHUNK_EDGES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_the_whole_array_formula(self, rng, n, order):
        ref = np.array(rng.normal(0.0, 0.3, (2, n)), order=order)
        est = np.array(ref + rng.normal(0.0, 0.05, (2, n)), order=order)
        expected = 10.0 * np.log10(np.sum(ref**2) / np.sum((ref - est) ** 2))
        ours = sdr(make_buffer(ref), make_buffer(est)).value
        assert ours == pytest.approx(expected, rel=1e-12)

    def test_holds_no_song_sized_temporary(self, rng):
        ref = make_buffer(rng.normal(0.0, 0.3, (2, 3 * 44100)))
        est = ref.with_samples(0.9 * ref.samples)
        score, peak = peak_buffers(ref, sdr, ref, est)
        assert score.value == pytest.approx(20.0, abs=1e-9)
        assert peak <= 0.15


class TestEvaluateSong:
    def test_identical_inputs_all_capped(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        mix = make_buffer(rng.normal(0, 0.2, (2, stems.n_frames)))
        result = evaluate_song(mix, mix, stems, stems)
        assert result.overall_db == 100.0
        assert set(result.per_track_db) == {"vocals", "drums", "bass", "other"}
        assert all(v == 100.0 for v in result.per_track_db.values())

    def test_absent_stems_leave_per_track_empty(self, rng):
        mix = make_buffer(rng.normal(0, 0.2, (2, 500)))
        est = make_buffer(mix.samples * 0.9)
        result = evaluate_song(mix, est)
        assert result.per_track_db is None
        assert result.overall_db == pytest.approx(20.0, abs=0.01)

    def test_per_track_matches_direct_sdr(self, rng):
        truth = synth_stems(rng, seconds=0.2)
        noisy = synth_stems(np.random.default_rng(42), seconds=0.2)
        mix = make_buffer(rng.normal(0, 0.2, (2, truth.n_frames)))
        result = evaluate_song(mix, mix, truth, noisy)
        for name in ("vocals", "drums", "bass", "other"):
            direct = sdr(truth.track(name), noisy.track(name)).value
            assert result.per_track_db[name] == direct

    def test_one_sided_stems_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.05)
        mix = make_buffer(rng.normal(0, 0.2, (2, stems.n_frames)))
        with pytest.raises(ValueError, match="both"):
            evaluate_song(mix, mix, stems, None)
