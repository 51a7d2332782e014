from __future__ import annotations

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hearmix import (
    AUDIOMETRIC_FREQUENCIES,
    Audiogram,
    FirFilter,
    Listener,
    apply_fir,
    design_nalr_fir,
    load_listener,
    nalr_insertion_gains,
    nalr_process,
)
from util import flat_listener, make_buffer, response_db, sine_buffer

FLAT_60 = Audiogram(AUDIOMETRIC_FREQUENCIES, (60.0,) * 6)
ZERO = Audiogram(AUDIOMETRIC_FREQUENCIES, (0.0,) * 6)


def _delta_filter(n_taps=141, value=1.0, rate=44100):
    taps = np.zeros(n_taps)
    taps[(n_taps - 1) // 2] = value
    return FirFilter(taps, rate)


class TestAudiogram:
    def test_requires_core_frequencies(self):
        with pytest.raises(ValueError, match="1000"):
            Audiogram((250.0, 500.0, 2000.0), (10.0, 10.0, 10.0))

    def test_requires_ascending(self):
        with pytest.raises(ValueError, match="ascending"):
            Audiogram((500.0, 2000.0, 1000.0), (0.0, 0.0, 0.0))

    def test_requires_equal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            Audiogram((500.0, 1000.0, 2000.0), (0.0, 0.0))

    def test_requires_finite_levels(self):
        with pytest.raises(ValueError, match="finite"):
            Audiogram((500.0, 1000.0, 2000.0), (0.0, np.nan, 0.0))

    def test_level_at(self):
        assert FLAT_60.level_at(1000.0) == 60.0
        with pytest.raises(KeyError):
            FLAT_60.level_at(750.0)


class TestListenerFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "listener.json"
        path.write_text(
            json.dumps(
                {
                    "id": "L001",
                    "frequencies": [250, 500, 1000, 2000, 4000, 6000],
                    "left_db_hl": [10, 10, 20, 30, 40, 45],
                    "right_db_hl": [5, 10, 15, 25, 35, 40],
                }
            )
        )
        listener = load_listener(path)
        assert listener.id == "L001"
        assert listener.left.level_at(2000.0) == 30.0
        assert listener.right.level_at(250.0) == 5.0

    @pytest.mark.parametrize(
        "doc",
        [
            {"frequencies": [500, 1000, 2000], "left_db_hl": [1, 2, 3], "right_db_hl": [1, 2, 3]},
            {"id": "L", "frequencies": [500, 1000, 2000], "left_db_hl": [1, 2, 3]},
            {"id": "L", "frequencies": 1000, "left_db_hl": [1], "right_db_hl": [1]},
            {"id": "L", "frequencies": [500, 1000, 2000], "left_db_hl": [1, None, 3],
             "right_db_hl": [1, 2, 3]},
            ["not", "an", "object"],
        ],
    )
    def test_malformed_file_names_the_file(self, tmp_path, doc):
        path = tmp_path / "listener.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="listener.json"):
            load_listener(path)

    @pytest.mark.parametrize("raw", [b"{", b"\xff\xfe{}"], ids=["bad_json", "not_utf8"])
    def test_undecodable_file_names_the_file(self, tmp_path, raw):
        path = tmp_path / "broken_listener.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="broken_listener.json"):
            load_listener(path)


class TestInsertionGains:
    def test_no_loss_prescribes_nothing(self):
        np.testing.assert_array_equal(nalr_insertion_gains(ZERO), 0.0)

    def test_flat_60(self):
        # X = 0.05*180 = 9; slope 0.31*60 = 18.6; plus corrections
        gains = nalr_insertion_gains(FLAT_60)
        np.testing.assert_allclose(
            gains, [10.6, 19.6, 28.6, 26.6, 25.6, 25.6], atol=1e-12
        )

    def test_single_frequency_loss(self):
        audiogram = Audiogram(AUDIOMETRIC_FREQUENCIES, (0, 0, 0, 40, 0, 0))
        gains = nalr_insertion_gains(audiogram)
        # X = 2; 2000 Hz: 2 + 12.4 - 1; 250 Hz clamps at zero
        np.testing.assert_allclose(gains, [0.0, 0.0, 3.0, 13.4, 0.0, 0.0], atol=1e-12)

    def test_correction_interpolates_in_log_frequency(self):
        audiogram = Audiogram((250.0, 500.0, 750.0, 1000.0, 2000.0), (60.0,) * 5)
        gains = nalr_insertion_gains(audiogram)
        # C(750) = -8 + (log(750/500)/log(1000/500)) * 9 = -2.7353...
        x = 0.05 * 180.0
        expected_750 = x + 0.31 * 60.0 + (-8.0 + np.log(1.5) / np.log(2.0) * 9.0)
        assert gains[2] == pytest.approx(expected_750, abs=1e-9)
        assert expected_750 == pytest.approx(24.865, abs=1e-3)

    def test_correction_clamps_outside_table(self):
        audiogram = Audiogram((125.0, 500.0, 1000.0, 2000.0, 8000.0), (60.0,) * 5)
        gains = nalr_insertion_gains(audiogram)
        x_plus_slope = 0.05 * 180.0 + 0.31 * 60.0
        assert gains[0] == pytest.approx(x_plus_slope - 17.0, abs=1e-12)
        assert gains[-1] == pytest.approx(x_plus_slope - 2.0, abs=1e-12)

    def test_gains_never_negative(self, rng):
        for _ in range(50):
            levels = tuple(rng.uniform(-10, 110, 6))
            gains = nalr_insertion_gains(Audiogram(AUDIOMETRIC_FREQUENCIES, levels))
            assert np.all(gains >= 0.0)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.floats(min_value=-10, max_value=110), min_size=6, max_size=6),
        st.integers(min_value=0, max_value=5),
        st.floats(min_value=0.1, max_value=40.0),
    )
    def test_raising_loss_never_lowers_gain(self, levels, index, bump):
        base = Audiogram(AUDIOMETRIC_FREQUENCIES, tuple(levels))
        raised_levels = list(levels)
        raised_levels[index] += bump
        raised = Audiogram(AUDIOMETRIC_FREQUENCIES, tuple(raised_levels))
        g0 = nalr_insertion_gains(base)
        g1 = nalr_insertion_gains(raised)
        assert np.all(g1 >= g0 - 1e-12)


class TestFirFilter:
    def test_rejects_even_length(self):
        with pytest.raises(ValueError, match="odd"):
            FirFilter(np.zeros(140), 44100)

    def test_rejects_asymmetric(self):
        taps = np.zeros(5)
        taps[0] = 1.0
        with pytest.raises(ValueError, match="symmetric"):
            FirFilter(taps, 44100)

    def test_delay(self):
        assert _delta_filter(141).delay == 70


class TestDesignNalrFir:
    def test_flat_60_hits_prescription_within_1db(self):
        gains = nalr_insertion_gains(FLAT_60)
        fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, gains, 141, 44100)
        measured = response_db(fir.taps, AUDIOMETRIC_FREQUENCIES, 44100)
        assert np.max(np.abs(measured - gains)) <= 1.0

    def test_various_audiograms_within_1db(self):
        for levels in [(30, 40, 50, 60, 70, 80), (20, 30, 40, 50, 60, 60), (90,) * 6]:
            audiogram = Audiogram(AUDIOMETRIC_FREQUENCIES, levels)
            gains = nalr_insertion_gains(audiogram)
            fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, gains, 141, 44100)
            measured = response_db(fir.taps, AUDIOMETRIC_FREQUENCIES, 44100)
            assert np.max(np.abs(measured - gains)) <= 1.0, levels

    def test_zero_prescription_is_flat_and_impulse_like(self):
        fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, np.zeros(6), 141, 44100)
        grid = np.linspace(100.0, 16000.0, 400)
        deviation = response_db(fir.taps, grid, 44100)
        assert np.max(np.abs(deviation)) <= 0.5
        expected = np.zeros(141)
        expected[70] = 1.0
        np.testing.assert_array_equal(fir.taps, expected)

    def test_taps_are_exactly_symmetric(self):
        gains = nalr_insertion_gains(FLAT_60)
        fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, gains, 141, 44100)
        np.testing.assert_array_equal(fir.taps, fir.taps[::-1])

    def test_even_taps_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            design_nalr_fir(AUDIOMETRIC_FREQUENCIES, np.zeros(6), 140, 44100)

    def test_too_few_taps_rejected(self):
        with pytest.raises(ValueError, match="65"):
            design_nalr_fir(AUDIOMETRIC_FREQUENCIES, np.zeros(6), 63, 44100)

    def test_nonfinite_gains_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            design_nalr_fir(AUDIOMETRIC_FREQUENCIES, [0, 0, 0, np.inf, 0, 0], 141)


class TestApplyFir:
    def test_unit_impulse_is_identity(self, rng):
        x = make_buffer(rng.normal(0, 0.3, (2, 5000)))
        out = apply_fir(x, _delta_filter())
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_half_impulse_scales(self, rng):
        x = make_buffer(rng.normal(0, 0.3, (2, 5000)))
        out = apply_fir(x, _delta_filter(value=0.5))
        np.testing.assert_array_equal(out.samples, x.samples * 0.5)

    def test_long_filter_matches_direct_convolution(self, rng):
        # 259 taps is past the direct-convolution cut-over, so this runs
        # the overlap-add path
        x = make_buffer(rng.normal(0, 0.3, (2, 5000)))
        taps = rng.normal(0, 0.1, 259)
        fir = FirFilter(0.5 * (taps + taps[::-1]), 44100)
        out = apply_fir(x, fir)
        for ch in range(2):
            direct = np.convolve(x.samples[ch], fir.taps)[fir.delay : fir.delay + 5000]
            np.testing.assert_allclose(
                out.samples[ch], direct, rtol=0, atol=1e-12 * np.max(np.abs(direct))
            )

    def test_sine_gain_matches_prescription(self):
        gains = nalr_insertion_gains(FLAT_60)
        fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, gains, 141, 44100)
        tone = sine_buffer(1000.0, 1.0, amplitude=0.001, channels=1)
        out = apply_fir(tone, fir)
        middle = slice(tone.n_frames // 3, 2 * tone.n_frames // 3)
        ratio = np.max(np.abs(out.samples[0, middle])) / np.max(
            np.abs(tone.samples[0, middle])
        )
        assert 20 * np.log10(ratio) == pytest.approx(gains[2], abs=1.0)

    def test_linearity(self, rng):
        gains = nalr_insertion_gains(FLAT_60)
        fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, gains, 141, 44100)
        x = make_buffer(rng.normal(0, 0.1, (2, 4000)))
        y = make_buffer(rng.normal(0, 0.1, (2, 4000)))
        a, b = 0.7, -1.3
        combined = apply_fir(x.with_samples(a * x.samples + b * y.samples), fir)
        separate = a * apply_fir(x, fir).samples + b * apply_fir(y, fir).samples
        scale = np.max(np.abs(separate))
        np.testing.assert_allclose(combined.samples, separate, rtol=0, atol=1e-9 * scale)

    def test_compensated_group_delay_is_zero(self, rng):
        gains = nalr_insertion_gains(FLAT_60)
        fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, gains, 141, 44100)
        noise = make_buffer(rng.normal(0, 0.1, (1, 8000)))
        out = apply_fir(noise, fir)
        lags = np.arange(-20, 21)
        xc = [
            np.sum(noise.samples[0, 100:-100] * np.roll(out.samples[0], -lag)[100:-100])
            for lag in lags
        ]
        assert lags[int(np.argmax(xc))] == 0

    def test_rate_mismatch_rejected(self, rng):
        x = make_buffer(rng.normal(0, 0.1, (1, 100)), rate=48000)
        with pytest.raises(ValueError, match="rate"):
            apply_fir(x, _delta_filter(rate=44100))


class TestNalrProcess:
    def test_normal_hearing_is_transparent(self, rng):
        x = make_buffer(rng.normal(0, 0.2, (2, 4000)))
        out = nalr_process(x, flat_listener(0.0))
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_asymmetric_listener(self, rng):
        x = make_buffer(rng.normal(0, 0.05, (2, 44100)))
        listener = Listener("asym", FLAT_60, ZERO)
        out = nalr_process(x, listener)
        left_gain_db = 10 * np.log10(
            np.sum(out.samples[0] ** 2) / np.sum(x.samples[0] ** 2)
        )
        right_gain_db = 10 * np.log10(
            np.sum(out.samples[1] ** 2) / np.sum(x.samples[1] ** 2)
        )
        assert left_gain_db >= 10.0
        assert abs(right_gain_db) <= 1.0

    def test_swapped_ears_swap_channels(self, rng):
        x = make_buffer(rng.normal(0, 0.05, (2, 8000)))
        forward = nalr_process(x, Listener("a", FLAT_60, ZERO))
        swapped_input = x.with_samples(x.samples[::-1])
        swapped = nalr_process(swapped_input, Listener("b", ZERO, FLAT_60))
        np.testing.assert_array_equal(swapped.samples[::-1], forward.samples)

    def test_mono_rejected(self, rng):
        x = make_buffer(rng.normal(0, 0.05, (1, 1000)))
        with pytest.raises(ValueError, match="stereo"):
            nalr_process(x, flat_listener(0.0))
