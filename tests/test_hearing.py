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
from hearmix import hearing
from util import convolution_lengths, flat_listener, make_buffer, response_db, sine_buffer

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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_requires_finite_frequencies(self, bad):
        # NaN passes both the positive and the ascending check
        freqs = (bad, 500.0, 1000.0, 2000.0) if np.isnan(bad) else (500.0, 1000.0, 2000.0, bad)
        with pytest.raises(ValueError, match="frequencies must be finite"):
            Audiogram(freqs, (0.0,) * 4)

    def test_requires_entries(self):
        with pytest.raises(ValueError, match="must not be empty"):
            Audiogram((), ())

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

    @pytest.mark.parametrize(
        "raw",
        [
            b"{",
            b"\xff\xfe{}",
            b'{"id": "L", "frequencies": [NaN, 500, 1000, 2000], '
            b'"left_db_hl": [1, 2, 3, 4], "right_db_hl": [1, 2, 3, 4]}',
            b'{"id": "L", "frequencies": [500, 1000, 2000], '
            b'"left_db_hl": [1, 2, 3], "right_db_hl": [1, Infinity, 3]}',
            b'{"id": "L", "frequencies": ' + b"[" * 200_000,
        ],
        ids=["bad_json", "not_utf8", "nan_frequency", "infinity_level", "deep_nesting"],
    )
    def test_undecodable_file_names_the_file(self, tmp_path, raw):
        path = tmp_path / "broken_listener.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="broken_listener.json"):
            load_listener(path)

    @pytest.mark.parametrize(
        "field, number",
        [
            ("left_db_hl", "1" + "0" * 400),
            ("right_db_hl", "1e999"),
            ("right_db_hl", "-1e999"),
            ("frequencies", "-" + "9" * 400),
        ],
        ids=["left_400_digits", "right_1e999", "right_minus_1e999", "frequency_400_digits"],
    )
    def test_number_out_of_range_names_file_and_field(self, tmp_path, field, number):
        doc = {
            "id": "L",
            "frequencies": [250, 500, 1000, 2000],
            "left_db_hl": [1, 2, 3, 4],
            "right_db_hl": [1, 2, 3, 4],
        }
        text = json.dumps({**doc, field: ["NUMBER", 500, 1000, 2000]})
        path = tmp_path / "range_listener.json"
        path.write_text(text.replace('"NUMBER"', number))
        with pytest.raises(ValueError, match=rf"range_listener\.json: .*{field} must be a finite number"):
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

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_taps(self, bad):
        with pytest.raises(ValueError, match="taps must be finite"):
            FirFilter(np.array([0.0, bad, 0.0]), 44100)

    def test_delay(self):
        assert _delta_filter(141).delay == 70

    MAKERS = {
        "FirFilter": lambda rate: FirFilter(np.ones(3), rate),
        "design_nalr_fir": lambda rate: design_nalr_fir((250.0, 4000.0), (10.0, 20.0), 141, rate),
    }

    @pytest.mark.parametrize("rate", [44100.5, 44100.0, "44100", True, 0, -44100])
    @pytest.mark.parametrize("make", MAKERS)
    def test_rate_must_be_a_positive_integer(self, make, rate):
        with pytest.raises(ValueError, match="^sample_rate must be a positive integer"):
            self.MAKERS[make](rate)

    @pytest.mark.parametrize("make", MAKERS)
    def test_numpy_integer_rate_accepted(self, make):
        fir = self.MAKERS[make](np.int32(44100))
        assert type(fir.sample_rate) is int and fir.sample_rate == 44100


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

    def test_unequal_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal length"):
            design_nalr_fir(AUDIOMETRIC_FREQUENCIES, np.zeros(5), 141)

    @pytest.mark.parametrize("rate", [100, 400, 520])
    def test_rate_with_no_anchor_below_nyquist_rejected(self, rate):
        # 0.95 x Nyquist stays below the 250 Hz anchor up to about 526 Hz
        gains = nalr_insertion_gains(FLAT_60)
        with pytest.raises(ValueError, match=rf"^sample_rate {rate} Hz .* the lowest is 250 Hz$"):
            design_nalr_fir(AUDIOMETRIC_FREQUENCIES, gains, 141, rate)

    def test_gains_past_float64_rejected(self):
        # 10**(7000/20) overflows to inf, and the filter refuses the taps
        with pytest.raises(ValueError, match="^taps must be finite$"):
            design_nalr_fir(AUDIOMETRIC_FREQUENCIES, np.full(6, 7000.0), 141, 44100)

    def test_lowest_rate_with_an_anchor_designs(self):
        gains = nalr_insertion_gains(FLAT_60)
        fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, gains, 141, 530)
        assert np.all(np.isfinite(fir.taps))

    @pytest.mark.parametrize(
        "anchors, rule",
        [
            ((0.0, 500.0, 1000.0, 2000.0), "positive"),
            ((-250.0, 500.0, 1000.0, 2000.0), "positive"),
            ((250.0, 1000.0, 500.0, 2000.0), "strictly ascending"),
            ((250.0, 500.0, 500.0, 2000.0), "strictly ascending"),
            ((np.nan, 500.0, 1000.0, 2000.0), "finite"),
            ((250.0, 500.0, 1000.0, np.inf), "finite"),
        ],
        ids=["zero", "negative", "descending", "repeated", "nan", "inf"],
    )
    @pytest.mark.parametrize("gains", [(10.0, 20.0, 30.0, 40.0), (0.0,) * 4], ids=["gain", "flat"])
    def test_anchors_follow_the_audiogram_rule(self, anchors, rule, gains):
        # the same check as an audiogram's, before any design or shortcut
        with pytest.raises(ValueError, match=rf"^frequencies must be {rule}, got \["):
            design_nalr_fir(anchors, gains, 141)
        with pytest.raises(ValueError, match=rf"^audiogram frequencies must be {rule}, got \["):
            Audiogram(anchors, gains)


def _design_panel() -> list[Audiogram]:
    """Clinical shapes, then sloping ears drawn as the benchmark draws its
    mild and severe listeners: a base level at 250 Hz, a slope per octave
    and +-2 dB of jitter per frequency."""
    clinical = [(60.0,) * 6, (90.0,) * 6, (30, 40, 50, 60, 70, 80), (20, 30, 40, 50, 60, 60),
                (10, 15, 20, 30, 35, 40), (50, 60, 70, 80, 90, 95), (40, 40, 40, 40, 80, 120)]
    ears = [Audiogram(AUDIOMETRIC_FREQUENCIES, levels) for levels in clinical]
    octaves = np.log2(np.array(AUDIOMETRIC_FREQUENCIES) / 250.0)
    for seed in range(1, 7):
        rng = np.random.default_rng(seed)
        for base, slope in (((12.0, 16.0), (1.0, 2.0)), ((42.0, 46.0), (8.5, 9.5))):
            levels = rng.uniform(*base) + rng.uniform(*slope) * octaves + rng.uniform(-2, 2, 6)
            ears.append(Audiogram(AUDIOMETRIC_FREQUENCIES, tuple(np.round(levels, 1))))
    return ears


class TestDesignPanel:
    @pytest.mark.parametrize(
        "n_taps, rate", [(141, 44100), (141, 48000), (101, 44100), (301, 44100), (1025, 44100)]
    )
    def test_realizable_designs_land_on_the_prescription(self, n_taps, rate):
        for ear in _design_panel():
            gains = nalr_insertion_gains(ear)
            fir = design_nalr_fir(ear.frequencies, gains, n_taps, rate)
            error = response_db(fir.taps, ear.frequencies, rate) - gains
            assert np.max(np.abs(error)) <= 1e-6, ear.levels_db_hl

    @pytest.mark.parametrize(
        "anchors, levels, n_taps, rate, loop_error_db",
        [
            # the last figure is the largest anchor error of the 12-step
            # pre-correction loop that the one-solve design replaced
            (AUDIOMETRIC_FREQUENCIES, (30, 40, 50, 60, 70, 80), 65, 44100, 11.54),
            (AUDIOMETRIC_FREQUENCIES, (30, 40, 50, 60, 70, 80), 65, 96000, 22.63),
            (AUDIOMETRIC_FREQUENCIES, (30, 40, 50, 60, 70, 80), 141, 96000, 11.40),
            ((500.0, 500.5, 1000.0, 2000.0), (0, 100, 50, 50), 141, 44100, 27.95),
        ],
        ids=["65-taps", "65-taps-96k", "141-taps-96k", "close-anchors"],
    )
    def test_unrealizable_designs_stay_bounded(self, anchors, levels, n_taps, rate, loop_error_db):
        ear = Audiogram(anchors, levels)
        gains = nalr_insertion_gains(ear)
        fir = design_nalr_fir(anchors, gains, n_taps, rate)
        assert np.all(np.isfinite(fir.taps))
        peak = np.max(response_db(fir.taps, np.linspace(0.0, rate / 2, 8193), rate))
        assert peak <= gains.max() + 3.0
        error = response_db(fir.taps, anchors, rate) - gains
        assert np.max(np.abs(error)) < loop_error_db

    @pytest.mark.parametrize("gain", [300.0, 1000.0, 3000.0, 6000.0, 6500.0, 20000.0])
    def test_huge_flat_gains_design_or_fail_typed(self, gain):
        # the design runs at a 0 dB peak, so only the last scale can overflow:
        # past 10**(gain/20) = 1.8e308 the taps are refused, never a LinAlgError
        if gain / 20.0 < np.log10(np.finfo(np.float64).max):
            fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, np.full(6, gain), 141, 44100)
            error = response_db(fir.taps, AUDIOMETRIC_FREQUENCIES, 44100) - gain
            assert np.max(np.abs(error)) <= 1e-6
        else:
            with pytest.raises(ValueError, match="^taps must be finite$"):
                design_nalr_fir(AUDIOMETRIC_FREQUENCIES, np.full(6, gain), 141, 44100)


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
        # a dense 259-tap filter runs the blocked FFT overlap-add path
        x = make_buffer(rng.normal(0, 0.3, (2, 5000)))
        taps = rng.normal(0, 0.1, 259)
        fir = FirFilter(0.5 * (taps + taps[::-1]), 44100)
        out = apply_fir(x, fir)
        for ch in range(2):
            direct = np.convolve(x.samples[ch], fir.taps)[fir.delay : fir.delay + 5000]
            np.testing.assert_allclose(
                out.samples[ch], direct, rtol=0, atol=1e-12 * np.max(np.abs(direct))
            )

    @pytest.mark.parametrize("n_taps", [65, 141, 383, 1025])
    def test_matches_direct_convolution_at_block_edges(self, rng, n_taps):
        taps = rng.normal(0, 0.1, n_taps)
        fir = FirFilter(0.5 * (taps + taps[::-1]), 44100)
        for n in convolution_lengths(n_taps):
            x = make_buffer(rng.normal(0, 0.3, (2, n)))
            out = apply_fir(x, fir)
            for ch in range(2):
                direct = np.convolve(x.samples[ch], fir.taps)[fir.delay : fir.delay + n]
                np.testing.assert_allclose(
                    out.samples[ch], direct, rtol=0, atol=1e-12 * np.max(np.abs(direct))
                )

    @pytest.mark.parametrize("n_taps", [65, 2049])
    @pytest.mark.parametrize("n", [1, 100, 5000])
    def test_centred_delta_is_an_exact_scale_at_any_length(self, rng, n_taps, n):
        x = make_buffer(rng.normal(0, 0.3, (2, n)))
        out = apply_fir(x, _delta_filter(n_taps, value=-0.75))
        np.testing.assert_array_equal(out.samples, x.samples * -0.75)

    def test_all_zero_filter_gives_exact_zeros(self, rng):
        x = make_buffer(rng.normal(0, 0.3, (2, 5000)))
        out = apply_fir(x, FirFilter(np.zeros(141), 44100))
        np.testing.assert_array_equal(out.samples, np.zeros_like(x.samples))

    def test_one_filter_per_channel(self, rng):
        x = make_buffer(rng.normal(0, 0.3, (2, 5000)))
        taps = rng.normal(0, 0.1, (2, 141))
        firs = [FirFilter(0.5 * (t + t[::-1]), 44100) for t in taps]
        out = apply_fir(x, firs)
        for ch, fir in enumerate(firs):
            alone = apply_fir(make_buffer(x.samples[ch : ch + 1]), fir)
            np.testing.assert_array_equal(out.samples[ch], alone.samples[0])

    def test_filter_count_must_match_channels(self, rng):
        x = make_buffer(rng.normal(0, 0.3, (2, 100)))
        with pytest.raises(ValueError, match="1 filters for 2 channel"):
            apply_fir(x, [_delta_filter()])

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

    @pytest.mark.parametrize("one_tap", [False, True], ids=["dense", "one_tap"])
    def test_output_past_float64_rejected(self, rng, one_tap):
        taps = 1e10 * (np.eye(1, 65, 32)[0] if one_tap else np.hanning(65))
        loud = make_buffer(1e300 * rng.normal(0.0, 1.0, (2, 1000)))
        with pytest.raises(ValueError, match="^samples contain NaN or Inf$"):
            apply_fir(loud, FirFilter(taps, 44100))

    def test_rate_mismatch_rejected(self, rng):
        x = make_buffer(rng.normal(0, 0.1, (1, 100)), rate=48000)
        with pytest.raises(ValueError, match="rate"):
            apply_fir(x, _delta_filter(rate=44100))


class TestNalrProcess:
    def test_normal_hearing_is_transparent(self, rng):
        x = make_buffer(rng.normal(0, 0.2, (2, 4000)))
        out = nalr_process(x, flat_listener(0.0))
        np.testing.assert_array_equal(out.samples, x.samples)

    def test_normal_hearing_is_transparent_at_2049_taps(self, rng):
        x = make_buffer(rng.normal(0, 0.2, (2, 4000)))
        out = nalr_process(x, flat_listener(0.0), n_taps=2049)
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


MILD = Audiogram(AUDIOMETRIC_FREQUENCIES, (10.0, 15.0, 20.0, 30.0, 35.0, 40.0))
SEVERE = Audiogram(AUDIOMETRIC_FREQUENCIES, (50.0, 60.0, 70.0, 80.0, 90.0, 95.0))


class TestNalrDesignCache:
    @pytest.mark.parametrize("n_taps", [141, 301])
    @pytest.mark.parametrize(
        "listener",
        [Listener("zero", ZERO, ZERO), Listener("mild", MILD, FLAT_60), Listener("severe", SEVERE, MILD)],
        ids=lambda listener: listener.id,
    )
    def test_matches_an_uncached_design(self, rng, listener, n_taps):
        x = make_buffer(rng.normal(0, 0.1, (2, 3000)))
        expected = []
        for ch, ear in enumerate((listener.left, listener.right)):
            fir = design_nalr_fir(ear.frequencies, nalr_insertion_gains(ear), n_taps, 44100)
            expected.append(apply_fir(make_buffer(x.samples[ch : ch + 1]), fir).samples[0])
        for _ in range(2):  # the second pass is served from the cache
            out = nalr_process(x, listener, n_taps)
            np.testing.assert_array_equal(out.samples, expected)

    def test_cached_taps_are_read_only(self):
        fir = hearing._nalr_fir(MILD, 141, 44100)
        with pytest.raises(ValueError, match="read-only"):
            fir.taps[fir.delay] = 0.0
        assert hearing._nalr_fir(MILD, 141, 44100) is fir

    def test_equal_audiograms_share_one_design(self, monkeypatch):
        calls = []
        real = hearing.design_nalr_fir
        monkeypatch.setattr(
            hearing, "design_nalr_fir", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        hearing._nalr_fir.cache_clear()
        x = make_buffer(np.zeros((2, 500)))
        twin = Audiogram(tuple(MILD.frequencies), tuple(MILD.levels_db_hl))
        nalr_process(x, Listener("a", MILD, SEVERE))
        nalr_process(x, Listener("b", twin, SEVERE))
        nalr_process(x, Listener("c", SEVERE, twin), n_taps=201)
        assert len(calls) == 4  # (MILD, 141), (SEVERE, 141), (SEVERE, 201), (MILD, 201)

    def test_public_designer_is_not_cached(self):
        first = design_nalr_fir(MILD.frequencies, nalr_insertion_gains(MILD))
        second = design_nalr_fir(MILD.frequencies, nalr_insertion_gains(MILD))
        assert first.taps is not second.taps
        first.taps[0] = 0.0  # a caller's own design stays writeable
