from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.signal import bilinear, lfilter, sosfilt

from hearmix import (
    CLIP_TRIGGER_COUNT,
    ClipReport,
    CompressorParams,
    UndefinedLoudnessError,
    compress,
    count_clipped,
    integrated_loudness,
    normalize_to_loudness,
    should_compress,
)
from hearmix import levels
from util import make_buffer, sine_buffer

# the scan and running max may differ from the loops by float rounding only
ORACLE_TOL_DB = 1e-9


def reference_loudness(samples: np.ndarray, rate: int) -> float | None:
    """Straightforward gated-loudness implementation used as a test oracle.

    Built independently of the library path: analog K-weighting prototypes
    discretized with scipy.bilinear, per-block python loop, list-based
    gating. The plain bilinear transform (no prewarping) shifts the filter
    corners by well under 1 %, far inside the comparison tolerance.
    """
    # high shelf, normalized prototype (vh*s^2 + (vb/q)*w0*s + w0^2) over
    # (s^2 + (w0/q)*s + w0^2) with vh = 10^(G/20)
    f0, gain_db, q = 1681.9744509555319, 3.99984385397, 0.7071752369554193
    w0 = 2 * np.pi * f0
    vh = 10.0 ** (gain_db / 20.0)
    vb = vh**0.499666774155
    shelf = bilinear(
        [vh / w0**2, vb / (q * w0), 1.0], [1.0 / w0**2, 1.0 / (q * w0), 1.0], rate
    )
    f0, q = 38.13547087613982, 0.5003270373253953
    w0 = 2 * np.pi * f0
    highpass = bilinear([1.0, 0.0, 0.0], [1.0, w0 / q, w0**2], rate)

    weighted = np.stack(
        [lfilter(*highpass, lfilter(*shelf, ch)) for ch in samples]
    )
    block = int(round(0.4 * rate))
    hop = int(round(0.1 * rate))
    if weighted.shape[1] < block:
        return None
    powers = []
    start = 0
    while start + block <= weighted.shape[1]:
        seg = weighted[:, start : start + block]
        powers.append(float(np.sum(np.mean(seg**2, axis=1))))
        start += hop
    lufs = [-0.691 + 10 * np.log10(p) if p > 0 else -np.inf for p in powers]
    kept = [p for p, l in zip(powers, lufs) if l > -70.0]
    if not kept:
        return None
    gate = -0.691 + 10 * np.log10(np.mean(kept)) - 10.0
    final = [p for p, l in zip(powers, lufs) if l > -70.0 and l > gate]
    if not final:
        return None
    return -0.691 + 10 * np.log10(np.mean(final))


class TestIntegratedLoudness:
    def test_silence_is_undefined(self):
        silent = make_buffer(np.zeros((2, 44100)))
        result = integrated_loudness(silent)
        assert not result.is_defined
        assert result.value is None

    def test_997hz_calibration(self):
        tone = sine_buffer(997.0, 10.0)
        tone = tone.with_samples(np.stack([tone.samples[0], np.zeros(tone.n_frames)]))
        result = integrated_loudness(tone)
        assert result.value == pytest.approx(-3.01, abs=0.1)

    def test_scale_equivariance(self):
        tone = sine_buffer(997.0, 5.0, amplitude=0.5)
        base = integrated_loudness(tone).value
        scaled = integrated_loudness(
            tone.with_samples(tone.samples * 10 ** (-10 / 20))
        ).value
        assert base - scaled == pytest.approx(10.0, abs=0.05)

    def test_matches_independent_oracle(self, rng):
        for _ in range(3):
            n = int(3.0 * 44100)
            t = np.arange(n) / 44100
            program = np.stack(
                [
                    0.3 * np.sin(2 * np.pi * rng.uniform(100, 3000) * t)
                    + 0.05 * rng.normal(0, 1, n)
                    for _ in range(2)
                ]
            )
            # silence gaps exercise the gates
            program[:, n // 3 : n // 2] = 0.0
            buf = make_buffer(program)
            ours = integrated_loudness(buf).value
            ref = reference_loudness(buf.samples, 44100)
            assert ours == pytest.approx(ref, abs=0.05)

    def test_short_signal_is_undefined(self, rng):
        short = make_buffer(rng.normal(0, 0.1, (2, 4000)))  # < 400 ms
        assert not integrated_loudness(short).is_defined

    def test_rejects_low_sample_rate(self):
        buf = make_buffer(np.zeros((1, 8000)), rate=4000)
        with pytest.raises(ValueError, match="8 kHz"):
            integrated_loudness(buf)

    def test_quiet_signal_below_absolute_gate_is_undefined(self):
        tone = sine_buffer(997.0, 2.0, amplitude=1e-5)  # about -103 LUFS
        assert not integrated_loudness(tone).is_defined


class TestNormalizeToLoudness:
    def test_already_at_target_keeps_gain_near_one(self):
        tone = sine_buffer(997.0, 3.0, amplitude=0.25)
        target = integrated_loudness(tone).value
        out = normalize_to_loudness(tone, target)
        gain = out.samples[0, 1000] / tone.samples[0, 1000]
        assert abs(gain - 1.0) <= 1e-3

    def test_ten_lu_boost_is_sqrt_ten(self):
        # amplitude set so the meter reads about -23 LUFS
        amp = 10 ** ((-23.0 + 3.01) / 20)
        tone = sine_buffer(997.0, 3.0, amplitude=amp)
        tone = tone.with_samples(np.stack([tone.samples[0], np.zeros(tone.n_frames)]))
        out = normalize_to_loudness(tone, -13.0)
        gain = out.samples[0, 5000] / tone.samples[0, 5000]
        assert gain == pytest.approx(10 ** (10 / 20), rel=0.01)

    def test_hits_target_within_tenth_lu(self, rng):
        noise = make_buffer(0.1 * rng.normal(0, 1, (2, 3 * 44100)))
        # a quiet intro 9 dB under the body: at -63 LUFS the first gain
        # pushes the intro's blocks under the -70 LUFS absolute gate, which
        # drops them from the measurement and raises the loudness by ~1 LU
        intro = 0.1 * 10 ** (-9 / 20) * rng.normal(0, 1, (2, 44100))
        body = 0.1 * rng.normal(0, 1, (2, 2 * 44100))
        gate_crossing = make_buffer(np.concatenate([intro, body], axis=1))
        for program in (noise, gate_crossing):
            for target in (-30.0, -23.0, -13.0, -6.0, -63.0):
                out = normalize_to_loudness(program, target)
                assert integrated_loudness(out).value == pytest.approx(target, abs=0.1)

    def test_filters_the_signal_once(self, rng, monkeypatch):
        calls = []

        def counting_sosfilt(*args, **kwargs):
            calls.append(1)
            return sosfilt(*args, **kwargs)

        monkeypatch.setattr(levels, "sosfilt", counting_sosfilt)
        program = make_buffer(0.1 * rng.normal(0, 1, (2, 3 * 44100)))
        normalize_to_loudness(program, -23.0)
        assert len(calls) == 1

    def test_silence_rejected(self):
        silent = make_buffer(np.zeros((2, 44100)))
        with pytest.raises(UndefinedLoudnessError, match="undefined"):
            normalize_to_loudness(silent, -23.0)

    def test_output_is_single_scalar_times_input(self, rng):
        program = make_buffer(0.2 * rng.normal(0, 1, (2, 44100)))
        out = normalize_to_loudness(program, -20.0)
        mask = program.samples != 0.0
        ratios = out.samples[mask] / program.samples[mask]
        spread = np.max(ratios) - np.min(ratios)
        assert spread <= 1e-12 * np.abs(np.median(ratios))


class TestClipCounting:
    def test_in_range_counts_zero(self, rng):
        buf = make_buffer(rng.uniform(-0.999, 0.999, (2, 1000)))
        assert count_clipped(buf).per_channel == (0, 0)

    def test_exact_full_scale_counts(self):
        left = np.zeros(30_000)
        left[:25_000] = 1.0
        buf = make_buffer(np.stack([left, np.zeros_like(left)]))
        assert count_clipped(buf).per_channel == (25_000, 0)
        assert CLIP_TRIGGER_COUNT == 25_000

    def test_negative_full_scale_counts(self):
        left = np.zeros(30_000)
        left[:24_999] = -1.0
        buf = make_buffer(np.stack([left, np.zeros_like(left)]))
        assert count_clipped(buf).per_channel == (24_999, 0)

    def test_channel_swap_swaps_counts(self, rng):
        samples = rng.uniform(-1.2, 1.2, (2, 5000))
        forward = count_clipped(make_buffer(samples))
        swapped = count_clipped(make_buffer(samples[::-1]))
        assert forward.per_channel == swapped.per_channel[::-1]


class TestShouldCompress:
    @pytest.mark.parametrize(
        "counts,expected",
        [
            ((0, 0), False),
            ((25_000, 0), True),
            ((0, 25_000), True),
            ((24_999, 24_999), False),
            ((30_000, 30_000), True),
        ],
    )
    def test_threshold_semantics(self, counts, expected):
        assert should_compress(ClipReport(per_channel=counts)) is expected


class TestCompressor:
    def test_params_validation(self):
        with pytest.raises(ValueError):
            CompressorParams(ratio=0.5)
        with pytest.raises(ValueError):
            CompressorParams(attack_ms=0.0)
        with pytest.raises(ValueError):
            CompressorParams(release_ms=-1.0)

    def test_below_threshold_is_identity(self, rng):
        buf = make_buffer(rng.uniform(-0.4, 0.4, (2, 20_000)))
        out = compress(buf, CompressorParams(threshold_db=-6.0))
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_static_curve_on_full_scale_sine(self):
        # threshold -6 dBFS, ratio 6: a 0 dBFS peak settles at -6 + 6/6 = -5 dBFS
        tone = sine_buffer(1000.0, 1.0, amplitude=1.0)
        out = compress(tone, CompressorParams(threshold_db=-6.0, ratio=6.0))
        middle = out.samples[:, out.n_frames // 2 :]
        peak_db = 20 * np.log10(np.max(np.abs(middle)))
        assert peak_db == pytest.approx(-5.0, abs=0.5)

    def test_safety_clip_bounds_output(self, rng):
        buf = make_buffer(rng.normal(0, 4.0, (2, 30_000)))
        out = compress(buf)
        assert np.max(np.abs(out.samples)) <= 1.0

    def test_ratio_one_is_identity_up_to_clip(self, rng):
        buf = make_buffer(rng.uniform(-2.0, 2.0, (2, 10_000)))
        out = compress(buf, CompressorParams(ratio=1.0))
        np.testing.assert_array_equal(out.samples, np.clip(buf.samples, -1.0, 1.0))

    def test_stereo_linked_gain(self):
        # loud left channel must duck the quiet right channel identically
        left = sine_buffer(500.0, 0.5, amplitude=1.0, channels=1).samples[0]
        right = 0.01 * left
        buf = make_buffer(np.stack([left, right]))
        out = compress(buf, CompressorParams(threshold_db=-6.0, ratio=6.0))
        mask = np.abs(left) > 1e-6
        gain_left = out.samples[0, mask] / left[mask]
        gain_right = out.samples[1, mask] / right[mask]
        np.testing.assert_allclose(gain_left, gain_right, rtol=1e-9)

    def test_scaling_down_never_raises_output(self):
        tone = sine_buffer(800.0, 0.6, amplitude=1.0)
        params = CompressorParams(threshold_db=-10.0, ratio=4.0)
        reference = compress(tone, params)
        for c in (0.8, 0.5, 0.2):
            scaled = compress(tone.with_samples(tone.samples * c), params)
            assert np.all(
                np.abs(scaled.samples) <= np.abs(reference.samples) + 1e-6
            )



def peak_detector_loop(level: np.ndarray, alpha: float) -> np.ndarray:
    """Test oracle: the standard peak detector y = max(x, alpha*y), one
    sample at a time (Giannoulis, Massberg & Reiss, JAES 2012)."""
    envelope = np.empty_like(level)
    state = 0.0
    for i, value in enumerate(level.tolist()):
        state = max(value, alpha * state)
        envelope[i] = state
    return envelope


def smoother_loop(target_db: np.ndarray, attack_alpha: float, release_alpha: float) -> np.ndarray:
    """Test oracle: the attack/release one-pole gain smoother, one sample at a
    time, switching to attack when the target lies below the state."""
    smoothed = np.empty_like(target_db)
    state = 0.0
    for i, value in enumerate(target_db.tolist()):
        alpha = attack_alpha if value < state else release_alpha
        state = alpha * state + (1.0 - alpha) * value
        smoothed[i] = state
    return smoothed


def compressor_loop(samples, rate, params):
    """Test oracle: the compressor's gain in dB, built from the two loops."""
    attack_alpha = math.exp(-1.0 / (rate * params.attack_ms / 1000.0))
    release_alpha = math.exp(-1.0 / (rate * params.release_ms / 1000.0))
    envelope = peak_detector_loop(np.max(np.abs(samples), axis=0), release_alpha)
    over_db = 20.0 * np.log10(np.maximum(envelope, 1e-12)) - params.threshold_db
    target_db = np.where(over_db > 0.0, (1.0 / params.ratio - 1.0) * over_db, 0.0)
    return smoother_loop(target_db, attack_alpha, release_alpha)


def _white_noise(rng):
    return rng.normal(0.0, 0.5, (2, 20_000))


def _sustained_tone(rng):
    return sine_buffer(440.0, 0.5, amplitude=1.2).samples


def _burst_then_silence(rng):
    # the gain recovers at the release rate through the silence
    burst = rng.normal(0.0, 0.8, (2, 4_000))
    return np.concatenate([burst, np.zeros((2, 20_000))], axis=1)


def _noise_of_length(n):
    return lambda rng: rng.normal(0.0, 0.6, (2, n))


_B = levels._SCAN_BLOCK
ORACLE_INPUTS = {
    "white_noise": _white_noise,
    "sustained_tone": _sustained_tone,
    "burst_then_silence": _burst_then_silence,
    **{f"noise_{n}": _noise_of_length(n) for n in (0, 1, _B - 1, _B, _B + 1)},
}
ORACLE_PARAMS = {
    "default": CompressorParams(),
    # a window of 264 samples keeps the scan's exp(cumsum(log a)) finite
    "fast": CompressorParams(threshold_db=-12.0, ratio=4.0, attack_ms=0.01, release_ms=0.05),
    # both coefficients underflow to 0: the output follows the static curve
    "instant": CompressorParams(attack_ms=1e-5, release_ms=1e-5),
}


class TestCompressorOracles:
    """The running max and the blockwise scan against the per-sample loops."""

    @pytest.mark.parametrize("make", ORACLE_INPUTS.values(), ids=ORACLE_INPUTS.keys())
    @pytest.mark.parametrize("params", ORACLE_PARAMS.values(), ids=ORACLE_PARAMS.keys())
    def test_detector_matches_loop(self, rng, make, params):
        samples = make(rng)
        release_log = -1.0 / (44100 * params.release_ms / 1000.0)
        level = np.max(np.abs(samples), axis=0)
        expected = 20.0 * np.log10(np.maximum(peak_detector_loop(level, math.exp(release_log)), 1e-12))
        level_db = 20.0 * np.log10(np.maximum(level, 1e-12))
        ours = levels._peak_envelope_db(level_db, release_log)
        np.testing.assert_allclose(ours, expected, rtol=0.0, atol=ORACLE_TOL_DB)

    @pytest.mark.parametrize("make", ORACLE_INPUTS.values(), ids=ORACLE_INPUTS.keys())
    @pytest.mark.parametrize("params", ORACLE_PARAMS.values(), ids=ORACLE_PARAMS.keys())
    def test_smoother_matches_loop(self, rng, make, params):
        samples = make(rng)
        attack_log = -1.0 / (44100 * params.attack_ms / 1000.0)
        release_log = -1.0 / (44100 * params.release_ms / 1000.0)
        # a target that dips and recovers at many rates, with ties at 0 dB
        target = np.minimum(0.0, -20.0 * np.abs(samples[0]) + 6.0)
        expected = smoother_loop(target, math.exp(attack_log), math.exp(release_log))
        ours = levels._smooth_gain_db(target.copy(), attack_log, release_log)
        np.testing.assert_allclose(ours, expected, rtol=0.0, atol=ORACLE_TOL_DB)

    @pytest.mark.parametrize("make", ORACLE_INPUTS.values(), ids=ORACLE_INPUTS.keys())
    @pytest.mark.parametrize("params", ORACLE_PARAMS.values(), ids=ORACLE_PARAMS.keys())
    def test_compress_matches_loops(self, rng, make, params):
        samples = make(rng)
        gain_db = compressor_loop(samples, 44100, params)
        expected = np.clip(samples * 10.0 ** (gain_db / 20.0), -1.0, 1.0)
        out = compress(make_buffer(samples), params).samples
        # ORACLE_TOL_DB of gain is a relative amplitude error of 1.2e-10;
        # the clip can only shrink a difference
        assert np.all(np.abs(out - expected) <= 1.2e-10 * np.abs(samples))

    def test_envelope_never_below_the_current_level(self, rng):
        # a frame just under the held state: the loop that decayed to
        # alpha*state whenever x <= state dropped below x here
        level = np.concatenate([[1.0, 1.0 - 1e-7], rng.uniform(0.01, 1.0, 20_000)])
        level_db = 20.0 * np.log10(level)
        ours = levels._peak_envelope_db(level_db.copy(), -1.0 / (44100 * 0.1))
        assert np.all(ours >= level_db)
