from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
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
from hearmix import audio, levels
from hearmix.audio import _CHUNK_FRAMES, _chunks, _segment_sums, _song_span
from util import CHUNK_EDGES, SPAN_EDGES, assert_read_only, make_buffer, sine_buffer

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


def each_block_summed_alone(samples, rate):
    """The meter's block powers with each block's K-weighted squares summed
    on their own, after one whole-song filter pass: the oracle of
    ``levels._block_powers``."""
    block = int(round(0.4 * rate))
    hop = int(round(0.1 * rate))
    if samples.shape[1] < block:
        return None
    weighted = sosfilt(levels._k_weighting_sos(rate), samples, axis=1)
    weighted *= weighted
    blocks = sliding_window_view(weighted, block, axis=1)[:, ::hop]
    return blocks.sum(axis=2).sum(axis=0) / block


# (rate, length) cases of the block powers. At 11025 Hz a block (4410
# frames) is not four hops (4 x 1102). At 8 kHz a block is 3200 frames, so
# every length from one chunk up holds blocks; from 16 chunks up the
# signal is walked in ``_song_span`` spans of n // 16 frames, capped at
# four chunks: at 16 chunks + 4321 a span is not a whole chunk, and from
# 64 chunks up every span but the last is four whole chunks.
LONG_LENGTHS = tuple(k * _CHUNK_FRAMES + extra for k in (16, 64) for extra in (0, 4321))
BLOCK_POWER_CASES = [
    (rate, length)
    for rate in (44100, 11025)
    for length in ("block-1", "block", "block+1", "block+hop", "silent_first_block")
] + [(8000, n) for n in CHUNK_EDGES + LONG_LENGTHS]


class TestBlockPowers:
    """The span-wise segment sums against each block summed on its own."""

    @pytest.mark.parametrize(
        "rate, length", BLOCK_POWER_CASES, ids=[f"{l}-{r}" for r, l in BLOCK_POWER_CASES]
    )
    @pytest.mark.parametrize("channels", [1, 2])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_each_block_summed_alone(self, rng, rate, length, channels, order):
        block, hop = int(round(0.4 * rate)), int(round(0.1 * rate))
        n = {
            "block-1": block - 1,
            "block": block,
            "block+1": block + 1,
            "block+hop": block + hop,
            "silent_first_block": block + 2 * hop,
        }.get(length, length)
        samples = np.array(rng.normal(0.0, 0.2, (channels, n)), order=order)
        samples[:, ::13] = -0.0
        samples[:, : block if length == "silent_first_block" else hop] = 0.0
        ours = levels._block_powers(samples, rate)
        oracle = each_block_summed_alone(samples, rate)
        if n < block:
            assert ours is None and oracle is None
            return
        np.testing.assert_allclose(ours, oracle, rtol=1e-12, atol=0.0)
        assert np.array_equal(np.signbit(ours), np.signbit(oracle))
        if length == "silent_first_block":
            assert ours[0] == 0.0

    @pytest.mark.parametrize("seconds", [30, 300])
    def test_a_quiet_block_keeps_its_digits_after_loud_ones(self, rng, seconds):
        # stereo noise whose second half is 60 dB quieter: a running energy
        # of the whole song lost about 1e-7 of each quiet block at 30 s
        samples = rng.normal(0.0, 0.2, (2, seconds * 8000))
        samples[:, samples.shape[1] // 2 :] *= 1e-3
        ours = levels._block_powers(samples, 8000)
        np.testing.assert_allclose(
            ours, each_block_summed_alone(samples, 8000), rtol=1e-12, atol=0.0
        )

    def test_holds_one_buffer(self, rng):
        buffer = make_buffer(rng.normal(0.0, 0.2, (2, 3 * 44100)))
        tracemalloc.start()
        try:
            integrated_loudness(buffer)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # beside the input only one span is filtered, squared and summed in
        # place at a time, plus block-sized arrays: 0.07 on 3 s, where a
        # span is 1/16 of the song
        assert peak / buffer.samples.nbytes <= 0.1


def piece_by_piece_powers(samples: np.ndarray, rate: int, exponent: int = 0) -> np.ndarray:
    """The block powers of ``samples * 2**-exponent`` with one ``sosfilt``
    call and one ``_segment_sums`` per piece of whole ``_song_span`` spans
    (as many as fit in 1/10 of the song), over all rows at once: the bits
    that the meter keeps whether its rows split or not."""
    block, hop = int(round(0.4 * rate)), int(round(0.1 * rate))
    starts = np.arange(0, samples.shape[1] - block + 1, hop)
    edges = np.union1d(starts, starts + block)
    sos = levels._k_weighting_sos(rate)
    end = int(edges[-1])
    span = _song_span(end)
    zi = np.zeros((sos.shape[0], samples.shape[0], 2))
    sums = np.zeros(edges.size)
    for frames in _chunks(end, span * max(1, end // (10 * span))):
        x = samples[:, frames]
        if exponent:
            x = np.ldexp(x, -exponent)
        weighted, zi = sosfilt(sos, x, axis=1, zi=zi)
        where, part = _segment_sums(edges, frames, weighted * weighted)
        sums[where] += part
    bounds = np.searchsorted(edges, np.stack((starts, starts + block), axis=1).ravel())
    return np.add.reduceat(sums, bounds)[::2] / block


class TestPiecesOfSpans:
    """The meter filters and sums several spans per call and keeps the
    bits of one call per piece over all rows, split over two threads or not."""

    # 720,000 frames at 8 kHz: two 32768-frame spans a piece; 30 s at
    # 44.1 kHz: four
    CASES = [(8000, 90, 2), (44100, 30, 4)]

    @pytest.mark.parametrize("rate, seconds, spans", CASES, ids=["8k-90s", "44k-30s"])
    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_call", "split"])
    def test_same_bits_as_piece_by_piece(self, monkeypatch, rng, rate, seconds, spans, cpus):
        monkeypatch.setattr(audio, "_cpu_count", lambda: cpus)
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1].shape)
            return sosfilt(*args, **kwargs)

        monkeypatch.setattr(levels, "sosfilt", counted)
        samples = rng.normal(0.0, 0.2, (2, rate * seconds))
        samples[:, samples.shape[1] // 2 :] *= 1e-3  # a quiet half
        ours = levels._block_powers(samples, rate)
        assert ours.tobytes() == piece_by_piece_powers(samples, rate).tobytes()
        # each row block's calls hold ``spans`` spans each, but its last
        lengths = [shape[1] for shape in calls]
        assert lengths.count(spans * 32768) == len(lengths) - cpus
        assert {shape[0] for shape in calls} == {2 // cpus}

    @pytest.mark.parametrize("cpus", [1, 2], ids=["one_call", "split"])
    def test_overflow_exponent(self, monkeypatch, rng, cpus):
        # K-weighted squares of a song at 1e300 overflow float64, so the
        # meter measures it at an exact power-of-two scale
        monkeypatch.setattr(audio, "_cpu_count", lambda: cpus)
        samples = 1e300 * rng.normal(0.0, 0.2, (2, 720_000))
        powers, exponent = levels._measure(samples, 8000)
        assert exponent > 0
        assert powers.tobytes() == piece_by_piece_powers(samples, 8000, exponent).tobytes()


# 0.5 s of stereo noise at peak 0.5: two loudness blocks
_HALF_SCALE = np.random.default_rng(7).normal(0.0, 1.0, (2, 22050))
_HALF_SCALE *= 0.5 / np.abs(_HALF_SCALE).max()


class TestLoudnessScaleLaw:
    """A signal scaled by 2**k reads 20*k*log10(2) dB louder and still
    normalizes to the target, up to the largest finite scale. From k = 507
    its K-weighted energy overflows float64, so it is measured at an exact
    power-of-two scale; a numpy warning is an error in this suite."""

    @settings(max_examples=12, deadline=None)
    @given(k=st.integers(0, 1022))
    @example(k=507)
    @example(k=512)
    @example(k=1022)
    def test_powers_of_two(self, k):
        base = integrated_loudness(make_buffer(_HALF_SCALE)).value
        scaled = make_buffer(np.ldexp(_HALF_SCALE, k))
        assert integrated_loudness(scaled).value == pytest.approx(
            base + 20.0 * k * math.log10(2.0), rel=0.0, abs=1e-9
        )
        out = normalize_to_loudness(scaled, -23.0)
        assert integrated_loudness(out).value == pytest.approx(-23.0, rel=0.0, abs=1e-9)


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
        filtered = []

        def counting_sosfilt(sos, x, *args, **kwargs):
            filtered.append(x.size)
            return sosfilt(sos, x, *args, **kwargs)

        monkeypatch.setattr(levels, "sosfilt", counting_sosfilt)
        program = make_buffer(0.1 * rng.normal(0, 1, (2, 3 * 44100)))
        normalize_to_loudness(program, -23.0)
        # the spans passed to the filter cover every sample once, whether
        # the channels are filtered together or apart
        assert sum(filtered) == program.samples.size

    @pytest.mark.parametrize(
        "silent_s, quiet_s, rise_db", [(0, 4, 12.0), (3, 1, 14.0)], ids=["crossing", "silence"]
    )
    @pytest.mark.parametrize("target", [-20.0, 3500.0, 6000.0])
    def test_reaches_targets_past_float64_powers(self, rng, target, silent_s, quiet_s, rise_db):
        # quiet seconds under the -70 LUFS absolute gate, then one louder:
        # every target lifts them over it. Above about 3000 LUFS the scaled
        # block powers leave float64, so the gain is re-solved against the
        # gate moved down by the gain, which silent blocks stay under:
        # counted, they would lower the relative gate below the quiet blocks
        quiet = 10 ** (-80 / 20) * rng.normal(0, 1, (2, quiet_s * 44100))
        loud = 10 ** (rise_db / 20) * quiet[:, :44100]
        silence = np.zeros((2, silent_s * 44100))
        program = make_buffer(np.concatenate([silence, quiet, loud], axis=1))
        out = normalize_to_loudness(program, target)
        assert integrated_loudness(out).value == pytest.approx(target, rel=0.0, abs=1e-9)

    def test_a_result_past_float64_rejected(self, rng):
        # the gain overflows to inf, and the output buffer refuses it
        program = make_buffer(0.1 * rng.normal(0, 1, (2, 44100)))
        with pytest.raises(ValueError, match="^samples contain NaN or Inf$"):
            normalize_to_loudness(program, 7000.0)

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


    @pytest.mark.parametrize("n", CHUNK_EDGES)
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_chunked_count_matches_the_whole_channel_formula(self, rng, n, order):
        samples = np.array(rng.uniform(-1.5, 1.5, (2, n)), order=order)
        samples[0, ::5] = 1.0
        samples[1, ::9] = -1.0
        expected = tuple(int(np.count_nonzero(np.abs(ch) >= 1.0)) for ch in samples)
        counts = count_clipped(make_buffer(samples)).per_channel
        assert counts == expected
        assert all(type(c) is int for c in counts)  # reports serialize them as JSON


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

    @pytest.mark.parametrize("field", ["threshold_db", "ratio", "attack_ms", "release_ms"])
    @pytest.mark.parametrize(
        "value", [float("nan"), float("inf"), float("-inf"), "x", "1", None, True], ids=repr
    )
    def test_params_must_be_finite(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CompressorParams(**{field: value})

    @pytest.mark.parametrize("threshold_db", [-1e307, -1e100, 1e307])
    @pytest.mark.parametrize("ratio", [6.0, 1e308])
    @pytest.mark.parametrize("attack_ms", [1e-320, 0.01, 5.0, 1e308])
    @pytest.mark.parametrize("release_ms", [1e-320, 0.05, 100.0, 1e308])
    def test_extreme_finite_params_run_warning_free(
        self, rng, threshold_db, ratio, attack_ms, release_ms
    ):
        # any warning fails the test: the suite turns warnings into errors
        buf = make_buffer(rng.normal(0, 0.5, (2, 1_000)))
        params = CompressorParams(threshold_db, ratio, attack_ms, release_ms)
        out = compress(buf, params).samples
        assert np.all(np.isfinite(out)) and np.max(np.abs(out)) <= 1.0

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


def _pure_tone(rng):
    # attack and release alternate within every cycle, for many blocks
    return sine_buffer(440.0, 3.0, amplitude=1.0).samples


def _long_runs(rng):
    # a swell over three solve blocks and its decay over three more: one
    # attack run and one release run, each much longer than a block
    rise = np.linspace(0.0, 1.5, 3 * levels._SOLVE_BLOCK)
    swell = np.concatenate([rise, rise[::-1]])
    return np.stack([swell, 0.5 * swell])


_B = levels._SOLVE_BLOCK
ORACLE_INPUTS = {
    "white_noise": _white_noise,
    "sustained_tone": _sustained_tone,
    "pure_tone": _pure_tone,
    "burst_then_silence": _burst_then_silence,
    "long_runs": _long_runs,
    **{f"noise_{n}": _noise_of_length(n) for n in (0, 1, _B - 1, _B, _B + 1, 2 * _B + 17)},
}
# chunk and span ends, where the compressor carries its held level and state
SPAN_INPUTS = {f"noise_{n}": _noise_of_length(n) for n in CHUNK_EDGES + SPAN_EDGES}
ORACLE_PARAMS = {
    "default": CompressorParams(),
    # 0.1/1 ms: the choices switch within a few samples, and a block of
    # 2,646 samples keeps the solve's exp(cumsum(log a)) finite
    "snappy": CompressorParams(attack_ms=0.1, release_ms=1.0),
    # a block of 264 samples keeps the solve's exp(cumsum(log a)) finite
    "fast": CompressorParams(threshold_db=-12.0, ratio=4.0, attack_ms=0.01, release_ms=0.05),
    # both coefficients underflow to 0: the output follows the static curve
    "instant": CompressorParams(attack_ms=1e-5, release_ms=1e-5),
    # equal nonzero coefficients: the attack/release choice changes nothing
    "equal": CompressorParams(attack_ms=20.0, release_ms=20.0),
}


class TestCompressorOracles:
    """The running max and the blockwise fixed point against the per-sample loops."""

    @pytest.mark.parametrize("make", ORACLE_INPUTS.values(), ids=ORACLE_INPUTS.keys())
    @pytest.mark.parametrize("params", ORACLE_PARAMS.values(), ids=ORACLE_PARAMS.keys())
    def test_detector_matches_loop(self, rng, make, params):
        samples = make(rng)
        release_log = -1.0 / (44100 * params.release_ms / 1000.0)
        level = np.max(np.abs(samples), axis=0)
        expected = 20.0 * np.log10(np.maximum(peak_detector_loop(level, math.exp(release_log)), 1e-12))
        ours = detector_in_spans(samples, release_log)
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
        ours, state = target.copy(), 0.0
        for frames in _chunks(ours.size, _song_span(ours.size)):
            state = levels._smooth_gain_db(ours[frames], attack_log, release_log, state)
        np.testing.assert_allclose(ours, expected, rtol=0.0, atol=ORACLE_TOL_DB)

    @pytest.mark.parametrize(
        "make", [*ORACLE_INPUTS.values(), *SPAN_INPUTS.values()],
        ids=[*ORACLE_INPUTS.keys(), *(f"span_{name}" for name in SPAN_INPUTS)],
    )
    @pytest.mark.parametrize("params", ORACLE_PARAMS.values(), ids=ORACLE_PARAMS.keys())
    def test_compress_matches_loops(self, rng, make, params):
        samples = make(rng)
        gain_db = compressor_loop(samples, 44100, params)
        expected = np.clip(samples * 10.0 ** (gain_db / 20.0), -1.0, 1.0)
        for order in "CF":  # the spans are views of either memory order
            compressed = compress(make_buffer(np.asarray(samples, order=order)), params)
            assert_read_only(compressed)
            out = compressed.samples
            # ORACLE_TOL_DB of gain is a relative amplitude error of 1.2e-10;
            # the clip can only shrink a difference
            assert np.all(np.abs(out - expected) <= 1.2e-10 * np.abs(samples))

    def test_envelope_never_below_the_current_level(self, rng):
        # a frame just under the held state: the loop that decayed to
        # alpha*state whenever x <= state dropped below x here
        level = np.concatenate([[1.0, 1.0 - 1e-7], rng.uniform(0.01, 1.0, 20_000)])
        ours = detector_in_spans(level[np.newaxis], -1.0 / (44100 * 0.1))
        assert np.all(ours >= 20.0 * np.log10(level))

    @pytest.mark.parametrize(
        "make, params",
        [(_white_noise, ORACLE_PARAMS["snappy"]), (_pure_tone, ORACLE_PARAMS["snappy"]),
         (_pure_tone, ORACLE_PARAMS["default"]), (_pure_tone, ORACLE_PARAMS["instant"])],
        ids=["noise-snappy", "tone-snappy", "tone-default", "tone-instant"],
    )
    def test_smoother_solves_a_few_times_per_block(self, rng, monkeypatch, make, params):
        # the scan restarted at every wrong attack/release guess, which a
        # tone or a short attack makes every few samples
        samples = make(rng)
        solved = _count_solves(monkeypatch, samples, params)
        assert len(solved) * 256 <= samples.shape[1]

    @pytest.mark.parametrize("make", [_white_noise, _pure_tone], ids=["noise", "tone"])
    @pytest.mark.parametrize("params", ["instant", "equal"])
    def test_equal_coefficients_solve_no_block(self, rng, monkeypatch, make, params):
        # with one coefficient there are no choices to settle: the whole
        # signal is one lfilter call
        samples = make(rng)
        assert _count_solves(monkeypatch, samples, ORACLE_PARAMS[params]) == []


def _count_solves(monkeypatch, samples, params) -> list[int]:
    """The size of each block the smoother solves in computing the compressor's gain."""
    solve, solved = levels._solve_block, []

    def counting_solve(target, *args):
        solved.append(target.size)
        return solve(target, *args)

    monkeypatch.setattr(levels, "_solve_block", counting_solve)
    levels._compress_in_place(samples.copy(), 44100, params)
    return solved


def detector_in_spans(samples: np.ndarray, release_log: float) -> np.ndarray:
    """The detector's envelope in dB, walked in ``_song_span`` spans with
    the held level carried from span to span, as the compressor walks it."""
    n_frames = samples.shape[1]
    envelope, held = np.empty(n_frames), -240.0
    for frames in _chunks(n_frames, _song_span(n_frames)):
        held = levels._peak_envelope_db(samples[:, frames], release_log, held, envelope[frames])
    return envelope


@pytest.mark.parametrize("n", CHUNK_EDGES)
@pytest.mark.parametrize("release_ms", [1e-5, 0.05, 100.0])
def test_chunked_detector_matches_the_loop(rng, n, release_ms):
    # the held envelope carries across chunk edges; at 1e-5 ms the decay
    # is capped at the levels' range, 240 dB per sample here
    samples = rng.uniform(-1.5, 1.5, (2, n))
    samples[:, ::7] = 0.0  # frames at the -240 dB floor
    release_log = -1.0 / (44100 * release_ms / 1000.0)
    level = np.max(np.abs(samples), axis=0)
    expected = 20.0 * np.log10(np.maximum(peak_detector_loop(level, math.exp(release_log)), 1e-12))
    ours = detector_in_spans(samples, release_log)
    np.testing.assert_allclose(ours, expected, rtol=0.0, atol=ORACLE_TOL_DB)
