from __future__ import annotations

import numpy as np
import pytest

from hearmix import (
    AudioBuffer,
    CrosstalkKernel,
    apply_crosstalk,
    identity_kernel,
    load_kernel,
    write_wav,
)
from util import make_buffer, synth_stems, exact_mix


def _random_kernel(rng, length, rate=44100):
    responses = rng.normal(0, 0.2, (4, length)) * np.exp(
        -np.arange(length) / (length / 4)
    )
    return CrosstalkKernel(*responses, sample_rate=rate)


class TestKernel:
    def test_rejects_unequal_lengths(self):
        with pytest.raises(ValueError, match="equal length"):
            CrosstalkKernel(
                np.ones(4), np.ones(4), np.ones(4), np.ones(5), sample_rate=44100
            )

    def test_rejects_nonfinite(self):
        bad = np.array([1.0, np.nan])
        with pytest.raises(ValueError):
            CrosstalkKernel(bad, np.ones(2), np.ones(2), np.ones(2), sample_rate=44100)

    def test_identity_kernel_shape(self):
        kernel = identity_kernel(44100, length=8)
        assert kernel.length == 8
        assert kernel.h_ll[0] == 1.0 and np.all(kernel.h_rl == 0.0)


class TestApplyCrosstalk:
    def test_identity_kernel_is_transparent(self, rng):
        buf = make_buffer(rng.normal(0, 0.2, (2, 3000)))
        out = apply_crosstalk(buf, identity_kernel(44100))
        np.testing.assert_array_equal(out.samples, buf.samples)

    def test_swap_kernel_swaps_channels(self, rng):
        buf = make_buffer(rng.normal(0, 0.2, (2, 3000)))
        impulse = np.array([1.0])
        silent = np.array([0.0])
        swap = CrosstalkKernel(silent, impulse, impulse, silent, sample_rate=44100)
        out = apply_crosstalk(buf, swap)
        np.testing.assert_array_equal(out.samples, buf.samples[::-1])

    def test_half_sum_kernel(self, rng):
        buf = make_buffer(rng.normal(0, 0.2, (2, 3000)))
        half = np.array([0.5])
        diffuse = CrosstalkKernel(half, half, half, half, sample_rate=44100)
        out = apply_crosstalk(buf, diffuse)
        expected = 0.5 * (buf.samples[0] + buf.samples[1])
        np.testing.assert_array_equal(out.samples[0], expected)
        np.testing.assert_array_equal(out.samples[1], expected)

    def test_output_keeps_input_length(self, rng):
        buf = make_buffer(rng.normal(0, 0.2, (2, 1000)))
        out = apply_crosstalk(buf, _random_kernel(rng, 300))
        assert out.n_frames == 1000

    def test_linearity(self, rng):
        kernel = _random_kernel(rng, 200)
        x = make_buffer(rng.normal(0, 0.2, (2, 2000)))
        y = make_buffer(rng.normal(0, 0.2, (2, 2000)))
        a, b = 1.7, -0.4
        combined = apply_crosstalk(x.with_samples(a * x.samples + b * y.samples), kernel)
        separate = (
            a * apply_crosstalk(x, kernel).samples
            + b * apply_crosstalk(y, kernel).samples
        )
        scale = np.max(np.abs(separate))
        np.testing.assert_allclose(
            combined.samples, separate, rtol=0, atol=1e-9 * scale
        )

    def test_superposition_over_stems(self, rng):
        # crosstalking the mix must equal summing crosstalked stems: this is
        # what makes training on crosstalked stems legitimate
        stems = synth_stems(rng, seconds=0.2)
        mix = exact_mix(stems)
        for length in (64, 500):  # direct and overlap-add paths
            kernel = _random_kernel(rng, length)
            whole = apply_crosstalk(mix, kernel).samples
            parts = sum(
                apply_crosstalk(stems.track(name), kernel).samples
                for name in ("vocals", "drums", "bass", "other")
            )
            np.testing.assert_allclose(
                whole, parts, rtol=0, atol=1e-9 * np.max(np.abs(parts))
            )

    def test_overlap_add_matches_direct(self, rng):
        # long kernels take the block-transform path; results must agree
        # with plain convolution
        signal = rng.normal(0, 0.3, 4000)
        kernel = rng.normal(0, 0.1, 333)
        buf = make_buffer(np.stack([signal, np.zeros_like(signal)]))
        k = CrosstalkKernel(
            kernel, np.zeros(333), np.zeros(333), kernel, sample_rate=44100
        )
        out = apply_crosstalk(buf, k)
        direct = np.convolve(signal, kernel)[:4000]
        np.testing.assert_allclose(
            out.samples[0], direct, rtol=0, atol=1e-9 * np.max(np.abs(direct))
        )

    def test_first_length_past_direct_cutover_matches_direct(self, rng):
        signal = rng.normal(0, 0.3, (2, 5000))
        kernel = _random_kernel(rng, 257)
        out = apply_crosstalk(make_buffer(signal), kernel)
        left, right = signal
        expected = [
            np.convolve(left, kernel.h_ll) + np.convolve(right, kernel.h_rl),
            np.convolve(left, kernel.h_lr) + np.convolve(right, kernel.h_rr),
        ]
        for got, want in zip(out.samples, expected):
            np.testing.assert_allclose(
                got, want[:5000], rtol=0, atol=1e-12 * np.max(np.abs(want))
            )

    def test_mono_rejected(self, rng):
        buf = make_buffer(rng.normal(0, 0.2, (1, 100)))
        with pytest.raises(ValueError, match="stereo"):
            apply_crosstalk(buf, identity_kernel(44100))

    def test_rate_mismatch_rejected(self, rng):
        buf = make_buffer(rng.normal(0, 0.2, (2, 100)), rate=48000)
        with pytest.raises(ValueError, match="rate"):
            apply_crosstalk(buf, identity_kernel(44100))


class TestLoadKernel:
    def test_four_channel_wav(self, rng, tmp_path):
        responses = rng.normal(0, 0.2, (4, 512))
        path = tmp_path / "kernel.wav"
        write_wav(AudioBuffer(responses, 44100), path)
        kernel = load_kernel(path)
        assert kernel.length == 512
        np.testing.assert_allclose(kernel.h_rl, responses[1], atol=1e-7)

    def test_wrong_channel_count_rejected(self, rng, tmp_path):
        path = tmp_path / "kernel.wav"
        write_wav(AudioBuffer(rng.normal(0, 0.2, (2, 64)), 44100), path)
        with pytest.raises(ValueError, match="4 channels"):
            load_kernel(path)

    def test_directory_of_monos_pads_to_longest(self, rng, tmp_path):
        lengths = {"ll.wav": 256, "rl.wav": 256, "lr.wav": 512, "rr.wav": 512}
        for name, n in lengths.items():
            write_wav(AudioBuffer(rng.normal(0, 0.2, (1, n)), 44100), tmp_path / name)
        kernel = load_kernel(tmp_path)
        assert kernel.length == 512
        np.testing.assert_array_equal(kernel.h_ll[256:], 0.0)

    def test_directory_missing_file(self, rng, tmp_path):
        for name in ("ll.wav", "rl.wav", "lr.wav"):
            write_wav(AudioBuffer(rng.normal(0, 0.2, (1, 64)), 44100), tmp_path / name)
        with pytest.raises(FileNotFoundError, match="rr"):
            load_kernel(tmp_path)

    def test_directory_mixed_rates_rejected(self, rng, tmp_path):
        for name, rate in (("ll.wav", 44100), ("rl.wav", 44100), ("lr.wav", 48000), ("rr.wav", 44100)):
            write_wav(AudioBuffer(rng.normal(0, 0.2, (1, 64)), rate), tmp_path / name)
        with pytest.raises(ValueError, match="mixed sample rates"):
            load_kernel(tmp_path)

    def test_missing_path(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_kernel(tmp_path / "nope.wav")
