from __future__ import annotations

import struct
import threading
import tracemalloc
import uuid
import wave

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from hearmix import audio
from hearmix import (
    FLOAT_32,
    PCM_16,
    PCM_24,
    AlignmentError,
    AudioBuffer,
    TruncatedFileError,
    UnsupportedCodecError,
    WavFormat,
    WavReadError,
    ZeroLengthAudioError,
    db_to_linear,
    ensure_aligned,
    read_wav,
    write_wav,
)
from util import CHUNK_EDGES, assert_read_only, convolution_lengths, make_buffer, quantize


def _fmt(buffer, depth):
    return WavFormat(depth, buffer.sample_rate, buffer.channels)


# format tags of the WAVE fmt chunk
PCM, IEEE_FLOAT, EXTENSIBLE = 1, 3, 0xFFFE


def _subformat(tag: int) -> bytes:
    """KSDATAFORMAT_SUBTYPE GUID for a plain format tag, as stored on disk."""
    return uuid.UUID(f"{tag:08x}-0000-0010-8000-00aa00389b71").bytes_le


def _chunk(chunk_id: bytes, body: bytes) -> bytes:
    return struct.pack("<4sI", chunk_id, len(body)) + body + b"\x00" * (len(body) & 1)


def _fmt_chunk(tag, channels, bits, subformat=None, rate=44100):
    """A 16-byte fmt chunk, or a 40-byte WAVE_FORMAT_EXTENSIBLE one when
    ``subformat`` (a GUID) is given."""
    block_align = channels * bits // 8
    common = struct.pack("<HHIIHH", tag, channels, rate, rate * block_align, block_align, bits)
    if subformat is None:
        return _chunk(b"fmt ", common)
    return _chunk(b"fmt ", common + struct.pack("<HHI", 22, bits, 0) + subformat)


def _riff(*chunks: bytes) -> bytes:
    body = b"".join(chunks)
    return struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body


def _encode(samples: np.ndarray, tag: int, bits: int) -> bytes:
    """Interleaved payload of (channels, frames) samples; integers saturate."""
    interleaved = samples.T.ravel()
    if tag == IEEE_FLOAT:
        return interleaved.astype("<f4").tobytes()
    top = 2 ** (bits - 1)
    codes = np.clip(np.rint(interleaved * top), -top, top - 1).astype(np.int64)
    return b"".join(int(c).to_bytes(bits // 8, "little", signed=True) for c in codes)


def _wav_bytes(samples, tag, bits, extensible=False):
    channels = samples.shape[0]
    if extensible:
        fmt = _fmt_chunk(EXTENSIBLE, channels, bits, _subformat(tag))
    else:
        fmt = _fmt_chunk(tag, channels, bits)
    return _riff(fmt, _chunk(b"data", _encode(samples, tag, bits)))


class TestAudioBuffer:
    def test_mono_input_coerced_to_2d(self):
        buf = AudioBuffer(np.zeros(10), 44100)
        assert buf.samples.shape == (1, 10)
        assert buf.channels == 1

    @pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read_only"])
    @pytest.mark.parametrize("shape", [(10,), (2, 10)], ids=["mono", "stereo"])
    def test_samples_are_a_read_only_view_of_the_input(self, shape, writeable):
        samples = np.zeros(shape)
        samples.flags.writeable = writeable
        buf = AudioBuffer(samples, 44100)
        assert_read_only(buf)
        assert np.shares_memory(buf.samples, samples)
        assert samples.flags.writeable == writeable

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            AudioBuffer(np.array([[0.0, np.nan]]), 44100)

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([[np.inf]]), 44100)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("where", [0, 4097, -1], ids=["first", "middle", "last"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    def test_rejects_one_non_finite_sample(self, rng, order, where, bad):
        samples = np.array(rng.normal(0.0, 0.3, (2, 8195)), order=order)
        samples.flat[where] = bad
        with pytest.raises(ValueError, match="^samples contain NaN or Inf$"):
            AudioBuffer(samples, 44100)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_accepts_finite_samples_whose_sum_overflows(self, order):
        huge = np.array([[1e308, 1e308, -1e308], [1e308, 1e308, 1.0]], order=order)
        with np.errstate(over="ignore"):
            assert not np.isfinite(huge.sum())
        assert np.array_equal(AudioBuffer(huge, 44100).samples, huge)

    def test_finiteness_check_allocates_no_mask(self, rng):
        samples = np.asfortranarray(rng.normal(0.0, 0.3, (2, 44100)))
        tracemalloc.start()
        try:
            AudioBuffer(samples, 44100)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < samples.nbytes / 64

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((1, 4)), 0)
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((1, 4)), -44100)

    @pytest.mark.parametrize("rate", [True, 44100.0, 44100.5, "44100"])
    def test_rejects_a_rate_that_is_not_an_integer(self, rate):
        with pytest.raises(ValueError, match="^sample_rate must be a positive integer"):
            AudioBuffer(np.zeros((1, 4)), rate)

    @pytest.mark.parametrize(
        "shape, message",
        [((2, 3, 4), r"^samples must be \(channels, frames\)"), ((0, 4), "at least one channel")],
        ids=["three_dims", "no_channels"],
    )
    def test_rejects_a_bad_shape(self, shape, message):
        with pytest.raises(ValueError, match=message):
            AudioBuffer(np.zeros(shape), 44100)

    def test_duration(self):
        assert make_buffer(np.zeros((2, 44100))).duration == pytest.approx(1.0)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_float32_is_kept_as_it_is(self, rng, order):
        samples = np.array(rng.normal(0.0, 0.3, (2, 100)), dtype=np.float32, order=order)
        buf = AudioBuffer(samples, 44100)
        assert buf.samples.dtype == np.float32
        assert np.shares_memory(buf.samples, samples)
        assert_read_only(buf)

    @pytest.mark.parametrize(
        "samples",
        [
            np.array([[1, -2, 3]], dtype=np.int16),
            np.array([[1, 2, 3]], dtype=np.uint8),
            np.array([[0.5, -0.25, 1.5]], dtype=np.float16),
            np.array([[0.5, -0.25, 1.5]], dtype=">f4"),
            [[1, 2, 3]],
            [0.5, -0.25, 1.5],
        ],
        ids=["int16", "uint8", "float16", "big_endian_float32", "int_list", "float_list"],
    )
    def test_other_real_samples_widen_to_float64(self, samples):
        buf = AudioBuffer(samples, 44100)
        assert buf.samples.dtype == np.float64
        np.testing.assert_array_equal(buf.samples, np.atleast_2d(np.asarray(samples, np.float64)))

    def test_float64_is_not_copied(self, rng):
        samples = rng.normal(0.0, 0.3, (2, 100))
        assert np.shares_memory(AudioBuffer(samples, 44100).samples, samples)

    @pytest.mark.parametrize(
        "samples, dtype",
        [
            (np.array([[0.5 + 0.5j, 1.0]]), "complex128"),
            (np.array([[0.5, 1.0]], dtype=np.complex64), "complex64"),
            (np.array([[True, False]]), "bool"),
            (np.array([["0.5", "1"]]), "<U3"),
            (np.array([[0.5, None]], dtype=object), "object"),
        ],
        ids=["complex128", "complex64", "bool", "str", "object"],
    )
    def test_rejects_samples_that_are_not_real_numbers(self, samples, dtype):
        with pytest.raises(ValueError, match=rf"^samples must be real numbers, got dtype {dtype}$"):
            AudioBuffer(samples, 44100)


def _kernel(rng, kind: str, taps: int = 141) -> np.ndarray:
    """A symmetric (1, 1, taps) kernel: dense, one centred tap, or all zero."""
    h = np.zeros(taps)
    if kind == "dense":
        h = rng.normal(0.0, 0.1, taps)
        h = 0.5 * (h + h[::-1])
    elif kind == "centred_tap":
        h[taps // 2] = -0.75
    return h[np.newaxis, np.newaxis]


class TestConvolveInPlace:
    """One row filtered in place against the out-of-place form, bit for bit."""

    @pytest.mark.parametrize("n", sorted(set(CHUNK_EDGES + convolution_lengths(141))))
    @pytest.mark.parametrize("kind", ["dense", "centred_tap", "zero"])
    @pytest.mark.parametrize("gain", [1.0, 1.7])
    @pytest.mark.parametrize("order", ["C", "F"])
    def test_matches_out_of_place_on_the_scaled_input(self, rng, n, kind, gain, order):
        # the chain's order: the normalizer scales the song in place, then
        # the filter runs in place on the scaled rows
        x = np.array(rng.normal(0.0, 0.3, (2, n)), order=order)
        x[:, ::7] = -0.0
        h = _kernel(rng, kind)
        scaled = x * gain
        expected = np.empty_like(x)
        ours = x.copy(order="K")
        ours *= gain
        for ch in range(2):
            audio._convolve_into(expected[ch : ch + 1], scaled[ch : ch + 1], h, 70)
            row = ours[ch : ch + 1]
            audio._convolve_into(row, row, h, 70)
        assert np.array_equal(ours, expected)
        assert np.array_equal(np.signbit(ours), np.signbit(expected))

    def test_scratch_does_not_grow_with_the_song(self, rng):
        h = _kernel(rng, "dense")
        peaks = []
        for seconds in (2, 6):
            x = rng.normal(0.0, 0.3, (1, seconds * 44100))
            tracemalloc.start()
            try:
                audio._convolve_into(x, x, h, 70)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        # a fixed number of blocks: no more for the 6 s row than for the 2 s
        # one, and about a third of the 6 s row
        assert peaks[1] <= peaks[0] + 4096
        assert peaks[1] <= 0.35 * x.nbytes

    def test_rejects_an_off_centre_tap(self, rng):
        x = rng.normal(0.0, 0.3, (1, 100))
        h = np.zeros((1, 1, 141))
        h[0, 0, 3] = 1.0
        with pytest.raises(ValueError, match="one tap at 70, got 3"):
            audio._convolve_into(x, x, h, 70)

    def test_rejects_more_than_one_row(self, rng):
        x = rng.normal(0.0, 0.3, (2, 100))
        with pytest.raises(ValueError, match="filters one row, got 2"):
            audio._convolve_into(x, x, np.ones((2, 2, 3)), 1)


def _split_edges(taps: int) -> dict[str, int]:
    """Song lengths around the overlap-add's time split for a kernel of
    ``taps`` taps: one chunk, one frame short of the split, the shortest
    song that splits, one frame more, and an odd number of chunks plus a
    partial block."""
    size = max(audio._FFT_SIZE, 1 << (2 * taps - 2).bit_length())
    chunk = (size - taps + 1) * audio._BLOCKS_PER_CHUNK
    least = audio._SPLIT_CHUNKS * chunk
    return {
        "one_chunk": chunk,
        "one_short": least - 1,
        "least": least,
        "least+1": least + 1,
        "odd_chunks": least + chunk + 17,
    }


def _stereo_paths(rng, taps: int) -> np.ndarray:
    return rng.normal(0.0, 0.2, (2, 2, taps)) * np.exp(-np.arange(taps) / (taps / 4))


def _mixed_paths(rng, taps: int) -> np.ndarray:
    # the right input reaches each output through one tap (a shift by 5
    # samples, then none), and the left input through the FFT
    h = _stereo_paths(rng, taps)
    h[0, 1] = 0.0
    h[0, 1, 5] = 0.4
    h[1, 1] = 0.0
    h[1, 1, 0] = -0.7
    return h


SPLIT_CASES = [f"stereo-{edge}" for edge in _split_edges(384)] + [
    "fft_4096", "one_tap_and_dense", "float32_F", "delayed_row"
]


def _split_case(rng, case: str) -> tuple[np.ndarray, np.ndarray, int]:
    """The inputs, kernels and start of a case of ``SPLIT_CASES``."""
    if case.startswith("stereo-"):
        n = _split_edges(384)[case.removeprefix("stereo-")]
        return rng.normal(0.0, 0.3, (2, n)), _stereo_paths(rng, 384), 0
    if case == "fft_4096":  # over 1024 taps
        n = _split_edges(1100)["least+1"]
        return rng.normal(0.0, 0.3, (2, n)), _stereo_paths(rng, 1100), 0
    if case == "delayed_row":  # advanced by the filter's delay, as apply_fir filters
        n = _split_edges(385)["least+1"]
        return rng.normal(0.0, 0.3, (1, n)), _kernel(rng, "dense", 385), 192
    x = rng.normal(0.0, 0.3, (2, _split_edges(384)["odd_chunks"]))
    if case == "float32_F":
        return np.array(x, np.float32, order="F"), _stereo_paths(rng, 384), 0
    return x, _mixed_paths(rng, 384), 0


BY_ROWS = audio._by_rows


class TestConvolveSplitsInTime:
    """Out of place, a song of ``_SPLIT_CHUNKS`` chunks or more splits in
    time: the second half runs on a helper thread, and the two ways give
    the same bits."""

    @pytest.mark.parametrize("case", SPLIT_CASES)
    def test_split_matches_one_call(self, monkeypatch, rng, case):
        inputs, kernels, start = _split_case(rng, case)
        runs = []
        for cpus in (1, 2):
            calls = []

            def by_rows(fn, n_rows):
                def recorded(halves):
                    calls.append((halves, threading.current_thread() is threading.main_thread()))
                    return fn(halves)

                return BY_ROWS(recorded, n_rows)

            monkeypatch.setattr(audio, "_cpu_count", lambda: cpus)
            monkeypatch.setattr(audio, "_by_rows", by_rows)
            out = np.empty((kernels.shape[0], inputs.shape[1]))
            audio._convolve_into(out, inputs, kernels, start)
            runs.append((out, sorted(calls, key=lambda call: call[0].start or 0)))
        (one, calls_one), (split, calls_split) = runs
        assert one.tobytes() == split.tobytes()
        if case in ("stereo-one_chunk", "stereo-one_short"):
            assert calls_one == calls_split == []
        else:
            assert calls_one == [(slice(None), True)]
            assert calls_split == [(slice(0, 1), True), (slice(1, 2), False)]

    def test_in_place_never_splits(self, monkeypatch, rng):
        monkeypatch.setattr(audio, "_cpu_count", lambda: 2)
        monkeypatch.setattr(audio, "_by_rows", lambda fn, n_rows: pytest.fail("in place, it split"))
        x = rng.normal(0.0, 0.3, (1, _split_edges(141)["odd_chunks"]))
        audio._convolve_into(x, x, _kernel(rng, "dense"), 70)


class TestEnsureAligned:
    def test_passes_for_matching(self):
        a = make_buffer(np.zeros((2, 10)))
        b = make_buffer(np.ones((2, 10)))
        ensure_aligned(a, b)

    @pytest.mark.parametrize(
        "other",
        [
            make_buffer(np.zeros((2, 10)), rate=48000),
            make_buffer(np.zeros((1, 10))),
            make_buffer(np.zeros((2, 11))),
        ],
    )
    def test_rejects_mismatch(self, other):
        a = make_buffer(np.zeros((2, 10)))
        with pytest.raises(AlignmentError):
            ensure_aligned(a, other)


class TestDbConversions:
    def test_zero_db_is_unity(self):
        assert db_to_linear(0.0) == 1.0

    def test_twenty_db_is_ten(self):
        assert db_to_linear(20.0) == pytest.approx(10.0, abs=1e-12)

    def test_minus_six_db_is_half(self):
        # 10^(-6.0206/20) = 0.4999965...
        assert abs(db_to_linear(-6.0206) - 0.5) < 1e-4

    def test_mute_maps_to_zero(self):
        assert db_to_linear(float("-inf")) == 0.0


class TestReadWav:
    def test_reads_stdlib_written_pcm16(self, tmp_path):
        # stdlib wave as the independent writer
        codes = np.array([0, 1, -1, 32767, -32768, 12345], dtype="<i2")
        frames = np.repeat(codes, 2).reshape(-1, 2)  # stereo, both channels equal
        path = tmp_path / "ref.wav"
        with wave.open(str(path), "wb") as fp:
            fp.setnchannels(2)
            fp.setsampwidth(2)
            fp.setframerate(44100)
            fp.writeframes(frames.tobytes())
        buf = read_wav(path)
        assert buf.channels == 2
        assert buf.sample_rate == 44100
        assert buf.n_frames == len(codes)
        np.testing.assert_array_equal(buf.samples[0], codes / 32768.0)
        np.testing.assert_array_equal(buf.samples[1], codes / 32768.0)

    def test_16bit_values_stay_in_range(self, tmp_path, rng):
        buf = make_buffer(rng.uniform(-1, 1, (2, 1000)))
        path = tmp_path / "x.wav"
        write_wav(buf, path, _fmt(buf, PCM_16))
        out = read_wav(path)
        assert out.channels == 2 and out.n_frames == 1000
        assert np.all(out.samples >= -1.0) and np.all(out.samples < 1.0)

    def test_compressed_codec_rejected(self, tmp_path):
        # format tag 2 = MS ADPCM
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 2, 2, 44100, 176400, 4, 16)
        data = struct.pack("<4sI", b"data", 8) + b"\x00" * 8
        body = fmt + data
        path = tmp_path / "adpcm.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(UnsupportedCodecError, match="unsupported codec"):
            read_wav(path)

    def test_truncated_data_rejected(self, tmp_path, rng):
        buf = make_buffer(rng.uniform(-1, 1, (2, 100)))
        path = tmp_path / "x.wav"
        write_wav(buf, path, _fmt(buf, PCM_16))
        whole = path.read_bytes()
        path.write_bytes(whole[:-17])
        with pytest.raises(TruncatedFileError):
            read_wav(path)

    def test_zero_length_rejected(self, tmp_path):
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 1, 1, 44100, 88200, 2, 16)
        data = struct.pack("<4sI", b"data", 0)
        body = fmt + data
        path = tmp_path / "empty.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(ZeroLengthAudioError):
            read_wav(path)

    def test_non_wav_rejected(self, tmp_path):
        path = tmp_path / "not.wav"
        path.write_bytes(b"OggS" + b"\x00" * 64)
        with pytest.raises(WavReadError):
            read_wav(path)

    @pytest.mark.parametrize("channels, rate", [(0, 44100), (1, 0)], ids=["no_channels", "zero_rate"])
    def test_invalid_fmt_fields_rejected(self, tmp_path, channels, rate):
        path = tmp_path / "fields.wav"
        path.write_bytes(_riff(_fmt_chunk(PCM, channels, 16, rate=rate), _chunk(b"data", bytes(4))))
        with pytest.raises(WavReadError, match=r"fields\.wav: invalid fmt chunk"):
            read_wav(path)

    def test_partial_frame_rejected(self, tmp_path):
        # stereo 16-bit frames are 4 bytes; the data chunk holds 6
        path = tmp_path / "partial.wav"
        path.write_bytes(_riff(_fmt_chunk(PCM, 2, 16), _chunk(b"data", bytes(6))))
        with pytest.raises(TruncatedFileError, match=r"partial\.wav: data chunk holds a partial frame"):
            read_wav(path)

    def test_nonfinite_float_file_raises_instead_of_yielding_nan(self, tmp_path):
        path = tmp_path / "nan.wav"
        data = np.array([0.0, np.nan, 0.5], dtype=np.float32)
        wavfile.write(path, 44100, data)
        with pytest.raises(ValueError):
            read_wav(path)

    @staticmethod
    def _mono_float_wav(path, payload: bytes):
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 3, 1, 44100, 176400, 4, 32)
        body = fmt + struct.pack("<4sI", b"data", len(payload)) + payload
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_float_sample_is_a_read_error_naming_the_file(self, tmp_path, bad):
        path = tmp_path / "nonfinite.wav"
        self._mono_float_wav(path, np.array([0.0, 0.25, bad, -0.5], dtype="<f4").tobytes())
        with pytest.raises(WavReadError, match="nonfinite.wav"):
            read_wav(path)

    def test_signalling_nan_is_a_read_error_without_a_cast_warning(self, tmp_path):
        # quiet bit clear: widening this to float64 raises FE_INVALID
        signalling_nan = b"\x01\x00\x80\x7f"
        path = tmp_path / "snan.wav"
        self._mono_float_wav(path, np.zeros(3, dtype="<f4").tobytes() + signalling_nan)
        with pytest.raises(WavReadError, match="snan.wav"):
            read_wav(path)

    def test_float_file_is_read_without_a_mask(self, tmp_path, rng):
        # the samples are a view of the file's bytes, checked without a
        # file-sized bool array: 1.25 times the file with one
        path = tmp_path / "float.wav"
        write_wav(make_buffer(rng.uniform(-1.0, 1.0, (2, 10 * 44100))), path)
        size = path.stat().st_size
        tracemalloc.start()
        try:
            read_wav(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.05 * size


class TestPcm24DecodeOracle:
    """24-bit PCM against a per-sample oracle that shares no code with the
    reader's strided view: each 3-byte group read as a signed integer."""

    EDGE_CODES = (0x800000, 0x7FFFFF, 0xFFFFFF, 0x000000)

    @staticmethod
    def _oracle(payload: bytes, channels: int) -> np.ndarray:
        values = [
            int.from_bytes(payload[i : i + 3], "little", signed=True) / 2**23
            for i in range(0, len(payload), 3)
        ]
        return np.array(values).reshape(-1, channels).T

    @pytest.mark.parametrize("channels", [1, 2, 3])
    @pytest.mark.parametrize("layout", ["data_after_fmt", "data_after_odd_chunk", "data_first"])
    def test_matches_oracle(self, tmp_path, rng, channels, layout):
        codes = [c for c in self.EDGE_CODES for _ in range(channels)]
        codes += rng.integers(0, 2**24, 50 * channels).tolist()
        payload = b"".join(c.to_bytes(3, "little") for c in codes)
        fmt, data = _fmt_chunk(PCM, channels, 24), _chunk(b"data", payload)
        if layout == "data_after_fmt":
            raw = _riff(fmt, data)
        elif layout == "data_after_odd_chunk":
            # 3-byte body plus its pad byte right before the data chunk
            raw = _riff(fmt, _chunk(b"LIST", b"\xff\xfe\xfd"), data)
        else:
            raw = _riff(data, fmt)
        path = tmp_path / "pcm24.wav"
        path.write_bytes(raw)
        out = read_wav(path)
        expected = self._oracle(payload, channels)
        np.testing.assert_array_equal(out.samples, expected)
        edges = [-1.0, 1 - 2**-23, -(2**-23), 0.0]
        np.testing.assert_array_equal(out.samples[:, :4], [edges] * channels)


class TestWavFormats:
    """WAVE_FORMAT_EXTENSIBLE and 32-bit integer PCM."""

    @pytest.mark.parametrize(
        "tag, bits",
        [(PCM, 16), (PCM, 24), (PCM, 32), (IEEE_FLOAT, 32)],
        ids=["pcm16", "pcm24", "pcm32", "float32"],
    )
    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_extensible_decodes_like_the_plain_format(self, tmp_path, rng, tag, bits, channels):
        samples = rng.uniform(-1.2, 1.2, (channels, 100))
        plain, extensible = tmp_path / "plain.wav", tmp_path / "extensible.wav"
        plain.write_bytes(_wav_bytes(samples, tag, bits))
        extensible.write_bytes(_wav_bytes(samples, tag, bits, extensible=True))
        out = read_wav(extensible)
        assert_read_only(out)
        np.testing.assert_array_equal(out.samples, read_wav(plain).samples)
        # scipy.io.wavfile as the independent reader of the extensible layout
        _, data = wavfile.read(extensible)
        scale = 1.0 if tag == IEEE_FLOAT else 2.0 ** (bits - 1)
        if bits == 24:
            scale = 2.0**31  # scipy scales 24-bit into int32
        decoded = data.astype(np.float64).reshape(100, channels).T / scale
        np.testing.assert_array_equal(out.samples, decoded)

    @pytest.mark.parametrize("extensible", [False, True], ids=["plain", "extensible"])
    @pytest.mark.parametrize(
        "tag, bits, dtype",
        [
            (PCM, 16, np.float32),
            (PCM, 24, np.float32),
            (IEEE_FLOAT, 32, np.float32),
            (PCM, 32, np.float64),
        ],
        ids=["pcm16", "pcm24", "float32", "pcm32"],
    )
    def test_decodes_at_file_precision(self, tmp_path, rng, tag, bits, dtype, extensible):
        samples = rng.uniform(-1.2, 1.2, (2, 300))
        path = tmp_path / "x.wav"
        path.write_bytes(_wav_bytes(samples, tag, bits, extensible))
        out = read_wav(path)
        assert out.samples.dtype == dtype
        # the float64 decode: codes scaled by 2^-(bits-1), or float32 widened
        _, data = wavfile.read(path)
        if tag == IEEE_FLOAT:
            want = data.astype(np.float64)
        else:
            codes = data.astype(np.float64) / (2.0**8 if bits == 24 else 1.0)  # scipy left-justifies 24 bits
            want = codes / 2.0 ** (bits - 1)
        np.testing.assert_array_equal(out.samples, want.T)

    def test_pcm32_reads_scaled_by_two_to_minus_31(self, tmp_path):
        codes = np.array([-(2**31), 2**31 - 1, -1, 0, 1, 123456789], dtype="<i4")
        path = tmp_path / "int32.wav"
        path.write_bytes(_riff(_fmt_chunk(PCM, 1, 32), _chunk(b"data", codes.tobytes())))
        np.testing.assert_array_equal(read_wav(path).samples[0], codes / 2.0**31)

    @pytest.mark.parametrize("channels", [1, 2, 3])
    def test_scipy_int32_round_trip(self, tmp_path, rng, channels):
        # scipy.io.wavfile as the independent writer
        codes = rng.integers(-(2**31), 2**31, (300, channels), dtype=np.int64).astype(np.int32)
        codes[0] = -(2**31)
        codes[1] = 2**31 - 1
        path = tmp_path / "scipy_int32.wav"
        wavfile.write(path, 48000, codes)
        out = read_wav(path)
        assert out.sample_rate == 48000 and out.channels == channels
        np.testing.assert_array_equal(out.samples, codes.T / 2.0**31)

    @pytest.mark.parametrize(
        "guid",
        [
            _subformat(2),  # MS ADPCM
            _subformat(6),  # A-law
            uuid.UUID("00000001-0721-11d3-8644-c8c1ca000000").bytes_le,  # ambisonic PCM
        ],
        ids=["adpcm", "alaw", "foreign_guid"],
    )
    def test_other_subformats_are_unsupported(self, tmp_path, guid):
        path = tmp_path / "ext.wav"
        path.write_bytes(_riff(_fmt_chunk(EXTENSIBLE, 2, 16, guid), _chunk(b"data", bytes(8))))
        with pytest.raises(UnsupportedCodecError, match="ext.wav"):
            read_wav(path)

    def test_extensible_float64_is_unsupported(self, tmp_path):
        path = tmp_path / "f64.wav"
        fmt = _fmt_chunk(EXTENSIBLE, 1, 64, _subformat(IEEE_FLOAT))
        path.write_bytes(_riff(fmt, _chunk(b"data", bytes(16))))
        with pytest.raises(UnsupportedCodecError):
            read_wav(path)

    def test_extensible_without_its_extension_is_a_read_error(self, tmp_path):
        path = tmp_path / "short.wav"
        path.write_bytes(_riff(_fmt_chunk(EXTENSIBLE, 1, 16), _chunk(b"data", bytes(4))))
        with pytest.raises(WavReadError, match="needs 40"):
            read_wav(path)

    def test_extensible_fmt_cut_short_after_the_data_is_truncated(self, tmp_path):
        # the fmt chunk declares its 40 bytes but the file ends 10 bytes into
        # the SubFormat GUID; only a data chunk before it is ever found
        fmt = _fmt_chunk(EXTENSIBLE, 1, 16, _subformat(PCM))
        path = tmp_path / "cut.wav"
        path.write_bytes(_riff(_chunk(b"data", bytes(4)), fmt[: 8 + 34]))
        with pytest.raises(TruncatedFileError, match=r"cut\.wav: fmt chunk truncated"):
            read_wav(path)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fuzz.wav"


def _buffer_or_read_error(path, raw):
    path.write_bytes(raw)
    try:
        assert isinstance(read_wav(path), AudioBuffer)
    except WavReadError:
        pass


class TestReadWavProperty:
    """Any bytes decode to a buffer or raise WavReadError, never another type."""

    @settings(max_examples=300, deadline=None)
    @given(
        st.one_of(
            st.binary(max_size=128),
            st.builds(
                lambda size, body: b"RIFF" + size + b"WAVE" + body,
                st.binary(min_size=4, max_size=4),
                st.binary(max_size=128),
            ),
        )
    )
    def test_arbitrary_bytes(self, fuzz_path, raw):
        _buffer_or_read_error(fuzz_path, raw)

    @settings(max_examples=300, deadline=None)
    @given(
        layout=st.sampled_from(
            [
                PCM_16,
                PCM_24,
                FLOAT_32,
                (PCM, 32, False),
                (PCM, 16, True),
                (PCM, 24, True),
                (PCM, 32, True),
                (IEEE_FLOAT, 32, True),
            ]
        ),
        channels=st.integers(1, 3),
        frames=st.integers(1, 8),
        data=st.data(),
    )
    def test_mutated_valid_files(self, fuzz_path, layout, channels, frames, data):
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        samples = np.random.default_rng(seed).uniform(-1.5, 1.5, (channels, frames))
        if isinstance(layout, str):  # a format write_wav writes
            write_wav(make_buffer(samples), fuzz_path, WavFormat(layout, 44100, channels))
            raw = bytearray(fuzz_path.read_bytes())
        else:  # 32-bit PCM or WAVE_FORMAT_EXTENSIBLE, which only read_wav supports
            raw = bytearray(_wav_bytes(samples, *layout))
        edits = st.tuples(st.integers(0, len(raw) - 1), st.integers(0, 255))
        for index, value in data.draw(st.lists(edits, max_size=8), label="edits"):
            raw[index] = value
        keep = data.draw(st.one_of(st.just(len(raw)), st.integers(0, len(raw))), label="keep")
        tail = data.draw(st.binary(max_size=16), label="tail")
        _buffer_or_read_error(fuzz_path, bytes(raw[:keep]) + tail)


class TestWriteWav:
    def test_zeros_round_trip(self, tmp_path):
        buf = make_buffer(np.zeros((2, 64)))
        for depth in (PCM_16, PCM_24, FLOAT_32):
            path = tmp_path / f"{depth}.wav"
            write_wav(buf, path, _fmt(buf, depth))
            np.testing.assert_array_equal(read_wav(path).samples, 0.0)

    def test_pcm16_round_trip_error_bound(self, tmp_path, rng):
        buf = make_buffer(rng.uniform(-1, 1, (2, 2048)))
        path = tmp_path / "x.wav"
        write_wav(buf, path, _fmt(buf, PCM_16))
        out = read_wav(path)
        assert np.max(np.abs(out.samples - buf.samples)) <= 2.0**-15

    def test_pcm24_round_trip_error_bound(self, tmp_path, rng):
        buf = make_buffer(rng.uniform(-1, 1, (2, 2048)))
        path = tmp_path / "x.wav"
        write_wav(buf, path, _fmt(buf, PCM_24))
        out = read_wav(path)
        assert np.max(np.abs(out.samples - buf.samples)) <= 2.0**-23

    def test_float32_preserves_out_of_range(self, tmp_path):
        buf = make_buffer(np.array([[1.5, -2.25, 0.125]]))
        path = tmp_path / "x.wav"
        write_wav(buf, path)  # float32 is the default format
        np.testing.assert_array_equal(read_wav(path).samples, buf.samples)

    def test_pcm16_saturates_at_max_code(self, tmp_path):
        buf = make_buffer(np.array([[1.5, 1.0, -1.5]]))
        path = tmp_path / "x.wav"
        write_wav(buf, path, _fmt(buf, PCM_16))
        out = read_wav(path)
        max_code = 32767 / 32768.0
        np.testing.assert_array_equal(out.samples, [[max_code, max_code, -1.0]])

    def test_float32_bit_identical_round_trip(self, tmp_path, rng):
        # values representable in float32 survive bit-for-bit
        buf = make_buffer(quantize(rng.uniform(-0.9, 0.9, (2, 512))))
        path = tmp_path / "x.wav"
        write_wav(buf, path)
        np.testing.assert_array_equal(read_wav(path).samples, buf.samples)

    def test_float32_round_trip_is_idempotent(self, tmp_path, rng):
        # one write/read settles onto the stored precision; repeating it
        # changes nothing
        buf = make_buffer(rng.normal(0, 0.3, (2, 512)))
        first = tmp_path / "a.wav"
        second = tmp_path / "b.wav"
        write_wav(buf, first)
        once = read_wav(first)
        write_wav(once, second)
        np.testing.assert_array_equal(read_wav(second).samples, once.samples)

    @pytest.mark.parametrize("depth", [PCM_16, PCM_24, FLOAT_32])
    def test_scipy_decodes_our_files(self, tmp_path, depth, rng):
        # scipy.io.wavfile as the independent reader
        buf = make_buffer(rng.uniform(-0.99, 0.99, (2, 300)))
        path = tmp_path / "x.wav"
        write_wav(buf, path, _fmt(buf, depth))
        rate, data = wavfile.read(path)
        assert rate == 44100
        assert data.shape == (300, 2)
        if depth == PCM_16:
            decoded = data.astype(np.float64) / 2.0**15
            tol = 2.0**-15
        elif depth == PCM_24:
            decoded = data.astype(np.float64) / 2.0**31  # scipy scales 24-bit into int32
            tol = 2.0**-23
        else:
            decoded = data.astype(np.float64)
            tol = 2.0**-24
        assert np.max(np.abs(decoded.T - buf.samples)) <= tol

    def test_odd_byte_payload_is_padded(self, tmp_path):
        buf = make_buffer(np.array([[0.5, -0.5, 0.25]]))  # 9 payload bytes at 24-bit
        path = tmp_path / "x.wav"
        write_wav(buf, path, _fmt(buf, PCM_24))
        out = read_wav(path)
        assert out.n_frames == 3

    def test_format_mismatch_rejected(self, tmp_path):
        buf = make_buffer(np.zeros((2, 8)))
        with pytest.raises(ValueError, match="rate"):
            write_wav(buf, tmp_path / "x.wav", WavFormat(PCM_16, 48000, 2))
        with pytest.raises(ValueError, match="channels"):
            write_wav(buf, tmp_path / "x.wav", WavFormat(PCM_16, 44100, 1))

    def test_bad_bit_depth_rejected(self):
        with pytest.raises(ValueError):
            WavFormat("pcm8", 44100, 2)

    @pytest.mark.parametrize(
        "field, rate, channels",
        [
            ("sample_rate", 44100.0, 2),
            ("sample_rate", True, 2),
            ("sample_rate", 0, 2),
            ("channels", 44100, 2.0),
            ("channels", 44100, True),
            ("channels", 44100, 0),
        ],
        ids=["float_rate", "bool_rate", "zero_rate", "float_channels", "bool_channels", "no_channels"],
    )
    def test_format_fields_must_be_positive_integers(self, field, rate, channels):
        with pytest.raises(ValueError, match=f"^{field} must be a positive integer"):
            WavFormat(PCM_16, rate, channels)

    def test_numpy_integer_format_fields_write(self, tmp_path):
        buf = make_buffer(np.zeros((2, 8)))
        fmt = WavFormat(PCM_16, np.int64(44100), np.int32(2))
        assert type(fmt.sample_rate) is int and type(fmt.channels) is int
        write_wav(buf, tmp_path / "x.wav", fmt)
        assert read_wav(tmp_path / "x.wav").sample_rate == 44100

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("depth", [PCM_16, PCM_24, FLOAT_32])
    def test_matches_the_three_branch_encoder(self, tmp_path, rng, depth, order):
        path = tmp_path / "x.wav"
        for channels in (1, 2, 4):
            for frames in (1, 2, 3, 1001):
                samples = rng.uniform(-1.2, 1.2, (channels, frames))
                edges = _EDGE_SAMPLES[: samples.size]
                samples.flat[: edges.size] = edges
                buf = make_buffer(np.array(samples, order=order))
                write_wav(buf, path, _fmt(buf, depth))
                assert path.read_bytes() == _three_branch_wav(buf, depth), (channels, frames)

    @pytest.mark.parametrize(("depth", "bound"), [(FLOAT_32, 0.6), (PCM_16, 2.0), (PCM_24, 2.0)])
    def test_converts_once(self, tmp_path, rng, depth, bound):
        # float32: one interleaved float32 copy (0.5 buffers); PCM: one
        # float64 copy at full scale, then its int32 codes and their low bytes
        buf = make_buffer(rng.uniform(-1.0, 1.0, (2, 3 * 44100)))
        tracemalloc.start()
        try:
            write_wav(buf, tmp_path / "x.wav", _fmt(buf, depth))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound * buf.samples.nbytes


# full scale, signed zero, and values half a code from a PCM-16 or PCM-24 step
_EDGE_SAMPLES = np.array(
    [1.0, -1.0, -0.0, 0.5 / 2**15, -0.5 / 2**15, 1.5 / 2**15, 1.0 - 0.5 / 2**15,
     0.5 / 2**23, -2.5 / 2**23, 1.0 - 0.5 / 2**23, -1.0 - 0.5 / 2**23, 1.5]
)


def _three_branch_wav(buffer, depth) -> bytes:
    """The bytes of a WAV file as an independent encoder writes it: one
    branch per depth, each from an interleaved float64 copy."""
    interleaved = np.ascontiguousarray(buffer.samples.T)
    if depth == PCM_16:
        codes = np.clip(np.rint(interleaved * 2.0**15), -(2**15), 2**15 - 1)
        payload = codes.astype("<i2").tobytes()
        tag, bits = PCM, 16
    elif depth == PCM_24:
        codes = np.clip(np.rint(interleaved * 2.0**23), -(2**23), 2**23 - 1)
        as32 = codes.astype("<i4").tobytes()
        payload = np.frombuffer(as32, dtype=np.uint8).reshape(-1, 4)[:, :3].tobytes()
        tag, bits = PCM, 24
    else:
        payload = interleaved.astype("<f4").tobytes()
        tag, bits = IEEE_FLOAT, 32
    body = _fmt_chunk(tag, buffer.channels, bits, rate=buffer.sample_rate)
    if tag == IEEE_FLOAT:
        body += _chunk(b"fact", struct.pack("<I", buffer.n_frames))
    body += _chunk(b"data", payload)
    return struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body


class _DiskFullAfterFirstWrite:
    """A file whose second write fails, as on a disk that fills up midway."""

    def __init__(self, fp):
        self.fp = fp
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fp.close()

    def write(self, chunk):
        self.writes += 1
        if self.writes > 1:
            raise OSError(28, "No space left on device")
        return self.fp.write(chunk)


class TestAtomicWrite:
    @pytest.fixture
    def fill_disk(self, monkeypatch):
        """Call to make every later write_wav fail after its first write."""

        def arm():
            # shadows the builtin open inside hearmix.audio only
            monkeypatch.setattr(
                audio, "open", lambda *a, **k: _DiskFullAfterFirstWrite(open(*a, **k)), raising=False
            )

        return arm

    def test_failed_write_leaves_no_output_and_no_temporary(self, tmp_path, fill_disk):
        fill_disk()
        with pytest.raises(OSError, match="No space"):
            write_wav(make_buffer(np.zeros((2, 64))), tmp_path / "out.wav")
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_leaves_an_existing_output_untouched(self, tmp_path, fill_disk):
        path = tmp_path / "out.wav"
        write_wav(make_buffer(np.full((2, 64), 0.25)), path)
        before = path.read_bytes()
        fill_disk()
        with pytest.raises(OSError, match="No space"):
            write_wav(make_buffer(np.zeros((2, 128))), path)
        assert path.read_bytes() == before
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_rename_leaves_no_temporary(self, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(audio.os, "replace", refuse)
        with pytest.raises(PermissionError):
            write_wav(make_buffer(np.zeros((1, 8))), tmp_path / "out.wav")
        assert list(tmp_path.iterdir()) == []

    def test_overwrite_replaces_the_whole_file(self, tmp_path):
        path = tmp_path / "out.wav"
        write_wav(make_buffer(np.zeros((2, 4096))), path, WavFormat(PCM_24, 44100, 2))
        write_wav(make_buffer(np.full((1, 3), 0.5)), path)
        np.testing.assert_array_equal(read_wav(path).samples, [[0.5, 0.5, 0.5]])
        assert list(tmp_path.iterdir()) == [path]
