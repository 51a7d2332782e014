from __future__ import annotations

import struct
import wave

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.io import wavfile

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
    linear_to_db,
    read_wav,
    write_wav,
)
from util import make_buffer, quantize


def _fmt(buffer, depth):
    return WavFormat(depth, buffer.sample_rate, buffer.channels)


class TestAudioBuffer:
    def test_mono_input_coerced_to_2d(self):
        buf = AudioBuffer(np.zeros(10), 44100)
        assert buf.samples.shape == (1, 10)
        assert buf.channels == 1

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match="NaN"):
            AudioBuffer(np.array([[0.0, np.nan]]), 44100)

    def test_rejects_inf(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.array([[np.inf]]), 44100)

    def test_rejects_bad_rate(self):
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((1, 4)), 0)
        with pytest.raises(ValueError):
            AudioBuffer(np.zeros((1, 4)), -44100)

    def test_duration(self):
        assert make_buffer(np.zeros((2, 44100))).duration == pytest.approx(1.0)


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

    def test_linear_to_db_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            linear_to_db(0.0)
        with pytest.raises(ValueError):
            linear_to_db(-1.0)

    @given(st.floats(min_value=1e-6, max_value=1e6))
    def test_round_trip(self, factor):
        back = db_to_linear(linear_to_db(factor))
        assert abs(back - factor) <= 1e-9 * factor


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

    def test_nonfinite_float_file_raises_instead_of_yielding_nan(self, tmp_path):
        path = tmp_path / "nan.wav"
        data = np.array([0.0, np.nan, 0.5], dtype=np.float32)
        wavfile.write(path, 44100, data)
        with pytest.raises(ValueError):
            read_wav(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_float_sample_is_a_read_error_naming_the_file(self, tmp_path, bad):
        payload = np.array([0.0, 0.25, bad, -0.5], dtype="<f4").tobytes()
        fmt = struct.pack("<4sIHHIIHH", b"fmt ", 16, 3, 1, 44100, 176400, 4, 32)
        body = fmt + struct.pack("<4sI", b"data", len(payload)) + payload
        path = tmp_path / "nonfinite.wav"
        path.write_bytes(struct.pack("<4sI4s", b"RIFF", 4 + len(body), b"WAVE") + body)
        with pytest.raises(WavReadError, match="nonfinite.wav"):
            read_wav(path)


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
