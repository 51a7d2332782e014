"""Shared test constructions.

Most "exact equality" contracts ride on dyadic sample values: snapping
samples to a 2^-20 grid keeps sums, differences, and halving exact in
float64, so mixture arithmetic identities hold bitwise.
"""

from __future__ import annotations

import importlib.util
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from hearmix import audio
from hearmix.audio import _CHUNK_FRAMES
from hearmix import (
    AudioBuffer,
    Audiogram,
    CrosstalkKernel,
    Listener,
    StemSet,
    write_wav,
)

QUANTUM = 2.0**-20
TRACK_TONES = {"vocals": 440.0, "drums": 180.0, "bass": 80.0, "other": 1200.0}


def load_script(name: str):
    """The module of ``scripts/<name>.py``, which is not a package."""
    path = Path(__file__).resolve().parents[1] / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def quantize(x: np.ndarray) -> np.ndarray:
    return np.round(np.asarray(x, dtype=np.float64) / QUANTUM) * QUANTUM


def make_buffer(samples, rate: int = 44100) -> AudioBuffer:
    return AudioBuffer(np.asarray(samples, dtype=np.float64), rate)


def sine_buffer(
    freq_hz: float,
    seconds: float,
    rate: int = 44100,
    amplitude: float = 1.0,
    channels: int = 2,
) -> AudioBuffer:
    t = np.arange(int(round(seconds * rate))) / rate
    tone = amplitude * np.sin(2 * np.pi * freq_hz * t)
    return AudioBuffer(np.tile(tone, (channels, 1)), rate)


def synth_stems(
    rng: np.random.Generator,
    seconds: float = 1.0,
    rate: int = 44100,
    channels: int = 2,
    peak: float = 0.2,
) -> StemSet:
    """Music-like dyadic stems: one tone per track plus a little noise."""
    n = int(round(seconds * rate))
    t = np.arange(n) / rate
    stems = {}
    for name, freq in TRACK_TONES.items():
        track = np.empty((channels, n))
        for ch in range(channels):
            phase = rng.uniform(0, 2 * np.pi)
            tone = np.sin(2 * np.pi * freq * t + phase)
            noise = rng.normal(0.0, 0.25, n)
            envelope = 0.6 + 0.4 * np.sin(2 * np.pi * 0.7 * t + phase)
            track[ch] = peak * envelope * (0.7 * tone + 0.3 * noise)
        stems[name] = AudioBuffer(quantize(track), rate)
    return StemSet(**stems)


def exact_mix(stems: StemSet) -> AudioBuffer:
    """Mixture summed in VDBO order, matching the remix accumulation."""
    samples = (
        (stems.vocals.samples + stems.drums.samples) + stems.bass.samples
    ) + stems.other.samples
    return AudioBuffer(samples, stems.sample_rate)


# song lengths around the front end's chunk size, from one frame to two
# chunks and a partial third
CHUNK_EDGES = (1, _CHUNK_FRAMES - 1, _CHUNK_FRAMES, _CHUNK_FRAMES + 1, 2 * _CHUNK_FRAMES + 17)
# lengths whose front-end span (1/16 of the song, one to four chunks) is
# longer than a chunk, and where the four-chunk cap binds
SPAN_EDGES = (16 * _CHUNK_FRAMES + 4321, 64 * _CHUNK_FRAMES + 17)


def random_stem_sets(
    rng: np.random.Generator, n_frames: int, k: int, order: str = "C"
) -> tuple[AudioBuffer, list[StemSet]]:
    """A stereo mixture and K stem sets of unrelated Gaussian samples, in
    C or F memory order. Every 7th frame is -0.0 and every 11th +0.0 in
    all of them, so signs of zero reach each step of the chain."""

    def track() -> AudioBuffer:
        x = np.array(rng.normal(0.0, 0.3, (2, n_frames)), order=order)
        x[:, ::7] = -0.0
        x[:, ::11] = 0.0
        return AudioBuffer(x, 44100)

    sets = [StemSet(track(), track(), track(), track()) for _ in range(k)]
    return track(), sets


def assert_read_only(buffer: AudioBuffer) -> None:
    """Writing into a buffer's samples raises."""
    with pytest.raises(ValueError, match="read-only"):
        buffer.samples[:, :1] = 0.0


def identity_kernel(sample_rate: int, length: int = 1) -> CrosstalkKernel:
    """Kernel that passes each channel through untouched (no crosstalk)."""
    direct = np.zeros(length)
    direct[0] = 1.0
    silent = np.zeros(length)
    return CrosstalkKernel(direct, silent, silent, direct.copy(), sample_rate)


def flat_listener(level_db_hl: float, listener_id: str = "test") -> Listener:
    freqs = (250.0, 500.0, 1000.0, 2000.0, 4000.0, 6000.0)
    audiogram = Audiogram(freqs, (level_db_hl,) * 6)
    return Listener(listener_id, audiogram, audiogram)


ZERO_LISTENER = flat_listener(0.0, "normal-hearing")


def write_stems_dir(stems: StemSet, directory: Path) -> Path:
    directory.mkdir(parents=True, exist_ok=True)
    for name in ("vocals", "drums", "bass", "other"):
        write_wav(stems.track(name), directory / f"{name}.wav")
    return directory


def write_gains_file(path: Path, **gains) -> Path:
    doc = {"vocals": 0.0, "drums": 0.0, "bass": 0.0, "other": 0.0}
    doc.update(gains)
    path.write_text(json.dumps(doc))
    return path


def write_listener_file(path: Path, listener: Listener) -> Path:
    path.write_text(
        json.dumps(
            {
                "id": listener.id,
                "frequencies": list(listener.left.frequencies),
                "left_db_hl": list(listener.left.levels_db_hl),
                "right_db_hl": list(listener.right.levels_db_hl),
            }
        )
    )
    return path


def response_db(taps: np.ndarray, freqs_hz, sample_rate: int) -> np.ndarray:
    """Direct DTFT magnitude of an FIR filter, independent of scipy.freqz."""
    freqs = np.atleast_1d(np.asarray(freqs_hz, dtype=np.float64))
    k = np.arange(taps.size)
    phases = np.exp(-2j * np.pi * np.outer(freqs / sample_rate, k))
    return 20.0 * np.log10(np.abs(phases @ taps))


def convolution_lengths(taps: int) -> tuple[int, ...]:
    """Signal lengths at the edges of the blocked FFT overlap-add for a dense
    kernel of ``taps`` taps: one sample, one short of the kernel, either side
    of one block, and several chunks of blocks plus a remainder."""
    size = max(audio._FFT_SIZE, 1 << (2 * taps - 2).bit_length())
    block = size - taps + 1
    chunk = block * audio._BLOCKS_PER_CHUNK
    return (1, taps - 1, block - 1, block, block + 1, 3 * chunk + 17)


def shifted(x: np.ndarray, k: int) -> np.ndarray:
    """``x`` delayed by ``k`` samples, keeping its length."""
    y = np.zeros_like(x)
    y[k:] = x[: max(0, x.size - k)]
    return y


def peak_buffers(like: AudioBuffer, fn, *args):
    """Result of one call and its transient peak allocation, counted in
    buffers the size of ``like``."""
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] / like.samples.nbytes
    finally:
        tracemalloc.stop()
