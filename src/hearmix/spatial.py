"""HRTF crosstalk simulation: mixing each transmitted stereo channel into
both received channels through four impulse responses.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .audio import AudioBuffer, _convolve_into, _positive_integer, read_wav

# directory layout for a kernel stored as four mono files
_KERNEL_FILE_NAMES = ("ll.wav", "rl.wav", "lr.wav", "rr.wav")


@dataclass(frozen=True, eq=False)
class CrosstalkKernel:
    """Impulse responses source->receiver: h_ll, h_rl, h_lr, h_rr.

    First letter is the transmitted channel, second the received one, so
    h_rl is the path from the right speaker into the left ear.
    """

    h_ll: np.ndarray
    h_rl: np.ndarray
    h_lr: np.ndarray
    h_rr: np.ndarray
    sample_rate: int

    def __post_init__(self):
        paths = []
        for name in ("h_ll", "h_rl", "h_lr", "h_rr"):
            h = np.asarray(getattr(self, name), dtype=np.float64)
            if h.ndim != 1 or h.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D impulse response")
            if not np.all(np.isfinite(h)):
                raise ValueError(f"{name} contains NaN or Inf")
            object.__setattr__(self, name, h)
            paths.append(h)
        if len({h.size for h in paths}) != 1:
            raise ValueError("all four impulse responses must have equal length")
        object.__setattr__(self, "sample_rate", _positive_integer(self.sample_rate, "sample_rate"))

    @property
    def length(self) -> int:
        return self.h_ll.size


def apply_crosstalk(buffer: AudioBuffer, kernel: CrosstalkKernel) -> AudioBuffer:
    """Simulate speaker playback: convolve the stereo signal with the four
    crosstalk paths, truncated to the input length.

    One call reads both inputs for both outputs, so each input chunk is
    transformed once; a long song's second half runs on a helper thread
    (``audio._overlap_add``)."""
    if buffer.channels != 2:
        raise ValueError(f"crosstalk needs stereo input, got {buffer.channels} channel(s)")
    if kernel.sample_rate != buffer.sample_rate:
        raise ValueError(
            f"kernel rate {kernel.sample_rate} != signal rate {buffer.sample_rate}"
        )
    paths = np.array([[kernel.h_ll, kernel.h_rl], [kernel.h_lr, kernel.h_rr]])
    received = np.empty(buffer.samples.shape)
    _convolve_into(received, buffer.samples, paths, 0)
    return buffer.with_samples(received)


def load_kernel(path) -> CrosstalkKernel:
    """Load a crosstalk kernel from disk.

    Either a single 4-channel WAV (channel order LL, RL, LR, RR) or a
    directory holding ll.wav / rl.wav / lr.wav / rr.wav mono files, which
    are zero-padded to the longest response.
    """
    path = Path(path)
    if path.is_dir():
        responses = []
        rate = None
        for name in _KERNEL_FILE_NAMES:
            file_path = path / name
            if not file_path.exists():
                raise FileNotFoundError(f"missing kernel file: {file_path}")
            buf = read_wav(file_path)
            if buf.channels != 1:
                raise ValueError(f"{file_path}: kernel part files must be mono")
            if rate is None:
                rate = buf.sample_rate
            elif buf.sample_rate != rate:
                raise ValueError(f"{file_path}: kernel files have mixed sample rates")
            responses.append(buf.samples[0])
        longest = max(r.size for r in responses)
        padded = [np.pad(r, (0, longest - r.size)) for r in responses]
        return CrosstalkKernel(*padded, sample_rate=rate)

    buf = read_wav(path)
    if buf.channels != 4:
        raise ValueError(
            f"{path}: kernel WAV must have 4 channels (LL, RL, LR, RR), got {buf.channels}"
        )
    return CrosstalkKernel(*buf.samples, sample_rate=buf.sample_rate)
