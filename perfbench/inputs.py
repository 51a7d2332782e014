"""Seeded inputs for the benchmark: songs, separator sets, listeners, the
crosstalk kernel and the batch manifest with its planted-bad jobs.

Everything here is a pure function of a seed, built only from the public
``hearmix`` API, so the same seed always gives bit-identical inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from hearmix import (
    AUDIOMETRIC_FREQUENCIES,
    PCM_24,
    AudioBuffer,
    Audiogram,
    GainSpec,
    Listener,
    NoisyOracleStemProvider,
    StemSet,
    WavFormat,
    write_wav,
)

RATE = 44100
SEPARATOR_SNR_DB = 12.0

# seed streams: one per kind of input, so adding a song never shifts a
# listener and vice versa
_SONG, _SEPARATOR, _LISTENER, _GAINS, _KERNEL, _BATCH = range(6)


def rng_for(seed: int, stream: int, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream, index])


def _pan(signal: np.ndarray, pan: float, spread: int) -> np.ndarray:
    """Stereo image: constant-power pan, the right channel a few samples late."""
    angle = (pan + 1.0) * np.pi / 4.0
    return np.stack([np.cos(angle) * signal, np.sin(angle) * np.roll(signal, spread)])


def synth_song(seed: int, index: int, seconds: float) -> StemSet:
    """Music-like VDBO stems: a beat grid, a bass line, a sung melody with
    vibrato, and chord pads, each panned to its own place in the image."""
    rng = rng_for(seed, _SONG, index)
    n = int(round(seconds * RATE))
    t = np.arange(n) / RATE
    beat = 60.0 / rng.uniform(90.0, 130.0)
    beat_pos = t / beat
    beat_idx = beat_pos.astype(np.int64)
    in_beat = (beat_pos - beat_idx) * beat  # seconds since the last beat
    bar_idx = beat_idx // 4
    root = 41.2 * 2.0 ** (rng.integers(0, 12) / 12.0)
    progression = root * 2.0 ** (np.array([0, 5, 7, 3])[rng.permutation(4)] / 12.0)
    chord_root = progression[bar_idx % 4]

    kick = np.sin(2 * np.pi * (50.0 * in_beat + 40.0 * (1 - np.exp(-in_beat / 0.03)) * 0.03))
    kick *= np.exp(-in_beat / 0.12)
    snare_t = np.where(beat_idx % 2 == 1, in_beat, 10.0)
    snare = rng.normal(0.0, 1.0, n) * np.exp(-snare_t / 0.06)
    eighth_t = np.mod(t, beat / 2.0)
    hat = np.diff(rng.normal(0.0, 1.0, n + 1)) * np.exp(-eighth_t / 0.015)
    drums = 0.9 * kick + 0.5 * snare + 0.25 * hat

    bass_phase = 2 * np.pi * np.cumsum(chord_root * 2.0 ** ((beat_idx % 2) * 7 / 12)) / RATE
    bass = (np.sin(bass_phase) + 0.4 * np.sin(2 * bass_phase)) * (0.4 + 0.6 * np.exp(-in_beat / 0.3))

    notes = 2.0 ** (rng.integers(0, 12, size=int(bar_idx[-1]) * 2 + 2) / 12.0)
    melody = 220.0 * notes[beat_idx // 2] * (1.0 + 0.006 * np.sin(2 * np.pi * 5.5 * t))
    vocal_phase = 2 * np.pi * np.cumsum(melody) / RATE
    phrase = np.clip(2.0 * np.sin(2 * np.pi * t / (8 * beat) + rng.uniform(0, 2 * np.pi)) + 1.2, 0.0, 1.0)
    vocals = phrase * sum(np.sin(k * vocal_phase) / k for k in (1, 2, 3, 4))

    pad_phase = 2 * np.pi * np.cumsum(chord_root * 4.0) / RATE
    other = sum(np.sin(pad_phase * 2.0 ** (s / 12.0)) for s in (0, 4, 7)) / 3.0
    other = other * (0.7 + 0.3 * np.sin(2 * np.pi * 0.25 * t)) + 0.05 * rng.normal(0.0, 1.0, n)

    levels = {"vocals": 0.08, "drums": 0.07, "bass": 0.06, "other": 0.04}
    pans = {"vocals": 0.0, "drums": 0.2, "bass": -0.1, "other": -0.5}
    tracks = {}
    for name, signal in (("vocals", vocals), ("drums", drums), ("bass", bass), ("other", other)):
        signal = levels[name] * signal / np.sqrt(np.mean(signal * signal))
        tracks[name] = AudioBuffer(_pan(signal, pans[name], int(rng.integers(1, 24))), RATE)
    return StemSet(**tracks)


def mix_of(stems: StemSet) -> AudioBuffer:
    """The mixture, summed in VDBO order."""
    return stems.vocals.with_samples(
        stems.vocals.samples + stems.drums.samples + stems.bass.samples + stems.other.samples
    )


def separator_sets(truth: StemSet, seed: int, index: int, k: int) -> list[StemSet]:
    """K separator outputs for one song, each the truth plus its own noise."""
    return [
        NoisyOracleStemProvider(
            truth, SEPARATOR_SNR_DB, int(rng_for(seed, _SEPARATOR, index * 16 + j).integers(2**31))
        ).stems()
        for j in range(k)
    ]


def song_gains(seed: int, index: int) -> GainSpec:
    """The listener's remix request: vocals up, accompaniment down a little."""
    rng = rng_for(seed, _GAINS, index)
    return GainSpec(
        vocals=rng.uniform(3.0, 5.0),
        drums=rng.uniform(-3.0, -1.0),
        bass=rng.uniform(-3.0, -1.0),
        other=rng.uniform(-2.0, 0.0),
    )


def listener(seed: int, index: int, severity: str) -> Listener:
    """A sloping audiogram: ``"severe"`` is moderate at 250 Hz falling to
    severe at 6 kHz; ``"mild"`` stays within 10 to 30 dB HL."""
    rng = rng_for(seed, _LISTENER, index)
    freqs = np.array(AUDIOMETRIC_FREQUENCIES)
    octaves = np.log2(freqs / freqs[0])
    if severity == "severe":
        base, slope = rng.uniform(42.0, 46.0), rng.uniform(8.5, 9.5)
    elif severity == "mild":
        base, slope = rng.uniform(12.0, 16.0), rng.uniform(1.0, 2.0)
    else:
        raise ValueError(f"unknown severity {severity!r}")
    ears = []
    for _ in range(2):
        levels = base + slope * octaves + rng.uniform(-2.0, 2.0, freqs.size)
        ears.append(Audiogram(tuple(freqs), tuple(np.round(levels, 1))))
    return Listener(f"{severity}-{seed}-{index}", ears[0], ears[1])


def crosstalk_kernel_samples(seed: int, taps: int = 384) -> np.ndarray:
    """HRTF-like 4-channel kernel (LL, RL, LR, RR): a direct path and a
    delayed, head-shadowed cross path, each with a short decaying tail."""
    rng = rng_for(seed, _KERNEL)
    itd = int(rng.integers(10, 20))
    shadow = np.hanning(9) / np.hanning(9).sum()
    decay = np.exp(-np.arange(taps) / (taps / 6.0))
    paths = []
    for cross in (False, True, True, False):
        h = 0.01 * rng.normal(0.0, 1.0, taps) * decay
        if cross:
            start = itd
            gain = 10.0 ** (rng.uniform(-10.0, -6.0) / 20.0)
            h[start : start + shadow.size] += gain * shadow
        else:
            h[0] += 1.0
        paths.append(h)
    return np.stack(paths)


def write_kernel(seed: int, path: Path) -> Path:
    write_wav(AudioBuffer(crosstalk_kernel_samples(seed), RATE), path)
    return path


def listener_doc(who: Listener) -> dict:
    return {
        "id": who.id,
        "frequencies": list(who.left.frequencies),
        "left_db_hl": list(who.left.levels_db_hl),
        "right_db_hl": list(who.right.levels_db_hl),
    }


@dataclass(frozen=True)
class PlannedJob:
    """A manifest job as the benchmark planned it; ``expected_error`` names
    the exception type a planted-bad job must fail with."""

    song_id: str
    song: int
    listener: int
    gains: GainSpec
    expected_error: str | None


def write_batch(
    seed: int, root: Path, n_jobs: int, n_songs: int, k: int, seconds: float
) -> list[PlannedJob]:
    """Write songs as PCM-24 WAVs with K separator directories each, two
    shared listeners, per-job gains, and a manifest.

    Listener 0 is severe, so the compressor fires; listener 1 is mild. One
    job in eight is planted bad: its manifest entry names a stem directory
    that does not exist, or a mixture WAV cut short. The good jobs
    alternate listeners starting with the mild one, so which job is
    planted never changes how many good jobs fire the compressor.
    """
    rng = rng_for(seed, _BATCH)
    pcm24 = WavFormat(PCM_24, RATE, 2)
    for s in range(n_songs):
        truth = synth_song(seed, s, seconds)
        song_dir = root / f"song{s:02d}"
        song_dir.mkdir(parents=True, exist_ok=True)
        write_wav(mix_of(truth), song_dir / "mix.wav", pcm24)
        for j, stem_set in enumerate(separator_sets(truth, seed, s, k)):
            sep_dir = song_dir / f"sep{j}"
            sep_dir.mkdir(exist_ok=True)
            for name in ("vocals", "drums", "bass", "other"):
                write_wav(stem_set.track(name), sep_dir / f"{name}.wav", pcm24)
    for i, who in enumerate(batch_listeners(seed)):
        (root / f"listener{i}.json").write_text(json.dumps(listener_doc(who)))

    bad = set(rng.choice(n_jobs, size=max(1, n_jobs // 8), replace=False).tolist())
    planned, entries, good = [], [], 0
    for i in range(n_jobs):
        song = i % n_songs
        if i in bad:
            who = 0
        else:
            who, good = 1 - good % 2, good + 1
        song_id = f"job{i:02d}"
        gains = song_gains(seed, i)
        (root / f"{song_id}.gains.json").write_text(json.dumps(gains.as_dict()))
        entry = {
            "song_id": song_id,
            "mix": f"song{song:02d}/mix.wav",
            "stems": [f"song{song:02d}/sep{j}" for j in range(k)],
            "gains": f"{song_id}.gains.json",
            "listener": f"listener{who}.json",
            "out": f"out/{song_id}.wav",
        }
        expected = None
        if i in bad:
            if rng.random() < 0.5:
                entry["stems"][-1] = f"song{song:02d}/sep_missing"
                expected = "FileNotFoundError"
            else:
                whole = (root / entry["mix"]).read_bytes()
                entry["mix"] = f"{song_id}.truncated.wav"
                (root / entry["mix"]).write_bytes(whole[: len(whole) * 3 // 5])
                expected = "TruncatedFileError"
        entries.append(entry)
        planned.append(PlannedJob(song_id, song, who, gains, expected))
    (root / "manifest.json").write_text(json.dumps({"jobs": entries}, indent=1))
    return planned


def batch_listeners(seed: int) -> list[Listener]:
    """The two listeners every batch job shares: severe, then mild."""
    return [listener(seed, 0, "severe"), listener(seed, 1, "mild")]
