"""Float32-backed buffers, which ``read_wav`` returns for PCM-16/24 and
float32 files, give every public function that reads samples the same
float64 bits as a float64 copy of the same layout.

The inputs are float32 values, so each float64 copy holds exactly the same
numbers. Each layout is compared with its own copy: C order as built in
memory, F order as ``read_wav`` returns (the transpose of the file's
interleaved frames).
"""

from __future__ import annotations

import numpy as np
import pytest

from hearmix import audio
from hearmix import (
    FLOAT_32,
    PCM_16,
    PCM_24,
    AudioBuffer,
    CompressorParams,
    CrosstalkKernel,
    EnhanceOptions,
    FirFilter,
    GainSpec,
    NoisyOracleStemProvider,
    StemSet,
    WavFormat,
    apply_crosstalk,
    apply_fir,
    blend_other,
    build_reference,
    compress,
    compute_residual,
    count_clipped,
    design_nalr_fir,
    enhance,
    ensemble_average,
    evaluate_song,
    integrated_loudness,
    nalr_process,
    normalize_to_loudness,
    remix,
    salient_segments,
    sdr,
    write_wav,
)
from hearmix.stems import TRACK_NAMES
from util import TRACK_TONES, flat_listener

RATE = 44100
# a second and a bit: several front-end spans, FFT chunks and loudness
# blocks, each with a partial last one
FRAMES = RATE + 1234
GAINS = GainSpec(vocals=3.0, drums=-2.0, bass=-6.0, other=1.5)
MILD, SEVERE = flat_listener(20.0, "mild"), flat_listener(80.0, "severe")


class _Song:
    """One song's float32 values as buffers of a given precision and layout."""

    def __init__(self, tracks: dict[str, np.ndarray], dtype, order: str):
        self.tracks = tracks
        self.dtype, self.order = dtype, order

    def buffer(self, values: np.ndarray) -> AudioBuffer:
        return AudioBuffer(np.array(values, dtype=self.dtype, order=self.order), RATE)

    def stems(self, scale: float = 1.0) -> StemSet:
        return StemSet(
            **{name: self.buffer(np.float32(scale) * x) for name, x in self.tracks.items()}
        )

    def mix(self) -> AudioBuffer:
        return self.buffer(sum(self.tracks.values()))


@pytest.fixture
def tracks(rng) -> dict[str, np.ndarray]:
    """Stereo tracks of float32 values: one tone per track plus noise."""
    t = np.arange(FRAMES) / RATE
    tracks = {}
    for name, freq in TRACK_TONES.items():
        phase = rng.uniform(0.0, 2.0 * np.pi, (2, 1))
        tone = np.sin(2.0 * np.pi * freq * t + phase)
        tracks[name] = (0.3 * (0.7 * tone + 0.3 * rng.normal(0.0, 1.0, tone.shape))).astype(np.float32)
    return tracks


def _songs(tracks, order):
    """The float32-backed song and its float64 copy."""
    songs = _Song(tracks, np.float32, order), _Song(tracks, np.float64, order)
    assert songs[0].mix().samples.dtype == np.float32
    assert songs[0].mix().samples.flags[f"{order}_CONTIGUOUS"]
    return songs


def assert_same_bits(got, want) -> None:
    """Float64 results with the same bits: buffers, arrays or scalars."""
    got = got.samples if isinstance(got, AudioBuffer) else np.asarray(got)
    want = want.samples if isinstance(want, AudioBuffer) else np.asarray(want)
    assert got.dtype == want.dtype == np.float64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def _kernel(rng, one_tap: bool) -> CrosstalkKernel:
    """Dense paths, or a dense direct path and one-tap paths (the exact
    scaled shift, added to a filtered row and written alone)."""
    dense = [rng.normal(0.0, 0.3, 129) for _ in range(4)]
    if one_tap:
        for i, (tap, value) in zip((1, 2, 3), ((12, 0.4), (12, 0.35), (0, 0.9))):
            dense[i] = np.zeros(129)
            dense[i][tap] = value
    return CrosstalkKernel(*dense, sample_rate=RATE)


@pytest.mark.parametrize("order", ["C", "F"])
class TestFloat32InSameBitsOut:
    def test_levels(self, tracks, order):
        results = []
        for song in _songs(tracks, order):
            loud = song.buffer(np.float32(4.0) * sum(tracks.values()))
            clipped = count_clipped(loud)
            results.append(
                (
                    integrated_loudness(song.mix()).value,
                    normalize_to_loudness(song.mix(), -23.0),
                    clipped,
                    compress(loud, CompressorParams(attack_ms=0.5, release_ms=20.0)),
                )
            )
        (lufs32, norm32, clip32, comp32), (lufs64, norm64, clip64, comp64) = results
        assert_same_bits(lufs32, lufs64)
        assert_same_bits(norm32, norm64)
        assert clip32 == clip64 and max(clip32.per_channel) > 0
        assert_same_bits(comp32, comp64)

    @pytest.mark.parametrize("one_tap", [False, True], ids=["dense", "one_tap"])
    def test_apply_crosstalk(self, tracks, order, rng, one_tap):
        kernel = _kernel(rng, one_tap)
        out32, out64 = (apply_crosstalk(song.mix(), kernel) for song in _songs(tracks, order))
        assert_same_bits(out32, out64)

    def test_fir_and_nalr(self, tracks, order):
        dense = design_nalr_fir((250, 1000, 4000), (10.0, 20.0, 30.0), 129, RATE)
        one_tap = FirFilter(np.array([0.0, 0.0, 0.7, 0.0, 0.0]), RATE)
        for fir in (dense, [dense, one_tap]):
            out32, out64 = (apply_fir(song.mix(), fir) for song in _songs(tracks, order))
            assert_same_bits(out32, out64)
        out32, out64 = (nalr_process(song.mix(), SEVERE) for song in _songs(tracks, order))
        assert_same_bits(out32, out64)

    @pytest.mark.parametrize("weights", [None, (1.0, 3.0)], ids=["equal", "unequal"])
    def test_stems(self, tracks, order, weights):
        results = []
        for song in _songs(tracks, order):
            sets = [song.stems(), song.stems(0.75)]
            results.append(
                (
                    remix(sets[0], GAINS),
                    ensemble_average(sets, weights),
                    compute_residual(song.mix(), sets[0]),
                    blend_other(sets[1].other, song.stems().other),
                    salient_segments(sets[0], "vocals", 4410, 0.2),
                    NoisyOracleStemProvider(sets[0], 15.0, seed=3).stems(),
                )
            )
        for got, want in zip(*results):
            if isinstance(got, StemSet):
                for name in TRACK_NAMES:
                    assert_same_bits(got.track(name), want.track(name))
            elif isinstance(got, list):
                assert got and got == want
                assert_same_bits([s.energy_ratio for s in got], [s.energy_ratio for s in want])
            else:
                assert_same_bits(got, want)

    @pytest.mark.parametrize("listener", [MILD, SEVERE], ids=["mild", "severe"])
    @pytest.mark.parametrize("use_residual", [True, False], ids=["residual", "no_residual"])
    def test_enhance(self, tracks, order, listener, use_residual):
        options = EnhanceOptions(use_residual=use_residual, ensemble_weights=(2.0, 1.0))
        results = [
            enhance(song.mix(), [song.stems(), song.stems(0.5)], GAINS, listener, options)
            for song in _songs(tracks, order)
        ]
        (out32, report32), (out64, report64) = results
        assert_same_bits(out32, out64)
        assert report32.as_dict() == report64.as_dict()
        assert report32.compressor_applied == (listener is SEVERE)

    def test_reference_and_scores(self, tracks, order):
        results = []
        for song in _songs(tracks, order):
            truth, estimate = song.stems(), song.stems(0.9)
            reference = build_reference(truth, GAINS, MILD)
            results.append(
                (
                    reference,
                    sdr(reference, song.mix()).value,
                    evaluate_song(reference, song.mix(), truth, estimate),
                )
            )
        (ref32, sdr32, eval32), (ref64, sdr64, eval64) = results
        assert_same_bits(ref32, ref64)
        assert_same_bits(sdr32, sdr64)
        assert_same_bits(eval32.overall_db, eval64.overall_db)
        assert_same_bits(list(eval32.per_track_db.values()), list(eval64.per_track_db.values()))

    @pytest.mark.parametrize("depth", [PCM_16, PCM_24, FLOAT_32])
    def test_write_wav(self, tracks, order, tmp_path, depth):
        files = []
        for i, song in enumerate(_songs(tracks, order)):
            loud = np.float32(3.0) * sum(tracks.values())  # saturates in PCM
            loud[1, 7] = 3e38  # beyond full scale by more than a float32 can scale
            loud = song.buffer(loud)
            files.append(tmp_path / f"{i}.wav")
            write_wav(loud, files[-1], WavFormat(depth, RATE, 2))
        assert files[0].read_bytes() == files[1].read_bytes()


class TestPrivateKernels:
    """Scales that no public caller passes with float32 input."""

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_weighted_sum_with_python_float_scales(self, tracks, order):
        sums = []
        for dtype in (np.float32, np.float64):
            terms = [(0.3, np.array(x, dtype=dtype, order=order)) for x in tracks.values()]
            sums.append(audio._weighted_sum(terms, "overflow"))
        assert_same_bits(*sums)
