"""The stereo stages split over two threads: ``audio._by_rows`` runs row 1
of a stereo array on a helper thread when the caller is the main thread
and the process may run on two CPUs. The overlap-add of crosstalk and
``apply_fir`` splits a long song in time instead: its two "rows" are the
song's halves. Each mode is forced by patching the CPU count; the split
and the single call must give the same bits, the same errors and the same
numpy error state.
"""

from __future__ import annotations

import contextlib
import json
import threading

import numpy as np
import pytest

from hearmix import (
    AudioBuffer,
    CrosstalkKernel,
    EnhanceOptions,
    GainSpec,
    Listener,
    StemSet,
    apply_crosstalk,
    apply_fir,
    blend_other,
    build_reference,
    compute_residual,
    enhance,
    integrated_loudness,
    load_manifest,
    nalr_process,
    normalize_to_loudness,
    run_batch,
    write_wav,
)
from hearmix import audio, hearing, levels, pipeline
from hearmix.audio import _CHUNK_FRAMES
from hearmix.hearing import AUDIOMETRIC_FREQUENCIES, Audiogram, FirFilter
from util import (
    ZERO_LISTENER,
    exact_mix,
    flat_listener,
    peak_buffers,
    random_stem_sets,
    synth_stems,
    write_gains_file,
    write_listener_file,
    write_stems_dir,
)

MODES = {"one_call": 1, "split": 2}  # CPUs the process may run on
BY_ROWS = audio._by_rows
UNIT_GAINS = GainSpec(0.0, 0.0, 0.0, 0.0)
# several spans of the front end and the meter, and past the clip trigger
# for a 70 dB HL listener
N_FRAMES = 5 * _CHUNK_FRAMES + 17
# input samples per chunk of the overlap-add for a kernel of 384 taps
# (2048-point FFT), and a song long enough that it splits in time
XTALK_CHUNK = (audio._FFT_SIZE - 383) * audio._BLOCKS_PER_CHUNK
LONG_FRAMES = audio._SPLIT_CHUNKS * XTALK_CHUNK + 17
LOUD_RIGHT_EAR = Listener(
    "loud-right",
    Audiogram(AUDIOMETRIC_FREQUENCIES, (30.0,) * 6),
    Audiogram(AUDIOMETRIC_FREQUENCIES, (1.5e4,) * 6),
)
RIGHT_EAR_ERROR = "listener 'loud-right', right ear: NAL-R design: taps must be finite"
OVERFLOW_ERROR = (
    "listener 'test': loudness normalization and NAL-R overflow float64: "
    "samples contain NaN or Inf"
)


def set_cpus(monkeypatch, mode: str) -> None:
    monkeypatch.setattr(audio, "_cpu_count", lambda: MODES[mode])


@contextlib.contextmanager
def recording_rows():
    """Record each row block that the stages run, as (rows, whether it
    ran on the thread that entered this context)."""
    blocks: list[tuple[slice, bool]] = []
    caller = threading.get_ident()

    def by_rows(fn, n_rows):
        def recorded(rows):
            blocks.append((rows, threading.get_ident() == caller))
            return fn(rows)

        return BY_ROWS(recorded, n_rows)

    with pytest.MonkeyPatch.context() as patch:
        for module in (audio, levels, hearing):
            patch.setattr(module, "_by_rows", by_rows)
        yield blocks


@contextlib.contextmanager
def counting_transforms():
    """Record how many blocks each forward real FFT of a 2-D input (one
    block a row) transforms."""
    blocks: list[int] = []
    rfft = np.fft.rfft

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 2:
            blocks.append(np.shape(a)[0])
        return rfft(a, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.fft, "rfft", counted)
        yield blocks


def in_both_modes(monkeypatch, fn):
    """``fn()`` with one call per stage, then split: each result with the
    row blocks that the stages ran."""
    results = []
    for mode in MODES:
        set_cpus(monkeypatch, mode)
        with recording_rows() as blocks:
            results.append((fn(), blocks))
    return results


def assert_modes(blocks_one, blocks_split) -> None:
    """One call per stage in one mode, row 0 here and row 1 on the helper in the other."""
    assert blocks_one and all(rows == slice(None) and here for rows, here in blocks_one)
    assert len(blocks_split) == 2 * len(blocks_one)
    for rows, here in blocks_split:
        assert (rows, here) in ((slice(0, 1), True), (slice(1, 2), False))


def converted(buffer: AudioBuffer, dtype: str, order: str) -> AudioBuffer:
    return AudioBuffer(np.array(buffer.samples, dtype=dtype, order=order), buffer.sample_rate)


def song(rng, dtype: str, order: str, k: int = 2) -> tuple[AudioBuffer, list[StemSet]]:
    mix, sets = random_stem_sets(rng, N_FRAMES, k)
    sets = [StemSet(**{n: converted(t, dtype, order) for n, t in s.as_dict().items()}) for s in sets]
    return converted(mix, dtype, order), sets


def kernel(rng) -> CrosstalkKernel:
    responses = rng.normal(0, 0.2, (4, 384)) * np.exp(-np.arange(384) / 96)
    return CrosstalkKernel(*responses, sample_rate=44100)


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


LAYOUTS = pytest.mark.parametrize(
    "dtype, order", [(d, o) for d in ("float32", "float64") for o in "CF"]
)


class TestByRows:
    """The helper's own contract."""

    @pytest.mark.parametrize("mode", MODES)
    @pytest.mark.parametrize("n_rows", [1, 2, 3])
    def test_splits_only_stereo_with_two_cpus(self, monkeypatch, mode, n_rows):
        set_cpus(monkeypatch, mode)
        caller = threading.get_ident()
        calls = []
        result = audio._by_rows(lambda rows: calls.append((rows, threading.get_ident())) or rows, n_rows)
        if mode == "split" and n_rows == 2:
            assert result == [slice(0, 1), slice(1, 2)]
            assert sorted(calls, key=lambda c: c[0].start)[0] == (slice(0, 1), caller)
            assert {ident for _, ident in calls} - {caller}
        else:
            assert result == [slice(None)]
            assert calls == [(slice(None), caller)]

    def test_a_worker_thread_never_splits(self, monkeypatch):
        set_cpus(monkeypatch, "split")
        seen = []
        worker = threading.Thread(target=lambda: seen.append(audio._by_rows(lambda rows: rows, 2)))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        assert seen == [[slice(None)]]

    def test_row_0_error_first_and_the_helper_joined(self, monkeypatch):
        set_cpus(monkeypatch, "split")
        before = threading.active_count()

        def both_fail(rows):
            raise KeyError(rows.start)

        with pytest.raises(KeyError) as raised:
            audio._by_rows(both_fail, 2)
        assert raised.value.args == (0,)
        assert threading.active_count() == before

    def test_row_1_error_raised_after_row_0_finished(self, monkeypatch):
        set_cpus(monkeypatch, "split")
        before = threading.active_count()
        finished = []

        def second_fails(rows):
            if rows.start == 1:
                raise KeyError("row 1")
            finished.append(rows)

        with pytest.raises(KeyError, match="row 1"):
            audio._by_rows(second_fails, 2)
        assert finished == [slice(0, 1)]
        assert threading.active_count() == before

    def test_one_call_when_no_thread_starts(self, monkeypatch):
        class Unstartable(threading.Thread):
            def start(self):
                raise RuntimeError("can't start new thread")

        set_cpus(monkeypatch, "split")
        monkeypatch.setattr(audio.threading, "Thread", Unstartable)
        assert audio._by_rows(lambda rows: rows, 2) == [slice(None)]

    def test_errstate_reaches_the_helper(self, monkeypatch):
        # warnings are errors in this suite: a helper thread that lost the
        # caller's errstate would warn of the overflow
        set_cpus(monkeypatch, "split")
        big = np.full((2, 4), 1e300)
        with np.errstate(over="ignore"):
            squares = audio._by_rows(lambda rows: big[rows] * big[rows], 2)
        assert all(np.isinf(s).all() for s in squares)


class TestCpuCount:
    """The CPU affinity, cut to the whole CPUs of the cgroup's quota."""

    @pytest.mark.parametrize(
        "files, cpus",
        [
            ({}, 2),
            ({"cpu.max": "max 100000\n"}, 2),
            ({"cpu.max": "150000 100000\n"}, 1),
            ({"cpu.max": "50000 100000\n"}, 1),
            ({"cpu.max": "800000 100000\n"}, 2),
            ({"cpu.max": "garbage\n"}, 2),
            ({"cpu/cpu.cfs_quota_us": "-1\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
            ({"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 1),
            ({"cpu/cpu.cfs_quota_us": "200000\n", "cpu/cpu.cfs_period_us": "100000\n"}, 2),
            ({"cpu/cpu.cfs_quota_us": "100000\n", "cpu/cpu.cfs_period_us": "0\n"}, 2),
        ],
        ids=["none", "v2_max", "v2_1.5", "v2_0.5", "v2_8", "v2_garbage",
             "v1_none", "v1_1", "v1_2", "v1_zero_period"],
    )
    def test_quota(self, monkeypatch, tmp_path, files, cpus):
        for name, text in files.items():
            (tmp_path / name).parent.mkdir(exist_ok=True)
            (tmp_path / name).write_text(text)
        monkeypatch.setattr(audio, "_CGROUP", tmp_path)
        monkeypatch.setattr(audio.os, "sched_getaffinity", lambda pid: {0, 1})
        assert audio._cpu_count() == cpus


class TestSameBits:
    """Every split stage gives the bits of its single call."""

    @LAYOUTS
    @pytest.mark.parametrize(
        "level, compressed", [(70.0, True), (45.0, False)], ids=["compressor_fires", "no_compressor"]
    )
    def test_enhance(self, monkeypatch, rng, dtype, order, level, compressed):
        mix, sets = song(rng, dtype, order)
        gains, listener = GainSpec(3.0, -2.0, 1.0, 1.5), flat_listener(level)
        (one, blocks_one), (split, blocks_split) = in_both_modes(
            monkeypatch, lambda: enhance(mix, sets, gains, listener)
        )
        assert one[1] == split[1]
        assert one[1].compressor_applied == compressed
        assert same_bits(one[0].samples, split[0].samples)
        # split rows write a C-ordered array; one call keeps the input's layout
        assert split[0].samples.flags.c_contiguous
        assert one[0].samples.flags[f"{order}_CONTIGUOUS"]
        assert_modes(blocks_one, blocks_split)

    @LAYOUTS
    def test_build_reference(self, monkeypatch, rng, dtype, order):
        _, (truth, _) = song(rng, dtype, order)
        (one, blocks_one), (split, blocks_split) = in_both_modes(
            monkeypatch, lambda: build_reference(truth, GainSpec(3.0, -2.0, 1.0, 1.5), flat_listener(45.0))
        )
        assert same_bits(one.samples, split.samples)
        assert_modes(blocks_one, blocks_split)

    @LAYOUTS
    def test_residual_stages(self, monkeypatch, rng, dtype, order):
        mix, (predicted, _) = song(rng, dtype, order)

        def residual_stages():
            residual = compute_residual(mix, predicted)
            return residual, blend_other(predicted.other, residual)

        (one, blocks_one), (split, blocks_split) = in_both_modes(monkeypatch, residual_stages)
        for a, b in zip(one, split):
            assert same_bits(a.samples, b.samples)
        assert_modes(blocks_one, blocks_split)

    @LAYOUTS
    @pytest.mark.parametrize("dense", [True, False], ids=["dense", "one_tap"])
    def test_apply_crosstalk(self, monkeypatch, rng, dtype, order, dense):
        samples = np.array(rng.normal(0.0, 0.2, (2, LONG_FRAMES)), dtype, order=order)
        mix = AudioBuffer(samples, 44100)
        paths = kernel(rng) if dense else CrosstalkKernel(
            [0, 0.9, 0], [0, 0, 0.2], [0.1, 0, 0], [0, 0.8, 0], sample_rate=44100
        )
        runs = []
        for mode in MODES:
            set_cpus(monkeypatch, mode)
            with recording_rows() as blocks, counting_transforms() as transformed:
                runs.append((apply_crosstalk(mix, paths), blocks, sum(transformed)))
        (one, blocks_one, transformed_one), (split, blocks_split, transformed_split) = runs
        assert same_bits(one.samples, split.samples)
        assert split.samples.flags.c_contiguous
        if dense:
            # the whole song in one call, or its halves in time, the second
            # on the helper; each input block is transformed once, and the
            # second half recomputes the block before it, once per input
            assert blocks_one == [(slice(None), True)]
            assert sorted(blocks_split, key=lambda b: b[0].start) == [
                (slice(0, 1), True), (slice(1, 2), False)
            ]
            assert transformed_one == 2 * -(-LONG_FRAMES // (audio._FFT_SIZE - 383))
            assert transformed_split == transformed_one + 2
        else:  # exact scaled shifts: no overlap-add to split
            assert blocks_one == blocks_split == []

    @pytest.mark.parametrize("dtype, order", [("float64", "C"), ("float32", "F")])
    def test_apply_fir(self, monkeypatch, rng, dtype, order):
        # out of place, each channel's call splits in time: 16 chunks of
        # blocks shorter than a 2048-point FFT
        n_frames = audio._SPLIT_CHUNKS * audio._BLOCKS_PER_CHUNK * audio._FFT_SIZE
        x = AudioBuffer(np.array(rng.normal(0.0, 0.2, (2, n_frames)), dtype, order=order), 44100)
        firs = []
        for taps in (383, 201):
            half = rng.normal(0.0, 0.1, taps // 2 + 1)
            firs.append(FirFilter(np.concatenate([half, half[-2::-1]]), 44100))
        (one, blocks_one), (split, blocks_split) = in_both_modes(
            monkeypatch, lambda: apply_fir(x, firs)
        )
        assert same_bits(one.samples, split.samples)
        assert blocks_one == [(slice(None), True)] * 2
        assert_modes(blocks_one, blocks_split)

    def test_apply_crosstalk_split_holds_few_buffers(self, monkeypatch, rng):
        # the shortest song that splits: each thread's chunk scratch is at
        # most a fifth of the output, 1.33-1.41 in all
        set_cpus(monkeypatch, "split")
        mix = AudioBuffer(rng.normal(0.0, 0.2, (2, audio._SPLIT_CHUNKS * XTALK_CHUNK)), 44100)
        paths = kernel(rng)
        with recording_rows() as blocks:
            _, peak = peak_buffers(mix, apply_crosstalk, mix, paths)
        assert len(blocks) == 2
        assert peak <= 1.5

    @LAYOUTS
    def test_loudness_stages(self, monkeypatch, rng, dtype, order):
        mix, _ = song(rng, dtype, order)
        (one, blocks_one), (split, blocks_split) = in_both_modes(
            monkeypatch, lambda: (integrated_loudness(mix), normalize_to_loudness(mix, -20.0))
        )
        assert one[0] == split[0]
        assert same_bits(one[1].samples, split[1].samples)
        assert_modes(blocks_one, blocks_split)

    @LAYOUTS
    def test_nalr_process(self, monkeypatch, rng, dtype, order):
        mix, _ = song(rng, dtype, order)
        (one, blocks_one), (split, blocks_split) = in_both_modes(
            monkeypatch, lambda: nalr_process(mix, flat_listener(60.0))
        )
        assert same_bits(one.samples, split.samples)
        assert split.samples.flags.c_contiguous
        assert_modes(blocks_one, blocks_split)

    def test_errstate_reaches_the_helper_in_the_stages(self, monkeypatch, rng):
        # the meter's K-weighted squares of a 1e300 song overflow under the
        # caller's errstate(over="ignore"), and warnings are errors here
        set_cpus(monkeypatch, "split")
        truth = StemSet(
            **{n: AudioBuffer(1e300 * t.samples, 44100) for n, t in synth_stems(rng).as_dict().items()}
        )
        mix = exact_mix(truth)
        assert integrated_loudness(mix).is_defined
        out, _ = enhance(mix, [truth], UNIT_GAINS, ZERO_LISTENER)
        assert np.isfinite(out.samples).all()


class TestErrors:
    """An error on one row surfaces as the single call raises it, and names
    the listener, the ear or the stage."""

    @pytest.mark.parametrize("mode", MODES)
    def test_front_end_overflow_on_the_right_channel(self, monkeypatch, rng, mode):
        set_cpus(monkeypatch, mode)
        before = threading.active_count()
        truth = synth_stems(rng)
        vocals = truth.vocals.samples.copy()
        vocals[1] = 1e308  # times 3.5 at +12 dB, less half the residual repair
        loud = StemSet(AudioBuffer(vocals, 44100), truth.drums, truth.bass, truth.other)
        with pytest.raises(ValueError, match=r"^the remix at gains .* overflows float64$"):
            enhance(exact_mix(truth), [loud], GainSpec(12.0, 0.0, 0.0, 0.0), ZERO_LISTENER)
        assert threading.active_count() == before

    @pytest.mark.parametrize("mode", MODES)
    def test_right_ear_design_names_listener_and_ear(self, monkeypatch, rng, mode):
        set_cpus(monkeypatch, mode)
        before = threading.active_count()
        truth = synth_stems(rng)
        with pytest.raises(ValueError) as raised:
            enhance(exact_mix(truth), [truth], UNIT_GAINS, LOUD_RIGHT_EAR)
        assert str(raised.value) == RIGHT_EAR_ERROR
        with pytest.raises(ValueError) as raised:
            build_reference(truth, UNIT_GAINS, LOUD_RIGHT_EAR)
        assert str(raised.value) == RIGHT_EAR_ERROR
        assert threading.active_count() == before

    @pytest.mark.parametrize("mode", MODES)
    def test_overflowing_chain_names_listener_and_stages(self, monkeypatch, rng, mode):
        # stems peaking near 1e306 (5e306 times 0.2): NAL-R for 60 dB HL leaves float64
        set_cpus(monkeypatch, mode)
        truth = synth_stems(rng)
        truth = StemSet(**{n: AudioBuffer(5e306 * t.samples, 44100) for n, t in truth.as_dict().items()})
        with pytest.raises(ValueError) as raised:
            enhance(exact_mix(truth), [truth], UNIT_GAINS, flat_listener(60.0))
        assert str(raised.value) == OVERFLOW_ERROR
        with pytest.raises(ValueError) as raised:
            build_reference(truth, UNIT_GAINS, flat_listener(60.0))
        assert str(raised.value) == OVERFLOW_ERROR


class TestBatch:
    """A batch on one thread runs on the caller; pool workers never split."""

    def _manifest(self, tmp_path, rng, listener):
        """Three jobs of one song for ``listener``."""
        truth = synth_stems(rng, seconds=0.5)
        write_stems_dir(truth, tmp_path / "song" / "stems")
        write_wav(exact_mix(truth), tmp_path / "song" / "mix.wav")
        write_gains_file(tmp_path / "gains.json", vocals=3.0)
        write_listener_file(tmp_path / "listener.json", listener)
        jobs = [
            {
                "song_id": f"job{i}",
                "mix": "song/mix.wav",
                "stems": ["song/stems"],
                "gains": "gains.json",
                "listener": "listener.json",
                "out": f"out/job{i}.wav",
            }
            for i in range(3)
        ]
        (tmp_path / "manifest.json").write_text(json.dumps({"jobs": jobs}))
        return load_manifest(tmp_path / "manifest.json")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_same_files_and_reports_split_or_not(self, monkeypatch, tmp_path, rng, workers):
        manifest = self._manifest(tmp_path, rng, flat_listener(45.0))
        set_cpus(monkeypatch, "split")
        with recording_rows() as blocks:
            reports = run_batch(manifest, workers=workers)
        if workers == 1:  # on this (the main) thread: the stages split
            assert blocks and all((rows, here) in ((slice(0, 1), True), (slice(1, 2), False)) for rows, here in blocks)
        else:  # pool workers: one call per stage, off this thread
            assert blocks and all(rows == slice(None) and not here for rows, here in blocks)
        outputs = [(tmp_path / "out" / f"job{i}.wav").read_bytes() for i in range(3)]
        # the same job with one call per stage writes the same file
        set_cpus(monkeypatch, "one_call")
        alone = pipeline.run_job(manifest.jobs[0], manifest.base_dir, EnhanceOptions())
        assert outputs == [(tmp_path / "out" / "job0.wav").read_bytes()] * 3
        assert [r.as_dict() for r in reports] == [
            {**alone.as_dict(), "song_id": f"job{i}"} for i in range(3)
        ]

    def test_one_worker_off_the_main_thread_never_splits(self, monkeypatch, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng, flat_listener(45.0))
        set_cpus(monkeypatch, "split")
        with recording_rows() as blocks:
            caller = threading.Thread(target=run_batch, args=(manifest, 1))
            caller.start()
            caller.join(timeout=60)
        assert not caller.is_alive()
        assert blocks and all(rows == slice(None) and not here for rows, here in blocks)

    @pytest.mark.parametrize("mode", MODES)
    def test_report_names_listener_and_ear(self, monkeypatch, tmp_path, rng, mode):
        manifest = self._manifest(tmp_path, rng, LOUD_RIGHT_EAR)
        set_cpus(monkeypatch, mode)
        for workers in (1, 2):
            reports = run_batch(manifest, workers=workers)
            assert [r.error for r in reports] == [f"ValueError: {RIGHT_EAR_ERROR}"] * 3
        with pytest.raises(ValueError) as raised:
            pipeline.run_job(manifest.jobs[0], manifest.base_dir, EnhanceOptions())
        assert str(raised.value) == RIGHT_EAR_ERROR
