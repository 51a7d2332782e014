"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as the
suite executes. Expected values marked as derived were computed from
independent oracles (closed-form arithmetic, Monte Carlo noise statistics,
direct DTFT response measurement) before being frozen here.
"""

from __future__ import annotations

import json
import time
from dataclasses import replace

import numpy as np

from hearmix import (
    AudioBuffer,
    CrosstalkKernel,
    EnhanceOptions,
    GainSpec,
    NoisyOracleStemProvider,
    StemSet,
    apply_crosstalk,
    blend_other,
    compute_residual,
    design_nalr_fir,
    enhance,
    ensemble_average,
    integrated_loudness,
    nalr_insertion_gains,
    normalize_to_loudness,
    read_wav,
    sdr,
    write_wav,
)
from hearmix.cli import EXIT_PARTIAL, main
from hearmix.hearing import AUDIOMETRIC_FREQUENCIES, Audiogram
from util import (
    ZERO_LISTENER,
    exact_mix,
    flat_listener,
    make_buffer,
    quantize,
    response_db,
    sine_buffer,
    synth_stems,
    write_gains_file,
    write_listener_file,
    write_stems_dir,
)

UNIT_GAINS = GainSpec(0.0, 0.0, 0.0, 0.0)
NO_COMP = EnhanceOptions(use_compressor_heuristic=False)


def _verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{criterion}: {detail}"


def _scaled_sdr(reference: AudioBuffer, estimate: AudioBuffer) -> float:
    """SDR against the least-squares-scaled reference (delay-free chain)."""
    alpha = float(
        np.sum(reference.samples * estimate.samples) / np.sum(reference.samples**2)
    )
    return sdr(reference.with_samples(alpha * reference.samples), estimate).value


def test_criterion_1_pipeline_identity():
    rng = np.random.default_rng(11)
    stems = synth_stems(rng, seconds=30.0)
    mix = exact_mix(stems)

    start = time.perf_counter()
    enhanced, report = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
    runtime = time.perf_counter() - start

    target = integrated_loudness(mix).value
    expected = normalize_to_loudness(mix, target)
    score = sdr(expected, enhanced).value
    _verdict(
        "criterion-1 pipeline-identity",
        score >= 60.0 and runtime < 5.0,
        f"SDR(enhanced, normalized mix) = {score:.1f} dB (>= 60), "
        f"runtime = {runtime:.2f} s (< 5)",
    )


def test_criterion_2_ensemble_gain():
    # averaging K=4 sets with independent equal-power noise cuts noise power
    # by 4: expected SDR gain 10*log10(4) = 6.02 dB per track
    gains = {name: [] for name in ("vocals", "drums", "bass", "other")}
    for trial in range(50):
        rng = np.random.default_rng(300 + trial)
        truth = synth_stems(rng, seconds=0.5)
        sets = [
            NoisyOracleStemProvider(truth, 10.0, seed=7000 + 10 * trial + k).stems()
            for k in range(4)
        ]
        averaged = ensemble_average(sets)
        for name in gains:
            individual = np.mean(
                [sdr(truth.track(name), s.track(name)).value for s in sets]
            )
            combined = sdr(truth.track(name), averaged.track(name)).value
            gains[name].append(combined - individual)

    means = {name: float(np.mean(v)) for name, v in gains.items()}
    ok = all(abs(m - 6.02) <= 1.0 for m in means.values())
    detail = ", ".join(f"{name} +{m:.2f} dB" for name, m in means.items())
    _verdict("criterion-2 ensemble-gain", ok, f"50-trial mean gains: {detail} (6.02 ± 1)")


def test_criterion_3_residual_ablation():
    # near-perfect v/d/b: per-track noise at sigma^2/3 makes the residual's
    # error power equal the other-prediction's sigma^2; averaging two
    # independent equal-power errors halves error power: +3.01 dB
    deltas = []
    for trial in range(10):
        rng = np.random.default_rng(500 + trial)
        truth = synth_stems(rng, seconds=1.0)
        mix = exact_mix(truth)
        sigma2 = float(np.mean(truth.other.samples**2)) / 10.0 ** (20.0 / 10.0)
        shape = truth.other.samples.shape
        corrupted = StemSet(
            vocals=truth.vocals.with_samples(
                truth.vocals.samples + rng.normal(0, np.sqrt(sigma2 / 3), shape)
            ),
            drums=truth.drums.with_samples(
                truth.drums.samples + rng.normal(0, np.sqrt(sigma2 / 3), shape)
            ),
            bass=truth.bass.with_samples(
                truth.bass.samples + rng.normal(0, np.sqrt(sigma2 / 3), shape)
            ),
            other=truth.other.with_samples(
                truth.other.samples + rng.normal(0, np.sqrt(sigma2), shape)
            ),
        )
        predicted = ensemble_average([corrupted])
        blended = blend_other(predicted.other, compute_residual(mix, predicted))
        deltas.append(
            sdr(truth.other, blended).value - sdr(truth.other, predicted.other).value
        )
    mean_delta = float(np.mean(deltas))

    # with perfect stems the residual equals the prediction: bit-identical
    rng = np.random.default_rng(42)
    stems = synth_stems(rng, seconds=0.5)
    mix = exact_mix(stems)
    on, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
    off, _ = enhance(
        mix,
        [stems],
        UNIT_GAINS,
        ZERO_LISTENER,
        EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
    )
    identical = bool(np.array_equal(on.samples, off.samples))

    ok = abs(mean_delta - 3.01) <= 0.5 and identical
    _verdict(
        "criterion-3 residual-ablation",
        ok,
        f"other-track gain = {mean_delta:+.2f} dB (3.01 ± 0.5), "
        f"perfect-stem variants bit-identical = {identical}",
    )


def test_criterion_4_compressor_ablation():
    # (a) a loud program through a severe-loss prescription clips heavily;
    # the compressed output must beat plain hard clipping against the
    # unclipped linear-chain output (least-squares-scaled)
    rng = np.random.default_rng(77)
    stems = synth_stems(rng, seconds=3.0, peak=0.22)
    mix = exact_mix(stems)
    listener = flat_listener(60.0)
    unclipped, _ = enhance(mix, [stems], UNIT_GAINS, listener, NO_COMP)
    compressed, report = enhance(mix, [stems], UNIT_GAINS, listener)
    hard_clipped = unclipped.with_samples(np.clip(unclipped.samples, -1.0, 1.0))

    fired = report.compressor_applied and max(report.clipped_samples) >= 25_000
    peak_ok = float(np.max(np.abs(compressed.samples))) <= 1.0
    sdr_compressed = _scaled_sdr(unclipped, compressed)
    sdr_hard = _scaled_sdr(unclipped, hard_clipped)

    # (b) boundary semantics with an exactly countable construction: spikes
    # survive the transparent zero-loss chain bit-for-bit
    def planted_report(n_spikes):
        rng2 = np.random.default_rng(88)
        base = synth_stems(rng2, seconds=2.0, peak=0.1)
        spiked = np.array(base.other.samples)
        spiked[0, 5000 : 5000 + n_spikes] += 2.0
        planted = replace(base, other=base.other.with_samples(quantize(spiked)))
        planted_mix = exact_mix(planted)
        _, rep = enhance(planted_mix, [planted], UNIT_GAINS, ZERO_LISTENER)
        return rep

    at_threshold = planted_report(25_000)
    below_threshold = planted_report(24_999)
    boundary_ok = (
        at_threshold.clipped_samples[0] == 25_000
        and at_threshold.compressor_applied
        and below_threshold.clipped_samples[0] == 24_999
        and not below_threshold.compressor_applied
    )

    ok = fired and peak_ok and sdr_compressed > sdr_hard and boundary_ok
    _verdict(
        "criterion-4 compressor-ablation",
        ok,
        f"clipped = {max(report.clipped_samples)} (>= 25000), fired = {report.compressor_applied}, "
        f"peak <= 1: {peak_ok}, SDR compressed {sdr_compressed:.1f} dB > hard-clip {sdr_hard:.1f} dB, "
        f"boundary 25000 -> {at_threshold.compressor_applied} / 24999 -> {below_threshold.compressor_applied}",
    )


def test_criterion_5_nalr_realization():
    flat60 = Audiogram(AUDIOMETRIC_FREQUENCIES, (60.0,) * 6)
    prescribed = nalr_insertion_gains(flat60)
    fir = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, prescribed, 141, 44100)
    measured = response_db(fir.taps, AUDIOMETRIC_FREQUENCIES, 44100)
    anchor_error = float(np.max(np.abs(measured - prescribed)))

    transparent = design_nalr_fir(AUDIOMETRIC_FREQUENCIES, np.zeros(6), 141, 44100)
    grid = np.linspace(100.0, 16000.0, 800)
    flat_deviation = float(np.max(np.abs(response_db(transparent.taps, grid, 44100))))

    ok = anchor_error <= 1.0 and flat_deviation <= 0.5
    _verdict(
        "criterion-5 nalr-realization",
        ok,
        f"flat-60 anchor error = {anchor_error:.3f} dB (<= 1), "
        f"zero-loss flatness = {flat_deviation:.3f} dB (<= 0.5 over 100 Hz..16 kHz)",
    )


def test_criterion_6_loudness_calibration(rng):
    tone = sine_buffer(997.0, 10.0)
    tone = tone.with_samples(np.stack([tone.samples[0], np.zeros(tone.n_frames)]))
    reading = integrated_loudness(tone).value
    calibration_ok = abs(reading - (-3.01)) <= 0.1

    programs = [
        make_buffer(0.1 * rng.normal(0, 1, (2, 3 * 44100))),
        sine_buffer(440.0, 3.0, amplitude=0.3),
    ]
    errors = []
    for program in programs:
        for target in (-30.0, -23.0, -13.0):
            normalized = normalize_to_loudness(program, target)
            errors.append(abs(integrated_loudness(normalized).value - target))
    normalize_ok = max(errors) <= 0.1

    ok = calibration_ok and normalize_ok
    _verdict(
        "criterion-6 loudness-calibration",
        ok,
        f"997 Hz sine reads {reading:.3f} LUFS (-3.01 ± 0.1), "
        f"worst normalization miss = {max(errors):.4f} LU (<= 0.1)",
    )


def test_criterion_7_crosstalk_superposition(rng):
    stems = synth_stems(rng, seconds=0.3)
    mix = exact_mix(stems)
    worst = 0.0
    for length in (64, 400):  # direct and overlap-add convolution paths
        responses = rng.normal(0, 0.3, (4, length)) * np.exp(
            -np.arange(length) / (length / 3)
        )
        kernel = CrosstalkKernel(*responses, sample_rate=44100)
        whole = apply_crosstalk(mix, kernel).samples
        parts = sum(
            apply_crosstalk(stems.track(name), kernel).samples
            for name in ("vocals", "drums", "bass", "other")
        )
        worst = max(worst, float(np.max(np.abs(whole - parts)) / np.max(np.abs(parts))))
    _verdict(
        "criterion-7 crosstalk-superposition",
        worst <= 1e-9,
        f"max relative deviation = {worst:.2e} (<= 1e-9)",
    )


def test_criterion_8_sdr_closed_forms(rng):
    x = make_buffer(rng.normal(0, 0.3, (2, 20000)))
    half = sdr(x, x.with_samples(0.5 * x.samples)).value
    capped = sdr(x, x).value
    ok = abs(half - 6.02) <= 0.01 and capped == 100.0
    _verdict(
        "criterion-8 sdr-closed-forms",
        ok,
        f"sdr(x, 0.5x) = {half:.4f} dB (6.02 ± 0.01), sdr(x, x) = {capped:.0f} (cap)",
    )


def test_criterion_9_batch_robustness(tmp_path, rng):
    write_gains_file(tmp_path / "gains.json")
    write_listener_file(tmp_path / "listener.json", ZERO_LISTENER)
    jobs = []
    for i in range(3):
        stems = synth_stems(rng, seconds=0.4)
        song_dir = tmp_path / f"song{i}"
        write_stems_dir(stems, song_dir / "stems")
        write_wav(exact_mix(stems), song_dir / "mix.wav")
        jobs.append(
            {
                "song_id": f"song{i}",
                "mix": f"song{i}/mix.wav",
                "stems": [f"song{i}/stems"],
                "gains": "gains.json",
                "listener": "listener.json",
                "out": f"out/song{i}.wav",
            }
        )
    (tmp_path / "song1" / "stems" / "bass.wav").unlink()  # break the middle job
    (tmp_path / "manifest.json").write_text(json.dumps({"jobs": jobs}))

    rc = main(
        [
            "batch",
            "--manifest", str(tmp_path / "manifest.json"),
            "--report", str(tmp_path / "report.json"),
        ]
    )
    reports = json.loads((tmp_path / "report.json").read_text())
    outputs = [
        (tmp_path / "out" / f"song{i}.wav").exists() for i in range(3)
    ]
    errors = [r for r in reports if r["error"] is not None]
    ok = (
        rc == EXIT_PARTIAL
        and outputs == [True, False, True]
        and len(errors) == 1
        and errors[0]["song_id"] == "song1"
        and read_wav(tmp_path / "out" / "song0.wav").channels == 2
    )
    _verdict(
        "criterion-9 batch-robustness",
        ok,
        f"exit code = {rc} (partial), outputs = {outputs}, recorded errors = {len(errors)}",
    )
