from __future__ import annotations

import json
import re
import sys
import threading
import tracemalloc
import weakref
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from hearmix import (
    MUTE,
    STAGE_ORDER,
    AlignmentError,
    ClipReport,
    CompressorParams,
    CrosstalkKernel,
    EnhanceOptions,
    GainSpec,
    Listener,
    NoisyOracleStemProvider,
    StemSet,
    UndefinedLoudnessError,
    apply_crosstalk,
    blend_other,
    build_reference,
    compress,
    compute_residual,
    count_clipped,
    db_to_linear,
    enhance,
    ensemble_average,
    integrated_loudness,
    load_gains,
    load_manifest,
    nalr_process,
    normalize_to_loudness,
    read_wav,
    remix,
    run_batch,
    sdr,
    should_compress,
    write_wav,
)
from hearmix import hearing, levels, pipeline, stems as stems_module
from hearmix.cli import EXIT_FAILURE, main
from hearmix.hearing import AUDIOMETRIC_FREQUENCIES, Audiogram
from hearmix.audio import _CHUNK_FRAMES
from hearmix.stems import TRACK_NAMES
from util import (
    CHUNK_EDGES,
    SPAN_EDGES,
    ZERO_LISTENER,
    assert_read_only,
    exact_mix,
    flat_listener,
    make_buffer,
    peak_buffers,
    random_stem_sets,
    synth_stems,
    write_gains_file,
    write_listener_file,
    write_stems_dir,
)

UNIT_GAINS = GainSpec(0.0, 0.0, 0.0, 0.0)
NO_COMP = EnhanceOptions(use_compressor_heuristic=False)


def _is_subsequence(seq, full):
    it = iter(full)
    return all(item in it for item in seq)


class TestGainSpec:
    def test_mute_representation(self):
        spec = GainSpec(MUTE, 0.0, 3.0, -2.5)
        assert spec.vocals == float("-inf")
        assert spec.as_dict()["vocals"] == "mute"
        assert spec.as_dict()["bass"] == 3.0

    def test_rejects_nan_and_plus_inf(self):
        with pytest.raises(ValueError):
            GainSpec(float("nan"), 0.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            GainSpec(float("inf"), 0.0, 0.0, 0.0)

    @pytest.mark.parametrize("value", ["x", "0", None, True, [0.0]], ids=repr)
    def test_rejects_a_gain_that_is_not_a_number(self, value):
        with pytest.raises(
            ValueError, match=r"^vocals gain \(or -inf to mute\) must be a finite number"
        ):
            GainSpec(value, 0.0, 0.0, 0.0)

    def test_rejects_a_gain_whose_linear_factor_overflows(self):
        # 10**(6165/20) is about 1.8e308, the largest float's neighbourhood
        assert np.isfinite(GainSpec(0.0, 0.0, 6165.0, 0.0).bass)
        with pytest.raises(ValueError, match=r"^bass gain of 7000\.0 dB has no finite linear factor"):
            GainSpec(0.0, 0.0, 7000.0, 0.0)

    def test_gain_of_an_unknown_track_rejected(self):
        with pytest.raises(ValueError, match="unknown track 'guitar'"):
            UNIT_GAINS.gain("guitar")

    def test_load_gains(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps({"vocals": "mute", "drums": -3, "bass": 0, "other": 2.5}))
        spec = load_gains(path)
        assert spec.vocals == MUTE
        assert spec.drums == -3.0
        assert spec.other == 2.5

    def test_load_gains_rejects_missing_track(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps({"vocals": 0, "drums": 0, "bass": 0}))
        with pytest.raises(ValueError, match="missing"):
            load_gains(path)

    def test_load_gains_rejects_bad_value(self, tmp_path):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps({"vocals": "loud", "drums": 0, "bass": 0, "other": 0}))
        with pytest.raises(ValueError, match="vocals"):
            load_gains(path)

    @pytest.mark.parametrize("doc", [[0, 0, 0, 0], 0, "mute"], ids=["array", "number", "string"])
    def test_load_gains_rejects_a_document_that_is_not_an_object(self, tmp_path, doc):
        path = tmp_path / "gains.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"gains\.json: gains file must hold a JSON object"):
            load_gains(path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"{",
            b"\xff\xfe{}",
            b'{"vocals": NaN, "drums": 0, "bass": 0, "other": 0}',
            b'{"vocals": 0, "drums": Infinity, "bass": 0, "other": 0}',
            b'{"vocals": 0, "drums": 0, "bass": -Infinity, "other": 0}',
            b"[" * 200_000,
            b'{"vocals": ' * 200_000,
        ],
        ids=["bad_json", "not_utf8", "nan", "infinity", "minus_infinity", "deep_arrays",
             "deep_objects"],
    )
    def test_load_gains_undecodable_file_names_the_file(self, tmp_path, raw):
        path = tmp_path / "broken_gains.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="broken_gains.json"):
            load_gains(path)

    def test_load_gains_overflowing_linear_factor_names_file_and_field(self, tmp_path):
        path = tmp_path / "loud_gains.json"
        write_gains_file(path, vocals=7000)
        with pytest.raises(ValueError, match=r"loud_gains\.json: vocals gain of 7000\.0 dB"):
            load_gains(path)

    @pytest.mark.parametrize(
        "number",
        ["-1e999", "1e999", "1" + "0" * 400, "-" + "9" * 400],
        ids=["minus_1e999", "1e999", "400_digits", "minus_400_digits"],
    )
    def test_load_gains_number_out_of_range_names_file_and_field(self, tmp_path, number):
        # only "mute" mutes: -1e999 parses to -inf, and must not
        path = tmp_path / "range_gains.json"
        path.write_text(f'{{"vocals": 0, "drums": {number}, "bass": 0, "other": 0}}')
        with pytest.raises(ValueError, match=r"range_gains\.json: gain for drums must be a finite number"):
            load_gains(path)


class TestRemix:
    def test_unit_gains_reproduce_mix(self, rng):
        stems = synth_stems(rng, seconds=0.1)
        mix = exact_mix(stems)
        np.testing.assert_array_equal(remix(stems, UNIT_GAINS).samples, mix.samples)

    def test_mute_removes_track_exactly(self, rng):
        stems = synth_stems(rng, seconds=0.1)
        mix = exact_mix(stems)
        out = remix(stems, GainSpec(MUTE, 0.0, 0.0, 0.0))
        np.testing.assert_array_equal(out.samples, mix.samples - stems.vocals.samples)

    def test_six_db_boost_doubles_track(self, rng):
        stems = synth_stems(rng, seconds=0.1)
        mix = exact_mix(stems)
        out = remix(stems, GainSpec(6.0206, 0.0, 0.0, 0.0))
        expected = mix.samples + stems.vocals.samples
        err = np.linalg.norm(out.samples - expected)
        assert err <= 1e-4 * np.linalg.norm(expected)


def whole_song_remix(stems, gains):
    """``remix`` as one whole-song sum: ``g*vocals``, then ``+= g*x`` for
    drums, bass and other."""
    first, *rest = TRACK_NAMES
    acc = db_to_linear(gains.gain(first)) * stems.track(first).samples
    for name in rest:
        acc += db_to_linear(gains.gain(name)) * stems.track(name).samples
    return acc


CHUNK_GAINS = [UNIT_GAINS, GainSpec(3.0, MUTE, -4.5, 1.25), GainSpec(MUTE, MUTE, MUTE, MUTE)]
CHUNK_GAIN_IDS = ["unit", "mixed_mute", "all_mute"]


class TestRemixChunks:
    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("gains", CHUNK_GAINS, ids=CHUNK_GAIN_IDS)
    @pytest.mark.parametrize("n_frames", CHUNK_EDGES)
    def test_matches_the_whole_song_formula(self, rng, n_frames, gains, order):
        _, (stems,) = random_stem_sets(rng, n_frames, 1, order)
        mixed = remix(stems, gains)
        assert_read_only(mixed)
        out = mixed.samples
        expected = whole_song_remix(stems, gains)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))


def _composed_front_end(mix, sets, gains, weights, use_residual):
    """ensemble_average → compute_residual → blend_other → remix."""
    averaged = ensemble_average(sets, weights)
    if use_residual:
        repaired = blend_other(averaged.other, compute_residual(mix, averaged))
        averaged = replace(averaged, other=repaired)
    return remix(averaged, gains).samples


def whole_song_front_end(mix, sets, gains, weights, use_residual):
    """The front end's weighted sum over whole songs: track ``t`` of set
    ``k`` scaled by ``c_t * (w_k / W)``, where ``c_t`` is the track's gain,
    or with residual repair ``g_t - g_o/2`` ("other": ``g_o/2``), and the
    mix by ``g_o/2``; summed in ``TRACK_NAMES`` order, sets in order within
    a track, the mix last."""
    w = np.ones(len(sets)) if weights is None else np.asarray(weights, dtype=np.float64)
    total = w.sum()
    scales = {name: db_to_linear(gains.gain(name)) for name in TRACK_NAMES}
    half_other = scales["other"] / 2
    terms = []
    for name in TRACK_NAMES:
        scale = scales[name]
        if use_residual:
            scale = half_other if name == "other" else scale - half_other
        terms += [(scale * (wk / total), s.track(name).samples) for wk, s in zip(w, sets)]
    if use_residual:
        terms.append((half_other, mix.samples))
    (first_scale, first), *rest = terms
    acc = first_scale * first
    for scale, x in rest:
        acc += scale * x
    return acc


def assert_within_rounding(out, expected):
    """``out`` differs from ``expected`` by at most 16 eps of ``expected``'s peak."""
    bound = 16 * np.finfo(np.float64).eps * np.max(np.abs(expected), initial=0.0)
    assert np.all(np.abs(out - expected) <= bound)


class TestFrontEnd:
    """The one-pass front end against a whole-song oracle of the same
    weighted sum, and against the composition of the public stages, which
    rounds in other places."""

    @pytest.mark.parametrize("use_residual", [True, False], ids=["residual", "no_residual"])
    @pytest.mark.parametrize(
        "gains",
        [UNIT_GAINS, GainSpec(3.0, MUTE, -4.5, 1.25), GainSpec(MUTE, MUTE, MUTE, MUTE)],
        ids=["unit", "mixed_mute", "all_mute"],
    )
    @pytest.mark.parametrize(
        "k, weights", [(1, None), (3, None), (3, (0.2, 1.5, 0.7))], ids=["k1", "k3", "k3_weighted"]
    )
    def test_within_rounding_of_the_stage_composition(self, rng, k, weights, gains, use_residual):
        truth = synth_stems(rng, seconds=0.2)
        mix = exact_mix(truth)
        sets = [NoisyOracleStemProvider(truth, 10.0, seed=s).stems() for s in range(k)]
        out = pipeline._front_end(sets, gains, weights, mix if use_residual else None)
        assert_within_rounding(out, _composed_front_end(mix, sets, gains, weights, use_residual))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("use_residual", [True, False], ids=["residual", "no_residual"])
    @pytest.mark.parametrize("gains", CHUNK_GAINS, ids=CHUNK_GAIN_IDS)
    @pytest.mark.parametrize("k, weights", [(1, None), (3, (0.2, 1.5, 0.7))], ids=["k1", "k3"])
    @pytest.mark.parametrize("n_frames", CHUNK_EDGES + SPAN_EDGES)
    def test_chunk_edges(self, rng, n_frames, k, weights, gains, use_residual, order):
        mix, sets = random_stem_sets(rng, n_frames, k, order)
        out = pipeline._front_end(sets, gains, weights, mix if use_residual else None)
        expected = whole_song_front_end(mix, sets, gains, weights, use_residual)
        assert np.array_equal(out, expected)
        assert np.array_equal(np.signbit(out), np.signbit(expected))
        assert_within_rounding(out, _composed_front_end(mix, sets, gains, weights, use_residual))

    @pytest.mark.parametrize("k", [1, 3])
    @pytest.mark.parametrize(
        "gains", [GainSpec(3.0, MUTE, -4.5, 1.25), GainSpec(-7.0, 2.5, 0.5, -3.0)],
        ids=["mixed_mute", "mixed"],
    )
    def test_residual_ablation_gap_with_perfect_stems(self, rng, k, gains):
        # repair rounds in other places than the plain remix, so at gains
        # other than 0 dB the two differ by rounding only
        truth = synth_stems(rng, seconds=0.2)
        mix = exact_mix(truth)
        on = pipeline._front_end([truth] * k, gains, mix=mix)
        off = pipeline._front_end([truth] * k, gains)
        assert_within_rounding(on, off)

    def test_overflowing_weights_are_normalized_first(self, rng):
        # 1e308 * 1.9 overflows, but each weight over their sum does not
        loud = make_buffer(np.full((2, 100), 1.9))
        mix, (quiet,) = random_stem_sets(rng, 100, 1)
        sets = [StemSet(loud, loud, loud, loud), quiet]
        weights = (1e308, 1e307)
        out = pipeline._front_end(sets, UNIT_GAINS, weights, mix)
        normalized = tuple(np.divide(weights, np.sum(weights)))
        assert np.all(np.isfinite(out))
        assert_within_rounding(out, _composed_front_end(mix, sets, UNIT_GAINS, normalized, True))


def _composed_chain(mix, sets, gains, listener, options):
    """The public stages one after another: what ``enhance`` must equal."""
    residual_mix = mix if options.use_residual else None
    samples = pipeline._front_end(sets, gains, options.ensemble_weights, residual_mix)
    signal = mix.with_samples(samples)
    signal = normalize_to_loudness(signal, integrated_loudness(mix).value)
    signal = nalr_process(signal, listener, options.n_taps)
    report = count_clipped(signal)
    if options.use_compressor_heuristic and should_compress(report):
        signal = compress(signal, options.compressor)
    return signal.samples, report.per_channel


class TestChainInPlace:
    """The in-place chain against the composition of the public stages."""

    # at least one 400 ms loudness block, ending on and either side of a chunk
    LENGTHS = (17640, 3 * _CHUNK_FRAMES, 3 * _CHUNK_FRAMES + 1, 5 * _CHUNK_FRAMES + 17)

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n_frames", LENGTHS)
    @pytest.mark.parametrize(
        "listener, use_residual",
        [(ZERO_LISTENER, True), (flat_listener(45.0), False), (flat_listener(70.0), True)],
        ids=["zero_loss", "moderate", "severe"],
    )
    def test_enhance_is_the_stage_composition(self, rng, n_frames, listener, use_residual, order):
        mix, sets = random_stem_sets(rng, n_frames, 2, order)
        options = EnhanceOptions(use_residual=use_residual)
        gains = GainSpec(3.0, -2.0, MUTE, 1.5)
        expected, clipped = _composed_chain(mix, sets, gains, listener, options)
        out, report = enhance(mix, sets, gains, listener, options)
        assert_read_only(out)
        assert report.clipped_samples == clipped
        assert report.compressor_applied == should_compress(ClipReport(clipped))
        assert np.array_equal(out.samples, expected)
        assert np.array_equal(np.signbit(out.samples), np.signbit(expected))

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_compressor_in_place_is_compress(self, rng, order):
        # long enough for a 70 dB HL listener to clip past the trigger
        mix, sets = random_stem_sets(rng, 5 * _CHUNK_FRAMES + 17, 2, order)
        listener, options = flat_listener(70.0), EnhanceOptions()
        expected, _ = _composed_chain(mix, sets, UNIT_GAINS, listener, options)
        out, report = enhance(mix, sets, UNIT_GAINS, listener, options)
        assert report.compressor_applied
        assert_read_only(out)
        assert np.array_equal(out.samples, expected)

    def test_enhance_is_the_stage_composition_at_overflow_gains(self):
        # at 6160 dB the remix's K-weighted squares overflow float64: enhance
        # and normalize_to_loudness measure it at the same power-of-two scale
        truth = synth_stems(np.random.default_rng(0))
        mix, listener = exact_mix(truth), flat_listener(40.0)
        gains, options = GainSpec(6160.0, 0.0, 0.0, 0.0), EnhanceOptions()
        expected, clipped = _composed_chain(mix, [truth], gains, listener, options)
        out, report = enhance(mix, [truth], gains, listener, options)
        assert report.clipped_samples == clipped
        assert np.array_equal(out.samples, expected)
        assert np.array_equal(np.signbit(out.samples), np.signbit(expected))

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("n_frames", LENGTHS)
    @pytest.mark.parametrize(
        "gains", [UNIT_GAINS, GainSpec(3.0, -2.0, MUTE, 1.5)], ids=["unit", "mixed_mute"]
    )
    def test_build_reference_is_the_stage_composition(self, rng, n_frames, gains, order):
        _, (truth,) = random_stem_sets(rng, n_frames, 1, order)
        listener = flat_listener(45.0)
        target = integrated_loudness(remix(truth, UNIT_GAINS)).value
        expected = nalr_process(normalize_to_loudness(remix(truth, gains), target), listener)
        reference = build_reference(truth, gains, listener)
        assert_read_only(reference)
        out = reference.samples
        assert np.array_equal(out, expected.samples)


class TestEnhanceOptions:
    @pytest.mark.parametrize(
        "n_taps, message",
        [
            (64, "must be odd, got 64"),
            (63, "must be >= 65, got 63"),
            (65539, "must be <= 65537, got 65539"),
            (1000000001, "must be <= 65537, got 1000000001"),
            (141.0, "must be an integer, got 141.0"),
        ],
    )
    def test_bad_taps_rejected_on_construction(self, n_taps, message):
        with pytest.raises(ValueError, match=f"n_taps {message}"):
            EnhanceOptions(n_taps=n_taps)

    def test_echo_round_trips_to_dict(self):
        opts = EnhanceOptions(ensemble_weights=(1.0, 2.0), use_residual=False)
        echo = opts.as_dict()
        assert echo["ensemble_weights"] == [1.0, 2.0]
        assert echo["use_residual"] is False
        assert echo["compressor"]["ratio"] == 6.0


class TestEnhance:
    def test_pipeline_identity_with_oracle_stems(self, rng):
        stems = synth_stems(rng, seconds=2.0)
        mix = exact_mix(stems)
        out, report = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        target = integrated_loudness(mix).value
        expected = normalize_to_loudness(mix, target)
        assert sdr(expected, out).value >= 60.0
        assert report.input_loudness_lufs == pytest.approx(target)
        assert not report.compressor_applied

    @pytest.mark.parametrize("vocals_db", [300.0, 3000.0, 6160.0])
    def test_a_gain_near_the_largest_factor_is_normalized(self, vocals_db):
        # at 6160 dB the remix's K-weighted squares overflow float64, so it
        # is measured at an exact power-of-two scale; any numpy warning
        # fails the test, since the suite turns warnings into errors
        truth = synth_stems(np.random.default_rng(0))
        mix, listener = exact_mix(truth), flat_listener(40.0)
        loud, quiet = GainSpec(vocals_db, 0.0, 0.0, 0.0), GainSpec(300.0, 0.0, 0.0, 0.0)
        # at each of these gains the vocals drown the other tracks alike
        out, _ = enhance(mix, [truth], loud, listener)
        expected, _ = enhance(mix, [truth], quiet, listener)
        np.testing.assert_allclose(out.samples, expected.samples, rtol=0.0, atol=1e-12)
        reference = build_reference(truth, loud, listener).samples
        expected = build_reference(truth, quiet, listener).samples
        np.testing.assert_allclose(reference, expected, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize(
        "gains", [GainSpec(6165.0, 0.0, 0.0, 0.0), GainSpec(6160.0, 6160.0, 0.0, 0.0)],
        ids=["vocals_6165", "vocals_drums_6160"],
    )
    def test_a_front_end_that_overflows_names_the_gains(self, gains):
        # stems beyond full scale at gains near the largest finite factor:
        # a product (6165 dB) or a sum (6160 dB twice) leaves float64, which
        # is a ValueError, not a numpy warning (an error in this suite)
        truth = synth_stems(np.random.default_rng(0), seconds=0.5, peak=1.9)
        mix, listener = exact_mix(truth), flat_listener(40.0)
        message = re.escape(f"the remix at gains {gains.as_dict()} overflows float64")
        with pytest.raises(ValueError, match=message):
            enhance(mix, [truth], gains, listener)
        with pytest.raises(ValueError, match=message):
            build_reference(truth, gains, listener)

    def test_residual_ablation_is_noop_for_perfect_stems(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        on, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        off, _ = enhance(
            mix, [stems], UNIT_GAINS, ZERO_LISTENER,
            EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
        )
        np.testing.assert_array_equal(on.samples, off.samples)

    def test_compressor_ablation_is_noop_without_clipping(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        on, report_on = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER)
        off, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        assert max(report_on.clipped_samples) == 0
        np.testing.assert_array_equal(on.samples, off.samples)

    def test_residual_repairs_corrupted_other(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        mix = exact_mix(stems)
        noise = rng.normal(0, 0.02, stems.other.samples.shape)
        corrupted = replace(
            stems, other=stems.other.with_samples(stems.other.samples + noise)
        )
        reference, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        on, _ = enhance(mix, [corrupted], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        off, _ = enhance(
            mix, [corrupted], UNIT_GAINS, ZERO_LISTENER,
            EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
        )
        assert sdr(reference, on).value > sdr(reference, off).value

    def test_severe_loss_triggers_compressor(self, rng):
        stems = synth_stems(rng, seconds=2.0, peak=0.22)
        mix = exact_mix(stems)
        out, report = enhance(mix, [stems], UNIT_GAINS, flat_listener(60.0))
        assert max(report.clipped_samples) >= 25_000
        assert report.compressor_applied
        assert "compress" in report.stages
        assert np.max(np.abs(out.samples)) <= 1.0

    def test_report_flag_matches_trigger_rule(self, rng):
        from hearmix import ClipReport, should_compress

        for peak, listener in ((0.2, ZERO_LISTENER), (0.22, flat_listener(60.0))):
            stems = synth_stems(rng, seconds=1.0, peak=peak)
            _, report = enhance(exact_mix(stems), [stems], UNIT_GAINS, listener)
            expected = should_compress(ClipReport(report.clipped_samples))
            assert report.compressor_applied == expected

    def test_stage_order_is_fixed(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        variants = [
            EnhanceOptions(),
            EnhanceOptions(use_residual=False),
            NO_COMP,
            EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
        ]
        for options in variants:
            _, report = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, options)
            assert _is_subsequence(report.stages, STAGE_ORDER)
            skipped = {"compress"} if options.use_residual else {"residual", "compress"}
            assert report.stages == tuple(s for s in STAGE_ORDER if s not in skipped)
            for required in ("ensemble", "remix", "normalize", "nalr", "clip_check"):
                assert required in report.stages
            if options.use_residual:
                assert "residual" in report.stages
            else:
                assert "residual" not in report.stages

    def test_deterministic_runs_bit_identical(self, rng):
        truth = synth_stems(rng, seconds=0.5)
        mix = exact_mix(truth)
        sets_a = [NoisyOracleStemProvider(truth, 10.0, seed=k).stems() for k in range(3)]
        sets_b = [NoisyOracleStemProvider(truth, 10.0, seed=k).stems() for k in range(3)]
        out_a, report_a = enhance(mix, sets_a, UNIT_GAINS, ZERO_LISTENER)
        out_b, report_b = enhance(mix, sets_b, UNIT_GAINS, ZERO_LISTENER)
        np.testing.assert_array_equal(out_a.samples, out_b.samples)
        assert report_a == report_b

    def test_one_hot_weights_match_single_set(self, rng):
        truth = synth_stems(rng, seconds=0.5)
        mix = exact_mix(truth)
        sets = [NoisyOracleStemProvider(truth, 10.0, seed=k).stems() for k in range(3)]
        ensemble, _ = enhance(
            mix, sets, UNIT_GAINS, ZERO_LISTENER,
            EnhanceOptions(ensemble_weights=(0.0, 1.0, 0.0), use_compressor_heuristic=False),
        )
        single, _ = enhance(mix, [sets[1]], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        np.testing.assert_array_equal(ensemble.samples, single.samples)

    def test_silent_mix_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        silent_mix = make_buffer(np.zeros((2, stems.n_frames)))
        with pytest.raises(UndefinedLoudnessError):
            enhance(silent_mix, [stems], UNIT_GAINS, ZERO_LISTENER)

    def test_empty_stem_sets_rejected(self, rng):
        mix = make_buffer(rng.normal(0, 0.1, (2, 44100)))
        with pytest.raises(ValueError, match="at least one"):
            enhance(mix, [], UNIT_GAINS, ZERO_LISTENER)

    def test_misaligned_mix_rejected(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = make_buffer(rng.normal(0, 0.1, (2, 100)))
        with pytest.raises(AlignmentError):
            enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER)

    def test_mono_mix_rejected_before_the_front_end(self, rng, monkeypatch):
        def front_end_ran(*args, **kwargs):
            raise AssertionError("the ensemble ran on a mono mix")

        monkeypatch.setattr(pipeline, "_weighted_sum", front_end_ran)
        stems = synth_stems(rng, seconds=0.5, channels=1)
        with pytest.raises(ValueError, match="stereo"):
            enhance(exact_mix(stems), [stems], UNIT_GAINS, ZERO_LISTENER)

    def test_report_echoes_options(self, rng):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        options = EnhanceOptions(use_residual=False)
        _, report = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, options, song_id="s1")
        assert report.song_id == "s1"
        assert report.options["use_residual"] is False
        assert report.as_dict()["schema_version"] == 3


# GainSpec's limit: 10**(g/20) stays finite below 20*log10(float64 max), about 6165.09 dB
_GAIN_DB = st.one_of(st.just(MUTE), st.floats(-60.0, 60.0), st.floats(-1e308, 6165.0))
# attack and release: 1e-5 ms costs the smoother a solve per frame or two
_TIME_MS = st.floats(-5.0, 3.0).map(lambda e: 10.0**e)


@st.composite
def _enhance_inputs(draw):
    """A song of at most 0.5 s, mostly long enough to have a loudness, and
    every setting ``enhance`` takes."""
    attack = draw(_TIME_MS)
    release = draw(st.just(attack) | _TIME_MS)
    compressor = CompressorParams(
        draw(st.floats(-100.0, 10.0)), draw(st.floats(1.0, 1e3)), attack, release
    )
    # asymmetric extreme settings, at ~17 µs a frame, only on the shortest
    # songs: under 0.5 s at 8 kHz, a 400 ms loudness block's 3200 frames or more
    extreme = attack != release and min(attack, release) < 0.01
    rate = 8000 if extreme else draw(st.sampled_from([8000, 16000, 44100]))
    shortest = draw(st.sampled_from([int(0.4 * rate)] * 3 + [1]))
    n_frames = draw(st.integers(shortest, rate // 2))
    k = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    scale = 10.0 ** draw(st.floats(-3.0, 1.0) | st.floats(-12.0, 300.0))
    truth = [scale * rng.normal(0.0, 0.25, (2, n_frames)) for _ in TRACK_NAMES]
    sets = [
        StemSet(*(make_buffer(t * rng.uniform(0.8, 1.2), rate) for t in truth)) for _ in range(k)
    ]
    weights = draw(st.none() | st.lists(st.floats(0.0, 1e308), min_size=k, max_size=k))

    options = EnhanceOptions(
        use_residual=draw(st.booleans()),
        use_compressor_heuristic=draw(st.booleans()),
        ensemble_weights=weights,
        compressor=compressor,
    )
    gains = GainSpec(*(draw(_GAIN_DB) for _ in TRACK_NAMES))
    # one listener in four has levels of any finite dB HL, the rest clinical ones
    level = draw(st.sampled_from([st.floats(-20.0, 130.0)] * 3 + [st.floats(-1e308, 1e308)]))
    left, right = (
        Audiogram(AUDIOMETRIC_FREQUENCIES, tuple(draw(st.lists(level, min_size=6, max_size=6))))
        for _ in range(2)
    )
    return make_buffer(sum(truth), rate), sets, gains, Listener("drawn", left, right), options


class TestEnhanceIsTotal:
    """Every validated input ends in a finite output or a package error,
    never a numpy warning (an error in this suite)."""

    @settings(max_examples=100, deadline=None)
    @given(inputs=_enhance_inputs(), trigger=st.integers(0, 25_000))
    def test_finite_output_or_a_value_error(self, inputs, trigger):
        # a 0.5 s song has under 25,000 frames, so the trigger is drawn too
        mix, sets, gains, listener, options = inputs
        try:
            with mock.patch.object(levels, "CLIP_TRIGGER_COUNT", trigger):
                out, report = enhance(mix, sets, gains, listener, options)
        except ValueError as exc:
            assert str(exc)
            event(type(exc).__name__)
            return
        assert np.all(np.isfinite(out.samples))
        event(f"finite output, compressor applied: {report.compressor_applied}")
        if report.compressor_applied:
            assert np.max(np.abs(out.samples)) <= 1.0


class TestPeakMemory:
    """Each stage's output is freed once the next stage has consumed it."""

    @pytest.mark.parametrize("k", [1, 3])
    def test_enhance_holds_few_buffers_through_the_compressor(self, rng, k):
        truth = synth_stems(rng, seconds=3.0, peak=0.22)
        mix = exact_mix(truth)
        sets = [NoisyOracleStemProvider(truth, 20.0, seed=s).stems() for s in range(k)]
        (_, report), peak = peak_buffers(
            mix, enhance, mix, sets, UNIT_GAINS, flat_listener(60.0)
        )
        assert report.compressor_applied
        # the compressor works in span-sized scratch, so the peak is the
        # chain's without it: 1.33 on 3 s
        assert peak <= 1.5

    @pytest.mark.parametrize("k", [1, 3])
    def test_enhance_without_the_compressor_holds_one_signal(self, rng, k):
        # the front end writes its output, which is then metered span by
        # span, scaled, filtered and counted in place: 1.08 on 3 s, where
        # the chunk-sized scratch weighs more than on a song
        truth = synth_stems(rng, seconds=3.0)
        mix = exact_mix(truth)
        sets = [NoisyOracleStemProvider(truth, 20.0, seed=s).stems() for s in range(k)]
        (_, report), peak = peak_buffers(
            mix, enhance, mix, sets, UNIT_GAINS, ZERO_LISTENER, NO_COMP
        )
        assert not report.compressor_applied
        assert peak <= 1.5

    @pytest.mark.parametrize("k", [1, 3])
    def test_front_end_holds_its_output_and_chunks(self, rng, k):
        truth = synth_stems(rng, seconds=3.0)
        mix = exact_mix(truth)
        sets = [NoisyOracleStemProvider(truth, 20.0, seed=s).stems() for s in range(k)]
        _, peak = peak_buffers(mix, pipeline._front_end, sets, UNIT_GAINS, None, mix)
        assert peak <= 1.5

    def test_build_reference_holds_few_buffers(self, rng):
        truth = synth_stems(rng, seconds=3.0, peak=0.22)
        _, peak = peak_buffers(
            truth.vocals, build_reference, truth, UNIT_GAINS, flat_listener(60.0)
        )
        # the true mixture and then the remix are written into one array,
        # each metered span by span, and NAL-R runs in place: 1.27 on 3 s,
        # where a span of one chunk weighs more than on a song
        assert peak <= 1.5

    def test_compress_holds_few_buffers(self, rng):
        # the output is one buffer; the detector, smoother and gain work in
        # span-sized scratch and per-block solves: 1.16 on 3 s
        song = make_buffer(rng.normal(0.0, 0.6, (2, 3 * 44100)))
        _, peak = peak_buffers(song, compress, song)
        assert peak <= 1.3

    def test_nalr_process_holds_few_buffers(self, rng):
        # the output is one buffer; the blocked convolution adds scratch
        # space for a fixed number of blocks, whatever the song's length
        song = make_buffer(rng.normal(0.0, 0.2, (2, 3 * 44100)))
        _, peak = peak_buffers(song, nalr_process, song, flat_listener(60.0))
        assert peak <= 1.5

    def test_integrated_loudness_holds_a_tenth_of_a_buffer(self, rng):
        # beside the input, each row block filters and squares one piece of
        # whole spans, up to 1/10 of the song: 0.10 on 30 s
        song = make_buffer(rng.normal(0.0, 0.2, (2, 30 * 44100)))
        _, peak = peak_buffers(song, integrated_loudness, song)
        assert peak <= 0.12

    def test_apply_crosstalk_holds_few_buffers(self, rng):
        song = make_buffer(rng.normal(0.0, 0.2, (2, 3 * 44100)))
        responses = rng.normal(0, 0.2, (4, 384)) * np.exp(-np.arange(384) / 96)
        kernel = CrosstalkKernel(*responses, sample_rate=44100)
        _, peak = peak_buffers(song, apply_crosstalk, song, kernel)
        assert peak <= 1.5


class TestBuildReference:
    def test_mono_stems_rejected_before_any_stage(self, rng, monkeypatch):
        def stage_ran(*args, **kwargs):
            raise AssertionError("build_reference ran a stage on mono stems")

        monkeypatch.setattr(pipeline, "_front_end", stage_ran)
        monkeypatch.setattr(pipeline, "_nalr_in_place", stage_ran)
        stems = synth_stems(rng, seconds=0.5, channels=1)
        with pytest.raises(ValueError, match="build_reference needs a stereo mix"):
            build_reference(stems, UNIT_GAINS, ZERO_LISTENER)

    def test_is_enhance_without_residual_or_compressor(self, rng):
        truth = synth_stems(rng, seconds=1.0, peak=0.22)
        gains = GainSpec(3.0, -2.0, MUTE, 1.5)
        listener = flat_listener(60.0)
        enhanced, _ = enhance(
            exact_mix(truth), [truth], gains, listener,
            EnhanceOptions(use_residual=False, use_compressor_heuristic=False),
        )
        reference = build_reference(truth, gains, listener)
        np.testing.assert_array_equal(reference.samples, enhanced.samples)

    def test_matches_enhance_on_oracle_stems(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        mix = exact_mix(stems)
        enhanced, _ = enhance(mix, [stems], UNIT_GAINS, ZERO_LISTENER, NO_COMP)
        reference = build_reference(stems, UNIT_GAINS, ZERO_LISTENER)
        rms = np.sqrt(np.mean((enhanced.samples - reference.samples) ** 2))
        assert rms <= 1e-6

    def test_all_mute_gains_rejected(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        with pytest.raises(UndefinedLoudnessError):
            build_reference(stems, GainSpec(MUTE, MUTE, MUTE, MUTE), ZERO_LISTENER)

    def test_asymmetric_listener_shapes_channels(self, rng):
        stems = synth_stems(rng, seconds=1.0)
        listener = Listener(
            "asym",
            Audiogram(AUDIOMETRIC_FREQUENCIES, (60.0,) * 6),
            Audiogram(AUDIOMETRIC_FREQUENCIES, (0.0,) * 6),
        )
        flat = build_reference(stems, UNIT_GAINS, ZERO_LISTENER)
        shaped = build_reference(stems, UNIT_GAINS, listener)
        left_gain = 10 * np.log10(
            np.sum(shaped.samples[0] ** 2) / np.sum(flat.samples[0] ** 2)
        )
        assert left_gain >= 10.0
        np.testing.assert_array_equal(shaped.samples[1], flat.samples[1])


class TestBatch:
    def _song_files(self, tmp_path, rng, name, break_stems=None):
        stems = synth_stems(rng, seconds=0.5)
        mix = exact_mix(stems)
        song_dir = tmp_path / name
        write_stems_dir(stems, song_dir / "stems")
        if break_stems == "missing_drums":
            (song_dir / "stems" / "drums.wav").unlink()
        if break_stems == "stems_at_48k":
            write_stems_dir(synth_stems(rng, seconds=0.5, rate=48000), song_dir / "stems")
        from hearmix import write_wav

        write_wav(mix, song_dir / "mix.wav")
        return {
            "song_id": name,
            "mix": f"{name}/mix.wav",
            "stems": [f"{name}/stems"],
            "gains": "gains.json",
            "listener": "listener.json",
            "out": f"out/{name}.wav",
        }

    def _manifest(self, tmp_path, rng, n_jobs=2, broken=(), breakage="missing_drums"):
        jobs = [
            self._song_files(tmp_path, rng, f"song{i}", break_stems=breakage if i in broken else None)
            for i in range(n_jobs)
        ]
        write_gains_file(tmp_path / "gains.json")
        write_listener_file(tmp_path / "listener.json", ZERO_LISTENER)
        manifest_path = tmp_path / "manifest.json"
        manifest_path.write_text(json.dumps({"jobs": jobs}))
        return manifest_path

    def test_empty_manifest(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": []}))
        assert run_batch(load_manifest(path)) == []

    def test_two_jobs_complete(self, tmp_path, rng):
        manifest = load_manifest(self._manifest(tmp_path, rng, n_jobs=2))
        reports = run_batch(manifest)
        assert [r.song_id for r in reports] == ["song0", "song1"]
        assert all(r.error is None for r in reports)
        for i in range(2):
            out = read_wav(tmp_path / "out" / f"song{i}.wav")
            assert out.channels == 2

    @pytest.mark.parametrize(
        "breakage, error",
        [
            ("missing_drums", "FileNotFoundError: missing stem file: {song}/stems/drums.wav"),
            (
                "stems_at_48k",
                "AlignmentError: {song}/mix.wav and {song}/stems: "
                "mix and stems have mixed sample rates: 44100 vs 48000",
            ),
        ],
        ids=["missing_drums", "stems_at_48k"],
    )
    def test_broken_job_is_isolated(self, tmp_path, rng, breakage, error):
        path = self._manifest(tmp_path, rng, n_jobs=2, broken={0}, breakage=breakage)
        reports = run_batch(load_manifest(path))
        assert reports[0].error == error.format(song=tmp_path / "song0")
        assert reports[1].error is None
        assert not (tmp_path / "out" / "song0.wav").exists()
        assert (tmp_path / "out" / "song1.wav").exists()

    def test_failed_and_finished_reports_hold_the_same_keys(self, tmp_path, rng):
        manifest = load_manifest(self._manifest(tmp_path, rng, n_jobs=2, broken={0}))
        failed, finished = (report.as_dict() for report in run_batch(manifest))
        assert failed["error"] is not None and finished["error"] is None
        assert failed.keys() == finished.keys()

    def test_directory_kind_spec_fails_its_job(self, tmp_path, rng):
        path = self._manifest(tmp_path, rng, n_jobs=2)
        doc = json.loads(path.read_text())
        doc["jobs"][0]["stems"] = [{"kind": "directory", "path": "song0/stems"}]
        path.write_text(json.dumps(doc))
        reports = run_batch(load_manifest(path))
        assert reports[0].error == "ValueError: unknown stem provider kind 'directory'"
        assert reports[1].error is None

    def test_workers_do_not_change_results(self, tmp_path, rng):
        manifest = load_manifest(self._manifest(tmp_path, rng, n_jobs=3))
        serial = run_batch(manifest)
        parallel = run_batch(manifest, workers=3)
        assert [r.song_id for r in serial] == [r.song_id for r in parallel]
        for a, b in zip(serial, parallel):
            assert a.input_loudness_lufs == b.input_loudness_lufs

    def test_shared_listeners_design_each_ear_once(self, tmp_path, rng, monkeypatch):
        path = self._manifest(tmp_path, rng, n_jobs=4)
        doc = json.loads(path.read_text())
        for job in doc["jobs"][1::2]:
            job["listener"] = "listener_b.json"
        path.write_text(json.dumps(doc))
        mild = Audiogram(AUDIOMETRIC_FREQUENCIES, (5.0, 10.0, 20.0, 30.0, 30.0, 35.0))
        write_listener_file(tmp_path / "listener.json", Listener("a", mild, ZERO_LISTENER.left))
        severe = Audiogram(AUDIOMETRIC_FREQUENCIES, (40.0, 50.0, 60.0, 70.0, 80.0, 85.0))
        write_listener_file(tmp_path / "listener_b.json", Listener("b", severe, mild))

        calls = []
        real = hearing.design_nalr_fir
        monkeypatch.setattr(
            hearing, "design_nalr_fir", lambda *a, **k: calls.append(a) or real(*a, **k)
        )
        hearing._nalr_fir.cache_clear()
        # one worker: two threads that miss the cache together may both design
        reports = run_batch(load_manifest(path), workers=1)
        assert all(r.error is None for r in reports)
        assert len(calls) <= 4

    def test_duplicate_song_ids_fatal(self, tmp_path, rng):
        path = self._manifest(tmp_path, rng, n_jobs=1)
        doc = json.loads(path.read_text())
        doc["jobs"].append(doc["jobs"][0])
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="duplicate"):
            load_manifest(path)

    def test_malformed_manifest_fatal(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": [{"song_id": "x"}]}))
        with pytest.raises(ValueError, match="bad job"):
            load_manifest(path)

    @pytest.mark.parametrize("doc", [[], {"jobs": {}}, {"songs": []}], ids=["array", "jobs_object", "no_jobs"])
    def test_manifest_without_a_jobs_array_fatal(self, tmp_path, doc):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r'manifest\.json: manifest must be an object with a "jobs" array'):
            load_manifest(path)

    @pytest.mark.parametrize("stems", [[], "song0/stems"], ids=["empty", "string"])
    def test_job_without_a_stems_array_fatal(self, tmp_path, rng, stems):
        path = self._manifest(tmp_path, rng, n_jobs=1)
        doc = json.loads(path.read_text())
        doc["jobs"][0]["stems"] = stems
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r'bad job entry #0: "stems" must be a non-empty array'):
            load_manifest(path)

    @pytest.mark.parametrize(
        "raw",
        [
            b"{",
            b"\xff\xfe{}",
            b'{"jobs": [{"song_id": "a", "mix": "a.wav", "gains": "g.json", '
            b'"listener": "l.json", "out": "out/a.wav", '
            b'"stems": [{"kind": "noisy_oracle", "path": "a", "snr_db": NaN, "seed": 1}]}]}',
            b'{"jobs": ' + b"[" * 200_000,
        ],
        ids=["bad_json", "not_utf8", "nan_snr", "deep_nesting"],
    )
    def test_undecodable_manifest_names_the_file(self, tmp_path, raw):
        path = tmp_path / "broken_manifest.json"
        path.write_bytes(raw)
        with pytest.raises(ValueError, match="broken_manifest.json"):
            load_manifest(path)

    @pytest.mark.parametrize(
        "job, out",
        [
            (1, "out/song0.wav"),
            (1, "out/../out/./song0.wav"),
            (1, "song0/mix.wav"),
            (0, "song1/mix.wav"),
        ],
        ids=["same_out", "same_out_resolved", "out_is_earlier_mix", "out_is_later_mix"],
    )
    def test_output_collision_fatal(self, tmp_path, rng, job, out):
        path = self._manifest(tmp_path, rng, n_jobs=2)
        doc = json.loads(path.read_text())
        doc["jobs"][job]["out"] = out
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"manifest\.json: ") as caught:
            load_manifest(path)
        assert "'song0'" in str(caught.value) and "'song1'" in str(caught.value)

    @pytest.mark.parametrize(
        "writer, out, reader, spec",
        [
            (0, "song0/stems/other.wav", 0, None),
            (1, "song0/stems/vocals.wav", 0, None),
            (1, "song1/stems/drums.wav", 1, "noisy_oracle"),
            (1, "gains.json", 0, None),
            (0, "listener.json", 0, None),
        ],
        ids=["own_stem", "other_job_stem", "noisy_oracle_spec_stem",
             "gains_file", "listener_file"],
    )
    def test_output_onto_an_input_fatal(self, tmp_path, rng, writer, out, reader, spec):
        path = self._manifest(tmp_path, rng, n_jobs=2)
        doc = json.loads(path.read_text())
        if spec is not None:
            folder = doc["jobs"][reader]["stems"][0]
            doc["jobs"][reader]["stems"] = [
                {"kind": spec, "path": folder, "snr_db": 10.0, "seed": 1}
            ]
        doc["jobs"][writer]["out"] = out
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match=r"manifest\.json: ") as caught:
            load_manifest(path)
        message = str(caught.value)
        assert f"job #{writer} ('song{writer}')" in message
        assert f"of job #{reader} ('song{reader}')" in message

    def test_workers_below_one_rejected(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": []}))
        with pytest.raises(ValueError, match="workers"):
            run_batch(load_manifest(path), workers=0)


class TestSharedLoading:
    """Batch jobs that name the same mixture and stems load them once."""

    LISTENERS = (
        ZERO_LISTENER,
        Listener(
            "severe",
            Audiogram(AUDIOMETRIC_FREQUENCIES, (40.0, 50.0, 60.0, 70.0, 80.0, 85.0)),
            Audiogram(AUDIOMETRIC_FREQUENCIES, (5.0, 10.0, 20.0, 30.0, 30.0, 35.0)),
        ),
    )

    def _manifest(self, tmp_path, rng, songs=2, listeners=2, k=2, seconds=0.5):
        """S songs with K stem folders each, every song enhanced for L
        listeners; jobs run listener-major (s0..sN, then s0..sN again)."""
        for s in range(songs):
            truth = synth_stems(rng, seconds=seconds)
            (tmp_path / f"song{s}").mkdir()
            write_wav(exact_mix(truth), tmp_path / f"song{s}" / "mix.wav")
            for j in range(k):
                noisy = NoisyOracleStemProvider(truth, 20.0, seed=j).stems()
                write_stems_dir(noisy, tmp_path / f"song{s}" / f"sep{j}")
        jobs = []
        for who, listener in enumerate(self.LISTENERS[:listeners]):
            write_listener_file(tmp_path / f"listener{who}.json", listener)
            for s in range(songs):
                song_id = f"s{s}l{who}"
                write_gains_file(tmp_path / f"{song_id}.json", vocals=3.0 * who, drums=-who)
                jobs.append(
                    {
                        "song_id": song_id,
                        "mix": f"song{s}/mix.wav",
                        "stems": [f"song{s}/sep{j}" for j in range(k)],
                        "gains": f"{song_id}.json",
                        "listener": f"listener{who}.json",
                        "out": f"out/{song_id}.wav",
                    }
                )
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps({"jobs": jobs}))
        return load_manifest(path)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_each_song_is_decoded_and_measured_once(self, tmp_path, rng, monkeypatch, workers):
        songs, listeners, k = 3, 2, 2
        manifest = self._manifest(tmp_path, rng, songs, listeners, k)
        decoded, measured = [], []

        def counting(calls, fn):
            return lambda *args, **kwargs: calls.append(args[0]) or fn(*args, **kwargs)

        monkeypatch.setattr(pipeline, "read_wav", counting(decoded, read_wav))
        monkeypatch.setattr(stems_module, "read_wav", counting(decoded, read_wav))
        monkeypatch.setattr(
            pipeline, "integrated_loudness", counting(measured, integrated_loudness)
        )
        reports = run_batch(manifest, workers=workers)
        assert all(r.error is None for r in reports)
        assert len(decoded) == len(set(decoded)) == songs * (1 + 4 * k)
        assert len(measured) == songs

    @pytest.mark.parametrize("workers", [1, 2])
    def test_jobs_of_a_song_share_each_file(self, tmp_path, rng, monkeypatch, workers):
        # two listeners of one song name the same mix and sep0, but sep1 and
        # sep2 apart: each of the 13 files is decoded once
        self._manifest(tmp_path, rng, songs=1, listeners=2, k=3)
        path = tmp_path / "manifest.json"
        doc = json.loads(path.read_text())
        for job, other in zip(doc["jobs"], ("sep1", "sep2")):
            job["stems"] = ["song0/sep0", f"song0/{other}"]
        path.write_text(json.dumps(doc))
        manifest = load_manifest(path)
        alone = {}
        for job in manifest.jobs:
            pipeline.run_job(job, manifest.base_dir, EnhanceOptions())
            alone[job.song_id] = job.output_path.read_bytes()
            job.output_path.unlink()
        decoded = []

        def counting(path):
            decoded.append(path)
            return read_wav(path)

        monkeypatch.setattr(pipeline, "read_wav", counting)
        monkeypatch.setattr(stems_module, "read_wav", counting)
        reports = run_batch(manifest, workers=workers)
        assert all(r.error is None for r in reports)
        assert len(decoded) == len(set(decoded)) == 1 + 4 * 3
        for job in manifest.jobs:
            assert job.output_path.read_bytes() == alone[job.song_id]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_outputs_match_each_job_run_alone(self, tmp_path, rng, workers):
        manifest = self._manifest(tmp_path, rng)
        alone = {}
        for job in manifest.jobs:
            report = pipeline.run_job(job, manifest.base_dir, EnhanceOptions())
            alone[job.song_id] = (job.output_path.read_bytes(), report.as_dict())
            job.output_path.unlink()
        reports = run_batch(manifest, workers=workers)
        assert [r.song_id for r in reports] == [job.song_id for job in manifest.jobs]
        for job, report in zip(manifest.jobs, reports):
            assert (job.output_path.read_bytes(), report.as_dict()) == alone[job.song_id]

    def test_shared_inputs_are_read_only(self, tmp_path, rng, monkeypatch):
        manifest = self._manifest(tmp_path, rng)
        seen = []

        def recording(mix, stem_sets, *args, **kwargs):
            buffers = [mix] + [b for stem_set in stem_sets for b in stem_set.buffers()]
            seen.extend(b.samples.flags.writeable for b in buffers)
            return enhance(mix, stem_sets, *args, **kwargs)

        monkeypatch.setattr(pipeline, "enhance", recording)
        reports = run_batch(manifest, workers=2)
        assert all(r.error is None for r in reports)
        assert seen and not any(seen)

    def test_failed_load_fails_only_its_jobs(self, tmp_path, rng):
        manifest = self._manifest(tmp_path, rng, songs=3)
        mix = tmp_path / "song1" / "mix.wav"
        whole = mix.read_bytes()
        mix.write_bytes(whole[: len(whole) // 2])
        reports = run_batch(manifest, workers=2)
        for job, report in zip(manifest.jobs, reports):
            if job.song_id.startswith("s1"):
                assert report.error.startswith("TruncatedFileError: ")
                assert str(mix) in report.error
                assert not job.output_path.exists()
            else:
                assert report.error is None
                assert job.output_path.exists()

    BREAKAGES = ["silent_mix", "silent_mix_and_bad_gains", "mono_mix", "low_rate_mix",
                 "stems_at_48k", "truncated_stem", "missing_stem_file", "missing_stem_folder",
                 "bad_listener"]

    def _break(self, tmp_path, rng, breakage):
        """Damage the inputs of song0's jobs, or of listener 1's."""
        song = tmp_path / "song0"
        n_frames = read_wav(song / "mix.wav").n_frames
        if breakage.startswith("silent_mix"):
            write_wav(make_buffer(np.zeros((2, n_frames))), song / "mix.wav")
        if breakage.endswith("bad_gains"):
            (tmp_path / "s0l1.json").write_text("{}")
        if breakage == "mono_mix":
            write_wav(make_buffer(rng.normal(0, 0.1, (1, n_frames))), song / "mix.wav")
        if breakage == "low_rate_mix":  # below the loudness meter's 8 kHz
            write_wav(make_buffer(rng.normal(0, 0.1, (2, n_frames)), 4000), song / "mix.wav")
        if breakage == "stems_at_48k":
            write_stems_dir(synth_stems(rng, seconds=0.5, rate=48000), song / "sep1")
        if breakage == "truncated_stem":
            whole = (song / "sep1" / "bass.wav").read_bytes()
            (song / "sep1" / "bass.wav").write_bytes(whole[:-100])
        if breakage == "missing_stem_file":
            (song / "sep1" / "other.wav").unlink()
        if breakage == "missing_stem_folder":
            for path in (song / "sep0").iterdir():
                path.unlink()
            (song / "sep0").rmdir()
        if breakage == "bad_listener":
            (tmp_path / "listener1.json").write_text("[]")

    @pytest.mark.parametrize("breakage", BREAKAGES)
    def test_errors_match_each_job_run_alone(self, tmp_path, rng, breakage):
        manifest = self._manifest(tmp_path, rng)
        self._break(tmp_path, rng, breakage)
        alone = {}
        for job in manifest.jobs:
            try:
                pipeline.run_job(job, manifest.base_dir, EnhanceOptions())
                alone[job.song_id] = None
            except Exception as exc:
                alone[job.song_id] = f"{type(exc).__name__}: {exc}"
        assert any(alone.values())
        for workers in (1, 2):
            reports = run_batch(manifest, workers=workers)
            assert {r.song_id: r.error for r in reports} == alone

    @pytest.mark.parametrize("breakage", BREAKAGES)
    def test_enhance_prints_the_batch_error(self, tmp_path, rng, capsys, breakage):
        manifest = self._manifest(tmp_path, rng)
        self._break(tmp_path, rng, breakage)
        reports = run_batch(manifest)
        failed = [(job, r.error) for job, r in zip(manifest.jobs, reports) if r.error]
        assert failed
        for job, error in failed:
            stems = [a for spec in job.stem_specs for a in ("--stems", str(tmp_path / spec))]
            rc = main(
                ["enhance", "--mix", str(job.mix_path), *stems, "--gains", str(job.gains_path),
                 "--listener", str(job.listener_path), "--out", str(job.output_path)]
            )
            assert rc == EXIT_FAILURE
            assert capsys.readouterr().err == f"error: {error}\n"

    def test_a_low_rate_mix_fails_at_its_load(self, tmp_path, rng, monkeypatch):
        # its loudness is measured as it loads, so its jobs fail naming it
        # before any stem of the song is decoded
        manifest = self._manifest(tmp_path, rng)
        self._break(tmp_path, rng, "low_rate_mix")
        mix = tmp_path / "song0" / "mix.wav"
        decoded = []

        def counting(path):
            decoded.append(path)
            return read_wav(path)

        monkeypatch.setattr(stems_module, "read_wav", counting)
        reports = run_batch(manifest, workers=2)
        for job, report in zip(manifest.jobs, reports):
            if job.mix_path == mix:
                assert report.error.startswith(f"ValueError: {mix}: loudness needs sample_rate")
            else:
                assert report.error is None
        assert decoded and not any(path.is_relative_to(mix.parent) for path in decoded)

    def test_a_stem_folder_named_twice_is_decoded_once(self, tmp_path, rng, monkeypatch):
        manifest = self._manifest(tmp_path, rng, songs=1, listeners=1, k=1)
        job = replace(manifest.jobs[0], stem_specs=("song0/sep0", "song0/sep0"))
        decoded = []

        def counting(path):
            decoded.append(path)
            return read_wav(path)

        monkeypatch.setattr(pipeline, "read_wav", counting)
        monkeypatch.setattr(stems_module, "read_wav", counting)
        pipeline.run_job(job, manifest.base_dir, EnhanceOptions())
        assert len(decoded) == len(set(decoded)) == 1 + 4

    def test_at_most_workers_songs_are_held(self, tmp_path, rng):
        # listener-major: a cache of every song in manifest order would hold all four
        manifest = self._manifest(tmp_path, rng, songs=4, k=1, seconds=2.0)
        first = manifest.jobs[0]
        tracemalloc.start()
        try:
            pipeline.run_job(first, manifest.base_dir, EnhanceOptions())
            tracemalloc.reset_peak()
            pipeline.run_job(first, manifest.base_dir, EnhanceOptions())
            one_job = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            reports = run_batch(manifest, workers=1)
            batch = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert all(r.error is None for r in reports)
        assert batch <= 1.2 * one_job

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_open_songs_never_exceed_workers(self, tmp_path, rng, monkeypatch, workers):
        manifest = self._manifest(tmp_path, rng, songs=4, k=1)
        alive, most = [], []

        def tracking(path):
            buffer = read_wav(path)
            alive.append(weakref.ref(buffer.samples))
            most.append(sum(ref() is not None for ref in alive))
            return buffer

        monkeypatch.setattr(pipeline, "read_wav", tracking)
        reports = run_batch(manifest, workers=workers)
        assert all(r.error is None for r in reports)
        assert len(alive) == 4 and max(most) <= workers

    def test_many_workers_share_loads_under_fast_switching(self, tmp_path, rng, monkeypatch):
        # more workers than cores and a short switch interval: a lost update
        # to the schedule would load a song twice, hold too many or lose a job
        manifest = self._manifest(tmp_path, rng, songs=5, listeners=2, k=1, seconds=0.45)
        workers = 4
        alive, most, measured = [], [], []

        def tracking(path):
            buffer = read_wav(path)
            alive.append(weakref.ref(buffer.samples))
            most.append(sum(ref() is not None for ref in alive))
            return buffer

        monkeypatch.setattr(pipeline, "read_wav", tracking)
        monkeypatch.setattr(
            pipeline,
            "integrated_loudness",
            lambda mix: measured.append(mix.n_frames) or integrated_loudness(mix),
        )
        reports = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runner = threading.Thread(
                target=lambda: reports.extend(run_batch(manifest, workers=workers))
            )
            runner.start()
            runner.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not runner.is_alive()
        assert [r.song_id for r in reports] == [job.song_id for job in manifest.jobs]
        assert all(r.error is None for r in reports)
        assert len(alive) == len(measured) == 5 and max(most) <= workers
