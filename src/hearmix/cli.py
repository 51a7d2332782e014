"""Command-line interface.

Subcommands: enhance, evaluate, reference, simulate, segments, batch.
Exit codes: 0 success, 1 failure, 2 bad arguments/fatal input errors,
3 partial batch failure (some jobs failed, others completed).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .audio import read_wav, write_wav
from .hearing import DEFAULT_NALR_TAPS, load_listener
from .levels import CompressorParams
from .metrics import REPORT_SCHEMA_VERSION, evaluate_song
from .pipeline import (
    BatchJob,
    EnhanceOptions,
    build_reference,
    load_gains,
    load_manifest,
    run_batch,
    run_job,
)
from .spatial import apply_crosstalk, load_kernel
from .stems import DirectoryStemProvider, salient_segments

EXIT_OK = 0
EXIT_FAILURE = 1
EXIT_USAGE = 2
EXIT_PARTIAL = 3


def _write_json(path, payload) -> None:
    Path(path).write_text(json.dumps(payload, indent=2) + "\n")


def _options_from_args(args) -> EnhanceOptions:
    weights = None
    if args.weights:
        weights = tuple(float(w) for w in args.weights.split(","))
    return EnhanceOptions(
        use_residual=not args.no_residual,
        use_compressor_heuristic=not args.no_compressor,
        ensemble_weights=weights,
        n_taps=args.taps,
        compressor=CompressorParams(
            threshold_db=args.comp_threshold,
            ratio=args.comp_ratio,
            attack_ms=args.comp_attack,
            release_ms=args.comp_release,
        ),
    )


def _cmd_enhance(args) -> int:
    mix = Path(args.mix)
    job = BatchJob(
        mix.stem, mix, tuple(args.stems), Path(args.gains), Path(args.listener), Path(args.out)
    )
    report = run_job(job, Path("."), _options_from_args(args))
    json.dump(report.as_dict(), sys.stdout, indent=2)
    sys.stdout.write("\n")
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    reference = read_wav(args.reference)
    estimate = read_wav(args.estimate)
    if (args.ref_stems is None) != (args.est_stems is None):
        print("--ref-stems and --est-stems must be given together", file=sys.stderr)
        return EXIT_USAGE
    ref_stems = est_stems = None
    if args.ref_stems is not None:
        ref_stems = DirectoryStemProvider(args.ref_stems).stems()
        est_stems = DirectoryStemProvider(args.est_stems).stems()
    breakdown = evaluate_song(reference, estimate, ref_stems, est_stems)
    _write_json(
        args.report,
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "reference": str(args.reference),
            "estimate": str(args.estimate),
            "overall_sdr_db": breakdown.overall_db,
            "per_track_sdr_db": breakdown.per_track_db,
        },
    )
    return EXIT_OK


def _cmd_reference(args) -> int:
    stems = DirectoryStemProvider(args.stems).stems()
    gains = load_gains(args.gains)
    listener = load_listener(args.listener)
    output = build_reference(stems, gains, listener)
    write_wav(output, args.out)
    return EXIT_OK


def _cmd_simulate(args) -> int:
    signal = read_wav(args.in_path)
    kernel = load_kernel(args.kernel)
    write_wav(apply_crosstalk(signal, kernel), args.out)
    return EXIT_OK


def _cmd_segments(args) -> int:
    stems = DirectoryStemProvider(args.stems).stems()
    frames = int(round(args.seconds * stems.sample_rate))
    segments = salient_segments(stems, args.track, frames, args.threshold)
    _write_json(
        args.report,
        {
            "schema_version": REPORT_SCHEMA_VERSION,
            "track": args.track,
            "segment_frames": frames,
            "ratio_threshold": args.threshold,
            "segments": [
                {
                    "start_frame": s.start,
                    "n_frames": s.length,
                    "start_seconds": s.start / stems.sample_rate,
                    "track": s.track,
                    "energy_ratio": s.energy_ratio,
                }
                for s in segments
            ],
        },
    )
    return EXIT_OK


def _cmd_batch(args) -> int:
    try:
        manifest = load_manifest(args.manifest)
    except (ValueError, OSError) as exc:
        print(f"fatal: {exc}", file=sys.stderr)
        return EXIT_USAGE
    reports = run_batch(manifest, workers=args.workers)
    _write_json(args.report, [r.as_dict() for r in reports])
    failures = [r for r in reports if r.error is not None]
    for r in failures:
        print(f"job {r.song_id} failed: {r.error}", file=sys.stderr)
    if not failures:
        return EXIT_OK
    return EXIT_PARTIAL if len(failures) < len(reports) else EXIT_FAILURE


def _add_compressor_flags(parser) -> None:
    parser.add_argument("--comp-threshold", type=float, default=-6.0, metavar="DB")
    parser.add_argument("--comp-ratio", type=float, default=6.0, metavar="R")
    parser.add_argument("--comp-attack", type=float, default=5.0, metavar="MS")
    parser.add_argument("--comp-release", type=float, default=100.0, metavar="MS")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hearmix",
        description="Remix and enhance music for hearing-aid listeners.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enhance", help="run the full enhancement chain on one song")
    p.add_argument("--mix", required=True, help="input mixture WAV")
    p.add_argument(
        "--stems",
        action="append",
        required=True,
        help="stem directory (repeat for each ensemble member)",
    )
    p.add_argument("--gains", required=True, help="gains JSON file")
    p.add_argument("--listener", required=True, help="listener JSON file")
    p.add_argument("--out", required=True, help="output WAV path")
    p.add_argument("--no-residual", action="store_true")
    p.add_argument("--no-compressor", action="store_true")
    p.add_argument("--weights", default=None, help="comma-separated ensemble weights")
    p.add_argument("--taps", type=int, default=DEFAULT_NALR_TAPS)
    _add_compressor_flags(p)
    p.set_defaults(func=_cmd_enhance)

    p = sub.add_parser("evaluate", help="score an estimate against a reference")
    p.add_argument("--reference", required=True)
    p.add_argument("--estimate", required=True)
    p.add_argument("--ref-stems", default=None)
    p.add_argument("--est-stems", default=None)
    p.add_argument("--report", required=True, help="output report JSON")
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("reference", help="build the ground-truth enhanced signal")
    p.add_argument("--stems", required=True)
    p.add_argument("--gains", required=True)
    p.add_argument("--listener", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_reference)

    p = sub.add_parser("simulate", help="apply HRTF crosstalk to a stereo file")
    p.add_argument("--in", dest="in_path", required=True)
    p.add_argument("--kernel", required=True, help="4-channel WAV or directory of 4 mono WAVs")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("segments", help="select windows where one track dominates")
    p.add_argument("--stems", required=True)
    p.add_argument("--track", required=True, choices=["vocals", "drums", "bass", "other"])
    p.add_argument("--seconds", type=float, default=6.0)
    p.add_argument("--threshold", type=float, default=0.1)
    p.add_argument("--report", required=True)
    p.set_defaults(func=_cmd_segments)

    p = sub.add_parser("batch", help="run every job in a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--workers", type=int, default=1)
    p.set_defaults(func=_cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:  # surface one clean line instead of a traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_FAILURE


if __name__ == "__main__":
    sys.exit(main())
