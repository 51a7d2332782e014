"""Every subcommand on the demo song's files, decoded at file precision.

The demo is built once by ``scripts/make_demo_song.py`` and written at
PCM-24 and at float32, which ``read_wav`` both decodes to float32. A
second separator's stems are the demo stems 7 frames late. Each
subcommand runs through ``cli.main``, and its output files and reports
(with their paths dropped) must equal the same calls made in-process on
float64 copies of the decoded inputs. The demo lasts 4 s, the shortest
at which its enhancement fires the compressor (at 2, 3 and 3.5 s it does not).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
import pytest

from hearmix import (
    FLOAT_32,
    PCM_24,
    AudioBuffer,
    CompressorParams,
    EnhanceOptions,
    StemSet,
    WavFormat,
    apply_crosstalk,
    build_reference,
    enhance,
    evaluate_song,
    load_gains,
    load_kernel,
    load_listener,
    read_wav,
    salient_segments,
    write_wav,
)
from hearmix.cli import EXIT_OK, EXIT_PARTIAL, main
from hearmix.stems import TRACK_NAMES
from util import load_script

DEMO_SECONDS = 4.0
STEM_FOLDERS = ("stems", "late_stems")
WAV_FILES = (
    "mix.wav",
    "kernel.wav",
    *(f"{folder}/{name}.wav" for folder in STEM_FOLDERS for name in TRACK_NAMES),
)


@pytest.fixture(scope="module")
def demo(tmp_path_factory):
    """The demo folder, by the WAV encoding of its inputs."""
    root = tmp_path_factory.mktemp("demo")
    demo_song = load_script("make_demo_song")
    demo_song.main(["--out-dir", str(root / FLOAT_32), "--seconds", str(DEMO_SECONDS)])
    folders = {FLOAT_32: root / FLOAT_32, PCM_24: root / PCM_24}
    (folders[FLOAT_32] / "late_stems").mkdir()
    for name in TRACK_NAMES:
        stem = read_wav(folders[FLOAT_32] / "stems" / f"{name}.wav")
        late = np.zeros_like(stem.samples)
        late[:, 7:] = stem.samples[:, :-7]
        write_wav(stem.with_samples(late), folders[FLOAT_32] / "late_stems" / f"{name}.wav")
    for folder in STEM_FOLDERS:
        (folders[PCM_24] / folder).mkdir(parents=True)
    for name in ("gains.json", "listener.json"):
        (folders[PCM_24] / name).write_bytes((folders[FLOAT_32] / name).read_bytes())
    for name in WAV_FILES:
        buffer = read_wav(folders[FLOAT_32] / name)
        fmt = WavFormat(PCM_24, buffer.sample_rate, buffer.channels)
        write_wav(buffer, folders[PCM_24] / name, fmt)
    for folder in folders.values():
        (folder / "batch.json").write_text(
            json.dumps(
                {
                    "jobs": [
                        {"song_id": song_id, "mix": "mix.wav", "gains": "gains.json",
                         "stems": ["no_stems"] if song_id == "c" else list(STEM_FOLDERS),
                         "listener": "listener.json", "out": f"batch/{song_id}.wav"}
                        for song_id in ("a", "b", "c")  # c fails alone
                    ]
                }
            )
        )
        for name in WAV_FILES:
            assert read_wav(folder / name).samples.dtype == np.float32
    return folders


def _widened(path) -> AudioBuffer:
    """A file's samples as a float64 copy in the same memory order."""
    buffer = read_wav(path)
    return buffer.with_samples(buffer.samples.astype(np.float64))


def _stems(folder: Path) -> StemSet:
    return StemSet(**{name: _widened(folder / f"{name}.wav") for name in TRACK_NAMES})


def _written(buffer: AudioBuffer, path: Path) -> bytes:
    write_wav(buffer, path)
    return path.read_bytes()


def _run(*argv, status=EXIT_OK) -> None:
    assert main([str(arg) for arg in argv]) == status


@pytest.mark.parametrize("encoding", [PCM_24, FLOAT_32])
def test_subcommands_match_float64_copies(demo, tmp_path, capsys, encoding):
    d = demo[encoding]
    out = tmp_path / "cli"
    gains, listener = load_gains(d / "gains.json"), load_listener(d / "listener.json")
    mix = _widened(d / "mix.wav")
    stems, late_stems = (_stems(d / folder) for folder in STEM_FOLDERS)
    song = ("--gains", d / "gains.json", "--listener", d / "listener.json")

    _run(
        "enhance", "--mix", d / "mix.wav", "--stems", d / "stems", "--stems", d / "late_stems",
        *song, "--out", out / "enhanced.wav",
    )
    enhanced, report = enhance(mix, [stems, late_stems], gains, listener, song_id="mix")
    assert json.loads(capsys.readouterr().out) == report.as_dict()
    assert (out / "enhanced.wav").read_bytes() == _written(enhanced, tmp_path / "enhanced.wav")

    _run("reference", "--stems", d / "stems", *song, "--out", out / "reference.wav")
    reference = build_reference(stems, gains, listener)
    assert (out / "reference.wav").read_bytes() == _written(reference, tmp_path / "reference.wav")

    _run("simulate", "--in", out / "enhanced.wav", "--kernel", d / "kernel.wav", "--out", out / "heard.wav")
    heard = apply_crosstalk(_widened(out / "enhanced.wav"), load_kernel(d / "kernel.wav"))
    assert (out / "heard.wav").read_bytes() == _written(heard, tmp_path / "heard.wav")

    _run(
        "evaluate", "--reference", out / "reference.wav", "--estimate", out / "enhanced.wav",
        "--ref-stems", d / "stems", "--est-stems", d / "late_stems", "--report", out / "evaluate.json",
    )
    scores = json.loads((out / "evaluate.json").read_text())
    breakdown = evaluate_song(
        _widened(out / "reference.wav"), _widened(out / "enhanced.wav"), stems, late_stems
    )
    assert math.isfinite(scores["overall_sdr_db"]) and scores["overall_sdr_db"] < 100.0
    assert scores["overall_sdr_db"] == breakdown.overall_db
    assert scores["per_track_sdr_db"] == breakdown.per_track_db

    _run(
        "segments", "--stems", d / "stems", "--track", "vocals", "--seconds", "1",
        "--report", out / "segments.json",
    )
    segments = json.loads((out / "segments.json").read_text())["segments"]
    expected = salient_segments(stems, "vocals", mix.sample_rate)
    assert segments
    assert [(s["start_frame"], s["energy_ratio"]) for s in segments] == [
        (s.start, s.energy_ratio) for s in expected
    ]

    _run(
        "batch", "--manifest", d / "batch.json", "--report", out / "batch.json", "--workers", 2,
        status=EXIT_PARTIAL,
    )
    assert capsys.readouterr().err.startswith("job c failed: FileNotFoundError: ")
    batch = json.loads((out / "batch.json").read_text())
    assert batch[2]["error"].startswith("FileNotFoundError: ")
    assert not (d / "batch" / "c.wav").exists()
    for song_id, job_report in zip(("a", "b"), batch):
        enhanced, report = enhance(mix, [stems, late_stems], gains, listener, song_id=song_id)
        assert job_report == report.as_dict()
        assert (d / "batch" / f"{song_id}.wav").read_bytes() == _written(
            enhanced, tmp_path / f"{song_id}.wav"
        )


@pytest.mark.parametrize(
    "flags, options",
    [
        # equal attack and release, both coefficients underflowing to 0
        (("--comp-attack", "1e-5", "--comp-release", "1e-5"),
         EnhanceOptions(compressor=CompressorParams(attack_ms=1e-5, release_ms=1e-5))),
        # unequal attack and release: the smoother solves blocks of mixed choices
        (("--comp-attack", "0.1", "--comp-release", "1"),
         EnhanceOptions(compressor=CompressorParams(attack_ms=0.1, release_ms=1.0))),
        # each weight over their sum keeps every product inside float64
        (("--weights", "1e308,1e307"), EnhanceOptions(ensemble_weights=(1e308, 1e307))),
    ],
    ids=["instant_compressor", "snappy_compressor", "weights_near_overflow"],
)
def test_enhance_flags_match_their_options(demo, tmp_path, capsys, flags, options):
    d = demo[FLOAT_32]
    stems = [a for folder in STEM_FOLDERS for a in ("--stems", d / folder)]
    _run(
        "enhance", "--mix", d / "mix.wav", *stems, "--gains", d / "gains.json",
        "--listener", d / "listener.json", "--out", tmp_path / "cli.wav", *flags,
    )
    enhanced, report = enhance(
        _widened(d / "mix.wav"), [_stems(d / folder) for folder in STEM_FOLDERS],
        load_gains(d / "gains.json"), load_listener(d / "listener.json"), options, song_id="mix",
    )
    assert report.compressor_applied is True
    assert json.loads(capsys.readouterr().out) == report.as_dict()
    assert (tmp_path / "cli.wav").read_bytes() == _written(enhanced, tmp_path / "enhanced.wav")
