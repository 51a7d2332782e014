#!/usr/bin/env python3
"""Synthesize a small demo song and run it through the enhancement chain.

Creates a working directory holding per-track stems, the mixture, a gains
file, a listener file, and a mild crosstalk kernel (``kernel.wav``, four
channels: LL, RL, LR, RR), then runs the full pipeline and prints the
report. The stems and the mixture are heard through that kernel. The files
double as ready-made inputs for the CLI, e.g.:

    hearmix enhance --mix demo/mix.wav --stems demo/stems \\
        --gains demo/gains.json --listener demo/listener.json \\
        --out demo/enhanced.wav
    hearmix simulate --in demo/enhanced.wav --kernel demo/kernel.wav \\
        --out demo/heard.wav
"""

from __future__ import annotations

import argparse
import json
from pathlib import Path

import numpy as np

from hearmix import (
    AudioBuffer,
    Listener,
    StemSet,
    apply_crosstalk,
    CrosstalkKernel,
    enhance,
    load_gains,
    load_listener,
    write_wav,
)

TRACK_PLANS = {
    "vocals": dict(freqs=(330.0, 440.0, 550.0), vibrato=5.0, noise=0.05),
    "drums": dict(freqs=(55.0, 90.0), vibrato=0.0, noise=0.5),
    "bass": dict(freqs=(41.2, 82.4), vibrato=0.0, noise=0.02),
    "other": dict(freqs=(660.0, 880.0, 1320.0), vibrato=2.0, noise=0.1),
}


def synth_track(rng, plan, seconds, rate):
    n = int(seconds * rate)
    t = np.arange(n) / rate
    track = np.zeros((2, n))
    for ch in range(2):
        signal = np.zeros(n)
        for f in plan["freqs"]:
            phase = rng.uniform(0, 2 * np.pi)
            vibrato = plan["vibrato"] * np.sin(2 * np.pi * 0.8 * t)
            signal += np.sin(2 * np.pi * (f + vibrato) * t + phase) / len(plan["freqs"])
        signal += plan["noise"] * rng.normal(0, 1, n)
        envelope = 0.5 + 0.5 * np.abs(np.sin(2 * np.pi * 0.45 * t + ch))
        track[ch] = 0.2 * envelope * signal
    return AudioBuffer(track, rate)


def mild_crosstalk_kernel(rate, leak_db=-8.0, delay_frames=12):
    length = delay_frames + 4
    direct = np.zeros(length)
    direct[0] = 1.0
    cross = np.zeros(length)
    cross[delay_frames] = 10.0 ** (leak_db / 20.0)
    return CrosstalkKernel(direct, cross, cross.copy(), direct.copy(), rate)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out-dir", type=Path, default=Path("demo"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--rate", type=int, default=44100)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument(
        "--loss-db", type=float, default=35.0, help="flat hearing loss for the listener"
    )
    args = parser.parse_args(argv)

    rng = np.random.default_rng(args.seed)
    out = args.out_dir
    (out / "stems").mkdir(parents=True, exist_ok=True)

    stems = StemSet(
        **{
            name: synth_track(rng, plan, args.seconds, args.rate)
            for name, plan in TRACK_PLANS.items()
        }
    )
    mix = AudioBuffer(
        stems.vocals.samples
        + stems.drums.samples
        + stems.bass.samples
        + stems.other.samples,
        args.rate,
    )

    # the "received" signal a listener's system would see: mild crosstalk
    kernel = mild_crosstalk_kernel(args.rate)
    received = apply_crosstalk(mix, kernel)
    crosstalked_stems = StemSet(
        **{name: apply_crosstalk(buffer, kernel) for name, buffer in stems.as_dict().items()}
    )

    for name, buffer in crosstalked_stems.as_dict().items():
        write_wav(buffer, out / "stems" / f"{name}.wav")
    write_wav(received, out / "mix.wav")
    write_wav(
        AudioBuffer(np.stack([kernel.h_ll, kernel.h_rl, kernel.h_lr, kernel.h_rr]), args.rate),
        out / "kernel.wav",
    )

    (out / "gains.json").write_text(
        json.dumps({"vocals": 3.0, "drums": 0.0, "bass": -3.0, "other": 0.0}, indent=2)
    )
    (out / "listener.json").write_text(
        json.dumps(
            {
                "id": "demo-listener",
                "frequencies": [250, 500, 1000, 2000, 4000, 6000],
                "left_db_hl": [args.loss_db] * 6,
                "right_db_hl": [args.loss_db * 0.8] * 6,
            },
            indent=2,
        )
    )

    listener = load_listener(out / "listener.json")
    gains = load_gains(out / "gains.json")
    enhanced, report = enhance(received, [crosstalked_stems], gains, listener, song_id="demo")
    write_wav(enhanced, out / "enhanced.wav")

    print(json.dumps(report.as_dict(), indent=2))
    print(f"\nwrote demo files under {out}/")


if __name__ == "__main__":
    main()
