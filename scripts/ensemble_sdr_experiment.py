#!/usr/bin/env python3
"""Measure how per-track SDR grows with ensemble size.

Monte Carlo over noisy-oracle stem sets: each ensemble member is the ground
truth plus independent white noise at a fixed SNR, so averaging K members
should buy about 10*log10(K) dB of SDR per track. Prints the measured gain
table against that prediction.
"""

from __future__ import annotations

import argparse

import numpy as np

from hearmix import (
    TRACK_NAMES,
    AudioBuffer,
    NoisyOracleStemProvider,
    StemSet,
    ensemble_average,
    sdr,
)

TONES = {"vocals": 392.0, "drums": 140.0, "bass": 65.0, "other": 988.0}


def synth_stems(rng, seconds, rate):
    n = int(seconds * rate)
    t = np.arange(n) / rate
    stems = {}
    for name in TRACK_NAMES:
        track = np.stack(
            [
                0.2
                * (
                    0.7 * np.sin(2 * np.pi * TONES[name] * t + rng.uniform(0, 6.28))
                    + 0.3 * rng.normal(0, 1, n)
                )
                for _ in range(2)
            ]
        )
        stems[name] = AudioBuffer(track, rate)
    return StemSet(**stems)


def gain_table(trials=20, snr_db=10.0, seconds=0.5, max_k=6, seed=0):
    """Rows ``(k, predicted, gains)`` for k = 1 .. max_k: the predicted
    10*log10(k) dB and each track's measured mean SDR gain, in
    ``TRACK_NAMES`` order, of averaging k members over one member."""
    rate = 44100
    gains = {k: {name: [] for name in TRACK_NAMES} for k in range(1, max_k + 1)}
    for trial in range(trials):
        rng = np.random.default_rng(seed + trial)
        truth = synth_stems(rng, seconds, rate)
        members = [
            NoisyOracleStemProvider(truth, snr_db, seed=seed + 1000 * trial + k).stems()
            for k in range(max_k)
        ]
        base = {
            name: np.mean([sdr(truth.track(name), m.track(name)).value for m in members])
            for name in TRACK_NAMES
        }
        for k in range(1, max_k + 1):
            averaged = ensemble_average(members[:k])
            for name in TRACK_NAMES:
                combined = sdr(truth.track(name), averaged.track(name)).value
                gains[k][name].append(combined - base[name])
    return [
        (k, 10 * np.log10(k), [np.mean(gains[k][name]) for name in TRACK_NAMES])
        for k in range(1, max_k + 1)
    ]


def main(argv=None):
    # options left out keep gain_table's defaults
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0], argument_default=argparse.SUPPRESS
    )
    parser.add_argument("--trials", type=int)
    parser.add_argument("--snr-db", type=float)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--max-k", type=int)
    parser.add_argument("--seed", type=int)
    rows = gain_table(**vars(parser.parse_args(argv)))

    header = f"{'K':>3} {'predicted':>10} " + " ".join(f"{name:>8}" for name in TRACK_NAMES)
    print(header)
    print("-" * len(header))
    for k, predicted, gains in rows:
        row = " ".join(f"{gain:8.2f}" for gain in gains)
        print(f"{k:>3} {predicted:>10.2f} {row}")


if __name__ == "__main__":
    main()
