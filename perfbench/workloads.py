"""Workloads of the pipeline benchmark and the inputs each one starts from.

Every workload runs the same five CLI stages (train, compress, decompress,
evaluate, compare); the inputs and the config decide which layer does most
of the work. README.md in this directory says why each workload exists.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Workload:
    name: str
    train_per_class: int  # rows per class in train.csv (5 classes)
    codec_per_class: int  # rows per class in codec.csv, the input of compress and evaluate
    sigma: float  # spread of the synthetic class mixture
    max_epochs: int  # fixed epoch cap for the train stage
    n_trees: int  # forest size for the compare stage

    def config(self) -> dict:
        """The pipeline config every stage of this workload reads. Its seed
        (split, model initialisation, forest) is fixed, as in a user's
        config file; the workload seed picks the data."""
        return {
            "seed": 42,
            "train": {"max_epochs": self.max_epochs},
            "forest": {"n_trees": self.n_trees},
            "synth": {"n_per_class": self.train_per_class, "sigma": self.sigma},
        }


# Every stage stays under about 1.7 s, so that a run holds several samples
# of each: the machine's speed changes every few seconds, and with stages of
# 3 to 12 s (100k codec rows, 40 epochs, 100 trees) the median of a run's
# two samples spread by up to 0.3 across seeds.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("codec-25k", 500, 5000, 0.45, max_epochs=10, n_trees=5),
        Workload("train-10k", 2000, 400, 0.45, max_epochs=10, n_trees=3),
        Workload("compare-5k", 1000, 400, 0.9, max_epochs=10, n_trees=5),
    )
}


@dataclass(frozen=True)
class Inputs:
    """Paths of one workload's generated inputs."""

    directory: Path

    @property
    def config(self) -> Path:
        return self.directory / "config.json"

    @property
    def train_csv(self) -> Path:
        return self.directory / "train.csv"

    @property
    def codec_csv(self) -> Path:
        return self.directory / "codec.csv"

    def files(self) -> list[Path]:
        return sorted(p for p in self.directory.iterdir() if p.is_file())


def make_inputs(workload: Workload, seed: int, out_dir: Path) -> Inputs:
    """Write config.json, train.csv and codec.csv into ``out_dir``. The
    same seed gives the same bytes."""
    from flowcodec.cli import main

    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs(out_dir)
    inputs.config.write_text(json.dumps(workload.config(), indent=2) + "\n", encoding="utf-8")
    train_seed, codec_seed = (int(s) for s in np.random.SeedSequence(seed).generate_state(2))
    runs = [
        ["--seed", str(train_seed), "--output", str(inputs.train_csv)],
        ["--seed", str(codec_seed), "--n-per-class", str(workload.codec_per_class),
         "--output", str(inputs.codec_csv)],
    ]
    for extra in runs:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = main(["synth", "--config", str(inputs.config), *extra])
        if rc != 0:
            raise RuntimeError(f"synth exited with {rc} for {workload.name}")
    return inputs

