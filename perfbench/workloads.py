"""Workload definitions: which corpus each workload generates and why.

Every workload is a closed loop with one caller: a pass runs the CLI stages
``label -> train -> predict -> eval -> gradcheck`` one after another, each
started after the previous one returns, and the run repeats passes until its
time is up. All stages use their default ``--threads 1``, which makes every
output bitwise reproducible for a given seed.

The corpus is generated from the workload seed before timing starts; the
program only ever sees the written JSONL files.
"""

from __future__ import annotations

from dataclasses import dataclass

# Seeds. Development and tuning used DEV_SEEDS only. HELDOUT_SEED was never
# run while the benchmark was written; a change that claims a gain confirms
# it on this seed as well.
DEV_SEEDS = tuple(range(1, 11))
HELDOUT_SEED = 7907

# Model shape of the learning runs in the acceptance suite (criterion 6).
MODEL_ARGS = ("--variant", "full", "--beta", "0.1", "--dim", "16",
              "--hash-buckets", "32", "--layers", "1", "--heads", "2")
# The certification stage runs the default probe (its default seed too), so
# it is the same on every workload and seed.
GRADCHECK_ARGS = ("--variant", "full", "--beta", "0.1")
# ``train`` splits this share of the labeled pool off for validation.
VAL_FRACTION = 0.1
TRAIN_SEED = 0

STAGES = ("label", "train", "predict", "eval", "gradcheck")


@dataclass(frozen=True)
class DocClass:
    """``count`` synthetic documents with ``sections`` sections each."""

    sections: tuple
    count: int


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    sentences_per_section: tuple
    pool: tuple          # DocClass entries; labeled, then split train/val
    test: tuple          # DocClass entries; scored and evaluated
    epochs: int
    optimizer_args: tuple    # extra `train` flags
    repeats: dict            # stage -> back-to-back runs per pass, for stages
                             # well under a second


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="short-docs",
            why=("synth-default documents of about 19 sentences and 4 oracle "
                 "picks: per-document dispatch, parameter copies and Adam "
                 "carry training; the oracle is cheap"),
            sentences_per_section=(3, 6),
            pool=(DocClass((3, 5), 200),),
            test=(DocClass((3, 5), 200),),
            epochs=8,
            optimizer_args=(),
            repeats={"predict": 4},
        ),
        Workload(
            name="long-docs",
            why=("documents of about 50, 200 and 400 sentences at 10 per "
                 "section, so oracle picks grow with length: the greedy "
                 "oracle, O(n^3) DPP factorizations and O(n^2) attention"),
            # A fixed section length keeps the document lengths, and with
            # them the superlinear per-document costs, alike across seeds.
            sentences_per_section=(10, 10),
            pool=(DocClass((5, 5), 60), DocClass((20, 20), 2), DocClass((40, 40), 1)),
            test=(DocClass((5, 5), 30), DocClass((20, 20), 3), DocClass((40, 40), 1)),
            epochs=8,
            # Few documents per epoch: a larger step and smaller batches let
            # the model learn in 8 epochs, so the quality metrics guard
            # something (seg_f1 about 0.99 instead of about 0.01).
            optimizer_args=("--lr", "2e-2", "--batch-size", "4"),
            repeats={"predict": 4, "eval": 2},
        ),
    )
}
