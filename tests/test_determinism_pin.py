"""Pinned output digests of a fixed-seed run.

A refactor that should not change the numbers must keep these sha256 values.
A change that alters the math on purpose updates them in the same commit and
says why. The training run uses a large learning rate so that validation
loss bottoms out early and the best checkpoint differs from the final one,
and gradient accumulation so that a partial accumulation window is flushed.
"""

import hashlib

from sectsum.cli import run

TRAIN_DIGESTS = {
    "checkpoint.ckpt":
        "9898f9af9d1e960d26c603012e49b465a3d39c5f868959a00bce16bb941abb6d",
    "best_checkpoint.ckpt":
        "c98c6700d8748d323940f5a6fb69b34cab438e48e550ea249f60c337e59b1393",
    "metrics.jsonl":
        "4f9e63c85202bc269fa9a7f077fa7e32146de8c3909af412d7e2956fb19cd1e7",
}
GRADCHECK_STDOUT_DIGEST = (
    "297132d7d84e978cee289df82134d2cd66f5aa980cf72a2b61e65427c56d9300"
)


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def test_train_outputs_are_pinned(tmp_path):
    corpus = tmp_path / "corpus.jsonl"
    assert run(["synth", "--out", str(corpus), "--docs", "12", "--seed", "3",
                "--sections", "2", "3", "--sentences", "3", "4"]) == 0
    out = tmp_path / "model"
    assert run(["train", "--corpus", str(corpus), "--out", str(out),
                "--val-fraction", "0.25", "--variant", "full", "--beta", "0.1",
                "--epochs", "4", "--batch-size", "4", "--grad-accumulation", "2",
                "--lr", "0.2", "--dim", "8", "--hash-buckets", "16",
                "--layers", "1", "--heads", "2", "--seed", "1"]) == 0
    digests = {name: _sha256((out / name).read_bytes()) for name in TRAIN_DIGESTS}
    assert digests == TRAIN_DIGESTS


def test_gradcheck_stdout_is_pinned(capsys):
    assert run(["gradcheck"]) == 0
    assert _sha256(capsys.readouterr().out.encode("utf-8")) == GRADCHECK_STDOUT_DIGEST
