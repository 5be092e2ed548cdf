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
        "580c3c0caa4582d19be2a593211cbd69ce739cbce0d5f5328000efbb059cc4ea",
    "best_checkpoint.ckpt":
        "0ae21d449d2e0e71b3f6e2551f315087a5446bfc21a1cc9e73a622791c62fd54",
    "metrics.jsonl":
        "e77a9fbff9602df257837fbcf28c29fcf08ee20d789f982af212fdceaebfa7ee",
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
