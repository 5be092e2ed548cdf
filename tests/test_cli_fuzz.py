"""Fuzzing ``cli.run`` with malformed inputs.

Each example takes a valid corpus, predictions file, ``--config`` object or
checkpoint, replaces one field with an odd JSON value (or a whole line with
bytes that are not UTF-8, or JSON nested 100,000 deep), and runs the command
that reads it. ``run`` must return, never raise, and give the exit code the
README documents: 0 or 2 (malformed data) for corpora, predictions and
checkpoints, and also 1 (invalid settings) for config files.
"""

import copy
import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from sectsum import FeatureConfig, init_params, parse_corpus, save_checkpoint
from sectsum.cli import run

# JSON texts that replace one field, written verbatim (1e999 reaches the
# parser as written)
VALUES = ["null", "true", "-1", "-7", str(10**30), "1.5", "1e999", '""', '"x"',
          '"\\ud800"', "[]", '["x"]', "{}", '[[0, ["x", [[]]]]]']
# whole lines that replace one record
LINES = [b'{"id": "\xff\xfe"}', b"[" * 100_000 + b"]" * 100_000]
_MARK = "\x00mutant"

MODEL = ["--dim", "8", "--hash-buckets", "16", "--layers", "1", "--heads", "2"]
# --epochs on the command line overrides the config file's value, which is
# still type-checked, so a mutated epoch count cannot make a run unbounded
TRAIN = ["--epochs", "1", "--val-fraction", "0", *MODEL]
CONFIG = {"variant": "full", "beta": 0.1, "learning_rate": 0.01, "warmup_fraction": 0.1,
          "epochs": 1, "batch_size": 2, "grad_accumulation": 1, "rng_seed": 0}


def _paths(value, prefix=()):
    """Key paths to every field inside a JSON value; a list contributes its
    first and last entries."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list) and value:
        items = {0: value[0], len(value) - 1: value[-1]}.items()
    else:
        return []
    return [path for key, item in items
            for path in [prefix + (key,), *_paths(item, prefix + (key,))]]


def _replace(value, path, text):
    """JSON text of ``value`` with the field at ``path`` replaced by ``text``."""
    mutant = copy.deepcopy(value)
    parent = mutant
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = _MARK
    return json.dumps(mutant).replace(json.dumps(_MARK), text).encode()


@pytest.fixture(scope="module")
def valid(tmp_path_factory):
    """Valid inputs as JSON values: corpus records, prediction records, the
    config object, and the checkpoint header plus its binary body."""
    root = tmp_path_factory.mktemp("valid")
    corpus = root / "corpus.jsonl"
    assert run(["synth", "--out", str(corpus), "--docs", "3", "--sections", "2", "2",
                "--sentences", "2", "3"]) == 0
    docs, _ = parse_corpus(corpus)
    checkpoint = root / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    head, body = checkpoint.read_bytes().split(b"\n", 1)
    return {
        "corpus": [json.loads(line) for line in corpus.read_text().splitlines()],
        "predictions": [{"id": d.id, "selected": [0], "boundaries": [0, 2],
                         "scores_sum": [0.5] * len(d), "scores_seg": [0.5] * len(d)}
                        for d in docs],
        "config": [CONFIG],
        "checkpoint": [json.loads(head)],
        "body": body,
    }


def _write(valid, kind, index, line, root):
    """Write all four inputs under ``root``, with line ``index`` of ``kind``
    replaced by ``line``; returns their paths."""
    paths = {}
    for name, suffix in (("corpus", ".jsonl"), ("predictions", ".jsonl"),
                         ("config", ".json"), ("checkpoint", ".ckpt")):
        lines = [json.dumps(record).encode() for record in valid[name]]
        if name == kind:
            lines[index] = line
        data = b"\n".join(lines) + b"\n"
        if name == "checkpoint":
            data += valid["body"]
        paths[name] = root / (name + suffix)
        paths[name].write_bytes(data)
    return paths


def _argv(command, paths, out):
    inputs = {
        "label": ["--corpus", paths["corpus"], "--out", out / "labeled.jsonl"],
        "train": ["--corpus", paths["corpus"], "--config", paths["config"], "--out", out,
                  *TRAIN],
        "predict": ["--corpus", paths["corpus"], "--checkpoint", paths["checkpoint"],
                    "--out", out],
        "eval": ["--corpus", paths["corpus"], "--predictions", paths["predictions"],
                 "--out", out, "--plot-data", "--k-max", "3"],
        "analyze": ["--corpus", paths["corpus"], "--out", out],
    }[command]
    return [command, *map(str, inputs)]


COMMANDS = {  # input kind -> (commands that read it, documented exit codes)
    "corpus": (["label", "train", "predict", "analyze"], {0, 2}),
    "predictions": (["eval"], {0, 2}),
    "config": (["train"], {0, 1, 2}),
    "checkpoint": (["predict"], {0, 2}),
}


@settings(max_examples=800, deadline=None, derandomize=True)
@given(data=st.data())
def test_run_survives_malformed_input(valid, data):
    kind = data.draw(st.sampled_from(sorted(COMMANDS)), label="kind")
    commands, codes = COMMANDS[kind]
    command = data.draw(st.sampled_from(commands), label="command")
    index = data.draw(st.integers(0, len(valid[kind]) - 1), label="line")
    record = valid[kind][index]
    line = data.draw(st.one_of(
        st.sampled_from(LINES),
        st.builds(lambda path, text: _replace(record, path, text),
                  st.sampled_from(_paths(record)), st.sampled_from(VALUES)),
    ), label="line text")
    with tempfile.TemporaryDirectory() as root:
        paths = _write(valid, kind, index, line, Path(root))
        code = run(_argv(command, paths, Path(root) / "out"))
    event(f"{kind} {command} exit {code}")  # shown by --hypothesis-show-statistics
    assert code in codes, (command, line[:200])
