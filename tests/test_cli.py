import json
import time

import pytest

from sectsum import (
    CorpusError, FeatureConfig, Prediction, cli, corpus, evaluation,
    inference, init_params, parse_corpus, read_predictions, save_checkpoint,
    training, write_predictions,
)
from sectsum.cli import run


def _synth(path, docs=8, seed=5, bias=0.8):
    code = run(["synth", "--out", str(path), "--docs", str(docs),
                "--seed", str(seed), "--bias", str(bias),
                "--sections", "2", "3", "--sentences", "3", "4"])
    assert code == 0


def test_synth_writes_parseable_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _synth(path, docs=6)
    docs, skipped = parse_corpus(path)
    assert len(docs) == 6 and skipped == 0


def test_synth_deterministic_across_invocations(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    _synth(a, docs=7, seed=7)
    _synth(b, docs=7, seed=7)
    assert a.read_bytes() == b.read_bytes()


def _strip_labels(path):
    records = [json.loads(line) for line in path.read_text().splitlines()]
    for r in records:
        r.pop("labels", None)
    path.write_text("\n".join(json.dumps(r) for r in records) + "\n")


def test_label_out_and_in_place(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _synth(path, docs=4)
    _strip_labels(path)
    out = tmp_path / "labeled.jsonl"
    unlabeled = path.read_bytes()
    assert run(["label", "--corpus", str(path), "--out", str(out)]) == 0
    docs, _ = parse_corpus(out)
    assert all(d.labels is not None for d in docs)
    assert path.read_bytes() == unlabeled  # --out must not touch the input
    assert run(["label", "--corpus", str(path), "--in-place"]) == 0
    assert path.read_bytes() == out.read_bytes()
    relabeled, _ = parse_corpus(path)
    assert all(d.labels is not None for d in relabeled)


def test_surrogate_corpus_exits_2_and_keeps_the_input(tmp_path, capsys):
    """A JSON escape of a lone surrogate cannot be written back as UTF-8; it
    is rejected when the corpus is read, before anything is written."""
    path = tmp_path / "corpus.jsonl"
    _synth(path, docs=3)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[2]["sentences"][0] = "abc \ud800 def"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    before = path.read_bytes()
    assert run(["label", "--corpus", str(path), "--in-place"]) == 2
    assert "line 3" in capsys.readouterr().err
    assert path.read_bytes() == before


@pytest.mark.parametrize("in_place", [False, True], ids=["out", "in_place"])
def test_label_write_failing_halfway_leaves_no_partial_file(tmp_path, monkeypatch,
                                                             in_place):
    path = tmp_path / "corpus.jsonl"
    _synth(path, docs=3)
    before = path.read_bytes()
    written = []

    def record_then_fail(doc):  # the second document cannot be written
        written.append(doc.id)
        if len(written) == 2:
            raise OSError("disk full")
        return to_record(doc)

    to_record = corpus._doc_to_record
    monkeypatch.setattr(corpus, "_doc_to_record", record_then_fail)
    target = ["--in-place"] if in_place else ["--out", str(tmp_path / "labeled.jsonl")]
    assert run(["label", "--corpus", str(path), *target]) == 2
    assert len(written) == 2
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["corpus.jsonl"]


def test_predict_write_failing_halfway_leaves_no_output(tmp_path, labeled_corpus,
                                                        monkeypatch):
    checkpoint = tmp_path / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    rendered = []

    def render_then_fail(doc, selected):
        rendered.append(doc.id)
        if len(rendered) == 2:
            raise OSError("disk full")
        return render(doc, selected)

    render = inference.render_summary
    monkeypatch.setattr(inference, "render_summary", render_then_fail)
    out = tmp_path / "pred"
    assert run(["predict", "--corpus", str(labeled_corpus), "--checkpoint",
                str(checkpoint), "--out", str(out)]) == 2
    assert len(rendered) == 2
    assert list(out.iterdir()) == []


def _train(tmp_path, corpus, out, extra=()):
    args = ["train", "--corpus", str(corpus), "--out", str(out),
            "--epochs", "2", "--dim", "8", "--hash-buckets", "16",
            "--layers", "1", "--heads", "2", "--seed", "1",
            "--val-fraction", "0.25"]
    return run(args + list(extra))


@pytest.fixture()
def labeled_corpus(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _synth(path, docs=8)
    assert run(["label", "--corpus", str(path), "--in-place"]) == 0
    return path


def test_train_outputs(tmp_path, labeled_corpus):
    out = tmp_path / "run"
    assert _train(tmp_path, labeled_corpus, out, ["--variant", "joint"]) == 0
    for name in ("checkpoint.ckpt", "best_checkpoint.ckpt", "metrics.jsonl",
                 "effective_config.json"):
        assert (out / name).exists()
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["variant"] == "joint"
    assert effective["epochs"] == 2
    assert effective["ffn_hidden"] == 16  # 2 * --dim when --ffn-hidden is omitted
    history = [json.loads(line)
               for line in (out / "metrics.jsonl").read_text().splitlines()]
    assert [h["epoch"] for h in history] == [1, 2]


def test_train_deterministic_checkpoints(tmp_path, labeled_corpus):
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert _train(tmp_path, labeled_corpus, out1,
                  ["--variant", "full", "--beta", "0.1", "--threads", "1"]) == 0
    assert _train(tmp_path, labeled_corpus, out2,
                  ["--variant", "full", "--beta", "0.1", "--threads", "1"]) == 0
    assert (out1 / "checkpoint.ckpt").read_bytes() == \
        (out2 / "checkpoint.ckpt").read_bytes()
    assert (out1 / "best_checkpoint.ckpt").read_bytes() == \
        (out2 / "best_checkpoint.ckpt").read_bytes()


def test_train_config_file_with_flag_override(tmp_path, labeled_corpus):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"epochs": 5, "variant": "base",
                                       "learning_rate": 0.002}))
    out = tmp_path / "run"
    code = run(["train", "--corpus", str(labeled_corpus), "--out", str(out),
                "--config", str(config_path), "--epochs", "1",
                "--dim", "8", "--hash-buckets", "16", "--layers", "1",
                "--heads", "2", "--val-fraction", "0"])
    assert code == 0
    effective = json.loads((out / "effective_config.json").read_text())
    assert effective["epochs"] == 1  # flag beats file
    assert effective["variant"] == "base"
    assert effective["learning_rate"] == 0.002


def test_train_rejects_unknown_config_key(tmp_path, labeled_corpus):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"momentum": 0.9}))
    code = run(["train", "--corpus", str(labeled_corpus),
                "--out", str(tmp_path / "x"), "--config", str(config_path)])
    assert code == 2


@pytest.mark.parametrize("setting", [
    {"beta": "x"}, {"epochs": 2.5}, {"batch_size": 1.5}, {"rng_seed": "0"},
    {"beta": True}, {"variant": 3},
], ids=["beta_str", "epochs_float", "batch_size_float", "rng_seed_str",
        "beta_bool", "variant_int"])
def test_train_rejects_mistyped_config_value(tmp_path, labeled_corpus, capsys,
                                             setting):
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(setting))
    out = tmp_path / "run"
    code = run(["train", "--corpus", str(labeled_corpus), "--out", str(out),
                "--config", str(config_path)])
    assert code == 2
    assert not out.exists()
    assert next(iter(setting)) in capsys.readouterr().err


def test_train_requires_labels(tmp_path):
    path = tmp_path / "corpus.jsonl"
    _synth(path, docs=4)
    _strip_labels(path)
    code = run(["train", "--corpus", str(path), "--out", str(tmp_path / "x"),
                "--val-fraction", "0"])
    assert code == 2


def test_train_requires_labels_in_val_corpus(tmp_path, labeled_corpus, capsys):
    val = tmp_path / "val.jsonl"
    _synth(val, docs=2, seed=9)
    _strip_labels(val)
    out = tmp_path / "run"
    assert _train(tmp_path, labeled_corpus, out, ["--val-corpus", str(val)]) == 2
    assert "has no labels" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["label", "train", "predict", "eval", "analyze"])
def test_repeated_document_id_exits_2(tmp_path, labeled_corpus, capsys, command):
    """A record that repeats an earlier record's id, with the same sentence
    count and labels but other text, is malformed data for every command
    that reads a corpus."""
    records = [json.loads(line) for line in labeled_corpus.read_text().splitlines()]
    twin = json.loads(json.dumps(records[0]))
    twin["sentences"][0] = "an entirely different opening sentence"
    corpus = _write_jsonl(tmp_path / "twins.jsonl", records + [twin])
    predictions = _write_jsonl(tmp_path / "predictions.jsonl",
                               _prediction_records(parse_corpus(labeled_corpus)[0]))
    checkpoint = tmp_path / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    out = str(tmp_path / "out")
    argv = {
        "label": ["label", "--corpus", str(corpus), "--out", str(tmp_path / "l.jsonl")],
        "train": ["train", "--corpus", str(corpus), "--out", out, "--epochs", "1",
                  "--dim", "8", "--hash-buckets", "16", "--layers", "1", "--heads", "2"],
        "predict": ["predict", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                    "--out", out],
        "eval": ["eval", "--corpus", str(corpus), "--predictions", str(predictions),
                 "--out", out],
        "analyze": ["analyze", "--corpus", str(corpus), "--out", out],
    }[command]
    assert run(argv) == 2
    assert f"line {len(records) + 1}: document id {twin['id']!r} repeats line 1" \
        in capsys.readouterr().err


def test_predict_non_finite_head_logit_exits_3(tmp_path, labeled_corpus, capsys):
    config = FeatureConfig(dim=8, hash_buckets=16)
    params = init_params(config, n_layers=1, n_heads=2)
    params.w_sum[...] = [1e308, -1e308] * 4  # finite weights; hidden @ w_sum is not
    checkpoint = tmp_path / "model.ckpt"
    save_checkpoint(checkpoint, params, config)
    out = tmp_path / "pred"
    assert run(["predict", "--corpus", str(labeled_corpus), "--checkpoint",
                str(checkpoint), "--out", str(out)]) == 3
    assert "non-finite head logit" in capsys.readouterr().err
    assert not (out / "predictions.jsonl").exists()


def _out_of_memory(*args, **kwargs):
    raise MemoryError("Unable to allocate 720. MiB for an array")


def test_out_of_memory_exits_4(tmp_path, labeled_corpus, monkeypatch, capsys):
    """An allocation failure in any stage exits 4 with one stderr line that
    names the command, and the stack when it fails in a stack's pass, and
    leaves no output file."""
    monkeypatch.setattr(cli, "grad_check", _out_of_memory)
    assert run(["gradcheck"]) == 4
    assert capsys.readouterr().err == \
        "out of memory in gradcheck: Unable to allocate 720. MiB for an array\n"
    config = FeatureConfig(dim=8, hash_buckets=16)
    checkpoint, out = tmp_path / "model.ckpt", tmp_path / "pred"
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    monkeypatch.setattr(inference, "forward_document", _out_of_memory)
    assert run(["predict", "--corpus", str(labeled_corpus), "--checkpoint",
                str(checkpoint), "--out", str(out)]) == 4
    assert capsys.readouterr().err.splitlines() == [
        "out of memory in predict: a stack of 3 from document 'synth-5-0000', "
        "padded to 7 sentences: Unable to allocate 720. MiB for an array"]
    assert not (out / "predictions.jsonl").exists()
    monkeypatch.setattr(training, "forward_document", _out_of_memory)
    assert _train(tmp_path, labeled_corpus, tmp_path / "run") == 4
    assert capsys.readouterr().err.splitlines() == [
        "out of memory in train: a stack of 6 from document 'synth-5-0005', "
        "padded to 12 sentences: Unable to allocate 720. MiB for an array"]
    assert not (tmp_path / "run" / "checkpoint.ckpt").exists()


def test_predict_and_eval_pipeline(tmp_path, labeled_corpus):
    out = tmp_path / "run"
    assert _train(tmp_path, labeled_corpus, out, ["--variant", "joint"]) == 0
    pred_dir = tmp_path / "pred"
    code = run(["predict", "--corpus", str(labeled_corpus),
                "--checkpoint", str(out / "best_checkpoint.ckpt"),
                "--out", str(pred_dir), "--k", "2"])
    assert code == 0
    preds = read_predictions(pred_dir / "predictions.jsonl")
    docs, _ = parse_corpus(labeled_corpus)
    assert len(preds) == len(docs)
    assert all(len(p.selected) == 2 for p in preds)

    eval_dir = tmp_path / "eval"
    code = run(["eval", "--corpus", str(labeled_corpus),
                "--predictions", str(pred_dir / "predictions.jsonl"),
                "--out", str(eval_dir), "--plot-data", "--k-max", "3"])
    assert code == 0
    report = json.loads((eval_dir / "report.json").read_text())
    assert set(report) >= {"rouge1", "seg_f1", "windowdiff", "n_documents"}
    sweep = (eval_dir / "score_vs_k.csv").read_text().splitlines()
    assert sweep[0] == "k,rouge1_f,rouge2_f,rougeL_f,avg_words"
    assert len(sweep) == 4  # header + k in 1..3
    hist = (eval_dir / "boundary_histogram.csv").read_text().splitlines()
    assert hist[0] == "offset,count"


def _prediction_records(docs):
    """One well-formed prediction record per document."""
    return [{"id": d.id, "selected": [0], "boundaries": [0],
             "scores_sum": [0.5] * len(d.sentences),
             "scores_seg": [0.5] * len(d.sentences)} for d in docs]


def _write_jsonl(path, records):
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    return path


@pytest.mark.parametrize("field, value", [
    ("selected", lambda n: [-1]),
    ("selected", lambda n: [n]),
    ("selected", lambda n: [1.5]),
    ("selected", lambda n: "ab"),
    ("boundaries", lambda n: [0, 999]),
    ("boundaries", lambda n: [0, True]),
    ("selected", lambda n: [1, 1, 1]),
    ("boundaries", lambda n: [0, 1, 0]),
    ("scores_sum", lambda n: [0.5] * (n - 1)),
    ("scores_seg", lambda n: [0.5] * (n + 1)),
    ("id", lambda n: ["x"]),
    ("id", lambda n: {}),
], ids=["selected_negative", "selected_n", "selected_float", "selected_str",
        "boundary_past_end", "boundary_bool", "selected_repeat", "boundary_repeat",
        "scores_sum_short", "scores_seg_long",
        "id_list", "id_object"])
def test_prediction_that_does_not_fit_its_document_exits_2(tmp_path, capsys,
                                                          field, value):
    corpus = tmp_path / "corpus.jsonl"
    _synth(corpus, docs=3)
    docs, _ = parse_corpus(corpus)
    records = _prediction_records(docs)
    records[1][field] = value(len(docs[1].sentences))
    predictions = _write_jsonl(tmp_path / "predictions.jsonl", records)
    code = run(["eval", "--plot-data", "--corpus", str(corpus), "--predictions",
                str(predictions), "--out", str(tmp_path / "eval")])
    assert code == 2
    err = capsys.readouterr().err
    assert docs[1].id in err or "line 2" in err, err


def test_prediction_that_repeats_a_document_id_exits_2(tmp_path, capsys):
    """A repeated document would count twice in every mean of the report."""
    corpus = tmp_path / "corpus.jsonl"
    _synth(corpus, docs=5)
    docs, _ = parse_corpus(corpus)
    records = _prediction_records(docs)
    predictions = _write_jsonl(tmp_path / "predictions.jsonl", records + records[1:2])
    assert run(["eval", "--corpus", str(corpus), "--predictions", str(predictions),
                "--out", str(tmp_path / "eval")]) == 2
    assert f"line 6: document id {docs[1].id!r} repeats line 2" in capsys.readouterr().err
    assert not (tmp_path / "eval").exists()


def test_prediction_for_unknown_document_is_rejected(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    _synth(corpus, docs=3)
    docs, _ = parse_corpus(corpus)
    ghost = Prediction("ghost", (0,), (0,), (0.5,), (0.5,))
    with pytest.raises(CorpusError, match="ghost"):
        write_predictions([ghost], docs, tmp_path / "p.jsonl")
    with pytest.raises(CorpusError, match="ghost"):
        evaluation.with_references([ghost], docs)
    records = _prediction_records(docs)
    records[2]["id"] = "ghost"
    predictions = _write_jsonl(tmp_path / "predictions.jsonl", records)
    assert run(["eval", "--plot-data", "--corpus", str(corpus), "--predictions",
                str(predictions), "--out", str(tmp_path / "e")]) == 2
    assert "ghost" in capsys.readouterr().err


def test_train_zero_norm_sentence_is_numeric_failure(tmp_path, labeled_corpus,
                                                     monkeypatch, capsys):
    forward = training.forward_document

    def zero_first_sentence(*args, **kwargs):
        enc = forward(*args, **kwargs)
        enc.hidden[0] = 0.0
        return enc

    monkeypatch.setattr(training, "forward_document", zero_first_sentence)
    assert _train(tmp_path, labeled_corpus, tmp_path / "run",
                  ["--variant", "full", "--beta", "0.1"]) == 3
    assert "zero-norm" in capsys.readouterr().err


def test_prediction_of_a_document_ignores_the_rest_of_the_corpus(tmp_path, labeled_corpus):
    """Reversing the corpus, or dropping half its documents, leaves every
    remaining document's prediction line byte for byte the same."""
    checkpoint = tmp_path / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2, rng_seed=3), config)
    lines = labeled_corpus.read_bytes().splitlines(keepends=True)

    def predictions(name, corpus_lines):
        corpus = tmp_path / f"{name}.jsonl"
        corpus.write_bytes(b"".join(corpus_lines))
        assert run(["predict", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                    "--out", str(tmp_path / name)]) == 0
        out = (tmp_path / name / "predictions.jsonl").read_bytes().splitlines()
        return {json.loads(line)["id"]: line for line in out}

    every = predictions("all", lines)
    assert len(every) == len(lines) == 8
    assert predictions("reversed", lines[::-1]) == every
    half = predictions("half", lines[1::2])
    assert len(half) == 4 and half == {i: every[i] for i in half}


def test_predict_rejects_mistyped_checkpoint_header(tmp_path, capsys):
    """Header values are checked before anything is sized from them: an
    ``n_layers`` the body cannot hold exits 2 at once."""
    corpus = tmp_path / "corpus.jsonl"
    _synth(corpus, docs=2)
    checkpoint = tmp_path / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    head, body = checkpoint.read_bytes().split(b"\n", 1)
    for field, value in (("n_layers", "1"), ("version", True), ("n_layers", 10**9),
                         ("n_layers", 10**30)):
        header = json.loads(head)
        header[field] = value
        checkpoint.write_bytes(json.dumps(header).encode() + b"\n" + body)
        start = time.perf_counter()
        assert run(["predict", "--corpus", str(corpus), "--checkpoint", str(checkpoint),
                    "--out", str(tmp_path / "p")]) == 2, (field, value)
        assert time.perf_counter() - start < 1.0
        assert field in capsys.readouterr().err


@pytest.mark.parametrize("payload", [
    b'{"id": "\xff\xfe"}\n', b"[" * 100_000 + b"]" * 100_000 + b"\n",
], ids=["not_utf8", "too_deep"])
@pytest.mark.parametrize("target", ["corpus", "predictions", "config", "checkpoint"])
def test_undecodable_input_exits_2(tmp_path, labeled_corpus, capsys, target, payload):
    """A line that is not UTF-8, or JSON nested past the recursion limit, is
    malformed data in every file the CLI reads."""
    docs, _ = parse_corpus(labeled_corpus)
    predictions = _write_jsonl(tmp_path / "predictions.jsonl", _prediction_records(docs))
    checkpoint = tmp_path / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    out = str(tmp_path / "out")
    if target == "corpus":
        labeled_corpus.write_bytes(labeled_corpus.read_bytes() + payload)
        argv = ["label", "--corpus", str(labeled_corpus), "--out", out]
    elif target == "predictions":
        predictions.write_bytes(predictions.read_bytes() + payload)
        argv = ["eval", "--corpus", str(labeled_corpus), "--predictions",
                str(predictions), "--out", out]
    elif target == "config":
        config_path = tmp_path / "config.json"
        config_path.write_bytes(payload)
        argv = ["train", "--corpus", str(labeled_corpus), "--config", str(config_path),
                "--out", out]
    else:
        checkpoint.write_bytes(payload + checkpoint.read_bytes().split(b"\n", 1)[1])
        argv = ["predict", "--corpus", str(labeled_corpus), "--checkpoint",
                str(checkpoint), "--out", out]
    assert run(argv) == 2
    assert "data error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["train", "eval"])
def test_empty_input_exits_2(tmp_path, labeled_corpus, capsys, command):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    argv = {
        "train": ["train", "--corpus", str(empty), "--out", str(tmp_path / "run")],
        "eval": ["eval", "--corpus", str(labeled_corpus), "--predictions", str(empty),
                 "--out", str(tmp_path / "eval")],
    }[command]
    assert run(argv) == 2
    assert "data error: no " in capsys.readouterr().err


def test_label_without_reference_exits_2(tmp_path, capsys):
    path = tmp_path / "corpus.jsonl"
    _synth(path, docs=4)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    records[2]["reference_summary"] = None
    _write_jsonl(path, records)
    out = tmp_path / "labeled.jsonl"
    assert run(["label", "--corpus", str(path), "--out", str(out)]) == 2
    assert f"document {records[2]['id']!r} has no reference summary" \
        in capsys.readouterr().err
    assert not out.exists()


def test_analyze_histogram_from_labels(tmp_path, labeled_corpus):
    out = tmp_path / "analysis"
    assert run(["analyze", "--corpus", str(labeled_corpus),
                "--out", str(out)]) == 0
    hist = json.loads((out / "boundary_histogram.json").read_text())
    docs, _ = parse_corpus(labeled_corpus)
    total_positive = sum(sum(d.labels.summary_labels) for d in docs)
    assert sum(hist.values()) == total_positive
    # predicted selections are eval --plot-data's histogram, not analyze's
    assert run(["analyze", "--corpus", str(labeled_corpus), "--predictions",
                str(labeled_corpus), "--out", str(out)]) == 1


def test_gradcheck_command(capsys):
    code = run(["gradcheck", "--dim", "8", "--hash-buckets", "16",
                "--layers", "1", "--heads", "2", "--variant", "full",
                "--seed", "0"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS" in out


def test_exit_codes(tmp_path, capsys):
    assert run([]) == 1  # no subcommand
    assert run(["train", "--corpus", "x.jsonl"]) == 1  # missing --out
    assert run(["synth", "--out", str(tmp_path / "x.jsonl"),
                "--bias", "1.5"]) == 1  # invalid parameter value
    assert run(["predict", "--corpus", "missing.jsonl",
                "--checkpoint", "missing.ckpt",
                "--out", str(tmp_path / "p")]) == 2  # unreadable input
    capsys.readouterr()  # silence accumulated stderr


@pytest.mark.parametrize("argv", [
    ["train", "--beta", "nan"],
    ["train", "--lr", "nan"],
    ["gradcheck", "--step", "0"],
    ["gradcheck", "--tolerance", "nan"],
    ["predict", "--threshold", "nan"],
    ["predict", "--k", "-1"],
    ["label", "--max-sentences", "-1"],
    ["train", "--val-fraction", "nan"],
    ["train", "--val-fraction", "-0.5"],
    ["train", "--val-fraction", "1.0"],
    ["train", "--threads", "0"],
    ["train", "--threads", "-3"],
    ["eval", "--k-max", "0"],
    ["eval", "--k-max", "-3"],
    ["train", "--heads", "0"],
    ["train", "--heads", "-2"],
    ["train", "--layers", "-1"],
    ["train", "--ffn-hidden", "0"],
    ["gradcheck", "--heads", "0"],
    ["gradcheck", "--layers", "-1"],
], ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_invalid_settings_exit_1(tmp_path, labeled_corpus, capsys, argv):
    checkpoint = tmp_path / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    inputs = {
        "train": ["--corpus", str(labeled_corpus), "--out", str(tmp_path / "run")],
        "gradcheck": [],
        "predict": ["--corpus", str(labeled_corpus), "--checkpoint", str(checkpoint),
                    "--out", str(tmp_path / "pred")],
        "label": ["--corpus", str(labeled_corpus), "--out", str(tmp_path / "l.jsonl")],
        "eval": ["--corpus", str(labeled_corpus), "--predictions",
                 str(tmp_path / "pred" / "predictions.jsonl"), "--out", str(tmp_path / "eval"),
                 "--plot-data"],
    }[argv[0]]
    if argv[0] == "eval":
        assert run(["predict", "--corpus", str(labeled_corpus), "--checkpoint",
                    str(checkpoint), "--out", str(tmp_path / "pred")]) == 0
    assert run(argv + inputs) == 1
    err = capsys.readouterr().err
    assert "invalid arguments" in err
    # a model shape is refused by name, not by a failing reshape later on
    shape = {"--heads": "n_heads", "--layers": "n_layers", "--ffn-hidden": "ffn_hidden"}
    assert argv[1] not in shape or f"{shape[argv[1]]} must be at least" in err
    # nothing is written before the settings are checked
    for output in ("run", "l.jsonl", "eval") + (("pred",) if argv[0] != "eval" else ()):
        assert not (tmp_path / output).exists()


@pytest.mark.parametrize("command", ["label", "predict"])
def test_threads_is_a_usage_error_of_label_and_predict(tmp_path, labeled_corpus, capsys,
                                                      command):
    """Both commands run in one process and take no worker count."""
    checkpoint = tmp_path / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    out = tmp_path / "out"
    inputs = {"label": ["--out", str(out)],
              "predict": ["--checkpoint", str(checkpoint), "--out", str(out)]}[command]
    assert run([command, "--corpus", str(labeled_corpus), "--threads", "2"] + inputs) == 1
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["predict", "--k", "-1"],
    ["predict", "--threshold", "nan"],
    ["label", "--max-sentences", "-1"],
], ids=lambda argv: "_".join(arg.lstrip("-") for arg in argv))
def test_invalid_number_exits_1_on_an_empty_corpus(tmp_path, capsys, argv):
    """The number arguments are checked before any input is read, so an
    empty corpus, which gives no document to fail on, still exits 1."""
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    checkpoint = tmp_path / "model.ckpt"
    config = FeatureConfig(dim=8, hash_buckets=16)
    save_checkpoint(checkpoint, init_params(config, n_layers=1, n_heads=2), config)
    inputs = {
        "predict": ["--checkpoint", str(checkpoint), "--out", str(tmp_path / "pred")],
        "label": ["--out", str(tmp_path / "l.jsonl")],
    }[argv[0]]
    assert run(argv + ["--corpus", str(empty)] + inputs) == 1
    assert "invalid arguments" in capsys.readouterr().err
    assert not (tmp_path / "pred").exists() and not (tmp_path / "l.jsonl").exists()


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    assert "COMMAND" in capsys.readouterr().out


def test_label_degenerate_documents(tmp_path):
    long_texts = [f"w{i % 37} w{i * 7 % 53} topic{i // 10}" for i in range(420)]
    records = [
        {"id": "single", "sentences": ["Only one sentence here."],
         "section_starts": [0], "reference_summary": "one sentence"},
        {"id": "duplicates", "sentences": ["same words again"] * 6,
         "section_starts": [0, 3], "reference_summary": "same words again"},
        {"id": "punctuation", "sentences": ["...", "alpha beta.", "!!", "?", "beta"],
         "section_starts": [0, 2], "reference_summary": "alpha beta beta"},
        {"id": "long", "sentences": long_texts,
         "section_starts": list(range(0, 420, 10)),
         "reference_summary": " ".join(long_texts[::35])},
    ]
    path, out = tmp_path / "raw.jsonl", tmp_path / "labeled.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    assert run(["label", "--corpus", str(path), "--out", str(out)]) == 0
    docs, skipped = parse_corpus(out)
    assert skipped == 0 and [d.id for d in docs] == [r["id"] for r in records]
    for doc in docs:
        n = len(doc.sentences)
        labels = doc.labels
        assert len(labels.summary_labels) == n == len(labels.boundary_labels)
        assert sorted(labels.selection_order) == \
            [i for i, v in enumerate(labels.summary_labels) if v == 1]
        assert len(set(labels.selection_order)) == len(labels.selection_order)
    single, duplicates, punctuation, long_doc = (d.labels for d in docs)
    assert single.selection_order == (0,)
    assert duplicates.selection_order == (0,)
    # the bigram "beta beta" spans the punctuation-only sentences 2 and 3
    assert punctuation.selection_order == (1, 4)
    # more oracle picks than --dim 8 below, so the subset minor is rank
    # deficient and ridge-dominated in training
    assert len(long_doc.selection_order) > 8

    # train (all four, and validate on them), predict and eval the same documents
    model, pred, report = tmp_path / "model", tmp_path / "pred", tmp_path / "eval"
    assert _train(tmp_path, out, model,
                  ["--variant", "full", "--val-corpus", str(out)]) == 0
    assert run(["predict", "--corpus", str(out), "--out", str(pred),
                "--checkpoint", str(model / "best_checkpoint.ckpt")]) == 0
    predictions = read_predictions(pred / "predictions.jsonl")
    assert [p.doc_id for p in predictions] == [r["id"] for r in records]
    for prediction in predictions:
        assert all(0.0 < v < 1.0 for v in prediction.scores_sum + prediction.scores_seg)
    assert run(["eval", "--corpus", str(out), "--out", str(report), "--plot-data",
                "--predictions", str(pred / "predictions.jsonl")]) == 0
    # json.dump writes a non-finite float as the bare constant NaN or Infinity
    json.loads((report / "report.json").read_text(),
               parse_constant=lambda c: pytest.fail(f"report.json holds {c}"))
