"""Command line front end.

Subcommands: ``synth`` (generate a labeled synthetic corpus), ``label``
(heuristic labels for a real corpus), ``train``, ``predict``, ``eval``,
``analyze`` (boundary-proximity histogram), and ``gradcheck`` (finite
difference certification of the gradients).

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
schema-invalid inputs), 3 numeric failure (non-finite losses, singular
factorizations), 4 out of memory.

All randomness flows from ``--seed``; when omitted the documented default
seed 0 is used. Outputs are bitwise identical across runs at a fixed BLAS
thread count (``OPENBLAS_NUM_THREADS``, ``OMP_NUM_THREADS``): the reductions
inside matrix products, and so ``train`` checkpoints, depend on it.
Every command runs in one process. ``predict`` makes one
``predict_document`` call for the whole corpus, which scores documents of
one sentence count together, in stacks of one forward pass each and without
padding, so a document's prediction does not depend on the other documents
of the corpus.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys
from pathlib import Path

import numpy as np

from .corpus import (
    CorpusError,
    SynthConfig,
    _atomic_write,
    generate_synthetic,
    parse_corpus,
    split_corpus,
    write_corpus,
)
from .dpp import SingularMinorError, ZeroNormError
from .encoder import (
    CheckpointError,
    FeatureConfig,
    NumericsError,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from .evaluation import evaluate_full, score_vs_k, selection_histogram, with_references
from .inference import predict_document, read_predictions, write_predictions
from .oracle import SegLabelConvention, build_labels
from .training import TrainConfig, TrainingError, fit, grad_check

__all__ = ["run", "main", "build_parser"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def build_parser():
    parser = _Parser(
        prog="sectsum",
        description="Joint extractive summarization and section segmentation.",
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    p = sub.add_parser("synth", help="generate a labeled synthetic corpus")
    p.add_argument("--out", required=True, help="output corpus JSONL path")
    p.add_argument("--docs", type=int, default=100, help="number of documents")
    p.add_argument("--sections", type=int, nargs=2, default=(3, 5),
                   metavar=("LO", "HI"), help="sections per document range")
    p.add_argument("--sentences", type=int, nargs=2, default=(3, 6),
                   metavar=("LO", "HI"), help="sentences per section range")
    p.add_argument("--vocab", type=int, default=120, help="vocabulary size")
    p.add_argument("--bias", type=float, default=0.5,
                   help="probability a salient sentence sits at a section boundary")
    p.add_argument("--weak-rate", type=float, default=0.35,
                   help="fraction of salient sentences with a weak lexical signal")
    p.add_argument("--duplicate-rate", type=float, default=0.45,
                   help="chance a salient sentence spawns a near-duplicate distractor")
    p.add_argument("--impostor-rate", type=float, default=0.0,
                   help="chance an interior filler sentence picks up marker words")
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("label", help="attach greedy summary and boundary labels")
    p.add_argument("--corpus", required=True, help="input corpus JSONL")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--out", help="labeled corpus output path")
    group.add_argument("--in-place", action="store_true",
                       help="rewrite the input corpus with labels attached")
    p.add_argument("--seg-label", choices=["first", "last"], default="first",
                   help="boundary label convention")
    p.add_argument("--max-sentences", type=int, default=None,
                   help="cap on greedy summary size")
    p.set_defaults(func=_cmd_label)

    p = sub.add_parser("train", help="train a scoring model")
    p.add_argument("--corpus", required=True, help="labeled training corpus JSONL")
    p.add_argument("--val-corpus", default=None, help="labeled validation corpus JSONL")
    p.add_argument("--val-fraction", type=float, default=0.1,
                   help="validation share split off --corpus when --val-corpus is absent")
    p.add_argument("--config", default=None,
                   help="JSON file of training settings (flags override it)")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--variant", choices=["base", "joint", "full"], default=None)
    p.add_argument("--beta", type=float, default=None, help="repulsion weight")
    p.add_argument("--epochs", type=int, default=None)
    p.add_argument("--lr", dest="learning_rate", type=float, default=None,
                   help="learning rate")
    p.add_argument("--warmup-fraction", type=float, default=None)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--grad-accumulation", type=int, default=None)
    p.add_argument("--seed", dest="rng_seed", type=int, default=None,
                   help="training seed (default 0 unless the config file says otherwise)")
    p.add_argument("--dim", type=int, default=32, help="encoder width")
    p.add_argument("--hash-buckets", type=int, default=64)
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=4)
    p.add_argument("--ffn-hidden", type=int, default=None)
    p.add_argument("--threads", type=int, default=1,
                   help="at least 1; training is single-process, so it never changes the run")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("predict", help="score a corpus with a trained model")
    p.add_argument("--corpus", required=True)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--k", type=int, default=3, help="summary sentences per document")
    p.add_argument("--threshold", type=float, default=0.5,
                   help="boundary decision threshold")
    p.add_argument("--seg-label", choices=["first", "last"], default="first",
                   help="convention the model was trained with")
    p.set_defaults(func=_cmd_predict)

    p = sub.add_parser("eval", help="evaluate predictions against a corpus")
    p.add_argument("--corpus", required=True)
    p.add_argument("--predictions", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--plot-data", action="store_true",
                   help="also write score-vs-k and boundary histogram CSVs")
    p.add_argument("--k-max", type=int, default=10,
                   help="largest summary size for the score-vs-k sweep, at least 1")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("analyze",
                       help="histogram of labeled summary-sentence offsets from "
                            "section boundaries")
    p.add_argument("--corpus", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("gradcheck", help="finite-difference gradient certification")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=8)
    p.add_argument("--hash-buckets", type=int, default=16)
    p.add_argument("--sentences", type=int, nargs=2, default=(2, 3),
                   metavar=("LO", "HI"), help="sentences per section range of the probe document")
    p.add_argument("--layers", type=int, default=2)
    p.add_argument("--heads", type=int, default=2)
    p.add_argument("--variant", choices=["base", "joint", "full"], default="full")
    p.add_argument("--beta", type=float, default=0.1)
    p.add_argument("--step", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_gradcheck)

    return parser


# ---------------------------------------------------------------------------
# Command implementations
# ---------------------------------------------------------------------------

def _cmd_synth(args):
    config = SynthConfig(
        n_documents=args.docs,
        sentences_per_section=tuple(args.sentences),
        sections_per_document=tuple(args.sections),
        vocabulary_size=args.vocab,
        salience_boundary_bias=args.bias,
        weak_salient_rate=args.weak_rate,
        duplicate_rate=args.duplicate_rate,
        impostor_rate=args.impostor_rate,
        rng_seed=args.seed,
    )
    documents = generate_synthetic(config)
    write_corpus(documents, args.out)
    print(f"wrote {len(documents)} documents to {args.out}")
    return 0


def _cmd_label(args):
    if args.max_sentences is not None and args.max_sentences < 0:
        raise ValueError(f"--max-sentences must be at least 0, got {args.max_sentences}")
    documents, _ = parse_corpus(args.corpus)
    convention = SegLabelConvention(args.seg_label)
    labels = build_labels(documents, convention=convention, max_sentences=args.max_sentences)
    labeled = [dataclasses.replace(doc, labels=l) for doc, l in zip(documents, labels)]
    out_path = args.corpus if args.in_place else args.out
    write_corpus(labeled, out_path)
    print(f"labeled {len(labeled)} documents -> {out_path}")
    return 0


_TRAIN_CONFIG_TYPES = {  # JSON value types each field accepts from a config file
    f.name: {int: (int,), float: (int, float)}.get(type(f.default), (str,))
    for f in dataclasses.fields(TrainConfig)
}


def _load_train_config(args):
    settings = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_bytes().decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            raise CorpusError(f"config file {args.config}: {exc}") from exc
        if not isinstance(loaded, dict):
            raise CorpusError(f"config file {args.config}: expected a JSON object")
        unknown = loaded.keys() - _TRAIN_CONFIG_TYPES
        if unknown:
            raise CorpusError(
                f"config file {args.config}: unknown keys {sorted(unknown)}"
            )
        for name, value in loaded.items():
            if type(value) not in _TRAIN_CONFIG_TYPES[name]:
                raise CorpusError(f"config file {args.config}: {name} has the wrong "
                                  f"type ({value!r})")
        settings.update(loaded)
    for name in _TRAIN_CONFIG_TYPES:
        if getattr(args, name) is not None:
            settings[name] = getattr(args, name)
    return TrainConfig(**settings)


def _cmd_train(args):
    if not 0.0 <= args.val_fraction < 1.0:
        raise ValueError(f"--val-fraction must be in [0, 1), got {args.val_fraction}")
    if args.threads < 1:
        raise ValueError(f"--threads must be at least 1, got {args.threads}")
    config = _load_train_config(args)
    train_docs, _ = parse_corpus(args.corpus)
    if args.val_corpus is not None:
        val_docs, _ = parse_corpus(args.val_corpus)
    elif args.val_fraction > 0 and len(train_docs) >= 3:
        train_docs, val_docs, _ = split_corpus(
            train_docs, (1.0 - args.val_fraction, args.val_fraction, 0.0),
            rng_seed=config.rng_seed,
        )
    else:
        val_docs = []

    feature_config = FeatureConfig(dim=args.dim, hash_buckets=args.hash_buckets)
    result = fit(train_docs, config, feature_config=feature_config, val_docs=val_docs,
                 n_layers=args.layers, n_heads=args.heads, ffn_hidden=args.ffn_hidden)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    save_checkpoint(out / "checkpoint.ckpt", result.params, feature_config)
    save_checkpoint(out / "best_checkpoint.ckpt", result.best_params, feature_config)
    with _atomic_write(out / "metrics.jsonl", encoding="utf-8") as fh:
        for record in result.history:
            fh.write(json.dumps(record, sort_keys=True))
            fh.write("\n")
    effective = dataclasses.asdict(config)
    effective.update({
        "dim": args.dim, "hash_buckets": args.hash_buckets,
        "n_layers": args.layers, "n_heads": args.heads,
        "ffn_hidden": result.params.ffn_hidden,
    })
    with _atomic_write(out / "effective_config.json", encoding="utf-8") as fh:
        json.dump(effective, fh, indent=2, sort_keys=True)
        fh.write("\n")
    last = result.history[-1]
    print(
        f"trained {config.variant.value} for {config.epochs} epochs: "
        f"train_loss={last['train_loss']:.4f} val_loss={last['val_loss']} "
        f"-> {out}"
    )
    return 0


def _cmd_predict(args):
    if args.k < 0:
        raise ValueError(f"--k must be at least 0, got {args.k}")
    if not math.isfinite(args.threshold):
        raise ValueError(f"--threshold must be finite, got {args.threshold}")
    documents, _ = parse_corpus(args.corpus)
    params, feature_config = load_checkpoint(args.checkpoint)
    convention = SegLabelConvention(args.seg_label)
    predictions = predict_document(documents, params, feature_config, args.k,
                                   threshold=args.threshold, convention=convention)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "predictions.jsonl"
    write_predictions(predictions, documents, path)
    print(f"wrote {len(predictions)} predictions to {path}")
    return 0


def _cmd_eval(args):
    if args.k_max < 1:
        raise ValueError(f"--k-max must be at least 1, got {args.k_max}")
    documents, _ = parse_corpus(args.corpus)
    scored = with_references(read_predictions(args.predictions), documents)
    report = evaluate_full(scored)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    with _atomic_write(out / "report.json", encoding="utf-8") as fh:
        json.dump(dataclasses.asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")
    if args.plot_data:
        with _atomic_write(out / "score_vs_k.csv", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(
                fh, fieldnames=["k", "rouge1_f", "rouge2_f", "rougeL_f", "avg_words"]
            )
            writer.writeheader()
            writer.writerows(score_vs_k(scored, args.k_max))
        with _atomic_write(out / "boundary_histogram.csv", encoding="utf-8",
                           newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["offset", "count"])
            selections = ((doc, pred.selected) for pred, doc, _ in scored)
            writer.writerows(selection_histogram(selections).items())
    print(
        f"evaluated {report.n_documents} documents: "
        f"rouge1_f={report.rouge1.f1:.4f} seg_f1={report.seg_f1:.4f} "
        f"windowdiff={report.windowdiff if report.windowdiff is None else round(report.windowdiff, 4)} "
        f"-> {out / 'report.json'}"
    )
    return 0


def _cmd_analyze(args):
    documents, _ = parse_corpus(args.corpus)
    selections = []
    for doc in documents:
        if doc.labels is None:
            raise CorpusError(f"document {doc.id!r} has no labels; label the corpus first")
        selections.append(
            (doc, [i for i, v in enumerate(doc.labels.summary_labels) if v == 1]))
    histogram = selection_histogram(selections)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    path = out / "boundary_histogram.json"
    with _atomic_write(path, encoding="utf-8") as fh:
        json.dump({str(k): v for k, v in histogram.items()}, fh, indent=2,
                  sort_keys=False)
        fh.write("\n")
    total = sum(histogram.values())
    first = histogram.get(1, 0)
    last = histogram.get(-1, 0)
    print(
        f"histogram over {total} summary sentences "
        f"(at section start: {first}, at section end: {last}) -> {path}"
    )
    return 0


def _cmd_gradcheck(args):
    config = SynthConfig(
        n_documents=1,
        sentences_per_section=tuple(args.sentences),
        sections_per_document=(2, 2),
        rng_seed=args.seed,
    )
    doc = generate_synthetic(config)[0]
    feature_config = FeatureConfig(dim=args.dim, hash_buckets=args.hash_buckets)
    params = init_params(feature_config, n_layers=args.layers, n_heads=args.heads,
                         rng_seed=args.seed)
    train_config = TrainConfig(variant=args.variant, beta=args.beta,
                               rng_seed=args.seed)
    report = grad_check(params, doc, train_config, feature_config,
                        step=args.step, tolerance=args.tolerance)
    for line in report.summary_lines():
        print(line)
    return 0 if report.passed else 3


def run(argv=None):
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except SystemExit as exc:  # argparse help/version paths
        return 0 if exc.code in (0, None) else 1
    if getattr(args, "command", None) is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except _UsageError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    except (CorpusError, CheckpointError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except (TrainingError, NumericsError, SingularMinorError, ZeroNormError,
            FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"out of memory in {args.command}" + (f": {exc}" if str(exc) else ""),
              file=sys.stderr)
        return 4


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
