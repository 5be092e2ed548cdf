#!/usr/bin/env python3
"""sectsum benchmark: the CLI pipeline, end to end and layer by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload short-docs --seed 1 --seconds 40 --trace 0

Set-up generates the workload corpus from ``--seed`` and writes it to JSONL;
the timed part then repeats passes of ``label -> train -> predict -> eval ->
gradcheck`` through ``sectsum.cli.run`` in this process until ``--seconds``
have passed (at least one pass). Every pass's outputs are checked.

``--trace 0`` reports the end-to-end metrics, each the median over passes.
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics of the traced ones (see ``perfbench/README.md``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record
(environment, per-pass samples, output digests) goes to
``perfbench/results/``. The exit code is 0 only when every check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
RESULTS = HERE / "results"

if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import layers, tracing  # noqa: E402
from perfbench.calibration import Clock  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    GRADCHECK_ARGS, MODEL_ARGS, STAGES, TRAIN_SEED, VAL_FRACTION, WORKLOADS,
)

SETUP_REPEATS = 5

# name -> (unit, better) of the gated end-to-end metrics, as in
# BENCHMARK.json; run_metrics computes them.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "pipeline_s": ("s", "lower"),
    "label_sents_per_s": ("sent/s", "higher"),
    "train_sents_per_s": ("sent/s", "higher"),
    "predict_sents_per_s": ("sent/s", "higher"),
    "eval_sents_per_s": ("sent/s", "higher"),
    "gradcheck_s": ("s", "lower"),
    "rouge1_f": ("ratio", "higher"),
    "seg_f1": ("ratio", "higher"),
    "peak_rss_mb": ("MiB", "lower"),
}
# Printed and recorded but not gated. WindowDiff and failed_frac are 0 when
# all is well, so no relative bound can hold them (WindowDiff of a good model
# is a few thousandths and swings by half between seeds). The raw wall time
# of a pass and the median slowdown (see calibration.py) show the host's speed.
INFORMATIONAL = {"windowdiff": "ratio", "failed_frac": "ratio",
                 "pipeline_wall_s": "s", "slowdown": "ratio"}

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
THREAD_VARIABLES = (*BLAS_THREAD_VARIABLES, "BLIS_NUM_THREADS",
                    "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def use_checkout_sources():
    """Import ``sectsum`` from this checkout's ``src/``; False if absent."""
    if not (SRC / "sectsum" / "__init__.py").is_file():
        return False
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import sectsum
    return Path(sectsum.__file__).resolve().parent == SRC / "sectsum"


# ---------------------------------------------------------------------------
# Set-up: corpus files from the seed
# ---------------------------------------------------------------------------

@dataclasses.dataclass
class Inputs:
    workdir: Path
    pool_raw: Path
    test_raw: Path
    pool_sentences: int
    train_sentences: int
    test_sentences: int
    test_ids: tuple

    def path(self, name):
        return self.workdir / name


def _documents(classes, sentences_per_section, seed, salt):
    """Synthetic documents without labels; ``salt`` keeps the generator seeds
    of the pool and the test set apart."""
    from sectsum.corpus import SynthConfig, generate_synthetic

    docs = []
    for k, doc_class in enumerate(classes):
        config = SynthConfig(
            n_documents=doc_class.count,
            sections_per_document=doc_class.sections,
            sentences_per_section=sentences_per_section,
            rng_seed=1000 * seed + 10 * k + salt,
        )
        docs.extend(dataclasses.replace(d, labels=None)
                    for d in generate_synthetic(config))
    return docs


def write_inputs(workload, seed, workdir):
    """Generate and write the workload corpus; only these files reach the
    program."""
    from sectsum.corpus import split_corpus, write_corpus

    pool = _documents(workload.pool, workload.sentences_per_section, seed, 0)
    test = _documents(workload.test, workload.sentences_per_section, seed, 5)
    inputs = Inputs(
        workdir=workdir,
        pool_raw=workdir / "pool_raw.jsonl",
        test_raw=workdir / "test_raw.jsonl",
        pool_sentences=sum(len(d) for d in pool),
        # The same split `train` makes with --val-fraction and --seed.
        train_sentences=sum(len(d) for d in split_corpus(
            pool, (1.0 - VAL_FRACTION, VAL_FRACTION, 0.0), rng_seed=TRAIN_SEED)[0]),
        test_sentences=sum(len(d) for d in test),
        test_ids=tuple(d.id for d in test),
    )
    write_corpus(pool, inputs.pool_raw)
    write_corpus(test, inputs.test_raw)
    return inputs


def _child_import_seconds():
    code = ("import time; t = time.perf_counter(); import sectsum; "
            "print(time.perf_counter() - t); print(sectsum.__file__)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=60, check=True)
    seconds, location = done.stdout.split("\n")[:2]
    if Path(location).resolve().parent != SRC / "sectsum":
        raise RuntimeError(f"child imported sectsum from {location}")
    return float(seconds)


def setup(workload, seed, workdir):
    """Import sectsum in a fresh interpreter, then generate and write the
    corpus; repeated, returning the inputs and the median calibrated set-up
    time."""
    def step():
        imported = _child_import_seconds()
        start = time.perf_counter()
        inputs = write_inputs(workload, seed, workdir)
        return inputs, imported + time.perf_counter() - start

    clock = Clock(sample=False)  # short steps; the references around them suffice
    times = []
    for _ in range(SETUP_REPEATS):
        (inputs, seconds), calibrated, wall = clock.time(step)
        times.append(seconds * calibrated / wall)
    return inputs, statistics.median(times)


# ---------------------------------------------------------------------------
# One pass of the pipeline
# ---------------------------------------------------------------------------

def stage_argv(stage, workload, inputs):
    p = inputs.path
    if stage == "label":
        return ["label", "--corpus", str(inputs.pool_raw), "--out", str(p("pool.jsonl"))]
    if stage == "train":
        return ["train", "--corpus", str(p("pool.jsonl")), "--out", str(p("run")),
                "--epochs", str(workload.epochs), "--val-fraction", str(VAL_FRACTION),
                "--seed", str(TRAIN_SEED), *MODEL_ARGS, *workload.optimizer_args]
    if stage == "predict":
        return ["predict", "--corpus", str(inputs.test_raw), "--checkpoint",
                str(p("run") / "best_checkpoint.ckpt"), "--out", str(p("pred"))]
    if stage == "eval":
        return ["eval", "--corpus", str(inputs.test_raw), "--predictions",
                str(p("pred") / "predictions.jsonl"), "--out", str(p("eval")),
                "--plot-data"]
    if stage == "gradcheck":
        return ["gradcheck", *GRADCHECK_ARGS]
    raise ValueError(stage)


def _reject_constant(name):
    raise ValueError(f"bare {name} is not JSON")


def _strict_json(text):
    return json.loads(text, parse_constant=_reject_constant)


def _finite_numbers(value):
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    if isinstance(value, float):
        return math.isfinite(value)
    return True


def check_predictions(path, test_ids):
    """One operation per test document: its prediction must parse as strict
    JSON and carry only finite scores inside (0, 1). Returns failures."""
    failures = []
    seen = set()
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        lines = []
        failures.append(f"predictions: {exc}")
    for line_no, line in enumerate(lines, start=1):
        try:
            record = _strict_json(line)
            scores = list(record["scores_sum"]) + list(record["scores_seg"])
            doc_id = record["id"]
        except (ValueError, KeyError, TypeError) as exc:
            failures.append(f"predictions line {line_no}: {exc}")
            continue
        seen.add(doc_id)
        if not all(isinstance(s, float) and math.isfinite(s) and 0.0 < s < 1.0
                   for s in scores):
            failures.append(f"prediction {doc_id}: score not finite or outside (0, 1)")
    failures.extend(f"no prediction for {doc_id}" for doc_id in test_ids
                    if doc_id not in seen)
    return failures


def check_report(path):
    """The eval report parses as strict JSON, every number in it is finite,
    and the quality metrics the benchmark reads are present."""
    try:
        report = _strict_json(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        return None, [f"report.json: {exc}"]
    if not _finite_numbers(report):
        return None, ["report.json holds a non-finite number"]
    quality = {"rouge1_f": (report.get("rouge1") or {}).get("f1"),
               "seg_f1": report.get("seg_f1"), "windowdiff": report.get("windowdiff")}
    missing = [k for k, v in quality.items() if not isinstance(v, (int, float))]
    if missing:
        return None, [f"report.json lacks {missing}"]
    return quality, []


def _sha256(path):
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


@dataclasses.dataclass
class PassResult:
    stage_s: dict        # stage -> calibrated seconds of each run in this pass
    wall_s: dict         # stage -> wall seconds of each run in this pass
    attempted: int
    failures: list
    digests: dict
    quality: dict | None

    def seconds(self):
        return sum(sum(runs) for runs in self.stage_s.values())


def _run_stage(stage, argv, tracer):
    """Run one CLI stage in this process; returns a failure message or None."""
    from sectsum import cli

    captured = io.StringIO()
    span = tracer.span(f"cli.{stage}") if tracer else contextlib.nullcontext()
    with span, contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
        try:
            code = cli.run(argv)
        except Exception:  # a crash is a failed operation, not a crashed benchmark
            code = traceback.format_exc()
    output = captured.getvalue()
    if code != 0:
        return f"{stage} exited {code}: {output[-500:]}"
    if stage == "gradcheck" and not output.rstrip().endswith("PASS"):
        return f"gradcheck did not print PASS: {output[-500:]}"
    return None


def run_pass(workload, inputs, tracer=None):
    """Run the stages in order, closed loop, then check the outputs. A stage
    listed in ``workload.repeats`` runs that many times in a row."""
    for name in ("pool.jsonl", "run", "pred", "eval"):
        target = inputs.path(name)
        if target.is_dir():
            shutil.rmtree(target)
        elif target.exists():
            target.unlink()

    stage_s, wall_s, failures, attempted = {}, {}, [], 0
    # The speed sampler's slices would show up inside the spans of a traced
    # pass, so a traced pass is calibrated from the surrounding references only.
    clock = Clock(sample=tracer is None)
    for stage in STAGES:
        argv = stage_argv(stage, workload, inputs)
        stage_s[stage], wall_s[stage] = [], []
        for _ in range(workload.repeats.get(stage, 1)):
            attempted += 1
            failure, calibrated, wall = clock.time(
                functools.partial(_run_stage, stage, argv, tracer))
            stage_s[stage].append(calibrated)
            wall_s[stage].append(wall)
            if failure:
                return PassResult(stage_s, wall_s, attempted, [failure], {}, None)

    prediction_path = inputs.path("pred") / "predictions.jsonl"
    failures.extend(check_predictions(prediction_path, inputs.test_ids))
    quality, report_failures = check_report(inputs.path("eval") / "report.json")
    failures.extend(report_failures)
    attempted += len(inputs.test_ids) + 1
    digests = {
        "labeled_corpus": _sha256(inputs.path("pool.jsonl")),
        "best_checkpoint": _sha256(inputs.path("run") / "best_checkpoint.ckpt"),
        "predictions": _sha256(prediction_path),
    }
    return PassResult(stage_s, wall_s, attempted, failures, digests, quality)


def _stage_medians(results, field):
    return {stage: statistics.median(statistics.fmean(getattr(r, field)[stage])
                                     for r in results)
            for stage in STAGES}


def run_metrics(results, inputs, workload):
    """End-to-end metrics of the untraced passes. A stage's time in a pass is
    the mean over its back-to-back runs; each metric is the median over
    passes, and ``pipeline_s`` is the sum of the stages' medians, the time
    of one typical pass with one run per stage."""
    s = _stage_medians(results, "stage_s")
    return {
        "pipeline_s": sum(s.values()),
        "label_sents_per_s": inputs.pool_sentences / s["label"],
        "train_sents_per_s": workload.epochs * inputs.train_sentences / s["train"],
        "predict_sents_per_s": inputs.test_sentences / s["predict"],
        "eval_sents_per_s": inputs.test_sentences / s["eval"],
        "gradcheck_s": s["gradcheck"],
        **results[0].quality,
    }


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def _git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[len("ref: "):]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads():
    """OpenBLAS thread counts of the libraries numpy and scipy loaded."""
    import ctypes
    import glob

    import numpy
    import scipy

    counts = {}
    for package, symbols in ((numpy, ("scipy_openblas_get_num_threads64_",
                                      "openblas_get_num_threads64_",
                                      "openblas_get_num_threads")),
                             (scipy, ("scipy_openblas_get_num_threads",
                                      "openblas_get_num_threads"))):
        libs = Path(package.__file__).parent.parent / f"{package.__name__}.libs"
        for lib_path in sorted(glob.glob(str(libs / "*openblas*.so*"))):
            try:
                lib = ctypes.CDLL(lib_path)
            except OSError:
                continue
            for symbol in symbols:
                fn = getattr(lib, symbol, None)
                if fn is not None:
                    fn.restype = ctypes.c_int
                    fn.argtypes = []
                    counts[package.__name__] = fn()
                    break
    return counts


def environment():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return {
        "git_commit": _git_commit(),
        "nproc": cpus,
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
    }


# ---------------------------------------------------------------------------
# Measuring a run
# ---------------------------------------------------------------------------

def measure(workload, seed, seconds, trace, workdir):
    """Set up, run passes for ``seconds``, check them; returns the record."""
    inputs, setup_s = setup(workload, seed, workdir)
    passes, traced_spans, overheads = [], [], []
    deadline = time.perf_counter() + seconds
    while not passes or time.perf_counter() < deadline:
        untraced = run_pass(workload, inputs)
        passes.append(("untraced", untraced))
        if trace and not untraced.failures:
            tracer = tracing.Tracer(run_id=f"{workload.name}-{seed}-pass{len(passes)}")
            with tracer.installed():
                traced = run_pass(workload, inputs, tracer)
            passes.append(("traced", traced))
            traced_spans.append(tracer.spans)
            overheads.append(traced.seconds() / untraced.seconds() - 1.0)
        if any(r.failures for _, r in passes):
            break

    attempted = sum(r.attempted for _, r in passes)
    failures = [f for _, r in passes for f in r.failures]
    # Outputs are bitwise reproducible: every pass, traced or not, must give
    # the digests of the first.
    reference = passes[0][1].digests
    for kind, result in passes[1:]:
        attempted += 1
        if result.digests and result.digests != reference:
            failures.append(f"{kind} pass digests {result.digests} != first pass {reference}")

    record = {
        "workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
        "environment": environment(), "digests": reference,
        "setup_s": setup_s, "failures": failures, "attempted": attempted,
        "passes": [{"kind": kind, "stage_s": r.stage_s, "wall_s": r.wall_s,
                    "digests": r.digests, "failures": r.failures}
                   for kind, r in passes],
        "metrics": {},
        "info": {"failed_frac": {"value": len(failures) / attempted, "unit": "ratio"}},
    }
    if failures:
        return record, []

    untraced = [r for kind, r in passes if kind == "untraced"]
    if trace:
        metrics, notes = layers.summarize(traced_spans, overheads)
        record["tail_notes"] = notes
        units = layers.UNITS
    else:
        metrics = run_metrics(untraced, inputs, workload)
        metrics["setup_s"] = setup_s
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = {name: unit for name, (unit, _) in END_TO_END.items()}
        record["info"]["windowdiff"] = {"value": metrics["windowdiff"], "unit": "ratio"}
        record["info"]["pipeline_wall_s"] = {
            "value": sum(_stage_medians(untraced, "wall_s").values()), "unit": "s"}
        record["info"]["slowdown"] = {
            "value": statistics.median(
                w / c for r in untraced for stage in STAGES
                for w, c in zip(r.wall_s[stage], r.stage_s[stage])),
            "unit": "ratio"}
    record["metrics"] = {name: {"value": metrics[name], "unit": units[name]}
                         for name in units}
    return record, traced_spans[:1]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def print_record(record):
    """The human-readable lines above the final JSON line."""
    env = record["environment"]
    print(f"workload {record['workload']} seed {record['seed']} "
          f"passes {len(record['passes'])} trace {record['trace']}")
    print("environment " + json.dumps(env, sort_keys=True))
    for name, digest in record["digests"].items():
        print(f"digest {name} {digest}")
    for failure in record["failures"]:
        print(f"FAILED {failure}")
    notes = record.get("tail_notes", {})
    for name, metric in record["metrics"].items():
        note = notes.get(name)
        suffix = (f"  (p{note['percentile']:.1f} of {note['samples']} samples)"
                  if note else "")
        print(f"{name} = {metric['value']:.6g} {metric['unit']}{suffix}")
    for name, metric in record["info"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}  (not gated)")
    print(f"operations: {len(record['failures'])} failed of {record['attempted']}")


def main(argv=None):
    args = parse_args(argv)
    # One BLAS thread, set before numpy loads: every step then runs on one
    # core, which the single-threaded reference computation tracks, and
    # outputs do not depend on the host's core count.
    for name in BLAS_THREAD_VARIABLES:
        os.environ[name] = "1"
    if not use_checkout_sources():
        print(f"error: no sectsum sources under {SRC}", file=sys.stderr)
        return 2
    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2

    workdir = WORK / f"{workload.name}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        record, spans = measure(workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    with open(stem.with_suffix(".json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, allow_nan=False)
    if spans:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as fh:
            for span in spans[0]:
                fh.write(json.dumps(span) + "\n")

    print_record(record)
    correct = not record["failures"]
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": len(record["failures"]),
                      "metrics": record["metrics"]}, allow_nan=False))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
