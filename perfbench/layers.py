"""Per-layer metrics of the traced run, computed from spans.

A name ``<span>.<stat>`` with stat ``calls``, ``self_s``, ``p50_ms`` or
``tail_ms`` is read straight off the spans called ``<span>``; ``<stage>.s``
under ``cli`` is the mean duration of that stage's root spans. The remaining
names are counts and ratios defined in ``_DERIVED``.
"""

from __future__ import annotations

import statistics

from . import tracing
from .tracing import ATTRS, END, NAME, START
from .workloads import STAGES

_STAT_UNITS = {"calls": "count", "self_s": "s", "p50_ms": "ms", "tail_ms": "ms"}

# (name, unit, better). Ordered by layer as in the README's layer map.
PER_LAYER = []
for _span, _stats in (
    ("oracle.greedy_summary_labels", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("oracle.candidate_score", ("calls", "self_s")),
    ("rouge.rouge_n", ("calls", "self_s")),
    ("rouge.rouge_l", ("calls", "self_s")),
    ("dpp.dpp_loss_and_grad", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("encoder.base_features", ("calls", "self_s")),
    ("encoder.encode_forward", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("encoder.heads_forward", ("self_s",)),
    ("encoder.backward_document", ("calls", "self_s")),
    ("encoder.ModelParams.from_vector", ("calls", "self_s")),
    ("encoder.ModelParams.to_vector", ("calls", "self_s")),
    ("encoder.save_checkpoint", ("self_s",)),
    ("encoder.load_checkpoint", ("self_s",)),
    ("training.fit", ("self_s",)),
    ("training.total_loss.grad", ("calls", "self_s")),
    ("training.total_loss.value", ("calls", "self_s")),
    ("training.grad_check", ("self_s",)),
    ("inference.predict_document", ("calls", "self_s", "p50_ms", "tail_ms")),
    ("inference.write_predictions", ("self_s",)),
    ("inference.read_predictions", ("self_s",)),
    ("evaluation.evaluate_full", ("self_s",)),
    ("evaluation.windowdiff", ("calls", "self_s")),
    ("evaluation.seg_f1", ("self_s",)),
    ("corpus.parse_corpus", ("calls", "self_s")),
    ("corpus.write_corpus", ("self_s",)),
):
    PER_LAYER.extend((f"{_span}.{s}", _STAT_UNITS[s], "lower") for s in _stats)

PER_LAYER.extend((
    ("oracle.picks_per_candidate", "ratio", "higher"),
    ("dpp.ridge_escalations", "count", "lower"),
    ("dpp.skipped_docs", "count", "lower"),
    ("encoder.forwards_per_doc_pass", "ratio", "lower"),
    ("corpus.parse_corpus.skipped_lines", "count", "lower"),
))
PER_LAYER.extend((f"cli.{stage}.s", "s", "lower") for stage in STAGES)
PER_LAYER.append(("trace.overhead_frac", "ratio", "lower"))

UNITS = {name: unit for name, unit, _ in PER_LAYER}


def _attr_sum(spans, prefix, key):
    return sum(s[ATTRS].get(key, 0) for s in spans if s[NAME].startswith(prefix))


def _forwards_per_doc_pass(spans):
    in_fit = tracing.under(spans, "training.fit")
    forwards = sum(1 for s, inside in zip(spans, in_fit)
                   if inside and s[NAME] == "encoder.encode_forward")
    passes = sum(s[ATTRS]["docs"] for s, inside in zip(spans, in_fit)
                 if inside and s[NAME].startswith("training.total_loss."))
    return forwards / passes


def _picks_per_candidate(spans):
    picks = _attr_sum(spans, "oracle.greedy_summary_labels", "picks")
    candidates = sum(1 for s in spans if s[NAME] == "oracle.candidate_score")
    return picks / candidates


_DERIVED = {
    "oracle.picks_per_candidate": _picks_per_candidate,
    "dpp.ridge_escalations":
        lambda spans: _attr_sum(spans, "dpp.dpp_loss_and_grad", "escalated"),
    "dpp.skipped_docs":
        lambda spans: _attr_sum(spans, "training.total_loss.", "dpp_skipped"),
    "encoder.forwards_per_doc_pass": _forwards_per_doc_pass,
    "corpus.parse_corpus.skipped_lines":
        lambda spans: _attr_sum(spans, "corpus.parse_corpus", "skipped"),
}


def per_pass(spans):
    """Every per-pass metric (all but percentiles and overhead) of one
    traced pass."""
    selfs = tracing.self_times(spans)
    calls, self_s, total_s = {}, {}, {}
    for span, own in zip(spans, selfs):
        name = span[NAME]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + span[END] - span[START]
    out = {}
    for name, _, _ in PER_LAYER:
        if name in _DERIVED:
            out[name] = _DERIVED[name](spans)
        elif name.startswith("cli."):
            stage = name[:-len(".s")]
            out[name] = total_s[stage] / calls[stage]
        else:
            span_name, stat = name.rsplit(".", 1)
            if stat == "calls":
                out[name] = calls.get(span_name, 0)
            elif stat == "self_s":
                out[name] = self_s.get(span_name, 0.0)
    return out


def summarize(traced_passes, overhead_fracs):
    """Per-layer metrics over all traced passes of a run.

    Counts and self times are medians over passes; ``p50_ms`` and
    ``tail_ms`` pool every call of every traced pass. Returns
    ``(metrics, tail_notes)`` where ``tail_notes[name]`` is the percentile
    and sample count behind each ``tail_ms``.
    """
    rows = [per_pass(spans) for spans in traced_passes]
    metrics, notes = {}, {}
    for name, _, _ in PER_LAYER:
        stat = name.rsplit(".", 1)[1]
        if stat in ("p50_ms", "tail_ms"):
            span_name = name.rsplit(".", 1)[0]
            durations = [1e3 * (s[END] - s[START])
                         for spans in traced_passes for s in spans
                         if s[NAME] == span_name]
            if stat == "p50_ms":
                metrics[name] = statistics.median(durations) if durations else 0.0
            else:
                value, pct, n = tracing.tail(durations)
                metrics[name] = value
                notes[name] = {"percentile": pct, "samples": n}
        elif name == "trace.overhead_frac":
            metrics[name] = statistics.median(overhead_fracs)
        else:
            metrics[name] = statistics.median(row[name] for row in rows)
    return metrics, notes
