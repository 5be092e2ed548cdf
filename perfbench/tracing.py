"""In-memory spans around the public functions of each ``sectsum`` layer.

The tracer replaces every binding of a traced function in every loaded
``sectsum`` module namespace (``rouge_n`` is bound in ``rouge``, ``oracle``,
``evaluation``, ``training``, ``cli`` and the package itself) with a wrapper
that records a span, and puts every original binding back on exit. Nothing
in the program is edited; spans inside the program are a separate change.

A span is ``[name, start, end, parent, run_id, attrs]``; ``parent`` is the
index of the enclosing span or -1. Counts that the layers return (DPP ridge
escalations, skipped DPP documents, oracle picks, skipped corpus lines) are
read from return values into ``attrs``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from contextlib import contextmanager

NAME, START, END, PARENT, RUN, ATTRS = range(6)

# (defining module, attribute) of every traced function. The span name is
# "<module>.<attribute>"; total_loss gets a ".grad" or ".value" suffix.
FUNCTIONS = (
    ("corpus", "parse_corpus"),
    ("corpus", "write_corpus"),
    ("rouge", "rouge_n"),
    ("rouge", "rouge_l"),
    ("oracle", "greedy_summary_labels"),
    ("oracle", "candidate_score"),
    ("encoder", "base_features"),
    ("encoder", "encode_forward"),
    ("encoder", "heads_forward"),
    ("encoder", "backward_document"),
    ("encoder", "save_checkpoint"),
    ("encoder", "load_checkpoint"),
    ("dpp", "dpp_loss_and_grad"),
    ("training", "total_loss"),
    ("training", "fit"),
    ("training", "grad_check"),
    ("inference", "predict_document"),
    ("inference", "write_predictions"),
    ("inference", "read_predictions"),
    ("evaluation", "evaluate_full"),
    ("evaluation", "windowdiff"),
    ("evaluation", "seg_f1"),
)
METHODS = (
    ("encoder", "ModelParams", "from_vector"),
    ("encoder", "ModelParams", "to_vector"),
)


def _binder(fn):
    signature = inspect.signature(fn)

    def bind(args, kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.apply_defaults()
        return bound.arguments

    return bind


class Tracer:
    """Collects spans for one process; install with :meth:`installed`."""

    def __init__(self, run_id=None):
        self.spans = []
        self.run_id = run_id
        self._stack = []

    @contextmanager
    def span(self, name, **attrs):
        record = self._open(name, attrs)
        try:
            yield record
        finally:
            self._close(record)

    def _open(self, name, attrs):
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, self.run_id, attrs]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record):
        record[END] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name, fn, hook=None):
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = open_(name, {})
            try:
                result = fn(*args, **kwargs)
            finally:
                close(record)
            if hook is not None:
                hook(record, args, kwargs, result)
            return result

        return wrapper

    def _wrap_total_loss(self, fn):
        bind = _binder(fn)
        open_, close = self._open, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            arguments = bind(args, kwargs)
            kind = "grad" if arguments["with_grads"] else "value"
            record = open_(f"training.total_loss.{kind}",
                           {"docs": len(arguments["documents"])})
            try:
                result = fn(*args, **kwargs)
            finally:
                close(record)
            record[ATTRS]["dpp_skipped"] = result.dpp_skipped
            return result

        return wrapper

    def _hook_for(self, module, attr, fn):
        if (module, attr) == ("dpp", "dpp_loss_and_grad"):
            bind = _binder(fn)

            def escalations(record, args, kwargs, result):
                requested = bind(args, kwargs)["ridge"]
                record[ATTRS]["escalated"] = int(result.ridge_used > requested)
            return escalations
        if (module, attr) == ("oracle", "greedy_summary_labels"):
            def picks(record, args, kwargs, result):
                record[ATTRS]["picks"] = len(result[1])
            return picks
        if (module, attr) == ("corpus", "parse_corpus"):
            def skipped(record, args, kwargs, result):
                record[ATTRS]["skipped"] = result[1]
            return skipped
        return None

    @contextmanager
    def installed(self):
        """Wrap every binding of the traced functions; restore on exit."""
        importlib.import_module("sectsum.cli")  # loads every sectsum module
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "sectsum" or name.startswith("sectsum."))]
        replaced = []
        try:
            for module, attr in FUNCTIONS:
                original = getattr(sys.modules[f"sectsum.{module}"], attr)
                if (module, attr) == ("training", "total_loss"):
                    wrapper = self._wrap_total_loss(original)
                else:
                    wrapper = self._wrap(f"{module}.{attr}", original,
                                         self._hook_for(module, attr, original))
                for namespace in modules:
                    if vars(namespace).get(attr) is original:
                        replaced.append((namespace, attr, original))
                        setattr(namespace, attr, wrapper)
            for module, cls_name, attr in METHODS:
                cls = getattr(sys.modules[f"sectsum.{module}"], cls_name)
                original = vars(cls)[attr]
                replaced.append((cls, attr, original))
                setattr(cls, attr, self._wrap(f"{module}.{cls_name}.{attr}", original))
            yield replaced
        finally:
            for owner, attr, original in reversed(replaced):
                setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------

def self_times(spans):
    """Per span: duration minus the part of it covered by child spans."""
    children = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[PARENT] >= 0:
            children[span[PARENT]].append(i)
    out = []
    for i, span in enumerate(spans):
        covered = 0.0
        cursor = span[START]
        for c in sorted(children[i], key=lambda j: spans[j][START]):
            lo = max(spans[c][START], cursor)
            hi = min(spans[c][END], span[END])
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span[END] - span[START] - covered)
    return out


def under(spans, ancestor_name):
    """Mask of spans that have a span called ``ancestor_name`` above them."""
    mask = []
    for span in spans:
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] != ancestor_name:
            p = spans[p][PARENT]
        mask.append(p >= 0)
    return mask


def tail(durations_ms):
    """(value, percentile, samples): the highest percentile that leaves at
    least ten samples above it. With ten samples or fewer there is none, and
    the maximum is reported as percentile 100; with none, all three are 0."""
    values = sorted(durations_ms)
    n = len(values)
    if n == 0:
        return 0.0, 0.0, 0
    if n <= 10:
        return values[-1], 100.0, n
    return values[n - 11], 100.0 * (n - 10) / n, n
