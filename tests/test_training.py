import dataclasses
import math

import numpy as np
import pytest

from sectsum import (
    Document,
    FeatureConfig,
    LabelSet,
    NumericsError,
    SynthConfig,
    TrainConfig,
    Variant,
    dpp,
    fit,
    generate_synthetic,
    grad_check,
    init_params,
    total_loss,
    training,
)
from sectsum.training import bce_loss, learning_rate_at

from conftest import loop_grad_check, loop_term_grad_norms


def test_bce_frozen_values():
    """Hand-computed binary cross entropies.

    probs (0.9, 0.8), labels (1, 1): -(ln 0.9 + ln 0.8)/2 = 0.16425203...
    probs (0.6, 0.3), labels (1, 0): -(ln 0.6 + ln 0.7)/2 = 0.43375028...
    One stack: the first row is (0.9, 0.8, 0.5) with labels all 1, so its
    mean is (2 * 0.16425203... + ln 2)/3; the second row is padded by one
    entry, which its mean leaves out.
    """
    values, _ = bce_loss(np.array([[0.9, 0.8, 0.5], [0.6, 0.3, 0.01]]),
                         np.array([[1, 1, 1], [1, 0, 1]]), [3, 2])
    assert values[0] == pytest.approx((2 * 0.1642520335 + math.log(2)) / 3, rel=1e-8)
    assert values[1] == pytest.approx(0.4337502838, rel=1e-9)


def test_bce_clamps_saturated_probabilities():
    # a confident wrong answer is clamped, not infinite
    (value, other), _ = bce_loss(np.array([[1.0], [0.0]]), np.array([[0], [1]]), [1, 1])
    assert value == pytest.approx(-math.log(1e-7), rel=1e-6)
    assert math.isfinite(other)


def test_train_config_variant_handling():
    config = TrainConfig(variant="full", beta=0.2)
    assert config.variant is Variant.FULL and config.beta == 0.2
    config = TrainConfig(variant="base", beta=0.3)
    assert config.beta == 0.0  # repulsion weight forced off
    config = TrainConfig(variant=Variant.JOINT, beta=0.4)
    assert config.beta == 0.0
    with pytest.raises(ValueError):
        TrainConfig(variant="fancy")
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=-1.0)
    with pytest.raises(ValueError):
        TrainConfig(beta=-0.5)
    with pytest.raises(ValueError):
        TrainConfig(warmup_fraction=1.5)


@pytest.fixture(scope="module")
def setup(tiny_corpus):
    config = FeatureConfig(dim=8, hash_buckets=16)
    params = init_params(config, n_layers=1, n_heads=2, rng_seed=1)
    return tiny_corpus, config, params


def test_total_loss_terms_compose(setup):
    docs, fconfig, params = setup
    base = total_loss(docs, params, TrainConfig(variant="base"), fconfig,
                      with_grads=False)
    joint = total_loss(docs, params, TrainConfig(variant="joint"), fconfig,
                       with_grads=False)
    full = total_loss(docs, params, TrainConfig(variant="full", beta=0.1),
                      fconfig, with_grads=False)
    # base optimizes the summary term only
    assert base.value == pytest.approx(base.parts["sum"])
    assert base.parts["seg"] == 0.0 and base.parts["dpp"] == 0.0
    # the joint objective adds the boundary term
    assert joint.value == pytest.approx(joint.parts["sum"] + joint.parts["seg"])
    assert joint.parts["sum"] == pytest.approx(base.parts["sum"])
    # the full objective scales the unweighted repulsion part by beta
    assert full.value == pytest.approx(
        full.parts["sum"] + full.parts["seg"] + 0.1 * full.parts["dpp"])
    assert full.parts["dpp"] > 0.0 or full.dpp_skipped == len(docs)
    # the gradient pass reports exactly the values of the value-only pass
    for variant, beta, value_only in (("base", 0.0, base), ("joint", 0.0, joint),
                                      ("full", 0.1, full)):
        with_grads = total_loss(docs, params, TrainConfig(variant=variant, beta=beta),
                                fconfig, with_grads=True)
        assert with_grads.value == value_only.value
        assert with_grads.parts == value_only.parts


def test_full_with_zero_beta_equals_joint(setup):
    docs, fconfig, params = setup
    joint = total_loss(docs, params, TrainConfig(variant="joint"), fconfig,
                       with_grads=True)
    full0 = total_loss(docs, params, TrainConfig(variant="full", beta=0.0),
                       fconfig, with_grads=True)
    assert full0.value == pytest.approx(joint.value, rel=1e-12)
    np.testing.assert_allclose(full0.grads.to_vector(), joint.grads.to_vector(),
                               rtol=1e-12, atol=0)


def test_total_loss_gradient_shapes(setup):
    docs, fconfig, params = setup
    out = total_loss(docs[:2], params, TrainConfig(variant="full", beta=0.1),
                     fconfig, with_grads=True)
    assert out.grads.to_vector().shape == params.to_vector().shape
    assert np.all(np.isfinite(out.grads.to_vector()))


def test_total_loss_gradients_take_one_parameter_row(setup):
    docs, fconfig, params = setup
    batch = params._on(np.stack([params.vector, params.vector]))
    for with_grads in (True, False):
        with pytest.raises(ValueError, match="one parameter row"):
            total_loss(docs[:1], batch, TrainConfig(variant="base"), fconfig,
                       with_grads=with_grads)


def test_learning_rate_warmup_schedule():
    # 20 steps, 10% warmup: two warmup steps then the base rate
    assert learning_rate_at(1, 20, 0.5, 0.1) == pytest.approx(0.25)
    assert learning_rate_at(2, 20, 0.5, 0.1) == pytest.approx(0.5)
    assert learning_rate_at(3, 20, 0.5, 0.1) == pytest.approx(0.5)
    assert learning_rate_at(20, 20, 0.5, 0.1) == pytest.approx(0.5)
    # no warmup: full rate from the first step
    assert learning_rate_at(1, 20, 0.5, 0.0) == pytest.approx(0.5)


def test_fit_zero_learning_rate_is_identity(setup):
    docs, fconfig, _ = setup
    config = TrainConfig(variant="joint", learning_rate=0.0, epochs=2,
                         batch_size=4, rng_seed=0)
    start = init_params(fconfig, n_layers=1, n_heads=2, rng_seed=config.rng_seed)
    result = fit(list(docs), config, feature_config=fconfig, n_layers=1, n_heads=2)
    np.testing.assert_array_equal(result.params.vector, start.vector)


def test_fit_is_deterministic(setup):
    docs, fconfig, _ = setup
    config = TrainConfig(variant="full", beta=0.1, epochs=2, batch_size=4,
                         learning_rate=5e-3, rng_seed=3)
    r1 = fit(list(docs), config, feature_config=fconfig, n_layers=1, n_heads=2)
    r2 = fit(list(docs), config, feature_config=fconfig, n_layers=1, n_heads=2)
    np.testing.assert_array_equal(r1.params.to_vector(), r2.params.to_vector())
    assert r1.history == r2.history
    other = TrainConfig(variant="full", beta=0.1, epochs=2, batch_size=4,
                        learning_rate=5e-3, rng_seed=4)
    r3 = fit(list(docs), config=other, feature_config=fconfig, n_layers=1,
             n_heads=2)
    assert not np.array_equal(r1.params.to_vector(), r3.params.to_vector())


def test_fit_reduces_training_loss(setup):
    docs, fconfig, _ = setup
    config = TrainConfig(variant="joint", epochs=8, batch_size=4,
                         learning_rate=5e-3, rng_seed=0)
    result = fit(list(docs), config, feature_config=fconfig, n_layers=1,
                 n_heads=2)
    losses = [h["train_loss"] for h in result.history]
    assert losses[-1] < losses[0]


def test_gradient_accumulation_matches_larger_batch(setup):
    """Averaging two half batches before each update equals one full batch."""
    docs, fconfig, _ = setup
    small = TrainConfig(variant="joint", epochs=2, batch_size=2,
                        grad_accumulation=2, learning_rate=5e-3, rng_seed=1)
    large = TrainConfig(variant="joint", epochs=2, batch_size=4,
                        grad_accumulation=1, learning_rate=5e-3, rng_seed=1)
    r_small = fit(list(docs), small, feature_config=fconfig, n_layers=1,
                  n_heads=2)
    r_large = fit(list(docs), large, feature_config=fconfig, n_layers=1,
                  n_heads=2)
    np.testing.assert_allclose(r_small.params.to_vector(),
                               r_large.params.to_vector(), rtol=1e-10)


def test_fit_history_and_best_params(setup):
    docs, fconfig, _ = setup
    train, val = list(docs[:6]), list(docs[6:])
    config = TrainConfig(variant="joint", epochs=4, batch_size=3,
                         learning_rate=5e-3, rng_seed=2)
    result = fit(train, config, feature_config=fconfig, val_docs=val,
                 n_layers=1, n_heads=2)
    assert len(result.history) == config.epochs
    for i, record in enumerate(result.history):
        assert record["epoch"] == i + 1
        assert set(record) >= {"epoch", "train_loss", "val_loss",
                               "val_rouge1_f", "val_seg_f1"}
    # the retained parameters reproduce the lowest recorded validation loss
    best_seen = min(h["val_loss"] for h in result.history)
    recomputed = total_loss(val, result.best_params, config, fconfig,
                            with_grads=False)
    assert recomputed.value == pytest.approx(best_seen, rel=1e-9)


def test_fit_val_document_may_reuse_a_train_id(setup):
    """Features follow the documents by position: a validation document that
    reuses a training document's id (with other text) trains exactly as it
    does under a fresh id."""
    docs, fconfig, _ = setup
    train = list(docs[:6])
    config = TrainConfig(variant="full", beta=0.1, epochs=2, batch_size=3,
                         learning_rate=5e-3, rng_seed=2)
    results = [
        fit(train, config, feature_config=fconfig,
            val_docs=[dataclasses.replace(docs[6], id=doc_id)],
            n_layers=1, n_heads=2)
        for doc_id in ("fresh", train[0].id)
    ]
    assert results[0].history == results[1].history
    np.testing.assert_array_equal(results[0].params.vector, results[1].params.vector)
    np.testing.assert_array_equal(results[0].best_params.vector,
                                  results[1].best_params.vector)


def test_fit_without_val_reports_none(setup):
    docs, fconfig, _ = setup
    config = TrainConfig(variant="base", epochs=1, batch_size=4,
                         learning_rate=1e-3, rng_seed=0)
    result = fit(list(docs), config, feature_config=fconfig, n_layers=1,
                 n_heads=2)
    assert result.history[0]["val_loss"] is None
    assert result.history[0]["val_rouge1_f"] is None


def test_grad_check_passes_per_variant(setup):
    docs, fconfig, params = setup
    doc = docs[0]
    for variant, beta in (("base", 0.0), ("joint", 0.0), ("full", 0.1)):
        config = TrainConfig(variant=variant, beta=beta)
        report = grad_check(params, doc, config, fconfig)
        assert report.passed, f"{variant}: {report.max_error}"
        assert report.max_error < report.tolerance
        norms = report.term_grad_norms
        assert norms["sum"] > 0.0
        if variant == "base":
            assert norms["seg"] == 0.0 and norms["dpp"] == 0.0
        elif variant == "joint":
            assert norms["seg"] > 0.0 and norms["dpp"] == 0.0
        else:
            assert norms["seg"] > 0.0 and norms["dpp"] > 0.0


def _tamper_analytic_gradients(monkeypatch, tamper):
    """Make ``backward_document``, as ``training`` calls it, apply ``tamper``
    to the gradients it returns. The value-only probe passes never call it,
    so only ``grad_check``'s analytic gradient changes."""
    backward = training.backward_document

    def tampered(*args, **kwargs):
        grads = backward(*args, **kwargs)
        tamper(grads)
        return grads

    monkeypatch.setattr(training, "backward_document", tampered)


def test_grad_check_flags_injected_fault(setup, monkeypatch):
    docs, fconfig, params = setup
    # a deliberately wrong analytic block
    _tamper_analytic_gradients(
        monkeypatch, lambda grads: np.multiply(grads.w_sum, 1.5, out=grads.w_sum))
    report = grad_check(params, docs[0], TrainConfig(variant="joint"), fconfig)
    assert not report.passed
    assert report.block_errors["head.sum.weight"] > report.tolerance
    lines = "\n".join(report.summary_lines())
    assert "FAIL" in lines


def test_grad_check_flags_non_finite_analytic(setup, monkeypatch):
    docs, fconfig, params = setup
    _tamper_analytic_gradients(monkeypatch, lambda grads: grads.vector.fill(np.nan))
    report = grad_check(params, docs[0], TrainConfig(variant="joint"), fconfig)
    assert not report.passed
    assert report.max_error == math.inf
    assert all(err == math.inf for err in report.block_errors.values())
    assert "FAIL" in "\n".join(report.summary_lines())


def test_grad_check_reports_a_non_finite_loss_as_an_infinite_error(setup):
    """A NaN summary label makes every probe loss and the analytic gradient
    NaN; the report fails with an infinite error instead of raising."""
    docs, fconfig, params = setup
    labels = docs[0].labels
    doc = dataclasses.replace(docs[0], labels=dataclasses.replace(
        labels, summary_labels=(float("nan"),) + labels.summary_labels[1:]))
    report = grad_check(params, doc, TrainConfig(variant="full", beta=0.1), fconfig)
    assert not report.passed
    assert report.max_error == math.inf
    assert "FAIL" in report.summary_lines()[-1]


@pytest.mark.parametrize("variant, beta", [("base", 0.0), ("joint", 0.0), ("full", 0.1)])
def test_grad_check_matches_the_loop_reference(setup, variant, beta):
    """Block errors and per-term norms equal their definitions exactly; the
    norms come from gradient passes of the stack loss on one featurization,
    the reference's from ``total_loss``."""
    docs, fconfig, params = setup
    assert any(docs[0].labels.summary_labels)  # the repulsion term runs
    config = TrainConfig(variant=variant, beta=beta)
    report = grad_check(params, docs[0], config, fconfig)
    assert report.block_errors == loop_grad_check(params, docs[0], config, fconfig)
    assert report.term_grad_norms == loop_term_grad_norms(params, docs[0], config, fconfig)


@pytest.mark.xfail(strict=True, reason="ROADMAP item 2: a summary of more sentences "
                   "than dim leaves the subset minor ridge-dominated, and finite "
                   "differences cannot certify its gradient")
def test_grad_check_certifies_more_picks_than_dim():
    """Five summary sentences against width 4. Four picks pass (max rel err
    1.2e-5); five fail at 1.5e-2 until the minor takes its dual form."""
    doc = generate_synthetic(SynthConfig(n_documents=1, sentences_per_section=(4, 4),
                                         sections_per_document=(2, 2), rng_seed=0))[0]
    labels = dataclasses.replace(doc.labels, summary_labels=(1,) * 5 + (0,) * 3,
                                 selection_order=None)
    fconfig = FeatureConfig(dim=4, hash_buckets=8)
    params = init_params(fconfig, n_layers=1, n_heads=1, rng_seed=0)
    report = grad_check(params, dataclasses.replace(doc, labels=labels),
                        TrainConfig(variant="full", beta=0.1), fconfig)
    assert report.passed, report.max_error


def test_grad_check_ridge_escalation_inside_a_chunk(monkeypatch):
    """Six summary sentences, one repeated three times, against width 4: the
    minor is singular, and at a ridge of 1e-16 some probe rows of a chunk
    factor and others escalate. Each falls back to its own escalation, so
    the report still equals the one-probe-at-a-time reference."""
    texts = ["the results show a gain", "we study graphs", "the results show a gain",
             "in summary we conclude", "tables follow", "the results show a gain",
             "graphs are sparse", "a final remark"]
    labels = LabelSet(summary_labels=(1, 1, 1, 1, 0, 1, 1, 0),
                      boundary_labels=(1, 0, 0, 1, 0, 0, 0, 0))
    doc = Document.build("dup", texts, section_starts=(0, 3),
                         reference_summary="the results show a gain", labels=labels)
    fconfig = FeatureConfig(dim=4, hash_buckets=16)
    params = init_params(fconfig, n_layers=1, n_heads=2, rng_seed=0)
    config = TrainConfig(variant="full", beta=0.1)
    monkeypatch.setattr(training, "DEFAULT_DPP_RIDGE", 1e-16)
    stacks = []
    factor = dpp._ridged_logdet

    def spy(minor, ridge, real=None):
        out = factor(minor, ridge, real)
        if minor.ndim == 3:
            stacks.append(out[2].max())
        return out

    monkeypatch.setattr(dpp, "_ridged_logdet", spy)
    report = grad_check(params, doc, config, fconfig)
    assert any(ridge > 1e-16 for ridge in stacks)  # a chunk escalated
    assert report.block_errors == loop_grad_check(params, doc, config, fconfig)


def test_grad_check_caps_the_rows_of_a_chunk(monkeypatch):
    """A 105-sentence document at one head: 2**18 attention scores, what a
    prediction stack may hold, fit 23 rows of 105**2, so each chunk probes
    11 entries (22 rows) instead of 128; the report still equals the
    one-probe-at-a-time reference bit for bit."""
    doc = generate_synthetic(SynthConfig(n_documents=1, sections_per_document=(10, 10),
                                         sentences_per_section=(10, 10), rng_seed=0))[0]
    fconfig = FeatureConfig(dim=4, hash_buckets=4)
    params = init_params(fconfig, n_layers=1, n_heads=1, rng_seed=0)
    config = TrainConfig(variant="full", beta=0.1)
    rows = []
    stack_loss = training._stack_loss

    def spy(enc, labels, params, config, with_grads):
        if not with_grads:
            rows.append(enc.summary_probs.shape[0])
        return stack_loss(enc, labels, params, config, with_grads)

    monkeypatch.setattr(training, "_stack_loss", spy)
    report = grad_check(params, doc, config, fconfig)
    assert len(doc) == 105 and max(rows) == 22 and sum(rows) == 2 * params.vector.size
    assert report.block_errors == loop_grad_check(params, doc, config, fconfig)


def test_grad_check_report_lines(setup):
    docs, fconfig, params = setup
    report = grad_check(params, docs[0], TrainConfig(variant="base"), fconfig)
    lines = report.summary_lines()
    assert any("PASS" in line for line in lines)
    assert any("proj.weight" in line for line in lines)


def test_nan_parameters_raise_numerics_error(setup):
    docs, fconfig, params = setup
    poisoned = params.from_vector(params.vector)
    poisoned.layers[0].w_q[0, 0] = np.nan
    with pytest.raises(NumericsError):
        total_loss(docs[:1], poisoned, TrainConfig(variant="base"), fconfig)
