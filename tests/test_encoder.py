import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest

from sectsum import (
    CheckpointError,
    FeatureConfig,
    ModelParams,
    NumericsError,
    SynthConfig,
    backward_document,
    base_features,
    encode_forward,
    forward_document,
    generate_synthetic,
    heads_forward,
    init_params,
    load_checkpoint,
    save_checkpoint,
)
from sectsum import encoder
from sectsum.encoder import (
    N_SCALAR_FEATURES, _block_shapes, position_encoding, stable_sigmoid,
)

from conftest import loop_encoder_forward, make_doc


def test_feature_config_validation():
    config = FeatureConfig(dim=8, hash_buckets=16)
    assert config.n_features == 16 + N_SCALAR_FEATURES
    with pytest.raises(ValueError):
        FeatureConfig(dim=7, hash_buckets=16)  # odd width
    with pytest.raises(ValueError):
        FeatureConfig(dim=2, hash_buckets=16)  # too narrow
    with pytest.raises(ValueError):
        FeatureConfig(dim=8, hash_buckets=4)  # fewer buckets than dim


def test_base_features_shape_and_normalization(tiny_corpus):
    config = FeatureConfig(dim=8, hash_buckets=16)
    doc = tiny_corpus[0]
    feats = base_features([doc], config)[0]
    n = len(doc)
    assert feats.shape == (n, config.n_features)
    bow = feats[:, :config.hash_buckets]
    norms = np.linalg.norm(bow, axis=1)
    np.testing.assert_allclose(norms, 1.0, atol=1e-12)
    # position scalar is i / n
    np.testing.assert_allclose(feats[:, config.hash_buckets],
                               np.arange(n) / n, atol=1e-12)
    # length scalar is log1p(token count)
    lengths = [math.log1p(len(s.tokens)) for s in doc.sentences]
    np.testing.assert_allclose(feats[:, config.hash_buckets + 1], lengths)


def test_cue_feature_flags_cue_sentences():
    config = FeatureConfig(dim=8, hash_buckets=16)
    doc = make_doc(texts=["in this section we go", "plain filler here"],
                   section_starts=(0,), reference="x")
    feats = base_features([doc], config)[0]
    cue_col = feats[:, -1]
    assert cue_col[0] == 1.0 and cue_col[1] == 0.0


def test_vecdot_is_the_per_row_dot():
    """The centroid column rests on ``np.vecdot`` taking each row's dot
    product exactly as ``row.dot`` does, bit for bit, at every width."""
    rng = np.random.default_rng(0)
    for width in range(301):
        m = rng.random((4, width)) * rng.integers(0, 4, size=(4, width))
        c = m.mean(axis=0)
        assert np.vecdot(m, m).tobytes() == np.array([row.dot(row) for row in m]).tobytes()
        assert np.vecdot(m, c).tobytes() == np.array([row.dot(c) for row in m]).tobytes()


def test_position_encoding_first_row_and_values():
    pe = position_encoding(5, 8)
    assert pe.shape == (5, 8)
    np.testing.assert_array_equal(pe[0, 0::2], 0.0)  # sin(0)
    np.testing.assert_array_equal(pe[0, 1::2], 1.0)  # cos(0)
    assert pe[1, 0] == pytest.approx(math.sin(1.0))
    assert pe[1, 1] == pytest.approx(math.cos(1.0))


def test_stable_sigmoid_matches_reference_and_is_bounded():
    # stay above the 1e-12 output floor, where the forms agree exactly
    z = np.linspace(-25.0, 25.0, 101)
    np.testing.assert_allclose(stable_sigmoid(z), 1.0 / (1.0 + np.exp(-z)),
                               rtol=1e-12)
    extreme = stable_sigmoid(np.array([-1e4, 1e4]))
    assert extreme[0] >= 1e-12
    assert extreme[1] <= 1.0 - 1e-12
    assert np.all(np.diff(stable_sigmoid(z)) > 0)


def test_zeroed_output_projections_pass_features_through(small_model, tiny_corpus):
    """With w_o, w_ff2 and b_ff2 zeroed, each block is the identity and the
    encoder output equals projected features plus the position encoding."""
    config, params = small_model
    params = params.from_vector(params.vector)
    for lp in params.layers:
        lp.w_o[:] = 0.0
        lp.w_ff2[:] = 0.0
        lp.b_ff2[:] = 0.0
    doc = tiny_corpus[0]
    x = base_features([doc], config)[0] @ params.w_proj
    hidden, caches = encode_forward(x, params)
    np.testing.assert_array_equal(hidden, x + position_encoding(len(doc), config.dim))
    assert len(caches) == params.n_layers


def test_heads_forward_formula(small_model, tiny_corpus):
    config, params = small_model
    enc = forward_document(tiny_corpus[0], params, config)
    hidden = enc.hidden.copy()
    p_sum, p_seg = heads_forward(enc.hidden, params)
    np.testing.assert_allclose(
        p_sum, stable_sigmoid(enc.hidden @ params.w_sum + params.b_sum[0]))
    np.testing.assert_allclose(
        p_seg, stable_sigmoid(enc.hidden @ params.w_seg + params.b_seg[0]))
    assert np.all((p_sum > 0) & (p_sum < 1))
    # the record holds the same probabilities, and the heads changed nothing
    np.testing.assert_array_equal(enc.summary_probs, p_sum)
    np.testing.assert_array_equal(enc.boundary_probs, p_seg)
    np.testing.assert_array_equal(enc.hidden, hidden)


@pytest.mark.parametrize("head", ["w_sum", "w_seg"])
def test_heads_forward_rejects_an_overflowing_logit(small_model, head):
    _, params = small_model
    huge = params.from_vector(params.vector)
    getattr(huge, head)[...] = 1e308  # finite, but 10 * 1e308 overflows
    with pytest.raises(NumericsError, match="head logit"):
        heads_forward(np.full((3, params.dim), 10.0), huge)


def test_encoded_document_fields_cannot_be_rebound(small_model, tiny_corpus):
    config, params = small_model
    enc = forward_document(tiny_corpus[0], params, config)
    for name in ("base_features", "hidden", "layer_caches", "summary_probs",
                 "boundary_probs"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(enc, name, None)


def test_backward_matches_finite_differences_on_features(small_model, tiny_corpus):
    """Gradient of sum(summary probs) with respect to the feature projection
    w_proj, checked by central differences; every entry of it flows back
    through the heads and the whole attention stack."""
    config, params = small_model
    doc = tiny_corpus[2]
    probe = params.from_vector(params.vector)

    def objective():
        return float(np.sum(forward_document(doc, probe, config).summary_probs))

    enc = forward_document(doc, params, config)
    grads = backward_document(enc, params, d_summary=np.ones(len(doc)))

    rng = np.random.default_rng(0)
    step = 1e-6
    for _ in range(12):
        i = int(rng.integers(params.w_proj.shape[0]))
        j = int(rng.integers(params.w_proj.shape[1]))
        probe.w_proj[i, j] = params.w_proj[i, j] + step
        up = objective()
        probe.w_proj[i, j] = params.w_proj[i, j] - step
        down = objective()
        probe.w_proj[i, j] = params.w_proj[i, j]
        fd = (up - down) / (2 * step)
        assert fd == pytest.approx(grads.w_proj[i, j], rel=1e-4, abs=1e-8)


def test_forward_document_matches_the_scalar_reference():
    """Hidden states and both heads' probabilities equal the loop reference's
    to 1e-12 of each array's largest magnitude, for each document alone and
    for every document's real rows in one padded stack of all of them. (An
    entry near zero can differ by more relative to itself: the residual sums
    cancel.)"""
    docs = generate_synthetic(SynthConfig(n_documents=5, sections_per_document=(3, 7),
                                          sentences_per_section=(4, 6), rng_seed=2))
    assert min(map(len, docs)) < 20 and max(map(len, docs)) == 40
    config = FeatureConfig(dim=8, hash_buckets=16)
    params = init_params(config, n_layers=2, n_heads=2, rng_seed=7)
    params.vector[...] += 0.3 * np.random.default_rng(7).normal(size=params.vector.shape)
    raws = base_features(docs, config)
    stack = forward_document(docs, params, config, raws)
    for g, (doc, raw) in enumerate(zip(docs, raws)):
        expected = loop_encoder_forward(raw, params)
        alone = forward_document(doc, params, config, raw)
        n = len(doc)
        for got in ((alone.hidden, alone.summary_probs, alone.boundary_probs),
                    (stack.hidden[g, :n], stack.summary_probs[g, :n],
                     stack.boundary_probs[g, :n])):
            for actual, reference in zip(got, expected):
                reference = np.array(reference)
                np.testing.assert_allclose(actual, reference, rtol=0,
                                           atol=1e-12 * np.abs(reference).max())


def test_attention_holds_one_score_array_per_value_pass():
    """On one 420-sentence document, a value pass peaks below two (heads, n, n)
    float64 arrays, its score array updated in place, and a forward pass with
    caches plus its backward pass below three: the cached attention and its
    gradient, plus the other caches and the softmax backward's temporary,
    which is one block of query rows (tracemalloc peaks)."""
    doc = generate_synthetic(SynthConfig(n_documents=1, sections_per_document=(40, 40),
                                         sentences_per_section=(10, 10), rng_seed=1))[0]
    assert len(doc) == 420
    config = FeatureConfig(dim=16)
    params = init_params(config, n_layers=1, n_heads=2)
    raw = base_features([doc], config)[0]
    unit = params.n_heads * len(doc) ** 2 * 8
    upstream = np.ones(len(doc))
    tracemalloc.start()
    try:
        forward_document(doc, params, config, raw, with_caches=False)
        value_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        enc = forward_document(doc, params, config, raw)
        backward_document(enc, params, d_summary=upstream, d_boundary=upstream)
        gradient_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert value_peak < 2 * unit, value_peak / unit
    assert gradient_peak < 3 * unit, gradient_peak / unit


def test_softmax_backward_row_blocks_move_no_bit(monkeypatch):
    """The gradients and every layer's d_x are bit for bit the same with one
    query row per softmax-backward block, with blocks that end inside a head,
    and with the default blocks; on a padded stack of documents of different
    lengths and on one document of about 200 sentences, which the default
    splits into three blocks."""
    stack = generate_synthetic(SynthConfig(n_documents=4, sections_per_document=(3, 7),
                                           sentences_per_section=(4, 6), rng_seed=2))
    assert len(set(map(len, stack))) > 1
    long_doc = generate_synthetic(SynthConfig(n_documents=1, sections_per_document=(20, 20),
                                              sentences_per_section=(10, 10), rng_seed=1))[0]
    config = FeatureConfig(dim=8, hash_buckets=16)
    params = init_params(config, n_layers=2, n_heads=2, rng_seed=7)
    default = encoder._SOFTMAX_BLOCK_ENTRIES
    rows = params.n_heads * len(long_doc)
    assert 190 <= len(long_doc) <= 210 and -(-rows // (default // len(long_doc))) == 3
    d_xs = []
    layer_backward = encoder._layer_backward
    monkeypatch.setattr(encoder, "_layer_backward",
                        lambda *args: d_xs.append(layer_backward(*args)) or d_xs[-1])
    for docs, lengths in ((stack, [len(doc) for doc in stack]), (long_doc, len(long_doc))):
        enc = forward_document(docs, params, config)
        n = enc.hidden.shape[-2]
        upstream = (np.arange(n) < np.array(lengths)[..., None]).astype(float)  # 0 when padded
        assert (2 ** 12 // n) % n != 0  # so blocks of 2^12 entries end inside a head
        results = []
        for entries in (1, 2 ** 12, default):
            monkeypatch.setattr(encoder, "_SOFTMAX_BLOCK_ENTRIES", entries)
            d_xs.clear()
            grads = backward_document(enc, params, d_summary=upstream, d_boundary=upstream)
            results.append([grads.vector.tobytes()] + [d_x.tobytes() for d_x in d_xs])
        assert results[0] == results[1] == results[2]


def test_encode_forward_rejects_non_finite(small_model, tiny_corpus):
    config, params = small_model
    params = params.from_vector(params.vector)
    params.layers[0].w_q[0, 0] = np.nan
    x = base_features([tiny_corpus[0]], config)[0] @ params.w_proj
    with pytest.raises(NumericsError, match="layer 0"):
        encode_forward(x, params)


def test_init_params_deterministic():
    config = FeatureConfig(dim=8, hash_buckets=16)
    a = init_params(config, n_layers=2, n_heads=2, rng_seed=3)
    b = init_params(config, n_layers=2, n_heads=2, rng_seed=3)
    c = init_params(config, n_layers=2, n_heads=2, rng_seed=4)
    np.testing.assert_array_equal(a.to_vector(), b.to_vector())
    assert not np.array_equal(a.to_vector(), c.to_vector())


def test_params_vector_round_trip(small_model):
    _, params = small_model
    vec = params.to_vector()
    assert vec.shape == params.vector.shape
    assert not np.shares_memory(vec, params.vector)  # a copy
    restored = params.zeros_like().from_vector(vec)
    np.testing.assert_array_equal(restored.to_vector(), vec)
    names = [name for name, _ in params.blocks()]
    assert len(names) == len(set(names))
    assert sum(a.size for _, a in params.blocks()) == params.vector.size
    # every block is a view into the one flat vector, and no field can be
    # rebound away from it
    assert all(np.shares_memory(a, restored.vector) for _, a in restored.blocks())
    with pytest.raises(dataclasses.FrozenInstanceError):
        restored.w_sum = np.zeros_like(restored.w_sum)


def test_parameter_rows_cut_into_views(small_model):
    """A (B, P) matrix of parameter rows cuts into (B, *shape) views of the
    matrix, no copies; row b of each block is that block of row b."""
    _, params = small_model
    rows = params.vector + np.arange(3.0)[:, None]
    batch = params._on(rows)
    assert batch.dim == params.dim and batch.ffn_hidden == params.ffn_hidden
    assert batch.n_features == params.n_features
    for b, row in enumerate(rows):
        for (name, block), (_, one) in zip(batch.blocks(), params.from_vector(row).blocks()):
            assert block.shape == (3, *one.shape), name
            assert np.shares_memory(block, rows)
            np.testing.assert_array_equal(block[b], one)


def test_blocks_follow_the_block_table(small_model):
    """``blocks()`` gives the names and shapes of ``_block_shapes``, and each
    block shares memory with the dataclass field it names."""
    config, params = small_model
    table = _block_shapes(config.n_features, config.dim, params.n_layers,
                          params.ffn_hidden)
    blocks = list(params.blocks())
    assert [(name, arr.shape) for name, arr in blocks] == table
    heads = {"sum.weight": params.w_sum, "sum.bias": params.b_sum,
             "seg.weight": params.w_seg, "seg.bias": params.b_seg}
    for name, arr in blocks:
        owner, _, attr = name.partition(".")
        if owner == "proj":
            named = params.w_proj
        elif owner == "head":
            named = heads[attr]
        else:
            named = getattr(params.layers[int(owner.removeprefix("layer"))], attr)
        assert named.shape == arr.shape
        assert np.shares_memory(named, arr)
        np.testing.assert_array_equal(named, arr)
    np.testing.assert_array_equal(np.concatenate([a.ravel() for _, a in blocks]),
                                  params.vector)


def test_checkpoint_round_trip(tmp_path, small_model):
    config, params = small_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    loaded_params, loaded_config = load_checkpoint(path)
    np.testing.assert_array_equal(loaded_params.to_vector(), params.to_vector())
    assert loaded_config == config
    assert loaded_params.n_heads == params.n_heads


def test_checkpoint_bytes_deterministic(tmp_path, small_model):
    config, params = small_model
    p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
    save_checkpoint(p1, params, config)
    save_checkpoint(p2, params, config)
    assert p1.read_bytes() == p2.read_bytes()


def test_checkpoint_rejects_corruption(tmp_path, small_model):
    config, params = small_model
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, config)
    raw = path.read_bytes()
    (tmp_path / "truncated.ckpt").write_bytes(raw[:-16])
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "truncated.ckpt")
    (tmp_path / "garbled.ckpt").write_bytes(b"not a header\n" + raw)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "garbled.ckpt")
    (tmp_path / "trailing.ckpt").write_bytes(raw + b"\0" * 8)
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(tmp_path / "trailing.ckpt")
    poisoned = params.from_vector(params.vector)
    poisoned.layers[0].w_q[0, 0] = np.nan
    save_checkpoint(tmp_path / "nan.ckpt", poisoned, config)
    with pytest.raises(CheckpointError, match="non-finite"):
        load_checkpoint(tmp_path / "nan.ckpt")

    head, body = raw.split(b"\n", 1)
    header = json.loads(head)
    # the header's two feature flags (position, centroid) must stay true
    flags = [key for key, value in header["feature_config"].items() if value is True]
    assert len(flags) == 2
    cases = [(f"feature_config.{key}", value, key) for key in flags for value in (False, None)]
    for key, value, match in cases + [
        ("n_layers", "1", "n_layers"),
        # as many layers as the body has values passes the size check
        ("n_layers", len(body) // 8, "must list"),
        ("n_heads", 0, "n_heads"),
        ("ffn_hidden", 16.0, "ffn_hidden"),
        ("feature_config.dim", True, "dim"),
        ("feature_config.hash_buckets", None, "hash_buckets"),
        ("feature_config.dim", 5, "even"),
        ("feature_config.cue_lexicon", ["ok", 3], "cue_lexicon"),
        ("feature_config", [], "feature_config"),
        ("blocks", header["blocks"][:-1], "blocks"),
        ("blocks", header["blocks"] + [{"name": "extra", "shape": [1]}], "blocks"),
        ("blocks", [*header["blocks"][:-1], "head.seg.bias"], "does not match"),
    ]:
        tampered = json.loads(head)
        owner, _, field = key.rpartition(".")
        (tampered[owner] if owner else tampered)[field] = value
        path = tmp_path / "header.ckpt"
        path.write_bytes(json.dumps(tampered, sort_keys=True).encode() + b"\n" + body)
        with pytest.raises(CheckpointError, match=match):
            load_checkpoint(path)
    (tmp_path / "list.ckpt").write_bytes(b"[]\n" + body)
    with pytest.raises(CheckpointError, match="not a"):
        load_checkpoint(tmp_path / "list.ckpt")
