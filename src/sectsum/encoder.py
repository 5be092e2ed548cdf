"""Sentence featurization, an inter-sentence attention encoder, and the two
scoring heads (summary membership and section boundary).

Everything runs in float64 numpy. The encoder is a residual pre-norm stack:
each layer applies layer-norm -> multi-head self-attention over sentence
positions -> residual add, then layer-norm -> GELU feed-forward -> residual
add. Sinusoidal position encodings are added to the projected features before
the first layer. A padded stack of documents runs as one pass: padded keys
get -inf attention scores, so no document sees another's rows or its padding.
A forward pass that feeds a backward pass retains the activations the exact
reverse-mode gradients need; gradients are certified against central finite
differences in the test suite.
"""

from __future__ import annotations

import json
import math
import re
import zlib
from dataclasses import dataclass, field, fields

import numpy as np

from .corpus import CUE_PHRASES, _atomic_write
from .special import normal_cdf

__all__ = [
    "FeatureConfig",
    "LayerParams",
    "ModelParams",
    "EncodedDocument",
    "NumericsError",
    "CheckpointError",
    "base_features",
    "init_params",
    "encode_forward",
    "heads_forward",
    "forward_document",
    "backward_document",
    "save_checkpoint",
    "load_checkpoint",
]

# Scalar features appended after the hashed bag-of-words block:
# normalized position, log sentence length, centroid similarity, cue flag.
N_SCALAR_FEATURES = 4

_LN_EPS = 1e-6
_PROB_FLOOR = 1e-12

CHECKPOINT_FORMAT = "sectsum-checkpoint"
CHECKPOINT_VERSION = 1


class NumericsError(Exception):
    """Raised when a forward pass produces non-finite values."""


class CheckpointError(Exception):
    """Raised for unreadable or mismatched checkpoint files."""


@dataclass(frozen=True)
class FeatureConfig:
    """Featurizer and model-width configuration.

    ``dim`` is the hidden width of the encoder; it must be even (position
    encodings pair sin/cos channels) and at least 4. ``hash_buckets`` sizes
    the hashed bag-of-words block and must be at least ``dim``.
    """

    dim: int = 32
    hash_buckets: int = 64
    cue_lexicon: tuple = CUE_PHRASES

    def __post_init__(self):
        if self.dim < 4 or self.dim % 2 != 0:
            raise ValueError(f"dim must be an even integer >= 4, got {self.dim}")
        if self.hash_buckets < self.dim:
            raise ValueError(
                f"hash_buckets ({self.hash_buckets}) must be >= dim ({self.dim})"
            )

    @property
    def n_features(self):
        return self.hash_buckets + N_SCALAR_FEATURES


# ---------------------------------------------------------------------------
# Featurization
# ---------------------------------------------------------------------------

def base_features(doc, config):
    """Raw per-sentence features, shape (n_sentences, hash_buckets + 4).

    Columns: L2-normalized hashed bag-of-words counts, then normalized
    position i/n, log(1 + token count), cosine similarity of the sentence
    TF-IDF vector to the document centroid, and a cue-lexicon indicator.
    Both word blocks come from one sentence x word-type count matrix, built
    by one ``np.bincount``; the hashed block is that matrix times the
    word-type x bucket one-hot matrix, and the cue column is one search of
    each lowercased sentence for the alternation of the lowercased phrases.
    Deterministic: the word hash is crc32, independent of process state.
    """
    n = len(doc.sentences)
    buckets = config.hash_buckets
    tokens = [tok for sent in doc.sentences for tok in sent.tokens]
    lengths = [len(sent.tokens) for sent in doc.sentences]
    vocab = sorted(set(tokens))
    column = {tok: j for j, tok in enumerate(vocab)}
    cells = np.repeat(np.arange(n) * len(vocab), lengths) + np.fromiter(
        map(column.__getitem__, tokens), dtype=np.intp, count=len(tokens))
    tf = np.bincount(cells, minlength=n * len(vocab)).reshape(n, len(vocab)).astype(float)

    out = np.zeros((n, buckets + N_SCALAR_FEATURES))
    word_bucket = np.zeros((len(vocab), buckets))
    word_bucket[np.arange(len(vocab)),
                [zlib.crc32(tok.encode("utf-8")) % buckets for tok in vocab]] = 1.0
    # The counts are integers, so the product and every sum of squares are
    # exact, and these norms equal a per-row np.linalg.norm bit for bit.
    hashed = out[:, :buckets]
    hashed[...] = tf @ word_bucket
    norms = np.sqrt((hashed * hashed).sum(axis=1))
    hashed /= np.where(norms > 0, norms, 1.0)[:, None]

    out[:, buckets] = np.arange(n) / n
    out[:, buckets + 1] = [math.log1p(length) for length in lengths]
    out[:, buckets + 2] = _centroid_similarity(tf)
    if config.cue_lexicon:  # an empty alternation would match every sentence
        cue = re.compile("|".join(re.escape(phrase.lower()) for phrase in config.cue_lexicon))
        out[:, buckets + 3] = [cue.search(sent.text.lower()) is not None
                               for sent in doc.sentences]
    return out


def _centroid_similarity(tf):
    """Cosine of each sentence's TF-IDF vector against the document centroid,
    from the sentence x word-type count matrix ``tf``. Each norm is
    ``sqrt(row.dot(row))``, which is what ``np.linalg.norm`` computes on a
    row; the dot products stay per row, as a matrix product rounds
    differently."""
    n = tf.shape[0]
    df = (tf > 0).sum(axis=0)
    idf = np.log((1.0 + n) / (1.0 + df)) + 1.0
    vec = tf * idf
    centroid = vec.mean(axis=0)
    c_norm = math.sqrt(centroid.dot(centroid))
    sims = np.zeros(n)
    if c_norm == 0:
        return sims
    for i, row in enumerate(vec):
        v_norm = math.sqrt(row.dot(row))
        if v_norm > 0:
            sims[i] = float(row.dot(centroid)) / (v_norm * c_norm)
    return sims


# ---------------------------------------------------------------------------
# Parameters
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LayerParams:
    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray
    ln1_gain: np.ndarray
    ln1_bias: np.ndarray
    ln2_gain: np.ndarray
    ln2_bias: np.ndarray
    w_ff1: np.ndarray
    b_ff1: np.ndarray
    w_ff2: np.ndarray
    b_ff2: np.ndarray


@dataclass(frozen=True)
class ModelParams:
    """All trainable weights, plus the head-count needed to shape attention.

    ``vector`` holds every weight as one contiguous float64 array, block
    after block in :meth:`blocks` order, and every array field (and every
    :class:`LayerParams` field) is a view into it. Weights are mutated in
    place, through the views or through ``vector``, and never rebound; the
    dataclass is frozen to keep it so.

    Gradient containers reuse this class (same structure, zero-initialized).
    """

    w_proj: np.ndarray
    layers: tuple
    w_sum: np.ndarray
    b_sum: np.ndarray
    w_seg: np.ndarray
    b_seg: np.ndarray
    n_heads: int
    vector: np.ndarray = field(repr=False)

    @property
    def dim(self):
        return self.w_sum.shape[-1]

    @property
    def n_layers(self):
        return len(self.layers)

    @property
    def ffn_hidden(self):
        return self.layers[0].b_ff1.shape[-1] if self.layers else 0

    @property
    def n_features(self):
        return self.w_proj.shape[-2]

    def blocks(self):
        """Yield (name, array) pairs in vector order; arrays are live views."""
        return _cut(self.vector, self._shapes())

    def _shapes(self):
        return _block_shapes(self.n_features, self.dim, self.n_layers, self.ffn_hidden)

    def _on(self, vector):
        return _params_on(vector, self._shapes(), self.n_heads)

    def zeros_like(self):
        return self._on(np.zeros_like(self.vector))

    def to_vector(self):
        return self.vector.copy()

    def from_vector(self, vector):
        """New ModelParams with this structure, values copied from ``vector``."""
        return self._on(np.array(vector, dtype=float))


def _block_shapes(n_features, dim, n_layers, ffn_hidden):
    """(name, shape) of every parameter block in vector order: the layout table."""
    d, h = dim, ffn_hidden
    layer = [(d, d)] * 4 + [(d,)] * 4 + [(d, h), (h,), (h, d), (d,)]
    shapes = [("proj.weight", (n_features, d))]
    for i in range(n_layers):
        shapes += [(f"layer{i}.{f.name}", shape)
                   for f, shape in zip(fields(LayerParams), layer)]
    return shapes + [("head.sum.weight", (d,)), ("head.sum.bias", (1,)),
                     ("head.seg.weight", (d,)), ("head.seg.bias", (1,))]


def _cut(vector, shapes):
    """Yield (name, view) of each (name, shape) block, cut from the last axis
    of ``vector`` in order. Leading axes are kept: a (B, P) matrix of
    parameter rows gives (B, *shape) views."""
    offset = 0
    for name, shape in shapes:
        size = math.prod(shape)
        yield name, vector[..., offset:offset + size].reshape(vector.shape[:-1] + shape)
        offset += size


def _params_on(vector, shapes, n_heads):
    """ModelParams whose arrays are views into ``vector``, cut into the
    ``(name, shape)`` blocks of ``shapes`` in order. A (B, P) ``vector`` is a
    batch of parameter rows, which only the forward value path accepts."""
    size = sum(math.prod(shape) for _, shape in shapes)
    if vector.ndim not in (1, 2) or vector.shape[-1] != size:
        raise ValueError(f"vector shape {vector.shape} != parameter count {size}")
    views = [view for _, view in _cut(vector, shapes)]
    per_layer = len(fields(LayerParams))
    layers = tuple(LayerParams(*views[i:i + per_layer])
                   for i in range(1, len(views) - 4, per_layer))
    return ModelParams(views[0], layers, *views[-4:], n_heads=n_heads, vector=vector)


def init_params(config, n_layers=2, n_heads=4, ffn_hidden=None, rng_seed=0):
    """Glorot-style random initialization; layer-norm gains start at one."""
    d = config.dim
    for name, value, least in (("n_heads", n_heads, 1), ("n_layers", n_layers, 0),
                               ("ffn_hidden", ffn_hidden, 1)):
        if value is not None and value < least:
            raise ValueError(f"{name} must be at least {least}, got {value}")
    if d % n_heads != 0:
        raise ValueError(f"dim {d} not divisible by n_heads {n_heads}")
    if ffn_hidden is None:
        ffn_hidden = 2 * d
    rng = np.random.default_rng(rng_seed)

    def glorot(weight):
        n_in, n_out = weight.shape
        weight[...] = rng.normal(0.0, math.sqrt(2.0 / (n_in + n_out)), size=(n_in, n_out))

    shapes = _block_shapes(config.n_features, d, n_layers, ffn_hidden)
    params = _params_on(np.zeros(sum(math.prod(s) for _, s in shapes)), shapes, n_heads)
    for lp in params.layers:
        for weight in (lp.w_q, lp.w_k, lp.w_v, lp.w_o, lp.w_ff1, lp.w_ff2):
            glorot(weight)
        lp.ln1_gain[...] = 1.0
        lp.ln2_gain[...] = 1.0
    glorot(params.w_proj)
    params.w_sum[...] = rng.normal(0.0, 1.0 / math.sqrt(d), size=d)
    params.w_seg[...] = rng.normal(0.0, 1.0 / math.sqrt(d), size=d)
    return params


# ---------------------------------------------------------------------------
# Forward / backward primitives
# ---------------------------------------------------------------------------

def position_encoding(n, d):
    """Sinusoidal position encodings, shape (n, d); d must be even."""
    if d % 2 != 0:
        raise ValueError(f"position encoding needs an even dim, got {d}")
    pos = np.arange(n, dtype=float)[:, None]
    channel = np.arange(0, d, 2, dtype=float)[None, :]
    angles = pos / np.power(10000.0, channel / d)
    pe = np.empty((n, d))
    pe[:, 0::2] = np.sin(angles)
    pe[:, 1::2] = np.cos(angles)
    return pe


def stable_sigmoid(z):
    """Overflow-free logistic, clipped to stay strictly inside (0, 1)."""
    z = np.asarray(z, dtype=float)
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    exp_z = np.exp(z[~pos])
    out[~pos] = exp_z / (1.0 + exp_z)
    return np.clip(out, _PROB_FLOOR, 1.0 - _PROB_FLOOR)


def _softmax(scores):
    shifted = scores - scores.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _split_heads(x, n_heads):
    *lead, n, d = x.shape
    return x.reshape(*lead, n, n_heads, d // n_heads).swapaxes(-2, -3)


def _merge_heads(x):
    *lead, h, n, dk = x.shape
    return x.swapaxes(-2, -3).reshape(*lead, n, h * dk)


def _layernorm_forward(x, gain, bias):
    # sum / d is what ndarray.mean computes, without its Python-level wrapper
    d = x.shape[-1]
    mean = x.sum(axis=-1, keepdims=True) / d
    centered = x - mean
    var = (centered ** 2).sum(axis=-1, keepdims=True) / d
    inv_std = 1.0 / np.sqrt(var + _LN_EPS)
    x_hat = centered * inv_std
    return x_hat * gain[..., None, :] + bias[..., None, :], (x_hat, inv_std)


def _rows(a):
    """(..., n, k) activations as one (N, k) matrix of rows, for the weight
    gradients that sum over every document and sentence of a stack."""
    return a.reshape(-1, a.shape[-1])


def _layernorm_backward(d_out, cache, gain):
    x_hat, inv_std = cache
    d_gain = _rows(d_out * x_hat).sum(axis=0)
    d_bias = _rows(d_out).sum(axis=0)
    d_xhat = d_out * gain
    d = d_xhat.shape[-1]
    m1 = d_xhat.sum(axis=-1, keepdims=True) / d
    m2 = (d_xhat * x_hat).sum(axis=-1, keepdims=True) / d
    d_x = inv_std * (d_xhat - m1 - x_hat * m2)
    return d_x, d_gain, d_bias


def _layer_forward(x, lp, n_heads, key_bias=None, with_cache=True):
    """One layer over ``x`` (..., n, d); leading axes batch parameter rows or
    stacked documents. ``key_bias`` (G, 1, 1, n) is added to the attention
    scores: -inf on a stacked document's padded keys. The activation cache
    is None unless ``with_cache``."""
    d = x.shape[-1]
    dk = d // n_heads
    normed1, ln1_cache = _layernorm_forward(x, lp.ln1_gain, lp.ln1_bias)
    qh = _split_heads(normed1 @ lp.w_q, n_heads)
    kh = _split_heads(normed1 @ lp.w_k, n_heads)
    vh = _split_heads(normed1 @ lp.w_v, n_heads)
    scores = qh @ kh.swapaxes(-1, -2) / math.sqrt(dk)
    if key_bias is not None:
        scores += key_bias
    attn = _softmax(scores)
    merged = _merge_heads(attn @ vh)
    mid = x + merged @ lp.w_o
    normed2, ln2_cache = _layernorm_forward(mid, lp.ln2_gain, lp.ln2_bias)
    z = normed2 @ lp.w_ff1
    z += lp.b_ff1[..., None, :]
    cdf = normal_cdf(z)  # GELU(z) = z * Phi(z)
    act = z * cdf
    out = act @ lp.w_ff2
    out += mid
    out += lp.b_ff2[..., None, :]
    if not with_cache:
        return out, None
    cache = {
        "ln1": ln1_cache, "ln2": ln2_cache,
        "normed1": normed1, "normed2": normed2,
        "qh": qh, "kh": kh, "vh": vh, "attn": attn, "merged": merged,
        "z": z, "cdf": cdf, "act": act,
    }
    return out, cache


def _layer_backward(d_out, cache, lp, n_heads, grad_lp):
    d = d_out.shape[-1]
    dk = d // n_heads

    # Feed-forward branch (out = mid + gelu(ln2(mid) @ w_ff1 + b) @ w_ff2 + b).
    grad_lp.b_ff2[...] += _rows(d_out).sum(axis=0)
    grad_lp.w_ff2[...] += _rows(cache["act"]).T @ _rows(d_out)
    d_act = d_out @ lp.w_ff2.T
    z = cache["z"]
    # GELU'(z) = Phi(z) + z phi(z), phi(z) = exp(-z^2 / 2) / sqrt(2 pi)
    d_z = np.multiply(z, -0.5)
    d_z *= z
    np.exp(d_z, out=d_z)
    d_z *= z
    d_z /= math.sqrt(2.0 * math.pi)
    d_z += cache["cdf"]
    d_z *= d_act
    grad_lp.b_ff1[...] += _rows(d_z).sum(axis=0)
    grad_lp.w_ff1[...] += _rows(cache["normed2"]).T @ _rows(d_z)
    d_normed2 = d_z @ lp.w_ff1.T
    d_mid_ln, d_g2, d_b2 = _layernorm_backward(d_normed2, cache["ln2"], lp.ln2_gain)
    grad_lp.ln2_gain[...] += d_g2
    grad_lp.ln2_bias[...] += d_b2
    d_mid = d_out + d_mid_ln

    # Attention branch (mid = x + merge(attn @ v) @ w_o).
    grad_lp.w_o[...] += _rows(cache["merged"]).T @ _rows(d_mid)
    d_ctx = _split_heads(d_mid @ lp.w_o.T, n_heads)
    attn = cache["attn"]
    d_attn = d_ctx @ cache["vh"].swapaxes(-1, -2)
    d_vh = attn.swapaxes(-1, -2) @ d_ctx
    d_scores = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    d_scores /= math.sqrt(dk)
    d_qh = d_scores @ cache["kh"]
    d_kh = d_scores.swapaxes(-1, -2) @ cache["qh"]
    d_q = _merge_heads(d_qh)
    d_k = _merge_heads(d_kh)
    d_v = _merge_heads(d_vh)
    normed1 = _rows(cache["normed1"]).T
    grad_lp.w_q[...] += normed1 @ _rows(d_q)
    grad_lp.w_k[...] += normed1 @ _rows(d_k)
    grad_lp.w_v[...] += normed1 @ _rows(d_v)
    d_normed1 = d_q @ lp.w_q.T + d_k @ lp.w_k.T + d_v @ lp.w_v.T
    d_x_ln, d_g1, d_b1 = _layernorm_backward(d_normed1, cache["ln1"], lp.ln1_gain)
    grad_lp.ln1_gain[...] += d_g1
    grad_lp.ln1_bias[...] += d_b1
    return d_mid + d_x_ln


# ---------------------------------------------------------------------------
# Public forward / backward
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EncodedDocument:
    """One document's forward activations, or a padded stack's; built only
    by :func:`forward_document`. ``layer_caches`` is None unless the record
    was made for :func:`backward_document`."""

    base_features: np.ndarray
    hidden: np.ndarray
    layer_caches: list | None = field(repr=False)
    summary_probs: np.ndarray
    boundary_probs: np.ndarray


def encode_forward(features, params, lengths=None, with_caches=True):
    """Run the attention stack over projected features (n, dim).

    Adds position encodings, applies every layer, and returns ``(hidden,
    layer_caches)``, the caches holding what :func:`backward_document` needs
    (None when ``with_caches`` is False). Raises :class:`NumericsError` if
    any layer output is non-finite.

    ``params`` may hold a batch of B parameter rows (a (B, P) vector); the
    features are then (B, n, dim) or (n, dim) and ``hidden`` is
    (B, n, dim), each row bitwise equal to its own unbatched call. Features
    (G, n, dim) of one parameter row are a stack of G documents padded to n
    sentences; ``lengths`` (G,) gives each one's real sentences, and its
    padded keys take no part in attention.
    """
    features = np.asarray(features, dtype=float)
    n, d = features.shape[-2:]
    if d != params.dim:
        raise ValueError(f"feature width {d} != model dim {params.dim}")
    key_bias = None
    if lengths is not None and min(lengths) < n:
        key_bias = np.where(np.arange(n) < np.asarray(lengths)[:, None], 0.0, -np.inf)
        key_bias = key_bias[:, None, None, :]
    x = features + position_encoding(n, d)
    caches = [] if with_caches else None
    for i, lp in enumerate(params.layers):
        x, cache = _layer_forward(x, lp, params.n_heads, key_bias, with_caches)
        if not np.isfinite(x).all():
            raise NumericsError(
                f"non-finite values in layer {i} output "
                f"(max |input| = {np.abs(features).max():.3e})"
            )
        if with_caches:
            caches.append(cache)
    return x, caches


def heads_forward(hidden, params):
    """Summary and boundary probabilities of the encoded sentences
    ``hidden`` (n, dim), strictly inside (0, 1); a non-finite logit (finite
    weights can still overflow ``hidden @ w``) raises :class:`NumericsError`.
    Batched ``hidden`` (B, n, dim) and parameter rows give (B, n)."""
    with np.errstate(over="ignore", invalid="ignore"):  # checked just below
        z_sum = (hidden @ params.w_sum[..., None])[..., 0] + params.b_sum
        z_seg = (hidden @ params.w_seg[..., None])[..., 0] + params.b_seg
    if not (np.isfinite(z_sum).all() and np.isfinite(z_seg).all()):
        raise NumericsError("non-finite head logit")
    return stable_sigmoid(z_sum), stable_sigmoid(z_seg)


def forward_document(doc, params, config, raw_features=None, with_caches=True):
    """Featurize + encode + score one document; returns the activation
    record (raw features kept for the projection gradient).

    ``raw_features`` is the document's :func:`base_features` matrix when the
    caller has it already; it is computed here otherwise. With a batch of
    parameter rows every activation gains a leading batch axis; such a
    record serves values only, never :func:`backward_document`.

    ``doc`` may also be a list of G documents (``raw_features`` then a list
    of their matrices, or None): they run as one stack padded to the longest,
    every activation gains a leading axis G, and the padded rows of the
    record hold no meaning. ``with_caches=False`` keeps no activation caches,
    for a record that serves values only.
    """
    if isinstance(doc, (list, tuple)):
        raws = raw_features or [base_features(one, config) for one in doc]
        lengths = [len(raw) for raw in raws]
        raw = np.zeros((len(raws), max(lengths), raws[0].shape[1]))
        for stacked, one in zip(raw, raws):
            stacked[:len(one)] = one
    else:
        raw = base_features(doc, config) if raw_features is None else raw_features
        lengths = None
    hidden, caches = encode_forward(raw @ params.w_proj, params, lengths, with_caches)
    summary_probs, boundary_probs = heads_forward(hidden, params)
    return EncodedDocument(base_features=raw, hidden=hidden, layer_caches=caches,
                           summary_probs=summary_probs, boundary_probs=boundary_probs)


def backward_document(enc, params, d_hidden=None, d_summary=None, d_boundary=None):
    """Exact reverse-mode gradients through the heads, the attention stack
    and the feature projection.

    Parameters
    ----------
    enc : EncodedDocument
        Activation record from :func:`forward_document`, with its caches.
    d_hidden : (n, dim) array or None
        Upstream gradient on the encoded sentence matrix.
    d_summary, d_boundary : (n,) arrays or None
        Upstream gradients on the head output *probabilities*.

    For a stacked record the upstream gradients are (G, n, dim) and (G, n),
    zero on padded rows, and the result sums every document's gradients.

    Returns
    -------
    ModelParams
        A zero-initialized gradient container filled for every parameter.
    """
    grads = params.zeros_like()
    d_x = np.zeros(enc.hidden.shape) if d_hidden is None else np.array(d_hidden, dtype=float)

    for upstream, probs, weight, d_weight, d_bias in (
        (d_summary, enc.summary_probs, params.w_sum, grads.w_sum, grads.b_sum),
        (d_boundary, enc.boundary_probs, params.w_seg, grads.w_seg, grads.b_seg),
    ):
        if upstream is None:
            continue
        d_logit = np.asarray(upstream, dtype=float) * probs * (1.0 - probs)
        d_weight[...] += _rows(enc.hidden).T @ d_logit.reshape(-1)
        d_bias[...] += d_logit.sum()
        d_x += d_logit[..., None] * weight

    for lp, cache, grad_lp in zip(
        reversed(params.layers), reversed(enc.layer_caches), reversed(grads.layers)
    ):
        d_x = _layer_backward(d_x, cache, lp, params.n_heads, grad_lp)
    grads.w_proj[...] += _rows(enc.base_features).T @ _rows(d_x)
    return grads


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------

def save_checkpoint(path, params, config):
    """Write a deterministic checkpoint: one JSON header line describing the
    configuration and block layout, then raw row-major little-endian float64
    data for each block in order. Identical inputs give identical bytes."""
    header = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "feature_config": {
            "dim": config.dim,
            "hash_buckets": config.hash_buckets,
            "cue_lexicon": list(config.cue_lexicon),
            # both features are always on; the keys keep the format unchanged
            "use_position_feature": True,
            "use_centroid_similarity": True,
        },
        "n_heads": params.n_heads,
        "n_layers": params.n_layers,
        "ffn_hidden": params.ffn_hidden,
        "blocks": [{"name": name, "shape": list(shape)} for name, shape in params._shapes()],
    }
    with _atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(params.vector.astype("<f8").tobytes())


def _header_int(fields, key):
    value = fields.get(key)
    if type(value) is not int or value < 0:
        raise CheckpointError(f"checkpoint header {key!r} must be a non-negative integer, "
                              f"got {value!r}")
    return value


def load_checkpoint(path):
    """Read a checkpoint written by :func:`save_checkpoint`.

    Returns
    -------
    (params, config) : (ModelParams, FeatureConfig)
    """
    with open(path, "rb") as fh:
        head, body = fh.readline(), fh.read()
    try:
        header = json.loads(head.decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise CheckpointError(f"unreadable checkpoint header: {exc}") from exc
    if not isinstance(header, dict) or header.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"not a {CHECKPOINT_FORMAT} file")
    if _header_int(header, "version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {header['version']}")
    fc = header.get("feature_config")
    if not isinstance(fc, dict):
        raise CheckpointError("checkpoint header 'feature_config' must be an object")
    lexicon = fc.get("cue_lexicon")
    if not isinstance(lexicon, list) or not all(isinstance(p, str) for p in lexicon):
        raise CheckpointError("checkpoint header 'cue_lexicon' must be a list of strings")
    for key in ("use_position_feature", "use_centroid_similarity"):
        if fc.get(key) is not True:
            raise CheckpointError(
                f"checkpoint header {key!r} must be true, got {fc.get(key)!r}")
    try:
        config = FeatureConfig(dim=_header_int(fc, "dim"),
                               hash_buckets=_header_int(fc, "hash_buckets"),
                               cue_lexicon=tuple(lexicon))
    except ValueError as exc:
        raise CheckpointError(f"checkpoint feature config: {exc}") from exc
    n_heads = _header_int(header, "n_heads")
    n_layers = _header_int(header, "n_layers")
    if n_layers > len(body) // 8:  # every layer holds at least one weight
        raise CheckpointError(f"'n_layers' {n_layers} exceeds the body's {len(body) // 8} values")
    shapes = _block_shapes(config.n_features, config.dim, n_layers,
                           _header_int(header, "ffn_hidden"))
    blocks = header.get("blocks")
    if not isinstance(blocks, list) or len(blocks) != len(shapes):
        raise CheckpointError(f"checkpoint header must list {len(shapes)} blocks")
    for header_block, (name, shape) in zip(blocks, shapes):
        if not isinstance(header_block, dict) or header_block.get("name") != name \
                or header_block.get("shape") != list(shape):
            raise CheckpointError(
                f"checkpoint block {header_block!r} does not match "
                f"model structure (expected {name!r} {shape})"
            )
    if n_heads == 0 or config.dim % n_heads != 0:
        raise CheckpointError(f"dim {config.dim} not divisible by n_heads {n_heads}")
    size = 8 * sum(math.prod(shape) for _, shape in shapes)
    if len(body) < size:
        raise CheckpointError(f"truncated checkpoint: {len(body)} of {size} data bytes")
    if len(body) > size:
        raise CheckpointError(f"{len(body) - size} trailing bytes after the last block")
    params = _params_on(np.frombuffer(body, dtype="<f8").astype(float), shapes, n_heads)
    for name, arr in params.blocks():
        if not np.isfinite(arr).all():
            raise CheckpointError(f"non-finite value in checkpoint block {name!r}")
    return params, config
