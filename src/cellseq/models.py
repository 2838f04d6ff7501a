"""The two sequence generators.

``RnnModel`` is the baseline: embedding -> LSTM -> decoder softmax over the
vocabulary, initial state zero. ``ArnnModel`` conditions on the pre-trip
traffic state: per-cell features from the [N, 10] accumulation window set
the initial LSTM state and, at every step, an additive-attention context
vector is concatenated to the token embedding at the LSTM input.

Both run one recurrence step, ``_step``, in training, validation and
generation. Training is teacher-forced with Adam, each batch of sequences
right-padded to [B, T] and run as one masked unroll and one backward pass,
whose time loop carries only the recurrent gradients; a batch whose
sequences are all of one length (every batch of one) needs no mask, and
its ids enter and leave the unroll by reshapes. Token ids are range-checked,
and for the attention model the traffic windows checked to be present and
of one shape, once where examples enter (``batch_loss_and_grads``,
``mean_loss``, ``train``). Validation runs the unroll forward-only in
fixed-size chunks.
Generation samples the next token from the emitted multinomial until #end,
in one batched pass (``sample_forks``): each source sequence is
teacher-forced once, every fork's candidates start from the state after its
prefix, each drawing the uniform of a token from a counter-based hash of its
seed and the token's position (``_uniforms``, SplitMix64), and each distinct
sampled prefix is stepped once for all the candidates that share it. The
pass returns the leaves of that generation tree as arrays: each distinct
sampled sequence of a fork once, and each candidate's leaf.
``generate_batch`` is its one-prefix case.

A model's parameters are one flat float64 vector, ``model.flat``, and
``model.params`` maps each name to a view of it; the backward pass writes
into views of one work vector laid out the same way, built once per model,
and returns a copy, which training clips and feeds to Adam whole.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

import numpy as np

from . import nncore
from .corpus import WINDOW_MINUTES, SequenceRecord, TrafficLookup
from .nncore import Params, softmax
from .tokens import END, START, Token, Vocab


class TrainingDiverged(RuntimeError):
    pass


@dataclass(frozen=True)
class ModelDims:
    """Layer sizes; the traffic-feature and attention dims default to d_h."""

    d_e: int
    d_h: int
    d_f: int | None = None
    d_a: int | None = None

    def __post_init__(self):
        given = {"d_e": self.d_e, "d_h": self.d_h, "d_f": self.d_f, "d_a": self.d_a}
        if bad := [f"{name}={d}" for name, d in given.items() if d is not None and d < 1]:
            raise ValueError(f"dims must be ints >= 1, got {', '.join(bad)}")

    @property
    def feat(self) -> int:
        return self.d_f if self.d_f is not None else self.d_h

    @property
    def attn(self) -> int:
        return self.d_a if self.d_a is not None else self.d_h


class RnnModel:
    """Baseline recurrent generator over the cell vocabulary."""

    kind = "rnn"

    def __init__(self, vocab: Vocab, dims: ModelDims, params: Params):
        self.vocab = vocab
        self.dims = dims
        self.flat = np.concatenate([np.asarray(p, dtype=float).reshape(-1) for p in params.values()])
        self.params = nncore.views(self.flat, params)
        # the backward pass's work space, laid out like flat; each pass returns a copy
        self._grads_flat = np.zeros_like(self.flat)
        self._grads = nncore.views(self._grads_flat, params)

    @classmethod
    def init(cls, vocab: Vocab, dims: ModelDims, seed: int = 0) -> "RnnModel":
        rng = np.random.default_rng(seed)
        params = _base_params(rng, len(vocab), dims, input_dim=dims.d_e)
        return cls(vocab, dims, params)


class ArnnModel(RnnModel):
    """Attention-conditioned generator; LSTM input is concat(embed, context)."""

    kind = "arnn"

    @classmethod
    def init(cls, vocab: Vocab, dims: ModelDims, seed: int = 0) -> "ArnnModel":
        rng = np.random.default_rng(seed)
        d_f, d_a = dims.feat, dims.attn
        params = _base_params(rng, len(vocab), dims, input_dim=dims.d_e + d_f)
        params["traffic_W"] = nncore.uniform_init(rng, (WINDOW_MINUTES, d_f), WINDOW_MINUTES)
        params["attn_W"] = nncore.uniform_init(rng, (dims.d_h, d_a), dims.d_h)
        params["attn_U"] = nncore.uniform_init(rng, (d_f, d_a), d_f)
        params["attn_v"] = nncore.uniform_init(rng, (d_a,), d_a)
        params["init_Wh"] = nncore.uniform_init(rng, (d_f, dims.d_h), d_f)
        params["init_Wc"] = nncore.uniform_init(rng, (d_f, dims.d_h), d_f)
        return cls(vocab, dims, params)


KINDS = {cls.kind: cls for cls in (RnnModel, ArnnModel)}  # checkpoint kind -> model class


def _base_params(rng: np.random.Generator, v: int, dims: ModelDims, input_dim: int) -> Params:
    d_h = dims.d_h
    params = {
        "embed": nncore.uniform_init(rng, (v, dims.d_e), dims.d_e),
        "lstm_W": nncore.uniform_init(rng, (input_dim, 4 * d_h), input_dim),
        "lstm_U": nncore.uniform_init(rng, (d_h, 4 * d_h), d_h),
        "lstm_b": np.zeros(4 * d_h),
        "dec_W": nncore.uniform_init(rng, (d_h, v), d_h),
        "dec_b": np.zeros(v),
    }
    params["lstm_b"][d_h : 2 * d_h] = 1.0  # forget gate open at init
    return params


# ---------------------------------------------------------------------------
# the recurrence


def encode_traffic(traffic: np.ndarray, model: ArnnModel) -> np.ndarray:
    """Per-cell features tanh(traffic @ W_f): [B, N, 10] -> [B, N, d_f]."""
    return np.tanh(traffic @ model.params["traffic_W"])


def attention_init_state(features: np.ndarray, model: ArnnModel) -> tuple[np.ndarray, np.ndarray]:
    """Initial (hidden, cell) state: tanh maps of the mean-pooled features."""
    f_mean = features.sum(axis=-2) / features.shape[-2]  # features.mean, without its Python wrapper
    h0 = np.tanh(f_mean @ model.params["init_Wh"])
    c0 = np.tanh(f_mean @ model.params["init_Wc"])
    return h0, c0


def _attend(model, s_w, features, fu, out=None):
    """Additive attention over cells for projected states s_w = s @ W_a
    [B, d_a]: weights alpha = softmax(e), e_j = v . tanh(s_w + fu_j), and
    context alpha @ features; features and fu = features @ U_a are [N, ...]
    or [B, N, ...]. The [B, N, d_a] tanh matrix goes to ``out`` if given
    (a backward pass reuses it), else to a temporary."""
    pre = np.add(s_w[:, None, :], fu, out=out)  # tanh in place: one [B, N, d_a] array per step, not two
    alpha = softmax(np.tanh(pre, out=pre) @ model.params["attn_v"])
    return alpha, (alpha[:, None, :] @ features)[:, 0]


def _start(model: RnnModel, traffic: np.ndarray | None, n_rows: int):
    """Initial (h, c), n_rows of zeros for the baseline and one row per
    traffic window for the attention model, and for the latter what its steps
    reuse: features, fu = features @ U_a, [lstm_U | W_a] (one matmul of the
    state serves gates and scores) and the context rows of lstm_W."""
    p, d_h = model.params, model.dims.d_h
    if model.kind != "arnn":
        return np.zeros((n_rows, d_h)), np.zeros((n_rows, d_h)), None
    if traffic is None:
        raise ValueError("traffic tensor required for the attention model")
    features = encode_traffic(traffic, model)
    h0, c0 = attention_init_state(features, model)
    att = (features, features @ p["attn_U"], np.concatenate([p["lstm_U"], p["attn_W"]], axis=1),
           p["lstm_W"][model.dims.d_e :])
    return h0, c0, att


def _step(model, xw, h, c, att, tanh_out=None):
    """The one recurrence step, for a batch of rows, of training, validation
    and generation. ``xw`` is the token half of the gate pre-activations,
    embed @ W + b; ``att`` comes from ``_start``, and ``tanh_out`` receives
    the attention's tanh matrix. Returns h', c' and (cell cache, alpha,
    context)."""
    if att is None:
        alpha = context = None
        z = xw + h @ model.params["lstm_U"]
    else:
        features, fu, u_attn, w_ctx = att
        hz = h @ u_attn
        alpha, context = _attend(model, hz[:, xw.shape[1] :], features, fu, tanh_out)
        z = xw + hz[:, : xw.shape[1]] + context @ w_ctx
    h2, c2, cell = nncore.lstm_cell(z, c)
    return h2, c2, (cell, alpha, context)


class _Unroll:
    """Teacher-forced forward pass over right-padded ids [B, T] (and traffic
    [B, N, 10]), then ``loss`` and ``backward``; arrays are time-major. The
    embedding gather and input projection run once, outside the time loop.
    Every step's h and c are kept, c for sampling to fork from; ``keep``
    also keeps each step's gates i|f|o, candidate g, tanh(c') and attention
    tanh matrix, in [T, B, ...] arrays, for ``backward``."""

    def __init__(self, model: RnnModel, ids: np.ndarray, traffic: np.ndarray | None, keep: bool):
        if traffic is not None and (np.ndim(traffic) != 3 or np.shape(traffic)[2] != WINDOW_MINUTES):
            raise ValueError(f"traffic tensor must be [B, N, {WINDOW_MINUTES}], got {np.shape(traffic)}")
        p, d_e = model.params, model.dims.d_e
        self.model, self.ids, self.traffic = model, ids.T, traffic
        n_steps, n_rows = self.ids.shape
        self.emb = p["embed"][self.ids]
        xw = (self.emb.reshape(-1, d_e) @ p["lstm_W"][:d_e] + p["lstm_b"]).reshape(n_steps, n_rows, -1)
        self.h0, self.c0, self.att = _start(model, traffic, n_rows)
        h, c = self.h0, self.c0
        self.hs = np.empty((n_steps, n_rows, model.dims.d_h))
        self.cs = np.empty_like(self.hs)
        if keep:
            self.ifo, self.g, self.tanh_c = (np.empty((n_steps, n_rows, k * model.dims.d_h)) for k in (3, 1, 1))
        tanhs = [None] * n_steps
        if self.att is not None:
            self.alphas = np.empty((n_steps, n_rows, self.att[0].shape[1]))
            self.contexts = np.empty((n_steps, n_rows, self.att[0].shape[2]))
            if keep:
                self.tanhs = tanhs = np.empty((n_steps,) + self.att[1].shape)
        for t in range(n_steps):
            h, c, ((ifo, g, _, tanh_c), alpha, context) = _step(model, xw[t], h, c, self.att, tanhs[t])
            self.hs[t], self.cs[t] = h, c
            if self.att is not None:
                self.alphas[t], self.contexts[t] = alpha, context
            if keep:
                self.ifo[t], self.g[t], self.tanh_c[t] = ifo, g, tanh_c

    def loss(self, y_ids: np.ndarray, mask: np.ndarray | None) -> tuple[float, np.ndarray]:
        """Summed softmax-CE over the real steps (``mask`` [B, T]; None when
        every step is real), all in one matmul, and its gradient wrt their
        logits. The ids were range-checked where the examples entered."""
        p, d_h = self.model.params, self.model.dims.d_h
        self.real = None if mask is None else mask.T.reshape(-1)
        self.hs_real, labels = self.hs.reshape(-1, d_h), y_ids.T.reshape(-1)
        if self.real is not None:
            self.hs_real, labels = self.hs_real[self.real], labels[self.real]
        return nncore.softmax_cross_entropy(self.hs_real @ p["dec_W"] + p["dec_b"], labels)

    def backward(self, dlogits: np.ndarray) -> np.ndarray:
        """The gradient, flat like ``model.flat``, from those of the real
        steps' logits.

        The time loop carries only what recurs: dh and dc, and for the
        attention model the step back from the scores to dh, (de @ (1 -
        tanh^2)) @ (v . W_a^T), with the tanh matrix the forward pass kept
        and v . W_a^T formed once; its one [B, N, d_a] work array is all the
        loop adds to the kept matrices. Every weight gradient, and the
        context and attention-input gradients, is one matmul or sum over all
        steps after it, padded steps adding exact zeros. The pass consumes
        the forward's per-step caches and turns the tanh matrices into
        1 - tanh^2 in place, so a run takes one backward pass.
        Each parameter's part is written into its view of the model's work
        space, which is returned as a copy."""
        p, real, grads = self.model.params, self.real, self.model._grads
        d_e, d_h = self.model.dims.d_e, self.model.dims.d_h
        n_steps, n_rows = self.ids.shape
        np.matmul(self.hs_real.T, dlogits, out=grads["dec_W"])
        dlogits.sum(axis=0, out=grads["dec_b"])
        if real is None:
            d_hs = (dlogits @ p["dec_W"].T).reshape(self.hs.shape)
        else:
            d_hs = np.zeros(self.hs.shape)
            d_hs.reshape(-1, d_h)[real] = dlogits @ p["dec_W"].T
        dz_all = np.empty((n_steps, n_rows, 4, d_h))
        dh = dc = np.zeros((n_rows, d_h))
        cs_prev = np.concatenate([self.c0[None], self.cs[:-1]])
        derivs = list(zip(*nncore.lstm_cell_derivatives((self.ifo, self.g, cs_prev, self.tanh_c))))
        del cs_prev, self.ifo, self.g, self.tanh_c  # the derivatives replace them
        if self.att is None:
            back_w = p["lstm_U"].T
        else:  # one matmul of dz gives the gradients of h and of the context
            features, _, _, w_ctx = self.att
            back_w = np.concatenate([p["lstm_U"], w_ctx]).T
            v_wa = p["attn_v"][:, None] * p["attn_W"].T
            de_all, d_s_all = np.empty(self.alphas.shape), np.empty((n_steps, n_rows, v_wa.shape[0]))
            sech2 = np.empty(self.tanhs.shape[1:])  # one step's 1 - tanh^2
        for t in reversed(range(n_steps)):
            dz, dc = nncore.lstm_cell_backward(d_hs[t] + dh, dc, derivs[t], out=dz_all[t])
            dh = dz @ back_w
            if self.att is not None:
                # context = alpha @ features, alpha = softmax(e), e = v . tanh(h @ W_a + fu)
                alpha = self.alphas[t]
                d_alpha = (features @ dh[:, d_h:, None])[:, :, 0]
                de_all[t] = de = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1, keepdims=True))
                tanh = self.tanhs[t]
                np.subtract(1.0, np.multiply(tanh, tanh, out=sech2), out=sech2)
                d_s_all[t] = d_s = (de[:, None, :] @ sech2)[:, 0]  # d score / d(h @ W_a), per unit of v
                dh = dh[:, :d_h] + d_s @ v_wa
        del derivs  # before the sums after the loop, which set the peak memory of a large batch

        dz_flat = dz_all.reshape(-1, 4 * d_h)
        hs_prev = np.concatenate([self.h0[None], self.hs[:-1]]).reshape(-1, d_h)
        np.matmul(hs_prev.T, dz_flat, out=grads["lstm_U"])
        dz_flat.sum(axis=0, out=grads["lstm_b"])
        np.matmul(self.emb.reshape(-1, d_e).T, dz_flat, out=grads["lstm_W"][:d_e])
        grads["embed"].fill(0.0)
        np.add.at(grads["embed"], self.ids.reshape(-1), dz_flat @ p["lstm_W"][:d_e].T)
        if self.att is None:
            return self.model._grads_flat.copy()
        d_f, v = features.shape[2], p["attn_v"]
        np.matmul(self.contexts.reshape(-1, d_f).T, dz_flat, out=grads["lstm_W"][d_e:])
        np.matmul(de_all.reshape(1, -1), self.tanhs.reshape(-1, v.size), out=grads["attn_v"][None])
        sech2 = np.subtract(1.0, np.multiply(self.tanhs, self.tanhs, out=self.tanhs), out=self.tanhs)
        # d e / d(h @ W_a + fu) = de * v * (1 - tanh^2), summed over cells for h and over steps for fu
        d_s_all *= v
        d_fu = (de_all.transpose(1, 2, 0)[:, :, None, :] @ sech2.transpose(1, 2, 0, 3))[:, :, 0, :] * v
        np.matmul(hs_prev.T, d_s_all.reshape(-1, v.size), out=grads["attn_W"])
        np.matmul(features.reshape(-1, d_f).T, d_fu.reshape(-1, v.size), out=grads["attn_U"])
        d_ctx_all = (dz_flat @ w_ctx.T).reshape(n_steps, n_rows, d_f)
        d_features = self.alphas.transpose(1, 2, 0) @ d_ctx_all.transpose(1, 0, 2) + d_fu @ p["attn_U"].T
        # initial state: h0, c0 = tanh(mean(features) @ init_W)
        f_mean = features.sum(axis=1) / features.shape[1]
        d_pre_h, d_pre_c = dh * (1.0 - self.h0 * self.h0), dc * (1.0 - self.c0 * self.c0)
        np.matmul(f_mean.T, d_pre_h, out=grads["init_Wh"])
        np.matmul(f_mean.T, d_pre_c, out=grads["init_Wc"])
        d_features += (d_pre_h @ p["init_Wh"].T + d_pre_c @ p["init_Wc"].T)[:, None, :] / features.shape[1]
        d_pre_f = d_features * (1.0 - features * features)
        np.matmul(self.traffic.reshape(-1, WINDOW_MINUTES).T, d_pre_f.reshape(-1, d_f), out=grads["traffic_W"])
        return self.model._grads_flat.copy()


# ---------------------------------------------------------------------------
# loss and training


@dataclass(frozen=True)
class TrainingExample:
    """One teacher-forced sequence: input and target ids and, for the
    attention model, its [N, 10] traffic window. A window from a
    ``TrafficLookup`` is a read-only view shared with every other window of
    that lookup, not a copy; ``_batch`` stacks windows into a new array."""

    x_ids: np.ndarray
    y_ids: np.ndarray
    traffic: np.ndarray | None = None


def _batch(model: RnnModel, examples: Sequence[TrainingExample]):
    """Examples as one batch (x_ids, y_ids, mask, traffic): the ids [B, T]
    right-padded to the longest, ``mask`` marking the real steps, or None
    when every step is real (as in a batch of one), and for the attention
    model the traffic windows stacked [B, N, 10]."""
    lengths = [len(ex.x_ids) for ex in examples]
    if min(lengths) == max(lengths):
        mask = None
        x_ids = np.array([ex.x_ids for ex in examples], dtype=np.intp)
        y_ids = np.array([ex.y_ids for ex in examples], dtype=np.intp)
    else:
        mask = np.arange(max(lengths)) < np.array(lengths)[:, None]
        x_ids, y_ids = np.zeros((2,) + mask.shape, dtype=np.intp)
        x_ids[mask] = np.concatenate([ex.x_ids for ex in examples])
        y_ids[mask] = np.concatenate([ex.y_ids for ex in examples])
    traffic = np.array([ex.traffic for ex in examples], dtype=float) if model.kind == "arnn" else None
    return x_ids, y_ids, mask, traffic


def _check_examples(model: RnnModel, examples: Sequence[TrainingExample]) -> None:
    """ValueError unless there are examples, every input and target id of
    them indexes the vocabulary and, for the attention model, every example
    has a traffic window and all windows share one shape: the one check,
    made where examples enter."""
    if not examples:
        raise ValueError("no examples")
    nncore.check_labels(np.concatenate([ex.x_ids for ex in examples] + [ex.y_ids for ex in examples]),
                        len(model.vocab))
    if model.kind == "arnn":
        if any(ex.traffic is None for ex in examples):
            raise ValueError("traffic tensor required for the attention model")
        shapes = {np.shape(ex.traffic) for ex in examples}
        if len(shapes) > 1:
            raise ValueError(f"traffic windows of one call must share one shape, got {sorted(shapes)}")


def _summed_loss_and_grads(model: RnnModel, examples: Sequence[TrainingExample]) -> tuple[float, np.ndarray]:
    """``batch_loss_and_grads`` without the entry check, for callers that made it once."""
    x_ids, y_ids, mask, traffic = _batch(model, examples)
    run = _Unroll(model, x_ids, traffic, keep=True)
    loss, dlogits = run.loss(y_ids, mask)
    return loss, run.backward(dlogits)


def batch_loss_and_grads(model: RnnModel, examples: Sequence[TrainingExample]) -> tuple[float, np.ndarray]:
    """Summed cross-entropy over a batch of sequences and its summed gradient,
    flat like ``model.flat``, from one padded unroll and one backward pass.
    An id outside the vocabulary, or for the attention model a missing
    window or windows of two shapes, raises ValueError."""
    _check_examples(model, examples)
    return _summed_loss_and_grads(model, examples)


def make_example(vocab: Vocab, tokens: Sequence[Token], traffic: np.ndarray | None = None) -> TrainingExample:
    """Teacher-forcing example from a full #start..#end token sequence."""
    ids = np.asarray(vocab.encode(list(tokens)), dtype=np.intp)
    if len(ids) < 3:
        raise ValueError("empty journey")
    return TrainingExample(x_ids=ids[:-1], y_ids=ids[1:], traffic=traffic)


def make_examples(
    records: Sequence[SequenceRecord], vocab: Vocab, lookup: TrafficLookup | None = None
) -> list[TrainingExample]:
    """Examples for the records whose cells are all in ``vocab``, each with
    its pre-trip traffic window when a lookup is given; the rest are skipped."""
    return [
        make_example(vocab, rec.tokens, lookup.window(rec.start_time) if lookup is not None else None)
        for rec in records
        if all(t in vocab for t in rec.tokens)
    ]


@dataclass
class TrainResult:
    epoch_losses: list[float] = field(default_factory=list)  # mean per-step loss
    epoch_grad_norms: list[float] = field(default_factory=list)  # mean pre-clip global norm per batch
    epoch_clip_events: list[int] = field(default_factory=list)  # batches whose gradient was clipped
    epoch_seconds: list[float] = field(default_factory=list)  # wall time; kept out of checkpoint meta

    @property
    def clip_events(self) -> int:
        return sum(self.epoch_clip_events)


def train(
    model: RnnModel,
    examples: Sequence[TrainingExample],
    lr: float,
    epochs: int,
    seed: int = 0,
    clip_norm: float | None = 5.0,
    batch_size: int = 1,
) -> TrainResult:
    """Teacher-forced training: one Adam update per batch of sequences.

    Each batch runs as one unroll over its sequences, right-padded to the
    longest, with loss and gradients summed over the real steps; a batch
    size of 1 (the default) is plain per-sequence SGD. Each batch's
    gradient is clipped to the global norm ``clip_norm``, which must be
    positive; ``clip_norm=None`` disables clipping. ``lr`` must be finite
    and positive. The order of sequences is reshuffled every epoch from the
    given seed.
    """
    if batch_size < 1:
        raise ValueError(f"batch size must be >= 1, got {batch_size}")
    if epochs < 1:
        raise ValueError(f"epochs must be >= 1, got {epochs}")
    if clip_norm is not None and not clip_norm > 0:
        raise ValueError(f"clip norm must be > 0, got {clip_norm}")
    if not (np.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    _check_examples(model, examples)
    state = nncore.AdamState.zeros_like(model.params)
    rng = np.random.default_rng(seed)
    result = TrainResult()
    for epoch in range(epochs):
        started = time.perf_counter()
        order = rng.permutation(len(examples))
        total, steps, norms = 0.0, 0, []
        for start in range(0, len(order), batch_size):
            batch = [examples[idx] for idx in order[start : start + batch_size]]
            loss, grad = _summed_loss_and_grads(model, batch)
            if not math.isfinite(loss):
                raise TrainingDiverged(f"diverged at epoch {epoch} in the batch from step {start}")
            total += loss
            steps += sum(len(ex.x_ids) for ex in batch)
            norms.append(nncore.clip_global_norm(grad, clip_norm))
            nncore.adam_update(model.flat, grad, state, lr, norms[-1])
        result.epoch_losses.append(total / steps)
        result.epoch_grad_norms.append(float(np.mean(norms)))
        result.epoch_clip_events.append(0 if clip_norm is None else sum(norm > clip_norm for norm in norms))
        result.epoch_seconds.append(time.perf_counter() - started)
    return result


MEAN_LOSS_CHUNK = 32  # sequences per forward-only unroll, in mean_loss and in evaluation's sampling


def mean_loss(model: RnnModel, examples: Sequence[TrainingExample]) -> float:
    """Mean per-step cross-entropy over a set of sequences (no updates), run
    forward-only in padded chunks of ``MEAN_LOSS_CHUNK`` sequences."""
    total = steps = 0
    _check_examples(model, examples)
    for lo in range(0, len(examples), MEAN_LOSS_CHUNK):
        x_ids, y_ids, mask, traffic = _batch(model, examples[lo : lo + MEAN_LOSS_CHUNK])
        total += _Unroll(model, x_ids, traffic, keep=False).loss(y_ids, mask)[0]
        steps += y_ids.size if mask is None else int(mask.sum())
    return total / steps


# ---------------------------------------------------------------------------
# generation


ROW_CAP = 64  # states per generation step; bounds the arnn's [states, N, d] attention temporaries


@dataclass
class GenerationResult:
    """A sampled sequence, prefix included, and whether it ended at #end."""

    tokens: list[Token]
    terminated: bool


@dataclass(frozen=True)
class Fork:
    """``len(seeds)`` continuations of the first ``n`` tokens of source
    sequence ``trip``, each ending at #end or at ``max_len`` tokens, prefix
    included."""

    trip: int
    n: int
    seeds: Sequence[int]
    max_len: int


def default_max_len(reference_len: int) -> int:
    """Generation cap: four times the reference length, at most 100 tokens."""
    return min(100, 4 * reference_len)


def _sample(probs: np.ndarray, u: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per uniform u[i] from row ``rows[i]`` of probs [S, V]:
    the first index whose cumulative mass exceeds u times the row total
    (``searchsorted(side="right")`` on the row's cumsum), clamped to V - 1.
    numpy orders complex numbers by real, then imaginary part, so one exact
    search over keys row + 1j * cumsum serves all rows."""
    cum = np.cumsum(probs, axis=1)
    keys = (np.arange(len(cum))[:, None] + 1j * cum).reshape(-1)
    idx = np.searchsorted(keys, rows + 1j * (u * cum[rows, -1]), side="right") - rows * cum.shape[1]
    return np.minimum(idx, probs.shape[1] - 1)


_GOLDEN = 0x9E3779B97F4A7C15  # SplitMix64's increment, 2**64 over the golden ratio


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer (Steele, Lea & Flood, OOPSLA 2014) on a uint64
    array, mod 2**64."""
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _uniforms(keys: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """The uniform in [0, 1) that the stream of each uint64 key gives the
    token at each uint64 position: the top 53 bits of SplitMix64 on the
    counter key + position * _GOLDEN. It depends on nothing else, so a
    row's draws do not depend on the rows drawn with it."""
    return (_mix64(keys + positions * _GOLDEN) >> 11) * 2.0**-53


def sample_forks(
    model: RnnModel,
    trips: Sequence[Sequence[Token]],
    traffic: Sequence[np.ndarray] | None,
    forks: Sequence[Fork],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sample every fork's continuations in one batched pass, and return the
    leaves of their generation tree.

    Every sequence in ``trips`` (with its window ``traffic[i]`` for the
    attention model) is teacher-forced once, up to its longest fork prefix,
    in one unroll that keeps (h, c) after every position, so callers bound
    how many they pass. A fork's rows start from the state after its prefix,
    and row i draws its token at sequence position j with the uniform
    ``_uniforms`` gives the key ``seeds[i]`` (an int in [0, 2**64); a uint64
    array is taken as it is) and j, so no stream state is carried. A row's
    state depends only on its fork and the ids it sampled, so the rows
    advance one token per level, and one stable sort of a level's rows by
    (state, token) makes its nodes. A node whose token is #end, or whose rows
    reach their limit, is a leaf; the rest are the next level's states, each
    stepped once, ``ROW_CAP`` states at a time.

    Returns (ids, fork, leaf): each leaf's sampled ids, padded with -1, [leaves,
    longest]; each leaf's fork; and each row's leaf, rows in fork then seed
    order. No two leaves of one fork are equal.
    """
    need = [0] * len(trips)  # longest prefix forked from each sequence
    for i, fork in enumerate(forks):
        if not (0 <= fork.trip < len(trips) and 1 <= fork.n <= len(trips[fork.trip])):
            raise ValueError(f"fork {i}: trip={fork.trip}, n={fork.n} names no prefix of the {len(trips)} sequences")
        if trips[fork.trip][0] != START:
            raise ValueError("prefix must start with #start")
        if fork.max_len <= fork.n:
            raise ValueError("max_len must exceed the prefix length")
        need[fork.trip] = max(need[fork.trip], fork.n)
    if any(END in trip[:n] for trip, n in zip(trips, need)):
        raise ValueError("prefix must not contain #end")
    if not sum(len(f.seeds) for f in forks):  # no rows
        return np.zeros((0, 0), dtype=np.intp), np.zeros(0, dtype=np.intp), np.zeros(0, dtype=np.intp)
    try:  # TypeError for a seed not an int
        keys = np.concatenate([f.seeds if getattr(f.seeds, "dtype", None) == np.uint64
                               else np.fromiter(map(operator.index, f.seeds), np.uint64, len(f.seeds)) for f in forks])
    except OverflowError:
        raise ValueError("seeds must lie in [0, 2**64)") from None
    attend = model.kind == "arnn"
    x = np.zeros((len(trips), max(need)), dtype=np.intp)
    for b, (seq, k) in enumerate(zip(trips, need)):
        x[b, :k] = model.vocab.encode(list(seq[:k]))
    windows = np.stack([np.asarray(w, dtype=float) for w in traffic]) if attend and traffic is not None else None
    run = _Unroll(model, x, windows, keep=False)  # raises for the attention model without windows
    p, v, cap = model.params, len(model.vocab), ROW_CAP
    seq_of, n, max_len = np.array([(f.trip, f.n, f.max_len) for f in forks], dtype=np.intp).T
    h, c, fork = run.hs[n - 1, seq_of], run.cs[n - 1, seq_of], np.arange(len(forks))  # level 0: a state per fork
    state = np.repeat(fork, [len(f.seeds) for f in forks])  # per row, ascending
    row, left, leaf = np.arange(state.size), (max_len - n)[state], np.empty(state.size, dtype=np.intp)
    start = n[state].astype(np.uint64)  # per row, the position of its first sampled token
    paths = np.zeros((len(forks), 0), dtype=np.intp)  # the ids sampled to reach each state, a column per level
    levels = []  # per level, its leaves' ids and forks
    # features and fu, and the arrays that take a chunk's rows of them, allocated once
    work = [(a, np.empty((cap,) + a.shape[1:])) for a in run.att[:2]] if attend else []
    while row.size:
        u = _uniforms(keys[row], start[row] + paths.shape[1])
        tids, left = np.empty(row.size, dtype=np.intp), left - 1
        bounds = np.searchsorted(state, [*range(0, len(h), cap), len(h)])
        for s0, lo, hi in zip(range(0, len(h), cap), bounds[:-1], bounds[1:]):
            probs = softmax(h[s0 : s0 + cap] @ p["dec_W"] + p["dec_b"])
            tids[lo:hi] = _sample(probs, u[lo:hi], state[lo:hi] - s0)
        key = state * v + tids  # a row's node: (state, token)
        order = np.argsort(key, kind="stable")
        key, row, left = key[order], row[order], left[order]
        first = np.diff(key, prepend=-1) != 0  # the first row of each node
        node = np.cumsum(first) - 1  # per row
        parent, tok = np.divmod(key[first], v)
        ends = (tok == model.vocab.end_id) | (left[first] == 0)  # per node: a leaf
        at = ends[node]  # per row: its node is a leaf
        leaf[row[at]] = sum(len(f) for _, f in levels) + (np.cumsum(ends) - 1)[node[at]]
        levels.append((np.column_stack([paths[parent[ends]], tok[ends]]), fork[parent[ends]]))
        state, row, left = (np.cumsum(~ends) - 1)[node[~at]], row[~at], left[~at]
        parent, tok = parent[~ends], tok[~ends]
        paths = np.column_stack([paths[parent], tok])
        del u, tids, key, order, first, node, ends, at  # freed before the steps allocate theirs
        h, c, fork = h[parent], c[parent], fork[parent]  # stepped in place below
        for chunk in (slice(s0, s0 + cap) for s0 in range(0, parent.size, cap)):
            gathered = [np.take(a, seq_of[fork[chunk]], axis=0, out=w[: len(tok[chunk])]) for a, w in work]
            att = (*gathered, *run.att[2:]) if attend else None
            xw = p["embed"][tok[chunk]] @ p["lstm_W"][: model.dims.d_e] + p["lstm_b"]
            h[chunk], c[chunk], _ = _step(model, xw, h[chunk], c[chunk], att)
    width = len(levels)  # the last level's leaves are the longest
    ids = np.concatenate([np.hstack([a, np.full((len(a), width - a.shape[1]), -1)]) for a, _ in levels])
    return ids, np.concatenate([f for _, f in levels]), leaf


def generate_batch(
    model: RnnModel,
    prefix: Sequence[Token],
    seeds: Sequence[int],
    max_len: int,
    traffic: np.ndarray | None = None,
) -> list[GenerationResult]:
    """Continuations of one prefix, one per seed, an int in [0, 2**64) that
    keys the candidate's uniforms: the one-fork case of ``sample_forks``, so
    continuations that sample the same ids share their steps."""
    prefix = list(prefix)
    fork = Fork(0, len(prefix), seeds, max_len)
    ids, _, leaf = sample_forks(model, [prefix], None if traffic is None else [traffic], [fork])
    tokens = [model.vocab.decode(row[row >= 0].tolist()) for row in ids]  # per leaf
    return [GenerationResult(prefix + tokens[i], tokens[i][-1] == END) for i in leaf.tolist()]


# ---------------------------------------------------------------------------
# checkpoints


def save_model(path: str | Path, model: RnnModel, extra_meta: dict | None = None) -> None:
    meta = {
        "kind": model.kind,
        "dims": {"d_e": model.dims.d_e, "d_h": model.dims.d_h, "d_f": model.dims.d_f, "d_a": model.dims.d_a},
        "cells": list(model.vocab.cells),
    }
    if extra_meta:
        meta.update(extra_meta)
    nncore.save_checkpoint(path, model.params, meta)


def load_model(path: str | Path) -> tuple[RnnModel, dict]:
    """The model of a ``save_model`` checkpoint, and its meta. An unknown
    kind, missing or malformed ``dims`` or ``cells``, or parameters whose
    names or shapes differ from those the kind's ``init`` makes for these
    dims and cells raise ValueError naming the path."""
    params, meta = nncore.load_checkpoint(path)
    kind = meta.get("kind")
    cls = KINDS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ValueError(f"{path}: unknown model kind {kind!r}, expected one of {sorted(KINDS)}")
    try:
        dims, cells = ModelDims(**meta["dims"]), meta["cells"]
        if not all(type(d) is int for d in (dims.d_e, dims.d_h, dims.feat, dims.attn)):
            raise ValueError(f"dims must be ints >= 1, got {meta['dims']}")
        if not (isinstance(cells, list) and all(type(c) is int for c in cells)):
            raise ValueError("cells must be a list of ints")
        vocab = Vocab(cells)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"{path}: malformed model meta: {type(exc).__name__}: {exc}") from None
    expected = {name: p.shape for name, p in cls.init(vocab, dims).params.items()}
    for name in sorted(expected.keys() | params.keys()):
        got, need = params[name].shape if name in params else None, expected.get(name)
        if got != need:
            raise ValueError(f"{path}: parameter {name!r} has shape {got}; an {kind} model of its dims and "
                             f"cells has {need}")
    return cls(vocab, dims, params), meta
