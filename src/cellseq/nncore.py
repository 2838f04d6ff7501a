"""Minimal neural numeric core: LSTM cell and its backward step, softmax
cross-entropy, Adam with global-norm clipping, and checkpoint files.

Everything is float64 numpy with hand-written backward passes; the model
module composes these pieces into full sequence models. A model's
parameters live in one flat float64 vector, and ``Params`` maps each name to
a view of it; gradients and Adam's moments share that layout.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

Params = dict[str, np.ndarray]

CHECKPOINT_VERSION = "ckpt-v1"


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over the last axis."""
    logits = np.asarray(logits)
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Loss -log softmax(logits)[label], summed over the rows of an [M, V]
    matrix with one label each (or a vector and one label), and its
    gradient wrt the logits."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim not in (1, 2) or labels.shape != logits.shape[:-1]:
        raise ValueError("logits must be a vector with one label or a matrix with one label per row")
    labels, n_classes = labels.reshape(-1), logits.shape[-1]
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError(f"label out of range for {n_classes} classes")
    z = logits - logits.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.exp(z).sum(axis=-1, keepdims=True))
    rows = np.arange(labels.size)
    loss = float((logsumexp.reshape(-1) - z.reshape(-1, n_classes)[rows, labels]).sum())
    grad = np.exp(z - logsumexp)
    grad.reshape(-1, n_classes)[rows, labels] -= 1.0
    return loss, grad


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function as 0.5 * (1 + tanh(x / 2)): no overflow for any x
    and no branches; exact to rounding in absolute terms."""
    return 0.5 * (1.0 + np.tanh(0.5 * x))


def lstm_cell(z: np.ndarray, c: np.ndarray):
    """The LSTM cell from its gate pre-activations z = x @ W + h @ U + b:
    (h', c', cache), the cache holding gates i|f|o, candidate g, c, tanh(c')."""
    d = c.shape[-1]
    ifo = sigmoid(z[..., : 3 * d])
    g = np.tanh(z[..., 3 * d :])
    c2 = ifo[..., d : 2 * d] * c + ifo[..., :d] * g
    tanh_c2 = np.tanh(c2)
    h2 = ifo[..., 2 * d :] * tanh_c2
    return h2, c2, (ifo, g, c, tanh_c2)


def lstm_cell_derivatives(cache):
    """The local derivatives of ``lstm_cell``, for caches stacked over any
    leading axes, so that a backward pass computes them for all steps at
    once: dz per unit of the total cell-state gradient [..., 4, d] (zero
    for the o gate), dz_o per unit of dh', dc per unit of dh', and f."""
    ifo, g, c, tanh_c2 = cache
    d = c.shape[-1]
    slope = np.concatenate([ifo * (1.0 - ifo), 1.0 - g * g], axis=-1)
    via_c = np.concatenate([g, c, np.zeros(c.shape), ifo[..., :d]], axis=-1) * slope
    via_h = tanh_c2 * slope[..., 2 * d : 3 * d]
    h_to_c = ifo[..., 2 * d :] * (1.0 - tanh_c2 * tanh_c2)
    return via_c.reshape(via_c.shape[:-1] + (4, d)), via_h, h_to_c, ifo[..., d : 2 * d]


def lstm_cell_backward(dh2: np.ndarray, dc2: np.ndarray, derivs) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one ``lstm_cell`` step from the gradients of h' and
    c' and the step's ``lstm_cell_derivatives``: the gradients of z (which
    the caller turns into those of W, U, b, x and h) and of the previous c."""
    via_c, via_h, h_to_c, f = derivs
    dc_total = dc2 + dh2 * h_to_c
    dz = dc_total[..., None, :] * via_c
    dz[..., 2, :] = dh2 * via_h
    return dz.reshape(dz.shape[:-2] + (-1,)), dc_total * f


def views(flat: np.ndarray, layout: Mapping[str, np.ndarray]) -> Params:
    """Views of ``flat`` with the names and shapes of ``layout``'s arrays, in order."""
    out, start = {}, 0
    for name, p in layout.items():
        out[name] = flat[start : start + p.size].reshape(p.shape)
        start += p.size
    return out


@dataclass
class AdamState:
    """First/second moment estimates and the step counter, flat like the
    parameter vector that ``layout`` (its views) names."""

    layout: Params
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    @classmethod
    def zeros_like(cls, params: Params) -> "AdamState":
        size = sum(p.size for p in params.values())
        return cls(params, np.zeros(size), np.zeros(size))


def adam_update(flat: np.ndarray, grad: np.ndarray, state: AdamState, lr: float) -> None:
    """One bias-corrected Adam step on a flat parameter vector, in place."""
    if lr <= 0:
        raise ValueError("learning rate must be positive")
    if not np.isfinite(grad).all():
        name = next(name for name, g in views(grad, state.layout).items() if not np.isfinite(g).all())
        raise FloatingPointError(f"diverged: non-finite gradient for {name!r}")
    state.step += 1
    t, b1, b2, m, v = state.step, state.beta1, state.beta2, state.m, state.v
    m *= b1
    m += (1.0 - b1) * grad
    v *= b2
    v += (1.0 - b2) * grad * grad
    flat -= lr * (m / (1.0 - b1**t)) / (np.sqrt(v / (1.0 - b2**t)) + state.eps)


def clip_global_norm(grad: np.ndarray, max_norm: float | None) -> float:
    """The global norm of a flat gradient; above ``max_norm`` (None: never),
    the gradient is scaled down to it in place. Summed by numpy, not by
    BLAS ``ddot``, which splits long vectors across threads."""
    norm = math.sqrt((grad * grad).sum())
    if max_norm is not None and norm > max_norm:
        grad *= max_norm / norm
    return norm


def uniform_init(rng: np.random.Generator, shape: tuple[int, ...], fan_in: int) -> np.ndarray:
    s = 1.0 / np.sqrt(max(fan_in, 1))
    return rng.uniform(-s, s, size=shape)


def save_checkpoint(path: str | Path, params: Params, meta: Mapping) -> None:
    """Versioned container: a JSON header naming each array and its shape,
    followed by the raw little-endian float64 values in header order.

    Byte-identical for identical contents (no timestamps), so re-running a
    training stage with the same inputs reproduces the file exactly.
    """
    meta = dict(meta)
    meta["format"] = CHECKPOINT_VERSION
    meta["params"] = [
        {"name": name, "shape": list(np.asarray(p).shape)} for name, p in sorted(params.items())
    ]
    header = json.dumps(meta, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(b"%s\n" % CHECKPOINT_VERSION.encode("ascii"))
        fh.write(len(header).to_bytes(8, "big"))
        fh.write(header)
        for entry in meta["params"]:
            arr = np.ascontiguousarray(params[entry["name"]], dtype="<f8")
            fh.write(arr.tobytes())


def load_checkpoint(path: str | Path) -> tuple[Params, dict]:
    """Read a ``save_checkpoint`` file.

    A foreign, truncated or over-long file, or a header that is not the JSON
    object ``save_checkpoint`` writes, raises ValueError naming the path and
    the byte offset or parameter where it goes wrong.
    """
    data = Path(path).read_bytes()
    magic, _, _ = data.partition(b"\n")
    if magic.strip() != CHECKPOINT_VERSION.encode("ascii"):
        raise ValueError(f"{path}: unsupported checkpoint format: {magic.strip().decode('ascii', 'replace')!r}")
    at = len(magic) + 1
    if len(data) < at + 8:
        raise ValueError(f"{path}: file ends at byte {len(data)} inside the header length at byte offset {at}")
    header_len = int.from_bytes(data[at : at + 8], "big")
    at += 8
    if at + header_len > len(data):
        raise ValueError(f"{path}: header of {header_len} bytes at byte offset {at} runs past the end of "
                         f"the file ({len(data)} bytes)")
    try:
        meta = json.loads(data[at : at + header_len].decode("utf-8"))
    except ValueError as exc:  # JSONDecodeError and UnicodeDecodeError
        raise ValueError(f"{path}: header at byte offset {at} is not valid JSON: {exc}") from None
    entries = meta.get("params") if isinstance(meta, dict) else None
    if not isinstance(entries, list):
        raise ValueError(f"{path}: header at byte offset {at} has no params list")
    at += header_len
    params: Params = {}
    for i, entry in enumerate(entries):
        name, shape = (entry.get("name"), entry.get("shape")) if isinstance(entry, dict) else (None, None)
        if not (isinstance(name, str) and isinstance(shape, list)
                and all(isinstance(d, int) and d >= 0 for d in shape)):
            raise ValueError(f"{path}: parameter entry {i} of the header is not {{name, shape}}: {entry!r}")
        count = math.prod(shape)
        if at + 8 * count > len(data):
            raise ValueError(f"{path}: file ends at byte {len(data)} inside parameter {name!r}, "
                             f"which takes bytes {at} to {at + 8 * count}")
        params[name] = np.frombuffer(data, dtype="<f8", count=count, offset=at).reshape(shape).copy()
        at += 8 * count
    if at != len(data):
        raise ValueError(f"{path}: {len(data) - at} unexpected byte(s) after the last parameter, "
                         f"at byte offset {at}")
    return params, meta
