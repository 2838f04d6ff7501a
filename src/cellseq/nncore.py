"""Minimal neural numeric core: LSTM cell and its backward step, softmax
cross-entropy, Adam with global-norm clipping, and checkpoint files.

Everything is float64 numpy with hand-written backward passes; the model
module composes these pieces into full sequence models. A model's
parameters live in one flat float64 vector, and ``Params`` maps each name to
a view of it; gradients and Adam's moments share that layout. A clip and
Adam step passes over that vector a fixed number of times and allocates
nothing but the norm's squares: Adam works in a scratch vector, folds its
bias corrections into two scalars and takes its finiteness check from the
global norm.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping

import numpy as np

from ._files import atomic_open

Params = dict[str, np.ndarray]

CHECKPOINT_VERSION = "ckpt-v1"
ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stabilized softmax over the last axis."""
    logits = np.asarray(logits)  # ufunc reductions below: ndarray.max and .sum without their Python wrappers
    e = np.exp(logits - np.maximum.reduce(logits, axis=-1, keepdims=True))
    return np.divide(e, np.add.reduce(e, axis=-1, keepdims=True), out=e)


def softmax_cross_entropy(logits: np.ndarray, labels) -> tuple[float, np.ndarray]:
    """Loss -log softmax(logits)[label], summed over the rows of an [M, V]
    matrix with one label each, and its gradient wrt the logits. Labels must
    lie in [0, V): a caller that takes them from outside checks them first
    with ``check_labels``, once for all its rows (the model does where its
    examples enter)."""
    logits = np.asarray(logits, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    if logits.ndim != 2 or labels.shape != logits.shape[:1]:
        raise ValueError(f"logits must be [M, V] with one label per row, got {logits.shape} and {labels.shape}")
    z = logits - np.maximum.reduce(logits, axis=1, keepdims=True)
    grad = np.exp(z)
    total = np.add.reduce(grad, axis=1, keepdims=True)
    rows = np.arange(labels.size)
    loss = float(np.add.reduce(np.log(total).reshape(-1) - z[rows, labels]))
    grad /= total
    grad[rows, labels] -= 1.0
    return loss, grad


def check_labels(labels, n_classes: int) -> None:
    """ValueError unless every label is an index in [0, n_classes)."""
    labels = np.asarray(labels)
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValueError(f"label out of range for {n_classes} classes")


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


def lstm_cell_backward(
    dh2: np.ndarray, dc2: np.ndarray, derivs, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Backward through one ``lstm_cell`` step from the gradients of h' and
    c' and the step's ``lstm_cell_derivatives``: the gradients of z (which
    the caller turns into those of W, U, b, x and h), written to ``out``
    [..., 4, d] if given, and of the previous c."""
    via_c, via_h, h_to_c, f = derivs
    dc_total = dc2 + dh2 * h_to_c
    dz = np.multiply(dc_total[..., None, :], via_c, out=out)
    np.multiply(dh2, via_h, out=dz[..., 2, :])
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
    parameter vector that ``layout`` (its views) names, and one scratch
    vector of that size, so that a step allocates nothing."""

    layout: Params
    m: np.ndarray
    v: np.ndarray
    step: int = 0
    scratch: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.scratch = np.empty_like(self.m)

    @classmethod
    def zeros_like(cls, params: Params) -> "AdamState":
        size = sum(p.size for p in params.values())
        return cls(params, np.zeros(size), np.zeros(size))


def adam_update(flat: np.ndarray, grad: np.ndarray, state: AdamState, lr: float, norm: float) -> None:
    """One bias-corrected Adam step on a flat parameter vector, in place,
    with b1, b2 and eps the module's ``ADAM_BETA1``, ``ADAM_BETA2`` and
    ``ADAM_EPS``.

    ``lr`` must be finite and positive. A gradient with a non-finite entry
    raises FloatingPointError naming its parameter, and nothing changes.
    Such a gradient has a non-finite global norm, so only then is it
    scanned by name; ``norm`` is that norm, as ``clip_global_norm``
    returns it. The bias corrections are folded into two scalars:
    lr * m_hat / (sqrt(v_hat) + eps) with m_hat = m / (1 - b1^t) and
    v_hat = v / (1 - b2^t) is
    lr * sqrt(1 - b2^t) / (1 - b1^t) * m / (sqrt(v) + eps * sqrt(1 - b2^t)).
    """
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    if not math.isfinite(norm):
        bad = [name for name, g in views(grad, state.layout).items() if not np.isfinite(g).all()]
        if bad:  # a finite gradient whose squares overflow passes
            raise FloatingPointError(f"diverged: non-finite gradient for {bad[0]!r}")
    state.step += 1
    t, b1, b2, m, v, buf = state.step, ADAM_BETA1, ADAM_BETA2, state.m, state.v, state.scratch
    m *= b1
    m += np.multiply(grad, 1.0 - b1, out=buf)
    v *= b2
    np.multiply(grad, 1.0 - b2, out=buf)
    v += np.multiply(buf, grad, out=buf)
    root_c2 = math.sqrt(1.0 - b2**t)
    np.sqrt(v, out=buf)
    buf += ADAM_EPS * root_c2
    np.divide(m, buf, out=buf)
    buf *= lr * root_c2 / (1.0 - b1**t)
    flat -= buf


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
    with atomic_open(path, "wb") as fh:
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
        if name in params:
            raise ValueError(f"{path}: parameter entry {i} of the header repeats the name {name!r}")
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
