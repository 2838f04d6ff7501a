import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cellseq import nncore
from cellseq.nncore import (
    AdamState,
    adam_update,
    check_labels,
    clip_global_norm,
    load_checkpoint,
    lstm_cell,
    lstm_cell_backward,
    lstm_cell_derivatives,
    save_checkpoint,
    softmax,
    softmax_cross_entropy,
)

from oracles import grad_check, lstm_oracle


# ---------------------------------------------------------------------------
# LSTM


def test_lstm_all_zero_weights_zero_state():
    # x @ W + h @ U + b is zero for all-zero weights
    h, c, _ = lstm_cell(np.zeros(12), np.zeros(3))
    np.testing.assert_allclose(h, 0.0)
    np.testing.assert_allclose(c, 0.0)


def test_lstm_zero_weights_unit_cell_state():
    # gates all 0.5; c' = 0.5 * 1 = 0.5; h' = 0.5 * tanh(0.5)
    h, c, _ = lstm_cell(np.zeros(4), np.ones(1))
    np.testing.assert_allclose(c, 0.5)
    np.testing.assert_allclose(h, 0.5 * np.tanh(0.5))
    assert h[0] == pytest.approx(0.2311, abs=1e-4)


@settings(deadline=None, max_examples=50)
@given(d=st.integers(min_value=1, max_value=8), seed=st.integers(min_value=0, max_value=9999))
def test_lstm_shapes_and_hidden_bound(d, seed):
    # a batch of rows through the cell, each row against the oracle's gates
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(2, 3))
    h = rng.normal(size=(2, d))
    c = rng.normal(size=(2, d))
    W = rng.normal(size=(3, 4 * d))
    U = rng.normal(size=(d, 4 * d))
    b = rng.normal(size=4 * d)
    h2, c2, _ = lstm_cell(x @ W + h @ U + b, c)
    assert h2.shape == h.shape and c2.shape == c.shape
    assert np.all(np.abs(h2) < 1.0)  # o < 1 and |tanh| < 1
    for row in range(2):
        expect_h, expect_c = lstm_oracle(x[row], h[row], c[row], W, U, b)
        np.testing.assert_allclose(h2[row], expect_h, rtol=0, atol=1e-12)
        np.testing.assert_allclose(c2[row], expect_c, rtol=0, atol=1e-12)


def test_lstm_backward_matches_finite_differences():
    # the cell backward, composed into weight and input gradients as the
    # models' backward pass does, against central differences; the loss
    # reads both h' and c' and the previous states are parameters too
    rng = np.random.default_rng(0)
    d, din = 4, 3
    params = {
        "W": rng.normal(size=(din, 4 * d)) * 0.5,
        "U": rng.normal(size=(d, 4 * d)) * 0.5,
        "b": rng.normal(size=4 * d) * 0.5,
        "x": rng.normal(size=din),
        "h0": rng.normal(size=d),
        "c0": rng.normal(size=d),
    }
    w_h = rng.normal(size=d)
    w_c = rng.normal(size=d)

    def fn(p):
        h, c, cache = lstm_cell(p["x"] @ p["W"] + p["h0"] @ p["U"] + p["b"], p["c0"])
        loss = float(w_h @ h + w_c @ c)
        dz, dc0 = lstm_cell_backward(w_h, w_c, lstm_cell_derivatives(cache))
        grads = {"W": np.outer(p["x"], dz), "U": np.outer(p["h0"], dz), "b": dz,
                 "x": dz @ p["W"].T, "h0": dz @ p["U"].T, "c0": dc0}
        return loss, grads

    assert grad_check(fn, params) < 1e-6


# ---------------------------------------------------------------------------
# softmax cross-entropy


def test_uniform_logits_loss_is_log_v():
    loss, grad = softmax_cross_entropy(np.zeros(4), 1)
    assert loss == pytest.approx(np.log(4))
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_saturated_correct_label_loss_near_zero():
    logits = np.zeros(5)
    logits[2] = 1e6
    loss, _ = softmax_cross_entropy(logits, 2)
    assert loss == pytest.approx(0.0, abs=1e-9)


def test_label_out_of_range():
    # the range check runs once where labels enter (the model checks every
    # example's ids with it), not in every softmax_cross_entropy call
    with pytest.raises(ValueError):
        check_labels(3, 3)
    with pytest.raises(ValueError):
        check_labels(-1, 3)
    with pytest.raises(ValueError, match="label out of range for 3 classes"):
        check_labels(np.array([0, 2, 3, 1]), 3)
    check_labels(np.array([0, 2, 1]), 3)
    check_labels(np.array([], dtype=np.intp), 3)


@settings(deadline=None, max_examples=100)
@given(
    logits=arrays(np.float64, st.integers(min_value=2, max_value=12),
                  elements=st.floats(min_value=-50, max_value=50)),
    seed=st.integers(min_value=0, max_value=99),
)
def test_softmax_properties(logits, seed):
    p = softmax(logits)
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(p > 0)
    label = seed % len(logits)
    _, grad = softmax_cross_entropy(logits, label)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_softmax_cross_entropy_gradient_vs_finite_differences():
    rng = np.random.default_rng(1)
    params = {"logits": rng.normal(size=6)}

    def fn(p):
        loss, grad = softmax_cross_entropy(p["logits"], 2)
        return loss, {"logits": grad}

    assert grad_check(fn, params) < 1e-8


def test_softmax_cross_entropy_rows_sum_single_rows():
    rng = np.random.default_rng(3)
    logits = rng.normal(size=(6, 5)) * 4
    labels = rng.integers(0, 5, size=6)
    loss, grad = softmax_cross_entropy(logits, labels)
    singles = [softmax_cross_entropy(row, label) for row, label in zip(logits, labels)]
    assert loss == pytest.approx(sum(l for l, _ in singles), rel=1e-14)
    np.testing.assert_allclose(grad, np.vstack([g for _, g in singles]), rtol=1e-14, atol=0)
    with pytest.raises(ValueError):
        softmax_cross_entropy(logits, labels[:5])


def test_sigmoid_tanh_form_matches_logistic():
    # exact to rounding in absolute terms; far in the negative tail it
    # rounds to 0 where the logistic is below 1e-16
    x = np.linspace(-800, 800, 16001)
    s = nncore.sigmoid(x)
    assert np.all((s >= 0.0) & (s <= 1.0))
    np.testing.assert_allclose(s, 1.0 / (1.0 + np.exp(-np.clip(x, -700, None))), rtol=0, atol=3e-16)


# ---------------------------------------------------------------------------
# Adam


def pack(params):
    """One flat vector holding the arrays, and its views by name."""
    flat = np.concatenate([p.reshape(-1) for p in params.values()])
    return flat, nncore.views(flat, params)


def test_adam_one_step_hand_computed():
    flat, params = pack({"w": np.array([0.0])})
    state = AdamState.zeros_like(params)
    adam_update(flat, np.array([1.0]), state, lr=0.001)
    assert state.step == 1
    assert state.m[0] == pytest.approx(0.1)
    assert state.v[0] == pytest.approx(0.001)
    # bias-corrected m_hat = v_hat = 1 -> step of -lr
    assert params["w"][0] == pytest.approx(-0.001, rel=1e-6)


def test_adam_zero_gradient_is_identity():
    flat, params = pack({"w": np.array([1.5, -2.0])})
    state = AdamState.zeros_like(params)
    adam_update(flat, np.zeros(2), state, lr=0.1)
    np.testing.assert_array_equal(params["w"], [1.5, -2.0])
    assert state.step == 1


def test_adam_deterministic():
    def run():
        flat, params = pack({"w": np.arange(4, dtype=float)})
        state = AdamState.zeros_like(params)
        for t in range(5):
            adam_update(flat, np.sin(np.arange(4) + t), state, lr=0.01)
        return params["w"]

    np.testing.assert_array_equal(run(), run())


def test_adam_flat_moments_match_per_parameter_loop():
    # the reference is the per-parameter update written out, with the bias
    # corrections folded into scalars (Kingma & Ba 2015, section 2); the
    # flat one must agree with it bit for bit, with the textbook form
    # m_hat / (sqrt(v_hat) + eps) to rounding, and expose the moments by
    # name and shape
    rng = np.random.default_rng(4)
    flat, params = pack({"a": rng.normal(size=(2, 3)), "b": rng.normal(size=4), "c": rng.normal(size=(1, 1))})
    ref = {k: v.copy() for k, v in params.items()}
    textbook = {k: v.copy() for k, v in params.items()}
    ref_m = {k: np.zeros_like(v) for k, v in params.items()}
    ref_v = {k: np.zeros_like(v) for k, v in params.items()}
    state = AdamState.zeros_like(params)
    for t in range(1, 4):
        grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
        adam_update(flat, pack(grads)[0], state, lr=0.01)
        for k, g in grads.items():
            ref_m[k] = 0.9 * ref_m[k] + (1.0 - 0.9) * g
            ref_v[k] = 0.999 * ref_v[k] + (1.0 - 0.999) * g * g
            root_c2 = np.sqrt(1.0 - 0.999**t)
            ref[k] -= ref_m[k] / (np.sqrt(ref_v[k]) + 1e-8 * root_c2) * (0.01 * root_c2 / (1.0 - 0.9**t))
            textbook[k] -= 0.01 * (ref_m[k] / (1.0 - 0.9**t)) / (np.sqrt(ref_v[k] / (1.0 - 0.999**t)) + 1e-8)
    m, v = nncore.views(state.m, state.layout), nncore.views(state.v, state.layout)
    for k in params:
        np.testing.assert_array_equal(params[k], ref[k])
        np.testing.assert_allclose(params[k], textbook[k], rtol=1e-14, atol=0)
        np.testing.assert_array_equal(m[k], ref_m[k])
        np.testing.assert_array_equal(v[k], ref_v[k])


def test_adam_rejects_non_finite_gradient():
    flat, params = pack({"u": np.zeros(3), "w": np.zeros(2)})
    state = AdamState.zeros_like(params)
    with pytest.raises(FloatingPointError, match="diverged: non-finite gradient for 'w'"):
        adam_update(flat, np.array([0.0, 0.0, 0.0, 1.0, np.nan]), state, lr=0.01)
    assert state.step == 0 and not flat.any()


def test_adam_rejects_bad_lr():
    flat, params = pack({"w": np.zeros(1)})
    with pytest.raises(ValueError):
        adam_update(flat, np.zeros(1), AdamState.zeros_like(params), lr=0.0)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_adam_rejects_non_finite_or_non_positive_lr(lr):
    flat, params = pack({"w": np.array([0.5, -1.5])})
    state = AdamState.zeros_like(params)
    with pytest.raises(ValueError, match=f"learning rate must be finite and > 0, got {lr}"):
        adam_update(flat, np.array([1.0, -2.0]), state, lr=lr)
    np.testing.assert_array_equal(flat, [0.5, -1.5])
    assert state.step == 0 and not state.m.any() and not state.v.any()


def test_adam_names_non_finite_gradient_from_the_given_norm():
    # with the norm from clip_global_norm, the scan by name runs only when
    # it is not finite; a gradient that is finite but whose squares
    # overflow is not rejected
    flat, params = pack({"u": np.zeros(2), "w": np.zeros(2)})
    state = AdamState.zeros_like(params)
    grad, huge = np.array([0.0, 1.0, np.inf, 0.0]), np.array([1e200, 0.0, 0.0, 0.0])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(FloatingPointError, match="diverged: non-finite gradient for 'w'"):
            adam_update(flat, grad, state, lr=0.01, norm=clip_global_norm(grad, 5.0))
        assert state.step == 0 and not flat.any()
        adam_update(flat, huge, state, lr=0.01, norm=clip_global_norm(huge, None))
    assert state.step == 1 and np.isfinite(flat).all()


# ---------------------------------------------------------------------------
# gradient checker


def test_grad_check_quadratic():
    def fn(p):
        return float(p["t"] @ p["t"]), {"t": 2.0 * p["t"]}

    assert grad_check(fn, {"t": np.array([3.0, -1.0])}) < 1e-7


def test_grad_check_detects_corruption():
    def fn(p):
        return float(p["t"] @ p["t"]), {"t": 2.0 * p["t"] + 0.5}  # wrong on purpose

    assert grad_check(fn, {"t": np.array([3.0, -1.0])}) > 1e-2


# ---------------------------------------------------------------------------
# clipping and checkpoints


def test_clip_global_norm():
    grads = np.array([3.0, 4.0])
    assert clip_global_norm(grads, 10.0) == 5.0
    fired = not np.array_equal(grads, [3.0, 4.0])
    assert not fired
    assert clip_global_norm(grads, 1.0) == 5.0
    fired = not np.array_equal(grads, [3.0, 4.0])
    assert fired
    assert clip_global_norm(grads, None) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", range(5))
def test_flat_clip_matches_per_parameter_norm(seed):
    # the reference sums each parameter's squares, then the sums; the flat
    # clip sums all squares in one reduction
    rng = np.random.default_rng(seed)
    grads = {name: rng.normal(size=shape) * 10.0 ** rng.uniform(-3, 3)
             for name, shape in (("embed", (62, 16)), ("lstm_W", (32, 64)), ("lstm_b", (64,)), ("v", (1,)))}
    ref = float(np.sqrt(sum((g * g).sum() for g in grads.values())))
    flat, _ = pack(grads)
    kept = flat.copy()
    norm = clip_global_norm(flat, None)
    assert norm == pytest.approx(ref, rel=1e-15, abs=0)
    assert clip_global_norm(flat, norm) == norm
    np.testing.assert_array_equal(flat, kept)  # at or below max_norm: untouched
    assert clip_global_norm(flat, ref / 4.0) == pytest.approx(ref, rel=1e-15, abs=0)
    np.testing.assert_array_equal(flat, kept * ((ref / 4.0) / norm))
    assert clip_global_norm(flat, None) == pytest.approx(ref / 4.0, rel=1e-14)


def test_checkpoint_roundtrip(tmp_path):
    params = {"embed": np.random.default_rng(0).normal(size=(5, 3)), "b": np.arange(4.0)}
    meta = {"kind": "rnn", "epoch": 7, "loss_curve": [1.0, 0.5]}
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, params, meta)
    loaded, loaded_meta = load_checkpoint(path)
    assert set(loaded) == {"embed", "b"}
    np.testing.assert_array_equal(loaded["embed"], params["embed"])
    assert loaded_meta["epoch"] == 7
    assert loaded_meta["loss_curve"] == [1.0, 0.5]


def test_checkpoint_bytes_deterministic(tmp_path):
    params = {"w": np.random.default_rng(3).normal(size=(4, 4))}
    a = tmp_path / "a.ckpt"
    b = tmp_path / "b.ckpt"
    save_checkpoint(a, params, {"epoch": 1})
    save_checkpoint(b, params, {"epoch": 1})
    assert a.read_bytes() == b.read_bytes()


def test_checkpoint_rejects_foreign_file(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_bytes(b"not-a-checkpoint\x00\x01")
    with pytest.raises(ValueError, match="unsupported checkpoint"):
        load_checkpoint(path)


def _saved_checkpoint(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(path, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}, {"kind": "rnn"})
    data = path.read_bytes()
    header_at = data.index(b"\n") + 1 + 8
    body_at = header_at + int.from_bytes(data[header_at - 8 : header_at], "big")
    return path, data, header_at, body_at


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda d, h, b: d[:-8], "file ends at byte {n} inside parameter 'b'"),
        (lambda d, h, b: d[: b + 8], "file ends at byte {n} inside parameter 'a'"),
        (lambda d, h, b: d + b"\x00" * 5, "5 unexpected byte\\(s\\) after the last parameter, at byte offset {b_end}"),
        (lambda d, h, b: d[: h - 3], "file ends at byte {n} inside the header length at byte offset {h8}"),
        (lambda d, h, b: d[: h - 8] + (10**6).to_bytes(8, "big") + d[h:],
         "header of 1000000 bytes at byte offset {h} runs past the end of the file"),
        (lambda d, h, b: d[:h] + b"#" + d[h + 1 :], "header at byte offset {h} is not valid JSON"),
        (lambda d, h, b: d[:h] + b"\xff" + d[h + 1 :], "header at byte offset {h} is not valid JSON"),
    ],
    ids=["truncated-last", "truncated-first", "over-long", "truncated-length", "bad-length",
         "bad-json", "bad-utf8"],
)
def test_checkpoint_rejects_damaged_file(tmp_path, edit, message):
    path, data, header_at, body_at = _saved_checkpoint(tmp_path)
    damaged = edit(data, header_at, body_at)
    path.write_bytes(damaged)
    expect = message.format(n=len(damaged), h=header_at, h8=header_at - 8, b_end=len(data))
    with pytest.raises(ValueError, match=f"{path}: {expect}"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "meta, message",
    [
        ({"params": "a"}, "params"),
        ({"params": [{"name": "a"}]}, "parameter entry 0"),
        ({"params": [{"name": "a", "shape": [2, -1]}]}, "parameter entry 0"),
        ([1, 2], "params"),
    ],
    ids=["params-not-list", "entry-without-shape", "negative-dim", "header-not-object"],
)
def test_checkpoint_rejects_malformed_header(tmp_path, meta, message):
    path = tmp_path / "model.ckpt"
    header = json.dumps(meta).encode()
    path.write_bytes(b"ckpt-v1\n" + len(header).to_bytes(8, "big") + header)
    with pytest.raises(ValueError, match=f"{path}: .*{message}"):
        load_checkpoint(path)


def test_checkpoint_rejects_repeated_parameter_name(tmp_path):
    # without the check the second 'w' would silently replace the first
    path = tmp_path / "model.ckpt"
    header = json.dumps({"params": [{"name": "w", "shape": [2]}, {"name": "w", "shape": [2]}]}).encode()
    body = np.array([1.0, 1.0, 0.0, 0.0], dtype="<f8").tobytes()
    path.write_bytes(b"ckpt-v1\n" + len(header).to_bytes(8, "big") + header + body)
    with pytest.raises(ValueError, match=f"{path}: parameter entry 1 of the header repeats the name 'w'"):
        load_checkpoint(path)
