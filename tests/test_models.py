import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellseq import models, nncore
from cellseq.models import (
    ArnnModel,
    ModelDims,
    RnnModel,
    attention_init_state,
    encode_traffic,
    generate_batch,
    make_example,
)
from cellseq.nncore import softmax
from cellseq.tokens import END, START, Vocab

from leaves import rows_of
from oracles import (GOLDEN_GAMMA, forward_oracle, grad_check, pick_oracle, sample_oracle, splitmix64_oracle,
                     uniform_oracle)


@pytest.fixture
def tiny_vocab():
    return Vocab([1, 2])  # V = 4 with the two virtual tokens


@pytest.fixture
def small_vocab():
    return Vocab(range(1, 7))


def random_traffic(n, seed=0):
    return np.random.default_rng(seed).random((n, 10))


def unroll(model, tokens, traffic=None):
    """The program's teacher-forced distributions [len, V] after each token
    of one sequence and its attention rows [len, N] (None for rnn)."""
    windows = None if traffic is None else np.asarray(traffic)[None]
    run = models._Unroll(model, np.array([model.vocab.encode(list(tokens))]), windows, keep=False)
    probs = softmax(run.hs[:, 0] @ model.params["dec_W"] + model.params["dec_b"])
    return probs, None if run.att is None else run.alphas[:, 0]


def attend(model, s, features):
    """The program's attention weights and context for one state s."""
    p = model.params
    alpha, context = models._attend(model, s[None] @ p["attn_W"], features, features @ p["attn_U"])
    return alpha[0], context[0]


# ---------------------------------------------------------------------------
# forward passes


def test_rnn_forward_rows_sum_to_one(small_vocab):
    model = RnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4), seed=0)
    probs, _ = unroll(model, [START, 3, 1, 5])
    assert probs.shape == (4, len(small_vocab))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs >= 0)


def test_rnn_forward_output_count_matches_input(tiny_vocab):
    model = RnnModel.init(tiny_vocab, ModelDims(d_e=2, d_h=2), seed=0)
    for x in ([START], [START, 1], [START, 1, 2]):
        assert unroll(model, x)[0].shape[0] == len(x)


def test_rnn_fresh_init_near_uniform(tiny_vocab):
    model = RnnModel.init(tiny_vocab, ModelDims(d_e=2, d_h=2), seed=3)
    probs, _ = unroll(model, [START, 1])
    loss = -np.log(probs[0]).mean()
    assert loss == pytest.approx(np.log(4), abs=0.2)


def test_rnn_forward_unknown_token(tiny_vocab):
    model = RnnModel.init(tiny_vocab, ModelDims(d_e=2, d_h=2), seed=0)
    with pytest.raises(ValueError, match="unknown token"):
        generate_batch(model, [START, 99], [0], max_len=5)


def test_encode_traffic_zeros_and_shape(small_vocab):
    model = ArnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4, d_f=5, d_a=3), seed=1)
    feats = encode_traffic(np.zeros((7, 10)), model)
    assert feats.shape == (7, 5)
    np.testing.assert_array_equal(feats, 0.0)


def test_encode_traffic_single_nonzero_row(small_vocab):
    model = ArnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4, d_f=5, d_a=3), seed=1)
    traffic = np.zeros((4, 10))
    traffic[2] = np.random.default_rng(0).random(10)
    feats = encode_traffic(traffic, model)
    assert np.all(feats[[0, 1, 3]] == 0.0)
    assert np.any(feats[2] != 0.0)


def test_encode_traffic_shape_mismatch(small_vocab):
    model = ArnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4), seed=1)
    with pytest.raises(ValueError):
        encode_traffic(np.zeros((4, 9)), model)


def test_attention_init_state_zero_features(small_vocab):
    model = ArnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4, d_f=5), seed=1)
    h0, c0 = attention_init_state(np.zeros((6, 5)), model)
    np.testing.assert_array_equal(h0, 0.0)
    np.testing.assert_array_equal(c0, 0.0)
    assert h0.shape == c0.shape == (4,)


def test_attention_init_state_permutation_invariant(small_vocab):
    model = ArnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4, d_f=5), seed=2)
    feats = np.random.default_rng(5).normal(size=(6, 5))
    h0, c0 = attention_init_state(feats, model)
    perm = np.random.default_rng(6).permutation(6)
    h0p, c0p = attention_init_state(feats[perm], model)
    np.testing.assert_allclose(h0, h0p, atol=1e-12)
    np.testing.assert_allclose(c0, c0p, atol=1e-12)


def test_attention_step_rows_sum_to_one(small_vocab):
    model = ArnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4, d_f=5, d_a=3), seed=3)
    feats = np.random.default_rng(1).normal(size=(9, 5))
    alpha, context = attend(model, np.random.default_rng(2).normal(size=4), feats)
    assert alpha.sum() == pytest.approx(1.0, abs=1e-12)
    assert context.shape == (5,)


def test_attention_step_identical_features_uniform(small_vocab):
    model = ArnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4, d_f=5, d_a=3), seed=3)
    feats = np.tile(np.random.default_rng(1).normal(size=5), (8, 1))
    alpha, _ = attend(model, np.random.default_rng(2).normal(size=4), feats)
    np.testing.assert_allclose(alpha, 1.0 / 8.0, atol=1e-12)


def test_attention_step_hand_set_weights(small_vocab):
    # d_f = d_a = 1: e = v * tanh(h_j) with W_a = 0; features (0, 1)
    # v = ln 3 / tanh(1) gives e = (0, ln 3) -> alpha = (0.25, 0.75)
    model = ArnnModel.init(small_vocab, ModelDims(d_e=2, d_h=3, d_f=1, d_a=1), seed=0)
    model.params["attn_W"][:] = 0.0
    model.params["attn_U"][:] = 1.0
    model.params["attn_v"][:] = np.log(3.0) / np.tanh(1.0)
    feats = np.array([[0.0], [1.0]])
    alpha, context = attend(model, np.zeros(3), feats)
    np.testing.assert_allclose(alpha, [0.25, 0.75], atol=1e-12)
    np.testing.assert_allclose(context, 0.25 * feats[0] + 0.75 * feats[1], atol=1e-12)


def test_arnn_forward_zero_traffic_rows_sum_to_one(small_vocab):
    model = ArnnModel.init(small_vocab, ModelDims(d_e=3, d_h=4), seed=4)
    probs, alphas = unroll(model, [START, 2, 4], np.zeros((5, 10)))
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert alphas.shape == (3, 5)
    np.testing.assert_allclose(alphas.sum(axis=1), 1.0, atol=1e-12)


def test_arnn_forward_matches_hand_rolled_composition(small_vocab):
    # the batched unroll must equal the oracle's one step, one cell at a time
    dims = ModelDims(d_e=3, d_h=4, d_f=2, d_a=2)
    model = ArnnModel.init(small_vocab, dims, seed=5)
    traffic = random_traffic(2, seed=6)
    x = [START, 1, 3]
    probs, alphas = unroll(model, x, traffic)
    expect, expect_alphas = forward_oracle(model, x, traffic)
    np.testing.assert_allclose(probs, expect, atol=1e-12)
    np.testing.assert_allclose(alphas, expect_alphas, atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(min_value=0, max_value=9999), n=st.integers(min_value=2, max_value=9))
def test_arnn_permutation_equivariance(seed, n):
    vocab = Vocab(range(1, 5))
    model = ArnnModel.init(vocab, ModelDims(d_e=3, d_h=4), seed=seed)
    traffic = np.random.default_rng(seed).random((n, 10))
    probs, alphas = unroll(model, [START, 2], traffic)
    perm = np.random.default_rng(seed + 1).permutation(n)
    probs_p, alphas_p = unroll(model, [START, 2], traffic[perm])
    np.testing.assert_allclose(probs_p, probs, atol=1e-9)
    np.testing.assert_allclose(alphas_p, alphas[:, perm], atol=1e-9)


# ---------------------------------------------------------------------------
# gradients


def loss_and_grads(model, x_ids, y_ids, traffic=None):
    """Loss of one sequence and its gradient by parameter name, from
    ``batch_loss_and_grads`` on a batch of one."""
    loss, grad = models.batch_loss_and_grads(model, [models.TrainingExample(x_ids, y_ids, traffic)])
    return loss, nncore.views(grad, model.params)


def _toy_sequence(vocab, steps, seed):
    """x and y ids of a #start-led, #end-terminated sequence of ``steps`` steps."""
    cells = np.random.default_rng(seed).integers(2, len(vocab), size=steps - 1)
    return np.array([vocab.encode([START])[0], *cells]), np.array([*cells, vocab.end_id])


# The backward pass sums over every step after its time loop, so the checks
# reach past the 2-5 steps of the toy sequences. A 12- or 20-step loss is a
# sum of more terms, whose round-off in the central difference grows as
# |loss| / eps, so those use a step of 1e-4 instead of the default 1e-5.
@pytest.mark.parametrize("steps, eps", [(4, 1e-5), (12, 1e-4), (20, 1e-4)], ids=["4-steps", "12-steps", "20-steps"])
def test_rnn_gradient_check_toy(steps, eps):
    vocab = Vocab(range(1, 7))
    model = RnnModel.init(vocab, ModelDims(d_e=3, d_h=4), seed=1)
    if steps == 4:
        x_ids, y_ids = np.array([0, 3, 4, 2]), np.array([3, 4, 2, 1])
    else:
        x_ids, y_ids = _toy_sequence(vocab, steps, seed=steps)

    def fn(_):
        return loss_and_grads(model, x_ids, y_ids)

    assert grad_check(fn, model.params, eps=eps) < 1e-4


@pytest.mark.parametrize("steps, eps", [(3, 1e-5), (12, 1e-4), (20, 1e-4)], ids=["3-steps", "12-steps", "20-steps"])
def test_arnn_gradient_check_toy(steps, eps):
    vocab = Vocab([1, 2, 3])  # 3-cell toy vocabulary
    model = ArnnModel.init(vocab, ModelDims(d_e=3, d_h=4, d_f=3, d_a=2), seed=2)
    traffic = random_traffic(5, seed=3)
    if steps == 3:
        x_ids, y_ids = np.array([0, 2, 3]), np.array([2, 3, 1])
    else:
        x_ids, y_ids = _toy_sequence(vocab, steps, seed=steps)

    def fn(_):
        return loss_and_grads(model, x_ids, y_ids, traffic)

    assert grad_check(fn, model.params, eps=eps) < 1e-4


def test_arnn_requires_traffic():
    vocab = Vocab([1, 2])
    model = ArnnModel.init(vocab, ModelDims(d_e=2, d_h=2), seed=0)
    with pytest.raises(ValueError, match="traffic"):
        loss_and_grads(model, np.array([0]), np.array([2]))


def _ragged_examples(vocab, n_cells, seed):
    # lengths 2..7 in shuffled order, so the padded batch is ragged at both ends
    rng = np.random.default_rng(seed)
    examples = []
    for length in rng.permutation(np.arange(2, 8)):
        ids = rng.integers(2, len(vocab), size=length + 1)
        ids[0] = vocab.encode([START])[0]
        traffic = rng.random((n_cells, 10)) if n_cells else None
        examples.append(models.TrainingExample(ids[:-1], ids[1:], traffic))
    return examples


@pytest.mark.parametrize("cls, n_cells", [(RnnModel, 0), (ArnnModel, 5)])
def test_padded_batch_equals_summed_sequences(cls, n_cells):
    vocab = Vocab(range(1, 7))
    model = cls.init(vocab, ModelDims(d_e=3, d_h=4, d_f=3, d_a=2), seed=4)
    examples = _ragged_examples(vocab, n_cells, seed=9)
    loss, grad = models.batch_loss_and_grads(model, examples)
    grads = nncore.views(grad, model.params)
    singles = [loss_and_grads(model, ex.x_ids, ex.y_ids, ex.traffic) for ex in examples]
    assert loss == pytest.approx(sum(l for l, _ in singles), rel=1e-12)
    assert grads.keys() == model.params.keys()
    for name, g in grads.items():
        expect = sum(s[1][name] for s in singles)
        scale = np.abs(expect).max()
        np.testing.assert_allclose(g, expect, rtol=0, atol=1e-12 * scale, err_msg=name)


@pytest.mark.parametrize("cls, n_cells", [(RnnModel, 0), (ArnnModel, 5)])
def test_chunked_mean_loss_equals_per_sequence_mean(cls, n_cells):
    vocab = Vocab(range(1, 7))
    model = cls.init(vocab, ModelDims(d_e=3, d_h=4), seed=5)
    examples = []
    for seed in range(7):  # 42 sequences: more than one chunk, the last one partial
        examples += _ragged_examples(vocab, n_cells, seed)
    assert len(examples) > models.MEAN_LOSS_CHUNK
    total = steps = 0
    for ex in examples:
        tokens = vocab.decode(list(ex.x_ids))
        probs, _ = forward_oracle(model, tokens, ex.traffic)
        total += -np.log(probs[np.arange(len(ex.y_ids)), ex.y_ids]).sum()
        steps += len(ex.y_ids)
    assert models.mean_loss(model, examples) == pytest.approx(total / steps, rel=1e-12)


def test_windows_of_two_shapes_are_rejected_where_examples_enter(monkeypatch):
    # every caller takes its windows from one lookup, so one call has one
    # window shape; a mix, or a missing window, is refused before any pass
    vocab = Vocab(range(1, 7))
    model = ArnnModel.init(vocab, ModelDims(d_e=3, d_h=4), seed=6)
    mixed = _ragged_examples(vocab, 4, seed=1)[:3] + _ragged_examples(vocab, 6, seed=2)[:3]
    missing = _ragged_examples(vocab, 4, seed=1)[:3] + _ragged_examples(vocab, 0, seed=2)[:1]
    monkeypatch.setattr(models, "_Unroll", mock.Mock(side_effect=AssertionError("a pass ran")))
    for examples, match in ((mixed, r"share one shape, got \[\(4, 10\), \(6, 10\)\]"), (missing, "required")):
        for call in (lambda: models.batch_loss_and_grads(model, examples), lambda: models.mean_loss(model, examples),
                     lambda: models.train(model, examples, lr=1e-3, epochs=1)):
            with pytest.raises(ValueError, match=match):
                call()


# ---------------------------------------------------------------------------
# training


def test_train_epoch_zero_loss_near_log_v():
    vocab = Vocab(range(1, 11))
    model = RnnModel.init(vocab, ModelDims(d_e=4, d_h=4), seed=0)
    examples = [
        make_example(vocab, (START, 1, 2, 3, END)),
        make_example(vocab, (START, 4, 5, 6, END)),
    ]
    result = models.train(model, examples, lr=1e-4, epochs=1, seed=0)
    assert result.epoch_losses[0] == pytest.approx(np.log(len(vocab)), abs=0.3)
    assert all(np.isfinite(l) for l in result.epoch_losses)


def test_train_memorizes_small_corpus():
    vocab = Vocab(range(1, 6))
    model = RnnModel.init(vocab, ModelDims(d_e=8, d_h=8), seed=0)
    examples = [make_example(vocab, (START, 1, 2, 3, END)) for _ in range(10)]
    result = models.train(model, examples, lr=5e-3, epochs=200, seed=1)
    assert result.epoch_losses[-1] < 0.05


def test_train_requires_examples():
    vocab = Vocab([1])
    model = RnnModel.init(vocab, ModelDims(d_e=2, d_h=2), seed=0)
    with pytest.raises(ValueError):
        models.train(model, [], lr=1e-3, epochs=1)


def test_train_with_gradient_accumulation():
    vocab = Vocab(range(1, 6))
    examples = [make_example(vocab, (START, 1, 2, 3, END)) for _ in range(8)]
    model = RnnModel.init(vocab, ModelDims(d_e=8, d_h=8), seed=0)
    result = models.train(model, examples, lr=5e-3, epochs=150, seed=1, batch_size=4)
    assert result.epoch_losses[-1] < 0.1
    with pytest.raises(ValueError):
        models.train(model, examples, lr=1e-3, epochs=1, batch_size=0)


@pytest.mark.parametrize("kwargs, message", [({"clip_norm": -1.0}, "clip norm must be > 0, got -1.0"),
                                             ({"clip_norm": 0.0}, "clip norm must be > 0, got 0.0"),
                                             ({"epochs": 0}, "epochs must be >= 1, got 0")])
def test_train_rejects_bad_clip_norm_and_epochs(kwargs, message):
    vocab = Vocab(range(1, 6))
    model = RnnModel.init(vocab, ModelDims(d_e=4, d_h=4), seed=0)
    before = model.flat.copy()
    with pytest.raises(ValueError, match=message):
        models.train(model, [make_example(vocab, (START, 1, 2, END))], lr=0.05, **{"epochs": 1, **kwargs})
    np.testing.assert_array_equal(model.flat, before)


@pytest.mark.parametrize("lr", [float("nan"), float("inf"), 0.0, -1.0])
def test_train_rejects_bad_learning_rate_before_any_pass(lr, monkeypatch):
    vocab = Vocab(range(1, 6))
    model = RnnModel.init(vocab, ModelDims(d_e=4, d_h=4), seed=0)
    monkeypatch.setattr(models, "_Unroll", mock.Mock(side_effect=AssertionError("a pass ran")))
    with pytest.raises(ValueError, match=f"learning rate must be finite and > 0, got {lr}"):
        models.train(model, [make_example(vocab, (START, 1, 2, END))], lr=lr, epochs=1)


def test_train_times_each_epoch():
    vocab = Vocab(range(1, 6))
    model = RnnModel.init(vocab, ModelDims(d_e=4, d_h=4), seed=0)
    result = models.train(model, [make_example(vocab, (START, 1, 2, 3, END))] * 3, lr=1e-3, epochs=3)
    assert len(result.epoch_seconds) == len(result.epoch_losses) == 3
    assert all(s > 0.0 for s in result.epoch_seconds)


@pytest.mark.parametrize("x_ids, y_ids", [([0, 3], [3, 7]), ([0, 3], [3, -1]), ([0, 9], [3, 1]), ([-2, 3], [3, 1])])
def test_ids_outside_the_vocabulary_are_rejected_where_examples_enter(x_ids, y_ids, monkeypatch):
    # one range check per call of batch_loss_and_grads, mean_loss and train,
    # made before any pass
    vocab = Vocab(range(1, 6))  # ids 0..6
    model = RnnModel.init(vocab, ModelDims(d_e=4, d_h=4), seed=0)
    example = models.TrainingExample(np.array(x_ids), np.array(y_ids))
    monkeypatch.setattr(models, "_Unroll", mock.Mock(side_effect=AssertionError("a pass ran")))
    for call in (lambda: models.batch_loss_and_grads(model, [example]), lambda: models.mean_loss(model, [example]),
                 lambda: models.train(model, [example], lr=1e-3, epochs=1)):
        with pytest.raises(ValueError, match="out of range for 7"):
            call()


def test_no_examples_are_rejected_where_examples_enter():
    model = RnnModel.init(Vocab(range(1, 6)), ModelDims(d_e=4, d_h=4), seed=0)
    for call in (models.batch_loss_and_grads, models.mean_loss,
                 lambda model, examples: models.train(model, examples, lr=1e-3, epochs=1)):
        with pytest.raises(ValueError, match="no .*examples"):
            call(model, [])


def _assert_params_are_views_of_flat(model, example):
    assert sum(p.size for p in model.params.values()) == model.flat.size
    for name, p in model.params.items():
        assert np.shares_memory(p, model.flat), name
    before = models.mean_loss(model, [example])
    model.params["dec_b"][model.vocab.end_id] += 1.0
    assert models.mean_loss(model, [example]) != before


@pytest.mark.parametrize("cls, n_cells", [(RnnModel, 0), (ArnnModel, 5)])
def test_params_stay_views_of_flat_after_init_load_and_train(cls, n_cells, tmp_path):
    vocab = Vocab(range(1, 7))
    example = _ragged_examples(vocab, n_cells, seed=2)[0]
    model = cls.init(vocab, ModelDims(d_e=3, d_h=4, d_f=3, d_a=2), seed=1)
    _assert_params_are_views_of_flat(model, example)
    models.save_model(tmp_path / "m.ckpt", model)
    loaded, _ = models.load_model(tmp_path / "m.ckpt")
    _assert_params_are_views_of_flat(loaded, example)
    models.train(model, [example], lr=0.01, epochs=1)
    _assert_params_are_views_of_flat(model, example)


@pytest.mark.parametrize("batch_size", [1, 3])
@pytest.mark.parametrize("cls, n_cells", [(RnnModel, 0), (ArnnModel, 5)])
def test_train_matches_per_parameter_adam_loop(cls, n_cells, batch_size):
    # the reference is the training loop written out per parameter over
    # batch_loss_and_grads, with Adam's bias corrections folded into
    # scalars; the flat one must agree bit for bit, and its mean pre-clip
    # norm per epoch with the per-parameter norm
    vocab = Vocab(range(1, 7))
    dims = ModelDims(d_e=3, d_h=4, d_f=3, d_a=2)
    examples = _ragged_examples(vocab, n_cells, seed=3)  # 6 sequences: 2 batches of 3
    model, ref = cls.init(vocab, dims, seed=8), cls.init(vocab, dims, seed=8)
    result = models.train(model, examples, lr=0.01, epochs=2, seed=7, clip_norm=None, batch_size=batch_size)
    m = {k: np.zeros_like(v) for k, v in ref.params.items()}
    v = {k: np.zeros_like(p) for k, p in ref.params.items()}
    rng, t, ref_norms = np.random.default_rng(7), 0, []
    for epoch in range(2):
        order, norms = rng.permutation(len(examples)), []
        for start in range(0, len(order), batch_size):
            _, grad = models.batch_loss_and_grads(ref, [examples[i] for i in order[start : start + batch_size]])
            grads = nncore.views(grad, ref.params)
            norms.append(np.sqrt(sum((g * g).sum() for g in grads.values())))
            t += 1
            for k, g in grads.items():
                m[k] = 0.9 * m[k] + (1.0 - 0.9) * g
                v[k] = 0.999 * v[k] + (1.0 - 0.999) * g * g
                root_c2 = np.sqrt(1.0 - 0.999**t)
                ref.params[k] -= m[k] / (np.sqrt(v[k]) + 1e-8 * root_c2) * (0.01 * root_c2 / (1.0 - 0.9**t))
        ref_norms.append(np.mean(norms))
    for k in ref.params:
        np.testing.assert_array_equal(model.params[k], ref.params[k], err_msg=k)
    assert result.epoch_grad_norms == pytest.approx(ref_norms, rel=1e-12, abs=0)
    assert result.epoch_clip_events == [0, 0] and result.clip_events == 0


@pytest.mark.parametrize("clip_norm, clipped", [(1e-9, 2), (1e9, 0)])
def test_train_counts_clip_events_per_epoch(clip_norm, clipped):
    vocab = Vocab(range(1, 7))
    model = RnnModel.init(vocab, ModelDims(d_e=3, d_h=4), seed=8)
    examples = _ragged_examples(vocab, 0, seed=3)  # 6 sequences: 2 batches of 3
    result = models.train(model, examples, lr=0.01, epochs=3, seed=7, clip_norm=clip_norm, batch_size=3)
    assert result.epoch_clip_events == [clipped] * 3
    assert result.clip_events == 3 * clipped


def test_make_example_shift():
    vocab = Vocab([1, 2, 3])
    ex = make_example(vocab, (START, 1, 2, END))
    np.testing.assert_array_equal(ex.x_ids, vocab.encode([START, 1, 2]))
    np.testing.assert_array_equal(ex.y_ids, vocab.encode([1, 2, END]))


# ---------------------------------------------------------------------------
# generation


@pytest.fixture(scope="module")
def overfit_model():
    vocab = Vocab([1, 2])
    model = RnnModel.init(vocab, ModelDims(d_e=4, d_h=4), seed=0)
    examples = [make_example(vocab, (START, 1, 2, END))]
    models.train(model, examples, lr=1e-2, epochs=400, seed=0)
    return model


def test_generate_starts_with_prefix(overfit_model):
    (res,) = generate_batch(overfit_model, [START, 1], [0], max_len=10)
    assert res.tokens[:2] == [START, 1]


def test_generate_seed_contract(overfit_model):
    (a,) = generate_batch(overfit_model, [START], [42], max_len=10)
    (b,) = generate_batch(overfit_model, [START], [42], max_len=10)
    assert a.tokens == b.tokens
    outcomes = {tuple(res.tokens) for res in generate_batch(overfit_model, [START], range(200), max_len=10)}
    assert len(outcomes) >= 1  # different seeds may differ; same seed never does


def test_generate_overfit_reproduces_continuation(overfit_model):
    # the model's exact probability of the continuation [2, #end], and the
    # share of 1,000 keys that sample it within 4 binomial sigma of that
    probs, _ = forward_oracle(overfit_model, [START, 1, 2])
    two, end = overfit_model.vocab.encode([2, END])
    p = probs[1][two] * probs[2][end]
    assert p > 0.99
    results = generate_batch(overfit_model, [START, 1], list(range(1000)), max_len=16)
    hits = sum(res.tokens == [START, 1, 2, END] for res in results)
    assert abs(hits / 1000 - p) <= 4 * np.sqrt(p * (1 - p) / 1000)


def test_generate_validation(overfit_model):
    with pytest.raises(ValueError, match="#start"):
        generate_batch(overfit_model, [1, 2], [0], max_len=10)
    with pytest.raises(ValueError, match="#end"):
        generate_batch(overfit_model, [START, 1, END], [0], max_len=10)
    with pytest.raises(ValueError, match="max_len"):
        generate_batch(overfit_model, [START, 1], [0], max_len=2)


def test_generate_terminates_and_stays_in_vocab():
    vocab = Vocab(range(1, 8))
    model = RnnModel.init(vocab, ModelDims(d_e=3, d_h=3), seed=9)  # untrained: near-uniform
    for res in generate_batch(model, [START], range(20), max_len=12):
        assert len(res.tokens) <= 12
        assert all(t in vocab for t in res.tokens)
        if res.terminated:
            assert res.tokens[-1] == END
        for probs in unroll(model, res.tokens[:-1])[0]:
            assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_row_sampler_matches_scalar_rule_on_edge_rows():
    rows = np.array([
        [0.0, 0.5, 0.0, 0.5, 0.0],  # zero mass between and after the support
        [1.0, 0.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, 0.0, 1.0],
        [0.1, 0.1, 0.1, 0.1, 0.1],  # sums to 0.5
        [0.7, 0.1, 0.1, 0.1, 0.0],  # sums to 0.9999999999999999 in floating point
        [0.0, 0.0, 0.0, 0.0, 0.0],
        softmax(np.array([0.3, -1.0, 2.0, 0.0, 0.7])),
    ])
    for u in (0.0, np.nextafter(1.0, 0.0), 0.5, 0.2, 0.6):
        us = np.full(len(rows), u)
        got = models._sample(rows, us)
        assert got.tolist() == [pick_oracle(r, u) for r in rows]


@settings(deadline=None, max_examples=200)
@given(data=st.data(), n_rows=st.integers(1, 6), v=st.integers(1, 7))
def test_row_sampler_matches_scalar_rule(data, n_rows, v):
    weight = st.one_of(st.just(0.0), st.floats(0.0, 1.0))
    rows = np.array(data.draw(st.lists(st.lists(weight, min_size=v, max_size=v),
                                       min_size=n_rows, max_size=n_rows)))
    unit = st.one_of(st.just(0.0), st.just(np.nextafter(1.0, 0.0)), st.floats(0.0, 1.0, exclude_max=True))
    us = np.array(data.draw(st.lists(unit, min_size=n_rows, max_size=n_rows)))
    got = models._sample(rows, us)
    assert got.tolist() == [pick_oracle(r, u) for r, u in zip(rows, us)]


@pytest.mark.parametrize("cls", [RnnModel, ArnnModel])
def test_generate_follows_teacher_forced_forward(cls):
    # each candidate is the oracle's: a teacher-forced pass over the prefix,
    # then the token at position j drawn with the uniform of (seed, j)
    vocab = Vocab(range(1, 6))
    model = cls.init(vocab, ModelDims(d_e=3, d_h=4), seed=5)  # untrained: some candidates reach max_len
    traffic = random_traffic(5, seed=2) if cls is ArnnModel else None
    prefix, max_len = [START, 3, 1], 9
    capped = 0
    for seed, res in enumerate(generate_batch(model, prefix, range(16), max_len, traffic=traffic)):
        sampled = vocab.encode(res.tokens[len(prefix) :])
        assert tuple(sampled) == sample_oracle(model, prefix, seed, max_len, traffic)
        assert res.terminated == (sampled[-1] == vocab.end_id)
        assert res.terminated or len(res.tokens) == max_len
        capped += not res.terminated
    assert 0 < capped < 16


def _oracle_rows(model, trips, windows, forks):
    return [[sample_oracle(model, trips[f.trip][: f.n], seed, f.max_len, windows[f.trip] if windows else None)
             for seed in f.seeds] for f in forks]


@pytest.mark.parametrize("cls", [RnnModel, ArnnModel])
def test_sample_forks_refills_slots_across_sequences(cls, monkeypatch):
    # rows of one token next to rows of up to 40, from two sequences with
    # different windows (a third has no fork): short rows end while long ones
    # run, so later levels hold fewer states, from forks of both sequences,
    # stepped in chunks of one to all of them
    vocab = Vocab(range(1, 6))
    model = cls.init(vocab, ModelDims(d_e=3, d_h=4), seed=3)
    model.params["dec_b"][vocab.end_id] = -2.0  # rarer #end: long rows stay long
    trips = [[START, 1, 2, 3, 4, END], [START, 5, 4, 3], [START, 2, 2, END]]
    windows = [random_traffic(5, seed=s) for s in (10, 11, 12)] if cls is ArnnModel else None
    forks = [models.Fork(0, 2, range(100, 105), 3), models.Fork(1, 3, range(200, 203), 40),
             models.Fork(0, 1, range(300, 306), 2), models.Fork(1, 1, [400], 30),
             models.Fork(0, 4, range(500, 504), 5), models.Fork(1, 2, range(600, 603), 35),
             models.Fork(0, 3, range(700, 702), 40), models.Fork(1, 1, range(800, 805), 2)]
    expect = _oracle_rows(model, trips, windows, forks)
    lengths = [len(ids) for rows in expect for ids in rows]
    assert min(lengths) == 1 and max(lengths) >= 15
    for row_cap in (1, 2, 3, 64):
        monkeypatch.setattr(models, "ROW_CAP", row_cap)
        assert rows_of(models.sample_forks(model, trips, windows, forks), len(forks)) == expect


@pytest.mark.parametrize("cls", [RnnModel, ArnnModel])
@settings(deadline=None, max_examples=20)
@given(data=st.data(), n_cells=st.integers(2, 5), d_e=st.integers(1, 4), d_h=st.integers(1, 4),
       init_seed=st.integers(0, 9999), end_bias=st.sampled_from([0.0, -2.0]), n_window=st.integers(1, 4))
def test_sample_forks_matches_one_prefix_at_a_time(cls, data, n_cells, d_e, d_h, init_seed, end_bias, n_window):
    # forks over 2-3 sequences with their own windows, each row against the
    # oracle sampling its prefix alone, at several chunk sizes
    vocab = Vocab(range(1, n_cells + 1))
    model = cls.init(vocab, ModelDims(d_e=d_e, d_h=d_h), seed=init_seed)
    model.params["dec_b"][vocab.end_id] += end_bias
    cells, ending = st.lists(st.integers(1, n_cells), max_size=5), st.sampled_from([[], [END]])
    trips = [[START, *data.draw(cells), *data.draw(ending)] for _ in range(data.draw(st.integers(2, 3)))]
    windows = [random_traffic(n_window, seed=init_seed + b) for b in range(len(trips))] if cls is ArnnModel else None
    forks = []
    for _ in range(data.draw(st.integers(1, 5))):
        trip = data.draw(st.integers(0, len(trips) - 1))
        n = data.draw(st.integers(1, len(trips[trip]) - (trips[trip][-1] == END)))
        seeds = data.draw(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=4))
        forks.append(models.Fork(trip, n, seeds, n + data.draw(st.integers(1, 12))))
    expect = _oracle_rows(model, trips, windows, forks)
    for row_cap in (1, 3, 64):
        with mock.patch.object(models, "ROW_CAP", row_cap):
            assert rows_of(models.sample_forks(model, trips, windows, forks), len(forks)) == expect


def test_sample_forks_steps_each_distinct_state_once(overfit_model, monkeypatch):
    # the trained model repeats its candidates, so rows share states: every
    # non-final sampled prefix of a fork is one state, stepped once and at
    # most ROW_CAP states a call; forks of equal prefixes in two sequences
    # share none (the rnn's states there are equal, but an attention model's
    # are not)
    stepped = []
    step = models._step

    class Unroll(models._Unroll):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            stepped.clear()  # the teacher-forced steps are not counted

    monkeypatch.setattr(models, "_Unroll", Unroll)
    monkeypatch.setattr(models, "_step", lambda model, xw, *rest: stepped.append(len(xw)) or step(model, xw, *rest))
    monkeypatch.setattr(models, "ROW_CAP", 2)
    trips = [[START, 1, 2, END], [START, 1]]
    forks = [models.Fork(0, 2, range(200), 12), models.Fork(1, 2, range(200, 400), 12),
             models.Fork(0, 1, range(50), 6)]
    rows = rows_of(models.sample_forks(overfit_model, trips, None, forks), len(forks))
    nodes = {(f, ids[:j]) for f, fork_rows in enumerate(rows) for ids in fork_rows for j in range(1, len(ids))}
    assert sum(stepped) == len(nodes)
    assert max(stepped) <= 2
    assert 5 * len(nodes) < sum(len(ids) - 1 for fork_rows in rows for ids in fork_rows)  # rows do repeat


def test_sample_forks_rejects_forks_outside_the_sequences(overfit_model):
    trips = [[START, 1, 2], [START, 2]]
    good = models.Fork(1, 2, [5], 6)
    for bad, named in ((models.Fork(-1, 2, [5], 6), "trip=-1"), (models.Fork(2, 1, [5], 6), "trip=2"),
                       (models.Fork(1, 3, [5], 6), "n=3"), (models.Fork(0, 0, [5], 6), "n=0")):
        with pytest.raises(ValueError, match=f"^fork 1: .*{named}"):
            models.sample_forks(overfit_model, trips, None, [good, bad])
    (rows,) = rows_of(models.sample_forks(overfit_model, trips, None, [models.Fork(0, 3, [5], 6)]), 1)
    assert len(rows) == 1  # the whole sequence


# Each row's uniforms come from a counter-based hash of its key and the
# token's position (SplitMix64's finalizer), which these tests hold to a
# reference in plain Python ints and to fixed statistical bounds on a fixed
# sample.

EDGE_KEYS = [0, 1, 2**32 - 1, 2**63, 2**64 - 1]


def _uniforms(keys, positions):
    return models._uniforms(np.array(keys, dtype=np.uint64), np.array(positions, dtype=np.uint64))


def _reference(keys, positions):
    return np.array([uniform_oracle(int(k), int(p)) for k, p in zip(keys, positions)])


def test_splitmix64_reference_matches_published_outputs():
    # the first outputs of SplitMix64 seeded with 0
    assert [splitmix64_oracle(i * GOLDEN_GAMMA) for i in (1, 2, 3)] == \
        [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_uniforms_match_python_reference_on_5000_keys():
    keys = np.random.default_rng(2024).integers(0, 2**64, 5000, dtype=np.uint64)
    keys, positions = np.repeat(keys, 6), np.tile(np.arange(6, dtype=np.uint64), 5000)
    np.testing.assert_array_equal(_uniforms(keys, positions).view(np.uint64),
                                  _reference(keys, positions).view(np.uint64))


def test_uniforms_match_python_reference_on_edge_keys():
    keys = np.repeat(np.array(EDGE_KEYS, dtype=np.uint64), 20)
    positions = np.tile(np.arange(20), len(EDGE_KEYS))
    got = _uniforms(keys, positions)
    np.testing.assert_array_equal(got.view(np.uint64), _reference(keys, positions).view(np.uint64))
    assert got.min() >= 0.0 and got.max() < 1.0


@settings(deadline=None, max_examples=100)
@given(pairs=st.lists(st.tuples(st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1)), min_size=1, max_size=6))
def test_uniforms_match_python_reference_on_any_keys(pairs):
    keys, positions = zip(*pairs)
    np.testing.assert_array_equal(_uniforms(keys, positions).view(np.uint64),
                                  _reference(keys, positions).view(np.uint64))


def test_seeds_outside_uint64_raise(overfit_model):
    for bad in (-1, 2**64):
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            generate_batch(overfit_model, [START], [3, bad], max_len=10)
        with pytest.raises(ValueError, match=r"\[0, 2\*\*64\)"):
            models.sample_forks(overfit_model, [[START, 1]], None,
                                [models.Fork(0, 2, [5], 6), models.Fork(0, 1, [bad], 6)])
    assert generate_batch(overfit_model, [START], [2**64 - 1], max_len=10)  # the largest key


def test_uniforms_are_uniform_over_64_bins():
    # 2**16 draws: 256 consecutive keys at 256 consecutive positions; the
    # bound is the 99.9% point of chi-square with 63 degrees of freedom
    keys, positions = np.repeat(np.arange(256), 256), np.tile(np.arange(256), 256)
    counts = np.bincount((_uniforms(keys, positions) * 64).astype(int), minlength=64)
    expected = 2**16 / 64
    assert len(counts) == 64
    assert ((counts - expected) ** 2 / expected).sum() < 103.44


def test_neighbouring_keys_and_positions_are_uncorrelated():
    # 2**16 pairs each: keys k and k + 1 at one position, and positions j and
    # j + 1 of one key; |r| of independent draws is about 0.004 here
    k = np.arange(2**16)
    across_keys = np.corrcoef(_uniforms(k, np.full(k.size, 7)), _uniforms(k + 1, np.full(k.size, 7)))[0, 1]
    key = np.full(k.size, 0x5DEECE66D)
    along_positions = np.corrcoef(_uniforms(key, k), _uniforms(key, k + 1))[0, 1]
    assert abs(across_keys) < 0.02
    assert abs(along_positions) < 0.02


def test_generate_takes_int_seeds_only(overfit_model):
    with pytest.raises(TypeError):
        generate_batch(overfit_model, [START], [np.random.default_rng(0)], max_len=10)
    with pytest.raises(TypeError):
        generate_batch(overfit_model, [START], [1, np.random.default_rng(0)], max_len=10)
    assert generate_batch(overfit_model, [START], [np.int64(42)], max_len=10)[0].tokens == \
        generate_batch(overfit_model, [START], [42], max_len=10)[0].tokens


def test_generate_without_seeds_samples_nothing(overfit_model):
    assert generate_batch(overfit_model, [START], [], max_len=10) == []
    ids, fork, leaf = models.sample_forks(overfit_model, [[START, 1]], None, [models.Fork(0, 2, [], 6)] * 2)
    assert ids.size == fork.size == leaf.size == 0
    rows, none = rows_of(models.sample_forks(overfit_model, [[START, 1]], None,
                                             [models.Fork(0, 2, [3, 4], 6), models.Fork(0, 1, [], 6)]), 2)
    assert len(rows) == 2 and none == []


def test_generate_max_len_cap():
    assert models.default_max_len(5) == 20
    assert models.default_max_len(60) == 100


# ---------------------------------------------------------------------------
# checkpoints


RNN_META = {"kind": "rnn", "dims": {"d_e": 3, "d_h": 4, "d_f": None, "d_a": None}, "cells": [1, 2, 3, 4]}


@pytest.mark.parametrize("change, match", [
    ({"kind": "gru"}, "unknown model kind 'gru'"),
    ({"kind": None}, "unknown model kind None"),
    ({"kind": ["rnn"]}, r"unknown model kind \['rnn'\]"),
    ({"cells": None}, "malformed model meta: KeyError: 'cells'"),
    ({"cells": [1, 2, 3.5, 4]}, "malformed model meta: ValueError: cells must be a list of ints"),
    ({"cells": "1234"}, "malformed model meta: ValueError: cells must be a list of ints"),
    ({"cells": [0, 1, 2, 3]}, "malformed model meta: ValueError: cell indices must be >= 1"),
    ({"dims": None}, "malformed model meta: KeyError: 'dims'"),
    ({"dims": [3, 4]}, "malformed model meta: TypeError"),
    ({"dims": {"d_e": 3}}, "malformed model meta: TypeError"),
    ({"dims": {"d_e": 3, "d_h": 4, "d_x": 1}}, "malformed model meta: TypeError"),
    ({"dims": {"d_e": 3, "d_h": "4"}}, "malformed model meta: TypeError"),
    ({"dims": {"d_e": 3, "d_h": 4.0}}, "malformed model meta: ValueError: dims must be ints >= 1"),
    ({"dims": {"d_e": 3, "d_h": 4, "d_f": 0}}, "malformed model meta: ValueError: dims must be ints >= 1"),
    ({"kind": "arnn"}, r"parameter 'attn_U' has shape None; an arnn model of its dims and cells has \(4, 4\)"),
    ({"dims": {"d_e": 3, "d_h": 5}}, r"parameter 'dec_W' has shape \(4, 6\); an rnn model .* has \(5, 6\)"),
    ({"cells": [1, 2, 3, 4, 5]}, r"parameter 'dec_W' has shape \(4, 6\); an rnn model .* has \(4, 7\)"),
])
def test_load_model_rejects_malformed_meta(tmp_path, change, match):
    model = RnnModel.init(Vocab(RNN_META["cells"]), ModelDims(d_e=3, d_h=4), seed=0)
    meta = {name: value for name, value in {**RNN_META, **change}.items() if value is not None}
    path = tmp_path / "m.ckpt"
    nncore.save_checkpoint(path, model.params, meta)
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: {match}"):
        models.load_model(path)


def test_load_model_rejects_rnn_meta_over_arnn_parameters(tmp_path):
    model = ArnnModel.init(Vocab(RNN_META["cells"]), ModelDims(d_e=3, d_h=4), seed=0)
    path = tmp_path / "m.ckpt"
    nncore.save_checkpoint(path, model.params, RNN_META)
    with pytest.raises(ValueError, match=re.escape(f"{path}: parameter 'attn_U' has shape (4, 4); an rnn model")):
        models.load_model(path)
    nncore.save_checkpoint(path, model.params, {**RNN_META, "kind": "arnn"})
    assert isinstance(models.load_model(path)[0], ArnnModel)


def test_model_checkpoint_roundtrip(tmp_path, small_vocab):
    dims = ModelDims(d_e=3, d_h=4, d_f=2, d_a=2)
    model = ArnnModel.init(small_vocab, dims, seed=11)
    path = tmp_path / "m.ckpt"
    models.save_model(path, model, {"epoch": 3})
    loaded, meta = models.load_model(path)
    assert isinstance(loaded, ArnnModel)
    assert meta["epoch"] == 3
    assert loaded.vocab == model.vocab
    traffic = random_traffic(3, seed=1)
    a, _ = unroll(model, [START, 2], traffic)
    b, _ = unroll(loaded, [START, 2], traffic)
    np.testing.assert_array_equal(a, b)
