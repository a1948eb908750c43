"""Cells, BPTT, optimizer, serialization and the training loop."""

import math

import numpy as np
import pytest

from gradcheck import finite_difference_check

from coldflow.neural import (
    AdamState,
    DivergedLoss,
    ModelArtifact,
    NetworkSpec,
    TrainConfig,
    adam_step,
    cce_loss,
    clip_gradients,
    forward,
    from_bytes,
    global_norm,
    init_params,
    lstm_forward,
    mae_loss,
    predict_labels,
    predict_values,
    rnn_forward,
    to_bytes,
    train,
)


def test_rnn_step_hand_oracle():
    W = np.array([[0.5, -0.3]])
    b = np.array([0.2])
    a, _ = rnn_forward(W, b, np.array([[0.1]]), np.array([[0.7]]))
    expected = math.tanh(0.5 * 0.1 + (-0.3) * 0.7 + 0.2)
    assert a[0, 0] == pytest.approx(expected, rel=1e-15)


def test_lstm_step_hand_oracle():
    # Gate rows: candidate, update, forget, output. Expected values are
    # recomputed here from the textbook equations with 1/(1+exp(-x)).
    W = np.array([[0.4, -0.2], [0.3, 0.1], [-0.5, 0.6], [0.2, 0.2]])
    b = np.array([0.01, -0.02, 0.03, -0.04])
    a_prev, c_prev, x = 0.1, 0.2, 0.7

    def sig(v):
        return 1.0 / (1.0 + math.exp(-v))

    cand = math.tanh(0.4 * a_prev + (-0.2) * x + 0.01)
    u = sig(0.3 * a_prev + 0.1 * x - 0.02)
    f = sig(-0.5 * a_prev + 0.6 * x + 0.03)
    o = sig(0.2 * a_prev + 0.2 * x - 0.04)
    c = u * cand + f * c_prev
    expected_a = o * math.tanh(c)

    a, c_out, _ = lstm_forward(
        W, b, np.array([[a_prev]]), np.array([[c_prev]]), np.array([[x]])
    )
    assert c_out[0, 0] == pytest.approx(c, rel=1e-12)
    assert a[0, 0] == pytest.approx(expected_a, rel=1e-12)


def test_gradcheck_rnn_linear():
    spec = NetworkSpec(cell="rnn", layers=1, hidden=4, features=3, outputs=1, head="linear")
    result = finite_difference_check(spec, seed=0, batch=3, steps=5)
    assert result.max_rel_error < 1e-4
    assert result.coordinates == 4 * 7 + 4 + 4 + 1


def test_gradcheck_lstm_softmax_stacked():
    spec = NetworkSpec(cell="lstm", layers=2, hidden=3, features=2, outputs=3, head="softmax")
    result = finite_difference_check(spec, seed=1, batch=3, steps=4)
    assert result.max_rel_error < 1e-4


def test_gradcheck_error_grows_with_epsilon():
    spec = NetworkSpec(cell="lstm", layers=1, hidden=3, features=2, outputs=1, head="linear")
    fine = finite_difference_check(spec, seed=2, epsilon=1e-5)
    coarse = finite_difference_check(spec, seed=2, epsilon=1e-3)
    assert fine.max_rel_error < 1e-4
    assert coarse.max_rel_error > fine.max_rel_error


def test_losses():
    loss, grad = mae_loss(np.array([[2.0], [5.0]]), np.array([3.0, 3.0]))
    assert loss == pytest.approx(1.5)
    assert grad.reshape(-1).tolist() == [-0.5, 0.5]

    logits = np.array([[2.0, 0.0], [0.0, 2.0]])
    labels = np.array([0, 0])
    loss, grad = cce_loss(logits, labels)
    p0 = math.exp(2.0) / (math.exp(2.0) + 1.0)
    p1 = 1.0 / (1.0 + math.exp(2.0))
    assert loss == pytest.approx(-(math.log(p0) + math.log(p1)) / 2.0)
    assert grad[0, 0] == pytest.approx((p0 - 1.0) / 2.0)
    assert grad.sum() == pytest.approx(0.0, abs=1e-12)


def test_adam_two_step_oracle():
    # Constant unit gradient: bias correction makes each update exactly
    # lr * 1 / (1 + eps), so two steps move the weight by ~0.2.
    params = {"w": np.array([1.0])}
    state = AdamState(params)
    for _ in range(2):
        adam_step(params, {"w": np.array([1.0])}, state, 0.1)
    assert params["w"][0] == pytest.approx(0.8, abs=1e-6)
    assert state.step == 2


def test_clip_gradients():
    grads = {"a": np.array([3.0, 4.0])}
    norm = clip_gradients(grads, max_norm=2.5)
    assert norm == pytest.approx(5.0)
    assert grads["a"].tolist() == pytest.approx([1.5, 2.0])
    assert global_norm(grads) == pytest.approx(2.5)

    grads = {"a": np.array([0.3, 0.4])}
    clip_gradients(grads, max_norm=2.5)
    assert grads["a"].tolist() == [0.3, 0.4]


def test_network_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec(cell="gru", layers=1, hidden=2, features=2, outputs=1, head="linear")
    with pytest.raises(ValueError):
        NetworkSpec(cell="rnn", layers=0, hidden=2, features=2, outputs=1, head="linear")
    spec = NetworkSpec(cell="rnn", layers=1, hidden=2, features=2, outputs=1, head="linear")
    with pytest.raises(ValueError):
        forward(init_params(spec, 0), spec, np.zeros((1, 3, 5)))


def test_lstm_forget_bias_starts_at_one():
    spec = NetworkSpec(cell="lstm", layers=2, hidden=4, features=3, outputs=1, head="linear")
    params = init_params(spec, 7)
    for layer in (0, 1):
        b = params[f"lstm{layer}_b"]
        assert b[8:12].tolist() == [1.0] * 4
        assert b[:8].tolist() == [0.0] * 8 and b[12:].tolist() == [0.0] * 4


def make_artifact(seed=0, classes=None):
    spec = NetworkSpec(cell="lstm", layers=2, hidden=5, features=3,
                       outputs=2 if classes else 1,
                       head="softmax" if classes else "linear")
    return ModelArtifact(
        spec=spec,
        params=init_params(spec, seed),
        feature_mean=np.array([0.5, -1.0, 2.0]),
        feature_std=np.array([1.5, 2.0, 0.1]),
        target_mean=1800.0,
        target_std=420.5,
        classes=classes,
        meta={"note": "roundtrip", "lead_seconds": 120},
    )


def test_serialize_roundtrip_bit_identical():
    artifact = make_artifact(classes=("fault", "no_fault"))
    blob = to_bytes(artifact)
    assert to_bytes(artifact) == blob

    back = from_bytes(blob)
    assert back.spec == artifact.spec
    assert back.classes == artifact.classes
    assert back.meta == artifact.meta
    assert back.target_mean == artifact.target_mean
    assert back.target_std == artifact.target_std
    assert sorted(back.params) == sorted(artifact.params)
    for name, value in artifact.params.items():
        assert np.array_equal(back.params[name], value)
    assert np.array_equal(back.feature_mean, artifact.feature_mean)
    assert to_bytes(back) == blob


def test_serialize_rejects_bad_blobs():
    blob = to_bytes(make_artifact())
    with pytest.raises(ValueError):
        from_bytes(b"gibberish" + blob)
    with pytest.raises(ValueError):
        from_bytes(blob[:-8])
    with pytest.raises(ValueError):
        from_bytes(blob + b"\x00" * 8)


def regression_problem(n=400, steps=6, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.normal(0.0, 1.0, (n, steps, 2))
    y = 1800.0 + 400.0 * X[:, :, 0].mean(axis=1) + 5.0 * rng.normal(size=n)
    return X, y


def test_training_regression_learns_and_reports_original_units():
    X, y = regression_problem()
    config = TrainConfig(cell="rnn", layers=1, hidden=8, task="regression",
                         epochs=20, learning_rate=3e-3, seed=1)
    result = train(X, y, config)
    assert len(result.history) == 20
    baseline = float(np.mean(np.abs(y - y.mean())))
    assert result.history[0].val_loss > 0.3 * baseline
    assert result.history[-1].val_loss < 0.5 * baseline
    assert result.history[-1].val_accuracy is None

    preds = predict_values(result.artifact, X)
    mae = float(np.mean(np.abs(preds - y)))
    assert mae < 0.5 * baseline
    # Predictions come back in seconds, not z-scores.
    assert abs(np.mean(preds) - np.mean(y)) < 200.0


def test_training_is_deterministic():
    X, y = regression_problem(n=120)
    config = TrainConfig(cell="lstm", layers=1, hidden=6, epochs=3, seed=9)
    first = train(X, y, config)
    second = train(X, y, config)
    assert to_bytes(first.artifact) == to_bytes(second.artifact)
    assert first.history == second.history
    third = train(X, y, TrainConfig(cell="lstm", layers=1, hidden=6, epochs=3, seed=10))
    assert to_bytes(third.artifact) != to_bytes(first.artifact)


def test_training_classification():
    rng = np.random.default_rng(3)
    n = 300
    X = rng.normal(0.0, 1.0, (n, 6, 2))
    shift = np.where(rng.random(n) < 0.5, 1.2, -1.2)
    X[:, :, 0] += shift[:, None]
    labels = ["warm" if s > 0 else "cold" for s in shift]
    config = TrainConfig(cell="lstm", layers=1, hidden=8, task="classification",
                         epochs=10, learning_rate=3e-3, seed=4)
    result = train(X, labels, config)
    assert result.artifact.classes == ("cold", "warm")
    assert result.history[-1].val_accuracy >= 0.95

    predicted, probs = predict_labels(result.artifact, X)
    assert set(predicted) <= {"cold", "warm"}
    assert probs.shape == (n, 2)
    assert np.allclose(probs.sum(axis=1), 1.0)
    accuracy = np.mean([p == t for p, t in zip(predicted, labels)])
    assert accuracy >= 0.95


def test_training_diverged_loss_surfaces():
    X, y = regression_problem(n=60)
    X[10, 2, 1] = float("nan")
    with pytest.raises(DivergedLoss):
        train(X, y, TrainConfig(cell="rnn", layers=1, hidden=4, epochs=2, seed=0))


def test_predict_matches_batched_forward():
    X, y = regression_problem(n=50)
    config = TrainConfig(cell="lstm", layers=1, hidden=6, epochs=2, seed=2)
    artifact = train(X, y, config).artifact
    loop = predict_values(artifact, X)
    Xs = (X - artifact.feature_mean) / artifact.feature_std
    batched, _ = forward(artifact.params, artifact.spec, Xs)
    batched = batched.reshape(-1) * artifact.target_std + artifact.target_mean
    assert np.allclose(loop, batched, rtol=1e-10, atol=1e-8)


def test_train_input_validation():
    with pytest.raises(ValueError):
        train(np.zeros((4, 3)), np.zeros(4), TrainConfig())
    with pytest.raises(ValueError):
        train(np.zeros((4, 3, 2)), ["same"] * 4,
              TrainConfig(task="classification", epochs=1))
    with pytest.raises(ValueError):
        train(np.zeros((4, 3, 2)), np.zeros(4), TrainConfig(task="poetry"))
