"""Logistic regression: gradient correctness, training behavior, persistence."""

import json
from pathlib import Path

import numpy as np
import pytest

from synth import two_class_corpus
from texcorpus.cli import parse_feature_record
from texcorpus.classify import (
    FEATURE_NAMES,
    DegenerateFeatures,
    ShapeMismatch,
    SingleClass,
    TrainConfig,
    evaluate,
    features_matrix,
    fit,
    labels_for,
    loss_and_gradient,
    save_model,
    train_classifier,
    train_test_split,
    _sigmoid,
)


def numeric_gradient(weights, bias, X, y, l2, eps=1e-6):
    """Central finite differences, the slow way."""
    grad_w = np.zeros_like(weights)
    for k in range(len(weights)):
        up = weights.copy()
        down = weights.copy()
        up[k] += eps
        down[k] -= eps
        loss_up, _, _ = loss_and_gradient(up, bias, X, y, l2)
        loss_down, _, _ = loss_and_gradient(down, bias, X, y, l2)
        grad_w[k] = (loss_up - loss_down) / (2 * eps)
    loss_up, _, _ = loss_and_gradient(weights, bias + eps, X, y, l2)
    loss_down, _, _ = loss_and_gradient(weights, bias - eps, X, y, l2)
    return grad_w, (loss_up - loss_down) / (2 * eps)


class TestLossAndGradient:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(11)
        X = rng.normal(size=(40, 5))
        y = (rng.random(40) < 0.5).astype(float)
        for _ in range(20):
            w = rng.normal(scale=2.0, size=5)
            b = float(rng.normal())
            _, grad_w, grad_b = loss_and_gradient(w, b, X, y, l2=0.01)
            num_w, num_b = numeric_gradient(w, b, X, y, l2=0.01)
            np.testing.assert_allclose(grad_w, num_w, rtol=1e-5, atol=1e-8)
            assert grad_b == pytest.approx(num_b, rel=1e-5, abs=1e-8)

    def test_loss_is_stable_for_huge_logits(self):
        X = np.array([[1000.0], [-1000.0]])
        y = np.array([1.0, 0.0])
        loss, grad_w, grad_b = loss_and_gradient(
            np.array([1.0]), 0.0, X, y, l2=0.0
        )
        assert np.isfinite(loss)
        assert np.all(np.isfinite(grad_w)) and np.isfinite(grad_b)

    def test_sigmoid_stable_and_symmetric(self):
        z = np.array([-1000.0, -1.0, 0.0, 1.0, 1000.0])
        p = _sigmoid(z)
        assert np.all((p >= 0) & (p <= 1))
        assert p[2] == 0.5
        np.testing.assert_allclose(p + _sigmoid(-z), np.ones_like(z))


class TestMatrix:
    def test_column_order_matches_names(self):
        corpus = two_class_corpus(4, seed=0)
        X = features_matrix(corpus)
        assert X.shape == (4, len(FEATURE_NAMES))
        fv = corpus[0]
        expected = [
            float(fv.multi_file),
            float(fv.comment_word_count),
            float(fv.word_count),
            float(fv.package_count),
            float(fv.newcommand_count),
            float(fv.theorem_count),
            float(fv.figure_count),
            float(fv.author_count),
        ]
        np.testing.assert_array_equal(X[0], expected)

    def test_labels(self):
        corpus = two_class_corpus(4, seed=0)
        y = labels_for(corpus, "cs")
        assert y.tolist() == [1.0, 0.0, 1.0, 0.0]


class TestFit:
    def test_single_class_raises(self):
        X = np.random.default_rng(0).normal(size=(10, 3))
        with pytest.raises(SingleClass, match=r"^labels contain only 1$"):
            fit(X, np.ones(10), feature_names=("a", "b", "c"))
        with pytest.raises(SingleClass, match=r"^there are no labels$"):
            fit(X[:0], np.ones(0), feature_names=("a", "b", "c"))

    def test_all_constant_raises(self):
        X = np.ones((10, 2))
        y = np.array([0.0, 1.0] * 5)
        with pytest.raises(DegenerateFeatures):
            fit(X, y, feature_names=("a", "b"))

    def test_constant_column_keeps_zero_weight(self):
        rng = np.random.default_rng(5)
        signal = rng.normal(size=30)
        X = np.column_stack([signal, np.full(30, 7.0)])
        y = (signal > 0).astype(float)
        # at l2 = 0 the constant column would make the Hessian singular
        for l2 in (1e-3, 0.0):
            model = fit(
                X, y, feature_names=("signal", "flat"), config=TrainConfig(l2=l2)
            )
            assert model.weights[1] == 0.0
            assert np.isfinite(model.weights[0]) and model.weights[0] > 0
            assert any("flat" in d.message for d in model.diagnostics)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            fit(np.ones((4, 2)), np.array([0, 1, 0, 1]), feature_names=("a",))
        with pytest.raises(ShapeMismatch):
            fit(np.ones((4, 1)), np.array([0.0, 1.0]), feature_names=("a",))

    def test_learns_separable_data(self):
        rng = np.random.default_rng(1)
        x = np.concatenate([rng.normal(-2, 0.5, 50), rng.normal(2, 0.5, 50)])
        X = x.reshape(-1, 1)
        y = np.concatenate([np.zeros(50), np.ones(50)])
        model = fit(X, y, feature_names=("x",))
        assert model.weights[0] > 0
        predictions = model.predict(X)
        assert np.mean(predictions == y) > 0.95

    def test_halved_steps_fit_separable_data_without_penalty(self):
        # heavy-tailed and separable: here full Newton steps overshoot and
        # raise the loss above its starting value
        rng = np.random.default_rng(2)
        X = rng.exponential(size=(40, 2)) ** 3
        y = (X[:, 0] > X[:, 1]).astype(float)
        model = fit(X, y, feature_names=("a", "b"), config=TrainConfig(l2=0.0))
        assert np.all(np.isfinite(model.weights))
        assert model.final_loss < 1e-6

    def test_collinear_columns_without_penalty(self):
        # at l2 = 0 a column that mirrors another makes the Hessian singular
        rng = np.random.default_rng(4)
        x = rng.normal(size=60)
        y = (x + rng.normal(size=60) > 0).astype(float)
        model = fit(
            np.column_stack([x, -x]),
            y,
            feature_names=("x", "minus_x"),
            config=TrainConfig(l2=0.0),
        )
        assert model.weights[0] > 0
        assert model.weights[1] == pytest.approx(-model.weights[0])

    @pytest.mark.parametrize("l2", [1e15, 1e20, 1e308])
    def test_huge_penalty_still_fits_the_unpenalized_bias(self, l2):
        # the weights are held at ~0, so the bias is the log-odds of the
        # labels; an unscaled least-squares cutoff of about l2 dropped it
        X = np.random.default_rng(6).normal(size=(100, 2))
        y = np.array([1.0] * 80 + [0.0] * 20)
        model = fit(X, y, feature_names=("a", "b"), config=TrainConfig(l2=l2))
        assert model.bias == pytest.approx(np.log(80 / 20), rel=1e-6)

    def test_loss_never_increases_under_default_config(self):
        corpus = two_class_corpus(400, seed=3)
        model = train_classifier(corpus, "cs")
        losses = [
            train_classifier(corpus, "cs", TrainConfig(max_epochs=k)).final_loss
            for k in range(1, model.epochs_run + 1)
        ]
        assert losses == sorted(losses, reverse=True)
        assert losses[-1] == model.final_loss

    def test_training_is_deterministic(self):
        corpus = two_class_corpus(300, seed=2)
        one = train_classifier(corpus, "cs")
        two = train_classifier(corpus, "cs")
        np.testing.assert_array_equal(one.weights, two.weights)
        assert one.bias == two.bias
        assert one.epochs_run == two.epochs_run

    def test_predict_shape_checked(self):
        corpus = two_class_corpus(50, seed=0)
        model = train_classifier(corpus, "cs")
        with pytest.raises(ShapeMismatch):
            model.predict(np.ones((3, 2)))


def gradient_descent_loss(Xs, y, l2, learning_rate=0.5, max_epochs=5000, tol=1e-8):
    """The loss full-batch gradient descent reaches from zero weights."""
    weights, bias = np.zeros(Xs.shape[1]), 0.0
    loss, grad_w, grad_b = loss_and_gradient(weights, bias, Xs, y, l2)
    for _ in range(max_epochs):
        weights = weights - learning_rate * grad_w
        bias = bias - learning_rate * grad_b
        new_loss, grad_w, grad_b = loss_and_gradient(weights, bias, Xs, y, l2)
        if loss - new_loss < tol:
            return min(loss, new_loss)
        loss = new_loss
    return loss


def golden_features():
    entries = json.loads(
        (Path(__file__).parent / "golden_expected.json").read_text(encoding="utf-8")
    )
    return [parse_feature_record(entry["features"]) for entry in entries]


class TestOptimality:
    @pytest.mark.parametrize(
        "make_corpus, positive",
        [(lambda: two_class_corpus(10_000, seed=0), "cs"), (golden_features, "cs.AI")],
        ids=["synthetic", "golden"],
    )
    def test_fit_reaches_the_optimum(self, make_corpus, positive):
        corpus = make_corpus()
        config = TrainConfig()
        model = train_classifier(corpus, positive, config)
        Xs = (features_matrix(corpus) - model.means) / model.stds
        y = labels_for(corpus, positive)
        loss, grad_w, grad_b = loss_and_gradient(
            model.weights, model.bias, Xs, y, config.l2
        )
        assert loss == pytest.approx(model.final_loss, rel=1e-12)
        assert np.linalg.norm(np.append(grad_w, grad_b)) < 1e-6
        assert model.final_loss <= gradient_descent_loss(Xs, y, config.l2)
        assert 1 <= model.epochs_run <= 50


class TestSplit:
    def test_sizes_and_disjointness(self):
        corpus = two_class_corpus(100, seed=0)
        train, test = train_test_split(corpus, test_fraction=0.25, seed=4)
        assert len(train) == 75 and len(test) == 25
        train_ids = {fv.doc_id for fv in train}
        test_ids = {fv.doc_id for fv in test}
        assert not train_ids & test_ids
        assert len(train_ids | test_ids) == 100

    def test_deterministic_given_seed(self):
        corpus = two_class_corpus(60, seed=0)
        a = train_test_split(corpus, seed=9)
        b = train_test_split(corpus, seed=9)
        assert [fv.doc_id for fv in a[1]] == [fv.doc_id for fv in b[1]]

    def test_fraction_validated(self):
        corpus = two_class_corpus(10, seed=0)
        with pytest.raises(ValueError):
            train_test_split(corpus, test_fraction=0.0)
        with pytest.raises(ValueError):
            train_test_split(corpus, test_fraction=1.0)


class TestEvaluate:
    def test_confusion_counts_add_up(self):
        corpus = two_class_corpus(500, seed=6)
        train, test = train_test_split(corpus, seed=0)
        model = train_classifier(train, "cs")
        report = evaluate(model, test)
        total = (
            report.true_positive
            + report.true_negative
            + report.false_positive
            + report.false_negative
        )
        assert total == report.n == len(test)
        assert report.accuracy == (report.true_positive + report.true_negative) / report.n
        assert 0.5 <= report.majority_fraction <= 1.0

    def test_weight_report_sorted_by_magnitude(self):
        corpus = two_class_corpus(500, seed=6)
        model = train_classifier(corpus, "cs")
        magnitudes = [abs(w) for _, w in model.weight_report()]
        assert magnitudes == sorted(magnitudes, reverse=True)

    def test_empty_eval_rejected(self):
        corpus = two_class_corpus(50, seed=0)
        model = train_classifier(corpus, "cs")
        with pytest.raises(ValueError):
            evaluate(model, [])


class TestPersistence:
    def test_save_is_deterministic(self, tmp_path):
        corpus = two_class_corpus(100, seed=8)
        model = train_classifier(corpus, "cs")
        save_model(model, tmp_path / "a.json")
        save_model(model, tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()
