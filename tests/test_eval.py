"""Feature extraction, probe fitting, and metric-oracle tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eegssl.config import RunConfig
from eegssl.data import SegmentBatch
from eegssl.encoder import EncoderConfig
from eegssl.errors import ValidationError
from eegssl.evaluate import (FeatureSet, compute_metrics, extract_features,
                             fit_probe, predict_scores)
from eegssl.trainer import init_train_state, make_checkpoint

ENC = EncoderConfig(d=16, layers=1, heads=4, mlp_ratio=2.0, p_t=8,
                    in_channels=4, mapped_channels=4, n_t=4, stem_kernel=7)


def oracle_metrics(pred, truth):
    """Brute-force confusion-matrix metrics."""
    classes = sorted(set(truth.tolist()))
    k = len(classes)
    n = len(truth)
    cm = np.zeros((k, k))
    for t, p in zip(truth, pred):
        cm[classes.index(t), classes.index(p)] += 1
    recalls = [cm[i, i] / cm[i].sum() for i in range(k)]
    ba = float(np.mean(recalls))
    p_o = np.trace(cm) / n
    p_e = sum(cm[i].sum() * cm[:, i].sum() for i in range(k)) / n ** 2
    kappa = (p_o - p_e) / (1 - p_e)
    f1_sum = 0.0
    for i in range(k):
        tp = cm[i, i]
        denom = cm[i].sum() + cm[:, i].sum()
        f1 = 2 * tp / denom if denom else 0.0
        f1_sum += f1 * cm[i].sum()
    return ba, float(kappa), float(f1_sum / n)


def oracle_auroc(positive, scores):
    """Pairwise comparison counting ties as half."""
    pos = scores[positive]
    neg = scores[~positive]
    wins = 0.0
    for p in pos:
        for q in neg:
            if p > q:
                wins += 1.0
            elif p == q:
                wins += 0.5
    return wins / (len(pos) * len(neg))


# --- features ---------------------------------------------------------------------

def labeled_batch(n=6, seed=0):
    rng = np.random.default_rng(seed)
    segs = rng.standard_normal((n, ENC.in_channels, ENC.segment_samples)).astype(np.float32)
    labels = np.arange(n) % 2
    return SegmentBatch(segments=segs, sample_rate_hz=256.0, labels=labels)


def fresh_checkpoint():
    """The checkpoint of an untrained ENC run."""
    state = init_train_state(RunConfig(seed=1, encoder=ENC), steps_per_epoch=1)
    return make_checkpoint(state, step=0)


def test_feature_shape_and_determinism():
    batch = labeled_batch()
    ckpt = fresh_checkpoint()
    a = extract_features(batch, ckpt, ENC)
    b = extract_features(batch, ckpt, ENC)
    assert a.features.shape == (6, ENC.d)
    assert a.features.tobytes() == b.features.tobytes()


def test_identical_segments_identical_rows():
    batch = labeled_batch()
    batch.segments[3] = batch.segments[0]
    ckpt = fresh_checkpoint()
    feats = extract_features(batch, ckpt, ENC)
    np.testing.assert_array_equal(feats.features[0], feats.features[3])


def test_permuting_segments_permutes_rows():
    batch = labeled_batch()
    ckpt = fresh_checkpoint()
    feats = extract_features(batch, ckpt, ENC)
    perm = np.array([4, 2, 0, 5, 1, 3])
    permuted = SegmentBatch(segments=batch.segments[perm],
                            sample_rate_hz=256.0, labels=batch.labels[perm])
    feats_p = extract_features(permuted, ckpt, ENC)
    np.testing.assert_array_equal(feats_p.features, feats.features[perm])


# --- probe -------------------------------------------------------------------------

def separable_features(n_per=40, d=8, margin=1.0, seed=0):
    rng = np.random.default_rng(seed)
    direction = np.zeros(d)
    direction[0] = 1.0
    x0 = rng.standard_normal((n_per, d)) * 0.2 - margin * direction
    x1 = rng.standard_normal((n_per, d)) * 0.2 + margin * direction
    x = np.concatenate([x0, x1])
    y = np.array([0] * n_per + [1] * n_per)
    return FeatureSet(x, y)


def test_separable_reaches_perfect_training_accuracy():
    train = separable_features()
    probe = fit_probe(train, epochs=500, seed=0)
    scores = predict_scores(probe, train.features)
    pred = probe.classes[np.argmax(scores, axis=1)]
    ba, _, _ = oracle_metrics(pred, train.labels)
    assert ba == 1.0


def test_shuffled_labels_stay_near_chance():
    rng = np.random.default_rng(1)
    train = separable_features(n_per=100, seed=2)
    shuffled = FeatureSet(train.features, rng.permutation(train.labels))
    probe = fit_probe(shuffled, epochs=300, seed=0)
    holdout = separable_features(n_per=100, seed=3)
    scores = predict_scores(probe, holdout.features)
    pred = probe.classes[np.argmax(scores, axis=1)]
    ba, _, _ = oracle_metrics(pred, holdout.labels)
    assert 0.35 <= ba <= 0.65


def test_same_seed_identical_weights():
    train = separable_features()
    a = fit_probe(train, epochs=50, seed=7)
    b = fit_probe(train, epochs=50, seed=7)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()


def test_single_class_rejected():
    with pytest.raises(ValidationError):
        fit_probe(FeatureSet(np.zeros((4, 3)), np.zeros(4, int)), epochs=10, seed=0)


def test_multiclass_probe_runs():
    rng = np.random.default_rng(4)
    x = np.concatenate([rng.standard_normal((30, 4)) + 3 * np.eye(4)[i, :]
                        for i in range(3)])
    y = np.repeat([0, 1, 2], 30)
    probe = fit_probe(FeatureSet(x, y), epochs=300, seed=0)
    scores = predict_scores(probe, x)
    assert scores.shape == (90, 3)
    np.testing.assert_allclose(scores.sum(axis=1), 1.0, rtol=1e-9)


# --- metrics ------------------------------------------------------------------------

def test_perfect_predictions():
    truth = np.array([0, 1, 0, 1, 1])
    scores = np.eye(2)[truth]
    rep = compute_metrics(scores, truth)
    assert (rep.balanced_accuracy, rep.cohens_kappa, rep.weighted_f1,
            rep.auroc) == (1.0, 1.0, 1.0, 1.0)


def test_all_one_class_on_balanced_binary():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([1, 1, 1, 1])
    rep = compute_metrics(pred, truth)
    assert rep.balanced_accuracy == 0.5
    assert rep.cohens_kappa == 0.0
    assert rep.auroc is None


def test_confusion_4132_example():
    # confusion matrix [[4,1],[2,3]] -> BA = (4/5 + 3/5)/2 = 0.7
    truth = np.array([0] * 5 + [1] * 5)
    pred = np.array([0, 0, 0, 0, 1, 0, 0, 1, 1, 1])
    rep = compute_metrics(pred, truth)
    assert rep.balanced_accuracy == pytest.approx(0.7)
    ba, kappa, f1 = oracle_metrics(pred, truth)
    assert rep.cohens_kappa == pytest.approx(kappa)
    assert rep.weighted_f1 == pytest.approx(f1)


def test_argmax_tie_breaks_to_lowest_class():
    truth = np.array([0, 1])
    scores = np.array([[0.5, 0.5], [0.5, 0.5]])
    rep = compute_metrics(scores, truth)
    # both predicted as class 0
    assert rep.balanced_accuracy == 0.5


def test_ba_equals_accuracy_when_balanced():
    truth = np.array([0, 0, 1, 1])
    pred = np.array([0, 1, 1, 0])
    rep = compute_metrics(pred, truth)
    assert rep.balanced_accuracy == pytest.approx((pred == truth).mean())


def test_auroc_rank_oracle_with_ties():
    truth = np.array([0, 0, 1, 1, 0, 1])
    s_pos = np.array([0.1, 0.4, 0.4, 0.9, 0.2, 0.4])
    scores = np.stack([1 - s_pos, s_pos], axis=1)
    rep = compute_metrics(scores, truth)
    assert rep.auroc == pytest.approx(oracle_auroc(truth == 1, s_pos))


def test_auroc_invariant_under_monotone_transform():
    rng = np.random.default_rng(5)
    truth = rng.integers(0, 2, 40)
    truth[:2] = [0, 1]
    s = rng.random(40)
    for transform in (lambda x: x, np.exp, lambda x: x ** 3 + 5):
        scores = np.stack([1 - transform(s), transform(s)], axis=1)
        rep = compute_metrics(scores, truth)
        base = np.stack([1 - s, s], axis=1)
        assert rep.auroc == pytest.approx(compute_metrics(base, truth).auroc)


def test_macro_ovr_multiclass_auroc():
    truth = np.array([0, 1, 2, 0, 1, 2])
    rng = np.random.default_rng(6)
    scores = rng.random((6, 3))
    rep = compute_metrics(scores, truth)
    expected = np.mean([oracle_auroc(truth == c, scores[:, c]) for c in range(3)])
    assert rep.auroc == pytest.approx(expected)


def test_single_class_truth_rejected():
    with pytest.raises(ValidationError):
        compute_metrics(np.array([0, 0]), np.array([0, 0]))


def test_prediction_outside_universe_rejected():
    with pytest.raises(ValidationError):
        compute_metrics(np.array([0, 2]), np.array([0, 1]))


def test_length_mismatch_rejected():
    with pytest.raises(ValidationError):
        compute_metrics(np.array([0, 1, 0]), np.array([0, 1]))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(2, 4), st.integers(5, 50))
def test_label_permutation_equivariance(seed, k, n):
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, k, n)
    truth[:k] = np.arange(k)  # every class present
    pred = rng.integers(0, k, n)
    rep = compute_metrics(pred, truth)
    perm = rng.permutation(k)
    rep_p = compute_metrics(perm[pred], perm[truth])
    assert rep_p.balanced_accuracy == pytest.approx(rep.balanced_accuracy)
    assert rep_p.cohens_kappa == pytest.approx(rep.cohens_kappa)
    assert rep_p.weighted_f1 == pytest.approx(rep.weighted_f1)


def test_metrics_report_json():
    rep = compute_metrics(np.array([0, 1]), np.array([0, 1]))
    import json
    parsed = json.loads(rep.to_json())
    assert parsed["balanced_accuracy"] == 1.0 and parsed["auroc"] is None
