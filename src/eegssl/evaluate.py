"""Frozen-feature extraction, linear probing, and classification metrics.

Features are mean-pooled target-encoder tokens (no masking), encoded one
micro-batch of at most 1024 tokens at a time (`encoder.micro_batches`, the
slices the training step uses), so the encoder's buffers stay the size of
one micro-batch whatever the number of segments. The probe is
multinomial logistic regression trained by full-batch gradient descent on
internally standardized features; the standardization is folded back into
the returned weights so the probe stays a plain linear classifier.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np
from scipy.stats import rankdata

from .data import Checkpoint, SegmentBatch, check_layout
from .encoder import (EncoderConfig, forward_tokens, init_param_store,
                      micro_batches, patch_grid, wrap_constants)
from .errors import ValidationError
from .seeding import TAG_PROBE, make_rng


@dataclass(eq=False)
class FeatureSet:
    features: np.ndarray  # (n, d)
    labels: np.ndarray    # (n,)

    def __post_init__(self):
        self.features = np.asarray(self.features, dtype=float)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        if self.features.ndim != 2:
            raise ValidationError("features must be 2-D (segments x width)")
        if self.labels.shape != (self.features.shape[0],):
            raise ValidationError("labels must align 1:1 with feature rows")
        if not np.isfinite(self.features).all():
            raise ValidationError("features contain non-finite values")

    def __len__(self):
        return self.features.shape[0]


@dataclass(frozen=True)
class MetricsReport:
    balanced_accuracy: float
    cohens_kappa: float
    weighted_f1: float
    auroc: Optional[float]  # None when only hard labels were supplied

    def __post_init__(self):
        if not (0.0 <= self.balanced_accuracy <= 1.0):
            raise ValidationError("balanced accuracy out of range")
        if not (-1.0 <= self.cohens_kappa <= 1.0):
            raise ValidationError("kappa out of range")
        if not (0.0 <= self.weighted_f1 <= 1.0):
            raise ValidationError("weighted F1 out of range")
        if self.auroc is not None and not (0.0 <= self.auroc <= 1.0):
            raise ValidationError("AUROC out of range")

    def to_json(self) -> str:
        return json.dumps(asdict(self))


@dataclass(frozen=True)
class LinearProbe:
    weights: np.ndarray  # (d, n_classes)
    bias: np.ndarray     # (n_classes,)
    classes: np.ndarray  # label value per column


def extract_features(batch: SegmentBatch, checkpoint: Checkpoint,
                     cfg: EncoderConfig) -> FeatureSet:
    """Target-encoder forward without masking, mean over tokens per segment."""
    check_layout(checkpoint.xi, init_param_store(cfg, seed=0), "xi")
    if batch.labels is None:
        raise ValidationError("feature extraction needs labeled segments")
    x = np.ascontiguousarray(batch.segments, dtype=checkpoint.xi["channel_map"].dtype)
    params = wrap_constants(checkpoint.xi)
    rows = []
    for part in micro_batches(x.shape[0], cfg):
        patches = patch_grid(params, x[part], cfg)
        rows.append(forward_tokens(params, patches, None, cfg).data.mean(axis=1))
    return FeatureSet(features=np.concatenate(rows, axis=0), labels=batch.labels)


def _one_hot(indices: np.ndarray, n_classes: int) -> np.ndarray:
    out = np.zeros((indices.size, n_classes))
    out[np.arange(indices.size), indices] = 1.0
    return out


def _softmax_rows(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def fit_probe(train: FeatureSet, epochs: int = 500, seed: int = 0,
              lr: float = 0.5) -> LinearProbe:
    """Full-batch gradient descent on the multinomial logistic loss."""
    classes = np.unique(train.labels)
    if classes.size < 2:
        raise ValidationError("probe training needs at least 2 classes")
    x = train.features
    y = _one_hot(np.searchsorted(classes, train.labels), classes.size)

    mu = x.mean(axis=0)
    sigma = x.std(axis=0)
    sigma = np.where(sigma < 1e-12, 1.0, sigma)
    xs = (x - mu) / sigma

    rng = make_rng(seed, TAG_PROBE)
    w = 0.01 * rng.standard_normal((x.shape[1], classes.size))
    b = np.zeros(classes.size)
    n = x.shape[0]
    for _ in range(epochs):
        p = _softmax_rows(xs @ w + b)
        delta = (p - y) / n
        w = w - lr * (xs.T @ delta)
        b = b - lr * delta.sum(axis=0)

    # fold the standardization into the linear map
    w_raw = w / sigma[:, None]
    b_raw = b - mu @ w_raw
    return LinearProbe(weights=w_raw, bias=b_raw, classes=classes)


def predict_scores(probe: LinearProbe, features: np.ndarray) -> np.ndarray:
    """Class probabilities (n, n_classes), columns ordered as probe.classes."""
    features = np.asarray(features, dtype=float)
    return _softmax_rows(features @ probe.weights + probe.bias)


# --- metrics -----------------------------------------------------------------

def _binary_auroc(positive: np.ndarray, scores: np.ndarray) -> float:
    """Rank-statistic AUROC with ties counted half."""
    n_pos = int(positive.sum())
    n_neg = positive.size - n_pos
    ranks = rankdata(scores, method="average")
    rank_sum = ranks[positive].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def compute_metrics(predicted: np.ndarray, truth: np.ndarray) -> MetricsReport:
    """Balanced accuracy, Cohen's kappa, weighted F1, and AUROC.

    `predicted` is either hard class labels (1-D integers; AUROC omitted) or
    a score matrix (n, n_classes) whose columns follow sorted(unique(truth)).
    Argmax ties resolve to the lowest class index.
    """
    truth = np.asarray(truth)
    if truth.ndim != 1 or truth.size < 1:
        raise ValidationError("truth must be a non-empty 1-D label array")
    classes = np.unique(truth)
    if classes.size < 2:
        raise ValidationError("kappa and AUROC undefined for single-class truth")

    predicted = np.asarray(predicted)
    scores = None
    if predicted.ndim == 2:
        if predicted.shape != (truth.size, classes.size):
            raise ValidationError(
                f"scores must have shape ({truth.size}, {classes.size})")
        scores = np.asarray(predicted, dtype=float)
        pred_labels = classes[np.argmax(scores, axis=1)]
    elif predicted.ndim == 1:
        if predicted.size != truth.size:
            raise ValidationError("predicted and truth lengths differ")
        pred_labels = predicted
        unknown = set(np.unique(pred_labels)) - set(classes.tolist())
        if unknown:
            raise ValidationError(
                f"predicted classes {sorted(unknown)} outside the truth label universe")
    else:
        raise ValidationError("predicted must be 1-D labels or a 2-D score matrix")

    n = truth.size
    k = classes.size
    index = {c: i for i, c in enumerate(classes.tolist())}
    confusion = np.zeros((k, k), dtype=np.int64)
    for t, p in zip(truth.tolist(), pred_labels.tolist()):
        confusion[index[t], index[p]] += 1

    support = confusion.sum(axis=1)
    predicted_count = confusion.sum(axis=0)
    diag = np.diag(confusion)

    recalls = diag / support  # every class present in truth, support > 0
    balanced_accuracy = float(recalls.mean())

    p_observed = float(diag.sum() / n)
    p_expected = float((support * predicted_count).sum() / (n * n))
    kappa = (p_observed - p_expected) / (1.0 - p_expected)

    f1 = np.zeros(k)
    for i in range(k):
        denom = support[i] + predicted_count[i]
        if denom > 0:
            f1[i] = 2.0 * diag[i] / denom
    weighted_f1 = float((f1 * support).sum() / n)

    auroc = None
    if scores is not None:
        if k == 2:
            auroc = _binary_auroc(truth == classes[1], scores[:, 1])
        else:
            auroc = float(np.mean([
                _binary_auroc(truth == c, scores[:, i])
                for i, c in enumerate(classes.tolist())]))

    return MetricsReport(balanced_accuracy=balanced_accuracy,
                         cohens_kappa=float(kappa),
                         weighted_f1=weighted_f1,
                         auroc=auroc)
