"""Learning-based mobility-event identification model.

The paper trains a model on Event Editor designations to identify
user-defined event patterns (stay, pass-by, ...) from positioning
snippets. We implement multinomial logistic regression on numpy with
feature standardization and L2 regularization — the training sets an
analyst can designate by hand are small, so driver-side training is the
right scale; *applying* the model runs distributed inside the
per-device stage runner's Python workers (the model object is
broadcast).
"""
from __future__ import annotations

import numpy as np
import pandas as pd

from .features import FEATURE_NAMES, feature_matrix, features_frame

#: L2 regularization weight and gradient-descent step size.
DEFAULT_L2 = 1e-3
DEFAULT_LR = 0.1


class EventModel:
    """Multinomial logistic regression over snippet features."""

    def __init__(self, *, n_iter: int = 800):
        self.n_iter = n_iter
        self.classes_: list[str] = []
        self._mu: np.ndarray | None = None
        self._sd: np.ndarray | None = None
        self._w: np.ndarray | None = None  # (d + 1, k)

    # ------------------------------------------------------------------
    def fit(self, features: pd.DataFrame, labels: pd.Series) -> "EventModel":
        """Train on a feature frame (``FEATURE_NAMES`` columns) and labels."""
        x = feature_matrix(features)
        classes, yi = np.unique(labels.to_numpy(), return_inverse=True)
        self.classes_ = classes.tolist()
        if len(self.classes_) < 2:
            # Degenerate designation set: always predict the one class.
            self._w = None
            return self
        k = len(self.classes_)
        self._mu = x.mean(axis=0)
        sd = x.std(axis=0)
        self._sd = np.where(sd > 1e-12, sd, 1.0)
        xs = (x - self._mu) / self._sd
        xs = np.hstack([xs, np.ones((len(xs), 1))])
        onehot = np.eye(k)[yi]
        rng = np.random.default_rng(0)
        w = rng.normal(0.0, 0.01, (xs.shape[1], k))
        n = len(xs)
        for _ in range(self.n_iter):
            logits = xs @ w
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            grad = xs.T @ (p - onehot) / n + DEFAULT_L2 * w
            w -= DEFAULT_LR * grad
        self._w = w
        return self

    # ------------------------------------------------------------------
    def predict_proba(self, features: pd.DataFrame) -> np.ndarray:
        """``(n, k)`` class probabilities in ``classes_`` order."""
        if not self.classes_:
            raise ValueError("model is not fitted")
        if self._w is None:  # single-class degenerate fit
            return np.ones((len(features), 1))
        x = feature_matrix(features)
        xs = (x - self._mu) / self._sd
        xs = np.hstack([xs, np.ones((len(xs), 1))])
        logits = xs @ self._w
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        return p / p.sum(axis=1, keepdims=True)

    def predict(self, features: pd.DataFrame) -> np.ndarray:
        """Predicted event label per row."""
        p = self.predict_proba(features)
        return np.array(self.classes_)[p.argmax(axis=1)]

    def accuracy(self, features: pd.DataFrame, labels: pd.Series) -> float:
        return float((self.predict(features) == labels.to_numpy()).mean())


def train_event_model(training_segments: pd.DataFrame) -> EventModel:
    """Convenience: features + fit from Event Editor ``training_segments``
    (columns ``segment_id, label, device_id, ts, x, y, floor``)."""
    feats = features_frame(training_segments)
    return EventModel().fit(feats[FEATURE_NAMES], feats["label"])
