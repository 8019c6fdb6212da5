"""Streaming evaluation metrics.

Metrics accumulate over mini-batches (``update``) and report a final value
(``result``) so validation passes never need to materialize the full
prediction set — important when the validation partition is itself large.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "Metric",
    "MeanSquaredError",
    "R2Score",
    "PSNR",
    "Accuracy",
]


class Metric(ABC):
    """Base streaming metric."""

    @abstractmethod
    def update(self, pred: np.ndarray, target: np.ndarray) -> None: ...

    @abstractmethod
    def result(self) -> float: ...

    @abstractmethod
    def reset(self) -> None: ...


class MeanSquaredError(Metric):
    """Mean of the squared elementwise error over everything seen."""

    def __init__(self) -> None:
        self._sum = 0.0
        self._count = 0

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        if pred.shape != target.shape:
            raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
        self._sum += float(np.square(pred - target, dtype=np.float64).sum())
        self._count += pred.size

    def result(self) -> float:
        if self._count == 0:
            return math.nan
        return self._sum / self._count

    def reset(self) -> None:
        self._sum = 0.0
        self._count = 0


class R2Score(Metric):
    """Coefficient of determination, streamed via sufficient statistics.

    Accumulates sums needed for ``1 - SS_res / SS_tot`` where the target
    mean is computed over everything seen so far.
    """

    def __init__(self) -> None:
        self.reset()

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        if pred.shape != target.shape:
            raise ValueError(f"shape mismatch: {pred.shape} vs {target.shape}")
        p = np.asarray(pred, dtype=np.float64).ravel()
        t = np.asarray(target, dtype=np.float64).ravel()
        self._ss_res += float(np.square(p - t).sum())
        self._t_sum += float(t.sum())
        self._t_sq_sum += float(np.square(t).sum())
        self._n += t.size

    def result(self) -> float:
        if self._n == 0:
            return math.nan
        ss_tot = self._t_sq_sum - self._t_sum**2 / self._n
        if ss_tot <= 0:
            return math.nan
        return 1.0 - self._ss_res / ss_tot

    def reset(self) -> None:
        self._ss_res = 0.0
        self._t_sum = 0.0
        self._t_sq_sum = 0.0
        self._n = 0


class Accuracy(Metric):
    """Top-1 classification accuracy.

    ``update(logits_or_probs, labels)``: predictions are argmaxed over the
    trailing axis; labels are integer class ids.
    """

    def __init__(self) -> None:
        self._correct = 0
        self._total = 0

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        pred = np.asarray(pred)
        target = np.asarray(target)
        if pred.ndim != 2 or target.shape != (pred.shape[0],):
            raise ValueError(
                f"expected (batch, classes) predictions and (batch,) labels, "
                f"got {pred.shape} and {target.shape}"
            )
        self._correct += int((pred.argmax(axis=1) == target).sum())
        self._total += pred.shape[0]

    def result(self) -> float:
        if self._total == 0:
            return math.nan
        return self._correct / self._total

    def reset(self) -> None:
        self._correct = 0
        self._total = 0


class PSNR(Metric):
    """Peak signal-to-noise ratio for image batches.

    ``data_range`` is the dynamic range of the (normalized) images; the
    JAG images in this repo are scaled to [0, 1].
    """

    def __init__(self, data_range: float = 1.0) -> None:
        if data_range <= 0:
            raise ValueError(f"data_range must be positive, got {data_range}")
        self.data_range = float(data_range)
        self._mse = MeanSquaredError()

    def update(self, pred: np.ndarray, target: np.ndarray) -> None:
        self._mse.update(pred, target)

    def result(self) -> float:
        mse = self._mse.result()
        if math.isnan(mse):
            return math.nan
        if mse == 0:
            return math.inf
        return 10.0 * math.log10(self.data_range**2 / mse)

    def reset(self) -> None:
        self._mse.reset()
