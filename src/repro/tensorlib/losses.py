"""Loss functions as (value, gradient) pairs.

Each loss returns ``(scalar_value, grad_wrt_predictions)`` so callers can
compose multi-term objectives — the CycleGAN training step combines
surrogate-fidelity (MAE), adversarial (BCE-with-logits), and
cycle-consistency (MAE) terms with per-term weights, backpropagating each
gradient through the relevant sub-model chain.

Reductions are means over *all* elements (batch and features), so loss
magnitudes are comparable across batch sizes and output widths.  For a
stacked population ``[k, batch, ...]`` (rank >= 3) they are per trainer:
one value each, each slice reduced and its gradient scaled as unstacked.
"""

from __future__ import annotations

import numpy as np

from repro.tensorlib import functional as F

__all__ = [
    "mean_absolute_error",
    "mean_absolute_error_value",
    "mean_squared_error",
    "bce_with_logits",
    "softmax_cross_entropy",
    "weighted_sum",
]


def _check_shapes(pred: np.ndarray, target: np.ndarray, name: str) -> None:
    if pred.shape != target.shape:
        raise ValueError(
            f"{name}: prediction shape {pred.shape} != target shape {target.shape}"
        )


def _mean(elementwise: np.ndarray) -> tuple["float | np.ndarray", int]:
    """The mean (one per trainer of a stack) and the count it divides by."""
    if elementwise.ndim > 2:
        n = elementwise[0].size
        return np.array([float(a.sum() / n) for a in elementwise]), n
    return float(elementwise.sum() / elementwise.size), elementwise.size


def mean_absolute_error(
    pred: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray]:
    """L1 loss, mean over all elements; subgradient sign(pred - target)/N."""
    _check_shapes(pred, target, "mean_absolute_error")
    diff = pred - target
    value, n = _mean(np.abs(diff))
    grad = np.sign(diff, dtype=np.float32) / np.float32(n)
    return value, grad


def mean_absolute_error_value(pred: np.ndarray, target: np.ndarray) -> float:
    """:func:`mean_absolute_error`'s value alone, bit for bit (no gradient)."""
    _check_shapes(pred, target, "mean_absolute_error")
    return _mean(np.abs(pred - target))[0]


def mean_squared_error(
    pred: np.ndarray, target: np.ndarray
) -> tuple[float, np.ndarray]:
    """L2 loss, mean over all elements; gradient 2(pred - target)/N."""
    _check_shapes(pred, target, "mean_squared_error")
    diff = (pred - target).astype(np.float32)
    value, n = _mean(np.square(diff))
    grad = (2.0 / n) * diff
    return value, grad


def bce_with_logits(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, np.ndarray]:
    """Binary cross-entropy on raw logits (numerically stable).

    ``loss = mean( softplus(z) - t*z )`` with gradient
    ``(sigmoid(z) - t) / N``.  Targets may be soft labels in [0, 1].
    """
    _check_shapes(logits, targets, "bce_with_logits")
    z = np.asarray(logits, dtype=np.float32)
    t = np.asarray(targets, dtype=np.float32)
    if np.any(t < 0) or np.any(t > 1):
        raise ValueError("bce_with_logits targets must lie in [0, 1]")
    value, n = _mean(F.softplus(z) - t * z)
    grad = (F.sigmoid(z) - t) / np.float32(n)
    return value, grad


def softmax_cross_entropy(
    logits: np.ndarray, labels: np.ndarray
) -> tuple[float, np.ndarray]:
    """Multi-class cross-entropy on raw logits (stable log-sum-exp).

    ``labels`` are integer class ids of shape ``(batch,)``.  Reduction is
    the mean over the batch; gradient is ``(softmax(z) - onehot) / batch``.
    Used by the classic (classification) LTFB workload of the paper's
    prior work [Jacobs et al., MLHPC'17].
    """
    # Computed in float64: the log-sum-exp reduction loses enough mantissa
    # in float32 to perturb small-batch gradients.
    z = np.asarray(logits, dtype=np.float64)
    if z.ndim != 2:
        raise ValueError(f"logits must be (batch, classes), got {z.shape}")
    y = np.asarray(labels)
    if y.shape != (z.shape[0],):
        raise ValueError(
            f"labels must be shape ({z.shape[0]},), got {y.shape}"
        )
    if y.min() < 0 or y.max() >= z.shape[1]:
        raise ValueError("labels out of range for the number of classes")
    n = z.shape[0]
    shifted = z - z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    log_probs = shifted - log_norm
    value = float(-log_probs[np.arange(n), y].mean())
    grad = np.exp(log_probs)
    grad[np.arange(n), y] -= 1.0
    return value, (grad / np.float32(n)).astype(np.float32)


def weighted_sum(
    *terms: tuple[float, tuple[float, np.ndarray]],
) -> tuple[float, list[np.ndarray]]:
    """Combine loss terms: ``weighted_sum((w1, loss1), (w2, loss2), ...)``.

    Each ``lossN`` is a ``(value, grad)`` pair; returns the combined scalar
    and the list of *scaled* gradients in order, ready to backpropagate
    through each term's own path.
    """
    total = 0.0
    grads: list[np.ndarray] = []
    for weight, (value, grad) in terms:
        total += float(weight) * value
        grads.append(np.float32(weight) * grad)
    return total, grads
