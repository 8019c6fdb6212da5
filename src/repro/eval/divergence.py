"""Streaming f-divergence estimators over JAG scalar distributions.

The quality signal of the subsystem: how far is a surrogate's *output
distribution* from the simulation's ground truth?  Losses cannot see
mode collapse — a generator that emits one plausible sample forever can
keep a flat (even improving) loss while its distribution degenerates —
so the probe, the tournament judge, and the serve gate all consume the
estimators below instead.

Estimator protocol (fixed, so every consumer measures the same thing):

1. Both sample sets are projected per scalar dimension.
2. Each dimension is **z-scored by the reference statistics** (mean/std
   of the ground-truth sample only — the model sample must land on the
   reference's scale to be comparable; a degenerate reference std falls
   back to 1 rather than dividing by ~0).
3. Histograms use **shared fixed bin edges**: ``bins`` equal-width bins
   spanning ``[-span, +span]`` in reference z-units.  Values outside the
   span are clamped into the edge bins, so tail mass is never dropped —
   a model that walks off the support shows up as edge-bin mass, not as
   silently truncated data.
4. Counts are smoothed with ``eps`` mass per bin and renormalized before
   any log: the plug-in KL of raw counts is infinite whenever the model
   misses a populated bin, which makes early training unreadable.
5. Per-dimension divergences are averaged into the reported scalars;
   per-dimension values stay available for drill-down.

Bias/variance tradeoffs (documented, not hidden): the plug-in histogram
estimator is **biased upward** by binning (resolution ``2*span/bins`` in
z-units) and by the ``eps`` smoothing, and the bias grows as the sample
count per bin shrinks.  Variance shrinks as ``O(1/n)`` with the bounded
reservoir size feeding it.  The estimates are therefore *comparable
across rounds and trainers under the fixed protocol* — which is what a
monitoring signal needs — but are not unbiased divergence estimates, and
should not be read as absolute information-theoretic quantities.  All
estimates are deterministic functions of the two sample sets; the only
randomness upstream is the reservoir's seeded RNG.

Conventions: ``kl``/``js`` are in nats; ``hellinger`` is the Hellinger
*distance* in ``[0, 1]``; ``js <= log 2``; lower is better for every
metric.  Moment deltas are in reference z-units (``mean_delta`` = mean
absolute shift of the model mean; ``std_delta`` = mean absolute
deviation of the model std from 1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "DivergenceResult",
    "METRIC_NAMES",
    "fixed_bin_edges",
    "histogram_probs",
    "kl_divergence",
    "js_divergence",
    "hellinger_distance",
    "PreparedReference",
    "prepare_reference",
    "scalar_divergences",
]

#: The reported divergence metrics, in reporting order.
METRIC_NAMES: tuple[str, ...] = ("kl", "js", "hellinger")

_TINY = 1e-12


@dataclass(frozen=True)
class DivergenceResult:
    """One estimator run: reference sample vs model sample.

    Scalar fields are means across scalar dimensions; ``per_dim_js``
    keeps the per-dimension JS values for drill-down (JS because it is
    the bounded, symmetric member of the family — the one the probe and
    the judge rank on by default).
    """

    kl: float
    js: float
    hellinger: float
    mean_delta: float
    std_delta: float
    n_reference: int
    n_model: int
    bins: int
    span: float
    per_dim_js: tuple[float, ...] = field(default=(), repr=False)

    def value(self, metric: str) -> float:
        """Look up one reported metric by name (``kl``/``js``/...)."""
        if metric not in METRIC_NAMES + ("mean_delta", "std_delta"):
            raise ValueError(f"unknown divergence metric {metric!r}")
        return float(getattr(self, metric))

    def as_dict(self) -> dict:
        """JSON-encodable summary (the telemetry/manifest payload shape)."""
        return {
            "kl": self.kl,
            "js": self.js,
            "hellinger": self.hellinger,
            "mean_delta": self.mean_delta,
            "std_delta": self.std_delta,
            "n_reference": self.n_reference,
            "n_model": self.n_model,
            "bins": self.bins,
            "span": self.span,
        }


def fixed_bin_edges(bins: int = 32, span: float = 4.0) -> np.ndarray:
    """The protocol's shared edges: ``bins`` equal-width bins on
    ``[-span, +span]`` in reference z-units."""
    if bins < 2:
        raise ValueError(f"bins must be >= 2, got {bins}")
    if span <= 0:
        raise ValueError(f"span must be positive, got {span}")
    return np.linspace(-span, span, bins + 1)


def histogram_probs(
    values: np.ndarray, edges: np.ndarray, eps: float = 1e-6
) -> np.ndarray:
    """Smoothed, normalized bin probabilities on the shared edges.

    Out-of-span values are clamped into the edge bins (tail mass is
    counted, not dropped); ``eps`` mass is added to every bin before
    normalization so downstream logs stay finite.
    """
    values = np.asarray(values, dtype=np.float64).ravel()
    if values.size == 0:
        raise ValueError("cannot histogram an empty sample")
    clipped = np.clip(values, edges[0], edges[-1])
    counts, _ = np.histogram(clipped, bins=edges)
    probs = counts.astype(np.float64) + eps
    return probs / probs.sum()


def kl_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """KL(p || q) in nats over two probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    mask = p > _TINY
    return float(np.sum(p[mask] * np.log(p[mask] / np.maximum(q[mask], _TINY))))


def js_divergence(p: np.ndarray, q: np.ndarray) -> float:
    """Jensen-Shannon divergence in nats (symmetric, bounded by log 2)."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    m = 0.5 * (p + q)
    return 0.5 * kl_divergence(p, m) + 0.5 * kl_divergence(q, m)


def hellinger_distance(p: np.ndarray, q: np.ndarray) -> float:
    """Hellinger distance in ``[0, 1]`` over two probability vectors."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    return float(np.linalg.norm(np.sqrt(p) - np.sqrt(q)) / np.sqrt(2.0))


@dataclass(frozen=True)
class PreparedReference:
    """The reference side of the protocol, computed once: z-score
    statistics, the shared edges and the per-dimension reference
    histograms.  :meth:`score` runs any number of model samples against
    it (the probe scores every trainer of a round on one of these)."""

    mu: np.ndarray
    sigma: np.ndarray
    edges: np.ndarray
    probs: tuple[np.ndarray, ...]
    n: int
    bins: int
    span: float
    eps: float

    def score(self, model: np.ndarray) -> DivergenceResult:
        """Divergences of one ``(n, d)`` model sample from the reference."""
        out = np.asarray(model, dtype=np.float64)
        if out.ndim == 1:
            out = out[:, None]
        if out.ndim != 2 or out.shape[1] != len(self.probs):
            raise ValueError(
                f"dimension mismatch: reference has {len(self.probs)} scalar "
                f"dims, model sample has shape {out.shape}"
            )
        if out.shape[0] == 0:
            raise ValueError("cannot estimate divergence from an empty sample")
        out_z = (out - self.mu) / self.sigma

        kl_dims, js_dims, hel_dims = [], [], []
        for dim, p in enumerate(self.probs):
            q = histogram_probs(out_z[:, dim], self.edges, self.eps)
            kl_dims.append(kl_divergence(p, q))
            js_dims.append(js_divergence(p, q))
            hel_dims.append(hellinger_distance(p, q))

        return DivergenceResult(
            kl=float(np.mean(kl_dims)),
            js=float(np.mean(js_dims)),
            hellinger=float(np.mean(hel_dims)),
            mean_delta=float(np.mean(np.abs(out_z.mean(axis=0)))),
            std_delta=float(np.mean(np.abs(out_z.std(axis=0) - 1.0))),
            n_reference=self.n,
            n_model=int(out.shape[0]),
            bins=self.bins,
            span=self.span,
            per_dim_js=tuple(float(v) for v in js_dims),
        )


def prepare_reference(
    reference: np.ndarray,
    *,
    bins: int = 32,
    span: float = 4.0,
    eps: float = 1e-6,
) -> PreparedReference:
    """Steps 1-4 of the protocol for the ``(n, d)`` reference sample
    (1-D input is treated as one dimension)."""
    ref = np.asarray(reference, dtype=np.float64)
    if ref.ndim == 1:
        ref = ref[:, None]
    if ref.ndim != 2:
        raise ValueError(f"samples must be (n, d) arrays, got {ref.shape}")
    if ref.shape[0] == 0:
        raise ValueError("cannot estimate divergence from an empty sample")
    mu = ref.mean(axis=0)
    sigma = ref.std(axis=0)
    sigma = np.where(sigma < _TINY, 1.0, sigma)
    ref_z = (ref - mu) / sigma
    edges = fixed_bin_edges(bins, span)
    probs = tuple(
        histogram_probs(ref_z[:, dim], edges, eps) for dim in range(ref.shape[1])
    )
    return PreparedReference(
        mu, sigma, edges, probs, int(ref.shape[0]), int(bins), float(span), eps
    )


def scalar_divergences(
    reference: np.ndarray,
    model: np.ndarray,
    *,
    bins: int = 32,
    span: float = 4.0,
    eps: float = 1e-6,
) -> DivergenceResult:
    """Run the full estimator protocol: reference sample vs model sample.

    ``reference`` and ``model`` are ``(n, d)`` scalar arrays (1-D inputs
    are treated as one dimension); they may have different ``n`` but must
    share ``d``.  Returns per-metric means across dimensions plus moment
    deltas, all deterministic in the inputs.
    """
    return prepare_reference(reference, bins=bins, span=span, eps=eps).score(model)
