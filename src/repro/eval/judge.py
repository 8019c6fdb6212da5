"""The pluggable tournament judge: what "better" means in LTFB.

The paper's tournaments judge on the local tournament holdout's loss
(``Trainer.tournament_score``).  That is one policy, not the mechanic —
the mechanic (pair, exchange, score both, adopt the winner) lives in
:func:`repro.core.topology.run_pairwise_tournament` and is judge-
agnostic.  This module supplies the seam:

- :class:`LossJudge` — the paper's policy, **bit-identical** to the
  pre-seam behaviour: it delegates to the trainer's own scoring methods,
  so loss-judged Histories do not change by a bit.
- :class:`DivergenceJudge` — ranks on distributional fidelity instead:
  the generator's output distribution over the tournament holdout's
  params vs the holdout's ground-truth scalars, scored with one metric
  of :func:`~repro.eval.divergence.scalar_divergences` (JS by default).
  This enables the divergence-judged-vs-loss-judged LTFB ablation the
  paper could not run.

Both judges are deterministic: the loss path is the existing scoring
path, and the divergence path is a pure forward pass plus the fixed
estimator protocol — neither consumes any RNG stream.  Drivers call a
judge only on a miss of their round's score table (:meth:`Judge.scoring`).

Drivers resolve their ``judge=`` argument through :func:`resolve_judge`
(the :func:`~repro.core.topology.resolve_topology` idiom): ``None`` and
``"loss"`` give the paper's judge, ``"divergence"`` the distributional
one, and a :class:`Judge` instance passes through for custom policies.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Mapping

import numpy as np

from repro.eval.divergence import scalar_divergences

__all__ = [
    "Judge",
    "LossJudge",
    "DivergenceJudge",
    "resolve_judge",
    "JUDGE_NAMES",
]


class Judge(ABC):
    """Scores trainers for tournament adoption; **lower is better** (the
    invariant every tournament mechanic in :mod:`repro.core.topology`
    relies on: ``adopt = partner_score < own_score``)."""

    #: Registry key / telemetry label.
    name = "?"

    @abstractmethod
    def score(self, trainer) -> float:
        """Score the trainer's *current* model."""

    @abstractmethod
    def score_candidate(self, trainer, weights: Mapping, scope) -> float:
        """Score foreign ``weights`` from the trainer's seat, leaving the
        trainer's own model untouched."""

    def scoring(self, trainer):
        """A score-table key for what a score from ``trainer``'s seat
        computes, if it reads only the generator and the tournament set;
        ``None`` (the default) scores every call afresh."""
        return None


class LossJudge(Judge):
    """The paper's judge: the local tournament holdout's configured loss
    metric, delegated to the trainer's own scoring methods, so every
    History byte matches the pre-seam code (a score-table hit calls none)."""

    name = "loss"

    def scoring(self, trainer):
        # The discriminator metric reads the seat's own D.
        return ("val_loss",) if trainer.config.tournament_metric == "val_loss" else None

    def score(self, trainer) -> float:
        return trainer.tournament_score()

    def score_candidate(self, trainer, weights: Mapping, scope) -> float:
        return trainer.score_candidate(weights, scope)


class DivergenceJudge(Judge):
    """Judge on distributional fidelity over the tournament holdout.

    The candidate generator predicts scalars for the holdout's params;
    the score is one divergence metric between those predictions and the
    holdout's ground-truth scalars (lower = closer = better, preserving
    the adoption invariant).  Candidate scoring swaps the foreign weights
    in, predicts, and restores — the trainer's own model is untouched.
    """

    def __init__(
        self,
        metric: str = "js",
        *,
        bins: int = 32,
        span: float = 4.0,
        eps: float = 1e-6,
    ) -> None:
        self.metric = metric
        self.bins = int(bins)
        self.span = float(span)
        self.eps = float(eps)
        # Fail fast on a bad metric name, not mid-tournament.
        scalar_divergences(
            np.zeros((2, 1)), np.zeros((2, 1)), bins=self.bins, span=self.span
        ).value(metric)

    name = "divergence"

    def score(self, trainer) -> float:
        batch = trainer.tournament_batch
        scalars_hat, _ = trainer.surrogate.predict_outputs(batch["params"])
        return scalar_divergences(
            batch["scalars"], scalars_hat,
            bins=self.bins, span=self.span, eps=self.eps,
        ).value(self.metric)

    def score_candidate(self, trainer, weights: Mapping, scope) -> float:
        with trainer.swapped_weights(weights, scope):
            return self.score(trainer)

    def scoring(self, trainer):
        return ("divergence", self.metric, self.bins, self.span, self.eps)


#: Built-in judge registry keys.
JUDGE_NAMES: tuple[str, ...] = ("loss", "divergence")

_REGISTRY = {
    "loss": LossJudge,
    "divergence": DivergenceJudge,
}


def resolve_judge(spec) -> Judge:
    """Coerce a judge spec — ``None`` (default), a registry name, or a
    :class:`Judge` instance — into a judge."""
    if spec is None:
        return LossJudge()
    if isinstance(spec, Judge):
        return spec
    if isinstance(spec, str):
        cls = _REGISTRY.get(spec)
        if cls is None:
            raise ValueError(
                f"unknown judge {spec!r} (expected one of {JUDGE_NAMES})"
            )
        return cls()
    raise TypeError(f"judge must be None, a name, or a Judge, got {spec!r}")
