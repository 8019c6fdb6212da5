"""First-order optimizers and learning-rate schedules.

The paper trains the CycleGAN with Adam at an initial learning rate of
1e-3; SGD and momentum are provided for the baselines and tests.  Optimizer
slot state is keyed by weight name, so an optimizer can be checkpointed and
restored alongside its model.

All updates are performed in place on the weight value buffers (no
reallocation per step — the NumPy guide's in-place idiom).

:meth:`Optimizer.stack` steps k trainers' stacked ``[k, ...]`` weights,
each slice exactly as that trainer's own optimizer would.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Iterable, Mapping

import numpy as np

from repro.tensorlib.weights import Weight

__all__ = [
    "LearningRateSchedule",
    "ConstantLR",
    "StepDecayLR",
    "CosineDecayLR",
    "Optimizer",
    "SGD",
    "Momentum",
    "Adam",
]


class LearningRateSchedule(ABC):
    """Maps a 0-based step index to a learning rate."""

    @abstractmethod
    def learning_rate(self, step: int) -> float: ...


class ConstantLR(LearningRateSchedule):
    def __init__(self, lr: float) -> None:
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = float(lr)

    def learning_rate(self, step: int) -> float:
        return self.lr


class StepDecayLR(LearningRateSchedule):
    """Multiply the rate by ``factor`` every ``every`` steps."""

    def __init__(self, lr: float, factor: float = 0.5, every: int = 10_000) -> None:
        if lr <= 0 or not 0 < factor <= 1 or every <= 0:
            raise ValueError("invalid StepDecayLR parameters")
        self.lr, self.factor, self.every = float(lr), float(factor), int(every)

    def learning_rate(self, step: int) -> float:
        return self.lr * self.factor ** (step // self.every)


class CosineDecayLR(LearningRateSchedule):
    """Cosine decay from ``lr`` to ``final`` over ``total_steps``."""

    def __init__(self, lr: float, total_steps: int, final: float = 0.0) -> None:
        if lr <= 0 or total_steps <= 0 or final < 0:
            raise ValueError("invalid CosineDecayLR parameters")
        self.lr, self.total_steps, self.final = float(lr), int(total_steps), float(final)

    def learning_rate(self, step: int) -> float:
        t = min(step, self.total_steps) / self.total_steps
        return self.final + 0.5 * (self.lr - self.final) * (1 + math.cos(math.pi * t))


def _as_schedule(lr: "float | LearningRateSchedule") -> LearningRateSchedule:
    if isinstance(lr, LearningRateSchedule):
        return lr
    return ConstantLR(float(lr))


class Optimizer(ABC):
    """Base optimizer: applies accumulated gradients to trainable weights."""

    def __init__(self, lr: "float | LearningRateSchedule") -> None:
        self.schedule = _as_schedule(lr)
        self.step_count = 0
        self._slots: dict[str, dict[str, np.ndarray]] = {}
        #: The per-trainer optimizers a stacked optimizer steps, or None.
        self.members: list[Optimizer] | None = None

    @property
    def learning_rate(self) -> float:
        return self.schedule.learning_rate(self.step_count)

    def hyperparameters(self) -> dict:
        """Constructor arguments besides the learning rate."""
        return {}

    @staticmethod
    def stack(members: list["Optimizer"]) -> "Optimizer":
        """An optimizer stepping ``members``' ``[k, ...]`` stack: it advances
        their step counts, gathers their slots on first use (zeros where a
        member has none) and returns them with :meth:`unstack`."""
        first = members[0]
        stacked = type(first)(first.schedule, **first.hyperparameters())
        stacked.members = list(members)
        return stacked

    def unstack(self) -> None:
        """Scatter a stacked optimizer's slots back to its members."""
        for j, member in enumerate(self.members):
            for wname, slots in self._slots.items():
                member._slots[wname] = {k: v[j].copy() for k, v in slots.items()}

    def step(self, weights: Iterable[Weight]) -> None:
        """Apply one update using each weight's accumulated gradient.

        Non-trainable weights are skipped.  Gradients are *not* cleared —
        that is the training loop's job (so multiple loss phases can share
        one step).  Each trainer's step constants (:meth:`_scalars`) reach
        :meth:`_apply` as a float32 ``[k, 1, ...]`` column (k = 1 unstacked).
        """
        members = self.members or [self]
        per_trainer = [m._scalars() for m in members]
        columns = {
            k: np.array([s[k] for s in per_trainer], dtype=np.float32)
            for k in per_trainer[0]
        }
        for w in weights:
            if w.trainable:
                shape = (-1,) + (1,) * (w.value.ndim - 1)
                self._apply(w, **{k: c.reshape(shape) for k, c in columns.items()})
        for m in members:
            m.step_count += 1

    def _scalars(self) -> dict[str, float]:
        """This step's constants from the schedule and ``step_count``."""
        return {"lr": self.learning_rate}

    def _slot(self, w: Weight, name: str) -> np.ndarray:
        slots = self._slots.setdefault(w.name, {})
        if name not in slots:
            if self.members is None:
                slots[name] = np.zeros_like(w.value)
            else:
                zeros = np.zeros_like(w.value[0])
                slots[name] = np.stack(
                    [m._slots.get(w.name, {}).get(name, zeros) for m in self.members]
                )
        return slots[name]

    @abstractmethod
    def _apply(self, w: Weight, lr) -> None: ...

    # -- checkpointing -----------------------------------------------------

    def get_state(self) -> dict:
        return {
            "step_count": self.step_count,
            "slots": {
                wname: {k: v.copy() for k, v in slots.items()}
                for wname, slots in self._slots.items()
            },
        }

    def set_state(self, state: Mapping) -> None:
        self.step_count = int(state["step_count"])
        self._slots = {
            wname: {k: np.array(v) for k, v in slots.items()}
            for wname, slots in state["slots"].items()
        }

    def reset(self) -> None:
        """Drop all slot state (used when a trainer adopts a foreign model)."""
        self._slots.clear()
        self.step_count = 0


class SGD(Optimizer):
    """Plain stochastic gradient descent."""

    def _apply(self, w: Weight, lr) -> None:
        w.value -= lr * w.grad


class Momentum(Optimizer):
    """SGD with (optionally Nesterov) momentum."""

    def __init__(
        self,
        lr: "float | LearningRateSchedule",
        momentum: float = 0.9,
        nesterov: bool = False,
    ) -> None:
        super().__init__(lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        self.momentum = float(momentum)
        self.nesterov = bool(nesterov)

    def hyperparameters(self) -> dict:
        return {"momentum": self.momentum, "nesterov": self.nesterov}

    def _apply(self, w: Weight, lr) -> None:
        v = self._slot(w, "velocity")
        v *= self.momentum
        v -= lr * w.grad
        if self.nesterov:
            w.value += self.momentum * v - lr * w.grad
        else:
            w.value += v


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2015) with bias correction."""

    def __init__(
        self,
        lr: "float | LearningRateSchedule" = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ) -> None:
        super().__init__(lr)
        if not 0 <= beta1 < 1 or not 0 <= beta2 < 1 or epsilon <= 0:
            raise ValueError("invalid Adam hyperparameters")
        self.beta1, self.beta2, self.epsilon = float(beta1), float(beta2), float(epsilon)

    def hyperparameters(self) -> dict:
        return {"beta1": self.beta1, "beta2": self.beta2, "epsilon": self.epsilon}

    def _scalars(self) -> dict[str, float]:
        t = self.step_count + 1
        return {
            "lr": self.learning_rate,
            "correction1": 1 - self.beta1**t,
            "correction2": 1 - self.beta2**t,
        }

    def _apply(self, w: Weight, lr, correction1, correction2) -> None:
        m = self._slot(w, "m")
        v = self._slot(w, "v")
        m *= self.beta1
        m += (1 - self.beta1) * w.grad
        v *= self.beta2
        v += (1 - self.beta2) * np.square(w.grad)
        m_hat = m / correction1
        v_hat = v / correction2
        w.value -= lr * m_hat / (np.sqrt(v_hat) + self.epsilon)
