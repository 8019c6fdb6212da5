#!/usr/bin/env python
"""Classic LTFB on a classification task (the paper's prior work).

The LTFB algorithm predates its GAN extension: Jacobs et al. (MLHPC'17)
demonstrated it on image classification with *full-model* exchange.  This
example reproduces that setting with the library's generic pieces — no
CycleGAN involved — to show the tournament machinery is model-agnostic:

- a synthetic "shard-biased" classification problem (each trainer's silo
  over-represents some classes, the classification analog of the paper's
  non-IID data silos);
- plain tensorlib MLP classifiers with softmax cross-entropy;
- a hand-rolled tournament loop: random pairing, full-model exchange,
  winner judged by held-out accuracy.

Run:  python examples/ltfb_classifier.py
"""

from __future__ import annotations

import numpy as np

from repro.tensorlib import Adam, losses, mlp
from repro.tensorlib.metrics import Accuracy
from repro.utils.rng import RngFactory

NUM_CLASSES = 6
INPUT_DIM = 20
K_TRAINERS = 4
ROUNDS, STEPS, BATCH = 12, 15, 64


def make_problem(rng: np.random.Generator, n: int = 6000):
    """Gaussian class clusters with overlapping covariance."""
    centers = rng.normal(scale=2.0, size=(NUM_CLASSES, INPUT_DIM))
    labels = rng.integers(0, NUM_CLASSES, size=n)
    x = centers[labels] + rng.normal(scale=1.6, size=(n, INPUT_DIM))
    return x.astype(np.float32), labels


def biased_silos(x, y, k, rng):
    """Give each trainer a class-skewed silo (non-IID shards)."""
    silos = [[] for _ in range(k)]
    for idx, label in enumerate(y):
        # Each class mostly lands on one silo, with 25% leakage.
        home = label % k
        dest = home if rng.random() > 0.25 else rng.integers(0, k)
        silos[int(dest)].append(idx)
    return [np.array(s) for s in silos]


def accuracy(model, x, y) -> float:
    metric = Accuracy()
    metric.update(model.predict({"in": x}, "out"), y)
    return metric.result()


def main() -> None:
    rngs = RngFactory(2017)  # the year of the original LTFB paper
    data_rng = rngs.generator("data")
    x, y = make_problem(data_rng)
    train_x, train_y = x[:4800], y[:4800]
    tourn_x, tourn_y = x[4800:5400], y[4800:5400]
    val_x, val_y = x[5400:], y[5400:]

    silos = biased_silos(train_x, train_y, K_TRAINERS, rngs.generator("silo"))
    # Same model NAME for everyone (so states are exchangeable), distinct
    # RNG scopes (so initializations differ).
    models = [
        mlp(
            "classifier",
            rngs.child(f"clf{i}"),
            input_dim=INPUT_DIM,
            hidden=[64, 48],
            output_dim=NUM_CLASSES,
            activation="relu",
        )
        for i in range(K_TRAINERS)
    ]
    optimizers = [Adam(1e-3) for _ in range(K_TRAINERS)]
    batch_rngs = [rngs.generator(f"batches{i}") for i in range(K_TRAINERS)]
    pairing_rng = rngs.generator("pairing")

    print(
        f"{K_TRAINERS} classifiers on class-skewed silos "
        f"(sizes {[len(s) for s in silos]}), full-model LTFB exchange"
    )
    for rnd in range(ROUNDS):
        # Independent training on each silo.
        for model, opt, silo, brng in zip(models, optimizers, silos, batch_rngs):
            for _ in range(STEPS):
                take = brng.choice(silo, size=min(BATCH, silo.size), replace=False)
                model.zero_grad()
                out, tape = model.forward({"in": train_x[take]}, outputs=["out"])
                _, grad = losses.softmax_cross_entropy(out["out"], train_y[take])
                model.backward({"out": grad}, tape)
                opt.step(model.weights)

        # Tournament: pair, exchange full models, keep the better one on
        # the shared held-out tournament set.
        perm = pairing_rng.permutation(K_TRAINERS)
        for a, b in zip(perm[::2], perm[1::2]):
            acc_a = accuracy(models[a], tourn_x, tourn_y)
            acc_b = accuracy(models[b], tourn_x, tourn_y)
            winner, loser = (a, b) if acc_a >= acc_b else (b, a)
            models[loser].set_state(models[winner].get_state())

        best = max(accuracy(m, val_x, val_y) for m in models)
        print(f"  round {rnd:2d}: best validation accuracy {best:.3f}")

    per_silo = [accuracy(m, val_x, val_y) for m in models]
    print(f"final population accuracies: {[round(a, 3) for a in per_silo]}")
    print(
        "note: without the tournament, each silo's class skew caps its "
        "model's accuracy; exchange spreads the best model across silos."
    )


if __name__ == "__main__":
    main()
