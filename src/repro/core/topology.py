"""Pluggable population topologies: who exchanges with whom, judged how,
and when.

The paper's LTFB scheme (Section III-C) is one point in a design space —
synchronous, random, pairwise tournaments.  Related work explores the
rest of the axis: Pérez et al. exchange only within spatial neighborhoods
of a trainer grid (cellular training), and MD-GAN (Hardy et al.) rotates
many discriminators over data shards around aggregating generators.  A
:class:`Topology` makes that axis pluggable: drivers delegate the entire
coordination phase of a round to a strategy object, and the strategy
decides the pairing (or broadcast) structure, the judging, and — for
barrier-free topologies — the *timing* of exchanges relative to training.

Shipped implementations:

- :class:`RandomPairwise` — the paper's LTFB, bit-identical to the
  pre-topology driver (same RNG draw per round, same tournament order);
- :class:`CellularGrid` — von Neumann / Moore neighborhoods on a 1D ring
  or 2D wraparound grid; rounds cycle through neighborhood directions
  with an alternating brick phase so every edge is exercised;
- :class:`MultiDiscriminator` — MD-GAN-style: each round the population
  all-gathers generators, every trainer judges every candidate on its
  local tournament shard, the aggregate-best generator propagates to
  trainers it beats, and discriminators rotate one shard around the ring;
- :class:`AsyncPairwise` — no round barrier: trainers pair whenever both
  are ready (a readiness queue fed by the execution backend's
  barrier-free ``train_round``), with seeded partner choice.  On the serial
  backend readiness arrives in population order, so async runs stay
  deterministic and testable; on thread/process backends readiness is
  true completion order;
- :class:`Isolated` — no exchange at all (the K-independent baseline).

Determinism contract (see DESIGN.md §9): a topology's plan may depend
only on the bound RNG, the round index, and its own checkpointable state
— never on wall-clock or trainer contents — so synchronous topologies
are bit-identical across execution backends.  ``state()``/``restore()``
round-trip everything a mid-campaign resume needs (grid shape, readiness
cursor, RNG state) through the population checkpoint manifest.
"""

from __future__ import annotations

import time
from abc import ABC
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.checkpoint import CheckpointMismatchError
from repro.core.driver import TournamentRecord
from repro.telemetry.events import EXCHANGE, TOURNAMENT
from repro.utils.serialization import nbytes_of

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.driver import PopulationDriver

__all__ = [
    "Pairing",
    "RoundPlan",
    "Topology",
    "RandomPairwise",
    "CellularGrid",
    "MultiDiscriminator",
    "AsyncPairwise",
    "Isolated",
    "TOPOLOGY_NAMES",
    "resolve_topology",
    "run_pairwise_tournament",
]


@dataclass(frozen=True)
class Pairing:
    """One planned exchange between trainers ``a`` and ``b`` (population
    indices), with an optional locality label for spatial topologies."""

    a: int
    b: int
    neighborhood: str | None = None


@dataclass(frozen=True)
class RoundPlan:
    """A topology's verdict for one round: disjoint pairs plus the
    trainers deterministically sitting the round out."""

    pairs: tuple[Pairing, ...] = ()
    byes: tuple[int, ...] = ()


class Topology(ABC):
    """Strategy object deciding population coordination for a driver.

    Lifecycle: the owning driver calls :meth:`bind` once at construction
    with the population's trainer names and its pairing RNG; afterwards
    the driver calls :meth:`exchange` once per round (synchronous
    topologies) or drives :meth:`begin_round`/:meth:`on_ready`/
    :meth:`finish_round` around a barrier-free train phase
    (``barrier_free = True``).

    Checkpointing: :meth:`state` returns a JSON-serializable dict (always
    carrying ``kind``) that :meth:`CheckpointStore.save_population
    <repro.core.checkpoint.CheckpointStore.save_population>` records in
    the population manifest; :meth:`restore` applies it back and raises
    :class:`~repro.core.checkpoint.CheckpointMismatchError` when the
    recorded kind (or structural state like a grid shape) does not match.
    """

    name: str = "abstract"
    #: True when the topology pairs trainers as they finish training,
    #: without a round barrier (drivers pass ``on_ready`` to the
    #: backend's ``train_round``).
    barrier_free: bool = False
    #: False for topologies that never exchange (no tournament phase,
    #: no pairing events) — the K-independent baseline.
    active: bool = True

    def __init__(self) -> None:
        self._names: list[str] = []
        self._rng: np.random.Generator | None = None
        self._bound = False

    # -- lifecycle -----------------------------------------------------------

    def bind(
        self, names: Sequence[str], rng: np.random.Generator | None
    ) -> None:
        """Attach to one driver's population (once per instance)."""
        if self._bound:
            raise RuntimeError(
                f"{self.name} topology is already bound to a population"
            )
        if not names:
            raise ValueError("cannot bind a topology to an empty population")
        self._names = list(names)
        self._rng = rng
        self._bound = True
        self._on_bind()

    def _on_bind(self) -> None:
        """Subclass hook: validate shapes, infer layout."""

    def _require_rng(self) -> np.random.Generator:
        if self._rng is None:
            raise ValueError(
                f"{self.name} topology needs a pairing RNG; construct the "
                f"driver with one (LtfbDriver's rng argument)"
            )
        return self._rng

    @property
    def names(self) -> list[str]:
        return self._names

    def neighborhood_of(self, index: int) -> str | None:
        """Locality label of one trainer (``None`` = non-spatial)."""
        return None

    # -- checkpoint surface --------------------------------------------------

    def state(self) -> dict:
        """JSON-serializable topology state for the population manifest."""
        return {"kind": self.name, **self._state()}

    def restore(self, state: Mapping | None) -> None:
        """Apply :meth:`state` output; typed error on topology mismatch."""
        if not self._bound:
            raise RuntimeError(
                f"bind the {self.name} topology (construct its driver) "
                f"before restoring checkpointed state"
            )
        kind = state.get("kind") if state else None
        if kind != self.name:
            raise CheckpointMismatchError(
                f"checkpoint records topology {kind!r}, cannot restore "
                f"into a {self.name!r} topology"
            )
        self._restore(state or {})

    def _state(self) -> dict:
        return {}

    def _restore(self, state: Mapping) -> None:
        pass

    # -- synchronous rounds --------------------------------------------------

    def plan_round(self, round_index: int) -> RoundPlan:
        """The round's pairing plan (synchronous topologies only)."""
        raise NotImplementedError(
            f"{self.name} topology does not plan synchronous rounds"
        )

    def exchange(self, driver: "PopulationDriver", round_index: int) -> float:
        """Run the whole coordination phase of one synchronous round.

        Default: plan disjoint pairs, record them (history + ``pairing``
        event), and hold one two-sided pairwise tournament per pair.
        Returns the seconds spent moving model bytes (the driver books
        the remainder of the phase as tournament/judging time).
        """
        plan = self.plan_round(round_index)
        driver.record_pairings(round_index, plan, self)
        exchange_s = 0.0
        for pair in plan.pairs:
            exchange_s += run_pairwise_tournament(driver, round_index, pair, self)
        return exchange_s

    # -- barrier-free rounds -------------------------------------------------

    def begin_round(self, round_index: int) -> None:
        """Reset per-round readiness state (barrier-free topologies)."""
        raise NotImplementedError(f"{self.name} topology is not barrier-free")

    def on_ready(self, index: int) -> Pairing | None:
        """One trainer finished its train interval; returns a pairing when
        a partner is available, else queues the trainer."""
        raise NotImplementedError(f"{self.name} topology is not barrier-free")

    def finish_round(self) -> tuple[int, ...]:
        """End of the round; returns the indices left unpaired (byes)."""
        raise NotImplementedError(f"{self.name} topology is not barrier-free")

    def __repr__(self) -> str:
        state = f"k={len(self._names)}" if self._bound else "unbound"
        return f"{type(self).__name__}({state})"


def run_pairwise_tournament(
    driver: "PopulationDriver",
    round_index: int,
    pair: Pairing,
    topology: Topology,
) -> float:
    """One pair's exchange plus both independent judgments.

    This is the paper's tournament mechanics, verbatim: the pair swaps
    exchange packages (the only inter-trainer communication), then each
    side scores its own model and the foreign weights with the driver's
    :class:`~repro.eval.judge.Judge` and adopts when the partner scores
    better (lower), through the driver's round score table (on a shared
    tournament set the second side's scores are hits).  The default
    ``loss`` judge scores on the trainer's local tournament set, so
    loss-judged runs are bit-identical to the unjudged code.  Returns
    the seconds spent on the exchange itself; tournament records,
    history accounting, telemetry, and backend dirty-marking all happen
    here so every pairwise topology shares one implementation.
    """
    a, b = driver.trainers[pair.a], driver.trainers[pair.b]
    scope = driver.config.exchange
    tracer = driver.telemetry.tracer
    x0 = time.perf_counter()
    pkg_a = a.exchange_package(scope)
    pkg_b = b.exchange_package(scope)
    nbytes = nbytes_of(pkg_a["weights"]) + nbytes_of(pkg_b["weights"])
    x1 = time.perf_counter()
    if tracer is not None:
        tracer.record(
            "exchange", cat="exchange", t0=x0, end=x1,
            trainer_a=a.name, trainer_b=b.name, nbytes=nbytes,
        )
    driver.history.exchange_bytes += nbytes
    driver.telemetry.emit(
        EXCHANGE,
        round=round_index,
        trainer_a=a.name,
        trainer_b=b.name,
        scope=scope.value,
        nbytes=nbytes,
        topology=topology.name,
        neighborhood=pair.neighborhood,
    )
    judge = driver.judge
    for me_idx, me, theirs, partner in (
        (pair.a, a, pkg_b, b),
        (pair.b, b, pkg_a, a),
    ):
        own_score = driver.judge_score(me)
        partner_score = driver.judge_score(me, theirs["weights"], scope)
        adopt = partner_score < own_score
        if adopt:
            me.adopt_package(theirs)
            me.tournaments_lost += 1
            partner.tournaments_won += 1
            # Remote replicas must re-sync before the next train
            # interval (no-op for in-process backends).
            driver.backend.mark_dirty(me.name)
        driver.history.tournaments.append(
            TournamentRecord(
                round_index=round_index,
                trainer=me.name,
                partner=partner.name,
                own_score=own_score,
                partner_score=partner_score,
                adopted_partner=adopt,
            )
        )
        driver.telemetry.emit(
            TOURNAMENT,
            round=round_index,
            trainer=me.name,
            partner=partner.name,
            own_score=own_score,
            partner_score=partner_score,
            adopted=adopt,
            topology=topology.name,
            neighborhood=topology.neighborhood_of(me_idx),
            judge=judge.name,
        )
    return x1 - x0


class RandomPairwise(Topology):
    """The paper's LTFB pairing: one ``rng.permutation(k)`` per round,
    adjacent permutation entries pair up, and with an odd population the
    last entry deterministically sits the round out (the bye).

    Bit-identical to the pre-topology :class:`~repro.core.ltfb.LtfbDriver`
    — same single RNG draw per round, same pair order, same tournament
    order — so cross-backend determinism baselines carry over unchanged.
    """

    name = "random_pairwise"

    def plan_round(self, round_index: int) -> RoundPlan:
        k = len(self._names)
        perm = self._require_rng().permutation(k)
        pairs = tuple(
            Pairing(int(perm[i]), int(perm[i + 1]))
            for i in range(0, k - 1, 2)
        )
        byes = (int(perm[k - 1]),) if k % 2 else ()
        return RoundPlan(pairs=pairs, byes=byes)

    def _state(self) -> dict:
        # PCG64 (and every numpy bit generator) exposes a JSON-serializable
        # state dict; restoring it realigns the pairing stream so a resumed
        # campaign draws exactly the pairs the uninterrupted run would have.
        return {"rng_state": self._require_rng().bit_generator.state}

    def _restore(self, state: Mapping) -> None:
        rng_state = state.get("rng_state")
        if rng_state is not None:
            self._require_rng().bit_generator.state = rng_state


def _infer_grid(k: int) -> tuple[int, int]:
    """Most-square factorization of ``k`` (rows <= cols); primes and tiny
    populations fall back to a 1D ring ``(1, k)``."""
    best = (1, k)
    for rows in range(2, int(np.sqrt(k)) + 1):
        if k % rows == 0:
            best = (rows, k // rows)
    return best


class CellularGrid(Topology):
    """Cellular pairing on a 1D ring or 2D wraparound grid (Pérez et al.).

    Trainers occupy grid cells in population order (row-major).  Each
    round exchanges along one neighborhood direction — von Neumann cycles
    right/down, Moore adds the two diagonals — with an alternating brick
    phase, so over ``2 * len(directions)`` rounds every neighborhood edge
    is exercised.  Pairing is greedy and wholly deterministic: no RNG, so
    the plan is a pure function of the round index and the grid shape.
    Cells left unmatched along a direction (odd row/column lengths) are
    the round's byes, and rotate with the phase.

    Parameters
    ----------
    shape:
        ``(rows, cols)`` or ``(k,)``; ``None`` infers the most-square
        factorization (1D ring for primes).  ``rows * cols`` must equal
        the population size at bind.
    neighborhood:
        ``"von_neumann"`` (axis-aligned) or ``"moore"`` (adds diagonals;
        meaningful only on true 2D grids).
    """

    name = "cellular_grid"

    _NEIGHBORHOODS = ("von_neumann", "moore")

    def __init__(
        self,
        shape: Sequence[int] | None = None,
        neighborhood: str = "von_neumann",
    ) -> None:
        super().__init__()
        if neighborhood not in self._NEIGHBORHOODS:
            raise ValueError(
                f"neighborhood must be one of {self._NEIGHBORHOODS}, "
                f"got {neighborhood!r}"
            )
        if shape is not None:
            shape = tuple(int(s) for s in shape)
            if len(shape) not in (1, 2) or any(s <= 0 for s in shape):
                raise ValueError(
                    f"shape must be (k,) or (rows, cols) of positive ints, "
                    f"got {shape!r}"
                )
            if len(shape) == 1:
                shape = (1, shape[0])
        self._shape: tuple[int, int] | None = shape
        self.neighborhood = neighborhood

    def _on_bind(self) -> None:
        k = len(self._names)
        if self._shape is None:
            self._shape = _infer_grid(k)
        rows, cols = self._shape
        if rows * cols != k:
            raise ValueError(
                f"grid shape {self._shape} does not tile a population of "
                f"{k} trainers"
            )

    @property
    def shape(self) -> tuple[int, int]:
        if self._shape is None:
            raise RuntimeError("grid shape is inferred at bind")
        return self._shape

    def _directions(self) -> list[tuple[int, int]]:
        rows, cols = self.shape
        if rows == 1:
            return [(0, 1)]  # 1D ring
        if cols == 1:
            return [(1, 0)]
        dirs = [(0, 1), (1, 0)]
        if self.neighborhood == "moore":
            dirs += [(1, 1), (1, -1)]
        return dirs

    def neighborhood_of(self, index: int) -> str:
        rows, cols = self.shape
        return f"cell({index // cols},{index % cols})"

    def plan_round(self, round_index: int) -> RoundPlan:
        rows, cols = self.shape
        k = rows * cols
        if k < 2:
            return RoundPlan(byes=(0,))
        dirs = self._directions()
        dr, dc = dirs[round_index % len(dirs)]
        phase = (round_index // len(dirs)) % 2
        used = [False] * k
        pairs: list[Pairing] = []
        # Greedy matching in phase-shifted row-major order: the shift
        # alternates the brick pattern so consecutive passes along one
        # direction pair different neighbors (and rotate the byes).
        for i in range(k):
            cell = (i + phase) % k
            if used[cell]:
                continue
            r, c = divmod(cell, cols)
            nb = ((r + dr) % rows) * cols + (c + dc) % cols
            if nb == cell or used[nb]:
                continue
            used[cell] = used[nb] = True
            pairs.append(
                Pairing(
                    cell,
                    nb,
                    neighborhood=(
                        f"{self.neighborhood_of(cell)}|"
                        f"{self.neighborhood_of(nb)}"
                    ),
                )
            )
        byes = tuple(i for i in range(k) if not used[i])
        return RoundPlan(pairs=tuple(pairs), byes=byes)

    def _state(self) -> dict:
        rows, cols = self.shape
        return {"shape": [rows, cols], "neighborhood": self.neighborhood}

    def _restore(self, state: Mapping) -> None:
        shape = tuple(state.get("shape", ()))
        if shape != self.shape:
            raise CheckpointMismatchError(
                f"checkpoint records grid shape {shape}, cannot restore "
                f"into a {self.shape} grid"
            )
        if state.get("neighborhood") != self.neighborhood:
            raise CheckpointMismatchError(
                f"checkpoint records {state.get('neighborhood')!r} "
                f"neighborhoods, topology uses {self.neighborhood!r}"
            )


class MultiDiscriminator(Topology):
    """MD-GAN-style coordination: aggregating generators, rotating
    discriminators (Hardy et al., adapted to the tournament framework).

    Per round, two deterministic steps:

    1. **Generator aggregation** — the population all-gathers generator
       packages; every trainer scores every candidate on its local
       tournament shard; the candidate with the best (lowest) *mean*
       score across all shards is the consensus generator, and every
       trainer whose own aggregate score is worse adopts it.  Ties break
       to the lowest population index.
    2. **Discriminator rotation** — each trainer's discriminator (and its
       optimizer state) moves one position around the population ring, so
       over k rounds every discriminator has judged every data shard.

    Both steps mark the touched trainers dirty for replica re-sync and
    book their bytes into ``history.exchange_bytes``.  No RNG is
    consumed; the plan is a pure function of the round index.
    """

    name = "multi_discriminator"

    def __init__(self) -> None:
        super().__init__()
        self._rotations = 0

    def neighborhood_of(self, index: int) -> str:
        return f"shard{index}"

    def exchange(self, driver: "PopulationDriver", round_index: int) -> float:
        trainers = driver.trainers
        names = self._names
        k = len(trainers)
        if k < 2:
            driver.record_pairings(round_index, RoundPlan(byes=(0,)), self)
            return 0.0
        scope = driver.config.exchange
        exchange_s = 0.0

        # -- 1. generator aggregation ------------------------------------
        x0 = time.perf_counter()
        packages = [t.exchange_package(scope) for t in trainers]
        pkg_bytes = [nbytes_of(p["weights"]) for p in packages]
        x1 = time.perf_counter()
        exchange_s += x1 - x0
        # All-gather accounting: every package reaches the k-1 other
        # shards so each judge can score each candidate locally.
        for g in range(k):
            nbytes = (k - 1) * pkg_bytes[g]
            driver.history.exchange_bytes += nbytes
            driver.telemetry.emit(
                EXCHANGE,
                round=round_index,
                trainer_a=names[g],
                trainer_b="broadcast",
                scope=scope.value,
                nbytes=nbytes,
                topology=self.name,
                neighborhood=self.neighborhood_of(g),
            )
        judge = driver.judge
        own = [driver.judge_score(t) for t in trainers]
        agg = [
            float(
                np.mean(
                    [
                        own[g] if j == g
                        else driver.judge_score(
                            trainers[j], packages[g]["weights"], scope
                        )
                        for j in range(k)
                    ]
                )
            )
            for g in range(k)
        ]
        best = int(np.argmin(agg))
        plan = RoundPlan(
            pairs=tuple(
                Pairing(me, best, neighborhood=self.neighborhood_of(me))
                for me in range(k)
                if me != best
            )
        )
        driver.record_pairings(round_index, plan, self)
        for me_idx in range(k):
            if me_idx == best:
                continue
            me = trainers[me_idx]
            adopt = agg[best] < agg[me_idx]
            if adopt:
                me.adopt_package(packages[best])
                me.tournaments_lost += 1
                trainers[best].tournaments_won += 1
                driver.backend.mark_dirty(me.name)
            driver.history.tournaments.append(
                TournamentRecord(
                    round_index=round_index,
                    trainer=me.name,
                    partner=names[best],
                    own_score=agg[me_idx],
                    partner_score=agg[best],
                    adopted_partner=adopt,
                )
            )
            driver.telemetry.emit(
                TOURNAMENT,
                round=round_index,
                trainer=me.name,
                partner=names[best],
                own_score=agg[me_idx],
                partner_score=agg[best],
                adopted=adopt,
                topology=self.name,
                neighborhood=self.neighborhood_of(me_idx),
                judge=judge.name,
            )

        # -- 2. discriminator rotation -----------------------------------
        x0 = time.perf_counter()
        full_states = [t.surrogate.get_full_state() for t in trainers]
        disc_opts = [t.disc_optimizer.get_state() for t in trainers]
        for i, t in enumerate(trainers):
            src = (i + 1) % k
            disc = {
                key: value
                for key, value in full_states[src].items()
                if key.startswith("discriminator/")
            }
            merged = dict(t.surrogate.get_full_state())
            merged.update(disc)
            t.surrogate.set_full_state(merged)
            t.disc_optimizer.set_state(disc_opts[src])
            driver.backend.mark_dirty(t.name)
            nbytes = nbytes_of(disc)
            driver.history.exchange_bytes += nbytes
            driver.telemetry.emit(
                EXCHANGE,
                round=round_index,
                trainer_a=names[src],
                trainer_b=t.name,
                scope="discriminator",
                nbytes=nbytes,
                topology=self.name,
                neighborhood=self.neighborhood_of(i),
            )
        exchange_s += time.perf_counter() - x0
        self._rotations += 1
        return exchange_s

    def _state(self) -> dict:
        return {"rotations": self._rotations}

    def _restore(self, state: Mapping) -> None:
        self._rotations = int(state.get("rotations", 0))


class AsyncPairwise(Topology):
    """Barrier-free pairwise tournaments over a readiness queue.

    Trainers enter the queue as their train intervals complete (the
    execution backend's ``train_round(..., on_ready)`` reports readiness in
    completion order); a newly ready trainer pairs immediately with a
    seeded-random waiting trainer, and the tournament runs while the rest
    of the population is still training.  A trainer left waiting when the
    round drains is the round's bye.

    Determinism: the *pairing decision* given a readiness order is fully
    seeded (one ``rng.integers`` draw per pairing), and on the serial
    backend readiness order is population order — so serial async runs
    are reproducible end-to-end.  Thread/process backends deliver true
    completion order, which is the point of removing the barrier and is
    inherently schedule-dependent.

    ``state()`` carries the readiness cursor (total readiness events
    processed) and the pairing RNG state, so a resumed campaign continues
    the same seeded decision stream.
    """

    name = "async_pairwise"
    barrier_free = True

    def __init__(self) -> None:
        super().__init__()
        self._waiting: list[int] = []
        self._ready_cursor = 0

    def _on_bind(self) -> None:
        self._require_rng()

    def begin_round(self, round_index: int) -> None:
        self._waiting = []

    def on_ready(self, index: int) -> Pairing | None:
        self._ready_cursor += 1
        if self._waiting:
            pick = int(self._require_rng().integers(len(self._waiting)))
            partner = self._waiting.pop(pick)
            return Pairing(partner, index)
        self._waiting.append(index)
        return None

    def finish_round(self) -> tuple[int, ...]:
        byes = tuple(self._waiting)
        self._waiting = []
        return byes

    def _state(self) -> dict:
        return {
            "ready_cursor": self._ready_cursor,
            "rng_state": self._require_rng().bit_generator.state,
        }

    def _restore(self, state: Mapping) -> None:
        self._ready_cursor = int(state.get("ready_cursor", 0))
        rng_state = state.get("rng_state")
        if rng_state is not None:
            self._require_rng().bit_generator.state = rng_state


class Isolated(Topology):
    """No coordination at all — the K-independent baseline of Fig. 13.

    Exists so every population driver runs through one topology seam:
    ``active = False`` makes the driver skip the tournament phase (and
    its telemetry) entirely, preserving the historical K-independent
    round shape.
    """

    name = "isolated"
    active = False

    def plan_round(self, round_index: int) -> RoundPlan:
        return RoundPlan()

    def exchange(self, driver: "PopulationDriver", round_index: int) -> float:
        return 0.0


#: Names accepted by :func:`resolve_topology` and the tests'
#: ``--topology`` flag.
TOPOLOGY_NAMES = (
    "random_pairwise",
    "cellular_grid",
    "multi_discriminator",
    "async_pairwise",
    "isolated",
)


def resolve_topology(spec: "Topology | str | None") -> Topology:
    """Coerce a topology spec into a :class:`Topology`.

    ``None`` means :class:`Isolated` (drivers override their own default
    — LTFB resolves ``None`` to :class:`RandomPairwise`); a string names
    one of :data:`TOPOLOGY_NAMES`; an instance passes through unchanged.
    """
    if isinstance(spec, Topology):
        return spec
    if spec is None:
        return Isolated()
    if isinstance(spec, str):
        registry = {
            "random_pairwise": RandomPairwise,
            "cellular_grid": CellularGrid,
            "multi_discriminator": MultiDiscriminator,
            "async_pairwise": AsyncPairwise,
            "isolated": Isolated,
        }
        try:
            return registry[spec]()
        except KeyError:
            raise ValueError(
                f"unknown topology {spec!r}; expected one of {TOPOLOGY_NAMES}"
            ) from None
    raise TypeError(
        f"topology must be None, a name, or a Topology, got {spec!r}"
    )
