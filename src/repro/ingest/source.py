"""What the population drivers poll between rounds.

One :meth:`StreamingSource.poll` is one ingestion beat, always in the
same order:

1. **pump** — let the campaign advance up to ``tasks_per_poll``
   simulated completions, publishing into the channel (stopping early at
   the high watermark);
2. **age out** — evict pending samples older than the channel's
   ``max_age_s`` against the campaign's simulated clock;
3. **drain** — take every surviving pending sample;
4. **admit** — grow the :class:`~repro.ingest.SampleUniverse` (one new
   version when anything arrived) and the stores of every attached
   trainer's :class:`~repro.ingest.StreamReader`;
5. **re-synchronize** — suspend every trainer's data pipeline, rewinding
   any epoch plans a prefetch thread drew ahead, so the *next* plan of
   every trainer freezes the new snapshot (this is the determinism
   barrier: without it the plan-to-snapshot mapping would depend on
   thread timing);
6. **propagate** — tell the execution backend
   (:meth:`~repro.exec.base.ExecutionBackend.ingest_admit`) so worker
   processes holding replicas grow their copy of the universe
   identically;
7. **observe** — emit one ``ingest`` telemetry event with the poll's
   deltas (admissions, evictions, channel depth, producer lag, store
   occupancy).

Because steps 1-4 touch no trainer state and the universe only changes
here, the whole ingestion history is a pure function of the number of
polls — which is all a checkpoint needs to record (:meth:`state`) and a
resume needs to replay (:meth:`replay`).
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.ingest.channel import IngestChannel
from repro.ingest.producer import StreamingCampaign
from repro.ingest.universe import SampleUniverse, StreamReader

__all__ = ["StreamingSource", "IngestReplayError"]


class IngestReplayError(ValueError):
    """A checkpointed ingestion cursor could not be reproduced by replay
    (different campaign seed/geometry, channel policy, or poll count)."""


class StreamingSource:
    """Bridges a producing campaign into a training population.

    Drivers call :meth:`poll` between rounds (they pass their trainers
    and backend); experiments call :meth:`prime` once before building
    the population, so there is a non-empty universe to construct
    readers over.  Both paths go through the same beat, so priming polls
    and training polls replay identically.
    """

    def __init__(
        self,
        campaign: StreamingCampaign,
        channel: IngestChannel,
        universe: SampleUniverse,
        tasks_per_poll: int = 32,
    ) -> None:
        if tasks_per_poll <= 0:
            raise ValueError("tasks_per_poll must be positive")
        self.campaign = campaign
        self.channel = channel
        self.universe = universe
        self.tasks_per_poll = int(tasks_per_poll)
        self.polls = 0
        self.telemetry = None  # drivers attach their hub
        self._last_store_evictions = 0
        self._last_evicted = 0

    # -- the ingestion beat --------------------------------------------------

    def _stores(self, trainers: Sequence) -> list:
        stores, seen = [], set()
        for t in trainers:
            store = getattr(getattr(t, "reader", None), "store", None)
            if store is not None and id(store) not in seen:
                seen.add(id(store))
                stores.append(store)
        return stores

    def poll(
        self,
        trainers: Sequence = (),
        backend=None,
        round_index: int | None = None,
    ) -> int:
        """Run one ingestion beat; returns samples admitted this poll."""
        published = self.campaign.pump(self.channel, self.tasks_per_poll)
        stale = self.channel.evict_stale(self.campaign.clock_s)
        # Snapshot backpressure *before* draining: a full drain always
        # releases the pause, so the post-drain reading would hide the
        # producer-side stall the live plane wants to see.  Only a pump
        # the pause cut short counts: a pause that engages on the last
        # sample of the per-poll budget held nobody back.
        paused = self.channel.paused and published < self.tasks_per_poll
        peak_occupancy = self.channel.depth / self.channel.capacity
        drained = self.channel.drain()
        version_before = self.universe.version
        admitted = self.universe.admit(drained)

        stores = self._stores(trainers)
        if drained:
            for t in trainers:
                reader = getattr(t, "reader", None)
                if isinstance(reader, StreamReader):
                    reader.ingest_admit(drained, version=self.universe.version)
        if admitted:
            # Rewind plans drawn ahead of the growth point so every
            # trainer's next plan freezes the new snapshot.
            for t in trainers:
                t.suspend_data_pipeline()
            if backend is not None:
                backend.ingest_admit(drained, self.universe.version)

        self.polls += 1
        store_evictions = sum(s.stats.evictions for s in stores)
        evicted_delta = self.channel.stats.evicted - self._last_evicted
        store_evictions_delta = store_evictions - self._last_store_evictions
        self._last_evicted = self.channel.stats.evicted
        self._last_store_evictions = store_evictions
        if self.telemetry is not None:
            self.telemetry.emit(
                "ingest",
                round=round_index,
                admitted=admitted,
                evicted=evicted_delta,
                stale=stale,
                store_evictions=store_evictions_delta,
                depth=self.channel.depth,
                cursor=self.channel.cursor,
                universe_version=self.universe.version,
                universe_size=self.universe.size,
                producer_lag=self.channel.producer_lag,
                store_occupancy=max(
                    (s.occupancy_fraction() for s in stores), default=0.0
                ),
                paused=paused,
                channel_occupancy=peak_occupancy,
            )
        assert self.universe.version in (version_before, version_before + 1)
        return admitted

    def prime(self, min_samples: int, max_polls: int = 10_000) -> int:
        """Poll (with no trainers) until the universe holds at least
        ``min_samples``; returns the universe size reached.  Raises when
        the campaign exhausts or ``max_polls`` pass first."""
        for _ in range(max_polls):
            if self.universe.size >= min_samples:
                return self.universe.size
            self.poll()
            if self.campaign.exhausted and self.channel.depth == 0:
                break
        if self.universe.size < min_samples:
            raise RuntimeError(
                f"could not prime {min_samples} samples: universe holds "
                f"{self.universe.size} after {self.polls} polls "
                f"(campaign exhausted={self.campaign.exhausted})"
            )
        return self.universe.size

    # -- checkpoint / replay -------------------------------------------------

    def state(self) -> dict:
        """JSON-serializable ingestion cursor for the population
        checkpoint manifest."""
        return {
            "polls": self.polls,
            "cursor": self.channel.cursor,
            "universe_version": self.universe.version,
            "universe_size": self.universe.size,
        }

    def replay(self, state: Mapping) -> None:
        """Reproduce a checkpointed ingestion history on rebuilt campaign,
        channel and universe objects (same seeds and geometry).

        Polls (trainer-less) until ``state["polls"]`` total polls have
        run — the source may already have taken some (a resume that
        re-primed exactly like the original run), as long as it has not
        passed the checkpoint — then verifies the channel cursor and
        universe version/size match the checkpoint: the guarantee that
        resumed epoch plans will freeze identical snapshots.
        """
        remaining = int(state["polls"]) - self.polls
        if remaining < 0:
            raise IngestReplayError(
                f"replay target is {state['polls']} polls but this source "
                f"has already polled {self.polls} times"
            )
        for _ in range(remaining):
            self.poll()
        got = self.state()
        for key in ("cursor", "universe_version", "universe_size"):
            if got[key] != state[key]:
                raise IngestReplayError(
                    f"ingestion replay diverged on {key}: checkpoint has "
                    f"{state[key]}, replay produced {got[key]} — the "
                    "campaign/channel configuration does not match the "
                    "checkpointed run"
                )

    def __repr__(self) -> str:
        return (
            f"StreamingSource(polls={self.polls}, "
            f"universe={self.universe!r}, channel={self.channel!r})"
        )
