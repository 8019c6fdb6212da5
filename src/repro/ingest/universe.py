"""The growing sample universe and the reader that snapshots it.

The fixed-population assumption the rest of the data plane was built on
lives in exactly one place after this refactor: ``Reader.sample_ids``.
:class:`SampleUniverse` replaces it with an *append-only id log* plus a
version counter — version ``v`` freezes the first ``size_at(v)`` ids —
and :class:`StreamReader` plans every epoch against one frozen version:

- at plan time the reader freezes the universe's *current* version and
  stamps it into the :class:`~repro.datastore.reader.EpochPlan`
  (``universe_version``), so the plan is deterministic *per snapshot*;
- on checkpoint replay, :meth:`StreamReader.begin_replay` pins the next
  plan to the checkpointed version, so the in-flight epoch re-plans
  against the identical id set even though the universe has grown since.

Admission is idempotent per sample id.  The universe retains every
admitted sample's fields, which doubles as the fallback for store-backed
readers whose evicting store has dropped a streamed sample — there is no
file to re-read it from.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.datastore.reader import BatchPlan, Reader
from repro.datastore.store import DistributedDataStore
from repro.ingest.channel import StreamedSample

__all__ = ["SampleUniverse", "StreamReader"]


class SampleUniverse:
    """Append-only sample population with immutable version snapshots.

    ``version`` starts at 0 (empty) and bumps once per :meth:`admit` call
    that added at least one new sample; :meth:`snapshot_ids` returns the
    frozen id prefix of any past version.  The sequence of versions is a
    pure function of the sequence of admit calls, which is what makes
    checkpoint replay exact.
    """

    def __init__(self) -> None:
        self._log = np.empty(0, dtype=np.int64)  # admission order
        self._fields: dict[int, dict[str, np.ndarray]] = {}
        self._sizes: list[int] = [0]  # size frozen at each version

    @property
    def version(self) -> int:
        return len(self._sizes) - 1

    @property
    def size(self) -> int:
        return int(self._log.size)

    def __contains__(self, sample_id: int) -> bool:
        return int(sample_id) in self._fields

    def admit(self, samples: Iterable[StreamedSample]) -> int:
        """Append new samples (idempotent per id); returns how many were
        new.  Bumps :attr:`version` when anything was added."""
        new = []
        for s in samples:
            sid = int(s.sample_id)
            if sid in self._fields:
                continue
            self._fields[sid] = {
                k: np.asarray(v) for k, v in s.fields.items()
            }
            new.append(sid)
        if new:
            # A new array per version: snapshots handed out earlier are
            # slices of the old one and never see the growth.
            self._log = np.concatenate((self._log, np.asarray(new, dtype=np.int64)))
            self._sizes.append(self.size)
        return len(new)

    def size_at(self, version: int) -> int:
        if not 0 <= version <= self.version:
            raise ValueError(
                f"version {version} is outside 0..{self.version}"
            )
        return self._sizes[version]

    def snapshot_ids(self, version: int) -> np.ndarray:
        """The frozen id set of ``version``, in admission order (a slice
        of the log, not a copy: treat it as read-only)."""
        return self._log[: self.size_at(version)]

    def fields_of(self, sample_id: int) -> dict[str, np.ndarray]:
        return self._fields[int(sample_id)]

    def batch(self, sample_ids: Sequence[int]) -> dict[str, np.ndarray]:
        """Stack the given samples' fields in batch order."""
        rows = [self._fields[int(s)] for s in sample_ids]
        names = sorted(rows[0])
        return {
            name: np.stack([r[name] for r in rows], axis=0) for name in names
        }

    def stack_fields(self, version: int | None = None) -> dict[str, np.ndarray]:
        """Column arrays over a whole snapshot (latest by default) —
        e.g. to pretrain an autoencoder on what has streamed in so far."""
        ids = self.snapshot_ids(self.version if version is None else version)
        return self.batch(ids)

    def warm(self, store: DistributedDataStore) -> int:
        """Admit every retained sample into ``store`` in admission order
        (e.g. to rebuild a store after a checkpoint replay).  Returns how
        many samples the store newly admitted."""
        before = store.stats.admitted
        for sid in self._log.tolist():
            store.admit(sid, self._fields[sid])
        return store.stats.admitted - before

    def __repr__(self) -> str:
        return f"SampleUniverse(size={self.size}, version={self.version})"


class StreamReader(Reader):
    """Reader over a :class:`SampleUniverse`, optionally store-backed.

    Each :meth:`~repro.datastore.reader.Reader.plan_epoch` freezes one
    universe snapshot: the latest version normally, or the version pinned
    by :meth:`begin_replay` when a checkpointed plan cursor is being
    restored.  Between plans, :attr:`sample_ids` always equals the last
    frozen snapshot — materialization never sees ids beyond it.

    With a ``store``, batches are fetched through the
    :class:`~repro.datastore.store.DistributedDataStore` (admitted
    streamed samples live in its shards; per-batch exchange accounting
    applies as usual) and evicted samples fall back to the universe's
    retained copy — they are *not* re-cached, mirroring the store
    reader's treatment of eviction casualties.  Without a store, batches
    stack straight from the universe.
    """

    def __init__(
        self,
        universe: SampleUniverse,
        rng: np.random.Generator,
        store: DistributedDataStore | None = None,
    ) -> None:
        if universe.size == 0:
            raise ValueError(
                "cannot build a StreamReader over an empty universe; "
                "prime the ingestion source first"
            )
        super().__init__(universe.snapshot_ids(universe.version), rng)
        self.universe = universe
        self.store = store
        self._frozen_version = universe.version
        self._replay_version: int | None = None

    @property
    def frozen_version(self) -> int:
        """The snapshot version the latest plan was drawn against."""
        return self._frozen_version

    def begin_replay(self, version: int) -> None:
        """Pin the *next* plan to a checkpointed snapshot version.

        One-shot: the plan after that returns to tracking the latest
        universe version.  Called by
        :meth:`~repro.datastore.pipeline.BatchPipeline.restore`.
        """
        self._replay_version = int(version)

    def _freeze_plan_universe(self) -> int:
        version = (
            self.universe.version
            if self._replay_version is None
            else self._replay_version
        )
        self._replay_version = None
        self.sample_ids = self.universe.snapshot_ids(version)
        self._frozen_version = version
        return version

    def ingest_admit(
        self, samples: Sequence[StreamedSample], version: int | None = None
    ) -> int:
        """Admit drained samples into this reader's universe and store.

        Idempotent (shared universes are admitted once no matter how many
        readers see the batch).  ``version`` asserts the universe version
        after admission — the cross-process consistency check worker
        replicas run so every replica sees identical growth.  Returns the
        number of samples new to the universe.
        """
        added = self.universe.admit(samples)
        if version is not None and self.universe.version != version:
            raise RuntimeError(
                f"universe diverged: version {self.universe.version} after "
                f"admission, driver expected {version}"
            )
        if self.store is not None:
            for s in samples:
                self.store.admit(int(s.sample_id), s.fields)
        return added

    def _fetch(
        self, ids: np.ndarray, plan: BatchPlan | None = None
    ) -> dict[str, np.ndarray]:
        if self.store is None:
            return self.universe.batch(ids)
        fallback = {
            int(s): self.universe.fields_of(int(s))
            for s in ids
            if int(s) not in self.store
        }
        return self.store.fetch_batch(ids, fallback=fallback or None, plan=plan)
