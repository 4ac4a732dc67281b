"""Shared set-arrival machinery of the multi-pass threshold baselines.

Both the Emek–Rosén-style partial cover (:mod:`repro.baselines.emek_rosen`)
and the Har-Peled et al.-style cover (:mod:`repro.baselines.harpeled`) keep
the universe seen so far, the covered elements, the accepted sets and one
witness set per element left uncovered in the final pass — all ``O(m)``.
An arriving set is accepted when its marginal gain clears the current
acceptance threshold; in the final pass, a set that is not accepted leaves
witnesses instead.  The baselines differ only in that threshold, which each
supplies through :meth:`ThresholdSetArrivalCover._acceptance_threshold`.
"""

from __future__ import annotations

import numpy as np

from repro.streaming.batches import EventBatch
from repro.streaming.events import SetArrival
from repro.streaming.space import SpaceMeter
from repro.utils.validation import check_positive_int

__all__ = ["ThresholdSetArrivalCover"]


class ThresholdSetArrivalCover:
    """Threshold acceptance plus final-pass witnesses over set arrivals.

    Subclasses set ``name``, implement :meth:`_acceptance_threshold`,
    ``finish_pass``, ``wants_another_pass`` and ``describe``; the scalar and
    batched updates, and the state they share, live here.
    """

    def __init__(self, num_elements_hint: int, passes: int) -> None:
        check_positive_int(num_elements_hint, "num_elements_hint")
        check_positive_int(passes, "passes")
        self.arrival_model = "set"
        self.num_elements_hint = num_elements_hint
        self.passes = passes
        self.space = SpaceMeter(unit="stored items")

        self._universe: set[int] = set()
        self._covered: set[int] = set()
        self._selected: list[int] = []
        self._witness: dict[int, int] = {}
        self._pass_index = 0

    def _acceptance_threshold(self) -> float:
        """The gain an arriving set needs to be accepted in the current pass.

        Fixed for the whole pass.  ``math.inf`` means the pass accepts
        nothing, so every batch becomes one observation run.
        """
        raise NotImplementedError

    def _final_pass(self) -> bool:
        return self._pass_index >= self.passes - 1

    # ------------------------------------------------------------------ #
    # StreamingAlgorithm protocol
    # ------------------------------------------------------------------ #
    def start_pass(self, pass_index: int) -> None:
        """Record the pass index the threshold schedule reads."""
        self._pass_index = pass_index

    def process(self, event: SetArrival) -> None:
        """Accept the arriving set if it clears the threshold; else maybe witness it."""
        self._process_members(event.set_id, event.elements)

    def _process_members(self, set_id: int, elements) -> None:
        """The exact per-set update, shared by the scalar and batched paths."""
        members = set(int(element) for element in elements)
        new_elements = members - self._universe
        if new_elements:
            self._universe |= new_elements
            self.space.charge(len(new_elements))
        gain = members - self._covered
        if not gain:
            return
        if len(gain) >= self._acceptance_threshold():
            self._selected.append(set_id)
            self._covered |= gain
            self.space.charge(1)
        elif self._final_pass():
            # Remember one witness set per still-uncovered element so the
            # leftovers can be patched after the last pass.
            for element in gain:
                if element not in self._witness:
                    self._witness[element] = set_id
                    self.space.charge(1)

    def process_batch(self, batch: EventBatch) -> None:
        """Consume a CSR set batch with a vectorised threshold prefilter.

        The threshold is fixed for the pass and ``|gain| <= member count``,
        so a set whose CSR run is shorter than the threshold can never be
        accepted: only the candidate sets that clear the count filter run
        the exact scalar accept logic (in stream order, since each
        acceptance shrinks later gains), and every run of skipped sets
        between candidates collapses into whole-array observation —
        universe growth plus, on the final pass, first-event witness
        recording.  Byte-identical to the scalar path for every batch size
        (property-tested).
        """
        if batch.offsets is None:
            raise TypeError(
                f"{type(self).__name__} is a set-arrival algorithm and cannot "
                "consume edge batches (offsets is None)"
            )
        offsets = batch.offsets
        counts = np.diff(offsets)
        candidates = np.flatnonzero(counts >= self._acceptance_threshold())
        num_events = len(batch.set_ids)
        cursor = 0
        for index in candidates.tolist():
            if index > cursor:
                self._observe_run(batch, cursor, index)
            start = int(offsets[index])
            stop = int(offsets[index + 1])
            self._process_members(
                int(batch.set_ids[index]), batch.elements[start:stop]
            )
            cursor = index + 1
        if cursor < num_events:
            self._observe_run(batch, cursor, num_events)

    def _observe_run(self, batch: EventBatch, lo: int, hi: int) -> None:
        """Observe a run of non-accepting sets without per-event loops.

        No acceptance happens inside the run, so ``_covered`` is constant
        across it: universe growth reduces to one pass over the distinct
        elements of the run's member slice, and final-pass witness recording
        maps each new element to the set at its first occurrence — the same
        first-event-wins outcome the scalar loop produces.  Space is charged
        in run aggregates; the meter only ever grows here, so the recorded
        peak is unchanged.
        """
        offsets = batch.offsets
        start = int(offsets[lo])
        stop = int(offsets[hi])
        if start == stop:
            return
        segment = batch.elements[start:stop]
        distinct, first_position = np.unique(segment, return_index=True)
        fresh = [
            element
            for element in distinct.tolist()
            if element not in self._universe
        ]
        if fresh:
            self._universe.update(fresh)
            self.space.charge(len(fresh))
        if not self._final_pass():
            return
        run_counts = np.diff(offsets[lo : hi + 1])
        owners = np.repeat(batch.set_ids[lo:hi], run_counts)
        witnessed = 0
        for element, position in zip(distinct.tolist(), first_position.tolist()):
            if element in self._covered or element in self._witness:
                continue
            self._witness[element] = int(owners[position])
            witnessed += 1
        if witnessed:
            self.space.charge(witnessed)

    def result(self) -> list[int]:
        """The accepted set ids."""
        return list(dict.fromkeys(self._selected))
