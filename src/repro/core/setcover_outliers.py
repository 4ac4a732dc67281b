"""Algorithms 4 and 5: single-pass streaming set cover with λ outliers.

Theorem 3.3: for ``ε ∈ (0, 1]`` and ``λ ∈ (0, 1/e]`` the algorithm returns a
``(1 + ε) log(1/λ)``-approximate solution to set cover with λ outliers with
probability ``1 − 1/n`` using ``O~(n/λ³) ⊆ O~_λ(n)`` space, single pass,
edge arrivals.

Structure, exactly as in the paper:

* **Algorithm 4** (:class:`GuessChecker`) — for a guessed cover size ``k'``
  build the sketch ``H_{<=n}(k' log(1/λ'), ε, δ'')`` with
  ``ε = ε'/(13 log(1/λ'))``, run greedy for ``k' log(1/λ')`` steps on the
  sketch, and accept iff the selection covers at least a
  ``1 − λ' − ε log(1/λ')`` fraction of the sketch's elements.  Lemma 3.2: it
  never accepts when the true minimum cover exceeds ``k'``... more precisely
  it never returns *false* when a cover of size ``k'`` exists, and an
  accepted solution covers ``1 − λ' − ε'`` of the real elements w.h.p.
* **Algorithm 5** (:class:`StreamingSetCoverOutliers`) — run Algorithm 4 for
  geometrically increasing guesses ``k' = 1, (1+ε/3), (1+ε/3)², ...`` (all
  sketches maintained in the same single pass) and return the first guess
  whose checker accepts.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from repro.core.hashing import HashFamily, UniformHash
from repro.coverage.bitset import KernelCache, check_coverage_backend
from repro.core.params import SketchParams
from repro.core.sketch import CoverageSketch
from repro.core.streaming_sketch import BatchGrouping, StreamingSketchBuilder
from repro.offline.greedy import greedy_k_cover
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.validation import check_in_range, check_open_unit, check_positive_int

__all__ = ["GuessChecker", "GuessOutcome", "StreamingSetCoverOutliers", "guess_schedule"]

#: Sentinel distinguishing "use the instance's configured backend" from an
#: explicit per-query override (which may legitimately be ``None``).
_UNSET: object = object()


def guess_schedule(num_sets: int, epsilon: float) -> list[int]:
    """The geometric schedule of cover-size guesses used by Algorithm 5.

    Starts at ``k' = 1`` and multiplies by ``1 + ε/3`` until reaching ``n``;
    duplicate integer guesses (possible for small values) are merged.
    """
    check_positive_int(num_sets, "num_sets")
    check_open_unit(epsilon, "epsilon")
    guesses: list[int] = []
    value = 1.0
    while True:
        guess = min(num_sets, max(1, math.ceil(value)))
        if not guesses or guess != guesses[-1]:
            guesses.append(guess)
        if guess >= num_sets:
            break
        value *= 1.0 + epsilon / 3.0
    return guesses


@dataclass
class GuessOutcome:
    """Result of checking one guess ``k'`` (one Algorithm 4 run)."""

    guess: int
    accepted: bool
    solution: list[int]
    sketch_fraction: float
    required_fraction: float
    sketch_edges: int


class GuessChecker:
    """Algorithm 4: the per-guess submodule of the outlier set cover.

    Parameters
    ----------
    guess:
        The guessed minimum cover size ``k'``.
    epsilon_prime:
        The outer accuracy ``ε'`` (the paper's Algorithm 4 input).
    lambda_prime:
        The per-call outlier fraction ``λ'``.
    confidence:
        The paper's ``C'`` (enters only through ``δ''``).
    num_sets, num_elements:
        Instance dimensions.
    mode, scale, seed, hash_fn:
        Sketch parameterisation, as in :class:`StreamingKCover`.
    coverage_backend:
        Optional packed-bitset kernel backend; :meth:`check` then runs its
        greedy on a kernel of the guess's sketch (identical selections).
    """

    def __init__(
        self,
        guess: int,
        epsilon_prime: float,
        lambda_prime: float,
        confidence: float,
        num_sets: int,
        num_elements: int,
        *,
        mode: str = "scaled",
        scale: float = 1.0,
        seed: int = 0,
        hash_fn: HashFamily | None = None,
        space: SpaceMeter | None = None,
        coverage_backend: str | None = None,
    ) -> None:
        check_positive_int(guess, "guess")
        check_open_unit(epsilon_prime, "epsilon_prime")
        check_in_range(lambda_prime, 1e-9, 1.0 / math.e, "lambda_prime")
        self.guess = guess
        self.lambda_prime = lambda_prime
        self.epsilon_prime = epsilon_prime
        # Algorithm 4, line 1: ε = ε' / (13 log(1/λ')), δ'' = log_{1+ε} n (log(C'n)+2).
        log_inv_lambda = math.log(1.0 / lambda_prime)
        self.budget_k = max(1, math.ceil(guess * log_inv_lambda))
        self.epsilon = min(1.0, epsilon_prime / (13.0 * max(1.0, log_inv_lambda)))
        delta_prime = max(
            1.0,
            math.log(max(2, num_sets), 1.0 + max(self.epsilon, 1e-6))
            * (math.log(max(2.0, confidence * num_sets)) + 2.0),
        )
        if mode == "theoretical":
            params = SketchParams.theoretical(
                num_sets, num_elements, self.budget_k, self.epsilon, delta_prime=delta_prime
            )
        else:
            params = SketchParams.scaled(
                num_sets,
                num_elements,
                self.budget_k,
                max(self.epsilon, 1e-3),
                delta_prime=delta_prime,
                scale=scale,
            )
        self.params = params
        self.coverage_backend = coverage_backend
        self.space = space if space is not None else SpaceMeter(unit="edges")
        self.builder = StreamingSketchBuilder(
            params,
            hash_fn=hash_fn or UniformHash(seed),
            seed=seed,
            space=self.space,
        )
        self._final_sketch: CoverageSketch | None = None
        self._kernel: KernelCache | None = None

    def process(self, event: EdgeArrival) -> None:
        """Feed one edge into this guess's sketch."""
        self.builder.process(event)

    def process_batch(self, batch: EventBatch, *, grouping: BatchGrouping | None = None) -> None:
        """Feed a columnar edge batch into this guess's sketch (``grouping``:
        the batch's grouping, shared with the other guesses)."""
        self.builder.process_batch(batch, grouping=grouping)

    def finalize(self) -> CoverageSketch:
        """Freeze the post-stream sketch (plus a kernel cache) for queries.

        Before finalization every :meth:`check` reads the builder's current
        columns (correct while the stream is still being fed, and no graph
        is built); after it, checks and queries share one immutable sketch
        and one packed kernel — the serving layer's repeat-query path.
        """
        if self._final_sketch is None:
            self._final_sketch = self.builder.sketch()
            self._kernel = KernelCache(self._final_sketch.graph)
        return self._final_sketch

    def check(
        self,
        *,
        forbidden: Iterable[int] = (),
        coverage_backend: object = _UNSET,
    ) -> GuessOutcome:
        """Run greedy on the sketch and apply the acceptance test (Algorithm 4).

        ``forbidden`` excludes set ids from the greedy; ``coverage_backend``
        overrides the configured kernel backend for this call only.  Neither
        affects the sketch itself, so one stream pass supports arbitrarily
        many differently-constrained checks.
        """
        backend = (
            self.coverage_backend if coverage_backend is _UNSET else coverage_backend
        )
        if self._final_sketch is not None and self._kernel is not None:
            sketch = self._final_sketch
            result = greedy_k_cover(
                sketch.graph,
                self.budget_k,
                forbidden=forbidden,
                kernel=self._kernel.get(backend),  # type: ignore[arg-type]
            )
            fraction = sketch.coverage_fraction(result.selected)
            edges = sketch.num_edges
        else:
            columns = self.builder.columns()
            result = columns.greedy_k_cover(
                self.params.num_sets,
                self.budget_k,
                forbidden=forbidden,
                coverage_backend=backend,  # type: ignore[arg-type]
            )
            # The greedy's coverage is its selection's coverage on the sketch.
            total = columns.num_elements
            fraction = result.coverage / total if total else 1.0
            edges = columns.num_edges
        required = 1.0 - self.lambda_prime - self.epsilon * math.log(1.0 / self.lambda_prime)
        accepted = fraction >= required - 1e-12
        return GuessOutcome(
            guess=self.guess,
            accepted=accepted,
            solution=result.selected,
            sketch_fraction=fraction,
            required_fraction=required,
            sketch_edges=edges,
        )


class StreamingSetCoverOutliers:
    """Algorithm 5: single-pass streaming set cover with λ outliers.

    Implements the :class:`StreamingAlgorithm` protocol.  All per-guess
    sketches are maintained simultaneously during the single pass ("run
    these in parallel" in the paper's pseudocode); afterwards the guesses
    are checked in increasing order and the first accepted solution wins.
    :meth:`result` stops checking at that first accept, so the guesses after
    it are never checked.  A check reads its guess's builder columns, so no
    guess sketch builds a graph unless :meth:`query` freezes it.

    Parameters
    ----------
    num_sets, num_elements:
        Instance dimensions.
    outlier_fraction:
        The target ``λ ∈ (0, 1/e]``.
    epsilon:
        Approximation slack; the returned solution has size at most
        ``(1 + ε) log(1/λ)`` times the optimum cover size.
    confidence:
        The paper's ``C`` (success probability ``1 − 1/(Cn)``).
    coverage_backend:
        Optional packed-bitset kernel backend; every guess's offline check
        (greedy on its sketch) then runs kernel-backed — the sketches are
        where this algorithm spends its offline time, one per guess.
    forbidden:
        Set ids no guess's greedy may select.  Applied at check time only;
        the per-guess sketches are built identically regardless.
    """

    def __init__(
        self,
        num_sets: int,
        num_elements: int,
        outlier_fraction: float,
        epsilon: float = 0.3,
        *,
        confidence: float = 1.0,
        mode: str = "scaled",
        scale: float = 1.0,
        seed: int = 0,
        max_guesses: int | None = None,
        coverage_backend: str | None = None,
        forbidden: Iterable[int] = (),
    ) -> None:
        check_positive_int(num_sets, "num_sets")
        check_open_unit(epsilon, "epsilon")
        check_in_range(outlier_fraction, 1e-9, 1.0 / math.e, "outlier_fraction")
        check_coverage_backend(coverage_backend)
        self.name = "bateni-sketch-setcover-outliers"
        self.arrival_model = "edge"
        self.num_sets = num_sets
        self.num_elements = num_elements
        self.outlier_fraction = outlier_fraction
        self.epsilon = epsilon
        # Algorithm 5, line 1.
        self.epsilon_prime = outlier_fraction * (1.0 - math.exp(-epsilon / 2.0))
        self.lambda_prime = outlier_fraction * math.exp(-epsilon / 2.0)
        self.confidence_prime = confidence * max(
            1.0, math.log(max(2, num_sets), 1.0 + epsilon / 3.0)
        )
        self.space = SpaceMeter(unit="edges")
        guesses = guess_schedule(num_sets, epsilon)
        if max_guesses is not None:
            guesses = guesses[: check_positive_int(max_guesses, "max_guesses")]
        self._checkers = [
            GuessChecker(
                guess,
                max(self.epsilon_prime, 1e-4),
                self.lambda_prime,
                self.confidence_prime,
                num_sets,
                num_elements,
                mode=mode,
                scale=scale,
                seed=seed + 1000 * index,
                space=self.space,
                coverage_backend=coverage_backend,
            )
            for index, guess in enumerate(guesses)
        ]
        self.coverage_backend = coverage_backend
        self.forbidden = frozenset(int(s) for s in forbidden)
        # Outcomes of the guesses checked so far, a prefix of the schedule.
        self._checked: list[GuessOutcome] = []
        self._solution: list[int] | None = None

    # ------------------------------------------------------------------ #
    # StreamingAlgorithm protocol
    # ------------------------------------------------------------------ #
    def start_pass(self, pass_index: int) -> None:
        """Single-pass algorithm."""
        if pass_index > 0:  # pragma: no cover - defensive
            raise RuntimeError("StreamingSetCoverOutliers is a single-pass algorithm")

    def process(self, event: EdgeArrival) -> None:
        """Feed one edge into every guess's sketch."""
        for checker in self._checkers:
            checker.process(event)

    def process_batch(self, batch: EventBatch) -> None:
        """Feed a columnar edge batch into every guess's sketch.

        The guesses charge one shared space meter, whose peak depends on how
        their admissions and evictions interleave.  When every guess can take
        the whole batch without an eviction, each one's stored-edge count
        only grows, so feeding the guesses one after another ends at the
        scalar path's peak.  Then the batch is grouped by element and pair
        once (:class:`BatchGrouping`), and every guess ranks only the
        batch's distinct elements with its own hash: the guesses differ in
        nothing else.  Otherwise the batch is fed edge by edge to all
        guesses in turn, exactly as the scalar stream does; so is a batch
        with an out-of-range set id, which then raises at the row (and
        guess) the scalar stream raises at.
        """
        in_range = not len(batch) or int(batch.set_ids.max()) < self.num_sets
        if in_range and all(
            checker.builder.fits_in_bulk(len(batch)) for checker in self._checkers
        ):
            grouping = BatchGrouping.of(batch, self.num_sets)
            for checker in self._checkers:
                checker.process_batch(batch, grouping=grouping)
            return
        for event in batch.iter_events():
            self.process(event)

    def finish_pass(self, pass_index: int) -> None:
        """Nothing to do — checking happens lazily in :meth:`result`."""

    def wants_another_pass(self) -> bool:
        """Always ``False``: single pass."""
        return False

    def result(self) -> list[int]:
        """The solution of the smallest accepted guess (or the last guess)."""
        if self._solution is None:
            accepted = self._first_accepted()
            chosen = accepted if accepted is not None else self._checked[-1]
            self._solution = list(dict.fromkeys(chosen.solution))
        return self._solution

    def _cascade(self) -> Iterator[GuessOutcome]:
        """Outcomes in guess order, checking each guess once, on demand."""
        for index, checker in enumerate(self._checkers):
            if index == len(self._checked):
                self._checked.append(checker.check(forbidden=self.forbidden))
            yield self._checked[index]

    def _first_accepted(self) -> GuessOutcome | None:
        """The first accepted outcome, checking no guess after it."""
        return next((outcome for outcome in self._cascade() if outcome.accepted), None)

    # ------------------------------------------------------------------ #
    # extras
    # ------------------------------------------------------------------ #
    def outcomes(self) -> list[GuessOutcome]:
        """Per-guess Algorithm 4 outcomes of every guess (computed once, cached)."""
        for _ in self._cascade():
            pass
        return self._checked

    def query(
        self,
        *,
        forbidden: Iterable[int] = (),
        coverage_backend: object = _UNSET,
    ) -> tuple[list[int], list[GuessOutcome]]:
        """Re-run the accept/reject cascade against the frozen sketches.

        Unlike :meth:`result`/:meth:`outcomes` this never touches the cached
        state, so a long-lived instance can answer many differently
        constrained queries (new forbidden sets, another kernel backend)
        after its single stream pass.  Returns ``(solution, outcomes)`` with
        the same first-accepted-else-last selection rule as :meth:`result`.
        """
        backend = (
            self.coverage_backend if coverage_backend is _UNSET else coverage_backend
        )
        outcomes: list[GuessOutcome] = []
        for checker in self._checkers:
            checker.finalize()
            outcomes.append(
                checker.check(forbidden=forbidden, coverage_backend=backend)
            )
        accepted = next((o for o in outcomes if o.accepted), None)
        chosen = accepted if accepted is not None else outcomes[-1]
        return list(dict.fromkeys(chosen.solution)), outcomes

    def guesses(self) -> Sequence[int]:
        """The guessed cover sizes, in increasing order."""
        return [checker.guess for checker in self._checkers]

    def accepted_guess(self) -> int | None:
        """The smallest accepted guess (``None`` if every guess was rejected)."""
        accepted = self._first_accepted()
        return None if accepted is None else accepted.guess

    def describe(self) -> dict[str, object]:
        """Diagnostics for reports."""
        accepted_guess = self.accepted_guess()
        return {
            "algorithm": self.name,
            "lambda": self.outlier_fraction,
            "epsilon": self.epsilon,
            "num_guesses": len(self._checkers),
            "space_peak": self.space.peak,
            "accepted_guess": accepted_guess,
            "guesses_checked": len(self._checked),
        }
