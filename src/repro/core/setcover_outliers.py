"""Algorithms 4 and 5: single-pass streaming set cover with λ outliers.

Theorem 3.3: for ``ε ∈ (0, 1]`` and ``λ ∈ (0, 1/e]`` the algorithm returns a
``(1 + ε) log(1/λ)``-approximate solution to set cover with λ outliers with
probability ``1 − 1/n`` using ``O~(n/λ³) ⊆ O~_λ(n)`` space, single pass,
edge arrivals.

Structure, exactly as in the paper:

* **Algorithm 4** (``_guess_plan`` and :func:`check_guess`) — for a guessed
  cover size ``k'`` build the sketch ``H_{<=n}(k' log(1/λ'), ε, δ'')`` with
  ``ε = ε'/(13 log(1/λ'))``, run greedy for ``k' log(1/λ')`` steps on the
  sketch, and accept iff the selection covers at least a
  ``1 − λ' − ε log(1/λ')`` fraction of the sketch's elements.  Lemma 3.2: it
  never accepts when the true minimum cover exceeds ``k'``... more precisely
  it never returns *false* when a cover of size ``k'`` exists, and an
  accepted solution covers ``1 − λ' − ε'`` of the real elements w.h.p.
* **Algorithm 5** (:class:`StreamingSetCoverOutliers`) — run Algorithm 4 for
  geometrically increasing guesses ``k' = 1, (1+ε/3), (1+ε/3)², ...`` (all
  sketches maintained in the same single pass) and return the first guess
  that :func:`check_guess` accepts.

Every guess ranks elements with the same hash, so the guesses' sketches are
nested rather than independent; the analysis only takes a union bound over
the guesses, which needs no independence.  A sketch then depends only on its
edge budget, degree cap and eviction slack, and Algorithm 4 clamps the cap
and slack to ``n`` (no element has more edges), so guesses whose three
budgets agree share one :class:`StreamingSketchBuilder`: all of them until
the caps fall below ``n``, which takes over a thousand sets (2,900 at
``λ = 0.1, ε = 0.3``).  A shared store is charged to the space meter once.

Nothing else a solve sets up depends on the stream, so it is done once:

* **The guess table.**  A guess's step count, ``ε``, clamped budgets and
  acceptance target are a pure function of ``(k', ε', λ', C', n, m, mode,
  scale)`` (``_guess_plan``), and the guesses, their plans and which builder
  each guess reads are a pure function of the solve's arguments
  (``_guess_table``).  Both are memoised in bounded caches.  Algorithm 6
  runs Algorithm 5 with the same arguments in every iteration and every
  solve, with only the seed differing, so after the first solve Algorithm 5
  looks its table up and builds only its builders.
* **The CSR and the kernel.**  A check runs greedy on its builder's
  columns through a CSR by set, or a packed kernel with a backend.
  :meth:`StreamingSketchBuilder.columns` returns one :class:`SketchColumns`
  until the store next changes, and the columns keep the CSR and kernel
  they built, so the checks of a cascade, and of every later
  :meth:`~StreamingSetCoverOutliers.query`, that read one builder build
  each once.  No check builds a sketch graph.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, NamedTuple, Sequence

from repro.coverage.bitset import check_coverage_backend
from repro.core.params import SketchParams
from repro.core.sketch_columns import SketchColumns
from repro.core.streaming_sketch import BatchGrouping, StreamingSketchBuilder
from repro.streaming.batches import EventBatch
from repro.streaming.events import EdgeArrival
from repro.streaming.space import SpaceMeter
from repro.utils.validation import check_in_range, check_open_unit, check_positive_int

__all__ = ["GuessOutcome", "StreamingSetCoverOutliers", "check_guess", "guess_schedule"]

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
    return list(_guess_schedule(num_sets, epsilon))


@functools.lru_cache(maxsize=256, typed=True)
def _guess_schedule(num_sets: int, epsilon: float) -> tuple[int, ...]:
    """:func:`guess_schedule` of validated arguments, memoised as a tuple."""
    guesses: list[int] = []
    value = 1.0
    while True:
        guess = min(num_sets, max(1, math.ceil(value)))
        if not guesses or guess != guesses[-1]:
            guesses.append(guess)
        if guess >= num_sets:
            break
        value *= 1.0 + epsilon / 3.0
    return tuple(guesses)


class _GuessPlan(NamedTuple):
    """What Algorithm 4 fixes for a guess before the stream: the greedy's
    step count ``k' log(1/λ')``, the sketch accuracy ``ε``, the sketch's
    clamped budgets and the acceptance target ``1 − λ' − ε log(1/λ')``."""

    budget_k: int
    epsilon: float
    params: SketchParams
    required: float


@functools.lru_cache(maxsize=1024, typed=True)
def _guess_plan(
    guess: int,
    epsilon_prime: float,
    lambda_prime: float,
    confidence: float,
    num_sets: int,
    num_elements: int,
    mode: str,
    scale: float,
) -> _GuessPlan:
    """Algorithm 4's parameters for one guess, memoised (module docstring).

    It validates ``guess``, ``ε'`` and ``λ'``, and :class:`SketchParams` the
    rest, on a cache miss; an error is never cached.  ``typed`` keeps a
    cached ``1`` from answering for ``True``, which the validation rejects.
    """
    check_positive_int(guess, "guess")
    check_open_unit(epsilon_prime, "epsilon_prime")
    check_in_range(lambda_prime, 1e-9, 1.0 / math.e, "lambda_prime")
    # Algorithm 4, line 1: ε = ε' / (13 log(1/λ')), δ'' = log_{1+ε} n (log(C'n)+2).
    log_inv_lambda = math.log(1.0 / lambda_prime)
    budget_k = max(1, math.ceil(guess * log_inv_lambda))
    epsilon = min(1.0, epsilon_prime / (13.0 * max(1.0, log_inv_lambda)))
    delta_prime = max(
        1.0,
        math.log(max(2, num_sets), 1.0 + max(epsilon, 1e-6))
        * (math.log(max(2.0, confidence * num_sets)) + 2.0),
    )
    if mode == "theoretical":
        params = SketchParams.theoretical(
            num_sets, num_elements, budget_k, epsilon, delta_prime=delta_prime
        )
    else:
        params = SketchParams.scaled(
            num_sets,
            num_elements,
            budget_k,
            max(epsilon, 1e-3),
            delta_prime=delta_prime,
            scale=scale,
        )
    # No element has edges to more than num_sets sets, so a larger cap or
    # slack stores nothing more; clamped, a scaled guess can evict.
    params = replace(
        params,
        degree_cap=min(params.degree_cap, num_sets),
        eviction_slack=min(params.eviction_slack, num_sets),
    )
    required = 1.0 - lambda_prime - epsilon * log_inv_lambda
    return _GuessPlan(budget_k, epsilon, params, required)


class _GuessTable(NamedTuple):
    """Everything Algorithm 5 fixes before the stream.

    ``builder_of[i]`` indexes the builder guess ``i`` feeds and reads, and
    ``builder_params`` holds each builder's parameters, its first guess's.
    A guess's degree cap falls and its edge budget rises with ``k'``, so the
    guesses whose budgets agree are consecutive: the index moves on wherever
    the edge budget, degree cap or eviction slack changes.
    """

    epsilon_prime: float
    lambda_prime: float
    confidence_prime: float
    guesses: tuple[int, ...]
    plans: tuple[_GuessPlan, ...]
    builder_of: tuple[int, ...]
    builder_params: tuple[SketchParams, ...]


@functools.lru_cache(maxsize=256, typed=True)
def _guess_table(
    num_sets: int,
    num_elements: int,
    outlier_fraction: float,
    epsilon: float,
    confidence: float,
    mode: str,
    scale: float,
    max_guesses: int | None,
) -> _GuessTable:
    """Algorithm 5's guess table for validated solve arguments, memoised
    (module docstring).  ``_guess_plan`` and :class:`SketchParams` validate
    the rest on a miss, and an error is never cached."""
    # Algorithm 5, line 1.
    epsilon_prime = outlier_fraction * (1.0 - math.exp(-epsilon / 2.0))
    lambda_prime = outlier_fraction * math.exp(-epsilon / 2.0)
    confidence_prime = confidence * max(1.0, math.log(max(2, num_sets), 1.0 + epsilon / 3.0))
    guesses = _guess_schedule(num_sets, epsilon)[:max_guesses]
    plans = tuple(
        _guess_plan(
            guess,
            max(epsilon_prime, 1e-4),
            lambda_prime,
            confidence_prime,
            num_sets,
            num_elements,
            mode,
            scale,
        )
        for guess in guesses
    )
    builder_of: list[int] = []
    builder_params: list[SketchParams] = []
    budgets = None
    for plan in plans:
        params = plan.params
        if (params.edge_budget, params.degree_cap, params.eviction_slack) != budgets:
            budgets = params.edge_budget, params.degree_cap, params.eviction_slack
            builder_params.append(params)
        builder_of.append(len(builder_params) - 1)
    return _GuessTable(
        epsilon_prime,
        lambda_prime,
        confidence_prime,
        guesses,
        plans,
        tuple(builder_of),
        tuple(builder_params),
    )


@dataclass
class GuessOutcome:
    """Result of checking one guess ``k'`` (one Algorithm 4 run)."""

    guess: int
    accepted: bool
    solution: list[int]
    sketch_fraction: float
    required_fraction: float
    sketch_edges: int


def check_guess(
    guess: int,
    plan: _GuessPlan,
    columns: SketchColumns,
    *,
    forbidden: Iterable[int] = (),
    coverage_backend: str | None = None,
) -> GuessOutcome:
    """Algorithm 4's test of guess ``k'``: run greedy for the plan's
    ``budget_k`` steps on the sketch's columns and accept iff the selection
    covers the plan's target fraction of the sketch's elements.

    ``plan`` is the guess's Algorithm 4 plan and ``columns`` its sketch
    builder's current columns, so a check is correct while the stream is
    still being fed and builds no graph.  ``forbidden`` excludes set ids from
    the greedy and ``coverage_backend`` runs it on a packed kernel
    (identical selections).  Neither affects the sketch itself, so one
    stream pass supports arbitrarily many differently-constrained checks.
    """
    result = columns.greedy_k_cover(
        plan.params.num_sets,
        plan.budget_k,
        forbidden=forbidden,
        coverage_backend=coverage_backend,
    )
    # The greedy's coverage is its selection's coverage on the sketch.
    total = columns.num_elements
    fraction = result.coverage / total if total else 1.0
    return GuessOutcome(
        guess=guess,
        accepted=fraction >= plan.required - 1e-12,
        solution=result.selected,
        sketch_fraction=fraction,
        required_fraction=plan.required,
        sketch_edges=columns.num_edges,
    )


class StreamingSetCoverOutliers:
    """Algorithm 5: single-pass streaming set cover with λ outliers.

    Implements the :class:`StreamingAlgorithm` protocol.  All per-guess
    sketches are maintained simultaneously during the single pass ("run
    these in parallel" in the paper's pseudocode), one builder per group of
    guesses with equal budgets; afterwards the guesses are checked in
    increasing order and the first accepted solution wins.
    :meth:`result` stops checking at that first accept, so the guesses after
    it are never checked.  A check reads its guess's builder columns, so no
    guess sketch builds a graph.

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
        if max_guesses is not None:
            check_positive_int(max_guesses, "max_guesses")
        check_coverage_backend(coverage_backend)
        table = self._table = _guess_table(
            num_sets,
            num_elements,
            outlier_fraction,
            epsilon,
            confidence,
            mode,
            scale,
            max_guesses,
        )
        self.name = "bateni-sketch-setcover-outliers"
        self.arrival_model = "edge"
        self.num_sets = num_sets
        self.num_elements = num_elements
        self.outlier_fraction = outlier_fraction
        self.epsilon = epsilon
        self.epsilon_prime, self.lambda_prime, self.confidence_prime = table[:3]
        self.space = SpaceMeter(unit="edges")
        # Every builder ranks with UniformHash(seed) and charges one meter.
        self._builders = [
            StreamingSketchBuilder(params, seed=seed, space=self.space)
            for params in table.builder_params
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
        """Feed one edge into every guess's sketch (each builder once)."""
        for builder in self._builders:
            builder.process(event)

    def process_batch(self, batch: EventBatch) -> None:
        """Feed a columnar edge batch into every guess's sketch.

        Usually one builder serves every guess (see the module docstring),
        and it takes the batch as it is.  Several builders charge one shared
        space meter, whose peak depends on how their admissions and
        evictions interleave.  When every builder can take the whole batch
        without an eviction, each one's stored-edge count only grows, so
        feeding them one after another ends at the scalar path's peak.  Then the batch is grouped by element and pair
        once (:class:`BatchGrouping`), and every builder ranks only the
        batch's distinct elements.  Otherwise the batch is fed edge by edge
        to all builders in turn, exactly as the scalar stream does; so is a
        batch with an out-of-range set id, which then raises at the row (and
        builder) the scalar stream raises at.
        """
        builders = self._builders
        if len(builders) == 1:
            builders[0].process_batch(batch)
            return
        in_range = not len(batch) or int(batch.set_ids.max()) < self.num_sets
        if in_range and all(builder.fits_in_bulk(len(batch)) for builder in builders):
            grouping = BatchGrouping.of(batch, self.num_sets)
            for builder in builders:
                builder.process_batch(batch, grouping=grouping)
            return
        for event in batch.iter_events():
            for builder in builders:
                builder.process(event)

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

    def _check(self, index: int, forbidden: Iterable[int], backend: object) -> GuessOutcome:
        """:func:`check_guess` of the ``index``-th guess on its builder's columns."""
        table = self._table
        return check_guess(
            table.guesses[index],
            table.plans[index],
            self._builders[table.builder_of[index]].columns(),
            forbidden=forbidden,
            coverage_backend=backend,  # type: ignore[arg-type]
        )

    def _cascade(self) -> Iterator[GuessOutcome]:
        """Outcomes in guess order, checking each guess once, on demand."""
        for index in range(len(self._table.guesses)):
            if index == len(self._checked):
                self._checked.append(self._check(index, self.forbidden, self.coverage_backend))
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
        """Re-run the accept/reject cascade against the post-stream sketches.

        Every check reads its builder's columns, one object per builder
        until the store next changes, with the CSR and kernel the first
        check built.  Unlike :meth:`result`/:meth:`outcomes` this never
        touches the cached state, so a long-lived instance can answer many
        differently constrained queries (new forbidden sets, another kernel
        backend) after its single stream pass.  Returns ``(solution,
        outcomes)`` with the same first-accepted-else-last selection rule as
        :meth:`result`.
        """
        backend = (
            self.coverage_backend if coverage_backend is _UNSET else coverage_backend
        )
        outcomes = [
            self._check(index, forbidden, backend) for index in range(len(self._table.guesses))
        ]
        accepted = next((o for o in outcomes if o.accepted), None)
        chosen = accepted if accepted is not None else outcomes[-1]
        return list(dict.fromkeys(chosen.solution)), outcomes

    def guesses(self) -> Sequence[int]:
        """The guessed cover sizes, in increasing order."""
        return list(self._table.guesses)

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
            "num_guesses": len(self._table.guesses),
            "sketch_builders": len(self._builders),
            "stored_edges": sum(builder.stored_edges for builder in self._builders),
            "space_peak": self.space.peak,
            "accepted_guess": accepted_guess,
            "guesses_checked": len(self._checked),
        }
