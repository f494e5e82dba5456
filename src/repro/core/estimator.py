"""History-based estimation of muscle costs — ``t(m)`` and ``|m|``.

The paper's base formula (Section 4)::

    newEstimatedVal = ρ × lastActualVal + (1 − ρ) × previousEstimatedVal

with ρ ∈ [0, 1] weighting recent observations against history (default 0.5:
"the estimated time is the average between the length of the previous
execution, and the previous estimation").  ρ = 1 tracks only the last
measurement; ρ = 0 never moves away from the first value.

Two quantities are estimated per muscle:

* ``t(m)`` — execution time, defined for every muscle flavour;
* ``|m|`` — cardinality, defined only for Split muscles (number of
  sub-problems produced) and Condition muscles (number of ``True``
  results over a While execution, or the recursion depth of a D&C).

The estimation "implies that the system has to wait until all muscles have
been executed at least once" — unless the estimators are *initialized*
from a previous run (the paper's scenario 2), which
:mod:`repro.core.persistence` implements.
"""

from __future__ import annotations

import math
import threading
from typing import Dict, Iterable, Optional

from ..errors import EstimateNotReadyError, QoSError
from ..skeletons.base import Skeleton
from ..skeletons.dac import DivideAndConquer
from ..skeletons.fork import Fork
from ..skeletons.loops import While
from ..skeletons.muscles import Muscle
from ..skeletons.smap import Map

__all__ = ["HistoryEstimator", "EstimatorRegistry"]


class HistoryEstimator:
    """One exponentially-weighted history estimate (the paper's formula)."""

    __slots__ = ("rho", "_value", "observations", "last_actual", "initialized")

    def __init__(self, rho: float = 0.5, initial: Optional[float] = None):
        if not 0.0 <= rho <= 1.0:
            raise QoSError(f"rho must be within [0, 1], got {rho}")
        self.rho = rho
        self._value: Optional[float] = None
        self.observations = 0
        self.last_actual: Optional[float] = None
        self.initialized = False
        if initial is not None:
            self.initialize(initial)

    # -- production -----------------------------------------------------------

    def initialize(self, value: float) -> None:
        """Warm-start the estimate (e.g. from a previous run's snapshot)."""
        self._value = float(value)
        self.initialized = True

    def update(self, actual: float) -> float:
        """Fold one observation into the estimate; returns the new value.

        The very first observation (with no warm start) *becomes* the
        estimate — there is no previous estimation to blend with.
        """
        actual = float(actual)
        self.last_actual = actual
        self.observations += 1
        if self._value is None:
            self._value = actual
        else:
            self._value = self.rho * actual + (1.0 - self.rho) * self._value
        return self._value

    # -- consumption -----------------------------------------------------------

    @property
    def ready(self) -> bool:
        """True when the estimate is usable (observed once or initialized)."""
        return self._value is not None

    @property
    def value(self) -> float:
        if self._value is None:
            raise EstimateNotReadyError("estimator has no observation yet")
        return self._value

    def peek(self, default: Optional[float] = None) -> Optional[float]:
        """The estimate, or *default* when not ready."""
        return self._value if self._value is not None else default

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"HistoryEstimator(rho={self.rho}, value={self._value}, "
            f"n={self.observations}, init={self.initialized})"
        )


def _whole(card: float) -> int:
    """A cardinality estimate as a whole count (ceil, never negative) —
    the one integer both ``card_int`` readings derive from."""
    return max(0, math.ceil(card - 1e-9))


class EstimatorRegistry:
    """Per-muscle estimators of ``t(m)`` and ``|m|`` for a program.

    The registry is keyed by muscle identity (:attr:`Muscle.uid`), so two
    structurally identical ``Split`` muscles used at different nesting
    levels — such as the paper's file-level and chunk-level splits, whose
    costs differ by 7× — are estimated independently.

    ``factory``, when given, replaces the paper's
    :class:`HistoryEstimator` with an alternative estimation algorithm
    (see :mod:`repro.core.estimators_ext`); it must produce objects with
    the same ``update / initialize / ready / value / peek`` interface.
    """

    def __init__(self, rho: float = 0.5, factory=None):
        if not 0.0 <= rho <= 1.0:
            raise QoSError(f"rho must be within [0, 1], got {rho}")
        self.rho = rho
        self._factory = factory
        self._time: Dict[int, HistoryEstimator] = {}
        self._card: Dict[int, HistoryEstimator] = {}
        self._version = 0
        # Changelog beside the version (see changed_since): muscle uid ->
        # version of its last t(m) value change, and the version of the
        # last |m| change that moved an integer reading.  One entry per
        # muscle, so it never needs compacting.
        self._time_moved: Dict[int, int] = {}
        self._shape_version = 0
        # skeleton -> [version at which ready_for last answered True,
        # (table, muscle uid) of every estimate it needs, position in
        # that tuple of the one ready_for last found missing].
        self._readiness: Dict[Skeleton, list] = {}
        self._lock = threading.Lock()

    @property
    def version(self) -> int:
        """Monotonic stamp, bumped whenever any estimate changes value.

        Structural projections and schedules derive entirely from the
        estimates (plus observed actuals), so the planning layer keys its
        caches on this stamp: a changed ``t(m)`` or ``|m|`` invalidates
        every plan computed from the old values.

        *Value* change is literal: an observation that leaves the
        smoothed estimate bit-identical (a steady workload whose ``t(m)``
        has converged) does **not** bump the stamp.  That keeps plans
        valid across event storms that carry no new information, while
        any actual drift still invalidates everything derived from the
        old values.  *What* moved between two stamps is a separate
        question, answered by :meth:`changed_since`: a live projection
        survives a moved ``t(m)`` by retiming the rows that muscle feeds.
        """
        return self._version

    def _write(
        self, table: Dict[int, HistoryEstimator], muscle: Muscle, value: float, initialize=False
    ) -> float:
        """One write to *muscle*'s estimate in *table* under one lock
        acquisition: fetch (or create) the estimator, fold *value* in,
        stamp the change.  Returns the new estimate."""
        with self._lock:
            est = self._estimator(table, muscle)
            before = est.peek()
            if initialize:
                est.initialize(value)
            else:
                est.update(value)
            after = est.peek()
            if before is None or before != after:
                self._version += 1
                if table is self._time:
                    self._time_moved[muscle.uid] = self._version
                elif before is None or _whole(before) != _whole(after):
                    self._shape_version = self._version
        return after

    def changed_since(self, version: int) -> Optional[Dict[int, float]]:
        """What moved after *version*: ``{muscle uid: current t(m)}`` of
        the muscles whose time estimate changed value, or ``None`` when
        the *shape* of projections may have moved.

        Projections read ``|m|`` only through :meth:`card_int` /
        :meth:`card_int_zero`, so a cardinality estimate that drifts
        without either integer moving changes no projection and is not
        reported at all; one that crosses an integer (or becomes ready)
        answers ``None``.  O(muscles), and any number of readers may ask
        about their own versions of one shared registry.
        """
        with self._lock:
            if self._shape_version > version:
                return None
            return {
                uid: self._time[uid].value
                for uid, moved in self._time_moved.items()
                if moved > version
            }

    def _new_estimator(self) -> HistoryEstimator:
        if self._factory is not None:
            return self._factory()
        return HistoryEstimator(self.rho)

    # -- access -----------------------------------------------------------------

    def _estimator(self, table: Dict[int, HistoryEstimator], muscle: Muscle) -> HistoryEstimator:
        """*muscle*'s estimator in *table*, created on first access
        (caller holds the lock)."""
        est = table.get(muscle.uid)
        if est is None:
            est = table[muscle.uid] = self._new_estimator()
        return est

    def time_estimator(self, muscle: Muscle) -> HistoryEstimator:
        """The ``t(m)`` estimator of *muscle* (created on first access)."""
        with self._lock:
            return self._estimator(self._time, muscle)

    def card_estimator(self, muscle: Muscle) -> HistoryEstimator:
        """The ``|m|`` estimator of *muscle* (created on first access)."""
        with self._lock:
            return self._estimator(self._card, muscle)

    # -- observation --------------------------------------------------------------

    def observe_time(self, muscle: Muscle, duration: float) -> float:
        """Record one measured execution time of *muscle*."""
        if duration < 0:
            raise ValueError(f"negative duration {duration} for {muscle.name!r}")
        return self._write(self._time, muscle, duration)

    def observe_card(self, muscle: Muscle, cardinality: float) -> float:
        """Record one measured cardinality of *muscle*."""
        if cardinality < 0:
            raise ValueError(f"negative cardinality {cardinality} for {muscle.name!r}")
        return self._write(self._card, muscle, cardinality)

    def initialize_time(self, muscle: Muscle, value: float) -> None:
        """Warm-start the ``t(m)`` estimate of *muscle* (version-stamped)."""
        self._write(self._time, muscle, value, initialize=True)

    def initialize_card(self, muscle: Muscle, value: float) -> None:
        """Warm-start the ``|m|`` estimate of *muscle* (version-stamped)."""
        self._write(self._card, muscle, value, initialize=True)

    # -- queries -----------------------------------------------------------------

    def t(self, muscle: Muscle) -> float:
        """Current ``t(m)`` estimate; raises when not ready."""
        est = self._time.get(muscle.uid)  # atomic: no lock needed
        return (est if est is not None else self.time_estimator(muscle)).value

    def card(self, muscle: Muscle) -> float:
        """Current ``|m|`` estimate; raises when not ready."""
        return self.card_estimator(muscle).value

    def card_int(self, muscle: Muscle) -> int:
        """``|m|`` rounded to a usable positive integer (ceil, min 1).

        Projections need whole sub-problem counts / iteration counts; the
        underlying estimate is a float blend of past observations.
        """
        return max(1, _whole(self.card(muscle)))

    def card_int_zero(self, muscle: Muscle) -> int:
        """``|m|`` rounded like :meth:`card_int` but allowing zero.

        While iteration counts and D&C recursion depths may legitimately
        be zero (a loop whose condition is false immediately; a D&C whose
        root is already a leaf).
        """
        return _whole(self.card(muscle))

    def has_time(self, muscle: Muscle) -> bool:
        with self._lock:
            est = self._time.get(muscle.uid)
        return est is not None and est.ready

    def has_card(self, muscle: Muscle) -> bool:
        with self._lock:
            est = self._card.get(muscle.uid)
        return est is not None and est.ready

    # -- readiness ----------------------------------------------------------------

    @staticmethod
    def required_cards(skel: Skeleton) -> Iterable[Muscle]:
        """Muscles whose cardinality the projection of *skel* depends on.

        Split muscles of Map/Fork/D&C (fan-out) and Condition muscles of
        While (iteration count) and D&C (recursion depth).  ``For`` has a
        static trip count; ``If`` conditions need no cardinality.
        """
        for node in skel.walk():
            if isinstance(node, (Map, Fork)):
                yield node.split
            elif isinstance(node, While):
                yield node.condition
            elif isinstance(node, DivideAndConquer):
                yield node.condition
                yield node.split

    def ready_for(self, skel: Skeleton) -> bool:
        """True when every estimate needed to project *skel* is available.

        This is the paper's "wait until all muscles have been executed at
        least once" gate: the first ADG analysis of a cold run can only
        happen once every muscle has an observation (scenario 1's first
        analysis at ≈7.6 s, right after the first merge).

        A positive answer is remembered per ``(version, skeleton)``:
        asking again before any estimate moved is one dict lookup.  A
        negative one remembers *which* estimate was missing and the next
        call looks at that one alone — an estimator initialized directly
        (``time_estimator(m).initialize(x)``) becomes ready without
        moving the version, so the answer cannot be kept, but "still
        cold" is O(1) however many muscles the skeleton has.  Only when
        that estimate has arrived are the others (flattened once) looked
        at again.
        """
        entry = self._readiness.get(skel)
        if entry is None:
            if len(self._readiness) >= 32:
                self._readiness.clear()  # bounds what the memo keeps alive
            needed = tuple((self._time, m.uid) for m in skel.muscles())
            needed += tuple((self._card, m.uid) for m in self.required_cards(skel))
            entry = self._readiness[skel] = [None, needed, 0]
        version = self._version
        if entry[0] == version:
            return True
        needed, missing = entry[1], entry[2]
        for at in range(missing, missing + len(needed)):  # the missing one first
            table, uid = needed[at % len(needed)]
            est = table.get(uid)  # atomic: no lock needed
            if est is None or not est.ready:
                entry[2] = at % len(needed)
                return False
        entry[0] = version
        return True

    def missing_for(self, skel: Skeleton) -> list:
        """Human-readable list of the estimates still missing for *skel*."""
        missing = []
        for muscle in skel.muscles():
            if not self.has_time(muscle):
                missing.append(f"t({muscle.name})")
        for muscle in self.required_cards(skel):
            if not self.has_card(muscle):
                missing.append(f"|{muscle.name}|")
        return missing
