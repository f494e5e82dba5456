"""Structured change descriptions — what a revision bump actually touched.

The planning layer keys its caches on monotonic revision counters
(:attr:`~repro.core.adg.ADG.rev`,
:attr:`~repro.core.statemachines.MachineRegistry.rev`).  A bumped counter
says *that* something changed; a :class:`ChangeDelta` says *what*, which
is what turns cache invalidation into cache *patching*:

* the :class:`~repro.core.statemachines.MachineRegistry` classifies every
  consumed event and answers ``delta_since(rev)`` with what the window
  holds:

  ===========================================  ==========  ==============
  event                                        class       delta field
  ===========================================  ==========  ==============
  fan-out control marker (``@bn`` / ``@an``)   no-op       —
  BEFORE / AFTER of a muscle on a machine      span-only   ``touched``
  that exists (``@bs``, ``@bm``, ``@am``,
  ``seq@a``, ``if@bc``, ``dac@bc``)
  first event of a nested machine (``seq@b``,  attached    ``attached``,
  a nested ``map@b``)                                      ``touched``
  AFTER SPLIT landing the projected            attached    ``attached``,
  cardinality; a nested completion (``map@a``              ``touched``
  under a parent)
  first event of a root, a finishing root,     structural  ``structural``
  AFTER SPLIT of another cardinality, any
  condition outcome, each ``while@bc``
  ===========================================  ==========  ==============

* the :class:`~repro.core.adg.ADG` does the same for in-place activity
  updates (``update_activity``) versus structural growth (``add``).

A non-structural delta licenses the :class:`~repro.core.planning.
PlanEngine` to keep the previous projection: it first re-binds every
``attached`` machine — the machine's own ``project()`` replayed over the
ids it already occupies, or over the slot its parent estimated for it
(:func:`~repro.core.statemachines.base.rebind`) — then re-reads the spans
of the ``touched`` and ``attached`` machines and delta re-pins the
schedule base.  The full walk is the fallback: a structural delta, a
replay that finds another shape than the one held, or an unknown window,
which ``delta_since`` reports as ``None``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

__all__ = ["ChangeDelta"]


@dataclass(frozen=True, slots=True)
class ChangeDelta:
    """What changed between two revisions of a tracked structure.

    Attributes
    ----------
    from_rev / to_rev:
        The half-open revision window ``(from_rev, to_rev]`` the delta
        describes.
    structural:
        ``True`` when something inside the window changed the *shape* of
        a projection (roots started or finished, a fan-out other than
        the projected one, condition outcomes, iteration counts).
        Patching is only sound when this is ``False``.
    touched:
        Identifiers whose recorded times changed in place within the
        window — machine instance indices for a registry delta, activity
        ids for an ADG delta.  Sorted, duplicate-free.
    attached:
        Registry deltas only: machines whose projected subtree must be
        re-bound, duplicate-free, one created in the window after its
        parent.  A new machine takes over the slot its parent estimated
        for it; one whose own event may have reshaped it (a split
        cardinality landing, a nested completion) replays the extent it
        already occupies.  The shape is unchanged when every
        replay matches; the first mismatch means "re-walk".  Empty when
        :attr:`structural`.
    """

    from_rev: int
    to_rev: int
    structural: bool
    touched: Tuple[int, ...] = ()
    attached: Tuple[int, ...] = ()

    @property
    def empty(self) -> bool:
        """True when nothing at all changed in the window."""
        return not self

    def __bool__(self) -> bool:
        return self.structural or bool(self.touched) or bool(self.attached)
