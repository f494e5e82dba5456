"""Fork tracking machine — opt-in extension (unsupported by the paper).

The paper calls Fork's machine non-deterministic because branches with
identical structure produce indistinguishable event streams.  This
extension resolves child machines to fork branches by the skeleton object
each child instance executes (falling back to arrival order among
branches sharing the same skeleton object), which is sufficient for
estimation and projection purposes — branches with the same skeleton are
cost-symmetric anyway.
"""

from __future__ import annotations

from typing import Dict, List

from ...events.types import Event, When, Where
from ..adg import ADG
from .base import REBIND, MuscleSpan, TrackingMachine

__all__ = ["ForkMachine"]


class ForkMachine(TrackingMachine):
    __slots__ = ("split_span", "merge_span")

    kind = "fork"
    # Fork fans out by its branches, whatever the split returned.
    changes = {(When.AFTER, Where.SPLIT): REBIND}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.split_span = MuscleSpan()
        self.merge_span = MuscleSpan()

    def handle_before_split(self, event: Event) -> None:
        self.split_span.start = event.timestamp

    def handle_after_split(self, event: Event) -> None:
        self.split_span.close(event)
        self.split_span.card = event.extra.get("fs_card")
        self._observe_span(self.skel.split, self.split_span)
        if self.split_span.card is not None:
            self.estimators.observe_card(self.skel.split, self.split_span.card)

    def handle_before_merge(self, event: Event) -> None:
        self.merge_span.start = event.timestamp

    def handle_after_merge(self, event: Event) -> None:
        self.merge_span.close(event)
        self._observe_span(self.skel.merge, self.merge_span)

    def _project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        est = self.estimators
        split_id = self.split_span.add_to(adg, self.skel.split, est, preds, "split")
        # Assign child machines to branches by skeleton object, consuming
        # in arrival order within each skeleton.
        by_skel: Dict[int, List[TrackingMachine]] = {}
        for child in self.children:
            by_skel.setdefault(id(child.skel), []).append(child)
        terminals: List[int] = []
        for sub in self.skel.subskels:
            queue = by_skel.get(id(sub))
            if queue:
                terminals.extend(queue.pop(0).project(adg, [split_id], now))
            else:
                terminals.extend(self._project_estimate(sub, adg, [split_id]))
        merge_id = self.merge_span.add_to(adg, self.skel.merge, est, terminals, "merge")
        return [merge_id]
