"""Map tracking machine — the paper's Figure 4.

States: I --@bs--> S (split running) --@as--> children (one child machine
per nested instance) --@bm--> M (merge running) --@am--> F, updating
``t(fs)``, ``|fs|`` and ``t(fm)`` on the corresponding transitions.
"""

from __future__ import annotations

from typing import List

from ...events.types import Event
from ..adg import ADG
from .base import MuscleSpan, TrackingMachine

__all__ = ["MapMachine"]


class MapMachine(TrackingMachine):
    __slots__ = ("split_span", "merge_span")

    kind = "map"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.split_span = MuscleSpan()
        self.merge_span = MuscleSpan()

    # -- events (Figure 4 transitions) ------------------------------------

    def handle_before_split(self, event: Event) -> None:
        # sti = currentTime
        self.split_span.start = event.timestamp

    def handle_after_split(self, event: Event) -> None:
        # t(fs) and |fs| updates
        self.split_span.close(event)
        self.split_span.card = event.extra.get("fs_card")
        self._observe_span(self.skel.split, self.split_span)
        if self.split_span.card is not None:
            self.estimators.observe_card(self.skel.split, self.split_span.card)

    def handle_before_merge(self, event: Event) -> None:
        # mti = currentTime
        self.merge_span.start = event.timestamp

    def handle_after_merge(self, event: Event) -> None:
        # t(fm) update
        self.merge_span.close(event)
        self._observe_span(self.skel.merge, self.merge_span)

    # -- projection -----------------------------------------------------------

    def _project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        est = self.estimators
        split_id = self.split_span.add_to(adg, self.skel.split, est, preds, "split")
        # How many children will exist: the actual cardinality once the
        # split finished, the estimate before that.
        if self.split_span.card is not None:
            n = self.split_span.card
        else:
            n = est.card_int(self.skel.split)
        terminals: List[int] = []
        for child in self.children[:n]:
            terminals.extend(child.project(adg, [split_id], now))
        for _ in range(max(0, n - len(self.children))):
            terminals.extend(
                self._project_estimate(self.skel.subskel, adg, [split_id])
            )
        merge_id = self.merge_span.add_to(adg, self.skel.merge, est, terminals, "merge")
        return [merge_id]
