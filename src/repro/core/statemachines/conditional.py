"""If tracking machine — opt-in extension (unsupported by the paper).

The paper leaves If out because projecting it would duplicate the ADG per
branch.  The extension here is deliberately simple: record the condition
span; before the outcome is known, project the branch with the larger
estimated total work (conservative); afterwards, project the actual
branch (via its machine once it has started).
"""

from __future__ import annotations

from typing import List

from ...events.types import Event
from ..adg import ADG
from ..projection import heavier_branch, project_skeleton
from .base import MuscleSpan, TrackingMachine

__all__ = ["IfMachine"]


class IfMachine(TrackingMachine):
    __slots__ = ("cond_span",)

    kind = "if"

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cond_span = MuscleSpan()

    def handle_before_condition(self, event: Event) -> None:
        self.cond_span.start = event.timestamp

    def handle_after_condition(self, event: Event) -> None:
        self.cond_span.close(event)
        self.cond_span.result = bool(event.extra.get("cond_result"))
        self._observe_span(self.skel.condition, self.cond_span)

    def _project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        est = self.estimators
        cond = self.skel.condition
        cid = self.cond_span.add_to(adg, cond, est, preds, "condition")
        if self.cond_span.result is None:
            return project_skeleton(heavier_branch(self.skel, adg, est), adg, [cid], est)
        branch = self.skel.true_skel if self.cond_span.result else self.skel.false_skel
        if self.children:
            return self.children[0].project(adg, [cid], now)
        return self._project_estimate(branch, adg, [cid])
