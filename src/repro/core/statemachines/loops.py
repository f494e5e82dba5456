"""While and For tracking machines.

**While**: records every condition evaluation (span + boolean outcome)
and one child machine per executed body.  ``t(fc)`` updates on each
condition AFTER event; ``|fc|`` (the number of true evaluations, per the
paper) updates when the loop completes.  Projection chains the recorded
iterations, then the estimated remaining iterations
(``max(|fc| − trues so far, 0)``), then the final false evaluation.

**For**: the trip count is static, so projection is exact — recorded body
machines followed by structurally projected remaining iterations.
"""

from __future__ import annotations

from typing import List

from ...events.types import Event, When, Where
from ..adg import ADG
from ..projection import project_skeleton
from .base import STRUCTURAL, MuscleSpan, TrackingMachine

__all__ = ["WhileMachine", "ForMachine"]


class WhileMachine(TrackingMachine):
    __slots__ = ("cond_spans", "trues")

    kind = "while"
    # Condition spans are *appended* per evaluation: the new span
    # replaces an estimate-only activity, which carries no patchable
    # source.
    changes = {(When.BEFORE, Where.CONDITION): STRUCTURAL}

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.cond_spans: List[MuscleSpan] = []
        self.trues = 0

    # -- events ------------------------------------------------------------

    def handle_before_condition(self, event: Event) -> None:
        self.cond_spans.append(MuscleSpan(start=event.timestamp))

    def handle_after_condition(self, event: Event) -> None:
        span = self.cond_spans[-1]
        span.close(event)
        span.result = bool(event.extra.get("cond_result"))
        self._observe_span(self.skel.condition, span)
        if span.result:
            self.trues += 1

    def handle_after_skeleton(self, event: Event) -> None:
        # |fc| = number of true evaluations over this While execution.
        self.estimators.observe_card(self.skel.condition, self.trues)

    # -- projection -----------------------------------------------------------

    def _project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        est = self.estimators
        cond = self.skel.condition
        current = list(preds)
        body_idx = 0
        ended = False
        for span in self.cond_spans:
            cid = span.add_to(adg, cond, est, current, "condition")
            current = [cid]
            if span.result is True:
                if body_idx < len(self.children):
                    current = self.children[body_idx].project(adg, current, now)
                else:
                    current = self._project_estimate(
                        self.skel.subskel, adg, current
                    )
                body_idx += 1
            elif span.result is False:
                ended = True
                break
            else:
                # Condition still running: its outcome is part of the
                # estimated future handled below.
                break
        if ended or self.finished:
            return current
        # Estimated future: remaining true iterations, then the final
        # false evaluation.  A currently-running condition span already
        # contributed its activity above; it counts as the next expected
        # evaluation (true if bodies remain, the final false otherwise).
        running_cond = bool(self.cond_spans) and not self.cond_spans[-1].finished
        remaining = max(est.card_int_zero(cond) - self.trues, 0)
        if running_cond and remaining == 0:
            return current  # the running evaluation is the final (false) one
        for k in range(remaining):
            if k > 0 or not running_cond:
                cid = adg.add_muscle(cond, est, current, "condition")
                current = [cid]
            current = project_skeleton(self.skel.subskel, adg, current, est)
        final = adg.add_muscle(cond, est, current, "condition")
        return [final]


class ForMachine(TrackingMachine):
    __slots__ = ()

    kind = "for"

    def _project(self, adg: ADG, preds: List[int], now: float) -> List[int]:
        current = list(preds)
        for child in self.children:
            current = child.project(adg, current, now)
        for _ in range(self.skel.times - len(self.children)):
            current = self._project_estimate(self.skel.subskel, adg, current)
        return current
