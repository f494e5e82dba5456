"""Unit tests for the tracking state machines (paper Figures 3 and 4).

Machines are driven two ways: with hand-crafted synthetic events (exact
timestamps — unit level) and with real event streams recorded from
simulator runs (integration level, see test_registry.py).
"""

import pytest

from repro.core.estimator import EstimatorRegistry
from repro.core.adg import ADG
from repro.core.statemachines import (
    DacMachine,
    MapMachine,
    SeqMachine,
    WhileMachine,
)
from repro.events.types import Event, When, Where
from repro.skeletons import (
    DivideAndConquer,
    Execute,
    Map,
    Merge,
    Seq,
    Split,
    While,
)


def ev(skel, index, when, where, ts, parent=None, **extra):
    return Event(
        skeleton=skel, kind=skel.kind, when=when, where=where,
        index=index, parent_index=parent, value=None, timestamp=ts, extra=extra,
    )


class TestSeqMachine:
    """Figure 3: I --@b--> running --@a[idx==i]--> F, updating t(fe)."""

    def setup_method(self):
        self.skel = Seq(Execute(lambda v: v, name="fe"))
        self.reg = EstimatorRegistry(rho=0.5)
        self.machine = SeqMachine(self.skel, 0, None, self.reg)

    def test_records_duration(self):
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, 2.0))
        self.machine.on_event(ev(self.skel, 0, When.AFTER, Where.SKELETON, 5.5))
        assert self.reg.t(self.skel.execute) == pytest.approx(3.5)
        assert self.machine.finished

    def test_estimator_blends_on_second_run(self):
        for start, end in ((0.0, 4.0), (10.0, 12.0)):
            m = SeqMachine(self.skel, 0, None, self.reg)
            m.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, start))
            m.on_event(ev(self.skel, 0, When.AFTER, Where.SKELETON, end))
        # 0.5*2 + 0.5*4
        assert self.reg.t(self.skel.execute) == pytest.approx(3.0)

    def test_project_finished_uses_actuals(self):
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, 1.0))
        self.machine.on_event(ev(self.skel, 0, When.AFTER, Where.SKELETON, 2.0))
        adg = ADG()
        self.machine.project(adg, [], now=5.0)
        act = adg.activity(0)
        assert (act.start, act.end) == (1.0, 2.0)

    def test_project_running_uses_estimate(self):
        self.reg.time_estimator(self.skel.execute).initialize(4.0)
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, 1.0))
        adg = ADG()
        self.machine.project(adg, [], now=2.0)
        act = adg.activity(0)
        assert act.start == 1.0 and act.end is None
        assert act.duration == 4.0


class TestMapMachine:
    """Figure 4: I --@bs--> S --@as--> children --@bm--> M --@am--> F."""

    def setup_method(self):
        self.fs = Split(lambda v: [v, v], name="fs")
        self.fe = Execute(lambda v: v, name="fe")
        self.fm = Merge(sum, name="fm")
        self.skel = Map(self.fs, Seq(self.fe), self.fm)
        self.reg = EstimatorRegistry(rho=0.5)
        self.machine = MapMachine(self.skel, 0, None, self.reg)

    def feed_split(self, start=0.0, end=10.0, card=3):
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, start))
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SPLIT, start))
        self.machine.on_event(
            ev(self.skel, 0, When.AFTER, Where.SPLIT, end, fs_card=card)
        )

    def test_split_updates_t_and_card(self):
        self.feed_split(0.0, 10.0, card=3)
        assert self.reg.t(self.fs) == pytest.approx(10.0)
        assert self.reg.card(self.fs) == pytest.approx(3.0)

    def test_merge_updates_t(self):
        self.feed_split()
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.MERGE, 50.0))
        self.machine.on_event(ev(self.skel, 0, When.AFTER, Where.MERGE, 55.0))
        assert self.reg.t(self.fm) == pytest.approx(5.0)

    def test_projection_before_split_uses_estimates(self):
        self.reg.time_estimator(self.fs).initialize(10.0)
        self.reg.card_estimator(self.fs).initialize(2)
        self.reg.time_estimator(self.fe).initialize(15.0)
        self.reg.time_estimator(self.fm).initialize(5.0)
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, 0.0))
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SPLIT, 0.0))
        adg = ADG()
        terms = self.machine.project(adg, [], now=3.0)
        # running split + 2 estimated children + estimated merge
        assert len(adg) == 4
        assert adg.activity(terms[0]).role == "merge"

    def test_projection_after_split_uses_actual_card(self):
        self.reg.time_estimator(self.fe).initialize(15.0)
        self.reg.time_estimator(self.fm).initialize(5.0)
        self.reg.card_estimator(self.fs).initialize(99)  # should be ignored
        self.feed_split(card=2)
        adg = ADG()
        self.machine.project(adg, [], now=12.0)
        assert len(adg) == 4  # split + 2 (actual card) + merge

    def test_child_machines_attached_project_actuals(self):
        self.reg.time_estimator(self.fe).initialize(15.0)
        self.reg.time_estimator(self.fm).initialize(5.0)
        self.feed_split(card=2)
        child_skel = self.skel.subskel
        child = SeqMachine(child_skel, 1, 0, self.reg)
        self.machine.attach_child(child, ev(child_skel, 1, When.BEFORE, Where.SKELETON, 10.0, parent=0))
        child.on_event(ev(child_skel, 1, When.BEFORE, Where.SKELETON, 10.0, parent=0))
        child.on_event(ev(child_skel, 1, When.AFTER, Where.SKELETON, 24.0, parent=0))
        adg = ADG()
        self.machine.project(adg, [], now=30.0)
        finished = [a for a in adg if a.finished and a.role == "execute"]
        assert len(finished) == 1
        assert (finished[0].start, finished[0].end) == (10.0, 24.0)


class TestWhileMachine:
    def setup_method(self):
        self.skel = While(lambda v: v < 2, Seq(Execute(lambda v: v + 1, name="body")))
        self.fc = self.skel.condition
        self.reg = EstimatorRegistry(rho=0.5)
        self.machine = WhileMachine(self.skel, 0, None, self.reg)

    def cond(self, iteration, start, end, result):
        self.machine.on_event(
            ev(self.skel, 0, When.BEFORE, Where.CONDITION, start, iteration=iteration)
        )
        self.machine.on_event(
            ev(self.skel, 0, When.AFTER, Where.CONDITION, end,
               iteration=iteration, cond_result=result)
        )

    def test_observes_condition_time(self):
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, 0.0))
        self.cond(0, 0.0, 0.5, True)
        assert self.reg.t(self.fc) == pytest.approx(0.5)

    def test_observes_true_count_at_end(self):
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, 0.0))
        self.cond(0, 0.0, 0.1, True)
        self.cond(1, 1.0, 1.1, True)
        self.cond(2, 2.0, 2.1, False)
        self.machine.on_event(ev(self.skel, 0, When.AFTER, Where.SKELETON, 2.2))
        assert self.reg.card(self.fc) == pytest.approx(2.0)

    def test_projection_includes_remaining_iterations(self):
        self.reg.time_estimator(self.fc).initialize(0.1)
        self.reg.card_estimator(self.fc).initialize(3)
        self.reg.time_estimator(self.skel.subskel.execute).initialize(1.0)
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, 0.0))
        self.cond(0, 0.0, 0.1, True)  # one true observed, body not started
        adg = ADG()
        terms = self.machine.project(adg, [], now=0.2)
        # 3 bodies total (1 after the observed true + 2 estimated) and
        # 4 condition evaluations (1 actual + 2 estimated + final false).
        assert len(adg) == 7
        bodies = [a for a in adg if a.role == "execute"]
        conds = [a for a in adg if a.role == "condition"]
        assert len(bodies) == 3 and len(conds) == 4
        assert adg.activity(terms[0]).role == "condition"

    def test_projection_finished_loop(self):
        self.machine.on_event(ev(self.skel, 0, When.BEFORE, Where.SKELETON, 0.0))
        self.cond(0, 0.0, 0.1, False)
        self.machine.on_event(ev(self.skel, 0, When.AFTER, Where.SKELETON, 0.2))
        self.reg.time_estimator(self.fc).initialize(0.1)
        adg = ADG()
        self.machine.project(adg, [], now=1.0)
        assert len(adg) == 1  # only the false condition


class TestDacMachine:
    def setup_method(self):
        self.skel = DivideAndConquer(
            lambda v: v > 1,
            Split(lambda v: [v // 2, v // 2], name="fs"),
            Seq(Execute(lambda v: v, name="leafwork")),
            Merge(sum, name="fm"),
        )
        self.reg = EstimatorRegistry(rho=0.5)
        self.root = DacMachine(self.skel, 0, None, self.reg)

    def test_leaf_bootstraps_depth(self):
        # Root divides; child at depth 1 is a leaf -> bootstrap |fc| = 1.
        self.root.on_event(
            ev(self.skel, 0, When.BEFORE, Where.CONDITION, 0.0, depth=0)
        )
        self.root.on_event(
            ev(self.skel, 0, When.AFTER, Where.CONDITION, 0.1, depth=0, cond_result=True)
        )
        child = DacMachine(self.skel, 1, 0, self.reg)
        self.root.attach_child(child, ev(self.skel, 1, When.BEFORE, Where.SKELETON, 0.2, parent=0, depth=1))
        child.on_event(ev(self.skel, 1, When.BEFORE, Where.CONDITION, 0.2, depth=1))
        child.on_event(
            ev(self.skel, 1, When.AFTER, Where.CONDITION, 0.3, depth=1, cond_result=False)
        )
        assert self.reg.card(self.skel.condition) == pytest.approx(1.0)

    def test_subtree_depth(self):
        self.root.divided = True
        child = DacMachine(self.skel, 1, 0, self.reg)
        child.divided = True
        grand = DacMachine(self.skel, 2, 1, self.reg)
        grand.divided = False
        self.root.attach_child(child, ev(self.skel, 1, When.BEFORE, Where.SKELETON, 0, parent=0, depth=1))
        child.attach_child(grand, ev(self.skel, 2, When.BEFORE, Where.SKELETON, 0, parent=1, depth=2))
        assert self.root.subtree_depth() == 2

    def test_root_observes_depth_on_finish(self):
        self.root.on_event(ev(self.skel, 0, When.BEFORE, Where.CONDITION, 0.0, depth=0))
        self.root.on_event(
            ev(self.skel, 0, When.AFTER, Where.CONDITION, 0.1, depth=0, cond_result=False)
        )
        self.root.on_event(ev(self.skel, 0, When.AFTER, Where.SKELETON, 0.5, depth=0))
        # Leaf root: depth observed as 0 (the bootstrap observed 0 too).
        assert self.reg.card(self.skel.condition) == pytest.approx(0.0)

    def test_projection_unknown_outcome_uses_estimated_depth(self):
        for m in self.skel.muscles():
            self.reg.time_estimator(m).initialize(1.0)
        self.reg.card_estimator(self.skel.condition).initialize(1)
        self.reg.card_estimator(self.skel.split).initialize(2)
        self.root.on_event(ev(self.skel, 0, When.BEFORE, Where.CONDITION, 0.0, depth=0))
        adg = ADG()
        self.root.project(adg, [], now=0.5)
        # running cond + split + 2*(cond+leaf) + merge = 7
        assert len(adg) == 7

    def test_leaf_running_a_nested_dac_projects_its_machine(self):
        # The leaf's nested skeleton may itself be a D&C: its machine is
        # told from this node's recursion children by the skeleton it
        # runs, so the leaf projects it live instead of from estimates.
        inner = DivideAndConquer(
            lambda v: False,
            Split(lambda v: [v], name="ifs"),
            Seq(Execute(lambda v: v, name="innerleaf")),
            Merge(sum, name="ifm"),
        )
        outer = DivideAndConquer(
            lambda v: False, Split(lambda v: [v], name="ofs"), inner,
            Merge(sum, name="ofm"),
        )
        reg = EstimatorRegistry(rho=0.5)
        for m in outer.muscles():
            reg.time_estimator(m).initialize(1.0)
        for cards in (outer, inner):
            reg.card_estimator(cards.condition).initialize(0)
            reg.card_estimator(cards.split).initialize(1)
        root = DacMachine(outer, 0, None, reg)
        root.on_event(ev(outer, 0, When.BEFORE, Where.CONDITION, 0.0, depth=0))
        root.on_event(
            ev(outer, 0, When.AFTER, Where.CONDITION, 0.1, depth=0, cond_result=False)
        )
        nested = DacMachine(inner, 1, 0, reg)
        root.attach_child(nested, ev(inner, 1, When.BEFORE, Where.SKELETON, 0.2, parent=0))
        nested.on_event(ev(inner, 1, When.BEFORE, Where.CONDITION, 0.25, depth=0))
        adg = ADG()
        root.project(adg, [], now=0.5)
        # outer cond (finished), inner cond (running), inner leaf
        assert [a.status for a in adg.activities] == ["finished", "running", "pending"]
        assert adg.extent_of(1) == (1, 3, (0,))
