"""ProjectionCompiler — skeleton structure straight into PlanTable columns.

PR 9's :class:`~repro.core.planning.table.PlanTable` made every scheduler
pass index arithmetic, which left the projection walk itself as the
dominant cost of a from-scratch analysis: :func:`~repro.core.projection.
project_skeleton` builds one Python :class:`~repro.core.adg.Activity` per
projected task — recursively, once per Map/Fork child and once per D&C
tree node — only for :meth:`PlanTable.compile` to immediately flatten
them back into arrays.

This module removes the detour.  :class:`ProjectionCompiler` walks the
skeleton structure once and appends times/roles/CSR adjacency directly
into growing ``array`` buffers — no ``Activity``, no intermediate
``ADG`` — with two multipliers on top of the direct walk:

* **sub-template stamping** — the child subtree of a Map (and the
  repeated node of a D&C level, and a While body) is compiled *once*
  into a relocatable :class:`_Template`: durations, roles and
  degree-bounded adjacency with ids relative to the template base, the
  external entry predecessor encoded as the :data:`EXT` sentinel.
  Stamping the template ``|fs|``/cardinality times is then
  ``array.extend`` calls plus an index translation done by ``map`` over
  a prebuilt translation list — the exponential D&C fan-out costs
  O(depth) compile work plus O(n) element copies, and a wide fan-out
  stamps all its copies at once when numpy is installed;
* **structural memoization** — :func:`compile_structural` wraps the
  finished table in a :class:`CompiledProjection` that the
  :class:`~repro.core.planning.engine.PlanEngine` memoizes in the shared
  :class:`~repro.core.planning.cache.PlanCache` under
  ``(structural fingerprint, estimate values)``, so identical program
  shapes — multi-tenant same-workload submissions, admission gates,
  held-queue re-promotions — share one compiled table *and* every
  schedule derived from it without re-walking anything.

**Bit-for-bit contract**: the emitted table equals
``PlanTable.compile(adg)`` of the ADG that :func:`~repro.core.
projection.project_skeleton` would build — same names, roles, durations
(the same ``t(m)`` reads), same predecessor/successor layout including
duplicate edges and the ``<= 2``-degree inlining — pinned by the
projection-twin property harness in ``tests/core/test_plan_engine.py``.
The ``Activity`` walk remains as that harness's reference and as
:meth:`PlanEngine.structural_projection`, for callers that want a graph
to look at.
"""

from __future__ import annotations

import hashlib
from array import array
from math import nan
from typing import Dict, List, Optional, Tuple

from ...errors import ADGError
from ...skeletons.base import Skeleton
from ...skeletons.conditional import If
from ...skeletons.dac import DivideAndConquer
from ...skeletons.farm import Farm
from ...skeletons.fork import Fork
from ...skeletons.loops import For, While
from ...skeletons.pipe import Pipe
from ...skeletons.seq import Seq
from ...skeletons.smap import Map
from ..delta import ChangeDelta
from ..estimator import EstimatorRegistry
from ..projection import estimated_total_work
from .table import _EPS, CompiledPinnedBase, PlanTable

#: A fan-out of fewer rows stamps copy by copy: below this the fixed cost
#: of the numpy calls exceeds the per-element win of tiled adds.
_NP_STAMP_MIN = 16

#: numpy once a wide fan-out asked for it (False: not installed, or an
#: exotic ABI whose int64 buffers would not alias ``array('q')``).
#: ``import repro`` never loads it.
_np = None


def _numpy():
    """numpy, imported by the first wide fan-out; ``None`` without it."""
    global _np
    if _np is None:
        try:
            import numpy
        except ImportError:
            numpy = False
        if numpy and array("q").itemsize != 8:  # pragma: no cover
            numpy = False
        _np = numpy
    return _np or None


__all__ = [
    "EXT",
    "CompiledProjection",
    "ProjectionCompiler",
    "compile_structural",
    "structural_fingerprint",
    "structural_values_key",
]

#: Relative-id sentinel inside a template: "the stamp site's external
#: predecessor".  Chosen as -2 so a translation list indexed with
#: negative ids resolves it (and -1 = "none") without any branching.
EXT = -2


class _Template:
    """One compiled subtree, relocatable by index offset.

    All ids are relative to the template base; predecessor references to
    the stamp site's external node use :data:`EXT`.  ``terminals`` are
    the open ends downstream work will depend on (they have no internal
    successors by construction); ``entries`` are the nodes depending on
    the external predecessor, in add order; ``overflow`` lists, per
    ``> 2``-degree node, its successors beyond the two inlined ones.
    """

    __slots__ = (
        "n",
        "names",
        "roles",
        "duration",
        "npred",
        "pred0",
        "pred1",
        "pred_ptr",
        "pred_ext",
        "nsucc",
        "succ0",
        "succ1",
        "overflow",
        "entries",
        "terminals",
        "np_cols",
        "np_masks",
    )


def _np_columns(tmpl: _Template) -> None:
    """The int64 views and sentinel masks a bulk stamp of *tmpl* reads."""
    np_pred0 = _np.frombuffer(tmpl.pred0, dtype=_np.int64)
    np_pred1 = _np.frombuffer(tmpl.pred1, dtype=_np.int64)
    np_pred_ext = (
        _np.frombuffer(tmpl.pred_ext, dtype=_np.int64) if tmpl.pred_ext else None
    )
    np_succ0 = _np.frombuffer(tmpl.succ0, dtype=_np.int64)
    np_succ1 = _np.frombuffer(tmpl.succ1, dtype=_np.int64)
    tmpl.np_cols = (
        _np.arange(tmpl.n, dtype=_np.int64),
        np_pred0,
        np_pred1,
        _np.frombuffer(tmpl.pred_ptr, dtype=_np.int64),
        np_pred_ext,
        np_succ0,
        np_succ1,
    )
    # Per-column sentinel masks (None when a column has no occurrences
    # of that sentinel — the fixup is skipped outright).
    tmpl.np_masks = tuple(
        mask if mask is not None and mask.any() else None
        for mask in (
            np_pred0 == -1,
            np_pred0 == EXT,
            np_pred1 == -1,
            np_pred1 == EXT,
            None if np_pred_ext is None else np_pred_ext == EXT,
            np_succ0 == -1,
            np_succ1 == -1,
        )
    )


class ProjectionCompiler:
    """Emit one structural projection as growing PlanTable columns.

    The emit methods mirror :func:`~repro.core.projection.
    project_skeleton` case for case — same activities, same order, same
    ``t(m)`` / ``|m|`` reads — but append into flat buffers.  The
    successor side is maintained incrementally (two inlined slots plus a
    small overflow map), so :meth:`finalize` does no per-node passes:
    stamped regions carry their successor columns with them, and only
    the handful of ``> 2``-degree nodes pay Python-level work.
    """

    __slots__ = (
        "est",
        "names",
        "roles",
        "duration",
        "npred",
        "pred0",
        "pred1",
        "pred_ptr",
        "pred_ext",
        "nsucc",
        "succ0",
        "succ1",
        "sources",
        "_overflow",
        "_templates",
    )

    def __init__(self, est: EstimatorRegistry, _templates: Optional[Dict] = None):
        self.est = est
        self.names: List[str] = []
        self.roles: List[str] = []
        self.duration = array("d")
        self.npred = array("q")
        self.pred0 = array("q")
        self.pred1 = array("q")
        self.pred_ptr = array("q")
        self.pred_ext = array("q")
        self.nsucc = array("q")
        self.succ0 = array("q")
        self.succ1 = array("q")
        self.sources: List[int] = []
        #: node id -> successors beyond the two inlined slots
        self._overflow: Dict[int, List[int]] = {}
        #: (sub)tree template memo, shared with sub-compilers for the
        #: duration of one compile (keyed on skeleton node identity —
        #: estimates are fixed within a compile, so one template serves
        #: every stamp site of the same node).
        self._templates: Dict = _templates if _templates is not None else {}

    # -- column building ---------------------------------------------------------

    def add(self, name: str, dur: float, preds, role: str) -> int:
        """Append one activity; returns its id.  Twin of ``ADG.add``."""
        names = self.names
        i = len(names)
        names.append(name)
        self.roles.append(role)
        self.duration.append(dur)
        c = len(preds)
        self.npred.append(c)
        self.pred0.append(preds[0] if c >= 1 else -1)
        self.pred1.append(preds[1] if c >= 2 else -1)
        self.pred_ptr.append(len(self.pred_ext))
        if c > 2:
            self.pred_ext.extend(preds)
        elif c == 0:
            self.sources.append(i)
        self.nsucc.append(0)
        self.succ0.append(-1)
        self.succ1.append(-1)
        nsucc = self.nsucc
        succ0 = self.succ0
        succ1 = self.succ1
        for p in preds:
            if p < 0:  # EXT inside a template: wired up at stamp time
                continue
            k = nsucc[p]
            nsucc[p] = k + 1
            if k == 0:
                succ0[p] = i
            elif k == 1:
                succ1[p] = i
            else:
                ov = self._overflow.get(p)
                if ov is None:
                    self._overflow[p] = [i]
                else:
                    ov.append(i)
        return i

    def stamp(self, tmpl: _Template, ext_pred: int) -> List[int]:
        """Copy *tmpl* in at the current end, depending on *ext_pred*.

        No bytecode runs per copied element: the column payloads are
        ``array.extend`` / list concatenation, and id relocation is
        ``map`` over a translation list whose two trailing slots resolve
        the negative sentinels (``tr[-1] == -1``, ``tr[-2] == ext_pred``)
        by plain indexing.  The Python-level work is a fixed dozen calls
        per stamp plus the template's overflow lists and entries.
        Returns the stamped terminals' absolute ids.
        """
        base = len(self.names)
        self.names += tmpl.names
        self.roles += tmpl.roles
        self.duration.extend(tmpl.duration)
        self.npred.extend(tmpl.npred)
        ext_base = len(self.pred_ext)
        tr = list(range(base, base + tmpl.n))
        tr.append(ext_pred)  # EXT (-2) resolves here
        tr.append(-1)  # "none" (-1) resolves here
        relocate = tr.__getitem__
        self.pred0.extend(map(relocate, tmpl.pred0))
        self.pred1.extend(map(relocate, tmpl.pred1))
        self.pred_ptr.extend(map(ext_base.__add__, tmpl.pred_ptr))
        if tmpl.pred_ext:
            self.pred_ext.extend(map(relocate, tmpl.pred_ext))
        self.nsucc.extend(tmpl.nsucc)
        self.succ0.extend(map(relocate, tmpl.succ0))
        self.succ1.extend(map(relocate, tmpl.succ1))
        if tmpl.overflow:
            ov = self._overflow
            for rel, extras in tmpl.overflow:
                ov[base + rel] = [x + base for x in extras]
        # The stamped entry nodes become successors of the external pred.
        nsucc = self.nsucc
        succ0 = self.succ0
        succ1 = self.succ1
        for rel in tmpl.entries:
            i = base + rel
            k = nsucc[ext_pred]
            nsucc[ext_pred] = k + 1
            if k == 0:
                succ0[ext_pred] = i
            elif k == 1:
                succ1[ext_pred] = i
            else:
                ov = self._overflow.get(ext_pred)
                if ov is None:
                    self._overflow[ext_pred] = [i]
                else:
                    ov.append(i)
        return [relocate(t) for t in tmpl.terminals]

    def stamp_many(self, tmpl: _Template, ext_pred: int, k: int) -> List[int]:
        """``k`` stamps of *tmpl* under one external predecessor.

        Semantically ``[*stamp(tmpl, ext_pred) for _ in range(k)]`` —
        this is the Map/D&C fan-out, where every copy hangs off the same
        split — but the column payloads are built for all ``k`` copies
        at once: list/array repetition for the base-independent columns,
        one tiled-add per id column with the (precomputed) sentinel
        positions fixed up by mask, so the per-stamp Python overhead is
        paid once per fan-out instead of once per copy.  Without numpy,
        and below :data:`_NP_STAMP_MIN` rows, it is exactly that loop.
        """
        if (
            k == 1
            or tmpl.n == 0
            or k * tmpl.n < _NP_STAMP_MIN
            or min(tmpl.terminals, default=0) < 0
            or _numpy() is None
        ):
            out: List[int] = []
            for _ in range(k):
                out.extend(self.stamp(tmpl, ext_pred))
            return out
        if tmpl.np_cols is None:
            _np_columns(tmpl)
        n = tmpl.n
        base0 = len(self.names)
        self.names += tmpl.names * k
        self.roles += tmpl.roles * k
        self.duration.extend(tmpl.duration * k)
        self.npred.extend(tmpl.npred * k)
        self.nsucc.extend(tmpl.nsucc * k)
        ext_len = len(tmpl.pred_ext)
        ext_base0 = len(self.pred_ext)
        (
            _np_arange,
            np_pred0,
            np_pred1,
            np_pred_ptr,
            np_pred_ext,
            np_succ0,
            np_succ1,
        ) = tmpl.np_cols
        (
            m_p0_none,
            m_p0_ext,
            m_p1_none,
            m_p1_ext,
            m_pext_ext,
            m_s0_none,
            m_s1_none,
        ) = tmpl.np_masks
        tile = _np.tile
        bases = base0 + n * _np.arange(k, dtype=_np.int64)
        shift = _np.repeat(bases, n)

        def relocated(col, m_none, m_ext):
            out = tile(col, k)
            out += shift
            if m_none is not None:
                out[tile(m_none, k)] = -1
            if m_ext is not None:
                out[tile(m_ext, k)] = ext_pred
            return out

        self.pred0.frombytes(relocated(np_pred0, m_p0_none, m_p0_ext).tobytes())
        self.pred1.frombytes(relocated(np_pred1, m_p1_none, m_p1_ext).tobytes())
        ptr = tile(np_pred_ptr, k)
        ptr += _np.repeat(
            ext_base0 + ext_len * _np.arange(k, dtype=_np.int64), n
        )
        self.pred_ptr.frombytes(ptr.tobytes())
        if np_pred_ext is not None:
            pext = tile(np_pred_ext, k)
            pext += _np.repeat(bases, ext_len)
            if m_pext_ext is not None:
                # The +shift above corrupted the EXT slots; rewrite them.
                pext[tile(m_pext_ext, k)] = ext_pred
            self.pred_ext.frombytes(pext.tobytes())
        self.succ0.frombytes(relocated(np_succ0, m_s0_none, None).tobytes())
        self.succ1.frombytes(relocated(np_succ1, m_s1_none, None).tobytes())
        if tmpl.overflow:
            ov_map = self._overflow
            for rel, extras in tmpl.overflow:
                np_extras = _np.array(extras, dtype=_np.int64)
                for base in range(base0, base0 + k * n, n):
                    ov_map[base + rel] = (np_extras + base).tolist()
        # Entry wiring runs per copy, in stamp order, exactly like the
        # single-stamp path — k * |entries| appends, a tiny tail.
        nsucc = self.nsucc
        succ0 = self.succ0
        succ1 = self.succ1
        entries = tmpl.entries
        for base in range(base0, base0 + k * n, n):
            for rel in entries:
                i = base + rel
                c = nsucc[ext_pred]
                nsucc[ext_pred] = c + 1
                if c == 0:
                    succ0[ext_pred] = i
                elif c == 1:
                    succ1[ext_pred] = i
                else:
                    ov = self._overflow.get(ext_pred)
                    if ov is None:
                        self._overflow[ext_pred] = [i]
                    else:
                        ov.append(i)
        return [
            base + t
            for base in range(base0, base0 + k * n, n)
            for t in tmpl.terminals
        ]

    def _freeze(self, terminals: List[int]) -> _Template:
        """Package this (sub-)compiler's buffers as a template."""
        tmpl = _Template()
        tmpl.n = len(self.names)
        tmpl.names = self.names
        tmpl.roles = self.roles
        tmpl.duration = self.duration
        tmpl.npred = self.npred
        tmpl.pred0 = self.pred0
        tmpl.pred1 = self.pred1
        tmpl.pred_ptr = self.pred_ptr
        tmpl.pred_ext = self.pred_ext
        tmpl.nsucc = self.nsucc
        tmpl.succ0 = self.succ0
        tmpl.succ1 = self.succ1
        tmpl.overflow = sorted(self._overflow.items())
        # Entry nodes: every EXT occurrence in the pred columns, in add
        # order with multiplicity (duplicate edges stamp duplicate succs,
        # exactly like the dict path's ``succs[p].append(i)``).
        entries: List[int] = []
        npred = self.npred
        pred0 = self.pred0
        pred1 = self.pred1
        pred_ptr = self.pred_ptr
        pred_ext = self.pred_ext
        for i in range(tmpl.n):
            c = npred[i]
            if c == 0:
                continue
            if c <= 2:
                if pred0[i] == EXT:
                    entries.append(i)
                if c == 2 and pred1[i] == EXT:
                    entries.append(i)
            else:
                o = pred_ptr[i]
                for p in pred_ext[o:o + c]:
                    if p == EXT:
                        entries.append(i)
        tmpl.entries = entries
        tmpl.terminals = terminals
        tmpl.np_cols = None  # built by the first bulk stamp
        tmpl.np_masks = None
        return tmpl

    # -- skeleton walk -----------------------------------------------------------

    def _template(self, skel: Skeleton) -> _Template:
        key = id(skel)
        tmpl = self._templates.get(key)
        if tmpl is None:
            sub = ProjectionCompiler(self.est, self._templates)
            terminals = sub._emit(skel, [EXT])
            tmpl = sub._freeze(terminals)
            self._templates[key] = tmpl
        return tmpl

    def _emit(self, skel: Skeleton, preds: List[int]) -> List[int]:
        """Append *skel*'s estimated activities; returns the terminal ids.

        Mirrors :func:`~repro.core.projection.project_skeleton` exactly
        — the same activities with the same durations in the same order.
        """
        est = self.est
        if isinstance(skel, Seq):
            return [self.add(skel.execute.name, est.t(skel.execute), preds, "execute")]

        if isinstance(skel, Farm):
            return self._emit(skel.subskel, preds)

        if isinstance(skel, Pipe):
            current = preds
            for stage in skel.stages:
                current = self._emit(stage, current)
            return current

        if isinstance(skel, For):
            current = preds
            for _ in range(skel.times):
                current = self._emit(skel.subskel, current)
            return current

        if isinstance(skel, While):
            n = est.card_int_zero(skel.condition)
            tc = est.t(skel.condition)
            cname = skel.condition.name
            current = preds
            if n >= 2:
                tmpl = self._template(skel.subskel)
                for _ in range(n):
                    cond = self.add(cname, tc, current, "condition")
                    current = self.stamp(tmpl, cond)
            else:
                for _ in range(n):
                    cond = self.add(cname, tc, current, "condition")
                    current = self._emit(skel.subskel, [cond])
            return [self.add(cname, tc, current, "condition")]

        if isinstance(skel, If):
            cond = self.add(
                skel.condition.name, est.t(skel.condition), preds, "condition"
            )
            branch = max(
                (skel.true_skel, skel.false_skel),
                key=lambda b: estimated_total_work(b, est),
            )
            return self._emit(branch, [cond])

        if isinstance(skel, Map):
            split = self.add(skel.split.name, est.t(skel.split), preds, "split")
            k = est.card_int(skel.split)
            if k >= 2:
                tmpl = self._template(skel.subskel)
                terminals = self.stamp_many(tmpl, split, k)
            else:
                terminals = self._emit(skel.subskel, [split])
            merge = self.add(skel.merge.name, est.t(skel.merge), terminals, "merge")
            return [merge]

        if isinstance(skel, Fork):
            split = self.add(skel.split.name, est.t(skel.split), preds, "split")
            terminals = []
            for sub in skel.subskels:
                # A subskel object reused across branches (or already
                # templated by an enclosing Map) stamps; a one-off branch
                # emits directly — a single-use template would only add
                # copy overhead.
                tmpl = self._templates.get(id(sub))
                if tmpl is not None:
                    terminals.extend(self.stamp(tmpl, split))
                else:
                    terminals.extend(self._emit(sub, [split]))
            merge = self.add(skel.merge.name, est.t(skel.merge), terminals, "merge")
            return [merge]

        if isinstance(skel, DivideAndConquer):
            depth = est.card_int_zero(skel.condition)
            return self._emit_dac(skel, preds, depth)

        raise ADGError(f"cannot project skeleton type {type(skel).__name__}")

    def _emit_dac(self, skel: DivideAndConquer, preds, depth: int) -> List[int]:
        est = self.est
        cond = self.add(
            skel.condition.name, est.t(skel.condition), preds, "condition"
        )
        if depth <= 0:
            return self._emit(skel.subskel, [cond])
        split = self.add(skel.split.name, est.t(skel.split), [cond], "split")
        k = est.card_int(skel.split)
        if k >= 2 or depth >= 2:
            tmpl = self._dac_template(skel, depth - 1)
            terminals = self.stamp_many(tmpl, split, k)
        else:
            terminals = self._emit_dac(skel, [split], depth - 1)
        merge = self.add(skel.merge.name, est.t(skel.merge), terminals, "merge")
        return [merge]

    def _dac_template(self, skel: DivideAndConquer, depth: int) -> _Template:
        """Template of one d&c node with *depth* levels left.

        Built bottom-up through the shared memo: the depth-``r`` template
        stamps the depth-``r-1`` template ``|fs|`` times, so the whole
        recursion tree costs O(depth) template builds plus O(n) copies
        instead of the dict path's per-node recursion.
        """
        key = (id(skel), depth)
        tmpl = self._templates.get(key)
        if tmpl is None:
            sub = ProjectionCompiler(self.est, self._templates)
            terminals = sub._emit_dac(skel, [EXT], depth)
            tmpl = sub._freeze(terminals)
            self._templates[key] = tmpl
        return tmpl

    # -- output ------------------------------------------------------------------

    def finalize(self) -> PlanTable:
        """Seal the buffers into a :class:`PlanTable`.

        The predecessor side and the inlined successor slots are already
        final; only the ``> 2``-degree successor blocks (a handful of
        merges/fan-out sites) are laid out here, and the ``succ_ptr``
        step function fills by slice-assigning constant runs.
        """
        n = len(self.names)
        self.pred_ptr.append(len(self.pred_ext))
        nsucc = self.nsucc
        succ0 = self.succ0
        succ1 = self.succ1
        overflow = self._overflow
        succ_ptr = array("q", bytes(8 * (n + 1)))
        succ_ext = array("q")
        off = 0
        prev = 0
        for p in sorted(overflow):
            if off:
                succ_ptr[prev:p + 1] = array("q", [off]) * (p + 1 - prev)
            prev = p + 1
            succ_ext.append(succ0[p])
            succ_ext.append(succ1[p])
            succ_ext.extend(overflow[p])
            off += nsucc[p]
        if off:
            succ_ptr[prev:n + 1] = array("q", [off]) * (n + 1 - prev)

        table = PlanTable()
        table.n = n
        table.names = self.names
        table.roles = self.roles
        table.duration = self.duration
        table.start = array("d", [nan]) * n
        table.end = array("d", [nan]) * n
        table.state = array("b", bytes(n))  # all PENDING
        table.npred = self.npred
        table.pred0 = self.pred0
        table.pred1 = self.pred1
        table.pred_ptr = self.pred_ptr
        table.pred_ext = self.pred_ext
        table.nsucc = nsucc
        table.succ0 = succ0
        table.succ1 = succ1
        table.succ_ptr = succ_ptr
        table.succ_ext = succ_ext
        return table


class CompiledProjection:
    """A structural projection compiled straight to a table.

    Duck-types the slice of the :class:`~repro.core.adg.ADG` surface the
    planning engine touches — ``rev`` (frozen at 0: the table is
    immutable), ``len``, ``delta_since``/``compact_changelog`` (empty
    window / no-op) — so every compiled schedule pass accepts it where
    it accepts a projected ADG.  ``token`` deliberately excludes the
    engine id: two engines holding the same program shape at the same
    estimate values share not just this object (through the cache memo)
    but every schedule answer derived from it.
    """

    __slots__ = ("table", "token", "sources", "__weakref__")

    rev = 0

    def __init__(self, table: PlanTable, token: Tuple, sources: List[int]):
        self.table = table
        self.token = token
        self.sources = sources

    def __len__(self) -> int:
        return self.table.n

    def delta_since(self, rev: int) -> ChangeDelta:
        return ChangeDelta(rev, 0, False, ())

    def compact_changelog(self, before_rev: int) -> None:
        return None

    def pinned_fresh(self, now: float) -> CompiledPinnedBase:
        """Pinned base at *now* by pure array copies.

        A structural table is all-pending with no actuals, so
        :func:`~repro.core.planning.table.compiled_pin` degenerates:
        every unpinned-pred count *is* the pred count, every pinned end
        is 0.0, the busy heap is empty and the frontier is exactly the
        sources at *now* — bit-identical, without the per-node scan.
        """
        table = self.table
        n = table.n
        duration = table.duration
        sources = self.sources
        return CompiledPinnedBase(
            now,
            array("d", bytes(8 * n)),
            array("q", table.npred),
            array("b", table.state),
            [],
            [(now, i) for i in sources],
            n,
            sum(1 for i in sources if (now + duration[i]) - now > _EPS),
            [],
            sources,
        )


def compile_structural(
    skel: Skeleton, est: EstimatorRegistry, token: Tuple = ()
) -> CompiledProjection:
    """Compile *skel*'s structural projection directly into a table.

    Raises :class:`~repro.errors.EstimateNotReadyError` when a needed
    estimate is missing — callers gate on
    :meth:`EstimatorRegistry.ready_for`, like the dict walk.
    """
    compiler = ProjectionCompiler(est)
    compiler._emit(skel, [])
    table = compiler.finalize()
    return CompiledProjection(table, token, compiler.sources)


def structural_fingerprint(skel: Skeleton) -> str:
    """Identity of everything structural a compiled table depends on.

    Like :func:`~repro.durability.checkpoint.program_fingerprint` (node
    kinds, arities, ``for`` trip counts, muscle flavours in pre-order)
    **plus muscle names**, which the table's name column carries.
    Auto-generated names embed the muscle uid, so only deliberately
    named programs — the same program object resubmitted, or workloads
    constructed with stable names — fingerprint equal across tenants;
    that is exactly when sharing the compiled table is meaningful.
    """
    parts = []
    for node in skel.walk():
        bits = [node.kind, str(len(node.children))]
        if isinstance(node, For):
            bits.append(f"n={node.times}")
        bits.extend(
            f"{muscle.kind.value}:{muscle.name}" for muscle in node.own_muscles
        )
        parts.append("/".join(bits))
    digest = hashlib.sha256("|".join(parts).encode("utf-8")).hexdigest()
    return digest[:16]


def structural_values_key(skel: Skeleton, est: EstimatorRegistry) -> Tuple:
    """The estimate values a compiled table of *skel* derives from.

    ``(fingerprint, values)`` fully determines the emitted columns, so
    the memo key embeds the *values* rather than trusting an estimator
    version number — version counters from different registries are
    incomparable, and a bumped version whose relevant values are
    unchanged (an update to some other program's muscle) must still hit.
    """
    times = tuple(est.t(m) for m in skel.muscles())
    cards = tuple(est.card(m) for m in EstimatorRegistry.required_cards(skel))
    return (times, cards)
