"""Golden event stream: the interpreter's global event order, pinned.

The per-pattern tests check each vocabulary in isolation; this one pins
the *interleaving* of every event across nested patterns — fan-out
markers, condition steps and stage loops included — so a refactor of the
interpreter must reproduce the stream bit for bit.  The programs come
from the conftest builder, drawn by a seeded :class:`random.Random` (not
hypothesis, whose draws may change between versions): 180 programs of
depth 3, twenty rooted at each of the nine patterns, each run at LP 1
and LP 3 on the simulator with every muscle costing one virtual second.

The digest covers, per event in publication order: the label, index,
parent index, timestamp, worker, the extras in their key order, the
value and the index trace.  If an intended change of the event stream
moves it, recompute both constants from the new stream and say why in
the change's notes.
"""

import hashlib
import random

from repro import EventRecorder, SimulatedPlatform, run
from repro.runtime.costmodel import ConstantCostModel
from tests.conftest import build_program

KINDS = ("seq", "farm", "pipe", "for", "while", "if", "map", "fork", "dac")
PROGRAMS_PER_KIND = 20
SEED = 45

GOLDEN_EVENTS = 113792
GOLDEN_DIGEST = "b0aa5a7755e9926b27afeb448c3e1385"


def random_node(rng, depth, kind=None):
    """One program description of at most *depth* nested levels."""
    if depth == 0:
        return ("seq", rng.randint(0, 3))
    kind = kind or rng.choice(KINDS)

    def sub():
        return random_node(rng, depth - 1)

    if kind == "seq":
        return ("seq", rng.randint(0, 3))
    if kind == "farm":
        return ("farm", sub())
    if kind == "pipe":
        return ("pipe", tuple(sub() for _ in range(rng.randint(2, 3))))
    if kind == "for":
        return ("for", rng.randint(0, 3), sub())
    if kind == "while":
        return ("while", rng.randint(0, 40), sub())
    if kind == "if":
        return ("if", rng.randint(0, 1), sub(), sub())
    if kind == "map":
        return ("map", rng.randint(1, 4), sub())
    if kind == "fork":
        return ("fork", tuple(sub() for _ in range(rng.randint(1, 3))))
    return ("dac", rng.randint(5, 30), sub())


def programs():
    """``(description, input)`` pairs, rooted at each pattern in turn."""
    rng = random.Random(SEED)
    for i in range(PROGRAMS_PER_KIND * len(KINDS)):
        yield random_node(rng, 3, KINDS[i % len(KINDS)]), rng.randint(0, 99)


def stream_digest():
    """``(event count, blake2b hex digest)`` over every run's events."""
    digest = hashlib.blake2b(digest_size=16)
    count = 0
    for desc, value in programs():
        for lp in (1, 3):
            platform = SimulatedPlatform(
                parallelism=lp, cost_model=ConstantCostModel(1.0)
            )
            recorder = EventRecorder()
            platform.add_listener(recorder)
            run(build_program(desc), value, platform)
            for e in recorder.events:
                row = (
                    e.label,
                    e.index,
                    e.parent_index,
                    e.timestamp,
                    e.worker,
                    tuple(e.extra.items()),
                    e.value,
                    e.index_trace,
                )
                digest.update(repr(row).encode())
                count += 1
    return count, digest.hexdigest()


def children(node):
    """The sub-program descriptions directly under *node*."""
    for part in node[1:]:
        if isinstance(part, tuple):
            yield from (part,) if isinstance(part[0], str) else part


def kinds(node):
    yield node[0]
    for child in children(node):
        yield from kinds(child)


def test_every_pattern_roots_and_nests():
    descs = [desc for desc, _ in programs()]
    assert {desc[0] for desc in descs} == set(KINDS)
    nested = {k for desc in descs for child in children(desc) for k in kinds(child)}
    assert nested == set(KINDS)


def test_event_stream_matches_the_golden_digest():
    assert stream_digest() == (GOLDEN_EVENTS, GOLDEN_DIGEST)
