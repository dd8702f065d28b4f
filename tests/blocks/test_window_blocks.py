"""Every window block against the ``cycle`` oracle: one case table, one
harness.

A block's ``drain_timed`` hook is its second definition; ``_run``, which
``cycle`` steps, is the first.  Each row of :data:`CASES` is one block
(the repeater: the ``RepeatSigGen`` → ``Repeater`` pair) — how to build
it on named ports, the counters a run must reproduce, its streams and
its protocol errors — and one harness serves every row:

* streams: one nested-fiber strategy (:func:`nests`) projected onto the
  row's ports; every whole-delivery graph must pass ``infer_protocol``
  with no finding;
* deliveries (:class:`Delivery`): whole, one input cut, one link
  prefilled, random slices, a ``Relay`` on one input, on every input or
  behind the outputs; the block's windows end where the pushes do
  (asserted, wall-clock-free);
* outcome: the full report on every timed engine, or ``cycle``'s
  ``BlockError`` where the streams are malformed (the mergers' strategies
  plant such fibers and say so); at most one epoch advance a visit
  (+ 1), and on whole delivery one over every busy event; a row's
  ``exempt`` rule names the checks it skips (the mergers' ``one window``);
* errors: one ``BlockError`` text on every engine for each defect, under
  each of five deliveries behind each of 0, 1 and 3 clean chunks.

Counting guards ride on top as the named tests at the bottom.
"""

import random
from itertools import accumulate
from typing import Any, Callable, Dict, List, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import repro.blocks
from repro.analysis import infer_protocol
from repro.blocks import (
    ALU,
    Block,
    BlockError,
    CoordDropper,
    InterleaveSerializer,
    Intersect,
    LinkedListLevelWriter,
    Locator,
    MergeSide,
    RepeatSigGen,
    Repeater,
    ScatterValsWriter,
    Union,
    ValueDropper,
    VectorReducer,
)
from repro.blocks import reduce as reduce_module
from repro.blocks import merge as merge_module
from repro.blocks.repeat import REPEAT
from repro.blocks.scanner import make_scanner
from repro.formats import CompressedLevel, DenseLevel
from repro.sim import graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop
from repro.streams.timing import window_capacity
from repro.streams.token import is_data, is_stop

from blockkit import (
    ENGINES, TIMED, Clocked, Exp, Relay, Slicer, assert_windows_sliced, canon, fed,
    window_log,
)
from numpy_counters import numpy_calls

ORACLE = "cycle"
#: channel kind of an input port, by the port's name less its indices
KINDS = {"crd": "crd", "ref": "ref", "outer": "crd", "parent": "crd",
         "val": "vals", "inner": "vals", "a": "vals", "b": "vals", "lane": "vals",
         "scan": "ref"}


def kind_of(port):
    return KINDS[port.rstrip("0123456789_")]


def toks(text):
    """The tokens of a stream written left to right: ``3`` a coordinate
    or reference, ``3.0`` a value, ``N``, ``S0``, ``S1``…, ``D``."""
    named = {"N": EMPTY, "D": DONE}
    return [named[t] if t in named else Stop(int(t[1:])) if t[0] == "S"
            else float(t) if "." in t or "e" in t else int(t) for t in text.split()]


# -- streams: one nested-fiber strategy ------------------------------------------
def nests(fiber):
    """Supergroups → groups → fibers of drawn *fiber* payloads."""
    return st.lists(st.lists(st.lists(fiber, max_size=3), min_size=1, max_size=3),
                    min_size=1, max_size=3)


def one_level(nest):
    """``[(payload, stop level)]``: each fiber of *nest* closed at its own
    level — ``S0``, ``S1`` when it closes its group, ``S2`` when that
    group closes its supergroup."""
    fibers = []
    for supergroup in nest:
        for g, group in enumerate(supergroup):
            up = int(g == len(supergroup) - 1)
            fibers += [(fiber, up + 1 if j == len(group) - 1 else 0)
                       for j, fiber in enumerate(group)]
    return fibers


def same_level(fibers, last, ports, emit):
    """Streams at one level on *ports*: ``emit(streams, payload)`` per
    fiber, then its stop on every stream; *last* is what ``D`` closes."""
    streams = {port: [] for port in ports}
    for payload, level in fibers + [(last, None)]:
        emit(streams, payload)
        for tokens in streams.values():
            tokens.append(DONE if level is None else Stop(level))
    return streams


def two_levels(nest, datum, run):
    """An ``(outer, inner)`` pair one level apart: per fiber an outer
    ``datum(fiber, position)`` owning the inner ``run(fiber)``, closed as
    in :func:`one_level`; a group is an outer stop, an empty one a bare
    outer stop against a bare elevated inner one."""
    outer, inner = [], []
    for supergroup in nest:
        for g, group in enumerate(supergroup):
            up = int(g == len(supergroup) - 1)
            for j, fiber in enumerate(group):
                outer.append(datum(fiber, len(outer)))
                inner += run(fiber) + [Stop(up + 1 if j == len(group) - 1 else 0)]
            if not group:
                inner.append(Stop(up + 1))
            outer.append(Stop(up))
    return outer + [DONE], inner + [DONE]


#: a value, explicit zeros and N; the phantoms a zero-policy reducer
#: upstream leaves at a boundary (values of regions with no coordinate)
phantom_runs = st.lists(st.sampled_from([0.0, -0.0, EMPTY]), max_size=2)
operands = st.sampled_from([1.0, 2.5, -3.0, 0.0, -0.0, EMPTY])
#: (operand pairs, the side its phantoms are on, phantoms)
alu_fibers = st.tuples(st.lists(st.tuples(operands, operands), max_size=3),
                       st.sampled_from("ab"), phantom_runs)


@st.composite
def alu_streams(draw):
    def emit(streams, payload):
        pairs, side, extra = payload
        streams["a"] += [x for x, _ in pairs]
        streams["b"] += [y for _, y in pairs]
        streams[side] += extra

    fibers = one_level(draw(nests(alu_fibers)))
    streams = same_level(fibers, draw(alu_fibers), ("a", "b"), emit)
    return {"op": draw(st.sampled_from(["add", "sub", "mul"]))}, streams


UNIVERSE = 8
#: (coordinate or N, reference or N) pairs of one fiber
locate_pairs = st.lists(
    st.tuples(st.one_of(st.integers(0, UNIVERSE - 1), st.just(EMPTY)),
              st.one_of(st.integers(0, 20), st.just(EMPTY))),
    max_size=3,
)


@st.composite
def locate_streams(draw):
    """A crd/ref pair and the probed level's fiber."""
    def emit(streams, pairs):
        streams["crd"] += [c for c, _ in pairs]
        streams["ref"] += [r for _, r in pairs]

    level = draw(st.lists(st.integers(0, UNIVERSE - 1), unique=True,
                          max_size=5).map(sorted))
    fibers, last = one_level(draw(nests(locate_pairs))), draw(locate_pairs)
    return {"level": [level]}, same_level(fibers, last, ("crd", "ref"), emit)


SIZE = 5
scatter_pairs = st.lists(
    st.tuples(st.one_of(st.integers(0, SIZE - 1), st.just(EMPTY)),
              st.sampled_from([1.0, 0.5, -0.0, 1e16, -1e16, EMPTY])),
    max_size=3,
)


@st.composite
def scatter_streams(draw):
    def emit(streams, pairs):
        streams["ref"] += [r for r, _ in pairs]
        streams["val"] += [v for _, v in pairs]

    fibers = one_level(draw(nests(scatter_pairs)))
    return {"size": SIZE}, same_level(fibers, draw(scatter_pairs), ("ref", "val"), emit)


linked_pairs = st.lists(
    st.tuples(st.one_of(st.integers(0, 3), st.just(EMPTY)),
              st.one_of(st.integers(0, 9), st.just(EMPTY))),
    max_size=3,
)


@st.composite
def linked_list_streams(draw):
    """(parent, coordinate) pairs, ``N`` on either side."""
    def emit(streams, pairs):
        streams["parent"] += [p for p, _ in pairs]
        streams["crd"] += [c for _, c in pairs]

    fibers = one_level(draw(nests(linked_pairs)))
    return {}, same_level(fibers, draw(linked_pairs), ("parent", "crd"), emit)


SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 1e308, -1e308,
           5e-324, -5e-324, 0.1, 0.2, 0.3, 1e16, -1e16, 1.0, 3]
reduce_values = st.one_of(
    st.sampled_from(SPECIAL), st.just(EMPTY), st.floats(width=64, allow_nan=False)
)
#: few distinct coordinates, so a region repeats them; sums of three or
#: more of the ORDERED values depend on the order they are added in
ORDERED = [1e16, -1e16, 0.1, 0.2, 0.3, 1e308, -1e308, 1.0]
reduce_pairs = st.one_of(
    st.lists(st.tuples(st.sampled_from([0, 1, 1, 2, 5, -1, -7, 11]), reduce_values),
             max_size=4),
    st.lists(st.tuples(st.sampled_from([1, 2]), st.sampled_from(ORDERED)),
             min_size=3, max_size=6),
)
#: trailing values without coordinates
reduce_fibers = st.tuples(
    reduce_pairs, st.lists(st.sampled_from([0.0, -0.0, EMPTY, 0]), max_size=2)
)


@st.composite
def reduce_streams(draw):
    """Regions of (crd, val) pairs with phantoms in front of each stop,
    pairs only ``D`` closes, coordinates near either end of int64, and
    sometimes a second stream after ``D`` (it stays held)."""
    base = draw(st.sampled_from([0, 0, 0, 2**62 - 40, -(2**62)]))

    def emit(streams, payload):
        pairs, phantoms = payload
        streams["crd"] += [base + c for c, _ in pairs]
        streams["val"] += [v for _, v in pairs] + phantoms

    fibers = one_level(draw(nests(reduce_fibers)))
    streams = same_level(fibers, (draw(reduce_pairs), []), ("crd", "val"), emit)
    if draw(st.booleans()):
        for tokens in streams.values():
            tokens += [3, Stop(1), DONE]
    return {"flush_level": draw(st.integers(1, 2))}, streams


@st.composite
def drop_streams(draw):
    """Outer coordinates, each owning an inner fiber of effectual values,
    explicit zeros and ``N`` in any mix."""
    nest = draw(nests(st.lists(st.sampled_from([1.0, 2.5, 0.0, -0.0, EMPTY]),
                               max_size=3)))
    outer, inner = two_levels(nest, lambda fiber, at: at, list)
    return {"drop_zeros": draw(st.booleans())}, {"outer": outer, "inner": inner}


@st.composite
def value_drop_streams(draw):
    """One value per coordinate, phantoms behind them, and phantoms in
    front of ``D``."""
    def emit(streams, payload):
        owned, phantoms = payload
        streams["crd"] += [len(streams["crd"]) + i for i in range(len(owned))]
        streams["val"] += owned + phantoms

    fibers = one_level(draw(nests(st.tuples(
        st.lists(st.sampled_from([1.0, 0.0, -0.0, EMPTY]), max_size=3), phantom_runs))))
    return {}, same_level(fibers, ([], draw(phantom_runs)), ("crd", "val"), emit)


def shift(v):
    return 2.0 * v + 1.0


def negate(v):
    return -v


#: the maps an ``exp`` row applies, by name; neither sends ``N`` (read as
#: 0.0) to 0.0
EXP_FNS = {fn.__name__: fn for fn in (shift, negate)}


@st.composite
def exp_streams(draw):
    """Values, explicit zeros and ``N`` in fibers of every level."""
    def emit(streams, payload):
        streams["a"] += payload

    fibers = one_level(draw(nests(st.lists(operands, max_size=3))))
    return ({"fn": draw(st.sampled_from(sorted(EXP_FNS)))},
            same_level(fibers, draw(st.lists(operands, max_size=3)), ("a",), emit))


crd_sets = st.sets(st.integers(0, 9), max_size=4).map(sorted)
#: where a dirty chunk is planted: an N in place of a reference, a
#: non-zero value trailing the references, or a repeated coordinate
DIRTY = ["empty-ref", "non-zero-phantom", "duplicate"]
#: the dirty chunks that make a side malformed: the merger raises
#: :data:`MALFORMED_MESSAGE` on every engine (an N reference is payload)
MALFORMED = {"non-zero-phantom", "duplicate"}
MALFORMED_MESSAGE = (
    f"merge: malformed side: coordinates must increase within a fiber, from 0 "
    f"to {merge_module.MAX_COORDINATE}, and each reference stream must pair "
    f"with them")


@st.composite
def merge_streams(draw, arity):
    """Sides of one merger sharing a fiber structure: per side a
    coordinate stream and 0-2 reference streams of distinct values —
    floats trailed by phantom zeros when *value refs* (the shape behind a
    compute union) — an empty side, huge coordinates (2**61 leaves
    ``window_capacity`` at 3 fibers a merge), a planted dirty chunk
    (``malformed`` says whether it is one), a second stream after
    ``D``."""
    m = draw(arity)
    fibers = one_level(draw(nests(st.tuples(*[crd_sets] * m))))
    nrefs = draw(st.tuples(*[st.integers(0, 2)] * m))
    value_refs, rnd = draw(st.booleans()), draw(st.randoms(use_true_random=False))
    empty_side = draw(st.sampled_from([None, None] + list(range(m))))
    base = draw(st.sampled_from([0, 0, 2**40, 2**61]))
    dirty = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(DIRTY), st.integers(0, 7), st.integers(0, m - 1))))
    if dirty is not None and fibers:
        kind, at, on = dirty
        at %= len(fibers)
        if nrefs[on] == 0:
            kind = "duplicate"  # nothing but coordinates to corrupt
    else:
        dirty = None
    tail = draw(st.booleans())
    streams = {}
    for s in range(m):
        crd, refs = [], [[] for _ in range(nrefs[s])]
        for f, (sets, level) in enumerate(fibers):
            crds = [] if empty_side == s else [base + c for c in sets[s]]
            hit = dirty is not None and (at, on) == (f, s)
            if hit and kind == "duplicate":
                crds = crds[:1] * 2 + crds[1:] if crds else [4, 4]
            crd += crds + [Stop(level)]
            for j, ref in enumerate(refs):
                first = 100 * (1 + j + 4 * s) + 10 * f
                run = [first + i + (0.5 if value_refs else 0) for i in range(len(crds))]
                if hit and kind == "empty-ref" and j == 0 and run:
                    run[0] = EMPTY
                if value_refs:
                    run += [0.0] * rnd.randint(0, 2)
                if hit and kind == "non-zero-phantom" and j == 0:
                    run.append(7.5 if value_refs else 7)
                ref += run + [Stop(level)]
        streams[f"crd{s}"] = crd
        streams.update({f"ref{s}_{j}": ref for j, ref in enumerate(refs)})
    for tokens in streams.values():
        tokens += [DONE] + ([3, Stop(0), DONE] if tail else [])
    return {"malformed": dirty is not None and kind in MALFORMED, "base": base}, streams


def scanned(level, tokens):
    """The fibers a scanner emits for the reference *tokens* over *level*
    (a list of coordinate lists): ``[(coordinates, terminator)]``, its
    last one ``D``'s empty fiber."""
    fibers, i = [], 0
    while True:
        token = tokens[i]
        i += 1
        if token is DONE:
            return fibers + [([], DONE)]
        if is_stop(token):  # a stray stop closes an empty fiber one level up
            fibers.append(([], Stop(token.level + 1)))
            continue
        crds = [] if token is EMPTY else level[token]
        if is_stop(tokens[i]):
            fibers.append((crds, Stop(tokens[i].level + 1)))
            i += 1
        else:
            fibers.append((crds, Stop(0)))


@st.composite
def scan_refs(draw, fibers, stops=st.just(Stop(0))):
    """A scanner's reference stream over a level of *fibers* fibers:
    groups of fiber references and ``N``, empty groups (stray stops), the
    last group open or closed by ``D``; a group closes with a drawn
    *stops*."""
    ref = st.one_of(st.integers(0, fibers - 1), st.just(EMPTY))
    groups = draw(st.lists(st.lists(ref, max_size=3), min_size=1, max_size=3))
    tokens = [t for group in groups for t in group + [draw(stops)]]
    if draw(st.booleans()) and groups[-1]:
        tokens.pop()  # the last group ends at D
    return tokens + [DONE]


@st.composite
def scan_merge_streams(draw, layouts):
    """Merger sides fed by scanners (``s``) and by streams (``d``), as a
    drawn *layout* string orders them.  Every scanner reads one reference
    stream — groups of fiber references, ``N`` and empty groups (stray
    stops), the last group open or closed — over one level whose fibers
    may be empty, and sometimes an unsorted one; each stream side has one
    fiber a scanned fiber, coordinates drawn against the level's, a
    dirty chunk may be planted on it, and a second stream may follow
    ``D`` everywhere.  ``malformed``: a planted chunk or a scanned fiber
    of the level makes a side malformed."""
    layout = draw(layouts)
    level = draw(st.lists(crd_sets, min_size=1, max_size=4))
    unsorted = draw(st.sampled_from([False] * 4 + [True]))
    wide = [f for f, crds in enumerate(level) if len(crds) > 1]
    if unsorted and wide:
        level[wide[0]] = level[wide[0]][::-1]
    tokens = draw(scan_refs(len(level)))
    fibers = scanned(level, tokens)
    dense = [s for s, kind in enumerate(layout) if kind == "d"]
    dirty = draw(st.one_of(st.none(), st.tuples(
        st.sampled_from(DIRTY), st.integers(0, 7), st.sampled_from(dense or [None]))))
    if dirty is not None and dirty[2] is not None:
        what, at, on = dirty
        at %= len(fibers)
    else:
        dirty = None
    tail = draw(st.booleans())
    streams = {}
    malformed = any(crds != sorted(set(crds)) for crds, _ in fibers)
    for s, kind in enumerate(layout):
        if kind == "s":
            streams[f"scan{s}"] = tokens + ([0, DONE] if tail else [])
            continue
        crd, ref = [], []
        for f, (_, stop) in enumerate(fibers):
            crds = draw(crd_sets) if stop is not DONE else []
            run = [100 * (1 + s) + 10 * f + i for i in range(len(crds))]
            if dirty is not None and (at, on) == (f, s):
                if what == "duplicate" or not crds:
                    crds = crds[:1] * 2 + crds[1:] if crds else [4, 4]
                    run = run[:1] * 2 + run[1:] if run else [7, 7]
                    malformed = True
                elif what == "empty-ref":
                    run[0] = EMPTY
                else:
                    run.append(7)
                    malformed = True
            crd += crds + [stop]
            ref += run + [stop]
        streams[f"crd{s}"] = crd + ([3, Stop(0), DONE] if tail else [])
        streams[f"ref{s}_0"] = ref + ([30, Stop(0), DONE] if tail else [])
    return {"level": level, "sides": layout, "malformed": malformed}, streams


@st.composite
def scan_locate_streams(draw):
    """A locator reading both outputs of a scanner: the scanned level,
    whose fibers may be empty (sometimes a dense one, which the scanner
    does not hand over as runs), its reference stream (:func:`scan_refs`,
    stray stops of two levels), the probed fiber, drawn from the level's
    coordinates so that probes hit and miss, and sometimes a second
    stream after ``D``."""
    level = draw(st.lists(crd_sets, min_size=1, max_size=4))
    tokens = draw(scan_refs(len(level), st.sampled_from([Stop(0), Stop(1)])))
    if draw(st.booleans()):
        tokens += [0, DONE]
    params = {"level": level, "target": draw(crd_sets),
              "dense": draw(st.sampled_from([0] * 3 + [3]))}
    return params, {"scan": tokens}


@st.composite
def serializer_streams(draw):
    """1-4 lanes; the fibers of one nest are rounds, one fiber per lane
    each (the last round may stop short), so lane fiber counts differ by
    at most one and every lane closes at the same levels."""
    lanes = draw(st.integers(1, 4))
    tokens = st.lists(st.sampled_from([1.0, 2.5, 0.0, EMPTY]), max_size=3)
    rounds = one_level(draw(nests(st.lists(tokens, min_size=lanes, max_size=lanes))))
    streams = {f"lane{i}": [] for i in range(lanes)}
    for r, (fibers, level) in enumerate(rounds):
        short = r == len(rounds) - 1 and r and level <= max(lv for _, lv in rounds[:-1])
        for i in range(draw(st.integers(1, lanes)) if short else lanes):
            streams[f"lane{i}"] += fibers[i] + [Stop(level)]
    return {}, {lane: tokens + [DONE] for lane, tokens in streams.items()}


@st.composite
def repeat_streams(draw):
    """A reference (or ``N``) per driving fiber of 0-4 coordinates.  The
    signal link, recorded or not, may already hold the signals of the
    driver's first tokens; the feeder plays the rest, down to the
    deepest stop."""
    nest = draw(nests(st.tuples(st.booleans(), st.integers(0, 4))))
    refs, driver = two_levels(nest, lambda fiber, at: EMPTY if fiber[0] else float(at),
                              lambda fiber: list(range(fiber[1])))
    top = Stop(max(t.level for t in driver if is_stop(t)))
    k = draw(st.integers(0, max(i for i, t in enumerate(driver) if t == top)))
    return ({"record": draw(st.booleans()), "sig": driver[:k]},
            {"crd": driver[k:], "ref": refs})


# -- blocks ------------------------------------------------------------------------
def make_alu(params, ins, out):
    return [ALU(params["op"], ins["a"], ins["b"], out("out", "vals"), name="alu")]


def make_exp(params, ins, out):
    return [Exp(EXP_FNS[params["fn"]], ins["a"], out("out", "vals"), name="map")]


def make_locator(params, ins, out):
    outs = out("o_crd", "crd"), out("o_found", "ref"), out("o_ref", "ref")
    level = CompressedLevel.from_fibers(params["level"])
    return [Locator(level, ins["crd"], ins["ref"], *outs, name="locate")]


def make_scatter(params, ins, out):
    return [ScatterValsWriter(params["size"], ins["ref"], ins["val"],
                              name="wr_scatter")]


def make_linked_list(params, ins, out):
    return [LinkedListLevelWriter(ins["parent"], ins["crd"], name="wr_ll")]


def linked_lists(blocks):
    level = blocks[0].level
    return [level.fiber(r) for r in range(level.num_fibers())], blocks[0].child_refs


def make_reducer(params, ins, out):
    return [VectorReducer(ins["crd"], ins["val"], out("oc", "crd"), out("ov", "vals"),
                          flush_level=params["flush_level"], name="red")]


def make_dropper(params, ins, out):
    outs = out("oo", "crd"), out("oi", "vals")
    return [CoordDropper(ins["outer"], ins["inner"], *outs,
                         drop_zeros=params["drop_zeros"], name="drop")]


def make_value_dropper(params, ins, out):
    return [ValueDropper(ins["crd"], ins["val"], out("oc", "crd"), out("ov", "vals"),
                         name="valdrop")]


def merger(cls):
    def make(params, ins, out):
        sides, groups, crd = [], [], out("ocrd", "crd")
        arity = sum(port.startswith("crd") for port in ins)
        for s in range(arity):
            refs = [ch for port, ch in ins.items() if port.startswith(f"ref{s}_")]
            sides.append(MergeSide(ins[f"crd{s}"], refs))
            groups.append([out(f"o{ch.name}", "ref") for ch in refs])
        return [cls(sides, crd, groups, name="merge")]
    return make


def scan_merger(cls):
    """A merger whose ``s`` sides read a scanner over ``params["level"]``
    (its reference stream on port ``scan<side>``), ``d`` sides a
    coordinate and a reference stream."""
    def make(params, ins, out):
        blocks, sides, groups = [], [], []
        for s, kind in enumerate(params["sides"]):
            if kind == "s":
                level = CompressedLevel.from_fibers(params["level"])
                crd, ref = Channel(f"sc{s}"), Channel(f"sr{s}", kind="ref")
                blocks.append(make_scanner(level, ins[f"scan{s}"], crd, ref,
                                           name=f"scan{s}"))
                sides.append(MergeSide(crd, [ref]))
            else:
                sides.append(MergeSide(ins[f"crd{s}"], [ins[f"ref{s}_0"]]))
            groups.append([out(f"o{s}", "ref")])
        return blocks + [cls(sides, out("ocrd", "crd"), groups, name="merge")]
    return make


def make_scan_locator(params, ins, out):
    """A scanner over ``params["level"]`` (a dense level of that many
    fibers, ``params["dense"]`` wide, when set) feeding a locator that
    probes ``params["target"]``."""
    if params["dense"]:
        level = DenseLevel(params["dense"], len(params["level"]))
    else:
        level = CompressedLevel.from_fibers(params["level"])
    crd, ref = Channel("sc"), Channel("sr", kind="ref")
    outs = out("o_crd", "crd"), out("o_found", "ref"), out("o_ref", "ref")
    return [make_scanner(level, ins["scan"], crd, ref, name="scan"),
            Locator(CompressedLevel.from_fibers([params["target"]]), crd, ref, *outs,
                    name="locate")]


def make_serializer(params, ins, out):
    return [InterleaveSerializer(list(ins.values()), out("out", "vals"), name="join")]


def make_repeat(params, ins, out):
    sig = Channel("sig", kind="repsig", record=params.get("record", False))
    for token in params.get("sig", ()):
        sig.push(REPEAT if is_data(token) else token)
    return [RepeatSigGen(ins["crd"], sig, name="repeat.sig"),
            Repeater(ins["ref"], sig, out("out", "ref"), name="repeat")]


# -- protocol errors -----------------------------------------------------------
class Errors(NamedTuple):
    """A row's protocol errors: the parameters they are raised under, the
    clean chunk a defect sits behind (per port), and ``(message,
    streams)`` rows — every stream ends with ``D``.  Streams are
    :func:`toks` text."""

    params: Dict[str, Any]
    prefix: Dict[str, str]
    rows: List[tuple]


ALU_ERRORS = Errors({"op": "add"}, {"a": "1.0 0.0 S0 2.0 S1", "b": "1.0 S0 2.0 N S1"}, [
    ("alu: misaligned value streams (2.0 vs S0)",
     {"a": "1.0 2.0 S0 D", "b": "1.0 S0 D"}),
    ("alu: misaligned value streams (S0 vs 3.0)", {"a": "S0 D", "b": "0.0 3.0 S0 D"}),
    ("alu: misaligned stops S0 vs S1", {"a": "1.0 S0 D", "b": "1.0 S1 D"}),
    ("alu: misaligned value streams (S0 vs D)", {"a": "1.0 S0 D", "b": "1.0 D"}),
    ("alu: misaligned value streams (D vs S1)", {"a": "1.0 D", "b": "1.0 0.0 S1 D"}),
    ("alu: misaligned value streams (D vs 4.0)", {"a": "D", "b": "N 4.0 D"}),
])
LOCATE_ERRORS = Errors(
    {"level": [[1, 2]]}, {"crd": "1 N S0 3 S1", "ref": "0 1 S0 N S1"}, [
    ("locate: misaligned inputs (3 vs S0)", {"crd": "1 3 S0 D", "ref": "0 S0 D"}),
    ("locate: misaligned inputs (S0 vs 2)", {"crd": "1 S0 D", "ref": "0 2 S0 D"}),
    ("locate: misaligned inputs (S0 vs S1)", {"crd": "1 S0 D", "ref": "0 S1 D"}),
    ("locate: misaligned inputs (D vs S0)", {"crd": "1 D", "ref": "0 S0 D"}),
    ("locate: misaligned inputs (N vs D)", {"crd": "N S0 D", "ref": "D"}),
    # an N reference is a datum: it does not pair with a stop
    ("locate: misaligned inputs (S0 vs N)", {"crd": "1 S0 D", "ref": "0 N S0 D"}),
])
#: the scatter writer used to scatter what it could and drop the rest,
#: or wait for ever at D
SCATTER_ERRORS = Errors({"size": 3}, {"ref": "0 N S0 2 S1", "val": "1.0 2.0 S1 N S0"}, [
    ("wr_scatter: misaligned inputs (1 vs S0)",
     {"ref": "0 1 S0 D", "val": "1.0 S0 2.0 D"}),
    ("wr_scatter: misaligned inputs (D vs 3.0)",
     {"ref": "0 1 D", "val": "1.0 2.0 3.0 D"}),
    ("wr_scatter: misaligned inputs (S0 vs 0.0)", {"ref": "S0 D", "val": "N S0 D"}),
    ("wr_scatter: misaligned inputs (N vs D)", {"ref": "N S0 D", "val": "D"}),
    ("wr_scatter: misaligned inputs (S1 vs D)", {"ref": "0 S1 D", "val": "1.0 D"}),
    ("wr_scatter: misaligned inputs (D vs S0)", {"ref": "0 D", "val": "1.0 S0 D"}),
])
LINKED_ERRORS = Errors({}, {"parent": "0 N S0 2 S1", "crd": "5 6 S1 N S0"}, [
    ("wr_ll: misaligned inputs (1 vs S0)", {"parent": "0 1 S0 D", "crd": "5 S0 6 D"}),
    ("wr_ll: misaligned inputs (D vs 3)", {"parent": "0 1 D", "crd": "5 6 3 D"}),
    ("wr_ll: misaligned inputs (S0 vs N)", {"parent": "S0 D", "crd": "N S0 D"}),
    ("wr_ll: misaligned inputs (N vs D)", {"parent": "N S0 D", "crd": "D"}),
    ("wr_ll: misaligned inputs (S1 vs D)", {"parent": "0 S1 D", "crd": "1 D"}),
    ("wr_ll: misaligned inputs (D vs S0)", {"parent": "0 D", "crd": "1 S0 D"}),
])
REDUCE_ERRORS = Errors(
    {"flush_level": 1}, {"crd": "0 1 S0 1 S1", "val": "1.0 2.0 0.0 S0 3.0 S1"}, [
    ("red: non-zero value 0.5 without a coordinate",
     {"crd": "4 S0 D", "val": "1.0 0.5 S0 D"}),
    ("red: misaligned stops S0/S1", {"crd": "4 S0 D", "val": "1.0 S1 D"}),
    ("red: misaligned inputs (5 vs S0)", {"crd": "4 5 S0 D", "val": "1.0 S0 D"}),
    ("red: misaligned inputs (N vs 1.0)", {"crd": "N S0 D", "val": "1.0 S0 D"}),
    # a float coordinate is refused where it enters, under every delivery
    ("feed_crd: non-integer coordinate 2.5", {"crd": "2.5 S0 D", "val": "1.0 S0 D"}),
    ("red: misaligned inputs (S0 vs D)", {"crd": "4 S0 D", "val": "1.0 D"}),
    ("red: misaligned inputs (D vs S0)", {"crd": "4 D", "val": "1.0 S0 D"}),
])
DROP_ERRORS = Errors(
    {"drop_zeros": False},
    {"outer": "0 1 S0 2 S0", "inner": "1.0 S0 2.0 S1 0.0 3.0 S1"}, [
    ("drop: inner stream ended mid-fiber", {"outer": "5 S0 D", "inner": "1.0 N D"}),
    ("drop: outer stop S0 expects inner stop S1, got 1.0",
     {"outer": "S0 D", "inner": "1.0 S1 D"}),
    ("drop: outer stop S0 expects inner stop S1, got S2",
     {"outer": "S0 D", "inner": "S2 D"}),
    ("drop: outer stop S1 expects inner stop S2, got D",
     {"outer": "S1 D", "inner": "D"}),
    ("drop: inner stop S1 expects outer stop S0, got 6",
     {"outer": "5 6 S0 D", "inner": "1.0 S1 2.0 S1 D"}),
    ("drop: inner stop S2 expects outer stop S1, got S0",
     {"outer": "5 S0 D", "inner": "1.0 S2 D"}),
    ("drop: inner stop S1 expects outer stop S0, got D",
     {"outer": "5 D", "inner": "S1 D"}),
    ("drop: inner stream out of sync at D, got 4.0",
     {"outer": "D", "inner": "4.0 S0 D"}),
    ("drop: inner stream out of sync at D, got S1", {"outer": "D", "inner": "S1 D"}),
])
VALUE_DROP_ERRORS = Errors({}, {"crd": "5 6 S0", "val": "1.0 0.0 N S0"}, [
    ("valdrop: value stream ran out mid-fiber (S0)",
     {"crd": "0 1 S0 D", "val": "1.0 S0 D"}),
    ("valdrop: value stream ran out mid-fiber (D)",
     {"crd": "0 1 S0 D", "val": "1.0 D"}),
    ("valdrop: non-zero value 2.0 has no coordinate",
     {"crd": "0 S0 D", "val": "1.0 2.0 S0 D"}),
    ("valdrop: non-zero value 3.0 has no coordinate",
     {"crd": "S0 D", "val": "0 3 S0 D"}),
    ("valdrop: non-zero value 4.0 has no coordinate",
     {"crd": "0 S0 D", "val": "1.0 S0 4.0 D"}),
    ("valdrop: misaligned stops S0/S1", {"crd": "0 S0 D", "val": "1.0 S1 D"}),
    ("valdrop: misaligned streams (S0 vs D)", {"crd": "0 S0 D", "val": "1.0 0.0 D"}),
    ("valdrop: misaligned streams (D vs S1)", {"crd": "0 D", "val": "1.0 N S1 D"}),
])
MERGE_ERRORS = Errors({}, {"crd0": "0 2 S0", "crd1": "2 S0", "crd2": "1 S0"}, [
    ("merge: misaligned stops [S0, S1]",
     {"crd0": "0 S0 1 S0 D", "crd1": "0 S0 1 S1 D"}),
    ("merge: misaligned stops [S0, S0, S1]",
     {"crd0": "0 S0 D", "crd1": "1 S0 D", "crd2": "1 S1 D"}),
])
#: terminators that do not match across a scanner's runs and a stream
#: side; an unsorted level is never walked: its runs are laid out as keys
SCAN_LEVEL = [[1, 2], [0, 3]]
SCAN_INTERSECT_ERRORS = Errors(
    {"level": SCAN_LEVEL, "sides": "ds"},
    {"crd0": "1 S1", "ref0_0": "10 S1", "scan1": "0 S0"}, [
    ("merge: misaligned stops [S0, S1]",
     {"crd0": "1 S0 D", "ref0_0": "10 S0 D", "scan1": "0 S0 D"}),
    # a duplicate in front of the mismatched stops: the side is malformed
    (MALFORMED_MESSAGE,
     {"crd0": "1 1 S1 1 S0 D", "ref0_0": "10 11 S1 12 S0 D", "scan1": "0 S0 0 S0 D"}),
])
SCAN_UNSORTED_ERRORS = Errors(
    {"level": [[2, 1], [0, 3]], "sides": "ds"},
    {"crd0": "3 S1", "ref0_0": "10 S1", "scan1": "1 S0"}, [
    # the unsorted fiber comes before the mismatched stops
    (MALFORMED_MESSAGE,
     {"crd0": "1 S1 3 S0 D", "ref0_0": "10 S1 11 S0 D", "scan1": "0 S0 1 S0 D"}),
])
SCAN_UNION_ERRORS = Errors(
    {"level": SCAN_LEVEL, "sides": "dss"},
    {"crd0": "1 S1", "ref0_0": "10 S1", "scan1": "0 S0", "scan2": "0 S0"}, [
    ("merge: misaligned stops [S0, S1, S1]",
     {"crd0": "1 S0 D", "ref0_0": "10 S0 D", "scan1": "0 S0 D", "scan2": "0 S0 D"}),
])
#: a lane that ends inside a fiber used to be copied out as a fiber token
#: and end in DeadlockError on every engine
SERIALIZER_ERRORS = Errors(
    {}, {"lane0": "1.0 2.0 S0", "lane1": "5.0 S0", "lane2": "2.0 S0"}, [
    ("join: lane 0 ended mid-fiber", {"lane0": "3.0 D", "lane1": "D"}),
    ("join: lane 0 ended mid-fiber", {"lane0": "3.0 D 9.0 S0 9.0 S0", "lane1": "D"}),
    ("join: lane 0 ended mid-fiber", {"lane0": "1 2 S0 3 D", "lane1": "5 S0 D"}),
    ("join: lane 1 ended mid-fiber",
     {"lane0": "1.0 S0 D", "lane1": "N D", "lane2": "2.0 S0 D"}),
    ("join: lane 1 desync at D (3.0)",
     {"lane0": "1.0 S0 D", "lane1": "2.0 S0 3.0 S0 D"}),
    ("join: lane 1 desync at D (S0)", {"lane0": "D", "lane1": "S0 D"}),
    ("join: lane 0 desync at D (2.0)",
     {"lane0": "1.0 S0 2.0 S0 D", "lane1": "D", "lane2": "4.0 S1 D"}),
])
REPEAT_ERRORS = Errors({}, {"crd": "0 1 S0 2 S1 3 S1", "ref": "10 11 S0 12 S0"}, [
    ("repeat: driver stream ended mid-fiber (D)", {"crd": "5 D", "ref": "1 S0 D"}),
    ("repeat: reference stop S0 expects driver stop S1, got 'R'",
     {"crd": "5 S1 D", "ref": "S0 D"}),
    ("repeat: reference stop S0 expects driver stop S1, got S0",
     {"crd": "S0 D", "ref": "S0 D"}),
    ("repeat: reference stop S1 expects driver stop S2, got D",
     {"crd": "D", "ref": "S1 D"}),
    ("repeat: driver stop S1 expects reference stop S0, got 2",
     {"crd": "5 S1 6 S1 D", "ref": "1 2 S0 D"}),
    ("repeat: driver stop S2 expects reference stop S1, got S0",
     {"crd": "5 S2 D", "ref": "1 S0 D"}),
    ("repeat: driver stop S1 expects reference stop S0, got D",
     {"crd": "S1 D", "ref": "1 D"}),
    ("repeat: driver stream out of sync at D ('R')", {"crd": "5 S0 D", "ref": "D"}),
    ("repeat: driver stream out of sync at D (S0)", {"crd": "S0 D", "ref": "D"}),
])


# -- the case table -----------------------------------------------------------------
def nothing(*args):
    return ()


def merger_exemption(params, delivery):
    """The checks a merger row skips, by design, as ``one window``: key
    capacity splits a window of huge coordinates.  A key-split row still
    counts its sliced windows."""
    if params.get("base", 0) >= 2**61:
        return {"one window"}
    return set()


class Case(NamedTuple):
    name: str
    classes: tuple  # the block classes this row is the differential of
    streams: Any  # strategy of (params, {port: tokens})
    make: Callable  # (params, {port: channel}, out(name, kind)) -> [blocks]
    errors: Errors
    counters: Callable = nothing  # (blocks): what a run must reproduce
    #: per input port, the channel whose windows its slices must cut
    #: (a timed block may sit in between), or None
    paced: Dict[str, Optional[str]] = {}
    #: (params, delivery): the checks this run skips
    exempt: Callable = nothing


CASES = [
    Case("alu", (ALU,), alu_streams(), make_alu, ALU_ERRORS),
    Case("exp", (Exp,), exp_streams(), make_exp, Errors({}, {}, [])),
    Case("locate", (Locator,), locate_streams(), make_locator, LOCATE_ERRORS,
         counters=lambda blocks: (blocks[0].probes, blocks[0].hits)),
    # both inputs from one scanner: its fibers as runs, probed per fiber
    Case("scan-locate", (Locator,), scan_locate_streams(), make_scan_locator,
         Errors({}, {}, []),
         counters=lambda blocks: (blocks[1].probes, blocks[1].hits)),
    Case("scatter", (ScatterValsWriter,), scatter_streams(), make_scatter,
         SCATTER_ERRORS, counters=lambda blocks: [canon(v) for v in blocks[0].vals]),
    Case("linked-list", (LinkedListLevelWriter,), linked_list_streams(),
         make_linked_list, LINKED_ERRORS, counters=linked_lists),
    Case("reduce", (VectorReducer,), reduce_streams(), make_reducer, REDUCE_ERRORS),
    Case("drop", (CoordDropper,), drop_streams(), make_dropper, DROP_ERRORS,
         counters=lambda blocks: blocks[0].dropped),
    Case("value-drop", (ValueDropper,), value_drop_streams(), make_value_dropper,
         VALUE_DROP_ERRORS, counters=lambda blocks: blocks[0].dropped),
    Case("intersect", (Intersect,), merge_streams(st.just(2)), merger(Intersect),
         MERGE_ERRORS._replace(rows=MERGE_ERRORS.rows[:1]), exempt=merger_exemption),
    Case("union", (Union,), merge_streams(st.integers(2, 4)), merger(Union),
         MERGE_ERRORS, exempt=merger_exemption),
    # sides fed by a scanner: fiber runs, walked by a two-sided intersecter
    Case("scan-intersect", (Intersect,), scan_merge_streams(st.sampled_from(
        ["ds", "sd", "ss"])), scan_merger(Intersect), SCAN_INTERSECT_ERRORS,
        exempt=merger_exemption),
    Case("scan-union", (Union,), scan_merge_streams(st.sampled_from(
        ["ds", "sd", "ss", "dss", "sds", "dsd"])), scan_merger(Union),
        SCAN_UNION_ERRORS, exempt=merger_exemption),
    Case("serializer", (InterleaveSerializer,), serializer_streams(), make_serializer,
         SERIALIZER_ERRORS),
    # the driver's windows reach the repeater through the signal link
    Case("repeat", (RepeatSigGen, Repeater), repeat_streams(), make_repeat,
         REPEAT_ERRORS, paced={"crd": "sig"}),
]
BY_NAME = {case.name: case for case in CASES}
#: rows whose protocol errors run without a stream strategy of their own
ERROR_ONLY = [BY_NAME["scan-intersect"]._replace(name="scan-intersect-unsorted",
                                                 errors=SCAN_UNSORTED_ERRORS)]


# -- deliveries ----------------------------------------------------------------
class Delivery(NamedTuple):
    """How the inputs arrive.  *port*: the input cut, prefilled or relayed
    (``"in"``: a relay on every input, ``"out"``: behind every output);
    *at*: where the cut falls or
    how many tokens are queued; *gap*: idle cycles at the cut; *seed*:
    the slices' plan."""

    kind: str  # whole | cut | prefill | slices | relay
    port: Optional[str] = None
    at: int = 0
    gap: int = 0
    seed: int = 0


KINDS_OF_DELIVERY = ("whole", "cut", "prefill", "slices", "relay")


@st.composite
def deliveries(draw, kind, streams):
    ports = list(streams)
    if kind == "whole":
        return Delivery(kind)
    if kind == "slices":
        return Delivery(kind, seed=draw(st.integers(0, 2**16)))
    if kind == "relay":
        return Delivery(kind, draw(st.sampled_from(ports + ["in", "out"])))
    port = draw(st.sampled_from(ports))
    if kind == "cut":
        return Delivery(kind, port, draw(st.integers(0, len(streams[port]))),
                        draw(st.integers(0, 3)))
    n = len(streams[port])
    return Delivery(kind, port, draw(st.integers(min(1, n - 1), n - 1)))


def slice_plans(streams, seed):
    """Per port, slices of 1-5 tokens 0-3 idle cycles apart."""
    rng = random.Random(seed)
    return {port: [(rng.randint(1, 5), rng.randint(0, 3)) for _ in tokens[::3]]
            for port, tokens in streams.items()}


def push_groups(streams, delivery):
    """Per port fed by a generator, the sizes of the pushes it makes."""
    if delivery.kind == "slices":
        groups = {}
        for port, plan in slice_plans(streams, delivery.seed).items():
            sizes = [size for size, _ in plan]
            groups[port] = sizes + [len(streams[port]) - sum(sizes)]
        return groups
    port = delivery.port
    if delivery.kind == "cut":
        return {port: [delivery.at, len(streams[port]) - delivery.at]}
    if delivery.kind == "relay" and port != "out":
        return {p: [1] * len(streams[p]) for p in streams if port in (p, "in")}
    return {}


# -- the harness ---------------------------------------------------------------
def build(case, params, streams, delivery):
    """``(blocks, recorded outputs, blocks under test)`` of one run: each
    recorded output read by a :class:`Clocked` sink, which logs the
    cycle of every token it takes."""
    blocks, ins, recorded = [], {}, []
    plans = slice_plans(streams, delivery.seed) if delivery.kind == "slices" else {}
    for port, tokens in streams.items():
        channel, tokens = Channel(port, kind=kind_of(port)), list(tokens)
        mine = delivery.port == port
        if port in plans:
            blocks.append(Slicer(tokens, plans[port], channel, f"feed_{port}"))
        elif mine and delivery.kind == "cut":
            blocks.append(Slicer(tokens, [(delivery.at, delivery.gap)], channel,
                                 f"feed_{port}"))
        else:
            if mine and delivery.kind == "prefill":
                for token in tokens[:delivery.at]:
                    channel.push(token)
                tokens = tokens[delivery.at:]
            relay = delivery.kind == "relay" and delivery.port in (port, "in")
            blocks += fed(tokens, channel, f"feed_{port}", relay=relay)
        ins[port] = channel

    def out(name, kind):
        channel = Channel(name, kind=kind, record=True)
        recorded.append(Clocked(channel, f"log_{name}"))
        if delivery.kind != "relay" or delivery.port != "out":
            return channel
        mid = Channel(f"mid_{name}", kind=kind)
        blocks.append(Relay(mid, channel, f"tail_{name}"))
        return mid

    under = case.make(params, ins, out)
    blocks += under + recorded
    return blocks, recorded, under


def counted(block):
    """Count *block*'s visits, the events of each epoch advance and the
    single events it accounts on its own."""
    block.visits, block.advances, block.singles = 0, [], 0
    drain, advance, event = block.drain_timed, block._t_advance, block._t_event
    span = block._t_span

    def visit():
        block.visits += 1
        return drain()

    def step(arrivals):
        block.advances.append(len(arrivals))
        return advance(arrivals)

    def single(arrival=0):
        block.singles += 1
        return event(arrival)

    def sparse(n, last):  # a schedule computed sparsely is an advance too
        block.advances.append(n)
        return span(n, last)

    block.drain_timed, block._t_advance, block._t_event = visit, step, single
    block._t_span = sparse


def run(case, params, streams, delivery, backend):
    """Everything a backend may not change — each output token and the
    cycle its sink took it in included — or ``("raises", message)`` of
    its ``BlockError``, the window log, and the blocks under test."""
    blocks, recorded, under = build(case, params, streams, delivery)
    for block in under:
        counted(block)
    with window_log() as log:
        try:
            report = run_blocks(blocks, backend=backend)
        except BlockError as error:
            return ("raises", str(error)), log, under
    got = (report.cycles, report.block_activity(), graph_token_counts(blocks),
           [[canon(t) for t in sink.in_.history] for sink in recorded],
           [sink.log for sink in recorded], case.counters(under))
    return got, log, under


#: ``cycle``'s outcome per run, by ``repr``: one run serves every engine
ORACLE_RUNS: Dict[str, tuple] = {}


def oracle(case, params, streams, delivery):
    """``cycle``'s outcome; a whole-delivery graph must first pass
    ``infer_protocol`` with no finding."""
    key = repr((case.name, params, streams, delivery))
    if key in ORACLE_RUNS:
        return ORACLE_RUNS[key]
    if delivery.kind == "whole":
        findings = infer_protocol(build(case, params, streams, delivery)[0]).findings
        assert not findings, [f.message for f in findings]
    return ORACLE_RUNS.setdefault(key, run(case, params, streams, delivery, ORACLE)[0])


def check(case, params, streams, delivery, windows=1, engines=TIMED):
    """One outcome on every engine of *engines*, against ``cycle``'s;
    *windows*: how many a whole delivery takes.  ``cycle`` raises exactly
    where *params* say the streams are ``malformed``."""
    want = oracle(case, params, streams, delivery)
    assert (want[0] == "raises") == bool(params.get("malformed")), want
    skip = case.exempt(params, delivery)
    for backend in engines:
        got, log, under = run(case, params, streams, delivery, backend)
        assert got == want, (backend, delivery)
        if want[0] == "raises":
            continue
        for port, sizes in push_groups(streams, delivery).items():
            reader = case.paced.get(port, port)
            if reader is not None:
                live = streams[port].index(DONE) + 1  # the block ends at the first D
                starts = accumulate([0] + sizes)
                pushes = sum(1 for at, size in zip(starts, sizes) if size and at < live)
                assert_windows_sliced(log, port, reader, pushes)
        for block in under:
            if "one window" in skip or not block.timed_capable():
                continue
            assert len(block.advances) <= block.visits + 1, (backend, block.name)
            if delivery.kind == "whole":
                # the whole stream is one window: at most one advance,
                # and with the single events the block accounts, every
                # event it is busy for
                busy = want[1][block.name]["busy"]
                assert len(block.advances) <= windows, (backend, block.name)
                assert sum(block.advances) + block.singles == busy, (
                    backend, block.name)
    return want


@pytest.mark.parametrize("how", KINDS_OF_DELIVERY)
@pytest.mark.parametrize("case", CASES, ids=lambda case: case.name)
@given(data=st.data())
def test_every_delivery_matches_cycle(case, how, data):
    params, streams = data.draw(case.streams, label="streams")
    delivery = data.draw(deliveries(how, streams), label="delivery")
    check(case, params, streams, delivery)


#: the level the scanner-fed regressions read: an empty fiber between two
SCAN_RUNS = [[1, 3, 5], [], [0, 2, 4, 6]]
#: (row, params, streams as :func:`toks` text[, windows on whole
#: delivery]) a property once missed, run under every delivery
REGRESSIONS = [
    # an elevated stop (the empty driving fiber's S2) leaves a slice ahead
    # of the reference S1 it folds, on every engine
    ("repeat", {}, {"crd": "S2 D", "ref": "0.0 S1 D"}),
    # the driving fiber closes S0, so the reference stop behind its owner
    # is bare and pairs with the empty S1
    ("repeat", {}, {"crd": "4 S0 S1 5 S1 D", "ref": "7 S0 8 S0 D"}, 2),
    # the same with the driver's first fiber already on the recorded
    # signal link
    ("repeat", {"record": True, "sig": toks("4 S0")},
     {"crd": "S1 5 S1 D", "ref": "7 S0 8 S0 D"}, 2),
    # a survivor's coordinate, the boundary held in front of it and its
    # value leave before the outer stop its S2 folds
    ("drop", {"drop_zeros": False},
     {"outer": "S0 1 2 S1 D", "inner": "S1 S0 1.0 S2 D"}),
    # the S1 a dropped fiber closes with outlives three windows of dropped
    # S0 fibers before a survivor emits it
    ("drop", {"drop_zeros": True},
     {"outer": "0 1 S0 2 3 4 S0 D", "inner": "1.0 S0 S1 S0 0.0 S0 5.0 S1 D"}),
    ("drop", {"drop_zeros": False},
     {"outer": "7 S0 8 S0 D", "inner": "1.0 S0 S1 2.0 S1 D"}, 2),
    # pairs leave before their terminator arrives
    ("value-drop", {},
     {"crd": "0 1 2 3 4 S2 D", "val": "1.0 0.0 2.5 N 4.0 0.0 N S2 D"}),
    ("value-drop", {},
     {"crd": "0 S0 S1 3 4 S2 D", "val": "1.0 0.0 S0 N -0.0 S1 0.0 3.0 S2 0.0 D"}),
    # an unterminated fiber's tokens leave as they arrive
    ("serializer", {}, {"lane0": "1.0 2.0 3.0 S0 D", "lane1": "4.0 S0 D"}),
    ("serializer", {},
     {"lane0": "1.0 2.0 S0 5.0 S1 D",
      "lane1": "S0 N S1 D",
      "lane2": "3.0 S0 4.0 S1 D"}),
    # phantoms on either side, in front of S0, S1 and D
    ("alu", {"op": "mul"},
     {"a": "1.0 0.0 S0 3.0 S1 D", "b": "2.0 S0 N N -0.0 S1 0.0 D"}),
    # N maps to fn(0.0), at either end of a window and between stops
    ("exp", {"fn": "shift"}, {"a": "N 1.0 S0 N S0 -0.0 N S1 2.5 N D"}),
    # N coordinates and references, an empty fiber between two stops
    ("locate", {"level": [[2, 4]]},
     {"crd": "1 4 N S0 S0 2 4 S1 D", "ref": "10 N 12 S0 S0 13 14 S1 D"}),
    # N references, stray stops of two levels, an empty fiber, hits and
    # misses, a second stream after D
    ("scan-locate", {"level": SCAN_RUNS, "target": [0, 3, 4, 7], "dense": 0},
     {"scan": "0 N S0 S1 1 2 S1 S0 2 D 0 D"}),
    # cut behind the 0, the fiber's terminator waits for its late closing
    # stop, and D for it
    ("scan-locate", {"level": [[4], [1, 3]], "target": [1, 4], "dense": 0},
     {"scan": "0 S0 D"}),
    ("reduce", {"flush_level": 1},
     {"crd": "3 1 S0 1 S1 S1 2 2 S0 S2 7 D",
      "val": "1.0 2.0 S0 4.0 S1 S1 1.0 1.0 S0 0.0 S2 0.5 D"}),
    # scanner-fed sides: empty fibers, N references, stray stops
    ("scan-intersect", {"level": SCAN_RUNS, "sides": "ds"},
     {"crd0": "3 4 S0 S1 2 S1 S0 2 5 S1 D", "ref0_0": "10 11 S0 S1 12 S1 S0 13 14 S1 D",
      "scan1": "0 N S0 S0 1 2 S0 D"}),
    ("scan-union", {"level": SCAN_RUNS, "sides": "sd"},
     {"scan0": "0 N S0 S0 1 2 S0 D", "crd1": "3 4 S0 S1 2 S1 S0 2 5 S1 D",
      "ref1_0": "10 11 S0 S1 12 S1 S0 13 14 S1 D"}),
    # a cut after a one-pair fiber's reference makes its stop late, and
    # the other side's keys past that pair wait for it
    ("scan-intersect", {"level": [[4], [1, 3]], "sides": "ds"},
     {"crd0": "4 5 6 7 S0 D", "ref0_0": "10 11 12 13 S0 D", "scan1": "0 D"}),
    # D mid-window: a second stream after it on every input
    ("scan-intersect", {"level": SCAN_RUNS, "sides": "ds"},
     {"crd0": "1 5 S0 2 6 S0 D 3 S0 D", "ref0_0": "10 11 S0 12 13 S0 D 14 S0 D",
      "scan1": "0 2 D 1 D"}),
    # both sides scanned; a three-sided union with two
    ("scan-intersect", {"level": SCAN_RUNS, "sides": "ss"},
     {"scan0": "0 1 S0 D", "scan1": "2 1 S0 D"}),
    ("scan-union", {"level": SCAN_RUNS, "sides": "dss"},
     {"crd0": "2 3 S0 1 S1 4 S0 D", "ref0_0": "10 11 S0 12 S1 13 S0 D",
      "scan1": "0 N S0 2 D", "scan2": "0 N S0 2 D"}),
    # a duplicate on the stream side raises behind the clean fibers
    ("scan-intersect", {"level": SCAN_RUNS, "sides": "ds", "malformed": True},
     {"crd0": "3 3 S0 2 S1 D", "ref0_0": "10 11 S0 12 S1 D", "scan1": "0 2 S0 D"}),
    # an N reference on the stream side is payload, beside scanned runs
    ("scan-union", {"level": SCAN_RUNS, "sides": "sd"},
     {"scan0": "0 2 D", "crd1": "1 2 S0 3 S0 D", "ref1_0": "20 N S0 21 S0 D"}),
    # an unsorted level's runs raise where their keys stop increasing
    ("scan-intersect", {"level": [[5, 1, 3], [2, 0]], "sides": "ds", "malformed": True},
     {"crd0": "1 3 S0 0 S1 D", "ref0_0": "10 11 S0 12 S1 D", "scan1": "0 1 S0 D"}),
    # an empty first fiber, misses between hits, an N coordinate beside a
    # reference and a hit beside an N reference, stops of three levels
    ("locate", {"level": [[0, 3, 5, 9]]},
     {"crd": "S0 0 1 3 S1 N 9 S0 5 7 S2 D", "ref": "S0 20 21 22 S1 23 N S0 24 25 S2 D"}),
    # a fold at a window's end (every boundary cuts in front of the
    # reference S0 the last fiber's S1 folds), a bare reference stop
    # between two folds, an N reference's run
    ("repeat", {}, {"crd": "4 5 S0 6 S1 D", "ref": "7 8 S0 D"}),
    ("repeat", {}, {"crd": "4 S1 S1 5 6 S2 D", "ref": "7 S0 S0 8 S1 D"}),
    ("repeat", {}, {"crd": "4 5 S0 6 S1 D", "ref": "N 7 S0 D"}),
    # the same three for the dropper: a fold at a window's end, a bare
    # outer stop between two folds, an N owner whose fiber survives
    # where the coordinate's is dropped
    ("drop", {"drop_zeros": False}, {"outer": "5 6 S0 D", "inner": "1.0 S0 2.0 S1 D"}),
    ("drop", {"drop_zeros": False},
     {"outer": "5 S0 S0 6 S1 D", "inner": "1.0 S1 S1 2.0 S2 D"}),
    ("drop", {"drop_zeros": True}, {"outer": "N 5 S0 D", "inner": "1.0 S0 0.0 S1 D"}),
]


def every_delivery(streams):
    """Whole, each input cut in two at its middle and prefilled to it, a
    relay on each input, on every input and behind the outputs, three
    slicings."""
    yield Delivery("whole")
    for port, tokens in streams.items():
        yield Delivery("cut", port, len(tokens) // 2, 2)
        yield Delivery("prefill", port, len(tokens) // 2)
        yield Delivery("relay", port)
    yield Delivery("relay", "in")
    yield Delivery("relay", "out")
    for seed in (2, 4, 5):
        yield Delivery("slices", seed=seed)


def every_boundary(streams):
    """Each input cut in two, and prefilled, at every position but its
    middle (:func:`every_delivery` holds that one): a window boundary
    falls between every pair of neighbouring tokens."""
    for port, tokens in streams.items():
        for at in range(1, len(tokens)):
            if at != len(tokens) // 2:
                yield Delivery("cut", port, at, 1)
                yield Delivery("prefill", port, at)


REGRESSION_RUNS = [
    pytest.param(regression, d, id=f"{regression[0]}-{i}-{d.kind}-{d.port or d.seed}")
    for i, regression in enumerate(REGRESSIONS)
    for d in every_delivery({port: toks(text) for port, text in regression[2].items()})
]
#: every regression with a window boundary at each of its positions
BOUNDARY_RUNS = [
    pytest.param(regression, d, id=f"{regression[0]}-{i}-{d.kind}-{d.port}@{d.at}")
    for i, regression in enumerate(REGRESSIONS)
    for d in every_boundary({port: toks(text) for port, text in regression[2].items()})
]


@pytest.mark.parametrize("backend", TIMED)
@pytest.mark.parametrize("regression, delivery", REGRESSION_RUNS + BOUNDARY_RUNS)
def test_regression_streams(regression, delivery, backend):
    row, params, texts, *windows = regression
    streams = {port: toks(text) for port, text in texts.items()}
    check(BY_NAME[row], params, streams, delivery, *windows, engines=(backend,))


#: (row, params, streams as :func:`toks` text, the message its source
#: refuses the float coordinate with, the message ``cycle``'s block
#: raises when it was queued before the run): a float behind misaligned
#: stops, fractional and integral, and a float among a reducer's
#: integers.  A float on a coordinate link the harness prefills reaches
#: the block: the plan hands the run to ``cycle`` (the window engines
#: used to blame the side, raise numpy's error or truncate the float)
FLOAT_COORDINATES = [
    ("intersect", {"malformed": False, "base": 0},
     {"crd0": "0 S0 1 S1 D", "crd1": "0 S1 1.5 S0 D"},
     "feed_crd1: non-integer coordinate 1.5", "merge: misaligned stops [S0, S1]"),
    ("intersect", {"malformed": False, "base": 0},
     {"crd0": "0 S0 1 S0 D", "crd1": "0 S1 1.0 S0 D"},
     "feed_crd1: non-integer coordinate 1.0", "merge: misaligned stops [S0, S1]"),
    ("reduce", {"flush_level": 1}, {"crd": "0 1.5 S0 D", "val": "1.0 2.0 S0 D"},
     "feed_crd: non-integer coordinate 1.5", "red: non-integer coordinate 1.5"),
    ("reduce", {"flush_level": 1}, {"crd": "0 S0 1.0 S1 D", "val": "1.0 S0 2.0 S1 D"},
     "feed_crd: non-integer coordinate 1.0", "red: non-integer coordinate 1.0"),
]
FLOAT_RUNS = [
    pytest.param(row, d,
                 id=f"{row[0]}-{row[3].split()[-1]}-{d.kind}-{d.port or d.seed}@{d.at}")
    for row in FLOAT_COORDINATES
    for streams in [{port: toks(text) for port, text in row[2].items()}]
    for d in list(every_delivery(streams)) + list(every_boundary(streams))
]


@pytest.mark.parametrize("row, delivery", FLOAT_RUNS)
def test_a_float_coordinate_is_one_message(row, delivery):
    """A feeder, a slicer and a relay refuse a float on a coordinate
    stream when the graph is built, naming it; queued on the link before
    the run, it is ``cycle``'s block that names it, or the fault before
    it, on every engine."""
    name, params, texts, entered, queued = row
    streams = {port: toks(text) for port, text in texts.items()}
    port, at = next((port, at) for port, tokens in streams.items()
                    if kind_of(port) == "crd"
                    for at, token in enumerate(tokens) if isinstance(token, float))
    prefilled = (delivery.kind, delivery.port) == ("prefill", port) and delivery.at > at
    for backend in ENGINES:
        with pytest.raises(BlockError) as caught:
            run_blocks(build(BY_NAME[name], params, streams, delivery)[0],
                       backend=backend)
        want = queued if prefilled else entered
        assert str(caught.value) == want, (backend, delivery)


# -- the error runner ----------------------------------------------------------
#: the deliveries a defect is raised under; a relay's and a cut's port
#: index is resolved against the row's ports
ERROR_RUNS = {"whole": Delivery("whole"), "relay-first": Delivery("relay", 0),
              "relay-last": Delivery("relay", -1), "slices": Delivery("slices", seed=1),
              "cut": Delivery("cut", 0)}
ERROR_ROWS = [
    pytest.param(case, i, how, clean, id=f"{case.name}-{row[0]}-{how}-after{clean}")
    for case in CASES + ERROR_ONLY for i, row in enumerate(case.errors.rows)
    for how in ERROR_RUNS for clean in (0, 1, 3)
]


@pytest.mark.parametrize("case, row, how, clean", ERROR_ROWS)
def test_protocol_error_is_one_message(case, row, how, clean):
    params, prefix, rows = case.errors
    message, defect = rows[row]
    delivery = ERROR_RUNS[how]
    streams = {port: toks(" ".join([prefix[port]] * clean + [text]))
               for port, text in defect.items()}
    if delivery.port is not None:
        port = list(streams)[delivery.port]
        delivery = delivery._replace(port=port, at=len(streams[port]) // 2, gap=1)
    for backend in ENGINES:
        with pytest.raises(BlockError) as caught:
            run_blocks(build(case, params, streams, delivery)[0], backend=backend)
        assert str(caught.value) == message, (backend, clean, delivery)


# -- coverage --------------------------------------------------------------------
#: timed blocks whose differential lives elsewhere, by the test file
EXEMPT = {name: path for path, names in {
    "tests/sim/test_fused_units.py": "ArrayLoad ScalarALU ScalarReducer Sink "
    "ValsWriter LevelScanner UncompressedLevelScanner",
    "tests/blocks/test_array_writer.py": "CompressedLevelWriter",
    "tests/sim/test_window_identity.py": "Fanout",
    "tests/sim/test_plane_rule.py": "Parallelizer",
    "tests/sim/test_timed_batch.py": "StreamFeeder",
    "tests/sim/test_backends.py": "RootFeeder",
}.items() for name in names.split()}


def test_every_timed_block_is_a_row_or_exempt(request):
    rows = {cls.__name__ for case in CASES for cls in case.classes}
    root = request.config.rootpath
    for name in repro.blocks.__all__:
        cls = getattr(repro.blocks, name)
        if not (isinstance(cls, type) and issubclass(cls, Block)
                and cls.drain_timed is not None):
            continue
        assert (name in rows) != (name in EXEMPT), name
        if name in EXEMPT:
            assert (root / EXEMPT[name]).is_file(), EXEMPT[name]


# -- counting guards ---------------------------------------------------------------
WHOLE = Delivery("whole")
#: a merger row's parameters for streams that are clean and fit a key
CLEAN = {"malformed": False, "base": 0}


def merger_streams(sides):
    """A merger row's streams from ``[(crd tokens, [ref tokens, ...])]``."""
    streams = {}
    for s, (crd, refs) in enumerate(sides):
        streams[f"crd{s}"] = crd + [DONE]
        streams.update({f"ref{s}_{j}": ref + [DONE] for j, ref in enumerate(refs)})
    return streams


def test_intersect_beyond_two_sides_keeps_its_generator():
    streams = merger_streams([([0, 2, Stop(0)], []), ([2, Stop(0)], []),
                              ([1, 2, Stop(0)], [])])
    assert not build(BY_NAME["intersect"], CLEAN, streams, WHOLE)[2][0].timed_capable()
    check(BY_NAME["intersect"], CLEAN, streams, WHOLE)


#: two- and three-sided shapes (crd, then ref streams, per side as
#: :func:`toks` text): overlapping, disjoint, an empty side, both empty,
#: several fibers, two references a side
MERGE_SHAPES = {
    "overlap": [("0 2 5 S0", ["10 11 12 S0"]), ("2 3 5 S0", ["20 21 22 S0"])],
    "disjoint": [("0 1 S0", ["10 11 S0"]), ("7 9 S0", ["20 21 S0"])],
    "one-side-empty": [("S0", ["S0"]), ("3 4 S0", ["20 21 S0"])],
    "both-empty": [("S0", ["S0"]), ("S0", ["S0"])],
    "fibers": [("0 2 S0 S0 1 5 6 S0", ["0 1 S0 S0 2 3 4 S0"]),
               ("2 3 S0 4 S0 5 S0", ["50 51 S0 52 S0 53 S0"])],
    "two-refs": [("0 2 5 S0", ["10 11 12 S0", "30 31 32 S0"]),
                 ("2 5 7 S0", ["20 21 22 S0", "40 41 42 S0"])],
    "two-refs-empty-side": [("S0", ["S0", "S0"]), ("1 2 S0", ["20 21 S0", "40 41 S0"])],
    "three-way": [("0 1 2 S0", ["10 11 12 S0"]), ("1 2 3 S0", ["20 21 22 S0"]),
                  ("2 3 4 S0", ["30 31 32 S0"])],
}


@pytest.mark.parametrize("shape", MERGE_SHAPES)
@pytest.mark.parametrize("name", ["intersect", "union"])
def test_merge_shapes(name, shape):
    sides = [(toks(crd), [toks(ref) for ref in refs])
             for crd, refs in MERGE_SHAPES[shape]]
    check(BY_NAME[name], CLEAN, merger_streams(sides), WHOLE)


@pytest.mark.parametrize("arity", [3, 4])
def test_union_merges_every_side_at_once(arity, monkeypatch):
    # five fibers, one of them empty on the third side: one m-ary merge a
    # window on each timed engine, never a cascade of 2-ary ones
    shape = [([0, 2, 5], 1), ([2, 3], 2), ([], 0), ([1, 5], 1)][:arity]
    streams = merger_streams([
        ((crds + [Stop(0)]) * 5,
         [(list(range(10 * j, 10 * j + len(crds))) + [Stop(0)]) * 5
          for j in range(nrefs)])
        for crds, nrefs in shape])
    check(BY_NAME["union"], CLEAN, streams, WHOLE)
    merges = merges_of(Union, monkeypatch)
    for backend in TIMED:
        run(BY_NAME["union"], CLEAN, streams, WHOLE, backend)
    assert [len(sides) for sides in merges] == [arity] * len(TIMED)


def test_repeater_runs_unfused():
    # repeaters carry no fuse role: ``compiled`` runs the pair's own hooks
    params, texts = REGRESSIONS[2][1:3]
    streams = {port: toks(text) for port, text in texts.items()}
    report = run_blocks(build(BY_NAME["repeat"], params, streams, WHOLE)[0],
                        backend="compiled")
    assert report.fusion["kinds"] == {} and report.fusion["fallbacks"] == 0


#: (row, outer port, the other input): an intersecter's output is the
#: outer stream; its S0 leaves after it has walked side 0's tail, long
#: after the 7 it matched, and in the same window
LATE_FOLDS = [
    ("drop", "outer", {"inner": "1.0 S1 D"}),
    ("repeat", "ref", {"crd": "0 1 S1 D"}),
]


@pytest.mark.parametrize("row, port, other", LATE_FOLDS, ids=[r[0] for r in LATE_FOLDS])
def test_a_late_folded_stop_gates_its_fold(row, port, other):
    """The outer stop a fiber's closer folds arrives later than the
    closer's cycle, in the closer's window: the dropper's fold event, which
    passes that stop on, waits for it.  No report total shows that cycle
    (every later event waits for a later outer token anyway), so sinks
    log each output token's cycle, on every engine."""
    case = BY_NAME[row]
    params = {"drop_zeros": False} if row == "drop" else {}

    def go(backend):
        blocks, ins = [], {}
        for name, text in other.items():
            ins[name] = Channel(name, kind=kind_of(name))
            blocks += fed(toks(text), ins[name], f"feed_{name}")
        sides = []
        for s, text in enumerate(("7 8 9 10 11 12 S0 D", "7 S0 D")):
            crd, ref = Channel(f"c{s}"), Channel(f"r{s}", kind="ref")
            blocks += fed(toks(text), crd, f"feed_c{s}")
            blocks += fed([10 + i for i in range(len(text.split()) - 2)]
                          + [Stop(0), DONE], ref, f"feed_r{s}")
            sides.append(MergeSide(crd, [ref]))
        crd, refs = Channel("mc"), [Channel("mr0", kind="ref"), Channel("mr1")]
        blocks.append(Intersect(sides, crd, [[refs[0]], [refs[1]]], name="merge"))
        ins[port] = crd if row == "drop" else refs[0]
        sinks = []

        def out(name, kind):
            channel = Channel(name, kind=kind)
            sinks.append(Clocked(channel, f"log_{name}"))
            return channel

        blocks += case.make(params, ins, out) + sinks
        report = run_blocks(blocks, backend=backend)
        return report.cycles, report.block_activity(), [sink.log for sink in sinks]

    want = go(ORACLE)
    for backend in TIMED:
        assert go(backend) == want, backend


#: a row, its parameters, one fiber of four pairs and the output it emits on
OPEN_PAIRS = [
    ("alu", {"op": "mul"}, {"a": "1.0 2.0 3.0 4.0 S0 D", "b": "2.0 2.0 2.0 2.0 S0 D"},
     "out"),
    ("value-drop", {}, {"crd": "0 1 2 3 S0 D", "val": "1.0 2.0 3.0 4.0 S0 D"}, "ov"),
    ("scatter", {"size": SIZE}, {"ref": "0 1 2 3 S0 D", "val": "1.0 2.0 3.0 4.0 S0 D"},
     None),
]


@pytest.mark.parametrize("backend", TIMED)
@pytest.mark.parametrize("row, params, texts, output", OPEN_PAIRS,
                         ids=[row[0] for row in OPEN_PAIRS])
def test_open_pairs_leave_before_their_terminator(row, params, texts, output, backend):
    # fed a token a visit on every input, a same-level block takes each
    # pair in the visit that completes it, not at the fiber's stop
    streams = {port: toks(text) for port, text in texts.items()}
    blocks, _, under = build(BY_NAME[row], params, streams, Delivery("relay", "in"))
    counted(under[0])
    with window_log() as (pushed, _):
        run_blocks(blocks, backend=backend)
    assert len(under[0].advances) >= 4, under[0].advances
    if output is not None:
        assert pushed[output] >= 4, pushed


def asymmetric_sides(arity, relation, long_side, seed):
    """Sides of one window where side *long_side* holds 150 coordinates a
    fiber and every other side at most 3 (Gamma's k-intersect: a row of
    B against all of C's k-level), their keys *related* to the long
    side's: ``identical``, ``inside`` (a subset), ``disjoint`` or
    ``interleaved`` (some of each).  Each side carries one reference
    stream."""
    rng = random.Random(seed)
    sides = [([], [[]]) for _ in range(arity)]
    for f in range(5):
        stop = Stop(rng.randint(0, 1))
        evens = sorted(rng.sample(range(0, 600, 2), 150))
        odds = list(range(1, 600, 2))
        for s, (crd, (ref,)) in enumerate(sides):
            if s == long_side or relation == "identical":
                crds = evens
            else:
                inside = rng.sample(evens, rng.randint(0, 3))
                outside = rng.sample(odds, rng.randint(0, 3))
                crds = sorted({
                    "inside": inside, "disjoint": outside,
                    "interleaved": inside[:2] + outside[:2],
                }[relation])
            crd += crds + [stop]
            ref += [1000 * s + 100 * f + i for i in range(len(crds))] + [stop]
    return merger_streams(sides)


class TestAsymmetricWindows:
    """One side >= 50x longer than the others — the shape whose work
    must follow the short side and the output."""

    @pytest.mark.parametrize("cls, arity, long_side", [
        pytest.param(cls, arity, side, id=f"{cls.__name__}-{arity}-long{side}")
        for cls, arity in ((Intersect, 2), (Union, 2), (Union, 3))
        for side in range(arity)
    ])
    @pytest.mark.parametrize("relation",
                             ["identical", "inside", "disjoint", "interleaved"])
    @pytest.mark.parametrize("delivery", [WHOLE, Delivery("slices", seed=3)],
                             ids=["whole", "sliced"])
    def test_full_report_identity(self, cls, arity, long_side, relation, delivery):
        streams = asymmetric_sides(arity, relation, long_side, seed=arity + long_side)
        want = check(BY_NAME[cls.__name__.lower()], CLEAN, streams, delivery)
        if cls is Intersect:
            # the short side's keys that the long side (all even) holds
            short = streams[f"crd{1 - long_side}"]
            kept = [t for t in short if is_data(t) and t % 2 == 0]
            assert [int(t) for t in want[3][0] if t.isdigit()] == kept


def dirty_fibers(kind=None, at=0):
    """Six fibers of a two-sided window; *kind* plants a dirty chunk in
    fiber *at* of side 0 (see :data:`DIRTY`)."""
    sides = []
    for s, (crds, last) in enumerate((([0, 2, 5], [1]), ([2, 3, 5], [1, 4]))):
        crd, refs = [], [[], []][:2 - s]
        for f in range(6):
            run = list(crds if f < 5 else last)
            stop = Stop(int(f == 5))
            hit = kind is not None and (s, f) == (0, at)
            if hit and kind == "duplicate":
                run = run[:1] + run
            crd += run + [stop]
            for j, ref in enumerate(refs):
                vals = [100 * (1 + j + 4 * s) + 10 * f + i + 0.5
                        for i in range(len(run))]
                if hit and j == 0 and kind == "empty-ref":
                    vals[0] = EMPTY
                if hit and j == 0 and kind == "non-zero-phantom":
                    vals.append(7.5)
                ref += vals + [0.0] * (f % 2) + [stop]
        sides.append((crd, refs))
    return merger_streams(sides)


def merges_of(cls, monkeypatch):
    """Per ``_merge_events`` call, the key count of each side."""
    merges, real = [], cls._merge_events
    monkeypatch.setattr(cls, "_merge_events", lambda self, keys, arrs: merges.append(
        [len(side) for side in keys]) or real(self, keys, arrs))
    return merges


class TestDirtyChunks:
    """A malformed fiber raises on every engine, on the timed ones once
    the clean fibers in front of it are merged; an ``N`` reference is
    payload: ``cycle``'s report from one window merge."""

    @pytest.mark.parametrize("cls", (Intersect, Union))
    @pytest.mark.parametrize("kind", DIRTY)
    @pytest.mark.parametrize("at", [0, 3])
    def test_dirty_fiber(self, cls, kind, at, monkeypatch):
        case, streams = BY_NAME[cls.__name__.lower()], dirty_fibers(kind, at)
        params = {"malformed": kind in MALFORMED, "base": 0}
        want = check(case, params, streams, WHOLE)
        merges = merges_of(cls, monkeypatch)
        assert run(case, params, streams, WHOLE, "timed-batch")[0] == want
        if kind in MALFORMED:
            assert want == ("raises", MALFORMED_MESSAGE)
            # one window merge for the clean prefix, none when there is none
            assert len(merges) == (1 if at else 0)
        else:
            assert len(merges) == 1

    @pytest.mark.parametrize("cls", (Intersect, Union))
    def test_clean_stream_is_one_merge(self, cls, monkeypatch):
        merges = merges_of(cls, monkeypatch)
        run(BY_NAME[cls.__name__.lower()], CLEAN, dirty_fibers(), WHOLE, "timed-batch")
        assert len(merges) == 1


class TestKeyCapacity:
    """Composite keys must fit int64: merger windows that would wrap
    split, and so do the vector reducer's sorts."""

    @staticmethod
    def huge(base, fibers):
        sides = [([], [[]]), ([], [[]])]
        for f in range(fibers):
            for (crd, (ref,)), offsets in zip(sides, ((0, 2, 5), (2, 3))):
                crd += [base + f + k for k in offsets] + [Stop(0)]
                ref += [10 * f + i for i in range(len(offsets))] + [Stop(0)]
        return merger_streams(sides)

    @pytest.mark.parametrize("cls", (Intersect, Union))
    def test_huge_coordinates_many_fibers(self, cls):
        want = check(BY_NAME[cls.__name__.lower()], {"malformed": False, "base": 2**40},
                     self.huge(2**40, 300), WHOLE)
        # the coordinates come back whole, not as key remainders
        assert int(want[3][0][0]) == 2**40 + (2 if cls is Intersect else 0)

    @pytest.mark.parametrize("cls", (Intersect, Union))
    def test_window_splits_instead_of_wrapping(self, cls, monkeypatch):
        base, fibers = 2**61, 10
        assert window_capacity(base + fibers + 5 + 1) == 3
        case, params = BY_NAME[cls.__name__.lower()], {"malformed": False, "base": base}
        streams = self.huge(base, fibers)
        want = run(case, params, streams, WHOLE, ORACLE)[0]
        merges = merges_of(cls, monkeypatch)
        assert run(case, params, streams, WHOLE, "timed-batch")[0] == want
        # side a's keys: 10 fibers of 3 coordinates + stop and the empty
        # chunk D closes, at most 3 chunks a window
        assert [sides[0] for sides in merges] == [12, 12, 12, 5]

    @pytest.mark.parametrize("cls", (Intersect, Union))
    def test_split_windows_are_still_sliced(self, cls):
        # ``one window`` spares a key-split row the advance count only:
        # every delivery must still reach its windows
        base = 2**61
        streams = self.huge(base, 10)
        for delivery in every_delivery(streams):
            check(BY_NAME[cls.__name__.lower()], {"malformed": False, "base": base},
                  streams, delivery)

    def test_largest_coordinate_takes_a_window_a_fiber(self):
        top = merge_module.MAX_COORDINATE
        assert window_capacity(top + 2) == 1
        params = {"malformed": False, "base": top}
        for streams in (merger_streams([([5, top, Stop(0)], []), ([top, Stop(0)], [])]),
                        self.huge(top - 6, 2)):
            for name in ("intersect", "union"):
                check(BY_NAME[name], params, streams, WHOLE)

    @pytest.mark.parametrize("bad", [merge_module.MAX_COORDINATE + 1,
                                     int(np.iinfo(np.int64).max), -1])
    def test_coordinates_out_of_range_raise(self, bad):
        # before and after a clean fiber: its keys stop increasing there
        params = {"malformed": True, "base": 2**62}
        for before in ([], [1, Stop(0)]):
            streams = merger_streams([(before + [5, bad, Stop(0)], []),
                                      (before + [bad, Stop(0)], [])])
            for name in ("intersect", "union"):
                assert check(BY_NAME[name], params, streams, WHOLE) == (
                    "raises", MALFORMED_MESSAGE)

    @pytest.mark.parametrize("regions, pieces", [
        # negative coordinates: one piece, keys offset by the smallest
        ([[-5, -9, -5, -1], [-(2**40), -3, -(2**40)], [-7], []], 1),
        # near I64_MAX with a span past the workspace bound: one piece,
        # only thanks to the offset
        ([[2**63 - 10, 2**63 - 10 - 10**5, 2**63 - 10]] * 10, 1),
        # near I64_MAX with a span of 6: the workspace, no sort
        ([[2**63 - 10, 2**63 - 15, 2**63 - 10]] * 10, 0),
        # span 2**61 + 1 fits three regions a key: ten regions, four pieces
        ([[2**61, 0, 2**61, 5, 0]] * 10, 4),
        # span past I64_MAX: every region sorts alone
        ([[-(2**62), 2**62, -(2**62)], [2**62, 1, 2**62], [-(2**62)]], 3),
    ], ids=["negative", "offset", "workspace", "split", "alone"])
    def test_reducer_splits_by_region(self, regions, pieces):
        crd, val = [], []
        for r, crds in enumerate(regions):
            crd += crds + [Stop(1)]
            val += [(0.1, 1e16, 0.2, -1e16, 0.3)[i] * (r + 1) for i in range(len(crds))]
            val.append(Stop(1))
        streams = {"crd": crd + [DONE], "val": val + [DONE]}
        want = check(BY_NAME["reduce"], {"flush_level": 1}, streams, WHOLE)
        assert [int(t) for t in want[3][0] if t.lstrip("-").isdigit()] == [
            c for crds in regions for c in sorted(set(crds))
        ]
        with numpy_calls("argsort") as sorted_by:
            run(BY_NAME["reduce"], {"flush_level": 1}, streams, WHOLE,
                "timed-batch")
        assert sorted_by.count("repro.blocks.reduce") == pieces

    def test_reducer_sorts_huge_coordinates_without_a_composite_key(self):
        top = 2**63 - 1
        streams = {"crd": [top, -top, 0, top, Stop(1), -top, top, Stop(1), DONE],
                   "val": [1.0, 2.0, 3.0, 4.0, Stop(1), 5.0, 6.0, Stop(1), DONE]}
        want = check(BY_NAME["reduce"], {"flush_level": 1}, streams, WHOLE)
        assert want[3][0] == [str(-top), "0", str(top), "S0", str(-top), str(top),
                              "S0", "D"]


def test_region_spanning_three_windows_flushes_once(monkeypatch):
    # one region in three S0-closed pieces, each its own window
    pieces = [[4, 1, Stop(0)], [1, 9, 4, Stop(0)], [1, Stop(1), DONE]]
    vals = [[0.1, 0.2, Stop(0)], [0.3, 1e16, 0.2, Stop(0)], [-1e16, Stop(1), DONE]]
    streams = {"crd": sum(pieces, []), "val": sum(vals, [])}
    plan = [(len(pieces[0]), 2), (len(pieces[1]), 3)]

    def go(backend):
        blocks, recorded, _ = build(BY_NAME["reduce"], {"flush_level": 1}, streams,
                                    Delivery("slices"))
        for port in streams:  # both inputs in the same three slices
            blocks[list(streams).index(port)].plan = plan
        report = run_blocks(blocks, backend=backend)
        return (report.cycles, report.block_activity(),
                [list(sink.in_.history) for sink in recorded],
                [sink.log for sink in recorded])

    want = go(ORACLE)
    assert want[2][0] == [1, 4, 9, Stop(0), DONE]
    # arrival order per coordinate: (0.2 + 0.3) + -1e16 for 1
    assert want[2][1] == [0.2 + 0.3 + -1e16, 0.1 + 0.2, 1e16, Stop(0), DONE]
    calls = {"window": 0, "sort": 0, "advance": 0}

    def count(key, real):
        def wrapper(*args):
            calls[key] += 1
            return real(*args)
        return wrapper

    monkeypatch.setattr(VectorReducer, "_reduce_window",
                        count("window", VectorReducer._reduce_window))
    monkeypatch.setattr(reduce_module, "_dedup_regions",
                        count("sort", reduce_module._dedup_regions))
    monkeypatch.setattr(VectorReducer, "_t_advance",
                        count("advance", VectorReducer._t_advance))
    assert go("timed-batch") == want
    assert calls == {"window": 3, "sort": 1, "advance": 3}


# -- the merge fold against the argsort merge it replaced -------------------------
def argsort_merge_events(block, keys, arrs):
    """The oracle: every side's union slots from one stable argsort of the
    concatenated sides.  Returns ``(slots, held, cycles)`` — per side its
    keys' slots, per slot how many sides hold it, and its cycle."""
    both = np.concatenate(keys)
    order = np.argsort(both, kind="stable")
    ranked = both[order]
    fresh = np.empty(len(both), dtype=bool)
    fresh[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    starts = np.flatnonzero(fresh)
    held = np.diff(np.append(starts, len(both)))
    slot = np.empty(len(both), dtype=np.int64)
    slot[order] = np.repeat(np.arange(len(held)), held)
    slots, top = [], 0
    for key in keys:
        slots.append(slot[top:top + len(key)])
        top += len(key)
    arrivals = np.zeros(len(held), dtype=np.int64)
    arrivals[0] = max(arr[0] for arr in arrs)
    gate = arrivals[1:]
    longest = sorted(zip(slots, arrs), key=lambda side: -len(side[0]))
    for n, (at, arr) in enumerate(longest):
        at = at[:-1]
        gate[at] = np.maximum(gate[at], arr[1:]) if n else arr[1:]
    return slots, held, block._t_advance(arrivals)


def fresh_merger(cls, arity):
    sides = [MergeSide(Channel(f"c{i}")) for i in range(arity)]
    return cls(sides, Channel("o"), [[] for _ in range(arity)], name="merge")


@st.composite
def key_sets(draw):
    """2-4 strictly increasing key sets that all end at the final stop:
    disjoint, nested, equal, only the stop, or drawn independently."""
    arity = draw(st.integers(2, 4))
    pool = sorted(draw(st.sets(st.integers(0, 60), max_size=25)))
    final = (pool[-1] if pool else 0) + draw(st.integers(1, 5))
    shape = draw(st.sampled_from(["disjoint", "nested", "equal", "stop", "free"]))
    if shape == "disjoint":
        owner = draw(st.lists(st.integers(0, arity - 1), min_size=len(pool),
                              max_size=len(pool)))
        sets = [[k for k, o in zip(pool, owner) if o == s] for s in range(arity)]
    elif shape == "nested":
        sets, keep = [], pool
        for _ in range(arity):
            sets.append(keep)
            keep = [k for k in keep if draw(st.booleans())]
        sets = draw(st.permutations(sets))
    elif shape == "equal":
        sets = [pool] * arity
    else:
        sets = [[k for k in pool if draw(st.booleans())] for _ in range(arity)]
        if shape == "stop":  # some side carries only the final stop
            sets[draw(st.integers(0, arity - 1))] = []
    keys = [np.array(s + [final], dtype=np.int64) for s in sets]
    arrs = [np.sort(np.array(draw(st.lists(st.integers(0, 40), min_size=len(k),
                                            max_size=len(k))), dtype=np.int64))
            for k in keys]
    clock = draw(st.integers(1, 30))
    return keys, arrs, clock


class TestMergeFold:
    """``_merge_events`` folds the sides by search; the argsort merge it
    replaced, kept above, must agree on every slot, holder count, cycle
    and counter — and on the slots a two-sided intersecter emits."""

    @given(case=key_sets())
    def test_matches_the_argsort_merge(self, case):
        keys, arrs, clock = case
        cls = Intersect if len(keys) == 2 else Union
        got_block, want_block = (fresh_merger(cls, len(keys)) for _ in range(2))
        for block in (got_block, want_block):
            block._tclock = clock
        slots, common, cycles = got_block._merge_events(keys, arrs)
        want_slots, held, want_cycles = argsort_merge_events(want_block, keys, arrs)
        assert [s.tolist() for s in slots] == [s.tolist() for s in want_slots]
        holders = np.bincount(np.concatenate(slots), minlength=len(cycles))
        assert holders.tolist() == held.tolist()
        assert cycles.tolist() == want_cycles.tolist()
        got, want = ((b.busy_cycles, b.stall_cycles, b._tclock)
                     for b in (got_block, want_block))
        assert got == want
        if cls is Intersect:
            tokens, picks = got_block._select(slots, common, cycles)
            shared = [np.flatnonzero(held[side] == 2) for side in want_slots]
            assert tokens.tolist() == want_slots[0][shared[0]].tolist()
            for (at, where), want_at in zip(picks, shared):
                assert at.tolist() == want_at.tolist()
                assert where.tolist() == list(range(len(tokens)))

    def test_search_not_sort(self):
        # the shorter side is searched in the longer: one needle array of
        # its length, whichever side it is
        keys = [np.array([3, 9, 20], dtype=np.int64),
                np.array([1, 2, 3, 5, 8, 9, 13, 20], dtype=np.int64)]
        arrs = [np.zeros(3, dtype=np.int64), np.zeros(8, dtype=np.int64)]
        for side_keys, side_arrs in ((keys, arrs), (keys[::-1], arrs[::-1])):
            sizes = []
            real = np.searchsorted

            def searched(a, v, *args, **kwargs):
                sizes.append((len(a), len(v)))
                return real(a, v, *args, **kwargs)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(merge_module.np, "searchsorted", searched)
                patch.setattr(merge_module.np, "argsort", None)
                fresh_merger(Intersect, 2)._merge_events(side_keys, side_arrs)
            assert sizes == [(8, 3)]
