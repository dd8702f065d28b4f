"""Window-at-a-time timed mergers against the cycle oracle.

``Intersect``/``Union.drain_timed`` merge a whole window of fiber pairs
as one fiber over composite keys.  Everything here is differential:
random two-sided fiber structures, delivered whole or in random slices,
must give the cycle engine's cycles, block activity, token counts and
recorded outputs under ``timed-batch`` and ``compiled`` — including the
chunks the window must refuse (dirty) wherever they fall in it.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.blocks import Block, BlockError, Intersect, MergeSide, StreamFeeder, Union
from repro.blocks import merge as merge_module
from repro.kernels.spmm import spmm_program
from repro.lang import compile_expression
from repro.sim import graph_token_counts, run_blocks
from repro.streams import Channel, DONE, EMPTY, Stop
from repro.streams.timing import window_capacity
from repro.streams.token import is_data

from test_repeat import TIMED, Relay, Slicer, window_log

MERGERS = (Intersect, Union)


def build(cls, sides, rng=None, relayed=()):
    """``(blocks, recorded outputs)`` of one merger fed by *sides*.

    *sides* is ``[(crd tokens, [ref tokens, ...]), ...]``.  With *rng*
    every stream is delivered in random slices by a :class:`Slicer`,
    otherwise whole by a ``StreamFeeder`` — through a scalar ``Relay``
    (one token a cycle) for the sides listed in *relayed*.
    """
    blocks, merge_sides, out_groups, outs = [], [], [], []

    def source(tokens, channel, name, side):
        if rng is not None:
            plan = [(rng.randint(1, 5), rng.randint(0, 3)) for _ in range(len(tokens) // 3)]
            blocks.append(Slicer(tokens, plan, channel, name))
        elif side in relayed:
            raw = Channel(f"{name}_raw", kind=channel.kind)
            blocks.append(StreamFeeder(tokens, raw, name=name))
            blocks.append(Relay(raw, channel, f"{name}_relay"))
        else:
            blocks.append(StreamFeeder(tokens, channel, name=name))

    for i, (crd_tokens, ref_streams) in enumerate(sides):
        crd = Channel(f"crd{i}")
        source(crd_tokens, crd, f"fc{i}", i)
        refs, group = [], []
        for j, tokens in enumerate(ref_streams):
            ref = Channel(f"ref{i}_{j}", kind="ref")
            source(tokens, ref, f"fr{i}_{j}", i)
            refs.append(ref)
            group.append(Channel(f"oref{i}_{j}", kind="ref", record=True))
        merge_sides.append(MergeSide(crd, refs))
        out_groups.append(group)
        outs.extend(group)
    out_crd = Channel("ocrd", record=True)
    blocks.append(cls(merge_sides, out_crd, out_groups, name="merge"))
    return blocks, [out_crd] + outs


def run(cls, sides, backend, slicing_seed=None, relayed=()):
    """Everything a backend may not change, for one run."""
    rng = None if slicing_seed is None else random.Random(slicing_seed)
    blocks, outs = build(cls, sides, rng, relayed)
    with window_log() as (noted, taken):
        report = run_blocks(blocks, backend=backend)
    if not any(DONE in s[:-1] for crd, refs in sides for s in [crd] + refs):
        # A merger may leave the timed plane on a dirty chunk, so the
        # engines keep it current every cycle: each cycle's pushes are a
        # window of their own (nothing follows the D that ends it here).
        assert all(taken[name] >= noted[name] for name in noted), (noted, taken)
    return (
        report.cycles,
        report.block_activity(),
        graph_token_counts(blocks),
        [list(ch.history) for ch in outs],
    )


def assert_matches_cycle(cls, sides, slicing_seed=None, timing=True, relayed=()):
    """Full report identity, or just tokens and outputs (``timing=False``)."""
    want = run(cls, sides, "cycle", slicing_seed, relayed)
    for backend in TIMED:
        got = run(cls, sides, backend, slicing_seed, relayed)
        assert got[2:] == want[2:], backend
        if timing:
            assert got[:2] == want[:2], backend
    return want


# -- random two-sided fiber structures ----------------------------------------
crd_sets = st.sets(st.integers(0, 9), max_size=5).map(sorted)
#: fiber pair: side-a coordinates, side-b coordinates, closing stop level
fiber_pairs = st.tuples(crd_sets, crd_sets, st.integers(0, 2))
structures = st.fixed_dictionaries({
    "fibers": st.lists(fiber_pairs, min_size=1, max_size=8),
    "empty_side": st.sampled_from([None, None, 0, 1]),
    "nrefs": st.tuples(st.integers(0, 3), st.integers(0, 3)),
    #: trailing phantom zeros per (side, ref, fiber) are drawn from this
    "phantoms": st.randoms(use_true_random=False),
    "tail": st.booleans(),
    "dirty": st.one_of(
        st.none(),
        st.tuples(
            st.sampled_from(["empty-ref", "non-zero-phantom", "duplicate"]),
            st.integers(0, 7),
            st.integers(0, 1),
        ),
    ),
})


def streams(shape, value_refs=False):
    """The two sides' token streams of one drawn structure.

    Reference streams carry distinct values (floats when *value_refs*,
    the post-compute-union shape that trails phantom zeros).  A dirty
    spec ``(kind, fiber, side)`` plants, in that fiber of that side: an
    ``N`` in place of a reference, a non-zero value trailing the
    references, or a repeated coordinate.
    """
    fibers = shape["fibers"]
    rnd = shape["phantoms"]
    dirty = shape["dirty"]
    if dirty is not None:
        kind, at, on = dirty
        at %= len(fibers)
        if shape["nrefs"][on] == 0:
            kind = "duplicate"  # nothing but coordinates to corrupt
    sides = []
    for s in range(2):
        crd, refs = [], [[] for _ in range(shape["nrefs"][s])]
        for f, pair in enumerate(fibers):
            crds = [] if shape["empty_side"] == s else list(pair[s])
            hit = dirty is not None and (at, on) == (f, s)
            if hit and kind == "duplicate":
                crds = crds[:1] * 2 + crds[1:] if crds else [4, 4]
            stop = Stop(pair[2])
            crd += crds + [stop]
            for j, ref in enumerate(refs):
                base = 100 * (1 + j + 4 * s) + 10 * f
                run = [base + i + (0.5 if value_refs else 0) for i in range(len(crds))]
                if hit and kind == "empty-ref" and j == 0:
                    run = [EMPTY] + run[1:] if run else run
                if value_refs:
                    run += [0.0] * rnd.randint(0, 2)
                if hit and kind == "non-zero-phantom" and j == 0:
                    run.append(7.5)
                ref += run + [stop]
        for stream in [crd] + refs:
            stream.append(DONE)
            if shape["tail"]:
                stream += [3, Stop(0), DONE]
        sides.append((crd, refs))
    return sides


class TestWindowDifferential:
    """Whole-stream windows (K = every fiber) and sliced ones (ragged K,
    stalls mid-fiber) reproduce the cycle engine bit for bit.

    One combination is checked for tokens and outputs only: a dirty
    chunk behind a *scalar* producer.  Leaving the timed plane is
    cycle-exact when the window's stamps lie ahead of the engine clock
    (timed producers); a merger that waited several cycles for a fiber's
    terminator before finding the fiber dirty hands its generator a
    backlog the cycle engine's generator consumed as it arrived.
    """

    @pytest.mark.parametrize("cls", MERGERS)
    @settings(max_examples=60, deadline=None)
    @given(shape=structures, value_refs=st.booleans())
    def test_whole_windows(self, cls, shape, value_refs):
        assert_matches_cycle(cls, streams(shape, value_refs))

    @pytest.mark.parametrize("cls", MERGERS)
    @settings(max_examples=60, deadline=None)
    @given(shape=structures, value_refs=st.booleans(), seed=st.integers(0, 2**16))
    def test_sliced_windows(self, cls, shape, value_refs, seed):
        assert_matches_cycle(
            cls, streams(shape, value_refs), slicing_seed=seed,
            timing=shape["dirty"] is None,
        )


# -- m-ary unions --------------------------------------------------------------
@st.composite
def mary_structures(draw):
    m = draw(st.integers(2, 4))
    fiber = st.tuples(st.tuples(*[crd_sets] * m), st.integers(0, 2))
    return {
        "fibers": draw(st.lists(fiber, min_size=1, max_size=7)),
        "nrefs": draw(st.tuples(*[st.integers(0, 2)] * m)),
        "empty_side": draw(st.sampled_from([None, None] + list(range(m)))),
        #: (fiber, side) whose first reference arrives as ``N``
        "n_ref": draw(st.one_of(st.none(), st.tuples(st.integers(0, 6), st.integers(0, m - 1)))),
        #: 2**61 leaves ``window_capacity`` at 3 fibers a merge
        "base": draw(st.sampled_from([0, 0, 2**40, 2**61])),
        "relayed": draw(st.sets(st.integers(0, m - 1))),
        "tail": draw(st.booleans()),
    }


def mary_streams(shape):
    """One ``(crd, refs)`` token-stream pair per side of a drawn structure."""
    sides = []
    for s, nrefs in enumerate(shape["nrefs"]):
        crd, refs = [], [[] for _ in range(nrefs)]
        for f, (crd_sets, level) in enumerate(shape["fibers"]):
            crds = [] if shape["empty_side"] == s else [shape["base"] + c for c in crd_sets[s]]
            crd += crds + [Stop(level)]
            for j, ref in enumerate(refs):
                run = [100 * (1 + j + 4 * s) + 10 * f + i for i in range(len(crds))]
                if shape["n_ref"] == (f, s) and j == 0 and run:
                    run[0] = EMPTY
                ref += run + [Stop(level)]
        for stream in [crd] + refs:
            stream.append(DONE)
            if shape["tail"]:
                stream += [3, Stop(0), DONE]
        sides.append((crd, refs))
    return sides


class TestMaryUnion:
    """``Union`` windows at arity 2-4: ragged and empty fibers, sides
    arriving whole or a token a cycle through a scalar ``Relay``, huge
    coordinates that split the window — full report against ``cycle``.
    An ``N`` reference is a dirty chunk: exact when every side arrives
    whole, tokens and outputs only behind a scalar producer (see
    :class:`TestWindowDifferential`)."""

    @settings(max_examples=120, deadline=None)
    @given(shape=mary_structures())
    def test_full_report_identity(self, shape):
        assert_matches_cycle(
            Union, mary_streams(shape), relayed=shape["relayed"],
            timing=shape["n_ref"] is None or not shape["relayed"],
        )

    @pytest.mark.parametrize("arity", [3, 4])
    def test_one_merge_and_one_advance_per_window(self, arity, monkeypatch):
        merges, advances = [], []
        real_merge, real_advance = Union._merge_events, Union._t_advance
        monkeypatch.setattr(
            Union, "_merge_events",
            lambda self, keys, arrs: merges.append(len(keys)) or real_merge(self, keys, arrs),
        )
        monkeypatch.setattr(
            Union, "_t_advance",
            lambda self, arrivals: advances.append(1) or real_advance(self, arrivals),
        )
        shape = {
            "fibers": [(([0, 2, 5], [2, 3], [], [1, 5])[:arity], 0)] * 5,
            "nrefs": (1, 2, 0, 1)[:arity], "empty_side": None, "n_ref": None,
            "base": 0, "relayed": (), "tail": False,
        }
        assert_matches_cycle(Union, mary_streams(shape))
        # one m-ary merge per timed engine, never a cascade of 2-ary ones
        assert merges == [arity] * len(TIMED) and len(advances) == len(TIMED)

    @pytest.mark.parametrize("backend", ("cycle",) + TIMED)
    def test_mismatched_stops_raise_naming_every_side(self, backend):
        sides = [
            ([0, Stop(0), DONE], []), ([1, Stop(0), DONE], []), ([1, Stop(1), DONE], []),
        ]
        with pytest.raises(BlockError, match=r"misaligned stops \[S0, S0, S1\]"):
            run(Union, sides, backend)

    def test_intersect_beyond_two_sides_keeps_its_generator(self):
        sides = [([0, 2, Stop(0), DONE], []), ([2, Stop(0), DONE], []), ([1, 2, Stop(0), DONE], [])]
        blocks, _ = build(Intersect, sides)
        assert not blocks[-1].timed_capable()
        assert_matches_cycle(Intersect, sides)


# -- asymmetric windows ---------------------------------------------------------
def asymmetric_sides(arity, relation, long_side, seed):
    """Sides of one window where side *long_side* holds 150 coordinates a
    fiber and every other side at most 3 (Gamma's k-intersect: a row of
    B against all of C's k-level), their keys *related* to the long
    side's as drawn: ``identical`` (every side the long one), ``inside``
    (a subset), ``disjoint`` or ``interleaved`` (some of each).  Each
    side carries one reference stream."""
    rng = random.Random(seed)
    sides = [([], []) for _ in range(arity)]
    for f in range(5):
        stop = Stop(rng.randint(0, 1))
        evens = sorted(rng.sample(range(0, 600, 2), 150))
        odds = list(range(1, 600, 2))
        for s, (crd, ref) in enumerate(sides):
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
    return [(crd + [DONE], [ref + [DONE]]) for crd, ref in sides]


ASYMMETRIC = [
    pytest.param(cls, arity, long_side, id=f"{cls.__name__}-{arity}-long{long_side}")
    for cls, arity in ((Intersect, 2), (Union, 2), (Union, 3))
    for long_side in range(arity)
]


class TestAsymmetricWindows:
    """One side >= 50x longer than the others — the shape whose work
    must follow the short side and the output — with keys identical,
    inside, disjoint or interleaved: full report against ``cycle`` on
    the timed engines, tokens and outputs on ``functional`` (it
    reports no cycles)."""

    @pytest.mark.parametrize("cls, arity, long_side", ASYMMETRIC)
    @pytest.mark.parametrize(
        "relation", ["identical", "inside", "disjoint", "interleaved"]
    )
    @pytest.mark.parametrize("slicing_seed", [None, 3])
    def test_full_report_identity(self, cls, arity, long_side, relation, slicing_seed):
        sides = asymmetric_sides(arity, relation, long_side, seed=arity + long_side)
        want = assert_matches_cycle(cls, sides, slicing_seed)
        got = run(cls, sides, "functional", slicing_seed)
        assert got[2:] == want[2:]
        if cls is Intersect:
            # the short side's keys that the long side (all even) holds
            short = sides[1 - long_side][0]
            kept = [t for t in short if is_data(t) and t % 2 == 0]
            assert [t for t in want[3][0] if is_data(t)] == kept


def _fibers(n, dirty=None):
    shape = {
        "fibers": [([0, 2, 5], [2, 3, 5], 0)] * (n - 1) + [([1], [1, 4], 1)],
        "empty_side": None, "nrefs": (2, 1), "tail": False, "dirty": dirty,
        "phantoms": random.Random(0),
    }
    return streams(shape, value_refs=True)


class TestDirtyChunks:
    """A dirty chunk leaves the timed plane — after the clean prefix when
    it is not the window's first fiber — and never changes a report."""

    @pytest.mark.parametrize("cls", MERGERS)
    @pytest.mark.parametrize("kind", ["empty-ref", "non-zero-phantom", "duplicate"])
    @pytest.mark.parametrize("at", [0, 3])
    def test_bails_at_the_dirty_fiber(self, cls, kind, at, monkeypatch):
        merged, bails = [], []
        real_merge, real_bail = cls._merge_events, cls._bail_timed

        def merge_events(self, *keys_and_stamps):
            merged.append(self.name)
            return real_merge(self, *keys_and_stamps)

        def bail(self):
            bails.append(self.name)
            return real_bail(self)

        sides = _fibers(6, dirty=(kind, at, 0))
        want = assert_matches_cycle(cls, sides)
        monkeypatch.setattr(cls, "_merge_events", merge_events)
        monkeypatch.setattr(cls, "_bail_timed", bail)
        assert run(cls, sides, "timed-batch") == want
        assert bails == ["merge"]
        # one window merge for the clean prefix, none when there is none
        assert len(merged) == (1 if at else 0)

    @pytest.mark.parametrize("cls", MERGERS)
    def test_clean_stream_is_one_merge(self, cls, monkeypatch):
        calls = []
        real = cls._merge_events
        monkeypatch.setattr(
            cls, "_merge_events",
            lambda self, *a: calls.append(1) or real(self, *a),
        )
        sides = _fibers(6)
        run(cls, sides, "timed-batch")
        assert calls == [1]

    @pytest.mark.parametrize("cls", MERGERS)
    @pytest.mark.parametrize("backend", ("cycle",) + TIMED)
    def test_mismatched_stops_raise(self, cls, backend):
        sides = [
            ([0, Stop(0), 1, Stop(0), DONE], []),
            ([0, Stop(0), 1, Stop(1), DONE], []),
        ]
        with pytest.raises(BlockError, match="misaligned stops"):
            run(cls, sides, backend)


class TestKeyCapacity:
    """Composite keys must fit int64: windows that would wrap split."""

    def _huge(self, base, fibers):
        crd_a, crd_b, ref_a, ref_b = [], [], [], []
        for f in range(fibers):
            a = [base + f, base + f + 2, base + f + 5]
            b = [base + f + 2, base + f + 3]
            crd_a += a + [Stop(0)]
            crd_b += b + [Stop(0)]
            ref_a += [10 * f + i for i in range(3)] + [Stop(0)]
            ref_b += [10 * f + i for i in range(2)] + [Stop(0)]
        return [(crd_a + [DONE], [ref_a + [DONE]]), (crd_b + [DONE], [ref_b + [DONE]])]

    @pytest.mark.parametrize("cls", MERGERS)
    def test_huge_coordinates_many_fibers(self, cls):
        want = assert_matches_cycle(cls, self._huge(2**40, 300))
        # the coordinates come back whole, not as key remainders
        assert want[3][0][0] == 2**40 + (2 if cls is Intersect else 0)

    @pytest.mark.parametrize("cls", MERGERS)
    def test_window_splits_instead_of_wrapping(self, cls, monkeypatch):
        base, fibers = 2**61, 10
        capacity = window_capacity(base + fibers + 5 + 1)
        assert capacity == 3
        sides = self._huge(base, fibers)
        want = run(cls, sides, "cycle")
        windows = []
        real = cls._merge_events
        monkeypatch.setattr(
            cls, "_merge_events",
            lambda self, keys, arrs: windows.append(len(keys[0])) or real(self, keys, arrs),
        )
        assert run(cls, sides, "timed-batch") == want
        # side a's keys: 10 fibers of 3 coordinates + stop and the empty
        # chunk D closes, at most 3 chunks a window
        assert windows == [12, 12, 12, 5]

    def test_capacity_zero_goes_scalar(self):
        top = int(np.iinfo(np.int64).max) - 1
        sides = [([5, top, Stop(0), DONE], []), ([top, Stop(0), DONE], [])]
        assert window_capacity(top + 2) == 0
        for cls in MERGERS:
            assert_matches_cycle(cls, sides)


class TestOneAdvancePerWindow:
    """Wall-clock-free perf guard: a merger's epoch advances never
    outnumber its visits, so per-fiber stepping cannot come back."""

    def _count(self, monkeypatch, run_it):
        visits, advances = {}, {}
        real_drain = merge_module._Merger.drain_timed
        real_advance = Block._t_advance

        def drain(self):
            visits[self.name] = visits.get(self.name, 0) + 1
            return real_drain(self)

        def advance(self, arrivals):
            advances[self.name] = advances.get(self.name, 0) + 1
            return real_advance(self, arrivals)

        monkeypatch.setattr(merge_module._Merger, "drain_timed", drain)
        monkeypatch.setattr(merge_module._Merger, "_t_advance", advance)
        for backend in TIMED:
            visits.clear()
            advances.clear()
            run_it(backend)
            assert advances, backend
            for name, count in advances.items():
                assert count <= visits[name], (backend, name, count, visits[name])

    def test_spmm_ijk_40x40_d8(self, monkeypatch):
        from repro.data.synthetic import random_sparse_matrix

        B = np.asarray(random_sparse_matrix(40, 40, 0.08, seed=42), float)
        C = np.asarray(random_sparse_matrix(40, 40, 0.08, seed=43), float)
        prog = spmm_program("ijk")
        # ~1600 (i, j) fiber pairs reach the k-level intersecter
        self._count(
            monkeypatch, lambda backend: prog.run({"B": B, "C": C}, backend=backend)
        )

    def test_table1_union(self, monkeypatch):
        rng = np.random.default_rng(5)
        operands = {
            name: rng.random((9, 11)) * (rng.random((9, 11)) < 0.45)
            for name in "BC"
        }
        prog = compile_expression("X(i,j) = B(i,j) + C(i,j)")
        self._count(
            monkeypatch, lambda backend: prog.run(operands, backend=backend)
        )


# -- the merge fold against the argsort merge it replaced -------------------


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

    @settings(max_examples=300, deadline=None)
    @given(case=key_sets())
    def test_matches_the_argsort_merge(self, case):
        keys, arrs, clock = case
        cls = Intersect if len(keys) == 2 else Union
        got_block, want_block = fresh_merger(cls, len(keys)), fresh_merger(cls, len(keys))
        for block in (got_block, want_block):
            block._tclock = clock
        slots, common, cycles = got_block._merge_events(keys, arrs)
        want_slots, held, want_cycles = argsort_merge_events(want_block, keys, arrs)
        assert [s.tolist() for s in slots] == [s.tolist() for s in want_slots]
        holders = np.bincount(np.concatenate(slots), minlength=len(cycles))
        assert holders.tolist() == held.tolist()
        assert cycles.tolist() == want_cycles.tolist()
        assert ((got_block.busy_cycles, got_block.stall_cycles, got_block._tclock)
                == (want_block.busy_cycles, want_block.stall_cycles, want_block._tclock))
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
