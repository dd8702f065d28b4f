"""Pure-Python kernel sources for the JIT tier.

Every function here is written in the loop-and-scalar subset that numba's
``nopython`` mode compiles directly: no Python objects, no fancy
indexing, explicit ``np.empty`` allocations, IEEE-strict float64
arithmetic (no fastmath).  :mod:`repro.jit.dispatch` wraps them with
``@njit(cache=True)`` when numba is importable; under ``REPRO_JIT=py``
they run as-is, which is how the differential tests exercise the kernel
logic on machines without numba.

Each kernel is a drop-in replacement for an existing numpy/Python hot
path and must be **bit-identical** to it:

* :func:`rate1_schedule_k` / :func:`compose_rate1_k` — the max-plus
  epoch recurrence ``c[k] = max(c[k-1] + ii, arrival[k])`` is integer
  arithmetic, so the loop form equals the ``np.maximum.accumulate``
  form exactly (and the composed kernel equals chaining the per-stage
  passes, the same identity :func:`repro.streams.timing.compose_rate1`
  relies on).
* :func:`segment_sums_k` — left-to-right float64 additions starting
  from ``0.0``, the exact rounding order of ``sum(values[a:b], 0.0)``;
  numba without fastmath preserves IEEE ordering, so results match the
  Python reference bit for bit (numpy's pairwise ``np.sum`` would not).
* :func:`scan_sched_k` — the scan-locate event-form advance: a running
  max replaces ``np.maximum.accumulate`` over ``val - pos*ii`` and the
  ``np.repeat`` + ramp schedule is emitted in the same pass.
* :func:`merge_events_k` — the two-finger coiteration behind
  ``_Merger._merge_events`` (called once per window, on int64
  composite keys): union coordinates, searchsorted-left positions,
  presence masks, and successor-gated arrivals in one pass instead of
  a sorted union + two ``searchsorted`` + cumsum gathers.
* :func:`repsig_ends_k` — the repeater's window expansion
  (``ends_all``/``nonclose``) as one counting pass instead of two
  ``np.flatnonzero`` scans.
"""

from __future__ import annotations

import numpy as np


def rate1_schedule_k(arrivals, clock, ii):
    """Busy cycles of a rate-``ii`` event run gated by *arrivals*.

    ``c[k] = max(c[k-1] + ii, arrivals[k])`` with ``c[-1] + ii = clock``
    — the direct recurrence form of
    :func:`repro.streams.timing.rate1_schedule`.
    """
    n = arrivals.shape[0]
    out = np.empty(n, dtype=np.int64)
    prev = clock - ii
    for k in range(n):
        c = prev + ii
        a = arrivals[k]
        if a > c:
            c = a
        out[k] = c
        prev = c
    return out


def compose_rate1_k(arrivals, clocks, iis, deltas):
    """Composed rate-1 schedules of a linear stage chain, one 2-D pass.

    Row ``j`` of the result is stage ``j``'s busy schedule: stage 0 is
    gated by ``arrivals + deltas[0]``, stage ``j`` by its predecessor's
    schedule shifted by ``deltas[j]``.  Equals running
    :func:`rate1_schedule_k` per stage back to back — which is the
    contract :func:`repro.streams.timing.compose_rate1` documents.
    """
    s = clocks.shape[0]
    n = arrivals.shape[0]
    out = np.empty((s, n), dtype=np.int64)
    for j in range(s):
        ii = iis[j]
        delta = deltas[j]
        prev = clocks[j] - ii
        for k in range(n):
            if j == 0:
                a = arrivals[k] + delta
            else:
                a = out[j - 1, k] + delta
            c = prev + ii
            if a > c:
                c = a
            out[j, k] = c
            prev = c
    return out


def segment_sums_k(data, starts, lens):
    """Per-segment left-to-right float64 sums starting from ``0.0``.

    Bit-identical to ``sum(values[start:start+length], 0.0)``: the same
    additions in the same order on the same IEEE doubles.
    """
    n = starts.shape[0]
    out = np.empty(n, dtype=np.float64)
    for i in range(n):
        acc = 0.0
        s = starts[i]
        m = lens[i]
        for j in range(m):
            acc = acc + data[s + j]
        out[i] = acc
    return out


def scan_sched_k(pos, val, total, ii, scan_clock, delta, loc_clock):
    """Scan-locate event-form advance: the locator schedule plus the
    scanner's final offset.

    Arrival constraints exist only at the event positions ``pos`` (fiber
    starts and stops) with stamps ``val``; between them both members run
    free at rate ``ii``.  ``run`` is the running max of
    ``val[j] - pos[j]*ii`` clipped at *scan_clock* (exactly
    ``np.maximum(np.maximum.accumulate(val - pos*ii), scan_clock)``);
    the locator schedule for event ``k`` in span ``j`` is
    ``max(run_j + delta, loc_clock) + k*ii`` — the ``np.repeat`` + ramp
    construction of the sparse composed advance, fused into one pass.
    Returns ``(sched, offs_last)``; the caller applies both members'
    busy/stall bookkeeping from ``offs_last`` and ``sched``.
    """
    m = pos.shape[0]
    sched = np.empty(total, dtype=np.int64)
    run = scan_clock
    for j in range(m):
        o = val[j] - pos[j] * ii
        if o > run:
            run = o
        ol = run + delta
        if ol < loc_clock:
            ol = loc_clock
        if j + 1 < m:
            stop = pos[j + 1]
        else:
            stop = total
        for k in range(pos[j], stop):
            sched[k] = ol + k * ii
    return sched, run


def merge_events_k(crds_a, crds_b, arr_a, arr_b, close_a, close_b):
    """Two-finger fiber-pair coiteration (``_Merger._merge_events``).

    Emits one event per distinct coordinate of the two sorted fibers.
    For each event: the union value, per-side presence, and each side's
    searchsorted-left position; ``arrivals[k+1]`` is gated by the
    successor stamp of whatever event ``k`` consumed (``close_*`` after
    the last element), ``arrivals[0]`` by the heads.  Matches the
    ``np.union1d`` + ``searchsorted`` + cumsum-gather reference bit for
    bit, including within-side duplicate runs (one consumed element per
    present event, scan fingers skipping the run).
    """
    na = crds_a.shape[0]
    nb = crds_b.shape[0]
    cap = na + nb
    values = np.empty(cap, crds_a.dtype)
    present_a = np.empty(cap, np.bool_)
    present_b = np.empty(cap, np.bool_)
    ia = np.empty(cap, np.int64)
    ib = np.empty(cap, np.int64)
    arrivals = np.empty(cap + 1, np.int64)
    head_a = arr_a[0] if na > 0 else close_a
    head_b = arr_b[0] if nb > 0 else close_b
    arrivals[0] = head_a if head_a > head_b else head_b
    qa = 0
    qb = 0
    ca = 0
    cb = 0
    k = 0
    while qa < na or qb < nb:
        if qb >= nb:
            v = crds_a[qa]
        elif qa >= na:
            v = crds_b[qb]
        elif crds_a[qa] <= crds_b[qb]:
            v = crds_a[qa]
        else:
            v = crds_b[qb]
        pa = qa < na and crds_a[qa] == v
        pb = qb < nb and crds_b[qb] == v
        values[k] = v
        present_a[k] = pa
        present_b[k] = pb
        ia[k] = qa
        ib[k] = qb
        ga = 0
        gb = 0
        if pa:
            ca += 1
            qa += 1
            while qa < na and crds_a[qa] == v:
                qa += 1
            ga = arr_a[ca] if ca < na else close_a
        if pb:
            cb += 1
            qb += 1
            while qb < nb and crds_b[qb] == v:
                qb += 1
            gb = arr_b[cb] if cb < nb else close_b
        arrivals[k + 1] = ga if ga > gb else gb
        k += 1
    return (
        values[:k], present_a[:k], present_b[:k],
        ia[:k], ib[:k], arrivals[:k + 1],
    )


def repsig_ends_k(codes, code_repeat):
    """Repeater window expansion: fiber-end positions in one pass.

    ``ends`` are the indices of non-``R`` control codes (fiber
    boundaries); ``nonclose`` indexes *into ends* at the codes that are
    not plain ``S0`` — the two ``np.flatnonzero`` scans of
    ``Repeater.drain_timed`` in one counting pass.
    """
    n = codes.shape[0]
    ends = np.empty(n, dtype=np.int64)
    noncl = np.empty(n, dtype=np.int64)
    ne = 0
    nn = 0
    for i in range(n):
        c = codes[i]
        if c != code_repeat:
            ends[ne] = i
            if c != 0:
                noncl[nn] = ne
                nn += 1
            ne += 1
    return ends[:ne], noncl[:nn]
