"""Allocation-free fused slot kernels for the vectorized engine.

The :class:`repro.sim.telemetry.PhaseProfiler` breakdown of the previous
vectorized engine put >90% of a saturated Fig 2f run in two per-slot
loops — cell injection (lane-deque appends, ``np.add.at`` counter
scatters, ``paths.tolist()`` route materialization) and the sequential
per-circuit VOQ drain.  This module replaces both with fused array
kernels over :class:`repro.sim.network.LinkedVoqState`:

- :func:`append_cells` enqueues a whole batch with one sort of unique
  composite keys (the (pair, lane) key with the input position in its
  low bits, so a plain sort is the stable grouping permutation): cells
  are grouped by (VOQ pair, lane), linked intra-group through the
  shared ``nxt`` array, and spliced onto the per-group tails — FIFO
  order within every strict-priority lane is the input (circuit-major)
  order, exactly what the reference engine's per-cell appends produce.
  The per-pair ``qlen`` update indexes *unique* pairs (a by-product of
  the grouping sort), so it is a plain fancy-index add, not an
  ``np.add.at`` scatter.
- :func:`walk_candidates` runs the per-plane drain optimistically: a
  ``budget``-round candidate walk pops the head of the first nonempty
  lane of every active circuit simultaneously, advancing through ``nxt``
  — no mutation happens until the caller commits, so the walk doubles
  as a dry run the engine can discard when a same-slot multi-hop
  cascade (a later circuit of the same plane draining a cell forwarded
  by an earlier one) makes simultaneous pops inexact.
- :func:`commit_pops` applies a validated walk: heads scatter to the
  post-walk cursors, emptied lanes reset their tails, and the drained
  counts leave ``qlen`` — again via unique-pair indexing.
- :func:`drain_plane_seq` is the exact sequential fallback: the
  reference drain semantics — circuits in source order, lane priority,
  immediate forwarding, same-plane cascades — expressed over the flat
  int32 tables only.  The engine replays a plane through it when a
  same-slot cascade makes the optimistic walk inexact and the in-place
  repair does not apply (``cells_per_circuit > 1``, or an event
  consumer is attached).

All kernels are allocation-conscious: scratch buffers (candidate
matrices, pop/delivery staging) are preallocated once per session and
passed in; dtypes are int32 throughout the cell tables (cell ids, route
rows, hop cursors) *and* the dense ``qlen`` counter — a single VOQ can
never accumulate 2**31 cells before the cell tables exhaust memory, and
the narrow counter matters at paper scale (N=4096).  Per-slot group
sums that could overflow int32 in principle (``pcounts`` in
:func:`append_cells`) stay int64 before the in-place scatter.

The three vectorized kernels address the VOQ state by **flat pair
ids**: a VOQ is ``pid = u*N + v`` and a cube entry ``l*N*N + pid``.
Every gather is a 1-D ``take`` and every update a 1-D scatter on a
``reshape(-1)`` view of the C-contiguous ``head``/``tail`` cubes and
``qlen`` — several times cheaper than numpy's three-array fancy
indexing (``tail[l, u, v]``) on batches of a few thousand cells.  The
views are taken afresh on every call, so replacing the arrays
(checkpoint restore, the cube pool) leaves nothing stale.

Cell ids are **1-based** throughout: the engine reserves table row 0 as
a dummy, so ``0`` is the universal empty sentinel for ``head``/``tail``
cursors, ``nxt`` links, and candidate slots.  The zero sentinel lets the
big per-lane ``(L, N, N)`` cursor cubes come from ``np.zeros`` (calloc —
no page is touched until first use) instead of an eagerly written
``np.full(-1)``, which at N=4096 removes over a second of cold-start
page-fault cost from every session construction.

Every kernel here works on one slot (one plane, or one slot's arrival
batch); the engine's Python driver calls them slot by slot.
"""

from __future__ import annotations

import importlib.util
from typing import Tuple

import numpy as np

__all__ = [
    "append_cells",
    "walk_candidates",
    "commit_pops",
    "drain_plane_seq",
]

# Environment probe only; its one reader is perfbench/harness.py.
HAVE_NUMBA = importlib.util.find_spec("numba") is not None

_EMPTY32 = np.empty(0, dtype=np.int32)
_EMPTY64 = np.empty(0, dtype=np.int64)


def append_cells(
    head: np.ndarray,
    tail: np.ndarray,
    nxt: np.ndarray,
    qlen: np.ndarray,
    cids: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    lanes: np.ndarray,
) -> np.ndarray:
    """Enqueue ``cids[i]`` at VOQ ``(us[i], vs[i])`` lane ``lanes[i]``.

    Input order is enqueue order: within every (pair, lane) group the
    cells are linked in the order given, matching the reference engine's
    sequential appends.  Returns the *unique* pair ids ``u*N + v``
    touched (for incremental max-VOQ tracking); ``qlen`` is updated in
    place.

    The stable grouping sort is a plain sort of unique composite keys
    ``key << b | i`` (``2**b`` the smallest power of two above ``k``, the
    batch size): equal keys tie-break on input position, so the sorted
    low bits are exactly the stable permutation.  The composite must fit
    int64: ``2**b * N**2 * L < 2**63``, far beyond any batch the cell
    tables can hold at paper scale.
    """
    k = cids.shape[0]
    if k == 0:
        return _EMPTY64
    num_lanes, num_nodes = head.shape[0], head.shape[1]
    npairs = num_nodes * num_nodes
    # Sort key pair-major, lane-minor: groups (one splice each) are
    # (pair, lane)-unique and pair runs are contiguous, so the qlen
    # update needs no duplicate-safe scatter at all.
    shift = k.bit_length()
    comp = us.astype(np.int64)
    comp *= num_nodes
    comp += vs
    comp *= num_lanes
    comp += lanes
    comp <<= shift
    comp |= np.arange(k)
    comp.sort()
    sc = cids.take(comp & ((1 << shift) - 1))
    sk = comp >> shift
    newg = np.empty(k, dtype=bool)
    newg[0] = True
    np.not_equal(sk[1:], sk[:-1], out=newg[1:])
    starts = np.flatnonzero(newg)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = k - 1
    # Intra-group chain: link every sorted cell to its successor, then
    # terminate the group tails (cutting the cross-group links).
    nxt[sc[:-1]] = sc[1:]
    gh = sc.take(starts)
    gt = sc.take(ends)
    nxt[gt] = 0
    gkey = sk.take(starts)
    gpair = gkey // num_lanes
    cix = (gkey - gpair * num_lanes) * npairs + gpair
    headf = head.reshape(-1)
    tailf = tail.reshape(-1)
    told = tailf.take(cix)
    # Splice onto the old tails; the empty groups' links land in the
    # dummy row 0, which is reset rather than masked out.
    nxt[told] = gh
    nxt[0] = 0
    empty = told == 0
    headf[cix[empty]] = gh[empty]
    tailf[cix] = gt
    # Pair runs start at the groups whose pair differs from the previous
    # group's; their lengths are the gaps between those sorted positions.
    pnew = np.empty(gpair.shape[0], dtype=bool)
    pnew[0] = True
    np.not_equal(gpair[1:], gpair[:-1], out=pnew[1:])
    ppair = gpair[pnew]
    pstarts = starts[pnew]
    pcounts = np.empty(pstarts.shape[0], dtype=np.int64)
    pcounts[:-1] = pstarts[1:] - pstarts[:-1]
    pcounts[-1] = k - pstarts[-1]
    qlen.reshape(-1)[ppair] += pcounts
    return ppair


def walk_candidates(
    head: np.ndarray,
    nxt: np.ndarray,
    pids: np.ndarray,
    budget: int,
    cand: np.ndarray,
    arange_buf: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Optimistic per-plane candidate walk (no mutation).

    ``pids`` are the active circuits' pair ids ``u*N + v``.  Fills
    ``cand[:budget, :C]`` with the cell ids each circuit would pop per
    budget round (0 = none) assuming no same-plane cascade, and returns
    ``(cur, cix)``: the post-walk per-lane head cursors ``(L, C)`` and
    their flat cube indices ``l*N*N + pid``, both for
    :func:`commit_pops`.  ``cand`` and ``arange_buf`` are preallocated
    scratch.
    """
    num_circuits = pids.shape[0]
    num_lanes, num_nodes = head.shape[0], head.shape[1]
    cix = np.arange(num_lanes)[:, None] * (num_nodes * num_nodes) + pids
    cur = head.reshape(-1).take(cix)  # (L, C) — a copy, safe to advance
    curf = cur.reshape(-1)
    sub = cand[:budget, :num_circuits]
    sub.fill(0)
    ar = arange_buf[:num_circuits]
    for rnd in range(budget):
        # Flat position of each circuit's first nonempty lane; a circuit
        # with every lane empty points at its lane-0 cursor, which is 0,
        # so it picks 0 and "advances" to nxt[0] == 0 — a no-op.
        pos = (cur > 0).argmax(axis=0) * num_circuits + ar
        picked = curf.take(pos)
        if not picked.any():
            break
        sub[rnd] = picked
        curf[pos] = nxt.take(picked)
    return cur, cix


def commit_pops(
    head: np.ndarray,
    tail: np.ndarray,
    qlen: np.ndarray,
    pids: np.ndarray,
    cix: np.ndarray,
    cur: np.ndarray,
    got: np.ndarray,
) -> None:
    """Apply a validated candidate walk: scatter the advanced heads
    back to their cube indices ``cix``, reset tails of emptied lanes,
    and drain ``got`` per pair from ``qlen`` (the pair ids ``pids`` are
    unique within a plane matching)."""
    head.reshape(-1)[cix] = cur
    tail.reshape(-1)[cix[cur == 0]] = 0
    qlen.reshape(-1)[pids] -= got


def drain_plane_seq(
    head,
    tail,
    nxt,
    qlen,
    routes,
    rowlen,
    ridx,
    rhop,
    rfid,
    fwd_lane,
    srcs,
    dsts,
    budget,
    out_cids,
    out_del,
    out_got,
):
    """Exact sequential per-plane drain over the flat tables.

    Reference semantics verbatim: circuits in source order, strict lane
    priority, up to *budget* pops per circuit, forwarded cells appended
    immediately (so a later circuit of the same plane can drain them —
    the same-slot multi-hop cascade).  Records every popped cell id in
    pop order (``out_cids``), whether it delivered (``out_del``) and the
    per-circuit counts (``out_got``); returns the number popped.
    """
    pos = 0
    num_circuits = srcs.shape[0]
    num_lanes = head.shape[0]
    for i in range(num_circuits):
        s = srcs[i]
        d = dsts[i]
        got = 0
        for lane in range(num_lanes):
            while got < budget:
                cid = head[lane, s, d]
                if cid == 0:
                    break
                nx = nxt[cid]
                head[lane, s, d] = nx
                if nx == 0:
                    tail[lane, s, d] = 0
                qlen[s, d] -= 1
                got += 1
                r = ridx[cid]
                h = rhop[cid]
                if h == rowlen[r] - 2:
                    out_del[pos] = 1
                else:
                    out_del[pos] = 0
                    h += 1
                    rhop[cid] = h
                    u = routes[r, h]
                    v = routes[r, h + 1]
                    fl = fwd_lane[rfid[cid]]
                    told = tail[fl, u, v]
                    nxt[cid] = 0
                    if told == 0:
                        head[fl, u, v] = cid
                    else:
                        nxt[told] = cid
                    tail[fl, u, v] = cid
                    qlen[u, v] += 1
                out_cids[pos] = cid
                pos += 1
            if got >= budget:
                break
        out_got[i] = got
    return pos

