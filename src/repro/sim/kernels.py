"""Allocation-free fused slot kernels for the vectorized engine.

The :class:`repro.sim.telemetry.PhaseProfiler` breakdown of the previous
vectorized engine put >90% of a saturated Fig 2f run in two per-slot
loops — cell injection (lane-deque appends, ``np.add.at`` counter
scatters, ``paths.tolist()`` route materialization) and the sequential
per-circuit VOQ drain.  This module replaces both with fused array
kernels over :class:`repro.sim.network.LinkedVoqState`:

- :func:`append_cells` enqueues a whole batch with one stable sort:
  cells are grouped by (VOQ pair, lane), linked intra-group through the
  shared ``nxt`` array, and spliced onto the per-group tails — FIFO
  order within every strict-priority lane is the input (circuit-major)
  order, exactly what the reference engine's per-cell appends produce.
  The per-pair ``qlen`` update indexes *unique* pairs (a by-product of
  the grouping sort), so the old large-batch ``np.add.at`` scatter
  becomes a plain fancy-index add.
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


def append_cells(
    head: np.ndarray,
    tail: np.ndarray,
    nxt: np.ndarray,
    qlen: np.ndarray,
    cids: np.ndarray,
    us: np.ndarray,
    vs: np.ndarray,
    lanes: np.ndarray,
    num_lanes: int,
    num_nodes: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Enqueue ``cids[i]`` at VOQ ``(us[i], vs[i])`` lane ``lanes[i]``.

    Input order is enqueue order: within every (pair, lane) group the
    cells are linked in the order given, matching the reference engine's
    sequential appends.  Returns the *unique* ``(u, v)`` pairs touched
    (for incremental max-VOQ tracking); ``qlen`` is updated in place.
    """
    k = cids.shape[0]
    if k == 0:
        return _EMPTY32, _EMPTY32
    # Sort key pair-major, lane-minor: groups (one splice each) are
    # (pair, lane)-unique and pair runs are contiguous, so the qlen
    # update needs no duplicate-safe scatter at all.
    pkey = us.astype(np.int64) * num_nodes + vs
    key = pkey * num_lanes + lanes
    order = np.argsort(key, kind="stable")
    sc = cids[order]
    sk = key[order]
    newg = np.empty(k, dtype=bool)
    newg[0] = True
    np.not_equal(sk[1:], sk[:-1], out=newg[1:])
    starts = np.flatnonzero(newg)
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = k - 1
    # Intra-group chain: each non-start position links from its
    # predecessor; group tails terminate.
    inner = np.flatnonzero(~newg)
    nxt[sc[inner - 1]] = sc[inner]
    nxt[sc[ends]] = 0
    gkey = sk[starts]
    gl = gkey % num_lanes
    gpair = gkey // num_lanes
    gu = gpair // num_nodes
    gv = gpair % num_nodes
    gh = sc[starts]
    gt = sc[ends]
    told = tail[gl, gu, gv]
    has = told > 0
    nxt[told[has]] = gh[has]
    empty = ~has
    head[gl[empty], gu[empty], gv[empty]] = gh[empty]
    tail[gl, gu, gv] = gt
    # Pair-level run lengths over the sorted array (pairs contiguous).
    pk = sk // num_lanes
    pnew = np.empty(k, dtype=bool)
    pnew[0] = True
    np.not_equal(pk[1:], pk[:-1], out=pnew[1:])
    pstarts = np.flatnonzero(pnew)
    pcounts = np.empty(pstarts.shape[0], dtype=np.int64)
    pcounts[:-1] = pstarts[1:] - pstarts[:-1]
    pcounts[-1] = k - pstarts[-1]
    ppair = pk[pstarts]
    pu = ppair // num_nodes
    pv = ppair % num_nodes
    qlen[pu, pv] += pcounts
    return pu, pv


def walk_candidates(
    head: np.ndarray,
    nxt: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    budget: int,
    cand: np.ndarray,
    arange_buf: np.ndarray,
) -> np.ndarray:
    """Optimistic per-plane candidate walk (no mutation).

    Fills ``cand[:budget, :C]`` with the cell ids each active circuit
    would pop per budget round (0 = none) assuming no same-plane
    cascade, and returns the post-walk per-lane head cursors ``(L, C)``
    for :func:`commit_pops`.  ``cand`` and ``arange_buf`` are
    preallocated scratch.
    """
    num_circuits = srcs.shape[0]
    cur = head[:, srcs, dsts]  # (L, C) gather — a copy, safe to advance
    sub = cand[:budget, :num_circuits]
    sub.fill(0)
    ar = arange_buf[:num_circuits]
    for rnd in range(budget):
        nonempty = cur > 0
        lane_sel = nonempty.argmax(axis=0)
        live = nonempty[lane_sel, ar]
        idx = np.flatnonzero(live)
        if idx.size == 0:
            break
        picked = cur[lane_sel[idx], idx]
        sub[rnd, idx] = picked
        cur[lane_sel[idx], idx] = nxt[picked]
    return cur


def commit_pops(
    head: np.ndarray,
    tail: np.ndarray,
    qlen: np.ndarray,
    srcs: np.ndarray,
    dsts: np.ndarray,
    cur: np.ndarray,
    got: np.ndarray,
) -> None:
    """Apply a validated candidate walk: scatter the advanced heads
    back, reset tails of emptied lanes, and drain ``got`` per pair from
    ``qlen`` (active pairs are unique within a plane matching)."""
    head[:, srcs, dsts] = cur
    tl = tail[:, srcs, dsts]
    tl[cur == 0] = 0
    tail[:, srcs, dsts] = tl
    qlen[srcs, dsts] -= got


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

