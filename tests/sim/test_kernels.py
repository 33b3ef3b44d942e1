"""Property tests for the fused slot kernels against a per-cell model.

:func:`repro.sim.kernels.append_cells`, :func:`~repro.sim.kernels.
walk_candidates` and :func:`~repro.sim.kernels.commit_pops` are checked
here directly, not through the engine: the oracle is a plain Python
model of the VOQ fabric — one list per (lane, node, neighbor), cells
appended and popped one at a time — and every example encodes the model
into the kernels' array linked lists (``head``/``tail`` cubes, shared
``nxt`` chain, dense ``qlen``), runs a kernel, and decodes the arrays
back to compare.  Hypothesis draws 2 and 4 lanes, queues that already
hold cells, batches that repeat a (pair, lane) key many times, and
drain budgets above 1.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.sim.kernels import append_cells, commit_pops, walk_candidates


def encode(model, num_lanes, num_nodes, num_cells):
    """Array linked lists (1-based cell ids, 0 = empty) for *model*, a
    dict (lane, u, v) -> FIFO list of cell ids."""
    shape = (num_lanes, num_nodes, num_nodes)
    head = np.zeros(shape, dtype=np.int32)
    tail = np.zeros(shape, dtype=np.int32)
    nxt = np.zeros(num_cells + 1, dtype=np.int32)
    qlen = np.zeros((num_nodes, num_nodes), dtype=np.int32)
    for (lane, u, v), cells in model.items():
        if not cells:
            continue
        head[lane, u, v] = cells[0]
        tail[lane, u, v] = cells[-1]
        for a, b in zip(cells, cells[1:]):
            nxt[a] = b
        qlen[u, v] += len(cells)
    return head, tail, nxt, qlen


def decode(head, tail, nxt, qlen):
    """Inverse of :func:`encode`, checking the structural invariants on
    the way: every chain ends at its lane's tail, tails link to 0, and
    ``qlen`` sums the lanes."""
    num_lanes, num_nodes, _ = head.shape
    model = {}
    counts = np.zeros((num_nodes, num_nodes), dtype=np.int64)
    for lane in range(num_lanes):
        for u in range(num_nodes):
            for v in range(num_nodes):
                cid = int(head[lane, u, v])
                cells = []
                while cid:
                    cells.append(cid)
                    assert len(cells) < nxt.shape[0], "cycle in nxt"
                    cid = int(nxt[cid])
                if cells:
                    assert int(tail[lane, u, v]) == cells[-1]
                    model[lane, u, v] = cells
                    counts[u, v] += len(cells)
                else:
                    assert int(tail[lane, u, v]) == 0
    assert (counts == qlen).all()
    return model


def nonempty(model):
    return {key: cells for key, cells in model.items() if cells}


@st.composite
def fabrics(draw):
    """A small fabric with some cells already queued: (num_lanes,
    num_nodes, model, next free cell id)."""
    num_lanes = draw(st.sampled_from([2, 4]))
    num_nodes = draw(st.integers(2, 5))
    keys = st.tuples(
        st.integers(0, num_lanes - 1),
        st.integers(0, num_nodes - 1),
        st.integers(0, num_nodes - 1),
    )
    model = {}
    next_id = 1
    for key in draw(st.lists(keys, max_size=24)):
        model.setdefault(key, []).append(next_id)
        next_id += 1
    return num_lanes, num_nodes, model, next_id


@st.composite
def append_cases(draw):
    num_lanes, num_nodes, model, next_id = draw(fabrics())
    # Keys come from a small pool so one batch repeats (pair, lane)
    # groups and splits one pair across several lanes.
    pool = draw(
        st.lists(
            st.tuples(
                st.integers(0, num_lanes - 1),
                st.integers(0, num_nodes - 1),
                st.integers(0, num_nodes - 1),
            ),
            min_size=1,
            max_size=4,
        )
    )
    batch = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=40))
    # Batch cell ids in any order: forwarded cells are not id-sorted.
    cids = draw(st.permutations(range(next_id, next_id + len(batch))))
    return num_lanes, num_nodes, model, batch, list(cids)


@settings(max_examples=150, deadline=None)
@given(append_cases())
def test_append_cells_matches_per_cell_appends(case):
    num_lanes, num_nodes, model, batch, cids = case
    num_cells = max([0, *cids, *(c for q in model.values() for c in q)])
    head, tail, nxt, qlen = encode(model, num_lanes, num_nodes, num_cells)
    pairs = append_cells(
        head,
        tail,
        nxt,
        qlen,
        np.asarray(cids, dtype=np.int32),
        np.asarray([u for _, u, _ in batch], dtype=np.int32),
        np.asarray([v for _, _, v in batch], dtype=np.int32),
        np.asarray([lane for lane, _, _ in batch], dtype=np.int32),
    )
    expected = {key: list(cells) for key, cells in model.items()}
    for cid, key in zip(cids, batch):
        expected.setdefault(key, []).append(cid)
    assert decode(head, tail, nxt, qlen) == nonempty(expected)
    touched = sorted({u * num_nodes + v for _, u, v in batch})
    assert pairs.tolist() == touched


@st.composite
def drain_cases(draw):
    num_lanes, num_nodes, model, _ = draw(fabrics())
    # One plane matching: a partial permutation without fixed points,
    # circuits in source order (pair ids unique, as commit_pops needs).
    perm = draw(st.permutations(range(num_nodes)))
    movers = [u for u in range(num_nodes) if perm[u] != u]
    srcs = sorted(draw(st.sets(st.sampled_from(movers)))) if movers else []
    dsts = [perm[u] for u in srcs]
    budget = draw(st.integers(1, 4))
    return num_lanes, num_nodes, model, srcs, dsts, budget


@settings(max_examples=150, deadline=None)
@given(drain_cases())
def test_walk_and_commit_match_per_cell_pops(case):
    num_lanes, num_nodes, model, srcs, dsts, budget = case
    num_cells = max([0, *(c for q in model.values() for c in q)])
    head, tail, nxt, qlen = encode(model, num_lanes, num_nodes, num_cells)
    pids = np.asarray(srcs, dtype=np.int64) * num_nodes + np.asarray(
        dsts, dtype=np.int64
    )
    cand = np.full((budget, num_nodes), -7, dtype=np.int32)
    ar = np.arange(num_nodes)
    before = (head.copy(), tail.copy(), nxt.copy(), qlen.copy())
    cur, cix = walk_candidates(head, nxt, pids, budget, cand, ar)
    # The walk is a dry run: nothing changes until the commit.
    for arr, old in zip((head, tail, nxt, qlen), before):
        assert (arr == old).all()

    # Oracle: each circuit pops up to `budget` cells, lane 0 first.
    expected = {key: list(cells) for key, cells in model.items()}
    want = np.zeros((budget, len(srcs)), dtype=np.int32)
    for c, (u, v) in enumerate(zip(srcs, dsts)):
        for rnd in range(budget):
            lane = next(
                (ln for ln in range(num_lanes) if expected.get((ln, u, v))), None
            )
            if lane is None:
                break
            want[rnd, c] = expected[lane, u, v].pop(0)
    sub = cand[:budget, : len(srcs)]
    assert (sub == want).all()

    got = (sub > 0).sum(axis=0)
    commit_pops(head, tail, qlen, pids, cix, cur, got)
    assert (nxt == before[2]).all()
    assert decode(head, tail, nxt, qlen) == nonempty(expected)
