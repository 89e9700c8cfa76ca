"""Overlap-aware packing of a sequence pair.

Given a sequence pair and the block dimensions, the classical evaluation
computes x coordinates with a longest-path calculation over the
"left-of" constraints and y coordinates over the "below" constraints.  The
OSP twist is that abutting characters may *share* blank margins, so the edge
weight from ``a`` to ``b`` is not ``width(a)`` but ``width(a) - overlap(a, b)``
(and similarly vertically), exactly as in the 2D ILP formulation (7).

Two packers evaluate that O(n^2) dynamic program:

* :func:`pack_sequence_pair` packs one pair from scratch over a block
  mapping; it builds every final 2D plan;
* :class:`IncrementalPacker` keeps the annealer's state resident and, after
  each of the three swap moves of [24] (:class:`SwapPositive`,
  :class:`SwapNegative`, :class:`SwapBoth`), recomputes only what the move
  can change.

The batch NumPy packer that the incremental one is checked against, bit for
bit, lives in ``tests/oracles/packing.py``.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import add
from typing import Mapping

import numpy as np

from repro.events import emit
from repro.floorplan.sequence_pair import SequencePair
from repro.obs import metrics as obs_metrics

# Shared by every incremental-cache rebase site (this packer and the
# fixed-outline region-time caches): rebases happen once per
# REBASE_INTERVAL moves, so the counter costs nothing per move.
_REBASES = obs_metrics.declare_counter(
    "anneal_rebases_total", "Incremental-cache rebuilds from scratch", ("scope",)
)

__all__ = [
    "Block",
    "PackingResult",
    "pack_sequence_pair",
    "IncrementalPacker",
    "PackerMove",
    "SwapPositive",
    "SwapNegative",
    "SwapBoth",
    "NullMove",
]


@dataclass(frozen=True)
class Block:
    """A rectangular block to pack (a character or a cluster of characters)."""

    name: str
    width: float
    height: float
    blank_left: float = 0.0
    blank_right: float = 0.0
    blank_top: float = 0.0
    blank_bottom: float = 0.0

    def horizontal_overlap(self, other: "Block") -> float:
        """Blank shared when ``self`` abuts ``other`` on its right side."""
        return min(self.blank_right, other.blank_left)

    def vertical_overlap(self, other: "Block") -> float:
        """Blank shared when ``self`` abuts ``other`` above it."""
        return min(self.blank_top, other.blank_bottom)


@dataclass
class PackingResult:
    """Placed blocks plus the bounding-box dimensions."""

    positions: dict[str, tuple[float, float]]
    width: float
    height: float


def pack_sequence_pair(
    pair: SequencePair, blocks: Mapping[str, Block]
) -> PackingResult:
    """Compute block positions for a sequence pair with blank sharing.

    ``blocks`` must contain every name of the pair.  The packing pushes every
    block as far down/left as its constraints allow (longest path from the
    origin), with shared blanks subtracted on every constraint edge.
    """
    names = list(pair.positive)
    pos_p = {name: i for i, name in enumerate(pair.positive)}
    pos_n = {name: i for i, name in enumerate(pair.negative)}

    # Horizontal constraint: a left-of b  <=>  a before b in both sequences.
    # Process blocks in Gamma- order; every earlier block that is also earlier
    # in Gamma+ is a predecessor.
    x: dict[str, float] = {name: 0.0 for name in names}
    order_n = list(pair.negative)
    for idx, b in enumerate(order_n):
        bb = blocks[b]
        best = 0.0
        for a in order_n[:idx]:
            if pos_p[a] < pos_p[b]:
                ab = blocks[a]
                best = max(best, x[a] + ab.width - ab.horizontal_overlap(bb))
        x[b] = best

    # Vertical constraint: a below b  <=>  a after b in Gamma+, before in Gamma-.
    y: dict[str, float] = {name: 0.0 for name in names}
    for idx, b in enumerate(order_n):
        bb = blocks[b]
        best = 0.0
        for a in order_n[:idx]:
            if pos_p[a] > pos_p[b]:
                ab = blocks[a]
                best = max(best, y[a] + ab.height - ab.vertical_overlap(bb))
        y[b] = best

    width = max((x[n] + blocks[n].width for n in names), default=0.0)
    height = max((y[n] + blocks[n].height for n in names), default=0.0)
    return PackingResult(
        positions={n: (x[n], y[n]) for n in names}, width=width, height=height
    )


# --------------------------------------------------------------------------- #
# Incremental packing
# --------------------------------------------------------------------------- #


class PackerMove:
    """Base class for reversible in-place sequence-pair mutations.

    A move is applied to an :class:`IncrementalPacker`; during ``apply`` it
    stashes the packer's undo checkpoint on itself, so ``revert`` restores
    the packer exactly — bit for bit — to its pre-move state.  The classes
    satisfy the annealing engine's ``Move`` protocol.
    """

    kind = "move"

    def __init__(self) -> None:
        self._checkpoint = None

    def apply(self, packer: "IncrementalPacker") -> None:
        raise NotImplementedError

    def revert(self, packer: "IncrementalPacker") -> None:
        raise NotImplementedError


class NullMove(PackerMove):
    """No-op move (proposed when the block set is too small to perturb)."""

    kind = "none"

    def apply(self, packer) -> None:
        packer.touched = []

    def revert(self, packer) -> None:
        pass


class SwapPositive(PackerMove):
    """Swap the blocks at two Gamma+ rank positions (Gamma- untouched)."""

    kind = "swap_positive"

    def __init__(self, i: int, j: int) -> None:
        super().__init__()
        self.i, self.j = i, j

    def apply(self, packer: "IncrementalPacker") -> None:
        self._checkpoint = packer._apply(packer._swap_ranks(self.i, self.j))

    def revert(self, packer: "IncrementalPacker") -> None:
        packer._swap_ranks(self.i, self.j)
        packer._restore(self._checkpoint)


class SwapNegative(PackerMove):
    """Swap the blocks at two Gamma- positions (Gamma+ untouched)."""

    kind = "swap_negative"

    def __init__(self, i: int, j: int) -> None:
        super().__init__()
        self.i, self.j = i, j

    def apply(self, packer: "IncrementalPacker") -> None:
        packer._swap_positions(self.i, self.j)
        self._checkpoint = packer._apply((self.i, self.j))

    def revert(self, packer: "IncrementalPacker") -> None:
        packer._swap_positions(self.i, self.j)
        packer._restore(self._checkpoint)


class SwapBoth(PackerMove):
    """Swap the blocks at two Gamma+ positions in *both* sequences.

    Mirrors ``swap_both`` in ``tests/oracles/annealing.py`` with the block
    names taken from Gamma+ positions ``i`` and ``j``, exactly as the
    copy-engine oracle's ``random_neighbor`` does.
    """

    kind = "swap_both"

    def __init__(self, i: int, j: int) -> None:
        super().__init__()
        self.i, self.j = i, j

    def apply(self, packer: "IncrementalPacker") -> None:
        positions = packer._swap_ranks(self.i, self.j)
        packer._swap_positions(*positions)
        self._checkpoint = packer._apply(positions)

    def revert(self, packer: "IncrementalPacker") -> None:
        packer._swap_positions(*packer._swap_ranks(self.i, self.j))
        packer._restore(self._checkpoint)


class IncrementalPacker:
    """Sequence-pair packing under in-place moves, touching only what changes.

    A batch evaluation (the oracle in ``tests/oracles/packing.py``) pays the
    full O(n^2) longest-path DP — plus an O(n^2) edge-matrix gather — for
    *every* candidate, even though an annealing move perturbs only two
    sequence positions.  This class keeps the evaluation state resident
    between moves.  Everything a move changes is a plain Python list (NumPy
    scalar access would dominate at the block counts annealing sees):

    * the Gamma- ``order`` (position -> block) and Gamma+ ``by_rank`` (rank
      -> block) with their inverses ``pos_of`` / ``rank_of``;
    * per block, the longest-path values ``xs``/``ys`` and, above
      ``_FUSED_LIMIT`` blocks, the *supporting predecessor* (argmax) of each.

    The edge weights ``H[b][a]`` / ``V[b][a]`` from predecessor block ``a``
    into block ``b`` are indexed by block, not by position, so a swap
    exchanges ``order`` or ``by_rank`` entries and leaves them alone.  No
    move changes a block's geometry, so they are built once, in
    ``__init__``.  ``H_np`` / ``V_np`` hold the same values for predecessor
    rows longer than ``_PY_ROW_LIMIT``, which :class:`_LongRows` folds with
    a few vector operations.

    After a move, only positions at or after the earliest mutated Gamma-
    position can change (*dirty-suffix rule*: a DP step ``k`` only reads
    positions ``< k``).  How the suffix is recomputed depends on the block
    count:

    * at most ``_FUSED_LIMIT`` blocks (``_refold``): every suffix position
      folds its predecessor row once, rank-lower predecessors into x and
      rank-higher ones into y.  No supports or bounds are kept, and the undo
      checkpoint copies only ``xs``/``ys``;
    * above it (``_propagate``): a position is re-evaluated against its full
      predecessor row only when it was structurally touched or its
      supporting predecessor was touched or lowered its contribution;
      otherwise a scan of the changed predecessors' contributions proves its
      value stable (or raises it).

    ``touched`` lists the Gamma- positions the last move mutated or whose
    coordinates it changed, so a caller can rescore just those blocks.

    All arithmetic produces the same IEEE-double values as the batch DP —
    max-folds are exact and the adds are identical — so the maintained
    coordinates are **bit-identical** to a fresh batch packing of the same
    state (``tests/oracles/packing.py``; asserted by property tests; the
    dict-based :func:`pack_sequence_pair` differs from both by
    float-association noise only).  Every ``REBASE_INTERVAL`` applied moves
    the coordinates are rebuilt from scratch (mirroring
    ``RunningTimes.REBASE_INTERVAL``); updates are exact, so this is a safety
    net, not a correctness requirement.
    """

    REBASE_INTERVAL = 4096
    # Predecessor rows longer than this are folded by _LongRows (a few
    # vector operations over the row) instead of in pure Python.
    _PY_ROW_LIMIT = 128
    # Packers of at most this many blocks recompute the dirty suffix with
    # _refold: at that size the support and bound bookkeeping of _propagate
    # costs more than the plain folds it saves.  The two paths cost the same
    # per annealing move at 41-46 blocks on a 2-CPU VM (PERFORMANCE.md,
    # "Small packers").
    _FUSED_LIMIT = 40

    def __init__(self, blocks: Mapping[str, Block], pair: SequencePair) -> None:
        self.names = sorted(blocks)
        n = self._n = len(self.names)
        if sorted(pair.positive) != self.names:
            raise ValueError("sequence pair does not match the packer's blocks")
        self._applies = 0

        # Per-block geometry in canonical (sorted-name) order.
        geometry = [blocks[name] for name in self.names]
        widths = np.array([b.width for b in geometry], dtype=float)
        heights = np.array([b.height for b in geometry], dtype=float)
        blank_left = np.array([b.blank_left for b in geometry], dtype=float)
        blank_right = np.array([b.blank_right for b in geometry], dtype=float)
        blank_top = np.array([b.blank_top for b in geometry], dtype=float)
        blank_bottom = np.array([b.blank_bottom for b in geometry], dtype=float)
        self.widths, self.heights = widths.tolist(), heights.tolist()
        # H[b, a] = width(a) - min(blank_right(a), blank_left(b)): the batch
        # DP's edge arithmetic, transposed.
        H = widths[None, :] - np.minimum(blank_right[None, :], blank_left[:, None])
        V = heights[None, :] - np.minimum(blank_top[None, :], blank_bottom[:, None])
        self.H_np, self.V_np = H, V
        self.H, self.V = H.tolist(), V.tolist()
        # colmax[a] >= H[b][a] for every b: an upper bound on any block's
        # outgoing edge, which feeds the one-compare pruning in _propagate.
        self.colmax_x = H.max(axis=0).tolist() if n else []
        self.colmax_y = V.max(axis=0).tolist() if n else []

        index = {name: c for c, name in enumerate(self.names)}
        self.by_rank = [index[name] for name in pair.positive]
        self.order = [index[name] for name in pair.negative]
        self.rank_of = [0] * n
        self.pos_of = [0] * n
        for rank, c in enumerate(self.by_rank):
            self.rank_of[c] = rank
        for position, c in enumerate(self.order):
            self.pos_of[c] = position
        self.touched: list[int] = []
        self._rebuild()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #
    @property
    def size(self) -> int:
        return self._n

    def snapshot_pair(self) -> SequencePair:
        """The current sequence pair as an immutable :class:`SequencePair`."""
        names = self.names
        return SequencePair(
            positive=tuple(names[c] for c in self.by_rank),
            negative=tuple(names[c] for c in self.order),
        )

    # ------------------------------------------------------------------ #
    # Structural mutations (shared by the move classes)
    # ------------------------------------------------------------------ #
    def _swap_ranks(self, i: int, j: int) -> tuple[int, int]:
        """Swap Gamma+ ranks ``i`` and ``j``; returns the Gamma- positions."""
        by_rank = self.by_rank
        a, b = by_rank[i], by_rank[j]
        by_rank[i], by_rank[j] = b, a
        self.rank_of[a], self.rank_of[b] = j, i
        return self.pos_of[a], self.pos_of[b]

    def _swap_positions(self, i: int, j: int) -> None:
        """Swap the occupants of Gamma- positions ``i`` and ``j``."""
        order = self.order
        a, b = order[i], order[j]
        order[i], order[j] = b, a
        self.pos_of[a], self.pos_of[b] = j, i

    # ------------------------------------------------------------------ #
    # DP maintenance
    # ------------------------------------------------------------------ #
    def _rebuild(self) -> None:
        """Recompute every coordinate and support from scratch (rebase)."""
        n = self._n
        self.xs, self.ys = [0.0] * n, [0.0] * n
        self.xarg, self.yarg = [-1] * n, [-1] * n
        walked = self._start_walk()
        for k, b in enumerate(self.order):
            self.xs[b], self.xarg[b] = self._row_x(k, b)
            self.ys[b], self.yarg[b] = self._row_y(k, b)
            walked[0].append(b)
            walked[1].append(b)
        self._update_bbox()

    def _start_walk(self) -> tuple[list[int], list[int]]:
        """Fresh change logs for one DP walk (the blocks whose x / y it set)."""
        self._walk = ([], [])
        self._long_rows = None
        return self._walk

    def _long_row(self, k: int, b: int, axis: int) -> tuple[float, int]:
        if self._long_rows is None:
            self._long_rows = _LongRows(self)
        return self._long_rows.row(k, b, axis)

    def _row_x(self, k: int, b: int) -> tuple[float, int]:
        """Full x DP step of block ``b`` at position ``k``: (value, support).

        Same IEEE adds and the same max as the batch DP; the fold order does
        not affect an exact maximum.
        """
        if k > self._PY_ROW_LIMIT:
            return self._long_row(k, b, 0)
        rank_of, xs, row = self.rank_of, self.xs, self.H[b]
        rk = rank_of[b]
        best = 0.0
        arg = -1
        for a in self.order[:k]:
            if rank_of[a] < rk:
                cand = xs[a] + row[a]
                if cand > best:
                    best = cand
                    arg = a
        return best, arg

    def _row_y(self, k: int, b: int) -> tuple[float, int]:
        if k > self._PY_ROW_LIMIT:
            return self._long_row(k, b, 1)
        rank_of, ys, row = self.rank_of, self.ys, self.V[b]
        rk = rank_of[b]
        best = 0.0
        arg = -1
        for a in self.order[:k]:
            if rank_of[a] > rk:
                cand = ys[a] + row[a]
                if cand > best:
                    best = cand
                    arg = a
        return best, arg

    def _apply(self, structural) -> tuple:
        """Propagate a structural change; returns the undo checkpoint.

        ``structural`` lists the Gamma- positions whose occupant or rank the
        move mutated.  Packers of at most ``_FUSED_LIMIT`` blocks take
        :meth:`_refold`, larger ones :meth:`_propagate`.
        """
        checkpoint = (
            self.xs, self.ys, self.xarg, self.yarg, self.width, self.height
        )
        self.xs, self.ys = self.xs[:], self.ys[:]
        if self._n <= self._FUSED_LIMIT:
            # The fused walk neither reads nor writes the supports.
            self.touched = self._refold(structural)
        else:
            self.xarg, self.yarg = self.xarg[:], self.yarg[:]
            self.touched = self._propagate(structural)
        self._applies += 1
        if self._applies % self.REBASE_INTERVAL == 0:
            self._rebuild()
            _REBASES.inc(scope="packing")
            emit("rebase", scope="packing", interval=self.REBASE_INTERVAL)
        else:
            self._update_bbox()
        return checkpoint

    def _restore(self, checkpoint) -> None:
        self.xs, self.ys, self.xarg, self.yarg, self.width, self.height = checkpoint

    def _refold(self, structural) -> list[int]:
        """Fused dirty-suffix recompute; returns the touched Gamma- positions.

        Each position from the earliest structural one on makes one pass over
        its predecessors: a rank-lower predecessor ``a`` folds ``xs[a] +
        H[b][a]`` into x, a rank-higher one ``ys[a] + V[b][a]`` into y, with
        the same adds and the same strict ``>`` max as :meth:`_row_x` and
        :meth:`_row_y`.  A touched position was mutated or changed either
        coordinate.
        """
        order, rank_of, xs, ys, H, V = (
            self.order, self.rank_of, self.xs, self.ys, self.H, self.V
        )
        seeds = set(structural)
        touched = []
        for k in range(min(seeds), self._n):
            b = order[k]
            rk = rank_of[b]
            row_h = H[b]
            row_v = V[b]
            best_x = best_y = 0.0
            for a in order[:k]:
                if rank_of[a] < rk:
                    cand = xs[a] + row_h[a]
                    if cand > best_x:
                        best_x = cand
                else:
                    cand = ys[a] + row_v[a]
                    if cand > best_y:
                        best_y = cand
            if best_x != xs[b] or best_y != ys[b]:
                xs[b] = best_x
                ys[b] = best_y
                touched.append(k)
            elif k in seeds:
                touched.append(k)
        return touched

    def _propagate(self, structural) -> list[int]:
        """Dirty-suffix recompute; returns the touched Gamma- positions.

        The *seeds* (blocks at ``structural`` positions) had their position
        or rank mutated, so their contribution to any successor
        may have changed even when their own coordinate did not; they are
        re-evaluated in full.  A clean block pays a full predecessor-row
        re-evaluation only when its supporting predecessor is a seed or
        lowered its contribution.  Raises come from the changed predecessors
        only, which are kept sorted by an upper bound on their contribution
        (their value plus their largest outgoing edge): a scan stops at the
        first bound that cannot beat the best value found, and a block whose
        coordinate already reaches the largest bound is dismissed by a single
        compare.
        """
        order, rank_of = self.order, self.rank_of
        xs, ys, xarg, yarg = self.xs, self.ys, self.xarg, self.yarg
        H, V = self.H, self.V
        colmax_x, colmax_y = self.colmax_x, self.colmax_y
        touched = sorted(set(structural))
        seeds = {order[p] for p in touched}
        # A seed's old position or rank no longer holds, so blocks it
        # supported re-scan even before the walk reaches its new position.
        marked_x = set(seeds)
        marked_y = set(seeds)
        walked_x, walked_y = self._start_walk()
        # (-bound, block) of the changed predecessors walked so far, sorted
        # by decreasing bound; a walked block is always a predecessor by
        # position, so the scans only test the rank.
        bounds_x: list[tuple[float, int]] = []
        bounds_y: list[tuple[float, int]] = []
        ub_x = ub_y = 0.0
        for k in range(touched[0], self._n):
            b = order[k]
            if b in seeds:
                xs[b], xarg[b] = self._row_x(k, b)
                ys[b], yarg[b] = self._row_y(k, b)
                walked_x.append(b)
                walked_y.append(b)
                bound = xs[b] + colmax_x[b]
                insort(bounds_x, (-bound, b))
                ub_x = max(ub_x, bound)
                bound = ys[b] + colmax_y[b]
                insort(bounds_y, (-bound, b))
                ub_y = max(ub_y, bound)
                continue
            moved = False
            # ---- x ----
            cur = xs[b]
            support = xarg[b]
            if support in marked_x and (
                support in seeds or xs[support] + H[b][support] < cur
            ):
                # The max may now come from anywhere: rescan the full row.
                best, xarg[b] = self._row_x(k, b)
            elif ub_x > cur:
                rk = rank_of[b]
                row = H[b]
                best = cur
                for bound, a in bounds_x:
                    if -bound <= best:
                        break
                    if rank_of[a] < rk:
                        cand = xs[a] + row[a]
                        if cand > best:
                            best = cand
                            xarg[b] = a
            else:
                best = cur
            if best != cur:
                xs[b] = best
                moved = True
                walked_x.append(b)
                marked_x.add(b)
                bound = best + colmax_x[b]
                insort(bounds_x, (-bound, b))
                if bound > ub_x:
                    ub_x = bound
            # ---- y ----
            cur = ys[b]
            support = yarg[b]
            if support in marked_y and (
                support in seeds or ys[support] + V[b][support] < cur
            ):
                best, yarg[b] = self._row_y(k, b)
            elif ub_y > cur:
                rk = rank_of[b]
                row = V[b]
                best = cur
                for bound, a in bounds_y:
                    if -bound <= best:
                        break
                    if rank_of[a] > rk:
                        cand = ys[a] + row[a]
                        if cand > best:
                            best = cand
                            yarg[b] = a
            else:
                best = cur
            if best != cur:
                ys[b] = best
                moved = True
                walked_y.append(b)
                marked_y.add(b)
                bound = best + colmax_y[b]
                insort(bounds_y, (-bound, b))
                if bound > ub_y:
                    ub_y = bound
            if moved:
                touched.append(k)
        return touched

    def _update_bbox(self) -> None:
        self.width = max(map(add, self.xs, self.widths), default=0.0)
        self.height = max(map(add, self.ys, self.heights), default=0.0)


class _LongRows:
    """NumPy view of one DP walk, for predecessor rows past ``_PY_ROW_LIMIT``.

    Built on a walk's first long row.  The Gamma- order and the ranks do not
    change during a walk; the coordinate copies are patched from the walk's
    change logs before each row.  A row then costs a few vector operations
    over its ``k`` predecessors, with the same adds and the same max as the
    Python fold.
    """

    def __init__(self, packer: IncrementalPacker) -> None:
        self.order = np.array(packer.order, dtype=np.intp)
        self.ranks = np.array(packer.rank_of)[self.order]
        self.packer = packer
        self.values = (np.array(packer.xs), np.array(packer.ys))
        self.synced = [len(log) for log in packer._walk]

    def row(self, k: int, b: int, axis: int) -> tuple[float, int]:
        packer = self.packer
        values = self.values[axis]
        log = packer._walk[axis]
        if len(log) > self.synced[axis]:
            fresh = log[self.synced[axis]:]
            current = packer.ys if axis else packer.xs
            values[fresh] = [current[a] for a in fresh]
            self.synced[axis] = len(log)
        predecessors = self.order[:k]
        rk = packer.rank_of[b]
        mask = self.ranks[:k] > rk if axis else self.ranks[:k] < rk
        edges = (packer.V_np if axis else packer.H_np)[b]
        cand = np.where(mask, values.take(predecessors) + edges.take(predecessors), -np.inf)
        i = int(cand.argmax())
        best = float(cand[i])
        if best > 0.0:
            return best, int(predecessors[i])
        return 0.0, -1
