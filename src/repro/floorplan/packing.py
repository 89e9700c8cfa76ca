"""Overlap-aware packing of a sequence pair.

Given a sequence pair and the block dimensions, the classical evaluation
computes x coordinates with a longest-path calculation over the
"left-of" constraints and y coordinates over the "below" constraints.  The
OSP twist is that abutting characters may *share* blank margins, so the edge
weight from ``a`` to ``b`` is not ``width(a)`` but ``width(a) - overlap(a, b)``
(and similarly vertically), exactly as in the 2D ILP formulation (7).

The longest paths are computed with the O(n^2) dynamic program over the pair
orderings, which is plenty for the clustered problem sizes E-BLOW produces.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from operator import add
from typing import Mapping

import numpy as np

from repro.events import emit
from repro.floorplan.sequence_pair import SequencePair
from repro.geometry import Rect
from repro.obs import metrics as obs_metrics

# Shared by every incremental-cache rebase site (this packer, the
# fixed-outline region-time caches, the batched engine): rebases happen
# once per REBASE_INTERVAL moves, so the counter costs nothing per move.
_REBASES = obs_metrics.declare_counter(
    "anneal_rebases_total", "Incremental-cache rebuilds from scratch", ("scope",)
)

__all__ = [
    "Block",
    "PackingResult",
    "pack_sequence_pair",
    "PackingContext",
    "IncrementalPacker",
    "PackerMove",
    "SwapPositive",
    "SwapNegative",
    "SwapBoth",
    "Rotate",
    "ShiftNegative",
    "ShiftPositive",
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

    def rect_of(self, block: Block) -> Rect:
        """Placed footprint of a block."""
        x, y = self.positions[block.name]
        return Rect(x, y, block.width, block.height)


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


class PackingContext:
    """Pre-computed data for repeatedly packing the same block set.

    The simulated-annealing loop evaluates thousands of sequence pairs over a
    fixed block set; this context pre-computes the pairwise blank-overlap
    matrices once and evaluates each packing with NumPy, which is an order of
    magnitude faster than the dictionary-based :func:`pack_sequence_pair`.
    Both paths produce identical results (verified in the test suite).
    """

    def __init__(self, blocks: Mapping[str, Block]) -> None:
        self.names = sorted(blocks)
        self.index = {name: i for i, name in enumerate(self.names)}
        self.blocks = [blocks[name] for name in self.names]
        n = len(self.names)
        self.widths = np.array([b.width for b in self.blocks], dtype=float)
        self.heights = np.array([b.height for b in self.blocks], dtype=float)
        self.blank_right = np.array([b.blank_right for b in self.blocks], dtype=float)
        self.blank_left = np.array([b.blank_left for b in self.blocks], dtype=float)
        self.blank_top = np.array([b.blank_top for b in self.blocks], dtype=float)
        self.blank_bottom = np.array([b.blank_bottom for b in self.blocks], dtype=float)
        # h_edge[a, b] = width(a) - min(blank_right(a), blank_left(b))
        self.h_edge = self.widths[:, None] - np.minimum(
            self.blank_right[:, None], self.blank_left[None, :]
        )
        self.v_edge = self.heights[:, None] - np.minimum(
            self.blank_top[:, None], self.blank_bottom[None, :]
        )
        self._n = n

    def pack(self, pair: SequencePair) -> PackingResult:
        """Pack a sequence pair over the context's block set."""
        x, y = self.pack_arrays(pair)
        n = self._n
        width = float(np.max(x + self.widths)) if n else 0.0
        height = float(np.max(y + self.heights)) if n else 0.0
        return PackingResult(
            positions={
                name: (float(x[self.index[name]]), float(y[self.index[name]]))
                for name in self.names
            },
            width=width,
            height=height,
        )

    def pack_arrays(self, pair: SequencePair) -> tuple[np.ndarray, np.ndarray]:
        """Longest-path coordinates of a sequence pair (no dict building).

        The longest-path DP walks Gamma- order; re-indexing the edge-weight
        matrices into that order once per call means every step works on
        contiguous slices (``He[:k, k]``) instead of fancy-indexed gathers,
        and the predecessor masks are plain prefix views — no per-step
        allocations besides the DP arrays themselves.
        """
        n = self._n
        result_x = np.zeros(n)
        result_y = np.zeros(n)
        if n == 0:
            return result_x, result_y
        index = self.index
        pos_p = np.empty(n, dtype=int)
        for rank, name in enumerate(pair.positive):
            pos_p[index[name]] = rank
        order = np.fromiter(
            (index[name] for name in pair.negative), dtype=int, count=n
        )
        ranks = pos_p[order]
        # Transposed so each step reads a contiguous predecessor row.
        h_edge = self.h_edge[np.ix_(order, order)].T.copy()
        v_edge = self.v_edge[np.ix_(order, order)].T.copy()

        xs = np.zeros(n)  # coordinates in Gamma- order
        ys = np.zeros(n)
        buf = np.empty(n)
        mask = np.empty(n, dtype=bool)
        maximum_reduce = np.maximum.reduce
        for k in range(1, n):
            m = mask[:k]
            np.less(ranks[:k], ranks[k], out=m)
            b = buf[:k]
            np.add(xs[:k], h_edge[k, :k], out=b)
            xs[k] = maximum_reduce(b, where=m, initial=0.0)
            np.invert(m, out=m)
            np.add(ys[:k], v_edge[k, :k], out=b)
            ys[k] = maximum_reduce(b, where=m, initial=0.0)
        result_x[order] = xs
        result_y[order] = ys
        return result_x, result_y


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

    Mirrors :meth:`SequencePair.swap_both` with the block names taken from
    Gamma+ positions ``i`` and ``j`` (exactly what ``random_neighbor`` does).
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


class Rotate(PackerMove):
    """Transpose one block (width/height and the blank pairs swapped).

    The block's edge-weight row and column are refreshed in place from the
    mutated geometry — no matrix rebuild.  The transformation is an
    involution, so ``revert`` simply re-applies it.
    """

    kind = "rotate"

    def __init__(self, block_index: int) -> None:
        super().__init__()
        self.block_index = block_index

    def apply(self, packer: "IncrementalPacker") -> None:
        self._checkpoint = packer._apply((packer._rotate_block(self.block_index),))

    def revert(self, packer: "IncrementalPacker") -> None:
        packer._rotate_block(self.block_index)
        packer._restore(self._checkpoint)


class ShiftNegative(PackerMove):
    """Move the block at Gamma- position ``i`` to position ``j``."""

    kind = "shift_negative"

    def __init__(self, i: int, j: int) -> None:
        super().__init__()
        self.i, self.j = i, j

    def apply(self, packer: "IncrementalPacker") -> None:
        self._checkpoint = packer._apply(packer._shift_position(self.i, self.j))

    def revert(self, packer: "IncrementalPacker") -> None:
        packer._shift_position(self.j, self.i)
        packer._restore(self._checkpoint)


class ShiftPositive(PackerMove):
    """Move the block at Gamma+ rank ``i`` to rank ``j``."""

    kind = "shift_positive"

    def __init__(self, i: int, j: int) -> None:
        super().__init__()
        self.i, self.j = i, j

    def apply(self, packer: "IncrementalPacker") -> None:
        self._checkpoint = packer._apply(packer._shift_rank(self.i, self.j))

    def revert(self, packer: "IncrementalPacker") -> None:
        packer._shift_rank(self.j, self.i)
        packer._restore(self._checkpoint)


class IncrementalPacker:
    """Sequence-pair packing under in-place moves, touching only what changes.

    The copy-based evaluation (:meth:`PackingContext.pack_arrays`) pays the
    full O(n^2) longest-path DP — plus an O(n^2) edge-matrix gather — for
    *every* candidate, even though an annealing move perturbs only two
    sequence positions.  This class keeps the evaluation state resident
    between moves.  Everything a move changes is a plain Python list (NumPy
    scalar access would dominate at the block counts annealing sees):

    * the Gamma- ``order`` (position -> block) and Gamma+ ``by_rank`` (rank
      -> block) with their inverses ``pos_of`` / ``rank_of``;
    * per block, the longest-path values ``xs``/``ys`` and the *supporting
      predecessor* (argmax) of each.

    The edge weights ``H[b][a]`` / ``V[b][a]`` from predecessor block ``a``
    into block ``b`` are indexed by block, not by position, so a Gamma- swap
    exchanges two ``order`` entries and leaves them alone; only a rotation
    rewrites one row and one column.  ``H_np`` / ``V_np`` hold the same
    values for predecessor rows longer than ``_PY_ROW_LIMIT``, which
    :class:`_LongRows` folds with a few vector operations.

    After a move, only positions at or after the earliest mutated Gamma-
    position can change (*dirty-suffix rule*: a DP step ``k`` only reads
    positions ``< k``).  Within the suffix, a position is re-evaluated against
    its full predecessor row only when it was structurally touched or its
    supporting predecessor was touched or lowered its contribution;
    otherwise a scan of the changed predecessors' contributions proves its
    value stable (or raises it).  ``touched`` lists the Gamma- positions the
    last move mutated or whose coordinates it changed, so a caller can
    rescore just those blocks.

    All arithmetic produces the same IEEE-double values as the batch DP —
    max-folds are exact and the adds are identical — so the maintained
    coordinates are **bit-identical** to a fresh :meth:`PackingContext.pack`
    of the same state (asserted by property tests; the dict-based
    :func:`pack_sequence_pair` differs from both by float-association noise
    only).  Every ``rebase_interval`` applied moves the caches are rebuilt
    from scratch (mirroring ``RunningTimes.REBASE_INTERVAL``); updates are
    exact, so this is a safety net, not a correctness requirement.
    """

    REBASE_INTERVAL = 4096
    # Predecessor rows longer than this are folded by _LongRows (a few
    # vector operations over the row) instead of in pure Python.
    _PY_ROW_LIMIT = 128

    def __init__(
        self,
        source: "PackingContext | Mapping[str, Block]",
        pair: SequencePair,
        rebase_interval: int | None = None,
    ) -> None:
        context = source if isinstance(source, PackingContext) else PackingContext(source)
        self.context = context
        self.names = context.names
        n = self._n = context._n
        if sorted(pair.positive) != self.names:
            raise ValueError("sequence pair does not match the packing context's blocks")
        self.rebase_interval = int(rebase_interval or self.REBASE_INTERVAL)
        self._applies = 0

        # Per-block geometry in canonical (sorted-name) order; rotations
        # mutate it, everything else treats it as constant.
        self.widths = context.widths.tolist()
        self.heights = context.heights.tolist()
        self.blank_left = context.blank_left.tolist()
        self.blank_right = context.blank_right.tolist()
        self.blank_top = context.blank_top.tolist()
        self.blank_bottom = context.blank_bottom.tolist()

        index = context.index
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

    def current_blocks(self) -> dict[str, Block]:
        """Current block geometry (reflecting applied rotations)."""
        return {
            name: Block(
                name=name,
                width=self.widths[c],
                height=self.heights[c],
                blank_left=self.blank_left[c],
                blank_right=self.blank_right[c],
                blank_top=self.blank_top[c],
                blank_bottom=self.blank_bottom[c],
            )
            for c, name in enumerate(self.names)
        }

    def coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        """``(x, y)`` arrays in canonical (sorted-name) order."""
        return np.array(self.xs, dtype=float), np.array(self.ys, dtype=float)

    def pack_result(self) -> PackingResult:
        """Current packing as a :class:`PackingResult` (dict building is O(n))."""
        return PackingResult(
            positions={
                name: (self.xs[c], self.ys[c]) for c, name in enumerate(self.names)
            },
            width=self.width,
            height=self.height,
        )

    def inside_mask(self, outline_width: float, outline_height: float) -> np.ndarray:
        """Canonical-order mask of blocks entirely inside the outline."""
        x, y = self.coordinates()
        return (x + self.widths <= outline_width + 1e-9) & (
            y + self.heights <= outline_height + 1e-9
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

    def _shift_position(self, i: int, j: int) -> range:
        """Move the Gamma- occupant at position ``i`` to position ``j``.

        Returns the window of positions whose occupant changed.
        """
        order, pos_of = self.order, self.pos_of
        order.insert(j, order.pop(i))
        window = range(min(i, j), max(i, j) + 1)
        for p in window:
            pos_of[order[p]] = p
        return window

    def _shift_rank(self, i: int, j: int) -> list[int]:
        """Move the Gamma+ occupant at rank ``i`` to rank ``j``.

        Returns the Gamma- positions of the blocks whose rank changed.
        """
        by_rank, rank_of, pos_of = self.by_rank, self.rank_of, self.pos_of
        by_rank.insert(j, by_rank.pop(i))
        positions = []
        for rank in range(min(i, j), max(i, j) + 1):
            c = by_rank[rank]
            rank_of[c] = rank
            positions.append(pos_of[c])
        return positions

    def _rotate_block(self, c: int) -> int:
        """Transpose block ``c``'s geometry; refresh its edge row and column.

        Returns the block's Gamma- position.
        """
        w, h = self.widths, self.heights
        bl, br, bt, bb = self.blank_left, self.blank_right, self.blank_top, self.blank_bottom
        w[c], h[c] = h[c], w[c]
        bl[c], bb[c] = bb[c], bl[c]
        br[c], bt[c] = bt[c], br[c]
        # The same element formula as the full rebuild: row c holds c as
        # successor, column c holds c as predecessor.
        H, V = self.H, self.V
        H[c] = [wa - min(ra, bl[c]) for wa, ra in zip(w, br)]
        V[c] = [ha - min(ta, bb[c]) for ha, ta in zip(h, bt)]
        for row_h, row_v, left, bottom in zip(H, V, bl, bb):
            row_h[c] = w[c] - min(br[c], left)
            row_v[c] = h[c] - min(bt[c], bottom)
        for lists, matrix in ((H, self.H_np), (V, self.V_np)):
            matrix[c] = lists[c]
            matrix[:, c] = [row[c] for row in lists]
        # Keep the column bounds valid: row c's new entries may raise any
        # column's bound; column c is recomputed exactly.
        self.colmax_x = list(map(max, self.colmax_x, H[c]))
        self.colmax_y = list(map(max, self.colmax_y, V[c]))
        self.colmax_x[c] = max(row[c] for row in H)
        self.colmax_y[c] = max(row[c] for row in V)
        return self.pos_of[c]

    # ------------------------------------------------------------------ #
    # DP maintenance
    # ------------------------------------------------------------------ #
    def _rebuild(self) -> None:
        """Recompute every cache from the block geometry (rebase)."""
        n = self._n
        widths = np.array(self.widths)
        heights = np.array(self.heights)
        # H[b, a] = width(a) - min(blank_right(a), blank_left(b)): the same
        # element arithmetic as PackingContext.h_edge, transposed.
        H = widths[None, :] - np.minimum(
            np.array(self.blank_right)[None, :], np.array(self.blank_left)[:, None]
        )
        V = heights[None, :] - np.minimum(
            np.array(self.blank_top)[None, :], np.array(self.blank_bottom)[:, None]
        )
        self.H_np, self.V_np = H, V
        self.H, self.V = H.tolist(), V.tolist()
        # colmax[a] >= H[b][a] for every b: an upper bound on any block's
        # outgoing edge, which feeds the one-compare pruning in _propagate.
        self.colmax_x = H.max(axis=0).tolist() if n else []
        self.colmax_y = V.max(axis=0).tolist() if n else []
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

        ``structural`` lists the Gamma- positions whose occupant, rank or
        edge weights the move mutated.
        """
        checkpoint = (
            self.xs, self.ys, self.xarg, self.yarg, self.width, self.height
        )
        self.xs, self.ys = self.xs[:], self.ys[:]
        self.xarg, self.yarg = self.xarg[:], self.yarg[:]
        self.touched = self._propagate(structural)
        self._applies += 1
        if self._applies % self.rebase_interval == 0:
            self._rebuild()
            _REBASES.inc(scope="packing")
            emit("rebase", scope="packing", interval=self.rebase_interval)
        else:
            self._update_bbox()
        return checkpoint

    def _restore(self, checkpoint) -> None:
        self.xs, self.ys, self.xarg, self.yarg, self.width, self.height = checkpoint

    def _propagate(self, structural) -> list[int]:
        """Dirty-suffix recompute; returns the touched Gamma- positions.

        The *seeds* (blocks at ``structural`` positions) had their position,
        rank or edge weights mutated, so their contribution to any successor
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
