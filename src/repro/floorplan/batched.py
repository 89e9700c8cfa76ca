"""Batched multi-chain simulated annealing over stacked sequence pairs.

The incremental engine drove the per-move cost of one annealing chain down
to the exact-maintenance floor: a move revisits only the coordinates it can
change, so what remains is Python interpreter overhead — a few dozen list
operations and calls per move.  This module spends that overhead once for
**K chains at a time**: :class:`BatchedAnnealer`
holds K independent sequence-pair chains in structure-of-arrays form and
advances all of them with one ufunc dispatch per DP step.

Layout (the part that makes it fast)
------------------------------------

All per-chain, per-position state lives in *position-major* stacked arrays
of shape ``(n, M)`` with ``M = 2K`` columns: column ``c < K`` carries chain
``c``'s **horizontal** problem (widths, right/left blanks, Gamma+ ranks) and
column ``K + c`` its **vertical** problem (heights, top/bottom blanks,
*negated* ranks).  Negating the ranks folds the two longest-path recurrences
into one: both axes use the predecessor mask ``R[p] < R[k]``, so a single
``(k, M)`` ufunc advances the x *and* y DP of every chain at once.

On top of the stacked geometry the annealer maintains a masked edge tensor
``E[k, p, m] = W[p, m] - min(G1[p, m], G2[k, m])`` where the predecessor
mask holds and ``-inf`` where it does not.  Each DP step is then just

    ``XS[k] = max(XS[:k] + E[k, :k], axis=0)`` clipped at ``0.0``

— two ``(k, M)``-sized ufuncs plus one ``(M,)`` clip.  A swap move touches
exactly two Gamma- positions per chain, so only four rows/columns of ``E``
per chain are refreshed per move (from the same formula, hence exactly).
The tensor costs ``n^2 * 2K * 8`` bytes; above :data:`~BatchedAnnealer.
MAX_TENSOR_BYTES` the annealer falls back to computing edges inside the DP
step (same bits, more dispatches) instead of materialising ``E``.

Bit-identity contract
---------------------

Chain ``c`` consumes its own ``random.Random(seed + c)`` exactly like a solo
:meth:`FixedOutlinePacker.pack` run with ``seed + c`` (including the two
initial shuffles when no seed pair is given), and every arithmetic step —
edge weights, longest paths, inside masks, region-time deltas, rebases,
penalties, Metropolis acceptance — reproduces the incremental engine's IEEE
operations operation for operation.  Consequently ``chains=1`` is
bit-identical to ``engine="incremental"`` under RNG lockstep, and for K>1
every chain is bit-identical to a solo run seeded ``seed + c`` (asserted in
``tests/floorplan/test_batched_engine.py``).  The per-chain Metropolis draw
and the per-chain region-time delta fold stay as tiny Python loops *by
design*: ``random.Random`` consumption is data-dependent and NumPy's
pairwise summation depends on operand shape, so vectorising either would
break the bit-identity contract.

Masked undo
-----------

All three swap moves are involutions, so rejecting a subset of chains undoes
them by *re-applying* the same move restricted to the rejected chains (fancy
indexing on the chain axis) and re-refreshing the same two ``E``
rows/columns — which restores the tensor exactly because the refresh is a
pure function of the (restored) permutation and geometry.  The DP values
``XS`` need no undo at all: they are recomputed from scratch each move.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from repro.events import emit
from repro.floorplan.annealing import _ANNEAL_ACCEPTS, _ANNEAL_MOVES, _ANNEAL_RUNS
from repro.floorplan.packing import _REBASES
from repro.floorplan.annealing import (
    AnnealingResult,
    AnnealingSchedule,
    MoveTypeStats,
)
from repro.floorplan.sequence_pair import SequencePair

__all__ = ["BatchedAnnealer", "BatchedAnnealingResult"]

_NEG_INF = float("-inf")
#: Move-kind vocabulary, indexed by the per-chain move-type draw.
KIND_NAMES = ("swap_positive", "swap_negative", "swap_both", "none")


def _sample_two(rng: random.Random, n: int) -> tuple[int, int]:
    """``rng.sample(range(n), 2)`` with identical RNG consumption, inlined.

    ``random.sample`` burns several microseconds per call on an abc
    ``isinstance`` check and generic bookkeeping — measurable when K chains
    sample every move.  This reproduces its two code paths for ``k=2`` over
    ``range(n)`` exactly (the pool shuffle below 22 elements, rejection
    sampling above), drawing the same ``_randbelow`` sequence so batched
    chains stay in RNG lockstep with solo runs.  Guarded by a test that
    checks agreement with ``rng.sample`` across sizes, so a future stdlib
    change cannot silently break lockstep.
    """
    randbelow = rng._randbelow
    if n <= 21:  # random.sample's small-population pool path (k=2)
        i = randbelow(n)
        j = randbelow(n - 1)
        return i, (n - 1 if j == i else j)
    i = randbelow(n)
    j = randbelow(n)
    while j == i:
        j = randbelow(n)
    return i, j


@dataclass
class BatchedAnnealingResult:
    """Per-chain outcome of one batched annealing run.

    ``moves`` counts moves *per chain* (every chain advances in lockstep);
    the aggregate move count is ``moves * chains``.  ``cost_traces`` is a
    ``(samples, chains)`` array sampled every ``effective_trace_stride``
    temperatures (see :attr:`BatchedAnnealer.MAX_TRACE_ENTRIES` for why the
    effective stride may exceed the schedule's).
    """

    chains: int
    best_pairs: list[SequencePair]
    best_costs: np.ndarray  # (K,)
    best_chain: int
    moves: int
    accepted: np.ndarray  # (K,)
    cost_traces: np.ndarray  # (samples, K)
    proposed_by_kind: np.ndarray  # (K, len(KIND_NAMES))
    accepted_by_kind: np.ndarray
    improved_by_kind: np.ndarray
    restarts: np.ndarray  # (K,)
    effective_trace_stride: int

    def move_stats_for(self, chain: int) -> dict[str, MoveTypeStats]:
        """Per-kind statistics of one chain (solo-engine dict shape)."""
        stats: dict[str, MoveTypeStats] = {}
        for k, name in enumerate(KIND_NAMES):
            proposed = int(self.proposed_by_kind[chain, k])
            if proposed:
                stats[name] = MoveTypeStats(
                    proposed=proposed,
                    accepted=int(self.accepted_by_kind[chain, k]),
                    improved=int(self.improved_by_kind[chain, k]),
                )
        return stats

    def annealing_result_for(self, chain: int) -> AnnealingResult:
        """One chain's trajectory as a solo :class:`AnnealingResult`."""
        return AnnealingResult(
            best_state=self.best_pairs[chain],
            best_cost=float(self.best_costs[chain]),
            moves=self.moves,
            accepted=int(self.accepted[chain]),
            cost_trace=[float(v) for v in self.cost_traces[:, chain]],
            move_stats=self.move_stats_for(chain),
        )


class BatchedAnnealer:
    """K lockstep sequence-pair annealing chains in stacked arrays.

    Construct with the owning :class:`~repro.floorplan.fixed_outline.
    FixedOutlinePacker` (outline, blocks, cost model, and rebase interval are
    read from it) and call :meth:`run`.  Chain ``c`` is seeded
    ``seed + c``; when ``initial`` is given all chains start from that pair,
    otherwise each chain shuffles its own starting pair from its own RNG —
    either way matching a solo run with the same arguments.
    """

    #: Above this, the ``(n, n, 2K)`` masked edge tensor is not materialised
    #: and edges are recomputed inside each DP step instead (identical bits,
    #: roughly 2x slower per move).  n=240 at K=32 fits in ~30 MB.
    MAX_TENSOR_BYTES = 256 * 1024 * 1024
    #: Soft cap on total cost-trace entries across all chains: the effective
    #: trace stride is raised above ``schedule.trace_stride`` when
    #: ``chains * temperatures`` would exceed it, so K-chain runs at long
    #: schedules stay bounded instead of holding one float per chain per
    #: temperature forever.
    MAX_TRACE_ENTRIES = 8192

    def __init__(
        self,
        packer,
        schedule: AnnealingSchedule | None = None,
        chains: int = 1,
        seed: int = 0,
        initial: SequencePair | None = None,
    ) -> None:
        if chains < 1:
            raise ValueError(f"chains must be >= 1, got {chains}")
        context = packer._context
        if context is None:
            raise ValueError("BatchedAnnealer needs a non-empty block set")
        self.packer = packer
        self.context = context
        self.schedule = schedule or AnnealingSchedule()
        self.chains = K = int(chains)
        self.seed = seed
        self.names = context.names
        self.n = n = context._n
        self.rebase_interval = int(packer.REBASE_INTERVAL)
        self._has_model = packer._model_reductions is not None
        self._reductions = packer._model_reductions
        self._vsb = packer._model_vsb

        # Per-chain RNG streams.  random.Random consumption is
        # data-dependent (MT19937 rejection sampling), so a stacked
        # generator cannot reproduce solo trajectories; one small Python
        # loop per move samples all K streams instead.
        self._rngs = [random.Random(seed + c) for c in range(K)]
        self._range_n = range(n)

        # Stacked permutations, canonical block order: (K, n).
        self.by_rank = np.empty((K, n), dtype=np.intp)
        self.order = np.empty((K, n), dtype=np.intp)
        self.rank_of = np.empty((K, n), dtype=np.intp)
        self.pos_of = np.empty((K, n), dtype=np.intp)
        index = context.index
        arange_n = self._arange_n = np.arange(n, dtype=np.intp)
        for c, rng in enumerate(self._rngs):
            pair = initial
            if pair is None:
                pair = SequencePair.initial(self.names, rng)
            self.by_rank[c] = [index[nm] for nm in pair.positive]
            self.order[c] = [index[nm] for nm in pair.negative]
            self.rank_of[c, self.by_rank[c]] = arange_n
            self.pos_of[c, self.order[c]] = arange_n

        # Position-major stacked geometry: (n, M) with M = 2K columns
        # (x-problems first, y-problems — with negated ranks — second).
        M = self._m = 2 * K
        self.W = np.empty((n, M))
        self.G1 = np.empty((n, M))
        self.G2 = np.empty((n, M))
        self.R = np.empty((n, M))
        for c in range(K):
            self._load_columns(c)

        tensor_bytes = n * n * M * 8
        self._tensor = n >= 2 and tensor_bytes <= self.MAX_TENSOR_BYTES
        self._E = None
        if self._tensor:
            self._build_tensor()

        # DP state + scratch (allocated once, reused every move).
        self._xs = np.zeros((n, M))
        self._dpbuf = np.empty((n, M))
        self._dpmask = np.empty((n, M), dtype=bool)
        self._sumbuf = np.empty((n, M))
        self._extbuf = np.empty(M)
        self._inxbuf = np.empty((n, K), dtype=bool)
        self._inybuf = np.empty((n, K), dtype=bool)
        self._chain_rows = np.arange(K, dtype=np.intp)[:, None]
        self._chain_ids = np.arange(K, dtype=np.intp)

        # Cost caches (the delta-cost protocol, rows = chains).
        self._cand_mask = np.empty((K, n), dtype=bool)
        self._chgbuf = np.empty((K, n), dtype=bool)
        self.base_mask = np.empty((K, n), dtype=bool)
        num_regions = len(self._vsb) if self._has_model else 0
        self.base_times = np.empty((K, num_regions))
        self._cand_times = np.empty((K, num_regions))
        self._deltas_since_rebase = 0
        self._ovbuf = np.empty(K)
        self._ovbuf2 = np.empty(K)
        self._costbuf = np.empty(K)
        self._wlim = packer.width + 1e-9
        self._hlim = packer.height + 1e-9
        self._denom = max(packer.width, 1.0)

    # ------------------------------------------------------------------ #
    # Stacked-state construction
    # ------------------------------------------------------------------ #
    def _load_columns(self, c: int) -> None:
        """(Re)build chain ``c``'s stacked geometry/rank columns."""
        context = self.context
        K = self.chains
        o = self.order[c]
        ranks = self.rank_of[c, o].astype(np.float64)
        self.R[:, c] = ranks
        self.R[:, K + c] = -ranks
        self.W[:, c] = context.widths[o]
        self.W[:, K + c] = context.heights[o]
        self.G1[:, c] = context.blank_right[o]
        self.G1[:, K + c] = context.blank_top[o]
        self.G2[:, c] = context.blank_left[o]
        self.G2[:, K + c] = context.blank_bottom[o]

    def _build_tensor(self) -> None:
        """Materialise the full masked edge tensor ``E``."""
        n, M = self.n, self._m
        self._E = E = np.empty((n, n, M))
        tmp = np.empty((n, M))
        for k in range(n):
            np.minimum(self.G1, self.G2[k], out=tmp)
            np.subtract(self.W, tmp, out=tmp)
            E[k] = np.where(self.R < self.R[k], tmp, _NEG_INF)

    def _rebuild_tensor_columns(self, c: int) -> None:
        """Rebuild chain ``c``'s two tensor slabs (after a restart)."""
        K = self.chains
        for m in (c, K + c):
            rm = self.R[:, m]
            edges = self.W[:, m][None, :] - np.minimum(
                self.G1[:, m][None, :], self.G2[:, m][:, None]
            )
            self._E[:, :, m] = np.where(rm[None, :] < rm[:, None], edges, _NEG_INF)

    # ------------------------------------------------------------------ #
    # Batched longest-path DP
    # ------------------------------------------------------------------ #
    def _dp(self) -> None:
        """Recompute all chains' x/y coordinates (Gamma- order) in ``_xs``.

        Per step, every candidate is ``xs[p] + (W[p] - min(G1[p], G2[k]))``
        exactly as in :meth:`PackingContext.pack_arrays` (the edge is formed
        *before* adding ``xs``, preserving float association), and the
        masked fold equals ``maximum.reduce(..., where=mask, initial=0.0)``:
        with the tensor, unmasked entries are ``-inf`` and a reduce with
        ``initial=0.0`` ignores them; without it, candidates are multiplied
        by the boolean mask (zeroing unmasked entries — multiplying by 1.0
        is exact) and reduced the same way.  Both give
        ``max(0, masked candidates)``.  ``maximum.reduce`` is called
        directly (not via ``np.max``) to skip the ``fromnumeric`` wrapper —
        at ~50k reduces per run the wrapper alone costs double-digit
        percent.
        """
        xs = self._xs
        xs[0, :] = 0.0
        buf = self._dpbuf
        max_reduce = np.maximum.reduce
        if self._tensor:
            E = self._E
            for k in range(1, self.n):
                b = buf[:k]
                np.add(xs[:k], E[k, :k], out=b)
                max_reduce(b, axis=0, out=xs[k], initial=0.0)
        else:
            W, G1, G2, R = self.W, self.G1, self.G2, self.R
            maskbuf = self._dpmask
            for k in range(1, self.n):
                b = buf[:k]
                m = maskbuf[:k]
                np.minimum(G1[:k], G2[k], out=b)
                np.subtract(W[:k], b, out=b)
                np.add(b, xs[:k], out=b)
                np.less(R[:k], R[k], out=m)
                np.multiply(b, m, out=b)
                max_reduce(b, axis=0, out=xs[k], initial=0.0)

    # ------------------------------------------------------------------ #
    # Vectorized move application (and — by involution — undo)
    # ------------------------------------------------------------------ #
    def _apply_moves(self, kinds, ii, jj, chain_subset):
        """Apply the sampled swaps on ``chain_subset`` rows.

        Every swap is an involution, so calling this again with the same
        arguments *reverts* the move for those chains — this is the masked
        undo path for rejected chains.  Tensor rows/columns of the two
        touched Gamma- positions are refreshed from the current (possibly
        restored) state, so undo restores them bit-exactly.
        """
        sub_kinds = kinds[chain_subset]
        K = self.chains
        touched_chains = []
        touched_u = []
        touched_v = []

        cs = chain_subset[sub_kinds == 0]
        if cs.size:  # swap_positive: Gamma+ ranks i<->j, geometry untouched
            i, j = ii[cs], jj[cs]
            a = self.by_rank[cs, i]
            b = self.by_rank[cs, j]
            self.by_rank[cs, i] = b
            self.by_rank[cs, j] = a
            self.rank_of[cs, a] = j
            self.rank_of[cs, b] = i
            pa = self.pos_of[cs, a]
            pb = self.pos_of[cs, b]
            jf = j.astype(np.float64)
            if_ = i.astype(np.float64)
            R = self.R
            R[pa, cs] = jf
            R[pb, cs] = if_
            R[pa, cs + K] = -jf
            R[pb, cs + K] = -if_
            touched_chains.append(cs)
            touched_u.append(pa)
            touched_v.append(pb)

        cs = chain_subset[sub_kinds == 1]
        if cs.size:  # swap_negative: Gamma- positions i<->j (occupants move)
            i, j = ii[cs], jj[cs]
            a = self.order[cs, i]
            b = self.order[cs, j]
            self.order[cs, i] = b
            self.order[cs, j] = a
            self.pos_of[cs, a] = j
            self.pos_of[cs, b] = i
            cols = np.concatenate([cs, cs + K])
            i2 = np.concatenate([i, i])
            j2 = np.concatenate([j, j])
            for arr in (self.R, self.W, self.G1, self.G2):
                tmp = arr[i2, cols]
                arr[i2, cols] = arr[j2, cols]
                arr[j2, cols] = tmp
            touched_chains.append(cs)
            touched_u.append(i)
            touched_v.append(j)

        cs = chain_subset[sub_kinds == 2]
        if cs.size:  # swap_both: ranks i<->j then the occupants' positions
            i, j = ii[cs], jj[cs]
            a = self.by_rank[cs, i]
            b = self.by_rank[cs, j]
            self.by_rank[cs, i] = b
            self.by_rank[cs, j] = a
            self.rank_of[cs, a] = j
            self.rank_of[cs, b] = i
            pa = self.pos_of[cs, a]
            pb = self.pos_of[cs, b]
            self.order[cs, pa] = b
            self.order[cs, pb] = a
            self.pos_of[cs, a] = pb
            self.pos_of[cs, b] = pa
            # Net rank at each touched position is unchanged (the occupant
            # and the rank swap together), so R stays put; only geometry
            # columns exchange between the two positions.
            cols = np.concatenate([cs, cs + K])
            pa2 = np.concatenate([pa, pa])
            pb2 = np.concatenate([pb, pb])
            for arr in (self.W, self.G1, self.G2):
                tmp = arr[pa2, cols]
                arr[pa2, cols] = arr[pb2, cols]
                arr[pb2, cols] = tmp
            touched_chains.append(cs)
            touched_u.append(pa)
            touched_v.append(pb)

        if self._tensor and touched_chains:
            self._refresh_edges(
                np.concatenate(touched_chains),
                np.concatenate(touched_u),
                np.concatenate(touched_v),
            )

    def _refresh_edges(self, cs, u, v) -> None:
        """Refresh tensor rows+columns of positions ``u``/``v`` per chain.

        A swap perturbs entries of ``E[:, :, m]`` involving the two touched
        positions only: their row (position as DP successor) and column
        (position as predecessor), for both the x and y slab of each chain.
        Values are recomputed from the same formula the full build uses, so
        maintained entries never drift from a fresh rebuild.
        """
        K = self.chains
        m_vec = np.concatenate([cs, cs + K, cs, cs + K])
        p_vec = np.concatenate([u, u, v, v])
        R, W, G1, G2, E = self.R, self.W, self.G1, self.G2, self._E
        # Work in (L, n) orientation, L = 4 * len(cs): row-gathers of the
        # transposed views are contiguous, and both scatters below then take
        # their value arrays without a transpose walk.
        rt = R.T[m_vec]
        wt = W.T[m_vec]
        g1t = G1.T[m_vec]
        g2t = G2.T[m_vec]
        rp = R[p_vec, m_vec][:, None]
        rows = np.where(
            rt < rp, wt - np.minimum(g1t, G2[p_vec, m_vec][:, None]), _NEG_INF
        )
        E[p_vec, :, m_vec] = rows
        cols = np.where(
            rp < rt,
            W[p_vec, m_vec][:, None] - np.minimum(G1[p_vec, m_vec][:, None], g2t),
            _NEG_INF,
        )
        # Adjacent advanced indices keep the broadcast dims in place, so the
        # indexed view is (n, L); cols is (L, n).
        E[:, p_vec, m_vec] = cols.T

    # ------------------------------------------------------------------ #
    # Cost evaluation (mirrors FixedOutlinePacker._inplace_cost)
    # ------------------------------------------------------------------ #
    def _geometry(self):
        """Bounding boxes and canonical inside masks of all chains."""
        K = self.chains
        S = self._sumbuf
        np.add(self._xs, self.W, out=S)
        ext = np.maximum.reduce(S, axis=0, out=self._extbuf)
        pw = ext[:K]
        ph = ext[K:]
        in_o = np.less_equal(S[:, :K], self._wlim, out=self._inxbuf)
        np.less_equal(S[:, K:], self._hlim, out=self._inybuf)
        in_o &= self._inybuf
        mask = self._cand_mask
        mask[self._chain_rows, self.order] = in_o.T
        return pw, ph, mask

    def _penalized(self, writing_times, pw, ph):
        """Vectorized :meth:`FixedOutlinePacker._penalized_dims`."""
        ov = self._ovbuf
        np.subtract(pw, self.packer.width, out=ov)
        np.maximum(ov, 0.0, out=ov)
        ov2 = self._ovbuf2
        np.subtract(ph, self.packer.height, out=ov2)
        np.maximum(ov2, 0.0, out=ov2)
        ov += ov2
        np.multiply(ov, self.packer.area_weight, out=ov)
        ov /= self._denom
        ov += 1.0
        return np.multiply(writing_times, ov, out=self._costbuf)

    def _evaluate_initial(self) -> np.ndarray:
        """Full first evaluation: seeds the base mask/times caches."""
        self._dp()
        pw, ph, mask = self._geometry()
        if not self._has_model:
            return self._costs_without_model(mask, pw, ph).copy()
        reductions = self._reductions
        for c in range(self.chains):
            self.base_times[c] = self._vsb - reductions[mask[c]].sum(axis=0)
        self.base_mask[:] = mask
        writing_times = self.base_times.max(axis=1)
        return self._penalized(writing_times, pw, ph).copy()

    def _evaluate(self):
        """Candidate costs of the current (mutated) configurations.

        Returns ``(costs, mask, times)``; the mask/times buffers are reused
        every move, so accepted rows must be *copied* into the base caches.
        The per-chain delta fold below intentionally stays a Python loop
        over only the chains whose inside/outside status changed: NumPy's
        pairwise summation depends on the number of rows summed, so folding
        all chains through one matmul would change low bits vs. solo runs.
        """
        pw, ph, mask = self._geometry()
        if not self._has_model:
            return self._costs_without_model(mask, pw, ph), mask, None
        changed = np.not_equal(mask, self.base_mask, out=self._chgbuf)
        cand_times = self._cand_times
        np.copyto(cand_times, self.base_times)
        reductions = self._reductions
        # Hoist the boolean algebra out of the per-chain loop: two (K, n)
        # ufuncs replace two (n,) ufuncs per changed chain.  Only the
        # reduction-row sums stay per chain (see docstring).
        entered_all = mask & changed
        left_all = self.base_mask & changed
        entered_any = entered_all.any(axis=1)
        left_any = left_all.any(axis=1)
        for c in np.nonzero(entered_any | left_any)[0]:
            if entered_any[c]:
                cand_times[c] -= reductions[entered_all[c]].sum(axis=0)
            if left_any[c]:
                cand_times[c] += reductions[left_all[c]].sum(axis=0)
        self._deltas_since_rebase += 1
        if self._deltas_since_rebase >= self.rebase_interval:
            self._deltas_since_rebase = 0
            for c in range(self.chains):
                cand_times[c] = self._vsb - reductions[mask[c]].sum(axis=0)
            _REBASES.inc(scope="region-times")
            emit(
                "rebase",
                scope="region-times",
                interval=self.rebase_interval,
                chains=self.chains,
            )
        writing_times = np.maximum.reduce(cand_times, axis=1)
        return self._penalized(writing_times, pw, ph), mask, cand_times

    def _costs_without_model(self, mask, pw, ph) -> np.ndarray:
        """Callback-based costs (no region-time model): per-chain Python."""
        packer = self.packer
        names = self.names
        costs = self._costbuf
        for c in range(self.chains):
            inside = {names[i] for i in np.nonzero(mask[c])[0]}
            writing_time = packer.writing_time_of(inside)
            costs[c] = packer._penalized_dims(
                writing_time, float(pw[c]), float(ph[c])
            )
        return costs

    # ------------------------------------------------------------------ #
    # The annealing loop
    # ------------------------------------------------------------------ #
    def _effective_stride(self, num_temperatures: int) -> int:
        stride = max(1, self.schedule.trace_stride)
        cap_stride = -(-num_temperatures * self.chains // self.MAX_TRACE_ENTRIES)
        return max(stride, cap_stride, 1)

    def run(self) -> BatchedAnnealingResult:
        schedule = self.schedule
        K = self.chains
        n = self.n
        kinds = np.empty(K, dtype=np.intp)
        ii = np.empty(K, dtype=np.intp)
        jj = np.empty(K, dtype=np.intp)
        chain_ids = self._chain_ids
        rngs = self._rngs
        null_moves = n < 2

        cur_costs = self._evaluate_initial()
        scales = np.maximum(np.abs(cur_costs), 1.0)
        best_costs = cur_costs.copy()
        best_by_rank = self.by_rank.copy()
        best_order = self.order.copy()

        temperatures = list(schedule.temperatures())
        stride = self._effective_stride(len(temperatures))
        traces = [cur_costs.copy()]
        sampler_steps = 0

        moves = 0
        accepted_count = np.zeros(K, dtype=np.int64)
        proposed = np.zeros((K, len(KIND_NAMES)), dtype=np.int64)
        accepted = np.zeros_like(proposed)
        improved = np.zeros_like(proposed)
        restarts = np.zeros(K, dtype=np.int64)
        restart_after = schedule.restart_after
        temps_since_improve = np.zeros(K, dtype=np.int64)
        improved_this_temp = np.zeros(K, dtype=bool)

        for temperature in temperatures:
            effective_t = temperature * scales
            for _ in range(schedule.moves_per_temperature):
                if moves >= schedule.max_total_moves:
                    break
                moves += 1
                if null_moves:
                    kinds.fill(3)
                else:
                    for c in range(K):
                        rng = rngs[c]
                        # _randbelow(3) is what rng.randrange(3) consumes;
                        # _sample_two mirrors rng.sample(range(n), 2).
                        kinds[c] = rng._randbelow(3)
                        i, j = _sample_two(rng, n)
                        ii[c] = i
                        jj[c] = j
                    self._apply_moves(kinds, ii, jj, chain_ids)
                    self._dp()
                cand_costs, cand_mask, cand_times = self._evaluate()
                proposed[chain_ids, kinds] += 1
                deltas = cand_costs - cur_costs
                accept = deltas <= 0.0
                if not accept.all():
                    for c in np.nonzero(~accept)[0]:
                        # The conditional Metropolis draw must stay per
                        # chain: solo runs only consume rng.random() when
                        # delta > 0, and math.exp matches their bits.
                        u01 = rngs[c].random()
                        if u01 < math.exp(
                            -deltas[c] / max(effective_t[c], 1e-12)
                        ):
                            accept[c] = True
                    rejected = np.nonzero(~accept)[0]
                    if rejected.size and not null_moves:
                        self._apply_moves(kinds, ii, jj, rejected)
                if accept.any():
                    cur_costs[accept] = cand_costs[accept]
                    if self._has_model:
                        self.base_mask[accept] = cand_mask[accept]
                        self.base_times[accept] = cand_times[accept]
                    accepted_count += accept
                    acc_idx = chain_ids[accept]
                    accepted[acc_idx, kinds[accept]] += 1
                    strict = accept & (deltas < 0.0)
                    if strict.any():
                        improved[chain_ids[strict], kinds[strict]] += 1
                    better = cur_costs < best_costs
                    if better.any():
                        idxs = np.nonzero(better)[0]
                        best_costs[idxs] = cur_costs[idxs]
                        best_by_rank[idxs] = self.by_rank[idxs]
                        best_order[idxs] = self.order[idxs]
                        improved_this_temp |= better
                        for c in idxs:
                            emit(
                                "incumbent",
                                cost=float(best_costs[c]),
                                moves=moves,
                                chain=int(c),
                            )
            sampler_steps += 1
            if sampler_steps % stride == 0:
                traces.append(cur_costs.copy())
            emit(
                "temperature",
                temperature=temperature,
                cost=float(cur_costs.min()),
                moves=moves,
                chains=K,
            )
            if restart_after is not None and restart_after > 0 and not null_moves:
                temps_since_improve = np.where(
                    improved_this_temp, 0, temps_since_improve + 1
                )
                improved_this_temp[:] = False
                stale = temps_since_improve >= restart_after
                if stale.any():
                    idxs = np.nonzero(stale)[0]
                    self._restart(idxs, best_by_rank, best_order)
                    cur_costs[idxs] = best_costs[idxs]
                    temps_since_improve[idxs] = 0
                    restarts[idxs] += 1
            if moves >= schedule.max_total_moves:
                break
        if sampler_steps % stride != 0:
            traces.append(cur_costs.copy())

        names = self.names
        best_pairs = [
            SequencePair(
                positive=tuple(names[b] for b in best_by_rank[c]),
                negative=tuple(names[b] for b in best_order[c]),
            )
            for c in range(K)
        ]
        # End-of-run accounting only (see repro.floorplan.annealing): moves
        # counts chain-moves (K per dispatch) so engines are comparable.
        _ANNEAL_RUNS.inc(engine="batched")
        _ANNEAL_MOVES.inc(moves * K, engine="batched")
        _ANNEAL_ACCEPTS.inc(int(accepted_count.sum()), engine="batched")
        return BatchedAnnealingResult(
            chains=K,
            best_pairs=best_pairs,
            best_costs=best_costs,
            best_chain=int(np.argmin(best_costs)),
            moves=moves,
            accepted=accepted_count,
            cost_traces=np.stack(traces, axis=0),
            proposed_by_kind=proposed,
            accepted_by_kind=accepted,
            improved_by_kind=improved,
            restarts=restarts,
            effective_trace_stride=stride,
        )

    def _restart(self, idxs, best_by_rank, best_order) -> None:
        """Reset stale chains to their best-known state (restart_after).

        Restarted chains resume from their incumbent permutation with fully
        re-derived caches; their RNG streams are untouched, so the remaining
        chains' trajectories are unaffected.  (Restarts are off by default —
        the bit-identity contract vs. solo runs only covers
        ``restart_after=None``.)
        """
        arange_n = self._arange_n
        for c in idxs:
            self.by_rank[c] = best_by_rank[c]
            self.order[c] = best_order[c]
            self.rank_of[c, self.by_rank[c]] = arange_n
            self.pos_of[c, self.order[c]] = arange_n
            self._load_columns(c)
            if self._tensor:
                self._rebuild_tensor_columns(int(c))
        if self._has_model:
            self._dp()
            _, _, mask = self._geometry()
            reductions = self._reductions
            for c in idxs:
                self.base_mask[c] = mask[c]
                self.base_times[c] = self._vsb - reductions[mask[c]].sum(axis=0)
