"""Reference implementations the equivalence and property tests compare against.

The planner ships one implementation per concern.  The slower, simpler
references it is checked against live here, imported as ``tests.oracles``
(the repository root must be on ``sys.path``, as it is under
``python -m pytest``):

* :mod:`tests.oracles.simplex` — a dense two-phase simplex (vs. HiGHS
  ``linprog``) and the ``IterationLimitError`` it raises,
* :mod:`tests.oracles.branch_and_bound` — LP-based branch & bound (vs.
  HiGHS ``milp``),
* :mod:`tests.oracles.annealing` — the copy-based annealing engine, its
  proposal ``random_neighbor`` over the three sequence-pair swaps, and its
  fixed-outline cost path with the full re-score (vs. the mutate/undo
  engine: bit-identical trajectories),
* :mod:`tests.oracles.packing` — the batch NumPy sequence-pair packer
  ``PackingContext`` (vs. the incremental packer: bit-identical
  coordinates),
* :mod:`tests.oracles.clustering` — the O(n^2) scan ``ScanIndex`` (vs. the
  KD-tree range query: identical clusters),
* :mod:`tests.oracles.matching` — the pure-Python Hungarian algorithm and
  SciPy's assignment solver (vs. the NumPy Hungarian),
* :mod:`tests.oracles.kernels` — loop-based profits and region writing times
  (vs. the vectorized kernels).
"""
