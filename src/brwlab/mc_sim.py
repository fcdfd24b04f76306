"""Monte Carlo particle engines for one-type and two-type branching walks.

Replicates simulate generation by generation.  While the population is
at or below the particle budget the branching is exact and positions
are retained for count profiles; beyond the budget the engine keeps
the highest positions within a window of the running maximum
(rightmost-selection pruning), which leaves one-type rightmost-particle
statistics essentially untouched but biases counts, so count profiles
are only ever read from exact generations.  Under a two-type anomaly
pruning does bias the rightmost eta low: the anomalous front is led by
eta lineages seeded far behind the running eta maximum, which the beam
discards, so the worked example (speed 4/sqrt 6 = 1.633) measures about
1.399 at n=300.  ``front.coupled_front`` gives that law exactly.

A law runs as a two-type system with no eta class.  One beam,
``_beam``, serves ``run_one_type`` and ``run_two_type``, and returns one
record, ``TrajectoryStats``, whose ``rightmost_eta`` is all NaN for a
law.  Each class branches through ``_branch`` and prunes through
``_prune``, in place.  The last generation, read only for its maxima,
is drawn as every other is, so an exact one-type run keeps its
positions, but never pruned.

One exact-batch engine, ``rightmost_batch``, draws many unpruned
replicates jointly in chunks, through one routine, ``_rightmost``: of a
two-type system it reads the rightmost eta (NaN where there is none),
of a law, run as a system with no eta class, the rightmost particle.
Its last generation draws the read class (and seeds) alone.  It raises
before any child is drawn past its cap, so no replicate is ever pruned
and none needs checking.

A beam generation born with more than ``THIN_GATE`` times its budget is
thinned: every family size is drawn, but only the children that can
survive the prune get a position, from the step law conditioned above
a cut placed from the parents (``_thinned``).  The kept set keeps its
exact law, and a generation with too few children above the cut draws
the rest below it.  The reversed worked example's eta beam (families
of mean e^3) draws about 1.8 children per kept one instead of 20; beams
born below the gate, such as the unit one-type beam, draw every child
and keep their streams.  ``pruning`` counts the children born but not
kept, and ``drawn`` those given a position.

For the large exact censuses the count-profile checks need (population
way past any per-particle budget), a binned engine propagates exact
particle counts on a position lattice instead of individual particles,
for both mechanisms: a site with fewer movers than the step has cells
draws each mover's cell from an alias table, and the others spread by
one multinomial call per block of sites, with the step's cells in
decreasing mass (``_land``).

Reproducibility: every run draws from the one stream
``replicate_rng(seed)`` of its own seed, and callers seed replicate r
as ``replicate_rng(base + r)``, so results are independent of
scheduling and bit-identical across runs.  A census draws from two
streams: its own and that stream's first spawned child, which draws
the second half of each generation's dense blocks on a worker thread;
the split is fixed by the blocks alone, so a census does not depend on
the threads' timing or the CPU count.  An exact batch draws all of
its replicates from the one stream it is given, so batches of seeds s
and s + 1 share none.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import Executor, ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import BudgetError, StateError
from .models import INT64_MAX, ReproductionLaw, Seeding, TwoTypeSystem

# Particle cap of every exact (unpruned) population: the joint population
# of a ``rightmost_batch`` chunk, both classes of a two-type one together.
EXACT_POPULATION_CAP = 4_000_000
# Expected population of a ``rightmost_batch`` chunk at generation n - 1,
# the larger class's; the read class's last generation is about its mean
# family size times as large.  Chunks this small reuse the heap's memory:
# inside a ``particles`` round check 9's batch (100,000 replicates, n = 8)
# took a median 0 minor faults against 94,000 at 2^19, whose chunks the
# heap gave back and faulted in again, and 1.08 s against 1.25 s
# normalized (BENCH_25).  In a fresh process 2^14 ran about 15% slower,
# and 2^16 no faster, with 88,000 faults on its first call.
BATCH_PARTICLES = 2 ** 15
CENSUS_BLOCK = 64     # dense sites per multinomial call of a census
STEP_BLOCK = 2 ** 15  # independent steps drawn per call of a step sampler

# Thinned branching (``_thinned``).  A beam generation born with more than
# THIN_GATE times its budget draws only the children expected to survive
# the prune, THIN_MARGIN budgets of them.  Below the gate the per-parent
# binomials cost more than the steps they save: the unit one-type beam
# (born/kept about e) ran 1.6x slower thinned, the reversed worked
# example's eta beam (born/kept about e^3) 2.7x faster.
THIN_GATE = 4
THIN_MARGIN = 1.3
CUT_BINS = 128         # position cells the cut is placed from
CUT_GRID = 32          # cuts tried at once, in each of CUT_ROUNDS
CUT_ROUNDS = 2         # so the cut falls within 1/1024 of its bracket


def replicate_rng(seed: int) -> np.random.Generator:
    """The stream of one run: the first counter-mixed child of its seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))


def map_replicates(run: Callable, jobs: Sequence, workers: int) -> list:
    """``[run(job) for job in jobs]``, in a pool of processes when more than
    one is used, so ``run`` must then be a module-level function.

    The pool has min(workers, len(jobs), usable CPUs) processes: on Linux
    it starts them all at once, so an uncapped ``workers`` would fork
    that many.  Every replicate seeds its own stream, so the results do
    not depend on the pool size."""
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    workers = min(workers, len(jobs), cpus)
    if workers <= 1:
        return [run(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(run, jobs))   # in the order of jobs


@dataclass
class GenerationCensus:
    """Exact particle counts on a position lattice of pitch ``h``."""

    h: float
    start_index: int
    counts: np.ndarray  # int64, counts[i] particles at (start_index + i) * h

    def count_at_least(self, x: float) -> int:
        """Exact number of particles at lattice positions >= x."""
        j = int(math.ceil(x / self.h - 1e-12))
        i = max(j - self.start_index, 0)
        if i >= self.counts.size:
            return 0
        return int(self.counts[i:].sum())


@dataclass
class TrajectoryStats:
    """Per-replicate record of one run: rightmost positions and exact censuses.

    ``rightmost`` reads the nu class (a law's one class) and
    ``rightmost_eta`` the eta class, NaN in generations with no eta, as
    in every generation of a law."""

    seed: int
    rightmost: np.ndarray                  # index n -> M_n, n = 0..n_max
    exact_upto: int                        # last generation with exact census
    exact_positions: Optional[List[np.ndarray]] = None
    census: Optional[List[GenerationCensus]] = None
    pruning: dict = field(default_factory=dict)
    rightmost_eta: Optional[np.ndarray] = None     # None: all NaN

    def __post_init__(self):
        if self.rightmost_eta is None:
            self.rightmost_eta = np.full(len(self.rightmost), np.nan)


def _branch(law: ReproductionLaw, positions: np.ndarray,
            rng: np.random.Generator, budget: Optional[int] = None) -> Tuple[int, np.ndarray]:
    """One branching step of a class: the number born, and the children.

    Every family size is drawn.  A pruned beam passes its ``budget``;
    when its generation is born with more than ``THIN_GATE`` times that
    many children, only those that can survive the prune are drawn (see
    ``_thinned``).  Otherwise every child is drawn.  Either way the kept
    set, the top ``budget`` children within the caller's window, has its
    exact law, and so has the generation's maximum.

    An empty generation makes size-0 draws, which leave ``rng`` where it
    was.
    """
    counts = law.offspring.sample(rng, positions.size)
    born = int(counts.sum())
    if budget is not None and born > THIN_GATE * budget:
        return born, _thinned(law, positions, counts, rng, budget)
    return born, _children(law, positions, counts, rng)


def _children(law: ReproductionLaw, positions: np.ndarray, counts: np.ndarray,
              rng: np.random.Generator, tail: Optional[np.ndarray] = None,
              **cut) -> np.ndarray:
    """``counts[i]`` children of each ``positions[i]``, in parent order.

    ``cut`` is empty, or ``above=c`` or ``below=c``: every child is then
    drawn conditioned on landing above c (or at or below it), through
    the step law's ``sample``.  With ``above``, ``tail`` may hold each
    parent's P(X > c - x_i), which the step law then reads instead of
    evaluating it per child.  Under the ``common`` mechanism the
    condition falls on each family's one step, and the families with
    no children here draw none.
    """
    if law.mechanism == "common":
        if cut:
            live = counts > 0
            positions, counts = positions[live], counts[live]
            tail = None if tail is None else tail[live]
        steps = law.displacement.sample(
            rng, positions.size, tail=tail,
            **{side: c - positions for side, c in cut.items()})
        return np.repeat(positions + steps, counts)
    children = np.repeat(positions, counts)
    if tail is not None:
        tail = np.repeat(tail, counts)
    # Steps are drawn and added in place a block at a time, which uses
    # the generator exactly as one call would: a child-sized array of
    # steps would be fresh memory every generation, and its page faults
    # cost a unit beam a tenth of its time.
    for start in range(0, children.size, STEP_BLOCK):
        block = children[start:start + STEP_BLOCK]
        masses = None if tail is None else tail[start:start + STEP_BLOCK]
        block += law.displacement.sample(
            rng, block.size, tail=masses, **{side: c - block for side, c in cut.items()})
    return children


def _thinned(law: ReproductionLaw, positions: np.ndarray, counts: np.ndarray,
             rng: np.random.Generator, budget: int) -> np.ndarray:
    """The children of a generation that can survive a prune to ``budget``.

    A cut c is placed so that about ``THIN_MARGIN * budget`` children are
    expected above it (``_cut``).  With s_i = P(X > c - x_i), parent i has
    Binomial(N_i, s_i) children above c (under ``common``, all N_i with
    probability s_i), and only those are drawn, from the step law
    conditioned above c - x_i, which reads s_i rather than evaluating it
    again for every child.  When they number at least ``budget``, a child
    below c is beaten by at least ``budget`` children above it, so every
    child of the top ``budget`` is among them and the prune keeps what it
    would keep from the full generation, whatever is added to it (the
    eta seeds of ``_beam``).  Otherwise the rest of every family is drawn
    below the cut, which completes the full generation exactly, with no
    resampling.
    """
    step = law.displacement
    cut = _cut(step, positions, counts, THIN_MARGIN * budget)
    prob = step.sf(cut - positions)
    if law.mechanism == "independent":
        upper = rng.binomial(counts, prob)
    else:
        upper = np.where(rng.random(positions.size) < prob, counts, 0)
    above = _children(law, positions, upper, rng, tail=prob, above=cut)
    if above.size >= budget:
        return above
    below = _children(law, positions, counts - upper, rng, below=cut)
    return np.concatenate([above, below])


def _cut(step, positions: np.ndarray, counts: np.ndarray, target: float) -> float:
    """A position with about ``target`` children expected above it.

    Narrows a bracket on sum_i N_i P(X > c - x_i), with the parents
    binned into ``CUT_BINS`` cells across their range and each cell read
    at its centre: each round reads ``CUT_GRID + 1`` evenly spaced cuts
    in one call of the step's ``sf`` and keeps the cell between the last
    cut with at least ``target`` children expected above it and the next.
    The cut needs no more precision than the cells give it: the count it
    leads to is drawn, not assumed.
    """
    lo, hi = float(positions.min()), float(positions.max())
    width = (hi - lo) / CUT_BINS or 1.0
    cell = np.minimum(((positions - lo) / width).astype(np.intp), CUT_BINS - 1)
    mass = np.bincount(cell, weights=counts, minlength=CUT_BINS)
    centres = lo + width * (np.arange(CUT_BINS) + 0.5)
    # every child is expected above -inf; a target past half of them is no cut
    target = min(target, 0.5 * mass.sum())

    def expected(cuts):
        """The children expected above each of ``cuts``, which falls as
        the cut rises."""
        return np.dot(step.sf(np.subtract.outer(cuts, centres)), mass)

    widen = 1.0
    while expected([lo])[0] < target:
        lo, widen = lo - widen, 2.0 * widen
    widen = 1.0
    while expected([hi])[0] > target:
        hi, widen = hi + widen, 2.0 * widen
    for _ in range(CUT_ROUNDS):
        cuts = np.linspace(lo, hi, CUT_GRID + 1)
        # lo met the target when it was read alone; a sum that rounds
        # otherwise here must not drop it from the bracket
        k = max(1, int(np.count_nonzero(expected(cuts) >= target)))
        lo, hi = cuts[k - 1], cuts[min(k, CUT_GRID)]
    return float(lo)


def _prune(children: np.ndarray, budget: int, window: float) -> np.ndarray:
    """Keep the budget highest positions among those within the window of the max.

    ``children`` is partitioned in place to its top ``budget``, which the
    window then cuts at their maximum, the generation's: the window is a
    threshold on value, so this keeps the same set as cutting first, in
    another order, with no copy of the whole generation.  The kept set
    is returned in an array of its own, never as a view of
    ``children``, so a beam holds one generation's array at a time.  A
    unit beam (n = 200, budget 1e5) that kept views held two, and unless
    a larger array had raised glibc's trim threshold first, the heap
    gave their pages back and faulted them in again: about 42,000 minor
    faults a run in a fresh process, against 1,200 with the copy.
    """
    top = children
    if children.size > budget:
        children.partition(children.size - budget)
        top = children[-budget:]
    floor = top.max() - window
    if top.min() >= floor:
        return top if top is children else top.copy()
    return top[top >= floor]


def _beam(sys: TwoTypeSystem, n_max: int, budget: int, window: float,
          seed: int) -> TrajectoryStats:
    """One replicate of both classes from a single nu-ancestor at the origin.

    Each class is pruned against its own running maximum (under an
    anomaly the eta front outruns the nu front).  Each class branches
    alone; a generation's eta seeds join its eta children, as born,
    before the prune.  The nu class is exact while every generation fits
    the budget, and exact generations keep their positions for later
    count profiles.  Generation ``n_max`` is
    read only for its maxima: it is drawn as every other is, but never
    pruned, and the ``pruning`` counts, ``nu``, ``eta`` and ``drawn``,
    cover generations 1 to ``n_max - 1``.  Raises BudgetError if a
    single family already overflows the budget at the first generation.
    """

    rng = replicate_rng(seed)
    pos = {"nu": np.zeros(1), "eta": np.empty(0)}
    m = {c: np.full(n_max + 1, np.nan) for c in pos}
    m["nu"][0] = 0.0
    exact_positions = [pos["nu"]]
    pruned = {"nu": 0, "eta": 0}
    drawn = {"nu": 0, "eta": 0}
    for n in range(1, n_max + 1):
        for c, law in (("nu", sys.law_nu), ("eta", sys.law_eta)):
            born, children = _branch(law, pos[c], rng, budget)
            if c == "nu":
                if n == 1 and born > budget:
                    raise BudgetError(f"family size {born} exceeds budget {budget} "
                                      "at generation 1")
                if len(exact_positions) == n and born <= budget:
                    exact_positions.append(children)
                seeds = _seeds(sys.seeding, pos["nu"], rng)[1]
            else:
                born += seeds.size
                children = np.concatenate([children, seeds])
            if n < n_max:
                drawn[c] += children.size
                if born > budget:
                    children = _prune(children, budget, window)
                    pruned[c] += born - children.size
            if children.size:
                m[c][n] = children.max()    # a prune keeps the maximum
            pos[c] = children
    return TrajectoryStats(seed=seed, rightmost=m["nu"], rightmost_eta=m["eta"],
                           exact_upto=len(exact_positions) - 1,
                           exact_positions=exact_positions,
                           pruning=dict(pruned, drawn=drawn))


def run_one_type(law: ReproductionLaw, n_max: int, budget: int = 100_000,
                 window: float = 15.0, seed: int = 0) -> TrajectoryStats:
    """Simulate one replicate of a one-type walk for ``n_max`` generations,
    as a two-type system with no eta class (``_beam``)."""
    return _beam(TwoTypeSystem(law, law, Seeding(0.0)), n_max, budget, window, seed)


def run_two_type(sys: TwoTypeSystem, n_max: int, budget: int = 100_000,
                 window: float = 15.0, seed: int = 0) -> TrajectoryStats:
    """Simulate one replicate of a two-type system for ``n_max``
    generations (``_beam``)."""
    return _beam(sys, n_max, budget, window, seed)


def _seeds(seeding: Seeding, nu: np.ndarray,
           rng: np.random.Generator) -> Tuple[np.ndarray, np.ndarray]:
    """One Bernoulli seed at most per nu family, placed relative to its
    parent ``nu[i]``: which families seeded, and the seeds.  Without
    seeding nothing is drawn."""
    if not seeding.prob:
        return np.zeros(nu.size, dtype=bool), np.empty(0)
    seeded = rng.random(nu.size) < seeding.prob
    return seeded, nu[seeded] + seeding.displacement.sample(rng, int(seeded.sum()))


@dataclass(frozen=True)
class _Cells:
    """A step's lattice cells in decreasing mass, prepared for a census.

    ``offset`` holds each cell's lattice offset from a site's first
    destination, ``keep`` and ``alias`` the pmf's alias table
    (``_alias_table``), and ``pvals`` what a dense site hands numpy's
    ``multinomial``.  numpy conditions cell i on pvals[i] / r_i, with
    r_0 = 1 and r_i = r_(i-1) - pvals[i-1] in float64, so ``pvals[i]``
    is r_i times cell i's exact conditional, q_i over the exact tail
    mass q_i + q_(i+1) + ..., and every cell is conditioned on its own
    tail however far numpy's remainder has drifted from it.
    """

    offset: np.ndarray
    keep: np.ndarray
    alias: np.ndarray
    pvals: np.ndarray


def _census_cells(q: np.ndarray, offset: np.ndarray) -> _Cells:
    """The ``_Cells`` of the pmf ``q`` over cells at ``offset``, both in
    decreasing mass."""
    live = np.count_nonzero(q)          # a cell of no mass gets no mover
    q, offset = q[:live], offset[:live]
    rest = np.cumsum(q[::-1])[::-1]     # the exact tail masses, summed smallest first
    pvals, r = [], 1.0
    for c in (q / rest).tolist():       # numpy's remainder, replayed
        pvals.append(r * c)
        r -= pvals[-1]
    return _Cells(offset, *_alias_table(q, offset), np.array(pvals))


def _alias_table(q: np.ndarray, offset: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Vose's alias table of the pmf ``q`` over cells at ``offset`` (IEEE
    TSE 17, 1991): column i, drawn with probability 1/len(q), keeps its
    own cell with probability ``keep[i]`` and otherwise takes the cell at
    ``alias[i]``."""
    k = q.size
    keep = (q * (k / q.sum())).tolist()
    alias = list(range(k))
    small = [i for i in range(k) if keep[i] < 1.0]
    large = [i for i in range(k) if keep[i] >= 1.0]
    while small and large:
        s, g = small.pop(), large.pop()
        alias[s] = g
        keep[g] = (keep[g] + keep[s]) - 1.0
        (small if keep[g] < 1.0 else large).append(g)
    for i in small + large:             # within rounding of 1
        keep[i] = 1.0
    return np.array(keep), offset[alias]


def _alias_draw(cells: _Cells, sources: np.ndarray,
                rng: np.random.Generator) -> np.ndarray:
    """The destination of one mover from each of ``sources``: a column by
    one uniform, then its own cell or its alias by a second, so a cell's
    mass is resolved to 2^-53 rather than to len(q) 2^-53.  Each mover's
    two uniforms are consecutive in the stream."""
    u = rng.random((sources.size, 2))
    col = (u[:, 0] * cells.keep.size).astype(np.intp)
    return sources + np.where(u[:, 1] < cells.keep[col], cells.offset[col],
                              cells.alias[col])


def _spread(cells: _Cells, sites: np.ndarray, rows: np.ndarray,
            rng: np.random.Generator, size: int) -> np.ndarray:
    """The movers landed on each of ``size`` sites, ``rows[i]`` of them
    from each of the dense ``sites``, by one multinomial call per block
    of ``CENSUS_BLOCK`` sites, whose chain of binomials stops at the last
    cell to get a mover."""
    landed = np.zeros(size, dtype=np.int64)
    for b in range(0, sites.size, CENSUS_BLOCK):
        dest = rng.multinomial(rows[b:b + CENSUS_BLOCK], cells.pvals)
        np.add.at(landed, (sites[b:b + CENSUS_BLOCK, None] + cells.offset).ravel(),
                  dest.ravel())
        del dest    # freed before the next block's draw: a lower peak
    return landed


def _land(cells: _Cells, sites: np.ndarray, movers: np.ndarray,
          rngs: Tuple[np.random.Generator, np.random.Generator],
          pool: Executor, size: int) -> np.ndarray:
    """The movers landed on each of ``size`` sites, ``movers[i]`` of them
    from each of ``sites``, spread over ``cells``.

    A site with fewer movers than the cells number is sparse: each of
    its movers draws its cell from the alias table (``_alias_draw``), in
    O(1).  The dense sites, in site order, spread by blocks (``_spread``):
    the first ceil(blocks / 2) blocks draw from the first of ``rngs``
    and the rest from the second, so a generation of one dense block or
    none draws nothing from the second.  The first stream then draws
    every sparse mover, site by site, summed by one ``np.bincount``.
    The second half runs on the ``pool``'s worker thread while this one
    draws the first stream's share: numpy's multinomial releases the
    GIL, so on two CPUs the two draw at once.  Each half has its own
    stream, so the counts do not depend on how the threads interleave.
    """
    few = movers < cells.keep.size
    dense, rows = sites[~few], movers[~few]
    half = -(-dense.size // (2 * CENSUS_BLOCK)) * CENSUS_BLOCK   # ceil(blocks / 2) blocks
    second = pool.submit(_spread, cells, dense[half:], rows[half:], rngs[1], size)
    landed = _spread(cells, dense[:half], rows[:half], rngs[0], size)
    moved = _alias_draw(cells, np.repeat(sites[few], movers[few]), rngs[0])
    landed += np.bincount(moved, minlength=size)
    landed += second.result()
    return landed


@functools.lru_cache(maxsize=1)
def _step_cells(step, pitch: float) -> Tuple[int, int, _Cells]:
    """The first and last of the step's lattice cells at ``pitch``, and
    its ``_Cells``, offset from a site's first destination.  The last
    step and pitch asked for are kept: a round of censuses, like check
    6's 64, runs one step at one pitch."""
    j, q = step.lattice_pmf(pitch)
    order = np.argsort(-q, kind="stable")   # cells in decreasing mass
    cells = _census_cells(q[order], (j - j[0])[order])
    for table in (cells.offset, cells.keep, cells.alias, cells.pvals):
        table.flags.writeable = False       # every census of the pair shares it
    return int(j[0]), int(j[-1]), cells


def run_count_census(law: ReproductionLaw, n_max: int, seed: int = 0,
                     pitch: float = 0.05) -> TrajectoryStats:
    """Exact generation censuses on a position lattice of the given pitch.

    Propagates particle counts per lattice site instead of particles,
    so populations far beyond any per-particle budget stay exact.  The
    simulated law is the pitch-quantized law.  A Gaussian step's
    cumulant differs from the continuum one by O(pitch^2), but
    ``lattice_pmf`` rounds each atom of a point-mass or two-point step
    to its cell, which moves the cumulant by O(pitch):
    ``TwoPoint(-0.2416, 0.8238)`` at pitch 0.05 runs as (-0.25, 0.80).
    Offspring totals are drawn in closed form, which restricts the
    engine to deterministic and geometric counts.

    One loop serves both mechanisms: each site's movers, its children
    (``independent``) or its families (``common``), land on the step's
    cells through ``_land``, which draws a sparse site's movers one by
    one from the step's alias table and a dense site's by a multinomial
    call, each cell conditioned on its exact tail mass.  Under
    ``common`` the families landed on each site are then sized together
    by one ``sum_sample`` call: totals of independent families add.

    The run draws from ``replicate_rng(seed)`` and, for the second half
    of each generation's dense blocks only, from that stream's first
    spawned child.  That half runs on a worker thread of this call's
    own, which ends with it: a process forked later, as
    ``map_replicates`` forks, would inherit a pool whose thread is
    gone.

    ``pruning["saturated"]`` is set at the first generation whose
    expected total exceeds INT64_MAX / 4, where its int64 counts could
    wrap; that generation is not drawn, and the run returns the
    generations before it, with ``exact_upto`` and ``rightmost`` cut to
    match.
    """

    # loaded by the first census rather than at import
    from concurrent.futures import ThreadPoolExecutor

    # the second is replicate_rng(seed).spawn(1)[0], built as numpy 1.24
    # allows, which has no Generator.spawn
    rngs = (replicate_rng(seed),
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0, 0))))
    rng = rngs[0]
    first_cell, last_cell, cells = _step_cells(law.displacement, pitch)
    common = law.mechanism == "common"
    start = 0
    counts = np.array([1], dtype=np.int64)
    m = np.zeros(n_max + 1)
    censuses = [GenerationCensus(pitch, start, counts)]
    saturated = False
    with ThreadPoolExecutor(max_workers=1) as pool:
        for n in range(1, n_max + 1):
            # Judged before the draw and summed in float64: once a total has
            # wrapped in int64 it can no longer tell that it did.
            expected = float(counts.sum(dtype=np.float64)) * law.offspring.mean
            if expected > INT64_MAX / 4:
                saturated = True
                break
            nz = np.flatnonzero(counts)
            movers = counts[nz] if common else law.offspring.sum_sample(rng, counts[nz])
            counts = _land(cells, nz, movers, rngs, pool,
                           counts.size + last_cell - first_cell)
            if common:
                filled = np.flatnonzero(counts)
                counts[filled] = law.offspring.sum_sample(rng, counts[filled])
            start += first_cell
            m[n] = (start + int(np.flatnonzero(counts)[-1])) * pitch
            censuses.append(GenerationCensus(pitch, start, counts))
    last = len(censuses) - 1
    return TrajectoryStats(seed=seed, rightmost=m[:last + 1], exact_upto=last,
                           census=censuses,
                           pruning={"saturated": saturated})


def count_profile(stats: TrajectoryStats, a_values: Sequence[float]):
    """Rows (a, n, (1/n) log count in [n a, inf)) for exact generations only.

    Zero counts are recorded as -inf, consistent with an infinite rate
    beyond the speed.  Raises StateError when the run kept no exact
    generations beyond the root.
    """

    if stats.exact_upto < 1:
        raise StateError("no exact generations available for count profiles")
    rows = []
    for n in range(1, stats.exact_upto + 1):
        if stats.census is not None:
            census = stats.census[n]
            counter = census.count_at_least
        else:
            pos = np.sort(stats.exact_positions[n])

            def counter(x, pos=pos):
                return pos.size - int(np.searchsorted(pos, x, side="left"))

        for a in a_values:
            c = counter(n * a)
            val = math.log(c) / n if c > 0 else -math.inf
            rows.append((float(a), n, val))
    return rows


@dataclass(frozen=True)
class SlopeFit:
    slope: float
    stderr: float


def centering_slope(stats: Sequence[TrajectoryStats], speed: float,
                    tilt: Optional[float] = None) -> SlopeFit:
    """Least-squares slope of mean rightmost position minus n*speed against log n.

    The fit runs over n in [n_max/4, n_max].  The returned
    standard error is the usual linear-regression one, useful only as a
    rough scale since adjacent generations are strongly dependent.
    """

    m = np.mean([s.rightmost for s in stats], axis=0)
    n_max = m.size - 1
    lo, hi = max(1, n_max // 4), n_max
    n = np.arange(lo, hi + 1)
    y = m[lo:hi + 1] - n * speed
    x = np.log(n)
    xc = x - x.mean()
    slope = float(np.dot(xc, y) / np.dot(xc, xc))
    resid = y - y.mean() - slope * xc
    dof = max(x.size - 2, 1)
    se = float(math.sqrt(np.dot(resid, resid) / dof / np.dot(xc, xc)))
    return SlopeFit(slope=slope, stderr=se)


def predicted_beam_deficit(law: ReproductionLaw, tilt: Optional[float],
                           budget: int) -> float:
    """Brunet-Derrida speed deficit of a beam of ``budget`` particles.

    pi^2 theta* k''(theta*) / (2 L^2) with L = log N + 3 log log N
    (Brunet & Derrida, PRE 56, 2597 (1997); Brunet, Derrida, Mueller &
    Munier, PRE 73, 056126 (2006)).  NaN without a tilt root, or for a
    budget below 3, where L is not positive.
    """
    if tilt is None or budget < 3:
        return math.nan
    _, (k2,) = law.cumulant_derivatives(tilt)
    L = math.log(budget) + 3.0 * math.log(math.log(budget))
    return math.pi ** 2 * tilt * float(k2) / (2.0 * L * L)


def rightmost_batch(model: Union[ReproductionLaw, TwoTypeSystem], n: int,
                    replicates: int, rng: np.random.Generator) -> np.ndarray:
    """Exact rightmost positions at generation ``n`` for many replicates at once.

    ``model`` is a two-type system started from one nu at the origin,
    whose rightmost eta is read, NaN in a replicate with no eta, or a
    law, run as a system with no eta class, whose rightmost particle is
    read.  Replicates are simulated jointly in flat arrays, which is
    what makes distributional checks at small n cheap, and every draw
    comes from ``rng``.  A chunk holds as many replicates as have about
    ``BATCH_PARTICLES`` particles between them at generation n - 1, and
    at most half of ``EXACT_POPULATION_CAP`` at generation n, by the
    larger class's expected population, at least one.  Raises
    BudgetError when the joint population of a chunk, or its read class
    at generation n, would exceed ``EXACT_POPULATION_CAP``, judged from
    the family sizes before any child is drawn.
    """

    read_eta = isinstance(model, TwoTypeSystem)
    sys = model if read_eta else TwoTypeSystem(model, model, Seeding(0.0))
    chunk = max(1, int(min(BATCH_PARTICLES / _expected_population(sys, n - 1),
                           EXACT_POPULATION_CAP / 2 / _expected_population(sys, n))))
    out = np.empty(replicates)
    for done in range(0, replicates, chunk):
        r = min(chunk, replicates - done)
        out[done:done + r] = _rightmost(sys, n, r, rng, read_eta)
    return out


def _expected_population(sys: TwoTypeSystem, n: int) -> float:
    """The expected size of the larger class at generation ``n`` of one
    replicate (inf past the float range)."""
    nu, eta = 1.0, 0.0
    for _ in range(n):
        nu, eta = (nu * sys.law_nu.offspring.mean,
                   eta * sys.law_eta.offspring.mean + sys.seeding.prob * nu)
    return max(nu, eta)


def _judge_cap(*counts: np.ndarray) -> None:
    """BudgetError when the children of a chunk's families, ``counts``
    summed over every array, exceed ``EXACT_POPULATION_CAP``."""
    # summed in float64, which cannot wrap as int64 can
    if sum(c.sum(dtype=np.float64) for c in counts) > EXACT_POPULATION_CAP:
        raise BudgetError("joint population exceeds the exact-batch cap; "
                          "reduce n or replicates")


def _rightmost(sys: TwoTypeSystem, n: int, r: int, rng: np.random.Generator,
               read_eta: bool) -> np.ndarray:
    """The rightmost eta, or nu, at generation ``n`` of ``r`` replicates,
    NaN where there is none.

    Each particle carries its replicate's index, since seeds join the
    eta class out of their replicates' order.  Generation n is read only
    for its maximum: it draws the children of the class read alone, with
    the seeds when that is eta.
    """
    if n == 0:
        return np.full(r, np.nan if read_eta else 0.0)
    law_nu, law_eta = sys.law_nu, sys.law_eta
    nu, nu_of = np.zeros(r), np.arange(r)
    eta, eta_of = np.empty(0), np.empty(0, dtype=nu_of.dtype)
    for _ in range(n - 1):
        seeded, seeds = _seeds(sys.seeding, nu, rng)
        counts_nu = law_nu.offspring.sample(rng, nu.size)
        counts_eta = law_eta.offspring.sample(rng, eta.size)
        _judge_cap(counts_nu, counts_eta, seeded)
        eta = np.concatenate([_children(law_eta, eta, counts_eta, rng), seeds])
        eta_of = np.concatenate([np.repeat(eta_of, counts_eta), nu_of[seeded]])
        nu, nu_of = _children(law_nu, nu, counts_nu, rng), np.repeat(nu_of, counts_nu)
    top = np.full(r, -np.inf)
    law, parents, of = law_nu, nu, nu_of
    if read_eta:
        seeded, seeds = _seeds(sys.seeding, nu, rng)
        np.maximum.at(top, nu_of[seeded], seeds)
        law, parents, of = law_eta, eta, eta_of
    counts = law.offspring.sample(rng, parents.size)
    _judge_cap(counts)
    np.maximum.at(top, np.repeat(of, counts), _children(law, parents, counts, rng))
    top[top == -np.inf] = np.nan
    return top
