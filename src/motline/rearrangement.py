"""Constructive martingale rearrangement.

Repairs the conditional barycentres of a coupling by exchanging second-
coordinate mass between first-coordinate atoms, without touching either
marginal.  Two step kinds:

* switch: a direct four-point exchange between an atom with negative
  deviation and one with positive deviation;
* cascade: when no direct exchange exists, a chain of switches routed through
  zero-deviation atoms whose kernel supports overlap, shifting the same
  barycentre mass ``a`` across every link so interior barycentres are
  preserved exactly.

Every run records an ordered trace whose bookkeeping yields a certified upper
bound 2 * sum (m_j + 1) a_j on the nested 1-Wasserstein distance between input
and output, together with the universal lower bound given by the initial
barycentre deviation.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvexOrderError, InputError, InternalError
from .measures import (
    DEFAULT_TOL_MART,
    MASS_DROP_TOL,
    BarycentreReport,
    DiscreteCoupling,
    barycentre_report,
    convex_order,
    make_coupling,
)
from .nested import BicausalPlan, project_to_martingale
from .transport import TransportPlan, coupling_grid


@dataclass(frozen=True)
class SwitchRecord:
    """One four-point exchange: x1_minus swaps mass at x2_minus for mass at
    x2_plus, x1_plus the other way round."""

    x1_minus: float
    x1_plus: float
    x2_minus: float
    x2_plus: float
    mass_moved: float

    @property
    def barycentre_shift(self) -> float:
        """Weighted barycentre mass transferred off each endpoint."""
        return self.mass_moved * (self.x2_plus - self.x2_minus)


@dataclass(frozen=True)
class ExchangeTuples:
    """Chain of zero-deviation atoms bridging the positive side to the negative.

    ``chain`` lists the interior atoms; ``chain_lo``/``chain_hi`` their kernel
    support extremes.  The interleaving
    lo_1 < x2_plus <= lo_2 < hi_1 <= ... <= x2_minus < hi_m
    holds exactly: every value is an atom of the second marginal.
    """

    x1_plus: float
    x1_minus: float
    x2_plus: float
    x2_minus: float
    chain: tuple
    chain_lo: tuple
    chain_hi: tuple

    @property
    def m(self) -> int:
        return len(self.chain)

    def t1(self) -> tuple:
        return (self.x1_plus, *self.chain, self.x1_minus)

    def t2(self) -> tuple:
        inner = tuple(v for pair in zip(self.chain_lo, self.chain_hi) for v in pair)
        return (self.x2_plus, *inner, self.x2_minus)

    def link_gaps(self) -> tuple:
        """d_i = hi_i - lo_{i+1} with hi_0 = x2_plus and lo_{m+1} = x2_minus."""
        his = (self.x2_plus, *self.chain_hi)
        los = (*self.chain_lo, self.x2_minus)
        return tuple(h - l for h, l in zip(his, los))


@dataclass(frozen=True, eq=False)
class SwitchStep:
    record: SwitchRecord
    epsilon_after: float

    @property
    def a(self) -> float:
        return self.record.barycentre_shift

    @property
    def m(self) -> int:
        return 0


@dataclass(frozen=True, eq=False)
class CascadeStep:
    tuples: ExchangeTuples
    a: float
    links: tuple
    epsilon_after: float

    @property
    def m(self) -> int:
        return self.tuples.m


@dataclass(frozen=True, eq=False)
class RearrangementResult:
    """Output coupling, ordered step trace, and the certified cost bound."""

    output: DiscreteCoupling
    trace: tuple
    cost_bound: float
    epsilon_initial: float
    support_radius: float
    snap_value: float = 0.0
    snap_plan: Optional[BicausalPlan] = None
    presnap: Optional[DiscreteCoupling] = None
    case1_after_case2: bool = False

    @property
    def steps(self) -> int:
        return len(self.trace)


def _index(atoms: list, values) -> list:
    """Positions of ``values`` in the sorted list ``atoms``; each must be an atom."""
    idx = [bisect_left(atoms, v) for v in values]
    if any(j == len(atoms) or atoms[j] != v for j, v in zip(idx, values)):
        raise InputError(f"{values!r} are not all atoms of the coupling's marginals")
    return idx


class _Grid:
    """A coupling's masses on the grid mu.atoms x nu.atoms, addressed by (row,
    column).  A rearrangement keeps both marginals, so every step moves mass
    between cells of this one grid."""

    def __init__(self, pi: DiscreteCoupling):
        self.mu, self.nu, self.mass = coupling_grid(pi)
        self.x1, self.x2 = self.mu.atoms.tolist(), self.nu.atoms.tolist()
        self.gaps = self.nu.atoms[None, :] - self.mu.atoms[:, None]

    def devs(self) -> np.ndarray:
        """Weighted barycentre deviation of every row."""
        return (self.mass * self.gaps).sum(axis=1)

    def epsilon(self) -> float:
        return float(np.abs(self.devs()).sum())

    def extents(self):
        """Lists of the first and the last column of every row's support."""
        held = self.mass > 0
        hi = held.shape[1] - 1 - held[:, ::-1].argmax(axis=1)
        return held.argmax(axis=1).tolist(), hi.tolist()

    def move(self, row: int, src: int, dst: int, amount: float) -> None:
        left = self.mass[row, src] - amount
        self.mass[row, src] = left if left > MASS_DROP_TOL else 0.0
        self.mass[row, dst] += amount

    def coupling(self) -> DiscreteCoupling:
        rows, cols = np.nonzero(self.mass)
        return make_coupling(np.column_stack(
            [self.mu.atoms[rows], self.nu.atoms[cols], self.mass[rows, cols]]))


def _find_pair(lo: list, hi: list, minus: list, plus: list) -> Optional[tuple]:
    """Deterministic switch-pair selection, as (row minus, row plus, column
    minus, column plus).

    Scans negative-deviation rows from the largest atom down (the ordering
    that keeps the dispersion property invariant under repeated switches),
    then positive-deviation partners from the largest down, pairing the
    kernel support extremes.
    """
    for i in reversed(minus):
        for p in reversed(plus):
            if hi[p] > lo[i]:
                return i, p, lo[i], hi[p]
    return None


def _switch_cap(grid: _Grid, devs, i: int, p: int, jm: int, jp: int) -> float:
    """Largest switch mass: the smallest of the masses that rectify either
    row's barycentre and the masses sitting at the two donor cells."""
    gap = grid.x2[jp] - grid.x2[jm]
    return float(min(-devs[i] / gap, grid.mass[i, jm], devs[p] / gap, grid.mass[p, jp]))


def _switch(grid: _Grid, i: int, p: int, jm: int, jp: int, lam: float) -> SwitchRecord:
    """Row i swaps mass lam at column jm for column jp, row p the other way."""
    grid.move(i, jm, jp, lam)
    grid.move(p, jp, jm, lam)
    return SwitchRecord(grid.x1[i], grid.x1[p], grid.x2[jm], grid.x2[jp], lam)


def find_switch_pair(pi: DiscreteCoupling,
                     report: Optional[BarycentreReport] = None) -> Optional[tuple]:
    """Locate (x1_minus, x1_plus, x2_minus, x2_plus) for a direct switch, if any."""
    if report is None:
        report = barycentre_report(pi)
    grid = _Grid(pi)
    pair = _find_pair(*grid.extents(), _index(grid.x1, report.minus),
                      _index(grid.x1, report.plus))
    if pair is None:
        return None
    i, p, jm, jp = pair
    return grid.x1[i], grid.x1[p], grid.x2[jm], grid.x2[jp]


def switch_assignment(pi: DiscreteCoupling, x1m: float, x1p: float, x2m: float,
                      x2p: float, lam: Optional[float] = None):
    """Execute one switch, moving the maximal admissible mass unless overridden.

    The cap is the smallest of: the mass needed to rectify either endpoint's
    barycentre, and the mass actually sitting at the two donor points.
    Returns (new coupling, record); a zero cap is a recorded no-op.
    """
    if not x2m < x2p:
        raise InputError("switch requires x2_minus < x2_plus")
    grid = _Grid(pi)
    (i, p), (jm, jp) = _index(grid.x1, (x1m, x1p)), _index(grid.x2, (x2m, x2p))
    for row, col in ((i, jm), (p, jp)):
        if grid.mass[row, col] <= 0:
            raise InputError(f"({grid.x1[row]}, {grid.x2[col]}) carries no mass")
    if lam is None:
        devs = grid.devs()
        if not (devs[i] < 0 < devs[p]):
            raise InputError("switch endpoints must have deviations of opposite signs")
        lam = _switch_cap(grid, devs, i, p, jm, jp)
    lam = float(lam)
    if lam < 0:
        raise InputError("negative switch mass")
    if lam > min(grid.mass[i, jm], grid.mass[p, jp]) + 1e-15:
        raise InputError("switch mass exceeds the donor-point masses")
    if lam == 0.0:
        return pi, SwitchRecord(x1m, x1p, x2m, x2p, lam)
    record = _switch(grid, i, p, jm, jp, lam)
    return grid.coupling(), record


def _find_tuples(grid: _Grid, lo: list, hi: list, minus: list, zero: list,
                 plus: list) -> ExchangeTuples:
    """Greedy furthest-reach chain of zero-class rows, from the highest
    column of the positive side to the lowest column of the negative side;
    on a tie of reach the smallest atom is taken."""
    top = max(hi[p] for p in plus)
    bottom = min(lo[i] for i in minus)
    chain = []
    reach = top
    while reach <= bottom:
        candidates = [z for z in zero if lo[z] < reach < hi[z]]
        if not candidates:
            raise InternalError(
                "no exchange chain found; convex order violated or deviations "
                "misclassified at the working tolerance")
        chain.append(max(candidates, key=hi.__getitem__))
        reach = hi[chain[-1]]
    x1, x2 = grid.x1, grid.x2
    return ExchangeTuples(x1[max(p for p in plus if hi[p] == top)],
                          x1[max(i for i in minus if lo[i] == bottom)], x2[top], x2[bottom],
                          tuple(x1[z] for z in chain), tuple(x2[lo[z]] for z in chain),
                          tuple(x2[hi[z]] for z in chain))


def find_exchange_tuples(pi: DiscreteCoupling,
                         report: Optional[BarycentreReport] = None) -> ExchangeTuples:
    """Build exchange tuples by greedy furthest-reach interval chaining.

    Applicable when no direct switch pair exists; the greedy chain over the
    zero-class kernel ranges is minimal in length and satisfies the strict/weak
    interleaving pattern."""
    if report is None:
        report = barycentre_report(pi)
    if not report.minus or not report.plus:
        raise InputError("exchange tuples need both deviation classes nonempty")
    grid = _Grid(pi)
    rows = (_index(grid.x1, c) for c in (report.minus, report.zero, report.plus))
    return _find_tuples(grid, *grid.extents(), *rows)


def _cascade(grid: _Grid, devs, tuples: ExchangeTuples) -> CascadeStep:
    """One cascade pass on the grid, given its weighted row deviations."""
    rows = _index(grid.x1, tuples.t1())
    his = _index(grid.x2, (tuples.x2_plus, *tuples.chain_hi))
    los = _index(grid.x2, (*tuples.chain_lo, tuples.x2_minus))
    links = list(zip(tuples.link_gaps(), rows, rows[1:], his, los))
    caps = [devs[rows[0]], -devs[rows[-1]]]
    caps += [d * min(grid.mass[r, h], grid.mass[s, l]) for d, r, s, h, l in links]
    a = float(min(caps))
    if a <= 0:
        raise InternalError(f"degenerate cascade: cap {int(np.argmin(caps))} is {a!r}")
    records = tuple(_switch(grid, s, r, l, h, a / d) for d, r, s, h, l in links)
    return CascadeStep(tuples, a, records, grid.epsilon())


def cascade(pi: DiscreteCoupling, tuples: ExchangeTuples):
    """Run one cascade pass along the exchange tuples; returns (new coupling, step).

    Every link moves mass a / d_i across its gap d_i, so each interior
    barycentre is preserved exactly while both endpoint deviations shrink by
    the common amount a; a is maximal subject to the donor masses and the two
    endpoint deviations.  Marginals are conserved link by link.
    """
    grid = _Grid(pi)
    step = _cascade(grid, grid.devs(), tuples)
    return grid.coupling(), step


def rearrange(pi: DiscreteCoupling, tol_mart: float = DEFAULT_TOL_MART) -> RearrangementResult:
    """Rearrange a coupling into a martingale coupling of the same marginals.

    Loop: while the barycentre deviation exceeds ``tol_mart``, apply a direct
    switch when one exists, otherwise a cascade along exchange tuples.  Both
    shrink the deviation, and the deviation classes only ever shrink, so the
    loop terminates; a generous safety cap of |supp|^3 iterations guards
    against defects.  Each step adds to the cost exactly the deviation it
    removes, so after the loop the cost is ``epsilon_initial`` minus the
    residual weighted deviation.  A snap to the projection LP's martingale
    coupling removes that residual.  The residual is a lower bound on any
    snap, by the sandwich, so the larger of the two is added to the bound and
    reported as ``snap_value``: the certificate does not rest on the LP's last
    bits.  The snap is skipped only when every atom's deviation is within
    ``min(tol_mart, DEFAULT_TOL_MART)``, the sandwich check's slack; the
    coupling is then returned as is, with ``snap_plan`` and ``presnap`` None.
    """
    grid = _Grid(pi)
    if not convex_order(grid.mu, grid.nu):
        raise ConvexOrderError("marginals are not in convex order")
    eps_initial = barycentre_report(pi, tol_mart).epsilon
    cap = max(len(pi) ** 3, 1000)

    trace, cost = [], 0.0
    entered_case2 = case1_after_case2 = False
    for _ in range(cap):
        devs = grid.devs()
        if float(np.abs(devs).sum()) <= tol_mart:
            break
        scaled = (devs / grid.mu.weights).tolist()
        minus = [r for r, d in enumerate(scaled) if d < -tol_mart]
        plus = [r for r, d in enumerate(scaled) if d > tol_mart]
        if not minus or not plus:
            break  # residual deviation is tolerance dust; the snap absorbs it
        lo, hi = grid.extents()
        pair = _find_pair(lo, hi, minus, plus)
        if pair is not None:
            case1_after_case2 = case1_after_case2 or entered_case2
            lam = _switch_cap(grid, devs, *pair)
            if lam <= 0:
                raise InternalError("switch produced no progress")
            step = SwitchStep(_switch(grid, *pair, lam), grid.epsilon())
        else:
            zero = [r for r, d in enumerate(scaled) if abs(d) <= tol_mart]
            step = _cascade(grid, devs, _find_tuples(grid, lo, hi, minus, zero, plus))
            entered_case2 = True
        cost += 2.0 * (step.m + 1) * step.a
        trace.append(step)
    else:
        raise InternalError("rearrangement exceeded the iteration safety cap")

    presnap = grid.coupling()
    residual = barycentre_report(presnap, min(tol_mart, DEFAULT_TOL_MART))
    output, snap_value, snap_plan = presnap, 0.0, None
    if residual.plus or residual.minus:
        projection = project_to_martingale(presnap)
        output, snap_plan = projection.projected, projection.witness
        snap_value = max(projection.value, residual.epsilon)
        cost += snap_value
    return RearrangementResult(
        output=output, trace=tuple(trace), cost_bound=cost, epsilon_initial=eps_initial,
        support_radius=grid.nu.support_radius, snap_value=snap_value, snap_plan=snap_plan,
        presnap=presnap if snap_plan is not None else None,
        case1_after_case2=case1_after_case2)


def trace_to_bicausal_plan(pi: DiscreteCoupling, result: RearrangementResult) -> BicausalPlan:
    """Assemble the diagonal bicausal plan realized by a rearrangement trace.

    The outer plan is the identity on the first marginal; each inner plan
    composes the recorded per-atom mass movements (origins drawn down
    proportionally), then the snap witness when one was needed.  The plan cost
    never exceeds the certified bound.
    """
    grid = _Grid(pi)
    target = result.presnap if result.presnap is not None else result.output
    if not np.array_equal(target.first_marginal.atoms, grid.mu.atoms):
        raise InputError("trace does not match the supplied coupling")
    moves = [[] for _ in grid.x1]  # per row: ordered (src, dst, mass) columns
    for step in result.trace:
        for rec in step.links if isinstance(step, CascadeStep) else (step.record,):
            if rec.mass_moved > 0:
                i, p = _index(grid.x1, (rec.x1_minus, rec.x1_plus))
                jm, jp = _index(grid.x2, (rec.x2_minus, rec.x2_plus))
                moves[i].append((jm, jp, rec.mass_moved))
                moves[p].append((jp, jm, rec.mass_moved))

    plans = []
    rows = zip(pi.kernel_items(), target.kernel_items())
    for i, ((_, weight, kernel), (_, _, out_kernel)) in enumerate(rows):
        # origins[o, c]: mass of this row that started in column o and sits in c
        origins = np.diag(grid.mass[i])
        for src, dst, lam in moves[i]:
            total = float(origins[:, src].sum())
            if total + 1e-9 < lam:
                raise InputError("trace does not match the supplied coupling")
            moved = origins[:, src] * (lam / total)
            origins[:, src] -= moved
            origins[:, dst] += moved
            if origins[:, src].sum() <= MASS_DROP_TOL:
                origins[:, src] = 0.0
        matrix = origins[np.ix_(_index(grid.x2, kernel.atoms.tolist()),
                                _index(grid.x2, out_kernel.atoms.tolist()))] / weight
        matrix *= out_kernel.weights / np.maximum(matrix.sum(axis=0), 1e-300)
        plans.append(TransportPlan(kernel, out_kernel, matrix))
    if result.snap_plan is not None:
        # glue the snap witness on, kernel by kernel (Markov composition)
        for i, first in enumerate(plans):
            second = result.snap_plan.inners[(i, i)]
            middle = np.maximum(second.matrix.sum(axis=1), 1e-300)
            plans[i] = TransportPlan(first.source, second.target,
                                     first.matrix @ (second.matrix / middle[:, None]))
    mu = grid.mu
    cost = sum(float(w) * plan.cost_p(1.0) for w, plan in zip(mu.weights, plans))
    return BicausalPlan(TransportPlan(mu, mu, np.diag(mu.weights)),
                        {(i, i): plan for i, plan in enumerate(plans)}, 1.0, cost)
