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

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import ConvexOrderError, InputError, InternalError
from .measures import (
    ATOM_MERGE_TOL,
    DEFAULT_TOL_MART,
    MASS_DROP_TOL,
    BarycentreReport,
    DiscreteCoupling,
    barycentre_report,
    convex_order,
    is_martingale,
    make_coupling,
)
from .nested import BicausalPlan, project_to_martingale
from .transport import TransportPlan


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
    holds with equality resolved at 1e-12.
    """

    x1_plus: float
    x1_minus: float
    x2_plus: float
    x2_minus: float
    chain: tuple
    chain_lo: tuple
    chain_hi: tuple
    had_ties: bool = False

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

    @property
    def bound_to_epsilon_ratio(self) -> Optional[float]:
        """Empirical ratio cost_bound / initial deviation (None for martingale input)."""
        if self.epsilon_initial <= 0:
            return None
        return self.cost_bound / self.epsilon_initial


# ---------------------------------------------------------------------------
# mutable working state: {x1: {x2: mass}} with the fixed first-marginal weights


def _state_from(pi: DiscreteCoupling):
    mass = {}
    for x1, x2, w in zip(pi.x1, pi.x2, pi.w):
        mass.setdefault(float(x1), {})[float(x2)] = float(w)
    mu = pi.first_marginal
    mu_w = {float(a): float(w) for a, w in zip(mu.atoms, mu.weights)}
    return mass, mu_w


def _state_coupling(mass) -> DiscreteCoupling:
    points = [(x1, x2, w) for x1, row in mass.items() for x2, w in row.items()]
    return make_coupling(points)


def _weighted_devs(mass) -> dict:
    return {x1: sum((x2 - x1) * w for x2, w in row.items()) for x1, row in mass.items()}


def _classify(devs, mu_w, tol_mart):
    minus, zero, plus = [], [], []
    for x1 in sorted(devs):
        d = devs[x1] / mu_w[x1]
        if d > tol_mart:
            plus.append(x1)
        elif d < -tol_mart:
            minus.append(x1)
        else:
            zero.append(x1)
    return minus, zero, plus


def _move(mass, x1, src, dst, amount):
    row = mass[x1]
    left = row[src] - amount
    if left <= MASS_DROP_TOL:
        del row[src]
    else:
        row[src] = left
    row[dst] = row.get(dst, 0.0) + amount


def _apply_switch(mass, rec: SwitchRecord):
    _move(mass, rec.x1_minus, rec.x2_minus, rec.x2_plus, rec.mass_moved)
    _move(mass, rec.x1_plus, rec.x2_plus, rec.x2_minus, rec.mass_moved)


def _switch_lambda(mass, mu_w, devs, x1m, x1p, x2m, x2p) -> float:
    gap = x2p - x2m
    return min(
        -devs[x1m] / gap,
        mass[x1m].get(x2m, 0.0),
        devs[x1p] / gap,
        mass[x1p].get(x2p, 0.0),
    )


def _find_pair(mass, minus, plus):
    """Deterministic switch-pair selection.

    Scans negative-deviation atoms from the largest down (the ordering that
    keeps the dispersion property invariant under repeated switches), then
    positive-deviation partners from the largest down, pairing the kernel
    support extremes.
    """
    for x1m in sorted(minus, reverse=True):
        x2m = min(mass[x1m])
        best = None
        for x1p in sorted(plus, reverse=True):
            x2p = max(mass[x1p])
            if x2p - x2m > 0:
                best = (x1m, x1p, x2m, x2p)
                break
        if best:
            return best
    return None


def find_switch_pair(pi: DiscreteCoupling,
                     report: Optional[BarycentreReport] = None) -> Optional[tuple]:
    """Locate (x1_minus, x1_plus, x2_minus, x2_plus) for a direct switch, if any."""
    if report is None:
        report = barycentre_report(pi)
    mass, _ = _state_from(pi)
    return _find_pair(mass, list(report.minus), list(report.plus))


def switch_assignment(pi: DiscreteCoupling, x1m: float, x1p: float, x2m: float,
                      x2p: float, lam: Optional[float] = None):
    """Execute one switch, moving the maximal admissible mass unless overridden.

    The cap is the smallest of: the mass needed to rectify either endpoint's
    barycentre, and the mass actually sitting at the two donor points.
    Returns (new coupling, record); a zero cap is a recorded no-op.
    """
    if not x2m < x2p:
        raise InputError("switch requires x2_minus < x2_plus")
    mass, mu_w = _state_from(pi)
    for x1, x2 in ((x1m, x2m), (x1p, x2p)):
        if mass.get(x1, {}).get(x2, 0.0) <= 0:
            raise InputError(f"({x1}, {x2}) carries no mass")
    if lam is None:
        devs = _weighted_devs(mass)
        if not (devs[x1m] < 0 < devs[x1p]):
            raise InputError("switch endpoints must have deviations of opposite signs")
        lam = _switch_lambda(mass, mu_w, devs, x1m, x1p, x2m, x2p)
    lam = float(lam)
    if lam < 0:
        raise InputError("negative switch mass")
    if lam > min(mass[x1m][x2m], mass[x1p][x2p]) + 1e-15:
        raise InputError("switch mass exceeds the donor-point masses")
    record = SwitchRecord(x1m, x1p, x2m, x2p, lam)
    if lam == 0.0:
        return pi, record
    _apply_switch(mass, record)
    return _state_coupling(mass), record


def _find_tuples(mass, mu_w, devs, minus, zero, plus) -> ExchangeTuples:
    x2_plus = max(max(mass[x1]) for x1 in plus)
    x2_minus = min(min(mass[x1]) for x1 in minus)
    x1_plus = max(x1 for x1 in plus if max(mass[x1]) == x2_plus)
    x1_minus = max(x1 for x1 in minus if min(mass[x1]) == x2_minus)

    intervals = {}
    for x1 in zero:
        row = mass[x1]
        lo, hi = min(row), max(row)
        if hi - lo > ATOM_MERGE_TOL:
            intervals[x1] = (lo, hi)

    chain, lows, highs = [], [], []
    reach = x2_plus
    had_ties = False
    used = set()
    while not reach - x2_minus > ATOM_MERGE_TOL:
        candidates = [
            (x1, lo, hi) for x1, (lo, hi) in intervals.items()
            if x1 not in used and reach - lo > ATOM_MERGE_TOL and hi - reach > ATOM_MERGE_TOL
        ]
        if not candidates:
            raise InternalError(
                "no exchange chain found; convex order violated or deviations "
                "misclassified at the working tolerance")
        best_hi = max(hi for _, _, hi in candidates)
        ties = [c for c in candidates if best_hi - c[2] <= ATOM_MERGE_TOL]
        if len(ties) > 1:
            had_ties = True
        x1, lo, hi = min(ties)  # furthest reach, smallest atom on ties
        chain.append(x1)
        lows.append(lo)
        highs.append(hi)
        used.add(x1)
        reach = hi
    return ExchangeTuples(x1_plus, x1_minus, x2_plus, x2_minus,
                          tuple(chain), tuple(lows), tuple(highs), had_ties)


def find_exchange_tuples(pi: DiscreteCoupling,
                         report: Optional[BarycentreReport] = None) -> ExchangeTuples:
    """Build exchange tuples by greedy furthest-reach interval chaining.

    Applicable when no direct switch pair exists; the greedy chain over the
    zero-class kernel ranges is minimal in length and satisfies the strict/weak
    interleaving pattern (a tie within 1e-12 of a comparison is flagged)."""
    if report is None:
        report = barycentre_report(pi)
    if not report.minus or not report.plus:
        raise InputError("exchange tuples need both deviation classes nonempty")
    mass, mu_w = _state_from(pi)
    devs = _weighted_devs(mass)
    return _find_tuples(mass, mu_w, devs, list(report.minus), list(report.zero),
                        list(report.plus))


def _cascade_records(mass, mu_w, devs, tuples: ExchangeTuples):
    """Barycentre mass shifted per pass and the per-link switch records."""
    seq = tuples.t1()
    his = (tuples.x2_plus, *tuples.chain_hi)
    los = (*tuples.chain_lo, tuples.x2_minus)
    gaps = tuples.link_gaps()
    caps = [devs[tuples.x1_plus], -devs[tuples.x1_minus]]
    for i, d in enumerate(gaps):
        donor_high = mass[seq[i]].get(his[i], 0.0)
        donor_low = mass[seq[i + 1]].get(los[i], 0.0)
        caps.append(d * min(donor_high, donor_low))
    a = min(caps)
    if a <= 0:
        binding = int(np.argmin(caps))
        raise InternalError(f"degenerate cascade: cap {binding} is {a!r}")
    links = tuple(
        SwitchRecord(x1_minus=seq[i + 1], x1_plus=seq[i],
                     x2_minus=los[i], x2_plus=his[i], mass_moved=a / gaps[i])
        for i in range(len(gaps)))
    return a, links


def cascade(pi: DiscreteCoupling, tuples: ExchangeTuples):
    """Run one cascade pass along the exchange tuples.

    Every link moves mass a / d_i across its gap d_i, so each interior
    barycentre is preserved exactly while both endpoint deviations shrink by
    the common amount a; a is maximal subject to the donor masses and the two
    endpoint deviations.  Marginals are conserved link by link.
    """
    mass, mu_w = _state_from(pi)
    devs = _weighted_devs(mass)
    a, links = _cascade_records(mass, mu_w, devs, tuples)
    for rec in links:
        _apply_switch(mass, rec)
    new_pi = _state_coupling(mass)
    step = CascadeStep(tuples, a, links, barycentre_report(new_pi).epsilon)
    return new_pi, step


def rearrange(pi: DiscreteCoupling, tol_mart: float = DEFAULT_TOL_MART) -> RearrangementResult:
    """Rearrange a coupling into a martingale coupling of the same marginals.

    Loop: while the barycentre deviation exceeds ``tol_mart``, apply a direct
    switch when one exists, otherwise a cascade along exchange tuples.  Both
    shrink the deviation, and the deviation classes only ever shrink, so the
    loop terminates; a generous safety cap of |supp|^3 iterations guards
    against defects.  Each step adds to the cost exactly the deviation it
    removes, so after the loop the cost is ``epsilon_initial`` minus the
    residual weighted deviation.  That residual is removed by snapping to the
    projection LP's martingale coupling, whose value (at least the residual)
    is added to the cost bound so the certificate stays valid.  The snap is
    skipped only when every atom's deviation is within
    ``min(tol_mart, DEFAULT_TOL_MART)``, so that the residual fits the
    DEFAULT_TOL_MART slack of the sandwich check even when a larger
    ``tol_mart`` stopped the loop early; the coupling is then returned as is,
    with ``snap_plan`` and ``presnap`` left as None.
    """
    mu = pi.first_marginal
    nu = pi.second_marginal
    if not convex_order(mu, nu):
        raise ConvexOrderError("marginals are not in convex order")
    mass, mu_w = _state_from(pi)
    eps_initial = barycentre_report(pi, tol_mart).epsilon
    radius = nu.support_radius
    cap = max(len(pi) ** 3, 1000)

    trace = []
    cost = 0.0
    entered_case2 = False
    case1_after_case2 = False
    for _ in range(cap):
        devs = _weighted_devs(mass)
        epsilon = sum(abs(d) for d in devs.values())
        if epsilon <= tol_mart:
            break
        minus, zero, plus = _classify(devs, mu_w, tol_mart)
        if not minus or not plus:
            break  # residual deviation is tolerance dust; the snap absorbs it
        pair = _find_pair(mass, minus, plus)
        if pair is not None:
            if entered_case2:
                case1_after_case2 = True
            x1m, x1p, x2m, x2p = pair
            lam = _switch_lambda(mass, mu_w, devs, x1m, x1p, x2m, x2p)
            if lam <= 0:
                raise InternalError("switch produced no progress")
            rec = SwitchRecord(x1m, x1p, x2m, x2p, lam)
            _apply_switch(mass, rec)
            epsilon_after = sum(abs(d) for d in _weighted_devs(mass).values())
            trace.append(SwitchStep(rec, epsilon_after))
            cost += 2.0 * rec.barycentre_shift
        else:
            tuples = _find_tuples(mass, mu_w, devs, minus, zero, plus)
            a, links = _cascade_records(mass, mu_w, devs, tuples)
            for rec in links:
                _apply_switch(mass, rec)
            epsilon_after = sum(abs(d) for d in _weighted_devs(mass).values())
            trace.append(CascadeStep(tuples, a, links, epsilon_after))
            cost += 2.0 * (tuples.m + 1) * a
            entered_case2 = True
    else:
        raise InternalError("rearrangement exceeded the iteration safety cap")

    presnap = _state_coupling(mass)
    snap_value = 0.0
    snap_plan = None
    if not is_martingale(presnap, min(tol_mart, DEFAULT_TOL_MART)):
        projection = project_to_martingale(presnap)
        output = projection.projected
        snap_value = projection.value
        snap_plan = projection.witness
        cost += snap_value
    else:
        output = presnap
    return RearrangementResult(
        output=output,
        trace=tuple(trace),
        cost_bound=cost,
        epsilon_initial=eps_initial,
        support_radius=radius,
        snap_value=snap_value,
        snap_plan=snap_plan,
        presnap=presnap if snap_plan is not None else None,
        case1_after_case2=case1_after_case2,
    )


def _row_moves(trace):
    """Per-atom ordered (src, dst, mass) moves induced by the trace."""
    moves = {}
    for step in trace:
        records = step.links if isinstance(step, CascadeStep) else (step.record,)
        for rec in records:
            if rec.mass_moved <= 0:
                continue
            moves.setdefault(rec.x1_minus, []).append((rec.x2_minus, rec.x2_plus, rec.mass_moved))
            moves.setdefault(rec.x1_plus, []).append((rec.x2_plus, rec.x2_minus, rec.mass_moved))
    return moves


def trace_to_bicausal_plan(pi: DiscreteCoupling, result: RearrangementResult) -> BicausalPlan:
    """Assemble the diagonal bicausal plan realized by a rearrangement trace.

    The outer plan is the identity on the first marginal; each inner plan
    composes the recorded per-atom mass movements (origins drawn down
    proportionally), then the snap witness when one was needed.  The plan cost
    never exceeds the certified bound.
    """
    mu = pi.first_marginal
    target = result.presnap if result.presnap is not None else result.output
    moves = _row_moves(result.trace)

    inners = {}
    cost = 0.0
    target_kernels = {x1: kern for x1, _, kern in target.kernel_items()}
    for i, (x1, weight, kernel) in enumerate(pi.kernel_items()):
        # origin-tracking composition: current location -> {origin -> mass}
        located = {float(x2): {float(x2): float(w) * weight}
                   for x2, w in zip(kernel.atoms, kernel.weights)}
        for src, dst, lam in moves.get(x1, ()):
            bucket = located.get(src)
            total = sum(bucket.values()) if bucket else 0.0
            if total + 1e-9 < lam:
                raise InputError("trace does not match the supplied coupling")
            scale = lam / total
            sink = located.setdefault(dst, {})
            for origin in list(bucket):
                moved = bucket[origin] * scale
                bucket[origin] -= moved
                sink[origin] = sink.get(origin, 0.0) + moved
            if sum(bucket.values()) <= MASS_DROP_TOL:
                del located[src]
        out_kernel = target_kernels[x1]
        out_index = {float(b): j for j, b in enumerate(out_kernel.atoms)}
        matrix = np.zeros((len(kernel), len(out_kernel)))
        in_index = {float(b): j for j, b in enumerate(kernel.atoms)}
        for cur, bucket in located.items():
            j = out_index[min(out_kernel.atoms, key=lambda b, c=cur: abs(b - c))]
            for origin, m in bucket.items():
                matrix[in_index[origin], j] += m / weight
        matrix *= out_kernel.weights / np.maximum(matrix.sum(axis=0), 1e-300)
        plan = TransportPlan(kernel, out_kernel, matrix)
        inners[(i, i)] = plan
        cost += weight * plan.cost_p(1.0)

    outer = TransportPlan(mu, mu, np.diag(mu.weights))
    plan = BicausalPlan(outer, inners, 1.0, cost)
    if result.snap_plan is None:
        return plan
    return _compose_diagonal(plan, result.snap_plan, mu)


def _compose_diagonal(first: BicausalPlan, second: BicausalPlan,
                      mu) -> BicausalPlan:
    """Glue two identity-outer plans kernel by kernel (Markov composition)."""
    inners = {}
    cost = 0.0
    for i, weight in enumerate(mu.weights):
        p1 = first.inners[(i, i)]
        p2 = second.inners[(i, i)]
        middle = np.maximum(p2.matrix.sum(axis=1), 1e-300)
        composed = p1.matrix @ (p2.matrix / middle[:, None])
        plan = TransportPlan(p1.source, p2.target, composed)
        inners[(i, i)] = plan
        cost += float(weight) * plan.cost_p(1.0)
    outer = TransportPlan(mu, mu, np.diag(mu.weights))
    return BicausalPlan(outer, inners, 1.0, cost)
