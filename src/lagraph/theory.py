"""Expected neighborhood aggregates under a two-component Gaussian mixture.

A node's positive neighbors emit predictions from Norm(mu_plus, sigma2) and
its negative neighbors from Norm(mu_minus, sigma2). Closed forms give the
expected aggregate for the original neighborhood, after filtering with a
classifier of true/false positive rates (p, q), and after adding neighbors
at precision p_pre. A counter-based Monte Carlo sampler verifies each
formula and estimates the misclassification probability P(F < tau). Every
draw is keyed by (seed, trial, slot), so the arms of one neighborhood can
share one blocked pass over the draws (:class:`SharedPass`) and still get
exactly the values a separate run would.

The filtered formula is a ratio of expectations, not the expectation of the
per-neighborhood ratio; ``mc_aggregate`` therefore reports both a matching
ratio-of-means estimate (``mean_estimate``) and the per-trial conditional
mean (``conditional_mean``), so the gap between the two is observable
instead of hidden.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .hashing import unit_uniform

# trial rows per block of the Monte Carlo pass: sets its working memory and
# cache fit, never its output (of 2048-32768 with slot-major blocks, 4096 to
# 16384 ran the `theory` sweep within 5% of each other on a 2-core Xeon, 2048
# and 32768 about 8% slower; the smallest of those keeps blocks small)
MC_BLOCK_ROWS = 4_096


@dataclass(frozen=True)
class GaussianMixtureParams:
    """Emission means/variance and the decision threshold tau.

    Requires ``mu_plus > tau > mu_minus`` and positive variance.
    """

    mu_plus: float
    mu_minus: float
    sigma2: float
    tau: float

    def __post_init__(self):
        if self.sigma2 <= 0:
            raise ValueError("sigma2 must be positive")
        if not self.mu_plus > self.tau > self.mu_minus:
            raise ValueError("need mu_plus > tau > mu_minus")


@dataclass(frozen=True)
class NeighborhoodSpec:
    """Counts of positive/negative neighbors and neighbors to add."""

    n_plus: int
    n_minus: int
    n_added: int = 0

    def __post_init__(self):
        if self.n_plus < 0 or self.n_minus < 0 or self.n_added < 0:
            raise ValueError("neighbor counts must be non-negative")
        if self.n_plus + self.n_minus < 1:
            raise ValueError("need at least one original neighbor")

    @property
    def r(self) -> float:
        """Positive ratio of the original neighborhood."""
        return self.n_plus / (self.n_plus + self.n_minus)


def e_origin(spec: NeighborhoodSpec, gm: GaussianMixtureParams) -> float:
    """Expected aggregate over the unmodified neighborhood."""
    r = spec.r
    return r * gm.mu_plus + (1.0 - r) * gm.mu_minus


def e_filter(spec: NeighborhoodSpec, gm: GaussianMixtureParams, p: float, q: float) -> float:
    """Expected aggregate after keeping positives w.p. ``p`` and negatives
    w.p. ``q`` (ratio of expected sums over expected counts).

    NaN when the expected survivor count is zero; returns ``e_origin``
    exactly on the ``p == q`` boundary.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError("p and q must lie in [0, 1]")
    den = p * spec.n_plus + q * spec.n_minus
    if den == 0.0:
        return float("nan")
    if p == q:
        return e_origin(spec, gm)
    return (p * spec.n_plus * gm.mu_plus + q * spec.n_minus * gm.mu_minus) / den


def e_add(spec: NeighborhoodSpec, gm: GaussianMixtureParams, p_pre: float) -> float:
    """Expected aggregate after adding ``spec.n_added`` neighbors of which a
    ``p_pre`` fraction are positive in expectation."""
    if not 0.0 <= p_pre <= 1.0:
        raise ValueError("p_pre must lie in [0, 1]")
    if spec.n_added == 0:
        return e_origin(spec, gm)
    n = spec.n_plus + spec.n_minus
    pos_mass = spec.n_plus + p_pre * spec.n_added
    neg_mass = spec.n_minus + (1.0 - p_pre) * spec.n_added
    return (pos_mass * gm.mu_plus + neg_mass * gm.mu_minus) / (n + spec.n_added)


@dataclass(frozen=True)
class McResult:
    """Monte Carlo estimates for one neighborhood configuration.

    ``mean_estimate`` matches the analytic target of the chosen mode (for
    filter mode, a ratio-of-means estimate). ``conditional_mean`` averages
    the per-trial aggregate (survivor mean after redrawing empty
    neighborhoods); it equals ``mean_estimate`` for origin/add modes.
    """

    mean_estimate: float
    std_error: float
    misclassification_rate: float
    misclassification_std_error: float
    conditional_mean: float
    conditional_std_error: float
    redraws: int
    trials: int


@dataclass(frozen=True)
class McArm:
    """One ``mc_aggregate`` configuration: a neighborhood, a mode and the
    rates that mode reads (``p``/``q`` for filter, ``p_pre`` for add)."""

    spec: NeighborhoodSpec
    mode: str = "origin"
    p: float | None = None
    q: float | None = None
    p_pre: float | None = None

    def __post_init__(self):
        if self.mode not in ("origin", "filter", "add"):
            raise ValueError("mode must be 'origin', 'filter', or 'add'")
        if self.mode == "filter":
            p, q = self.p, self.q
            if p is None or q is None:
                raise ValueError("filter mode needs p and q")
            if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
                raise ValueError("p and q must lie in [0, 1]")
            if (1.0 - p) ** self.spec.n_plus * (1.0 - q) ** self.spec.n_minus >= 1.0:
                raise ValueError("filtering keeps no neighbor with probability 1")
        elif self.mode == "add":
            if self.p_pre is None:
                raise ValueError("add mode needs p_pre")
            if not 0.0 <= self.p_pre <= 1.0:
                raise ValueError("p_pre must lie in [0, 1]")

    def keep_prob(self) -> np.ndarray:
        return np.concatenate([np.full(self.spec.n_plus, self.p), np.full(self.spec.n_minus, self.q)])

    def analytic(self, gm: GaussianMixtureParams) -> float:
        """The closed form that this arm's ``mean_estimate`` estimates."""
        if self.mode == "filter":
            return e_filter(self.spec, gm, self.p, self.q)
        if self.mode == "add":
            return e_add(self.spec, gm, self.p_pre)
        return e_origin(self.spec, gm)


class SharedPass:
    """The arms of one neighborhood, simulated in one pass.

    Pass the same object as ``shared=`` to the ``mc_aggregate`` call of each
    listed arm. The first call simulates every arm with that call's ``gm``,
    ``trials`` and ``seed`` and keeps only per-trial 1-D arrays; later calls
    read them. Draws are keyed by (seed, trial, slot), so each arm sees
    exactly the draws a standalone call makes (common random numbers).
    """

    def __init__(self, arms):
        self.arms = tuple(arms)
        if len({(a.spec.n_plus, a.spec.n_minus) for a in self.arms}) != 1:
            raise ValueError("shared arms need one (n_plus, n_minus) neighborhood")
        self._run = None
        self._arrays = None

    def arrays(self, arm: McArm, gm: GaussianMixtureParams, trials: int, seed: int) -> tuple:
        if arm not in self.arms:
            raise ValueError(f"{arm} is not listed in the shared pass")
        if self._arrays is None:
            self._run = (gm, trials, seed)
            self._arrays = _simulate(self.arms, gm, seed, np.arange(trials, dtype=np.int64))
        elif self._run != (gm, trials, seed):
            raise ValueError("the shared pass ran with another gm, trials or seed")
        return self._arrays[arm]


# the Monte Carlo sweep of ``lagraph theory``: five arms for each
# (n_plus, n_minus) in {1, 3, 5}^2, under one symmetric mixture
SWEEP_MIXTURE = GaussianMixtureParams(mu_plus=1.0, mu_minus=-1.0, sigma2=1.0, tau=0.0)


def sweep_passes():
    """The sweep's neighborhoods as one :class:`SharedPass` each. A pass is
    built when the previous one is done with, so only one holds arrays in
    a process. ``lagraph theory`` runs the passes on forked workers, one per
    usable CPU, when it may use 2 or more CPUs and has at least
    ``2 * MC_BLOCK_ROWS`` trials; each pass is computed whole in one process,
    so its outputs are the same bytes at any worker count."""
    for n_plus in (1, 3, 5):
        for n_minus in (1, 3, 5):
            spec = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus)
            spec_add = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus, n_added=4)
            yield SharedPass([McArm(spec), McArm(spec, "filter", p=0.9, q=0.1),
                              McArm(spec, "filter", p=0.7, q=0.3),
                              McArm(spec_add, "add", p_pre=0.25), McArm(spec_add, "add", p_pre=0.75)])


def _simulate(arms: tuple, gm: GaussianMixtureParams, seed: int, rows: np.ndarray,
              slot0: int = 0) -> dict:
    """Per-trial arrays of every arm for the trial ``rows``, from one pass
    over blocks of at most ``MC_BLOCK_ROWS`` of them; the only code here that
    draws.

    Each block hashes every slot an arm reads once, counted from ``slot0``:
    base normals in slots [0, n), filter uniforms in [n, 2n), add-mode
    uniforms in [n, n + n_add) and add-mode normals in [n + n_add,
    n + 2 n_add). Origin and add arms keep ``(per_trial,)``, filter arms
    ``(num, den)``, one entry per row.

    A block is hashed slot-major, keyed ``(rows[None, blk], slots[:, None])``,
    so each slot is one contiguous row; the sums over slots are
    :func:`_slot_sum`.
    """
    from scipy.special import ndtri  # here, so commands that never simulate skip scipy.special

    spec = arms[0].spec
    n = spec.n_plus + spec.n_minus
    sigma = math.sqrt(gm.sigma2)
    means = np.concatenate([np.full(spec.n_plus, gm.mu_plus), np.full(spec.n_minus, gm.mu_minus)])[:, None]
    added = {a.spec.n_added for a in arms if a.mode == "add" and a.spec.n_added}
    width = max([2 * n if any(a.mode == "filter" for a in arms) else n]
                + [n + 2 * k for k in added])
    keep_probs = {a: a.keep_prob()[:, None] for a in arms if a.mode == "filter"}
    out = {a: tuple(np.empty(rows.size) for _ in range(2 if a.mode == "filter" else 1)) for a in arms}
    slots = np.arange(slot0, slot0 + width, dtype=np.int64)[:, None]
    for start in range(0, rows.size, MC_BLOCK_ROWS):
        blk = slice(start, start + MC_BLOCK_ROWS)
        u = unit_uniform(seed, rows[None, blk], slots)
        base = ndtri(u[:n])
        base *= sigma
        base += means
        base_sum = _slot_sum(base)
        add_noise = {k: ndtri(u[n + k:n + 2 * k]) for k in added}
        for z in add_noise.values():
            z *= sigma
        for arm, arrays in out.items():
            k = arm.spec.n_added
            if arm.mode == "filter":
                flags = u[n:2 * n] < keep_probs[arm]
                arrays[0][blk] = _slot_sum(base * flags)
                arrays[1][blk] = _slot_sum(flags)
            elif arm.mode == "add" and k:
                add_vals = np.where(u[n:n + k] < arm.p_pre, gm.mu_plus, gm.mu_minus)
                add_vals += add_noise[k]
                arrays[0][blk] = (base_sum + _slot_sum(add_vals)) / (n + k)
            else:
                arrays[0][blk] = base_sum / n
    return out


def _slot_sum(x: np.ndarray) -> np.ndarray:
    """Each trial's (column's) sum over the slots (rows) of ``x``, added in
    slot order. Not ``x.sum(axis=0)``: NumPy sums a one-column block
    pairwise, so a trial's sum would depend on the block it lands in."""
    total = x[0] + 0.0
    for row in x[1:]:
        total += row
    return total


def mc_aggregate(spec: NeighborhoodSpec, gm: GaussianMixtureParams, mode: str = "origin",
                 trials: int = 100_000, seed: int = 0,
                 p: float | None = None, q: float | None = None,
                 p_pre: float | None = None, shared: SharedPass | None = None) -> McResult:
    """Simulate neighborhood aggregation and estimate its mean and the
    misclassification rate P(F < tau).

    Per-trial draws are keyed by trial index, so any prefix of trials is
    reproducible independently of ``trials``. Filter mode redraws trials
    whose survivor set is empty (counted in ``redraws``) for the conditional
    statistics, while the Eq-matching ``mean_estimate`` uses the raw first
    draw of every trial. ``shared`` lets the arms of one neighborhood reuse
    one simulation pass; the result is the same as without it.
    """
    arm = McArm(spec, mode, p, q, p_pre)
    if trials < 2:
        raise ValueError("need at least 2 trials")
    shared = SharedPass((arm,)) if shared is None else shared
    arrays = shared.arrays(arm, gm, trials, seed)

    redraws = 0
    if mode == "filter":
        num, den = arrays
        den_mean = float(den.mean())
        if den_mean == 0.0:
            raise RuntimeError("all trials empty; increase trials or rates")
        ratio = float(num.mean()) / den_mean
        resid = num - ratio * den
        mean_est = ratio
        se = float(resid.std(ddof=1) / math.sqrt(trials) / den_mean)

        n = spec.n_plus + spec.n_minus
        active = np.flatnonzero(den == 0)
        if active.size:
            num, den = num.copy(), den.copy()  # a shared pass keeps its first draws
        round_no = 1
        while active.size:
            redraws += int(active.size)
            if round_no > 100_000:
                raise RuntimeError("empty-neighborhood redraw did not terminate")
            # round r draws its empty rows again in slots [2n r, 2n (r + 1))
            fresh_num, fresh_den = _simulate((arm,), gm, seed, active, 2 * n * round_no)[arm]
            num[active], den[active] = fresh_num, fresh_den
            active = active[fresh_den == 0]
            round_no += 1
        per_trial = num / den
        cond = float(per_trial.mean())
        cond_se = float(per_trial.std(ddof=1) / math.sqrt(trials))
    else:
        (per_trial,) = arrays
        mean_est = float(per_trial.mean())
        se = float(per_trial.std(ddof=1) / math.sqrt(trials))
        cond, cond_se = mean_est, se

    mis = float(np.count_nonzero(per_trial < gm.tau) / trials)
    mis_se = float(math.sqrt(max(mis * (1.0 - mis), 1e-300) / trials))
    return McResult(mean_estimate=mean_est, std_error=se,
                    misclassification_rate=mis, misclassification_std_error=mis_se,
                    conditional_mean=cond, conditional_std_error=cond_se,
                    redraws=redraws, trials=trials)


def _twentieths(lo: int, hi: int) -> tuple[float, ...]:
    # k/20 as correctly rounded doubles; equality with n_plus/n is then
    # exact whenever the underlying rationals coincide
    return tuple(k / 20.0 for k in range(lo, hi + 1))


@dataclass(frozen=True)
class PropositionGrid:
    """Parameter grid for the inequality checks."""

    p_values: tuple[float, ...] = _twentieths(1, 20)
    q_values: tuple[float, ...] = _twentieths(1, 20)
    p_pre_values: tuple[float, ...] = _twentieths(0, 20)
    n_plus_values: tuple[int, ...] = tuple(range(1, 11))
    n_minus_values: tuple[int, ...] = tuple(range(1, 11))
    n_added_values: tuple[int, ...] = tuple(range(1, 11))
    mu_plus: float = 1.0
    mu_minus: float = -1.0
    sigma2: float = 1.0
    tau: float = 0.0


@dataclass
class PropositionReport:
    """Grid-check outcome: strict inequalities off the boundary, near-exact
    equality on it. ``violations`` lists offending parameter tuples."""

    filter_points: int = 0
    filter_violations: list = field(default_factory=list)
    filter_boundary_points: int = 0
    filter_boundary_max_err: float = 0.0
    add_points: int = 0
    add_violations: list = field(default_factory=list)
    add_boundary_points: int = 0
    add_boundary_max_err: float = 0.0

    @property
    def passed(self) -> bool:
        return (not self.filter_violations and not self.add_violations
                and self.filter_boundary_max_err <= 1e-12
                and self.add_boundary_max_err <= 1e-12)

    def to_dict(self) -> dict:
        """The fields, each violation list cut to its first 50, plus ``passed``."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        return {**{k: v[:50] if isinstance(v, list) else v for k, v in out.items()}, "passed": self.passed}


def check_propositions(grid: PropositionGrid = PropositionGrid()) -> PropositionReport:
    """Exhaustively compare the filtered/added expectations against the
    original one over the grid.

    Off-boundary points must satisfy the strict inequality in the direction
    of their side (filter: sign of p - q; add: sign of p_pre - r); boundary
    points must agree within 1e-12.
    """
    gm = GaussianMixtureParams(mu_plus=grid.mu_plus, mu_minus=grid.mu_minus,
                               sigma2=grid.sigma2, tau=grid.tau)
    report = PropositionReport()
    for n_plus in grid.n_plus_values:
        for n_minus in grid.n_minus_values:
            spec = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus)
            origin = e_origin(spec, gm)
            for p in grid.p_values:
                for q in grid.q_values:
                    val = e_filter(spec, gm, p, q)
                    if p == q:
                        report.filter_boundary_points += 1
                        err = abs(val - origin)
                        report.filter_boundary_max_err = max(report.filter_boundary_max_err, err)
                    else:
                        report.filter_points += 1
                        ok = val > origin if p > q else val < origin
                        if not ok:
                            report.filter_violations.append(
                                {"n_plus": n_plus, "n_minus": n_minus, "p": p, "q": q,
                                 "e_filter": val, "e_origin": origin})
            r = spec.r
            for n_added in grid.n_added_values:
                spec_add = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus, n_added=n_added)
                for p_pre in grid.p_pre_values:
                    val = e_add(spec_add, gm, p_pre)
                    if p_pre == r:
                        report.add_boundary_points += 1
                        err = abs(val - origin)
                        report.add_boundary_max_err = max(report.add_boundary_max_err, err)
                    else:
                        report.add_points += 1
                        ok = val > origin if p_pre > r else val < origin
                        if not ok:
                            report.add_violations.append(
                                {"n_plus": n_plus, "n_minus": n_minus, "n_added": n_added,
                                 "p_pre": p_pre, "e_add": val, "e_origin": origin})
    return report
