"""Closed-form neighborhood aggregates, their Monte Carlo verification, and
the exhaustive inequality grid."""

import math
import multiprocessing
import os
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import ndtri

import lagraph.cli as cli
import lagraph.theory as theory

from lagraph.cli import config_from_dict, run_theory
from lagraph.hashing import unit_uniform
from lagraph.theory import (
    MC_BLOCK_ROWS,
    GaussianMixtureParams,
    McArm,
    McResult,
    NeighborhoodSpec,
    PropositionGrid,
    PropositionReport,
    SharedPass,
    _simulate,
    check_propositions,
    e_add,
    e_filter,
    e_origin,
    mc_aggregate,
)

GM = GaussianMixtureParams(mu_plus=1.0, mu_minus=-1.0, sigma2=1.0, tau=0.0)
SPEC = NeighborhoodSpec(n_plus=3, n_minus=2)


class TestClosedForms:
    def test_origin_hand_computed(self):
        assert e_origin(SPEC, GM) == pytest.approx(0.2, abs=1e-15)
        gm2 = GaussianMixtureParams(mu_plus=2.0, mu_minus=-0.5, sigma2=1.0, tau=0.1)
        spec2 = NeighborhoodSpec(n_plus=2, n_minus=2)
        assert e_origin(spec2, gm2) == pytest.approx(0.75, abs=1e-15)

    def test_filter_hand_computed(self):
        # (0.9*3*1 + 0.1*2*(-1)) / (0.9*3 + 0.1*2) = 2.5 / 2.9
        assert e_filter(SPEC, GM, p=0.9, q=0.1) == pytest.approx(2.5 / 2.9, abs=1e-15)

    def test_add_hand_computed(self):
        # pos mass 3 + 0.75*4 = 6, neg mass 2 + 0.25*4 = 3 -> (6 - 3) / 9
        spec = NeighborhoodSpec(n_plus=3, n_minus=2, n_added=4)
        assert e_add(spec, GM, p_pre=0.75) == pytest.approx(1.0 / 3.0, abs=1e-15)

    def test_filter_boundary_is_exact(self):
        assert e_filter(SPEC, GM, p=0.37, q=0.37) == e_origin(SPEC, GM)

    def test_filter_degenerate_rates(self):
        assert math.isnan(e_filter(SPEC, GM, p=0.0, q=0.0))
        assert e_filter(SPEC, GM, p=1.0, q=0.0) == GM.mu_plus
        assert e_filter(SPEC, GM, p=0.0, q=1.0) == GM.mu_minus

    def test_add_nothing_is_origin(self):
        assert e_add(SPEC, GM, p_pre=0.9) == e_origin(SPEC, GM)

    def test_r_property(self):
        assert SPEC.r == pytest.approx(0.6, abs=1e-15)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 12), st.integers(0, 12),
           st.floats(0.0, 1.0), st.floats(0.0, 1.0), st.floats(0.0, 1.0),
           st.integers(0, 12))
    def test_values_stay_between_the_means(self, n_p, n_m, p, q, p_pre, n_added):
        spec = NeighborhoodSpec(n_plus=n_p, n_minus=n_m, n_added=n_added)
        for val in (e_origin(spec, GM), e_filter(spec, GM, p, q), e_add(spec, GM, p_pre)):
            if not math.isnan(val):
                assert GM.mu_minus - 1e-12 <= val <= GM.mu_plus + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8),
           st.floats(0.05, 0.95), st.floats(0.05, 1.0))
    def test_filter_strictly_increasing_in_p(self, n_p, n_m, p, q):
        spec = NeighborhoodSpec(n_plus=n_p, n_minus=n_m)
        assert e_filter(spec, GM, min(p + 0.05, 1.0), q) > e_filter(spec, GM, p, q)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 8), st.integers(1, 8), st.integers(1, 8),
           st.floats(0.0, 0.89))
    def test_add_strictly_increasing_in_p_pre(self, n_p, n_m, n_added, p_pre):
        spec = NeighborhoodSpec(n_plus=n_p, n_minus=n_m, n_added=n_added)
        assert e_add(spec, GM, p_pre + 0.1) > e_add(spec, GM, p_pre)

    def test_validation(self):
        with pytest.raises(ValueError, match="sigma2"):
            GaussianMixtureParams(mu_plus=1, mu_minus=-1, sigma2=0.0, tau=0)
        with pytest.raises(ValueError, match="mu_plus > tau > mu_minus"):
            GaussianMixtureParams(mu_plus=1, mu_minus=-1, sigma2=1, tau=2)
        with pytest.raises(ValueError, match="non-negative"):
            NeighborhoodSpec(n_plus=-1, n_minus=2)
        with pytest.raises(ValueError, match="at least one"):
            NeighborhoodSpec(n_plus=0, n_minus=0)
        with pytest.raises(ValueError, match="p and q"):
            e_filter(SPEC, GM, p=1.2, q=0.5)
        with pytest.raises(ValueError, match="p_pre"):
            e_add(SPEC, GM, p_pre=-0.1)


class TestMonteCarlo:
    def test_origin_matches_closed_form(self):
        res = mc_aggregate(SPEC, GM, mode="origin", trials=20_000, seed=1)
        assert abs(res.mean_estimate - e_origin(SPEC, GM)) <= 3 * res.std_error
        assert res.conditional_mean == res.mean_estimate
        assert res.redraws == 0

    def test_origin_misclassification_is_gaussian_tail(self):
        # mean of n iid normals: F ~ N(e_origin, sigma2 / n)
        res = mc_aggregate(SPEC, GM, mode="origin", trials=40_000, seed=2)
        n = SPEC.n_plus + SPEC.n_minus
        want = stats.norm.cdf((GM.tau - e_origin(SPEC, GM)) * math.sqrt(n / GM.sigma2))
        assert abs(res.misclassification_rate - want) <= 3 * res.misclassification_std_error

    def test_filter_matches_closed_form(self):
        res = mc_aggregate(SPEC, GM, mode="filter", trials=40_000, seed=3, p=0.9, q=0.1)
        assert abs(res.mean_estimate - e_filter(SPEC, GM, 0.9, 0.1)) <= 3 * res.std_error

    def test_perfect_filter_misclassification(self):
        # survivors are exactly the positives: F ~ N(mu_plus, sigma2 / n_plus)
        res = mc_aggregate(SPEC, GM, mode="filter", trials=40_000, seed=4, p=1.0, q=0.0)
        want = stats.norm.cdf((GM.tau - GM.mu_plus) * math.sqrt(SPEC.n_plus / GM.sigma2))
        assert abs(res.misclassification_rate - want) <= 3 * res.misclassification_std_error
        assert res.redraws == 0

    def test_add_matches_closed_form(self):
        spec = NeighborhoodSpec(n_plus=3, n_minus=2, n_added=4)
        res = mc_aggregate(spec, GM, mode="add", trials=40_000, seed=5, p_pre=0.75)
        assert abs(res.mean_estimate - e_add(spec, GM, 0.75)) <= 3 * res.std_error

    def test_vanishing_noise_recovers_origin_exactly(self):
        gm = GaussianMixtureParams(mu_plus=1.0, mu_minus=-1.0, sigma2=1e-12, tau=0.0)
        res = mc_aggregate(SPEC, gm, mode="origin", trials=1_000, seed=6)
        assert abs(res.mean_estimate - e_origin(SPEC, gm)) < 1e-6
        assert res.misclassification_rate == 0.0  # e_origin = 0.2 > tau

    def test_doubling_trials_shrinks_se_by_sqrt2(self):
        a = mc_aggregate(SPEC, GM, mode="filter", trials=20_000, seed=7, p=0.8, q=0.2)
        b = mc_aggregate(SPEC, GM, mode="filter", trials=40_000, seed=7, p=0.8, q=0.2)
        ratio = a.std_error / b.std_error
        assert math.sqrt(2) * 0.9 <= ratio <= math.sqrt(2) * 1.1

    def test_deterministic_and_prefix_invariant(self):
        a = mc_aggregate(SPEC, GM, mode="origin", trials=500, seed=8)
        b = mc_aggregate(SPEC, GM, mode="origin", trials=500, seed=8)
        assert a == b
        rows = np.arange(30, dtype=np.int64)
        arm = McArm(SPEC)
        (draws,) = _simulate((arm,), GM, 9, rows)[arm]
        assert np.array_equal(_simulate((arm,), GM, 9, rows[:10])[arm][0], draws[:10])

    def test_empty_survivor_sets_are_redrawn(self):
        spec = NeighborhoodSpec(n_plus=1, n_minus=1)
        res = mc_aggregate(spec, GM, mode="filter", trials=5_000, seed=10, p=0.3, q=0.3)
        # P(empty) = 0.49 per draw, so redraws must show up
        assert res.redraws > 1_000
        assert math.isfinite(res.conditional_mean)
        assert abs(res.mean_estimate - e_origin(spec, GM)) <= 4 * res.std_error

    def test_conditional_mean_differs_from_ratio_estimate(self):
        # ratio of means weights trials by survivor count; with asymmetric
        # counts the per-trial mean is biased toward small neighborhoods
        spec = NeighborhoodSpec(n_plus=2, n_minus=2)
        res = mc_aggregate(spec, GM, mode="filter", trials=40_000, seed=11, p=0.9, q=0.3)
        assert abs(res.conditional_mean - res.mean_estimate) > 5 * res.std_error

    def test_validation(self):
        with pytest.raises(ValueError, match="mode"):
            mc_aggregate(SPEC, GM, mode="shuffle")
        with pytest.raises(ValueError, match="trials"):
            mc_aggregate(SPEC, GM, trials=1)
        with pytest.raises(ValueError, match="needs p and q"):
            mc_aggregate(SPEC, GM, mode="filter", trials=10)
        with pytest.raises(ValueError, match="needs p_pre"):
            mc_aggregate(SPEC, GM, mode="add", trials=10)
        with pytest.raises(ValueError, match="keeps no neighbor"):
            mc_aggregate(SPEC, GM, mode="filter", trials=10, p=0.0, q=0.0)


class TestPropositionGridCheck:
    def test_small_grid_counts_and_pass(self):
        grid = PropositionGrid(
            p_values=(0.2, 0.4), q_values=(0.2, 0.4), p_pre_values=(0.0, 0.5, 1.0),
            n_plus_values=(1, 2), n_minus_values=(1, 2), n_added_values=(1, 2))
        report = check_propositions(grid)
        assert report.passed
        # 4 (n+,n-) combos x 4 (p,q) cells, half on the p == q diagonal
        assert report.filter_points == 8
        assert report.filter_boundary_points == 8
        # r == 0.5 for the (1,1) and (2,2) combos, hit by p_pre = 0.5
        assert report.add_boundary_points == 4
        assert report.add_points == 4 * 2 * 3 - 4
        assert report.filter_boundary_max_err <= 1e-12
        assert report.add_boundary_max_err <= 1e-12

    def test_violations_flip_passed(self):
        report = PropositionReport()
        assert report.passed
        report.filter_violations.append({"p": 0.5})
        assert not report.passed
        clean = PropositionReport(add_boundary_max_err=1e-6)
        assert not clean.passed

    def test_dict_truncates_violations(self):
        report = PropositionReport()
        report.add_violations.extend({"i": i} for i in range(60))
        d = report.to_dict()
        assert len(d["add_violations"]) == 50
        assert d["passed"] is False

    def test_default_grid_matches_spec_shape(self):
        grid = PropositionGrid()
        assert grid.p_values[0] == 0.05 and grid.p_values[-1] == 1.0
        assert len(grid.p_values) == 20
        assert grid.p_pre_values[0] == 0.0 and len(grid.p_pre_values) == 21
        assert grid.n_plus_values == tuple(range(1, 11))


def _ref_normals(seed, rows, slot0, count):
    slots = np.arange(slot0, slot0 + count, dtype=np.int64)[None, :]
    return ndtri(unit_uniform(seed, rows[:, None], slots))


def _ref_uniforms(seed, rows, slot0, count):
    slots = np.arange(slot0, slot0 + count, dtype=np.int64)[None, :]
    return unit_uniform(seed, rows[:, None], slots)


def _row_sum(m):
    """Each row of ``m`` summed left to right from +0.0: NumPy's accumulate
    adds in order, where its sum adds pairwise."""
    return np.add.accumulate(np.column_stack([np.zeros(len(m)), m]), axis=1)[:, -1]


def reference_mc_aggregate(spec, gm, mode="origin", trials=100_000, seed=0,
                           p=None, q=None, p_pre=None):
    """The single-arm sampler over full trials x n matrices, before the
    blocked pass shared by a neighborhood's arms."""
    n_p, n_m = spec.n_plus, spec.n_minus
    n = n_p + n_m
    sigma = math.sqrt(gm.sigma2)
    means = np.concatenate([np.full(n_p, gm.mu_plus), np.full(n_m, gm.mu_minus)])
    rows = np.arange(trials, dtype=np.int64)
    base = means[None, :] + sigma * _ref_normals(seed, rows, 0, n)

    redraws = 0
    if mode == "origin":
        per_trial = _row_sum(base) / n
        mean_est = float(per_trial.mean())
        se = float(per_trial.std(ddof=1) / math.sqrt(trials))
        cond, cond_se = mean_est, se
    elif mode == "filter":
        keep_prob = np.concatenate([np.full(n_p, p), np.full(n_m, q)])
        flags = _ref_uniforms(seed, rows, n, n) < keep_prob[None, :]
        num = _row_sum(base * flags)
        den = flags.sum(axis=1).astype(np.float64)
        den_mean = float(den.mean())
        ratio = float(num.mean()) / den_mean
        resid = num - ratio * den
        mean_est = ratio
        se = float(resid.std(ddof=1) / math.sqrt(trials) / den_mean)

        values = base
        active = np.flatnonzero(den == 0)
        round_no = 1
        while active.size:
            redraws += int(active.size)
            fresh_vals = means[None, :] + sigma * _ref_normals(seed, active, 2 * n * round_no, n)
            fresh_flags = _ref_uniforms(seed, active, 2 * n * round_no + n, n) < keep_prob[None, :]
            fresh_den = fresh_flags.sum(axis=1).astype(np.float64)
            values[active] = fresh_vals
            flags[active] = fresh_flags
            den[active] = fresh_den
            num[active] = _row_sum(fresh_vals * fresh_flags)
            active = active[fresh_den == 0]
            round_no += 1
        per_trial = num / den
        cond = float(per_trial.mean())
        cond_se = float(per_trial.std(ddof=1) / math.sqrt(trials))
    else:
        n_add = spec.n_added
        if n_add:
            pos = _ref_uniforms(seed, rows, n, n_add) < p_pre
            add_means = np.where(pos, gm.mu_plus, gm.mu_minus)
            add_vals = add_means + sigma * _ref_normals(seed, rows, n + n_add, n_add)
            per_trial = (_row_sum(base) + _row_sum(add_vals)) / (n + n_add)
        else:
            per_trial = _row_sum(base) / n
        mean_est = float(per_trial.mean())
        se = float(per_trial.std(ddof=1) / math.sqrt(trials))
        cond, cond_se = mean_est, se

    mis = float(np.count_nonzero(per_trial < gm.tau) / trials)
    mis_se = float(math.sqrt(max(mis * (1.0 - mis), 1e-300) / trials))
    return McResult(mean_estimate=mean_est, std_error=se,
                    misclassification_rate=mis, misclassification_std_error=mis_se,
                    conditional_mean=cond, conditional_std_error=cond_se,
                    redraws=redraws, trials=trials)


def neighborhood_arms(n_plus, n_minus, n_added=4):
    spec = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus)
    spec_add = NeighborhoodSpec(n_plus=n_plus, n_minus=n_minus, n_added=n_added)
    return [McArm(spec), McArm(spec, "filter", p=0.9, q=0.1), McArm(spec, "filter", p=0.3, q=0.3),
            McArm(spec_add, "add", p_pre=0.25), McArm(spec_add, "add", p_pre=0.75),
            McArm(spec, "add", p_pre=0.5)]


def run_arm(arm, trials, seed, shared=None):
    return mc_aggregate(arm.spec, GM, mode=arm.mode, trials=trials, seed=seed,
                        p=arm.p, q=arm.q, p_pre=arm.p_pre, shared=shared)


class TestMonteCarloMatchesReference:
    """The blocked pass, alone or shared by a neighborhood's arms, gives
    every ``McResult`` field exactly as the full-matrix sampler does."""

    @pytest.mark.parametrize("trials", [1_000, MC_BLOCK_ROWS, MC_BLOCK_ROWS + 1])
    # n = 8, 10 and 17 reach 8 slots, from which NumPy's pairwise sum and the in-order sum part
    @pytest.mark.parametrize("n_plus,n_minus", [(1, 1), (3, 5), (5, 5), (9, 8)])
    def test_standalone_and_shared_calls(self, trials, n_plus, n_minus):
        arms = neighborhood_arms(n_plus, n_minus)
        shared = SharedPass(arms)
        for arm in arms:
            want = reference_mc_aggregate(arm.spec, GM, arm.mode, trials, 12,
                                          arm.p, arm.q, arm.p_pre)
            assert run_arm(arm, trials, 12) == want, arm
            assert run_arm(arm, trials, 12, shared) == want, arm

    def test_empty_neighborhoods_redraw_alike(self):
        # n_plus = n_minus = 1 at p = q = 0.3 leaves 49% of trials empty
        arm = McArm(NeighborhoodSpec(n_plus=1, n_minus=1), "filter", p=0.3, q=0.3)
        trials = MC_BLOCK_ROWS + 1
        want = reference_mc_aggregate(arm.spec, GM, "filter", trials, 10, 0.3, 0.3)
        assert want.redraws > 1_000
        shared = SharedPass([arm])
        # a second call through the same pass sees the first draws, not the redrawn ones
        for got in (run_arm(arm, trials, 10), run_arm(arm, trials, 10, shared),
                    run_arm(arm, trials, 10, shared)):
            assert got == want

    @pytest.mark.parametrize("block", [1, 7, 4096])
    def test_results_do_not_depend_on_the_block_size(self, block, monkeypatch):
        arms = neighborhood_arms(2, 3)
        redraw = McArm(NeighborhoodSpec(n_plus=1, n_minus=1), "filter", p=0.3, q=0.3)

        def results():
            shared = SharedPass(arms)
            return [run_arm(arm, 300, 4, shared) for arm in arms] + [run_arm(redraw, 300, 4)]

        want = results()
        assert want[-1].redraws > 100
        monkeypatch.setattr(theory, "MC_BLOCK_ROWS", block)
        assert results() == want

    def test_shared_pass_rejects_other_calls(self):
        arms = neighborhood_arms(2, 3)
        shared = SharedPass(arms)
        run_arm(arms[0], 100, 0, shared)
        with pytest.raises(ValueError, match="not listed"):
            mc_aggregate(arms[1].spec, GM, mode="filter", trials=100, p=0.5, q=0.5, shared=shared)
        with pytest.raises(ValueError, match="another gm, trials or seed"):
            run_arm(arms[1], 100, 1, shared)
        with pytest.raises(ValueError, match="one .n_plus, n_minus. neighborhood"):
            SharedPass([McArm(SPEC), McArm(NeighborhoodSpec(n_plus=1, n_minus=1))])


class TestTheoryDrawsOnce:
    def test_draws_bounded_by_one_pass_per_neighborhood(self, monkeypatch, tmp_path):
        trials = 3_000
        draws, results = [0], []
        original_uniform, original_mc = theory.unit_uniform, cli.mc_aggregate

        def counted_uniform(*args, **kwargs):
            out = original_uniform(*args, **kwargs)
            draws[0] += out.size
            return out

        def recorded_mc(spec, gm, mode="origin", **kwargs):
            res = original_mc(spec, gm, mode, **kwargs)
            results.append((spec, mode, res))
            return res

        monkeypatch.setattr(theory, "unit_uniform", counted_uniform)
        monkeypatch.setattr(cli, "mc_aggregate", recorded_mc)
        assert run_theory(config_from_dict({"theory_trials": trials,
                                            "output_dir": str(tmp_path)})) == 0
        # one call through the name the benchmark tracer wraps per CSV row
        lines = (tmp_path / "theory_sweep.csv").read_text(encoding="utf-8").splitlines()
        assert len(results) == len(lines) - 1 == 45
        sizes = {(s.n_plus, s.n_minus): s.n_plus + s.n_minus for s, _, _ in results}
        # base normals and filter uniforms (n each), add uniforms and normals (4 each)
        bound = sum((2 * n + 8) * trials for n in sizes.values())
        # every redraw round draws n normals and n uniforms for each empty trial
        bound += sum(2 * (s.n_plus + s.n_minus) * r.redraws
                     for s, mode, r in results if mode == "filter")
        assert 0 < draws[0] <= bound

    def test_a_pass_is_unreachable_once_the_next_starts(self, monkeypatch, tmp_path):
        # a pass holds 7 arrays of `trials` floats; the sweep must not keep
        # all nine neighborhoods' arrays alive at once
        passes = []
        original_mc = cli.mc_aggregate

        def tracked_mc(*args, shared, **kwargs):
            if not passes or passes[-1]() is not shared:
                assert all(ref() is None for ref in passes), "an earlier pass is still alive"
                passes.append(weakref.ref(shared))
            return original_mc(*args, shared=shared, **kwargs)

        monkeypatch.setattr(cli, "mc_aggregate", tracked_mc)
        assert run_theory(config_from_dict({"theory_trials": 200,
                                            "output_dir": str(tmp_path)})) == 0
        assert len(passes) == 9


class TestForkedSweep:
    """At ``2 * MC_BLOCK_ROWS`` trials or more, on 2 or more CPUs, the sweep's
    passes run on forked workers."""

    pytestmark = pytest.mark.skipif(cli._usable_cpus() < 2, reason="one usable CPU: no workers")

    @pytest.mark.parametrize("seed", [0, 1])
    def test_workers_write_the_bytes_of_one_process(self, monkeypatch, tmp_path, seed):
        forked = []
        original_sweep = cli._forked_sweep

        def counted_sweep(*args):
            forked.append(args)
            return original_sweep(*args)

        def outputs(out):
            assert run_theory(config_from_dict({"theory_trials": 3 * MC_BLOCK_ROWS, "seeds": [seed],
                                                "output_dir": str(out)})) == 0
            return [(out / name).read_bytes() for name in ("theory_sweep.csv", "theory_propositions.json")]

        monkeypatch.setattr(cli, "_forked_sweep", counted_sweep)
        on_workers = outputs(tmp_path / "workers")
        monkeypatch.setattr(cli, "_usable_cpus", lambda: 1)
        assert outputs(tmp_path / "one") == on_workers
        assert len(forked) == 1

    def test_no_worker_outlives_the_sweep(self, monkeypatch, tmp_path):
        cfg = config_from_dict({"theory_trials": 2 * MC_BLOCK_ROWS, "output_dir": str(tmp_path)})
        assert run_theory(cfg) == 0
        assert multiprocessing.active_children() == []

        original_mc = cli.mc_aggregate

        def failing_mc(spec, *args, **kwargs):
            if spec.n_plus == 3 and spec.n_minus == 5:
                raise FloatingPointError("pass failed", os.getpid())
            return original_mc(spec, *args, **kwargs)

        monkeypatch.setattr(cli, "mc_aggregate", failing_mc)
        with pytest.raises(FloatingPointError, match="pass failed") as err:
            run_theory(cfg)
        assert err.value.args[1] != os.getpid()  # raised in a worker
        assert multiprocessing.active_children() == []


class TestOneDrawKernel:
    def test_redraws_hash_at_most_one_block_of_rows(self, monkeypatch):
        hashed_rows = []
        original_uniform = theory.unit_uniform

        def counted_uniform(seed, rows, *keys):
            hashed_rows.append(np.size(rows))
            return original_uniform(seed, rows, *keys)

        monkeypatch.setattr(theory, "unit_uniform", counted_uniform)
        # P(empty) = 0.49, so the first redraw round holds about 6,000 rows
        res = mc_aggregate(NeighborhoodSpec(n_plus=1, n_minus=1), GM, mode="filter",
                           trials=3 * MC_BLOCK_ROWS, seed=0, p=0.3, q=0.3)
        assert res.redraws > 2 * MC_BLOCK_ROWS
        assert len(hashed_rows) > 3
        assert max(hashed_rows) <= MC_BLOCK_ROWS

    def test_analytic_is_the_closed_form_of_the_mode(self):
        spec_add = NeighborhoodSpec(n_plus=3, n_minus=2, n_added=4)
        assert McArm(SPEC).analytic(GM) == e_origin(SPEC, GM)
        assert McArm(SPEC, "filter", p=0.9, q=0.2).analytic(GM) == e_filter(SPEC, GM, 0.9, 0.2)
        assert McArm(spec_add, "add", p_pre=0.3).analytic(GM) == e_add(spec_add, GM, 0.3)


class TestSlotSums:
    """``_slot_sum`` adds each trial's slots in slot order from +0.0, bit
    for bit, so a trial's values do not depend on the block it is
    simulated in."""

    @pytest.mark.parametrize("width", [*range(1, 25), 64, 127, 128, 129, 300])
    def test_bit_equal_to_numpy_row_sums(self, width):
        rng = np.random.default_rng(width)
        x = rng.standard_normal((width, 101)) * 10.0 ** rng.integers(-12, 13, (width, 101))
        x[:, :3] = -0.0
        flags = rng.random(x.shape) < 0.5
        # a masked product holds -0.0 wherever a negative value is dropped
        for values in (x, x * flags):
            want = _row_sum(values.T)
            assert np.array_equal(theory._slot_sum(values).view(np.int64), want.view(np.int64))

    def test_a_trial_alone_equals_it_inside_a_block(self):
        # 17 slots, where NumPy's pairwise sum of a one-trial block and the
        # in-order sum of a wider one part
        arms = tuple(neighborhood_arms(9, 8))
        rows = np.arange(300, dtype=np.int64)
        block = _simulate(arms, GM, 5, rows)
        differ = set()
        for row in rows:
            alone = _simulate(arms, GM, 5, rows[row:row + 1])
            for arm in arms:
                if any(a[0] != b[row] for a, b in zip(alone[arm], block[arm])):
                    differ.add(int(row))
        assert not differ, f"{len(differ)} of 300 trials differ"
