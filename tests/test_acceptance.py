"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line
with the measured quantities. The experiment-backed criteria run the packaged
configs exactly as shipped (20 seeds, budget 40 for the transfer pair)."""

import json
import math

import numpy as np
import pytest
from scipy.stats import chi2

import tactilab
from tactilab.active import UncertaintyTable, posterior_entropy, select_next
from tactilab.cli import main as cli_main
from tactilab.config import load_config
from tactilab.features import Modality, activity, complexity, linear_correlation, mobility
from tactilab.harness import run_experiment
from tactilab.kernels import CombinedKernel, DependentKernel, RbfKernel, dependent_gram
from tactilab.laplace import gpc_fit, gpc_predict, gpc_predict_batch, gpr_fit, gpr_predict
from tactilab.signals import STANDARD_ACTIONS
from tactilab.transfer import fit_dependent_gpc

from conftest import force_obs, two_part_obs
from test_gp import gpc_quadrature_oracle, gpr_dense_inverse_oracle, pts
from test_transfer import cluster


def report(criterion: str, passed: bool, detail: str) -> None:
    print(f"[{criterion}] {'PASS' if passed else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def transfer_gain_result():
    config = load_config(tactilab.data_path("configs", "a1_transfer_gain.json"))
    return config, run_experiment(config, jobs=2)


@pytest.fixture(scope="module")
def negative_guard_result():
    config = load_config(tactilab.data_path("configs", "a3_negative_guard.json"))
    return config, run_experiment(config, jobs=2)


@pytest.fixture(scope="module")
def ablation_result():
    config = load_config(tactilab.data_path("configs", "a4_multikernel.json"))
    return config, run_experiment(config)


class TestA1TransferGain:
    def test_mean_accuracy_gap_at_budget(self, transfer_gain_result):
        config, result = transfer_gain_result
        assert not result.failures
        transfer = result.mean_curve("transfer")
        baseline = result.mean_curve("no_transfer")
        assert len(transfer) == config.budget == 40
        gap = transfer[39] - baseline[39]
        detail = (
            f"iter40 transfer {transfer[39]:.3f} vs no-transfer {baseline[39]:.3f}, "
            f"gap {gap * 100:+.1f} pp (need >= +5), 20 seeds"
        )
        report("A1", gap >= 0.05, detail)
        assert gap >= 0.05


class TestA2OneShotGain:
    def test_mean_accuracy_gap_at_first_iteration(self, transfer_gain_result):
        _, result = transfer_gain_result
        transfer = result.mean_curve("transfer")
        baseline = result.mean_curve("no_transfer")
        gap = transfer[0] - baseline[0]
        detail = (
            f"iter1 transfer {transfer[0]:.3f} vs no-transfer {baseline[0]:.3f}, "
            f"gap {gap * 100:+.1f} pp (need >= +5)"
        )
        report("A2", gap >= 0.05, detail)
        assert gap >= 0.05


class TestA3NegativeTransferGuard:
    def test_curves_stay_close_and_decisions_mostly_none(self, negative_guard_result):
        config, result = negative_guard_result
        assert not result.failures
        transfer = np.array(result.mean_curve("transfer"))
        baseline = np.array(result.mean_curve("no_transfer"))
        max_gap = float(np.max(np.abs(transfer - baseline)))
        decisions = [
            d for t in result.trials["transfer"].values() for d in t.decisions
        ]
        none_fraction = sum(1 for d in decisions if d["selected_old"] is None) / len(
            decisions
        )
        ok = max_gap <= 0.03 and none_fraction >= 0.90
        detail = (
            f"max |gap| {max_gap * 100:.2f} pp (limit 3), "
            f"None fraction {none_fraction:.3f} (need >= 0.90), "
            f"{len(decisions)} decisions"
        )
        report("A3", ok, detail)
        assert max_gap <= 0.03
        assert none_fraction >= 0.90


class TestA4MultiKernelFusion:
    def test_combined_tracks_best_single_and_beats_noise(self, ablation_result):
        config, result = ablation_result
        sizes = list(config.ablation_sizes)
        combined = np.array(result.mean_curve("combined"))
        singles = {
            m: np.array(result.mean_curve(m)) for m in result.modes if m != "combined"
        }
        best_single = np.max(np.vstack(list(singles.values())), axis=0)
        margins = combined - best_single
        noise_gap_at_20 = combined[sizes.index(20)] - singles["force_only"][
            sizes.index(20)
        ]
        ok = bool(np.all(margins >= -0.02) and noise_gap_at_20 >= 0.10)
        detail = (
            f"combined-vs-best margins {[f'{m * 100:+.1f}' for m in margins]} pp "
            f"at sizes {sizes} (floor -2), noise gap at 20 "
            f"{noise_gap_at_20 * 100:+.1f} pp (need >= +10)"
        )
        report("A4", ok, detail)
        assert np.all(margins >= -0.02)
        assert noise_gap_at_20 >= 0.10


class TestA5GpOracleEquivalence:
    def test_gpr_matches_dense_inverse_oracle(self):
        rng = np.random.default_rng(50)
        worst = 0.0
        for _ in range(50):
            n = int(rng.integers(2, 31))
            dim = int(rng.integers(1, 4))
            kernel = RbfKernel(float(rng.uniform(0.3, 2.0)), float(rng.uniform(0.5, 2.0)))
            X = [rng.standard_normal(dim) for _ in range(n)]
            y = rng.standard_normal(n)
            sigma2 = float(rng.uniform(0.01, 1.0))
            model = gpr_fit(kernel, X, y, sigma2)
            x_star = rng.standard_normal(dim)
            mean, var = gpr_predict(model, x_star)
            o_mean, o_var = gpr_dense_inverse_oracle(kernel, X, y, sigma2, x_star)
            worst = max(worst, abs(mean - o_mean), abs(var - o_var))
        report("A5-gpr", worst < 1e-10, f"50 instances (n<=30), worst |diff| {worst:.2e} (limit 1e-10)")
        assert worst < 1e-10

    def test_gpc_matches_quadrature_oracle(self):
        rng = np.random.default_rng(51)
        worst = 0.0
        for _ in range(20):
            n = int(rng.integers(2, 7))
            kernel = RbfKernel(float(rng.uniform(0.4, 1.5)), float(rng.uniform(0.5, 2.0)))
            xs = np.sort(rng.uniform(-2.5, 2.5, size=n))
            X = [np.array([v]) for v in xs]
            y = rng.choice([-1.0, 1.0], size=n)
            if np.all(y == y[0]):
                y[0] = -y[0]
            model = gpc_fit(kernel, X, y)
            q = np.array([float(rng.uniform(-3, 3))])
            p = gpc_predict(model, q)
            oracle = gpc_quadrature_oracle(kernel, X, y, q)
            worst = max(worst, abs(p - oracle))
        report("A5-gpc", worst < 2e-2, f"20 instances (n<=6), worst |diff| {worst:.2e} (limit 2e-2)")
        assert worst < 2e-2


class TestA6KernelPsdSuite:
    def test_dependent_grams_psd_by_eigensolver(self):
        rng = np.random.default_rng(60)
        min_eig = np.inf
        for _ in range(200):
            rho = float(rng.uniform(0.0, 1.0))
            n_old = int(rng.integers(1, 31))
            n_new = int(rng.integers(1, 61 - n_old))
            base = CombinedKernel(
                (
                    (Modality.FORCE, RbfKernel(float(rng.uniform(0.2, 2.0)), 1.0)),
                    (Modality.THERMAL, RbfKernel(float(rng.uniform(0.5, 4.0)), 1.0)),
                ),
                np.array([0.5, 0.5]),
            )
            old = [
                two_part_obs(rng.standard_normal(1), rng.standard_normal(10))
                for _ in range(n_old)
            ]
            new = [
                two_part_obs(rng.standard_normal(1), rng.standard_normal(10))
                for _ in range(n_new)
            ]
            k = dependent_gram(DependentKernel(base, rho), old, new)
            min_eig = min(min_eig, float(np.linalg.eigvalsh(k).min()))
        report("A6", min_eig >= -1e-8, f"200 grams (n<=60), min eigenvalue {min_eig:.2e} (floor -1e-8)")
        assert min_eig >= -1e-8


class TestA7EntropySelectionInvariants:
    def test_entropy_bounds(self):
        rng = np.random.default_rng(70)
        ok = True
        for _ in range(500):
            n = int(rng.integers(2, 9))
            h = posterior_entropy(rng.uniform(0, 1, size=n))
            ok = ok and (0.0 <= h <= math.log(n) + 1e-9)
        report("A7-entropy", ok, "500 random posteriors within [0, log N]")
        assert ok

    def test_greedy_determinism(self):
        values = np.array([[0.3, 0.6, 0.1], [0.2, 0.6, 0.59]])
        table = UncertaintyTable(("P2", "C1"), (11, 12, 13), values)
        picks = {
            select_next(table, 0.0, np.random.default_rng(s)) for s in range(100)
        }
        report("A7-greedy", picks == {(12, "P2")}, f"eps=0 always argmax: {picks}")
        assert picks == {(12, "P2")}

    def test_exploration_uniformity_chi_squared(self):
        values = np.full((3, 5), 0.5)
        table = UncertaintyTable(
            ("P2", "S4", "C1"), (11, 12, 13, 14, 15), values
        )
        rng = np.random.default_rng(71)
        counts: dict = {}
        draws = 10_000
        for _ in range(draws):
            key = select_next(table, 1.0, rng)
            counts[key] = counts.get(key, 0) + 1
        cells = [
            counts.get((o, a), 0) for o in table.object_ids for a in table.action_ids
        ]
        expected = draws / len(cells)
        stat = float(sum((c - expected) ** 2 / expected for c in cells))
        bound = float(chi2.ppf(0.99, df=len(cells) - 1))
        report(
            "A7-explore",
            stat < bound,
            f"chi2 {stat:.1f} < {bound:.1f} over {draws} draws, {len(cells)} cells",
        )
        assert stat < bound


class TestA8RhoDegeneracy:
    def test_rho_limits_match_reference_models(self):
        rng = np.random.default_rng(80)
        kernel = CombinedKernel(
            ((Modality.FORCE, RbfKernel(0.5, 2.0)),), np.array([1.0])
        )
        X_old = cluster(rng, 0.0, 10)
        X_j = cluster(rng, 0.0, 5)
        X_rest = cluster(rng, 3.0, 10)
        queries = [force_obs(v) for v in np.linspace(-1.5, 4.0, 9)]

        pooled = gpc_fit(
            kernel,
            X_old + X_j + X_rest,
            np.array([1.0] * 15 + [-1.0] * 10),
        )
        dep_one = fit_dependent_gpc(X_old, X_j, X_rest, kernel, 1.0)
        diff_one = float(
            np.max(
                np.abs(
                    gpc_predict_batch(dep_one, queries) - gpc_predict_batch(pooled, queries)
                )
            )
        )

        bare = fit_dependent_gpc([], X_j, X_rest, kernel, 0.0)
        dep_zero = fit_dependent_gpc(X_old, X_j, X_rest, kernel, 0.0)
        diff_zero = float(
            np.max(
                np.abs(
                    gpc_predict_batch(dep_zero, queries) - gpc_predict_batch(bare, queries)
                )
            )
        )
        ok = diff_one < 1e-9 and diff_zero < 1e-6
        report(
            "A8",
            ok,
            f"rho=1 vs pooled |diff| {diff_one:.2e} (limit 1e-9); "
            f"rho=0 vs no-transfer |diff| {diff_zero:.2e} (limit 1e-6)",
        )
        assert diff_one < 1e-9
        assert diff_zero < 1e-6


class TestA9FeatureAnalytics:
    def test_texture_statistics_against_analytic_values(self):
        omega = 0.06
        x = np.sin(omega * np.arange(40_000))
        act = activity(x)
        mob = mobility(x)
        comp = complexity(x)
        ok = (
            abs(act - 0.5) / 0.5 < 0.05
            and abs(mob - omega) / omega < 0.05
            and abs(comp - 1.0) < 0.05
        )
        report(
            "A9-analytic",
            ok,
            f"sinusoid: activity {act:.4f}~0.5, mobility {mob:.4f}~{omega}, "
            f"complexity {comp:.4f}~1 (5%)",
        )
        assert ok

    def test_scale_and_shift_invariance(self):
        rng = np.random.default_rng(90)
        ok = True
        for _ in range(20):
            x = rng.standard_normal(500)
            y = rng.standard_normal(500)
            c = float(rng.uniform(0.5, 4.0))
            s = float(rng.uniform(-10, 10))
            ok &= abs(activity(c * x) - c**2 * activity(x)) <= 1e-9 * c**2 * activity(x) + 1e-12
            ok &= abs(mobility(c * x) - mobility(x)) <= 1e-9
            ok &= abs(complexity(c * x) - complexity(x)) <= 1e-9
            ok &= abs(activity(x + s) - activity(x)) <= 1e-9
            ok &= abs(mobility(x + s) - mobility(x)) <= 1e-9
            ok &= abs(linear_correlation(c * x + s, y) - linear_correlation(x, y)) <= 1e-9
        report("A9-invariance", bool(ok), "scale/shift invariances within 1e-9 over 20 draws")
        assert ok

    def test_test_set_size_formula(self):
        objects = 15
        press_slide_actions = sum(
            1 for a in STANDARD_ACTIONS.values() if a.params[-1] != 15.0
        )
        static_actions = len(STANDARD_ACTIONS) - press_slide_actions
        total = objects * press_slide_actions * 20 + objects * static_actions * 10
        report("A9-testset", total == 1950, f"15 objects x 7 actions -> {total} samples")
        assert total == 1950


class TestA10Reproducibility:
    def test_run_verb_byte_identical_csv(self, tmp_path):
        config_src = tactilab.data_path("configs", "sample_run.json")
        raw = json.loads(config_src.read_text())
        raw["catalog"] = str(tactilab.data_path("catalogs", "sample_catalog.json"))
        config_path = tmp_path / "config.json"
        config_path.write_text(json.dumps(raw))
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert cli_main(["run", str(config_path), "--out", str(out1)]) == 0
        assert cli_main(["run", str(config_path), "--out", str(out2)]) == 0
        b1 = (out1 / "curves.csv").read_bytes()
        b2 = (out2 / "curves.csv").read_bytes()
        report("A10", b1 == b2, f"two runs, {len(b1)} CSV bytes, identical={b1 == b2}")
        assert b1 == b2
