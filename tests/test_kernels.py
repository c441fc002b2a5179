import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tactilab.errors import ParameterError, SegmentationError
from tactilab.features import Modality
from tactilab.kernels import (
    CombinedKernel,
    DependentKernel,
    ObservationBlock,
    RbfKernel,
    _median,
    dependent_gram,
    median_heuristic,
    project_simplex,
    training_gram,
    uniform_combined,
)

from conftest import force_obs, two_part_obs
from oracles import combined_eval, rbf_eval


def random_two_part_obs(rng, n):
    return [two_part_obs(rng.standard_normal(1), rng.standard_normal(10)) for _ in range(n)]


class TestRbf:
    def test_self_evaluation_is_signal_variance(self):
        k = RbfKernel(0.7, 2.5)
        x = np.array([1.0, -2.0])
        assert rbf_eval(k, x, x) == pytest.approx(2.5, abs=0)

    def test_monotone_decreasing_in_distance(self):
        k = RbfKernel(1.0, 1.0)
        values = [rbf_eval(k, np.zeros(2), np.array([d, 0.0])) for d in np.linspace(0, 10, 30)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-20

    def test_unit_distance_closed_form(self):
        k = RbfKernel(1.0, 1.0)
        value = rbf_eval(k, np.array([0.0]), np.array([1.0]))
        assert value == pytest.approx(math.exp(-0.5), abs=1e-10)

    def test_dimension_mismatch(self):
        with pytest.raises(SegmentationError):
            rbf_eval(RbfKernel(1.0), np.zeros(2), np.zeros(3))

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            RbfKernel(0.0)
        with pytest.raises(ParameterError):
            RbfKernel(1.0, -1.0)


class TestCombined:
    def test_single_part_identity(self):
        part = RbfKernel(0.8, 1.3)
        k = CombinedKernel(((Modality.FORCE, part),), np.array([1.0]))
        x, y = force_obs(0.2), force_obs(1.1)
        assert combined_eval(k, x, y) == pytest.approx(
            rbf_eval(part, x.matrix(Modality.FORCE)[0], y.matrix(Modality.FORCE)[0]), abs=1e-15
        )

    def test_equal_parts_collapse(self):
        part = RbfKernel(1.0, 1.0)
        k = CombinedKernel(
            ((Modality.FORCE, part), (Modality.THERMAL, part)), np.array([0.5, 0.5])
        )
        x = two_part_obs([0.3], np.full(10, 0.3))
        y = two_part_obs([0.9], np.full(10, 0.9))
        # Both segments carry proportional content; with matched distances the
        # combination of identical parts equals either part on its segment.
        x1 = two_part_obs([0.3], [0.3] * 10)
        y1 = two_part_obs([0.9], [0.9] * 10)
        force_val = rbf_eval(part, x1.matrix(Modality.FORCE)[0], y1.matrix(Modality.FORCE)[0])
        thermal_val = rbf_eval(part, x1.matrix(Modality.THERMAL)[0], y1.matrix(Modality.THERMAL)[0])
        assert combined_eval(k, x1, y1) == pytest.approx(
            0.5 * force_val + 0.5 * thermal_val, abs=1e-15
        )
        same = two_part_obs([0.1], [0.4] * 10)
        other = two_part_obs([0.1], [0.4] * 10)
        assert combined_eval(k, same, other) == pytest.approx(1.0, abs=1e-12)

    def test_hand_summed_oracle(self):
        ka, kb = RbfKernel(0.6, 1.2), RbfKernel(2.0, 0.8)
        k = CombinedKernel(((Modality.FORCE, ka), (Modality.THERMAL, kb)), np.array([0.3, 0.7]))
        x = two_part_obs([0.5], np.linspace(0, 1, 10))
        y = two_part_obs([-0.25], np.linspace(1, 0, 10))
        oracle = 0.3 * rbf_eval(ka, x.matrix(Modality.FORCE)[0], y.matrix(Modality.FORCE)[0]) + (
            0.7 * rbf_eval(kb, x.matrix(Modality.THERMAL)[0], y.matrix(Modality.THERMAL)[0])
        )
        assert combined_eval(k, x, y) == pytest.approx(oracle, abs=1e-12)

    def test_linear_in_weights(self):
        rng = np.random.default_rng(0)
        parts = ((Modality.FORCE, RbfKernel(0.5)), (Modality.THERMAL, RbfKernel(1.5)))
        x, y = random_two_part_obs(rng, 2)
        v0 = combined_eval(CombinedKernel(parts, np.array([1.0, 0.0])), x, y)
        v1 = combined_eval(CombinedKernel(parts, np.array([0.0, 1.0])), x, y)
        for w in (0.25, 0.5, 0.9):
            k = CombinedKernel(parts, np.array([w, 1.0 - w]))
            assert combined_eval(k, x, y) == pytest.approx(w * v0 + (1 - w) * v1, abs=1e-12)

    def test_simplex_validation(self):
        parts = ((Modality.FORCE, RbfKernel(1.0)),)
        with pytest.raises(ParameterError):
            CombinedKernel(parts, np.array([0.5]))
        with pytest.raises(ParameterError):
            CombinedKernel(
                ((Modality.FORCE, RbfKernel(1.0)), (Modality.THERMAL, RbfKernel(1.0))),
                np.array([-0.1, 1.1]),
            )

    def test_segmentation_mismatch(self):
        k = uniform_combined(((Modality.FORCE, RbfKernel(1.0)),))
        with pytest.raises(SegmentationError):
            combined_eval(k, force_obs(1.0), two_part_obs([1.0], np.zeros(10)))


#: Every float but NaN and -0.0, whose place next to 0.0 np.sort and
#: np.median's partition may choose differently (the heuristic's distances
#: are all > 0): both signs, subnormals and infinities, 600 decades apart.
_MEDIAN_VALUES = st.floats(allow_nan=False).filter(lambda v: math.copysign(1.0, v) > 0 or v != 0)


class TestMedian:
    @settings(max_examples=500, deadline=None)
    @given(
        st.one_of(
            st.lists(_MEDIAN_VALUES, min_size=1, max_size=41),
            st.lists(st.floats(min_value=1e-300, max_value=1e300), min_size=1, max_size=41),
            # Ties, and the subnormal and huge pairs whose halves round or
            # whose sum overflows.
            st.lists(
                st.sampled_from([5e-324, 0.25, 1.0, 3.0, 1e300, 1.7976931348623157e308]),
                min_size=1,
                max_size=41,
            ),
        )
    )
    def test_bitwise_equal_to_numpy_median(self, values):
        x = np.array(values)
        with np.errstate(over="ignore"):  # both sum the huge pairs to inf
            got, want = _median(x), np.median(x)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("values", [[np.nan], [1.0, np.nan, 2.0], [np.nan, 3.0, 1.0, 2.0]])
    def test_nan_gives_nan(self, values):
        assert math.isnan(_median(np.array(values)))
        assert math.isnan(np.median(values))


class TestGram:
    def test_single_observation(self):
        k = uniform_combined(((Modality.FORCE, RbfKernel(1.0, 1.7)),))
        out = training_gram(k, [force_obs(0.4)])
        assert out.shape == (1, 1)
        assert out[0, 0] == pytest.approx(1.7, abs=1e-15)

    def test_duplicated_observation_rows_identical(self):
        rng = np.random.default_rng(1)
        obs = random_two_part_obs(rng, 5)
        obs.append(obs[2])
        k = median_heuristic(ObservationBlock.of(obs), (Modality.FORCE, Modality.THERMAL))
        out = training_gram(k, obs)
        assert np.array_equal(out[2], out[5])

    def test_random_gram_psd_by_eigen_oracle(self):
        rng = np.random.default_rng(2)
        obs = random_two_part_obs(rng, 20)
        k = CombinedKernel(
            ((Modality.FORCE, RbfKernel(0.7, 1.0)), (Modality.THERMAL, RbfKernel(2.0, 1.0))),
            np.array([0.4, 0.6]),
        )
        out = training_gram(k, obs)
        assert np.max(np.abs(out - out.T)) < 1e-12
        assert np.linalg.eigvalsh(out).min() >= -1e-8

    def test_entries_bounded_by_signal_variance(self):
        rng = np.random.default_rng(3)
        obs = random_two_part_obs(rng, 12)
        k = CombinedKernel(
            ((Modality.FORCE, RbfKernel(0.5, 2.0)), (Modality.THERMAL, RbfKernel(1.0, 3.0))),
            np.array([0.5, 0.5]),
        )
        out = training_gram(k, obs)
        assert np.max(out) <= 0.5 * 2.0 + 0.5 * 3.0 + 1e-12

    def test_raw_vector_gram(self):
        k = RbfKernel(1.0, 1.0)
        xs = [np.array([0.0]), np.array([1.0]), np.array([2.0])]
        out = training_gram(k, xs)
        assert out[0, 1] == pytest.approx(math.exp(-0.5), abs=1e-12)
        assert out[0, 2] == pytest.approx(math.exp(-2.0), abs=1e-12)


class TestDependentGram:
    def make_kernel(self, rho):
        base = CombinedKernel(
            ((Modality.FORCE, RbfKernel(0.8, 1.0)), (Modality.THERMAL, RbfKernel(1.6, 1.0))),
            np.array([0.35, 0.65]),
        )
        return DependentKernel(base, rho)

    def test_rho_one_equals_pooled_gram(self):
        rng = np.random.default_rng(4)
        old = random_two_part_obs(rng, 4)
        new = random_two_part_obs(rng, 3)
        k = self.make_kernel(1.0)
        assert np.allclose(dependent_gram(k, old, new), training_gram(k.base, old + new), atol=1e-12)

    def test_rho_zero_block_diagonal(self):
        rng = np.random.default_rng(5)
        old = random_two_part_obs(rng, 4)
        new = random_two_part_obs(rng, 3)
        out = dependent_gram(self.make_kernel(0.0), old, new)
        assert np.all(out[:4, 4:] == 0.0)
        assert np.all(out[4:, :4] == 0.0)

    def test_rho_half_psd(self):
        rng = np.random.default_rng(6)
        out = dependent_gram(
            self.make_kernel(0.5), random_two_part_obs(rng, 3), random_two_part_obs(rng, 2)
        )
        assert np.linalg.eigvalsh(out).min() >= -1e-8

    def test_psd_across_rho_grid(self):
        rng = np.random.default_rng(7)
        for rho in (0.0, 0.25, 0.5, 0.75, 1.0):
            n_old = int(rng.integers(1, 16))
            n_new = int(rng.integers(1, 15))
            old = random_two_part_obs(rng, n_old)
            new = random_two_part_obs(rng, n_new)
            out = dependent_gram(self.make_kernel(rho), old, new)
            assert np.max(np.abs(out - out.T)) < 1e-12
            assert np.linalg.eigvalsh(out).min() >= -1e-8

    def test_rho_out_of_range_rejected(self):
        with pytest.raises(ParameterError):
            self.make_kernel(1.2)
        with pytest.raises(ParameterError):
            self.make_kernel(-0.1)


class TestSimplexProjection:
    def test_clip_and_renormalize(self):
        w = project_simplex([0.5, -0.2, 0.3])
        assert np.all(w >= 0)
        assert w.sum() == pytest.approx(1.0, abs=1e-9)
        assert w[1] == 0.0

    def test_all_nonpositive_falls_back_to_uniform(self):
        w = project_simplex([-1.0, -2.0])
        assert np.allclose(w, [0.5, 0.5])

    def test_projection_idempotent_on_simplex(self):
        w = project_simplex([0.2, 0.3, 0.5])
        assert np.allclose(project_simplex(w), w, atol=1e-12)
