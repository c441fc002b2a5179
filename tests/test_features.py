from itertools import combinations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tactilab.errors import (
    DegenerateSequenceError,
    InsufficientDataError,
    ModalityError,
    TactilabError,
    ZeroVarianceError,
)
from tactilab.features import (
    THERMAL_RESAMPLE_LEN,
    FeatureObservation,
    Modality,
    activity,
    build_observation,
    complexity,
    extract_stiffness,
    extract_texture,
    fit_projector,
    linear_correlation,
    mobility,
    project_thermal,
    _thermal_raws,
)
from tactilab.signals import (
    STANDARD_ACTIONS,
    ActionKind,
    SensorTrace,
    SkinConfig,
    pressing,
    simulate,
    sliding,
)

from conftest import QUIET
from test_signals import make_object


def force_trace(forces, temps=None, fs=100.0):
    forces = np.atleast_2d(np.asarray(forces, dtype=float))
    if temps is None:
        temps = np.full_like(forces, 25.0)
    return SensorTrace(forces, np.atleast_2d(temps), None, fs, ActionKind.PRESSING)


def accel_trace(accels, fs=100.0):
    accels = np.asarray(accels, dtype=float)
    temps = np.full((1, accels.shape[-1]), 25.0)
    return SensorTrace(None, temps, accels, fs, ActionKind.SLIDING)


class TestStiffness:
    def test_constant_signal(self):
        trace = force_trace(np.full((3, 50), 0.5))
        assert extract_stiffness(trace) == pytest.approx(0.5, abs=0)

    def test_two_sensor_symmetry(self):
        trace = force_trace(np.vstack([np.full(40, 1.0), np.full(40, 3.0)]))
        assert extract_stiffness(trace) == pytest.approx(2.0, abs=0)

    def test_matches_brute_force_mean_oracle(self):
        trace = simulate(make_object(), pressing(2.0, 3.0), seed=42)
        oracle = float(sum(trace.forces.ravel()) / trace.forces.size)
        assert extract_stiffness(trace) == pytest.approx(oracle, abs=1e-12)

    def test_missing_force_channels(self):
        trace = simulate(make_object(), sliding(0.2, 5.0, 1.0), seed=0)
        with pytest.raises(ModalityError):
            extract_stiffness(trace)


class TestSignalStatistics:
    def test_activity_constant_is_zero(self):
        assert activity(np.full(10, 3.3)) == 0.0

    def test_activity_by_hand(self):
        assert activity([-1.0, 1.0]) == pytest.approx(1.0, abs=0)

    def test_activity_of_dense_sinusoid(self):
        # Variance of sin over whole periods is 1/2.
        m = np.arange(100_000)
        x = np.sin(2 * np.pi * m / 1000.0)
        assert activity(x) == pytest.approx(0.5, abs=1e-2)

    def test_activity_needs_two_samples(self):
        with pytest.raises(DegenerateSequenceError):
            activity([1.0])

    def test_mobility_of_sinusoid_matches_frequency(self):
        omega = 0.05  # radians per index step
        x = np.sin(omega * np.arange(20_000))
        assert mobility(x) == pytest.approx(omega, rel=0.05)

    def test_complexity_of_sinusoid_is_one(self):
        x = np.sin(0.05 * np.arange(20_000))
        assert complexity(x) == pytest.approx(1.0, rel=0.05)

    def test_constant_sequence_raises_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            mobility(np.zeros(10))
        with pytest.raises(ZeroVarianceError):
            complexity(np.zeros(10))

    def test_lcorr_self_and_negation(self):
        x = np.sin(0.3 * np.arange(200)) + 0.1 * np.arange(200)
        assert linear_correlation(x, x) == pytest.approx(1.0, abs=1e-12)
        assert linear_correlation(x, -x) == pytest.approx(-1.0, abs=1e-12)

    def test_lcorr_matches_direct_formula_oracle(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal(300)
        y = rng.standard_normal(300)
        xc, yc = x - x.mean(), y - y.mean()
        oracle = float((xc * yc).sum() / np.sqrt((xc**2).sum() * (yc**2).sum()))
        assert linear_correlation(x, y) == pytest.approx(oracle, abs=1e-12)

    def test_lcorr_zero_variance(self):
        with pytest.raises(ZeroVarianceError):
            linear_correlation(np.ones(10), np.arange(10.0))


class TestInvarianceProperties:
    """Scale and shift behavior of the texture statistics (1e-9 grade)."""

    def setup_method(self):
        rng = np.random.default_rng(123)
        self.signals = [rng.standard_normal(400) for _ in range(5)]

    def test_activity_scales_quadratically(self):
        for x in self.signals:
            for c in (0.5, 2.0, -3.0):
                assert activity(c * x) == pytest.approx(c**2 * activity(x), rel=1e-9)

    def test_mobility_complexity_scale_invariant(self):
        for x in self.signals:
            for c in (0.5, 2.0, -3.0):
                assert mobility(c * x) == pytest.approx(mobility(x), rel=1e-9)
                assert complexity(c * x) == pytest.approx(complexity(x), rel=1e-9)

    def test_shift_invariance(self):
        for x in self.signals:
            for stat in (activity, mobility, complexity):
                assert stat(x + 17.5) == pytest.approx(stat(x), rel=1e-9, abs=1e-9)

    def test_lcorr_invariant_under_positive_affine(self):
        x, y = self.signals[0], self.signals[1]
        base = linear_correlation(x, y)
        assert linear_correlation(3.0 * x + 5.0, y) == pytest.approx(base, abs=1e-9)
        assert linear_correlation(x, 0.25 * y - 2.0) == pytest.approx(base, abs=1e-9)


class TestExtractTexture:
    def test_zero_roughness_noiseless_raises(self):
        obj = make_object(roughness_amp=0.0)
        trace = simulate(obj, sliding(0.2, 5.0, 1.0), 0, noise=QUIET)
        with pytest.raises(ZeroVarianceError):
            extract_texture(trace)

    def test_identical_axes_give_unit_correlation(self):
        x = np.sin(0.2 * np.arange(300))
        trace = accel_trace(np.stack([x, x, x])[None, :, :])
        vec = extract_texture(trace)
        assert vec[3] == pytest.approx(1.0, abs=1e-12)

    def test_sinusoidal_axes_match_analytic_values(self):
        omega = 0.08
        m = np.arange(50_000)
        axes = np.stack(
            [np.sin(omega * m), np.sin(omega * m + 1.0), np.sin(omega * m + 2.0)]
        )
        trace = accel_trace(axes[None, :, :])
        act, mob, comp, lcorr = extract_texture(trace)
        assert act == pytest.approx(0.5, rel=0.05)
        assert mob == pytest.approx(omega, rel=0.05)
        assert comp == pytest.approx(1.0, rel=0.05)
        # Equal-frequency sinusoids correlate as the cosine of their phase gap.
        expected = np.mean([np.cos(1.0), np.cos(1.0), np.cos(2.0)])
        assert lcorr == pytest.approx(expected, rel=0.05)

    def test_missing_accels(self):
        trace = simulate(make_object(), pressing(1.0, 3.0), 0)
        with pytest.raises(ModalityError):
            extract_texture(trace)


def reference_texture(trace):
    """extract_texture as a loop over the scalar reference statistics."""
    acts, mobs, comps, lcorrs = [], [], [], []
    for cell in range(trace.accels.shape[0]):
        axes = [trace.accels[cell, a, :] for a in range(3)]
        live = [a for a in axes if activity(a) > 0.0]
        for a in live:
            acts.append(activity(a))
            mobs.append(mobility(a))
            comps.append(complexity(a))
        for a, b in combinations(range(3), 2):
            if activity(axes[a]) > 0.0 and activity(axes[b]) > 0.0:
                lcorrs.append(linear_correlation(axes[a], axes[b]))
    if not acts:
        raise ZeroVarianceError("every accelerometer axis is constant")
    return np.array(
        [np.mean(acts), np.mean(mobs), np.mean(comps), np.mean(lcorrs) if lcorrs else 0.0]
    )


def texture_outcome(extract, trace):
    """The texture vector, or the type and message of the error raised."""
    try:
        return extract(trace)
    except TactilabError as exc:
        return type(exc), str(exc)


def assert_same_outcome(trace):
    got = texture_outcome(extract_texture, trace)
    want = texture_outcome(reference_texture, trace)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)


AXIS_KINDS = ("noise", "walk", "sine", "constant", "zero", "ramp")


def random_accels(seed, m, decades, kinds):
    """(cells, 3, m) accelerations: one amplitude decade per cell, one kind
    per axis. A "ramp" axis is an exact integer ramp whatever the decade."""
    rng = np.random.default_rng(seed)
    accels = np.empty((len(decades), 3, m))
    steps = np.arange(m, dtype=float)
    for cell, decade in enumerate(decades):
        scale = 10.0**decade
        for axis in range(3):
            kind = kinds[3 * cell + axis]
            if kind == "noise":
                row = scale * (rng.standard_normal(m) + 10.0 * rng.standard_normal())
            elif kind == "walk":
                row = scale * np.cumsum(rng.standard_normal(m))
            elif kind == "sine":
                row = scale * np.sin(rng.uniform(0.01, 3.0) * steps + rng.uniform(0, 6))
            elif kind == "constant":
                row = np.full(m, scale * rng.standard_normal())
            elif kind == "zero":
                row = np.zeros(m)
            else:
                row = float(rng.integers(1, 5)) * steps + float(rng.integers(-9, 9))
            accels[cell, axis] = row
    return accels


@st.composite
def accel_layouts(draw):
    cells = draw(st.integers(1, 7))
    decades = draw(st.lists(st.integers(-170, 70), min_size=cells, max_size=cells))
    # Mostly varying axes; a third of the cells are drawn whole-constant.
    kinds = []
    for _ in range(cells):
        if draw(st.integers(0, 2)) == 0:
            kinds += [draw(st.sampled_from(("constant", "zero"))) for _ in range(3)]
        else:
            kinds += [draw(st.sampled_from(AXIS_KINDS)) for _ in range(3)]
    return decades, kinds


class TestTextureMatchesReference:
    """extract_texture equals the loop over the scalar statistics bit for bit,
    and raises what that loop raises, with the same message."""

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(seed=st.integers(0, 2**32 - 1), m=st.integers(4, 300), layout=accel_layouts())
    def test_random_axes_over_many_decades(self, seed, m, layout):
        decades, kinds = layout
        assert_same_outcome(accel_trace(random_accels(seed, m, decades, kinds)))

    def test_simulated_sliding_traces_of_every_related_object(self, related_catalog):
        sliding_ids = ("S1", "S2", "S3", "S4")
        for obj in related_catalog:
            for action_id in sliding_ids:
                for seed in range(2):
                    trace = simulate(
                        obj,
                        STANDARD_ACTIONS[action_id],
                        seed,
                        related_catalog.skin,
                        related_catalog.noise,
                    )
                    want = reference_texture(trace)
                    assert np.array_equal(extract_texture(trace), want)

    def test_non_contiguous_and_float32_accels(self):
        accels = random_accels(3, 80, [0, -2], ["noise", "walk", "sine"] * 2)
        swapped = np.ascontiguousarray(np.swapaxes(accels, 0, 2)).swapaxes(0, 2)
        assert_same_outcome(accel_trace(swapped))
        assert_same_outcome(SensorTrace(None, None, accels.astype(np.float32), 100.0,
                                        ActionKind.SLIDING))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestTextureErrorContract:
    """Edge cases where the texture statistics are undefined."""

    def test_exact_ramp_axis_has_zero_mobility(self):
        accels = np.random.default_rng(0).standard_normal((1, 3, 50))
        accels[0, 1] = np.arange(50.0)  # first difference exactly constant
        with pytest.raises(ZeroVarianceError, match="complexity undefined"):
            extract_texture(accel_trace(accels))

    def test_three_samples_too_short_for_complexity(self):
        accels = np.random.default_rng(1).standard_normal((2, 3, 3))
        with pytest.raises(DegenerateSequenceError, match="complexity needs >= 4"):
            extract_texture(accel_trace(accels))

    def test_two_samples_too_short_for_mobility(self):
        accels = np.random.default_rng(2).standard_normal((2, 3, 2))
        with pytest.raises(DegenerateSequenceError, match="mobility needs >= 3"):
            extract_texture(accel_trace(accels))

    def test_correlation_denominator_underflow(self):
        # Each axis has activity > 0, but the product of two sums of
        # squares underflows to zero.
        accels = 1e-160 * np.random.default_rng(3).standard_normal((2, 3, 100))
        assert all(activity(axis) > 0.0 for axis in accels.reshape(6, 100))
        with pytest.raises(ZeroVarianceError, match="correlation undefined"):
            extract_texture(accel_trace(accels))


def constant_temp_trace(value, n=200, fs=100.0):
    temps = np.full((3, n), float(value))
    return SensorTrace(None, temps, None, fs, ActionKind.STATIC_CONTACT)


def raw_thermal(traces):
    """The traces' raw [T, grad T] features, one row per trace."""
    return _thermal_raws(np.stack([tr.temps for tr in traces]), THERMAL_RESAMPLE_LEN)


def thermal_traces_for_fit(rng, count=20, n=150):
    traces = []
    for _ in range(count):
        tau = rng.uniform(1.0, 8.0)
        delta = rng.uniform(-9.0, -1.0)
        t = np.arange(n) / 100.0
        seq = 25.0 + delta * (1.0 - np.exp(-t / tau)) + 0.01 * rng.standard_normal(n)
        traces.append(SensorTrace(None, seq[None, :], None, 100.0, ActionKind.STATIC_CONTACT))
    return traces


class TestThermalProjector:
    def test_rank_one_data_first_basis_parallel(self):
        # Constant-temperature traces differ only along the all-ones direction
        # in the temperature half of the feature.
        traces = [constant_temp_trace(25.0 + i * 0.5) for i in range(12)]
        proj = fit_projector(raw_thermal(traces))
        direction = np.concatenate([np.ones(proj.resample_len), np.zeros(proj.resample_len)])
        direction /= np.linalg.norm(direction)
        cosine = abs(float(proj.basis[0] @ direction))
        assert cosine > 0.999

    def test_basis_orthonormal(self):
        rng = np.random.default_rng(5)
        proj = fit_projector(raw_thermal(thermal_traces_for_fit(rng)))
        gram = proj.basis @ proj.basis.T
        assert np.max(np.abs(gram - np.eye(10))) < 1e-8

    def test_explained_variance_matches_eigh_oracle(self):
        rng = np.random.default_rng(11)
        traces = thermal_traces_for_fit(rng, count=20)
        feats = raw_thermal(traces)
        proj = fit_projector(feats)
        centered = feats - feats.mean(axis=0)
        evals = np.linalg.eigvalsh(centered.T @ centered / len(traces))[::-1]
        assert np.allclose(proj.explained_variance, evals[:10], atol=1e-8)

    def test_projected_variances_non_increasing(self):
        rng = np.random.default_rng(13)
        raws = raw_thermal(thermal_traces_for_fit(rng, count=25))
        proj = fit_projector(raws)
        projected = np.stack([project_thermal(raw, proj) for raw in raws])
        variances = projected.var(axis=0)
        assert np.all(np.diff(variances) <= 1e-10)

    def test_top10_eigenvalue_mass_reproduced(self):
        rng = np.random.default_rng(17)
        feats = raw_thermal(thermal_traces_for_fit(rng, count=30))
        proj = fit_projector(feats)
        projected = np.stack([project_thermal(raw, proj) for raw in feats])
        centered = feats - feats.mean(axis=0)
        evals = np.sort(np.linalg.eigvalsh(centered.T @ centered / len(feats)))[::-1]
        assert projected.var(axis=0).sum() >= evals[:10].sum() - 1e-8

    def test_insufficient_traces(self):
        with pytest.raises(InsufficientDataError):
            fit_projector(raw_thermal([constant_temp_trace(25.0)] * 10))


class TestExtractThermal:
    def test_mean_trace_projects_to_zero(self):
        # Values symmetric around 25 -> the 25-degree trace IS the mean.
        values = [25.0 + d for d in (-3, -2.5, -2, -1.5, -1, -0.5, 0.5, 1, 1.5, 2, 2.5, 3)]
        proj = fit_projector(raw_thermal([constant_temp_trace(v) for v in values]))
        vec = project_thermal(raw_thermal([constant_temp_trace(25.0)])[0], proj)
        assert np.max(np.abs(vec)) < 1e-10

    def test_rank_one_reconstruction(self):
        raws = raw_thermal([constant_temp_trace(25.0 + i * 0.5) for i in range(12)])
        proj = fit_projector(raws)
        for raw in raws:
            coords = project_thermal(raw, proj)
            recon = proj.mean_vector + proj.basis.T @ coords
            assert np.max(np.abs(recon - raw)) < 1e-8

    def test_matches_direct_matrix_oracle(self):
        rng = np.random.default_rng(19)
        proj = fit_projector(raw_thermal(thermal_traces_for_fit(rng, count=15)))
        raw = raw_thermal(thermal_traces_for_fit(rng, count=1))[0]
        oracle = proj.basis @ (raw - proj.mean_vector)
        assert np.allclose(project_thermal(raw, proj), oracle, atol=1e-12)


class TestBuildObservation:
    def test_segmentation_per_action_kind(self, sample_catalog):
        rng = np.random.default_rng(3)
        press_traces = [
            simulate(obj, pressing(2.0, 3.0), s, sample_catalog.skin, sample_catalog.noise)
            for obj in sample_catalog
            for s in range(1)
        ]
        proj = fit_projector(raw_thermal(press_traces))
        obs = build_observation(press_traces[0], "P2", proj, object_id=1)
        assert obs.modalities == (Modality.FORCE, Modality.THERMAL)
        assert obs.segment(Modality.FORCE).shape == (1,)
        assert obs.segment(Modality.THERMAL).shape == (10,)

        slide_traces = [
            simulate(obj, sliding(0.2, 5.0, 1.0), s, sample_catalog.skin, sample_catalog.noise)
            for obj in sample_catalog
            for s in range(1)
        ]
        proj_s = fit_projector(raw_thermal(slide_traces))
        obs_s = build_observation(slide_traces[0], "S4", proj_s, object_id=1)
        assert obs_s.modalities == (Modality.TEXTURE, Modality.THERMAL)
        assert obs_s.segment(Modality.TEXTURE).shape == (4,)

    def test_non_finite_entries_rejected(self):
        with pytest.raises(ValueError):
            FeatureObservation("a", ((Modality.FORCE, np.array([np.inf])),))
