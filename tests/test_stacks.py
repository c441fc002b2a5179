"""Set-up simulates and reduces each action's traces as one stack. A trace's
bits must not depend on its stack: every stacked result here is compared,
with ``tobytes()``, against one-trace references that keep the per-trace
formulas (the simulator's draws and arithmetic, the scalar texture loop, the
per-trace stiffness and thermal reductions)."""

import math
from itertools import chain

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tactilab
from tactilab.assets import (
    BATCH_BYTES,
    batch_features,
    held_out_jobs,
    job_batches,
    projector_pool_jobs,
    set_up_features,
)
from tactilab.config import parse_config
from tactilab.errors import ParameterError, TactilabError
from tactilab.features import (
    THERMAL_RESAMPLE_LEN,
    Modality,
    build_observation,
    extract_texture,
    fit_projector,
    raw_features,
    raw_features_stack,
)
from tactilab.signals import (
    STANDARD_ACTIONS,
    ActionKind,
    NoiseScales,
    SensorTrace,
    SkinConfig,
    TraceStack,
    load_catalog,
    simulate,
    simulate_stack,
    trace_nbytes,
)

from test_features import AXIS_KINDS, random_accels, reference_texture

CATALOGS = ("sample_catalog", "related_priors", "unrelated_priors", "uniform_stiffness")


def reference_simulate(obj, action, seed, skin=SkinConfig(), noise=NoiseScales()):
    """One trace, drawn and computed on its own, in the per-trace formulas."""
    rng = np.random.default_rng(seed)
    m = math.floor(action.duration_s * skin.sample_rate_hz)
    t = np.arange(m) / skin.sample_rate_hz

    def thermal(gain):
        delta = obj.thermal_equilib_delta * gain
        curve = skin.ambient_temp_c + delta * (1.0 - np.exp(-t / obj.thermal_time_const))
        temps = np.repeat(curve[None, :], skin.n_temp, axis=0)
        return temps + noise.temp_sample * rng.standard_normal(temps.shape)

    if action.kind is ActionKind.SLIDING:
        force_n, speed, _ = action.params
        temp_gain = 1.0 + noise.temp_trial * rng.standard_normal()
        accel_gain = 1.0 + noise.accel_trial * rng.standard_normal()
        base_phases = rng.uniform(0.0, 2.0 * math.pi, size=3)
        jitter = 0.2 * rng.standard_normal((skin.n_accel, 3, 3))
        f0 = obj.roughness_freq * speed
        amp = obj.roughness_amp * force_n
        base = obj.roughness_freq / (1.0 + obj.roughness_freq)
        offsets = 2.0 * math.pi * base * np.array([0.0, 0.35, 0.7])
        cell_shift = 0.15 * np.arange(skin.n_accel)
        accels = np.zeros((skin.n_accel, 3, m))
        for h, (harmonic, weight) in enumerate(((1.0, 1.0), (2.0, 0.5), (3.0, 0.25))):
            phase = (
                base_phases[h]
                + offsets[None, :, None]
                + cell_shift[:, None, None]
                + jitter[:, :, h : h + 1]
            )
            accels += (
                accel_gain
                * amp
                * weight
                * np.sin(2.0 * math.pi * f0 * harmonic * t[None, None, :] + phase)
            )
        accels += noise.accel_sample * rng.standard_normal(accels.shape)
        return SensorTrace(None, thermal(temp_gain), accels, skin.sample_rate_hz, action.kind)

    force_gain = 1.0 + noise.force_trial * rng.standard_normal()
    temp_gain = 1.0 + noise.temp_trial * rng.standard_normal()
    plateau = obj.stiffness_coeff * action.params[0] * force_gain
    forces = np.full((skin.n_force, m), plateau)
    forces = forces + noise.force_sample * rng.standard_normal(forces.shape)
    return SensorTrace(forces, thermal(temp_gain), None, skin.sample_rate_hz, action.kind)


def reference_raw(trace, resample_len=THERMAL_RESAMPLE_LEN):
    """(lead vector, raw thermal vector) of one trace, reduced on its own."""
    if trace.kind is ActionKind.SLIDING:
        lead = reference_texture(trace)
    else:
        lead = np.array([float(np.mean(trace.forces))])
    mean_seq = np.mean(trace.temps, axis=0)
    resampled = np.interp(
        np.linspace(0.0, 1.0, resample_len), np.linspace(0.0, 1.0, mean_seq.size), mean_seq
    )
    return lead, np.concatenate([resampled, np.gradient(resampled)])


def channel_bytes(trace):
    channels = (trace.forces, trace.temps, trace.accels)
    return tuple(None if c is None else c.tobytes() for c in channels)


def raw_bytes(raw):
    return raw.lead[0], raw.lead[1].tobytes(), raw.thermal.tobytes()


@pytest.mark.parametrize("action_id", list(STANDARD_ACTIONS))
@pytest.mark.parametrize("catalog_name", CATALOGS)
def test_stack_matches_one_trace_references(catalog_name, action_id):
    """Every object of the catalog, two seeds each, as one stack: each trace
    and its raw features equal the one-trace references, and the one-item
    calls (``simulate``, ``raw_features``) give the same bytes."""
    catalog = load_catalog(tactilab.data_path("catalogs", f"{catalog_name}.json"))
    action = STANDARD_ACTIONS[action_id]
    lead = Modality.TEXTURE if action.kind is ActionKind.SLIDING else Modality.FORCE
    items = [(obj, 7919 * k + obj.id) for k in range(2) for obj in catalog]
    objs, seeds = [o for o, _ in items], [s for _, s in items]
    stack = simulate_stack(objs, action, seeds, catalog.skin, catalog.noise)
    raws = raw_features_stack(stack)
    assert len(raws) == len(items)
    for i, (obj, seed) in enumerate(items):
        want = reference_simulate(obj, action, seed, catalog.skin, catalog.noise)
        want_lead, want_thermal = reference_raw(want)
        alone = simulate(obj, action, seed, catalog.skin, catalog.noise)
        assert channel_bytes(stack.trace(i)) == channel_bytes(want) == channel_bytes(alone)
        expected = (lead, want_lead.tobytes(), want_thermal.tobytes())
        assert raw_bytes(raws[i]) == raw_bytes(raw_features(alone)) == expected


def test_one_seed_per_object(related_catalog):
    with pytest.raises(ParameterError, match="2 objects for 1 seeds"):
        simulate_stack(list(related_catalog)[:2], STANDARD_ACTIONS["P2"], [1])


class TestJobBatches:
    def config(self, **overrides):
        raw = {
            "schema_version": 1,
            "catalog": str(tactilab.data_path("catalogs", "related_priors.json")),
            "prior_objects": [1, 2, 3],
            "new_objects": [11, 12],
            "actions": ["P2", "S4", "C1"],
            "seeds": [1],
            "budget": 1,
            "prior_samples_per_object": 5,
            "test_samples_press_slide": 3,
            "test_samples_static": 2,
        }
        raw.update(overrides)
        return parse_config(raw)

    def test_batches_cut_at_the_byte_cap_and_cross_objects(self):
        config = self.config()
        catalog = load_catalog(config.catalog_path())
        jobs = projector_pool_jobs(config) + held_out_jobs(config)
        batches = job_batches(catalog, jobs)
        assert list(chain.from_iterable(batches)) == jobs
        widths = {"P2": 2, "S4": 8, "C1": 1}  # 67,200, 22,400 and 336,000 bytes a trace
        for batch in batches:
            (action_id,) = {a for a, _, _ in batch}
            nbytes = trace_nbytes(STANDARD_ACTIONS[action_id], catalog.skin)
            assert len(batch) * nbytes <= BATCH_BYTES or len(batch) == 1
            assert len(batch) <= widths[action_id]
        full = [b for b in batches if len(b) == widths[b[0][0]]]
        assert {b[0][0] for b in full} == set(widths)
        assert any(len({obj for _, obj, _ in b}) > 1 for b in batches)  # across objects
        # The S4 pool run of 15 traces: 8 + 7; then the S4 test run of 15.
        s4 = [len(b) for b in batches if b[0][0] == "S4"]
        assert s4 == [8, 7, 8, 7]

    def test_set_up_features_equal_one_job_at_a_time(self):
        config = self.config()
        catalog = load_catalog(config.catalog_path())
        jobs = projector_pool_jobs(config) + held_out_jobs(config)
        got = list(set_up_features(catalog, jobs))
        assert len(got) == len(jobs)
        for (action_id, obj, seed), raw in zip(jobs, got):
            trace = reference_simulate(
                catalog.by_id(obj), STANDARD_ACTIONS[action_id], seed, catalog.skin, catalog.noise
            )
            want_lead, want_thermal = reference_raw(trace)
            assert raw.lead[1].tobytes() == want_lead.tobytes()
            assert raw.thermal.tobytes() == want_thermal.tobytes()

    def test_one_item_observation_matches_reference(self, related_catalog):
        action = STANDARD_ACTIONS["S2"]
        trace = simulate(related_catalog.by_id(12), action, 5, related_catalog.skin)
        traces = [
            simulate(obj, action, seed, related_catalog.skin)
            for obj in related_catalog
            for seed in (9, 10)
        ]
        projector = fit_projector(np.stack([reference_raw(t)[1] for t in traces]))
        obs = build_observation(trace, "S2", projector, 12)
        lead, thermal = reference_raw(trace)
        assert obs.segment(Modality.TEXTURE).tobytes() == lead.tobytes()
        want = projector.basis @ (thermal - projector.mean_vector)
        assert obs.segment(Modality.THERMAL).tobytes() == want.tobytes()


def sliding_stack(accels):
    """A stack of sliding traces with the given (k, cells, 3, M) accelerations."""
    temps = np.full((len(accels), 1, accels.shape[-1]), 25.0)
    return TraceStack(None, temps, accels, 100.0, ActionKind.SLIDING)


def outcome(fn, *args):
    try:
        return fn(*args)
    except TactilabError as exc:
        return type(exc), str(exc)


def texture_stack_outcome(accels):
    raws = outcome(raw_features_stack, sliding_stack(accels))
    if isinstance(raws, tuple):
        return raws
    return [raw.lead[1] for raw in raws]


def assert_stack_matches_traces(accels):
    """The stack's textures equal each trace's own, bit for bit; or the
    stack raises what the first failing trace raises alone."""
    got = texture_stack_outcome(accels)
    singles = [outcome(extract_texture, sliding_stack(a[None]).trace(0)) for a in accels]
    first_error = next((s for s in singles if isinstance(s, tuple)), None)
    if first_error is not None:
        assert got == first_error
    else:
        assert [v.tobytes() for v in got] == [s.tobytes() for s in singles]
        for a, v in zip(accels, got):  # and the scalar reference loop
            assert v.tobytes() == reference_texture(sliding_stack(a[None]).trace(0)).tobytes()


@st.composite
def accel_stacks(draw):
    """(seed, m, cells, per-trace axis kinds) of a stack of 1-6 traces. A
    third of the traces are drawn whole-constant, so that a trace with no
    live axis often shares a stack with one that fails otherwise."""
    cells = draw(st.integers(1, 4))
    kinds = []
    for _ in range(draw(st.integers(1, 6))):
        axis_kinds = ("constant", "zero") if draw(st.integers(0, 2)) == 0 else AXIS_KINDS
        kinds.append([draw(st.sampled_from(axis_kinds)) for _ in range(3 * cells)])
    return draw(st.integers(0, 2**32 - 1)), draw(st.integers(1, 120)), cells, kinds


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestDegenerateTracesInAStack:
    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(stack=accel_stacks())
    def test_random_stacks_match_their_traces(self, stack):
        seed, m, cells, kinds = stack
        accels = np.stack(
            [random_accels(seed + i, m, [0] * cells, trace) for i, trace in enumerate(kinds)]
        )
        assert_stack_matches_traces(accels)

    def noisy(self, k, m=60, cells=2, seed=0):
        return np.random.default_rng(seed).standard_normal((k, cells, 3, m))

    def test_constant_axes_inside_a_stack(self):
        accels = self.noisy(4)
        accels[1, 0, 2] = 3.0  # one constant axis: its pairs drop out
        accels[2, 1] = 0.0  # one whole constant cell
        assert_stack_matches_traces(accels)
        assert isinstance(texture_stack_outcome(accels), list)

    def test_first_failing_trace_raises(self):
        accels = self.noisy(5)
        accels[2] = 1.5  # every axis constant
        accels[3, 0, 1] = np.arange(60.0)  # zero mobility
        assert texture_stack_outcome(accels)[1] == "every accelerometer axis is constant"
        accels[2] = self.noisy(1, seed=1)[0]
        assert texture_stack_outcome(accels)[1] == "complexity undefined when mobility is zero"
        accels[1] *= 1e-160  # the correlation denominator underflows
        assert texture_stack_outcome(accels)[1] == "correlation undefined for a constant sequence"
        assert_stack_matches_traces(accels)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_too_short_traces_inside_a_stack(self, m):
        accels = self.noisy(3, m=m)
        assert_stack_matches_traces(accels)
        accels[0] = 2.0  # the first trace fails on its constant axes instead
        assert texture_stack_outcome(accels)[1] == (
            f"activity needs >= 2 samples, got {m}" if m < 2
            else "every accelerometer axis is constant"
        )
        assert_stack_matches_traces(accels)

    def test_batch_features_raise_the_first_failing_trace(self, monkeypatch):
        from tactilab import assets

        catalog = load_catalog(tactilab.data_path("catalogs", "related_priors.json"))
        batch = [("S4", obj, 10 + obj) for obj in (1, 2, 3, 11)]
        real = assets.simulate_stack

        def degenerate(objs, *args):
            stack = real(objs, *args)
            stack.accels[1, 0, 0] = np.arange(stack.accels.shape[-1])  # zero mobility
            stack.accels[2] = 0.0  # every axis constant
            return stack

        monkeypatch.setattr(assets, "simulate_stack", degenerate)
        with pytest.raises(TactilabError, match="complexity undefined when mobility is zero"):
            batch_features(catalog, batch)
