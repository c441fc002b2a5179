"""Set-up simulates and reduces each action's traces as one stack. A trace's
bits must not depend on its stack: every stacked result here is compared,
with ``tobytes()``, against one-trace references that keep the per-trace
formulas (the simulator's draws and arithmetic, the scalar texture loop, the
per-trace stiffness and thermal reductions)."""

import dataclasses
import math
from functools import partial
from itertools import chain, product

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import tactilab
from tactilab import harness
from tactilab.active import acquire, initialize_state
from tactilab.assets import (
    BATCH_BYTES,
    batch_block,
    batch_features,
    build_test_set,
    fit_projectors_from_pool,
    held_out_jobs,
    job_batches,
    observe,
    projector_pool_jobs,
    set_up_features,
)
from tactilab.config import parse_config
from tactilab.errors import ParameterError, TactilabError
from tactilab.kernels import ObservationBlock
from tactilab.features import (
    THERMAL_DIM,
    THERMAL_RESAMPLE_LEN,
    Modality,
    fit_projector,
    project_thermal,
    raw_features_stack,
)
from tactilab.seeding import ABLATION_NS, INIT_NS, TRAIN_NS, derive_seed
from tactilab.signals import (
    STANDARD_ACTIONS,
    ActionKind,
    NoiseScales,
    SkinConfig,
    TraceStack,
    load_catalog,
    simulate_stack,
    trace_nbytes,
)

from conftest import one_row
from oracles import SensorTrace, extract_texture, simulate, stack_of, trace_of
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


def row_bytes(rows, i):
    """(lead modality, lead row bytes, raw thermal row bytes) of row ``i`` of
    ``raw_features_stack``'s rows."""
    lead, lead_rows, thermal_rows = rows
    return lead, lead_rows[i].tobytes(), thermal_rows[i].tobytes()


def one_trace_observation(catalog, projectors, job):
    """The reference observation of one job, as a one-row block: its trace
    simulated alone and reduced as a one-item stack, its thermal row
    projected as one vector."""
    action_id, obj, seed = job
    action = STANDARD_ACTIONS[action_id]
    trace = simulate(catalog.by_id(obj), action, seed, catalog.skin, catalog.noise)
    lead, lead_rows, thermal_rows = raw_features_stack(stack_of(trace))
    projector = projectors[action_id]
    thermal = projector.basis @ (thermal_rows[0] - projector.mean_vector)
    return one_row((lead, lead_rows[0]), (Modality.THERMAL, thermal))


@pytest.mark.parametrize("action_id", list(STANDARD_ACTIONS))
@pytest.mark.parametrize("catalog_name", CATALOGS)
def test_stack_matches_one_trace_references(catalog_name, action_id):
    """Every object of the catalog, two seeds each, as one stack: each trace
    and its raw features equal the one-trace references, and the one-item
    calls (``simulate``, ``raw_features_stack`` of a one-trace stack) give the
    same bytes."""
    catalog = load_catalog(tactilab.data_path("catalogs", f"{catalog_name}.json"))
    action = STANDARD_ACTIONS[action_id]
    lead = Modality.TEXTURE if action.kind is ActionKind.SLIDING else Modality.FORCE
    items = [(obj, 7919 * k + obj.id) for k in range(2) for obj in catalog]
    objs, seeds = [o for o, _ in items], [s for _, s in items]
    stack = simulate_stack(objs, action, seeds, catalog.skin, catalog.noise)
    raws = raw_features_stack(stack)
    assert len(raws[1]) == len(raws[2]) == len(items)
    for i, (obj, seed) in enumerate(items):
        want = reference_simulate(obj, action, seed, catalog.skin, catalog.noise)
        want_lead, want_thermal = reference_raw(want)
        alone = simulate(obj, action, seed, catalog.skin, catalog.noise)
        assert channel_bytes(trace_of(stack, i)) == channel_bytes(want) == channel_bytes(alone)
        expected = (lead, want_lead.tobytes(), want_thermal.tobytes())
        alone_raws = raw_features_stack(stack_of(alone))
        assert row_bytes(raws, i) == row_bytes(alone_raws, 0) == expected


def test_one_seed_per_object(related_catalog):
    with pytest.raises(ParameterError, match="2 objects for 1 seeds"):
        simulate_stack(list(related_catalog)[:2], STANDARD_ACTIONS["P2"], [1])


def small_config(**overrides):
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


class TestJobBatches:
    def config(self, **overrides):
        return small_config(**overrides)

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
        assert [batch for batch, _ in got] == job_batches(catalog, jobs)
        rows = []
        for batch, batch_rows in got:
            assert len(batch_rows[1]) == len(batch_rows[2]) == len(batch)
            rows += [row_bytes(batch_rows, i) for i in range(len(batch))]
        assert len(rows) == len(jobs)
        for (action_id, obj, seed), (lead, lead_row, thermal_row) in zip(jobs, rows):
            action = STANDARD_ACTIONS[action_id]
            trace = reference_simulate(
                catalog.by_id(obj), action, seed, catalog.skin, catalog.noise
            )
            want_lead, want_thermal = reference_raw(trace)
            sliding = action.kind is ActionKind.SLIDING
            assert lead is (Modality.TEXTURE if sliding else Modality.FORCE)
            assert lead_row == want_lead.tobytes()
            assert thermal_row == want_thermal.tobytes()

    def test_one_item_observation_matches_reference(self, related_catalog):
        action = STANDARD_ACTIONS["S2"]
        trace = simulate(related_catalog.by_id(12), action, 5, related_catalog.skin)
        traces = [
            simulate(obj, action, seed, related_catalog.skin)
            for obj in related_catalog
            for seed in (9, 10)
        ]
        projector = fit_projector(np.stack([reference_raw(t)[1] for t in traces]))
        block = batch_block(
            {"S2": projector}, [("S2", 12, 5)], raw_features_stack(stack_of(trace))
        )
        lead, thermal = reference_raw(trace)
        assert len(block) == 1 and block.modalities == (Modality.TEXTURE, Modality.THERMAL)
        assert block.matrix(Modality.TEXTURE)[0].tobytes() == lead.tobytes()
        want = projector.basis @ (thermal - projector.mean_vector)
        assert block.matrix(Modality.THERMAL)[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("action_id", list(STANDARD_ACTIONS))
def test_projected_rows_equal_per_vector_projections(action_id):
    """A matrix of thermal rows projects each row to the bits of
    ``project_thermal`` of that row alone, and of the per-vector formula."""
    catalog = load_catalog(tactilab.data_path("catalogs", "sample_catalog.json"))
    items = [(obj, 31 * k + obj.id) for k in range(2) for obj in catalog]
    stack = simulate_stack(
        [o for o, _ in items], STANDARD_ACTIONS[action_id], [s for _, s in items],
        catalog.skin, catalog.noise,
    )
    _, _, raws = raw_features_stack(stack)
    projector = fit_projector(raws)
    rows = project_thermal(raws, projector)
    assert rows.shape == (len(items), THERMAL_DIM)
    for raw, row in zip(raws, rows):
        want = projector.basis @ (raw - projector.mean_vector)
        assert row.tobytes() == project_thermal(raw, projector).tobytes() == want.tobytes()


class TestBatchBlock:
    """``batch_block`` is the run path's finiteness check on hand-made rows:
    the first row with a non-finite entry raises, and names its lead segment
    before its thermal one."""

    JOBS = [("P2", 1, seed) for seed in range(4)]

    @pytest.fixture(scope="class")
    def projectors(self):
        rng = np.random.default_rng(5)
        return {"P2": fit_projector(rng.standard_normal((12, 2 * THERMAL_RESAMPLE_LEN)))}

    def rows(self, lead=Modality.FORCE, width=1):
        rng = np.random.default_rng(6)
        k = len(self.JOBS)
        raws = rng.standard_normal((k, 2 * THERMAL_RESAMPLE_LEN))
        return lead, rng.standard_normal((k, width)), raws

    def test_finite_rows_make_one_block(self, projectors):
        lead, lead_rows, raws = self.rows()
        block = batch_block(projectors, self.JOBS, (lead, lead_rows, raws))
        assert len(block) == 4 and block.modalities == (Modality.FORCE, Modality.THERMAL)
        assert block.matrix(Modality.FORCE).tobytes() == lead_rows.tobytes()
        want = project_thermal(raws, projectors["P2"])
        assert block.matrix(Modality.THERMAL).tobytes() == want.tobytes()

    @pytest.mark.parametrize(
        "lead_bad, thermal_bad, segment",
        [
            ([2], [], "force"),
            ([], [1], "thermal"),
            ([2], [1], "thermal"),  # the first bad row wins
            ([1, 3], [1], "force"),  # within a row, the lead segment first
            ([0], [3], "force"),
        ],
    )
    def test_first_non_finite_row_raises(self, projectors, lead_bad, thermal_bad, segment):
        lead, lead_rows, raws = self.rows()
        lead_rows[lead_bad, 0] = np.inf
        raws[thermal_bad, 5] = np.inf
        with pytest.raises(ValueError, match=f"^non-finite entries in {segment} segment$"):
            batch_block(projectors, self.JOBS, (lead, lead_rows, raws))

    def test_texture_rows_named(self, projectors):
        lead, lead_rows, raws = self.rows(Modality.TEXTURE, width=4)
        lead_rows[3, 2] = np.nan
        with pytest.raises(ValueError, match="^non-finite entries in texture segment$"):
            batch_block(projectors, self.JOBS, (lead, lead_rows, raws))


def assert_rows(block, want):
    """``block`` holds the rows of the one-row blocks ``want``, in order, bit
    for bit."""
    assert len(block) == len(want)
    for i, obs in enumerate(want):
        assert block.modalities == obs.modalities
        for mod in obs.modalities:
            assert block.matrix(mod)[i].tobytes() == obs.matrix(mod)[0].tobytes()


class TestTrialObservations:
    """Trials and the ablation observe through set-up's batches: each row is
    bit for bit the observation of its trace simulated and reduced alone
    (``one_trace_observation``)."""

    @pytest.fixture(scope="class")
    def run(self):
        config = small_config()
        catalog = load_catalog(config.catalog_path())
        projectors = fit_projectors_from_pool(set_up_features(catalog, projector_pool_jobs(config)))
        return config, catalog, projectors

    one_trace = staticmethod(one_trace_observation)

    def test_initial_and_acquired_rows(self, run):
        config, catalog, projectors = run
        observe_run = partial(observe, catalog, projectors)
        state = initialize_state(config.new_objects, config.actions, observe_run, seed_root=7)
        want = {}
        for idx, (action_id, obj) in enumerate(product(config.actions, config.new_objects)):
            job = (action_id, obj, derive_seed(7, INIT_NS, idx))
            want[action_id, obj] = [self.one_trace(catalog, projectors, job)]
        for (action_id, obj), rows in want.items():
            assert_rows(state.observations[action_id][obj], rows)
        for i, action_id in enumerate(config.actions):  # one acquisition per action
            obj = config.new_objects[i % 2]
            row = acquire(state, obj, action_id, observe_run)
            job = (action_id, obj, derive_seed(7, TRAIN_NS, i))
            want[action_id, obj].append(self.one_trace(catalog, projectors, job))
            assert_rows(row, want[action_id, obj][-1:])
            assert_rows(state.observations[action_id][obj], want[action_id, obj])

    @pytest.mark.parametrize("action_id", ["P2", "S4", "C1"])
    def test_ablation_samples(self, run, monkeypatch, action_id):
        config, catalog, projectors = run
        config = dataclasses.replace(config, actions=(action_id,), ablation_sizes=(2, 5))
        test = build_test_set(projectors, set_up_features(catalog, held_out_jobs(config)))
        blocks, train_sets = [], []
        real_block, real_sets = harness.batch_block, harness.ova_sets
        monkeypatch.setattr(
            harness, "batch_block", lambda *args: blocks.append(real_block(*args)) or blocks[-1]
        )
        monkeypatch.setattr(
            harness, "ova_sets", lambda *args: train_sets.append(args) or real_sets(*args)
        )
        harness.run_ablation_seed(config, catalog, projectors, test, 3)
        a_idx = list(STANDARD_ACTIONS).index(action_id)
        jobs = [  # three per class, the classes in turn
            (action_id, obj, derive_seed(3, ABLATION_NS, a_idx, obj, k))
            for k in range(3)
            for obj in config.new_objects
        ]
        want = [self.one_trace(catalog, projectors, job) for job in jobs]
        assert_rows(ObservationBlock.concat(blocks), want)
        assert [len(train) for train, _ in train_sets] == [2, 5]
        for train, labels in train_sets:  # the first ``size`` samples
            assert_rows(train, want[: len(train)])
            assert list(labels) == [obj for _, obj, _ in jobs[: len(train)]]


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
    if isinstance(raws[0], type):  # an error's (type, message)
        return raws
    return list(raws[1])


def assert_stack_matches_traces(accels):
    """The stack's textures equal each trace's own, bit for bit; or the
    stack raises what the first failing trace raises alone."""
    got = texture_stack_outcome(accels)
    singles = [outcome(extract_texture, trace_of(sliding_stack(a[None]), 0)) for a in accels]
    first_error = next((s for s in singles if isinstance(s, tuple)), None)
    if first_error is not None:
        assert got == first_error
    else:
        assert [v.tobytes() for v in got] == [s.tobytes() for s in singles]
        for a, v in zip(accels, got):  # and the scalar reference loop
            assert v.tobytes() == reference_texture(trace_of(sliding_stack(a[None]), 0)).tobytes()


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
