import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import tactilab
from tactilab.errors import DegenerateTraceError, ParameterError, SchemaError
from tactilab.signals import (
    STANDARD_ACTIONS,
    ActionKind,
    ExploratoryAction,
    NoiseScales,
    ObjectSpec,
    SkinConfig,
    load_catalog,
    pressing,
    sliding,
    static_contact,
)

from conftest import QUIET
from oracles import simulate


def make_object(**overrides):
    base = dict(
        id=1,
        stiffness_coeff=2.0,
        roughness_amp=0.1,
        roughness_freq=1.5,
        thermal_time_const=4.0,
        thermal_equilib_delta=-5.0,
        label="test object",
    )
    base.update(overrides)
    return ObjectSpec(**base)


class TestActions:
    def test_standard_action_table(self):
        # The seven bench actions and their parameter vectors.
        assert STANDARD_ACTIONS["P1"].params == (1.0, 3.0)
        assert STANDARD_ACTIONS["P2"].params == (2.0, 3.0)
        assert STANDARD_ACTIONS["S1"].params == (0.1, 1.0, 1.0)
        assert STANDARD_ACTIONS["S2"].params == (0.1, 5.0, 1.0)
        assert STANDARD_ACTIONS["S3"].params == (0.2, 1.0, 1.0)
        assert STANDARD_ACTIONS["S4"].params == (0.2, 5.0, 1.0)
        assert STANDARD_ACTIONS["C1"].params == (2.0, 15.0)
        assert STANDARD_ACTIONS["C1"].kind is ActionKind.STATIC_CONTACT

    def test_param_arity_enforced(self):
        with pytest.raises(ParameterError):
            ExploratoryAction(ActionKind.PRESSING, (1.0, 2.0, 3.0))
        with pytest.raises(ParameterError):
            ExploratoryAction(ActionKind.SLIDING, (1.0, 2.0))

    def test_params_strictly_positive(self):
        with pytest.raises(ParameterError):
            pressing(0.0, 3.0)
        with pytest.raises(ParameterError):
            sliding(0.1, -1.0, 1.0)


class TestSimulate:
    def test_zero_texture_noiseless_accels_are_zero(self):
        obj = make_object(roughness_amp=0.0)
        trace = simulate(obj, sliding(0.2, 5.0, 1.0), seed=3, noise=QUIET)
        assert np.all(trace.accels == 0.0)

    def test_determinism_bit_identical(self):
        obj = make_object()
        for action in STANDARD_ACTIONS.values():
            a = simulate(obj, action, seed=11)
            b = simulate(obj, action, seed=11)
            for x, y in ((a.forces, b.forces), (a.temps, b.temps), (a.accels, b.accels)):
                if x is None:
                    assert y is None
                else:
                    assert np.array_equal(x, y)

    def test_force_plateau_mean_analytic(self):
        # stiffness 2 N/mm at 2 mm depth with no noise -> exactly 4 N.
        obj = make_object(stiffness_coeff=2.0)
        trace = simulate(obj, pressing(2.0, 3.0), seed=0, noise=QUIET)
        assert trace.forces.mean() == pytest.approx(4.0, abs=1e-12)

    def test_plateau_monotone_in_stiffness_and_depth(self):
        means_k = [
            simulate(make_object(stiffness_coeff=k), pressing(1.5, 3.0), 0, noise=QUIET)
            .forces.mean()
            for k in (0.5, 1.0, 2.0, 4.0)
        ]
        assert all(a < b for a, b in zip(means_k, means_k[1:]))
        means_d = [
            simulate(make_object(), pressing(d, 3.0), 0, noise=QUIET).forces.mean()
            for d in (0.5, 1.0, 2.0)
        ]
        assert all(a < b for a, b in zip(means_d, means_d[1:]))

    def test_channel_contract_per_action_kind(self, sample_catalog):
        for obj in sample_catalog:
            for action in STANDARD_ACTIONS.values():
                trace = simulate(obj, action, 5, sample_catalog.skin, sample_catalog.noise)
                if action.kind is ActionKind.SLIDING:
                    assert trace.forces is None
                    assert trace.accels is not None and trace.temps is not None
                else:
                    assert trace.accels is None
                    assert trace.forces is not None and trace.temps is not None

    def test_trace_shapes(self):
        skin = SkinConfig()
        trace = simulate(make_object(), pressing(2.0, 3.0), 1, skin)
        assert trace.forces.shape == (21, 300)
        assert trace.temps.shape == (7, 300)
        slide = simulate(make_object(), sliding(0.2, 5.0, 1.0), 1, skin)
        assert slide.accels.shape == (7, 3, 100)

    def test_degenerate_trace_error(self):
        with pytest.raises(DegenerateTraceError):
            simulate(make_object(), pressing(1.0, 0.01), seed=0)

    def test_temperature_decays_toward_equilibrium(self):
        obj = make_object(thermal_time_const=2.0, thermal_equilib_delta=-6.0)
        trace = simulate(obj, static_contact(2.0, 15.0), 0, noise=QUIET)
        seq = trace.temps[0]
        assert seq[0] == pytest.approx(25.0, abs=1e-9)
        assert seq[-1] == pytest.approx(25.0 - 6.0, rel=1e-3)
        assert np.all(np.diff(seq) <= 0)


class TestObjectSpec:
    def test_nonpositive_parameters_rejected(self):
        with pytest.raises(SchemaError, match="stiffness_coeff"):
            make_object(stiffness_coeff=-1.0)
        with pytest.raises(SchemaError, match="roughness_freq"):
            make_object(roughness_freq=0.0)
        with pytest.raises(SchemaError, match="roughness_amp"):
            make_object(roughness_amp=-0.1)

    def test_equilib_delta_any_sign(self):
        make_object(thermal_equilib_delta=3.0)
        make_object(thermal_equilib_delta=-3.0)


class TestLoadCatalog:
    def test_sample_catalog_ships_fifteen_objects(self):
        catalog = load_catalog(tactilab.data_path("catalogs", "sample_catalog.json"))
        assert len(catalog) == 15
        assert sorted(obj.id for obj in catalog) == list(range(1, 16))

    def test_empty_object_list_rejected(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "objects": []}))
        with pytest.raises(SchemaError, match="objects"):
            load_catalog(path)

    def test_negative_stiffness_names_field(self, tmp_path):
        entry = {
            "id": 1,
            "stiffness_coeff": -1.0,
            "roughness_amp": 0.1,
            "roughness_freq": 1.0,
            "thermal_time_const": 1.0,
            "thermal_equilib_delta": 0.0,
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "objects": [entry]}))
        with pytest.raises(SchemaError, match="stiffness_coeff"):
            load_catalog(path)

    def test_duplicate_ids_rejected(self, tmp_path):
        entry = {
            "id": 7,
            "stiffness_coeff": 1.0,
            "roughness_amp": 0.1,
            "roughness_freq": 1.0,
            "thermal_time_const": 1.0,
            "thermal_equilib_delta": 0.0,
        }
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "objects": [entry, dict(entry)]}))
        with pytest.raises(SchemaError, match="duplicate id 7"):
            load_catalog(path)

    def test_unknown_fields_rejected(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"schema_version": 1, "objects": [], "extra": 1}))
        with pytest.raises(SchemaError, match="extra"):
            load_catalog(path)

    @pytest.mark.parametrize(
        "name", ["sample_catalog", "related_priors", "unrelated_priors", "uniform_stiffness"]
    )
    def test_packaged_catalogs_load(self, name):
        assert len(load_catalog(tactilab.data_path("catalogs", f"{name}.json")))

    @pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
    @pytest.mark.parametrize(
        "section, field, where",
        [
            ("objects", "thermal_equilib_delta", "objects[1]"),
            ("objects", "roughness_amp", "objects[1]"),
            ("objects", "stiffness_coeff", "objects[1]"),
            ("objects", "id", "objects[1]"),
            ("skin", "ambient_temp_c", "skin"),
            ("skin", "sample_rate_hz", "skin"),
            ("noise", "temp_sample", "noise"),
        ],
    )
    def test_non_finite_numbers_rejected_by_field(self, tmp_path, section, field, where, value):
        # JSON's Infinity and NaN parse as floats; NaN passed the sign checks
        # (NaN < 0 is false) and Infinity failed the run in the projector fit.
        raw = json.loads(tactilab.data_path("catalogs", "sample_catalog.json").read_text())
        if section == "objects":
            raw["objects"][1][field] = value
        else:
            raw[section] = {**raw.get(section, {}), field: value}
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(raw))
        with pytest.raises(SchemaError, match=re.escape(f"{where}: {field} must be finite")):
            load_catalog(path)

    @pytest.mark.parametrize("value", ["inf", "-Infinity", "nan"])
    def test_non_finite_number_strings_rejected(self, tmp_path, value):
        raw = json.loads(tactilab.data_path("catalogs", "sample_catalog.json").read_text())
        raw["objects"][1]["roughness_amp"] = value
        path = tmp_path / "cat.json"
        path.write_text(json.dumps(raw))
        message = f"objects[1]: roughness_amp must be a number, got {value!r}"
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_catalog(path)

    @staticmethod
    def write_mutant(path, section, field, value, catalog="sample_catalog", index=0):
        """The packaged ``catalog`` with one field of its skin, its noise or
        object ``index`` set to ``value``, written to ``path``."""
        raw = json.loads(tactilab.data_path("catalogs", f"{catalog}.json").read_text())
        (raw["objects"][index] if section == "objects" else raw[section])[field] = value
        path.write_text(json.dumps(raw))
        return path

    @pytest.mark.parametrize(
        "section, field, value, expected",
        [
            ("objects", "id", True, "an integer, got True"),
            ("objects", "id", 2.5, "an integer, got 2.5"),
            ("objects", "id", "3", "an integer, got '3'"),
            ("objects", "label", 5, "a string, got 5"),
            ("objects", "stiffness_coeff", "7", "a number, got '7'"),
            ("objects", "stiffness_coeff", True, "a number, got True"),
            ("objects", "thermal_time_const", "7", "a number, got '7'"),
            ("objects", "roughness_amp", [1], "a number, got [1]"),
            ("noise", "force_trial", "0.1", "a number, got '0.1'"),
            ("noise", "force_trial", None, "a number, got None"),
            ("noise", "force_trial", True, "a number, got True"),
        ],
    )
    def test_mistyped_fields_rejected_by_name(self, tmp_path, section, field, value, expected):
        # Before, true and the number strings loaded (as 1 and as floats), 2.5
        # and "3" became ids 2 and 3, a label of 5 became "5", and the list
        # and the noise string and null failed without naming the field.
        path = self.write_mutant(tmp_path / "cat.json", section, field, value)
        where = "objects[0]" if section == "objects" else section
        with pytest.raises(SchemaError, match=re.escape(f"{where}: {field} must be {expected}")):
            load_catalog(path)

    def test_integral_float_count_loads_as_integer(self, tmp_path):
        skin = load_catalog(self.write_mutant(tmp_path / "cat.json", "skin", "cells", 7.0)).skin
        assert skin.cells == 7 and isinstance(skin.cells, int)

    def test_missing_schema_version_rejected(self, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(json.dumps({"objects": []}))
        with pytest.raises(SchemaError, match="schema_version"):
            load_catalog(path)


#: The catalog fields whose declared kind is integer, and string; every other
#: skin, noise and object field is a number.
INTEGER_FIELDS = {"id", "cells", "force_per_cell", "temp_per_cell", "accel_per_cell"}
STRING_FIELDS = {"label"}
MUTANTS = ("7", 2.5, -1, 0, None, [], True, 1e300, math.nan, math.inf, -math.inf)
CATALOGS = ("sample_catalog", "related_priors", "unrelated_priors", "uniform_stiffness")


def has_declared_kind(field, value) -> bool:
    """An integer is an int or an integral float of magnitude <= 2**53, a
    number a finite int or float, a string a str; a bool is of no kind."""
    if isinstance(value, bool):
        return False
    if field in STRING_FIELDS:
        return isinstance(value, str)
    if not isinstance(value, (int, float)) or not math.isfinite(value):
        return False
    return field not in INTEGER_FIELDS or (float(value).is_integer() and abs(value) <= 2**53)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_single_field_mutation_rejected_by_name_or_loaded_as_declared(tmp_path_factory, data):
    name = data.draw(st.sampled_from(CATALOGS), label="catalog")
    raw = json.loads(tactilab.data_path("catalogs", f"{name}.json").read_text())
    section = data.draw(st.sampled_from(["skin", "noise", "objects"]), label="section")
    index = data.draw(st.integers(0, len(raw["objects"]) - 1), label="index")
    record = raw["objects"][index] if section == "objects" else raw[section]
    field = data.draw(st.sampled_from(sorted(record)), label="field")
    value = data.draw(st.sampled_from(MUTANTS), label="value")
    path = TestLoadCatalog.write_mutant(
        tmp_path_factory.mktemp("mutant") / "cat.json", section, field, value, name, index
    )
    where = f"objects[{index}]" if section == "objects" else section
    try:
        catalog = load_catalog(path)
    except SchemaError as exc:
        assert str(exc).startswith(f"{where}: {field} must be "), str(exc)
        return
    assert has_declared_kind(field, value), f"{where}: {field} loaded {value!r}"
    loaded = catalog.objects[index] if section == "objects" else getattr(catalog, section)
    assert getattr(loaded, field) == value
