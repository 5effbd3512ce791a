"""Schedule evaluation semantics and scenario JSON round trips."""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dualfuel as df
from dualfuel.scenarios import (
    Breakpoint,
    builtin_case,
    scenario_from_dict,
    schedule_value,
)


class TestScheduleValue:
    def test_constant(self):
        bps = [Breakpoint(t=0.0, value=5.0)]
        assert schedule_value(bps, 0.0) == 5.0
        assert schedule_value(bps, 100.0) == 5.0

    def test_step(self):
        bps = [Breakpoint(t=0.0, value=8.0), Breakpoint(t=5.0, value=10.0)]
        assert schedule_value(bps, 4.999) == 8.0
        assert schedule_value(bps, 5.0) == 10.0

    def test_ramp_interpolates(self):
        bps = [Breakpoint(t=0.0, value=0.0),
               Breakpoint(t=5.0, value=0.5, ramp_s=0.5)]
        assert schedule_value(bps, 5.0) == 0.0
        assert schedule_value(bps, 5.25) == pytest.approx(0.25)
        assert schedule_value(bps, 5.5) == 0.5
        assert schedule_value(bps, 9.0) == 0.5

    def test_before_first_breakpoint_holds_value(self):
        bps = [Breakpoint(t=2.0, value=3.0)]
        assert schedule_value(bps, 0.0) == 3.0

    @settings(derandomize=True)
    @given(points=st.lists(st.tuples(st.floats(0.0, 10.0), st.floats(-1e3, 1e3),
                                     st.floats(0.0, 2.0)), min_size=1, max_size=6),
           t=st.floats(-1.0, 15.0))
    def test_value_within_breakpoint_range(self, points, t):
        bps = [Breakpoint(t=bt, value=v, ramp_s=r) for bt, v, r in sorted(points)]
        lo = min(bp.value for bp in bps)
        hi = max(bp.value for bp in bps)
        tol = 1e-12 * max(1.0, abs(lo), abs(hi))
        assert lo - tol <= schedule_value(bps, t) <= hi + tol

    def test_unordered_breakpoints_rejected(self):
        with pytest.raises(ValueError):
            df.Scenario(duration_s=10.0, controller="adaptive",
                        schedules={"speed": [Breakpoint(t=5.0, value=1.0),
                                             Breakpoint(t=0.0, value=2.0)]},
                        reference=[Breakpoint(t=0.0, value=8.0)])

    def test_negative_ramp_rejected(self):
        with pytest.raises(ValueError):
            Breakpoint(t=0.0, value=1.0, ramp_s=-0.1)


class TestScenarioValidation:
    def test_unknown_schedule_key_rejected(self):
        with pytest.raises(ValueError):
            df.Scenario(duration_s=10.0, controller="adaptive",
                        schedules={"boost": [Breakpoint(t=0.0, value=1.0)]},
                        reference=[Breakpoint(t=0.0, value=8.0)])

    def test_unknown_controller_rejected(self):
        with pytest.raises(ValueError):
            df.Scenario(duration_s=10.0, controller="pid",
                        schedules={"speed": [Breakpoint(t=0.0, value=1200.0)]},
                        reference=[Breakpoint(t=0.0, value=8.0)])

    @pytest.mark.parametrize("duration_s", [float("nan"), float("inf"), -1.0])
    def test_bad_duration_rejected(self, duration_s):
        d = asdict(builtin_case(1))
        d["duration_s"] = duration_s
        with pytest.raises(ValueError, match="duration_s"):
            scenario_from_dict(d)

    @pytest.mark.parametrize("field", ["t", "value", "ramp_s"])
    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_breakpoint_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Breakpoint(**{"t": 1.0, "value": 2.0, "ramp_s": 0.5, field: value})

    def test_unknown_plant_key_rejected(self):
        d = asdict(builtin_case(1))
        d["plant"]["noise"] = 0.5
        with pytest.raises(ValueError, match="'noise'"):
            scenario_from_dict(d)

    def test_event_times_collects_changes(self):
        sc = builtin_case(6)
        assert sc.event_times() == [5.0]


class TestJsonRoundTrip:
    @pytest.mark.parametrize("case", range(1, 7))
    @pytest.mark.parametrize("controller", ("adaptive", "feedforward"))
    def test_parse_serialize_parse_identity(self, tmp_path, case, controller):
        sc = builtin_case(case, controller=controller)
        path = tmp_path / "scenario.json"
        df.save_scenario(path, sc)
        loaded = df.load_scenario(path)
        assert loaded == sc
        # serialised forms are identical too
        assert asdict(loaded) == asdict(sc)

    def test_dict_round_trip(self):
        sc = builtin_case(4, controller="feedforward")
        assert scenario_from_dict(asdict(sc)) == sc

    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda d: d.pop("controller"), "missing key 'controller'",
                     id="no-controller"),
        pytest.param(lambda d: d.pop("reference"), "missing key 'reference'",
                     id="no-reference"),
        pytest.param(lambda d: d["reference"][0].pop("value"), "missing key 'value'",
                     id="breakpoint-without-value"),
        pytest.param(lambda d: d["schedules"]["speed"][0].update(v=1.0),
                     "unknown breakpoint key 'v'", id="unknown-breakpoint-key"),
        pytest.param(lambda d: d.update(schedules=[]),
                     "scenario key 'schedules' must be an object", id="schedules-list"),
        pytest.param(lambda d: d.update(plant=[1]),
                     "scenario key 'plant' must be an object", id="plant-list"),
        pytest.param(lambda d: d["schedules"]["speed"].__setitem__(0, [0.0, 1200.0]),
                     "breakpoint of 'speed' must be an object", id="breakpoint-list"),
        pytest.param(lambda d: d.update(reference={"t": 0}),
                     "schedule 'reference' must be a list", id="reference-object"),
        pytest.param(lambda d: d["reference"][0].update(t="0"),
                     "breakpoint t must be a number, got str", id="string-time"),
        pytest.param(lambda d: d["reference"][0].update(value=True),
                     "breakpoint value must be a number, got bool", id="bool-value"),
        pytest.param(lambda d: d.update(duration_s=[10.0]),
                     "'duration_s' must be a number, got list", id="list-duration"),
        pytest.param(lambda d: d.update(plnt={"ca50_noise_halfwidth": 0.0}),
                     "unknown scenario key 'plnt'", id="unknown-top-level-key"),
        pytest.param(lambda d: d["plant"].update(soi_resolution="0.1"),
                     "plant key 'soi_resolution' must be a number, got str",
                     id="string-plant-value"),
    ])
    def test_malformed_dict_rejected(self, edit, message):
        d = asdict(builtin_case(1))
        edit(d)
        with pytest.raises(ValueError, match=message):
            scenario_from_dict(d)

    def test_non_object_scenario_rejected(self):
        with pytest.raises(ValueError, match="scenario must be an object"):
            scenario_from_dict([asdict(builtin_case(1))])


class TestBuiltinCases:
    def test_case_one_steps_reference(self):
        sc = builtin_case(1)
        assert schedule_value(sc.reference, 0.0) == 8.0
        assert schedule_value(sc.reference, 6.0) == 10.0

    def test_case_four_ramps_egr(self):
        sc = builtin_case(4)
        egr = sc.schedules["egr"]
        assert schedule_value(egr, 0.0) == 0.0
        assert schedule_value(egr, 5.25) == pytest.approx(0.25)
        assert schedule_value(egr, 6.0) == 0.5

    def test_benchmarks_run_noise_free(self):
        for n in range(1, 7):
            assert builtin_case(n).plant["ca50_noise_halfwidth"] == 0.0

    def test_invalid_case_rejected(self):
        with pytest.raises(ValueError):
            builtin_case(7)
