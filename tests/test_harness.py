"""Closed-loop runner, summary metrics, CSV emission, sensitivity and noise
studies, and the CLI."""

import csv
import json
import re
import shlex
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from dualfuel import calib, cli, harness, scenarios
from dualfuel.calib import DATASET_COLUMNS, generate_dataset, validate, write_dataset
from dualfuel.control import (
    FEEDFORWARD_SEED_SOI,
    MEAN_RESIDUAL_FRACTION,
    ControllerState,
    adaptive_soi,
    compute_states,
    feedforward_soi,
)
from dualfuel.core import (
    DomainError,
    OperatingPoint,
    default_coefficients,
    default_geometry,
    save_coefficients,
)
from dualfuel.model import burn_duration
from dualfuel.plant import CycleRecord, EnginePlant, PlantConfig, knock_integral_soc
from dualfuel.harness import (
    DEFAULT_PERTURBATIONS,
    RECORD_COLUMNS,
    SOI_CMD_MARGIN,
    SOI_CMD_MAX,
    SensitivityRow,
    read_records_csv,
    run_noise_study,
    run_scenario,
    run_sensitivity,
    summarize_rows,
    write_records_csv,
    write_sensitivity_csv,
    _op_lookup,
)
from dualfuel.scenarios import (
    Breakpoint,
    Scenario,
    builtin_case,
    load_scenario,
    schedule_value,
)


@pytest.fixture(scope="module")
def case1_run():
    scenario = builtin_case(1)
    return scenario, *run_scenario(scenario)


def _op_from_schedules(sc, t):
    """The point at time t built from schedule_value of every schedule."""
    v = {key: schedule_value(bps, t) for key, bps in sc.schedules.items()}
    return OperatingPoint(**{"egr": 0.0, "x_r": MEAN_RESIDUAL_FRACTION, **v})


def _ramped_ivc_scenario():
    sc = builtin_case(2)
    return replace(sc, schedules={
        **sc.schedules,
        "p_ivc": [Breakpoint(0.0, 2.9), Breakpoint(3.0, 3.3, ramp_s=1.0)],
        "t_ivc": [Breakpoint(0.0, 390.0), Breakpoint(4.0, 405.0, ramp_s=2.0),
                  Breakpoint(7.0, 395.0)]})


class TestOpAt:
    def test_direct_ivc_schedule_wins(self):
        sc = Scenario(
            duration_s=1.0, controller="adaptive",
            schedules={"speed": [Breakpoint(0.0, 1200.0)],
                       "phi_di": [Breakpoint(0.0, 0.4)],
                       "phi_ng": [Breakpoint(0.0, 0.4)],
                       "egr": [Breakpoint(0.0, 0.25)],
                       "p_ivc": [Breakpoint(0.0, 3.1)],
                       "t_ivc": [Breakpoint(0.0, 395.0)]},
            reference=[Breakpoint(0.0, 8.0)])
        op = _op_lookup(sc)(0.5)
        assert op.p_ivc == 3.1 and op.t_ivc == 395.0
        # unscheduled residual fraction falls back to the long-run mean
        assert op.x_r == MEAN_RESIDUAL_FRACTION

    @pytest.mark.parametrize("make", [
        *[pytest.param(lambda n=n: builtin_case(n), id=f"case{n}") for n in range(1, 7)],
        pytest.param(_ramped_ivc_scenario, id="ramped-ivc"),
    ])
    def test_lookup_is_exact_at_every_cycle(self, make):
        # the per-run lookup, called at each cycle's time in order, gives
        # the point that every schedule's own value builds
        sc = make()
        records, _ = run_scenario(sc)
        op_at = _op_lookup(sc)
        for r in records:
            assert op_at(r.time_s) == _op_from_schedules(sc, r.time_s)

    def test_constant_schedules_validate_less_than_once_per_cycle(self, monkeypatch):
        validations = [0]
        validate = OperatingPoint.__post_init__

        def counting(op):
            validations[0] += 1
            validate(op)
        monkeypatch.setattr(OperatingPoint, "__post_init__", counting)
        # per run: the EGR cases 4 and 6 come closest (56 points in 100
        # cycles, 68 in 112), as the plant builds a point per cycle of EGR lag
        for n in range(1, 7):
            for controller in ("adaptive", "feedforward"):
                validations[0] = 0
                records, _ = run_scenario(builtin_case(n, controller=controller))
                assert validations[0] < len(records), (n, controller)


class TestRunScenario:
    def test_zero_duration_empty(self):
        sc = builtin_case(1)
        empty = Scenario(duration_s=0.0, controller="adaptive",
                         schedules=sc.schedules, reference=sc.reference,
                         plant=sc.plant)
        records, summary = run_scenario(empty)
        assert records == [] and summary.segments == []

    def test_deterministic(self):
        sc = builtin_case(3)
        a = run_scenario(sc)
        b = run_scenario(sc)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_first_two_cycles_motored(self, case1_run):
        _, records, _ = case1_run
        assert records[0].ca50_actual == 0.0 and records[1].ca50_actual == 0.0
        assert records[2].ca50_actual > 0.0

    def test_reference_applied_one_cycle_late(self, case1_run):
        # the step at t=5 s reaches the loop one cycle later
        _, records, _ = case1_run
        after_step = [r for r in records if r.time_s >= 5.0]
        assert after_step[0].ca50_ref == 8.0
        assert after_step[1].ca50_ref == 10.0

    def test_feedforward_records_blank_observer(self):
        records, _ = run_scenario(builtin_case(1, controller="feedforward"))
        assert all(r.alpha_hat is None and r.beta_hat is None for r in records)

    def test_adaptive_records_observer(self, case1_run):
        _, records, _ = case1_run
        assert all(r.alpha_hat is not None for r in records)
        assert records[-1].alpha_hat != 0.0

    def test_adaptive_loop_recovers_after_saturation(self):
        # an unreachable reference (40 CAD) pins the command at SOI_CMD_MAX
        # for 2 s; once it returns to 8 CAD the observer must not stay wound up
        sc = builtin_case(1)
        sc = replace(sc, reference=[Breakpoint(0.0, 8.0), Breakpoint(3.0, 40.0),
                                    Breakpoint(5.0, 8.0)])
        records, summary = run_scenario(sc)
        after = [r for r in records if r.time_s >= 5.0]
        assert sum(r.soi_commanded == SOI_CMD_MAX for r in after) <= 2
        assert abs(records[-1].alpha_hat) < 0.01
        last = summary.segments[-1]
        assert max(abs(last.err_min), abs(last.err_max)) < 0.05

    def test_feedforward_loop_recovers_after_saturation(self):
        # the same pinned stretch; the first inversion after it must use the
        # angle that was applied, not the unreachable one that was asked for
        sc = builtin_case(1, controller="feedforward")
        sc = replace(sc, reference=[Breakpoint(0.0, 8.0), Breakpoint(3.0, 40.0),
                                    Breakpoint(5.0, 8.0)])
        _, summary = run_scenario(sc)
        assert summary.segments[-1].overshoot <= 0.5

    @pytest.mark.parametrize("controller", scenarios.CONTROLLERS)
    def test_plant_error_names_its_cycle(self, monkeypatch, controller):
        step_cycle = EnginePlant.step_cycle

        def fail_at_cycle_5(plant, *args, **kwargs):
            if plant.cycle_index == 5:
                raise DomainError("the plant failed")
            return step_cycle(plant, *args, **kwargs)
        monkeypatch.setattr(EnginePlant, "step_cycle", fail_at_cycle_5)
        with pytest.raises(DomainError) as exc:
            run_scenario(builtin_case(1, controller=controller))
        assert str(exc.value) == "cycle 5: the plant failed"

    def test_observer_error_names_the_cycle_it_learns_from(self, monkeypatch):
        # the observer learns from fired cycles 2, 3, 4, ...: its fourth
        # update follows cycle 5, after the plant has counted it
        update, calls = harness.adaptive_update, []

        def fail_after_cycle_5(*args):
            calls.append(None)
            if len(calls) == 4:
                raise DomainError("the observer failed")
            return update(*args)
        monkeypatch.setattr(harness, "adaptive_update", fail_after_cycle_5)
        with pytest.raises(DomainError) as exc:
            run_scenario(builtin_case(1))
        assert str(exc.value) == "cycle 5: the observer failed"

    def test_misfire_aborts_with_partial_stream(self):
        sc = builtin_case(1)
        cold = dict(sc.schedules)
        cold["t_ivc"] = [Breakpoint(0.0, 390.0), Breakpoint(2.0, 60.0)]
        cold["p_ivc"] = [Breakpoint(0.0, 2.9), Breakpoint(2.0, 1.0)]
        bad = Scenario(duration_s=10.0, controller="adaptive",
                       schedules=cold, reference=sc.reference, plant=sc.plant)
        records, summary = run_scenario(bad)
        assert summary.misfired
        assert 0 < len(records) < 40


def _ramped_egr_noisy_scenario(controller):
    # direct IVC ramps, an EGR ramp that keeps the plant's intake lag busy,
    # and measurement noise that moves every adaptive command
    sc = _ramped_ivc_scenario()
    schedules = {**sc.schedules, "egr": [Breakpoint(0.0, 0.1),
                                         Breakpoint(2.0, 0.4, ramp_s=1.5),
                                         Breakpoint(6.5, 0.2)]}
    return replace(sc, controller=controller, schedules=schedules,
                   plant={**sc.plant, "ca50_noise_halfwidth": 0.5})


class TestPerPointReuse:
    @pytest.mark.parametrize("make", [
        *[pytest.param(lambda n=n, c=c: builtin_case(n, controller=c), id=f"case{n}-{c}")
          for n in range(1, 7) for c in ("adaptive", "feedforward")],
        *[pytest.param(lambda c=c: _ramped_egr_noisy_scenario(c), id=f"ramped-egr-{c}")
          for c in ("adaptive", "feedforward")],
    ])
    def test_no_stale_value_reused(self, make):
        # every fired record equals what a from-scratch computation gives
        # for its own inputs, and every command equals the controller law
        # applied to the point the schedules give at its time
        sc = make()
        records, summary = run_scenario(sc)
        assert not summary.misfired
        geom, coeffs = default_geometry(), default_coefficients()
        cfg = PlantConfig(geom=geom, coeffs=coeffs, **sc.plant)
        op_at = _op_lookup(sc)
        prev_soi = FEEDFORWARD_SEED_SOI
        for rec in records:
            op = op_at(rec.time_s)
            if sc.controller == "adaptive":
                command = adaptive_soi(rec.ca50_ref, compute_states(op, coeffs),
                                       ControllerState(rec.alpha_hat, rec.beta_hat))
            else:
                command = feedforward_soi(rec.ca50_ref, op, coeffs, geom, prev_soi)
            assert rec.soi_commanded == min(max(command, geom.ivc_angle + SOI_CMD_MARGIN),
                                            SOI_CMD_MAX)
            prev_soi = rec.soi_commanded
            if rec.cycle_index >= harness.WARMUP_CYCLES:
                assert rec.soc == knock_integral_soc(rec.op, rec.soi_applied, cfg)
                assert rec.bd == burn_duration(rec.op.egr + rec.op.x_r, rec.op.phi_ng,
                                               rec.op.phi_di, coeffs)

    def test_adaptive_regressors_once_per_commanded_point(self, monkeypatch):
        calls = []
        compute_states = harness.compute_states

        def counting(op, coeffs):
            calls.append(op)
            return compute_states(op, coeffs)
        monkeypatch.setattr(harness, "compute_states", counting)
        for n in range(1, 7):
            calls.clear()
            sc = builtin_case(n)
            records, _ = run_scenario(sc)
            op_at = _op_lookup(sc)
            assert len(calls) <= len({op_at(r.time_s) for r in records}), n

    def test_feedforward_command_reused_while_inputs_hold(self, monkeypatch):
        calls = [0]
        feedforward_soi = harness.feedforward_soi

        def counting(*args):
            calls[0] += 1
            return feedforward_soi(*args)
        monkeypatch.setattr(harness, "feedforward_soi", counting)
        for n in range(1, 7):
            calls[0] = 0
            records, _ = run_scenario(builtin_case(n, controller="feedforward"))
            assert calls[0] < len(records), n


def _set_record_cell(lines, index, column, value):
    """Replace one cell of the records CSV line lines[index]."""
    cells = lines[index].split(",")
    cells[RECORD_COLUMNS.index(column)] = value
    lines[index] = ",".join(cells)


def _break_last_record_cell(lines, index):
    """Quote the last cell of lines[index] with a line break in it; float()
    strips the break, so the row stays good over two lines."""
    head, last = lines[index].rsplit(",", 1)
    lines[index] = f'{head},"{last}\n"'


class TestSummary:
    def test_csv_reduction_matches_in_process(self, tmp_path, case1_run):
        scenario, records, summary = case1_run
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        rows = read_records_csv(path)
        resummary = summarize_rows(
            [r["cycle"] for r in rows],
            [r["time_s"] for r in rows],
            [r["ca50_actual"] for r in rows],
            [r["ca50_ref"] for r in rows],
            scenario)
        assert resummary == summary

    @pytest.mark.parametrize("outside, settling", [
        pytest.param({}, 0, id="all-inside"),
        pytest.param({29: 9.0}, 30, id="last-cycle-outside"),
        pytest.param({2: np.nan}, 3, id="nan-outside"),
    ])
    def test_settling_cycles_from_columns(self, outside, settling):
        # one 30-cycle segment at 8 CAD: settled from the cycle after the last
        # one outside the band around the final value
        case = builtin_case(1)
        scenario = replace(case, reference=case.reference[:1])
        y = np.full(30, 8.0)
        for i, value in outside.items():
            y[i] = value
        cycle = harness.WARMUP_CYCLES + np.arange(30)
        (segment,) = summarize_rows(cycle, 0.1 * np.arange(30), y, np.full(30, 8.0),
                                    scenario).segments
        assert (segment.n_cycles, segment.settling_cycles) == (30, settling)

    def test_header_fixed_order(self, tmp_path, case1_run):
        _, records, _ = case1_run
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        header = path.read_text().splitlines()[0]
        assert header == ",".join(RECORD_COLUMNS)

    def test_integer_json_value_written_as_float(self, tmp_path):
        # JSON keeps 1200 an integer; the CSV column holds floats
        d = asdict(builtin_case(1))
        d["schedules"]["speed"] = [{"t": 0, "value": 1200}]
        (tmp_path / "sc.json").write_text(json.dumps(d))
        records, _ = run_scenario(load_scenario(tmp_path / "sc.json"))
        assert records[0].op.speed == 1200 and isinstance(records[0].op.speed, int)
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        with open(path, newline="") as fh:
            speeds = {row["speed"] for row in csv.DictReader(fh)}
        assert speeds == {"1200.0"}

    def test_records_bytes_match_csv_writer(self, tmp_path, case1_run):
        _, records, _ = case1_run
        op = OperatingPoint(speed=1e300, phi_ng=-0.0, phi_di=0.1 + 0.2, egr=-0.0,
                            x_r=1e-300, p_ivc=np.float64(0.1), t_ivc=390.0)
        edge = [CycleRecord(200, 0.1 + 0.2, op, np.float64(0.1), -0.0, 1e-300, 1e300,
                            -1e-300, np.float64(-0.0), 8.0),
                CycleRecord(201, np.float64(20.1), op, -15.0, -15.0, -14.0, 20.0, 1.0,
                            1.0, 8.0, np.float64(0.1), -0.0),
                CycleRecord(202, 20.2, op, -15.0, -15.0, -14.0, 20.0, 1.0, 1.0, 8.0,
                            None, 1e300)]
        rows = [*records[:8], *edge]
        write_records_csv(tmp_path / "new.csv", rows)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            # write_records_csv as it was written with csv.writer
            w = csv.writer(fh)
            w.writerow(RECORD_COLUMNS)
            w.writerows(
                (r.cycle_index, *map(float, (
                    r.time_s, r.op.speed, r.op.phi_di, r.op.phi_ng, r.op.egr,
                    r.op.p_ivc, r.op.t_ivc, r.ca50_ref, r.soi_commanded,
                    r.soi_applied, r.soc, r.bd, r.ca50_actual, r.ca50_measured)),
                 "" if r.alpha_hat is None else float(r.alpha_hat),
                 "" if r.beta_hat is None else float(r.beta_hat))
                for r in rows)
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        lines = written.split(b"\r\n")
        assert lines[-1] == b""
        assert lines[-4] == (b"200,0.30000000000000004,1e+300,0.30000000000000004,-0.0,-0.0,"
                             b"0.1,390.0,8.0,0.1,-0.0,1e-300,1e+300,-1e-300,-0.0,,")
        assert lines[-2].startswith(b"202,20.2,") and lines[-2].endswith(b",,1e+300")
        assert b"np.float64" not in written

    @pytest.fixture
    def records_lines(self, tmp_path, case1_run):
        path = tmp_path / "records.csv"
        write_records_csv(path, case1_run[1][:6])
        return path.read_text().splitlines()

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda lines: lines.clear(), ": empty file, no header", id="empty"),
        pytest.param(lambda lines: lines.__setitem__(0, lines[0].replace("soc,", "SOC,")),
                     ":1: expected the header cycle,", id="wrong-header"),
        pytest.param(lambda lines: lines.__delitem__(slice(1, None)),
                     ": a header but no rows", id="header-only"),
        pytest.param(lambda lines: lines.__setitem__(4, lines[4].rsplit(",", 1)[0]),
                     ":5: expected 17 values, got 16", id="short-row"),
        pytest.param(lambda lines: lines.__setitem__(3, lines[3].replace(",", ",abc,", 1)
                                                     .rsplit(",", 1)[0]),
                     ":4: could not convert string to float: 'abc'", id="non-numeric-cell"),
        pytest.param(lambda lines: lines.__setitem__(6, "x" + lines[6]),
                     ":7: invalid literal for int() with base 10", id="non-integer-cycle"),
        pytest.param(lambda lines: lines.__setitem__(2, lines[2].replace(",", ",,", 1)
                                                     .rsplit(",", 1)[0]),
                     ":3: could not convert string to float: ''", id="blank-time"),
        pytest.param(lambda lines: _set_record_cell(lines, 3, "phi_di", "nan"),
                     ":4: phi_di must be finite, got nan", id="nan-phi_di"),
        pytest.param(lambda lines: _set_record_cell(lines, 5, "soc", "inf"),
                     ":6: soc must be finite, got inf", id="inf-soc"),
        pytest.param(lambda lines: _set_record_cell(lines, 6, "beta_hat", "-inf"),
                     ":7: beta_hat must be finite, got -inf", id="inf-observer"),
        # row 3 takes lines 3 and 4, so the row after the next starts on line 6
        pytest.param(lambda lines: (_break_last_record_cell(lines, 2),
                                    _set_record_cell(lines, 4, "soc", "inf")),
                     ":6: soc must be finite, got inf", id="later-row-after-two-lines"),
        # the csv module rejects the oversized field, but only when it reaches it
        pytest.param(lambda lines: (_set_record_cell(lines, 3, "soc", "abc"),
                                    _set_record_cell(lines, 5, "time_s",
                                                     "1" * (csv.field_size_limit() + 1))),
                     ":4: could not convert string to float: 'abc'",
                     id="bad-value-before-oversized-field"),
    ])
    def test_malformed_records_named(self, tmp_path, records_lines, edit, expected):
        edit(records_lines)
        path = tmp_path / "records.csv"
        path.write_text("".join(line + "\n" for line in records_lines))
        with pytest.raises(ValueError) as exc:
            read_records_csv(path)
        message = str(exc.value)
        assert message.startswith(f"{path}{expected}") and "\n" not in message

    @pytest.mark.parametrize("controller", ["adaptive", "feedforward"])
    def test_observer_cells_read_back(self, tmp_path, controller):
        # the feedforward loop has no observer: its cells are blank, read as None
        records, _ = run_scenario(builtin_case(1, controller=controller))
        path = tmp_path / "records.csv"
        write_records_csv(path, records)
        assert [(r["alpha_hat"], r["beta_hat"]) for r in read_records_csv(path)] == [
            (r.alpha_hat, r.beta_hat) for r in records]

    def test_segments_split_at_events(self, case1_run):
        _, _, summary = case1_run
        assert len(summary.segments) == 2
        assert summary.segments[0].t_start == 0.0
        assert summary.segments[1].t_start == 5.0

    def test_settling_and_steady_error(self, case1_run):
        _, _, summary = case1_run
        for seg in summary.segments:
            assert seg.settling_cycles <= 5
            assert max(abs(seg.err_min), abs(seg.err_max)) <= 0.15


@pytest.fixture(scope="module")
def dataset(geom, coeffs):
    cfg = PlantConfig(geom=geom, coeffs=coeffs)
    samples, _ = generate_dataset(None, 200, cfg, seed=12)
    return samples


class TestSensitivity:
    def test_zero_row_equals_baseline_validation(self, dataset, geom, coeffs):
        rows = run_sensitivity(coeffs, dataset, geom)
        stats = validate(coeffs, dataset, geom)
        assert rows[0].quantity == "none"
        assert rows[0].ca50_err_std == stats.ca50_err_std
        assert rows[0].ca50_err_max == stats.ca50_err_max

    def test_sign_asymmetry(self, dataset, geom, coeffs):
        rows = run_sensitivity(coeffs, dataset, geom)
        by_key = {(r.quantity, r.delta): r for r in rows[1:]}
        plus = by_key[("p_ivc", 0.05)]
        minus = by_key[("p_ivc", -0.05)]
        assert plus.ca50_err_std != minus.ca50_err_std

    def test_all_perturbations_present(self, dataset, geom, coeffs):
        rows = run_sensitivity(coeffs, dataset, geom)
        assert len(rows) == 13
        quantities = {r.quantity for r in rows[1:]}
        assert quantities == {"p_ivc", "t_ivc", "egr", "phi_di", "phi_ng", "x_r"}

    def test_perturbation_inflation_is_bounded(self, dataset, geom, coeffs):
        # family-level robustness: sizable input errors inflate the worst
        # CA50 error by well under 1 CAD in absolute terms
        rows = run_sensitivity(coeffs, dataset, geom)
        base = rows[0].ca50_err_max
        worst = max(r.ca50_err_max for r in rows[1:])
        assert worst - base < 1.0

    # a negative EGR or residual fraction leaves the OperatingPoint domain,
    # so only the other perturbations have a dataset to validate
    @pytest.mark.parametrize("quantity, delta, mode", [
        p for p in DEFAULT_PERTURBATIONS if not (p[0] in ("egr", "x_r") and p[1] < 0.0)
    ])
    def test_row_equals_validation_of_perturbed_dataset(self, dataset, geom, coeffs,
                                                        quantity, delta, mode):
        def perturb(v):
            return v * (1.0 + delta) if mode == "rel" else v + delta
        perturbed = [s._replace(op=replace(s.op, **{quantity: perturb(getattr(s.op, quantity))}))
                     for s in dataset]
        stats = validate(coeffs, perturbed, geom)
        rows = run_sensitivity(coeffs, dataset, geom)
        row, = [r for r in rows if (r.quantity, r.delta) == (quantity, delta)]
        assert row.ca50_err_std == stats.ca50_err_std
        assert row.ca50_err_max == stats.ca50_err_max

    def test_sensitivity_bytes_match_csv_writer(self, tmp_path, dataset, geom, coeffs):
        rows = [*run_sensitivity(coeffs, dataset, geom),
                SensitivityRow("x_r", -0.0, "rel", 1e-300, 1e300),
                SensitivityRow("egr", 0.1 + 0.2, "abs", 0.0, float("inf"))]
        write_sensitivity_csv(tmp_path / "new.csv", rows)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            # write_sensitivity_csv as it was written with csv.writer
            w = csv.writer(fh)
            w.writerow(("quantity", "delta", "mode", "ca50_err_std", "ca50_err_max"))
            for r in rows:
                w.writerow([r.quantity, repr(r.delta), r.mode,
                            repr(r.ca50_err_std), repr(r.ca50_err_max)])
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        assert written.endswith(b"\r\nx_r,-0.0,rel,1e-300,1e+300\r\n"
                                b"egr,0.30000000000000004,abs,0.0,inf\r\n")

    @pytest.mark.parametrize("soi", [40.0, -150.0])
    def test_soi_outside_model_window_rejected(self, dataset, geom, coeffs, soi):
        bad = list(dataset)
        bad[7] = bad[7]._replace(soi=soi)
        with pytest.raises(DomainError, match="SOI must lie in"):
            run_sensitivity(coeffs, bad, geom)


class TestNoiseStudy:
    def test_zero_halfwidth_reduces_to_clean_run(self):
        result, records = run_noise_study(0.0, seed=4)
        assert all(r.ca50_measured == r.ca50_actual for r in records)
        sc = builtin_case(1, seed=4)
        clean = Scenario(duration_s=10.0, controller="adaptive",
                         schedules=sc.schedules, reference=sc.reference[:1],
                         plant={**sc.plant, "rng_seed": 4})
        reference_records, _ = run_scenario(clean)
        assert records == reference_records

    def test_seed_reproducible(self):
        a = run_noise_study(0.5, seed=6)
        b = run_noise_study(0.5, seed=6)
        assert a[0] == b[0] and a[1] == b[1]

    def test_noise_perturbs_loop(self):
        clean, _ = run_noise_study(0.0, seed=4)
        noisy, records = run_noise_study(0.5, seed=4)
        assert noisy.err_std > clean.err_std
        assert any(r.ca50_measured != r.ca50_actual for r in records[2:])


class TestCli:
    def test_end_to_end_workflow(self, tmp_path, capsys):
        out = tmp_path / "work"
        assert cli.main(["gen-data", "--samples", "64", "--seed", "3",
                         "--out", str(out)]) == 0
        dataset = out / "dataset.csv"
        assert dataset.exists()

        assert cli.main(["calibrate", "--data", str(dataset), "--out", str(out)]) == 0
        coeffs_file = out / "coefficients.json"
        assert coeffs_file.exists()
        assert (out / "calibration_report.csv").exists()

        assert cli.main(["validate", "--data", str(dataset), "--coeffs",
                         str(coeffs_file)]) == 0
        assert "CA50 error std" in capsys.readouterr().out

        assert cli.main(["simulate", "--case", "1", "--coeffs", str(coeffs_file),
                         "--out", str(out)]) == 0
        assert (out / "case1_adaptive_records.csv").exists()

        assert cli.main(["sensitivity", "--data", str(dataset), "--coeffs",
                         str(coeffs_file), "--out", str(out)]) == 0
        assert (out / "sensitivity.csv").exists()

        assert cli.main(["noise-study", "--halfwidth", "0.5", "--coeffs",
                         str(coeffs_file), "--out", str(out)]) == 0
        assert (out / "noise_records.csv").exists()

    def test_readme_examples_run(self, tmp_path, monkeypatch):
        # every command of README's CLI block, with its scenario JSON block
        # saved as the my_scenario.json that the block refers to
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        commands = readme.split("## CLI\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
        scenario = readme.split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "my_scenario.json").write_text(scenario)
        monkeypatch.chdir(tmp_path)
        lines = [line for line in commands.splitlines() if line.startswith("dualfuel ")]
        assert len(lines) == 7
        for line in lines:
            assert cli.main(shlex.split(line)[1:]) == 0, line
        assert (tmp_path / "work" / "my_scenario_summary.txt").exists()

    def test_readme_options_table_is_the_parser(self):
        # each command's row names, in backticks, the options its parser takes
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        table = readme.split("| command | options |\n|---|---|\n", 1)[1].split("\n\n", 1)[0]
        rows = {row.split("`")[1]: set(re.findall(r"`(--[a-z-]+)`", row))
                for row in table.splitlines()}
        commands = next(a for a in cli._parser()._actions if a.dest == "command").choices
        assert rows == {name: {o for a in p._actions for o in a.option_strings} - {"-h", "--help"}
                        for name, p in commands.items()}

    def test_simulate_seed_changes_no_output(self, tmp_path):
        # the built-in cases are noise-free, and a scenario file's run draws
        # its noise from the file's rng_seed
        path = tmp_path / "noisy.json"
        path.write_text(json.dumps(asdict(replace(builtin_case(4), plant={
            "ca50_noise_halfwidth": 0.5, "rng_seed": 3}))))
        for seed in ("0", "7"):
            out = tmp_path / seed
            assert cli.main(["simulate", "--case", "1", "2", "3", "4", "5", "6",
                             "--controller", "adaptive", "feedforward", "--seed", seed,
                             "--out", str(out)]) == 0
            assert cli.main(["simulate", str(path), "--seed", seed, "--out", str(out)]) == 0
        names = sorted(p.name for p in (tmp_path / "0").iterdir())
        assert len(names) == 26 and sorted(p.name for p in (tmp_path / "7").iterdir()) == names
        for name in names:
            assert (tmp_path / "7" / name).read_bytes() == (tmp_path / "0" / name).read_bytes()
        records = read_records_csv(tmp_path / "0" / "noisy_records.csv")
        assert any(r["ca50_meas"] != r["ca50_actual"] for r in records)

    def test_simulate_accepts_scenario_file(self, tmp_path):
        sc = builtin_case(2, controller="feedforward")
        path = tmp_path / "my_case.json"
        path.write_text(json.dumps(asdict(sc)))
        assert cli.main(["simulate", str(path), "--out", str(tmp_path)]) == 0
        assert (tmp_path / "my_case_records.csv").exists()
        assert (tmp_path / "my_case_summary.txt").exists()

    def test_one_call_runs_every_case_and_controller(self, tmp_path, capsys):
        # the same files and the same stdout as the 12 single calls, in order
        single, joined = tmp_path / "single", tmp_path / "joined"
        stdout = []
        for n in range(1, 7):
            for c in scenarios.CONTROLLERS:
                assert cli.main(["simulate", "--case", str(n), "--controller", c,
                                 "--out", str(single)]) == 0
                stdout.append(capsys.readouterr().out.replace(str(single), str(joined)))
        assert cli.main(["simulate", "--case", "1", "2", "3", "4", "5", "6",
                         "--controller", "adaptive", "feedforward",
                         "--out", str(joined)]) == 0
        assert capsys.readouterr().out == "".join(stdout)
        names = sorted(p.name for p in single.iterdir())
        assert len(names) == 24 and sorted(p.name for p in joined.iterdir()) == names
        for name in names:
            assert (joined / name).read_bytes() == (single / name).read_bytes(), name

    def test_case_runs_default_to_adaptive(self, tmp_path):
        assert cli.main(["simulate", "--case", "2", "1", "--out", str(tmp_path)]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            f"case{n}_adaptive_{kind}" for n in (1, 2)
            for kind in ("records.csv", "summary.txt")]

    def test_largest_noise_halfwidth_runs(self, tmp_path):
        assert cli.main(["noise-study", "--halfwidth", "8.9e307",
                         "--out", str(tmp_path)]) == 0
        assert (tmp_path / "noise_records.csv").exists()

    def test_simulate_reports_misfire(self, tmp_path, capsys):
        path = _scenario_json(tmp_path, _cold_charge)
        assert cli.main(["simulate", path, "--out", str(tmp_path)]) == 0
        # stdout is the summary file's text, then the line naming the records
        summary = (tmp_path / "bad_summary.txt").read_text()
        records = tmp_path / "bad_records.csv"
        n_cycles = len(records.read_text().splitlines()) - 1
        assert capsys.readouterr().out == summary + f"wrote {n_cycles} cycles to {records}\n"
        assert summary.splitlines()[0] == "MISFIRE: run aborted, partial stream below"

    def test_misfire_does_not_stop_later_runs(self, tmp_path, monkeypatch, capsys):
        # case 1 is the cold charge: it writes its MISFIRE summary and partial
        # records, and case 2 runs after it as in its own call
        real = scenarios.builtin_case
        single, out = tmp_path / "single", tmp_path / "out"
        assert cli.main(["simulate", "--case", "2", "--out", str(single)]) == 0
        capsys.readouterr()

        def case(n, controller, seed):
            d = asdict(real(n, controller=controller, seed=seed))
            if n == 1:
                _cold_charge(d)
            return scenarios.scenario_from_dict(d)
        monkeypatch.setattr(scenarios, "builtin_case", case)
        assert cli.main(["simulate", "--case", "1", "2", "--out", str(out)]) == 0
        summary = (out / "case1_adaptive_summary.txt").read_text()
        assert summary.splitlines()[0] == "MISFIRE: run aborted, partial stream below"
        assert summary in capsys.readouterr().out
        for name in ("case2_adaptive_records.csv", "case2_adaptive_summary.txt"):
            assert (out / name).read_bytes() == (single / name).read_bytes(), name

    def test_parser_built_once(self):
        assert cli._parser() is cli._parser()

    def test_options_do_not_leak_between_calls(self, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "cmd_calibrate", lambda args: seen.append(args) or 0)
        assert cli.main(["calibrate", "--data", "d.csv", "--seed", "3"]) == 0
        assert cli.main(["calibrate", "--data", "d.csv"]) == 0
        assert [a.seed for a in seen] == [3, 0]
        assert seen[0] is not seen[1]

    def test_replaced_command_is_the_one_run(self, monkeypatch, capsys):
        # perfbench and the tests replace cmd_<name> after the parser exists
        cli._parser()
        monkeypatch.setattr(cli, "cmd_validate", lambda args: print("patched") or 7)
        assert cli.main(["validate", "--data", "d.csv"]) == 7
        assert capsys.readouterr().out == "patched\n"

    def test_simulate_requires_scenario(self, capsys):
        # argparse's usage error, like every other missing argument
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate"])
        assert exc.value.code == 2
        assert "one of the arguments scenario --case is required" in capsys.readouterr().err

    def test_calibrate_reports_stop_reason(self, tmp_path, capsys):
        data = _dataset_csv(tmp_path)
        assert cli.main(["calibrate", "--data", data, "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "calibration_summary.txt").read_text()
        assert summary in capsys.readouterr().out
        assert "stop reason         tol" in summary.splitlines()

    def test_calibrate_prints_rmse_as_summary_does(self, tmp_path, capsys):
        # fits reach about 1e-3 CAD, so four decimals would hide the figure
        data = _dataset_csv(tmp_path)
        assert cli.main(["calibrate", "--data", data, "--out", str(tmp_path)]) == 0
        summary = (tmp_path / "calibration_summary.txt").read_text()
        assert summary in capsys.readouterr().out
        rmse = summary.split("final CA50 RMSE     ")[1].split()[0]
        assert float(rmse) < 0.01 and rmse != f"{float(rmse):.4f}"


def _dataset_csv(tmp_path, n_samples=16):
    cfg = PlantConfig(geom=default_geometry(), coeffs=default_coefficients())
    samples, _ = generate_dataset(None, n_samples, cfg, seed=1)
    path = tmp_path / "dataset.csv"
    write_dataset(path, samples)
    return str(path)


def _set_cell(column, value):
    def edit(row):
        row[DATASET_COLUMNS.index(column)] = value
    return edit


def _edited_dataset_csv(tmp_path, line, edit):
    """The _dataset_csv file with edit applied to the row on a physical line."""
    path = _dataset_csv(tmp_path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    edit(rows[line - 1])
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def _cold_charge(d):
    # the cold charge of test_misfire_aborts_with_partial_stream
    d["schedules"]["t_ivc"] = [{"t": 0.0, "value": 390.0}, {"t": 2.0, "value": 60.0}]
    d["schedules"]["p_ivc"] = [{"t": 0.0, "value": 2.9}, {"t": 2.0, "value": 1.0}]


def _scenario_json(tmp_path, edit):
    d = asdict(builtin_case(1))
    edit(d)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(d))
    return str(path)


class TestCliRejectsBadInput:
    """Malformed or non-physical input: exit code 2, one line on stderr, no
    traceback and no output file."""

    def _rejects(self, argv, tmp_path, capsys, expected):
        out = tmp_path / "out"
        if argv[0] != "validate":   # the one command that writes no file
            argv = [*argv, "--out", str(out)]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and expected in err
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_negative_seed(self, tmp_path, capsys):
        self._rejects(["gen-data", "--seed", "-1"], tmp_path, capsys,
                      "dualfuel gen-data: error: rng_seed must be a non-negative integer, got -1")

    def test_nan_duration(self, tmp_path, capsys):
        path = _scenario_json(tmp_path, lambda d: d.update(duration_s=float("nan")))
        self._rejects(["simulate", path], tmp_path, capsys, "duration_s")

    def test_manifold_schedule_rejected(self, tmp_path, capsys):
        # README's scenario with manifold conditions in place of p_ivc and
        # t_ivc: schedules name OperatingPoint's fields, so p_man is unknown
        d = {"duration_s": 10.0, "controller": "adaptive",
             "plant": {"soi_resolution": 0.1, "ca50_noise_halfwidth": 0.0, "rng_seed": 0},
             "schedules": {"speed": [{"t": 0.0, "value": 1200.0, "ramp_s": 0.0}],
                           "p_man": [{"t": 0.0, "value": 2.0, "ramp_s": 0.0}],
                           "t_man": [{"t": 0.0, "value": 300.0, "ramp_s": 0.0}],
                           "phi_di": [{"t": 0.0, "value": 0.4, "ramp_s": 0.0}],
                           "phi_ng": [{"t": 0.0, "value": 0.4, "ramp_s": 0.0}],
                           "egr": [{"t": 0.0, "value": 0.0, "ramp_s": 0.0},
                                   {"t": 5.0, "value": 0.5, "ramp_s": 0.5}]},
             "reference": [{"t": 0.0, "value": 8.0, "ramp_s": 0.0}]}
        path = tmp_path / "manifold.json"
        path.write_text(json.dumps(d))
        self._rejects(["simulate", str(path)], tmp_path, capsys,
                      "unknown schedule key 'p_man'")

    def test_unknown_plant_key(self, tmp_path, capsys):
        path = _scenario_json(tmp_path, lambda d: d["plant"].update(boost=1.0))
        self._rejects(["simulate", path], tmp_path, capsys, "'boost'")

    def test_nan_speed(self, tmp_path, capsys):
        def edit(d):
            d["schedules"]["speed"][0]["value"] = float("nan")
        path = _scenario_json(tmp_path, edit)
        self._rejects(["simulate", path], tmp_path, capsys, "value must be finite")

    @pytest.mark.parametrize("key, value, expected", [
        ("rng_seed", 1.5, "rng_seed must be a non-negative integer"),
        ("rng_seed", 1e30, "rng_seed must be a non-negative integer"),
        ("plant_poly_exp", float("nan"), "plant_poly_exp must be finite"),
        ("plant_poly_exp", -2.0, "plant_poly_exp must exceed 1"),
        ("soi_resolution", float("inf"), "soi_resolution must be finite"),
        ("egr_lag_cycles", float("inf"), "egr_lag_cycles must be finite"),
        ("egr_lag_cycles", float("nan"), "egr_lag_cycles must be finite"),
        # a step that does not move the angle made the march loop forever
        ("quad_step", 1e-300, "quad_step must lie in [0.01, 0.5] CAD, got 1e-300"),
        # a subnormal grid overflowed the quantizer's index: a traceback
        ("soi_resolution", 1e-310, "soi_resolution must be positive with a finite number "
                                   "of steps per cycle, 720 / soi_resolution, got 1e-310"),
    ])
    def test_bad_plant_override(self, tmp_path, capsys, key, value, expected):
        path = _scenario_json(tmp_path, lambda d: d["plant"].update({key: value}))
        self._rejects(["simulate", path], tmp_path, capsys, expected)

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda d: d.update(duration_s=0.0), "no fired cycle (cycles run: 0,",
                     id="zero-duration"),
        pytest.param(lambda d: d.update(duration_s=0.05), "no fired cycle (cycles run: 1,",
                     id="one-motored-cycle"),
        pytest.param(lambda d: d["schedules"]["speed"][0].update(value=1e-3),
                     "no fired cycle (cycles run: 1,", id="crawling-speed"),
    ])
    def test_simulate_without_fired_cycle(self, tmp_path, capsys, edit, expected):
        path = _scenario_json(tmp_path, edit)
        self._rejects(["simulate", path], tmp_path, capsys, expected)

    def test_breakpoint_inside_ramp(self, tmp_path, capsys):
        def edit(d):
            d["schedules"]["speed"] = [{"t": 0.0, "value": 1200.0, "ramp_s": 0.0},
                                       {"t": 5.0, "value": 1400.0, "ramp_s": 2.0},
                                       {"t": 6.0, "value": 1500.0, "ramp_s": 0.0}]
        path = _scenario_json(tmp_path, edit)
        self._rejects(["simulate", path], tmp_path, capsys,
                      "'speed' breakpoint at t=6.0 falls inside the ramp")

    def test_missing_top_level_key(self, tmp_path, capsys):
        path = _scenario_json(tmp_path, lambda d: d.pop("duration_s"))
        self._rejects(["simulate", path], tmp_path, capsys, "'duration_s'")

    def test_unknown_top_level_key(self, tmp_path, capsys):
        # a misspelt block must not leave the run on the default plant
        path = _scenario_json(tmp_path,
                              lambda d: d.update(plnt={"ca50_noise_halfwidth": 0.0}))
        self._rejects(["simulate", path], tmp_path, capsys, "unknown scenario key 'plnt'")

    def test_unknown_breakpoint_key(self, tmp_path, capsys):
        def edit(d):
            d["reference"][0]["slope"] = 1.0
        path = _scenario_json(tmp_path, edit)
        self._rejects(["simulate", path], tmp_path, capsys, "'slope'")

    def test_missing_input_file(self, tmp_path, capsys):
        missing = str(tmp_path / "nowhere.json")
        self._rejects(["simulate", missing], tmp_path, capsys, "nowhere.json")

    def test_negative_noise_halfwidth(self, tmp_path, capsys):
        self._rejects(["noise-study", "--halfwidth", "-1"], tmp_path, capsys,
                      "ca50_noise_halfwidth")

    def test_noise_halfwidth_span_overflows(self, tmp_path, capsys):
        # 2 * 9e307 is not finite: numpy's uniform draw would overflow
        self._rejects(["noise-study", "--halfwidth", "9e307"], tmp_path, capsys,
                      "ca50_noise_halfwidth must be non-negative with a finite span")

    def test_scenario_noise_halfwidth_span_overflows(self, tmp_path, capsys):
        path = _scenario_json(tmp_path,
                              lambda d: d["plant"].update(ca50_noise_halfwidth=9e307))
        self._rejects(["simulate", path], tmp_path, capsys,
                      "ca50_noise_halfwidth must be non-negative with a finite span")

    @pytest.mark.parametrize("document, expected", [
        pytest.param(lambda d: {k: v for k, v in d.items() if k != "c5"},
                     "missing coefficient 'c5'", id="missing-c5"),
        pytest.param(lambda d: [d], "coefficients must be an object, got list", id="list"),
        pytest.param(lambda d: {**d, "c5": float("nan")}, "'c5' must be finite",
                     id="nan-c5"),
        pytest.param(lambda d: {**d, "c2": float("nan")}, "'c2' must be finite",
                     id="nan-c2"),
        pytest.param(lambda d: {**d, "c1": float("inf")}, "'c1' must be finite",
                     id="inf-c1"),
        pytest.param(lambda d: {**d, "c5": 10**400}, "coefficient 'c5' must be finite, "
                     "got an integer too large for a float", id="huge-integer-c5"),
        pytest.param(lambda d: {**d, "c1": -1.0}, "c1*egr + c2 must be positive",
                     id="negative-delay-scale"),
        pytest.param(lambda d: {**d, "c2": 0.0}, "c1*egr + c2 must be positive",
                     id="zero-c2"),
        pytest.param(lambda d: {**d, "wiebe_A": 5}, "unknown coefficient 'wiebe_A'",
                     id="unknown-wiebe_A"),
        pytest.param(lambda d: {**d, "c12": 1}, "unknown coefficient 'c12'",
                     id="unknown-c12"),
        # c7 as save_coefficients writes it; the half-burn fraction underflows
        pytest.param(lambda d: {**d, "wiebe_b": 1e-05}, "half-burn fraction 0.0",
                     id="underflowing-wiebe_b"),
        # the float power phi_di ** c4 overflows on the scalar path
        pytest.param(lambda d: {**d, "c4": -1e10}, "phi^c overflows", id="overflowing-c4"),
        pytest.param(lambda d: {**d, "c7": 2.0 * d["c7"]},
                     f"coefficient 'c7' = {2.0 * default_coefficients().c7} contradicts "
                     f"c11 / half_burn_fraction = {default_coefficients().c7}",
                     id="inconsistent-c7"),
    ])
    def test_bad_coefficients_file(self, tmp_path, capsys, document, expected):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(document(default_coefficients().to_dict())))
        self._rejects(["simulate", "--case", "1", "--coeffs", str(path)], tmp_path,
                      capsys, expected)

    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda d: d.update(schedules=[]), "'schedules' must be an object",
                     id="schedules-list"),
        pytest.param(lambda d: d.update(plant=[1]), "'plant' must be an object",
                     id="plant-list"),
        pytest.param(lambda d: d["schedules"].update(speed=[[0.0, 1200.0]]),
                     "breakpoint of 'speed' must be an object", id="breakpoint-list"),
        pytest.param(lambda d: d.update(reference={"t": 0}),
                     "'reference' must be a list", id="reference-object"),
    ])
    def test_wrong_json_type(self, tmp_path, capsys, edit, expected):
        path = _scenario_json(tmp_path, edit)
        self._rejects(["simulate", path], tmp_path, capsys, expected)

    def test_removed_learn_rate(self, tmp_path, capsys):
        # argparse rejects the option that the damped Gauss-Newton fit dropped
        data = _dataset_csv(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(["calibrate", "--data", data, "--learn-rate", "0.05",
                      "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --learn-rate" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_removed_filter_cycles(self, tmp_path, capsys):
        # argparse rejects the measurement filter that the observer dropped
        with pytest.raises(SystemExit) as exc:
            cli.main(["noise-study", "--filter-cycles", "3", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "unrecognized arguments: --filter-cycles 3" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        pytest.param(["gen-data", "--coeffs", "{coeffs}"], id="gen-data-coeffs"),
        *(pytest.param(["calibrate", "--data", "{data}", option, value],
                       id=f"calibrate{option}")
          for option, value in (("--coeffs", "{coeffs}"), ("--max-iters", "30"),
                                ("--tol", "0.001"), ("--holdout-frac", "0.5"))),
    ])
    def test_removed_cli_options(self, tmp_path, capsys, argv):
        # gen-data runs the shipped plant, and calibrate starts from the
        # shipped coefficients with calib's stopping rule and holdout
        coeffs = tmp_path / "c.json"
        save_coefficients(coeffs, default_coefficients())
        argv = [arg.format(data=_dataset_csv(tmp_path), coeffs=coeffs) for arg in argv]
        with pytest.raises(SystemExit) as exc:
            cli.main([*argv, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"unrecognized arguments: {argv[-2]} {argv[-1]}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, expected", [
        pytest.param(["--case", "1", "1"], "--case 1 is given more than once", id="case"),
        pytest.param(["--case", "2", "1", "--controller", "adaptive", "feedforward",
                      "adaptive"], "--controller adaptive is given more than once",
                     id="controller"),
    ])
    def test_repeated_simulate_value(self, tmp_path, capsys, argv, expected):
        # a repeated value reran the same run and rewrote its files
        self._rejects(["simulate", *argv], tmp_path, capsys,
                      f"dualfuel simulate: error: {expected}\n")

    @pytest.mark.parametrize("command, option", [
        ("validate", "--seed"), ("validate", "--out"), ("sensitivity", "--seed"),
    ])
    def test_option_without_effect_rejected(self, tmp_path, capsys, command, option):
        # neither command draws random numbers, and validate writes no file
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--data", str(tmp_path / "dataset.csv"), option, "1"])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {option} 1" in capsys.readouterr().err

    def test_simulate_rejects_file_and_case(self, tmp_path, capsys):
        # one scenario source only; the file here does not even exist
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", str(tmp_path / "missing.json"), "--case", "1",
                      "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --case: not allowed with argument scenario" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_run_without_fired_cycle_named(self, tmp_path, monkeypatch, capsys):
        # case 2 lasts no time; case 1's files stay, and case 2 writes none
        real = scenarios.builtin_case
        monkeypatch.setattr(scenarios, "builtin_case", lambda n, controller, seed: replace(
            real(n, controller=controller, seed=seed), duration_s=10.0 * (n == 1)))
        out = tmp_path / "out"
        assert cli.main(["simulate", "--case", "1", "2", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "dualfuel simulate: error: case2_adaptive: no fired cycle (cycles run: 0,")
        assert sorted(p.name for p in out.iterdir()) == [
            "case1_adaptive_records.csv", "case1_adaptive_summary.txt"]

    def test_simulate_rejects_out_of_range_case(self, tmp_path, capsys):
        # argparse checks every case before any run
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--case", "1", "7", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert "argument --case: invalid choice: 7" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_simulate_rejects_file_after_case(self, tmp_path, capsys):
        # --case takes one or more values, so a file after them is one of them
        with pytest.raises(SystemExit) as exc:
            cli.main(["simulate", "--case", "1", "my_scenario.json",
                      "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "dualfuel simulate: error: argument --case: 'my_scenario.json' is not a case "
            "number; a scenario file cannot go with --case")
        assert not (tmp_path / "out").exists()

    def test_controller_with_scenario_file_rejected(self, tmp_path, capsys):
        # the file names its controller; --controller would be silently ignored
        path = _scenario_json(tmp_path, lambda d: d.update(controller="adaptive"))
        self._rejects(["simulate", path, "--controller", "feedforward"], tmp_path, capsys,
                      "dualfuel simulate: error: --controller is for --case runs; a "
                      "scenario file names its controller\n")

    def test_failing_run_keeps_earlier_runs(self, tmp_path, capsys):
        # with these coefficients the adaptive run ends and the feedforward
        # run fails: its error names it, and only its files are missing
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**default_coefficients().to_dict(),
                                    "c3": 1e300, "c4": 1e300}))
        single, out = tmp_path / "single", tmp_path / "out"
        assert cli.main(["simulate", "--case", "1", "--controller", "adaptive",
                         "--coeffs", str(path), "--out", str(single)]) == 0
        capsys.readouterr()
        assert cli.main(["simulate", "--case", "1", "--controller", "adaptive",
                         "feedforward", "--coeffs", str(path), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "dualfuel simulate: error: case1_feedforward: cycle 0: the ignition-delay "
            "scale (c1*egr + c2) * N * (phi_ng^c3 + phi_di^c4) is 0.0, not finite and "
            "positive\n")
        names = sorted(p.name for p in single.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (single / name).read_bytes(), name

    @pytest.mark.parametrize("command, edit, expected", [
        pytest.param("validate", {"wiebe_b": 1e-05}, "half-burn fraction 0.0",
                     id="validate-underflowing-wiebe_b"),
        pytest.param("validate", {"c6": 1e300}, "sample 0: the SOC error is not finite",
                     id="validate-overflowing-c6"),
        pytest.param("sensitivity", {"c6": 1e300},
                     "sample 0: the CA50 error with none +0 (abs) is not finite",
                     id="sensitivity-overflowing-c6"),
        # every error is finite, near 1e300, but the standard deviation is not
        pytest.param("validate", {"c1": 1e300},
                     "the standard deviation of the SOC error is not finite (inf)",
                     id="validate-overflowing-std"),
        pytest.param("sensitivity", {"c1": 1e300},
                     "the standard deviation of the CA50 error with none +0 (abs) is "
                     "not finite (inf)", id="sensitivity-overflowing-std"),
        # P_SOI is inf, and inf^c6 = 0 would make the Arrhenius factor 1
        *(pytest.param(command, {"k_c": 1e10}, "the polytropic state at SOI is not "
                       "finite for k_c = 10000000000.0", id=f"{command}-overflowing-k_c")
          for command in ("validate", "sensitivity")),
    ])
    def test_coefficients_without_finite_predictions(self, tmp_path, capsys, command,
                                                     edit, expected):
        # numpy gives inf and nan where a float power raises; no warning may
        # come before the one error line
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**default_coefficients().to_dict(), **edit}))
        data = _dataset_csv(tmp_path)
        self._rejects([command, "--data", data, "--coeffs", str(path)], tmp_path, capsys,
                      expected)

    @pytest.mark.parametrize("edit, expected", [
        pytest.param({"c6": 1e300}, "cycle 0: the feedforward inversion is not finite "
                     "(overflow encountered in scalar power)", id="c6"),
        pytest.param({"c5": 1e300}, "cycle 0: the feedforward inversion is not finite "
                     "(overflow encountered in exp)", id="c5"),
        pytest.param({"c1": 1e300}, "the feedforward inversion is not finite", id="c1"),
        # the polytropic state is inf, and inf^c6 = 0 for the negative c6
        pytest.param({"k_c": 1e300}, "the feedforward inversion is not finite", id="k_c"),
        # the delay scale overflows in Python floats, which set no flag
        pytest.param({"c1": 1.7e308}, "cycle 0: the ignition-delay scale (c1*egr + c2) * "
                     "N * (phi_ng^c3 + phi_di^c4) is inf, not finite and positive",
                     id="c1-float"),
    ])
    def test_feedforward_inversion_not_finite(self, tmp_path, capsys, edit, expected):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**default_coefficients().to_dict(), **edit}))
        self._rejects(["simulate", "--case", "1", "--controller", "feedforward",
                       "--coeffs", str(path)], tmp_path, capsys, expected)

    @pytest.mark.parametrize("command", [
        ["simulate", "--case", "1", "--controller", "adaptive"], ["noise-study"]])
    @pytest.mark.parametrize("edit", [
        pytest.param({"c3": -400.0}, id="c3-400"),    # x1 ** 2 overflows in Python floats
        # speed * phi_ng^c3 is inf: the gain would be 0 and the command nan
        pytest.param({"c3": -770.0}, id="c3-770"),
        pytest.param({"c10": -770.0}, id="c10-770"),  # x2 ** 2 overflows
    ])
    def test_adaptive_gain_not_formed(self, tmp_path, capsys, command, edit):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**default_coefficients().to_dict(), **edit}))
        self._rejects([*command, "--coeffs", str(path)], tmp_path, capsys,
                      "cycle 0: the observer gain 1/(x1^2 + x2^2) cannot be formed")

    @pytest.mark.parametrize("controller", scenarios.CONTROLLERS)
    @pytest.mark.parametrize("exponent", ["c3", "c9"])
    def test_no_natural_gas_under_negative_exponent(self, tmp_path, capsys, controller,
                                                    exponent):
        # a diesel-only point is valid, but 0.0 ** -0.5 has no value
        def edit(d):
            d["controller"] = controller
            d["schedules"]["phi_ng"] = [{"t": 0.0, "value": 0.0}]
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**default_coefficients().to_dict(), exponent: -0.5}))
        self._rejects(["simulate", _scenario_json(tmp_path, edit), "--coeffs", str(path)],
                      tmp_path, capsys,
                      "cycle 0: an absent fuel (phi = 0) has no value under a negative "
                      "exponent: phi_ng^-0.5 + phi_di^")

    @pytest.mark.parametrize("argv, where", [
        (["validate", "--data", "{data}"], "sample 0"),
        (["sensitivity", "--data", "{data}"], "sample 0"),
        (["simulate", "--case", "1", "--controller", "feedforward"],
         "case1_feedforward: cycle 0"),
    ], ids=["validate", "sensitivity", "simulate-feedforward"])
    def test_model_delay_scale_underflows(self, tmp_path, capsys, argv, where):
        # the model shares the plant's delay-scale rule: phi^1e300 is 0 for
        # both fuels, and the delay would be 0 for every point
        path = tmp_path / "c.json"
        path.write_text(json.dumps({**default_coefficients().to_dict(),
                                    "c3": 1e300, "c4": 1e300}))
        data = _dataset_csv(tmp_path)
        argv = [arg.format(data=data) for arg in argv]
        self._rejects([*argv, "--coeffs", str(path)], tmp_path, capsys,
                      f"dualfuel {argv[0]}: error: {where}: the ignition-delay scale "
                      "(c1*egr + c2) * N * (phi_ng^c3 + phi_di^c4) is 0.0, not finite and "
                      "positive\n")

    def test_gen_data_sample_count_above_cap(self, tmp_path, capsys, monkeypatch):
        # rejected before the hypercube is drawn, so nothing is allocated
        def draw(*args):
            raise AssertionError("the hypercube was drawn")
        monkeypatch.setattr(calib, "_latin_hypercube", draw)
        self._rejects(["gen-data", "--samples", str(calib.MAX_SAMPLES + 1)], tmp_path,
                      capsys, f"dualfuel gen-data: error: n_samples is "
                      f"{calib.MAX_SAMPLES + 1}, more than {calib.MAX_SAMPLES}\n")

    def test_empty_dataset(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        self._rejects(["validate", "--data", str(data)], tmp_path, capsys,
                      "empty file")

    @pytest.mark.parametrize("command", ["calibrate", "validate", "sensitivity"])
    @pytest.mark.parametrize("edit, expected", [
        pytest.param(lambda row: row.pop(), "dataset.csv:4: expected 10 values, got 9",
                     id="short-row"),
        pytest.param(lambda row: row.clear(), "dataset.csv:4: expected 10 values, got 0",
                     id="blank-line"),
        pytest.param(lambda row: row.append("1.0"),
                     "dataset.csv:4: expected 10 values, got 11", id="long-row"),
        pytest.param(_set_cell("egr", "abc"), "dataset.csv:4: could not convert",
                     id="not-a-number"),
        pytest.param(_set_cell("speed", "inf"), "dataset.csv:4: speed must be finite",
                     id="inf-speed"),
        pytest.param(_set_cell("soi", "nan"), "dataset.csv:4: soi must be finite",
                     id="nan-soi"),
        pytest.param(_set_cell("ca50_ref", "nan"), "dataset.csv:4: ca50_ref must be finite",
                     id="nan-ca50-ref"),
        pytest.param(_set_cell("soi", "40.0"), "dataset.csv:4: SOI must lie in",
                     id="soi-late"),
        pytest.param(_set_cell("soi", "-150.0"), "dataset.csv:4: SOI must lie in",
                     id="soi-early"),
        pytest.param(_set_cell("egr", "1.5"), "dataset.csv:4: EGR fraction",
                     id="egr-above-one"),
        pytest.param(_set_cell("soc_ref", "-100.0"),
                     "dataset.csv:4: combustion cannot precede injection", id="soc-before-soi"),
        pytest.param(_set_cell("ca50_ref", "-100.0"),
                     "dataset.csv:4: CA50 cannot precede start of combustion",
                     id="ca50-before-soc"),
        pytest.param(_set_cell("ca50_ref", "1e6"),
                     "dataset.csv:4: CA50 cannot follow the end of the expansion stroke "
                     "(180 deg aTDC), got 1e+06", id="ca50-past-expansion"),
    ])
    def test_malformed_dataset_row(self, tmp_path, capsys, command, edit, expected):
        data = _edited_dataset_csv(tmp_path, 4, edit)
        self._rejects([command, "--data", data], tmp_path, capsys, expected)

    def test_dataset_cell_past_csv_field_limit(self, tmp_path, capsys):
        data = _edited_dataset_csv(tmp_path, 4, _set_cell("speed", "1" * 200_000))
        self._rejects(["validate", "--data", data], tmp_path, capsys,
                      "dataset.csv:4: field larger than field limit")

    @pytest.mark.parametrize("content, expected", [
        pytest.param(b"[" * 100_000, "JSON nested too deeply", id="deeply-nested"),
        pytest.param(b'{"c1": ', "Expecting value", id="truncated"),
        pytest.param(b"\xff{}", "'utf-8' codec can't decode byte 0xff", id="undecodable"),
    ])
    @pytest.mark.parametrize("argv", [
        pytest.param(lambda data, bad: ["validate", "--data", data, "--coeffs", bad],
                     id="coeffs"),
        pytest.param(lambda data, bad: ["simulate", bad], id="scenario"),
    ])
    def test_unreadable_json(self, tmp_path, capsys, argv, content, expected):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        self._rejects(argv(_dataset_csv(tmp_path), str(bad)), tmp_path, capsys,
                      f"bad.json: {expected}")

    def test_holdout_failure_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # a holdout sample the model rejects, past the reader's checks
        split = calib.split_dataset

        def split_with_bad_holdout(samples, seed):
            train, holdout = split(samples, seed=seed)
            return train, [holdout[0]._replace(soi=40.0), *holdout[1:]]
        monkeypatch.setattr(calib, "split_dataset", split_with_bad_holdout)
        data = _dataset_csv(tmp_path)
        self._rejects(["calibrate", "--data", data], tmp_path, capsys,
                      "holdout: sample 0: SOI must lie in")

    def test_holdout_sample_named_as_one(self, tmp_path, capsys, monkeypatch):
        # one training sample: the fit's delay scale is negative at a holdout point
        split = calib.split_dataset
        monkeypatch.setattr(calib, "split_dataset",
                            lambda samples, seed: split(samples, 0.94, seed))
        self._rejects(["calibrate", "--data", _dataset_csv(tmp_path)], tmp_path, capsys,
                      "dualfuel calibrate: error: holdout: sample 2: the ignition-delay "
                      "scale (c1*egr + c2) * N * (phi_ng^c3 + phi_di^c4) is -0.0591")

    def test_negative_seed_named(self, tmp_path, capsys):
        self._rejects(["calibrate", "--data", _dataset_csv(tmp_path), "--seed", "-1"],
                      tmp_path, capsys, "dualfuel calibrate: error: rng_seed must be a "
                      "non-negative integer, got -1\n")
