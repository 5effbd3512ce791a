"""Dataset generation, RMSE objective, the analytic CA50 Jacobian,
Levenberg-Marquardt calibration and validation statistics."""

import csv
import dataclasses

import numpy as np
import pytest

import dualfuel as df
from dualfuel import calib
from dualfuel.calib import (
    CALIBRATED_FIELDS,
    DATASET_COLUMNS,
    CalibSample,
    CalibrationDiverged,
    CalibrationOptions,
    read_dataset,
    write_dataset,
    write_report_csv,
    write_report_summary,
    _columns,
    _latin_hypercube,
    _read_sample,
)
from dualfuel.model import ca50_jacobian

from conftest import random_box_op, random_box_soi


@pytest.fixture(scope="module")
def plant_cfg():
    return df.PlantConfig(geom=df.default_geometry(), coeffs=df.default_coefficients())


@pytest.fixture(scope="module")
def small_plant_dataset(plant_cfg):
    samples, misfires = df.generate_dataset(None, 128, plant_cfg, seed=9)
    assert misfires == 0
    return samples


def model_dataset(coeffs, geom, n, seed):
    """Dataset whose references come from the closed-form model itself."""
    rng = np.random.default_rng(seed)
    samples = []
    for _ in range(n):
        op = random_box_op(rng)
        soi = random_box_soi(rng)
        samples.append(CalibSample(op=op, soi=soi,
                                   soc_ref=df.predict_soc(op, soi, coeffs, geom),
                                   ca50_ref=df.predict_ca50(op, soi, coeffs, geom)))
    return samples


class TestGenerateDataset:
    def test_deterministic_for_seed(self, plant_cfg):
        a, _ = df.generate_dataset(None, 16, plant_cfg, seed=4)
        b, _ = df.generate_dataset(None, 16, plant_cfg, seed=4)
        assert a == b

    def test_seed_changes_samples(self, plant_cfg):
        a, _ = df.generate_dataset(None, 16, plant_cfg, seed=4)
        b, _ = df.generate_dataset(None, 16, plant_cfg, seed=5)
        assert a != b

    def test_single_sample_in_delay_band(self, geom, coeffs):
        # matched polytrope keeps the plant inside the model's stated
        # 1-10 CAD injection-to-combustion band
        cfg = df.PlantConfig(geom=geom, coeffs=coeffs, plant_poly_exp=coeffs.k_c)
        samples, misfires = df.generate_dataset(None, 1, cfg, seed=2)
        assert misfires == 0 and len(samples) == 1
        s = samples[0]
        assert s.soi + 1.0 < s.soc_ref < s.soi + 10.0
        assert s.ca50_ref > s.soc_ref

    def test_samples_respect_ranges(self, small_plant_dataset):
        r = df.SampleRanges()
        for s in small_plant_dataset:
            assert r.speed[0] <= s.op.speed <= r.speed[1]
            assert r.egr[0] <= s.op.egr <= r.egr[1]
            assert r.soi[0] <= s.soi <= r.soi[1]
            assert r.x_r[0] <= s.op.x_r <= r.x_r[1]

    def test_box_scaling_matches_per_element_formula(self, plant_cfg):
        # the whole-array scaling of the draws is exact, element by element
        samples, misfires = df.generate_dataset(None, 64, plant_cfg, seed=9)
        u = _latin_hypercube(64, 8, np.random.default_rng(9))
        bounds = dataclasses.asdict(df.SampleRanges())
        expected = [{name: float(lo + (hi - lo) * x)
                     for (name, (lo, hi)), x in zip(bounds.items(), row)}
                    for row in u]
        got = [{**dataclasses.asdict(s.op), "soi": s.soi} for s in samples]
        assert misfires == 0 and got == expected

    def test_requires_at_least_one_sample(self, plant_cfg):
        with pytest.raises(df.DomainError):
            df.generate_dataset(None, 0, plant_cfg, seed=1)


class TestRmse:
    def test_self_consistency_zero(self, geom, coeffs):
        samples = model_dataset(coeffs, geom, 32, seed=1)
        assert df.rmse(coeffs, samples, geom) == pytest.approx(0.0, abs=1e-12)

    def test_single_sample_absolute_error(self, geom, coeffs):
        s = model_dataset(coeffs, geom, 1, seed=2)[0]
        shifted = CalibSample(op=s.op, soi=s.soi, soc_ref=s.soc_ref,
                              ca50_ref=s.ca50_ref + 0.75)
        assert df.rmse(coeffs, [shifted], geom) == pytest.approx(0.75, rel=1e-12)

    def test_homogeneous_in_errors(self, geom, coeffs):
        base = model_dataset(coeffs, geom, 16, seed=3)
        rng = np.random.default_rng(0)
        errs = rng.uniform(-1.0, 1.0, size=len(base))
        one = [CalibSample(op=s.op, soi=s.soi, soc_ref=s.soc_ref,
                           ca50_ref=s.ca50_ref + e) for s, e in zip(base, errs)]
        two = [CalibSample(op=s.op, soi=s.soi, soc_ref=s.soc_ref,
                           ca50_ref=s.ca50_ref + 2 * e) for s, e in zip(base, errs)]
        assert df.rmse(coeffs, two, geom) == pytest.approx(
            2.0 * df.rmse(coeffs, one, geom), rel=1e-12)

    def test_empty_dataset_rejected(self, geom, coeffs):
        with pytest.raises(df.DomainError):
            df.rmse(coeffs, [], geom)

    def test_error_not_finite_named(self, geom, coeffs, small_plant_dataset):
        # numpy gives inf where a float power raises; no warning is printed
        with pytest.raises(df.DomainError,
                           match=r"^sample 0: the ignition-delay scale .* is inf, not "
                                 r"finite and positive$"):
            df.rmse(coeffs.replace(c4=-1e10), small_plant_dataset, geom)

    def test_overflowing_rmse_rejected(self, geom, coeffs, small_plant_dataset):
        # every error is finite, near 1e300, but their squares overflow
        with pytest.raises(df.DomainError,
                           match=r"^the CA50 RMSE is not finite \(inf\)$"):
            df.rmse(coeffs.replace(c1=1e300), small_plant_dataset, geom)

    def test_objective_is_rmse_and_inf_outside_the_domain(self, geom, coeffs,
                                                          small_plant_dataset):
        op, soi, _, ca50_ref = _columns(small_plant_dataset)
        f = calib._objective(coeffs, op, soi, df.cylinder_volume(soi, geom), ca50_ref,
                             geom)
        assert f(calib._pack(coeffs)) == df.rmse(coeffs, small_plant_dataset, geom)
        for edit in ({"c4": -1e10}, {"c6": 1e300}, {"c1": 1e300}):
            assert f(calib._pack(coeffs.replace(**edit))) == float("inf"), edit


class TestCalibrate:
    def test_zero_iterations_returns_initial(self, geom, coeffs, small_plant_dataset):
        report, out = df.calibrate(coeffs, small_plant_dataset, geom,
                                   CalibrationOptions(max_iters=0))
        assert out == coeffs
        assert report.iterations == 0
        assert report.final_rmse == df.rmse(coeffs, small_plant_dataset, geom)

    def test_rmse_trace_non_increasing(self, geom, coeffs, small_plant_dataset):
        report, _ = df.calibrate(coeffs, small_plant_dataset, geom,
                                 CalibrationOptions(max_iters=60))
        assert all(b <= a for a, b in zip(report.rmse_history,
                                          report.rmse_history[1:]))
        assert report.iterations == len(report.rmse_history) - 1
        assert len(report.coeff_history) == len(report.rmse_history)

    def test_reduces_error_from_perturbed_start(self, geom, coeffs):
        samples = model_dataset(coeffs, geom, 64, seed=5)
        start = coeffs.replace(**{n: getattr(coeffs, n) * 1.1
                                  for n in CALIBRATED_FIELDS})
        f0 = df.rmse(start, samples, geom)
        report, fitted = df.calibrate(start, samples, geom,
                                      CalibrationOptions(max_iters=150))
        assert report.final_rmse < 0.25 * f0
        assert df.rmse(fitted, samples, geom) == report.final_rmse

    def test_default_initial_guess_is_shipped(self, geom, small_plant_dataset):
        report, _ = df.calibrate(None, small_plant_dataset, geom,
                                 CalibrationOptions(max_iters=0))
        shipped = df.rmse(df.default_coefficients(), small_plant_dataset, geom)
        assert report.rmse_history[0] == shipped
        assert np.isfinite(report.final_rmse)

    def test_seed_deterministic_end_to_end(self, geom, coeffs, plant_cfg):
        outs = []
        for _ in range(2):
            samples, _ = df.generate_dataset(None, 64, plant_cfg, seed=8)
            report, fitted = df.calibrate(coeffs, samples, geom,
                                          CalibrationOptions(max_iters=40))
            outs.append((report.rmse_history, fitted))
        assert outs[0][0] == outs[1][0]
        assert outs[0][1] == outs[1][1]

    def test_divergent_references_abort(self, geom, coeffs, small_plant_dataset):
        broken = [CalibSample(op=s.op, soi=s.soi, soc_ref=s.soc_ref,
                              ca50_ref=s.ca50_ref + 1e5)
                  for s in small_plant_dataset]
        with pytest.raises(CalibrationDiverged) as exc:
            df.calibrate(coeffs, broken, geom)
        assert exc.value.report.rmse_history

    def test_sample_outside_domain_named(self, geom, plant_cfg):
        # the starting point is checked the way rmse checks it, so an
        # out-of-window SOI is a DomainError naming the row, not divergence
        samples, _ = df.generate_dataset(None, 20, plant_cfg, seed=4)
        samples[3] = dataclasses.replace(samples[3], soi=40.0)
        with pytest.raises(df.DomainError, match="sample 3: SOI must lie in"):
            df.calibrate(None, samples, geom)

    @pytest.mark.parametrize("edit", [{"c4": -1e10}, {"c6": 1e300}])
    def test_start_without_finite_error_named(self, geom, coeffs, small_plant_dataset,
                                              edit):
        # not divergence: the first sample whose delay scale (c4) or CA50
        # error (c6) is not finite, with no warning before it
        expected = {"c4": r"the ignition-delay scale .* is inf, not finite and positive",
                    "c6": r"the CA50 error is not finite \(inf\)"}[next(iter(edit))]
        with pytest.raises(df.DomainError, match=rf"^sample 0: {expected}$"):
            df.calibrate(coeffs.replace(**edit), small_plant_dataset, geom)

    def test_rmse_names_sample_outside_domain(self, geom, coeffs, small_plant_dataset):
        samples = list(small_plant_dataset[:10])
        samples[6] = dataclasses.replace(samples[6], soi=-150.0)
        with pytest.raises(df.DomainError, match="sample 6: SOI must lie in"):
            df.rmse(coeffs, samples, geom)

    def test_jacobian_matches_central_differences(self, geom, coeffs,
                                                  small_plant_dataset):
        # every column of the analytic Jacobian agrees with a central
        # difference of predict_ca50, also on a sample without natural gas
        # (phi_ng = 0, where phi_ng^c ln phi_ng is continued by 0)
        no_gas = df.OperatingPoint(speed=1300.0, phi_ng=0.0, phi_di=0.3, egr=0.2,
                                   x_r=0.03, p_ivc=3.5, t_ivc=390.0)
        samples = small_plant_dataset + [CalibSample(op=no_gas, soi=-15.0,
                                                     soc_ref=0.0, ca50_ref=0.0)]
        op, soi, _, _ = _columns(samples)
        _, jac = ca50_jacobian(op, soi, coeffs, geom, df.cylinder_volume(soi, geom))
        assert set(jac) == set(CALIBRATED_FIELDS)
        for name in CALIBRATED_FIELDS:
            value = getattr(coeffs, name)
            h = 1e-6 * abs(value)
            up = df.predict_ca50(op, soi, coeffs.replace(**{name: value + h}), geom)
            down = df.predict_ca50(op, soi, coeffs.replace(**{name: value - h}), geom)
            fd = (up - down) / (2.0 * h)
            assert np.all(np.isfinite(jac[name])), name
            assert np.max(np.abs(jac[name] - fd)) <= 1e-6 * np.max(np.abs(fd)), name
        assert jac["c3"][-1] == 0.0 and jac["c9"][-1] == 0.0

    def test_jacobian_ca50_is_predict_ca50(self, geom, coeffs, small_plant_dataset):
        # the LM loop takes its residual from the Jacobian's evaluation, so
        # that CA50 must be predict_ca50's, bit for bit
        op, soi, _, _ = _columns(small_plant_dataset)
        for c in (coeffs, coeffs.replace(c6=-0.5, k_c=1.3, c8=1.1)):
            ca50, _ = ca50_jacobian(op, soi, c, geom, df.cylinder_volume(soi, geom))
            assert np.array_equal(ca50, df.predict_ca50(op, soi, c, geom))

    def test_one_volume_and_one_jacobian_per_iteration(self, geom, coeffs,
                                                       small_plant_dataset, monkeypatch):
        # the injection volumes are computed once per fit (plus once each for
        # the SOC and CA50 of the training statistics), and each LM pass
        # takes its residual and Jacobian from one chain evaluation
        calls = {"cylinder_volume": 0, "ca50_jacobian": 0}

        def counted(module, name):
            original = getattr(module, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(module, name, wrapper)

        counted(df.model, "cylinder_volume")
        counted(calib, "ca50_jacobian")
        report, _ = df.calibrate(coeffs, small_plant_dataset, geom,
                                 CalibrationOptions(max_iters=500, tol=0.0))
        passes = report.iterations + (report.stop_reason == "no_improving_step")
        assert report.iterations > 0
        assert calls["cylinder_volume"] <= 3
        assert calls["ca50_jacobian"] == passes

    def test_unidentified_coefficient_does_not_raise(self, geom, coeffs, plant_cfg):
        # with EGR = 0 everywhere the c1 column of the Jacobian is zero: the
        # fit leaves c1 alone and still lowers the RMSE monotonically
        no_egr = df.SampleRanges(egr=(0.0, 0.0))
        samples, _ = df.generate_dataset(no_egr, 64, plant_cfg, seed=10)
        assert all(s.op.egr == 0.0 for s in samples)
        report, fitted = df.calibrate(coeffs, samples, geom,
                                      CalibrationOptions(max_iters=60))
        trace = report.rmse_history
        assert all(b <= a for a, b in zip(trace, trace[1:]))
        assert report.final_rmse < 0.1 * trace[0]
        assert fitted.c1 == coeffs.c1

    def test_stops_by_tol(self, geom, coeffs, small_plant_dataset):
        options = CalibrationOptions(tol=1e-6)
        report, _ = df.calibrate(coeffs, small_plant_dataset, geom, options)
        assert report.stop_reason == "tol"
        gains = -np.diff(report.rmse_history)
        assert gains[-1] < options.tol and np.all(gains[:-1] >= options.tol)

    @pytest.mark.parametrize("max_iters", [0, 2])
    def test_stops_by_max_iters(self, geom, coeffs, small_plant_dataset, max_iters):
        report, _ = df.calibrate(coeffs, small_plant_dataset, geom,
                                 CalibrationOptions(max_iters=max_iters, tol=0.0))
        assert report.stop_reason == "max_iters"
        assert report.iterations == max_iters

    def test_stops_when_no_step_improves(self, geom, coeffs):
        # references from the model itself: the start is already the optimum
        samples = model_dataset(coeffs, geom, 32, seed=11)
        report, _ = df.calibrate(coeffs, samples, geom,
                                 CalibrationOptions(max_iters=500, tol=0.0))
        assert report.stop_reason == "no_improving_step"
        assert report.iterations < 500

    @pytest.mark.parametrize("kwargs", [
        {"max_iters": -1}, {"tol": -1e-6}, {"tol": float("nan")},
        {"tol": float("inf")},
    ])
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            CalibrationOptions(**kwargs)


class TestSplitDataset:
    def test_partition_disjoint_and_complete(self, small_plant_dataset):
        train, holdout = df.split_dataset(small_plant_dataset, 0.2, seed=1)
        assert len(holdout) == round(0.2 * len(small_plant_dataset))
        assert len(train) + len(holdout) == len(small_plant_dataset)
        seen = {id(s) for s in train} | {id(s) for s in holdout}
        assert len(seen) == len(small_plant_dataset)

    def test_deterministic(self, small_plant_dataset):
        a = df.split_dataset(small_plant_dataset, 0.2, seed=1)
        b = df.split_dataset(small_plant_dataset, 0.2, seed=1)
        assert a == b

    def test_zero_fraction_keeps_all(self, small_plant_dataset):
        train, holdout = df.split_dataset(small_plant_dataset, 0.0)
        assert train == small_plant_dataset and holdout == []

    def test_invalid_fraction_rejected(self, small_plant_dataset):
        with pytest.raises(df.DomainError):
            df.split_dataset(small_plant_dataset, 1.0)


class TestValidate:
    def test_perfect_coefficients_zero_stats(self, geom, coeffs):
        samples = model_dataset(coeffs, geom, 32, seed=6)
        stats = df.validate(coeffs, samples, geom)
        assert stats.soc_err_std == pytest.approx(0.0, abs=1e-12)
        assert stats.ca50_err_max == pytest.approx(0.0, abs=1e-12)
        assert stats.soc_within_1cad == 1.0
        assert stats.ca50_within_1cad == 1.0
        assert stats.n_samples == 32

    def test_regression_against_plant(self, geom, coeffs, small_plant_dataset):
        # pinned after the first run: shipped coefficients vs the default
        # plant carry the polytrope mismatch
        stats = df.validate(coeffs, small_plant_dataset, geom)
        assert stats.soc_err_std == pytest.approx(0.9419150546576686, rel=1e-6)
        assert stats.ca50_err_max == pytest.approx(6.645806663599151, rel=1e-6)

    def test_sample_outside_domain_named(self, geom, coeffs, small_plant_dataset):
        samples = list(small_plant_dataset[:10])
        samples[4] = dataclasses.replace(samples[4], soi=40.0)
        with pytest.raises(df.DomainError, match="^sample 4: SOI must lie in"):
            df.validate(coeffs, samples, geom)

    def test_overflowing_std_named(self, geom, coeffs, small_plant_dataset):
        # every error is finite, near 1e300, but np.std squares them
        with pytest.raises(df.DomainError, match=r"^the standard deviation of the SOC "
                                                 r"error is not finite \(inf\)$"):
            df.validate(coeffs.replace(c1=1e300), small_plant_dataset, geom)


class TestCsvRoundTrips:
    def test_dataset_round_trip_exact(self, tmp_path, small_plant_dataset):
        path = tmp_path / "dataset.csv"
        write_dataset(path, small_plant_dataset)
        assert read_dataset(path) == small_plant_dataset

    def test_report_files(self, tmp_path, geom, coeffs, small_plant_dataset):
        report, _ = df.calibrate(coeffs, small_plant_dataset, geom,
                                 CalibrationOptions(max_iters=5))
        write_report_csv(tmp_path / "report.csv", report)
        write_report_summary(tmp_path / "summary.txt", report)
        lines = (tmp_path / "report.csv").read_text().splitlines()
        assert lines[0].split(",")[:2] == ["iteration", "rmse"]
        assert len(lines) == len(report.rmse_history) + 1
        assert "final CA50 RMSE" in (tmp_path / "summary.txt").read_text()

    def test_report_bytes_match_csv_writer(self, tmp_path, geom, coeffs,
                                           small_plant_dataset):
        report, _ = df.calibrate(coeffs, small_plant_dataset, geom,
                                 CalibrationOptions(max_iters=3))
        report.rmse_history.append(0.1 + 0.2)
        report.coeff_history.append(dict.fromkeys(CALIBRATED_FIELDS, -0.0) | {"c5": 1e300})
        write_report_csv(tmp_path / "new.csv", report)
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            # write_report_csv as it was written with csv.writer
            w = csv.writer(fh)
            w.writerow(("iteration", "rmse") + tuple(CALIBRATED_FIELDS))
            for i, (r, c) in enumerate(zip(report.rmse_history, report.coeff_history)):
                w.writerow([i, repr(r)] + [repr(c[name]) for name in CALIBRATED_FIELDS])
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        assert written.endswith(b"\r\n%d,0.30000000000000004,-0.0,-0.0,-0.0,-0.0,1e+300,"
                                b"-0.0,-0.0,-0.0,-0.0,-0.0,-0.0\r\n"
                                % (len(report.rmse_history) - 1))

    def test_summary_names_stop_reason(self, tmp_path, geom, coeffs,
                                       small_plant_dataset):
        report, _ = df.calibrate(coeffs, small_plant_dataset, geom,
                                 CalibrationOptions(max_iters=1))
        write_report_summary(tmp_path / "summary.txt", report)
        assert "stop reason         max_iters" in (
            tmp_path / "summary.txt").read_text().splitlines()

    def test_dataset_header_checked(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            read_dataset(path)

    def test_empty_dataset_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty.csv"):
            read_dataset(path)

    def test_header_only_dataset_rejected(self, tmp_path):
        path = tmp_path / "header_only.csv"
        write_dataset(path, [])
        with pytest.raises(ValueError, match="header_only.csv"):
            read_dataset(path)


def _csv_writer_dataset(path, samples):
    """write_dataset as it was written with csv.writer: the byte reference."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(DATASET_COLUMNS)
        w.writerows(tuple(map(float, (s.op.speed, s.op.t_ivc, s.op.p_ivc, s.op.phi_di,
                                      s.op.phi_ng, s.op.egr, s.op.x_r, s.soi,
                                      s.soc_ref, s.ca50_ref)))
                    for s in samples)


def _read_one_row_at_a_time(path):
    """read_dataset as it was written, one row at a time: the reference for
    which files it accepts, the samples it returns and its messages."""
    geom = df.default_geometry()
    samples = []
    with open(path, newline="") as fh:
        r = csv.reader(fh)
        next(r)
        for row in r:
            try:
                samples.append(_read_sample(row, geom))
            except ValueError as exc:
                raise ValueError(f"{path}:{r.line_num}: {exc}") from None
    return samples


def _outcome(read, path):
    try:
        return read(path)
    except ValueError as exc:
        return str(exc)


def _write_rows(path, rows):
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


class TestDatasetCsvFormat:
    def test_writer_bytes_match_csv_writer(self, tmp_path, small_plant_dataset):
        edge = [
            CalibSample(op=df.OperatingPoint(speed=1e300, phi_ng=-0.0, phi_di=0.1 + 0.2,
                                             egr=-0.0, x_r=1e-300, p_ivc=1e-300,
                                             t_ivc=np.float64(0.1)),
                        soi=np.float64(-15.1), soc_ref=-0.0, ca50_ref=0.1 + 0.2),
            CalibSample(op=df.OperatingPoint(*map(np.float64, (1300.0, 0.4, 0.3, 0.2, 0.03,
                                                               3.5, 390.0))),
                        soi=-12.0, soc_ref=np.float64(-1e-300), ca50_ref=1e300),
        ]
        data = [*small_plant_dataset[:8], *edge]
        write_dataset(tmp_path / "new.csv", data)
        _csv_writer_dataset(tmp_path / "ref.csv", data)
        written = (tmp_path / "new.csv").read_bytes()
        assert written == (tmp_path / "ref.csv").read_bytes()
        lines = written.split(b"\r\n")
        assert lines[-1] == b"" and len(lines) == len(data) + 2
        assert lines[9] == (b"1e+300,0.1,1e-300,0.30000000000000004,-0.0,-0.0,1e-300,"
                            b"-15.1,-0.0,0.30000000000000004")
        assert b"np.float64" not in written

    def test_header_only_bytes_match_csv_writer(self, tmp_path):
        write_dataset(tmp_path / "new.csv", [])
        _csv_writer_dataset(tmp_path / "ref.csv", [])
        assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _line_break_in_last_cell(line):
    # float() strips the line break, so the row stays good over two lines
    head, last = line.rsplit(",", 1)
    return f'{head},"{last}\n"'


class TestReadDataset:
    """read_dataset checks all rows as one array and, when a check fails,
    names the first bad row; files, samples and messages are those of the
    row-at-a-time reader."""

    @pytest.fixture
    def rows(self, tmp_path, small_plant_dataset):
        write_dataset(tmp_path / "dataset.csv", small_plant_dataset[:16])
        with open(tmp_path / "dataset.csv", newline="") as fh:
            return list(csv.reader(fh))

    def _read(self, tmp_path, rows):
        path = tmp_path / "dataset.csv"
        _write_rows(path, rows)
        return _outcome(read_dataset, path)

    @pytest.mark.parametrize("edits, expected", [
        pytest.param({4: lambda row: row.clear()}, "4: expected 10 values, got 0",
                     id="blank-line"),
        pytest.param({4: lambda row: row.__setitem__(7, "40.0"),
                      6: lambda row: row.__setitem__(5, "abc")},
                     "4: SOI must lie in [-148.5, 30.0] deg aTDC", id="two-bad-rows"),
        pytest.param({4: lambda row: row.__setitem__(5, "abc"),
                      6: lambda row: row.__setitem__(7, "40.0")},
                     "4: could not convert string to float: 'abc'",
                     id="two-bad-rows-parse-first"),
        pytest.param({6: lambda row: row.__setitem__(0, "0"),
                      9: lambda row: row.__setitem__(1, "inf")},
                     "6: engine speed must be positive", id="point-before-non-finite"),
        pytest.param({17: lambda row: row.__setitem__(5, "1.5")},
                     "17: EGR fraction must lie in [0, 1)", id="bad-last-row"),
        pytest.param({17: lambda row: row.pop()}, "17: expected 10 values, got 9",
                     id="short-last-row"),
    ])
    def test_first_bad_row_named(self, tmp_path, rows, edits, expected):
        for line, edit in edits.items():
            edit(rows[line - 1])
        assert self._read(tmp_path, rows) == f"{tmp_path / 'dataset.csv'}:{expected}"

    def test_trailing_blank_line_rejected(self, tmp_path, rows):
        assert self._read(tmp_path, [*rows, []]) == (
            f"{tmp_path / 'dataset.csv'}:18: expected 10 values, got 0")

    @pytest.mark.parametrize("edit, expected", [
        # a quote opened on line 4 and never closed takes the rest of the file
        pytest.param(lambda lines: lines.__setitem__(3, '"' + lines[3]),
                     "4: expected 10 values, got 1", id="unclosed-quote"),
        # a quoted line break makes row 4 two lines long, so row 6 starts on 7
        pytest.param(lambda lines: (lines.__setitem__(3, lines[3] + ',"a\nb"'),
                                    lines.__setitem__(5, lines[5] + ",1.0")),
                     "4: expected 10 values, got 11", id="row-over-two-lines"),
        pytest.param(lambda lines: (lines.__setitem__(3, _line_break_in_last_cell(lines[3])),
                                    lines.__setitem__(5, lines[5] + ",1.0")),
                     "7: expected 10 values, got 11", id="later-row-after-two-lines"),
    ])
    def test_row_named_by_the_line_it_starts_on(self, tmp_path, rows, edit, expected):
        lines = [",".join(row) for row in rows]
        edit(lines)
        path = tmp_path / "dataset.csv"
        path.write_text("\n".join(lines) + "\n")
        assert _outcome(read_dataset, path) == f"{path}:{expected}"

    def test_undecodable_text_names_the_file(self, tmp_path, rows):
        path = tmp_path / "dataset.csv"
        _write_rows(path, rows)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\n\xff", 3))
        message = _outcome(read_dataset, path)
        assert message.startswith(f"{path}: ") and "can't decode byte 0xff" in message

    def test_quoted_and_padded_cells_read_as_float_does(self, tmp_path, rows,
                                                        small_plant_dataset):
        lines = [",".join(row) for row in rows]
        lines[3] = ",".join(f'" {cell} "' for cell in rows[3])
        lines[4] = ",".join(f"\t {cell}  " for cell in rows[4])
        path = tmp_path / "dataset.csv"
        path.write_text("\n".join(lines) + "\n")
        assert read_dataset(path) == small_plant_dataset[:16]

    @pytest.mark.parametrize("column", DATASET_COLUMNS)
    def test_array_path_accepts_what_rows_accept(self, tmp_path, monkeypatch, rows,
                                                 column):
        # a file the row-at-a-time reader accepts never reaches it, and every
        # file gives that reader's samples or message
        calls = []
        monkeypatch.setattr(calib, "_read_sample",
                            lambda row, geom: calls.append(row) or _read_sample(row, geom))
        path = tmp_path / "dataset.csv"
        j = DATASET_COLUMNS.index(column)
        for cell in ("-12.5", " 0.25 ", "1_0", "0", "-0.0", "1e-300", "1e300", "0.999",
                     "-1", "40.0", "-150", "Infinity", "-inf", "nan", "1e400", "",
                     " ", "abc", "0x10", "1__0", "\uff11\uff12"):
            edited = [list(row) for row in rows]
            edited[3][j] = cell
            _write_rows(path, edited)
            calls.clear()
            want = _outcome(_read_one_row_at_a_time, path)
            assert _outcome(read_dataset, path) == want, (column, cell)
            assert (calls == []) == isinstance(want, list), (column, cell)
