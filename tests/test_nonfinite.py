"""Non-finite input is rejected at the boundary, and a NaN deviation fails
the check it belongs to instead of passing quietly."""

import dataclasses
import json
import math

import numpy as np
import pytest

from covpovm import (
    DOMAIN_DUAL,
    IsometryField,
    PhaseDifferenceObservable,
    PhaseObservable,
    PovmBuildError,
    WeightedMeasure,
    born_distribution,
    build_covariant_povm,
    equivalence_check,
    sample_outcomes,
    verify_axioms,
    verify_covariance,
)
from covpovm.cli import _oracle_report, main
from covpovm.iojson import quotient_function_from_json, scenario_from_json
from helpers import row_by_row, scalar_z12_povm, standard_instances


def nan_field_povm():
    """A built POVM whose first isometry entry is replaced by NaN after the
    build, as if the field had slipped past the builder's checks."""
    povm = standard_instances()[0][1]
    field = povm.fields[0]
    matrices = {x: np.array(w, dtype=complex) for x, w in field.matrices.items()}
    next(iter(matrices.values()))[0, 0] = np.nan
    fields = (IsometryField(0, matrices),) + povm.fields[1:]
    return dataclasses.replace(povm, fields=fields)


class TestRejectedAtTheBoundary:
    def test_nan_isometry_names_sector_and_point(self):
        povm = scalar_z12_povm()
        x0 = povm.rep.sector_points[0][0]
        fields = (IsometryField(0, {x0: np.array([[np.nan]], dtype=complex)}),)
        with pytest.raises(PovmBuildError) as exc:
            build_covariant_povm(povm.rep, povm.ctx.subgroup, fields, e_dim=1)
        assert exc.value.details["sector"] == 0
        assert exc.value.details["point"] == [0]

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            WeightedMeasure(DOMAIN_DUAL, {0: 1.0, 1: bad})

    def test_cli_nan_isometry_exits_4(self, tmp_path, capsys):
        scenario = {
            "spec_version": 1,
            "group": {"factors": [12]},
            "subgroup": {"generators": [[4]]},
            "e_dim": 1,
            "sectors": [{"f_dim": 1, "support": [[[0], 1.0]]}],
            "fields": [{"sector": 0, "matrices": [[[0], [[[math.nan, 0.0]]]]]}],
        }
        path = tmp_path / "s.json"
        path.write_text(json.dumps(scenario))
        assert main(["verify", str(path)]) == 4
        rejected = json.loads(capsys.readouterr().out)["rejected"]
        assert rejected["sector"] == 0
        assert rejected["point"] == [0]


# Z_8 with H = <4>: the lifted class weight is 1/4, so the finite weight
# 1e308 at point 0 has an infinite density
OVERFLOW_SCENARIO = {
    "spec_version": 1,
    "group": {"factors": [8]},
    "subgroup": {"generators": [[4]]},
    "e_dim": 1,
    "sectors": [{"f_dim": 1, "support": [[[0], 1e308]] + [[[x], 1.0] for x in range(1, 5)]}],
    "fields": [{"sector": 0, "matrices": [[[x], [[[1.0, 0.0]]]] for x in range(5)]}],
}


class TestOverflowingDensity:
    def test_build_names_sector_and_point(self):
        with pytest.raises(PovmBuildError, match="density") as exc:
            scenario_from_json(OVERFLOW_SCENARIO).build()
        assert exc.value.details["sector"] == 0
        assert exc.value.details["point"] == [0]

    @pytest.mark.parametrize("command", ["build", "matrix", "verify", "sample"])
    def test_cli_exits_4(self, tmp_path, capsys, command):
        paths = {"scenario": tmp_path / "s.json", "state": tmp_path / "state.json"}
        paths["scenario"].write_text(json.dumps(OVERFLOW_SCENARIO))
        paths["state"].write_text(json.dumps({"state": [[1.0, 0.0]] + [[0.0, 0.0]] * 4}))
        argv = [command, str(paths["scenario"])]
        if command == "sample":
            argv += ["--state", str(paths["state"]), "-n", "10", "--seed", "1"]
        assert main(argv) == 4
        out = capsys.readouterr().out
        rejected = json.loads(out)["rejected"]
        assert (rejected["sector"], rejected["point"]) == (0, [0])
        assert "Infinity" not in out and "NaN" not in out


class TestNanFailsItsCheck:
    def test_verify_axioms(self):
        report = verify_axioms(nan_field_povm())
        assert not report.passed
        for check in report.checks:
            assert not check.passed
            assert math.isnan(check.max_deviation)
        assert math.isnan(report.max_deviation)

    def test_verify_covariance(self):
        report = verify_covariance(nan_field_povm())
        assert not report.passed
        assert math.isnan(report.checks[0].max_deviation)

    def test_nan_in_one_effect_only(self):
        # a single NaN among finite deviations must not be dropped by the
        # reduction, wherever it falls in the order of evaluation
        povm = scalar_z12_povm()

        class OneNan:
            ctx = povm.ctx
            dimension = povm.dimension

            @row_by_row
            def assembled(self, omega):
                m = povm.assembled(omega)
                if np.array_equal(np.asarray(omega), povm.ctx.indicator([3])):
                    m = np.full_like(m, np.nan)
                return m

            def u_matrix(self, g):
                return povm.u_matrix(g)

        axioms = {c.check: c for c in verify_axioms(OneNan()).checks}
        assert not axioms["positivity"].passed
        assert axioms["normalization"].passed
        covariance = verify_covariance(OneNan()).checks[0]
        assert not covariance.passed
        assert math.isnan(covariance.max_deviation)

    def test_oracle_report(self):
        report = _oracle_report(nan_field_povm(), 1e-9, [])
        assert not report.passed
        assert math.isnan(report.checks[0].max_deviation)


def identity_maps(povm):
    return [
        {x: np.eye(spec.f_dim) for x in spec.rho.support}
        for spec in povm.rep.sectors
    ]


class TestNonFiniteStatesAndOmegas:
    def test_born_rejects_nan_state(self):
        povm = scalar_z12_povm()
        with pytest.raises(ValueError, match="non-finite"):
            born_distribution(np.array([np.nan]), povm, [[i] for i in range(4)])

    def test_sample_rejects_nan_state(self):
        povm = scalar_z12_povm()
        with pytest.raises(ValueError, match="non-finite"):
            sample_outcomes(np.array([np.nan]), povm, [[i] for i in range(4)], 10, 1)

    def test_omega_reader_rejects_nan(self):
        with pytest.raises(ValueError, match="non-finite"):
            quotient_function_from_json({"values": [[math.nan, 0.0], [1.0, 0.0]]})

    def cli_files(self, tmp_path):
        scenario = {
            "spec_version": 1,
            "group": {"factors": [12]},
            "subgroup": {"generators": [[4]]},
            "e_dim": 1,
            "sectors": [{"f_dim": 1, "support": [[[0], 1.0]]}],
            "fields": [{"sector": 0, "matrices": [[[0], [[[1.0, 0.0]]]]]}],
        }
        paths = {}
        for name, obj in (
            ("scenario", scenario),
            ("state", {"state": [[math.nan, 0.0]]}),
            ("omega", {"values": [[math.nan, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}),
        ):
            paths[name] = tmp_path / f"{name}.json"
            paths[name].write_text(json.dumps(obj))
        return {k: str(v) for k, v in paths.items()}

    def test_cli_sample_nan_state_exits_3(self, tmp_path, capsys):
        p = self.cli_files(tmp_path)
        argv = ["sample", p["scenario"], "--state", p["state"], "-n", "10", "--seed", "1"]
        assert main(argv) == 3
        assert capsys.readouterr().out == ""

    def test_cli_matrix_nan_omega_exits_3(self, tmp_path, capsys):
        p = self.cli_files(tmp_path)
        assert main(["matrix", p["scenario"], "--omega", p["omega"]]) == 3
        assert "NaN" not in capsys.readouterr().out

    def test_cli_verify_nan_omega_exits_3(self, tmp_path):
        p = self.cli_files(tmp_path)
        assert main(["verify", p["scenario"], "--omega", p["omega"]]) == 3


class TestNanBlindComparisons:
    def test_equivalence_rejects_nan_sector_map(self):
        povm = standard_instances()[0][1]
        maps = identity_maps(povm)
        maps[0] = {x: np.full_like(m, np.nan) for x, m in maps[0].items()}
        with pytest.raises(ValueError, match="not unitary"):
            equivalence_check(povm, povm, maps)

    def test_equivalence_keeps_nan_deviation(self):
        povm = nan_field_povm()
        result = equivalence_check(povm, povm, identity_maps(povm))
        assert not result.equivalent
        assert math.isnan(result.max_deviation)

    def test_phase_observable_rejects_nan_isometry(self):
        with pytest.raises(ValueError, match="not isometric"):
            PhaseObservable({0: np.array([[1.0]]), 1: np.array([[np.nan]])})

    def test_phase_difference_rejects_nan_vector(self):
        with pytest.raises(ValueError, match="not normalized"):
            PhaseDifferenceObservable({(0, 0): np.array([1.0]), (0, 1): np.array([np.nan])})


class TestNonFiniteOmega:
    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_cotransform_rejects(self, bad):
        ctx = scalar_z12_povm().ctx
        omega = np.ones(ctx.n_cosets, dtype=complex)
        omega[1] = bad
        with pytest.raises(ValueError, match="non-finite"):
            ctx.cotransform(omega)

    @pytest.mark.parametrize("bad", [math.nan, complex(0.0, math.inf)])
    def test_apply_and_intertwiner_route_reject(self, bad):
        from covpovm import apply_via_intertwiner

        povm = standard_instances()[2][1]
        omega = np.ones(povm.ctx.n_cosets, dtype=complex)
        omega[0] = bad
        with pytest.raises(ValueError, match="non-finite"):
            povm.apply(omega)
        with pytest.raises(ValueError, match="non-finite"):
            apply_via_intertwiner(povm, omega)
