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
from helpers import dilation, row_by_row, scalar_z12_povm, standard_instances
from scenarios import (
    isometry_overflow_z8,
    overflow_z8,
    position,
    scalar,
    scalar_z12,
    scenario_json,
    write,
)


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
        scenario = scalar([12], [[4]], [([0], 1.0)], [([0], [math.nan, 0.0])])
        assert main(["verify", write(tmp_path, "s.json", scenario)]) == 4
        rejected = json.loads(capsys.readouterr().out)["rejected"]
        assert rejected["sector"] == 0
        assert rejected["point"] == [0]


class TestOverflowingDensity:
    def test_build_names_sector_and_point(self):
        with pytest.raises(PovmBuildError, match="density") as exc:
            scenario_from_json(overflow_z8()).build()
        assert exc.value.details["sector"] == 0
        assert exc.value.details["point"] == [0]

    @pytest.mark.parametrize("command", ["build", "matrix", "verify", "sample"])
    def test_cli_exits_4(self, tmp_path, capsys, command):
        argv = [command, write(tmp_path, "s.json", overflow_z8())]
        if command == "sample":
            state = write(tmp_path, "state.json", {"state": [[1.0, 0.0]] + [[0.0, 0.0]] * 4})
            argv += ["--state", state, "-n", "10", "--seed", "1"]
        assert main(argv) == 4
        out = capsys.readouterr().out
        rejected = json.loads(out)["rejected"]
        assert (rejected["sector"], rejected["point"]) == (0, [0])
        assert "Infinity" not in out and "NaN" not in out


class TestOverflowingIsometryTest:
    # the suite turns a RuntimeWarning into an error, so an unsilenced
    # overflow in W^H W fails these before the rejection is read
    def test_build_names_sector_and_point(self):
        with pytest.raises(PovmBuildError, match="not isometric") as exc:
            scenario_from_json(isometry_overflow_z8()).build()
        assert (exc.value.details["sector"], exc.value.details["point"]) == (0, [0])

    def test_nan_deviation_is_not_isometric(self):
        # entries 1e200 (1 +- i): every entry of W^H W overflows to
        # inf - inf = NaN, and a NaN deviation is not within atol
        big = 1e200 * np.array([[1 + 1j, 1 - 1j], [1 + 1j, 1 + 1j]])
        scenario = scalar([8], [[4]], [([0], 1.0), ([1], 1.0)], [])
        scenario["e_dim"], scenario["sectors"][0]["f_dim"] = 2, 2
        pairs = [[[z.real, z.imag] for z in row] for row in big.tolist()]
        eye = [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]]
        scenario["fields"][0]["matrices"] = [[[0], pairs], [[1], eye]]
        with pytest.raises(PovmBuildError, match="not isometric") as exc:
            scenario_from_json(scenario).build()
        assert (exc.value.details["point"], math.isnan(exc.value.details["deviation"])) == ([0], True)

    def test_cli_exits_4_with_one_stderr_line(self, tmp_path, capsys):
        assert main(["build", write(tmp_path, "s.json", isometry_overflow_z8())]) == 4
        captured = capsys.readouterr()
        assert captured.err == "build rejected: field matrix is not isometric\n"
        assert json.loads(captured.out)["rejected"]["point"] == [0]


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
            intertwiner, e_dim, diagonal_space = dilation(povm)

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
        report = _oracle_report(nan_field_povm(), 1e-9)
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
        omega = {"values": [[math.nan, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]}
        return {
            "scenario": write(tmp_path, "scenario.json", scalar_z12()),
            "state": write(tmp_path, "state.json", {"state": [[math.nan, 0.0]]}),
            "omega": write(tmp_path, "omega.json", omega),
        }

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

    @pytest.mark.parametrize("command", ["matrix", "verify"])
    def test_cli_overflowing_omega_exits_3(self, tmp_path, capsys, command):
        # the Z_8 position surrogate with eight finite values of 1e308: the
        # cotransform overflows, so no NaN reaches the output
        scen, omega = tmp_path / "s.json", tmp_path / "omega.json"
        scen.write_text(json.dumps(scenario_json(position(8, 8))))
        omega.write_text(json.dumps({"values": [[1e308, 0.0]] * 8}))
        assert main([command, str(scen), "--omega", str(omega)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "is not finite: it overflows" in captured.err


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

    def test_overflowing_cotransform_names_the_row(self):
        # finite values whose cotransform overflows: a ValueError, and no
        # numpy RuntimeWarning (which this suite turns into an error)
        ctx = scalar_z12_povm().ctx
        huge = np.full(ctx.n_cosets, 1e308, dtype=complex)
        with pytest.raises(ValueError, match="cotransform of quotient function is not finite"):
            ctx.cotransform(huge)
        stack = np.stack([np.ones(ctx.n_cosets), huge, huge])
        with pytest.raises(ValueError, match="quotient function 1 of the stack is not finite"):
            ctx.cotransform(stack)

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
