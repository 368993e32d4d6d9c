import json

import numpy as np
import pytest

from covpovm import FiniteAbelianGroup, TrigPolynomial, WeightedMeasure
from covpovm import iojson
from covpovm.cli import main


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def scalar_scenario():
    return {
        "spec_version": 1,
        "group": {"factors": [12]},
        "subgroup": {"generators": [[4]]},
        "e_dim": 1,
        "sectors": [{"f_dim": 1, "support": [[[0], 1.0]]}],
        "fields": [{"sector": 0, "matrices": [[[0], [[[1.0, 0.0]]]]]}],
    }


class TestGroupCommand:
    def test_z12_tables(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "g.json",
            {"group": {"factors": [12]}, "subgroup": {"generators": [[4]]}},
        )
        assert main(["group", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["annihilator"]["elements"] == [[0], [3], [6], [9]]
        assert out["cosets"]["representatives"] == [[0], [1], [2], [3]]
        assert out["pairing_table"]["values"] == [[[1.0, 0.0]]] * 4

    def test_empty_subgroup_full_dual(self, tmp_path, capsys):
        spec = write(tmp_path, "g.json", {"group": {"factors": [12]}})
        assert main(["group", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["annihilator"]["order"] == 12

    def test_z2z2_two_cosets(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "g.json",
            {"group": {"factors": [2, 2]}, "subgroup": {"generators": [[1, 1]]}},
        )
        assert main(["group", spec]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["cosets"]["count"] == 2

    def test_semantic_error_exits_3(self, tmp_path):
        spec = write(
            tmp_path,
            "g.json",
            {"group": {"factors": [12]}, "subgroup": {"generators": [[1, 2]]}},
        )
        assert main(["group", spec]) == 3

    @pytest.mark.parametrize(
        "spec, named",
        [
            ({"group": {"factors": [12.9]}, "subgroup": {"generators": [[True]]}}, "12.9"),
            ({"group": {"factors": [12]}, "subgroup": {"generators": [[4.7]]}}, "4.7"),
            ({"group": {"factors": [12]}, "subgroup": {"generators": [[True]]}}, "True"),
            ({"group": {"factors": [True, 2]}}, "True"),
        ],
    )
    def test_non_integral_input_exits_3(self, tmp_path, capsys, spec, named):
        assert main(["group", write(tmp_path, "g.json", spec)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer" in captured.err and named in captured.err

    def test_output_reparses(self, tmp_path, capsys):
        spec = write(
            tmp_path,
            "g.json",
            {"group": {"factors": [12]}, "subgroup": {"generators": [[4]]}},
        )
        main(["group", spec])
        first = capsys.readouterr().out
        main(["group", spec])
        second = capsys.readouterr().out
        assert json.loads(first) == json.loads(second)


class TestBuildCommand:
    def test_scalar_build(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        assert main(["build", scen]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dimension"] == 1
        assert out["admits"] is True
        assert out["sectors"][0]["densities"] == [[[0], 4.0]]

    def test_corrupted_isometry_exits_4(self, tmp_path, capsys):
        bad = scalar_scenario()
        bad["fields"][0]["matrices"][0][1] = [[[1.001, 0.0]]]
        scen = write(tmp_path, "s.json", bad)
        assert main(["build", scen]) == 4
        out = json.loads(capsys.readouterr().out)
        assert out["rejected"]["sector"] == 0
        assert out["rejected"]["point"] == [0]

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["build", str(path)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["build", "/nonexistent/file.json"]) == 2

    def test_semantic_error_exits_3(self, tmp_path):
        bad = scalar_scenario()
        del bad["spec_version"]
        scen = write(tmp_path, "s.json", bad)
        assert main(["build", scen]) == 3


class TestVerifyCommand:
    def test_pass_and_report(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        assert main(["verify", scen]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True
        names = {c["check"] for c in out["checks"]}
        assert names == {"positivity", "normalization", "covariance", "oracle_agreement"}
        assert all(c["max_deviation"] < 1e-9 for c in out["checks"])

    def test_constant_omega_dump_is_identity(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        omega = write(tmp_path, "omega.json", {"values": [[1.0, 0.0]] * 4})
        dump = tmp_path / "dump"
        assert main(
            ["verify", scen, "--omega", omega, "--dump-matrices", str(dump)]
        ) == 0
        capsys.readouterr()
        dumped = iojson.matrix_from_json(
            json.loads((dump / "m_omega.json").read_text())
        )
        np.testing.assert_allclose(dumped, np.eye(1), atol=1e-12)
        effect0 = iojson.matrix_from_json(
            json.loads((dump / "effect_0.json").read_text())
        )
        np.testing.assert_allclose(effect0, 0.25 * np.eye(1), atol=1e-12)

    def test_out_of_memory_exits_5_not_1(self, tmp_path, capsys, monkeypatch):
        import covpovm.cli as cli_module

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 GiB for an array")

        monkeypatch.setattr(cli_module, "verify_covariance", too_large)
        scen = write(tmp_path, "s.json", scalar_scenario())
        assert main(["verify", scen]) == cli_module.EXIT_TOO_LARGE == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("verify: out of memory")
        assert "16.0 GiB" in lines[0]

    def test_tolerance_flag(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        assert main(["verify", scen, "--tolerance", "1e-3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tolerance"] == 1e-3

    def test_tolerance_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COVPOVM_TOLERANCE", "1e-6")
        scen = write(tmp_path, "s.json", scalar_scenario())
        assert main(["verify", scen]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tolerance"] == 1e-6


class TestToleranceMustBeFinite:
    """A NaN, infinite or negative tolerance exits 3. NaN and inf accepted
    the stretched field below (build exited 0, matrix printed a non-POVM),
    verify with NaN exited 1 and -1 rejected every field as not isometric."""

    @staticmethod
    def stretched_scenario(tmp_path):
        bad = scalar_scenario()
        bad["fields"][0]["matrices"][0][1] = [[[5.0, 0.0]]]
        return write(tmp_path, "s.json", bad)

    @pytest.mark.parametrize("command", ["build", "verify", "matrix"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    def test_flag_exits_3(self, tmp_path, capsys, command, value):
        scen = self.stretched_scenario(tmp_path)
        assert main([command, scen, f"--tolerance={value}"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tolerance must be finite and >= 0" in captured.err

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_environment_exits_3(self, tmp_path, capsys, monkeypatch, value):
        monkeypatch.setenv("COVPOVM_TOLERANCE", value)
        assert main(["verify", self.stretched_scenario(tmp_path)]) == 3
        assert "COVPOVM_TOLERANCE must be finite and >= 0" in capsys.readouterr().err

    def test_zero_is_accepted(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        assert main(["build", scen, "--tolerance", "0"]) == 0


class TestMatrixCommand:
    def test_default_omega_is_identity(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        assert main(["matrix", scen]) == 0
        out = json.loads(capsys.readouterr().out)
        m = iojson.matrix_from_json(out)
        np.testing.assert_allclose(m, np.eye(1), atol=1e-12)

    def test_roundtrip(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        omega = write(tmp_path, "o.json", {"values": [[1, 0], [2, 0], [3, 0], [4, 0]]})
        assert main(["matrix", scen, "--omega", omega]) == 0
        out = json.loads(capsys.readouterr().out)
        m = iojson.matrix_from_json(out)
        assert m[0, 0] == pytest.approx(2.5)
        assert json.loads(iojson.dumps(iojson.matrix_to_json(m))) == out


class TestSampleCommand:
    def test_zero_draws_header_only(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
        assert main(["sample", scen, "--state", state, "-n", "0", "--seed", "1"]) == 0
        lines = capsys.readouterr().out
        assert lines.splitlines()[0] == "outcome,count"
        assert all(line.endswith(",0") for line in lines.splitlines()[1:])

    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
        argv = ["sample", scen, "--state", state, "-n", "1000", "--seed", "77"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_counts_within_five_sigma(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
        n = 10_000
        assert main(
            ["sample", scen, "--state", state, "-n", str(n), "--seed", "5"]
        ) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        counts = [int(r.split(",")[1]) for r in rows]
        sigma = np.sqrt(n * 0.25 * 0.75)
        assert sum(counts) == n
        for c in counts:
            assert abs(c - n / 4) < 5 * sigma

    def test_bad_state_exits_3(self, tmp_path):
        scen = write(tmp_path, "s.json", scalar_scenario())
        state = write(tmp_path, "st.json", {"state": [[0.5, 0.0]]})
        assert main(["sample", scen, "--state", state, "-n", "10", "--seed", "1"]) == 3

    def test_custom_partition(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
        part = write(tmp_path, "p.json", {"partition": [[0, 1], [2, 3]]})
        assert main(
            [
                "sample", scen, "--state", state,
                "--partition", part, "-n", "100", "--seed", "2",
            ]
        ) == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3  # header + two cells


class TestJsonRoundTrips:
    def test_scenario(self):
        scenario = iojson.scenario_from_json(scalar_scenario())
        again = iojson.scenario_from_json(iojson.scenario_to_json(scenario))
        assert again.group == scenario.group
        assert again.e_dim == scenario.e_dim
        assert [s.rho.weights for s in again.rep.sectors] == [
            s.rho.weights for s in scenario.rep.sectors
        ]

    def test_measure(self):
        group = FiniteAbelianGroup((12,))
        m = WeightedMeasure("dual", {group.character([3]): 1.5})
        again = iojson.measure_from_json(group, iojson.measure_to_json(m))
        assert again.weights == m.weights
        q = WeightedMeasure("dual_quotient", {0: 1.0, 2: 0.25})
        again = iojson.measure_from_json(group, iojson.measure_to_json(q))
        assert again.weights == q.weights

    def test_matrix(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
        text = iojson.dumps(iojson.matrix_to_json(m))
        np.testing.assert_array_equal(iojson.matrix_from_json(json.loads(text)), m)

    def test_matrix_in_process(self):
        # matrix_to_json returns an (n, 2) float array; reading it back keeps
        # every bit, the signed zero and a subnormal included
        pairs = np.array([[-0.0, 5e-324], [1.0, -0.0], [-0.0, -0.0], [2.5e-310, -1.5]])
        m = pairs.view(complex).reshape(2, 2)
        again = iojson.matrix_from_json(iojson.matrix_to_json(m))
        assert again.shape == (2, 2)
        np.testing.assert_array_equal(again.view(np.uint64), m.view(np.uint64))

    def test_trig_polynomial(self):
        p = TrigPolynomial({-2: 1j, 0: 2.0, 3: 1.0 - 0.5j})
        again = iojson.trig_polynomial_from_json(iojson.trig_polynomial_to_json(p))
        assert again.coeffs == p.coeffs

    def test_matrix_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            iojson.matrix_from_json({"rows": 2, "cols": 2, "entries": [[1.0, 0.0]]})


def _with(obj, path, value):
    """Copy of a JSON object with the entry at ``path`` (keys and indices)
    replaced by ``value``."""
    obj = json.loads(json.dumps(obj))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return obj


class TestNonIntegralScenarioInput:
    @pytest.mark.parametrize(
        "path, value",
        [
            (("e_dim",), 1.9),
            (("sectors", 0, "f_dim"), 1.7),
            (("fields", 0, "sector"), 0.5),
            (("e_dim",), True),
        ],
    )
    def test_build_exits_3_naming_the_value(self, tmp_path, capsys, path, value):
        scen = write(tmp_path, "s.json", _with(scalar_scenario(), path, value))
        assert main(["build", scen]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer" in captured.err and str(value) in captured.err

    def test_sample_partition_exits_3_naming_the_value(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_scenario())
        state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
        part = write(tmp_path, "p.json", {"partition": [[0.9, 1], [2, 3.5]]})
        argv = ["sample", scen, "--state", state, "--partition", part]
        assert main(argv + ["-n", "10", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer" in captured.err and "0.9" in captured.err

    @pytest.mark.parametrize(
        "read",
        [
            lambda: iojson.measure_from_json(
                FiniteAbelianGroup((12,)),
                {"domain": "dual_quotient", "weights": [[1.5, 1.0]]},
            ),
            lambda: iojson.matrix_from_json(
                {"rows": 1.0, "cols": 1, "entries": [[1.0, 0.0]]}
            ),
            lambda: iojson.trig_polynomial_from_json({"coeffs": [[2.5, [1.0, 0.0]]]}),
        ],
        ids=["quotient-point", "matrix-rows", "frequency"],
    )
    def test_readers_reject_non_integral_indices(self, read):
        with pytest.raises(ValueError, match="must be an integer"):
            read()
