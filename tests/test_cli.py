import errno
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from covpovm import iojson
from covpovm.cli import main
from scenarios import position, scalar_z12, scenario_json, write


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
        scen = write(tmp_path, "s.json", scalar_z12())
        assert main(["build", scen]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["dimension"] == 1
        assert out["admits"] is True
        assert out["sectors"][0]["densities"] == [[[0], 4.0]]

    def test_corrupted_isometry_exits_4(self, tmp_path, capsys):
        bad = scalar_z12()
        bad["fields"][0]["matrices"][0][1] = [[[1.001, 0.0]]]
        scen = write(tmp_path, "s.json", bad)
        assert main(["build", scen]) == 4
        out = json.loads(capsys.readouterr().out)
        assert out["rejected"]["sector"] == 0
        assert out["rejected"]["point"] == [0]

    @pytest.mark.parametrize(
        "f_dim, e_dim, error",
        [
            (2**40, 1, "embedding dimension is smaller than the largest multiplicity"),
            (2**63 - 1, 1, "embedding dimension is smaller than the largest multiplicity"),
            (2**40, 2**40, "isometry matrix has the wrong shape"),
        ],
        ids=["f_dim 2**40", "f_dim 2**63-1", "e_dim and f_dim 2**40"],
    )
    def test_huge_multiplicity_rejected_before_any_row_table(
        self, tmp_path, capsys, f_dim, e_dim, error
    ):
        # a basis-row table of f_dim rows per point cannot be allocated
        huge = scalar_z12()
        huge["sectors"][0]["f_dim"], huge["e_dim"] = f_dim, e_dim
        assert main(["build", write(tmp_path, "s.json", huge)]) == 4
        captured = capsys.readouterr()
        assert captured.err == f"build rejected: {error}\n"
        assert json.loads(captured.out)["rejected"]["error"] == error

    def test_malformed_json_exits_2(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        assert main(["build", str(path)]) == 2

    def test_missing_file_exits_2(self):
        assert main(["build", "/nonexistent/file.json"]) == 2

    def test_semantic_error_exits_3(self, tmp_path):
        bad = scalar_z12()
        del bad["spec_version"]
        scen = write(tmp_path, "s.json", bad)
        assert main(["build", scen]) == 3


class TestVerifyCommand:
    def test_pass_and_report(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        assert main(["verify", scen]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["pass"] is True
        names = {c["check"] for c in out["checks"]}
        assert names == {"positivity", "normalization", "covariance", "oracle_agreement"}
        assert all(c["max_deviation"] < 1e-9 for c in out["checks"])

    def test_constant_omega_dump_is_identity(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
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

    @pytest.mark.parametrize("where", ["file", "under_file"])
    def test_unwritable_dump_directory_exits_2_before_checking(
        self, tmp_path, capsys, monkeypatch, where
    ):
        import covpovm.cli as cli_module

        def no_sweep(*args, **kwargs):
            raise AssertionError("the checks ran before the dump directory was made")

        monkeypatch.setattr(cli_module, "dilation_sweep", no_sweep)
        scen = write(tmp_path, "s.json", scalar_z12())
        taken = tmp_path / "taken"
        taken.write_text("")
        dump = taken if where == "file" else taken / "dump"
        assert main(["verify", scen, "--dump-matrices", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {dump}: ")

    def test_unwritable_dump_file_exits_2_before_checking(self, tmp_path, capsys, monkeypatch):
        import covpovm.cli as cli_module

        def no_sweep(*args, **kwargs):
            raise AssertionError("the checks ran before the dump files were written")

        monkeypatch.setattr(cli_module, "dilation_sweep", no_sweep)
        scen = write(tmp_path, "s.json", scalar_z12())
        dump = tmp_path / "dump"
        (dump / "m_omega.json").mkdir(parents=True)
        assert main(["verify", scen, "--dump-matrices", str(dump)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"cannot write {dump / 'm_omega.json'}: ")
        assert not (dump / "effect_0.json").exists()

    def test_out_of_memory_exits_5_not_1(self, tmp_path, capsys, monkeypatch):
        import covpovm.cli as cli_module

        def too_large(*args, **kwargs):
            raise MemoryError("Unable to allocate 16.0 GiB for an array")

        monkeypatch.setattr(cli_module, "verify_covariance", too_large)
        scen = write(tmp_path, "s.json", scalar_z12())
        assert main(["verify", scen]) == cli_module.EXIT_TOO_LARGE == 5
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("verify: out of memory")
        assert "16.0 GiB" in lines[0]

    def test_tolerance_flag(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        assert main(["verify", scen, "--tolerance", "1e-3"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tolerance"] == 1e-3

    def test_tolerance_zero_reaches_the_checks(self, tmp_path, capsys):
        # the Z_64 position surrogate, seeded like the CI step: its isometries
        # are unit to rounding only, so a build at tolerance 0 would exit 4;
        # verify builds at the default and fails every check that is inexact
        scen = write(tmp_path, "s.json", scenario_json(position(64, 64)))
        assert main(["build", scen, "--tolerance", "0"]) == 4
        capsys.readouterr()
        assert main(["verify", scen, "--tolerance", "0"]) == 1
        captured = capsys.readouterr()
        out = json.loads(captured.out)
        assert out["tolerance"] == 0.0 and out["pass"] is False
        failed = {c["check"] for c in out["checks"] if not c["pass"]}
        assert failed == {c["check"] for c in out["checks"] if c["max_deviation"] > 0.0}
        assert "normalization" in failed
        assert "verification FAILED" in captured.err

    def test_tolerance_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COVPOVM_TOLERANCE", "1e-6")
        scen = write(tmp_path, "s.json", scalar_z12())
        assert main(["verify", scen]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["tolerance"] == 1e-6


class TestToleranceMustBeFinite:
    """A NaN, infinite or negative tolerance exits 3. NaN and inf accepted
    the stretched field below (build exited 0, matrix printed a non-POVM),
    verify with NaN exited 1 and -1 rejected every field as not isometric."""

    @staticmethod
    def stretched_scenario(tmp_path):
        bad = scalar_z12()
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

    def test_environment_not_a_number_names_the_variable(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("COVPOVM_TOLERANCE", "abc")
        assert main(["build", write(tmp_path, "s.json", scalar_z12())]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "invalid input: COVPOVM_TOLERANCE must be a number, got 'abc'\n"

    def test_zero_is_accepted(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        assert main(["build", scen, "--tolerance", "0"]) == 0


class TestMatrixCommand:
    def test_default_omega_is_identity(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        assert main(["matrix", scen]) == 0
        out = json.loads(capsys.readouterr().out)
        m = iojson.matrix_from_json(out)
        np.testing.assert_allclose(m, np.eye(1), atol=1e-12)

    def test_roundtrip(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        omega = write(tmp_path, "o.json", {"values": [[1, 0], [2, 0], [3, 0], [4, 0]]})
        assert main(["matrix", scen, "--omega", omega]) == 0
        out = json.loads(capsys.readouterr().out)
        m = iojson.matrix_from_json(out)
        assert m[0, 0] == pytest.approx(2.5)
        assert json.loads(iojson.dumps(iojson.matrix_to_json(m))) == out


class TestSampleCommand:
    def test_zero_draws_header_only(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
        assert main(["sample", scen, "--state", state, "-n", "0", "--seed", "1"]) == 0
        lines = capsys.readouterr().out
        assert lines.splitlines()[0] == "outcome,count"
        assert all(line.endswith(",0") for line in lines.splitlines()[1:])

    def test_fixed_seed_byte_identical(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
        argv = ["sample", scen, "--state", state, "-n", "1000", "--seed", "77"]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert first == second

    def test_counts_within_five_sigma(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
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
        scen = write(tmp_path, "s.json", scalar_z12())
        state = write(tmp_path, "st.json", {"state": [[0.5, 0.0]]})
        assert main(["sample", scen, "--state", state, "-n", "10", "--seed", "1"]) == 3

    def test_custom_partition(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
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


class FailingStdout:
    """A stdout whose writes raise ``error``."""

    def __init__(self, error):
        self.error = error

    def write(self, text):
        raise self.error

    def flush(self):
        pass


class TestOutputCannotBeWritten:
    """A failed write to stdout (a closed pipe, a full disk) exits 2 with
    "cannot write output", not "cannot read input"."""

    @pytest.mark.parametrize(
        "error",
        [BrokenPipeError(errno.EPIPE, "Broken pipe"), OSError(errno.ENOSPC, "No space left")],
        ids=["broken-pipe", "disk-full"],
    )
    @pytest.mark.parametrize("command", ["matrix", "sample"])
    def test_exits_2_naming_the_write(self, tmp_path, capsys, monkeypatch, command, error):
        scen = write(tmp_path, "s.json", scalar_z12())
        argv = [command, scen]
        if command == "sample":
            state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
            argv += ["--state", state, "-n", "10", "--seed", "1"]
        monkeypatch.setattr("sys.stdout", FailingStdout(error))
        assert main(argv) == 2
        assert capsys.readouterr().err == f"cannot write output: {error}\n"

    def test_failed_flush_is_a_write_error(self, tmp_path, capsys, monkeypatch):
        class FailingFlush(FailingStdout):
            def write(self, text):
                pass

            def flush(self):
                raise self.error

        scen = write(tmp_path, "s.json", scalar_z12())
        monkeypatch.setattr("sys.stdout", FailingFlush(OSError(errno.ENOSPC, "No space left")))
        assert main(["build", scen]) == 2
        assert capsys.readouterr().err.startswith("cannot write output: [Errno 28]")

    def test_rejected_build_says_so_before_the_write_fails(self, tmp_path, capsys, monkeypatch):
        bad = scalar_z12()
        bad["sectors"][0]["support"][0][1] = 1e308  # overflows its density
        scen = write(tmp_path, "bad.json", bad)
        assert main(["build", scen]) == 4
        rejected = capsys.readouterr()
        assert json.loads(rejected.out)["rejected"]["weight"] == 1e308
        assert rejected.err.startswith("build rejected: density ")
        monkeypatch.setattr("sys.stdout", FailingStdout(OSError(errno.ENOSPC, "No space left")))
        assert main(["build", scen]) == 2
        err = capsys.readouterr().err
        assert err == rejected.err + "cannot write output: [Errno 28] No space left\n"

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs a /dev/full device")
    @pytest.mark.parametrize("command", ["matrix", "sample", "build-rejected"])
    def test_full_device_exits_2_in_a_fresh_interpreter(self, tmp_path, command):
        """With stdout buffered and on /dev/full, the output left in the
        buffer must not fail again at interpreter exit (which exits 120)."""
        scenario = scalar_z12()
        if command == "build-rejected":
            scenario["sectors"][0]["support"][0][1] = 1e308  # overflows its density
        argv = [command.split("-")[0], write(tmp_path, "s.json", scenario)]
        if command == "sample":
            state = write(tmp_path, "st.json", {"state": [[1.0, 0.0]]})
            argv += ["--state", state, "-n", "10", "--seed", "1"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        with open("/dev/full", "w") as full:
            done = subprocess.run(
                [sys.executable, "-m", "covpovm.cli", *argv],
                stdout=full, stderr=subprocess.PIPE, text=True, timeout=120, env=env,
            )
        lines = done.stderr.splitlines()
        if command == "build-rejected":
            assert lines.pop(0).startswith("build rejected: density ")
        assert lines == ["cannot write output: [Errno 28] No space left on device"]
        assert done.returncode == 2

    def test_missing_input_is_still_a_read_error(self, capsys):
        assert main(["matrix", "/nonexistent/file.json"]) == 2
        assert capsys.readouterr().err.startswith("cannot read input: ")


class TestJsonRoundTrips:
    def test_scenario(self):
        scenario = iojson.scenario_from_json(scalar_z12())
        again = iojson.scenario_from_json(iojson.scenario_to_json(scenario))
        assert again.group == scenario.group
        assert again.e_dim == scenario.e_dim
        assert [s.rho.weights for s in again.rep.sectors] == [
            s.rho.weights for s in scenario.rep.sectors
        ]

    def test_class_measure_to_json(self):
        # the nonzero weights in coset order, as floats: a record table of
        # [coset, weight] rows, written as the text of those lists
        got = iojson.measure_to_json(np.array([1.0, 0.0, 0.25, 0.0]))
        weights = got["weights"].tolist()
        assert set(got) == {"domain", "weights"} and got["domain"] == "dual_quotient"
        assert weights == [[0, 1.0], [2, 0.25]]
        assert all(type(i) is int and type(w) is float for i, w in weights)
        as_lists = {"domain": "dual_quotient", "weights": weights}
        assert iojson.dumps(got) == json.dumps(as_lists, indent=2)
        assert json.loads(iojson.dumps(got)) == as_lists

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
        scen = write(tmp_path, "s.json", _with(scalar_z12(), path, value))
        assert main(["build", scen]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "must be an integer" in captured.err and str(value) in captured.err

    def test_sample_partition_exits_3_naming_the_value(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
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
            lambda: iojson.matrix_from_json(
                {"rows": 1.0, "cols": 1, "entries": [[1.0, 0.0]]}
            ),
        ],
        ids=["matrix-rows"],
    )
    def test_readers_reject_non_integral_indices(self, read):
        with pytest.raises(ValueError, match="must be an integer"):
            read()


class TestWrongJsonShapeExits3:
    """A scenario or group spec whose JSON shape is wrong exits 3 with an
    ``invalid input`` message that names the entry, not 1 with a traceback."""

    @pytest.mark.parametrize("command", ["build", "group"])
    @pytest.mark.parametrize("subgroup", [[], None, 4, "x", [[4]]])
    def test_subgroup_that_is_not_an_object(self, tmp_path, capsys, command, subgroup):
        path = write(tmp_path, "s.json", _with(scalar_z12(), ("subgroup",), subgroup))
        assert main([command, path]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("invalid input: subgroup spec must be an object")

    @pytest.mark.parametrize("value", [[], 7, "x", None])
    def test_scenario_that_is_not_an_object(self, tmp_path, capsys, value):
        assert main(["build", write(tmp_path, "s.json", value)]) == 3
        assert capsys.readouterr().err.startswith("invalid input: scenario must be an object")

    @pytest.mark.parametrize(
        "path, named",
        [(("sectors", 0, "f_dim"), "f_dim {} is outside [-2**63, 2**63) (sector 0)"),
         (("fields", 0, "sector"), "field sector {} is outside [-2**63, 2**63) (field 0)")],
    )
    @pytest.mark.parametrize("value", [2**70, 2**63, -(2**63) - 1])
    def test_integer_beyond_int64(self, tmp_path, capsys, path, named, value):
        scen = write(tmp_path, "s.json", _with(scalar_z12(), path, value))
        assert main(["build", scen]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"invalid input: {named.format(value)}\n"

    def test_field_sector_at_the_int64_bound_reaches_the_build(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", _with(scalar_z12(), ("fields", 0, "sector"), -(2**63)))
        assert main(["build", scen]) == 4
        assert "isometry field order does not match sector order" in capsys.readouterr().err
