"""JSON values that are not numbers (bools, strings, null) are rejected
where a real number is read, and the default tolerance has one definition."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import FiniteAbelianGroup, iojson, observables, povm
from covpovm.cli import _tolerance, build_parser, main
from covpovm.groups import _as_real
from scenarios import scalar, scalar_z12, write

NOT_NUMBERS = [True, False, "1.0", None]


def z4_scenario():
    return scalar([4], [], [([1], 1.0)], [([1], [1.0, 0.0])])


def z4x4_scenario():
    return scalar([4, 4], [], [([1, 0], 1.0)], [([1, 0], [1.0, 0.0])])


def with_weight(value):
    scen = scalar_z12()
    scen["sectors"][0]["support"][0][1] = value
    return scen


def with_entry(pair):
    scen = scalar_z12()
    scen["fields"][0]["matrices"][0][1] = [[pair]]
    return scen


class TestRealCoercion:
    @pytest.mark.parametrize("value", NOT_NUMBERS + [[1.0], {"re": 1.0}])
    def test_rejects_non_numbers_naming_the_value(self, value):
        with pytest.raises(ValueError, match="weight must be a real number") as err:
            _as_real(value, "weight")
        assert repr(value) in str(err.value)

    @pytest.mark.parametrize("value", [0, 3, -2.5, 1e300, np.int32(4), np.float32(0.5)])
    def test_accepts_ints_and_floats(self, value):
        got = _as_real(value, "weight")
        assert type(got) is float and got == float(value)


class TestReadersReject:
    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_pair_parts(self, value):
        with pytest.raises(ValueError, match="real part must be a real number"):
            iojson.pair_to_complex([value, 0.0])
        with pytest.raises(ValueError, match="imaginary part must be a real number"):
            iojson.pair_to_complex([1.0, value])

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_support_weight(self, value):
        with pytest.raises(ValueError, match="support weight must be a real number"):
            iojson.scenario_from_json(with_weight(value))

    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_field_matrix_entry(self, value):
        with pytest.raises(ValueError, match="must be a real number"):
            iojson.scenario_from_json(with_entry([1.0, value]))

    @pytest.mark.parametrize(
        "read",
        [
            lambda v: iojson.state_from_json({"state": [[v, 0.0]]}),
            lambda v: iojson.quotient_function_from_json({"values": [[0.0, v]]}),
            lambda v: iojson.matrix_from_json({"rows": 1, "cols": 1, "entries": [[v, 0.0]]}),
        ],
        ids=["state", "omega", "matrix"],
    )
    @pytest.mark.parametrize("value", NOT_NUMBERS)
    def test_vector_and_matrix_files(self, read, value):
        with pytest.raises(ValueError, match="must be a real number"):
            read(value)

    def test_integer_pairs_accepted(self):
        assert iojson.pair_to_complex([1, 0]) == 1 + 0j
        scenario = iojson.scenario_from_json(with_entry([1, 0]))
        assert scenario.fields[0].matrices[scenario.group.character([0])][0, 0] == 1.0
        assert iojson.scenario_from_json(with_weight(2)).rep.sectors[0].rho.items()[0][1] == 2.0


class TestCliExits3:
    @pytest.mark.parametrize("value", [True, "1.0"])
    def test_build_support_weight(self, tmp_path, capsys, value):
        assert main(["build", write(tmp_path, "s.json", with_weight(value))]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"support weight must be a real number, got {value!r}" in captured.err

    @pytest.mark.parametrize("pair", [["1.0", 0.0], [1.0, False], [True, 0.0]])
    def test_build_matrix_entry(self, tmp_path, capsys, pair):
        assert main(["build", write(tmp_path, "s.json", with_entry(pair))]) == 3
        err = capsys.readouterr().err
        assert "must be a real number" in err and "(sector 0, point [0])" in err

    @pytest.mark.parametrize("section", ["support", "matrices"])
    def test_build_bool_in_coordinate_row(self, tmp_path, capsys, section):
        scen = z4x4_scenario()
        sector, field = scen["sectors"][0], scen["fields"][0]
        entry = sector["support"] if section == "support" else field["matrices"]
        entry[0][0] = [1, True]
        assert main(["build", write(tmp_path, "s.json", scen)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coordinate must be an integer, got True (sector 0, point [1, True])" in captured.err

    @pytest.mark.parametrize(
        "section, listed",
        [("support", [1]), ("support", [5]), ("matrices", [1]), ("matrices", [-3])],
    )
    def test_build_duplicate_point(self, tmp_path, capsys, section, listed):
        # on Z_4, [5] and [-3] reduce to [1]; the reader used to keep the last entry
        scen = z4_scenario()
        if section == "support":
            scen["sectors"][0]["support"].append([listed, 5.0])
        else:
            scen["fields"][0]["matrices"].append([listed, [[[0.0, 1.0]]]])
        assert main(["build", write(tmp_path, "s.json", scen)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"point [1] is listed twice (sector 0, point {listed})" in captured.err

    def test_verify_omega(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        omega = write(tmp_path, "o.json", {"values": [[1.0, 0.0]] * 3 + [["1", 0.0]]})
        assert main(["verify", scen, "--omega", omega]) == 3
        assert "real part must be a real number, got '1'" in capsys.readouterr().err

    def test_sample_state(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", scalar_z12())
        state = write(tmp_path, "st.json", {"state": [[True, 0.0]]})
        assert main(["sample", scen, "--state", state, "-n", "10", "--seed", "1"]) == 3
        assert "real part must be a real number, got True" in capsys.readouterr().err

    def test_integer_pairs_still_run(self, tmp_path, capsys):
        scen = write(tmp_path, "s.json", with_entry([1, 0]))
        state = write(tmp_path, "st.json", {"state": [[1, 0]]})
        assert main(["sample", scen, "--state", state, "-n", "10", "--seed", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[0] == "outcome,count"


class TestOneDefaultTolerance:
    def test_every_default_reads_povm_default(self, monkeypatch):
        monkeypatch.delenv("COVPOVM_TOLERANCE", raising=False)
        assert povm.DEFAULT_ATOL == 1e-9
        assert observables.DEFAULT_ATOL is povm.DEFAULT_ATOL
        assert iojson.Scenario.build.__defaults__ == (povm.DEFAULT_ATOL,)
        args = build_parser().parse_args(["build", "s.json"])
        assert _tolerance(args) is povm.DEFAULT_ATOL


pair_values = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e16, math.nan, math.inf]),
    st.integers(min_value=-(2**80), max_value=2**80),
)


class TestBulkComplexReaders:
    """State, omega and matrix files are read in bulk; the values equal the
    per-pair ``pair_to_complex`` reading bit for bit."""

    @staticmethod
    def reference(pairs) -> np.ndarray:
        return np.array([iojson.pair_to_complex(p) for p in pairs], dtype=complex)

    @staticmethod
    def assert_same_bits(got, expected):
        assert got.dtype == expected.dtype == np.complex128
        assert got.view(np.uint64).tolist() == expected.view(np.uint64).tolist()

    @given(st.lists(st.lists(pair_values, min_size=2, max_size=2), max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_vectors(self, pairs):
        self.assert_same_bits(iojson.state_from_json({"state": pairs}), self.reference(pairs))

    @given(
        st.integers(min_value=0, max_value=4).flatmap(
            lambda cols: st.lists(
                st.lists(
                    st.lists(pair_values, min_size=2, max_size=2), min_size=cols, max_size=cols
                ),
                max_size=4,
            )
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_matrices(self, rows):
        entries = [pair for row in rows for pair in row]
        cols = len(rows[0]) if rows else 0
        obj = {"rows": len(rows), "cols": cols, "entries": entries}
        expected = self.reference(entries).reshape(len(rows), cols)
        self.assert_same_bits(iojson.matrix_from_json(obj), expected)

    @pytest.mark.parametrize(
        "pairs, message",
        [
            ([[1.0, 0.0], [1.0]], "expected a [re, im] pair, got [1.0]"),
            ([[1.0, 0.0], (1.0, True)], "imaginary part must be a real number, got True"),
            ([[0.0, 0.0], [None, 0.0]], "real part must be a real number, got None"),
            ([[0.0, 0.0], "ab"], "expected a [re, im] pair, got 'ab'"),
        ],
    )
    def test_first_bad_pair_named(self, pairs, message):
        with pytest.raises(ValueError) as got:
            iojson.state_from_json({"state": pairs})
        assert str(got.value) == message

    def test_tuples_and_numpy_floats_still_read(self):
        pairs = [(1.0, -0.0), [np.float64(0.5), np.int64(2)]]
        self.assert_same_bits(iojson.state_from_json({"state": pairs}), self.reference(pairs))
