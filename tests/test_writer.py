"""iojson.dumps writes exactly the text of json.dumps(obj, indent=2), and
every JSON output of the CLI is that text plus a newline. iojson.dump
writes the same text in pieces of bounded size, and nothing when it fails."""

import json
import math
import os
import tracemalloc
import warnings
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import FiniteAbelianGroup, iojson, subgroup_from_generators
from covpovm.cli import main

from helpers import build_rep, fibered_instance
from scenarios import scalar_z12, scenario_json, spec_json, write

SPECIAL_FLOATS = [-0.0, 0.0, 5e-324, 1e16, -1e16, 1e-7, math.nan, math.inf, -math.inf]
AWKWARD_TEXT = ['"', ",", "[", "]", "],[", "[]", "{}", "\n", "é", "π ∑", "\x00", '"],["']

numbers = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(SPECIAL_FLOATS),
    st.integers(),
    st.integers(min_value=2**64, max_value=10**40),
    st.integers(max_value=-(2**64), min_value=-(10**40)),
)
scalars = st.one_of(numbers, st.booleans(), st.none())
texts = st.one_of(st.text(max_size=8), st.sampled_from(AWKWARD_TEXT))
keys = st.one_of(texts, st.integers(), st.floats(), st.booleans(), st.none())
odd_items = st.one_of(
    texts,
    st.dictionaries(texts, scalars, max_size=2),
    st.just([]),
    st.just({}),
    st.lists(st.one_of(scalars, texts), min_size=2, max_size=2),
)


def uniform(depth):
    """Non-empty lists nested ``depth`` deep with scalar leaves, such as [re,
    im] pairs (depth 1) or rows of coordinate pairs (depth 2)."""
    strategy = scalars
    for _ in range(depth):
        strategy = st.lists(strategy, min_size=1, max_size=4)
    return strategy


@st.composite
def numeric_lists_with_an_odd_item(draw):
    """A list of uniform depth 1, 2 or 3 with one odd item inserted at the
    top or inside its first row: a string, a dict, [], or a list of another
    depth."""
    depth = draw(st.integers(min_value=1, max_value=3))
    items = draw(st.lists(uniform(depth - 1), min_size=1, max_size=5))
    target = items[0] if depth > 1 and draw(st.booleans()) else items
    position = draw(st.integers(min_value=0, max_value=len(target)))
    target.insert(position, draw(st.one_of(odd_items, *(uniform(d) for d in range(4)))))
    return items


leaves = st.one_of(
    scalars,
    texts,
    st.lists(scalars, max_size=6),
    st.lists(st.lists(numbers, min_size=2, max_size=2), max_size=6),
    uniform(2),
    uniform(3),
    numeric_lists_with_an_odd_item(),
)
trees = st.recursive(
    leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=5),
        st.lists(children, max_size=3).map(tuple),
        st.dictionaries(keys, children, max_size=5),
    ),
    max_leaves=30,
)


def stock(obj) -> str:
    return json.dumps(obj, indent=2)


def assert_same_text(got: str, want: str) -> None:
    """got == want; on failure, report the first differing offset with 60
    characters of context from each text. A plain ``assert got == want``
    would make pytest diff texts of up to about 400 KB, which takes minutes."""
    if got != want:
        i = len(os.path.commonprefix([got, want]))
        at = slice(max(0, i - 60), i + 60)
        raise AssertionError(
            f"texts differ at offset {i} (lengths {len(got)} and {len(want)}):\n"
            f"  got:  {got[at]!r}\n  want: {want[at]!r}"
        )


class TestDumps:
    @given(trees)
    @settings(max_examples=400, deadline=None)
    def test_matches_stock_encoder(self, obj):
        assert_same_text(iojson.dumps(obj), stock(obj))

    @given(numeric_lists_with_an_odd_item(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=300, deadline=None)
    def test_odd_item_in_numeric_list(self, items, depth):
        obj = items
        for _ in range(depth):
            obj = {"k": [obj]}
        assert_same_text(iojson.dumps(obj), stock(obj))

    @pytest.mark.parametrize(
        "obj",
        [
            [],
            {},
            [[]],
            [[], [1]],
            [[1], []],
            [[1], 2, [3]],
            [1, [2], 3],
            [[1, [2]], [3]],
            [[1], [[2]], [3]],
            [[[1, 2], [3]], [[4]]],
            [[[1]], [[]], [[2]]],
            [[[1]], [], [[2]]],
            [[[1], 2], [[3], 4]],
            [[[1]], [[2, [3]]]],
            [[1.5, -0.0], [5e-324, 1e16]],
            [math.nan, math.inf, -math.inf, 10**40, True, False, None],
            {"a": [[1.0, 2.0]] * 3, 1: None, 2.5: [1], True: {}, None: [[[1]]], False: ()},
            [(1, 2), (3, 4)],
            ("]", "[", 1),
            "x\n\"é",
            np.float64(0.1),
            [np.float64(0.1), 2],
            {np.float64(2.0): [np.float64(-0.0)]},
        ],
    )
    def test_edge_cases(self, obj):
        assert_same_text(iojson.dumps(obj), stock(obj))

    @pytest.mark.parametrize(
        "obj",
        [
            {(1, 2): 1},
            {"a": [[1.0, 2.0], {(0,): 1}]},
            np.int64(3),
            [np.int64(3)],
            [1.0, np.int64(3)],
            [[1.0, 2.0], [np.int64(3), 4.0]],
            [np.float32(0.5)],
            {"a": object()},
            [1j],
            [[1.0], {np.int64(1): 2}, [3.0]],
            [1.0, {np.int64(1): 2}, 3.0],
        ],
    )
    def test_rejects_what_the_stock_encoder_rejects(self, obj):
        with pytest.raises(TypeError) as expected:
            stock(obj)
        with pytest.raises(TypeError) as got:
            iojson.dumps(obj)
        assert str(got.value) == str(expected.value)

    @pytest.mark.parametrize("wrap", [lambda a: a, lambda a: {"k": a}, lambda a: [[1], a]])
    def test_circular_reference(self, wrap):
        loop = [1.0, 2.0]
        loop.append(loop)
        with pytest.raises(ValueError, match="Circular reference detected"):
            iojson.dumps(wrap(loop))

    def test_matrix_entries_equal_complex_to_pair(self):
        rng = np.random.default_rng(9)
        m = rng.standard_normal((5, 7)) + 1j * rng.standard_normal((5, 7))
        m[0, 0] = complex(-0.0, 0.0)
        m[1, 1] = complex(5e-324, -0.0)
        entries = iojson.matrix_to_json(m)["entries"]
        assert entries.dtype == np.float64 and entries.shape == (35, 2)
        assert entries.tolist() == [iojson.complex_to_pair(z) for z in m.reshape(-1)]
        assert math.copysign(1.0, entries[0, 0]) == -1.0
        assert entries[8, 0] == 5e-324 and math.copysign(1.0, entries[8, 1]) == -1.0

    def test_pairs_share_memory_with_contiguous_input(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((4, 3)) + 1j * rng.standard_normal((4, 3))
        for a in (m, m[1:], m.reshape(-1)):
            pairs = iojson.pairs_to_json(a)
            assert np.shares_memory(pairs, m) and pairs.shape == (*a.shape, 2)
            assert pairs.tolist() == np.stack((a.real, a.imag), axis=-1).tolist()
        assert np.shares_memory(iojson.matrix_to_json(m)["entries"], m)
        for a in (m.T, m[:, ::2]):  # not C-contiguous: a copy with the same floats
            pairs = iojson.pairs_to_json(a)
            assert not np.shares_memory(pairs, m)
            assert pairs.tolist() == [[iojson.complex_to_pair(z) for z in row] for row in a]
        scalar = iojson.pairs_to_json(complex(-0.0, 2.5))
        assert scalar.shape == (2,) and scalar.tolist() == [-0.0, 2.5]
        assert math.copysign(1.0, scalar[0]) == -1.0


# --- streamed writing ---------------------------------------------------------

PIECE = iojson._PIECE_LEAVES
STREAM_SPECIALS = [-0.0, 0.0, 5e-324, 2.5e-310, 1e16, -1e16, 1e-5, 0.1, 1e300]


class Recorder:
    """A file object that keeps every string written to it."""

    def __init__(self):
        self.pieces = []

    def write(self, text):
        self.pieces.append(text)


@st.composite
def streamed_arrays(draw):
    """An int or float array of ndim 1-3 whose first axis holds 1, or one
    less than, as many as, or one more than the axis-0 slices of one piece;
    float leaves include signed zeros, subnormals and large and small
    exponents."""
    ndim = draw(st.integers(min_value=1, max_value=3))
    inner = tuple(draw(st.lists(st.integers(1, 3), min_size=ndim - 1, max_size=ndim - 1)))
    step = max(1, PIECE // math.prod(inner))
    rows = draw(st.sampled_from([1, max(1, step - 1), step, step + 1]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    shape = (rows, *inner)
    if draw(st.booleans()):
        return rng.integers(-(2**63), 2**63 - 1, size=shape, dtype=np.int64, endpoint=True)
    a = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    flat = a.reshape(-1)
    for value in draw(st.lists(st.sampled_from(STREAM_SPECIALS), max_size=6)):
        flat[draw(st.integers(min_value=0, max_value=flat.size - 1))] = value
    return a


ZERO_HEAVY = [0.0] * 6 + [-0.0] * 3 + [5e-324, 1e16, 1e-5]


@st.composite
def zero_heavy_arrays(draw):
    """A float16, float32 or float64 array of ndim 1-3 whose first axis
    holds 1, or one less than, as many as, or one more than the axis-0
    slices of one piece; its leaves are all +0.0, free of +0.0, or drawn
    mostly from +0.0 and -0.0, with 5e-324, 1e16, 1e-5 and random values."""
    dtype = draw(st.sampled_from([np.float16, np.float32, np.float64]))
    ndim = draw(st.integers(min_value=1, max_value=3))
    inner = tuple(draw(st.lists(st.integers(1, 3), min_size=ndim - 1, max_size=ndim - 1)))
    step = max(1, PIECE // math.prod(inner))
    shape = (draw(st.sampled_from([1, max(1, step - 1), step, step + 1])), *inner)
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32)))
    mix = draw(st.sampled_from(["mixed", "all +0.0", "no +0.0"]))
    if mix == "all +0.0":
        return np.zeros(shape, dtype=dtype)
    leaves = rng.choice(np.array(ZERO_HEAVY), size=shape)
    random = rng.random(shape) < 0.2
    leaves[random] = rng.standard_normal(np.count_nonzero(random))
    top = float(np.finfo(dtype).max)  # 1e16 is 65504 in float16
    a = np.clip(leaves, -top, top).astype(dtype)
    if mix == "no +0.0":
        a[(a == 0) & ~np.signbit(a)] = -0.0
    return a


def nest(obj, data):
    """obj wrapped in up to three levels of dicts and lists beside other
    items, so its block sits at several indents."""
    for _ in range(data.draw(st.integers(min_value=0, max_value=3))):
        obj = data.draw(
            st.sampled_from([{"k": obj}, [obj], [1, obj, "x"], {"a": [], "b": {"c": obj}}])
        )
    return obj


def dumped_size_and_peak(obj) -> tuple[int, int]:
    """Length of the text ``iojson.dump`` writes, and the tracemalloc peak
    while it writes to a sink that keeps nothing."""

    class Discard:
        size = 0

        def write(self, text):
            self.size += len(text)

    sink = Discard()
    tracemalloc.start()
    try:
        iojson.dump(obj, sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return sink.size, peak


class TestDump:
    @given(st.lists(streamed_arrays(), min_size=1, max_size=2), st.data())
    @settings(max_examples=60, deadline=None)
    def test_pieces_join_to_the_stock_text(self, arrays, data):
        obj = nest(arrays if len(arrays) > 1 else arrays[0], data)
        sink = Recorder()
        iojson.dump(obj, sink)
        expected = json.dumps(obj, indent=2, default=lambda a: a.tolist())
        assert_same_text("".join(sink.pieces), expected)
        assert_same_text(iojson.dumps(obj), expected)

    @given(zero_heavy_arrays(), st.integers(min_value=0, max_value=3))
    @settings(max_examples=80, deadline=None)
    def test_zero_leaves_written_as_text(self, a, depth):
        """+0.0 leaves, written as text in the template, give the bytes of
        the stock encoder on the array's tolist(), at several indents."""
        obj = a
        for _ in range(depth):
            obj = {"k": [obj]}
        sink = Recorder()
        iojson.dump(obj, sink)
        want = json.dumps(obj, indent=2, default=lambda a: a.tolist())
        assert_same_text("".join(sink.pieces), want)

    @pytest.mark.parametrize("bad", ["unknown", "circular"])
    def test_failure_writes_nothing(self, bad):
        if bad == "unknown":
            tail, error = object(), TypeError
        else:
            tail, error = [2.0], ValueError
            tail.append(tail)
        block = np.arange(3 * PIECE, dtype=float).reshape(-1, 3)
        for obj in ([block, tail], {"a": block, "b": {"c": tail}}):
            sink = Recorder()
            with pytest.raises(error):
                iojson.dump(obj, sink)
            assert sink.pieces == []

    def test_peak_memory_does_not_grow_with_the_text(self):
        rng = np.random.default_rng(512)
        m = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        size, peak = dumped_size_and_peak(iojson.matrix_to_json(m))
        assert size > 10_000_000
        assert peak < 4_000_000

    def test_peak_memory_with_structural_zeros(self):
        """The same bound when 15/16 of the entries are +0.0, which the
        writer puts in its templates as text."""
        rng = np.random.default_rng(512)
        m = rng.standard_normal((512, 512)) + 1j * rng.standard_normal((512, 512))
        m.reshape(-1)[rng.permutation(m.size)[: m.size // 16 * 15]] = 0.0
        size, peak = dumped_size_and_peak(iojson.matrix_to_json(m))
        assert size > 9_000_000
        assert peak < 4_000_000


# --- CLI byte identity -------------------------------------------------------


def z12_files():
    """README's scalar Z_12 scenario (H = <4>) and its group spec."""
    scenario = scalar_z12()
    return scenario, spec_json(scenario)


def fibered_files():
    """helpers.fibered_instance (Z_4 x Z_4, H = <(0, 2)>) as a scenario file."""
    povm = fibered_instance()
    scenario = scenario_json(povm)
    return scenario, spec_json(scenario)


def z8sq_fibered_files():
    """Z_8 x Z_8 with H = <(0, 2)> (16 cosets) and 24 random characters in
    sectors of multiplicities 1, 2 and 1, as a scenario file."""
    rng = np.random.default_rng(88)
    group = FiniteAbelianGroup((8, 8))
    points = [divmod(int(p), 8) for p in rng.permutation(64)[:24]]
    sector_data = [
        ({x: rng.uniform(0.5, 2.0) for x in points[k::3]}, f) for k, f in enumerate((1, 2, 1))
    ]
    rep, fields = build_rep(group, sector_data, rng, e_dim=2)
    subgroup = subgroup_from_generators(group, [group.element([0, 2])])
    scenario = iojson.scenario_to_json(iojson.Scenario(group, subgroup, rep, 2, fields))
    return scenario, spec_json(scenario)


def rejected(scenario):
    """The scenario with its first isometry entry scaled off the unit sphere."""
    bad = json.loads(json.dumps(scenario))
    pair = bad["fields"][0]["matrices"][0][1][0][0]
    pair[0] = 1.5 * pair[0] + 0.25
    return bad


def assert_stock_text(out: str):
    assert_same_text(out, stock(json.loads(out)) + "\n")


@pytest.mark.parametrize("files", [z12_files, fibered_files], ids=["z12", "fibered"])
class TestCliByteIdentity:
    def test_group(self, tmp_path, capsys, files):
        _, spec = files()
        assert main(["group", write(tmp_path, "g.json", spec)]) == 0
        assert_stock_text(capsys.readouterr().out)

    def test_build(self, tmp_path, capsys, files):
        scenario, _ = files()
        assert main(["build", write(tmp_path, "s.json", scenario)]) == 0
        assert_stock_text(capsys.readouterr().out)

    def test_matrix(self, tmp_path, capsys, files):
        # the values too: the stock text of the effect evaluated in-process,
        # for the constant omega and for --omega
        scenario, _ = files()
        scen = write(tmp_path, "s.json", scenario)
        povm = iojson.scenario_from_json(scenario).build()
        q = povm.ctx.n_cosets
        values = {"values": np.random.default_rng(q).standard_normal((q, 2)).tolist()}
        omega = iojson.quotient_function_from_json(values)
        for argv, function in (([], np.ones(q)), (["--omega", write(tmp_path, "o.json", values)], omega)):
            assert main(["matrix", scen, *argv]) == 0
            want = iojson.matrix_to_json(povm.assembled(function))
            want["entries"] = want["entries"].tolist()
            assert_same_text(capsys.readouterr().out, stock(want) + "\n")

    def test_verify_and_dumped_matrices(self, tmp_path, capsys, files):
        scenario, _ = files()
        dump = tmp_path / "dump"
        assert main(["verify", write(tmp_path, "s.json", scenario), "--dump-matrices", str(dump)]) == 0
        assert_stock_text(capsys.readouterr().out)
        dumped = sorted(dump.iterdir())
        assert len(dumped) == 1 + iojson.scenario_from_json(scenario).build().ctx.n_cosets
        for path in dumped:
            text = path.read_text()
            assert_same_text(text, stock(json.loads(text)))

    def test_rejection_exits_4(self, tmp_path, capsys, files):
        scenario, _ = files()
        assert main(["build", write(tmp_path, "bad.json", rejected(scenario))]) == 4
        out = capsys.readouterr().out
        assert json.loads(out)["rejected"]["sector"] == 0
        assert_stock_text(out)


# --- arrays and rectangular lists ---------------------------------------------

ARRAY_SPECIALS = [-0.0, 5e-324, 1e16, math.nan, math.inf, -math.inf]
with warnings.catch_warnings():  # np.matrix is pending deprecation
    warnings.simplefilter("ignore", PendingDeprecationWarning)
    MATRIX = np.matrix([[1, 2], [3, 4]])  # a subclass whose ravel() stays 2-d
array_shapes = st.one_of(
    st.just(()), st.lists(st.integers(min_value=0, max_value=4), min_size=1, max_size=4)
)
array_kinds = {
    "int64": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "uint64": st.integers(min_value=0, max_value=2**64 - 1)
    | st.integers(min_value=2**63, max_value=2**64 - 1),
    "float64": st.floats() | st.sampled_from(ARRAY_SPECIALS),
    "float32": st.floats(width=32) | st.sampled_from(ARRAY_SPECIALS),
    "bool": st.booleans(),
    "complex128": st.complex_numbers(max_magnitude=1e6),
}


@st.composite
def numpy_arrays(draw):
    dtype = draw(st.sampled_from(sorted(array_kinds)))
    shape = tuple(draw(array_shapes))
    size = math.prod(shape)
    values = draw(st.lists(array_kinds[dtype], min_size=size, max_size=size))
    return np.array(values, dtype=dtype).reshape(shape)


array_trees = st.recursive(
    numpy_arrays() | scalars | texts,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(texts, children, max_size=4),
    max_leaves=12,
)


def tolist(o):
    """The ``default`` of the reference text: an array as its tolist(),
    anything else rejected with the stock message."""
    if isinstance(o, np.ndarray):
        return o.tolist()
    raise TypeError(f"Object of type {o.__class__.__name__} is not JSON serializable")


def assert_stock_outcome(obj):
    """dumps(obj) equals json.dumps(obj, indent=2, default=tolist), or raises
    the same error with the same message."""
    try:
        text = json.dumps(obj, indent=2, default=tolist)
    except (TypeError, ValueError) as exc:
        with pytest.raises(type(exc)) as got:
            iojson.dumps(obj)
        assert str(got.value) == str(exc)
    else:
        assert_same_text(iojson.dumps(obj), text)


def lists_in(obj) -> list:
    """Every list and tuple in obj, in the order the encoder meets them."""
    found, children = [], ()
    if isinstance(obj, (list, tuple)):
        found, children = [obj], obj
    elif isinstance(obj, dict):
        children = obj.values()
    for child in children:
        found += lists_in(child)
    return found


@st.composite
def rectangular(draw, leaves):
    shape = draw(st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4))
    flat = draw(st.lists(leaves, min_size=math.prod(shape), max_size=math.prod(shape)))
    return np.array(flat, dtype=object).reshape(shape).tolist()


exact_floats = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [-0.0, 5e-324, 1e16]
)


class TestShapedText:
    @given(array_trees)
    @settings(max_examples=400, deadline=None)
    def test_arrays_match_stock_encoder_on_tolist(self, obj):
        assert_stock_outcome(obj)

    @pytest.mark.parametrize(
        "array",
        [
            np.array(3),
            np.array(-0.0),
            np.array(True),
            np.array(1 + 2j),
            np.zeros((0,)),
            np.zeros((2, 0, 3), dtype=np.int64),
            np.array([[True, False]]),
            np.array([[1 + 2j]]),
            np.array([1, "a", None], dtype=object),
            np.array([[0.5, math.nan], [math.inf, -0.0]]),
            np.array([1.0, -math.inf]),
            np.full((2, 2), math.nan, dtype=np.float32),
            np.array([1, object()], dtype=object),
            np.array([np.int64(3)], dtype=object),
            np.arange(5),
            np.arange(6.0).reshape(2, 3) - 2.5,
            np.array([2**64 - 1, 2**63], dtype=np.uint64),
            np.array([1.0, 2.0], dtype=np.longdouble),
            np.arange(24, dtype=np.int8).reshape(2, 3, 4),
            np.array([[0.1, -0.0]], dtype=np.float16),
            MATRIX,
        ],
    )
    def test_array_edge_cases(self, array):
        # at the top, in a tuple, and three deep in lists and dicts
        for obj in (
            array,
            [array],
            {"k": [1, array]},
            (array, "x", (array,)),
            [[[array, 1], {"k": {"j": array}}]],
            {"a": {"b": {"c": [array, array]}}},
        ):
            assert_stock_outcome(obj)

    @pytest.mark.parametrize(
        "text", ["\0cafe\0", "cafe", '"\0cafe\0', '\0cafe\0"', "\\u0000cafe\\u0000"]
    )
    def test_placeholder_text_in_obj_is_written_as_itself(self, text):
        # with the nonce fixed, a value or key that the stock encoder writes
        # with the placeholder's text in it makes dumps draw a new nonce
        forged = json.dumps("\0cafe\0") in json.dumps(text)
        for obj in ([text, np.arange(3.0)], {text: np.eye(2)}, {"k": [np.arange(2), {text: text}]}):
            with patch.object(iojson, "_nonce", side_effect=["cafe", "beef"]) as nonce:
                assert_stock_outcome(obj)
            assert nonce.call_count == 1 + forged

    @given(
        rectangular(exact_floats),
        st.sampled_from([np.float64(0.1), True, False, None, 7, math.nan, math.inf, "ragged"]),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_other_number_lists_match_stock_encoder(self, obj, odd, data):
        # one leaf of another type, or one row made shorter or longer
        rows = obj
        while isinstance(rows[0], list) and data.draw(st.booleans()):
            rows = rows[data.draw(st.integers(min_value=0, max_value=len(rows) - 1))]
        i = data.draw(st.integers(min_value=0, max_value=len(rows) - 1))
        if odd != "ragged":
            row = rows
            while isinstance(row[i], list):
                row, i = row[i], 0
            row[i] = odd
        elif isinstance(rows[i], list):
            rows[i] = rows[i][1:] or rows[i] * 2
        assert_same_text(iojson.dumps(obj), stock(obj))

    def test_self_containing_list_and_array(self):
        loop = []
        loop.append(loop)
        holder = np.empty(1, dtype=object)
        holder[0] = holder
        for obj in (loop, [loop, loop], {"k": loop}, holder, [holder]):
            with pytest.raises(ValueError, match="Circular reference detected"):
                iojson.dumps(obj)

    def test_numeric_tables_reach_the_writer_as_arrays(self, tmp_path, capsys):
        # on a fibered Z_8 x Z_8 scenario, no coordinate table, pairing
        # table or matrix-entry list may reach the stock encoder as a list,
        # neither in the object it is given nor from the array hook
        scenario, spec = z8sq_fibered_files()
        scen, spec_path = write(tmp_path, "s.json", scenario), write(tmp_path, "g.json", spec)
        omega = write(tmp_path, "o.json", {"values": [[1.0, -0.5]] * 16})
        lists = []
        stock_dumps = json.dumps

        def recording(obj, **kwargs):
            hook = kwargs.get("default")
            if hook is None:  # the placeholder's text
                return stock_dumps(obj, **kwargs)

            def default(o):
                out = hook(o)
                if not isinstance(out, str):
                    lists.append(out)
                return out

            lists.extend(lists_in(obj))
            return stock_dumps(obj, **{**kwargs, "default": default})

        with patch.object(iojson.json, "dumps", recording):
            assert main(["matrix", scen]) == 0
            assert main(["matrix", scen, "--omega", omega]) == 0
            assert lists == []
            capsys.readouterr()
            assert main(["group", spec_path]) == 0
        out = capsys.readouterr().out
        assert_stock_text(out)
        generators = json.loads(out)["subgroup"]["generators"]
        assert lists == [[8, 8], generators, *generators]
