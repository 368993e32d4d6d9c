"""The array build and the array scenario reader against the dict-based
build they replaced (``helpers.reference_build``), bit for bit, and the
kernel against the per-pair formula (``helpers.dense_kernel``): D bit for
bit, K to 1e-12, since one product of isometry rows sums in another order.
The class measure's densities cancel in orthonormal coordinates: the
paper's formulas over any equivalent class measure give the canonical
build's kernel and intertwiner."""

import copy
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    FiniteAbelianGroup,
    PovmBuildError,
    build_covariant_povm,
    intertwiner_matrix,
    iojson,
    position_povm_zn,
    subgroup_from_generators,
)
from helpers import (
    build_rep,
    dense_kernel,
    fibered_instance,
    loop_intertwiner,
    reference_build,
    rescaled_class_measure_gap,
    standard_instances,
)
from scenarios import position, scenario_json


@st.composite
def instances(draw):
    """A group of one or two cyclic factors, a random subgroup, 1 to 4
    sectors with disjoint random supports, random weights and
    multiplicities 1 to 3, and random isometry fields."""
    factors = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    group = FiniteAbelianGroup(factors)
    coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
    generators = draw(st.lists(coords, max_size=2))
    subgroup = subgroup_from_generators(group, [group.element(g) for g in generators])
    n_sectors = draw(st.integers(1, 4))
    points = draw(st.lists(coords, min_size=n_sectors, max_size=8, unique=True))
    weight = st.floats(0.01, 100.0)
    sector_data = [
        ({x: draw(weight) for x in points[k::n_sectors]}, draw(st.integers(1, 3)))
        for k in range(n_sectors)
    ]
    e_dim = max(f for _, f in sector_data) + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rep, fields = build_rep(group, sector_data, rng, e_dim)
    return rep, fields, subgroup, e_dim


def same(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and bool((a == b).all())


def assert_equals_reference(povm, ref):
    table = povm.rep.support_table
    indices, sectors, f_dims, weights, rows, by_f_dim = ref.support_table
    for got, want in zip(
        (table.indices, table.sectors, table.f_dims, table.weights, table.rows),
        (indices, sectors, f_dims, weights, rows),
    ):
        assert same(got, want)
    assert len(table.by_f_dim) == len(by_f_dim)
    assert all(same(got, want) for got, want in zip(table.by_f_dim, by_f_dim))
    data = povm.class_data
    assert same(data.coset_weights, ref.coset_weights)
    assert same(data.lifted_weights, ref.lifted_weights)
    assert same(povm.point_densities, ref.point_densities)
    assert len(povm._isometry_stacks) == len(ref.isometry_stacks)
    assert all(same(got, want) for got, want in zip(povm._isometry_stacks, ref.isometry_stacks))
    index, kernel = dense_kernel(povm)
    assert same(povm._kernel[0], index)
    np.testing.assert_allclose(povm._kernel[1], kernel, rtol=0, atol=1e-12)
    assert same(intertwiner_matrix(povm), ref.intertwiner)


@given(instances())
@settings(max_examples=80, deadline=None)
def test_array_build_equals_dict_build(instance):
    rep, fields, subgroup, e_dim = instance
    ref = reference_build(rep, subgroup, fields, e_dim)
    povm = build_covariant_povm(rep, subgroup, fields, e_dim)
    assert_equals_reference(povm, ref)

    # the same scenario through JSON text and the array reader
    scenario = iojson.Scenario(rep.group, subgroup, rep, e_dim, fields)
    obj = json.loads(json.dumps(iojson.scenario_to_json(scenario)))
    read = iojson.scenario_from_json(obj)
    assert_equals_reference(read.build(), ref)
    assert iojson.scenario_to_json(read) == obj


def assert_class_measure_cancels(povm, rng):
    """The paper's formulas over a class measure with per-coset weights
    drawn from [1e-3, 1e3] give the canonical build's kernel to 1e-12 and
    its intertwiner bit for bit (``helpers.rescaled_class_measure_gap``)."""
    n = np.count_nonzero(povm.class_data.coset_weights)
    assert rescaled_class_measure_gap(povm, 10.0 ** rng.uniform(-3.0, 3.0, n)) <= 1e-12


def test_class_measure_cancels_on_fixed_instances():
    rng = np.random.default_rng(29)
    for _, povm in standard_instances() + [("fibered", fibered_instance())]:
        assert_class_measure_cancels(povm, rng)


@given(instances(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_class_measure_cancels(instance, seed):
    rep, fields, subgroup, e_dim = instance
    povm = build_covariant_povm(rep, subgroup, fields, e_dim)
    assert_class_measure_cancels(povm, np.random.default_rng(seed))


def test_scenario_round_trip_keeps_every_float():
    povm = fibered_instance()
    text = json.dumps(scenario_json(povm))
    again = iojson.scenario_from_json(json.loads(text))
    assert json.dumps(iojson.scenario_to_json(again)) == text
    assert same(again.rep.support_table.weights, povm.rep.support_table.weights)
    stacks = again.build()._isometry_stacks
    assert all(same(a, b) for a, b in zip(stacks, povm._isometry_stacks))


def test_signed_zeros_survive_the_reader():
    obj = {
        "spec_version": 1,
        "group": {"factors": [4]},
        "subgroup": {"generators": []},
        "e_dim": 2,
        "sectors": [{"f_dim": 1, "support": [[[1], 1.0]]}],
        "fields": [{"sector": 0, "matrices": [[[1], [[[-0.0, -0.0]], [[1.0, -0.0]]]]]}],
    }
    w = iojson.scenario_from_json(obj).fields[0].matrices[FiniteAbelianGroup((4,)).character([1])]
    assert np.signbit(w.real).tolist() == [[True], [False]]
    assert np.signbit(w.imag).tolist() == [[True], [True]]


def test_intertwiner_equals_the_per_point_loop():
    povms = [p for _, p in standard_instances()] + [fibered_instance(), position(16, 8)]
    for povm in povms:
        assert same(intertwiner_matrix(povm), loop_intertwiner(povm))


def test_position_build_makes_no_per_point_objects(monkeypatch):
    from covpovm import groups

    rng = np.random.default_rng(1)
    raw = rng.standard_normal((512, 2)) + 1j * rng.standard_normal((512, 2))
    vectors = [v / np.linalg.norm(v) for v in raw]
    calls = []
    original = groups.GroupElement.__post_init__

    def counted(self):
        calls.append(1)
        original(self)

    monkeypatch.setattr(groups.GroupElement, "__post_init__", counted)
    povm = position_povm_zn(512, vectors)
    assert len(calls) <= 4
    assert povm.dimension == 512 and povm.ctx.n_cosets == 512


def shuffled(obj, rnd):
    """A copy of a scenario with the entries of each sector's support and of
    each field's matrices listed in another order."""
    obj = copy.deepcopy(obj)
    for sector in obj["sectors"]:
        rnd.shuffle(sector["support"])
    for field in obj["fields"]:
        rnd.shuffle(field["matrices"])
    return obj


def broken(obj, kind, rnd):
    """A copy of a scenario with one or two of its matrices missing, added
    at points outside their sector's support, or given an extra row, so
    that the build rejects it; None when the scenario has no room for it."""
    obj = copy.deepcopy(obj)
    fields = obj["fields"]
    listed = [(k, i) for k, field in enumerate(fields) for i in range(len(field["matrices"]))]
    if not listed:
        return None
    for k, i in rnd.sample(listed, min(2, len(listed))):
        matrices = fields[k]["matrices"]
        if kind == "missing":
            matrices[i] = None
        elif kind == "wrong shape":
            rows = matrices[i][1]
            rows.append([[0.0, 0.0]] * len(rows[0]))
        else:
            support = {tuple(x) for x, _ in obj["sectors"][k]["support"]}
            factors = obj["group"]["factors"]
            points = [m[0] for m in matrices]
            free = [x for x in np.ndindex(*factors) if x not in support and list(x) not in points]
            if not free:
                return None
            matrices.append([list(rnd.choice(free)), matrices[i][1]])
    for field in fields:
        field["matrices"] = [m for m in field["matrices"] if m is not None]
    return obj


def rejection(obj) -> dict:
    with pytest.raises(PovmBuildError) as exc:
        iojson.scenario_from_json(obj).build()
    return exc.value.details


@given(instances(), st.randoms(use_true_random=False))
@settings(max_examples=80, deadline=None)
def test_listing_order_reads_the_same_scenario(instance, rnd):
    """Supports and matrices listed in any order give the same support
    table and isometry stacks bit for bit, and the same rejections, naming
    the same point."""
    rep, fields, subgroup, e_dim = instance
    scenario = iojson.Scenario(rep.group, subgroup, rep, e_dim, fields)
    obj = json.loads(json.dumps(iojson.scenario_to_json(scenario)))
    povm, again = (iojson.scenario_from_json(o).build() for o in (obj, shuffled(obj, rnd)))
    table, other = povm.rep.support_table, again.rep.support_table
    for name in ("indices", "sectors", "f_dims", "weights", "rows", "sector_f_dims"):
        assert same(getattr(table, name), getattr(other, name)), name
    assert len(table.by_f_dim) == len(other.by_f_dim)
    assert all(same(a, b) for a, b in zip(table.by_f_dim, other.by_f_dim))
    assert len(povm._isometry_stacks) == len(again._isometry_stacks)
    assert all(same(a, b) for a, b in zip(povm._isometry_stacks, again._isometry_stacks))
    for kind, error in (
        ("missing", "isometry field is missing a support point"),
        ("outside", "isometry field has a matrix outside its sector's support"),
        ("wrong shape", "isometry matrix has the wrong shape"),
    ):
        bad = broken(obj, kind, rnd)
        if bad is not None:
            details = rejection(bad)
            assert details["error"] == error
            assert rejection(shuffled(bad, rnd)) == details
