"""The array build and the array scenario reader against the dict-based
build they replaced (``helpers.reference_build``), bit for bit, and the
kernel against the per-pair formula (``helpers.dense_kernel``): D bit for
bit, K to 1e-12, since one product of row factors sums in another order."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    FiniteAbelianGroup,
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
    standard_instances,
)


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
    assert data.quotient_measure.weights == ref.quotient_measure.weights
    assert all(type(w) is float for w in data.quotient_measure.weights.values())
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


def test_scenario_round_trip_keeps_every_float():
    povm = fibered_instance()
    scenario = iojson.Scenario(povm.rep.group, povm.ctx.subgroup, povm.rep, povm.e_dim, povm.fields)
    text = json.dumps(iojson.scenario_to_json(scenario))
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
    rng = np.random.default_rng(8)
    raw = rng.standard_normal((16, 2)) + 1j * rng.standard_normal((16, 2))
    position = position_povm_zn(16, [v / np.linalg.norm(v) for v in raw])
    povms = [p for _, p in standard_instances()] + [fibered_instance(), position]
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
