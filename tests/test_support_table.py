"""The support table behind DiagonalRep and the POVM layer, against the
per-pair and per-point formulas it replaced, and the input it rejects."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    DOMAIN_DUAL,
    DiagonalRep,
    FiniteAbelianGroup,
    IsometryField,
    PovmBuildError,
    SectorSpec,
    WeightedMeasure,
    build_covariant_povm,
    equivalence_check,
    sector_pointwise_operator,
    subgroup_from_generators,
    validate_rep,
)
from covpovm import iojson
from covpovm.cli import main
from helpers import (
    brute_equivalence_deviation,
    brute_overlap_details,
    brute_sector_pointwise_operator,
    brute_u_matrix,
    build_rep,
    random_isometry,
    scalar_z12_povm,
)
from scenarios import scalar, write

Z12 = FiniteAbelianGroup((12,))


@st.composite
def sector_families(draw, disjoint=None):
    """A group of one or two cyclic factors, a random subgroup, and 1 to 4
    sectors of multiplicity 1 to 3 over random characters: split from one
    point list (disjoint) or drawn per sector (overlapping)."""
    factors = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    group = FiniteAbelianGroup(factors)
    coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
    generators = draw(st.lists(coords, max_size=2))
    subgroup = subgroup_from_generators(group, [group.element(g) for g in generators])
    n_sectors = draw(st.integers(1, 4))
    if disjoint is None:
        disjoint = draw(st.booleans())
    if disjoint:
        points = draw(st.lists(coords, min_size=n_sectors, max_size=8, unique=True))
        supports = [points[s::n_sectors] for s in range(n_sectors)]
    else:
        supports = [
            draw(st.lists(coords, min_size=1, max_size=5, unique=True))
            for _ in range(n_sectors)
        ]
    weight = st.floats(0.1, 4.0)
    sector_data = [
        ({x: draw(weight) for x in support}, draw(st.integers(1, 3))) for support in supports
    ]
    e_dim = max(f for _, f in sector_data) + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rep, fields = build_rep(group, sector_data, rng, e_dim)
    return rep, fields, subgroup, e_dim, rng


def random_unitary_maps(rep, rng):
    return [
        {x: random_isometry(rng, spec.f_dim, spec.f_dim) for x in spec.rho.support}
        for spec in rep.sectors
    ]


@given(sector_families())
@settings(max_examples=60, deadline=None)
def test_rep_layer_equals_per_pair_formulas(family):
    rep, _, _, _, rng = family
    expected = brute_overlap_details(rep)
    if expected is None:
        validate_rep(rep)
    else:
        with pytest.raises(PovmBuildError) as exc:
            validate_rep(rep)
        assert exc.value.details == expected

    for g in rep.group.elements():
        assert (rep.u_matrix(g) == brute_u_matrix(rep, g)).all()

    maps = random_unitary_maps(rep, rng)
    assert (sector_pointwise_operator(rep, maps) == brute_sector_pointwise_operator(rep, maps)).all()


@given(sector_families(disjoint=True))
@settings(max_examples=60, deadline=None)
def test_equivalence_deviation_equals_per_pair_formula(family):
    rep, fields, subgroup, e_dim, rng = family
    povm_a = build_covariant_povm(rep, subgroup, fields, e_dim=e_dim)
    rotation = random_isometry(rng, e_dim, e_dim)
    rotated = tuple(
        IsometryField(f.sector, {x: rotation @ m for x, m in f.matrices.items()}) for f in fields
    )
    povm_b = build_covariant_povm(rep, subgroup, rotated, e_dim=e_dim)
    for other in (povm_a, povm_b):
        maps = random_unitary_maps(rep, rng)
        result = equivalence_check(povm_a, other, maps)
        assert abs(result.max_deviation - brute_equivalence_deviation(povm_a, other, maps)) <= 1e-15


def test_overlap_details_list_pairs_and_sorted_points():
    sectors = tuple(
        SectorSpec(WeightedMeasure(DOMAIN_DUAL, {Z12.character([c]): 1.0 for c in cs}), 1)
        for cs in ([5, 0, 3], [3, 0], [7], [0, 7, 5])
    )
    with pytest.raises(PovmBuildError) as exc:
        validate_rep(DiagonalRep(Z12, sectors))
    assert exc.value.details["overlaps"] == [
        {"sectors": [0, 1], "points": [[0], [3]]},
        {"sectors": [0, 3], "points": [[0], [5]]},
        {"sectors": [1, 3], "points": [[0]]},
        {"sectors": [2, 3], "points": [[7]]},
    ]


def test_group_element_support_point_rejected():
    rho = WeightedMeasure(DOMAIN_DUAL, {Z12.element([3]): 1.0})
    rep = DiagonalRep(Z12, (SectorSpec(rho, 1),))
    with pytest.raises(PovmBuildError) as exc:
        validate_rep(rep)
    assert exc.value.details == {
        "error": "sector support point is not a character of the group",
        "point": [3],
    }
    fields = (IsometryField(0, {Z12.element([3]): np.array([[1.0]])}),)
    with pytest.raises(PovmBuildError):
        build_covariant_povm(rep, subgroup_from_generators(Z12, []), fields, e_dim=1)


def test_field_matrix_outside_support_rejected():
    povm = scalar_z12_povm()
    x0 = povm.rep.sector_points[0][0]
    fields = (
        IsometryField(0, {x0: np.array([[1.0]]), Z12.character([5]): np.array([[7.0]])}),
    )
    with pytest.raises(PovmBuildError) as exc:
        build_covariant_povm(povm.rep, povm.ctx.subgroup, fields, e_dim=1)
    assert exc.value.details == {
        "error": "isometry field has a matrix outside its sector's support",
        "sector": 0,
        "point": [5],
    }


def test_cli_build_field_matrix_outside_support_exits_4(tmp_path, capsys):
    scenario = scalar([12], [[4]], [([0], 1.0)], [([0], [1.0, 0.0]), ([5], [7.0, 0.0])])
    assert main(["build", write(tmp_path, "s.json", scenario)]) == 4
    rejected = json.loads(capsys.readouterr().out)["rejected"]
    assert rejected["sector"] == 0
    assert rejected["point"] == [5]


def test_cli_build_field_matrix_at_zero_weight_named(tmp_path, capsys):
    # the reader leaves a point listed with weight 0 out of the support; a
    # matrix there is named as at a zero weight, not as outside the support
    support = [([0], 1.0), ([3], 0.0), ([6], 0.5)]
    matrices = [([0], [1.0, 0.0]), ([3], [0.0, 1.0]), ([6], [0.0, -1.0])]
    scenario = scalar([12], [[4]], support, matrices)
    message = "isometry field has a matrix at a point listed with weight 0 (sector 0, point [3])"
    assert main(["build", write(tmp_path, "s.json", scenario)]) == 4
    out, err = capsys.readouterr()
    assert err == f"build rejected: {message}\n"
    assert json.loads(out)["rejected"] == {
        "error": message, "sector": 0, "point": [3], "weight": 0.0,
    }
    # the listed coordinates reduce mod the factors, and -0.0 is a zero weight
    scenario["sectors"][0]["support"][1] = [[15], -0.0]
    scenario["fields"][0]["matrices"][1][0] = [-9]
    with pytest.raises(PovmBuildError) as exc:
        iojson.scenario_from_json(scenario).build()
    assert str(exc.value) == message


def test_matrix_outside_support_beside_a_zero_weight_keeps_its_text(tmp_path, capsys):
    # a zero weight elsewhere, or in another sector, does not rename it
    scenario = scalar([12], [[4]], [([0], 1.0), ([3], 0.0)], [([0], [1.0, 0.0]), ([5], [7.0, 0.0])])
    scenario["sectors"].append({"f_dim": 1, "support": [[[5], 0.0], [[7], 1.0]]})
    scenario["fields"].append({"sector": 1, "matrices": [[[7], [[[1.0, 0.0]]]]]})
    assert main(["build", write(tmp_path, "s.json", scenario)]) == 4
    out, err = capsys.readouterr()
    assert err == "build rejected: isometry field has a matrix outside its sector's support\n"
    assert json.loads(out)["rejected"] == {
        "error": "isometry field has a matrix outside its sector's support",
        "sector": 0,
        "point": [5],
    }


def test_support_table_is_in_basis_order():
    group = FiniteAbelianGroup((4, 3))
    rng = np.random.default_rng(3)
    rep, _ = build_rep(
        group,
        [({(2, 1): 1.0, (0, 2): 2.0, (1, 0): 0.5}, 2), ({(3, 2): 1.5, (0, 0): 0.25}, 1)],
        rng,
        e_dim=2,
    )
    table = rep.support_table
    assert table.indices.tolist() == [group.index_of(x) for pts in rep.sector_points for x in pts]
    assert [list(x.coords) for x in rep.sector_points[0]] == [[0, 2], [1, 0], [2, 1]]
    assert table.weights.tolist() == [2.0, 0.5, 1.0, 0.25, 1.5]
    assert table.rows.tolist() == [0, 0, 1, 1, 2, 2, 3, 4]
    assert table.row_starts.tolist() == [0, 2, 4, 6, 7]



Z4 = FiniteAbelianGroup((4,))
LENGTHS = "support arrays differ in length"
INDEX = "support index is outside [0, |G|)"
SECTOR = "support sector does not exist"
WEIGHT = "support weight is not finite and > 0"


@pytest.mark.parametrize(
    "sectors, indices, weights, details",
    [
        ([0, 0], [1], [1.0], {"error": LENGTHS, "sectors": 2, "indices": 1, "weights": 1}),
        ([0], [1, 2], [1.0, 1.0], {"error": LENGTHS, "sectors": 1, "indices": 2, "weights": 2}),
        ([0, 0], [1, -1], [1.0, 1.0], {"error": INDEX, "position": 1, "value": -1}),
        ([0], [7], [1.0], {"error": INDEX, "position": 0, "value": 7}),
        ([0, 2], [1, 2], [1.0, 1.0], {"error": SECTOR, "position": 1, "value": 2}),
        ([-1], [1], [1.0], {"error": SECTOR, "position": 0, "value": -1}),
        ([0], [1], [0.0], {"error": WEIGHT, "position": 0, "value": 0.0}),
        ([0], [1], [-1.0], {"error": WEIGHT, "position": 0, "value": -1.0}),
        ([0], [1], [np.inf], {"error": WEIGHT, "position": 0, "value": np.inf}),
    ],
    ids=["short indices", "short sectors", "index -1", "index 7", "sector 2", "sector -1",
         "weight 0", "weight -1", "weight inf"],
)
def test_of_arrays_rejects_bad_support_arrays(sectors, indices, weights, details):
    with pytest.raises(PovmBuildError) as exc:
        DiagonalRep.of_arrays(Z4, sectors, indices, weights, [1, 1])
    assert exc.value.details == details


def test_of_arrays_rejects_a_nan_weight():
    with pytest.raises(PovmBuildError, match=WEIGHT) as exc:
        DiagonalRep.of_arrays(Z4, [0, 0], [1, 3], [1.0, np.nan], [1])
    assert exc.value.details["position"] == 1
    assert np.isnan(exc.value.details["value"])
