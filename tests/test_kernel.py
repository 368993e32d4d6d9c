"""The flat (D, K) kernel behind CovariantPOVM.apply, against the
intertwiner route and against the per-pair kernel formula."""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    FiniteAbelianGroup,
    apply_via_intertwiner,
    build_covariant_povm,
    subgroup_from_generators,
)
from helpers import (
    build_rep, dense_kernel, pairing_is_one, point_density, random_povms, sector_slices
)


@st.composite
def kernel_scenarios(draw):
    """A group of one or two cyclic factors, a random subgroup, disjoint
    sectors of multiplicity 1 to 3 with random weights, random isometry
    fields, and a random outcome function."""
    factors = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    group = FiniteAbelianGroup(factors)
    coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
    generators = draw(st.lists(coords, max_size=2))
    subgroup = subgroup_from_generators(group, [group.element(g) for g in generators])
    points = draw(st.lists(coords, min_size=1, max_size=6, unique=True))
    n_sectors = draw(st.integers(1, len(points)))
    weight = st.floats(0.1, 4.0)
    sector_data = [
        ({x: draw(weight) for x in points[s::n_sectors]}, draw(st.integers(1, 3)))
        for s in range(n_sectors)
    ]
    e_dim = max(f for _, f in sector_data) + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rep, fields = build_rep(group, sector_data, rng, e_dim)
    povm = build_covariant_povm(rep, subgroup, fields, e_dim=e_dim)
    q = povm.ctx.n_cosets
    omega = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    return povm, omega


def basis_characters(rep):
    """Character of each rep basis row, from the sector supports."""
    return [
        x
        for spec in rep.sectors
        for x in sorted(spec.rho.support)
        for _ in range(spec.f_dim)
    ]


@given(kernel_scenarios())
@settings(max_examples=60, deadline=None)
def test_flat_kernel_properties(scenario):
    povm, omega = scenario
    op = povm.apply(omega)
    matrix = op.assemble()

    oracle = apply_via_intertwiner(povm, omega).assemble()
    assert np.abs(matrix - oracle).max(initial=0.0) < 1e-9

    offset = 0
    offsets = []
    for spec in povm.rep.sectors:
        offsets.append((offset, offset + len(spec.rho.support) * spec.f_dim))
        offset = offsets[-1][1]
    assert [(s.start, s.stop) for s in sector_slices(povm.rep)] == offsets

    chars = basis_characters(povm.rep)
    generators = povm.ctx.subgroup.generators
    for r, x in enumerate(chars):
        for c, xp in enumerate(chars):
            if not all(pairing_is_one(x - xp, h) for h in generators):
                assert matrix[r, c] == 0


@given(random_povms(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_row_factor_kernel_equals_per_pair_kernel(povm, seed):
    """D bit for bit, and K and M(omega) to 1e-12, against the kernel by
    one batched overlap per pair of multiplicities."""
    index, kernel = dense_kernel(povm)
    assert np.array_equal(povm._kernel[0], index)
    np.testing.assert_allclose(povm._kernel[1], kernel, rtol=0, atol=1e-12)
    rng = np.random.default_rng(seed)
    q = povm.ctx.n_cosets
    omega = rng.standard_normal(q) + 1j * rng.standard_normal(q)
    fo = np.concatenate((povm.ctx.cotransform(omega), [0.0]))
    np.testing.assert_allclose(povm.assembled(omega), fo[index] * kernel, rtol=0, atol=1e-12)


def test_kernel_equals_per_pair_formula_exactly():
    """D and K against the kernel formula evaluated one support-point pair
    at a time: D exactly, K and the assembled matrix to 1e-12, since K is
    one product of isometry rows and sums in another order."""
    group = FiniteAbelianGroup((12,))
    subgroup = subgroup_from_generators(group, [group.element([4])])
    rng = np.random.default_rng(5)
    rep, fields = build_rep(
        group,
        [
            ({(0,): 1.0, (3,): 2.5, (5,): 0.5}, 1),
            ({(1,): 0.75, (4,): 3.0}, 2),
            ({(7,): 1.5, (9,): 0.25}, 3),
            ({(6,): 2.0}, 1),
        ],
        rng,
        e_dim=4,
    )
    povm = build_covariant_povm(rep, subgroup, fields, e_dim=4)
    ctx = povm.ctx
    hperp = {y: i for i, y in enumerate(ctx.hperp_points)}

    n = rep.dimension
    expected_d = -np.ones((n, n), dtype=np.int64)
    expected_k = np.zeros((n, n), dtype=complex)
    for j, spec_j in enumerate(rep.sectors):
        f_j = spec_j.f_dim
        for a, x in enumerate(rep.sector_points[j]):
            r = sector_slices(rep)[j].start + a * f_j
            w_j = fields[j].matrices[x]
            for k, spec_k in enumerate(rep.sectors):
                f_k = spec_k.f_dim
                for b, xp in enumerate(rep.sector_points[k]):
                    if x - xp not in hperp:
                        continue
                    c = sector_slices(rep)[k].start + b * f_k
                    ratio = math.sqrt(point_density(povm, k, xp) / point_density(povm, j, x))
                    scale = math.sqrt(spec_j.rho(x) / spec_k.rho(xp))
                    expected_d[r : r + f_j, c : c + f_k] = hperp[x - xp]
                    expected_k[r : r + f_j, c : c + f_k] = (
                        ctx.hperp_weight * ratio * scale * (w_j.conj().T @ fields[k].matrices[xp])
                    )

    index, kernel = povm._kernel
    assert np.array_equal(index, expected_d)
    np.testing.assert_allclose(kernel, expected_k, rtol=0, atol=1e-12)

    omega = rng.standard_normal(ctx.n_cosets) + 1j * rng.standard_normal(ctx.n_cosets)
    fo = ctx.cotransform(omega)
    expected = np.where(expected_d >= 0, fo[expected_d], 0.0) * expected_k
    np.testing.assert_allclose(povm.assembled(omega), expected, rtol=0, atol=1e-12)
