"""Shared test utilities: brute-force oracles and instance builders."""

import functools
import math

import numpy as np

from types import SimpleNamespace

from hypothesis import strategies as st

from covpovm import (
    DOMAIN_DUAL,
    DOMAIN_DUAL_QUOTIENT,
    DiagonalRep,
    DiagonalSpace,
    DualCharacter,
    FieldTable,
    FiniteAbelianGroup,
    IsometryField,
    PhaseObservable,
    PovmBuildError,
    QuotientContext,
    QuotientGroup,
    SectorSpec,
    WeightedMeasure,
    assemble_phase_difference_operator,
    assemble_phase_operator,
    build_covariant_povm,
    intertwiner_matrix,
    pairing,
    phase_difference_matrix_element,
    phase_matrix_element,
    subgroup_from_generators,
    transported_multiplication_act,
    transported_multiplication_matrix,
)


def random_isometry(rng, rows, cols):
    m = rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))
    q, _ = np.linalg.qr(m)
    return q[:, :cols]


def brute_closure(group, generators):
    """Fixpoint closure under pairwise sums, independent of the BFS route."""
    elems = {group.zero} | set(generators)
    while True:
        new = {a + b for a in elems for b in elems} | {-a for a in elems}
        if new <= elems:
            return elems
        elems |= new


def brute_cosets(group, subgroup_elements):
    """Partition the group into cosets by exhaustive difference testing."""
    cosets = []
    for g in group.elements():
        for coset in cosets:
            if (g - coset[0]) in set(subgroup_elements):
                coset.append(g)
                break
        else:
            cosets.append([g])
    return cosets


def brute_quotient(group, subgroup):
    """Cosets by flood fill over the indices of the group: each index not yet
    assigned starts a coset, and index order makes it the coset's minimum."""
    if subgroup.parent != group:
        raise ValueError("subgroup does not belong to the given group")
    offsets = group.coords[subgroup.indices]
    projection = np.full(group.order, -1, dtype=np.int64)
    representatives = []
    for p in range(group.order):  # index order, so each first-seen point is its coset's minimum
        if projection[p] < 0:
            projection[group.ravel(group.coords[p] + offsets)] = len(representatives)
            representatives.append(p)
    return QuotientGroup(subgroup, np.array(representatives), projection)


def brute_shift_table(dspace):
    """T[p, a] = index of points[p] - hperp[a], one point subtraction and
    one search among the sorted point indices per pair."""
    group, hperp = dspace.ctx.group, dspace.ctx.hperp_points
    table = np.empty((len(dspace.points), len(hperp)), dtype=int)
    for p, x in enumerate(dspace.points):
        for a, y in enumerate(hperp):
            table[p, a] = np.searchsorted(dspace.point_indices, group.index_of(x - y))
    return table


def brute_shift_index(dspace):
    """A[p, j] = a with points[p] - points[j] = hperp[a], or -1, by a
    dictionary lookup per pair."""
    hperp = {y: a for a, y in enumerate(dspace.ctx.hperp_points)}
    return np.array(
        [[hperp.get(x - y, -1) for y in dspace.points] for x in dspace.points],
        dtype=int,
    )


def build_rep(group, sector_data, rng, e_dim):
    """Assemble a rep plus random isometry fields from
    [(support weight dict, f_dim), ...] with characters given as coord tuples."""
    sectors = []
    fields = []
    for k, (weights, f_dim) in enumerate(sector_data):
        rho = WeightedMeasure(
            DOMAIN_DUAL, {group.character(c): w for c, w in weights.items()}
        )
        sectors.append(SectorSpec(rho, f_dim))
        fields.append(
            IsometryField(
                k,
                {x: random_isometry(rng, e_dim, f_dim) for x in rho.support},
            )
        )
    return DiagonalRep(group, tuple(sectors)), tuple(fields)


def standard_instances(seed=11):
    """Five distinct build instances spanning groups, subgroups, and
    multiplicities; returns a list of (name, CovariantPOVM)."""
    rng = np.random.default_rng(seed)
    out = []

    g4 = FiniteAbelianGroup((4,))
    rep, fields = build_rep(
        g4, [({(0,): 1.0, (1,): 2.0}, 1), ({(2,): 0.5}, 2)], rng, e_dim=3
    )
    h = subgroup_from_generators(g4, [g4.element([2])])
    out.append(("Z4_mod2", build_covariant_povm(rep, h, fields, e_dim=3)))

    g8 = FiniteAbelianGroup((8,))
    rep, fields = build_rep(
        g8, [({(0,): 1.0}, 1), ({(1,): 1.0, (2,): 3.0}, 2)], rng, e_dim=3
    )
    h = subgroup_from_generators(g8, [])
    out.append(("Z8_trivial", build_covariant_povm(rep, h, fields, e_dim=3)))

    g12 = FiniteAbelianGroup((12,))
    rep, fields = build_rep(
        g12, [({(0,): 1.0, (5,): 2.0}, 1), ({(3,): 1.0, (7,): 0.25}, 2)], rng, e_dim=2
    )
    h = subgroup_from_generators(g12, [g12.element([4])])
    out.append(("Z12_mod4", build_covariant_povm(rep, h, fields, e_dim=2)))

    rep, fields = build_rep(
        g12, [({(0,): 1.0, (2,): 1.0, (4,): 1.0}, 2)], rng, e_dim=2
    )
    h = subgroup_from_generators(g12, [g12.element([6])])
    out.append(("Z12_mod6", build_covariant_povm(rep, h, fields, e_dim=2)))

    g22 = FiniteAbelianGroup((2, 2))
    rep, fields = build_rep(
        g22, [({(0, 0): 1.0, (1, 0): 1.0}, 1), ({(0, 1): 2.0}, 2)], rng, e_dim=2
    )
    h = subgroup_from_generators(g22, [g22.element([1, 1])])
    out.append(("Z2xZ2", build_covariant_povm(rep, h, fields, e_dim=2)))

    return out


def scalar_z12_povm():
    """One-dimensional instance whose effects are |X| / 4."""
    g = FiniteAbelianGroup((12,))
    h = subgroup_from_generators(g, [g.element([4])])
    x0 = g.character([0])
    rep = DiagonalRep(g, (SectorSpec(WeightedMeasure(DOMAIN_DUAL, {x0: 1.0}), 1),))
    fields = (IsometryField(0, {x0: np.array([[1.0]], dtype=complex)}),)
    return build_covariant_povm(rep, h, fields, e_dim=1)


def brute_overlap_details(rep):
    """Rejection details of the per-pair support intersection: every pair of
    sectors j < k intersected as sets of characters, or None if disjoint."""
    overlaps = []
    for j in range(len(rep.sectors)):
        for k in range(j + 1, len(rep.sectors)):
            common = rep.sectors[j].rho.support & rep.sectors[k].rho.support
            if common:
                overlaps.append(
                    {"sectors": [j, k], "points": sorted(list(x.coords) for x in common)}
                )
    if not overlaps:
        return None
    return {"error": "sector supports are not pairwise disjoint", "overlaps": overlaps}


def brute_basis(rep):
    """(sector, character, multiplicity coordinate) of each rep basis row,
    from the sorted sector supports."""
    return [
        (k, x, a)
        for k, spec in enumerate(rep.sectors)
        for x in sorted(spec.rho.support)
        for a in range(spec.f_dim)
    ]


def brute_u_matrix(rep, g):
    """U(g) with one scalar pairing per basis row."""
    return np.diag([pairing(x, g) for _, x, _ in brute_basis(rep)])


def brute_sector_pointwise_operator(rep, sector_maps):
    """Block-diagonal operator assembled one (sector, point) block at a time."""
    basis = brute_basis(rep)
    out = np.zeros((len(basis), len(basis)), dtype=complex)
    for r, (k, x, a) in enumerate(basis):
        for c, (kc, xc, b) in enumerate(basis):
            if (k, x) == (kc, xc):
                out[r, c] = np.asarray(sector_maps[k][x], dtype=complex)[a, b]
    return out


def point_density(povm, k, x):
    """The density of sector k at x, by its definition: the sector weight
    over the lifted class weight."""
    return povm.rep.sectors[k].rho(x) / povm.class_data.lifted_weights[povm.rep.group.index_of(x)]


def brute_equivalence_deviation(povm_a, povm_b, sector_maps):
    """The equivalence criterion's deviation, one support-point pair at a
    time, with fiber membership tested against the annihilator points."""
    hperp = set(povm_a.ctx.hperp_points)
    points = [(k, x) for k, spec in enumerate(povm_a.rep.sectors) for x in sorted(spec.rho.support)]
    dev = 0.0
    for j, x in points:
        for k, xp in points:
            if x - xp not in hperp:
                continue
            w_j = np.asarray(povm_a.fields[j].matrices[x], dtype=complex)
            wp_j = np.asarray(povm_b.fields[j].matrices[x], dtype=complex)
            s_j = np.asarray(sector_maps[j][x], dtype=complex)
            weight = math.sqrt(point_density(povm_a, k, xp))
            w_k = np.asarray(povm_a.fields[k].matrices[xp], dtype=complex)
            wp_k = np.asarray(povm_b.fields[k].matrices[xp], dtype=complex)
            s_k = np.asarray(sector_maps[k][xp], dtype=complex)
            lhs = weight * (w_j.conj().T @ w_k)
            rhs = weight * (s_j.conj().T @ wp_j.conj().T @ wp_k @ s_k)
            dev = max(dev, float(np.abs(lhs - rhs).max()))
    return dev


def brute_sample_counts(probs, n, seed):
    """Outcome counts of n inverse-transform draws, one searchsorted lookup
    per Philox uniform, the last cell taking draws at or past the last edge."""
    rng = np.random.Generator(np.random.Philox(key=seed))
    edges = np.cumsum(probs)
    draws = np.minimum(np.searchsorted(edges, rng.random(n), side="right"), len(probs) - 1)
    return np.bincount(draws, minlength=len(probs))


def intertwiner_born(povm, state):
    """<psi, M(e_j) psi> = <W psi, T(e_j) W psi> over singleton cosets j,
    with W the intertwiner and T the transported multiplication operator."""
    dspace = povm.diagonal_space
    phi = intertwiner_matrix(povm) @ state
    values = dspace.from_coords(phi)
    probs = []
    for j in range(povm.ctx.n_cosets):
        moved = transported_multiplication_act(dspace, povm.ctx.indicator([j]), values)
        probs.append(np.vdot(phi, dspace.to_coords(moved)).real)
    return np.array(probs)


def kernel_born(povm, state):
    """<psi, M(e_j) psi> over singleton cosets j from the per-pair kernel
    table (:func:`dense_kernel`): the sums s[a] of conj(psi_r) K[r, c] psi_c
    over D[r, c] = a by one ``bincount`` (D = -1 dropped), then the dense
    transposed cotransform."""
    index, kernel = dense_kernel(povm)
    terms = state.conj()[:, None] * kernel * state
    bins = (index.ravel() + 1).astype(np.intp)
    size = povm.ctx.annihilator.order + 1
    s = np.bincount(bins, terms.real.ravel(), size)[1:]
    s = s + 1j * np.bincount(bins, terms.imag.ravel(), size)[1:]
    return dense_cotransform_transposed(povm.ctx, s).real


def dense_cotransform_transposed(ctx, phi):
    """sum_a phi[a] <y_a, coset> by the dense |H-perp| x q pairing matrix."""
    fourier = ctx.group.pairing_matrix(ctx.annihilator.indices, ctx.quotient.rep_indices)
    return fourier.T @ np.asarray(phi, dtype=complex)


@st.composite
def random_povms(draw):
    """A group of one or two cyclic factors, a random subgroup, disjoint
    sectors of multiplicity 1 or 2 with random weights, e_dim the largest
    multiplicity or one more, and random isometry fields."""
    factors = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    group = FiniteAbelianGroup(factors)
    coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
    generators = draw(st.lists(coords, max_size=2))
    subgroup = subgroup_from_generators(group, [group.element(g) for g in generators])
    points = draw(st.lists(coords, min_size=1, max_size=6, unique=True))
    n_sectors = draw(st.integers(1, len(points)))
    weight = st.floats(0.1, 4.0)
    sector_data = [
        ({x: draw(weight) for x in points[s::n_sectors]}, draw(st.integers(1, 2)))
        for s in range(n_sectors)
    ]
    e_dim = max(f for _, f in sector_data) + draw(st.integers(0, 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rep, fields = build_rep(group, sector_data, rng, e_dim)
    return build_covariant_povm(rep, subgroup, fields, e_dim=e_dim)


def dense_compression(povm, omega):
    """W^H T(omega) W by two dense products, with W the intertwiner and T
    the transported multiplication matrix: the reference for
    ``intertwiner_compressions``, which reads W's one-point columns."""
    w = intertwiner_matrix(povm)
    return w.conj().T @ transported_multiplication_matrix(povm.diagonal_space, omega) @ w


def fibered_instance(seed=5):
    """Z_4 x Z_4 with H = <(0, 2)>: two dual fibers of 8 characters, three
    sectors of multiplicities 1, 2 and 1 spread over both fibers."""
    rng = np.random.default_rng(seed)
    group = FiniteAbelianGroup((4, 4))
    sector_data = [
        ({(0, 0): 1.0, (1, 2): 0.5, (2, 1): 2.0, (3, 3): 1.0}, 1),
        ({(0, 1): 1.5, (1, 0): 1.0, (2, 2): 0.25}, 2),
        ({(0, 2): 1.0, (3, 1): 3.0}, 1),
    ]
    rep, fields = build_rep(group, sector_data, rng, e_dim=4)
    h = subgroup_from_generators(group, [group.element([0, 2])])
    return build_covariant_povm(rep, h, fields, e_dim=4)


def row_by_row(assembled):
    """A test double's single-omega ``assembled(self, omega)`` lifted to the
    verifiers' protocol: a (k, q) stack of quotient functions in, the
    (k, dim, dim) stack of their effects out, one call per row."""

    @functools.wraps(assembled)
    def stacked(self, omegas):
        return np.stack([assembled(self, omega) for omega in omegas])

    return stacked


def brute_covariance_deviation(povm_like):
    """max |U(g) M(e_j) U(g)* - M(g . e_j)| over every g in G and every
    singleton coset j, with dense U(g) products and the coset of
    rep_j + g looked up per pair; NaN if any entry is NaN."""
    ctx = povm_like.ctx
    effects = [povm_like.assembled(ctx.indicator([j])[None])[0] for j in range(ctx.n_cosets)]
    reps = ctx.quotient.representatives
    devs = [0.0]
    for g in ctx.group.elements():
        u = povm_like.u_matrix(g)
        for j, m in enumerate(effects):
            moved = ctx.quotient.index_of(reps[j] + g)
            devs.append(np.abs(u @ m @ u.conj().T - effects[moved]).max(initial=0.0))
    return float(np.max(devs))


def brute_positivity_deviation(povm_like):
    """Largest positivity defect over all q singleton effects: hermiticity
    defect or most negative eigenvalue of the Hermitian part, one
    ``eigvalsh`` per effect; NaN for an effect with non-finite entries."""
    ctx = povm_like.ctx
    devs = [0.0]
    for j in range(ctx.n_cosets):
        m = povm_like.assembled(ctx.indicator([j])[None])[0]
        if not m.size:
            continue
        if not np.isfinite(m).all():
            return math.nan
        devs.append(np.abs(m - m.conj().T).max())
        devs.append(-np.linalg.eigvalsh((m + m.conj().T) / 2.0).min())
    return float(np.max(devs))


# --- the dict-based build the array build replaced, kept as a reference -------


def reference_lift_measure(ctx, nu):
    """Lift of a dual-quotient measure to the dual group, as a measure."""
    if nu.domain != DOMAIN_DUAL_QUOTIENT:
        raise ValueError(f"expected a measure on the dual quotient, got {nu.domain!r}")
    dq = ctx.dual_quotient
    lifted = (np.array([nu(i) for i in range(len(dq))]) * ctx.hperp_weight)[dq.projection]
    support = np.flatnonzero(lifted > 0.0)
    points = ctx.group.points(DualCharacter, support)
    return WeightedMeasure(DOMAIN_DUAL, dict(zip(points, lifted[support].tolist())))


def reference_image_measure(ctx, rho):
    """Fiber sums of a dual-group measure, as a dual-quotient measure."""
    if rho.domain != DOMAIN_DUAL:
        raise ValueError(f"expected a measure on the dual group, got {rho.domain!r}")
    cosets = ctx.dual_quotient.projection[[ctx.group.index_of(x) for x in rho.weights]]
    sums = np.bincount(cosets, list(rho.weights.values()), len(ctx.dual_quotient))
    return WeightedMeasure(DOMAIN_DUAL_QUOTIENT, dict(enumerate(sums.tolist())))


def reference_support_table(rep):
    """(indices, sectors, f_dims, weights, rows, by_f_dim) of the sector
    measures, from their dicts."""
    group, points = rep.group, [x for s in rep.sectors for x in s.rho.weights]
    counts = [len(s.rho.weights) for s in rep.sectors]
    sectors = np.repeat(np.arange(len(rep.sectors)), counts)
    coords = np.array([x.coords for x in points], dtype=np.int64).reshape(-1, group.rank)
    indices = group.ravel(coords)
    order = np.lexsort((indices, sectors))
    weights = np.array([w for s in rep.sectors for w in s.rho.weights.values()], dtype=float)
    f_dims = np.array([s.f_dim for s in rep.sectors], dtype=np.int64)[sectors]
    rows = np.repeat(np.arange(len(points)), f_dims)
    by_f_dim = tuple(np.flatnonzero(f_dims == f) for f in np.unique(f_dims))
    return indices[order], sectors, f_dims, weights[order], rows, by_f_dim


def dense_kernel(povm):
    """(D, K) over the rep basis one pair of multiplicities at a time, from
    the POVM's support table, isometry stacks and densities: D from the
    annihilator index of every support-point difference, K from one batched
    overlap W_x^H W_x' per pair of multiplicities, scattered into place and
    scaled by hw sqrt(d' / d) sqrt(w / w'), 0 across fibers. The reference
    for ``CovariantPOVM._kernel``, which is one product of row factors."""
    ctx, table, stacks = povm.ctx, povm.rep.support_table, povm._isometry_stacks
    group, rows, by_f_dim = ctx.group, table.rows, table.by_f_dim
    support = group.coords[table.indices]
    point_d = ctx.annihilator.position(group.ravel(support[:, None] - support[None]))
    kernel = np.empty((len(rows), len(rows)), dtype=complex)
    for pa, wa in zip(by_f_dim, stacks):
        ra = (np.searchsorted(rows, pa)[:, None] + np.arange(wa.shape[2])).ravel()
        for pb, wb in zip(by_f_dim, stacks):
            rb = (np.searchsorted(rows, pb)[:, None] + np.arange(wb.shape[2])).ravel()
            block = np.matmul(wa.conj().transpose(0, 2, 1)[:, None], wb[None]).transpose(0, 2, 1, 3)
            kernel[np.ix_(ra, rb)] = block.reshape(len(ra), len(rb))
    density, weight = povm.point_densities, table.weights
    scale = np.sqrt(density[None, :] / density[:, None])
    scale *= ctx.hperp_weight
    scale *= np.sqrt(weight[:, None] / weight[None, :])
    cells = np.ix_(rows, rows)
    index = point_d[cells]
    kernel *= scale[cells]
    kernel[index < 0] = 0.0
    return index, kernel


def reference_build(rep, subgroup, fields, e_dim, quotient_measure=None, atol=1e-9):
    """The dict-based build: per-point field checks, the class measure as
    measures (its lift returned as one weight per character index),
    densities as dicts, the isometries stacked point by point and the
    intertwiner by the per-point loop."""
    sector_points = [sorted(spec.rho.support) for spec in rep.sectors]
    for k, (field, spec) in enumerate(zip(fields, rep.sectors)):
        for x in sector_points[k]:
            where = {"sector": k, "point": list(x.coords)}
            w = field.matrices.get(x)
            if w is None:
                raise PovmBuildError("isometry field is missing a support point", **where)
            w = np.asarray(w, dtype=complex)
            if w.shape != (e_dim, spec.f_dim):
                raise PovmBuildError("isometry matrix has the wrong shape", **where)
            if not np.isfinite(w).all():
                raise PovmBuildError("isometry matrix has non-finite entries", **where)
            dev = float(np.abs(w.conj().T @ w - np.eye(spec.f_dim)).max())
            if dev > atol:
                raise PovmBuildError("field matrix is not isometric", **where, deviation=dev)
    ctx = QuotientContext.build(rep.group, subgroup)
    indicator = WeightedMeasure(
        DOMAIN_DUAL, dict.fromkeys(sorted({x for pts in sector_points for x in pts}), 1.0)
    )
    image = reference_image_measure(ctx, indicator)
    if quotient_measure is None:
        quotient_measure = WeightedMeasure(DOMAIN_DUAL_QUOTIENT, {i: 1.0 for i in image.support})
    lifted = reference_lift_measure(ctx, quotient_measure)
    table = reference_support_table(rep)
    indices, _, _, weights, rows, by_f_dim = table
    point_lifted = np.array([lifted(x) for pts in sector_points for x in pts])
    density = iter((weights / point_lifted).tolist())
    densities = tuple(dict(zip(points, density)) for points in sector_points)
    point_densities = np.array(
        [d[x] for d, pts in zip(densities, sector_points) for x in pts], dtype=float
    )
    mats = [
        np.asarray(field.matrices[x], dtype=complex)
        for field, points in zip(fields, sector_points)
        for x in points
    ]
    stacks = tuple(np.stack([mats[p] for p in points]) for points in by_f_dim)

    dspace = DiagonalSpace(ctx, quotient_measure, e_dim)
    intertwiner = np.zeros((dspace.dim, len(rows)), dtype=complex)
    offset = 0
    for k, spec in enumerate(rep.sectors):
        f = spec.f_dim
        for a, x in enumerate(sector_points[k]):
            p = int(np.searchsorted(dspace.point_indices, rep.group.index_of(x)))
            scale = math.sqrt(lifted(x) * densities[k][x] / spec.rho(x))
            intertwiner[p * e_dim : (p + 1) * e_dim, offset + a * f : offset + (a + 1) * f] = (
                scale * np.asarray(fields[k].matrices[x], dtype=complex)
            )
        offset += len(sector_points[k]) * f
    lifted_weights = np.zeros(rep.group.order)
    lifted_weights[[rep.group.index_of(x) for x in lifted.weights]] = list(lifted.weights.values())
    return SimpleNamespace(
        support_table=table,
        quotient_measure=quotient_measure,
        lifted_weights=lifted_weights,
        point_densities=point_densities,
        isometry_stacks=stacks,
        intertwiner=intertwiner,
    )


def sector_slices(rep):
    """The basis rows of each sector, as slices at ``support_table.row_starts``."""
    table = rep.support_table
    starts = np.append(table.row_starts, rep.dimension)
    ends = np.cumsum(table.counts)
    return [slice(int(starts[end - n]), int(starts[end])) for n, end in zip(table.counts, ends)]


def loop_intertwiner(povm):
    """The intertwiner one support point at a time, from the POVM's
    per-sector views: sector measures, lifted weights and fields, with each
    density taken from its definition (``point_density``)."""
    dspace = povm.diagonal_space
    out = np.zeros((dspace.dim, povm.dimension), dtype=complex)
    e = povm.e_dim
    lifted = povm.class_data.lifted_weights
    for k, spec in enumerate(povm.rep.sectors):
        f = spec.f_dim
        off = sector_slices(povm.rep)[k].start
        for a, x in enumerate(povm.rep.sector_points[k]):
            p = int(np.searchsorted(dspace.point_indices, povm.rep.group.index_of(x)))
            density = point_density(povm, k, x)
            scale = math.sqrt(lifted[povm.rep.group.index_of(x)] * density / spec.rho(x))
            out[p * e : (p + 1) * e, off + a * f : off + (a + 1) * f] = (
                scale * np.asarray(povm.fields[k].matrices[x], dtype=complex)
            )
    return out


def loop_diagonalizer_adjoint_apply(space, phi):
    """The adjoint diagonalizer one point at a time: conj(<x, g>) phi(x)
    with the annihilator Haar weight, added into the coset of x."""
    dspace = space.diagonal_space
    out = space.zero()
    conj_pairing = dspace._rep_pairing.conj()  # (points, cosets)
    for p in range(len(dspace.points)):
        s = dspace._fiber_position[p]
        out[:, s, :] += (
            space.ctx.hperp_weight * conj_pairing[p][:, None] * phi[p][None, :]
        )
    return out


# --- the torus observables one block or entry at a time, and their surrogates -


def loop_phase_operator(obs, omega):
    """The phase observable one ``phase_matrix_element`` block per pair of
    frequencies, in sorted order."""
    dims = [obs.f_dim(k) for k in obs.indices]
    offsets = np.concatenate([[0], np.cumsum(dims)])
    out = np.zeros((offsets[-1], offsets[-1]), dtype=complex)
    for a, j in enumerate(obs.indices):
        for b, k in enumerate(obs.indices):
            out[offsets[a] : offsets[a + 1], offsets[b] : offsets[b + 1]] = (
                phase_matrix_element(obs, omega, j, k)
            )
    return out


def loop_phase_difference_operator(obs, omega):
    """The phase difference observable one
    ``phase_difference_matrix_element`` per pair of window points."""
    window = obs.window
    out = np.zeros((len(window), len(window)), dtype=complex)
    for b, src in enumerate(window):
        for a, tgt in enumerate(window):
            out[a, b] = phase_difference_matrix_element(obs, omega, src, tgt)
    return out


def loop_truncates_selection_rule(obs):
    """Whether some point of the window's bounding box lies off the window
    on an occupied index-sum class, testing every box point."""
    window = set(obs.window)
    i_vals = [i for i, _ in window]
    j_vals = [j for _, j in window]
    sums = {i + j for i, j in window}
    for i in range(min(i_vals), max(i_vals) + 1):
        for j in range(min(j_vals), max(j_vals) + 1):
            if i + j in sums and (i, j) not in window:
                return True
    return False


def torus_span(obs):
    """Largest frequency span of the observable along any one mode."""
    keys = np.array(obs.indices if isinstance(obs, PhaseObservable) else obs.window)
    keys = keys.reshape(len(keys), -1)
    return int((keys.max(axis=0) - keys.min(axis=0)).max())


def torus_surrogate(obs, n):
    """The torus observable as a finite-group POVM: on Z_n with H trivial
    for the phase observable, on Z_n x Z_n with H = <(1, 1)> for the phase
    difference. Each frequency (pair) k, in sorted order, is the character
    k mod n, alone in its own sector with weight 1 and its isometry (unit
    vector) as the field, so the basis order is the torus one."""
    if isinstance(obs, PhaseObservable):
        group, generators = FiniteAbelianGroup((n,)), []
        keys, mats = [[k] for k in obs.indices], [obs.isometries[k] for k in obs.indices]
    else:
        group = FiniteAbelianGroup((n, n))
        generators = [group.element([1, 1])]
        keys, mats = obs.window, [obs.vectors[pair][:, None] for pair in obs.window]
    sectors = np.arange(len(keys))
    indices = group.ravel(np.array(keys))
    f_dims = [w.shape[1] for w in mats]
    rep = DiagonalRep.of_arrays(group, sectors, indices, np.ones(len(keys)), f_dims)
    shapes = np.array([w.shape for w in mats])
    data = np.concatenate([w.ravel() for w in mats])
    fields = FieldTable(group, sectors, sectors, indices, shapes, data)
    subgroup = subgroup_from_generators(group, generators)
    return build_covariant_povm(rep, subgroup, fields, e_dim=mats[0].shape[0])


def reduction_gap(obs, omega, n):
    """max |M(omega on the cosets) - torus matrix| for the surrogate on
    Z_n (or Z_n x Z_n), with omega sampled at theta = 2 pi (g_1 - g_2) / n
    on each coset representative g (g_2 = 0 on Z_n)."""
    povm = torus_surrogate(obs, n)
    coords = povm.ctx.group.coords[povm.ctx.quotient.rep_indices]
    sampled = omega.eval_angle(2.0 * np.pi * (coords[:, 0] - coords[:, 1:].sum(axis=1)) / n)
    if isinstance(obs, PhaseObservable):
        torus = assemble_phase_operator(obs, omega)
    else:
        torus = assemble_phase_difference_operator(obs, omega)
    return float(np.abs(povm.assembled(sampled) - torus).max())


def assert_reduction_identity(obs, omega):
    """The surrogate reproduces the torus matrix to 1e-12 at the smallest
    exact n = span + degree + 1, and misses it by more than 1e-3 at
    n = span + degree, where the alias of the widest frequency difference
    lands inside the band. On the phase difference that alias needs a
    rectangle window whose shorter side spans at least the degree. Returns
    both gaps."""
    exact = torus_span(obs) + omega.degree + 1
    gaps = reduction_gap(obs, omega, exact), reduction_gap(obs, omega, exact - 1)
    assert gaps[0] <= 1e-12, gaps
    assert gaps[1] > 1e-3, gaps
    return gaps
