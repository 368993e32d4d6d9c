"""The reduced verifiers against their exhaustive oracles: covariance on
doubling generators bounds the deviation at every group element, and
positivity by transitivity bounds the defect of every singleton effect."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    FiniteAbelianGroup,
    build_covariant_povm,
    position_povm_zn,
    subgroup_from_generators,
    verify_axioms,
    verify_covariance,
)
from helpers import (
    brute_covariance_deviation,
    brute_positivity_deviation,
    build_rep,
    random_isometry,
    row_by_row,
    scalar_z12_povm,
    standard_instances,
)


class Wrapped:
    """A POVM whose singleton effects M(e_j), for j in ``extra``, have
    ``extra[j]`` added; every other omega is evaluated unchanged."""

    def __init__(self, povm, extra):
        self.povm, self.extra = povm, extra
        self.ctx, self.dimension = povm.ctx, povm.dimension

    @row_by_row
    def assembled(self, omega):
        m = self.povm.assembled(omega)
        hits = np.flatnonzero(omega)
        if len(hits) == 1 and hits[0] in self.extra:
            m = m + self.extra[hits[0]]
        return m

    def u_matrix(self, g):
        return self.povm.u_matrix(g)


@st.composite
def perturbed_povms(draw):
    """A random POVM over 1-2 cyclic factors and a random subgroup, with
    random singleton effects perturbed by Hermitian or non-Hermitian
    matrices of entry size 1e-8 to 1e-2 (or none)."""
    factors = tuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=2)))
    group = FiniteAbelianGroup(factors)
    coords = st.tuples(*(st.integers(0, n - 1) for n in factors))
    gens = draw(st.lists(coords, max_size=2))
    subgroup = subgroup_from_generators(group, [group.element(c) for c in gens])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    characters = [tuple(c) for c in group.coords.tolist()]
    support = rng.permutation(len(characters))[: draw(st.integers(1, min(4, len(characters))))]
    cut = draw(st.integers(1, len(support)))
    f_dims = [draw(st.integers(1, 2)), draw(st.integers(1, 2))]
    sector_data = [
        ({characters[i]: float(rng.uniform(0.5, 2.0)) for i in part}, f)
        for part, f in zip((support[:cut], support[cut:]), f_dims)
        if len(part)
    ]
    e_dim = sum(f for _, f in sector_data)
    rep, fields = build_rep(group, sector_data, rng, e_dim)
    povm = build_covariant_povm(rep, subgroup, fields, e_dim=e_dim)
    q, dim = povm.ctx.n_cosets, povm.dimension
    extra = {}
    for j in draw(st.sets(st.integers(0, q - 1), max_size=min(q, 3))):
        size = 10.0 ** draw(st.floats(-8.0, -2.0))
        noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if draw(st.booleans()):
            noise = noise + noise.conj().T
        extra[j] = size * noise / np.abs(noise).max()
    return Wrapped(povm, extra)


class TestReportedBoundsHoldExhaustively:
    @settings(max_examples=120, deadline=None)
    @given(perturbed_povms())
    def test_covariance_bound(self, povm_like):
        reported = verify_covariance(povm_like).checks[0].max_deviation
        assert reported >= brute_covariance_deviation(povm_like) - 1e-15

    @settings(max_examples=120, deadline=None)
    @given(perturbed_povms())
    def test_positivity_bound(self, povm_like):
        positivity = verify_axioms(povm_like).checks[0]
        assert positivity.check == "positivity"
        assert positivity.max_deviation >= brute_positivity_deviation(povm_like) - 1e-15

    def test_one_perturbed_entry_is_seen_by_both(self):
        # one entry of one singleton effect of the Z_16 position surrogate
        rng = np.random.default_rng(16)
        povm = position_povm_zn(16, [random_isometry(rng, 2, 1)[:, 0] for _ in range(16)])
        bump = np.zeros((16, 16), dtype=complex)
        bump[3, 5] = 1e-4
        wrapped = Wrapped(povm, {15: bump})
        covariance = verify_covariance(wrapped).checks[0]
        assert not covariance.passed
        assert covariance.max_deviation >= brute_covariance_deviation(wrapped) >= 1e-4
        positivity = verify_axioms(wrapped).checks[0]
        assert not positivity.passed
        assert positivity.max_deviation >= brute_positivity_deviation(wrapped) > 0.0


class TestDoublingGenerators:
    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(1, 20), min_size=1, max_size=3))
    def test_every_element_is_a_short_word(self, factors):
        group = FiniteAbelianGroup(tuple(factors))
        generators = group.doubling_generators()
        assert len(generators) == sum((n - 1).bit_length() for n in factors)
        words = {group.zero}
        for s in generators:  # sums of distinct generators: words of length <= L
            words |= {w + s for w in words}
        assert words == set(group.elements())

    def test_z4096_has_twelve(self):
        generators = FiniteAbelianGroup((4096,)).doubling_generators()
        assert [g.coords[0] for g in generators] == [2**k for k in range(12)]


class TestDetectionAndCounts:
    def test_non_linear_impostor_fails_positivity(self):
        # every singleton is a true, positive effect and M(G/H) = I, but the
        # union {0, 1} is not the sum of its singletons
        povm = standard_instances()[2][1]
        q = povm.ctx.n_cosets

        class Impostor:
            ctx = povm.ctx
            dimension = povm.dimension

            @row_by_row
            def assembled(self, omega):
                m = povm.assembled(omega)
                if 1 < np.count_nonzero(omega) < q:
                    m = m + 1e-3 * np.eye(self.dimension)
                return m

            def u_matrix(self, g):
                return povm.u_matrix(g)

        assert brute_positivity_deviation(Impostor()) < 1e-12
        checks = {c.check: c for c in verify_axioms(Impostor()).checks}
        assert checks["normalization"].passed
        assert not checks["positivity"].passed
        assert checks["positivity"].max_deviation >= 1e-3

    def test_axioms_call_eigvalsh_once(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh

        def counting(matrix):
            calls.append(matrix.shape)
            return eigvalsh(matrix)

        monkeypatch.setattr(np.linalg, "eigvalsh", counting)
        for _, povm in standard_instances():
            calls.clear()
            assert verify_axioms(povm).passed
            assert len(calls) == 1

    def test_covariance_calls_u_matrix_once_per_generator(self):
        for _, povm in standard_instances():
            calls = []

            class Counting:
                ctx = povm.ctx
                dimension = povm.dimension

                @row_by_row
                def assembled(self, omega):
                    return povm.assembled(omega)

                def u_matrix(self, g):
                    calls.append(g)
                    return povm.u_matrix(g)

            assert verify_covariance(Counting()).passed
            assert calls == list(povm.ctx.group.doubling_generators())

    def test_axioms_reject_a_non_diagonal_u(self):
        povm = standard_instances()[1][1]
        rotation = random_isometry(np.random.default_rng(3), povm.dimension, povm.dimension)

        class Rotated:
            ctx = povm.ctx
            dimension = povm.dimension

            @row_by_row
            def assembled(self, omega):
                return povm.assembled(omega)

            def u_matrix(self, g):
                return rotation @ povm.u_matrix(g) @ rotation.conj().T

        with pytest.raises(ValueError, match="not diagonal"):
            verify_axioms(Rotated())

    def test_single_coset_has_no_additivity_probe(self):
        g4 = FiniteAbelianGroup((4,))
        rep, fields = build_rep(g4, [({(0,): 1.0, (2,): 1.0}, 1)], np.random.default_rng(1), 1)
        povm = build_covariant_povm(rep, subgroup_from_generators(g4, [g4.element([1])]), fields, 1)
        assert povm.ctx.n_cosets == 1
        report = verify_axioms(povm).merged(verify_covariance(povm))
        assert report.passed, report.as_dict()


class TestIndicatorEntries:
    @pytest.mark.parametrize("bad", [True, False, 1.0, "1", None, np.bool_(True)])
    def test_non_integer_entry_is_named(self, bad):
        ctx = scalar_z12_povm().ctx
        with pytest.raises(ValueError, match="coset index must be an integer") as exc:
            ctx.indicator([bad])
        assert repr(bad) in str(exc.value)

    def test_bool_entry_no_longer_selects_everything(self):
        povm = scalar_z12_povm()
        with pytest.raises(ValueError, match="True"):
            povm.assembled_effect([True])

    def test_numpy_integers_pass(self):
        ctx = scalar_z12_povm().ctx
        want = np.array([0, 1, 0, 1], dtype=complex)
        assert np.array_equal(ctx.indicator(np.array([1, 3])), want)
        assert np.array_equal(ctx.indicator([np.int32(1), np.int64(3)]), want)
        assert np.array_equal(ctx.indicator(range(1, 4, 2)), want)
