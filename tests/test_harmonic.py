import numpy as np
import pytest

from covpovm import (
    DOMAIN_DUAL_QUOTIENT,
    FiniteAbelianGroup,
    QuotientContext,
    WeightedMeasure,
    image_measure,
    lift_measure,
    pairing,
    quotient_pairing,
    subgroup_from_generators,
    trivial_subgroup,
)

Z12 = FiniteAbelianGroup((12,))


@pytest.fixture
def ctx():
    return QuotientContext.build(
        Z12, subgroup_from_generators(Z12, [Z12.element([4])])
    )


def contexts():
    z6 = FiniteAbelianGroup((6,))
    z22 = FiniteAbelianGroup((2, 2))
    return [
        QuotientContext.build(Z12, subgroup_from_generators(Z12, [Z12.element([4])])),
        QuotientContext.build(Z12, subgroup_from_generators(Z12, [Z12.element([6])])),
        QuotientContext.build(Z12, trivial_subgroup(Z12)),
        QuotientContext.build(z6, subgroup_from_generators(z6, [z6.element([2])])),
        QuotientContext.build(z22, subgroup_from_generators(z22, [z22.element([1, 1])])),
    ]


class TestWeightedMeasure:
    def test_zero_weights_dropped(self):
        m = WeightedMeasure(DOMAIN_DUAL_QUOTIENT, {0: 1.0, 1: 0.0})
        assert m.support == {0}

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            WeightedMeasure(DOMAIN_DUAL_QUOTIENT, {0: -0.5})

    def test_indicator_bounds(self, ctx):
        with pytest.raises(ValueError):
            ctx.indicator([4])
        with pytest.raises(ValueError):
            ctx.indicator([-1])


class TestHaar:
    def test_annihilator_weight_z12(self, ctx):
        assert [y.coords for y in ctx.hperp_points] == [(0,), (3,), (6,), (9,)]
        assert ctx.hperp_weight == pytest.approx(0.25)

    def test_trivial_subgroup_weight(self):
        c = QuotientContext.build(Z12, trivial_subgroup(Z12))
        assert c.hperp_weight == pytest.approx(1.0 / 12.0)

    def test_full_subgroup_weight(self):
        c = QuotientContext.build(
            Z12, subgroup_from_generators(Z12, [Z12.element([1])])
        )
        assert c.hperp_points == (Z12.trivial_character,)
        assert c.hperp_weight == pytest.approx(1.0)

    def test_weight_solves_unitarity_of_delta(self, ctx):
        # ||F delta_coset0||^2 = sum over annihilator of |<y, 0>|^2 * w = 4w = 1
        delta = ctx.indicator([0])
        transformed = ctx.cotransform(delta)
        norm_sq = ctx.hperp_weight * np.sum(np.abs(transformed) ** 2)
        assert norm_sq == pytest.approx(1.0, abs=1e-12)

    def test_weil_formula(self, ctx):
        rng = np.random.default_rng(0)
        values = {g: rng.standard_normal() for g in Z12.elements()}
        total = sum(values.values())
        by_cosets = sum(
            sum(values[ctx.quotient.representatives[i] + h] for h in ctx.subgroup.elements)
            for i in range(ctx.n_cosets)
        )
        assert by_cosets == pytest.approx(total)


class TestCotransform:
    def test_constant(self, ctx):
        out = ctx.cotransform(np.ones(4))
        assert out[0] == pytest.approx(4.0)
        np.testing.assert_allclose(out[1:], 0.0, atol=1e-12)

    def test_indicator_single_coset(self, ctx):
        out = ctx.cotransform(ctx.indicator([0]))
        np.testing.assert_allclose(out, 1.0, atol=1e-12)

    def test_power_of_i_profile(self, ctx):
        omega = np.array([1j**k for k in range(4)])
        out = ctx.cotransform(omega)
        # brute-force 4-point sum over the quotient character table
        oracle = np.array(
            [
                sum(
                    quotient_pairing(ctx.quotient, y, i) * omega[i]
                    for i in range(4)
                )
                for y in ctx.hperp_points
            ]
        )
        np.testing.assert_allclose(out, oracle, atol=1e-12)
        nonzero = np.flatnonzero(np.abs(out) > 1e-9)
        assert len(nonzero) == 1
        assert out[nonzero[0]] == pytest.approx(4.0)

    def test_plancherel(self):
        rng = np.random.default_rng(1)
        for ctx in contexts():
            for _ in range(20):
                omega = rng.standard_normal(ctx.n_cosets) + 1j * rng.standard_normal(
                    ctx.n_cosets
                )
                lhs = ctx.hperp_weight * np.sum(np.abs(ctx.cotransform(omega)) ** 2)
                rhs = np.sum(np.abs(omega) ** 2)
                assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_adjoint_roundtrip(self):
        rng = np.random.default_rng(2)
        for ctx in contexts():
            for _ in range(4):
                omega = rng.standard_normal(ctx.n_cosets) + 1j * rng.standard_normal(
                    ctx.n_cosets
                )
                np.testing.assert_allclose(
                    ctx.cotransform_adjoint(ctx.cotransform(omega)), omega, atol=1e-9
                )
                phi = rng.standard_normal(len(ctx.hperp_points))
                np.testing.assert_allclose(
                    ctx.cotransform(ctx.cotransform_adjoint(phi)), phi, atol=1e-9
                )

    def test_transposed_duality(self):
        rng = np.random.default_rng(3)
        for ctx in contexts():
            omega = rng.standard_normal(ctx.n_cosets) + 1j * rng.standard_normal(ctx.n_cosets)
            phi = rng.standard_normal(ctx.annihilator.order) + 1j * rng.standard_normal(
                ctx.annihilator.order
            )
            assert ctx.cotransform_transposed(phi) @ omega == pytest.approx(
                phi @ ctx.cotransform(omega), abs=1e-9
            )
            with pytest.raises(ValueError, match="annihilator values"):
                ctx.cotransform_transposed(np.ones(ctx.annihilator.order + 1))

    def test_adjoint_of_constant(self, ctx):
        out = ctx.cotransform_adjoint(np.ones(len(ctx.hperp_points)))
        np.testing.assert_allclose(out, ctx.indicator([0]), atol=1e-12)

    def test_adjoint_of_delta(self, ctx):
        phi = np.zeros(len(ctx.hperp_points), dtype=complex)
        phi[0] = 1.0  # the trivial character sorts first
        out = ctx.cotransform_adjoint(phi)
        np.testing.assert_allclose(out, ctx.hperp_weight * np.ones(4), atol=1e-12)


def support(weights):
    """Group indices carrying positive weight."""
    return set(np.flatnonzero(weights > 0).tolist())


class TestLift:
    def test_delta_at_identity_coset(self, ctx):
        nu = np.zeros(len(ctx.dual_quotient))
        nu[0] = 1.0
        lifted = lift_measure(ctx, nu)
        assert support(lifted) == set(ctx.annihilator.indices.tolist())
        for y in ctx.annihilator.indices:
            assert lifted[y] == pytest.approx(0.25)

    def test_zero(self, ctx):
        lifted = lift_measure(ctx, np.zeros(len(ctx.dual_quotient)))
        assert not support(lifted)

    def test_counting_on_all_cosets(self, ctx):
        lifted = lift_measure(ctx, np.ones(len(ctx.dual_quotient)))
        assert len(support(lifted)) == 12
        for x in Z12.characters():
            assert lifted[Z12.index_of(x)] == pytest.approx(0.25)

    def test_wrong_length_rejected(self, ctx):
        with pytest.raises(ValueError, match="dual coset weights"):
            lift_measure(ctx, np.ones(len(ctx.dual_quotient) + 1))

    def test_integration_consistency(self):
        # integral of phi against the lift = nested integral of fiber sums
        rng = np.random.default_rng(3)
        for ctx in contexts():
            n_dual_cosets = len(ctx.dual_quotient)
            nu = rng.random(n_dual_cosets)
            lifted = lift_measure(ctx, nu)
            phi = {x: complex(rng.standard_normal()) for x in ctx.group.characters()}
            lhs = sum(phi[x] * lifted[ctx.group.index_of(x)] for x in ctx.group.characters())
            rhs = sum(
                nu[i]
                * sum(
                    phi[rep + y] * ctx.hperp_weight
                    for y in ctx.hperp_points
                )
                for i, rep in enumerate(ctx.dual_quotient.representatives)
            )
            assert lhs == pytest.approx(rhs, abs=1e-9)

    def test_preserves_equivalence_and_orthogonality(self, ctx):
        small, big, other = np.zeros((3, len(ctx.dual_quotient)))
        small[0], big[0], big[1], other[2] = 1.0, 2.0, 1.0, 1.0
        assert support(lift_measure(ctx, small)) <= support(lift_measure(ctx, big))
        assert not support(lift_measure(ctx, small)) & support(lift_measure(ctx, other))


class TestImageMeasure:
    def test_delta(self, ctx):
        image = image_measure(ctx, [Z12.index_of(Z12.character([0]))], [1.0])
        assert image.tolist() == [1.0, 0.0, 0.0]

    def test_counting_fiber_count(self, ctx):
        image = image_measure(ctx, np.arange(12), np.ones(12))
        assert len(support(image)) == 3
        for i in support(image):
            assert image[i] == pytest.approx(4.0)

    def test_fiber_sum(self, ctx):
        # characters 1 and 4 differ by 3, which is in the annihilator
        image = image_measure(ctx, [1, 4], [2.0, 3.0])
        assert len(support(image)) == 1
        coset = ctx.dual_quotient.index_of(Z12.character([1]))
        assert image[coset] == pytest.approx(5.0)


class TestBoundary:
    """Malformed input to the measure maps and the translation raises
    ``ValueError`` naming the shape, or the position and the value, checked
    in bulk; nothing wraps, truncates or passes quietly."""

    @pytest.mark.parametrize("n_values", [2, 9])
    def test_translated_wrong_length(self, ctx, n_values):
        with pytest.raises(ValueError, match=rf"expected 4 coset values, got \({n_values},\)"):
            ctx.translated(Z12.element([1]), np.ones(n_values))

    @pytest.mark.parametrize(
        "indices, weights, message",
        [
            ([-1], [1.0], "character index is outside [0, |G|): position 0, value -1"),
            ([0, 12], [1.0, 1.0], "character index is outside [0, |G|): position 1, value 12"),
            ([0, 1], [1.0], "expected one weight per character index, got shapes (2,) and (1,)"),
            ([0, 1, 2], [1.0, np.nan, 1.0], "weight is not finite and >= 0: position 1, value nan"),
            ([0.0], [1.0], "character indices must be integers, got dtype float64"),
        ],
    )
    def test_image_measure_rejects(self, ctx, indices, weights, message):
        with pytest.raises(ValueError) as got:
            image_measure(ctx, indices, weights)
        assert str(got.value) == message

    def test_lift_measure_rejects_nan(self, ctx):
        nu = np.array([1.0, np.nan, 2.0])
        with pytest.raises(ValueError) as got:
            lift_measure(ctx, nu)
        assert str(got.value) == "dual coset weight is not finite and >= 0: position 1, value nan"
