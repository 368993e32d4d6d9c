import numpy as np
import pytest

from covpovm import (
    DOMAIN_DUAL,
    DOMAIN_DUAL_QUOTIENT,
    DiagonalRep,
    FiniteAbelianGroup,
    IsometryField,
    PovmBuildError,
    QuotientContext,
    SectorSpec,
    WeightedMeasure,
    apply_via_intertwiner,
    build_covariant_povm,
    class_measure,
    equivalence_check,
    intertwiner_matrix,
    sector_pointwise_operator,
    subgroup_from_generators,
    trivial_subgroup,
    validate_rep,
    verify_axioms,
    verify_covariance,
)
from helpers import (
    build_rep,
    random_isometry,
    row_by_row,
    scalar_z12_povm,
    sector_slices,
    standard_instances,
)

Z12 = FiniteAbelianGroup((12,))


def delta_sector(group, coords, f_dim=1, weight=1.0):
    return SectorSpec(
        WeightedMeasure(DOMAIN_DUAL, {group.character(coords): weight}), f_dim
    )


class TestValidateRep:
    def test_disjoint_ok(self):
        rep = DiagonalRep(Z12, (delta_sector(Z12, [0]), delta_sector(Z12, [1])))
        validate_rep(rep)

    def test_overlap_rejected_with_sector_names(self):
        rep = DiagonalRep(Z12, (delta_sector(Z12, [0]), delta_sector(Z12, [0])))
        with pytest.raises(PovmBuildError) as exc:
            validate_rep(rep)
        assert exc.value.details["overlaps"][0]["sectors"] == [0, 1]

    def test_single_sector_ok(self):
        validate_rep(DiagonalRep(Z12, (delta_sector(Z12, [7], f_dim=3),)))

    def test_recommended_e_dim(self):
        from covpovm import recommended_e_dim

        rep = DiagonalRep(
            Z12, (delta_sector(Z12, [0], f_dim=2), delta_sector(Z12, [1], f_dim=3))
        )
        assert recommended_e_dim(rep) == 5
        assert recommended_e_dim(DiagonalRep(Z12, ())) == 1

    def test_wrong_group_point_rejected(self):
        other = FiniteAbelianGroup((2, 2))
        rep = DiagonalRep(Z12, (delta_sector(other, [0, 1]),))
        with pytest.raises(PovmBuildError):
            validate_rep(rep)


class TestClassMeasure:
    def test_scalar_z12_example(self):
        ctx = QuotientContext.build(
            Z12, subgroup_from_generators(Z12, [Z12.element([4])])
        )
        rep = DiagonalRep(Z12, (delta_sector(Z12, [0]),))
        data = class_measure(ctx, rep)
        assert data.quotient_measure.weights == {0: 1.0}
        hperp = ctx.annihilator.indices
        assert np.flatnonzero(data.lifted_weights).tolist() == sorted(hperp.tolist())
        np.testing.assert_allclose(data.lifted_weights[hperp], 0.25)
        assert scalar_z12_povm().point_densities.tolist() == pytest.approx([4.0])

    def test_full_support_trivial_subgroup(self):
        ctx = QuotientContext.build(Z12, trivial_subgroup(Z12))
        rho = WeightedMeasure(DOMAIN_DUAL, {x: 1.0 for x in Z12.characters()})
        rep = DiagonalRep(Z12, (SectorSpec(rho, 1),))
        data = class_measure(ctx, rep)
        np.testing.assert_allclose(data.lifted_weights, 1.0 / 12.0)
        field = IsometryField(0, {x: np.eye(1) for x in Z12.characters()})
        povm = build_covariant_povm(rep, ctx.subgroup, (field,), e_dim=1)
        np.testing.assert_allclose(povm.point_densities, 12.0)

    def test_empty_rep_gives_zero_measures(self):
        ctx = QuotientContext.build(
            Z12, subgroup_from_generators(Z12, [Z12.element([4])])
        )
        data = class_measure(ctx, DiagonalRep(Z12, ()))
        assert not data.quotient_measure.weights
        assert data.lifted_weights.shape == (12,)
        assert not data.lifted_weights.any()

    def test_lifted_weight_positive_on_support(self):
        # the class measure weights every occupied coset, so every support
        # point has a finite, positive density
        for _, povm in standard_instances():
            table = povm.rep.support_table
            assert (povm.class_data.lifted_weights[table.indices] > 0.0).all()
            assert (np.isfinite(povm.point_densities) & (povm.point_densities > 0.0)).all()

    def test_mass_bookkeeping_identity(self):
        # summing density times lifted weight over a fiber recovers the
        # sector mass carried by that fiber
        for _, povm in standard_instances():
            ctx, table = povm.ctx, povm.rep.support_table
            mass = povm.point_densities * povm.class_data.lifted_weights[table.indices]
            cosets = ctx.dual_quotient.projection[table.indices]
            lhs = np.bincount(cosets, mass, len(ctx.dual_quotient))
            for i, rep_char in enumerate(ctx.dual_quotient.representatives):
                fiber = [rep_char + y for y in ctx.hperp_points]
                rhs = sum(
                    spec.rho(x) for spec in povm.rep.sectors for x in fiber
                )
                assert lhs[i] == pytest.approx(rhs, abs=1e-9)


class TestBuildRejections:
    def setup_method(self):
        self.h = subgroup_from_generators(Z12, [Z12.element([4])])
        self.x0 = Z12.character([0])
        self.rep = DiagonalRep(Z12, (delta_sector(Z12, [0]),))

    def test_non_isometric_field_named(self):
        fields = (IsometryField(0, {self.x0: np.array([[1.001]])}),)
        with pytest.raises(PovmBuildError) as exc:
            build_covariant_povm(self.rep, self.h, fields, e_dim=1)
        details = exc.value.details
        assert details["sector"] == 0
        assert details["point"] == [0]
        assert details["deviation"] > 1e-4

    def test_e_dim_too_small(self):
        rep = DiagonalRep(Z12, (delta_sector(Z12, [0], f_dim=2),))
        fields = (IsometryField(0, {self.x0: np.eye(2)}),)
        with pytest.raises(PovmBuildError) as exc:
            build_covariant_povm(rep, self.h, fields, e_dim=1)
        assert "e_dim" in exc.value.details

    def test_missing_support_point(self):
        fields = (IsometryField(0, {}),)
        with pytest.raises(PovmBuildError) as exc:
            build_covariant_povm(self.rep, self.h, fields, e_dim=1)
        assert exc.value.details["point"] == [0]

    def test_wrong_shape(self):
        fields = (IsometryField(0, {self.x0: np.eye(2)}),)
        with pytest.raises(PovmBuildError) as exc:
            build_covariant_povm(self.rep, self.h, fields, e_dim=1)
        assert "shape" in exc.value.details

    def test_field_order_mismatch(self):
        fields = (IsometryField(3, {self.x0: np.array([[1.0]])}),)
        with pytest.raises(PovmBuildError):
            build_covariant_povm(self.rep, self.h, fields, e_dim=1)

    @pytest.mark.parametrize("atol", [float("nan"), float("inf"), -1.0])
    def test_tolerance_must_be_finite_and_nonnegative(self, atol):
        # NaN and inf used to accept this stretched field, -1 to reject any
        fields = (IsometryField(0, {self.x0: np.array([[5.0]])}),)
        with pytest.raises(ValueError, match="atol must be finite and >= 0"):
            build_covariant_povm(self.rep, self.h, fields, e_dim=1, atol=atol)


class TestApply:
    def test_scalar_z12_average(self):
        povm = scalar_z12_povm()
        rng = np.random.default_rng(0)
        omega = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        value = povm.assembled(omega)
        assert value.shape == (1, 1)
        assert value[0, 0] == pytest.approx(omega.sum() / 4)

    def test_scalar_effects(self):
        povm = scalar_z12_povm()
        assert povm.assembled_effect([]).shape == (1, 1)
        assert povm.assembled_effect([])[0, 0] == 0
        assert povm.assembled_effect([0])[0, 0] == pytest.approx(0.25)
        assert povm.assembled_effect([0, 2])[0, 0] == pytest.approx(0.5)
        assert povm.assembled_effect(range(4))[0, 0] == pytest.approx(1.0)

    def test_constant_one_is_identity(self):
        for _, povm in standard_instances():
            one = np.ones(povm.ctx.n_cosets)
            np.testing.assert_allclose(
                povm.assembled(one), np.eye(povm.dimension), atol=1e-9
            )

    def test_linearity(self):
        povm = standard_instances()[0][1]
        rng = np.random.default_rng(1)
        q = povm.ctx.n_cosets
        a = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        b = rng.standard_normal(q) + 1j * rng.standard_normal(q)
        lhs = povm.assembled(2.0 * a + 1j * b)
        rhs = 2.0 * povm.assembled(a) + 1j * povm.assembled(b)
        np.testing.assert_allclose(lhs, rhs, atol=1e-9)

    def test_partition_additivity(self):
        for _, povm in standard_instances():
            q = povm.ctx.n_cosets
            total = sum(povm.assembled_effect([i]) for i in range(q))
            np.testing.assert_allclose(total, np.eye(povm.dimension), atol=1e-9)
            coarse = [list(range(0, q // 2)), list(range(q // 2, q))]
            total = sum(povm.assembled_effect(cell) for cell in coarse)
            np.testing.assert_allclose(total, np.eye(povm.dimension), atol=1e-9)

    def test_positivity_for_nonnegative_functions(self):
        rng = np.random.default_rng(2)
        for _, povm in standard_instances():
            for _ in range(5):
                omega = rng.uniform(0.0, 2.0, size=povm.ctx.n_cosets)
                m = povm.assembled(omega)
                np.testing.assert_allclose(m, m.conj().T, atol=1e-9)
                assert np.linalg.eigvalsh((m + m.conj().T) / 2).min() > -1e-9

    def test_two_sector_z4_blocks_against_oracle(self):
        g4 = FiniteAbelianGroup((4,))
        rep = DiagonalRep(g4, (delta_sector(g4, [0]), delta_sector(g4, [1])))
        e1 = np.array([[1.0], [0.0]])
        fields = (
            IsometryField(0, {g4.character([0]): e1}),
            IsometryField(1, {g4.character([1]): e1}),
        )
        povm = build_covariant_povm(rep, trivial_subgroup(g4), fields, e_dim=2)
        rng = np.random.default_rng(3)
        omega = rng.standard_normal(4) + 1j * rng.standard_normal(4)
        direct = povm.assembled(omega)
        oracle = apply_via_intertwiner(povm, omega).assemble()
        sectors = sector_slices(rep)
        for j in range(2):
            for k in range(2):
                np.testing.assert_allclose(
                    direct[sectors[j], sectors[k]], oracle[sectors[j], sectors[k]], atol=1e-9
                )
        # with equal unit vectors the kernel is the plain cotransform: the
        # (j, k) entry is the cotransform of omega at x_j - x_k over 4
        fo = povm.ctx.cotransform(omega)
        hperp = {y: i for i, y in enumerate(povm.ctx.hperp_points)}
        x0, x1 = g4.character([0]), g4.character([1])
        assert direct[sectors[0], sectors[1]][0, 0] == pytest.approx(fo[hperp[x0 - x1]] / 4)
        assert direct[sectors[1], sectors[0]][0, 0] == pytest.approx(fo[hperp[x1 - x0]] / 4)

    def test_oracle_agreement_random(self):
        rng = np.random.default_rng(4)
        for _, povm in standard_instances():
            q = povm.ctx.n_cosets
            for _ in range(10):
                omega = rng.standard_normal(q) + 1j * rng.standard_normal(q)
                direct = povm.assembled(omega)
                oracle = apply_via_intertwiner(povm, omega).assemble()
                assert np.abs(direct - oracle).max() < 1e-9


class TestIntertwiner:
    def test_isometry(self):
        for _, povm in standard_instances():
            w = intertwiner_matrix(povm)
            np.testing.assert_allclose(
                w.conj().T @ w, np.eye(povm.dimension), atol=1e-9
            )

    def test_intertwines_representations(self):
        from covpovm import character_multiplication_matrix

        for _, povm in standard_instances():
            w = intertwiner_matrix(povm)
            for g in povm.ctx.group.elements():
                u = povm.u_matrix(g)
                lam = character_multiplication_matrix(povm.diagonal_space, g)
                assert np.abs(w @ u - lam @ w).max() < 1e-9

    def test_scalar_norm(self):
        povm = scalar_z12_povm()
        w = intertwiner_matrix(povm)
        assert np.linalg.norm(w[:, 0]) == pytest.approx(1.0)


class TestVerification:
    def test_built_povms_pass(self):
        for _, povm in standard_instances():
            report = verify_axioms(povm).merged(verify_covariance(povm))
            assert report.passed, report.as_dict()
            assert report.max_deviation < 1e-9

    def test_perturbed_operator_fails_covariance(self):
        povm = standard_instances()[1][1]
        target = povm.ctx.indicator([0])

        class Perturbed:
            ctx = povm.ctx
            dimension = povm.dimension

            @row_by_row
            def assembled(self, omega):
                m = povm.assembled(omega)
                if np.array_equal(np.asarray(omega), target):
                    m = m.copy()
                    m[0, min(1, m.shape[1] - 1)] += 1e-3
                return m

            def u_matrix(self, g):
                return povm.u_matrix(g)

        report = verify_covariance(Perturbed())
        assert not report.passed
        assert report.max_deviation >= 1e-4

    def test_covariance_evaluates_each_effect_once(self):
        # the q singleton effects settle every covariance relation, and a
        # perturbation on the last coset is still found
        povm = standard_instances()[2][1]
        q = povm.ctx.n_cosets
        last = povm.ctx.indicator([q - 1])
        calls = []

        class Counting:
            ctx = povm.ctx
            dimension = povm.dimension

            @row_by_row
            def assembled(self, omega):
                calls.append(1)
                m = povm.assembled(omega)
                if np.array_equal(np.asarray(omega), last):
                    m = m.copy()
                    m[0, min(1, m.shape[1] - 1)] += 1e-3
                return m

            def u_matrix(self, g):
                return povm.u_matrix(g)

        report = verify_covariance(Counting())
        assert len(calls) <= q
        assert not report.passed
        assert report.max_deviation >= 1e-4

    def test_non_diagonal_u_is_rejected(self):
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
            verify_covariance(Rotated())

    def test_kernel_perturbation_fails_oracle_agreement(self):
        from covpovm.cli import _oracle_report

        povm = standard_instances()[2][1]
        index, kernel = povm._kernel
        r, c = np.argwhere(index >= 0)[-1]
        perturbed = kernel.copy()
        perturbed[r, c] += 1e-6
        povm.__dict__["_kernel"] = (index, perturbed)
        report = _oracle_report(povm, 1e-9, [])
        assert not report.passed
        assert report.max_deviation > 5e-7

    def test_empty_rep_passes_every_check(self):
        from covpovm.cli import _oracle_report

        g4 = FiniteAbelianGroup((4,))
        povm = build_covariant_povm(DiagonalRep(g4, ()), trivial_subgroup(g4), (), e_dim=1)
        assert apply_via_intertwiner(povm, np.ones(4)).matrix.shape == (0, 0)
        report = (
            verify_axioms(povm)
            .merged(verify_covariance(povm))
            .merged(_oracle_report(povm, 1e-9, []))
        )
        assert report.passed
        assert report.max_deviation == 0.0

    def test_zero_family_fails_normalization(self):
        povm = scalar_z12_povm()

        class Zero:
            ctx = povm.ctx
            dimension = povm.dimension

            @row_by_row
            def assembled(self, omega):
                return np.zeros((1, 1), dtype=complex)

            def u_matrix(self, g):
                return povm.u_matrix(g)

        report = verify_axioms(Zero())
        failed = {c.check: c for c in report.checks}
        assert not failed["normalization"].passed
        assert failed["normalization"].max_deviation == pytest.approx(1.0)


class TestClassMeasureInvariance:
    def test_rescaled_measure_gives_identical_povm(self):
        rng = np.random.default_rng(5)
        for _, povm in standard_instances():
            canonical = povm.quotient_measure
            rescaled = WeightedMeasure(
                DOMAIN_DUAL_QUOTIENT,
                {i: w * rng.uniform(0.2, 5.0) for i, w in canonical.weights.items()},
            )
            other = build_covariant_povm(
                povm.rep,
                povm.ctx.subgroup,
                povm.fields,
                povm.e_dim,
                quotient_measure=rescaled,
            )
            q = povm.ctx.n_cosets
            for _ in range(5):
                omega = rng.standard_normal(q) + 1j * rng.standard_normal(q)
                assert np.abs(povm.assembled(omega) - other.assembled(omega)).max() < 1e-9
                assert (
                    np.abs(
                        apply_via_intertwiner(povm, omega).assemble()
                        - apply_via_intertwiner(other, omega).assemble()
                    ).max()
                    < 1e-9
                )

    def test_wrong_support_rejected(self):
        povm = scalar_z12_povm()
        bad = WeightedMeasure(DOMAIN_DUAL_QUOTIENT, {0: 1.0, 1: 1.0})
        with pytest.raises(ValueError):
            build_covariant_povm(
                povm.rep,
                povm.ctx.subgroup,
                povm.fields,
                povm.e_dim,
                quotient_measure=bad,
            )


class TestTrivialSubgroupReduction:
    def test_densities_against_dual_haar_on_z8(self):
        g8 = FiniteAbelianGroup((8,))
        rng = np.random.default_rng(6)
        rep, fields = build_rep(
            g8,
            [({(0,): 2.0}, 1), ({(1,): 1.0, (3,): 0.5}, 2)],
            rng,
            e_dim=2,
        )
        povm = build_covariant_povm(rep, trivial_subgroup(g8), fields, e_dim=2)
        # with the trivial subgroup the lifted class measure is dual Haar,
        # weight 1/8 per character, so densities are 8 times the weights
        expected = [
            8.0 * spec.rho(x)
            for spec, points in zip(rep.sectors, rep.sector_points)
            for x in points
        ]
        np.testing.assert_allclose(povm.point_densities, expected)
        report = verify_axioms(povm).merged(verify_covariance(povm))
        assert report.passed
        for _ in range(5):
            omega = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert (
                np.abs(
                    povm.assembled(omega)
                    - apply_via_intertwiner(povm, omega).assemble()
                ).max()
                < 1e-9
            )


class TestEquivalence:
    def build_pair(self, transform):
        """One rep, two POVMs: the second has transformed isometries."""
        g8 = FiniteAbelianGroup((8,))
        rng = np.random.default_rng(7)
        rep, fields = build_rep(
            g8, [({(0,): 1.0}, 1), ({(1,): 1.0, (2,): 3.0}, 2)], rng, e_dim=3
        )
        h = trivial_subgroup(g8)
        povm_a = build_covariant_povm(rep, h, fields, e_dim=3)
        new_fields = tuple(
            IsometryField(
                f.sector,
                {x: transform(f.sector, x, m) for x, m in f.matrices.items()},
            )
            for f in fields
        )
        povm_b = build_covariant_povm(rep, h, new_fields, e_dim=3)
        return rep, povm_a, povm_b

    @staticmethod
    def identity_maps(rep):
        return [
            {x: np.eye(spec.f_dim) for x in spec.rho.support}
            for spec, _ in zip(rep.sectors, rep.sectors)
        ]

    def direct_conjugation_deviation(self, rep, povm_a, povm_b, maps):
        s = sector_pointwise_operator(rep, maps)
        dev = 0.0
        for i in range(povm_a.ctx.n_cosets):
            omega = povm_a.ctx.indicator([i])
            lhs = s @ povm_a.assembled(omega)
            rhs = povm_b.assembled(omega) @ s
            dev = max(dev, float(np.abs(lhs - rhs).max()))
        return dev

    def test_same_povm_identity_maps(self):
        rep, povm_a, _ = self.build_pair(lambda k, x, m: m)
        maps = self.identity_maps(rep)
        result = equivalence_check(povm_a, povm_a, maps)
        assert result.equivalent
        assert result.max_deviation < 1e-12

    def test_global_rotation_is_invisible(self):
        rng = np.random.default_rng(8)
        v = random_isometry(rng, 3, 3)
        rep, povm_a, povm_b = self.build_pair(lambda k, x, m: v @ m)
        maps = self.identity_maps(rep)
        result = equivalence_check(povm_a, povm_b, maps)
        assert result.equivalent
        assert self.direct_conjugation_deviation(rep, povm_a, povm_b, maps) < 1e-9

    def test_per_sector_phases(self):
        phases = [np.exp(0.3j), np.exp(-1.1j)]
        rep, povm_a, povm_b = self.build_pair(lambda k, x, m: phases[k] * m)
        maps = [
            {
                x: np.conj(phases[k]) * np.eye(spec.f_dim)
                for x in spec.rho.support
            }
            for k, spec in enumerate(rep.sectors)
        ]
        result = equivalence_check(povm_a, povm_b, maps)
        assert result.equivalent
        assert self.direct_conjugation_deviation(rep, povm_a, povm_b, maps) < 1e-9

    def test_mismatched_phases_detected(self):
        phases = [np.exp(0.3j), np.exp(-1.1j)]
        rep, povm_a, povm_b = self.build_pair(lambda k, x, m: phases[k] * m)
        maps = self.identity_maps(rep)
        result = equivalence_check(povm_a, povm_b, maps)
        assert not result.equivalent
        assert result.max_deviation > 1e-4
        assert self.direct_conjugation_deviation(rep, povm_a, povm_b, maps) > 1e-4

    def test_non_unitary_map_rejected(self):
        rep, povm_a, povm_b = self.build_pair(lambda k, x, m: m)
        maps = self.identity_maps(rep)
        maps[0] = {x: 1.5 * m for x, m in maps[0].items()}
        with pytest.raises(ValueError):
            equivalence_check(povm_a, povm_b, maps)

    def test_different_rep_rejected(self):
        _, povm_a, _ = self.build_pair(lambda k, x, m: m)
        other = scalar_z12_povm()
        with pytest.raises(ValueError):
            equivalence_check(povm_a, other, [])


class TestNoRepeatedWork:
    def test_build_computes_the_class_measure_once(self, monkeypatch):
        import covpovm.povm as povm_module

        calls = {"lift_measure": 0, "image_measure": 0}
        for name in calls:
            original = getattr(povm_module, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            monkeypatch.setattr(povm_module, name, counted)
        scalar_z12_povm()
        assert calls == {"lift_measure": 1, "image_measure": 1}

    def test_oracle_report_builds_the_intertwiner_once(self, monkeypatch):
        import covpovm.povm as povm_module
        from covpovm.cli import _oracle_report

        povm = standard_instances()[2][1]
        calls = []
        original = povm_module.intertwiner_matrix

        def counted(p):
            calls.append(1)
            return original(p)

        monkeypatch.setattr(povm_module, "intertwiner_matrix", counted)
        # q indicators, the constant function and 10 random functions
        report = _oracle_report(povm, 1e-9, [])
        assert report.passed
        assert len(calls) == 1

    def test_oracle_report_calls_the_act_once_per_block(self, monkeypatch):
        import covpovm.induction as induction_module
        from covpovm.cli import _oracle_report

        povm = standard_instances()[2][1]
        calls = []
        original = induction_module.transported_multiplication_act

        def counted(dspace, omegas, phi):
            calls.append(len(omegas))
            return original(dspace, omegas, phi)

        monkeypatch.setattr(induction_module, "transported_multiplication_act", counted)
        q = povm.ctx.n_cosets
        report = _oracle_report(povm, 1e-9, [np.arange(q, dtype=complex)])
        assert report.passed
        # q indicators, the constant function, one extra and 10 random
        # functions, as the rows of one stack: the whole stack fits one block
        assert calls == [q + 12]
