"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import json
import time

import numpy as np
import pytest

from covpovm import (
    DOMAIN_DUAL_QUOTIENT,
    FiniteAbelianGroup,
    InducedSpace,
    IsometryField,
    PhaseDifferenceObservable,
    PhaseObservable,
    QuotientContext,
    TrigPolynomial,
    WeightedMeasure,
    apply_via_intertwiner,
    build_covariant_povm,
    character_multiplication_matrix,
    counting_measure,
    diagonalizer_matrix,
    equivalence_check,
    multiplication_matrix,
    phase_difference_matrix_element,
    phase_matrix_element,
    sample_outcomes,
    sector_pointwise_operator,
    subgroup_from_generators,
    translation_matrix,
    transported_multiplication_matrix,
    verify_axioms,
    verify_covariance,
)
from covpovm.cli import main as cli_main
from helpers import random_isometry, row_by_row, scalar_z12_povm, standard_instances

TOL = 1e-9


def report(number, name, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"criterion {number} [{status}] {name}: {detail}")
    assert passed, f"criterion {number} failed: {detail}"


def z12_counting_space(e_dim):
    group = FiniteAbelianGroup((12,))
    ctx = QuotientContext.build(
        group, subgroup_from_generators(group, [group.element([4])])
    )
    nu = counting_measure(DOMAIN_DUAL_QUOTIENT, range(len(ctx.dual_quotient)))
    return InducedSpace(ctx, nu, e_dim)


def test_criterion_1_diagonalizer_unitary_and_intertwining():
    start = time.perf_counter()
    worst = 0.0
    for e_dim in (1, 2):
        space = z12_counting_space(e_dim)
        s = diagonalizer_matrix(space)
        eye = np.eye(space.dim)
        worst = max(worst, np.abs(s.conj().T @ s - eye).max())
        worst = max(worst, np.abs(s @ s.conj().T - eye).max())
        for a in space.ctx.group.elements():
            lam = translation_matrix(space, a)
            big = character_multiplication_matrix(space.diagonal_space, a)
            worst = max(worst, np.abs(s @ lam - big @ s).max())
    elapsed = time.perf_counter() - start
    report(
        1,
        "diagonalizer unitarity and intertwining",
        worst < TOL and elapsed < 1.0,
        f"max deviation {worst:.2e}, elapsed {elapsed:.2f}s",
    )


def test_criterion_2_transported_multiplication_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(21)
    worst = 0.0
    for e_dim in (1, 2):
        space = z12_counting_space(e_dim)
        dspace = space.diagonal_space
        s = diagonalizer_matrix(space)
        for _ in range(50):
            omega = rng.standard_normal(space.ctx.n_cosets) + 1j * (
                rng.standard_normal(space.ctx.n_cosets)
            )
            direct = transported_multiplication_matrix(dspace, omega)
            conjugated = s @ multiplication_matrix(space, omega) @ s.conj().T
            worst = max(worst, np.abs(direct - conjugated).max())
        projections = [
            transported_multiplication_matrix(dspace, space.ctx.indicator([i]))
            for i in range(space.ctx.n_cosets)
        ]
        total = np.zeros((space.dim, space.dim), dtype=complex)
        for i, p in enumerate(projections):
            worst = max(worst, np.abs(p @ p - p).max())
            worst = max(worst, np.abs(p - p.conj().T).max())
            for j, other in enumerate(projections):
                if i != j:
                    worst = max(worst, np.abs(p @ other).max())
            total += p
        worst = max(worst, np.abs(total - np.eye(space.dim)).max())
    elapsed = time.perf_counter() - start
    report(
        2,
        "transported multiplication operators",
        worst < TOL and elapsed < 5.0,
        f"max deviation {worst:.2e}, elapsed {elapsed:.2f}s",
    )


def test_criterion_3_kernel_formula_vs_intertwiner_compression():
    start = time.perf_counter()
    rng = np.random.default_rng(33)
    instances = standard_instances()
    assert len(instances) >= 5
    worst = 0.0
    for _, povm in instances:
        q = povm.ctx.n_cosets
        for _ in range(50):
            omega = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            direct = povm.assembled(omega)
            compressed = apply_via_intertwiner(povm, omega).assemble()
            worst = max(worst, np.abs(direct - compressed).max())
    elapsed = time.perf_counter() - start
    report(
        3,
        "kernel formula vs intertwiner compression on 5 instances",
        worst < TOL and elapsed < 30.0,
        f"max deviation {worst:.2e} over {len(instances)}x50 functions, "
        f"elapsed {elapsed:.2f}s",
    )


def test_criterion_4_axioms_covariance_and_perturbation_detection():
    worst = 0.0
    for _, povm in standard_instances():
        rep_report = verify_axioms(povm, atol=TOL).merged(
            verify_covariance(povm, atol=TOL)
        )
        assert rep_report.passed, rep_report.as_dict()
        worst = max(worst, rep_report.max_deviation)

    povm = standard_instances()[2][1]
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

    perturbed_report = verify_covariance(Perturbed(), atol=TOL)
    detected = (not perturbed_report.passed) and (
        perturbed_report.max_deviation >= 1e-4
    )
    report(
        4,
        "axioms and covariance, with perturbation detection",
        worst < TOL and detected,
        f"clean deviation {worst:.2e}, perturbed deviation "
        f"{perturbed_report.max_deviation:.2e}",
    )


def test_criterion_5_class_measure_choice_invariance():
    rng = np.random.default_rng(55)
    worst = 0.0
    for _, povm in standard_instances():
        rescaled = WeightedMeasure(
            DOMAIN_DUAL_QUOTIENT,
            {
                i: w * rng.uniform(0.2, 5.0)
                for i, w in povm.quotient_measure.weights.items()
            },
        )
        other = build_covariant_povm(
            povm.rep,
            povm.ctx.subgroup,
            povm.fields,
            povm.e_dim,
            quotient_measure=rescaled,
        )
        q = povm.ctx.n_cosets
        for _ in range(10):
            omega = rng.standard_normal(q) + 1j * rng.standard_normal(q)
            worst = max(
                worst, np.abs(povm.assembled(omega) - other.assembled(omega)).max()
            )
    report(
        5,
        "invariance under rescaling of the class measure",
        worst < TOL,
        f"max deviation {worst:.2e}",
    )


def test_criterion_6_equivalence_criterion_agrees_with_conjugation():
    rng = np.random.default_rng(66)
    g8 = FiniteAbelianGroup((8,))
    h = subgroup_from_generators(g8, [])
    from helpers import build_rep

    rep, fields = build_rep(
        g8, [({(0,): 1.0}, 1), ({(1,): 1.0, (2,): 2.0}, 2)], rng, e_dim=3
    )
    base = build_covariant_povm(rep, h, fields, e_dim=3)

    def rebuilt(transform):
        new_fields = tuple(
            IsometryField(
                f.sector,
                {x: transform(f.sector, x, m) for x, m in f.matrices.items()},
            )
            for f in fields
        )
        return build_covariant_povm(rep, h, new_fields, e_dim=3)

    def conjugation_agrees(povm_b, maps):
        s = sector_pointwise_operator(rep, maps)
        dev = 0.0
        for i in range(base.ctx.n_cosets):
            omega = base.ctx.indicator([i])
            dev = max(
                dev,
                float(
                    np.abs(
                        s @ base.assembled(omega) - povm_b.assembled(omega) @ s
                    ).max()
                ),
            )
        return dev

    v = random_isometry(rng, 3, 3)
    phases = [np.exp(0.4j), np.exp(-0.9j)]
    identity_maps = [
        {x: np.eye(spec.f_dim) for x in spec.rho.support} for spec in rep.sectors
    ]
    phase_maps = [
        {x: np.conj(phases[k]) * np.eye(spec.f_dim) for x in spec.rho.support}
        for k, spec in enumerate(rep.sectors)
    ]
    cases = [
        ("global rotation", rebuilt(lambda k, x, m: v @ m), identity_maps),
        ("sector phases", rebuilt(lambda k, x, m: phases[k] * m), phase_maps),
        ("mismatched phases", rebuilt(lambda k, x, m: phases[k] * m), identity_maps),
    ]
    agreed = True
    details = []
    for name, povm_b, maps in cases:
        verdict = equivalence_check(base, povm_b, maps, atol=TOL)
        direct = conjugation_agrees(povm_b, maps) < TOL
        agreed = agreed and (verdict.equivalent == direct)
        details.append(f"{name}: criterion={verdict.equivalent} direct={direct}")
    report(6, "equivalence criterion vs direct conjugation", agreed, "; ".join(details))


def test_criterion_7_phase_observable():
    rng = np.random.default_rng(77)
    isometries = {k: random_isometry(rng, 4, 1 + (abs(k) % 2)) for k in range(-3, 4)}
    obs = PhaseObservable(isometries)

    ident_dev = 0.0
    one = TrigPolynomial.one()
    for j in obs.indices:
        for k in obs.indices:
            got = phase_matrix_element(obs, one, j, k)
            want = np.eye(obs.f_dim(j)) if j == k else np.zeros(got.shape)
            if got.shape == want.shape:
                ident_dev = max(ident_dev, np.abs(got - want).max())
            else:
                ident_dev = max(ident_dev, np.abs(got).max())

    theta = 2.0 * np.pi * np.arange(4096) / 4096
    cos = TrigPolynomial.cosine()
    cos_values = cos.eval_angle(theta)
    cos_dev = 0.0
    for j in obs.indices:
        for k in obs.indices:
            got = phase_matrix_element(obs, cos, j, k)
            quad = complex(np.mean(cos_values * np.exp(1j * (j - k) * theta)))
            expected = quad * (isometries[j].conj().T @ isometries[k])
            cos_dev = max(cos_dev, np.abs(got - expected).max())
            if abs(j - k) == 1:
                half = 0.5 * (isometries[j].conj().T @ isometries[k])
                cos_dev = max(cos_dev, np.abs(got - half).max())
            else:
                cos_dev = max(cos_dev, np.abs(got).max())

    omega = TrigPolynomial(
        {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(-3, 4)}
    )
    rot_dev = 0.0
    for t in range(64):
        z = np.exp(2j * np.pi * t / 64)
        rotated = omega.rotated(z)
        for j in obs.indices:
            for k in obs.indices:
                lhs = phase_matrix_element(obs, rotated, j, k)
                rhs = z ** (j - k) * phase_matrix_element(obs, omega, j, k)
                rot_dev = max(rot_dev, np.abs(lhs - rhs).max())

    passed = ident_dev < TOL and cos_dev < 1e-6 and rot_dev < 1e-12
    report(
        7,
        "phase observable",
        passed,
        f"identity {ident_dev:.2e}, cosine vs quadrature {cos_dev:.2e}, "
        f"rotation law {rot_dev:.2e}",
    )


def test_criterion_8_phase_difference_observable():
    rng = np.random.default_rng(88)
    vectors = {}
    for i in range(-3, 4):
        for j in range(-3, 4):
            v = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            vectors[(i, j)] = v / np.linalg.norm(v)
    obs = PhaseDifferenceObservable(vectors)
    assert len(obs.window) == 49

    omega = TrigPolynomial(
        {n: complex(rng.standard_normal(), rng.standard_normal()) for n in range(-3, 4)}
    )
    one = TrigPolynomial.one()
    theta = 2.0 * np.pi * np.arange(4096) / 4096
    omega_values = omega.eval_angle(theta)

    selection_exact = True
    diag_dev = 0.0
    quad_dev = 0.0
    for src in obs.window:
        diag_dev = max(
            diag_dev, abs(phase_difference_matrix_element(obs, one, src, src) - 1.0)
        )
        for tgt in obs.window:
            got = phase_difference_matrix_element(obs, omega, src, tgt)
            if src[0] + src[1] != tgt[0] + tgt[1]:
                selection_exact = selection_exact and got == 0
            else:
                quad = complex(
                    np.mean(omega_values * np.exp(1j * (src[1] - tgt[1]) * theta))
                )
                overlap = np.vdot(vectors[tgt], vectors[src])
                quad_dev = max(quad_dev, abs(got - quad * overlap))

    passed = selection_exact and diag_dev < TOL and quad_dev < 1e-6
    report(
        8,
        "phase difference observable",
        passed,
        f"selection rule exact {selection_exact}, diagonal {diag_dev:.2e}, "
        f"quadrature {quad_dev:.2e}",
    )


def test_criterion_9_sampling(tmp_path, capsys):
    povm = scalar_z12_povm()
    n = 10_000
    counts = sample_outcomes(
        np.array([1.0]), povm, [[0], [1], [2], [3]], n, seed=99
    )
    sigma = np.sqrt(n * 0.25 * 0.75)
    within = all(abs(c - n / 4) < 5 * sigma for c in counts)

    scenario = {
        "spec_version": 1,
        "group": {"factors": [12]},
        "subgroup": {"generators": [[4]]},
        "e_dim": 1,
        "sectors": [{"f_dim": 1, "support": [[[0], 1.0]]}],
        "fields": [{"sector": 0, "matrices": [[[0], [[[1.0, 0.0]]]]]}],
    }
    scen = tmp_path / "scenario.json"
    scen.write_text(json.dumps(scenario))
    state = tmp_path / "state.json"
    state.write_text(json.dumps({"state": [[1.0, 0.0]]}))
    argv = ["sample", str(scen), "--state", str(state), "-n", "2000", "--seed", "7"]
    assert cli_main(argv) == 0
    first = capsys.readouterr().out
    assert cli_main(argv) == 0
    second = capsys.readouterr().out
    identical = first == second and first.startswith("outcome,count\n")

    report(
        9,
        "sampling sanity",
        within and identical,
        f"counts {counts.tolist()} within 5 sigma: {within}, "
        f"seeded CSV byte-identical: {identical}",
    )
