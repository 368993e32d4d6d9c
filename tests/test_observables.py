import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from covpovm import (
    PhaseDifferenceObservable,
    PhaseObservable,
    TrigPolynomial,
    apply_via_intertwiner,
    assemble_phase_difference_operator,
    assemble_phase_operator,
    born_distribution,
    phase_difference_matrix_element,
    phase_matrix_element,
    position_povm_zn,
    sample_outcomes,
    window_truncates_selection_rule,
)
from helpers import (
    assert_reduction_identity,
    loop_phase_difference_operator,
    loop_phase_operator,
    loop_truncates_selection_rule,
    random_isometry,
    reduction_gap,
    scalar_z12_povm,
    torus_span,
)


def quadrature_coefficient(omega, n, n_grid=4096):
    """Periodic trapezoid value of (1/2pi) integral of omega(e^it) e^{int}."""
    theta = 2.0 * np.pi * np.arange(n_grid) / n_grid
    return complex(np.mean(omega.eval_angle(theta) * np.exp(1j * n * theta)))


def random_trig(rng, degree=3, real=False):
    coeffs = {}
    for n in range(1, degree + 1):
        c = complex(rng.standard_normal(), rng.standard_normal())
        coeffs[n] = c
        coeffs[-n] = c.conjugate() if real else complex(
            rng.standard_normal(), rng.standard_normal()
        )
    coeffs[0] = complex(rng.standard_normal(), 0.0 if real else rng.standard_normal())
    return TrigPolynomial(coeffs)


class TestTrigPolynomial:
    def test_coefficient_convention_matches_quadrature(self):
        rng = np.random.default_rng(0)
        omega = random_trig(rng)
        for n in range(-5, 6):
            assert omega.fourier_coefficient(n) == pytest.approx(
                quadrature_coefficient(omega, n), abs=1e-6
            )

    def test_cosine(self):
        cos = TrigPolynomial.cosine()
        assert cos.fourier_coefficient(1) == pytest.approx(0.5)
        assert cos.fourier_coefficient(-1) == pytest.approx(0.5)
        assert cos.fourier_coefficient(0) == 0
        # real valued: each coefficient is the conjugate of its mirror
        assert all(c == np.conj(cos.coeffs.get(-n, 0)) for n, c in cos.coeffs.items())

    def test_degree_and_zero_drop(self):
        p = TrigPolynomial({3: 1.0, -7: 0.0, 0: 2.0})
        assert p.degree == 3
        assert -7 not in p.coeffs

    def test_rotated(self):
        rng = np.random.default_rng(1)
        omega = random_trig(rng)
        z = np.exp(0.37j)
        theta = np.linspace(0.0, 2.0 * np.pi, 17)
        rotated = omega.rotated(z)
        np.testing.assert_allclose(
            rotated.eval_angle(theta), omega.eval_angle(theta - 0.37), atol=1e-12
        )

    @pytest.mark.parametrize("z", [0, 2, 0.5j, complex("nan"), float("inf")])
    def test_rotation_off_the_unit_circle_names_z(self, z):
        with pytest.raises(ValueError, match=re.escape(f"rotation {z} ")):
            TrigPolynomial.cosine().rotated(z)

    @pytest.mark.parametrize(
        "z", [complex(1 + 5e-13, 0), np.exp(0.3j) * (1 - 5e-13)], ids=["overflow", "underflow"]
    )
    def test_rotation_power_off_the_unit_circle_names_z_and_frequency(self, z):
        # |z| passes the 1e-12 check, but z ** (-n) leaves [1/2, 2] in
        # modulus at n near +-2**61; no numpy warning may precede the error
        omega = TrigPolynomial({2**61 - 1: 1.0, -(2**61): 1.0})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError) as got:
                omega.rotated(z)
        assert f"rotation {complex(z)} " in str(got.value)
        assert str(got.value).endswith("at frequency -2305843009213693952")

    def test_equal_polynomials_hash_equal(self):
        a, b = TrigPolynomial({0: 1, 3: 0.0}), TrigPolynomial({0: 1 + 0j})
        assert a == b and hash(a) == hash(b)
        assert {a: "one"}[b] == "one" and len({a, b, TrigPolynomial.cosine()}) == 2

    def test_overflowing_value_names_the_angle(self):
        omega = TrigPolynomial({0: 1e308, 1: 1e308})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(omega.eval_angle([np.pi])).all()
            with pytest.raises(ValueError, match=r"value at angle 0\.0 is not finite"):
                omega.eval_angle([np.pi, 0.0])


class TestPhaseObservable:
    def canonical(self, lo=-3, hi=3):
        v = np.zeros((2, 1), dtype=complex)
        v[0, 0] = 1.0
        return PhaseObservable({k: v for k in range(lo, hi + 1)})

    def test_constant_one_gives_identity(self):
        obs = self.canonical()
        a = assemble_phase_operator(obs, TrigPolynomial.one())
        np.testing.assert_allclose(a, np.eye(sum(obs.f_dim(k) for k in obs.indices)), atol=1e-12)

    def test_cosine_band_structure(self):
        obs = self.canonical()
        cos = TrigPolynomial.cosine()
        for j in obs.indices:
            for k in obs.indices:
                got = phase_matrix_element(obs, cos, j, k)
                if abs(j - k) == 1:
                    w_j, w_k = obs.isometries[j], obs.isometries[k]
                    np.testing.assert_allclose(
                        got, 0.5 * (w_j.conj().T @ w_k), atol=1e-12
                    )
                else:
                    np.testing.assert_allclose(got, 0.0, atol=1e-12)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        isometries = {k: random_isometry(rng, 4, 1 + (k % 2)) for k in range(-2, 3)}
        obs = PhaseObservable(isometries)
        omega = random_trig(rng)
        for j in obs.indices:
            for k in obs.indices:
                expected = quadrature_coefficient(omega, j - k) * (
                    obs.isometries[j].conj().T @ obs.isometries[k]
                )
                np.testing.assert_allclose(
                    phase_matrix_element(obs, omega, j, k), expected, atol=1e-6
                )

    def test_canonical_phase_matrix(self):
        # one-dimensional multiplicities with one shared unit vector: the
        # matrix elements are exactly the cotransform values
        v = np.array([[1.0], [0.0]], dtype=complex)
        obs = PhaseObservable({k: v for k in range(0, 4)})
        rng = np.random.default_rng(3)
        omega = random_trig(rng)
        a = assemble_phase_operator(obs, omega)
        for a_idx, j in enumerate(obs.indices):
            for b_idx, k in enumerate(obs.indices):
                assert a[a_idx, b_idx] == pytest.approx(
                    omega.fourier_coefficient(j - k)
                )

    def test_rotation_covariance_phase_law(self):
        rng = np.random.default_rng(4)
        isometries = {k: random_isometry(rng, 3, 1) for k in range(-2, 3)}
        obs = PhaseObservable(isometries)
        omega = random_trig(rng)
        for t in range(64):
            z = np.exp(2j * np.pi * t / 64)
            rotated = omega.rotated(z)
            for j in obs.indices:
                for k in obs.indices:
                    lhs = phase_matrix_element(obs, rotated, j, k)
                    rhs = z ** (j - k) * phase_matrix_element(obs, omega, j, k)
                    np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_degree_window(self):
        v = np.array([[1.0]], dtype=complex)
        obs = PhaseObservable({0: v, 1: v}, degree_window=2)
        wide = TrigPolynomial({5: 1.0})
        with pytest.raises(ValueError):
            phase_matrix_element(obs, wide, 0, 1)
        phase_matrix_element(obs, TrigPolynomial.cosine(), 0, 1)

    def test_index_outside_set(self):
        obs = self.canonical()
        with pytest.raises(ValueError):
            phase_matrix_element(obs, TrigPolynomial.one(), 0, 99)

    def test_non_isometric_rejected(self):
        with pytest.raises(ValueError):
            PhaseObservable({0: np.array([[1.2]])})

    def test_positive_function_gives_psd_window(self):
        rng = np.random.default_rng(5)
        isometries = {k: random_isometry(rng, 3, 1) for k in range(-3, 4)}
        obs = PhaseObservable(isometries)
        omega = TrigPolynomial({0: 1.0, 1: 0.5, -1: 0.5})  # 1 + cos >= 0
        a = assemble_phase_operator(obs, omega)
        np.testing.assert_allclose(a, a.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh((a + a.conj().T) / 2).min() > -1e-9


class TestPhaseDifference:
    def random_obs(self, rng, half=3, e_dim=4):
        vectors = {}
        for i in range(-half, half + 1):
            for j in range(-half, half + 1):
                v = rng.standard_normal(e_dim) + 1j * rng.standard_normal(e_dim)
                vectors[(i, j)] = v / np.linalg.norm(v)
        return PhaseDifferenceObservable(vectors)

    def test_selection_rule_structural_zero(self):
        rng = np.random.default_rng(6)
        obs = self.random_obs(rng, half=2)
        omega = random_trig(rng)
        for src in obs.window:
            for tgt in obs.window:
                if src[0] + src[1] != tgt[0] + tgt[1]:
                    assert phase_difference_matrix_element(obs, omega, src, tgt) == 0

    def test_diagonal_normalization(self):
        rng = np.random.default_rng(7)
        obs = self.random_obs(rng, half=1)
        one = TrigPolynomial.one()
        for pair in obs.window:
            assert phase_difference_matrix_element(obs, one, pair, pair) == (
                pytest.approx(1.0)
            )

    def test_cosine_with_equal_vectors(self):
        v = np.array([1.0, 0.0], dtype=complex)
        vectors = {(i, j): v for i in range(-1, 2) for j in range(-1, 2)}
        obs = PhaseDifferenceObservable(vectors)
        cos = TrigPolynomial.cosine()
        # same index sum, shifted by one along the anti-diagonal
        assert phase_difference_matrix_element(obs, cos, (0, 1), (1, 0)) == (
            pytest.approx(0.5)
        )
        assert phase_difference_matrix_element(obs, cos, (0, 0), (1, 1)) == 0

    def test_matches_quadrature_oracle_on_7x7(self):
        rng = np.random.default_rng(8)
        obs = self.random_obs(rng, half=3)
        omega = random_trig(rng)
        assert len(obs.window) == 49
        for (i, j) in obs.window:
            for (l, m) in obs.window:
                got = phase_difference_matrix_element(obs, omega, (i, j), (l, m))
                if i + j != l + m:
                    assert got == 0
                else:
                    overlap = np.vdot(obs.vectors[(l, m)], obs.vectors[(i, j)])
                    expected = quadrature_coefficient(omega, j - m) * overlap
                    assert got == pytest.approx(expected, abs=1e-6)

    def test_positive_function_gives_psd_window(self):
        rng = np.random.default_rng(9)
        obs = self.random_obs(rng, half=2, e_dim=3)
        assert not window_truncates_selection_rule(obs)
        omega = TrigPolynomial({0: 2.0, 1: 0.5 - 0.25j, -1: 0.5 + 0.25j})
        theta = np.linspace(0, 2 * np.pi, 512)
        assert omega.eval_angle(theta).real.min() > 0
        a = assemble_phase_difference_operator(obs, omega)
        np.testing.assert_allclose(a, a.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh((a + a.conj().T) / 2).min() > -1e-9

    def test_truncation_flag(self):
        rng = np.random.default_rng(10)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v = v / np.linalg.norm(v)
        ragged = PhaseDifferenceObservable(
            {(0, 0): v, (0, 2): v, (2, 0): v}  # misses (1, 1) on the sum-2 class
        )
        assert window_truncates_selection_rule(ragged)

    def test_vector_normalization_enforced(self):
        with pytest.raises(ValueError):
            PhaseDifferenceObservable({(0, 0): np.array([1.0, 1.0])})

    def test_unknown_pair_rejected(self):
        rng = np.random.default_rng(11)
        obs = self.random_obs(rng, half=1)
        with pytest.raises(ValueError):
            phase_difference_matrix_element(
                obs, TrigPolynomial.one(), (0, 0), (9, -9)
            )


def unit_vector(rng, e_dim):
    v = rng.standard_normal(e_dim) + 1j * rng.standard_normal(e_dim)
    return v / np.linalg.norm(v)


@st.composite
def phase_cases(draw):
    """Sparse frequencies in [-12, 12] with multiplicities 1-3, an optional
    degree window and an outcome function of degree 0-5."""
    frequencies = draw(st.lists(st.integers(-12, 12), min_size=1, max_size=7, unique=True))
    f_dims = [draw(st.integers(1, 3)) for _ in frequencies]
    e_dim = max(f_dims) + draw(st.integers(0, 1))
    window = draw(st.none() | st.integers(0, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    isometries = {k: random_isometry(rng, e_dim, f) for k, f in zip(frequencies, f_dims)}
    omega = random_trig(rng, degree=draw(st.integers(0, 5)))
    return PhaseObservable(isometries, degree_window=window), omega


@st.composite
def window_cases(draw):
    """A full rectangle or a ragged set of pairs in [-4, 4]^2, unit vectors
    in C^1 to C^3 and an outcome function of degree 0-5."""
    corner = st.tuples(st.integers(-4, 4), st.integers(-4, 4))
    if draw(st.booleans()):
        (i, j), a, b = draw(corner), draw(st.integers(1, 4)), draw(st.integers(1, 4))
        pairs = [(i + u, j + v) for u in range(a) for v in range(b)]
    else:
        pairs = draw(st.lists(corner, min_size=1, max_size=12, unique=True))
    e_dim = draw(st.integers(1, 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    vectors = {pair: unit_vector(rng, e_dim) for pair in pairs}
    return PhaseDifferenceObservable(vectors), random_trig(rng, degree=draw(st.integers(0, 5)))


class TestTorusFormula:
    """The array formulas against the per-block and per-entry loops, and
    against the finite-group kernel route at the smallest exact n."""

    @settings(max_examples=80, deadline=None)
    @given(phase_cases())
    def test_phase_operator_matches_block_loop(self, case):
        obs, omega = case
        if obs.degree_window is not None and omega.degree > obs.degree_window:
            for assemble in (assemble_phase_operator, loop_phase_operator):
                with pytest.raises(ValueError, match="exceeds the window"):
                    assemble(obs, omega)
            return
        np.testing.assert_allclose(
            assemble_phase_operator(obs, omega), loop_phase_operator(obs, omega), rtol=0, atol=1e-12
        )
        assert reduction_gap(obs, omega, torus_span(obs) + omega.degree + 1) <= 1e-12

    @settings(max_examples=80, deadline=None)
    @given(window_cases())
    def test_phase_difference_operator_matches_entry_loop(self, case):
        obs, omega = case
        np.testing.assert_allclose(
            assemble_phase_difference_operator(obs, omega),
            loop_phase_difference_operator(obs, omega),
            rtol=0,
            atol=1e-12,
        )
        assert window_truncates_selection_rule(obs) is loop_truncates_selection_rule(obs)
        assert reduction_gap(obs, omega, torus_span(obs) + omega.degree + 1) <= 1e-12

    def test_truncation_flag_on_a_sparse_window(self):
        # a box of 10**12 x 10**12 points, counted without visiting them
        v = np.array([1.0])
        far = 10**12
        assert not window_truncates_selection_rule(
            PhaseDifferenceObservable({(0, 0): v, (far, far): v})
        )
        assert window_truncates_selection_rule(
            PhaseDifferenceObservable({(0, 0): v, (0, far): v, (far, 0): v})
        )

    @pytest.mark.parametrize(
        "frequencies, f_dims",
        [(range(40), [1] * 40), ([-7, -3, 0, 2, 9], [1, 3, 2, 1, 2])],
    )
    def test_phase_reduction_identity_is_sharp(self, frequencies, f_dims):
        rng = np.random.default_rng(21)
        e_dim = max(f_dims) + 1
        obs = PhaseObservable(
            {k: random_isometry(rng, e_dim, f) for k, f in zip(frequencies, f_dims)}
        )
        assert_reduction_identity(obs, random_trig(rng, degree=3))

    @pytest.mark.parametrize("rows, cols", [(range(6), range(6)), (range(-3, 1), range(-2, 5))])
    def test_phase_difference_reduction_identity_is_sharp(self, rows, cols):
        rng = np.random.default_rng(22)
        pairs = [(i, j) for i in rows for j in cols]
        obs = PhaseDifferenceObservable({pair: unit_vector(rng, 3) for pair in pairs})
        assert_reduction_identity(obs, random_trig(rng, degree=3))


class TestTorusBoundary:
    """Malformed torus input is rejected at construction with a
    ``ValueError`` naming the frequency, pair or value."""

    def test_trig_polynomial_frequencies_are_integers(self):
        for key in (0.5, True, 2**61, -(2**61) - 1):
            with pytest.raises(ValueError, match="frequency"):
                TrigPolynomial({key: 1.0})
        assert TrigPolynomial({np.int64(-2): 1.0, 2**61 - 1: 1.0}).degree == 2**61 - 1
        with pytest.raises(ValueError, match="0.5"):
            TrigPolynomial.one().fourier_coefficient(0.5)

    def test_trig_polynomial_coefficients_are_finite(self):
        for bad in (np.inf, complex(0.0, np.nan)):
            with pytest.raises(ValueError, match="coefficient at frequency 3 is not finite"):
                TrigPolynomial({0: 1.0, 3: bad})

    def test_phase_observable_frequencies_are_integers(self):
        v, w = np.array([[1.0], [0.0]]), np.array([[0.0], [1.0]])
        with pytest.raises(ValueError, match="frequency must be an integer, got 0.7"):
            PhaseObservable({0: v, 0.7: w})

    def test_phase_observable_matrix_shapes(self):
        with pytest.raises(ValueError, match=r"frequency 1 has shape \(2,\)"):
            PhaseObservable({0: np.array([[1.0], [0.0]]), 1: np.array([1.0, 0.0])})
        with pytest.raises(ValueError, match=r"frequency 0 has shape \(2, 0\)"):
            PhaseObservable({0: np.zeros((2, 0))})

    def test_phase_observable_degree_window(self):
        v = np.array([[1.0]])
        with pytest.raises(ValueError, match="degree window must be >= 0, got -1"):
            PhaseObservable({0: v}, degree_window=-1)
        with pytest.raises(ValueError, match="degree window must be an integer"):
            PhaseObservable({0: v}, degree_window=1.5)
        assert PhaseObservable({0: v}, degree_window=np.int64(0)).degree_window == 0

    def test_phase_difference_pairs_are_integers(self):
        with pytest.raises(ValueError, match="frequency must be an integer, got 0.4"):
            PhaseDifferenceObservable({(0.4, 0): np.array([1.0])})
        for key in (5, (0, 1, 2)):
            with pytest.raises(ValueError, match=re.escape(f"key {key!r} is not a frequency pair")):
                PhaseDifferenceObservable({key: np.array([1.0])})

    def test_phase_difference_vectors_share_a_length(self):
        with pytest.raises(ValueError, match=r"vector at \(1, 0\) has length 3, the first has 2"):
            PhaseDifferenceObservable(
                {(0, 0): np.array([1.0, 0.0]), (1, 0): np.array([0.0, 0.0, 1.0])}
            )

    def test_phase_matrix_element_indices_are_integers(self):
        obs = PhaseObservable({0: np.array([[1.0]]), 1: np.array([[1.0]])})
        with pytest.raises(ValueError, match="frequency must be an integer, got 1.0"):
            phase_matrix_element(obs, TrigPolynomial.one(), 1.0, 0)

    def test_phase_difference_matrix_element_indices_are_integers(self):
        obs = PhaseDifferenceObservable({(0, 0): np.array([1.0])})
        with pytest.raises(ValueError, match="frequency must be an integer, got 0.4"):
            phase_difference_matrix_element(obs, TrigPolynomial.one(), (0.4, 0), (0, 0))


class TestPositionPovm:
    def test_equal_vectors_kernel(self):
        n = 6
        v = np.array([1.0, 0.0], dtype=complex)
        povm = position_povm_zn(n, [v] * n)
        subset = [0, 2, 3]
        e_mat = povm.assembled_effect(subset)
        fo = povm.ctx.cotransform(povm.ctx.indicator(subset))
        chars = [povm.ctx.group.character([x]) for x in range(n)]
        hperp = {y: i for i, y in enumerate(povm.ctx.hperp_points)}
        for y in range(n):
            for x in range(n):
                expected = fo[hperp[chars[y] - chars[x]]] / n
                assert e_mat[y, x] == pytest.approx(expected)
        np.testing.assert_allclose(
            povm.assembled_effect(range(n)), np.eye(n), atol=1e-9
        )

    def test_orthogonal_vectors_give_diagonal_operator(self):
        n = 4
        vectors = [np.eye(n)[x] for x in range(n)]
        povm = position_povm_zn(n, vectors)
        rng = np.random.default_rng(12)
        omega = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        m = povm.assembled(omega)
        off_diag = m - np.diag(np.diag(m))
        assert np.abs(off_diag).max() < 1e-12
        np.testing.assert_allclose(np.diag(m), np.full(n, omega.mean()), atol=1e-9)

    def test_n_equal_one(self):
        povm = position_povm_zn(1, [np.array([1.0])])
        omega = np.array([2.5 + 1j])
        np.testing.assert_allclose(povm.assembled(omega), omega[0] * np.eye(1))

    def test_non_unit_vector_rejected(self):
        with pytest.raises(ValueError):
            position_povm_zn(2, [np.array([1.0, 0.0]), np.array([0.5, 0.0])])

    def test_oracle_agreement(self):
        rng = np.random.default_rng(13)
        vectors = [random_isometry(rng, 3, 1)[:, 0] for _ in range(5)]
        povm = position_povm_zn(5, vectors)
        for _ in range(5):
            omega = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            assert (
                np.abs(
                    povm.assembled(omega)
                    - apply_via_intertwiner(povm, omega).assemble()
                ).max()
                < 1e-9
            )


class TestBornRule:
    def test_scalar_uniform(self):
        povm = scalar_z12_povm()
        probs = born_distribution(np.array([1.0]), povm, [[0], [1], [2], [3]])
        np.testing.assert_allclose(probs, 0.25, atol=1e-12)

    def test_basis_state_with_equal_vectors_is_uniform(self):
        n = 4
        v = np.array([1.0, 0.0], dtype=complex)
        povm = position_povm_zn(n, [v] * n)
        state = np.zeros(n, dtype=complex)
        state[1] = 1.0
        probs = born_distribution(state, povm, [[i] for i in range(n)])
        np.testing.assert_allclose(probs, 1.0 / n, atol=1e-9)

    def test_whole_space_partition(self):
        povm = scalar_z12_povm()
        probs = born_distribution(np.array([1.0]), povm, [[0, 1, 2, 3]])
        np.testing.assert_allclose(probs, [1.0], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        rng = np.random.default_rng(14)
        vectors = [random_isometry(rng, 2, 1)[:, 0] for _ in range(6)]
        povm = position_povm_zn(6, vectors)
        state = rng.standard_normal(6) + 1j * rng.standard_normal(6)
        state = state / np.linalg.norm(state)
        probs = born_distribution(state, povm, [[i] for i in range(6)])
        assert probs.min() > -1e-9
        assert probs.max() < 1.0 + 1e-9
        assert probs.sum() == pytest.approx(1.0, abs=1e-9)

    def test_non_unit_state_rejected(self):
        povm = scalar_z12_povm()
        with pytest.raises(ValueError):
            born_distribution(np.array([0.9]), povm, [[0], [1], [2], [3]])

    def test_bad_partition_rejected(self):
        povm = scalar_z12_povm()
        with pytest.raises(ValueError):
            born_distribution(np.array([1.0]), povm, [[0], [0, 1], [2], [3]])
        with pytest.raises(ValueError):
            born_distribution(np.array([1.0]), povm, [[0], [1]])


class TestSampling:
    def test_five_sigma_binomial(self):
        povm = scalar_z12_povm()
        n = 10_000
        counts = sample_outcomes(
            np.array([1.0]), povm, [[0], [1], [2], [3]], n, seed=123
        )
        assert counts.sum() == n
        sigma = np.sqrt(n * 0.25 * 0.75)
        for c in counts:
            assert abs(c - n * 0.25) < 5 * sigma

    def test_seed_reproducibility(self):
        povm = scalar_z12_povm()
        a = sample_outcomes(np.array([1.0]), povm, [[0], [1], [2], [3]], 500, seed=9)
        b = sample_outcomes(np.array([1.0]), povm, [[0], [1], [2], [3]], 500, seed=9)
        assert np.array_equal(a, b)
        c = sample_outcomes(np.array([1.0]), povm, [[0], [1], [2], [3]], 500, seed=10)
        assert not np.array_equal(a, c)

    def test_degenerate_distribution(self):
        povm = scalar_z12_povm()
        counts = sample_outcomes(
            np.array([1.0]), povm, [[0, 1, 2, 3]], 250, seed=0
        )
        assert counts.tolist() == [250]

    def test_zero_draws(self):
        povm = scalar_z12_povm()
        counts = sample_outcomes(np.array([1.0]), povm, [[0], [1], [2], [3]], 0, seed=0)
        assert counts.tolist() == [0, 0, 0, 0]
