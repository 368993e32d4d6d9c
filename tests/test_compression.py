"""The intertwiner route's compression W^H T(omega) W, read off W's one-point
columns over a stack of omegas, against the dense products; and checks that
it reads W itself, not the kernel or its isometry rows."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covpovm.povm as povm_module
from covpovm import (
    apply_via_intertwiner,
    intertwiner_compressions,
    transported_multiplication_matrix,
)
from covpovm.cli import _oracle_report
from helpers import build_rep, dense_compression, fibered_instance, random_povms, standard_instances

FIXED = standard_instances() + [("fibered", fibered_instance())]


@st.composite
def povms_and_omegas(draw):
    """A random POVM (``helpers.random_povms``) and a stack of one to four
    random outcome functions."""
    povm = draw(random_povms())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return povm, random_omegas(povm, rng, draw(st.integers(1, 4)))


def random_omegas(povm, rng, k):
    q = povm.ctx.n_cosets
    return rng.standard_normal((k, q)) + 1j * rng.standard_normal((k, q))


def stacked(povm, omegas):
    return np.concatenate(list(intertwiner_compressions(povm, omegas)))


def check_compression(povm, omegas):
    got = stacked(povm, omegas)
    dim = povm.dimension
    assert got.shape == (len(omegas), dim, dim)
    for omega, m in zip(omegas, got):
        np.testing.assert_allclose(m, dense_compression(povm, omega), rtol=0, atol=1e-12)
        # equal to rounding: numpy's complex products may round differently
        # in the vector loop over a stack than in the scalar loop over one
        single = apply_via_intertwiner(povm, omega).assemble()
        np.testing.assert_allclose(m, single, rtol=0, atol=1e-14)
    dspace = povm.diagonal_space
    transported = transported_multiplication_matrix(dspace, omegas)
    assert transported.shape == (len(omegas), dspace.dim, dspace.dim)
    for omega, t in zip(omegas, transported):
        assert np.array_equal(t, transported_multiplication_matrix(dspace, omega))


@given(povms_and_omegas())
@settings(max_examples=60, deadline=None)
def test_compression_on_random_instances(case):
    povm, omegas = case
    check_compression(povm, omegas)


@given(povms_and_omegas(), st.data())
@settings(max_examples=60, deadline=None)
def test_home_point_route_against_the_dense_matrix(case, data):
    """The compression against the dense W^H T W at 1e-12, and the point
    matrix at any points (the home points of W's columns, then a random
    list with repeats) equal to the dense T's (p E, j E) entries bit for bit."""
    povm, omegas = case
    dspace = povm.diagonal_space
    dense = transported_multiplication_matrix(dspace, omegas)
    w = povm.intertwiner
    want = w.conj().T @ dense @ w
    np.testing.assert_allclose(stacked(povm, omegas), want, rtol=0, atol=1e-12)
    e = povm.e_dim
    home = np.array([np.flatnonzero(w[:, c])[0] // e for c in range(povm.dimension)], dtype=np.intp)
    drawn = data.draw(st.lists(st.integers(0, dspace.shape[0] - 1), max_size=8))
    for points in (home, np.array(drawn, dtype=np.intp)):
        got = transported_multiplication_matrix(dspace, omegas, points=points)
        assert got.shape == (len(omegas), len(points), len(points))
        rows = points * e
        assert np.array_equal(got, dense[:, rows[:, None], rows])


@pytest.mark.parametrize("name, povm", FIXED, ids=[name for name, _ in FIXED])
def test_compression_on_fixed_instances(name, povm):
    rng = np.random.default_rng(13)
    check_compression(povm, random_omegas(povm, rng, 5))


@pytest.mark.parametrize("per_block", [1, 2, 3])
def test_blocks_of_any_size_give_the_same_stack(monkeypatch, per_block):
    povm = fibered_instance()
    omegas = random_omegas(povm, np.random.default_rng(3), 5)
    whole = stacked(povm, omegas)
    # P at the home points: dim^2 entries per omega (the act runs once per stack)
    monkeypatch.setattr(povm_module, "_BLOCK_ENTRIES", per_block * povm.dimension**2)
    blocks = list(intertwiner_compressions(povm, omegas))
    assert [len(b) for b in blocks] == [min(per_block, 5 - s) for s in range(0, 5, per_block)]
    np.testing.assert_allclose(np.concatenate(blocks), whole, rtol=0, atol=1e-14)


def replace_intertwiner(povm, w):
    povm.__dict__["intertwiner"] = w


def home_rows(povm, c):
    """Diagonal-space rows of the point that holds column c of W."""
    e = povm.e_dim
    point = int(np.flatnonzero(povm.intertwiner[:, c])[0]) // e
    return np.arange(point * e, (point + 1) * e)


class TestOracleReadsTheIntertwiner:
    def test_on_block_perturbation_fails_oracle_agreement(self):
        povm = standard_instances()[2][1]
        w = povm.intertwiner.copy()
        r, c = np.argwhere(w != 0)[-1]
        w[r, c] += 1e-6
        replace_intertwiner(povm, w)
        report = _oracle_report(povm, 1e-9)
        assert not report.passed
        assert report.max_deviation > 1e-7

    def test_perturbed_intertwiner_is_still_compressed_exactly(self):
        povm = fibered_instance()
        w = povm.intertwiner.copy()
        rng = np.random.default_rng(8)
        w[w != 0] += 1e-3 * rng.standard_normal(np.count_nonzero(w))
        w[:, 3] = 0.0  # an all-zero column
        replace_intertwiner(povm, w)
        omegas = random_omegas(povm, rng, 3)
        dspace = povm.diagonal_space
        for omega, m in zip(omegas, stacked(povm, omegas)):
            dense = w.conj().T @ transported_multiplication_matrix(dspace, omega) @ w
            np.testing.assert_allclose(m, dense, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("value", [1e-3, np.nan])
    @pytest.mark.parametrize("where", ["before", "after"])
    def test_off_block_entry_is_detected(self, value, where):
        povm = fibered_instance()
        w = povm.intertwiner.copy()
        c = 5
        rows = home_rows(povm, c)
        stray = rows[0] - 1 if where == "before" else rows[-1] + 1
        assert 0 <= stray < len(w)
        w[stray, c] = value
        replace_intertwiner(povm, w)
        omega = np.ones(povm.ctx.n_cosets)
        with pytest.raises(ValueError, match=f"column {c} has entries at 2 diagonal-space points"):
            apply_via_intertwiner(povm, omega)
        with pytest.raises(ValueError, match="diagonal-space points"):
            _oracle_report(povm, 1e-9)

    def test_kernel_is_not_read(self, monkeypatch):
        povm = fibered_instance()
        omegas = random_omegas(povm, np.random.default_rng(4), 2)
        expected = stacked(povm, omegas)

        def no_kernel(self):
            raise AssertionError("the intertwiner route read the kernel or its isometry rows")

        monkeypatch.setattr(type(povm), "_kernel", property(no_kernel))
        monkeypatch.setattr(type(povm), "_rows", property(no_kernel))
        assert np.array_equal(stacked(povm, omegas), expected)


@pytest.mark.parametrize("per_block", [None, 1, 2])
def test_sweep_builds_the_omega_independent_parts_once(monkeypatch, per_block):
    # the act's gather of the impulse and the home points' shift index are
    # built once per sweep, whatever the block size; the transported matrix
    # is still read once per block
    import covpovm.induction as induction_module
    from covpovm import DiagonalSpace, dilation_sweep

    povm = fibered_instance()
    if per_block is not None:
        monkeypatch.setattr(povm_module, "_BLOCK_ENTRIES", per_block * povm.dimension**2)
    acts, indices, blocks = [], [], []
    act = induction_module.transported_multiplication_act
    shift_index_at = DiagonalSpace._shift_index_at
    matrix = povm_module.transported_multiplication_matrix

    def counted_act(dspace, omegas, phi):
        acts.append(len(omegas))
        return act(dspace, omegas, phi)

    def counted_index(self, rows, cols):
        indices.append(np.size(np.arange(self.shape[0])[rows]))
        return shift_index_at(self, rows, cols)

    def counted_matrix(dspace, omegas, *args, **kwargs):
        blocks.append(len(omegas))
        return matrix(dspace, omegas, *args, **kwargs)

    monkeypatch.setattr(induction_module, "transported_multiplication_act", counted_act)
    monkeypatch.setattr(DiagonalSpace, "_shift_index_at", counted_index)
    monkeypatch.setattr(povm_module, "transported_multiplication_matrix", counted_matrix)
    k = len(dilation_sweep(povm).gaps)
    assert acts == [k]
    assert indices == [povm.dimension]
    per = k if per_block is None else per_block
    assert blocks == [min(per, k - s) for s in range(0, k, per)]


@pytest.mark.parametrize("per_block", [None, 1, 2, 3])
def test_sweep_keeps_m_e0_and_two_gaps_for_any_block_size(monkeypatch, per_block):
    # M(e_0) until the {0, 1} row, for max |M(e_0) + M(e_1) - M({0, 1})|,
    # and max |M(1) - I|, however the rows e_0, e_1, 1 and {0, 1} fall
    # across blocks; the additivity gap is 0.0 on a single coset
    from covpovm import FiniteAbelianGroup, build_covariant_povm, dilation_sweep
    from covpovm import subgroup_from_generators

    g4 = FiniteAbelianGroup((4,))
    rep, fields = build_rep(g4, [({(0,): 1.0, (1,): 2.0}, 1)], np.random.default_rng(1), 2)
    whole = subgroup_from_generators(g4, [g4.element([1])])
    single = ("Z4_modZ4", build_covariant_povm(rep, whole, fields, e_dim=2))
    for name, povm in FIXED + [single]:
        if per_block is not None:
            monkeypatch.setattr(povm_module, "_BLOCK_ENTRIES", per_block * povm.dimension**2)
        q, eye = povm.ctx.n_cosets, np.eye(povm.ctx.n_cosets)
        rows = [eye[0], np.ones(q)] + ([eye[1], eye[0] + eye[1]] if q > 1 else [])
        effects = [povm.assembled(omega[None])[0] for omega in rows]
        sweep = dilation_sweep(povm)
        assert sweep.normalization == np.abs(effects[1] - np.eye(povm.dimension)).max(), name
        additivity = np.abs(effects[0] + effects[2] - effects[3]).max() if q > 1 else 0.0
        assert sweep.additivity == additivity, name
