"""Stacked evaluation: the cotransform, ``apply`` and the transported
multiplication matrix on a (k, q) stack of quotient functions equal their
one-omega results bit for bit (``apply`` at rep dimension 1 to one
rounding), bad stacks are rejected, ``verify_axioms`` reports the same
deviations whatever its block size, and CLI ``verify`` evaluates each
route's stack in a few calls."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covpovm.povm as povm_module
from covpovm import (
    CovariantPOVM,
    iojson,
    position_povm_zn,
    transported_multiplication_matrix,
    verify_axioms,
)
from covpovm.cli import main
from helpers import fibered_instance, random_isometry, random_povms, standard_instances


@st.composite
def povms_and_stacks(draw):
    """A random POVM (``helpers.random_povms``) and a stack of the indicator
    basis, the constant function and zero to three random complex ones."""
    povm = draw(random_povms())
    q = povm.ctx.n_cosets
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = draw(st.integers(0, 3))
    randoms = rng.standard_normal((k, q)) + 1j * rng.standard_normal((k, q))
    return povm, np.vstack((np.eye(q), np.ones(q), randoms))


class TestStackEqualsRows:
    @settings(max_examples=150, deadline=None)
    @given(povms_and_stacks())
    def test_random_povms(self, case):
        povm, omegas = case
        ctx, dspace = povm.ctx, povm.diagonal_space
        assert np.array_equal(
            ctx.cotransform(omegas), np.stack([ctx.cotransform(w) for w in omegas])
        )
        stacked = povm.apply(omegas).matrix
        rows = np.stack([povm.apply(w).matrix for w in omegas])
        if povm.dimension == 1:
            # numpy multiplies a one-element array in place without a fused
            # multiply-add, and a longer one with it: one rounding apart
            np.testing.assert_allclose(stacked, rows, rtol=1e-15, atol=1e-300)
        else:
            assert np.array_equal(stacked, rows)
        assert np.array_equal(
            transported_multiplication_matrix(dspace, omegas),
            np.stack([transported_multiplication_matrix(dspace, w) for w in omegas]),
        )

    def test_stacked_operator_reports_its_dimension(self):
        povm = fibered_instance()
        stack = povm.apply(np.eye(povm.ctx.n_cosets))
        assert stack.matrix.shape == (povm.ctx.n_cosets, povm.dimension, povm.dimension)
        assert stack.dimension == povm.dimension


class TestBadStacks:
    @pytest.fixture
    def povm(self):
        return fibered_instance()

    def test_three_dimensional_stack(self, povm):
        q = povm.ctx.n_cosets
        with pytest.raises(ValueError, match="coset values"):
            povm.ctx.cotransform(np.ones((2, 3, q)))
        with pytest.raises(ValueError, match="coset values"):
            povm.assembled(np.ones((1, 1, q)))

    def test_wrong_width(self, povm):
        q = povm.ctx.n_cosets
        with pytest.raises(ValueError, match="coset values"):
            povm.ctx.cotransform(np.ones((4, q + 1)))
        with pytest.raises(ValueError, match="coset values"):
            povm.assembled(np.ones((4, q - 1)))

    @pytest.mark.parametrize("row", [0, 2, 4])
    def test_nan_in_one_row(self, povm, row):
        omegas = np.eye(povm.ctx.n_cosets)[:5].astype(complex)
        omegas[row, 1] = complex(0.0, np.nan)
        with pytest.raises(ValueError, match="non-finite"):
            povm.ctx.cotransform(omegas)
        with pytest.raises(ValueError, match="non-finite"):
            povm.assembled(omegas)
        with pytest.raises(ValueError, match="non-finite"):
            transported_multiplication_matrix(povm.diagonal_space, omegas)


class TestAxiomBlocks:
    @pytest.mark.parametrize("per_block", [1, 2, 3, 7])
    def test_same_deviations_as_one_block(self, monkeypatch, per_block):
        rng = np.random.default_rng(16)
        z16 = position_povm_zn(16, [random_isometry(rng, 2, 1)[:, 0] for _ in range(16)])
        povms = [povm for _, povm in standard_instances()] + [fibered_instance(), z16]
        monkeypatch.setattr(povm_module, "_BLOCK_ENTRIES", 1 << 40)
        whole = [verify_axioms(povm).as_dict() for povm in povms]
        blocked = []
        for povm in povms:
            monkeypatch.setattr(povm_module, "_BLOCK_ENTRIES", per_block * povm.dimension**2)
            blocked.append(verify_axioms(povm).as_dict())
        assert blocked == whole


class TestCallCounts:
    def test_verify_makes_at_most_three_apply_calls(self, tmp_path, monkeypatch, capsys):
        rng = np.random.default_rng(16)
        povm = position_povm_zn(16, [random_isometry(rng, 2, 1)[:, 0] for _ in range(16)])
        scenario = iojson.Scenario(
            povm.rep.group, povm.ctx.subgroup, povm.rep, povm.e_dim, povm.fields
        )
        path = tmp_path / "z16.json"
        path.write_text(json.dumps(iojson.scenario_to_json(scenario)), encoding="utf-8")
        calls = []
        original = CovariantPOVM.apply

        def counted(self, omega):
            calls.append(np.shape(omega))
            return original(self, omega)

        monkeypatch.setattr(CovariantPOVM, "apply", counted)
        assert main(["verify", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["pass"] is True
        assert len(calls) <= 3, calls
