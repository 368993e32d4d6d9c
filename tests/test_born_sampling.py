"""Born probabilities on the kernel route against the kernel table, the
intertwiner route and dense effects, outcome counts from sorted blocks of
raw words against the per-draw inverse transform, and the input both
reject."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import covpovm.observables as observables
from covpovm import CovariantPOVM, born_distribution, sample_outcomes
from covpovm.cli import main
from covpovm.observables import SAMPLE_BLOCK, _inverse_transform_counts
from helpers import (
    brute_sample_counts,
    cotransform_adjoint,
    dense_cotransform_transposed,
    fibered_instance,
    intertwiner_born,
    kernel_born,
    random_povms,
    scalar_z12_povm,
    standard_instances,
)
from scenarios import scalar_z12, unit_state, write

B = SAMPLE_BLOCK
INSTANCES = standard_instances() + [("Z4xZ4_fibered", fibered_instance())]
SINGLETONS = [[0], [1], [2], [3]]


def partitions(q, rng):
    """Singletons, and a shuffled split into cells that are not contiguous,
    plus two empty cells."""
    order = rng.permutation(q)
    split = [sorted(order[i::3].tolist()) for i in range(min(3, q))]
    return [[[i] for i in range(q)], [[], *split, []]]


class TestKernelBorn:
    @pytest.mark.parametrize("name, povm", INSTANCES, ids=[n for n, _ in INSTANCES])
    def test_matches_intertwiner_route(self, name, povm):
        rng = np.random.default_rng(3)
        for _ in range(3):
            state = unit_state(rng, povm.dimension)
            got = povm.singleton_expectations(state)
            np.testing.assert_allclose(got, intertwiner_born(povm, state), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name, povm", INSTANCES, ids=[n for n, _ in INSTANCES])
    def test_matches_dense_effects(self, name, povm):
        rng = np.random.default_rng(4)
        for partition in partitions(povm.ctx.n_cosets, rng):
            state = unit_state(rng, povm.dimension)
            dense = [np.vdot(state, povm.assembled_effect(cell) @ state).real for cell in partition]
            got = born_distribution(state, povm, partition)
            np.testing.assert_allclose(got, dense, rtol=0, atol=1e-12)

    def test_fibered_instance_has_fibers_and_multiplicities(self):
        povm = fibered_instance()
        table = povm.rep.support_table
        assert set(table.f_dims.tolist()) == {1, 2}
        assert povm.ctx.annihilator.order == 8 and povm.ctx.n_cosets == 8
        index, _ = povm._kernel
        assert (index < 0).any() and (index >= 0).sum() > povm.dimension

    def test_empty_cells_have_probability_zero(self):
        povm = scalar_z12_povm()
        probs = born_distribution(np.array([1.0]), povm, [[], [3, 0], [], [2, 1]])
        assert probs[0] == 0.0 and probs[2] == 0.0
        np.testing.assert_allclose(probs, [0.0, 0.5, 0.0, 0.5], atol=1e-15)

    def test_bad_state_rejected(self):
        povm = scalar_z12_povm()
        with pytest.raises(ValueError, match="dimension 1"):
            povm.singleton_expectations(np.ones(2))
        with pytest.raises(ValueError, match="non-finite"):
            povm.singleton_expectations(np.array([np.nan]))


class TestBornOracles:
    @given(povm=random_povms(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_instances(self, povm, seed):
        rng = np.random.default_rng(seed)
        state = unit_state(rng, povm.dimension)
        got = povm.singleton_expectations(state)
        np.testing.assert_allclose(got, kernel_born(povm, state), rtol=0, atol=1e-12)
        np.testing.assert_allclose(got, intertwiner_born(povm, state), rtol=0, atol=1e-12)
        ctx, a = povm.ctx, povm.ctx.annihilator.order
        phi = rng.standard_normal(a) + 1j * rng.standard_normal(a)
        dense = dense_cotransform_transposed(ctx, phi)
        np.testing.assert_allclose(ctx.cotransform_transposed(phi), dense, rtol=0, atol=1e-12)
        adjoint = ctx.hperp_weight * dense_cotransform_transposed(ctx, phi.conj()).conj()
        np.testing.assert_allclose(cotransform_adjoint(ctx, phi), adjoint, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("name, povm", INSTANCES, ids=[n for n, _ in INSTANCES])
    def test_kernel_table_is_not_read(self, monkeypatch, name, povm):
        rng = np.random.default_rng(7)
        state = unit_state(rng, povm.dimension)
        want = kernel_born(povm, state)

        def no_kernel(self):
            raise AssertionError("singleton_expectations read the kernel table")

        # a property outranks the instance's cached table
        monkeypatch.setattr(CovariantPOVM, "_kernel", property(no_kernel))
        got = povm.singleton_expectations(state)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)


class TestDegenerateWeights:
    @pytest.mark.parametrize(
        "weights, shown",
        [
            ([0.0, 0.0, 0.0, 0.0], "sum to 0.0"),
            ([-0.5, 0.0, -1e-17, 0.0], "sum to 0.0"),
            ([0.5, np.nan, 0.5, 0.0], "sum to nan"),
            ([np.inf, 0.0, 0.0, 0.0], "sum to inf"),
        ],
    )
    def test_rejected_with_the_sum(self, monkeypatch, weights, shown):
        monkeypatch.setattr(
            CovariantPOVM, "singleton_expectations", lambda self, state: np.array(weights)
        )
        with pytest.raises(ValueError, match=shown):
            sample_outcomes(np.array([1.0]), scalar_z12_povm(), SINGLETONS, 1000, 1)

    def test_cli_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "s.json", scalar_z12())
        (tmp_path / "st.json").write_text('{"state": [[1.0, 0.0]]}')
        monkeypatch.setattr(
            CovariantPOVM, "singleton_expectations", lambda self, state: np.zeros(4)
        )
        assert main(["sample", "s.json", "--state", "st.json", "-n", "5", "--seed", "1"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "sum to 0.0" in captured.err


COUNT_PROBS = {
    "random": np.random.default_rng(9).dirichlet(np.ones(7)),
    "dyadic": np.array([0.5, 0.25, 0.125, 0.125]),
    "zero_cells": np.array([0.0, 0.3, 0.0, 0.7, 0.0]),
    # the last edge rounds to exactly 1, and to 1 + 2**-52
    "edge_at_one": np.array([0.25, 0.75, 0.0]),
    "edge_above_one": np.array([0.46335848984461653, 0.3373961461805628, 0.1992453639748208, 0.0]),
    # the largest edge below 1: every word but the top 2**11 lies below it
    "edge_below_one": np.array([1.0 - 2.0**-53, 2.0**-53]),
}


class TestRawWordCounts:
    @pytest.mark.parametrize("key", [0, 1, 2**128 - 1])
    def test_uniform_is_a_raw_word_top_53_bits(self, key):
        got = np.random.Generator(np.random.Philox(key=key)).random(1000)
        raw = np.random.Philox(key=key).random_raw(1000)
        assert np.array_equal(got, (raw >> np.uint64(11)) * 2.0**-53)

    @pytest.mark.parametrize("seed", [0, 1, 2**128 - 1])
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    @pytest.mark.parametrize("name", list(COUNT_PROBS))
    def test_equal_to_per_draw_counts(self, name, n, seed):
        probs = COUNT_PROBS[name]
        got = _inverse_transform_counts(probs, n, seed)
        assert np.array_equal(got, brute_sample_counts(probs, n, seed))
        assert got.dtype == np.int64 and got.sum() == n

    def test_edge_shapes(self):
        for name in ("edge_at_one", "edge_above_one"):
            assert np.cumsum(COUNT_PROBS[name])[-2] >= 1.0, name
        assert np.cumsum(COUNT_PROBS["edge_above_one"])[-2] > 1.0
        got = _inverse_transform_counts(COUNT_PROBS["edge_at_one"], B + 1, 2)
        assert got[-1] == 0

    def test_tie_settled_on_the_full_word(self, monkeypatch):
        seed, at, n = 5, 1000, B + 3
        word = np.random.Philox(key=seed).random_raw(n)[at]
        u = (word >> np.uint64(11)) * 2.0**-53
        edges = np.array([np.nextafter(u, 0.0), u, np.nextafter(u, 1.0)])
        probs = np.diff(edges, prepend=0.0, append=1.0)
        assert np.array_equal(np.cumsum(probs)[:-1], edges)
        thresholds = np.ceil(edges * 2.0**53).astype(np.uint64) << np.uint64(11)
        # the three thresholds share the drawn word's top half: only the
        # full words can place it
        assert ((thresholds >> np.uint64(32)) == word >> np.uint64(32)).all()
        settled = []

        def spy(*args):
            settled.append(args)
            return settle(*args)

        settle = observables._settle_ties
        monkeypatch.setattr(observables, "_settle_ties", spy)
        got = _inverse_transform_counts(probs, n, seed)
        assert settled
        assert np.array_equal(got, brute_sample_counts(probs, n, seed))
        # the drawn value is the left edge of cell 2, which holds nothing else
        assert got[2] >= 1 and got[1] == 0


class TestBlockCounts:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 3 * B + 7])
    def test_block_boundaries(self, n):
        probs = np.array([0.1, 0.25, 0.05, 0.3, 0.3])
        for seed in (0, 17):
            got = _inverse_transform_counts(probs, n, seed)
            assert np.array_equal(got, brute_sample_counts(probs, n, seed))
            assert got.sum() == n

    def test_zero_probability_cells(self):
        probs = np.array([0.0, 0.4, 0.0, 0.0, 0.6, 0.0])
        got = _inverse_transform_counts(probs, 2 * B + 5, 3)
        assert np.array_equal(got, brute_sample_counts(probs, 2 * B + 5, 3))
        assert got[[0, 2, 3, 5]].tolist() == [0, 0, 0, 0]

    def test_one_cell(self):
        got = _inverse_transform_counts(np.array([1.0]), B + 3, 8)
        assert got.tolist() == [B + 3]
        assert np.array_equal(got, brute_sample_counts(np.array([1.0]), B + 3, 8))

    def test_last_edge_below_one(self):
        # ten times 0.1 sums to 0.9999999999999999; the short vector's edges
        # stop at 0.5, so half the draws take the last cell by the clamp
        for probs in (np.full(10, 0.1), np.array([0.2, 0.3])):
            assert np.cumsum(probs)[-1] < 1.0
            got = _inverse_transform_counts(probs, 2 * B + 1, 11)
            assert np.array_equal(got, brute_sample_counts(probs, 2 * B + 1, 11))

    @given(
        weights=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-6, 1.0)), min_size=1, max_size=12
        ).filter(any),
        n=st.integers(0, 2 * B + 3),
        seed=st.integers(0, 2**64),
    )
    @settings(max_examples=60, deadline=None)
    def test_random_probabilities(self, weights, n, seed):
        probs = np.array(weights) / np.sum(weights)
        got = _inverse_transform_counts(probs, n, seed)
        assert np.array_equal(got, brute_sample_counts(probs, n, seed))

    @pytest.mark.parametrize("name, povm", INSTANCES, ids=[n for n, _ in INSTANCES])
    def test_sample_outcomes_end_to_end(self, name, povm):
        rng = np.random.default_rng(6)
        state = unit_state(rng, povm.dimension)
        for partition in partitions(povm.ctx.n_cosets, rng):
            probs = np.clip(born_distribution(state, povm, partition), 0.0, None)
            want = brute_sample_counts(probs / probs.sum(), B + 9, 21)
            assert np.array_equal(sample_outcomes(state, povm, partition, B + 9, 21), want)


class TestBoundary:
    @pytest.mark.parametrize(
        "partition, shown",
        [
            ([[0.0], [1], [2], [3]], "0.0"),
            ([[0], [True], [2], [3]], "True"),
            ([[0], [1], [2], [3.5]], "3.5"),
            ([[0], [1], [2], [4]], "4"),
            ([[0], [1], [2], [-1]], "-1"),
            ([[0, 1], [1], [2], [3]], "overlap at coset 1"),
            ([[0, 0], [1], [2], [3]], "overlap at coset 0"),
            ([[0], [1], [3]], "coset 2 is missing"),
        ],
    )
    def test_bad_partition_names_the_value(self, partition, shown):
        povm = scalar_z12_povm()
        for call in (
            lambda: born_distribution(np.array([1.0]), povm, partition),
            lambda: sample_outcomes(np.array([1.0]), povm, partition, 10, 1),
        ):
            with pytest.raises(ValueError) as info:
                call()
            assert shown in str(info.value)

    @pytest.mark.parametrize("n", [1.5, 10.0, True, -1])
    def test_bad_count_names_the_value(self, n):
        with pytest.raises(ValueError, match="sample count") as info:
            sample_outcomes(np.array([1.0]), scalar_z12_povm(), SINGLETONS, n, 1)
        assert str(n) in str(info.value)

    @pytest.mark.parametrize("seed", [1.5, False, -1, 2**128])
    def test_bad_seed_names_the_value(self, seed):
        with pytest.raises(ValueError, match="seed") as info:
            sample_outcomes(np.array([1.0]), scalar_z12_povm(), SINGLETONS, 10, seed)
        assert str(seed) in str(info.value)

    def test_numpy_integers_accepted(self):
        povm = scalar_z12_povm()
        partition = [[np.int64(i)] for i in range(4)]
        counts = sample_outcomes(np.array([1.0]), povm, partition, np.int32(40), np.uint64(2**63))
        assert counts.sum() == 40

    @pytest.mark.parametrize(
        "args, shown",
        [
            (["-n", "-1", "--seed", "1"], "-1"),
            (["-n", "5", "--seed", "-1"], "-1"),
            (["-n", "5", "--seed", "1", "--partition", "p.json"], "overlap at coset 2"),
        ],
    )
    def test_cli_exits_3(self, tmp_path, capsys, monkeypatch, args, shown):
        monkeypatch.chdir(tmp_path)
        write(tmp_path, "s.json", scalar_z12())
        (tmp_path / "st.json").write_text('{"state": [[1.0, 0.0]]}')
        (tmp_path / "p.json").write_text('{"partition": [[0], [1], [2], [2, 3]]}')
        assert main(["sample", "s.json", "--state", "st.json", *args]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and shown in captured.err


class TestCosetListEntries:
    """One bad entry in a coset list, named with today's message by
    ``born_distribution``, by ``QuotientContext.indicator`` and by CLI
    ``sample --partition`` (exit 3): an int beyond int64 is out of range,
    not an ``OverflowError``."""

    @pytest.mark.parametrize(
        "bad, partition_message, indicator_message",
        [
            (True, "partition entry must be an integer, got True", "must be an integer, got True"),
            (2.0, "partition entry must be an integer, got 2.0", "must be an integer, got 2.0"),
            ("2", "partition entry must be an integer, got '2'", "must be an integer, got '2'"),
            (4, "partition entry 4 is not a coset index in [0, 4)", "coset index 4 out of range"),
            (-3, "partition entry -3 is not a coset index in [0, 4)", "coset index -3 out of"),
            (2**70, f"partition entry {2**70} is not a coset index", f"coset index {2**70} out of"),
            (-(2**70), f"partition entry {-(2**70)} is not a coset", f"coset index {-(2**70)} out"),
        ],
    )
    def test_bad_entry_is_named(self, tmp_path, capsys, bad, partition_message, indicator_message):
        povm = scalar_z12_povm()
        partition = [[0], [1], [bad], [3]]
        with pytest.raises(ValueError) as info:
            born_distribution(np.array([1.0]), povm, partition)
        assert partition_message in str(info.value)
        with pytest.raises(ValueError) as info:
            povm.ctx.indicator([0, bad])
        assert indicator_message in str(info.value)

        write(tmp_path, "s.json", scalar_z12())
        (tmp_path / "st.json").write_text('{"state": [[1.0, 0.0]]}')
        (tmp_path / "p.json").write_text(json.dumps({"partition": partition}))
        argv = ["sample", str(tmp_path / "s.json"), "--state", str(tmp_path / "st.json")]
        argv += ["--partition", str(tmp_path / "p.json"), "-n", "5", "--seed", "1"]
        assert main(argv) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and partition_message in captured.err

    def test_numpy_and_python_entries_mix(self):
        povm = scalar_z12_povm()
        probs = born_distribution(np.array([1.0]), povm, [[0, np.int32(1)], (2,), range(3, 4)])
        np.testing.assert_allclose(probs, [0.5, 0.25, 0.25])
        want = np.array([0, 1, 0, 1], dtype=complex)
        assert np.array_equal(povm.ctx.indicator([np.int64(3), 1]), want)
