from fractions import Fraction

import pytest

from plopen.generators import (
    GenSpec,
    GenerationError,
    box_complex,
    generate,
    oracle_fiber_count,
)
from plopen.instancefile import canonical_json, plmap_to_document
from plopen.openness import _SplitMix64
from plopen.plmap import FiniteFiber, InfiniteFiber, fiber

from oracles import brute_force_fiber


def F(*args):
    return Fraction(*args)


def seeded_queries(f, count, seed):
    rng = _SplitMix64(seed)
    images = [y for cell in f.domain.cells for y in f.image_of_face(cell.vertex_ids)]
    lows, highs = tuple(map(min, zip(*images))), tuple(map(max, zip(*images)))
    for _ in range(count):
        yield tuple(
            lo + Fraction(rng.int_range(0, 64), 64) * (hi - lo)
            for lo, hi in zip(lows, highs)
        )


class TestDeterminism:
    @pytest.mark.parametrize(
        "kind,dim",
        [
            ("identity", 2),
            ("random_orientation_preserving", 2),
            ("random_mixed_signs", 1),
            ("singular_cell", 3),
        ],
    )
    def test_same_spec_same_bytes(self, kind, dim):
        spec = GenSpec(kind, dim, seed=123)
        first = canonical_json(plmap_to_document(generate(spec).plmap))
        second = canonical_json(plmap_to_document(generate(spec).plmap))
        assert first == second

    def test_different_seeds_differ(self):
        a = generate(GenSpec("random_orientation_preserving", 2, seed=0)).plmap
        b = generate(GenSpec("random_orientation_preserving", 2, seed=1)).plmap
        assert a.vertex_images != b.vertex_images


class TestClassGuarantees:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_orientation_preserving_is_coherent(self, dim):
        for seed in range(3):
            f = generate(GenSpec("random_orientation_preserving", dim, seed=seed)).plmap
            assert {p.det_sign for p in f.pieces} == {1}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_mixed_signs_has_both_and_no_zero(self, dim):
        for seed in range(3):
            f = generate(GenSpec("random_mixed_signs", dim, seed=seed)).plmap
            assert {p.det_sign for p in f.pieces} == {-1, 1}

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_singular_cell_has_corank_one_piece(self, dim):
        from plopen.linalg import rank

        f = generate(GenSpec("singular_cell", dim, seed=4)).plmap
        collapsed = [p for p in f.pieces if p.det_sign == 0]
        assert collapsed
        assert any(rank(p.matrix) == dim - 1 for p in collapsed)

    def test_identity_images_are_the_vertices(self):
        f = generate(GenSpec("identity", 2)).plmap
        assert f.vertex_images == f.domain.vertices

    def test_boundary_fixed_for_random_kinds(self):
        spec = GenSpec("random_orientation_preserving", 2, seed=8)
        f = generate(spec).plmap
        resolution = spec.effective_resolution
        for vid, v in enumerate(f.domain.vertices):
            if any(c == 0 or c == resolution for c in v):
                assert f.vertex_images[vid] == v

    def test_resampling_cap_surfaces(self):
        # resolution 1 has no interior vertex: generation must fail loudly
        with pytest.raises(GenerationError):
            generate(GenSpec("random_orientation_preserving", 2, resolution=1))


class TestBoxComplex:
    def test_cell_counts(self):
        assert len(box_complex(1, 4).cells) == 4
        assert len(box_complex(2, 3).cells) == 18
        assert len(box_complex(3, 2).cells) == 48

    def test_cached(self):
        assert box_complex(2, 3) is box_complex(2, 3)


class TestFiberOracle:
    def test_identity_interior(self):
        f = generate(GenSpec("identity", 2)).plmap
        assert oracle_fiber_count(f, (F(1, 2), F(3, 2))) == 1

    def test_doubling_generic(self, doubling2d):
        assert oracle_fiber_count(doubling2d.plmap, (F(1, 2), F(1, 4))) == 2

    def test_singular_collapsed_value_is_infinite(self):
        f = generate(GenSpec("singular_cell", 2, seed=1)).plmap
        collapsed = next(ci for ci, p in enumerate(f.pieces) if p.det_sign == 0)
        target = f.pieces[collapsed].apply(
            f.domain.barycenter(f.domain.cells[collapsed].vertex_ids)
        )
        assert oracle_fiber_count(f, target) is None

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("identity", 1),
            GenSpec("fold1d", 1),
            GenSpec("doubling2d", 2),
            GenSpec("random_orientation_preserving", 2, seed=2),
            GenSpec("random_mixed_signs", 2, seed=2),
            GenSpec("singular_cell", 2, seed=2),
        ],
    )
    def test_agrees_with_fiber_on_seeded_queries(self, spec):
        f = generate(spec).plmap
        for query in seeded_queries(f, 30, seed=hash(spec.kind) & 0xFFFF):
            expected = oracle_fiber_count(f, query)
            outcome = fiber(f, query)
            if expected is None:
                assert isinstance(outcome, InfiniteFiber)
            else:
                assert isinstance(outcome, FiniteFiber)
                assert len(outcome.points) == expected

    def test_finite_fibers_bound_by_cell_count(self):
        f = generate(GenSpec("random_mixed_signs", 2, seed=13)).plmap
        cells = len(f.domain.cells)
        for query in seeded_queries(f, 100, seed=31):
            outcome = fiber(f, query)
            assert isinstance(outcome, FiniteFiber)
            assert len(outcome.points) <= cells

    def test_matches_independent_brute_force(self, doubling2d):
        f = doubling2d.plmap
        for query in seeded_queries(f, 20, seed=99):
            outcome = fiber(f, query)
            if isinstance(outcome, FiniteFiber):
                assert len(brute_force_fiber(f, query)) == len(outcome.points)


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            GenSpec("nonsense", 2)

    def test_fixed_dims_enforced(self):
        with pytest.raises(ValueError):
            GenSpec("doubling2d", 3)

    def test_metadata_round_trip(self):
        spec = GenSpec("random_mixed_signs", 2, resolution=3, seed=17, denominator_bound=32)
        assert GenSpec.from_metadata(spec.to_metadata()) == spec
