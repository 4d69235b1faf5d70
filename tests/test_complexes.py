from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from plopen import complexes, feasible
from plopen.complexes import (
    InvalidComplexError,
    Located,
    NonManifoldError,
    boundary_euler_characteristic,
    cells_connected,
    collect_violations,
    validate_complex,
)
from plopen.generators import _FIXED_DIMS, KINDS, GenSpec, box_complex, generate

from oracles import barycentric_of, cell0_holder_count, eager_face_lattice, point_in_simplex
from test_cli import box_document


def F(*args):
    return Fraction(*args)


TWO_TRIANGLES = ([[0, 0], [1, 0], [1, 1], [0, 1]], [[0, 1, 2], [0, 2, 3]])

# TWO_TRIANGLES and the domain of every generator kind in dims 1-3.
COMPLEXES = [None] + [
    GenSpec(kind, dim) for kind in KINDS for dim in (1, 2, 3) if _FIXED_DIMS.get(kind, dim) == dim
]


@lru_cache(maxsize=None)
def sample_complex(spec):
    return validate_complex(*TWO_TRIANGLES) if spec is None else generate(spec).plmap.domain


class TestValidation:
    def test_two_triangles_sharing_an_edge(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        assert len(complex_.cells) == 2
        assert len(complex_.faces) == 4 + 5 + 2

    def test_improper_overlap(self):
        vertices = [[0, 0], [2, 0], [0, 2], [1, 0], [3, 0], [1, 2]]
        violations, _ = collect_violations(vertices, [[0, 1, 2], [3, 4, 5]])
        assert any(v.kind == "improper_intersection" for v in violations)

    def test_degenerate_cell(self):
        vertices = [[0, 0], [1, 1], [2, 2]]
        violations, _ = collect_violations(vertices, [[0, 1, 2]])
        assert any(v.kind == "degenerate_cell" for v in violations)

    def test_duplicate_vertices(self):
        violations, _ = collect_violations([[0, 0], [0, 0], [1, 0]], [[0, 1, 2]])
        assert any(v.kind == "duplicate_vertex" for v in violations)

    def test_sharing_partial_edge_is_improper(self):
        # second triangle's edge lies along the first's but extends past it
        vertices = [[0, 0], [2, 0], [0, 2], [1, 0], [3, 0], [2, -2]]
        violations, _ = collect_violations(vertices, [[0, 1, 2], [3, 4, 5]])
        assert any(v.kind == "improper_intersection" for v in violations)

    def test_nonmanifold_rejected(self):
        vertices = [[0, 0], [1, 0], [0, 1], [0, -1], [-1, 1]]
        cells = [[0, 1, 2], [0, 1, 3], [0, 1, 4]]
        with pytest.raises(NonManifoldError):
            validate_complex(vertices, cells)

    def test_all_violations_reported(self):
        vertices = [[0, 0], [1, 1], [2, 2], [0, 1]]
        violations, _ = collect_violations(vertices, [[0, 1, 2], [0, 9, 3]])
        kinds = {v.kind for v in violations}
        assert "degenerate_cell" in kinds and "bad_cell" in kinds

    def test_error_carries_violations(self):
        with pytest.raises(InvalidComplexError) as err:
            validate_complex([[0, 0], [1, 1], [2, 2]], [[0, 1, 2]])
        assert err.value.violations

    def test_grid_broad_phase_tests_few_boxes(self, monkeypatch):
        # 64 unit cubes of six tetrahedra each. A cell's box is its cube, so
        # the boxes of two cells overlap exactly when their cubes touch; the
        # grid offers no other pair, where the nested loop tests all of them.
        grid = box_complex(3, 4)
        tests = []
        boxes_overlap = feasible.boxes_overlap

        def counted(a, b):
            tests.append(a)
            return boxes_overlap(a, b)

        monkeypatch.setattr(feasible, "boxes_overlap", counted)
        complex_ = validate_complex(grid.vertices, [cell.vertex_ids for cell in grid.cells], 3)
        count = len(complex_.cells)
        assert count == 384
        assert len(tests) * 4 < count * (count - 1) // 2

    @pytest.mark.parametrize(
        "vertices,cells,expected",
        [
            (
                [[0, 0], [1, 1], [2, 2], [0, 1], [1, 0]],
                [[0, 1, 2], [0, 3, 4], [1, 2, 3]],
                [("degenerate_cell", "cell 0 has affinely dependent vertices", (0,))],
            ),
            (
                [[0, 0], [0, 0], [1, 0]],
                [[0, 1, 2]],
                [
                    ("duplicate_vertex", "vertices 0 and 1 coincide", (0, 1)),
                    ("degenerate_cell", "cell 0 has affinely dependent vertices", (0,)),
                ],
            ),
            (
                [[0, 0], [1, 0], [0, 1], [1], [2, 2], [3, 3]],
                [[0, 1, 2], [1, 2, 3], [0, 4, 5]],
                [
                    ("bad_vertex", "vertex 3 has dimension 1, expected 2", (3,)),
                    ("degenerate_cell", "cell 2 has affinely dependent vertices", (2,)),
                ],
            ),
            (
                [[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 1, 0]],
                [[0, 1, 2, 3], [0, 1, 2, 4]],
                [("degenerate_cell", "cell 1 has affinely dependent vertices", (1,))],
            ),
            (*TWO_TRIANGLES, []),
        ],
    )
    def test_degeneracy_is_read_from_the_cell_frames(
        self, vertices, cells, expected, forbid_det_sign
    ):
        # the cell frames decide degeneracy; no determinant sign is taken
        forbid_det_sign()
        violations, complex_ = collect_violations(vertices, cells)
        assert [(v.kind, v.detail, v.subjects) for v in violations] == expected
        assert (complex_ is None) == bool(expected)

    def test_locate_builds_the_cell_grid_once(self, monkeypatch):
        # Validation on the degree argument builds no cell grid; `locate`
        # builds it at its first query and keeps it. A complex that falls
        # back to the sweep leaves the sweep's cell grid for `locate`.
        built = []

        class CountedGrid(feasible.BoxGrid):
            def __init__(self, boxes, *args):
                built.append(list(boxes))
                super().__init__(boxes, *args)

        def cell_grids(complex_):
            boxes = [complex_.points.box(ids) for ids in complex_.cell_ids]
            return sum(grid_boxes == boxes for grid_boxes in built)

        grid = box_complex(3, 2)
        monkeypatch.setattr(feasible, "BoxGrid", CountedGrid)
        complex_ = validate_complex(grid.vertices, [cell.vertex_ids for cell in grid.cells], 3)
        assert cell_grids(complex_) == 0
        for ci in range(10):
            located = complex_.locate(complex_.barycenter(complex_.cells[ci].vertex_ids))
            assert located == Located("interior", cell=ci)
        assert cell_grids(complex_) == 1

        built.clear()
        annulus = validate_complex(*SWEPT["annulus"][:2])
        assert cell_grids(annulus) == 1
        for ci in range(len(annulus.cells)):
            located = annulus.locate(annulus.barycenter(annulus.cells[ci].vertex_ids))
            assert located == Located("interior", cell=ci)
        assert cell_grids(annulus) == 1


# Complexes that break a premise of the degree argument, each with the
# violations the all-pairs sweep lists for it.
SWEPT = {
    "two_overlapping_disks": (
        [[0, 0], [2, 0], [2, 2], [0, 2], [1, 1], [3, 1], [3, 3], [1, 3]],
        [[0, 1, 2], [0, 2, 3], [4, 5, 6], [4, 6, 7]],
        [
            ("improper_intersection", "cells 0 and 2 intersect but share no face", (0, 2)),
            ("improper_intersection", "cells 0 and 3 intersect but share no face", (0, 3)),
            ("improper_intersection", "cells 1 and 2 intersect but share no face", (1, 2)),
            ("improper_intersection", "cells 1 and 3 intersect but share no face", (1, 3)),
        ],
    ),
    # eight triangles around the origin, its ring of neighbours winding twice
    "doubly_wrapped_fan": (
        [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [2, 0], [0, 2], [-2, 0], [0, -2]],
        [[0, i, i % 8 + 1] for i in range(1, 9)],
        [
            (
                "improper_intersection",
                f"cells {a} and {b} overlap beyond their common face (0,)",
                (a, b),
            )
            for a, b in [
                (0, 3), (0, 4), (0, 5), (1, 4), (1, 5), (1, 6),
                (2, 5), (2, 6), (2, 7), (3, 6), (3, 7), (4, 7),
            ]
        ],
    ),
    # four triangles around the origin whose last laps over the first: one
    # boundary cycle, one cell over cell 0's barycentre, but boundary edges
    # that meet improperly at vertex 1
    "overwound_fan": (
        [[0, 0], [1, 0], [0, 1], [-1, 0], [0, -1], [2, 1]],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 4, 5]],
        [("improper_intersection", "cells 0 and 3 overlap beyond their common face (0,)", (0, 3))],
    ),
    # a valid complex whose boundary is two cycles
    "annulus": (
        [[0, 0], [3, 0], [3, 3], [0, 3], [1, 1], [2, 1], [2, 2], [1, 2]],
        [
            cell
            for k in range(4)
            for cell in ([k, (k + 1) % 4, 4 + (k + 1) % 4], [k, 4 + (k + 1) % 4, 4 + k])
        ],
        [],
    ),
    # a valid complex: a square with a triangular hole that touches its
    # bottom edge at vertex 1, which lies in four boundary edges
    "pinched_boundary": (
        [[0, 0], [2, 0], [4, 0], [4, 4], [0, 4], [1, 1], [3, 1]],
        [[0, 1, 5], [1, 2, 6], [0, 5, 4], [2, 3, 6], [5, 6, 3], [5, 3, 4]],
        [],
    ),
    # vertex 6 lies inside cell 0's edge (1, 2)
    "t_junction": (
        [[0, 0], [1, 0], [1, 2], [0, 2], [2, 0], [2, 2], [1, 1]],
        [[0, 1, 2], [0, 2, 3], [1, 4, 6], [6, 4, 5], [6, 5, 2]],
        [
            ("improper_intersection", "cells 0 and 2 overlap beyond their common face (1,)", (0, 2)),
            ("improper_intersection", "cells 0 and 3 intersect but share no face", (0, 3)),
            ("improper_intersection", "cells 0 and 4 overlap beyond their common face (2,)", (0, 4)),
        ],
    ),
    "same_side_of_shared_facet": (
        [[0, 0], [2, 0], [0, 2], [1, 1]],
        [[0, 1, 2], [0, 1, 3]],
        [("improper_intersection", "cells 0 and 1 overlap beyond their common face (0, 1)", (0, 1))],
    ),
    "nonmanifold_face": (
        [[0, 0], [1, 0], [0, 1], [0, -1], [-1, 1]],
        [[0, 1, 2], [0, 1, 3], [0, 1, 4]],
        [
            ("improper_intersection", "cells 0 and 2 overlap beyond their common face (0, 1)", (0, 2)),
            ("nonmanifold_face", "(n-1)-face (0, 1) is incident to 3 cells", (0, 1, 2)),
        ],
    ),
}


def violations_both_ways(vertices, cells, ambient_dim=None):
    """The violations of `collect_violations`, whether it accepted the
    complex by the degree argument alone (no sweep), and its violations with
    the degree argument turned off."""
    swept = []
    sweep = complexes.improper_intersections

    def counted(*args):
        swept.append(args)
        return sweep(*args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "improper_intersections", counted)
        violations, complex_ = collect_violations(vertices, cells, ambient_dim)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(complexes, "_proper_by_degree", lambda *args: False)
        forced, _ = collect_violations(vertices, cells, ambient_dim)
    return violations, complex_ is not None and not swept, forced


def assert_sweep_agrees(vertices, cells, ambient_dim=None):
    """The degree argument and the sweep list the same violations; what the
    degree argument accepts, the sweep finds proper, and exactly one cell
    holds cell 0's barycentre there, though no premise counts the holders."""
    violations, accepted, forced = violations_both_ways(vertices, cells, ambient_dim)
    assert violations == forced
    if accepted:
        assert forced == []
        assert cell0_holder_count(vertices, cells) == 1
    return accepted


def acceptance_complexes():
    """The domain and the image of every map in the acceptance corpus, each
    as a complex on the map's cells."""
    from test_acceptance import corpus_instances

    return [
        (points, f.domain.cell_ids, f.ambient_dim)
        for _, f in corpus_instances()
        for points in (f.domain.vertices, f.vertex_images)
    ]


class TestProperByDegree:
    @pytest.mark.parametrize("name", sorted(SWEPT))
    def test_named_complexes_reach_the_sweep(self, name):
        vertices, cells, expected = SWEPT[name]
        violations, accepted, forced = violations_both_ways(vertices, cells)
        assert not accepted
        assert [(v.kind, v.detail, v.subjects) for v in violations] == expected
        assert violations == forced

    @pytest.mark.parametrize("spec", COMPLEXES)
    def test_generator_kinds_agree_with_the_sweep(self, spec):
        if spec is None:
            assert_sweep_agrees(*TWO_TRIANGLES)
            return
        f = generate(spec).plmap
        for points in (f.domain.vertices, f.vertex_images):
            assert_sweep_agrees(points, f.domain.cell_ids, spec.dim)

    def test_acceptance_corpus_agrees_with_the_sweep(self):
        accepted = [assert_sweep_agrees(*complex_) for complex_ in acceptance_complexes()]
        assert sum(accepted) > 50

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_perturbed_box_complexes_agree_with_the_sweep(self, data):
        dim = data.draw(st.integers(1, 3))
        grid = box_complex(dim, data.draw(st.integers(1, {1: 4, 2: 3, 3: 2}[dim])))
        # each coordinate moves by a multiple of 1/8 of the unit grid step,
        # up to a drawn bound of at most 5/8: small moves keep the complex
        # valid, large ones fold it
        bound = data.draw(st.integers(0, 5))
        offsets = st.tuples(*[st.integers(-bound, bound)] * dim)
        count = len(grid.vertices)
        moves = data.draw(st.lists(offsets, min_size=count, max_size=count))
        vertices = [
            [c + F(d, 8) for c, d in zip(v, move)] for v, move in zip(grid.vertices, moves)
        ]
        assert_sweep_agrees(vertices, [cell.vertex_ids for cell in grid.cells], dim)

    @pytest.mark.parametrize("resolution,boundary_pairs", [(2, 360), (4, 1584)])
    def test_validation_probes_only_boundary_pairs(self, monkeypatch, resolution, boundary_pairs):
        # The all-pairs sweep made 1,128 and 17,808 probes on these complexes.
        probes = []
        probe = feasible.hull_leaves_affine_span

        def counted(*args):
            probes.append(args)
            return probe(*args)

        grid = box_complex(3, resolution)
        monkeypatch.setattr(feasible, "hull_leaves_affine_span", counted)
        complex_ = validate_complex(grid.vertices, [cell.vertex_ids for cell in grid.cells], 3)
        boxes = [complex_.points.box(face) for face in complex_.boundary]
        pairs = sum(
            feasible.boxes_overlap(a, b) for i, a in enumerate(boxes) for b in boxes[i + 1 :]
        )
        assert pairs == boundary_pairs
        assert 0 < len(probes) <= pairs


class TestLocate:
    def test_barycenter_is_interior(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        center = complex_.barycenter(complex_.cells[0].vertex_ids)
        located = complex_.locate(center)
        assert located.kind == "interior" and located.cell == 0

    def test_shared_edge_midpoint(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        located = complex_.locate((F(1, 2), F(1, 2)))
        assert located.kind == "face" and located.face == (0, 2)

    def test_outside(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        assert complex_.locate((F(5), F(5))).kind == "outside"

    def test_vertex_is_its_own_face(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        located = complex_.locate((F(0), F(0)))
        assert located.kind == "face" and located.face == (0,)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_against_membership_oracle(self, data):
        complex_ = sample_complex(data.draw(st.sampled_from(COMPLEXES)))
        n = complex_.ambient_dim
        if data.draw(st.booleans()):
            # a quarter-grid point of the vertices' box grown by 1/2
            point = tuple(
                Fraction(
                    data.draw(
                        st.integers(
                            floor(4 * min(v[c] for v in complex_.vertices)) - 2,
                            ceil(4 * max(v[c] for v in complex_.vertices)) + 2,
                        )
                    ),
                    4,
                )
                for c in range(n)
            )
        else:
            # a cell point with some weights 0, so often on a lower face
            cell = complex_.cell_points(data.draw(st.integers(0, len(complex_.cells) - 1)))
            weights = data.draw(
                st.lists(st.integers(0, 3), min_size=n + 1, max_size=n + 1).filter(any)
            )
            point = tuple(
                sum(w * p[c] for w, p in zip(weights, cell)) / sum(weights) for c in range(n)
            )
        located = complex_.locate(point)
        inside_any = any(
            point_in_simplex(point, complex_.cell_points(ci))
            for ci in range(len(complex_.cells))
        )
        assert (located.kind != "outside") == inside_any
        if located.kind != "outside":
            # the carrier is unique: the point is in the relative interior of
            # the located face, so in no proper subface's hull
            if located.kind == "interior":
                ids = complex_.cells[located.cell].vertex_ids
            else:
                ids = located.face
            assert all(c > 0 for c in barycentric_of(point, complex_.face_points(ids)))


class TestBoundary:
    def test_single_triangle(self):
        complex_ = validate_complex([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        assert complex_.boundary == ((0, 1), (0, 2), (1, 2))

    def test_glued_triangles_hide_the_diagonal(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        assert (0, 2) not in complex_.boundary
        assert len(complex_.boundary) == 4

    def test_boundary_cycle_closes(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        ridge_incidence = {}
        for face in complex_.boundary:
            for v in face:
                ridge_incidence.setdefault((v,), []).append(face)
        assert all(len(inc) == 2 for inc in ridge_incidence.values())

    def test_interior_faces_flagging(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        interior = complex_.interior_faces()
        assert (0, 2) in interior  # the diagonal
        assert (0,) not in interior  # corner vertex lies on the boundary
        assert (0, 1, 2) in interior  # cells always count as interior

    @pytest.mark.parametrize("spec", COMPLEXES)
    def test_on_boundary_is_a_subset_of_a_boundary_face(self, spec):
        complex_ = sample_complex(spec)
        facets = [set(face) for face in complex_.boundary]
        for ids, info in complex_.faces.items():
            assert info.on_boundary == any(set(ids) <= facet for facet in facets), ids


class TestConnectivityAndStars:
    def test_connected(self):
        assert cells_connected(validate_complex(*TWO_TRIANGLES))

    def test_disconnected(self):
        vertices = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
        complex_ = validate_complex(vertices, [[0, 1, 2], [3, 4, 5]])
        assert not cells_connected(complex_)


def assert_lattice_matches_the_eager_build(complex_):
    """The lattice built on first read equals the eager reference build (keys,
    dims, incident cells and boundary flags), in (size, ids) order; so do the
    interior faces and the facets; and the boundary facets' Euler
    characteristic is the lattice's alternating sum over its boundary faces."""
    reference = eager_face_lattice(complex_.cell_ids, complex_.boundary)
    by_size = sorted(reference, key=lambda ids: (len(ids), ids))
    assert complex_.faces == reference
    assert list(complex_.faces) == by_size
    assert complex_.interior_faces() == [ids for ids in by_size if not reference[ids].on_boundary]
    n = complex_.ambient_dim
    assert complex_.facets == {
        ids: info.cells for ids, info in reference.items() if info.dim == n - 1
    }
    euler = sum((-1) ** info.dim for info in reference.values() if info.on_boundary)
    assert boundary_euler_characteristic(complex_.boundary) == euler


def mirror_points(points):
    return [(-v[0], *v[1:]) for v in points]


class TestFaceLattice:
    """Validation keeps the facets; the lattice of all faces is built when it
    is first read (`complexes.face_lattice`) and must equal the eager build
    validation made before (`oracles.eager_face_lattice`)."""

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec(kind, dim, seed=seed)
            for kind in KINDS
            for dim in (1, 2, 3)
            if _FIXED_DIMS.get(kind, dim) == dim
            for seed in range(3)
        ],
        ids=str,
    )
    def test_generator_kinds_and_their_mirrors(self, spec):
        f = generate(spec).plmap
        checked = 0
        for points in (f.domain.vertices, f.vertex_images):
            for vertices in (points, mirror_points(points)):
                _, complex_ = collect_violations(vertices, f.domain.cell_ids, spec.dim)
                if complex_ is not None:
                    assert_lattice_matches_the_eager_build(complex_)
                    checked += 1
        assert checked >= 2  # the domain and its mirror are valid

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_perturbed_box_complexes(self, data):
        dim = data.draw(st.integers(1, 3))
        grid = box_complex(dim, data.draw(st.integers(1, {1: 4, 2: 3, 3: 2}[dim])))
        # moves of at most 3/8 of the grid step mostly keep the complex valid
        bound = data.draw(st.integers(0, 3))
        offsets = st.tuples(*[st.integers(-bound, bound)] * dim)
        count = len(grid.vertices)
        moves = data.draw(st.lists(offsets, min_size=count, max_size=count))
        vertices = [
            [c + F(d, 8) for c, d in zip(v, move)] for v, move in zip(grid.vertices, moves)
        ]
        _, complex_ = collect_violations(vertices, [cell.vertex_ids for cell in grid.cells], dim)
        if complex_ is not None:
            assert_lattice_matches_the_eager_build(complex_)

    @pytest.mark.parametrize("mirror", [False, True], ids=["identity", "mirror"])
    def test_four_dimensional_cube(self, mirror):
        doc = box_document(4, 1, mirror)
        for points in (doc["vertices"], doc["vertex_images"]):
            complex_ = validate_complex(points, doc["cells"], 4)
            assert len(complex_.cells) == 24
            assert_lattice_matches_the_eager_build(complex_)
            assert boundary_euler_characteristic(complex_.boundary) == 0  # a 3-sphere

    def test_the_lattice_is_built_once_and_kept(self, monkeypatch):
        calls = []
        face_lattice = complexes.face_lattice

        def counting(*args):
            calls.append(args)
            return face_lattice(*args)

        monkeypatch.setattr(complexes, "face_lattice", counting)
        complex_ = validate_complex(*TWO_TRIANGLES)
        assert calls == []
        assert complex_.faces is complex_.faces
        assert complex_.interior_faces() == [(0, 2), (0, 1, 2), (0, 2, 3)]
        assert len(calls) == 1
