from fractions import Fraction
from functools import lru_cache
from math import ceil, floor

import pytest
from hypothesis import given, settings, strategies as st

from plopen.complexes import (
    InvalidComplexError,
    NonManifoldError,
    boundary_faces,
    cells_connected,
    collect_violations,
    scaled_star,
    validate_complex,
)
from plopen.generators import _FIXED_DIMS, KINDS, GenSpec, generate

from oracles import barycentric_of, point_in_simplex


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
        assert boundary_faces(complex_) == ((0, 1), (0, 2), (1, 2))

    def test_glued_triangles_hide_the_diagonal(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        assert (0, 2) not in boundary_faces(complex_)
        assert len(boundary_faces(complex_)) == 4

    def test_boundary_cycle_closes(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        ridge_incidence = {}
        for face in boundary_faces(complex_):
            for v in face:
                ridge_incidence.setdefault((v,), []).append(face)
        assert all(len(inc) == 2 for inc in ridge_incidence.values())

    def test_interior_faces_flagging(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        interior = complex_.interior_faces()
        assert (0, 2) in interior  # the diagonal
        assert (0,) not in interior  # corner vertex lies on the boundary
        assert (0, 1, 2) in interior  # cells always count as interior


class TestConnectivityAndStars:
    def test_connected(self):
        assert cells_connected(validate_complex(*TWO_TRIANGLES))

    def test_disconnected(self):
        vertices = [[0, 0], [1, 0], [0, 1], [5, 5], [6, 5], [5, 6]]
        complex_ = validate_complex(vertices, [[0, 1, 2], [3, 4, 5]])
        assert not cells_connected(complex_)

    def test_scaled_star_shrinks_toward_center(self):
        complex_ = validate_complex(*TWO_TRIANGLES)
        center = (F(1, 2), F(1, 2))
        verts, cells, cell_map = scaled_star(complex_, center, (0, 2), F(1, 2))
        assert len(cells) == 2 and set(cell_map.values()) == {0, 1}
        star = validate_complex(verts, cells, 2)
        located = star.locate(center)
        assert located.kind == "face"
        for v in verts:
            assert complex_.locate(v).kind != "outside"
