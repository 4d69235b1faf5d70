import json
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from plopen import cli, feasible, whyburn
from plopen.feasible import (
    REL_EQ,
    REL_LE,
    REL_LT,
    BoxGrid,
    IntegerPoints,
    _feasible_int,
    _frame_probe,
    _frame_rows,
    box_holds,
    boxes_overlap,
    constrained_hull_dim,
    homogeneous_column,
    hull_contains,
    hull_leaves_affine_span,
    hulls_intersect,
    integer_box,
    median_steps,
    relative_interiors_intersect,
    relint_meets_simplex,
    relint_preimage_witness,
    segment_box,
    segment_hits_hull,
    segment_meets_box,
    simplex_frame,
)
from plopen.generators import GenSpec, generate
from plopen.instancefile import plmap_to_document, save_document
from plopen.linalg import Matrix, det_sign, null_space

from oracles import (
    LinearSystem,
    LinRow,
    hull_dim,
    intersection_dim,
    lp_feasible,
    vertex_form_hull_contains,
    vertex_form_segment_hits_hull,
)


def F(*args):
    return Fraction(*args)


def pt(*coords):
    return tuple(F(c) for c in coords)


def cols(points):
    return [homogeneous_column(p) for p in points]


def system(num_vars, rows):
    return LinearSystem(
        num_vars,
        tuple(LinRow(tuple(F(c) for c in coeffs), rel, F(rhs)) for coeffs, rel, rhs in rows),
    )


class TestLpFeasible:
    def test_interval(self):
        sys_ = system(1, [((-1,), REL_LE, 0), ((1,), REL_LE, 1)])
        witness = lp_feasible(sys_)
        assert witness is not None and 0 <= witness[0] <= 1

    def test_contradiction(self):
        sys_ = system(1, [((-1,), REL_LE, -1), ((1,), REL_LE, 0)])
        assert lp_feasible(sys_) is None

    def test_open_segment(self):
        sys_ = system(
            2,
            [((1, 1), REL_EQ, 1), ((-1, 0), REL_LT, 0), ((0, -1), REL_LT, 0)],
        )
        witness = lp_feasible(sys_)
        assert witness is not None
        assert witness[0] + witness[1] == 1 and witness[0] > 0 and witness[1] > 0

    def test_strict_boundary_infeasible(self):
        sys_ = system(1, [((1,), REL_LT, 0), ((-1,), REL_LE, 0)])
        assert lp_feasible(sys_) is None

    def test_equalities_only(self):
        sys_ = system(2, [((1, 1), REL_EQ, 3), ((1, -1), REL_EQ, 1)])
        assert lp_feasible(sys_) == (F(2), F(1))

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_witness_substitution_is_exact(self, data):
        num_vars = data.draw(st.integers(min_value=1, max_value=4))
        num_rows = data.draw(st.integers(min_value=1, max_value=6))
        rows = []
        for _ in range(num_rows):
            coeffs = tuple(
                data.draw(st.integers(min_value=-4, max_value=4)) for _ in range(num_vars)
            )
            rel = data.draw(st.sampled_from([REL_EQ, REL_LE, REL_LT]))
            rhs = data.draw(st.integers(min_value=-6, max_value=6))
            rows.append((coeffs, rel, rhs))
        sys_ = system(num_vars, rows)
        witness = lp_feasible(sys_)
        if witness is not None:
            assert sys_.satisfies(witness)


class TestHullPredicates:
    def test_membership(self):
        triangle = [pt(0, 0), pt(2, 0), pt(0, 2)]
        assert hull_contains(triangle, pt(F(1, 2), F(1, 2)))
        assert hull_contains(triangle, pt(0, 0))
        assert not hull_contains(triangle, pt(2, 2))

    def test_hull_dim(self):
        assert hull_dim([pt(0, 0)]) == 0
        assert hull_dim([pt(0, 0), pt(1, 1)]) == 1
        assert hull_dim([pt(0, 0), pt(1, 0), pt(0, 1)]) == 2
        assert hull_dim([pt(0, 0), pt(1, 1), pt(2, 2)]) == 1

    def test_segment_hits(self):
        square = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
        assert segment_hits_hull(pt(-1, F(1, 2)), pt(2, F(1, 2)), square)
        assert not segment_hits_hull(pt(-1, 2), pt(2, 2), square)
        # endpoint inside the obstacle counts (closed-segment convention)
        assert segment_hits_hull(pt(-1, -1), pt(0, 0), square)

    def test_segment_avoids_sets(self):
        square = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
        assert not any(segment_hits_hull(pt(2, 2), pt(2, 2), obs) for obs in [square])
        assert any(segment_hits_hull(pt(F(1, 2), -1), pt(F(1, 2), 2), obs) for obs in [square])

    def test_empty_hull_meets_nothing(self):
        assert not hulls_intersect([pt(0)], [])
        assert not relative_interiors_intersect([pt(0), pt(1)], [])
        assert not hull_contains([], pt(0, 0))
        assert not segment_hits_hull(pt(0), pt(0), [])
        assert relint_preimage_witness([pt(0)], [pt(0)], []) is None

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_frame_probes_match_vertex_form_on_dependent_points(self, data):
        """`hull_contains` and `segment_hits_hull`, asked in the point's or
        the segment's frame, answer as the vertex-form probe on affinely
        dependent point sets in dims 1-3 with 20-40-digit coordinates, for
        points on and off the hull and segments whose ends may be equal."""
        n = data.draw(st.integers(1, 3), label="n")
        digits = st.integers(10**19, 10**40 - 1)
        denominator = data.draw(st.sampled_from([1, 3, 10**20 + 39]), label="denominator")

        def big():
            sign = data.draw(st.sampled_from([1, -1]))
            return F(sign * data.draw(digits), denominator)

        rank = data.draw(st.integers(0, n), label="rank")
        spanning = [tuple(big() for _ in range(n)) for _ in range(rank + 1)]
        extra = data.draw(st.integers(1, 3), label="extra")
        weights = st.lists(st.integers(-2, 3), min_size=rank + 1, max_size=rank + 1)
        combos = [data.draw(weights.filter(lambda w: sum(w) != 0)) for _ in range(extra)]
        verts = spanning + [
            tuple(sum(w * p[c] for w, p in zip(ws, spanning)) / sum(ws) for c in range(n))
            for ws in combos
        ]
        verts = data.draw(st.permutations(verts), label="verts")
        assert hull_dim(verts) < len(verts) - 1

        def query():
            ws = data.draw(
                st.lists(st.integers(0, 3), min_size=len(verts), max_size=len(verts)).filter(any)
            )
            on = tuple(sum(w * v[c] for w, v in zip(ws, verts)) / sum(ws) for c in range(n))
            mode = data.draw(st.sampled_from(["on", "off axis", "off hull", "far"]))
            if mode == "on":
                assert hull_contains(verts, on)
                return on
            if mode == "off axis":
                axis, step = data.draw(st.integers(0, n - 1)), F(1, data.draw(digits))
                return tuple(x + step * (c == axis) for c, x in enumerate(on))
            if mode == "off hull":  # past a vertex, off the hull when its weight is 0
                v = data.draw(st.sampled_from(verts))
                return tuple(x + (x - vc) / 7 for x, vc in zip(on, v))
            return tuple(big() for _ in range(n))

        start = query()
        end = start if data.draw(st.booleans(), label="equal ends") else query()
        assert hull_contains(verts, start) == vertex_form_hull_contains(verts, start)
        assert hull_contains(verts, end) == vertex_form_hull_contains(verts, end)
        hit = segment_hits_hull(start, end, verts)
        assert hit == vertex_form_segment_hits_hull(start, end, verts)
        if start == end:
            assert hit == hull_contains(verts, start)

    def test_relative_interiors(self):
        a = [pt(0, 0), pt(2, 0), pt(0, 2)]
        b = [pt(1, 0), pt(3, 0), pt(1, 2)]  # overlaps a in the triangle (1,0),(2,0),(1,1)
        c = [pt(2, 0), pt(3, 0), pt(2, 1)]  # shares only the vertex (2,0) with a
        d = [pt(1, 1), pt(3, 1), pt(1, 3)]  # touches a only at (1,1)
        assert relative_interiors_intersect(a, b)
        assert not relative_interiors_intersect(a, c)
        assert not relative_interiors_intersect(a, d)
        assert hulls_intersect(a, c)


class TestIntersectionDim:
    def test_segment_with_itself(self):
        seg = [pt(0, 0), pt(1, 1)]
        assert intersection_dim(seg, seg) == 1

    def test_parallel_disjoint_segments(self):
        assert intersection_dim([pt(0, 0), pt(1, 0)], [pt(0, 1), pt(1, 1)]) is None

    def test_triangles_sharing_vertex(self):
        a = [pt(0, 0), pt(1, 0), pt(0, 1)]
        b = [pt(0, 0), pt(-1, 0), pt(0, -1)]
        assert intersection_dim(a, b) == 0

    def test_symmetric_and_full(self):
        a = [pt(0, 0), pt(2, 0), pt(0, 2)]
        b = [pt(1, 0), pt(3, 0), pt(1, 2)]
        assert intersection_dim(a, b) == intersection_dim(b, a) == 2
        assert intersection_dim(a, a) == hull_dim(a)
        touching = [pt(1, 1), pt(3, 1), pt(1, 3)]
        assert intersection_dim(a, touching) == 0

    def test_overlap_in_a_segment(self):
        a = [pt(0, 0), pt(2, 0), pt(0, 2)]
        b = [pt(2, 0), pt(0, 2), pt(2, 2)]
        assert intersection_dim(a, b) == 1

    def test_3d_cases(self):
        tet = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
        assert intersection_dim(tet, tet) == 3
        shifted = [pt(5, 0, 0), pt(6, 0, 0), pt(5, 1, 0), pt(5, 0, 1)]
        assert intersection_dim(tet, shifted) is None
        face = [pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
        assert intersection_dim(tet, face) == 2


class TestConstrainedHullDim:
    # the corners of the unit square and their images under (x, y) -> x + y
    SQUARE = [pt(0, 0), pt(1, 0), pt(1, 1), pt(0, 1)]
    SUMS = [pt(0), pt(1), pt(2), pt(1)]

    def test_line_through_square(self):
        # x + y = 1 cuts a diagonal segment
        dim, points = constrained_hull_dim(self.SQUARE, self.SUMS, pt(1))
        assert dim == 1 and len(points) >= 2

    def test_touching_at_vertex(self):
        dim, points = constrained_hull_dim(self.SQUARE, self.SUMS, pt(0))
        assert dim == 0 and points == [pt(0, 0)]

    def test_empty(self):
        dim, points = constrained_hull_dim(self.SQUARE, self.SUMS, pt(5))
        assert dim is None and points == []


class TestAffineSpanEscape:
    def test_proper_shared_edge(self):
        a = [pt(0, 0), pt(1, 0), pt(0, 1)]
        b = [pt(1, 0), pt(0, 1), pt(1, 1)]
        shared = [1, 2]  # a's vertices (1, 0) and (0, 1)
        assert not hull_leaves_affine_span(simplex_frame(cols(a)), cols(b), shared)

    def test_overlapping_pair_escapes(self):
        a = [pt(0, 0), pt(2, 0), pt(0, 2)]
        b = [pt(0, 0), pt(3, 1), pt(1, 3)]
        shared = [0]  # a's vertex (0, 0)
        assert hull_leaves_affine_span(simplex_frame(cols(a)), cols(b), shared)

    def test_span_point_off_the_vertices_rejected(self):
        a = [pt(0, 0), pt(2, 0), pt(0, 2)]
        b = [pt(1, 0), pt(3, 0), pt(1, 2)]
        with pytest.raises(ValueError):
            hull_leaves_affine_span(simplex_frame(cols(a)), cols(b), [3])

    def test_q_in_another_dimension_rejected(self):
        frame = simplex_frame(cols([pt(0, 0), pt(2, 0), pt(0, 2)]))
        with pytest.raises(ValueError):
            hull_leaves_affine_span(frame, cols([pt(1), pt(1, 1)]), [])

    def test_empty_span_asks_whether_hulls_meet(self):
        a = simplex_frame(cols([pt(0, 0), pt(1, 0), pt(0, 1)]))
        assert hull_leaves_affine_span(a, cols([pt(1, 1), pt(0, 0)]), [])
        assert not hull_leaves_affine_span(a, cols([pt(1, 1), pt(2, 2)]), [])
        assert not hull_leaves_affine_span(a, cols([]), [])

    @pytest.mark.parametrize(
        "verts",
        [
            [pt(0, 0), pt(1, 1), pt(2, 2)],  # collinear
            [pt(0, 0, 0), pt(1, 0, 0), pt(3, 0, 0)],  # a flat triangle in 3-D
            [pt(0), pt(1), pt(2)],  # more than n + 1 points
            [pt(1, 2), pt(1, 2)],  # a repeated point
        ],
    )
    def test_affinely_dependent_frame_rejected(self, verts):
        with pytest.raises(ValueError):
            simplex_frame(cols(verts))

    @pytest.mark.parametrize("swap", [False, True])
    def test_tetrahedron_in_either_orientation(self, swap):
        p_verts = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
        if swap:
            p_verts[1], p_verts[2] = p_verts[2], p_verts[1]
        # the frame's matrix of homogeneous columns: det -1 in this order, +1 swapped
        square = Matrix(tuple(zip(*[(*v, F(1)) for v in p_verts])))
        assert det_sign(square) == (1 if swap else -1)
        frame = simplex_frame(cols(p_verts))
        face = p_verts[1:]
        assert not hull_leaves_affine_span(frame, cols([*face, pt(1, 1, 1)]), [1, 2, 3])
        assert hull_leaves_affine_span(
            frame, cols([*face, pt(F(1, 8), F(1, 8), F(1, 8))]), [1, 2, 3]
        )
        inner = [pt(F(1, 4), F(1, 4), F(1, 4))]
        assert hull_leaves_affine_span(frame, cols(inner), [])
        assert not hull_leaves_affine_span(frame, cols(inner), [0, 1, 2, 3])
        assert hull_leaves_affine_span(frame, cols([pt(0, 0, 0)]), []) and not hull_leaves_affine_span(
            frame, cols([pt(0, 0, 0)]), [0]
        )

    def test_one_dimensional_boundary_points(self):
        # the boundary faces of a 1-D ball are points: k = 0 frames with one axis
        left, right = simplex_frame(cols([pt(-1)])), simplex_frame(cols([pt(1)]))
        assert not hull_leaves_affine_span(left, cols([pt(1)]), [])
        assert hull_leaves_affine_span(right, cols([pt(1)]), [])
        assert not hull_leaves_affine_span(right, cols([pt(1)]), [0])
        assert hull_leaves_affine_span(left, cols([pt(-2), pt(0)]), [])
        assert not hull_leaves_affine_span(left, cols([pt(F(-1, 2)), pt(0)]), [])

    def test_point_frame_in_the_plane(self):
        frame = simplex_frame(cols([pt(F(1, 3), 0)]))
        assert hull_leaves_affine_span(frame, cols([pt(0, -1), pt(F(2, 3), 1)]), [])
        assert not hull_leaves_affine_span(frame, cols([pt(0, -1), pt(1, 1)]), [])

    def test_single_point_q(self):
        p_verts = [pt(0, 0), pt(2, 0), pt(0, 2)]
        frame = simplex_frame(cols(p_verts))
        on_edge = [pt(1, 0)]
        assert not hull_leaves_affine_span(frame, cols(on_edge), [0, 1])
        assert hull_leaves_affine_span(frame, cols(on_edge), [0])
        assert hull_leaves_affine_span(frame, cols([pt(F(1, 2), F(1, 2))]), [1, 2])
        assert not hull_leaves_affine_span(frame, cols([pt(2, 2)]), [])
        assert not hull_leaves_affine_span(frame, cols([pt(0, 2)]), [2])

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_single_probe_matches_probes_along_normals(self, data):
        n = data.draw(st.integers(1, 3))
        coord = st.fractions(-2, 2, max_denominator=2)
        point = st.tuples(*[coord] * n)
        p_verts = data.draw(st.lists(point, min_size=1, max_size=n + 1, unique=True))
        assume(hull_dim(p_verts) == len(p_verts) - 1)
        face = data.draw(st.lists(st.sampled_from(p_verts), max_size=len(p_verts), unique=True))
        # points of conv(P) (small weights) make escapes common
        weights = st.lists(st.integers(0, 2), min_size=len(p_verts), max_size=len(p_verts))
        inside = weights.filter(any).map(
            lambda w: tuple(sum(x * v[c] for x, v in zip(w, p_verts)) / sum(w) for c in range(n))
        )
        extra = data.draw(st.lists(point | inside, min_size=0 if face else 1, max_size=3))
        q_verts = data.draw(st.permutations(face + extra))
        frame = simplex_frame(cols(p_verts))
        span = [p_verts.index(v) for v in face]
        assert hull_leaves_affine_span(frame, cols(q_verts), span) == _leaves_span_by_normals(
            p_verts, q_verts, face
        )

    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_facet_frame_probes_as_the_facets_own_frame(self, data):
        # a facet frame read off a cell's frame answers every probe as the
        # facet's own simplex_frame (coordinate axes completing it) does
        n = data.draw(st.integers(1, 3))
        coord = st.fractions(-2, 2, max_denominator=2)
        point = st.tuples(*[coord] * n)
        p_verts = data.draw(st.lists(point, min_size=n + 1, max_size=n + 1, unique=True))
        assume(hull_dim(p_verts) == n)
        j = data.draw(st.integers(0, n))
        facet = p_verts[:j] + p_verts[j + 1 :]
        # points of the facet's hull (small weights) make meetings common
        weights = st.lists(st.integers(0, 2), min_size=n, max_size=n)
        on_facet = weights.filter(any).map(
            lambda w: tuple(sum(x * v[c] for x, v in zip(w, facet)) / sum(w) for c in range(n))
        )
        q_verts = data.draw(st.lists(point | on_facet, min_size=1, max_size=n))
        span = data.draw(st.lists(st.integers(0, n - 1), max_size=n, unique=True))
        derived = simplex_frame(cols(p_verts)).facet(j)
        own = simplex_frame(cols(facet))
        assert hull_leaves_affine_span(derived, cols(q_verts), span) == hull_leaves_affine_span(
            own, cols(q_verts), span
        )

    def test_facet_frame_needs_a_full_dimensional_frame(self):
        with pytest.raises(ValueError):
            simplex_frame(cols([pt(0, 0), pt(1, 0)])).facet(0)


def _leaves_span_by_normals(p_verts, q_verts, face):
    """Reference: strict probes on both sides of every normal of aff(face)."""
    n = len(p_verts[0])
    kp, kq = len(p_verts), len(q_verts)
    total = kp + kq
    rows = [
        LinRow(tuple(F(int(i < kp)) for i in range(total)), REL_EQ, F(1)),
        LinRow(tuple(F(int(i >= kp)) for i in range(total)), REL_EQ, F(1)),
    ]
    rows += [LinRow(tuple(F(-int(i == j)) for i in range(total)), REL_LE, F(0)) for j in range(total)]
    rows += [
        LinRow(tuple(p[c] for p in p_verts) + tuple(-q[c] for q in q_verts), REL_EQ, F(0))
        for c in range(n)
    ]
    if not face:
        return lp_feasible(LinearSystem(total, tuple(rows))) is not None
    dirs = [tuple(x - y for x, y in zip(v, face[0])) for v in face[1:]]
    normals = null_space(Matrix(tuple(dirs))) if dirs else [
        tuple(F(int(i == j)) for j in range(n)) for i in range(n)
    ]
    for normal in normals:
        coeffs = tuple(sum(a * x for a, x in zip(normal, p)) for p in p_verts) + (F(0),) * kq
        level = sum(a * x for a, x in zip(normal, face[0]))
        for flip in (1, -1):
            probe = LinRow(tuple(flip * c for c in coeffs), REL_LT, flip * level)
            if lp_feasible(LinearSystem(total, (*rows, probe))) is not None:
                return True
    return False


class TestRelintPreimage:
    def test_interior_witness_found(self):
        # segment [0,1] mapped onto [0,2]; does its relint hit the value 1?
        witness = relint_preimage_witness([pt(0), pt(1)], [pt(0), pt(2)], [pt(1)])
        assert witness is not None
        assert 0 < witness[0] < 1 and 2 * witness[0] == 1

    def test_only_endpoint_maps_there(self):
        witness = relint_preimage_witness([pt(0), pt(1)], [pt(0), pt(2)], [pt(2)])
        assert witness is None


class TestRelintMeetsSimplex:
    """The frame probe of whyburn stage 1 against the vertex-form witness."""

    def test_segment_images(self):
        frame = simplex_frame(cols([pt(1)]))
        assert relint_meets_simplex(frame, [homogeneous_column(pt(0)), homogeneous_column(pt(2))])
        assert not relint_meets_simplex(
            frame, [homogeneous_column(pt(0)), homogeneous_column(pt(1))]
        )
        assert not relint_meets_simplex(frame, [])

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_matches_relint_preimage_witness(self, data):
        n = data.draw(st.integers(1, 3))
        coord = st.fractions(-2, 2, max_denominator=3)
        point = st.tuples(*[coord] * n)
        target = data.draw(st.lists(point, min_size=n, max_size=n, unique=True))
        assume(hull_dim(target) == n - 1)
        # source images of a face of dimension 0..n, affinely dependent or
        # not, often sharing vertices with the target or lying on its hull
        weights = st.lists(st.integers(0, 2), min_size=n, max_size=n).filter(any)
        on_target = weights.map(
            lambda w: tuple(sum(x * v[c] for x, v in zip(w, target)) / sum(w) for c in range(n))
        )
        size = data.draw(st.integers(1, n + 1))
        source = data.draw(
            st.lists(point | st.sampled_from(target) | on_target, min_size=size, max_size=size)
        )
        columns = [homogeneous_column(y) for y in source]
        expected = relint_preimage_witness(source, source, target) is not None
        assert relint_meets_simplex(simplex_frame(cols(target)), columns) == expected


class TestFrameProbeOneRow:
    """The one-row "no" of `_frame_probe` against Fourier–Motzkin alone."""

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_matches_fourier_motzkin_alone(self, data):
        n = data.draw(st.integers(1, 3))
        coord = st.fractions(-2, 2, max_denominator=3)
        point = st.tuples(*[coord] * n)
        # full-dimensional frames and lower ones (then with aff rows)
        p_verts = data.draw(st.lists(point, min_size=1, max_size=n + 1, unique=True))
        assume(hull_dim(p_verts) == len(p_verts) - 1)
        frame = simplex_frame(cols(p_verts))
        # P's vertices, points of its faces (zero weights) and points just off them
        weights = st.lists(st.integers(0, 2), min_size=len(p_verts), max_size=len(p_verts))
        on_face = weights.filter(any).map(
            lambda w: tuple(sum(x * v[c] for x, v in zip(w, p_verts)) / sum(w) for c in range(n))
        )
        nudge = st.tuples(*[st.sampled_from([F(0), F(1, 97), F(-1, 97)])] * n)
        off_face = st.tuples(on_face, nudge).map(lambda t: tuple(a + b for a, b in zip(*t)))
        far = st.tuples(*[st.fractions(-4, 4, max_denominator=3)] * n)
        size = data.draw(st.sampled_from(range(n + 3)))
        source = data.draw(
            st.lists(
                far | st.sampled_from(p_verts) | on_face | off_face, min_size=size, max_size=size
            )
        )
        columns = cols(source)
        weight_rel = data.draw(st.sampled_from([REL_LE, REL_LT]))
        # no escape row, or the escape row of a face (all of P's vertices: the zero row)
        face = data.draw(st.none() | st.sets(st.integers(0, len(p_verts) - 1)))
        escape = None
        if face is not None:
            outside = [row for j, row in enumerate(frame.bary) if j not in face]
            escape = [sum(column) for column in zip(*outside)]
        rows = _frame_rows(frame, columns, weight_rel, escape)
        expected = rows is not None and _feasible_int(len(columns), rows) is not None
        assert _frame_probe(frame, columns, weight_rel, escape) == expected

    def test_no_that_needs_two_rows_goes_to_fourier_motzkin(self, monkeypatch):
        # the segment x = 2, -1 <= y <= 2 misses the triangle, but each bary
        # row reads some endpoint as >= 0: only y >= 0 with x + y <= 1 excludes it
        frame = simplex_frame(cols([pt(0, 0), pt(1, 0), pt(0, 1)]))
        columns = cols([pt(2, -1), pt(2, 2)])
        solves = []
        monkeypatch.setattr(feasible, "_feasible_int", lambda *a: solves.append(a) or None)
        assert not _frame_probe(frame, columns, REL_LE)
        assert len(solves) == 1
        assert _feasible_int(*solves[0]) is None

    def test_few_whyburn_probes_reach_fourier_motzkin(self, monkeypatch, tmp_path, capsys):
        # Stage 1's sweep (`boundary_preimage_ok`) makes most frame probes of
        # all; nearly every one is a one-row "no". A certified ball skips that
        # sweep, so the bound applies to the sweep called directly, and the
        # whole command must make fewer probes than the sweep's plus the rest
        # (2,932 + 720 on this ball).
        instance = generate(GenSpec("random_orientation_preserving", 3, resolution=2, seed=1))
        path = tmp_path / "ball.json"
        save_document(path, plmap_to_document(instance.plmap))
        probe, solve = feasible._frame_probe, feasible._feasible_int
        counts = {"probes": 0, "solves": 0}
        inside = []

        def counted_probe(*args):
            counts["probes"] += 1
            inside.append(True)
            try:
                return probe(*args)
            finally:
                inside.pop()

        def counted_solve(*args):
            counts["solves"] += bool(inside)
            return solve(*args)

        monkeypatch.setattr(feasible, "_frame_probe", counted_probe)
        monkeypatch.setattr(feasible, "_feasible_int", counted_solve)
        assert whyburn.boundary_preimage_ok(instance.ball) == (True, None)
        assert counts["probes"] > 100 and counts["solves"] * 10 <= counts["probes"], counts
        counts.update(probes=0, solves=0)
        assert cli.main(["whyburn", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["certified"]
        assert 0 < counts["probes"] < 3652, counts


def _meets(a, b):
    return all(al <= bh and bl <= ah for al, ah, bl, bh in zip(*a, *b))


def _grid_pairs(boxes, n):
    """`BoxGrid.pairs` over boxes in R^n, stepped by their median extents as
    `IntegerPoints.grid` steps a cell grid."""
    steps = median_steps(boxes) if boxes else [1] * n
    return list(BoxGrid(boxes, steps, 1).pairs())


@st.composite
def _int_boxes(draw, n, max_size=24):
    """Boxes over a few small coordinates, so touching and zero extents are common."""
    extent = st.integers(0, 0) | st.integers(0, 3) | st.integers(0, 40)
    boxes = []
    for _ in range(draw(st.integers(0, max_size))):
        lows = draw(st.tuples(*[st.integers(-12, 12)] * n))
        boxes.append((lows, tuple(lo + draw(extent) for lo in lows)))
    return boxes


class TestBoxes:
    def test_bounding_and_overlap(self):
        a = integer_box([(0, 0), (2, 1)])
        b = integer_box([(2, 1), (3, 3)])
        c = integer_box([(5, 5), (6, 6)])
        assert a == ((0, 0), (2, 1))
        assert boxes_overlap(a, b)
        assert not boxes_overlap(a, c)

    def test_touching_and_zero_extent_pairs(self):
        boxes = [((0,), (1,)), ((1,), (1,)), ((2,), (3,)), ((-3,), (-1,)), ((-1,), (2,))]
        assert _grid_pairs(boxes, 1) == [(0, 1), (0, 4), (1, 4), (2, 4), (3, 4)]
        assert _grid_pairs([], 1) == []

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_grid_pairs_match_all_pairs(self, data):
        n = data.draw(st.integers(1, 3))
        boxes = data.draw(_int_boxes(n))
        pairs = _grid_pairs(boxes, n)
        assert pairs == sorted(pairs)
        assert pairs == [
            (i, j)
            for i in range(len(boxes))
            for j in range(i + 1, len(boxes))
            if _meets(boxes[i], boxes[j])
        ]

    def test_grid_holders_on_faces_grid_lines_and_large_boxes(self):
        boxes = [((-4, 0), (-1, 0)), ((0, 0), (0, 0)), ((-2, -3), (5, 3)), ((2, 2), (3, 5))]
        grid = BoxGrid(boxes, [2, 2], 3)
        assert grid.large == 1 << 2  # 16 grid cells, more than there are boxes
        assert grid.holders((0, 0, 1)) == [1, 2]
        # y·D = (-1, 0) lies on box 0's face, in slab ⌊-1/2⌋ = -1, not 0
        assert grid.holders((-1, 0, 3)) == [0, 2]
        # y·D = (2, 2) lies on grid lines and on box 3's corner, in any column form
        assert grid.holders((2, 2, 3)) == grid.holders((4, 4, 6)) == [2, 3]
        assert grid.holders((40, 40, 3)) == []  # outside every filed cell
        assert grid.meeting(((-1, 0), (0, 0))) == [0, 1, 2]
        assert grid.meeting(((-1, 0), (0, 0)), 1) == [1, 2]
        assert BoxGrid([], [1], 1).holders((0, 1)) == [] == BoxGrid([], [1], 1).meeting(((0,), (0,)))

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_grid_holders_and_meeting_match_the_scan(self, data):
        """Boxes with negative corners, zero extents and large boxes; points on
        box faces and grid lines as often as free ones; column denominators
        m > 1 with and without a common factor with the boxes' D."""
        n = data.draw(st.integers(1, 3))
        boxes = data.draw(_int_boxes(n))
        denominator = data.draw(st.integers(1, 4))
        any_steps = st.lists(st.integers(1, 5), min_size=n, max_size=n)
        steps = data.draw(st.just(median_steps(boxes)) | any_steps if boxes else any_steps)
        grid = BoxGrid(boxes, steps, denominator)
        m = data.draw(st.integers(1, 3).map(lambda t: t * denominator) | st.integers(1, 9))
        column = []
        for c in range(n):
            # a value v of y·D, exact whenever D divides m
            lines = [k * steps[c] for k in range(-4, 5)]
            faces = [x for box in boxes for x in (box[0][c], box[1][c])]
            scaled = st.sampled_from(lines + faces) | st.integers(-14, 54)
            column.append(data.draw(scaled.map(lambda v: v * m // denominator)))
        column.append(m)
        assert grid.holders(column) == [
            j for j, box in enumerate(boxes) if box_holds(box, denominator, column)
        ]
        lows = data.draw(st.tuples(*[st.integers(-14, 14)] * n))
        query = (lows, tuple(lo + data.draw(st.integers(0, 3) | st.integers(0, 40)) for lo in lows))
        first = data.draw(st.integers(0, len(boxes)))
        assert grid.meeting(query, first) == [
            j for j in range(first, len(boxes)) if _meets(query, boxes[j])
        ]

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_integer_point_and_segment_tests_match_fractions(self, data):
        n = data.draw(st.integers(1, 3))
        coord = st.fractions(-3, 3, max_denominator=6)
        corners = data.draw(st.lists(st.tuples(*[coord] * n), min_size=1, max_size=4))
        lows = tuple(map(min, zip(*corners)))
        highs = tuple(map(max, zip(*corners)))
        points = IntegerPoints(corners)
        denominator = points.denominator
        box = points.box(tuple(range(len(corners))))
        assert all(F(lo, denominator) == x for lo, x in zip(box[0], lows))
        assert all(F(hi, denominator) == x for hi, x in zip(box[1], highs))
        # the owner's box, columns and frame on any tuple of point ids
        ids = tuple(data.draw(st.permutations(range(len(corners)))))[: data.draw(st.integers(1, 4))]
        chosen = [corners[i] for i in ids]
        assert points.box(ids) == (
            tuple(x * denominator for x in map(min, zip(*chosen))),
            tuple(x * denominator for x in map(max, zip(*chosen))),
        )
        assert points.cols(ids) == tuple(homogeneous_column(p) for p in chosen)
        assert (points.frame(ids) is None) == (hull_dim(chosen) < len(ids) - 1)
        assert points.box(ids) is points.box(ids) and points.frame(ids) is points.frame(ids)
        # coordinates on the box's faces are drawn as often as free ones
        axis_value = [st.sampled_from([lo, hi]) | coord for lo, hi in zip(lows, highs)]
        start = data.draw(st.tuples(*axis_value))
        end = data.draw(st.tuples(*axis_value))
        inside = all(lo <= y <= hi for y, lo, hi in zip(start, lows, highs))
        assert box_holds(box, denominator, homogeneous_column(start)) == inside
        meets = all(
            min(s, e) <= hi and lo <= max(s, e) for s, e, lo, hi in zip(start, end, lows, highs)
        )
        assert (
            segment_meets_box(box, denominator, homogeneous_column(start), homogeneous_column(end))
            == meets
        )
        # the segment's integer box rounds its box outward to the next integers
        outer = segment_box(denominator, homogeneous_column(start), homogeneous_column(end))
        ends = list(zip(start, end))
        assert all(F(lo, denominator) <= min(e) < F(lo + 1, denominator) for lo, e in zip(outer[0], ends))
        assert all(F(hi - 1, denominator) < max(e) <= F(hi, denominator) for hi, e in zip(outer[1], ends))
