import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plopen import feasible
from plopen.complexes import validate_complex
from plopen.degree import (
    BoundaryImageError,
    HomotopyHypothesisViolation,
    IrregularValueError,
    degree,
    degree_at_regular,
    homotopy_degree_constant,
    is_regular_value,
    local_degree,
    point_on_boundary_image,
)
from plopen.generators import _FIXED_DIMS, KINDS, GenSpec, generate
from plopen.plmap import build_plmap, fiber

from oracles import (
    brute_force_sign_sum,
    degree_module,
    grid_boundary_face,
    grid_degree,
    grid_regular_value,
    proper_faces,
    scan_boundary_face,
    scan_regular_value,
    star_local_degree,
    vertex_form_segment_checks,
)


def F(*args):
    return Fraction(*args)


class TestIsRegularValue:
    def test_cell_barycenter_image_is_regular(self, identity_square):
        assert is_regular_value(identity_square, (F(2, 3), F(1, 4)))[0]

    def test_shared_edge_image_is_irregular(self, identity_square):
        ok, why = is_regular_value(identity_square, (F(1, 2), F(1, 2)))
        assert not ok and "face" in why

    def test_fold_breakpoint_image_is_irregular(self, fold1d):
        ok, why = is_regular_value(fold1d, (F(0),))
        assert not ok

    def test_singular_cell_image_is_irregular(self):
        f = generate(GenSpec("singular_cell", 2, seed=1)).plmap
        collapsed = next(ci for ci, p in enumerate(f.pieces) if p.det_sign == 0)
        target = f.pieces[collapsed].apply(
            f.domain.barycenter(f.domain.cells[collapsed].vertex_ids)
        )
        ok, why = is_regular_value(f, target)
        assert not ok


class TestDegreeAtRegular:
    def test_identity_degree_one(self, identity_square):
        cert = degree_at_regular(identity_square, (F(2, 3), F(1, 4)))
        assert cert.degree == 1
        assert cert.fiber == (((F(2, 3), F(1, 4)), 1),)

    def test_fold_zero_by_cancellation(self, fold1d):
        cert = degree_at_regular(fold1d, (F(1, 2),))
        assert cert.degree == 0
        assert cert.fiber == (((F(-1, 2),), -1), ((F(1, 2),), 1))
        assert cert.degree == brute_force_sign_sum(fold1d, (F(1, 2),))

    def test_doubling_degree_two(self, doubling2d):
        f = doubling2d.plmap
        query = (F(1, 2), F(1, 4))
        cert = degree_at_regular(f, query)
        assert cert.degree == 2 == brute_force_sign_sum(f, query)

    def test_boundary_image_rejected(self, identity_square):
        with pytest.raises(BoundaryImageError) as err:
            degree_at_regular(identity_square, (F(0), F(1, 2)))
        assert err.value.face == (0, 3)
        assert str(err.value) == "degree undefined: point lies in the image of boundary face (0, 3)"

    def test_irregular_directs_to_degree(self, identity_square):
        with pytest.raises(IrregularValueError):
            degree_at_regular(identity_square, (F(1, 2), F(1, 2)))

    def test_empty_fiber_gives_zero(self, fold1d):
        cert = degree_at_regular(fold1d, (F(-5),))
        assert cert.degree == 0 and cert.fiber == ()


class TestDegreeWithPerturbation:
    def test_identity_on_shared_edge_image(self, identity_square):
        cert = degree(identity_square, (F(1, 2), F(1, 2)))
        assert cert.degree == 1
        assert cert.regular_point_used != cert.query_point
        assert cert.degree == brute_force_sign_sum(
            identity_square, cert.regular_point_used
        )

    def test_doubling_at_cone_point(self, doubling2d):
        cert = degree(doubling2d.plmap, (F(0), F(0)))
        assert cert.degree == 2
        assert cert.degree == brute_force_sign_sum(
            doubling2d.plmap, cert.regular_point_used
        )

    def test_fold_at_breakpoint_image(self, fold1d):
        cert = degree(fold1d, (F(0),))
        assert cert.degree == 0
        assert not any(hit for _, hit in cert.path_evidence.obstacle_checks)

    def test_certificate_self_consistency(self, doubling2d):
        f = doubling2d.plmap
        cert = degree(f, (F(0), F(0)))
        assert cert.degree == sum(sign for _, sign in cert.fiber)
        for point, _ in cert.fiber:
            assert f.evaluate(point) == cert.regular_point_used

    def test_local_constancy_along_clear_segments(self, doubling2d):
        f = doubling2d.plmap
        a, b = (F(1, 2), F(1, 4)), (F(1, 4), F(1, 2))
        from plopen.feasible import segment_hits_hull

        obstacles = [f.image_of_face(face) for face in f.domain.boundary]
        assert not any(segment_hits_hull(a, b, obs) for obs in obstacles)
        assert degree(f, a).degree == degree(f, b).degree

    def test_degree_bounded_by_cell_count(self, doubling2d):
        f = doubling2d.plmap
        assert abs(degree(f, (F(1, 2), F(1, 4))).degree) <= len(f.domain.cells)

    def test_coherent_degree_is_sign_times_fiber_size(self, doubling2d):
        f = doubling2d.plmap
        cert = degree(f, (F(1, 2), F(1, 4)))
        assert cert.degree == 1 * len(cert.fiber)
        mirrored = build_plmap(
            f.domain, [(-v[0], v[1]) for v in f.vertex_images]
        )
        cert = degree(mirrored, (F(-1, 2), F(1, 4)))
        assert cert.degree == -1 * len(cert.fiber) == -2

    def test_domain_decomposition(self):
        # identity on [0,2]: degrees over the two halves add up to the whole
        whole = build_plmap(
            validate_complex([[0], [1], [2]], [[0, 1], [1, 2]], 1), [[0], [1], [2]]
        )
        left = build_plmap(validate_complex([[0], [1]], [[0, 1]], 1), [[0], [1]])
        right = build_plmap(validate_complex([[1], [2]], [[0, 1]], 1), [[1], [2]])
        query = (F(1, 3),)
        total = degree(whole, query).degree
        assert total == 1
        assert total == degree(left, query).degree + degree(right, query).degree


class TestLocalDegree:
    def test_identity_interior_point(self, identity_square):
        assert local_degree(identity_square, (F(1, 3), F(1, 4))) == 1

    def test_doubling_center(self, doubling2d):
        f = doubling2d.plmap
        assert local_degree(f, (F(0), F(0))) == star_local_degree(f, (F(0), F(0))) == 2

    def test_fold_breakpoint(self, fold1d):
        assert local_degree(fold1d, (F(0),)) == 0

    def test_interior_of_regular_piece(self, fold1d):
        assert local_degree(fold1d, (F(-1, 2),)) == -1
        assert local_degree(fold1d, (F(1, 2),)) == 1

    def test_boundary_point_rejected(self, identity_square):
        with pytest.raises(ValueError):
            local_degree(identity_square, (F(0), F(0)))

    def test_singular_map_rejected(self):
        f = generate(GenSpec("singular_cell", 2, seed=1)).plmap
        with pytest.raises(ValueError):
            local_degree(f, f.domain.barycenter(f.domain.cells[0].vertex_ids))


class TestHomotopy:
    def test_constant_identity(self, identity_square):
        verdict = homotopy_degree_constant(
            identity_square,
            identity_square,
            ((F(1, 3), F(1, 4)), (F(1, 3), F(1, 4))),
            [F(0), F(1, 2), F(1)],
        )
        assert verdict.constant and set(verdict.degrees) == {1}

    def test_identity_to_shear_constant(self):
        shear = generate(GenSpec("shear", 2)).plmap
        identity = build_plmap(shear.domain, list(shear.domain.vertices))
        times = [F(k, 32) for k in range(33)]
        # (2/3, 1/8) stays interior to the sheared triangle for every t in
        # [0,1]: its barycentric coordinates are (5/24 + t/8, 2/3 - t/8, 1/8),
        # and the sampled edge images only cross it at t outside [0,1].
        anchor = (F(2, 3), F(1, 8))
        verdict = homotopy_degree_constant(identity, shear, (anchor, anchor), times)
        assert verdict.constant and set(verdict.degrees) == {1}
        assert len(verdict.degrees) == 33

    def test_identity_to_reflection_flags_collapse(self):
        complex_ = generate(GenSpec("identity", 2, resolution=2)).plmap.domain
        identity = build_plmap(complex_, list(complex_.vertices))
        center = (F(1), F(1))
        reflected = build_plmap(
            complex_,
            [tuple(2 * c - v for v, c in zip(vert, center)) for vert in complex_.vertices],
        )
        times = [F(k, 32) for k in range(33)]
        with pytest.raises(HomotopyHypothesisViolation) as err:
            homotopy_degree_constant(identity, reflected, (center, center), times)
        assert err.value.t == F(1, 2)
        # at t = 1/2 every vertex maps to the centre: the first boundary face is named
        assert err.value.face == complex_.boundary[0]

    def test_mismatched_domains_rejected(self, identity_square, fold1d):
        with pytest.raises(ValueError):
            homotopy_degree_constant(identity_square, fold1d, ((F(0), F(0)), (F(0), F(0))), [F(0)])


@pytest.fixture(scope="module")
def grid_queries():
    """A 3-D map (48 cells, 245 proper faces) and fixed query points on it:
    the images of points inside every fifth proper face, every third
    boundary face and every sixth cell, weighted unevenly."""
    f = generate(GenSpec("random_orientation_preserving", 3, resolution=2, seed=1)).plmap
    faces = proper_faces(f.domain)
    cells = [cell.vertex_ids for cell in f.domain.cells]
    chosen = [*faces[::5], *f.domain.boundary[::3], *cells[::6]]
    points = []
    for ids in chosen:
        weights = range(1, len(ids) + 1)
        images = [f.vertex_images[i] for i in ids]
        points.append(
            tuple(sum(w * y[c] for w, y in zip(weights, images)) / sum(weights) for c in range(3))
        )
    return f, points


class TestGridQueries:
    def test_first_offenders_match_the_linear_scan(self, grid_queries):
        """The grid walks only the faces whose image boxes hold the point, in
        face order, so every diagnosis names the face a linear scan names."""
        f, points = grid_queries
        verdicts = [is_regular_value(f, y) for y in points]
        assert verdicts == [scan_regular_value(f, y) for y in points]
        assert [point_on_boundary_image(f, y) for y in points] == [
            scan_boundary_face(f, y) for y in points
        ]
        assert sum(ok for ok, _ in verdicts) >= 8  # the cell points
        assert sum(point_on_boundary_image(f, y) is not None for y in points) >= 16

    def test_box_tests_are_at_most_half_the_linear_scan(self, grid_queries, monkeypatch):
        """Counts only: `degree` and `fiber` at every query point make at most
        half the `box_holds` calls of the linear scan over every face and
        cell, which made 22,450 on this query set."""
        f, points = grid_queries
        calls = []
        holds = feasible.box_holds

        def counting(*args):
            calls.append(args)
            return holds(*args)

        monkeypatch.setattr(feasible, "box_holds", counting)
        for y in points:
            try:
                degree(f, y)
            except BoundaryImageError:
                pass
            fiber(f, y)
        assert 0 < 2 * len(calls) <= 22_450, len(calls)


# -- one image scan against the grid queries it replaced ------------------------


def _mirrored(f):
    return build_plmap(f.domain, [(-v[0], *v[1:]) for v in f.vertex_images])


def _collapsed_boundary_edge():
    """A square fanned from its centre whose bottom edge collapses to the
    point (9/8, 1), near the centre's image (1, 1): that boundary image has
    no frame, the cell over it is singular and its image holds (1, 1), and
    the first perturbation segment from (1, 1) runs through (9/8, 1)."""
    complex_ = validate_complex(
        [[0, 0], [2, 0], [2, 2], [0, 2], [1, 1]],
        [[0, 1, 4], [1, 2, 4], [2, 3, 4], [0, 3, 4]],
        2,
    )
    eight = Fraction(9, 8)
    return build_plmap(complex_, [(eight, 1), (eight, 1), (2, 2), (0, 2), (1, 1)])


def _collapsed_cell():
    """A square fanned from its centre, vertex 0, whose bottom cell (0, 1, 2)
    collapses onto the bottom side: a point of that side's image left of
    the centre's lies in the images of the interior edge (0, 1) and of the
    boundary edge (1, 2), which only the singular cell has."""
    complex_ = validate_complex(
        [[1, 1], [0, 0], [2, 0], [2, 2], [0, 2]],
        [[0, 1, 2], [0, 2, 3], [0, 3, 4], [0, 1, 4]],
        2,
    )
    return build_plmap(complex_, [(1, 0), (0, 0), (2, 0), (2, 2), (0, 2)])


SCAN_MAPS = {
    f"{kind}-{dim}d": generate(GenSpec(kind, dim, seed=1)).plmap
    for kind in KINDS
    for dim in (1, 2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
}
SCAN_MAPS.update({f"mirrored {name}": _mirrored(f) for name, f in list(SCAN_MAPS.items())})
SCAN_MAPS["collapsed boundary edge"] = _collapsed_boundary_edge()
SCAN_MAPS["collapsed cell"] = _collapsed_cell()


def _image_barycentre(f, face, weights=None):
    """The point with the given weights (all 1 by default) on a face's vertex
    images: the image of the face's barycentre, or of an inner point."""
    weights = weights or [1] * len(face)
    images = [f.vertex_images[i] for i in face]
    total = sum(weights)
    return tuple(
        sum(w * y[c] for w, y in zip(weights, images)) / total for c in range(f.ambient_dim)
    )


def _scan_queries(f):
    """Vertex images, the images of inner points of a few interior faces of
    each dimension below n, of a few boundary faces and of a few cells, and
    every singular cell's image barycentre."""
    domain = f.domain
    by_dim = {}
    for ids in domain.interior_faces():
        if len(ids) <= f.ambient_dim:
            by_dim.setdefault(len(ids), []).append(ids)
    faces = [ids for group in by_dim.values() for ids in group[::4][:4]]
    faces += list(domain.boundary[::5][:4]) + list(domain.cell_ids[::5][:4])
    points = [f.vertex_images[v] for v in range(0, len(domain.vertices), 3)]
    points += [_image_barycentre(f, ids, list(range(1, len(ids) + 1))) for ids in faces]
    points += [
        _image_barycentre(f, ids)
        for ids, piece in zip(domain.cell_ids, f.pieces)
        if piece.det_sign == 0
    ]
    return points


def _outcome(degree_fn, f, point):
    try:
        return degree_fn(f, point)
    except (ValueError, RuntimeError) as exc:
        return type(exc).__name__, str(exc)


def _answers(f, point):
    return (
        point_on_boundary_image(f, point),
        is_regular_value(f, point),
        _outcome(degree, f, point),
    )


def _reference_answers(f, point):
    return (
        grid_boundary_face(f, point),
        grid_regular_value(f, point),
        _outcome(grid_degree, f, point),
    )


class TestOneImageScan:
    """`degree`'s one scan of the cell images that hold a point names the
    boundary face, the (verdict, diagnosis) pair and the whole certificate,
    path evidence included, that the grid queries it replaced name."""

    @pytest.mark.parametrize("name", sorted(SCAN_MAPS))
    def test_agrees_with_the_grid_queries(self, name):
        f = SCAN_MAPS[name]
        for y in _scan_queries(f):
            assert _answers(f, y) == _reference_answers(f, y), (name, y)

    @given(st.data())
    @settings(settings.get_profile("ci"), max_examples=60, deadline=None)
    def test_perturbed_points_agree(self, data):
        name = data.draw(st.sampled_from(sorted(SCAN_MAPS)), label="map")
        f = SCAN_MAPS[name]
        faces = sorted(f.domain.faces)
        face = data.draw(st.sampled_from(faces), label="face")
        weights = data.draw(
            st.lists(st.integers(0, 4), min_size=len(face), max_size=len(face)).filter(any),
            label="weights",
        )
        y = _image_barycentre(f, face, weights)
        step = data.draw(st.sampled_from([0, 1, Fraction(1, 8), Fraction(1, 97)]), label="step")
        axis = data.draw(st.integers(0, f.ambient_dim - 1), label="axis")
        y = tuple(c + step * (i == axis) for i, c in enumerate(y))
        assert _answers(f, y) == _reference_answers(f, y)

    def test_every_branch_is_reached(self, monkeypatch):
        """Across the maps above, the scan meets zero weights in a nonsingular
        cell, a singular cell whose image holds the point, and images with
        no frame, probed in the point's frame (equal ends) and as obstacles
        in the perturbation segment's frame (two ends)."""
        zero_weights, singular_hits, frameless = [], [], set()
        weights_of, holds, hits = (
            degree_module.image_weights,
            degree_module._image_holds,
            feasible.hull_meets_segment,
        )

        def spy_weights(f, ids, column):
            weights = weights_of(f, ids, column)
            if min(weights) == 0:
                zero_weights.append(ids)
            return weights

        def spy_holds(f, face, column):
            held = holds(f, face, column)
            if held and len(face) == f.ambient_dim + 1:
                singular_hits.append(face)
            return held

        def spy_hits(cols, start, end):
            frameless.add("point" if start == end else "segment")
            return hits(cols, start, end)

        monkeypatch.setattr(degree_module, "image_weights", spy_weights)
        monkeypatch.setattr(degree_module, "_image_holds", spy_holds)
        monkeypatch.setattr(feasible, "hull_meets_segment", spy_hits)
        for f in SCAN_MAPS.values():
            for y in _scan_queries(f):
                _outcome(degree, f, y)
        assert zero_weights and singular_hits and frameless == {"point", "segment"}

    @pytest.mark.parametrize("name", sorted(SCAN_MAPS))
    def test_no_query_probes_in_vertex_form(self, name, monkeypatch):
        """`degree`, `degree_at_regular`, `is_regular_value` and
        `point_on_boundary_image` read integer columns only: with the
        vertex-form row builder `feasible._meet_system` made to raise, they
        answer every query as before, on every generator kind (singular
        cells and collapsed boundary images included)."""
        f = SCAN_MAPS[name]

        def answers():
            return [(*_answers(f, y), _outcome(degree_at_regular, f, y)) for y in _scan_queries(f)]

        expected = answers()

        def forbidden(*args, **kwargs):
            raise AssertionError("vertex-form probe on a degree query")

        monkeypatch.setattr(feasible, "_meet_system", forbidden)
        assert answers() == expected

    def test_a_regular_query_makes_one_grid_lookup(self, monkeypatch):
        """Counts only: one `BoxGrid.holders` call decides the boundary test,
        regularity and the fiber of a regular point."""
        f = generate(GenSpec("random_orientation_preserving", 3, seed=1)).plmap
        y = _image_barycentre(f, f.domain.cell_ids[5], [1, 2, 3, 4])
        calls = []
        holders = feasible.BoxGrid.holders

        def counting(grid, column):
            calls.append(column)
            return holders(grid, column)

        monkeypatch.setattr(feasible.BoxGrid, "holders", counting)
        cert = degree(f, y)
        assert cert.regular_point_used == y and cert.fiber
        assert len(calls) == 1


# -- the local degree's cone count against the rescaled-star restriction -------


def _weighted_point(points, weights):
    return tuple(
        sum(w * p[c] for w, p in zip(weights, points)) / sum(weights)
        for c in range(len(points[0]))
    )


def _local_degree_points(f, seed=1):
    """Barycentres of every interior face of dimension at most n-2, of every
    third interior facet and of every fifth cell, and seeded inner points of
    up to eight interior faces, with positive weights."""
    n, domain = f.ambient_dim, f.domain
    interior = domain.interior_faces()
    by_size = {}
    for ids in interior:
        by_size.setdefault(len(ids), []).append(ids)
    faces = [ids for size, group in by_size.items() if size < n for ids in group]
    faces += by_size.get(n, [])[::3] + by_size.get(n + 1, [])[::5]
    points = [domain.barycenter(ids) for ids in faces]
    rng = random.Random(seed)
    for ids in rng.sample(interior, min(8, len(interior))):
        weights = [rng.randint(1, 9) for _ in ids]
        points.append(_weighted_point(domain.face_points(ids), weights))
    return points


# -- the obstacle test: one yes/no that stops at the first hit ----------------------


def _reference_hits(f, start_point, end_point):
    """How many boundary-face images the segment meets, in vertex form."""
    start, end = (feasible.homogeneous_column(p) for p in (start_point, end_point))
    checks = vertex_form_segment_checks(f, start_point, end_point, start, end)
    return sum(hit for _, hit in checks)


def _obstacle_test(f, start_point, end_point):
    start, end = (feasible.homogeneous_column(p) for p in (start_point, end_point))
    return degree_module._segment_hits_boundary(f, start, end)


class TestObstacleTest:
    """`degree`'s obstacle test says whether a segment meets a boundary-face
    image, as the per-face vertex-form list it replaced says, and a rejected
    candidate probes no obstacle after its first hit."""

    @given(st.data())
    @settings(settings.get_profile("ci"), max_examples=80, deadline=None)
    def test_agrees_with_the_vertex_form_list(self, data):
        f = SCAN_MAPS[data.draw(st.sampled_from(sorted(SCAN_MAPS)), label="map")]
        faces = sorted(f.domain.faces)
        ends = []
        for label in ("start", "end"):
            face = data.draw(st.sampled_from(faces), label=label)
            weights = data.draw(
                st.lists(st.integers(0, 4), min_size=len(face), max_size=len(face)).filter(any),
                label=f"{label} weights",
            )
            ends.append(_image_barycentre(f, face, weights))
        # stretched past both ends, a segment often leaves the image twice
        stretch = data.draw(st.sampled_from([0, Fraction(1, 3), 2]), label="stretch")
        a, b = ends
        start = tuple(x - stretch * (y - x) for x, y in zip(a, b))
        end = tuple(y + stretch * (y - x) for x, y in zip(a, b))
        assert _obstacle_test(f, start, end) == (_reference_hits(f, start, end) > 0)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_a_segment_through_the_image_hits_two_obstacles(self, dim):
        """From far outside the image to far outside on the other side,
        through a cell image's barycentre: in and out, two hits at least."""
        for kind in ("identity", "random_orientation_preserving", "random_mixed_signs"):
            f = SCAN_MAPS[f"{kind}-{dim}d"]
            centre = _image_barycentre(f, f.domain.cell_ids[0], list(range(1, dim + 2)))
            far = 2 + 2 * max(abs(c) for y in f.vertex_images for c in y)
            tilt = tuple(Fraction(1, 2 * c + 1) for c in range(dim))
            start = tuple(c - far * t for c, t in zip(centre, tilt))
            end = tuple(c + far * t for c, t in zip(centre, tilt))
            assert _reference_hits(f, start, end) >= 2, kind
            assert _obstacle_test(f, start, end), kind

    def test_a_rejected_candidate_probes_nothing_after_its_first_hit(self, monkeypatch):
        """Each obstacle test's probes, in order: a hit ends them, and some
        rejected candidates leave grid candidates unprobed."""
        runs = []
        probe, test = degree_module._obstacle_hit, degree_module._segment_hits_boundary

        def spy_test(f, start, end):
            box = feasible.segment_box(f.images.denominator, start, end)
            runs.append((len(f.image_grid(f.domain.boundary).meeting(box)), []))
            hit = test(f, start, end)
            assert hit == any(runs[-1][1])
            return hit

        def spy_probe(f, face, start, end):
            hit = probe(f, face, start, end)
            runs[-1][1].append(hit)
            return hit

        monkeypatch.setattr(degree_module, "_segment_hits_boundary", spy_test)
        monkeypatch.setattr(degree_module, "_obstacle_hit", spy_probe)
        for f in SCAN_MAPS.values():
            for y in _scan_queries(f):
                _outcome(degree, f, y)
        rejected = [(candidates, hits) for candidates, hits in runs if any(hits)]
        assert rejected and all(hits.index(True) == len(hits) - 1 for _, hits in rejected)
        assert any(len(hits) < candidates for candidates, hits in rejected)

    def test_the_schedule_ends_after_64_candidates(self, monkeypatch):
        """With every segment blocked, `degree` tries 64 candidates: the
        schedule's directions in order, at epsilon, epsilon / 2, ..."""
        f = SCAN_MAPS["doubling2d-2d"]
        point = f.vertex_images[f.domain.interior_faces()[0][0]]
        monkeypatch.setattr(degree_module, "_segment_hits_boundary", lambda *args: True)
        with pytest.raises(degree_module.PerturbationExhausted) as raised:
            degree(f, point)
        directions = degree_module._perturbation_directions(2)
        epsilon = raised.value.attempts[0][0] - point[0]
        assert epsilon > 0 and len(raised.value.attempts) == 64
        assert raised.value.attempts == [
            tuple(p + epsilon / 2 ** (i // len(directions)) * d for p, d in zip(point, direction))
            for i, direction in enumerate(directions * 7)
        ][:64]
        assert list(inspect.signature(degree).parameters) == ["f", "point"]


class TestLocalDegreeCount:
    """`local_degree`'s one count over the star's image cones gives the value,
    or the error, of the degree of the map restricted to a rescaled star."""

    @pytest.mark.parametrize("name", sorted(SCAN_MAPS))
    def test_agrees_with_the_star_restriction(self, name):
        f = SCAN_MAPS[name]
        for x in _local_degree_points(f):
            assert _outcome(local_degree, f, x) == _outcome(star_local_degree, f, x), (name, x)

    @given(st.data())
    @settings(settings.get_profile("ci"), max_examples=40, deadline=None)
    def test_perturbed_mixed_sign_maps_agree(self, data):
        dim = data.draw(st.integers(1, 3), label="dim")
        base = SCAN_MAPS[f"random_mixed_signs-{dim}d"]
        images = [list(v) for v in base.vertex_images]
        vertex = data.draw(st.integers(0, len(images) - 1), label="vertex")
        axis = data.draw(st.integers(0, dim - 1), label="axis")
        images[vertex][axis] += data.draw(
            st.sampled_from([F(1, 3), F(-1, 5), F(1, 16), F(-3, 7)]), label="shift"
        )
        f = build_plmap(base.domain, images)
        face = data.draw(st.sampled_from(f.domain.interior_faces()), label="face")
        weights = data.draw(
            st.lists(st.integers(1, 4), min_size=len(face), max_size=len(face)), label="weights"
        )
        x = _weighted_point(f.domain.face_points(face), weights)
        assert _outcome(local_degree, f, x) == _outcome(star_local_degree, f, x)

    def test_builds_no_restricted_map(self, monkeypatch, doubling2d):
        """Inside `plopen.degree`, `local_degree` validates no complex, builds
        no map and solves no fiber or degree."""

        def forbidden(*args, **kwargs):
            raise AssertionError("local_degree built a restriction")

        for name in ("validate_complex", "build_plmap", "fiber", "degree"):
            monkeypatch.setattr(degree_module, name, forbidden, raising=False)
        f = SCAN_MAPS["identity-3d"]
        (centre,) = (ids for ids in f.domain.interior_faces() if len(ids) == 1)
        assert local_degree(f, f.domain.barycenter(centre)) == 1
        assert local_degree(doubling2d.plmap, (F(0), F(0))) == 2
        mixed = SCAN_MAPS["mirrored random_mixed_signs-3d"]
        for x in _local_degree_points(mixed):
            local_degree(mixed, x)


def test_perturbation_schedule_is_built_once_per_dimension():
    """The schedule is one tuple per dimension, and for n >= 2 it ends with
    ±(1, 2, ..., 2^(n-1)), which lies in no plane x_i = x_j."""
    for n in (1, 2, 3):
        directions = degree_module._perturbation_directions(n)
        assert directions is degree_module._perturbation_directions(n)
        assert len(directions) == 2 * n + (2**n + 2 if n > 1 else 0)
        if n > 1:
            assert directions[-2:] == (
                tuple(F(2**c) for c in range(n)),
                tuple(F(-(2**c)) for c in range(n)),
            )
