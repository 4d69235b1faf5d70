from dataclasses import replace
from fractions import Fraction
from functools import partial
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plopen import feasible, openness
from plopen.cli import _openness_payload, main
from plopen.complexes import validate_complex
from plopen.degree import local_degree
from plopen.feasible import relative_interiors_intersect
from plopen.generators import _FIXED_DIMS, KINDS, GenSpec, box_complex, generate
from plopen.instancefile import plmap_to_document, save_document
from plopen.openness import (
    REASON_INJECTIVITY,
    REASON_SIGN_MISMATCH,
    REASON_SINGULAR,
    BranchFace,
    BranchReport,
    OracleConfig,
    _base_directions,
    _fold_normals,
    _image_table,
    _lane_mask,
    _lanes,
    _pack_lanes,
    branch_set,
    check_conditions,
    coherently_oriented,
    openness_oracle,
)
from plopen.plmap import (
    AffinePiece,
    FiniteFiber,
    build_plmap,
    cone_count,
    cone_counter,
    fiber,
    finite_fibers,
)

from oracles import (
    compress_mask,
    covering_loop_oracle,
    face_normal_directions,
    pair_loop_branch_set,
    point_in_simplex,
    reference_oracle,
    shrunk_star_images,
    star_by_star_cone_count,
)


def F(*args):
    return Fraction(*args)


def shrunk_image(f, ci, center):
    """The image of cell ci shrunk by 1/2 toward center, in vertex form."""
    half = Fraction(1, 2)
    return tuple(
        f.pieces[ci].apply(tuple(c + half * (v - c) for v, c in zip(p, center)))
        for p in f.domain.cell_points(ci)
    )


class TestCoherentlyOriented:
    def test_identity(self, identity_square):
        assert coherently_oriented(identity_square)

    def test_fold(self, fold1d):
        assert not coherently_oriented(fold1d)

    def test_doubling(self, doubling2d):
        assert coherently_oriented(doubling2d.plmap)

    def test_all_negative_counts(self):
        complex_ = validate_complex([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]])
        mirrored = build_plmap(complex_, [[0, 0], [0, 1], [1, 0]])
        assert coherently_oriented(mirrored)

    def test_singular_breaks_coherence(self):
        assert not coherently_oriented(generate(GenSpec("singular_cell", 2, seed=0)).plmap)


class TestBranchSet:
    def test_identity_empty(self, identity_square):
        report = branch_set(identity_square)
        assert report.branch_faces == () and report.dim_branch_set is None
        assert report.dim_at_most(0)

    def test_fold_breakpoint(self, fold1d):
        report = branch_set(fold1d)
        assert [(bf.face, bf.dim, bf.reason) for bf in report.branch_faces] == [
            ((1,), 0, REASON_SIGN_MISMATCH)
        ]
        assert report.dim_branch_set == 0  # equals n-1: condition (iv) fails

    def test_doubling_center_by_cone_probe(self, doubling2d):
        f = doubling2d.plmap
        report = branch_set(f)
        assert [(bf.face, bf.dim, bf.reason) for bf in report.branch_faces] == [
            ((0,), 0, REASON_INJECTIVITY)
        ]
        assert report.dim_branch_set == 0  # n-2 boundary case: (iv) holds
        # re-check the recorded pair with the raw cone probe it came from
        a, b = report.branch_faces[0].cells
        center = f.domain.barycenter((0,))
        assert relative_interiors_intersect(shrunk_image(f, a, center), shrunk_image(f, b, center))

    def test_singular_cell_reported_full_dimension(self):
        f = generate(GenSpec("singular_cell", 2, seed=1)).plmap
        report = branch_set(f)
        reasons = {bf.reason for bf in report.branch_faces}
        assert reasons == {REASON_SINGULAR}
        assert report.dim_branch_set == 2

    def test_nonsingular_cell_interiors_never_listed(self, doubling2d):
        report = branch_set(doubling2d.plmap)
        n = doubling2d.plmap.ambient_dim
        for bf in report.branch_faces:
            assert bf.dim < n

    def test_local_homeomorphism_points_have_unit_local_degree(self, doubling2d):
        f = doubling2d.plmap
        branch_faces = {bf.face for bf in branch_set(f).branch_faces}
        for face in f.domain.interior_faces():
            if face in branch_faces:
                continue
            x = f.domain.barycenter(face)
            assert abs(local_degree(f, x)) == 1
        assert abs(local_degree(f, (F(0), F(0)))) != 1  # the branch point itself


class TestCheckConditions:
    def test_identity_all_true(self, identity_square):
        verdict = check_conditions(identity_square)
        assert verdict.cond_ii.holds and verdict.cond_iii.holds and verdict.cond_iv.holds
        assert verdict.coherent and verdict.all_agree

    def test_fold_all_false(self, fold1d):
        verdict = check_conditions(fold1d)
        assert not (verdict.cond_ii.holds or verdict.cond_iii.holds or verdict.cond_iv.holds)
        assert not verdict.coherent and verdict.all_agree

    def test_singular_all_false_via_fibers(self):
        verdict = check_conditions(generate(GenSpec("singular_cell", 3, seed=2)).plmap)
        assert not verdict.cond_ii.finite_fibers
        assert verdict.all_agree and not verdict.coherent

    def test_oracle_attached_when_configured(self, fold1d):
        verdict = check_conditions(fold1d, OracleConfig(num_points=4, num_directions=8))
        assert verdict.oracle is not None and not verdict.oracle.open_at_all_samples


class TestOpennessOracle:
    def test_identity_open_everywhere(self, identity_square):
        result = openness_oracle(identity_square, 10, 32, 0)
        assert result.open_at_all_samples and result.failures == ()

    def test_fold_fails_at_breakpoint_with_negative_direction(self, fold1d):
        result = openness_oracle(fold1d, 5, 16, 0)
        assert not result.open_at_all_samples
        assert all(failure.point == (F(0),) for failure in result.failures)
        assert all(failure.direction[0] < 0 for failure in result.failures)

    def test_doubling_open_at_all_samples(self, doubling2d):
        result = openness_oracle(doubling2d.plmap, 20, 64, 0)
        assert result.open_at_all_samples

    def test_failures_certified_by_fiber(self):
        f = generate(GenSpec("random_mixed_signs", 2, seed=5)).plmap
        result = openness_oracle(f, 10, 32, 0)
        assert not result.open_at_all_samples
        checked = 0
        for failure in result.failures[:5]:
            outcome = fiber(f, failure.target)
            assert isinstance(outcome, FiniteFiber)
            star = shrunk_star_images(f, failure.point, failure.carrier)
            for fp in outcome.points:
                for _, shrunk_points, _ in star:
                    assert not point_in_simplex(fp.point, shrunk_points)
            checked += 1
        assert checked

    @pytest.mark.parametrize(
        "spec",
        [
            GenSpec("random_mixed_signs", 1, seed=9),
            GenSpec("random_mixed_signs", 2, seed=9),
            GenSpec("random_mixed_signs", 3, seed=9),
        ],
    )
    def test_mixed_signs_caught_at_a_fold_facet(self, spec):
        # guaranteed, not probabilistic: the exact image-hyperplane normals
        # are tested at every interior facet barycenter
        f = generate(spec).plmap
        assert finite_fibers(f)
        result = openness_oracle(f, 20, 64, 0)
        n = f.ambient_dim
        fold_hits = []
        for failure in result.failures:
            if len(failure.carrier) == n:
                cells = f.domain.faces[failure.carrier].cells
                signs = {f.pieces[ci].det_sign for ci in cells}
                if signs == {-1, 1}:
                    fold_hits.append(failure)
        assert fold_hits

    def test_adjacent_pair_probe_matches_sign_rule(self):
        # the branch-set shortcut: across a shared facet, shrunk image
        # interiors overlap exactly when the determinant signs differ
        from itertools import combinations

        f = generate(GenSpec("random_mixed_signs", 2, seed=4)).plmap
        n = f.ambient_dim
        checked = 0
        for ids, info in f.domain.faces.items():
            if info.on_boundary or info.dim > n - 2:
                continue
            center = f.domain.barycenter(ids)
            for a, b in combinations(info.cells, 2):
                shared = set(f.domain.cells[a].vertex_ids) & set(f.domain.cells[b].vertex_ids)
                if len(shared) != n:
                    continue
                sa, sb = f.pieces[a].det_sign, f.pieces[b].det_sign
                probe = relative_interiors_intersect(
                    shrunk_image(f, a, center), shrunk_image(f, b, center)
                )
                assert probe == (sa != sb)
                checked += 1
        assert checked

    def test_singular_piece_is_immediate_failure(self):
        f = generate(GenSpec("singular_cell", 2, seed=3)).plmap
        result = openness_oracle(f, 5, 8, 0)
        assert not result.open_at_all_samples and result.samples == 0

    def test_deterministic_given_seed(self, doubling2d):
        a = openness_oracle(doubling2d.plmap, 10, 16, 42)
        b = openness_oracle(doubling2d.plmap, 10, 16, 42)
        assert a == b


# (num_points, num_directions, rng_seed): the CLI defaults, one other, no
# base direction (every mask empty) and a single one; the rational reference
# is slow in 3-D, so there it runs on one seed with few directions.
_ORACLE_SETTINGS = {
    1: [(20, 64, 0), (7, 19, 5), (4, 0, 0), (6, 1, 9)],
    2: [(20, 64, 0), (7, 19, 5), (4, 0, 0), (6, 1, 9)],
    3: [(4, 8, 11)],
}
ORACLE_CASES = [
    (GenSpec(kind, dim, seed=seed), settings)
    for kind in KINDS
    for dim in (1, 2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
    for seed in ((0, 3) if dim < 3 else (3,))
    for settings in _ORACLE_SETTINGS[dim]
]


class TestOracleMatchesPerSampleReference:
    @pytest.mark.parametrize("spec, settings", ORACLE_CASES, ids=str)
    def test_whole_result_equal(self, spec, settings):
        f = generate(spec).plmap
        assert openness_oracle(f, *settings) == reference_oracle(f, *settings)

    def test_reference_sees_failures(self):
        # the comparison above covers failure records, not only passes
        f = generate(GenSpec("random_mixed_signs", 2, seed=3)).plmap
        result = reference_oracle(f, 7, 19, 5)
        assert result.failures and any(len(fl.carrier) == 2 for fl in result.failures)


# Every generator kind in its own dimensions, seed 1, with 0, 20 and 57 points.
POINT_COUNT_CASES = [
    (GenSpec(kind, dim, seed=1), (num_points, 16 if dim < 3 else 8, 2))
    for kind in KINDS
    for dim in (1, 2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
    for num_points in (0, 20, 57)
]


class TestOracleTestsOnlyFacesWhereOpennessCanFail:
    """A sample inside a cell has that cell alone as its star and no vertex
    off its carrier, so it covers every direction. The oracle counts those
    samples, the cell barycenters and the `num_points` interior points, and
    tests only the interior faces with at most n vertices."""

    @pytest.mark.parametrize("spec, settings", POINT_COUNT_CASES, ids=str)
    def test_whole_result_equals_the_reference(self, spec, settings):
        f = generate(spec).plmap
        assert openness_oracle(f, *settings) == reference_oracle(f, *settings)

    def test_one_cell_builds_no_table(self, monkeypatch):
        """`shear` is one cell: its only interior face is the cell, so no
        table is built and every sample is counted."""
        f = generate(GenSpec("shear", 2)).plmap
        assert f.domain.interior_faces() == list(f.domain.cell_ids)

        def forbidden(*args, **kwargs):
            raise AssertionError("covering table built for a cell sample")

        monkeypatch.setattr(openness, "_image_table", forbidden)
        monkeypatch.setattr(openness, "_ImageTable", forbidden)
        for num_points in (0, 20, 57):
            result = openness_oracle(f, num_points, 64, 0)
            assert result.open_at_all_samples and result.samples == 1 + num_points

    @pytest.mark.parametrize("kind, dim", [("doubling2d", 2), ("random_mixed_signs", 3)])
    def test_draws_no_point(self, monkeypatch, kind, dim):
        """With the base directions drawn (and kept), the oracle makes no
        generator: no interior point is drawn."""
        f = generate(GenSpec(kind, dim, seed=1)).plmap
        expected = openness_oracle(f, 20, 64, 0)

        def forbidden(*args, **kwargs):
            raise AssertionError("random stream made by the oracle")

        monkeypatch.setattr(openness, "_SplitMix64", forbidden)
        assert openness_oracle(f, 20, 64, 0) == expected


def reference_branch_set(f):
    """The branch set from its definition, in vertex form.

    A face of dimension <= n-2 with a nonsingular star is in the branch set
    iff two star images, shrunk by 1/2 toward the face barycenter, have
    overlapping relative interiors; every pair is asked in star order with
    `relative_interiors_intersect`, and the first hit is the witness.
    """
    n = f.ambient_dim
    out = []
    for ids in f.domain.interior_faces():
        info = f.domain.faces[ids]
        if info.dim > n - 1:
            continue
        singular = tuple(c for c in info.cells if f.pieces[c].det_sign == 0)
        if singular:
            out.append(BranchFace(ids, info.dim, REASON_SINGULAR, singular))
            continue
        if info.dim == n - 1:
            a, b = info.cells
            if f.pieces[a].det_sign != f.pieces[b].det_sign:
                out.append(BranchFace(ids, info.dim, REASON_SIGN_MISMATCH, (a, b)))
            continue
        center = f.domain.barycenter(ids)
        images = {ci: image for ci, _, image in shrunk_star_images(f, center, ids)}
        witness = next(
            (
                (a, b)
                for i, a in enumerate(info.cells)
                for b in info.cells[i + 1 :]
                if relative_interiors_intersect(images[a], images[b])
            ),
            None,
        )
        if witness:
            out.append(BranchFace(ids, info.dim, REASON_INJECTIVITY, witness))
    for ci, piece in enumerate(f.pieces):
        if piece.det_sign == 0:
            out.append(BranchFace(f.domain.cells[ci].vertex_ids, n, REASON_SINGULAR, (ci,)))
    out.sort(key=lambda bf: (len(bf.face), bf.face))
    return BranchReport(tuple(out), max((bf.dim for bf in out), default=None))


BRANCH_CASES = [
    GenSpec(kind, dim, seed=seed)
    for kind in KINDS
    for dim in (2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
    for seed in range(4)
]


class TestBranchSetMatchesVertexFormReference:
    @pytest.mark.parametrize("spec", BRANCH_CASES, ids=str)
    def test_whole_report_equal(self, spec):
        f = generate(spec).plmap
        assert branch_set(f) == reference_branch_set(f)
        assert branch_set(f) == pair_loop_branch_set(f)

    @pytest.mark.parametrize(
        "spec", [GenSpec("doubling2d", 2, seed=0), GenSpec("random_mixed_signs", 3, seed=1)], ids=str
    )
    def test_cases_include_pairs_without_a_shared_facet(self, spec):
        # such a witness comes from the relint probe, not from the sign rule
        f = generate(spec).plmap
        cells = f.domain.cells
        assert any(
            bf.reason == REASON_INJECTIVITY
            and len(set(cells[bf.cells[0]].vertex_ids) & set(cells[bf.cells[1]].vertex_ids))
            < f.ambient_dim
            for bf in reference_branch_set(f).branch_faces
        )


GUARD_CASES = [
    GenSpec(kind, dim, seed=seed)
    for kind in KINDS
    for dim in (1, 2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
    for seed in (0, 1)
]


def forbid_vertex_form(monkeypatch):
    """Make `feasible._meet_system`, the vertex-form row builder, raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("vertex-form probe on the check path")

    monkeypatch.setattr(feasible, "_meet_system", forbidden)


def forbid_piece_apply(monkeypatch):
    """Make `AffinePiece.apply`, the rational evaluation of a piece, raise."""

    def forbidden(*args, **kwargs):
        raise AssertionError("rational piece evaluation on the check path")

    monkeypatch.setattr(AffinePiece, "apply", forbidden)


class TestCheckPathStaysInIntegerFrames:
    @pytest.mark.parametrize("spec", GUARD_CASES, ids=str)
    def test_same_results_without_rational_frames(
        self, spec, monkeypatch, forbid_inverse, forbid_null_space
    ):
        # the oracle's fold normals come from the frames and its failure
        # evidence from the scaled integer points
        f = generate(spec).plmap
        settings = [(20, 64, 0), (9, 23, 7)]
        expected = (branch_set(f), [openness_oracle(f, *s) for s in settings])
        forbid_inverse()
        forbid_null_space()
        forbid_vertex_form(monkeypatch)
        forbid_piece_apply(monkeypatch)
        assert (branch_set(f), [openness_oracle(f, *s) for s in settings]) == expected


class TestFoldNormalsFromFrames:
    @pytest.mark.parametrize("spec", GUARD_CASES, ids=str)
    def test_each_star_cell_gives_the_null_space_normals(self, spec):
        # every interior (n-1)-face, also where the normals are covered and
        # never reach a failure record; in 1-D both sides list none
        f = generate(spec).plmap
        n = f.ambient_dim
        for face in f.domain.interior_faces():
            cells = f.domain.faces[face].cells
            if len(face) != n or any(f.pieces[ci].det_sign == 0 for ci in cells):
                continue
            expected = face_normal_directions(f, face)
            for ci in cells:
                table = _image_table(f, ci, 0, 0)
                off_carrier = [k for k, v in enumerate(table.vertex_ids) if v not in face]
                assert _fold_normals(table, off_carrier) == expected


# Every generator kind in dims 1-3, seeds 0-3, and oracle settings: the CLI
# defaults, the golden ones, none, one and 200 base directions.
LANE_CASES = [
    GenSpec(kind, dim, seed=seed)
    for kind in KINDS
    for dim in (1, 2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
    for seed in range(4)
]
LANE_SETTINGS = [(64, 0), (12, 0), (23, 0), (0, 0), (1, 9), (200, 3)]


@st.composite
def lane_rows(draw):
    """(n, count, seed, frame row): rows of 20-40 digit entries, rows with a
    zero slope on a base direction, and rows whose slope bound 8·Σ|r_c| is
    2^(w-1) - 8 or 2^(w-1) (8·Σ|r_c| is a multiple of 8, so 2^(w-1) - 8 is
    the largest bound below the step to width w + 8)."""
    n = draw(st.integers(1, 4))
    count = draw(st.sampled_from((0, 1, 64, 200)))
    seed = draw(st.integers(0, 2**16))
    kind = draw(st.sampled_from(("digits", "zero slope", "width step")))
    if kind == "digits":
        slopes = [
            draw(st.integers(10 ** (k - 1), 10**k - 1)) * draw(st.sampled_from((1, -1)))
            for k in draw(st.lists(st.integers(20, 40), min_size=n, max_size=n))
        ]
    elif kind == "zero slope" and count:
        d = draw(st.sampled_from(_base_directions(n, count, seed)[0]))
        a = next(c for c in range(n) if d[c])
        r = draw(st.lists(st.integers(-(10**30), 10**30), min_size=n, max_size=n))
        # r' = d_a·r off axis a, and r'_a cancels the rest: r'·d = 0
        slopes = [d[a] * r[c] for c in range(n)]
        slopes[a] = -sum(r[c] * d[c] for c in range(n) if c != a)
    else:
        width = draw(st.sampled_from(range(8, 168, 8)))
        total = (1 << width - 4) - draw(st.sampled_from((1, 0)))
        cuts = sorted(draw(st.lists(st.integers(0, total), min_size=n - 1, max_size=n - 1)))
        parts = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
        slopes = [p * draw(st.sampled_from((1, -1))) for p in parts]
    constant = draw(st.integers(-(10**40), 10**40))
    return n, count, seed, (*slopes, constant)


class TestLaneMasks:
    @pytest.mark.parametrize("spec", LANE_CASES, ids=str)
    def test_every_frame_row_matches_the_compress_mask(self, spec):
        f = generate(spec).plmap
        n = f.ambient_dim
        for ci, piece in enumerate(f.pieces):
            if piece.det_sign == 0:
                continue
            for count, seed in LANE_SETTINGS:
                table = _image_table(f, ci, count, seed)
                assert [table.mask(k) for k in range(len(table.rows))] == [
                    compress_mask(row, n, count, seed) for row in table.rows
                ]

    @given(lane_rows())
    @settings(max_examples=300, deadline=None)
    def test_drawn_rows_match_the_compress_mask(self, case):
        n, count, seed, row = case
        lanes = partial(_lanes, n, count, seed)
        assert _lane_mask(row, lanes) == compress_mask(row, n, count, seed)

    @given(lane_rows(), st.lists(st.integers(-8, 8), min_size=4, max_size=4 * 30))
    @settings(max_examples=200, deadline=None)
    def test_slopes_at_the_bound_stay_in_their_lanes(self, case, coordinates):
        # d = ±8·sign(r) reaches |r·d| = 8·Σ|r_c|, the bound the width is
        # chosen for; both sit among drawn directions in [-8, 8]^n
        n, _, _, row = case
        extreme = tuple(8 * (r > 0) - 8 * (r < 0) for r in row[:n])
        directions = [extreme, tuple(-c for c in extreme)]
        directions += [tuple(coordinates[i : i + n]) for i in range(0, len(coordinates) - n + 1, n)]
        columns = tuple(tuple(d[c] for d in directions) for c in range(n))
        expected = sum(
            1 << j for j, d in enumerate(directions) if sum(map(mul, row, d)) >= 0
        )
        assert _lane_mask(row, partial(_pack_lanes, columns)) == expected

    def test_no_base_direction_gives_empty_masks(self, doubling2d):
        f = doubling2d.plmap
        assert _lanes(2, 0, 0, 8) == ((0, 0), 0)
        for ci in range(len(f.pieces)):
            table = _image_table(f, ci, 0, 0)
            assert [table.mask(k) for k in range(3)] == [0, 0, 0]


def mirrored(f):
    return build_plmap(f.domain, [(-v[0], *v[1:]) for v in f.vertex_images])


# every generator kind and its mirror in dims 1-3, seeds 0-3; the unmirrored
# maps in dims 2 and 3 are `BRANCH_CASES`
COUNT_CASES = [
    (GenSpec(kind, dim, seed=seed), mirror)
    for kind in KINDS
    for dim in (1, 2, 3)
    if _FIXED_DIMS.get(kind, dim) == dim
    for seed in range(4)
    for mirror in (False, True)
]
MORE_BRANCH_CASES = [(spec, mirror) for spec, mirror in COUNT_CASES if mirror or spec.dim == 1]


def count_case_map(spec, mirror):
    f = generate(spec).plmap
    return mirrored(f) if mirror else f


def star_paths(f):
    """The path `branch_set` takes at each nonsingular star of an interior
    face of dimension <= n-2: one count of 1 decides it, or a count of 2 or
    more, or mixed signs, sends it to the pair loop."""
    n = f.ambient_dim
    paths = set()
    for ids in f.domain.interior_faces():
        info = f.domain.faces[ids]
        signs = {f.pieces[ci].det_sign for ci in info.cells}
        if info.dim > n - 2 or 0 in signs:
            continue
        if len(signs) > 1:
            paths.add("mixed signs")
        else:
            paths.add("count 1" if abs(cone_count(f, ids)) == 1 else "count >= 2")
    return paths


class TestBranchSetByConeCount:
    """`branch_set` decides a star of equal signs whose cone count is 1
    without a probe, and gives the report of the pair loop on every star."""

    @pytest.mark.parametrize("spec, mirror", MORE_BRANCH_CASES, ids=str)
    def test_equals_the_pair_loop_and_the_vertex_form(self, spec, mirror):
        f = count_case_map(spec, mirror)
        report = branch_set(f)
        assert report == pair_loop_branch_set(f)
        assert report == reference_branch_set(f)

    def test_identity_square_fixture(self, identity_square):
        # the other named fixtures are generator kinds at seed 0, cases above
        f = identity_square
        assert branch_set(f) == pair_loop_branch_set(f) == reference_branch_set(f)

    def test_cases_reach_every_path(self, doubling2d):
        paths = set()
        for spec, mirror in COUNT_CASES:
            paths |= star_paths(count_case_map(spec, mirror))
        assert paths == {"count 1", "count >= 2", "mixed signs"}
        # the doubling map's centre: two star images over every direction
        assert cone_count(doubling2d.plmap, (0,)) == 2

    @given(st.data())
    @settings(settings.get_profile("ci"), max_examples=40, deadline=None)
    def test_perturbed_maps_agree(self, data):
        kind = data.draw(
            st.sampled_from(["random_mixed_signs", "random_orientation_preserving"]), label="kind"
        )
        dim = data.draw(st.integers(2, 3), label="dim")
        seed = data.draw(st.integers(0, 3), label="seed")
        base = generate(GenSpec(kind, dim, seed=seed)).plmap
        images = [list(v) for v in base.vertex_images]
        vertex = data.draw(st.integers(0, len(images) - 1), label="vertex")
        axis = data.draw(st.integers(0, dim - 1), label="axis")
        images[vertex][axis] += data.draw(
            st.sampled_from([F(1, 3), F(-1, 5), F(1, 16), F(-3, 7), F(2), F(-5, 2)]), label="shift"
        )
        f = build_plmap(base.domain, images)
        assert branch_set(f) == pair_loop_branch_set(f) == reference_branch_set(f)

    def test_no_probe_where_every_count_is_one(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("pair probe on a star of local degree 1")

        f = generate(GenSpec("random_orientation_preserving", 3, resolution=4, seed=1)).plmap
        assert star_paths(f) == {"count 1"}
        monkeypatch.setattr(feasible, "relint_meets_sharing", forbidden)
        assert branch_set(f) == BranchReport((), None)


# The facet sign test, masks packed on first read and the branch set's kept
# slopes, against the covering loop and the star-by-star count they replace:
# every generator kind (`interior_fold1d` among them) and its mirror in
# dims 1-3, seeds 0-3, the 3-D resolution-4 map, and the 4-D one-cube map
# (every frame by the elimination) and its mirror.
SIGN_TEST_CASES = [
    *COUNT_CASES,
    (GenSpec("random_orientation_preserving", 3, resolution=4, seed=1), False),
    ("cube4", False),
    ("cube4", True),
]
# (num_points, num_directions, rng_seed): the CLI defaults, one other, no
# base direction, one, and 200 (lanes past one machine word's worth)
SIGN_TEST_SETTINGS = [(20, 64, 0), (7, 19, 5), (4, 0, 0), (6, 1, 9), (3, 200, 3)]
_PERTURBED_DOMAINS = {dim: box_complex(dim, res) for dim, res in ((1, 4), (2, 3), (3, 2), (4, 1))}


def sign_test_map(case, mirror):
    if case == "cube4":
        domain = box_complex(4, 1)
        f = build_plmap(domain, domain.vertices)
        return mirrored(f) if mirror else f
    return count_case_map(case, mirror)


def draw_perturbed_box_map(data):
    """A box complex in dims 1-4 with each vertex image moved by a drawn
    multiple of a drawn scale, often mirrored; large moves fold cells, and
    some moves collapse one."""
    dim = data.draw(st.integers(1, 4), label="dim")
    domain = _PERTURBED_DOMAINS[dim]
    scale = data.draw(st.sampled_from([F(1, 8), F(1, 3), F(1)]), label="scale")
    offset = st.integers(-2, 2).map(lambda k: k * scale)
    images = [[c + data.draw(offset) for c in v] for v in domain.vertices]
    f = build_plmap(domain, images)
    return mirrored(f) if data.draw(st.booleans(), label="mirror") else f


def assert_matches_the_references(f):
    """The whole oracle result, failure records included, equals the
    covering loop's under every setting, and the branch set's cone counter
    gives the star-by-star count (and `cone_count`'s) at every face of
    dimension <= n-2 with a nonsingular star, asked in lattice order on one
    counter."""
    for setting in SIGN_TEST_SETTINGS:
        assert openness_oracle(f, *setting) == covering_loop_oracle(f, *setting)
    n = f.ambient_dim
    count = cone_counter(f)
    for face, info in f.domain.faces.items():
        if info.dim <= n - 2 and all(f.pieces[ci].det_sign for ci in info.cells):
            assert count(face) == star_by_star_cone_count(f, face) == cone_count(f, face)


def off_face_slope_row(f, face, ci):
    """The slope row of star cell ci's vertex off an (n-1)-face, in its
    image frame."""
    ids = f.domain.cell_ids[ci]
    n = f.ambient_dim
    return next(row[:n] for v, row in zip(ids, f.images.frame(ids).bary) if v not in face)


class TestOpennessPassMatchesTheReferences:
    @pytest.mark.parametrize("case, mirror", SIGN_TEST_CASES, ids=str)
    def test_generated_maps(self, case, mirror):
        assert_matches_the_references(sign_test_map(case, mirror))

    @given(st.data())
    @settings(settings.get_profile("ci"), max_examples=60, deadline=None)
    def test_perturbed_box_complexes(self, data):
        assert_matches_the_references(draw_perturbed_box_map(data))

    def test_cases_reach_failing_facets_and_later_slopes(self):
        """The comparison sees facets that the sign test leaves to the
        masks and fail there, and stars whose count needs t >= 2."""
        fold = generate(GenSpec("interior_fold1d", 1)).plmap
        assert {fl.carrier for fl in covering_loop_oracle(fold, 20, 64, 0).failures} == {
            (1,),
            (2,),
        }
        f = generate(GenSpec("identity", 2)).plmap
        n, cells = f.ambient_dim, f.domain.cell_ids
        assert any(
            not all(
                sum(row[:n])
                for ci in f.domain.faces[face].cells
                for v, row in zip(cells[ci], f.images.frame(cells[ci]).bary)
                if v not in face
            )
            for face in f.domain.interior_faces()
            if len(face) < n
        )


class TestFacetSignTestPremise:
    """At an interior (n-1)-face whose two star cells are nonsingular, the
    slope rows of their off-face vertices are parallel (every 2x2 minor is
    0), and point opposite ways exactly when the two pieces' determinant
    signs agree. The oracle's sign test rests on this; the test reads the
    signs, the oracle reads only the rows."""

    @pytest.mark.parametrize("case, mirror", SIGN_TEST_CASES, ids=str)
    def test_off_face_rows(self, case, mirror):
        f = sign_test_map(case, mirror)
        n = f.ambient_dim
        for face in f.domain.interior_faces():
            if len(face) != n:
                continue
            a, b = f.domain.facets[face]
            if not (f.pieces[a].det_sign and f.pieces[b].det_sign):
                continue
            row_a, row_b = off_face_slope_row(f, face, a), off_face_slope_row(f, face, b)
            assert all(
                row_a[i] * row_b[j] == row_a[j] * row_b[i]
                for i in range(n)
                for j in range(i + 1, n)
            )
            opposite = sum(map(mul, row_a, row_b)) < 0
            assert opposite == (f.pieces[a].det_sign == f.pieces[b].det_sign)

    def test_cases_reach_both_ways(self):
        ways = set()
        for case, mirror in SIGN_TEST_CASES:
            f = sign_test_map(case, mirror)
            for face in f.domain.interior_faces():
                if len(face) == f.ambient_dim:
                    a, b = f.domain.facets[face]
                    ways.add((f.pieces[a].det_sign, f.pieces[b].det_sign))
        assert {(1, 1), (-1, -1), (1, -1), (-1, 1)} <= ways


class TestMasksPackedOnFirstRead:
    """A row's mask is packed the first time the oracle reads it. Every
    interior face of a coherent 1-D map is a point cleared by the facet sign
    test, so `check-open` packs none there; at the two folds of
    `interior_fold1d` the rows point the same way and the masks decide."""

    @pytest.fixture()
    def packed_rows(self, monkeypatch):
        rows = []
        lane_mask = openness._lane_mask

        def counting(row, lanes):
            rows.append(row)
            return lane_mask(row, lanes)

        monkeypatch.setattr(openness, "_lane_mask", counting)
        return rows

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "kind, status, packs",
        [("random_orientation_preserving", 0, False), ("identity", 0, False), ("interior_fold1d", 1, True)],
    )
    def test_check_open_on_1d_maps(self, tmp_path, capsys, packed_rows, kind, status, packs, seed):
        path = tmp_path / "map.json"
        save_document(path, plmap_to_document(generate(GenSpec(kind, 1, seed=seed)).plmap))
        assert main(["check-open", str(path)]) == status
        capsys.readouterr()
        assert bool(packed_rows) == packs

    def test_each_row_packed_once(self, packed_rows):
        f = generate(GenSpec("random_mixed_signs", 3, seed=1)).plmap
        table = _image_table(f, 0, 64, 0)
        first = [table.mask(k) for k in range(len(table.rows))]
        assert [table.mask(k) for k in reversed(range(len(table.rows)))] == first[::-1]
        assert packed_rows == list(table.rows)


class TestOracleEvidenceOnDemand:
    @pytest.mark.parametrize("spec, settings", ORACLE_CASES, ids=str)
    def test_count_is_the_number_of_failures(self, spec, settings):
        result = openness_oracle(generate(spec).plmap, *settings)
        assert result.num_failures == len(result.failures)
        assert result.open_at_all_samples == (result.num_failures == 0)

    def test_check_open_builds_no_failure_record(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("failure record built for a count")

        f = generate(GenSpec("random_mixed_signs", 3, seed=1)).plmap
        config = OracleConfig()
        expected = check_conditions(f, config)
        expected_payload = _openness_payload(f, config)
        assert expected.oracle.num_failures > 0
        monkeypatch.setattr(openness, "OracleFailure", forbidden)
        verdict = check_conditions(f, config)
        assert replace(verdict, oracle=None) == replace(expected, oracle=None)

        def counts(v):
            return v.oracle.open_at_all_samples, v.oracle.num_failures, v.oracle.samples

        assert counts(verdict) == counts(expected)
        assert _openness_payload(f, config) == expected_payload
        with pytest.raises(AssertionError, match="failure record"):
            verdict.oracle.failures
