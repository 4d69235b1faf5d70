from fractions import Fraction

import pytest

from plopen import feasible
from plopen.complexes import validate_complex
from plopen.degree import local_degree
from plopen.feasible import relative_interiors_intersect
from plopen.generators import _FIXED_DIMS, KINDS, GenSpec, generate
from plopen.linalg import Matrix, inverse
from plopen.openness import (
    REASON_INJECTIVITY,
    REASON_SIGN_MISMATCH,
    REASON_SINGULAR,
    BranchFace,
    BranchReport,
    OracleConfig,
    OracleFailure,
    OracleResult,
    _face_normal_directions,
    _SplitMix64,
    branch_set,
    check_conditions,
    coherently_oriented,
    openness_oracle,
    seeded_directions,
    shrunk_star_images,
)
from plopen.plmap import FiniteFiber, build_plmap, fiber, finite_fibers

from oracles import point_in_simplex


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


def reference_oracle(f, num_points, num_directions, rng_seed):
    """The oracle computed sample by sample on the shrunk star images.

    One inverse per (sample, star cell) of the shrunk image simplex, a
    rational covering test per direction, and the epsilon from the crossings
    of the ray in the shrunk simplices.
    """
    singular = [ci for ci, p in enumerate(f.pieces) if p.det_sign == 0]
    if singular:
        return OracleResult(
            False,
            tuple(
                OracleFailure(
                    f.domain.barycenter(f.domain.cells[ci].vertex_ids),
                    f.domain.cells[ci].vertex_ids,
                    (),
                    F(0),
                    (),
                )
                for ci in singular
            ),
            0,
        )
    n = f.ambient_dim
    base_directions = seeded_directions(n, num_directions, rng_seed)
    rng = _SplitMix64(rng_seed ^ 0xD1B54A32D192ED03)
    samples = [(f.domain.barycenter(ids), ids) for ids in f.domain.interior_faces()]
    for _ in range(num_points):
        ci = rng.below(len(f.domain.cells))
        weights = [F(rng.int_range(1, 64)) for _ in f.domain.cells[ci].vertex_ids]
        pts = f.domain.cell_points(ci)
        x = tuple(
            sum((w * p[c] for w, p in zip(weights, pts)), F(0)) / sum(weights)
            for c in range(n)
        )
        samples.append((x, f.domain.cells[ci].vertex_ids))

    failures = []
    for x, carrier in samples:
        star = shrunk_star_images(f, x, carrier)
        y0 = f.pieces[star[0][0]].apply(x)
        inverses = []
        for _, _, images in star:
            rows = [tuple(F(1) for _ in images)]
            rows += [tuple(q[c] for q in images) for c in range(n)]
            inverses.append(inverse(Matrix(tuple(rows))))
        bases = [inv.mul_vec((F(1), *y0)) for inv in inverses]
        directions = list(base_directions)
        if len(carrier) == n:
            directions += _face_normal_directions(f, carrier)
        for direction in directions:
            slopes = [inv.mul_vec((F(0), *map(F, direction))) for inv in inverses]
            if any(
                all(b != 0 or s >= 0 for b, s in zip(base, slope))
                for base, slope in zip(bases, slopes)
            ):
                continue
            crossings = [
                -b / s
                for base, slope in zip(bases, slopes)
                for b, s in zip(base, slope)
                if s != 0 and -b / s > 0
            ]
            epsilon = min(crossings) / 2 if crossings else F(1)
            target = tuple(a + epsilon * d for a, d in zip(y0, direction))
            failures.append(OracleFailure(x, carrier, tuple(map(F, direction)), epsilon, target))
    return OracleResult(not failures, tuple(failures), len(samples))


# (num_points, num_directions, rng_seed): the CLI defaults and two others; the
# rational reference is slow in 3-D, so there it runs on one seed with few
# directions.
_ORACLE_SETTINGS = {1: [(20, 64, 0), (7, 19, 5)], 2: [(20, 64, 0), (7, 19, 5)], 3: [(4, 8, 11)]}
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


class TestCheckPathStaysInIntegerFrames:
    @pytest.mark.parametrize("spec", GUARD_CASES, ids=str)
    def test_same_results_without_rational_frames(self, spec, monkeypatch, forbid_inverse):
        f = generate(spec).plmap
        settings = [(20, 64, 0), (9, 23, 7)]
        expected = (branch_set(f), [openness_oracle(f, *s) for s in settings])
        forbid_inverse()
        forbid_vertex_form(monkeypatch)
        assert (branch_set(f), [openness_oracle(f, *s) for s in settings]) == expected
