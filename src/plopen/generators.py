"""Deterministic construction of test instances across all verdict classes.

Every instance is a pure function of its GenSpec: randomness comes from a
small hand-rolled SplitMix64 stream so that identical specs reproduce
byte-identical instances on every platform and Python version. Domains are
standard triangulated boxes (path / diagonal-split squares / permutation-split
cubes), which are simultaneously valid complexes and combinatorial balls, so
the same corpus feeds the openness suite and the ball-map certifier.

`oracle_fiber_count` is the brute-force fiber oracle the test suite compares
against: a plain per-cell solve with no shortcuts, then exact deduplication.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from typing import Optional

from . import feasible
from .complexes import SimplicialComplex, validate_complex
from .linalg import Matrix, Vector, solve_square, vec_sub, vector
from .openness import _SplitMix64
from .plmap import PLMap, build_plmap
from .whyburn import BallMapInstance, make_ball_instance

KINDS = (
    "identity",
    "fold1d",
    "interior_fold1d",
    "doubling2d",
    "shear",
    "singular_cell",
    "random_orientation_preserving",
    "random_mixed_signs",
)

_FIXED_DIMS = {"fold1d": 1, "interior_fold1d": 1, "doubling2d": 2, "shear": 2}

_RESample_CAP = 1000


class GenerationError(RuntimeError):
    pass


@dataclass(frozen=True)
class GenSpec:
    kind: str
    dim: int
    resolution: int = 0  # 0 means the per-dimension default
    seed: int = 0
    denominator_bound: int = 64

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown generator kind {self.kind!r}")
        fixed = _FIXED_DIMS.get(self.kind)
        if fixed is not None and self.dim != fixed:
            raise ValueError(f"kind {self.kind} is only defined in dimension {fixed}")
        if self.dim not in (1, 2, 3):
            raise ValueError("supported dimensions are 1, 2, 3")
        if self.denominator_bound < 2:
            raise ValueError("denominator bound must be at least 2")

    @property
    def effective_resolution(self) -> int:
        if self.resolution:
            return self.resolution
        return {1: 4, 2: 3, 3: 2}[self.dim]

    def to_metadata(self) -> dict:
        return {
            "kind": self.kind,
            "dim": self.dim,
            "resolution": self.effective_resolution,
            "seed": self.seed,
            "denominator_bound": self.denominator_bound,
        }

    @staticmethod
    def from_metadata(data: dict) -> "GenSpec":
        return GenSpec(
            kind=data["kind"],
            dim=data["dim"],
            resolution=data["resolution"],
            seed=data["seed"],
            denominator_bound=data["denominator_bound"],
        )


@dataclass(frozen=True)
class GeneratedInstance:
    spec: GenSpec
    plmap: PLMap
    ball: Optional[BallMapInstance]


@lru_cache(maxsize=None)
def box_complex(dim: int, resolution: int) -> SimplicialComplex:
    """The [0, resolution]^dim grid, each cube split by vertex permutations.

    The permutation split of neighboring cubes glues along shared faces, so
    the union is a valid complex; geometry depends only on (dim, resolution),
    which makes this cacheable across generated instances.
    """
    coords = list(product(range(resolution + 1), repeat=dim))
    index = {c: i for i, c in enumerate(coords)}
    cells = []
    for corner in product(range(resolution), repeat=dim):
        for perm in permutations(range(dim)):
            path = [tuple(corner)]
            for axis in perm:
                previous = path[-1]
                path.append(tuple(c + (1 if i == axis else 0) for i, c in enumerate(previous)))
            cells.append([index[p] for p in path])
    vertices = [[Fraction(c) for c in coord] for coord in coords]
    return validate_complex(vertices, cells, dim)


def _interior_vertex_ids(complex_: SimplicialComplex, resolution: int) -> list[int]:
    out = []
    for vid, v in enumerate(complex_.vertices):
        if all(0 < c < resolution for c in v):
            out.append(vid)
    return out


_DOUBLING_DIRECTIONS = [
    (1, 0),
    (1, 1),
    (0, 1),
    (-1, 1),
    (-1, 0),
    (-1, -1),
    (0, -1),
    (1, -1),
]


def _doubling_fan() -> tuple[SimplicialComplex, list[Vector]]:
    vertices = [[Fraction(0), Fraction(0)]]
    vertices += [[Fraction(a), Fraction(b)] for a, b in _DOUBLING_DIRECTIONS]
    cells = [[0, 1 + k, 1 + (k + 1) % 8] for k in range(8)]
    complex_ = validate_complex(vertices, cells, 2)
    images: list[Vector] = [vector(vertices[0])]
    for k in range(8):
        doubled = _DOUBLING_DIRECTIONS[(2 * k) % 8]
        images.append(vector([doubled[0], doubled[1]]))
    return complex_, images


def _perturbed_identity(
    spec: GenSpec, want_mixed: bool
) -> PLMap:
    resolution = spec.effective_resolution
    complex_ = box_complex(spec.dim, resolution)
    interior = _interior_vertex_ids(complex_, resolution)
    if not interior:
        raise GenerationError(
            f"resolution {resolution} leaves no interior vertex to perturb in dimension {spec.dim}"
        )
    rng = _SplitMix64(spec.seed ^ 0x5851F42D4C957F2D)
    bound = spec.denominator_bound
    # Small moves keep orientation; mixed signs need folds, hence larger moves.
    numerator_range = bound if not want_mixed else 3 * bound
    denominator = 4 * bound if not want_mixed else 2 * bound
    for _ in range(_RESample_CAP):
        images = [list(v) for v in complex_.vertices]
        for vid in interior:
            for c in range(spec.dim):
                images[vid][c] += Fraction(
                    rng.int_range(-numerator_range, numerator_range), denominator
                )
        candidate = build_plmap(complex_, images)
        signs = {p.det_sign for p in candidate.pieces}
        if want_mixed:
            if 0 not in signs and len(signs) == 2:
                return candidate
        else:
            if signs == {1}:
                return candidate
    raise GenerationError(
        f"resampling budget exhausted for {spec.kind} (seed {spec.seed})"
    )


def generate(spec: GenSpec) -> GeneratedInstance:
    """Build the instance for a spec; identical specs give identical instances."""
    if spec.kind == "identity":
        complex_ = box_complex(spec.dim, spec.effective_resolution)
        plmap = build_plmap(complex_, list(complex_.vertices))
    elif spec.kind == "fold1d":
        complex_ = validate_complex([[-1], [0], [1]], [[0, 1], [1, 2]], 1)
        plmap = build_plmap(complex_, [[1], [0], [1]])
    elif spec.kind == "interior_fold1d":
        complex_ = validate_complex(
            [[-1], [0], [Fraction(1, 2)], [1]], [[0, 1], [1, 2], [2, 3]], 1
        )
        plmap = build_plmap(complex_, [[-1], [Fraction(1, 2)], [0], [1]])
    elif spec.kind == "doubling2d":
        complex_, images = _doubling_fan()
        plmap = build_plmap(complex_, images)
    elif spec.kind == "shear":
        complex_ = validate_complex([[0, 0], [1, 0], [0, 1]], [[0, 1, 2]], 2)
        plmap = build_plmap(complex_, [[0, 0], [1, 0], [1, 1]])
    elif spec.kind == "singular_cell":
        complex_ = box_complex(spec.dim, spec.effective_resolution)
        rng = _SplitMix64(spec.seed ^ 0x9E3779B97F4A7C15)
        cell = rng.below(len(complex_.cells))
        ids = complex_.cells[cell].vertex_ids
        victim = ids[rng.below(len(ids))]
        others = [complex_.vertices[i] for i in ids if i != victim]
        centroid = tuple(
            sum((p[c] for p in others), Fraction(0)) / len(others)
            for c in range(spec.dim)
        )
        images = [list(v) for v in complex_.vertices]
        images[victim] = list(centroid)
        plmap = build_plmap(complex_, images)
        if plmap.pieces[cell].det_sign != 0:
            raise GenerationError("collapsed cell is unexpectedly nonsingular")
    elif spec.kind == "random_orientation_preserving":
        plmap = _perturbed_identity(spec, want_mixed=False)
    elif spec.kind == "random_mixed_signs":
        plmap = _perturbed_identity(spec, want_mixed=True)
    else:  # pragma: no cover - GenSpec validates kinds
        raise AssertionError(spec.kind)
    ball = make_ball_instance(plmap)
    return GeneratedInstance(spec=spec, plmap=plmap, ball=ball)


INFINITE = None  # sentinel: oracle_fiber_count returns None for infinite fibers


def oracle_fiber_count(f: PLMap, query) -> Optional[int]:
    """Brute-force fiber size: per-cell solve, exact dedup; None when infinite."""
    query = vector(query)
    points = set()
    for ci, piece in enumerate(f.pieces):
        if piece.det_sign != 0:
            candidate = solve_square(piece.matrix, vec_sub(query, piece.offset))
            assert candidate is not None
            pts = f.domain.cell_points(ci)
            rows = [tuple(Fraction(1) for _ in pts)]
            rows += [tuple(p[c] for p in pts) for c in range(f.ambient_dim)]
            coords = solve_square(Matrix(tuple(rows)), (Fraction(1), *candidate))
            if coords is not None and all(c >= 0 for c in coords):
                points.add(candidate)
        else:
            dim, span_points = feasible.constrained_hull_dim(
                f.domain.cell_points(ci), f.image_of_face(f.domain.cell_ids[ci]), query
            )
            if dim is None:
                continue
            if dim >= 1:
                return INFINITE
            points.add(span_points[0])
    return len(points)
