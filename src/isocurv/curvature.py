"""Curvature tensors in orthonormal bases and the isotropic-curvature probe.

Provides dense curvature tensors for constant-curvature spaces, Riemannian
products of space-form factors, and hypersurface tensors obtained from the
Gauss equation with a diagonal shape operator.  On top of those sit the
frame functional

    K(e1,e3) + K(e1,e4) + K(e2,e3) + K(e2,e4) - 2 R(e1,e2,e3,e4)

evaluated on orthonormal 4-frames, and a seeded random-frame probe that
tests whether the functional is constant over frames.

Every builder here yields a tensor of sectional form,
R_ijkl = K_ij (delta_il delta_jk - delta_ik delta_jl), and the tensor keeps
its sectional matrix K.  For those tensors the functional has the closed
form

    A.K.B - P.K.P - Q.K.Q,   A = e1*e1 + e2*e2,  B = e3*e3 + e4*e4,
                             P = e1*e3 - e2*e4,  Q = e1*e4 + e2*e3

(* entrywise, x.K.y row by row), which follows from
(a^2 + b^2)(c^2 + d^2) = (ac - bd)^2 + (ad + bc)^2.  A batch of m frames
costs one (3m, n) @ (n, n) matrix product: O(m n^2) flops.

Any other tensor (tensor_from_json output, a hand-built
CurvatureTensor(dim, comp)) is evaluated densely through the (n^2, n^2)
pair matrix M[(i,j), (k,l)] = R_ijkl, so R(a, b, c, d) =
(a (x) b)^T M (c (x) d): one (m, n^2) @ (n^2, n^2) product per term of the
functional, O(m n^4) flops.  The dense path is also the tests' oracle for
the sectional one.

Sign convention: components are stored so that the sectional curvature of
span(X, Y) is R(X, Y, Y, X) / area^2, positive on round spheres.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

ORTHO_TOL = 1e-12        # frame acceptance: |<e_a, e_b> - delta_ab|
REDRAW_RESIDUAL = 1e-8   # Gram-Schmidt residual below which a vector is re-drawn
DEGENERATE_PLANE = 1e-14  # sin^2 of the angle between x and y below which a plane is rejected
DEFAULT_FRAMES = 1000
DEFAULT_PROBE_TOL = 1e-8
DEFAULT_SEED = 42

FACTOR_KINDS = ("sphere", "hyperbolic", "flat")


class FrameError(ValueError):
    """Raised for frames that are not orthonormal in the required dimension."""


@dataclass(frozen=True)
class CurvatureTensor:
    """Dense components R[i,j,k,l] of a curvature tensor in an orthonormal basis.

    Only the shape and finiteness are checked: a hand-built array may break
    the curvature symmetries (check_symmetries measures them), while the
    builders and tensor_from_json keep them.  The component array is
    read-only; tensors are safe to share.

    sectional_matrix is the read-only symmetric K, with zero diagonal, that
    comp was derived from (R_ijkl = K_ij (delta_il delta_jk - delta_ik
    delta_jl)).  Only the builders set it, so it never disagrees with comp;
    a tensor given its components directly has None and is evaluated
    densely.
    """

    dim: int
    comp: np.ndarray
    sectional_matrix: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError(f"tensor dimension must be >= 1, got {self.dim}")
        arr = np.array(self.comp, dtype=float, copy=True)
        if arr.shape != (self.dim,) * 4:
            raise ValueError(f"component array must have shape {(self.dim,) * 4}, got {arr.shape}")
        if not np.isfinite(arr).all():
            raise ValueError(f"curvature components must be finite, got {arr[~np.isfinite(arr)][0]}")
        arr.setflags(write=False)
        object.__setattr__(self, "comp", arr)


@dataclass(frozen=True)
class OrthoFrame4:
    """Four orthonormal vectors (rows of a (4, n) array)."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = np.array(self.vectors, dtype=float, copy=True)
        if arr.ndim != 2 or arr.shape[0] != 4:
            raise FrameError(f"expected 4 row vectors, got array of shape {arr.shape}")
        gram = arr @ arr.T
        err = np.max(np.abs(gram - np.eye(4)))
        if err > ORTHO_TOL:
            raise FrameError(f"frame is not orthonormal: max |<e_a,e_b> - delta_ab| = {err:.3e}")
        arr.setflags(write=False)
        object.__setattr__(self, "vectors", arr)

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


@dataclass(frozen=True)
class Factor:
    """One factor of a Riemannian product: kind, dimension, curvature."""

    kind: str
    dim: int
    curvature: float

    def __post_init__(self):
        if not math.isfinite(self.curvature):
            raise ValueError(f"factor curvature must be finite, got {self.curvature}")
        if self.kind not in FACTOR_KINDS:
            raise ValueError(f"factor kind must be one of {FACTOR_KINDS}, got {self.kind!r}")
        if self.dim < 1:
            raise ValueError(f"factor dimension must be >= 1, got {self.dim}")
        if self.kind == "sphere" and not self.curvature > 0:
            raise ValueError("sphere factors need curvature > 0")
        if self.kind == "hyperbolic" and not self.curvature < 0:
            raise ValueError("hyperbolic factors need curvature < 0")
        if self.kind == "flat" and self.curvature != 0:
            raise ValueError("flat factors need curvature 0")


@dataclass(frozen=True)
class ProductSpec:
    """Ordered factors of a Riemannian product; total dimension must be >= 4."""

    factors: tuple[Factor, ...]

    def __post_init__(self):
        if not self.factors:
            raise ValueError("product needs at least one factor")
        object.__setattr__(self, "factors", tuple(self.factors))
        if self.total_dim < 4:
            raise ValueError(f"total dimension must be >= 4, got {self.total_dim}")

    @property
    def total_dim(self) -> int:
        return sum(f.dim for f in self.factors)


@dataclass(frozen=True)
class ProbeReport:
    """Summary of the isotropic-curvature values over sampled frames."""

    samples: int
    min: float
    max: float
    mean: float
    is_constant: bool
    argmin: int   # index of the minimising frame in sample_frames(n, samples, seed)
    argmax: int   # index of the maximising frame

    def __post_init__(self):
        slack = 1e-15 * max(1.0, abs(self.min), abs(self.max))
        if not (self.min <= self.mean + slack and self.mean <= self.max + slack):
            raise ValueError("probe report requires min <= mean <= max")
        if not (0 <= self.argmin < self.samples and 0 <= self.argmax < self.samples):
            raise ValueError("probe report requires frame indices in [0, samples)")


@dataclass(frozen=True)
class SymmetryReport:
    """Worst violation of each algebraic curvature-tensor symmetry."""

    antisymmetry: float
    pair_symmetry: float
    bianchi: float

    @property
    def max_residual(self) -> float:
        return max(self.antisymmetry, self.pair_symmetry, self.bianchi)


# ---------------------------------------------------------------------------
# constructors


def _from_sectional(kmat: np.ndarray) -> CurvatureTensor:
    """R_ijkl = K_ij (delta_il delta_jk - delta_ik delta_jl) for a symmetric K.

    K_ij (i != j) is the sectional curvature of span(e_i, e_j); the diagonal
    of K does not enter.  Every builder here yields a tensor of this form,
    and the tensor keeps K, its diagonal zeroed, as its sectional_matrix.
    """
    k = np.array(kmat, dtype=float, copy=True)
    if not np.isfinite(k).all():
        raise ValueError(f"sectional curvatures must be finite, got {k[~np.isfinite(k)][0]}")
    n = k.shape[0]
    if k.shape != (n, n) or not np.array_equal(k, k.T):
        raise ValueError(f"sectional matrix must be square and symmetric, got shape {k.shape}")
    np.fill_diagonal(k, 0.0)
    k.setflags(write=False)
    i, j = np.nonzero(~np.eye(n, dtype=bool))
    comp = np.zeros((n, n, n, n))
    comp[i, j, j, i] = k[i, j]
    comp[i, j, i, j] = -k[i, j]
    t = CurvatureTensor(n, comp)
    object.__setattr__(t, "sectional_matrix", k)
    return t


def build_constant_curvature(n: int, k: float) -> CurvatureTensor:
    """Curvature tensor of the n-dimensional space form of curvature k.

    Every 2-plane has sectional curvature k; all genuinely mixed components
    vanish.
    """
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n}")
    return _from_sectional(np.full((n, n), float(k)))


def build_product(spec: ProductSpec) -> CurvatureTensor:
    """Block-diagonal curvature tensor of a Riemannian product.

    Each factor contributes its constant-curvature block; every component
    with indices spanning two factors is zero.  One-dimensional factors
    carry no curvature.
    """
    n = spec.total_dim
    kmat = np.zeros((n, n))
    offset = 0
    for f in spec.factors:
        sl = slice(offset, offset + f.dim)
        kmat[sl, sl] = f.curvature
        offset += f.dim
    return _from_sectional(kmat)


def build_from_shape(c: float, lambdas: Sequence[float]) -> CurvatureTensor:
    """Hypersurface curvature tensor from ambient curvature and principal curvatures.

    Applies the Gauss equation in a basis diagonalizing the shape operator:
    sectional(e_i, e_j) = c + lambda_i * lambda_j, and components whose index
    pairs {i,j}, {k,l} differ as unordered pairs vanish.
    """
    lams = np.asarray(lambdas, dtype=float)
    n = lams.size
    if n < 4:
        raise ValueError(f"need at least 4 principal curvatures, got {n}")
    return _from_sectional(c + np.outer(lams, lams))


# ---------------------------------------------------------------------------
# evaluation


def _contract(comp: np.ndarray, a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray) -> np.ndarray:
    """R(a_m, b_m, c_m, d_m) for (m, n) batches of vectors.

    Row m is (a_m (x) b_m) . M . (c_m (x) d_m), with M the (n^2, n^2) pair
    matrix view of the components: one gemm and two (m, n^2) outer products,
    at most two of the three (m, n^2) arrays alive at once.
    """
    m, n = a.shape
    left = (a[:, :, None] * b[:, None, :]).reshape(m, n * n) @ comp.reshape(n * n, n * n)
    return np.einsum("mi,mi->m", left, (c[:, :, None] * d[:, None, :]).reshape(m, n * n))


def sectional(t: CurvatureTensor, x: Sequence[float], y: Sequence[float]) -> float:
    """Sectional curvature of the plane spanned by x and y.

    x and y are first divided by their largest |component|, so no square
    overflows or underflows and scaling either does not change the answer
    at any finite size.  Rejects a zero or non-finite vector and
    (numerically) dependent spans: sin^2 of their angle must exceed 1e-14.
    """
    xv, yv = np.asarray(x, dtype=float), np.asarray(y, dtype=float)
    tops = (float(np.max(np.abs(xv))), float(np.max(np.abs(yv))))
    if not all(0.0 < top < math.inf for top in tops):
        raise ValueError(f"degenerate plane: max |component| of x and y is {tops}")
    xv, yv = xv / tops[0], yv / tops[1]  # |x|^2 and |y|^2 now lie in [1, dim]
    xx, yy = float(xv @ xv), float(yv @ yv)
    area2 = xx * yy - float(xv @ yv) ** 2
    if not area2 > DEGENERATE_PLANE * xx * yy:
        raise ValueError(f"degenerate plane: sin^2 of the angle {area2 / (xx * yy):.3e} <= {DEGENERATE_PLANE}")
    return float(_contract(t.comp, xv[None], yv[None], yv[None], xv[None])[0]) / area2


def _as_frame_array(frame, dim: int) -> np.ndarray:
    if isinstance(frame, OrthoFrame4):
        arr = frame.vectors
    else:
        arr = OrthoFrame4(np.asarray(frame, dtype=float)).vectors
    if arr.shape[1] != dim:
        raise FrameError(f"frame lives in dimension {arr.shape[1]}, tensor in {dim}")
    return arr


def _isotropic_batch(t: CurvatureTensor, frames: np.ndarray) -> np.ndarray:
    """Frame functional of t for a batch of frames of shape (m, 4, n).

    A tensor with a sectional matrix K takes the closed form
    A.K.B - P.K.P - Q.K.Q (module docstring): one (3m, n) @ (n, n) product.
    Any other tensor is contracted densely, term by term.
    """
    e1, e2, e3, e4 = (frames[:, k] for k in range(4))
    k = t.sectional_matrix
    if k is None:
        comp = t.comp
        return (
            _contract(comp, e1, e3, e3, e1)
            + _contract(comp, e1, e4, e4, e1)
            + _contract(comp, e2, e3, e3, e2)
            + _contract(comp, e2, e4, e4, e2)
            - 2.0 * _contract(comp, e1, e2, e3, e4)
        )
    m, n = e1.shape
    left = np.stack((e1 * e1 + e2 * e2, e1 * e3 - e2 * e4, e1 * e4 + e2 * e3))
    right = np.stack((e3 * e3 + e4 * e4, -left[1], -left[2]))
    return np.einsum("kmi,kmi->m", (left.reshape(3 * m, n) @ k).reshape(3, m, n), right)


def isotropic_component(t: CurvatureTensor, frame) -> float:
    """K13 + K14 + K23 + K24 - 2 R(e1,e2,e3,e4) on an orthonormal 4-frame."""
    arr = _as_frame_array(frame, t.dim)
    return float(_isotropic_batch(t, arr[None, :, :])[0])


# ---------------------------------------------------------------------------
# frame sampling


def _orthonormalize(raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two-pass modified Gram-Schmidt over a batch of (m, 4, n) vectors.

    Any vector whose residual norm after projection falls below
    REDRAW_RESIDUAL is re-drawn from the generator, so the procedure
    succeeds with probability one.
    """
    m, _, n = raw.shape
    q = np.array(raw, dtype=float)
    for _ in range(2):  # second sweep keeps Gram error at machine precision
        for a in range(4):
            v = q[:, a, :].copy()
            for b in range(a):
                v -= np.einsum("mi,mi->m", v, q[:, b, :])[:, None] * q[:, b, :]
            norms = np.linalg.norm(v, axis=1)
            for idx in np.flatnonzero(norms < REDRAW_RESIDUAL):
                while True:
                    w = rng.standard_normal(n)
                    for b in range(a):
                        w = w - (w @ q[idx, b]) * q[idx, b]
                    nw = np.linalg.norm(w)
                    if nw >= REDRAW_RESIDUAL:
                        v[idx] = w
                        norms[idx] = nw
                        break
            q[:, a, :] = v / norms[:, None]
    return q


@functools.lru_cache(maxsize=1, typed=True)
def _frame_array(n: int, count: int, seed: int) -> np.ndarray:
    """The read-only (count, 4, n) batch; the last one is kept for the next call."""
    if n < 4:
        raise ValueError(f"4-frames need dimension >= 4, got {n}")
    if count < 1:
        raise ValueError(f"frame count must be >= 1, got {count}")
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((count, 4, n))
    frames = _orthonormalize(raw, rng)
    frames.setflags(write=False)
    return frames


def sample_frames(n: int, count: int, seed: int = DEFAULT_SEED) -> list[OrthoFrame4]:
    """Deterministic random orthonormal 4-frames in dimension n.

    Frames are obtained by Gram-Schmidt on seeded standard-Gaussian vectors,
    which makes the distribution rotation invariant.  The result depends
    only on (n, count, seed), and it is the batch cic_probe evaluates.  The
    last batch is kept read-only and shared by consecutive calls with the
    same (n, count, seed); each OrthoFrame4 holds its own copy.
    """
    return [OrthoFrame4(v) for v in _frame_array(n, count, seed)]


def cic_probe(
    t: CurvatureTensor,
    count: int = DEFAULT_FRAMES,
    seed: int = DEFAULT_SEED,
) -> ProbeReport:
    """Sample the frame functional and report its spread.

    The frames are sample_frames(t.dim, count, seed); argmin and argmax
    index the frames where the extremes fall.  The last frame batch is kept
    read-only and shared by consecutive probes with the same
    (t.dim, count, seed), so a run of probes samples it once.

    is_constant is True exactly when max - min <= DEFAULT_PROBE_TOL *
    max |R_ijkl| over the sampled frames, so the verdict does not change
    when the tensor is scaled (the zero tensor's spread is 0); for the
    tensors built here, constant and non-constant cases separate by many
    orders of magnitude.
    Raises ValueError when max |R_ijkl| is subnormal, too few digits to
    judge, and when the values or their mean overflow the float range.
    """
    if count < 2:
        raise ValueError(f"probe needs at least 2 frames, got {count}")
    # max |R_ijkl| = max_{i != j} |K_ij| for a tensor of sectional form
    scale = float(np.max(np.abs(t.comp if t.sectional_matrix is None else t.sectional_matrix)))
    if 0.0 < scale < np.finfo(float).tiny:
        raise ValueError(f"curvature is subnormal: max |R_ijkl| = {scale:.6e} has too few digits to judge")
    frames = _frame_array(t.dim, count, seed)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = _isotropic_batch(t, frames)
        mean = float(vals.mean())
    if not (np.isfinite(vals).all() and math.isfinite(mean)):
        raise ValueError(
            f"isotropic curvature overflows the float range: max |R_ijkl| = {scale:.6e} is too large"
        )
    argmin, argmax = int(vals.argmin()), int(vals.argmax())
    vmin, vmax = float(vals[argmin]), float(vals[argmax])
    return ProbeReport(
        samples=count,
        min=vmin,
        max=vmax,
        mean=mean,
        is_constant=bool(vmax - vmin <= DEFAULT_PROBE_TOL * scale),
        argmin=argmin,
        argmax=argmax,
    )


# ---------------------------------------------------------------------------
# diagnostics and serialization


def check_symmetries(t: CurvatureTensor) -> SymmetryReport:
    """Max violation of antisymmetry, pair symmetry, and first Bianchi."""
    r = t.comp
    anti = max(
        float(np.max(np.abs(r + np.swapaxes(r, 0, 1)))),
        float(np.max(np.abs(r + np.swapaxes(r, 2, 3)))),
    )
    pair = float(np.max(np.abs(r - np.transpose(r, (2, 3, 0, 1)))))
    bianchi = float(np.max(np.abs(r + np.transpose(r, (0, 2, 3, 1)) + np.transpose(r, (0, 3, 1, 2)))))
    return SymmetryReport(antisymmetry=anti, pair_symmetry=pair, bianchi=bianchi)


def tensor_to_json(t: CurvatureTensor) -> str:
    """Serialize to the canonical JSON form.

    Only nonzero components with i < j, k < l and (i, j) <= (k, l)
    lexicographically are listed (0-based indices); everything else follows
    from the symmetries.
    """
    entries = []
    n = t.dim
    for i in range(n):
        for j in range(i + 1, n):
            for k in range(n):
                for l in range(k + 1, n):
                    if (i, j) <= (k, l) and t.comp[i, j, k, l] != 0.0:
                        entries.append([i, j, k, l, float(t.comp[i, j, k, l])])
    return json.dumps({"dim": n, "components": entries})


def tensor_from_json(text: str) -> CurvatureTensor:
    """Rebuild a tensor from its canonical JSON form by unfolding symmetries;
    entries outside that form, or a Bianchi residual above 1e-12 * max |R_ijkl|, raise ValueError."""
    data = json.loads(text)
    n = int(data["dim"])
    comp = np.zeros((n, n, n, n))
    for i, j, k, l, v in data["components"]:
        in_range = all(type(a) is int and 0 <= a < n for a in (i, j, k, l))
        if not (in_range and i < j and k < l and (i, j) <= (k, l)):
            need = f"integers 0 <= i < j < {n}, k < l and (i, j) <= (k, l)"
            raise ValueError(f"component {(i, j, k, l)} is not canonical: need {need}")
        for (a, b, c, d), sign in (
            ((i, j, k, l), 1.0),
            ((j, i, k, l), -1.0),
            ((i, j, l, k), -1.0),
            ((j, i, l, k), 1.0),
        ):
            comp[a, b, c, d] = sign * v
            comp[c, d, a, b] = sign * v
    t = CurvatureTensor(n, comp)
    if (bianchi := check_symmetries(t).bianchi) > 1e-12 * np.max(np.abs(comp)):
        raise ValueError(f"components break the first Bianchi identity by {bianchi:.3e}")
    return t
