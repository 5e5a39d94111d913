"""Curvature tensors in orthonormal bases and the isotropic-curvature probe.

Provides curvature tensors for constant-curvature spaces, Riemannian
products of space-form factors, and hypersurface tensors obtained from the
Gauss equation with a diagonal shape operator.  On top of those sit the
frame functional

    K(e1,e3) + K(e1,e4) + K(e2,e3) + K(e2,e4) - 2 R(e1,e2,e3,e4)

evaluated on orthonormal 4-frames, and a seeded random-frame probe that
tests whether the functional is constant over frames.

Every builder here yields a tensor of sectional form,
R_ijkl = K_ij (delta_il delta_jk - delta_ik delta_jl), and the tensor keeps
its sectional matrix K and its scale max |R_ijkl| and nothing else: the
n^4 components are built from K only when comp is first read
(check_symmetries), and building, probing and sectional never allocate
them.  The builders hand the K matrices they made to _from_sectional as
one (T, n, n) stack, checked for finiteness and reduced to its scales in
whole-stack operations: build_from_shapes a stack of Gauss tensors, the
one-tensor builders a stack of one.  For those tensors the functional has the closed
form

    A.K.B - P.K.P - Q.K.Q,   A = e1*e1 + e2*e2,  B = e3*e3 + e4*e4,
                             P = e1*e3 - e2*e4,  Q = e1*e4 + e2*e3

(* entrywise, x.K.y row by row), which follows from
(a^2 + b^2)(c^2 + d^2) = (ac - bd)^2 + (ad + bc)^2.  The blocks are laid
out component-major, frames on the contiguous axis: left = (A, P, Q) and
right = (B, -P, -Q) are (n, 3, m) arrays, kept with each sampled batch.
A batch of m frames costs one (n, n) @ (n, 3m) matrix product, O(m n^2)
flops; the product is multiplied by right in place and summed over its
3n (component, block) slabs in order, each step one add across all m
frames.  cic_probes evaluates a stack of T such tensors on one batch in
chunks of max(1, STACK_GEMM_DOUBLES // (3 m n)) tensors, one
(T_b, n, n) @ (n, 3m) product per chunk against their K matrices
stacked, and reduces each chunk's values to its reports in whole-chunk
reductions; cic_probe is its one-tensor case.

Any other tensor, one given its components as CurvatureTensor(dim, comp),
is evaluated densely through the (n^2, n^2) pair matrix
M[(i,j), (k,l)] = R_ijkl, so R(a, b, c, d) = (a (x) b)^T M (c (x) d): one
(m, n^2) @ (n^2, n^2) product per term of the functional, O(m n^4) flops.
The dense path is also the tests' oracle for the sectional one.

Sign convention: components are stored so that the sectional curvature of
span(X, Y) is R(X, Y, Y, X) / area^2, positive on round spheres.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .spectra import check_finite, check_integer, float_array

ORTHO_TOL = 1e-12        # frame acceptance: |<e_a, e_b> - delta_ab|
REDRAW_RESIDUAL = 1e-8   # Gram-Schmidt residual below which a vector is re-drawn
DEGENERATE_PLANE = 1e-14  # sin^2 of the angle between x and y below which a plane is rejected
DEFAULT_FRAMES = 1000
DEFAULT_PROBE_TOL = 1e-8
DEFAULT_SEED = 42
STACK_GEMM_DOUBLES = 1 << 16  # largest product of one chunk of a probed stack, in doubles

FACTOR_KINDS = ("sphere", "hyperbolic", "flat")


class FrameError(ValueError):
    """Raised for frames that are not orthonormal in the required dimension."""


class CurvatureTensor:
    """Components R[i,j,k,l] of a curvature tensor in an orthonormal basis.

    CurvatureTensor(dim, comp), the one way in for dense components, checks
    dim >= 1 (spectra.check_integer) and that comp (spectra.float_array) is
    a finite (dim, dim, dim, dim) array; a hand-built array may break the
    curvature symmetries (check_symmetries measures them), while the
    builders keep them.  Tensors are immutable and safe to share.

    sectional_matrix is the read-only symmetric K, with zero diagonal, of a
    tensor of sectional form, R_ijkl = K_ij (delta_il delta_jk - delta_ik
    delta_jl).  Only the builders set it, to the K they made, neither copied
    nor re-checked, and store K alone: comp is built from K on its first
    read and kept, so probing a built tensor never allocates the n^4
    components.  A tensor given its components directly has None and is
    evaluated densely.  Either way comp is a read-only (dim, dim, dim, dim)
    array, the same object on every read.  Each tensor keeps max |R_ijkl|,
    taken with its finiteness check, as the scale cic_probes judges it by.
    """

    __slots__ = ("dim", "sectional_matrix", "_comp", "_scale")

    def __init__(self, dim: int, comp: np.ndarray):
        check_integer(dim, 1, "tensor dim")
        arr = float_array(comp, "comp").copy()
        if arr.shape != (dim,) * 4:
            raise ValueError(f"component array must have shape {(dim,) * 4}, got {arr.shape}")
        scale = float(np.abs(arr).max())  # NaN and inf propagate: the finiteness check too
        if not math.isfinite(scale):
            raise ValueError(f"curvature components must be finite, got {arr[~np.isfinite(arr)][0]}")
        arr.setflags(write=False)
        self._freeze(dim, None, arr, scale)

    def _freeze(self, dim: int, kmat: np.ndarray | None, comp: np.ndarray | None, scale: float) -> None:
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "sectional_matrix", kmat)
        object.__setattr__(self, "_comp", comp)
        object.__setattr__(self, "_scale", scale)

    def __setattr__(self, name, *_):
        raise AttributeError(f"cannot assign to {name!r}: CurvatureTensor is immutable")

    __delattr__ = __setattr__

    @property
    def comp(self) -> np.ndarray:
        if self._comp is None:  # a built tensor: fill R_ijji = K_ij, R_ijij = -K_ij once
            k, n = self.sectional_matrix, self.dim
            i, j = np.nonzero(~np.eye(n, dtype=bool))
            comp = np.zeros((n, n, n, n))
            comp[i, j, j, i] = k[i, j]
            comp[i, j, i, j] = -k[i, j]
            comp.setflags(write=False)
            object.__setattr__(self, "_comp", comp)
        return self._comp


@dataclass(frozen=True)
class OrthoFrame4:
    """Four orthonormal vectors (rows of a (4, n) array)."""

    vectors: np.ndarray

    def __post_init__(self):
        arr = float_array(self.vectors, "vectors").copy()
        if arr.ndim != 2 or arr.shape[0] != 4:
            raise FrameError(f"expected 4 row vectors, got array of shape {arr.shape}")
        gram = arr @ arr.T
        err = np.max(np.abs(gram - np.eye(4)))
        if not err <= ORTHO_TOL:  # a NaN error fails too
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
        check_finite(self.curvature, "curvature")
        if self.kind not in FACTOR_KINDS:
            raise ValueError(f"factor kind must be one of {FACTOR_KINDS}, got {self.kind!r}")
        check_integer(self.dim, 1, "factor dim")
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
        object.__setattr__(self, "factors", tuple(self.factors))
        check_integer(self.total_dim, 4, "total dim")

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
        slack = 1e-15 * max(abs(self.min), abs(self.max))
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


def _from_sectional(k: np.ndarray) -> list[CurvatureTensor]:
    """R_ijkl = K_ij (delta_il delta_jk - delta_ik delta_jl) for each K of a (T, n, n) stack.

    K_ij (i != j) is the sectional curvature of span(e_i, e_j); the diagonal
    does not enter.  Its callers, the builders, each pass a fresh float64 stack,
    symmetric bit for bit (float products commute in c + lambda_i*lambda_j),
    frozen here in place with no copy, shape or symmetry check; only finiteness
    is checked (lambda_i*lambda_j can overflow), an error naming the first bad
    member as cic_probes does (_member).  Each tensor keeps its K, diagonal
    zeroed, as a read-only view, and max_{i != j} |K_ij| as its scale.
    """
    total, n = k.shape[:2]
    finite = np.isfinite(k)
    if not finite.all():
        j = int(finite.all(axis=(1, 2)).argmin())  # the first bad member
        raise ValueError(f"{_member(j, total)}sectional curvatures must be finite, got {k[j][~finite[j]][0]}")
    k.reshape(total, n * n)[:, :: n + 1] = 0.0  # the diagonals
    scales = np.abs(k).max(axis=(1, 2)).tolist()
    k.setflags(write=False)
    tensors = []
    for j, scale in enumerate(scales):
        t = object.__new__(CurvatureTensor)
        t._freeze(n, k[j], None, scale)
        tensors.append(t)
    return tensors


def build_constant_curvature(n: int, k: float) -> CurvatureTensor:
    """Curvature tensor of the n-dimensional space form of curvature k.

    Every 2-plane has sectional curvature k; all genuinely mixed components
    vanish.
    """
    check_integer(n, 1, "n")
    check_finite(k, "k")
    return _from_sectional(np.full((1, n, n), float(k)))[0]


def build_product(spec: ProductSpec) -> CurvatureTensor:
    """Block-diagonal curvature tensor of a Riemannian product.

    Each factor contributes its constant-curvature block; every component
    with indices spanning two factors is zero.  One-dimensional factors
    carry no curvature.
    """
    n = spec.total_dim
    kmat = np.zeros((1, n, n))
    offset = 0
    for f in spec.factors:
        sl = slice(offset, offset + f.dim)
        kmat[0, sl, sl] = f.curvature
        offset += f.dim
    return _from_sectional(kmat)[0]


def build_from_shape(c: float, lambdas: Sequence[float]) -> CurvatureTensor:
    """Hypersurface curvature tensor from ambient curvature and principal curvatures.

    Applies the Gauss equation in a basis diagonalizing the shape operator:
    sectional(e_i, e_j) = c + lambda_i * lambda_j, and components whose index
    pairs {i,j}, {k,l} differ as unordered pairs vanish.  The spectrum is
    flattened; this is build_from_shapes((c,), [lambdas]), its one-row case.
    """
    check_finite(c, "c")
    return build_from_shapes((c,), float_array(lambdas, "lambdas").reshape(1, -1))[0]


def build_from_shapes(cs: Sequence[float], lambdas: np.ndarray) -> list[CurvatureTensor]:
    """build_from_shape(cs[j], lambdas[j]) for each row j of a (T, n) stack of spectra.

    The T sectional matrices c_j + lambda_i * lambda_k are one (T, n, n)
    broadcast, checked as one stack (_from_sectional): each tensor equals
    building its row alone, and an error names its first bad member.
    """
    lams = float_array(lambdas, "lambdas")
    curvatures = float_array(cs, "cs")
    if lams.ndim != 2 or curvatures.shape != lams.shape[:1]:
        raise ValueError(f"need T curvatures and a (T, n) stack of spectra, "
                         f"got shapes {curvatures.shape} and {lams.shape}")
    check_integer(lams.shape[1], 4, "n")
    return _from_sectional(curvatures[:, None, None] + lams[:, :, None] * lams[:, None, :])


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
    at any finite size.  Rejects an x or y not of shape (t.dim,), zero or
    not finite, and dependent spans: sin^2 of their angle must exceed 1e-14.
    A tensor with a sectional matrix K takes R(x, y, y, x) =
    (x*x).K.(y*y) - (x*y).K.(x*y) in O(n^2); any other is contracted densely.
    """
    xv, yv = float_array(x, "x"), float_array(y, "y")
    if not xv.shape == yv.shape == (t.dim,):
        raise ValueError(f"x and y must have shape (t.dim,) = ({t.dim},), got {xv.shape} and {yv.shape}")
    tops = (float(np.max(np.abs(xv))), float(np.max(np.abs(yv))))
    if not all(0.0 < top < math.inf for top in tops):
        raise ValueError(f"degenerate plane: max |component| of x and y is {tops}")
    xv, yv = xv / tops[0], yv / tops[1]  # |x|^2 and |y|^2 now lie in [1, dim]
    xx, yy = float(xv @ xv), float(yv @ yv)
    area2 = xx * yy - float(xv @ yv) ** 2
    if not area2 > DEGENERATE_PLANE * xx * yy:
        raise ValueError(f"degenerate plane: sin^2 of the angle {area2 / (xx * yy):.3e} <= {DEGENERATE_PLANE}")
    k = t.sectional_matrix
    if k is None:
        return float(_contract(t.comp, xv[None], yv[None], yv[None], xv[None])[0]) / area2
    xy = xv * yv
    return float((xv * xv) @ k @ (yv * yv) - xy @ k @ xy) / area2


def _isotropic_batch(t: Sequence[CurvatureTensor], frames: np.ndarray) -> np.ndarray:
    """Frame functional of each tensor of t for a batch of frames of shape (m, 4, n).

    Returns the (m, T) transpose of a C-contiguous (T, m) array, so the
    values of t[j] are the contiguous row result.T[j].  The tensors with a
    sectional matrix K take the closed form A.K.B - P.K.P - Q.K.Q (module
    docstring) together, from the batch's blocks left = (A, P, Q) and
    right = (B, -P, -Q), (n, 3, m) arrays with the frames on the contiguous
    axis (_frame_blocks).  Their K matrices, stacked as ks of shape
    (T, n, n), give one product ks @ left.reshape(n, 3m): one gemm of the
    same shape per tensor, so its values do not depend on the stack.
    Viewed as (T, 3n, m), the product is multiplied in place by
    right.reshape(3n, m) and summed over its middle axis, slab by slab:
    the values of a tensor are the 3n slabs (component i, block k) added
    in the order 3i + k, each add across all m frames.  Any other tensor
    is contracted densely, term by term.
    """
    m, _, n = frames.shape
    f1, f2, f3, f4 = np.swapaxes(frames, 0, 1)  # (m, n) views, for the dense path
    out = np.empty((len(t), m))
    built = []
    for j, tensor in enumerate(t):
        if tensor.sectional_matrix is not None:
            built.append(j)
            continue
        comp = tensor.comp
        out[j] = (
            _contract(comp, f1, f3, f3, f1)
            + _contract(comp, f1, f4, f4, f1)
            + _contract(comp, f2, f3, f3, f2)
            + _contract(comp, f2, f4, f4, f2)
            - 2.0 * _contract(comp, f1, f2, f3, f4)
        )
    if built:
        left, right = _frame_blocks(frames)
        ks = np.array([t[j].sectional_matrix for j in built])
        prod = (ks @ left.reshape(n, 3 * m)).reshape(len(built), 3 * n, m)
        prod *= right.reshape(3 * n, m)
        out[built] = prod.sum(axis=1)
    return out.T


# ---------------------------------------------------------------------------
# frame sampling


def _orthonormalize(raw: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Two-pass modified Gram-Schmidt over a batch of (m, 4, n) vectors.

    The sweeps run component-major, on a (4, n, m) copy: every dot product
    and norm is one reduction over the n components (np.einsum, no n x m
    temporary), vectorised across the m frames, and each finished vector
    is projected out of all later ones in one update.  This right-looking
    order applies to every vector the same sequence of projections as a
    vector-by-vector sweep.  Any vector whose residual norm falls below
    REDRAW_RESIDUAL is re-drawn from the generator, in frame order, so the
    procedure succeeds with probability one.  Returns the C-contiguous
    (4, n, m) array the sweeps ran on: vector a of frame k is [a, :, k].
    """
    n = raw.shape[2]
    q = np.ascontiguousarray(np.transpose(raw, (1, 2, 0)))
    for _ in range(2):  # second sweep keeps Gram error at machine precision
        for a in range(4):
            v = q[a]
            norms = np.sqrt(np.einsum("im,im->m", v, v))
            if norms.min() < REDRAW_RESIDUAL:  # rare: only then look for the vectors to re-draw
                for idx in np.flatnonzero(norms < REDRAW_RESIDUAL):
                    while True:
                        w = rng.standard_normal(n)
                        for b in range(a):
                            w = w - (w @ q[b, :, idx]) * q[b, :, idx]
                        nw = np.linalg.norm(w)
                        if nw >= REDRAW_RESIDUAL:
                            v[:, idx] = w
                            norms[idx] = nw
                            break
            v /= norms
            rest = q[a + 1 :]
            rest -= np.einsum("bim,im->bm", rest, v)[:, None] * v
    return q


def _blocks(form: np.ndarray) -> np.ndarray:
    """The read-only (2, n, 3, m) blocks left = (A, P, Q), right = (B, -P, -Q).

    form is a component-major (4, n, m) batch; the frames stay on the
    contiguous axis.
    """
    e1, e2, e3, e4 = form
    blocks = np.empty((2, form.shape[1], 3, form.shape[2]))
    left, right = blocks
    np.add(e1 * e1, e2 * e2, out=left[:, 0])
    np.subtract(e1 * e3, e2 * e4, out=left[:, 1])
    np.add(e1 * e4, e2 * e3, out=left[:, 2])
    np.add(e3 * e3, e4 * e4, out=right[:, 0])
    np.negative(left[:, 1:], out=right[:, 1:])
    blocks.setflags(write=False)
    return blocks


_KEPT_BLOCKS = [None, None]  # _frame_array's last batch and its blocks, shared by every probe of it


def _frame_blocks(frames: np.ndarray) -> np.ndarray:
    """The blocks (_blocks) of an (m, 4, n) batch.

    Those of _frame_array's last batch are built from the array its sweeps
    ran on and kept with it; any other batch is first copied component-major.
    """
    batch, blocks = _KEPT_BLOCKS
    return blocks if frames is batch else _blocks(np.ascontiguousarray(np.transpose(frames, (1, 2, 0))))


@functools.lru_cache(maxsize=1, typed=True)
def _frame_array(n: int, count: int, seed: int) -> np.ndarray:
    """The read-only (count, 4, n) batch, the one way into sampling; the
    last one is kept for the next call, with its blocks (_frame_blocks)."""
    check_integer(n, 4, "n")
    check_integer(count, 1, "count")
    check_integer(seed, 0, "seed")
    _KEPT_BLOCKS[:] = None, None  # free the replaced batch's blocks before drawing, off the memory peak
    rng = np.random.default_rng(seed)
    form = _orthonormalize(rng.standard_normal((count, 4, n)), rng)
    frames = np.ascontiguousarray(np.transpose(form, (2, 0, 1)))
    frames.setflags(write=False)
    _KEPT_BLOCKS[:] = frames, _blocks(form)
    return frames


def sample_frames(n: int, count: int, seed: int = DEFAULT_SEED) -> list[OrthoFrame4]:
    """Deterministic random orthonormal 4-frames in dimension n.

    Frames are obtained by Gram-Schmidt on seeded standard-Gaussian vectors,
    which makes the distribution rotation invariant; the batch is
    orthonormalised component-major, all frames at once (_orthonormalize).  The result depends
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
    This is cic_probes([t], count, seed), its one-tensor case.
    """
    return cic_probes([t], count, seed)[0]


def _member(j: int, total: int) -> str:
    """Names member j in an error about a stack of more than one tensor."""
    return f"tensor {j} of {total}: " if total > 1 else ""


def cic_probes(
    tensors: Sequence[CurvatureTensor],
    count: int = DEFAULT_FRAMES,
    seed: int = DEFAULT_SEED,
) -> list[ProbeReport]:
    """cic_probe(t, count, seed) for each t of a stack of tensors of one dimension.

    The stack shares one frame batch and is evaluated in chunks of
    max(1, STACK_GEMM_DOUBLES // (3 count n)) tensors, one
    _isotropic_batch call per chunk.  Its (T_b, count) values are reduced
    chunk-wide: row means (numpy's pairwise sum of each contiguous row;
    a row with a non-finite value has a non-finite mean, so the means are
    the finiteness check), argmin and argmax, and the values there; only
    the ProbeReports are made one by one.  Each member's max |R_ijkl| is
    the scale its build kept.  The reports equal those of probing each
    tensor alone.  Raises
    ValueError on an empty stack or mixed dimensions, and as cic_probe
    does for a member, whose index the message names when the stack has
    more than one.
    """
    check_integer(count, 2, "count")
    if not tensors:
        raise ValueError("probe needs at least one tensor")
    dims = sorted({t.dim for t in tensors})
    if len(dims) > 1:
        raise ValueError(f"a probed stack needs one dimension, got dimensions {dims}")
    n = dims[0]
    scales = [t._scale for t in tensors]  # max |R_ijkl|, kept from each tensor's build
    tiny = np.finfo(float).tiny
    for j, scale in enumerate(scales):
        if 0.0 < scale < tiny:
            raise ValueError(f"{_member(j, len(tensors))}curvature is subnormal: "
                             f"max |R_ijkl| = {scale:.6e} has too few digits to judge")
    frames = _frame_array(n, count, seed)
    size = max(1, STACK_GEMM_DOUBLES // (3 * count * n))
    reports = []
    for lo in range(0, len(tensors), size):
        with np.errstate(over="ignore", invalid="ignore"):
            rows = _isotropic_batch(tensors[lo : lo + size], frames).T
            means = rows.mean(axis=1)
        finite = np.isfinite(means)  # a non-finite value makes its row's sum, so its mean, non-finite
        if not finite.all():
            j = lo + int(finite.argmin())  # the first member that overflows
            raise ValueError(
                f"{_member(j, len(tensors))}isotropic curvature overflows the float range: "
                f"max |R_ijkl| = {scales[j]:.6e} is too large"
            )
        argmins, argmaxs = rows.argmin(axis=1), rows.argmax(axis=1)
        chunk = np.arange(len(rows))
        for j, mean, argmin, argmax, vmin, vmax in zip(
            range(lo, lo + size), means.tolist(), argmins.tolist(), argmaxs.tolist(),
            rows[chunk, argmins].tolist(), rows[chunk, argmaxs].tolist(),
        ):
            reports.append(ProbeReport(
                samples=count,
                min=vmin,
                max=vmax,
                mean=mean,
                is_constant=vmax - vmin <= DEFAULT_PROBE_TOL * scales[j],
                argmin=argmin,
                argmax=argmax,
            ))
    return reports


# ---------------------------------------------------------------------------
# diagnostics


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
