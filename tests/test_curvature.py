import itertools
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from isocurv import checks, spectra
from isocurv import curvature as cv
from isocurv.curvature import (
    CurvatureTensor,
    Factor,
    FrameError,
    OrthoFrame4,
    ProductSpec,
    _isotropic_batch,
    build_constant_curvature,
    build_from_shape,
    build_product,
    check_symmetries,
    cic_probe,
    sample_frames,
    sectional,
)
from oracles import (
    frame_array,
    gauss_suite_per_spectrum,
    isotropic_component,
    orthonormalize,
    sectional_components,
    suite_outcome,
)


def sphere_line(sphere_dim=3, curvature=1.0):
    return build_product(
        ProductSpec((Factor("sphere", sphere_dim, curvature), Factor("flat", 1, 0.0)))
    )


def split_product(c):
    return build_product(ProductSpec((Factor("sphere", 2, c), Factor("hyperbolic", 2, -c))))


# ---------------------------------------------------------------------------
# constructors


def gauss_reference(c, lams):
    """Gauss equation c(g_il g_jk - g_ik g_jl) + h_il h_jk - h_ik h_jl, one component at a time."""
    n = len(lams)
    g, h = np.eye(n), np.diag(np.asarray(lams, dtype=float))
    comp = np.zeros((n, n, n, n))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        comp[i, j, k, l] = c * (g[i, l] * g[j, k] - g[i, k] * g[j, l]) + h[i, l] * h[j, k] - h[i, k] * h[j, l]
    return comp


def product_reference(factors):
    """Each factor's space-form block where all four indices lie in it; zero elsewhere."""
    owner = [f for f, (dim, _) in enumerate(factors) for _ in range(dim)]
    n = len(owner)
    comp = np.zeros((n, n, n, n))
    for i, j, k, l in itertools.product(range(n), repeat=4):
        if owner[i] == owner[j] == owner[k] == owner[l]:
            kf = factors[owner[i]][1]
            comp[i, j, k, l] = kf * ((i == l) * (j == k) - (i == k) * (j == l))
    return comp


@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("k", [1.75, -0.6, 0.0])
def test_constant_curvature_matches_dense_reference(n, k):
    assert np.array_equal(build_constant_curvature(n, k).comp, gauss_reference(k, [0.0] * n))


@pytest.mark.parametrize(
    "factors",
    [
        [("sphere", 3, 1.0), ("flat", 1, 0.0)],
        [("sphere", 2, 0.5), ("hyperbolic", 2, -2.0)],
        [("sphere", 1, 1.0)] * 4,
        [("flat", 4, 0.0)],
        [("sphere", 3, 1.5), ("sphere", 1, 2.0), ("flat", 1, 0.0)],
        [("hyperbolic", 3, -0.75), ("flat", 1, 0.0), ("sphere", 2, 2.0), ("flat", 2, 0.0)],
    ],
)
def test_product_matches_dense_reference(factors):
    t = build_product(ProductSpec(tuple(Factor(kind, d, k) for kind, d, k in factors)))
    assert np.array_equal(t.comp, product_reference([(d, k) for _, d, k in factors]))


@pytest.mark.parametrize(
    "c,lams",
    [
        (0.75, (-0.5, -0.5, -0.5, 1.5)),
        (-1.0, (0.3, 0.3, 0.3, 0.3, -2.0)),
        (0.2, (0.9, -1.3, 0.4, 2.2, -0.7, 0.1, 1.1, -2.5)),
    ],
)
def test_build_from_shape_matches_dense_reference(c, lams):
    assert np.array_equal(build_from_shape(c, lams).comp, gauss_reference(c, lams))


def test_constant_curvature_components():
    t = build_constant_curvature(3, 1.0)
    assert t.comp[0, 1, 1, 0] == 1.0
    assert t.comp[0, 1, 0, 1] == -1.0
    assert t.comp[0, 1, 1, 2] == 0.0
    assert t.comp[0, 0, 1, 1] == 0.0


def test_constant_curvature_flat_is_zero():
    assert np.all(build_constant_curvature(4, 0.0).comp == 0.0)


def test_constant_curvature_sectional_value():
    t = build_constant_curvature(4, 2.0)
    eye = np.eye(4)
    for i in range(4):
        for j in range(4):
            if i != j:
                assert sectional(t, eye[i], eye[j]) == pytest.approx(2.0, abs=1e-14)


def test_constant_curvature_rejects_nonpositive_dim():
    with pytest.raises(ValueError):
        build_constant_curvature(0, 1.0)


def test_product_sphere_line_sectionals():
    t = sphere_line()
    eye = np.eye(4)
    assert sectional(t, eye[0], eye[1]) == pytest.approx(1.0, abs=1e-14)
    assert sectional(t, eye[0], eye[3]) == 0.0  # mixed plane


def test_product_circle_factor_carries_no_curvature():
    line = sphere_line()
    circle = build_product(ProductSpec((Factor("sphere", 3, 1.0), Factor("sphere", 1, 1.0))))
    assert np.array_equal(line.comp, circle.comp)


def test_product_mixed_curvature_blocks():
    t = split_product(1.0)
    eye = np.eye(4)
    assert sectional(t, eye[0], eye[1]) == pytest.approx(1.0, abs=1e-14)
    assert sectional(t, eye[2], eye[3]) == pytest.approx(-1.0, abs=1e-14)
    assert sectional(t, eye[0], eye[2]) == 0.0


def test_product_validation():
    with pytest.raises(ValueError):
        ProductSpec(())
    with pytest.raises(ValueError):
        Factor("sphere", 3, -1.0)
    with pytest.raises(ValueError):
        Factor("hyperbolic", 2, 0.5)
    with pytest.raises(ValueError):
        Factor("flat", 2, 1.0)
    with pytest.raises(ValueError):
        ProductSpec((Factor("sphere", 3, 1.0),))  # total dim < 4


def test_build_from_shape_sectionals():
    t = build_from_shape(0.0, (-1.0, -1.0, -1.0, 1.0))
    eye = np.eye(4)
    assert sectional(t, eye[0], eye[1]) == pytest.approx(1.0, abs=1e-14)
    assert sectional(t, eye[0], eye[3]) == pytest.approx(-1.0, abs=1e-14)


def test_build_from_shape_umbilical_matches_constant_curvature():
    assert np.array_equal(
        build_from_shape(0.0, (1.0, 1.0, 1.0, 1.0)).comp,
        build_constant_curvature(4, 1.0).comp,
    )
    assert np.array_equal(
        build_from_shape(1.0, (0.0, 0.0, 0.0, 0.0)).comp,
        build_constant_curvature(4, 1.0).comp,
    )


def test_build_from_shape_pair_structure():
    t = build_from_shape(0.5, (-1.0, 2.0, 2.0, 2.0, 2.0))
    n = t.dim
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    if {i, j} != {k, l} or i == j:
                        assert t.comp[i, j, k, l] == 0.0


def test_build_from_shape_rejects_short_spectrum():
    with pytest.raises(ValueError):
        build_from_shape(0.0, (1.0, 1.0, 1.0))


def gauss_sectional(c, lams):
    """K = c + lambda_i * lambda_j with a zero diagonal, one spectrum at a time."""
    k = c + np.outer(lams, lams)
    np.fill_diagonal(k, 0.0)
    return k


@pytest.mark.parametrize("n,total", [(4, 1), (5, 7), (8, 30)])
def test_a_stacked_build_is_its_rows_built_alone(n, total):
    """Each row's read-only sectional matrix has the bytes of building the
    row alone and of the one-spectrum formula."""
    rng = np.random.default_rng(n * total)
    cs, lams = rng.uniform(-2.0, 2.0, total), rng.uniform(-2.0, 2.0, (total, n))
    stack = cv.build_from_shapes(cs, lams)
    assert len(stack) == total and all(t.dim == n for t in stack)
    for c, row, t in zip(cs, lams, stack):
        k = t.sectional_matrix
        assert k.tobytes() == build_from_shape(c, row).sectional_matrix.tobytes()
        assert k.tobytes() == gauss_sectional(c, row).tobytes()
        assert not k.flags.writeable
        with pytest.raises(ValueError):
            k.setflags(write=True)


@pytest.mark.parametrize(
    "cs,lams,message",
    [
        ([0.0, 0.5, math.nan, -1.0], [[1.0] * 4] * 4, "^tensor 2 of 4: sectional curvatures must be finite, got nan$"),
        ([0.0, 0.5, 1.0], [[1.0] * 4, [1.0, 1.0, 1.0, math.inf], [math.nan] * 4],
         "^tensor 1 of 3: sectional curvatures must be finite, got inf$"),
        # only the diagonal c + lambda_0^2 overflows; it does not enter, but it is not finite
        ([0.3, 0.0], [[1.0] * 4, [1e200, 1e-200, 1.0, 1.0]], "^tensor 1 of 2: sectional curvatures must be finite, got inf$"),
        ([math.nan], [[1.0] * 4], "^sectional curvatures must be finite, got nan$"),
        ([0.0, 0.0], [[1.0] * 3] * 2, "^need an integer n >= 4, got n = 3$"),
        ([0.0], [[1.0] * 4] * 2, r"need T curvatures and a \(T, n\) stack of spectra, got shapes \(1,\) and \(2, 4\)"),
        ([0.0], [1.0] * 4, r"got shapes \(1,\) and \(4,\)"),
    ],
)
def test_a_stacked_build_names_its_first_bad_member(cs, lams, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match=message):
        cv.build_from_shapes(cs, lams)


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: build_from_shape(math.nan, (1.0, 1.0, 1.0, 1.0)), "sectional curvatures must be finite, got nan"),
        (lambda: build_from_shape(0.0, (1e200, 1e-200, 1.0, 1.0)), "sectional curvatures must be finite, got inf"),
        (lambda: build_from_shape(0.0, (1.0, 1.0, 1.0)), "need an integer n >= 4, got n = 3"),
        (lambda: build_constant_curvature(4, math.inf), "sectional curvatures must be finite, got inf"),
        (lambda: cv._from_sectional(np.ones((1, 4, 4)) + np.eye(4, k=1)),
         "sectional matrix must be square and symmetric, got shape (4, 4)"),
        (lambda: cv._from_sectional([np.ones((4, 4)), np.ones((4, 4)) + np.eye(4, k=1)]),
         "tensor 1 of 2: sectional matrix must be square and symmetric, got shape (4, 4)"),
    ],
)
def test_one_tensor_build_errors_name_no_stack_member(build, message):
    with np.errstate(over="ignore"), pytest.raises(ValueError) as info:
        build()
    assert str(info.value) == message


@st.composite
def spectrum_stacks(draw):
    """(cs, lambdas, count, seed): up to two chunks of spectra at scales 1e-150 to 1e150."""
    n = draw(st.sampled_from([4, 5, 8]))
    count = draw(st.sampled_from([50, 200, 500]))
    size = max(1, cv.STACK_GEMM_DOUBLES // (3 * count * n))
    total = draw(st.integers(1, min(2 * size + 1, 60)))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    scale = draw(st.sampled_from([1.0, 1e-150, 1e150]) | st.floats(-5.0, 5.0).map(lambda e: 10.0**e))
    lams = scale * rng.uniform(-2.0, 2.0, (total, n))
    cs = scale * scale * rng.uniform(-2.0, 2.0, total)
    return cs, lams, count, draw(st.integers(0, 1000))


@settings(max_examples=25, deadline=None)
@given(case=spectrum_stacks())
def test_a_stacked_build_probes_as_one_build_per_member(case):
    cs, lams, count, seed = case
    assert cv.cic_probes(cv.build_from_shapes(cs, lams), count, seed) == [
        cic_probe(build_from_shape(c, row), count, seed) for c, row in zip(cs, lams)
    ]


# ---------------------------------------------------------------------------
# sectional / isotropic evaluation


def test_sectional_rejects_degenerate_plane():
    t = build_constant_curvature(4, 1.0)
    v = np.array([1.0, 0.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="degenerate"):
        sectional(t, v, 2.0 * v)


def test_sectional_rejects_a_zero_vector():
    t = build_constant_curvature(4, 1.0)
    with pytest.raises(ValueError, match="degenerate"):
        sectional(t, np.zeros(4), np.eye(4)[1])


@pytest.mark.parametrize("path", ["K", "dense"])
@pytest.mark.parametrize("x,y", [
    ([1, 0, 0, 0, 0], [0, 1, 0, 0, 0]),
    ([1, 0, 0, 0], [0, 1, 0]),
    ([[1, 0, 0, 0]], [[0, 1, 0, 0]]),
    (1.0, 2.0),
])
def test_sectional_rejects_vectors_not_of_the_tensors_dimension(path, x, y):
    t = build_constant_curvature(4, 1.0)
    if path == "dense":
        t = CurvatureTensor(4, t.comp)
        assert t.sectional_matrix is None
    with pytest.raises(ValueError, match=re.escape("x and y must have shape (t.dim,) = (4,)")):
        sectional(t, x, y)


@pytest.mark.parametrize("size", [1e-4, 1e-160, 5e-324, 1e160, 1e308])
def test_sectional_of_an_orthogonal_plane_at_any_size(size):
    """The degeneracy test is on sin^2 of the angle, not on the Gram determinant,
    and no square of a component overflows or underflows."""
    t = build_constant_curvature(4, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert sectional(t, [size, 0.0, 0.0, 0.0], [0.0, size, 0.0, 0.0]) == 1.0


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_sectional_rejects_a_non_finite_vector(bad):
    with pytest.raises(ValueError, match=re.escape("degenerate plane: max |component|")):
        sectional(build_constant_curvature(4, 1.0), [bad, 0.0, 0.0, 0.0], np.eye(4)[1])


@settings(max_examples=40, deadline=None)
@given(
    a=st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e),
    b=st.floats(-150.0, 150.0).map(lambda e: 10.0 ** e),
    seed=st.integers(0, 2**31),
)
def test_sectional_does_not_change_when_x_and_y_are_scaled(a, b, seed):
    t = build_from_shape(0.3, (0.9, -1.3, 0.4, 2.2, -0.7))
    x, y = np.random.default_rng(seed).standard_normal((2, 5))
    assert sectional(t, a * x, b * y) == pytest.approx(sectional(t, x, y), rel=1e-12)


def test_sectional_general_position():
    t = build_constant_curvature(4, 1.5)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x, y = rng.standard_normal((2, 4))
        assert sectional(t, x, y) == pytest.approx(1.5, abs=1e-12)


@pytest.mark.parametrize("n", [4, 5, 8])
def test_sectional_from_k_matches_the_dense_path(n):
    """(x*x).K.(y*y) - (x*y).K.(x*y) against the pair-matrix contraction of
    the same components, on 100 random planes of a random symmetric K
    whose diagonal is nonzero and must not enter."""
    rng = np.random.default_rng(n)
    k = rng.standard_normal((n, n))
    k = k + k.T + np.diag(rng.uniform(1.0, 5.0, n))
    (t,) = cv._from_sectional(k[None])
    dense = CurvatureTensor(n, t.comp)
    assert dense.sectional_matrix is None
    for x, y in rng.standard_normal((100, 2, n)):
        want = sectional(dense, x, y)
        assert abs(sectional(t, x, y) - want) <= 1e-13 * max(1.0, abs(want))


def test_isotropic_split_frame_values():
    """Coordinate frames, on the sectional path and on the dense path of the
    same components, against the einsum oracle and the exact values."""
    eye6 = np.eye(6)
    cases = [
        (sphere_line(), np.eye(4), 2.0),
        (split_product(1.0), np.eye(4), 0.0),
        (sphere_line(sphere_dim=5), eye6[:4], 4.0),  # frame within the sphere block
        (sphere_line(sphere_dim=5), np.vstack([eye6[:3], eye6[5]]), 2.0),  # frame containing the flat direction
    ]
    for t, frame, value in cases:
        dense = CurvatureTensor(t.dim, t.comp)
        assert t.sectional_matrix is not None and dense.sectional_matrix is None
        assert isotropic_component(t, frame) == value
        for tensor in (t, dense):
            assert _isotropic_batch([tensor], frame[None])[0, 0] == pytest.approx(value, abs=1e-14)


def kulkarni_nomizu_square(n, seed):
    """Kulkarni-Nomizu square h (.) h = 2 (h_il h_jk - h_ik h_jl) of a random
    symmetric h; mixed components such as R_0123 are nonzero."""
    h = np.random.default_rng(seed).standard_normal((n, n))
    h = h + h.T
    return CurvatureTensor(n, 2.0 * (np.einsum("il,jk->ijkl", h, h) - np.einsum("ik,jl->ijkl", h, h)))


def json_tensor(n):
    """A non-sectional tensor with an R_0123 entry, its dense components
    unfolded by the curvature symmetries from six canonical entries
    (i < j, k < l, (i, j) <= (k, l)); R_0312 = R_0213 - R_0123 keeps Bianchi."""
    comp = np.zeros((n, n, n, n))
    for i, j, k, l, v in (
        (0, 1, 0, 1, -1.3),
        (0, 1, 2, 3, 0.7),
        (0, 2, 1, 3, -0.4),
        (0, 3, 1, 2, -1.1),
        (1, 2, 1, 2, 0.9),
        (0, n - 1, n - 2, n - 1, 0.25),
    ):
        for a, b, c, d, sign in ((i, j, k, l, 1.0), (j, i, k, l, -1.0), (i, j, l, k, -1.0), (j, i, l, k, 1.0)):
            comp[a, b, c, d] = comp[c, d, a, b] = sign * v
    t = CurvatureTensor(n, comp)
    assert check_symmetries(t).max_residual <= 1e-12 * np.abs(comp).max()
    return t


ORACLE_TENSORS = {
    "gauss": lambda n: build_from_shape(0.3, np.random.default_rng(n).uniform(-1.5, 1.5, n)),
    "kulkarni-nomizu": lambda n: kulkarni_nomizu_square(n, seed=n),
    "json": json_tensor,
}


@pytest.mark.parametrize("n", [4, 5, 8])
@pytest.mark.parametrize("kind", sorted(ORACLE_TENSORS))
def test_brute_force_oracle_agreement(kind, n):
    """Naive quadruple-loop contraction agrees with the library path, one
    frame at a time and as one batch of n^2 + 1 frames."""

    def naive(comp, frames):
        def r(u, v, z, w):
            total = np.zeros(len(frames))
            for i, j, k, l in itertools.product(range(n), repeat=4):
                total += comp[i, j, k, l] * u[:, i] * v[:, j] * z[:, k] * w[:, l]
            return total

        e1, e2, e3, e4 = (frames[:, a] for a in range(4))
        return (
            r(e1, e3, e3, e1)
            + r(e1, e4, e4, e1)
            + r(e2, e3, e3, e2)
            + r(e2, e4, e4, e2)
            - 2.0 * r(e1, e2, e3, e4)
        )

    t = ORACLE_TENSORS[kind](n)
    assert kind == "gauss" or t.comp[0, 1, 2, 3] != 0.0
    assert (t.sectional_matrix is not None) == (kind == "gauss")  # which path is checked
    frames = np.array([f.vectors for f in sample_frames(n, n * n + 1, seed=11)])
    expected = naive(t.comp, frames)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(t.comp))))
    assert np.max(np.abs(_isotropic_batch([t], frames)[:, 0] - expected)) <= tol
    for f, value in zip(frames[:5], expected):
        assert abs(_isotropic_batch([t], f[None])[0, 0] - value) <= tol
        assert abs(isotropic_component(t, f) - value) <= tol


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(min_value=4, max_value=16),
    seed=st.integers(min_value=0, max_value=2**31),
    size=st.floats(min_value=1e-3, max_value=1e3),
)
def test_sectional_path_matches_the_dense_path(n, seed, size):
    """The closed form A.K.B - P.K.P - Q.K.Q against the pair-matrix
    contraction of the same components, for a random symmetric K whose
    diagonal is nonzero and must not enter."""
    rng = np.random.default_rng(seed)
    k = size * rng.standard_normal((n, n))
    k = k + k.T + np.diag(size * rng.uniform(1.0, 5.0, n))
    (t,) = cv._from_sectional(k[None])
    assert np.all(np.diag(t.sectional_matrix) == 0.0) and not t.sectional_matrix.flags.writeable
    dense = CurvatureTensor(n, t.comp)
    assert dense.sectional_matrix is None
    frames = cv._frame_array(n, 64, seed % 1000)
    got = _isotropic_batch([t], frames)
    assert np.max(np.abs(got - _isotropic_batch([dense], frames))) <= 1e-12 * float(np.max(np.abs(k)))
    off_diagonal = k * (1.0 - np.eye(n))
    assert np.array_equal(got, _isotropic_batch(cv._from_sectional(off_diagonal[None]), frames))


def test_built_tensors_skip_the_pair_matrix(monkeypatch):
    def dense(*args):
        raise AssertionError("pair-matrix contraction reached")

    monkeypatch.setattr(cv, "_contract", dense)
    assert cic_probe(build_from_shape(0.2, (0.9, -1.3, 0.4, 2.2, -0.7, 0.1, 1.1, -2.5)), count=50).samples == 50
    with pytest.raises(AssertionError, match="pair-matrix"):
        cic_probe(json_tensor(8), count=50)


def test_from_sectional_rejects_an_asymmetric_matrix():
    k = np.ones((4, 4))
    k[0, 1] = 2.0
    with pytest.raises(ValueError, match="symmetric"):
        cv._from_sectional(k[None])


def test_sectional_matrix_is_never_given_by_hand():
    t = build_constant_curvature(4, 1.0)
    with pytest.raises(TypeError):
        CurvatureTensor(4, t.comp, t.sectional_matrix)
    with pytest.raises(ValueError):
        t.sectional_matrix[0, 1] = 5.0


def sectional_dense_form(k):
    """R_ijji = K_ij and R_ijij = -K_ij for i != j, one component at a time; zero elsewhere."""
    n = k.shape[0]
    comp = np.zeros((n, n, n, n))
    for i, j in itertools.product(range(n), repeat=2):
        if i != j:
            comp[i, j, j, i] = k[i, j]
            comp[i, j, i, j] = -k[i, j]
    return comp


BUILT = {
    "constant n=4": lambda: build_constant_curvature(4, 1.75),
    "constant n=8": lambda: build_constant_curvature(8, -0.6),
    "S3 x R1": sphere_line,
    "S5 x R1": lambda: sphere_line(sphere_dim=5),
    "S2 x H2": lambda: split_product(1.0),
    "Gauss Clifford": lambda: build_from_shape(0.75, (-0.5, -0.5, -0.5, 1.5)),
    "Gauss lambda != mu": lambda: build_from_shape(-0.3, (1.0, -0.5, 2.0, 0.3, 0.7)),
    "Gauss n=8": lambda: build_from_shape(0.2, (0.9, -1.3, 0.4, 2.2, -0.7, 0.1, 1.1, -2.5)),
}


@pytest.mark.parametrize("name", sorted(BUILT))
def test_builders_keep_the_sectional_matrix_of_their_components(name):
    """The kept K's dense form is comp bit for bit, and its dense twin
    CurvatureTensor(t.dim, t.comp) (which keeps no K, so it probes densely)
    gives the same verdict; where the functional varies, the same extreme
    frames and values within 1e-12 relative."""
    t = BUILT[name]()
    k = t.sectional_matrix
    assert k is not None and np.all(np.diag(k) == 0.0)
    assert sectional_dense_form(k).tobytes() == t.comp.tobytes()
    back = CurvatureTensor(t.dim, t.comp)
    assert back.sectional_matrix is None
    fast, dense = cic_probe(t, count=300, seed=13), cic_probe(back, count=300, seed=13)
    assert fast.is_constant == dense.is_constant
    if not fast.is_constant:
        assert (fast.argmin, fast.argmax) == (dense.argmin, dense.argmax)
        for field in ("min", "max", "mean"):
            assert getattr(fast, field) == pytest.approx(getattr(dense, field), rel=1e-12)


LAZY_BUILDERS = {
    "constant": (lambda n: build_constant_curvature(n, -0.7), lambda n: np.full((n, n), -0.7)),
    "product": (
        lambda n: build_product(ProductSpec((Factor("sphere", n - 2, 1.5), Factor("hyperbolic", 2, -0.5)))),
        lambda n: np.block([[np.full((n - 2, n - 2), 1.5), np.zeros((n - 2, 2))], [np.zeros((2, n - 2)), np.full((2, 2), -0.5)]]),
    ),
    "gauss": (
        lambda n: build_from_shape(0.3, np.linspace(-1.0, 2.0, n)),
        lambda n: 0.3 + np.outer(np.linspace(-1.0, 2.0, n), np.linspace(-1.0, 2.0, n)),
    ),
}


@pytest.mark.parametrize("n", [4, 7, 12])
@pytest.mark.parametrize("kind", sorted(LAZY_BUILDERS))
def test_built_components_are_the_eager_fill_read_once(kind, n):
    """comp, built on first read, is bitwise the eager n^4 fill of K, read-only
    and the same object on every later read."""
    build, kmat = LAZY_BUILDERS[kind]
    t = build(n)
    comp = t.comp
    assert comp.shape == (n,) * 4 and comp.dtype == np.float64 and comp.flags.c_contiguous
    assert comp.tobytes() == sectional_components(kmat(n)).tobytes()
    assert not comp.flags.writeable
    assert t.comp is comp
    with pytest.raises(ValueError):
        comp[0, 1, 1, 0] = 2.0


def test_tensors_are_immutable():
    for t in (build_constant_curvature(4, 1.0), CurvatureTensor(4, np.zeros((4, 4, 4, 4)))):
        for name in ("dim", "comp", "sectional_matrix"):
            with pytest.raises(AttributeError):
                setattr(t, name, None)
            with pytest.raises(AttributeError):
                delattr(t, name)


def traced_peak(fn):
    """(fn(), the peak bytes tracemalloc sees while it runs)."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("kind", sorted(LAZY_BUILDERS))
def test_building_and_probing_never_allocate_the_components(kind):
    """At n = 64 one (n, n, n, n) array is 134 MB; building and probing 1000
    frames stays under an eighth of that, frames included."""
    n = 64
    build, _ = LAZY_BUILDERS[kind]
    report, peak = traced_peak(lambda: cic_probe(build(n), count=1000, seed=1964))
    assert report.samples == 1000
    assert peak < n**4 * 8 / 8


def test_constant_curvature_probes_at_n_256_in_little_memory():
    """The dense components would be 34 GB; the probe needs the frames and K."""
    report, peak = traced_peak(lambda: cic_probe(build_constant_curvature(256, 1.0), count=1000))
    assert report.is_constant
    assert report.min == pytest.approx(4.0, abs=1e-12) and report.max == pytest.approx(4.0, abs=1e-12)
    assert peak < 100e6


def test_sectional_of_a_built_tensor_never_allocates_the_components():
    """At n = 64 the components would be 134 MB; one plane needs K and four n-vectors."""
    t = build_constant_curvature(64, 1.0)
    eye = np.eye(64)
    value, peak = traced_peak(lambda: sectional(t, eye[0], eye[1] + eye[2]))
    assert value == pytest.approx(1.0, abs=1e-14)
    assert peak < 1e6


# ---------------------------------------------------------------------------
# frame sampling and probing


def test_sample_frames_deterministic_and_orthonormal():
    a = sample_frames(5, 50, seed=7)
    b = sample_frames(5, 50, seed=7)
    assert len(a) == 50
    for fa, fb in zip(a, b):
        assert np.array_equal(fa.vectors, fb.vectors)
        gram = fa.vectors @ fa.vectors.T
        assert np.max(np.abs(gram - np.eye(4))) <= 1e-12


def test_sample_frames_seed_sensitivity():
    a = sample_frames(4, 1, seed=1)[0]
    b = sample_frames(4, 1, seed=2)[0]
    assert not np.allclose(a.vectors[0], b.vectors[0])


def test_sample_frames_single_frame():
    (f,) = sample_frames(4, 1, seed=42)
    assert np.max(np.abs(f.vectors @ f.vectors.T - np.eye(4))) <= 1e-12


def test_orthonormalize_redraws_dependent_vectors():
    """A raw vector in the span of the ones before it (twice the first; the
    sum of the first and third) leaves no residual, so Gram-Schmidt draws a
    replacement from the generator: the frames stay orthonormal, each
    independent raw vector stays in the span of the frame so far, and a
    fixed generator seed gives bit-identical frames."""
    raw = np.random.default_rng(5).standard_normal((2, 4, 6))
    raw[0, 1] = 2.0 * raw[0, 0]
    raw[1, 3] = raw[1, 0] + raw[1, 2]
    rng = np.random.default_rng(11)
    q = np.transpose(cv._orthonormalize(raw, rng), (2, 0, 1))  # (m, 4, n), like raw
    assert rng.bit_generator.state != np.random.default_rng(11).bit_generator.state  # replacements drawn
    assert np.array_equal(q, np.transpose(cv._orthonormalize(raw, np.random.default_rng(11)), (2, 0, 1)))
    for frame in q:
        assert np.max(np.abs(frame @ frame.T - np.eye(4))) <= 1e-12
    for k, a in ((0, 0), (1, 0), (1, 1), (1, 2)):
        v, span = raw[k, a], q[k, : a + 1]
        assert np.linalg.norm(v - span.T @ (span @ v)) <= 1e-12 * np.linalg.norm(v)


def test_orthonormalize_redraws_as_the_row_major_oracle_does():
    """Dependent and zero raw vectors at several positions are re-drawn in
    the oracle's order: the same generator state afterwards, the same frames
    to 1e-13."""
    raw = np.random.default_rng(8).standard_normal((5, 4, 7))
    raw[0, 1] = -3.0 * raw[0, 0]
    raw[2, 3] = raw[2, 1] - raw[2, 0]
    raw[3, 0] = 0.0
    raw[3, 2] = raw[3, 1]
    raw[4, 1:] = 0.0
    fast, slow = np.random.default_rng(21), np.random.default_rng(21)
    q = np.transpose(cv._orthonormalize(raw, fast), (2, 0, 1))
    assert np.max(np.abs(q - orthonormalize(raw, slow))) <= 1e-13
    assert fast.bit_generator.state == slow.bit_generator.state != np.random.default_rng(21).bit_generator.state


@pytest.mark.parametrize("seed", [0, 7, 123])
@pytest.mark.parametrize("count", [1, 12, 1000])
@pytest.mark.parametrize("n", [4, 5, 6, 8, 16, 64])
def test_frame_array_matches_the_row_major_oracle(n, count, seed):
    """The component-major sweeps give the row-major oracle's frames to
    1e-13, orthonormal to 1e-14."""
    frames = cv._frame_array(n, count, seed)
    assert np.max(np.abs(frames - frame_array(n, count, seed))) <= 1e-13
    gram = np.einsum("mai,mbi->mab", frames, frames)
    assert np.max(np.abs(gram - np.eye(4))) <= 1e-14


def test_frame_array_is_read_only():
    frames = cv._frame_array(4, 10, 3)
    assert frames.shape == (10, 4, 4) and not frames.flags.writeable
    with pytest.raises(ValueError):
        frames[0, 0, 0] = 1.0


@pytest.mark.parametrize("n,count,seed", [(4, 1, 0), (4, 500, 42), (5, 7, 3), (6, 1000, 42), (8, 20, 101)])
def test_frame_array_memo_is_bit_identical_to_a_fresh_draw(n, count, seed):
    fresh = cv._frame_array.__wrapped__(n, count, seed)
    kept = cv._frame_array(n, count, seed)
    assert cv._frame_array(n, count, seed) is kept
    assert np.array_equal(kept, fresh)


def test_frame_array_keeps_one_batch():
    cv._frame_array.cache_clear()
    cv._frame_array(4, 5, 1)
    cv._frame_array(4, 5, 2)
    cv._frame_array(4, 5, 1)
    info = cv._frame_array.cache_info()
    assert info.maxsize == 1 and info.currsize == 1 and info.hits == 0
    with pytest.raises(ValueError, match=r"integer seed >= 0, got seed = 1\.0$"):  # its own key, rejected by name
        cv._frame_array(4, 5, 1.0)
    assert cv._frame_array.cache_info().currsize == 1  # the rejected call kept the last batch


def test_probes_with_alternating_keys_match_a_cold_cache():
    t4 = build_from_shape(0.5, (1.0, -0.5, 2.0, 0.3))
    t6 = sphere_line(sphere_dim=5)
    keys = [(t4, 500, 1), (t4, 500, 2), (t4, 500, 1), (t4, 500, 1), (t4, 1000, 1),
            (t6, 1000, 1), (t6, 1000, 1), (t4, 500, 1)]
    warm = [cic_probe(t, count=m, seed=s) for t, m, s in keys]
    cold = []
    for t, m, s in keys:
        cv._frame_array.cache_clear()
        cold.append(cic_probe(t, count=m, seed=s))
    assert warm == cold


def test_sample_frames_are_independent_of_the_kept_batch():
    frames = sample_frames(4, 3, seed=9)
    again = sample_frames(4, 3, seed=9)
    kept = cv._frame_array(4, 3, 9)
    for k, (f, g) in enumerate(zip(frames, again)):
        assert f is not g and np.array_equal(f.vectors, g.vectors)
        assert np.array_equal(f.vectors, kept[k])
        assert not np.shares_memory(f.vectors, kept) and not np.shares_memory(f.vectors, g.vectors)


@pytest.mark.parametrize(
    "tensor,n",
    [(sphere_line(sphere_dim=5), 6), (build_from_shape(-0.3, (1.0, -0.5, 2.0, 0.3, 0.7)), 5)],
)
def test_cic_probe_names_its_extreme_frames(tensor, n):
    report = cic_probe(tensor, count=300, seed=11)
    frames = sample_frames(n, 300, seed=11)
    assert 0 <= report.argmin < 300 and 0 <= report.argmax < 300
    assert isotropic_component(tensor, frames[report.argmax].vectors) == pytest.approx(report.max, rel=1e-13)
    assert isotropic_component(tensor, frames[report.argmin].vectors) == pytest.approx(report.min, rel=1e-13)
    values = [isotropic_component(tensor, f.vectors) for f in frames]
    assert max(values) == pytest.approx(report.max, rel=1e-13)
    assert min(values) == pytest.approx(report.min, rel=1e-13)


def test_probe_report_slack_is_relative_to_the_values():
    with pytest.raises(ValueError, match="min <= mean <= max"):
        cv.ProbeReport(2, 1e-20, 2e-20, 2.5e-20, False, 0, 1)
    cv.ProbeReport(2, 1e-20, 2e-20, 2e-20 * (1.0 + 2.0**-52), False, 0, 1)  # an ulp above max is rounding
    cv.ProbeReport(2, 0.0, 0.0, 0.0, True, 0, 1)


@pytest.mark.parametrize("k", [1e-300, 1e-3, 1e4])
def test_constant_tensors_probe_inside_their_report_bounds(k):
    """The mean of a constant tensor's values stays within [min, max] up to
    1e-15 of their size, at any scale, for up to 3000 frames."""
    for n, m in ((4, 3000), (8, 500)):
        report = cic_probe(build_constant_curvature(n, k), count=m, seed=3)
        assert report.is_constant and report.mean == pytest.approx(4.0 * k, rel=1e-12)


def test_cic_probe_constant_cases():
    report = cic_probe(sphere_line(), count=1000, seed=42)
    assert report.mean == pytest.approx(2.0, abs=1e-10)
    assert report.max - report.min <= 1e-10
    assert report.is_constant

    report = cic_probe(build_constant_curvature(4, 0.0), count=200, seed=42)
    assert report.min == report.max == 0.0


def test_cic_probe_detects_nonconstant():
    report = cic_probe(sphere_line(sphere_dim=5), count=1000, seed=7)
    assert not report.is_constant
    assert report.max - report.min >= 1.0
    assert report.min >= 2.0 - 1e-10
    assert report.max <= 4.0 + 1e-10


SCALE_BASES = [
    build_constant_curvature(4, 1.0),
    build_constant_curvature(8, -0.5),
    build_from_shape(0.75, (-0.5, -0.5, -0.5, 1.5)),
    split_product(1.0),
    sphere_line(sphere_dim=5),
]


@settings(max_examples=30, deadline=None)
@given(t=st.floats(-200.0, 200.0).map(lambda e: 10.0 ** e), which=st.integers(0, len(SCALE_BASES) - 1))
@example(t=1e-12, which=4)
@example(t=1e-200, which=4)
def test_cic_probe_scales_with_the_tensor(t, which):
    base = SCALE_BASES[which]
    ref = cic_probe(base, count=100, seed=5)
    scaled = cic_probe(CurvatureTensor(base.dim, t * base.comp), count=100, seed=5)
    size = t * max(1.0, abs(ref.min), abs(ref.max))
    for field in ("min", "max", "mean"):
        assert abs(getattr(scaled, field) - t * getattr(ref, field)) <= 1e-12 * size
    assert scaled.is_constant == ref.is_constant


@pytest.mark.parametrize(
    "tensor",
    [
        build_constant_curvature(4, 1e9),
        build_constant_curvature(16, 1e9),
        CurvatureTensor(4, 1e8 * build_from_shape(0.75, (-0.5, -0.5, -0.5, 1.5)).comp),
    ],
)
def test_cic_probe_tolerance_is_relative_to_the_tensor(tensor):
    assert cic_probe(tensor, count=200, seed=42).is_constant


def test_cic_probe_rejects_nan_tensor():
    with pytest.raises(ValueError, match="components must be finite, got nan"):
        cic_probe(CurvatureTensor(4, np.full((4, 4, 4, 4), math.nan)))


@pytest.mark.parametrize("value", [math.inf, -math.inf])
def test_dense_components_must_be_finite(value):
    """One infinite component among finite ones is named at the dense way in."""
    comp = build_constant_curvature(4, 1.0).comp.copy()
    comp[0, 1, 0, 1] = value
    with pytest.raises(ValueError, match=f"curvature components must be finite, got {value}$"):
        CurvatureTensor(4, comp)


@pytest.mark.parametrize(
    "dim,shape,message",
    [
        (4, (4, 4, 4), r"component array must have shape \(4, 4, 4, 4\), got \(4, 4, 4\)"),
        (3, (4, 4, 4, 4), r"component array must have shape \(3, 3, 3, 3\), got \(4, 4, 4, 4\)"),
        (4, (4, 4, 4, 5), r"must have shape \(4, 4, 4, 4\), got \(4, 4, 4, 5\)"),
        (0, (0, 0, 0, 0), r"need an integer tensor dim >= 1, got tensor dim = 0$"),
        (-1, (1, 1, 1, 1), r"need an integer tensor dim >= 1, got tensor dim = -1$"),
        (4.0, (4, 4, 4, 4), r"need an integer tensor dim >= 1, got tensor dim = 4\.0$"),
        (4.7, (4, 4, 4, 4), r"need an integer tensor dim >= 1, got tensor dim = 4\.7$"),
        ("4", (4, 4, 4, 4), r"need an integer tensor dim >= 1, got tensor dim = '4'$"),
        (True, (1, 1, 1, 1), r"need an integer tensor dim >= 1, got tensor dim = True$"),
    ],
)
def test_dense_components_need_an_integer_dim_and_its_shape(dim, shape, message):
    """CurvatureTensor(dim, comp), the one way in for dense components,
    takes only an integer dim >= 1 (a whole float or a bool is not one)
    and an array of shape (dim,) * 4."""
    with pytest.raises(ValueError, match=message):
        CurvatureTensor(dim, np.zeros(shape))


@pytest.mark.parametrize(
    "build,message",
    [
        (lambda: Factor("sphere", 2.5, 1.0), r"need an integer factor dim >= 1, got factor dim = 2\.5$"),
        (lambda: Factor("flat", 1.0, 0.0), r"need an integer factor dim >= 1, got factor dim = 1\.0$"),
        (lambda: Factor("sphere", True, 1.0), r"need an integer factor dim >= 1, got factor dim = True$"),
        (lambda: Factor("hyperbolic", 0, -1.0), r"need an integer factor dim >= 1, got factor dim = 0$"),
        (lambda: ProductSpec((Factor("sphere", 2.5, 1.0), Factor("flat", 1, 0.0))), r"got factor dim = 2\.5$"),
        (lambda: build_constant_curvature(4.0, 1.0), r"need an integer n >= 1, got n = 4\.0$"),
        (lambda: build_constant_curvature(False, 1.0), r"need an integer n >= 1, got n = False$"),
        (lambda: build_constant_curvature(0, 1.0), r"need an integer n >= 1, got n = 0$"),
    ],
)
def test_builders_need_integer_dimensions(build, message):
    """A builder's dimension is an integer (spectra.check_integer), so a
    non-integer one is rejected by name, not carried into a sum or a shape
    (Factor("sphere", 2.5, 1.0) made a ProductSpec of total_dim 4.5)."""
    with pytest.raises(ValueError, match=message):
        build()


def test_numpy_integer_dimensions_are_integers():
    four, comp = np.int64(4), build_constant_curvature(4, 1.0).comp
    assert cic_probe(CurvatureTensor(four, comp), count=50) == cic_probe(CurvatureTensor(4, comp), count=50)
    assert build_constant_curvature(four, 1.0).comp.tobytes() == build_constant_curvature(4, 1.0).comp.tobytes()
    spec = ProductSpec((Factor("sphere", np.int64(3), 1.0), Factor("flat", np.int64(1), 0.0)))
    assert spec.total_dim == 4 and build_product(spec).comp.tobytes() == sphere_line().comp.tobytes()


@pytest.mark.parametrize(
    "build,bad",
    [
        (lambda: Factor("sphere", 3, math.inf), "inf"),
        (lambda: Factor("flat", 1, math.nan), "nan"),
        (lambda: build_from_shape(math.nan, (1.0, 1.0, 1.0, 1.0)), "nan"),
        (lambda: build_from_shape(0.0, (1.0, 1.0, 1.0, math.inf)), "inf"),
    ],
)
def test_non_finite_inputs_are_rejected(build, bad):
    with pytest.raises(ValueError, match=f"must be finite, got -?{bad}"):
        build()


@pytest.mark.parametrize(
    "huge,scale",
    [
        (build_product(ProductSpec((Factor("sphere", 3, 1e308), Factor("flat", 1, 0.0)))), "1.000000e+308"),
        (build_constant_curvature(4, 4e307), "4.000000e+307"),  # values finite at 1.6e308, their mean is not
    ],
)
def test_cic_probe_names_an_overflow(huge, scale):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=rf"overflows .* max \|R_ijkl\| = {re.escape(scale)}"):
            cic_probe(huge)


def test_cic_probe_large_finite_tensor_stays_constant():
    report = cic_probe(build_product(ProductSpec((Factor("sphere", 3, 1e200), Factor("flat", 1, 0.0)))))
    assert report.is_constant
    for value in (report.min, report.max, report.mean):
        assert value == pytest.approx(2e200, rel=1e-12)


def test_cic_probe_rejects_tiny_count():
    with pytest.raises(ValueError):
        cic_probe(sphere_line(), count=1)


# ---------------------------------------------------------------------------
# probing a stack


STACK_KINDS = {
    "gauss": lambda n, rng: build_from_shape(rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0, n)),
    "constant": lambda n, rng: build_constant_curvature(n, rng.uniform(-2.0, 2.0)),
    "zero": lambda n, rng: build_constant_curvature(n, 0.0),
    "dense": lambda n, rng: CurvatureTensor(n, STACK_KINDS["gauss"](n, rng).comp),
}


@st.composite
def probe_stacks(draw):
    """(stack, count, seed): up to two chunks and one tensor, of every kind, at scales 1e-200 to 1e200."""
    n = draw(st.sampled_from([4, 5, 8]))
    count = draw(st.sampled_from([200, 500, 1000]))
    size = max(1, cv.STACK_GEMM_DOUBLES // (3 * count * n))
    length = draw(st.sampled_from([1, size - 1, size, size + 1, 2 * size + 1]).filter(bool))
    rng = np.random.default_rng(draw(st.integers(0, 2**31)))
    stack = []
    for _ in range(length):
        t = STACK_KINDS[draw(st.sampled_from(sorted(STACK_KINDS)))](n, rng)
        scale = draw(st.sampled_from([1.0, 1e-200, 1e200]) | st.floats(-5.0, 5.0).map(lambda e: 10.0**e))
        stack.append(t if scale == 1.0 else CurvatureTensor(n, scale * t.comp))
    return stack, count, draw(st.integers(0, 1000))


@settings(max_examples=25, deadline=None)
@given(case=probe_stacks())
def test_a_stack_probes_as_its_members_do(case):
    """The chunked product rounds each member's values exactly as probing it alone."""
    stack, count, seed = case
    assert cv.cic_probes(stack, count, seed) == [cic_probe(t, count, seed) for t in stack]


@pytest.mark.parametrize(
    "stack,message",
    [
        ([], "probe needs at least one tensor"),
        ([sphere_line(), sphere_line(sphere_dim=5)], r"one dimension, got dimensions \[4, 6\]"),
        (
            [sphere_line(), sphere_line(), build_constant_curvature(4, 1e-310)],
            r"^tensor 2 of 3: curvature is subnormal: max \|R_ijkl\| = 1\.000000e-310 ",
        ),
        (
            [sphere_line(), build_constant_curvature(4, 4e307)],
            r"^tensor 1 of 2: isotropic curvature overflows the float range: max \|R_ijkl\| = 4\.000000e\+307 ",
        ),
    ],
)
def test_cic_probes_rejects_a_bad_stack(stack, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=message):
            cv.cic_probes(stack, count=50, seed=1)


@pytest.mark.parametrize(
    "tensor,message",
    [
        (
            build_constant_curvature(4, 1e-310),
            "curvature is subnormal: max |R_ijkl| = 1.000000e-310 has too few digits to judge",
        ),
        (
            build_constant_curvature(4, 4e307),
            "isotropic curvature overflows the float range: max |R_ijkl| = 4.000000e+307 is too large",
        ),
    ],
)
def test_cic_probe_errors_name_no_stack_member(tensor, message):
    with pytest.raises(ValueError) as info:
        cic_probe(tensor, count=50, seed=1)
    assert str(info.value) == message


def frame_blocks(frames):
    """left = (A, P, Q) and right = (B, -P, -Q), each of shape (n, 3, m), of an (m, 4, n) batch."""
    e1, e2, e3, e4 = np.transpose(frames, (1, 2, 0))
    a, p, q, b = e1 * e1 + e2 * e2, e1 * e3 - e2 * e4, e1 * e4 + e2 * e3, e3 * e3 + e4 * e4
    return np.stack((np.stack((a, p, q), axis=1), np.stack((b, -p, -q), axis=1)))


def slab_accumulation(stack, frames):
    """The documented order, one tensor and one slab at a time: product
    K @ left, then acc += prod[i, k] * right[i, k] for i = 0..n-1,
    k = 0..2, i outer."""
    m, _, n = frames.shape
    left, right = frame_blocks(frames)
    rows = []
    for t in stack:
        prod = (t.sectional_matrix @ left.reshape(n, 3 * m)).reshape(n, 3, m)
        acc = np.zeros(m)
        for i in range(n):
            for k in range(3):
                acc = acc + prod[i, k] * right[i, k]
        rows.append(acc)
    return np.array(rows).T


@pytest.mark.parametrize("n,m", [(4, 7), (5, 2), (8, 33), (16, 20)])
def test_isotropic_batch_adds_the_slabs_in_the_documented_order(n, m):
    """Bit for bit the (i, k) slab order of the _isotropic_batch docstring,
    for a stack of three built tensors."""
    rng = np.random.default_rng(n * m)
    stack = [build_from_shape(c, rng.uniform(-2.0, 2.0, n)) for c in (-1.5, 0.25, 2.0)]
    frames = cv._frame_array(n, m, 3)
    assert np.array_equal(_isotropic_batch(stack, frames), slab_accumulation(stack, frames))


@pytest.mark.parametrize("n", [4, 5, 8, 16])
def test_a_stack_matches_the_dense_oracle(n):
    """A stack of built tensors against the pair-matrix contraction of each
    member's components, within 1e-12 * max |K|; the dense members of a
    mixed stack are that contraction itself."""
    rng = np.random.default_rng(n)
    stack = [build_from_shape(c, rng.uniform(-3.0, 3.0, n)) for c in rng.uniform(-2.0, 2.0, 6)]
    frames = cv._frame_array(n, 200, 11)
    dense = [CurvatureTensor(n, t.comp) for t in stack]
    got, oracle = _isotropic_batch(stack, frames), _isotropic_batch(dense, frames)
    scale = max(float(np.max(np.abs(t.sectional_matrix))) for t in stack)
    assert np.max(np.abs(got - oracle)) <= 1e-12 * scale
    mixed = _isotropic_batch([stack[0], dense[1], stack[2]], frames)
    assert np.array_equal(mixed, np.column_stack([got[:, 0], oracle[:, 1], got[:, 2]]))


@pytest.mark.parametrize("n,count", [(16, 3), (16, 9), (16, 20)])
def test_a_full_chunk_at_large_n_probes_as_its_members_do(n, count):
    """Each member's product is its own (n, n) @ (n, 3m) gemm: one gemm of
    the whole (T n, n) stack, past 10^6 multiply-adds, took a different
    BLAS kernel than a member alone and rounded differently."""
    rng = np.random.default_rng(count)
    size = max(1, cv.STACK_GEMM_DOUBLES // (3 * count * n))
    stack = [build_from_shape(c, rng.uniform(-2.0, 2.0, n)) for c in rng.uniform(-2.0, 2.0, size + 1)]
    assert cv.cic_probes(stack, count, 4) == [cic_probe(t, count, 4) for t in stack]


def test_an_overflow_in_a_chunk_names_its_first_member():
    """Two members of one chunk overflow; the error names the lower index."""
    stack = [sphere_line(), build_constant_curvature(4, 4e307), sphere_line(), build_constant_curvature(4, 1e308)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^tensor 1 of 4: isotropic curvature overflows .* 4\.000000e\+307 "):
            cv.cic_probes(stack, count=50, seed=1)
        with pytest.raises(ValueError, match=r"^tensor 3 of 5: isotropic curvature overflows .* 1\.000000e\+308 "):
            cv.cic_probes([sphere_line()] * 3 + stack[3:] + stack[1:2], count=50, seed=1)


def test_the_kept_batch_keeps_its_blocks():
    """_frame_array's last batch keeps its read-only blocks, built from the
    array its sweeps ran on; any other batch gets the same values from a
    component-major copy."""
    frames = cv._frame_array(6, 40, 8)
    blocks = cv._frame_blocks(frames)
    assert blocks is cv._frame_blocks(frames) and not blocks.flags.writeable
    copied = cv._frame_blocks(frames.copy())
    assert copied is not blocks and np.array_equal(copied, blocks)
    assert np.array_equal(blocks, frame_blocks(frames))
    fresh = cv._frame_array.__wrapped__(6, 40, 8)  # a batch drawn again is not the kept one
    assert fresh is not frames and np.array_equal(cv._frame_blocks(frames), blocks)


def test_the_gauss_suite_stack_probes_in_little_memory():
    """200 Gauss tensors x 500 frames, frames sampled inside: one chunk's
    product is at most STACK_GEMM_DOUBLES doubles (512 KB), not the 200
    tensors' 4.8 MB."""
    rng = np.random.default_rng(42)
    stack = [build_from_shape(c, (lam, lam, lam, mu)) for c, lam, mu in rng.uniform(-2.0, 2.0, (200, 3))]
    cv._frame_array.cache_clear()
    reports, peak = traced_peak(lambda: cv.cic_probes(stack, count=500, seed=42))
    assert len(reports) == 200 and all(r.samples == 500 for r in reports)
    assert peak < 1e6


@pytest.mark.parametrize("seed", [0, 3, 999])
def test_the_gauss_suite_reads_as_one_spectrum_at_a_time(seed):
    config = checks.RunConfig(seed=seed)
    assert suite_outcome(checks.check_gauss_frame_identity, config) == (True, gauss_suite_per_spectrum(config))


def _shift_expected(monkeypatch, members, by):
    """Add `by` to cic_from_spectrum at the draws of the given suite members
    (seed 42), for arrays and for one spectrum alone."""
    draws = np.random.default_rng(42).uniform(-2.0, 2.0, size=(200, 3))
    marked = draws[members, 0]
    closed = spectra.cic_from_spectrum

    def shifted(c, lam, mu):
        value = np.where(np.isin(c, marked), closed(c, lam, mu) + by, closed(c, lam, mu))
        return value if np.ndim(value) else float(value)

    monkeypatch.setattr(spectra, "cic_from_spectrum", shifted)
    return draws


@pytest.mark.parametrize("members", [[0], [37, 150], [150, 199]])
def test_the_gauss_suite_names_its_first_bad_member(monkeypatch, members):
    """A member whose expected value is off by 1e-6 fails the suite with the
    message of the per-spectrum loop, naming the first such member drawn."""
    draws = _shift_expected(monkeypatch, members, 1e-6)
    config = checks.RunConfig(seed=42)
    passed, detail = suite_outcome(checks.check_gauss_frame_identity, config)
    assert not passed and (passed, detail) == suite_outcome(gauss_suite_per_spectrum, config)
    c, lam, mu = draws[members[0]]
    assert detail.startswith(f"(c={c}, lam={lam}, mu={mu}): error 1.000e-06 > 1e-10")


def test_a_nan_error_fails_the_gauss_suite(monkeypatch):
    """A NaN error is not <= 1e-10: it fails, as in the per-spectrum loop."""
    draws = _shift_expected(monkeypatch, [64], math.nan)
    config = checks.RunConfig(seed=42)
    passed, detail = suite_outcome(checks.check_gauss_frame_identity, config)
    assert not passed and (passed, detail) == suite_outcome(gauss_suite_per_spectrum, config)
    c, lam, mu = draws[64]
    assert detail == f"(c={c}, lam={lam}, mu={mu}): error nan > 1e-10"


@pytest.mark.parametrize("c", [0.5, 1.0, 2.0])
def test_frame_invariance_of_products(c):
    """Products with matching opposite curvatures probe constant at 0."""
    report = cic_probe(split_product(c), count=1000, seed=42)
    assert abs(report.mean) <= 1e-10
    assert report.max - report.min <= 1e-10


@settings(max_examples=20, deadline=None)
@given(
    k=st.floats(min_value=-3.0, max_value=3.0),
    n=st.integers(min_value=4, max_value=7),
    seed=st.integers(min_value=0, max_value=2**31),
)
def test_constant_curvature_probes_at_four_k(k, n, seed):
    if 0.0 < abs(k) < np.finfo(float).tiny:  # too few digits to judge: rejected, not judged
        with pytest.raises(ValueError, match="subnormal"):
            cic_probe(build_constant_curvature(n, k), count=50, seed=seed)
        return
    report = cic_probe(build_constant_curvature(n, k), count=50, seed=seed)
    assert report.max - report.min <= 1e-10
    assert report.mean == pytest.approx(4.0 * k, abs=1e-10)


# ---------------------------------------------------------------------------
# symmetry checks and serialization


@pytest.mark.parametrize(
    "tensor",
    [
        build_constant_curvature(4, 2.0),
        build_constant_curvature(6, -0.5),
        sphere_line(),
        split_product(2.0),
        build_from_shape(0.75, (-0.5, -0.5, -0.5, 1.5)),
        build_from_shape(-1.0, (0.3, 0.3, 0.3, 0.3, -2.0)),
    ],
)
def test_constructions_satisfy_symmetries(tensor):
    assert check_symmetries(tensor).max_residual <= 1e-14


def test_check_symmetries_detects_antisymmetry_break():
    bad = np.array(build_constant_curvature(4, 1.0).comp)
    bad[0, 1, 0, 1] += 1.0  # no mirror updates
    rep = check_symmetries(CurvatureTensor(4, bad))
    assert rep.antisymmetry >= 1.0
    assert rep.max_residual >= 1.0


def test_check_symmetries_detects_pair_break():
    bad = np.array(build_constant_curvature(4, 1.0).comp)
    bad[0, 1, 2, 3] += 1.0
    rep = check_symmetries(CurvatureTensor(4, bad))
    assert rep.pair_symmetry >= 1.0


def test_check_symmetries_detects_bianchi_break():
    # symmetric under the pair operations but violating the cyclic identity
    comp = np.zeros((4, 4, 4, 4))
    for a, b, c, d in ((0, 1, 2, 3), (2, 3, 0, 1)):
        comp[a, b, c, d] = comp[b, a, d, c] = 1.0
        comp[b, a, c, d] = comp[a, b, d, c] = -1.0
    rep = check_symmetries(CurvatureTensor(4, comp))
    assert rep.antisymmetry == 0.0
    assert rep.pair_symmetry == 0.0
    assert rep.bianchi >= 1.0


def test_gauss_form_satisfies_bianchi():
    rep = check_symmetries(build_from_shape(0.4, (-1.0, 0.2, 0.2, 0.2)))
    assert rep.bianchi == 0.0


def test_tensor_comp_is_immutable():
    t = build_constant_curvature(4, 1.0)
    with pytest.raises(ValueError):
        t.comp[0, 0, 0, 0] = 5.0


def test_orthoframe_rejects_skew_vectors():
    bad = np.eye(4)
    bad[1, 0] = 0.5
    with pytest.raises(FrameError):
        OrthoFrame4(bad)
    with pytest.raises(FrameError):
        OrthoFrame4(np.ones((4, 4)))
