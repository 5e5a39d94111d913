import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
    isotropic_component,
    sample_frames,
    sectional,
    tensor_from_json,
    tensor_to_json,
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


def test_isotropic_split_frame_values():
    eye4 = np.eye(4)
    assert isotropic_component(sphere_line(), eye4) == pytest.approx(2.0, abs=1e-14)
    assert isotropic_component(split_product(1.0), eye4) == pytest.approx(0.0, abs=1e-14)
    t6 = sphere_line(sphere_dim=5)
    eye6 = np.eye(6)
    inside = eye6[:4]  # frame within the sphere block
    with_flat = np.vstack([eye6[:3], eye6[5]])  # frame containing the flat direction
    assert isotropic_component(t6, inside) == pytest.approx(4.0, abs=1e-14)
    assert isotropic_component(t6, with_flat) == pytest.approx(2.0, abs=1e-14)


def test_isotropic_rejects_bad_frames():
    t = sphere_line()
    with pytest.raises(FrameError):
        isotropic_component(t, np.ones((4, 4)))
    with pytest.raises(FrameError):
        isotropic_component(t, np.eye(5)[:4])  # dimension mismatch


def kulkarni_nomizu_square(n, seed):
    """Kulkarni-Nomizu square h (.) h = 2 (h_il h_jk - h_ik h_jl) of a random
    symmetric h; mixed components such as R_0123 are nonzero."""
    h = np.random.default_rng(seed).standard_normal((n, n))
    h = h + h.T
    return CurvatureTensor(n, 2.0 * (np.einsum("il,jk->ijkl", h, h) - np.einsum("ik,jl->ijkl", h, h)))


def json_tensor(n):
    """A tensor_from_json tensor with an R_0123 entry; R_0312 = R_0213 - R_0123 keeps Bianchi."""
    entries = [
        [0, 1, 0, 1, -1.3],
        [0, 1, 2, 3, 0.7],
        [0, 2, 1, 3, -0.4],
        [0, 3, 1, 2, -1.1],
        [1, 2, 1, 2, 0.9],
        [0, n - 1, n - 2, n - 1, 0.25],
    ]
    return tensor_from_json(json.dumps({"dim": n, "components": entries}))


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
    assert np.max(np.abs(_isotropic_batch(t, frames) - expected)) <= tol
    for f, value in zip(frames[:5], expected):
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
    t = cv._from_sectional(k)
    assert np.all(np.diag(t.sectional_matrix) == 0.0) and not t.sectional_matrix.flags.writeable
    dense = CurvatureTensor(n, t.comp)
    assert dense.sectional_matrix is None
    frames = cv._frame_array(n, 64, seed % 1000)
    got = _isotropic_batch(t, frames)
    assert np.max(np.abs(got - _isotropic_batch(dense, frames))) <= 1e-12 * float(np.max(np.abs(k)))
    off_diagonal = k * (1.0 - np.eye(n))
    assert np.array_equal(got, _isotropic_batch(cv._from_sectional(off_diagonal), frames))


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
        cv._from_sectional(k)


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
    """The kept K's dense form is comp bit for bit, and the JSON round trip
    (which keeps no K, so it probes densely) gives the same verdict; where
    the functional varies, the same extreme frames and values within 1e-12
    relative."""
    t = BUILT[name]()
    k = t.sectional_matrix
    assert k is not None and np.all(np.diag(k) == 0.0)
    assert sectional_dense_form(k).tobytes() == t.comp.tobytes()
    back = tensor_from_json(tensor_to_json(t))
    assert back.sectional_matrix is None
    fast, dense = cic_probe(t, count=300, seed=13), cic_probe(back, count=300, seed=13)
    assert fast.is_constant == dense.is_constant
    if not fast.is_constant:
        assert (fast.argmin, fast.argmax) == (dense.argmin, dense.argmax)
        for field in ("min", "max", "mean"):
            assert getattr(fast, field) == pytest.approx(getattr(dense, field), rel=1e-12)


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
    with pytest.raises(TypeError):  # a float seed is its own key, rejected as before
        cv._frame_array(4, 5, 1.0)


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
    assert isotropic_component(tensor, frames[report.argmax]) == pytest.approx(report.max, rel=1e-13)
    assert isotropic_component(tensor, frames[report.argmin]) == pytest.approx(report.min, rel=1e-13)
    values = [isotropic_component(tensor, f) for f in frames]
    assert max(values) == pytest.approx(report.max, rel=1e-13)
    assert min(values) == pytest.approx(report.min, rel=1e-13)


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


def test_json_round_trip():
    for t in [build_from_shape(0.6, (-1.3, 0.8, 0.8, 0.8, 2.0))] + [build() for build in BUILT.values()]:
        back = tensor_from_json(tensor_to_json(t))
        assert back.dim == t.dim
        assert np.array_equal(back.comp, t.comp)


@pytest.mark.parametrize(
    "entry,message",
    [
        ([0, 1, 0, 5, 1.0], "not canonical"),
        ([0, 1, 0, -1, 1.0], "not canonical"),
        ([0, 1, 0, 1.5, 1.0], "not canonical"),
        ([1, 0, 1, 0, 1.0], "not canonical"),
        ([0, 1, 3, 2, 1.0], "not canonical"),
        ([2, 3, 0, 1, 1.0], "not canonical"),
        ([0, 1, 2, 3, 1.0], "Bianchi identity by 1.000e"),
    ],
)
def test_json_rejects_what_it_cannot_represent(entry, message):
    with pytest.raises(ValueError, match=message):
        tensor_from_json(json.dumps({"dim": 4, "components": [entry]}))


def test_json_lists_canonical_entries_only():
    data = json.loads(tensor_to_json(sphere_line()))
    assert data["dim"] == 4
    for i, j, k, l, v in data["components"]:
        assert i < j and k < l and (i, j) <= (k, l)
        assert v != 0.0


def test_tensor_comp_is_immutable():
    t = build_constant_curvature(4, 1.0)
    with pytest.raises(ValueError):
        t.comp[0, 0, 0, 0] = 5.0


def test_orthoframe_rejects_skew_vectors():
    bad = np.eye(4)
    bad[1, 0] = 0.5
    with pytest.raises(FrameError):
        OrthoFrame4(bad)
