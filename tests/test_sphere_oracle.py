import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hodgelab import sphere_oracle as oracle
from hodgelab.sphere_oracle import (
    HarmonicPoly,
    OracleError,
    RotationForm,
    SphereContext,
    covariant_derivatives,
    laplace_eigenvalue,
    obata_residual,
    tangent_frame,
    tanno_residual,
    theorem_bounds,
    weitzenboeck_residual,
)
from hodgelab import verify
from hodgelab.verify import oracle_fields

EXACT = 1e-12
DIMENSIONS = (2, 3, 5)
RADII = (1.0, 2.0)


def _linear(sphere, seed=0):
    rng = np.random.default_rng(seed)
    return HarmonicPoly(1, sphere, rng.standard_normal(sphere.ambient_dim))


def _quadratic(sphere, seed=0):
    rng = np.random.default_rng(seed)
    dim = sphere.ambient_dim
    Q = rng.standard_normal((dim, dim))
    Q = 0.5 * (Q + Q.T)
    Q -= np.trace(Q) / dim * np.eye(dim)
    return HarmonicPoly(2, sphere, Q)


def _rotation(sphere, seed=0):
    rng = np.random.default_rng(seed)
    dim = sphere.ambient_dim
    A = rng.standard_normal((dim, dim))
    return RotationForm(0.5 * (A - A.T), sphere)


def test_laplace_eigenvalue_closed_form():
    assert laplace_eigenvalue(1, 2, 1.0) == 2.0  # n alpha
    assert laplace_eigenvalue(2, 2, 1.0) == 6.0  # 2 (n+1) alpha
    assert laplace_eigenvalue(1, 5, 1.0) == 5.0
    assert laplace_eigenvalue(2, 3, 2.0) == pytest.approx(2.0)
    assert laplace_eigenvalue(0, 4, 3.0) == 0.0
    with pytest.raises(OracleError):
        laplace_eigenvalue(1, 1, 1.0)


def test_sphere_context():
    sph = SphereContext(3, 2.0)
    assert sph.alpha == 0.25
    assert sph.alpha * sph.r**2 == 1.0
    assert sph.ricci_eigenvalue() == pytest.approx(0.5)
    with pytest.raises(OracleError):
        SphereContext(1, 1.0)
    with pytest.raises(OracleError):
        SphereContext(2, 0.0)


def test_harmonic_poly_validation():
    sph = SphereContext(2)
    with pytest.raises(OracleError):
        HarmonicPoly(1, sph, np.zeros(3))
    with pytest.raises(OracleError):
        HarmonicPoly(2, sph, np.eye(3))  # trace 3
    for degree in (0, 3):
        with pytest.raises(OracleError, match="degree must be 1 or 2"):
            HarmonicPoly(degree, sph, np.zeros(3))
    with pytest.raises(OracleError):
        HarmonicPoly(2, sph, np.array([[0, 1, 0], [0, 0, 0], [0, 0, 0.0]]))


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("r", RADII)
@pytest.mark.parametrize("degree", [1, 2])
def test_covariant_tensors_tangential_symmetric_traced(n, r, degree):
    sph = SphereContext(n, r)
    f = _linear(sph, n) if degree == 1 else _quadratic(sph, n)
    for x in sph.sample_points(10, seed=n + degree):
        df, hess, third = covariant_derivatives(f, x)
        nhat = x / r
        assert abs(df @ nhat) < 1e-10
        assert np.abs(hess @ nhat).max() < 1e-10
        for axis in range(3):
            contracted = np.tensordot(third, nhat, axes=([axis], [0]))
            assert np.abs(contracted).max() < 1e-10
        assert np.abs(hess - hess.T).max() < 1e-12
        assert np.abs(third - np.swapaxes(third, 1, 2)).max() < 1e-12
        # tr_g hess = -Delta f = -l (l + n - 1) alpha f
        assert np.trace(hess) == pytest.approx(-f.eigenvalue * f.value(x),
                                               abs=1e-10 * max(1.0, abs(f.value(x))))


def test_covariant_derivatives_match_finite_differences():
    # independent check: true geodesics and explicit parallel transport on
    # the sphere allow direct differencing of f and of hess along a curve
    sph = SphereContext(3, 2.0)
    f = _quadratic(sph, seed=5)
    rng = np.random.default_rng(8)
    x = sph.sample_points(1, seed=11)[0]
    frame = tangent_frame(sph, x)
    v = frame @ rng.standard_normal(3)
    v /= np.linalg.norm(v)
    Y = frame @ rng.standard_normal(3)
    Z = frame @ rng.standard_normal(3)
    r = sph.r
    xhat = x / r

    def geo(t):
        return r * (np.cos(t / r) * xhat + np.sin(t / r) * v)

    def transport(w, t):
        a, b = w @ xhat, w @ v
        perp = w - a * xhat - b * v
        c, s = np.cos(t / r), np.sin(t / r)
        return perp + (a * c - b * s) * xhat + (a * s + b * c) * v

    h = 1e-3
    vals = [f.value(geo(t)) for t in (-h, 0.0, h)]
    fd2 = (vals[0] - 2 * vals[1] + vals[2]) / h**2
    _, hess, third = covariant_derivatives(f, x)
    assert fd2 == pytest.approx(v @ hess @ v, abs=1e-5)

    def hess_pair(t):
        _, H, _ = covariant_derivatives(f, geo(t))
        return transport(Y, t) @ H @ transport(Z, t)

    fd3 = (hess_pair(h) - hess_pair(-h)) / (2 * h)
    exact = np.einsum("a,abc,b,c->", v, third, Y, Z)
    assert fd3 == pytest.approx(exact, abs=1e-5)


def _rotation_second_derivative(form, x):
    """(w, nabla^2 w) of a rotation form as ambient tensors at x.

    nabla w is the restriction of the constant form (X, Y) -> Y^T A X, so by
    the Gauss formula (D_Z X = nabla_Z X - (g(Z,X)/r) n) its covariant
    derivative is -(1/r) [g(Z,X) (A n)(Y) + g(Z,Y) (A^T n)(X)].
    """
    r = form.sphere.r
    nhat = x / r
    P = np.eye(nhat.shape[0]) - np.outer(nhat, nhat)
    A = form.generator
    second = -(P[:, :, None] * (P @ A @ nhat) + P[:, None, :] * (P @ A.T @ nhat)[:, None]) / r
    return form.value(x), second


def _reference_residuals(n, r, x, forms, k_values):
    """{row: residual} at x, each from an explicitly contracted tensor.

    The tensors come from ``covariant_derivatives`` (the rotation's from the
    Gauss formula above) contracted with ``tangent_frame``; none of the
    residuals' closed forms is used.
    """
    sph = forms["rot"].sphere
    frame = tangent_frame(sph, x)
    g = frame.T @ frame
    rows = {}
    derivatives = {}
    for name in ("f1", "f2"):
        f = forms[name]
        df, hess, third = covariant_derivatives(f, x)
        dfr = frame.T @ df
        t = np.einsum("abc,ai,bj,ck->ijk", third, frame, frame, frame)
        norm_df = np.linalg.norm(dfr)
        for label, k in k_values.items():
            system = t + k * (2.0 * np.einsum("z,xy->zxy", dfr, g)
                              + np.einsum("zx,y->zxy", g, dfr)
                              + np.einsum("zy,x->zxy", g, dfr))
            rows[("tanno", label, name)] = np.abs(system).max() / norm_df
        derivatives[name] = dfr, t
    f1 = forms["f1"]
    df, hess, _ = covariant_derivatives(f1, x)
    obata = frame.T @ hess @ frame + (f1.eigenvalue / n) * f1.value(x) * g
    rows[("obata", "f1")] = (np.abs(obata).max()
                             / max(abs(f1.value(x)), np.linalg.norm(frame.T @ df)))
    w, second = _rotation_second_derivative(forms["rot"], x)
    derivatives["rot"] = (frame.T @ w,
                          np.einsum("abc,ai,bj,ck->ijk", second, frame, frame, frame))
    ric = sph.ricci_eigenvalue()
    for name, (wr, t) in derivatives.items():
        # Bochner: Delta w = -tr_12 nabla^2 w + Ric* w; d d* w = -tr_23 nabla^2 w
        delta = -np.einsum("iiz->z", t) + ric * wr
        ddstar = -np.einsum("zii->z", t)
        for which, identity in oracle.WEITZENBOECK.items():
            res = delta - (2.0 * ric * wr + identity.coefficient(n) * ddstar)
            rows[(which, name)] = np.linalg.norm(res) / (sph.alpha * np.linalg.norm(wr))
    return rows


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("r", RADII)
def test_residuals_match_explicit_contraction(n, r):
    # every row kind of the oracle battery, on its fields and all its sample
    # points, against the max-norm of the tensor, matrix or vector built by
    # explicit contraction; rows that vanish mathematically are held to an
    # absolute, the others to a relative tolerance
    sph, f1, f2, rot = oracle_fields(n, r, seed=verify.ORACLE_SEED)
    forms = {"f1": f1, "f2": f2, "rot": rot}
    k_phi = f2.eigenvalue / (2.0 * (n + 1))
    # the battery's k, and alpha / 4: on f1 only that one puts the max-norm
    # on the entries p_Z of the module docstring
    k_values = {"alpha": sph.alpha, "2alpha": 2.0 * sph.alpha, "+phi": k_phi, "-phi": -k_phi,
                "alpha/4": sph.alpha / 4.0}
    families = {"f1": "conformal_gradient", "f2": "projective_gradient",
                "rot": "killing_rotation"}
    zero = {("obata", "f1"), ("tanno", "alpha", "f2"), ("tanno", "+phi", "f2")}
    zero |= {(which, name) for which, identity in oracle.WEITZENBOECK.items()
             for name, family in families.items() if family in identity.families}
    for x in sph.sample_points(seed=verify.ORACLE_SEED):
        for row, want in _reference_residuals(n, r, x, forms, k_values).items():
            if row[0] == "obata":
                got = obata_residual(f1, x)
            elif row[0] == "tanno":
                got = tanno_residual(forms[row[2]], x, k=k_values[row[1]])
            else:
                got = weitzenboeck_residual(forms[row[1]], x, row[0])
            if row in zero:
                assert abs(got - want) <= 1e-13, (row, got, want)
            else:
                assert want > 0.01, (row, want)
                assert abs(got - want) <= 1e-13 * want, (row, got, want)


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("r", RADII)
def test_obata_residual_first_eigenfunctions(n, r):
    sph = SphereContext(n, r)
    f = _linear(sph, n)
    assert max(obata_residual(f, x) for x in sph.sample_points(25)) < EXACT


def test_obata_rejects_second_eigenfunctions():
    sph = SphereContext(2)
    with pytest.raises(OracleError, match="first-eigenvalue"):
        obata_residual(_quadratic(sph), sph.sample_points(1)[0])


def test_off_sphere_point_rejected():
    sph = SphereContext(2)
    with pytest.raises(OracleError, match="not on the sphere"):
        covariant_derivatives(_linear(sph), np.array([1.1, 0.0, 0.0]))
    # a NaN coordinate is off the sphere too, for every residual
    x = np.array([np.nan, 0.0, 1.0])
    for residual in (lambda: obata_residual(_linear(sph), x),
                     lambda: tanno_residual(_quadratic(sph), x),
                     lambda: weitzenboeck_residual(_rotation(sph), x, "yano_2_2")):
        with pytest.raises(OracleError, match="not on the sphere"):
            residual()


@pytest.mark.parametrize("n", DIMENSIONS)
@pytest.mark.parametrize("r", RADII)
def test_tanno_residual_second_eigenfunctions(n, r):
    sph = SphereContext(n, r)
    f = _quadratic(sph, n)
    assert max(tanno_residual(f, x) for x in sph.sample_points(25)) < EXACT


def test_tanno_residual_detects_wrong_constant():
    sph = SphereContext(2)
    f = _quadratic(sph)
    value = max(tanno_residual(f, x, k=2.0) for x in sph.sample_points(25))
    assert value > 0.5


def test_tanno_residual_first_eigenfunctions_nonzero():
    # first eigenfunctions satisfy the differentiated Obata identity, whose
    # single term differs from the full symmetrized system: the residual
    # tensor is alpha * (df(Z) g(X,Y) + df(X) g(Z,Y) + df(Y) g(X,Z)), whose
    # largest frame entry lies between 3 alpha / sqrt(n) and 3 alpha
    for n in DIMENSIONS:
        for r in RADII:
            sph = SphereContext(n, r)
            f = _linear(sph, n)
            value = max(tanno_residual(f, x) for x in sph.sample_points(25))
            assert 3.0 * sph.alpha / np.sqrt(n) <= value <= 3.0 * sph.alpha * (1 + 1e-12)
            assert value > 0.1


def test_generalized_tanno_sign_discrimination():
    # phi = (2(n+1))^-1 d(Delta f) = k df with k = mu / (2(n+1)); the
    # flipped sign normalization of phi is -k
    sph = SphereContext(2)
    f = _quadratic(sph)
    pts = sph.sample_points(25)
    k = f.eigenvalue / (2.0 * (sph.n + 1))
    printed = max(tanno_residual(f, x, k=k) for x in pts)
    flipped = max(tanno_residual(f, x, k=-k) for x in pts)
    assert printed < EXACT
    assert flipped > 0.5


@pytest.mark.parametrize("n", DIMENSIONS)
def test_yano_identity_residuals(n):
    sph = SphereContext(n, 1.0)
    pts = sph.sample_points(25)
    assert max(weitzenboeck_residual(_rotation(sph, n), x, "yano_2_2") for x in pts) < EXACT
    assert max(weitzenboeck_residual(_quadratic(sph, n), x, "yano_2_2") for x in pts) < EXACT
    value = max(weitzenboeck_residual(_linear(sph, n), x, "yano_2_2") for x in pts)
    expected = abs(n - 2 * (n - 1) - 2 * n / (n + 1))
    assert value == pytest.approx(expected, rel=1e-12)
    assert value > 0.1


@pytest.mark.parametrize("n", DIMENSIONS)
def test_lichnerowicz_identity_residuals(n):
    sph = SphereContext(n, 1.0)
    pts = sph.sample_points(25)
    which = "lichnerowicz_3_2"
    assert max(weitzenboeck_residual(_rotation(sph, n), x, which) for x in pts) < EXACT
    assert max(weitzenboeck_residual(_linear(sph, n), x, which) for x in pts) < EXACT
    value = max(weitzenboeck_residual(_quadratic(sph, n), x, which) for x in pts)
    expected = abs(2 * (n + 1) - (2 * (n - 1) - (1 - 2 / n) * 2 * (n + 1)))
    assert value == pytest.approx(expected, rel=1e-12)
    assert value > 0.1


@given(seed=st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_rotational_invariance(seed):
    # rotating the coefficients and the sample point together leaves every
    # residual unchanged
    rng = np.random.default_rng(seed)
    sph = SphereContext(2)
    f = _quadratic(sph, seed)
    x = sph.sample_points(1, seed=seed + 1)[0]
    M = rng.standard_normal((3, 3))
    O, _ = np.linalg.qr(M)
    f_rot = HarmonicPoly(2, sph, O @ f.coefficients @ O.T)
    x_rot = O @ x
    assert tanno_residual(f_rot, x_rot) == pytest.approx(
        tanno_residual(f, x), abs=1e-12)
    assert weitzenboeck_residual(f_rot, x_rot, "yano_2_2") == pytest.approx(
        weitzenboeck_residual(f, x, "yano_2_2"), abs=1e-12)


def test_theorem_bounds_conformal():
    b = theorem_bounds(2, 1.0, 1.0, "conformal")
    assert b.lower == 2.0 and b.upper_printed == 2.0
    assert b.upper_rederived is None
    assert b.consistent


def test_theorem_bounds_projective_printed_inconsistent():
    b = theorem_bounds(2, 1.0, 1.0, "projective")
    assert b.lower == 2.0
    assert b.upper_printed == pytest.approx(2.0 / 3.0)
    assert b.upper_rederived == pytest.approx(6.0)
    assert not b.consistent  # empty printed interval


def test_theorem_bounds_projective_n3():
    b = theorem_bounds(3, 2.0, 2.0, "projective")
    assert b.lower == 4.0
    assert b.upper_printed == pytest.approx(2.0)
    assert b.upper_rederived == pytest.approx(8.0)


def test_theorem_bounds_validation():
    with pytest.raises(OracleError):
        theorem_bounds(2, 2.0, 1.0, "conformal")
    with pytest.raises(OracleError):
        theorem_bounds(2, 1.0, 2.0, "parabolic")


def test_rotation_form_validation():
    sph = SphereContext(2)
    with pytest.raises(OracleError):
        RotationForm(np.eye(3), sph)  # not skew
    with pytest.raises(OracleError):
        RotationForm(np.zeros((3, 3)), sph)


def test_identity_residual_rejects_unsupported():
    sph = SphereContext(2)
    x = sph.sample_points(1)[0]
    with pytest.raises(OracleError, match="unsupported"):
        weitzenboeck_residual(object(), x, "yano_2_2")
    with pytest.raises(OracleError, match="unknown identity 'bochner'"):
        weitzenboeck_residual(_rotation(sph), x, "bochner")
