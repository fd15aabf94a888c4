import numpy as np
import pytest

from torusns.fespace import field_values
from torusns.trig import (BOX_VOLUME, TWO_PI, TrigPoly, TrigVector,
                          preset_field, random_trig, sine_shear, tg_like)

PTS = np.array([[0.3, 1.1, 2.0], [5.0, 0.2, 4.4], [0.0, 0.0, 0.0]])


def test_basic_values():
    f = TrigPoly.cosine((1, 0, 0)) + TrigPoly.sine((0, 2, 0), 0.5)
    expected = np.cos(PTS[:, 0]) + 0.5 * np.sin(2 * PTS[:, 1])
    assert np.allclose(f.value(PTS), expected, atol=1e-14)


def test_gradient_and_laplacian():
    f = TrigPoly.cosine((1, 2, 0))
    g = f.gradient().value(PTS)
    phase = PTS[:, 0] + 2 * PTS[:, 1]
    assert np.allclose(g[:, 0], -np.sin(phase), atol=1e-14)
    assert np.allclose(g[:, 1], -2 * np.sin(phase), atol=1e-14)
    assert np.allclose(g[:, 2], 0.0, atol=1e-14)
    assert np.allclose(f.laplacian().value(PTS), -5 * np.cos(phase),
                       atol=1e-13)


def test_product_is_exact():
    a = TrigPoly.constant(1.0) + TrigPoly.cosine((1, 0, 0), 0.5)
    b = TrigPoly.constant(1.0) + TrigPoly.cosine((0, 1, 0), 0.5)
    prod = a * b
    expected = ((1 + 0.5 * np.cos(PTS[:, 0]))
                * (1 + 0.5 * np.cos(PTS[:, 1])))
    assert np.allclose(prod.value(PTS), expected, atol=1e-14)


def test_parseval_norm():
    assert abs(TrigPoly.sine((0, 1, 0)).l2_norm_sq() - BOX_VOLUME / 2) < 1e-10
    assert abs(tg_like().l2_norm_sq() - BOX_VOLUME / 2) < 1e-10


def test_mean():
    f = TrigPoly.constant(3.0) + TrigPoly.cosine((2, 1, 0), 5.0)
    assert abs(f.mean() - 3.0) < 1e-15


def test_sup_norms():
    phi = TrigPoly.constant(2.0) + TrigPoly.cosine((1, 0, 0))
    assert abs(phi.sup_norm() - 3.0) < 1e-12
    # first and second derivatives peak at 1, so the max stays 3
    assert abs(phi.wkinf_norm(2) - 3.0) < 1e-12


def test_vector_calculus():
    u = tg_like()
    d0_u0 = u.components[0].gradient().value(PTS)[:, 0]
    assert np.allclose(d0_u0, np.cos(PTS[:, 0]) * np.cos(PTS[:, 1]),
                       atol=1e-14)
    assert max(abs(c) for c in u.divergence().modes.values() or [0]) < 1e-15
    curl = sine_shear().curl()
    assert np.allclose(curl.value(PTS)[:, 2], -np.cos(PTS[:, 1]), atol=1e-14)


def test_presets_are_solenoidal_and_mean_free():
    for name in ("sine-shear", "tg-like", "random-trig", "zero"):
        u = preset_field(name, seed=3)
        div = u.divergence()
        if div.modes:
            assert max(abs(c) for c in div.modes.values()) < 1e-13
        assert np.abs(u.mean()).max() < 1e-14


def test_unknown_preset_rejected():
    with pytest.raises(ValueError):
        preset_field("vortex-soup")


def test_random_trig_deterministic_and_scalable():
    a = random_trig(9, 2)
    b = random_trig(9, 2)
    assert a.components[0].modes == b.components[0].modes
    c = random_trig(9, 2, norm=5.0)
    assert abs(c.l2_norm() - 5.0) < 1e-10


def _per_mode(poly, pts):
    """Reference evaluation: one cos and one sin per mode and point."""
    out = np.zeros(pts.shape[:-1])
    for k, c in poly.modes.items():
        phase = pts @ np.asarray(k, dtype=float)
        out += c.real * np.cos(phase) - c.imag * np.sin(phase)
    return out


@pytest.mark.parametrize("n", [2, 3])
def test_quadrature_evaluator_matches_per_mode_sum(level, quad_points, n):
    spaces = level(n)
    pts = quad_points(spaces)
    u = random_trig(5, degree=3)
    s = (TrigPoly.constant(0.7) + TrigPoly.cosine((1, -2, 1), 1.3)
         + TrigPoly.sine((0, 3, 2), 0.4))
    cases = [
        (u, np.stack([_per_mode(c, pts) for c in u.components], axis=-1)),
        (s, _per_mode(s, pts)),
        (s.laplacian(), _per_mode(s.laplacian(), pts)),
        (s.gradient(),
         np.stack([_per_mode(s.diff(a), pts) for a in range(3)], axis=-1)),
    ]
    for f, ref in cases:
        got = field_values(spaces, f)
        assert got.shape == ref.shape
        assert np.abs(got - ref).max() <= 1e-13 * np.abs(ref).max()
    zero = field_values(spaces, preset_field("zero"))
    assert zero.shape == pts.shape and not zero.any()


def test_sup_norm_matches_per_mode_grid():
    f = random_trig(2, degree=2).components[1]
    g = np.linspace(0.0, TWO_PI, 48, endpoint=False)
    grid = np.stack(np.meshgrid(g, g, g, indexing="ij"), axis=-1)
    ref = np.abs(_per_mode(f, grid)).max()
    assert abs(f.sup_norm() - ref) <= 1e-13 * ref


def _random_trig_by_sums(seed, degree):
    """random_trig's field built as a chain of TrigPoly sums, one copy of
    the mode dict per term."""
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(3):
        f = TrigPoly()
        for kx in range(-degree, degree + 1):
            for ky in range(-degree, degree + 1):
                for kz in range(-degree, degree + 1):
                    k = (kx, ky, kz)
                    if k == (0, 0, 0) or k < (-kx, -ky, -kz):
                        continue
                    damp = 1.0 / (1.0 + kx * kx + ky * ky + kz * kz)
                    a, b = rng.standard_normal(2) * damp
                    f = f + TrigPoly.cosine(k, a) + TrigPoly.sine(k, b)
        comps.append(f)
    return TrigVector(comps).curl()


@pytest.mark.parametrize("degree", [1, 2])
def test_random_trig_matches_the_sum_of_its_terms(degree):
    # the same modes, bit for bit, in the same order
    for seed in (0, 1, 7, 31):
        got, want = random_trig(seed, degree), _random_trig_by_sums(seed,
                                                                    degree)
        for g, w in zip(got.components, want.components):
            assert list(g.modes.items()) == list(w.modes.items())
