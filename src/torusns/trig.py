"""Real trigonometric polynomials on the 2*pi-periodic torus.

Fields are stored as sparse complex Fourier sums f = sum_k c_k e^{i k.x}
over integer wavevectors k, with c_{-k} = conj(c_k) so values are real.
Differentiation, products and means are exact in this representation,
which is what makes the analytic oracles in the test-suite possible:
smooth data and test functions are evaluated pointwise at quadrature
nodes while their derivatives and L2 norms come from the coefficients.

Evaluation is factored (sum factorization, Orszag, J. Comput. Phys. 37,
1980): at points base_b + offset_q, f = Re sum_k (c_k e^{ik.base_b})
e^{ik.offset_q} is one complex (B, K) @ (K, Q) product, K (B + Q)
exponentials instead of 2 K B Q cos/sin values.  `value` is the case of
one zero offset; `sup_norm` splits its grid into an xy-plane and a z-line.
"""

from __future__ import annotations

import numpy as np

TWO_PI = 2.0 * np.pi
#: Volume of the periodic box (2*pi)^3.
BOX_VOLUME = TWO_PI ** 3
#: Grid points per direction of the sup-norm sampling grid.
SUP_SAMPLES = 48

_ZERO3 = (0, 0, 0)


class TrigPoly:
    """Scalar trigonometric polynomial with integer wavevectors."""

    __slots__ = ("modes",)

    def __init__(self, modes=None):
        self.modes = {}
        if modes:
            for k, c in modes.items():
                self._add_mode(k, c)

    def _add_mode(self, k, c):
        k = tuple(int(v) for v in k)
        c = complex(c)
        cur = self.modes.get(k, 0j) + c
        if cur == 0:
            self.modes.pop(k, None)
        else:
            self.modes[k] = cur

    # -- constructors -------------------------------------------------
    @classmethod
    def constant(cls, a):
        return cls({_ZERO3: complex(a)})

    @classmethod
    def cosine(cls, k, amp=1.0):
        """amp * cos(k . x)"""
        k = tuple(int(v) for v in k)
        mk = tuple(-v for v in k)
        return cls({k: 0.5 * amp, mk: 0.5 * amp})

    @classmethod
    def sine(cls, k, amp=1.0):
        """amp * sin(k . x)"""
        k = tuple(int(v) for v in k)
        mk = tuple(-v for v in k)
        return cls({k: -0.5j * amp, mk: 0.5j * amp})

    # -- algebra ------------------------------------------------------
    def __add__(self, other):
        if isinstance(other, (int, float)):
            other = TrigPoly.constant(other)
        out = TrigPoly(self.modes)
        for k, c in other.modes.items():
            out._add_mode(k, c)
        return out

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, float)):
            other = TrigPoly.constant(other)
        return self + (other * -1.0)

    def __mul__(self, other):
        if isinstance(other, (int, float)):
            return TrigPoly({k: c * other for k, c in self.modes.items()})
        out = TrigPoly()
        for k1, c1 in self.modes.items():
            for k2, c2 in other.modes.items():
                out._add_mode((k1[0] + k2[0], k1[1] + k2[1], k1[2] + k2[2]),
                              c1 * c2)
        return out

    __rmul__ = __mul__

    # -- calculus -----------------------------------------------------
    def diff(self, axis) -> "TrigPoly":
        return TrigPoly({k: 1j * k[axis] * c for k, c in self.modes.items()
                         if k[axis] != 0})

    def laplacian(self) -> "TrigPoly":
        return TrigPoly({k: -(k[0] ** 2 + k[1] ** 2 + k[2] ** 2) * c
                         for k, c in self.modes.items()})

    def gradient(self) -> "TrigVector":
        return TrigVector([self.diff(a) for a in range(3)])

    def mean(self) -> float:
        return float(self.modes.get(_ZERO3, 0j).real)

    def l2_norm_sq(self) -> float:
        """Exact integral of f^2 over the box (Parseval)."""
        return BOX_VOLUME * sum(abs(c) ** 2 for c in self.modes.values())

    # -- evaluation ---------------------------------------------------
    def value_on(self, base, offsets) -> np.ndarray:
        """(B, Q) values f(base[b] + offsets[q]): the real part of one
        complex product, copied contiguous, so the product is freed."""
        if not self.modes:
            return np.zeros((len(base), len(offsets)))
        k = np.array(list(self.modes), dtype=float)           # (K, 3)
        c = np.array(list(self.modes.values()))
        left = np.exp(1j * (base @ k.T)) * c
        return np.ascontiguousarray(
            (left @ np.exp(1j * (k @ offsets.T))).real)

    def value(self, points) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        vals = self.value_on(points.reshape(-1, 3), np.zeros((1, 3)))
        return vals.reshape(points.shape[:-1])

    def sup_norm(self) -> float:
        g = np.linspace(0.0, TWO_PI, SUP_SAMPLES, endpoint=False)
        plane = np.stack(np.meshgrid(g, g, [0.0], indexing="ij"),
                         axis=-1).reshape(-1, 3)
        line = np.outer(g, [0.0, 0.0, 1.0])
        return float(np.max(np.abs(self.value_on(plane, line))))

    def wkinf_norm(self, order: int) -> float:
        """max over all partial derivatives up to `order` of their sup norm."""
        best = 0.0
        derivs = [self]                   # all partials of the current order
        for _ in range(order + 1):
            best = max([best] + [f.sup_norm() for f in derivs])
            derivs = [f.diff(a) for f in derivs for a in range(3)]
        return best


class TrigVector:
    """Vector field with TrigPoly components."""

    __slots__ = ("components",)

    def __init__(self, components):
        self.components = tuple(components)
        if len(self.components) != 3:
            raise ValueError("need exactly 3 components")

    def value_on(self, base, offsets) -> np.ndarray:
        """(B, Q, 3) values at base[b] + offsets[q] (`TrigPoly.value_on`)."""
        return np.stack([c.value_on(base, offsets) for c in self.components],
                        axis=-1)

    def value(self, points) -> np.ndarray:
        return np.stack([c.value(points) for c in self.components], axis=-1)

    def divergence(self) -> TrigPoly:
        return (self.components[0].diff(0) + self.components[1].diff(1)
                + self.components[2].diff(2))

    def curl(self) -> "TrigVector":
        f = self.components
        return TrigVector((
            f[2].diff(1) - f[1].diff(2),
            f[0].diff(2) - f[2].diff(0),
            f[1].diff(0) - f[0].diff(1),
        ))

    def l2_norm_sq(self) -> float:
        return sum(c.l2_norm_sq() for c in self.components)

    def l2_norm(self) -> float:
        return float(np.sqrt(self.l2_norm_sq()))

    def mean(self):
        return np.array([c.mean() for c in self.components])

    def __mul__(self, scalar):
        return TrigVector([c * scalar for c in self.components])

    __rmul__ = __mul__


def sine_shear() -> TrigVector:
    """(sin y, 0, 0): divergence-free unidirectional shear."""
    return TrigVector((TrigPoly.sine((0, 1, 0)), TrigPoly(), TrigPoly()))


def tg_like() -> TrigVector:
    """(sin x cos y, -cos x sin y, 0): planar vortex array."""
    return TrigVector((
        TrigPoly.sine((1, 0, 0)) * TrigPoly.cosine((0, 1, 0)),
        TrigPoly.cosine((1, 0, 0)) * TrigPoly.sine((0, 1, 0)) * -1.0,
        TrigPoly(),
    ))


def random_trig(seed: int, degree: int = 2, norm: float | None = None) -> TrigVector:
    """Seeded random divergence-free field, curl of a random potential.

    Modes of the potential run over 0 < |k|_inf <= degree with amplitudes
    damped by 1/(1+|k|^2).  The result has exactly zero divergence and
    zero mean; if `norm` is given the field is rescaled to that L2 norm.
    """
    rng = np.random.default_rng(seed)
    comps = []
    for _ in range(3):
        f = TrigPoly()
        for kx in range(-degree, degree + 1):
            for ky in range(-degree, degree + 1):
                for kz in range(-degree, degree + 1):
                    k = (kx, ky, kz)
                    if k == _ZERO3 or k < tuple(-v for v in k):
                        continue  # one representative per +-k pair
                    damp = 1.0 / (1.0 + kx * kx + ky * ky + kz * kz)
                    a, b = rng.standard_normal(2) * damp
                    for term in (TrigPoly.cosine(k, a), TrigPoly.sine(k, b)):
                        for mode, c in term.modes.items():
                            f._add_mode(mode, c)  # in place: no copies
        comps.append(f)
    u = TrigVector(comps).curl()
    if norm is not None:
        cur = u.l2_norm()
        if cur > 0:
            u = u * (norm / cur)
    return u


_PRESETS = {
    "zero": lambda seed, degree: TrigVector((TrigPoly(),) * 3),
    "sine-shear": lambda seed, degree: sine_shear(),
    "tg-like": lambda seed, degree: tg_like(),
    "random-trig": lambda seed, degree: random_trig(seed, degree),
}


def check_preset(name: str) -> None:
    """A ValueError that lists the presets, unless `name` is one."""
    if name not in _PRESETS:
        raise ValueError(f"unknown preset {name!r}; "
                         f"choose from {sorted(_PRESETS)}")


def preset_field(name: str, seed: int = 0, degree: int = 2) -> TrigVector:
    """Named initial-datum presets; all are mean-free and divergence-free."""
    check_preset(name)
    return _PRESETS[name](seed, degree)
