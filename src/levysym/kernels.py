"""Radial profiles and symmetric Levy-type kernels.

A kernel is K(x, y) = a(x, y) * J(|x - y|) where J is a positive radially
decreasing profile and the modulation a is symmetric with 1 <= a <= Lambda.
The profile kinds shipped here all have exact or certified radial integrals,
which the assembly and verification layers rely on.  scipy is imported
inside the functions that need it (the exponential kind's incomplete gamma,
the logarithmic kind's quadrature and exp_weight_mass), so the other kinds
load numpy only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "KernelDomainError",
    "IntegrabilityError",
    "RadialProfile",
    "Kernel",
    "eval_kernel",
    "make_modulation",
    "RoughCosine",
    "SeparableCosine",
    "rearrange_profile",
    "levy_integral",
    "exp_weight_mass",
    "ExpWeightMass",
    "surface_area",
    "ball_volume",
    "ray_integral",
    "tail_primitive",
    "exterior_ball_mass",
    "ball_mass",
]

_QUAD_OPTS = dict(epsabs=1e-14, epsrel=1e-9, limit=200)

PROFILE_KINDS = ("power", "sum_of_powers", "logarithmic", "exponential", "tabulated")


class KernelDomainError(ValueError):
    """Kernel or profile evaluated outside its domain (e.g. at x = y)."""


class IntegrabilityError(ValueError):
    """A required radial integral diverges for the given profile."""


def surface_area(dim: int) -> float:
    """Hausdorff measure of the unit sphere in R^dim (2 for dim = 1)."""
    if dim == 1:
        # counting measure on {-1, 1}; the gamma quotient is off by an ulp
        return 2.0
    return 2.0 * math.pi ** (dim / 2.0) / math.gamma(dim / 2.0)


def ball_volume(dim: int) -> float:
    """Lebesgue measure of the unit ball in R^dim."""
    return surface_area(dim) / dim


@dataclass(frozen=True)
class RadialProfile:
    """Radial envelope profile j(r), r > 0.

    Parameters are kind specific; use the classmethod constructors. The
    ``power`` kind deliberately accepts any exponent parameter s: Levy
    integrability is certified separately by :func:`levy_integral`, which
    raises for out-of-range s. All other kinds validate at construction.
    """

    kind: str
    dimension: int
    gamma: float = 1.0
    s: float = 0.0
    s_list: tuple[float, ...] = ()
    eps: float = 0.0
    lam: float = 0.0
    radii: tuple[float, ...] = ()
    values: tuple[float, ...] = ()

    def __post_init__(self):
        if self.kind not in PROFILE_KINDS:
            raise ValueError(f"unknown profile kind {self.kind!r}, expected one of {PROFILE_KINDS}")
        if self.dimension < 1:
            raise ValueError("dimension must be a positive integer")
        if not (self.gamma > 0):
            raise ValueError("gamma must be positive")
        if self.kind == "sum_of_powers":
            if not self.s_list:
                raise ValueError("sum_of_powers needs at least one exponent")
            for si in self.s_list:
                if not (0.0 < si < 1.0):
                    raise ValueError(f"sum_of_powers exponent s={si} outside (0, 1)")
        if self.kind == "logarithmic":
            if not (0.0 < self.eps <= self.dimension + 2):
                # eps <= N + 2 keeps the profile strictly decreasing
                raise ValueError("logarithmic exponent eps must lie in (0, dimension + 2]")
        if self.kind == "exponential" and not (self.lam > 0):
            raise ValueError("exponential rate lam must be positive")
        if self.kind == "tabulated":
            r = np.asarray(self.radii, dtype=float)
            v = np.asarray(self.values, dtype=float)
            if r.size == 0 or r.size != v.size:
                raise ValueError("tabulated profile needs matching nonempty radii and values")
            if not (np.all(np.diff(r) > 0) and r[0] > 0):
                raise ValueError("tabulated radii must be strictly increasing and positive")
            if np.any(v < 0):
                raise ValueError("tabulated values must be nonnegative")

    # -- constructors -------------------------------------------------

    @classmethod
    def power(cls, s: float, dimension: int, gamma: float = 1.0) -> "RadialProfile":
        """j(r) = gamma * r^-(dimension + 2 s)."""
        return cls(kind="power", dimension=dimension, gamma=gamma, s=float(s))

    @classmethod
    def sum_of_powers(cls, s_list, dimension: int, gamma: float = 1.0) -> "RadialProfile":
        """j(r) = gamma * sum_i r^-(dimension + 2 s_i), each s_i in (0, 1)."""
        return cls(kind="sum_of_powers", dimension=dimension, gamma=gamma,
                   s_list=tuple(float(s) for s in s_list))

    @classmethod
    def logarithmic(cls, eps: float, dimension: int, gamma: float = 1.0) -> "RadialProfile":
        """j(r) = gamma * log(1 + r)^eps / r^(dimension + 2)."""
        return cls(kind="logarithmic", dimension=dimension, gamma=gamma, eps=float(eps))

    @classmethod
    def exponential(cls, lam: float, dimension: int, gamma: float = 1.0) -> "RadialProfile":
        """j(r) = gamma * exp(-lam * r)."""
        return cls(kind="exponential", dimension=dimension, gamma=gamma, lam=float(lam))

    @classmethod
    def tabulated(cls, radii, values, dimension: int, gamma: float = 1.0) -> "RadialProfile":
        """Piecewise-constant profile: j(r) = values[k] on (radii[k-1], radii[k]], 0 beyond."""
        return cls(kind="tabulated", dimension=dimension, gamma=gamma,
                   radii=tuple(float(r) for r in radii),
                   values=tuple(float(v) for v in values))

    # -- evaluation ---------------------------------------------------

    def evaluate(self, r):
        """Profile value at radius r (scalar or array). Radii must be positive
        for the singular kinds; exponential and tabulated accept r = 0."""
        arr = np.asarray(r, dtype=float)
        if np.any(arr < 0):
            raise KernelDomainError("profile radius must be nonnegative")
        if self.kind in ("power", "sum_of_powers", "logarithmic") and np.any(arr == 0):
            raise KernelDomainError("singular profile evaluated at zero radius")
        n = self.dimension
        if self.kind == "power":
            out = self.gamma * arr ** (-(n + 2.0 * self.s))
        elif self.kind == "sum_of_powers":
            out = self.gamma * sum(arr ** (-(n + 2.0 * si)) for si in self.s_list)
        elif self.kind == "logarithmic":
            out = self.gamma * np.log1p(arr) ** self.eps * arr ** (-(n + 2.0))
        elif self.kind == "exponential":
            out = self.gamma * np.exp(-self.lam * arr)
        else:
            rad = np.asarray(self.radii)
            idx = np.searchsorted(rad, arr, side="left")
            vals = np.append(self.gamma * np.asarray(self.values), 0.0)
            out = vals[np.minimum(idx, len(rad))]
        return out if np.ndim(r) else float(out)

    __call__ = evaluate


def _power_ray(coef: float, expo: float, a: float, b: float) -> float:
    """Integral of coef * r^expo over (a, b); b may be inf, a may be 0."""
    if b == math.inf:
        if expo >= -1.0:
            raise IntegrabilityError(
                f"radial integral of r^{expo} diverges at infinity")
        return coef * a ** (expo + 1.0) / (-(expo + 1.0))
    if a == 0.0:
        if expo <= -1.0:
            raise IntegrabilityError(
                f"radial integral of r^{expo} diverges at the origin")
        return coef * b ** (expo + 1.0) / (expo + 1.0)
    if expo == -1.0:
        return coef * math.log(b / a)
    return coef * (b ** (expo + 1.0) - a ** (expo + 1.0)) / (expo + 1.0)


def _exp_ray(gamma: float, lam: float, moment: float, a: float, b: float) -> float:
    """Integral of gamma * exp(-lam r) r^moment over (a, b) via incomplete gamma."""
    from scipy import special

    mp1 = moment + 1.0
    scale = gamma * math.gamma(mp1) / lam ** mp1

    def upper(x):
        return scale * special.gammaincc(mp1, lam * x)

    return upper(a) - (0.0 if b == math.inf else upper(b))


def ray_integral(profile: RadialProfile, a: float, b: float, moment: float) -> float:
    """Integral of j(r) * r^moment over the interval (a, b).

    Exact closed forms for the power, sum-of-powers, exponential and tabulated
    kinds; adaptive quadrature for the logarithmic kind. Raises
    IntegrabilityError when the integral diverges.
    """
    if not (0.0 <= a <= b):
        raise ValueError("need 0 <= a <= b")
    if a == b:
        return 0.0
    n = profile.dimension
    if profile.kind == "power":
        return _power_ray(profile.gamma, moment - n - 2.0 * profile.s, a, b)
    if profile.kind == "sum_of_powers":
        return sum(_power_ray(profile.gamma, moment - n - 2.0 * si, a, b)
                   for si in profile.s_list)
    if profile.kind == "exponential":
        return _exp_ray(profile.gamma, profile.lam, moment, a, b)
    if profile.kind == "tabulated":
        total = 0.0
        prev = 0.0
        for rk, vk in zip(profile.radii, profile.values):
            lo, hi = max(a, prev), min(b, rk)
            if hi > lo:
                total += profile.gamma * vk * (hi ** (moment + 1.0) - lo ** (moment + 1.0)) / (moment + 1.0)
            prev = rk
        return total
    # logarithmic: log(1+r)^eps * r^(moment - n - 2)
    expo = moment - n - 2.0
    if b == math.inf and expo >= -1.0:
        raise IntegrabilityError("logarithmic profile integral diverges at infinity")
    from scipy import integrate

    eps_, gamma_ = profile.eps, profile.gamma

    def f(r):
        return math.log1p(r) ** eps_ * r ** expo

    val, _ = integrate.quad(f, a, b, **_QUAD_OPTS)
    return gamma_ * val


def tail_primitive(profile: RadialProfile, dim: int) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized callable P(a) = integral of j(r) r^(dim-1) over (a, inf).

    ``dim`` is the ambient dimension of the integration (the profile's own
    dimension parameter only fixes its singularity exponent).
    """
    n, m = profile.dimension, dim - 1.0
    gamma = profile.gamma
    if profile.kind == "power":
        e = m - n - 2.0 * profile.s
        if e >= -1.0:
            raise IntegrabilityError("power profile tail diverges")
        return lambda a: gamma * np.asarray(a, dtype=float) ** (e + 1.0) / (-(e + 1.0))
    if profile.kind == "sum_of_powers":
        exps = [m - n - 2.0 * si for si in profile.s_list]
        if any(e >= -1.0 for e in exps):
            raise IntegrabilityError("sum-of-powers profile tail diverges")

        def p_sum(a):
            a = np.asarray(a, dtype=float)
            return gamma * sum(a ** (e + 1.0) / (-(e + 1.0)) for e in exps)

        return p_sum
    if profile.kind == "exponential":
        from scipy import special

        lam = profile.lam
        mp1 = m + 1.0
        scale = gamma * math.gamma(mp1) / lam ** mp1
        return lambda a: scale * special.gammaincc(mp1, lam * np.asarray(a, dtype=float))
    if profile.kind == "tabulated":
        rad = np.asarray(profile.radii, dtype=float)
        vals = gamma * np.asarray(profile.values, dtype=float)
        mp1 = m + 1.0
        edges = np.concatenate(([0.0], rad))
        pieces = vals * (edges[1:] ** mp1 - edges[:-1] ** mp1) / mp1
        suffix = np.concatenate((np.cumsum(pieces[::-1])[::-1], [0.0]))

        def p_tab(a):
            a = np.asarray(a, dtype=float)
            idx = np.searchsorted(rad, a, side="left")
            idx_c = np.minimum(idx, len(rad) - 1)
            partial = vals[idx_c] * (rad[idx_c] ** mp1 - np.minimum(a, rad[idx_c]) ** mp1) / mp1
            out = np.where(idx < len(rad), partial + suffix[idx_c + 1], 0.0)
            return out

        return p_tab

    def p_quad(a):
        a = np.asarray(a, dtype=float)
        flat = a.reshape(-1)
        out = np.array([ray_integral(profile, x, math.inf, m) for x in flat])
        return out.reshape(a.shape)

    return p_quad


# -- kernels ----------------------------------------------------------


@dataclass(frozen=True)
class Kernel:
    """Symmetric modulated kernel K(x, y) = a(x, y) * J(|x - y|).

    ``modulation`` must be symmetric in its arguments and take values in
    [1, Lambda]; evaluation clips into that range and rejects modulations
    exceeding it by more than 1e-12. ``modulation_tag`` names the modulation
    for serialization and diagnostics.  ``assemble`` takes only the
    modulations of :func:`make_modulation` (RoughCosine, SeparableCosine).
    """

    profile: RadialProfile
    Lambda: float = 1.0
    modulation: Callable | None = None
    modulation_tag: str = "none"

    def __post_init__(self):
        if not (self.Lambda >= 1.0):
            raise ValueError("Lambda must be >= 1")
        if self.modulation is None and self.modulation_tag != "none":
            raise ValueError("modulation_tag set without a modulation callable")

    @property
    def dimension(self) -> int:
        return self.profile.dimension


def modulation_factor(kernel: Kernel, x, y):
    """The factor a(x, y), band-checked against [1, Lambda] and clipped.

    Returns a plain 1.0 when the kernel carries no modulation.
    """
    if kernel.modulation is None:
        return 1.0
    a = np.asarray(kernel.modulation(np.asarray(x, dtype=float),
                                     np.asarray(y, dtype=float)), dtype=float)
    if np.any(a > kernel.Lambda + 1e-12) or np.any(a < 1.0 - 1e-12):
        raise ValueError("modulation leaves the certified band [1, Lambda]")
    return np.clip(a, 1.0, kernel.Lambda)


def eval_kernel(kernel: Kernel, x, y):
    """Evaluate K(x, y). In dimension 1 the points are plain scalars or
    arrays; in higher dimensions they carry a trailing coordinate axis of
    length dim. Coincident points raise KernelDomainError."""
    dim = kernel.dimension
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if dim == 1:
        r = np.abs(xa - ya)
    else:
        if xa.shape[-1] != dim or ya.shape[-1] != dim:
            raise ValueError(f"points must have a trailing axis of length {dim}")
        r = np.sqrt(np.sum((xa - ya) ** 2, axis=-1))
    if np.any(r == 0):
        raise KernelDomainError("kernel evaluated at coincident points")
    return modulation_factor(kernel, xa, ya) * kernel.profile.evaluate(r)


@dataclass(frozen=True)
class RoughCosine:
    """a(x, y) = 1 + amp (1 + cos(omega |x - y|)) / 2.

    It depends on |x - y| only, so a(x, y) J(|x - y|) is translation
    invariant and assembles as an offset table."""

    amp: float
    omega: float
    dim: int

    def __call__(self, x, y):
        d = np.asarray(x, dtype=float) - np.asarray(y, dtype=float)
        r = np.abs(d) if self.dim == 1 else np.sqrt(np.sum(d ** 2, axis=-1))
        return 1.0 + self.amp * 0.5 * (1.0 + np.cos(self.omega * r))


@dataclass(frozen=True)
class SeparableCosine:
    """a(x, y) = 1 + amp g(x) g(y) with g(z) = (1 + cos(omega s(z))) / 2 and
    s(z) the coordinate sum of z."""

    amp: float
    omega: float
    dim: int

    def g(self, z):
        z = np.asarray(z, dtype=float)
        return 0.5 * (1.0 + np.cos(self.omega * (z if self.dim == 1 else np.sum(z, axis=-1))))

    def __call__(self, x, y):
        return 1.0 + self.amp * self.g(x) * self.g(y)


def make_modulation(tag: str, Lambda: float, dim: int, omega: float = 3.0):
    """Named symmetric modulations taking values in [1, Lambda].

    ``rough_cosine`` is a RoughCosine, ``separable_cosine`` a
    SeparableCosine, both with amplitude Lambda - 1.  ``none`` returns None
    (modulation identically 1).  These are the modulations ``assemble``
    accepts.
    """
    if tag == "none":
        return None
    if tag == "rough_cosine":
        return RoughCosine(amp=Lambda - 1.0, omega=omega, dim=dim)
    if tag == "separable_cosine":
        return SeparableCosine(amp=Lambda - 1.0, omega=omega, dim=dim)
    raise ValueError(f"unknown modulation tag {tag!r}; known: none, rough_cosine, separable_cosine")


# -- rearrangement of profiles ---------------------------------------


def rearrange_profile(profile: RadialProfile) -> RadialProfile:
    """Schwarz rearrangement of the profile viewed as a radial function on
    R^dimension.

    Analytic kinds are already radially decreasing and are returned as is.
    Tabulated profiles are rearranged exactly: shell (value, volume) pairs are
    sorted by value descending and the cumulative sorted volumes define the
    rearranged break radii, so measure preservation is exact. On equal-volume
    shells (uniform 1-D tables) this reduces to sorting the values against the
    original radii.
    """
    if profile.kind != "tabulated":
        return profile
    n = profile.dimension
    omega_n = ball_volume(n)
    rad = np.asarray(profile.radii, dtype=float)
    vals = np.asarray(profile.values, dtype=float)
    edges = np.concatenate(([0.0], rad))
    vols = omega_n * (edges[1:] ** n - edges[:-1] ** n)
    order = np.argsort(-vals, kind="stable")
    sorted_vals = vals[order]
    new_radii = np.cumsum(vols[order]) / omega_n
    new_radii = new_radii ** (1.0 / n)
    return RadialProfile.tabulated(new_radii, sorted_vals, dimension=n, gamma=profile.gamma)


# -- certified integrals ----------------------------------------------


def levy_integral(profile: RadialProfile) -> float:
    """Certify the Levy integrability condition: the integral over R^dim of
    j(|y|) min(|y|^2, 1) dy. Raises IntegrabilityError when it diverges."""
    n = profile.dimension
    head = ray_integral(profile, 0.0, 1.0, n + 1.0)
    tail = ray_integral(profile, 1.0, math.inf, n - 1.0)
    total = surface_area(n) * (head + tail)
    if not math.isfinite(total):
        raise IntegrabilityError("levy integral is not finite")
    return total


class ExpWeightMass(NamedTuple):
    mass: float        # integral over |y| < cutoff of exp(-t / j(|y|)) dy
    tail_bound: float  # certified upper bound for the remaining mass


def exp_weight_mass(profile: RadialProfile, t: float, cutoff: float) -> ExpWeightMass:
    """Mass of the exponential weight exp(-t / j(|y|)) inside a ball, with a
    certified analytic bound for the tail beyond the cutoff.

    The tail bound uses the monotone-envelope estimate
    j(rho) <= dim * I_R / (rho^dim - R^dim) with I_R the profile tail integral
    from the cutoff, so it requires j decreasing (tabulated profiles must be
    rearranged first). t = 0 would give infinite total mass and raises.
    """
    if not (t > 0):
        raise IntegrabilityError("weight mass is infinite for t <= 0")
    if not (cutoff > 0):
        raise ValueError("cutoff must be positive")
    if profile.kind == "tabulated":
        v = np.asarray(profile.values)
        if np.any(np.diff(v) > 0):
            raise ValueError("tabulated profile must be rearranged (nonincreasing) first")
    n = profile.dimension

    def integrand(rho):
        if rho <= 0.0:
            if n > 1:
                return 0.0
            if profile.kind in ("power", "sum_of_powers", "logarithmic"):
                return 1.0  # j blows up at the origin, so the weight tends to 1
            j0 = profile.evaluate(0.0)
            return 0.0 if j0 == 0.0 else math.exp(-t / j0)
        j = profile.evaluate(rho)
        return (0.0 if j == 0.0 else math.exp(-t / j)) * rho ** (n - 1.0)

    from scipy import integrate

    mass, _ = integrate.quad(integrand, 0.0, cutoff, **_QUAD_OPTS)
    mass *= surface_area(n)
    i_tail = ray_integral(profile, cutoff, math.inf, n - 1.0)
    tail_bound = surface_area(n) * i_tail / t
    return ExpWeightMass(mass=mass, tail_bound=tail_bound)


# -- geometric radial integrals ---------------------------------------


def _polar_nodes(a: float, b: float, order: int):
    x, w = np.polynomial.legendre.leggauss(order)
    theta = 0.5 * (b - a) * x + 0.5 * (b + a)
    weights = 0.5 * (b - a) * w
    return theta, weights


def exterior_ball_mass(profile: RadialProfile, dim: int, rho: float, r: float,
                       order: int = 512) -> float:
    """Integral of j(|x - y|) over {|y| > r} for a point x with |x| = rho < r.

    Decomposed in polar coordinates about x: along direction theta the sphere
    {|y| = r} sits at distance d(theta) = -rho cos(theta) +
    sqrt(rho^2 cos^2(theta) + r^2 - rho^2), and the radial tail integral is
    exact via :func:`tail_primitive`.
    """
    if not (0.0 <= rho < r):
        raise ValueError("point must lie strictly inside the ball")
    prim = tail_primitive(profile, dim)
    if dim == 1:
        return float(prim(r - rho) + prim(r + rho))
    theta, w = _polar_nodes(0.0, math.pi, order)
    cos_t = np.cos(theta)
    d = -rho * cos_t + np.sqrt(rho * rho * cos_t ** 2 + r * r - rho * rho)
    weight = surface_area(dim - 1) * np.sin(theta) ** (dim - 2)
    return float(np.sum(w * weight * prim(d)))


def ball_mass(profile: RadialProfile, dim: int, rho: float, r: float,
              order: int = 512) -> float:
    """Integral of j(|x - y|) over {|y| < r} for a point x with |x| = rho > r.

    Only the polar cone with sin(theta) <= r / rho meets the ball; inside it
    the chord endpoints are -rho cos(theta) -+ sqrt(r^2 - rho^2 sin^2(theta)).
    The square-root tangency is smoothed with the substitution
    theta = theta* + u^2.
    """
    if not (rho > r > 0.0):
        raise ValueError("point must lie strictly outside the ball")
    prim = tail_primitive(profile, dim)
    if dim == 1:
        return float(prim(rho - r) - prim(rho + r))
    theta_star = math.pi - math.asin(r / rho)
    u_max = math.sqrt(math.pi - theta_star)
    u, w = _polar_nodes(0.0, u_max, order)
    theta = theta_star + u ** 2
    cos_t = np.cos(theta)
    disc = r * r - (rho * np.sin(theta)) ** 2
    disc = np.maximum(disc, 0.0)
    root = np.sqrt(disc)
    t1 = -rho * cos_t - root
    t2 = -rho * cos_t + root
    weight = surface_area(dim - 1) * np.sin(theta) ** (dim - 2)
    seg = prim(t1) - prim(t2)
    return float(np.sum(w * 2.0 * u * weight * seg))
