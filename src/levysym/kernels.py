"""Radial profiles and symmetric Levy-type kernels.

A kernel is K(x, y) = a(x, y) * J(|x - y|) where J is a positive radially
decreasing profile and the modulation a is symmetric with 1 <= a <= Lambda.
The profile kinds shipped here all have exact or certified radial integrals,
which the assembly and verification layers rely on.  Each kind has one
vectorised radial primitive, :func:`radial_primitive`, which every radial
integral reads: closed forms, and a fixed Gauss rule in log r for the
logarithmic kind.  scipy is imported inside the functions that need it (the
incomplete gamma of the exponential kind, and exp_weight_mass), so the other
kinds load numpy only: the logarithmic kind's far tail is a continued
fraction, gamma_tail.
"""

from __future__ import annotations

import functools
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
    "exterior_ball_mass",
    "ball_mass",
]

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
            vals = np.append(self.gamma * np.asarray(self.values), 0.0)
            out = vals[np.searchsorted(rad, arr, side="left")]
        return out if np.ndim(r) else float(out)

    __call__ = evaluate


def radial_primitive(profile: RadialProfile, moment: float, head: bool = False,
                     tail: bool = False) -> Callable[[np.ndarray], np.ndarray]:
    """Vectorized F with F(a) - F(b) = integral of j(r) r^moment over (a, b).

    The one rule of each kind: gamma * sum of r^(e+1) / -(e+1) over the
    exponents e of a power or sum-of-powers profile (-gamma log r for
    e = -1), an incomplete gamma function for the exponential kind (the
    lower one, from 0, for a ``head`` without ``tail``), sums over the table
    pieces (from 0 unless ``tail``) for the tabulated kind and
    :func:`log_primitive`.  Otherwise F is 0 at infinity when the tail
    converges; ``head`` and ``tail`` raise IntegrabilityError when that end
    diverges.
    """
    kind, gamma, mp1 = profile.kind, profile.gamma, moment + 1.0
    # F behaves like r^p at both ends for each power p, the logarithmic
    # profile being the s = 1 power times log(1 + r)^eps ~ r^eps at 0; an
    # exponential or tabulated F is finite at 0 when mp1 > 0, 0 at infinity
    s_list = {"power": (profile.s,), "sum_of_powers": profile.s_list,
              "logarithmic": (1.0,)}.get(kind, ())
    powers = [moment - profile.dimension - 2.0 * s + 1.0 for s in s_list]
    if head and min(powers, default=mp1) + profile.eps <= 0.0:
        raise IntegrabilityError(
            f"radial integral of the {kind} profile times r^{moment} diverges at the origin")
    if tail and max(powers, default=-1.0) >= 0.0:
        raise IntegrabilityError(
            f"radial integral of the {kind} profile times r^{moment} diverges at infinity")
    if kind == "logarithmic":
        return log_primitive(profile.eps, powers[0], gamma)
    if powers:
        def power_sum(r):
            # accumulate in place: a name or list holding each term keeps
            # numpy from reusing the temporaries of large blocks
            r = np.asarray(r, dtype=float)
            out = None
            for p in powers:
                term = -np.log(r) if p == 0.0 else r ** p / -p
                if out is None:
                    out = term
                else:
                    out += term
            out *= gamma
            return out

        return power_sum
    if kind == "exponential":
        from scipy import special

        lam = profile.lam
        scale = gamma * math.gamma(mp1) / lam ** mp1
        if head and not tail:
            # from 0, so that a short head interval keeps its digits
            return lambda r: -scale * special.gammainc(mp1, lam * np.asarray(r, dtype=float))
        return lambda r: scale * special.gammaincc(mp1, lam * np.asarray(r, dtype=float))
    rad = np.asarray(profile.radii, dtype=float)
    vals = gamma * np.asarray(profile.values, dtype=float)
    edges = np.concatenate(([0.0], rad))
    pieces = vals * (edges[1:] ** mp1 - edges[:-1] ** mp1) / mp1
    from_zero = not tail and mp1 > 0.0
    # F at the inner edge of each piece from 0, else at its outer edge
    if from_zero:
        base, anchor = -np.concatenate(([0.0], np.cumsum(pieces)[:-1])), edges[:-1]
    else:
        base, anchor = np.concatenate((np.cumsum(pieces[::-1])[::-1][1:], [0.0])), rad

    def table_sum(r):
        # past the table idx stops at the last piece and r at its outer radius
        r = np.asarray(r, dtype=float)
        idx = np.minimum(np.searchsorted(rad, r, side="left"), len(rad) - 1)
        return base[idx] - vals[idx] * (np.minimum(r, rad[idx]) ** mp1
                                        - anchor[idx] ** mp1) / mp1

    return table_sum


def log_primitive(eps: float, c: float, gamma: float) -> Callable[[np.ndarray], np.ndarray]:
    """F for gamma log(1 + r)^eps r^(c - 1), g(x) = gamma log(1 + e^x)^eps
    e^(c x) in x = log r: 16-point Gauss-Legendre on the unit panels between
    fixed integer knots, about 12.6^-32 per panel as g is analytic for
    |Im x| < pi.  Past -40 (and 40 when c < 0) F is closed, e^((eps + c) x)
    / (eps + c) and Gamma(eps + 1, -c x) / (-c)^(eps + 1) (gamma_tail).  A
    point adds terms of one sign from the convergent end, infinity when
    c < 0 and else 0 (the panels then run past the largest float): F at its
    panel's knot on that side plus the Gauss rule, one node at a time, over
    the rest.
    """
    head_c, down = eps + c, c < 0.0
    hi = 40.0 if down else 710.0
    t, w = _polar_nodes(1.0, 16)

    def g(x):
        # in place, with one temporary
        v = np.logaddexp(0.0, x)
        np.log(v, out=v)
        v *= eps
        x *= c
        x += v
        return np.exp(x, out=x)

    panels = g(np.arange(-40.0, hi)[:, None] + t) @ w
    if down:
        f_knots = np.cumsum(np.concatenate((gamma_tail(eps + 1.0, c, [hi]),
                                            panels[::-1])))[::-1]
    else:
        f_knots = -np.cumsum(np.concatenate(([math.exp(-40.0 * head_c) / head_c], panels)))

    def primitive(r):
        r = np.asarray(r, dtype=float)
        with np.errstate(divide="ignore"):
            x = np.log(r.reshape(-1))
        below, above = x < -40.0, x > hi
        x_below, x_above = x[below], x[above]
        np.clip(x, -40.0, hi, out=x)
        width = np.minimum(np.floor(x), hi - 1.0) + down
        out = f_knots[(width + 40.0).astype(np.intp)]
        width -= x  # signed length from the point to its knot
        for ti, wi in zip(t, w):
            out += g(width * ti + x) * (wi * width)
        if x_below.size:
            d = x_below + 40.0
            out[below] = (f_knots[0] - math.exp(-40.0 * head_c)
                          * (np.expm1(head_c * d) / head_c if head_c else d)
                          if down else f_knots[0] * np.exp(head_c * d))
        if down and x_above.size:
            out[above] = gamma_tail(eps + 1.0, c, x_above)
        return gamma * out.reshape(r.shape)

    return primitive


def gamma_tail(a: float, c: float, x) -> np.ndarray:
    """Gamma(a, z) / (-c)^a at z = -c x for c < 0: e^(c x) x^a / (z + 1 - a
    - 1 (1 - a) / (z + 3 - a - 2 (2 - a) / (z + 5 - a - ...))), Legendre's
    continued fraction by the modified Lentz method.  It converges in a few
    terms for z well above a, as at log_primitive's z >= 40 |c|.  Each
    entry stops at its own convergence, so its value does not depend on
    the other entries; ArithmeticError if one has not converged after
    10,000 terms."""
    x = np.asarray(x, dtype=float)
    # Gamma(a, z) is 0 at z = infinity
    out = np.zeros(x.shape)
    live = np.isfinite(x)
    x = x[live]
    tiny = 1e-300
    b = -c * x + (1.0 - a)
    d = 1.0 / np.where(np.abs(b) < tiny, tiny, b)
    e = np.full_like(d, 1.0 / tiny)
    frac = d.copy()
    done = np.zeros(d.shape, dtype=bool)
    for i in range(1, 10_000):
        an = -i * (i - a)
        b += 2.0
        d = an * d + b
        d = 1.0 / np.where(np.abs(d) < tiny, tiny, d)
        e = b + an / e
        e = np.where(np.abs(e) < tiny, tiny, e)
        factor = d * e
        frac *= np.where(done, 1.0, factor)
        done |= np.abs(factor - 1.0) <= np.finfo(float).eps
        if done.all():
            out[live] = np.exp(c * x) * x ** a * frac
            return out
    raise ArithmeticError("the incomplete-gamma continued fraction did not converge")


def ray_integral(profile: RadialProfile, a: float, b: float, moment: float) -> float:
    """Integral of j(r) * r^moment over the interval (a, b), F(a) - F(b) of
    :func:`radial_primitive`; IntegrabilityError when it diverges."""
    if not (0.0 <= a <= b):
        raise ValueError("need 0 <= a <= b")
    if a == b:
        return 0.0
    prim = radial_primitive(profile, moment, head=a == 0.0, tail=b == math.inf)
    return float(prim(a) - prim(b))


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
    new_radii = (np.cumsum(vols[order]) / omega_n) ** (1.0 / n)
    return RadialProfile.tabulated(new_radii, vals[order], dimension=n, gamma=profile.gamma)


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
    if profile.kind == "tabulated" and np.any(np.diff(profile.values) > 0):
        raise ValueError("tabulated profile must be rearranged (nonincreasing) first")
    n = profile.dimension

    def integrand(rho):
        # quad never samples the endpoint rho = 0
        j = profile.evaluate(rho)
        return (0.0 if j == 0.0 else math.exp(-t / j)) * rho ** (n - 1.0)

    from scipy import integrate

    mass, _ = integrate.quad(integrand, 0.0, cutoff, epsabs=1e-14, epsrel=1e-9, limit=200)
    i_tail = ray_integral(profile, cutoff, math.inf, n - 1.0)
    return ExpWeightMass(mass=mass * surface_area(n), tail_bound=surface_area(n) * i_tail / t)


# -- geometric radial integrals ---------------------------------------


@functools.lru_cache(maxsize=None)
def _gauss_legendre(order: int) -> tuple:
    """Gauss-Legendre nodes and weights on (-1, 1), computed once per order
    and handed out read-only."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def _polar_nodes(b: float, order: int):
    """Gauss-Legendre nodes and weights on (0, b)."""
    x, w = _gauss_legendre(order)
    return 0.5 * b * x + 0.5 * b, 0.5 * b * w


def exterior_ball_mass(profile: RadialProfile, dim: int, rho: float, r: float,
                       order: int = 512, prim=None) -> float:
    """Integral of j(|x - y|) over {|y| > r} for a point x with |x| = rho < r.

    Decomposed in polar coordinates about x: along direction theta the sphere
    {|y| = r} sits at distance d(theta) = -rho cos(theta) +
    sqrt(rho^2 cos^2(theta) + r^2 - rho^2), and the radial tail integral is
    exact via :func:`radial_primitive`.  prim is that primitive,
    radial_primitive(profile, dim - 1.0, tail=True), built here when None.
    """
    if not (0.0 <= rho < r):
        raise ValueError("point must lie strictly inside the ball")
    if prim is None:
        prim = radial_primitive(profile, dim - 1.0, tail=True)
    if dim == 1:
        return float(prim(r - rho) + prim(r + rho))
    theta, w = _polar_nodes(math.pi, order)
    cos_t = np.cos(theta)
    d = -rho * cos_t + np.sqrt(rho * rho * cos_t ** 2 + r * r - rho * rho)
    weight = surface_area(dim - 1) * np.sin(theta) ** (dim - 2)
    return float(np.sum(w * weight * prim(d)))


def ball_mass(profile: RadialProfile, dim: int, rho: float, r: float,
              order: int = 512, prim=None) -> float:
    """Integral of j(|x - y|) over {|y| < r} for a point x with |x| = rho > r.

    Only the polar cone with sin(theta) <= r / rho meets the ball; inside it
    the chord endpoints are -rho cos(theta) -+ sqrt(r^2 - rho^2 sin^2(theta)).
    The square-root tangency is smoothed with the substitution
    theta = theta* + u^2.  prim is as for exterior_ball_mass.
    """
    if not (rho > r > 0.0):
        raise ValueError("point must lie strictly outside the ball")
    if prim is None:
        prim = radial_primitive(profile, dim - 1.0, tail=True)
    if dim == 1:
        return float(prim(rho - r) - prim(rho + r))
    theta_star = math.pi - math.asin(r / rho)
    u_max = math.sqrt(math.pi - theta_star)
    u, w = _polar_nodes(u_max, order)
    theta = theta_star + u ** 2
    cos_t = np.cos(theta)
    root = np.sqrt(np.maximum(r * r - (rho * np.sin(theta)) ** 2, 0.0))
    weight = surface_area(dim - 1) * np.sin(theta) ** (dim - 2)
    seg = prim(-rho * cos_t - root) - prim(-rho * cos_t + root)
    return float(np.sum(w * 2.0 * u * weight * seg))
