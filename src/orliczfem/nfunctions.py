"""Uniformly convex N-functions: evaluation, indices, conjugation, truncation.

An N-function is phi(t) = integral_0^t phi'(s) ds with phi'(0) = 0, phi'
non-decreasing, phi'(t) > 0 for t > 0 and phi'(t) -> oo.  Uniform convexity
pins the ratio phi''(t) t / phi'(t) + 1 inside an interval [p_minus, p_plus]
of (1, oo); every constant measured by this package depends on the N-function
only through that index pair.

Variants provided here:

* ``PowerLaw(p)``              phi(t) = t^p / p
* ``DeltaPower(p, delta)``     phi(t) = integral_0^t (delta + s)^(p-2) s ds
* ``SumPower(p, q)``           phi(t) = t^p + t^q
* ``Truncated(base, lo, hi)``  phi'(t) = phi'(clip(t, lo, hi)) * t / clip(t, lo, hi)

The truncated variant freezes phi'/t outside [lo, hi] (0 <= lo <= hi, lo < oo,
hi > 0; (0, oo) is no truncation), which gives quadratic growth (phi'' bounded
above and below) while leaving phi untouched in between.  For every spec,
phi''(0) raises ``SingularityError`` exactly when ``singular_at_zero`` is true,
and evaluators return a float for a scalar argument.  Untruncated, quadratic
growth means indices (2, 2): then phi''(t) t = phi'(t), so phi'' = phi'(1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DomainError",
    "SingularityError",
    "IndexPair",
    "NFunction",
    "PowerLaw",
    "DeltaPower",
    "SumPower",
    "Truncated",
    "young_gap",
    "simonenko_gap",
    "truncation_dual_gap",
    "from_text",
    "from_mapping",
    "to_text",
    "SPEC_KEYS",
    "invert_increasing",
    "INDEX_GRID",
]

#: Logarithmic grid used for numeric index estimates and inequality sweeps.
INDEX_GRID = np.logspace(-6.0, 6.0, 2048)

_BISECT_RTOL = 1e-12
_BISECT_MAX_ITERS = 200


class DomainError(ValueError):
    """An argument lies outside the domain of the requested operation."""


class SingularityError(ValueError):
    """Evaluation was requested at a point where the N-function is singular."""


def conjugate_exponent(p: float) -> float:
    """p' = p / (p - 1)."""
    return p / (p - 1.0)


@dataclass(frozen=True)
class IndexPair:
    """Lower and upper index of uniform convexity."""

    p_minus: float
    p_plus: float

    def __post_init__(self):
        if not (1.0 < self.p_minus <= self.p_plus < math.inf):
            raise DomainError(
                f"index pair must satisfy 1 < p_minus <= p_plus < oo, "
                f"got ({self.p_minus}, {self.p_plus})"
            )

    def conjugate(self) -> "IndexPair":
        """Indices of the conjugate N-function: ((p_plus)', (p_minus)')."""
        return IndexPair(conjugate_exponent(self.p_plus), conjugate_exponent(self.p_minus))


def _as_float_array(t):
    arr = np.asarray(t, dtype=float)
    if not np.all(arr >= 0.0):  # NaN fails every comparison
        raise DomainError("N-function arguments must be nonnegative and not NaN")
    return arr


def _float_if_0d(out):
    """``out`` as a float when it is 0-d (a scalar argument), else unchanged."""
    return float(out) if np.ndim(out) == 0 else out


def invert_increasing(func, s):
    """Solve func(t) = s for t >= 0, elementwise, by bracketed bisection.

    ``func`` must be increasing with func(0) = 0 and func(t) -> oo, as phi'
    is; entries s <= 0 map to 0.  The relative tolerance is 1e-12.
    """
    s = np.asarray(s, dtype=float)
    out = np.zeros_like(s)
    pos = s > 0.0
    if np.any(pos):
        sp = s[pos]
        hi = np.ones_like(sp)
        for _ in range(1100):
            need = func(hi) < sp
            if not need.any():
                break
            hi[need] *= 2.0
        else:  # pragma: no cover - cannot happen for valid N-functions
            raise RuntimeError("bisection bracket not found")
        lo = np.zeros_like(sp)
        for _ in range(_BISECT_MAX_ITERS):
            mid = 0.5 * (lo + hi)
            below = func(mid) < sp
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.all(hi - lo <= _BISECT_RTOL * hi):
                break
        out[pos] = 0.5 * (lo + hi)
    return out


def _piecewise(t, pairs):
    """Evaluate branch functions only on their own mask (no spurious warnings); NaN on no mask."""
    out = np.full_like(t, np.nan)
    for mask, func in pairs:
        if np.any(mask):
            out[mask] = func(t[mask])
    return out


class NFunction:
    """Base class.  Subclasses provide vectorised ``phi``, ``d_phi``, ``dd_phi``."""

    #: True when phi'' blows up at t = 0 (e.g. pure powers with p < 2).
    singular_at_zero: bool = False

    # -- core evaluators ----------------------------------------------------

    def phi(self, t):
        raise NotImplementedError

    def d_phi(self, t):
        raise NotImplementedError

    def dd_phi(self, t):
        raise NotImplementedError

    def eval(self, t):
        """Return the triple (phi(t), phi'(t), phi''(t)).

        Raises ``DomainError`` for negative or NaN arguments and ``SingularityError``
        when phi'' is requested at t = 0 for a spec that is singular there.
        """
        arr = _as_float_array(t)
        self._check_regular(arr)
        return tuple(_float_if_0d(v) for v in (self.phi(arr), self.d_phi(arr), self.dd_phi(arr)))

    def _check_regular(self, t):
        """Raise ``SingularityError`` if phi'' is asked for at t = 0 of a singular spec."""
        if self.singular_at_zero and np.any(t == 0.0):
            raise SingularityError(
                f"{self.describe()}: second derivative undefined at t=0; "
                "use a truncated spec with trunc_lo > 0"
            )

    # -- indices ------------------------------------------------------------

    def indices(self) -> IndexPair:
        """Closed-form index pair (conservative hull for truncated variants)."""
        raise NotImplementedError

    def indices_grid(self, grid=None) -> IndexPair:
        """Numeric index estimate: inf/sup of phi''(t) t / phi'(t) + 1 on a log grid.

        A given ``grid`` needs positive entries, else :class:`DomainError`.
        """
        t = INDEX_GRID if grid is None else np.asarray(grid, dtype=float)
        if grid is not None and not (t.size and np.all(t > 0.0)):
            raise DomainError(f"index grid must be non-empty with positive entries, got {grid!r}")
        ratio = self.dd_phi(t) * t / self.d_phi(t) + 1.0
        return IndexPair(float(ratio.min()), float(ratio.max()))

    # -- conjugation ----------------------------------------------------------

    def d_phi_inv(self, s):
        """Inverse of phi', by bracketed bisection to relative tolerance 1e-12."""
        return _float_if_0d(invert_increasing(self.d_phi, _as_float_array(s)))

    def conjugate(self, s):
        """phi*(s) = sup_t (s t - phi(t)), via s * (phi')^-1(s) - phi((phi')^-1(s))."""
        arr = _as_float_array(s)
        tau = self.d_phi_inv(arr)
        out = arr * tau - self.phi(np.asarray(tau))
        # Legendre values are nonnegative; clip away rounding dust near 0.
        return _float_if_0d(np.maximum(out, 0.0))

    def conjugate_spec(self) -> "NFunction":
        """The conjugate as a full N-function object (numeric evaluators)."""
        return _Conjugate(self)

    # -- growth and truncation ------------------------------------------------

    def has_quadratic_growth(self) -> bool:
        """True when phi'' lies between positive constants: untruncated, indices (2, 2)."""
        idx = self.indices()
        return idx.p_minus == idx.p_plus == 2.0

    def quadratic_growth_bounds(self):
        """(inf phi'', sup phi'') for quadratic-growth specs, else None.

        Untruncated, phi'' is the constant phi'(1); phi''(1) may round off it.
        """
        if not self.has_quadratic_growth():
            return None
        c = float(self.d_phi(1.0))
        return (c, c)

    def truncate(self, lo: float, hi: float) -> "NFunction":
        """``Truncated(self, lo, hi)``; (0, oo) is no truncation and gives self."""
        if lo == 0.0 and hi == math.inf:
            return self
        return Truncated(self, lo, hi)

    # -- misc -----------------------------------------------------------------

    def describe(self) -> str:
        """Single-line key=value description (also the CSV spec column)."""
        return ", ".join(f"{k}={v}" for k, v in self._fields())

    def _fields(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}({self.describe()})"

    def __eq__(self, other):
        return type(self) is type(other) and self._fields() == other._fields()

    def __hash__(self):
        return hash((type(self).__name__,) + tuple(self._fields()))


def _check_exponent(p: float, name: str = "p") -> float:
    p = float(p)
    if not (1.0 < p < math.inf):
        raise DomainError(f"exponent {name} must lie in (1, oo), got {p}")
    return p


class PowerLaw(NFunction):
    """phi(t) = t^p / p, the homogeneous model case with indices (p, p)."""

    def __init__(self, p: float):
        self.p = _check_exponent(p)
        self.singular_at_zero = self.p < 2.0

    def _fields(self):
        return [("variant", "power"), ("p", self.p)]

    def phi(self, t):
        return t ** self.p / self.p

    def d_phi(self, t):
        return t ** (self.p - 1.0)

    def dd_phi(self, t):
        t = np.asarray(t, dtype=float)
        self._check_regular(t)
        return (self.p - 1.0) * t ** (self.p - 2.0)

    def indices(self) -> IndexPair:
        return IndexPair(self.p, self.p)

    def d_phi_inv(self, s):
        return _float_if_0d(_as_float_array(s) ** (1.0 / (self.p - 1.0)))


class DeltaPower(NFunction):
    """phi(t) = integral_0^t (delta + s)^(p-2) s ds.

    For delta > 0 the indices are (min(p, 2), max(p, 2)); delta = 0 recovers
    ``PowerLaw(p)``.
    """

    # Below this value of t/delta the closed form of phi suffers catastrophic
    # cancellation; a binomial series in t/delta is exact to machine precision.
    _SERIES_CUT = 0.5

    def __init__(self, p: float, delta: float):
        self.p = _check_exponent(p)
        self.delta = float(delta)
        if not (0.0 <= self.delta < math.inf):
            raise DomainError(f"delta must be finite and nonnegative, got {delta}")
        self.singular_at_zero = self.delta == 0.0 and self.p < 2.0

    def _fields(self):
        return [("variant", "delta_power"), ("p", self.p), ("delta", self.delta)]

    def _phi_series(self, t):
        # phi(t) = delta^p * sum_k binom(p-2, k) (t/delta)^(k+2) / (k+2)
        x = t / self.delta
        acc = np.zeros_like(x)
        coeff = 1.0
        x_pow = x * x
        for k in range(120):
            term = coeff * x_pow / (k + 2.0)
            acc += term
            if np.all(np.abs(term) <= 1e-17 * np.abs(acc)):
                break
            coeff *= (self.p - 2.0 - k) / (k + 1.0)
            x_pow = x_pow * x
        return self.delta ** self.p * acc

    def _phi_closed(self, t):
        # phi(t) = delta^p * (expm1(p log1p(x))/p - expm1((p-1) log1p(x))/(p-1))
        lx = np.log1p(t / self.delta)
        val = np.expm1(self.p * lx) / self.p - np.expm1((self.p - 1.0) * lx) / (self.p - 1.0)
        return self.delta ** self.p * val

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        if self.delta == 0.0:
            return t ** self.p / self.p
        cut = self._SERIES_CUT * self.delta
        return _piecewise(t, [(t <= cut, self._phi_series), (t > cut, self._phi_closed)])

    def d_phi(self, t):
        t = np.asarray(t, dtype=float)
        if self.delta == 0.0:
            return t ** (self.p - 1.0)
        return (self.delta + t) ** (self.p - 2.0) * t

    def dd_phi(self, t):
        t = np.asarray(t, dtype=float)
        if self.delta == 0.0:
            self._check_regular(t)
            return (self.p - 1.0) * t ** (self.p - 2.0)
        return (self.delta + t) ** (self.p - 3.0) * ((self.p - 1.0) * t + self.delta)

    def indices(self) -> IndexPair:
        if self.delta == 0.0:
            return IndexPair(self.p, self.p)
        return IndexPair(min(self.p, 2.0), max(self.p, 2.0))


class SumPower(NFunction):
    """phi(t) = t^p + t^q with indices (min(p, q), max(p, q))."""

    def __init__(self, p: float, q: float):
        self.p = _check_exponent(p, "p")
        self.q = _check_exponent(q, "q")
        self.singular_at_zero = min(self.p, self.q) < 2.0

    def _fields(self):
        return [("variant", "sum"), ("p", self.p), ("q", self.q)]

    def phi(self, t):
        return t ** self.p + t ** self.q

    def d_phi(self, t):
        return self.p * t ** (self.p - 1.0) + self.q * t ** (self.q - 1.0)

    def dd_phi(self, t):
        t = np.asarray(t, dtype=float)
        self._check_regular(t)
        return (
            self.p * (self.p - 1.0) * t ** (self.p - 2.0)
            + self.q * (self.q - 1.0) * t ** (self.q - 2.0)
        )

    def indices(self) -> IndexPair:
        return IndexPair(min(self.p, self.q), max(self.p, self.q))


class Truncated(NFunction):
    """phi'(t) frozen to linear growth below ``lo`` and above ``hi``.

    ``lo = 0`` and ``hi = inf`` give one-sided truncations; both finite and
    positive yield quadratic growth.  Values and derivatives agree with the
    base on (lo, hi).  Bounds need 0 <= lo <= hi, lo < inf and hi > 0.
    """

    def __init__(self, base: NFunction, lo: float, hi: float):
        if isinstance(base, Truncated):
            raise DomainError("cannot truncate an already truncated spec")
        lo = float(lo)
        hi = float(hi)
        if not (0.0 <= lo <= hi and lo < math.inf and hi > 0.0):
            raise DomainError(
                f"need 0 <= trunc_lo <= trunc_hi, trunc_lo < oo and trunc_hi > 0, "
                f"got ({lo}, {hi})"
            )
        self.base = base
        self.lo = lo
        self.hi = hi
        self.singular_at_zero = lo == 0.0 and base.singular_at_zero
        # Edges in t and slopes phi'(c)/c of the frozen branches.  An untruncated
        # side gets NaN for both: no comparison with NaN holds, so its mask is
        # empty and its branch is never called, even at t = inf.
        self._lo_t = lo if lo > 0.0 else math.nan
        self._hi_t = hi if math.isfinite(hi) else math.nan
        self._k_lo = base.d_phi(lo) / lo if lo > 0.0 else math.nan
        self._phi_lo = float(base.phi(np.asarray(lo))) if lo > 0.0 else 0.0
        self._k_hi = base.d_phi(hi) / hi if math.isfinite(hi) else math.nan
        if math.isfinite(hi):
            self._phi_at_hi = float(self._phi_branch_mid(np.asarray(hi)))
        # The same edges in s = phi'(t), for the inverse of phi'.
        self._lo_s = self._lo_t * self._k_lo
        self._hi_s = self._hi_t * self._k_hi

    def _fields(self):
        return list(self.base._fields()) + [("trunc_lo", self.lo), ("trunc_hi", self.hi)]

    def _phi_branch_lo(self, t):
        return 0.5 * self._k_lo * t * t

    def _phi_branch_mid(self, t):
        if self.lo > 0.0:
            return self.base.phi(t) - self._phi_lo + 0.5 * self.lo * self.base.d_phi(self.lo)
        return self.base.phi(t)

    def _phi_branch_hi(self, t):
        return self._phi_at_hi + 0.5 * self._k_hi * (t * t - self.hi * self.hi)

    @staticmethod
    def _branches(x, below, above, mid, at_lo, at_hi):
        """``at_lo`` on ``below``, ``at_hi`` on ``above`` and ``mid`` elsewhere."""
        return _piecewise(x, [(~(below | above), mid), (below, at_lo), (above, at_hi)])

    def phi(self, t):
        t = np.asarray(t, dtype=float)
        branches = (self._phi_branch_mid, self._phi_branch_lo, self._phi_branch_hi)
        return self._branches(t, t <= self._lo_t, t > self._hi_t, *branches)

    def d_phi(self, t):
        t = np.asarray(t, dtype=float)
        c = np.clip(t, self.lo, self.hi)
        out = np.zeros_like(t)
        pos = ~(c <= 0.0)  # NaN stays NaN
        if np.any(pos):
            cp = c[pos]
            out[pos] = self.base.d_phi(cp) / cp * t[pos]
        return out

    def dd_phi(self, t):
        t = np.asarray(t, dtype=float)
        frozen = (lambda x: np.full_like(x, self._k_lo), lambda x: np.full_like(x, self._k_hi))
        return self._branches(t, t <= self._lo_t, t >= self._hi_t, self.base.dd_phi, *frozen)

    def d_phi_inv(self, s):
        """Inverse of phi' by branch: s / k_lo up to phi'(lo), s / k_hi from phi'(hi) on,
        and the base's inverse in between."""
        s = _as_float_array(s)
        frozen = (lambda x: x / self._k_lo, lambda x: x / self._k_hi)
        out = self._branches(s, s <= self._lo_s, s >= self._hi_s, self.base.d_phi_inv, *frozen)
        return _float_if_0d(out)

    def indices(self) -> IndexPair:
        # Frozen branches contribute ratio exactly 2; in between the base ratio
        # applies, so (min(p-, 2), max(p+, 2)) is a valid (possibly conservative)
        # index pair whenever any truncation is active.
        base = self.base.indices()
        if self.lo == 0.0 and math.isinf(self.hi):
            return base
        return IndexPair(min(base.p_minus, 2.0), max(base.p_plus, 2.0))

    def truncate(self, lo, hi):
        raise DomainError("cannot truncate an already truncated spec")

    def has_quadratic_growth(self):
        return 0.0 < self.lo <= self.hi < math.inf or self.base.has_quadratic_growth()

    def quadratic_growth_bounds(self):
        if not self.has_quadratic_growth():
            return None
        if self.base.has_quadratic_growth() and (self.lo == 0.0 or math.isinf(self.hi)):
            return self.base.quadratic_growth_bounds()
        interior = INDEX_GRID[(INDEX_GRID > self.lo) & (INDEX_GRID < self.hi)]
        samples = [self._k_lo, self._k_hi]
        if interior.size:
            vals = self.base.dd_phi(interior)
            samples.extend([float(vals.min()), float(vals.max())])
        samples.extend(float(self.base.dd_phi(np.asarray(x))) for x in (self.lo, self.hi))
        return (min(samples), max(samples))


class _Conjugate(NFunction):
    """phi* as an N-function; evaluators go through the inverse of phi'."""

    def __init__(self, base: NFunction):
        self.base = base
        dd0 = math.inf if base.singular_at_zero else float(base.dd_phi(np.asarray(0.0)))
        # (phi*)''(0) = 1 / phi''(0): singular exactly when phi''(0) = 0.
        self.singular_at_zero = dd0 == 0.0
        self._second_at_zero = math.inf if self.singular_at_zero else 1.0 / dd0

    def _fields(self):
        return [("variant", "conjugate")] + [("base_" + k, v) for k, v in self.base._fields()]

    def phi(self, s):
        return self.base.conjugate(s)

    def d_phi(self, s):
        return self.base.d_phi_inv(s)

    def dd_phi(self, s):
        s = np.asarray(s, dtype=float)
        self._check_regular(s)
        zero = s == 0.0
        if np.any(zero):
            return _piecewise(
                s,
                [
                    (zero, lambda x: np.full_like(x, self._second_at_zero)),
                    (~zero, lambda x: 1.0 / self.base.dd_phi(self.base.d_phi_inv(x))),
                ],
            )
        return 1.0 / self.base.dd_phi(self.base.d_phi_inv(s))

    def d_phi_inv(self, s):
        # ((phi*)')^-1 = phi' exactly.
        return _float_if_0d(self.base.d_phi(_as_float_array(s)))

    def indices(self) -> IndexPair:
        return self.base.indices().conjugate()


# ---------------------------------------------------------------------------
# Scalar inequality gaps
# ---------------------------------------------------------------------------


def young_gap(spec: NFunction, s, t, lam: float = 1.0):
    """lam^(1 - p_plus) phi(s) + lam phi*(t) - s t; nonnegative for lam in (0, 1]."""
    if not (0.0 < lam <= 1.0):
        raise DomainError(f"lambda must lie in (0, 1], got {lam}")
    s_arr = _as_float_array(s)
    t_arr = _as_float_array(t)
    p_plus = spec.indices().p_plus
    out = lam ** (1.0 - p_plus) * spec.phi(s_arr) + lam * spec.conjugate(t_arr) - s_arr * t_arr
    return _float_if_0d(out)


def simonenko_gap(spec: NFunction, t):
    """(phi'(t) t / phi(t) - p_minus, p_plus - phi'(t) t / phi(t)); both >= 0."""
    arr = _as_float_array(t)
    if np.any(arr == 0.0):
        raise DomainError("simonenko ratio needs t > 0")
    ratio = spec.d_phi(arr) * arr / spec.phi(arr)
    idx = spec.indices()
    return _float_if_0d(ratio - idx.p_minus), _float_if_0d(idx.p_plus - ratio)


def truncation_dual_gap(base: NFunction, lo: float, hi: float, s):
    """| (phi_trunc)*(s) - (phi*)_trunc(s) | with both sides computed independently.

    The left side conjugates the truncated spec (through its branchwise
    inverse of phi'); the right side truncates the conjugate spec at
    (phi'(lo), phi'(hi)) and evaluates it (through the base's inverse of
    phi').  The two must agree up to numeric tolerance.
    """
    if not (0.0 < lo <= hi < math.inf):
        raise DomainError(f"need 0 < lo <= hi < oo, got ({lo}, {hi})")
    lhs = Truncated(base, lo, hi).conjugate(s)
    rhs_spec = Truncated(base.conjugate_spec(), float(base.d_phi(lo)), float(base.d_phi(hi)))
    rhs = rhs_spec.phi(np.asarray(s, dtype=float))
    return _float_if_0d(np.abs(lhs - rhs))


# ---------------------------------------------------------------------------
# Plain-text serialization
# ---------------------------------------------------------------------------

#: The keys of a spec block and the types of their values.
SPEC_KEYS = {
    "variant": str,
    "p": float,
    "q": float,
    "delta": float,
    "trunc_lo": float,
    "trunc_hi": float,
}


def to_text(spec: NFunction) -> str:
    """Serialize to a key=value block, one pair per line."""
    if isinstance(spec.base if isinstance(spec, Truncated) else spec, _Conjugate):
        raise DomainError("conjugate specs are derived objects and do not serialize")
    return "\n".join(f"{k}={v}" for k, v in spec._fields()) + "\n"


def from_text(text: str) -> NFunction:
    """Parse the key=value block produced by :func:`to_text`.

    Commas and newlines both separate pairs, so the inline form
    ``variant=power, p=2.0`` round-trips as well.
    """
    pairs = {}
    for chunk in text.replace(",", "\n").splitlines():
        chunk = chunk.strip()
        if not chunk or chunk.startswith("#"):
            continue
        if "=" not in chunk:
            raise DomainError(f"malformed spec entry {chunk!r} (expected key=value)")
        key, _, value = chunk.partition("=")
        pairs[key.strip()] = value.strip()
    return from_mapping(pairs)


def from_mapping(block) -> NFunction:
    """Build a spec from a mapping over :data:`SPEC_KEYS`; values may be text."""
    pairs = dict(block)
    for key in pairs:
        if key not in SPEC_KEYS:
            raise DomainError(f"unknown spec key {key!r}")

    variant = pairs.pop("variant", None)
    if variant is None:
        raise DomainError("spec block is missing the 'variant' key")

    def take(key, default=None):
        raw = pairs.pop(key, None)
        if raw is None:
            if default is None:
                raise DomainError(f"spec variant {variant!r} requires key {key!r}")
            return default
        try:
            return SPEC_KEYS[key](raw)
        except ValueError:
            raise DomainError(f"spec key {key!r} has non-numeric value {raw!r}") from None

    lo = take("trunc_lo", 0.0)
    hi = take("trunc_hi", math.inf)
    if variant == "power":
        base = PowerLaw(take("p"))
    elif variant == "delta_power":
        base = DeltaPower(take("p"), take("delta"))
    elif variant == "sum":
        base = SumPower(take("p"), take("q"))
    else:
        raise DomainError(f"unknown spec variant {variant!r}")
    if pairs:
        raise DomainError(f"spec keys {sorted(pairs)} do not apply to variant {variant!r}")
    return base.truncate(lo, hi)
