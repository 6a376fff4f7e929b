"""Finite classical model: function obstates on a weighted finite set.

Scalars live on the projective value line (floats plus the single point
INF), functions are value tuples over m sites, densities are positive
weights, and bijections of the site set act on everything.  The pairing
sum(mu_p f_p g_p) with the usual measure-theoretic conventions for
infinite values is the model's expectation functional, and the density
pushforward phi' = mu(phi^{-1}(q)) / mu(q) makes it relabeling-invariant.

All identities here are exact rational/float arithmetic (no linear
algebra), which is what makes this model the sharp oracle for the
operator engine at n = 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .algebra import _as_real, rng_from
from .crossratio import INF, Infinity, classical_cr, is_inf
from .errors import (
    DegenerateReferenceError,
    DimensionError,
    IndeterminateError,
    NegativeWeightError,
    NonFiniteError,
    NotAPermutationError,
    ValueOverflowError,
    ZeroWeightError,
)

Value = Union[float, Infinity]


def _as_value(v) -> Value:
    if v is INF:  # is_inf(v): Infinity.__new__ returns its one instance
        return INF
    f = _as_real(v, "values")
    if not math.isfinite(f):
        raise NonFiniteError("values must be finite floats or INF")
    return f


def real_like(a, b, c, d) -> bool:
    """True iff the four complex-projective values lie on a generalized circle.

    Concyclicity (lines count as circles through INF) is equivalent to the
    cross-ratio (a, b; c, d) being real; an infinite cross-ratio is a real
    projective value and counts as real.
    """
    cr = classical_cr(a, b, c, d)
    if is_inf(cr):
        return True
    cr = complex(cr)
    return abs(cr.imag) <= 1e-9 * (1.0 + abs(cr))


@dataclass(frozen=True)
class ClassicalFn:
    """A function on m sites with values in R u {INF}."""

    values: tuple

    def __init__(self, values: Sequence):
        object.__setattr__(self, "values", tuple(_as_value(v) for v in values))

    @property
    def size(self) -> int:
        return len(self.values)

    def __getitem__(self, p: int) -> Value:
        return self.values[p]

    def map(self, f: Callable[[Value], Value]) -> "ClassicalFn":
        return ClassicalFn([f(v) for v in self.values])


def constant_fn(value, m: int) -> ClassicalFn:
    return ClassicalFn([value] * m)


@dataclass(frozen=True)
class Measure:
    """Nonnegative weights on m sites."""

    weights: tuple

    def __init__(self, weights: Sequence[float]):
        ws = tuple(math.inf if w is INF else _as_real(w, "weights") for w in weights)
        for p, w in enumerate(ws):
            if not math.isfinite(w) or w < 0:
                error = NegativeWeightError if math.isfinite(w) else NonFiniteError
                raise error(f"weights must be finite and nonnegative: {w} at site {p}")
        object.__setattr__(self, "weights", ws)

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def total(self) -> float:
        return float(sum(self.weights))


@dataclass(frozen=True)
class Bijection:
    """A permutation of the site set {0, ..., m-1}, stored as images."""

    images: tuple

    def __init__(self, images: Sequence[int]):
        # operator.index takes integers only, so 1.7 is not truncated nor "1" parsed; a bool
        # is an int to Python but not a site
        given = tuple(images)
        try:
            imgs = tuple(operator.index(i) for i in given)
        except TypeError:
            imgs = None
        if imgs is None or any(isinstance(i, (bool, np.bool_)) for i in given):
            raise NotAPermutationError("bijection images must be integers")
        if sorted(imgs) != list(range(len(imgs))):
            raise NotAPermutationError("not a permutation of 0..m-1")
        object.__setattr__(self, "images", imgs)

    @property
    def size(self) -> int:
        return len(self.images)

    def __call__(self, p: int) -> int:
        return self.images[p]

    def inverse(self) -> "Bijection":
        inv = [0] * len(self.images)
        for p, q in enumerate(self.images):
            inv[q] = p
        return Bijection(inv)

    def compose(self, other: "Bijection") -> "Bijection":
        """self after other: (self.compose(other))(p) = self(other(p))."""
        if self.size != other.size:
            raise DimensionError("bijections act on different site sets")
        return Bijection([self(other(p)) for p in range(self.size)])


def random_bijection(m: int, rng) -> Bijection:
    return Bijection(rng_from(rng).permutation(m).tolist())


# --- the pointwise obstate value ---------------------------------------------------

def fn_obstate_value(f: ClassicalFn, f1: ClassicalFn, f0: ClassicalFn,
                     finf: ClassicalFn, p: int) -> Value:
    """The affine coordinate of f(p) in the frame (f1, f0, finf)(p).

    This is the cross-ratio (f(p), f1(p); f0(p), finf(p)): the unique
    projective coordinate sending f0 -> 0, f1 -> 1, finf -> INF.  The
    reference triple must be pointwise distinct; f itself may collide
    with any reference (giving 0, 1 or INF).
    """
    a, b, c, d = f[p], f1[p], f0[p], finf[p]
    if b == c or c == d or b == d:
        raise DegenerateReferenceError(
            f"reference triple must be pointwise distinct, site {p}")
    return classical_cr(a, b, c, d)


def fn_obstate(f: ClassicalFn, f1: ClassicalFn, f0: ClassicalFn,
               finf: ClassicalFn) -> ClassicalFn:
    """All fn_obstate_value coordinates at once."""
    if not (f.size == f1.size == f0.size == finf.size):
        raise DimensionError("fn_obstate arguments live on different site sets")
    return ClassicalFn([fn_obstate_value(f, f1, f0, finf, p)
                        for p in range(f.size)])


# --- cyclic order on the value line ------------------------------------------------

def cyclic_order(a: Value, b: Value, c: Value) -> bool:
    """True iff a <= b in the affine order of the complement of c.

    For c = INF the order is the usual one; for finite c the chart
    x -> -1/(x - c) (sending c to INF, INF to 0) transports it.
    """
    a, b, c = _as_value(a), _as_value(b), _as_value(c)
    if is_inf(c):
        if is_inf(a) or is_inf(b):
            raise IndeterminateError("endpoints must avoid the cut point")
        return a <= b

    def m(x: Value) -> float:
        if is_inf(x):
            return 0.0
        if x == c:
            raise IndeterminateError("endpoints must avoid the cut point")
        return -1.0 / (x - c)

    return m(a) <= m(b)


def separates(c: Value, d: Value, a: Value, b: Value) -> bool:
    """Whether the pair (c, d) separates the pair (a, b) on the circle.

    Equivalent to a negative cross-ratio CR(a, b; c, d) for four
    distinct points.
    """
    return ((cyclic_order(a, c, b) and cyclic_order(b, d, a))
            or (cyclic_order(a, d, b) and cyclic_order(b, c, a)))


# --- the pairing and its invariance -------------------------------------------------

def pairing(mu: Measure, f: ClassicalFn, g: ClassicalFn) -> Value:
    """sum over sites of mu_p f_p g_p with measure-theoretic conventions.

    A site with mu_p = 0 contributes nothing whatever the values; a
    site with mu_p > 0 and an INF factor against a nonzero factor makes
    the whole sum INF; 0 * INF against positive weight has no consistent
    value and raises.  A finite sum that overflows the float range (to
    inf, or to nan when overflows of both signs meet) raises too.
    """
    if not (mu.size == f.size == g.size):
        raise DimensionError("pairing arguments live on different site sets")
    total = 0.0
    infinite = False
    for w, fv, gv in zip(mu.weights, f.values, g.values):
        if w == 0.0:
            continue
        fi, gi = is_inf(fv), is_inf(gv)
        if fi or gi:
            if (fi and not gi and gv == 0.0) or (gi and not fi and fv == 0.0):
                raise IndeterminateError("0 * INF on a site of positive weight")
            infinite = True
            continue
        total += w * fv * gv
    if infinite:
        return INF
    if not math.isfinite(total):
        raise ValueOverflowError("pairing overflows the float range: the sum of "
                                 "mu_p f_p g_p over finite values is not finite")
    return total


def density_pushforward(phi: Bijection, mu: Measure) -> ClassicalFn:
    """phi'(q) = mu(phi^{-1}(q)) / mu(q): the density of phi_* mu against mu.

    Defined only where mu is strictly positive.  A ratio of two positive
    weights that underflows to 0 or overflows to inf raises ValueOverflowError.
    """
    if mu.size != phi.size:
        raise DimensionError("measure and bijection live on different site sets")
    if 0.0 in mu.weights:
        raise ZeroWeightError("pushforward density needs strictly positive weights")
    inv = phi.inverse()
    out = []
    for q in range(mu.size):
        ratio = mu.weights[inv(q)] / mu.weights[q]
        if ratio == 0.0 or math.isinf(ratio):
            raise ValueOverflowError(
                f"pushforward density at site {q}: the weight ratio {mu.weights[inv(q)]!r} / "
                f"{mu.weights[q]!r} lies outside the float range")
        out.append(ratio)
    return ClassicalFn(out)


def fn_pullback(f: ClassicalFn, phi: Bijection) -> ClassicalFn:
    """f o phi^{-1}: the relabeled function."""
    inv = phi.inverse()
    return ClassicalFn([f[inv(q)] for q in range(f.size)])


def density_action(phi: Bijection, mu: Measure, h: ClassicalFn) -> ClassicalFn:
    """phi.h = phi' * (h o phi^{-1}): the action on densities.

    Satisfies the chain rule (phi o psi).h = phi.(psi.h) and makes the
    pairing invariant: pairing(mu, phi.f-as-plain-relabel, phi.h) =
    pairing(mu, f, h) when f transforms as a function and h as a density.
    A finite product phi'(q) h(phi^{-1}(q)) that overflows raises
    ValueOverflowError.
    """
    deriv = density_pushforward(phi, mu)
    moved = fn_pullback(h, phi)
    out = []
    for q in range(mu.size):
        dv, hv = deriv[q], moved[q]
        if is_inf(hv):
            out.append(INF)  # dv > 0: density_pushforward rejects a ratio that underflows
            continue
        product = dv * hv
        if math.isinf(product):
            raise ValueOverflowError(
                f"density action at site {q}: the product {dv!r} * {hv!r} of the pushforward "
                f"density and the moved value lies outside the float range")
        out.append(product)
    return ClassicalFn(out)


def fn_expectation(mu: Measure, f: ClassicalFn, h: ClassicalFn,
                   f1: ClassicalFn, f0: ClassicalFn, finf: ClassicalFn) -> Value:
    """Expectation of the obstate coordinate of f against the density h."""
    coords = fn_obstate(f, f1, f0, finf)
    return pairing(mu, coords, h)
