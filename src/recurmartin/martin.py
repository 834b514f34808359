"""Harmonic profiles attached to boundary points and their mixtures.

A profile is a nonnegative function vanishing at its base state and
harmonic everywhere else. Each boundary point alpha induces one through
the visit-ratio kernel, scaled by the reciprocal stationary weight of the
base state; finite nonnegative mixtures of kernels sweep out the cone of
such profiles, and on the integer line the cone is exactly
two-dimensional, so profiles there decompose into the two end weights.

Profile and mixture values are built from the integer numerators and
denominators of the kernel values, the base weight and the mixture
weights, with one ``Fraction`` per value. A kernel that returns values
other than ints and Fractions (floats, say) keeps the plain arithmetic
``L / beta(x0)`` and ``sum(w * L)``, and so its result type.

Every profile here, and ``htransform``'s row-sum weight, is a kernel sum,
whose array form ``kernel_sum_array`` builds; the value function carries it
as its ``array_values`` attribute, so a harmonicity check builds no
``Fraction`` per state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

import numpy as np

from .chains import ChainSpec, StateId, kernel_array
from .errors import NotInConeError
from .examplechains import LineEnd, ZWalk, exact_martin_boundary
from .window import one_step_sums, rational_sum, state_mask

@dataclass(frozen=True)
class HarmonicProfile:
    """A function vanishing at ``base_point`` and harmonic off it."""

    base_point: StateId
    fn: Callable[[StateId], object]
    description: str = ""

    def evaluate(self, x: StateId):
        if x == self.base_point:
            return Fraction(0)
        return self.fn(x)

    __call__ = evaluate

    @property
    def array_values(self):
        """fn's array form, which reads 0 at the base (``kernel_sum_array``), or None."""
        return getattr(self.fn, "array_values", None)


@dataclass(frozen=True)
class BoundaryMixture:
    """Finite atomic measure on boundary points."""

    atoms: tuple

    def __init__(self, atoms: Sequence[tuple]):
        cleaned = []
        for alpha, w in atoms:
            w = Fraction(w)
            if w < 0:
                raise ValueError("mixture weights must be nonnegative")
            cleaned.append((alpha, w))
        object.__setattr__(self, "atoms", tuple(cleaned))

    @property
    def total_mass(self) -> Fraction:
        return sum((w for _, w in self.atoms), Fraction(0))


def kernel_sum_array(chain: ChainSpec, x0: StateId, atoms, constant=0, divisor=1):
    """The array form ``array_values(table, codes)`` of (constant + sum of
    w * L(., alpha) over the ``(alpha, w)`` of atoms) / divisor, with L the
    kernel based at x0 and read as 0 there; None when the kernel has no
    array form (``chains.kernel_array``). Its values are integer numerators
    over one denominator (``window.rational_sum``), or None for a table the
    kernel's form cannot read. The rational factors go into the sum's
    coefficients and denominators, so a call is one kernel call per atom,
    one sum and one ``state_mask``."""
    kernel = kernel_array(chain)
    if kernel is None:
        return None
    q, p = divisor.denominator, divisor.numerator  # each term times q, the sum over p
    top, bottom = constant.numerator * q, constant.denominator

    def array_values(table, codes):
        terms = [(top, 1, bottom)] if top else []
        for alpha, w in atoms:
            ell = kernel(table, codes, alpha, x0)
            if ell is None:
                return None
            terms.append((w.numerator * q, ell[0], ell[1] * w.denominator))
        nums, den = rational_sum(terms, len(codes))
        nums[state_mask(table, codes, x0)] = top * (den // bottom)
        return nums, den * p

    return array_values


def profile_from_boundary(chain: ChainSpec, x0: StateId, alpha) -> HarmonicProfile:
    """The profile of a single boundary point: kernel over base weight.

    phi(x) = L(x, alpha) / beta(x0) away from the base state, zero there,
    with L the chain's closed-form kernel (``exact_martin_boundary``). Its
    one-step balance at the base is exactly 1/beta(x0). When beta(x0) is a
    Fraction and L(x) rational, phi(x) is built as one Fraction; with a
    Fraction beta(x0), phi carries ``kernel_sum_array``'s form.
    """
    beta0 = chain.stationary(x0)
    rational = isinstance(beta0, Fraction)
    top, bottom = (beta0.denominator, beta0.numerator) if rational else (1, 1)

    def fn(x):
        ell = exact_martin_boundary(chain, x0, x, alpha)
        if rational and isinstance(ell, (int, Fraction)):
            return Fraction(ell.numerator * top, ell.denominator * bottom)
        return ell / beta0

    fn.array_values = kernel_sum_array(chain, x0, [(alpha, 1)], divisor=beta0) if rational else None
    return HarmonicProfile(
        base_point=x0,
        fn=fn,
        description=f"boundary point {alpha} over base {chain.format_state(x0)}",
    )


def mixture_profile(chain: ChainSpec, x0: StateId, mixture: BoundaryMixture) -> HarmonicProfile:
    """Kernel mixture: phi(x) = sum of w_i * L(x, alpha_i), zero at the base.

    The one-step balance at the base equals the mixture's total mass
    exactly, because each kernel contributes balance 1. The weights are put
    over their least common denominator once; when every L(x, alpha_i) is
    rational, phi(x) is one Fraction of integer sums. phi carries
    ``kernel_sum_array``'s form.
    """
    alphas = [alpha for alpha, _ in mixture.atoms]
    weights = [w for _, w in mixture.atoms]
    lcd = math.lcm(1, *(w.denominator for w in weights))
    scaled = [w.numerator * (lcd // w.denominator) for w in weights]

    def fn(x):
        ells = [exact_martin_boundary(chain, x0, x, alpha) for alpha in alphas]
        num, den = 0, 1  # sum of scaled[i] * ells[i] so far is num / den
        for c, ell in zip(scaled, ells):
            if not isinstance(ell, (int, Fraction)):
                return sum((w * v for w, v in zip(weights, ells)), Fraction(0))
            d = ell.denominator
            num = num * d + c * ell.numerator * den
            den *= d
        return Fraction(num, den * lcd)

    fn.array_values = kernel_sum_array(chain, x0, mixture.atoms)
    return HarmonicProfile(
        base_point=x0,
        fn=fn,
        description=f"{len(mixture.atoms)}-atom mixture over base {chain.format_state(x0)}",
    )


def decompose_profile_z(
    phi: HarmonicProfile, radius: int = 50, chain: Optional[ZWalk] = None
) -> BoundaryMixture:
    """Recover the two end weights of a base-0 profile on the integer line.

    The candidate weights are read off one step from the base,
    (a, b) = (phi(1)/2, phi(-1)/2), then the reconstruction
    phi(x) = 2a*max(x,0) + 2b*max(-x,0) is verified across the window.
    Failure at any point means the input is not in the nonnegative cone
    spanned by the two end profiles.
    """
    chain = chain or ZWalk()
    if phi.base_point != 0:
        raise NotInConeError("decomposition requires base point 0")
    a = Fraction(phi(1)) / 2
    b = Fraction(phi(-1)) / 2
    if a < 0 or b < 0:
        raise NotInConeError("negative end weight; profile not in the cone")
    for x in chain.window(radius):
        expected = 2 * a * max(x, 0) + 2 * b * max(-x, 0)
        if Fraction(phi(x)) != expected:
            raise NotInConeError(
                f"profile deviates from the end-point cone at x={x}"
            )
    return BoundaryMixture([(LineEnd(1), a), (LineEnd(-1), b)])


@dataclass
class HarmonicityCheck:
    base_point: StateId
    checked: int
    violations: list = field(default_factory=list)
    balance_at_base: object = None

    @property
    def all_ok(self) -> bool:
        return not self.violations


def check_harmonic_except(
    chain: ChainSpec, phi, x0: StateId, window: int | Sequence[StateId]
) -> HarmonicityCheck:
    """One-step residuals of phi off x0, plus the balance value at x0.

    The residual at x is the one-step average minus the value; it must
    vanish at every window state except the base, where the balance (not
    constrained to vanish) is reported instead. ``window`` is a radius or a
    state sequence (``window.window_codes``). Both come from one
    ``window.one_step_sums`` pass, which tests every residual for zero in
    one integer array comparison (with phi's array form, when it has one,
    giving its values); the base is found among the codes
    (``window.state_mask``), and a state is decoded and a residual or
    balance ``Fraction`` built only where it is reported.
    """
    step = one_step_sums(chain, window, phi)
    at_base = state_mask(step.table, step.codes, x0)
    report = HarmonicityCheck(base_point=x0, checked=len(step.codes) - int(at_base.sum()))
    for i in np.flatnonzero(at_base).tolist():
        report.balance_at_base = step.average(i)
    bad = np.flatnonzero(step.unbalanced() & ~at_base)
    for x, i in zip(step.table.decode(step.codes[bad]), bad.tolist()):
        report.violations.append((x, step.average(i) - step.value(i)))
    return report
