"""Exact finitely-supported subdistributions over symbolic outcomes.

A subdistribution assigns a positive rational weight to finitely many
outcomes, with total mass at most 1.  Missing mass records the failure
probability of earlier observations.  All arithmetic is exact.  Values
are checked where they enter: the public `Subdist` constructor checks
every weight (floats are rejected outright), outcome and the mass, and
`dirac` and `uniform` their outcomes; `Subdist._of_numerators`, for
values already checked, checks nothing.  Weights are stored as integer
numerators over one denominator, as the evaluation engine in `semantics`
and the parser's CASE/GEN tables compute them, so equality, hashing and
the engine's reads stay in integers; a weight's `fractions.Fraction` is
made on its first read (`mass`, `weight`, `entries`, `items`) and kept.

A subdistribution is a map; its canonical outcome order (see
`outcome_key`) is computed on the first ordered read (`items`, `support`,
`ket`) and kept.  Equality, hashing, `mass` and `weight` never sort.

Outcomes are symbols (plain strings), integers (including `Dollar`,
an integer that prints with a ``$`` prefix and equals no plain integer),
flat tuples of outcomes, or frozensets of outcomes.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Union

from .errors import (
    DomainError,
    EmptySupport,
    InvalidSubdistribution,
    NonNumericOutcome,
    PredicateTypeError,
    WeightTooLong,
)

Outcome = Union[str, int, tuple, frozenset]

ZERO = Fraction(0)


class Dollar(int):
    """An integer outcome rendered with a dollar prefix, e.g. ``$10``.

    ``$3`` and ``3`` are different outcomes: a `Dollar` equals only a
    `Dollar`.  Both `__eq__` and `__ne__` are needed, as `int.__ne__` would
    still call them equal; the hash stays the int's.
    """

    def __repr__(self) -> str:
        return f"${int(self)}"

    __str__ = __repr__

    def __eq__(self, other) -> bool:
        return isinstance(other, Dollar) and int.__eq__(self, other)

    def __ne__(self, other) -> bool:
        return not self.__eq__(other)

    __hash__ = int.__hash__


class Failure:
    """Singleton returned by `rescale` on the zero subdistribution."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "Failure"


FAILURE = Failure()


def as_weight(value) -> Fraction:
    """Coerce an exact number to Fraction; floats are a hard error."""
    if type(value) is Fraction:
        return value
    if isinstance(value, float):
        raise InvalidSubdistribution(f"float weight {value!r}; weights must be exact rationals")
    if isinstance(value, bool):
        raise InvalidSubdistribution("bool is not a weight")
    if isinstance(value, (int, Fraction)):
        return Fraction(value)
    raise InvalidSubdistribution(f"not a rational weight: {value!r}")


def outcome_key(x: Outcome):
    """Total ordering key: integers, then symbols, then tuples, then sets;
    an integer comes before the `Dollar` of the same amount."""
    if isinstance(x, bool):
        raise InvalidSubdistribution("bool is not an outcome")
    if isinstance(x, int):
        return (0, int(x), 1) if isinstance(x, Dollar) else (0, x)
    if isinstance(x, str):
        return (1, x)
    if isinstance(x, tuple):
        return (2, [outcome_key(e) for e in x])
    if isinstance(x, frozenset):
        return (3, sorted(outcome_key(e) for e in x))
    raise InvalidSubdistribution(f"not an outcome: {x!r}")


def render_outcome(x: Outcome) -> str:
    """Canonical text of one outcome, as it appears inside a ket."""
    if isinstance(x, Dollar):
        return repr(x)
    if isinstance(x, (int, str)):
        return str(x)
    if isinstance(x, tuple):
        return ",".join(render_outcome(e) for e in x)
    if isinstance(x, frozenset):
        inner = ",".join(render_outcome(e) for e in sorted(x, key=outcome_key))
        return "{" + inner + "}"
    raise InvalidSubdistribution(f"not an outcome: {x!r}")


_max_str_digits = getattr(sys, "get_int_max_str_digits", int)  # no limit before 3.10.7
# the limit is 0 (none) or at least this many digits, so a number below
# _SHORT needs no further check
_SHORT = 10 ** getattr(sys.int_info, "str_digits_check_threshold", 0)


def weight_parts(w: Fraction) -> tuple[int, int]:
    """Numerator and denominator of a weight that is about to be printed.

    Python turns an integer of more than ``sys.get_int_max_str_digits()``
    digits into text only with a ValueError; every path that prints a
    weight comes through here and gets a WeightTooLong instead.
    """
    num, den = w.numerator, w.denominator
    if not (-_SHORT < num < _SHORT and den < _SHORT):
        limit = _max_str_digits()
        if limit and (abs(num) >= 10**limit or den >= 10**limit):
            raise WeightTooLong(f"an exact weight has more than {limit} digits, "
                                "more than Python converts to text")
    return num, den


def render_weight(w: Fraction) -> str:
    """``p/q``, or ``p`` when q is 1."""
    num, den = weight_parts(w)
    return str(num) if den == 1 else f"{num}/{den}"


def _flat(x: Outcome) -> tuple:
    return x if isinstance(x, tuple) else (x,)


def collapse_values(values: tuple) -> Outcome:
    """A tuple of values as one outcome: a 1-tuple is its element."""
    return values[0] if len(values) == 1 else values


class Subdist:
    """Immutable finite map from outcomes to positive rational weights,
    held as positive integer numerators ``_nums`` over one denominator
    ``_den``, which equal maps need not share.

    Zero weights are dropped at construction, so the support is exactly
    the set of stored keys.  Total mass must not exceed 1.
    """

    __slots__ = ("_nums", "_den", "_weights", "_mass", "_items")

    def __init__(self, entries: Mapping[Outcome, Fraction] | Iterable[tuple[Outcome, Fraction]]):
        items = entries.items() if isinstance(entries, Mapping) else entries
        store: dict = {}
        for x, w in items:
            w = as_weight(w)
            if w == 0:
                continue
            if w < 0 or w > 1:
                raise InvalidSubdistribution(f"weight {w} for {x!r} outside (0, 1]")
            outcome_key(x)  # validates the outcome shape
            if x in store:
                raise InvalidSubdistribution(f"duplicate outcome {x!r}")
            store[x] = w
        den = math.lcm(*[w.denominator for w in store.values()])
        nums = {x: w.numerator * (den // w.denominator) for x, w in store.items()}
        total = sum(nums.values())
        if total > den:
            raise InvalidSubdistribution(f"total mass {Fraction(total, den)} exceeds 1")
        self._set(den, nums)

    @classmethod
    def _of_numerators(cls, entries: Iterable[tuple[Outcome, int]], denom: int) -> "Subdist":
        """Build from distinct outcomes with positive integer numerators
        over one positive denominator, as the evaluation engine and the
        parser's tables hold them.

        Nothing is checked: each caller builds from values checked where
        they entered (a `Subdist`, a carrier of an `Interpretation`, a
        parsed table), with numerators summing to at most ``denom``.
        """
        self = cls.__new__(cls)
        self._set(denom, dict(entries))
        return self

    def _set(self, den: int, nums: dict) -> None:
        self._nums = nums
        self._den = den
        self._weights = self._mass = self._items = None

    def numerators(self):
        """The (outcome, numerator) pairs, in no particular order, and the
        one denominator they share: the form the evaluation engine reads."""
        return self._nums.items(), self._den

    def _fractions(self) -> dict:
        """Outcome to `Fraction` weight, made on the first call: one
        `Fraction` per distinct numerator."""
        weights = self._weights
        if weights is None:
            made = {n: Fraction(n, self._den) for n in set(self._nums.values())}
            weights = self._weights = {x: made[n] for x, n in self._nums.items()}
        return weights

    @property
    def mass(self) -> Fraction:
        mass = self._mass
        if mass is None:
            mass = self._mass = Fraction(sum(self._nums.values()), self._den)
        return mass

    def support(self) -> list:
        return [x for x, _ in self.items()]

    def weight(self, x: Outcome) -> Fraction:
        return (self._weights or self._fractions()).get(x, ZERO)

    def entries(self):
        """(outcome, weight) pairs in no particular order, without sorting."""
        return self._fractions().items()

    def items(self) -> tuple:
        """Entries in canonical outcome order, sorted on the first call."""
        items = self._items
        if items is None:
            items = self._items = tuple(sorted(self._fractions().items(),
                                               key=lambda kv: outcome_key(kv[0])))
        return items

    def is_zero(self) -> bool:
        return not self._nums

    def is_distribution(self) -> bool:
        return sum(self._nums.values()) == self._den

    def scaled(self, factor: Fraction) -> "Subdist":
        factor = as_weight(factor)
        return Subdist({x: w * factor for x, w in self.entries()})

    def __rmul__(self, factor) -> "Subdist":
        return self.scaled(factor)

    def __add__(self, other: "Subdist") -> "Subdist":
        merged = dict(self.entries())
        for x, w in other.entries():
            merged[x] = merged.get(x, ZERO) + w
        return Subdist(merged)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subdist):
            return False
        a, da, b, db = self._nums, self._den, other._nums, other._den
        if da == db:
            return a == b
        return a.keys() == b.keys() and all(n * db == b[x] * da for x, n in a.items())

    def __hash__(self) -> int:
        # the form over the least denominator is the same for every equal map
        g = math.gcd(self._den, *self._nums.values())
        return hash((self._den // g, frozenset([(x, n // g) for x, n in self._nums.items()])))

    def __repr__(self) -> str:
        return ket(self)

    def __len__(self) -> int:
        return len(self._nums)

    def __contains__(self, x: Outcome) -> bool:
        return x in self._nums


Channel = Union[Mapping[Outcome, Subdist], Callable[[Outcome], Subdist]]


def zero() -> Subdist:
    return Subdist({})


def dirac(x: Outcome) -> Subdist:
    """Point mass 1|x>."""
    return uniform((x,))


def uniform(xs: Iterable[Outcome]) -> Subdist:
    """Equal weight 1/n on each of n distinct outcomes."""
    values = list(xs)
    for x in values:
        outcome_key(x)
    if not values:
        raise EmptySupport("uniform over the empty set")
    if len(set(values)) != len(values):
        raise InvalidSubdistribution("uniform requires distinct outcomes")
    return Subdist._of_numerators([(x, 1) for x in values], len(values))


def tensor(sigma: Subdist, rho: Subdist) -> Subdist:
    """Parallel product; outcome tuples concatenate flat.

    Non-tuple outcomes act as 1-tuples and a resulting 1-tuple collapses
    back to its element, so `dirac(())` is a two-sided unit.
    """
    out: dict = {}
    for x, n in sigma._nums.items():
        for y, m in rho._nums.items():
            joint = collapse_values(_flat(x) + _flat(y))
            out[joint] = out.get(joint, 0) + n * m
    return Subdist._of_numerators(out.items(), sigma._den * rho._den)


def restrict(sigma: Subdist, u: Callable[[Outcome], bool]) -> Subdist:
    """Keep only the monomials satisfying the predicate; weights unchanged."""
    kept = []
    for x in sigma.support():
        try:
            holds = u(x)
        except PredicateTypeError:
            raise
        except Exception as exc:
            raise PredicateTypeError(f"predicate failed on {x!r}: {exc}") from exc
        if not isinstance(holds, bool):
            raise PredicateTypeError(f"predicate returned non-boolean on {x!r}")
        if holds:
            kept.append((x, sigma._nums[x]))
    return Subdist._of_numerators(kept, sigma._den)


def rescale(sigma: Subdist):
    """Split off the validity: Failure on zero, else (mass, mass-1 posterior)."""
    if sigma.is_zero():
        return FAILURE
    return sigma.mass, Subdist._of_numerators(sigma._nums.items(), sum(sigma._nums.values()))


def _apply_channel(f: Channel, x: Outcome) -> Subdist:
    if callable(f):
        result = f(x)
    else:
        try:
            result = f[x]
        except KeyError:
            raise DomainError(f"outcome {x!r} outside channel domain") from None
    if not isinstance(result, Subdist):
        raise DomainError(f"channel produced non-subdistribution for {x!r}")
    return result


def kleisli_extend(f: Channel, sigma: Subdist) -> Subdist:
    """Linear extension of a channel: sum of r_i * f(x_i) over the support."""
    acc: dict = {}
    for x, w in sigma.items():
        for y, v in _apply_channel(f, x).items():
            acc[y] = acc.get(y, ZERO) + w * v
    return Subdist(acc)


def kleisli_compose(f: Mapping[Outcome, Subdist], g: Channel) -> dict:
    """Sequential composition of channels: x -> extension of g over f(x)."""
    return {x: kleisli_extend(g, fx) for x, fx in f.items()}


def normalize_channel(f: Mapping[Outcome, Subdist]) -> dict:
    """Rescale each output to mass 1; inputs with zero mass map to zero."""
    return {x: fx if fx.is_zero() else rescale(fx)[1] for x, fx in f.items()}


def expected_value(d: Subdist) -> Fraction:
    """Weighted sum of integer outcomes."""
    total = ZERO
    for x, w in d.items():
        if isinstance(x, bool) or not isinstance(x, int):
            raise NonNumericOutcome(f"outcome {render_outcome(x)} is not an integer")
        total += w * x
    return total


def ket(sigma: Subdist) -> str:
    """Render as a formal sum, e.g. ``1/3|M> + 2/3|R>``; zero renders as ``0``."""
    if sigma.is_zero():
        return "0"
    parts = [f"{render_weight(w)}|{render_outcome(x)}>" for x, w in sigma.items()]
    return " + ".join(parts)
