"""Exact scalar arithmetic over the rationals and over prime fields GF(p).

Scalars are plain values: ``fractions.Fraction`` for the rationals,
canonical residues ``0..p-1`` (ints) for GF(p).  Arithmetic goes
through a :class:`Field`, except in two places that run on plain values
and reduce with ``% p`` or build ``Fraction``s themselves: ``linear``'s
elimination (one step, ``_extend``, on the one reducer ``_residue``,
shared by ``rref``, membership, sums and the running basis ``Span`` of
the closures, of tightness and of the decomposition complements) and
``model.verify_all``, which
sums the ten algebra laws over integer tables: the residues themselves
over GF(p), each entry times the lcm D of all the tables' denominators
over Q; a sum is tested with ``% p`` or against 0, and only a witness
is turned back into a scalar.  Both take
canonical values of the field unchecked, like the kernels below.

Scalars are validated once, where they enter the program: ``parse`` and
``from_int`` produce canonical values, and ``check`` guards the entry
points that take scalars from outside: ``BilinearRule`` tables and
``GradedBasis.checked_row``, which serves the public constructor
``GradedSubspace(...)``.  The graded-ideal
predicates of ``model`` test membership with the unchecked private
``GradedSubspace._contains``, on the images they compute from checked
tables.  ``format`` checks what it prints, and refuses (``GuardError``)
a derived rational too long for CPython to print.  The matrix kernels of
``linear`` (``rref`` and the rest) and the arithmetic kernels ``add``,
``neg``, ``sub``, ``mul``, ``inv`` and ``is_zero`` assume canonical
values of this field and do not check them; ``inv`` still refuses zero.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Union

from .errors import GuardError, ScalarParseError

Scalar = Union[int, Fraction]

_SCALAR_RE = re.compile(r"[+-]?\d+(?:/\d+)?")

# a Fraction is immutable, so the rationals' zero and one are built once
_Q_ZERO = Fraction(0)
_Q_ONE = Fraction(1)


# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster 2015); larger moduli are refused, not guessed.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MODULUS_LIMIT = 3317044064679887385961981


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin for ``n < MODULUS_LIMIT``."""
    if n >= MODULUS_LIMIT:
        raise ScalarParseError(f"modulus {n} is too large: primality is decided below {MODULUS_LIMIT}")
    if n < 2:
        return False
    for q in _MR_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class Field:
    """The rationals (``kind='rational'``) or GF(p) (``kind='prime'``)."""

    kind: str
    p: int | None = None

    def __post_init__(self) -> None:
        if self.kind == "rational":
            if self.p is not None:
                raise ValueError("rational field takes no modulus")
        elif self.kind == "prime":
            if self.p is None or not _is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    # -- presentation ---------------------------------------------------

    @property
    def characteristic(self) -> int:
        return 0 if self.kind == "rational" else int(self.p or 0)

    @property
    def label(self) -> str:
        return "q" if self.kind == "rational" else f"gf{self.p}"

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Field({self.label})"

    # -- element management ---------------------------------------------

    def check(self, x: Scalar) -> Scalar:
        """Validate that ``x`` is a canonical element of this field."""
        if self.kind == "rational":
            if not isinstance(x, Fraction):
                raise TypeError(f"{x!r} is not a rational scalar")
        else:
            if not isinstance(x, int) or isinstance(x, bool):
                raise TypeError(f"{x!r} is not a GF({self.p}) residue")
            if not 0 <= x < self.p:  # type: ignore[operator]
                raise ValueError(f"{x!r} out of range for GF({self.p})")
        return x

    @property
    def zero(self) -> Scalar:
        return _Q_ZERO if self.kind == "rational" else 0

    @property
    def one(self) -> Scalar:
        return _Q_ONE if self.kind == "rational" else 1

    def from_int(self, n: int) -> Scalar:
        return Fraction(n) if self.kind == "rational" else n % self.p  # type: ignore[operator]

    # The kernels below take canonical values of this field unchecked;
    # ``p is None`` exactly for the rationals.

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return a + b if self.p is None else (a + b) % self.p

    def neg(self, a: Scalar) -> Scalar:
        return -a if self.p is None else (-a) % self.p

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return a - b if self.p is None else (a - b) % self.p

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return a * b if self.p is None else (a * b) % self.p

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        if self.p is None:
            return Fraction(1) / a
        return pow(a, -1, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def is_zero(self, a: Scalar) -> bool:
        return a == 0

    # -- text round trip -------------------------------------------------

    def parse(self, text: str) -> Scalar:
        """Parse ``[+-]digits[/digits]``.  Floats are rejected on purpose."""
        if not isinstance(text, str) or _SCALAR_RE.fullmatch(text) is None:
            raise ScalarParseError(f"bad scalar literal {text!r}")
        num_s, _, den_s = text.partition("/")
        try:
            num, den = int(num_s), int(den_s or "1")
        except ValueError:  # past CPython's integer-string digit limit
            raise ScalarParseError(f"scalar literal has over {sys.get_int_max_str_digits()} digits") from None
        if den == 0:
            raise ScalarParseError(f"zero denominator in {text!r}")
        if self.kind == "rational":
            return Fraction(num, den)
        if den % self.p == 0:  # type: ignore[operator]
            raise ScalarParseError(f"denominator of {text!r} vanishes in GF({self.p})")
        return self.mul(num % self.p, self.inv(den % self.p))  # type: ignore[operator]

    def format(self, x: Scalar) -> str:
        self.check(x)
        try:
            return str(x)
        except ValueError:  # a derived rational past CPython's integer-string digit limit
            raise GuardError(f"a derived scalar has over {sys.get_int_max_str_digits()} digits") from None

    def elements(self) -> Iterator[Scalar]:
        """All field elements; only available for prime fields."""
        if self.kind != "prime":
            raise ValueError("cannot enumerate an infinite field")
        return iter(range(self.p))  # type: ignore[arg-type]

    def to_json(self) -> dict:
        if self.kind == "rational":
            return {"kind": "rational"}
        return {"kind": "prime", "p": self.p}


RATIONALS = Field("rational")


def prime_field(p: int) -> Field:
    return Field("prime", p)


def parse_field_label(label: str) -> Field:
    """Field from a CLI label: ``q``/``rational`` or ``gf<p>``/``f<p>``."""
    text = label.strip().lower()
    if text in ("q", "qq", "rational", "rationals"):
        return RATIONALS
    m = re.fullmatch(r"(?:gf|f)(\d+)", text)
    if m is None:
        raise ScalarParseError(f"unknown field label {label!r}")
    if len(m.group(1).lstrip("0")) > len(str(MODULUS_LIMIT)):  # too large, and maybe too long for int()
        raise ScalarParseError(
            f"field label modulus has {len(m.group(1))} digits: primality is decided below {MODULUS_LIMIT}")
    try:
        return prime_field(int(m.group(1)))
    except ValueError as exc:
        raise ScalarParseError(str(exc)) from None


def field_from_json(data: dict) -> Field:
    kind = data.get("kind") if isinstance(data, dict) else None
    if kind == "rational":
        return RATIONALS
    if kind == "prime":
        p = data.get("p")
        if isinstance(p, bool) or not isinstance(p, int):
            raise ScalarParseError(f"bad prime field spec {data!r}: p must be an integer, got {p!r}")
        try:
            return prime_field(p)
        except ValueError as exc:
            raise ScalarParseError(f"bad prime field spec {data!r}: {exc}") from None
    raise ScalarParseError(f"unknown field spec {data!r}")
