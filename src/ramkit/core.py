"""Core domain types for the random assignment model.

Everything is exact: probabilities and shares are `fractions.Fraction`,
comparisons are rational (in)equalities, and no floating point enters the
model anywhere.  Agents and objects are dense 0-based indices internally;
object names and 1-based agent numbers appear only at the I/O boundary.

Representation conventions used throughout the package:

* ``Preference``  -- tuple of object indices, best first.  ``(2, 0, 1)``
  over objects ``a, b, c`` means ``c > a > b``.
* ``Profile``     -- tuple of one preference per agent.
* ``ShareVector`` -- tuple of Fractions indexed by object; sums to 1.
* ``AssignmentMatrix`` -- tuple of share vectors, one row per agent
  (a bistochastic matrix).
* ``ObjectPermutation`` -- tuple ``sigma`` with ``sigma[x]`` the image of
  object ``x``.  A preference is one too: report ``r`` maps rank ``k`` to
  object ``r[k]``.
* Relabeling -- an object permutation ``sigma`` acts on a preference by
  :func:`apply_permutation`, ``sigma.r = (sigma[r[0]], ..., sigma[r[n-1]])``,
  and on a profile report by report.  ``s_r``, the inverse of report
  ``r`` (:func:`report_inverse`), maps object ``r[k]`` to ``k``: it takes
  ``r`` to the identity order.  :func:`relabeling_action` applies a
  relabeling to indices into a list of preferences.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Iterator, NamedTuple, Optional, Sequence

Preference = tuple[int, ...]
Profile = tuple[Preference, ...]
ShareVector = tuple[Fraction, ...]
AssignmentMatrix = tuple[ShareVector, ...]
ObjectPermutation = tuple[int, ...]

ZERO = Fraction(0)
ONE = Fraction(1)

#: Largest n for which sets indexed by single preferences (size n!) are
#: enumerated without an explicit override.
PREFERENCE_ENUM_CAP = 6

#: Largest n for which full-domain sweeps (size (n!)**n or (n!)**(n-1))
#: run without an explicit override.
SWEEP_CAP = 4


class CapExceededError(RuntimeError):
    """Raised when an enumeration would exceed the configured size cap."""

    def __init__(self, what: str, n: int, cap: int, override: str):
        self.what = what
        self.n = n
        self.cap = cap
        #: The library argument that lifts the cap, e.g. ``max_n``.
        self.override = override
        super().__init__(self.message(override))

    def message(self, override: str) -> str:
        """The error message, naming ``override`` as the way past the cap."""
        return (
            f"{self.what} for n={self.n} exceeds the cap n <= {self.cap}; "
            f"pass {override} to override"
        )


class InvalidAssignmentError(ValueError):
    """Raised when a matrix fails bistochasticity; lists every violation."""

    def __init__(self, violations: list[str]):
        super().__init__(
            "matrix is not a valid assignment:\n  " + "\n  ".join(violations)
        )
        self.violations = violations


def _check_pref_cap(n: int, max_n: Optional[int]) -> None:
    cap = PREFERENCE_ENUM_CAP if max_n is None else max_n
    if n > cap:
        raise CapExceededError("preference enumeration", n, cap, "max_n")


def _check_sweep_cap(n: int, max_n: Optional[int]) -> None:
    cap = SWEEP_CAP if max_n is None else max_n
    if n > cap:
        raise CapExceededError("full-domain enumeration", n, cap, "max_n")


@dataclass(frozen=True)
class Instance:
    """A market with equally many agents and objects.

    ``object_names`` gives the display names in index order; agents are
    referred to by index 0..n-1 in code and rendered 1-based.
    """

    n: int
    object_names: tuple[str, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"need at least one agent, got n={self.n}")
        if len(self.object_names) != self.n:
            raise ValueError(
                f"expected {self.n} object names, got {len(self.object_names)}"
            )
        if any(not name for name in self.object_names):
            raise ValueError("object names must be non-empty")
        if len(set(self.object_names)) != self.n:
            raise ValueError(f"object names must be distinct: {self.object_names}")

    @classmethod
    def default(cls, n: int) -> "Instance":
        """Instance with objects named a, b, c, ... (n <= 26)."""
        if n > 26:
            raise ValueError("default names only cover n <= 26")
        return cls(n, tuple("abcdefghijklmnopqrstuvwxyz"[:n]))

    @property
    def agents(self) -> range:
        return range(self.n)

    def object_index(self, name: str) -> int:
        try:
            return self.object_names.index(name)
        except ValueError:
            raise ValueError(
                f"unknown object {name!r}; objects are {' '.join(self.object_names)}"
            ) from None


class SwapInfo(NamedTuple):
    """Witness that two preferences differ by one adjacent transposition.

    ``position`` is the 1-based rank k such that the base preference holds
    ``lowered`` at rank k and ``raised`` at rank k+1; the swapped preference
    exchanges exactly those two entries.
    """

    position: int
    lowered: int
    raised: int


def prefers(pref: Preference, a: int, b: int) -> bool:
    """True iff ``a`` is ranked strictly above ``b``."""
    return pref.index(a) < pref.index(b)


def apply_permutation(pref: Preference, sigma: ObjectPermutation) -> Preference:
    """Relabel objects: rank k of the result holds ``sigma[pref[k]]``."""
    return tuple(sigma[x] for x in pref)


def apply_permutation_profile(profile: Profile, sigma: ObjectPermutation) -> Profile:
    return tuple(apply_permutation(p, sigma) for p in profile)


def report_inverse(pref: Preference) -> ObjectPermutation:
    """``s_r`` of report ``pref``: object ``pref[k]`` to ``k``."""
    return tuple(sorted(range(len(pref)), key=pref.__getitem__))


def gather(at: Sequence[int]) -> Callable[[Sequence], tuple]:
    """The function from a sequence to the tuple of its items at the
    indices ``at``; a one-item itemgetter would return no tuple."""
    return itemgetter(*at) if len(at) > 1 else lambda seq: (seq[at[0]],)


def relabeling_action(prefs: list[Preference]) -> Callable[..., list[int]]:
    """``images(sigma, qs)``: for each index q of ``qs``, the index in
    ``prefs`` of ``apply_permutation(prefs[q], sigma)``.  ``prefs`` holds
    every preference once.  Only the images asked for are computed; no
    table of every relabeling's images is built."""
    index = {p: k for k, p in enumerate(prefs)}
    through = [gather(p) for p in prefs]  # through[q](sigma): prefs[q] relabeled

    def images(sigma: ObjectPermutation, qs: Iterable[int]) -> list[int]:
        return [index[through[q](sigma)] for q in qs]

    return images


def adjacent_swaps(pref: Preference) -> Iterator[tuple[Preference, SwapInfo]]:
    """All preferences one adjacent transposition away from ``pref``."""
    for k in range(len(pref) - 1):
        swapped = list(pref)
        swapped[k], swapped[k + 1] = swapped[k + 1], swapped[k]
        yield tuple(swapped), SwapInfo(position=k + 1, lowered=pref[k], raised=pref[k + 1])


def fosd(pi: ShareVector, pi_prime: ShareVector, pref: Preference) -> bool:
    """First-order stochastic dominance of ``pi`` over ``pi_prime``.

    True iff every top-l prefix of ``pi`` under ``pref`` weakly exceeds the
    matching prefix of ``pi_prime``.  Weak inequality at every prefix; the
    relation is reflexive and not complete.  Integer share numerators over
    one common denominator work as well as Fractions.
    """
    return fosd_failure(pi, pi_prime, pref) is None


def fosd_failure(
    pi: ShareVector, pi_prime: ShareVector, pref: Preference
) -> Optional[tuple[int, Fraction, Fraction]]:
    """First failing prefix of ``fosd(pi, pi_prime, pref)``.

    Returns ``(l, lhs, rhs)`` for the smallest 1-based prefix length l with
    ``lhs < rhs``, or None when dominance holds.  On integer numerators the
    prefix sums are integers over the same denominator.
    """
    if not (len(pi) == len(pi_prime) == len(pref)):
        raise ValueError("mismatched sizes in FOSD comparison")
    lhs = rhs = 0
    for rank, a in enumerate(pref, start=1):
        lhs += pi[a]
        rhs += pi_prime[a]
        if lhs < rhs:
            return rank, lhs, rhs
    return None


def enumerate_preferences(
    instance: Instance, *, max_n: Optional[int] = None
) -> list[Preference]:
    """All n! strict rankings, lexicographic in the ranking tuples."""
    _check_pref_cap(instance.n, max_n)
    return [tuple(p) for p in itertools.permutations(range(instance.n))]


def enumerate_profiles(
    instance: Instance, *, max_n: Optional[int] = None
) -> Iterator[Profile]:
    """All (n!)**n profiles as a fresh lexicographic stream."""
    _check_sweep_cap(instance.n, max_n)
    prefs = enumerate_preferences(instance, max_n=max_n)
    return itertools.product(prefs, repeat=instance.n)


def insert_report(
    opponents: tuple[Preference, ...], agent: int, report: Preference
) -> Profile:
    """Rebuild a full profile from agent ``agent``'s report and the rest."""
    return opponents[:agent] + (report,) + opponents[agent:]


def _as_exact(value, what: str) -> Fraction:
    """``value`` as a Fraction; a float is refused, naming it as ``what``."""
    if isinstance(value, float):
        raise ValueError(f"floating point {what} {value!r}; it must be an exact rational")
    return Fraction(value)


def validate_assignment(
    matrix: Iterable[Iterable], instance: Optional[Instance] = None
) -> AssignmentMatrix:
    """Validate bistochasticity exactly and return the canonical matrix.

    Every entry must lie in [0, 1], every row and every column must sum to
    exactly 1.  On failure raises :class:`InvalidAssignmentError` listing
    all violated entries, rows and columns with their exact values.  Rows
    are reported 1-based to match agent numbering.
    """
    rows = [tuple(_as_exact(x, "share") for x in row) for row in matrix]
    n = len(rows)
    if n == 0 or any(len(row) != n for row in rows):
        raise ValueError("assignment matrix must be square and non-empty")
    if instance is not None and n != instance.n:
        raise ValueError(f"expected a {instance.n}x{instance.n} matrix, got {n}x{n}")

    violations: list[str] = []
    for i, row in enumerate(rows):
        for a, x in enumerate(row):
            if not ZERO <= x <= ONE:
                violations.append(f"entry (agent {i + 1}, object {a}) = {x} outside [0, 1]")
    for i, row in enumerate(rows):
        s = sum(row)
        if s != ONE:
            violations.append(f"row sum for agent {i + 1} is {s}, expected 1")
    for a in range(n):
        s = sum(row[a] for row in rows)
        if s != ONE:
            violations.append(f"column sum for object {a} is {s}, expected 1")
    if violations:
        raise InvalidAssignmentError(violations)
    return tuple(rows)


def parse_rational(text: str) -> Fraction:
    """Parse ``p/q`` or an integer literal; anything else is rejected."""
    s = text.strip()
    body = s[1:] if s[:1] in "+-" else s
    if not (body.isdigit() or
            ("/" in body and all(part.isdigit() for part in body.split("/", 1)))):
        raise ValueError(f"not an exact rational literal: {text!r}")
    try:
        return Fraction(s)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {text!r}") from None
