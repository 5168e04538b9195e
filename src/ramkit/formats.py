"""Plain-text file formats and rendering.

All formats are line oriented: ``#`` starts a comment, blank lines are
ignored, fields are whitespace separated, and every rational is written
``p/q`` (or a bare integer).  Parse errors carry the 1-based line number.

* profile file:   ``objects: <name>...`` then one ``agent <k>: <name>...``
  line per agent, best to worst.
* prior file:     ``objects: <name>...`` then one ``<name>... : <p/q>``
  line per preference; all n! lines required.
* mechanism table file: ``objects: ...`` and ``agents: n`` headers, then
  per profile a ``profile: <pref> | ... | <pref>`` line followed by n
  ``agent <k>: <p/q> ...`` rows in object-header order.
* speed-schedule file: one ``agent <k>: [t0,t1):s1 [t1,t2):s2 ...`` line
  per agent with rational endpoints and speeds.

Everything written by the render_* functions re-parses to the identical
value.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Iterator

from .core import (
    AssignmentMatrix,
    Instance,
    Preference,
    Profile,
    parse_rational,
    validate_assignment,
)
from .decomp import Decomposition
from .interim import Prior
from .mechanisms import EatingSpeedSchedule, TabulatedMechanism
from .reports import CheckOutcome, Violations, render_reports

_PIECE = re.compile(r"^\[([^,\]]+),([^)\]]+)\):(\S+)$")


class ParseError(ValueError):
    """Input file rejected; message names the offending line."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def _content_lines(text: str) -> list[tuple[int, str]]:
    out = []
    for num, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if body:
            out.append((num, body))
    return out


def _safe_name(name: str) -> str:
    if any(ch.isspace() for ch in name) or any(ch in name for ch in ":#|"):
        raise ValueError(f"object name {name!r} cannot be written to a file")
    return name


def _parse_objects_header(num: int, body: str) -> Instance:
    if not body.startswith("objects:"):
        raise ParseError(num, f"expected 'objects: <name>...', got {body!r}")
    names = body[len("objects:"):].split()
    if not names:
        raise ParseError(num, "no object names in header")
    try:
        return Instance(len(names), tuple(names))
    except ValueError as exc:
        raise ParseError(num, str(exc)) from None


def _parse_agent_line(num: int, body: str, expect_k: int) -> list[str]:
    m = re.match(r"^agent\s+(\d+)\s*:\s*(.*)$", body)
    if not m:
        raise ParseError(num, f"expected 'agent {expect_k}: ...', got {body!r}")
    if int(m.group(1)) != expect_k:
        raise ParseError(num, f"expected agent {expect_k}, got agent {m.group(1)}")
    return m.group(2).split()


def _resolve_preference(num: int, instance: Instance, names: list[str]) -> Preference:
    if len(names) != instance.n:
        raise ParseError(num, f"expected {instance.n} objects, got {len(names)}")
    seen = set()
    pref = []
    for name in names:
        try:
            idx = instance.object_index(name)
        except ValueError as exc:
            raise ParseError(num, str(exc)) from None
        if idx in seen:
            raise ParseError(num, f"object {name!r} listed twice")
        seen.add(idx)
        pref.append(idx)
    return tuple(pref)


def parse_profile_file(text: str) -> tuple[Instance, Profile]:
    """Read an objects header plus one ranking line per agent."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty profile file")
    instance = _parse_objects_header(*lines[0])
    body = lines[1:]
    if len(body) != instance.n:
        last = body[-1][0] if body else lines[0][0]
        raise ParseError(
            last, f"expected {instance.n} agent lines, found {len(body)}"
        )
    profile = []
    for k, (num, line) in enumerate(body, start=1):
        names = _parse_agent_line(num, line, k)
        profile.append(_resolve_preference(num, instance, names))
    return instance, tuple(profile)


def render_profile_file(instance: Instance, profile: Profile) -> str:
    lines = ["objects: " + " ".join(_safe_name(x) for x in instance.object_names)]
    for k, pref in enumerate(profile, start=1):
        lines.append(f"agent {k}: " + " ".join(instance.object_names[x] for x in pref))
    return "\n".join(lines) + "\n"


def parse_prior_file(text: str) -> tuple[Instance, Prior]:
    """Read an objects header plus one probability line per preference."""
    from .core import enumerate_preferences

    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty prior file")
    instance = _parse_objects_header(*lines[0])
    seen: dict[Preference, Fraction] = {}
    for num, line in lines[1:]:
        if ":" not in line:
            raise ParseError(num, f"expected '<ranking> : <p/q>', got {line!r}")
        left, right = line.rsplit(":", 1)
        pref = _resolve_preference(num, instance, left.split())
        if pref in seen:
            raise ParseError(num, "preference listed twice")
        try:
            prob = parse_rational(right)
        except ValueError as exc:
            raise ParseError(num, str(exc)) from None
        if prob < 0:
            raise ParseError(num, f"negative probability {prob}")
        seen[pref] = prob
    missing = [p for p in enumerate_preferences(instance) if p not in seen]
    if missing:
        names = " ".join(instance.object_names[x] for x in missing[0])
        raise ParseError(
            lines[-1][0], f"missing probability line for preference '{names}'"
        )
    total = sum(seen.values())
    if total != 1:
        raise ParseError(
            lines[-1][0],
            f"probabilities sum to {total}, off from 1 by {1 - total}",
        )
    return instance, Prior.from_mapping(instance, seen)


def render_prior_file(prior: Prior) -> str:
    instance = prior.instance
    lines = ["objects: " + " ".join(_safe_name(x) for x in instance.object_names)]
    for pref, prob in prior.items():
        ranking = " ".join(instance.object_names[x] for x in pref)
        lines.append(f"{ranking} : {prob}")
    return "\n".join(lines) + "\n"


def parse_speed_file(text: str) -> EatingSpeedSchedule:
    """Read one piecewise speed line per agent."""
    lines = _content_lines(text)
    if not lines:
        raise ParseError(1, "empty speed-schedule file")
    per_agent = []
    for k, (num, line) in enumerate(lines, start=1):
        tokens = _parse_agent_line(num, line, k)
        if not tokens:
            raise ParseError(num, "no speed pieces")
        pieces = []
        for token in tokens:
            m = _PIECE.match(token)
            if not m:
                raise ParseError(num, f"expected '[t0,t1):speed', got {token!r}")
            try:
                piece = tuple(parse_rational(g) for g in m.groups())
            except ValueError as exc:
                raise ParseError(num, str(exc)) from None
            pieces.append(piece)
        per_agent.append(tuple(pieces))
    try:
        return EatingSpeedSchedule(tuple(per_agent))
    except ValueError as exc:
        raise ParseError(lines[-1][0], str(exc)) from None


def render_speed_file(schedule: EatingSpeedSchedule) -> str:
    lines = []
    for k, pieces in enumerate(schedule.pieces, start=1):
        body = " ".join(f"[{s},{e}):{r}" for s, e, r in pieces)
        lines.append(f"agent {k}: {body}")
    return "\n".join(lines) + "\n"


def parse_table_file(text: str) -> tuple[Instance, TabulatedMechanism]:
    """Read a full mechanism table: headers, then one block per profile."""
    lines = _content_lines(text)
    if len(lines) < 2:
        raise ParseError(1, "table file needs 'objects:' and 'agents:' headers")
    instance = _parse_objects_header(*lines[0])
    num, body = lines[1]
    m = re.match(r"^agents\s*:\s*(\d+)$", body)
    if not m:
        raise ParseError(num, f"expected 'agents: <n>', got {body!r}")
    if int(m.group(1)) != instance.n:
        raise ParseError(
            num, f"agents: {m.group(1)} does not match {instance.n} objects"
        )
    n = instance.n
    table = {}
    cursor = 2
    while cursor < len(lines):
        num, body = lines[cursor]
        if not body.startswith("profile:"):
            raise ParseError(num, f"expected 'profile: ...', got {body!r}")
        chunks = body[len("profile:"):].split("|")
        if len(chunks) != n:
            raise ParseError(num, f"expected {n} rankings, got {len(chunks)}")
        profile = tuple(
            _resolve_preference(num, instance, chunk.split()) for chunk in chunks
        )
        if profile in table:
            raise ParseError(num, "profile listed twice")
        rows = []
        for k in range(1, n + 1):
            cursor += 1
            if cursor >= len(lines):
                raise ParseError(num, f"profile block needs {n} agent rows")
            rnum, rbody = lines[cursor]
            tokens = _parse_agent_line(rnum, rbody, k)
            if len(tokens) != n:
                raise ParseError(rnum, f"expected {n} shares, got {len(tokens)}")
            try:
                rows.append([parse_rational(tok) for tok in tokens])
            except ValueError as exc:
                raise ParseError(rnum, str(exc)) from None
        try:
            table[profile] = validate_assignment(rows, instance)
        except ValueError as exc:
            raise ParseError(num, str(exc)) from None
        cursor += 1
    try:
        return instance, TabulatedMechanism(instance, table)
    except ValueError as exc:
        raise ParseError(lines[-1][0], str(exc)) from None


def render_table_file(instance: Instance, table) -> str:
    lines = [
        "objects: " + " ".join(_safe_name(x) for x in instance.object_names),
        f"agents: {instance.n}",
    ]
    for profile in sorted(table):
        chunk = " | ".join(
            " ".join(instance.object_names[x] for x in pref) for pref in profile
        )
        lines.append(f"profile: {chunk}")
        for k, row in enumerate(table[profile], start=1):
            lines.append(f"agent {k}: " + " ".join(str(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report rendering
# ---------------------------------------------------------------------------


def preference_str(instance: Instance, pref: Preference) -> str:
    return ">".join(instance.object_names[x] for x in pref)


def assignment_table(instance: Instance, matrix: AssignmentMatrix) -> str:
    """Human-readable aligned table, agents as rows and objects as columns."""
    headers = ["agent"] + list(instance.object_names)
    rows = [
        [f"{i + 1}"] + [str(x) for x in row] for i, row in enumerate(matrix)
    ]
    widths = [
        max(len(headers[c]), *(len(r[c]) for r in rows))
        for c in range(len(headers))
    ]
    fmt = "  ".join(f"{{:>{w}}}" for w in widths)
    out = [fmt.format(*headers)]
    out.extend(fmt.format(*r) for r in rows)
    return "\n".join(out)


def assignment_records(instance: Instance, matrix: AssignmentMatrix) -> list[str]:
    """Machine format: one ``row agent=<k> <object>=<share>...`` per agent."""
    out = []
    for i, row in enumerate(matrix):
        cells = " ".join(
            f"{instance.object_names[a]}={row[a]}" for a in range(instance.n)
        )
        out.append(f"row agent={i + 1} {cells}")
    return out


def decomposition_lines(instance: Instance, decomposition: Decomposition) -> list[str]:
    """One ``w : agent↦object, ...`` line per term."""
    out = []
    for weight, perm in decomposition.terms:
        body = ", ".join(
            f"{i + 1}↦{instance.object_names[a]}" for i, a in enumerate(perm)
        )
        out.append(f"{weight} : {body}")
    return out


def outcome_chunks(
    instance: Instance, outcome: CheckOutcome, *, machine: bool
) -> Iterator[list[str]]:
    """The lines of :func:`outcome_lines` in pieces: the head line, then the
    violations, a :class:`~ramkit.reports.Violations` one batch at a time
    from its records."""
    violations = outcome.violations
    if machine:
        prefix = "violation "
        yield [
            f"check axiom={outcome.axiom} verdict={outcome.verdict} "
            f"violations={len(violations)} "
            f"evaluations={outcome.profiles_checked} "
            f"comparisons={outcome.comparisons}"
        ]
    else:
        prefix = "  "
        yield [
            f"{outcome.axiom}: {outcome.verdict.upper()}  "
            f"[{len(violations)} violation(s); "
            f"{outcome.profiles_checked} evaluations, "
            f"{outcome.comparisons} comparisons]"
        ]
    if isinstance(violations, Violations):
        yield from violations.render(instance, prefix)
    elif violations:
        yield render_reports(instance, violations, prefix)


def outcome_lines(
    instance: Instance, outcome: CheckOutcome, *, machine: bool
) -> list[str]:
    lines: list[str] = []
    for chunk in outcome_chunks(instance, outcome, machine=machine):
        lines += chunk
    return lines
