"""Oracle gate: compare CLI responses with a catalog entry's ExpectedFacts.

Numbers are compared at 1e-6, the tolerance acceptance criteria 03-05
use; the CLI prints 9 significant digits, so rounding stays far below it.
"""

from __future__ import annotations

import csv
import io
import json

TOL = 1e-6

# Exit codes of ``reebkit collar`` per verdict (see the CLI docstring).
VERDICT_EXIT = {"Collarable": 0, "SchemeObstructed": 3, "NonExact": 4, "NotASlice": 5}


def expected_verdict(facts) -> str:
    """Verdict implied by the facts, under the default direct convention.

    Non-slices and non-exact slices stop before the chord stage.  An exact
    slice is SchemeObstructed iff some listed chord is small
    (length <= action); a slice whose chords are unlisted is Legendrian
    here, so every action is 0 and every chord is long.
    """
    if "non-slice" in facts.tags:
        return "NotASlice"
    if "non-exact" in facts.tags:
        return "NonExact"
    if any(l <= a for l, a in zip(facts.chord_lengths, facts.chord_actions)):
        return "SchemeObstructed"
    return "Collarable"


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= TOL


def _compare_periods(where: str, got, facts, problems: list[str]):
    if facts.periods is None:
        return
    if got is None or len(got) != len(facts.periods) or not all(
        _close(g, e) for g, e in zip(got, facts.periods)
    ):
        problems.append(f"{where}: periods {got} != {list(facts.periods)}")


def _compare_chords(where: str, lengths, actions, facts, problems: list[str]):
    """``actions`` is None when the response carries no actions."""
    if facts.chord_count is not None and len(lengths) != facts.chord_count:
        problems.append(f"{where}: {len(lengths)} chords, expected {facts.chord_count}")
        return
    order = sorted(range(len(lengths)), key=lambda i: lengths[i])
    if facts.chord_lengths:
        got = [lengths[i] for i in order]
        if len(got) != len(facts.chord_lengths) or not all(
            _close(g, e) for g, e in zip(got, sorted(facts.chord_lengths))
        ):
            problems.append(f"{where}: lengths {got} != {sorted(facts.chord_lengths)}")
    unit = facts.chord_length_unit
    if unit is not None:
        # every slice point starts a chord of one unit, so none found is wrong
        if not lengths:
            problems.append(f"{where}: no chords, expected multiples of {unit}")
        for length in lengths:
            k = round(length / unit)
            if k < 1 or not _close(length, k * unit):
                problems.append(f"{where}: length {length} is not a multiple of {unit}")
                break
    if actions is None:
        return
    if facts.chord_actions:
        by_length = sorted(zip(facts.chord_lengths, facts.chord_actions))
        got = [actions[i] for i in order]
        if not all(g is not None and _close(g, e) for g, (_, e) in zip(got, by_length)):
            problems.append(f"{where}: actions {got} != {[e for _, e in by_length]}")
    if "legendrian" in facts.tags and not all(a is not None and _close(a, 0.0) for a in actions):
        problems.append(f"{where}: Legendrian slice with nonzero actions {actions}")


def check_response(facts, responses: dict) -> list[str]:
    """Problems found in one request's responses (empty when all agree).

    ``responses`` maps each command to ``(exit_code, stdout_text)``.
    """
    problems: list[str] = []
    is_slice = "slice" in facts.tags

    code, text = responses["check"]
    if code != (0 if is_slice else 1):
        problems.append(f"check: exit {code}")
    else:
        _compare_periods("check", json.loads(text)["periods"], facts, problems)

    code, text = responses["chords"]
    if code != (0 if is_slice else 1):
        problems.append(f"chords: exit {code}")
    elif is_slice:
        rows = list(csv.DictReader(io.StringIO(text)))
        _compare_chords("chords", [float(r["length"]) for r in rows], None, facts, problems)

    verdict = expected_verdict(facts)
    code, text = responses["collar"]
    if code != VERDICT_EXIT[verdict]:
        problems.append(f"collar: exit {code}, expected {VERDICT_EXIT[verdict]}")
        return problems
    report = json.loads(text)
    if report["verdict"] != verdict:
        problems.append(f"collar: verdict {report['verdict']}, expected {verdict}")
    if verdict != "NotASlice":
        _compare_periods("collar", report["periods"], facts, problems)
        chords = report["chords"]
        actions = [c["action"] for c in chords] if verdict != "NonExact" else None
        _compare_chords("collar", [c["length"] for c in chords], actions, facts, problems)
    return problems
