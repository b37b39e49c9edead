"""Report rows and their TSV rendering.

Every checkable quantity in the workbench is reported as one row of
(quantity, computed, expected, source, verdict).  ``source`` records where
the expected value comes from: ``literature`` for published values,
``derived`` for values computed by an independent oracle, ``direct`` for
arithmetic that needs no oracle.  TSV keeps the reports diffable, which is
what the determinism contract is pinned on.  :func:`render_tsv` renders a
report once; the command layer writes it with ``scalar_linalg.write_lines``.
"""

from __future__ import annotations

from dataclasses import dataclass

PASS = "PASS"
FAIL = "FAIL"
SKIP = "SKIP"
INFO = "INFO"

HEADER = ("quantity", "computed", "expected", "source", "verdict")


@dataclass(frozen=True)
class Row:
    quantity: str
    computed: object
    expected: object
    source: str
    verdict: str


def check_row(quantity, computed, expected, source) -> Row:
    """Row whose verdict is the equality of computed and expected."""
    return Row(quantity, computed, expected, source,
               PASS if computed == expected else FAIL)


def bound_row(quantity, computed, low=None, high=None, source="derived") -> Row:
    """Row asserting low <= computed <= high (either side optional); SKIP
    when nothing was computed, e.g. the least acceptance probability of a
    function with no 1-input."""
    ok = computed is not None
    parts = []
    if low is not None:
        ok = ok and computed >= low
        parts.append(f">={fmt_value(low)}")
    if high is not None:
        ok = ok and computed <= high
        parts.append(f"<={fmt_value(high)}")
    verdict = SKIP if computed is None else PASS if ok else FAIL
    return Row(quantity, computed, " ".join(parts), source, verdict)


def fmt_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, (list, tuple)):
        return ",".join(fmt_value(x) for x in v)
    if v is None:
        return "-"
    return str(v)


def render_tsv(rows) -> str:
    lines = ["\t".join(HEADER)]
    for r in rows:
        lines.append("\t".join((
            r.quantity,
            fmt_value(r.computed),
            fmt_value(r.expected),
            r.source,
            r.verdict,
        )))
    return "\n".join(lines) + "\n"
