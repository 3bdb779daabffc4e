"""Parameter-count accounting for every transmission, and report files.

Counts are parameter counts, not bytes; a bytes view is a presentation
multiplier. Round 0 charges the one-time dense-model broadcast (m*n per
client) for every strategy, so every total starts from the same broadcast.
From then on each round charges, per client:

    upload              rank_k * (m + n)              any adapter strategy
    download, averaging max rank * (m + n)            the averaged pair (ranks unchecked)
    download, padding   max rank * (m + n)            the padded pair
    download, stacking  (sum of ranks) * (m + n)      the stacked pair

The ledger does not check averaging's equal-rank rule; the round checks it
before any client trains, so in a run its max rank is the one rank. Each
client's transmissions are charged to its client id. Standalone and
centralized runs communicate nothing after the broadcast.

``charge_round`` hands each transmission to ``CommLedger.add`` as one
``CommEvent``; the ledger keeps only each round's params up and params
down, so a run's traffic record does not grow with its client count.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, get_type_hints

PAYLOAD_KINDS = ("full_model", "adapter", "stacked_adapter")
DIRECTIONS = ("up", "down")

@dataclass(frozen=True)
class CommEvent:
    """One transmission: round, direction, party, size, payload kind."""

    round: int
    direction: str
    party: int | str
    param_count: int
    payload_kind: str

    def __post_init__(self) -> None:
        if self.direction not in DIRECTIONS:
            raise ValueError(f"direction must be one of {DIRECTIONS}, got {self.direction!r}")
        if self.payload_kind not in PAYLOAD_KINDS:
            raise ValueError(f"payload_kind must be one of {PAYLOAD_KINDS}")
        if self.round < 0 or self.param_count < 0:
            raise ValueError(f"round and param_count must be >= 0, got {self.round} and {self.param_count}")


@dataclass
class CommLedger:
    """Traffic totals of one experiment run: the params up and params down
    of each round, indexed by round. It keeps no transmission."""

    up: list[int] = field(default_factory=list)
    down: list[int] = field(default_factory=list)

    def add(self, event: CommEvent) -> None:
        for totals in (self.up, self.down):
            totals.extend([0] * (event.round + 1 - len(totals)))
        # Each direction names its list of totals.
        getattr(self, event.direction)[event.round] += event.param_count

    def total(self) -> int:
        return sum(self.up) + sum(self.down)

    def round_totals(self, round_index: int) -> tuple[int, int]:
        """(params up, params down) accumulated in one round; (0, 0) for a
        round never charged."""
        charged = 0 <= round_index < len(self.up)
        return (self.up[round_index], self.down[round_index]) if charged else (0, 0)


def charge_round(
    ledger: CommLedger,
    strategy: str,
    dim,
    participants: list[tuple[int, int]],
    round_index: int,
) -> tuple[int, int]:
    """Charge the transmissions of one round to the ledger, one ``add`` each.

    ``participants`` are the round's (client id, adapter rank) pairs; each
    client's transmissions are charged to its id. Round 0 also charges the
    initial dense broadcast. ``dim`` is anything with integer attributes m
    and n. Raises ValueError, before any charge, for a round without
    participants. Returns the round's (params up, params down) totals read
    back from the ledger, so a report row holds no copy of them; they are
    the round's own traffic when the round is charged once.
    """
    m, n = dim.m, dim.n
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got ({m}, {n})")
    if not participants:
        raise ValueError(f"round {round_index} has no participants to charge")
    ranks = [rank for _, rank in participants]
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be >= 1")
    if strategy == "flora":
        down_count, down_kind = sum(ranks) * (m + n), "stacked_adapter"
    elif strategy in ("fedit", "zero_padding"):
        down_count, down_kind = max(ranks) * (m + n), "adapter"
    elif strategy not in ("standalone", "centralized"):
        raise ValueError(f"unknown strategy {strategy!r}")

    if round_index == 0:
        # One m*n charge per receiving client, addressed as "broadcast" so the
        # one-time dissemination stays distinguishable from per-round traffic.
        for _ in range(1 if strategy == "centralized" else len(participants)):
            ledger.add(CommEvent(0, "down", "broadcast", m * n, "full_model"))
    if strategy not in ("standalone", "centralized"):
        for client, rank in participants:
            ledger.add(CommEvent(round_index, "up", client, rank * (m + n), "adapter"))
            ledger.add(CommEvent(round_index, "down", client, down_count, down_kind))
    elif round_index > 0:
        return 0, 0
    return ledger.up[round_index], ledger.down[round_index]


REPORT_SCHEMA = 1


@dataclass(frozen=True)
class ReportRow:
    """One serialized line of an experiment report; its fields are the
    report's columns, in order."""

    round: int
    strategy: str
    global_loss: float
    mean_client_loss: float
    relative_noise: float | None
    params_up_total: int
    params_down_total: int


def _format_real(value: float | None) -> str:
    return "" if value is None else format(value, ".17g")


def _parse_real(text: str) -> float | None:
    return None if text == "" else float(text)


# One (format, parse) pair per field type; each column's pair follows from
# its ReportRow field's type.
_TYPE_CODECS = {
    int: (str, int),
    str: (str, str),
    float: (_format_real, float),
    float | None: (_format_real, _parse_real),
}
_CODECS = tuple((name, *_TYPE_CODECS[kind]) for name, kind in get_type_hints(ReportRow).items())
REPORT_COLUMNS = tuple(name for name, _, _ in _CODECS)


def emit_rows(rows: Iterable[ReportRow], path: str | Path, seed: int) -> None:
    """Write report rows as comma-separated text with a fixed header.

    Reals are formatted with 17 significant digits so emitted files are
    byte-deterministic and round-trip through parsing without loss. Raises
    ValueError, before the file is opened, for a seed that is not an integer
    in [0, 2**64), the seeds a config accepts; a bool is not one.
    """
    try:
        value = None if isinstance(seed, bool) else operator.index(seed)
    except TypeError:
        value = None
    if value is None or not 0 <= value < 2**64:
        raise ValueError(f"seed: must be an integer in [0, 2**64), got {seed!r}")
    lines = [f"# florasim-report schema={REPORT_SCHEMA} seed={value}", ",".join(REPORT_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(getattr(row, name)) for name, fmt, _ in _CODECS))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


# The first line emit_rows writes; the sign is kept for reports written
# before emit_rows checked its seed.
_FIRST_LINE = re.compile(rf"# florasim-report schema={REPORT_SCHEMA} seed=-?[0-9]+")
_FIRST_LINE_FORM = f"# florasim-report schema={REPORT_SCHEMA} seed=<integer>"


def read_report(path: str | Path) -> list[ReportRow]:
    """Parse a report file back into rows; inverse of emit for tabular fields.

    The first line must be the one ``emit_rows`` writes, ``# florasim-report
    schema=1 seed=<integer>``; a leading byte-order mark is dropped. Raises
    ValueError naming the file for anything that is not a report, and the
    line too for a row that does not parse."""
    try:
        lines = Path(path).read_text(encoding="utf-8-sig").splitlines()
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    first = lines[0] if lines else ""
    if not _FIRST_LINE.fullmatch(first):
        raise ValueError(f"{path}: not a report file: first line {first!r} is not {_FIRST_LINE_FORM!r}")
    if len(lines) < 2:
        raise ValueError(f"{path}: not a report file: no column header")
    if lines[1] != ",".join(REPORT_COLUMNS):
        raise ValueError(f"{path}: unexpected column header {lines[1]!r}")
    rows = []
    for number, line in enumerate(lines[2:], start=3):
        if not line:
            continue
        cells = line.split(",")
        if len(cells) != len(REPORT_COLUMNS):
            raise ValueError(
                f"{path}: line {number}: expected {len(REPORT_COLUMNS)} fields, got {len(cells)}"
            )
        values = []
        for (column, _, parse), text in zip(_CODECS, cells):
            try:
                values.append(parse(text))
            except ValueError:
                raise ValueError(f"{path}: line {number}: {column}: cannot parse {text!r}") from None
        rows.append(ReportRow(*values))
    return rows
