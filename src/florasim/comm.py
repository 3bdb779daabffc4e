"""Parameter-count accounting for every transmission, and report files.

Counts are parameter counts, not bytes; a bytes view is a presentation
multiplier. Round 0 charges the one-time dense-model broadcast (m*n per
client) for every strategy including full fine-tuning, so every total
starts from the same broadcast. From then on each round charges, per client:

    upload              rank_k * (m + n)              any adapter strategy
    download, averaging max rank * (m + n)            the averaged pair (ranks unchecked)
    download, padding   max rank * (m + n)            the padded pair
    download, stacking  (sum of ranks) * (m + n)      the stacked pair
    full fine-tuning    m * n up and m * n down

The ledger does not check averaging's equal-rank rule; the round checks it
before any client trains, so in a run its max rank is the one rank. Each
client's transmissions are charged to its client id. Standalone and
centralized runs communicate nothing after the broadcast.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, get_type_hints

PAYLOAD_KINDS = ("full_model", "adapter", "stacked_adapter")
DIRECTIONS = ("up", "down")

# Strategy names accepted by the ledger; "full_ft" is the dense reference
# that totals are compared against and is not a simulator strategy.
LEDGER_STRATEGIES = ("flora", "fedit", "zero_padding", "standalone", "centralized", "full_ft")


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
        if self.param_count < 0:
            raise ValueError("param_count must be >= 0")


@dataclass
class CommLedger:
    """Append-only record of transmissions for one experiment run."""

    events: list[CommEvent] = field(default_factory=list)

    def add(self, event: CommEvent) -> None:
        self.events.append(event)

    def total(self) -> int:
        return sum(e.param_count for e in self.events)

    def round_totals(self, round_index: int) -> tuple[int, int]:
        """(params up, params down) accumulated in one round."""
        up = sum(e.param_count for e in self.events if e.round == round_index and e.direction == "up")
        down = sum(e.param_count for e in self.events if e.round == round_index and e.direction == "down")
        return up, down


def charge_round(
    ledger: CommLedger,
    strategy: str,
    dim,
    participants: list[tuple[int, int]],
    round_index: int,
) -> tuple[int, int]:
    """Append the transmissions of one round to the ledger.

    ``participants`` are the round's (client id, adapter rank) pairs; each
    client's transmissions are charged to its id. Round 0 also charges the
    initial dense broadcast. ``dim`` is anything with integer attributes m
    and n. Returns the (params up, params down) just appended, which equals
    ``ledger.round_totals(round_index)`` when the round is charged once.
    """
    m, n = dim.m, dim.n
    if m < 1 or n < 1:
        raise ValueError(f"dimensions must be positive, got ({m}, {n})")
    ranks = [rank for _, rank in participants]
    if any(r < 1 for r in ranks):
        raise ValueError("ranks must be >= 1")
    if strategy not in LEDGER_STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {LEDGER_STRATEGIES}")

    down = 0
    if round_index == 0:
        # One m*n charge per receiving client, addressed as "broadcast" so the
        # one-time dissemination stays distinguishable from per-round traffic.
        broadcast_to = 1 if strategy == "centralized" else len(participants)
        for _ in range(broadcast_to):
            ledger.add(CommEvent(0, "down", "broadcast", m * n, "full_model"))
        down = broadcast_to * m * n

    if strategy in ("standalone", "centralized"):
        return 0, down
    if strategy == "full_ft":
        for client, _ in participants:
            ledger.add(CommEvent(round_index, "up", client, m * n, "full_model"))
            ledger.add(CommEvent(round_index, "down", client, m * n, "full_model"))
        return len(participants) * m * n, down + len(participants) * m * n

    if strategy == "flora":
        down_count, down_kind = sum(ranks) * (m + n), "stacked_adapter"
    else:
        down_count, down_kind = max(ranks) * (m + n), "adapter"
    for client, rank in participants:
        ledger.add(CommEvent(round_index, "up", client, rank * (m + n), "adapter"))
        ledger.add(CommEvent(round_index, "down", client, down_count, down_kind))
    return sum(ranks) * (m + n), down + len(participants) * down_count


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
    byte-deterministic and round-trip through parsing without loss.
    """
    lines = [f"# florasim-report schema={REPORT_SCHEMA} seed={seed}", ",".join(REPORT_COLUMNS)]
    for row in rows:
        lines.append(",".join(fmt(getattr(row, name)) for name, fmt, _ in _CODECS))
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            handle.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise OSError(f"cannot write report to {path}: {exc}") from exc


def read_report(path: str | Path) -> list[ReportRow]:
    """Parse a report file back into rows; inverse of emit for tabular fields.

    Raises ValueError naming the file for anything that is not a report, and
    the line too for a row that does not parse."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise OSError(f"cannot read report from {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    if len(lines) < 2 or not lines[0].startswith("# florasim-report"):
        raise ValueError(f"{path}: not a report file")
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
