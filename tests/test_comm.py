"""Transmission ledger arithmetic and report serialization."""

from __future__ import annotations

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from florasim import (
    CommEvent,
    CommLedger,
    Dim,
    ReportRow,
    charge_round,
    read_report,
    trainable_fraction,
)
from florasim.comm import REPORT_COLUMNS, emit_rows
from florasim.simulation import STRATEGIES

BIG = Dim(4096, 4096)


def charged_ledger(strategy, dim, ranks, rounds):
    ledger = CommLedger()
    for t in range(rounds):
        charge_round(ledger, strategy, dim, list(enumerate(ranks)), t)
    return ledger


def closed_form_total(strategy, m, n, ranks, rounds):
    """Independent calculator: broadcast + per-round uploads and downloads."""
    k = len(ranks)
    total = (1 if strategy == "centralized" else k) * m * n
    if strategy in ("standalone", "centralized"):
        return total
    for _ in range(rounds):
        if strategy == "full_ft":
            total += k * 2 * m * n
            continue
        total += sum(r * (m + n) for r in ranks)
        if strategy == "flora":
            per_client_down = sum(ranks) * (m + n)
        elif strategy == "fedit":
            per_client_down = ranks[0] * (m + n)
        else:
            per_client_down = max(ranks) * (m + n)
        total += k * per_client_down
    return total


class TestChargeRound:
    def test_large_model_download_sizes(self):
        ranks = [16] * 10
        flora = charged_ledger("flora", BIG, ranks, 1)
        fedit = charged_ledger("fedit", BIG, ranks, 1)
        full = charged_ledger("full_ft", BIG, ranks, 1)

        def downloads(ledger, kind):
            return {e.param_count for e in ledger.events if e.direction == "down" and e.payload_kind == kind}

        assert downloads(flora, "stacked_adapter") == {160 * 8192}
        assert 160 * 8192 == 1_310_720
        assert downloads(fedit, "adapter") == {131_072}
        assert downloads(full, "full_model") == {16_777_216}

    def test_upload_is_strategy_independent(self):
        ranks = [64, 32, 16, 16, 8, 8, 4, 4, 4, 4]
        flora = charged_ledger("flora", BIG, ranks, 1)
        padded = charged_ledger("zero_padding", BIG, ranks, 1)

        def uploads(ledger):
            return sorted(e.param_count for e in ledger.events if e.direction == "up")

        assert uploads(flora) == uploads(padded) == sorted(r * 8192 for r in ranks)

    def test_adapter_is_small_fraction_of_dense_model(self):
        upload = 16 * (4096 + 4096)
        assert upload / (4096 * 4096) == trainable_fraction(BIG, 16) == 0.0078125

    def test_round_zero_broadcast_once(self):
        ledger = charged_ledger("fedit", Dim(8, 8), [2, 2], 3)
        broadcasts = [e for e in ledger.events if e.payload_kind == "full_model"]
        assert len(broadcasts) == 2
        assert all(e.round == 0 and e.param_count == 64 for e in broadcasts)

    def test_rejects_bad_arguments(self):
        ledger = CommLedger()
        with pytest.raises(ValueError):
            charge_round(ledger, "flora", Dim(4, 4), [(0, 1), (1, 0)], 0)
        with pytest.raises(ValueError):
            charge_round(ledger, "warp", Dim(4, 4), [(0, 1)], 0)

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding", "full_ft", "standalone"])
    def test_matches_independent_closed_form(self, strategy):
        gen = np.random.default_rng(40)
        for _ in range(20):
            m, n = int(gen.integers(2, 64)), int(gen.integers(2, 64))
            k = int(gen.integers(1, 8))
            rounds = int(gen.integers(1, 5))
            if strategy == "fedit":
                ranks = [int(gen.integers(1, 9))] * k
            else:
                ranks = [int(gen.integers(1, 9)) for _ in range(k)]
            ledger = charged_ledger(strategy, Dim(m, n), ranks, rounds)
            assert ledger.total() == closed_form_total(strategy, m, n, ranks, rounds)

    @pytest.mark.parametrize("strategy", ["flora", "fedit", "zero_padding", "full_ft", "standalone", "centralized"])
    def test_returns_the_totals_it_appended(self, strategy):
        gen = np.random.default_rng(42)
        for _ in range(10):
            k = int(gen.integers(1, 8))
            dim = Dim(int(gen.integers(2, 32)), int(gen.integers(2, 32)))
            if strategy == "fedit":
                ranks = [int(gen.integers(1, 9))] * k
            else:
                ranks = [int(gen.integers(1, 9)) for _ in range(k)]
            ledger = CommLedger()
            for t in range(3):
                returned = charge_round(ledger, strategy, dim, list(enumerate(ranks)), t)
                assert returned == ledger.round_totals(t)

    def test_flora_download_dominates_fedit(self):
        gen = np.random.default_rng(41)
        for _ in range(20):
            k = int(gen.integers(1, 9))
            rank = int(gen.integers(1, 9))
            dim = Dim(int(gen.integers(2, 32)), int(gen.integers(2, 32)))
            flora = charged_ledger("flora", dim, [rank] * k, 1)
            fedit = charged_ledger("fedit", dim, [rank] * k, 1)
            _, flora_down = flora.round_totals(0)
            _, fedit_down = fedit.round_totals(0)
            broadcast = k * dim.m * dim.n
            if k == 1:
                assert flora_down == fedit_down
            else:
                assert flora_down - broadcast > fedit_down - broadcast


class TestCommLedger:
    def test_an_uncharged_round_has_no_traffic(self):
        assert CommLedger().total() == 0
        ledger = charged_ledger("flora", Dim(8, 6), [2, 3], 3)
        assert ledger.round_totals(3) == (0, 0)

    @pytest.mark.parametrize("strategy", ["standalone", "centralized"])
    def test_references_charge_only_the_round_zero_broadcast(self, strategy):
        k, dim = 4, Dim(8, 6)
        ledger = charged_ledger(strategy, dim, [2] * k, 3)
        receivers = 1 if strategy == "centralized" else k
        assert ledger.round_totals(0) == (0, receivers * dim.m * dim.n)
        assert ledger.round_totals(1) == ledger.round_totals(2) == (0, 0)

    def test_full_ft_moves_the_dense_model_both_ways_every_round(self):
        k, dim = 3, Dim(8, 6)
        ledger = charged_ledger("full_ft", dim, [2] * k, 3)
        dense = k * dim.m * dim.n
        assert ledger.round_totals(0) == (dense, 2 * dense)
        assert ledger.round_totals(1) == ledger.round_totals(2) == (dense, dense)


class TestCommEvent:
    def test_event_validation(self):
        with pytest.raises(ValueError):
            CommEvent(0, "sideways", 0, 1, "adapter")
        with pytest.raises(ValueError):
            CommEvent(0, "up", 0, -1, "adapter")
        with pytest.raises(ValueError):
            CommEvent(0, "up", 0, 1, "pigeon")


SAMPLE_ROWS = [
    ReportRow(0, "flora", 7.25, 7.25, None, 0, 0),
    ReportRow(1, "flora", 6.5, 6.5, None, 5120, 51200),
    ReportRow(1, "fedit", 6.75, 6.75, 0.4375, 5120, 5120),
]


# Reals a report may hold, with the extremes of float64 drawn explicitly:
# the smallest subnormal, the smallest normal and the largest finite value.
REALS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 1.7976931348623157e308]),
)
TRAFFIC = st.one_of(st.just(0), st.integers(0, 2**62))
ROWS = st.lists(
    st.builds(
        ReportRow,
        round=st.integers(0, 10**6),
        strategy=st.sampled_from(STRATEGIES),
        global_loss=REALS,
        mean_client_loss=REALS,
        relative_noise=st.none() | REALS,
        params_up_total=TRAFFIC,
        params_down_total=TRAFFIC,
    ),
    max_size=12,
)


# A report row line: seven or so cells, each a typical value or any text.
REPORT_CELLS = st.sampled_from(["0", "3", "flora", "1.5", "", "nan", "-2", "1e400", " 1"]) | st.text(max_size=4)
REPORT_LINES = st.lists(REPORT_CELLS, min_size=5, max_size=9).map(",".join) | st.text(max_size=20)


def write_report_lines(path, *rows):
    """A valid header followed by the given row lines."""
    header = "# florasim-report schema=1 seed=0\n" + ",".join(REPORT_COLUMNS)
    path.write_text("\n".join([header, *rows]) + "\n", encoding="utf-8")


class TestReports:
    def test_empty_report_is_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_rows([], path, seed=42)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        assert lines[0] == "# florasim-report schema=1 seed=42"
        assert lines[1].startswith("round,strategy,global_loss")

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rows.csv"
        emit_rows(SAMPLE_ROWS, path, seed=7)
        assert read_report(path) == SAMPLE_ROWS

    def test_golden_layout(self, tmp_path):
        path = tmp_path / "golden.csv"
        emit_rows(SAMPLE_ROWS[:2], path, seed=1)
        expected = (
            "# florasim-report schema=1 seed=1\n"
            "round,strategy,global_loss,mean_client_loss,relative_noise,"
            "params_up_total,params_down_total\n"
            "0,flora,7.25,7.25,,0,0\n"
            "1,flora,6.5,6.5,,5120,51200\n"
        )
        assert path.read_text() == expected

    def test_seventeen_digit_reals_survive(self, tmp_path):
        value = 1 / 3
        path = tmp_path / "precise.csv"
        emit_rows([ReportRow(0, "flora", value, value, value, 0, 0)], path, seed=0)
        row = read_report(path)[0]
        assert row.global_loss == value
        assert row.relative_noise == value

    def test_read_rejects_foreign_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        path.write_text("hello\nworld\n")
        with pytest.raises(ValueError):
            read_report(path)

    def test_read_rejects_a_wrong_column_header(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("# florasim-report schema=1 seed=0\nround,strategy\n0,flora\n")
        with pytest.raises(ValueError, match=r"header\.csv: unexpected column header 'round,strategy'$"):
            read_report(path)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(rows=ROWS, seed=st.integers(0, 2**63 - 1))
    def test_round_trip_property(self, tmp_path_factory, rows, seed):
        path = tmp_path_factory.mktemp("reports") / "rows.csv"
        emit_rows(rows, path, seed=seed)
        assert read_report(path) == rows

    def test_read_names_path_and_line_of_a_truncated_row(self, tmp_path):
        path = tmp_path / "short.csv"
        write_report_lines(path, "0,flora,1,1,,0,0", "1,flora")
        with pytest.raises(ValueError, match=r"short\.csv: line 4: expected 7 fields, got 2$"):
            read_report(path)

    def test_read_rejects_an_extra_field(self, tmp_path):
        path = tmp_path / "long.csv"
        write_report_lines(path, "1,flora,1,1,,2,3,4")
        with pytest.raises(ValueError, match=r"long\.csv: line 3: expected 7 fields, got 8$"):
            read_report(path)

    def test_read_names_the_field_that_does_not_parse(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_report_lines(path, "1,flora,x,1,,2,3")
        with pytest.raises(ValueError, match=r"bad\.csv: line 3: global_loss: cannot parse 'x'$"):
            read_report(path)

    def test_read_names_a_file_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"# florasim-report schema=1 seed=0\n\xff\xfe\n")
        with pytest.raises(ValueError, match=r"latin1\.csv: not UTF-8 text") as err:
            read_report(path)
        assert not isinstance(err.value, UnicodeDecodeError)

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(lines=st.lists(REPORT_LINES, max_size=6))
    def test_read_report_text_property(self, tmp_path_factory, lines):
        # Rows after a valid header: parsed, or the first bad line is named.
        folder = tmp_path_factory.mktemp("reports")
        path = folder / "any.csv"
        write_report_lines(path, *lines)
        written = path.read_text(encoding="utf-8").splitlines()
        try:
            rows = read_report(path)
        except ValueError as exc:
            match = re.match(rf"{re.escape(str(path))}: line (\d+): ", str(exc))
            assert match, str(exc)
            number = int(match.group(1))
            before, bad = folder / "before.csv", folder / "bad.csv"
            write_report_lines(before, *written[2 : number - 1])
            write_report_lines(bad, written[number - 1])
            read_report(before)
            with pytest.raises(ValueError):
                read_report(bad)
        else:
            assert len(rows) == sum(1 for line in written[2:] if line)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(head=st.sampled_from([b"", b"# florasim-report schema=1 seed=0\n" + ",".join(REPORT_COLUMNS).encode() + b"\n"]), data=st.binary(max_size=80))
    def test_read_report_bytes_property(self, tmp_path_factory, head, data):
        path = tmp_path_factory.mktemp("reports") / "any.csv"
        path.write_bytes(head + data)
        try:
            read_report(path)
        except ValueError as exc:
            assert str(exc).startswith(f"{path}: ")

    def test_write_failure_carries_path(self, tmp_path):
        target = tmp_path / "missing-dir" / "out.csv"
        with pytest.raises(OSError, match="out.csv"):
            emit_rows([], target, seed=0)
