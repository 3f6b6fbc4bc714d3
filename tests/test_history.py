from __future__ import annotations

import random
import statistics
import tracemalloc
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from llmchem import (
    HistoryRecord,
    build_profiles,
    parse_history_csv,
    read_profiles,
    write_history_csv,
    write_profiles,
)
from llmchem.complementarity import task_accuracies
from llmchem.errors import DomainError, ParseError, StoreVersionError
from llmchem.history import HISTORY_COLUMNS, _mean, _median, iter_history_rows

HEADER = ",".join(HISTORY_COLUMNS)


def sample_record(**overrides) -> HistoryRecord:
    base = dict(
        trial="t1",
        model="m1",
        task="classify something",
        latency=2.0,
        temperature=0.7,
        id="out-1",
        result="labeled as true",
        quality=5.0,
        gen_accuracy=1.0,
        variance=0.1,
        review_accuracy=0.9,
        accuracy=0.975,
        elapsed="0:00:02",
        created="2025-06-01 12:00:00",
    )
    base.update(overrides)
    return HistoryRecord(**base)


class TestParsing:
    def test_fixture_parses_with_fields_intact(self, history_fixture):
        records = parse_history_csv(history_fixture)
        assert len(records) == 10
        o3 = next(r for r in records if r.model == "o3-mini" and r.trial == "liar-bench-01")
        assert o3.quality == 7.1397913333
        assert o3.gen_accuracy == 1.0
        assert o3.review_accuracy == 0.8969102035156231
        assert o3.accuracy == 0.9742275508789058
        assert o3.elapsed == "0:00:31"  # opaque, never parsed

    def test_out_of_range_quality_rejected_with_location(self, tmp_path):
        path = tmp_path / "bad.csv"
        record = sample_record()
        write_history_csv([record], path)
        text = path.read_text().replace("5.0,1.0,0.1", "11.0,1.0,0.1")
        path.write_text(text)
        with pytest.raises(ParseError) as err:
            parse_history_csv(path)
        assert err.value.row == 2
        assert err.value.field == "quality"

    def test_header_only_file_yields_empty_list(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text(HEADER + "\n")
        assert parse_history_csv(path) == []

    def test_missing_column_rejected(self, tmp_path):
        path = tmp_path / "short.csv"
        path.write_text("trial,model\na,b\n")
        with pytest.raises(ParseError) as err:
            parse_history_csv(path)
        assert "missing columns" in str(err.value)

    def test_stray_column_rejected(self, tmp_path):
        path = tmp_path / "extra.csv"
        path.write_text(HEADER + ",bonus\n")
        with pytest.raises(ParseError):
            parse_history_csv(path)

    def test_column_order_is_free(self, tmp_path):
        import csv

        path = tmp_path / "reordered.csv"
        reordered = list(reversed(HISTORY_COLUMNS))
        record = sample_record()
        with open(path, "w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(reordered)
            writer.writerow([str(getattr(record, column)) for column in reordered])
        parsed = parse_history_csv(path)
        assert parsed[0].model == "m1"
        assert parsed[0].task == "classify something"

    def test_duplicate_key_rejected(self, tmp_path):
        path = tmp_path / "dup.csv"
        write_history_csv([sample_record(), sample_record()], path)
        with pytest.raises(ParseError) as err:
            parse_history_csv(path)
        assert err.value.row == 3

    def test_several_files_parse_as_one_history_in_order(self, history_fixture, tmp_path):
        other = tmp_path / "other.csv"
        write_history_csv([sample_record(id="out-2"), sample_record()], other)
        assert parse_history_csv(other, history_fixture) == (
            parse_history_csv(other) + parse_history_csv(history_fixture)
        )

    def test_key_repeated_in_a_later_file_names_both_files(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv([sample_record(id="out-0"), sample_record()], first)
        write_history_csv([sample_record(id="out-2"), sample_record()], second)
        with pytest.raises(ParseError) as err:
            parse_history_csv(first, second)
        assert str(err.value) == (
            f"duplicate (trial, model, id) key ('t1', 'm1', 'out-1'), first read from {first} "
            f"(in {second}, row 3, field 'id')"
        )

    def test_key_repeated_within_a_later_file_names_that_file_alone(self, tmp_path):
        first, second = tmp_path / "a.csv", tmp_path / "b.csv"
        write_history_csv([sample_record(id="out-0")], first)
        write_history_csv([sample_record(), sample_record()], second)
        with pytest.raises(ParseError) as err:
            parse_history_csv(first, second)
        assert str(err.value) == (
            f"duplicate (trial, model, id) key ('t1', 'm1', 'out-1') (in {second}, row 3, field 'id')"
        )

    def test_key_repeated_in_a_third_file_names_the_file_that_held_that_id(self, tmp_path):
        # The file is recorded per id, not per (trial, model): out-2 is first
        # read from the second file, though the pair is first seen in the first.
        paths = [tmp_path / f"{name}.csv" for name in "abc"]
        for path, id_ in zip(paths, ("out-1", "out-2", "out-2")):
            write_history_csv([sample_record(id=id_)], path)
        with pytest.raises(ParseError) as err:
            parse_history_csv(*paths)
        assert str(err.value) == (
            f"duplicate (trial, model, id) key ('t1', 'm1', 'out-2'), first read from {paths[1]} "
            f"(in {paths[2]}, row 2, field 'id')"
        )

    def test_non_numeric_field_rejected(self, tmp_path):
        path = tmp_path / "nan.csv"
        write_history_csv([sample_record()], path)
        path.write_text(path.read_text().replace("0.7", "warm"))
        with pytest.raises(ParseError) as err:
            parse_history_csv(path)
        assert err.value.field == "temperature"


def _traced_peak(fn):
    """``fn()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


class TestStreaming:
    def test_records_stream_before_a_later_bad_row(self, tmp_path):
        path = tmp_path / "late.csv"
        write_history_csv([sample_record(), sample_record(id="out-2", quality=11.0)], path)
        rows = iter_history_rows(path)
        assert next(rows) == sample_record()
        with pytest.raises(ParseError) as err:
            next(rows)
        assert (err.value.row, err.value.field) == (3, "quality")

    def test_records_share_one_copy_of_each_trial_and_model_name(self, tmp_path):
        # A consumer that keys on the names, such as task_accuracies, then
        # keeps one string per name instead of one per row.
        path = tmp_path / "names.csv"
        write_history_csv([sample_record(id=f"out-{n}", task=f"task {n}") for n in range(3)], path)
        first, *rest = iter_history_rows(path)
        assert all(r[0] is first[0] and r[1] is first[1] for r in rest)

    def test_consumers_of_the_stream_hold_a_fraction_of_the_list(self, tmp_path):
        path = tmp_path / "big.csv"
        write_history_csv(
            (
                sample_record(trial=f"t{trial}", model=f"m{model}", task=f"task {task}",
                              id=f"out-{task}", quality=(n % 97) / 10, accuracy=(n % 101) / 100)
                for n, (trial, task, model) in enumerate(
                    (trial, task, model)
                    for trial in range(10) for task in range(63) for model in range(8)
                )
                if n < 5000
            ),
            path,
        )
        records, listed = _traced_peak(lambda: parse_history_csv(path))
        assert len(records) == 5000
        # The stream alone: what iter_history_rows keeps to check the keys.
        _, drained = _traced_peak(lambda: deque(iter_history_rows(path), maxlen=0))
        assert drained < listed / 15
        # The plain rows that the CLI passes.
        stores, profiled = _traced_peak(lambda: build_profiles(iter_history_rows(path), "trial"))
        accuracies, reduced = _traced_peak(lambda: task_accuracies(iter_history_rows(path)))
        assert profiled < listed / 3
        assert reduced < listed / 3
        assert stores == build_profiles(records, "trial")
        assert accuracies == task_accuracies(records)


class TestCanonicalReemission:
    def test_fixture_round_trips_byte_identically(self, history_fixture, tmp_path):
        records = parse_history_csv(history_fixture)
        out = tmp_path / "rewritten.csv"
        write_history_csv(records, out)
        assert out.read_bytes() == history_fixture.read_bytes()

    def test_quoting_is_stable_under_reparse(self, tmp_path):
        tricky = sample_record(
            task='has, commas and "quotes"',
            result="line with 'apostrophes', too",
        )
        first = tmp_path / "first.csv"
        write_history_csv([tricky], first)
        second = tmp_path / "second.csv"
        write_history_csv(parse_history_csv(first), second)
        assert first.read_bytes() == second.read_bytes()


class TestBuildProfiles:
    def test_single_record_per_model_is_identity(self):
        records = [
            sample_record(model="a", quality=6.0, accuracy=0.6, id="o1"),
            sample_record(model="b", quality=8.0, accuracy=0.8, id="o2"),
        ]
        (store,) = build_profiles(records, "all")
        assert store.profiles["a"].quality == 6.0
        assert store.profiles["b"].accuracy == 0.8

    def test_mean_of_two_records(self):
        records = [
            sample_record(quality=6.0, id="o1"),
            sample_record(quality=8.0, id="o2", trial="t2"),
        ]
        (store,) = build_profiles(records, "all")
        assert store.profiles["m1"].quality == 7.0
        assert store.provenance["record_counts"] == {"m1": 2}

    def test_median_flag(self):
        records = [
            sample_record(quality=1.0, id="o1"),
            sample_record(quality=2.0, id="o2", trial="t2"),
            sample_record(quality=9.0, id="o3", trial="t3"),
        ]
        (store,) = build_profiles(records, "all", aggregate="median")
        assert store.profiles["m1"].quality == 2.0

    @settings(max_examples=300, deadline=None)
    @given(values=st.lists(st.floats(0.0, 10.0), min_size=1, max_size=12))
    def test_reductions_equal_the_statistics_functions_bit_for_bit(self, values):
        # build_profiles reduces without importing statistics, whose import is slow.
        assert repr(_mean(values)) == repr(statistics.fmean(values))
        assert repr(_median(values)) == repr(statistics.median(values))

    def test_grouping_by_trial_on_fixture(self, history_fixture):
        records = parse_history_csv(history_fixture)
        stores = build_profiles(records, "trial")
        assert [s.context_key for s in stores] == ["liar-bench-01", "liar-bench-02"]
        assert len(stores[0].profiles) == 5

    def test_permutation_invariant(self, history_fixture):
        records = parse_history_csv(history_fixture)
        shuffled = records[:]
        random.Random(7).shuffle(shuffled)
        original = build_profiles(records, "trial")
        permuted = build_profiles(shuffled, "trial")
        assert [s.profiles for s in original] == [s.profiles for s in permuted]

    def test_unknown_grouping_rejected(self):
        with pytest.raises(DomainError):
            build_profiles([sample_record()], "week")

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(DomainError, match="unknown aggregate 'mode'"):
            build_profiles([sample_record()], "all", aggregate="mode")


class TestStoreJson:
    def test_round_trip_field_for_field(self, history_fixture, tmp_path):
        records = parse_history_csv(history_fixture)
        stores = build_profiles(records, "trial", sources=[str(history_fixture)])
        path = tmp_path / "store.json"
        write_profiles(stores, path)
        loaded = read_profiles(path)
        assert len(loaded) == len(stores)
        for before, after in zip(stores, loaded):
            assert after.context_key == before.context_key
            assert after.profiles == before.profiles
            assert after.provenance == before.provenance

    def test_unknown_extra_keys_accepted_with_warning(self, tmp_path, caplog):
        path = tmp_path / "store.json"
        write_profiles(build_profiles([sample_record()], "all"), path)
        text = path.read_text().replace(
            '"version": 1', '"version": 1, "vendor_hint": "x"'
        )
        path.write_text(text)
        with caplog.at_level("WARNING"):
            stores = read_profiles(path)
        assert len(stores) == 1
        assert any("vendor_hint" in message for message in caplog.messages)

    def test_unknown_store_keys_accepted_with_warning(self, tmp_path, caplog):
        path = tmp_path / "store.json"
        write_profiles(build_profiles([sample_record()], "all"), path)
        path.write_text(path.read_text().replace('"context_key"', '"vendor_hint": "x", "context_key"'))
        with caplog.at_level("WARNING"):
            stores = read_profiles(path)
        assert [s.context_key for s in stores] == ["all"]
        assert caplog.messages == ["ignoring unknown profile-store keys: ['vendor_hint']"]

    def test_truncated_file_is_a_parse_error(self, tmp_path):
        path = tmp_path / "store.json"
        write_profiles(build_profiles([sample_record()], "all"), path)
        path.write_text(path.read_text()[:40])
        with pytest.raises(ParseError):
            read_profiles(path)

    def test_version_mismatch(self, tmp_path):
        path = tmp_path / "store.json"
        write_profiles(build_profiles([sample_record()], "all"), path)
        path.write_text(path.read_text().replace('"version": 1', '"version": 99'))
        with pytest.raises(StoreVersionError):
            read_profiles(path)

    def test_to_model_set_applies_knobs(self, history_fixture):
        records = parse_history_csv(history_fixture)
        (store,) = build_profiles(records, "all")
        model_set = store.to_model_set(empty_cost=0.7, used_threshold=0.6)
        assert model_set.empty_cost == 0.7
        assert model_set.used_threshold == 0.6
        assert len(model_set.profiles) == 5
