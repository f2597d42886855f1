import dataclasses
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ideal_al.cli import main
from ideal_al.config import LoopConfig, format_config, parse_config
from ideal_al.data import (
    generate_synthetic,
    load_dataset,
    synthetic_dataset,
    write_dataset,
    write_reports,
)
from ideal_al.errors import ConfigError, DataError, UsageError
from ideal_al.loop import CycleReport
from oracles import load_dataset_reference

HEADER = "id,label,f0,f1\n"


def write_csv(tmp_path, text):
    """`text` written byte for byte (no newline translation)."""
    p = tmp_path / "d.csv"
    p.write_bytes(text.encode("utf-8"))
    return p


def assert_bit_identical(a, b):
    for field in ("ids", "labels", "features", "lo", "span"):
        x, y = getattr(a, field), getattr(b, field)
        assert x.dtype == y.dtype and x.shape == y.shape, field
        assert x.tobytes() == y.tobytes(), field
    assert a.n_classes == b.n_classes


class TestLoadDataset:
    def test_basic_read(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0,f1\n0,0,0.1,0.2\n1,1,0.9,0.8\n2,0,0.2,0.1\n3,1,0.7,0.9\n")
        ds = load_dataset(p)
        assert len(ds) == 4
        assert ds.n_classes == 2
        assert ds.dim == 2

    def test_normalization_to_unit_range(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0\n0,0,2.0\n1,1,4.0\n2,0,3.0\n")
        ds = load_dataset(p)
        assert np.allclose(sorted(ds.features[:, 0]), [0.0, 0.5, 1.0])

    def test_constant_column_maps_to_zero(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0,f1\n0,0,5.0,1.0\n1,1,5.0,2.0\n")
        ds = load_dataset(p)
        assert np.all(ds.features[:, 0] == 0.0)

    def test_missing_feature_names_line(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0,f1\n0,0,0.1,0.2\n1,1,0.9\n")
        with pytest.raises(DataError) as info:
            load_dataset(p)
        assert str(info.value).startswith(f"{p}:3: ")

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0\n0,0,0.1\n0,1,0.9\n")
        with pytest.raises(DataError) as info:
            load_dataset(p)
        assert str(info.value) == f"{p}: duplicate sample ids"

    def test_non_finite_value(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0\n0,0,nan\n1,1,0.9\n")
        with pytest.raises(DataError) as info:
            load_dataset(p)
        assert str(info.value) == f"{p}:2: non-finite feature value"

    # (data rows after HEADER, file line named, text the message holds);
    # blank lines hold no row but count as lines
    @pytest.mark.parametrize("body,line,text", [
        ("0,0,0.1,0.2\n\n1,1,0.9\n", 4, ""),
        ("0,0,0.1,0.2\n1.5,1,0.9,0.8\n", 3, "'1.5'"),
        ("0,0,0.1,0.2\n1,1,x,0.8\n", 3, "'x'"),
        ("0,0,0.1,0.2\n1,1,0.9,\n", 3, "''"),
        ("0,0,0.1,0.2\n1,-1,0.9,0.8\n", 3, "negative class index -1"),
        ("0,0,0.1,0.2\n1,1,nan,0.8\n", 3, "non-finite feature value"),
        ("0,0,0.1,0.2\n\n1,1,0.3,inf\n", 4, "non-finite feature value"),
        ("0,0,0.1,0.2\n   \n1,1,0.3,0.4\n", 3, ""),
        ("0,0,0.1,0.2\n1_0,1,0.3,0.4\n", 3, "'1_0'"),
        ("0,-2,0.1,0.2\n1,1,x,0.4\n", 2, "negative class index -2"),
    ], ids=["short_row_after_blank", "id_1.5", "feature_x", "empty_field",
            "label_-1", "nan", "inf_after_blank", "whitespace_line",
            "digit_separator", "check_before_later_parse_error"])
    def test_bad_line_is_named(self, tmp_path, body, line, text):
        p = write_csv(tmp_path, HEADER + body)
        with pytest.raises(DataError) as info:
            load_dataset(p)
        assert str(info.value).startswith(f"{p}:{line}: ")
        assert text in str(info.value)

    @pytest.mark.parametrize("text,message", [
        ("", "empty file"),
        (HEADER, "no data rows"),
        (HEADER + "\n\n", "no data rows"),
        ("id,label\n0,1\n", "header must have id, label and features"),
    ], ids=["empty_file", "header_only", "header_and_blank_lines",
            "two_field_header"])
    def test_whole_file_error(self, tmp_path, text, message):
        p = write_csv(tmp_path, text)
        with pytest.raises(DataError) as info:
            load_dataset(p)
        assert str(info.value) == f"{p}: {message}"

    @pytest.mark.parametrize("text,ids,labels,raw", [
        ('id,label,f0,f1\n"0","1","0.5",".25"\n1,0,0.75,1\n',
         [0, 1], [1, 0], [[0.5, 0.25], [0.75, 1.0]]),
        ("id,label,f0,f1\r\n0,1,0.5,2\r\n\r\n1,0,0.25,3\r\n",
         [0, 1], [1, 0], [[0.5, 2.0], [0.25, 3.0]]),
        ("id,label,f0,f1\n 0 , 1 , 0.5 ,\t2\n+1,+0,.5,5.\n",
         [0, 1], [1, 0], [[0.5, 2.0], [0.5, 5.0]]),
        ("id,label,f0,f1\n7,2,0.5,-1\n", [7], [2], [[0.5, -1.0]]),
        ("id,label,f0\n3,0,0.5\n1,1,-2e3\n", [3, 1], [0, 1], [[0.5], [-2000.0]]),
    ], ids=["quoted", "crlf", "spaces_and_signs", "one_row", "one_feature"])
    def test_accepted_syntax(self, tmp_path, text, ids, labels, raw):
        p = write_csv(tmp_path, text)
        ds = load_dataset(p)
        raw = np.array(raw)
        assert ds.ids.tolist() == ids
        assert ds.labels.tolist() == labels
        assert ds.n_classes == max(labels) + 1
        assert np.array_equal(ds.lo, raw.min(axis=0))
        assert np.array_equal(ds.span, raw.max(axis=0) - raw.min(axis=0))
        assert_bit_identical(ds, load_dataset_reference(p))

    def test_peak_memory_and_owned_arrays(self, tmp_path):
        # what stays is the (n, d) features plus ids and labels; the parsed
        # n x (d + 2) table and the scaling temporaries must not pile up
        rng = np.random.default_rng(0)
        n, d = 20000, 16
        lines = [f"{i},{i % 3}," + ",".join(f"{v:.12g}" for v in row)
                 for i, row in enumerate(rng.standard_normal((n, d)))]
        header = "id,label," + ",".join(f"f{j}" for j in range(d))
        p = write_csv(tmp_path, "\n".join([header, *lines]) + "\n")
        tracemalloc.start()
        try:
            ds = load_dataset(p)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        final = ds.features.nbytes + ds.ids.nbytes + ds.labels.nbytes
        assert peak <= 4 * final, f"peak {peak / final:.2f}x the loaded arrays"
        # views of the table would keep all of it alive
        assert ds.ids.base is None and ds.labels.base is None


finite_floats = st.floats(min_value=-1e300, max_value=1e300, allow_nan=False)


@st.composite
def csv_tables(draw):
    d = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    ids = draw(st.permutations(range(n)))
    labels = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    rows = draw(st.lists(st.lists(finite_floats, min_size=d, max_size=d),
                         min_size=n, max_size=n))
    return d, ids, labels, rows


class TestMatchesReferenceLoader:
    """`load_dataset` against the row-by-row loader in `tests/oracles.py`."""

    def test_synth_file(self, tmp_path):
        p = tmp_path / "synth.csv"
        assert main(["synth", "--classes", "3", "--clusters", "2", "--per-class", "40",
                     "--noise", "0.2", "--seed", "5", "--dim", "6",
                     "--out", str(p)]) == 0
        assert_bit_identical(load_dataset(p), load_dataset_reference(p))

    def test_shuffled_ids_with_blank_lines(self, tmp_path):
        rng = np.random.default_rng(3)
        ids = rng.permutation(np.arange(1000, 1200))
        lines = ["id,label,a,b,c"]
        for i, (sid, row) in enumerate(zip(ids, rng.uniform(-5, 5, (len(ids), 3)))):
            lines.append(f"{sid},{i % 4}," + ",".join(repr(float(v)) for v in row))
            if i % 7 == 0:
                lines.append("")
        p = write_csv(tmp_path, "\r\n".join(lines) + "\r\n")
        ds = load_dataset(p)
        assert ds.ids.tolist() == ids.tolist()
        assert_bit_identical(ds, load_dataset_reference(p))

    @pytest.mark.parametrize("fmt", [repr, "{:.12g}".format], ids=["repr", "12g"])
    @settings(max_examples=60, deadline=None)
    @given(table=csv_tables())
    def test_round_trip(self, tmp_path_factory, fmt, table):
        d, ids, labels, rows = table
        lines = ["id,label," + ",".join(f"f{j}" for j in range(d))]
        lines += [f"{sid},{y}," + ",".join(fmt(v) for v in row)
                  for sid, y, row in zip(ids, labels, rows)]
        p = write_csv(tmp_path_factory.mktemp("rt"), "\n".join(lines) + "\n")
        assert_bit_identical(load_dataset(p), load_dataset_reference(p))


class TestGenerateSynthetic:
    def test_counts_and_balance(self):
        header, rows = generate_synthetic(2, 2, 500, noise=0.1, seed=0, dim=3)
        assert len(rows) == 1000
        labels = [r[1] for r in rows]
        assert labels.count(0) == 500 and labels.count(1) == 500

    def test_zero_noise_collapses_to_centers(self):
        _, rows = generate_synthetic(2, 2, 10, noise=0.0, seed=0, dim=2)
        feats = np.array([[float(v) for v in r[2:]] for r in rows])
        labels = np.array([r[1] for r in rows])
        for c in (0, 1):
            assert len(np.unique(feats[labels == c], axis=0)) == 2

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for p in (a, b):
            header, rows = generate_synthetic(3, 2, 50, noise=0.2, seed=9, dim=4)
            write_dataset(header, rows, p)
        assert a.read_bytes() == b.read_bytes()

    def test_round_trip_preserves_values(self, tmp_path):
        p = tmp_path / "d.csv"
        header, rows = generate_synthetic(2, 3, 40, noise=0.15, seed=4, dim=5)
        write_dataset(header, rows, p)
        ds = load_dataset(p)
        original = np.array([[float(v) for v in r[2:]] for r in rows])
        assert np.array_equal(ds.lo, original.min(axis=0))
        assert np.array_equal(ds.span, original.max(axis=0) - original.min(axis=0))
        assert np.allclose(ds.features * ds.span + ds.lo, original, rtol=0, atol=1e-12)
        assert np.array_equal(ds.labels, np.array([r[1] for r in rows]))

    def test_matches_in_memory_variant(self, tmp_path):
        p = tmp_path / "d.csv"
        header, rows = generate_synthetic(2, 2, 30, noise=0.1, seed=7, dim=3)
        write_dataset(header, rows, p)
        from_file = load_dataset(p)
        in_mem = synthetic_dataset(2, 2, 30, noise=0.1, seed=7, dim=3)
        for field in ("features", "lo", "span"):
            assert np.array_equal(getattr(from_file, field), getattr(in_mem, field))
        assert np.array_equal(from_file.labels, in_mem.labels)

    def test_invalid_spec(self):
        with pytest.raises(UsageError):
            generate_synthetic(1, 2, 10, noise=0.1, seed=0)
        with pytest.raises(UsageError):
            generate_synthetic(2, 2, 10, noise=-1.0, seed=0)


def fake_reports(n):
    return [
        CycleReport(cycle=t, n_labeled=4 + 5 * (t + 1), accuracy=0.5 + 0.01 * t,
                    mean_in_total=0.4, select_ms=1.5,
                    selected_ids=[t * 10 + i for i in range(5)],
                    strategy="ideal", seed=3)
        for t in range(n)
    ]


class TestWriteReports:
    def test_counts(self, tmp_path):
        artifacts = write_reports(fake_reports(5), tmp_path, config=LoopConfig())
        lines = open(artifacts.metrics_path).read().splitlines()
        assert len(lines) == 5
        assert len(artifacts.id_paths) == 5

    def test_metric_keys_and_ranges(self, tmp_path):
        import json
        artifacts = write_reports(fake_reports(3), tmp_path, config=LoopConfig())
        for line in open(artifacts.metrics_path):
            rec = json.loads(line)
            assert set(rec) == {"cycle", "n_labeled", "accuracy", "mean_in_total",
                                "select_ms", "strategy", "seed"}
            assert 0.0 <= rec["accuracy"] <= 1.0

    def test_config_snapshot_round_trips(self, tmp_path):
        config = LoopConfig(budget=7, gamma=0.3, weights=(1.0, 0.8, 0.2))
        write_reports(fake_reports(1), tmp_path, config=config)
        text = open(tmp_path / "config.snapshot").read()
        assert parse_config(text) == config


class TestConfigParsing:
    def test_round_trip(self):
        config = LoopConfig(budget=11, epsilon=0.25, hidden_sizes=(32, 16),
                            strategy="entropy", disable_density=True)
        assert parse_config(format_config(config)) == config

    def test_list_values_snapshot_as_their_tuples(self):
        config = LoopConfig(weights=[1.0, 0.5, 0.25], hidden_sizes=[8, 4])
        parsed = parse_config(format_config(config))
        assert (parsed.weights, parsed.hidden_sizes) == ((1.0, 0.5, 0.25), (8, 4))

    # tap_layer, disable_coarse, disable_fine and disable_reranker are removed
    # keys: a stale config or config.snapshot that still names one must fail
    # by name
    @pytest.mark.parametrize("line", ["learning_rte = 0.1", "tap_layer = 0",
                                      "tap_layer = 1", "disable_coarse = true",
                                      "disable_fine = false", "disable_reranker = true"],
                             ids=["learning_rte", "tap_layer_0", "tap_layer_1",
                                  "disable_coarse", "disable_fine", "disable_reranker"])
    def test_unknown_key_rejected(self, line):
        with pytest.raises(ConfigError, match=f"'{line.split()[0]}'.*unknown"):
            parse_config(f"budget = 5\n{line}\n")

    @pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(LoopConfig)])
    def test_none_only_where_the_default_is_none(self, field):
        # `none` restores a None default; any other key names itself
        text = f"{field} = none\n"
        if getattr(LoopConfig(), field) is None:
            assert getattr(parse_config(text), field) is None
        else:
            with pytest.raises(ConfigError, match=f"'{field}'"):
                parse_config(text)

    def test_repeated_key_rejected_naming_both_lines(self):
        with pytest.raises(ConfigError, match="'budget': set on line 1 and again on line 3"):
            parse_config("budget = 20\n# budget = 7\nbudget = 5\n")

    def test_comments_and_blanks(self):
        config = parse_config("# comment\n\nbudget = 9  # inline\n")
        assert config.budget == 9

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("budget = many\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config("budget 5\n")
