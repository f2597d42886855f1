import numpy as np
import pytest

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
        with pytest.raises(DataError, match=":3"):
            load_dataset(p)

    def test_duplicate_id(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0\n0,0,0.1\n0,1,0.9\n")
        with pytest.raises(DataError, match="duplicate"):
            load_dataset(p)

    def test_non_finite_value(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("id,label,f0\n0,0,nan\n1,1,0.9\n")
        with pytest.raises(DataError):
            load_dataset(p)


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
                            strategy="entropy", disable_fine=True)
        assert parse_config(format_config(config)) == config

    # tap_layer is a removed key: a stale config or config.snapshot that
    # still names it must fail by name
    @pytest.mark.parametrize("line", ["learning_rte = 0.1", "tap_layer = 0",
                                      "tap_layer = 1"],
                             ids=["learning_rte", "tap_layer_0", "tap_layer_1"])
    def test_unknown_key_rejected(self, line):
        with pytest.raises(ConfigError, match=f"'{line.split()[0]}'.*unknown"):
            parse_config(f"budget = 5\n{line}\n")

    def test_comments_and_blanks(self):
        config = parse_config("# comment\n\nbudget = 9  # inline\n")
        assert config.budget == 9

    def test_bad_value(self):
        with pytest.raises(ConfigError):
            parse_config("budget = many\n")

    def test_bad_line(self):
        with pytest.raises(ConfigError):
            parse_config("budget 5\n")
