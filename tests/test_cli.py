import json
import os

import pytest

from ideal_al.cli import main
from ideal_al.config import LoopConfig, save_config


def make_dataset(tmp_path, name="train.csv", seed=0, per_class=40):
    path = tmp_path / name
    rc = main(["synth", "--classes", "2", "--clusters", "2",
               "--per-class", str(per_class), "--noise", "0.1",
               "--seed", str(seed), "--dim", "4", "--out", str(path)])
    assert rc == 0
    return path


def make_config(tmp_path, dataset, **overrides):
    base = dict(dataset=str(dataset), budget=5, cycles=2,
                train_steps_per_cycle=5, batch_size=8, hidden_sizes=(8,),
                seed=1)
    base.update(overrides)
    path = tmp_path / "run.cfg"
    save_config(LoopConfig(**base), path)
    return path


class TestSynth:
    def test_writes_csv(self, tmp_path):
        p = make_dataset(tmp_path)
        lines = p.read_text().splitlines()
        assert len(lines) == 81
        assert lines[0].startswith("id,label,")

    @pytest.mark.parametrize("flag,value", [
        ("--seed", "-3"), ("--dim", "0"), ("--classes", "1"), ("--clusters", "0"),
        ("--per-class", "0"), ("--noise", "-1"), ("--noise", "nan")])
    def test_bad_argument_exits_2_without_writing(self, flag, value, tmp_path, capsys):
        out = tmp_path / "synth.csv"
        # argparse keeps the last value of a repeated flag
        assert main(["synth", "--classes", "2", "--clusters", "2", "--per-class", "5",
                     "--noise", "0.1", "--seed", "0", "--dim", "2", flag, value,
                     "--out", str(out)]) == 2
        assert flag[2:] in capsys.readouterr().err
        assert not out.exists()


class TestRun:
    def test_run_and_artifacts(self, tmp_path, capsys):
        ds = make_dataset(tmp_path)
        cfg = make_config(tmp_path, ds)
        out = tmp_path / "out"
        rc = main(["run", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert (out / "metrics.jsonl").exists()
        assert (out / "config.snapshot").exists()
        records = [json.loads(l) for l in open(out / "metrics.jsonl")]
        assert len(records) == 2

    def test_snapshot_reproduces_metrics(self, tmp_path):
        ds = make_dataset(tmp_path)
        cfg = make_config(tmp_path, ds)
        out1, out2 = tmp_path / "o1", tmp_path / "o2"
        assert main(["run", "--config", str(cfg), "--out", str(out1)]) == 0
        snap = out1 / "config.snapshot"
        assert main(["run", "--config", str(snap), "--out", str(out2)]) == 0

        def stripped(path):
            recs = [json.loads(l) for l in open(path / "metrics.jsonl")]
            for r in recs:
                r.pop("select_ms")  # wall time is the one nondeterministic field
            return recs

        assert stripped(out1) == stripped(out2)

    def test_strategy_override(self, tmp_path, capsys):
        ds = make_dataset(tmp_path)
        cfg = make_config(tmp_path, ds)
        rc = main(["run", "--config", str(cfg), "--strategy", "random"])
        assert rc == 0
        assert "strategy=random" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        assert main(["run", "--config", str(tmp_path / "nope.cfg")]) == 3

    def test_bad_config_key(self, tmp_path):
        p = tmp_path / "bad.cfg"
        p.write_text("no_such_key = 1\n")
        assert main(["run", "--config", str(p)]) == 2

    def test_missing_dataset(self, tmp_path):
        cfg = make_config(tmp_path, tmp_path / "absent.csv")
        assert main(["run", "--config", str(cfg)]) == 3

    def test_non_finite_config_value(self, tmp_path, capsys):
        cfg = make_config(tmp_path, make_dataset(tmp_path))
        cfg.write_text(cfg.read_text().replace("epsilon = 0.1", "epsilon = nan"))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "epsilon" in capsys.readouterr().err

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path, make_dataset(tmp_path))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--seed", "-3"]) == 2
        assert "seed" in capsys.readouterr().err
        cfg.write_text(cfg.read_text().replace("seed = 1", "seed = -1"))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "seed" in capsys.readouterr().err

    def test_test_data_width_mismatch_fails_before_training(self, tmp_path, capsys):
        pool = make_dataset(tmp_path)
        test = tmp_path / "test.csv"
        assert main(["synth", "--classes", "2", "--clusters", "2", "--per-class", "10",
                     "--noise", "0.1", "--seed", "1", "--dim", "3",
                     "--out", str(test)]) == 0
        cfg = make_config(tmp_path, pool, test_dataset=str(test))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert "cycle=" not in out
        assert "data error" in err

    def test_test_class_missing_from_pool_exits_3(self, tmp_path, capsys):
        pool = make_dataset(tmp_path)
        test = tmp_path / "test.csv"
        assert main(["synth", "--classes", "3", "--clusters", "2", "--per-class", "10",
                     "--noise", "0.1", "--seed", "1", "--dim", "4",
                     "--out", str(test)]) == 0
        cfg = make_config(tmp_path, pool, test_dataset=str(test))
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 3
        out, err = capsys.readouterr()
        assert "cycle=" not in out
        assert "class 2" in err

    def test_budget_beyond_seeded_pool_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path, make_dataset(tmp_path, per_class=6), budget=20)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        assert "budget" in capsys.readouterr().err
        assert not (out / "metrics.jsonl").exists()

    def test_cycles_times_budget_beyond_seeded_pool_exits_2(self, tmp_path, capsys):
        # 12 rows, 4 seeded: the 8 left serve 2 cycles of budget 3, not 3
        cfg = make_config(tmp_path, make_dataset(tmp_path, per_class=6), budget=3,
                          cycles=3)
        out = tmp_path / "out"
        capsys.readouterr()
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert "cycle=" not in stdout
        assert "3 cycles x budget 3" in err
        assert not (out / "metrics.jsonl").exists()

    def test_class_index_gap_exits_3(self, tmp_path, capsys):
        pool = write_csv(tmp_path, [0, 0, 0, 2, 2, 2])
        assert main(["run", "--config", str(make_config(tmp_path, pool, budget=1))]) == 3
        assert "data error" in capsys.readouterr().err

    def test_class_below_init_per_class_exits_2(self, tmp_path, capsys):
        pool = write_csv(tmp_path, [0, 0, 0, 1, 1, 1, 1])
        cfg = make_config(tmp_path, pool, budget=1, init_per_class=4)
        assert main(["run", "--config", str(cfg)]) == 2
        assert "init_per_class" in capsys.readouterr().err


def write_csv(tmp_path, labels):
    path = tmp_path / "pool.csv"
    rows = [f"{i},{c},{i / len(labels)},{(i * 7 % 5) / 5}" for i, c in enumerate(labels)]
    path.write_text("\n".join(["id,label,x0,x1", *rows]) + "\n")
    return path


class TestAblateAndReport:
    def test_ablate_lattice_and_report(self, tmp_path, capsys):
        ds = make_dataset(tmp_path)
        cfg = make_config(tmp_path, ds, cycles=1, train_steps_per_cycle=3)
        out = tmp_path / "ablate"
        rc = main(["ablate", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        names = sorted(os.listdir(out))
        assert names == sorted(["full", "no_density", "no_reranker", "no_coarse",
                                "no_fine", "no_ranker", "random"])
        capsys.readouterr()
        rc = main(["report", "--in", str(out)])
        assert rc == 0
        text = capsys.readouterr().out
        assert "final-cycle comparison" in text
        assert "full" in text

    def test_ablate_budget_beyond_seeded_pool_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path, make_dataset(tmp_path, per_class=6), budget=20)
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 2
        out, err = capsys.readouterr()
        assert "final_accuracy" not in out
        assert "budget" in err

    def test_ablate_cycles_times_budget_beyond_seeded_pool_exits_2(self, tmp_path,
                                                                    capsys):
        cfg = make_config(tmp_path, make_dataset(tmp_path, per_class=6), budget=3,
                          cycles=3)
        out = tmp_path / "a"
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 2
        stdout, err = capsys.readouterr()
        assert "final_accuracy" not in stdout
        assert "3 cycles x budget 3" in err
        assert not list(tmp_path.rglob("metrics.jsonl"))

    def test_report_empty_dir(self, tmp_path):
        assert main(["report", "--in", str(tmp_path)]) == 3

    def test_report_corrupt_line_exits_3(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        good = json.dumps({"cycle": 0, "n_labeled": 9, "accuracy": 0.5,
                           "strategy": "ideal"})
        (run_dir / "metrics.jsonl").write_text(good + "\n" + good[:20] + "\n")
        assert main(["report", "--in", str(tmp_path)]) == 3
        assert "metrics.jsonl:2" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("[1, 2]", "not a JSON object"),
        ('{"cycle": 0}', "no 'strategy' key"),
    ])
    def test_report_malformed_record_exits_3(self, line, message, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text(line + "\n")
        assert main(["report", "--in", str(tmp_path)]) == 3
        assert f"metrics.jsonl:1: {message}" in capsys.readouterr().err
