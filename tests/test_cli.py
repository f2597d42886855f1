import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ideal_al
from ideal_al.cli import main
from ideal_al.config import LoopConfig, load_config, save_config
from ideal_al.loop import ActiveLearningLoop


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

    def test_config_not_utf8_exits_2(self, tmp_path, capsys):
        p = tmp_path / "bad.cfg"
        p.write_bytes(b"budget = 5\ncycles = 2\xff\n")
        assert main(["run", "--config", str(p)]) == 2
        assert f"'line 2': {p} is not valid UTF-8" in capsys.readouterr().err

    # a short file fails to decode as its header is read; a long one only when
    # the rows are parsed, and again when the bad line is searched for
    @pytest.mark.parametrize("body,line", [
        (b"id,label,f\xff\n0,0,0.5\n1,1,0.7\n", 1),
        (b"id,label,f0\n0,0,0.5\n1,1,0.\xff\n", 3),
        (b"id,label,f0\n" + b"".join(b"%d,%d,0.5\n" % (i, i % 2) for i in range(3000))
         + b"3000,1,\xff\n", 3002),
    ], ids=["header", "row", "row_past_first_read"])
    def test_dataset_not_utf8_exits_3(self, body, line, tmp_path, capsys):
        ds = tmp_path / "pool.csv"
        ds.write_bytes(body)
        assert main(["run", "--config", str(make_config(tmp_path, ds))]) == 3
        assert f"{ds}:{line}: not valid UTF-8" in capsys.readouterr().err

    def test_missing_dataset(self, tmp_path):
        cfg = make_config(tmp_path, tmp_path / "absent.csv")
        assert main(["run", "--config", str(cfg)]) == 3

    # a directory or an existing file where a file or a directory is read or
    # made once raised IsADirectoryError or FileExistsError and exited 1
    def test_directory_as_config_exits_3(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_directory_as_dataset_exits_3(self, tmp_path, capsys):
        cfg = make_config(tmp_path, tmp_path)
        assert main(["run", "--config", str(cfg)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_out_naming_an_existing_file_exits_3(self, tmp_path, capsys, monkeypatch):
        # before any training
        monkeypatch.setattr(ActiveLearningLoop, "_train_phase", never_train)
        cfg = make_config(tmp_path, make_dataset(tmp_path))
        out = tmp_path / "out"
        out.write_text("")
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 3
        assert "data error" in capsys.readouterr().err

    def test_repeated_config_key_exits_2(self, tmp_path, capsys):
        cfg = make_config(tmp_path, make_dataset(tmp_path))
        cfg.write_text(cfg.read_text() + "budget = 3\n")
        out = tmp_path / "out"
        assert main(["run", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "config key 'budget'" in err and "again on line" in err
        assert not out.exists()

    def test_non_finite_config_value(self, tmp_path, capsys):
        cfg = make_config(tmp_path, make_dataset(tmp_path))
        cfg.write_text(cfg.read_text().replace("epsilon = 0.1", "epsilon = nan"))
        assert main(["run", "--config", str(cfg)]) == 2
        assert "epsilon" in capsys.readouterr().err

    # an int once crashed in validate (exit 1); a boolean was read as false
    @pytest.mark.parametrize("key", ["budget", "cold_start"])
    def test_none_for_a_key_without_a_none_default_exits_2(self, key, tmp_path, capsys):
        cfg = make_config(tmp_path, make_dataset(tmp_path))
        cfg.write_text(cfg.read_text() + f"{key} = none\n")
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 2
        assert f"config key '{key}'" in capsys.readouterr().err

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

    def test_non_finite_weights_after_training_exit_4(self, tmp_path, capsys):
        # every loss is finite, but the phase's last update overflows
        data = tmp_path / "train.csv"
        assert main(["synth", "--classes", "2", "--clusters", "2", "--per-class", "30",
                     "--noise", "0.08", "--seed", "21", "--dim", "3",
                     "--out", str(data)]) == 0
        cfg = make_config(tmp_path, data, budget=2, cycles=1, train_steps_per_cycle=2,
                          seed=0, batch_size=8, learning_rate=1e32, strategy="random",
                          hidden_sizes=LoopConfig().hidden_sizes)
        out = tmp_path / "out"
        capsys.readouterr()
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", str(cfg), "--out", str(out)]) == 4
        stdout, err = capsys.readouterr()
        assert "accuracy=" not in stdout
        assert "numeric error: layer 0 parameters are non-finite" in err
        assert not (out / "metrics.jsonl").exists()


def never_train(loop, rng):
    pytest.fail("a training phase ran")


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
        # the re-ranker is taken away by giving it exactly the batch to choose from
        snapshot = load_config(out / "no_reranker" / "config.snapshot")
        assert snapshot.m_cand == snapshot.budget == 5
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

    @pytest.mark.parametrize("blocked", ["out", "variant"])
    def test_ablate_out_that_cannot_be_made_exits_3_before_training(
            self, blocked, tmp_path, capsys, monkeypatch):
        # `--out` itself, or a later variant's directory, is an existing file
        monkeypatch.setattr(ActiveLearningLoop, "_train_phase", never_train)
        cfg = make_config(tmp_path, make_dataset(tmp_path))
        out = tmp_path / "a"
        if blocked == "out":
            out.write_text("")
        else:
            out.mkdir()
            (out / "no_fine").write_text("")
        capsys.readouterr()
        assert main(["ablate", "--config", str(cfg), "--out", str(out)]) == 3
        stdout, err = capsys.readouterr()
        assert "final_accuracy" not in stdout
        assert "data error" in err
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

    def test_report_not_utf8_exits_3(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        good = json.dumps({"cycle": 0, "n_labeled": 9, "accuracy": 0.5,
                           "strategy": "ideal"}).encode()
        (run_dir / "metrics.jsonl").write_bytes(good + b"\n" + good.replace(b"ideal", b"id\xffeal"))
        assert main(["report", "--in", str(tmp_path)]) == 3
        assert "metrics.jsonl:2: not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize("line,message", [
        ("[1, 2]", "not a JSON object"),
        ('{"cycle": 0}', "no 'strategy' key"),
        ('{"cycle": 0, "strategy": "ideal", "n_labeled": 4, "accuracy": null}',
         "'accuracy' has the wrong type: None"),
        ('{"cycle": 0, "strategy": "ideal", "n_labeled": 4.5, "accuracy": 0.5}',
         "'n_labeled' has the wrong type: 4.5"),
        ('{"cycle": "0", "strategy": "ideal", "n_labeled": 4, "accuracy": 0.5}',
         "'cycle' has the wrong type: '0'"),
    ])
    def test_report_malformed_record_exits_3(self, line, message, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "metrics.jsonl").write_text(line + "\n")
        assert main(["report", "--in", str(tmp_path)]) == 3
        assert f"metrics.jsonl:1: {message}" in capsys.readouterr().err


class TestBlasThreads:
    """Importing the package pins BLAS to one thread before numpy loads, so the
    scan's workers do not share the cores with BLAS threads."""

    def blas_env_after_import(self, set_vars, first=""):
        env = {k: v for k, v in os.environ.items() if k not in ideal_al.BLAS_THREAD_VARS}
        env.update(set_vars, PYTHONPATH=os.path.dirname(os.path.dirname(ideal_al.__file__)))
        code = (first + "import json, os, ideal_al.cli; print(json.dumps("
                "{v: os.environ.get(v) for v in ideal_al.BLAS_THREAD_VARS}))")
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True)
        return json.loads(out.stdout)

    def test_pinned_when_unset(self):
        assert set(self.blas_env_after_import({}).values()) == {"1"}

    def test_callers_thread_count_is_kept(self):
        got = self.blas_env_after_import({"OMP_NUM_THREADS": "3"})
        assert got == {"OPENBLAS_NUM_THREADS": None, "OMP_NUM_THREADS": "3",
                       "MKL_NUM_THREADS": None}

    def test_left_alone_when_numpy_is_already_loaded(self):
        got = self.blas_env_after_import({}, first="import numpy; ")
        assert set(got.values()) == {None}
