"""CLI subcommands, exit codes, and file outputs (run in-process)."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rlapso
from rlapso import ddpg, harness
from rlapso.cli import main
from rlapso.ddpg import DdpgAgent, action_width, save_model
from rlapso.harness import read_curve_csv


class TestHelp:
    @pytest.mark.parametrize("argv", [
        ["--help"],
        ["train", "--help"],
        ["run", "--help"],
        ["compare", "--help"],
    ])
    def test_help_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestTopLevelUsage:
    @pytest.mark.parametrize("argv, message", [
        ([], "the following arguments are required: command"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        (["bench"], "argument command: invalid choice: 'bench'"),
    ])
    def test_usage_error_prints_usage_and_exits_one(self, argv, message, capsys):
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage: rlapso [-h] {train,run,compare}")
        assert f"rlapso: error: {message}" in err


class TestRun:
    def test_basic_run_writes_curve(self, tmp_path, capsys):
        out = tmp_path / "a.csv"
        code = main(["run", "--function", "sphere", "--dim", "2", "--algo", "pso",
                     "--budget", "400", "--particles", "8", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()
        curve = read_curve_csv(out)
        assert curve[0][0] == 8
        assert curve[-1][0] == 400

    def test_identical_flags_are_byte_identical(self, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            assert main(["run", "--function", "rastrigin", "--dim", "2",
                         "--algo", "pso-tvac", "--budget", "400", "--particles", "8",
                         "--seed", "3", "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_unknown_algo_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--function", "sphere", "--algo", "foo",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert "pso" in err and "rlpso" in err  # the valid choices are listed

    def test_unknown_flag_is_usage_error(self, tmp_path, capsys):
        code = main(["run", "--function", "sphere", "--algo", "pso",
                     "--frobnicate", "1", "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_model_algo_without_model_is_runtime_error(self, tmp_path, capsys):
        code = main(["run", "--function", "sphere", "--dim", "2", "--algo",
                     "rlam-absolute", "--budget", "400", "--particles", "8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "model" in capsys.readouterr().err


class TestSeedFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["run", "--function", "sphere", "--algo", "pso", "--seed", "-1"], "--seed"),
        (["run", "--function", "sphere", "--algo", "pso", "--fn-seed", "-2"], "--fn-seed"),
        (["train", "--seed", "-3"], "--seed"),
    ])
    def test_negative_seed_is_usage_error_naming_the_flag(self, tmp_path, capsys, argv, flag):
        code = main([*argv, "--out", str(tmp_path / "out")])
        assert code == 1
        assert f"argument {flag}: must be a non-negative integer" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []


class TestCompare:
    def test_missing_config_names_path(self, capsys):
        code = main(["compare", "--config", "missing.cfg"])
        assert code == 2
        assert "missing.cfg" in capsys.readouterr().err

    def test_bad_config_key_is_runtime_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("functions=sphere\nalgorithms=pso\nwhat=ever\n")
        assert main(["compare", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_empty_out_dir_is_runtime_error_writing_nothing(self, tmp_path, capsys,
                                                             monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text("functions=sphere\nalgorithms=pso\n"
                       "dim=2\nruns=1\nbudget=40\nparticles=8\nout_dir =\n")
        assert main(["compare", "--config", str(cfg)]) == 2
        assert "out_dir is empty" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [cfg]

    def test_small_comparison_runs(self, tmp_path, capsys):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            "functions=sphere\nalgorithms=pso,pso-linear\n"
            f"dim=2\nruns=3\nbudget=400\nparticles=8\nseed=2\nout_dir={tmp_path / 'out'}\n"
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        summary = tmp_path / "out" / "summary.csv"
        with open(summary, encoding="utf-8", newline="") as f:
            medians = {(row["function"], row["algorithm"]): row["median"]
                       for row in csv.DictReader(f)}
        # both medians lie within 1e-4 of the optimum -1400, and print apart
        assert medians["sphere", "pso"] != medians["sphere", "pso-linear"]
        assert capsys.readouterr().out.splitlines() == [
            *(f"sphere / {algorithm}: median final {medians['sphere', algorithm]} "
              "over 3 runs" for algorithm in ("pso", "pso-linear")),
            f"wrote {summary}",
        ]

    def test_each_model_column_equals_a_run_with_its_own_model(self, tmp_path):
        # all seven algorithms; the i-th model-driven one reads the i-th model path
        models = {}
        for seed, algorithm in enumerate(("rlam-absolute", "rlpso", "rlam-relative"), start=21):
            variant, mode = harness.MODEL_ALGORITHMS[algorithm]
            models[algorithm] = tmp_path / f"{algorithm}.bin"
            save_model(DdpgAgent(action_width(variant), seed=seed).actor, models[algorithm],
                       mode=mode, variant=variant, pool=["sphere"], episodes=1, seed=seed)
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            "functions = sphere, rastrigin\n"
            "algorithms = pso, pso-linear, rlam-absolute, pso-tvac, rlpso, clpso, rlam-relative\n"
            f"model = {', '.join(str(path) for path in models.values())}\n"
            f"dim=2\nruns=2\nbudget=400\nparticles=8\nseed=3\nout_dir={tmp_path / 'out'}\n"
        )
        assert main(["compare", "--config", str(cfg)]) == 0
        assert len(list((tmp_path / "out").glob("*__run*.csv"))) == 2 * 7 * 2
        for algorithm, model in models.items():
            for fi, function in enumerate(("sphere", "rastrigin")):
                for k in range(2):
                    out = tmp_path / "run.csv"
                    assert main(["run", "--function", function, "--dim", "2",
                                 "--fn-seed", str(3 + 1000 * (fi + 1)), "--algo", algorithm,
                                 "--model", str(model), "--budget", "400", "--particles", "8",
                                 "--seed", str(3 + k), "--out", str(out)]) == 0
                    column = tmp_path / "out" / harness.curve_filename(function, algorithm, k)
                    assert out.read_bytes() == column.read_bytes(), (algorithm, function, k)


class TestTrainAndModelRuns:
    def test_train_then_adapted_run(self, tmp_path, capsys):
        model = tmp_path / "m.bin"
        code = main(["train", "--algo", "rlam-absolute",
                     "--functions", "sphere", "--dim", "2", "--episodes", "2",
                     "--budget", "200", "--particles", "8", "--seed", "0",
                     "--out", str(model), "--log-every", "0"])
        assert code == 0
        assert model.exists()
        assert (tmp_path / "m.bin.meta").exists()

        out = tmp_path / "curve.csv"
        code = main(["run", "--function", "sphere", "--dim", "2",
                     "--algo", "rlam-absolute", "--model", str(model),
                     "--budget", "400", "--particles", "8", "--seed", "1",
                     "--out", str(out)])
        assert code == 0
        assert out.exists()

    def test_functions_split_like_a_config_list(self, tmp_path):
        model = tmp_path / "m.bin"
        text = " sphere, ,rastrigin "
        assert main(["train", "--functions", text, "--dim", "2", "--episodes", "1",
                     "--budget", "40", "--particles", "8", "--seed", "0",
                     "--out", str(model), "--log-every", "0"]) == 0
        sidecar = (tmp_path / "m.bin.meta").read_text(encoding="utf-8").splitlines()
        assert "pool=sphere,rastrigin" in sidecar
        config = harness.parse_config(f"functions = {text}\nalgorithms = pso\n")
        assert f"pool={','.join(config.functions)}" in sidecar

    def test_closing_line_gives_each_functions_error_to_its_optimum(self, tmp_path, capsys):
        """Sphere's optimum is -1400 and griewank's -500, so one median of raw
        final gbests over both would describe neither."""
        model = tmp_path / "m.bin"
        assert main(["train", "--functions", "sphere,griewank", "--dim", "2",
                     "--episodes", "6", "--budget", "40", "--particles", "8", "--seed", "0",
                     "--validate-every", "0", "--out", str(model), "--log-every", "0"]) == 0
        line = capsys.readouterr().out.splitlines()[-1]
        head, _, tail = line.partition("; last-20 median error to the optimum: ")
        medians, _, written = tail.partition("; ")
        assert (head, written) == ("trained 6 episodes", f"model written to {model}")
        errors = dict(item.split(" ") for item in medians.split(", "))
        assert sorted(errors) == ["griewank", "sphere"]
        assert all(float(error) >= 0.0 for error in errors.values())

    @pytest.mark.parametrize("flag", ["--validate-every", "--log-every"])
    def test_negative_cadence_is_runtime_error(self, tmp_path, capsys, flag):
        model = tmp_path / "m.bin"
        code = main(["train", "--algo", "rlam-absolute",
                     "--functions", "sphere", "--dim", "2", "--episodes", "3",
                     "--budget", "40", "--particles", "10", "--seed", "0",
                     "--out", str(model), flag, "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert flag[2:].replace("-", "_") in captured.err
        assert "episode" not in captured.out
        assert not model.exists()

    @pytest.mark.parametrize("algorithm", tuple(harness.MODEL_ALGORITHMS))
    def test_each_model_algorithm_trains_and_runs_by_name(self, tmp_path, algorithm):
        model = tmp_path / "m.bin"
        assert main(["train", "--algo", algorithm, "--functions", "sphere", "--dim", "2",
                     "--episodes", "1", "--budget", "40", "--particles", "8",
                     "--validate-every", "0", "--log-every", "0", "--out", str(model)]) == 0
        variant, mode = harness.MODEL_ALGORITHMS[algorithm]
        sidecar = (tmp_path / "m.bin.meta").read_text(encoding="utf-8").splitlines()
        assert f"mode={mode}" in sidecar and f"variant={variant}" in sidecar
        assert main(["run", "--function", "sphere", "--dim", "2", "--algo", algorithm,
                     "--model", str(model), "--budget", "400", "--particles", "8",
                     "--out", str(tmp_path / "x.csv")]) == 0

    def test_schedule_algorithm_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--algo", "pso", "--out", str(tmp_path / "m.bin")])
        assert code == 1
        [line] = [ln for ln in capsys.readouterr().err.splitlines() if "error:" in ln]
        assert "rlapso train: error: argument --algo: invalid choice: 'pso'" in line
        assert all(name in line for name in ("rlam-absolute", "rlam-relative", "rlpso"))
        assert list(tmp_path.iterdir()) == []

    def test_model_variant_mismatch_is_runtime_error(self, tmp_path, capsys):
        model = tmp_path / "m.bin"
        assert main(["train", "--algo", "rlam-absolute",
                     "--functions", "sphere", "--dim", "2", "--episodes", "1",
                     "--budget", "200", "--particles", "8", "--seed", "0",
                     "--out", str(model), "--log-every", "0"]) == 0
        code = main(["run", "--function", "sphere", "--dim", "2", "--algo", "rlpso",
                     "--model", str(model), "--budget", "400", "--particles", "8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "action values" in capsys.readouterr().err

    def test_mode_mismatch_is_runtime_error(self, tmp_path, capsys):
        model = tmp_path / "m.bin"
        assert main(["train", "--algo", "rlam-absolute",
                     "--functions", "sphere", "--dim", "2", "--episodes", "1",
                     "--budget", "200", "--particles", "8", "--seed", "0",
                     "--out", str(model), "--log-every", "0"]) == 0
        code = main(["run", "--function", "sphere", "--dim", "2",
                     "--algo", "rlam-relative", "--model", str(model),
                     "--budget", "400", "--particles", "8",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 2
        assert "mode" in capsys.readouterr().err


class TestCorruptModel:
    @pytest.fixture
    def truncated_model(self, tmp_path):
        model = tmp_path / "m.bin"
        save_model(DdpgAgent(action_width("pso"), seed=0).actor, model, mode="absolute",
                   variant="pso", pool=["sphere"], episodes=1, seed=0)
        model.write_bytes(model.read_bytes()[:-8])
        return model

    def test_run_with_truncated_model_is_runtime_error(self, tmp_path, capsys, truncated_model):
        out = tmp_path / "x.csv"
        code = main(["run", "--function", "sphere", "--dim", "2", "--algo", "rlam-absolute",
                     "--model", str(truncated_model), "--budget", "400", "--particles", "8",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    def test_compare_with_truncated_model_is_runtime_error(self, tmp_path, capsys,
                                                           truncated_model):
        cfg = tmp_path / "cmp.cfg"
        cfg.write_text(
            "functions=sphere\nalgorithms=pso,rlam-absolute\n"
            f"dim=2\nruns=3\nbudget=400\nparticles=8\nout_dir={tmp_path / 'out'}\n"
            f"model={truncated_model}\n"
        )
        assert main(["compare", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "out").exists()

    def test_run_with_non_finite_model_is_runtime_error(self, tmp_path, capsys):
        model = tmp_path / "nan.bin"
        actor = DdpgAgent(action_width("pso"), seed=0).actor
        actor.params[:] = np.nan
        save_model(actor, model, mode="absolute", variant="pso", pool=["sphere"],
                   episodes=1, seed=0)
        out = tmp_path / "x.csv"
        code = main(["run", "--function", "sphere", "--dim", "2", "--algo", "rlam-absolute",
                     "--model", str(model), "--budget", "400", "--particles", "10",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert f"{actor.params.size} of {actor.params.size} parameters are not finite" in err
        assert not out.exists()


class TestModelForModelFreeAlgorithm:
    def test_run_refuses_a_model_before_any_work(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the model was refused")
        monkeypatch.setattr(harness, "make_objective", fail)
        out = tmp_path / "x.csv"
        code = main(["run", "--function", "sphere", "--dim", "2", "--algo", "pso",
                     "--model", str(tmp_path / "does-not-exist.bin"), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == "error: algorithm 'pso' reads no model\n"
        assert not out.exists()


class TestMissingOutDirectory:
    @pytest.fixture(autouse=True)
    def no_work(self, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("work started before the output directory was checked")
        monkeypatch.setattr(ddpg, "train", fail)
        monkeypatch.setattr(harness, "run_single", fail)

    COMMANDS = [
        ["train", "--functions", "sphere", "--dim", "2", "--episodes", "1"],
        ["run", "--function", "sphere", "--dim", "2", "--algo", "pso"],
    ]

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_missing_directory_is_refused_before_any_work(self, tmp_path, capsys, argv):
        missing = tmp_path / "missing_dir"
        code = main([*argv, "--out", str(missing / "out.bin")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(missing) in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", COMMANDS)
    def test_existing_directory_is_refused_before_any_work(self, tmp_path, capsys, argv):
        out_dir = tmp_path / "models"
        out_dir.mkdir()
        code = main([*argv, "--out", str(out_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert str(out_dir) in err
        assert list(tmp_path.iterdir()) == [out_dir]
        assert list(out_dir.iterdir()) == []


class TestBlasThreads:
    _VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

    def _run(self, code, **preset):
        env = {k: v for k, v in os.environ.items() if k not in self._VARS}
        env.update(preset, PYTHONPATH=str(Path(rlapso.__file__).resolve().parents[1]))
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, check=True, timeout=120)
        return done.stdout

    def _threads_seen(self, **preset):
        code = ("import os, sys, rlapso; assert 'numpy' in sys.modules; "
                f"print(','.join(os.environ[v] for v in {self._VARS!r}))")
        return self._run(code, **preset).strip().split(",")

    def _import_warnings(self, modules, **preset):
        """The RuntimeWarnings raised by ``import <modules>``, one per line."""
        code = ("import warnings\n"
                "with warnings.catch_warnings(record=True) as caught:\n"
                "    warnings.simplefilter('always')\n"
                f"    import {modules}\n"
                "for w in caught:\n"
                "    if issubclass(w.category, RuntimeWarning):\n"
                "        print(w.message)\n")
        return self._run(code, **preset).splitlines()

    def test_unset_thread_counts_default_to_one(self):
        assert self._threads_seen() == ["1", "1", "1"]

    def test_explicit_thread_counts_win(self):
        assert self._threads_seen(OPENBLAS_NUM_THREADS="2", OMP_NUM_THREADS="3") == ["3", "2", "1"]

    def test_numpy_imported_first_warns(self):
        [message] = self._import_warnings("numpy, rlapso")
        assert "before numpy loads" in message
        assert all(var in message for var in self._VARS)

    def test_rlapso_imported_first_does_not_warn(self):
        assert self._import_warnings("rlapso, numpy") == []

    def test_exported_thread_count_does_not_warn(self):
        assert self._import_warnings("numpy, rlapso", OPENBLAS_NUM_THREADS="1") == []
