"""Improvement metric, Wilcoxon test, config parsing, experiment outputs."""

import itertools
import math
import re
from pathlib import Path

import numpy as np
import pytest

from rlapso.harness import (
    ALGORITHMS,
    ComparisonSummary,
    ConfigError,
    ExperimentConfig,
    curve_filename,
    improvement,
    load_config,
    normalized_pairs,
    parse_config,
    read_curve_csv,
    run_experiment,
    run_single,
    summarize,
    wilcoxon_signed_rank,
)


class TestImprovement:
    def test_reaching_the_optimum_is_hundred_percent(self):
        assert improvement(-800.0, -1400.0, -1400.0) == 100.0

    def test_no_change_is_zero_percent(self):
        assert improvement(-800.0, -800.0, -1400.0) == 0.0

    def test_hand_computed_fraction(self):
        # (origin - adapted) / (origin - best) = 530 / 600
        assert improvement(-800.0, -1330.0, -1400.0) == pytest.approx(100.0 * 530 / 600)
        assert improvement(-800.0, -1330.0, -1400.0) == pytest.approx(88.3333, abs=1e-3)

    def test_regression_is_negative(self):
        assert improvement(-800.0, -700.0, -1400.0) < 0.0

    def test_origin_at_optimum_rejected(self):
        with pytest.raises(ValueError, match="undefined"):
            improvement(-1400.0, -1400.0, -1400.0)


def _oracle_ranks(absdiffs):
    """Independent average-rank computation, doubled to stay integral."""
    order = sorted(range(len(absdiffs)), key=lambda k: absdiffs[k])
    doubled = [0] * len(absdiffs)
    i = 0
    while i < len(absdiffs):
        j = i
        while j + 1 < len(absdiffs) and absdiffs[order[j + 1]] == absdiffs[order[i]]:
            j += 1
        for k in range(i, j + 1):
            doubled[order[k]] = (i + 1) + (j + 1)
        i = j + 1
    return doubled


def _oracle_exact_p(diffs):
    """Two-sided p by enumerating every sign assignment of |diffs|."""
    doubled = _oracle_ranks([abs(d) for d in diffs])
    observed = sum(r for r, d in zip(doubled, diffs) if d > 0)
    n = len(diffs)
    le = ge = 0
    for signs in itertools.product((False, True), repeat=n):
        t = sum(r for r, pos in zip(doubled, signs) if pos)
        le += t <= observed
        ge += t >= observed
    total = 2**n
    return min(1.0, 2.0 * min(le / total, ge / total))


class TestWilcoxon:
    def test_all_ties_rejected(self):
        x = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        with pytest.raises(ValueError, match="nonzero"):
            wilcoxon_signed_rank(x, x)

    def test_six_positive_differences_exact(self):
        stat, p = wilcoxon_signed_rank([1, 2, 3, 4, 5, 6], [0, 0, 0, 0, 0, 0])
        assert stat == 0.0
        assert p == pytest.approx(2.0 / 2**6, abs=1e-15)

    def test_antisymmetry(self, rng):
        for _ in range(20):
            n = int(rng.integers(5, 30))
            x = rng.normal(size=n)
            y = x + rng.normal(size=n)
            s1, p1 = wilcoxon_signed_rank(x, y)
            s2, p2 = wilcoxon_signed_rank(y, x)
            assert s1 == s2
            assert p1 == pytest.approx(p2, rel=1e-12)

    def test_exact_path_matches_enumeration_oracle(self, rng):
        for trial in range(100):
            n = int(rng.integers(5, 13))
            x = np.round(rng.normal(size=n), 1)
            y = np.round(rng.normal(size=n), 1)
            diffs = x - y
            if np.count_nonzero(diffs) < 5:
                continue
            _, p = wilcoxon_signed_rank(x, y)
            assert p == pytest.approx(_oracle_exact_p([d for d in diffs if d != 0]),
                                      rel=1e-12), f"trial {trial}"

    def test_short_samples_rejected(self):
        with pytest.raises(ValueError, match="at least 5"):
            wilcoxon_signed_rank([1, 2, 3], [0, 0, 0])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError, match="equal-length"):
            wilcoxon_signed_rank([1, 2, 3, 4, 5], [1, 2, 3, 4])

    def test_normal_approximation_for_large_n(self, rng):
        x = np.arange(1.0, 31.0)
        y = np.zeros(30)
        stat, p = wilcoxon_signed_rank(x, y)
        assert stat == 0.0
        # all-positive extreme: z = (0 - mu + 0.5) / sigma
        mu = 30 * 31 / 4
        sigma = math.sqrt(30 * 31 * 61 / 24)
        expected = 2 * 0.5 * math.erfc((mu - 0.5) / sigma / math.sqrt(2))
        assert p == pytest.approx(expected, rel=1e-12)
        assert p < 1e-5

    def test_balanced_differences_are_insignificant(self):
        x = np.array([1.0, -1.0, 2.0, -2.0, 3.0, -3.0, 4.0, -4.0])
        _, p = wilcoxon_signed_rank(x, np.zeros(8))
        assert p > 0.9


class TestNormalizedPairs:
    def test_pooled_bounds(self):
        a, b = normalized_pairs([1.0, 5.0], [3.0, 9.0])
        assert a.min() == 0.0 and b.max() == 1.0
        assert np.all((0 <= a) & (a <= 1)) and np.all((0 <= b) & (b <= 1))

    def test_degenerate_pool_maps_to_zeros(self):
        a, b = normalized_pairs([2.0, 2.0], [2.0, 2.0])
        assert np.array_equal(a, np.zeros(2))
        assert np.array_equal(b, np.zeros(2))


class TestConfig:
    def test_parse_full_config(self):
        cfg = parse_config(
            """
            # comparison setup
            functions = sphere, rastrigin
            algorithms = pso, pso-linear
            dim = 4
            runs = 3
            budget = 400   # tiny
            seed = 9
            particles = 8
            out_dir = out
            """
        )
        assert cfg.functions == ["sphere", "rastrigin"]
        assert cfg.algorithms == ["pso", "pso-linear"]
        assert (cfg.dim, cfg.runs, cfg.budget, cfg.seed, cfg.particles) == (4, 3, 400, 9, 8)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            parse_config("functions=sphere\nalgorithms=pso\ncolour=red\n")

    def test_duplicate_key_rejected_with_both_lines(self):
        text = "functions=sphere\nruns = 3\n# again\nalgorithms=pso\nruns = 5\n"
        with pytest.raises(ConfigError, match=r"line 5: duplicate config key 'runs' "
                                              r"\(first set on line 2\)"):
            parse_config(text)

    def test_unparsable_number_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"line 3: invalid value for 'dim': 'dim = ten'"):
            parse_config("functions=sphere\nalgorithms=pso\ndim = ten\n")

    def test_fewer_particles_than_subgroups_rejected(self):
        with pytest.raises(ConfigError, match="need at least 5 particles, got 3"):
            parse_config("functions=sphere\nalgorithms=pso\nparticles = 3\n")

    @pytest.mark.parametrize("setting, message", [
        ("runs = 0", "runs must be >= 1, got 0"),
        ("budget = 30", "budget 30 cannot cover initialization of 40 particles"),
        ("dim = 1", "dim must be >= 2, got 1"),
    ])
    def test_size_refusal_names_its_key_and_value(self, setting, message):
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            parse_config(f"functions=sphere\nalgorithms=pso\n{setting}\n")

    def test_repeated_function_rejected(self):
        with pytest.raises(ConfigError, match="functions lists 'sphere' more than once"):
            parse_config("functions=sphere, rastrigin, sphere\nalgorithms=pso\n")

    def test_repeated_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="algorithms lists 'pso' more than once"):
            parse_config("functions=sphere\nalgorithms=pso, clpso, pso\n")

    def test_missing_required_keys_rejected(self):
        with pytest.raises(ConfigError, match="must set"):
            parse_config("dim=4\n")

    def test_unknown_function_rejected(self):
        with pytest.raises(ConfigError, match="unknown function"):
            parse_config("functions=nope\nalgorithms=pso\n")

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ConfigError, match="unknown algorithm"):
            parse_config("functions=sphere\nalgorithms=nope\n")

    def test_model_required_for_model_algorithms(self):
        with pytest.raises(ConfigError, match="model"):
            parse_config("functions=sphere\nalgorithms=pso,rlam-absolute\n")

    def test_model_refused_when_no_algorithm_reads_it(self):
        with pytest.raises(ConfigError, match="config sets model but no listed algorithm "
                                              "reads one: pso, clpso"):
            parse_config("functions=sphere\nalgorithms=pso, clpso\nmodel = missing.bin\n")

    def test_byte_order_mark_is_dropped(self, tmp_path):
        text = "functions = sphere, rastrigin\nalgorithms = pso\nruns = 3\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text, encoding="utf-8")
        marked.write_text(text, encoding="utf-8-sig")
        assert marked.read_bytes().startswith(b"\xef\xbb\xbf")
        assert load_config(marked) == load_config(plain)

    def test_missing_file_raises_filenotfound(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="missing.cfg"):
            load_config(tmp_path / "missing.cfg")

    def test_empty_out_dir_rejected(self):
        # Path("") would put every result file in the working directory
        with pytest.raises(ConfigError, match="out_dir is empty"):
            parse_config("functions=sphere\nalgorithms=pso\nout_dir =\n")


def tiny_config(tmp_path, **overrides):
    base = dict(functions=["sphere", "rastrigin"], algorithms=["pso", "pso-linear"],
                dim=2, runs=3, budget=400, seed=5, particles=8,
                out_dir=str(tmp_path / "out"))
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunSingle:
    def test_unknown_algorithm_lists_choices(self):
        with pytest.raises(ValueError, match="pso-linear"):
            run_single("foo", "sphere", 2, 1, 100, 1, particles=8)

    def test_model_algorithms_require_model(self):
        with pytest.raises(ValueError, match="model"):
            run_single("rlam-absolute", "sphere", 2, 1, 100, 1, particles=8)

    @pytest.mark.parametrize("algo", ["pso", "pso-tvac", "clpso"])
    def test_model_free_algorithms_refuse_a_model(self, algo):
        for model in ("does-not-exist.bin", TestModelContract._model()):
            with pytest.raises(ValueError, match=f"^algorithm '{algo}' reads no model$"):
                run_single(algo, "sphere", 2, 1, 100, 1, particles=8, model=model)

    def test_experiment_hands_its_model_to_model_driven_algorithms_only(self, tmp_path):
        from rlapso.ddpg import DdpgAgent, action_width, save_model

        path = tmp_path / "absolute.bin"
        save_model(DdpgAgent(action_width("pso"), seed=5).actor, path, mode="absolute",
                   variant="pso", pool=["sphere"], episodes=1, seed=5)
        cfg = tiny_config(tmp_path, algorithms=["pso", "clpso", "rlam-absolute"],
                          model=str(path))
        records, _ = run_experiment(cfg)
        assert [(r.variant, r.adapter) for r in records[:9:3]] == [
            ("pso", "none"), ("clpso", "linear_dec_w"), ("pso", "rlam-absolute")]

    def test_curve_non_increasing_all_algorithms(self):
        for algo in ("pso", "pso-linear", "pso-tvac", "clpso"):
            rec = run_single(algo, "rastrigin", 2, 3, 400, 2, particles=8)
            gbests = [fit for _, fit in rec.curve]
            assert all(b <= a for a, b in zip(gbests, gbests[1:])), algo
            assert rec.final_fit == gbests[-1]

    def test_adapter_tags(self):
        assert run_single("pso", "sphere", 2, 1, 100, 1, particles=8).adapter == "none"
        assert run_single("pso-tvac", "sphere", 2, 1, 100, 1, particles=8).adapter == "tvac"


class TestRunExperiment:
    def test_file_accounting(self, tmp_path):
        cfg = tiny_config(tmp_path)
        run_experiment(cfg)
        out = Path(cfg.out_dir)
        curves = sorted(p.name for p in out.glob("*__run*.csv"))
        assert len(curves) == 12  # 2 functions x 2 algorithms x 3 runs
        assert (out / "summary.csv").exists()
        assert curve_filename("sphere", "pso", 0) in curves

    def test_negative_seed_named_before_any_file(self, tmp_path):
        cfg = tiny_config(tmp_path, seed=-2)
        with pytest.raises(ConfigError, match="seed must be a non-negative integer, got -2"):
            run_experiment(cfg)
        assert not Path(cfg.out_dir).exists()

    def test_repeat_is_byte_identical(self, tmp_path):
        cfg_a = tiny_config(tmp_path, out_dir=str(tmp_path / "a"))
        cfg_b = tiny_config(tmp_path, out_dir=str(tmp_path / "b"))
        run_experiment(cfg_a)
        run_experiment(cfg_b)
        for name in [curve_filename("sphere", "pso", k) for k in range(3)] + ["summary.csv"]:
            assert (Path(cfg_a.out_dir) / name).read_bytes() == \
                   (Path(cfg_b.out_dir) / name).read_bytes()

    def test_self_comparison_is_all_ties(self, tmp_path):
        # a config may not name an algorithm twice, so the pso runs are
        # summarized against a copy of themselves under a second name
        records, _ = run_experiment(tiny_config(tmp_path, algorithms=["pso"]))
        cfg = tiny_config(tmp_path)
        finals = {}
        for rec in records:
            for alg in cfg.algorithms:
                finals.setdefault((rec.function, alg), []).append(rec.final_fit)
        summary = summarize(finals, cfg)
        pooled = [r for r in summary.rows if r.function == "ALL"]
        assert len(pooled) == 1
        assert pooled[0].wins == 0 and pooled[0].losses == 0
        assert math.isnan(pooled[0].p_value)

    def test_summary_recomputes_from_curve_files(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, summary = run_experiment(cfg)
        finals = {}
        for fn in cfg.functions:
            for alg in cfg.algorithms:
                finals[(fn, alg)] = [
                    read_curve_csv(Path(cfg.out_dir) / curve_filename(fn, alg, k))[-1][1]
                    for k in range(cfg.runs)
                ]
        recomputed = summarize(finals, cfg)
        assert list(recomputed.csv_lines()) == list(summary.csv_lines())

    def test_paired_seeds_across_algorithms(self, tmp_path):
        cfg = tiny_config(tmp_path, algorithms=["pso", "pso-tvac"])
        records, _ = run_experiment(cfg)
        seeds = {(r.adapter, r.seed) for r in records}
        pso_seeds = sorted(s for a, s in seeds if a == "none")
        tvac_seeds = sorted(s for a, s in seeds if a == "tvac")
        assert pso_seeds == tvac_seeds

    def test_summary_win_loss_accounting(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, summary = run_experiment(cfg)
        pooled = [r for r in summary.rows if r.function == "ALL"][0]
        per_fn = [r for r in summary.rows
                  if r.function != "ALL" and r.algorithm == "pso-linear"]
        assert pooled.wins == sum(r.wins for r in per_fn)
        assert pooled.losses == sum(r.losses for r in per_fn)
        assert pooled.wins + pooled.losses <= len(cfg.functions)


class TestCurveCsv:
    def test_wrong_header_named_with_its_path(self, tmp_path):
        path = tmp_path / "curve.csv"
        path.write_text("count,best\n40,1.5\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"header 'count,best' in {path}")):
            read_curve_csv(path)


class TestSummaryCsv:
    def test_header_and_field_count(self, tmp_path):
        cfg = tiny_config(tmp_path)
        _, summary = run_experiment(cfg)
        lines = list(summary.csv_lines())
        assert lines[0] == "function,algorithm,median,mean,std,improvement_pct,wins,losses,p_value"
        for line in lines[1:]:
            assert len(line.split(",")) == 9


class TestModelContract:
    """A model is checked against the run that loads it, key by key."""

    @staticmethod
    def _model(variant="pso", **meta_overrides):
        from rlapso.ddpg import ActorPolicy, DdpgAgent, action_width

        actor = DdpgAgent(action_width(variant), seed=3).actor
        meta = {"mode": "absolute", "variant": variant, "subgroups": "5",
                "state_width": "15", "action_width": str(action_width(variant))}
        meta.update(meta_overrides)
        return ActorPolicy(actor), meta

    def test_matching_sidecar_runs(self):
        rec = run_single("rlam-absolute", "sphere", 2, 1, 100, 1, particles=8,
                         model=self._model())
        assert rec.adapter == "rlam-absolute"

    def test_clpso_trained_model_rejected_for_rlam(self, tmp_path):
        from rlapso.ddpg import DdpgAgent, action_width, save_model

        # no variant=clpso model can be trained any more, but old files exist
        path = tmp_path / "clpso.bin"
        save_model(DdpgAgent(action_width("pso"), seed=4).actor, path, mode="absolute",
                   variant="clpso", pool=["sphere"], episodes=1, seed=4)
        with pytest.raises(ValueError, match="variant=clpso"):
            run_single("rlam-absolute", "sphere", 2, 1, 100, 1, particles=8, model=path)

    def test_mode_mismatch_rejected_for_rlpso(self):
        with pytest.raises(ValueError, match="mode=relative"):
            run_single("rlpso", "sphere", 2, 1, 100, 1, particles=8,
                       model=self._model("rlpso", mode="relative"))

    def test_subgroups_mismatch_rejected(self):
        with pytest.raises(ValueError, match="subgroups=4"):
            run_single("rlam-absolute", "sphere", 2, 1, 100, 1, particles=8,
                       model=self._model(subgroups="4"))

    def test_state_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="state_width=16"):
            run_single("rlam-absolute", "sphere", 2, 1, 100, 1, particles=8,
                       model=self._model(state_width="16"))

    def test_action_width_mismatch_rejected(self):
        with pytest.raises(ValueError, match="action_width=25"):
            run_single("rlam-relative", "sphere", 2, 1, 100, 1, particles=8,
                       model=self._model(mode="relative", action_width="25"))

    # one model serves one model-driven algorithm: every pair differs in mode or variant
    @pytest.mark.parametrize("fits, refuses, error", [
        ("rlam-absolute", "rlam-relative", "mode=absolute, rlam-relative needs relative"),
        ("rlam-absolute", "rlpso", "model emits 20 action values, rlpso needs 25"),
        ("rlam-relative", "rlpso", "model emits 20 action values, rlpso needs 25"),
    ], ids=["absolute-relative", "absolute-rlpso", "relative-rlpso"])
    def test_experiment_checks_its_model_before_any_run(self, tmp_path, fits, refuses, error):
        from rlapso.ddpg import DdpgAgent, action_width, save_model

        path = tmp_path / "model.bin"
        save_model(DdpgAgent(action_width("pso"), seed=5).actor, path,
                   mode=fits.removeprefix("rlam-"), variant="pso", pool=["sphere"],
                   episodes=1, seed=5)
        cfg = tiny_config(tmp_path, algorithms=["pso", fits, refuses], model=str(path))
        with pytest.raises(ValueError, match=error):
            run_experiment(cfg)
        assert not Path(cfg.out_dir).exists()

    def test_actor_input_width_checked_without_a_sidecar_key(self, tmp_path):
        from rlapso.ddpg import MODEL_META_SUFFIX, save_model
        from rlapso.neural import Mlp

        path = tmp_path / "wide.bin"
        actor = Mlp.init([16, 8, 20], "tanh", np.random.default_rng(6))
        save_model(actor, path, mode="absolute", variant="pso", pool=["sphere"],
                   episodes=1, seed=6)
        sidecar = tmp_path / ("wide.bin" + MODEL_META_SUFFIX)
        text = sidecar.read_text()
        assert "state_width=16\n" in text
        sidecar.write_text(text.replace("state_width=16\n", ""))
        cfg = tiny_config(tmp_path, algorithms=["pso", "rlam-absolute"], model=str(path))
        with pytest.raises(ValueError, match="model reads 16 state values, rlam-absolute needs 15"):
            run_experiment(cfg)
        assert not Path(cfg.out_dir).exists()


class TestControllerContract:
    """Every algorithm resolves to its swarm variant and to a controller that
    returns a (5, 5) coefficient table and tags its records as it always has."""

    # algorithm: (swarm variant, adapter tag, reads a model)
    EXPECTED = {"pso": ("pso", "none", False),
                "pso-linear": ("pso", "linear_dec_w", False),
                "pso-tvac": ("pso", "tvac", False),
                "clpso": ("clpso", "linear_dec_w", False),
                "rlam-absolute": ("pso", "rlam-absolute", True),
                "rlam-relative": ("pso", "rlam-relative", True),
                "rlpso": ("rlpso", "rlam-absolute", True)}

    def test_tags_cover_every_algorithm(self):
        assert set(self.EXPECTED) == set(ALGORITHMS)

    @pytest.mark.parametrize("algorithm", ALGORITHMS)
    def test_table_at_first_and_last_iteration(self, algorithm):
        from rlapso.benchmarks import make_objective
        from rlapso.ddpg import DdpgAgent, action_width
        from rlapso.harness import controller_for
        from rlapso.swarm import Swarm

        expected_variant, tag, reads_model = self.EXPECTED[algorithm]
        model = (DdpgAgent(action_width(expected_variant), seed=6), {}) if reads_model else None
        variant, controller = controller_for(algorithm, model)
        assert variant == expected_variant
        swarm = Swarm(make_objective("rastrigin", 10, 5), 40, 1000, seed=7, variant=variant)
        t_max = 1000 // 40 - 1
        for t in (0, t_max):
            table = controller(swarm, t, t_max)
            assert isinstance(table, np.ndarray)
            assert table.dtype == np.float64 and table.shape == (5, 5)
            assert np.all(np.isfinite(table))
            assert np.all((table[:, 0] >= 0.05) & (table[:, 0] <= 1.2))
        assert controller.adapter == tag
