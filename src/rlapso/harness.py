"""Experiment orchestration and statistics.

Runs the cross product of functions x algorithms x seeds, writes one curve
CSV per run plus a summary CSV, and provides the improvement metric and a
paired Wilcoxon signed-rank test (exact null distribution up to n = 20,
normal approximation with continuity correction above).
"""
from __future__ import annotations

import math
from dataclasses import astuple, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import ddpg
from .benchmarks import FUNCTIONS, make_objective
from .swarm import SUBGROUPS, RunRecord, Schedule, Swarm, drive

# Each schedule algorithm's swarm variant and schedule, which carries its
# records' adapter tag.
_SCHEDULES = {
    "pso": ("pso", Schedule("constant", "none")),
    "pso-linear": ("pso", Schedule("linear_dec_w", "linear_dec_w")),
    "pso-tvac": ("pso", Schedule("tvac", "tvac")),
    "clpso": ("clpso", Schedule("clpso", "linear_dec_w")),
}
# Each model-driven algorithm's swarm variant and the mode of the trained
# policy that drives it, whose records are tagged ``rlam-<mode>``.
MODEL_ALGORITHMS = {
    "rlam-absolute": ("pso", "absolute"),
    "rlam-relative": ("pso", "relative"),
    "rlpso": ("rlpso", "absolute"),
}
ALGORITHMS = (*_SCHEDULES, *MODEL_ALGORITHMS)


class ConfigError(ValueError):
    """Invalid or missing experiment-configuration key."""


def improvement(origin: float, adapted: float, best: float) -> float:
    """Normalized gain of ``adapted`` over ``origin`` toward the optimum
    ``best``, as a signed percentage (100 means the optimum was reached)."""
    if origin == best:
        raise ValueError("improvement undefined: origin equals the optimum")
    return 100.0 * (origin - adapted) / (origin - best)


def _signed_ranks(diffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Average ranks of |diffs|, returned doubled so tied averages stay integral."""
    magnitudes = np.abs(diffs)
    ordered = np.sort(magnitudes)
    # a value tied at sorted positions i..j has ranks i+1..j+1, doubled average i+1+j+1
    first = np.searchsorted(ordered, magnitudes, side="left")
    past_last = np.searchsorted(ordered, magnitudes, side="right")
    return (first + 1 + past_last).astype(np.int64), np.sign(diffs)


def wilcoxon_signed_rank(x, y) -> tuple[float, float]:
    """Two-sided paired Wilcoxon test; returns (smaller rank sum, p-value).

    Zero differences are dropped; fewer than five nonzero differences is an
    error.  Ties among |differences| get average ranks.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("need two equal-length 1-D samples")
    if len(x) < 5:
        raise ValueError("need at least 5 pairs")
    diffs = x - y
    diffs = diffs[diffs != 0.0]
    n = len(diffs)
    if n < 5:
        raise ValueError(f"only {n} nonzero differences; need at least 5")
    doubled, signs = _signed_ranks(diffs)
    total2 = int(doubled.sum())  # == 2 * n(n+1)/2
    w_plus2 = int(doubled[signs > 0].sum())
    w_minus2 = total2 - w_plus2
    statistic = min(w_plus2, w_minus2) / 2.0
    if n <= 20:
        # exact null distribution of the doubled positive rank sum
        dist = np.zeros(total2 + 1)
        dist[0] = 1.0
        for r2 in doubled:
            nxt = dist.copy()
            nxt[r2:] += dist[: total2 + 1 - r2]
            dist = nxt
        total_count = 2.0**n
        p_le = dist[: w_plus2 + 1].sum() / total_count
        p_ge = dist[w_plus2:].sum() / total_count
        p = min(1.0, 2.0 * min(p_le, p_ge))
    else:
        mu = n * (n + 1) / 4.0
        tie_adj = 0.0
        _, counts = np.unique(doubled, return_counts=True)
        for t in counts[counts > 1]:
            tie_adj += (t**3 - t) / 48.0
        sigma = math.sqrt(n * (n + 1) * (2 * n + 1) / 24.0 - tie_adj)
        z = (statistic - mu + 0.5) / sigma  # continuity-corrected, statistic <= mu
        p = min(1.0, 2.0 * 0.5 * math.erfc(-z / math.sqrt(2.0)))
    return statistic, p


def normalized_pairs(a_values, b_values) -> tuple[np.ndarray, np.ndarray]:
    """Rescale two paired samples to [0, 1] by their pooled min/max."""
    a = np.asarray(a_values, dtype=float)
    b = np.asarray(b_values, dtype=float)
    lo = min(a.min(), b.min())
    hi = max(a.max(), b.max())
    if hi == lo:
        return np.zeros_like(a), np.zeros_like(b)
    return (a - lo) / (hi - lo), (b - lo) / (hi - lo)


# -- single runs -------------------------------------------------------------

def controller_for(algorithm: str, model=None) -> tuple:
    """``algorithm``'s swarm variant and controller.  A model-driven
    algorithm needs ``model``, a path or a ``(policy, meta)`` pair, checked
    against its variant and mode; a schedule algorithm refuses one."""
    if algorithm in MODEL_ALGORITHMS:
        if model is None:
            raise ValueError(f"algorithm {algorithm!r} needs a trained model file")
        variant, mode = MODEL_ALGORITHMS[algorithm]
        policy, meta = model if isinstance(model, tuple) else ddpg.load_model(model)
        ddpg.check_model(policy, meta, mode, variant, algorithm)
        return variant, ddpg.PolicyController(policy, mode, variant)
    if algorithm not in _SCHEDULES:
        raise ValueError(f"unknown algorithm {algorithm!r}; valid: {', '.join(ALGORITHMS)}")
    if model is not None:
        raise ValueError(f"algorithm {algorithm!r} reads no model")
    return _SCHEDULES[algorithm]


def run_single(algorithm: str, function: str, dim: int, fn_seed: int, budget: int,
               run_seed: int, particles: int = 40, model=None) -> RunRecord:
    """Execute one run of one algorithm and return its record."""
    variant, controller = controller_for(algorithm, model)
    objective = make_objective(function, dim, fn_seed)
    return drive(Swarm(objective, particles, budget, run_seed, variant=variant), controller)


# -- experiment configuration -------------------------------------------------

@dataclass
class ExperimentConfig:
    functions: list
    algorithms: list
    dim: int = 10
    runs: int = 20
    budget: int = 10_000
    seed: int = 1
    particles: int = 40
    out_dir: str = "results"
    model: str = ""

    def validate(self) -> "ExperimentConfig":
        if not self.functions:
            raise ConfigError("config needs at least one function")
        if not self.algorithms:
            raise ConfigError("config needs at least one algorithm")
        for f in self.functions:
            if f not in FUNCTIONS:
                raise ConfigError(f"unknown function {f!r}")
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ConfigError(f"unknown algorithm {a!r}; valid: {', '.join(ALGORITHMS)}")
        # each (function, algorithm) pair names its curve files and summary row
        for key, names in (("functions", self.functions), ("algorithms", self.algorithms)):
            for i, name in enumerate(names):
                if name in names[:i]:
                    raise ConfigError(f"{key} lists {name!r} more than once")
        reads_model = any(a in MODEL_ALGORITHMS for a in self.algorithms)
        if reads_model and not self.model:
            raise ConfigError("config uses a model-driven algorithm but sets no model path")
        if self.model and not reads_model:
            raise ConfigError(f"config sets model but no listed algorithm reads one: "
                              f"{', '.join(self.algorithms)}")
        if self.seed < 0:
            raise ConfigError(f"seed must be a non-negative integer, got {self.seed}")
        if self.runs < 1:
            raise ConfigError(f"runs must be >= 1, got {self.runs}")
        if self.budget < self.particles:
            raise ConfigError(f"budget {self.budget} cannot cover initialization of "
                              f"{self.particles} particles")
        if self.dim < 2:
            raise ConfigError(f"dim must be >= 2, got {self.dim}")
        if self.particles < SUBGROUPS:
            raise ConfigError(f"need at least {SUBGROUPS} particles, got {self.particles}")
        if not self.out_dir:
            # Path("") is the working directory
            raise ConfigError("out_dir is empty; name the directory for the results")
        return self


def parse_list(text: str) -> list:
    """A comma-separated list, each item stripped and empty items dropped."""
    return [s.strip() for s in text.split(",") if s.strip()]


# one value parser per field type (annotations are strings in this module)
_PARSERS = {
    "list": parse_list,
    "int": int,
    "str": str,
}
_CONFIG_KEYS = {f.name: _PARSERS[f.type] for f in fields(ExperimentConfig)}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the ``key=value`` config format that ``ddpg.key_value_lines`` reads."""
    values = {}
    set_on = {}
    for lineno, line, key, value in ddpg.key_value_lines(text):
        if value is None:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in set_on:
            raise ConfigError(
                f"line {lineno}: duplicate config key {key!r} (first set on line {set_on[key]})")
        set_on[key] = lineno
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise ConfigError(f"line {lineno}: invalid value for {key!r}: {line!r}") from None
    if "functions" not in values or "algorithms" not in values:
        raise ConfigError("config must set both 'functions' and 'algorithms'")
    return ExperimentConfig(**values).validate()


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"config file not found: {path}")
    return parse_config(path.read_text(encoding="utf-8"))


# -- CSV emission --------------------------------------------------------------

def _fmt(v: float) -> str:
    return repr(float(v))


def write_curve_csv(record: RunRecord, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as f:
        f.write("eval_count,gbest\n")
        for count, fit in record.curve:
            f.write(f"{count},{_fmt(fit)}\n")


def read_curve_csv(path) -> list:
    curve = []
    with open(path, "r", encoding="utf-8") as f:
        header = f.readline().strip()
        if header != "eval_count,gbest":
            raise ValueError(f"unexpected curve header {header!r} in {path}")
        for line in f:
            count, fit = line.strip().split(",")
            curve.append((int(count), float(fit)))
    return curve


@dataclass
class SummaryRow:
    function: str
    algorithm: str
    median: float
    mean: float
    std: float
    improvement_pct: float
    wins: int
    losses: int
    p_value: float


@dataclass
class ComparisonSummary:
    rows: list = field(default_factory=list)

    def csv_lines(self):
        yield ",".join(f.name for f in fields(SummaryRow))
        for r in self.rows:
            yield ",".join(_fmt(v) if isinstance(v, float) else str(v) for v in astuple(r))


def _wilcoxon_p(x, y) -> float:
    """The paired Wilcoxon p-value, NaN where the test is undefined."""
    try:
        return wilcoxon_signed_rank(x, y)[1]
    except ValueError:
        return float("nan")


def summarize(finals: dict, config: ExperimentConfig) -> ComparisonSummary:
    """Build the summary from per-(function, algorithm) final-fit lists.

    The first configured algorithm is the comparison baseline: other
    algorithms get an improvement percentage (of means, toward the known
    optimum), a per-function win/loss against the baseline median, a
    per-function Wilcoxon p, and one pooled "ALL" row.  Its wins, losses and
    mean improvement come from the algorithm's per-function rows, and its
    Wilcoxon runs over per-(function, seed) pairs normalized per function.
    """
    summary = ComparisonSummary()
    baseline = config.algorithms[0]
    for fn in config.functions:
        base_vals = np.array(finals[(fn, baseline)])
        base_mean, base_median = float(np.mean(base_vals)), float(np.median(base_vals))
        for alg in config.algorithms:
            vals = np.array(finals[(fn, alg)])
            row = SummaryRow(fn, alg, float(np.median(vals)), float(np.mean(vals)),
                             float(np.std(vals)), 0.0, 0, 0, float("nan"))
            if alg != baseline:
                try:
                    row.improvement_pct = improvement(base_mean, row.mean, FUNCTIONS[fn].bias)
                except ValueError:
                    row.improvement_pct = float("nan")
                row.wins = int(row.median < base_median)
                row.losses = int(row.median > base_median)
                row.p_value = _wilcoxon_p(*normalized_pairs(base_vals, vals))
            summary.rows.append(row)

    for alg in config.algorithms[1:]:
        per_fn = [r for r in summary.rows if r.algorithm == alg]
        imprs = [r.improvement_pct for r in per_fn if not math.isnan(r.improvement_pct)]
        all_vals = np.concatenate([finals[(fn, alg)] for fn in config.functions])
        pairs = [normalized_pairs(finals[(fn, baseline)], finals[(fn, alg)])
                 for fn in config.functions]
        summary.rows.append(SummaryRow(
            "ALL", alg, float(np.median(all_vals)), float(np.mean(all_vals)),
            float(np.std(all_vals)), float(np.mean(imprs)) if imprs else float("nan"),
            sum(r.wins for r in per_fn), sum(r.losses for r in per_fn),
            _wilcoxon_p(*(np.concatenate(side) for side in zip(*pairs)))))
    return summary


def curve_filename(function: str, algorithm: str, run: int) -> str:
    return f"{function}__{algorithm}__run{run:03d}.csv"


def run_experiment(config: ExperimentConfig, quiet: bool = True):
    """Execute the full cross product and write curve CSVs plus summary.csv.

    Per-run swarm seeds are ``seed + run_index`` (identical across
    algorithms, so comparisons are seed-paired); per-function instance seeds
    are ``seed + 1000 * (function_index + 1)``.  The model, if any, is loaded
    and checked against every model-driven algorithm before ``out_dir`` is
    created or any run starts, and only those algorithms are handed it.
    """
    config.validate()
    model_algorithms = [a for a in config.algorithms if a in MODEL_ALGORITHMS]
    model = ddpg.load_model(config.model) if model_algorithms else None
    for alg in model_algorithms:
        controller_for(alg, model)
    out = Path(config.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    finals: dict = {}
    for fi, fn in enumerate(config.functions):
        fn_seed = config.seed + 1000 * (fi + 1)
        for alg in config.algorithms:
            finals[(fn, alg)] = []
            for k in range(config.runs):
                rec = run_single(alg, fn, config.dim, fn_seed, config.budget, config.seed + k,
                                 config.particles, model if alg in MODEL_ALGORITHMS else None)
                write_curve_csv(rec, out / curve_filename(fn, alg, k))
                finals[(fn, alg)].append(rec.final_fit)
                records.append(rec)
            if not quiet:
                print(f"{fn} / {alg}: median final {_fmt(np.median(finals[(fn, alg)]))} "
                      f"over {config.runs} runs")
    summary = summarize(finals, config)
    with open(out / "summary.csv", "w", encoding="utf-8", newline="\n") as f:
        for line in summary.csv_lines():
            f.write(line + "\n")
    return records, summary
