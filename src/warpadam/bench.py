"""Benchmark harness: sequential-task curves and optimizer comparison tables.

``run_sequential_tasks`` trains one model across a sequence of episodes,
recording train (support) and validation (query) metrics at a fixed cadence.
Identical configs (including the seed) reproduce identical curves except for
``wall_ms``, which is wall-clock and never comparable across machines.

Divergence policy: a non-finite loss or gradient halts the run with a flagged
record and a report; values are never clamped, so instability stays visible.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .nn import MLP
from .optim import STEP_CORES, STEP_FUNCS, AdamState, HyperParams, step_buffers, warpadam_core
# unused; perfbench's tracer patches bench.warpadam_step (ROADMAP item 1)
from .optim import warpadam_step  # noqa: F401
from .tasks import ClassTable, sample_episode, synth_proto_tasks
from .tensor import NumericError
# unused; perfbench's tracer patches bench.grad (ROADMAP item 1)
from .tensor import grad  # noqa: F401
from .warp import FlatParams, WarpMatrix, _flat, _FlatWarp, init_warps

OPTIMIZERS = tuple(sorted(STEP_FUNCS)) + ("warpadam",)


@dataclass
class CurveRecord:
    task_index: int
    step: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    wall_ms: int


@dataclass(frozen=True)
class SynthSpec:
    alphabets: int = 6
    classes_per_alphabet: int = 8
    instances_per_class: int = 20
    dim: int = 16
    noise: float = 0.1


@dataclass(frozen=True)
class EpisodeSpec:
    n_way: int = 5
    k_shot: int = 1
    query_per_class: int = 15
    alphabets: tuple[str, ...] | None = None  # sampling pool; None = all


@dataclass(frozen=True)
class ModelSpec:
    hidden: int = 64  # 0 gives a plain linear softmax classifier


@dataclass
class RunConfig:
    optimizer: str
    hyper: HyperParams = field(default_factory=HyperParams)
    synth: SynthSpec | None = field(default_factory=SynthSpec)
    table: ClassTable | None = None
    episode: EpisodeSpec = field(default_factory=EpisodeSpec)
    n_tasks: int = 4
    steps_per_task: int = 50
    eval_every: int = 10
    seed: int = 0
    warps: list[WarpMatrix] | None = None  # loaded checkpoint; None = identity init
    warp_policy: str = "auto"
    label: str | None = None

    def __post_init__(self):
        if self.optimizer not in OPTIMIZERS:
            raise ValueError(f"unknown optimizer {self.optimizer!r}; expected one of {OPTIMIZERS}")
        if self.n_tasks < 1 or self.steps_per_task < 1 or self.eval_every < 1:
            raise ValueError("n_tasks, steps_per_task and eval_every must all be >= 1")
        if (self.synth is None) == (self.table is None):
            raise ValueError("exactly one of synth or table must be given")


@dataclass
class RunResult:
    records: list[CurveRecord]
    diverged: bool = False
    note: str = ""


@dataclass
class ConvergenceResult:
    epoch: int
    degenerate: bool = False


@dataclass
class ComparisonRow:
    algorithm: str
    training_time_s: float
    convergence_epochs: int
    validation_accuracy_pct: float
    diverged: bool = False


# reference values from the published comparison this harness mirrors; they are
# hardware- and dataset-run-dependent, so they are reported, never asserted
REFERENCE_ROWS = (
    ("SGD", 1200, 30, 75.2), ("Momentum", 1050, 28, 76.5), ("RAdam", 1250, 26, 77.8),
    ("AdamW", 1100, 27, 78.3), ("WarpedAdam", 1000, 24, 79.6),
    ("SGD", 450, 15, 98.2), ("Momentum", 400, 13, 98.5), ("RAdam", 470, 12, 98.8),
    ("AdamW", 420, 14, 99.0), ("WarpedAdam", 380, 11, 99.2),
)


def resolve_table(synth: SynthSpec | None, table: ClassTable | None,
                  rng: np.random.Generator) -> ClassTable:
    """The task table of a source: ``table`` itself, or ``synth`` drawn from ``rng``."""
    if table is not None:
        return table
    return synth_proto_tasks(synth.alphabets, synth.classes_per_alphabet,
                             synth.instances_per_class, synth.dim, synth.noise, rng)


def build_model(model_spec: ModelSpec, dim: int, n_way: int, rng: np.random.Generator) -> MLP:
    sizes = [dim, n_way] if model_spec.hidden == 0 else [dim, model_spec.hidden, n_way]
    return MLP(sizes, rng)


def _make_stepper(cfg: RunConfig, params: FlatParams):
    """``step(state, w, g, buf)``: the config's optimizer core on the flat buffer."""
    h = cfg.hyper
    if cfg.optimizer != "warpadam":
        core = STEP_CORES[cfg.optimizer]
        return lambda state, w, g, buf: core(state, w, g, h, buf)
    warps = cfg.warps if cfg.warps is not None else init_warps(params.shapes, cfg.warp_policy)
    warp = _FlatWarp(warps, params.shapes)
    return lambda state, w, g, buf: warpadam_core(state, w, g, h, buf, warp)


def _metrics(model: MLP, arrays, x, y) -> tuple[float, float]:
    # divergence is detected via isfinite checks, not numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        loss, acc = model.loss_accuracy(arrays, x, y)
    return float(loss), acc


def run_sequential_tasks(cfg: RunConfig, model_spec: ModelSpec = ModelSpec()) -> RunResult:
    """Train one shared model over a sequence of sampled episodes.

    The model is built fresh per run and carried across tasks; each task gets
    ``steps_per_task`` full-batch steps on its support set, with gradients from
    ``MLP.loss_grads`` (bitwise the engine's ``grad``) and train/query
    metrics recorded every ``eval_every`` steps and at the last step.

    The parameters of all tensors live in one ``FlatParams`` buffer with one
    ``AdamState``, and each step is one in-place optimizer core over the
    buffer (WarpAdam's warps act per tensor on their segments); the curves
    have the bits of one pure step per tensor.
    """
    rng = np.random.default_rng(cfg.seed)
    table = resolve_table(cfg.synth, cfg.table, rng)
    model = build_model(model_spec, table.dim, cfg.episode.n_way, rng)
    params = FlatParams(model.params)
    w, arrays = params.w, params.arrays
    state = AdamState.zeros(w.shape, amsgrad=cfg.optimizer == "amsgrad")
    buf = step_buffers(w.shape)
    step = _make_stepper(cfg, params)

    records: list[CurveRecord] = []
    t0 = time.perf_counter()

    def wall() -> int:
        return int((time.perf_counter() - t0) * 1000)

    for task_index in range(cfg.n_tasks):
        ep = sample_episode(table, cfg.episode.n_way, cfg.episode.k_shot,
                            cfg.episode.query_per_class, rng,
                            alphabets=cfg.episode.alphabets)
        for s in range(1, cfg.steps_per_task + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                loss, gs = model.loss_grads(arrays, ep.support_x, ep.support_y)
                loss_val = float(loss)
            g = _flat(gs)
            if not (np.isfinite(loss_val) and np.all(np.isfinite(g))):
                records.append(CurveRecord(task_index, s, loss_val, float("nan"),
                                           float("nan"), float("nan"), wall()))
                return RunResult(records, diverged=True,
                                 note=f"non-finite loss/gradient at task {task_index} step {s}")
            try:
                step(state, w, g, buf)
            except NumericError as exc:
                records.append(CurveRecord(task_index, s, loss_val, float("nan"),
                                           float("nan"), float("nan"), wall()))
                return RunResult(records, diverged=True,
                                 note=f"optimizer overflow at task {task_index} step {s}: {exc}")
            if s % cfg.eval_every == 0 or s == cfg.steps_per_task:
                train_loss, train_acc = _metrics(model, arrays, ep.support_x, ep.support_y)
                val_loss, val_acc = _metrics(model, arrays, ep.query_x, ep.query_y)
                records.append(CurveRecord(task_index, s, train_loss, train_acc,
                                           val_loss, val_acc, wall()))
                if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                    return RunResult(records, diverged=True,
                                     note=f"non-finite evaluation at task {task_index} step {s}")
    return RunResult(records)


def convergence_epoch(records: list[CurveRecord], fraction: float = 0.99) -> ConvergenceResult:
    """First 1-indexed epoch reaching ``fraction`` of the run's peak val accuracy.

    One task is one epoch. An all-zero accuracy curve has no meaningful
    threshold crossing; the final epoch is returned with a degenerate flag.
    """
    if not records:
        raise ValueError("convergence_epoch needs a non-empty curve")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    peak = max(r.val_acc for r in records)
    last_epoch = records[-1].task_index + 1
    if not peak > 0.0:
        return ConvergenceResult(epoch=last_epoch, degenerate=True)
    threshold = fraction * peak
    for r in records:
        if r.val_acc >= threshold:
            return ConvergenceResult(epoch=r.task_index + 1)
    return ConvergenceResult(epoch=last_epoch, degenerate=True)  # unreachable with finite data


def _shared_fields_check(configs: list[RunConfig]) -> None:
    base = configs[0]
    for other in configs[1:]:
        for name in ("seed", "synth", "episode", "n_tasks", "steps_per_task", "eval_every"):
            if getattr(base, name) != getattr(other, name):
                raise ValueError(f"compare configs must share {name}; "
                                 f"{getattr(base, name)!r} != {getattr(other, name)!r}")
        if base.table is not other.table:
            raise ValueError("compare configs must share the same task table")


def compare_optimizers(configs: list[RunConfig],
                       model_spec: ModelSpec = ModelSpec()) -> list[ComparisonRow]:
    """Run each config and fill the three comparison metrics, in config order.

    ``training_time_s`` is wall-clock and machine-dependent; the CSV footer
    repeats that caveat. A diverged run yields a flagged row instead of
    aborting the table.
    """
    if not configs:
        raise ValueError("compare_optimizers needs at least one config")
    _shared_fields_check(configs)
    rows = []
    for cfg in configs:
        start = time.perf_counter()
        result = run_sequential_tasks(cfg, model_spec)
        elapsed = time.perf_counter() - start
        finite = [r for r in result.records if np.isfinite(r.val_acc)]
        if finite:
            conv = convergence_epoch(finite)
            val_pct = finite[-1].val_acc * 100.0
        else:
            conv = ConvergenceResult(epoch=result.records[-1].task_index + 1 if result.records else 1,
                                     degenerate=True)
            val_pct = float("nan")
        rows.append(ComparisonRow(
            algorithm=cfg.label or cfg.optimizer,
            training_time_s=elapsed,
            convergence_epochs=conv.epoch,
            validation_accuracy_pct=val_pct,
            diverged=result.diverged,
        ))
    return rows


# ---------------------------------------------------------------------------
# CSV and manifest formats


def _fmt(x: float) -> str:
    return f"{x:.17g}"


CURVE_HEADER = "task_index,step,train_loss,train_acc,val_loss,val_acc,wall_ms"


def emit_csv(records: list[CurveRecord], path) -> None:
    """Curve CSV: header plus one line per record, 17 significant digits, LF."""
    with open(path, "w", newline="\n") as f:
        f.write(CURVE_HEADER + "\n")
        for r in records:
            f.write(f"{r.task_index},{r.step},{_fmt(r.train_loss)},{_fmt(r.train_acc)},"
                    f"{_fmt(r.val_loss)},{_fmt(r.val_acc)},{r.wall_ms}\n")


def read_curve_csv(path) -> list[CurveRecord]:
    records = []
    with open(path, "r", newline="") as f:
        header = f.readline().strip()
        if header != CURVE_HEADER:
            raise ValueError(f"unexpected curve CSV header in {path}: {header!r}")
        for line in f:
            line = line.strip()
            if not line:
                continue
            ti, s, tl, ta, vl, va, wm = line.split(",")
            records.append(CurveRecord(int(ti), int(s), float(tl), float(ta),
                                       float(vl), float(va), int(wm)))
    return records


COMPARISON_HEADER = "algorithm,training_time_s,convergence_epochs,validation_accuracy_pct"


def write_comparison_csv(path, blocks: list[tuple[str, list[ComparisonRow]]],
                         extra_footers: list[str] | None = None) -> None:
    """Comparison CSV: one header, blank-line-separated blocks, '#' footers."""
    with open(path, "w", newline="\n") as f:
        f.write(COMPARISON_HEADER + "\n")
        for bi, (name, rows) in enumerate(blocks):
            if bi:
                f.write("\n")
            f.write(f"# block: {name}\n")
            for r in rows:
                f.write(f"{r.algorithm},{_fmt(r.training_time_s)},{r.convergence_epochs},"
                        f"{_fmt(r.validation_accuracy_pct)}\n")
        f.write("# training_time_s is wall-clock; machine-dependent, not comparable across hosts\n")
        for r in (row for _, rows in blocks for row in rows if row.diverged):
            f.write(f"# diverged: {r.algorithm}\n")
        f.write("# reference results from the published comparison (not asserted):\n")
        for name, secs, epochs, pct in REFERENCE_ROWS:
            f.write(f"#   {name}: {secs} s, {epochs} epochs, {pct}%\n")
        for line in extra_footers or []:
            f.write(f"# {line}\n")


def format_value(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return _fmt(v)
    return str(v)


def write_manifest(path, values: dict) -> None:
    """key=value lines, sorted, LF-only: enough to re-run the command exactly."""
    with open(path, "w", newline="\n") as f:
        for k in sorted(values):
            f.write(f"{k}={format_value(values[k])}\n")
