"""Benchmark harness: sequential-task curves and optimizer comparison tables.

``run_sequential_tasks`` trains one model across a sequence of episodes,
recording train (support) and validation (query) metrics at a fixed cadence.
Identical configs (including the seed) reproduce identical curves except for
``wall_ms``, which is wall-clock and never comparable across machines.

Divergence policy: a run halts at its first non-finite value. Its last
record is that step's, NaN in each metric the step did not reach, and its
note names the fault and where: ``non-finite loss/gradient at task i step s``,
``optimizer overflow at task i step s: <the core's NumericError>`` or
``non-finite evaluation at task i step s``. Values are never clamped, so
instability stays visible; these checks report it, and numpy's overflow
warnings, which would only repeat it on stderr, are silenced.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .nn import MLP
from .optim import STEP_CORES, AdamState, HyperParams, check_field, step_buffers, warpadam_core
# unused; perfbench's tracer patches bench.warpadam_step (ROADMAP item 1)
from .optim import warpadam_step  # noqa: F401
from .tasks import ClassTable, EpisodeSpec, SynthSpec, sample_episode, synth_proto_tasks
from .tensor import NumericError
# unused; perfbench's tracer patches bench.grad (ROADMAP item 1)
from .tensor import grad  # noqa: F401
from .warp import FlatParams, WarpMatrix, _flat, _FlatWarp, init_warps

OPTIMIZERS = tuple(sorted(STEP_CORES)) + ("warpadam",)


@dataclass
class CurveRecord:
    task_index: int
    step: int
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    wall_ms: int


@dataclass
class RunConfig:
    """Everything a run takes but its optimizer, so one config runs under each."""

    hyper: HyperParams = field(default_factory=HyperParams)
    source: SynthSpec | ClassTable = field(default_factory=SynthSpec)
    episode: EpisodeSpec = field(default_factory=EpisodeSpec)
    hidden: int = 64
    n_tasks: int = 4
    steps_per_task: int = 50
    eval_every: int = 10
    seed: int = 0
    warps: str | list[WarpMatrix] = "auto"  # an ``init_warps`` policy, or a checkpoint's warps

    def __post_init__(self):
        check_field(self, "hidden", self.hidden >= 0, "must be >= 0 (0 gives a linear classifier)")
        check_field(self, "n_tasks", self.n_tasks >= 1, "must be >= 1")
        check_field(self, "steps_per_task", self.steps_per_task >= 1, "must be >= 1")
        check_field(self, "eval_every", self.eval_every >= 1, "must be >= 1")


@dataclass
class RunResult:
    records: list[CurveRecord]
    diverged: bool = False
    note: str = ""


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


def model_sizes(hidden: int, dim: int, n_way: int) -> list[int]:  # hidden 0: linear
    return [dim, n_way] if hidden == 0 else [dim, hidden, n_way]


def draw_run(*pools: RunConfig) -> tuple[np.random.Generator, list[ClassTable], MLP]:
    """The generator seeded by the first run of ``pools``, runs of one task
    block, and what they draw from it in the order that replay depends on:
    the table (a synthetic one is the first draw), its restriction to each
    run's alphabets, then the model. An unknown alphabet fails before the
    model is drawn."""
    cfg = pools[0]
    rng = np.random.default_rng(cfg.seed)
    table = cfg.source
    if isinstance(table, SynthSpec):
        table = synth_proto_tasks(table.alphabets, table.classes_per_alphabet,
                                  table.instances_per_class, table.dim, table.noise, rng)
    tables = [table if run.episode.alphabets is None else table.restricted(run.episode.alphabets)
              for run in pools]
    return rng, tables, MLP(model_sizes(cfg.hidden, table.dim, cfg.episode.n_way), rng)


def run_sequential_tasks(cfg: RunConfig, optimizer: str) -> RunResult:
    """Train one shared model over a sequence of sampled episodes with ``optimizer``.

    The model is built fresh per run and carried across tasks; each task gets
    ``steps_per_task`` full-batch steps on its support set, with gradients from
    ``MLP.loss_grads`` (bitwise the engine's ``grad``) and train/query metrics
    every ``eval_every`` steps and at the last step, on labels encoded once.

    The parameters of all tensors live in one ``FlatParams`` buffer with one
    ``AdamState``, and each step is one in-place optimizer core over the
    buffer (WarpAdam's warps act per tensor on their segments); the curves
    have the bits of one pure step per tensor.
    """
    if optimizer not in OPTIMIZERS:
        raise ValueError(f"unknown optimizer {optimizer!r}; expected one of {OPTIMIZERS}")
    rng, (table,), model = draw_run(cfg)
    params = FlatParams(model.params)
    w, arrays, h = params.w, params.arrays, cfg.hyper
    state = AdamState.zeros(w.shape)
    buf = step_buffers(w.shape)
    if optimizer == "warpadam":
        warps = init_warps(params.shapes, cfg.warps) if isinstance(cfg.warps, str) else cfg.warps
        core = partial(warpadam_core, warp=_FlatWarp(warps, params.shapes))
    else:
        core = STEP_CORES[optimizer]

    records: list[CurveRecord] = []
    t0 = time.perf_counter()
    nan = float("nan")

    def wall() -> int:
        return int((time.perf_counter() - t0) * 1000)

    def stop(what: str, metrics: tuple, detail: str = "") -> RunResult:
        """The diverged run: the record of this step, and the note naming it."""
        records.append(CurveRecord(task_index, s, *metrics, wall()))
        return RunResult(records, diverged=True,
                         note=f"{what} at task {task_index} step {s}{detail}")

    with np.errstate(over="ignore", invalid="ignore"):
        for task_index in range(cfg.n_tasks):
            ep = sample_episode(table, cfg.episode.n_way, cfg.episode.k_shot,
                                cfg.episode.query_per_class, rng)
            support_y, query_y = model.targets(ep.support_y), model.targets(ep.query_y)
            for s in range(1, cfg.steps_per_task + 1):
                loss, gs, _ = model.loss_grads(arrays, ep.support_x, support_y)
                g = _flat(gs)
                if not (np.isfinite(loss) and np.all(np.isfinite(g))):
                    return stop("non-finite loss/gradient", (float(loss), nan, nan, nan))
                try:
                    core(state, w, g, h, buf)
                except NumericError as exc:
                    return stop("optimizer overflow", (float(loss), nan, nan, nan), f": {exc}")
                if s % cfg.eval_every == 0 or s == cfg.steps_per_task:
                    train_loss, train_acc = model.loss_accuracy(arrays, ep.support_x, support_y)
                    val_loss, val_acc = model.loss_accuracy(arrays, ep.query_x, query_y)
                    metrics = (float(train_loss), train_acc, float(val_loss), val_acc)
                    if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
                        return stop("non-finite evaluation", metrics)
                    records.append(CurveRecord(task_index, s, *metrics, wall()))
    return RunResult(records)


def convergence_epoch(records: list[CurveRecord]) -> int:
    """First 1-indexed epoch reaching 99% of the run's peak val accuracy.

    One task is one epoch. An all-zero accuracy curve has no threshold
    crossing; it converges at its final epoch.
    """
    if not records:
        raise ValueError("convergence_epoch needs a non-empty curve")
    peak = max(r.val_acc for r in records)
    if not peak > 0.0:
        return records[-1].task_index + 1
    return next(r.task_index + 1 for r in records if r.val_acc >= 0.99 * peak)


def compare_optimizers(cfg: RunConfig, optimizers) -> list[ComparisonRow]:
    """Run ``cfg`` under each optimizer and fill the three comparison metrics,
    in ``optimizers`` order.

    ``training_time_s`` is wall-clock and machine-dependent; the CSV footer
    repeats that caveat. A diverged run yields a flagged row instead of
    aborting the table.
    """
    if not optimizers:
        raise ValueError("compare_optimizers needs at least one optimizer")
    rows = []
    for optimizer in optimizers:
        start = time.perf_counter()
        result = run_sequential_tasks(cfg, optimizer)
        elapsed = time.perf_counter() - start
        # a run records at least one step, so a diverged run without a
        # finite accuracy converges at the epoch it stopped in
        finite = [r for r in result.records if np.isfinite(r.val_acc)]
        if finite:
            epochs, val_pct = convergence_epoch(finite), finite[-1].val_acc * 100.0
        else:
            epochs, val_pct = result.records[-1].task_index + 1, float("nan")
        rows.append(ComparisonRow(
            algorithm=optimizer,
            training_time_s=elapsed,
            convergence_epochs=epochs,
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


def write_comparison_csv(path, blocks: list[tuple[str, list[ComparisonRow]]]) -> None:
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
