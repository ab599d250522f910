"""Command-line entry point.

Subcommands:
  run         train one optimizer over a task sequence, write the curve CSV
  meta-train  learn the warp matrices, write a checkpoint and meta-loss curve
  compare     run one configuration under several optimizers, write the table
  check       run the gradient/hypergradient verification oracles
  import      build a class-table cache from a PGM directory tree

Exit codes: 0 ok, 1 check failure, 2 usage, input or resource error (a bad
config value, an unreadable file, an exceeded node budget, an allocation that
failed), 3 divergence.
Every output directory gets a manifest (``config.write_manifest``), a valid
``--config`` file that re-runs the command bit-identically (modulo wall-clock
fields). ``WARP_SEED`` seeds a run only when neither flags nor config set one.

On glibc, ``main`` first pins the allocator's mmap and trim thresholds for the
whole process (``_pin_heap_thresholds``), so the arrays of a few hundred KiB
that each optimizer step makes and frees stay on the heap instead of being
page-faulted in again on every call. Library use does not go through it, and
no output bit depends on it. ``main`` builds its parser once per process, on
its first call (``_build_parser``), and parses every call with it.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys

import numpy as np

from . import __version__
from .bench import (
    RunConfig,
    compare_optimizers,
    draw_run,
    emit_csv,
    run_sequential_tasks,
    write_comparison_csv,
)
from .checks import run_all
from .config import (
    IMPORT_SIDE,
    UsageError,
    apply_overrides,
    build_meta,
    build_run_configs,
    check_line,
    check_optimizer,
    getint,
    getlist,
    load_config_file,
    validate_keys,
    write_manifest,
)
from .tasks import import_image_classes, sample_episode, save_table
# unused; perfbench's tracer patches cli.load_table and cli.synth_proto_tasks (ROADMAP item 1)
from .tasks import load_table, synth_proto_tasks  # noqa: F401
from .warp import ResourceError, init_warps, meta_train, save_warps
# unused; perfbench's tracer patches cli.meta_update_P, cli.adaptation_query_loss (ROADMAP item 1)
from .warp import adaptation_query_loss, meta_update_P  # noqa: F401


# glibc serves an allocation at or above its mmap threshold with an mmap of its own,
# and gives the heap top back to the system once more than its trim threshold there
# is free. Both start at 128 KiB and follow the sizes of freed mmaps, so the arrays
# of a few hundred KiB that every step makes are page-faulted in again on most calls,
# at a cost set by the allocation history. These are where glibc's own dynamic rule
# for the pair ends: DEFAULT_MMAP_THRESHOLD_MAX on 64-bit, and twice it.
MMAP_THRESHOLD = 32 * 1024 * 1024
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD


@functools.cache
def _pin_heap_thresholds() -> None:
    """Fix glibc's mmap and trim thresholds for this process; off glibc, nothing."""
    import ctypes  # here, not at the top: only a process that runs main needs it
    libc = ctypes.CDLL(None) if os.name == "posix" else None
    if hasattr(libc, "gnu_get_libc_version"):
        libc.mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        libc.mallopt(-1, TRIM_THRESHOLD)  # M_TRIM_THRESHOLD
        libc.mallopt(-3, MMAP_THRESHOLD)  # M_MMAP_THRESHOLD


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="warpadam", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=f"warpadam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override a config value (repeatable)")
        p.add_argument("--out", required=True, help="output directory")
        return p

    for name, text in (("run", "train one optimizer over a task sequence"),
                       ("meta-train", "learn the warp matrices"),
                       ("compare", "compare optimizers on shared task sources")):
        common(sub.add_parser(name, help=text)).add_argument(
            "--seed", type=int, help="seed override (beats file and WARP_SEED)")

    p_check = sub.add_parser("check", help="run the verification oracles")
    p_check.add_argument("--perturb", type=float, default=0.0,
                         help="bias added to analytic gradients (negative control; nonzero must fail)")

    p_import = common(sub.add_parser("import", help="cache a PGM directory tree as a class table"))
    p_import.add_argument("--root", help="root of the <alphabet>/<character>/<image>.pgm tree")
    p_import.add_argument("--side", type=int,
                          help=f"resample images to side x side (default {IMPORT_SIDE})")
    return parser


def _effective_config(args) -> dict[str, str]:
    """The checked config of ``args``. First, before any work, ``--out`` must pass
    ``check_line``, and the nearest of it and its ancestors that exists must be a directory."""
    path = check_line("--out", args.out)
    while path and not os.path.lexists(path):
        path = os.path.dirname(path)
    if path and not os.path.isdir(path):
        raise UsageError(f"--out must name a directory, but {path} is not one, got {args.out!r}")
    cfg = apply_overrides(load_config_file(args.config) if args.config else {}, args.set)
    validate_keys(cfg)
    return cfg


def _resolve_seed(args, cfg) -> tuple[int, str]:
    """The seed and its source; a negative one is a ``UsageError`` naming its source."""
    env = os.environ.get("WARP_SEED")
    if args.seed is not None:
        seed, source, name = args.seed, "flag", "--seed"
    elif "run.seed" in cfg:
        seed, source, name = getint(cfg, "run.seed"), "file", "run.seed"
    elif env is not None:
        try:
            seed, source, name = int(env), "env", "WARP_SEED"
        except ValueError:
            raise UsageError(f"WARP_SEED must be an integer, got {env!r}") from None
    else:
        return RunConfig.seed, "default"
    if seed < 0:
        raise UsageError(f"{name} must be a non-negative integer, got {seed}")
    return seed, source


def cmd_run(args) -> int:
    cfg = _effective_config(args)
    seed, seed_source = _resolve_seed(args, cfg)
    optimizer = check_optimizer("run.optimizer", cfg.get("run.optimizer"))
    (run,) = build_run_configs(cfg, seed, ("tasks.train_alphabets",), (optimizer,))
    result = run_sequential_tasks(run, optimizer)
    os.makedirs(args.out, exist_ok=True)
    emit_csv(result.records, os.path.join(args.out, "curve.csv"))
    write_manifest(args.out, cfg, "run", {"run.seed": seed, "seed.source": seed_source})
    if result.diverged:
        print(f"divergence: {result.note}", file=sys.stderr)
        return 3
    print(f"run complete: {len(result.records)} records -> {args.out}/curve.csv")
    return 0


def cmd_meta_train(args) -> int:
    cfg = _effective_config(args)
    seed, seed_source = _resolve_seed(args, cfg)
    meta = build_meta(cfg)
    run, held_out = build_run_configs(cfg, seed, ("tasks.train_alphabets", "tasks.eval_alphabets"))
    n_way, k_shot, qpc = run.episode.n_way, run.episode.k_shot, run.episode.query_per_class
    rng, (train_table, eval_table), model = draw_run(run, held_out)
    eval_rng = np.random.default_rng([seed, 1])  # the held-out set, sampled in order
    rows, warps, diverged = meta_train(
        model, init_warps([p.shape for p in model.params], run.warps), meta,
        lambda: [sample_episode(train_table, n_way, k_shot, qpc, rng)
                 for _ in range(meta.tasks_per_outer_step)],
        [sample_episode(eval_table, n_way, k_shot, qpc, eval_rng)
         for _ in range(meta.eval_episodes)])

    os.makedirs(args.out, exist_ok=True)  # only to write: an exit 2 above leaves no --out
    with open(os.path.join(args.out, "meta_curve.csv"), "w", newline="\n") as f:
        f.write("outer_step,batch_query_loss,tod_value,eval_query_loss\n")
        for t, b, p, e in rows:
            f.write(f"{t},{b:.17g},{p:.17g},{e:.17g}\n")
    save_warps(os.path.join(args.out, "warps.bin"), warps)
    write_manifest(args.out, cfg, "meta-train", {"run.seed": seed, "seed.source": seed_source})
    if diverged:
        print(f"divergence: {diverged}", file=sys.stderr)
        return 3
    print(f"meta-train complete: {meta.outer_steps} outer steps -> {args.out}/warps.bin")
    return 0


def cmd_compare(args) -> int:
    cfg = _effective_config(args)
    seed, seed_source = _resolve_seed(args, cfg)
    optimizers = getlist(cfg, "compare.optimizers")
    if optimizers is None or len(optimizers) < 2:
        raise UsageError("compare needs compare.optimizers with at least two entries")
    for optimizer in optimizers:
        check_optimizer("compare.optimizers", optimizer)
    names = ["tasks", "tasks2"] if any(k.startswith("tasks2.") for k in cfg) else ["tasks"]
    runs = build_run_configs(cfg, seed, [f"{name}.train_alphabets" for name in names], optimizers)
    blocks = [(name, compare_optimizers(run, optimizers)) for name, run in zip(names, runs)]
    any_diverged = [r.algorithm for _, rows in blocks for r in rows if r.diverged]

    os.makedirs(args.out, exist_ok=True)
    write_comparison_csv(os.path.join(args.out, "compare.csv"), blocks)
    write_manifest(args.out, cfg, "compare", {"run.seed": seed, "seed.source": seed_source})
    msg = f"compare complete: {sum(len(r) for _, r in blocks)} rows -> {args.out}/compare.csv"
    if any_diverged:
        msg += f" (diverged: {', '.join(any_diverged)})"
    print(msg)
    return 0


def cmd_check(args) -> int:
    results = run_all(perturb=args.perturb)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"{status} {r.name}: max_rel_err={r.max_err:.3e} (tol {r.tol:.0e})")
    if failed:
        worst = max(failed, key=lambda r: r.max_err)
        print(f"{len(failed)} check(s) failed; worst: {worst.name} "
              f"max_rel_err={worst.max_err:.3e}", file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def cmd_import(args) -> int:
    cfg = _effective_config(args)
    root = check_line("--root", args.root) if args.root else cfg.get("import.root")
    if root is None:
        raise UsageError("import needs --root (or import.root in the config)")
    key = "import.side" if args.side is None else "--side"
    side = getint(cfg, key, IMPORT_SIDE) if args.side is None else args.side
    if side < 1:
        raise UsageError(f"{key} must be positive, got {side}")
    table = import_image_classes(root, side)
    os.makedirs(args.out, exist_ok=True)
    save_table(os.path.join(args.out, "table.wtbl"), table)
    write_manifest(args.out, cfg, "import", {
        "import.root": str(root), "import.side": side,
        "imported.alphabets": len(table.alphabets),
        "imported.classes": sum(len(a.classes) for a in table.alphabets),
        "imported.skipped_classes": table.skipped_classes,
    })
    print(f"imported {len(table.alphabets)} alphabets "
          f"({table.skipped_classes} empty classes skipped) -> {args.out}/table.wtbl")
    return 0


_COMMANDS = {
    "run": cmd_run,
    "meta-train": cmd_meta_train,
    "compare": cmd_compare,
    "check": cmd_check,
    "import": cmd_import,
}


def main(argv=None) -> int:
    _pin_heap_thresholds()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and unknown flags
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ResourceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # the backstop for an allocation no size guard checked
        print(f"error: out of memory: {str(exc) or 'MemoryError'}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
