"""Command-line entry point.

Subcommands:
  run         train one optimizer over a task sequence, write the curve CSV
  meta-train  learn the warp matrices, write a checkpoint and meta-loss curve
  compare     run several optimizers on shared task sources, write the table
  check       run the gradient/hypergradient verification oracles
  import      build a class-table cache from a PGM directory tree

Exit codes: 0 ok, 1 check failure, 2 usage, input or resource error (a bad
config value, an unreadable file, an exceeded node budget, an allocation that
failed), 3 divergence.
Every output directory gets a ``manifest.txt`` of key=value lines that is
itself a valid ``--config`` file, sufficient to re-run the command
bit-identically (modulo wall-clock fields). ``WARP_SEED`` in the environment
seeds a run only when neither the flags nor the config file set one.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from . import __version__
from .bench import (
    build_model,
    compare_optimizers,
    emit_csv,
    resolve_table,
    run_sequential_tasks,
    write_comparison_csv,
    write_manifest,
)
from .checks import run_all
from .config import (
    UsageError,
    apply_overrides,
    build_episode,
    build_meta,
    build_model_spec,
    build_run_config,
    build_task_source,
    getint,
    getlist,
    has_task_section,
    load_config_file,
    validate_keys,
)
from .optim import AdamState
from .tensor import NumericError
from .tasks import import_image_classes, sample_episode, save_table, split_table
# unused; perfbench's tracer patches cli.load_table and cli.synth_proto_tasks (ROADMAP item 1)
from .tasks import load_table, synth_proto_tasks  # noqa: F401
from .warp import (
    ResourceError,
    adaptation_query_loss,
    init_warps,
    meta_update_P,
    save_warps,
    stack_within_budget,
    tod_penalty,
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="warpadam", description=__doc__.strip().splitlines()[0])
    parser.add_argument("--version", action="version", version=f"warpadam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_out=True):
        p.add_argument("--config", help="key=value config file")
        p.add_argument("--set", action="append", metavar="KEY=VALUE", default=[],
                       help="override a config value (repeatable)")
        p.add_argument("--seed", type=int, help="seed override (beats file and WARP_SEED)")
        if needs_out:
            p.add_argument("--out", required=True, help="output directory")

    common(sub.add_parser("run", help="train one optimizer over a task sequence"))
    common(sub.add_parser("meta-train", help="learn the warp matrices"))
    common(sub.add_parser("compare", help="compare optimizers on shared task sources"))

    p_check = sub.add_parser("check", help="run the verification oracles")
    p_check.add_argument("--perturb", type=float, default=0.0,
                         help="bias added to analytic gradients (negative control; nonzero must fail)")

    p_import = sub.add_parser("import", help="cache a PGM directory tree as a class table")
    common(p_import)
    p_import.add_argument("--root", help="root of the <alphabet>/<character>/<image>.pgm tree")
    p_import.add_argument("--side", type=int, help="resample images to side x side (default 28)")
    return parser


def _effective_config(args) -> dict[str, str]:
    cfg = load_config_file(args.config) if args.config else {}
    cfg = apply_overrides(cfg, args.set)
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
        return 0, "default"
    if seed < 0:
        raise UsageError(f"{name} must be a non-negative integer, got {seed}")
    return seed, source


def _write_run_manifest(out_dir, cfg, command, seed, seed_source) -> None:
    manifest = dict(cfg)
    manifest["run.seed"] = seed
    manifest["seed.source"] = seed_source
    manifest["command"] = command
    manifest["library.version"] = __version__
    manifest["out"] = str(out_dir)
    write_manifest(os.path.join(out_dir, "manifest.txt"), manifest)


def cmd_run(args) -> int:
    cfg = _effective_config(args)
    seed, seed_source = _resolve_seed(args, cfg)
    run_cfg = build_run_config(cfg, seed)
    result = run_sequential_tasks(run_cfg, build_model_spec(cfg))
    os.makedirs(args.out, exist_ok=True)
    emit_csv(result.records, os.path.join(args.out, "curve.csv"))
    _write_run_manifest(args.out, cfg, "run", seed, seed_source)
    if result.diverged:
        print(f"divergence: {result.note}", file=sys.stderr)
        return 3
    print(f"run complete: {len(result.records)} records -> {args.out}/curve.csv")
    return 0


def _meta_setup(cfg, seed, n_way):
    rng = np.random.default_rng(seed)
    table = resolve_table(*build_task_source(cfg), rng)  # the synthetic table is rng's first draw
    train_names = getlist(cfg, "tasks.train_alphabets")
    eval_names = getlist(cfg, "tasks.eval_alphabets")
    if train_names is None or eval_names is None:
        raise UsageError("meta-train needs explicit tasks.train_alphabets and "
                         "tasks.eval_alphabets (disjoint)")
    try:
        train_table, eval_table = split_table(table, train_names, eval_names)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    model = build_model(build_model_spec(cfg), table.dim, n_way, rng)
    return rng, train_table, eval_table, model


def cmd_meta_train(args) -> int:
    cfg = _effective_config(args)
    seed, seed_source = _resolve_seed(args, cfg)
    meta = build_meta(cfg)
    outer_steps = getint(cfg, "meta.outer_steps", 200)
    if outer_steps < 0:
        raise UsageError(f"meta.outer_steps must be >= 0, got {outer_steps}")
    eval_episodes = getint(cfg, "meta.eval_episodes", 20)
    eval_every = getint(cfg, "meta.eval_every", 10)
    for key, value in (("meta.eval_episodes", eval_episodes), ("meta.eval_every", eval_every)):
        if value < 1:
            raise UsageError(f"{key} must be >= 1, got {value}")
    episode = build_episode(cfg)
    n_way, k_shot, qpc = episode.n_way, episode.k_shot, episode.query_per_class

    rng, train_table, eval_table, model = _meta_setup(cfg, seed, n_way)
    warps = init_warps([p.shape for p in model.params], cfg.get("warp.policy", "auto"))
    state = AdamState.zeros(sum(w.n_params for w in warps))

    # the held-out set, sampled in order and evaluated in stacks that keep the
    # stacked parameters within warp.STACK_ENTRY_BUDGET entries but hold no
    # fewer episodes than a task batch: an evaluation's memory is bounded by
    # that constant or by the task batch's own stack
    eval_rng = np.random.default_rng([seed, 1])
    batch_size = meta.tasks_per_outer_step
    eval_stacks = stack_within_budget(
        [sample_episode(eval_table, n_way, k_shot, qpc, eval_rng) for _ in range(eval_episodes)],
        sum(p.size for p in model.params), batch_size)

    def eval_loss(current):
        return float(np.mean(np.concatenate([adaptation_query_loss(model, current, stack, meta)
                                             for stack in eval_stacks])))

    def tod(current):
        return sum(tod_penalty(w, meta.tod_lambda) for w in current)

    # a step that overflows (NumericError from adaptation, the outer update or
    # the evaluation) ends the run as a divergence that keeps the last finite
    # warps; it is detected by those checks, not by numpy warnings
    os.makedirs(args.out, exist_ok=True)
    rows = []
    diverged = None
    t = 0
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            for t in range(outer_steps):
                batch = [sample_episode(train_table, n_way, k_shot, qpc, rng)
                         for _ in range(batch_size)]
                held_out = eval_loss(warps) if t % eval_every == 0 else float("nan")
                # the batch loss is the one the hypergradient's own adaptation reached
                new_warps, new_state, losses = meta_update_P(warps, batch, model, meta, state)
                batch_loss = float(np.mean(losses))
                rows.append((t, batch_loss, tod(warps), held_out))
                if not np.isfinite(batch_loss):
                    diverged = f"non-finite meta objective at outer step {t}"
                    break
                warps, state = new_warps, new_state
            else:
                t = outer_steps
                rows.append((outer_steps, float("nan"), tod(warps), eval_loss(warps)))
    except NumericError as exc:
        diverged = f"{exc} at outer step {t}"

    with open(os.path.join(args.out, "meta_curve.csv"), "w", newline="\n") as f:
        f.write("outer_step,batch_query_loss,tod_value,eval_query_loss\n")
        for t, b, p, e in rows:
            f.write(f"{t},{b:.17g},{p:.17g},{e:.17g}\n")
    save_warps(os.path.join(args.out, "warps.bin"), warps)
    _write_run_manifest(args.out, cfg, "meta-train", seed, seed_source)
    if diverged:
        print(f"divergence: {diverged}", file=sys.stderr)
        return 3
    print(f"meta-train complete: {outer_steps} outer steps -> {args.out}/warps.bin")
    return 0


def cmd_compare(args) -> int:
    cfg = _effective_config(args)
    seed, seed_source = _resolve_seed(args, cfg)
    optimizers = getlist(cfg, "compare.optimizers")
    if optimizers is None or len(optimizers) < 2:
        raise UsageError("compare needs compare.optimizers with at least two entries")
    prefixes = [("tasks.", "tasks")]
    if has_task_section(cfg, "tasks2."):
        prefixes.append(("tasks2.", "tasks2"))
    model_spec = build_model_spec(cfg)

    blocks = []
    any_diverged = []
    for prefix, block_name in prefixes:
        task_source = build_task_source(cfg, prefix)
        configs = [build_run_config(cfg, seed, optimizer=o, prefix=prefix, label=o,
                                    task_source=task_source)
                   for o in optimizers]
        rows = compare_optimizers(configs, model_spec)
        any_diverged += [r.algorithm for r in rows if r.diverged]
        blocks.append((block_name, rows))

    os.makedirs(args.out, exist_ok=True)
    write_comparison_csv(os.path.join(args.out, "compare.csv"), blocks)
    _write_run_manifest(args.out, cfg, "compare", seed, seed_source)
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
    root = args.root or cfg.get("import.root")
    if root is None:
        raise UsageError("import needs --root (or import.root in the config)")
    side = args.side if args.side is not None else getint(cfg, "import.side", 28)
    table = import_image_classes(root, side)
    os.makedirs(args.out, exist_ok=True)
    save_table(os.path.join(args.out, "table.wtbl"), table)
    manifest = dict(cfg)
    manifest.update({
        "import.root": str(root), "import.side": side,
        "command": "import", "library.version": __version__, "out": str(args.out),
        "imported.alphabets": len(table.alphabets),
        "imported.classes": sum(len(a.classes) for a in table.alphabets),
        "imported.skipped_classes": table.skipped_classes,
    })
    write_manifest(os.path.join(args.out, "manifest.txt"), manifest)
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
