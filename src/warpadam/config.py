"""Flat key=value run configuration, read from config files and written as manifests.

Configs are UTF-8 ``section.key=value`` lines (``#`` comments and blank lines
allowed), each key on one line only; ``--set key=value`` pairs override file values.
Each has a key before its first ``=``, and neither it, nor ``--out`` or ``--root``,
holds a break that ``str.splitlines`` finds, text that UTF-8 cannot encode or edge
whitespace (``check_line``). ``write_manifest`` echoes the effective configuration
into the run manifest, a valid config file, so any run replays.

Unknown keys are rejected rather than ignored, except for the informational
keys a manifest carries (``command``, ``library.version``, ``out``,
``seed.source``). A setting's default and range live in its settings
dataclass; ``read_settings`` reads a section's keys into its fields, so a
value out of range fails with a ``UsageError`` that names the key.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import fields, replace
from itertools import combinations

from . import __version__
from .bench import OPTIMIZERS, RunConfig, model_sizes
from .nn import mlp_shapes
from .optim import FieldError, HyperParams
from .tasks import (ClassTable, EpisodeSpec, SamplingError, SynthSpec, episode_pools, load_table,
                    pool_sizes)
from .tensor import ShapeError
from .warp import FORMS, MetaConfig, _FlatWarp, load_warps, policy_forms


class UsageError(ValueError):
    """Bad flags or config contents; maps to exit code 2."""


# Each table maps the fields of a settings dataclass to their config keys,
# after the section's prefix. Every key changes some command's output: the
# inner loop is WarpAdam, whose only settings are Adam's four (weight decay and
# momentum belong to AdamW and Momentum).
_HYPER = {k: k for k in ("eta", "beta1", "beta2", "epsilon", "weight_decay", "momentum")}
_INNER = {k: k for k in ("eta", "beta1", "beta2", "epsilon")}
_META = {k: k for k in ("inner_steps", "outer_eta", "tod_lambda", "first_order",
                        "tasks_per_outer_step", "node_budget", "outer_steps", "eval_episodes",
                        "eval_every")}
_RUN = {"hidden": "model.hidden", "n_tasks": "run.n_tasks",
        "steps_per_task": "run.steps_per_task", "eval_every": "run.eval_every"}
_EPISODE = {k: k for k in ("n_way", "k_shot", "query_per_class")}
_SYNTH = {"alphabets": "synth.alphabets", "classes_per_alphabet": "synth.classes",
          "instances_per_class": "synth.instances", "dim": "synth.dim", "noise": "synth.noise"}
_TASK_KEYS = ("source", "table", "train_alphabets", *_EPISODE.values(), *_SYNTH.values())

KNOWN_KEYS = frozenset(
    [prefix + key for prefix, keys in (("hyper.", _HYPER.values()), ("inner.", _INNER.values()),
                                       ("meta.", _META.values()), ("", _RUN.values()),
                                       ("tasks.", _TASK_KEYS), ("tasks2.", _TASK_KEYS))
     for key in keys]
    # the keys that no settings field holds; only meta-train reads an eval split
    + ["run.optimizer", "run.seed", "tasks.eval_alphabets", "warp.policy", "warp.checkpoint",
       "compare.optimizers", "import.root", "import.side"]
)
IMPORT_SIDE = 28  # ``import.side`` when neither it nor ``--side`` is given

INFO_KEYS = frozenset([
    "command", "library.version", "out", "seed.source",
    "imported.alphabets", "imported.classes", "imported.skipped_classes",
])


def check_line(name: str, value: str) -> str:
    """``value``, for a manifest line: refused, naming ``name``, if it holds a line
    break, text that UTF-8 cannot encode, or whitespace at an end, which the reader strips."""
    if len(f"{value}.".splitlines()) > 1:
        raise UsageError(f"{name} must hold no line break, got {value!r}")
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        try:  # argv bytes that are UTF-8, which the locale's encoding could not decode
            text = os.fsencode(value).decode("utf-8")
        except UnicodeError:
            raise UsageError(f"{name} must be text that UTF-8 can encode, got {value!r}") from None
        raise UsageError(f"{name} is the UTF-8 text {text!r}, which the locale's encoding "
                         f"({sys.getfilesystemencoding()}) cannot carry: use a UTF-8 locale "
                         f"or set PYTHONUTF8=1") from None
    if value != value.strip():
        raise UsageError(f"{name} must not start or end with whitespace, got {value!r}")
    return value


def _split_pair(text: str, where: str) -> tuple[str, str]:
    """The stripped key and value of a ``key=value`` pair, refused naming ``where``."""
    key, eq, value = (part.strip() for part in text.partition("="))
    if not eq or not key:
        raise UsageError(f"{where}: expected key=value, got {text!r}")
    return check_line(f"{where}: the key", key), check_line(f"{where}: {key}", value)


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    cfg: dict[str, str] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        if raw.strip()[:1] in ("", "#"):
            continue
        key, value = _split_pair(raw, f"{source}:{lineno}")
        if key in lines:
            raise UsageError(f"{source}:{lineno}: {key} is set again, first on line {lines[key]}")
        cfg[key], lines[key] = value, lineno
    return cfg


def load_config_file(path) -> dict[str, str]:
    """The config file at ``path``, read as UTF-8: a byte that is not refused naming its line."""
    with open(path, "rb") as f:
        data = f.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(f"{data[:exc.start].decode('utf-8')}.".splitlines())
        raise UsageError(f"{path}:{line}: byte {exc.start} is not UTF-8 ({exc.reason})") from None
    return parse_config_text(text, source=str(path))


def apply_overrides(cfg: dict[str, str], pairs) -> dict[str, str]:
    return {**cfg, **dict(_split_pair(pair, "--set") for pair in pairs or ())}


def write_manifest(out_dir, cfg: dict[str, str], command: str, values: dict) -> None:
    """``cfg``, with ``values`` (strings and ints) and the command's keys over it, as
    ``out_dir``/manifest.txt: sorted ``key=value`` lines, LF-only, a config file."""
    manifest = {**cfg, **values, "command": command, "library.version": __version__,
                "out": str(out_dir)}
    with open(os.path.join(out_dir, "manifest.txt"), "w", encoding="utf-8", newline="\n") as f:
        f.writelines(f"{key}={manifest[key]}\n" for key in sorted(manifest))


def validate_keys(cfg: dict[str, str]) -> None:
    unknown = sorted(k for k in cfg if k not in KNOWN_KEYS and k not in INFO_KEYS)
    if unknown:
        raise UsageError(f"unknown config keys: {', '.join(unknown)}")


def _convert(cfg, key, conv, default, kind):
    raw = cfg.get(key)
    if raw is None:
        return default
    try:
        return conv(raw)
    except ValueError:
        raise UsageError(f"config key {key} must be {kind}, got {raw!r}") from None


def getint(cfg, key, default=None):
    return _convert(cfg, key, int, default, "an integer")


def getfloat(cfg, key, default=None):
    value = _convert(cfg, key, float, default, "a number")
    if key in cfg and not math.isfinite(value):
        raise UsageError(f"config key {key} must be finite, got {cfg[key]!r}")
    return value


def getbool(cfg, key, default=None):
    raw = cfg.get(key)
    if raw is None:
        return default
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise UsageError(f"config key {key} must be true/false, got {raw!r}")


def getlist(cfg, key):
    raw = cfg.get(key)
    if raw is None or raw == "":
        return None
    entries = tuple(s.strip() for s in raw.split(",") if s.strip())
    if not entries:
        raise UsageError(f"config key {key} must name at least one entry, got {raw!r}")
    twice = next((entry for i, entry in enumerate(entries) if entry in entries[:i]), None)
    if twice is not None:
        raise UsageError(f"config key {key} names {twice} twice, got {raw!r}")
    return entries


_GETTERS = {int: getint, float: getfloat, bool: getbool}


def read_settings(cls, cfg: dict[str, str], prefix: str, table: dict[str, str], **given):
    """``cls`` from the values that ``cfg`` gives for the fields of ``table``
    (field name to key, after ``prefix``), each converted by the type of the
    field's default, over ``given`` and the defaults. A field out of its
    range is a ``UsageError`` that names its key."""
    defaults = {f.name: f.default for f in fields(cls)}
    keys = {name: prefix + key for name, key in table.items()}
    read = {name: _GETTERS[type(defaults[name])](cfg, key)
            for name, key in keys.items() if key in cfg}
    try:
        return cls(**given, **read)
    except FieldError as exc:
        raise UsageError(f"{keys[exc.field]} {exc.rule}, got {exc.value}") from None


def build_meta(cfg: dict[str, str]) -> MetaConfig:
    return read_settings(MetaConfig, cfg, "meta.", _META,
                         inner_hyper=read_settings(HyperParams, cfg, "inner.", _INNER))


def build_synth(cfg: dict[str, str], prefix: str = "tasks.") -> SynthSpec:
    return read_settings(SynthSpec, cfg, prefix, _SYNTH)


def check_optimizer(key: str, optimizer: str | None) -> str:
    if optimizer is None:
        raise UsageError(f"{key} is required")
    if optimizer not in OPTIMIZERS:
        raise UsageError(f"{key} must be one of {', '.join(OPTIMIZERS)}, got {optimizer!r}")
    return optimizer


# each warp key and the runs that read it: a run reads the first of its keys that is set
_WARP_READERS = {
    "warp.checkpoint": "run and compare with the warpadam optimizer",
    "warp.policy": "meta-train, and by run and compare with the warpadam optimizer and no "
                   "warp.checkpoint",
}


def _read_warps(cfg: dict[str, str], optimizers) -> tuple[str, str | list]:
    """The warp key that runs under ``optimizers`` read and what it gives.
    Warpadam reads ``warp.checkpoint``, else ``warp.policy``; meta-train
    (``optimizers`` None) reads the policy; other runs read neither. With no
    key read, the key is ``warp.policy`` and gives ``auto``. Each other warp key
    that is set is a ``UsageError`` naming the runs, and a bad policy is one
    even where it is unread."""
    policy = cfg.get("warp.policy", "auto")
    if policy != "auto" and policy not in FORMS:
        raise UsageError(f"warp.policy must be auto or one of {', '.join(FORMS)}, got {policy!r}")
    sources = (("warp.policy",) if optimizers is None
               else tuple(_WARP_READERS) if "warpadam" in optimizers else ())
    read = next((k for k in sources if k in cfg), None)
    unread = [k for k in _WARP_READERS if k in cfg and k != read]
    if unread:
        who = ("meta-train" if optimizers is None else f"run.optimizer={optimizers[0]}"
               if len(optimizers) == 1 else f"compare.optimizers={','.join(optimizers)}")
        raise UsageError("; ".join(
            f"{k} is read only by {_WARP_READERS[k]}, not by {who}"
            f"{f' with a {read}' if k in sources else ''}, got {cfg[k]!r}" for k in unread))
    if read == "warp.checkpoint":
        return read, load_warps(cfg[read])
    return "warp.policy", policy


def build_task_source(cfg: dict[str, str], prefix: str = "tasks.") -> SynthSpec | ClassTable:
    """A synth spec or a loaded table for one task block; ``bench.draw_run``
    turns it into the block's table."""
    source = cfg.get(prefix + "source", "synth")
    if source == "synth":
        if prefix + "table" in cfg:
            raise UsageError(f"{prefix}table is read only with {prefix}source=table, "
                             f"got {prefix}source=synth")
        return build_synth(cfg, prefix)
    if source == "table":
        path = cfg.get(prefix + "table")
        if path is None:
            raise UsageError(f"{prefix}table is required when {prefix}source=table")
        return load_table(path)
    raise UsageError(f"{prefix}source must be synth or table, got {source!r}")


def check_pool(source: SynthSpec | ClassTable, episode: EpisodeSpec, alphabets_key: str) -> None:
    """Refuses an ``episode`` that ``source``'s table cannot supply, drawing
    no table: a ``UsageError`` that names the keys at fault and the block."""
    block = alphabets_key.split(".")[0]
    try:
        sizes = pool_sizes(source, episode)
    except SamplingError as exc:
        raise UsageError(f"{alphabets_key} does not fit the source of the {block} block: "
                         f"{exc}") from None
    try:
        episode_pools(sizes, episode)
    except SamplingError as exc:
        keys = [f"{block}.{key}" for key in _EPISODE.values()]
        if episode.alphabets is not None:
            keys.append(alphabets_key)
        raise UsageError(f"{', '.join(keys[:-1])} and {keys[-1]} do not fit the source of the "
                         f"{block} block: {exc}") from None


def build_run_configs(cfg: dict[str, str], seed: int, pools, optimizers=None) -> list[RunConfig]:
    """The run of each alphabet pool key of ``pools`` (``<block>.<key>``)
    under ``optimizers`` (None for meta-train, which reads no ``hyper.`` or
    ``run.`` key), grouped by task block, with the warp keys read once by
    ``_read_warps``. The pools of one block share its source and settings, and
    two of them must each list alphabets and share none. Before any run, each
    pool is checked to supply its episodes (``check_pool``), and each block's
    model to fit the warp key read: a misfit is a ``ShapeError`` naming the key
    and the block."""
    key, warps = _read_warps(cfg, optimizers)
    hyper = read_settings(HyperParams, cfg, "hyper.", _HYPER if optimizers else {})
    run_keys = _RUN if optimizers else {"hidden": _RUN["hidden"]}
    runs = []
    for block in dict.fromkeys(pool.split(".")[0] for pool in pools):
        prefix = f"{block}."
        lists = {pool: getlist(cfg, pool) for pool in pools if pool.startswith(prefix)}
        for a, b in combinations(lists, 2):
            unset = [pool for pool in (a, b) if lists[pool] is None]
            if unset or (shared := sorted(set(lists[a]) & set(lists[b]))):
                fault = f"{unset[0]} is unset" if unset else f"both list {shared}"
                raise UsageError(f"{a} and {b} must each list alphabets and share none: {fault}")
        source = build_task_source(cfg, prefix)
        run = read_settings(RunConfig, cfg, "", run_keys, hyper=hyper, source=source, seed=seed,
                            warps=warps, episode=read_settings(EpisodeSpec, cfg, prefix, _EPISODE))
        for pool, names in lists.items():
            runs.append(replace(run, episode=replace(run.episode, alphabets=names)))
            check_pool(source, runs[-1].episode, pool)
        shapes = mlp_shapes(model_sizes(run.hidden, source.dim, run.episode.n_way))
        try:
            if isinstance(warps, str):
                policy_forms(shapes, warps)
            else:
                _FlatWarp(warps, shapes)
        except ShapeError as exc:
            raise ShapeError(f"{key} {cfg.get(key, warps)} does not fit the model of the "
                             f"{block} block: {exc}") from None
    return runs
