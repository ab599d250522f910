"""Flat key=value run configuration.

Configs are text files of ``section.key=value`` lines (``#`` comments and
blank lines allowed). Command-line ``--set key=value`` pairs override file
values; the effective configuration is echoed into the run manifest, which is
itself a valid config file, so any run can be reproduced from its manifest.

Unknown keys are rejected rather than ignored, except for the informational
keys a manifest carries (``command``, ``library.version``, ``out``,
``seed.source``).
"""

from __future__ import annotations

import math

from .bench import EpisodeSpec, ModelSpec, RunConfig, SynthSpec
from .optim import HyperParams
from .tasks import load_table
from .warp import FORMS, MetaConfig, load_warps


class UsageError(ValueError):
    """Bad flags or config contents; maps to exit code 2."""


# every key changes some command's output: the inner loop is WarpAdam, whose
# only settings are Adam's four (weight decay and momentum belong to AdamW and
# Momentum), and only meta-train reads an eval split
_HYPER_KEYS = ("eta", "beta1", "beta2", "epsilon", "weight_decay", "momentum")
_TASK_KEYS = (
    "source", "table", "n_way", "k_shot", "query_per_class", "train_alphabets",
    "synth.alphabets", "synth.classes", "synth.instances", "synth.dim", "synth.noise",
)

KNOWN_KEYS = frozenset(
    [f"hyper.{k}" for k in _HYPER_KEYS]
    + [f"inner.{k}" for k in _HYPER_KEYS[:4]]
    + [f"tasks.{k}" for k in _TASK_KEYS]
    + [f"tasks2.{k}" for k in _TASK_KEYS]
    + [
        "run.optimizer", "run.n_tasks", "run.steps_per_task", "run.eval_every", "run.seed",
        "tasks.eval_alphabets",
        "model.hidden",
        "warp.policy", "warp.checkpoint",
        "meta.inner_steps", "meta.outer_eta", "meta.tod_lambda", "meta.first_order",
        "meta.tasks_per_outer_step", "meta.node_budget", "meta.outer_steps",
        "meta.eval_episodes", "meta.eval_every",
        "compare.optimizers",
        "import.root", "import.side",
    ]
)

INFO_KEYS = frozenset([
    "command", "library.version", "out", "seed.source",
    "imported.alphabets", "imported.classes", "imported.skipped_classes",
])


def parse_config_text(text: str, source: str = "<config>") -> dict[str, str]:
    cfg: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{source}:{lineno}: expected key=value, got {raw!r}")
        key, value = line.split("=", 1)
        cfg[key.strip()] = value.strip()
    return cfg


def load_config_file(path) -> dict[str, str]:
    with open(path, "r") as f:
        return parse_config_text(f.read(), source=str(path))


def apply_overrides(cfg: dict[str, str], pairs) -> dict[str, str]:
    out = dict(cfg)
    for pair in pairs or []:
        if "=" not in pair:
            raise UsageError(f"--set expects key=value, got {pair!r}")
        key, value = pair.split("=", 1)
        out[key.strip()] = value.strip()
    return out


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
    return tuple(s.strip() for s in raw.split(",") if s.strip())


# ---------------------------------------------------------------------------
# typed builders


def build_hyper(cfg: dict[str, str], prefix: str = "hyper.") -> HyperParams:
    """The settings under ``prefix`` that the config gives, over the defaults."""
    given = {k: getfloat(cfg, prefix + k) for k in _HYPER_KEYS if prefix + k in cfg}
    try:
        return HyperParams(**given)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_meta(cfg: dict[str, str]) -> MetaConfig:
    defaults = MetaConfig()
    try:
        return MetaConfig(
            inner_steps=getint(cfg, "meta.inner_steps", defaults.inner_steps),
            inner_hyper=build_hyper(cfg, prefix="inner."),
            outer_eta=getfloat(cfg, "meta.outer_eta", defaults.outer_eta),
            tod_lambda=getfloat(cfg, "meta.tod_lambda", defaults.tod_lambda),
            first_order=getbool(cfg, "meta.first_order", defaults.first_order),
            tasks_per_outer_step=getint(cfg, "meta.tasks_per_outer_step",
                                        defaults.tasks_per_outer_step),
            node_budget=getint(cfg, "meta.node_budget", defaults.node_budget),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def build_synth(cfg: dict[str, str], prefix: str = "tasks.") -> SynthSpec:
    d = SynthSpec()
    return SynthSpec(
        alphabets=getint(cfg, prefix + "synth.alphabets", d.alphabets),
        classes_per_alphabet=getint(cfg, prefix + "synth.classes", d.classes_per_alphabet),
        instances_per_class=getint(cfg, prefix + "synth.instances", d.instances_per_class),
        dim=getint(cfg, prefix + "synth.dim", d.dim),
        noise=getfloat(cfg, prefix + "synth.noise", d.noise),
    )


def build_episode(cfg: dict[str, str], prefix: str = "tasks.",
                  alphabets=None) -> EpisodeSpec:
    d = EpisodeSpec()
    sizes = {}
    for name in ("n_way", "k_shot", "query_per_class"):
        sizes[name] = getint(cfg, prefix + name, getattr(d, name))
        if sizes[name] < 1:
            raise UsageError(f"{prefix}{name} must be >= 1, got {sizes[name]}")
    return EpisodeSpec(**sizes, alphabets=alphabets)


def build_warp_policy(cfg: dict[str, str]) -> str:
    """``warp.policy``: ``auto`` or a form of ``warp.FORMS``."""
    policy = cfg.get("warp.policy", "auto")
    if policy != "auto" and policy not in FORMS:
        raise UsageError(f"warp.policy must be auto or one of {', '.join(FORMS)}, got {policy!r}")
    return policy


def build_model_spec(cfg: dict[str, str]) -> ModelSpec:
    hidden = getint(cfg, "model.hidden", ModelSpec().hidden)
    if hidden < 0:
        raise UsageError(f"model.hidden must be >= 0 (0 gives a linear classifier), got {hidden}")
    return ModelSpec(hidden=hidden)


_NO_CHECKPOINT = (None, "", "identity")  # ``warp.checkpoint`` values that mean identity warps


def check_checkpoint_read(cfg: dict[str, str], optimizers, who: str) -> None:
    """A ``warp.checkpoint`` path is read only by the warpadam optimizer; one
    given to a command that runs none is a ``UsageError`` naming the key."""
    ckpt = cfg.get("warp.checkpoint")
    if ckpt not in _NO_CHECKPOINT and "warpadam" not in optimizers:
        raise UsageError(f"warp.checkpoint is read only by run and compare with the warpadam "
                         f"optimizer, not by {who}, got {ckpt!r}")


def has_task_section(cfg: dict[str, str], prefix: str) -> bool:
    return any(k.startswith(prefix) for k in cfg)


def build_task_source(cfg: dict[str, str], prefix: str = "tasks."):
    """``(synth spec, None)`` or ``(None, loaded table)`` for one task block.

    ``bench.resolve_table`` turns the pair into the block's table.
    """
    source = cfg.get(prefix + "source", "synth")
    if source == "synth":
        return build_synth(cfg, prefix), None
    if source == "table":
        path = cfg.get(prefix + "table")
        if path is None:
            raise UsageError(f"{prefix}table is required when {prefix}source=table")
        return None, load_table(path)
    raise UsageError(f"{prefix}source must be synth or table, got {source!r}")


def build_run_config(cfg: dict[str, str], seed: int, optimizer: str | None = None,
                     prefix: str = "tasks.", task_source=None) -> RunConfig:
    """One run's config; ``task_source`` reuses a ``build_task_source`` result.

    Configs that share a ``task_source`` share one table object, as
    ``compare`` requires.
    """
    optimizer = optimizer or cfg.get("run.optimizer")
    if optimizer is None:
        raise UsageError("run.optimizer is required")
    synth, table = task_source or build_task_source(cfg, prefix)

    ckpt = cfg.get("warp.checkpoint")
    warps = load_warps(ckpt) if optimizer == "warpadam" and ckpt not in _NO_CHECKPOINT else None

    try:
        return RunConfig(
            optimizer=optimizer,
            hyper=build_hyper(cfg),
            synth=synth,
            table=table,
            episode=build_episode(cfg, prefix, alphabets=getlist(cfg, prefix + "train_alphabets")),
            n_tasks=getint(cfg, "run.n_tasks", 4),
            steps_per_task=getint(cfg, "run.steps_per_task", 50),
            eval_every=getint(cfg, "run.eval_every", 10),
            seed=seed,
            warps=warps,
            warp_policy=build_warp_policy(cfg),
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
