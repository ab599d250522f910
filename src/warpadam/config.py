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

from .bench import OPTIMIZERS, EpisodeSpec, RunConfig, SynthSpec
from .optim import HyperParams
from .tasks import ClassTable, load_table
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


def build_hidden(cfg: dict[str, str]) -> int:
    hidden = getint(cfg, "model.hidden", RunConfig.hidden)
    if hidden < 0:
        raise UsageError(f"model.hidden must be >= 0 (0 gives a linear classifier), got {hidden}")
    return hidden


def check_optimizer(key: str, optimizer: str | None) -> str:
    if optimizer is None:
        raise UsageError(f"{key} is required")
    if optimizer not in OPTIMIZERS:
        raise UsageError(f"{key} must be one of {', '.join(OPTIMIZERS)}, got {optimizer!r}")
    return optimizer


_NO_CHECKPOINT = (None, "", "identity")  # ``warp.checkpoint`` values that mean identity warps
_WARP_READERS = {
    "warp.checkpoint": "run and compare with the warpadam optimizer",
    "warp.policy": "meta-train, and by run and compare with the warpadam optimizer and no "
                   "warp.checkpoint",
}


def refuse_unread_warp_keys(cfg: dict[str, str], keys, who: str) -> None:
    """A ``UsageError`` naming each of ``keys`` that ``cfg`` sets, for ``who`` reads none."""
    unread = [k for k in keys
              if (cfg.get(k) not in _NO_CHECKPOINT if k == "warp.checkpoint" else k in cfg)]
    if unread:
        raise UsageError("; ".join(f"{k} is read only by {_WARP_READERS[k]}, not by {who}, "
                                   f"got {cfg[k]!r}" for k in unread))


def check_warp_keys_read(cfg: dict[str, str], optimizers, who: str) -> None:
    """Refuses the warp keys that runs under ``optimizers`` do not read: only
    warpadam reads them, and a checkpoint fixes the forms a policy would choose."""
    build_warp_policy(cfg)  # a bad policy is reported as one
    if "warpadam" not in optimizers:
        refuse_unread_warp_keys(cfg, _WARP_READERS, who)
    elif cfg.get("warp.checkpoint") not in _NO_CHECKPOINT:
        refuse_unread_warp_keys(cfg, ("warp.policy",), f"{who} with a warp.checkpoint")


def has_task_section(cfg: dict[str, str], prefix: str) -> bool:
    return any(k.startswith(prefix) for k in cfg)


def build_task_source(cfg: dict[str, str], prefix: str = "tasks.") -> SynthSpec | ClassTable:
    """A synth spec or a loaded table for one task block; ``bench.resolve_table``
    turns it into the block's table."""
    source = cfg.get(prefix + "source", "synth")
    if source == "synth":
        return build_synth(cfg, prefix)
    if source == "table":
        path = cfg.get(prefix + "table")
        if path is None:
            raise UsageError(f"{prefix}table is required when {prefix}source=table")
        return load_table(path)
    raise UsageError(f"{prefix}source must be synth or table, got {source!r}")


def build_run_config(cfg: dict[str, str], seed: int, prefix: str = "tasks.") -> RunConfig:
    """The run of the task block under ``prefix``, for any optimizer; the
    warp keys are read as given (``check_warp_keys_read`` refuses unread ones)."""
    d = RunConfig()
    source = build_task_source(cfg, prefix)
    ckpt = cfg.get("warp.checkpoint")
    warps = build_warp_policy(cfg) if ckpt in _NO_CHECKPOINT else load_warps(ckpt)
    try:
        return RunConfig(
            hyper=build_hyper(cfg),
            source=source,
            episode=build_episode(cfg, prefix, alphabets=getlist(cfg, prefix + "train_alphabets")),
            hidden=build_hidden(cfg),
            n_tasks=getint(cfg, "run.n_tasks", d.n_tasks),
            steps_per_task=getint(cfg, "run.steps_per_task", d.steps_per_task),
            eval_every=getint(cfg, "run.eval_every", d.eval_every),
            seed=seed,
            warps=warps,
        )
    except ValueError as exc:
        raise UsageError(str(exc)) from None
