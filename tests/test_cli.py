import os
import re
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import warpadam
import warpadam.bench as bench
import warpadam.cli as cli
import warpadam.config as config
import warpadam.tensor as T
import warpadam.warp as warp_module
from warpadam.cli import main
from warpadam.bench import convergence_epoch, read_curve_csv
from warpadam.config import (KNOWN_KEYS, apply_overrides, build_meta, build_run_configs,
                             load_config_file, parse_config_text, validate_keys)
from warpadam.nn import MLP
from warpadam.tasks import load_table, sample_episode, save_table, synth_proto_tasks
from warpadam.warp import (WarpMatrix, adaptation_query_loss, init_warps, load_warps, save_warps,
                           stack_within_budget)

from test_tasks import make_tree
from test_warp import _counting


SMALL_RUN = """
run.optimizer=adam
run.n_tasks=2
run.steps_per_task=10
run.eval_every=5
run.seed=3
hyper.eta=0.05
model.hidden=8
tasks.synth.alphabets=2
tasks.synth.classes=5
tasks.synth.instances=12
tasks.synth.dim=8
tasks.synth.noise=0.1
tasks.n_way=3
tasks.k_shot=2
tasks.query_per_class=3
"""

SMALL_META = """
run.seed=5
model.hidden=0
meta.inner_steps=3
meta.outer_steps=4
meta.outer_eta=0.003
meta.tasks_per_outer_step=2
meta.eval_episodes=4
meta.eval_every=2
inner.eta=0.1
inner.epsilon=0.1
tasks.synth.alphabets=4
tasks.synth.classes=4
tasks.synth.instances=10
tasks.synth.dim=6
tasks.synth.noise=0.4
tasks.n_way=3
tasks.k_shot=1
tasks.query_per_class=3
tasks.train_alphabets=alpha00,alpha01,alpha02
tasks.eval_alphabets=alpha03
"""


def write_cfg(tmp_path, text, name="cfg.txt"):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


META_POOLS = ("tasks.train_alphabets", "tasks.eval_alphabets")  # meta-train's two pools


def command_cfg(tmp_path, command):
    """A small working config of ``run``, ``compare`` or ``meta-train``."""
    text = {"run": SMALL_RUN, "compare": SMALL_COMPARE, "meta-train": SMALL_META}
    return write_cfg(tmp_path, text[command])


# ---------------------------------------------------------------------------
# run

def test_run_writes_curve_and_manifest(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 0
    records = read_curve_csv(out / "curve.csv")
    assert len(records) == 2 * 2
    manifest = (out / "manifest.txt").read_text()
    assert "run.seed=3" in manifest
    assert "command=run" in manifest
    assert "library.version=" in manifest


def test_run_rerun_from_manifest_is_bit_identical_except_wall(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    assert main(["run", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["run", "--config", str(out1 / "manifest.txt"), "--out", str(out2)]) == 0
    r1 = read_curve_csv(out1 / "curve.csv")
    r2 = read_curve_csv(out2 / "curve.csv")
    strip = lambda rs: [(r.task_index, r.step, r.train_loss, r.train_acc, r.val_loss, r.val_acc)
                        for r in rs]
    assert strip(r1) == strip(r2)


@pytest.mark.parametrize("policy", ["auto", "dense", "diagonal", "identity"])
def test_run_warpadam_at_identity_valued_warps_writes_adams_curve(tmp_path, policy):
    # hidden 40 makes the first weight 8 x 40, which auto warps with kron factors
    cfg = write_cfg(tmp_path, SMALL_RUN)

    def curve(*settings):
        out = tmp_path / "-".join(settings)
        argv = ["run", "--config", cfg, "--out", str(out), "--set", "model.hidden=40"]
        assert main(argv + [a for kv in settings for a in ("--set", kv)]) == 0
        return [line.rsplit(",", 1)[0] for line in (out / "curve.csv").read_text().splitlines()]

    want = curve("run.optimizer=adam")
    assert curve("run.optimizer=warpadam", f"warp.policy={policy}") == want
    assert len(want) == 1 + 2 * 2


def test_run_divergence_exits_3(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    out = tmp_path / "out"
    code = main(["run", "--config", cfg, "--out", str(out),
                 "--set", "run.optimizer=sgd", "--set", "hyper.eta=1e308"])
    assert code == 3
    assert (out / "curve.csv").exists()


# every optimizer diverges within five steps; adamw's decay overflows at its first
DIVERGING = ("hyper.eta=1e308", "hyper.weight_decay=10", "run.n_tasks=1", "run.steps_per_task=5")


@pytest.mark.parametrize("optimizer", bench.OPTIMIZERS)
def test_a_diverging_run_writes_one_stderr_line_and_no_numpy_warning(tmp_path, capsys, optimizer):
    argv = ["run", "--config", write_cfg(tmp_path, SMALL_RUN), "--out", str(tmp_path / "o"),
            "--set", f"run.optimizer={optimizer}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        assert main(argv + [a for kv in DIVERGING for a in ("--set", kv)]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("divergence: "), err


def test_a_diverging_compare_writes_nothing_to_stderr_and_flags_its_rows(tmp_path, capsys):
    out = tmp_path / "o"
    argv = ["compare", "--config", write_cfg(tmp_path, SMALL_RUN), "--out", str(out),
            "--set", f"compare.optimizers={','.join(bench.OPTIMIZERS)}"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv + [a for kv in DIVERGING for a in ("--set", kv)]) == 0
    assert capsys.readouterr().err == ""
    flagged = [line for line in (out / "compare.csv").read_text().splitlines()
               if line.startswith("# diverged: ")]
    assert flagged == [f"# diverged: {optimizer}" for optimizer in bench.OPTIMIZERS]


def test_a_key_set_twice_in_one_file_is_usage_error_naming_both_lines(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN + "# again\nrun.seed = 4\n")
    first = SMALL_RUN.splitlines().index("run.seed=3") + 1
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (f"usage error: {cfg}:{len(SMALL_RUN.splitlines()) + 2}: "
                                       f"run.seed is set again, first on line {first}\n")
    assert not out.exists()


def test_unknown_config_key_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN + "\nbogus.key=1\n")
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


def test_warp_update_variant_is_an_unknown_key(tmp_path, capsys):
    # warpadam warps only the gradient that feeds the moments; no key selects another placement
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("run.optimizer=adam", "run.optimizer=warpadam"))
    out = tmp_path / "o"
    assert main(["run", "--config", cfg, "--out", str(out),
                 "--set", "warp.update_variant=true"]) == 2
    assert capsys.readouterr().err == "usage error: unknown config keys: warp.update_variant\n"
    assert not out.exists()


_HYPER_KEYS = ("eta", "beta1", "beta2", "epsilon", "weight_decay", "momentum")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command, key", (
    [("run", "hyper." + k) for k in _HYPER_KEYS] + [("run", "tasks.synth.noise")]
    + [("meta-train", "inner." + k) for k in _HYPER_KEYS[:4]]
    + [("meta-train", k) for k in ("meta.outer_eta", "meta.tod_lambda", "tasks.synth.noise")]
))
def test_non_finite_float_is_usage_error_naming_the_key(tmp_path, capsys, command, key, value):
    cfg = write_cfg(tmp_path, SMALL_RUN if command == "run" else SMALL_META)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"usage error: config key {key} must be finite, got '{value}'\n"
    assert not out.exists()


@pytest.mark.parametrize("settings, message", [
    (["tasks.source=bogus"], "tasks.source must be synth or table, got 'bogus'"),
    (["tasks.source=table"], "tasks.table is required when tasks.source=table"),
    (["tasks.table=/nonexistent.wtbl"],
     "tasks.table is read only with tasks.source=table, got tasks.source=synth"),
])
def test_every_command_resolves_the_task_source_alike(tmp_path, capsys, settings, message):
    for command, text in (("run", SMALL_RUN),
                          ("compare", SMALL_RUN + "compare.optimizers=adam,warpadam\n"),
                          ("meta-train", SMALL_META)):
        cfg = write_cfg(tmp_path, text, name=f"{command}.cfg")
        assert main([command, "--config", cfg, "--out", str(tmp_path / command),
                     *(a for kv in settings for a in ("--set", kv))]) == 2, command
        assert capsys.readouterr().err == f"usage error: {message}\n", command


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("command, key", (
    [(c, "tasks." + k) for c in ("run", "compare", "meta-train")
     for k in ("n_way", "k_shot", "query_per_class")]
    + [("compare", "tasks2." + k) for k in ("n_way", "k_shot", "query_per_class")]
))
def test_episode_geometry_below_one_is_usage_error_naming_the_key(tmp_path, capsys, command,
                                                                 key, value):
    text = {"run": SMALL_RUN, "compare": SMALL_COMPARE, "meta-train": SMALL_META}
    cfg = write_cfg(tmp_path, text[command])
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"usage error: {key} must be >= 1, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("value", [",", ", ,"])
@pytest.mark.parametrize("command, key", [
    ("run", "tasks.train_alphabets"), ("compare", "tasks.train_alphabets"),
    ("compare", "tasks2.train_alphabets"), ("compare", "compare.optimizers"),
    ("meta-train", "tasks.train_alphabets"), ("meta-train", "tasks.eval_alphabets"),
])
def test_a_list_that_names_no_entry_is_usage_error_naming_the_key(tmp_path, capsys, command, key,
                                                                  value):
    out = tmp_path / "o"
    assert main([command, "--config", command_cfg(tmp_path, command), "--out", str(out),
                 "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == (f"usage error: config key {key} must name at least one "
                                       f"entry, got {value!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare"])
def test_an_empty_alphabet_list_is_unset(tmp_path, command):
    assert main([command, "--config", command_cfg(tmp_path, command), "--out", str(tmp_path / "o"),
                 "--set", "tasks.train_alphabets="]) == 0


_HYPER_RANGES = (("eta", "0", "must be positive, got 0.0"),
                 ("beta1", "1", "must be in [0, 1), got 1.0"),
                 ("beta2", "1", "must be in [0, 1), got 1.0"),
                 ("epsilon", "-1", "must be non-negative, got -1.0"),
                 ("weight_decay", "-1", "must be non-negative, got -1.0"),
                 ("momentum", "1", "must be in [0, 1), got 1.0"))

# every range-checked key: an out-of-range value, and the rest of the line that names the key
OUT_OF_RANGE = {
    **{f"hyper.{k}": (value, rest) for k, value, rest in _HYPER_RANGES},
    **{f"inner.{k}": (value, rest) for k, value, rest in _HYPER_RANGES[:4]},
    "meta.inner_steps": ("0", "must be >= 1, got 0"),
    "meta.outer_eta": ("0", "must be positive, got 0.0"),
    "meta.tod_lambda": ("-1", "must be non-negative, got -1.0"),
    "meta.tasks_per_outer_step": ("0", "must be >= 1, got 0"),
    "meta.node_budget": ("0", "must be positive, got 0"),
    "meta.outer_steps": ("-1", "must be >= 0, got -1"),
    "meta.eval_episodes": ("0", "must be >= 1, got 0"),
    "meta.eval_every": ("0", "must be >= 1, got 0"),
    **{f"run.{k}": ("0", "must be >= 1, got 0")
       for k in ("n_tasks", "steps_per_task", "eval_every")},
    "model.hidden": ("-1", "must be >= 0 (0 gives a linear classifier), got -1"),
    **{f"{block}.{k}": ("0", "must be >= 1, got 0") for block in ("tasks", "tasks2")
       for k in ("n_way", "k_shot", "query_per_class", "synth.alphabets", "synth.classes",
                 "synth.instances", "synth.dim")},
    **{f"{block}.synth.noise": ("-1", "must be non-negative, got -1.0")
       for block in ("tasks", "tasks2")},
}
# the sections of the range-checked keys that each command reads
_RANGE_READERS = {"run": ("hyper.", "run.", "model.", "tasks."),
                  "compare": ("hyper.", "run.", "model.", "tasks.", "tasks2."),
                  "meta-train": ("inner.", "meta.", "model.", "tasks.")}


def test_the_range_checked_keys_are_38_known_keys():
    assert len(OUT_OF_RANGE) == 38 and set(OUT_OF_RANGE) <= KNOWN_KEYS


@pytest.mark.parametrize("command, key", [(command, key) for command, sections in
                                          _RANGE_READERS.items() for key in OUT_OF_RANGE
                                          if key.startswith(sections)])
def test_every_out_of_range_value_is_usage_error_naming_its_key(tmp_path, capsys, command, key):
    value, rest = OUT_OF_RANGE[key]
    out = tmp_path / "o"
    assert main([command, "--config", command_cfg(tmp_path, command), "--out", str(out),
                 "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == f"usage error: {key} {rest}\n"
    assert not out.exists()


@pytest.mark.parametrize("command, key", [(command, key) for command, sections in
                                          _RANGE_READERS.items() for key in OUT_OF_RANGE
                                          if not key.startswith(sections)])
def test_an_out_of_range_value_of_an_unread_key_is_not_checked(tmp_path, command, key):
    # a command range-checks only the sections it reads: meta-train reads no hyper.* and
    # no run.* key, and run no tasks2.* key
    assert main([command, "--config", command_cfg(tmp_path, command), "--out",
                 str(tmp_path / "o"), "--set", f"{key}={OUT_OF_RANGE[key][0]}"]) == 0


@pytest.mark.parametrize("command, key, classes", [("run", "tasks.synth.dim", 5),
                                                   ("compare", "tasks2.synth.dim", 4),
                                                   ("meta-train", "tasks.synth.dim", 4)])
def test_synth_dim_below_the_class_count_is_usage_error_naming_the_key(tmp_path, capsys, command,
                                                                       key, classes):
    out = tmp_path / "o"
    assert main([command, "--config", command_cfg(tmp_path, command), "--out", str(out),
                 "--set", f"{key}=3"]) == 2
    assert capsys.readouterr().err == (f"usage error: {key} must be >= the {classes} orthonormal "
                                       "class prototypes, got 3\n")
    assert not out.exists()


def test_known_keys_are_the_53_keys():
    assert sorted(KNOWN_KEYS) == [
        "compare.optimizers",
        "hyper.beta1", "hyper.beta2", "hyper.epsilon", "hyper.eta", "hyper.momentum",
        "hyper.weight_decay",
        "import.root", "import.side",
        "inner.beta1", "inner.beta2", "inner.epsilon", "inner.eta",
        "meta.eval_episodes", "meta.eval_every", "meta.first_order", "meta.inner_steps",
        "meta.node_budget", "meta.outer_eta", "meta.outer_steps", "meta.tasks_per_outer_step",
        "meta.tod_lambda",
        "model.hidden",
        "run.eval_every", "run.n_tasks", "run.optimizer", "run.seed", "run.steps_per_task",
        "tasks.eval_alphabets", "tasks.k_shot", "tasks.n_way", "tasks.query_per_class",
        "tasks.source", "tasks.synth.alphabets", "tasks.synth.classes", "tasks.synth.dim",
        "tasks.synth.instances", "tasks.synth.noise", "tasks.table", "tasks.train_alphabets",
        "tasks2.k_shot", "tasks2.n_way", "tasks2.query_per_class", "tasks2.source",
        "tasks2.synth.alphabets", "tasks2.synth.classes", "tasks2.synth.dim",
        "tasks2.synth.instances", "tasks2.synth.noise", "tasks2.table", "tasks2.train_alphabets",
        "warp.checkpoint", "warp.policy",
    ]


def test_meta_train_loop_defaults_come_from_meta_config():
    meta = build_meta({})
    assert (meta.outer_steps, meta.eval_episodes, meta.eval_every) == (200, 20, 10)


def readme_config() -> str:
    """The meta-training config block of the README."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    (block,) = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    return block


def test_readme_meta_config_parses():
    cfg = parse_config_text(readme_config(), source="README.md")
    validate_keys(cfg)
    meta = build_meta(cfg)
    assert cfg["model.hidden"] == "0"
    assert meta.tod_lambda == 0.001 and meta.inner_hyper.eta == 0.1


def test_missing_config_file_is_exit_2_naming_the_file(tmp_path, capsys):
    missing = tmp_path / "missing.cfg"
    assert main(["run", "--config", str(missing), "--out", str(tmp_path / "o")]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and str(missing) in err


def test_unknown_flag_is_error(tmp_path):
    assert main(["run", "--out", str(tmp_path / "o"), "--frobnicate"]) == 2


def test_seed_precedence_flag_file_env(tmp_path, monkeypatch):
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("run.seed=3", ""))
    monkeypatch.setenv("WARP_SEED", "11")
    out_env = tmp_path / "env"
    assert main(["run", "--config", cfg, "--out", str(out_env)]) == 0
    assert "run.seed=11" in (out_env / "manifest.txt").read_text()
    assert "seed.source=env" in (out_env / "manifest.txt").read_text()

    out_flag = tmp_path / "flag"
    assert main(["run", "--config", cfg, "--out", str(out_flag), "--seed", "4"]) == 0
    assert "run.seed=4" in (out_flag / "manifest.txt").read_text()
    assert "seed.source=flag" in (out_flag / "manifest.txt").read_text()

    monkeypatch.delenv("WARP_SEED")
    out_default = tmp_path / "default"
    assert main(["run", "--config", cfg, "--out", str(out_default)]) == 0
    assert "run.seed=0" in (out_default / "manifest.txt").read_text()
    assert "seed.source=default" in (out_default / "manifest.txt").read_text()


@pytest.mark.parametrize("source, name", [("flag", "--seed"), ("file", "run.seed"),
                                          ("env", "WARP_SEED")])
@pytest.mark.parametrize("command", ["run", "meta-train"])
def test_negative_seed_is_usage_error_naming_its_source(tmp_path, capsys, monkeypatch, command,
                                                        source, name):
    text = SMALL_RUN if command == "run" else SMALL_META
    cfg = write_cfg(tmp_path, re.sub(r"run\.seed=\d+", "run.seed=-2" if source == "file" else "",
                                     text))
    monkeypatch.setenv("WARP_SEED", "-1" if source == "env" else "7")
    out = tmp_path / "o"
    flag = ["--seed", "-3"] if source == "flag" else []
    assert main([command, "--config", cfg, "--out", str(out), *flag]) == 2
    value = {"flag": -3, "file": -2, "env": -1}[source]
    assert capsys.readouterr().err == (f"usage error: {name} must be a non-negative integer, "
                                       f"got {value}\n")
    assert not out.exists()


def test_run_that_fails_while_building_writes_no_output_directory(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_RUN.replace("run.optimizer=adam", "run.optimizer=warpadam"))
    out = tmp_path / "o"
    # the policy is valid, but the (8,) bias is not a matrix for kron factors
    assert main(["run", "--config", cfg, "--out", str(out), "--set", "warp.policy=kron"]) == 2
    assert capsys.readouterr().err == ("error: warp.policy kron does not fit the model of the "
                                       "tasks block: kron policy needs matrix-shaped tensors, "
                                       "got shape (8,)\n")
    assert not out.exists()


@pytest.mark.parametrize("command, settings", [
    ("run", []), ("run", ["run.optimizer=warpadam"]), ("compare", []), ("meta-train", []),
], ids=["run-adam", "run-warpadam", "compare", "meta-train"])
def test_bad_warp_policy_is_usage_error_naming_the_key(tmp_path, capsys, command, settings):
    cfg = command_cfg(tmp_path, command)
    out = tmp_path / "o"
    sets = [a for kv in settings + ["warp.policy=bogus"] for a in ("--set", kv)]
    assert main([command, "--config", cfg, "--out", str(out), *sets]) == 2
    assert capsys.readouterr().err == ("usage error: warp.policy must be auto or one of identity, "
                                       "diagonal, dense, kron, got 'bogus'\n")
    assert not out.exists()


@pytest.mark.parametrize("command, settings", [
    ("run", []), ("compare", ["compare.optimizers=adam,sgd"]), ("meta-train", []),
    # meta-train reads the policy, so only the checkpoint is named
    ("meta-train", ["warp.policy=diagonal"]),
], ids=["run-adam", "compare-adam-sgd", "meta-train", "meta-train-both-keys"])
def test_checkpoint_that_nothing_reads_is_usage_error_naming_the_key(tmp_path, capsys, command,
                                                                     settings):
    cfg = command_cfg(tmp_path, command)
    out = tmp_path / "o"
    sets = [a for kv in settings + ["warp.checkpoint=/nonexistent/warps.bin"]
            for a in ("--set", kv)]
    assert main([command, "--config", cfg, "--out", str(out), *sets]) == 2
    who = {"run": "run.optimizer=adam", "compare": "compare.optimizers=adam,sgd"}.get(command,
                                                                                     command)
    assert capsys.readouterr().err == (
        "usage error: warp.checkpoint is read only by run and compare with the warpadam "
        f"optimizer, not by {who}, got '/nonexistent/warps.bin'\n")
    assert not out.exists()


@pytest.mark.parametrize("command, settings, line", [
    # a file named like the old "no checkpoint" value is read, and rejected
    ("run", ["run.optimizer=warpadam", "warp.checkpoint=identity"],
     "error: bad magic (not a warp checkpoint) in warp checkpoint identity"),
    ("run", ["warp.checkpoint=identity"],
     "usage error: warp.checkpoint is read only by run and compare with the warpadam optimizer, "
     "not by run.optimizer=adam, got 'identity'"),
    ("meta-train", ["warp.checkpoint="],
     "usage error: warp.checkpoint is read only by run and compare with the warpadam optimizer, "
     "not by meta-train, got ''"),
], ids=["run-warpadam", "run-adam", "meta-train-empty"])
def test_checkpoint_is_a_path_and_nothing_else(tmp_path, capsys, monkeypatch, command, settings,
                                               line):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "identity").write_bytes(b"not a checkpoint")
    out = tmp_path / "o"
    sets = [a for kv in settings for a in ("--set", kv)]
    assert main([command, "--config", command_cfg(tmp_path, command), "--out", str(out),
                 *sets]) == 2
    assert capsys.readouterr().err == f"{line}\n"
    assert not out.exists()


_POLICY_READERS = ("warp.policy is read only by meta-train, and by run and compare with the "
                   "warpadam optimizer and no warp.checkpoint")


@pytest.mark.parametrize("command, settings, line", [
    ("run", ["warp.policy=kron"], f"{_POLICY_READERS}, not by run.optimizer=adam, got 'kron'"),
    ("run", ["warp.checkpoint=/nonexistent/warps.bin", "warp.policy=kron"],
     "warp.checkpoint is read only by run and compare with the warpadam optimizer, not by "
     "run.optimizer=adam, got '/nonexistent/warps.bin'; "
     f"{_POLICY_READERS}, not by run.optimizer=adam, got 'kron'"),
    ("run", ["run.optimizer=warpadam", "warp.checkpoint=/nonexistent/warps.bin",
             "warp.policy=kron"],
     f"{_POLICY_READERS}, not by run.optimizer=warpadam with a warp.checkpoint, got 'kron'"),
    ("compare", ["compare.optimizers=adam,sgd", "warp.policy=dense"],
     f"{_POLICY_READERS}, not by compare.optimizers=adam,sgd, got 'dense'"),
    ("compare", ["warp.checkpoint=/nonexistent/warps.bin", "warp.policy=auto"],
     f"{_POLICY_READERS}, not by compare.optimizers=sgd,momentum,radam,adamw,warpadam with a "
     "warp.checkpoint, got 'auto'"),
    ("compare", ["compare.optimizers=adam,sgd", "warp.checkpoint=/nonexistent/warps.bin",
                 "warp.policy=dense"],
     "warp.checkpoint is read only by run and compare with the warpadam optimizer, not by "
     "compare.optimizers=adam,sgd, got '/nonexistent/warps.bin'; "
     f"{_POLICY_READERS}, not by compare.optimizers=adam,sgd, got 'dense'"),
], ids=["run-adam", "run-adam-both-keys", "run-warpadam-checkpoint", "compare-adam-sgd",
        "compare-checkpoint", "compare-adam-sgd-both-keys"])
def test_warp_policy_that_nothing_reads_is_usage_error_naming_the_key(tmp_path, capsys, command,
                                                                     settings, line):
    # the checkpoint is refused before it is read, so a missing file is not reported
    cfg = command_cfg(tmp_path, command)
    out = tmp_path / "o"
    sets = [a for kv in settings for a in ("--set", kv)]
    assert main([command, "--config", cfg, "--out", str(out), *sets]) == 2
    assert capsys.readouterr().err == f"usage error: {line}\n"
    assert not out.exists()


def test_compare_with_warpadam_reads_a_policy_given_alone(tmp_path, capsys):
    assert main(["compare", "--config", command_cfg(tmp_path, "compare"),
                 "--out", str(tmp_path / "o"), "--set", "compare.optimizers=adam,warpadam",
                 "--set", "warp.policy=diagonal"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("command, key, value", [
    ("run", "run.optimizer", "adamx"), ("compare", "compare.optimizers", "adam,adamx"),
])
def test_unknown_optimizer_is_usage_error_naming_the_key(tmp_path, capsys, command, key, value):
    cfg = command_cfg(tmp_path, command)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--set", f"{key}={value}"]) == 2
    assert capsys.readouterr().err == (f"usage error: {key} must be one of adam, adamw, amsgrad, "
                                       "momentum, radam, sgd, warpadam, got 'adamx'\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["run", "compare", "meta-train"])
def test_negative_hidden_size_is_usage_error_naming_the_key(tmp_path, capsys, command):
    cfg = command_cfg(tmp_path, command)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--set", "model.hidden=-1"]) == 2
    assert capsys.readouterr().err == ("usage error: model.hidden must be >= 0 (0 gives a "
                                       "linear classifier), got -1\n")
    assert not out.exists()


@pytest.mark.parametrize("command, key", [
    ("meta-train", "inner.weight_decay"), ("meta-train", "inner.momentum"),
    ("run", "run.label"), ("compare", "tasks2.eval_alphabets"),
])
def test_key_without_effect_is_unknown(tmp_path, capsys, command, key):
    # WarpAdam's inner loop has Adam's four settings only; compare names each
    # row after its optimizer; only meta-train reads an eval split, under tasks.
    cfg = command_cfg(tmp_path, command)
    out = tmp_path / "o"
    assert main([command, "--config", cfg, "--out", str(out), "--set", f"{key}=0.5"]) == 2
    assert capsys.readouterr().err == f"usage error: unknown config keys: {key}\n"
    assert not out.exists()


# ---------------------------------------------------------------------------
# meta-train

def test_meta_train_zero_steps_checkpoint_is_identity(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_META)
    out = tmp_path / "out"
    assert main(["meta-train", "--config", cfg, "--out", str(out),
                 "--set", "meta.outer_steps=0"]) == 0
    warps = load_warps(out / "warps.bin")
    rng = np.random.default_rng(0)
    for w in warps:
        g = rng.normal(size=w.dim)
        assert np.array_equal(w.apply(g), g)


def test_meta_train_same_seed_bit_identical_checkpoints(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_META)
    o1, o2 = tmp_path / "m1", tmp_path / "m2"
    assert main(["meta-train", "--config", cfg, "--out", str(o1)]) == 0
    assert main(["meta-train", "--config", cfg, "--out", str(o2)]) == 0
    assert (o1 / "warps.bin").read_bytes() == (o2 / "warps.bin").read_bytes()


def test_meta_train_writes_curve_with_eval_column(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_META)
    out = tmp_path / "out"
    assert main(["meta-train", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "meta_curve.csv").read_text().splitlines()
    assert lines[0] == "outer_step,batch_query_loss,tod_value,eval_query_loss"
    assert len(lines) == 1 + 4 + 1  # header + outer steps + final eval row
    first = lines[1].split(",")
    last = lines[-1].split(",")
    assert float(first[3]) > 0.0          # eval recorded at step 0
    assert np.isfinite(float(last[3]))    # and after the final step


def test_meta_train_node_budget_is_exit_2_naming_the_budget(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_META)
    assert main(["meta-train", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--set", "meta.node_budget=100"]) == 2
    err = capsys.readouterr().err
    assert len(err.strip().splitlines()) == 1 and "budget of 100" in err
    for key in ("meta.inner_steps", "meta.first_order", "meta.node_budget"):
        assert key in err


def test_meta_train_that_stops_with_exit_2_writes_no_output_directory(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_META)
    out = tmp_path / "o"
    # the budget stops the first outer step, after the tables and the model are built
    assert main(["meta-train", "--config", cfg, "--out", str(out),
                 "--set", "meta.node_budget=10"]) == 2
    assert "budget of 10" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("setting", ["meta.eval_every=0", "meta.eval_every=-2",
                                     "meta.eval_episodes=0", "meta.eval_episodes=-1"])
def test_meta_train_rejects_non_positive_eval_settings(tmp_path, capsys, setting):
    cfg = write_cfg(tmp_path, SMALL_META)
    out = tmp_path / "o"
    assert main(["meta-train", "--config", cfg, "--out", str(out), "--set", setting]) == 2
    assert setting.split("=")[0] in capsys.readouterr().err
    assert not out.exists()


def test_meta_train_eval_set_not_a_multiple_of_the_batch(tmp_path):
    # 5 eval episodes with a batch of 2; this 21-parameter model evaluates them
    # as one stack, a model over the stack budget as 2 + 2 + 1 (see below)
    cfg = write_cfg(tmp_path, SMALL_META)
    out = tmp_path / "o"
    assert main(["meta-train", "--config", cfg, "--out", str(out),
                 "--set", "meta.eval_episodes=5"]) == 0
    last = (out / "meta_curve.csv").read_text().splitlines()[-1].split(",")
    assert np.isfinite(float(last[3]))


@pytest.mark.parametrize("settings, n_stacks", [
    ([], 1),  # 21 parameters: the five episodes fit one stack
    (["warp.policy=diagonal", "model.hidden=900"], 3),  # 9,003: stacks of the batch, 2 + 2 + 1
])
def test_meta_train_eval_column_is_the_mean_of_unstacked_losses(tmp_path, settings, n_stacks):
    settings = settings + ["meta.eval_episodes=5"]
    out = tmp_path / "o"
    assert main(["meta-train", "--config", write_cfg(tmp_path, SMALL_META), "--out", str(out),
                 *(a for kv in settings for a in ("--set", kv))]) == 0
    cfg = apply_overrides(parse_config_text(SMALL_META), settings)
    _, (_, eval_table), model = bench.draw_run(*build_run_configs(cfg, 5, META_POOLS))
    meta = build_meta(cfg)
    eval_rng = np.random.default_rng([5, 1])  # SMALL_META's seed and episode geometry
    episodes = [sample_episode(eval_table, 3, 1, 3, eval_rng) for _ in range(5)]
    assert len(stack_within_budget(episodes, sum(p.size for p in model.params),
                                   meta.tasks_per_outer_step)) == n_stacks
    rows = [line.split(",") for line in (out / "meta_curve.csv").read_text().splitlines()[1:]]
    start = init_warps([p.shape for p in model.params], cfg.get("warp.policy", "auto"))
    for row, warps in ((rows[0], start), (rows[-1], load_warps(out / "warps.bin"))):
        losses = [adaptation_query_loss(model, warps, ep, meta) for ep in episodes]
        assert float(row[3]) == float(np.mean(losses))


@pytest.mark.parametrize("settings", [["inner.eta=1e200"],
                                      ["meta.outer_eta=1e300", "meta.outer_steps=3"]])
def test_meta_train_divergence_exits_3_keeping_the_last_finite_warps(tmp_path, capsys, settings):
    cfg = write_cfg(tmp_path, SMALL_META)
    out = tmp_path / "o"
    argv = ["meta-train", "--config", cfg, "--out", str(out)]
    for setting in settings:
        argv += ["--set", setting]
    assert main(argv) == 3
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("divergence: ")
    lines = (out / "meta_curve.csv").read_text().splitlines()
    assert lines[0] == "outer_step,batch_query_loss,tod_value,eval_query_loss"
    assert [int(line.split(",")[0]) for line in lines[1:]] == list(range(len(lines) - 1))
    assert all(np.all(np.isfinite(w.params())) for w in load_warps(out / "warps.bin"))
    assert "command=meta-train" in (out / "manifest.txt").read_text()


@pytest.mark.parametrize("exc, line", [
    (MemoryError("Unable to allocate 298. GiB for an array with shape (200000, 200000)"),
     "error: out of memory: Unable to allocate 298. GiB for an array with shape (200000, 200000)"),
    (MemoryError(), "error: out of memory: MemoryError"),
])
def test_memory_error_is_exit_2_with_one_line(tmp_path, capsys, monkeypatch, exc, line):
    # raised by a callee, so the test does not depend on the host's overcommit
    def no_memory(*args, **kwargs):
        raise exc

    monkeypatch.setattr(cli, "init_warps", no_memory)
    cfg = write_cfg(tmp_path, SMALL_META)
    assert main(["meta-train", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
    assert capsys.readouterr().err.splitlines() == [line]


def test_meta_train_adapts_only_the_held_out_set(tmp_path, monkeypatch):
    # the batch loss comes from the hypergradient, so adaptation_query_loss
    # serves only the held-out stacks: 5 episodes of a 21-parameter model fit
    # one stack, evaluated at step 0 and after the last step
    calls = []
    original = cli.adaptation_query_loss
    monkeypatch.setattr(cli, "adaptation_query_loss",
                        lambda *a, **k: calls.append(1) or original(*a, **k))
    cfg = write_cfg(tmp_path, SMALL_META)
    assert main(["meta-train", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--set", "meta.eval_episodes=5", "--set", "meta.eval_every=5"]) == 0
    assert len(calls) == 2 * 1


@pytest.mark.parametrize("first_order", ["false", "true"])
def test_meta_train_makes_no_engine_call(tmp_path, monkeypatch, first_order):
    # 20 outer steps of the README config, held-out evaluation included
    calls = []
    for owner, attr in ((T, "grad"), (warp_module, "grad"), (T, "toposort"), (MLP, "loss")):
        _counting(monkeypatch, owner, attr, calls)
    cfg = write_cfg(tmp_path, readme_config())
    assert main(["meta-train", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--set", "meta.outer_steps=20", "--set", f"meta.first_order={first_order}"]) == 0
    assert calls == []


@pytest.mark.parametrize("command, text, setting", [
    ("meta-train", SMALL_META, "meta.first_order=false"),
    ("meta-train", SMALL_META, "meta.first_order=true"),
    ("run", SMALL_RUN, "run.optimizer=warpadam"),
])
def test_cli_creates_no_tensor(tmp_path, monkeypatch, command, text, setting):
    # the autodiff engine is the oracle only: no command builds a graph node
    created = []
    init = T.Tensor.__init__
    monkeypatch.setattr(T.Tensor, "__init__",
                        lambda self, *a, **k: created.append(1) or init(self, *a, **k))
    cfg = write_cfg(tmp_path, text)
    assert main([command, "--config", cfg, "--out", str(tmp_path / "o"), "--set", setting]) == 0
    assert created == []
    T.Tensor(0.0)  # the control: the count sees a tensor
    assert created == [1]


def test_meta_train_requires_explicit_split(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_META.replace("tasks.eval_alphabets=alpha03", ""))
    out = tmp_path / "o"
    assert main(["meta-train", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "usage error: tasks.train_alphabets and tasks.eval_alphabets must each list alphabets "
        "and share none: tasks.eval_alphabets is unset\n")
    assert not out.exists()


def test_meta_train_names_the_eval_alphabets_its_source_lacks(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_META)
    out = tmp_path / "o"
    assert main(["meta-train", "--config", cfg, "--out", str(out),
                 "--set", "tasks.eval_alphabets=alpha04"]) == 2
    assert capsys.readouterr().err == ("usage error: tasks.eval_alphabets does not fit the source "
                                       "of the tasks block: unknown alphabets requested: "
                                       "['alpha04']\n")
    assert not out.exists()


def test_meta_train_rejects_overlapping_split(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL_META.replace(
        "tasks.eval_alphabets=alpha03", "tasks.eval_alphabets=alpha03,alpha00"))
    out = tmp_path / "o"
    assert main(["meta-train", "--config", cfg, "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        "usage error: tasks.train_alphabets and tasks.eval_alphabets must each list alphabets "
        "and share none: both list ['alpha00']\n")
    assert not out.exists()


def test_meta_train_reads_a_table_source_once_for_both_pools(tmp_path, monkeypatch):
    table = synth_proto_tasks(4, 4, 10, 6, 0.4, np.random.default_rng(0))
    save_table(tmp_path / "table.wtbl", table)
    loads = []
    _counting(monkeypatch, config, "load_table", loads)
    assert main(["meta-train", "--config", write_cfg(tmp_path, SMALL_META),
                 "--out", str(tmp_path / "o"), "--set", "tasks.source=table",
                 "--set", f"tasks.table={tmp_path / 'table.wtbl'}"]) == 0
    assert loads == ["load_table"]


def test_meta_trained_checkpoint_feeds_run(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_META)
    out_m = tmp_path / "meta"
    assert main(["meta-train", "--config", cfg, "--out", str(out_m)]) == 0
    out_r = tmp_path / "run"
    # same task family and model shape, so the checkpoint dimensions line up
    code = main(["run", "--config", cfg, "--out", str(out_r),
                 "--set", "run.optimizer=warpadam",
                 "--set", f"warp.checkpoint={out_m / 'warps.bin'}",
                 "--set", "run.n_tasks=1", "--set", "run.steps_per_task=4",
                 "--set", "run.eval_every=2", "--set", "hyper.eta=0.1",
                 "--set", "hyper.epsilon=0.1"])
    assert code == 0
    assert read_curve_csv(out_r / "curve.csv")


@pytest.mark.parametrize("warps, line", [
    # the README model is [8, 3] linear: W (8, 3) and b (3,)
    ([np.eye(3), np.eye(3)],
     "warp 0 (dense, dim 3) does not fit parameter tensor 0 of shape (8, 3)"),
    ([np.eye(24), np.eye(2)],
     "warp 1 (dense, dim 2) does not fit parameter tensor 1 of shape (3,)"),
    ([(np.eye(3), np.eye(8)), np.eye(3)],
     "warp 0 (kron, dim 24, factors of 3 and 8 rows) does not fit parameter tensor 0 "
     "of shape (8, 3)"),
    ([np.eye(24), np.eye(3), np.eye(3)], "3 warps for 2 parameter tensors"),
])
def test_run_rejects_a_checkpoint_whose_warps_do_not_fit_the_model(tmp_path, capsys, warps, line):
    checkpoint = tmp_path / "warps.bin"
    save_warps(checkpoint, [WarpMatrix.kronecker(*w) if isinstance(w, tuple)
                            else WarpMatrix.dense(w) for w in warps])
    out = tmp_path / "o"
    assert main(["run", "--config", write_cfg(tmp_path, readme_config()), "--out", str(out),
                 "--set", "run.optimizer=warpadam", "--set", f"warp.checkpoint={checkpoint}",
                 "--set", "run.n_tasks=1", "--set", "run.steps_per_task=2"]) == 2
    assert capsys.readouterr().err.splitlines() == [
        f"error: warp.checkpoint {checkpoint} does not fit the model of the tasks block: {line}"]
    assert not out.exists()


def _spoil_checkpoint(data: bytearray, how: str) -> bytes:
    """A valid checkpoint of dense warps, spoiled one way."""
    first_entries = 12 + 25
    cuts = {"empty": 0, "cut_in_file_header": 10}
    if how in cuts:
        return bytes(data[:cuts[how]])
    if how == "cut_in_header":
        second_header = first_entries + 8 * struct.unpack_from("<Q", data, 13)[0] ** 2
        return bytes(data[:second_header + 10])
    if how == "bad_magic":
        data[3] ^= 1
    if how == "version_2":
        struct.pack_into("<I", data, 4, 2)
    if how == "trailing_bytes":
        return bytes(data) + b"\x00\x00\x00"
    if how == "nan_entry":
        struct.pack_into("<d", data, first_entries, float("nan"))
    if how == "dim_past_end":
        struct.pack_into("<Q", data, 13, 2 ** 40)
    return bytes(data)


SPOILED_CHECKPOINT_LINES = {
    "empty": "bad magic (not a warp checkpoint)",
    "bad_magic": "bad magic (not a warp checkpoint)",
    "version_2": "unsupported version 2",
    "cut_in_file_header": "file header cut short",
    "cut_in_header": "warp 1: header cut short",
    "trailing_bytes": "3 trailing bytes after 4 warps",
    "nan_entry": "warp 0: 4096 entries are not all finite",
    "dim_past_end": f"warp 0: {2 ** 80} entries cut short",
}


@pytest.mark.parametrize("how", SPOILED_CHECKPOINT_LINES)
def test_run_rejects_a_malformed_checkpoint_naming_it(tmp_path, capsys, how):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    good = tmp_path / "good.bin"
    save_warps(good, init_warps([(8, 8), (8,), (8, 3), (3,)]))  # SMALL_RUN's model
    bad = tmp_path / f"{how}.bin"
    bad.write_bytes(_spoil_checkpoint(bytearray(good.read_bytes()), how))
    code = main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--set", "run.optimizer=warpadam", "--set", f"warp.checkpoint={bad}"])
    assert code == 2
    line = SPOILED_CHECKPOINT_LINES[how]
    assert capsys.readouterr().err == f"error: {line} in warp checkpoint {bad}\n"
    assert main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                 "--set", "run.optimizer=warpadam", "--set", f"warp.checkpoint={good}"]) == 0


def _spoil_table(data: bytearray, how: str) -> bytes:
    """A valid table cache (alphabet names of 7 bytes, class names of 6), spoiled one way;
    the offsets do not depend on the dim."""
    how = how.removesuffix("_dim8")
    first_entries = 24 + 2 + 7 + 4 + 2 + 6 + 4
    cuts = {"empty": 0, "cut_in_header": 8, "cut_in_a_name": 28, "cut_in_a_count": 35,
            "entries_past_end": first_entries + 8}
    if how in cuts:
        return bytes(data[:cuts[how]])
    if how == "bad_magic":
        data[3] ^= 1
    if how == "version_2":
        struct.pack_into("<I", data, 4, 2)
    if how == "trailing_bytes":
        return bytes(data) + b"\x00"
    if how == "zero_dim":
        struct.pack_into("<Q", data, 8, 0)
    if how == "name_not_utf8":
        data[26] = 0xFF
    if how == "nan_entry":
        struct.pack_into("<d", data, first_entries, float("nan"))
    return bytes(data)


SPOILED_TABLE_LINES = {
    "empty": "bad magic (not a class-table cache)",
    "bad_magic": "bad magic (not a class-table cache)",
    "version_2": "unsupported version 2",
    "cut_in_header": "file header cut short",
    "zero_dim": "instance dim 0 is not positive or larger than the file",
    "cut_in_a_name": "alphabet 0: name cut short",
    "cut_in_a_count": "alphabet 0: class count cut short",
    "name_not_utf8": "alphabet 0: name is not UTF-8",
    "entries_past_end": "alphabet 0 class 0: 36 entries cut short",
    "trailing_bytes": "1 trailing bytes after 2 alphabets",
    "nan_entry": "alphabet 0 class 0: 36 entries are not all finite",
    # a dim-8 cache cut before 64 bytes is reported where it is cut, not as a bad dim
    "cut_in_a_name_dim8": "alphabet 0: name cut short",
    "cut_in_a_count_dim8": "alphabet 0: class count cut short",
    "entries_past_end_dim8": "alphabet 0 class 0: 96 entries cut short",
}


@pytest.mark.parametrize("how", SPOILED_TABLE_LINES)
def test_run_rejects_a_malformed_table_naming_it(tmp_path, capsys, how):
    cfg = write_cfg(tmp_path, SMALL_RUN)
    good = tmp_path / "good.wtbl"
    dim = 8 if how.endswith("_dim8") else 3
    save_table(good, synth_proto_tasks(2, 3, 12, dim, 0.1, np.random.default_rng(4)))
    bad = tmp_path / f"{how}.wtbl"
    bad.write_bytes(_spoil_table(bytearray(good.read_bytes()), how))

    def run(table):
        return main(["run", "--config", cfg, "--out", str(tmp_path / "o"),
                     "--set", "tasks.source=table", "--set", f"tasks.table={table}"])

    assert run(bad) == 2
    line = SPOILED_TABLE_LINES[how]
    assert capsys.readouterr().err == f"error: {line} in class-table cache {bad}\n"
    assert run(good) == 0


# ---------------------------------------------------------------------------
# compare

# SMALL_RUN, shortened, with a second task block
SMALL_COMPARE = SMALL_RUN.replace("run.n_tasks=2\nrun.steps_per_task=10\nrun.eval_every=5\n", """\
run.n_tasks=1
run.steps_per_task=6
run.eval_every=3
""") + """
compare.optimizers=sgd,momentum,radam,adamw,warpadam
tasks2.synth.alphabets=2
tasks2.synth.classes=4
tasks2.synth.instances=10
tasks2.synth.dim=6
tasks2.synth.noise=0.05
tasks2.n_way=3
tasks2.k_shot=1
tasks2.query_per_class=2
"""


def test_compare_two_blocks_and_columns(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_COMPARE)
    out = tmp_path / "out"
    assert main(["compare", "--config", cfg, "--out", str(out)]) == 0
    text = (out / "compare.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "algorithm,training_time_s,convergence_epochs,validation_accuracy_pct"
    data = [ln for ln in lines if ln and not ln.startswith("#")]
    assert len(data) == 1 + 10  # header + 5 optimizers x 2 blocks
    names = [ln.split(",")[0] for ln in data[1:]]
    assert names == ["sgd", "momentum", "radam", "adamw", "warpadam"] * 2
    assert len(text.split("\n\n")) == 2


def test_compare_fits_the_checkpoint_to_every_block_before_running_one(tmp_path, capsys,
                                                                        monkeypatch):
    # dense warps of the README block's [8, 4, 3] model; tasks2 has the default dim 16
    checkpoint = tmp_path / "warps.bin"
    save_warps(checkpoint, init_warps([(8, 4), (4,), (4, 3), (3,)], "dense"))
    ran = []
    monkeypatch.setattr(cli, "compare_optimizers", lambda cfg, optimizers: ran.append(cfg) or [])
    out = tmp_path / "o"
    assert main(["compare", "--config", write_cfg(tmp_path, readme_config()), "--out", str(out),
                 "--set", "model.hidden=4", "--set", "compare.optimizers=sgd,adam,warpadam",
                 "--set", f"warp.checkpoint={checkpoint}",
                 "--set", "tasks2.synth.alphabets=3"]) == 2
    assert capsys.readouterr().err == (
        f"error: warp.checkpoint {checkpoint} does not fit the model of the tasks2 block: "
        "warp 0 (dense, dim 32) does not fit parameter tensor 0 of shape (16, 4)\n")
    assert ran == [] and not out.exists()


def test_compare_reads_the_checkpoint_once_for_both_blocks(tmp_path, monkeypatch):
    # both blocks' models are [8, 8, 3], which the checkpoint fits
    checkpoint = tmp_path / "warps.bin"
    save_warps(checkpoint, init_warps([(8, 8), (8,), (8, 3), (3,)]))
    loads, blocks = [], []
    _counting(monkeypatch, config, "load_warps", loads)
    monkeypatch.setattr(cli, "compare_optimizers", lambda cfg, optimizers: blocks.append(cfg) or [])
    assert main(["compare", "--config", command_cfg(tmp_path, "compare"),
                 "--out", str(tmp_path / "o"), "--set", "tasks2.synth.dim=8",
                 "--set", f"warp.checkpoint={checkpoint}"]) == 0
    assert loads == ["load_warps"]
    assert len(blocks) == 2 and blocks[0].warps is blocks[1].warps


def test_building_run_configs_constructs_no_model(tmp_path, monkeypatch):
    checkpoint = tmp_path / "warps.bin"
    save_warps(checkpoint, init_warps([(8, 8), (8,), (8, 3), (3,)]))
    monkeypatch.setattr(MLP, "__init__", lambda *args: pytest.fail("a model was built"))
    cfg = {**load_config_file(command_cfg(tmp_path, "compare")), "tasks2.synth.dim": "8"}
    for warp_keys in ({}, {"warp.checkpoint": str(checkpoint)}):
        runs = build_run_configs({**cfg, **warp_keys}, 5,
                                 ("tasks.train_alphabets", "tasks2.train_alphabets"), ("warpadam",))
        assert [run.episode.n_way for run in runs] == [3, 3]


@pytest.mark.parametrize("settings, line", [
    (["tasks2.synth.noise=-1"], "usage error: tasks2.synth.noise must be non-negative, got -1.0"),
    (["warp.checkpoint=CKPT"],
     "error: warp.checkpoint CKPT does not fit the model of the tasks2 block: "
     "warp 0 (dense, dim 64) does not fit parameter tensor 0 of shape (6, 8)"),
    (["warp.policy=kron"],
     "error: warp.policy kron does not fit the model of the tasks block: "
     "kron policy needs matrix-shaped tensors, got shape (8,)"),
    (["tasks2.n_way=5"],
     "usage error: tasks2.n_way, tasks2.k_shot and tasks2.query_per_class do not fit the source "
     "of the tasks2 block: no alphabet offers 5 classes with >= 3 instances each "
     "(k_shot=1 + query_per_class=2)"),
    (["tasks2.train_alphabets=alpha07"],
     "usage error: tasks2.train_alphabets does not fit the source of the tasks2 block: "
     "unknown alphabets requested: ['alpha07']"),
    (["tasks2.table=/nonexistent.wtbl"],
     "usage error: tasks2.table is read only with tasks2.source=table, got tasks2.source=synth"),
], ids=["tasks2-range", "tasks2-checkpoint", "kron-policy", "tasks2-geometry",
        "tasks2-alphabets", "tasks2-table"])
def test_compare_checks_every_block_before_running_any_optimizer(tmp_path, capsys, monkeypatch,
                                                                 settings, line):
    # the tasks block's model is [8, 8, 3], which the checkpoint fits; tasks2's is [6, 8, 3]
    checkpoint = tmp_path / "warps.bin"
    save_warps(checkpoint, init_warps([(8, 8), (8,), (8, 3), (3,)]))
    runs = []
    monkeypatch.setattr(bench, "run_sequential_tasks", lambda cfg, opt: runs.append(opt))
    out = tmp_path / "o"
    sets = [a for kv in settings for a in ("--set", kv.replace("CKPT", str(checkpoint)))]
    assert main(["compare", "--config", command_cfg(tmp_path, "compare"), "--out", str(out),
                 *sets]) == 2
    assert capsys.readouterr().err == line.replace("CKPT", str(checkpoint)) + "\n"
    assert runs == [] and not out.exists()


def test_compare_on_imported_table(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    make_tree(tree, alphabets=2, chars=4, insts=8, side=4)
    out_t = tmp_path / "tbl"
    assert main(["import", "--root", str(tree), "--side", "4", "--out", str(out_t)]) == 0
    out = tmp_path / "cmp"
    code = main(["compare", "--out", str(out), "--seed", "1",
                 "--set", "compare.optimizers=adam,warpadam", "--set", "run.n_tasks=1",
                 "--set", "run.steps_per_task=4", "--set", "run.eval_every=2",
                 "--set", "tasks.source=table",
                 "--set", f"tasks.table={out_t / 'table.wtbl'}",
                 "--set", "tasks.n_way=3", "--set", "tasks.k_shot=2",
                 "--set", "tasks.query_per_class=2", "--set", "model.hidden=4"])
    assert code == 0
    data = [ln for ln in (out / "compare.csv").read_text().splitlines()
            if ln and not ln.startswith("#")]
    assert [ln.split(",")[0] for ln in data[1:]] == ["adam", "warpadam"]


def _save_sheared_warps(path, shapes):
    """Dense warps off the identity, one per parameter shape."""
    rng = np.random.default_rng(21)
    save_warps(path, [WarpMatrix.dense(np.eye(n) + 0.05 * rng.normal(size=(n, n)))
                      for n in (int(np.prod(shape)) for shape in shapes)])


_COMPARED = ("sgd", "adam", "warpadam")


@pytest.mark.parametrize("source", ["synth", "table"])
def test_each_compare_row_is_the_run_of_its_optimizer(tmp_path, monkeypatch, source):
    # compare runs one config under each optimizer, warpadam's from a
    # checkpoint: each row's curve has the bits `run` writes for it
    settings = ["run.n_tasks=2", "run.steps_per_task=6", "run.eval_every=3", "hyper.eta=0.05",
                "model.hidden=4", "tasks.n_way=3", "tasks.k_shot=2", "tasks.query_per_class=2"]
    if source == "synth":
        settings += [ln for ln in SMALL_RUN.split() if ln.startswith("tasks.synth.")]
        dim = 8
    else:
        tree = tmp_path / "tree"
        tree.mkdir()
        make_tree(tree, alphabets=3, chars=4, insts=8, side=4)
        assert main(["import", "--root", str(tree), "--side", "4", "--out", str(tmp_path)]) == 0
        settings += ["tasks.source=table", f"tasks.table={tmp_path / 'table.wtbl'}",
                     "tasks.train_alphabets=alpha2,alpha0"]
        dim = 16
    cfg = write_cfg(tmp_path, "\n".join(settings))
    checkpoint = tmp_path / "warps.bin"
    _save_sheared_warps(checkpoint, [(dim, 4), (4,), (4, 3), (3,)])

    results = {}
    run = bench.run_sequential_tasks
    monkeypatch.setattr(bench, "run_sequential_tasks", lambda run_cfg, optimizer:
                        results.setdefault(optimizer, run(run_cfg, optimizer)))
    out = tmp_path / "cmp"
    assert main(["compare", "--config", cfg, "--out", str(out), "--seed", "4",
                 "--set", f"compare.optimizers={','.join(_COMPARED)}",
                 "--set", f"warp.checkpoint={checkpoint}"]) == 0
    rows = [ln.split(",") for ln in (out / "compare.csv").read_text().splitlines()
            if ln and not ln.startswith("#")][1:]
    assert [row[0] for row in rows] == list(_COMPARED)

    strip = lambda rs: [(r.task_index, r.step, r.train_loss, r.train_acc, r.val_loss, r.val_acc)
                        for r in rs]
    for (_, _, epochs, pct), optimizer in zip(rows, _COMPARED):
        sets = ["run.optimizer=" + optimizer]
        sets += [f"warp.checkpoint={checkpoint}"] if optimizer == "warpadam" else []
        run_out = tmp_path / optimizer
        assert main(["run", "--config", cfg, "--out", str(run_out), "--seed", "4",
                     *(a for kv in sets for a in ("--set", kv))]) == 0
        records = read_curve_csv(run_out / "curve.csv")
        assert strip(records) == strip(results[optimizer].records), optimizer
        assert (int(epochs), pct) == (convergence_epoch(records),
                                      f"{records[-1].val_acc * 100.0:.17g}")
    assert strip(results["warpadam"].records) != strip(results["adam"].records)


def test_compare_single_optimizer_is_usage_error(tmp_path):
    cfg = write_cfg(tmp_path, SMALL_RUN + "compare.optimizers=adam\n")
    assert main(["compare", "--config", cfg, "--out", str(tmp_path / "o")]) == 2


# ---------------------------------------------------------------------------
# check and import

def test_check_command_passes_fresh():
    assert main(["check"]) == 0


def test_check_command_negative_control():
    assert main(["check", "--perturb", "1e-3"]) == 1


def test_check_covers_the_fast_mlp_gradient(capsys):
    # and the array hypergradient's parts: the Hessian product and the adjoint
    names = ("grad.mlp_loss_grads", "grad.mlp_loss_hvp", "warp.hypergradient_adjoint_vs_fd",
             "warp.hypergradient_adjoint_vs_engine")
    assert main(["check"]) == 0
    out = capsys.readouterr().out
    assert all(f"PASS {name}:" in out for name in names)
    assert "all 16 checks passed" in out
    assert main(["check", "--perturb", "1e-3"]) == 1
    out = capsys.readouterr().out
    assert all(f"FAIL {name}:" in out for name in names)


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]))
    done = subprocess.run([sys.executable, "-m", "warpadam", "--version"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0
    assert done.stdout.strip() == f"warpadam {warpadam.__version__}"


def test_import_takes_no_seed(tmp_path, capsys):
    # import draws nothing, so a seed would be recorded nowhere and change nothing
    tree = tmp_path / "tree"
    tree.mkdir()
    make_tree(tree, alphabets=1, chars=1, insts=1, side=4)
    out = tmp_path / "o"
    assert main(["import", "--root", str(tree), "--side", "4", "--seed", "5",
                 "--out", str(out)]) == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err
    assert not out.exists()


def test_import_command(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    make_tree(tree, alphabets=3, chars=2, insts=4, side=5)
    out = tmp_path / "out"
    assert main(["import", "--root", str(tree), "--side", "4", "--out", str(out)]) == 0
    table = load_table(out / "table.wtbl")
    assert len(table.alphabets) == 3
    assert table.dim == 16
    manifest = (out / "manifest.txt").read_text()
    assert "imported.alphabets=3" in manifest


def test_import_requires_root(tmp_path):
    assert main(["import", "--out", str(tmp_path / "o")]) == 2


@pytest.mark.parametrize("args, key", [(["--side", "0"], "--side"),
                                       (["--set", "import.side=-2"], "import.side")])
def test_import_side_below_one_is_usage_error_naming_it(tmp_path, capsys, args, key):
    tree = tmp_path / "tree"
    tree.mkdir()
    make_tree(tree, alphabets=1, chars=1, insts=1, side=5)
    out = tmp_path / "o"
    assert main(["import", "--root", str(tree), "--out", str(out), *args]) == 2
    value = args[1].split("=")[-1]
    assert capsys.readouterr().err == f"usage error: {key} must be positive, got {value}\n"
    assert not out.exists()


@pytest.mark.parametrize("dirs", [[], ["alpha0/char0", "alpha0/char1", "alpha1"]])
def test_import_of_a_tree_without_images_is_exit_2_naming_the_root(tmp_path, capsys, dirs):
    root = tmp_path / "tree"
    root.mkdir()
    for d in dirs:
        (root / d).mkdir(parents=True)
    (root / "notes.txt").write_text("no images here\n")
    out = tmp_path / "o"
    assert main(["import", "--root", str(root), "--out", str(out)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: ") and str(root) in err[0]
    assert not (out / "table.wtbl").exists()


@pytest.mark.parametrize("command, text", [("run", SMALL_RUN), ("meta-train", SMALL_META)])
def test_synth_noise_that_overflows_is_exit_2_naming_it(tmp_path, capsys, command, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a numpy RuntimeWarning would reach stderr
        code = main([command, "--config", write_cfg(tmp_path, text), "--out", str(tmp_path / "o"),
                     "--set", "tasks.synth.noise=1e308"])
    assert code == 2
    assert capsys.readouterr().err.splitlines() == [
        "error: noise_sigma=1e+308 makes non-finite instances"]


def test_imported_table_feeds_run(tmp_path):
    tree = tmp_path / "tree"
    tree.mkdir()
    make_tree(tree, alphabets=2, chars=4, insts=8, side=4)
    out_t = tmp_path / "tbl"
    assert main(["import", "--root", str(tree), "--side", "4", "--out", str(out_t)]) == 0
    out_r = tmp_path / "run"
    code = main(["run", "--out", str(out_r), "--seed", "1",
                 "--set", "run.optimizer=adam", "--set", "run.n_tasks=1",
                 "--set", "run.steps_per_task=4", "--set", "run.eval_every=2",
                 "--set", "tasks.source=table",
                 "--set", f"tasks.table={out_t / 'table.wtbl'}",
                 "--set", "tasks.n_way=3", "--set", "tasks.k_shot=2",
                 "--set", "tasks.query_per_class=2", "--set", "model.hidden=4"])
    assert code == 0
    assert read_curve_csv(out_r / "curve.csv")
