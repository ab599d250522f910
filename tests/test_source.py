"""Checks on the source text of the package."""

import ast
import inspect
import json
import os
import pathlib
import re
import subprocess
import sys

import warpadam
from warpadam import optim, warp

from test_tasks import make_tree

# imported only so that perfbench's tracer can patch them (ROADMAP item 1)
KEPT_FOR_THE_TRACER = {
    "bench.grad",
    "bench.warpadam_step",
    "cli.adaptation_query_loss",
    "cli.load_table",
    "cli.meta_update_P",
    "cli.synth_proto_tasks",
    "warp.warpadam_step",
}


def _unused_imports(tree: ast.Module) -> set[str]:
    """The names a module imports and never reads; ``__all__`` counts as reading."""
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            used |= set(ast.literal_eval(node.value))
    return imported - used


def test_no_module_imports_a_name_it_never_uses():
    package = pathlib.Path(warpadam.__file__).parent
    unused = {f"{path.stem}.{name}" for path in sorted(package.glob("*.py"))
              for name in _unused_imports(ast.parse(path.read_text(), str(path)))}
    assert sorted(unused - KEPT_FOR_THE_TRACER) == []
    assert sorted(KEPT_FOR_THE_TRACER - unused) == []  # a kept name that is read needs no entry


def _is_number(node: ast.expr) -> bool:
    if isinstance(node, ast.UnaryOp):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def test_config_reads_every_default_from_its_dataclass():
    # a setting's default is written once: in RunConfig, MetaConfig and the like, or as a
    # named constant beside the table of keys
    for name in ("config.py", "cli.py"):
        path = pathlib.Path(warpadam.__file__).parent / name
        literals = [
            node.lineno for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", None) in ("getint", "getfloat")
            and any(_is_number(arg) for arg in node.args[2:]
                    + [k.value for k in node.keywords if k.arg == "default"])
        ]
        assert literals == [], f"{name} passes a number literal as a default on lines {literals}"


def test_only_config_names_the_warp_keys():
    # which run reads warp.checkpoint or warp.policy is one rule, in config.py
    package = pathlib.Path(warpadam.__file__).parent
    naming = [f"{path.name}:{lineno}" for path in sorted(package.glob("*.py"))
              if path.name != "config.py"
              for lineno, line in enumerate(path.read_text().splitlines(), start=1)
              if re.search(r"\bwarp\.(checkpoint|policy)\b", line)]
    assert naming == []


def test_only_warp_calls_meta_update_P():
    # the outer loop of meta-learning is written once, as warp.meta_train
    package = pathlib.Path(warpadam.__file__).parent
    calling = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.Call) and "meta_update_P" in (
                   getattr(node.func, "id", None), getattr(node.func, "attr", None))]
    assert len(calling) == 1 and calling[0].startswith("warp.py:")


def test_only_config_names_the_manifest_file():
    # the manifest is read and written under one line rule, in config.py
    package = pathlib.Path(warpadam.__file__).parent
    naming = [f"{path.name}:{node.lineno}" for path in sorted(package.glob("*.py"))
              for node in ast.walk(ast.parse(path.read_text()))
              if isinstance(node, ast.Constant) and node.value == "manifest.txt"]
    assert len(naming) == 1 and naming[0].startswith("config.py:")


def test_only_cli_sets_the_allocator():
    # mallopt changes the whole process; only the command, which owns its process, calls it
    package = pathlib.Path(warpadam.__file__).parent
    naming = set()
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            modules = ([a.name for a in node.names] if isinstance(node, ast.Import)
                       else [node.module or ""] if isinstance(node, ast.ImportFrom) else [])
            if any(module.split(".")[0] == "ctypes" for module in modules):
                naming.add((path.name, "ctypes"))
            if "mallopt" in (getattr(node, "id", None), getattr(node, "attr", None)):
                naming.add((path.name, "mallopt"))
    assert naming == {("cli.py", "ctypes"), ("cli.py", "mallopt")}


def test_optimizer_steps_own_their_temporaries():
    # a core takes no work arrays from its caller
    for kind, core in optim.STEP_CORES.items():
        assert list(inspect.signature(core).parameters) == ["state", "w", "g", "h"], kind
    assert not hasattr(optim, "step_buffers")
    for fn in (optim.bias_correct, optim.adam_moments, optim._descend):
        assert "out" not in inspect.signature(fn).parameters, fn.__name__


def test_warpadam_is_adams_core_on_the_warped_gradient():
    # each loop that owns a warp applies it and calls adam_core: there is no second core,
    # and the pure steps run a core on exactly the step's four arguments
    assert not hasattr(optim, "warpadam_core")
    assert list(inspect.signature(optim._pure).parameters) == ["core", "state", "w", "g", "h"]
    assert sorted(optim.STEP_CORES) == ["adam", "adamw", "amsgrad", "momentum", "radam", "sgd"]


def test_the_flat_buffer_has_no_wrapper():
    # the loops that step one flat buffer, and the warp readers, call _flat and _views
    assert not hasattr(warp, "FlatParams")
    assert not hasattr(warp, "_split")


def test_init_warps_inlines_the_policy_forms():
    # every policy fits every model, so no separate function picks and checks the forms
    assert not hasattr(warp, "policy_forms")


def _run_with_the_benchmark(code: str) -> str:
    """Runs ``code`` in a fresh interpreter with ``src`` and ``perfbench`` on the path;
    returns its standard output."""
    root = pathlib.Path(__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(root / "src"), str(root / "perfbench")]))
    done = subprocess.run([sys.executable, "-c", code], cwd=root, env=env, capture_output=True,
                          text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_the_benchmark_tracer_installs():
    # perfbench/child.py's tracer patches functions by name in several modules; a name it
    # patches that is gone makes every --trace 1 run fail
    _run_with_the_benchmark("import child; child.install_tracing(child.Tracer())")


def test_the_benchmark_k_sweep_runs():
    # perfbench/child.py's k_sweep calls config.build_synth, getint and build_meta,
    # tasks.synth_proto_tasks and sample_episode, warp.init_warps and hypergrad_P by name and
    # position; a change to any of them makes every --trace 1 run fail
    _run_with_the_benchmark("import child; child.SWEEP_KS = (1, 2); child.k_sweep(1)")


# the spans that perfbench/child.py's tracer records on the CLI paths today: the per-layer
# metrics of any other wrapped function read 0
LIVE_SPANS = [
    "bench.emit_csv", "bench.run_sequential_tasks", "optim.adam_step", "tasks.import_image_classes",
    "tasks.load_table", "tasks.sample_episode", "tasks.synth_proto_tasks",
    "warp.adaptation_query_loss", "warp.meta_update_P", "warp.save_warps",
]


def test_the_benchmark_tracer_sees_the_live_functions(tmp_path):
    # the tracer patches each function by module and name, so a call moved to another module
    # reads 0 without any error; a tiny import, meta-train, and run on the table under adam and
    # warpadam must record exactly LIVE_SPANS
    make_tree(tmp_path / "pgm", alphabets=2, chars=3, insts=4)
    meta = ["model.hidden=0", "meta.inner_steps=2", "meta.outer_steps=1",
            "meta.tasks_per_outer_step=2", "meta.eval_episodes=2", "tasks.synth.alphabets=4",
            "tasks.synth.classes=3", "tasks.synth.instances=4", "tasks.synth.dim=4",
            "tasks.n_way=2", "tasks.k_shot=1", "tasks.query_per_class=2",
            "tasks.train_alphabets=alpha00,alpha01", "tasks.eval_alphabets=alpha02,alpha03"]
    run = ["model.hidden=0", "run.n_tasks=1", "run.steps_per_task=2", "run.eval_every=1",
           "tasks.source=table", f"tasks.table={tmp_path / 'table' / 'table.wtbl'}",
           "tasks.n_way=2", "tasks.k_shot=1", "tasks.query_per_class=2"]
    calls = [["import", "--root", tmp_path / "pgm", "--side", 4, "--out", tmp_path / "table"],
             ["meta-train", *(a for s in meta for a in ("--set", s)), "--out", tmp_path / "meta"]]
    calls += [["run", *(a for s in run + [f"run.optimizer={o}"] for a in ("--set", s)),
               "--out", tmp_path / o] for o in ("adam", "warpadam")]
    calls = [[str(a) for a in argv] for argv in calls]
    out = _run_with_the_benchmark(f"""
import child, json
from warpadam.cli import main
tracer = child.Tracer()
child.install_tracing(tracer)
assert [main(argv) for argv in {calls!r}] == [0] * {len(calls)}
print(json.dumps(sorted({{span[0] for span in tracer.spans}})))
""")
    assert json.loads(out.splitlines()[-1]) == LIVE_SPANS
