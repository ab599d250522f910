"""One benchmark child process: set-up, then the measured or the traced job.

run.py starts it from the root of the checkout, in a fresh interpreter with
one BLAS thread and ``src`` on the import path:

    python3 perfbench/child.py --role ROLE --workload NAME --seed N --work DIR
                               [--seconds S] [--sweep]

Roles:
  setup    import warpadam and prepare the inputs, nothing more
  measure  set-up; CLI units until --seconds have passed (at least
           ``units_min``); the quality runs; `warpadam check`; a manifest
           replay; with --sweep, the hypergradient K-sweep
  traced   set-up and exactly ``units_min`` units, with a span around every
           call into a wrapped public function; spans go to DIR/spans.json

A unit is one `meta-train` call, or on table-run one `run` per optimizer. The
result goes to DIR/<role>-<pid>.json. ``setup_done`` is read from the
system-wide monotonic clock, so run.py can subtract its own spawn time. The
calibration kernel runs after set-up and between units; its times go with
the result, so run.py can express timings at a reference host speed.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import hashlib
import json
import math
import os
import resource
import statistics
import struct
import sys
import time

from workloads import (PGM_ALPHABETS, PGM_SIDE, README_CONFIG, TABLE_OPTIMIZERS, WORKLOADS,
                       setting, unit_seed)

SWEEP_KS = (1, 2, 4, 8, 16, 32)
CURVE_HEADER = "task_index,step,train_loss,train_acc,val_loss,val_acc,wall_ms"
META_HEADER = "outer_step,batch_query_loss,tod_value,eval_query_loss"


class Tracer:
    """Spans ``[name, start_ns, end_ns, parent index, nodes]``, kept in memory.

    ``nodes`` is the length of the result for functions wrapped with
    ``counts_nodes`` (``tensor.toposort``) and 0 otherwise.
    """

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._wrappers: dict = {}

    def wrap(self, name, fn, counts_nodes=False):
        key = (name, fn)
        if key in self._wrappers:  # one wrapper per function, however many names point at it
            return self._wrappers[key]
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, clock(), 0, stack[-1] if stack else -1, 0]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if counts_nodes:
                span[4] = len(result)
            return result

        self._wrappers[key] = wrapper
        return wrapper

    def patch(self, owner, attr, name, counts_nodes=False):
        setattr(owner, attr, self.wrap(name, getattr(owner, attr), counts_nodes))

    def names(self) -> list[str]:
        return sorted({name for name, _ in self._wrappers})


def install_tracing(tracer: Tracer) -> None:
    """Wrap the public functions on the hot paths, under every name callers look up.

    The modules import functions by name, so each function is replaced in
    every module that calls it, not only in the module that defines it.
    """
    from warpadam import bench, cli, config, nn, optim, tasks, tensor, warp

    tracer.patch(tensor, "toposort", "tensor.toposort", counts_nodes=True)
    tracer.patch(nn.MLP, "loss", "nn.MLP.loss")
    for kind, fn in list(optim.STEP_FUNCS.items()):
        optim.STEP_FUNCS[kind] = tracer.wrap(f"optim.{fn.__name__}", fn)
    for module, attr, owners in (
        ("tensor", "grad", (tensor, warp, bench)),
        ("optim", "warpadam_step", (optim, warp, bench)),
        ("optim", "adam_step", (optim, warp)),  # warp: the outer update of meta_update_P
        ("warp", "hypergrad_P", (warp,)),
        ("warp", "meta_update_P", (warp, cli)),
        ("warp", "adaptation_query_loss", (warp, cli)),
        ("warp", "save_warps", (warp, cli)),
        ("tasks", "sample_episode", (tasks, cli, bench)),
        ("tasks", "synth_proto_tasks", (tasks, cli, bench)),
        ("tasks", "import_image_classes", (tasks, cli)),
        ("tasks", "load_table", (tasks, cli, config)),
        ("bench", "run_sequential_tasks", (bench, cli)),
        ("bench", "emit_csv", (bench, cli)),
    ):
        for owner in owners:
            tracer.patch(owner, attr, f"{module}.{attr}")


class Job:
    def __init__(self, args, tracer: Tracer | None):
        self.wl = WORKLOADS[args.workload]
        self.seed = args.seed
        self.work = args.work
        self.tracer = tracer
        self.sets = list(self.wl.overrides)
        self.attempted = 0
        self.failed = 0

    def record(self, what: str, problem: str | None) -> None:
        """Count one operation. A CLI call fails on a nonzero exit (3 is a
        divergence) or when one of its output checks fails."""
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            print(f"FAILED {what}: {problem}", file=sys.stderr, flush=True)

    def cli(self, argv) -> tuple[int, float]:
        """One `warpadam` command, in this process; returns (exit code, seconds)."""
        from warpadam.cli import main
        if self.tracer is not None:
            main = self.tracer.wrap(f"cli.{argv[0]}", main)
        start = time.perf_counter()
        code = main([str(a) for a in argv])
        return code, time.perf_counter() - start

    def argv(self, extra_sets, seed, out, command=None) -> list:
        sets = [a for s in self.sets + list(extra_sets) for a in ("--set", s)]
        return [command or self.wl.command, "--config", README_CONFIG, *sets,
                "--seed", seed, "--out", out]

    # -- set-up -------------------------------------------------------------

    def set_up(self, tag: str) -> None:
        """Import warpadam and prepare the inputs (on table-run: `warpadam import`)."""
        import warpadam
        src = os.path.abspath("src")
        if os.path.dirname(os.path.dirname(os.path.abspath(warpadam.__file__))) != src:
            raise SystemExit(f"warpadam imported from {warpadam.__file__}, not from {src}")
        from warpadam import config, tasks
        if self.tracer is not None:
            install_tracing(self.tracer)
        if self.wl.name == "table-run":
            out = os.path.join(self.work, f"table-{tag}")
            code, _ = self.cli(["import", "--root", os.path.join(self.work, "pgm"),
                                "--side", PGM_SIDE, "--out", out])
            path = os.path.join(out, "table.wtbl")
            table = tasks.load_table(path) if code == 0 else None
            if table is None or len(table.alphabets) != PGM_ALPHABETS or table.dim != PGM_SIDE ** 2:
                raise SystemExit(f"`warpadam import` of the generated PGM tree failed (exit {code})")
            self.sets.append(f"tasks.table={path}")
        cfg = config.apply_overrides(config.load_config_file(README_CONFIG), self.sets)
        config.validate_keys(cfg)

    # -- units and their output checks ----------------------------------------

    def unit(self, i: int) -> dict:
        """One unit; ``outputs`` holds what the checks of its good calls returned."""
        out = os.path.join(self.work, f"u{i:03d}")
        seed = unit_seed(self.seed, i)
        if self.wl.command == "meta-train":
            calls = [([], out, self._check_meta)]
        else:
            calls = [([f"run.optimizer={o}"], os.path.join(out, o),
                      lambda path: self._check_curve(path, self.wl.overrides))
                     for o in TABLE_OPTIMIZERS]
        wall, work, outputs = 0.0, 0, []
        for extra, call_out, check in calls:
            code, secs = self.cli(self.argv(extra, seed, call_out))
            wall += secs
            found = self.checked(code, call_out, check)
            if found is not None:
                work += self.wl.work_per_call
                outputs.append(found)
        return {"wall": wall, "work": work, "outputs": outputs}

    def checked(self, code: int, out: str, check) -> dict | None:
        """Record one CLI call as an operation. ``check(out)`` returns a dict
        for good files or a string naming the problem; the dict is returned."""
        if code != 0:
            found = f"exit code {code}"
        else:
            try:
                found = check(out)
            except (OSError, ValueError, struct.error) as exc:
                found = f"unreadable output: {exc}"
        problem = found if isinstance(found, str) else None
        self.record(out, problem)
        return None if problem else found

    def _check_meta(self, out: str):
        from warpadam.warp import load_warps
        lines = _read_lines(os.path.join(out, "meta_curve.csv"))
        steps = setting(self.wl.overrides, "meta.outer_steps")
        if lines[0] != META_HEADER or len(lines) != steps + 2:
            return f"meta_curve.csv has {len(lines)} lines, expected header + {steps} + 1"
        rows = [[float(v) for v in line.split(",")] for line in lines[1:]]
        if not all(math.isfinite(r[1]) for r in rows[:-1]) or not math.isfinite(rows[-1][3]):
            return "non-finite loss in meta_curve.csv"
        forms = tuple(w.form for w in load_warps(os.path.join(out, "warps.bin")))
        if forms != self.wl.warp_forms:
            return f"warps.bin holds forms {forms}, expected {self.wl.warp_forms}"
        return {"eval_query_loss": rows[-1][3],
                "sha256": {f: _sha256(os.path.join(out, f)) for f in ("warps.bin", "meta_curve.csv")}}

    def _check_curve(self, out: str, overrides):
        """Every task must end at its last step with finite losses; returns
        the mean over tasks of the validation loss and accuracy at that step."""
        n_tasks = setting(overrides, "run.n_tasks")
        steps = setting(overrides, "run.steps_per_task")
        lines = _read_lines(os.path.join(out, "curve.csv"))
        if lines[0] != CURVE_HEADER:
            return "curve.csv has an unexpected header"
        finals = {}
        for line in lines[1:]:
            task, step, train_loss, _, val_loss, val_acc, _ = line.split(",")
            if int(step) == steps:
                finals[int(task)] = (float(train_loss), float(val_loss), float(val_acc))
        if sorted(finals) != list(range(n_tasks)):
            return f"curve.csv has final records for tasks {sorted(finals)}, expected 0..{n_tasks - 1}"
        if not all(math.isfinite(tl) and math.isfinite(vl) and 0.0 <= va <= 1.0
                   for tl, vl, va in finals.values()):
            return "non-finite final loss in curve.csv"
        return {"val_loss": _mean(vl for _, vl, _ in finals.values()),
                "val_acc": _mean(va for _, _, va in finals.values()),
                "sha256": {f"{os.path.basename(out)}/curve.csv": curve_sha256(lines)}}

    # -- after the measured units ---------------------------------------------

    def quality(self, units: list[dict]) -> dict:
        """Quality metrics from the first ``units_min`` units; fixed by the seed."""
        outputs = [o for u in units[: self.wl.units_min] for o in u["outputs"]]
        if self.wl.command == "run":
            return {"eval_query_loss": _mean(o["val_loss"] for o in outputs),
                    "val_acc": _mean(o["val_acc"] for o in outputs)}
        accs = []
        for i in range(self.wl.units_min):
            out = os.path.join(self.work, f"q{i:03d}")
            checkpoint = os.path.join(self.work, f"u{i:03d}", "warps.bin")
            code, _ = self.cli(self.argv([*self.wl.downstream, f"warp.checkpoint={checkpoint}"],
                                         unit_seed(self.seed, i), out, command="run"))
            found = self.checked(code, out, lambda path: self._check_curve(path, self.wl.downstream))
            if found is not None:
                accs.append(found["val_acc"])
        return {"eval_query_loss": _mean(o["eval_query_loss"] for o in outputs),
                "val_acc": _mean(accs)}

    def check_and_replay(self) -> None:
        """`warpadam check` once, and one call replayed from its manifest."""
        code, _ = self.cli(["check"])
        self.record("check", None if code == 0 else f"exit code {code}")
        first = os.path.join(self.work, "replay-a")
        again = os.path.join(self.work, "replay-b")
        if self.wl.command == "meta-train":
            files, key = ("warps.bin", "meta_curve.csv"), _sha256
            code, _ = self.cli(self.argv(["meta.outer_steps=2"], unit_seed(self.seed, 999), first))
        else:
            files, key = ("curve.csv",), lambda path: curve_sha256(_read_lines(path))
            code, _ = self.cli(self.argv(["run.optimizer=warpadam"], unit_seed(self.seed, 999), first))
        problem = f"exit code {code}"
        if code == 0:
            code, _ = self.cli([self.wl.command, "--config", os.path.join(first, "manifest.txt"),
                                "--out", again])
            problem = f"replay exit code {code}"
        if code == 0:
            differ = [f for f in files
                      if key(os.path.join(first, f)) != key(os.path.join(again, f))]
            problem = f"replay changed {', '.join(differ)}" if differ else None
        self.record("replay from manifest.txt", problem)


def k_sweep(seed: int) -> dict:
    """hypergrad_P on one fixed episode: README linear model, dense warps, K in SWEEP_KS.

    ``.ms`` is the median of a few untraced calls; ``.nodes`` is the largest
    graph one call toposorts, the final query-loss graph.
    """
    from warpadam import config, tensor, warp
    from warpadam.nn import MLP
    from warpadam.tasks import sample_episode, synth_proto_tasks
    import numpy as np

    cfg = config.load_config_file(README_CONFIG)
    s = config.build_synth(cfg)
    rng = np.random.default_rng([seed, 7])
    table = synth_proto_tasks(s.alphabets, s.classes_per_alphabet, s.instances_per_class,
                              s.dim, s.noise, rng)
    episode = sample_episode(table, config.getint(cfg, "tasks.n_way"), config.getint(cfg, "tasks.k_shot"),
                             config.getint(cfg, "tasks.query_per_class"), rng)
    model = MLP([table.dim, config.getint(cfg, "tasks.n_way")], rng)
    warps = warp.init_warps([p.shape for p in model.params], "dense")
    base = config.build_meta(cfg)
    out = {}
    for mode in ("full", "fo"):
        for k in SWEEP_KS:
            meta = dataclasses.replace(base, inner_steps=k, first_order=mode == "fo")
            times = []
            for _ in range(5 if k <= 8 else 3):
                start = time.perf_counter()
                warp.hypergrad_P(episode, model, warps, meta)
                times.append(time.perf_counter() - start)
            counter = Tracer()
            original = tensor.toposort
            tensor.toposort = counter.wrap("tensor.toposort", original, counts_nodes=True)
            try:
                warp.hypergrad_P(episode, model, warps, meta)
            finally:
                tensor.toposort = original
            out[f"warp.hypergrad_P.{mode}.k{k}.ms"] = statistics.median(times) * 1e3
            out[f"warp.hypergrad_P.{mode}.k{k}.nodes"] = max(span[4] for span in counter.spans)
    return out


def curve_sha256(lines: list[str]) -> str:
    """sha256 of a curve CSV without its wall-clock column."""
    return hashlib.sha256("\n".join(line.rsplit(",", 1)[0] for line in lines).encode()).hexdigest()


def _read_lines(path: str) -> list[str]:
    with open(path, "r", newline="") as f:
        return f.read().splitlines() or [""]


def _sha256(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def calibrate() -> float:
    """Seconds for a fixed mix of interpreter work and small numpy calls.

    The mix is like the autodiff graph's. It is benchmark code and does not
    change with the program, so it measures how fast the host runs right now.
    """
    import numpy as np

    a = np.full((16, 16), 0.01)
    start = time.perf_counter()
    for _ in range(2500):
        b = np.tanh(a @ a + a)
        acc = 0
        for i in range(30):
            acc += i * i
        kept = [b, {"b": b, "acc": acc}]
    del kept
    return time.perf_counter() - start


def host_info() -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_config": blas.get("openblas configuration", "")}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--role", choices=("setup", "measure", "traced"), required=True)
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--work", required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--sweep", action="store_true")
    args = p.parse_args()

    tracer = Tracer() if args.role == "traced" else None
    job = Job(args, tracer)
    job.set_up(f"{args.role}-{os.getpid()}")
    result = {"setup_done": time.monotonic(),
              "setup_cal": statistics.median(calibrate() for _ in range(3))}
    if args.role != "setup":
        units = []
        deadline = time.monotonic() + args.seconds
        cal = calibrate()
        while len(units) < job.wl.units_min or (args.role == "measure" and time.monotonic() < deadline):
            units.append(job.unit(len(units)))
            cal_before, cal = cal, calibrate()
            units[-1]["cal"] = (cal_before + cal) / 2
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["units"] = [{"wall": u["wall"], "work": u["work"], "cal": u["cal"]} for u in units]
        result["sha256"] = {name: h for o in units[0]["outputs"] for name, h in o["sha256"].items()}
    if args.role == "measure":
        result["quality"] = job.quality(units)
        job.check_and_replay()
        if args.sweep:
            result["sweep"] = k_sweep(args.seed)
        result["host"] = host_info()
    if tracer is not None:
        with open(os.path.join(args.work, "spans.json"), "w") as f:
            json.dump({"names": tracer.names(), "spans": tracer.spans}, f)
    result["attempted"] = job.attempted
    result["failed"] = job.failed
    with open(os.path.join(args.work, f"{args.role}-{os.getpid()}.json"), "w") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
