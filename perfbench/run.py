"""Benchmark of the warpadam CLI: one workload per call, every metric by name.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the package is imported from ``src``.
Each workload runs in fresh child processes (perfbench/child.py) with one
BLAS thread and a fixed hash seed. Their scratch files go to
``.perfbench/`` and are removed at exit.

--trace 0 prints the end-to-end metrics of BENCHMARK.json: the median
set-up time of several fresh children, then one child measuring for
--seconds. --trace 1 prints the per-layer metrics: an untraced child for
half the time (with the hypergradient K-sweep), then a traced child that
runs a fixed number of units with a span around every call into a wrapped
public function. The last line of stdout is one JSON object: correct,
attempted, failed and metrics.

End-to-end timings are scaled to a reference host speed by a calibration
kernel timed around them (see unit_rate and README.md).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

from workloads import WORKLOADS, write_pgm_tree

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 9       # fresh children whose set-up time gives the median setup_s
# About what child.calibrate takes, when other tenants are quiet, on the host the
# benchmark was sized on (2-core Xeon at 2.1 GHz, Python 3.11.7, numpy 2.4.6).
CAL_REF_S = 0.010
DEADLINE_S = 170.0      # every child must have ended by then
LOG_TAIL = 30


class ChildFailed(RuntimeError):
    pass


class Runner:
    """Starts the child processes of one benchmark call, one at a time."""

    def __init__(self, args, root: str, work: str):
        self.args = args
        self.root = root
        self.work = work
        self.deadline = time.monotonic() + DEADLINE_S
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), PYTHONHASHSEED="0",
                        OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        self.count = 0

    def child(self, role: str, seconds: float = 0.0, sweep: bool = False) -> tuple[dict, float]:
        """Run one child to the end; returns its result and its set-up seconds."""
        cmd = [sys.executable, os.path.join(HERE, "child.py"), "--role", role,
               "--workload", self.args.workload, "--seed", str(self.args.seed),
               "--work", self.work, "--seconds", repr(seconds)]
        if sweep:
            cmd.append("--sweep")
        self.count += 1
        log_path = os.path.join(self.work, f"child-{self.count}-{role}.log")
        with open(log_path, "w") as log:
            spawned = time.monotonic()
            proc = subprocess.Popen(cmd, cwd=self.root, env=self.env, stdout=log,
                                    stderr=subprocess.STDOUT)
            try:
                code = proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                raise ChildFailed(f"{role} child passed the {DEADLINE_S:.0f} s deadline") from None
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        result_path = os.path.join(self.work, f"{role}-{proc.pid}.json")
        if code != 0 or not os.path.exists(result_path):
            with open(log_path) as f:
                tail = "".join(f.readlines()[-LOG_TAIL:])
            raise ChildFailed(f"{role} child exited with code {code}:\n{tail}")
        with open(result_path) as f:
            result = json.load(f)
        if result["failed"]:
            with open(log_path) as f:
                sys.stderr.writelines(line for line in f if line.startswith("FAILED "))
        return result, setup_seconds(result, result["setup_done"] - spawned)


def unit_rate(units: list[dict], at_reference_speed: bool = True) -> float:
    """Median over units of work done per second of CLI wall time.

    On a shared host the speed of the machine drifts by tens of percent over
    minutes. A unit's rate is therefore scaled by the calibration time around
    it over CAL_REF_S, which gives the rate at the reference host speed.
    """
    rates = [u["work"] / u["wall"] * (u["cal"] / CAL_REF_S if at_reference_speed else 1.0)
             for u in units if u["work"] > 0]
    return statistics.median(rates) if rates else 0.0


def setup_seconds(result: dict, spawned_to_done: float) -> float:
    """A child's set-up time at the reference host speed (see unit_rate)."""
    return spawned_to_done * CAL_REF_S / result["setup_cal"]


def end_to_end(runner: Runner) -> tuple[dict, list[dict]]:
    # set-ups on both sides of the measured child, so one slow spell of a shared host
    # does not hold them all
    setups = [runner.child("setup")[1] for _ in range(SETUP_REPEATS // 2)]
    result, setup_s = runner.child("measure", seconds=runner.args.seconds)
    setups.append(setup_s)
    setups += [runner.child("setup")[1] for _ in range(SETUP_REPEATS - len(setups))]
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": unit_rate(result["units"]),
        "peak_rss_mb": result["peak_rss_mb"],
        **result["quality"],
    }
    return metrics, [result]


def per_layer(runner: Runner) -> tuple[dict, list[dict]]:
    plain, _ = runner.child("measure", seconds=runner.args.seconds / 2, sweep=True)
    traced, _ = runner.child("traced")
    with open(os.path.join(runner.work, "spans.json")) as f:
        trace = json.load(f)
    metrics = layer_metrics(trace["names"], trace["spans"])
    metrics.update(plain["sweep"])
    metrics["trace.spans"] = len(trace["spans"])
    traced_rate = unit_rate(traced["units"])
    metrics["trace.overhead_frac"] = unit_rate(plain["units"]) / traced_rate - 1.0 if traced_rate else 0.0
    return metrics, [plain, traced]


def layer_metrics(names: list[str], spans: list[list]) -> dict:
    """Per-function counts and times; self time is span time minus its child spans."""
    child_ns = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child_ns[parent] += end - start
    durations = defaultdict(list)
    self_ns = defaultdict(int)
    grad_nodes = topo_nodes = topo_max = 0
    for i, (name, start, end, parent, nodes) in enumerate(spans):
        durations[name].append(end - start)
        self_ns[name] += end - start - child_ns[i]
        if name == "tensor.toposort":
            topo_nodes += nodes
            topo_max = max(topo_max, nodes)
            if parent >= 0 and spans[parent][0] == "tensor.grad":
                grad_nodes += nodes
    out = {}
    for name in set(names) | {f"cli.{c}" for c in ("meta-train", "run", "import")}:
        ms = [d / 1e6 for d in durations[name]]
        out[f"{name}.calls"] = len(ms)
        out[f"{name}.ms"] = sum(ms)
        out[f"{name}.self_ms"] = self_ns[name] / 1e6
        if len(ms) > 1:
            deciles = statistics.quantiles(ms, n=10)
            out[f"{name}.ms_p50"], out[f"{name}.ms_p90"] = deciles[4], deciles[8]
        else:
            out[f"{name}.ms_p50"] = out[f"{name}.ms_p90"] = sum(ms)
        out[f"{name}.s"] = statistics.median(ms) / 1e3 if ms else 0.0
    out["tensor.toposort.nodes"] = topo_nodes
    out["tensor.toposort.nodes_max"] = topo_max
    out["tensor.grad.us_per_node"] = self_ns["tensor.grad"] / 1e3 / grad_nodes if grad_nodes else 0.0
    return out


def host_lines(root: str, load_at_start: tuple, host: dict) -> list[str]:
    try:  # the ceiling keeps git from finding a repository above the checkout
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True,
                             timeout=10, env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(root)))
        head = rev.stdout.strip() if rev.returncode == 0 else "not a git repository"
    except (OSError, subprocess.TimeoutExpired):
        head = "git unavailable"
    return [f"host nproc={os.cpu_count()} loadavg_at_start={' '.join(f'{x:.2f}' for x in load_at_start)}",
            f"host python={host.get('python')} numpy={host.get('numpy')} blas={host.get('blas')}",
            f"host blas_config={host.get('blas_config')}",
            f"host git_head={head}"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = p.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    load_at_start = os.getloadavg()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "warpadam", "__init__.py")):
        print("error: run from the root of a warpadam checkout (src/warpadam not found)",
              file=sys.stderr)
        return 2
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)["per_layer" if args.trace else "end_to_end"]

    work = os.path.join(root, ".perfbench", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    runner = Runner(args, root, work)
    try:
        if args.workload == "table-run":
            write_pgm_tree(os.path.join(work, "pgm"), args.seed)
        metrics, results = (per_layer if args.trace else end_to_end)(runner)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {', '.join(missing)}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    host = next((r["host"] for r in results if "host" in r), {})
    for line in host_lines(root, load_at_start, host):
        print(line)
    for name, digest in sorted(results[0].get("sha256", {}).items()):
        print(f"sha256 unit0.{name} {digest}")
    print(f"ops attempted={attempted} failed={failed} failed_frac={failed / max(attempted, 1):.6g}")
    units = results[0]["units"]
    print(f"units n={len(units)} raw_rate_p50={unit_rate(units, at_reference_speed=False):.6g} 1/s "
          f"calibration_p50={statistics.median(u['cal'] for u in units) * 1e3:.4g} ms "
          f"(reference {CAL_REF_S * 1e3:g} ms)")
    for m in spec:
        print(f"metric {m['name']} = {metrics[m['name']]:.6g} {m['unit']}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
