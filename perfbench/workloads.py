"""The benchmark's workloads and the inputs they are generated from.

Every workload is the README meta-training config (``inputs/readme_meta.cfg``)
plus the ``--set`` overrides recorded here. The only other input is the PGM
tree of ``table-run``, which ``write_pgm_tree`` draws from the workload seed.
README.md in this directory says why each workload was chosen.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

README_CONFIG = os.path.join(os.path.dirname(os.path.abspath(__file__)), "inputs", "readme_meta.cfg")

# The seven optimizers of table-run, one `warpadam run` each.
TABLE_OPTIMIZERS = ("sgd", "momentum", "amsgrad", "adamw", "radam", "adam", "warpadam")

# PGM tree of table-run: alphabet names match the README's train/eval split.
PGM_ALPHABETS = 10
PGM_CLASSES = 8
PGM_INSTANCES = 20
PGM_SIDE = 16
PGM_NOISE = 2.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str               # "meta-train", or "run" once per TABLE_OPTIMIZERS entry
    overrides: tuple[str, ...]
    units_min: int             # units always run; they give the quality metrics
    warp_forms: tuple[str, ...] = ()  # expected forms in warps.bin, per parameter tensor
    # meta-* only: `run` on the held-out alphabets with the learned warps; its
    # final validation accuracy is the workload's val_acc
    downstream: tuple[str, ...] = ()

    @property
    def work_per_call(self) -> int:
        """Outer meta-steps, or optimizer steps, in one successful CLI call."""
        if self.command == "meta-train":
            return setting(self.overrides, "meta.outer_steps")
        return setting(self.overrides, "run.n_tasks") * setting(self.overrides, "run.steps_per_task")


def setting(overrides, key: str) -> int:
    """The integer value ``key`` is set to in a list of key=value overrides."""
    for pair in overrides:
        k, _, v = pair.partition("=")
        if k == key:
            return int(v)
    raise KeyError(key)


_HELD_OUT_RUN = (
    "run.optimizer=warpadam",
    "run.n_tasks=4",
    "run.steps_per_task=50",
    "tasks.train_alphabets=alpha08,alpha09",
    # 5-shot: a 1-shot accuracy varies too much from seed to seed to guard anything
    "tasks.k_shot=5",
    "tasks.query_per_class=15",
    "hyper.eta=0.1",
    "hyper.epsilon=0.1",
)

WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="meta-full",
            command="meta-train",
            overrides=("model.hidden=16", "meta.inner_steps=8",
                       "meta.tasks_per_outer_step=4", "meta.outer_steps=2"),
            units_min=8,
            warp_forms=("dense", "dense", "dense", "dense"),
            downstream=_HELD_OUT_RUN,
        ),
        Workload(
            name="meta-fo-kron",
            command="meta-train",
            overrides=("meta.first_order=true", "tasks.synth.dim=32", "tasks.synth.classes=8",
                       "tasks.n_way=5", "model.hidden=64", "meta.inner_steps=8",
                       "meta.tasks_per_outer_step=4", "meta.outer_steps=5"),
            units_min=8,
            warp_forms=("kron", "dense", "kron", "dense"),
            downstream=_HELD_OUT_RUN,
        ),
        Workload(
            name="table-run",
            command="run",
            overrides=("tasks.source=table", "tasks.n_way=5", "tasks.k_shot=5",
                       "tasks.query_per_class=15", "model.hidden=64",
                       "run.n_tasks=2", "run.steps_per_task=50"),
            units_min=8,
        ),
    )
}


def unit_seed(seed: int, unit: int) -> int:
    """The `--seed` of the unit-th CLI call of a run: distinct per unit, fixed by the seed."""
    return seed * 1000 + unit


def write_pgm_tree(root: str, seed: int) -> None:
    """A root/alphaNN/charNN/NNN.pgm tree of binary P5 images.

    Each alphabet has a shared random style and each class a prototype on top
    of it; an instance is its prototype plus Gaussian noise, quantised to 8
    bits. The noise keeps 5-way 5-shot accuracy well below 1.
    """
    import numpy as np

    rng = np.random.default_rng(seed)
    side = PGM_SIDE
    scale = 40.0 / np.sqrt(2.0 + PGM_NOISE ** 2)
    header = b"P5\n%d %d\n255\n" % (side, side)
    for a in range(PGM_ALPHABETS):
        style = rng.normal(size=(side, side))
        for c in range(PGM_CLASSES):
            proto = style + rng.normal(size=(side, side))
            class_dir = os.path.join(root, f"alpha{a:02d}", f"char{c:02d}")
            os.makedirs(class_dir)
            for i in range(PGM_INSTANCES):
                img = proto + PGM_NOISE * rng.normal(size=(side, side))
                px = np.clip(np.rint(128.0 + scale * img), 0, 255).astype(np.uint8)
                with open(os.path.join(class_dir, f"{i:03d}.pgm"), "wb") as f:
                    f.write(header + px.tobytes())
