"""Mutations of valid input files, random config text and random config values.

A mutated ``warps.bin`` or ``table.wtbl`` either loads and saves back to the
same bytes, or raises ``ValueError`` in one line that names the file once; a
mutated PGM image either imports or raises ``PgmError`` naming the file.
Config text raises nothing but ``ValueError``. ``meta-train`` with edge values
in its keys exits 0, 2 or 3 with at most one line on stderr.
"""

import contextlib
import io
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from warpadam.cli import main
from warpadam.config import KNOWN_KEYS, parse_config_text, validate_keys
from warpadam.tasks import PgmError, import_image_classes, load_table, save_table, synth_proto_tasks
from warpadam.warp import WarpMatrix, load_warps, save_warps

MUTATIONS = st.tuples(st.sampled_from(["truncate", "flip", "append", "overwrite"]),
                      st.integers(0, 2 ** 32), st.binary(min_size=1, max_size=24))


def _mutate(blob: bytes, how: str, pos: int, extra: bytes) -> bytes:
    """``blob`` cut short, with one bit flipped, with ``extra`` appended, or
    with ``extra`` written over it at a position fixed by ``pos``."""
    if how == "truncate":
        return blob[:pos % len(blob)]
    if how == "flip":
        bit = pos % (8 * len(blob))
        out = bytearray(blob)
        out[bit // 8] ^= 1 << (bit % 8)
        return bytes(out)
    if how == "append":
        return blob + extra
    at = pos % len(blob)
    return blob[:at] + extra + blob[at + len(extra):]


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def valid_files(workdir):
    """The bytes of a valid checkpoint (one warp per form) and table cache."""
    rng = np.random.default_rng(41)
    warps = [WarpMatrix.identity(3), WarpMatrix.diagonal(rng.normal(size=4)),
             WarpMatrix.dense(rng.normal(size=(3, 3))),
             WarpMatrix.kronecker(rng.normal(size=(2, 2)), rng.normal(size=(3, 3)))]
    save_warps(workdir / "warps.bin", warps)
    save_table(workdir / "table.wtbl", synth_proto_tasks(2, 2, 2, 3, 0.5, rng))
    return {name: (workdir / name).read_bytes() for name in ("warps.bin", "table.wtbl")}


def _loads_back_or_names_the_file(workdir, load, save, blob: bytes) -> None:
    path, again = workdir / "mutated", workdir / "again"
    path.write_bytes(blob)
    try:
        loaded = load(path)
    except ValueError as exc:  # one line that names the file once
        assert "\n" not in str(exc) and str(exc).count(str(path)) == 1, str(exc)
        return
    save(again, loaded)
    assert again.read_bytes() == blob


@settings(max_examples=100, deadline=None)
@given(MUTATIONS)
def test_mutated_warp_checkpoint_loads_back_or_names_the_file(workdir, valid_files, mutation):
    blob = _mutate(valid_files["warps.bin"], *mutation)
    _loads_back_or_names_the_file(workdir, load_warps, save_warps, blob)


@settings(max_examples=100, deadline=None)
@given(MUTATIONS)
def test_mutated_class_table_loads_back_or_names_the_file(workdir, valid_files, mutation):
    blob = _mutate(valid_files["table.wtbl"], *mutation)
    _loads_back_or_names_the_file(workdir, load_table, save_table, blob)


# a 4x3 P5 image with a header comment
VALID_PGM = b"P5\n# four by three\n4 3\n255\n" + bytes(range(0, 240, 20))


@settings(max_examples=100, deadline=None)
@given(MUTATIONS)
def test_mutated_pgm_imports_or_names_the_file(workdir, mutation):
    image = workdir / "tree" / "alpha" / "char" / "0.pgm"
    image.parent.mkdir(parents=True, exist_ok=True)
    image.write_bytes(_mutate(VALID_PGM, *mutation))
    try:
        table = import_image_classes(workdir / "tree", 4)
    except PgmError as exc:
        assert str(image) in str(exc)
        return
    (instances,) = [c.instances for a in table.alphabets for c in a.classes]
    assert instances.shape == (1, 16)
    assert np.all((instances >= 0.0) & (instances <= 1.0))


CONFIG_LINES = st.one_of(
    st.text(max_size=30),
    st.builds(lambda key, sep, value: f"{key}{sep}{value}",
              st.one_of(st.sampled_from(sorted(KNOWN_KEYS)), st.text(max_size=12)),
              st.sampled_from(["=", " = ", "==", ""]), st.text(max_size=12)),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(CONFIG_LINES, max_size=8))
def test_random_config_text_raises_only_value_error(lines):
    try:
        validate_keys(parse_config_text("\n".join(lines)))
    except ValueError:
        pass


# every key meta-train reads, apart from the task source and the alphabet split
META_KEYS = (
    "run.seed", "model.hidden", "meta.inner_steps", "meta.outer_steps",
    "meta.tasks_per_outer_step", "meta.node_budget", "meta.eval_episodes", "meta.eval_every",
    "tasks.synth.alphabets", "tasks.synth.classes", "tasks.synth.instances", "tasks.synth.dim",
    "tasks.n_way", "tasks.k_shot", "tasks.query_per_class",
    *(f"inner.{k}" for k in ("eta", "beta1", "beta2", "epsilon")),
    "meta.outer_eta", "meta.tod_lambda", "tasks.synth.noise",
    "meta.first_order", "warp.policy",
)
EDGE_VALUES = ("0", "-1", "0.5", "2.5", "nan", "inf", "-inf", "1e308", "-1e308",
               "true", "kron", "identity")

# sizes at or under dim 16, hidden 8 and 3 steps; an edge value can only shrink them
FUZZ_META = """
run.seed=5
model.hidden=8
meta.inner_steps=3
meta.outer_steps=3
meta.tasks_per_outer_step=2
meta.eval_episodes=4
meta.eval_every=2
inner.eta=0.1
inner.epsilon=0.1
tasks.synth.alphabets=3
tasks.synth.classes=4
tasks.synth.instances=8
tasks.synth.dim=16
tasks.synth.noise=0.4
tasks.n_way=3
tasks.k_shot=1
tasks.query_per_class=3
tasks.train_alphabets=alpha00,alpha01
tasks.eval_alphabets=alpha02
"""


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.sampled_from(META_KEYS), st.sampled_from(EDGE_VALUES),
                       min_size=1, max_size=3))
@example({"tasks.synth.noise": "1e308"})
def test_meta_train_edge_values_exit_0_2_or_3_with_one_line(workdir, overrides):
    cfg = workdir / "meta.cfg"
    cfg.write_text(FUZZ_META)
    stderr = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")  # each warning would be a line on stderr
        code = main(["meta-train", "--config", str(cfg), "--out", str(workdir / "meta"),
                     *(a for kv in overrides.items() for a in ("--set", "=".join(kv)))])
    lines = stderr.getvalue().splitlines() + [str(w.message) for w in caught]
    assert code in (0, 2, 3), lines
    assert len(lines) <= 1, lines
