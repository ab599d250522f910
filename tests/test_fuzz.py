"""Mutations of valid input files, and random config text.

A mutated ``warps.bin`` or ``table.wtbl`` either loads and saves back to the
same bytes, or raises ``ValueError`` naming the file; a mutated PGM image
either imports or raises ``PgmError`` naming the file. Config text raises
nothing but ``ValueError``.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    except ValueError as exc:
        assert str(path) in str(exc)
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
