"""Mutations of valid ``warps.bin`` and ``table.wtbl`` files.

Each mutated file either loads and saves back to the same bytes, or raises
``ValueError`` naming the file: nothing else escapes the loaders.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpadam.tasks import load_table, save_table, synth_proto_tasks
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
