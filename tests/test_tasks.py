import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from warpadam.optim import FieldError
from warpadam.tasks import (
    Alphabet,
    CharacterClass,
    ClassTable,
    EpisodeSpec,
    PgmError,
    SamplingError,
    SynthSpec,
    episode_pools,
    import_image_classes,
    load_table,
    pool_sizes,
    sample_episode,
    save_table,
    synth_proto_tasks,
)


def small_table(seed=0, alphabets=3, classes=6, instances=20, dim=8, noise=0.1):
    rng = np.random.default_rng(seed)
    return synth_proto_tasks(alphabets, classes, instances, dim, noise, rng)


# ---------------------------------------------------------------------------
# episode sampling

def test_episode_counts_5way_1shot():
    table = small_table()
    ep = sample_episode(table, 5, 1, 15, np.random.default_rng(1))
    assert len(ep.support_x) == 5
    assert len(ep.query_x) == 75
    assert ep.support_x.shape[1] == 8


def test_an_episode_is_its_four_arrays():
    ep = sample_episode(small_table(), 3, 2, 4, np.random.default_rng(1))
    assert type(ep)._fields == ("support_x", "support_y", "query_x", "query_y")
    assert [a.shape for a in ep] == [(6, 8), (6,), (12, 8), (12,)]


def test_per_class_budget_of_twenty():
    table = small_table(instances=20)
    ep = sample_episode(table, 5, 1, 19, np.random.default_rng(2))
    assert len(ep.query_x) == 95
    with pytest.raises(SamplingError):
        sample_episode(table, 5, 1, 20, np.random.default_rng(2))


def test_same_seed_same_episode():
    table = small_table()
    e1 = sample_episode(table, 4, 2, 5, np.random.default_rng(3))
    e2 = sample_episode(table, 4, 2, 5, np.random.default_rng(3))
    for a, b in zip(e1, e2, strict=True):
        assert a.tobytes() == b.tobytes()


def test_different_seeds_differ():
    table = small_table()
    e1 = sample_episode(table, 4, 2, 5, np.random.default_rng(4))
    e2 = sample_episode(table, 4, 2, 5, np.random.default_rng(5))
    assert not np.array_equal(e1.support_x, e2.support_x)


def _rows(x) -> set[bytes]:
    return {row.tobytes() for row in x}


def test_no_support_query_leak_over_many_episodes():
    table = small_table()
    # every instance of the table is a distinct row, so a shared row is a shared instance
    instances = [c.instances for a in table.alphabets for c in a.classes]
    assert len(_rows(np.concatenate(instances))) == sum(map(len, instances))
    rng = np.random.default_rng(6)
    for _ in range(1000):
        ep = sample_episode(table, 4, 2, 3, rng)
        assert len(_rows(ep.support_x)) == len(ep.support_x)
        assert len(_rows(ep.query_x)) == len(ep.query_x)
        assert not _rows(ep.support_x) & _rows(ep.query_x)


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(1, 3), st.integers(1, 3), st.integers(0, 10_000))
def test_labels_are_bijective_reindexing(n_way, k_shot, qpc, seed):
    table = small_table()
    ep = sample_episode(table, n_way, k_shot, qpc, np.random.default_rng(seed))
    assert sorted(set(ep.support_y.tolist())) == list(range(n_way))
    assert set(ep.query_y.tolist()) <= set(range(n_way))
    counts = np.bincount(ep.support_y, minlength=n_way)
    assert np.all(counts == k_shot)


def _row_by_row_episode(table, n_way, k_shot, query_per_class, rng):
    """The reference sampler: the same draws, each row appended on its own."""
    need = k_shot + query_per_class
    candidates = []
    for ai, alphabet in enumerate(table.alphabets):
        eligible = [ci for ci, c in enumerate(alphabet.classes) if len(c.instances) >= need]
        if len(eligible) >= n_way:
            candidates.append((ai, eligible))
    ai, eligible = candidates[rng.integers(len(candidates))]
    alphabet = table.alphabets[ai]
    chosen = [eligible[i] for i in rng.choice(len(eligible), size=n_way, replace=False)]
    sup_x, sup_y, qry_x, qry_y = [], [], [], []
    for label, ci in enumerate(chosen):
        cls = alphabet.classes[ci]
        idx = rng.choice(len(cls.instances), size=need, replace=False)
        for j in idx[:k_shot]:
            sup_x.append(cls.instances[j])
            sup_y.append(label)
        for j in idx[k_shot:]:
            qry_x.append(cls.instances[j])
            qry_y.append(label)
    return (np.array(sup_x), np.array(sup_y, dtype=np.int64), np.array(qry_x),
            np.array(qry_y, dtype=np.int64))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 5), st.integers(1, 4), st.integers(1, 4), st.integers(0, 10_000))
def test_sampled_episode_is_the_row_by_row_episode(n_way, k_shot, qpc, seed):
    table = small_table(instances=9)
    # one class too small for some geometries: the eligible lists differ by alphabet
    table.alphabets[1].classes[0].instances = table.alphabets[1].classes[0].instances[:5]
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    ep = sample_episode(table, n_way, k_shot, qpc, rng)
    want = _row_by_row_episode(table, n_way, k_shot, qpc, ref_rng)
    for got, arr in zip(ep, want, strict=True):
        assert got.dtype == arr.dtype and got.shape == arr.shape
        assert got.tobytes() == arr.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_sampling_error_names_shortfall():
    table = small_table(classes=3)
    with pytest.raises(SamplingError, match="4 classes"):
        sample_episode(table, 4, 1, 5, np.random.default_rng(7))


def test_restriction_to_alphabet_pool():
    table = small_table()
    names = table.alphabet_names()
    pool = _rows(np.concatenate([c.instances for c in table.alphabets[1].classes]))
    for seed in range(20):
        ep = sample_episode(table.restricted([names[1]]), 3, 1, 2, np.random.default_rng(seed))
        assert _rows(ep.support_x) | _rows(ep.query_x) <= pool
    with pytest.raises(SamplingError):
        table.restricted(["nope"])


def _sampling_error(fn):
    try:
        fn()
    except SamplingError as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(alphabets=st.integers(1, 12), classes=st.integers(1, 5), instances=st.integers(1, 6),
       n_way=st.integers(1, 6), k_shot=st.integers(1, 3), qpc=st.integers(1, 3),
       names=st.none() | st.lists(st.sampled_from(
           ["alpha00", "alpha03", "alpha11", "alpha7", "alpha007", "alpha٣", "beta", ""]),
           max_size=3))
def test_a_source_is_checked_with_the_rules_that_sampling_its_table_applies(
        alphabets, classes, instances, n_way, k_shot, qpc, names):
    # the check of a synth spec draws no table, yet fails exactly where sampling
    # the drawn table would, with the same line
    spec = SynthSpec(alphabets, classes, instances, dim=classes)
    table = synth_proto_tasks(alphabets, classes, instances, classes, 0.1,
                              np.random.default_rng(0))
    episode = EpisodeSpec(n_way, k_shot, qpc, alphabets=None if names is None else tuple(names))
    drawn = _sampling_error(lambda: sample_episode(
        table if names is None else table.restricted(names), n_way, k_shot, qpc,
        np.random.default_rng(1)))
    for source in (spec, table):
        assert _sampling_error(lambda: episode_pools(pool_sizes(source, episode), episode)) == drawn


# ---------------------------------------------------------------------------
# synthetic family

def test_synth_zero_noise_collapses_classes():
    table = small_table(noise=0.0)
    cls = table.alphabets[0].classes[0]
    assert np.allclose(cls.instances, cls.instances[0])


def test_synth_determinism_bitwise():
    t1 = small_table(seed=9)
    t2 = small_table(seed=9)
    for a1, a2 in zip(t1.alphabets, t2.alphabets):
        for c1, c2 in zip(a1.classes, a2.classes):
            assert np.array_equal(c1.instances, c2.instances)


def test_synth_within_class_tighter_than_between():
    rng = np.random.default_rng(10)
    table = synth_proto_tasks(2, 5, 30, 12, 0.2, rng)
    within, between = [], []
    pick = np.random.default_rng(11)
    for _ in range(100):
        alphabet = table.alphabets[pick.integers(2)]
        ci, cj = pick.choice(5, size=2, replace=False)
        a = alphabet.classes[ci].instances
        b = alphabet.classes[cj].instances
        i, j = pick.choice(30, size=2, replace=False)
        within.append(np.linalg.norm(a[i] - a[j]))
        between.append(np.linalg.norm(a[i] - b[j]))
    assert np.mean(within) < np.mean(between)


def _per_alphabet_synth(n_alphabets, classes, instances, dim, noise_sigma, rng):
    """The reference sampler: per alphabet, its rotation, its prototypes, and
    each class's instances, drawn and multiplied one at a time."""
    table = []
    for _ in range(n_alphabets):
        rotation, _ = np.linalg.qr(rng.normal(size=(dim, dim)))
        protos, _ = np.linalg.qr(rng.normal(size=(dim, classes)))
        table.append([(protos[:, c][None, :] + noise_sigma * rng.normal(size=(instances, dim)))
                      @ rotation.T for c in range(classes)])
    return table


@pytest.mark.parametrize("shape", [(10, 5, 20, 8, 0.5), (10, 8, 20, 32, 0.5), (3, 4, 1, 4, 0.0),
                                   (2, 3, 7, 3, 2.0), (1, 1, 1, 1, 0.3)])
def test_synth_is_the_per_alphabet_sampler(shape):
    for seed in range(5):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        table = synth_proto_tasks(*shape, rng)
        want = _per_alphabet_synth(*shape, ref_rng)
        assert [a.name for a in table.alphabets] == [f"alpha{a:02d}" for a in range(shape[0])]
        for alphabet, classes in zip(table.alphabets, want, strict=True):
            assert [c.name for c in alphabet.classes] == [f"char{c:02d}" for c in range(shape[1])]
            for got, instances in zip(alphabet.classes, classes, strict=True):
                assert got.instances.shape == instances.shape
                assert got.instances.tobytes() == instances.tobytes()
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_synth_validations():
    # each size is checked by SynthSpec, and the error names its field
    rng = np.random.default_rng(12)
    for args, field, line in (
            ((2, 10, 5, 4, 0.1), "dim", "dim must be >= the 10 orthonormal class prototypes, "
                                        "got 4"),
            ((0, 2, 5, 4, 0.1), "alphabets", "alphabets must be >= 1, got 0"),
            ((1, 2, 5, 4, -0.5), "noise", "noise must be non-negative, got -0.5")):
        with pytest.raises(FieldError, match=f"^{re.escape(line)}$") as exc:
            synth_proto_tasks(*args, rng)
        assert exc.value.field == field
    with pytest.raises(FieldError, match=r"^k_shot must be >= 1, got 0$"):
        sample_episode(small_table(), 3, 0, 2, rng)


# ---------------------------------------------------------------------------
# PGM import

def write_pgm(path, pixels, maxval=255, comment=False):
    h, w = pixels.shape
    header = b"P5\n"
    if comment:
        header += b"# a comment\n"
    header += f"{w} {h}\n{maxval}\n".encode()
    path.write_bytes(header + pixels.astype(np.uint8).tobytes())


def make_tree(root, alphabets=2, chars=2, insts=3, side=4):
    rng = np.random.default_rng(13)
    for a in range(alphabets):
        for c in range(chars):
            d = root / f"alpha{a}" / f"char{c}"
            d.mkdir(parents=True)
            for i in range(insts):
                write_pgm(d / f"img{i}.pgm", rng.integers(0, 256, size=(side, side)))


def test_import_all_black_is_zero_vector(tmp_path):
    d = tmp_path / "a" / "c"
    d.mkdir(parents=True)
    write_pgm(d / "x.pgm", np.zeros((4, 4)))
    table = import_image_classes(tmp_path, 4)
    assert np.array_equal(table.alphabets[0].classes[0].instances[0], np.zeros(16))


def test_import_checkerboard_hand_decoded(tmp_path):
    d = tmp_path / "a" / "c"
    d.mkdir(parents=True)
    write_pgm(d / "x.pgm", np.array([[0, 255], [255, 0]]), comment=True)
    table = import_image_classes(tmp_path, 2)
    assert np.array_equal(table.alphabets[0].classes[0].instances[0],
                          np.array([0.0, 1.0, 1.0, 0.0]))


def test_import_resampling_identity_and_downscale(tmp_path):
    d = tmp_path / "a" / "c"
    d.mkdir(parents=True)
    img = np.arange(16).reshape(4, 4) * 10
    write_pgm(d / "x.pgm", img)
    table = import_image_classes(tmp_path, 2)
    # nearest neighbor with floor mapping picks rows/cols 0 and 2
    expected = img[np.ix_([0, 2], [0, 2])].astype(float) / 255.0
    assert np.allclose(table.alphabets[0].classes[0].instances[0], expected.reshape(-1))


def test_import_counts_fifty_alphabets(tmp_path):
    make_tree(tmp_path, alphabets=50, chars=1, insts=1, side=2)
    table = import_image_classes(tmp_path, 2)
    assert len(table.alphabets) == 50


def test_import_is_order_deterministic(tmp_path):
    make_tree(tmp_path, alphabets=3, chars=2, insts=2, side=3)
    t1 = import_image_classes(tmp_path, 3)
    t2 = import_image_classes(tmp_path, 3)
    assert t1.alphabet_names() == t2.alphabet_names()
    for a1, a2 in zip(t1.alphabets, t2.alphabets):
        for c1, c2 in zip(a1.classes, a2.classes):
            assert c1.name == c2.name
            assert np.array_equal(c1.instances, c2.instances)


def test_import_skips_empty_character_dirs(tmp_path):
    make_tree(tmp_path, alphabets=1, chars=2, insts=1, side=2)
    (tmp_path / "alpha0" / "empty_char").mkdir()
    table = import_image_classes(tmp_path, 2)
    assert table.skipped_classes == 1
    assert len(table.alphabets[0].classes) == 2


def test_import_malformed_header_names_file(tmp_path):
    d = tmp_path / "a" / "c"
    d.mkdir(parents=True)
    bad = d / "bad.pgm"
    bad.write_bytes(b"P6\n2 2\n255\n" + b"\x00" * 12)
    with pytest.raises(PgmError, match="bad.pgm"):
        import_image_classes(tmp_path, 2)


def test_import_truncated_raster(tmp_path):
    d = tmp_path / "a" / "c"
    d.mkdir(parents=True)
    (d / "short.pgm").write_bytes(b"P5\n4 4\n255\n" + b"\x00" * 5)
    with pytest.raises(PgmError, match="short"):
        import_image_classes(tmp_path, 4)


def test_import_rejects_a_sample_above_maxval(tmp_path):
    # read as is, the 200 would import as 200 / 100 = 2.0, outside [0, 1]
    d = tmp_path / "a" / "c"
    d.mkdir(parents=True)
    write_pgm(d / "over.pgm", np.array([[0, 100], [200, 50]]), maxval=100)
    with pytest.raises(PgmError, match="over.pgm"):
        import_image_classes(tmp_path, 2)
    write_pgm(d / "over.pgm", np.array([[0, 100], [100, 50]]), maxval=100)
    assert import_image_classes(tmp_path, 2).alphabets[0].classes[0].instances.max() == 1.0


# ---------------------------------------------------------------------------
# serialization

def test_table_cache_roundtrip_and_deterministic_bytes(tmp_path):
    table = small_table(seed=14)
    p1, p2 = tmp_path / "t1.wtbl", tmp_path / "t2.wtbl"
    save_table(p1, table)
    loaded = load_table(p1)
    assert loaded.dim == table.dim
    assert loaded.alphabet_names() == table.alphabet_names()
    for a1, a2 in zip(table.alphabets, loaded.alphabets):
        for c1, c2 in zip(a1.classes, a2.classes):
            assert c1.name == c2.name
            assert np.array_equal(c1.instances, c2.instances)
    save_table(p2, loaded)
    assert p1.read_bytes() == p2.read_bytes()


def test_table_cache_refuses_a_dim_that_no_instance_backs(tmp_path):
    # a class of no instances reads no entry, so only the file length bounds the dim
    p = tmp_path / "t.wtbl"
    empty = CharacterClass("char00", np.empty((0, 2**40)))
    save_table(p, ClassTable([Alphabet("alpha00", [empty])], dim=2**40))
    with pytest.raises(ValueError, match=re.escape(
            f"instance dim {2**40} is not positive or larger than the file in class-table cache")):
        load_table(p)


def test_table_cache_rejects_garbage(tmp_path):
    p = tmp_path / "x.wtbl"
    p.write_bytes(b"JUNKJUNKJUNK")
    with pytest.raises(ValueError):
        load_table(p)
