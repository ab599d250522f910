"""Few-shot episodic task sources.

A ``ClassTable`` mirrors the alphabet/character/instance hierarchy of
handwritten-character datasets: alphabets group character classes, each class
holds a stack of flattened instance vectors. Episodes are sampled n-way
k-shot from within one alphabet, with disjoint support and query instances
and labels re-indexed to 0..n_way-1.

Two table sources are provided: a synthetic prototype family (each alphabet
gets an orthogonal "style" rotation, each class an orthonormal prototype, so
classes within an alphabet share structure the way characters within a script
do) and an importer for directory trees of binary PGM (P5) images.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np


class SamplingError(ValueError):
    """The table cannot supply the requested episode geometry."""


@dataclass
class CharacterClass:
    name: str
    instances: np.ndarray  # (n_instances, dim)


@dataclass
class Alphabet:
    name: str
    classes: list[CharacterClass]


@dataclass
class ClassTable:
    alphabets: list[Alphabet]
    dim: int
    skipped_classes: int = 0  # empty character directories dropped on import

    def alphabet_names(self) -> list[str]:
        return [a.name for a in self.alphabets]

    def restricted(self, names) -> "ClassTable":
        wanted = set(names)
        missing = wanted - set(self.alphabet_names())
        if missing:
            raise SamplingError(f"unknown alphabets requested: {sorted(missing)}")
        keep = [a for a in self.alphabets if a.name in wanted]
        return ClassTable(alphabets=keep, dim=self.dim, skipped_classes=self.skipped_classes)


def split_table(table: ClassTable, train_names, eval_names) -> tuple[ClassTable, ClassTable]:
    """Explicit train/eval alphabet split; the two sets must be disjoint."""
    overlap = set(train_names) & set(eval_names)
    if overlap:
        raise ValueError(f"train and eval alphabet sets overlap: {sorted(overlap)}")
    return table.restricted(train_names), table.restricted(eval_names)


@dataclass
class Episode:
    """One few-shot task: a support set for adaptation, a query set held out."""

    support_x: np.ndarray  # (n_way*k_shot, dim)
    support_y: np.ndarray  # int labels in 0..n_way-1
    query_x: np.ndarray
    query_y: np.ndarray
    n_way: int
    k_shot: int
    task_id: str
    support_ids: list[tuple[int, int, int]] = field(default_factory=list)
    query_ids: list[tuple[int, int, int]] = field(default_factory=list)


def sample_episode(table: ClassTable, n_way: int, k_shot: int, query_per_class: int,
                   rng: np.random.Generator, alphabets=None) -> Episode:
    """Sample an n-way k-shot episode from one alphabet of the table.

    Classes and instances are drawn uniformly without replacement, so support
    and query instances can never overlap. The same generator state always
    produces the same episode.
    """
    if n_way < 1 or k_shot < 1 or query_per_class < 1:
        raise SamplingError(
            f"episode geometry must be positive: n_way={n_way} k_shot={k_shot} "
            f"query_per_class={query_per_class}")
    pool = table.restricted(alphabets) if alphabets is not None else table
    need = k_shot + query_per_class

    candidates = []
    for ai, alphabet in enumerate(pool.alphabets):
        eligible = [ci for ci, c in enumerate(alphabet.classes) if len(c.instances) >= need]
        if len(eligible) >= n_way:
            candidates.append((ai, eligible))
    if not candidates:
        raise SamplingError(
            f"no alphabet offers {n_way} classes with >= {need} instances each "
            f"(k_shot={k_shot} + query_per_class={query_per_class})")

    ai, eligible = candidates[rng.integers(len(candidates))]
    alphabet = pool.alphabets[ai]
    class_pick = rng.choice(len(eligible), size=n_way, replace=False)
    chosen = [eligible[i] for i in class_pick]

    sup_x, qry_x, sup_ids, qry_ids = [], [], [], []
    for ci in chosen:
        instances = alphabet.classes[ci].instances
        idx = rng.choice(len(instances), size=need, replace=False)
        rows = instances[idx]
        sup_x.append(rows[:k_shot])
        qry_x.append(rows[k_shot:])
        sup_ids += [(ai, ci, j) for j in idx[:k_shot].tolist()]
        qry_ids += [(ai, ci, j) for j in idx[k_shot:].tolist()]

    # no commas: task_id must survive as a single CSV field
    task_id = f"{alphabet.name}|" + "+".join(alphabet.classes[ci].name for ci in chosen)
    labels = np.arange(n_way, dtype=np.int64)
    return Episode(
        support_x=np.concatenate(sup_x), support_y=np.repeat(labels, k_shot),
        query_x=np.concatenate(qry_x), query_y=np.repeat(labels, query_per_class),
        n_way=n_way, k_shot=k_shot, task_id=task_id,
        support_ids=sup_ids, query_ids=qry_ids,
    )


def synth_proto_tasks(n_alphabets: int, classes_per_alphabet: int, instances_per_class: int,
                      input_dim: int, noise_sigma: float, rng: np.random.Generator) -> ClassTable:
    """Synthetic alphabet/character hierarchy for desk-scale runs.

    Per alphabet: a random orthogonal rotation (the shared "style") and one
    orthonormal prototype per class; instances are rotation @ (prototype +
    sigma * gaussian). Zero noise collapses each class to a single point; a
    noise so large that an instance overflows raises ``ValueError``.
    """
    if min(n_alphabets, classes_per_alphabet, instances_per_class, input_dim) < 1:
        raise ValueError("all counts must be positive")
    if noise_sigma < 0:
        raise ValueError(f"noise_sigma must be non-negative, got {noise_sigma}")
    if input_dim < classes_per_alphabet:
        raise ValueError(
            f"input_dim={input_dim} leaves no room for {classes_per_alphabet} "
            f"orthonormal class prototypes")

    alphabets = []
    for a in range(n_alphabets):
        rotation, _ = np.linalg.qr(rng.normal(size=(input_dim, input_dim)))
        protos, _ = np.linalg.qr(rng.normal(size=(input_dim, classes_per_alphabet)))
        classes = []
        for c in range(classes_per_alphabet):
            with np.errstate(over="ignore", invalid="ignore"):
                noise = noise_sigma * rng.normal(size=(instances_per_class, input_dim))
                instances = (protos[:, c][None, :] + noise) @ rotation.T
            if not np.isfinite(instances).all():
                raise ValueError(f"noise_sigma={noise_sigma!r} makes non-finite instances")
            classes.append(CharacterClass(name=f"char{c:02d}", instances=instances))
        alphabets.append(Alphabet(name=f"alpha{a:02d}", classes=classes))
    return ClassTable(alphabets=alphabets, dim=input_dim)


# ---------------------------------------------------------------------------
# PGM (P5) import


class PgmError(ValueError):
    """Malformed PGM content."""


def _read_pgm(path) -> np.ndarray:
    """Decode a binary (P5) PGM into a (h, w) float array scaled to [0, 1]."""
    with open(path, "rb") as f:
        blob = f.read()

    pos = 0

    def token():
        nonlocal pos
        while pos < len(blob):
            ch = blob[pos:pos + 1]
            if ch == b"#":  # comment runs to end of line
                while pos < len(blob) and blob[pos:pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif ch.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(blob) and not blob[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise PgmError(f"truncated PGM header in {path}")
        return blob[start:pos]

    if token() != b"P5":
        raise PgmError(f"not a binary PGM (missing P5 magic) in {path}")
    try:
        width, height, maxval = int(token()), int(token()), int(token())
    except ValueError:
        raise PgmError(f"non-numeric PGM header field in {path}") from None
    if width < 1 or height < 1 or not 1 <= maxval <= 255:
        raise PgmError(f"unsupported PGM geometry {width}x{height} maxval={maxval} in {path}")
    pos += 1  # single whitespace byte separates header from raster
    raster = blob[pos:pos + width * height]
    if len(raster) < width * height:
        raise PgmError(f"PGM raster shorter than {width}x{height} in {path}")
    img = np.frombuffer(raster, dtype=np.uint8).reshape(height, width)
    if img.max() > maxval:
        raise PgmError(f"PGM sample {img.max()} above maxval={maxval} in {path}")
    return img.astype(np.float64) / maxval


def _resample_nn(img: np.ndarray, side: int) -> np.ndarray:
    h, w = img.shape
    rows = (np.arange(side) * h) // side
    cols = (np.arange(side) * w) // side
    return img[np.ix_(rows, cols)]


def import_image_classes(root_path, image_side: int) -> ClassTable:
    """Build a ClassTable from a root/<alphabet>/<character>/<instance>.pgm tree.

    Directories and files are visited in lexicographic order, so two imports
    of the same tree produce identical tables. Empty character directories are
    skipped and counted in ``skipped_classes``; a tree with no image at all
    raises ``ValueError`` naming the root.
    """
    if image_side < 1:
        raise ValueError(f"image_side must be positive, got {image_side}")
    root = os.fspath(root_path)
    alphabet_dirs = sorted(d for d in os.listdir(root)
                           if os.path.isdir(os.path.join(root, d)))
    alphabets = []
    skipped = 0
    dim = image_side * image_side
    for a_name in alphabet_dirs:
        a_dir = os.path.join(root, a_name)
        classes = []
        for c_name in sorted(d for d in os.listdir(a_dir)
                             if os.path.isdir(os.path.join(a_dir, d))):
            c_dir = os.path.join(a_dir, c_name)
            files = sorted(f for f in os.listdir(c_dir) if f.lower().endswith(".pgm"))
            if not files:
                skipped += 1
                continue
            vecs = [
                _resample_nn(_read_pgm(os.path.join(c_dir, f)), image_side).reshape(-1)
                for f in files
            ]
            classes.append(CharacterClass(name=c_name, instances=np.array(vecs)))
        alphabets.append(Alphabet(name=a_name, classes=classes))
    if not any(a.classes for a in alphabets):
        raise ValueError(f"no <alphabet>/<character>/<image>.pgm image under {root}")
    return ClassTable(alphabets=alphabets, dim=dim, skipped_classes=skipped)


# ---------------------------------------------------------------------------
# binary table cache (deterministic bytes, unlike zip-based containers)

_TBL_MAGIC = b"WTBL"
_TBL_VERSION = 1


def _write_str(f, s: str) -> None:
    raw = s.encode("utf-8")
    f.write(len(raw).to_bytes(2, "little"))
    f.write(raw)


def save_table(path, table: ClassTable) -> None:
    with open(path, "wb") as f:
        f.write(_TBL_MAGIC)
        f.write(_TBL_VERSION.to_bytes(4, "little"))
        f.write(int(table.dim).to_bytes(8, "little"))
        f.write(int(table.skipped_classes).to_bytes(4, "little"))
        f.write(len(table.alphabets).to_bytes(4, "little"))
        for a in table.alphabets:
            _write_str(f, a.name)
            f.write(len(a.classes).to_bytes(4, "little"))
            for c in a.classes:
                _write_str(f, c.name)
                f.write(len(c.instances).to_bytes(4, "little"))
                f.write(np.ascontiguousarray(c.instances, dtype="<f8").tobytes())


def load_table(path) -> ClassTable:
    """The class table of a cache file; a malformed file raises ``ValueError``
    naming ``path``, and nothing past the file's end is ever read."""
    with open(path, "rb") as f:
        blob = memoryview(f.read())

    def bad(what: str) -> ValueError:
        return ValueError(f"{what} in class-table cache {path}")

    def take(n: int, what: str) -> memoryview:
        nonlocal offset
        if n > len(blob) - offset:
            raise bad(f"{what} runs past the end of the file")
        offset += n
        return blob[offset - n:offset]

    def uint(n: int, what: str) -> int:
        return int.from_bytes(take(n, what), "little")

    def text(what: str) -> str:
        raw = take(uint(2, f"{what} length"), what)
        try:
            return bytes(raw).decode("utf-8")
        except UnicodeDecodeError:
            raise bad(f"{what} is not UTF-8") from None

    if blob[:4] != _TBL_MAGIC:
        raise bad("bad magic (not a class-table cache)")
    offset = 4
    version = uint(4, "file header")
    if version != _TBL_VERSION:
        raise bad(f"unsupported version {version}")
    dim = uint(8, "file header")
    skipped = uint(4, "file header")
    n_alpha = uint(4, "file header")
    if not 1 <= dim <= len(blob) // 8:
        raise bad(f"instance dim {dim} is not positive or larger than the file")
    alphabets = []
    for a in range(n_alpha):
        a_name = text(f"alphabet {a} name")
        classes = []
        for c in range(uint(4, f"alphabet {a} class count")):
            where = f"alphabet {a} class {c}"
            c_name = text(f"{where} name")
            n_inst = uint(4, f"{where} instance count")
            raw = take(n_inst * dim * 8, f"{where}: {n_inst} instances of dim {dim}")
            data = np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(n_inst, dim)
            if not np.isfinite(data).all():
                raise bad(f"{where}: non-finite entries")
            classes.append(CharacterClass(name=c_name, instances=data))
        alphabets.append(Alphabet(name=a_name, classes=classes))
    if offset != len(blob):
        raise bad(f"{len(blob) - offset} trailing bytes after {n_alpha} alphabets")
    return ClassTable(alphabets=alphabets, dim=dim, skipped_classes=skipped)


def dump_episode_csv(episode: Episode, path) -> None:
    """Debug dump: one row per example (task_id, split, label, input values)."""
    with open(path, "w", newline="\n") as f:
        width = episode.support_x.shape[1] if episode.support_x.ndim == 2 else 1
        f.write("task_id,split,label," + ",".join(f"x{i}" for i in range(width)) + "\n")
        for split, xs, ys in (("support", episode.support_x, episode.support_y),
                              ("query", episode.query_x, episode.query_y)):
            for x, y in zip(xs, ys):
                vals = ",".join(f"{v:.17g}" for v in np.atleast_1d(x))
                f.write(f"{episode.task_id},{split},{int(y)},{vals}\n")
