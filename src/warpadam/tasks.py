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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .optim import check_field


class SamplingError(ValueError):
    """The table cannot supply the requested episode geometry."""


def _check_alphabets(names, has) -> None:
    """Refuses each of the alphabet ``names`` that ``has`` is false for."""
    missing = sorted({name for name in names if not has(name)})
    if missing:
        raise SamplingError(f"unknown alphabets requested: {missing}")


def _synth_alphabet(a: int) -> str:
    """The name of alphabet ``a`` of a synthetic table."""
    return f"alpha{a:02d}"


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

    def class_sizes(self) -> list[list[int]]:
        """The instance count of each class of each alphabet."""
        return [[len(c.instances) for c in a.classes] for a in self.alphabets]

    def restricted(self, names) -> "ClassTable":
        _check_alphabets(names, set(self.alphabet_names()).__contains__)
        wanted = set(names)
        keep = [a for a in self.alphabets if a.name in wanted]
        return ClassTable(alphabets=keep, dim=self.dim, skipped_classes=self.skipped_classes)


@dataclass(frozen=True)
class SynthSpec:
    alphabets: int = 6
    classes_per_alphabet: int = 8
    instances_per_class: int = 20
    dim: int = 16
    noise: float = 0.1

    def __post_init__(self):
        for name in ("alphabets", "classes_per_alphabet", "instances_per_class", "dim"):
            check_field(self, name, getattr(self, name) >= 1, "must be >= 1")
        check_field(self, "noise", self.noise >= 0, "must be non-negative")
        check_field(self, "dim", self.dim >= self.classes_per_alphabet,
                    f"must be >= the {self.classes_per_alphabet} orthonormal class prototypes")


@dataclass(frozen=True)
class EpisodeSpec:
    n_way: int = 5
    k_shot: int = 1
    query_per_class: int = 15
    alphabets: tuple[str, ...] | None = None  # sampling pool; None = all

    def __post_init__(self):
        check_field(self, "n_way", self.n_way >= 1, "must be >= 1")
        check_field(self, "k_shot", self.k_shot >= 1, "must be >= 1")
        check_field(self, "query_per_class", self.query_per_class >= 1, "must be >= 1")


class Episode(NamedTuple):
    """One few-shot task: a support set for adaptation, a query set held out."""

    support_x: np.ndarray  # (n_way*k_shot, dim)
    support_y: np.ndarray  # int labels in 0..n_way-1
    query_x: np.ndarray
    query_y: np.ndarray


def pool_sizes(source: SynthSpec | ClassTable, episode: EpisodeSpec) -> list[list[int]]:
    """The ``ClassTable.class_sizes`` of the alphabets that ``episode`` samples
    from ``source``'s table, drawing no synthetic table: its alphabets are
    alike, so one stands for all, with no more classes than an episode takes.
    An alphabet the table lacks is a ``SamplingError``."""
    names = episode.alphabets
    if isinstance(source, ClassTable):
        return (source if names is None else source.restricted(names)).class_sizes()

    def has(name):  # no name has more digits than the count; int() is kept off longer ones
        digits = name.removeprefix("alpha")
        return (digits.isdecimal() and len(digits) <= len(str(source.alphabets)) + 1
                and int(digits) < source.alphabets and _synth_alphabet(int(digits)) == name)

    _check_alphabets(names or (), has)
    alike = [source.instances_per_class] * min(source.classes_per_alphabet, episode.n_way)
    return [alike] if names != () else []


def episode_pools(sizes: list[list[int]], episode: EpisodeSpec) -> list[tuple[int, list[int]]]:
    """Each alphabet of ``sizes`` (``ClassTable.class_sizes``) with room for
    ``episode``, as its index and those of its classes that hold k_shot +
    query_per_class instances, at least n_way of them. None is a ``SamplingError``."""
    need = episode.k_shot + episode.query_per_class
    pools = [(a, eligible) for a, classes in enumerate(sizes)
             if len(eligible := [c for c, n in enumerate(classes) if n >= need]) >= episode.n_way]
    if not pools:
        raise SamplingError(
            f"no alphabet offers {episode.n_way} classes with >= {need} instances each "
            f"(k_shot={episode.k_shot} + query_per_class={episode.query_per_class})")
    return pools


def sample_episode(table: ClassTable, n_way: int, k_shot: int, query_per_class: int,
                   rng: np.random.Generator) -> Episode:
    """Sample an n-way k-shot episode from one alphabet of the table.

    Classes and instances are drawn uniformly without replacement, so support
    and query instances can never overlap. The same generator state always
    produces the same episode. A size below 1 raises ``FieldError``.
    """
    pools = episode_pools(table.class_sizes(), EpisodeSpec(n_way, k_shot, query_per_class))
    a, eligible = pools[rng.integers(len(pools))]
    classes = table.alphabets[a].classes
    need = k_shot + query_per_class
    sup_x, qry_x = [], []
    for i in rng.choice(len(eligible), size=n_way, replace=False):
        instances = classes[eligible[i]].instances
        rows = instances[rng.choice(len(instances), size=need, replace=False)]
        sup_x.append(rows[:k_shot])
        qry_x.append(rows[k_shot:])

    labels = np.arange(n_way, dtype=np.int64)
    return Episode(support_x=np.concatenate(sup_x), support_y=np.repeat(labels, k_shot),
                   query_x=np.concatenate(qry_x), query_y=np.repeat(labels, query_per_class))


def synth_proto_tasks(n_alphabets: int, classes_per_alphabet: int, instances_per_class: int,
                      input_dim: int, noise_sigma: float, rng: np.random.Generator) -> ClassTable:
    """Synthetic alphabet/character hierarchy for desk-scale runs.

    Per alphabet: a random orthogonal rotation (the shared "style") and one
    orthonormal prototype per class; instances are rotation @ (prototype +
    sigma * gaussian). Zero noise collapses each class to a single point; a
    noise so large that an instance overflows raises ``ValueError``, a size
    out of range a ``FieldError`` that names its ``SynthSpec`` field.
    """
    SynthSpec(n_alphabets, classes_per_alphabet, instances_per_class, input_dim, noise_sigma)
    d, n_c, n_i = input_dim, classes_per_alphabet, instances_per_class
    # one draw, alphabet after alphabet: its rotation, its prototypes, then
    # each class's noise; one QR per factor and one product for the stack
    normals = rng.normal(size=(n_alphabets, d * d + d * n_c + n_c * n_i * d))
    rotations, _ = np.linalg.qr(normals[:, :d * d].reshape(-1, d, d))
    protos, _ = np.linalg.qr(normals[:, d * d:d * (d + n_c)].reshape(-1, d, n_c))
    noise = normals[:, d * (d + n_c):].reshape(-1, n_c, n_i, d)
    with np.errstate(over="ignore", invalid="ignore"):
        noise *= noise_sigma
        noise += protos.swapaxes(-1, -2)[:, :, None, :]
        instances = noise @ rotations.swapaxes(-1, -2)[:, None]
    if not np.isfinite(instances).all():
        raise ValueError(f"noise_sigma={noise_sigma!r} makes non-finite instances")
    alphabets = [Alphabet(name=_synth_alphabet(a),
                          classes=[CharacterClass(name=f"char{c:02d}", instances=instances[a, c])
                                   for c in range(n_c)])
                 for a in range(n_alphabets)]
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
# binary files (deterministic bytes, unlike zip-based containers): one reader
# for warp checkpoints and table caches, and the table cache's format


class Blob:
    """The bytes of one file of ``kind``, read front to back after its
    ``magic`` and u32 ``version``. Each read checks its bounds first; each
    broken rule raises ``bad``'s one-line ``ValueError``, naming the path once.
    """

    def __init__(self, path, kind: str, magic: bytes, version: int):
        with open(path, "rb") as f:
            self.data = memoryview(f.read())
        self.path, self.kind, self.offset = path, kind, len(magic)
        if self.data[:len(magic)] != magic:
            raise self.bad(f"bad magic (not a {kind})")
        if (found := self.uint(4, "file header")) != version:
            raise self.bad(f"unsupported version {found}")

    def bad(self, what: str) -> ValueError:
        return ValueError(f"{what} in {self.kind} {self.path}")

    def take(self, n: int, what: str) -> memoryview:
        if n > len(self.data) - self.offset:
            raise self.bad(f"{what} cut short")
        self.offset += n
        return self.data[self.offset - n:self.offset]

    def uint(self, n: int, what: str) -> int:
        return int.from_bytes(self.take(n, what), "little")

    def text(self, what: str) -> str:
        """A UTF-8 string after its u16 byte length."""
        try:
            return bytes(self.take(self.uint(2, f"{what} length"), what)).decode("utf-8")
        except UnicodeDecodeError:
            raise self.bad(f"{what} is not UTF-8") from None

    def floats(self, n: int, where: str) -> np.ndarray:
        """``n`` finite little-endian float64 entries, as a fresh array."""
        data = np.frombuffer(self.take(8 * n, f"{where}: {n} entries"), "<f8").astype(np.float64)
        if not np.isfinite(data).all():
            raise self.bad(f"{where}: {n} entries are not all finite")
        return data

    def end(self, what: str) -> None:
        if self.offset != len(self.data):
            raise self.bad(f"{len(self.data) - self.offset} trailing bytes after {what}")


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
    """The class table of a cache file, read by ``Blob``."""
    blob = Blob(path, "class-table cache", _TBL_MAGIC, _TBL_VERSION)
    dim = blob.uint(8, "file header")
    skipped = blob.uint(4, "file header")
    n_alpha = blob.uint(4, "file header")
    bad_dim = blob.bad(f"instance dim {dim} is not positive or larger than the file")
    if dim < 1:
        raise bad_dim
    alphabets = []
    for a in range(n_alpha):
        a_name = blob.text(f"alphabet {a}: name")
        classes = []
        for c in range(blob.uint(4, f"alphabet {a}: class count")):
            where = f"alphabet {a} class {c}"
            c_name = blob.text(f"{where}: name")
            n_inst = blob.uint(4, f"{where}: instance count")
            data = blob.floats(n_inst * dim, where).reshape(n_inst, dim)
            classes.append(CharacterClass(name=c_name, instances=data))
        alphabets.append(Alphabet(name=a_name, classes=classes))
    blob.end(f"{n_alpha} alphabets")
    if dim > len(blob.data) // 8:  # no instance row backs it: the table has none
        raise bad_dim
    return ClassTable(alphabets=alphabets, dim=dim, skipped_classes=skipped)
