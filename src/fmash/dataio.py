"""Corpora, vocabularies, the heterogeneous graph, splits, synthetic data.

File formats (all UTF-8, ids 0-based):

- ``symptoms.jsonl``      one JSON object per line:
  ``{"id": int, "name": str, "text_embedding": [float, ...]?}`` (text on
  every row or on none)
- ``herbs.jsonl``         ``{"id": int, "name": str, "properties": [float]*P,
  "molecules": [str, ...]?}`` (each molecule a non-empty string)
- ``prescriptions.jsonl`` ``{"symptoms": [int, ...], "herbs": [int, ...]}``
  (herb order is meaningful and preserved)
- molecular table         header line ``dim=<d_m>`` then rows
  ``herb_id<TAB>mol_index<TAB>f1,f2,...``; ``mol_index = -1`` marks an
  imputed vector.

Every name is a non-empty JSON string with no tab and no line break, since
``recommend`` and ``generate`` print one line per herb, tab-separated.  A
symptom name also has no comma and no leading or trailing whitespace, since
``--symptoms`` is split on commas and each token stripped.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import DataError, SchemaError
from .nn import stage_rng

SYMPTOMS_FILE = "symptoms.jsonl"
HERBS_FILE = "herbs.jsonl"
PRESCRIPTIONS_FILE = "prescriptions.jsonl"


# ---------------------------------------------------------------------------
# record types
# ---------------------------------------------------------------------------

@dataclass
class SymptomRecord:
    id: int
    name: str
    text_embedding: np.ndarray | None = None


@dataclass
class HerbRecord:
    id: int
    name: str
    properties: np.ndarray = field(default_factory=lambda: np.zeros(0))
    molecules: list[str] = field(default_factory=list)


@dataclass(slots=True)
class PrescriptionInstance:
    """One prescription: its symptom ids as an ascending tuple, each once,
    and its herb ids as a tuple in source order, duplicates removed.
    Records are read-only: ``load_corpus`` and ``generate_synthetic`` give
    every record of a corpus the same int object for an id, and records
    with equal symptom sets the same tuple."""
    instance_id: int
    symptoms: tuple[int, ...]
    herbs: tuple[int, ...]


@dataclass
class HeteroGraph:
    """The co-occurrence graph as three edge lists over local node ids."""
    n_sym: int
    n_herb: int
    edges_ss: np.ndarray  # (E, 2) local symptom ids, u < v
    edges_hh: np.ndarray  # (E, 2) local herb ids, u < v
    edges_sh: np.ndarray  # (E, 2) (symptom id, herb id), both local

    def __post_init__(self):
        s, h = self.n_sym, self.n_herb
        for name, edges, hi_u, hi_v in (("edges_ss", self.edges_ss, s, s),
                                        ("edges_hh", self.edges_hh, h, h),
                                        ("edges_sh", self.edges_sh, s, h)):
            if len(edges) and (edges[:, 0].max() >= hi_u or edges[:, 1].max() >= hi_v
                               or edges.min() < 0):
                raise SchemaError(f"{name} contains out-of-range node ids")


@dataclass
class DatasetSplit:
    train: list[PrescriptionInstance]
    valid: list[PrescriptionInstance]
    test: list[PrescriptionInstance]
    seed: int


def _edge_array(pairs: Iterable[tuple[int, int]]) -> np.ndarray:
    arr = sorted(pairs)
    if not arr:
        return np.zeros((0, 2), dtype=np.int64)
    return np.asarray(arr, dtype=np.int64)


# ---------------------------------------------------------------------------
# corpus loading
# ---------------------------------------------------------------------------

def _read_jsonl(path: Path) -> Iterator[tuple[str, dict]]:
    """The rows of a JSONL file, one at a time as they are read, each with
    its ``path:line`` for error messages.  So of two faulty rows the earlier
    one is reported, whether the reader (bad JSON) or its caller (a bad
    value) finds it; bytes that are not UTF-8 are found a read buffer at a
    time, before any row of that buffer is handed over."""
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line:
                    continue
                where = f"{path}:{lineno}"
                try:
                    row = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SchemaError(f"{where}: invalid JSON ({exc})") from exc
                if not isinstance(row, dict):
                    raise SchemaError(f"{where}: expected a JSON object")
                yield where, row
    except UnicodeDecodeError as exc:
        raise SchemaError(f"{path}: not UTF-8 text ({exc})") from exc


def _field(row: dict, key: str, where: str):
    if key not in row:
        raise SchemaError(f"{where}: missing key {key!r}")
    return row[key]


def _as_int(value, key: str, where: str) -> int:
    integral = isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    if isinstance(value, bool) or not integral:
        raise SchemaError(f"{where}: {key!r} must be an integer, got {value!r}")
    return int(value)


def _int_field(row: dict, key: str, where: str) -> int:
    return _as_int(_field(row, key, where), key, where)


def _int_list(row: dict, key: str, where: str) -> list[int]:
    values = _field(row, key, where)
    if not isinstance(values, list):
        raise SchemaError(f"{where}: {key!r} must be a list of integers")
    if all(type(v) is int for v in values):    # the common case, one pass
        return values
    return [_as_int(v, key, where) for v in values]


def _name_field(row: dict, where: str, symptom: bool) -> str:
    """The row's ``name``, which the command line must print and, for a
    symptom, read back exactly."""
    name = _field(row, "name", where)
    if not isinstance(name, str) or not name or "\t" in name \
            or name.splitlines() != [name]:
        raise SchemaError(f"{where}: 'name' must be a non-empty string without "
                          f"tabs or line breaks, got {name!r}")
    if symptom and ("," in name or name != name.strip()):
        raise SchemaError(f"{where}: a symptom 'name' must have no comma and no "
                          f"leading or trailing whitespace, got {name!r}")
    return name


def _finite_vector(value, key: str, where: str) -> np.ndarray:
    try:
        vec = np.asarray(value, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{where}: {key!r} must be a list of numbers") from exc
    if vec.ndim != 1:
        raise SchemaError(f"{where}: {key!r} must be a flat list of numbers")
    if not np.isfinite(vec).all():
        raise SchemaError(f"{where}: {key!r} holds a non-finite value")
    return vec


def _corpus_file(corpus_dir: Path, fname: str) -> Path:
    path = corpus_dir / fname
    if not path.exists():
        raise SchemaError(f"missing corpus file: {path}")
    return path


def load_vocab(corpus_dir: str | Path, expected_p: int | None = None,
               ) -> tuple[list[SymptomRecord], list[HerbRecord]]:
    """Load the symptom and herb files of a corpus directory and validate id
    density, name uniqueness, that every numeric vector is finite, that the
    vectors of each file (properties, text embeddings) share a length and
    that every symptom has a text embedding or none has."""
    corpus_dir = Path(corpus_dir)
    symptom_path = _corpus_file(corpus_dir, SYMPTOMS_FILE)
    herb_path = _corpus_file(corpus_dir, HERBS_FILE)

    symptoms: list[SymptomRecord] = []
    for where, row in _read_jsonl(symptom_path):
        emb = row.get("text_embedding")
        if emb is not None:
            emb = _finite_vector(emb, "text_embedding", where)
        first = symptoms[0].text_embedding if symptoms else emb
        if (emb is None) != (first is None):
            raise SchemaError(f"{where}: {'no' if emb is None else 'a'} "
                              f"'text_embedding', unlike the rows before it; give "
                              f"every symptom a text embedding or none")
        if emb is not None and emb.size != first.size:
            raise SchemaError(f"{where}: 'text_embedding' has length {emb.size}, "
                              f"expected {first.size} as on the rows before it")
        symptoms.append(SymptomRecord(
            id=_int_field(row, "id", where), name=_name_field(row, where, True),
            text_embedding=emb))
    symptoms.sort(key=lambda r: r.id)
    _check_dense_ids([r.id for r in symptoms], "symptom", symptom_path)
    _check_unique_names([r.name for r in symptoms], "symptom", symptom_path)

    herbs: list[HerbRecord] = []
    p_dim = expected_p
    for where, row in _read_jsonl(herb_path):
        herb_id = _int_field(row, "id", where)
        name = _name_field(row, where, False)
        props = _finite_vector(_field(row, "properties", where), "properties", where)
        if p_dim is None:
            p_dim = props.size
        if props.size != p_dim:
            raise SchemaError(
                f"{where}: herb {herb_id} ({name}): property vector has length "
                f"{props.size}, expected {p_dim}")
        molecules = row.get("molecules", [])
        if not (isinstance(molecules, list)
                and all(isinstance(m, str) and m for m in molecules)):
            raise SchemaError(f"{where}: 'molecules' must be a list of non-empty "
                              f"strings, got {molecules!r}")
        herbs.append(HerbRecord(id=herb_id, name=name, properties=props,
                                molecules=molecules))
    herbs.sort(key=lambda r: r.id)
    _check_dense_ids([r.id for r in herbs], "herb", herb_path)
    _check_unique_names([r.name for r in herbs], "herb", herb_path)
    return symptoms, herbs


def load_corpus(corpus_dir: str | Path, expected_p: int | None = None,
                ) -> tuple[list[SymptomRecord], list[HerbRecord], list[PrescriptionInstance]]:
    """``load_vocab`` plus the prescriptions, whose ids must name known
    symptoms and herbs.  The prescriptions share their id objects and their
    equal symptom sets (see :class:`PrescriptionInstance`)."""
    corpus_dir = Path(corpus_dir)
    symptoms, herbs = load_vocab(corpus_dir, expected_p)
    prescriptions: list[PrescriptionInstance] = []
    n_sym, n_herb = len(symptoms), len(herbs)
    ids = list(range(max(n_sym, n_herb)))
    symptom_sets: dict[tuple[int, ...], tuple[int, ...]] = {}
    for idx, (where, row) in enumerate(
            _read_jsonl(_corpus_file(corpus_dir, PRESCRIPTIONS_FILE))):
        sym_ids = _int_list(row, "symptoms", where)
        herb_ids = _int_list(row, "herbs", where)
        for key, values in (("symptoms", sym_ids), ("herbs", herb_ids)):
            if not values:
                raise SchemaError(f"{where}: {key!r} is empty")
        for s in sym_ids:
            if not 0 <= s < n_sym:
                raise SchemaError(f"{where}: 'symptoms' holds unknown symptom id {s}")
        for h in herb_ids:
            if not 0 <= h < n_herb:
                raise SchemaError(f"{where}: 'herbs' holds unknown herb id {h}")
        sym_set = tuple(sorted({ids[s] for s in sym_ids}))
        prescriptions.append(PrescriptionInstance(
            instance_id=idx, symptoms=symptom_sets.setdefault(sym_set, sym_set),
            herbs=tuple(dict.fromkeys([ids[h] for h in herb_ids]))))
    return symptoms, herbs, prescriptions


def _check_dense_ids(ids: list[int], kind: str, path: Path) -> None:
    if ids != list(range(len(ids))):
        raise SchemaError(f"{path}: {kind} ids must be dense 0..{len(ids) - 1}")


def _check_unique_names(names: list[str], kind: str, path: Path) -> None:
    dupes = [n for n, c in Counter(names).items() if c > 1]
    if dupes:
        raise SchemaError(f"{path}: duplicate {kind} names: {dupes[:5]}")


def save_corpus(corpus_dir: str | Path, symptoms: Sequence[SymptomRecord],
                herbs: Sequence[HerbRecord],
                prescriptions: Sequence[PrescriptionInstance]) -> None:
    corpus_dir = Path(corpus_dir)
    corpus_dir.mkdir(parents=True, exist_ok=True)
    with open(corpus_dir / SYMPTOMS_FILE, "w", encoding="utf-8") as fh:
        for r in symptoms:
            row = {"id": r.id, "name": r.name}
            if r.text_embedding is not None:
                row["text_embedding"] = [float(x) for x in r.text_embedding]
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    with open(corpus_dir / HERBS_FILE, "w", encoding="utf-8") as fh:
        for r in herbs:
            row = {"id": r.id, "name": r.name,
                   "properties": [float(x) for x in r.properties],
                   "molecules": list(r.molecules)}
            fh.write(json.dumps(row, sort_keys=True) + "\n")
    with open(corpus_dir / PRESCRIPTIONS_FILE, "w", encoding="utf-8") as fh:
        for r in prescriptions:
            row = {"symptoms": sorted(r.symptoms), "herbs": list(r.herbs)}
            fh.write(json.dumps(row, sort_keys=True) + "\n")


# ---------------------------------------------------------------------------
# symptom batches
# ---------------------------------------------------------------------------

def symptom_batch(symptom_sets: Sequence[Iterable[int]], n_sym: int,
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Sorted, zero-padded ``(B, W)`` symptom id matrix plus its validity
    mask, W being the largest set.

    Canonical ascending order makes both heads exactly invariant to the
    order the caller lists the symptoms in.
    """
    canon = []
    for ids in symptom_sets:
        ids = sorted(set(int(i) for i in ids))
        if not ids:
            raise DataError("empty symptom set")
        if ids[0] < 0 or ids[-1] >= n_sym:
            raise DataError(f"unknown symptom id in {ids}")
        canon.append(ids)
    width = max(len(ids) for ids in canon)
    padded = np.zeros((len(canon), width), dtype=np.intp)
    mask = np.zeros((len(canon), width), dtype=bool)
    for i, ids in enumerate(canon):
        padded[i, :len(ids)] = ids
        mask[i, :len(ids)] = True
    return padded, mask


def property_matrix(herbs: Sequence[HerbRecord]) -> np.ndarray:
    """``(H, P)`` float32 property vectors of ``herbs``, in order."""
    return np.asarray([h.properties for h in herbs], dtype=np.float32)


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def build_graph(prescriptions: Sequence[PrescriptionInstance], n_sym: int, n_herb: int,
                tau_s: int = 2, tau_h: int = 2) -> HeteroGraph:
    """Co-occurrence graph: a within-type edge needs >= tau shared
    prescriptions, a symptom-herb edge needs one."""
    if tau_s < 1 or tau_h < 1:
        raise DataError("co-occurrence thresholds must be >= 1")
    ss: Counter = Counter()
    hh: Counter = Counter()
    sh: set[tuple[int, int]] = set()
    for inst in prescriptions:
        syms = sorted(inst.symptoms)
        herbs = sorted(set(inst.herbs))
        for i, u in enumerate(syms):
            for v in syms[i + 1:]:
                ss[(u, v)] += 1
        for i, u in enumerate(herbs):
            for v in herbs[i + 1:]:
                hh[(u, v)] += 1
        for u in syms:
            for v in herbs:
                sh.add((u, v))
    return HeteroGraph(
        n_sym=n_sym, n_herb=n_herb,
        edges_ss=_edge_array(p for p, c in ss.items() if c >= tau_s),
        edges_hh=_edge_array(p for p, c in hh.items() if c >= tau_h),
        edges_sh=_edge_array(sh))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def split_sizes(n: int, ratio: tuple[float, float, float]) -> tuple[int, int, int]:
    """Valid and test sizes round half-up; train takes the remainder."""
    n_test = math.floor(n * ratio[2] + 0.5)
    n_valid = math.floor(n * ratio[1] + 0.5)
    return n - n_valid - n_test, n_valid, n_test


def split_dataset(prescriptions: Sequence[PrescriptionInstance],
                  ratio: tuple[float, float, float] = (0.7, 0.1, 0.2),
                  seed: int = 42) -> DatasetSplit:
    if len(ratio) != 3 or any(r <= 0 for r in ratio):
        raise DataError("split ratio must be three positive numbers")
    if abs(sum(ratio) - 1.0) > 1e-9:
        raise DataError(f"split ratio must sum to 1, got {sum(ratio)}")
    n = len(prescriptions)
    if n < 3:
        raise DataError(f"corpus too small to split: {n} instances")
    n_train, n_valid, n_test = split_sizes(n, ratio)
    order = stage_rng(seed, "split").permutation(n)
    items = [prescriptions[i] for i in order]
    return DatasetSplit(train=items[:n_train],
                        valid=items[n_train:n_train + n_valid],
                        test=items[n_train + n_valid:],
                        seed=seed)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

_MOL_FRAGMENTS = ["C", "CC", "N", "O", "CO", "C(=O)O", "c1ccccc1", "Cl",
                  "C(N)", "OC", "S", "C=C"]


def _cluster_blocks(n: int, k: int) -> list[np.ndarray]:
    bounds = np.linspace(0, n, k + 1).astype(int)
    return [np.arange(bounds[i], bounds[i + 1]) for i in range(k)]


def distinct_symptom_sets(n_sym: int, n_syndromes: int) -> int:
    """How many distinct symptom sets :func:`generate_synthetic` can draw:
    2-4 symptoms from one syndrome's cluster."""
    return sum(math.comb(len(c), k) for c in _cluster_blocks(n_sym, n_syndromes)
               for k in range(2, min(4, len(c)) + 1))


def generate_synthetic(n_sym: int, n_herb: int, n_syndromes: int, n_prescriptions: int,
                       seed: int, *, p_dim: int = 23, missing_mol_fraction: float = 0.2,
                       unique_symptom_sets: bool = True,
                       ) -> tuple[list[SymptomRecord], list[HerbRecord],
                                  list[PrescriptionInstance]]:
    """Planted-structure corpus: each latent syndrome owns a symptom cluster
    and a herb cluster; prescriptions draw 2-4 symptoms and 5-10 herbs from
    one syndrome's clusters.  Fully deterministic under ``seed``.

    With ``unique_symptom_sets`` every instance gets a distinct symptom set,
    which makes per-instance memorization well defined; corpora with repeated
    inputs are produced by :func:`generate_conflicting_corpus`.  A set is
    drawn at random, up to 1000 tries; when none of them is fresh, the first
    unused set in cluster, size and lexicographic order is taken instead.
    """
    if n_syndromes > min(n_sym, n_herb):
        raise DataError("n_syndromes must not exceed min(n_sym, n_herb)")
    sets = distinct_symptom_sets(n_sym, n_syndromes)
    if unique_symptom_sets and n_prescriptions > sets:
        raise DataError(f"{n_prescriptions} prescriptions with distinct symptom sets: "
                        f"{n_sym} symptoms in {n_syndromes} syndromes allow {sets} "
                        f"distinct sets; ask for fewer prescriptions or more symptoms")
    sym_clusters = _cluster_blocks(n_sym, n_syndromes)
    herb_clusters = _cluster_blocks(n_herb, n_syndromes)
    if min(len(c) for c in sym_clusters) < 2:
        raise DataError("symptom clusters too small: need >= 2 symptoms per syndrome")
    if min(len(c) for c in herb_clusters) < 5:
        raise DataError("herb clusters too small: need >= 5 herbs per syndrome")

    rng = stage_rng(seed, "synth")
    prop_proto = rng.normal(0.0, 1.0, size=(n_syndromes, p_dim))
    mol_pools = []
    for c in range(n_syndromes):
        pool = []
        for _ in range(6):
            k = rng.integers(3, 7)
            pool.append("".join(rng.choice(_MOL_FRAGMENTS, size=k)))
        mol_pools.append(pool)

    herb_of = np.empty(n_herb, dtype=int)
    for c, block in enumerate(herb_clusters):
        herb_of[block] = c

    symptoms = [SymptomRecord(id=i, name=f"sym-{i:03d}") for i in range(n_sym)]

    n_missing = int(round(missing_mol_fraction * n_herb))
    missing_ids = set(rng.choice(n_herb, size=n_missing, replace=False).tolist()) \
        if n_missing else set()
    herbs = []
    for i in range(n_herb):
        c = herb_of[i]
        props = prop_proto[c] + 0.15 * rng.normal(size=p_dim)
        mols: list[str] = []
        if i not in missing_ids:
            k = int(rng.integers(1, 5))
            mols = list(rng.choice(mol_pools[c], size=min(k, len(mol_pools[c])),
                                   replace=False))
        herbs.append(HerbRecord(id=i, name=f"herb-{i:03d}", properties=props,
                                molecules=mols))

    prescriptions = []
    ids = list(range(max(n_sym, n_herb)))
    drawn: dict[tuple[int, ...], tuple[int, ...]] = {}    # each set drawn so far
    # every set a draw can give, in order, each ascending as its cluster is;
    # each fallback resumes where the last one stopped, since every set
    # before that point has been used
    in_order = ((c, tuple(ids[i] for i in combo))
                for c, cluster in enumerate(sym_clusters)
                for k in range(2, min(4, len(cluster)) + 1)
                for combo in itertools.combinations(cluster.tolist(), k))
    for idx in range(n_prescriptions):
        for attempt in range(1000):
            c = int(rng.integers(n_syndromes))
            k_s = int(rng.integers(2, min(4, len(sym_clusters[c])) + 1))
            sym_ids = tuple(sorted([ids[i] for i in rng.choice(sym_clusters[c], size=k_s,
                                                               replace=False).tolist()]))
            if not unique_symptom_sets or sym_ids not in drawn:
                break
        else:
            c, sym_ids = next((c, s) for c, s in in_order if s not in drawn)
        sym_ids = drawn.setdefault(sym_ids, sym_ids)
        k_h = int(rng.integers(5, min(10, len(herb_clusters[c])) + 1))
        herb_ids = rng.choice(herb_clusters[c], size=k_h, replace=False).tolist()
        prescriptions.append(PrescriptionInstance(
            instance_id=idx, symptoms=sym_ids, herbs=tuple([ids[h] for h in herb_ids])))
    return symptoms, herbs, prescriptions


def generate_conflicting_corpus(n_pairs: int, herbs_per_formula: int, seed: int, *,
                                p_dim: int = 23,
                                ) -> tuple[list[SymptomRecord], list[HerbRecord],
                                           list[PrescriptionInstance]]:
    """Every symptom set appears twice, mapped to two disjoint herb formulas.

    Used to verify that generated sequences never blend the two ground
    truths for the same input.
    """
    rng = stage_rng(seed, "synth.conflict")
    n_sym = 2 * n_pairs
    n_herb = 2 * n_pairs * herbs_per_formula
    symptoms = [SymptomRecord(id=i, name=f"sym-{i:03d}") for i in range(n_sym)]
    herbs = [HerbRecord(id=i, name=f"herb-{i:03d}",
                        properties=rng.normal(size=p_dim),
                        molecules=["".join(rng.choice(_MOL_FRAGMENTS, size=4))])
             for i in range(n_herb)]
    prescriptions = []
    for p in range(n_pairs):
        sym_ids = (2 * p, 2 * p + 1)
        base = 2 * p * herbs_per_formula
        formula_a = list(range(base, base + herbs_per_formula))
        formula_b = list(range(base + herbs_per_formula, base + 2 * herbs_per_formula))
        rng.shuffle(formula_a)
        rng.shuffle(formula_b)
        prescriptions.append(PrescriptionInstance(
            instance_id=2 * p, symptoms=sym_ids, herbs=tuple(formula_a)))
        prescriptions.append(PrescriptionInstance(
            instance_id=2 * p + 1, symptoms=sym_ids, herbs=tuple(formula_b)))
    return symptoms, herbs, prescriptions


# ---------------------------------------------------------------------------
# molecular tables
# ---------------------------------------------------------------------------

def save_molecular_table(path: str | Path, table: dict[int, np.ndarray],
                         d_m: int) -> None:
    """Write one imputed vector per herb: header ``dim=<d_m>`` then
    ``herb_id, -1, values`` rows in herb order (``mol_index = -1`` marks an
    imputed row)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={d_m}\n")
        for herb_id in sorted(table):
            vec = table[herb_id]
            if vec.size != d_m:
                raise SchemaError(f"herb {herb_id}: length {vec.size} != {d_m}")
            vals = ",".join(repr(float(x)) for x in vec)
            fh.write(f"{herb_id}\t-1\t{vals}\n")
