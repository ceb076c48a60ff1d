import hashlib
import json
import re
from itertools import combinations

import numpy as np
import pytest

from fmash.cli import execute_command
from fmash.dataio import (HeteroGraph, PrescriptionInstance, build_graph,
                          distinct_symptom_sets, generate_conflicting_corpus,
                          generate_synthetic, load_corpus, save_corpus,
                          save_molecular_table, split_dataset, split_sizes)
from fmash.errors import DataError, SchemaError

from degree_oracle import loop_degrees_of_graph
from memory_probe import walked

CORPUS_FILES = ("symptoms.jsonl", "herbs.jsonl", "prescriptions.jsonl")


def _inst(i, syms, herbs):
    return PrescriptionInstance(instance_id=i, symptoms=frozenset(syms), herbs=list(herbs))


def brute_force_edges(prescriptions, tau):
    """Independent oracle: count unordered co-occurring pairs per id list."""
    counts = {}
    for ids in prescriptions:
        for u, v in combinations(sorted(set(ids)), 2):
            counts[(u, v)] = counts.get((u, v), 0) + 1
    return {p for p, c in counts.items() if c >= tau}


# ---------------------------------------------------------------------------
# graph construction
# ---------------------------------------------------------------------------

def test_single_prescription_graph_matches_hand_count():
    g = build_graph([_inst(0, {0, 1}, [0, 1])], n_sym=2, n_herb=2, tau_s=1, tau_h=1)
    assert set(map(tuple, g.edges_ss)) == {(0, 1)}
    assert set(map(tuple, g.edges_hh)) == {(0, 1)}
    assert set(map(tuple, g.edges_sh)) == {(0, 0), (0, 1), (1, 0), (1, 1)}


def test_graph_matches_brute_force_oracle():
    rng = np.random.default_rng(3)
    prescriptions = []
    for i in range(40):
        syms = rng.choice(8, size=rng.integers(2, 5), replace=False)
        herbs = rng.choice(12, size=rng.integers(3, 7), replace=False)
        prescriptions.append(_inst(i, syms.tolist(), herbs.tolist()))
    for tau in (1, 2, 3):
        g = build_graph(prescriptions, n_sym=8, n_herb=12, tau_s=tau, tau_h=tau)
        assert set(map(tuple, g.edges_ss)) == brute_force_edges(
            [p.symptoms for p in prescriptions], tau)
        assert set(map(tuple, g.edges_hh)) == brute_force_edges(
            [p.herbs for p in prescriptions], tau)


def test_huge_threshold_gives_empty_subgraph():
    prescriptions = [_inst(i, {0, 1}, [0, 1]) for i in range(5)]
    g = build_graph(prescriptions, n_sym=2, n_herb=2, tau_s=100, tau_h=1)
    assert len(g.edges_ss) == 0
    assert len(g.edges_hh) == 1


def test_duplicate_pairs_stored_once():
    prescriptions = [_inst(0, {1, 0}, [1, 0]), _inst(1, {0, 1}, [0, 1])]
    g = build_graph(prescriptions, n_sym=2, n_herb=2, tau_s=1, tau_h=1)
    assert g.edges_ss.shape == (1, 2)
    assert g.edges_hh.shape == (1, 2)


def test_graph_invariant_to_prescription_order():
    rng = np.random.default_rng(9)
    prescriptions = []
    for i in range(25):
        syms = rng.choice(6, size=3, replace=False)
        herbs = rng.choice(9, size=4, replace=False)
        prescriptions.append(_inst(i, syms.tolist(), herbs.tolist()))
    g1 = build_graph(prescriptions, 6, 9, tau_s=2, tau_h=2)
    g2 = build_graph(list(reversed(prescriptions)), 6, 9, tau_s=2, tau_h=2)
    np.testing.assert_array_equal(g1.edges_ss, g2.edges_ss)
    np.testing.assert_array_equal(g1.edges_hh, g2.edges_hh)
    np.testing.assert_array_equal(g1.edges_sh, g2.edges_sh)


def test_degrees_equal_adjacency_row_sums():
    """The degrees HGRE orders by, counted from a built graph's edges within
    each subgraph and over the whole graph, are the row sums of its
    adjacency: no edge is repeated."""
    _, _, prescriptions = generate_synthetic(12, 15, 3, 40, seed=5,
                                             unique_symptom_sets=False)
    g = build_graph(prescriptions, 12, 15, tau_s=1, tau_h=1)
    s = g.n_sym
    full = np.concatenate([g.edges_ss, g.edges_hh + s, g.edges_sh + (0, s)])
    for n, edges, degrees in zip((s, g.n_herb, s + g.n_herb),
                                 (g.edges_ss, g.edges_hh, full),
                                 loop_degrees_of_graph(g)):
        adj = np.zeros((n, n), dtype=int)
        for u, v in edges:
            adj[u, v] = adj[v, u] = 1
        np.testing.assert_array_equal(degrees, adj.sum(axis=1))


def test_out_of_range_edges_rejected():
    with pytest.raises(SchemaError):
        HeteroGraph(n_sym=2, n_herb=2,
                    edges_ss=np.array([[0, 5]]),
                    edges_hh=np.zeros((0, 2), dtype=int),
                    edges_sh=np.zeros((0, 2), dtype=int))


# ---------------------------------------------------------------------------
# splits
# ---------------------------------------------------------------------------

def test_split_sizes_match_published_protocol():
    assert split_sizes(33765, (0.7, 0.1, 0.2)) == (23635, 3377, 6753)
    assert split_sizes(10, (0.7, 0.1, 0.2)) == (7, 1, 2)


def test_split_full_scale_counts():
    prescriptions = [_inst(i, {0}, [0]) for i in range(33765)]
    split = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=1)
    assert (len(split.train), len(split.valid), len(split.test)) == (23635, 3377, 6753)


def test_split_deterministic_and_partitioning():
    _, _, prescriptions = generate_synthetic(10, 20, 2, 50, seed=3)
    s1 = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=7)
    s2 = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=7)
    ids = lambda part: [p.instance_id for p in part]
    assert ids(s1.train) == ids(s2.train)
    assert ids(s1.valid) == ids(s2.valid)
    assert ids(s1.test) == ids(s2.test)
    all_ids = sorted(ids(s1.train) + ids(s1.valid) + ids(s1.test))
    assert all_ids == list(range(50))
    s3 = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=8)
    assert ids(s1.train) != ids(s3.train)


def test_split_validation():
    prescriptions = [_inst(i, {0}, [0]) for i in range(10)]
    with pytest.raises(DataError):
        split_dataset(prescriptions, (0.5, 0.2, 0.2), seed=42)
    with pytest.raises(DataError):
        split_dataset(prescriptions[:2], (0.7, 0.1, 0.2), seed=42)
    with pytest.raises(DataError):
        split_dataset(prescriptions, (0.7, -0.1, 0.4), seed=42)


# ---------------------------------------------------------------------------
# synthetic corpora
# ---------------------------------------------------------------------------

def test_synthetic_regeneration_is_byte_identical(tmp_path):
    for run in ("a", "b"):
        sym, herb, pres = generate_synthetic(40, 60, 5, 200, seed=7)
        save_corpus(tmp_path / run, sym, herb, pres)
    for fname in ("symptoms.jsonl", "herbs.jsonl", "prescriptions.jsonl"):
        assert (tmp_path / "a" / fname).read_bytes() == (tmp_path / "b" / fname).read_bytes()


def test_single_syndrome_herb_graph_connected():
    _, _, prescriptions = generate_synthetic(10, 14, 1, 120, seed=11,
                                             unique_symptom_sets=False)
    g = build_graph(prescriptions, 10, 14, tau_s=1, tau_h=1)
    # union-find connectivity over the herb-herb subgraph
    parent = list(range(14))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges_hh:
        parent[find(u)] = find(v)
    assert len({find(i) for i in range(14)}) == 1


def test_missing_fraction_zero_means_molecules_everywhere():
    _, herbs, _ = generate_synthetic(10, 20, 2, 30, seed=2, missing_mol_fraction=0.0)
    assert all(len(h.molecules) >= 1 for h in herbs)


def test_missing_fraction_respected():
    _, herbs, _ = generate_synthetic(10, 20, 2, 30, seed=2, missing_mol_fraction=0.25)
    assert sum(1 for h in herbs if not h.molecules) == 5


def test_synthetic_prescription_shape_and_uniqueness():
    _, _, prescriptions = generate_synthetic(40, 60, 5, 200, seed=7)
    seen = set()
    for p in prescriptions:
        assert 2 <= len(p.symptoms) <= 4
        assert 5 <= len(p.herbs) <= 10
        assert len(set(p.herbs)) == len(p.herbs)
        assert p.symptoms not in seen
        seen.add(p.symptoms)


def _files_sha256(root) -> str:
    """sha256 of the corpus saved in ``root``, its three files in order."""
    digest = hashlib.sha256()
    for fname in CORPUS_FILES:
        digest.update((root / fname).read_bytes())
    return digest.hexdigest()


@pytest.mark.parametrize("seed, sha256", [
    (7, "b329b0838ccc96fba24d4f86fbbb968872f4089210ed5b9d8760921bfc7ed82d"),
    (8, "390b0c52a65e24b3b7487e5d7f485061c7ad7fcb4adebacb7186b426f41e35aa"),
    (9, "b46ff6c262139120607627789d79d2edcc0d61f96eb8aa9e2e4db103d23788d2"),
    (10, "8021489849d28021c03d462e4066db4d4f95b3199a15411033f211856e19de86"),
    (11, "2a06871bd251275f9178daab7214e581622a48a025f94de17759f45f3ed2321a"),
])
def test_acceptance_corpora_keep_their_bytes(tmp_path, seed, sha256):
    save_corpus(tmp_path, *generate_synthetic(40, 60, 5, 200, seed=seed))
    assert _files_sha256(tmp_path) == sha256


def test_full_scale_corpus_keeps_its_bytes(full_scale_corpus_dir):
    assert _files_sha256(full_scale_corpus_dir) \
        == "1b9273f22882419ac87d9c772827845cdf81ddea8eb2e9efb6cedece398c438e"


def test_conflicting_corpus_keeps_its_bytes(tmp_path):
    save_corpus(tmp_path, *generate_conflicting_corpus(10, seed=3))
    assert _files_sha256(tmp_path) \
        == "da9b428f9976adf52aeedd9b8a694eddbbc36cf8f6a89d09f423099699b4c1de"


def test_synth_conflicting_keeps_its_bytes(tmp_path):
    assert execute_command(["synth", "--mode", "conflicting", "--out", str(tmp_path)]) == 0
    assert _files_sha256(tmp_path) \
        == "9166a83e73cc059854963fa5ae1177082be1568eaa803ffe513dff9240ec13a1"


def _assert_shared(prescriptions):
    """Equal ids across all records, symptoms and herbs alike, are one int
    object, and equal symptom sets one ascending tuple; some set repeats."""
    ids, sets = {}, {}
    for p in prescriptions:
        assert type(p.symptoms) is tuple and list(p.symptoms) == sorted(set(p.symptoms))
        assert sets.setdefault(p.symptoms, p.symptoms) is p.symptoms
        for i in [*p.symptoms, *p.herbs]:
            assert ids.setdefault(i, i) is i
    assert len(sets) < len(prescriptions)
    assert max(ids) > 256               # past the ints Python caches anyway


def test_synthetic_records_share_ids_and_equal_symptom_sets():
    _assert_shared(generate_synthetic(300, 600, 30, 2000, seed=3,
                                      unique_symptom_sets=False)[2])


def test_loaded_records_share_ids_and_equal_symptom_sets(tmp_path):
    save_corpus(tmp_path, *generate_synthetic(300, 600, 30, 2000, seed=3,
                                              unique_symptom_sets=False))
    _assert_shared(load_corpus(tmp_path)[2])


def test_loaded_full_scale_corpus_stays_within_its_memory(full_scale_corpus_dir):
    """What ``load_corpus`` returns for the full-scale corpus, vocabulary
    included, walks to 237 bytes per prescription (``memory_probe.walked``);
    the bound adds 10% to 236, what tracemalloc read for the call.  With a
    record ``__dict__`` it took 333."""
    corpus = load_corpus(full_scale_corpus_dir)
    assert walked(corpus) < 1.1 * 236 * len(corpus[2])


def test_drawn_full_scale_corpus_stays_within_its_memory(full_scale_corpus):
    """What ``generate_synthetic`` returns for the full-scale corpus,
    vocabulary included, walks to 239 bytes per prescription; the bound adds
    10%.  With a symptom tuple per record, not one per distinct set, 278."""
    assert walked(full_scale_corpus) < 1.1 * 239 * len(full_scale_corpus[2])


def test_synthetic_infeasible_clusters():
    with pytest.raises(DataError):
        generate_synthetic(4, 60, 5, 10, seed=1)
    with pytest.raises(DataError):
        generate_synthetic(40, 12, 5, 10, seed=1)


def test_synthetic_names_the_distinct_symptom_sets_when_drawing_runs_out():
    # two clusters of two symptoms: one set each
    assert distinct_symptom_sets(4, 2) == 2
    assert distinct_symptom_sets(40, 5) == 5 * (28 + 56 + 70)
    generate_synthetic(4, 10, 2, 2, seed=1)
    with pytest.raises(DataError, match="allow 2 distinct sets; ask for fewer") as err:
        generate_synthetic(4, 10, 2, 3, seed=1)
    assert "unique_symptom_sets" not in str(err.value)


def test_conflicting_corpus_structure():
    sym, herb, pres = generate_conflicting_corpus(4, seed=3)
    assert len(pres) == 8
    for a, b in zip(pres[::2], pres[1::2]):
        assert a.symptoms == b.symptoms
        assert not set(a.herbs) & set(b.herbs)
        assert len(a.herbs) == len(b.herbs) == 6


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------

def test_corpus_roundtrip(tmp_path):
    sym, herb, pres = generate_synthetic(8, 12, 2, 20, seed=4)
    for rec, row in zip(sym, np.random.default_rng(4).normal(size=(8, 5))):
        rec.text_embedding = row
    save_corpus(tmp_path, sym, herb, pres)
    sym2, herb2, pres2 = load_corpus(tmp_path)
    assert len(sym2) == 8 and len(herb2) == 12 and len(pres2) == 20
    np.testing.assert_allclose(sym2[3].text_embedding, sym[3].text_embedding)
    np.testing.assert_allclose(herb2[5].properties, herb[5].properties)
    assert herb2[5].molecules == herb[5].molecules
    assert [p.herbs for p in pres2] == [p.herbs for p in pres]
    assert [p.symptoms for p in pres2] == [p.symptoms for p in pres]


def test_empty_prescriptions_file_is_valid(tmp_path):
    sym, herb, _ = generate_synthetic(5, 8, 1, 5, seed=1)
    save_corpus(tmp_path, sym, herb, [])
    _, _, pres = load_corpus(tmp_path)
    assert pres == []


def test_unknown_herb_id_raises(tmp_path):
    sym, herb, pres = generate_synthetic(5, 8, 1, 5, seed=1)
    save_corpus(tmp_path, sym, herb, pres)
    with open(tmp_path / "prescriptions.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({"symptoms": [0], "herbs": [9999]}) + "\n")
    with pytest.raises(SchemaError, match="9999"):
        load_corpus(tmp_path)


def test_property_length_mismatch_names_record(tmp_path):
    sym, herb, pres = generate_synthetic(5, 8, 1, 5, seed=1)
    herb[3].properties = np.zeros(7)
    save_corpus(tmp_path, sym, herb, pres)
    with pytest.raises(SchemaError, match="herb-003"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("line, match", [
    ('[0, "herb-000"]', "herbs.jsonl:1: expected a JSON object"),
    ('{"id": "0", "name": "herb-000", "properties": [0.0]}',
     "herbs.jsonl:1: 'id' must be an integer"),
    ('{"id": 0, "name": "herb-000", "properties": [[0.0]]}',
     "herbs.jsonl:1: 'properties' must be a flat list"),
])
def test_malformed_herb_row_names_file_line_and_key(tmp_path, line, match):
    sym, herb, _ = generate_synthetic(5, 8, 1, 5, seed=1)
    save_corpus(tmp_path, sym, herb, [])
    (tmp_path / "herbs.jsonl").write_text(line + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=match):
        load_corpus(tmp_path)


@pytest.mark.parametrize("raw, match", [
    (b'\xfb{"id": 0, "name": "herb-000", "properties": [0.0]}\n',
     "herbs.jsonl: not UTF-8 text"),
    (b'{"id": 0, "name": "herb-000", "properties": [0.0]}\n'
     b'{"id": 0, "name": "herb-001", "properties": [0.0]}\n',
     "herbs.jsonl: herb ids must be dense 0..1"),
    (b'{"id": 0, "name": "herb-000", "properties": [0.0]}\n'
     b'{"id": 1, "name": "herb-000", "properties": [0.0]}\n',
     "herbs.jsonl: duplicate herb names"),
], ids=["not-utf8", "repeated-id", "repeated-name"])
def test_malformed_herb_file_names_the_file(tmp_path, raw, match):
    sym, herb, _ = generate_synthetic(5, 8, 1, 5, seed=1)
    save_corpus(tmp_path, sym, herb, [])
    (tmp_path / "herbs.jsonl").write_bytes(raw)
    with pytest.raises(SchemaError, match=match):
        load_corpus(tmp_path)


@pytest.mark.parametrize("fname, row, match", [
    ("prescriptions.jsonl", {"symptoms": [0], "herbs": [99]}, "unknown herb id 99"),
    ("herbs.jsonl", {"id": 1, "name": "herb-001", "properties": "x"},
     "'properties' must be a list of numbers"),
    ("symptoms.jsonl", {"id": 1, "name": "a,b"}, "no comma"),
])
def test_first_fault_in_file_order_is_reported(tmp_path, fname, row, match):
    """A fault the caller finds on line 2 wins over bad JSON on line 5,
    since the rows are read one at a time."""
    save_corpus(tmp_path, *generate_synthetic(5, 8, 1, 5, seed=1))
    path = tmp_path / fname
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[1] = json.dumps(row)
    lines[4] = "{not json"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=f"{re.escape(fname)}:2: .*{match}"):
        load_corpus(tmp_path)


def _corpus_with_name(tmp_path, fname, name):
    """A saved corpus whose second row of ``fname`` is named ``name``."""
    sym, herb, _ = generate_synthetic(5, 8, 1, 5, seed=1)
    save_corpus(tmp_path, sym, herb, [])
    path = tmp_path / fname
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[1])
    row["name"] = name
    lines[1] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


@pytest.mark.parametrize("fname, name", [
    ("symptoms.jsonl", None),
    ("herbs.jsonl", None),
    ("herbs.jsonl", 5),
    ("symptoms.jsonl", ""),
    ("herbs.jsonl", ""),
    ("herbs.jsonl", "herb\tone"),
    ("herbs.jsonl", "herb\none"),
    ("symptoms.jsonl", "sym\r"),
    ("herbs.jsonl", "herb\u2028one"),
    ("symptoms.jsonl", "a,b"),
    ("symptoms.jsonl", " cough"),
    ("symptoms.jsonl", "cough\u3000"),
], ids=["symptom-null", "herb-null", "herb-number", "symptom-empty", "herb-empty",
        "herb-tab", "herb-newline", "symptom-carriage-return",
        "herb-line-separator", "symptom-comma", "symptom-leading-space",
        "symptom-trailing-ideographic-space"])
def test_name_the_cli_cannot_round_trip_names_file_and_line(tmp_path, fname, name):
    _corpus_with_name(tmp_path, fname, name)
    with pytest.raises(SchemaError, match=rf"{fname}:2: .*'name'.*{re.escape(repr(name))}"):
        load_corpus(tmp_path)


@pytest.mark.parametrize("fname, name", [
    ("symptoms.jsonl", "dry mouth"),
    ("symptoms.jsonl", "口渴"),
    ("herbs.jsonl", "Radix, dried"),
    ("herbs.jsonl", " 甘草 "),
])
def test_name_the_cli_can_round_trip_loads_unchanged(tmp_path, fname, name):
    _corpus_with_name(tmp_path, fname, name)
    symptoms, herbs, _ = load_corpus(tmp_path)
    assert (symptoms if fname == "symptoms.jsonl" else herbs)[1].name == name


def test_duplicate_herbs_deduped_keeping_first(tmp_path):
    sym, herb, _ = generate_synthetic(5, 8, 1, 5, seed=1)
    save_corpus(tmp_path, sym, herb, [])
    with open(tmp_path / "prescriptions.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"symptoms": [0, 1], "herbs": [3, 1, 3, 2, 1]}) + "\n")
    _, _, pres = load_corpus(tmp_path)
    assert pres[0].herbs == (3, 1, 2)


# ---------------------------------------------------------------------------
# molecular tables
# ---------------------------------------------------------------------------

def test_molecular_table_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    table = {5: rng.normal(size=4), 2: rng.normal(size=4)}
    path = tmp_path / "mols.tsv"
    save_molecular_table(path, table, d_m=4)
    lines = path.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "dim=4"
    # herbs ascending, one row each
    rows = [line.split("\t") for line in lines[1:]]
    assert [r[0] for r in rows] == ["2", "5"]
    # repr floats read back bit-exactly
    written = [np.array([float(x) for x in r[2].split(",")]) for r in rows]
    for got, want in zip(written, [table[2], table[5]]):
        np.testing.assert_array_equal(got, want)
    assert rows[0][2] == ",".join(repr(float(x)) for x in table[2])


def test_molecular_table_empty_and_errors(tmp_path):
    path = tmp_path / "empty.tsv"
    save_molecular_table(path, {}, d_m=8)
    assert path.read_text(encoding="utf-8") == "dim=8\n"

    with pytest.raises(SchemaError, match="herb 0: length 3"):
        save_molecular_table(tmp_path / "bad.tsv", {0: np.ones(3)}, d_m=4)


def test_imputed_rows_marked(tmp_path):
    table = {0: np.ones(3), 1: np.zeros(3)}
    path = tmp_path / "mols.tsv"
    save_molecular_table(path, table, d_m=3)
    lines = path.read_text().strip().splitlines()
    assert lines[1].startswith("0\t-1\t")
    assert lines[2].startswith("1\t-1\t")
