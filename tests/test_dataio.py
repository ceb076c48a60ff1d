import json
from itertools import combinations

import numpy as np
import pytest

from fmash.dataio import (HeteroGraph, PrescriptionInstance, build_graph,
                          generate_conflicting_corpus, generate_synthetic,
                          load_corpus, load_molecular_table, save_corpus,
                          save_molecular_table, split_dataset, split_sizes)
from fmash.errors import DataError, SchemaError


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
    g1 = build_graph(prescriptions, 6, 9)
    g2 = build_graph(list(reversed(prescriptions)), 6, 9)
    np.testing.assert_array_equal(g1.edges_ss, g2.edges_ss)
    np.testing.assert_array_equal(g1.edges_hh, g2.edges_hh)
    np.testing.assert_array_equal(g1.edges_sh, g2.edges_sh)
    np.testing.assert_array_equal(g1.degrees, g2.degrees)


def test_degrees_equal_adjacency_row_sums():
    _, _, prescriptions = generate_synthetic(12, 15, 3, 40, seed=5,
                                             unique_symptom_sets=False)
    g = build_graph(prescriptions, 12, 15, tau_s=1, tau_h=1)
    n = g.n_sym + g.n_herb
    adj = np.zeros((n, n), dtype=int)
    for u, v in g.all_edges_global():
        adj[u, v] = adj[v, u] = 1
    np.testing.assert_array_equal(g.degrees, adj.sum(axis=1))
    sub = np.zeros((g.n_sym, g.n_sym), dtype=int)
    for u, v in g.edges_ss:
        sub[u, v] = sub[v, u] = 1
    np.testing.assert_array_equal(g.sub_degrees_ss, sub.sum(axis=1))


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
    s1 = split_dataset(prescriptions, seed=7)
    s2 = split_dataset(prescriptions, seed=7)
    ids = lambda part: [p.instance_id for p in part]
    assert ids(s1.train) == ids(s2.train)
    assert ids(s1.valid) == ids(s2.valid)
    assert ids(s1.test) == ids(s2.test)
    all_ids = sorted(ids(s1.train) + ids(s1.valid) + ids(s1.test))
    assert all_ids == list(range(50))
    s3 = split_dataset(prescriptions, seed=8)
    assert ids(s1.train) != ids(s3.train)


def test_split_validation():
    prescriptions = [_inst(i, {0}, [0]) for i in range(10)]
    with pytest.raises(DataError):
        split_dataset(prescriptions, (0.5, 0.2, 0.2))
    with pytest.raises(DataError):
        split_dataset(prescriptions[:2])
    with pytest.raises(DataError):
        split_dataset(prescriptions, (0.7, -0.1, 0.4))


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


def test_synthetic_infeasible_clusters():
    with pytest.raises(DataError):
        generate_synthetic(4, 60, 5, 10, seed=1)
    with pytest.raises(DataError):
        generate_synthetic(40, 12, 5, 10, seed=1)


def test_conflicting_corpus_structure():
    sym, herb, pres = generate_conflicting_corpus(4, 6, seed=3)
    assert len(pres) == 8
    for a, b in zip(pres[::2], pres[1::2]):
        assert a.symptoms == b.symptoms
        assert not set(a.herbs) & set(b.herbs)
        assert len(a.herbs) == len(b.herbs) == 6


# ---------------------------------------------------------------------------
# corpus files
# ---------------------------------------------------------------------------

def test_corpus_roundtrip(tmp_path):
    sym, herb, pres = generate_synthetic(8, 12, 2, 20, seed=4, text_embedding_dim=5)
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


def test_duplicate_herbs_deduped_keeping_first(tmp_path):
    sym, herb, _ = generate_synthetic(5, 8, 1, 5, seed=1)
    save_corpus(tmp_path, sym, herb, [])
    with open(tmp_path / "prescriptions.jsonl", "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"symptoms": [0, 1], "herbs": [3, 1, 3, 2, 1]}) + "\n")
    _, _, pres = load_corpus(tmp_path)
    assert pres[0].herbs == [3, 1, 2]


# ---------------------------------------------------------------------------
# molecular tables
# ---------------------------------------------------------------------------

def test_molecular_table_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    table = {5: [rng.normal(size=4) for _ in range(3)], 2: [rng.normal(size=4)]}
    path = tmp_path / "mols.tsv"
    save_molecular_table(path, table, d_m=4)
    loaded = load_molecular_table(path, n_herb=10)
    assert set(loaded) == {2, 5}
    assert len(loaded[5]) == 3
    np.testing.assert_allclose(loaded[5][1], table[5][1])


def test_molecular_table_empty_and_errors(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("dim=8\n", encoding="utf-8")
    assert load_molecular_table(path) == {}

    bad = tmp_path / "bad.tsv"
    bad.write_text("dim=4\n0\t0\t1.0,2.0,3.0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=":2"):
        load_molecular_table(bad)

    unknown = tmp_path / "unknown.tsv"
    unknown.write_text("dim=2\n42\t0\t1.0,2.0\n", encoding="utf-8")
    with pytest.raises(SchemaError, match="42"):
        load_molecular_table(unknown, n_herb=10)


def test_imputed_rows_marked(tmp_path):
    table = {0: [np.ones(3)], 1: [np.zeros(3)]}
    path = tmp_path / "mols.tsv"
    save_molecular_table(path, table, d_m=3, imputed_ids={1})
    lines = path.read_text().strip().splitlines()
    assert lines[1].startswith("0\t0\t")
    assert lines[2].startswith("1\t-1\t")
