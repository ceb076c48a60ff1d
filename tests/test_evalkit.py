import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from case_fixture import P_AT_5, as_ids
from fmash.dataio import PrescriptionInstance
from fmash.errors import DataError, SchemaError
from fmash.evalkit import (EvalGroup, MetricReport, bmp_at_k, evaluate_run,
                           group_instances, load_predictions, topk_metrics)


def brute_force_metrics(ranking, truth, k):
    """Independent oracle: explicit membership loop."""
    hits = 0
    seen = []
    for h in list(ranking)[:k]:
        if h in truth and h not in seen:
            hits += 1
        seen.append(h)
    p = hits / k
    r = hits / len(truth)
    f = 0.0 if p + r == 0 else 2 * p * r / (p + r)
    return p, r, f


def _inst(i, syms, herbs):
    return PrescriptionInstance(instance_id=i, symptoms=frozenset(syms), herbs=list(herbs))


# ---------------------------------------------------------------------------
# topk metrics
# ---------------------------------------------------------------------------

def test_case_study_fixture_reproduces_published_precision():
    ranking, truth = as_ids()
    p, _, _ = topk_metrics(ranking, truth, 5)
    assert p == P_AT_5


def test_hand_formula_evaluation():
    # 2 hits in the top 5 against 8 truths
    ranking = [0, 1, 2, 3, 4]
    truth = {1, 3, 10, 11, 12, 13, 14, 15}
    p, r, f = topk_metrics(ranking, truth, 5)
    assert p == 0.4
    assert r == 0.25
    assert abs(f - 2 * 0.4 * 0.25 / 0.65) < 1e-12


def test_disjoint_prediction_scores_zero():
    assert topk_metrics([0, 1, 2], {5, 6}, 3) == (0.0, 0.0, 0.0)


def test_short_prediction_keeps_k_divisor():
    p, r, f = topk_metrics([7], {7, 8}, 5)
    assert p == 0.2
    assert r == 0.5


def test_metrics_validation():
    with pytest.raises(DataError):
        topk_metrics([0], set(), 3)
    with pytest.raises(DataError):
        topk_metrics([0], {0}, 0)


def test_metrics_depend_only_on_prefix_and_truth_as_set():
    ranking = [3, 1, 4, 1, 5, 9, 2, 6]
    truth = {4, 2, 9}
    base = topk_metrics(ranking, truth, 4)
    assert topk_metrics(ranking[:4] + [99, 98], truth, 4) == base
    assert topk_metrics(ranking, frozenset({9, 2, 4}), 4) == base


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=0, max_value=10_000))
@settings(max_examples=100, deadline=None)
def test_metric_oracle_equivalence_random(k, seed):
    rng = np.random.default_rng(seed)
    h = 40
    ranking = rng.permutation(h).tolist()
    truth = set(rng.choice(h, size=rng.integers(1, 15), replace=False).tolist())
    ours = topk_metrics(ranking, truth, k)
    oracle = brute_force_metrics(ranking, truth, k)
    assert ours == oracle
    p, r, f = ours
    assert 0 <= p <= 1 and 0 <= r <= 1 and 0 <= f <= 1
    if p + r > 0:
        assert min(p, r) - 1e-12 <= f <= max(p, r) + 1e-12


# ---------------------------------------------------------------------------
# best matched precision
# ---------------------------------------------------------------------------

def test_single_truth_group_equals_precision():
    group = EvalGroup(key=(0,), ground_truths=[{1, 2, 3}])
    pred = [1, 9, 2, 8, 7]
    assert bmp_at_k(pred, group, 5) == topk_metrics(pred, {1, 2, 3}, 5)[0]


def test_bmp_takes_the_better_truth():
    # one truth matches a fifth of the prediction, the other all of it
    pred = [0, 1, 2, 3, 4]
    group = EvalGroup(key=(0,), ground_truths=[{0, 10, 11, 12, 13},
                                               {0, 1, 2, 3, 4}])
    assert bmp_at_k(pred, group, 5) == 1.0
    assert topk_metrics(pred, group.ground_truths[0], 5)[0] == 0.2


def test_exact_match_scores_one():
    group = EvalGroup(key=(1,), ground_truths=[{5, 6, 7}])
    assert bmp_at_k([5, 6, 7], group, 3) == 1.0


def test_bmp_dominates_single_truth_precision():
    rng = np.random.default_rng(0)
    for _ in range(200):
        pred = rng.permutation(20).tolist()
        truths = [set(rng.choice(20, size=rng.integers(1, 8), replace=False).tolist())
                  for _ in range(rng.integers(1, 4))]
        group = EvalGroup(key=(0,), ground_truths=truths)
        k = int(rng.integers(1, 10))
        b = bmp_at_k(pred, group, k)
        assert 0 <= b <= 1
        for t in truths:
            assert b >= topk_metrics(pred, t, k)[0] - 1e-12


def test_empty_group_rejected():
    with pytest.raises(DataError):
        bmp_at_k([0], EvalGroup(key=(0,), ground_truths=[]), 1)


# ---------------------------------------------------------------------------
# run evaluation
# ---------------------------------------------------------------------------

def _write_rs_predictions(path, mapping):
    with open(path, "w", encoding="utf-8") as fh:
        for iid, herbs in mapping.items():
            fh.write(f"{iid}\t" + ",".join(f"{h}:0.9" for h in herbs) + "\n")


def test_perfect_predictions_score_one(tmp_path):
    instances = [_inst(0, {0, 1}, [3, 4, 5]), _inst(1, {2}, [1, 2, 6])]
    path = tmp_path / "pred.tsv"
    _write_rs_predictions(path, {0: [3, 4, 5, 0, 1], 1: [1, 2, 6, 0, 3]})
    report = evaluate_run(path, instances, ks=[3], head="rs")
    assert report.precision[3] == 1.0
    assert report.recall[3] == 1.0
    assert report.f1[3] == 1.0
    assert report.bmp[3] == 1.0
    assert report.n_instances == 2
    assert report.n_groups == 2


def test_random_predictions_match_hypergeometric_expectation(tmp_path):
    rng = np.random.default_rng(42)
    h, k, n = 60, 5, 400
    instances = []
    preds = {}
    for i in range(n):
        truth = rng.choice(h, size=8, replace=False).tolist()
        instances.append(_inst(i, {i % 17}, truth))
        preds[i] = rng.permutation(h).tolist()
    path = tmp_path / "pred.tsv"
    _write_rs_predictions(path, preds)
    report = evaluate_run(path, instances, ks=[k], head="rs")
    expected = 8 / h
    var_one = k * (8 / h) * (1 - 8 / h) * (h - k) / (h - 1) / k ** 2
    sigma = np.sqrt(var_one / n)
    assert abs(report.precision[k] - expected) <= 3 * sigma


def test_seq_head_reports_bmp_only(tmp_path):
    instances = [_inst(0, {0, 1}, [3, 4]), _inst(1, {0, 1}, [5, 6]),
                 _inst(2, {2}, [1, 2])]
    path = tmp_path / "pred.tsv"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("0\t3,4\n1\t3,4\n2\t9\n")
    report = evaluate_run(path, instances, ks=[2], head="seq")
    assert report.precision == {}
    assert report.n_groups == 2
    # group {0,1}: prediction [3,4] matches truth {3,4} fully; group {2}: zero
    assert report.bmp[2] == (1.0 + 0.0) / 2


def test_grouping_collects_all_truths():
    instances = [_inst(0, {1, 2}, [3]), _inst(1, {2, 1}, [4]), _inst(2, {3}, [5])]
    groups = group_instances(instances, {0: [3], 1: [4], 2: [5]})
    by_key = {g.key: g for g in groups}
    assert set(by_key) == {(1, 2), (3,)}
    assert by_key[(1, 2)].ground_truths == [{3}, {4}]
    assert by_key[(1, 2)].prediction == [3]


def test_missing_prediction_rejected(tmp_path):
    instances = [_inst(0, {0}, [1]), _inst(1, {1}, [2])]
    path = tmp_path / "pred.tsv"
    _write_rs_predictions(path, {0: [1]})
    with pytest.raises(DataError, match="missing predictions"):
        evaluate_run(path, instances, ks=[1], head="rs")


def test_report_round_trips_byte_identical(tmp_path):
    instances = [_inst(0, {0}, [1, 2]), _inst(1, {1}, [3])]
    path = tmp_path / "pred.tsv"
    _write_rs_predictions(path, {0: [1, 5, 2], 1: [3, 0, 4]})
    report = evaluate_run(path, instances, ks=[1, 3], head="rs",
                          config={"seed": 7})
    out = tmp_path / "report.json"
    report.save(out)
    loaded = MetricReport.load(out)
    again = tmp_path / "report2.json"
    loaded.save(again)
    assert out.read_bytes() == again.read_bytes()
    assert loaded.precision == report.precision
    assert loaded.bmp == report.bmp


def test_prediction_file_parsing(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("0\t1:0.5,2:0.25\n1\t\n", encoding="utf-8")
    preds = load_predictions(path, scored=True)
    assert preds == {0: [1, 2], 1: []}
    path.write_text("no tabs here\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        load_predictions(path, scored=True)


@pytest.mark.parametrize("line, scored", [
    ("0\tx:1", True),       # herb id
    ("x\t1:0.5", True),     # instance id
    ("0\t1,y", False),
    ("0.5\t1", False),
])
def test_non_integer_prediction_ids_name_file_and_line(tmp_path, line, scored):
    path = tmp_path / "pred.tsv"
    path.write_text(f"1\t\n{line}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"pred\.tsv:2: ids must be integers"):
        load_predictions(path, scored=scored)


@pytest.mark.parametrize("entry", ["1", "1:", "1:x", "1:nan", "1:inf", "1:0.5:2"])
def test_scored_predictions_need_a_finite_score_per_herb(tmp_path, entry):
    path = tmp_path / "pred.tsv"
    path.write_text(f"1\t2:0.5\n2\t3:0.25,{entry}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=rf"pred\.tsv:2: expected herb_id:score "
                                          rf"entries with finite scores, got '{entry}'"):
        load_predictions(path, scored=True)


@pytest.mark.parametrize("lines, scored", [
    ("3\t1:0.9,2:0.1\n4\t2:0.5\n3\t2:0.9,1:0.1", True),
    ("3\t1,2\n4\t\n3\t2", False),
], ids=["scored", "sequence"])
def test_repeated_prediction_id_names_file_line_and_id(tmp_path, lines, scored):
    path = tmp_path / "pred.tsv"
    path.write_text(f"{lines}\n", encoding="utf-8")
    with pytest.raises(SchemaError, match=r"pred\.tsv:3: second prediction for "
                                          r"instance 3"):
        load_predictions(path, scored=scored)
