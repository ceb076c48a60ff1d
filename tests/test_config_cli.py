import json
import os

import numpy as np
import pytest

from fmash.checkpoint import load_checkpoint, save_checkpoint
from fmash.cli import execute_command
from fmash.config import (config_from_dict, config_hash, parse_config,
                          serialize_config)
from fmash.errors import ConfigError, SchemaError


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

def test_minimal_config_gets_defaults(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"paths": {"corpus": "c", "workdir": "w"}}))
    cfg = parse_config(path)
    assert cfg.dims.d == 64
    assert cfg.train.seed == 42
    assert cfg.graph.tau_s == 2
    assert cfg.ablation.gelram is True


def test_negative_dimension_names_the_key(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"dims": {"d": -1}}))
    with pytest.raises(ConfigError, match="dims.d"):
        parse_config(path)


def test_unknown_keys_rejected_with_path():
    with pytest.raises(ConfigError, match="dims.bogus"):
        config_from_dict({"dims": {"bogus": 3}})
    with pytest.raises(ConfigError, match="mystery"):
        config_from_dict({"mystery": {}})


def test_type_errors_name_the_key():
    with pytest.raises(ConfigError, match="train.lr"):
        config_from_dict({"train": {"lr": "fast"}})
    with pytest.raises(ConfigError, match="ablation.fr"):
        config_from_dict({"ablation": {"fr": 1}})
    with pytest.raises(ConfigError, match="train.ratio"):
        config_from_dict({"train": {"ratio": [0.5, 0.5]}})


def test_config_round_trip(tmp_path):
    cfg = config_from_dict({"dims": {"d": 32, "d_m": 8},
                            "train": {"seed": 9, "epochs": 12},
                            "ablation": {"fr": False}})
    path = tmp_path / "run.json"
    path.write_text(serialize_config(cfg))
    again = parse_config(path)
    assert serialize_config(again) == serialize_config(cfg)
    assert config_hash(again) == config_hash(cfg)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

def test_checkpoint_roundtrip_and_determinism(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {"a.weight": rng.normal(size=(3, 4)), "b.bias": rng.normal(size=5),
               "scalar": np.asarray(2.5)}
    p1, p2 = tmp_path / "one.ckpt", tmp_path / "two.ckpt"
    save_checkpoint(p1, tensors, config_hash="abc")
    save_checkpoint(p2, tensors, config_hash="abc")
    assert p1.read_bytes() == p2.read_bytes()
    loaded, chash = load_checkpoint(p1)
    assert chash == "abc"
    assert set(loaded) == set(tensors)
    for k in tensors:
        np.testing.assert_array_equal(loaded[k], tensors[k])


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(SchemaError):
        load_checkpoint(path)
    with pytest.raises(SchemaError):
        load_checkpoint(tmp_path / "absent.ckpt")


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------

@pytest.fixture()
def run_env(tmp_path):
    corpus = tmp_path / "corpus"
    work = tmp_path / "work"
    code = execute_command(["synth", "--out", str(corpus), "--n-sym", "12",
                            "--n-herb", "12", "--n-syndromes", "2",
                            "--n-prescriptions", "30", "--seed", "5"])
    assert code == 0
    cfg = {
        "paths": {"corpus": str(corpus), "workdir": str(work)},
        "dims": {"d": 32, "d_m": 16, "d_k": 8, "d_enc": 32, "d_z": 8,
                 "d_text": 8, "d_state": 4},
        "graph": {"tau_s": 1, "tau_h": 1},
        "train": {"epochs": 40, "lr": 5e-3, "seed": 11, "mlfie_epochs": 15,
                  "vae_epochs": 25, "fr_epochs": 60},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path, cfg


def test_full_rs_pipeline(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    assert execute_command(["train-rs", "--config", str(cfg_path)]) == 0
    pred = tmp_path / "work" / "rs_predictions.tsv"
    assert pred.exists()
    assert execute_command(["evaluate", "--config", str(cfg_path),
                            "--pred", str(pred), "--k", "5,10,20"]) == 0
    report = json.loads((tmp_path / "work" / "report_rs.json").read_text())
    assert sorted(report["precision"]) == ["10", "20", "5"]
    assert sorted(report["bmp"]) == ["10", "20", "5"]
    out = capsys.readouterr().out
    assert "P@5=" in out and "BMP@20=" in out


def test_seq_pipeline_and_generate(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    assert execute_command(["train-seq", "--config", str(cfg_path)]) == 0
    pred = tmp_path / "work" / "seq_predictions.tsv"
    assert pred.exists()
    assert execute_command(["evaluate", "--config", str(cfg_path),
                            "--pred", str(pred), "--head", "seq",
                            "--k", "5"]) == 0
    report = json.loads((tmp_path / "work" / "report_seq.json").read_text())
    assert report["precision"] == {}
    assert "5" in report["bmp"]
    assert execute_command(["generate", "--config", str(cfg_path),
                            "--symptoms", "sym-001,sym-003"]) == 0


def test_recommend_command_and_name_resolution(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    execute_command(["train-rs", "--config", str(cfg_path)])
    capsys.readouterr()
    assert execute_command(["recommend", "--config", str(cfg_path),
                            "--symptoms", "sym-001, sym-003", "--k", "3"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    assert lines[0].startswith("1\therb-")

    code = execute_command(["recommend", "--config", str(cfg_path),
                            "--symptoms", "sym-001x", "--k", "3"])
    assert code == 2
    assert "did you mean" in capsys.readouterr().err


def test_usage_errors_exit_one(run_env, capsys):
    _, cfg_path, _ = run_env
    assert execute_command(["recommend", "--config", str(cfg_path),
                            "--symptoms", "a", "--k", "0"]) == 1
    assert execute_command(["frobnicate"]) == 1
    assert execute_command(["evaluate", "--config", str(cfg_path),
                            "--pred", "x", "--k", "0,5"]) == 1


def test_missing_artifacts_exit_two(run_env):
    tmp_path, cfg_path, _ = run_env
    # evaluate before prepare/train
    assert execute_command(["evaluate", "--config", str(cfg_path),
                            "--pred", str(tmp_path / "nope.tsv")]) == 2
    # train before prepare
    assert execute_command(["train-rs", "--config", str(cfg_path)]) == 2
    # recommend before training
    execute_command(["prepare", "--config", str(cfg_path)])
    assert execute_command(["recommend", "--config", str(cfg_path),
                            "--symptoms", "sym-001", "--k", "2"]) == 2


def test_impute_mol_export(run_env):
    tmp_path, cfg_path, _ = run_env
    out = tmp_path / "imputed.tsv"
    assert execute_command(["impute-mol", "--config", str(cfg_path),
                            "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dim=16"
    assert len(lines) > 1
    assert all(line.split("\t")[1] == "-1" for line in lines[1:])


def test_repeated_runs_byte_identical(run_env):
    tmp_path, cfg_path, _ = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    execute_command(["train-rs", "--config", str(cfg_path)])
    first = (tmp_path / "work" / "rs.ckpt").read_bytes()
    first_pred = (tmp_path / "work" / "rs_predictions.tsv").read_bytes()
    execute_command(["train-rs", "--config", str(cfg_path)])
    assert (tmp_path / "work" / "rs.ckpt").read_bytes() == first
    assert (tmp_path / "work" / "rs_predictions.tsv").read_bytes() == first_pred


def test_env_seed_override(run_env):
    tmp_path, cfg_path, _ = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    execute_command(["train-rs", "--config", str(cfg_path)])
    baseline = (tmp_path / "work" / "rs.ckpt").read_bytes()
    os.environ["FMASH_SEED"] = "999"
    try:
        execute_command(["prepare", "--config", str(cfg_path)])
        execute_command(["train-rs", "--config", str(cfg_path)])
        assert (tmp_path / "work" / "rs.ckpt").read_bytes() != baseline
    finally:
        del os.environ["FMASH_SEED"]


def test_ablation_leaves_shared_stage_initialization_alone(run_env):
    tmp_path, cfg_path, cfg = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    execute_command(["train-rs", "--config", str(cfg_path)])
    with_gelram, _ = load_checkpoint(tmp_path / "work" / "rs.ckpt")

    cfg_off = dict(cfg)
    cfg_off["ablation"] = {"gelram": False}
    cfg_off_path = tmp_path / "run_off.json"
    cfg_off_path.write_text(json.dumps(cfg_off))
    execute_command(["prepare", "--config", str(cfg_off_path)])
    execute_command(["train-rs", "--config", str(cfg_off_path)])
    without_gelram, _ = load_checkpoint(tmp_path / "work" / "rs.ckpt")

    shared = [k for k in with_gelram
              if k.startswith(("hgre.", "mlfie.", "refine.", "init_features",
                               "unified."))]
    assert shared
    for k in shared:
        np.testing.assert_array_equal(with_gelram[k], without_gelram[k])


def _set_first_property(value):
    def edit(row):
        row["properties"][0] = value
    return edit


@pytest.mark.parametrize("fname, edit, key", [
    ("herbs.jsonl", _set_first_property(float("nan")), "properties"),
    ("herbs.jsonl", lambda row: row.pop("name"), "name"),
    ("herbs.jsonl", lambda row: row.pop("properties"), "properties"),
    ("symptoms.jsonl", lambda row: row.update(text_embedding=[0.5, float("inf")]),
     "text_embedding"),
    ("symptoms.jsonl", lambda row: row.pop("id"), "id"),
])
def test_bad_corpus_row_exits_two_naming_file_line_and_key(run_env, capsys, fname,
                                                           edit, key):
    tmp_path, cfg_path, _ = run_env
    path = tmp_path / "corpus" / fname
    lines = path.read_text().splitlines()
    row = json.loads(lines[2])
    edit(row)
    lines[2] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n")
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{fname}:3" in err and repr(key) in err
