import ast
import contextlib
import importlib
import io
import json
import os
import re
import shutil
import struct
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmash
from fmash import cli, mlfie, pipeline
from fmash.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from fmash.cli import execute_command
from fmash.config import (RunConfig, config_from_dict, config_hash, parse_config,
                          serialize_config)
from fmash.dataio import build_graph, load_corpus, save_molecular_table, split_dataset
from fmash.errors import ConfigError, SchemaError
from fmash.mlfie import impute_missing
from fmash.pipeline import (HEAD_ONLY_KEYS, PATH_KEYS, phase1_key, phase1_state,
                            run_phase1)
from fmash.recsys import make_rs_params, train_rs
from phase1_calls import PHASE1_STAGES, initial_features, record_calls

ROOT = Path(__file__).resolve().parents[1]

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


def test_every_config_key_is_read():
    package = Path(fmash.__file__).parent
    code = "\n".join(p.read_text(encoding="utf-8")
                     for p in sorted(package.glob("*.py")) if p.name != "config.py")
    cfg = RunConfig()
    keys = [f"{section.name}.{key.name}" for section in fields(cfg)
            for key in fields(getattr(cfg, section.name))]
    assert keys
    unread = [k for k in keys if not re.search(rf"\b{re.escape(k)}\b", code)]
    assert unread == []


# the library defaults that may shadow a run setting, each with its reason
SHADOWING_DEFAULTS = {
    "recsys.make_rs_params.gelram": "the default head that train_rs builds without "
                                    "params, which only the bench's tuning uses",
    "recsys.make_rs_params.d_enc": "the width of that same default head",
}


def _defaulted_parameters(node: ast.AST, prefix: str):
    """``module.Qualified.name.param`` for each parameter with a default of
    every def under ``node``, methods and nested defs included."""
    for child in ast.iter_child_nodes(node):
        name = prefix
        if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            name = f"{prefix}.{child.name}"
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            args = child.args
            positional = args.posonlyargs + args.args
            defaulted = positional[len(positional) - len(args.defaults):]
            defaulted += [a for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
            yield from (f"{name}.{a.arg}" for a in defaulted)
        yield from _defaulted_parameters(child, name)


def test_no_library_default_shadows_a_run_setting():
    """``RunConfig`` holds the one default of each run setting: outside
    ``config``, no parameter named after a ``RunConfig`` field has a default,
    except those in ``SHADOWING_DEFAULTS``, which must all still exist."""
    package = Path(fmash.__file__).parent
    cfg = RunConfig()
    settings = {key.name for section in fields(cfg)
                for key in fields(getattr(cfg, section.name))}
    shadowing = {qualified for path in sorted(package.glob("*.py"))
                 if path.name != "config.py"
                 for qualified in _defaulted_parameters(
                     ast.parse(path.read_text(encoding="utf-8")), path.stem)
                 if qualified.rsplit(".", 1)[1] in settings}
    assert sorted(shadowing - set(SHADOWING_DEFAULTS)) == []
    assert sorted(set(SHADOWING_DEFAULTS) - shadowing) == []


def _public_names(node: ast.stmt) -> list[str]:
    """The public names a top-level statement defines: a def or class, or
    the UPPER_CASE names of an assignment (a module constant)."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
    else:
        names = []
    return [name for name in names if not name.startswith("_")]


def test_every_public_definition_has_a_caller():
    """A public top-level def, class or UPPER_CASE constant in the package
    counts as called when its name appears outside its own definition, in
    the package or in ``bench/*.py``; a re-export in ``__init__.py`` does
    not count."""
    package = Path(fmash.__file__).parent
    paths = sorted(package.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    sources = {path: path.read_text(encoding="utf-8").splitlines()
               for path in paths if path.name != "__init__.py"}
    checked, uncalled = [], []
    for path, lines in sources.items():
        if path.parent != package:
            continue
        for node in ast.parse("\n".join(lines)).body:
            own = range(node.lineno - 1, node.end_lineno)
            for public in _public_names(node):
                checked.append(public)
                name = re.compile(rf"\b{public}\b")
                if not any(name.search(line) for other, text in sources.items()
                           for i, line in enumerate(text)
                           if not (other == path and i in own)):
                    uncalled.append(public)
    assert {"EXIT_OK", "NEG_INF", "HEAD_ONLY_KEYS"} <= set(checked)
    assert uncalled == []


def test_demos_import_only_names_that_exist():
    demos = sorted((ROOT / "demos").glob("*.py"))
    assert demos
    for path in demos:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not (isinstance(node, ast.ImportFrom)
                    and node.module.split(".")[0] == "fmash"):
                continue
            module = importlib.import_module(node.module)
            missing = [alias.name for alias in node.names
                       if not hasattr(module, alias.name)]
            assert missing == [], f"{path.name}: {node.module} has no {missing}"


# demos 05 and 06 take 4 s and 29 s; the import check above covers them.  The
# shell demo runs every command as its own ``fmash`` process: the one check
# that a fresh process serves end to end.
@pytest.mark.parametrize("demo", ["01_corpus_and_graph.py", "02_graph_embedding.py",
                                  "03_molecular_features.py",
                                  "04_feature_refinement.py",
                                  "07_evaluation_metrics.py", "08_cli_pipeline.sh"])
def test_demo_runs_to_completion(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    if demo.endswith(".sh"):
        shim = tmp_path / "bin" / "fmash"
        shim.parent.mkdir()
        shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m fmash.cli "$@"\n')
        shim.chmod(0o755)
        env["PATH"] = os.pathsep.join([str(shim.parent), env.get("PATH", "")])
        command = ["bash", str(ROOT / "demos" / demo)]
    else:
        command = [sys.executable, str(ROOT / "demos" / demo)]
    result = subprocess.run(command, cwd=tmp_path, env=env, capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr


def test_only_nn_builds_an_optimizer():
    """Every model trains through ``nn.fit``: no other module builds an Adam."""
    package = Path(fmash.__file__).parent
    builders = [p.name for p in sorted(package.glob("*.py"))
                if p.name != "nn.py" and "Adam(" in p.read_text(encoding="utf-8")]
    assert builders == []


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


def _edit_header(raw: bytes, edit) -> bytes:
    """``raw`` with ``edit`` applied to its header's tensor records."""
    start = len(MAGIC) + 8
    (size,) = struct.unpack_from("<Q", raw, len(MAGIC))
    header = json.loads(raw[start:start + size])
    edit(header["tensors"])
    text = json.dumps(header, sort_keys=True).encode("utf-8")
    return MAGIC + struct.pack("<Q", len(text)) + text + raw[start + size:]


def test_checkpoint_stores_each_tensor_in_its_own_dtype(tmp_path):
    tensors = {"half": np.arange(6, dtype=np.float32).reshape(2, 3) / 3,
               "full": np.arange(4, dtype=np.float64) / 3}
    path = tmp_path / "mixed.ckpt"
    save_checkpoint(path, tensors)
    loaded, _ = load_checkpoint(path)
    for name, arr in tensors.items():
        assert loaded[name].dtype == arr.dtype
        np.testing.assert_array_equal(loaded[name], arr)
    with pytest.raises(TypeError, match="'ints'"):
        save_checkpoint(path, {"ints": np.arange(3)})


@pytest.mark.parametrize("field, value, what", [
    ("dtype", "float16", "has unknown dtype 'float16'"),
    ("dtype", "float64", "holds 24 bytes"),
    ("nbytes", 20, "holds 20 bytes"),
])
def test_checkpoint_header_dtype_and_byte_count_checked(tmp_path, field, value, what):
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, {"a": np.ones((2, 3), dtype=np.float32)})
    path.write_bytes(_edit_header(path.read_bytes(),
                                  lambda records: records[0].update({field: value})))
    with pytest.raises(SchemaError, match=f"edited.ckpt: tensor 'a' {what}"):
        load_checkpoint(path)


@pytest.mark.parametrize("edit", [
    {"shape": [-1], "nbytes": -4},      # count -1 would read to the end of the file
    {"shape": [True, 6]},
    {"shape": [6.0]},
    {"shape": 6},
    {"offset": -4},
    {"nbytes": 24.0},
])
def test_checkpoint_header_sizes_must_be_non_negative_ints(tmp_path, edit):
    path = tmp_path / "edited.ckpt"
    save_checkpoint(path, {"a": np.arange(6, dtype=np.float32),
                           "b": np.ones(3, dtype=np.float32)})
    path.write_bytes(_edit_header(path.read_bytes(),
                                  lambda records: records[0].update(edit)))
    with pytest.raises(SchemaError, match="edited.ckpt: tensor 'a' has shape "):
        load_checkpoint(path)


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_bytes(b"not a checkpoint")
    with pytest.raises(SchemaError):
        load_checkpoint(path)
    with pytest.raises(SchemaError):
        load_checkpoint(tmp_path / "absent.ckpt")

    good = tmp_path / "good.ckpt"
    save_checkpoint(good, {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}, "abc")
    raw = good.read_bytes()
    # inside the header length, inside the header JSON, inside the last blob
    for cut in (12, 15, 40, len(raw) - 9):
        path.write_bytes(raw[:cut])
        with pytest.raises(SchemaError, match="bad.ckpt"):
            load_checkpoint(path)
    # a header length past any index, on a file cut after a header that parses
    start = len(MAGIC) + 8
    (size,) = struct.unpack_from("<Q", raw, len(MAGIC))
    path.write_bytes(MAGIC + struct.pack("<Q", size + 2 ** 63) + raw[start:start + size])
    with pytest.raises(SchemaError, match="bad.ckpt: truncated or corrupt"):
        load_checkpoint(path)


# ---------------------------------------------------------------------------
# CLI pipeline
# ---------------------------------------------------------------------------

def _make_env(tmp_path):
    corpus = tmp_path / "corpus"
    work = tmp_path / "work"
    code = execute_command(["synth", "--out", str(corpus), "--n-sym", "12",
                            "--n-herb", "12", "--n-syndromes", "2",
                            "--n-prescriptions", "30", "--seed", "5"])
    assert code == 0
    cfg = {
        "paths": {"corpus": str(corpus), "workdir": str(work)},
        "dims": {"d": 32, "d_m": 16, "d_k": 8, "d_enc": 32, "d_z": 8,
                 "d_state": 4},
        "graph": {"tau_s": 1, "tau_h": 1},
        "train": {"epochs": 40, "lr": 5e-3, "seed": 11, "mlfie_epochs": 15,
                  "vae_epochs": 25, "fr_epochs": 60},
    }
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps(cfg))
    return tmp_path, cfg_path, cfg


@pytest.fixture()
def run_env(tmp_path):
    return _make_env(tmp_path)


@pytest.fixture(scope="module")
def trained_env(tmp_path_factory):
    """``run_env`` after ``prepare``, ``train-rs`` and ``train-seq``, run once
    for the module; a test that edits a file in it restores the file."""
    env = _make_env(tmp_path_factory.mktemp("trained"))
    for cmd in ("prepare", "train-rs", "train-seq"):
        assert execute_command([cmd, "--config", str(env[1])]) == 0
    return env


def test_full_rs_pipeline(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    out = capsys.readouterr().out
    for name in ("mlfie_alignment", "vae", "fr_sym", "fr_herb"):
        assert f"phase 1 {name}: " in out, name
    assert execute_command(["train-rs", "--config", str(cfg_path)]) == 0
    pred = tmp_path / "work" / "rs_predictions.tsv"
    assert pred.exists()
    # the corpus has 12 herbs: a larger cutoff is refused
    assert execute_command(["evaluate", "--config", str(cfg_path),
                            "--pred", str(pred), "--k", "5,10,12"]) == 0
    report = json.loads((tmp_path / "work" / "report_rs.json").read_text())
    assert sorted(report["precision"]) == ["10", "12", "5"]
    assert sorted(report["bmp"]) == ["10", "12", "5"]
    out = capsys.readouterr().out
    assert "P@5=" in out and "BMP@12=" in out


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


def test_one_parser_serves_a_sequence_of_commands(trained_env, capsys):
    """The parser is built once per process and reused: each command of a
    sequence prints and exits as it does on a freshly built parser."""
    cfg = str(trained_env[1])
    symptoms = ["--symptoms", "sym-001,sym-003"]
    sequence = [["recommend", "--config", cfg, *symptoms, "--k", "3"],
                ["recommend", "--config", cfg, "--k", "3"],
                ["generate", "--config", cfg, *symptoms],
                ["recommend", "--config", cfg, *symptoms, "--k", "5"]]

    def run(argv, fresh):
        if fresh:
            cli._build_parser.cache_clear()
        code = execute_command(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    reused = [run(argv, fresh=False) for argv in sequence]
    assert cli._build_parser() is cli._build_parser()
    assert reused == [run(argv, fresh=True) for argv in sequence]
    assert [code for code, _, _ in reused] == [0, 1, 0, 0]
    assert "required: --symptoms" in reused[1][2]


def test_usage_errors_exit_one(run_env, capsys):
    _, cfg_path, _ = run_env
    assert execute_command(["recommend", "--config", str(cfg_path),
                            "--symptoms", "a", "--k", "0"]) == 1
    assert execute_command(["frobnicate"]) == 1
    assert execute_command(["evaluate", "--config", str(cfg_path),
                            "--pred", "x", "--k", "0,5"]) == 1


def test_evaluate_rs_refuses_a_sequence_prediction_file(trained_env, capsys):
    """A sequence export holds no scores: ``--head rs`` exits 2 naming its
    first formula's line, and leaves the ranked report as it was."""
    root, cfg_path, _ = trained_env
    work = root / "work"
    seq_pred, report = work / "seq_predictions.tsv", work / "report_rs.json"
    line = next(n for n, text in enumerate(seq_pred.read_text().splitlines(), start=1)
                if text.split("\t")[1])
    argv = ["evaluate", "--config", str(cfg_path), "--pred"]
    assert execute_command(argv + [str(work / "rs_predictions.tsv")]) == 0
    before = report.read_bytes()
    capsys.readouterr()
    try:
        assert execute_command(argv + [str(seq_pred), "--head", "rs"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and f"{seq_pred}:{line}: expected herb_id:score" in err
        assert report.read_bytes() == before
    finally:
        report.unlink()


def test_evaluate_refuses_a_repeated_cutoff(run_env, capsys):
    # one report key per cutoff: a repeat would print its line twice
    _, cfg_path, _ = run_env
    capsys.readouterr()
    assert execute_command(["evaluate", "--config", str(cfg_path),
                            "--pred", "x", "--k", "10,5,5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error: --k repeats a cutoff: '10,5,5'")
    assert "Traceback" not in err


def test_evaluate_refuses_a_cutoff_above_the_herb_vocabulary(trained_env, capsys):
    # as ``recommend --k`` does; without ``--k``, the default cutoffs 5, 10
    # and 20 that the vocabulary holds
    root, cfg_path, _ = trained_env
    n_herb = len((root / "corpus" / "herbs.jsonl").read_text().splitlines())
    assert n_herb == 12
    pred, report = root / "work" / "rs_predictions.tsv", root / "work" / "report_rs.json"
    for ks, code in ((["--k", "5,13"], 1), (["--k", "100000"], 1), (["--k", "12"], 0),
                     ([], 0)):
        capsys.readouterr()
        assert execute_command(["evaluate", "--config", str(cfg_path), "--pred",
                                str(pred), *ks]) == code
        err = capsys.readouterr().err
        if code:
            assert err.startswith("usage error: --k ") and "(12)" in err
            assert "Traceback" not in err
    assert sorted(json.loads(report.read_text())["precision"]) == ["10", "5"]
    report.unlink()


@pytest.mark.parametrize("ratio, part", [([0.01, 0.5, 0.49], "train"),
                                         ([0.98, 0.01, 0.01], "valid"),
                                         ([0.89, 0.1, 0.01], "test")])
def test_prepare_refuses_a_ratio_that_leaves_a_split_empty(run_env, capsys, ratio, part):
    # 30 prescriptions: a 0.01 share rounds to no instance
    tmp_path, cfg_path, cfg = run_env
    cfg["train"]["ratio"] = ratio
    cfg_path.write_text(json.dumps(cfg))
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "prescriptions.jsonl" in err and "train.ratio" in err
    assert f"leaves the {part} split" in err and "Traceback" not in err
    assert not (tmp_path / "work" / "splits.json").exists()


@pytest.mark.parametrize("key, value", [
    ("lr", float("nan")), ("lr", float("inf")), ("lr", float("-inf")), ("lr", 10 ** 400),
    ("ratio", [float("nan"), 0.1, 0.2]), ("ratio", [0.7, float("nan"), 0.2]),
    ("ratio", [0.7, 0.1, float("nan")])],
    ids=["lr-nan", "lr-inf", "lr-minus-inf", "lr-beyond-float", "ratio-nan-0", "ratio-nan-1",
         "ratio-nan-2"])
def test_prepare_refuses_a_non_finite_number_naming_its_key(run_env, capsys, key, value):
    # json writes NaN and Infinity, and every comparison with NaN is false
    tmp_path, cfg_path, cfg = run_env
    cfg["train"][key] = value
    cfg_path.write_text(json.dumps(cfg))
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"train.{key}: expected a" in err and "finite" in err
    assert "Traceback" not in err
    assert not (tmp_path / "work").exists()


def _tiny_env(tmp_path, synth_args, mlfie=True):
    """A synthetic corpus from ``synth_args`` and a config of the smallest
    dims and one epoch per fit."""
    corpus = tmp_path / "corpus"
    assert execute_command(["synth", "--out", str(corpus), "--seed", "5",
                            *synth_args]) == 0
    cfg_path = tmp_path / "run.json"
    cfg_path.write_text(json.dumps({
        "paths": {"corpus": str(corpus), "workdir": str(tmp_path / "work")},
        "dims": {"d": 8, "d_m": 8, "d_k": 4, "d_enc": 8, "d_z": 4, "d_state": 2},
        "train": {"epochs": 1, "seed": 11, "mlfie_epochs": 1, "vae_epochs": 1,
                  "fr_epochs": 1},
        "ablation": {"mlfie": mlfie}}))
    return corpus, cfg_path


@pytest.mark.parametrize("fraction, message", [
    ("1.0", "no herbs with molecular data to align"),
    ("0.9", "need at least 8 herbs with molecules to train the VAE, got 4"),
])
def test_molecular_stage_without_enough_molecules_names_the_herb_file(
        tmp_path, capsys, fraction, message):
    corpus, cfg_path = _tiny_env(tmp_path, [
        "--n-sym", "12", "--n-herb", "40", "--n-syndromes", "2",
        "--n-prescriptions", "30", "--missing-mol-fraction", fraction])
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"{corpus / 'herbs.jsonl'}: {message}" in err
    assert "`ablation.mlfie: false` skips the molecular stage" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("n_sym, n_herb, fname, rows", [
    ("6", "10", "symptoms.jsonl", 6), ("10", "5", "herbs.jsonl", 5),
])
def test_autoencoder_without_enough_rows_names_their_file(
        tmp_path, capsys, n_sym, n_herb, fname, rows):
    corpus, cfg_path = _tiny_env(tmp_path, [
        "--n-sym", n_sym, "--n-herb", n_herb, "--n-syndromes", "1",
        "--n-prescriptions", "12"], mlfie=False)
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert (f"{corpus / fname}: need at least 8 rows to train the autoencoder, "
            f"got {rows}") in err
    assert "Traceback" not in err


def test_evaluate_refuses_a_splits_file_without_test_instances(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    path = tmp_path / "work" / "splits.json"
    splits = json.loads(path.read_text())
    splits["train"] += splits.pop("test")
    splits["test"] = []
    path.write_text(json.dumps(splits))
    pred = tmp_path / "work" / "rs_predictions.tsv"
    pred.write_text("")
    capsys.readouterr()
    assert execute_command(["evaluate", "--config", str(cfg_path), "--pred",
                            str(pred)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: 'test' is empty")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["prepare", "train-rs", "evaluate"])
def test_a_config_that_is_not_utf8_exits_two_naming_it(tmp_path, capsys, command):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_bytes(b"\xff\xfe{}")
    argv = [command, "--config", str(cfg_path)]
    if command == "evaluate":
        argv += ["--pred", str(tmp_path / "pred.tsv")]
    assert execute_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {cfg_path}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("fname", ["symptoms.jsonl", "herbs.jsonl",
                                   "prescriptions.jsonl"])
def test_a_corpus_file_that_is_not_utf8_exits_two_naming_it(run_env, capsys, fname):
    """The byte that is not UTF-8 comes after 64 KiB of valid rows, so the
    reader has handed out rows before it meets it."""
    tmp_path, cfg_path, _ = run_env
    path = tmp_path / "corpus" / fname
    raw = path.read_bytes()
    path.write_bytes(raw * (2 ** 16 // len(raw) + 1) + b"\xff\n")
    capsys.readouterr()
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"data error: {path}: not UTF-8 text")
    assert "Traceback" not in err


@pytest.mark.parametrize("flags, flag", [
    (["--n-syndromes", "0"], "--n-syndromes"),
    (["--missing-mol-fraction", "1.5"], "--missing-mol-fraction"),
    (["--missing-mol-fraction", "-0.1"], "--missing-mol-fraction"),
    (["--n-prescriptions", "-5"], "--n-prescriptions"),
    (["--seed", "-1"], "--seed"),
    (["--mode", "conflicting", "--n-prescriptions", "1"], "--n-prescriptions"),
    (["--n-sym", "-3"], "--n-sym"),
    (["--n-sym", "5"], "--n-sym"),
    (["--n-herb", "3"], "--n-herb"),
    (["--n-herb", "24"], "--n-herb"),
    # the default 40 symptoms in 5 syndromes allow 770 distinct symptom sets
    (["--n-prescriptions", "771"], "--n-prescriptions"),
])
def test_synth_refuses_bad_flags_as_usage_errors(tmp_path, capsys, flags, flag):
    out = tmp_path / "corpus"
    assert execute_command(["synth", "--out", str(out)] + flags) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"usage error: {flag} ") and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("seed", [2, 3, 6])
def test_synth_draws_every_distinct_symptom_set_it_accepts(tmp_path, seed):
    """At these seeds the random draw misses the last unused sets of the 770
    that the default 40 symptoms in 5 syndromes allow."""
    out = tmp_path / "corpus"
    assert execute_command(["synth", "--out", str(out), "--n-prescriptions", "770",
                            "--seed", str(seed)]) == 0
    _, _, prescriptions = load_corpus(out)
    assert len({p.symptoms for p in prescriptions}) == len(prescriptions) == 770


@pytest.mark.parametrize("case", ["impute-mol-out-directory", "synth-out-file",
                                  "prepare-workdir-under-file", "evaluate-pred-directory"])
def test_os_errors_exit_two_naming_the_path(trained_env, tmp_path, capsys, case):
    _, cfg_path, cfg = trained_env
    a_dir, a_file = tmp_path / "a-dir", tmp_path / "a-file"
    a_dir.mkdir()
    a_file.write_text("not a directory\n")
    if case == "impute-mol-out-directory":
        argv, path = ["impute-mol", "--config", str(cfg_path), "--out", str(a_dir)], a_dir
    elif case == "synth-out-file":
        argv, path = ["synth", "--out", str(a_file)], a_file
    elif case == "prepare-workdir-under-file":
        path = a_file / "work"
        moved = {**cfg, "paths": {**cfg["paths"], "workdir": str(path)}}
        cfg_path = tmp_path / "run.json"
        cfg_path.write_text(json.dumps(moved))
        argv = ["prepare", "--config", str(cfg_path)]
    else:
        argv, path = ["evaluate", "--config", str(cfg_path), "--pred", str(a_dir)], a_dir
    assert execute_command(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error: ") and str(path) in err and "Traceback" not in err


def test_diverging_phase1_fit_exits_three_writing_no_artifacts(run_env, capsys):
    tmp_path, _, cfg = run_env
    cfg = json.loads(json.dumps(cfg))
    cfg["ablation"] = {"mlfie": False}
    cfg["train"]["lr"] = 1e200
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(cfg))
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    # the one-line message alone, with no numpy warning ahead of it
    assert len(err.splitlines()) == 1
    assert re.search(r"non-finite training loss at epoch \d+", err)
    # the symptom autoencoder is the first fit left with mlfie off
    assert "fr_sym: non-finite training loss" in err
    for name in ("phase1.ckpt", "unified.csv"):
        assert not (tmp_path / "work" / name).exists()


def test_phase1_whose_last_step_diverges_exits_three_writing_no_artifacts(run_env,
                                                                         capsys):
    # one epoch per autoencoder: its only loss is finite, and its only step
    # overflows the weights that compress the features into the table
    tmp_path, _, cfg = run_env
    cfg = json.loads(json.dumps(cfg))
    cfg["ablation"] = {"mlfie": False}
    cfg["train"].update(lr=1e36, fr_epochs=1)
    cfg_path = tmp_path / "diverge.json"
    cfg_path.write_text(json.dumps(cfg))
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 3
    err = capsys.readouterr().err
    assert err.splitlines() == ["numeric failure: fr_sym: non-finite features after training"]
    for name in ("phase1.ckpt", "unified.csv"):
        assert not (tmp_path / "work" / name).exists()


def test_missing_artifacts_exit_two(run_env, capsys):
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
    # train after the phase-1 checkpoint is gone
    (tmp_path / "work" / "phase1.ckpt").unlink()
    for cmd in ("train-rs", "train-seq"):
        capsys.readouterr()
        assert execute_command([cmd, "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "phase1.ckpt" in err and "fmash prepare" in err


def test_phase1_runs_once_per_prepared_workdir(run_env, monkeypatch):
    _, cfg_path, _ = run_env
    calls = []
    original = pipeline.run_phase1

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "run_phase1", counted)
    monkeypatch.setattr(cli, "run_phase1", counted)
    for cmd in ("prepare", "train-rs", "train-seq"):
        assert execute_command([cmd, "--config", str(cfg_path)]) == 0
    assert len(calls) == 1


@pytest.mark.parametrize("change, seed, code", [
    ({"train": {"epochs": 5}}, None, 0),
    ({"train": {"fr_epochs": 30}}, None, 2),
    ({"dims": {"d": 16}}, None, 2),
    ({}, "999", 2),
])
def test_phase1_checkpoint_keyed_by_phase1_inputs(run_env, capsys, monkeypatch,
                                                  change, seed, code):
    tmp_path, cfg_path, cfg = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    other = json.loads(json.dumps(cfg))
    for section, keys in change.items():
        other[section].update(keys)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    if seed is not None:
        monkeypatch.setenv("FMASH_SEED", seed)
    for cmd in ("train-rs", "train-seq"):
        capsys.readouterr()
        assert execute_command([cmd, "--config", str(other_path)]) == code
        if code:
            err = capsys.readouterr().err
            assert "phase1.ckpt" in err and "fmash prepare" in err


def _shift_first_property(text):
    rows = [json.loads(line) for line in text.splitlines()]
    rows[0]["properties"][0] += 1.0
    return "".join(json.dumps(row) + "\n" for row in rows)


def _move_valid_to_train(text):
    obj = json.loads(text)
    obj["train"].append(obj["valid"].pop())
    return json.dumps(obj)


@pytest.mark.parametrize("fname, edit", [
    ("corpus/herbs.jsonl", _shift_first_property),
    ("work/splits.json", _move_valid_to_train),
])
def test_phase1_checkpoint_keyed_by_corpus_and_splits(run_env, capsys, fname, edit):
    tmp_path, cfg_path, _ = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    path = tmp_path / fname
    path.write_text(edit(path.read_text()))
    capsys.readouterr()
    assert execute_command(["train-rs", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "phase1.ckpt" in err and "fmash prepare" in err


def _moved_project(tmp_path, cfg):
    """A copy of the prepared project under ``tmp_path / "moved"`` and the
    path of its config, which names the copied corpus and workdir."""
    moved = tmp_path / "moved"
    shutil.copytree(tmp_path / "corpus", moved / "corpus")
    shutil.copytree(tmp_path / "work", moved / "work")
    other = json.loads(json.dumps(cfg))
    other["paths"] = {"corpus": str(moved / "corpus"), "workdir": str(moved / "work")}
    path = moved / "run.json"
    path.write_text(json.dumps(other))
    return moved, path


def test_moved_project_trains_without_a_new_prepare(run_env, capsys):
    tmp_path, cfg_path, cfg = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    moved, moved_cfg = _moved_project(tmp_path, cfg)
    shutil.rmtree(tmp_path / "work")
    assert execute_command(["train-rs", "--config", str(moved_cfg)]) == 0
    assert (moved / "work" / "rs_predictions.tsv").exists()


def test_moved_project_with_an_edited_corpus_exits_two(run_env, capsys):
    tmp_path, cfg_path, cfg = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    moved, moved_cfg = _moved_project(tmp_path, cfg)
    herbs = moved / "corpus" / "herbs.jsonl"
    herbs.write_text(_shift_first_property(herbs.read_text()))
    capsys.readouterr()
    assert execute_command(["train-rs", "--config", str(moved_cfg)]) == 2
    err = capsys.readouterr().err
    assert "phase1.ckpt" in err and "fmash prepare" in err


def _changed(value):
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value + 1
    if isinstance(value, str):
        return value + "x"
    return value[::-1]


def test_phase1_key_ignores_exactly_the_head_only_keys():
    base = RunConfig()
    for section in fields(base):
        for key in fields(getattr(base, section.name)):
            cfg = RunConfig()
            target = getattr(cfg, section.name)
            setattr(target, key.name, _changed(getattr(target, key.name)))
            dotted = f"{section.name}.{key.name}"
            same = phase1_key(cfg) == phase1_key(base)
            assert same == (dotted in HEAD_ONLY_KEYS + PATH_KEYS), dotted


def _phase1_in_process(tmp_path, cfg_path):
    """The config, train split, herbs and phase-1 result of the prepared
    workdir, rebuilt without the CLI."""
    cfg = parse_config(cfg_path)
    symptoms, herbs, prescriptions = load_corpus(cfg.paths.corpus,
                                                 expected_p=cfg.dims.p)
    ids = json.loads((tmp_path / "work" / "splits.json").read_text())
    train = [p for i in ids["train"] for p in prescriptions if p.instance_id == i]
    graph = build_graph(train, len(symptoms), len(herbs),
                        tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
    return cfg, train, herbs, run_phase1(symptoms, herbs, graph, cfg)


def test_rs_checkpoint_matches_phase1_run_in_process(run_env):
    tmp_path, cfg_path, _ = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    assert execute_command(["train-rs", "--config", str(cfg_path)]) == 0
    cfg, train, _, phase1 = _phase1_in_process(tmp_path, cfg_path)
    result = train_rs(train, phase1.unified, epochs=cfg.train.epochs,
                      lr=cfg.train.lr, batch_size=cfg.train.batch or None,
                      seed=cfg.train.seed,
                      params=make_rs_params(phase1.unified, cfg.train.seed,
                                            gelram=cfg.ablation.gelram,
                                            d_enc=cfg.dims.d_enc))
    # the unified table and the head, under a header with no config hash
    state = {k: v for k, v in phase1_state(phase1).items()
             if k.startswith("unified.")}
    state.update({f"rs.{k}": v for k, v in result.params.state_dict().items()})
    expected = tmp_path / "expected.ckpt"
    save_checkpoint(expected, state)
    assert (tmp_path / "work" / "rs.ckpt").read_bytes() == expected.read_bytes()


def test_head_checkpoints_hold_only_the_unified_table_and_the_head(run_env):
    tmp_path, cfg_path, _ = run_env
    work = tmp_path / "work"
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    (work / "unified.csv").unlink()
    for head in ("rs", "seq"):
        assert execute_command([f"train-{head}", "--config", str(cfg_path)]) == 0
        state, header_hash = load_checkpoint(work / f"{head}.ckpt")
        assert header_hash == ""
        own = {k for k in state if k.startswith(f"{head}.")}
        assert own
        assert set(state) - own == {"unified.matrix", "unified.n_sym"}
    # only prepare writes the unified table
    assert not (work / "unified.csv").exists()


@pytest.mark.parametrize("mlfie_on", [True, False])
def test_prepare_writes_only_what_later_commands_read(run_env, mlfie_on):
    """``phase1.ckpt`` holds the unified table and, with the molecular stage
    on, the VAE that ``impute-mol`` loads, checked key by key against phase
    1 run in process; no ``vocab.json`` or other file no command reads."""
    tmp_path, cfg_path, cfg = run_env
    cfg["ablation"] = {"mlfie": mlfie_on}
    cfg_path.write_text(json.dumps(cfg))
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    work = tmp_path / "work"
    assert sorted(p.name for p in work.iterdir()) == ["phase1.ckpt", "splits.json",
                                                     "unified.csv"]
    state, _ = load_checkpoint(work / "phase1.ckpt")
    _, _, _, phase1 = _phase1_in_process(tmp_path, cfg_path)
    expected = {"unified.matrix": phase1.unified.matrix,
                "unified.n_sym": np.asarray(12, dtype=np.float32)}
    if mlfie_on:
        expected.update({f"mlfie.vae.{k}": v for k, v
                         in phase1.mlfie_params.vae.state_dict().items()})
    # 7 linear layers, a weight and a bias each
    assert len(expected) == (2 + 14 if mlfie_on else 2)
    assert sorted(state) == sorted(expected)
    for k, v in expected.items():
        assert state[k].dtype == v.dtype, k
        np.testing.assert_array_equal(state[k], v)


def test_phase1_checkpoint_of_the_old_layout_still_serves(run_env, monkeypatch):
    """A ``phase1.ckpt`` that also holds every other phase-1 component, as
    ``prepare`` wrote it before it kept only what a command loads, trains
    both heads and imputes exactly as the current file does."""
    tmp_path, cfg_path, _ = run_env
    work = tmp_path / "work"
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    path = work / "phase1.ckpt"
    current, key = load_checkpoint(path)
    with monkeypatch.context() as mp:
        calls = record_calls(mp, pipeline)
        _, _, _, phase1 = _phase1_in_process(tmp_path, cfg_path)
    (_, hgre), = calls["HgreParams"]
    (_, fr_sym), (_, fr_herb) = calls["AutoencoderParams"]
    # the old layout also held the fixed symptom text rows no stage builds now
    old = {**phase1_state(phase1), "init_features": initial_features(calls),
           "refine.text.table.weight": np.full((12, 8), 0.1, dtype=np.float32)}
    for prefix, module in (("hgre", hgre), ("mlfie", phase1.mlfie_params),
                           ("refine.sym", fr_sym), ("refine.herb", fr_herb)):
        old.update({f"{prefix}.{k}": v for k, v in module.state_dict().items()})
    assert set(old) > set(current)
    for k, v in current.items():
        np.testing.assert_array_equal(old[k], v)

    def outputs():
        for cmd in ("train-rs", "train-seq"):
            assert execute_command([cmd, "--config", str(cfg_path)]) == 0
        assert execute_command(["impute-mol", "--config", str(cfg_path), "--out",
                                str(work / "imputed.tsv")]) == 0
        return {name: (work / name).read_bytes()
                for name in ("rs.ckpt", "rs_predictions.tsv", "seq.ckpt",
                             "seq_predictions.tsv", "imputed.tsv")}

    expected = outputs()
    save_checkpoint(path, old, key)
    assert outputs() == expected


@pytest.mark.parametrize("text, what", [
    ('{"seed": 11, "train": [0, 1', "invalid JSON"),
    ("[]", "expected a JSON object"),
    ('{"valid": [], "test": [], "seed": 11}', "'train' must be a list"),
    ('{"train": [9999], "valid": [], "test": [], "seed": 11}',
     "unknown instance 9999"),
    ('{"train": [0], "valid": [], "test": [], "seed": "11"}',
     "'seed' must be an integer"),
    ('{"train": [0, 1], "valid": [], "test": [2, 3, 2], "seed": 11}',
     "'test' repeats instance 2, already listed in 'test'"),
    ('{"train": [0, 3], "valid": [1], "test": [2, 3], "seed": 11}',
     "'test' repeats instance 3, already listed in 'train'"),
])
def test_bad_splits_file_exits_two(run_env, capsys, text, what):
    tmp_path, cfg_path, _ = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    path = tmp_path / "work" / "splits.json"
    path.write_text(text)
    capsys.readouterr()
    assert execute_command(["train-rs", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and what in err


def test_serving_needs_no_prescriptions_file(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    for cmd in ("prepare", "train-rs", "train-seq"):
        execute_command([cmd, "--config", str(cfg_path)])
    (tmp_path / "corpus" / "prescriptions.jsonl").unlink()
    assert execute_command(["recommend", "--config", str(cfg_path),
                            "--symptoms", "sym-001", "--k", "2"]) == 0
    assert execute_command(["generate", "--config", str(cfg_path),
                            "--symptoms", "sym-001"]) == 0


def test_truncated_checkpoint_exits_two(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    execute_command(["train-rs", "--config", str(cfg_path)])
    path = tmp_path / "work" / "rs.ckpt"
    raw = path.read_bytes()
    for cut in (12, 40, len(raw) - 9):
        path.write_bytes(raw[:cut])
        capsys.readouterr()
        assert execute_command(["recommend", "--config", str(cfg_path),
                                "--symptoms", "sym-001", "--k", "2"]) == 2
        assert str(path) in capsys.readouterr().err


@pytest.mark.parametrize("fname, argv", [
    ("rs.ckpt", ["recommend", "--symptoms", "sym-001", "--k", "2"]),
    ("phase1.ckpt", ["train-seq"]),
])
def test_checkpoint_with_edited_dtype_exits_two(trained_env, capsys, fname, argv):
    root, cfg_path, _ = trained_env
    path = root / "work" / fname
    raw = path.read_bytes()
    path.write_bytes(_edit_header(raw, lambda records: records[-1].update(
        {"dtype": "complex64"})))
    capsys.readouterr()
    try:
        code = execute_command(argv + ["--config", str(cfg_path)])
    finally:
        path.write_bytes(raw)
    err = capsys.readouterr().err
    assert code == 2
    assert f"{path}: tensor " in err and "unknown dtype 'complex64'" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("section, change", [
    ("ablation", {"gelram": False}),
    ("dims", {"d_enc": 16}),
])
def test_head_from_other_config_exits_two(run_env, capsys, section, change):
    tmp_path, cfg_path, cfg = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    execute_command(["train-rs", "--config", str(cfg_path)])
    other = json.loads(json.dumps(cfg))
    other.setdefault(section, {}).update(change)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    capsys.readouterr()
    assert execute_command(["recommend", "--config", str(other_path),
                            "--symptoms", "sym-001", "--k", "2"]) == 2
    err = capsys.readouterr().err
    assert "rs.ckpt" in err and "different head config" in err


@pytest.mark.parametrize("fname, tensor, argv", [
    ("rs.ckpt", "rs.out.bias", ["recommend", "--symptoms", "sym-001", "--k", "2"]),
    ("seq.ckpt", "seq.out.bias", ["generate", "--symptoms", "sym-001"]),
    ("phase1.ckpt", "mlfie.vae.dec_out.bias", ["impute-mol", "--out", "imputed.tsv"]),
], ids=["rs", "seq", "mlfie"])
def test_checkpoint_missing_a_tensor_exits_two(trained_env, tmp_path, capsys,
                                              fname, tensor, argv):
    """Serving builds uninitialized modules; this check is what keeps their
    arrays from ever reaching output."""
    root, cfg_path, _ = trained_env
    path = root / "work" / fname
    raw = path.read_bytes()
    state, key = load_checkpoint(path)
    del state[tensor]
    save_checkpoint(path, state, key)
    argv = [str(tmp_path / a) if a.endswith(".tsv") else a for a in argv]
    capsys.readouterr()
    try:
        code = execute_command(argv + ["--config", str(cfg_path)])
    finally:
        path.write_bytes(raw)
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(path) in captured.err
    assert tensor in captured.err
    assert "no molecular stage" not in captured.err
    assert "Traceback" not in captured.err
    assert not (tmp_path / "imputed.tsv").exists()


def _old_head_layout(state: dict, head: str) -> dict:
    """A head checkpoint as fmash wrote it while every attention projected
    its keys with a bias and the sequence head's token tables each held
    BOS, EOS and PAD after the herbs."""
    old = {}
    for name, value in state.items():
        if name.endswith(".wk"):
            old[f"{name}.weight"] = value
            old[f"{name}.bias"] = np.zeros(value.shape[1], dtype=value.dtype)
        else:
            old[name] = value
    if head == "seq":
        emb, w, b = old["seq.tok_embed"], old["seq.out.weight"], old["seq.out.bias"]
        old["seq.tok_embed"] = np.concatenate([emb, emb[-2:]])
        old["seq.out.weight"] = np.concatenate([w, w[:, -2:]], axis=1)
        old["seq.out.bias"] = np.concatenate([b, b[-2:]])
    return old


@pytest.mark.parametrize("head, tensor, argv", [
    ("rs", "rs.layers.0.attn.wk.bias", ["recommend", "--symptoms", "sym-001", "--k", "2"]),
    ("seq", "seq.enc_layers.0.attn.wk.bias", ["generate", "--symptoms", "sym-001"]),
], ids=["rs", "seq"])
def test_head_checkpoint_of_the_old_layout_exits_two(trained_env, capsys, head, tensor,
                                                     argv):
    root, cfg_path, _ = trained_env
    path = root / "work" / f"{head}.ckpt"
    raw = path.read_bytes()
    state, key = load_checkpoint(path)
    save_checkpoint(path, _old_head_layout(state, head), key)
    capsys.readouterr()
    try:
        code = execute_command(argv + ["--config", str(cfg_path)])
    finally:
        path.write_bytes(raw)
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert str(path) in captured.err and tensor in captured.err
    assert f"rerun `fmash train-{head}`" in captured.err
    assert "Traceback" not in captured.err


def test_a_formula_of_600_herbs_trains_and_generates(tmp_path, capsys):
    """The sequence head has a position for BOS and every herb, so a
    training formula of 600 herbs trains, predicts and serves."""
    corpus, cfg_path = _tiny_env(tmp_path, [
        "--n-sym", "12", "--n-herb", "608", "--n-syndromes", "2",
        "--n-prescriptions", "12"])
    work = tmp_path / "work"
    _, _, prescriptions = load_corpus(corpus)
    long_id = split_dataset(prescriptions, (0.7, 0.1, 0.2), seed=11).train[0].instance_id
    path = corpus / "prescriptions.jsonl"
    lines = path.read_text(encoding="utf-8").splitlines()
    row = json.loads(lines[long_id])
    row["herbs"] = list(range(600))
    lines[long_id] = json.dumps(row)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    assert execute_command(["train-seq", "--config", str(cfg_path)]) == 0
    assert (work / "seq.ckpt").exists() and (work / "seq_predictions.tsv").exists()
    capsys.readouterr()
    assert execute_command(["generate", "--config", str(cfg_path),
                            "--symptoms", "sym-001"]) == 0
    captured = capsys.readouterr()
    assert captured.out and captured.err == ""


@pytest.mark.parametrize("fname, tensor, argv", [
    ("rs.ckpt", "rs.out.bias", ["recommend", "--symptoms", "sym-001", "--k", "2"]),
    ("seq.ckpt", "seq.out.bias", ["generate", "--symptoms", "sym-001"]),
], ids=["rs", "seq"])
def test_non_finite_head_scores_exit_three(trained_env, capsys, fname, tensor, argv):
    """On every call: the second one serves the head the first one built."""
    root, cfg_path, _ = trained_env
    path = root / "work" / fname
    raw = path.read_bytes()
    state, key = load_checkpoint(path)
    state[tensor] = np.full_like(state[tensor], np.nan)
    save_checkpoint(path, state, key)
    try:
        for _ in range(2):
            capsys.readouterr()
            code = execute_command(argv + ["--config", str(cfg_path)])
            captured = capsys.readouterr()
            assert code == 3
            assert captured.out == ""
            assert "non-finite" in captured.err and "Traceback" not in captured.err
    finally:
        path.write_bytes(raw)


def test_serving_output_does_not_depend_on_the_run_seed(trained_env, capsys,
                                                       monkeypatch):
    """Serving builds each head from the run seed and then loads every tensor
    from the checkpoint, so under another ``FMASH_SEED`` it prints the same
    lines: a test instance's ranking and formula as training exported them."""
    root, cfg_path, _ = trained_env
    symptoms, herbs, prescriptions = load_corpus(root / "corpus")
    work = root / "work"
    first = json.loads((work / "splits.json").read_text())["test"][0]
    names = ",".join(symptoms[i].name for i in prescriptions[first].symptoms)
    rows = {}
    for head in ("rs", "seq"):
        for line in (work / f"{head}_predictions.tsv").read_text().splitlines():
            instance_id, entries = line.split("\t")
            rows[head, int(instance_id)] = entries.split(",") if entries else []
    k = 5
    ranked = [herbs[int(e.split(":")[0])].name for e in rows["rs", first][:k]]
    formula = [herbs[int(h)].name for h in rows["seq", first]] or ["(empty formula)"]
    printed = []
    for seed in ("11", "12"):
        monkeypatch.setenv("FMASH_SEED", seed)
        cli._HEAD_MEMO.clear()    # so that each seed builds both heads
        capsys.readouterr()
        assert execute_command(["recommend", "--config", str(cfg_path),
                                "--symptoms", names, "--k", str(k)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split("\t")[1] for line in lines] == ranked
        assert execute_command(["generate", "--config", str(cfg_path),
                                "--symptoms", names]) == 0
        assert capsys.readouterr().out.splitlines() == formula
        printed.append(lines)
    assert printed[0] == printed[1]


@pytest.mark.parametrize("n_sym, n_herb", [(12, 10), (8, 12), (12, 20)],
                         ids=["fewer-herbs", "fewer-symptoms", "more-herbs"])
def test_serving_another_vocabulary_exits_two(run_env, capsys, n_sym, n_herb):
    tmp_path, cfg_path, cfg = run_env
    for cmd in ("prepare", "train-rs", "train-seq"):
        assert execute_command([cmd, "--config", str(cfg_path)]) == 0
    other_corpus = tmp_path / "other_corpus"
    assert execute_command(["synth", "--out", str(other_corpus),
                            "--n-sym", str(n_sym), "--n-herb", str(n_herb),
                            "--n-syndromes", "2", "--n-prescriptions", "10",
                            "--seed", "5"]) == 0
    other = json.loads(json.dumps(cfg))
    other["paths"]["corpus"] = str(other_corpus)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    for head, argv in (("rs", ["recommend", "--symptoms", "sym-001", "--k", "2"]),
                       ("seq", ["generate", "--symptoms", "sym-001"])):
        # the first call loads the head; the last serves the head that the
        # call with the prepared corpus built
        for config, code in ((other_path, 2), (cfg_path, 0), (other_path, 2)):
            capsys.readouterr()
            assert execute_command(argv + ["--config", str(config)]) == code
            err = capsys.readouterr().err
            if code == 0:
                continue
            assert "Traceback" not in err
            assert str(tmp_path / "work" / f"{head}.ckpt") in err
            assert str(other_corpus) in err
            assert "12 symptoms and 12 herbs" in err
            assert f"{n_sym} symptoms and {n_herb} herbs" in err


def _test_queries(root):
    """``--symptoms`` of each test instance of the prepared corpus, plus an
    unknown symptom, and the herb count."""
    symptoms, herbs, prescriptions = load_corpus(root / "corpus")
    test = set(json.loads((root / "work" / "splits.json").read_text())["test"])
    queries = [",".join(symptoms[i].name for i in sorted(p.symptoms))
               for p in prescriptions if p.instance_id in test]
    return queries + ["sym-999"], len(herbs)


def _serve(cfg_path, capsys, queries, n_herb):
    """Exit code and stdout of ``recommend`` (over every herb) and ``generate``
    for each query."""
    served = []
    for names in queries:
        for argv in (["recommend", "--symptoms", names, "--k", str(n_herb)],
                     ["generate", "--symptoms", names]):
            capsys.readouterr()
            code = execute_command(argv + ["--config", str(cfg_path)])
            served.append((argv[0], names, code, capsys.readouterr().out))
    return served


def test_vocab_memo_hit_reads_no_corpus(trained_env, capsys, monkeypatch):
    """Once every query has been served, serving them again validates no
    corpus file and serves the same output."""
    root, cfg_path, _ = trained_env
    queries = _test_queries(root)
    expected = _serve(cfg_path, capsys, *queries)

    def refused(*args, **kwargs):
        raise AssertionError("load_vocab called on a memo hit")

    monkeypatch.setattr(cli, "load_vocab", refused)
    monkeypatch.setattr(fmash.dataio, "load_vocab", refused)
    assert _serve(cfg_path, capsys, *queries) == expected


def test_renamed_herb_is_served_under_its_new_name(trained_env, capsys):
    """A herb renamed after a call that the memo now holds."""
    root, cfg_path, _ = trained_env
    argv = ["recommend", "--config", str(cfg_path), "--symptoms", "sym-001",
            "--k", "12"]
    path = root / "corpus" / "herbs.jsonl"
    raw = path.read_text()
    capsys.readouterr()
    assert execute_command(argv) == 0
    assert "\therb-003\t" in capsys.readouterr().out
    path.write_text(raw.replace('"herb-003"', '"herb-renamed"'))
    try:
        assert execute_command(argv) == 0
    finally:
        path.write_text(raw)
    names = [line.split("\t")[1] for line in capsys.readouterr().out.splitlines()]
    assert "herb-renamed" in names and "herb-003" not in names


def test_serving_with_another_property_width_exits_two(trained_env, tmp_path, capsys):
    """``dims.p`` is one of the memo's inputs: after calls the memo holds,
    both commands fail validating ``herbs.jsonl`` for the other width."""
    _, cfg_path, cfg = trained_env
    other = json.loads(json.dumps(cfg))
    other["dims"]["p"] = 22
    other_path = tmp_path / "other_p.json"
    other_path.write_text(json.dumps(other))
    for argv in (["recommend", "--symptoms", "sym-001", "--k", "2"],
                 ["generate", "--symptoms", "sym-001"]):
        assert execute_command(argv + ["--config", str(cfg_path)]) == 0
        capsys.readouterr()
        assert execute_command(argv + ["--config", str(other_path)]) == 2
        err = capsys.readouterr().err
        assert "herbs.jsonl:1" in err and "expected 22" in err


_HEAD_ARGV = {"rs": ["recommend", "--symptoms", "sym-001,sym-003", "--k", "5"],
              "seq": ["generate", "--symptoms", "sym-001,sym-003"]}


def _run(argv, cfg_path):
    """Exit code, stdout and stderr of one in-process command."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = execute_command(argv + ["--config", str(cfg_path)])
    return code, out.getvalue(), err.getvalue()


def _overwrite(path, raw):
    """Write ``raw`` over ``path`` in place: same file, no new inode."""
    with open(path, "r+b") as fh:
        fh.write(raw)
        fh.truncate()


class _NoMemo(dict):
    """A head memo that keeps nothing, so every call loads its checkpoint."""
    def __setitem__(self, key, value):
        pass


@pytest.mark.parametrize("head", ["rs", "seq"])
def test_head_memo_serves_a_checkpoint_rewritten_in_place(trained_env, tmp_path,
                                                          monkeypatch, head):
    """A rewrite of the same length between two calls is served from the
    new bytes, exactly as a first load of them."""
    root, cfg_path, _ = trained_env
    path = root / "work" / f"{head}.ckpt"
    raw = path.read_bytes()
    argv = _HEAD_ARGV[head]
    code, before, _ = _run(argv, cfg_path)
    assert code == 0
    _, herbs, _ = load_corpus(root / "corpus")
    # a herb the first output line does not name, which the edit puts first
    lifted = next(h for h in herbs if h.name not in before.splitlines()[0])
    state, key = load_checkpoint(path)
    state[f"{head}.out.bias"][lifted.id] = 100.0
    save_checkpoint(tmp_path / "edited.ckpt", state, key)
    edited = (tmp_path / "edited.ckpt").read_bytes()
    assert len(edited) == len(raw) and edited != raw
    try:
        _overwrite(path, edited)
        code, after, _ = _run(argv, cfg_path)
        monkeypatch.setattr(cli, "_HEAD_MEMO", _NoMemo())
        first_load = _run(argv, cfg_path)
    finally:
        _overwrite(path, raw)
    assert code == 0
    assert lifted.name in after.splitlines()[0]
    assert (code, after) == first_load[:2]


@pytest.mark.parametrize("head", ["rs", "seq"])
def test_head_memo_truncated_checkpoint_after_a_hit_exits_two(trained_env, head):
    root, cfg_path, _ = trained_env
    path = root / "work" / f"{head}.ckpt"
    raw = path.read_bytes()
    argv = _HEAD_ARGV[head]
    code, served, _ = _run(argv, cfg_path)
    assert code == 0
    try:
        for cut in (len(raw) - 9, 40, 12):
            with open(path, "r+b") as fh:
                fh.truncate(cut)
            code, out, err = _run(argv, cfg_path)
            assert (code, out) == (2, "")
            assert str(path) in err and "truncated or corrupt" in err
    finally:
        _overwrite(path, raw)
    assert _run(argv, cfg_path)[:2] == (0, served)


def test_files_missing_after_a_hit_exit_two_corpus_file_first(trained_env, tmp_path):
    root, cfg_path, _ = trained_env
    herbs, ckpt = root / "corpus" / "herbs.jsonl", root / "work" / "rs.ckpt"
    argv = _HEAD_ARGV["rs"]
    code, served, _ = _run(argv, cfg_path)
    assert code == 0
    try:
        for gone, message in (([ckpt], f"checkpoint not found: {ckpt}"),
                              ([ckpt, herbs], f"missing corpus file: {herbs}")):
            for path in gone:
                shutil.move(path, tmp_path / path.name)
            code, out, err = _run(argv, cfg_path)
            assert (code, out) == (2, "")
            assert message in err and "Traceback" not in err
            for path in gone:
                shutil.move(tmp_path / path.name, path)
    finally:
        for path in (ckpt, herbs):
            if not path.exists():
                shutil.move(tmp_path / path.name, path)
    assert _run(argv, cfg_path)[:2] == (0, served)


@pytest.mark.parametrize("section, change", [
    ("ablation", {"gelram": False}),
    ("dims", {"d_enc": 16}),
])
def test_head_memo_other_head_config_after_a_hit_exits_two(trained_env, tmp_path,
                                                           section, change):
    root, cfg_path, cfg = trained_env
    other = json.loads(json.dumps(cfg))
    other.setdefault(section, {}).update(change)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    argv = _HEAD_ARGV["rs"]
    code, served, _ = _run(argv, cfg_path)
    assert code == 0
    code, out, err = _run(argv, other_path)
    assert (code, out) == (2, "")
    assert "rs.ckpt" in err and "different head config" in err
    assert _run(argv, cfg_path)[:2] == (0, served)


@pytest.mark.parametrize("sections, seed", [({"train": {"epochs": 3}}, None),
                                           ({"dims": {"d_k": 4}}, None), ({}, "12")],
                         ids=["epochs", "d_k", "FMASH_SEED"])
def test_head_memo_reloads_after_any_config_change(trained_env, tmp_path, monkeypatch,
                                                   sections, seed):
    """The memo keys on the whole config: after a served call, a config that
    differs anywhere, even in a value serving does not read, loads the head
    again and serves what a first load serves."""
    root, cfg_path, cfg = trained_env
    other = json.loads(json.dumps(cfg))
    for section, values in sections.items():
        other[section].update(values)
    other_path = tmp_path / "other.json"
    other_path.write_text(json.dumps(other))
    loads = []
    monkeypatch.setattr(cli, "load_checkpoint",
                        lambda *args: loads.append(args) or load_checkpoint(*args))
    for argv in _HEAD_ARGV.values():
        monkeypatch.delenv("FMASH_SEED", raising=False)
        assert _run(argv, cfg_path)[0] == 0
        if seed is not None:
            monkeypatch.setenv("FMASH_SEED", seed)
        n = len(loads)
        served = _run(argv, other_path)
        assert len(loads) == n + 1
        cli._HEAD_MEMO.clear()
        assert _run(argv, other_path) == served and served[0] == 0


def test_head_memo_hit_parses_no_checkpoint_and_builds_no_head(trained_env, capsys,
                                                              monkeypatch):
    """A hit validates no corpus file, parses no checkpoint and builds no
    head, and serves what a load of the same bytes serves."""
    root, cfg_path, _ = trained_env
    queries = _test_queries(root)
    calls = dict.fromkeys(("load_vocab", "load_checkpoint", "make_rs_params",
                           "Seq2SeqParams"), 0)

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))
    served = _serve(cfg_path, capsys, *queries)
    assert calls == {"load_vocab": 2, "load_checkpoint": 2, "make_rs_params": 1,
                     "Seq2SeqParams": 1}
    assert [code for _, names, code, _ in served] \
        == [2 if names == "sym-999" else 0 for _, names, _, _ in served]
    assert any("herb-000" in out for _, _, _, out in served)
    monkeypatch.setattr(cli, "_HEAD_MEMO", _NoMemo())
    assert _serve(cfg_path, capsys, *queries) == served
    n = len(queries[0])
    assert calls == {"load_vocab": 2 + 2 * n, "load_checkpoint": 2 + 2 * n,
                     "make_rs_params": 1 + n, "Seq2SeqParams": 1 + n}


# a head checkpoint's regions, and one region of each corpus file serving reads
_TARGETS = [(head, region) for head in ("rs", "seq")
            for region in ("prefix", "header", "blobs")] + [("symptoms", "rows"),
                                                            ("herbs", "rows")]
_EDITS = st.lists(st.tuples(
    st.sampled_from(_TARGETS),
    st.sampled_from(["flip", "cut", "restore"]),
    st.floats(0.0, 1.0, exclude_max=True),
    st.integers(1, 255)), min_size=1, max_size=4)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(edits=_EDITS)
def test_mutated_head_checkpoints_serve_as_a_first_load(trained_env, edits):
    """Flip or cut bytes of ``rs.ckpt``/``seq.ckpt`` and of the corpus symptom
    and herb files between in-process calls (each edit on the file as the
    last one left it): every call exits 0, 2 or 3, an exit 2 names a damaged
    file the call reads, and each exit code and stdout is that of the same
    call with nothing loaded."""
    root, cfg_path, _ = trained_env
    corpus = root / "corpus"
    paths = {"rs": root / "work" / "rs.ckpt", "seq": root / "work" / "seq.ckpt",
             "symptoms": corpus / "symptoms.jsonl", "herbs": corpus / "herbs.jsonl"}
    originals = {name: path.read_bytes() for name, path in paths.items()}
    regions = {}
    for head in _HEAD_ARGV:
        raw = originals[head]
        start = len(MAGIC) + 8
        blobs = start + struct.unpack_from("<Q", raw, len(MAGIC))[0]
        regions[head] = {"prefix": (0, start), "header": (start, blobs),
                         "blobs": (blobs, len(raw))}
    for name in ("symptoms", "herbs"):
        regions[name] = {"rows": (0, len(originals[name]))}
    cli._HEAD_MEMO.clear()
    try:
        for argv in _HEAD_ARGV.values():
            assert _run(argv, cfg_path)[0] == 0
        for (name, region), kind, where, mask in edits:
            raw = bytearray(paths[name].read_bytes())
            lo, hi = regions[name][region]
            at = lo + int(where * (hi - lo))
            if kind == "restore":
                raw = originals[name]
            elif kind == "cut":
                raw = raw[:at]
            elif at < len(raw):
                raw[at] ^= mask
            _overwrite(paths[name], bytes(raw))
            damaged = {n for n, path in paths.items()
                       if path.read_bytes() != originals[n]}
            for served, argv in _HEAD_ARGV.items():
                code, out, err = _run(argv, cfg_path)
                kept = dict(cli._HEAD_MEMO)
                cli._HEAD_MEMO.clear()
                first_load = _run(argv, cfg_path)
                cli._HEAD_MEMO.update(kept)
                assert code in (0, 2, 3), err
                if code == 2:
                    culprits = [str(paths[n]) for n in damaged & {served, "symptoms",
                                                                  "herbs"}]
                    if damaged & {"symptoms", "herbs"}:
                        # the vocabulary check names the corpus by its directory
                        culprits.append(f"but {corpus} has ")
                    if "symptoms" in damaged:
                        culprits.append("unknown symptom 'sym-00")
                    assert any(c in err for c in culprits), err
                assert (code, out) == first_load[:2]
    finally:
        for name, path in paths.items():
            _overwrite(path, originals[name])


def test_checkpoint_without_unified_table_exits_two(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    execute_command(["train-rs", "--config", str(cfg_path)])
    path = tmp_path / "work" / "rs.ckpt"
    state, _ = load_checkpoint(path)
    head = {k: v for k, v in state.items() if not k.startswith("unified.")}
    matrix = state["unified.matrix"]
    broken = [head,
              {**state, "unified.n_sym": np.asarray(1e9)},
              {**state, "unified.n_sym": np.asarray(0.0)},
              {**state, "unified.n_sym": np.asarray(float(matrix.shape[0]))},
              {**state, "unified.n_sym": np.asarray(2.5)},
              {**state, "unified.n_sym": np.asarray(float("nan"))},
              {**state, "unified.matrix": matrix.reshape(-1)},
              {**state, "unified.matrix": matrix[None]}]
    for tensors in broken:
        save_checkpoint(path, tensors)
        capsys.readouterr()
        assert execute_command(["recommend", "--config", str(cfg_path),
                                "--symptoms", "sym-001", "--k", "2"]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err


def test_unified_table_of_another_width_exits_two(trained_env, capsys):
    tmp_path, cfg_path, _ = trained_env
    path = tmp_path / "work" / "seq.ckpt"
    original = path.read_bytes()
    state, _ = load_checkpoint(path)
    save_checkpoint(path, {**state, "unified.matrix": state["unified.matrix"][:, :62]})
    try:
        capsys.readouterr()
        assert execute_command(["generate", "--config", str(cfg_path),
                                "--symptoms", "sym-001"]) == 2
        assert f"{path}: unified table is 62 wide, expected 64" \
            in capsys.readouterr().err
    finally:
        path.write_bytes(original)


def test_garbage_prediction_file_exits_two(run_env, capsys):
    tmp_path, cfg_path, _ = run_env
    execute_command(["prepare", "--config", str(cfg_path)])
    pred = tmp_path / "pred.tsv"
    for raw, where in ((b"0\tx:1\n", f"{pred}:1"),
                       (b"0\t1:0.5\n1\t2:0.5\n0\t2:0.9\n",
                        f"{pred}:3: second prediction for instance 0"),
                       (b"0\t1:0.5\n1\t2:0\x87.5\n", f"{pred}: not UTF-8 text"),
                       (b"0\t1:0.5\n", f"{pred}: missing predictions for instances [")):
        pred.write_bytes(raw)
        capsys.readouterr()
        assert execute_command(["evaluate", "--config", str(cfg_path),
                                "--pred", str(pred)]) == 2
        assert where in capsys.readouterr().err


# each file ``prepare``, ``train-rs`` and ``evaluate`` read, with the first
# command of the pipeline that reads it
_READERS = {"prescriptions.jsonl": ["prepare"], "splits.json": ["train-rs"],
            "phase1.ckpt": ["train-rs"],
            "rs_predictions.tsv": ["evaluate", "--head", "rs", "--pred"],
            "seq_predictions.tsv": ["evaluate", "--head", "seq", "--pred"]}
_BYTE_EDITS = st.lists(st.tuples(st.sampled_from(["flip", "cut", "insert"]),
                                 st.floats(0.0, 1.0, exclude_max=True),
                                 st.integers(1, 255)), min_size=1, max_size=3)


@pytest.fixture(scope="module")
def short_trained_env(tmp_path_factory):
    """``run_env``'s corpus prepared and trained for one or two epochs per
    stage, so a command on it takes milliseconds."""
    root, cfg_path, cfg = _make_env(tmp_path_factory.mktemp("short"))
    cfg["train"].update(epochs=2, mlfie_epochs=1, vae_epochs=1, fr_epochs=1)
    cfg_path.write_text(json.dumps(cfg))
    for cmd in ("prepare", "train-rs", "train-seq"):
        assert execute_command([cmd, "--config", str(cfg_path)]) == 0
    return root, cfg_path


@settings(derandomize=True, deadline=None, max_examples=300)
@given(name=st.sampled_from(sorted(_READERS)), edits=_BYTE_EDITS)
def test_mutated_pipeline_inputs_exit_cleanly_naming_the_file(short_trained_env,
                                                              name, edits):
    """Flip, cut or insert bytes of one file the pipeline reads and run the
    command that reads it: it exits 0, 2 or 3, never with a traceback, and
    an exit 2 names the file."""
    root, cfg_path = short_trained_env
    files = sorted(p for p in root.rglob("*") if p.is_file())
    originals = {p: p.read_bytes() for p in files}
    path = root / ("corpus" if name.endswith(".jsonl") else "work") / name
    raw = bytearray(originals[path])
    for kind, where, byte in edits:
        at = int(where * len(raw))
        if kind == "cut":
            del raw[at:]
        elif kind == "insert":
            raw.insert(at, byte)
        elif at < len(raw):
            raw[at] ^= byte
    path.write_bytes(bytes(raw))
    argv = _READERS[name] + ([str(path)] if name.endswith(".tsv") else [])
    try:
        code, _, err = _run(argv, cfg_path)
    finally:
        for p in root.rglob("*"):
            if p.is_file() and p not in originals:
                p.unlink()
        for p, data in originals.items():
            p.write_bytes(data)
    assert code in (0, 2, 3) and "Traceback" not in err, err
    if code == 2:
        assert name in err, err


def test_impute_mol_export(run_env):
    tmp_path, cfg_path, _ = run_env
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    out = tmp_path / "imputed.tsv"
    assert execute_command(["impute-mol", "--config", str(cfg_path),
                            "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "dim=16"
    assert len(lines) > 1
    assert all(line.split("\t")[1] == "-1" for line in lines[1:])
    # the VAE phase 1 trained, not a second fit
    cfg, _, herbs, phase1 = _phase1_in_process(tmp_path, cfg_path)
    missing = [h for h in herbs if not h.molecules]
    imputed = impute_missing([h.properties for h in missing],
                             phase1.mlfie_params.vae)
    expected = tmp_path / "expected.tsv"
    save_molecular_table(expected, {h.id: row for h, row in zip(missing, imputed)},
                         d_m=cfg.dims.d_m)
    assert out.read_bytes() == expected.read_bytes()


def test_molecular_stage_fits_once_per_prepared_workdir(run_env, capsys,
                                                        monkeypatch):
    tmp_path, cfg_path, cfg = run_env
    out = tmp_path / "imputed.tsv"
    capsys.readouterr()
    assert execute_command(["impute-mol", "--config", str(cfg_path),
                            "--out", str(out)]) == 2
    assert "phase1.ckpt" in capsys.readouterr().err

    calls = []
    original = mlfie.fit_mlfie

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(pipeline, "fit_mlfie", counted)
    # a second fit inside impute-mol would go through the cli module's binding
    monkeypatch.setattr(cli, "fit_mlfie", counted, raising=False)
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 0
    assert execute_command(["impute-mol", "--config", str(cfg_path),
                            "--out", str(out)]) == 0
    assert len(calls) == 1

    off = json.loads(json.dumps(cfg))
    off["ablation"] = {"mlfie": False}
    off_path = tmp_path / "off.json"
    off_path.write_text(json.dumps(off))
    assert execute_command(["prepare", "--config", str(off_path)]) == 0
    capsys.readouterr()
    assert execute_command(["impute-mol", "--config", str(off_path),
                            "--out", str(out)]) == 2
    assert "phase1.ckpt" in capsys.readouterr().err


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


def test_seq_max_len_below_one_exits_two(run_env, capsys):
    tmp_path, cfg_path, cfg = run_env
    cfg["train"]["seq_max_len"] = 0
    cfg_path.write_text(json.dumps(cfg))
    capsys.readouterr()
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "train.seq_max_len" in err and "Traceback" not in err
    cfg["train"]["seq_max_len"] = 600
    assert config_from_dict(cfg).train.seq_max_len == 600


def test_negative_seed_exits_two_naming_its_source(run_env, capsys, monkeypatch):
    tmp_path, cfg_path, cfg = run_env
    negative = json.loads(json.dumps(cfg))
    negative["train"]["seed"] = -5
    negative_path = tmp_path / "negative.json"
    negative_path.write_text(json.dumps(negative))
    capsys.readouterr()
    assert execute_command(["prepare", "--config", str(negative_path)]) == 2
    assert "train.seed: must be >= 0, got -5" in capsys.readouterr().err
    monkeypatch.setenv("FMASH_SEED", "-5")
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    assert "FMASH_SEED must be >= 0, got '-5'" in capsys.readouterr().err


def test_ablation_leaves_shared_stage_initialization_alone(run_env, monkeypatch):
    """Every phase-1 component ``prepare`` builds, as observed while it runs,
    and everything ``phase1.ckpt`` holds."""
    tmp_path, cfg_path, cfg = run_env
    cfg_off = dict(cfg)
    cfg_off["ablation"] = {"gelram": False}
    cfg_off_path = tmp_path / "run_off.json"
    cfg_off_path.write_text(json.dumps(cfg_off))
    runs = []
    for path in (cfg_path, cfg_off_path):
        with monkeypatch.context() as mp:
            calls = record_calls(mp, pipeline, PHASE1_STAGES + ("fit_mlfie",))
            assert execute_command(["prepare", "--config", str(path)]) == 0
        tensors, _ = load_checkpoint(tmp_path / "work" / "phase1.ckpt")
        (_, hgre), = calls["HgreParams"]
        (_, (mlfie_params, _, _)), = calls["fit_mlfie"]
        (_, fr_sym), (_, fr_herb) = calls["AutoencoderParams"]
        for name, module in (("hgre", hgre), ("mlfie", mlfie_params),
                             ("refine.sym", fr_sym), ("refine.herb", fr_herb)):
            tensors.update({f"observed.{name}.{k}": v
                            for k, v in module.state_dict().items()})
        (_, (tensors["observed.refine.sym_rows"],
             tensors["observed.refine.herb_rows"])), = calls["assemble_features"]
        tensors["observed.init_features"] = initial_features(calls)
        runs.append(tensors)
    with_gelram, without_gelram = runs
    assert with_gelram.keys() == without_gelram.keys()
    assert any(k.startswith("observed.hgre.") for k in with_gelram)
    for k in with_gelram:
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
    ("prescriptions.jsonl", lambda row: row.update(symptoms=["x"]), "symptoms"),
    pytest.param("herbs.jsonl", lambda row: row.update(molecules=5), "molecules",
                 id="herbs.jsonl-molecules-number"),
    pytest.param("herbs.jsonl", lambda row: row.update(molecules="CCO"), "molecules",
                 id="herbs.jsonl-molecules-string"),
    pytest.param("herbs.jsonl", lambda row: row.update(molecules=["CCO", 7]),
                 "molecules", id="herbs.jsonl-molecules-non-string-item"),
    pytest.param("herbs.jsonl", lambda row: row.update(molecules=["CCO", ""]),
                 "molecules", id="herbs.jsonl-molecules-empty-string"),
    pytest.param("symptoms.jsonl", lambda row: row.update(name="a,b"), "name",
                 id="symptoms.jsonl-name-with-comma"),
    pytest.param("prescriptions.jsonl", lambda row: row.update(symptoms=[]),
                 "symptoms", id="prescriptions.jsonl-empty-symptoms"),
    pytest.param("prescriptions.jsonl", lambda row: row.update(herbs=[]),
                 "herbs", id="prescriptions.jsonl-empty-herbs"),
    pytest.param("prescriptions.jsonl", lambda row: row.update(symptoms=[999]),
                 "symptoms", id="prescriptions.jsonl-unknown-symptom"),
    pytest.param("prescriptions.jsonl", lambda row: row.update(herbs=[999]),
                 "herbs", id="prescriptions.jsonl-unknown-herb"),
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


def test_text_embeddings_of_two_lengths_exit_two_naming_file_line_and_key(run_env, capsys):
    """The second length seen in ``symptoms.jsonl`` is refused at its line,
    before any graph is built."""
    tmp_path, cfg_path, _ = run_env
    path = tmp_path / "corpus" / "symptoms.jsonl"
    rows = [json.loads(line) for line in path.read_text().splitlines()]
    for row in rows:
        row["text_embedding"] = [0.5] * 4
    rows[2]["text_embedding"] = [0.5] * 5
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert "symptoms.jsonl:3" in err and "'text_embedding'" in err
    assert not (tmp_path / "work").exists()


@pytest.mark.parametrize("with_text, line", [((0, 1), 3), ((3, 4), 4)])
def test_text_embeddings_on_only_some_symptoms_exit_two_naming_file_and_line(
        run_env, capsys, with_text, line):
    """Every symptom has a text embedding or none has: the first row that
    breaks the rule set by the first row is refused at its line."""
    tmp_path, cfg_path, _ = run_env
    path = tmp_path / "corpus" / "symptoms.jsonl"
    rows = [json.loads(raw) for raw in path.read_text().splitlines()]
    for i in with_text:
        rows[i]["text_embedding"] = [0.5] * 4
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    assert execute_command(["prepare", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert f"symptoms.jsonl:{line}:" in err and "'text_embedding'" in err
    assert "Traceback" not in err and not (tmp_path / "work").exists()
