"""Command-line surface: prepare -> train -> predict -> evaluate.

Exit codes: 0 success, 1 usage error, 2 data error, 3 numeric failure.
``FMASH_SEED`` in the environment overrides the configured seed.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, config_hash, parse_config
from .dataio import (DatasetSplit, build_graph, generate_conflicting_corpus,
                     generate_synthetic, load_corpus, save_corpus,
                     save_molecular_table, split_dataset)
from .errors import ConfigError, DataError, FmashError, NumericError, SchemaError
from .evalkit import evaluate_run
from .mlfie import fit_mlfie, impute_missing
from .pipeline import phase1_state, run_phase1
from .recsys import GelramParams, PlainScorerParams, recommend, train_rs
from .recsys import export_predictions as export_rs_predictions
from .refine import UnifiedEmbedding, export_unified
from .seqgen import Seq2SeqParams, generate, train_seq
from .seqgen import export_predictions as export_seq_predictions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

SPLITS_FILE = "splits.json"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="fmash", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    synth = sub.add_parser("synth", help="write a synthetic fixture corpus")
    synth.add_argument("--out", required=True)
    synth.add_argument("--n-sym", type=int, default=40)
    synth.add_argument("--n-herb", type=int, default=60)
    synth.add_argument("--n-syndromes", type=int, default=5)
    synth.add_argument("--n-prescriptions", type=int, default=200)
    synth.add_argument("--seed", type=int, default=7)
    synth.add_argument("--missing-mol-fraction", type=float, default=0.2)
    synth.add_argument("--mode", choices=["clustered", "conflicting"],
                       default="clustered")

    for name in ("prepare", "train-rs", "train-seq"):
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", required=True)

    impute = sub.add_parser("impute-mol",
                            help="export VAE-imputed vectors for herbs "
                                 "without molecular data")
    impute.add_argument("--config", required=True)
    impute.add_argument("--out", required=True)

    rec = sub.add_parser("recommend")
    rec.add_argument("--config", required=True)
    rec.add_argument("--symptoms", required=True,
                     help="comma-separated symptom names")
    rec.add_argument("--k", type=int, required=True)

    gen = sub.add_parser("generate")
    gen.add_argument("--config", required=True)
    gen.add_argument("--symptoms", required=True)

    ev = sub.add_parser("evaluate")
    ev.add_argument("--config", required=True)
    ev.add_argument("--pred", required=True)
    ev.add_argument("--k", default="5,10,20",
                    help="comma-separated cutoffs, e.g. 5,10,20")
    ev.add_argument("--head", choices=["rs", "seq"], default="rs")
    return parser


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

def _load_config(path: str) -> RunConfig:
    cfg = parse_config(path)
    seed_env = os.environ.get("FMASH_SEED")
    if seed_env is not None:
        try:
            cfg.train.seed = int(seed_env)
        except ValueError as exc:
            raise ConfigError(f"FMASH_SEED must be an integer, got {seed_env!r}") from exc
    return cfg


def _workdir(cfg: RunConfig) -> Path:
    wd = Path(cfg.paths.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    return wd


def _load_splits(cfg: RunConfig, prescriptions) -> DatasetSplit:
    path = Path(cfg.paths.workdir) / SPLITS_FILE
    if not path.exists():
        raise DataError(f"missing {path}; run `fmash prepare` first")
    obj = json.loads(path.read_text(encoding="utf-8"))
    by_id = {p.instance_id: p for p in prescriptions}
    try:
        return DatasetSplit(
            train=[by_id[i] for i in obj["train"]],
            valid=[by_id[i] for i in obj["valid"]],
            test=[by_id[i] for i in obj["test"]],
            seed=int(obj["seed"]))
    except KeyError as exc:
        raise SchemaError(f"{path}: split references unknown instance {exc}") from exc


def _resolve_symptom_names(arg: str, symptoms) -> list[int]:
    names = [tok.strip() for tok in arg.split(",") if tok.strip()]
    if not names:
        raise DataError("no symptom names given")
    by_name = {r.name: r.id for r in symptoms}
    ids = []
    for name in names:
        if name not in by_name:
            close = difflib.get_close_matches(name, by_name, n=3)
            hint = f"; did you mean: {', '.join(close)}" if close else ""
            raise DataError(f"unknown symptom {name!r}{hint}")
        ids.append(by_name[name])
    return ids


def _prepared_run(cfg: RunConfig):
    symptoms, herbs, prescriptions = load_corpus(cfg.paths.corpus,
                                                 expected_p=cfg.dims.p)
    split = _load_splits(cfg, prescriptions)
    graph = build_graph(split.train, len(symptoms), len(herbs),
                        tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
    return symptoms, herbs, split, graph


def _unified_from_state(state: dict) -> UnifiedEmbedding:
    return UnifiedEmbedding(matrix=state["unified.matrix"],
                            n_sym=int(state["unified.n_sym"].reshape(-1)[0]))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    if args.mode == "conflicting":
        sym, herbs, pres = generate_conflicting_corpus(
            n_pairs=args.n_prescriptions // 2, herbs_per_formula=6,
            seed=args.seed, p_dim=23)
    else:
        sym, herbs, pres = generate_synthetic(
            args.n_sym, args.n_herb, args.n_syndromes, args.n_prescriptions,
            seed=args.seed, missing_mol_fraction=args.missing_mol_fraction)
    save_corpus(args.out, sym, herbs, pres)
    print(f"wrote {len(sym)} symptoms, {len(herbs)} herbs, "
          f"{len(pres)} prescriptions to {args.out}")
    return EXIT_OK


def _cmd_prepare(args) -> int:
    cfg = _load_config(args.config)
    symptoms, herbs, prescriptions = load_corpus(cfg.paths.corpus,
                                                 expected_p=cfg.dims.p)
    split = split_dataset(prescriptions, tuple(cfg.train.ratio), cfg.train.seed)
    graph = build_graph(split.train, len(symptoms), len(herbs),
                        tau_s=cfg.graph.tau_s, tau_h=cfg.graph.tau_h)
    wd = _workdir(cfg)
    payload = {"seed": split.seed, "ratio": cfg.train.ratio,
               "train": [p.instance_id for p in split.train],
               "valid": [p.instance_id for p in split.valid],
               "test": [p.instance_id for p in split.test]}
    (wd / SPLITS_FILE).write_text(json.dumps(payload, sort_keys=True) + "\n",
                                  encoding="utf-8")
    print(f"vocab: {len(symptoms)} symptoms, {len(herbs)} herbs")
    print(f"splits: {len(split.train)}/{len(split.valid)}/{len(split.test)}")
    print(f"graph edges: ss={len(graph.edges_ss)} hh={len(graph.edges_hh)} "
          f"sh={len(graph.edges_sh)}")
    return EXIT_OK


def _cmd_train_rs(args) -> int:
    cfg = _load_config(args.config)
    symptoms, herbs, split, graph = _prepared_run(cfg)
    phase1 = run_phase1(symptoms, herbs, graph, cfg)
    result = train_rs(split.train, phase1.unified, epochs=cfg.train.epochs,
                      lr=cfg.train.lr, batch_size=cfg.train.batch or None,
                      seed=cfg.train.seed, gelram=cfg.ablation.gelram,
                      d_enc=cfg.dims.d_enc)
    wd = _workdir(cfg)
    state = phase1_state(phase1)
    state.update({f"rs.{k}": v for k, v in result.params.state_dict().items()})
    save_checkpoint(wd / "rs.ckpt", state, config_hash(cfg))
    export_unified(wd / "unified.csv", phase1.unified.matrix, phase1.unified.n_sym)
    export_rs_predictions(wd / "rs_predictions.tsv", split.test, phase1.unified,
                          result.params)
    final = result.losses[-1] if result.losses else float("nan")
    print(f"trained ranking head: {len(result.losses)} epochs, "
          f"final loss {final:.4f}")
    print(f"artifacts: {wd / 'rs.ckpt'}, {wd / 'rs_predictions.tsv'}")
    return EXIT_OK


def _cmd_train_seq(args) -> int:
    cfg = _load_config(args.config)
    symptoms, herbs, split, graph = _prepared_run(cfg)
    phase1 = run_phase1(symptoms, herbs, graph, cfg)
    result = train_seq(split.train, phase1.unified, epochs=cfg.train.epochs,
                       lr=cfg.train.lr, batch_size=cfg.train.batch or None,
                       seed=cfg.train.seed)
    wd = _workdir(cfg)
    state = phase1_state(phase1)
    state.update({f"seq.{k}": v for k, v in result.params.state_dict().items()})
    save_checkpoint(wd / "seq.ckpt", state, config_hash(cfg))
    export_unified(wd / "unified.csv", phase1.unified.matrix, phase1.unified.n_sym)
    export_seq_predictions(wd / "seq_predictions.tsv", split.test, result.params,
                           max_len=cfg.train.seq_max_len)
    final = result.losses[-1] if result.losses else float("nan")
    print(f"trained sequence head: {len(result.losses)} epochs, "
          f"final loss {final:.4f}")
    print(f"artifacts: {wd / 'seq.ckpt'}, {wd / 'seq_predictions.tsv'}")
    return EXIT_OK


def _cmd_impute_mol(args) -> int:
    cfg = _load_config(args.config)
    symptoms, herbs, _ = load_corpus(cfg.paths.corpus, expected_p=cfg.dims.p)
    missing = [h for h in herbs if not h.molecules]
    if not missing:
        raise DataError("no herbs with missing molecular data to impute")
    params, _ = fit_mlfie(herbs, cfg)
    imputed = impute_missing([h.properties for h in missing], params.vae)
    table = {h.id: [row] for h, row in zip(missing, imputed)}
    save_molecular_table(args.out, table, d_m=cfg.dims.d_m,
                         imputed_ids=set(table))
    print(f"imputed {len(table)} herbs -> {args.out}")
    return EXIT_OK


def _cmd_recommend(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    cfg = _load_config(args.config)
    symptoms, herbs, _ = load_corpus(cfg.paths.corpus, expected_p=cfg.dims.p)
    state, _ = load_checkpoint(Path(cfg.paths.workdir) / "rs.ckpt")
    emb = _unified_from_state(state)
    if args.k > emb.n_herb:
        raise UsageError(f"--k exceeds the herb vocabulary ({emb.n_herb})")
    if cfg.ablation.gelram:
        params = GelramParams(emb.dim, emb.n_herb, cfg.train.seed,
                              d_enc=cfg.dims.d_enc)
    else:
        params = PlainScorerParams(emb.dim, emb.n_herb, cfg.train.seed)
    params.load_state_dict({k[3:]: v for k, v in state.items()
                            if k.startswith("rs.")})
    ids = _resolve_symptom_names(args.symptoms, symptoms)
    for rank, (herb_id, score) in enumerate(recommend(ids, args.k, params, emb),
                                            start=1):
        print(f"{rank}\t{herbs[herb_id].name}\t{score:.4f}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    symptoms, herbs, _ = load_corpus(cfg.paths.corpus, expected_p=cfg.dims.p)
    state, _ = load_checkpoint(Path(cfg.paths.workdir) / "seq.ckpt")
    emb = _unified_from_state(state)
    params = Seq2SeqParams(emb, cfg.train.seed)
    params.load_state_dict({k[4:]: v for k, v in state.items()
                            if k.startswith("seq.")})
    ids = _resolve_symptom_names(args.symptoms, symptoms)
    formula = generate(ids, params, max_len=cfg.train.seq_max_len)
    if not formula:
        print("(empty formula)")
    for herb_id in formula:
        print(herbs[herb_id].name)
    return EXIT_OK


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    try:
        ks = [int(tok) for tok in args.k.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"--k must be comma-separated integers: {args.k!r}") from exc
    if not ks or any(k < 1 for k in ks):
        raise UsageError(f"--k entries must be >= 1: {args.k!r}")
    symptoms, herbs, prescriptions = load_corpus(cfg.paths.corpus,
                                                 expected_p=cfg.dims.p)
    split = _load_splits(cfg, prescriptions)
    pred = Path(args.pred)
    if not pred.exists():
        raise DataError(f"prediction file not found: {pred}; train a head first")
    report = evaluate_run(pred, split.test, ks, head=args.head,
                          model=f"fmash_{args.head}",
                          config={"seed": cfg.train.seed, "ks": ks})
    wd = _workdir(cfg)
    out = wd / f"report_{args.head}.json"
    report.save(out)
    for line in report.summary_lines():
        print(line)
    print(f"report written to {out}")
    return EXIT_OK


_COMMANDS = {
    "synth": _cmd_synth,
    "prepare": _cmd_prepare,
    "train-rs": _cmd_train_rs,
    "train-seq": _cmd_train_seq,
    "impute-mol": _cmd_impute_mol,
    "recommend": _cmd_recommend,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
}


def execute_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (SchemaError, ConfigError, DataError, FileNotFoundError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, FloatingPointError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except FmashError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
