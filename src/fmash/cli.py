"""Command-line surface: prepare -> train -> predict -> evaluate.

Exit codes: 0 success, 1 usage error, 2 data error or OS error, 3 numeric failure.
``FMASH_SEED`` in the environment overrides the configured seed.

``recommend`` and ``generate`` read the corpus symptom and herb files and
their head's checkpoint on every call.  Within one process they keep, per
head, the names and the head the last load built, keyed by the exact bytes
of those three files and the whole config, and reuse them while the key
compares equal; anything else loads and validates the files as a first
call does.  A fresh process starts with nothing loaded.
"""

from __future__ import annotations

import argparse
import difflib
import functools
import hashlib
import json
import os
import sys
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, parse_config
from .dataio import (HERBS_FILE, PRESCRIPTIONS_FILE, SYMPTOMS_FILE, DatasetSplit,
                     build_graph, distinct_symptom_sets, generate_conflicting_corpus,
                     generate_synthetic, load_corpus, load_vocab, save_corpus,
                     save_molecular_table, split_dataset)
from .errors import ConfigError, DataError, FmashError, NumericError, SchemaError
from .evalkit import evaluate_run
from .mlfie import MlfieParams, impute_missing
from .nn import Module
from .pipeline import phase1_key, phase1_state, run_phase1
from .recsys import make_rs_params, recommend, train_rs
from .recsys import export_predictions as export_rs_predictions
from .refine import UNIFIED_DIM, UnifiedEmbedding, export_unified
from .seqgen import Seq2SeqParams, generate, train_seq
from .seqgen import export_predictions as export_seq_predictions

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

# the largest vocabulary ``synth`` draws; refused before an index array of
# that length is requested
SYNTH_MAX_VOCAB = 100_000

SPLITS_FILE = "splits.json"
PHASE1_FILE = "phase1.ckpt"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built on first use and reused: parsing
    leaves it unchanged."""
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
    ev.add_argument("--k", help="comma-separated distinct cutoffs, each at most the "
                               "herb count (default: those of 5,10,20 within it)")
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
        if cfg.train.seed < 0:
            raise ConfigError(f"FMASH_SEED must be >= 0, got {seed_env!r}")
    return cfg


def _workdir(cfg: RunConfig) -> Path:
    wd = Path(cfg.paths.workdir)
    wd.mkdir(parents=True, exist_ok=True)
    return wd


def _load_splits(cfg: RunConfig) -> tuple[DatasetSplit, int]:
    """The corpus prescriptions in the split ``prepare`` wrote, and the
    corpus herb count."""
    _, herbs, prescriptions = load_corpus(cfg.paths.corpus, expected_p=cfg.dims.p)
    path = Path(cfg.paths.workdir) / SPLITS_FILE
    if not path.exists():
        raise DataError(f"missing {path}; run `fmash prepare` first")
    try:
        obj = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:    # bad JSON or bad UTF-8
        raise SchemaError(f"{path}: invalid JSON ({exc}); rerun `fmash prepare`") from exc
    if not isinstance(obj, dict):
        raise SchemaError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    by_id = {p.instance_id: p for p in prescriptions}
    parts, listed_in = {}, {}
    for part in ("train", "valid", "test"):
        ids = obj.get(part)
        if not isinstance(ids, list):
            raise SchemaError(f"{path}: {part!r} must be a list of instance ids, "
                              f"got {ids!r}")
        unknown = [i for i in ids if type(i) is not int or i not in by_id]
        if unknown:
            raise SchemaError(f"{path}: {part!r} references unknown instance "
                              f"{unknown[0]!r}")
        for i in ids:
            if i in listed_in:
                raise SchemaError(f"{path}: {part!r} repeats instance {i}, "
                                  f"already listed in {listed_in[i]!r}")
            listed_in[i] = part
        parts[part] = [by_id[i] for i in ids]
    seed = obj.get("seed")
    if type(seed) is not int:
        raise SchemaError(f"{path}: 'seed' must be an integer, got {seed!r}")
    return DatasetSplit(seed=seed, **parts), len(herbs)


def _resolve_symptom_names(arg: str, symptom_names: list[str]) -> list[int]:
    names = [tok.strip() for tok in arg.split(",") if tok.strip()]
    if not names:
        raise DataError("no symptom names given")
    by_name = {name: i for i, name in enumerate(symptom_names)}
    ids = []
    for name in names:
        if name not in by_name:
            close = difflib.get_close_matches(name, by_name, n=3)
            hint = f"; did you mean: {', '.join(close)}" if close else ""
            raise DataError(f"unknown symptom {name!r}{hint}")
        ids.append(by_name[name])
    return ids


def _unified_table(path: Path, state, writer: str) -> UnifiedEmbedding:
    """The unified table ``phase1_state`` put into ``state``, read from the
    checkpoint ``path`` that ``fmash <writer>`` writes."""
    try:
        matrix, n_sym = state["unified.matrix"], state["unified.n_sym"].reshape(-1)[0]
    except (KeyError, IndexError) as exc:
        raise SchemaError(f"{path}: no unified table; not a checkpoint written "
                          f"by {writer}") from exc
    if matrix.ndim != 2 or not (float(n_sym).is_integer()
                                and 1 <= n_sym < matrix.shape[0]):
        raise SchemaError(f"{path}: malformed unified table (matrix shape "
                          f"{matrix.shape}, n_sym {n_sym!r})")
    if matrix.shape[1] != UNIFIED_DIM:
        raise SchemaError(f"{path}: unified table is {matrix.shape[1]} wide, "
                          f"expected {UNIFIED_DIM}")
    return UnifiedEmbedding(matrix=matrix, n_sym=int(n_sym))


def _phase1_inputs_key(cfg: RunConfig) -> str:
    """``phase1_key`` plus a digest of the other phase-1 inputs: the corpus
    files and ``splits.json``."""
    corpus, digest = Path(cfg.paths.corpus), hashlib.blake2b(digest_size=16)
    for path in (corpus / SYMPTOMS_FILE, corpus / HERBS_FILE,
                 corpus / PRESCRIPTIONS_FILE, Path(cfg.paths.workdir) / SPLITS_FILE):
        digest.update(hashlib.blake2b(path.read_bytes()).digest())
    return f"{phase1_key(cfg)}-{digest.hexdigest()}"


def _load_phase1(cfg: RunConfig):
    """The phase-1 state ``prepare`` saved and its unified table; exit 2
    unless it was built from the current phase-1 inputs."""
    path = Path(cfg.paths.workdir) / PHASE1_FILE
    if not path.exists():
        raise DataError(f"missing {path}; run `fmash prepare` first")
    state, key = load_checkpoint(path)
    if key != _phase1_inputs_key(cfg):
        raise DataError(f"{path} was built from another config, FMASH_SEED, "
                        f"corpus or splits.json than the current ones; rerun "
                        f"`fmash prepare`")
    return state, _unified_table(path, state, "prepare")


def _load_params(params, path: Path, state, name: str, fault: str):
    """Load ``path``'s ``<name>.*`` tensors into ``params``; exit 2 on a
    mismatch, naming each tensor as the file stores it.  ``name`` may be a
    dotted prefix such as ``mlfie.vae``."""
    stored = Module()
    setattr(stored, name, params)
    try:
        stored.load_state_dict({k: v for k, v in state.items()
                                if k.startswith(f"{name}.")})
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: {fault} ({exc.args[0]})") from exc


def _new_head(cfg: RunConfig, emb: UnifiedEmbedding, head: str) -> Module:
    """A fresh ``head`` (``rs`` or ``seq``) over ``emb`` drawn from the run seed:
    the one place config values shape a head, which training and serving share."""
    if head == "rs":
        return make_rs_params(emb, cfg.train.seed, gelram=cfg.ablation.gelram,
                              d_enc=cfg.dims.d_enc)
    return Seq2SeqParams(emb, cfg.train.seed)


class _Served(NamedTuple):
    key: tuple             # the input bytes and the config it was loaded from
    symptoms: list[str]    # symptom names in id order
    herbs: list[str]       # herb names in id order
    emb: UnifiedEmbedding
    params: Module


# The last names and head each of ``rs``/``seq`` loaded in this process.
# Serving never writes to them, so one entry serves any number of calls.
_HEAD_MEMO: dict[str, _Served] = {}


def _read_or_none(path: Path) -> bytes | None:
    """The bytes of ``path``, or ``None`` if it cannot be read; the load that
    follows a ``None`` reports the file with its own message."""
    try:
        return path.read_bytes()
    except OSError:
        return None


def _serve(cfg: RunConfig, head: str) -> _Served:
    """The corpus names and the unified table and ``head`` parameters saved by
    ``train-<head>``, loaded over ``_new_head``; exit 2 unless the table
    covers the corpus vocabulary.  Reads the symptom, herb and checkpoint
    files on every call, but validates them and builds the head only when
    their bytes or the config differ from the memo's entry."""
    corpus, path = Path(cfg.paths.corpus), Path(cfg.paths.workdir) / f"{head}.ckpt"
    raw = _read_or_none(path)
    # read before the load: a file changed during the load makes the next
    # call's key differ from this one, so that call loads again
    key = (_read_or_none(corpus / SYMPTOMS_FILE), _read_or_none(corpus / HERBS_FILE),
           raw, cfg)
    served = _HEAD_MEMO.get(head)
    if served is not None and served.key == key:
        return served
    symptoms, herbs = load_vocab(corpus, expected_p=cfg.dims.p)
    state, _ = load_checkpoint(path, raw)
    emb = _unified_table(path, state, f"train-{head}")
    if (emb.n_sym, emb.n_herb) != (len(symptoms), len(herbs)):
        raise SchemaError(f"{path} was trained on {emb.n_sym} symptoms and "
                          f"{emb.n_herb} herbs, but {cfg.paths.corpus} has "
                          f"{len(symptoms)} symptoms and {len(herbs)} herbs; "
                          f"rerun `fmash prepare` and `fmash train-{head}`")
    params = _new_head(cfg, emb, head)
    _load_params(params, path, state, head, f"trained with a different head config "
                 f"or an older fmash; rerun `fmash train-{head}`")
    served = _Served(key, [r.name for r in symptoms], [r.name for r in herbs],
                     emb, params)
    if None not in key:    # a file that could not be read keys no entry
        _HEAD_MEMO[head] = served
    return served


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_synth(args) -> int:
    pairs = args.mode == "conflicting"    # that corpus writes its prescriptions in pairs
    for flag, value, least in (("--n-syndromes", args.n_syndromes, 1), ("--seed", args.seed, 0),
                               ("--n-prescriptions", args.n_prescriptions, 2 if pairs else 1)):
        if value < least:
            raise UsageError(f"{flag} must be >= {least}, got {value}")
    if not 0 <= args.missing_mol_fraction <= 1:
        raise UsageError(f"--missing-mol-fraction must be in [0, 1], "
                         f"got {args.missing_mol_fraction}")
    if args.mode == "conflicting":
        sym, herbs, pres = generate_conflicting_corpus(args.n_prescriptions // 2,
                                                       seed=args.seed)
    else:
        for flag, value, per in (("--n-sym", args.n_sym, 2), ("--n-herb", args.n_herb, 5)):
            if value < per * args.n_syndromes:
                raise UsageError(f"{flag} must be >= {per} per syndrome "
                                 f"({per * args.n_syndromes}), got {value}")
            if value > SYNTH_MAX_VOCAB:
                raise DataError(f"{flag} must be <= {SYNTH_MAX_VOCAB} (125 times the 800 "
                                f"herbs of the full-scale corpus), so that its arrays "
                                f"fit in memory; got {value}")
        sets = distinct_symptom_sets(args.n_sym, args.n_syndromes)
        if args.n_prescriptions > sets:
            raise UsageError(f"--n-prescriptions must be <= {sets}, the distinct symptom "
                             f"sets that --n-sym and --n-syndromes allow, got "
                             f"{args.n_prescriptions}")
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
    source = Path(cfg.paths.corpus) / PRESCRIPTIONS_FILE
    try:    # the config's ratio is checked, so only the corpus size can fail
        split = split_dataset(prescriptions, tuple(cfg.train.ratio), cfg.train.seed)
    except DataError as exc:
        raise DataError(f"{source}: {exc}") from exc
    for part in ("train", "valid", "test"):
        if not getattr(split, part):
            raise DataError(f"{source}: train.ratio {cfg.train.ratio} leaves the "
                            f"{part} split of {len(prescriptions)} prescriptions empty")
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
    phase1 = run_phase1(symptoms, herbs, graph, cfg)
    save_checkpoint(wd / PHASE1_FILE, phase1_state(phase1), _phase1_inputs_key(cfg))
    export_unified(wd / "unified.csv", phase1.unified.matrix, phase1.unified.n_sym)
    for name, losses in phase1.histories.items():
        trend = f", loss {losses[0]:.4g} -> {losses[-1]:.4g}" if losses else ""
        print(f"phase 1 {name}: {len(losses)} epochs{trend}")
    print(f"artifacts: {wd / SPLITS_FILE}, {wd / PHASE1_FILE}, {wd / 'unified.csv'}")
    return EXIT_OK


def _cmd_train(args) -> int:
    """Fit one head; its checkpoint holds only the unified table and the head."""
    cfg = _load_config(args.config)
    split, _ = _load_splits(cfg)
    phase1, unified = _load_phase1(cfg)
    wd = _workdir(cfg)
    head = args.command.removeprefix("train-")
    # looked up at the call, so a wrapper set on the module name sees it
    result = (train_rs if head == "rs" else train_seq)(
        split.train, unified, epochs=cfg.train.epochs, lr=cfg.train.lr,
        batch_size=cfg.train.batch or None, seed=cfg.train.seed,
        params=_new_head(cfg, unified, head))
    if head == "rs":
        export_rs_predictions(wd / "rs_predictions.tsv", split.test, unified,
                              result.params)
    else:
        export_seq_predictions(wd / "seq_predictions.tsv", split.test,
                               result.params, max_len=cfg.train.seq_max_len)
    state = {k: v for k, v in phase1.items() if k.startswith("unified.")}
    state.update({f"{head}.{k}": v for k, v in result.params.state_dict().items()})
    save_checkpoint(wd / f"{head}.ckpt", state)
    final = result.losses[-1] if result.losses else float("nan")
    print(f"trained {'ranking' if head == 'rs' else 'sequence'} head: "
          f"{len(result.losses)} epochs, final loss {final:.4f}")
    print(f"artifacts: {wd / f'{head}.ckpt'}, {wd / f'{head}_predictions.tsv'}")
    return EXIT_OK


def _cmd_impute_mol(args) -> int:
    cfg = _load_config(args.config)
    _, herbs = load_vocab(cfg.paths.corpus, expected_p=cfg.dims.p)
    missing = [h for h in herbs if not h.molecules]
    if not missing:
        raise DataError("no herbs with missing molecular data to impute")
    if not cfg.ablation.mlfie:
        raise DataError(f"ablation.mlfie is false, so {PHASE1_FILE} holds no "
                        f"molecular stage to impute with")
    state, _ = _load_phase1(cfg)
    d = cfg.dims
    vae = MlfieParams(len(herbs), d.p, d.d_m, d.d_k, d.d_z, cfg.train.seed).vae
    _load_params(vae, Path(cfg.paths.workdir) / PHASE1_FILE, state, "mlfie.vae",
                 "its molecular stage does not match the config")
    imputed = impute_missing([h.properties for h in missing], vae)
    table = {h.id: row for h, row in zip(missing, imputed)}
    save_molecular_table(args.out, table, d_m=d.d_m)
    print(f"imputed {len(table)} herbs -> {args.out}")
    return EXIT_OK


def _cmd_recommend(args) -> int:
    if args.k < 1:
        raise UsageError(f"--k must be >= 1, got {args.k}")
    cfg = _load_config(args.config)
    served = _serve(cfg, "rs")
    if args.k > served.emb.n_herb:
        raise UsageError(f"--k exceeds the herb vocabulary ({served.emb.n_herb})")
    ids = _resolve_symptom_names(args.symptoms, served.symptoms)
    for rank, (herb_id, score) in enumerate(
            recommend(ids, args.k, served.params, served.emb), start=1):
        print(f"{rank}\t{served.herbs[herb_id]}\t{score:.4f}")
    return EXIT_OK


def _cmd_generate(args) -> int:
    cfg = _load_config(args.config)
    served = _serve(cfg, "seq")
    ids = _resolve_symptom_names(args.symptoms, served.symptoms)
    formula = generate(ids, served.params, max_len=cfg.train.seq_max_len)
    if not formula:
        print("(empty formula)")
    for herb_id in formula:
        print(served.herbs[herb_id])
    return EXIT_OK


_DEFAULT_KS = (5, 10, 20)


def _cmd_evaluate(args) -> int:
    cfg = _load_config(args.config)
    if args.k is not None:
        try:
            ks = [int(tok) for tok in args.k.split(",") if tok.strip()]
        except ValueError as exc:
            raise UsageError(f"--k must be comma-separated integers: {args.k!r}") from exc
        if not ks or any(k < 1 for k in ks):
            raise UsageError(f"--k entries must be >= 1: {args.k!r}")
        if len(set(ks)) < len(ks):
            raise UsageError(f"--k repeats a cutoff: {args.k!r}")
    split, n_herb = _load_splits(cfg)
    if not split.test:
        raise DataError(f"{Path(cfg.paths.workdir) / SPLITS_FILE}: 'test' is empty, "
                        f"so there is nothing to evaluate")
    if args.k is None:
        ks = [k for k in _DEFAULT_KS if k <= n_herb] or [n_herb]
    elif max(ks) > n_herb:
        raise UsageError(f"--k {max(ks)} exceeds the herb vocabulary ({n_herb})")
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
    "train-rs": _cmd_train,
    "train-seq": _cmd_train,
    "impute-mol": _cmd_impute_mol,
    "recommend": _cmd_recommend,
    "generate": _cmd_generate,
    "evaluate": _cmd_evaluate,
}


def execute_command(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        # fits, phase 1's table, scoring and decoding raise NumericError on
        # a non-finite value, so numpy's overflow and invalid-value warnings
        # would only print ahead of that one-line message
        with np.errstate(all="ignore"):
            try:
                return _COMMANDS[args.command](args)
            except MemoryError as exc:
                raise DataError(f"{args.command}: the host cannot allocate an array "
                                f"it needs ({exc})") from exc
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (FmashError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(execute_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
