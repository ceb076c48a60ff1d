"""Which statements of ``src/fmash`` no command reaches.

One process, traced with ``sys.settrace`` (only frames whose code lives in
``TREE/src/fmash`` are followed), runs the CLI end to end:

- ``synth`` writes three corpora: a clustered one, a conflicting one and a
  clustered one whose symptoms carry text embeddings (attached to
  ``symptoms.jsonl`` here, since ``synth`` writes none) and whose
  prescriptions file holds a blank line and float-valued ids;
- for each of the 16 combinations of the four ``ablation`` switches, at
  tiny dims and epochs, on the three corpora in turn, half of them at
  ``train.batch`` 0 and half at 32: ``prepare``, ``train-rs``,
  ``train-seq``, both ``evaluate`` runs (the ranked one at ``--k 3,5``,
  the first of them on a prediction file with a blank line added),
  ``impute-mol`` and two ``recommend`` and two ``generate`` queries;
- then the inputs that steer a command down a path of its own: ``synth``
  at the distinct symptom-set limit (its fallback draw), ``prepare`` with
  a co-occurrence threshold above every count (no edges), a query under
  ``FMASH_SEED``, an unknown symptom name, a usage error and a config
  whose learning rate diverges.

Every command declares the exit code it should give; one that gives
another is reported with its message.  Then, per module, come the
outermost statements that never ran (a compound statement that never ran
stands for its whole body), leaving out ``raise`` statements::

    python tests/reach_probe.py [--entries] [TREE]

``TREE`` is a source tree (default: the one holding this file).  By
default the statements print with their line numbers.  ``--entries``
prints each as ``module  function  statement`` (the enclosing function's
qualified name, ``<module>`` at the top level, and the statement's first
line), the form ``tests/unreached.txt`` keeps, prints unexpected exits to
stderr and exits 1 if there was one.  ``tests/test_reach_ratchet.py`` runs
it in a fresh interpreter, since module-level code must run under the
tracer; a run takes about 5 s on 2 cores.
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import os
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple


class Finding(NamedTuple):
    module: str
    scope: str       # the enclosing function's qualified name, or <module>
    node: ast.stmt
    text: str        # the statement's first line

    @property
    def entry(self) -> str:
        return f"{self.module}  {self.scope}  {self.text}"


def _statements(body: list[ast.stmt]):
    """Every statement under ``body``, each with the list of its children's
    bodies."""
    for node in body:
        blocks = [getattr(node, f) for f in ("body", "orelse", "finalbody")
                  if isinstance(getattr(node, f, None), list)]
        blocks += [h.body for h in getattr(node, "handlers", [])]
        blocks += [c.body for c in getattr(node, "cases", [])]
        yield node, blocks


def _header(node: ast.stmt) -> range:
    """The lines a statement's own code can start on: from its first
    decorator to the line before its body, or all its lines when it has no
    body."""
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    body = getattr(node, "body", None)
    last = body[0].lineno - 1 if isinstance(body, list) and body else node.end_lineno
    return range(first, max(first, last) + 1)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def unreached(source: str, ran: set[int]) -> list[tuple[str, ast.stmt]]:
    """The outermost statements of ``source`` none of whose header lines is
    in ``ran``, each with the qualified name of the function or class it
    sits in ("" at the top level), without ``raise`` statements,
    docstrings, ``global`` and ``nonlocal`` declarations (which run no code
    of their own)."""
    found = []
    scoped = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

    def visit(body, scope):
        for node, blocks in _statements(body):
            if isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)) or _is_docstring(node):
                continue
            if ran.isdisjoint(_header(node)):
                found.append((scope, node))
                continue
            inner = f"{scope}.{node.name}".lstrip(".") if isinstance(node, scoped) else scope
            for block in blocks:
                visit(block, inner)

    visit(ast.parse(source).body, "")
    return found


def _corpora(root: Path, run) -> list[Path]:
    """The three corpora, written by ``synth`` (the text one edited after)."""
    clustered, conflicting, text = root / "clustered", root / "conflicting", root / "text"
    for out, extra in ((clustered, []), (conflicting, ["--mode", "conflicting"]),
                       (text, ["--seed", "8"])):
        run(["synth", "--out", str(out), "--n-sym", "12", "--n-herb", "20",
             "--n-syndromes", "2", "--n-prescriptions", "40", *extra])
    rows = [json.loads(line) for line in
            (text / "symptoms.jsonl").read_text(encoding="utf-8").splitlines()]
    for row in rows:
        row["text_embedding"] = [((row["id"] * 7 + j) % 5) / 5.0 for j in range(6)]
    (text / "symptoms.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    path = text / "prescriptions.jsonl"
    first, *rest = path.read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(first)
    row["symptoms"] = [float(s) for s in row["symptoms"]]
    path.write_text(json.dumps(row) + "\n\n" + "".join(rest), encoding="utf-8")
    return [clustered, conflicting, text]


def _config(corpus: Path, work: Path, batch: int, flags: dict, **extra) -> dict:
    cfg = {"paths": {"corpus": str(corpus), "workdir": str(work)},
           "dims": {"d": 16, "d_m": 8, "d_k": 4, "d_enc": 16, "d_z": 4, "d_state": 4},
           "graph": {"tau_s": 1, "tau_h": 1},
           "train": {"epochs": 2, "batch": batch, "lr": 1e-2, "ratio": [0.7, 0.1, 0.2],
                     "mlfie_epochs": 2, "vae_epochs": 2, "fr_epochs": 2},
           "ablation": flags}
    for section, values in extra.items():
        cfg[section] = {**cfg[section], **values}
    return cfg


def _commands(root: Path, run) -> None:
    """Every command the probe runs, each with the exit code it declares."""
    corpora = _corpora(root, run)
    switches = ("hgre", "mlfie", "gelram", "fr")

    def config(name: str, cfg: dict) -> list[str]:
        path = root / f"{name}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        return ["--config", str(path)]

    confs = []
    for i, values in enumerate(itertools.product((True, False), repeat=4)):
        flags = dict(zip(switches, values))
        corpus, work = corpora[i % 3], root / f"work{i}"
        conf = config(f"run{i}", _config(corpus, work, 32 * (i % 2), flags))
        confs.append(conf)
        for cmd in (["prepare"], ["train-rs"], ["train-seq"]):
            run(cmd + conf)
        if i == 0:
            with open(work / "rs_predictions.tsv", "a", encoding="utf-8") as fh:
                fh.write("\n")
        run(["evaluate", *conf, "--pred", str(work / "rs_predictions.tsv"), "--k", "3,5"])
        run(["evaluate", *conf, "--pred", str(work / "seq_predictions.tsv"), "--head", "seq"])
        # the conflicting corpus has a molecule for every herb
        run(["impute-mol", *conf, "--out", str(work / "imputed.tsv")],
            expect=0 if flags["mlfie"] and corpus != corpora[1] else 2)
        names = [json.loads(line)["name"] for line in
                 (corpus / "symptoms.jsonl").read_text(encoding="utf-8").splitlines()]
        for query in (names[:2], names[-3:]):
            run(["recommend", *conf, "--symptoms", ",".join(query), "--k", "3"])
            run(["generate", *conf, "--symptoms", ",".join(query)])

    on, conf = dict.fromkeys(switches, True), confs[0]    # every stage on, trained
    run(["synth", "--out", str(root / "limit"), "--n-sym", "40", "--n-herb", "40",
         "--n-syndromes", "5", "--n-prescriptions", "770"])
    run(["prepare", *config("sparse", _config(corpora[0], root / "sparse", 0, on,
                                              graph={"tau_s": 10 ** 6, "tau_h": 10 ** 6}))])
    os.environ["FMASH_SEED"] = "3"
    try:
        run(["recommend", *conf, "--symptoms", "sym-000", "--k", "3"])
    finally:
        del os.environ["FMASH_SEED"]
    run(["recommend", *conf, "--symptoms", "sym-00O", "--k", "3"], expect=2)
    run(["synth", "--out", str(root / "none"), "--n-syndromes", "0"], expect=1)
    run(["prepare", *config("diverging", _config(corpora[0], root / "diverging", 0, on,
                                                 train={"lr": 1e308}))], expect=3)


def probe(tree: Path) -> tuple[list[str], list[Finding]]:
    """The commands that gave an exit code other than the one they declare,
    and the statements of ``tree``'s package that no command reached."""
    package = (tree / "src" / "fmash").resolve()
    sys.path.insert(0, str(tree / "src"))
    lines: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            lines[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def calls(frame, event, arg):
        name = frame.f_code.co_filename
        if not name.startswith(str(package)):
            return None
        lines.setdefault(name, set()).add(frame.f_lineno)
        return local

    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        sys.settrace(calls)
        try:
            from fmash.cli import execute_command

            def run(argv, expect=0):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = execute_command(argv)
                if code != expect:
                    failures.append(f"exit {code}, expected {expect}: {' '.join(argv)}: "
                                    f"{err.getvalue().strip()}".replace(tmp, "$TMP"))

            _commands(Path(tmp), run)
        finally:
            sys.settrace(None)

    findings = []
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = lines.get(str(path))
        if ran is None:
            ran = set()        # never imported: its top-level statements stand for it
        text = source.splitlines()
        findings += [Finding(path.name, scope or "<module>", node,
                             text[node.lineno - 1].strip())
                     for scope, node in unreached(source, ran)]
    return failures, findings


def main(argv: list[str]) -> int:
    entries = "--entries" in argv
    args = [a for a in argv if a != "--entries"]
    failures, findings = probe(Path(args[0]) if args else Path(__file__).resolve().parents[1])
    if entries:
        for line in failures:
            print(line, file=sys.stderr)
        for f in findings:
            print(f.entry)
        return 1 if failures else 0
    for line in failures:
        print(line)
    for module, group in itertools.groupby(findings, key=lambda f: f.module):
        print(f"{module}:")
        for f in group:
            span = f.node.end_lineno - f.node.lineno + 1
            print(f"  {f.node.lineno:4d} (+{span - 1:3d})  {f.scope}: {f.text[:70]}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
