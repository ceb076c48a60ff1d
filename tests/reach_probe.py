"""Which statements of ``src/fmash`` no command reaches.

One process, traced with ``sys.settrace`` (only frames whose code lives in
``TREE/src/fmash`` are followed), runs the CLI end to end:

- ``synth`` writes three corpora: a clustered one, a conflicting one and a
  clustered one whose symptoms carry text embeddings (attached to
  ``symptoms.jsonl`` here, since ``synth`` writes none);
- for each of the 16 combinations of the four ``ablation`` switches, at
  tiny dims and epochs, on the three corpora in turn, half of them at
  ``train.batch`` 0 and half at 32: ``prepare``, ``train-rs``,
  ``train-seq``, both ``evaluate`` runs (the ranked one at ``--k 3,5``),
  ``impute-mol`` and two ``recommend`` and two ``generate`` queries.

It prints each command that did not exit 0, with its exit code and
message, then, per module, the outermost statements that never ran (a
compound statement that never ran stands for its whole body), leaving out
``raise`` statements.  Not part of the test suite; a run takes about 6 s
on 2 cores::

    python tests/reach_probe.py [TREE]

``TREE`` is a source tree (default: the one holding this file).
"""

from __future__ import annotations

import ast
import contextlib
import io
import itertools
import json
import sys
import tempfile
from pathlib import Path


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


def unreached(source: str, ran: set[int]) -> list[ast.stmt]:
    """The outermost statements of ``source`` none of whose header lines is
    in ``ran``, without ``raise`` statements, docstrings, ``global`` and
    ``nonlocal`` declarations (which run no code of their own)."""
    found = []

    def visit(body):
        for node, blocks in _statements(body):
            if isinstance(node, (ast.Raise, ast.Global, ast.Nonlocal)) or _is_docstring(node):
                continue
            if ran.isdisjoint(_header(node)):
                found.append(node)
                continue
            for block in blocks:
                visit(block)

    visit(ast.parse(source).body)
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
    return [clustered, conflicting, text]


def probe(tree: Path) -> None:
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
        root = Path(tmp)
        sys.settrace(calls)
        try:
            from fmash.cli import execute_command

            def run(argv):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = execute_command(argv)
                if code != 0:
                    failures.append(f"exit {code}: {' '.join(argv)}: {err.getvalue().strip()}"
                                    .replace(tmp, "$TMP"))

            corpora = _corpora(root, run)
            switches = ("hgre", "mlfie", "gelram", "fr")
            for i, flags in enumerate(itertools.product((True, False), repeat=4)):
                corpus, work = corpora[i % 3], root / f"work{i}"
                cfg = {"paths": {"corpus": str(corpus), "workdir": str(work)},
                       "dims": {"d": 16, "d_m": 8, "d_k": 4, "d_enc": 16, "d_z": 4,
                                "d_state": 4},
                       "graph": {"tau_s": 1, "tau_h": 1},
                       "train": {"epochs": 2, "batch": 32 * (i % 2), "lr": 1e-2,
                                 "ratio": [0.7, 0.1, 0.2], "mlfie_epochs": 2,
                                 "vae_epochs": 2, "fr_epochs": 2},
                       "ablation": dict(zip(switches, flags))}
                path = root / f"run{i}.json"
                path.write_text(json.dumps(cfg), encoding="utf-8")
                conf = ["--config", str(path)]
                for cmd in (["prepare"], ["train-rs"], ["train-seq"],
                            ["evaluate", "--pred", str(work / "rs_predictions.tsv"),
                             "--k", "3,5"],
                            ["evaluate", "--pred", str(work / "seq_predictions.tsv"),
                             "--head", "seq"],
                            ["impute-mol", "--out", str(work / "imputed.tsv")]):
                    run(cmd[:1] + conf + cmd[1:])
                names = [json.loads(line)["name"] for line in
                         (corpus / "symptoms.jsonl").read_text(encoding="utf-8").splitlines()]
                for query in (names[:2], names[-3:]):
                    run(["recommend", *conf, "--symptoms", ",".join(query), "--k", "3"])
                    run(["generate", *conf, "--symptoms", ",".join(query)])
        finally:
            sys.settrace(None)

    for line in failures:
        print(line)
    for path in sorted(package.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        ran = lines.get(str(path))
        if ran is None:
            print(f"{path.name}: never imported ({len(source.splitlines())} lines)")
            continue
        missed = unreached(source, ran)
        if not missed:
            continue
        print(f"{path.name}:")
        for node in missed:
            span = node.end_lineno - node.lineno + 1
            text = source.splitlines()[node.lineno - 1].strip()
            print(f"  {node.lineno:4d} (+{span - 1:3d})  {text[:70]}")


if __name__ == "__main__":
    probe(Path(sys.argv[1]) if len(sys.argv) > 1 else Path(__file__).resolve().parents[1])
