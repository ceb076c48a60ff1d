"""Which tier-1 tests fail when a piece of FMASH stops doing its work.

Each mutant is a named list of source edits, ``(file, text, replacement)``,
kept here as data: ``src`` has no switch for any of them.  For each mutant
the probe archives ``REV`` of this repository (``git archive``) into a
temporary directory, applies the edits and runs the tier-1 command there::

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

with BLAS on one thread and ``--junitxml``, then reads the failed tests
from the XML.  A mutant is killed when a test fails that is neither the
reach ratchet (``tests/test_reach_ratchet.py``, which fails on any change
of which statements run) nor a sha256 byte pin (``*_keeps_its_bytes``,
``*_keep_their_bytes``, which fail on any change of a drawn corpus); those
failures are listed apart.  A mutant whose text is not found in its file
exactly once is reported, not run.  ``none`` runs the tree unmutated.
Two copies run at once::

    python tests/mutation_probe.py [--rev REV] [--mutant NAME ...]

``REV`` defaults to ``HEAD``; to probe uncommitted work, pass the commit
``git stash create`` prints after ``git add -A``.  A full run takes about
13 minutes on 2 cores, one tier-1 run per mutant.
"""

from __future__ import annotations

import argparse
import io
import os
import re
import subprocess
import sys
import tarfile
import tempfile
import xml.etree.ElementTree as ET
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
JOBS = 2
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors", "-p", "no:cacheprovider"]
RATCHET = "tests/test_reach_ratchet.py::"
PIN = re.compile(r"_keeps?_(its|their)_bytes")

MUTANTS: dict[str, list[tuple[str, str, str]]] = {
    "none": [],
    # one per paper stage (ROADMAP item 16)
    "noise-table": [(
        "src/fmash/pipeline.py",
        'matrix=np.concatenate([compressed["sym"], compressed["herb"]], axis=0),',
        'matrix=np.random.default_rng(seed).standard_normal('
        '(n_sym + n_herb, compressed["sym"].shape[1])).astype(np.float32),')],
    "hgre-discarded": [(
        "src/fmash/pipeline.py",
        "graph_features = hgre_forward(Tensor(init), graph, hgre_params).data",
        "hgre_forward(Tensor(init), graph, hgre_params); graph_features = init")],
    "molecules-zeroed": [(
        "src/fmash/pipeline.py",
        "histories.update(fit_histories)",
        "histories.update(fit_histories); herb_reprs = herb_reprs * 0")],
    "refinement-untrained": [(
        "src/fmash/pipeline.py",
        "matrix, params, epochs=cfg.train.fr_epochs,",
        "matrix, params, epochs=0,")],
    "matcher-uniform": [(
        "src/fmash/recsys.py",
        "return softmax(logits) @ herb_t",
        "return softmax(logits * 0.0) @ herb_t")],
    "head-reads-output-weights-only": [(
        "src/fmash/recsys.py",
        "    if targets is None:\n        return linear(x, w, bias)",
        "    x = x * 0.0\n    if targets is None:\n        return linear(x, w, bias)")],
    # the corpus records' memory, in both readers
    "records-unslotted": [(
        "src/fmash/dataio.py",
        "@dataclass(slots=True)\nclass PrescriptionInstance:",
        "@dataclass\nclass PrescriptionInstance:")],
    "ids-unshared": [
        ("src/fmash/dataio.py",
         "sym_set = tuple(sorted({ids[s] for s in sym_ids}))",
         "sym_set = tuple(sorted(set(sym_ids)))"),
        ("src/fmash/dataio.py",
         "herbs=tuple(dict.fromkeys([ids[h] for h in herb_ids]))))",
         "herbs=tuple(dict.fromkeys(herb_ids))))"),
        ("src/fmash/dataio.py",
         "sym_ids = tuple(sorted([ids[i] for i in rng.choice(",
         "sym_ids = tuple(sorted([i for i in rng.choice("),
        ("src/fmash/dataio.py",
         "herbs=tuple([ids[h] for h in herb_ids])))",
         "herbs=tuple(herb_ids)))")],
    "symptom-tuples-unshared": [
        ("src/fmash/dataio.py",
         "symptoms=symptom_sets.setdefault(sym_set, sym_set),",
         "symptoms=sym_set,"),
        ("src/fmash/dataio.py",
         "sym_ids = drawn.setdefault(sym_ids, sym_ids)",
         "drawn.setdefault(sym_ids, sym_ids)")],
    # a lost gradient in each function whose module-level finite-difference
    # check repeated the acceptance gate's c2
    "block-residual-detached": [(
        "src/fmash/hgre.py",
        "    return x + merged",
        "    return Tensor(x.data) + merged")],
    "attention-values-detached": [(
        "src/fmash/mlfie.py",
        "return (alpha.reshape(h, k, 1) * mol_embs).sum(axis=1)",
        "return (alpha.reshape(h, k, 1) * Tensor(mol_embs.data)).sum(axis=1)")],
    "gate-input-detached": [(
        "src/fmash/mlfie.py",
        "lam = params(v_h).sigmoid()",
        "lam = params(Tensor(v_h.data)).sigmoid()")],
    "sequence-states-detached": [(
        "src/fmash/seqgen.py",
        "return linear_cross_entropy(states, params.out.weight, params.out.bias,",
        "return linear_cross_entropy(Tensor(states.data), params.out.weight, "
        "params.out.bias,")],
}


def _archive(rev: str, dest: Path) -> None:
    """``git archive rev`` of this repository, unpacked into ``dest``."""
    blob = subprocess.run(["git", "-C", str(ROOT), "archive", rev],
                          check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(blob)) as tar:
        tar.extractall(dest, filter="data")


def _apply(tree: Path, edits: list[tuple[str, str, str]]) -> str | None:
    """Apply ``edits`` to ``tree``; the first edit whose text is not in its
    file exactly once, or None."""
    for name, text, replacement in edits:
        path = tree / name
        source = path.read_text(encoding="utf-8") if path.is_file() else ""
        if source.count(text) != 1:
            return (f"{name}: text found {source.count(text)} times, expected once: "
                    f"{text.splitlines()[0]!r}")
        path.write_text(source.replace(text, replacement), encoding="utf-8")
    return None


def _failed(xml: Path) -> tuple[list[str], str]:
    """The ids of the failed and errored tests in a junit file, and its
    totals."""
    suite = ET.parse(xml).getroot()
    suite = suite.find("testsuite") if suite.tag == "testsuites" else suite
    failed = []
    for case in suite.iter("testcase"):
        if case.find("failure") is not None or case.find("error") is not None:
            path = case.get("classname", "").replace(".", "/") + ".py"
            failed.append(f"{path}::{case.get('name')}")
    totals = ", ".join(f"{suite.get(k)} {k}" for k in ("tests", "failures", "errors",
                                                       "skipped"))
    return failed, totals


def run_mutant(rev: str, name: str) -> dict:
    """Tier-1 on ``rev`` with mutant ``name`` applied."""
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        tree = Path(tmp) / "tree"
        _archive(rev, tree)
        missing = _apply(tree, MUTANTS[name])
        if missing:
            return {"name": name, "missing": missing}
        env = {**os.environ, "PYTHONPATH": "src", "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        xml = Path(tmp) / "junit.xml"
        subprocess.run([sys.executable, *TIER1, f"--junitxml={xml}"], cwd=tree, env=env,
                       capture_output=True)
        if not xml.is_file():
            return {"name": name, "missing": "pytest wrote no junit file"}
        failed, totals = _failed(xml)
    return {"name": name, "failed": failed, "totals": totals}


def _verdict(failed: list[str]) -> tuple[str, list[str]]:
    kills = [t for t in failed if not t.startswith(RATCHET) and not PIN.search(t)]
    if kills:
        return "killed", kills
    return ("ratchet/pins only" if failed else "survived"), kills


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rev", default="HEAD")
    parser.add_argument("--mutant", action="append", choices=sorted(MUTANTS),
                        help="run only this mutant (repeatable; default: all)")
    args = parser.parse_args(argv)
    names = args.mutant or list(MUTANTS)
    with ThreadPoolExecutor(JOBS) as pool:
        results = list(pool.map(lambda n: run_mutant(args.rev, n), names))

    print(f"rev {args.rev}")
    print(f"{'mutant':32s} {'verdict':18s} kills  ratchet  pins")
    for r in results:
        if "missing" in r:
            print(f"{r['name']:32s} NOT RUN: {r['missing']}")
            continue
        verdict, kills = _verdict(r["failed"])
        ratchet = sum(t.startswith(RATCHET) for t in r["failed"])
        pins = sum(bool(PIN.search(t)) for t in r["failed"])
        print(f"{r['name']:32s} {verdict:18s} {len(kills):5d}  {ratchet:7d}  {pins:4d}")
    for r in results:
        if r.get("failed"):
            print(f"\n{r['name']} ({r['totals']}):")
            for t in r["failed"]:
                tag = " [ratchet]" if t.startswith(RATCHET) else \
                    " [pin]" if PIN.search(t) else ""
                print(f"  {t}{tag}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
