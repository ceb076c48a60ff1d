"""fmash benchmark: one workload per process, end-to-end or per-layer metrics.

    python3 bench/run.py --workload acceptance-cli --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload fullscale --seed 1 --seconds 45 --trace 1
    python3 -m pytest bench              # the harness's own arithmetic

Workloads and metrics are declared in BENCHMARK.json at the repository
root; the workloads themselves are described in ``workloads.py``.  The
corpus seed is ``--seed``; ``--seconds`` sets how many serving passes run
in each serving slot.  ``--trace 0`` prints every
end-to-end metric; ``--trace 1`` also records spans around the public
functions of every layer and prints the per-layer metrics instead.  Both
modes wrap ``run_phase1``, ``train_rs``, ``train_seq`` and ``Adam.step``,
which the end-to-end metrics are timed from.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and sample counts.  The full result (environment,
sample counts, failed checks, prediction-file hashes and, for traced runs,
spans by name, per-layer self time and the tracing overhead against an
untraced run with the same seed and sources) is written to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from pathlib import Path

# pin BLAS threads before numpy is imported anywhere
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".bench_out"
WORK_DIR = ROOT / ".bench_work"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    return parser.parse_args(argv)


def _import_fmash():
    """Import fmash from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "fmash" / "__init__.py").is_file():
        raise SystemExit(f"error: no fmash sources at {src}")
    sys.path.insert(0, str(src))
    import fmash
    if Path(fmash.__file__).resolve().parent != (src / "fmash").resolve():
        raise SystemExit(f"error: imported fmash from {fmash.__file__}, not {src}")
    return fmash


def _source_digest() -> str:
    """Digest of the program's and the benchmark's sources."""
    digest = hashlib.sha256()
    bench = Path(__file__).resolve().parent
    for path in sorted([*(ROOT / "src" / "fmash").rglob("*.py"), *bench.glob("*.py")]):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _environment(fmash) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "fmash": fmash.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": BLAS_THREADS,
            "cpus": len(os.sched_getaffinity(0))}


def _check_determinism(run, key: str) -> None:
    """Prediction files must hash the same as in an earlier run of the same
    workload, seed and sources, when one was recorded in this checkout."""
    path = OUT_DIR / "prediction_hashes.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    if key in known:
        run.check(known[key] == run.hashes,
                  f"prediction files differ from an earlier run with the same "
                  f"seed: {known[key]} vs {run.hashes}")
    else:
        known[key] = run.hashes
        path.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")


def check_declared(values: dict, declared: dict, section: str) -> None:
    """The metrics about to be printed must be exactly those BENCHMARK.json
    declares in ``section``, with the same unit and direction."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: (m["unit"], m["better"]) for m in spec[section]}
    if listed != declared or set(values) != set(declared):
        raise SystemExit(f"error: {section} metrics disagree with BENCHMARK.json: "
                         f"printed {sorted(values)}, declared {sorted(listed)}")


def main(argv=None) -> int:
    args = _parse(argv)
    fmash = _import_fmash()
    import workloads
    from spans import Recorder

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)
    WORK_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = WORK_DIR / f"{tag}-{os.getpid()}"
    rec = Recorder(run_id=f"{tag}-{int(time.time())}")
    run = workloads.Run(args.workload, args.seed, args.seconds, workdir, rec)
    run.info["environment"] = _environment(fmash)
    workloads.install_patches(rec, full=bool(args.trace))
    try:
        e2e, quality = workloads.WORKLOADS[args.workload](run)
        layers = workloads.layer_metrics(run, quality) if args.trace else {}
    finally:
        rec.close()
        shutil.rmtree(workdir, ignore_errors=True)
    src = _source_digest()
    _check_determinism(run, f"{args.workload}:{args.seed}:{src}")

    declared = workloads.PER_LAYER if args.trace else workloads.END_TO_END
    chosen = layers if args.trace else e2e
    check_declared(chosen, declared, "per_layer" if args.trace else "end_to_end")
    metrics = {name: {"value": float(value), "unit": declared[name][0]}
               for name, value in chosen.items()}
    result = {"correct": not run.failures, "attempted": run.attempted,
              "failed": len(run.failures), "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "source": src,
              **run.info, "quality": quality, "prediction_sha256": run.hashes,
              "failures": run.failures,
              "end_to_end": e2e}
    if args.trace:
        detail["per_layer"] = layers
        detail["layer_self_s"] = rec.layer_self_times()
        detail["spans_by_name"] = rec.table()
        untraced = OUT_DIR / f"{args.workload}-seed{args.seed}-trace0.json"
        base = json.loads(untraced.read_text()) if untraced.exists() else {}
        if base.get("source") == src:
            # one traced run minus one untraced run: host noise is in the
            # difference too, and can be larger than the tracing cost
            detail["tracing_overhead"] = {
                "untraced_source": base["source"],
                "traced_minus_untraced": {
                    k: detail["end_to_end"][k] - v
                    for k, v in base["end_to_end"].items()}}
        (OUT_DIR / f"{tag}.spans.json").write_text(json.dumps(rec.dump()) + "\n")
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps({key: run.info.get(key) for key in
                      ("environment", "corpus", "split", "samples",
                       "tokens_per_instance")} | {"failures": run.failures[:10]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
