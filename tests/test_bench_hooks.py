"""The benchmark in ``bench/`` wraps fmash functions by module and name.

Renaming or removing one of them breaks the benchmark, so these tests
install every patch it uses and run a small phase 1 under them.
"""

import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

from fmash import mlfie, pipeline  # noqa: E402
from fmash.config import RunConfig  # noqa: E402
from fmash.dataio import build_graph, generate_synthetic  # noqa: E402


def test_every_benchmark_patch_installs_and_restores():
    originals = (pipeline.run_phase1, mlfie.train_property_alignment)
    rec = spans.Recorder("t")
    try:
        workloads.install_patches(rec, full=True)
        assert pipeline.run_phase1 is not originals[0]
    finally:
        rec.close()
    assert (pipeline.run_phase1, mlfie.train_property_alignment) == originals


def test_molecular_stage_spans_nest_under_phase1():
    sym, herbs, pres = generate_synthetic(10, 30, 3, 30, seed=3,
                                        unique_symptom_sets=False)
    graph = build_graph(pres, len(sym), len(herbs))
    cfg = RunConfig()
    cfg.dims.d, cfg.dims.d_m, cfg.dims.d_k, cfg.dims.d_z = 16, 8, 4, 4
    cfg.train.mlfie_epochs = cfg.train.vae_epochs = cfg.train.fr_epochs = 2
    rec = spans.Recorder("t")
    try:
        workloads.install_patches(rec, full=True)
        pipeline.run_phase1(sym, herbs, graph, cfg)
    finally:
        rec.close()
    for name in ("mlfie.align", "mlfie.complete_pairs", "mlfie.vae", "mlfie.herb_repr"):
        assert len(rec.named(name, under="pipeline.phase1")) == 1, name
