import pytest

from fmash import cli
from fmash.dataio import generate_synthetic

from memory_probe import FULL_CORPUS


@pytest.fixture(autouse=True)
def _empty_head_memo():
    """Start every test with nothing served loaded, so a test that checks how
    ``recommend``/``generate`` load the corpus names and a checkpoint runs
    that load instead of reusing what an earlier test loaded from identical
    bytes."""
    cli._HEAD_MEMO.clear()
    yield


@pytest.fixture(scope="session")
def full_scale_corpus():
    """The full-scale benchmark corpus (``memory_probe.FULL_CORPUS``) at
    seed 1, drawn once per session; its records are read-only."""
    return generate_synthetic(**FULL_CORPUS, seed=1)
