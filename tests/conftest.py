import pytest

from fmash import cli


@pytest.fixture(autouse=True)
def _empty_head_memo():
    """Start every test with nothing served loaded, so a test that checks how
    ``recommend``/``generate`` load the corpus names and a checkpoint runs
    that load instead of reusing what an earlier test loaded from identical
    bytes."""
    cli._HEAD_MEMO.clear()
    yield
