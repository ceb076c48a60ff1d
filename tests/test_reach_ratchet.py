"""``src/fmash`` holds nothing that only tests reach, beyond what
``tests/unreached.txt`` lists with its reason.

``tests/reach_probe.py`` runs every CLI command under a tracer in a fresh
interpreter, so that module-level code runs traced too, and lists each
statement no command reached; the list must equal the file's, entry for
entry.
"""

import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent


@pytest.fixture(scope="module")
def probe():
    return subprocess.run([sys.executable, str(TESTS / "reach_probe.py"), "--entries"],
                          capture_output=True, text=True, timeout=600)


def _counts(lines) -> Counter:
    return Counter(line.rstrip() for line in lines
                   if line.strip() and not line.startswith("#"))


def _found(probe) -> Counter:
    return _counts(probe.stdout.splitlines())


def _listed() -> Counter:
    return _counts((TESTS / "unreached.txt").read_text(encoding="utf-8").splitlines())


def test_every_probe_command_exits_as_it_declares(probe):
    assert probe.returncode == 0, probe.stderr


def test_every_unreached_statement_is_listed(probe):
    missing = sorted((_found(probe) - _listed()).elements())
    assert not missing, ("statements no command reaches, missing from "
                         "tests/unreached.txt:\n" + "\n".join(missing))


def test_every_listed_statement_is_still_unreached(probe):
    reached = sorted((_listed() - _found(probe)).elements())
    assert not reached, ("statements tests/unreached.txt lists that a command now "
                         "reaches, or that are gone:\n" + "\n".join(reached))
