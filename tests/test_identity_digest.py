"""The byte-identity digest script, ``tests/identity_digest.py``, on a
small slice of its corpus: a second run, in a subprocess, agrees."""

import re
import sys
from pathlib import Path

import identity_digest


def test_two_runs_on_a_slice_agree(monkeypatch, capsys):
    monkeypatch.setattr(sys, "path", list(sys.path))
    lines = identity_digest.digest_lines(limit=1)
    # One case of each generator: three families for a Markov case, two
    # for a Bayesian or a chordal one.
    assert len(lines) == 3 + 2 + 2 + 3 + 3 + 3 + 3
    assert all(re.fullmatch(r"\S+ (tr|ve|pearl|trmor) [0-9a-f]{16}", s) for s in lines)
    repo = Path(__file__).resolve().parent.parent
    assert identity_digest.main(["--limit", "1", "--against", str(repo)]) == 0
    assert capsys.readouterr().out == ""
