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


def test_the_queries_cover_every_generator():
    # One case of each generator, the query-only ones included: the joint
    # only where it is small, the partition function for a Markov case.
    cases = {}
    for line in identity_digest.query_lines(limit=1):
        assert re.fullmatch(r"\S+ (z|m1|m2|dist|part) [0-9a-f]{16}", line)
        case, family, _ = line.split()
        cases.setdefault(case, []).append(family)
    small, large = ["z", "m1", "m2", "dist"], ["z", "m1", "m2"]
    assert cases == {
        "mn:0": small + ["part"],
        "bn:0": small,
        "cn:0": small,
        "17:0": small + ["part"],
        "5:0": small + ["part"],
        "chain[1.0,3.0]": large + ["part"],
        "star500": large + ["part"],
        "grid1": large + ["part"],
        "mixed0": large + ["part"],
    }
