"""Self-tests of the benchmark harness (not of chordalnet).

Run from the root of a checkout with ``python -m pytest bench``.
They use small instances of the workloads so that they finish quickly.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np
import pytest

import run
import workloads as wl

sys.path.insert(0, str(wl.SRC))

SMALL = {
    "chain": lambda seed, work: wl.Chain(seed, work, n=12),
    "grid": lambda seed, work: wl.Grid(seed, work, k=3, pool=2),
    "query": lambda seed, work: wl.Query(seed, work, n=8, pool=2),
}


@pytest.fixture(autouse=True)
def work_dir(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    return tmp_path


def set_up(name, seed, work):
    workload = SMALL[name](seed, work)
    workload.setup(wl.import_chordalnet())
    return workload


def phase(workload, ops=4):
    return run.run_phase(workload, 0.0, ops, float("inf"))


def test_generators_are_deterministic_for_a_seed():
    def documents(seed):
        chain = wl.chain_inputs(wl.rng_for(seed, "chain", 5), 30)
        grid = wl.grid_inputs(wl.rng_for(seed, "grid", 0), 4, 3)
        bn = wl.bayesian_inputs(wl.rng_for(seed, "query", 0, 0), 12, 3, 5)
        return (
            json.dumps(chain.document),
            chain.log_z,
            [t.tolist() for t in grid.factors.values()],
            grid.log_z,
            json.dumps(bn.document),
        )

    assert documents(7) == documents(7)
    assert all(a != b for a, b in zip(documents(7), documents(8)))


def test_reference_log_z_matches_brute_force():
    grid = wl.grid_inputs(wl.rng_for(1, "grid", 0), 3, 2)
    total = sum(
        np.exp(wl.ref.pairwise_log_mass(grid.factors, dict(zip(grid.names, x))))
        for x in np.ndindex(*(2,) * len(grid.names))
    )
    assert grid.log_z == pytest.approx(np.log(total), rel=1e-12)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_real_program_passes_every_check(name, work_dir):
    result = phase(set_up(name, 3, work_dir))
    assert (result.attempted, result.failed) == (4, 0)


def _raise(*args, **kwargs):
    raise RuntimeError("deliberate failure")


def _wrong_elimination(original):
    def fake(cn):
        bn, trace = original(cn)
        v = bn.graph.vertices[-1]
        k = bn.kernels[v]
        values = k.values.reshape(-1, cn.vt.card(v))[:, ::-1].ravel()
        kernels = {**bn.kernels, v: type(k)(k.child, k.parents, values)}
        return type(bn)(bn.graph, bn.vt, kernels), trace

    return fake


FAKES = {
    "raising conversion": ("grid", "transforms", "variable_elimination", lambda orig: _raise),
    "wrong conversion": ("grid", "transforms", "variable_elimination", _wrong_elimination),
    "cli exit code": ("chain", "cli", "main", lambda orig: lambda argv: 3),
    "raising cli": ("chain", "cli", "main", lambda orig: _raise),
    "wrong separation": ("query", "graphs", "d_separated", lambda orig: lambda *a: True),
}


@pytest.mark.parametrize("fake", sorted(FAKES))
def test_fake_program_is_counted_as_failed(fake, work_dir, monkeypatch):
    name, module, attr, make = FAKES[fake]
    workload = set_up(name, 3, work_dir)
    target = getattr(workload.mods, module)
    monkeypatch.setattr(target, attr, make(getattr(target, attr)))
    result = phase(workload)
    assert (result.attempted, result.failed) == (4, 4)


STRUCTURAL = (
    "graphs.fill_edges",
    "graphs.induced_width",
    "transforms.table_entries",
    "transforms.max_family_entries",
)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_structural_counts_repeat_exactly(name, work_dir):
    args = argparse.Namespace(seed=4, seconds=0.0)

    def counts():
        metrics, attempted, failed = run.per_layer(args, SMALL[name](args.seed, work_dir))
        assert failed == 0
        return {k: metrics[k][0] for k in STRUCTURAL}

    first = counts()
    assert first == counts()
    assert first["transforms.max_family_entries"] > 0


def test_metric_lists_match_benchmark_json(work_dir):
    spec = json.loads((wl.ROOT / "BENCHMARK.json").read_text())
    args = argparse.Namespace(seed=2, seconds=0.0)
    e2e, _, _ = run.end_to_end(args, set_up("query", 2, work_dir))
    layers, _, _ = run.per_layer(args, SMALL["query"](2, work_dir))
    for listed, reported in ((spec["end_to_end"], e2e), (spec["per_layer"], layers)):
        assert [(m["name"], m["unit"]) for m in listed] == [
            (name, unit) for name, (_, unit, _) in reported.items()
        ]
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
