"""The benchmark's own tests: span arithmetic and derived counts.

    PYTHONPATH=src python -m pytest -q perfbench/tests
"""

import json

import numpy as np
import pytest

import curvlab.semigroup as semigroup
import curvlab.verify as verify
from curvlab import catalog, default_schedule, make_engine, parse_potential_id
from curvlab.mfunctions import exp_integrability_F
from curvlab.suite import get

from child import digest
from run import judge
from spans import Tracer, layer_metrics, self_times, step_count


def span(name, start, end, parent=None, **counts):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "run": 0, **counts}


@pytest.fixture
def tracer():
    t = Tracer(run_id=0)
    t.install()
    yield t
    t.uninstall()


def test_self_time_subtracts_the_union_of_children():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("verify.local", 1.0, 3.0, parent=0),
        span("mehler.apply", 2.0, 5.0, parent=0),    # overlaps its sibling
        span("sde.simulate", 9.0, 12.0, parent=0),   # clipped to the parent
        span("mfn.F", 1.5, 2.0, parent=1),
    ]
    assert self_times(spans) == pytest.approx([5.0, 1.5, 3.0, 3.0, 0.5])


def test_layer_metrics_from_hand_built_spans():
    spans = [
        span("cli.main", 0.0, 10.0),
        span("verify.local", 0.5, 9.5, parent=0, records=4),
        span("mc.gamma_pt", 1.0, 5.0, parent=1),
        span("mc.apply", 1.5, 4.5, parent=2),          # nested: not an entry
        span("sde.simulate", 2.0, 4.0, parent=3, paths=100, path_steps=1000,
             exploded=1),
        span("mc.apply", 6.0, 9.0, parent=1),
        span("sde.simulate", 6.5, 8.5, parent=5, paths=100, path_steps=3000,
             exploded=0),
    ]
    m = layer_metrics(spans, n_checks=1, wall_s=10.5)
    assert m["sde.calls"] == 2
    assert m["sde.path_steps"] == 4000
    assert m["sde.busy_s"] == pytest.approx(4.0)
    assert m["sde.path_steps_per_s"] == pytest.approx(1000.0)
    assert m["sde.exploded_frac"] == pytest.approx(0.005)
    assert m["mc.apply_calls"] == 2
    assert m["mc.self_s"] == pytest.approx(1.0 + 1.0 + 1.0)
    assert m["mc.sims_per_record"] == pytest.approx(0.5)
    assert m["verify.self_s"] == pytest.approx(9.0 - 4.0 - 3.0)
    assert m["cli.self_s"] == pytest.approx(1.0)
    assert m["trace.unattributed_frac"] == pytest.approx(0.5 / 10.5)


def test_mc_verify_local_counts_match_the_default_schedule(tracer):
    # 5 nonzero times; per time 7 points x (1 value + 2 gradient + 3 alphas
    # x (1 rhs + 1 lhs-stderr)) = 63 simulations; 3900 steps summed over t
    engine = make_engine("monte-carlo", parse_potential_id("gaussian"),
                         n_paths=100, seed=0)
    # looked up at call time, as the CLI does, so the traced binding is used
    verify.verify_local(catalog("poincare"), engine, get("sine"),
                        default_schedule(), rho=1.0)
    m = layer_metrics(tracer.spans, n_checks=1, wall_s=1.0)
    assert m["sde.calls"] == 315
    assert m["sde.path_steps"] == 245_700 * 100
    assert m["verify.records"] == 126
    assert m["mc.sims_per_record"] == pytest.approx(2.5)


@pytest.mark.parametrize("t, dt, steps", [(0.3, 1e-3, 300), (0.25, 0.1, 3),
                                          (0.5, 0.5, 1), (0.0, 1e-3, 0)])
def test_grid_node_steps_are_nodes_times_solves(tracer, monkeypatch, t, dt,
                                                steps):
    solves = []
    real = semigroup.solve_banded
    monkeypatch.setattr(semigroup, "solve_banded",
                        lambda *a, **k: solves.append(1) or real(*a, **k))
    m_nodes = 101
    gen = semigroup.grid_generator(parse_potential_id("double-well"),
                                   -3.0, 3.0, m_nodes)
    f = semigroup.GridFunction.sample(get("sine"), -3.0, 3.0, m_nodes)
    semigroup.grid_apply(gen, f, t, dt)
    assert step_count(t, dt) == steps == len(solves)
    m = layer_metrics(tracer.spans, n_checks=1, wall_s=1.0)
    assert m["grid.marches"] == 1
    assert m["grid.node_steps"] == m_nodes * len(solves)


def test_mehler_node_evals_count_every_quadrature_node(tracer):
    shapes = []

    def f(z):
        shapes.append(z.shape[:-1])
        return np.sum(z, axis=-1)

    semigroup.mehler_apply(f, 0.5, np.zeros((7, 2)), order=16, n=2)
    m = layer_metrics(tracer.spans, n_checks=1, wall_s=1.0)
    assert m["mehler.node_evals"] == np.prod(shapes[0]) == 7 * 16 ** 2


def test_special_function_elements_and_caller_bindings(tracer):
    import curvlab.cli
    import curvlab.mfunctions as mfunctions

    assert curvlab.cli.verify_local is verify.verify_local
    assert curvlab.cli.verify_local.__wrapped__ is not None
    mfunctions.exp_integrability_F(np.full((3, 4), 0.5))
    m = layer_metrics(tracer.spans, n_checks=1, wall_s=1.0)
    assert m["mfn.F_elements"] == 12
    assert m["mfn.quad_calls"] >= 1


def test_uninstall_restores_the_originals():
    import curvlab.mfunctions as mfunctions

    t = Tracer(run_id=0)
    t.install()
    assert mfunctions.exp_integrability_F is not exp_integrability_F
    t.uninstall()
    assert mfunctions.exp_integrability_F is exp_integrability_F


def test_digest_ignores_only_the_varying_fields(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for d, stamp, margin in ((a, "t1", "0.5"), (b, "t2", "0.5")):
        d.mkdir()
        (d / "summary.json").write_text(json.dumps(
            {"timestamp": stamp, "wall_time_s": 1.0, "all_pass": True}))
        (d / "margins.csv").write_text(
            "x,t,alpha,s,lhs,rhs,margin,stderr\n"
            f"0.0,0.1,0.0,,1,1,{margin},0.0\n")
    assert digest(a)["hash"] == digest(b)["hash"]
    assert digest(a)["margins"] == [0.5]
    (b / "margins.csv").write_text(
        "x,t,alpha,s,lhs,rhs,margin,stderr\n0.0,0.1,0.0,,1,1,0.25,0.0\n")
    assert digest(a)["hash"] != digest(b)["hash"]


def test_judge_counts_raises_flips_and_hash_changes():
    ref = [{"argv": ["verify"], "verdict": 0, "margins": []},
           {"argv": ["run", "doublewell-falsify"], "verdict": 0,
            "margins": []}]

    def check(rc=0, error=None, h="h", margins=(0.1,), argv=("verify",)):
        return {"argv": list(argv), "rc": rc, "error": error, "hash": h,
                "margins": list(margins)}

    falsify = ("run", "doublewell-falsify")
    good = {"checks": [check(), check(margins=(-0.1,), argv=falsify)]}
    assert judge([good, good], ref)[:2] == (4, 0)
    bad = {"checks": [check(rc=1), check(margins=(-1e-4,), argv=falsify)]}
    assert judge([good, bad], ref)[:2] == (4, 2)
    raised = {"checks": [check(rc=None, error="SimulationError: x"),
                         check(h="other", margins=(-0.1,), argv=falsify)]}
    assert judge([good, raised], ref)[:2] == (4, 2)
