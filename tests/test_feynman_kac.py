import math
import os

import numpy as np
import pytest

from curvlab import feynman_kac, sde
from curvlab.errors import CertificationError, ParameterError, SimulationError
from curvlab.feynman_kac import (commutation_check, gradient_bound,
                                 supermartingale_check)
from curvlab.potentials import (LyapunovCertificate, constant_certificate,
                                make_double_well, make_example_potential,
                                make_lyapunov)
from curvlab.sde import _level_count
from curvlab.semigroup import GridEngine, MehlerEngine, MonteCarloEngine
from curvlab.suite import get
from curvlab.verify import Schedule

GAUSS = make_example_potential("gaussian")
ENGINE = MehlerEngine(GAUSS)
RHO = {"rho": lambda x, drift: GAUSS.curvature(x)}


def one_plus_sq(x):
    x = np.asarray(x, dtype=float)
    return 1.0 + np.sum(x * x, axis=-1)


def lgg_one_plus_sq(x):
    x = np.asarray(x, dtype=float)
    r2 = np.sum(x * x, axis=-1)
    return (2.0 - 2.0 * r2) / (1.0 + r2)


def one_plus_sq_cert(n: int = 1) -> LyapunovCertificate:
    """g = 1 + |x|^2 in log form; p and beta play no part in the
    supermartingale check."""

    def log_value(x):
        return np.log1p(np.sum(x * x, axis=-1))

    def log_grad(x):
        return 2.0 * x / (1.0 + np.sum(x * x, axis=-1))[..., None]

    def log_laplacian(x):
        r2 = np.sum(x * x, axis=-1)
        return (2.0 * n * (1.0 + r2) - 4.0 * r2) / (1.0 + r2) ** 2

    return LyapunovCertificate(2.0, 1.0, 1.0, n, log_value, log_grad,
                               log_laplacian, label="1+|x|^2")


def test_constant_curvature_weight_is_exact(paths_at):
    [(_, ints)] = paths_at(GAUSS, np.array([0.5]), 0.7, 1e-3, 500, 3, RHO)
    # rho is identically 1, so the integral is t path-by-path
    assert np.max(np.abs(ints["rho"] - 0.7)) < 1e-12
    w = np.exp(-ints["rho"])
    assert np.max(np.abs(w - math.exp(-0.7))) < 1e-12


def test_supermartingale_unit_g_is_exact():
    rep = supermartingale_check(GAUSS, constant_certificate(), x0=0.5,
                                ts=(0.25, 1.0), n_paths=500, dt=1e-2, seed=1)
    assert all(r.margin == 0.0 for r in rep.records)
    assert all(r.stderr == 0.0 for r in rep.records)


def test_supermartingale_one_plus_square():
    cert = one_plus_sq_cert()
    x = np.linspace(-3.0, 3.0, 13)[:, None]
    np.testing.assert_allclose(cert.g_value(x), one_plus_sq(x), rtol=1e-14)
    # on the gaussian the drift at x is x
    np.testing.assert_allclose(cert.lg_over_g(x, x), lgg_one_plus_sq(x),
                               rtol=1e-14, atol=1e-15)
    rep = supermartingale_check(GAUSS, cert, x0=1.0,
                                ts=(0.25, 0.5, 1.0), n_paths=20000, dt=2e-3,
                                seed=5)
    assert rep.passed
    for r in rep.records:
        assert r.rhs == 2.0
        assert r.margin >= -4.0 * r.stderr


def test_supermartingale_spherical_certificate():
    sph = make_example_potential("spherical", alpha=1.5)
    cert = make_lyapunov("spherical", alpha=1.5, p=2.0)
    rep = supermartingale_check(sph, cert, x0=1.0, ts=(0.25, 0.5),
                                n_paths=20000, dt=2e-3, seed=7)
    assert rep.passed


def test_gradient_bound_linear_is_equality():
    rep = gradient_bound(GAUSS, get("linear"), xs=[0.7], ts=(0.5,),
                         lhs_engine=ENGINE, n_paths=400, dt=1e-2, seed=2)
    r = rep.records[0]
    assert abs(r.lhs - math.exp(-0.5)) < 1e-12
    assert abs(r.margin) < 1e-12
    assert r.stderr < 1e-12


def test_gradient_bound_quadratic_hand_value():
    rep = gradient_bound(GAUSS, get("quadratic"), xs=[1.0], ts=(0.5,),
                         lhs_engine=ENGINE, n_paths=20000, dt=1e-3, seed=4)
    r = rep.records[0]
    assert abs(r.lhs - 2.0 * math.exp(-1.0)) < 1e-9
    assert r.margin >= -4.0 * r.stderr
    assert rep.passed


def test_gradient_bound_t_zero():
    rep = gradient_bound(GAUSS, get("sine"), xs=[0.4], ts=(0.0,),
                         lhs_engine=ENGINE, n_paths=200, dt=1e-2, seed=0)
    r = rep.records[0]
    assert abs(r.margin) < 1e-12
    assert abs(r.lhs - abs(math.cos(0.4))) < 1e-12


@pytest.mark.parametrize("kind,alpha", [
    ("gaussian", None),
    ("spherical", 1.5),
    ("product-power", 1.5),
])
def test_gradient_bound_suite_functions(kind, alpha):
    pot = GAUSS if kind == "gaussian" else make_example_potential(kind, alpha=alpha)
    eng = ENGINE if kind == "gaussian" else GridEngine(pot, lo=-12.0,
                                                       hi=12.0, m=2001,
                                                       dt=1e-3)
    for fname in ("sine", "gauss-bump"):
        rep = gradient_bound(pot, get(fname), xs=[-1.0, 0.5], ts=(0.3,),
                             lhs_engine=eng, n_paths=8000, dt=2e-3, seed=13)
        assert rep.passed, (kind, fname, rep.worst)


def test_commutation_constant_certificate_linear_equality():
    rep = commutation_check(GAUSS, constant_certificate(), get("linear"),
                            xs=[0.3], ts=(0.4,), lhs_engine=ENGINE,
                            n_paths=400, dt=1e-2, seed=3)
    r = rep.records[0]
    assert abs(r.lhs - math.exp(-0.8)) < 1e-12
    assert abs(r.margin) < 1e-12


def test_commutation_t_zero_trivial():
    cert = make_lyapunov("spherical", alpha=1.5, p=2.0)
    sph = make_example_potential("spherical", alpha=1.5)
    geng = GridEngine(sph, lo=-12.0, hi=12.0, m=2001, dt=1e-3)
    rep = commutation_check(sph, cert, get("sine"), xs=[1.0], ts=(0.0,),
                            lhs_engine=geng, n_paths=200, dt=1e-2, seed=0)
    r = rep.records[0]
    # g >= 1 makes the t = 0 margin (g(x) - 1)|grad f|^p >= 0
    assert r.margin >= -1e-12


def test_commutation_spherical_certificate():
    sph = make_example_potential("spherical", alpha=1.5)
    cert = make_lyapunov("spherical", alpha=1.5, p=2.0)
    geng = GridEngine(sph, lo=-12.0, hi=12.0, m=2001, dt=1e-3)
    rep = commutation_check(sph, cert, get("sine"), xs=[0.0, 1.0, 3.0],
                            ts=(0.5, 1.0), lhs_engine=geng, n_paths=10000,
                            dt=2e-3, seed=9)
    assert rep.passed
    assert len(rep.records) == 6


def test_commutation_rejects_failing_certificate():
    sph1 = make_example_potential("spherical", alpha=1.0)
    bad = make_lyapunov("spherical", alpha=1.0, p=2.0)
    geng = GridEngine(sph1, lo=-12.0, hi=12.0, m=1001, dt=1e-3)
    with pytest.raises(CertificationError):
        commutation_check(sph1, bad, get("sine"), xs=[0.0], ts=(0.5,),
                          lhs_engine=geng, n_paths=200, dt=1e-2, seed=0)


def test_dt_refinement_consistency():
    cert = one_plus_sq_cert()
    coarse = supermartingale_check(GAUSS, cert, x0=1.0, ts=(0.5,),
                                   n_paths=20000, dt=2e-3, seed=21)
    fine = supermartingale_check(GAUSS, cert, x0=1.0, ts=(0.5,),
                                 n_paths=20000, dt=1e-3, seed=21)
    a, b = coarse.records[0], fine.records[0]
    assert abs(a.lhs - b.lhs) < max(2.0 * (a.stderr + b.stderr), 1e-3)

    ga = gradient_bound(GAUSS, get("sine"), xs=[0.5], ts=(0.5,),
                        lhs_engine=ENGINE, n_paths=20000, dt=2e-3, seed=22)
    gb = gradient_bound(GAUSS, get("sine"), xs=[0.5], ts=(0.5,),
                        lhs_engine=ENGINE, n_paths=20000, dt=1e-3, seed=22)
    ra, rb = ga.records[0], gb.records[0]
    assert abs(ra.rhs - rb.rhs) < max(2.0 * (ra.stderr + rb.stderr), 1e-3)


def test_thread_count_does_not_change_paths(paths_at):
    old = os.environ.get("CURVLAB_THREADS")
    try:
        os.environ["CURVLAB_THREADS"] = "1"
        [(serial, serial_ints)] = paths_at(GAUSS, np.array([0.2]), 0.3, 1e-2,
                                           20000, 17, RHO)
        os.environ["CURVLAB_THREADS"] = "4"
        [(threaded, threaded_ints)] = paths_at(GAUSS, np.array([0.2]), 0.3,
                                               1e-2, 20000, 17, RHO)
    finally:
        if old is None:
            os.environ.pop("CURVLAB_THREADS", None)
        else:
            os.environ["CURVLAB_THREADS"] = old
    assert np.array_equal(serial, threaded)
    assert np.array_equal(serial_ints["rho"], threaded_ints["rho"])


def test_monte_carlo_left_side_is_rejected():
    # its central difference would reuse the right side's random numbers
    mc = MonteCarloEngine(GAUSS, n_paths=200, seed=0)
    with pytest.raises(ParameterError):
        gradient_bound(GAUSS, get("sine"), xs=[0.5], ts=(0.5,),
                       lhs_engine=mc, n_paths=200, dt=1e-2, seed=0)
    with pytest.raises(ParameterError):
        commutation_check(GAUSS, constant_certificate(), get("sine"),
                          xs=[0.5], ts=(0.5,), lhs_engine=mc, n_paths=200,
                          dt=1e-2, seed=0)


def test_stderr_uses_sample_deviation(paths_at):
    rep = gradient_bound(GAUSS, get("sine"), xs=[0.5], ts=(0.5,),
                         lhs_engine=ENGINE, n_paths=300, dt=1e-2, seed=6)
    [(x, ints)] = paths_at(GAUSS, np.array([0.5]), 0.5, 1e-2, 300, 6, RHO)
    w = np.abs(get("sine").gradient(x[0])[:, 0]) * np.exp(-ints["rho"][0])
    assert rep.records[0].stderr == pytest.approx(
        np.std(w, ddof=1) / math.sqrt(300), rel=1e-12)


def test_supermartingale_starts_from_one_point():
    with pytest.raises(ParameterError):
        supermartingale_check(GAUSS, constant_certificate(), x0=[0.0, 1.0],
                              ts=(0.25,), n_paths=200, dt=1e-2)
    gauss2 = make_example_potential("gaussian", n=2)
    rep = supermartingale_check(gauss2, constant_certificate(n=2),
                                x0=[0.0, 1.0], ts=(0.25,), n_paths=200,
                                dt=1e-2)
    assert rep.records[0].x == (0.0, 1.0)


def test_certificate_of_another_dimension_is_refused():
    gauss2 = make_example_potential("gaussian", n=2)
    with pytest.raises(ParameterError, match="built for R\\^1"):
        supermartingale_check(gauss2, constant_certificate(), x0=[0.0, 1.0],
                              ts=(0.25,), n_paths=200, dt=1e-2)


def test_grid_left_side_marches_once_per_t(monkeypatch):
    # the left side evaluates every point at every t from one evolution
    calls = []
    real = GridEngine._evolved

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(GridEngine, "_evolved", counted)
    sph = make_example_potential("spherical", alpha=1.5)
    grid = GridEngine(sph, lo=-8.0, hi=8.0, m=1601, dt=1e-2)
    gradient_bound(sph, get("gauss-bump"), xs=[0.0, 1.0], ts=(0.25, 1.0),
                   lhs_engine=grid, n_paths=200, dt=1e-2)
    assert len(calls) == 1
    commutation_check(sph, make_lyapunov("spherical", alpha=1.5, p=2.0),
                      get("gauss-bump"),
                      xs=[0.0, 1.0], ts=(0.25, 1.0), lhs_engine=grid,
                      n_paths=200, dt=1e-2)
    assert len(calls) == 2


def _spy_levels(monkeypatch):
    # (functional names, level walks) of each multilevel evaluation
    seen = []

    def spy(*args):
        seen.append([sorted(args[7]), 0])
        return sde.multilevel_mean(*args)

    def walk(*args, **kwargs):
        seen[-1][1] += 1
        return real_walk(*args, **kwargs)

    real_walk = sde._walk
    monkeypatch.setattr(feynman_kac, "multilevel_mean", spy)
    monkeypatch.setattr(sde, "_walk", walk)
    return seen


def test_only_the_gradient_bound_integrates_the_curvature(monkeypatch):
    # each check is one multilevel evaluation; at dt = 1e-3, t = 0.4 and
    # 12 500 paths the levels have steps 0.025, 5e-3 and 1e-3, so L + 1 = 3
    # walks
    seen = _spy_levels(monkeypatch)
    kw = dict(xs=[0.3], ts=(0.4,), lhs_engine=ENGINE, n_paths=12_500,
              dt=1e-3)
    commutation_check(GAUSS, constant_certificate(), get("linear"), **kw)
    assert seen == [[[], 3]]
    gradient_bound(GAUSS, get("sine"), **kw)
    assert seen == [[[], 3], [["rho"], 3]]
    supermartingale_check(GAUSS, constant_certificate(), x0=0.3, ts=(0.4,),
                          n_paths=12_500, dt=1e-3)
    assert seen == [[[], 3], [["rho"], 3], [["w"], 3]]


def test_one_path_set_per_time(monkeypatch):
    # every point and every t come from one multilevel evaluation, and each
    # record is the one a run from that point alone gives
    seen = _spy_levels(monkeypatch)
    kw = dict(ts=(0.25, 1.0), lhs_engine=ENGINE, n_paths=12_500, dt=1e-3)
    both = gradient_bound(GAUSS, get("sine"), xs=[0.0, 1.0], **kw)
    assert [walks for _, walks in seen] == [3]
    comm = commutation_check(GAUSS, constant_certificate(), get("linear"),
                             xs=[0.0, 1.0], **kw)
    assert [walks for _, walks in seen] == [3, 3]
    for check, rep in ((lambda x: gradient_bound(GAUSS, get("sine"), xs=[x],
                                                 **kw), both),
                       (lambda x: commutation_check(
                           GAUSS, constant_certificate(), get("linear"),
                           xs=[x], **kw), comm)):
        alone = [r for x in (0.0, 1.0) for r in check(x).records]
        alone.sort(key=lambda r: (r.t, r.x))
        assert [(r.rhs, r.stderr) for r in rep.records] == \
            [(r.rhs, r.stderr) for r in alone]


def test_level_count():
    # the coarsest step is at most 1/40 and divides every time
    def count(ts, dt):
        return _level_count(np.array(ts), dt, 10 ** 6)

    assert count([0.25, 1.0], 1e-3) == 2
    assert count([0.0, 0.5], 1e-3) == 2
    assert count([0.33], 1e-3) == 1
    assert count([0.25, 1.0], 1e-2) == 0
    assert count([0.25, 0.5, 1.0], 2e-3) == 1
    assert count([0.2555], 1e-3) == 0


def test_level_count_leaves_no_level_below_100_paths():
    # level l runs ceil(n_paths 5^(-3l/2)) paths; on the default schedule
    # at dt = 1e-3 the times allow L = 2, and the paths cap it
    ts = np.array(Schedule().ts)
    for n_paths, levels in ((200, 0), (1106, 0), (1118, 1), (12_375, 1),
                            (16_384, 2), (100_000, 2)):
        assert _level_count(ts, 1e-3, n_paths) == levels


def test_time_off_the_coarse_grid_runs_two_levels(monkeypatch):
    seen = _spy_levels(monkeypatch)
    rep = gradient_bound(GAUSS, get("sine"), xs=[0.5], ts=(0.33,),
                         lhs_engine=ENGINE, n_paths=1118, dt=1e-3, seed=3)
    assert seen == [[["rho"], 2]]
    assert rep.records[0].stderr > 0.0


def test_one_level_check_is_plain_monte_carlo(paths_at):
    # dt = 1e-2 leaves one level: the right side is bitwise the mean and
    # stderr of one plain walk
    rep = gradient_bound(GAUSS, get("sine"), xs=[0.0, 1.0], ts=(0.25, 1.0),
                         lhs_engine=ENGINE, n_paths=8292, dt=1e-2, seed=6)
    at = paths_at(GAUSS, [[0.0], [1.0]], [0.25, 1.0], 1e-2, 8292, 6, RHO)
    w = np.array([np.linalg.norm(get("sine").gradient(x), axis=-1)
                  * np.exp(-ints["rho"]) for x, ints in at])
    mean = w.mean(axis=-1)
    stderr = w.std(axis=-1, ddof=1) / math.sqrt(8292)
    assert [(r.rhs, r.stderr) for r in rep.records] == \
        list(zip(mean.ravel().tolist(), stderr.ravel().tolist()))


def test_multilevel_report_ignores_the_thread_count():
    old = os.environ.get("CURVLAB_THREADS")
    reps = []
    try:
        for threads in ("1", "4"):
            os.environ["CURVLAB_THREADS"] = threads
            # 16 384 paths: two blocks at level 0, over three levels
            reps.append(gradient_bound(GAUSS, get("sine"), xs=[0.0, 1.0],
                                       ts=(0.25, 1.0), lhs_engine=ENGINE,
                                       n_paths=16_384, dt=1e-3, seed=17))
    finally:
        if old is None:
            os.environ.pop("CURVLAB_THREADS", None)
        else:
            os.environ["CURVLAB_THREADS"] = old
    assert reps[0].records == reps[1].records


def test_exact_checks_stay_exact_at_every_level():
    # a constant payoff has level differences of exactly 0, so three levels
    # (dt = 1e-3, 12 500 paths) give the records of one (dt = 1e-2)
    def sm(dt):
        return supermartingale_check(GAUSS, constant_certificate(), x0=0.5,
                                     ts=(0.25, 1.0), n_paths=12_500, dt=dt,
                                     seed=1).records

    def comm(dt):
        return commutation_check(GAUSS, constant_certificate(),
                                 get("linear"), xs=[0.3], ts=(0.5, 1.0),
                                 lhs_engine=ENGINE, n_paths=12_500, dt=dt,
                                 seed=3).records

    assert [(r.margin, r.stderr) for r in sm(1e-3)] == [(0.0, 0.0)] * 2
    assert comm(1e-3) == comm(1e-2)
    assert [r.stderr for r in comm(1e-3)] == [0.0, 0.0]


def test_coarse_level_explosion_is_loud(paths_at):
    # from x = 10 the double well's Euler step of 1e-3 stays bounded, but
    # the coarsest level's 0.025, at 12 500 paths, overshoots and diverges
    dw = make_double_well()
    assert np.all(np.isfinite(paths_at(dw, 10.0, 0.25, 1e-3, 200, 0,
                                       {})[0][0]))
    with pytest.raises(SimulationError, match="at step 0.025"):
        supermartingale_check(dw, constant_certificate(), x0=10.0,
                              ts=(0.25,), n_paths=12_500, dt=1e-3)


def euler_chain_gradient_rhs(f, x: float, t: float, dt: float) -> tuple:
    """Mean and standard deviation of |f'(X_N)| e^{-t} for the gaussian's
    Euler chain of step dt, N = t/dt: X_N is normal, with mean (1 - dt)^N x
    and variance 2 dt sum_{j<N} (1 - dt)^{2j}, and rho = 1 makes the
    weight e^{-t}.  The mean is the gradient bound's exact right side."""
    n_steps = round(t / dt)
    mean = (1.0 - dt) ** n_steps * x
    sd = math.sqrt(2.0 * dt * sum((1.0 - dt) ** (2 * j)
                                  for j in range(n_steps)))
    z = np.linspace(-12.0, 12.0, 240_001)
    density = np.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi)
    w = math.exp(-t) * np.linalg.norm(f.gradient((mean + sd * z)[:, None]),
                                      axis=-1)
    m1, m2 = (float(np.trapezoid(w ** p * density, z)) for p in (1, 2))
    return m1, math.sqrt(m2 - m1 * m1)


@pytest.mark.parametrize("fname", ["sine", "gauss-bump"])
def test_multilevel_gradient_bound_matches_the_euler_chain(fname):
    # the estimate is unbiased for the chain at dt, its stderr is calibrated,
    # and it is about that of plain Monte Carlo at the same n_paths
    f = get(fname)
    exact = {(x, t): euler_chain_gradient_rhs(f, x, t, 1e-3)
             for x in (0.0, 1.0) for t in (0.25, 1.0)}
    records = [r for seed in range(20)
               for r in gradient_bound(GAUSS, f, xs=[0.0, 1.0],
                                       ts=(0.25, 1.0), lhs_engine=ENGINE,
                                       n_paths=16_384, dt=1e-3,
                                       seed=seed).records]
    z = [(r.rhs - exact[(r.x[0], r.t)][0]) / r.stderr for r in records]
    assert len(z) == 80
    assert 0.8 <= np.std(z, ddof=1) <= 1.25
    assert max(abs(v) for v in z) <= 5.5
    plain = [r.stderr / (exact[(r.x[0], r.t)][1] / math.sqrt(16_384))
             for r in records]
    assert 0.9 <= min(plain) and max(plain) <= 1.1


@pytest.mark.parametrize("check", [
    lambda n: supermartingale_check(GAUSS, constant_certificate(), x0=[0.0],
                                    ts=(0.25,), n_paths=n, dt=1e-2),
    lambda n: gradient_bound(GAUSS, get("sine"), xs=[0.5], ts=(0.5,),
                             lhs_engine=ENGINE, n_paths=n, dt=1e-2),
    lambda n: commutation_check(GAUSS, constant_certificate(), get("sine"),
                                xs=[0.5], ts=(0.5,), lhs_engine=ENGINE,
                                n_paths=n, dt=1e-2),
])
def test_path_count_floor(check):
    # the Monte Carlo engine's floor; one path has no stderr at all
    for n in (1, 99):
        with pytest.raises(ParameterError):
            check(n)
    assert check(100).records
