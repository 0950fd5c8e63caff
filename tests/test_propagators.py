"""Property tests of the propagation path: the propagator tables that every
generator with drives goes through (one-period folding against a full-span
state integration, spans shorter than a period, aperiodic drives, batching,
and the physical invariants of the produced states), and the exact
propagators of static generators (composition, generator stacks against
``evolve`` of their models)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

import fss.core
from fss.core import (
    CollapseChannel,
    DensityMatrix,
    Drive,
    LindbladModel,
    _coords,
    _matrices,
    _propagate,
    _propagators,
    evolve,
    liouvillian,
)
from fss.errors import NumericalFailure, UsageError
from oracles import coordinate_map

PROPERTY = settings(max_examples=8, deadline=None, derandomize=True)

# the largest deviation from the reference over 150 random examples of the
# folding tests was 4.8e-10 (see fss.core._CFM4_TOL)
FOLD_TOL = 1e-8


def _random_state(rng, dim: int) -> np.ndarray:
    a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


def _random_model(seed: int, dim: int) -> LindbladModel:
    """A Lindblad model with a static Hamiltonian, two channels and one
    two-tone drive f(t) = a + b exp(-i (w t + phi)) of period 2 pi / w."""
    rng = np.random.default_rng(seed)
    h = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    h0 = 0.25 * (h + h.conj().T)
    channels = tuple(
        CollapseChannel(float(rng.uniform(5.0, 80.0)),
                        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)))
        for _ in range(2))
    a, b = rng.uniform(0.3, 1.5, size=2)
    w = float(rng.uniform(1.5, 6.0))
    phi = float(rng.uniform(0.0, 2 * np.pi))

    def env(t):
        return a + b * np.exp(-1j * (w * t + phi))

    op = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return LindbladModel(dim=dim, h0=h0, channels=channels, drives=(Drive(env, op, 2 * np.pi / w),))


def _full_span_reference(model: LindbladModel, rho0: np.ndarray, t: np.ndarray) -> np.ndarray:
    """States on ``t`` from one state integration over the whole span at rtol
    1e-11 (8th-order Dormand-Prince), written out from the master equation
    (shares no code with fss.core)."""
    dim = model.dim
    ops = [(ch.rate_angular, ch.operator) for ch in model.channels]

    def rhs(tt, y):
        r = y.reshape(dim, dim)
        h = model.h0.copy()
        for dr in model.drives:
            f = dr.envelope(tt)
            h = h + f * dr.operator + np.conj(f) * dr.operator.conj().T
        d = -1j * (h @ r - r @ h)
        for g, op in ops:
            ldl = op.conj().T @ op
            d += g * (op @ r @ op.conj().T - 0.5 * (ldl @ r + r @ ldl))
        return d.reshape(-1)

    sol = solve_ivp(rhs, (t[0], t[-1]), rho0.reshape(-1), method="DOP853", t_eval=t,
                    rtol=1e-11, atol=1e-13)
    assert sol.success
    return sol.y.T.reshape(-1, dim, dim)


def _grid(rng, t0: float, span: float, points: int) -> np.ndarray:
    return np.concatenate([[t0], t0 + np.sort(rng.uniform(0.0, span, points - 1))])


def _states(model, rho0, t) -> np.ndarray:
    return np.array([s.matrix for s in evolve(model, DensityMatrix(rho0), t).states])


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4), periods=st.floats(1.0, 5.0),
       t0=st.floats(0.0, 3.0))
@PROPERTY
def test_folded_states_match_full_span_integration(seed, dim, periods, t0):
    rng = np.random.default_rng(seed)
    model = _random_model(seed, dim)
    rho0 = _random_state(rng, dim)
    t = _grid(rng, t0, periods * model.period_ns, 9)
    ref = _full_span_reference(model, rho0, t)
    assert np.max(np.abs(_states(model, rho0, t) - ref)) <= FOLD_TOL


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4), fraction=st.floats(0.05, 0.95))
@PROPERTY
def test_span_shorter_than_one_period(seed, dim, fraction):
    rng = np.random.default_rng(seed)
    model = _random_model(seed, dim)
    rho0 = _random_state(rng, dim)
    t = _grid(rng, 0.0, fraction * model.period_ns, 6)
    ref = _full_span_reference(model, rho0, t)
    assert np.max(np.abs(_states(model, rho0, t) - ref)) <= FOLD_TOL


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4), periods=st.floats(0.5, 3.0))
@PROPERTY
def test_aperiodic_drive_integrates_the_full_span(seed, dim, periods):
    rng = np.random.default_rng(seed)
    periodic = _random_model(seed, dim)
    t = _grid(rng, 0.0, periods * periodic.period_ns, 7)
    # the same envelope declared aperiodic
    aperiodic = LindbladModel(dim=dim, h0=periodic.h0, channels=periodic.channels,
                              drives=(Drive(periodic.drives[0].envelope, periodic.drives[0].operator),))
    assert aperiodic.period_ns is None
    rho0 = _random_state(rng, dim)
    ref = _full_span_reference(periodic, rho0, t)
    full = _states(aperiodic, rho0, t)
    assert np.max(np.abs(full - ref)) <= FOLD_TOL
    assert np.max(np.abs(full - _states(periodic, rho0, t))) <= 2 * FOLD_TOL


def _static(seed: int, dim: int) -> LindbladModel:
    model = _random_model(seed, dim)
    return LindbladModel(dim=dim, h0=model.h0, channels=model.channels)


def _generators(seed: int, dim: int, picks) -> np.ndarray:
    """A stack of the static generators of ``_random_model(seed + k)`` for
    each k in ``picks``; a repeated k repeats its generator."""
    return np.stack([liouvillian(_static(seed + k, dim)) for k in picks])


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4))
@PROPERTY
def test_batched_propagate_matches_models_one_at_a_time(seed, dim):
    rng = np.random.default_rng(seed)
    driven = _random_model(seed, dim)
    # distinct generators under one drive set; the first serves two initial
    # states through one table
    gens = _generators(seed, dim, [0, 1, 2, 0])
    rhos = [_coords(_random_state(rng, dim)) for _ in gens]
    t = _grid(rng, 0.5, 3.0 * driven.period_ns, 6)
    for drives in (driven.drives, ()):
        batch = _propagate(gens, rhos, t, drives)
        for b, rho in enumerate(rhos):
            assert np.max(np.abs(batch[:, b] - _propagate(gens[b:b + 1], [rho], t, drives)[:, 0])) <= 1e-13


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4))
@PROPERTY
def test_end_indices_pick_each_state_off_the_shared_grid(seed, dim):
    rng = np.random.default_rng(seed)
    driven = _random_model(seed, dim)
    gens = _generators(seed, dim, [0, 1, 0, 1, 0])
    rhos = [_coords(_random_state(rng, dim)) for _ in gens]
    t = _grid(rng, 0.5, 3.0 * driven.period_ns, 6)
    # four grid rows for each of three members, one member asked for twice
    rows = rng.integers(0, t.size, (4, 3))
    rows[0, 0] = 0  # an initial state comes back unchanged
    members = rng.integers(0, len(gens), 3)
    members[2] = members[0]
    for drives in (driven.drives, ()):
        picked = _propagate(gens, rhos, t, drives, at=(rows, members))
        full = _propagate(gens, rhos, t, drives)
        assert picked.shape == (4, 3, dim * dim)
        assert np.array_equal(picked[0, 0], rhos[members[0]])
        assert np.max(np.abs(picked - full[rows, members])) <= 1e-13


@pytest.mark.parametrize("at", [([3], [0, 1]), ([-1], [0, 1]), ([1], [2]), ([[1, 2]], [0, 1, 0])],
                         ids=["row-off-grid", "negative-row", "member-outside-stack", "no-broadcast"])
def test_at_must_name_grid_points_and_members_that_broadcast(at):
    model = _random_model(5, 2)
    rhos = [_coords(_random_state(np.random.default_rng(5), 2))] * 2
    for drives in (model.drives, ()):
        with pytest.raises(UsageError):
            _propagate(np.stack([liouvillian(model)] * 2), rhos, [0.0, 1.0, 2.0], drives, at=at)


@pytest.mark.parametrize("stretch", [1.01, 1.0 + 1e-9])
def test_a_drive_that_does_not_repeat_after_its_period_is_rejected(stretch):
    model = _random_model(11, 3)
    (dr,) = model.drives
    wrong = LindbladModel(dim=3, h0=model.h0, channels=model.channels,
                          drives=(Drive(dr.envelope, dr.operator, stretch * dr.period_ns),))
    rho0 = DensityMatrix(_random_state(np.random.default_rng(11), 3))
    with pytest.raises(UsageError, match="does not repeat"):
        evolve(wrong, rho0, [0.0, 2.5 * wrong.period_ns])
    # within one period nothing is folded, so nothing rests on the period
    evolve(wrong, rho0, [0.0, 0.5 * wrong.period_ns])


def test_a_grid_of_2_to_the_52_periods_is_a_numerical_failure():
    # from 2^52 periods on, (t - t0) mod T keeps no significant bit
    model = _random_model(13, 2)
    t = np.array([0.0, 1.0, 2.0 ** 52 * model.period_ns])
    with pytest.raises(NumericalFailure, match="2\\^52") as err:
        _propagators(liouvillian(model), model.drives, t)
    assert err.value.time_ns == t[-1]
    _propagators(liouvillian(model), model.drives, t / 2)


def test_a_periodic_drive_passes_the_period_check_late_in_time():
    model = _random_model(13, 2)
    rho0 = DensityMatrix(_random_state(np.random.default_rng(13), 2))
    t0 = 1e4 * model.period_ns
    evolve(model, rho0, [t0, t0 + 3.5 * model.period_ns])


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4), periods=st.floats(0.5, 6.0))
@PROPERTY
def test_unguarded_states_keep_trace_and_positivity(seed, dim, periods):
    rng = np.random.default_rng(seed)
    model = _random_model(seed, dim)
    rho0 = _random_state(rng, dim)
    t = _grid(rng, 0.0, periods * model.period_ns, 8)
    table = _propagators(liouvillian(model), model.drives, t)
    assert np.array_equal(table[0], np.eye(dim * dim))
    m = coordinate_map(dim)
    states = (np.linalg.inv(m) @ table @ m @ rho0.reshape(-1)).reshape(-1, dim, dim)
    assert np.max(np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)) <= 1e-9
    assert np.max(np.abs(states - states.conj().swapaxes(1, 2))) <= 1e-9
    hermitian = 0.5 * (states + states.conj().swapaxes(1, 2))
    assert np.linalg.eigvalsh(hermitian).min() >= -1e-8


def test_one_point_grid_of_a_driven_model_makes_no_solver_call(monkeypatch):
    calls = []
    real = fss.core._cfm4

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(fss.core, "_cfm4", counting)
    model = _random_model(7, 3)
    rho0 = DensityMatrix(_random_state(np.random.default_rng(7), 3))
    traj = evolve(model, rho0, [4.0])
    assert calls == []
    assert traj.states == (rho0,)


def test_one_table_per_model_covers_every_period(monkeypatch):
    # three copies of one generator share one table, integrated over one period
    calls = []
    real = fss.core._cfm4

    def recording(fun, t_span, *args, **kwargs):
        calls.append(t_span)
        return real(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(fss.core, "_cfm4", recording)
    model = _random_model(3, 2)
    t = np.linspace(1.0, 1.0 + 12.5 * model.period_ns, 40)
    rhos = [_coords(_random_state(np.random.default_rng(k), 2)) for k in range(3)]
    _propagate(np.stack([liouvillian(model)] * 3), rhos, t, model.drives)
    assert calls == [pytest.approx((1.0, 1.0 + model.period_ns), abs=1e-12)]


@pytest.mark.parametrize("period", [0.0, -1.0, np.inf, np.nan])
def test_drive_period_must_be_positive_and_finite(period):
    with pytest.raises(UsageError):
        Drive(lambda t: 1.0, np.eye(2), period)


def test_model_period_is_the_common_period_of_its_drives():
    op = np.array([[0, 1], [0, 0]], dtype=complex)

    def model(*periods):
        return LindbladModel(dim=2, h0=np.zeros((2, 2)),
                             drives=tuple(Drive(lambda t: 1.0, op, p) for p in periods))

    assert model(2.0, 2.0).period_ns == 2.0
    assert model(2.0, 3.0).period_ns is None
    assert model(2.0, None).period_ns is None
    assert model(None).period_ns is None


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4), t1=st.floats(0.01, 3.0),
       t2=st.floats(0.01, 3.0))
@PROPERTY
def test_static_propagators_compose(seed, dim, t1, t2):
    # P(t1 + t2) = P(t2) P(t1): one step over t1 + t2 against two steps
    gen = _generators(seed, dim, [0])
    rho0 = _coords(_random_state(np.random.default_rng(seed), dim))
    direct = _propagate(gen, [rho0], [0.0, t1 + t2])[-1, 0]
    half = _propagate(gen, [rho0], [0.0, t1])[-1, 0]
    assert np.max(np.abs(_propagate(gen, [half], [0.0, t2])[-1, 0] - direct)) <= 1e-12


@given(seed=st.integers(0, 2**31), dim=st.integers(2, 4))
@PROPERTY
def test_generator_stack_matches_its_models(seed, dim):
    rng = np.random.default_rng(seed)
    models = [_static(seed + k, dim) for k in range(3)]
    rhos = [_random_state(rng, dim) for _ in models]
    t = _grid(rng, 0.0, 4.0, 5)
    batch = _matrices(_propagate(np.stack([liouvillian(m) for m in models]), _coords(np.stack(rhos)), t))
    for b, (model, rho) in enumerate(zip(models, rhos)):
        assert np.max(np.abs(batch[:, b] - _states(model, rho, t))) <= 1e-13


def test_generator_stack_shape_is_checked():
    rho = _coords(_random_state(np.random.default_rng(1), 2))
    with pytest.raises(UsageError):
        _propagate(np.zeros((1, 4, 5)), [rho], [0.0, 1.0])
    with pytest.raises(UsageError):
        _propagate(np.zeros((1, 9, 9)), [rho], [0.0, 1.0])
