"""Shared fixtures and random-instance generators.

Two families of test games:

* `make_aligned_game` draws games whose two value recursions coincide by
  construction: both input maps share one column space (B^i = b_i * B0) and
  each player's own control weight is beta_t * b_i^2 * S_t.  State weights
  are lifted until the decay condition on control weights holds, and every
  candidate is certified through `check_assumptions` before it is handed
  out, so these instances exercise the equivalence and bound machinery.

* `make_loose_game` draws unconstrained two-player instances (independent
  input maps, positive semidefinite stage costs).  Nothing structural is
  promised beyond a solvable curvature recursion; these feed the identities
  that must hold for arbitrary games.

`make_padded_failure_game` is one fixed scalar game whose true game is
certified while three of its padded games are not.

`scalar_draw` is the one-generator-per-scalar draw that
`experiments._draws` ports to array arithmetic, kept as its reference.

`malformed_docs` is the `hypothesis` strategy that the input-contract
property tests draw bad JSON documents from.

The `passes` fixture records every `game._backward` pass a test runs.
"""

from typing import NamedTuple

import numpy as np
import pytest

from previewnash import (
    ThetaNotPDError,
    check_assumptions,
    cost_schedule,
    game_spec,
    solve_feedback_nash,
)
from previewnash import game as game_mod


def spd(rng, k, floor):
    """Random symmetric matrix with eigenvalues >= floor."""
    g = rng.uniform(-1.0, 1.0, size=(k, k))
    return g @ g.T + floor * np.eye(k)


def make_aligned_game(rng, n=None, m=None, T=None, n_max=3, m_max=2, T_max=10,
                      attempts=60, a_norm=None):
    """Random game passing every structural check.

    Explicit n/m/T pin the dimensions; otherwise they are drawn up to the
    given caps.  Candidates failing any check (unstabilizable A mostly) are
    redrawn, so the returned instance always carries a passing certificate.
    With a_norm, A is rescaled to that spectral norm, as the benchmark's
    dense games are, which lets large n pass.
    """
    for _ in range(attempts):
        nn = int(n if n is not None else rng.integers(1, n_max + 1))
        mm = int(m if m is not None else rng.integers(1, m_max + 1))
        tt = int(T if T is not None else rng.integers(2, T_max + 1))
        a = rng.uniform(-1.1, 1.1, size=(nn, nn))
        if a_norm is not None:
            a *= a_norm / np.linalg.norm(a, 2)
        b0 = rng.uniform(-1.5, 1.5, size=(nn, mm))
        sv0 = np.linalg.svd(b0, compute_uv=False)
        # nonzero, and well conditioned whenever full column rank is possible
        if sv0[0] < 0.4 or (mm <= nn and sv0[-1] < 0.2):
            continue
        b1 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4))
        b2 = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4))
        zero = np.zeros((mm, mm))
        r1s, r2s, shifts = [], [], []
        for _t in range(tt - 1):
            beta = float(rng.uniform(0.5, 3.0))
            s = spd(rng, mm, 0.3)
            r1s.append(np.block([[b1 * b1 * beta * s, zero], [zero, zero]]))
            r2s.append(np.block([[zero, zero], [zero, b2 * b2 * beta * s]]))
            shifts.append(b2 * b2 * beta * float(np.linalg.eigvalsh(s)[-1]))
        joint = np.hstack([b1 * b0, b2 * b0])
        sv = np.linalg.svd(joint, compute_uv=False)
        b_min = float(sv[sv > 1e-12][-1])
        a_norm = float(np.linalg.norm(a, 2))
        lift = (a_norm / b_min) * max(shifts) + 0.1
        qs = [spd(rng, nn, 0.2) + lift * np.eye(nn) for _ in range(tt - 1)]
        x1 = rng.uniform(-1.0, 1.0, size=nn)
        spec = game_spec(a, b1 * b0, b2 * b0, x1, cost_schedule(qs, r1s, r2s))
        if check_assumptions(spec, mode="warn").overall:
            return spec
    raise RuntimeError("no passing instance after %d attempts" % attempts)


def make_loose_game(rng, n=None, m=None, T=None, n_max=3, m_max=2, T_max=8,
                    attempts=40):
    """Random unstructured game with PSD stage costs and a solvable recursion.

    Explicit n/m/T pin the dimensions; otherwise they are drawn up to the
    given caps.
    """
    for _ in range(attempts):
        nn = int(n if n is not None else rng.integers(1, n_max + 1))
        mm = int(m if m is not None else rng.integers(1, m_max + 1))
        tt = int(T if T is not None else rng.integers(2, T_max + 1))
        a = rng.uniform(-1.2, 1.2, size=(nn, nn))
        bb1 = rng.uniform(-1.2, 1.2, size=(nn, mm))
        bb2 = rng.uniform(-1.2, 1.2, size=(nn, mm))
        zero = np.zeros((mm, mm))
        r1s = [np.block([[spd(rng, mm, 0.2), zero], [zero, zero]])
               for _ in range(tt - 1)]
        r2s = [np.block([[zero, zero], [zero, spd(rng, mm, 0.2)]])
               for _ in range(tt - 1)]
        qs = [spd(rng, nn, 0.1) for _ in range(tt - 1)]
        x1 = rng.uniform(-1.5, 1.5, size=nn)
        spec = game_spec(a, bb1, bb2, x1, cost_schedule(qs, r1s, r2s))
        try:
            solve_feedback_nash(spec)
        except ThetaNotPDError:
            continue
        return spec
    raise RuntimeError("no solvable instance after %d attempts" % attempts)


def scalar_draw(seed, t, tag, dist):
    """The random family's draw for key (seed, t, tag), from its own generator."""
    rng = np.random.default_rng((seed, t, tag))
    return float(rng.uniform(dist[0], dist[1]))


def _json_trees(st):
    """JSON-like trees whose leaves include NaN, inf, huge integers and text."""
    leaves = (st.none() | st.booleans() | st.integers(-3, 3) | st.sampled_from([10 ** 400, -10 ** 400])
              | st.floats() | st.text(max_size=3))
    return st.recursive(leaves, lambda kids: st.lists(kids, max_size=3)
                        | st.dictionaries(st.text(max_size=2), kids, max_size=2), max_leaves=8)


def _malformed(st, value, trees):
    """A stand-in for the JSON value `value`: any of `trees`, the value wrapped
    in a list, or, for a list, the list with its last entry dropped, its
    first entry repeated, or one entry replaced by a stand-in of its own.
    Nested lists so turn ragged, mismatched, mistyped or non-finite."""
    options = [trees, st.just([value])]
    if isinstance(value, list) and value:
        options += [st.just(value[:-1]), st.just(value + value[:1])]
        options += [_malformed(st, entry, trees).map(lambda v, k=k: value[:k] + [v] + value[k + 1:])
                    for k, entry in enumerate(value)]
    return st.one_of(options)


def malformed_docs(st, doc):
    """The JSON object `doc` with one field replaced by a malformed stand-in."""
    trees = _json_trees(st)
    return st.one_of([_malformed(st, value, trees).map(lambda bad, field=field: {**doc, field: bad})
                      for field, value in doc.items()])


def make_padded_failure_game():
    """Scalar game whose zero-preview padded games fail certification at steps 2, 3 and 4.

    The true game is certified.  Step 3 fails at stage 4, above step 2's
    failing stage 2, so a pass over all steps at once meets step 3's failure
    first.
    """
    q = [1.9, -0.1, -0.3, 0.0, 2.0]
    r = [0.7, 1.9, 1.0, 2.0, 1.8]
    costs = cost_schedule([[[v]] for v in q], [np.diag([v, 0.0]) for v in r],
                          [np.diag([0.0, v]) for v in r])
    return game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)


@pytest.fixture()
def scalar_spec():
    """T=2 scalar game with closed-form equilibrium: K1 = (-1/3, -1/3)."""
    costs = cost_schedule(
        Q=[[[1.0]]],
        R1=[[[1.0, 0.0], [0.0, 0.0]]],
        R2=[[[0.0, 0.0], [0.0, 1.0]]],
    )
    return game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)


@pytest.fixture()
def scalar_spec_t3():
    """Three-step version of the scalar game, constant weights."""
    q = [[1.0]]
    r1 = [[1.0, 0.0], [0.0, 0.0]]
    r2 = [[0.0, 0.0], [0.0, 1.0]]
    costs = cost_schedule(Q=[q, q], R1=[r1, r1], R2=[r2, r2])
    return game_spec([[1.0]], [[1.0]], [[1.0]], [1.0], costs)


class Pass(NamedTuple):
    """One `game._backward` call: its spec, the last revealed stage of each
    game, each game's schedule (None for the spec's own), how many
    schedules it solved under, what it kept, and the batch it returned."""

    spec: object
    known: np.ndarray
    schedule: np.ndarray | None
    schedules: int
    keep: frozenset
    batch: object

    @property
    def games(self) -> int:
        return len(self.known)


@pytest.fixture()
def passes(monkeypatch) -> list:
    """Every `game._backward` pass from here on, as a Pass, in call order."""
    backward = game_mod._backward
    recorded = []

    def recording(spec, known, tol=None, keep=frozenset(), costs=None, schedule=None):
        batch = backward(spec, known, tol, keep=keep, costs=costs, schedule=schedule)
        recorded.append(Pass(spec, np.asarray(known).reshape(-1),
                             None if schedule is None else np.asarray(schedule),
                             len(costs or [spec.costs]), frozenset(keep), batch))
        return batch

    monkeypatch.setattr(game_mod, "_backward", recording)
    return recorded
