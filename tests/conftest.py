import numpy as np
import pytest

from mphp.grouping import Grouping
from mphp.metrics import build_context, monte_carlo_rates
from mphp.numerics import hermitian_part


def random_psd(rng, dim, dof=None, trace=None):
    """Random PSD matrix X X^H, optionally trace-normalized."""
    dof = dim if dof is None else dof
    x = (rng.standard_normal((dim, dof)) + 1j * rng.standard_normal((dim, dof))) / np.sqrt(2.0)
    out = hermitian_part(x @ x.conj().T)
    if trace is not None:
        out *= trace / np.real(np.trace(out))
    return out


def random_hermitian(rng, dim):
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return hermitian_part(x)


def make_grouping(correlations, assignments):
    """Build a Grouping directly from per-user correlations and group labels."""
    assignments = np.asarray(assignments, dtype=int)
    n_groups = int(assignments.max()) + 1
    members = [np.where(assignments == g)[0] for g in range(n_groups)]
    offsets = np.concatenate([[0], np.cumsum([len(m) for m in members])])
    rf_chains = [np.arange(offsets[g], offsets[g + 1]) for g in range(n_groups)]
    group_correlations = [
        sum(correlations[int(k)] for k in members[g]) / len(members[g]) for g in range(n_groups)
    ]
    return Grouping(
        assignments=assignments,
        members=members,
        rf_chains=rf_chains,
        group_correlations=group_correlations,
    )


def run_at_seed(schemes, points, seed, **kwargs):
    """The Monte Carlo engine on the context ``build_context`` makes from
    the first point at ``seed``, the seed its draws use too."""
    grouping, scenario, _ = build_context(points[0], seed)
    return monte_carlo_rates(schemes, points, seed, grouping=grouping, scenario=scenario, **kwargs)


# Co-located users (zero angular spread, zero AoD jitter) in one group: the
# effective channel is rank one in every slot, so every scheme is in outage
# in every slot.
CO_LOCATED = "M = 8\nK = 2\nG = 1\nn_slots = 5\nscenario.angular_spread = 0\nscenario.aod_jitter = 0\n"


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def count_calls(monkeypatch, module, name):
    """Wrap ``module.name`` for the test: each call appends its positional
    arguments to the returned list, then runs the original."""
    inner = getattr(module, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls
