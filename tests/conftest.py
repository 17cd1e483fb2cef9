from typing import NamedTuple

import numpy as np
import pytest

import mphp.metrics as metrics_mod
from mphp.channel import scenario_correlations
from mphp.grouping import grouping_from_labels
from mphp.metrics import build_context, context_key, monte_carlo_rates
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


class LoopPrecoder(NamedTuple):
    """An oracle's analog precoder: the fields ``RfPrecoder`` exposes, with
    the oracle's own loop-built matrix ``f``, so that a design's ``f`` is
    compared with a matrix built apart from ``RfPrecoder.f``."""

    f: np.ndarray
    antenna_to_chain: np.ndarray
    phase_index: np.ndarray
    bits: int


def make_grouping(correlations, assignments):
    """Build a Grouping from per-user correlations and group labels."""
    return grouping_from_labels(correlations, assignments)


def group_averages(correlations, grouping):
    """Each group's average of the user ``correlations`` (M x M), formed
    here rather than read from the grouping, which keeps only their
    reduction to its joint subspace."""
    return [sum(correlations[int(k)] for k in members) / len(members) for members in grouping.members]


def grouped_context(config, seed):
    """``build_context``'s grouping at ``seed`` and its group averages of
    the scenario's user correlations (``group_averages``)."""
    grouping, scenario, geometry = build_context(config, seed)
    return grouping, group_averages(scenario_correlations(scenario, geometry), grouping)


def contexts_at_seed(points, seed):
    """Each point's context, built by ``build_context`` at ``seed`` once per
    distinct ``context_key``."""
    built = {}
    for point in points:
        if context_key(point) not in built:
            built[context_key(point)] = build_context(point, seed)
    return [built[context_key(point)] for point in points]


def run_at_seed(schemes, points, seed):
    """The Monte Carlo engine on the contexts ``contexts_at_seed`` makes
    from the points at ``seed``, the seed its draws use too."""
    return monte_carlo_rates(schemes, points, seed, contexts=contexts_at_seed(points, seed))


def inject_channels(monkeypatch, factory):
    """Make the engine's block draws give channel ``factory(t)`` at slot t:
    the ``channel`` module's ``draw_channel``, which the engine draws
    through, stacks the factory's channels over the block's slots.  A
    factory must not call ``channel.draw_channel`` through the module."""

    def draw_channel(params, geometry, seed, slots):
        return np.stack([factory(t) for t in slots])

    monkeypatch.setattr(metrics_mod.channel_mod, "draw_channel", draw_channel)


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
