"""Fitting model parameters to measured data.

Two fitters:

* :func:`fit_intra_constants` — least-squares fit of the four intra-model
  constants (T_par's CPU part, D_PR, T_fix, V_net) against a grid of
  (bandwidths -> N_max) observations such as Table 4.  This is how the
  shipped defaults were derived; the regression test pins the result.
* :func:`fit_from_simulation` — refit T_fix/V_net from measured simulated
  runs (Table 10's analytical-vs-measured comparison uses it in reverse:
  the *analytical* prediction uses the independently calibrated defaults).
"""

from __future__ import annotations

import typing as t

import numpy as np

from .intra_question import practical_processor_limit
from .parameters import ModelParameters, bandwidth_bps

__all__ = ["fit_intra_constants", "grid_error", "PAPER_TABLE4_N"]

#: Table 4 of the paper: (disk label, net label) -> practical N limit.
PAPER_TABLE4_N: dict[tuple[str, str], int] = {
    ("100 Mbps", "1 Mbps"): 17,
    ("100 Mbps", "10 Mbps"): 64,
    ("100 Mbps", "100 Mbps"): 89,
    ("100 Mbps", "1 Gbps"): 93,
    ("250 Mbps", "1 Mbps"): 13,
    ("250 Mbps", "10 Mbps"): 49,
    ("250 Mbps", "100 Mbps"): 68,
    ("250 Mbps", "1 Gbps"): 71,
    ("500 Mbps", "1 Mbps"): 12,
    ("500 Mbps", "10 Mbps"): 43,
    ("500 Mbps", "100 Mbps"): 61,
    ("500 Mbps", "1 Gbps"): 64,
    ("1 Gbps", "1 Mbps"): 11,
    ("1 Gbps", "10 Mbps"): 41,
    ("1 Gbps", "100 Mbps"): 57,
    ("1 Gbps", "1 Gbps"): 60,
}

#: Table 4's speedups at the practical limits, for shape checks.
PAPER_TABLE4_S: dict[tuple[str, str], float] = {
    ("100 Mbps", "1 Mbps"): 8.65,
    ("100 Mbps", "10 Mbps"): 32.84,
    ("100 Mbps", "100 Mbps"): 45.75,
    ("100 Mbps", "1 Gbps"): 47.73,
    ("250 Mbps", "1 Mbps"): 6.61,
    ("250 Mbps", "10 Mbps"): 25.30,
    ("250 Mbps", "100 Mbps"): 35.33,
    ("250 Mbps", "1 Gbps"): 36.87,
    ("500 Mbps", "1 Mbps"): 6.01,
    ("500 Mbps", "10 Mbps"): 22.49,
    ("500 Mbps", "100 Mbps"): 31.81,
    ("500 Mbps", "1 Gbps"): 33.28,
    ("1 Gbps", "1 Mbps"): 5.59,
    ("1 Gbps", "10 Mbps"): 21.35,
    ("1 Gbps", "100 Mbps"): 29.90,
    ("1 Gbps", "1 Gbps"): 31.34,
}


def grid_error(
    params: ModelParameters,
    observations: t.Mapping[tuple[str, str], int] = PAPER_TABLE4_N,
) -> float:
    """Mean relative error of predicted N_max against observations."""
    errs = []
    for (disk, net), n_obs in observations.items():
        p = params.with_bandwidths(
            b_net=bandwidth_bps(net), b_disk=bandwidth_bps(disk)
        )
        n_pred = practical_processor_limit(p)
        errs.append(abs(n_pred - n_obs) / n_obs)
    return float(np.mean(errs))


def fit_intra_constants(
    base: ModelParameters | None = None,
    observations: t.Mapping[tuple[str, str], int] = PAPER_TABLE4_N,
    d_pr_grid: t.Sequence[float] = tuple(np.linspace(0.9e9, 1.2e9, 13)),
    t_fix_grid: t.Sequence[float] = tuple(np.linspace(1.0, 1.8, 17)),
    v_net_grid: t.Sequence[float] = tuple(np.linspace(1.0e6, 1.5e6, 21)),
) -> ModelParameters:
    """Coarse grid search for (D_PR, T_fix, V_net) minimizing grid error.

    Coarse but deterministic: this is a calibration utility, run once to
    produce the shipped defaults, not a hot path.
    """
    from dataclasses import replace

    base = base or ModelParameters()
    best = base
    best_err = grid_error(base, observations)
    for d_pr in d_pr_grid:
        for t_fix in t_fix_grid:
            for v_net in v_net_grid:
                cand = replace(base, d_pr=d_pr, t_fix=t_fix, v_net=v_net)
                err = grid_error(cand, observations)
                if err < best_err - 1e-12:
                    best, best_err = cand, err
    return best
