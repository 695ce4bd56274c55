"""First-order radio energy model: per-hop transmit and receive costs.

The one home of a hop's price: tx_cost prices a distance, and tx_costs
the edges a build gathers from a graph's squared distances. The
amplifier follows the fixed free-space d^2 law. A whole route's cost
is the sum of its hops' costs; the scalar reference path_consumption in
tests/oracles.py states it hop by hop.
"""

from __future__ import annotations

import numpy as np

from .config import RadioParams


def tx_cost(params: RadioParams, distance: float) -> float:
    """Energy to transmit one packet over `distance` meters."""
    if distance < 0:
        raise ValueError(f"negative distance: {distance}")
    b = params.packet_bits
    return params.e_elec * b + params.e_amp * b * distance**2


def tx_costs(params: RadioParams, squares: np.ndarray) -> np.ndarray:
    """tx_cost of each hop from its squared distance, as gathered from
    ReachabilityGraph.squares(), with tx_cost's float ops elementwise."""
    b = params.packet_bits
    return params.e_elec * b + params.e_amp * b * squares


def rx_cost(params: RadioParams) -> float:
    """Energy to receive one packet; independent of distance."""
    return params.e_elec * params.packet_bits
