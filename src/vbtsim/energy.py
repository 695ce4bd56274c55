"""First-order radio energy model: per-hop transmit and receive costs.

The one home of a hop's price is tx_costs, which prices squared
distances: the edges a build gathers from a graph, or one float.
tx_cost prices one distance through it. The amplifier follows the
fixed free-space d^2 law. A whole route's cost
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
    return tx_costs(params, distance**2)


def tx_costs(params: RadioParams, squares: np.ndarray) -> np.ndarray:
    """Energy to transmit one packet over each hop, from its squared
    distance, as gathered from ReachabilityGraph.squares(). A Python
    float square gives a Python float by the same float ops."""
    b = params.packet_bits
    return params.e_elec * b + params.e_amp * b * squares


def rx_cost(params: RadioParams) -> float:
    """Energy to receive one packet; independent of distance."""
    return params.e_elec * params.packet_bits
