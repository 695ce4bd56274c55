"""First-order radio energy model: per-hop transmit and receive costs.

A whole route's cost is the sum of its hops' costs; the scalar
reference path_consumption in tests/oracles.py states it hop by hop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

E_INIT = 2.0               # default initial battery per node, joules

# Standard first-order radio constants; packet = 512 bytes.
DEFAULT_E_ELEC = 50e-9    # J/bit, transceiver electronics
DEFAULT_E_AMP = 100e-12   # J/bit/m^2, transmit amplifier
DEFAULT_PACKET_BITS = 4096

PATH_LOSS_EXPONENT = 2    # fixed free-space d^2 amplifier law


@dataclass(frozen=True)
class RadioParams:
    e_elec: float = DEFAULT_E_ELEC
    e_amp: float = DEFAULT_E_AMP
    packet_bits: int = DEFAULT_PACKET_BITS

    def validate(self) -> None:
        if not (0 < self.e_elec < math.inf and 0 < self.e_amp < math.inf
                and self.packet_bits > 0):  # nan fails every comparison
            raise ValueError("radio parameters must be strictly positive "
                             "and finite")


@dataclass(frozen=True)
class EnergyParams:
    e_init: float = E_INIT  # initial battery per deployed node, joules

    def validate(self) -> "EnergyParams":
        if not 0 < self.e_init < math.inf:
            raise ValueError("energy.e_init must be > 0 and finite")
        return self


def tx_cost(params: RadioParams, distance: float) -> float:
    """Energy to transmit one packet over `distance` meters."""
    if distance < 0:
        raise ValueError(f"negative distance: {distance}")
    b = params.packet_bits
    return params.e_elec * b + params.e_amp * b * distance**PATH_LOSS_EXPONENT


def rx_cost(params: RadioParams) -> float:
    """Energy to receive one packet; independent of distance."""
    return params.e_elec * params.packet_bits


# Below one packet-reception worth of energy a node can do nothing at all.
DEFAULT_E_FAIL = rx_cost(RadioParams())
