"""First-order radio model: transmit/receive costs and path totals."""

import math

import pytest

from oracles import path_consumption
from vbtsim import DEFAULT_E_FAIL, RadioParams, rx_cost, tx_cost

DEFAULTS = RadioParams()


def test_default_parameters():
    assert DEFAULTS.e_elec == 50e-9
    assert DEFAULTS.e_amp == 100e-12
    assert DEFAULTS.packet_bits == 4096


def test_tx_cost_zero_distance_is_electronics_only():
    # 50e-9 J/bit * 4096 bit
    assert tx_cost(DEFAULTS, 0.0) == pytest.approx(2.048e-4, rel=1e-12)


def test_tx_cost_known_distances():
    # electronics + amp * bits * d^2, worked by hand
    assert tx_cost(DEFAULTS, 10.0) == pytest.approx(2.4576e-4, rel=1e-12)
    assert tx_cost(DEFAULTS, 20.0) == pytest.approx(3.6864e-4, rel=1e-12)


def test_tx_cost_matches_formula_on_random_inputs():
    params = RadioParams(e_elec=7e-9, e_amp=13e-12, packet_bits=512)
    for d in (0.0, 0.5, 3.0, 17.25, 199.0):
        expect = params.e_elec * params.packet_bits + params.e_amp * params.packet_bits * d * d
        assert tx_cost(params, d) == pytest.approx(expect, rel=1e-12)


def test_tx_cost_strictly_increasing_in_distance():
    costs = [tx_cost(DEFAULTS, d) for d in (0, 1, 2, 5, 10, 50, 100)]
    assert all(a < b for a, b in zip(costs, costs[1:]))


def test_tx_cost_rejects_negative_distance():
    with pytest.raises(ValueError):
        tx_cost(DEFAULTS, -1.0)


def test_rx_cost_defaults():
    assert rx_cost(DEFAULTS) == pytest.approx(2.048e-4, rel=1e-12)


def test_rx_cost_zero_bits_is_zero():
    assert rx_cost(RadioParams(packet_bits=0)) == 0.0


def test_rx_cost_linear_in_bits():
    one = rx_cost(RadioParams(packet_bits=1000))
    two = rx_cost(RadioParams(packet_bits=2000))
    assert two == pytest.approx(2 * one, rel=1e-12)


def test_default_failure_floor_equals_receive_cost():
    assert DEFAULT_E_FAIL == rx_cost(RadioParams())


def test_path_consumption_empty_path():
    assert path_consumption(DEFAULTS, []) == 0.0


def test_path_consumption_single_hop():
    # one transmit, no intermediate receive
    assert path_consumption(DEFAULTS, [10.0]) == pytest.approx(2.4576e-4, rel=1e-12)


def test_path_consumption_two_hops():
    # 2 * tx(10) + 1 * rx
    assert path_consumption(DEFAULTS, [10.0, 10.0]) == pytest.approx(6.9632e-4, rel=1e-12)


def test_direct_transmit_can_beat_relaying():
    direct = path_consumption(DEFAULTS, [20.0])
    relayed = path_consumption(DEFAULTS, [10.0, 10.0])
    assert direct == pytest.approx(3.6864e-4, rel=1e-12)
    assert direct < relayed


def test_path_consumption_matches_hop_fold():
    hops = [3.0, 12.5, 0.0, 40.0]
    expect = sum(tx_cost(DEFAULTS, d) for d in hops) + rx_cost(DEFAULTS) * (len(hops) - 1)
    assert path_consumption(DEFAULTS, hops) == pytest.approx(expect, rel=1e-12)


def test_path_consumption_monotone_under_extension():
    base = [5.0, 7.0]
    assert path_consumption(DEFAULTS, base + [0.0]) > path_consumption(DEFAULTS, base)


def test_validate_rejects_nonpositive_parameters():
    for bad in (RadioParams(e_elec=0.0), RadioParams(e_amp=-1e-12), RadioParams(packet_bits=-1)):
        with pytest.raises(ValueError):
            bad.validate()


def test_amplifier_term_uses_squared_distance():
    # doubling distance quadruples the amplifier share
    amp = lambda d: tx_cost(DEFAULTS, d) - tx_cost(DEFAULTS, 0.0)
    assert amp(20.0) == pytest.approx(4 * amp(10.0), rel=1e-12)
    assert math.isclose(amp(30.0), 9 * amp(10.0), rel_tol=1e-12)
