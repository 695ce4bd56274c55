"""Core model: field, nodes, statuses, deployment, unit-disk reachability."""

import math

import pytest
from hypothesis import example, given, strategies as st

import vbtsim as v
from oracles import dense_reachability


def make_scenario(nodes, range_m=10.0, field=None, seed=0):
    field = field or v.Field(200, 200, 100, 100)
    return v.Scenario(field=field, nodes=nodes, sensing_range=range_m, rng_seed=seed)


def node(i, x, y, energy=v.E_INIT, status=v.NodeStatus.CANDIDATE_NON_TREE):
    return v.Node(id=i, x=x, y=y, energy=energy, status=status)


# ---------------------------------------------------------------- statuses

def test_classify_status_table():
    th, ef = 0.2, 2.048e-4
    assert v.classify_status(1.0, 3, th, ef) is v.NodeStatus.TREE
    assert v.classify_status(1.0, 0, th, ef) is v.NodeStatus.CANDIDATE_NON_TREE
    assert v.classify_status(0.1, 0, th, ef) is v.NodeStatus.PERMANENT_NON_TREE
    assert v.classify_status(1e-6, 0, th, ef) is v.NodeStatus.FAILED


def test_classify_status_boundaries():
    th, ef = 0.2, 2.048e-4
    # exactly Th still qualifies as relay material; exactly e_fail is not dead
    assert v.classify_status(th, 1, th, ef) is v.NodeStatus.TREE
    assert v.classify_status(th, 0, th, ef) is v.NodeStatus.CANDIDATE_NON_TREE
    assert v.classify_status(ef, 0, th, ef) is v.NodeStatus.PERMANENT_NON_TREE
    assert v.classify_status(ef * 0.999, 5, th, ef) is v.NodeStatus.FAILED


def test_node_is_alive():
    assert node(0, 1, 1).is_alive()
    assert not node(0, 1, 1, energy=0.0, status=v.NodeStatus.FAILED).is_alive()


# ---------------------------------------------------------------- field

def test_field_contains():
    f = v.Field(200, 200, 100, 100)
    assert f.contains(0, 0) and f.contains(200, 200) and f.contains(37.5, 199.9)
    assert not f.contains(-0.01, 5) and not f.contains(5, 200.01)


def test_field_sink_pos():
    assert v.Field(200, 200, 60, 80).sink_pos == (60.0, 80.0)


# ---------------------------------------------------------------- deployment

def test_deploy_single_node_in_bounds_with_full_energy():
    f = v.Field(200, 200, 100, 100)
    nodes = v.deploy_uniform(f, 1, seed=3)
    assert len(nodes) == 1
    n = nodes[0]
    assert 0 <= n.x <= 200 and 0 <= n.y <= 200
    assert n.energy == v.E_INIT
    assert n.status is v.NodeStatus.CANDIDATE_NON_TREE


def test_deploy_rejects_zero_nodes():
    with pytest.raises(ValueError):
        v.deploy_uniform(v.Field(200, 200, 100, 100), 0, seed=1)


def test_deploy_is_deterministic_per_seed():
    f = v.Field(200, 200, 100, 100)
    a = v.deploy_uniform(f, 200, seed=42)
    b = v.deploy_uniform(f, 200, seed=42)
    assert [(n.id, n.x, n.y, n.energy) for n in a] == [(n.id, n.x, n.y, n.energy) for n in b]
    c = v.deploy_uniform(f, 200, seed=43)
    assert [(n.x, n.y) for n in a] != [(n.x, n.y) for n in c]


def test_deploy_mean_position_matches_uniform_law():
    # standard error of the mean of U(0, 200) over 10000 draws
    f = v.Field(200, 200, 100, 100)
    nodes = v.deploy_uniform(f, 10000, seed=7)
    mean_x = sum(n.x for n in nodes) / len(nodes)
    tol = 3 * (200 / math.sqrt(12)) / math.sqrt(10000)
    assert abs(mean_x - 100.0) <= tol


def test_deploy_ids_are_dense_from_zero():
    nodes = v.deploy_uniform(v.Field(200, 200, 100, 100), 25, seed=9)
    assert [n.id for n in nodes] == list(range(25))


# ---------------------------------------------------------------- scenario

def test_scenario_positions_include_sink():
    sc = make_scenario([node(0, 10, 10)])
    pos = sc.positions()
    assert pos[v.SINK] == (100.0, 100.0)
    assert pos[0] == (10.0, 10.0)


def test_scenario_rejects_non_dense_ids():
    with pytest.raises(ValueError):
        make_scenario([node(0, 1, 1), node(2, 2, 2)])


def test_scenario_rejects_out_of_field_node():
    with pytest.raises(ValueError):
        make_scenario([node(0, 201, 5)])


def test_scenario_live_ids_excludes_failed():
    sc = make_scenario([node(0, 1, 1), node(1, 2, 2, energy=0.0, status=v.NodeStatus.FAILED)])
    assert sc.live_ids() == [0]


def test_scenario_copy_is_independent():
    field = v.Field(200, 200, 100, 100)
    sc = v.Scenario(field, v.deploy_uniform(field, 5, seed=2), 30.0, 9)
    dup = sc.copy()
    assert dup == sc
    assert dup.field is not sc.field
    assert all(a is not b for a, b in zip(dup.nodes, sc.nodes))
    dup.nodes[0].energy = 0.0
    dup.nodes[1].status = v.NodeStatus.FAILED
    dup.field.sink_x = 3.0
    assert sc.nodes[0].energy == v.E_INIT
    assert sc.nodes[1].status is not v.NodeStatus.FAILED
    assert sc.field.sink_pos == (100, 100)


# ---------------------------------------------------------------- reachability

def test_distance_is_euclidean():
    assert v.distance((0, 0), (3, 4)) == 5.0


def test_reachability_boundary_is_inclusive():
    sc = make_scenario([node(0, 0, 0), node(1, 0, 10)], range_m=10.0)
    g = v.build_reachability(sc)
    assert 1 in g.neighbors(0) and 0 in g.neighbors(1)


def test_reachability_just_beyond_range_absent():
    sc = make_scenario([node(0, 0, 0), node(1, 0, 10.01)], range_m=10.0)
    g = v.build_reachability(sc)
    assert 1 not in g.neighbors(0) and 0 not in g.neighbors(1)


def test_reachability_matches_brute_force_oracle():
    f = v.Field(200, 200, 100, 100)
    for seed in (11, 12, 13):
        nodes = v.deploy_uniform(f, 50, seed=seed)
        sc = v.Scenario(f, nodes, 35.0, seed)
        g = v.build_reachability(sc)
        pos = sc.positions()
        ids = list(pos)
        for a in ids:
            expect = sorted(
                b for b in ids
                if b != a and math.dist(pos[a], pos[b]) <= 35.0
            )
            assert list(g.neighbors(a)) == expect


def test_reachability_symmetric_no_self_loops():
    f = v.Field(200, 200, 100, 100)
    nodes = v.deploy_uniform(f, 60, seed=21)
    g = v.build_reachability(v.Scenario(f, nodes, 30.0, 21))
    for a in list(range(60)) + [v.SINK]:
        assert a not in g.neighbors(a)
        for b in g.neighbors(a):
            assert a in g.neighbors(b)


@st.composite
def edge_case_layouts(draw):
    """Fields with points on cell boundaries, field edges and duplicates."""
    width = draw(st.sampled_from([1.0, 37.5, 200.0]))
    height = draw(st.sampled_from([1.0, 60.0, 200.0]))
    big = max(width, height)
    range_m = draw(st.one_of(
        st.floats(min_value=1e-3, max_value=big),
        st.sampled_from([1e-300, 1e-9, width / 7, height / 3, 2.5 * big])))

    def coord(limit):
        # a multiple of the range lands exactly on a grid-cell boundary
        steps = int(min(limit / range_m, 1e6))
        return draw(st.one_of(
            st.floats(min_value=0.0, max_value=limit),
            st.sampled_from([0.0, limit]),
            st.integers(0, steps).map(lambda k: min(k * range_m, limit))))

    pts = []
    for _ in range(draw(st.integers(1, 30))):
        x, y = coord(width), coord(height)
        pts.append((x, y))
        partner = draw(st.sampled_from(["none", "x", "y", "same"]))
        if partner == "x" and x + range_m <= width:
            pts.append((x + range_m, y))
        elif partner == "y" and y + range_m <= height:
            pts.append((x, y + range_m))
        elif partner == "same":
            pts.append((x, y))
    field = v.Field(width, height, coord(width), coord(height))
    nodes = [node(i, x, y) for i, (x, y) in enumerate(pts)]
    return v.Scenario(field, nodes, range_m, 0)


def layout(width, height, sink, coords, range_m):
    nodes = [node(i, x, y) for i, (x, y) in enumerate(coords)]
    return v.Scenario(v.Field(width, height, *sink), nodes, range_m, 0)


@pytest.mark.filterwarnings("error")  # e.g. an overflowing cell index
@given(edge_case_layouts())
@example(layout(200, 200, (200, 0), [(0, 0), (200, 200), (200, 200)], 1e-300))
@example(layout(200, 200, (0, 200), [(10, 0), (20, 0), (0, 30), (0, 40),
                                     (200, 190), (200, 200)], 10.0))
@example(layout(200, 50, (100, 50), [(0, 0), (200, 50), (3, 4)], 500.0))
def test_grid_reachability_equals_dense_oracle(sc):
    g = v.build_reachability(sc)
    expect = dense_reachability(sc)
    assert g.adjacency == expect
    assert list(g.adjacency) == list(expect)
    assert all(type(u) is int for nbrs in g.adjacency.values() for u in nbrs)


@given(st.integers(0, 2**32 - 1), st.integers(1, 400),
       st.floats(min_value=0.5, max_value=300.0))
def test_grid_reachability_equals_dense_oracle_uniform(seed, n, range_m):
    f = v.Field(200, 200, 100, 100)
    sc = v.Scenario(f, v.deploy_uniform(f, n, seed=seed), range_m, seed)
    assert v.build_reachability(sc).adjacency == dense_reachability(sc)


@st.composite
def sink_walks(draw):
    """A layout and a few sink positions on its field: corners, node
    positions, points exactly range from a node, anywhere."""
    sc = draw(edge_case_layouts())
    f, r = sc.field, sc.sensing_range
    spots = [(0.0, 0.0), (f.width, f.height), f.sink_pos]
    for nd in sc.nodes:
        spots += [(nd.x, nd.y), (nd.x + r, nd.y), (nd.x, nd.y - r)]
    spot = st.sampled_from([p for p in spots if f.contains(*p)])
    anywhere = st.tuples(st.floats(0.0, f.width), st.floats(0.0, f.height))
    walk = draw(st.lists(st.one_of(spot, anywhere), min_size=1, max_size=4))
    return sc, walk


def expected_weights(sc, graph, params):
    pos = sc.positions()
    return {u: [v.hop_weight(params, v.distance(pos[w], pos[u]), u)
                for w in nbrs] for u, nbrs in graph.adjacency.items()}


RADIOS = (v.RadioParams(), v.RadioParams(e_elec=1e-7, e_amp=3e-12))


@given(sink_walks())
def test_moved_sink_graph_equals_fresh_build(case):
    sc, walk = case
    g = v.build_reachability(sc)
    g.hop_weights(RADIOS[0])  # a cached radio is patched, not rebuilt
    for pos in walk:
        sc.field.sink_x, sc.field.sink_y = pos
        g.move_sink(pos)
        fresh = v.build_reachability(sc)
        assert g.adjacency == fresh.adjacency
        assert list(g.adjacency) == list(fresh.adjacency)
        assert (g.points == fresh.points).all()
        assert all(type(u) is int for u in g.adjacency[v.SINK])
        for params in RADIOS:
            assert g.hop_weights(params) == expected_weights(sc, g, params)


@given(edge_case_layouts())
def test_cached_weights_equal_hop_weight_of_distance(sc):
    g = v.build_reachability(sc)
    for params in RADIOS:
        assert g.hop_weights(params) == expected_weights(sc, g, params)
        assert g.hop_weights(params) is g.hop_weights(params)


def expected_tx(sc, graph, params):
    pos = sc.positions()
    return {u: [v.tx_cost(params, v.distance(pos[u], pos[w])) for w in nbrs]
            for u, nbrs in graph.adjacency.items()}


@given(sink_walks(), st.booleans())
def test_cached_tx_costs_follow_sink_moves(case, weights_first):
    sc, walk = case
    g = v.build_reachability(sc)
    # both row sets cached, built in either order, are patched on a move
    if weights_first:
        g.hop_weights(RADIOS[0])
    g.tx_costs(RADIOS[0])
    for pos in walk:
        sc.field.sink_x, sc.field.sink_y = pos
        g.move_sink(pos)
        rows = g.tx_costs(RADIOS[0])
        assert rows == expected_tx(sc, g, RADIOS[0])
        assert rows is g.tx_costs(RADIOS[0])
        assert g.hop_weights(RADIOS[0]) == expected_weights(sc, g, RADIOS[0])
    for params in RADIOS[::-1]:  # another radio rebuilds both
        assert g.tx_costs(params) == expected_tx(sc, g, params)
        assert g.hop_weights(params) == expected_weights(sc, g, params)


def test_neighbor_ids_are_plain_ints():
    sc = make_scenario([node(0, 99, 99)], range_m=10.0)
    g = v.build_reachability(sc)
    assert all(type(x) is int for x in g.neighbors(v.SINK))


# ---------------------------------------------------------------- connectivity

def test_single_node_within_sink_range_connected():
    sc = make_scenario([node(0, 95, 100)], range_m=10.0)
    assert v.is_connected_to_sink(v.build_reachability(sc))


def test_isolated_node_disconnects():
    sc = make_scenario([node(0, 95, 100), node(1, 0, 0)], range_m=10.0)
    assert not v.is_connected_to_sink(v.build_reachability(sc))


def test_failed_nodes_do_not_count_against_connectivity():
    sc = make_scenario(
        [node(0, 95, 100), node(1, 0, 0, energy=0.0, status=v.NodeStatus.FAILED)],
        range_m=10.0,
    )
    g = v.build_reachability(sc)
    assert not v.is_connected_to_sink(g)
    assert v.is_connected_to_sink(g, alive=sc.live_ids())


def test_sparse_200_node_networks_mostly_disconnected():
    # 200 nodes at range 20 in a 200x200 field sit below the connectivity
    # threshold; use the harness's canonical per-attempt seed derivation.
    f = v.Field(200, 200, 100, 100)
    disconnected = 0
    for attempt in range(50):
        seed = v.attempt_seed(0, 20.0, attempt)
        nodes = v.deploy_uniform(f, 200, seed=seed)
        g = v.build_reachability(v.Scenario(f, nodes, 20.0, seed))
        if not v.is_connected_to_sink(g):
            disconnected += 1
    assert disconnected >= 48  # at least 95% of 50


def test_multihop_chain_is_connected():
    chain = [node(i, 100 + 9 * (i + 1), 100) for i in range(5)]
    sc = make_scenario(chain, range_m=10.0)
    assert v.is_connected_to_sink(v.build_reachability(sc))
