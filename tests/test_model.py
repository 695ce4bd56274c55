"""Core model: the liveness rule, field, scenario arrays, deployment,
unit-disk reachability."""

import copy
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import vbtsim as v
from oracles import (
    NodeStatus,
    adjacency,
    classify_status,
    copy_scenario,
    dense_reachability,
    graph_and_state,
    hop_weight,
    live_ids,
    neighbors,
    positions,
    reference_hop_levels,
    scenario_from,
)
from vbtsim.energy import tx_costs
from vbtsim.model import hop_levels, left_sum


# ---------------------------------------------------------------- statuses

def test_classify_status_table():
    th, ef = 0.2, 2.048e-4
    assert classify_status(1.0, 3, th, ef) is NodeStatus.TREE
    assert classify_status(1.0, 0, th, ef) is NodeStatus.CANDIDATE_NON_TREE
    assert classify_status(0.1, 0, th, ef) is NodeStatus.PERMANENT_NON_TREE
    assert classify_status(1e-6, 0, th, ef) is NodeStatus.FAILED


def test_classify_status_boundaries():
    th, ef = 0.2, 2.048e-4
    # exactly Th still qualifies as relay material; exactly e_fail is not dead
    assert classify_status(th, 1, th, ef) is NodeStatus.TREE
    assert classify_status(th, 0, th, ef) is NodeStatus.CANDIDATE_NON_TREE
    assert classify_status(ef, 0, th, ef) is NodeStatus.PERMANENT_NON_TREE
    assert classify_status(ef * 0.999, 5, th, ef) is NodeStatus.FAILED
    # 0 J has failed whatever the thresholds; the least charge has not
    assert classify_status(0.0, 2, 0.0, 0.0) is NodeStatus.FAILED
    assert classify_status(0.0, 0, th, 0.0) is NodeStatus.FAILED
    assert classify_status(5e-324, 2, 0.0, ef) is NodeStatus.TREE


THRESHOLDS = st.sampled_from([0.0, 5e-324, 1e-300, v.DEFAULT_E_FAIL,
                              v.DEFAULT_TH, 0.5, v.E_INIT])


@st.composite
def floor_cases(draw):
    """Thresholds, zero and denormal ones and e_fail > th among them, and
    energies at, just below and between them."""
    th, e_fail = draw(THRESHOLDS), draw(THRESHOLDS)
    marks = [0.0, 5e-324, th, e_fail]
    marks += [math.nextafter(x, 0.0) for x in (th, e_fail)]
    energy = draw(st.one_of(st.sampled_from(marks),
                            st.floats(0.0, 2 * v.E_INIT)))
    return th, e_fail, energy


@given(floor_cases())
@example((0.0, 0.0, 0.0))
@example((0.0, 0.0, 5e-324))
@example((0.5, 0.2, 0.2))
@example((0.2, 0.5, math.nextafter(0.2, 0.0)))
def test_floor_is_the_four_way_rule_on_failed(case):
    """A node is live under energy >= SimPolicy.floor exactly when the
    paper's four-way status does not say FAILED."""
    th, e_fail, energy = case
    floor = v.SimPolicy(th=th, e_fail=e_fail).floor
    assert (energy >= floor) == (
        classify_status(energy, 0, th, e_fail) is not NodeStatus.FAILED)


# ---------------------------------------------------------------- field

def test_field_contains():
    f = v.Field(200, 200, 100, 100)
    assert f.contains(0, 0) and f.contains(200, 200) and f.contains(37.5, 199.9)
    assert not f.contains(-0.01, 5) and not f.contains(5, 200.01)


def test_field_sink_pos():
    assert v.Field(200, 200, 60, 80).sink_pos == (60.0, 80.0)


@pytest.mark.parametrize("args, message", [
    ((math.inf, 200, 100, 100), "must be finite"),
    ((200, 200, math.nan, 100), "must be finite"),
    ((200, -math.inf, 100, 0), "must be finite"),
    ((0, 200, 0, 100), "dimensions must be positive"),
    ((200, 200, 300, 100), "sink position outside the field"),
    # a hop across such a field overflowed the tx cost's square
    ((1e300, 200, 100, 100), r"dimensions must be at most 2\*\*511"),
    ((200, 2.0**512, 100, 100), r"dimensions must be at most 2\*\*511"),
])
def test_field_validate_rejects_bad_numbers(args, message):
    field = v.Field(*args)  # a config section: checked only where used
    with pytest.raises(ValueError, match=message):
        field.validate()
    with pytest.raises(ValueError, match=message):
        scenario_from([(0, 0)], 10.0, field=field)
    with pytest.raises(ValueError, match=message):
        v.deploy_uniform(field, 1, seed=0)
    assert v.Field(200, 200, 0, 200).validate() == v.Field(200, 200, 0, 200)
    widest = v.Field(2.0**511, 2.0**511, 0, 0)
    assert widest.validate() == widest


# ---------------------------------------------------------------- deployment

def test_deploy_single_node_in_bounds_with_full_energy():
    f = v.Field(200, 200, 100, 100)
    (x, y), = v.deploy_uniform(f, 1, seed=3).tolist()
    assert 0 <= x <= 200 and 0 <= y <= 200
    sc = v.make_scenario(v.ExperimentConfig(n_nodes=1), 3, 10.0)
    assert sc.xy.tolist() == [[x, y]]
    assert sc.energy.tolist() == [v.E_INIT]
    assert sc.state(v.SimPolicy().floor)[1].tolist() == [True]


def test_deploy_rejects_zero_nodes():
    with pytest.raises(ValueError):
        v.deploy_uniform(v.Field(200, 200, 100, 100), 0, seed=1)


def test_deploy_is_deterministic_per_seed():
    f = v.Field(200, 200, 100, 100)
    a = v.deploy_uniform(f, 200, seed=42)
    assert a.tolist() == v.deploy_uniform(f, 200, seed=42).tolist()
    assert a.tolist() != v.deploy_uniform(f, 200, seed=43).tolist()
    # one RNG path: all x draws, then all y draws, as (n, 2) rows
    rng = np.random.default_rng(42)
    xs, ys = rng.uniform(0.0, 200, 200), rng.uniform(0.0, 200, 200)
    assert a.shape == (200, 2) and a.dtype == np.float64
    assert a.tolist() == np.c_[xs, ys].tolist()


def test_deploy_mean_position_matches_uniform_law():
    # standard error of the mean of U(0, 200) over 10000 draws
    f = v.Field(200, 200, 100, 100)
    mean_x = v.deploy_uniform(f, 10000, seed=7)[:, 0].mean()
    tol = 3 * (200 / math.sqrt(12)) / math.sqrt(10000)
    assert abs(mean_x - 100.0) <= tol


def test_deploy_ids_are_dense_from_zero():
    """A node's id is its row: a Scenario's arrays hold one row per id."""
    sc = v.make_scenario(v.ExperimentConfig(n_nodes=25), 9, 10.0)
    assert list(positions(sc)) == list(range(25)) + [v.SINK]
    assert (len(sc.xy), len(sc.energy)) == (25, 25)


# ---------------------------------------------------------------- scenario

def test_scenario_positions_include_sink():
    sc = scenario_from([(10, 10)], 10.0)
    pos = positions(sc)
    assert pos[v.SINK] == (100.0, 100.0)
    assert pos[0] == (10.0, 10.0)


def test_scenario_points_are_a_fresh_array_sink_last():
    sc = scenario_from([(10, 10), (12.5, 3)], 10.0)
    pts = sc.points()
    assert pts.dtype == np.float64
    assert pts.tolist() == [[10.0, 10.0], [12.5, 3.0], [100.0, 100.0]]
    # the graph keeps the array it was given and moves its sink in place
    v.build_reachability(pts, sc.sensing_range).move_sink((1.0, 2.0))
    assert pts[-1].tolist() == [1.0, 2.0]
    assert sc.points()[-1].tolist() == [100.0, 100.0]


def test_scenario_rejects_out_of_field_node():
    with pytest.raises(ValueError, match="node 1 outside the field"):
        scenario_from([(1, 1), (201, 5), (-1, 0)], 10.0)
    with pytest.raises(ValueError, match="node 0 outside the field"):
        scenario_from([(math.nan, 5)], 10.0)


def test_scenario_live_ids_excludes_failed():
    sc = scenario_from([(1, 1), (2, 2)], 10.0, energies=[v.E_INIT, 0.0])
    assert live_ids(sc) == [0]


XY, ENERGY = [(10.0, 10.0), (20.0, 20.0)], [1.0, 2.0]


@pytest.mark.parametrize("xy, energy, message", [
    (XY, [math.nan, 2.0], "energies must be finite and >= 0"),
    (XY, [1.0, math.inf], "energies must be finite and >= 0"),
    (XY, [1.0, -5.0], "energies must be finite and >= 0"),
    ([(10.0, 10.0, 0.0), (20.0, 20.0, 0.0)], ENERGY, "shaped"),
    ([10.0, 20.0], ENERGY, "shaped"),
    (XY, [1.0, 2.0, 3.0], "shaped"),
    (XY, [[1.0], [2.0]], "shaped"),
], ids=["nan energy", "inf energy", "negative energy", "xy 3 wide",
        "xy flat", "energy long", "energy 2-d"])
def test_scenario_rejects_bad_arrays(xy, energy, message):
    """A NaN or negative battery would reach a run, which would drop the
    node as failed in silence."""
    with pytest.raises(ValueError, match=message):
        v.Scenario(v.Field(200, 200, 100, 100), xy, energy, 30.0)


def test_scenario_holds_float_arrays_and_copies_its_state():
    field = v.Field(200, 200, 100, 100)
    sc = v.Scenario(field, [(1, 2), (3, 4)], [1, 0], 30.0)
    assert sc.xy.dtype == sc.energy.dtype == np.float64
    energy, live = sc.state(v.SimPolicy().floor)
    assert live.tolist() == [True, False]
    energy[0], live[0] = 0.0, False
    assert sc.energy.tolist() == [1.0, 0.0]
    assert sc.state(v.SimPolicy().floor)[1].tolist() == [True, False]


def test_scenario_copy_is_independent():
    field = v.Field(200, 200, 100, 100)
    xy = v.deploy_uniform(field, 5, seed=2)
    sc = v.Scenario(field, xy, np.full(5, v.E_INIT), 30.0, 9)
    dup = copy_scenario(sc)
    for name in ("xy", "energy"):
        assert getattr(dup, name) is not getattr(sc, name)
        assert (getattr(dup, name) == getattr(sc, name)).all()
    assert (dup.field, dup.sensing_range, dup.rng_seed) == (field, 30.0, 9)
    dup.xy[0] = (3.0, 3.0)
    dup.energy[0] = 0.0
    assert sc.xy.tolist() == xy.tolist()
    assert sc.energy.tolist() == [v.E_INIT] * 5


def test_left_sum_is_a_plain_left_fold():
    # from Python 3.12 on, sum() compensates its rounding and gives 0.6
    assert left_sum([0.1, 0.2, 0.3, 1e16, -1e16]) == 0.0
    assert left_sum([]) == 0.0
    # the selection total folds the same way: 1e16 + 1.0 rounds to 1e16
    assert v.selection_probabilities([1e16, 1.0, 1.0])[0] == 1.0


# ---------------------------------------------------------------- reachability

def test_distance_is_euclidean():
    assert v.distance((0, 0), (3, 4)) == 5.0


def test_reachability_boundary_is_inclusive():
    sc = scenario_from([(0, 0), (0, 10)], range_m=10.0)
    g = v.build_reachability(sc.points(), sc.sensing_range)
    assert 1 in neighbors(g, 0) and 0 in neighbors(g, 1)


def test_reachability_just_beyond_range_absent():
    sc = scenario_from([(0, 0), (0, 10.01)], range_m=10.0)
    g = v.build_reachability(sc.points(), sc.sensing_range)
    assert 1 not in neighbors(g, 0) and 0 not in neighbors(g, 1)


@pytest.mark.parametrize("range_m", [0.0, -1.0, math.inf, -math.inf,
                                     math.nan])
def test_reachability_rejects_bad_range(range_m):
    with pytest.raises(ValueError, match="sensing range must be positive"):
        v.build_reachability(np.zeros((2, 2)), range_m)


@pytest.mark.parametrize("shape", [(0, 2), (3,), (3, 3), (2, 1), (2, 2, 2)])
def test_reachability_rejects_points_not_shaped_m_by_2(shape):
    with pytest.raises(ValueError, match=r"\(m, 2\) array"):
        v.build_reachability(np.zeros(shape), 10.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("row", [0, -1], ids=["node", "sink"])
def test_reachability_rejects_non_finite_points(bad, row):
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    pts[row, 1] = bad
    with pytest.raises(ValueError, match="points must be finite"):
        v.build_reachability(pts, 10.0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("axis", [0, 1], ids=["x", "y"])
def test_move_sink_rejects_a_non_finite_position(bad, axis):
    pts = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
    g = v.build_reachability(pts.copy(), 10.0)
    pos = [0.0, 0.0]
    pos[axis] = bad
    with pytest.raises(ValueError, match="points must be finite"):
        g.move_sink(tuple(pos))
    assert (g.points == pts).all()


def test_a_range_whose_square_overflows_holds_every_pair():
    """1e300**2 overflows a float: every pair is then in range, also
    after the sink moves, instead of the build raising OverflowError."""
    sc = layout(200, 200, (100, 100), [(0, 0), (200, 200), (3, 4)], 1e300)
    g = v.build_reachability(sc.points(), sc.sensing_range)
    complete = {u: sorted({0, 1, 2, v.SINK} - {u}) for u in [0, 1, 2, v.SINK]}
    assert adjacency(g) == complete == dense_reachability(sc)
    g.move_sink((200.0, 0.0))
    assert adjacency(g) == complete


def assert_csr_layout(graph, pts):
    """The layout every reader of the CSR arrays relies on: int64 indptr
    with a row per node and the sink, int32 nbrs, each row the sink (n)
    first when present, then node ids strictly ascending, never its own
    id; and the graph holds the points array it was built from."""
    n = len(pts) - 1
    assert graph.points is pts
    assert graph.indptr.dtype == np.int64 and len(graph.indptr) == n + 2
    assert graph.nbrs.dtype == np.int32
    for u in range(n + 1):
        row = graph.nbrs[graph.indptr[u]:graph.indptr[u + 1]].tolist()
        if row and row[0] == n:
            row = row[1:]
        assert all(a < b for a, b in zip(row, row[1:]))
        assert n not in row and u not in row


def test_reachability_matches_brute_force_oracle():
    f = v.Field(200, 200, 100, 100)
    for seed in (11, 12, 13):
        sc = scenario_from(v.deploy_uniform(f, 50, seed=seed), 35.0, field=f)
        g = v.build_reachability(sc.points(), sc.sensing_range)
        pos = positions(sc)
        ids = list(pos)
        for a in ids:
            expect = sorted(
                b for b in ids
                if b != a and math.dist(pos[a], pos[b]) <= 35.0
            )
            assert list(neighbors(g, a)) == expect


def test_reachability_symmetric_no_self_loops():
    f = v.Field(200, 200, 100, 100)
    sc = scenario_from(v.deploy_uniform(f, 60, seed=21), 30.0, field=f)
    g = v.build_reachability(sc.points(), 30.0)
    for a in list(range(60)) + [v.SINK]:
        assert a not in neighbors(g, a)
        for b in neighbors(g, a):
            assert a in neighbors(g, b)


@st.composite
def edge_case_layouts(draw):
    """Fields with points on cell boundaries, field edges and duplicates."""
    width = draw(st.sampled_from([1.0, 37.5, 200.0]))
    height = draw(st.sampled_from([1.0, 60.0, 200.0]))
    big = max(width, height)
    range_m = draw(st.one_of(
        st.floats(min_value=1e-3, max_value=big),
        st.sampled_from([1e-300, 1e-9, width / 7, height / 3, 2.5 * big,
                         1e300])))

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
    return scenario_from(pts, range_m, field=field)


def layout(width, height, sink, coords, range_m):
    return scenario_from(coords, range_m, field=v.Field(width, height, *sink))


@pytest.mark.filterwarnings("error")  # e.g. an overflowing cell index
@given(edge_case_layouts())
@example(layout(200, 200, (200, 0), [(0, 0), (200, 200), (200, 200)], 1e-300))
@example(layout(200, 200, (0, 200), [(10, 0), (20, 0), (0, 30), (0, 40),
                                     (200, 190), (200, 200)], 10.0))
@example(layout(200, 50, (100, 50), [(0, 0), (200, 50), (3, 4)], 500.0))
# 3e-300 is past the range, but both squares underflow to 0.0
@example(layout(1, 1, (0, 0), [(0, 3e-300)], 1e-300))
def test_grid_reachability_equals_dense_oracle(sc):
    pts = sc.points()
    g = v.build_reachability(pts, sc.sensing_range)
    assert_csr_layout(g, pts)
    expect = dense_reachability(sc)
    assert adjacency(g) == expect
    assert list(adjacency(g)) == list(expect)
    assert all(type(u) is int for nbrs in adjacency(g).values() for u in nbrs)


@given(st.integers(0, 2**32 - 1), st.integers(1, 400),
       st.floats(min_value=0.5, max_value=300.0))
def test_grid_reachability_equals_dense_oracle_uniform(seed, n, range_m):
    f = v.Field(200, 200, 100, 100)
    sc = scenario_from(v.deploy_uniform(f, n, seed=seed), range_m, field=f)
    pts = sc.points()
    g = v.build_reachability(pts, sc.sensing_range)
    assert_csr_layout(g, pts)
    assert adjacency(g) == dense_reachability(sc)


def test_grid_keeps_pairs_at_exactly_range_in_every_direction():
    """Integer points 3-4-5 or 5-0 apart, and points on cell edges: pairs
    at exactly the range cross into each of the 8 neighbour cells, and
    the half-stencil scan keeps every pair the dense test keeps."""
    r = 5.0
    cell = r * (1.0 + 1e-6)  # the build's cell size: the range dominates
    coords = sorted({*map(float, range(21)), *(k * cell for k in range(5))})
    sc = layout(30, 30, (0, 0), [(x, y) for x in coords for y in coords], r)
    g = v.build_reachability(sc.points(), r)
    assert adjacency(g) == dense_reachability(sc)
    pts = sc.points()
    a, b = g.edge_rows(np.arange(len(g.nbrs))), g.nbrs
    at_range = ((pts[a] - pts[b]) ** 2).sum(axis=1) == r**2
    cells = np.floor(pts / cell).astype(int)  # the origin is (0, 0)
    steps = {tuple(d) for d in (cells[b] - cells[a])[at_range].tolist()}
    assert steps == {(dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1)}


@given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 150),
       st.floats(min_value=0.5, max_value=40.0))
def test_grid_reachability_equals_dense_oracle_clustered(seed, k, n, range_m):
    """Tight clusters put many points in a cell and its neighbours."""
    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 200.0, (k, 2))
    pts = centers[rng.integers(k, size=n)] + rng.normal(0.0, range_m, (n, 2))
    sc = layout(200, 200, (100, 100), np.clip(pts, 0.0, 200.0).tolist(),
                range_m)
    pts = sc.points()
    g = v.build_reachability(pts, range_m)
    assert_csr_layout(g, pts)
    assert adjacency(g) == dense_reachability(sc)


def test_build_peak_memory_per_directed_edge():
    """tracemalloc counts exact allocation sizes, so this bound does not
    depend on the host. The peak includes the returned arrays, so a peak
    below their bytes would mean numpy's allocations went untraced."""
    pts = np.vstack((v.deploy_uniform(v.Field(), 4000, 1), [(100.0, 100.0)]))
    tracemalloc.start()
    try:
        g = v.build_reachability(pts, 8.0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    edges = len(g.nbrs)
    assert edges == 78_070
    assert g.indptr.nbytes + g.nbrs.nbytes <= peak <= 28 * edges


@st.composite
def sink_walks(draw):
    """A layout and a few sink positions on its field: corners, node
    positions, points exactly range from a node, anywhere."""
    sc = draw(edge_case_layouts())
    f, r = sc.field, sc.sensing_range
    spots = [(0.0, 0.0), (f.width, f.height), f.sink_pos]
    for x, y in sc.xy.tolist():
        spots += [(x, y), (x + r, y), (x, y - r)]
    spot = st.sampled_from([p for p in spots if f.contains(*p)])
    anywhere = st.tuples(st.floats(0.0, f.width), st.floats(0.0, f.height))
    walk = draw(st.lists(st.one_of(spot, anywhere), min_size=1, max_size=4))
    return sc, walk


def expected_weights(sc, graph, params):
    """Per edge, hop_weight of the hop from nbrs[k] into its row vertex."""
    pos = positions(sc)
    return [hop_weight(params, v.distance(pos[w], pos[u]), u)
            for u, nbrs in adjacency(graph).items() for w in nbrs]


def edge_weights(graph, params):
    """The hop weights build_mmevbt adds up: each edge's tx, priced from
    the graph's squares, plus its row vertex's rx, none in the sink's
    row."""
    tx = tx_costs(params, graph.squares())
    rx = np.full(len(tx), v.rx_cost(params))
    rx[graph.indptr[-2]:] = 0.0
    return (tx + rx).tolist()


RADIOS = (v.RadioParams(), v.RadioParams(e_elec=1e-7, e_amp=3e-12))


@given(sink_walks())
def test_moved_sink_graph_equals_fresh_build(case):
    sc, walk = case
    g = v.build_reachability(sc.points(), sc.sensing_range)
    g.squares()  # cached squares are patched, not rebuilt
    for pos in walk:
        sc.field = v.Field(sc.field.width, sc.field.height, *pos)
        g.move_sink(pos)
        fresh = v.build_reachability(sc.points(), sc.sensing_range)
        assert adjacency(g) == adjacency(fresh)
        assert list(adjacency(g)) == list(adjacency(fresh))
        assert (g.points == fresh.points).all()
        assert all(type(u) is int for u in neighbors(g, v.SINK))
        for params in RADIOS:
            assert edge_weights(g, params) == expected_weights(sc, g, params)


@given(edge_case_layouts())
def test_cached_weights_equal_hop_weight_of_distance(sc):
    """Two radios priced alternately on one graph: the graph holds no
    radio, so each pricing reads the same cached squares."""
    g = v.build_reachability(sc.points(), sc.sensing_range)
    for params in RADIOS + RADIOS:
        assert edge_weights(g, params) == expected_weights(sc, g, params)
        assert g.squares() is g.squares()


def expected_edge_arrays(sc, params):
    """CSR rows of a fresh build, with scalar distances and tx costs."""
    fresh = v.build_reachability(sc.points(), sc.sensing_range)
    n, pos = len(sc.xy), positions(sc)
    rows = adjacency(fresh)
    nbrs = [n if u == v.SINK else u for w in rows for u in rows[w]]
    dist = [v.distance(pos[w], pos[u]) for w in rows for u in rows[w]]
    return (fresh.indptr.tolist(), nbrs, dist,
            [v.tx_cost(params, d) for d in dist])


def assert_edge_arrays_fresh(sc, g, params):
    indptr, nbrs, dist, tx = expected_edge_arrays(sc, params)
    assert g.indptr.tolist() == indptr
    assert g.nbrs.tolist() == nbrs
    assert g.distances().tolist() == dist
    assert g.squares().tolist() == [d**2 for d in dist]
    assert tx_costs(params, g.squares()).tolist() == tx


@given(sink_walks(), st.sampled_from(["none", "dist", "squares", "some"]),
       st.data())
def test_cached_tx_costs_follow_sink_moves(case, cached, data):
    """The CSR arrays, distances, squares and the tx costs priced from
    them after sink moves that add, keep and drop sink edges equal a
    fresh build's with scalar tx_cost of each distance, whether they
    were built before the moves, not at all, or only at a drawn subset
    of edges, and give every hop hop_weight's cost for either radio."""
    sc, walk = case
    g = v.build_reachability(sc.points(), sc.sensing_range)
    if cached == "dist":
        g.distances()
    if cached == "squares":
        g.squares()
    if cached == "some":
        drawn = data.draw(st.lists(st.booleans(), min_size=len(g.nbrs),
                                   max_size=len(g.nbrs)))
        edges = np.flatnonzero(drawn)
        dist = expected_edge_arrays(sc, RADIOS[0])[2]
        # squares price the distances they need, so some edges end up
        # with a distance and no square
        assert g.squares(edges[::2]).tolist() == \
            [dist[k]**2 for k in edges[::2]]
        assert g.distances(edges[1::2]).tolist() == \
            [dist[k] for k in edges[1::2]]
    for pos in walk:
        sc.field = v.Field(sc.field.width, sc.field.height, *pos)
        g.move_sink(pos)
        if cached == "squares":
            for params in RADIOS:
                assert_edge_arrays_fresh(sc, g, params)
                assert edge_weights(g, params) == \
                    expected_weights(sc, g, params)
        elif cached == "dist":
            assert g.distances().tolist() == \
                expected_edge_arrays(sc, RADIOS[0])[2]
        elif cached == "some":
            # priced whole on a copy, so g stays priced in part
            assert_edge_arrays_fresh(sc, copy.deepcopy(g), RADIOS[0])
    for params in RADIOS[::-1]:
        assert_edge_arrays_fresh(sc, g, params)
        assert edge_weights(g, params) == expected_weights(sc, g, params)


def test_squares_priced_at_no_edge_follow_a_sink_move():
    """Squares asked for at no edge price no distance, and a sink move
    still patches them to the moved graph's length and values."""
    sc = layout(200, 200, (100, 100), [(95.0, 100.0), (0.0, 0.0)], 10.0)
    g = v.build_reachability(sc.points(), sc.sensing_range)
    assert g.squares(np.array([], dtype=np.int64)).size == 0
    sc.field = v.Field(200, 200, 50.0, 50.0)
    g.move_sink((50.0, 50.0))  # out of range: the sink loses its edges
    assert_edge_arrays_fresh(sc, g, RADIOS[0])


def test_builds_price_each_edge_once(monkeypatch):
    """A forwarding build prices only the edges it reads, fewer than the
    graph has; an mmevbt build after it prices the rest and none again."""
    calls, scalar = [], math.hypot

    def hypot(*xy):
        calls.append(xy)
        return scalar(*xy)

    sc = v.make_scenario(v.ExperimentConfig(n_nodes=300), 3, 20.0)
    g, state = graph_and_state(sc)
    tree, stranded = v.build_min_cover(g, state, v.DEFAULT_TH)
    assert not stranded.size and len(tree) > 1
    monkeypatch.setattr(math, "hypot", hypot)
    rows, stranded = v.build_forwarding_problem(g, state, tree,
                                                v.DEFAULT_TH,
                                                v.FitnessParams())
    assert not stranded.size
    assert len(rows.edges) <= len(calls) < len(g.nbrs)
    v.build_mmevbt(g, state, v.RadioParams(), v.DEFAULT_TH)
    assert len(calls) == len(g.nbrs)


def test_tx_costs_are_scalar_tx_cost_of_each_distance():
    # at this distance libm pow(d, 2) and d * d differ in the last bit,
    # so a numpy square in the tx formula would show here
    d = 30.034675292417745
    b = RADIOS[0].packet_bits
    assert v.tx_cost(RADIOS[0], d) != \
        RADIOS[0].e_elec * b + RADIOS[0].e_amp * b * (d * d)
    sc = layout(200, 200, (100, 100), [(0.0, 0.0), (d, 0.0), (90.0, 95.0)],
                35.0)
    g = v.build_reachability(sc.points(), sc.sensing_range)
    g.squares()
    # the sink walks in next to node 2, stays, then leaves again
    for pos in [(80.0, 80.0), (95.0, 90.0), (0.0, 20.0), (170.0, 170.0)]:
        sc.field = v.Field(sc.field.width, sc.field.height, *pos)
        g.move_sink(pos)
        assert_edge_arrays_fresh(sc, g, RADIOS[0])
    assert g.distances()[g.indptr[0]] == d


def test_neighbor_ids_are_plain_ints():
    sc = scenario_from([(99, 99)], range_m=10.0)
    g = v.build_reachability(sc.points(), sc.sensing_range)
    assert all(type(x) is int for x in neighbors(g, v.SINK))


# ---------------------------------------------------------------- connectivity

def test_single_node_within_sink_range_connected():
    sc = scenario_from([(95, 100)], range_m=10.0)
    g, (_, live) = graph_and_state(sc)
    assert v.is_connected_to_sink(g, live)


def test_isolated_node_disconnects():
    sc = scenario_from([(95, 100), (0, 0)], range_m=10.0)
    g, (_, live) = graph_and_state(sc)
    assert not v.is_connected_to_sink(g, live)


def test_failed_nodes_do_not_count_against_connectivity():
    sc = scenario_from([(95, 100), (0, 0)], range_m=10.0,
                       energies=[v.E_INIT, 0.0])
    g = v.build_reachability(sc.points(), sc.sensing_range)
    assert not v.is_connected_to_sink(g, np.ones(2, dtype=bool))
    assert v.is_connected_to_sink(g, sc.state(v.SimPolicy().floor)[1])


def test_sparse_200_node_networks_mostly_disconnected():
    # 200 nodes at range 20 in a 200x200 field sit below the connectivity
    # threshold; use the harness's canonical per-attempt seed derivation.
    f = v.Field(200, 200, 100, 100)
    disconnected = 0
    for attempt in range(50):
        seed = v.attempt_seed(0, 20.0, attempt)
        sc = scenario_from(v.deploy_uniform(f, 200, seed=seed), 20.0, field=f)
        g = v.build_reachability(sc.points(), 20.0)
        if not v.is_connected_to_sink(g, np.ones(200, dtype=bool)):
            disconnected += 1
    assert disconnected >= 48  # at least 95% of 50


def test_multihop_chain_is_connected():
    sc = scenario_from([(100 + 9 * (i + 1), 100) for i in range(5)],
                       range_m=10.0)
    g, (_, live) = graph_and_state(sc)
    assert v.is_connected_to_sink(g, live)


@given(st.integers(0, 2**32 - 1), st.integers(1, 60),
       st.sampled_from([5.0, 12.0, 25.0, 40.0]),
       st.lists(st.booleans(), min_size=61, max_size=61))
@example(seed=3, n=40, range_m=25.0, bits=[False] * 61)  # the sink alone
@example(seed=3, n=40, range_m=12.0, bits=[True] * 61)  # 9 levels, 26 cut off
def test_hop_levels_equal_the_edge_rescan(seed, n, range_m, bits):
    """The frontier BFS gives the rescan's levels and deepest level on any
    mask, the sink in it or not."""
    f = v.Field(100, 100, 50, 50)
    sc = scenario_from(v.deploy_uniform(f, n, seed=seed), range_m, field=f)
    g = v.build_reachability(sc.points(), sc.sensing_range)
    mask = np.array(bits[:n + 1])
    got, deepest = hop_levels(g, mask)
    want, want_deepest = reference_hop_levels(g, mask)
    assert got.tolist() == want.tolist() and deepest == want_deepest


@given(st.integers(0, 2**32 - 1), st.integers(1, 60),
       st.sampled_from([12.0, 25.0, 40.0]), st.data())
def test_hop_levels_and_connectivity_equal_dense_bfs(seed, n, range_m, data):
    """hop_levels and is_connected_to_sink against a plain BFS from the
    sink over the dense oracle's adjacency, through alive nodes only."""
    f = v.Field(100, 100, 50, 50)
    sc = scenario_from(v.deploy_uniform(f, n, seed=seed), range_m, field=f)
    alive = data.draw(st.one_of(st.none(), st.sets(st.integers(0, n - 1))))
    live = set(range(n)) if alive is None else alive
    adj = dense_reachability(sc)
    level = {v.SINK: 0}
    frontier = [v.SINK]
    while frontier:
        reached = []
        for u in frontier:
            for w in adj[u]:
                if w in live and w not in level:
                    level[w] = level[u] + 1
                    reached.append(w)
        frontier = reached
    g = v.build_reachability(sc.points(), sc.sensing_range)
    mask = np.zeros(n + 1, dtype=bool)
    mask[sorted(live)] = True
    got, deepest = hop_levels(g, mask)
    assert got.tolist() == [level.get(i, n + 1) for i in range(n)] + [0]
    assert deepest == max(level.values())
    assert v.is_connected_to_sink(g, mask[:n]) == live.issubset(level)
