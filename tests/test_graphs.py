import numpy as np
import pytest

from homocon.graphs import (
    DirectedGraph,
    SingularFollowerBlock,
    is_leader_rooted,
    laplacian,
    solve_transmitted,
)


def chain_graph(N, w=1.0):
    return DirectedGraph.from_edges(N, [[i + 1, i, w] for i in range(N)])


def random_rooted_graph(rng, N, extra_edges=True):
    """Tree backbone from the leader plus optional lighter extra random
    edges, which may close follower cycles."""
    edges = []
    for i in range(1, N + 1):
        parent = int(rng.integers(0, i))
        edges.append([i, parent, float(rng.uniform(0.5, 2.0))])
    if extra_edges:
        for _ in range(rng.integers(0, N)):
            i = int(rng.integers(1, N + 1))
            j = int(rng.integers(0, N + 1))
            if i != j:
                edges.append([i, j, float(rng.uniform(0.05, 0.4))])
    return DirectedGraph.from_edges(N, edges)


# -- construction invariants -------------------------------------------------

def test_constructor_rejects_self_loop():
    W = np.zeros((3, 3))
    W[1, 1] = 1.0
    W[2, 0] = 1.0
    with pytest.raises(ValueError):
        DirectedGraph(2, W)


def test_constructor_rejects_leader_inflow():
    W = np.zeros((3, 3))
    W[0, 1] = 1.0
    W[1, 0] = 1.0
    W[2, 0] = 1.0
    with pytest.raises(ValueError):
        DirectedGraph(2, W)


def test_constructor_rejects_isolated_follower():
    W = np.zeros((3, 3))
    W[1, 0] = 1.0
    with pytest.raises(ValueError):
        DirectedGraph(2, W)


# -- laplacian ----------------------------------------------------------------

def test_laplacian_smallest_rooted_graph():
    g = DirectedGraph.from_edges(1, [[1, 0, 1.0]])
    dec = laplacian(g)
    assert np.array_equal(dec.full_laplacian, [[0.0, 0.0], [-1.0, 1.0]])
    assert np.array_equal(dec.follower_block, [[1.0]])


def test_laplacian_rows_sum_to_zero():
    rng = np.random.default_rng(10)
    for _ in range(20):
        g = random_rooted_graph(rng, int(rng.integers(2, 12)))
        L = laplacian(g).full_laplacian
        assert np.max(np.abs(L.sum(axis=1))) <= 1e-12 * max(1.0, np.abs(L).max())


def test_chain_topology_spectrum():
    # leader-rooted chain with unit weights: follower-block eigenvalues
    # all have positive real part
    g = chain_graph(3)
    dec = laplacian(g)
    eig = np.linalg.eigvals(dec.follower_block)
    assert np.all(eig.real > 0)
    assert is_leader_rooted(g)


def test_random_rooted_graph_has_invertible_block():
    rng = np.random.default_rng(11)
    g = random_rooted_graph(rng, 10)
    dec = laplacian(g)
    assert abs(np.linalg.det(dec.follower_block)) > 1e-9


def test_unrooted_graph_raises_singular_block():
    # followers 1, 2 only hear each other; leader informs follower 3
    g = DirectedGraph.from_edges(
        3, [[1, 2, 1.0], [2, 1, 1.0], [3, 0, 1.0]]
    )
    assert not is_leader_rooted(g)
    with pytest.raises(SingularFollowerBlock):
        laplacian(g)


def test_rootedness_matches_laplacian_feasibility():
    rng = np.random.default_rng(12)
    seen_unrooted = 0
    for _ in range(120):
        N = int(rng.integers(2, 21))
        if rng.uniform() < 0.5:
            g = random_rooted_graph(rng, N)
        else:
            # possibly unrooted: random in-edges, no backbone guarantee
            edges = []
            for i in range(1, N + 1):
                j = int(rng.integers(1, N + 1))
                if j == i:
                    j = 0
                edges.append([i, j, 1.0])
            g = DirectedGraph.from_edges(N, edges)
        rooted = is_leader_rooted(g)
        seen_unrooted += not rooted
        if rooted:
            laplacian(g)
        else:
            with pytest.raises(SingularFollowerBlock):
                laplacian(g)
    assert seen_unrooted > 0


# -- transmitted-vector fixed point -------------------------------------------

def test_star_graph_collapses_to_errors():
    g = DirectedGraph.from_edges(3, [[1, 0, 1.0], [2, 0, 2.0], [3, 0, 0.3]])
    X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0], [7.0, 8.0]])
    om = solve_transmitted(g, np.eye(2), X)
    assert np.allclose(om, X[1:] - X[0], atol=1e-14)


def test_chain_direct_evaluation():
    g = chain_graph(2)
    X = np.array([[0.0, 0.0], [1.0, 0.0], [3.0, 1.0]])
    om = solve_transmitted(g, np.eye(2), X)
    # follower 1 hears the leader; follower 2 hears follower 1:
    # om_2 = (x_2 - x_1) + om_1 = x_2 - x_0
    assert np.allclose(om[0], [1.0, 0.0], atol=1e-14)
    assert np.allclose(om[1], [3.0, 1.0], atol=1e-14)


def test_fixed_point_equals_kron_oracle():
    rng = np.random.default_rng(13)
    for _ in range(100):
        N = int(rng.integers(1, 21))
        n = int(rng.integers(1, 5))
        m = int(rng.integers(1, 4))
        g = random_rooted_graph(rng, N)
        M = rng.normal(size=(m, n))
        X = rng.normal(size=(N + 1, n))
        om = solve_transmitted(g, M, X)
        oracle = (X[1:] - X[0]) @ M.T  # block form of (I kron M) e
        assert np.max(np.abs(om - oracle)) <= 1e-10


def cyclic_graph(N):
    """Leader-rooted chain, back edge N -> 1 at 0.5, skip edges at 0.3
    (leader -> 2 and i + 2 -> i for i = 2..N-2)."""
    edges = [[i, i - 1, 1.0] for i in range(1, N + 1)] + [[1, N, 0.5], [2, 0, 0.3]]
    edges += [[i, i + 2, 0.3] for i in range(2, N - 1)]
    return DirectedGraph.from_edges(N, edges)


def test_fixed_point_on_cyclic_followers():
    rng = np.random.default_rng(14)
    g = cyclic_graph(6)
    for _ in range(20):
        M = rng.normal(size=(2, 3))
        X = rng.normal(size=(7, 3))
        om = solve_transmitted(g, M, X)
        assert np.max(np.abs(om - (X[1:] - X[0]) @ M.T)) <= 1e-10


def test_singular_block_on_vanishing_root_inflow():
    # a follower pair exchanging weight 1 with only a 1e-14 trickle from
    # the leader: rooted on paper, but the follower block has
    # sigma_min ~ 5e-15, so the solve is rejected as ill-conditioned
    g = DirectedGraph.from_edges(
        2, [[1, 0, 1e-14], [1, 2, 1.0], [2, 1, 1.0]]
    )
    X = np.array([[0.0], [1.0], [2.0]])
    with pytest.raises(SingularFollowerBlock):
        solve_transmitted(g, np.eye(1), X)
