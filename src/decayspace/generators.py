"""Construction families: geometric clouds and adversarial spaces.

Each generator returns a DecaySpace, or a LinkSystem when the
construction carries links. The random helpers take integer seeds
and are reproducible. Counts, seeds and edge endpoints are read by
spaces._whole and real parameters by spaces._real.
"""

import numpy as np

from .spaces import DecaySpace, LINK_GAIN, NODE_SPACE, _real, _whole
from .links import LinkSystem, PowerAssignment, SinrParams

# draws a random generator makes before giving up on distinct points
MAX_RESAMPLES = 100
# most nodes a construction builds: a 4096-node matrix takes 128 MiB
MAX_NODES = 4096
# largest random_link_system box: doubles near 1e9 lie 1.2e-7 apart, so
# receiver offsets of 0.1-0.8 keep six digits; near 1e15 they vanish
MAX_BOX = 1e9


def _check_nodes(what, n):
    # called before any allocation, so an oversized request costs nothing
    if n > MAX_NODES:
        raise ValueError("%s has at most %d nodes, got %d" % (what, MAX_NODES, n))


def _edge_array(n, edges):
    """Edges as an (m, 2) int array, rejecting loops and endpoints outside 0..n-1."""
    out = []
    for i, j in edges:
        i, j = _whole("edge endpoint", i), _whole("edge endpoint", j)
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise ValueError("bad edge (%d, %d)" % (i, j))
        out.append((i, j))
    return np.array(out, dtype=int).reshape(-1, 2)


def random_points(n, seed, plant_collinear=False):
    """At most MAX_NODES uniform points in the unit square, reproducible by seed.

    plant_collinear, a bool, overwrites the last three points with an exactly
    collinear, evenly spaced triple on a dyadic grid, so that the
    middle point splits the long distance without floating point
    error. Points are deduplicated by resampling, at most
    MAX_RESAMPLES times before a ValueError.
    """
    n, seed = _whole("n", n), _whole("seed", seed)
    if n < 1:
        raise ValueError("need at least one point")
    if not isinstance(plant_collinear, (bool, np.bool_)):
        raise ValueError("'plant_collinear' must be a bool, got %r" % (plant_collinear,))
    if plant_collinear and n < 3:
        raise ValueError("planting a collinear triple needs n >= 3")
    _check_nodes("a point cloud", n)
    for attempt in range(MAX_RESAMPLES):
        rng = np.random.default_rng(seed + 7919 * attempt)
        pts = rng.uniform(0.0, 1.0, size=(n, 2))
        if plant_collinear:
            grid = 2.0 ** -16
            base = np.floor(pts[-3] * 2 ** 16) * grid
            step = rng.integers(1, 129, size=2) * grid
            pts[-3] = base
            pts[-2] = base + step
            pts[-1] = base + 2.0 * step
        if len({(p[0], p[1]) for p in pts}) == n:
            return pts
    raise ValueError("no %d distinct points after %d draws" % (n, MAX_RESAMPLES))


def gen_euclidean(points, alpha):
    """Planar points under geometric path loss, f = distance**alpha; at most MAX_NODES."""
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 1:
        raise ValueError("points must be a non-empty 2d array")
    _check_nodes("a point cloud", len(pts))
    alpha = _real("alpha", alpha)
    if not (alpha >= 1):
        raise ValueError("alpha must be at least 1")
    diff = pts[:, None, :] - pts[None, :, :]
    dist = np.sqrt((diff ** 2).sum(axis=-1))
    return DecaySpace(dist ** alpha, mode=NODE_SPACE)


def gen_threepoint(q):
    """Three nodes with pairwise decays 1, q and 2q.

    The stress case for additive triangle repair: as q grows the
    exponent needed to fix the triangle inequality grows without
    bound, while the multiplicative defect stays below 2.
    """
    q = _real("q", q)
    if not (q > 1):
        raise ValueError("q must exceed 1")
    f = np.array([
        [0.0, 1.0, 2.0 * q],
        [1.0, 0.0, q],
        [2.0 * q, q, 0.0],
    ])
    return DecaySpace(f, mode=NODE_SPACE)


def gen_star(k, r):
    """Star with k leaves, a hub, and a stray node near the hub.

    Shortest-path distances: hub to leaf k**2, leaf to leaf 2*k**2,
    stray to hub r, stray to leaf r + k**2. Node 0 is the stray, node
    1 the hub, nodes 2..k+1 the leaves. The interesting regime is
    r much smaller than k**2: the stray hears all k leaves at decay
    just above k**2 each. k + 2 is capped at MAX_NODES.
    """
    k, r = _whole("k", k), _real("r", r)
    if k < 1:
        raise ValueError("need at least one leaf")
    _check_nodes("a star", k + 2)
    if not (r > 0):
        raise ValueError("r must be positive")
    n = k + 2
    k2 = float(k) ** 2
    f = np.full((n, n), 2.0 * k2)
    f[1, :] = f[:, 1] = k2
    f[0, :] = f[:, 0] = r + k2
    f[0, 1] = f[1, 0] = r
    np.fill_diagonal(f, 0.0)
    labels = ["stray", "hub"] + ["leaf%d" % i for i in range(k)]
    return DecaySpace(f, mode=NODE_SPACE, labels=labels)


def gen_welzl(n, eps=1e-6):
    """Doubling-scale chain where one node nearly touches every scale.

    Nodes: an anchor (index 0) and a chain v_0..v_n (indices 1..n+1).
    Chain distances d(v_j, v_i) = 2**i for j < i; the anchor sits at
    2**i - eps from each v_i. Symmetric. Every chain node is then
    independent with respect to the anchor, so center independence
    reaches n + 1 while ball packings stay modest. The largest decay
    2**n must be a finite float, so n is at most 1023 (and n + 2 stays
    within MAX_NODES).
    """
    n, eps = _whole("n", n), _real("eps", eps)
    if n < 1:
        raise ValueError("need a chain of at least two nodes")
    if n > 1023:
        raise ValueError("a welzl chain has n at most 1023 (2**n must be finite), got %d" % n)
    if not (0 < eps < 1):
        raise ValueError("eps must be in (0, 1)")
    scale = 2.0 ** np.arange(n + 1)
    f = np.zeros((n + 2, n + 2))
    f[1:, 1:] = np.maximum.outer(scale, scale)
    np.fill_diagonal(f, 0.0)
    f[0, 1:] = f[1:, 0] = scale - eps
    labels = ["anchor"] + ["v%d" % i for i in range(n + 1)]
    return DecaySpace(f, mode=NODE_SPACE, labels=labels)


def gen_equidecay_graph(n_vertices, edges, far_decay=None):
    """Unit links whose mutual decays encode a graph.

    Link i stands for vertex i. Own decays are 1; the cross decay is
    1/2 between adjacent vertices and far_decay (default: the vertex
    count) between non-adjacent ones, in both directions. With beta=1,
    no noise and uniform power, a link set is feasible exactly when it
    is independent in the graph, and adjacent pairs are infeasible
    under every power assignment. n is capped at MAX_NODES.
    """
    n = _whole("n_vertices", n_vertices)
    if n < 1:
        raise ValueError("need at least one vertex")
    _check_nodes("an equidecay graph", n)
    far = _real("far_decay", far_decay) if far_decay is not None else float(n)
    if not (far > 1):
        raise ValueError("far decay must exceed 1")
    e = _edge_array(n, edges)
    f = np.full((n, n), far)
    np.fill_diagonal(f, 1.0)
    f[e[:, 0], e[:, 1]] = f[e[:, 1], e[:, 0]] = 0.5
    space = DecaySpace(f, mode=LINK_GAIN)
    return LinkSystem(
        space,
        params=SinrParams(beta=1.0, noise=0.0),
        power=PowerAssignment.uniform(1.0),
    )


def gen_twoline(n_vertices, edges, alpha, delta=0.25):
    """Two parallel rows of nodes whose crossings encode a graph.

    Senders sit at indices 0..n-1, receivers at n..2n-1, link i being
    (i, n+i). With a = alpha - 1: within-row decay |i-j|**a, own-link
    cross decay n**a, adjacent-pair cross decay n**a - delta, and
    non-adjacent cross decay n**(a+1), all symmetric. Under uniform
    power (beta=1, no noise) a link set is feasible exactly when it is
    independent, and adjacent pairs stay infeasible under every power
    assignment since n**(2a) > (n**a - delta)**2. 2n is capped at
    MAX_NODES.
    """
    n = _whole("n_vertices", n_vertices)
    if n < 2:
        raise ValueError("need at least two vertices")
    _check_nodes("a twoline construction", 2 * n)
    alpha, delta = _real("alpha", alpha), _real("delta", delta)
    if not (alpha > 1):
        raise ValueError("alpha must exceed 1")
    if not (0 < delta < 0.5):
        raise ValueError("delta must lie in (0, 1/2)")
    e = _edge_array(n, edges)
    a = alpha - 1.0
    na = float(n) ** a
    # Python's pow, once per distance, keeps every entry of the loop build
    gap = np.arange(n)
    within = np.array([float(k) ** a for k in range(n)])[abs(gap[:, None] - gap)]
    cross = np.full((n, n), na * n)
    cross[e[:, 0], e[:, 1]] = cross[e[:, 1], e[:, 0]] = na - delta
    np.fill_diagonal(cross, na)
    f = np.zeros((2 * n, 2 * n))
    f[:n, :n] = f[n:, n:] = within
    f[:n, n:] = cross
    f[n:, :n] = cross.T
    space = DecaySpace(f, mode=NODE_SPACE)
    links = [(i, n + i) for i in range(n)]
    return LinkSystem(
        space,
        links=links,
        params=SinrParams(beta=1.0, noise=0.0),
        power=PowerAssignment.uniform(1.0),
    )


def random_graph(n, p, seed):
    """Erdos-Renyi style edge list, reproducible by seed."""
    n, p, seed = _whole("n", n), _real("p", p), _whole("seed", seed)
    if n < 1:
        raise ValueError("need at least one vertex")
    if not (0 <= p <= 1):
        raise ValueError("p must lie in [0, 1]")
    rng = np.random.default_rng(seed)
    edges = []
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.append((i, j))
    return n, edges


def random_link_system(n_links, seed, beta=1.0, noise=0.0, alpha=2.5, box=4.0):
    """Random planar sender-receiver pairs under geometric path loss.

    Senders land uniformly in a box of the given side; each receiver
    sits at its sender plus a short random offset. Powers are uniform.
    The 2 * n_links nodes are capped at MAX_NODES.
    The box side tunes interference density; it must be positive and
    at most MAX_BOX. Coinciding points are resampled, at most
    MAX_RESAMPLES times. A box so small that distinct nodes get zero
    decay breaks the indiscernibles axiom, so DecaySpace rejects it
    with a ValueError.
    """
    n_links, box, seed = _whole("n_links", n_links), _real("box", box), _whole("seed", seed)
    if n_links < 1:
        raise ValueError("need at least one link")
    _check_nodes("a link system", 2 * n_links)
    if not (0 < box < np.inf):
        raise ValueError("box must be positive and finite")
    if box > MAX_BOX:
        raise ValueError("box %g exceeds MAX_BOX = %g: receiver offsets of 0.1-0.8 "
                         "would vanish against the coordinates" % (box, MAX_BOX))
    rng = np.random.default_rng(seed)
    for _ in range(MAX_RESAMPLES):
        senders = rng.uniform(0.0, box, size=(n_links, 2))
        offsets = rng.uniform(-1.0, 1.0, size=(n_links, 2))
        norms = np.sqrt((offsets ** 2).sum(axis=1))
        lengths = rng.uniform(0.1, 0.8, size=n_links)
        receivers = senders + offsets * (lengths / norms)[:, None]
        pts = np.vstack([senders, receivers])
        if len({(p[0], p[1]) for p in pts}) == 2 * n_links and np.all(norms > 0):
            break
        seed += 7919
        rng = np.random.default_rng(seed)
    else:
        raise ValueError("no %d distinct links after %d draws" % (n_links, MAX_RESAMPLES))
    space = gen_euclidean(pts, alpha)
    links = [(i, n_links + i) for i in range(n_links)]
    return LinkSystem(
        space,
        links=links,
        params=SinrParams(beta=beta, noise=noise),
        power=PowerAssignment.uniform(1.0),
    )
