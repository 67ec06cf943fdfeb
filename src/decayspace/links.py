"""Links, power assignments, affectance and SINR feasibility.

A link is a sender-receiver pair over a decay space. Interference
between links is summarized by affectance: the disturbance link w
inflicts on link v, normalized by v's signal headroom and capped at
one. With the noise multiplier c_v = beta / (1 - beta*N*f_vv/P_v),

    a_w(v) = min(1, c_v * (P_w / P_v) * (f_vv / f_wv)),    a_v(v) = 0,

where f_wv is the decay from w's sender to v's receiver. A link set S
is feasible when every member decodes against the interference of the
rest, i.e. the SINR threshold test

    P_v / f_vv >= beta * (N + sum over w in S, w != v, of P_w / f_wv)

holds for all v in S. That inequality is algebraically the statement
that v's UNCAPPED in-affectance sum stays at most 1, and K-feasibility
tightens the budget to 1/K. Feasibility tests therefore use uncapped
sums; reported affectances and aggregates keep the capped definition
above. A link whose received signal cannot clear the noise floor even
alone (P_v/f_vv <= beta*N) is called drowned; asking for affectance
onto a drowned link is an error, and any set containing one is
infeasible.

Every link quantity reads the decay or quasi-distance table through
one endpoint map: link i runs from node s_i to node r_i. Node-space
systems take the map from their link list; a link-gain table is the
cross-decay table itself, so there link i runs from node i to node i
and the map is the identity.

The per-link arrays live on the system: LinkSystem builds its powers,
own decays and noise margins once, its cross decays and affectance
tables on first use, and hands each out read-only. The functions here
read them and derive none again.

Separation is one relation, _separated: link v is eta-separated from
link w when link_distance(v, w) >= eta * (v's own length) in the
quasi-metric's table. Every separation test and partition reads it.
"""

import numpy as np
from dataclasses import dataclass

from .spaces import NODE_SPACE, LINK_GAIN, _indices, _node_index, _pairs, _quasi_table, _real


@dataclass(frozen=True)
class SinrParams:
    """SINR threshold beta >= 1 and ambient noise N >= 0, both finite; frozen."""

    beta: float = 1.0
    noise: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "beta", _real("beta", self.beta, "[1, inf)"))
        object.__setattr__(self, "noise", _real("noise", self.noise, "[0, inf)"))

    def __repr__(self):
        return "SinrParams(beta=%g, noise=%g)" % (self.beta, self.noise)


@dataclass(frozen=True, eq=False)
class PowerAssignment:
    """Transmit powers, either one shared level or one per link.

    Every level must be positive and finite, however the assignment is
    built. Frozen, with explicit levels held as a read-only array.
    """

    kind: str
    value: object

    def __post_init__(self):
        if self.kind == "uniform":
            value = _real("level", self.value, "(0, inf)")
        elif self.kind == "explicit":
            if np.ndim(self.value) != 1:
                raise ValueError("explicit powers must be a vector")
            value = _frozen(np.array([_real("level", v, "(0, inf)") for v in self.value]))
        else:
            raise ValueError("kind must be 'uniform' or 'explicit'")
        object.__setattr__(self, "value", value)

    @classmethod
    def uniform(cls, level=1.0):
        return cls("uniform", level)

    @classmethod
    def explicit(cls, powers):
        return cls("explicit", powers)

    def vector(self, n_links):
        if self.kind == "uniform":
            return np.full(n_links, self.value)
        if len(self.value) != n_links:
            raise ValueError("expected %d powers, got %d" % (n_links, len(self.value)))
        return self.value


class LinkSystem:
    """Links over a decay space, with SINR parameters and powers.

    Link i runs from sender node s_i to receiver node r_i, and the
    cross decay from w to v is f(s_w, r_v). In node-space mode, links
    are the (sender, receiver) index pairs into the space, read by
    spaces._pairs. In link-gain mode the space's matrix already is the
    cross-decay table, own-link decays on the diagonal; links stays
    None and the endpoint map is the identity, s_i = r_i = i. Either
    way the axioms of the space keep every own decay positive.

    A system's arrays are built from its links, params and power, and
    params and power are frozen: for other values, build a new system.

    Scheduling code orders links by non-decreasing own decay, ties
    broken by index; order() returns that permutation.
    """

    def __init__(self, space, links=None, params=None, power=None):
        self.space = space
        self.params = params if params is not None else SinrParams()
        self.power = power if power is not None else PowerAssignment.uniform(1.0)
        if space.mode == LINK_GAIN:
            if links is not None:
                raise ValueError("link-gain systems take their links from the matrix")
            self.links = None
            self._s = self._r = np.arange(space.n)
        else:
            if links is None:
                raise ValueError("node-space systems need an explicit link list")
            self.links = _pairs("link", links, space.n)
            self._s, self._r = np.array(self.links, dtype=int).reshape(-1, 2).T
        self._P = _frozen(self.power.vector(self.n_links))
        self._own = _frozen(space.f[self._s, self._r])
        # nonpositive where a link cannot decode even without interference
        self._margin = _frozen(1.0 - self.params.beta * self.params.noise * self._own / self._P)
        self._cross = None
        self._aff = {}

    @property
    def n_links(self):
        return len(self._s)

    def powers(self):
        return self._P

    def own_decays(self):
        return self._own

    def cross_decays(self):
        """Matrix F with F[w][v] the decay from w's sender to v's receiver."""
        if self._cross is None:
            self._cross = _frozen(self.space.f[np.ix_(self._s, self._r)])
        return self._cross

    def _affectances(self, capped):
        # the table behind affectance_matrix, built on first use
        key = bool(capped)
        if key not in self._aff:
            with np.errstate(divide="ignore", over="ignore"):
                c = np.where(self._margin > 0, self.params.beta / self._margin, np.nan)
                raw = c * (self._P[:, None] / self._P) * (self._own / self.cross_decays())
            np.fill_diagonal(raw, 0.0)
            self._aff[key] = _frozen(np.minimum(raw, 1.0, out=raw) if key else raw)
        return self._aff[key]

    def order(self):
        """Link indices sorted by (own decay, index)."""
        return np.argsort(self._own, kind="stable")

    def link_length(self, quasi, v):
        """Own quasi-distance of link v under the given quasi-metric."""
        [v] = _link_set(self, [v])
        return float(self.link_lengths(quasi)[v])

    def link_lengths(self, quasi):
        return _quasi_table(self.space, quasi)[self._s, self._r]

    def __repr__(self):
        return "LinkSystem(n_links=%d, %r, power=%s)" % (self.n_links, self.params, self.power.kind)


def _frozen(a):
    a.flags.writeable = False
    return a


def drowned_links(sys):
    """Indices of links whose signal cannot clear the noise floor alone."""
    return tuple(int(v) for v in np.where(sys._margin <= 0)[0])


def affectance_matrix(sys, capped=True):
    """Full pairwise affectance table A[w][v] = a_w(v), zero diagonal.

    Columns of drowned links hold NaN. capped=False returns the raw
    ratios that feasibility tests sum. The table is built once per
    system and is read-only. A ratio past the float range, from a cross
    decay far below the own decay, reads inf: capped it is 1, and
    uncapped it fails every feasibility sum, as the true value does.
    So that overflow is computed without a warning.
    """
    return sys._affectances(capped)


def _link_set(sys, S):
    """S as a sorted list of distinct link indices, each in 0..n_links-1."""
    return _indices("link index", S, sys.n_links)


def _check_not_drowned(sys, v):
    if sys._margin[v] <= 0:
        raise ValueError("link %d is drowned by noise" % v)


def affectance(sys, w, v):
    """a_w(v): the capped disturbance of link w on link v."""
    [w], [v] = _link_set(sys, [w]), _link_set(sys, [v])
    if w == v:
        return 0.0
    _check_not_drowned(sys, v)
    return float(affectance_matrix(sys)[w, v])


def aggregate_affectance(sys, S, v, direction="in"):
    """Capped affectance between link v and the set S.

    direction "in" gives a_S(v), the total S inflicts on v; "out"
    gives a_v(S). Self terms vanish, so v may be a member of S.
    """
    S, [v] = _link_set(sys, S), _link_set(sys, [v])
    if direction not in ("in", "out"):
        raise ValueError("direction must be 'in' or 'out'")
    if direction == "in":
        _check_not_drowned(sys, v)
        return float(affectance_matrix(sys)[S, v].sum())
    for w in S:
        if w != v:
            _check_not_drowned(sys, w)
    return float(affectance_matrix(sys)[v, S].sum())


def is_feasible(sys, S, K=1.0):
    """SINR feasibility of the link set S, strengthened by K.

    K-feasible means every member's uncapped in-affectance sum is at
    most 1/K; at K = 1 this is exactly the SINR threshold test.
    Returns (ok, witness) where the witness is the member with the
    largest in-affectance sum, or the lowest-index drowned member when
    noise alone defeats a link. K above 1 tightens the test, K in
    (0, 1) relaxes it.
    """
    S = _link_set(sys, S)
    if not S:
        raise ValueError("feasibility of the empty set is undefined")
    K = _real("K", K, "(0, inf]")
    for v in S:
        if sys._margin[v] <= 0:
            return False, v
    raw = affectance_matrix(sys, capped=False)
    sums = raw[np.ix_(S, S)].sum(axis=0)
    witness = S[int(np.argmax(sums))]
    return bool(np.all(sums <= 1.0 / K)), witness


def sinr_values(sys, S):
    """Per-member SINR of the set S, in increasing index order.

    Evaluated directly from decays and powers, independent of the
    affectance rewriting: signal over noise plus the sum of received
    interfering powers. Returns (members, sinr_array). A received power
    past the float range reads inf and drives its target's SINR to 0.
    """
    S = _link_set(sys, S)
    if not S:
        raise ValueError("need at least one link")
    with np.errstate(divide="ignore", over="ignore"):
        received = sys.powers()[S][:, None] / sys.cross_decays()[np.ix_(S, S)]
    # the diagonal is each member's own signal P_v / f_vv
    signal = np.diag(received)
    interference = received.sum(axis=0) - signal
    with np.errstate(divide="ignore", invalid="ignore"):
        sinr = signal / (sys.params.noise + interference)
    # 0/0 only when a zero cross decay floods a link; call that 0
    sinr = np.where(np.isnan(sinr), 0.0, sinr)
    return S, sinr


def link_distance(sys, quasi, v, w):
    """Quasi-distance between links: the closest endpoint pair.

    The minimum over the four sender/receiver combinations. Under the
    identity endpoint map of a link-gain system that is
    min(d[v][w], d[w][v]). The distance of a link to itself is 0.
    """
    [v], [w] = _link_set(sys, [v]), _link_set(sys, [w])
    return float(_link_distance_block(sys, quasi, [v], [w])[0, 0])


def _link_distance_block(sys, quasi, rows, cols):
    # link distances between the links in rows and those in cols
    d = _quasi_table(sys.space, quasi)
    sr, rr, sc, rc = sys._s[rows], sys._r[rows], sys._s[cols], sys._r[cols]
    out = np.minimum.reduce([
        d[np.ix_(sr, rc)],
        d[np.ix_(sc, rr)].T,
        d[np.ix_(sr, sc)],
        d[np.ix_(rr, rc)],
    ])
    out[np.equal.outer(rows, cols)] = 0.0
    return out


def link_distance_matrix(sys, quasi):
    """All pairwise link distances at once, zero diagonal."""
    links = np.arange(sys.n_links)
    return _link_distance_block(sys, quasi, links, links)


def _separated(sys, quasi, rows, cols, eta):
    """sep[i, j]: link_distance(rows[i], cols[j]) >= eta * own length of rows[i]."""
    # a NaN level would fail every comparison and so pass every set
    eta = _real("eta", eta, "[0, inf]")
    lengths = sys.link_lengths(quasi)[rows]
    return _link_distance_block(sys, quasi, rows, cols) >= eta * lengths[:, None]


def check_separation(sys, quasi, v, L, eta):
    """True when link v is eta-separated from every link in L, by _separated.

    Empty L is vacuously separated; v itself should not appear in L
    since its self-distance is zero.
    """
    L, [v] = _link_set(sys, L), _link_set(sys, [v])
    return bool(_separated(sys, quasi, [v], L, eta).all())


def _separation_violation(sys, quasi, L, eta):
    # first (lexicographic) ordered pair of distinct links not separated
    L = _link_set(sys, L)
    bad = ~_separated(sys, quasi, L, L, eta)
    np.fill_diagonal(bad, False)
    hits = np.argwhere(bad)
    if not len(hits):
        return None
    return (L[hits[0][0]], L[hits[0][1]])


def check_separation_set(sys, quasi, L, eta):
    """True when every link in L is eta-separated from all the others."""
    return _separation_violation(sys, quasi, L, eta) is None


def is_monotone_power(sys):
    """Whether powers grow and received strengths shrink with length.

    The order is by (own decay, index). Monotone means a later link
    never has smaller power and never has larger received strength
    P/f_own than an earlier one. Both conditions are transitive, so
    checking consecutive pairs covers every ordered pair. Returns
    (ok, pair) with the first offending (shorter, longer) pair, else
    (True, None).
    """
    order = sys.order()
    P = sys.powers()
    own = sys.own_decays()
    for a, b in zip(order, order[1:]):
        a, b = int(a), int(b)
        if P[b] < P[a]:
            return False, (a, b)
        # compare P[b]/own[b] <= P[a]/own[a] without dividing
        if P[b] * own[a] > P[a] * own[b]:
            return False, (a, b)
    return True, None


def pairwise_power_infeasible(sys, v, w):
    """Certificate that no power assignment makes {v, w} feasible.

    Tests beta^2 * f_vv * f_ww > f_vw * f_wv strictly. Exact for zero
    ambient noise; with noise it stays a sufficient certificate.
    """
    v, w = _link_set(sys, [v, w])
    F = sys.cross_decays()
    beta = sys.params.beta
    return bool(beta * beta * F[v, v] * F[w, w] > F[v, w] * F[w, v])


def interference_at(sys, senders, target):
    """Total received power at a node from a set of sender nodes.

    Node-space systems under uniform power only; senders and target
    are node indices, not links, and no sender may repeat. The sum is
    P / f(y, target) over the senders y. Empty sender sets contribute 0.
    A received power past the float range, one term's or the sum's,
    reads inf, its float value, as in compute_phi.
    """
    if sys.space.mode != NODE_SPACE:
        raise ValueError("interference_at needs a node-space system")
    if sys.power.kind != "uniform":
        raise ValueError("interference_at is defined for uniform power")
    target = _node_index(target, sys.space.n)
    senders = _indices("sender", senders, sys.space.n)
    if target in senders:
        raise ValueError("target cannot be one of the senders")
    col = sys.space.f[senders, target]
    with np.errstate(divide="ignore", over="ignore"):
        return float((sys.power.value / col).sum())
