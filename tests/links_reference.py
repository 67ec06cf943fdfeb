"""Per-mode scalar link geometry, read straight off the link list: the
formulas the endpoint map in decayspace.links replaced, kept verbatim as
the exact reference for its matrix forms and scalar helpers."""

import decayspace


def link_distance(sys_, quasi, v, w):
    d = quasi.d
    if v == w:
        return 0.0
    if sys_.space.mode == "link-gain":
        return float(min(d[v, w], d[w, v]))
    (sv, rv), (sw, rw) = sys_.links[v], sys_.links[w]
    return float(min(d[sv, rw], d[sw, rv], d[sv, sw], d[rv, rw]))


def link_length(sys_, quasi, v):
    if sys_.space.mode == "link-gain":
        return float(quasi.d[v, v])
    s, r = sys_.links[v]
    return float(quasi.d[s, r])


def assert_link_geometry(sys_, quasi):
    # every entry of both matrix forms and both scalar helpers
    m = sys_.n_links
    M, lengths = decayspace.link_distance_matrix(sys_, quasi), sys_.link_lengths(quasi)
    assert M.shape == (m, m) and lengths.shape == (m,)
    for v in range(m):
        assert lengths[v] == sys_.link_length(quasi, v) == link_length(sys_, quasi, v)
        for w in range(m):
            assert M[v, w] == decayspace.link_distance(sys_, quasi, v, w) == link_distance(sys_, quasi, v, w)
