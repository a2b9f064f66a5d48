from fractions import Fraction
from random import Random

import pytest

from mpcgraph.instances import (
    Cover,
    MalformedInstance,
    Matching,
    digest,
    generate_graph,
    generate_set_cover,
    graph_from_text,
    graph_to_text,
    make_graph,
    make_matching,
    make_set_cover,
    set_cover_from_text,
    set_cover_to_text,
    validate,
    vertex_cover_encoding,
)
from mpcgraph.oracles import greedy_vertex_colouring_seq


def test_graph_invariants():
    g = make_graph(3, [(0, 1, 2), (2, 1, Fraction(1, 2))])
    assert g.m == 2
    assert g.edges[1] == (1, 2, Fraction(1, 2))  # endpoints normalized
    assert g.adjacency == ((0,), (0, 1), (1,))
    assert g.max_degree == 2
    with pytest.raises(MalformedInstance):
        make_graph(2, [(0, 0, 1)])
    with pytest.raises(MalformedInstance):
        make_graph(2, [(0, 1, 1), (1, 0, 2)])
    with pytest.raises(MalformedInstance):
        make_graph(2, [(0, 2, 1)])
    with pytest.raises(MalformedInstance):
        make_graph(2, [(0, 1, -1)])


def test_set_cover_invariants():
    inst = make_set_cover(2, 3, [[0, 1], [1, 2]], [1, 2])
    assert inst.dual == ((0,), (0, 1), (1,))
    assert inst.frequency == 2
    assert inst.max_set_size == 2
    with pytest.raises(MalformedInstance):
        make_set_cover(1, 2, [[0, 0]], [1])
    with pytest.raises(MalformedInstance):
        make_set_cover(1, 2, [[2]], [1])
    with pytest.raises(MalformedInstance):
        make_set_cover(1, 2, [[0]], [0])


def test_dual_primal_inversion():
    rng = Random(4)
    for _ in range(25):
        n, m = rng.randint(1, 8), rng.randint(0, 9)
        inst = generate_set_cover(n, m, rng.random(), (1, 5), seed=rng.randint(0, 999))
        # rebuild T from S
        dual = [[] for _ in range(inst.m)]
        for i, s in enumerate(inst.sets):
            for j in s:
                dual[j].append(i)
        assert tuple(tuple(t) for t in dual) == inst.dual
        # rebuild S from T
        sets = [[] for _ in range(inst.n)]
        for j, t in enumerate(inst.dual):
            for i in t:
                sets[i].append(j)
        assert tuple(tuple(s) for s in sets) == inst.sets


def test_generate_graph_examples():
    g = generate_graph(4, 0, (1, 1), seed=5)
    assert g.m == 4  # n^(1+0) = n
    assert all(w == 1 for _, _, w in g.edges)
    g2 = generate_graph(2, 0, (3, 7), seed=1)
    assert g2.m == 1 and g2.edges[0][:2] == (0, 1)
    g3 = generate_graph(100, "3/10", (1, 10), seed=9)
    assert g3.m == 398  # floor(100^1.3)
    # no self loops / duplicates enforced by construction
    pairs = {(u, v) for u, v, _ in g3.edges}
    assert len(pairs) == g3.m
    assert all(u < v for u, v, _ in g3.edges)
    full = generate_graph(4, 2, (1, 1), seed=0)  # quota clipped at K_4
    assert full.m == 6


def test_generate_graph_deterministic():
    a = generate_graph(30, "1/2", (1, 9), seed=77)
    b = generate_graph(30, "1/2", (1, 9), seed=77)
    assert graph_to_text(a) == graph_to_text(b)


def test_generate_set_cover_examples():
    inst = generate_set_cover(1, 3, 1.0, (5, 5), seed=3)
    assert inst.sets == ((0, 1, 2),)
    assert inst.weights == (Fraction(5),)
    inst2 = generate_set_cover(3, 3, 0.0, (1, 1), seed=8)
    # patch rule: each element lands in exactly one set
    assert sorted(j for s in inst2.sets for j in s) == [0, 1, 2]
    assert inst2.frequency == 1
    inst3 = generate_set_cover(10, 12, 0.3, (1, 10), seed=7)
    assert inst3.frequency >= 1
    inst3.check_coverable()
    # golden digest, frozen from the first generation of this instance
    assert digest(set_cover_to_text(inst3)) == GOLDEN_SC_DIGEST


# Frozen from the first generation of (n=10, m=12, density=0.3, seed=7).
GOLDEN_SC_DIGEST = "680b0b116bb868fb"


def test_validate_examples():
    k2 = make_graph(2, [(0, 1, 4)])
    rep = validate(make_matching(k2, [0]), k2)
    assert rep.feasible and rep.objective == 4
    inst = make_set_cover(2, 3, [[0], [1, 2]], [1, 1])
    rep = validate(Cover(set_ids=()), inst)
    assert not rep.feasible and "uncovered=3" in rep.detail
    tri = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    col = greedy_vertex_colouring_seq(tri)
    bad = col.__class__(kind="vertex", groups=col.groups, colours=(1, 2, 1))
    rep = validate(bad, tri)
    assert not rep.feasible and rep.witness  # witness edge returned
    malformed = Matching(edge_ids=(9,), loads=(0, 0, 0))
    rep = validate(malformed, tri)
    assert not rep.feasible and "malformed" in rep.detail


def test_graph_file_round_trip(tmp_path):
    g = generate_graph(12, "1/2", (1, 6), seed=2)
    text = graph_to_text(g)
    again = graph_from_text(text)
    assert graph_to_text(again) == text  # byte-exact
    parsed = graph_from_text("# comment\n2 1\n0 1 3/2\n")
    assert parsed.weight(0) == Fraction(3, 2)
    assert graph_to_text(parsed) == "2 1\n0 1 3/2\n"


def test_set_cover_file_round_trip():
    inst = generate_set_cover(6, 9, 0.4, (1, 5), seed=11)
    text = set_cover_to_text(inst)
    again = set_cover_from_text(text)
    assert set_cover_to_text(again) == text
    parsed = set_cover_from_text("1 2\n5/3 2 0 1\n")
    assert parsed.weights == (Fraction(5, 3),)


def test_bad_files_rejected():
    with pytest.raises(MalformedInstance):
        graph_from_text("2 2\n0 1 1\n")
    with pytest.raises(MalformedInstance):
        set_cover_from_text("1 2\n1 3 0 1\n")
    # Numbers that do not parse are malformed input too, not a bare
    # ValueError or ZeroDivisionError.
    for text in ("a b\n", "2 1\n0 1 1/0\n", "2 1\n0 x 1\n"):
        with pytest.raises(MalformedInstance):
            graph_from_text(text)
    for text in ("a b\n", "1 2\n1/0 2 0 1\n", "1 2\n1 2 0 y\n"):
        with pytest.raises(MalformedInstance):
            set_cover_from_text(text)


def test_vertex_cover_encoding():
    star = make_graph(3, [(0, 1, 1), (0, 2, 1)])
    enc = vertex_cover_encoding(star, [5, 1, 1])
    assert enc.n == 3 and enc.m == 2
    assert enc.sets[0] == (0, 1)
    assert enc.frequency == 2
    assert enc.weights[0] == 5


def test_adjacency_cross_check():
    rng = Random(21)
    for _ in range(15):
        g = generate_graph(rng.randint(2, 25), "1/2", (1, 5), seed=rng.randint(0, 999))
        rebuilt = [[] for _ in range(g.n)]
        for eid, (u, v, _) in enumerate(g.edges):
            rebuilt[u].append(eid)
            rebuilt[v].append(eid)
        assert tuple(tuple(a) for a in rebuilt) == g.adjacency
