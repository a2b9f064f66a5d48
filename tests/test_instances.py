import gc
import math
import tracemalloc
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mpcgraph import instances
from mpcgraph.instances import (
    Cover,
    Graph,
    MalformedInstance,
    SetCoverInstance,
    Matching,
    digest,
    generate_graph,
    generate_set_cover,
    graph_from_text,
    graph_to_text,
    make_graph,
    make_matching,
    make_set_cover,
    malformed_numbers,
    read_graph,
    set_cover_from_text,
    set_cover_to_text,
    validate,
    vertex_cover_encoding,
    write_graph,
)
from references import greedy_vertex_colouring_seq


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


# Frozen from generate_graph's Random.sample/randint draws.  The first
# graph's sample takes Random.sample's set branch (n > setsize), the
# second its pool branch; the third is test_generate_graph_examples' g3.
@pytest.mark.parametrize(
    "args, pinned",
    [
        ((1536, "2/5", (1, 10), 11), "701fef3431b305ea"),
        ((384, "4/5", (1, 10), 12), "e20b721db4cdef3b"),
        ((100, "3/10", (1, 10), 9), "d16faabf1d88c1ce"),
    ],
)
def test_generate_graph_pins(args, pinned):
    assert digest(graph_to_text(generate_graph(*args))) == pinned


def test_generate_set_cover_pin():
    # The benchmark's first sc-lnD instance at seed 1.
    assert digest(set_cover_to_text(generate_set_cover(500, 384, 0.032, (1, 4), 110))) == "ecd624153c2cbea7"


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("fails", [False, True])
@pytest.mark.parametrize(
    "generate, build, args",
    [
        (generate_graph, "make_graph", (1536, "2/5", (1, 10), 11)),
        (generate_graph, "make_graph", (384, "4/5", (1, 10), 12)),
        (generate_set_cover, "make_set_cover", (500, 384, 0.032, (1, 4), 110)),
    ],
)
def test_generators_pause_the_collector(generate, build, args, fails, collecting, monkeypatch):
    """The collector is off while an instance is built and, afterwards, as
    it was at entry, also when the build raises.  Generating leaves no
    cyclic garbage, which is what makes the pause safe."""
    states = []
    real = getattr(instances, build)

    def spy(*a):
        states.append(gc.isenabled())
        if fails:
            raise MalformedInstance("forced")
        return real(*a)

    monkeypatch.setattr(instances, build, spy)
    was = gc.isenabled()
    (gc.enable if collecting else gc.disable)()
    try:
        gc.collect()
        if fails:
            with pytest.raises(MalformedInstance):
                generate(*args)
        else:
            built = generate(*args)
            del built
            assert gc.collect() == 0
        assert gc.isenabled() == collecting
    finally:
        (gc.enable if was else gc.disable)()
    assert states == [False]


def test_closed_form_pair_unranking():
    """generate_graph ranks the pair u < v as v*(v-1)/2 + u and unranks it
    with v = (1 + isqrt(8*idx + 1)) >> 1, which is exact for every pair."""
    idx = 0
    for v in range(1, 2000):
        for u in range(v):
            assert (1 + math.isqrt(8 * idx + 1)) >> 1 == v and idx - v * (v - 1) // 2 == u
            idx += 1


def test_validate_examples():
    k2 = make_graph(2, [(0, 1, 4)])
    rep = validate(make_matching(k2, [0]), k2)
    assert rep.feasible and rep.objective == 4
    inst = make_set_cover(2, 3, [[0], [1, 2]], [1, 1])
    rep = validate(Cover(set_ids=()), inst)
    assert not rep.feasible and "uncovered=3" in rep.detail
    rep = validate(Cover(set_ids=(0, 0, 1)), inst)
    assert not rep.feasible and "malformed: duplicate set id 0" in rep.detail
    tri = make_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    col = greedy_vertex_colouring_seq(tri)
    bad = col.__class__(kind="vertex", groups=col.groups, colours=(1, 2, 1))
    rep = validate(bad, tri)
    assert not rep.feasible and rep.witness  # witness edge returned
    malformed = Matching(edge_ids=(9,))
    rep = validate(malformed, tri)
    assert not rep.feasible and "malformed" in rep.detail
    twice = Matching(edge_ids=(0, 0))
    rep = validate(twice, tri)
    assert not rep.feasible and "duplicate edge id 0" in rep.detail


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


# ---------------------------------------------------------------------------
# The builders against a naive reference: one Fraction(...) per item,
# tuple-keyed dedupe, adjacency and dual views in separate passes, the same
# checks in the same order.


def naive_graph(n, triples):
    if n < 0:
        raise MalformedInstance("vertex count must be non-negative")
    edges, seen = [], set()
    for item in triples:
        u, v, w = item
        if not (0 <= u < n and 0 <= v < n):
            raise MalformedInstance(f"endpoint out of range in edge {item}")
        if u == v:
            raise MalformedInstance(f"self-loop at vertex {u}")
        u, v = min(u, v), max(u, v)
        if (u, v) in seen:
            raise MalformedInstance(f"duplicate edge ({u}, {v})")
        seen.add((u, v))
        w = Fraction(w)
        if w < 0:
            raise MalformedInstance(f"negative weight {w}")
        edges.append((u, v, w))
    adjacency = tuple(tuple(eid for eid, (a, b, _) in enumerate(edges) if x in (a, b)) for x in range(n))
    return Graph(n, tuple(edges), adjacency)


def naive_set_cover(n, m, sets, weights):
    if len(sets) != n or len(weights) != n:
        raise MalformedInstance("set/weight counts disagree with n")
    frozen = []
    for i, s in enumerate(sets):
        elems = sorted(s)
        if any(not (0 <= j < m) for j in elems):
            raise MalformedInstance(f"set {i} has an element outside [0, {m})")
        if len(set(elems)) != len(elems):
            raise MalformedInstance(f"set {i} has duplicate elements")
        frozen.append(tuple(elems))
    fractions = []
    for i, w in enumerate(weights):
        w = Fraction(w)
        if w <= 0:
            raise MalformedInstance(f"set {i} has non-positive weight {w}")
        fractions.append(w)
    dual = tuple(tuple(i for i, s in enumerate(frozen) if j in s) for j in range(m))
    return SetCoverInstance(n, m, tuple(frozen), tuple(fractions), dual)


def naive_weight(tok):
    if "/" in tok:
        num, den = tok.split("/", 1)
        return Fraction(int(num), int(den))
    return Fraction(int(tok))


def naive_rows(text, what):
    rows = [line.split("#", 1)[0].split() for line in text.splitlines()]
    rows = [r for r in rows if r]
    if not rows:
        raise MalformedInstance(f"empty {what} file")
    if len(rows[0]) != 2:
        raise MalformedInstance("header must be 'n m'")
    return rows


def naive_graph_from_text(text):
    rows = naive_rows(text, "graph")
    with malformed_numbers("graph file"):
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != m:
            raise MalformedInstance(f"expected {m} edge lines, found {len(rows) - 1}")
        triples = []
        for parts in rows[1:]:
            if len(parts) != 3:
                raise MalformedInstance(f"bad edge line: {' '.join(parts)!r}")
            w = naive_weight(parts[2])  # a row's weight is read before its ids
            triples.append((int(parts[0]), int(parts[1]), w))
    return naive_graph(n, triples)


def naive_set_cover_from_text(text):
    rows = naive_rows(text, "set-cover")
    with malformed_numbers("set-cover file"):
        n, m = int(rows[0][0]), int(rows[0][1])
        if len(rows) - 1 != n:
            raise MalformedInstance(f"expected {n} set lines, found {len(rows) - 1}")
        sets, weights = [], []
        for parts in rows[1:]:
            if len(parts) < 2:
                raise MalformedInstance(f"bad set line: {' '.join(parts)!r}")
            w, k, elems = naive_weight(parts[0]), int(parts[1]), [int(p) for p in parts[2:]]
            if len(elems) != k:
                raise MalformedInstance(f"set line announces {k} elements, has {len(elems)}")
            sets.append(elems)
            weights.append(w)
    return naive_set_cover(n, m, sets, weights)


def outcome(build, *args):
    """What ``build(*args)`` gives: the value or the exception's type and text."""
    try:
        return build(*args)
    except (MalformedInstance, ValueError, ZeroDivisionError) as exc:
        return type(exc), str(exc)


# Instances are drawn valid, with non-canonical tokens (2/4, +3, -0),
# comments, blank lines and padding; about half of them then get one or
# two defects: a bad weight (0 for set cover, -1, 3/-6, 1/0, abc, 1.5), a
# self-loop, a duplicate, an endpoint or element out of range, an
# unparseable id, a wrong token or line count.
VALID_WEIGHTS = ["1", "2", "7", "5/3", "2/4", "+3"]
BAD_WEIGHTS = ["-1", "3/-6", "1/0", "abc", "1.5"]
weight_values = st.one_of(
    st.integers(-1, 9),
    st.sampled_from(VALID_WEIGHTS + ["0", "-0"] + BAD_WEIGHTS),
    st.fractions(min_value=-1, max_value=9, max_denominator=6),
)
GRAPH_DEFECTS = ["weight", "loop", "duplicate", "range", "id", "tokens", "count"]
SET_DEFECTS = ["weight", "zero", "duplicate", "range", "id", "tokens", "count"]


def defects(draw, kinds):
    """No defect about half the time, else one, else now and then two, so
    that the reference fixes which of two faults is reported first."""
    first = draw(st.sampled_from([None] * len(kinds) + kinds))
    if first is None:
        return []
    if draw(st.sampled_from([False, False, True])):
        return [first, draw(st.sampled_from(kinds))]
    return [first]


def text_file(draw, header, lines):
    """Join the lines with the odd comment, blank line and padding."""
    out = [header]
    for line in lines:
        out.append(draw(st.sampled_from(["", "# comment", "   ", "", ""])))
        out.append(line + draw(st.sampled_from(["", "", "  # note", " "])))
    return "\n".join(out) + "\n"


@st.composite
def graph_texts(draw):
    n = draw(st.integers(2, 7))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = draw(st.lists(pair, min_size=1, max_size=8, unique_by=frozenset))
    lines = [[str(u), str(v), draw(st.sampled_from(VALID_WEIGHTS + ["0", "-0"]))] for u, v in pairs]
    kinds = defects(draw, GRAPH_DEFECTS)
    for kind in kinds:
        at = draw(st.integers(0, len(lines) - 1))
        if kind == "weight":
            lines[at][2:3] = [draw(st.sampled_from(BAD_WEIGHTS))]
        elif kind == "loop":
            lines[at][1] = lines[at][0]
        elif kind == "duplicate":
            lines.append(lines[at][1::-1] + ["1"])
        elif kind == "range":
            lines[at][1] = draw(st.sampled_from(["-1", str(n)]))
        elif kind == "id":
            lines[at][0] = "x"
        elif kind == "tokens":
            lines[at] = lines[at][:2] if draw(st.booleans()) else lines[at] + ["1"]
    m = len(lines) + (draw(st.sampled_from([1, -1])) if "count" in kinds else 0)
    return text_file(draw, f"{n} {m}", [" ".join(parts) for parts in lines])


@st.composite
def set_cover_texts(draw):
    n, m = draw(st.integers(1, 5)), draw(st.integers(1, 6))
    sets = [draw(st.lists(st.integers(0, m - 1), max_size=4, unique=True)) for _ in range(n)]
    lines = [[draw(st.sampled_from(VALID_WEIGHTS)), str(len(s))] + [str(j) for j in s] for s in sets]
    for kind in defects(draw, SET_DEFECTS):
        at = draw(st.integers(0, n - 1))
        if kind == "weight":
            lines[at][0] = draw(st.sampled_from(BAD_WEIGHTS))
        elif kind == "zero":
            lines[at][0] = draw(st.sampled_from(["0", "-0", "0/3"]))
        elif kind == "duplicate" and sets[at]:
            lines[at] += [lines[at][2]]
            lines[at][1] = str(len(lines[at]) - 2)
        elif kind == "range":
            lines[at] += [draw(st.sampled_from(["-1", str(m)]))]
            lines[at][1] = str(len(lines[at]) - 2)
        elif kind == "id":
            lines[at] += ["y"]
            lines[at][1] = str(len(lines[at]) - 2)
        elif kind == "tokens":
            lines[at][1] = str(len(lines[at]) - 1)
        elif kind == "count":
            lines.append(["1", "0"])
    return text_file(draw, f"{n} {m}", [" ".join(parts) for parts in lines])


def assert_same_graph(new, naive):
    assert new == naive
    if isinstance(new, Graph):
        assert all(type(w) is Fraction for _, _, w in new.edges)


def assert_same_set_cover(new, naive):
    assert new == naive
    if isinstance(new, SetCoverInstance):
        assert all(type(w) is Fraction for w in new.weights)


@settings(deadline=None)
@given(graph_texts())
def test_graph_from_text_matches_naive_reference(text):
    assert_same_graph(outcome(graph_from_text, text), outcome(naive_graph_from_text, text))


@settings(deadline=None)
@given(set_cover_texts())
def test_set_cover_from_text_matches_naive_reference(text):
    assert_same_set_cover(outcome(set_cover_from_text, text), outcome(naive_set_cover_from_text, text))


@settings(deadline=None)
@given(st.data())
def test_make_graph_matches_naive_reference(data):
    n = data.draw(st.integers(2, 6))
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    pairs = data.draw(st.lists(pair, max_size=10, unique_by=frozenset))
    # Weights are ints, strings and Fractions; equal ones are often the
    # same object.  Now and then one edge is a self-loop, a duplicate or
    # out of range.
    triples = [(u, v, data.draw(weight_values)) for u, v in pairs]
    bad_edge = st.sampled_from([(0, 0, 1), (1, 0, 1), (0, n, 1), (-1, 1, 1)])
    if triples and data.draw(st.booleans()):
        triples.insert(data.draw(st.integers(0, len(triples))), data.draw(bad_edge))
    assert_same_graph(outcome(make_graph, n, triples), outcome(naive_graph, n, triples))


@pytest.mark.parametrize(
    "triples, fault",
    [
        ([(0, 1, 1), (0, 1, 2)], "duplicate edge (0, 1)"),
        ([(0, 3, 1), (1, 2, 1), (3, 0, 1)], "duplicate edge (0, 3)"),
        ([(2, 3, 1), (0, 1, 1), (0, 4, 1), (4, 0, 1)], "duplicate edge (0, 4)"),
        ([(2, 3, 1), (0, 1, 1), (3, 4, 1), (1, 2, 1)], None),
    ],
)
def test_make_graph_finds_duplicates_out_of_order(triples, fault):
    """A repeated edge is found whether it is the first pair out of order or
    comes after it, and pairs out of order alone are no fault."""
    built = outcome(make_graph, 5, triples)
    assert_same_graph(built, outcome(naive_graph, 5, triples))
    assert built == (MalformedInstance, fault) if fault else isinstance(built, Graph)


@settings(deadline=None)
@given(st.data())
def test_make_set_cover_matches_naive_reference(data):
    n, m = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 6))
    sets = data.draw(st.lists(st.sets(st.integers(0, m - 1), max_size=4), min_size=n, max_size=n))
    sets = [list(s) for s in sets]
    weights = data.draw(st.lists(weight_values, min_size=n, max_size=n))
    at = data.draw(st.integers(0, n - 1))
    kind = data.draw(st.sampled_from([None, None, None, "duplicate", "range", "count"]))
    if kind == "duplicate" and sets[at]:
        sets[at].append(sets[at][0])
    elif kind == "range":
        sets[at].append(data.draw(st.sampled_from([-1, m])))
    elif kind == "count":
        weights.append(1)
    assert_same_set_cover(outcome(make_set_cover, n, m, sets, weights), outcome(naive_set_cover, n, m, sets, weights))


def test_equal_weights_share_one_fraction():
    text = "4 3\n0 1 2\n1 2 2\n2 3 4/2\n"
    g = graph_from_text(text)
    assert g.weight(0) is g.weight(1)  # one Fraction per distinct token
    g = generate_graph(30, "1/2", (1, 3), seed=4)
    assert len({id(w) for _, _, w in g.edges}) <= 3  # one per distinct value
    inst = generate_set_cover(40, 10, 0.3, (1, 2), seed=4)
    assert len({id(w) for w in inst.weights}) <= 2


# ---------------------------------------------------------------------------
# Memory: one int object per id, and no transient copies while building.


def one_object_per_value(values) -> bool:
    values = list(values)
    return len({id(x) for x in values}) == len(set(values))


def graph_ids_shared(g) -> bool:
    return one_object_per_value(x for u, v, _ in g.edges for x in (u, v)) and one_object_per_value(
        e for a in g.adjacency for e in a
    )


def set_cover_ids_shared(inst) -> bool:
    return one_object_per_value(j for s in inst.sets for j in s) and one_object_per_value(
        i for t in inst.dual for i in t
    )


def test_built_instances_hold_one_object_per_id():
    # Ids above 256 are not the interpreter's cached small ints.
    g = generate_graph(600, "1/2", (1, 5), seed=3)
    assert graph_ids_shared(g)
    assert graph_ids_shared(graph_from_text(graph_to_text(g)))
    assert set_cover_ids_shared(vertex_cover_encoding(g))
    inst = generate_set_cover(400, 900, 0.02, (1, 5), seed=3)
    assert set_cover_ids_shared(inst)
    assert set_cover_ids_shared(set_cover_from_text(set_cover_to_text(inst)))


def traced_peak_mib(build, *args) -> float:
    """Peak traced memory while ``build(*args)`` runs, result included,
    above what was traced before it."""
    tracing = tracemalloc.is_tracing()
    tracemalloc.start()
    tracemalloc.reset_peak()
    before = tracemalloc.get_traced_memory()[0]
    try:
        built = build(*args)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    del built
    return peak / 2**20


def test_generate_set_cover_peak_memory():
    # The benchmark's sc-f instance, about 5.5 MiB itself.  The bound lies
    # between this build's 8.4 MiB and the 19.8 MiB of a build that keeps
    # a Python set per set, a set of all m ids and a second copy of each.
    assert traced_peak_mib(generate_set_cover, 2048, 43237, 3 / 2048, (1, 10), 12) < 12


def test_read_graph_peak_memory(tmp_path):
    # The benchmark's dense graph (m = 44k), about 5 MiB itself.  The bound
    # lies between this parse's 8.6 MiB and the 11.7 MiB of a parse whose
    # builder keeps a set of every edge's pair to find duplicates (16.5 MiB
    # if it also keeps a list of triples which the builder then copies).
    path = tmp_path / "dense.graph"
    write_graph(generate_graph(384, "4/5", (1, 10), seed=12), path)
    assert traced_peak_mib(read_graph, path) < 10
