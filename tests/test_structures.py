import random
import tracemalloc

import pytest

from rwmso import (Relabeling, Structure, build_structure, compose, family_tree,
                   format_graph, format_parse_tree, ordered_induced, parse_graph,
                   parse_tree_from_text, rename_combine)
from rwmso.errors import RwmsoError, WidthMismatchError
from rwmso.gf2 import rank
from rwmso.parsetree import FAMILIES, leaf_vertex
from rwmso.structures import _unchecked

from common import (dot, generated_subspace, induced, is_partial_isomorphism, mat_mul,
                    naive_rank, permuted, random_relabeling, random_structure, relabel,
                    subspaces_orthogonal)


def join(g1, g2):
    """Disjoint union plus the edges lab1(u).lab2(v) = 1, labels cleared."""
    t = g1.t
    return compose(g1, g2, Relabeling.identity(t), Relabeling.zero(t),
                   Relabeling.zero(t))


def test_structure_validation():
    with pytest.raises(RwmsoError):
        Structure(2, 1, (2, 0), (0, 0))  # asymmetric
    with pytest.raises(RwmsoError):
        Structure(2, 1, (0, 1), (0, 0))  # asymmetric, from the other row
    with pytest.raises(RwmsoError):
        Structure(2, 1, (4, 0), (0, 0))  # vertex 2 is missing
    with pytest.raises(RwmsoError):
        Structure(1, 1, (1,), (0,))  # loop
    with pytest.raises(RwmsoError):
        Structure(1, 1, (0,), (2,))  # label too wide


def test_relabel_identity_and_zero():
    g = build_structure(2, [(0, 1)], t=2, labels=[3, 1])
    assert relabel(g, Relabeling.identity(2)).labels == (3, 1)
    assert relabel(g, Relabeling.zero(2)).labels == (0, 0)


def test_relabel_sums_images_mod_2():
    # lab(v) = {1,2}; both labels map to {1}: images cancel
    g = build_structure(1, [], t=2, labels=[3])
    f = Relabeling((1, 1))
    assert relabel(g, f).labels == (0,)


def test_relabel_composition_is_matrix_product():
    rng = random.Random(5)
    for _ in range(50):
        t = rng.choice((1, 2, 3))
        g = random_structure(rng, 4, t)
        f1 = Relabeling(tuple(rng.randrange(1 << t) for _ in range(t)))
        f2 = Relabeling(tuple(rng.randrange(1 << t) for _ in range(t)))
        combined = Relabeling(mat_mul(f1.rows, f2.rows))
        assert relabel(relabel(g, f1), f2) == relabel(g, combined)


def test_join_odd_intersection():
    g1 = build_structure(1, [], t=3, labels=[0b011])  # {1,2}
    g2 = build_structure(1, [], t=3, labels=[0b110])  # {2,3}
    assert join(g1, g2).has_edge(0, 1)  # |{2}| odd
    g3 = build_structure(1, [], t=3, labels=[0b011])  # {1,2}
    assert not join(g1, g3).has_edge(0, 1)  # even


def test_join_clears_labels():
    g1 = build_structure(2, [(0, 1)], t=1, labels=[1, 1])
    empty = build_structure(0, [], t=1)
    h = join(g1, empty)
    assert h.edges() == [(0, 1)] and h.labels == (0, 0)


def test_compose_identity_all_ones_is_complete_bipartite():
    g1 = build_structure(2, [], t=1, labels=[1, 1])
    g2 = build_structure(2, [], t=1, labels=[1, 1])
    ident = Relabeling.identity(1)
    h = compose(g1, g2, ident, ident, ident)
    assert sorted(h.edges()) == [(0, 2), (0, 3), (1, 2), (1, 3)]


def test_compose_zero_g_is_disjoint_union():
    g1 = build_structure(2, [(0, 1)], t=1, labels=[1, 0])
    g2 = build_structure(2, [(0, 1)], t=1, labels=[1, 1])
    h = compose(g1, g2, Relabeling.zero(1), Relabeling.identity(1), Relabeling.zero(1))
    assert sorted(h.edges()) == [(0, 1), (2, 3)]
    assert h.labels == (1, 0, 0, 0)


def test_compose_two_vertices_gives_k2():
    v = build_structure(1, [], t=1, labels=[1])
    ident = Relabeling.identity(1)
    h = compose(v, v, ident, ident, ident)
    assert h.edges() == [(0, 1)] and h.labels == (1, 1)


def test_compose_not_commutative():
    g1 = build_structure(1, [], t=2, labels=[1])  # {1}
    g2 = build_structure(1, [], t=2, labels=[2])  # {2}
    g = Relabeling((2, 2))  # both labels to {2}
    ident = Relabeling.identity(2)
    assert compose(g1, g2, g, ident, ident).num_edges() == 0
    assert compose(g2, g1, g, ident, ident).num_edges() == 1


def test_compose_width_mismatch():
    g1 = build_structure(1, [], t=1, labels=[1])
    g2 = build_structure(1, [], t=2, labels=[1])
    with pytest.raises(WidthMismatchError):
        compose(g1, g2, Relabeling.identity(1), Relabeling.identity(1),
                Relabeling.identity(1))


def _image(lab, rows):
    """lab x T for the matrix with these rows, summed row by row."""
    out = 0
    for i, row in enumerate(rows):
        if (lab >> i) & 1:
            out ^= row
    return out


def test_compose_matches_its_definition():
    # random t <= 3, n <= 4: the edges of both parts, a cross edge {u, v}
    # iff lab1(u) . (lab2(v) x T_g) is odd, then f1 and f2 on the labels;
    # the output is also rebuilt through the validating constructor
    rng = random.Random(41)
    for _ in range(300):
        t = rng.randint(1, 3)
        g1, g2 = (random_structure(rng, rng.randint(0, 4), t) for _ in range(2))
        op = [random_relabeling(rng, t) for _ in range(3)]
        g, f1, f2 = op
        out = compose(g1, g2, g, f1, f2)
        n1 = g1.n
        edges = g1.edges() + [(n1 + u, n1 + v) for u, v in g2.edges()]
        edges += [(u, n1 + v) for u in range(n1) for v in range(g2.n)
                  if dot(g1.labels[u], _image(g2.labels[v], g.rows))]
        labels = ([_image(lab, f1.rows) for lab in g1.labels]
                  + [_image(lab, f2.rows) for lab in g2.labels])
        assert out == build_structure(n1 + g2.n, edges, t, labels)
        assert Structure(out.n, out.t, out.adj, out.labels) == out
        # any one of the five widths off by one is refused
        args = [g1, g2, *op]
        i = rng.randrange(5)
        args[i] = (random_structure(rng, args[i].n, t + 1) if i < 2
                   else random_relabeling(rng, t + 1))
        with pytest.raises(WidthMismatchError):
            compose(*args)


def test_ordered_induced_matches_brute_force():
    # random t <= 3, n <= 4, vectors with repeated and out-of-range
    # entries: the first entry outside the universe is refused; otherwise
    # the classes, the induced structure and the traces follow first
    # occurrence in the vector
    rng = random.Random(43)
    for _ in range(300):
        n, t = rng.randint(0, 4), rng.randint(1, 3)
        a = random_structure(rng, n, t)
        c = [rng.randrange(n) if n and rng.random() < 0.9 else rng.choice((-1, n, n + 1))
             for _ in range(rng.randint(0, 5))]
        if c and rng.random() < 0.5:
            c.append(rng.choice(c))
        sets = [rng.randrange(1 << n) for _ in range(rng.randint(0, 2))]
        bad = [e for e in c if not 0 <= e < n]
        if bad:
            with pytest.raises(RwmsoError, match=rf"^element {bad[0]} outside universe$"):
                ordered_induced(a, c, sets)
            continue
        o = ordered_induced(a, c, sets)
        elems = list(dict.fromkeys(c))
        assert o.structure == induced(a, c)
        assert o.positions == tuple(elems.index(e) for e in c)
        assert o.set_traces == tuple(sum(1 << j for j, e in enumerate(elems) if (s >> e) & 1)
                                     for s in sets)


def test_induced():
    k3 = build_structure(3, [(0, 1), (1, 2), (0, 2)])
    assert ordered_induced(k3, []).structure.n == 0
    assert ordered_induced(k3, [0, 1, 2]).structure == k3
    assert ordered_induced(k3, [0, 1]).structure.edges() == [(0, 1)]
    with pytest.raises(RwmsoError):
        ordered_induced(k3, [3])


def test_ordered_induced_position_classes():
    # c = a5 a2 a3 a3 a5 on a 5-vertex graph: classes {1,5},{2},{3,4}
    g = build_structure(5, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 4)])
    o = ordered_induced(g, [4, 1, 2, 2, 4])
    assert o.structure.n == 3
    assert o.positions == (0, 1, 2, 2, 0)
    # relations must agree with the plain induced structure
    ind = induced(g, [4, 1, 2, 2, 4])
    assert o.structure.edges() == ind.edges()


def test_ordered_induced_repeats_collapse():
    g = build_structure(3, [(0, 1)])
    o = ordered_induced(g, [1, 1])
    assert o.structure.n == 1 and o.positions == (0, 0)


def test_ordered_induced_empty_vector_trace():
    g = build_structure(2, [])
    o = ordered_induced(g, [], [{0}])
    assert o.structure.n == 0 and o.set_traces == (0,)


def test_ordered_induced_traces():
    g = build_structure(4, [(0, 1)])
    o = ordered_induced(g, [2, 0], [{0, 3}, set()])
    assert o.set_traces == (0b10, 0)


def test_ordered_induced_isomorphic_via_h():
    rng = random.Random(23)
    for _ in range(40):
        g = random_structure(rng, 5, 2)
        c = [rng.randrange(5) for _ in range(rng.randint(0, 4))]
        sets = [frozenset(v for v in range(5) if rng.random() < 0.5)
                for _ in range(rng.randint(0, 2))]
        o = ordered_induced(g, c, sets)
        ind = induced(g, c)
        # h maps the i-th distinct element of c to class i
        elems = []
        for e in c:
            if e not in elems:
                elems.append(e)
        pi = {i: i for i in range(len(elems))}  # induced uses the same order
        a_traces = [frozenset(elems.index(e) for e in s if e in elems) for s in sets]
        assert is_partial_isomorphism(ind, o.structure, a_traces, o.set_traces, pi)


def test_ordered_induced_pattern_invariance():
    rng = random.Random(29)
    for _ in range(40):
        g = random_structure(rng, 5, 2)
        perm = list(range(5))
        rng.shuffle(perm)
        h = permuted(g, perm)
        c = [rng.randrange(5) for _ in range(rng.randint(0, 4))]
        sets = [frozenset(v for v in range(5) if rng.random() < 0.4)
                for _ in range(rng.randint(0, 2))]
        mapped_c = [perm[e] for e in c]
        mapped_sets = [frozenset(perm[e] for e in s) for s in sets]
        assert ordered_induced(g, c, sets) == ordered_induced(h, mapped_c, mapped_sets)


def test_partial_isomorphism_examples():
    k2 = build_structure(2, [(0, 1)])
    two = build_structure(2, [])
    assert is_partial_isomorphism(k2, k2, [], [], {0: 0, 1: 1})
    assert not is_partial_isomorphism(k2, two, [], [], {0: 0, 1: 1})
    assert is_partial_isomorphism(k2, two, [], [], {})
    # membership must be respected tuple-wise
    assert not is_partial_isomorphism(k2, k2, [{0}], [{1}], {0: 0, 1: 1})
    assert is_partial_isomorphism(k2, k2, [{0}], [{1}], {0: 1, 1: 0})


def test_generated_subspace():
    g = build_structure(3, [], t=2, labels=[1, 2, 1])
    assert generated_subspace(g, []) == ()
    assert generated_subspace(g, [0, 2]) == (1,)
    assert rank(generated_subspace(g, [0, 1])) == 2


def test_subspaces_orthogonal():
    assert subspaces_orthogonal((1,), ())
    assert not subspaces_orthogonal((1,), (1,))
    assert subspaces_orthogonal((1,), (2,))


def test_orthogonality_characterizes_missing_edges():
    # no edge between X and Y in a join iff the label spans are orthogonal
    rng = random.Random(31)
    for t in (1, 2):
        for _ in range(15):
            n1, n2 = rng.randint(1, 4), rng.randint(1, 4)
            g1 = random_structure(rng, n1, t)
            g2 = random_structure(rng, n2, t)
            h = join(g1, g2)
            for xm in range(1, 1 << n1):
                xs = [u for u in range(n1) if (xm >> u) & 1]
                bx = generated_subspace(g1, xs)
                for ym in range(1, 1 << n2):
                    ys = [v for v in range(n2) if (ym >> v) & 1]
                    by = generated_subspace(g2, ys)
                    no_edge = all(not h.has_edge(u, n1 + v) for u in xs for v in ys)
                    assert no_edge == subspaces_orthogonal(bx, by)


def test_row_echelon_is_canonical():
    # elementary row operations keep the span, so the basis must not move
    from rwmso.gf2 import row_echelon
    rng = random.Random(47)
    for _ in range(60):
        rows = [rng.randrange(32) for _ in range(4)]
        mixed = rows[:]
        for _ in range(8):
            i, j = rng.sample(range(4), 2)
            mixed[i] ^= mixed[j]
        rng.shuffle(mixed)
        assert row_echelon(rows) == row_echelon(mixed)


def test_cut_matrix_rank_matches_naive():
    rng = random.Random(37)
    for _ in range(60):
        rows_int = [rng.randrange(16) for _ in range(rng.randint(0, 5))]
        rows_list = [[(r >> j) & 1 for j in range(4)] for r in rows_int]
        assert rank(rows_int) == naive_rank(rows_list)


def test_graph_format_round_trip():
    rng = random.Random(41)
    for _ in range(20):
        g = random_structure(rng, rng.randint(0, 6), rng.choice((1, 2, 3)))
        assert parse_graph(format_graph(g)) == g


def test_graph_format_errors():
    with pytest.raises(RwmsoError):
        parse_graph("e 0 1\n")
    with pytest.raises(RwmsoError):
        parse_graph("p graph 2 1 1\n")  # missing edge
    with pytest.raises(RwmsoError):
        parse_graph("p graph 2 0 1\nv 0 11\n")  # label width


@pytest.mark.parametrize("text, line", [
    ("p graph 2 1 1\ne 0 x\n", 2),      # non-integer endpoint
    ("p graph 2 x 1\n", 1),             # non-integer header field
    ("p graph 2 1 1\ne 0\n", 2),        # missing endpoint
    ("p graph 2 0 1\nv x 1\n", 2),      # non-integer vertex id
])
def test_graph_format_malformed_numbers(text, line):
    with pytest.raises(RwmsoError, match=f"^line {line}: "):
        parse_graph(text)


@pytest.mark.parametrize("second", ["e 0 1", "e 1 0"])
def test_graph_format_rejects_a_repeated_edge(second):
    with pytest.raises(RwmsoError, match="^line 3: .*line 2"):
        parse_graph(f"p graph 2 2 1\ne 0 1\n{second}\n")


def test_graph_format_skips_blank_and_comment_lines():
    text = "c a path\n\np graph 2 1 1\n  \nc its edge\ne 0 1\n"
    assert parse_graph(text) == build_structure(2, [(0, 1)])


@pytest.mark.parametrize("text, message", [
    ("p graph 1 0 1\np graph 1 0 1\n", "line 2: duplicate header"),
    ("p graph 1 0\n", "line 1: expected 'p graph <n> <m> <t>'"),
    ("p digraph 1 0 1\n", "line 1: expected 'p graph <n> <m> <t>'"),
    ("v 0 1\np graph 1 0 1\n", "line 1: vertex line before header"),
    ("p graph 1 0 1\nv 0\n", "line 2: expected 'v <id> <bits>'"),
    ("p graph 1 0 1\nv 1 1\n", "line 2: vertex 1 out of range"),
    # a second label line is refused, as a second edge line is
    ("p graph 2 0 1\nv 0 1\nv 0 0\n", "line 3: vertex 0 repeats the label on line 2"),
    ("p graph 2 1 1\ne 0 2\n", "line 2: edge endpoint out of range"),
    # a negative size and a loop name their line, as every other error does
    ("p graph -1 0 1\n", "line 1: negative size (n=-1, t=1)"),
    ("p graph 2 0 -1\n", "line 1: negative size (n=2, t=-1)"),
    ("p graph 2 1 1\ne 1 1\n", "line 2: loop at vertex 1"),
    # the edge count names the header's line, after any comment lines
    ("p graph 2 -1 1\n", "line 1: negative edge count -1"),
    ("c one edge\np graph 2 1 1\n", "line 2: header declares 1 edges, found 0"),
    ("p graph 1 0 1\nx 0\n", "line 2: unknown line type 'x'"),
    ("c nothing else\n", "missing 'p graph' header"),
])
def test_graph_format_error_messages(text, message):
    with pytest.raises(RwmsoError) as err:
        parse_graph(text)
    assert err.type is RwmsoError and str(err.value) == message


@pytest.mark.parametrize("build, message", [
    (lambda: Structure(-1, 1, (), ()), "negative size"),
    (lambda: Structure(2, 1, (0,), (0, 0)), "row count does not match universe size"),
    (lambda: Relabeling((2,)), "relabeling row wider than t"),
    (lambda: build_structure(2, [(1, 1)]), "loop at vertex 1"),
    (lambda: ordered_induced(build_structure(2), (0,), [{0, 2}]),
     "set entry outside universe"),
    (lambda: leaf_vertex(0), "leaf vertices carry label 1; need t >= 1"),
])
def test_constructor_error_messages(build, message):
    with pytest.raises(RwmsoError) as err:
        build()
    assert err.type is RwmsoError and str(err.value) == message


def _fields(obj) -> tuple:
    return tuple(getattr(obj, name) for name in obj._fields)


def _traced_bytes(build, count: int) -> int:
    """The bytes that count instances from build() hold, as tracemalloc
    sees them."""
    build()  # warm up
    tracemalloc.start()
    try:
        made = [build() for _ in range(count)]
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del made
    return size


def test_unchecked_builds_what_the_validating_constructors_build():
    # the library builds derived Structures and ParseTrees with _unchecked,
    # skipping the validating __new__: each equals, hashes and reprs like
    # the validating constructor on the same fields (which accepts them),
    # and has the same layout, so 10,000 take the same bytes to within
    # one byte per instance
    rng = random.Random(33)
    made = []
    for _ in range(20):
        t = rng.randrange(1, 4)
        g1, g2 = (random_structure(rng, rng.randrange(1, 6), t) for _ in range(2))
        op = tuple(random_relabeling(rng, t) for _ in range(3))
        made.append(compose(g1, g2, *op))
        c1 = [rng.randrange(g1.n) for _ in range(rng.randrange(4))]
        c2 = [rng.randrange(g2.n) for _ in range(rng.randrange(4))]
        o1 = ordered_induced(g1, c1, [rng.randrange(1 << g1.n)])
        o2 = ordered_induced(g2, c2, [rng.randrange(1 << g2.n)])
        d = tuple(rng.sample([1] * len(c1) + [2] * len(c2), len(c1) + len(c2)))
        made += [o1.structure, rename_combine(o1, o2, d, op).structure]
    for family in FAMILIES:
        tree = family_tree(family, 7, 3)
        made += [tree, parse_tree_from_text(format_parse_tree(tree))]
    for obj in made:
        cls, values = type(obj), _fields(obj)
        checked = cls(*values)
        assert obj == checked and hash(obj) == hash(checked)
        assert repr(obj) == repr(checked)
    # a few hundred bytes of the interpreter's own leftovers (an iterator,
    # a frame) vary from run to run; a materialised __dict__ would add
    # 64 bytes per instance
    for obj in (made[0], made[-1]):
        cls, values = type(obj), _fields(obj)
        checked = _traced_bytes(lambda: cls(*values), 10_000)
        unchecked = _traced_bytes(lambda: _unchecked(cls, *values), 10_000)
        assert abs(checked - unchecked) < 10_000, (cls, checked, unchecked)
