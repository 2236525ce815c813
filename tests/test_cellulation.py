"""Cellulation layer: constructors, invariants, trees, serialization."""

import pytest

from gaugekit import cellulation as C
from reference import walk_sign


def test_square_torus_counts():
    sq = C.square_torus(2, 2)
    assert (sq.n_vertices, sq.n_edges, sq.n_plaquettes) == (4, 8, 4)
    sq23 = C.square_torus(2, 3)
    assert (sq23.n_vertices, sq23.n_edges, sq23.n_plaquettes) == (6, 12, 6)
    for cell in (sq, sq23):
        assert cell.n_vertices - cell.n_edges + cell.n_plaquettes == 0


def test_square_torus_rejects_small_sides():
    with pytest.raises(ValueError):
        C.square_torus(1, 4)
    with pytest.raises(ValueError):
        C.square_torus(3, 1)


def test_square_plaquette_walks_close():
    for lx, ly in ((2, 2), (3, 2), (3, 3)):
        cell = C.square_torus(lx, ly)
        assert cell.validate() == []
        for walk in cell.plaquettes:
            assert sum(o for _, o in walk) == 0  # two along, two against


def test_hexagon_torus_structure():
    hx = C.hexagon_torus()
    assert (hx.n_vertices, hx.n_edges, hx.n_plaquettes) == (2, 3, 1)
    assert hx.n_vertices - hx.n_edges + hx.n_plaquettes == 0
    assert all(i != f for i, f in hx.edges)
    walk = hx.plaquettes[0]
    assert len(walk) == 6
    for e in range(3):
        signs = sorted(o for ee, o in walk if ee == e)
        assert signs == [-1, 1]


def test_genus_zero_fixtures():
    th = C.theta_sphere()
    assert (th.n_vertices, th.n_edges, th.n_plaquettes) == (2, 3, 3)
    assert th.n_vertices - th.n_edges + th.n_plaquettes == 2
    tt = C.tetrahedron_sphere()
    assert (tt.n_vertices, tt.n_edges, tt.n_plaquettes) == (4, 6, 4)
    assert tt.n_vertices - tt.n_edges + tt.n_plaquettes == 2


def test_every_edge_has_two_opposite_appearances():
    for cell in (C.square_torus(2, 2), C.hexagon_torus(), C.theta_sphere(), C.tetrahedron_sphere()):
        for e in range(cell.n_edges):
            p_minus, p_plus = cell.plaquette_pair(e)
            assert sorted((p_minus, p_plus)) == sorted(cell.dual_edges[e])
            if p_minus != p_plus:
                assert walk_sign(cell, p_plus, e) == 1
                assert walk_sign(cell, p_minus, e) == -1


def test_self_loop_rejected():
    with pytest.raises(C.CellulationError, match="self-loop"):
        C.Cellulation(n_vertices=2, edges=((0, 0),), closed=False)


def test_open_walk_rejected_with_location():
    walk = ((0, 1), (1, 1))  # second step starts where the first did not end
    with pytest.raises(C.CellulationError, match="plaquette 0"):
        C.Cellulation(
            n_vertices=2,
            edges=((0, 1), (0, 1)),
            plaquettes=(walk,),
            dual_edges=((0, 0), (0, 0)),
            genus=None,
        )


def test_out_of_range_step_rejected_naming_it():
    with pytest.raises(C.CellulationError, match=r"plaquette 0: step 0 \(5, 1\)"):
        C.Cellulation(n_vertices=2, edges=((0, 1),), plaquettes=(((5, 1),),), dual_edges=((0, 0),))


def test_euler_mismatch_rejected():
    with pytest.raises(C.CellulationError, match="Euler"):
        C.Cellulation(
            n_vertices=2,
            edges=((0, 1), (0, 1), (0, 1)),
            plaquettes=C.hexagon_torus().plaquettes,
            dual_edges=((0, 0), (0, 0), (0, 0)),
            genus=0,
        )


def test_from_json_round_trip_bit_identical():
    sq = C.square_torus(2, 2)
    doc = C.to_json(sq)
    assert C.to_json(C.from_json(doc)) == doc


def test_from_json_reports_all_violations():
    doc = {
        "vertices": 2,
        "edges": [[0, 0], [0, 1], [0, 1]],
        "plaquettes": [[[1, 1], [2, -1]], [[2, 1], [1, -1]]],
        "dual_edges": [[0, 1], [0, 1], [0, 1]],
        "genus": 0,
        "closed": True,
        "name": "bad",
    }
    with pytest.raises(C.CellulationError) as err:
        C.from_json(doc)
    text = str(err.value)
    assert "self-loop" in text
    assert "edge 0" in text  # the loop edge never appears in any walk


def test_reversed_plaquette_walk_rejected_naming_it():
    th = C.theta_sphere()
    walks = list(th.plaquettes)
    walks[1] = tuple((e, -o) for e, o in reversed(walks[1]))  # breaks pairing
    doc = {
        "vertices": 2,
        "edges": [list(e) for e in th.edges],
        "plaquettes": [[list(s) for s in w] for w in walks],
        "dual_edges": [list(d) for d in th.dual_edges],
        "genus": 0,
        "closed": True,
        "name": "theta-reversed",
    }
    with pytest.raises(C.CellulationError, match="edge"):
        C.from_json(doc)


def test_spanning_tree_sizes():
    assert len(C.spanning_tree(C.square_torus(2, 2)).edges) == 3
    hx = C.hexagon_torus()
    assert len(C.spanning_tree(hx).edges) == 1
    assert len(C.dual_spanning_tree(hx).edges) == 0
    assert len(C.dual_spanning_tree(C.square_torus(3, 2)).edges) == 5


def test_tree_paths_reach_root_with_cancellation():
    for cell in (C.square_torus(3, 3), C.tetrahedron_sphere()):
        tree = C.spanning_tree(cell)
        assert tree.path[0] == ()
        for v in range(cell.n_vertices):
            # replay the path and confirm it lands on the root
            node = v
            for e, sign in tree.path[v]:
                i, f = cell.edges[e]
                node = f if sign == 1 else i
                assert node in (i, f)
            assert node == tree.root
            # out-and-back cancels: net signed count per edge is zero
            net = {}
            for e, sign in tree.path[v]:
                net[e] = net.get(e, 0) + sign
            for e, sign in tree.path[v]:
                net[e] -= sign
            assert all(x == 0 for x in net.values())


def test_dual_tree_paths_reach_root():
    for cell in (C.square_torus(2, 3), C.theta_sphere(), C.tetrahedron_sphere()):
        tree = C.dual_spanning_tree(cell)
        for p in range(cell.n_plaquettes):
            node = p
            for e, sign in tree.path[p]:
                assert walk_sign(cell, node, e) == sign
                pm, pp = cell.plaquette_pair(e)
                node = pp if node == pm else pm
            assert node == tree.root


def test_disconnected_rejected():
    cell = C.Cellulation(n_vertices=4, edges=((0, 1), (2, 3)), closed=False)
    with pytest.raises(ValueError, match="disconnected"):
        C.spanning_tree(cell)


def test_dual_tree_requires_closed():
    with pytest.raises(ValueError):
        C.dual_spanning_tree(C.two_vertex_graph(2))


def test_open_fixtures():
    tv = C.two_vertex_graph(3)
    assert tv.n_edges == 3 and not tv.closed
    tri = C.triangle_graph()
    assert tri.n_vertices == 3 and tri.n_edges == 3
    assert len(C.spanning_tree(tri).edges) == 2
