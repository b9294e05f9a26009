from oracles import validate_graph

from fanramsey import Graph


def test_validate_graph():
    validate_graph(Graph(5, [(0, 4), (2, 3)]))
