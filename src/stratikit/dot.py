"""DOT export of order diagrams: an arrow a -> b means a <= b."""


def _quote(label):
    """A DOT quoted string: each backslash is doubled before each quote is
    escaped, so that no label can end its string early."""
    return '"' + str(label).replace("\\", "\\\\").replace('"', '\\"') + '"'


def preorder_dot(p, full_relation=False):
    """Graphviz digraph of a preorder.

    Posets are drawn by their covering relation unless ``full_relation`` asks
    for every non-reflexive pair; preorders with nontrivial equivalences have
    no transitive reduction and always get the full relation.
    """
    if full_relation or not p.is_partial_order():
        edges = p.pairs()
    else:
        edges = p.covering_pairs()
    lines = ["digraph order {", "  rankdir=BT;"]
    for x in p.carrier:
        lines.append(f"  {_quote(x)};")
    for a, b in edges:
        lines.append(f"  {_quote(a)} -> {_quote(b)};")
    lines.append("}")
    return "\n".join(lines) + "\n"
