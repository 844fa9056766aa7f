"""Typed dependency trees in the Stanford style.

The extraction patterns of the paper (Figure 4) are defined over
Stanford typed dependencies; this module provides the tree structure
plus the traversals the pattern matchers and the polarity walk
(Figure 5) rely on.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field

from .tokens import Token

#: Relation labels used by the parser (subset of Stanford dependencies).
NSUBJ = "nsubj"
COP = "cop"
AMOD = "amod"
APPOS = "appos"
ADVMOD = "advmod"
CONJ = "conj"
CC = "cc"
NEG = "neg"
DET = "det"
PREP = "prep"
POBJ = "pobj"
MARK = "mark"
CCOMP = "ccomp"
XCOMP = "xcomp"
AUX = "aux"
DOBJ = "dobj"
ROOT = "root"
PUNCT = "punct"
DEP = "dep"


@dataclass(slots=True)
class DepNode:
    """One node of the dependency tree."""

    token: Token
    deprel: str = DEP
    children: list["DepNode"] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def attach(self, child: "DepNode", deprel: str) -> "DepNode":
        """Attach ``child`` under this node with the given relation."""
        child.deprel = deprel
        self.children.append(child)
        return child

    # ------------------------------------------------------------------
    # Traversal
    # ------------------------------------------------------------------
    def child_by_rel(self, deprel: str) -> "DepNode | None":
        for child in self.children:
            if child.deprel == deprel:
                return child
        return None

    def children_by_rel(self, deprel: str) -> list["DepNode"]:
        return [c for c in self.children if c.deprel == deprel]

    def has_child(self, deprel: str) -> bool:
        return self.child_by_rel(deprel) is not None

    def subtree(self) -> Iterator["DepNode"]:
        """Depth-first iteration over this node and its descendants."""
        yield self
        for child in self.children:
            yield from child.subtree()

    @property
    def is_negated(self) -> bool:
        """Whether this token has a negation child (Figure 5's marker)."""
        return self.has_child(NEG)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DepNode({self.token.text}/{self.deprel})"


@dataclass(slots=True)
class DepTree:
    """A parsed sentence: a root node, an index-to-node map, and the
    parent of each node by token index.

    Nodes point only down (to their children); the tree owns the
    upward links. Nothing a parse builds is therefore cyclic, and a
    discarded tree — or a partial one the parser backtracked out of —
    is freed by reference counting alone.
    """

    root: DepNode
    nodes: dict[int, DepNode]
    #: ``parents[i]`` governs the node of token ``i``; ``None`` for the
    #: root and for tokens outside the tree.
    parents: list[DepNode | None]

    @classmethod
    def from_root(cls, root: DepNode) -> "DepTree":
        # Pre-order, children in attachment order: the node map's
        # iteration order is the order pattern matching visits nodes.
        nodes: dict[int, DepNode] = {}
        stack = [root]
        while stack:
            node = stack.pop()
            nodes[node.token.index] = node
            stack.extend(reversed(node.children))
        parents: list[DepNode | None] = [None] * (max(nodes) + 1)
        for node in nodes.values():
            for child in node.children:
                parents[child.token.index] = node
        return cls(root=root, nodes=nodes, parents=parents)

    def node_at(self, token_index: int) -> DepNode | None:
        return self.nodes.get(token_index)

    def parent_of(self, node: DepNode) -> DepNode | None:
        """The node governing ``node``; ``None`` for the root."""
        return self.parents[node.token.index]

    def path_to_root(self, node: DepNode) -> list[DepNode]:
        """Nodes from ``node`` (inclusive) up to the root (inclusive)."""
        path = [node]
        parents = self.parents
        parent = parents[node.token.index]
        while parent is not None:
            path.append(parent)
            parent = parents[parent.token.index]
        return path

    def all_nodes(self) -> Iterator[DepNode]:
        return iter(self.nodes.values())

    def render(self) -> str:
        """Human-readable tree dump, one node per line."""
        lines: list[str] = []

        def walk(node: DepNode, depth: int) -> None:
            lines.append(
                "  " * depth + f"{node.token.text} [{node.deprel}]"
            )
            for child in sorted(
                node.children, key=lambda c: c.token.index
            ):
                walk(child, depth + 1)

        walk(self.root, 0)
        return "\n".join(lines)
