"""Stanford-style typed dependencies (the relations the Figure 4
patterns are defined over), lookups over a parsed
:class:`~repro.nlp.tokens.Sentence`'s head and label columns, and
node views built on demand for tests, debugging and rendering.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from .tokens import Token

if TYPE_CHECKING:  # pragma: no cover
    from .tokens import Sentence

#: Relation labels used by the parser (subset of Stanford dependencies).
DEP = "dep"
ROOT = "root"
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
PUNCT = "punct"
COMPOUND = "compound"

#: Labels by relation code: ``sentence.labels[i]`` indexes this tuple.
#: Tokens outside the tree carry ``REL_DEP`` with head ``-1``.
LABELS: tuple[str, ...] = (
    DEP, ROOT, NSUBJ, COP, AMOD, APPOS, ADVMOD, CONJ, CC, NEG, DET, PREP,
    POBJ, MARK, CCOMP, XCOMP, AUX, PUNCT, COMPOUND,
)
(
    REL_DEP, REL_ROOT, REL_NSUBJ, REL_COP, REL_AMOD, REL_APPOS, REL_ADVMOD,
    REL_CONJ, REL_CC, REL_NEG, REL_DET, REL_PREP, REL_POBJ, REL_MARK,
    REL_CCOMP, REL_XCOMP, REL_AUX, REL_PUNCT, REL_COMPOUND,
) = range(len(LABELS))


def child_with(sentence: "Sentence", node: int, label: int) -> int:
    """The first child of ``node`` with relation ``label``, or -1."""
    children = children_with(sentence, node, label)
    return children[0] if children else -1


def children_with(
    sentence: "Sentence", node: int, label: int
) -> list[int]:
    """The children of ``node`` with relation ``label``, in token order.

    Siblings sharing a relation (conjuncts, compounds, adverbs,
    negations) are attached in token order, so this is also their
    attachment order.
    """
    labels = sentence.labels
    heads = sentence.heads
    found = []
    index = labels.find(label)
    while index >= 0:
        if heads[index] == node:
            found.append(index)
        index = labels.find(label, index + 1)
    return found


@dataclass(slots=True)
class DepNode:
    """A view of one tree node: its token, relation and children."""

    token: Token
    deprel: str = DEP
    children: list["DepNode"] = field(default_factory=list)

    def child_by_rel(self, deprel: str) -> "DepNode | None":
        for child in self.children:
            if child.deprel == deprel:
                return child
        return None

    def children_by_rel(self, deprel: str) -> list["DepNode"]:
        return [c for c in self.children if c.deprel == deprel]

    def subtree(self) -> Iterator["DepNode"]:
        """Depth-first iteration over this node and its descendants."""
        yield self
        for child in self.children:
            yield from child.subtree()

    @property
    def is_negated(self) -> bool:
        """Whether this token has a negation child (Figure 5's marker)."""
        return self.child_by_rel(NEG) is not None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"DepNode({self.token.text}/{self.deprel})"


@dataclass(slots=True)
class DepTree:
    """A view of a parsed sentence: the root node, the nodes by token
    index in pre-order, and the head array they were built from."""

    root: DepNode
    nodes: dict[int, DepNode]
    heads: tuple[int, ...]

    @classmethod
    def of(cls, sentence: "Sentence") -> "DepTree | None":
        """Build the view of a parsed sentence; ``None`` when the
        sentence is unparsed or has no tokens."""
        order = sentence.order
        if not order:
            return None
        tokens = sentence.tokens
        heads = sentence.heads
        labels = sentence.labels
        nodes: dict[int, DepNode] = {}
        for index in order:
            node = DepNode(tokens[index], LABELS[labels[index]])
            nodes[index] = node
            head = heads[index]
            if head >= 0:
                # Pre-order puts a head before its children, and
                # children in attachment order.
                nodes[head].children.append(node)
        return cls(root=nodes[order[0]], nodes=nodes, heads=heads)

    def node_at(self, token_index: int) -> DepNode | None:
        return self.nodes.get(token_index)

    def parent_of(self, node: DepNode) -> DepNode | None:
        """The node governing ``node``; ``None`` for the root."""
        return self.nodes.get(self.heads[node.token.index])

    def path_to_root(self, node: DepNode) -> list[DepNode]:
        """Nodes from ``node`` (inclusive) up to the root (inclusive)."""
        path = [node]
        parent = self.parent_of(node)
        while parent is not None:
            path.append(parent)
            parent = self.parent_of(parent)
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
