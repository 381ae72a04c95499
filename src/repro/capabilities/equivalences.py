"""Declared equivalences: the "semantic step" of capability wrapping.

Some source operations are not captured by the core operational model —
the Wais ``contains`` predicate is the paper's running example.  For
those, the wrapper declares an *equivalence* connecting the source
operation to algebra operations, which the optimizer can then exploit
(paper, Section 4.2)::

    Select_{$x = s}(Bind_{F($x)}(doc))
        ==
    Select_{$x = s}(Select_{contains($w, s)}(Bind_{$w: F($x)}(doc)))

"Starting from a selection with equality over the result of a Bind, one
can add a more general contains predicate over the root of the
document."

Rather than a full template language, each equivalence form the paper
uses is one declarative class; the XML codec serializes them, and the
optimizer's capability round interprets them generically (it never
hardcodes per-source logic).
"""

from __future__ import annotations

from typing import Optional

from repro.model.node import Node


class Equivalence(Node):
    """Base class of declared source equivalences."""

    __slots__ = ()

    kind: str = "equivalence"


class SelectionImplication(Equivalence):
    """``mediator_predicate($x, c)  implies  source_predicate($w, f(c))``.

    Where ``$x`` is any variable bound by a filter *below* a tree variable
    ``$w`` that binds a whole document of the source.  The implication
    lets the optimizer insert ``Select source_predicate($w, c)`` under an
    existing mediator-side selection: the source predicate is *weaker*
    (it may keep false positives), so the original selection remains
    above it, but the stronger pre-filter can now be pushed to the source.

    Parameters
    ----------
    mediator_predicate:
        The algebra predicate appearing in the query (``=`` for the Wais
        example).
    source_predicate:
        The declared source operation to introduce (``contains``).
    argument_type:
        The atomic type the compared constant must have for the
        implication to apply (``String`` for full-text search); ``None``
        means any type.
    field_scoped:
        When ``True``, the implication prefers a *field-scoped* variant
        of the source predicate: if the compared variable is bound under
        element label ``L`` and the source declares
        ``<source_predicate>_<L>``, that operation is derived instead of
        the document-wide one.  This is the paper's Z39.50 remark about
        "declaring a predicate for each queried field and exporting them
        to the mediator" — free-WAIS-sf's structured fields.
    """

    __slots__ = ("mediator_predicate", "source_predicate", "argument_type",
                 "field_scoped")

    kind = "selection_implication"

    def __init__(
        self,
        mediator_predicate: str,
        source_predicate: str,
        argument_type: Optional[str] = "String",
        field_scoped: bool = False,
    ) -> None:
        self.mediator_predicate = mediator_predicate
        self.source_predicate = source_predicate
        self.argument_type = argument_type
        self.field_scoped = field_scoped

    def scoped_predicate(self, field: str) -> str:
        """Name of the field-scoped variant for element label *field*."""
        return f"{self.source_predicate}_{field}"

    def __repr__(self) -> str:
        scoped = ", field-scoped" if self.field_scoped else ""
        return (
            f"SelectionImplication({self.mediator_predicate!r} => "
            f"{self.source_predicate!r} on {self.argument_type or 'any'}{scoped})"
        )
