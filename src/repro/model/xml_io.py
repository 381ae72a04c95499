"""XML (de)serialization of YAT data trees and type patterns.

"For interoperability reasons, wrappers and mediators communicate data,
structures and operations in XML" (paper, Section 2).  This module defines
that wire format:

Data trees (:class:`~repro.model.trees.DataNode`)
    One XML element per node.  Reserved attributes: ``id`` (node
    identifier), ``col`` (collection kind), ``ref`` (reference target) and
    ``type`` (atomic type of a leaf).  Example::

        <work><title type="String">Nympheas</title>...</work>

Type patterns (:class:`~repro.model.patterns.Pattern`)
    The element vocabulary of Figure 6: ``<node label=...>``,
    ``<leaf label="Int"/>``, ``<star>``, ``<union>``, ``<ref pattern=.../>``,
    ``<any/>`` and ``<const type=...>``.

All data crossing a wrapper boundary goes through these functions, so the
serialized byte counts measured by the benchmarks reflect real conversion
work, as in the paper's argument about conversion overhead.

One writer prints the data format: :func:`write_tree` appends a tree's
text piece by piece, with the escaping rules of ``xml.etree``'s writer,
and ``core/algebra/tab.py`` prints only a Tab's framing around it.  A
transfer size is the length of what it prints.  ``xml.etree`` parses,
and prints patterns.
"""

from __future__ import annotations

import base64
import re
import xml.etree.ElementTree as ET
from typing import Optional, Tuple

from repro.errors import XmlFormatError
from repro.model.patterns import (
    PAny,
    PAtomic,
    PConstLeaf,
    PNode,
    PRef,
    PStar,
    PUnion,
    Pattern,
)
from repro.model.trees import DataNode
from repro.model.values import atom_type_name, parse_atom


# ---------------------------------------------------------------------------
# Data trees
# ---------------------------------------------------------------------------

def escape_text(text: str) -> str:
    """*text* as XML character data: ``&``, ``<`` and ``>`` escaped, the
    rule of ``xml.etree``'s writer."""
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def escape_attr(value: str) -> str:
    """*value* inside a double-quoted attribute: the character data
    escapes, then ``"`` and bare ``\\r``/``\\n``/``\\t`` as references (a
    parser would normalize them as literal whitespace)."""
    return (
        escape_text(value).replace('"', "&quot;").replace("\r", "&#13;")
        .replace("\n", "&#10;").replace("\t", "&#09;")
    )


def write_tree(node: DataNode, out: list) -> None:
    """Append the XML text of *node* to *out*, piece by piece."""
    label = node.label
    out.append("<" + label)
    if node.ident is not None:
        out.append(f' id="{escape_attr(node.ident)}"')
    if node.collection is not None:
        out.append(f' col="{escape_attr(node.collection)}"')
    if node.ref_target is not None:
        out.append(f' ref="{escape_attr(node.ref_target)}" />')
    elif node.atom is not None:
        write_atom(node.atom, label, out)
    elif node.children:
        out.append(">")
        for child in node.children:
            write_tree(child, out)
        out.append(f"</{label}>")
    else:
        out.append(" />")


def write_atom(atom: object, tag: str, out: list) -> None:
    """Append the rest of an atom element whose ``<tag ...`` is written:
    its ``type`` (and ``enc``) attributes and text, or the short empty
    form for empty text."""
    text, encoding = encode_atom_text(atom)
    out.append(f' type="{atom_type_name(atom)}"')
    if encoding is not None:
        out.append(f' enc="{encoding}"')
    out.append(f">{escape_text(text)}</{tag}>" if text else " />")


def tree_to_xml(node: DataNode) -> str:
    """Serialize a data tree to an XML string.

    An element without content takes the short form, attribute values
    are escaped, and a string XML cannot carry travels base64-marked:

    >>> from repro.model.trees import atom_leaf, elem, ref
    >>> tree_to_xml(elem("w", ref("owner", 'a&"b'), atom_leaf("t", "")))
    '<w><owner ref="a&amp;&quot;b" /><t type="String" /></w>'
    >>> tree_to_xml(atom_leaf("t", "bell" + chr(7)))
    '<t type="String" enc="b64">YmVsbAc=</t>'
    """
    out: list = []
    write_tree(node, out)
    return "".join(out)


def element_to_tree(element: ET.Element) -> DataNode:
    """Parse an ``xml.etree`` element back into a data tree."""
    ident = element.get("id")
    collection = element.get("col")
    ref_target = element.get("ref")
    if ref_target is not None:
        return DataNode(element.tag, ident=ident, ref_target=ref_target)
    type_name = element.get("type")
    if type_name is not None:
        text = decode_atom_text(element.text or "", element.get("enc"))
        try:
            atom = parse_atom(type_name, text)
        except ValueError as exc:
            raise XmlFormatError(f"bad atom in <{element.tag}>: {exc}") from exc
        return DataNode(element.tag, atom=atom, ident=ident)
    children = [element_to_tree(child) for child in element]
    if not children and element.text and element.text.strip():
        # Untyped leaf text: keep it as a string atom.
        return DataNode(element.tag, atom=element.text.strip(), ident=ident)
    return DataNode(element.tag, children=children, ident=ident, collection=collection)


def xml_to_tree(text: str) -> DataNode:
    """Parse an XML string into a data tree."""
    try:
        element = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlFormatError(f"malformed XML: {exc}") from exc
    return element_to_tree(element)


def serialized_size(node: DataNode) -> int:
    """Number of UTF-8 bytes of ``tree_to_xml(node)``.

    This is the transfer cost the mediator pays when the tree crosses a
    wrapper boundary; the execution statistics aggregate it.  The size
    is cached on the (immutable) node, so shared trees — ident-index
    exports, pushed-result cells — are printed once, not once per
    transfer-statistics record.
    """
    size = node._ssize
    if size is None:
        size = node._ssize = len(tree_to_xml(node).encode("utf-8"))
    return size


# Characters XML 1.0 cannot carry verbatim (or that parsers normalize,
# like a bare carriage return); strings containing any of them travel
# base64-encoded with an enc="b64" marker.
_XML_UNSAFE = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\x7f\r]")


def _atom_to_text(atom: object) -> str:
    if isinstance(atom, bool):
        return "true" if atom else "false"
    return str(atom)


def encode_atom_text(atom: object) -> Tuple[str, Optional[str]]:
    """``(text, encoding)`` for an atom: encoding is ``"b64"`` when the
    plain text would not survive an XML round trip."""
    text = _atom_to_text(atom)
    if isinstance(atom, str) and _XML_UNSAFE.search(text):
        return base64.b64encode(text.encode("utf-8")).decode("ascii"), "b64"
    return text, None


def decode_atom_text(text: str, encoding: Optional[str]) -> str:
    """Inverse of :func:`encode_atom_text` for string payloads."""
    if encoding is None:
        return text
    if encoding == "b64":
        return base64.b64decode(text.encode("ascii")).decode("utf-8")
    raise XmlFormatError(f"unknown text encoding: {encoding!r}")


# ---------------------------------------------------------------------------
# Patterns
# ---------------------------------------------------------------------------

def pattern_to_element(pattern: Pattern) -> ET.Element:
    """Convert a type pattern to its Figure-6 XML form."""
    if isinstance(pattern, PAny):
        return ET.Element("any")
    if isinstance(pattern, PAtomic):
        element = ET.Element("leaf")
        element.set("label", pattern.type_name)
        return element
    if isinstance(pattern, PConstLeaf):
        element = ET.Element("const")
        element.set("type", atom_type_name(pattern.value))
        element.text = _atom_to_text(pattern.value)
        return element
    if isinstance(pattern, PRef):
        element = ET.Element("ref")
        element.set("pattern", pattern.name)
        return element
    if isinstance(pattern, PStar):
        element = ET.Element("star")
        element.append(pattern_to_element(pattern.child))
        return element
    if isinstance(pattern, PUnion):
        element = ET.Element("union")
        for alternative in pattern.alternatives:
            element.append(pattern_to_element(alternative))
        return element
    if isinstance(pattern, PNode):
        element = ET.Element("node")
        element.set("label", pattern.label)
        if pattern.collection is not None:
            element.set("col", pattern.collection)
        for child in pattern.children:
            element.append(pattern_to_element(child))
        return element
    raise XmlFormatError(f"cannot serialize pattern: {pattern!r}")


def pattern_to_xml(pattern: Pattern) -> str:
    """Serialize a type pattern to an XML string."""
    return ET.tostring(pattern_to_element(pattern), encoding="unicode")


def element_to_pattern(element: ET.Element) -> Pattern:
    """Parse a Figure-6 style XML element into a type pattern."""
    tag = element.tag
    if tag == "any":
        return PAny()
    if tag == "leaf":
        label = element.get("label")
        if label is None:
            raise XmlFormatError("<leaf> requires a label attribute")
        return PAtomic(label)
    if tag == "const":
        type_name = element.get("type", "String")
        try:
            return PConstLeaf(parse_atom(type_name, element.text or ""))
        except ValueError as exc:
            raise XmlFormatError(f"bad constant: {exc}") from exc
    if tag == "ref":
        name = element.get("pattern")
        if name is None:
            raise XmlFormatError("<ref> requires a pattern attribute")
        return PRef(name)
    if tag == "star":
        children = list(element)
        if len(children) != 1:
            raise XmlFormatError("<star> requires exactly one child")
        return PStar(element_to_pattern(children[0]))
    if tag == "union":
        return PUnion([element_to_pattern(child) for child in element])
    if tag == "node":
        label = element.get("label")
        if label is None:
            raise XmlFormatError("<node> requires a label attribute")
        return PNode(
            label,
            [element_to_pattern(child) for child in element],
            collection=element.get("col"),
        )
    raise XmlFormatError(f"unknown pattern element: <{tag}>")


def xml_to_pattern(text: str) -> Pattern:
    """Parse an XML string into a type pattern."""
    try:
        element = ET.fromstring(text)
    except ET.ParseError as exc:
        raise XmlFormatError(f"malformed XML: {exc}") from exc
    return element_to_pattern(element)
