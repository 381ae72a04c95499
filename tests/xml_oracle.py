"""The ElementTree encoders of the data-tree and Tab wire format: the oracle.

``repro`` prints trees and Tabs with one direct writer
(``model/xml_io.write_tree``; ``core/algebra/tab.py`` adds the Tab
framing).  These functions build the same documents as ``xml.etree``
elements, so ``ET.tostring`` prints what the writer must print byte for
byte.  A change to the wire format changes both.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from repro.core.algebra.tab import Tab
from repro.model.filters import MissingValue
from repro.model.trees import DataNode
from repro.model.values import atom_type_name, is_atom
from repro.model.xml_io import encode_atom_text


def tree_to_element(node: DataNode) -> ET.Element:
    """Convert a data tree to an ``xml.etree`` element."""
    element = ET.Element(node.label)
    if node.ident is not None:
        element.set("id", node.ident)
    if node.collection is not None:
        element.set("col", node.collection)
    if node.is_reference:
        element.set("ref", node.ref_target)
        return element
    if node.is_atom_leaf:
        _atom_into_element(node.atom, element)
        return element
    for child in node.children:
        element.append(tree_to_element(child))
    return element


def tab_to_element(tab: Tab) -> ET.Element:
    """Convert a Tab to its ``<tab>`` wire element."""
    root = ET.Element("tab")
    root.set("columns", " ".join(tab.columns))
    for row in tab.rows:
        row_el = ET.SubElement(root, "row")
        for column, cell in zip(row.columns, row.cells):
            cell_el = ET.SubElement(row_el, "cell")
            cell_el.set("var", column)
            _cell_into_element(cell, cell_el)
    return root


def _atom_into_element(atom: object, element: ET.Element) -> None:
    element.set("type", atom_type_name(atom))
    text, encoding = encode_atom_text(atom)
    if encoding is not None:
        element.set("enc", encoding)
    element.text = text


def _cell_into_element(cell: object, cell_el: ET.Element) -> None:
    if isinstance(cell, MissingValue):
        cell_el.set("missing", "true")
    elif is_atom(cell):
        _atom_into_element(cell, cell_el)
    elif isinstance(cell, DataNode):
        cell_el.append(tree_to_element(cell))
    elif isinstance(cell, tuple):
        cell_el.set("kind", "coll")
        coll = ET.SubElement(cell_el, "coll")
        for item in cell:
            _cell_into_element(item, ET.SubElement(coll, "item"))
    else:
        raise TypeError(f"cannot serialize cell: {cell!r}")


def oracle_tree_xml(node: DataNode) -> str:
    """``ET.tostring`` of :func:`tree_to_element`."""
    return ET.tostring(tree_to_element(node), encoding="unicode")


def oracle_tab_xml(tab: Tab) -> str:
    """``ET.tostring`` of :func:`tab_to_element`."""
    return ET.tostring(tab_to_element(tab), encoding="unicode")
