"""Capability descriptions at work: what each source accepts, and why.

Walks through Section 4 and Section 5.3 interactively:

1. prints the Figure 6 XML interface the O2 wrapper exports;
2. checks a range of filters against each source's Fmodel, showing the
   admissibility verdicts (including the reasons for rejections);
3. runs the paper's Q2 and shows the capability-based rewriting — the
   contains predicate introduced through the declared equivalence, the
   Bind split for Wais, and the bind join into O2 — with the native
   queries each wrapper actually executed;
4. demonstrates the Figure 7 "semistructured query over structured data"
   rewriting: a label variable over typed O2 data expands into pushable
   ground filters.

Run:  python examples/capability_pushdown.py
"""

import xml.dom.minidom

from repro import Mediator, O2Wrapper, WaisWrapper
from repro.core.algebra.operators import BindOp, PushedOp, SourceOp
from repro.core.optimizer import LabelVarExpansionRule, OptimizerContext
from repro.datasets import small_figure1_pair
from repro.model.filters import FElem, FStar, FVar, LabelVar, felem
from repro.yatl import parse_filter

VIEW1_YAT = """
artworks() :=
MAKE doc [ *&artwork($t, $c) :=
    work [ title: $t, artist: $a, year: $y, price: $p,
           style: $s, size: $si, owners [ *$o ], more: $fields ] ]
MATCH artifacts WITH
    set *class: artifact:
             tuple [ title: $t, year: $y, creator: $c, price: $p,
                     owners: list *class: person:
                        tuple [ name: $o, auction: $au ] ],
      artworks WITH
    works *work [ artist: $a, title: $t', style: $s, size: $si, *($fields) ]
WHERE $y > 1800 AND $c = $a AND $t = $t'
"""

Q2 = """
MAKE doc [ * item [ title: $t, artist: $a, price: $p ] ]
MATCH artworks WITH doc . work [ title . $t, artist . $a, style . $s, price . $p ]
WHERE $s = "Impressionist" AND $p < 2000000.0
"""


def show_interface(wrapper) -> None:
    pretty = xml.dom.minidom.parseString(wrapper.interface_xml()).toprettyxml(
        indent="  "
    )
    # Trim the structure exports: the Fmodel is the interesting part here.
    lines = [
        line
        for line in pretty.splitlines()
        if line.strip() and "<structure" not in line
    ]
    in_structure = False
    kept = []
    for line in pretty.splitlines():
        if "<structure" in line:
            in_structure = True
        if not in_structure and line.strip():
            kept.append(line)
        if "</structure>" in line:
            in_structure = False
    print("\n".join(kept[:40]))
    print("  ... (structure exports elided)")


def check_filters(name, matcher, candidates) -> None:
    print(f"\n== filters against {name} ==")
    for text, flt in candidates:
        verdict = matcher.bind_admissible(flt)
        status = "accepted" if verdict else f"REJECTED ({verdict.reason})"
        print(f"  {text:55s} -> {status}")


def main() -> None:
    database, store = small_figure1_pair()
    o2 = O2Wrapper("o2artifact", database)
    wais = WaisWrapper("xmlartwork", store)

    print("== the O2 wrapper's exported interface (Figure 6) ==")
    show_interface(o2)

    check_filters(
        "O2 (o2fmodel)",
        o2.interface().matcher(),
        [
            ("set *class: artifact: tuple [ title: $t ]",
             parse_filter("set *class: artifact: tuple [ title: $t ]")),
            ("set *class $x   (bind whole objects)",
             felem("set", FStar(felem("class", var="x")))),
            ("set *class: $cls: tuple [...]   (schema query)",
             felem("set", FStar(felem("class", FElem(LabelVar("cls")))))),
            ("set *class: artifact: tuple [ $l: $v ]",
             felem("set", FStar(felem("class", felem("artifact",
                   felem("tuple", FElem(LabelVar("l"), (FVar("v"),)))))))),
        ],
    )
    check_filters(
        "Wais (waisfmodel)",
        wais.interface().matcher(),
        [
            ("works *work $w      (whole documents)",
             parse_filter("works *work $w")),
            ("works *work [ title: $t ]   (inner filtering)",
             parse_filter("works *work [ title: $t ]")),
        ],
    )

    # -- Q2 through the mediator ------------------------------------------------
    print("\n== Q2 through the three rewriting rounds (Figure 9) ==")
    mediator = Mediator()
    mediator.connect(o2)
    mediator.connect(wais)
    mediator.load_program(VIEW1_YAT)
    result = mediator.query(Q2)
    print("\nfinal plan:")
    print(result.plan.pretty())
    print("\nanswer:")
    print(result.document().pretty())
    print("\nderivation:")
    print(result.trace.summary())

    # -- label-variable expansion (Figure 7, bottom right) -----------------------
    print("\n== semistructured query over structured data ==")
    print("filter: persons with  tuple [ $l: $v ]  (attribute names wanted)")
    flt = felem(
        "set",
        FStar(felem("class", felem("person",
              felem("tuple", FElem(LabelVar("l"), (FVar("v"),)))))),
    )
    bind = BindOp(SourceOp("o2artifact", "persons"), flt, on="persons")
    context = OptimizerContext(interfaces={"o2artifact": o2.interface()})
    expanded = LabelVarExpansionRule().apply(bind, context)
    print("\nexpanded, every branch pushable to O2:")
    print(expanded.pretty())


if __name__ == "__main__":
    main()
