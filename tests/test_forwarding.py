"""Every source proxy forwards the protocol and routes its data plane
through one hook.

:class:`repro.core.algebra.evaluator.ForwardingAdapter` forwards the
source protocol and the catalog surface to its ``inner`` adapter and
sends each data-plane call through ``_call``; these tests hold every
proxy class of ``repro`` to that over a fake inner adapter, and keep the
hand-written forwarding copies from coming back.
"""

from __future__ import annotations

import importlib
import inspect
import pkgutil
import sys

import pytest

import repro
from repro.core.algebra.evaluator import ForwardingAdapter, SourceAdapter
from repro.core.algebra.stats import ExecutionStats
from repro.core.algebra.tab import Row, Tab
from repro.mediator.resilience import ResiliencePolicy, ResilientAdapter
from repro.model.trees import atom_leaf, elem
from repro.observability.context import RequestContext
from repro.sources.sharded import ReplicaSet
from repro.testing import FaultSchedule, FaultyWrapper
from repro.wrappers.base import Wrapper

for _module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not _module.name.endswith("__main__"):
        importlib.import_module(_module.name)


class FakeSource(SourceAdapter):
    """A source whose every answer is its own, logging data-plane calls.

    ``holds_data`` is false and ``data_version`` is not 0, so a proxy
    that answers from a default instead of forwarding shows."""

    def __init__(self, name: str = "fake") -> None:
        self.name = name
        self.calls = []
        self.tree = elem("doc", atom_leaf("x", 1))
        self.index = {"w1": self.tree}
        self.tab = Tab(("x",), [Row(("x",), (1,))])
        self.catalog_interface = object()

    def document_names(self):
        return ("doc", "other")

    def data_version(self):
        return 7

    def interface(self):
        return self.catalog_interface

    def interface_xml(self):
        return f'<interface name="{self.name}"/>'

    def holds_data(self):
        return False

    def document(self, name):
        self.calls.append(("document", name))
        return self.tree

    def ident_index(self):
        self.calls.append(("ident_index",))
        return self.index

    def execute_pushed(self, plan, outer=None):
        self.calls.append(("execute_pushed", plan, outer))
        return self.tab, "native"


def _guarded(adapters):
    """Source ``s`` of *adapters* as a query under a resilience policy
    sees it."""
    runtime = ResiliencePolicy().start(RequestContext(stats=ExecutionStats()))
    return runtime.wrap(adapters)["s"]


#: Each proxy class over the fake *inner*: every builder puts *inner*
#: where the proxy's data plane reaches first.  The base itself is the
#: proxy that changes nothing.
FIXTURES = {
    ForwardingAdapter: [ForwardingAdapter],
    ResilientAdapter: [lambda inner: _guarded({"s": inner})],
    ReplicaSet: [
        lambda inner: ReplicaSet("s", [inner, FakeSource("second")]),
        # A replica set of guarded replicas, as ``PolicyRuntime.wrap``
        # builds it.
        lambda inner: _guarded({"s": ReplicaSet("s", [inner, FakeSource()])}),
    ],
    FaultyWrapper: [lambda inner: FaultyWrapper(inner, FaultSchedule())],
}
CASES = [
    pytest.param(build, id=f"{cls.__name__}-{index}")
    for cls, builders in FIXTURES.items()
    for index, build in enumerate(builders)
]


def _repro_subclasses(cls):
    for sub in cls.__subclasses__():
        module = sys.modules.get(sub.__module__)
        # A class a docstring example defines is nobody's proxy.
        if getattr(module, sub.__qualname__, None) is sub:
            yield sub
            yield from _repro_subclasses(sub)


PROXIES = sorted(
    set(_repro_subclasses(ForwardingAdapter)), key=lambda cls: cls.__qualname__
)

#: What a proxy may answer itself rather than forward, and why.
ALLOWED = {
    ("ReplicaSet", "data_version"):
        "a write to any replica must move the set's version vector",
    ("FaultyWrapper", "memo_stats"):
        "a faulted wrapper exports the inner wrapper's memo rows",
}
#: The catalog calls a proxy forwards (none takes an argument).
CATALOG = (
    "document_names",
    "document_name_set",
    "data_version",
    "interface",
    "interface_xml",
    "holds_data",
)
#: The source protocol: what the evaluator declares or duck-types, and
#: what a wrapper exports.
PROTOCOL = {
    name
    for cls in (SourceAdapter, ForwardingAdapter, Wrapper)
    for name, member in vars(cls).items()
    if inspect.isfunction(member) and not name.startswith("_")
} | {"holds_data", "memo_stats", "store_stats", "pushdown_access"}


def test_every_proxy_class_has_a_fixture():
    assert PROXIES and [cls for cls in PROXIES if cls not in FIXTURES] == []
    for cls, builders in FIXTURES.items():
        assert all(type(build(FakeSource())) is cls for build in builders)


@pytest.mark.parametrize("build", CASES)
def test_catalog_calls_answer_as_the_inner_adapter(build):
    inner = FakeSource()
    proxy = build(inner)
    for name in CATALOG:
        if (type(proxy).__name__, name) in ALLOWED:
            continue
        assert getattr(proxy, name)() == getattr(inner, name)(), name
    assert inner.calls == []


def test_a_replica_sets_version_is_every_replicas():
    primary, second = FakeSource(), FakeSource("second")
    second.data_version = lambda: 3
    assert ReplicaSet("s", [primary, second]).data_version() == (7, 3)


@pytest.mark.parametrize("build", CASES)
@pytest.mark.parametrize("operation", ["document", "ident_index", "execute_pushed"])
def test_a_data_plane_call_reaches_the_inner_once_through_the_hook(
    build, operation, monkeypatch
):
    inner = FakeSource()
    proxy = build(inner)
    hooked = []

    def spy(hook):
        def _call(self, name, invoke):
            hooked.append((type(self), name))
            return hook(self, name, invoke)
        return _call

    for cls in [ForwardingAdapter, *PROXIES]:
        if "_call" in vars(cls):
            monkeypatch.setattr(cls, "_call", spy(vars(cls)["_call"]))
    plan, outer = object(), object()
    calls = {
        "document": (lambda: proxy.document("doc"), ("doc",), inner.tree),
        "ident_index": (proxy.ident_index, (), inner.index),
        "execute_pushed": (
            lambda: proxy.execute_pushed(plan, outer),
            (plan, outer),
            (inner.tab, "native"),
        ),
    }
    call, arguments, answer = calls[operation]
    assert call() == answer
    assert inner.calls == [(operation, *arguments)]
    assert (type(proxy), operation) in hooked
    assert [name for _cls, name in hooked] == [operation] * len(hooked)
    assert len(hooked) == len(set(hooked))


def test_no_proxy_hand_writes_a_protocol_method():
    offenders = [
        f"{cls.__module__}.{cls.__name__}.{name}"
        for cls in PROXIES
        for name in vars(cls)
        if name in PROTOCOL and (cls.__name__, name) not in ALLOWED
    ]
    assert offenders == []
    assert all(name in vars(cls) for cls in PROXIES
               for owner, name in ALLOWED if owner == cls.__name__)
