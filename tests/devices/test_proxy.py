"""The interposition contract: every call of the device manager
interface made on a proxy reaches the device it wraps.

Driven by introspection of :class:`DeviceManager`, so a method added to
the ABC and left out of :class:`DeviceProxy` fails here, by name."""

import inspect
from abc import update_abstractmethods

import pytest

from repro.db.page import PAGE_SIZE
from repro.devices.base import DeviceManager, DeviceProxy
from repro.replica.feed import FeedTapDevice, PrimaryFeed
from repro.testkit import CrashController, FaultyDevice

INTERFACE = sorted(
    name for name, member in inspect.getmembers(DeviceManager,
                                                inspect.isfunction)
    if not name.startswith("_"))

#: an argument for every parameter name the interface uses.
ARGUMENTS = {"relname": "r", "src": "r", "dst": "s", "pageno": 0, "start": 0,
             "count": 1, "data": bytes(PAGE_SIZE),
             "datas": [bytes(PAGE_SIZE)], "tag": "t", "clock": None}

#: the ABC's own conveniences, and the verb each is a run of one of.
CONVENIENCES = {"read_page": "read_pages", "write_page": "write_pages"}


class Recorder(DeviceManager):
    """An ``inner`` that performs nothing and remembers what it was
    asked."""

    name = "d"

    def __init__(self) -> None:
        self.calls: list[str] = []


def _recording(name):
    returns = {"read_pages": [bytes(PAGE_SIZE)], "describe": {}}

    def method(self, *args, **kwargs):
        self.calls.append(name)
        return returns.get(name)
    return method


for _name in INTERFACE:
    setattr(Recorder, _name, _recording(_name))
update_abstractmethods(Recorder)

STACKS = {
    "proxy": lambda inner: DeviceProxy(inner),
    "faulty": lambda inner: FaultyDevice(inner, CrashController()),
    "feed_tap": lambda inner: FeedTapDevice(inner, PrimaryFeed(None)),
    "faulty_over_feed_tap": lambda inner: FaultyDevice(
        FeedTapDevice(inner, PrimaryFeed(None)), CrashController()),
}


def test_the_interface_is_what_this_test_thinks_it_is():
    assert {"read_pages", "write_pages", "meta_tags", "page_address",
            "sync_append_meta", "rebind_clock"} <= set(INTERFACE)
    for name in INTERFACE:
        params = list(inspect.signature(getattr(DeviceManager, name))
                      .parameters)[1:]
        assert set(params) <= set(ARGUMENTS), (name, params)


@pytest.mark.parametrize("method", INTERFACE)
@pytest.mark.parametrize("stack", list(STACKS))
def test_every_interface_call_reaches_the_wrapped_device(stack, method):
    inner = Recorder()
    proxy = STACKS[stack](inner)
    params = list(inspect.signature(getattr(DeviceManager, method))
                  .parameters)[1:]
    getattr(proxy, method)(*(ARGUMENTS[p] for p in params))
    assert inner.calls == [CONVENIENCES.get(method, method)]


def test_only_the_abc_defines_the_single_page_conveniences():
    for cls in (DeviceProxy, FaultyDevice, FeedTapDevice):
        for name in CONVENIENCES:
            assert name not in vars(cls), (cls.__name__, name)


def test_device_specific_extras_pass_through():
    inner = Recorder()
    inner.disk = object()
    proxy = FaultyDevice(FeedTapDevice(inner, PrimaryFeed(None)),
                         CrashController())
    assert proxy.disk is inner.disk
    assert proxy.name == "d" and proxy.nonvolatile is False
