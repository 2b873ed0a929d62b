"""The device manager switch.

A registry mapping device names to :class:`DeviceManager` instances.
"Accesses to data are location-transparent — the database manager finds
the device storing the data and issues calls through the device manager
switch to manipulate it."  The catalog records which device each
relation lives on; everything above resolves devices through this
switch, which is what lets an Inversion file live on magnetic disk, in
NVRAM, or in the optical jukebox with identical code paths.
"""

from __future__ import annotations

from typing import Iterator

from repro.devices.base import DeviceManager, DeviceProxy
from repro.errors import UnknownDeviceError


class DeviceSwitch:
    """Name → device manager registry."""

    def __init__(self) -> None:
        self._devices: dict[str, DeviceManager] = {}
        self._default: str | None = None

    def register(self, device: DeviceManager, default: bool = False) -> None:
        """Register ``device``; the first registered device (or the one
        registered with ``default=True``) becomes the default."""
        if device.name in self._devices:
            raise UnknownDeviceError(f"device {device.name!r} already registered")
        self._devices[device.name] = device
        if default or self._default is None:
            self._default = device.name

    def get(self, name: str | None = None) -> DeviceManager:
        """Resolve a device by name (None → the default device)."""
        if name is None:
            name = self._default
        if name is None or name not in self._devices:
            raise UnknownDeviceError(f"no device named {name!r} registered")
        return self._devices[name]

    def wrap(self, name: str, wrapper) -> DeviceManager:
        """Replace the device named ``name`` with ``wrapper(device)``
        — the registration hook used by interposing proxies such as the
        testkit's :class:`~repro.testkit.faults.FaultyDevice`.  The
        proxy must keep the wrapped device's name so catalog rows keep
        resolving."""
        device = self.get(name)
        proxy = wrapper(device)
        if proxy.name != device.name:
            raise UnknownDeviceError(
                f"wrapper changed device name {device.name!r} → {proxy.name!r}")
        self._devices[name] = proxy
        return proxy

    def unwrap(self, name: str) -> DeviceManager:
        """Undo :meth:`wrap`: restore the proxied device's ``inner``
        manager.  A no-op for devices that are not proxies."""
        device = self.get(name)
        if isinstance(device, DeviceProxy):
            device = self._devices[name] = device.inner
        return device

    @property
    def default_name(self) -> str:
        if self._default is None:
            raise UnknownDeviceError("no devices registered")
        return self._default

    def names(self) -> list[str]:
        return list(self._devices)

    def __contains__(self, name: str) -> bool:
        return name in self._devices

    def __iter__(self) -> Iterator[DeviceManager]:
        return iter(self._devices.values())

    def describe(self) -> list[dict[str, object]]:
        """The switch table, as an administrator would list it."""
        rows = []
        for name, dev in self._devices.items():
            row = dev.describe()
            row["default"] = name == self._default
            rows.append(row)
        return rows

    def flush_all(self) -> None:
        for dev in self._devices.values():
            dev.flush()

    def close_all(self) -> None:
        for dev in self._devices.values():
            dev.close()

    def simulate_crash(self) -> None:
        for dev in self._devices.values():
            dev.simulate_crash()
