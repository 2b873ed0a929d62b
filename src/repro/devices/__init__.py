"""The POSTGRES device manager switch and device managers.

"Based on the bdevsw switch in UNIX, the POSTGRES device manager switch
registers the devices that are available to the database system."  Each
device manager implements a small set of interface routines; accesses
to data are location-transparent — the database manager finds the
device storing the data and issues calls through the switch.

Provided managers (POSTGRES 4.0.1 supported the first three; the paper
says the Metrum tape jukebox is "in the near future", so we build it
too):

- :class:`MemDisk` — non-volatile RAM.
- :class:`MagneticDisk` — magnetic disk (file-backed, RZ58 cost model).
- :class:`SonyJukebox` — the 327 GB Sony WORM optical jukebox with its
  magnetic-disk staging cache.
- :class:`TapeJukebox` — a Metrum VHS-form-factor tape jukebox.
"""

from repro.devices.base import DeviceManager, DeviceProxy
from repro.devices.switch import DeviceSwitch
from repro.devices.memdisk import MemDisk
from repro.devices.magnetic import MagneticDisk
from repro.devices.jukebox import SonyJukebox
from repro.devices.tape import TapeJukebox

__all__ = [
    "DeviceManager",
    "DeviceProxy",
    "DeviceSwitch",
    "MemDisk",
    "MagneticDisk",
    "SonyJukebox",
    "TapeJukebox",
]
