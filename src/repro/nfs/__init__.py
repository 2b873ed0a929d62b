"""The comparison baseline: ULTRIX NFS over FFS with PRESTOserve.

The paper measures Inversion against "the ULTRIX 4.2 implementation of
NFS … The NFS implementation on the DECsystem 5900 used a service
called PRESTOserve to speed up writes."  None of that stack exists on
this machine, so this package builds it: a Fast File System simulator
(:mod:`repro.nfs.ffs`), a stateless NFS server that forces every write
to stable storage unless the PRESTOserve board — the shared NVRAM model,
:class:`repro.sim.nvram.NvramCache`, held by the server — absorbs it
(:mod:`repro.nfs.server`), and an RPC client over the shared Ethernet
model (:mod:`repro.nfs.client`).
"""

from repro.nfs.ffs import FastFileSystem
from repro.nfs.server import NFSServer
from repro.nfs.client import NFSClient

__all__ = ["FastFileSystem", "NFSServer", "NFSClient"]
