"""Network cost model: 10 Mbit Ethernet carrying a TCP/IP-like RPC.

The paper measures client/server Inversion over "TCP/IP over a
10 Mbit/sec Ethernet" and concludes the protocol is "much too
heavy-weight": remote access adds three to five seconds to each 1 MB
test.  The model therefore charges, per message, a fixed protocol
overhead (system-call + TCP/IP stack traversal on both ends) plus
serialization onto the wire, and per request/response round trip a
propagation latency.

1 MB moved in 8 KB requests is 128 round trips; with the default
constants that costs ≈ 128 × (4 × 7 ms + wire time) ≈ 4.5 s —
squarely inside the paper's 3–5 s observation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.obs.registry import counter, metric_stats
from repro.sim.clock import SimClock


@dataclass(frozen=True)
class EthernetParams:
    """Constants describing a network + protocol stack."""

    name: str
    bandwidth_bps: float          # usable wire bandwidth, bytes/second
    per_message_overhead_s: float  # protocol stack cost per message, per end
    propagation_s: float          # one-way wire latency
    mtu: int = 1500               # maximum transmission unit (payload bytes)
    header_bytes: int = 58        # TCP+IP+Ethernet headers per packet


# 10 Mbit/s = 1.25 MB/s raw; ~1.1 MB/s usable after framing.
ETHERNET_10MBIT = EthernetParams(
    name="10 Mbit Ethernet + TCP/IP (ULTRIX 4.2 era)",
    bandwidth_bps=1_100_000.0,
    per_message_overhead_s=0.005,
    propagation_s=0.0002,
)


@metric_stats("net")
class NetStats:
    messages: int = counter(
        "msgs", "One-directional messages carried (requests + responses).")
    round_trips: int = counter("ops", "Request/response RPC exchanges.")
    bytes_sent: int = counter(
        "bytes", "Payload bytes serialized onto the wire.")
    busy_seconds: float = counter(
        "seconds", "Simulated seconds of protocol overhead, wire time and "
        "propagation.", default=0.0)


@dataclass
class NetworkModel:
    """Charges simulated time for RPC traffic between client and server."""

    clock: SimClock
    params: EthernetParams = ETHERNET_10MBIT
    stats: NetStats = field(default_factory=NetStats)

    def _wire_time(self, payload: int) -> float:
        """Serialization time for ``payload`` bytes including packet
        headers."""
        p = self.params
        npackets = max(1, (payload + p.mtu - 1) // p.mtu)
        total = payload + npackets * p.header_bytes
        return total / p.bandwidth_bps

    def send(self, payload: int) -> float:
        """One message in one direction: stack overhead at the sending
        and receiving host plus wire time plus propagation."""
        p = self.params
        cost = 2 * p.per_message_overhead_s + self._wire_time(payload) + p.propagation_s
        self.stats.messages += 1
        self.stats.bytes_sent += payload
        self.stats.busy_seconds += cost
        self.clock.advance(cost)
        return cost

    def round_trip(self, request_payload: int, response_payload: int) -> float:
        """A request/response RPC exchange."""
        cost = self.send(request_payload) + self.send(response_payload)
        self.stats.round_trips += 1
        return cost

    # -- pure cost computation (pipelining models) ----------------------

    def cost_send(self, payload: int) -> float:
        """The cost :meth:`send` would charge, without charging it."""
        p = self.params
        return 2 * p.per_message_overhead_s + self._wire_time(payload) + p.propagation_s

    def cost_round_trip(self, request_payload: int,
                        response_payload: int) -> float:
        return self.cost_send(request_payload) + self.cost_send(response_payload)

    def charge_seconds(self, seconds: float, messages: int = 0,
                       payload: int = 0) -> float:
        """Advance the clock by a precomputed network cost (used when a
        caller models overlap of network and disk time itself)."""
        if seconds > 0:
            self.stats.busy_seconds += seconds
            self.clock.advance(seconds)
        self.stats.messages += messages
        self.stats.bytes_sent += payload
        return max(seconds, 0.0)
