"""A length handed down the hop never disagrees with the packet.

Senders that build a packet pass its size along (``Host.send`` →
``Interface.send`` → ``Link.transmit`` → ``Interface.deliver``) so it is
derived once per hop.  This world sends every kind of packet whose
length is not the option-less ``40 + len(payload)``: SYNs with options,
SACK-bearing ACKs, retransmissions, router-made fragments and an ICMP
error.  A tap on every link recomputes ``total_len`` from each packet it
sees, and every interface byte counter has to equal the tapped sum.
"""

from collections import Counter

from repro.net import Topology
from repro.packet import TCPOption
from repro.sim import Netem
from repro.tcpstack import TCPConnection, TCPListener

#: Events at which the sending interface has already counted the packet
#: (``Interface.send`` counts before the link accepts or refuses it).
_SENT = ("tx", "drop-mtu", "drop-queue")


def _world():
    """client --9000-- router --1500, lossy-- server."""
    topo = Topology(seed=5)
    client = topo.add_host("client")
    server = topo.add_host("server")
    router = topo.add_router("router")
    topo.link(client, router, mtu=9000, delay=1e-4)
    topo.link(router, server, mtu=1500, delay=1e-3, netem=Netem(loss=0.02))
    topo.build_routes()
    return topo, client, server


def test_interface_byte_counters_equal_the_tapped_packet_lengths():
    topo, client, server = _world()
    tapped_bytes = Counter()  # (link, event) -> sum of total_len
    tapped_packets = Counter()
    seen = Counter()
    for link in topo.links():
        def tap(event, packet, _now, link=link):
            tapped_bytes[link, event] += packet.total_len
            tapped_packets[link, event] += 1
            if packet.is_fragment:
                seen["fragment"] += 1
            elif packet.is_icmp:
                seen["icmp-error"] += packet.icmp.is_frag_needed
            elif packet.is_tcp:
                tcp = packet.tcp
                seen["syn-options"] += bool(tcp.syn and tcp.options)
                seen["sack-ack"] += tcp.find_option(TCPOption.SACK) is not None
        link.add_tap(tap)

    datagrams = []
    server.on_udp(9, lambda packet, _host: datagrams.append(len(packet.payload)))
    listener = TCPListener(server, 80, mss=8960)
    conn = TCPConnection(client, 40000, server.ip, 80, mss=8960)
    conn.connect()
    topo.run(until=1.0)
    conn.send_bulk(300_000)  # 9000 B DF segments: ICMP error, then PMTUD
    client.send_udp(server.ip, 5000, 9, bytes(4000))  # DF clear: fragmented
    topo.run(until=60.0)

    # The world really contained every case the guard is for.
    assert listener.connections[0].bytes_delivered == 300_000
    assert conn.send_mss == 1460 and conn.retransmits > 0
    assert datagrams == [4000]
    for case in ("syn-options", "sack-ack", "fragment", "icmp-error"):
        assert seen[case] > 0, case
    assert sum(link.stats.dropped_loss for link in topo.links()) > 0

    for link in topo.links():
        sent_bytes = sum(tapped_bytes[link, event] for event in _SENT)
        sent_packets = sum(tapped_packets[link, event] for event in _SENT)
        assert (link.src.tx_packets, link.src.tx_bytes) == (sent_packets, sent_bytes), link
        assert (link.dst.rx_packets, link.dst.rx_bytes) == (
            tapped_packets[link, "rx"], tapped_bytes[link, "rx"]), link
        assert link.stats.bytes_delivered == tapped_bytes[link, "rx"]
    # A host's counters are its interfaces'.
    for host in (client, server):
        assert host.rx_bytes == sum(i.rx_bytes for i in host.interfaces) > 0
        assert host.rx_packets == sum(i.rx_packets for i in host.interfaces) > 0
