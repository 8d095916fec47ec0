"""Workload generators: iPerf-style flows, packet streams, axel sessions."""

from .axel import ParallelDownloadModel, SessionConfig
from .cityscale import DIURNAL_DAY, CityScaleProfile, CityScaleWorkload
from .datagram_app import SealedDatagramCodec, naive_merge, naive_split
from .distributions import (
    elephant_mice_split,
    lognormal_flow_sizes,
    pareto_flow_sizes,
    poisson_arrivals,
)
from .imix import IMIX_SIMPLE, ImixProfile, imix_tcp_sources, imix_udp_sources
from .iperf import IperfResult, run_tcp_flow
from .streams import (
    TcpStreamSource,
    UdpStreamSource,
    interleave,
    make_tcp_sources,
    make_udp_sources,
)

__all__ = [
    "CityScaleProfile",
    "CityScaleWorkload",
    "DIURNAL_DAY",
    "TcpStreamSource",
    "UdpStreamSource",
    "interleave",
    "make_tcp_sources",
    "make_udp_sources",
    "ParallelDownloadModel",
    "SessionConfig",
    "IperfResult",
    "run_tcp_flow",
    "pareto_flow_sizes",
    "lognormal_flow_sizes",
    "poisson_arrivals",
    "elephant_mice_split",
    "SealedDatagramCodec",
    "naive_merge",
    "naive_split",
    "ImixProfile",
    "IMIX_SIMPLE",
    "imix_tcp_sources",
    "imix_udp_sources",
]
