"""NIC offload models: LRO/GRO/TSO, RSS, DMA, end-host RX pricing."""

from .dma import FULL_DMA, HEADER_ONLY_DMA, DmaModel
from .endhost import ReceiverConfig, ReceiverModel
from .offloads import MergeContext, TcpCoalescer, UdpGroCoalescer, segment_tcp
from .rss import DEFAULT_RSS_KEY, RssDistributor, toeplitz_hash

__all__ = [
    "TcpCoalescer",
    "UdpGroCoalescer",
    "MergeContext",
    "segment_tcp",
    "RssDistributor",
    "toeplitz_hash",
    "DEFAULT_RSS_KEY",
    "DmaModel",
    "FULL_DMA",
    "HEADER_ONLY_DMA",
    "ReceiverConfig",
    "ReceiverModel",
]
