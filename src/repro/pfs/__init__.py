"""Intel PFS parallel file system model.

Striped files over the machine's I/O nodes with the six PFS access modes,
a calibrated software cost model, and synchronous + asynchronous I/O
operations expressed as simulation processes.
"""

from .collective import STRATEGIES, CollectiveResult, collective_read
from .costs import CostModel
from .errors import (
    BadFileDescriptor,
    DataLoss,
    DegradedService,
    FatalIOError,
    FileExists,
    FileNotFound,
    IONodeUnavailable,
    IOTimeout,
    ModeError,
    PFSError,
    RecordSizeError,
    RetryBudgetExceeded,
    TransientIOError,
)
from .fanout import Join
from .file import PFSFile
from .filesystem import SEEK_CUR, SEEK_END, SEEK_SET, AreadHandle, PFS
from .modes import AccessMode, ModeSemantics, semantics
from .retry import RetryPolicy, backoff_schedule, install_retry
from .striping import Chunk, StripeLayout

__all__ = [
    "STRATEGIES",
    "CollectiveResult",
    "collective_read",
    "CostModel",
    "BadFileDescriptor",
    "DataLoss",
    "DegradedService",
    "FatalIOError",
    "FileExists",
    "FileNotFound",
    "IONodeUnavailable",
    "IOTimeout",
    "ModeError",
    "PFSError",
    "RecordSizeError",
    "RetryBudgetExceeded",
    "TransientIOError",
    "RetryPolicy",
    "backoff_schedule",
    "install_retry",
    "Join",
    "PFSFile",
    "SEEK_CUR",
    "SEEK_END",
    "SEEK_SET",
    "AreadHandle",
    "PFS",
    "AccessMode",
    "ModeSemantics",
    "semantics",
    "Chunk",
    "StripeLayout",
]
