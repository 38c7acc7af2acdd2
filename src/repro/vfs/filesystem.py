"""User-facing file system facade + its simulation-side executor.

:class:`SimFileSystem` is the object handed to a user program: a
node-bound, fsspec-flavoured file API (``open`` with standard Python
mode strings, ``exists``/``listdir``/``unlink``/``rename``,
``pipe_file``/``cat_file`` staging helpers) plus the SPMD primitives a
parallel program needs (``barrier``, ``compute``, ``now``).  Everything
it does crosses the thread bridge; it owns no simulator state.

:class:`NodeExecutor` is the other half: it lives on the kernel side,
executes each marshalled request against the captured PFS, and
returns plain Python values.  Simulated PFS failures are translated to
the built-in exception a real program expects (``FileNotFoundError``,
``FileExistsError``) before they re-raise on the user thread.

Intel PFS access modes map onto open flags: ``iomode='async'`` opens
M_ASYNC (relaxed atomicity + ``read_async``), ``iomode='record'`` with a
``record_size`` opens M_RECORD (fixed-size node-interleaved records),
and the default is plain M_UNIX.  ``log``/``sync``/``global`` are
accepted for completeness.
"""

from __future__ import annotations

from typing import Optional

from ..pfs.errors import FileExists, FileNotFound
from ..pfs.filesystem import SEEK_CUR, SEEK_END, SEEK_SET
from ..pfs.modes import AccessMode
from .bridge import Channel
from .file import SimFile

__all__ = ["SimFileSystem", "NodeExecutor"]

#: iomode open flag -> Intel PFS access mode.
_IOMODES = {
    None: AccessMode.M_UNIX,
    "unix": AccessMode.M_UNIX,
    "async": AccessMode.M_ASYNC,
    "record": AccessMode.M_RECORD,
    "log": AccessMode.M_LOG,
    "sync": AccessMode.M_SYNC,
    "global": AccessMode.M_GLOBAL,
}


def _parse_mode(mode: str) -> dict:
    """Decompose a Python open-mode string into behaviour flags."""
    if not mode or not set(mode) <= set("rwaxbt+") or len(set(mode)) != len(mode):
        raise ValueError(f"invalid mode: {mode!r}")
    base = [c for c in mode if c in "rwax"]
    if len(base) != 1:
        raise ValueError(f"mode must have exactly one of r/w/a/x: {mode!r}")
    if "b" in mode and "t" in mode:
        raise ValueError(f"can't have text and binary mode at once: {mode!r}")
    base = base[0]
    plus = "+" in mode
    return {
        "base": base,
        "text": "b" not in mode,
        "readable": base == "r" or plus,
        "writable": base in "wax" or plus,
        "append": base == "a",
        "create": base in "wax" or (base == "a"),
        "exclusive": base == "x",
        "truncate": base == "w",
    }


class SimFileSystem:
    """The simulated machine's file system, seen from one compute node.

    Handed to user programs by :meth:`repro.vfs.SimMachine.run_program`;
    every method blocks the calling (user) thread while the operation
    runs in simulated time on the kernel thread.
    """

    def __init__(self, channel: Channel, node: int, nodes: int, track_content: bool):
        self._channel = channel
        #: This program's compute-node number.
        self.node = node
        #: Number of programs participating in this run (barrier width).
        self.nodes = nodes
        #: Whether reads return real bytes (see :class:`SimMachine`).
        self.track_content = track_content

    def _call(self, method: str, *args, **kwargs):
        try:
            return self._channel.call(method, *args, **kwargs)
        except FileNotFound as exc:
            raise FileNotFoundError(str(exc)) from exc
        except FileExists as exc:
            raise FileExistsError(str(exc)) from exc

    # -- the file front-end ------------------------------------------------
    def open(
        self,
        path: str,
        mode: str = "rb",
        *,
        iomode: Optional[str] = None,
        record_size: Optional[int] = None,
        parties: Optional[int] = None,
        encoding: str = "utf-8",
        buffer_size: int = 8192,
        cold: bool = False,
    ) -> SimFile:
        """Open ``path`` with Python open() semantics on the simulated PFS.

        ``mode`` is a standard mode string (``'rb'``, ``'w'``, ``'a+'``,
        ``'xb'``, ...).  ``iomode`` selects the Intel PFS access mode
        (``'unix'``/``'async'``/``'record'``/...); ``record_size`` is
        required for ``'record'``.  ``parties`` declares the member count
        for the coordinated modes.  ``cold`` charges the first-open
        staging cost.
        """
        flags = _parse_mode(mode)
        if iomode not in _IOMODES:
            raise ValueError(
                f"unknown iomode {iomode!r}; pick from "
                f"{sorted(k for k in _IOMODES if k)}"
            )
        access = _IOMODES[iomode]
        fd = self._call(
            "open",
            path,
            access,
            create=flags["create"],
            exclusive=flags["exclusive"],
            truncate=flags["truncate"],
            at_end=flags["append"],
            record_size=record_size,
            parties=parties,
            cold=cold,
        )
        return SimFile(
            self._channel,
            fd,
            path,
            mode,
            readable=flags["readable"],
            writable=flags["writable"],
            append=flags["append"],
            text=flags["text"],
            encoding=encoding,
            buffer_size=buffer_size,
        )

    # -- namespace operations ----------------------------------------------
    def exists(self, path: str) -> bool:
        """True if ``path`` exists (client-side check, no cost)."""
        return self._call("exists", path)

    def listdir(self) -> list[str]:
        """All paths in the (flat) namespace, sorted."""
        return self._call("listdir")

    def size(self, path: str) -> int:
        """Logical size of ``path`` (client-side check, no cost)."""
        return self._call("size_of", path)

    def unlink(self, path: str) -> None:
        """Remove ``path`` (simulated metadata operation)."""
        self._call("unlink", path)

    def rename(self, old: str, new: str) -> None:
        """Rename ``old`` to ``new`` (simulated metadata operation)."""
        self._call("rename", old, new)

    # -- staging helpers (administrative, fsspec idiom) ---------------------
    def pipe_file(self, path: str, data: bytes) -> None:
        """Stage ``data`` into ``path`` with no simulated cost — models
        input files that pre-exist the run (fsspec's ``pipe_file``)."""
        self._call("pipe_file", path, bytes(data))

    def cat_file(self, path: str) -> bytes:
        """Whole-file contents with no simulated cost (fsspec's
        ``cat_file``); requires content tracking."""
        return self._call("cat_file", path)

    # -- SPMD coordination ---------------------------------------------------
    def barrier(self) -> None:
        """Wait (in simulated time) until every program arrives."""
        self._call("barrier")

    def compute(self, seconds: float) -> None:
        """Model ``seconds`` of computation: advances the simulated clock
        without doing I/O.  (Python compute between calls costs zero
        simulated time — use this to give it weight.)"""
        if seconds < 0:
            raise ValueError(f"compute time must be >= 0, got {seconds}")
        self._call("compute", float(seconds))

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._call("now")


def _value(result):
    """Generator that returns ``result`` without yielding — lets pure
    state queries share the pump's uniform ``yield from`` dispatch."""
    return result
    yield  # pragma: no cover - makes this a generator function


class NodeExecutor:
    """Kernel-side twin of one program's :class:`SimFileSystem`."""

    def __init__(self, fs, node: int, barrier, track_content: bool):
        #: The run's file system; its capture sink lands ops in the shared
        #: trace.
        self.fs = fs
        self.env = fs.env
        self.node = node
        self._barrier = barrier
        self._track = track_content
        self._handles: dict[int, object] = {}
        self._next_handle = 1

    def dispatch(self, method: str, args: tuple, kwargs: dict):
        return getattr(self, "_op_" + method)(*args, **kwargs)

    # -- open/close ---------------------------------------------------------
    def _op_open(
        self,
        path: str,
        access: AccessMode,
        *,
        create: bool,
        exclusive: bool,
        truncate: bool,
        at_end: bool,
        record_size: Optional[int],
        parties: Optional[int],
        cold: bool,
    ):
        f = self.fs.lookup(path)
        if truncate and f is not None and not f.openers:
            # 'w' on an existing idle file: administrative content reset
            # before the traced open (creation cost was already paid when
            # the file first came to exist).
            f.size = 0
            f.shared_pointer = 0
            if f._content is not None:
                del f._content[:]
        fd = yield from self.fs.open(
            self.node,
            path,
            access,
            create=create,
            exclusive=exclusive,
            record_size=record_size,
            parties=parties,
            cold=cold,
        )
        if at_end:
            # O_APPEND: position at EOF administratively (no seek call).
            entry = self.fs._entry(self.node, fd)
            entry.file.set_pointer(entry, entry.file.size)
        return fd

    def _op_close(self, fd: int):
        yield from self.fs.close(self.node, fd)

    # -- data path ------------------------------------------------------------
    def _op_read(self, fd: int, nbytes: int):
        if self._track:
            count, data = yield from self.fs.read(self.node, fd, nbytes, data_out=True)
            return count, data
        count = yield from self.fs.read(self.node, fd, nbytes)
        return count, None

    def _op_write(self, fd: int, payload: bytes):
        count = yield from self.fs.write(
            self.node, fd, len(payload), data=payload if self._track else None
        )
        return count

    def _op_seek(self, fd: int, offset: int, whence: int):
        whence = {0: SEEK_SET, 1: SEEK_CUR, 2: SEEK_END}[whence]
        new = yield from self.fs.seek(self.node, fd, offset, whence)
        return new

    def _op_seek_end(self, fd: int):
        # Administrative EOF positioning for append-mode writes.
        entry = self.fs._entry(self.node, fd)
        entry.file.set_pointer(entry, entry.file.size)
        return _value(None)

    def _op_rewind(self, fd: int, back: int):
        # Administrative pointer correction when a SimFile drops unread
        # lookahead (the bytes were fetched, the program never saw them).
        entry = self.fs._entry(self.node, fd)
        entry.file.set_pointer(entry, max(0, entry.file.tell(entry) - back))
        return _value(None)

    def _op_flush(self, fd: int):
        yield from self.fs.flush(self.node, fd)

    def _op_lsize(self, fd: int):
        size = yield from self.fs.lsize(self.node, fd)
        return size

    def _op_truncate(self, fd: int, size: Optional[int]):
        entry = self.fs._entry(self.node, fd)
        f = entry.file
        new = f.tell(entry) if size is None else int(size)
        if new < 0:
            raise ValueError(f"negative truncate size {new}")
        f.size = new
        if f._content is not None and len(f._content) > new:
            del f._content[new:]
        return _value(new)

    # -- async reads ----------------------------------------------------------
    def _op_aread(self, fd: int, nbytes: int):
        handle = yield from self.fs.aread(self.node, fd, nbytes)
        hid = self._next_handle
        self._next_handle += 1
        self._handles[hid] = handle
        return hid, handle.nbytes

    def _op_iowait(self, hid: int):
        handle = self._handles.pop(hid, None)
        if handle is None:
            raise ValueError(f"unknown or already-awaited async read {hid}")
        count = yield from self.fs.iowait(self.node, handle)
        data = None
        if self._track:
            f = next(
                (f for f in self.fs._files.values() if f.file_id == handle.file_id),
                None,
            )
            if f is not None and f._content is not None:
                data = f.read_content(handle.offset, count)
        return count, data

    # -- state queries (no simulated cost) --------------------------------------
    def _op_tell(self, fd: int):
        return _value(self.fs.tell(self.node, fd))

    def _op_size_of_fd(self, fd: int):
        return _value(self.fs._entry(self.node, fd).file.size)

    def _op_size_of(self, path: str):
        f = self.fs.lookup(path)
        if f is None:
            raise FileNotFound(path)
        return _value(f.size)

    def _op_exists(self, path: str):
        return _value(self.fs.exists(path))

    def _op_listdir(self):
        return _value(sorted(self.fs._files))

    def _op_now(self):
        return _value(self.env.now)

    # -- namespace / staging ---------------------------------------------------
    def _op_unlink(self, path: str):
        yield from self.fs.unlink(self.node, path)

    def _op_rename(self, old: str, new: str):
        yield from self.fs.rename(self.node, old, new)

    def _op_pipe_file(self, path: str, data: bytes):
        f = self.fs.ensure(path, size=len(data))
        if f._content is not None:
            del f._content[:]
            f.write_content(0, data)
        f.size = len(data)
        return _value(None)

    def _op_cat_file(self, path: str):
        f = self.fs.lookup(path)
        if f is None:
            raise FileNotFound(path)
        if f._content is None:
            raise ValueError(
                f"cat_file({path!r}) requires content tracking "
                "(SimMachine(track_content=True))"
            )
        return _value(f.read_content(0, f.size))

    # -- coordination -----------------------------------------------------------
    def _op_barrier(self):
        yield self._barrier.wait()

    def _op_compute(self, seconds: float):
        yield self.env.timeout(seconds)
