"""A self-describing data format (SDDF) in the style of Pablo's.

Pablo's hallmark is separating the *structure* of performance records
from their *semantics* (§3.1): a stream begins with record descriptors —
named field lists with types — followed by data records tagged with the
descriptor they instantiate.  Analysis tools parse descriptors first and
then consume any record stream without recompilation.

Two encodings are provided, as in Pablo:

* **ASCII** — descriptors and records in a human-readable bracketed
  syntax; diff-able and greppable.
* **Binary** — little-endian packing with a kind byte and tag per record;
  compact and fast.

Both round-trip exactly (property-tested).  Field types: ``double``
(float64), ``int`` (int32), ``long`` (int64), ``string`` (UTF-8).

A descriptor without a ``string`` field has a fixed binary width, so a
run of its records is one packed NumPy block
(:attr:`RecordDescriptor.packed`): the writer fills the block column by
column and the reader views it in place.  Records of descriptors with a
string field are packed field by field.
"""

from __future__ import annotations

import io
import struct
from dataclasses import dataclass
from functools import cached_property
from typing import Any, BinaryIO, Iterable, Optional, Sequence, Union

import numpy as np

__all__ = [
    "Field",
    "RecordDescriptor",
    "SDDFWriter",
    "SDDFReader",
    "SDDFError",
    "fit_column",
]

_MAGIC = b"SDDFB\x01"

#: type name -> (little-endian NumPy dtype, Python coercion)
_TYPES = {
    "double": ("<f8", float),
    "int": ("<i4", int),
    "long": ("<i8", int),
    "string": (None, str),
}

#: Records per window when scanning for the end of a packed run.  The
#: window doubles, so finding a run of n records costs O(n).
_RUN_WINDOW = 256


class SDDFError(ValueError):
    """Malformed SDDF stream or descriptor misuse."""


def fit_column(
    name: str, values: Union[np.ndarray, Sequence[Any]], dtype: Any
) -> np.ndarray:
    """``values`` cast to the numeric ``dtype``.

    Raises :class:`SDDFError` naming field ``name`` when an integer value
    falls outside ``dtype`` (checked once, on the column's min and max) or
    when an array holds values of a kind ``dtype`` cannot take.
    """
    dtype = np.dtype(dtype)
    integral = dtype.kind in "iu"
    is_array = isinstance(values, np.ndarray)
    if is_array and values.dtype.kind not in ("biu" if integral else "biuf"):
        raise SDDFError(f"field {name!r}: cannot store {values.dtype} values as {dtype}")
    if integral and len(values):
        if is_array:
            lo, hi = int(values.min()), int(values.max())
        else:
            lo, hi = min(values), max(values)
        info = np.iinfo(dtype)
        if lo < info.min or hi > info.max:
            bad = lo if lo < info.min else hi
            raise SDDFError(f"field {name!r}: {bad} does not fit {dtype}")
    return np.asarray(values, dtype=dtype)


@dataclass(frozen=True)
class Field:
    """One field of a record descriptor."""

    name: str
    type: str

    def __post_init__(self) -> None:
        if self.type not in _TYPES:
            raise SDDFError(f"unknown SDDF type {self.type!r}")
        if not self.name or '"' in self.name:
            raise SDDFError(f"bad field name {self.name!r}")


@dataclass(frozen=True)
class RecordDescriptor:
    """A named, ordered field list — the 'structure' half of SDDF."""

    name: str
    fields: tuple[Field, ...]
    tag: int = 0

    def __post_init__(self) -> None:
        if not self.name or '"' in self.name:
            raise SDDFError(f"bad descriptor name {self.name!r}")
        if not self.fields:
            raise SDDFError("descriptor needs at least one field")
        names = [f.name for f in self.fields]
        if len(set(names)) != len(names):
            raise SDDFError(f"duplicate field names in {self.name!r}")

    @staticmethod
    def build(name: str, fields: Sequence[tuple[str, str]], tag: int = 0) -> "RecordDescriptor":
        """Convenience constructor from (name, type) pairs."""
        return RecordDescriptor(name, tuple(Field(n, t) for n, t in fields), tag)

    @cached_property
    def dtype(self) -> Optional[np.dtype]:
        """One record's fields as a structured dtype named after them, or
        ``None`` when a field is a string (the record has no fixed width)."""
        if any(f.type == "string" for f in self.fields):
            return None
        return np.dtype([(f.name, _TYPES[f.type][0]) for f in self.fields])

    @cached_property
    def packed(self) -> Optional[np.dtype]:
        """One binary record: kind byte ``b"R"``, ``<i4`` tag, then the
        fields under ``values``; ``None`` when the width is not fixed."""
        if self.dtype is None:
            return None
        return np.dtype([("kind", "S1"), ("tag", "<i4"), ("values", self.dtype)])

    def validate(self, values: Sequence[Any]) -> list[Any]:
        """Coerce a value tuple against the field types."""
        if len(values) != len(self.fields):
            raise SDDFError(
                f"{self.name!r} expects {len(self.fields)} values, got {len(values)}"
            )
        out = []
        for f, v in zip(self.fields, values):
            py = _TYPES[f.type][1]
            try:
                out.append(py(v))
            except (TypeError, ValueError, OverflowError) as exc:
                raise SDDFError(f"field {f.name!r}: {exc}") from exc
        return out


#: One column per field: the field's dtype for numbers, ``str`` for strings.
_Columns = list[Union[np.ndarray, list[str]]]


class SDDFWriter:
    """Writes descriptors then records, in ASCII or binary."""

    def __init__(self, binary: bool = False):
        self.binary = binary
        self._descriptors: dict[int, RecordDescriptor] = {}
        self._buf = io.BytesIO()
        if binary:
            self._buf.write(_MAGIC)

    def declare(self, descriptor: RecordDescriptor) -> None:
        """Emit a record descriptor; must precede its records."""
        if descriptor.tag in self._descriptors:
            raise SDDFError(f"tag {descriptor.tag} already declared")
        self._descriptors[descriptor.tag] = descriptor
        if self.binary:
            self._write_binary_descriptor(descriptor)
        else:
            self._buf.write(self._ascii_descriptor(descriptor).encode())

    def record(self, tag: int, values: Sequence[Any]) -> None:
        """Emit one data record for a declared descriptor."""
        self.records(tag, (values,))

    def records(
        self, tag: int, rows: Union[np.ndarray, Iterable[Sequence[Any]]]
    ) -> None:
        """Emit many records for a declared descriptor.

        ``rows`` is a structured array, whose fields map to the
        descriptor's by position, or rows of values (a plain 2-D array
        counts as rows), which are validated.
        Nothing is written when a value does not fit its field.
        """
        desc = self._descriptors.get(tag)
        if desc is None:
            raise SDDFError(f"record for undeclared tag {tag}")
        columns = self._columns(desc, rows)
        if not self.binary:
            self._write_ascii_records(desc, columns)
        elif desc.packed is not None:
            self._write_packed_records(desc, columns)
        else:
            self._write_binary_records(desc, columns)

    def getvalue(self) -> bytes:
        return self._buf.getvalue()

    def dump(self, fileobj: BinaryIO) -> None:
        fileobj.write(self.getvalue())

    @staticmethod
    def _columns(
        desc: RecordDescriptor, rows: Union[np.ndarray, Iterable[Sequence[Any]]]
    ) -> _Columns:
        names = rows.dtype.names if isinstance(rows, np.ndarray) else None
        if names is not None:
            if len(names) != len(desc.fields):
                raise SDDFError(
                    f"{desc.name!r} expects {len(desc.fields)} columns, got {rows.dtype}"
                )
            raw: list[Any] = [rows[n] for n in names]
        else:
            valid = [desc.validate(row) for row in rows]
            raw = list(zip(*valid)) if valid else [()] * len(desc.fields)
        return [
            [str(v) for v in (col.tolist() if isinstance(col, np.ndarray) else col)]
            if f.type == "string"
            else fit_column(f.name, col, _TYPES[f.type][0])
            for f, col in zip(desc.fields, raw)
        ]

    # -- ASCII encoding ----------------------------------------------------
    @staticmethod
    def _ascii_descriptor(d: RecordDescriptor) -> str:
        lines = [f'#{d.tag}:\n"{d.name}" {{']
        for f in d.fields:
            lines.append(f'  {f.type} "{f.name}";')
        lines.append("};;\n")
        return "\n".join(lines)

    def _write_ascii_records(self, d: RecordDescriptor, columns: _Columns) -> None:
        """``#tag { a, b, … };;`` per record: ``repr`` for doubles, ``str``
        for ints, quoted and escaped strings."""
        specs, texts = [], []
        for f, col in zip(d.fields, columns):
            if f.type == "string":
                specs.append("{}")
                texts.append(
                    ['"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"' for v in col]
                )
            else:
                specs.append("{!r}" if f.type == "double" else "{}")
                texts.append(col.tolist())
        line = "#%d {{ %s }};;\n" % (d.tag, ", ".join(specs))
        self._buf.write("".join(map(line.format, *texts)).encode())

    # -- binary encoding -----------------------------------------------------
    def _write_binary_descriptor(self, d: RecordDescriptor) -> None:
        buf = self._buf
        buf.write(b"D")
        buf.write(struct.pack("<i", d.tag))
        self._pack_str(d.name)
        buf.write(struct.pack("<i", len(d.fields)))
        for f in d.fields:
            self._pack_str(f.name)
            self._pack_str(f.type)

    def _write_packed_records(self, d: RecordDescriptor, columns: _Columns) -> None:
        """Fixed-width records: one packed block, filled column by column."""
        block = np.empty(len(columns[0]), dtype=d.packed)
        block["kind"] = b"R"
        block["tag"] = d.tag
        values = block["values"]
        for f, col in zip(d.fields, columns):
            values[f.name] = col
        self._buf.write(block.tobytes())

    def _write_binary_records(self, d: RecordDescriptor, columns: _Columns) -> None:
        """Records with a string field, packed field by field."""
        head = b"R" + struct.pack("<i", d.tag)
        for i in range(len(columns[0])):
            self._buf.write(head)
            for f, col in zip(d.fields, columns):
                if f.type == "string":
                    self._pack_str(col[i])
                else:
                    self._buf.write(col[i : i + 1].tobytes())

    def _pack_str(self, s: str) -> None:
        raw = s.encode("utf-8")
        self._buf.write(struct.pack("<i", len(raw)))
        self._buf.write(raw)


class SDDFReader:
    """Parses an SDDF byte stream (auto-detects ASCII vs binary).

    After :meth:`parse`, ``descriptors`` maps tag -> descriptor,
    :meth:`rows` gives one tag's records as value tuples and
    :meth:`array` as one structured array (fixed-width descriptors only).
    ``records`` maps every tag to its rows.
    """

    def __init__(self, data: bytes):
        self.data = data
        self.descriptors: dict[int, RecordDescriptor] = {}
        #: tag -> records in stream order: a packed run's ``values`` view
        #: (binary, fixed width) or one record's value tuple.
        self._parts: dict[int, list[Union[np.ndarray, tuple]]] = {}

    def parse(self) -> "SDDFReader":
        if self.data.startswith(_MAGIC):
            self._parse_binary()
        else:
            self._parse_ascii()
        return self

    @property
    def records(self) -> dict[int, list[tuple]]:
        """tag -> list of value tuples, for every declared tag."""
        return {tag: self.rows(tag) for tag in self.descriptors}

    def rows(self, tag: int) -> list[tuple]:
        """One tag's records as value tuples, in stream order."""
        out: list[tuple] = []
        for part in self._parts_of(tag):
            if isinstance(part, np.ndarray):
                out.extend(part.tolist())
            else:
                out.append(part)
        return out

    def array(self, tag: int) -> np.ndarray:
        """One tag's records as an array of the descriptor's
        :attr:`~RecordDescriptor.dtype`; a single binary run is a
        zero-copy view of :attr:`data`."""
        parts = self._parts_of(tag)
        desc = self.descriptors[tag]
        if desc.dtype is None:
            raise SDDFError(f"{desc.name!r} has a string field; read it with rows()")
        if not parts:
            return np.empty(0, dtype=desc.dtype)
        if all(isinstance(part, np.ndarray) for part in parts):
            return parts[0] if len(parts) == 1 else np.concatenate(parts)
        rows = self.rows(tag)
        out = np.empty(len(rows), dtype=desc.dtype)
        for f, col in zip(desc.fields, zip(*rows)):
            out[f.name] = fit_column(f.name, col, desc.dtype[f.name])
        return out

    def _parts_of(self, tag: int) -> list[Union[np.ndarray, tuple]]:
        if tag not in self._parts:
            raise SDDFError(f"no descriptor for tag {tag}")
        return self._parts[tag]

    def _declare(self, desc: RecordDescriptor) -> None:
        if desc.tag in self.descriptors:
            raise SDDFError(f"tag {desc.tag} declared twice")
        self.descriptors[desc.tag] = desc
        self._parts[desc.tag] = []

    # -- binary ------------------------------------------------------------
    def _parse_binary(self) -> None:
        buf = io.BytesIO(self.data)
        buf.read(len(_MAGIC))
        while True:
            kind = buf.read(1)
            if not kind:
                break
            if kind == b"D":
                tag = self._unpack_int(buf)
                name = self._unpack_str(buf)
                nfields = self._unpack_int(buf)
                fields = tuple(
                    Field(self._unpack_str(buf), self._unpack_str(buf))
                    for _ in range(nfields)
                )
                self._declare(RecordDescriptor(name, fields, tag))
            elif kind == b"R":
                tag = self._unpack_int(buf)
                desc = self.descriptors.get(tag)
                if desc is None:
                    raise SDDFError(f"record before descriptor for tag {tag}")
                if desc.packed is None:
                    self._parts[tag].append(self._unpack_record(buf, desc))
                else:
                    start = buf.tell() - 5
                    run = self._packed_run(start, desc)
                    self._parts[tag].append(run["values"])
                    buf.seek(start + len(run) * desc.packed.itemsize)
            else:
                raise SDDFError(f"bad chunk kind {kind!r}")

    def _packed_run(self, start: int, desc: RecordDescriptor) -> np.ndarray:
        """The whole records of ``desc`` from ``start`` up to the first
        chunk that is not one, viewed in place."""
        dtype = desc.packed
        avail = (len(self.data) - start) // dtype.itemsize
        n, window = 0, _RUN_WINDOW
        while n < avail:
            k = min(window, avail - n)
            view = np.frombuffer(self.data, dtype, count=k, offset=start + n * dtype.itemsize)
            ours = (view["kind"] == b"R") & (view["tag"] == desc.tag)
            if not ours.all():
                n += int(ours.argmin())
                break
            n += k
            window *= 2
        if n == 0:
            raise SDDFError("truncated binary record")
        return np.frombuffer(self.data, dtype, count=n, offset=start)

    @classmethod
    def _unpack_record(cls, buf: io.BytesIO, desc: RecordDescriptor) -> tuple:
        vals: list[Any] = []
        for f in desc.fields:
            code = _TYPES[f.type][0]
            if code is None:
                vals.append(cls._unpack_str(buf))
                continue
            size = np.dtype(code).itemsize
            raw = buf.read(size)
            if len(raw) != size:
                raise SDDFError("truncated binary record")
            vals.append(np.frombuffer(raw, code).item())
        return tuple(vals)

    @staticmethod
    def _unpack_int(buf: io.BytesIO) -> int:
        raw = buf.read(4)
        if len(raw) != 4:
            raise SDDFError("truncated stream")
        return struct.unpack("<i", raw)[0]

    @classmethod
    def _unpack_str(cls, buf: io.BytesIO) -> str:
        n = cls._unpack_int(buf)
        if n < 0:
            raise SDDFError(f"negative string length {n}")
        raw = buf.read(n)
        if len(raw) != n:
            raise SDDFError("truncated string")
        try:
            return raw.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise SDDFError(f"bad string: {exc}") from exc

    # -- ASCII ---------------------------------------------------------------
    def _parse_ascii(self) -> None:
        text = self.data.decode("utf-8")
        pos = 0
        n = len(text)
        while pos < n:
            while pos < n and text[pos] in " \t\r\n":
                pos += 1
            if pos >= n:
                break
            if text[pos] != "#":
                raise SDDFError(f"expected '#' at position {pos}")
            pos += 1
            num_end = pos
            while num_end < n and (text[num_end].isdigit() or text[num_end] == "-"):
                num_end += 1
            tag = int(text[pos:num_end])
            pos = num_end
            while pos < n and text[pos] in " \t\r\n":
                pos += 1
            if pos < n and text[pos] == ":":
                pos = self._parse_ascii_descriptor(text, pos + 1, tag)
            else:
                pos = self._parse_ascii_record(text, pos, tag)

    def _parse_ascii_descriptor(self, text: str, pos: int, tag: int) -> int:
        name, pos = self._ascii_string(text, pos)
        pos = self._expect(text, pos, "{")
        fields = []
        while True:
            pos = self._skip_ws(text, pos)
            if text[pos] == "}":
                pos += 1
                break
            tend = pos
            while text[tend] not in " \t\r\n":
                tend += 1
            ftype = text[pos:tend]
            fname, pos = self._ascii_string(text, tend)
            pos = self._expect(text, pos, ";")
            fields.append(Field(fname, ftype))
        pos = self._expect(text, pos, ";;")
        self._declare(RecordDescriptor(name, tuple(fields), tag))
        return pos

    def _parse_ascii_record(self, text: str, pos: int, tag: int) -> int:
        desc = self.descriptors.get(tag)
        if desc is None:
            raise SDDFError(f"record before descriptor for tag {tag}")
        pos = self._expect(text, pos, "{")
        vals: list[Any] = []
        for i, f in enumerate(desc.fields):
            pos = self._skip_ws(text, pos)
            if f.type == "string":
                s, pos = self._ascii_string(text, pos)
                vals.append(s)
            else:
                vend = pos
                while text[vend] not in ",}":
                    vend += 1
                token = text[pos:vend].strip()
                vals.append(float(token) if f.type == "double" else int(token))
                pos = vend
            pos = self._skip_ws(text, pos)
            if i < len(desc.fields) - 1:
                pos = self._expect(text, pos, ",")
        pos = self._expect(text, pos, "}")
        pos = self._expect(text, pos, ";;")
        self._parts[tag].append(tuple(vals))
        return pos

    @staticmethod
    def _skip_ws(text: str, pos: int) -> int:
        while pos < len(text) and text[pos] in " \t\r\n":
            pos += 1
        return pos

    @classmethod
    def _expect(cls, text: str, pos: int, token: str) -> int:
        pos = cls._skip_ws(text, pos)
        if not text.startswith(token, pos):
            raise SDDFError(f"expected {token!r} at position {pos}")
        return pos + len(token)

    @classmethod
    def _ascii_string(cls, text: str, pos: int) -> tuple[str, int]:
        pos = cls._skip_ws(text, pos)
        if text[pos] != '"':
            raise SDDFError(f"expected string at position {pos}")
        pos += 1
        out = []
        while True:
            ch = text[pos]
            if ch == "\\":
                out.append(text[pos + 1])
                pos += 2
            elif ch == '"':
                pos += 1
                break
            else:
                out.append(ch)
                pos += 1
        return "".join(out), pos
