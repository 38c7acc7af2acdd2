"""SDDF codec tests: descriptors, both encodings, property round-trips,
the columnar writer against the per-record reference, and byte pins."""

import functools
import hashlib
import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import paper_experiment, small_experiment
from repro.pablo import (
    EVENT_DTYPE,
    Field,
    Op,
    RecordDescriptor,
    SDDFError,
    SDDFReader,
    SDDFWriter,
    Trace,
)
from repro.pablo.trace import _META_DESCRIPTOR, IO_EVENT_DESCRIPTOR


DESC = RecordDescriptor.build(
    "Sample",
    [("t", "double"), ("node", "int"), ("bytes", "long"), ("name", "string")],
    tag=7,
)


class TestDescriptors:
    def test_build_convenience(self):
        assert DESC.name == "Sample"
        assert [f.type for f in DESC.fields] == ["double", "int", "long", "string"]

    def test_unknown_type_rejected(self):
        with pytest.raises(SDDFError):
            Field("x", "float128")

    def test_duplicate_field_names_rejected(self):
        with pytest.raises(SDDFError):
            RecordDescriptor.build("D", [("a", "int"), ("a", "int")])

    def test_empty_fields_rejected(self):
        with pytest.raises(SDDFError):
            RecordDescriptor("D", ())

    def test_validate_coerces(self):
        assert DESC.validate(["1.5", "2", "3", 4]) == [1.5, 2, 3, "4"]

    def test_validate_wrong_arity(self):
        with pytest.raises(SDDFError):
            DESC.validate([1.0, 2])

    def test_validate_uncoercible(self):
        with pytest.raises(SDDFError):
            DESC.validate(["not-a-number", 0, 0, "x"])


class TestWriterReader:
    @pytest.mark.parametrize("binary", [False, True])
    def test_roundtrip_basic(self, binary):
        w = SDDFWriter(binary=binary)
        w.declare(DESC)
        rows = [(1.5, 3, 12345678901, "alpha"), (2.5, -1, 0, "beta")]
        w.records(7, rows)
        r = SDDFReader(w.getvalue()).parse()
        assert r.descriptors[7].name == "Sample"
        assert r.records[7] == rows

    def test_record_before_declare_rejected(self):
        w = SDDFWriter()
        with pytest.raises(SDDFError):
            w.record(7, (1.0, 2, 3, "x"))

    def test_duplicate_tag_rejected(self):
        w = SDDFWriter()
        w.declare(DESC)
        with pytest.raises(SDDFError):
            w.declare(RecordDescriptor.build("Other", [("a", "int")], tag=7))

    def test_multiple_descriptors_interleaved(self):
        a = RecordDescriptor.build("A", [("x", "int")], tag=1)
        b = RecordDescriptor.build("B", [("y", "double")], tag=2)
        w = SDDFWriter()
        w.declare(a)
        w.declare(b)
        w.record(1, (10,))
        w.record(2, (0.5,))
        w.record(1, (20,))
        r = SDDFReader(w.getvalue()).parse()
        assert r.records[1] == [(10,), (20,)]
        assert r.records[2] == [(0.5,)]

    def test_ascii_output_is_readable_text(self):
        w = SDDFWriter(binary=False)
        w.declare(DESC)
        w.record(7, (1.0, 2, 3, "hello"))
        text = w.getvalue().decode("utf-8")
        assert '"Sample"' in text
        assert '"hello"' in text
        assert "double" in text

    def test_string_escaping(self):
        w = SDDFWriter(binary=False)
        desc = RecordDescriptor.build("S", [("s", "string")], tag=1)
        w.declare(desc)
        tricky = 'quote " and backslash \\ end'
        w.record(1, (tricky,))
        r = SDDFReader(w.getvalue()).parse()
        assert r.records[1] == [(tricky,)]

    def test_truncated_binary_rejected(self):
        w = SDDFWriter(binary=True)
        w.declare(DESC)
        w.record(7, (1.0, 2, 3, "x"))
        data = w.getvalue()
        with pytest.raises(SDDFError):
            SDDFReader(data[:-3]).parse()

    def test_binary_record_before_descriptor_rejected(self):
        # Craft: magic + record chunk with unknown tag.
        w = SDDFWriter(binary=True)
        w.declare(DESC)
        w.record(7, (1.0, 2, 3, "x"))
        good = w.getvalue()
        # Strip the descriptor chunk: magic is 6 bytes, then b"D"...
        record_at = good.index(b"R")
        bad = good[:6] + good[record_at:]
        with pytest.raises(SDDFError):
            SDDFReader(bad).parse()

    def test_empty_stream_parses(self):
        r = SDDFReader(b"").parse()
        assert r.records == {}


_value_strategies = {
    "double": st.floats(allow_nan=False, allow_infinity=False, width=64),
    "int": st.integers(min_value=-(2**31), max_value=2**31 - 1),
    "long": st.integers(min_value=-(2**63), max_value=2**63 - 1),
    "string": st.text(max_size=40),
}


@st.composite
def descriptor_and_rows(draw):
    n_fields = draw(st.integers(1, 6))
    types = [
        draw(st.sampled_from(["double", "int", "long", "string"]))
        for _ in range(n_fields)
    ]
    fields = [(f"f{i}", t) for i, t in enumerate(types)]
    desc = RecordDescriptor.build("Gen", fields, tag=draw(st.integers(0, 100)))
    n_rows = draw(st.integers(0, 20))
    rows = [
        tuple(draw(_value_strategies[t]) for t in types) for _ in range(n_rows)
    ]
    return desc, rows


class TestRoundtripProperties:
    @given(descriptor_and_rows(), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_any_schema_roundtrips(self, desc_rows, binary):
        desc, rows = desc_rows
        w = SDDFWriter(binary=binary)
        w.declare(desc)
        w.records(desc.tag, rows)
        r = SDDFReader(w.getvalue()).parse()
        assert r.descriptors[desc.tag].fields == desc.fields
        assert r.records[desc.tag] == rows

    @given(descriptor_and_rows())
    @settings(max_examples=50, deadline=None)
    def test_ascii_and_binary_agree(self, desc_rows):
        desc, rows = desc_rows
        outputs = []
        for binary in (False, True):
            w = SDDFWriter(binary=binary)
            w.declare(desc)
            w.records(desc.tag, rows)
            outputs.append(SDDFReader(w.getvalue()).parse().records[desc.tag])
        assert outputs[0] == outputs[1]


# -- columnar writers against the per-record reference ------------------------


class ReferenceWriter:
    """The per-record, per-field SDDF writer the columnar one replaced:
    validate each row, then ``struct.pack`` (binary) or format (ASCII)
    one field at a time.  The byte-for-byte oracle for :class:`SDDFWriter`."""

    _CODES = {"double": "d", "int": "i", "long": "q", "string": None}

    def __init__(self, binary):
        self.binary = binary
        self.descriptors = {}
        self.buf = io.BytesIO()
        if binary:
            self.buf.write(b"SDDFB\x01")

    def declare(self, d):
        self.descriptors[d.tag] = d
        if self.binary:
            self.buf.write(b"D" + struct.pack("<i", d.tag))
            self._str(d.name)
            self.buf.write(struct.pack("<i", len(d.fields)))
            for f in d.fields:
                self._str(f.name)
                self._str(f.type)
        else:
            lines = [f'#{d.tag}:\n"{d.name}" {{']
            lines += [f'  {f.type} "{f.name}";' for f in d.fields]
            lines.append("};;\n")
            self.buf.write("\n".join(lines).encode())

    def record(self, tag, values):
        d = self.descriptors[tag]
        vals = d.validate(values)
        if self.binary:
            self.buf.write(b"R" + struct.pack("<i", tag))
            for f, v in zip(d.fields, vals):
                code = self._CODES[f.type]
                if code is None:
                    self._str(v)
                else:
                    self.buf.write(struct.pack("<" + code, v))
            return
        parts = []
        for f, v in zip(d.fields, vals):
            if f.type == "string":
                parts.append('"' + v.replace("\\", "\\\\").replace('"', '\\"') + '"')
            elif f.type == "double":
                parts.append(repr(float(v)))
            else:
                parts.append(str(int(v)))
        self.buf.write(f'#{tag} {{ {", ".join(parts)} }};;\n'.encode())

    def _str(self, s):
        raw = s.encode("utf-8")
        self.buf.write(struct.pack("<i", len(raw)) + raw)

    def getvalue(self):
        return self.buf.getvalue()


def reference_trace_bytes(trace, binary):
    ref = ReferenceWriter(binary)
    ref.declare(_META_DESCRIPTOR)
    ref.declare(IO_EVENT_DESCRIPTOR)
    ref.record(0, (trace.application, trace.nodes, trace.comment))
    for row in trace.events.tolist():
        ref.record(1, row)
    return ref.getvalue()


#: Float bit patterns the writers must carry unchanged: NaNs with payloads
#: and either sign (quiet and signalling), ±0, ±inf, subnormals, extremes.
_SPECIAL_FLOAT_BITS = [
    0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001,
    0xFFF00000DEADBEEF, 0x7FFFFFFFFFFFFFFF, 0x7FF8000000000123,
    0x0000000000000000, 0x8000000000000000, 0x7FF0000000000000,
    0xFFF0000000000000, 0x0000000000000001, 0x800FFFFFFFFFFFFF,
    0x7FEFFFFFFFFFFFFF, 0xFFEFFFFFFFFFFFFF,
]

_float_bits = st.one_of(st.sampled_from(_SPECIAL_FLOAT_BITS), st.integers(0, 2**64 - 1))


def _int_column(lo, hi):
    return st.one_of(st.sampled_from([lo, hi, 0 if lo <= 0 else lo]), st.integers(lo, hi))


#: Per EVENT_DTYPE column: values that fit both it and the descriptor field.
_EVENT_COLUMNS = {
    "node": _int_column(0, 2**31 - 1),
    "op": _int_column(0, 255),
    "file_id": _int_column(-(2**31), 2**31 - 1),
    "offset": _int_column(-(2**63), 2**63 - 1),
    "nbytes": _int_column(-(2**63), 2**63 - 1),
}


@st.composite
def event_traces(draw, max_events=25):
    n = draw(st.integers(0, max_events))
    events = np.zeros(n, dtype=EVENT_DTYPE)
    for name in ("timestamp", "duration"):
        bits = draw(st.lists(_float_bits, min_size=n, max_size=n))
        events[name] = np.array(bits, dtype=np.uint64).view(np.float64)
    for name, values in _EVENT_COLUMNS.items():
        events[name] = draw(st.lists(values, min_size=n, max_size=n))
    trace = Trace(draw(st.text(max_size=8)), nodes=draw(st.integers(0, 2**31 - 1)))
    trace.extend(events)
    return trace


class TestColumnarWriterMatchesReference:
    @given(event_traces(), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_trace_bytes_identical(self, trace, binary):
        assert trace.to_sddf(binary=binary) == reference_trace_bytes(trace, binary)

    @pytest.mark.parametrize("binary", [False, True])
    def test_empty_trace(self, binary):
        trace = Trace("empty")
        assert trace.to_sddf(binary=binary) == reference_trace_bytes(trace, binary)
        assert len(Trace.from_sddf(trace.to_sddf(binary=binary))) == 0

    @given(event_traces())
    @settings(max_examples=60, deadline=None)
    def test_binary_load_keeps_every_bit(self, trace):
        again = Trace.from_sddf(trace.to_sddf(binary=True))
        assert again.content_hash() == trace.content_hash()
        assert (again.application, again.nodes) == (trace.application, trace.nodes)

    @given(
        st.lists(
            st.tuples(
                st.sampled_from([1, 2, 3]),
                _float_bits,
                st.integers(-(2**31), 2**31 - 1),
                st.text(max_size=6),
            ),
            max_size=30,
        ),
        st.booleans(),
    )
    @settings(max_examples=100, deadline=None)
    def test_interleaved_tags(self, records, binary):
        """Records of three descriptors (two fixed-width, one with a string)
        interleaved one at a time, then re-read run by run."""
        descs = {
            1: RecordDescriptor.build("A", [("x", "double"), ("n", "int")], tag=1),
            2: RecordDescriptor.build("B", [("n", "long")], tag=2),
            3: RecordDescriptor.build("C", [("s", "string"), ("x", "double")], tag=3),
        }
        w, ref = SDDFWriter(binary=binary), ReferenceWriter(binary)
        for d in descs.values():
            w.declare(d)
            ref.declare(d)
        expect = {tag: [] for tag in descs}
        for tag, bits, n, s in records:
            x = float(np.array([bits], dtype=np.uint64).view(np.float64)[0])
            row = {1: (x, n), 2: (n,), 3: (s, x)}[tag]
            w.record(tag, row)
            ref.record(tag, row)
            expect[tag].append(row)
        data = w.getvalue()
        assert data == ref.getvalue()
        got = SDDFReader(data).parse().records
        if binary:  # ASCII spells every NaN 'nan'; binary keeps the bits
            assert np.array(got[1], dtype=descs[1].dtype).tobytes() == np.array(
                expect[1], dtype=descs[1].dtype
            ).tobytes()
            assert got[2] == expect[2]
            assert [r[0] for r in got[3]] == [r[0] for r in expect[3]]

    def test_array_and_rows_write_the_same_bytes(self):
        desc = RecordDescriptor.build("A", [("x", "double"), ("n", "int")], tag=4)
        rows = [(0.5, -3), (-0.0, 2**31 - 1)]
        arr = np.array(rows, dtype=[("a", "f8"), ("b", "i8")])
        plain = np.array([(0.5, -3), (-0.0, 2**31 - 1)], dtype=np.float64)
        for binary in (False, True):
            outs = []
            for payload in (rows, arr, plain):
                w = SDDFWriter(binary=binary)
                w.declare(desc)
                w.records(4, payload)
                outs.append(w.getvalue())
            assert outs[0] == outs[1] == outs[2]


# -- typed range and kind errors ------------------------------------------------


class TestRangeErrors:
    @pytest.mark.parametrize("binary", [False, True])
    def test_node_outside_int_is_typed(self, binary):
        trace = Trace("t")
        trace.add(0.0, 2**31, Op.READ, 3, 0, 10, 0.1)
        with pytest.raises(SDDFError, match="'node'"):
            trace.to_sddf(binary=binary)

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize(
        "index,value,field",
        [(1, -(2**31) - 1, "n"), (1, 2**31, "n"), (2, 2**63, "m"), (2, -(2**63) - 1, "m")],
    )
    def test_rows_outside_field_range(self, binary, index, value, field):
        desc = RecordDescriptor.build(
            "R", [("x", "double"), ("n", "int"), ("m", "long")], tag=1
        )
        row = [0.0, 0, 0]
        row[index] = value
        w = SDDFWriter(binary=binary)
        w.declare(desc)
        before = w.getvalue()
        with pytest.raises(SDDFError, match=repr(field)):
            w.records(1, [(1.0, 1, 1), tuple(row)])
        assert w.getvalue() == before  # nothing of the failed call is written

    def test_string_record_int_range(self):
        w = SDDFWriter(binary=True)
        w.declare(_META_DESCRIPTOR)
        with pytest.raises(SDDFError, match="'nodes'"):
            w.record(0, ("app", 2**31, ""))

    def test_array_of_wrong_kind_rejected(self):
        desc = RecordDescriptor.build("R", [("n", "int")], tag=1)
        w = SDDFWriter(binary=True)
        w.declare(desc)
        with pytest.raises(SDDFError, match="'n'"):
            w.records(1, np.zeros(2, dtype=[("n", "f8")]))
        with pytest.raises(SDDFError):
            w.records(1, np.zeros(2, dtype=[("n", "i4"), ("k", "i4")]))

    @pytest.mark.parametrize("binary", [False, True])
    @pytest.mark.parametrize(
        "row,field",
        [
            ((0.0, -1, 0, 0, 0, 0, 0.0), "node"),
            ((0.0, 0, 256, 0, 0, 0, 0.0), "op"),
            ((0.0, 0, -1, 0, 0, 0, 0.0), "op"),
        ],
    )
    def test_from_sddf_value_outside_event_dtype(self, binary, row, field):
        w = SDDFWriter(binary=binary)
        w.declare(IO_EVENT_DESCRIPTOR)
        w.record(1, row)
        with pytest.raises(SDDFError, match=repr(field)):
            Trace.from_sddf(w.getvalue())

    def test_from_sddf_foreign_event_shape(self):
        w = SDDFWriter(binary=True)
        w.declare(RecordDescriptor.build("Short", [("t", "double")], tag=1))
        w.record(1, (1.0,))
        with pytest.raises(SDDFError):
            Trace.from_sddf(w.getvalue())


# -- reader: packed runs and their failure modes ----------------------------------


def _event_stream(n=40):
    trace = Trace("r", nodes=4)
    for k in range(n):
        trace.add(float(k), k % 4, Op.WRITE, 3, k * 100, 100, 0.5)
    return trace, trace.to_sddf(binary=True)


class TestPackedReader:
    RECORD = IO_EVENT_DESCRIPTOR.packed.itemsize

    def test_event_record_width(self):
        # kind byte + tag + double, 3 x int, 2 x long, double
        assert self.RECORD == 1 + 4 + 8 + 3 * 4 + 2 * 8 + 8
        assert IO_EVENT_DESCRIPTOR.packed.names == ("kind", "tag", "values")
        assert _META_DESCRIPTOR.packed is None

    def test_truncated_mid_record(self):
        trace, data = _event_stream()
        for cut in (1, self.RECORD // 2, self.RECORD - 1, self.RECORD + 7):
            with pytest.raises(SDDFError, match="truncated"):
                SDDFReader(data[:-cut]).parse()

    def test_bad_kind_byte_mid_block(self):
        trace, data = _event_stream()
        first = len(data) - len(trace) * self.RECORD
        bad = bytearray(data)
        bad[first + 17 * self.RECORD] = ord("X")
        with pytest.raises(SDDFError, match="bad chunk kind"):
            SDDFReader(bytes(bad)).parse()

    def test_undeclared_tag_mid_block(self):
        trace, data = _event_stream()
        first = len(data) - len(trace) * self.RECORD
        bad = bytearray(data)
        bad[first + 9 * self.RECORD + 1 : first + 9 * self.RECORD + 5] = struct.pack("<i", 99)
        with pytest.raises(SDDFError, match="tag 99"):
            SDDFReader(bytes(bad)).parse()

    def test_long_run_spans_scan_windows(self):
        trace, data = _event_stream(n=1500)
        r = SDDFReader(data).parse()
        assert len(r.array(1)) == 1500
        assert r.rows(1) == [tuple(row) for row in trace.events.tolist()]
        assert Trace.from_sddf(data).content_hash() == trace.content_hash()

    def test_runs_split_by_other_tags_concatenate(self):
        a = RecordDescriptor.build("A", [("n", "int")], tag=1)
        b = RecordDescriptor.build("B", [("n", "int")], tag=2)
        w = SDDFWriter(binary=True)
        w.declare(a)
        w.declare(b)
        for k in range(10):
            w.record(1 + (k % 3 == 0), (k,))
        r = SDDFReader(w.getvalue()).parse()
        assert r.array(1)["n"].tolist() == [k for k in range(10) if k % 3]
        assert r.rows(2) == [(k,) for k in range(10) if k % 3 == 0]

    def test_string_descriptor_has_no_array(self):
        w = SDDFWriter(binary=True)
        w.declare(DESC)
        r = SDDFReader(w.getvalue()).parse()
        with pytest.raises(SDDFError):
            r.array(7)

    def test_undecodable_name_is_typed(self):
        bad = b"SDDFB\x01D" + struct.pack("<i", 1) + struct.pack("<i", 2) + b"\xff\xfe"
        with pytest.raises(SDDFError, match="bad string"):
            SDDFReader(bad).parse()

    def test_redeclared_tag_rejected(self):
        w = SDDFWriter(binary=True)
        w.declare(DESC)
        data = w.getvalue()
        with pytest.raises(SDDFError, match="declared twice"):
            SDDFReader(data + data[6:]).parse()


# -- byte pins: the SDDF bytes did not move ------------------------------------------


def _sha(data):
    return hashlib.sha256(data).hexdigest()[:16]


#: sha256 prefixes of the small-scale apps' SDDF, (binary, ASCII) per trace.
SMALL_PINS = {
    "escat": {"escat": ("5455c0a89dcbd83e", "4541349f113003c8")},
    "render": {"render": ("afbdbba40e2f77f1", "618bb62ce7c8cd96")},
    "htf": {
        "psetup": ("266c6c153c9dcd12", "9df60ad93d0c16b3"),
        "pargos": ("17fe0fb0a3521be9", "3c5e13da007d7ec6"),
        "pscf": ("5835be4e7dd369d9", "f103826012c05299"),
    },
    "checkpoint": {"checkpoint": ("147b3dcc87d52e60", "604b28b4c6cc30f7")},
}


class TestBytePins:
    @pytest.mark.parametrize("app", sorted(SMALL_PINS))
    def test_small_apps(self, app):
        traces = small_experiment(app).run().traces
        got = {
            name: (_sha(t.to_sddf(binary=True)), _sha(t.to_sddf(binary=False)))
            for name, t in traces.items()
        }
        assert got == SMALL_PINS[app]

    def test_escat_ppfs_production(self):
        """The ledger's ``escat-ppfs`` workload at seed 1995: 109,902 events."""
        from repro.apps.escat import EscatConfig
        from repro.apps.workloads import production_machine
        from repro.ppfs.policies import PPFSPolicies

        trace = paper_experiment(
            "escat",
            machine_factory=functools.partial(production_machine, seed=1995),
            config=EscatConfig(nodes=512),
            filesystem="ppfs",
            policies=PPFSPolicies.from_name("escat_tuned"),
        ).run().traces["escat"]
        assert len(trace) == 109_902
        binary = trace.to_sddf(binary=True)
        assert _sha(binary) == "cc4c36deeb98101f"
        assert _sha(trace.to_sddf(binary=False)) == "4e1e98be32277348"
        assert Trace.from_sddf(binary).content_hash() == trace.content_hash()

    @pytest.mark.parametrize("app", ["escat", "render", "htf", "checkpoint"])
    def test_paper_scale_save_load(self, app, paper_run, tmp_path):
        for name, trace in paper_run(app).traces.items():
            path = str(tmp_path / f"{name}.sddf")
            trace.save(path)
            assert Trace.load(path).content_hash() == trace.content_hash()
