#!/usr/bin/env python3
"""Pretty-prints a Graft job's trace files and manifest index.

Reads the LocalDirTraceStore layout (DESIGN.md §10) without any knowledge of
the job's Traits types — exactly the forward-compatibility the v2 record
frame buys: every record carries (version, kind, superstep, vertex_id) in a
length-prefixed header, so generic tooling can classify records while
skipping fields (and whole records) from builds it has never seen.

Also decodes the checkpoint layout (DESIGN.md §12) when the root contains
`checkpoints/JOB_ID`: checkpoint metas (full and delta), delta value parts,
packed-topology epoch parts, and outbox/aggregator log records. Vertex,
edge, and message payloads are Traits-typed and therefore opaque to this
tool; they are summarized by length.

Usage:
  tools/trace_dump.py TRACE_ROOT            # list jobs
  tools/trace_dump.py TRACE_ROOT JOB_ID     # dump one job
  tools/trace_dump.py TRACE_ROOT JOB_ID --records  # include per-record rows

Store framing (LocalDirTraceStore): each file is a sequence of
[record_size varint][record bytes]. Record framing (v2): [magic 0xA7]
[header_len varint][header: version u8, kind u8, superstep svarint,
vertex_id svarint, ...future fields...][body]. Records whose first byte is
not the magic are seed-format ("v0") bodies. Exits non-zero on truncated
store framing — store corruption is fatal; unknown record versions/kinds are
reported and skipped, matching the C++ readers.
"""

import argparse
import os
import sys

MAGIC = 0xA7
FORMAT_VERSION = 2
KIND_NAMES = {0: "vertex", 1: "master", 2: "manifest"}


class ParseError(Exception):
    pass


class Reader:
    """Varint/zigzag cursor over bytes, mirroring common/binary_io.h."""

    def __init__(self, data, name="<buffer>"):
        self.data = data
        self.pos = 0
        self.name = name

    def remaining(self):
        return len(self.data) - self.pos

    def u8(self):
        if self.remaining() < 1:
            raise ParseError(f"{self.name}: truncated u8 at {self.pos}")
        b = self.data[self.pos]
        self.pos += 1
        return b

    def varint(self):
        result = 0
        shift = 0
        while True:
            b = self.u8()
            result |= (b & 0x7F) << shift
            if not b & 0x80:
                return result
            shift += 7
            if shift > 63:
                raise ParseError(f"{self.name}: varint too long at {self.pos}")

    def svarint(self):
        z = self.varint()
        return (z >> 1) ^ -(z & 1)

    def raw(self, n):
        if self.remaining() < n:
            raise ParseError(
                f"{self.name}: truncated read of {n} bytes at {self.pos}")
        out = self.data[self.pos:self.pos + n]
        self.pos += n
        return out


def store_records(path):
    """Yields the raw records of one LocalDirTraceStore file."""
    with open(path, "rb") as f:
        reader = Reader(f.read(), name=path)
    while reader.remaining() > 0:
        size = reader.varint()
        yield reader.raw(size)


def parse_frame(record, name):
    """Returns (header dict | None, body). None header means seed-format."""
    if not record:
        raise ParseError(f"{name}: empty record")
    if record[0] != MAGIC:
        return None, record
    reader = Reader(record, name=name)
    reader.u8()  # magic
    header_len = reader.varint()
    header_bytes = reader.raw(header_len)
    body = record[reader.pos:]
    h = Reader(header_bytes, name=f"{name} header")
    header = {"version": h.u8(), "kind": h.u8()}
    # Fields past the ones we know are future extensions: skipped, by design.
    header["superstep"] = h.svarint() if h.remaining() else 0
    header["vertex_id"] = h.svarint() if h.remaining() else 0
    header["extra_header_bytes"] = h.remaining()
    return header, body


def parse_manifest(body, name):
    reader = Reader(body, name=name)
    count = reader.varint()
    entries = []
    for _ in range(count):
        entries.append({
            "kind": reader.u8(),
            "superstep": reader.svarint(),
            "vertex_id": reader.svarint(),
            "worker": reader.svarint(),
            "record_index": reader.varint(),
        })
    return entries


def kind_name(kind):
    return KIND_NAMES.get(kind, f"unknown({kind})")


def describe_record(header, body):
    if header is None:
        return f"v0 legacy body ({len(body)} bytes)"
    skip = (header["version"] > FORMAT_VERSION
            or header["kind"] not in KIND_NAMES)
    parts = [
        f"v{header['version']}",
        kind_name(header["kind"]),
        f"superstep={header['superstep']}",
        f"vertex={header['vertex_id']}",
        f"body={len(body)}B",
    ]
    if header["extra_header_bytes"]:
        parts.append(f"+{header['extra_header_bytes']}B future header fields")
    if skip:
        parts.append("SKIPPED (future version/kind)")
    return " ".join(parts)


def dump_manifest(job_dir, job):
    """Prints the manifest, one line per captured superstep."""
    path = os.path.join(job_dir, "manifest.idx")
    if not os.path.exists(path):
        print("manifest: absent (crashed run or pre-v2 job; "
              "readers fall back to directory scans)")
        return
    records = list(store_records(path))
    if not records:
        print("manifest: empty file")
        return
    header, body = parse_frame(records[-1], path)
    if header is None or header["kind"] != 2:
        raise ParseError(f"{path}: not a manifest record")
    entries = parse_manifest(body, path)
    print(f"manifest: {len(entries)} entries "
          f"(v{header['version']}, {len(body)} body bytes)")
    by_step = {}
    for e in entries:
        by_step.setdefault(e["superstep"], []).append(e)
    for step in sorted(by_step):
        vertex = [e for e in by_step[step] if e["kind"] == 0]
        master = [e for e in by_step[step] if e["kind"] == 1]
        ids = ", ".join(str(e["vertex_id"]) for e in vertex[:8])
        if len(vertex) > 8:
            ids += f", ... ({len(vertex)} total)"
        line = f"  superstep {step:>4}: {len(vertex)} vertex"
        if ids:
            line += f" [{ids}]"
        workers = sorted({e["worker"] for e in vertex})
        if workers:
            line += " workers[" + ", ".join(f"w{w}" for w in workers) + "]"
        if master:
            line += f" + master"
        print(line)


def read_string(reader):
    return reader.raw(reader.varint())


CHECKPOINT_MODES = {0: "full", 1: "delta"}
AGG_TAGS = {0: "null", 1: "int", 2: "double", 3: "bool", 4: "text"}


def skip_agg_value(reader):
    """Skips one tagged AggValue, returning a printable summary."""
    tag = reader.u8()
    if tag == 1:
        return f"int {reader.svarint()}"
    if tag == 2:
        import struct
        return f"double {struct.unpack('<d', reader.raw(8))[0]:g}"
    if tag == 3:
        return f"bool {bool(reader.u8())}"
    if tag == 4:
        return f"text {read_string(reader)!r}"
    if tag == 0:
        return "null"
    raise ParseError(f"{reader.name}: unknown AggValue tag {tag}")


def parse_checkpoint_meta(body, name):
    """Mirrors CheckpointMeta::Parse for the fields tooling cares about."""
    r = Reader(body, name=name)
    meta = {"version": r.u8(), "mode": CHECKPOINT_MODES.get(r.u8(), "?")}
    meta["superstep"] = r.varint()
    meta["num_partitions"] = r.varint()
    meta["topology_epoch"] = r.varint()
    meta["pending_messages"] = r.varint()
    meta["messages_dropped_at_resume"] = r.varint()
    meta["partitions"] = [{
        "alive": r.varint(),
        "edges": r.varint(),
        "awake": r.varint(),
        "base_superstep": r.varint(),
    } for _ in range(meta["num_partitions"])]
    meta["aggregators"] = {
        read_string(r).decode("utf-8", "replace"): skip_agg_value(r)
        for _ in range(r.varint())
    }
    meta["total_messages"] = r.varint()
    meta["total_messages_dropped"] = r.varint()
    meta["supersteps_recorded"] = r.varint()
    return meta


def summarize_delta_value_part(body, name):
    """Delta value part: alive_count, then per vertex in slot order a
    length-prefixed value payload and a halted flag."""
    r = Reader(body, name=name)
    alive = r.varint()
    value_bytes = 0
    halted = 0
    for _ in range(alive):
        value_bytes += len(read_string(r))
        halted += 1 if r.u8() else 0
    if r.remaining():
        raise ParseError(f"{name}: {r.remaining()} trailing bytes")
    return f"{alive} vertices, {value_bytes}B values, {halted} halted"


def summarize_topology_part(body, name):
    """Topology epoch part: alive_count, (id, degree) per vertex, then the
    packed edge stream (target, length-prefixed edge value)."""
    r = Reader(body, name=name)
    alive = r.varint()
    degrees = []
    for _ in range(alive):
        r.svarint()  # vertex id
        degrees.append(r.varint())
    edge_value_bytes = 0
    for degree in degrees:
        for _ in range(degree):
            r.svarint()  # target
            edge_value_bytes += len(read_string(r))
    if r.remaining():
        raise ParseError(f"{name}: {r.remaining()} trailing bytes")
    return (f"{alive} vertices, {sum(degrees)} edges, "
            f"{edge_value_bytes}B edge values")


def summarize_outbox_log(body, name, show_records):
    """Outbox log record: version, superstep, partition, unit count, then
    combined (kind 0: target, pre-combining count, message) and entry
    (kind 1: target, message) units in replay order."""
    r = Reader(body, name=name)
    version = r.u8()
    if version != 1:
        return [f"unknown outbox log version {version}"]
    superstep = r.varint()
    partition = r.varint()
    units = r.varint()
    combined = entries = messages = payload = 0
    rows = []
    for index in range(units):
        kind = r.u8()
        target = r.svarint()
        if kind == 0:
            count = r.varint()
            combined += 1
            messages += count
        elif kind == 1:
            count = 1
            entries += 1
            messages += 1
        else:
            raise ParseError(f"{name}: unknown outbox unit kind {kind}")
        size = len(read_string(r))
        payload += size
        if show_records:
            rows.append(f"      [{index}] "
                        f"{'combined' if kind == 0 else 'entry'} "
                        f"target={target} count={count} message={size}B")
    if r.remaining():
        raise ParseError(f"{name}: {r.remaining()} trailing bytes")
    head = (f"superstep {superstep} partition {partition}: {units} units "
            f"({combined} combined + {entries} entry), {messages} messages, "
            f"{payload}B payloads")
    return [head] + rows


def summarize_agg_log(body, name):
    r = Reader(body, name=name)
    aggs = [f"{read_string(r).decode('utf-8', 'replace')}="
            f"{skip_agg_value(r)}" for _ in range(r.varint())]
    if r.remaining():
        raise ParseError(f"{name}: {r.remaining()} trailing bytes")
    return ", ".join(aggs) if aggs else "(empty)"


def one_record(path):
    records = list(store_records(path))
    if len(records) != 1:
        raise ParseError(f"{path}: {len(records)} records, want 1")
    return records[0]


def dump_checkpoints(root, job, show_records):
    ckpt_dir = os.path.join(root, "checkpoints", job)
    if not os.path.isdir(ckpt_dir):
        return
    print(f"checkpoints: {ckpt_dir}")
    for entry in sorted(os.listdir(ckpt_dir)):
        path = os.path.join(ckpt_dir, entry)
        if entry.startswith("s") and os.path.isdir(path):
            committed = os.path.exists(os.path.join(path, "COMMIT"))
            meta_path = os.path.join(path, "meta")
            if not os.path.exists(meta_path):
                print(f"  {entry}: no meta "
                      f"({'committed' if committed else 'uncommitted'})")
                continue
            meta = parse_checkpoint_meta(one_record(meta_path), meta_path)
            print(f"  {entry}: {meta['mode']} checkpoint at superstep "
                  f"{meta['superstep']}, "
                  f"{'committed' if committed else 'UNCOMMITTED'}, "
                  f"epoch {meta['topology_epoch']}, "
                  f"{meta['pending_messages']} pending messages, "
                  f"{meta['supersteps_recorded']} supersteps of stats")
            for part, counters in enumerate(meta["partitions"]):
                part_path = os.path.join(path, f"part-{part:03d}")
                if os.path.exists(part_path):
                    if meta["mode"] == "delta":
                        detail = summarize_delta_value_part(
                            one_record(part_path), part_path)
                    else:
                        body = one_record(part_path)
                        detail = f"full snapshot, {len(body)}B"
                else:
                    detail = (f"header-only delta (values at superstep "
                              f"{counters['base_superstep']})")
                print(f"    part {part}: alive={counters['alive']} "
                      f"edges={counters['edges']} awake={counters['awake']} "
                      f"— {detail}")
            if meta["aggregators"]:
                aggs = ", ".join(f"{k}={v}"
                                 for k, v in meta["aggregators"].items())
                print(f"    aggregators: {aggs}")
        elif entry.startswith("topology_") and os.path.isdir(path):
            print(f"  {entry}:")
            for part_file in sorted(os.listdir(path)):
                part_path = os.path.join(path, part_file)
                print(f"    {part_file}: "
                      f"{summarize_topology_part(one_record(part_path), part_path)}")
        elif entry == "outbox" and os.path.isdir(path):
            print(f"  outbox logs:")
            for step_dir in sorted(os.listdir(path)):
                step_path = os.path.join(path, step_dir)
                for log_file in sorted(os.listdir(step_path)):
                    log_path = os.path.join(step_path, log_file)
                    rel = os.path.join("outbox", step_dir, log_file)
                    if log_file == "aggs":
                        print(f"    {rel}: "
                              f"{summarize_agg_log(one_record(log_path), log_path)}")
                        continue
                    lines = summarize_outbox_log(
                        one_record(log_path), log_path, show_records)
                    print(f"    {rel}: {lines[0]}")
                    for row in lines[1:]:
                        print(row)


def dump_job(root, job, show_records):
    job_dir = os.path.join(root, job)
    has_traces = os.path.isdir(job_dir)
    has_ckpts = os.path.isdir(os.path.join(root, "checkpoints", job))
    if not has_traces and not has_ckpts:
        raise ParseError(f"no such job directory: {job_dir}")
    print(f"job: {job}")
    if has_traces:
        dump_manifest(job_dir, job)
    dump_checkpoints(root, job, show_records)
    if not has_traces:
        return

    trace_files = []
    for dirpath, _, filenames in os.walk(job_dir):
        for filename in sorted(filenames):
            if filename.endswith((".vtrace", ".mtrace")):
                trace_files.append(os.path.join(dirpath, filename))
    trace_files.sort()
    print(f"trace files: {len(trace_files)}")
    totals = {"records": 0, "legacy": 0, "skipped": 0}
    for path in trace_files:
        rel = os.path.relpath(path, root)
        rows = []
        for index, record in enumerate(store_records(path)):
            header, body = parse_frame(record, rel)
            if header is None:
                totals["legacy"] += 1
            elif (header["version"] > FORMAT_VERSION
                  or header["kind"] not in KIND_NAMES):
                totals["skipped"] += 1
            totals["records"] += 1
            rows.append(f"    [{index}] {describe_record(header, body)}")
        print(f"  {rel}: {len(rows)} records")
        if show_records:
            for row in rows:
                print(row)
    print(f"total: {totals['records']} records "
          f"({totals['legacy']} legacy, {totals['skipped']} skipped)")


def main():
    parser = argparse.ArgumentParser(
        description="Pretty-print a Graft job's manifest and trace records.")
    parser.add_argument("root", help="LocalDirTraceStore root directory")
    parser.add_argument("job", nargs="?", help="job id (directory under root)")
    parser.add_argument("--records", action="store_true",
                        help="print one row per record")
    args = parser.parse_args()

    if not os.path.isdir(args.root):
        print(f"error: no such directory: {args.root}", file=sys.stderr)
        return 2
    if args.job is None:
        jobs = sorted(
            d for d in os.listdir(args.root)
            if os.path.isdir(os.path.join(args.root, d)))
        if not jobs:
            print("no jobs found")
            return 0
        for job in jobs:
            print(job)
        return 0
    try:
        dump_job(args.root, args.job, args.records)
    except (ParseError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
