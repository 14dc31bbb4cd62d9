//! Chunked spill backend for traces recorded with spill caps.
//!
//! A spilling [`crate::trace::Trace`] appends each packet record — made
//! when the packet is delivered or dropped, or when the simulator hands
//! over its trace with the packet still in flight — to a [`ChunkLog`]:
//! records accumulate in an open chunk, chunks are sealed (sorted by
//! `(i(p), id)`) into a small in-memory ring, and when the ring overflows
//! the oldest chunk is encoded through a fixed-layout little-endian codec
//! into an anonymous spill file in the OS temp directory. Reading the log
//! back is a k-way merge over one cursor per chunk; spilled chunks are
//! read with positioned reads (`pread`) over a single shared file
//! descriptor, so memory stays `O(chunks × read-buffer)` no matter how
//! many records were logged.
//!
//! A record names its path by a `u32` index into the log's path dictionary
//! ([`PathTable`]), which numbers each distinct [`PathId`] once, in the
//! order the log first writes it — never by [`PathId::index`], which
//! depends on interning order across threads. Decoding hands back the
//! table's `PathId`, so reading a record allocates nothing. A delivered
//! end-to-end record is a fixed 58 bytes on disk whatever its path length.
//!
//! The codec round-trips every field of a [`PacketRecord`], drop causes
//! and per-hop detail included, so `EndToEnd`, `PerHop` and synthetic
//! traces all spill through it; a hop adds 28 bytes.

use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use crate::id::{FlowId, NodeId};
use crate::packet::PacketKind;
use crate::path::PathId;
use crate::time::{Dur, SimTime};
use crate::trace::{DropCause, HopRecord, PacketRecord};

/// Default records per chunk. Large enough that a multi-million-packet run
/// spills only hundreds of chunks (each merge cursor holds a small read
/// buffer), small enough that the in-memory ring stays a few megabytes.
pub const DEFAULT_CHUNK_RECORDS: usize = 8_192;
/// Default sealed chunks kept in memory before the oldest spills to disk.
pub const DEFAULT_RING_CHUNKS: usize = 4;

/// Bytes fetched per positioned read while merging a spilled chunk.
const READ_BUF: usize = 16 * 1024;

static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);

/// The per-log path dictionary: every distinct path a spilled record
/// names, numbered in first-seen order.
pub(crate) struct PathTable {
    /// By log index: the path.
    paths: Vec<PathId>,
    /// By [`PathId::index`]: the path's log index plus one, 0 while the
    /// log has not written it. A dense remap, read per record.
    remap: Vec<u32>,
}

impl PathTable {
    pub(crate) fn new() -> Self {
        PathTable {
            paths: Vec::new(),
            remap: Vec::new(),
        }
    }

    /// The log index of `path`, numbering it on first sight.
    pub(crate) fn intern(&mut self, path: PathId) -> u32 {
        let at = path.index();
        if at >= self.remap.len() {
            self.remap.resize(at + 1, 0);
        }
        let slot = &mut self.remap[at];
        if *slot == 0 {
            self.paths.push(path);
            *slot = self.paths.len() as u32;
        }
        *slot - 1
    }

    /// Every numbered path, by log index.
    pub(crate) fn paths(&self) -> &[PathId] {
        &self.paths
    }
}

/// One spilled chunk's location inside the spill file.
struct SpilledChunk {
    off: u64,
    bytes: u64,
    records: u32,
}

/// The spill file plus the directory of chunks written into it and the
/// path table its records index. The file lives in the OS temp directory
/// and is deleted on drop.
struct SpillFile {
    file: File,
    path: PathBuf,
    write_off: u64,
    chunks: Vec<SpilledChunk>,
    paths: PathTable,
}

impl SpillFile {
    fn create() -> Self {
        let seq = SPILL_SEQ.fetch_add(1, Ordering::Relaxed);
        let path =
            std::env::temp_dir().join(format!("ups-trace-{}-{}.spill", std::process::id(), seq));
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)
            .expect("create trace spill file"); // lint:allow(panic-path): a failed trace spill cannot be recovered mid-run; abort is correct
        SpillFile {
            file,
            path,
            write_off: 0,
            chunks: Vec::new(),
            paths: PathTable::new(),
        }
    }

    fn append_chunk(&mut self, chunk: &[(u64, PacketRecord)], buf: &mut Vec<u8>) {
        let _t = ups_obs::timer(ups_obs::Phase::SpillIo);
        buf.clear();
        for (id, rec) in chunk {
            encode_record(buf, *id, rec, &mut self.paths);
        }
        self.file.write_all(buf).expect("write trace spill chunk"); // lint:allow(panic-path): a failed trace spill cannot be recovered mid-run; abort is correct
        ups_obs::count(ups_obs::Counter::SpillBytes, buf.len() as u64);
        self.chunks.push(SpilledChunk {
            off: self.write_off,
            bytes: buf.len() as u64,
            records: chunk.len() as u32,
        });
        self.write_off += buf.len() as u64;
    }
}

impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Append-only log of finalized records with a bounded-memory reader.
pub(crate) struct ChunkLog {
    chunk_cap: usize,
    ring_cap: usize,
    /// The open chunk, in finalization order (unsorted).
    pending: Vec<(u64, PacketRecord)>,
    /// Sealed chunks, each sorted by `(injected, id)`; oldest at the front.
    sealed: VecDeque<Vec<(u64, PacketRecord)>>,
    spill: Option<SpillFile>,
    len: u64,
}

impl ChunkLog {
    pub(crate) fn new(chunk_cap: usize, ring_cap: usize) -> Self {
        assert!(chunk_cap > 0 && ring_cap > 0, "spill caps must be positive");
        ChunkLog {
            chunk_cap,
            ring_cap,
            pending: Vec::new(),
            sealed: VecDeque::new(),
            spill: None,
            len: 0,
        }
    }

    pub(crate) fn push(&mut self, id: u64, rec: PacketRecord) {
        ups_obs::count(ups_obs::Counter::TraceRecordsFinalized, 1);
        self.pending.push((id, rec));
        self.len += 1;
        if self.pending.len() >= self.chunk_cap {
            let mut chunk = std::mem::take(&mut self.pending);
            chunk.sort_unstable_by_key(|(id, r)| (r.injected, *id));
            ups_obs::count(ups_obs::Counter::SpillChunksSealed, 1);
            self.sealed.push_back(chunk);
            while self.sealed.len() > self.ring_cap {
                let oldest = self.sealed.pop_front().expect("ring not empty"); // lint:allow(panic-path): guarded by the ring occupancy check above
                let spill = self.spill.get_or_insert_with(SpillFile::create);
                let mut buf = Vec::with_capacity(READ_BUF);
                spill.append_chunk(&oldest, &mut buf);
            }
        }
    }

    pub(crate) fn len(&self) -> u64 {
        self.len
    }

    pub(crate) fn has_spilled(&self) -> bool {
        self.spill.is_some()
    }

    /// One sorted cursor per chunk (spilled, sealed, and the open chunk),
    /// for the trace's k-way merge.
    pub(crate) fn cursors(&self) -> Vec<LogCursor<'_>> {
        let mut out = Vec::new();
        if let Some(spill) = &self.spill {
            for c in &spill.chunks {
                out.push(LogCursor::Spilled(ChunkCursor {
                    file: &spill.file,
                    paths: spill.paths.paths(),
                    next_off: c.off,
                    end_off: c.off + c.bytes,
                    remaining: c.records,
                    buf: Vec::new(),
                    pos: 0,
                }));
            }
        }
        for chunk in &self.sealed {
            out.push(LogCursor::Mem(chunk.iter()));
        }
        let mut open: Vec<(u64, PacketRecord)> = self.pending.clone();
        open.sort_unstable_by_key(|(id, r)| (r.injected, *id));
        out.push(LogCursor::Owned(open.into_iter()));
        out
    }
}

impl std::fmt::Debug for ChunkLog {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ChunkLog")
            .field("len", &self.len)
            .field("sealed_chunks", &self.sealed.len())
            .field(
                "spilled_chunks",
                &self.spill.as_ref().map_or(0, |s| s.chunks.len()),
            )
            .finish()
    }
}

/// A sorted stream of `(id, record)` out of one chunk.
pub(crate) enum LogCursor<'a> {
    Spilled(ChunkCursor<'a>),
    Mem(std::slice::Iter<'a, (u64, PacketRecord)>),
    Owned(std::vec::IntoIter<(u64, PacketRecord)>),
}

impl LogCursor<'_> {
    pub(crate) fn next(&mut self) -> Option<(u64, PacketRecord)> {
        match self {
            LogCursor::Spilled(c) => c.next(),
            LogCursor::Mem(it) => it.next().map(|(id, r)| (*id, r.clone())),
            LogCursor::Owned(it) => it.next(),
        }
    }
}

/// Buffered positioned-read cursor over one spilled chunk. All cursors
/// share the spill file's descriptor; `read_at` never touches the shared
/// seek position, so hundreds of cursors coexist on one open file.
pub(crate) struct ChunkCursor<'a> {
    file: &'a File,
    paths: &'a [PathId],
    next_off: u64,
    end_off: u64,
    remaining: u32,
    buf: Vec<u8>,
    pos: usize,
}

impl ChunkCursor<'_> {
    /// Ensure at least `need` decoded-but-unconsumed bytes are buffered.
    fn refill(&mut self, need: usize) {
        if self.buf.len() - self.pos >= need {
            return;
        }
        self.buf.drain(..self.pos);
        self.pos = 0;
        while self.buf.len() < need {
            let left = (self.end_off - self.next_off) as usize;
            assert!(left > 0, "truncated trace spill chunk");
            let take = left.min(READ_BUF.max(need - self.buf.len()));
            let old = self.buf.len();
            self.buf.resize(old + take, 0);
            let n = self
                .file
                .read_at(&mut self.buf[old..], self.next_off)
                .expect("read trace spill chunk"); // lint:allow(panic-path): a truncated spill chunk is unrecoverable corruption; abort is correct
            assert!(n > 0, "unexpected EOF in trace spill chunk");
            self.buf.truncate(old + n);
            self.next_off += n as u64;
        }
    }

    fn next(&mut self) -> Option<(u64, PacketRecord)> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        self.refill(4);
        let len = u32::from_le_bytes(self.buf[self.pos..self.pos + 4].try_into().unwrap()) as usize; // lint:allow(panic-path): framing invariant: offsets bounded by the encoder-written chunk; 4-byte try_into cannot fail
        self.refill(4 + len);
        let rec = decode_record(&self.buf[self.pos + 4..self.pos + 4 + len], self.paths); // lint:allow(panic-path): framing invariant: the length prefix bounds the record slice
        self.pos += 4 + len;
        Some(rec)
    }
}

/// Append one length-prefixed record to `buf` (little-endian throughout),
/// naming its path by index into `paths`.
pub(crate) fn encode_record(buf: &mut Vec<u8>, id: u64, r: &PacketRecord, paths: &mut PathTable) {
    let start = buf.len();
    buf.extend_from_slice(&0u32.to_le_bytes()); // length, patched below
    buf.extend_from_slice(&id.to_le_bytes());
    buf.extend_from_slice(&r.flow.0.to_le_bytes());
    buf.extend_from_slice(&r.size.to_le_bytes());
    buf.push(match r.kind {
        PacketKind::Data => 0,
        PacketKind::Ack => 1,
    });
    let mut flags = 0u8;
    if r.exited.is_some() {
        flags |= 1;
    }
    if r.dropped {
        flags |= 2;
    }
    flags |= match r.drop_cause {
        None => 0u8,
        Some(DropCause::Buffer) => 1,
        Some(DropCause::DeadLink) => 2,
    } << 2;
    buf.push(flags);
    buf.extend_from_slice(&r.injected.as_ps().to_le_bytes());
    if let Some(o) = r.exited {
        buf.extend_from_slice(&o.as_ps().to_le_bytes());
    }
    buf.extend_from_slice(&r.total_wait.as_ps().to_le_bytes());
    buf.extend_from_slice(&paths.intern(r.path).to_le_bytes());
    buf.extend_from_slice(&(r.hops.len() as u32).to_le_bytes());
    for h in &r.hops {
        buf.extend_from_slice(&h.node.0.to_le_bytes());
        buf.extend_from_slice(&h.arrived.as_ps().to_le_bytes());
        buf.extend_from_slice(&h.tx_start.as_ps().to_le_bytes());
        buf.extend_from_slice(&h.waited.as_ps().to_le_bytes());
    }
    let len = (buf.len() - start - 4) as u32;
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes()); // lint:allow(panic-path): start+4 <= buf.len() by the encoder's own length accounting
}

struct Decoder<'a> {
    b: &'a [u8],
    p: usize,
}

impl Decoder<'_> {
    fn u8(&mut self) -> u8 {
        let v = self.b[self.p];
        self.p += 1;
        v
    }
    fn u32(&mut self) -> u32 {
        let v = u32::from_le_bytes(self.b[self.p..self.p + 4].try_into().unwrap()); // lint:allow(panic-path): framing invariant: offsets bounded by the encoder-written chunk; 4-byte try_into cannot fail
        self.p += 4;
        v
    }
    fn u64(&mut self) -> u64 {
        let v = u64::from_le_bytes(self.b[self.p..self.p + 8].try_into().unwrap()); // lint:allow(panic-path): framing invariant: offsets bounded by the encoder-written chunk; 8-byte try_into cannot fail
        self.p += 8;
        v
    }
}

/// Decode one record body (no length prefix) produced by [`encode_record`]
/// against the same log's path table.
pub(crate) fn decode_record(bytes: &[u8], paths: &[PathId]) -> (u64, PacketRecord) {
    let mut d = Decoder { b: bytes, p: 0 };
    let id = d.u64();
    let flow = FlowId(d.u64());
    let size = d.u32();
    let kind = match d.u8() {
        0 => PacketKind::Data,
        1 => PacketKind::Ack,
        k => panic!("bad packet kind tag {k} in trace spill"), // lint:allow(panic-path): tag bytes are written by the paired encoder; corruption must be loud
    };
    let flags = d.u8();
    let injected = SimTime::from_ps(d.u64());
    let exited = if flags & 1 != 0 {
        Some(SimTime::from_ps(d.u64()))
    } else {
        None
    };
    let total_wait = Dur::from_ps(d.u64());
    let path = paths[d.u32() as usize]; // lint:allow(panic-path): indexes are written by the paired encoder from this same table
    let hops_len = d.u32() as usize;
    let hops = (0..hops_len)
        .map(|_| HopRecord {
            node: NodeId(d.u32()),
            arrived: SimTime::from_ps(d.u64()),
            tx_start: SimTime::from_ps(d.u64()),
            waited: Dur::from_ps(d.u64()),
        })
        .collect();
    assert_eq!(d.p, bytes.len(), "trailing bytes in trace spill record");
    let drop_cause = match (flags >> 2) & 3 {
        0 => None,
        1 => Some(DropCause::Buffer),
        2 => Some(DropCause::DeadLink),
        c => panic!("bad drop cause tag {c} in trace spill"), // lint:allow(panic-path): tag bytes are written by the paired encoder; corruption must be loud
    };
    (
        id,
        PacketRecord {
            flow,
            size,
            kind,
            path,
            injected,
            exited,
            total_wait,
            dropped: flags & 2 != 0,
            drop_cause,
            hops,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn rec(injected_us: u64, exited: Option<u64>, cause: Option<DropCause>) -> PacketRecord {
        let path = PathId::from(vec![NodeId(0), NodeId(7), NodeId(2)]);
        PacketRecord {
            flow: FlowId(3),
            size: 1500,
            kind: PacketKind::Data,
            path,
            injected: SimTime::from_us(injected_us),
            exited: exited.map(SimTime::from_us),
            total_wait: Dur::from_ns(42),
            dropped: cause.is_some(),
            drop_cause: cause,
            hops: vec![HopRecord {
                node: NodeId(7),
                arrived: SimTime::from_us(injected_us + 1),
                tx_start: SimTime::from_us(injected_us + 2),
                waited: Dur::from_us(1),
            }],
        }
    }

    #[test]
    fn codec_round_trips_all_fields() {
        for r in [
            rec(5, Some(9), None),
            rec(5, None, Some(DropCause::Buffer)),
            rec(5, None, Some(DropCause::DeadLink)),
            PacketRecord {
                hops: Vec::new(),
                kind: PacketKind::Ack,
                ..rec(0, Some(1), None)
            },
        ] {
            let mut buf = Vec::new();
            let mut table = PathTable::new();
            encode_record(&mut buf, 77, &r, &mut table);
            let len = u32::from_le_bytes(buf[0..4].try_into().unwrap()) as usize;
            assert_eq!(len + 4, buf.len());
            let (id, back) = decode_record(&buf[4..], table.paths());
            assert_eq!(id, 77);
            assert_eq!(back, r);
        }
    }

    #[test]
    fn log_spills_and_merges_in_injection_order() {
        // 3-record chunks, ring of 1: 10 records force spilled chunks.
        let mut log = ChunkLog::new(3, 1);
        // Finalization order is NOT injection order (like a real run).
        for id in [4u64, 2, 9, 7, 1, 0, 8, 3, 6, 5] {
            log.push(id, rec(id, Some(id + 1), None));
        }
        assert_eq!(log.len(), 10);
        assert!(log.has_spilled());
        let mut cursors = log.cursors();
        let mut out = Vec::new();
        // Naive single-cursor drain per chunk, then merge by sorting —
        // the trace layer owns the heap merge; here we check chunk
        // contents and codec fidelity.
        for c in &mut cursors {
            while let Some((id, r)) = c.next() {
                assert_eq!(r.injected, SimTime::from_us(id));
                out.push(id);
            }
        }
        out.sort_unstable();
        assert_eq!(out, (0..10).collect::<Vec<_>>());
    }

    fn end_to_end(path: PathId) -> PacketRecord {
        PacketRecord {
            path,
            hops: Vec::new(),
            ..rec(5, Some(9), None)
        }
    }

    fn nodes(ids: &[u32]) -> PathId {
        ids.iter().map(|&n| NodeId(n)).collect()
    }

    /// Decode every length-prefixed record of `buf` in order.
    fn decode_all(buf: &[u8], table: &PathTable) -> Vec<(u64, PacketRecord)> {
        let mut out = Vec::new();
        let mut at = 0;
        while at < buf.len() {
            let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
            out.push(decode_record(&buf[at + 4..at + 4 + len], table.paths()));
            at += 4 + len;
        }
        out
    }

    #[test]
    fn dictionary_round_trips_a_mixed_log() {
        let a = nodes(&[0, 7, 2]);
        let b = nodes(&[0, 7, 9, 8, 2]);
        let records = [
            end_to_end(a),
            rec(6, None, Some(DropCause::Buffer)),
            end_to_end(b),
            end_to_end(a),
            end_to_end(nodes(&[0, 7, 9, 8, 2])),
        ];
        let mut buf = Vec::new();
        let mut table = PathTable::new();
        for (id, r) in records.iter().enumerate() {
            encode_record(&mut buf, id as u64, r, &mut table);
        }
        // `rec`'s path has the same content as `a`: two distinct lists.
        assert_eq!(table.paths().len(), 2);
        let back = decode_all(&buf, &table);
        let expected: Vec<(u64, PacketRecord)> = records
            .iter()
            .cloned()
            .enumerate()
            .map(|(i, r)| (i as u64, r))
            .collect();
        assert_eq!(back, expected);
    }

    #[test]
    fn equal_content_distinct_arcs_encode_to_one_index() {
        // Two allocations of one node list, as a reroute splice and the
        // routing layer each make: one `PathId`, so one log index.
        let first: Arc<[NodeId]> = [1, 4, 6, 3].map(NodeId).into();
        let second: Arc<[NodeId]> = [1, 4, 6, 3].map(NodeId).into();
        assert!(!Arc::ptr_eq(&first, &second));
        let (first, second) = (PathId::from(first), PathId::from(second));
        assert_eq!(first, second);
        let mut table = PathTable::new();
        let i = table.intern(first);
        assert_eq!(table.intern(second), i);
        assert_eq!(table.intern(first), i, "a known path keeps its index");
        assert_eq!(table.intern(nodes(&[1, 4, 3])), i + 1);
        assert_eq!(table.paths().len(), 2);
    }

    #[test]
    fn log_indexes_follow_first_sight_not_interning_order() {
        // Interned in one order, written in the other: the log numbers
        // paths as it writes them, so its bytes do not depend on which
        // path the process interned first.
        let early = nodes(&[8_831, 8_832, 8_833]);
        let late = nodes(&[8_831, 8_834, 8_833]);
        assert!(early.index() < late.index());
        let mut table = PathTable::new();
        assert_eq!(table.intern(late), 0);
        assert_eq!(table.intern(early), 1);
        assert_eq!(table.paths(), &[late, early]);
    }

    #[test]
    fn decoded_records_share_the_table_entry() {
        let mut buf = Vec::new();
        let mut table = PathTable::new();
        let path = nodes(&[2, 5, 3]);
        for id in 0..3 {
            // A fresh node list per record, as rerouting produces.
            encode_record(&mut buf, id, &end_to_end(nodes(&[2, 5, 3])), &mut table);
        }
        assert_eq!(table.paths(), &[path]);
        for (_, r) in decode_all(&buf, &table) {
            assert_eq!(r.path, path, "the decoded PathId is the encoded one");
        }
    }

    #[test]
    fn end_to_end_record_is_58_bytes_whatever_its_path_length() {
        let mut table = PathTable::new();
        for len in [2u32, 3, 7, 64] {
            let path: PathId = (0..len).map(NodeId).collect();
            let mut buf = Vec::new();
            encode_record(&mut buf, u64::MAX, &end_to_end(path), &mut table);
            assert_eq!(buf.len(), 58, "path of {len} nodes");
        }
    }
}
