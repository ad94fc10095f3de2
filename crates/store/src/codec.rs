//! Hand-rolled stable binary encoding of log records.
//!
//! The build environment has no registry access, so there is no serde:
//! every field is written little-endian through the `Enc` helper and
//! read back through the offset-tracking `Dec`, whose errors are typed
//! [`CorruptFile`] values carrying the *absolute* byte offset inside the
//! source file (decoders of framed records pass the frame's position as
//! `base`).
//!
//! # Record payload format
//!
//! ```text
//! [generation u64]
//! [flags u8]          bit 0: inserts carry weights
//!                     bit 1: node-ops section present
//! [n_inserts u32] [n_deletes u32]
//! n_inserts × [src u32][dst u32]
//! flags&1   × n_inserts × [weight f64]
//! n_deletes × [src u32][dst u32]      (tombstones)
//! flags&2   × [new_nodes u32][n_removed u32] n_removed × [node u32]
//! ```
//!
//! The flags byte versions the record in place: a batch with no weights
//! and no node churn encodes byte-identically to the original format, so
//! logs written before weights/node-ops existed replay unchanged, and a
//! reader from that era rejects (never misreads) newer records via the
//! unknown-flag check.
//!
//! # Frame format
//!
//! ```text
//! [len u32][crc u32][payload: len bytes]
//! ```
//!
//! `crc` is CRC-32 (IEEE) over the payload. A frame whose header or
//! payload extends past the end of the data is *torn*, not corrupt — the
//! distinction [`crate::log::scan_log`] turns into the crash contract.

use crate::crc::crc32;
use d2pr_graph::delta::EdgeBatch;
use d2pr_graph::error::{CorruptFile, CorruptKind};

/// Little-endian byte sink.
#[derive(Default)]
pub(crate) struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    pub(crate) fn into_vec(self) -> Vec<u8> {
        self.buf
    }
}

/// Offset-tracking little-endian reader over a byte slice. `base` is the
/// slice's position inside its source file, so every [`CorruptFile`]
/// reports an absolute file offset.
pub(crate) struct Dec<'a> {
    data: &'a [u8],
    pos: usize,
    base: u64,
    path: Option<&'a str>,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(data: &'a [u8], base: u64, path: Option<&'a str>) -> Self {
        Self {
            data,
            pos: 0,
            base,
            path,
        }
    }

    /// Absolute file offset of the next unread byte.
    pub(crate) fn offset(&self) -> u64 {
        self.base + self.pos as u64
    }

    pub(crate) fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// A corruption record anchored at the current absolute offset.
    pub(crate) fn corrupt(&self, kind: CorruptKind) -> CorruptFile {
        let c = CorruptFile::at(self.offset(), kind);
        match self.path {
            Some(p) => c.with_path(p),
            None => c,
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CorruptFile> {
        if self.remaining() < n {
            return Err(self.corrupt(CorruptKind::Truncated {
                needed: n as u64,
                available: self.remaining() as u64,
            }));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, CorruptFile> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn u32(&mut self) -> Result<u32, CorruptFile> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, CorruptFile> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn f64(&mut self) -> Result<f64, CorruptFile> {
        Ok(f64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    pub(crate) fn bytes(&mut self, n: usize) -> Result<&'a [u8], CorruptFile> {
        self.take(n)
    }
}

/// One durable log record: the edge batch published as `generation`.
#[derive(Debug, Clone, PartialEq)]
pub struct LogRecord {
    /// The generation this batch's ingest published.
    pub generation: u64,
    /// Inserted arcs, caller (external) ids.
    pub inserts: Vec<(u32, u32)>,
    /// Optional weights parallel to `inserts`; `None` means every insert
    /// carries weight 1.
    pub weights: Option<Vec<f64>>,
    /// Deleted arcs (tombstones), caller ids.
    pub deletes: Vec<(u32, u32)>,
    /// Fresh node ids appended by the batch.
    pub new_nodes: u32,
    /// Nodes the batch tombstones, caller ids.
    pub removed_nodes: Vec<u32>,
}

impl LogRecord {
    /// The record ingest logs for `batch` at `generation`.
    pub fn from_batch(generation: u64, batch: &EdgeBatch) -> Self {
        Self {
            generation,
            inserts: batch.inserts.clone(),
            weights: batch.weights.clone(),
            deletes: batch.deletes.clone(),
            new_nodes: batch.new_nodes,
            removed_nodes: batch.removed_nodes.clone(),
        }
    }

    /// Rebuild the edge batch for replay.
    ///
    /// # Errors
    /// A weight channel whose length disagrees with the insert list is
    /// [`CorruptKind::Malformed`] — replaying it would assign weights to
    /// the wrong arcs (the log decoder never produces one, but the record
    /// type is constructible by hand).
    pub fn to_batch(&self) -> Result<EdgeBatch, CorruptFile> {
        if let Some(w) = &self.weights {
            if w.len() != self.inserts.len() {
                return Err(CorruptFile::at(
                    0,
                    CorruptKind::Malformed(format!(
                        "{} weights for {} inserts",
                        w.len(),
                        self.inserts.len()
                    )),
                ));
            }
        }
        let mut b = EdgeBatch::new();
        b.add_nodes(self.new_nodes);
        for (k, &(u, v)) in self.inserts.iter().enumerate() {
            match &self.weights {
                Some(w) => b.insert_weighted(u, v, w[k]),
                None => b.insert(u, v),
            };
        }
        for &(u, v) in &self.deletes {
            b.delete(u, v);
        }
        for &v in &self.removed_nodes {
            b.remove_node(v);
        }
        Ok(b)
    }

    /// Encode the payload (unframed). Records without weights or node
    /// ops stay byte-identical to the pre-weight format.
    pub fn encode(&self) -> Vec<u8> {
        let node_ops = self.new_nodes > 0 || !self.removed_nodes.is_empty();
        let mut e = Enc::new();
        e.u64(self.generation);
        e.u8(u8::from(self.weights.is_some()) | (u8::from(node_ops) << 1));
        e.u32(self.inserts.len() as u32);
        e.u32(self.deletes.len() as u32);
        for &(u, v) in &self.inserts {
            e.u32(u);
            e.u32(v);
        }
        if let Some(w) = &self.weights {
            debug_assert_eq!(w.len(), self.inserts.len());
            for &x in w {
                e.f64(x);
            }
        }
        for &(u, v) in &self.deletes {
            e.u32(u);
            e.u32(v);
        }
        if node_ops {
            e.u32(self.new_nodes);
            e.u32(self.removed_nodes.len() as u32);
            for &v in &self.removed_nodes {
                e.u32(v);
            }
        }
        e.into_vec()
    }

    /// Decode a payload produced by [`LogRecord::encode`]. `base`/`path`
    /// anchor error offsets in the source file.
    pub(crate) fn decode(data: &[u8], base: u64, path: Option<&str>) -> Result<Self, CorruptFile> {
        let mut d = Dec::new(data, base, path);
        let generation = d.u64()?;
        let flags = d.u8()?;
        if flags > 3 {
            return Err(d.corrupt(CorruptKind::Malformed(format!(
                "unknown record flags 0x{flags:02x}"
            ))));
        }
        let n_ins = d.u32()? as usize;
        let n_del = d.u32()? as usize;
        // Bound the declared counts by the bytes actually present before
        // allocating (a bit-flipped count must not trigger a huge alloc).
        let per_ins = 8 + if flags & 1 != 0 { 8 } else { 0 };
        let declared = n_ins
            .saturating_mul(per_ins)
            .saturating_add(n_del.saturating_mul(8));
        if declared > d.remaining() {
            return Err(d.corrupt(CorruptKind::Truncated {
                needed: declared as u64,
                available: d.remaining() as u64,
            }));
        }
        let mut inserts = Vec::with_capacity(n_ins);
        for _ in 0..n_ins {
            inserts.push((d.u32()?, d.u32()?));
        }
        let weights = if flags & 1 != 0 {
            let mut w = Vec::with_capacity(n_ins);
            for _ in 0..n_ins {
                w.push(d.f64()?);
            }
            Some(w)
        } else {
            None
        };
        let mut deletes = Vec::with_capacity(n_del);
        for _ in 0..n_del {
            deletes.push((d.u32()?, d.u32()?));
        }
        let (new_nodes, removed_nodes) = if flags & 2 != 0 {
            let new_nodes = d.u32()?;
            let n_rem = d.u32()? as usize;
            if n_rem.saturating_mul(4) > d.remaining() {
                return Err(d.corrupt(CorruptKind::Truncated {
                    needed: (n_rem as u64).saturating_mul(4),
                    available: d.remaining() as u64,
                }));
            }
            let mut removed = Vec::with_capacity(n_rem);
            for _ in 0..n_rem {
                removed.push(d.u32()?);
            }
            (new_nodes, removed)
        } else {
            (0, Vec::new())
        };
        if d.remaining() != 0 {
            return Err(d.corrupt(CorruptKind::Malformed(format!(
                "{} trailing bytes after record",
                d.remaining()
            ))));
        }
        Ok(Self {
            generation,
            inserts,
            weights,
            deletes,
            new_nodes,
            removed_nodes,
        })
    }
}

/// Bytes of a frame header.
pub(crate) const FRAME_HEADER: usize = 8;

/// Frame a payload: `[len u32][crc u32][payload]`.
pub(crate) fn frame(payload: &[u8]) -> (Vec<u8>, Vec<u8>) {
    let mut header = Vec::with_capacity(FRAME_HEADER);
    header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    header.extend_from_slice(&crc32(payload).to_le_bytes());
    (header, payload.to_vec())
}

/// What [`read_frame`] found at an offset.
pub(crate) enum Frame<'a> {
    /// A complete, checksum-verified payload plus the offset just past it.
    Ok { payload: &'a [u8], next: usize },
    /// The data ends cleanly at this offset (no more frames).
    End,
    /// The frame is incomplete — a torn tail if nothing follows.
    Torn {
        /// Bytes the frame needed beyond what is present.
        missing: usize,
    },
    /// A complete frame whose checksum (or impossible length) failed.
    Corrupt(CorruptFile),
}

/// Decode the frame starting at `pos` in `data`.
pub(crate) fn read_frame<'a>(data: &'a [u8], pos: usize, path: Option<&str>) -> Frame<'a> {
    let rest = &data[pos..];
    if rest.is_empty() {
        return Frame::End;
    }
    if rest.len() < FRAME_HEADER {
        return Frame::Torn {
            missing: FRAME_HEADER - rest.len(),
        };
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    let stored = u32::from_le_bytes(rest[4..8].try_into().expect("4 bytes"));
    let Some(payload) = rest.get(FRAME_HEADER..FRAME_HEADER + len) else {
        return Frame::Torn {
            missing: FRAME_HEADER + len - rest.len(),
        };
    };
    let computed = crc32(payload);
    if computed != stored {
        let c = CorruptFile::at(pos as u64 + 4, CorruptKind::Checksum { stored, computed });
        return Frame::Corrupt(match path {
            Some(p) => c.with_path(p),
            None => c,
        });
    }
    Frame::Ok {
        payload,
        next: pos + FRAME_HEADER + len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> LogRecord {
        LogRecord {
            generation: 42,
            inserts: vec![(0, 7), (3, 9)],
            weights: None,
            deletes: vec![(1, 2)],
            new_nodes: 0,
            removed_nodes: vec![],
        }
    }

    fn churn_sample() -> LogRecord {
        LogRecord {
            generation: 43,
            inserts: vec![(0, 7), (3, 9)],
            weights: Some(vec![2.5, 0.125]),
            deletes: vec![(1, 2)],
            new_nodes: 4,
            removed_nodes: vec![5, 6],
        }
    }

    #[test]
    fn record_round_trips() {
        for rec in [
            sample(),
            churn_sample(),
            LogRecord {
                generation: 0,
                inserts: vec![],
                weights: None,
                deletes: vec![],
                new_nodes: 0,
                removed_nodes: vec![],
            },
            LogRecord {
                generation: u64::MAX,
                inserts: vec![(u32::MAX, 0)],
                weights: Some(vec![2.5]),
                deletes: vec![(5, 5); 3],
                new_nodes: 0,
                removed_nodes: vec![],
            },
            LogRecord {
                generation: 9,
                inserts: vec![],
                weights: None,
                deletes: vec![],
                new_nodes: u32::MAX,
                removed_nodes: vec![0],
            },
        ] {
            let bytes = rec.encode();
            let back = LogRecord::decode(&bytes, 0, None).unwrap();
            assert_eq!(rec, back);
        }
    }

    #[test]
    fn plain_records_encode_byte_identically_to_the_original_format() {
        // The pre-weight layout, written by hand: a reader of old logs
        // must see exactly these bytes for a weightless, churnless batch.
        let rec = sample();
        let mut expect = Vec::new();
        expect.extend_from_slice(&42u64.to_le_bytes());
        expect.push(0); // flags
        expect.extend_from_slice(&2u32.to_le_bytes());
        expect.extend_from_slice(&1u32.to_le_bytes());
        for (u, v) in [(0u32, 7u32), (3, 9), (1, 2)] {
            expect.extend_from_slice(&u.to_le_bytes());
            expect.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(rec.encode(), expect);
    }

    #[test]
    fn decode_rejects_every_truncation_prefix() {
        for rec in [sample(), churn_sample()] {
            let bytes = rec.encode();
            for cut in 0..bytes.len() {
                let err = LogRecord::decode(&bytes[..cut], 100, Some("wal")).unwrap_err();
                assert!(err.offset >= 100, "offsets are absolute");
                assert_eq!(err.path.as_deref(), Some("wal"));
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_bytes_and_bad_flags() {
        let mut bytes = sample().encode();
        bytes.push(0);
        let err = LogRecord::decode(&bytes, 0, None).unwrap_err();
        assert!(matches!(err.kind, CorruptKind::Malformed(_)));

        let mut bytes = sample().encode();
        bytes[8] = 0xFE; // flags
        let err = LogRecord::decode(&bytes, 0, None).unwrap_err();
        assert!(matches!(err.kind, CorruptKind::Malformed(_)));
    }

    #[test]
    fn inflated_counts_do_not_allocate() {
        let mut bytes = sample().encode();
        // Blow up the insert count field (offset 9..13).
        bytes[12] = 0xFF;
        let err = LogRecord::decode(&bytes, 0, None).unwrap_err();
        assert!(matches!(err.kind, CorruptKind::Truncated { .. }));

        // Same for the removed-node count at the tail of a churn record.
        let mut bytes = churn_sample().encode();
        let cnt = bytes.len() - 2 * 4 - 1; // before the two removed ids
        bytes[cnt] = 0xFF;
        let err = LogRecord::decode(&bytes, 0, None).unwrap_err();
        assert!(matches!(err.kind, CorruptKind::Truncated { .. }));
    }

    #[test]
    fn frames_verify_and_classify() {
        let payload = sample().encode();
        let (h, p) = frame(&payload);
        let mut data = h;
        data.extend_from_slice(&p);

        match read_frame(&data, 0, None) {
            Frame::Ok { payload: got, next } => {
                assert_eq!(got, payload.as_slice());
                assert_eq!(next, data.len());
            }
            _ => panic!("complete frame must verify"),
        }
        assert!(matches!(read_frame(&data, data.len(), None), Frame::End));
        for cut in 1..data.len() {
            assert!(
                matches!(read_frame(&data[..cut], 0, None), Frame::Torn { .. }),
                "cut at {cut} is torn"
            );
        }
        // A payload bit flip is Corrupt, not Torn.
        let mut flipped = data.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        assert!(matches!(
            read_frame(&flipped, 0, Some("w")),
            Frame::Corrupt(_)
        ));
    }

    #[test]
    fn batches_replay_with_weights_and_node_ops_intact() {
        let mut b = EdgeBatch::new();
        b.add_nodes(2);
        b.insert(2, 3);
        b.insert_weighted(4, 6, 0.5);
        b.delete(4, 5);
        b.remove_node(1);
        let rt = LogRecord::from_batch(9, &b).to_batch().unwrap();
        assert_eq!(rt, b);

        // A hand-built record whose weight channel disagrees with its
        // insert list must refuse to replay, not misassign weights.
        let rec = LogRecord {
            generation: 1,
            inserts: vec![(0, 1)],
            weights: Some(vec![1.0, 2.0]),
            deletes: vec![],
            new_nodes: 0,
            removed_nodes: vec![],
        };
        assert!(rec.to_batch().is_err());
    }
}
