//! Property tests for the log encoding: arbitrary record streams
//! (unweighted and weighted arcs, tombstones, node growth and removal,
//! empty batches) round-trip through the framed segment format, and
//! truncating the file at *any* byte yields exactly the records whose
//! frames fit — never an error, never a panic, never a partially-decoded
//! record.

use d2pr_store::codec::LogRecord;
use d2pr_store::log::{scan_log, LogWriter, ScanStop};
use proptest::prelude::*;

/// One record's raw content: inserts, whether they carry weights,
/// deletes, appended nodes, tombstoned nodes.
type RawRecord = (Vec<(u32, u32)>, bool, Vec<(u32, u32)>, u32, Vec<u32>);

fn arb_arcs(max: usize) -> impl Strategy<Value = Vec<(u32, u32)>> {
    proptest::collection::vec((0u32..500, 0u32..500), 0..=max)
}

/// Empty batches (every channel empty) are a legal, loggable case.
fn arb_record() -> impl Strategy<Value = RawRecord> {
    (
        arb_arcs(12),
        any::<bool>(),
        arb_arcs(12),
        0u32..4,
        proptest::collection::vec(0u32..500, 0..=3),
    )
}

fn arb_records() -> impl Strategy<Value = Vec<RawRecord>> {
    proptest::collection::vec(arb_record(), 1..=8)
}

fn materialize(base: u64, raw: &[RawRecord]) -> Vec<LogRecord> {
    raw.iter()
        .enumerate()
        .map(
            |(i, (inserts, weighted, deletes, new_nodes, removed))| LogRecord {
                generation: base + 1 + i as u64,
                weights: weighted
                    .then(|| (0..inserts.len()).map(|k| k as f64 * 0.5 + 0.25).collect()),
                inserts: inserts.clone(),
                deletes: deletes.clone(),
                new_nodes: *new_nodes,
                removed_nodes: removed.clone(),
            },
        )
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Append → scan is the identity on any record stream, and the byte
    /// lengths after each append are exactly the truncation points where
    /// one more record becomes durable.
    #[test]
    fn appended_records_scan_back_verbatim(
        raw in arb_records(),
        case in 0u64..u64::MAX,
    ) {
        let base = 7u64;
        let records = materialize(base, &raw);
        // LogWriter names its own file; write into a fresh subdir so
        // concurrent cases never collide.
        let dir = std::env::temp_dir().join(format!("d2pr-logprops-{}", std::process::id()));
        let subdir = dir.join(format!("verbatim-{case}"));
        let _ = std::fs::remove_dir_all(&subdir);
        std::fs::create_dir_all(&subdir).unwrap();
        let mut lengths = Vec::new();
        let wal = {
            let mut w = LogWriter::create(&subdir, base, 0).unwrap();
            for r in &records {
                w.append(r).unwrap();
                lengths.push(std::fs::metadata(w.path()).unwrap().len());
            }
            w.path().to_path_buf()
        };
        let scan = scan_log(&wal).unwrap();
        prop_assert!(matches!(scan.stop, ScanStop::Clean));
        prop_assert_eq!(&scan.records, &records);
        prop_assert_eq!(scan.valid_bytes, *lengths.last().unwrap());
        // Monotone, strictly growing frame boundaries.
        prop_assert!(lengths.windows(2).all(|w| w[0] < w[1]));
        std::fs::remove_dir_all(&subdir).unwrap();
    }

    /// Truncating the segment at an arbitrary byte never errors and
    /// yields exactly the frames that fit: records whose frame boundary
    /// is ≤ the cut survive verbatim, everything after is gone, and the
    /// stop reason is Clean only at a frame boundary.
    #[test]
    fn truncation_at_any_byte_yields_the_exact_frame_prefix(
        raw in arb_records(),
        cut_seed in 0u64..u64::MAX,
        case in 0u64..u64::MAX,
    ) {
        let base = 7u64;
        let records = materialize(base, &raw);
        let dir = std::env::temp_dir().join(format!("d2pr-logprops-{}", std::process::id()));
        let subdir = dir.join(format!("cut-{case}"));
        let _ = std::fs::remove_dir_all(&subdir);
        std::fs::create_dir_all(&subdir).unwrap();
        let mut boundaries = vec![20u64]; // segment header
        let wal = {
            let mut w = LogWriter::create(&subdir, base, 0).unwrap();
            for r in &records {
                w.append(r).unwrap();
                boundaries.push(std::fs::metadata(w.path()).unwrap().len());
            }
            w.path().to_path_buf()
        };
        let full = std::fs::read(&wal).unwrap();
        let cut = (cut_seed % (full.len() as u64 + 1)) as usize;
        std::fs::write(&wal, &full[..cut]).unwrap();

        let scan = scan_log(&wal).unwrap();
        let expect = boundaries.iter().filter(|&&b| b > 20 && b <= cut as u64).count();
        prop_assert_eq!(scan.records.len(), expect);
        prop_assert_eq!(&scan.records[..], &records[..expect]);
        if cut < 20 {
            // Inside the segment header: nothing is durable yet.
            prop_assert!(matches!(scan.stop, ScanStop::Torn { .. }));
        } else if boundaries.contains(&(cut as u64)) {
            prop_assert!(matches!(scan.stop, ScanStop::Clean));
        } else {
            prop_assert!(matches!(scan.stop, ScanStop::Torn { .. }));
        }
        std::fs::remove_dir_all(&subdir).unwrap();
    }
}
