//! The durability tier's on-disk contract, on the deterministic in-memory
//! [`FaultFs`]: a committed round is **one** append to the round log (plus
//! one fsync under [`FsyncMode::EveryCommit`]), the durability directory
//! holds nothing but the round log and the checkpoint, and a checkpoint is
//! taken only once the log has outgrown `max(segment_bytes, size of the
//! last checkpoint)` — so rewriting the whole state stays amortized.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use teemon_metrics::Labels;
use teemon_tsdb::{DurabilityOptions, FaultFs, FsyncMode, Selector, TimeSeriesDb, TsdbConfig};

fn dir() -> &'static Path {
    Path::new("/wal")
}

fn log_path() -> PathBuf {
    dir().join("rounds.wal")
}

fn checkpoint_path() -> PathBuf {
    dir().join("checkpoint.snap")
}

fn open(fs: &FaultFs, segment_bytes: u64, fsync: FsyncMode) -> TimeSeriesDb {
    let options = DurabilityOptions { segment_bytes, fsync, fs: Arc::new(fs.clone()) };
    let config = TsdbConfig { chunk_size: 4, retention_ms: 600_000, raw_chunks: false };
    TimeSeriesDb::open_with(dir(), config, options).expect("FaultFs open cannot fail")
}

/// One round: every one of `series` series appends a sample, then the flush.
fn run_round(db: &TimeSeriesDb, round: u64, series: usize) {
    for s in 0..series {
        let labels = Labels::from_pairs([("node", format!("n{s}").as_str())]);
        db.append("teemon_round_log_metric", &labels, round * 1_000, (round + s as u64) as f64);
    }
    assert!(db.wal_flush(), "fault-free flush must stay clean");
}

/// A warm round — every series already exists, so no symbol changes — over
/// many shards costs one append, plus exactly one fsync under
/// `EveryCommit`, and no other filesystem operation.
#[test]
fn a_warm_round_is_one_append_plus_one_fsync_under_every_commit() {
    for (fsync, ops_per_round) in [(FsyncMode::OnRotation, 1), (FsyncMode::EveryCommit, 2)] {
        let fs = FaultFs::new();
        let db = open(&fs, u64::MAX, fsync);
        // 64 series spread over the 16 shards; the first rounds create them.
        for round in 1..=3 {
            run_round(&db, round, 64);
        }
        for round in 4..=10 {
            let (ops, bytes) = (fs.op_count(), fs.total_write_bytes());
            run_round(&db, round, 64);
            assert_eq!(
                fs.op_count() - ops,
                ops_per_round,
                "{fsync:?}: a warm round must be one append (plus one fsync under EveryCommit)"
            );
            assert!(fs.total_write_bytes() > bytes, "the round's samples were written");
        }
        // A round with nothing staged writes nothing at all.
        let ops = fs.op_count();
        assert!(db.wal_flush());
        assert_eq!(fs.op_count(), ops, "{fsync:?}: an idle flush must not touch the disk");
    }
}

/// Whatever the workload does — create, drop, retention, checkpoints — the
/// directory holds the round log and, once one was taken, the checkpoint.
#[test]
fn the_directory_holds_only_the_round_log_and_the_checkpoint() {
    let fs = FaultFs::new();
    let db = open(&fs, 256, FsyncMode::EveryCommit);
    run_round(&db, 1, 2);
    assert_eq!(fs.file_paths(), vec![log_path()], "before any checkpoint: the log alone");
    for round in 2..=30 {
        run_round(&db, round, 8);
        if round % 5 == 0 {
            let gone = format!("n{}", round % 8);
            db.drop_series(&Selector::metric("teemon_round_log_metric").with_label("node", &gone));
        }
        if round % 7 == 0 {
            db.apply_retention();
        }
        assert!(db.wal_flush());
    }
    assert_eq!(fs.file_paths(), vec![checkpoint_path(), log_path()]);
    // And the two files are the whole durable state.
    let reopened = open(&fs, 256, FsyncMode::EveryCommit);
    assert_eq!(format!("{:?}", reopened.stats()), format!("{:?}", db.stats()));
}

/// The checkpoint cadence: after each commit a checkpoint is taken iff the
/// log bytes written since the last one exceed `max(segment_bytes, size of
/// the last checkpoint)`.  The segment is set below the checkpoint's own
/// size, so after the first checkpoint the larger bound must govern.
#[test]
fn checkpoints_wait_for_max_of_segment_and_last_checkpoint_size() {
    let segment_bytes = 256;
    let fs = FaultFs::new();
    let db = open(&fs, segment_bytes, FsyncMode::OnRotation);
    let mut last_checkpoint = 0u64;
    let mut written_at_checkpoint = 0u64;
    let mut checkpoints = 0;
    let mut governed_by_checkpoint_size = false;
    for round in 1..=80 {
        run_round(&db, round, 16);
        let since = fs.total_write_bytes() - written_at_checkpoint;
        let bound = segment_bytes.max(last_checkpoint);
        // A round always appends a frame, so an empty log means the flush
        // just checkpointed and truncated it.
        let checkpointed = fs.file_len(&log_path()) == Some(0);
        assert_eq!(
            checkpointed,
            since > bound,
            "round {round}: {since} log bytes since the last checkpoint against a bound of {bound}"
        );
        if since > segment_bytes && since <= bound {
            governed_by_checkpoint_size = true;
        }
        if checkpointed {
            checkpoints += 1;
            last_checkpoint = fs.file_len(&checkpoint_path()).expect("checkpoint written");
            written_at_checkpoint = fs.total_write_bytes();
        }
    }
    assert!(checkpoints >= 2, "the workload must take several checkpoints, took {checkpoints}");
    assert!(
        last_checkpoint > segment_bytes && governed_by_checkpoint_size,
        "the checkpoint's own size must have deferred at least one checkpoint"
    );
}
