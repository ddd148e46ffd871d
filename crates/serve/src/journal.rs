//! The crash-safe session journal.
//!
//! An append-only file of ordinary wire frames ([`crate::wire::Frame`]):
//! an `EpochMark` at every daemon start, each applied `Batch` in apply
//! order, and a full-state `Snapshot` every `snapshot_every` batches.
//! Nothing is ever rewritten in place, so a crash at any byte leaves a
//! valid prefix — replay simply stops at the first torn frame, and a
//! restart cuts the torn bytes off ([`truncate_torn_tail`]) before it
//! appends again, so the next replay never reads into them.
//!
//! **Determinism argument.** The engine's slot table is a pure function
//! of the applied-batch *set* (last-writer-wins by batch id, see
//! [`crate::engine`]). The journal records exactly that set (plus a
//! snapshot prefix-sum), so `replay(journal)` reconstructs the table
//! bit-for-bit: restart-and-replay, then re-ingest whatever the client
//! resends, lands on the same slots — and therefore the same estimate
//! bits — as a run that was never interrupted.

use std::fs::{File, OpenOptions};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};

use tomo_obs::LazyCounter;

use crate::wire::{read_frame, write_frame, Frame, WireError};

static APPENDS: LazyCounter = LazyCounter::new("serve.journal.appends");
static SNAPSHOTS: LazyCounter = LazyCounter::new("serve.journal.snapshots");
static REPLAYED: LazyCounter = LazyCounter::new("serve.journal.replayed_frames");
static TORN: LazyCounter = LazyCounter::new("serve.journal.torn_tail");

/// What a journal replay recovered.
#[derive(Debug, Default)]
pub struct Replay {
    /// The last epoch marked in the journal (0 if none).
    pub last_epoch: u64,
    /// The latest snapshot, if any, and the batches applied after it, in
    /// apply order. With no snapshot, `batches` is the whole history.
    pub snapshot: Option<crate::wire::SnapshotState>,
    /// Batches to re-apply on top of `snapshot` (or from scratch).
    pub batches: Vec<crate::wire::ProbeBatch>,
    /// Frames recovered before the tail was torn (diagnostics).
    pub frames_read: u64,
    /// `true` when the file ended inside a frame — the torn tail of a
    /// crash mid-append. The valid prefix is still used.
    pub torn_tail: bool,
    /// Byte length of the whole-frame prefix that was replayed: the
    /// length [`truncate_torn_tail`] cuts a torn journal back to.
    pub valid_len: u64,
}

/// Counts the bytes read through it, so replay knows where each whole
/// frame ends without a second pass over the file.
struct CountingReader<R> {
    inner: R,
    read: u64,
}

impl<R: Read> Read for CountingReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.read += n as u64;
        Ok(n)
    }
}

/// Cuts a torn tail off the journal at `path`, back to the whole-frame
/// prefix `replay` recovered, and counts it in `serve.journal.torn_tail`.
/// Does nothing when the replay found no torn tail. A restart calls this
/// between [`Journal::replay`] and [`Journal::open`]: appending after
/// the torn bytes would make the next replay read them as a frame
/// header, and the daemon could not start again.
///
/// # Errors
///
/// Returns the underlying I/O error.
pub fn truncate_torn_tail(path: &Path, replay: &Replay) -> std::io::Result<()> {
    if !replay.torn_tail {
        return Ok(());
    }
    OpenOptions::new()
        .write(true)
        .open(path)?
        .set_len(replay.valid_len)?;
    TORN.inc();
    tomo_obs::warn!(
        "serve.journal",
        "truncated a torn journal tail back to {} bytes",
        replay.valid_len
    );
    Ok(())
}

/// An open, append-mode journal.
pub struct Journal {
    path: PathBuf,
    writer: BufWriter<File>,
    appended_since_snapshot: u64,
    snapshot_every: u64,
    sync_data: bool,
}

impl Journal {
    /// Opens (creating if absent) the journal at `path` for appending.
    /// A snapshot frame is written every `snapshot_every` batch appends
    /// (0 disables snapshots).
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn open(path: &Path, snapshot_every: u64) -> std::io::Result<Journal> {
        if let Some(parent) = path.parent() {
            if !parent.as_os_str().is_empty() {
                std::fs::create_dir_all(parent)?;
            }
        }
        let file = OpenOptions::new().create(true).append(true).open(path)?;
        Ok(Journal {
            path: path.to_path_buf(),
            writer: BufWriter::new(file),
            appended_since_snapshot: 0,
            snapshot_every,
            sync_data: false,
        })
    }

    /// Enables `sync_data` after every append, extending durability from
    /// process crashes to OS crashes and power loss, at the cost of one
    /// fsync per acked batch.
    #[must_use]
    pub fn with_sync(mut self, sync_data: bool) -> Journal {
        self.sync_data = sync_data;
        self
    }

    /// The journal's location.
    #[must_use]
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends one frame and flushes it to the OS page cache — a batch
    /// is only acked after its journal append returned, so an acked
    /// batch survives a *process* crash. Surviving an OS crash or power
    /// loss additionally requires [`Journal::with_sync`], which fsyncs
    /// every append.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error; the daemon treats a journal
    /// write failure as fatal for the batch (the client retries).
    pub fn append(&mut self, frame: &Frame) -> std::io::Result<()> {
        write_frame(&mut self.writer, frame).map_err(wire_to_io)?;
        self.writer.flush()?;
        if self.sync_data {
            self.writer.get_ref().sync_data()?;
        }
        APPENDS.inc();
        if matches!(frame, Frame::Batch(_)) {
            self.appended_since_snapshot += 1;
        }
        Ok(())
    }

    /// `true` when the snapshot cadence says it is time to checkpoint.
    #[must_use]
    pub fn snapshot_due(&self) -> bool {
        self.snapshot_every > 0 && self.appended_since_snapshot >= self.snapshot_every
    }

    /// Appends a snapshot frame and resets the cadence counter.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error.
    pub fn append_snapshot(&mut self, snap: crate::wire::SnapshotState) -> std::io::Result<()> {
        self.append(&Frame::Snapshot(snap))?;
        SNAPSHOTS.inc();
        self.appended_since_snapshot = 0;
        Ok(())
    }

    /// Reads the journal at `path` back into a [`Replay`]. A missing
    /// file is an empty history, and a torn tail (crash mid-append) is
    /// truncated at the last whole frame, not an error.
    ///
    /// # Errors
    ///
    /// Returns I/O errors other than "not found".
    pub fn replay(path: &Path) -> std::io::Result<Replay> {
        let file = match File::open(path) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Replay::default()),
            Err(e) => return Err(e),
        };
        let mut reader = CountingReader {
            inner: BufReader::new(file),
            read: 0,
        };
        let mut replay = Replay::default();
        loop {
            match read_frame(&mut reader) {
                Ok(None) => break,
                Ok(Some(frame)) => {
                    replay.valid_len = reader.read;
                    replay.frames_read += 1;
                    REPLAYED.inc();
                    match frame {
                        Frame::EpochMark { epoch } => replay.last_epoch = epoch,
                        Frame::Snapshot(snap) => {
                            replay.last_epoch = replay.last_epoch.max(snap.epoch);
                            replay.snapshot = Some(snap);
                            replay.batches.clear();
                        }
                        Frame::Batch(batch) => replay.batches.push(batch),
                        // Other frame kinds never reach the journal;
                        // tolerate them for forward compatibility.
                        _ => {}
                    }
                }
                Err(WireError::UnexpectedEof) => {
                    // Torn tail from a crash mid-append: keep the prefix.
                    replay.torn_tail = true;
                    break;
                }
                Err(e) => return Err(wire_to_io(e)),
            }
        }
        Ok(replay)
    }
}

fn wire_to_io(e: WireError) -> std::io::Error {
    match e {
        WireError::Io(kind) => std::io::Error::new(kind, "journal transport error"),
        other => std::io::Error::new(std::io::ErrorKind::InvalidData, other.to_string()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{ProbeBatch, ProbeRow, SnapshotState};

    fn batch(id: u64) -> ProbeBatch {
        ProbeBatch {
            batch_id: id,
            epoch: 1,
            rows: vec![ProbeRow::new(0, id as f64)],
        }
    }

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "tomo-serve-journal-{}-{name}.bin",
            std::process::id()
        ));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn replay_of_missing_file_is_empty() {
        let r = Journal::replay(Path::new("/nonexistent/journal.bin")).unwrap();
        assert_eq!(r.frames_read, 0);
        assert!(r.snapshot.is_none() && r.batches.is_empty());
    }

    #[test]
    fn append_then_replay_round_trips() {
        let path = temp_path("roundtrip");
        {
            let mut j = Journal::open(&path, 0).unwrap();
            j.append(&Frame::EpochMark { epoch: 1 }).unwrap();
            j.append(&Frame::Batch(batch(0))).unwrap();
            j.append(&Frame::Batch(batch(1))).unwrap();
        }
        let r = Journal::replay(&path).unwrap();
        assert_eq!(r.last_epoch, 1);
        assert_eq!(r.batches.len(), 2);
        assert!(!r.torn_tail);
        // Re-open appends, never truncates.
        {
            let mut j = Journal::open(&path, 0).unwrap();
            j.append(&Frame::EpochMark { epoch: 2 }).unwrap();
            j.append(&Frame::Batch(batch(2))).unwrap();
        }
        let r = Journal::replay(&path).unwrap();
        assert_eq!(r.last_epoch, 2);
        assert_eq!(r.batches.len(), 3);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn synced_appends_round_trip() {
        let path = temp_path("synced");
        {
            let mut j = Journal::open(&path, 0).unwrap().with_sync(true);
            j.append(&Frame::EpochMark { epoch: 1 }).unwrap();
            j.append(&Frame::Batch(batch(0))).unwrap();
        }
        let r = Journal::replay(&path).unwrap();
        assert_eq!(r.last_epoch, 1);
        assert_eq!(r.batches.len(), 1);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn snapshot_resets_the_batch_suffix() {
        let path = temp_path("snapshot");
        {
            let mut j = Journal::open(&path, 2).unwrap();
            j.append(&Frame::EpochMark { epoch: 1 }).unwrap();
            j.append(&Frame::Batch(batch(0))).unwrap();
            assert!(!j.snapshot_due());
            j.append(&Frame::Batch(batch(1))).unwrap();
            assert!(j.snapshot_due());
            j.append_snapshot(SnapshotState {
                epoch: 1,
                watermark: 2,
                applied_above: vec![],
                slots: vec![(0, 1.0f64.to_bits(), 1)],
            })
            .unwrap();
            assert!(!j.snapshot_due());
            j.append(&Frame::Batch(batch(2))).unwrap();
        }
        let r = Journal::replay(&path).unwrap();
        let snap = r.snapshot.expect("snapshot recovered");
        assert_eq!(snap.watermark, 2);
        assert_eq!(r.batches.len(), 1, "only the post-snapshot batch");
        assert_eq!(r.batches[0].batch_id, 2);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let path = temp_path("torn");
        {
            let mut j = Journal::open(&path, 0).unwrap();
            j.append(&Frame::EpochMark { epoch: 1 }).unwrap();
            j.append(&Frame::Batch(batch(0))).unwrap();
            j.append(&Frame::Batch(batch(1))).unwrap();
        }
        // Tear the last frame mid-way, as a crash mid-append would.
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 3]).unwrap();
        let r = Journal::replay(&path).unwrap();
        assert!(r.torn_tail);
        assert_eq!(r.batches.len(), 1, "torn batch dropped, prefix kept");
        assert_eq!(r.batches[0].batch_id, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn restart_after_a_crash_at_any_byte_appends_after_the_valid_prefix() {
        let path = temp_path("crash-sweep");
        {
            let mut j = Journal::open(&path, 0).unwrap();
            j.append(&Frame::EpochMark { epoch: 1 }).unwrap();
            j.append(&Frame::Batch(batch(0))).unwrap();
            j.append(&Frame::Batch(batch(1))).unwrap();
            j.append(&Frame::EpochMark { epoch: 2 }).unwrap();
            j.append(&Frame::Batch(batch(2))).unwrap();
        }
        let full = std::fs::read(&path).unwrap();
        let ids = |r: &Replay| r.batches.iter().map(|b| b.batch_id).collect::<Vec<_>>();
        for cut in 0..=full.len() {
            // Crash mid-append at byte `cut`, then restart the way the
            // server does: replay, cut the torn tail, reopen, append.
            std::fs::write(&path, &full[..cut]).unwrap();
            let before = Journal::replay(&path).unwrap();
            assert_eq!(
                before.torn_tail,
                before.valid_len != cut as u64,
                "cut {cut}"
            );
            assert!(ids(&before)
                .iter()
                .copied()
                .eq(0..before.batches.len() as u64));
            truncate_torn_tail(&path, &before).unwrap();
            {
                let mut j = Journal::open(&path, 0).unwrap();
                j.append(&Frame::Batch(batch(9))).unwrap();
            }
            let after = Journal::replay(&path).unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            assert!(!after.torn_tail, "cut {cut}");
            assert_eq!(after.last_epoch, before.last_epoch, "cut {cut}");
            assert_eq!(after.frames_read, before.frames_read + 1, "cut {cut}");
            let mut expected = ids(&before);
            expected.push(9);
            assert_eq!(ids(&after), expected, "cut {cut}");
        }
        let _ = std::fs::remove_file(&path);
    }
}
