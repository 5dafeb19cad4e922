//! The journal's log: an append-only file of consecutive records, retired
//! only from the front, whose file is its only copy.
//!
//! A site's journal (`esr_runtime::recovery::ApplyJournal`, the log
//! that makes the paper's stable queues stable, §2.2) numbers its
//! records consecutively and only ever retires the oldest, so its live
//! records are one id range `first..next`. That range, the file's
//! length, the offset of the first live record and the bytes retirement
//! has made dead are all [`JournalLog`] holds in memory: no payload and
//! nothing per record. Payloads are read back from the file when they
//! are needed — by [`JournalLog::read_live`] at boot, and by a
//! retirement, which must find the new first record and may compact.
//!
//! The framing below is the one definition of the file format, shared
//! with [`FileQueue`](crate::stable_queue::FileQueue): one byte tag,
//! eight byte id, then for an enqueue a four byte length and the
//! payload. A retirement appends one ack record per retired id. A
//! NEXT_ID record pins the id allocator: a compacted file whose records
//! were all retired would otherwise restart ids at zero, and any cursor
//! keyed to old ids (a link cursor, a checkpoint's journal cut) would
//! silently skip the reused range.

use std::fs::{File, OpenOptions};
use std::io::{self, BufWriter, Write};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

use bytes::{BufMut, BytesMut};

pub(crate) const TAG_ENQUEUE: u8 = 1;
pub(crate) const TAG_ACK: u8 = 2;
pub(crate) const TAG_NEXT_ID: u8 = 3;

/// Bytes of an enqueue record ahead of its payload: tag, id, length.
pub(crate) const ENQUEUE_HEADER: usize = 13;

/// Bytes of an ack or NEXT_ID record: tag and id.
pub(crate) const MARK_LEN: usize = 9;

/// After an ack, once this many bytes of the log belong to acknowledged
/// records, the file is rewritten with only the live entries. Small
/// enough that a journal visibly shrinks (and never makes the next boot
/// re-read a history of dead records); large enough that a rewrite
/// never dominates steady-state appends.
const COMPACT_DEAD_BYTES: u64 = 64 * 1024;

/// Whether a log of `len` bytes, `dead` of them acknowledged records
/// and their acks, is rewritten: only once the dead records also
/// outweigh the live ones, so draining a long backlog (a peer back from
/// an outage, a checkpoint retiring a long prefix) costs rewrites
/// linear in the backlog rather than one full rewrite per threshold.
pub(crate) fn compaction_due(dead: u64, len: u64) -> bool {
    dead >= COMPACT_DEAD_BYTES.max(len / 2)
}

/// One framed record of a log file.
pub(crate) enum Framed<'a> {
    Enqueue { id: u64, payload: &'a [u8] },
    Ack(u64),
    NextId(u64),
}

/// The whole records at the front of a buffer, each with its offset. A
/// record cut short (a torn write) or carrying an unknown tag ends the
/// walk; [`Frames::valid_len`] is then the length of the intact prefix.
pub(crate) struct Frames<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Frames<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Self { buf, at: 0 }
    }

    /// Bytes walked so far: after the walk, the valid prefix.
    pub(crate) fn valid_len(&self) -> usize {
        self.at
    }
}

impl<'a> Iterator for Frames<'a> {
    type Item = (usize, Framed<'a>);

    fn next(&mut self) -> Option<Self::Item> {
        let (&tag, rest) = self.buf[self.at..].split_first()?;
        let id = u64::from_be_bytes(rest.get(..8)?.try_into().ok()?);
        let (framed, len) = match tag {
            TAG_ENQUEUE => {
                let n = u32::from_be_bytes(rest.get(8..12)?.try_into().ok()?) as usize;
                let payload = rest.get(12..12 + n)?;
                (Framed::Enqueue { id, payload }, ENQUEUE_HEADER + n)
            }
            TAG_ACK => (Framed::Ack(id), MARK_LEN),
            TAG_NEXT_ID => (Framed::NextId(id), MARK_LEN),
            _ => return None,
        };
        let at = self.at;
        self.at += len;
        Some((at, framed))
    }
}

/// Appends an enqueue record whose payload `put` encodes in place.
pub(crate) fn put_enqueue(b: &mut BytesMut, id: u64, put: impl FnOnce(&mut BytesMut)) {
    b.put_u8(TAG_ENQUEUE);
    b.put_u64(id);
    let at = b.len();
    b.put_u32(0);
    put(b);
    let n = (b.len() - at - 4) as u32;
    b[at..at + 4].copy_from_slice(&n.to_be_bytes());
}

/// Appends an ack or NEXT_ID record.
pub(crate) fn put_mark(b: &mut BytesMut, tag: u8, id: u64) {
    b.put_u8(tag);
    b.put_u64(id);
}

fn invalid(why: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, why)
}

/// The journal's log file. Live records carry the ids `first..next`;
/// see the module docs.
#[derive(Debug)]
pub struct JournalLog {
    path: PathBuf,
    file: File,
    /// The oldest live id; equal to `next` when no record is live.
    first: u64,
    /// The id the next appended record takes.
    next: u64,
    /// Offset of record `first`, or `len` when no record is live.
    live_at: u64,
    /// Length of the file: the valid prefix found at open, plus every
    /// record appended since, reset by each compaction.
    len: u64,
    /// Bytes of retired records and their acks since open or the last
    /// compaction.
    dead: u64,
    /// The bytes of the append being written, emptied once written: its
    /// buffer is reused append to append, never a copy of the log.
    append: BytesMut,
}

impl JournalLog {
    /// Opens (or creates) a log, reading the file once.
    ///
    /// A torn tail (a record cut short by a crash mid-append) or a
    /// corrupt record ends the scan *and the file is truncated back to
    /// the last whole record*, so appends land right after it; without
    /// that, they would be unreachable on the following open. A file
    /// whose live ids are not one contiguous suffix of the ids ever
    /// assigned — a record that is not the next id, an ack that does
    /// not retire the oldest live record — is `InvalidData`.
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let buf = match std::fs::read(&path) {
            Ok(buf) => buf,
            Err(e) if e.kind() == io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(e),
        };
        // The live range is `first..end`; `next` is the allocator.
        let (mut first, mut end, mut next) = (0u64, 0u64, 0u64);
        let mut frames = Frames::new(&buf);
        for (_, framed) in &mut frames {
            match framed {
                Framed::Enqueue { id, .. } if first == end && id >= end => {
                    (first, end) = (id, id + 1);
                }
                Framed::Enqueue { id, .. } if id == end => end += 1,
                Framed::Ack(id) if first < end && id == first => first += 1,
                Framed::NextId(id) => {
                    // The pinned allocator value, not an entry id.
                    next = next.max(id);
                    continue;
                }
                Framed::Enqueue { id, .. } | Framed::Ack(id) => {
                    let why = format!("journal record {id} is not next to live ids {first}..{end}");
                    return Err(invalid(why));
                }
            }
            next = next.max(end);
        }
        if first < end && end != next {
            let why = format!("journal live ids {first}..{end} end short of id {next}");
            return Err(invalid(why));
        }
        let len = frames.valid_len();
        if len < buf.len() {
            OpenOptions::new()
                .write(true)
                .open(&path)?
                .set_len(len as u64)?;
        }
        let first = if first < end { first } else { next };
        let live_at = Frames::new(&buf[..len])
            .find(|(_, f)| matches!(f, Framed::Enqueue { id, .. } if *id == first))
            .map_or(len, |(at, _)| at) as u64;
        let file = OpenOptions::new()
            .create(true)
            .read(true)
            .append(true)
            .open(&path)?;
        Ok(Self {
            path,
            file,
            first,
            next,
            live_at,
            len: len as u64,
            dead: 0,
            append: BytesMut::new(),
        })
    }

    /// The id the next appended record takes. Monotone across recovery,
    /// retirement and compaction; `next_id() - 1` is therefore the id
    /// of the newest record ever appended (when any was).
    pub fn next_id(&self) -> u64 {
        self.next
    }

    /// Number of live (unretired) records.
    pub fn live_len(&self) -> u64 {
        self.next - self.first
    }

    /// Bytes of the backing file, tracked without touching the
    /// filesystem.
    pub fn file_len(&self) -> u64 {
        self.len
    }

    /// Appends one record per item, with consecutive ids, in one write:
    /// `put` encodes each item's payload straight into the buffer that
    /// is written, so a crash mid-write leaves a whole-record prefix.
    /// Returns the bytes appended, framing included.
    pub fn append<T>(
        &mut self,
        items: &[T],
        mut put: impl FnMut(&T, &mut BytesMut),
    ) -> io::Result<u64> {
        if items.is_empty() {
            return Ok(0);
        }
        let b = &mut self.append;
        b.clear();
        for (id, item) in (self.next..).zip(items) {
            put_enqueue(b, id, |b| put(item, b));
        }
        self.file.write_all(b)?;
        if self.first == self.next {
            self.live_at = self.len;
        }
        self.next += items.len() as u64;
        self.len += b.len() as u64;
        Ok(b.len() as u64)
    }

    /// Reads the live records with one read and passes each id and
    /// payload to `f`, oldest first. A file that no longer frames the
    /// live range it was opened with is `InvalidData`.
    pub fn read_live(&self, mut f: impl FnMut(u64, &[u8]) -> io::Result<()>) -> io::Result<()> {
        let suffix = self.read_suffix()?;
        let mut want = self.first;
        let mut frames = Frames::new(&suffix);
        for (_, framed) in &mut frames {
            if let Framed::Enqueue { id, payload } = framed {
                if id != want {
                    return Err(invalid(format!(
                        "journal record {id} found where {want} was"
                    )));
                }
                f(id, payload)?;
                want += 1;
            }
        }
        if frames.valid_len() < suffix.len() || want != self.next {
            let why = format!(
                "journal holds live ids {}..{want}, not ..{}",
                self.first, self.next
            );
            return Err(invalid(why));
        }
        Ok(())
    }

    /// Retires every live record with id `<= through`, appending one ack
    /// record per id in one write, and compacts once the dead records
    /// are due. Returns the number of records retired. Retirement is an
    /// ack, not a delete: the bytes are reclaimed by compaction, which
    /// copies the live records from the file into a fresh one. A failed
    /// compaction is ignored: the log stays append-only correct, just
    /// longer than asked.
    pub fn retire_through(&mut self, through: u64) -> io::Result<u64> {
        let upto = through.saturating_add(1).min(self.next);
        if upto <= self.first {
            return Ok(0);
        }
        let suffix = self.read_suffix()?;
        let mut acks = BytesMut::with_capacity(MARK_LEN * (upto - self.first) as usize);
        let (mut want, mut dead, mut kept) = (self.first, 0, suffix.len());
        for (at, framed) in Frames::new(&suffix) {
            let Framed::Enqueue { id, payload } = framed else {
                continue;
            };
            if id != want {
                return Err(invalid(format!(
                    "journal record {id} found where {want} was"
                )));
            }
            if id == upto {
                kept = at;
                break;
            }
            put_mark(&mut acks, TAG_ACK, id);
            dead += (ENQUEUE_HEADER + payload.len() + MARK_LEN) as u64;
            want += 1;
        }
        if want != upto {
            return Err(invalid(format!("journal ends at id {want}, before {upto}")));
        }
        self.file.write_all(&acks)?;
        let retired = upto - self.first;
        self.first = upto;
        self.live_at += kept as u64;
        self.len += acks.len() as u64;
        if self.first == self.next {
            self.live_at = self.len;
        }
        self.dead += dead;
        if compaction_due(self.dead, self.len) {
            let _ = self.compact(&suffix[kept..]);
        }
        Ok(retired)
    }

    /// Rewrites the file as a NEXT_ID record pinning the allocator and
    /// the enqueue records of `live`, the file's bytes from record
    /// `first` on (acks of retired records among them are dropped).
    fn compact(&mut self, live: &[u8]) -> io::Result<()> {
        let tmp = self.path.with_extension("compact");
        let mut pin = BytesMut::with_capacity(MARK_LEN);
        put_mark(&mut pin, TAG_NEXT_ID, self.next);
        let mut len = pin.len();
        {
            let mut out = BufWriter::new(File::create(&tmp)?);
            out.write_all(&pin)?;
            for (at, framed) in Frames::new(live) {
                if let Framed::Enqueue { payload, .. } = framed {
                    let rec = &live[at..at + ENQUEUE_HEADER + payload.len()];
                    out.write_all(rec)?;
                    len += rec.len();
                }
            }
            out.flush()?;
        }
        std::fs::rename(&tmp, &self.path)?;
        self.file = OpenOptions::new()
            .read(true)
            .append(true)
            .open(&self.path)?;
        self.live_at = MARK_LEN as u64;
        self.len = len as u64;
        self.dead = 0;
        Ok(())
    }

    /// The file's bytes from the first live record to the end.
    fn read_suffix(&self) -> io::Result<Vec<u8>> {
        let mut buf = vec![0; (self.len - self.live_at) as usize];
        self.file.read_exact_at(&mut buf, self.live_at)?;
        Ok(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("esr-journal-log-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        let _ = std::fs::remove_file(&path);
        path
    }

    fn put(item: &&str, b: &mut BytesMut) {
        b.put_slice(item.as_bytes());
    }

    fn live(log: &JournalLog) -> Vec<(u64, Vec<u8>)> {
        let mut out = Vec::new();
        log.read_live(|id, p| {
            out.push((id, p.to_vec()));
            Ok(())
        })
        .unwrap();
        out
    }

    #[test]
    fn appends_read_back_and_survive_reopen() {
        let path = path("roundtrip.log");
        let mut log = JournalLog::open(&path).unwrap();
        assert_eq!(log.append::<&str>(&[], put).unwrap(), 0);
        assert_eq!(log.append(&["ab", "c"], put).unwrap(), 2 * 13 + 3);
        assert_eq!(log.append(&[""], put).unwrap(), 13);
        let want = vec![(0, b"ab".to_vec()), (1, b"c".to_vec()), (2, Vec::new())];
        assert_eq!(live(&log), want);
        assert_eq!(log.file_len(), std::fs::metadata(&path).unwrap().len());
        drop(log);
        let log = JournalLog::open(&path).unwrap();
        assert_eq!((log.live_len(), log.next_id()), (3, 3));
        assert_eq!(live(&log), want);
    }

    #[test]
    fn retirement_keeps_the_suffix_and_the_allocator() {
        let path = path("retire.log");
        let mut log = JournalLog::open(&path).unwrap();
        log.append(&["a", "b", "c"], put).unwrap();
        assert_eq!(log.retire_through(0).unwrap(), 1);
        log.append(&["d"], put).unwrap();
        assert_eq!(log.retire_through(1).unwrap(), 1);
        assert_eq!(
            log.retire_through(1).unwrap(),
            0,
            "retirement is idempotent"
        );
        // The file now interleaves acks with live records.
        assert_eq!(live(&log), vec![(2, b"c".to_vec()), (3, b"d".to_vec())]);
        assert_eq!(log.retire_through(9).unwrap(), 2);
        assert_eq!((log.live_len(), log.next_id()), (0, 4));
        assert!(live(&log).is_empty());
        log.append(&["e"], put).unwrap();
        assert_eq!(live(&log), vec![(4, b"e".to_vec())]);
        drop(log);
        let log = JournalLog::open(&path).unwrap();
        assert_eq!((log.live_len(), log.next_id()), (1, 5));
        assert_eq!(live(&log), vec![(4, b"e".to_vec())]);
    }

    #[test]
    fn compaction_copies_the_live_records_from_the_file() {
        let path = path("compact.log");
        let mut log = JournalLog::open(&path).unwrap();
        let big = "7".repeat(1000);
        let items: Vec<&str> = (0..100).map(|_| big.as_str()).collect();
        log.append(&items, put).unwrap();
        log.retire_through(89).unwrap();
        assert_eq!(log.file_len(), 9 + 10 * 1013, "the retired prefix is gone");
        assert_eq!(log.file_len(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(live(&log).first().map(|(id, _)| *id), Some(90));
        log.retire_through(99).unwrap();
        log.append(&["x"], put).unwrap();
        drop(log);
        let log = JournalLog::open(&path).unwrap();
        assert_eq!((log.live_len(), log.next_id()), (1, 101));
        assert_eq!(live(&log), vec![(100, b"x".to_vec())]);
    }

    #[test]
    fn a_gap_in_the_live_ids_is_invalid_data() {
        for (name, recs) in [
            ("gap", vec![(TAG_ENQUEUE, 0), (TAG_ENQUEUE, 2)]),
            (
                "ack-inside",
                vec![(TAG_ENQUEUE, 0), (TAG_ENQUEUE, 1), (TAG_ACK, 1)],
            ),
            ("short-of-pin", vec![(TAG_NEXT_ID, 5), (TAG_ENQUEUE, 3)]),
        ] {
            let path = path(&format!("{name}.log"));
            let mut b = BytesMut::new();
            for (tag, id) in recs {
                match tag {
                    TAG_ENQUEUE => put_enqueue(&mut b, id, |b| b.put_u8(0)),
                    _ => put_mark(&mut b, tag, id),
                }
            }
            std::fs::write(&path, &b[..]).unwrap();
            let err = JournalLog::open(&path).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "{name}: {err}");
        }
    }
}
