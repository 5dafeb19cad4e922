//! Checkpoint snapshot container: a versioned, crc-guarded,
//! atomically-installed file format.
//!
//! This module is deliberately ignorant of *what* is being
//! checkpointed — the payload is opaque bytes (the runtime encodes its
//! view, client table, control ledger and method state into it).
//! What lives here is the durability story:
//!
//! * **Framing** — `"ESRSNAP1"` magic, a `u64` checkpoint sequence
//!   number, a `u64` payload length, the payload, and a trailing CRC-32
//!   over everything before it. [`decode_container`] is total: any byte
//!   string either yields `(seq, payload)` or `None`, never a panic —
//!   a torn or bit-flipped snapshot is just "no snapshot".
//! * **Atomic install** — [`install`] writes `<prefix>.ckpt-<seq>.tmp`
//!   and `rename(2)`s it into place, so a crash leaves either the
//!   previous snapshot set or the previous set plus one complete new
//!   file, never a half-written `.snap`.
//! * **Newest-valid load** — [`load_newest`] walks candidates newest
//!   first and returns the first one that validates, silently skipping
//!   torn/corrupt files: recovery lands on snapshot-or-previous.
//! * **Retention** — [`retain`] keeps the newest `keep` snapshots.
//!   Callers keep ≥ 2 so log truncation can lag one checkpoint behind
//!   (see `DESIGN.md` §16): if the newest snapshot is corrupt, the
//!   previous one plus the un-truncated journal suffix still recovers.

use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Container magic: format name + version.
pub const SNAP_MAGIC: [u8; 8] = *b"ESRSNAP1";

/// Fixed container overhead: magic + seq + payload length + crc.
pub const SNAP_OVERHEAD: usize = 8 + 8 + 8 + 4;

/// How many snapshots a site keeps: the newest, and the one before it
/// that a boot falls back to when the newest is corrupt.
pub const KEEP: usize = 2;

/// CRC-32 (IEEE) lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC-32 (IEEE 802.3) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Frames `payload` as a snapshot container for checkpoint `seq`.
pub fn encode_container(seq: u64, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(SNAP_OVERHEAD + payload.len());
    out.extend_from_slice(&SNAP_MAGIC);
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_be_bytes());
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_be_bytes());
    out
}

/// Parses and validates a snapshot container. Total: returns `None`
/// (never panics) on short input, bad magic, a length that disagrees
/// with the file size, or a crc mismatch.
pub fn decode_container(bytes: &[u8]) -> Option<(u64, &[u8])> {
    if bytes.len() < SNAP_OVERHEAD || bytes[..8] != SNAP_MAGIC {
        return None;
    }
    let seq = u64::from_be_bytes(bytes[8..16].try_into().ok()?);
    let len = u64::from_be_bytes(bytes[16..24].try_into().ok()?);
    // Exact-size check (no truncated payload, no trailing garbage);
    // the comparison is in u64 so a huge declared length cannot
    // overflow a usize conversion.
    if len != (bytes.len() - SNAP_OVERHEAD) as u64 {
        return None;
    }
    let payload_end = bytes.len() - 4;
    let stored = u32::from_be_bytes(bytes[payload_end..].try_into().ok()?);
    if crc32(&bytes[..payload_end]) != stored {
        return None;
    }
    Some((seq, &bytes[24..payload_end]))
}

fn snap_path(dir: &Path, prefix: &str, seq: u64) -> PathBuf {
    dir.join(format!("{prefix}.ckpt-{seq}.snap"))
}

/// Atomically installs checkpoint `seq` with the given opaque payload:
/// the container is written to a `.tmp` sibling, flushed, and renamed
/// into place. Returns the installed path.
pub fn install(dir: &Path, prefix: &str, seq: u64, payload: &[u8]) -> io::Result<PathBuf> {
    let path = snap_path(dir, prefix, seq);
    let tmp = dir.join(format!("{prefix}.ckpt-{seq}.tmp"));
    let bytes = encode_container(seq, payload);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, &path)?;
    Ok(path)
}

/// Every installed snapshot for `prefix`, as `(seq, path)` sorted by
/// ascending seq. Files are *not* validated — this lists candidates.
pub fn list(dir: &Path, prefix: &str) -> io::Result<Vec<(u64, PathBuf)>> {
    let head = format!("{prefix}.ckpt-");
    let mut found = Vec::new();
    match std::fs::read_dir(dir) {
        Ok(entries) => {
            for entry in entries {
                let entry = entry?;
                let name = entry.file_name();
                let Some(name) = name.to_str() else { continue };
                let Some(rest) = name.strip_prefix(&head) else { continue };
                let Some(seq_str) = rest.strip_suffix(".snap") else { continue };
                if let Ok(seq) = seq_str.parse::<u64>() {
                    found.push((seq, entry.path()));
                }
            }
        }
        Err(e) if e.kind() == io::ErrorKind::NotFound => {}
        Err(e) => return Err(e),
    }
    found.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(found)
}

/// The payload of snapshot `seq`, or `None` when it is missing, torn
/// or corrupt.
pub fn load(dir: &Path, prefix: &str, seq: u64) -> Option<Vec<u8>> {
    let bytes = std::fs::read(snap_path(dir, prefix, seq)).ok()?;
    decode_container(&bytes).map(|(_, payload)| payload.to_vec())
}

/// Loads the newest snapshot that validates, returning
/// `(seq, payload)` — or `None` when no candidate exists or every one
/// is torn/corrupt. Invalid newer files are skipped, not fatal.
pub fn load_newest(dir: &Path, prefix: &str) -> io::Result<Option<(u64, Vec<u8>)>> {
    let mut newest_first = list(dir, prefix)?.into_iter().rev();
    Ok(newest_first.find_map(|(seq, _)| Some((seq, load(dir, prefix, seq)?))))
}

/// The raw container bytes of the newest *valid* snapshot (for serving
/// snapshot catch-up chunks to a rejoining peer), with its seq.
pub fn load_newest_raw(dir: &Path, prefix: &str) -> io::Result<Option<(u64, Vec<u8>)>> {
    for (_, path) in list(dir, prefix)?.into_iter().rev() {
        let Ok(bytes) = std::fs::read(&path) else { continue };
        if let Some((seq, _)) = decode_container(&bytes) {
            return Ok(Some((seq, bytes)));
        }
    }
    Ok(None)
}

/// Deletes all but the newest [`KEEP`] snapshots for `prefix`.
pub fn retain(dir: &Path, prefix: &str) -> io::Result<()> {
    let found = list(dir, prefix)?;
    if found.len() > KEEP {
        for (_, path) in &found[..found.len() - KEEP] {
            let _ = std::fs::remove_file(path);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "esr-snap-test-{name}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn crc32_matches_known_vector() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn container_round_trips() {
        let payload = b"frontier and friends".to_vec();
        let bytes = encode_container(7, &payload);
        assert_eq!(decode_container(&bytes), Some((7, payload.as_slice())));
    }

    #[test]
    fn decode_rejects_every_truncation() {
        let bytes = encode_container(3, b"some payload");
        for cut in 0..bytes.len() {
            assert_eq!(decode_container(&bytes[..cut]), None, "cut at {cut}");
        }
    }

    #[test]
    fn decode_rejects_every_single_bit_flip() {
        let bytes = encode_container(9, b"bitflip target");
        for i in 0..bytes.len() {
            for bit in 0..8u8 {
                let mut mutated = bytes.clone();
                mutated[i] ^= 1 << bit;
                assert_eq!(
                    decode_container(&mutated),
                    None,
                    "flip of byte {i} bit {bit} accepted"
                );
            }
        }
    }

    #[test]
    fn decode_rejects_trailing_garbage() {
        let mut bytes = encode_container(1, b"p");
        bytes.push(0);
        assert_eq!(decode_container(&bytes), None);
    }

    #[test]
    fn install_load_retain_lifecycle() {
        let dir = tmpdir("lifecycle");
        assert_eq!(load_newest(&dir, "site-0").unwrap(), None);
        install(&dir, "site-0", 1, b"one").unwrap();
        install(&dir, "site-0", 2, b"two").unwrap();
        install(&dir, "site-0", 3, b"three").unwrap();
        // Another site's snapshots are invisible through this prefix.
        install(&dir, "site-1", 9, b"other").unwrap();
        assert_eq!(
            load_newest(&dir, "site-0").unwrap(),
            Some((3, b"three".to_vec()))
        );
        retain(&dir, "site-0").unwrap();
        let left = list(&dir, "site-0").unwrap();
        assert_eq!(left.iter().map(|(s, _)| *s).collect::<Vec<_>>(), vec![2, 3]);
        assert_eq!(list(&dir, "site-1").unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn corrupt_newest_falls_back_to_previous() {
        let dir = tmpdir("fallback");
        install(&dir, "site-2", 1, b"good").unwrap();
        let newest = install(&dir, "site-2", 2, b"bad-to-be").unwrap();
        // Corrupt the newest in place (flip a payload byte).
        let mut bytes = std::fs::read(&newest).unwrap();
        bytes[25] ^= 0xFF;
        std::fs::write(&newest, &bytes).unwrap();
        assert_eq!(
            load_newest(&dir, "site-2").unwrap(),
            Some((1, b"good".to_vec()))
        );
        // And with both corrupt: no snapshot at all.
        let older = snap_path(&dir, "site-2", 1);
        std::fs::write(&older, b"junk").unwrap();
        assert_eq!(load_newest(&dir, "site-2").unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
