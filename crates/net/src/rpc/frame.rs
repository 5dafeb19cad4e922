//! Byte-level framing for the esr-rpc transport.
//!
//! Two layers, both payload-agnostic (this crate never sees the frame
//! *contents* — those are encoded by `esr-replica`'s wire codec):
//!
//! 1. **Length-prefixed frames** over any `Read`/`Write` stream: a
//!    big-endian `u32` length followed by that many payload bytes, with
//!    a hard size cap so a corrupt or hostile peer cannot force a huge
//!    allocation.
//! 2. **Link envelopes** inside each frame: a big-endian `u64` queue
//!    entry id followed by the opaque message bytes. Durable links tag
//!    each message with the sender's stable-queue entry id; the
//!    receiver echoes the id back in an *empty* envelope as the
//!    transport-level acknowledgement. [`NO_ENTRY`] marks messages
//!    outside the at-least-once contract (handshakes, request/reply
//!    traffic), which are never acknowledged.
//!
//! Immediately after connecting, a dialer writes a single connection
//! kind byte ([`KIND_PEER`] or [`KIND_CLIENT`]) so the accepting daemon
//! knows which plane the stream belongs to before any frame arrives.
//!
//! **One write per frame.** A frame is assembled contiguously —
//! [`put_frame`] / [`put_acks`] append `len ‖ entry ‖ payload` straight
//! into a caller's buffer, [`write_frame`] / [`write_envelope`] hand one
//! buffer to one `write_all` — so on a `TCP_NODELAY` stream it leaves as
//! one `send` and one segment, never a 4-byte prefix segment followed by
//! its body. Only the syscall count differs from the two-write form: the
//! bytes on the wire are the same, so old and new peers interoperate.
//!
//! **Read in place.** An [`Envelope`] borrows its payload from the bytes
//! it was read into: [`scan`] lends the whole frames at the front of a
//! receive buffer as one [`Envelopes`] batch, and [`unseal`] splits a
//! frame [`read_frame`] returned. Nothing is copied out.

use std::io::{self, Read, Write};

/// Hard cap on a single frame's payload, applied on both sides.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Envelope entry id marking a message outside the durable-queue
/// contract: never acknowledged, never retransmitted.
pub const NO_ENTRY: u64 = u64::MAX;

/// Connection kind byte: a peer daemon's link.
pub const KIND_PEER: u8 = b'P';

/// Connection kind byte: a client (library or `esrctl`) request stream.
pub const KIND_CLIENT: u8 = b'C';

/// The `u32` length prefix of a frame whose payload is `len` bytes,
/// refusing one past [`MAX_FRAME`].
fn length_prefix(len: usize) -> io::Result<[u8; 4]> {
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    Ok((len as u32).to_be_bytes())
}

/// Writes one length-prefixed frame — prefix and payload in one
/// `write_all` — and flushes.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&length_prefix(payload.len())?);
    buf.extend_from_slice(payload);
    w.write_all(&buf)?;
    w.flush()
}

/// Writes one envelope frame ([`put_frame`]) in one `write_all` and
/// flushes.
pub fn write_envelope(w: &mut impl Write, entry: u64, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::new();
    put_frame(&mut buf, entry, payload)?;
    w.write_all(&buf)?;
    w.flush()
}

/// Reads one length-prefixed frame. Blocks until a complete frame
/// arrives or the stream errors; a clean EOF before the length prefix
/// surfaces as [`io::ErrorKind::UnexpectedEof`].
pub fn read_frame(r: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut payload = Vec::new();
    read_frame_into(r, &mut payload)?;
    Ok(payload)
}

/// [`read_frame`] into `payload`, replacing what it held: a caller that
/// reads frame after frame reuses one buffer.
pub fn read_frame_into(r: &mut impl Read, payload: &mut Vec<u8>) -> io::Result<()> {
    let mut len = [0u8; 4];
    r.read_exact(&mut len)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("announced frame of {len} bytes exceeds MAX_FRAME"),
        ));
    }
    payload.clear();
    payload.resize(len, 0);
    r.read_exact(payload)
}

/// A link envelope: which link queue entry (if any) the message
/// rides on, plus the opaque message bytes — borrowed from the buffer
/// the frame was read into, never copied out of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Envelope<'a> {
    /// The sender-side queue entry id, or [`NO_ENTRY`].
    pub entry: u64,
    /// The message bytes (empty for a transport acknowledgement).
    pub payload: &'a [u8],
}

impl<'a> Envelope<'a> {
    /// The queue entries this envelope acknowledges: the carried entry
    /// id plus any batched ids packed into the payload as big-endian
    /// `u64`s ([`put_acks`]). `None` when the envelope is not an
    /// acknowledgement (no entry id, or a payload that is not a whole
    /// number of ids).
    pub fn ack_ids(&self) -> Option<impl Iterator<Item = u64> + 'a> {
        if self.entry == NO_ENTRY || !self.payload.len().is_multiple_of(8) {
            return None;
        }
        let batched = self.payload.chunks_exact(8).map(be_u64);
        Some(batched.chain(std::iter::once(self.entry)))
    }
}

pub(crate) fn be_u32(b: &[u8]) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[..4]);
    u32::from_be_bytes(a)
}

fn be_u64(b: &[u8]) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[..8]);
    u64::from_be_bytes(a)
}

/// Envelope frames lent in place: a run of whole frames at the front of
/// a receive buffer, checked by [`scan`], read one by one as the batch is
/// iterated. Nothing is copied out of the buffer, which must not move
/// while the batch lives.
#[derive(Debug, Clone, Copy)]
pub struct Envelopes<'a> {
    frames: &'a [u8],
    len: usize,
}

impl<'a> Envelopes<'a> {
    /// How many envelopes the batch holds.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the batch holds none.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The envelopes, in arrival order.
    pub fn iter(&self) -> EnvelopeIter<'a> {
        EnvelopeIter {
            rest: self.frames,
            left: self.len,
        }
    }
}

impl<'a> IntoIterator for Envelopes<'a> {
    type Item = Envelope<'a>;
    type IntoIter = EnvelopeIter<'a>;

    fn into_iter(self) -> EnvelopeIter<'a> {
        self.iter()
    }
}

impl<'a> IntoIterator for &Envelopes<'a> {
    type Item = Envelope<'a>;
    type IntoIter = EnvelopeIter<'a>;

    fn into_iter(self) -> EnvelopeIter<'a> {
        self.iter()
    }
}

/// The iterator over an [`Envelopes`] batch.
#[derive(Debug, Clone)]
pub struct EnvelopeIter<'a> {
    rest: &'a [u8],
    left: usize,
}

impl<'a> Iterator for EnvelopeIter<'a> {
    type Item = Envelope<'a>;

    fn next(&mut self) -> Option<Envelope<'a>> {
        if self.left == 0 {
            return None;
        }
        self.left -= 1;
        // `scan` checked every frame of the batch: whole, and at least
        // an envelope header long.
        let len = be_u32(self.rest) as usize;
        let (frame, rest) = self.rest[4..].split_at(len);
        self.rest = rest;
        unseal(frame).ok()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for EnvelopeIter<'_> {}

/// Finds the whole envelope frames at the front of `buf`, up to `max`
/// of them, and lends them as one batch along with the bytes they span
/// (what the owner drains once the batch is handled). A frame still
/// arriving ends the batch. `Err` means a protocol violation — a frame
/// announced past [`MAX_FRAME`], or one shorter than its envelope
/// header — and the connection must close.
pub fn scan(buf: &[u8], max: usize) -> io::Result<(Envelopes<'_>, usize)> {
    let (mut off, mut len) = (0, 0);
    while len < max && buf.len() - off >= 4 {
        let frame = be_u32(&buf[off..]) as usize;
        if frame > MAX_FRAME {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "announced frame exceeds MAX_FRAME",
            ));
        }
        if buf.len() - off - 4 < frame {
            break; // incomplete — wait for more bytes
        }
        unseal(&buf[off + 4..off + 4 + frame])?;
        off += 4 + frame;
        len += 1;
    }
    let frames = &buf[..off];
    Ok((Envelopes { frames, len }, off))
}

/// Wraps message bytes in a link envelope: the frame payload [`unseal`]
/// splits. Tests only — [`put_frame`] writes the same bytes behind their
/// length prefix without this intermediate copy.
#[cfg(test)]
pub(crate) fn seal(entry: u64, payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(8 + payload.len());
    buf.extend_from_slice(&entry.to_be_bytes());
    buf.extend_from_slice(payload);
    buf
}

/// Appends one envelope frame — `len ‖ entry ‖ payload`, the length
/// counting the 8-byte entry id — to `out`. Appends nothing when the
/// frame would pass [`MAX_FRAME`].
pub fn put_frame(out: &mut Vec<u8>, entry: u64, payload: &[u8]) -> io::Result<()> {
    let prefix = length_prefix(8 + payload.len())?;
    out.reserve(12 + payload.len());
    out.extend_from_slice(&prefix);
    out.extend_from_slice(&entry.to_be_bytes());
    out.extend_from_slice(payload);
    Ok(())
}

/// Appends one transport acknowledgement frame covering every entry in
/// `ids`: the envelope rides the last id and the remaining ids are
/// packed into the payload as big-endian `u64`s, so N applied entries
/// cost one frame instead of N. A single-id batch is the empty envelope
/// `put_frame(out, id, &[])`, and [`Envelope::ack_ids`] recovers the
/// full set on the other side. An empty batch degenerates to a
/// [`NO_ENTRY`] ack, which every receiver ignores.
pub fn put_acks(out: &mut Vec<u8>, ids: &[u64]) -> io::Result<()> {
    let Some((&last, rest)) = ids.split_last() else {
        return put_frame(out, NO_ENTRY, &[]);
    };
    let prefix = length_prefix(8 * ids.len())?;
    out.reserve(4 + 8 * ids.len());
    out.extend_from_slice(&prefix);
    out.extend_from_slice(&last.to_be_bytes());
    for id in rest {
        out.extend_from_slice(&id.to_be_bytes());
    }
    Ok(())
}

/// Splits a frame back into its link envelope, borrowing the payload.
pub fn unseal(frame: &[u8]) -> io::Result<Envelope<'_>> {
    if frame.len() < 8 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "frame shorter than its envelope header",
        ));
    }
    Ok(Envelope {
        entry: be_u64(frame),
        payload: &frame[8..],
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frame_roundtrip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello").unwrap();
        write_frame(&mut buf, b"").unwrap();
        write_frame(&mut buf, &[0xAB; 300]).unwrap();
        let mut r = Cursor::new(buf);
        assert_eq!(read_frame(&mut r).unwrap(), b"hello");
        assert_eq!(read_frame(&mut r).unwrap(), b"");
        assert_eq!(read_frame(&mut r).unwrap(), vec![0xAB; 300]);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
    }

    #[test]
    fn oversized_announcement_is_rejected_without_allocation() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_be_bytes());
        let mut r = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut r).unwrap_err().kind(),
            io::ErrorKind::InvalidData
        );
    }

    /// The frame one `put_*` call appended, read back as a receiver
    /// would; [`unseal`] lends its envelope.
    fn envelope(put: impl FnOnce(&mut Vec<u8>) -> io::Result<()>) -> Vec<u8> {
        let mut out = Vec::new();
        put(&mut out).unwrap();
        let mut r = Cursor::new(out);
        let frame = read_frame(&mut r).unwrap();
        assert_eq!(r.position() as usize, r.get_ref().len(), "exactly one frame");
        frame
    }

    #[test]
    fn envelope_bytes_are_the_wire_format() {
        // `len ‖ entry ‖ payload`, big-endian, the length counting the
        // entry id: the bytes every peer since PR 4 reads.
        let mut out = Vec::new();
        put_frame(&mut out, 42, b"payload").unwrap();
        let mut want = 15u32.to_be_bytes().to_vec();
        want.extend_from_slice(&42u64.to_be_bytes());
        want.extend_from_slice(b"payload");
        assert_eq!(out, want);
        let mut two_step = Vec::new();
        write_frame(&mut two_step, &seal(42, b"payload")).unwrap();
        assert_eq!(out, two_step, "same bytes as sealing, then framing");

        // A batched ack rides the last id and packs the rest in order.
        out.clear();
        put_acks(&mut out, &[3, 9, 27]).unwrap();
        let mut want = 24u32.to_be_bytes().to_vec();
        for id in [27u64, 3, 9] {
            want.extend_from_slice(&id.to_be_bytes());
        }
        assert_eq!(out, want);

        // A stream write is the same bytes as the buffer append.
        let mut streamed = Vec::new();
        write_envelope(&mut streamed, 42, b"payload").unwrap();
        let mut appended = Vec::new();
        put_frame(&mut appended, 42, b"payload").unwrap();
        assert_eq!(streamed, appended);
    }

    #[test]
    fn an_envelope_past_max_frame_appends_nothing() {
        let mut out = b"earlier".to_vec();
        let err = put_frame(&mut out, 1, &vec![0; MAX_FRAME - 7]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(out, b"earlier", "the buffer keeps only whole frames");
        // The largest envelope that fits still goes out.
        put_frame(&mut out, 1, &vec![0; MAX_FRAME - 8]).unwrap();
    }

    /// Accepts every byte and counts the `write` calls that carried them.
    #[derive(Default)]
    struct CountingWrite {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWrite {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write() {
        let mut w = CountingWrite::default();
        write_envelope(&mut w, 7, b"request").unwrap();
        assert_eq!(w.writes, 1, "envelope: prefix and body in one write");
        write_envelope(&mut w, 8, b"").unwrap();
        assert_eq!(w.writes, 2, "an empty envelope too");
        write_frame(&mut w, b"raw").unwrap();
        assert_eq!(w.writes, 3, "raw frame: prefix and body in one write");

        let mut r = Cursor::new(w.bytes);
        assert_eq!(unseal(&read_frame(&mut r).unwrap()).unwrap().payload, b"request");
        assert_eq!(unseal(&read_frame(&mut r).unwrap()).unwrap().entry, 8);
        assert_eq!(read_frame(&mut r).unwrap(), b"raw");
    }

    #[test]
    fn envelope_roundtrip_and_ack_shape() {
        let frame = envelope(|out| put_frame(out, 42, b"payload"));
        let env = unseal(&frame).unwrap();
        assert_eq!(env.entry, 42);
        assert_eq!(env.payload, b"payload");

        let frame = envelope(|out| put_frame(out, 42, &[]));
        let ack = unseal(&frame).unwrap();
        assert_eq!(ack.entry, 42);

        assert!(unseal(&[1, 2, 3]).is_err());
    }

    #[test]
    fn batched_acks_pack_and_recover_every_id() {
        // One id: byte-identical to the single empty-envelope ack.
        let (mut one, mut single) = (Vec::new(), Vec::new());
        put_acks(&mut one, &[7]).unwrap();
        put_frame(&mut single, 7, &[]).unwrap();
        assert_eq!(one, single);

        let frame = envelope(|out| put_acks(out, &[3, 9, 27]));
        let env = unseal(&frame).unwrap();
        assert_eq!(env.entry, 27, "envelope rides the last id");
        let ids: Vec<u64> = env.ack_ids().unwrap().collect();
        assert_eq!(ids, vec![3, 9, 27]);

        // A single ack parses through ack_ids.
        let frame = envelope(|out| put_frame(out, 42, &[]));
        let single = unseal(&frame).unwrap();
        assert_eq!(single.ack_ids().unwrap().collect::<Vec<_>>(), vec![42]);

        // Non-ack envelopes yield nothing.
        let frame = envelope(|out| put_frame(out, NO_ENTRY, b"hello"));
        assert!(unseal(&frame).unwrap().ack_ids().is_none());
        let frame = envelope(|out| put_frame(out, 5, b"xyz"));
        let odd = unseal(&frame).unwrap();
        assert!(odd.ack_ids().is_none(), "payload not a whole set of ids");

        // The empty-batch degenerate form is ignored by every receiver.
        let frame = envelope(|out| put_acks(out, &[]));
        let empty = unseal(&frame).unwrap();
        assert!(empty.ack_ids().is_none());
    }
}
