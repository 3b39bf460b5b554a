//! SAP wire format (Session Announcement Protocol, RFC 2974 v1).
//!
//! The paper's reference \[6\] is the SAP Internet Draft that became
//! RFC 2974; sdr's announcements use exactly this layout:
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! | V=1 |A|R|T|E|C|   auth len    |         msg id hash           |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                originating source (IPv4, A=0)                 |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |          optional authentication data (auth len words)        |
//! |        optional payload type ("application/sdp" NUL)          |
//! |                          payload                              |
//! ```
//!
//! We implement announcements and deletions over IPv4 sources with
//! optional authentication data, and reject the encrypted/compressed
//! bits (sdr never negotiated them in the open Mbone).

// A truncated address, id, length or interval corrupts state instead of
// failing; narrow with `try_from` (DESIGN 4a).
#![warn(clippy::cast_possible_truncation)]

use std::net::Ipv4Addr;

use sdalloc_sim::{FaultPlan, SimRng, SimTime};

/// The SAP version this implementation speaks.
pub const SAP_VERSION: u8 = 1;

/// The well-known SAP multicast group for global-scope announcements.
pub const SAP_GROUP: Ipv4Addr = Ipv4Addr::new(224, 2, 127, 254);

/// The well-known SAP port.
pub const SAP_PORT: u16 = 9875;

/// The conventional payload type for session descriptions.
pub const PAYLOAD_TYPE_SDP: &str = "application/sdp";

/// Message type: announce a session or delete a previous announcement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MessageType {
    /// Session announcement (T = 0).
    Announce,
    /// Session deletion (T = 1).
    Delete,
}

/// A decoded SAP packet viewed in place: every variable-length field
/// borrows from the datagram buffer it was decoded from.  This is the
/// canonical decoder — [`SapPacket::decode`] wraps it and materializes
/// owned copies.  The receive path holds a `SapFrame` only for the
/// duration of one datagram; ownership is taken at cache-admit time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SapFrame<'a> {
    /// Announce or delete.
    pub message_type: MessageType,
    /// 16-bit hash identifying this version of the announcement.
    pub msg_id_hash: u16,
    /// Originating source address.
    pub source: Ipv4Addr,
    /// Authentication data, borrowed from the packet buffer (wire
    /// padding included).
    pub auth: &'a [u8],
    /// The payload text, borrowed from the packet buffer.
    pub payload: &'a str,
}

impl<'a> SapFrame<'a> {
    /// Decode a datagram in place.  No bytes are copied: `auth` and
    /// `payload` point into `data`.
    ///
    /// The payload-type marker is optional on the wire (early sdr
    /// omitted it); per the RFC's guidance we treat a payload starting
    /// with `v=` as bare SDP.
    pub fn decode(data: &'a [u8]) -> Result<SapFrame<'a>, WireError> {
        let Some((&[b0, auth_words, id_hi, id_lo, s0, s1, s2, s3], data)) =
            data.split_first_chunk::<8>()
        else {
            return Err(WireError::Truncated);
        };
        let version = (b0 >> 5) & 0x07;
        if version != SAP_VERSION {
            return Err(WireError::BadVersion(version));
        }
        if b0 & 0x10 != 0 {
            return Err(WireError::UnsupportedAddressType); // A bit: IPv6
        }
        if b0 & 0x03 != 0 {
            return Err(WireError::UnsupportedEncoding); // E or C bit
        }
        let message_type = if b0 & 0x04 != 0 {
            MessageType::Delete
        } else {
            MessageType::Announce
        };
        let msg_id_hash = u16::from_be_bytes([id_hi, id_lo]);
        let source = Ipv4Addr::new(s0, s1, s2, s3);
        let (auth, rest) = data
            .split_at_checked(usize::from(auth_words) * 4)
            .ok_or(WireError::BadAuthLength)?;

        // Optional payload type: text up to a NUL, unless the payload
        // starts directly with SDP.
        let payload_bytes = if rest.starts_with(b"v=") {
            rest
        } else if let Some(nul) = rest.iter().position(|&b| b == 0) {
            rest.get(nul + 1..).unwrap_or(&[])
        } else {
            rest
        };
        let payload = std::str::from_utf8(payload_bytes).map_err(|_| WireError::BadPayload)?;
        Ok(SapFrame {
            message_type,
            msg_id_hash,
            source,
            auth,
            payload,
        })
    }

    /// Materialize an owned packet from this view — the one place the
    /// auth and payload bytes are copied.
    pub fn to_packet(&self) -> SapPacket {
        SapPacket {
            message_type: self.message_type,
            msg_id_hash: self.msg_id_hash,
            source: self.source,
            auth: self.auth.to_vec(),
            payload: self.payload.to_string(),
        }
    }
}

/// A decoded SAP packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SapPacket {
    /// Announce or delete.
    pub message_type: MessageType,
    /// 16-bit hash identifying this version of the announcement; a
    /// changed hash from the same source means a modified session.
    pub msg_id_hash: u16,
    /// Originating source address (identifies the announcer, *not* the
    /// session's multicast group).
    pub source: Ipv4Addr,
    /// Optional authentication data (opaque; length must be a multiple
    /// of four bytes on the wire).
    pub auth: Vec<u8>,
    /// The payload — SDP text for our purposes.
    pub payload: String,
}

/// Decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than a minimal header.
    Truncated,
    /// Version field is not 1.
    BadVersion(u8),
    /// IPv6 sources are not supported by this implementation.
    UnsupportedAddressType,
    /// Encrypted (E) or compressed (C) packets are not supported.
    UnsupportedEncoding,
    /// Authentication data longer than the packet.
    BadAuthLength,
    /// Payload is not valid UTF-8.
    BadPayload,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "packet truncated"),
            WireError::BadVersion(v) => write!(f, "unsupported SAP version {v}"),
            WireError::UnsupportedAddressType => write!(f, "IPv6 origin not supported"),
            WireError::UnsupportedEncoding => write!(f, "encrypted/compressed SAP not supported"),
            WireError::BadAuthLength => write!(f, "authentication data overruns packet"),
            WireError::BadPayload => write!(f, "payload is not UTF-8"),
        }
    }
}

impl std::error::Error for WireError {}

impl SapPacket {
    /// Build an announcement packet.
    pub fn announce(source: Ipv4Addr, msg_id_hash: u16, payload: String) -> SapPacket {
        SapPacket {
            message_type: MessageType::Announce,
            msg_id_hash,
            source,
            auth: Vec::new(),
            payload,
        }
    }

    /// Build a deletion packet for a previous announcement.
    pub fn delete(source: Ipv4Addr, msg_id_hash: u16, payload: String) -> SapPacket {
        SapPacket {
            message_type: MessageType::Delete,
            msg_id_hash,
            source,
            auth: Vec::new(),
            payload,
        }
    }

    /// Encode to wire bytes, including the `application/sdp` payload
    /// type marker.
    pub fn encode(&self) -> Vec<u8> {
        let mut buf = Vec::with_capacity(
            8 + self.auth.len() + PAYLOAD_TYPE_SDP.len() + 1 + self.payload.len(),
        );
        // Auth data must be padded to a multiple of 4 (length field is
        // in 32-bit words, and only 8 bits wide): clamp to what the
        // field can express rather than wrapping the length byte.
        const MAX_AUTH_BYTES: usize = 255 * 4;
        let auth = self.auth.get(..MAX_AUTH_BYTES).unwrap_or(&self.auth);
        let auth_words = auth.len().div_ceil(4);
        let mut b0: u8 = (SAP_VERSION & 0x07) << 5;
        // A (address type) = 0 → IPv4.  R = 0.
        if self.message_type == MessageType::Delete {
            b0 |= 0x04; // T bit
        }
        // E = 0, C = 0.
        buf.push(b0);
        buf.push(u8::try_from(auth_words).unwrap_or(u8::MAX));
        buf.extend_from_slice(&self.msg_id_hash.to_be_bytes());
        buf.extend_from_slice(&self.source.octets());
        buf.extend_from_slice(auth);
        buf.resize(buf.len() + auth_words * 4 - auth.len(), 0);
        buf.extend_from_slice(PAYLOAD_TYPE_SDP.as_bytes());
        buf.push(0);
        buf.extend_from_slice(self.payload.as_bytes());
        buf
    }

    /// Decode from wire bytes into an owned packet.  Thin wrapper over
    /// the zero-copy [`SapFrame::decode`]; hot receive paths should
    /// hold the frame instead and defer the copy to admit time.
    pub fn decode(data: &[u8]) -> Result<SapPacket, WireError> {
        SapFrame::decode(data).map(|f| f.to_packet())
    }

    /// Borrow this packet as a frame view (the reverse of
    /// [`SapFrame::to_packet`]) so owned and borrowed receive paths
    /// share one downstream signature.
    pub fn as_frame(&self) -> SapFrame<'_> {
        SapFrame {
            message_type: self.message_type,
            msg_id_hash: self.msg_id_hash,
            source: self.source,
            auth: &self.auth,
            payload: &self.payload,
        }
    }
}

/// The 16-bit message-id hash for a payload: FNV-1a folded to 16 bits.
///
/// SAP only requires the hash to change whenever the session
/// description changes; any uniform 16-bit digest suffices.
pub fn msg_id_hash(payload: &str) -> u16 {
    let mut h: u32 = 0x811c9dc5;
    for &b in payload.as_bytes() {
        h ^= u32::from(b);
        h = h.wrapping_mul(0x01000193);
    }
    // Both operands are masked below 2^16, so the fold always fits.
    u16::try_from((h >> 16) ^ (h & 0xffff)).unwrap_or(u16::MAX)
}

/// 64-bit FNV-1a over raw bytes — the trace fingerprint used by the
/// differential and determinism regression tests.  Feed it the exact
/// wire bytes (plus any framing the test adds): two traces fingerprint
/// equal iff they are byte-identical.
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    fnv1a_64_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continue an FNV-1a hash `h` over `bytes`: hashing a concatenation
/// field by field, without first copying the fields into one buffer.
pub fn fnv1a_64_fold(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Append one emission record to a packet trace, if one is being
/// kept: `time-nanos ‖ node ‖ encoded packet` (one byte of node; ids
/// past 255 share the `0xff` tag).  The testbed and the runtime
/// loopback bus both record through here, which is what lets the
/// differential tests compare their traces byte for byte.
pub fn trace_emission(trace: &mut Option<Vec<u8>>, now: SimTime, node: usize, pkt: &SapPacket) {
    if let Some(t) = trace.as_mut() {
        t.extend_from_slice(&now.as_nanos().to_le_bytes());
        t.push(u8::try_from(node).unwrap_or(u8::MAX));
        t.extend_from_slice(&pkt.encode());
    }
}

/// What one receiver decodes after `pkt` crosses a link at `now` under
/// the plan's corruption windows.  Outside a window (or when the
/// per-packet draw spares it) that is the packet itself; inside, the
/// encoded bytes are mangled and must survive a real
/// [`SapFrame::decode`] to be delivered at all.  `None` means the
/// datagram died before decode — it still hit the receiver's socket, so
/// the caller accounts the drop there.
///
/// Draws from `rng` only inside a window: the chance draw, then
/// whatever the corruption mode itself draws.
pub fn corrupt_in_flight(
    pkt: &SapPacket,
    faults: &FaultPlan,
    now: SimTime,
    rng: &mut SimRng,
) -> Option<SapPacket> {
    if let Some((p, mode)) = faults.corruption_at(now) {
        if rng.chance(p) {
            let mut bytes = pkt.encode();
            mode.apply(&mut bytes, rng);
            return SapFrame::decode(&bytes).ok().map(|frame| frame.to_packet());
        }
    }
    Some(pkt.clone())
}

/// Upper bound on the bucket list a reconciliation payload may carry.
/// The protocol uses 16 buckets; the parser tolerates more (a future
/// widening) but refuses unbounded lists from the wire.
pub const MAX_RECON_BUCKETS: usize = 64;

/// An anti-entropy summary of a directory's announcement cache: the
/// XOR-accumulated per-bucket hashes plus enough context (seed, entry
/// count, rebuilding flag) for a peer to decide whether and how to
/// respond.  Rides as the payload of an ordinary SAP announce packet.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheDigest {
    /// The digest seed the sender hashed under; digests computed under
    /// different seeds are incomparable and must be ignored.
    pub seed: u64,
    /// Number of entries in the sender's cache.
    pub entries: u64,
    /// Whether the sender is rebuilding after a restart — a request
    /// for peers to answer with their own digests promptly.
    pub rebuilding: bool,
    /// The per-bucket accumulators.
    pub buckets: Vec<u64>,
}

/// A request for targeted re-announcement of the sessions hashed into
/// the named digest buckets — the "diff → fetch" half of
/// reconciliation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReconcileRequest {
    /// Bucket indices whose contents the sender wants re-announced.
    pub buckets: Vec<u16>,
}

/// A reconciliation control message, carried as a SAP announce payload
/// that begins with the `x-recon:` marker (so it can never be mistaken
/// for SDP, which begins `v=`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconMessage {
    /// A cache digest broadcast.
    Digest(CacheDigest),
    /// A targeted re-announcement request.
    Request(ReconcileRequest),
}

impl ReconMessage {
    /// The payload marker distinguishing reconciliation messages from
    /// session descriptions.
    pub const MARKER: &'static str = "x-recon:";

    /// Whether a SAP payload is a reconciliation message (cheap check
    /// before attempting a full [`Self::parse`]).
    pub fn is_recon(payload: &str) -> bool {
        payload.starts_with(Self::MARKER)
    }

    /// Render to a SAP announce payload.
    pub fn encode_payload(&self) -> String {
        match self {
            ReconMessage::Digest(d) => {
                let mut s = format!(
                    "x-recon: digest\nseed: {:016x}\nentries: {}\nrebuilding: {}\nbuckets:",
                    d.seed,
                    d.entries,
                    u8::from(d.rebuilding),
                );
                for b in &d.buckets {
                    s.push_str(&format!(" {b:016x}"));
                }
                s.push('\n');
                s
            }
            ReconMessage::Request(r) => {
                let mut s = String::from("x-recon: request\nbuckets:");
                for b in &r.buckets {
                    s.push_str(&format!(" {b}"));
                }
                s.push('\n');
                s
            }
        }
    }

    /// Parse a SAP payload as a reconciliation message.  Total: any
    /// malformed, truncated or oversized input yields `None`, never a
    /// panic — this sits on the same attacker-controlled path as
    /// [`SapPacket::decode`].
    pub fn parse(payload: &str) -> Option<ReconMessage> {
        let mut lines = payload.lines().map(str::trim);
        let kind = lines.next()?.strip_prefix(Self::MARKER)?.trim();
        let mut seed = None;
        let mut entries = None;
        let mut rebuilding = false;
        let mut buckets_raw = None;
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let (k, v) = line.split_once(':')?;
            let v = v.trim();
            match k.trim() {
                "seed" => seed = Some(u64::from_str_radix(v, 16).ok()?),
                "entries" => entries = Some(v.parse::<u64>().ok()?),
                "rebuilding" => {
                    rebuilding = match v {
                        "0" => false,
                        "1" => true,
                        _ => return None,
                    }
                }
                "buckets" => buckets_raw = Some(v),
                _ => return None,
            }
        }
        match kind {
            "digest" => {
                let mut buckets = Vec::new();
                for tok in buckets_raw?.split_ascii_whitespace() {
                    if buckets.len() >= MAX_RECON_BUCKETS {
                        return None;
                    }
                    buckets.push(u64::from_str_radix(tok, 16).ok()?);
                }
                Some(ReconMessage::Digest(CacheDigest {
                    seed: seed?,
                    entries: entries?,
                    rebuilding,
                    buckets,
                }))
            }
            "request" => {
                let mut buckets = Vec::new();
                for tok in buckets_raw?.split_ascii_whitespace() {
                    if buckets.len() >= MAX_RECON_BUCKETS {
                        return None;
                    }
                    buckets.push(tok.parse::<u16>().ok()?);
                }
                Some(ReconMessage::Request(ReconcileRequest { buckets }))
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn src() -> Ipv4Addr {
        Ipv4Addr::new(128, 16, 64, 32)
    }

    #[test]
    fn announce_roundtrip() {
        let p = SapPacket::announce(src(), 0xBEEF, "v=0\r\ns=test\r\n".into());
        let decoded = SapPacket::decode(&p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn delete_roundtrip() {
        let p = SapPacket::delete(src(), 0x1234, "v=0\r\ns=bye\r\n".into());
        let decoded = SapPacket::decode(&p.encode()).unwrap();
        assert_eq!(decoded.message_type, MessageType::Delete);
        assert_eq!(decoded, p);
    }

    #[test]
    fn auth_data_roundtrip_with_padding() {
        let mut p = SapPacket::announce(src(), 1, "v=0\r\n".into());
        p.auth = vec![1, 2, 3, 4, 5]; // padded to 8 on the wire
        let decoded = SapPacket::decode(&p.encode()).unwrap();
        assert_eq!(&decoded.auth[..5], &[1, 2, 3, 4, 5]);
        assert_eq!(decoded.auth.len(), 8);
        assert_eq!(decoded.payload, p.payload);
    }

    #[test]
    fn bare_sdp_payload_without_type_marker() {
        // Hand-build a packet without the payload type string.
        let mut raw = vec![0x20, 0, 0xAB, 0xCD, 10, 0, 0, 1];
        raw.extend_from_slice(b"v=0\r\ns=x\r\n");
        let p = SapPacket::decode(&raw).unwrap();
        assert_eq!(p.msg_id_hash, 0xABCD);
        assert_eq!(p.source, Ipv4Addr::new(10, 0, 0, 1));
        assert!(p.payload.starts_with("v=0"));
    }

    #[test]
    fn truncated_rejected() {
        assert_eq!(SapPacket::decode(&[0x20, 0, 0]), Err(WireError::Truncated));
        assert_eq!(SapPacket::decode(&[]), Err(WireError::Truncated));
    }

    #[test]
    fn wrong_version_rejected() {
        let mut raw = SapPacket::announce(src(), 1, "v=0\r\n".into())
            .encode()
            .to_vec();
        raw[0] = (2 << 5) | (raw[0] & 0x1f);
        assert_eq!(SapPacket::decode(&raw), Err(WireError::BadVersion(2)));
    }

    #[test]
    fn ipv6_flag_rejected() {
        let mut raw = SapPacket::announce(src(), 1, "v=0\r\n".into())
            .encode()
            .to_vec();
        raw[0] |= 0x10;
        assert_eq!(
            SapPacket::decode(&raw),
            Err(WireError::UnsupportedAddressType)
        );
    }

    #[test]
    fn encrypted_or_compressed_rejected() {
        for bit in [0x01u8, 0x02] {
            let mut raw = SapPacket::announce(src(), 1, "v=0\r\n".into())
                .encode()
                .to_vec();
            raw[0] |= bit;
            assert_eq!(SapPacket::decode(&raw), Err(WireError::UnsupportedEncoding));
        }
    }

    #[test]
    fn overlong_auth_rejected() {
        let mut raw = SapPacket::announce(src(), 1, "v=0\r\n".into())
            .encode()
            .to_vec();
        raw[1] = 200; // 800 bytes of auth data that aren't there
        assert_eq!(SapPacket::decode(&raw), Err(WireError::BadAuthLength));
    }

    #[test]
    fn hash_changes_with_payload() {
        let a = msg_id_hash("v=0\r\ns=a\r\n");
        let b = msg_id_hash("v=0\r\ns=b\r\n");
        assert_ne!(a, b);
        assert_eq!(a, msg_id_hash("v=0\r\ns=a\r\n"));
    }

    #[test]
    fn hash_spreads() {
        // Hashes of many distinct payloads should rarely collide.
        let mut seen = std::collections::HashSet::new();
        for i in 0..1000 {
            seen.insert(msg_id_hash(&format!("v=0\r\ns=session-{i}\r\n")));
        }
        assert!(seen.len() > 950, "only {} distinct hashes", seen.len());
    }

    #[test]
    fn well_known_constants() {
        assert!(SAP_GROUP.is_multicast());
        assert_eq!(SAP_PORT, 9875);
    }

    #[test]
    fn recon_digest_roundtrip() {
        let msg = ReconMessage::Digest(CacheDigest {
            seed: 0x5d1c_4a11_0c8d_1697,
            entries: 42,
            rebuilding: true,
            buckets: (0..16).map(|i| i * 0x1111_1111_1111).collect(),
        });
        let payload = msg.encode_payload();
        assert!(ReconMessage::is_recon(&payload));
        assert_eq!(ReconMessage::parse(&payload), Some(msg));
        // The payload survives SAP framing untouched (no NUL, no `v=`).
        let pkt = SapPacket::announce(src(), msg_id_hash(&payload), payload.clone());
        let decoded = SapPacket::decode(&pkt.encode()).unwrap();
        assert_eq!(decoded.payload, payload);
    }

    #[test]
    fn recon_request_roundtrip() {
        let msg = ReconMessage::Request(ReconcileRequest {
            buckets: vec![0, 3, 7, 15],
        });
        assert_eq!(ReconMessage::parse(&msg.encode_payload()), Some(msg));
    }

    #[test]
    fn recon_parse_rejects_malformed() {
        for bad in [
            "",
            "v=0\r\ns=x\r\n",
            "x-recon: digest",                                   // missing fields
            "x-recon: digest\nseed: zz\nentries: 1\nbuckets: 0", // bad hex
            "x-recon: digest\nseed: 1\nentries: -1\nbuckets: 0", // bad count
            "x-recon: digest\nseed: 1\nentries: 1\nrebuilding: 7\nbuckets: 0",
            "x-recon: request",                    // missing buckets
            "x-recon: request\nbuckets: 99999999", // not u16
            "x-recon: fetch\nbuckets: 1",          // unknown kind
            "x-recon: digest\nseed: 1\nentries: 1\nbogus: 1\nbuckets: 0",
        ] {
            assert_eq!(ReconMessage::parse(bad), None, "accepted {bad:?}");
        }
        // Oversized bucket lists are refused, not truncated.
        let huge = format!(
            "x-recon: request\nbuckets:{}",
            " 1".repeat(MAX_RECON_BUCKETS + 1)
        );
        assert_eq!(ReconMessage::parse(&huge), None);
    }

    #[test]
    fn zero_copy_frame_borrows_the_buffer() {
        let mut p = SapPacket::announce(src(), 0xBEEF, "v=0\r\ns=test\r\n".into());
        p.auth = vec![9, 9, 9, 9];
        let bytes = p.encode();
        let frame = SapFrame::decode(&bytes).unwrap();
        let buf = bytes.as_ptr() as usize..bytes.as_ptr() as usize + bytes.len();
        assert!(buf.contains(&(frame.payload.as_ptr() as usize)));
        assert!(buf.contains(&(frame.auth.as_ptr() as usize)));
        assert_eq!(frame.to_packet(), p);
    }

    #[test]
    fn frame_and_packet_decoders_agree() {
        let p = SapPacket::delete(src(), 0x7777, "v=0\r\ns=gone\r\n".into());
        let bytes = p.encode();
        let frame = SapFrame::decode(&bytes).unwrap();
        let owned = SapPacket::decode(&bytes).unwrap();
        assert_eq!(frame.to_packet(), owned);
        assert_eq!(owned.as_frame(), frame);
        // Errors agree too.
        assert_eq!(
            SapFrame::decode(&bytes[..3]).unwrap_err(),
            SapPacket::decode(&bytes[..3]).unwrap_err()
        );
    }

    #[test]
    fn recon_marker_never_collides_with_sdp() {
        assert!(!ReconMessage::is_recon("v=0\r\ns=x\r\n"));
        assert_eq!(ReconMessage::parse("v=0\r\ns=x\r\n"), None);
    }
}

/// Fuzz-style robustness properties: the decoder is the first thing an
/// attacker-controlled datagram touches, so it must never panic — not
/// on arbitrary bytes, not on truncations of valid packets, not on
/// single bit-flips in flight.  Valid packets must survive a full
/// encode/decode round trip.
#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    /// A valid packet built from generator inputs (payload avoids NUL,
    /// which the wire format uses as the payload-type terminator).
    fn arb_packet() -> impl Strategy<Value = SapPacket> {
        (
            any::<bool>(),
            any::<u16>(),
            any::<u32>(),
            proptest::collection::vec(any::<u8>(), 0..24),
            "[ -~]{0,64}",
        )
            .prop_map(|(delete, hash, src, auth, payload)| {
                let source = Ipv4Addr::from(src);
                let mut pkt = if delete {
                    SapPacket::delete(source, hash, payload)
                } else {
                    SapPacket::announce(source, hash, payload)
                };
                pkt.auth = auth;
                pkt
            })
    }

    /// A valid reconciliation message from generator inputs.
    fn arb_recon() -> impl Strategy<Value = ReconMessage> {
        (
            any::<bool>(),
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            proptest::collection::vec(any::<u64>(), 0..=MAX_RECON_BUCKETS),
        )
            .prop_map(|(request, seed, entries, rebuilding, vals)| {
                if request {
                    ReconMessage::Request(ReconcileRequest {
                        buckets: vals.iter().map(|&v| (v & 0xffff) as u16).collect(),
                    })
                } else {
                    ReconMessage::Digest(CacheDigest {
                        seed,
                        entries,
                        rebuilding,
                        buckets: vals,
                    })
                }
            })
    }

    proptest! {
        #[test]
        fn decode_never_panics_on_arbitrary_bytes(
            bytes in proptest::collection::vec(any::<u8>(), 0..300),
        ) {
            let _ = SapPacket::decode(&bytes);
        }

        #[test]
        fn decode_never_panics_on_truncation(pkt in arb_packet(), cut in any::<u16>()) {
            let full = pkt.encode().to_vec();
            let keep = cut as usize % (full.len() + 1);
            // Every prefix either decodes or errors — never panics.
            let _ = SapPacket::decode(&full[..keep]);
        }

        #[test]
        fn decode_never_panics_on_bit_flip(pkt in arb_packet(), pos in any::<u32>()) {
            let mut bytes = pkt.encode().to_vec();
            let bit = pos as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            let _ = SapPacket::decode(&bytes);
        }

        #[test]
        fn recon_parse_never_panics_on_arbitrary_text(payload in "\\PC{0,256}") {
            let _ = ReconMessage::parse(&payload);
        }

        #[test]
        fn recon_parse_never_panics_on_truncation(msg in arb_recon(), cut in any::<u16>()) {
            let payload = msg.encode_payload();
            let keep = cut as usize % (payload.len() + 1);
            // Truncate on a char boundary (payloads are ASCII anyway).
            let prefix: String = payload.chars().take(keep).collect();
            let _ = ReconMessage::parse(&prefix);
        }

        #[test]
        fn recon_survives_sap_bit_flip_without_panic(msg in arb_recon(), pos in any::<u32>()) {
            // A recon payload inside a SAP packet, flipped in flight:
            // the full receive path (decode, then parse) must not panic.
            let payload = msg.encode_payload();
            let pkt = SapPacket::announce(Ipv4Addr::new(10, 0, 0, 1), msg_id_hash(&payload), payload);
            let mut bytes = pkt.encode().to_vec();
            let bit = pos as usize % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            if let Ok(decoded) = SapPacket::decode(&bytes) {
                let _ = ReconMessage::parse(&decoded.payload);
            }
        }

        #[test]
        fn recon_messages_roundtrip(msg in arb_recon()) {
            prop_assert_eq!(ReconMessage::parse(&msg.encode_payload()), Some(msg));
        }

        #[test]
        fn valid_packets_roundtrip(pkt in arb_packet()) {
            let decoded = SapPacket::decode(&pkt.encode());
            // Auth padding may grow to a word boundary; all other
            // fields must survive unchanged.
            let decoded = decoded.expect("own encoding must decode");
            prop_assert_eq!(decoded.message_type, pkt.message_type);
            prop_assert_eq!(decoded.msg_id_hash, pkt.msg_id_hash);
            prop_assert_eq!(decoded.source, pkt.source);
            prop_assert_eq!(&decoded.auth[..pkt.auth.len()], &pkt.auth[..]);
            prop_assert_eq!(decoded.payload, pkt.payload);
        }
    }
}
