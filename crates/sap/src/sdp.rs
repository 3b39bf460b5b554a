//! SDP-lite session descriptions.
//!
//! SAP payloads are SDP documents ("a session is minimally defined by
//! the set of media streams it uses (their format and transport ports),
//! by the multicast addresses and scope of those streams").  We
//! implement the subset sdr used: version, origin, name, optional info,
//! connection (multicast address + TTL), timing and media lines.
//!
//! The grammar follows RFC 2327's `<type>=<value>` line structure with
//! strict line ordering (v, o, s, \[i\], c, t, m*), which is all a session
//! directory needs and keeps parsing unambiguous.
//!
//! ## Zero-copy parsing
//!
//! The canonical parser is [`DescRef::parse`]: every textual field it
//! returns **borrows** the packet buffer it was handed — no string is
//! copied at parse time.  The receive path runs clash detection,
//! governor gates and cache lookups on the borrowed view's `Copy`
//! fields, and only the cache materialises owned copies (interned, at
//! admit time).  [`SessionDescription::parse`] survives as the
//! eager-owning wrapper for tests and cold paths.

use std::fmt;
use std::net::Ipv4Addr;

/// The `o=` origin line: who created the session and its version stamp.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Origin {
    /// Username of the creator ("-" when unknown).
    pub username: String,
    /// Globally unique session id (sdr used an NTP timestamp).
    pub session_id: u64,
    /// Version of this announcement; bumped on every modification.
    pub version: u64,
    /// Unicast address of the originating host.
    pub address: Ipv4Addr,
}

/// A media stream (`m=` line).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Media {
    /// Media kind: "audio", "video", "whiteboard", …
    pub kind: String,
    /// Transport port.
    pub port: u16,
    /// Transport protocol ("RTP/AVP").
    pub proto: String,
    /// Format number (RTP payload type).
    pub format: u32,
}

/// An SDP-lite session description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionDescription {
    /// Origin (`o=`).
    pub origin: Origin,
    /// Session name (`s=`).
    pub name: String,
    /// Optional free-text description (`i=`).
    pub info: Option<String>,
    /// Multicast group of the session (`c=`).
    pub group: Ipv4Addr,
    /// Scope TTL of the session (from the `c=` line's `/ttl` suffix).
    pub ttl: u8,
    /// Start time, NTP-style seconds (`t=`), 0 = unbounded.
    pub start: u64,
    /// Stop time (`t=`), 0 = unbounded.
    pub stop: u64,
    /// Media streams (`m=`), at least one for a useful session.
    pub media: Vec<Media>,
}

/// Errors from [`SessionDescription::parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SdpError {
    /// A required line is missing or out of order.
    MissingLine(&'static str),
    /// A line failed to parse; contains the offending line.
    Malformed(String),
    /// The protocol version is not 0.
    BadVersion,
    /// The connection address is not IPv4 multicast.
    NotMulticast,
}

impl fmt::Display for SdpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SdpError::MissingLine(l) => write!(f, "missing or misplaced '{l}=' line"),
            SdpError::Malformed(l) => write!(f, "malformed line: {l}"),
            SdpError::BadVersion => write!(f, "unsupported SDP version"),
            SdpError::NotMulticast => write!(f, "connection address is not multicast"),
        }
    }
}

impl std::error::Error for SdpError {}

impl SessionDescription {
    /// Render to SDP text (lines terminated with `\r\n`).
    pub fn format(&self) -> String {
        let mut out = String::new();
        out.push_str("v=0\r\n");
        out.push_str(&format!(
            "o={} {} {} IN IP4 {}\r\n",
            escape(&self.origin.username),
            self.origin.session_id,
            self.origin.version,
            self.origin.address
        ));
        out.push_str(&format!("s={}\r\n", escape(&self.name)));
        if let Some(info) = &self.info {
            out.push_str(&format!("i={}\r\n", escape(info)));
        }
        out.push_str(&format!("c=IN IP4 {}/{}\r\n", self.group, self.ttl));
        out.push_str(&format!("t={} {}\r\n", self.start, self.stop));
        for m in &self.media {
            out.push_str(&format!(
                "m={} {} {} {}\r\n",
                escape(&m.kind),
                m.port,
                escape(&m.proto),
                m.format
            ));
        }
        out
    }

    /// Parse SDP text (accepts `\n` or `\r\n` line endings), eagerly
    /// materialising owned strings.  Cold-path wrapper over
    /// [`DescRef::parse`]; the receive path keeps the borrowed view.
    pub fn parse(text: &str) -> Result<SessionDescription, SdpError> {
        DescRef::parse(text).map(|d| d.to_desc())
    }

    /// A borrowed view of this description (the inverse of
    /// [`DescRef::to_desc`]): lets owned descriptions flow through the
    /// borrow-only admit path without copying.
    pub fn as_ref(&self) -> DescRef<'_> {
        DescRef {
            origin: OriginRef {
                username: &self.origin.username,
                session_id: self.origin.session_id,
                version: self.origin.version,
                address: self.origin.address,
            },
            name: &self.name,
            info: self.info.as_deref(),
            group: self.group,
            ttl: self.ttl,
            start: self.start,
            stop: self.stop,
            media: self
                .media
                .iter()
                .map(|m| MediaRef {
                    kind: &m.kind,
                    port: m.port,
                    proto: &m.proto,
                    format: m.format,
                })
                .collect(),
        }
    }
}

/// Borrowed `o=` line: every string field points into the packet
/// buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OriginRef<'a> {
    /// Username of the creator ("-" when unknown).
    pub username: &'a str,
    /// Globally unique session id.
    pub session_id: u64,
    /// Version of this announcement.
    pub version: u64,
    /// Unicast address of the originating host.
    pub address: Ipv4Addr,
}

/// Borrowed `m=` line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MediaRef<'a> {
    /// Media kind: "audio", "video", …
    pub kind: &'a str,
    /// Transport port.
    pub port: u16,
    /// Transport protocol ("RTP/AVP").
    pub proto: &'a str,
    /// Format number (RTP payload type).
    pub format: u32,
}

/// A zero-copy session description: the borrowed counterpart of
/// [`SessionDescription`], produced by [`DescRef::parse`] directly over
/// the packet buffer.  Owned strings are materialised only where a copy
/// must outlive the packet — at cache-admit time, via the cache's
/// interner.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescRef<'a> {
    /// Origin (`o=`), borrowed.
    pub origin: OriginRef<'a>,
    /// Session name (`s=`), borrowed.
    pub name: &'a str,
    /// Optional free-text description (`i=`), borrowed.
    pub info: Option<&'a str>,
    /// Multicast group of the session (`c=`).
    pub group: Ipv4Addr,
    /// Scope TTL of the session.
    pub ttl: u8,
    /// Start time (`t=`), 0 = unbounded.
    pub start: u64,
    /// Stop time (`t=`), 0 = unbounded.
    pub stop: u64,
    /// Media streams (`m=`): borrowed refs, one small Vec per parse.
    pub media: Vec<MediaRef<'a>>,
}

impl<'a> DescRef<'a> {
    /// Parse SDP text without copying a single field: every `&str` in
    /// the result borrows `text`.  Same grammar, ordering rules and
    /// errors as [`SessionDescription::parse`].
    pub fn parse(text: &'a str) -> Result<DescRef<'a>, SdpError> {
        // Only the CR of a CRLF ending is stripped: other trailing
        // whitespace is significant field content.
        let mut lines = text
            .split('\n')
            .map(|l| l.strip_suffix('\r').unwrap_or(l))
            .filter(|l| !l.is_empty())
            .peekable();

        let v = take(&mut lines, 'v').ok_or(SdpError::MissingLine("v"))?;
        if v != "0" {
            return Err(SdpError::BadVersion);
        }

        let o = take(&mut lines, 'o').ok_or(SdpError::MissingLine("o"))?;
        let origin = parse_origin(o)?;

        let name = take(&mut lines, 's').ok_or(SdpError::MissingLine("s"))?;

        let info = take(&mut lines, 'i');

        let c = take(&mut lines, 'c').ok_or(SdpError::MissingLine("c"))?;
        let (group, ttl) = parse_connection(c)?;

        let t = take(&mut lines, 't').ok_or(SdpError::MissingLine("t"))?;
        let (start, stop) = parse_times(t)?;

        let mut media = Vec::new();
        while let Some(m) = take(&mut lines, 'm') {
            media.push(parse_media(m)?);
        }

        if let Some(extra) = lines.next() {
            return Err(SdpError::Malformed(extra.to_string()));
        }

        Ok(DescRef {
            origin,
            name,
            info,
            group,
            ttl,
            start,
            stop,
            media,
        })
    }

    /// Materialise an owned [`SessionDescription`] — the one place the
    /// borrowed view's strings are copied.
    pub fn to_desc(&self) -> SessionDescription {
        SessionDescription {
            origin: Origin {
                username: self.origin.username.to_string(),
                session_id: self.origin.session_id,
                version: self.origin.version,
                address: self.origin.address,
            },
            name: self.name.to_string(),
            info: self.info.map(str::to_string),
            group: self.group,
            ttl: self.ttl,
            start: self.start,
            stop: self.stop,
            media: self
                .media
                .iter()
                .map(|m| Media {
                    kind: m.kind.to_string(),
                    port: m.port,
                    proto: m.proto.to_string(),
                    format: m.format,
                })
                .collect(),
        }
    }
}

/// Strip CR/LF from user-supplied fields so they cannot forge lines.
fn escape(s: &str) -> String {
    s.replace(['\r', '\n'], " ")
}

/// If the next line is `<key>=<value>`, consume and return the value,
/// borrowed from the input buffer.
fn take<'a, I>(lines: &mut std::iter::Peekable<I>, key: char) -> Option<&'a str>
where
    I: Iterator<Item = &'a str>,
{
    let line = lines.peek()?;
    let value = line.strip_prefix(key)?.strip_prefix('=')?;
    lines.next();
    Some(value)
}

// The field helpers below destructure each line with iterator/tuple
// matching: no intermediate Vec, no index expressions, total on any
// input.  Error-path `format!` captures the offending line.

fn parse_origin(s: &str) -> Result<OriginRef<'_>, SdpError> {
    let err = || SdpError::Malformed(format!("o={s}"));
    let mut f = s.split_whitespace();
    match (
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
        f.next(),
    ) {
        (Some(user), Some(sid), Some(ver), Some("IN"), Some("IP4"), Some(addr), None) => {
            Ok(OriginRef {
                username: user,
                session_id: sid.parse().map_err(|_| err())?,
                version: ver.parse().map_err(|_| err())?,
                address: addr.parse().map_err(|_| err())?,
            })
        }
        _ => Err(err()),
    }
}

fn parse_connection(s: &str) -> Result<(Ipv4Addr, u8), SdpError> {
    let err = || SdpError::Malformed(format!("c={s}"));
    let mut f = s.split_whitespace();
    let (Some("IN"), Some("IP4"), Some(conn), None) = (f.next(), f.next(), f.next(), f.next())
    else {
        return Err(err());
    };
    let (addr_str, ttl_str) = conn.split_once('/').ok_or_else(err)?;
    let addr: Ipv4Addr = addr_str.parse().map_err(|_| err())?;
    if !addr.is_multicast() {
        return Err(SdpError::NotMulticast);
    }
    let ttl: u8 = ttl_str.parse().map_err(|_| err())?;
    Ok((addr, ttl))
}

fn parse_times(s: &str) -> Result<(u64, u64), SdpError> {
    let err = || SdpError::Malformed(format!("t={s}"));
    let mut f = s.split_whitespace();
    let (Some(start), Some(stop), None) = (f.next(), f.next(), f.next()) else {
        return Err(err());
    };
    Ok((
        start.parse().map_err(|_| err())?,
        stop.parse().map_err(|_| err())?,
    ))
}

fn parse_media(s: &str) -> Result<MediaRef<'_>, SdpError> {
    let err = || SdpError::Malformed(format!("m={s}"));
    let mut f = s.split_whitespace();
    let (Some(kind), Some(port), Some(proto), Some(format), None) =
        (f.next(), f.next(), f.next(), f.next(), f.next())
    else {
        return Err(err());
    };
    Ok(MediaRef {
        kind,
        port: port.parse().map_err(|_| err())?,
        proto,
        format: format.parse().map_err(|_| err())?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> SessionDescription {
        SessionDescription {
            origin: Origin {
                username: "mjh".into(),
                session_id: 3_086_943_492,
                version: 1,
                address: Ipv4Addr::new(128, 9, 160, 45),
            },
            name: "ISI seminar".into(),
            info: Some("Weekly systems seminar".into()),
            group: Ipv4Addr::new(224, 2, 130, 7),
            ttl: 127,
            start: 0,
            stop: 0,
            media: vec![
                Media {
                    kind: "audio".into(),
                    port: 49170,
                    proto: "RTP/AVP".into(),
                    format: 0,
                },
                Media {
                    kind: "video".into(),
                    port: 51372,
                    proto: "RTP/AVP".into(),
                    format: 31,
                },
            ],
        }
    }

    #[test]
    fn roundtrip() {
        let sd = sample();
        let text = sd.format();
        let parsed = SessionDescription::parse(&text).unwrap();
        assert_eq!(parsed, sd);
    }

    #[test]
    fn roundtrip_without_info() {
        let mut sd = sample();
        sd.info = None;
        let parsed = SessionDescription::parse(&sd.format()).unwrap();
        assert_eq!(parsed, sd);
    }

    #[test]
    fn parse_known_text() {
        let text = "v=0\r\no=- 42 7 IN IP4 10.0.0.1\r\ns=test\r\nc=IN IP4 239.1.2.3/15\r\nt=100 200\r\nm=audio 5004 RTP/AVP 0\r\n";
        let sd = SessionDescription::parse(text).unwrap();
        assert_eq!(sd.origin.session_id, 42);
        assert_eq!(sd.origin.version, 7);
        assert_eq!(sd.ttl, 15);
        assert_eq!(sd.group, Ipv4Addr::new(239, 1, 2, 3));
        assert_eq!(sd.media.len(), 1);
        assert_eq!((sd.start, sd.stop), (100, 200));
    }

    #[test]
    fn accepts_bare_newlines() {
        let text = "v=0\no=- 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.2.0.1/63\nt=0 0\n";
        let sd = SessionDescription::parse(text).unwrap();
        assert_eq!(sd.ttl, 63);
        assert!(sd.media.is_empty());
    }

    #[test]
    fn rejects_bad_version() {
        let text = "v=1\no=- 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.2.0.1/63\nt=0 0\n";
        assert_eq!(SessionDescription::parse(text), Err(SdpError::BadVersion));
    }

    #[test]
    fn rejects_missing_lines() {
        assert_eq!(
            SessionDescription::parse("v=0\ns=x\n"),
            Err(SdpError::MissingLine("o"))
        );
        assert_eq!(
            SessionDescription::parse(""),
            Err(SdpError::MissingLine("v"))
        );
    }

    #[test]
    fn rejects_unicast_group() {
        let text = "v=0\no=- 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 10.1.2.3/63\nt=0 0\n";
        assert_eq!(SessionDescription::parse(text), Err(SdpError::NotMulticast));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let text = "v=0\no=- 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.2.0.1/63\nt=0 0\nz=???\n";
        assert!(matches!(
            SessionDescription::parse(text),
            Err(SdpError::Malformed(_))
        ));
    }

    #[test]
    fn rejects_malformed_media() {
        let text =
            "v=0\no=- 1 1 IN IP4 10.0.0.1\ns=x\nc=IN IP4 224.2.0.1/63\nt=0 0\nm=audio 5004\n";
        assert!(matches!(
            SessionDescription::parse(text),
            Err(SdpError::Malformed(_))
        ));
    }

    #[test]
    fn newlines_in_fields_cannot_forge_lines() {
        let mut sd = sample();
        sd.name = "evil\r\nc=IN IP4 224.9.9.9/255".into();
        let parsed = SessionDescription::parse(&sd.format()).unwrap();
        // The injected text is flattened into the name, not a new line.
        assert_eq!(parsed.group, sd.group);
        assert!(parsed.name.contains("evil"));
    }

    #[test]
    fn version_bump_reflected() {
        let mut sd = sample();
        sd.origin.version += 1;
        let parsed = SessionDescription::parse(&sd.format()).unwrap();
        assert_eq!(parsed.origin.version, 2);
    }

    #[test]
    fn zero_copy_parse_borrows_the_buffer() {
        let text = sample().format();
        let view = DescRef::parse(&text).unwrap();
        // Pointer containment: each borrowed field lies inside `text`.
        let inside = |s: &str| {
            let (lo, hi) = (text.as_ptr() as usize, text.as_ptr() as usize + text.len());
            let p = s.as_ptr() as usize;
            lo <= p && p + s.len() <= hi
        };
        assert!(inside(view.name));
        assert!(inside(view.origin.username));
        assert!(view.info.is_some_and(inside));
        for m in &view.media {
            assert!(inside(m.kind));
            assert!(inside(m.proto));
        }
    }

    #[test]
    fn borrowed_and_owned_parsers_agree() {
        let sd = sample();
        let text = sd.format();
        let view = DescRef::parse(&text).unwrap();
        assert_eq!(view.to_desc(), sd);
        assert_eq!(view, sd.as_ref());
        // Errors agree too.
        for bad in ["", "v=1\n", "v=0\ns=x\n"] {
            assert_eq!(
                DescRef::parse(bad).err(),
                SessionDescription::parse(bad).err()
            );
        }
    }
}
