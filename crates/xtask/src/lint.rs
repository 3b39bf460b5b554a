//! The custom source lint pass.
//!
//! Five rules, all scoped to where their failure mode actually bites:
//!
//! * **rng-discipline** — non-deterministic RNG construction
//!   (`thread_rng`, `OsRng`, `from_entropy`, `rand::random`) is banned
//!   everywhere except `crates/sim/src/rng.rs`.  Every simulation result
//!   in the paper reproduction must be replayable from a seed.
//! * **truncating-cast** — `as u8` / `as u16` / `as u32` are banned in
//!   the address-arithmetic and wire/schedule files, where a silent
//!   truncation corrupts an address (or a packet field) instead of
//!   crashing; additionally, narrowing a usize-valued length
//!   (`.len()`/`.count()`/`.capacity()` `as u8/u16/u32`) is banned
//!   across all library crates — a collection size silently wrapped is
//!   the classic million-session bug.
//! * **wall-clock** — `Instant::now` / `SystemTime::now` are banned
//!   everywhere except the real UDP transport (`crates/sap/src/net.rs`)
//!   and the benchmark harness (`crates/bench/`).  The protocol engines
//!   are wake-on-deadline state machines over [`SimTime`]; a stray wall
//!   clock reading silently breaks seed-replayable traces.
//! * **print-ban** — `println!` / `eprintln!` are banned in the library
//!   crates (`crates/core`, `crates/sap`, `crates/rr`, `crates/sim`).
//!   Observability goes through the telemetry subsystem (metrics +
//!   trace events + flight recorder), which is deterministic and
//!   machine-readable; ad-hoc prints from a library are neither, and
//!   they corrupt the stdout of any binary embedding it.
//! * **allow-justification** — every suppression marker must carry a
//!   reason: `lint:allow(<rule>): <why>`.  A bare marker does not
//!   suppress anything and is itself a finding, as is a marker naming
//!   a rule that does not exist (typo protection).
//!
//! Panic-freedom is not policed here: the clippy restriction lints
//! (`indexing_slicing`, `unwrap_used`, `expect_used`, `panic`, `todo`,
//! `unimplemented`) are switched on at the root of every panic-scoped
//! crate and denied by `scripts/check.sh` (DESIGN.md 4a).
//!
//! The scanner is deliberately lexical: it masks comments, string and
//! character literals (preserving line structure), skips `#[cfg(test)]`
//! regions by brace matching, and then applies substring rules per
//! line.  A justified `lint:allow(<rule>): <reason>` marker in a
//! comment on the offending line suppresses a finding — grep-able, and
//! loud in review.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};

/// Files where truncating `as` casts are banned: address arithmetic,
/// the topology id constructors (a node/link/zone count silently
/// wrapped to 32 bits aliases two different graph elements), and since
/// PR 6 the SAP wire codec and announce scheduler (a packet length or
/// interval wrapped on encode corrupts the datagram instead of
/// failing).
const CAST_CHECKED: &[&str] = &[
    "crates/core/src/addr.rs",
    "crates/core/src/partition_map.rs",
    "crates/topology/src/graph.rs",
    "crates/topology/src/admin.rs",
    "crates/sap/src/wire.rs",
    "crates/sap/src/schedule.rs",
];

/// Library crates where narrowing a usize-valued size expression
/// (`.len()`/`.count()`/`.capacity()` followed by `as u8/u16/u32`) is
/// banned even outside the CAST_CHECKED files.
const NARROW_CHECKED: &[&str] = &[
    "crates/core/src/",
    "crates/sap/src/",
    "crates/rr/src/",
    "crates/sim/src/",
    "crates/topology/src/",
    "crates/telemetry/src/",
];

/// The one file allowed to construct RNG state from the environment.
const RNG_EXEMPT: &[&str] = &["crates/sim/src/rng.rs"];

/// Paths (file or directory prefixes) allowed to read the wall clock:
/// the real UDP transport needs packet timestamps, the benchmark
/// harness measures elapsed wall time by definition, and the runtime
/// *driver* files bridge wall time to `SimTime` (that is their job).
/// The runtime's snapshot module is deliberately absent: the read path
/// is pure protocol-state projection and must stay replayable.
const WALL_CLOCK_EXEMPT: &[&str] = &[
    "crates/sap/src/net.rs",
    "crates/bench/",
    "crates/runtime/src/clock.rs",
    "crates/runtime/src/bus.rs",
    "crates/runtime/src/driver.rs",
    "crates/runtime/src/soak.rs",
];

/// Library crates whose non-test source must not print: observability
/// goes through `sdalloc_telemetry`, not stdout/stderr.
const PRINT_BANNED: &[&str] = &[
    "crates/core/src/",
    "crates/sap/src/",
    "crates/rr/src/",
    "crates/sim/src/",
];

/// A lint rule identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rule {
    /// Unseeded / non-deterministic RNG construction.
    RngDiscipline,
    /// Truncating `as` casts in address arithmetic / wire codecs.
    TruncatingCast,
    /// Wall-clock reads outside the real transport and bench harness.
    WallClock,
    /// `println!`/`eprintln!` in library crates.
    PrintBan,
    /// `lint:allow` markers without a justification (or naming an
    /// unknown rule).
    AllowJustification,
}

impl Rule {
    /// The name used in reports and in `lint:allow(...)` markers.
    pub fn name(self) -> &'static str {
        match self {
            Rule::RngDiscipline => "rng-discipline",
            Rule::TruncatingCast => "truncating-cast",
            Rule::WallClock => "wall-clock",
            Rule::PrintBan => "print-ban",
            Rule::AllowJustification => "allow-justification",
        }
    }
}

/// Every rule name a `lint:allow(...)` marker may legally reference.
/// The six call-graph/dataflow rules retired in PR 14 are deliberately
/// absent, so a leftover marker for one of them is itself a finding.
const KNOWN_RULES: &[&str] = &[
    "rng-discipline",
    "truncating-cast",
    "wall-clock",
    "print-ban",
    "allow-justification",
];

/// Whether `line` carries a *justified* suppression for `rule_name`:
/// `lint:allow(<rule>): <non-empty reason>`.
fn allow_marker(line: &str, rule_name: &str) -> bool {
    let pat = format!("lint:allow({rule_name})");
    let Some(pos) = line.find(&pat) else {
        return false;
    };
    let rest = &line[pos + pat.len()..];
    // Mandatory `: reason` with visible text after the colon.
    rest.strip_prefix(':').is_some_and(|r| !r.trim().is_empty())
}

/// One lint violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// What was found.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file,
            self.line,
            self.rule.name(),
            self.message
        )
    }
}

/// Run the lint pass over every `.rs` file under `<root>/crates`.
/// Returns the findings plus the number of files scanned.
pub fn run(root: &Path) -> (Vec<Finding>, usize) {
    let mut files = Vec::new();
    collect_rs_files(&root.join("crates"), &mut files);
    files.sort();
    let mut findings = Vec::new();
    let mut scanned = 0;
    for path in files {
        let Ok(source) = fs::read_to_string(&path) else {
            continue;
        };
        scanned += 1;
        let rel = path
            .strip_prefix(root)
            .unwrap_or(&path)
            .to_string_lossy()
            .replace('\\', "/");
        findings.extend(scan_source(&rel, &source));
    }
    (findings, scanned)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            if path.file_name().is_some_and(|n| n == "target") {
                continue;
            }
            collect_rs_files(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}

/// Scan one file's source; `rel` is its workspace-relative path.
pub fn scan_source(rel: &str, source: &str) -> Vec<Finding> {
    let masked = mask_comments_and_strings(source);
    let in_test = test_region_lines(&masked);
    let raw_lines: Vec<&str> = source.lines().collect();

    let cast_scoped = CAST_CHECKED.contains(&rel);
    let narrow_scoped = NARROW_CHECKED.iter().any(|p| rel.starts_with(p));
    let rng_scoped = !RNG_EXEMPT.contains(&rel);
    let clock_scoped = !WALL_CLOCK_EXEMPT.iter().any(|p| rel.starts_with(p));
    let print_scoped = PRINT_BANNED.iter().any(|p| rel.starts_with(p));

    let mut findings = Vec::new();
    for (i, line) in masked.lines().enumerate() {
        if in_test.get(i).copied().unwrap_or(false) {
            continue;
        }
        let raw = raw_lines.get(i).copied().unwrap_or("");
        let allowed = |rule: Rule| allow_marker(raw, rule.name());
        let mut push = |rule: Rule, message: String| {
            if !allowed(rule) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: i + 1,
                    rule,
                    message,
                });
            }
        };

        // Audit every suppression marker on the raw line: a bare
        // marker suppresses nothing and is itself a finding; so is a
        // marker naming a rule that does not exist.  Placeholder text
        // like `lint:allow(<rule>)` in docs is skipped because `<` is
        // not a legal rule-name character.
        let mut from = 0;
        while let Some(p) = raw[from..].find("lint:allow(") {
            let at = from + p + "lint:allow(".len();
            from = at;
            let Some(close) = raw[at..].find(')') else {
                break;
            };
            let name = &raw[at..at + close];
            if name.is_empty()
                || !name
                    .chars()
                    .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-')
            {
                continue; // doc placeholder, not a marker
            }
            if !KNOWN_RULES.contains(&name) {
                push(
                    Rule::AllowJustification,
                    format!(
                        "`lint:allow({name})` names an unknown rule (known: {})",
                        KNOWN_RULES.join(", ")
                    ),
                );
            } else if !allow_marker(raw, name) {
                push(
                    Rule::AllowJustification,
                    format!("bare `lint:allow({name})` — suppressions must carry a reason: `lint:allow({name}): <why>`"),
                );
            }
        }

        if rng_scoped {
            for pat in ["thread_rng", "OsRng", "from_entropy", "rand::random"] {
                if line.contains(pat) {
                    push(
                        Rule::RngDiscipline,
                        format!("`{pat}` constructs a non-deterministic RNG; seed a SimRng instead (only crates/sim/src/rng.rs may touch entropy)"),
                    );
                }
            }
        }
        if clock_scoped {
            for pat in ["Instant::now", "SystemTime::now"] {
                if line.contains(pat) {
                    push(
                        Rule::WallClock,
                        format!("`{pat}` reads the wall clock; protocol code runs on SimTime so traces stay seed-replayable (only the net transport and bench harness may)"),
                    );
                }
            }
        }
        if print_scoped {
            // Whole-token match: `eprintln!` contains `println!` as a
            // substring, so `println!` only counts when not preceded by
            // an identifier character.
            for pat in ["println!", "eprintln!"] {
                if contains_cast(line, pat) {
                    push(
                        Rule::PrintBan,
                        format!("`{pat}` in a library crate; record through sdalloc_telemetry (metrics/trace events) instead of printing"),
                    );
                }
            }
        }
        if cast_scoped {
            for pat in ["as u8", "as u16", "as u32"] {
                if contains_cast(line, pat) {
                    push(
                        Rule::TruncatingCast,
                        format!("truncating `{pat}` in address/wire arithmetic; use `try_from` or restructure to the narrow type"),
                    );
                }
            }
        }
        if narrow_scoped && !cast_scoped {
            // Narrowing a usize-valued size expression: the classic
            // million-session wraparound.  (CAST_CHECKED files are
            // covered by the blanket rule above.)
            for src in [".len()", ".count()", ".capacity()"] {
                for target in ["u8", "u16", "u32"] {
                    let pat = format!("{src} as {target}");
                    if line.contains(&pat) {
                        push(
                            Rule::TruncatingCast,
                            format!("narrowing `{pat}` silently wraps a collection size; use `{target}::try_from` with an explicit saturation/error policy"),
                        );
                    }
                }
            }
        }
    }
    findings
}

/// Whether `line` contains `pat` as a whole token (not embedded in a
/// longer identifier on either side) — used for `as uN` casts and for
/// the print macros, where `eprintln!` contains `println!`.
fn contains_cast(line: &str, pat: &str) -> bool {
    let bytes = line.as_bytes();
    let mut start = 0;
    while let Some(pos) = line[start..].find(pat) {
        let at = start + pos;
        let before_ok =
            at == 0 || !(bytes[at - 1].is_ascii_alphanumeric() || bytes[at - 1] == b'_');
        let end = at + pat.len();
        let after_ok =
            end >= bytes.len() || !(bytes[end].is_ascii_alphanumeric() || bytes[end] == b'_');
        if before_ok && after_ok {
            return true;
        }
        start = at + 1;
    }
    false
}

/// Replace the contents of comments and string/char literals with
/// spaces, preserving newlines so line numbers survive.
pub fn mask_comments_and_strings(source: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Code,
        LineComment,
        BlockComment(u32),
        Str,
        RawStr(u32),
        CharLit,
    }
    let bytes = source.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut state = State::Code;
    let mut i = 0;
    while i < bytes.len() {
        let b = bytes[i];
        match state {
            State::Code => {
                if b == b'/' && bytes.get(i + 1) == Some(&b'/') {
                    state = State::LineComment;
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    state = State::Str;
                    out.push(b'"');
                    i += 1;
                } else if b == b'r'
                    && matches!(bytes.get(i + 1), Some(&b'"') | Some(&b'#'))
                    && !prev_is_ident(&out)
                {
                    // r"..." or r#"..."# raw string.
                    let mut hashes = 0;
                    let mut j = i + 1;
                    while bytes.get(j) == Some(&b'#') {
                        hashes += 1;
                        j += 1;
                    }
                    if bytes.get(j) == Some(&b'"') {
                        state = State::RawStr(hashes);
                        out.resize(out.len() + (j - i + 1), b' ');
                        i = j + 1;
                    } else {
                        out.push(b);
                        i += 1;
                    }
                } else if b == b'\'' && is_char_literal(bytes, i) {
                    state = State::CharLit;
                    out.push(b'\'');
                    i += 1;
                } else {
                    out.push(b);
                    i += 1;
                }
            }
            State::LineComment => {
                if b == b'\n' {
                    state = State::Code;
                    out.push(b'\n');
                } else {
                    out.push(b' ');
                }
                i += 1;
            }
            State::BlockComment(depth) => {
                if b == b'*' && bytes.get(i + 1) == Some(&b'/') {
                    state = if depth == 1 {
                        State::Code
                    } else {
                        State::BlockComment(depth - 1)
                    };
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'/' && bytes.get(i + 1) == Some(&b'*') {
                    state = State::BlockComment(depth + 1);
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::Str => {
                if b == b'\\' && i + 1 < bytes.len() {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'"' {
                    state = State::Code;
                    out.push(b'"');
                    i += 1;
                } else {
                    out.push(if b == b'\n' { b'\n' } else { b' ' });
                    i += 1;
                }
            }
            State::RawStr(hashes) => {
                if b == b'"' {
                    let mut j = i + 1;
                    let mut seen = 0;
                    while seen < hashes && bytes.get(j) == Some(&b'#') {
                        seen += 1;
                        j += 1;
                    }
                    if seen == hashes {
                        state = State::Code;
                        out.resize(out.len() + (j - i), b' ');
                        i = j;
                        continue;
                    }
                }
                out.push(if b == b'\n' { b'\n' } else { b' ' });
                i += 1;
            }
            State::CharLit => {
                if b == b'\\' && i + 1 < bytes.len() {
                    out.extend_from_slice(b"  ");
                    i += 2;
                } else if b == b'\'' {
                    state = State::Code;
                    out.push(b'\'');
                    i += 1;
                } else {
                    out.push(b' ');
                    i += 1;
                }
            }
        }
    }
    // Masked output is byte-for-byte positionally aligned ASCII-safe.
    String::from_utf8_lossy(&out).into_owned()
}

/// Whether the masked output so far ends in an identifier character
/// (distinguishes the raw-string prefix `r"` from an identifier ending
/// in `r`).
fn prev_is_ident(out: &[u8]) -> bool {
    out.last()
        .is_some_and(|&b| b.is_ascii_alphanumeric() || b == b'_')
}

/// Whether the `'` at `bytes[i]` starts a char literal (vs a lifetime).
fn is_char_literal(bytes: &[u8], i: usize) -> bool {
    match bytes.get(i + 1) {
        Some(b'\\') => true,
        Some(_) => {
            // 'x' is a char literal; 'x followed by anything else is a
            // lifetime.  Multibyte chars: scan to the closing quote
            // within a few bytes.
            bytes[i + 1..].iter().take(5).skip(1).any(|&b| b == b'\'')
        }
        None => false,
    }
}

/// Per-line flags: `true` where the line falls inside a `#[cfg(test)]`
/// item (the attribute line through the item's closing brace).
pub fn test_region_lines(masked: &str) -> Vec<bool> {
    let line_count = masked.lines().count();
    let mut flags = vec![false; line_count];
    // Byte offset of each line start, for offset→line translation.
    let mut line_starts = vec![0usize];
    for (i, b) in masked.bytes().enumerate() {
        if b == b'\n' {
            line_starts.push(i + 1);
        }
    }
    let line_of = |off: usize| -> usize {
        match line_starts.binary_search(&off) {
            Ok(l) => l,
            Err(l) => l - 1,
        }
    };

    let mut search_from = 0;
    while let Some(pos) = masked[search_from..].find("#[cfg(test)]") {
        let attr_at = search_from + pos;
        let after = attr_at + "#[cfg(test)]".len();
        // The guarded item runs to the matching close of the first `{`
        // opened after the attribute (or to the first `;` if none —
        // e.g. `#[cfg(test)] use ...;`).
        let bytes = masked.as_bytes();
        let mut j = after;
        let mut depth = 0usize;
        let mut end = masked.len();
        while j < bytes.len() {
            match bytes[j] {
                b'{' => depth += 1,
                b'}' => {
                    depth = depth.saturating_sub(1);
                    if depth == 0 {
                        end = j;
                        break;
                    }
                }
                b';' if depth == 0 => {
                    end = j;
                    break;
                }
                _ => {}
            }
            j += 1;
        }
        let (start_line, end_line) = (line_of(attr_at), line_of(end.min(masked.len() - 1)));
        for flag in flags.iter_mut().take(end_line + 1).skip(start_line) {
            *flag = true;
        }
        search_from = end.min(masked.len());
        if search_from <= attr_at {
            break;
        }
    }
    flags
}

#[cfg(test)]
mod tests {
    use super::*;

    fn find(rel: &str, src: &str) -> Vec<Finding> {
        scan_source(rel, src)
    }

    #[test]
    fn test_module_skipped() {
        let src = "fn ok() {}\n#[cfg(test)]\nmod tests {\n    fn f() { println!(\"dbg\") }\n}\n";
        let f = find("crates/core/src/alloc.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn code_after_test_module_still_scanned() {
        let src =
            "#[cfg(test)]\nmod tests {\n    fn f() { println!(\"a\") }\n}\nfn g() { println!(\"b\"); }\n";
        let f = find("crates/core/src/alloc.rs", src);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 5);
    }

    #[test]
    fn comments_and_strings_masked() {
        let src = "// calls println! freely\nfn f() { log(\"never println! here\"); }\n";
        let f = find("crates/core/src/alloc.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn justified_allow_marker_suppresses() {
        let src = "fn f() { let t = Instant::now(); } // lint:allow(wall-clock): boot banner only, never in protocol state\n";
        let f = find("crates/core/src/alloc.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn bare_allow_marker_is_a_finding_and_does_not_suppress() {
        let src = "fn f() { let t = Instant::now(); } // lint:allow(wall-clock)\n";
        let f = find("crates/core/src/alloc.rs", src);
        // The wall-clock finding survives AND the bare marker is flagged.
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f.iter().any(|x| x.rule == Rule::WallClock));
        assert!(f.iter().any(|x| x.rule == Rule::AllowJustification));
    }

    #[test]
    fn unknown_rule_in_allow_marker_flagged() {
        let src = "fn f() {} // lint:allow(panic-pathz): typo'd rule name\n";
        let f = find("crates/core/src/alloc.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::AllowJustification);
        assert!(f[0].message.contains("unknown rule"));
    }

    #[test]
    fn doc_placeholder_marker_not_flagged() {
        let src = "//! Suppress with a `lint:allow(<rule>): <reason>` comment.\nfn f() {}\n";
        let f = find("crates/core/src/alloc.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn retired_rule_names_are_stale_markers() {
        for rule in [
            "panic-reach",
            "hot-alloc",
            "unbounded-growth",
            "wire-taint",
            "hot-path-scan",
            "read-path-purity",
        ] {
            let src =
                format!("fn f() {{}} // lint:allow({rule}): left over from the retired tier\n");
            let f = find("crates/core/src/alloc.rs", &src);
            assert_eq!(f.len(), 1, "{rule}: {f:?}");
            assert_eq!(f[0].rule, Rule::AllowJustification);
        }
    }

    #[test]
    fn rng_discipline_flags_entropy_sources() {
        for pat in [
            "rand::thread_rng()",
            "OsRng.next_u64()",
            "SmallRng::from_entropy()",
        ] {
            let src = format!("fn f() {{ let r = {pat}; }}\n");
            let f = find("crates/experiments/src/main.rs", &src);
            assert_eq!(f.len(), 1, "{pat}");
            assert_eq!(f[0].rule, Rule::RngDiscipline);
        }
    }

    #[test]
    fn rng_exempt_file_ignored() {
        let f = find("crates/sim/src/rng.rs", "fn f() { from_entropy(); }\n");
        assert!(f.is_empty());
    }

    #[test]
    fn truncating_cast_flagged_in_addr_files() {
        let f = find(
            "crates/core/src/partition_map.rs",
            "fn f(x: u32) -> u8 { x as u8 }\n",
        );
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].rule, Rule::TruncatingCast);
    }

    #[test]
    fn widening_cast_not_flagged() {
        let f = find(
            "crates/core/src/addr.rs",
            "fn f(x: u8) -> u64 { x as u64 + 1 }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn cast_in_other_files_ignored() {
        let f = find(
            "crates/core/src/analytic.rs",
            "fn f(x: u64) -> u32 { x as u32 }\n",
        );
        assert!(f.is_empty());
    }

    #[test]
    fn wall_clock_flagged_in_protocol_code() {
        for pat in ["Instant::now()", "SystemTime::now()"] {
            let src = format!("fn f() {{ let t = {pat}; }}\n");
            let f = find("crates/sim/src/engine.rs", &src);
            assert_eq!(f.len(), 1, "{pat}");
            assert_eq!(f[0].rule, Rule::WallClock);
        }
    }

    #[test]
    fn wall_clock_exempt_paths_ignored() {
        let src = "fn f() { let t = Instant::now(); }\n";
        for rel in [
            "crates/sap/src/net.rs",
            "crates/bench/src/bin/directory_scale.rs",
        ] {
            let f = find(rel, src);
            assert!(f.is_empty(), "{rel}: {f:?}");
        }
    }

    #[test]
    fn masking_preserves_line_count() {
        let src = "fn a() {}\n/* multi\nline\ncomment */\nfn b() { \"s\ntring\"; }\n";
        let masked = mask_comments_and_strings(src);
        assert_eq!(src.lines().count(), masked.lines().count());
    }

    #[test]
    fn lifetimes_do_not_confuse_masking() {
        let src = "fn f<'a>(x: &'a str) -> &'a str { x }\nfn g() { println!(\"x\"); }\n";
        let f = find("crates/core/src/view.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 2);
    }

    #[test]
    fn char_literals_masked() {
        let src = "fn f() { let q = '\"'; let n = '\\n'; println!(\"x\"); }\n";
        let f = find("crates/core/src/view.rs", src);
        assert_eq!(f.len(), 1);
    }

    #[test]
    fn raw_strings_masked() {
        let src = "fn f() { let s = r#\"println! Instant::now()\"#; }\n";
        let f = find("crates/core/src/view.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn print_macros_flagged_in_library_crates() {
        for rel in [
            "crates/core/src/clash.rs",
            "crates/sap/src/directory.rs",
            "crates/rr/src/sim.rs",
            "crates/sim/src/engine.rs",
        ] {
            let f = find(rel, "fn f() { println!(\"x\"); }\n");
            assert_eq!(f.len(), 1, "{rel}: {f:?}");
            assert_eq!(f[0].rule, Rule::PrintBan);
        }
    }

    #[test]
    fn eprintln_reported_once_not_twice() {
        // `eprintln!` contains `println!` as a substring; the
        // whole-token matcher must not double-count it.
        let f = find("crates/sap/src/net.rs", "fn f() { eprintln!(\"x\"); }\n");
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::PrintBan);
    }

    #[test]
    fn prints_allowed_outside_library_crates() {
        let src = "fn f() { println!(\"x\"); eprintln!(\"y\"); }\n";
        for rel in [
            "crates/experiments/src/main.rs",
            "crates/bench/src/bin/directory_scale.rs",
            "crates/xtask/src/main.rs",
        ] {
            let f = find(rel, src);
            assert!(f.is_empty(), "{rel}: {f:?}");
        }
    }

    #[test]
    fn prints_in_tests_and_strings_ignored() {
        let src = "fn doc() { log(\"println! is banned\"); }\n#[cfg(test)]\nmod tests {\n    fn f() { println!(\"dbg\"); }\n}\n";
        let f = find("crates/core/src/alloc.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn print_allow_marker_suppresses() {
        let src =
            "fn f() { eprintln!(\"fatal\"); } // lint:allow(print-ban): pre-abort diagnostics\n";
        let f = find("crates/sim/src/engine.rs", src);
        assert!(f.is_empty(), "{f:?}");
    }

    #[test]
    fn wire_and_schedule_files_are_cast_scoped() {
        let src = "fn f(x: usize) -> u8 { x as u8 }\n";
        for rel in ["crates/sap/src/wire.rs", "crates/sap/src/schedule.rs"] {
            let f = find(rel, src);
            assert_eq!(f.len(), 1, "{rel}: {f:?}");
            assert_eq!(f[0].rule, Rule::TruncatingCast);
        }
    }

    #[test]
    fn narrowing_len_cast_flagged_in_library_crates() {
        let src = "fn f(v: &[u8]) -> u32 { v.len() as u32 }\n";
        let f = find("crates/core/src/hier.rs", src);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].rule, Rule::TruncatingCast);
        assert!(f[0].message.contains("narrowing"));
        // Counting iterators narrows the same way.
        let f = find(
            "crates/topology/src/mbone.rs",
            "fn g(it: impl Iterator<Item = u8>) -> u16 { it.count() as u16 }\n",
        );
        assert_eq!(f.len(), 1, "{f:?}");
    }

    #[test]
    fn narrowing_len_cast_ignored_outside_library_crates() {
        let src = "fn f(v: &[u8]) -> u32 { v.len() as u32 }\n";
        for rel in [
            "crates/experiments/src/main.rs",
            "crates/bench/src/bin/directory_scale.rs",
            "crates/xtask/src/model.rs",
        ] {
            let f = find(rel, src);
            assert!(f.is_empty(), "{rel}: {f:?}");
        }
    }

    #[test]
    fn widening_len_cast_not_flagged() {
        let f = find(
            "crates/core/src/hier.rs",
            "fn f(v: &[u8]) -> u64 { v.len() as u64 }\n",
        );
        assert!(f.is_empty(), "{f:?}");
    }
}
