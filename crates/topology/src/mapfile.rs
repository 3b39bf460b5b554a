//! Topology map files.
//!
//! The paper's simulations were driven by a map "gathered from the
//! mcollect network monitor" — a text dump of mrouters, tunnels,
//! metrics and thresholds.  This module gives the reproduction the same
//! capability: any [`Topology`] can be saved to (and loaded from) a
//! simple line-oriented text format, so users can run every experiment
//! on their own measured maps instead of our synthetic ones.
//!
//! Format (one record per line, `#` comments ignored):
//!
//! ```text
//! node <id> <label>
//! link <a> <b> metric <m> threshold <t> delay_us <d>
//! ```
//!
//! Node ids must be dense and ascending (the loader enforces it so a
//! file and its in-memory form are always index-compatible).

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;

use sdalloc_sim::SimDuration;

use crate::graph::{Node, NodeId, Topology};

/// Errors from [`load_str`]/[`load_file`].
#[derive(Debug)]
pub enum MapfileError {
    /// I/O failure reading the file.
    Io(io::Error),
    /// A line failed to parse; contains (line number, content).
    Malformed(usize, String),
    /// Node ids were not dense and ascending.
    BadNodeOrder(usize),
    /// A link referenced an undeclared node.
    UnknownNode(usize),
}

impl std::fmt::Display for MapfileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MapfileError::Io(e) => write!(f, "i/o error: {e}"),
            MapfileError::Malformed(n, l) => write!(f, "line {n}: malformed record: {l}"),
            MapfileError::BadNodeOrder(n) => {
                write!(f, "line {n}: node ids must be dense and ascending")
            }
            MapfileError::UnknownNode(n) => write!(f, "line {n}: link references unknown node"),
        }
    }
}

impl std::error::Error for MapfileError {}

impl From<io::Error> for MapfileError {
    fn from(e: io::Error) -> Self {
        MapfileError::Io(e)
    }
}

/// Serialise a topology to the map format.
pub fn save_str(topo: &Topology) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# sdalloc topology map: {} nodes, {} links",
        topo.node_count(),
        topo.link_count()
    );
    for v in topo.node_ids() {
        let label = topo.node(v).label.replace(char::is_whitespace, "_");
        let label = if label.is_empty() {
            "-".to_string()
        } else {
            label
        };
        let _ = writeln!(out, "node {} {}", v.0, label);
    }
    for link in topo.links() {
        let _ = writeln!(
            out,
            "link {} {} metric {} threshold {} delay_us {}",
            link.a.0,
            link.b.0,
            link.metric,
            link.threshold,
            link.delay.as_nanos() / 1_000
        );
    }
    out
}

/// Write a topology to a file.
pub fn save_file(topo: &Topology, path: &Path) -> Result<(), MapfileError> {
    fs::write(path, save_str(topo))?;
    Ok(())
}

/// Parse a topology from map text.
#[expect(
    clippy::indexing_slicing,
    reason = "every field index is preceded by an exact fields.len() check in the same match arm; malformed lines return MapfileError instead"
)]
pub fn load_str(text: &str) -> Result<Topology, MapfileError> {
    let mut topo = Topology::new();
    for (lineno, raw) in text.lines().enumerate() {
        let lineno = lineno + 1;
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        match fields.first() {
            Some(&"node") => {
                if fields.len() != 3 {
                    return Err(MapfileError::Malformed(lineno, raw.to_string()));
                }
                let id: u32 = fields[1]
                    .parse()
                    .map_err(|_| MapfileError::Malformed(lineno, raw.to_string()))?;
                if id as usize != topo.node_count() {
                    return Err(MapfileError::BadNodeOrder(lineno));
                }
                let label = if fields[2] == "-" {
                    String::new()
                } else {
                    fields[2].to_string()
                };
                topo.add_node(Node {
                    label,
                    pos: (0.0, 0.0),
                });
            }
            Some(&"link") => {
                if fields.len() != 9
                    || fields[3] != "metric"
                    || fields[5] != "threshold"
                    || fields[7] != "delay_us"
                {
                    return Err(MapfileError::Malformed(lineno, raw.to_string()));
                }
                let parse = |s: &str| -> Result<u64, MapfileError> {
                    s.parse()
                        .map_err(|_| MapfileError::Malformed(lineno, raw.to_string()))
                };
                let a = parse(fields[1])? as u32;
                let b = parse(fields[2])? as u32;
                let metric = parse(fields[4])? as u32;
                let threshold = parse(fields[6])?.min(255) as u8;
                let delay_us = parse(fields[8])?;
                if a as usize >= topo.node_count() || b as usize >= topo.node_count() {
                    return Err(MapfileError::UnknownNode(lineno));
                }
                if a == b {
                    return Err(MapfileError::Malformed(lineno, raw.to_string()));
                }
                topo.add_link(
                    NodeId(a),
                    NodeId(b),
                    metric,
                    threshold,
                    SimDuration::from_micros(delay_us),
                );
            }
            _ => return Err(MapfileError::Malformed(lineno, raw.to_string())),
        }
    }
    Ok(topo)
}

/// Read a topology from a file.
pub fn load_file(path: &Path) -> Result<Topology, MapfileError> {
    load_str(&fs::read_to_string(path)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mbone::{MboneMap, MboneParams};

    #[test]
    fn roundtrip_small_map() {
        let map = MboneMap::generate(&MboneParams {
            seed: 3,
            target_nodes: 150,
        });
        let text = save_str(&map.topo);
        let loaded = load_str(&text).unwrap();
        assert_eq!(loaded.node_count(), map.topo.node_count());
        assert_eq!(loaded.link_count(), map.topo.link_count());
        for (a, b) in map.topo.links().iter().zip(loaded.links()) {
            assert_eq!(a.a, b.a);
            assert_eq!(a.b, b.b);
            assert_eq!(a.metric, b.metric);
            assert_eq!(a.threshold, b.threshold);
            // Delay preserved to microsecond resolution.
            assert!(
                a.delay.as_nanos().abs_diff(b.delay.as_nanos()) < 1_000,
                "delay drift"
            );
        }
    }

    #[test]
    fn file_roundtrip() {
        let map = MboneMap::generate(&MboneParams {
            seed: 4,
            target_nodes: 100,
        });
        let dir = std::env::temp_dir().join("sdalloc_mapfile_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("map.txt");
        save_file(&map.topo, &path).unwrap();
        let loaded = load_file(&path).unwrap();
        assert_eq!(loaded.node_count(), map.topo.node_count());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a map\n\nnode 0 a\nnode 1 b\n# tunnel\nlink 0 1 metric 1 threshold 64 delay_us 40000\n";
        let topo = load_str(text).unwrap();
        assert_eq!(topo.node_count(), 2);
        assert_eq!(topo.link_count(), 1);
        assert_eq!(topo.links()[0].threshold, 64);
        assert_eq!(topo.links()[0].delay, SimDuration::from_millis(40));
    }

    #[test]
    fn malformed_lines_rejected() {
        assert!(matches!(
            load_str("bogus"),
            Err(MapfileError::Malformed(1, _))
        ));
        assert!(matches!(
            load_str("node 0"),
            Err(MapfileError::Malformed(1, _))
        ));
        assert!(matches!(
            load_str("node 0 a\nnode 1 b\nlink 0 1 metric x threshold 1 delay_us 1"),
            Err(MapfileError::Malformed(3, _))
        ));
    }

    #[test]
    fn node_order_enforced() {
        assert!(matches!(
            load_str("node 1 a"),
            Err(MapfileError::BadNodeOrder(1))
        ));
        assert!(matches!(
            load_str("node 0 a\nnode 0 b"),
            Err(MapfileError::BadNodeOrder(2))
        ));
    }

    #[test]
    fn unknown_node_in_link_rejected() {
        assert!(matches!(
            load_str("node 0 a\nlink 0 5 metric 1 threshold 1 delay_us 1"),
            Err(MapfileError::UnknownNode(2))
        ));
    }

    #[test]
    fn self_loop_rejected() {
        assert!(matches!(
            load_str("node 0 a\nlink 0 0 metric 1 threshold 1 delay_us 1"),
            Err(MapfileError::Malformed(2, _))
        ));
    }

    #[test]
    fn whitespace_in_labels_flattened() {
        let mut topo = Topology::new();
        topo.add_node(Node {
            label: "has space".into(),
            pos: (0.0, 0.0),
        });
        let text = save_str(&topo);
        let loaded = load_str(&text).unwrap();
        assert_eq!(loaded.node(NodeId(0)).label, "has_space");
    }
}
