//! Text serialization of graphs and datasets.
//!
//! The format is the line-oriented one used by the GraphGrepSX / Grapes
//! distributions (one record per graph):
//!
//! ```text
//! # <name>
//! <node-count>
//! <label of node 0>
//! ...
//! <label of node n-1>
//! <edge-count>
//! <u> <v>
//! ...
//! ```
//!
//! Blank lines are ignored, and `\r\n` line ends are accepted. Writes are
//! buffered (the perf book is explicit that unbuffered small writes dominate
//! I/O time); reads take the whole input into one string and parse borrowed
//! lines out of it, with no per-line allocation.

use crate::{GraphBuilder, GraphDataset, GraphError, LabeledGraph};
use std::io::{BufWriter, Read, Write};
use std::path::Path;

/// Writes a single graph record to `w` under the given record name.
pub fn write_graph(w: &mut impl Write, name: &str, g: &LabeledGraph) -> std::io::Result<()> {
    writeln!(w, "# {name}")?;
    writeln!(w, "{}", g.node_count())?;
    for v in g.nodes() {
        writeln!(w, "{}", g.label(v))?;
    }
    writeln!(w, "{}", g.edge_count())?;
    for (u, v) in g.edges() {
        writeln!(w, "{u} {v}")?;
    }
    Ok(())
}

/// Writes a whole dataset; records are named by graph position.
pub fn write_dataset(w: impl Write, d: &GraphDataset) -> std::io::Result<()> {
    let mut w = BufWriter::new(w);
    for (id, g) in d.iter() {
        write_graph(&mut w, &format!("{}", id.0), g)?;
    }
    w.flush()
}

/// Convenience wrapper: writes a dataset to a file path.
pub fn save_dataset(path: impl AsRef<Path>, d: &GraphDataset) -> std::io::Result<()> {
    write_dataset(std::fs::File::create(path)?, d)
}

/// Reads all graph records from `r`.
pub fn read_dataset(mut r: impl Read) -> Result<GraphDataset, GraphError> {
    let mut text = String::new();
    r.read_to_string(&mut text)?;
    let mut graphs = Vec::new();
    let mut lines = NumberedLines {
        lines: text.lines(),
        lineno: 0,
    };
    while let Some((lineno, first)) = lines.next_nonblank() {
        if !first.starts_with('#') {
            return Err(GraphError::parse(
                lineno,
                format!("expected '# <name>' record header, got {first:?}"),
            ));
        }
        graphs.push(read_record_body(&mut lines)?);
    }
    Ok(GraphDataset::new(graphs))
}

/// Convenience wrapper: reads a dataset from a file path.
pub fn load_dataset(path: impl AsRef<Path>) -> Result<GraphDataset, GraphError> {
    read_dataset(std::fs::File::open(path)?)
}

fn read_record_body(lines: &mut NumberedLines<'_>) -> Result<LabeledGraph, GraphError> {
    let (lineno, text) = lines.expect_nonblank("node count")?;
    let n: usize = parse_num(lineno, text, "node count")?;
    let mut builder = GraphBuilder::new();
    for _ in 0..n {
        let (lineno, text) = lines.expect_nonblank("node label")?;
        let label: u32 = parse_num(lineno, text, "node label")?;
        builder.add_node(label);
    }
    let (lineno, text) = lines.expect_nonblank("edge count")?;
    let m: usize = parse_num(lineno, text, "edge count")?;
    for _ in 0..m {
        let (lineno, text) = lines.expect_nonblank("edge")?;
        let mut parts = text.split_whitespace();
        let u: u32 = parse_num(lineno, parts.next().unwrap_or_default(), "edge endpoint u")?;
        let v: u32 = parse_num(lineno, parts.next().unwrap_or_default(), "edge endpoint v")?;
        if parts.next().is_some() {
            return Err(GraphError::parse(lineno, "trailing tokens after edge"));
        }
        if u as usize >= n || v as usize >= n {
            return Err(GraphError::parse(
                lineno,
                format!("edge ({u}, {v}) out of range for {n} nodes"),
            ));
        }
        builder.add_edge(u, v);
    }
    Ok(builder.build())
}

fn parse_num<T: std::str::FromStr>(line: usize, text: &str, what: &str) -> Result<T, GraphError> {
    text.trim()
        .parse::<T>()
        .map_err(|_| GraphError::parse(line, format!("invalid {what}: {text:?}")))
}

/// Trimmed, numbered, non-blank lines borrowed from the input text.
struct NumberedLines<'a> {
    lines: std::str::Lines<'a>,
    lineno: usize,
}

impl<'a> NumberedLines<'a> {
    fn next_nonblank(&mut self) -> Option<(usize, &'a str)> {
        for line in self.lines.by_ref() {
            self.lineno += 1;
            let trimmed = line.trim();
            if !trimmed.is_empty() {
                return Some((self.lineno, trimmed));
            }
        }
        None
    }

    fn expect_nonblank(&mut self, what: &str) -> Result<(usize, &'a str), GraphError> {
        self.next_nonblank().ok_or_else(|| {
            GraphError::parse(
                self.lineno + 1,
                format!("unexpected end of input: expected {what}"),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GraphDataset;

    fn sample() -> GraphDataset {
        GraphDataset::new(vec![
            LabeledGraph::from_parts(vec![3, 1, 4], &[(0, 1), (1, 2)]),
            LabeledGraph::from_parts(vec![9], &[]),
        ])
    }

    #[test]
    fn roundtrip() {
        let d = sample();
        let mut bytes = Vec::new();
        write_dataset(&mut bytes, &d).unwrap();
        let back = read_dataset(&bytes[..]).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.graph(crate::GraphId(0)).labels(), &[3, 1, 4]);
        assert_eq!(back.graph(crate::GraphId(0)).edge_count(), 2);
        assert_eq!(back.graph(crate::GraphId(1)).node_count(), 1);
    }

    #[test]
    fn roundtrip_via_files() {
        let dir = std::env::temp_dir().join(format!("gc-io-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ds.txt");
        save_dataset(&path, &sample()).unwrap();
        let back = load_dataset(&path).unwrap();
        assert_eq!(back.len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn blank_lines_ignored() {
        let text = "\n# 0\n\n2\n5\n6\n\n1\n0 1\n\n";
        let d = read_dataset(text.as_bytes()).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.graph(crate::GraphId(0)).edge_count(), 1);
    }

    #[test]
    fn missing_header_is_error() {
        let err = read_dataset("2\n1\n1\n0\n".as_bytes()).unwrap_err();
        assert!(format!("{err}").contains("record header"));
    }

    #[test]
    fn out_of_range_edge_is_error() {
        let err = read_dataset("# g\n2\n1\n1\n1\n0 5\n".as_bytes()).unwrap_err();
        assert!(format!("{err}").contains("out of range"));
    }

    #[test]
    fn truncated_record_is_error() {
        let err = read_dataset("# g\n3\n1\n1\n".as_bytes()).unwrap_err();
        assert!(format!("{err}").contains("unexpected end of input"));
    }

    #[test]
    fn bad_number_reports_line() {
        let err = read_dataset("# g\nxyz\n".as_bytes()).unwrap_err();
        assert!(format!("{err}").contains("line 2"));
    }

    #[test]
    fn crlf_line_ends_accepted() {
        let text = "# 0\r\n3\r\n3\r\n1\r\n4\r\n\r\n2\r\n0 1\r\n1 2\r\n# 1\r\n1\r\n9\r\n0\r\n";
        let d = read_dataset(text.as_bytes()).unwrap();
        assert_eq!(d.len(), 2);
        assert_eq!(d.graph(crate::GraphId(0)).labels(), &[3, 1, 4]);
        assert_eq!(d.graph(crate::GraphId(0)).edge_count(), 2);
        assert_eq!(d.graph(crate::GraphId(1)).labels(), &[9]);
        // Line numbers count CRLF lines like LF lines.
        let err = read_dataset("# g\r\n\r\n2\r\nx\r\n".as_bytes()).unwrap_err();
        assert!(format!("{err}").contains("line 4"), "{err}");
    }

    #[test]
    fn no_final_newline() {
        let d = read_dataset("# 0\n2\n5\n6\n1\n0 1".as_bytes()).unwrap();
        assert_eq!(d.len(), 1);
        assert_eq!(d.graph(crate::GraphId(0)).edge_count(), 1);
        // A record cut short at the last line reports the line after it.
        let err = read_dataset("# g\n3\n1".as_bytes()).unwrap_err();
        let msg = format!("{err}");
        assert!(
            msg.contains("line 4") && msg.contains("node label"),
            "{msg}"
        );
    }

    #[test]
    fn trailing_tokens_rejected() {
        let err = read_dataset("# g\n2\n1\n1\n1\n0 1 7\n".as_bytes()).unwrap_err();
        assert!(format!("{err}").contains("trailing"));
    }
}
