//! Spans recorded by the traced run, around the benchmark's own calls into
//! each layer.
//!
//! A span has a name, a start, an end and a parent; all spans of one
//! request share its request id and form one tree. A span's *self time*
//! is its duration minus the part of its interval that its children cover.
//! Per-name self times are kept as raw samples; the first
//! [`KEEP_SPANS`] spans are also kept verbatim and written out as JSON
//! lines when the run ends.

use std::collections::BTreeMap;
use std::io::Write;

use crate::stats::{percentile, push_ns};

/// Spans kept verbatim for the span file.
pub const KEEP_SPANS: usize = 20_000;

/// One timed interval, in nanoseconds on the benchmark's clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub req: u64,
    /// Index of the parent within the same tree.
    pub parent: Option<usize>,
    pub start: u64,
    pub end: u64,
}

/// Self time of each span of one tree: its duration minus the union of its
/// children's intervals, clipped to its own.
pub fn self_times(tree: &[Span]) -> Vec<u64> {
    let mut covered_by: Vec<(u64, u64)> = Vec::new();
    tree.iter()
        .enumerate()
        .map(|(i, s)| {
            covered_by.clear();
            covered_by.extend(
                tree.iter()
                    .filter(|c| c.parent == Some(i))
                    .map(|c| (c.start.max(s.start), c.end.min(s.end)))
                    .filter(|(a, b)| a < b),
            );
            covered_by.sort_unstable();
            let mut covered = 0;
            let mut run: Option<(u64, u64)> = None;
            for &(a, b) in &covered_by {
                run = match run {
                    Some((ra, rb)) if a <= rb => Some((ra, rb.max(b))),
                    Some((ra, rb)) => {
                        covered += rb - ra;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ra, rb)) = run {
                covered += rb - ra;
            }
            s.end.saturating_sub(s.start) - covered
        })
        .collect()
}

/// Builds one span tree at a time and folds finished trees into per-name
/// self-time samples.
#[derive(Default)]
pub struct Tracer {
    tree: Vec<Span>,
    self_ns: BTreeMap<&'static str, Vec<u32>>,
    kept: Vec<Span>,
}

impl Tracer {
    /// Adds a span to the current tree and returns its index. A span that
    /// would end before it starts (two threads' stamps crossing) is clamped
    /// to zero length.
    pub fn span(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<usize>,
        start: u64,
        end: u64,
    ) -> usize {
        self.tree.push(Span {
            name,
            req,
            parent,
            start,
            end: end.max(start),
        });
        self.tree.len() - 1
    }

    /// Moves the end of span `i` of the current tree.
    pub fn set_end(&mut self, i: usize, end: u64) {
        let s = &mut self.tree[i];
        s.end = end.max(s.start);
    }

    /// Closes the current tree: records each span's self time and keeps the
    /// spans for the span file while there is room.
    pub fn finish(&mut self) {
        for (s, t) in self.tree.iter().zip(self_times(&self.tree)) {
            push_ns(self.self_ns.entry(s.name).or_default(), t);
        }
        let room = KEEP_SPANS.saturating_sub(self.kept.len());
        if room >= self.tree.len() {
            // Parents are rebased onto the kept log's indices.
            let base = self.kept.len();
            self.kept.extend(self.tree.iter().map(|s| Span {
                parent: s.parent.map(|p| p + base),
                ..*s
            }));
        }
        self.tree.clear();
    }

    /// Self-time percentile of the spans named `name`, in nanoseconds.
    pub fn self_ns(&mut self, name: &str, q: f64) -> Option<u32> {
        percentile(self.self_ns.get_mut(name)?, q)
    }

    /// Writes the kept spans as JSON lines.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.kept {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"req\":{},\"name\":\"{}\",\"parent\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.req, s.name, parent, s.start, s.end
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            req: 1,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_on_hand_built_tree() {
        // request [0,100]
        //   resolve [0,10]
        //   rpc [10,90]
        //     send [10,20], queue [20,50], behavior [40,60] (overlaps queue),
        //     reply [60,95] (runs past its parent, clipped at 90)
        //   probe [92,97]
        let tree = [
            sp("request", None, 0, 100),
            sp("resolve", Some(0), 0, 10),
            sp("rpc", Some(0), 10, 90),
            sp("send", Some(2), 10, 20),
            sp("queue", Some(2), 20, 50),
            sp("behavior", Some(2), 40, 60),
            sp("reply", Some(2), 60, 95),
            sp("probe", Some(0), 92, 97),
        ];
        let st = self_times(&tree);
        // request: 100 - (10 + 80 + 5) = 5
        assert_eq!(st[0], 5);
        // rpc: children cover [10,90] entirely once overlaps merge.
        assert_eq!(st[2], 0);
        // Leaves keep their whole duration.
        assert_eq!(&st[3..], &[10, 30, 20, 35, 5]);
        assert_eq!(st[1], 10);
    }

    #[test]
    fn self_time_with_gaps_and_nested_overlap() {
        let tree = [
            sp("root", None, 100, 200),
            sp("a", Some(0), 110, 130),
            sp("b", Some(0), 120, 125), // inside a
            sp("c", Some(0), 150, 160),
            sp("d", Some(3), 150, 155), // grandchild: not subtracted from root
        ];
        let st = self_times(&tree);
        assert_eq!(st[0], 100 - 20 - 10);
        assert_eq!(st[3], 5);
    }

    #[test]
    fn tracer_folds_trees_and_clamps() {
        let mut t = Tracer::default();
        let root = t.span("request", 7, None, 0, 0);
        t.span("send", 7, Some(root), 0, 40);
        t.span("queue", 7, Some(root), 50, 45); // crossed stamps
        t.set_end(root, 100);
        t.finish();
        assert_eq!(t.self_ns("request", 0.5), Some(60));
        assert_eq!(t.self_ns("queue", 0.5), Some(0));
        assert_eq!(t.self_ns("missing", 0.5), None);
        let mut out = Vec::new();
        t.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.starts_with("{\"req\":7,\"name\":\"request\",\"parent\":null"));
    }
}
