//! Minimal reporting utilities for the `experiments` binary.

use std::time::{Duration, Instant};

/// Times one closure invocation.
pub fn time_it<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// A fixed-width text table that prints like the rows a paper reports.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
    /// Extra machine-readable attachments emitted under `"meta"` in
    /// [`Table::to_json`]. Values are raw JSON fragments, so whole metric
    /// snapshots ([`Snapshot::to_json`](actorspace_obs::Snapshot::to_json))
    /// embed without re-encoding.
    meta: Vec<(String, String)>,
}

impl Table {
    /// Starts a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_owned(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            meta: Vec::new(),
        }
    }

    /// Adds one row (stringified cells).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Attaches a raw JSON fragment under `key` in the `"meta"` object of
    /// [`Table::to_json`]. The caller is responsible for `raw_json` being
    /// valid JSON (a number, string, object, …).
    pub fn meta_json(&mut self, key: &str, raw_json: &str) {
        self.meta.push((key.to_owned(), raw_json.to_owned()));
    }

    /// Renders the table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        println!("\n== {} ==", self.title);
        let header: Vec<String> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
            .collect();
        println!("{}", header.join("  "));
        println!(
            "{}",
            widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("  ")
        );
        for row in &self.rows {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{c:>width$}", width = widths[i]))
                .collect();
            println!("{}", line.join("  "));
        }
    }

    /// Renders the table as a JSON object — `{"title", "headers", "rows"}`
    /// with rows as arrays of strings — for machine-readable report
    /// capture (e.g. trend tracking across CI runs).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for ch in s.chars() {
                match ch {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        let headers: Vec<String> = self
            .headers
            .iter()
            .map(|h| format!("\"{}\"", esc(h)))
            .collect();
        let rows: Vec<String> = self
            .rows
            .iter()
            .map(|r| {
                let cells: Vec<String> = r.iter().map(|c| format!("\"{}\"", esc(c))).collect();
                format!("[{}]", cells.join(","))
            })
            .collect();
        let meta = if self.meta.is_empty() {
            String::new()
        } else {
            let entries: Vec<String> = self
                .meta
                .iter()
                .map(|(k, v)| format!("\"{}\":{}", esc(k), v))
                .collect();
            format!(",\"meta\":{{{}}}", entries.join(","))
        };
        format!(
            "{{\"title\":\"{}\",\"headers\":[{}],\"rows\":[{}]{}}}",
            esc(&self.title),
            headers.join(","),
            rows.join(","),
            meta
        )
    }

    /// Renders the table to a string (for EXPERIMENTS.md capture).
    pub fn to_markdown(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("### {}\n\n", self.title));
        out.push_str(&format!("| {} |\n", self.headers.join(" | ")));
        out.push_str(&format!(
            "|{}|\n",
            self.headers
                .iter()
                .map(|_| "---")
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &self.rows {
            out.push_str(&format!("| {} |\n", row.join(" | ")));
        }
        out
    }
}

/// Formats a duration compactly (µs / ms / s). Below a millisecond it
/// keeps three significant figures — two decimals below 10 µs, one below
/// 1 ms — so a 2.9 µs cell never reads `2µs` and a sub-µs one never `0µs`.
pub fn fmt_dur(d: Duration) -> String {
    let us = d.as_nanos() as f64 / 1_000.0;
    if us < 10.0 {
        format!("{us:.2}µs")
    } else if us < 1_000.0 {
        format!("{us:.1}µs")
    } else if us < 1_000_000.0 {
        format!("{:.2}ms", us / 1_000.0)
    } else {
        format!("{:.2}s", us / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_markdown() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&["1".into(), "2".into()]);
        let md = t.to_markdown();
        assert!(md.contains("### demo"));
        assert!(md.contains("| 1 | 2 |"));
    }

    #[test]
    fn table_renders_json() {
        let mut t = Table::new("fail\"over", &["pool", "time"]);
        t.row(&["1".into(), "42.00ms".into()]);
        t.row(&["8".into(), "43.10ms".into()]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"fail\\\"over\",\"headers\":[\"pool\",\"time\"],\
             \"rows\":[[\"1\",\"42.00ms\"],[\"8\",\"43.10ms\"]]}"
        );
    }

    #[test]
    fn meta_embeds_raw_json() {
        let mut t = Table::new("t", &["a"]);
        t.row(&["1".into()]);
        t.meta_json("overhead_pct", "3.14");
        t.meta_json("snapshot", "{\"at_nanos\":7,\"entries\":[]}");
        assert_eq!(
            t.to_json(),
            "{\"title\":\"t\",\"headers\":[\"a\"],\"rows\":[[\"1\"]],\
             \"meta\":{\"overhead_pct\":3.14,\
             \"snapshot\":{\"at_nanos\":7,\"entries\":[]}}}"
        );
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_dur(Duration::from_micros(5)), "5.00µs");
        assert_eq!(fmt_dur(Duration::from_nanos(590)), "0.59µs");
        assert_eq!(fmt_dur(Duration::from_nanos(999)), "1.00µs");
        // E2's pattern send: 145 ms / 50k sends, no longer truncated to 2µs.
        assert_eq!(fmt_dur(Duration::from_millis(145) / 50_000), "2.90µs");
        assert_eq!(fmt_dur(Duration::from_nanos(145_340)), "145.3µs");
        assert_eq!(fmt_dur(Duration::from_nanos(999_000)), "999.0µs");
        assert_eq!(fmt_dur(Duration::from_micros(2_500)), "2.50ms");
        assert_eq!(fmt_dur(Duration::from_secs(3)), "3.00s");
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn row_arity_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(&["1".into(), "2".into()]);
    }
}
