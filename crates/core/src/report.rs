//! Rendering: fixed-width tables and gnuplot-style series dumps, the
//! paper-vs-measured comparison rows used by `EXPERIMENTS.md` and the
//! examples, and the line-oriented JSON sweep reports emitted by the sweep
//! runner.

use std::fmt;
use std::fmt::Write as _;
use tengig_sim::stats::Series;
use tengig_sim::Nanos;

/// A simple fixed-width text table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with a title and column headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row (cells are stringified by the caller).
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let mut line = String::new();
        for (h, w) in self.headers.iter().zip(&widths) {
            let _ = write!(line, "{h:<w$}  ");
        }
        let _ = writeln!(out, "{}", line.trim_end());
        let _ = writeln!(out, "{}", "-".repeat(line.trim_end().len()));
        for row in &self.rows {
            let mut line = String::new();
            for (c, w) in row.iter().zip(&widths) {
                let _ = write!(line, "{c:<w$}  ");
            }
            let _ = writeln!(out, "{}", line.trim_end());
        }
        out
    }
}

/// One paper-vs-measured comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is being compared.
    pub name: String,
    /// The paper's value.
    pub paper: f64,
    /// The laboratory's measured value.
    pub measured: f64,
    /// Unit label.
    pub unit: &'static str,
}

impl Comparison {
    /// Relative error of the measurement against the paper's value.
    pub fn rel_error(&self) -> f64 {
        if self.paper == 0.0 {
            return 0.0;
        }
        (self.measured - self.paper) / self.paper
    }

    /// Whether the measurement falls within `tol` relative error.
    pub fn within(&self, tol: f64) -> bool {
        self.rel_error().abs() <= tol
    }
}

/// Render a set of comparisons as a table.
pub fn comparison_table(title: &str, rows: &[Comparison]) -> String {
    let mut t = Table::new(title, &["metric", "paper", "measured", "error"]);
    for c in rows {
        t.row(vec![
            c.name.clone(),
            format!("{:.3} {}", c.paper, c.unit),
            format!("{:.3} {}", c.measured, c.unit),
            format!("{:+.1}%", c.rel_error() * 100.0),
        ]);
    }
    t.render()
}

/// Render a figure as gnuplot-style columns, one block per series.
pub fn figure(title: &str, series: &[Series]) -> String {
    let mut out = format!("## {title}\n");
    for s in series {
        let _ = write!(out, "{s}");
        out.push('\n');
    }
    out
}

/// Human-friendly duration for Table 1 ("1 hr 42 min" style).
pub fn humanize(d: Nanos) -> String {
    let s = d.as_secs_f64();
    if s < 1.0 {
        format!("{:.1} ms", s * 1e3)
    } else if s < 60.0 {
        format!("{s:.1} s")
    } else if s < 3600.0 {
        format!("{:.0} min", s / 60.0)
    } else {
        let h = (s / 3600.0).floor();
        let m = ((s - h * 3600.0) / 60.0).round();
        format!("{h:.0} hr {m:.0} min")
    }
}

/// A JSON value for the hand-rolled sweep-report writer. Object keys keep
/// their insertion order, so serialization is byte-deterministic.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer (counts, seeds, sizes).
    U64(u64),
    /// A floating-point number; non-finite values serialize as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object with ordered keys.
    Object(Vec<(String, Json)>),
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => write!(f, "null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::F64(x) => {
                if x.is_finite() {
                    // Rust's shortest-roundtrip Display is deterministic,
                    // which is what the byte-identical-report contract
                    // needs. Integral floats print without a fraction
                    // (`2` for 2.0) — still a valid JSON number.
                    write!(f, "{x}")
                } else {
                    write!(f, "null")
                }
            }
            Json::Str(s) => {
                f.write_str("\"")?;
                for c in s.chars() {
                    match c {
                        '"' => f.write_str("\\\"")?,
                        '\\' => f.write_str("\\\\")?,
                        '\n' => f.write_str("\\n")?,
                        '\r' => f.write_str("\\r")?,
                        '\t' => f.write_str("\\t")?,
                        c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
                        c => f.write_char(c)?,
                    }
                }
                f.write_str("\"")
            }
            Json::Array(items) => {
                f.write_str("[")?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_str("]")
            }
            Json::Object(fields) => {
                f.write_str("{")?;
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_str(",")?;
                    }
                    write!(f, "{}:{v}", Json::Str(k.clone()))?;
                }
                f.write_str("}")
            }
        }
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::U64(n)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Json {
        Json::F64(x)
    }
}

impl From<&str> for Json {
    fn from(s: &str) -> Json {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Json {
        Json::Str(s)
    }
}

/// One scenario's measurements in a [`SweepReport`].
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// Scenario index in the sweep grid.
    pub index: usize,
    /// Scenario label.
    pub label: String,
    /// The scenario's RNG seed.
    pub seed: u64,
    /// Named measurements, in emission order.
    pub values: Vec<(String, Json)>,
}

/// A machine-readable sweep result: serialized as line-oriented JSON
/// (one header line, then one line per scenario, in scenario order).
///
/// Serialization is byte-deterministic for a given report, which is the
/// contract the sweep runner's determinism test pins down: the same sweep
/// run on 1 thread and on N threads must yield identical bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Sweep name (e.g. `fig3_stock_throughput`).
    pub name: String,
    /// The master seed the scenario seeds were derived from.
    pub master_seed: u64,
    /// Per-scenario rows, in scenario order.
    pub rows: Vec<SweepRow>,
}

impl SweepReport {
    /// New empty report.
    pub fn new(name: impl Into<String>, master_seed: u64) -> Self {
        SweepReport {
            name: name.into(),
            master_seed,
            rows: Vec::new(),
        }
    }

    /// Append one scenario's measurements.
    pub fn push_row(
        &mut self,
        index: usize,
        label: impl Into<String>,
        seed: u64,
        values: Vec<(String, Json)>,
    ) {
        self.rows.push(SweepRow {
            index,
            label: label.into(),
            seed,
            values,
        });
    }

    /// Serialize as JSON lines: a header object, then one object per row.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        let header = Json::Object(vec![
            ("sweep".to_string(), Json::from(self.name.as_str())),
            ("master_seed".to_string(), Json::U64(self.master_seed)),
            ("rows".to_string(), Json::U64(self.rows.len() as u64)),
        ]);
        let _ = writeln!(out, "{header}");
        for row in &self.rows {
            let mut fields = vec![
                ("index".to_string(), Json::U64(row.index as u64)),
                ("label".to_string(), Json::from(row.label.as_str())),
                ("seed".to_string(), Json::U64(row.seed)),
            ];
            fields.extend(row.values.iter().cloned());
            let _ = writeln!(out, "{}", Json::Object(fields));
        }
        out
    }
}

/// The opt-in metrics side-channel of a sweep: one timelines JSONL
/// document per scenario, collected alongside — and strictly outside — the
/// primary [`SweepReport`], so enabling metrics can never change a byte of
/// the report itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSidecar {
    /// The sweep this sidecar belongs to.
    pub sweep: String,
    /// Per-scenario `(index, label, timelines JSONL)`, in scenario order.
    pub runs: Vec<(usize, String, String)>,
}

impl MetricsSidecar {
    /// New empty sidecar for a sweep.
    pub fn new(sweep: impl Into<String>) -> Self {
        MetricsSidecar {
            sweep: sweep.into(),
            runs: Vec::new(),
        }
    }

    /// Append one scenario's timelines document.
    pub fn push(&mut self, index: usize, label: String, timelines_jsonl: String) {
        self.runs.push((index, label, timelines_jsonl));
    }

    /// Number of runs recorded.
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Whether the sidecar is empty.
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Concatenate every run's document (each already line-oriented) for
    /// single-file transports; run order is scenario order.
    pub fn concatenated(&self) -> String {
        let mut out = String::new();
        for (_, _, doc) in &self.runs {
            out.push_str(doc);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let mut t = Table::new("demo", &["a", "bbbb"]);
        t.row(vec!["x".into(), "1".into()]);
        t.row(vec!["longer".into(), "22".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        assert!(r.contains("longer"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn comparison_math() {
        let c = Comparison {
            name: "peak".into(),
            paper: 4.11,
            measured: 4.06,
            unit: "Gb/s",
        };
        assert!(c.within(0.05));
        assert!(!c.within(0.001));
        assert!(c.rel_error() < 0.0);
        let table = comparison_table("t", &[c]);
        assert!(table.contains("peak"));
        assert!(table.contains("%"));
    }

    #[test]
    fn humanize_formats() {
        assert_eq!(humanize(Nanos::from_millis(4)), "4.0 ms");
        assert_eq!(humanize(Nanos::from_secs(30)), "30.0 s");
        assert_eq!(humanize(Nanos::from_secs(17 * 60)), "17 min");
        assert_eq!(humanize(Nanos::from_secs(6164)), "1 hr 43 min");
    }

    #[test]
    fn json_serialization_is_exact() {
        let v = Json::Object(vec![
            ("s".to_string(), Json::from("a\"b\\c\nd")),
            ("n".to_string(), Json::U64(42)),
            ("x".to_string(), Json::F64(2.5)),
            ("whole".to_string(), Json::F64(2.0)),
            ("nan".to_string(), Json::F64(f64::NAN)),
            ("flag".to_string(), Json::Bool(true)),
            ("none".to_string(), Json::Null),
            (
                "arr".to_string(),
                Json::Array(vec![Json::U64(1), Json::U64(2)]),
            ),
        ]);
        assert_eq!(
            v.to_string(),
            r#"{"s":"a\"b\\c\nd","n":42,"x":2.5,"whole":2,"nan":null,"flag":true,"none":null,"arr":[1,2]}"#
        );
    }

    #[test]
    fn sweep_report_jsonl_shape() {
        let mut r = SweepReport::new("demo", 7);
        r.push_row(0, "p1", 11, vec![("mbps".to_string(), Json::F64(1234.5))]);
        r.push_row(1, "p2", 12, vec![("mbps".to_string(), Json::F64(2345.0))]);
        let text = r.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0], r#"{"sweep":"demo","master_seed":7,"rows":2}"#);
        assert_eq!(
            lines[1],
            r#"{"index":0,"label":"p1","seed":11,"mbps":1234.5}"#
        );
        assert_eq!(
            lines[2],
            r#"{"index":1,"label":"p2","seed":12,"mbps":2345}"#
        );
    }

    #[test]
    fn figure_contains_all_series() {
        let mut s1 = Series::new("curve-a");
        s1.push(1.0, 2.0);
        let mut s2 = Series::new("curve-b");
        s2.push(1.0, 3.0);
        let f = figure("Fig. 3", &[s1, s2]);
        assert!(f.contains("curve-a") && f.contains("curve-b"));
    }
}
