//! Sample statistics, the metric list a run reports, and the output
//! lines: a provenance header, one line per metric, and the final result
//! object.

use std::fmt::Write;

/// Nearest-rank percentile (`q` in `[0, 1]`) of unsorted samples; 0 when
/// there are none.
pub(crate) fn percentile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = (q * s.len() as f64).ceil() as usize;
    s[rank.clamp(1, s.len()) - 1]
}

/// Median (mean of the middle two for an even count); 0 when empty.
pub(crate) fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// `a / b`, or 0 when `b` is 0.
pub(crate) fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a percentile or median.
    pub samples: Option<usize>,
}

/// Metrics in insertion order; setting a name again replaces it.
#[derive(Debug, Clone, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.put(Metric { name: name.into(), value, unit, samples: None });
    }

    pub fn set_n(&mut self, name: impl Into<String>, value: f64, unit: &'static str, n: usize) {
        self.put(Metric { name: name.into(), value, unit, samples: Some(n) });
    }

    fn put(&mut self, m: Metric) {
        match self.0.iter_mut().find(|x| x.name == m.name) {
            Some(slot) => *slot = m,
            None => self.0.push(m),
        }
    }

    fn get(&self, name: &str) -> Option<&Metric> {
        self.0.iter().find(|m| m.name == name)
    }

    pub fn value(&self, name: &str) -> f64 {
        self.get(name).map_or(0.0, |m| m.value)
    }

    /// One `# metric` line each: name, value, unit and sample count.
    pub fn lines(&self, tag: &str) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let n = m.samples.map_or(String::new(), |n| format!(" n={n}"));
            let _ = writeln!(out, "# {tag} {} = {} {}{n}", m.name, num(m.value), m.unit);
        }
        out
    }

    /// The `metrics` object of the result line.
    pub fn json(&self) -> String {
        let body: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                format!(r#""{}": {{"value": {}, "unit": "{}"}}"#, m.name, num(m.value), m.unit)
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

/// A JSON number with all its digits (non-finite values become 0).
pub(crate) fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x:?}")
    } else {
        "0.0".into()
    }
}

/// A JSON string literal.
pub(crate) fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The final line: exactly `correct`, `attempted`, `failed`, `metrics`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    format!(
        r#"{{"correct": {correct}, "attempted": {attempted}, "failed": {failed}, "metrics": {}}}"#,
        metrics.json()
    )
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 where
/// `/proc` is unavailable.
pub(crate) fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Output of a command, trimmed, or "unknown".
fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Where and on what a result was measured.
pub fn provenance(fields: &[(&str, String)]) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|c| {
            c.lines().find_map(|l| {
                l.strip_prefix("model name")
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut all: Vec<(&str, String)> = vec![
        ("nproc", nproc.to_string()),
        ("RS_NUM_THREADS", string(&std::env::var("RS_NUM_THREADS").unwrap_or_default())),
        ("pool_threads", rs_par::num_threads().to_string()),
        ("git_rev", string(&command_output("git", &["rev-parse", "HEAD"]))),
        ("rustc", string(&command_output("rustc", &["-V"]))),
        ("cpu", string(&cpu)),
    ];
    all.extend(fields.iter().cloned());
    let body: Vec<String> = all.iter().map(|(k, v)| format!("{}: {v}", string(k))).collect();
    format!("{{{}}}", body.join(", "))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.95), 95.0);
        assert_eq!(median(&s), 50.5);
        assert_eq!(percentile(&[], 0.5), 0.0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            r#"{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 1.25, "unit": "s"}}}"#
        );
    }
}
