//! Spans recorded from the benchmark's own code around its calls into the
//! workspace. Kept in memory and written out when the run ends; a
//! disabled tracer records nothing.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One timed call. Times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Shared by every span of one request (setup counts as request 0).
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    on: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn on(&self) -> bool {
        self.on
    }

    /// A fresh span id, for a span whose children are recorded before it
    /// ends.
    pub fn id(&self) -> u64 {
        // Relaxed: ids only need to be unique.
        self.next_id.fetch_add(1, Ordering::Relaxed)
    }

    /// Records a finished span under an id from [`Tracer::id`].
    pub fn record(
        &self,
        id: u64,
        parent: Option<u64>,
        request: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if !self.on {
            return;
        }
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        let span = Span { id, parent, request, name, start_ns: ns(start), end_ns: ns(end) };
        self.spans.lock().expect("a span writer panicked").push(span);
    }

    /// Times `f` as a span and returns its result with the elapsed
    /// seconds (measured whether or not tracing is on).
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<u64>,
        request: u64,
        f: impl FnOnce() -> R,
    ) -> (R, f64) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(self.id(), parent, request, name, start, end);
        (out, (end - start).as_secs_f64())
    }

    pub fn into_spans(self) -> Vec<Span> {
        let mut spans = self.spans.into_inner().expect("a span writer panicked");
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Checks the span tree: every parent exists and shares its child's
/// request id, and every child lies inside its parent's interval.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let by_id: HashMap<u64, &Span> = spans.iter().map(|s| (s.id, s)).collect();
    if by_id.len() != spans.len() {
        return Err("duplicate span ids".into());
    }
    for s in spans {
        if s.end_ns < s.start_ns {
            return Err(format!("span {} ({}) ends before it starts", s.id, s.name));
        }
        let Some(pid) = s.parent else { continue };
        let p = by_id.get(&pid).ok_or(format!("span {} has no parent {pid}", s.id))?;
        if p.request != s.request {
            return Err(format!("span {} ({}) left request {}", s.id, s.name, p.request));
        }
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!("span {} ({}) outside parent {} ({})", s.id, s.name, pid, p.name));
        }
    }
    Ok(())
}

/// Self time of every span in nanoseconds: its duration minus the part
/// of it its children cover.
pub fn self_times(spans: &[Span]) -> Vec<(u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            let mut kids = children.remove(&s.id).unwrap_or_default();
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.id, (s.end_ns - s.start_ns).saturating_sub(covered))
        })
        .collect()
}

/// The layer a span name belongs to (its first dotted component).
fn layer(name: &str) -> &str {
    name.split('.').next().unwrap_or(name)
}

/// Total self time per layer, in milliseconds.
pub(crate) fn self_ms_by_layer(spans: &[Span]) -> BTreeMap<String, f64> {
    let names: HashMap<u64, &str> = spans.iter().map(|s| (s.id, s.name)).collect();
    let mut out = BTreeMap::new();
    for (id, ns) in self_times(spans) {
        *out.entry(layer(names[&id]).to_string()).or_insert(0.0) += ns as f64 / 1e6;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write(spans: &[Span], path: &std::path::Path) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"request":{},"name":"{}","start_ns":{},"end_ns":{}}}"#,
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, request: u64, start: u64, end: u64) -> Span {
        Span { id, parent, request, name: "x.y", start_ns: start, end_ns: end }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, None, 0, 0, 100),
            span(2, Some(1), 0, 10, 40),
            span(3, Some(1), 0, 30, 60),
            span(4, Some(1), 0, 90, 100),
        ];
        validate(&spans).unwrap();
        let t: HashMap<u64, u64> = self_times(&spans).into_iter().collect();
        assert_eq!(t[&1], 100 - 50 - 10);
        assert_eq!(t[&2], 30);
    }

    #[test]
    fn validation_rejects_escaping_children_and_foreign_requests() {
        assert!(validate(&[span(1, None, 0, 0, 10), span(2, Some(1), 0, 5, 11)]).is_err());
        assert!(validate(&[span(1, None, 0, 0, 10), span(2, Some(1), 1, 2, 3)]).is_err());
        assert!(validate(&[span(2, Some(9), 0, 2, 3)]).is_err());
    }
}
