//! In-memory spans for the traced run.
//!
//! The benchmark records a span around each of its own calls into a
//! layer's public function: name (`<layer>.<function>`), start, end,
//! the parent span and the job or point it belongs to. Spans stay in
//! memory and are written out with the report when the run ends.
//! An untraced run never creates a [`Tracer`].

use std::sync::Mutex;
use std::time::Instant;

/// One recorded span; times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    /// Job or point the span belongs to (`""` when neither).
    pub job: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    /// The layer prefix of the name (`pom-sweep` in `pom-sweep.run`).
    pub fn layer(&self) -> &str {
        self.name.split('.').next().unwrap_or("")
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn us(&self, t: Instant) -> f64 {
        t.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Record a span that ran from `start` to `end`; returns its id.
    pub fn record(
        &self,
        name: &str,
        parent: Option<usize>,
        job: &str,
        start: Instant,
        end: Instant,
    ) -> usize {
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        let id = spans.len();
        spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            job: job.to_string(),
            start_us: self.us(start),
            end_us: self.us(end),
        });
        id
    }

    /// Reserve a span id before its children run; [`Tracer::close`]
    /// sets its end time.
    pub fn open(&self, name: &str, parent: Option<usize>, job: &str) -> usize {
        let now = Instant::now();
        self.record(name, parent, job, now, now)
    }

    pub fn close(&self, id: usize) {
        let end = self.us(Instant::now());
        let mut spans = self.spans.lock().expect("span list poisoned by a panic");
        spans[id].end_us = end;
    }

    /// Time `f` as a span named `name`.
    pub fn time<T>(
        &self,
        name: &str,
        parent: Option<usize>,
        job: &str,
        f: impl FnOnce() -> T,
    ) -> (T, usize) {
        let start = Instant::now();
        let out = f();
        let id = self.record(name, parent, job, start, Instant::now());
        (out, id)
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list poisoned by a panic")
            .clone()
    }
}

/// Self time per layer in seconds: each span's duration minus the part
/// of it covered by its direct children, summed by layer prefix.
/// Children of one span do not overlap in this benchmark (they run on
/// the span's own thread, or are summed per thread), so subtracting
/// their durations is exact.
pub fn self_time_by_layer(spans: &[Span]) -> Vec<(String, f64)> {
    let mut child_us = vec![0.0; spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            child_us[p] += s.dur_us();
        }
    }
    let mut by_layer: std::collections::BTreeMap<String, f64> = Default::default();
    for s in spans {
        let own = (s.dur_us() - child_us[s.id]).max(0.0);
        *by_layer.entry(s.layer().to_string()).or_default() += own / 1e6;
    }
    by_layer.into_iter().collect()
}

/// All spans as a JSON array.
pub fn spans_json(spans: &[Span]) -> String {
    let mut out = String::from("[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        out.push_str(&format!(
            "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"job\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1}}}",
            s.id, s.name, s.job, s.start_us, s.end_us
        ));
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, name: &str, start: f64, end: f64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            job: String::new(),
            start_us: start,
            end_us: end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children() {
        let spans = vec![
            span(0, None, "bench.pass", 0.0, 10e6),
            span(1, Some(0), "pom-sweep.run", 1e6, 7e6),
            span(2, Some(1), "pom-core.eval", 2e6, 3e6),
        ];
        let layers = self_time_by_layer(&spans);
        assert_eq!(
            layers,
            vec![
                ("bench".to_string(), 4.0),
                ("pom-core".to_string(), 1.0),
                ("pom-sweep".to_string(), 5.0),
            ]
        );
    }
}
