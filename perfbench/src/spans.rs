//! In-memory spans for the traced run.
//!
//! A span is a name, a start, an end and a parent: the `(client, seq)`
//! of the request that caused it. Spans are kept in memory and written
//! out once, at the end of the run. A span's self time is its duration
//! minus the time covered by the spans nested directly inside it with
//! the same parent.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::time::Instant;

/// The client id spans use when no request caused them (ticks, probes);
/// generated clients start at 1.
pub const NO_REQUEST: u32 = 0;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer entry point, e.g. `koblitz.curve.subgroup_check`.
    pub name: &'static str,
    /// Nanoseconds since the log was created.
    pub start_ns: u64,
    /// Nanoseconds since the log was created.
    pub end_ns: u64,
    /// `(client, seq)` of the originating request.
    pub parent: (u32, u64),
}

/// Per-name aggregate of self times.
#[derive(Debug, Clone, Default)]
pub struct SpanStats {
    /// Spans recorded under the name.
    pub calls: u64,
    /// Sum of self times, nanoseconds.
    pub total_ns: u64,
    /// Median self time, nanoseconds.
    pub median_ns: f64,
}

impl SpanStats {
    /// Mean self time, nanoseconds (0 without calls).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.total_ns as f64 / self.calls as f64
        }
    }
}

/// The run's span buffer.
pub struct SpanLog {
    t0: Instant,
    spans: Vec<Span>,
    calib_ns: Vec<u64>,
}

impl Default for SpanLog {
    fn default() -> Self {
        SpanLog::new()
    }
}

impl SpanLog {
    /// An empty log whose clock starts now.
    pub fn new() -> SpanLog {
        SpanLog {
            t0: Instant::now(),
            spans: Vec::new(),
            calib_ns: Vec::new(),
        }
    }

    /// Nanoseconds on the log's clock.
    pub fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Records a finished span.
    pub fn push(&mut self, name: &'static str, start_ns: u64, end_ns: u64, parent: (u32, u64)) {
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
        });
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, parent: (u32, u64), f: impl FnOnce() -> T) -> T {
        let start = self.now();
        let out = std::hint::black_box(f());
        let end = self.now();
        self.push(name, start, end, parent);
        out
    }

    /// Times a calibration loop between spans (see [`crate::calib`]).
    pub fn calibrate(&mut self) {
        self.calib_ns.push(crate::calib::sample());
    }

    /// The factor turning this log's host times into reference-speed
    /// times: from the median calibration taken between its spans.
    pub fn scale(&self) -> f64 {
        if self.calib_ns.is_empty() {
            return 1.0;
        }
        let v: Vec<f64> = self.calib_ns.iter().map(|&c| c as f64).collect();
        crate::calib::REFERENCE_NS / crate::report::median(&v)
    }

    /// Self time of every span, in recording order.
    pub fn self_times(&self) -> Vec<u64> {
        let mut order: Vec<usize> = (0..self.spans.len()).collect();
        order.sort_by_key(|&i| {
            let s = &self.spans[i];
            (s.parent, s.start_ns, std::cmp::Reverse(s.end_ns))
        });
        let mut child_ns = vec![0u64; self.spans.len()];
        let mut stack: Vec<usize> = Vec::new();
        for &i in &order {
            let s = self.spans[i];
            while let Some(&top) = stack.last() {
                let t = self.spans[top];
                if t.parent == s.parent && t.start_ns <= s.start_ns && s.end_ns <= t.end_ns {
                    break;
                }
                stack.pop();
            }
            if let Some(&top) = stack.last() {
                child_ns[top] += s.end_ns - s.start_ns;
            }
            stack.push(i);
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self-time aggregates per span name.
    pub fn summary(&self) -> BTreeMap<&'static str, SpanStats> {
        let mut by_name: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
        for (s, t) in self.spans.iter().zip(self.self_times()) {
            by_name.entry(s.name).or_default().push(t);
        }
        by_name
            .into_iter()
            .map(|(name, mut v)| {
                v.sort_unstable();
                let mid = v.len() / 2;
                let median_ns = if v.len() % 2 == 1 {
                    v[mid] as f64
                } else {
                    (v[mid - 1] + v[mid]) as f64 / 2.0
                };
                let stats = SpanStats {
                    calls: v.len() as u64,
                    total_ns: v.iter().sum(),
                    median_ns,
                };
                (name, stats)
            })
            .collect()
    }

    /// Writes the spans as JSON lines with their self times.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in self.spans.iter().zip(self.self_times()) {
            writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{},\"client\":{},\"seq\":{}}}",
                s.name, s.start_ns, s.end_ns, self_ns, s.parent.0, s.parent.1
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut log = SpanLog::new();
        log.push("request", 0, 100, (1, 1));
        log.push("child", 10, 40, (1, 1));
        log.push("grandchild", 15, 25, (1, 1));
        log.push("child", 50, 60, (1, 1));
        // Same interval, other request: not a child.
        log.push("other", 20, 30, (2, 1));
        assert_eq!(log.self_times(), vec![60, 20, 10, 10, 10]);
        let sum = log.summary();
        assert_eq!(sum["child"].calls, 2);
        assert_eq!(sum["child"].total_ns, 30);
    }
}
