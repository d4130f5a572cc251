//! In-memory spans recorded around calls into the library's public API.
//!
//! A span has a name, a start, an end, an optional parent and a trace id
//! (the request id for serve traffic, the task or cycle index elsewhere).
//! Spans stay in memory while the workload runs and are written out once
//! at the end, so recording one costs two clock reads and a push.

use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Span {
    pub(crate) name: &'static str,
    pub(crate) trace: u64,
    pub(crate) parent: Option<usize>,
    /// Nanoseconds since the tracer's epoch.
    pub(crate) start_ns: u64,
    pub(crate) end_ns: u64,
}

impl Span {
    pub(crate) fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub(crate) struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub(crate) fn new() -> Self {
        Self { epoch: Instant::now(), spans: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::end`].
    pub(crate) fn begin(&mut self, name: &'static str, trace: u64, parent: Option<usize>) -> usize {
        let now = self.now_ns();
        self.spans.push(Span { name, trace, parent, start_ns: now, end_ns: now });
        self.spans.len() - 1
    }

    pub(crate) fn end(&mut self, id: usize) {
        let now = self.now_ns();
        self.spans[id].end_ns = now;
    }

    /// Run `f` inside a span.
    pub(crate) fn span<T>(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, trace, parent);
        let out = f();
        self.end(id);
        out
    }

    /// Record an already-measured interval (used where the interval is
    /// timed on another thread, like a request's wire round trip).
    pub(crate) fn record(
        &mut self,
        name: &'static str,
        trace: u64,
        parent: Option<usize>,
        start: Instant,
        end: Instant,
    ) -> usize {
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span { name, trace, parent, start_ns: at(start), end_ns: at(end) });
        self.spans.len() - 1
    }

    pub(crate) fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub(crate) fn duration_ms(&self, id: usize) -> f64 {
        self.spans[id].duration_ns() as f64 / 1e6
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its children (the union of their intervals, clipped to the
/// parent's), in nanoseconds.
pub(crate) fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                cur = match cur {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Median self time, in milliseconds, of the spans named `name`.
pub(crate) fn median_self_ms(spans: &[Span], self_ns: &[u64], name: &str) -> f64 {
    let xs: Vec<f64> = spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 / 1e6)
        .collect();
    crate::stats::median(&xs)
}

/// Median duration, in milliseconds, of the spans named `name`.
pub(crate) fn median_ms(spans: &[Span], name: &str) -> f64 {
    let xs: Vec<f64> =
        spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64 / 1e6).collect();
    crate::stats::median(&xs)
}

/// The spans plus their self times as a JSON array.
pub(crate) fn to_json(spans: &[Span]) -> crate::json::Json {
    use crate::json::Json;
    let self_ns = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(self_ns)
            .enumerate()
            .map(|(i, (s, self_ns))| {
                Json::obj(vec![
                    ("id", Json::from(i as f64)),
                    ("name", Json::from(s.name)),
                    ("trace", Json::from(s.trace as f64)),
                    ("parent", s.parent.map_or(Json::Null, |p| Json::from(p as f64))),
                    ("start_ns", Json::from(s.start_ns as f64)),
                    ("end_ns", Json::from(s.end_ns as f64)),
                    ("self_ns", Json::from(self_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span { name, trace: 0, parent, start_ns, end_ns }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("pass", None, 0, 100),
            span("a", Some(0), 10, 30),
            // overlaps `a`: the union [10, 50) is covered once
            span("b", Some(0), 20, 50),
            // runs past the parent's end: only [90, 100) counts
            span("c", Some(0), 90, 120),
            // grandchild: covers its parent `a`, not `pass`
            span("d", Some(1), 12, 18),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 40 - 10, 20 - 6, 30, 30, 6]);
    }

    #[test]
    fn leaf_self_time_is_its_duration_and_medians_group_by_name() {
        let spans = vec![span("x", None, 0, 2_000_000), span("x", None, 5, 4_000_005)];
        let self_ns = self_times_ns(&spans);
        assert_eq!(self_ns, vec![2_000_000, 4_000_000]);
        assert_eq!(median_self_ms(&spans, &self_ns, "x"), 3.0);
        assert_eq!(median_ms(&spans, "x"), 3.0);
        assert_eq!(median_ms(&spans, "missing"), 0.0);
    }
}
