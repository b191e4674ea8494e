//! In-memory span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's own code, around the calls
//! into each layer crate; nothing inside the program is instrumented. A
//! span's *self time* is its duration minus the part of that interval its
//! child spans cover. Rank threads run side by side, so children may
//! overlap; the covered part is the union of their intervals.
//!
//! A disabled recorder (the untraced pass) makes `begin`/`end`/`add`
//! no-ops, so end-to-end metrics are measured with tracing off.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Repetition the span belongs to (0 = set-up and probes).
    pub rep: u32,
    /// 0 = the benchmark's main thread, `1 + rank` = a rank thread.
    pub lane: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Handle returned by [`Recorder::begin`]; pass it back to `end`.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<usize>);

pub struct Recorder {
    enabled: bool,
    origin: Instant,
    workload: &'static str,
    rep: u32,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool, workload: &'static str) -> Recorder {
        Recorder {
            enabled,
            origin: Instant::now(),
            workload,
            rep: 0,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Switches recording on or off — the traced pass alternates traced
    /// and untraced repetitions to price its own overhead.
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span on the main thread, child of the innermost open one.
    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let now = self.ns(Instant::now());
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            rep: self.rep,
            lane: 0,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let now = self.ns(Instant::now());
        self.spans[id].end_ns = now;
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans must close innermost-first");
    }

    /// Records a finished span measured elsewhere (a rank thread, or a
    /// tight loop that accumulated its own start/end) as a child of the
    /// innermost open span.
    pub fn add(&mut self, name: &'static str, start: Instant, end: Instant, lane: u32) {
        if !self.enabled {
            return;
        }
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent: self.stack.last().copied(),
            rep: self.rep,
            lane,
        });
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per span name: (count, total duration, total self time), in ns.
    pub fn totals(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let selfs = self_times(&self.spans);
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(selfs) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.duration_ns();
            e.2 += self_ns;
        }
        out
    }

    /// Chrome trace-event format (`chrome://tracing`, Perfetto): one
    /// complete (`"ph": "X"`) event per span, microsecond timestamps.
    pub fn chrome_events(&self) -> Vec<Json> {
        let selfs = self_times(&self.spans);
        self.spans
            .iter()
            .zip(selfs)
            .enumerate()
            .map(|(id, (s, self_ns))| {
                Json::obj([
                    ("name", Json::str(s.name)),
                    ("ph", Json::str("X")),
                    ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                    ("dur", Json::Num(s.duration_ns() as f64 / 1e3)),
                    ("pid", Json::Num(1.0)),
                    ("tid", Json::Num(f64::from(s.lane))),
                    (
                        "args",
                        Json::obj([
                            ("id", Json::Num(id as f64)),
                            (
                                "parent",
                                s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                            ),
                            ("workload", Json::str(self.workload)),
                            ("rep", Json::Num(f64::from(s.rep))),
                            ("self_us", Json::Num(self_ns as f64 / 1e3)),
                        ]),
                    ),
                ])
            })
            .collect()
    }
}

/// Self time of every span: duration minus the union of its children's
/// intervals (clipped to the span itself).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            start_ns: start,
            end_ns: end,
            parent,
            rep: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_sequential_children() {
        let spans = [
            span(0, 100, None),
            span(10, 30, Some(0)),
            span(40, 90, Some(0)),
            span(45, 50, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 45, 5]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two rank threads running side by side under one rep span.
        let spans = [
            span(0, 100, None),
            span(10, 80, Some(0)),
            span(20, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 80);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(50, 100, None),
            span(0, 60, Some(0)),
            span(90, 200, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 50 - 10 - 10);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true, "w");
        let outer = rec.begin("outer");
        rec.set_rep(3);
        let inner = rec.begin("inner");
        rec.end(inner);
        let t = Instant::now();
        rec.add("rank", t, t, 2);
        rec.end(outer);
        let spans = rec.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].rep, 3);
        assert_eq!((spans[2].parent, spans[2].lane), (Some(0), 2));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        let totals = rec.totals();
        assert_eq!(totals["outer"].0, 1);
        assert!(totals["outer"].2 <= totals["outer"].1);
        let events = rec.chrome_events();
        assert_eq!(events.len(), 3);
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("X"));

        let mut off = Recorder::new(false, "w");
        let o = off.begin("x");
        off.add("y", t, t, 0);
        off.end(o);
        assert!(off.spans().is_empty());
    }
}
