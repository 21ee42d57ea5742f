//! Spans recorded by the traced run, kept in memory and written out as a
//! Chrome trace when the run ends.
//!
//! The benchmark records one span around every public call it makes and
//! hangs the engine's own per-phase spans (`SemisortStats::spans`) beneath
//! it. Every span shares the clock the engine stamps its spans with
//! (`semisort::obs::epoch_micros`), so parents and children line up.

use std::collections::BTreeMap;

use semisort::Json;

/// One timed interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer or call name.
    pub name: &'static str,
    /// Start, µs on the shared epoch.
    pub start_us: u64,
    /// End, µs on the shared epoch.
    pub end_us: u64,
    /// Index of the enclosing span in the [`Trace`], if any.
    pub parent: Option<usize>,
    /// The call or request the span belongs to.
    pub id: u64,
    /// Timeline row in the Chrome trace (thread or connection).
    pub lane: u64,
}

/// Spans of one run.
#[derive(Debug, Default)]
pub struct Trace {
    spans: Vec<Span>,
}

impl Trace {
    /// Record a span and return its index (to use as a child's `parent`).
    pub fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Record a root span for call `id` on lane 0.
    pub fn root(&mut self, name: &'static str, id: u64, start_us: u64, end_us: u64) -> usize {
        self.push(Span {
            name,
            start_us,
            end_us,
            parent: None,
            id,
            lane: 0,
        })
    }

    /// Hang the engine's phase spans beneath span `parent`.
    pub fn phases(&mut self, parent: usize, phases: &[semisort::SpanRecord]) {
        let id = self.spans[parent].id;
        for p in phases {
            self.push(Span {
                name: p.name,
                start_us: p.start_us,
                end_us: p.end_us,
                parent: Some(parent),
                id,
                lane: p.worker.map_or(0, |w| w as u64 + 1),
            });
        }
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of span `idx` in µs: its duration minus the part of it
    /// that the union of its children's intervals covers.
    pub fn self_us(&self, idx: usize) -> u64 {
        let s = &self.spans[idx];
        let mut covered: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(idx))
            .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
            .filter(|(a, b)| a < b)
            .collect();
        covered.sort_unstable();
        let mut busy = 0;
        let mut reach = s.start_us;
        for (a, b) in covered {
            let a = a.max(reach);
            if b > a {
                busy += b - a;
                reach = b;
            }
        }
        (s.end_us - s.start_us) - busy
    }

    /// Total self time per span name, in µs.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (i, s) in self.spans.iter().enumerate() {
            *out.entry(s.name).or_default() += self.self_us(i);
        }
        out
    }

    /// The spans as a Chrome-trace (`chrome://tracing`, Perfetto) document
    /// of complete (`"ph": "X"`) events.
    pub fn chrome_json(&self) -> Json {
        let events = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let parent = s.parent.map_or(Json::Null, |p| Json::num(p as u64));
                Json::Obj(vec![
                    ("name".into(), Json::str(s.name)),
                    ("cat".into(), Json::str("benchmark")),
                    ("ph".into(), Json::str("X")),
                    ("ts".into(), Json::num(s.start_us)),
                    ("dur".into(), Json::num(s.end_us - s.start_us)),
                    ("pid".into(), Json::num(1)),
                    ("tid".into(), Json::num(s.lane)),
                    (
                        "args".into(),
                        Json::Obj(vec![
                            ("span".into(), Json::num(i as u64)),
                            ("parent".into(), parent),
                            ("id".into(), Json::num(s.id)),
                        ]),
                    ),
                ])
            })
            .collect();
        Json::Obj(vec![
            ("traceEvents".into(), Json::Arr(events)),
            ("displayTimeUnit".into(), Json::str("ms")),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_us: u64, end_us: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_us,
            end_us,
            parent,
            id: 0,
            lane: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Trace::default();
        let call = t.push(span("call", 100, 200, None));
        // Two overlapping children cover 110..150 (40 µs), a third 160..170.
        let a = t.push(span("a", 110, 140, Some(call)));
        t.push(span("b", 120, 150, Some(call)));
        t.push(span("c", 160, 170, Some(call)));
        // A grandchild counts against its own parent, not the call.
        t.push(span("a.inner", 115, 125, Some(a)));
        assert_eq!(t.self_us(call), 100 - 40 - 10);
        assert_eq!(t.self_us(a), 30 - 10);
        let by_name = t.self_by_name();
        assert_eq!(by_name["call"], 50);
        assert_eq!(by_name["a.inner"], 10);
    }

    #[test]
    fn disjoint_children_and_self_time_partition_the_parent() {
        let mut t = Trace::default();
        let call = t.push(span("call", 0, 1000, None));
        for (a, b) in [(10, 300), (300, 420), (500, 990)] {
            t.push(span("phase", a, b, Some(call)));
        }
        let phases: u64 = t.spans()[1..].iter().map(|s| s.end_us - s.start_us).sum();
        assert_eq!(t.self_us(call) + phases, 1000);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let mut t = Trace::default();
        let call = t.push(span("call", 100, 200, None));
        t.push(span("early", 50, 120, Some(call)));
        t.push(span("late", 190, 260, Some(call)));
        t.push(span("outside", 300, 400, Some(call)));
        assert_eq!(t.self_us(call), 100 - 20 - 10);
        let leaf = t.push(span("leaf", 0, 7, None));
        assert_eq!(t.self_us(leaf), 7);
    }

    #[test]
    fn chrome_trace_has_one_event_per_span() {
        let mut t = Trace::default();
        let call = t.root("call", 3, 10, 20);
        t.push(span("child", 12, 15, Some(call)));
        let doc = t.chrome_json();
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(events[1].get("dur").and_then(Json::as_u64), Some(3));
        let args = events[1].get("args").unwrap();
        assert_eq!(args.get("parent").and_then(Json::as_u64), Some(0));
        assert_eq!(Json::parse(&doc.to_string()).unwrap(), doc);
    }
}
