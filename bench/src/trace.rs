//! Spans around the benchmark's calls into each layer.
//!
//! Spans are recorded only from the benchmark's own files, kept in memory
//! and written out when the run ends. A span's name starts with the layer
//! (crate) it enters, e.g. `emu.run` or `opt.optimize`. Tracing inside the
//! crates is a later change.

use crate::json::Json;
use std::cell::RefCell;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<usize>,
    /// Spans of one op share its id; 0 is work outside any op.
    pub op: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

struct Tracer {
    enabled: bool,
    epoch: Instant,
    op: u64,
    open: Vec<usize>,
    spans: Vec<Span>,
}

thread_local! {
    static TRACER: RefCell<Tracer> = RefCell::new(Tracer {
        enabled: false,
        epoch: Instant::now(),
        op: 0,
        open: Vec::new(),
        spans: Vec::new(),
    });
}

/// Turns recording on or off. Off, [`span`] only calls its closure.
pub fn enable(on: bool) {
    TRACER.with_borrow_mut(|t| t.enabled = on);
}

/// Sets the op id stamped on the spans that follow.
pub fn set_op(op: u64) {
    TRACER.with_borrow_mut(|t| t.op = op);
}

/// Runs `f` inside a span named `name`, child of whichever span is open.
pub fn span<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let index = TRACER.with_borrow_mut(|t| {
        t.enabled.then(|| {
            let index = t.spans.len();
            t.spans.push(Span {
                name,
                start_ns: t.epoch.elapsed().as_nanos() as u64,
                end_ns: 0,
                parent: t.open.last().copied(),
                op: t.op,
            });
            t.open.push(index);
            index
        })
    });
    let out = f();
    if let Some(index) = index {
        TRACER.with_borrow_mut(|t| {
            t.spans[index].end_ns = t.epoch.elapsed().as_nanos() as u64;
            t.open.pop();
        });
    }
    out
}

/// Everything recorded so far, leaving the tracer empty.
pub fn take() -> Vec<Span> {
    TRACER.with_borrow_mut(|t| std::mem::take(&mut t.spans))
}

/// Each span's duration minus the part of it its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    own
}

/// Durations, in ms, of every span called `name`.
pub fn durations_ms(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::ms)
        .collect()
}

pub fn to_json(spans: &[Span]) -> Json {
    let own = self_times_ns(spans);
    Json::Arr(
        spans
            .iter()
            .zip(own)
            .map(|(s, own_ns)| {
                Json::obj(vec![
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("self_ns", Json::Num(own_ns as f64)),
                    (
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                    ),
                    ("op", Json::Num(s.op as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            op: 1,
        }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            s("op", 0, 100, None),
            s("a.x", 10, 40, Some(0)),
            s("a.y", 15, 25, Some(1)),
            s("b.z", 50, 90, Some(0)),
        ];
        // op: 100 - 30 - 40; a.x: 30 - 10; grandchildren are not
        // subtracted twice.
        assert_eq!(self_times_ns(&spans), vec![30, 20, 10, 40]);
    }

    #[test]
    fn spans_nest_and_record_only_when_enabled() {
        take();
        span("off.outer", || span("off.inner", || ()));
        assert!(take().is_empty());

        enable(true);
        set_op(7);
        let v = span("on.outer", || span("on.inner", || 5));
        span("on.sibling", || ());
        enable(false);
        assert_eq!(v, 5);
        let spans = take();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.op)).collect();
        assert_eq!(
            names,
            vec![
                ("on.outer", None, 7),
                ("on.inner", Some(0), 7),
                ("on.sibling", None, 7)
            ]
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(durations_ms(&spans, "on.inner").len(), 1);
    }
}
