//! The in-memory span tracer of the traced run.
//!
//! A span records a name, a start, an end and the span that was open when
//! it began (its parent), plus the allocations the counting allocator saw
//! meanwhile and any counts taken at the same boundary. Spans wrap only
//! calls into the public functions of the layers under `crates/`; nothing
//! inside those crates is instrumented.
//!
//! The top-level spans are the *roots* `setup`, `iter` and `probe`: one
//! per set-up, per traced iteration, and one for the extra calls a traced
//! run makes once after its iterations (serializing a report, running a
//! job alone, ...). A layer's figure is its spans' total divided by the
//! number of roots of the kind it ran under, so it reads "per set-up",
//! "per iteration" or "per probe".
//!
//! The plain binary carries a disabled tracer: [`Tracer::span`] then costs
//! one branch and records nothing.

use std::cell::{Cell, Ref, RefCell};
use std::collections::BTreeMap;
use std::time::Instant;

use lbp_sim::Json;

/// Allocations and bytes requested so far, as the traced binary's
/// counting allocator reports them.
pub type AllocProbe = fn() -> (u64, u64);

/// Counts a span holds without allocating while it is open, which would
/// show in its own allocation count.
const COUNTS_PER_SPAN: usize = 6;

/// The kind of a root span.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Root {
    /// One timed iteration of the workload.
    Iter,
    /// The once-per-run extra calls of the traced binary.
    Probe,
    /// One set-up of the workload.
    Setup,
}

impl Root {
    /// The order in which a layer's spans are looked for: a layer that
    /// runs inside iterations is reported per iteration even if set-up
    /// also calls it.
    pub const ALL: [Root; 3] = [Root::Iter, Root::Probe, Root::Setup];

    /// The root span's name.
    pub fn name(self) -> &'static str {
        match self {
            Root::Iter => "iter",
            Root::Probe => "probe",
            Root::Setup => "setup",
        }
    }
}

/// One recorded span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer boundary, e.g. `sim.run`; a root is named after its kind.
    pub name: &'static str,
    /// Nanoseconds from the tracer's creation to the span's start.
    pub start_ns: u64,
    /// Nanoseconds from the tracer's creation to the span's end.
    pub end_ns: u64,
    /// Index of the span that was open when this one began.
    pub parent: Option<usize>,
    /// Allocations made while the span was open.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Counts taken at this boundary, e.g. `("cycles", 112262.0)`.
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    /// The span's duration.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// The tracer. Single-threaded: spans are opened and closed by the
/// benchmark's own thread, around calls that may themselves use threads.
pub struct Tracer {
    enabled: Cell<bool>,
    probe: Option<AllocProbe>,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: Option<usize>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn disabled() -> Tracer {
        Tracer::new(false, None)
    }

    /// A recording tracer, reading allocation counts from `probe`.
    pub fn enabled(probe: Option<AllocProbe>) -> Tracer {
        Tracer::new(true, probe)
    }

    fn new(enabled: bool, probe: Option<AllocProbe>) -> Tracer {
        Tracer {
            enabled: Cell::new(enabled),
            probe,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    /// Whether spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Pauses or resumes recording (no span may be open).
    pub fn set_enabled(&self, on: bool) {
        assert!(self.open.borrow().is_empty(), "a span is still open");
        self.enabled.set(on);
    }

    /// Opens a root span.
    pub fn root(&self, kind: Root) -> SpanGuard<'_> {
        assert!(self.open.borrow().is_empty(), "roots do not nest");
        self.span(kind.name())
    }

    /// Opens a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.enabled.get() {
            return SpanGuard {
                tracer: self,
                index: None,
            };
        }
        let mut spans = self.spans.borrow_mut();
        let index = spans.len();
        spans.push(Span {
            name,
            start_ns: 0,
            end_ns: 0,
            parent: self.open.borrow().last().copied(),
            allocs: 0,
            alloc_bytes: 0,
            counts: Vec::with_capacity(COUNTS_PER_SPAN),
        });
        self.open.borrow_mut().push(index);
        // Read the counters and the clock last, so that the bookkeeping
        // above is charged to the parent and not to this span.
        let span = &mut spans[index];
        (span.allocs, span.alloc_bytes) = self.probe.map_or((0, 0), |p| p());
        span.start_ns = self.epoch.elapsed().as_nanos() as u64;
        SpanGuard {
            tracer: self,
            index: Some(index),
        }
    }

    /// The spans recorded so far.
    pub fn spans(&self) -> Ref<'_, Vec<Span>> {
        self.spans.borrow()
    }
}

impl SpanGuard<'_> {
    /// Attaches a count taken at this boundary.
    pub fn count(&self, key: &'static str, n: f64) {
        if let Some(i) = self.index {
            self.tracer.spans.borrow_mut()[i].counts.push((key, n));
        }
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let Some(i) = self.index else { return };
        let end_ns = self.tracer.epoch.elapsed().as_nanos() as u64;
        let (allocs, alloc_bytes) = self.tracer.probe.map_or((0, 0), |p| p());
        let mut spans = self.tracer.spans.borrow_mut();
        let span = &mut spans[i];
        span.end_ns = end_ns;
        span.allocs = allocs - span.allocs;
        span.alloc_bytes = alloc_bytes - span.alloc_bytes;
        let closed = self.tracer.open.borrow_mut().pop();
        debug_assert_eq!(closed, Some(i), "spans close innermost first");
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p] = own[p].saturating_sub(s.ns());
        }
    }
    own
}

/// What all spans of one name under one kind of root add up to.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Layer {
    /// Spans of this name.
    pub spans: u64,
    /// Their total duration.
    pub ns: u64,
    /// Their total self time.
    pub self_ns: u64,
    /// Allocations while they were open.
    pub allocs: u64,
    /// Bytes those allocations asked for.
    pub alloc_bytes: u64,
    /// Their counts, summed by key.
    pub counts: BTreeMap<&'static str, f64>,
}

/// The spans of a run, summed by root kind and name.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    roots: BTreeMap<Root, u64>,
    layers: BTreeMap<(Root, &'static str), Layer>,
}

impl Summary {
    /// Sums `spans`. Parents precede their children in the slice, as the
    /// tracer records them.
    pub fn of(spans: &[Span]) -> Summary {
        let own = self_times(spans);
        let mut kind_of: Vec<Root> = Vec::with_capacity(spans.len());
        let mut out = Summary::default();
        for (i, s) in spans.iter().enumerate() {
            let kind = match s.parent {
                Some(p) => kind_of[p],
                None => Root::ALL
                    .into_iter()
                    .find(|k| k.name() == s.name)
                    .unwrap_or_else(|| panic!("span `{}` has no root", s.name)),
            };
            kind_of.push(kind);
            if s.parent.is_none() {
                *out.roots.entry(kind).or_default() += 1;
            }
            let layer = out.layers.entry((kind, s.name)).or_default();
            layer.spans += 1;
            layer.ns += s.ns();
            layer.self_ns += own[i];
            layer.allocs += s.allocs;
            layer.alloc_bytes += s.alloc_bytes;
            for &(key, n) in &s.counts {
                *layer.counts.entry(key).or_default() += n;
            }
        }
        out
    }

    /// Roots of one kind.
    pub fn roots(&self, kind: Root) -> u64 {
        self.roots.get(&kind).copied().unwrap_or(0)
    }

    /// The layer called `name`, under the first kind of root (iterations,
    /// then the probe, then set-up) that has it, with that kind's root
    /// count.
    pub fn layer<'a>(&'a self, name: &'a str) -> Option<(&'a Layer, u64)> {
        Root::ALL.into_iter().find_map(|kind| {
            let layer = self.layers.get(&(kind, name))?;
            Some((layer, self.roots(kind)))
        })
    }

    /// Nanoseconds per root spent in `name`; 0 when it never ran.
    pub fn ns(&self, name: &str) -> f64 {
        self.layer(name)
            .map_or(0.0, |(l, roots)| l.ns as f64 / roots as f64)
    }

    /// Self nanoseconds per root of `name`; 0 when it never ran.
    pub fn self_ns(&self, name: &str) -> f64 {
        self.layer(name)
            .map_or(0.0, |(l, roots)| l.self_ns as f64 / roots as f64)
    }

    /// The count `key` of `name`, per root; 0 when never taken.
    pub fn count(&self, name: &str, key: &str) -> f64 {
        self.layer(name).map_or(0.0, |(l, roots)| {
            l.counts.get(key).copied().unwrap_or(0.0) / roots as f64
        })
    }

    /// The count `key` of `name` per span that took it: a size, not a
    /// total. 0 when never taken.
    pub fn mean(&self, name: &str, key: &str) -> f64 {
        self.layer(name).map_or(0.0, |(l, _)| {
            l.counts.get(key).copied().unwrap_or(0.0) / l.spans as f64
        })
    }

    /// Total of `num(layer)` over total of the count `key`, for the layer
    /// `name`: a cost per counted unit. 0 when the unit never occurred.
    pub fn per(&self, name: &str, num: impl Fn(&Layer) -> u64, key: &str) -> f64 {
        self.layer(name).map_or(0.0, |(l, _)| {
            match l.counts.get(key).copied().unwrap_or(0.0) {
                d if d > 0.0 => num(l) as f64 / d,
                _ => 0.0,
            }
        })
    }

    /// Every layer as a JSON table, for the trace file.
    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.layers
                .iter()
                .map(|((kind, name), l)| {
                    Json::obj([
                        ("root", Json::Str(kind.name().to_owned())),
                        ("name", Json::Str((*name).to_owned())),
                        ("spans", Json::U64(l.spans)),
                        ("ns", Json::U64(l.ns)),
                        ("self_ns", Json::U64(l.self_ns)),
                        ("allocs", Json::U64(l.allocs)),
                        ("alloc_bytes", Json::U64(l.alloc_bytes)),
                    ])
                })
                .collect(),
        )
    }
}

/// Iterations whose spans a trace file lists one by one; the summary in
/// the same file covers all of them.
pub const LISTED_ITERS: usize = 8;

/// The trace file of one workload: every span of the set-ups, the first
/// [`LISTED_ITERS`] iterations and the probe, plus the summary over all
/// spans.
pub fn trace_json(workload: &str, spans: &[Span]) -> Json {
    let mut iters = 0;
    let mut listed = vec![false; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        listed[i] = match s.parent {
            Some(p) => listed[p],
            None if s.name == Root::Iter.name() => {
                iters += 1;
                iters <= LISTED_ITERS
            }
            None => true,
        };
    }
    // Indices in the file refer to the file's own list.
    let mut renumbered = vec![0usize; spans.len()];
    let mut out = Vec::new();
    for (i, s) in spans.iter().enumerate().filter(|(i, _)| listed[*i]) {
        renumbered[i] = out.len();
        let mut pairs = vec![
            ("name".to_owned(), Json::Str(s.name.to_owned())),
            ("start_ns".to_owned(), Json::U64(s.start_ns)),
            ("end_ns".to_owned(), Json::U64(s.end_ns)),
            (
                "parent".to_owned(),
                s.parent
                    .map_or(Json::Null, |p| Json::U64(renumbered[p] as u64)),
            ),
            ("allocs".to_owned(), Json::U64(s.allocs)),
            ("alloc_bytes".to_owned(), Json::U64(s.alloc_bytes)),
        ];
        for &(key, n) in &s.counts {
            pairs.push((key.to_owned(), Json::F64(n)));
        }
        out.push(Json::Obj(pairs));
    }
    Json::obj([
        ("schema", Json::Str("lbp-benchmark-trace-v1".to_owned())),
        ("workload", Json::Str(workload.to_owned())),
        ("spans_recorded", Json::U64(spans.len() as u64)),
        (
            "iterations_listed",
            Json::U64(iters.min(LISTED_ITERS) as u64),
        ),
        ("summary", Summary::of(spans).to_json()),
        ("spans", Json::Arr(out)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            allocs: 0,
            alloc_bytes: 0,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_sibling_children() {
        let spans = vec![
            span("iter", 0, 100, None),
            span("a", 10, 40, Some(0)),       // 30 long
            span("a.inner", 15, 25, Some(1)), // 10 long, nested in a
            span("b", 50, 90, Some(0)),       // 40 long, sibling of a
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times of a tree always add up to its root.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
    }

    #[test]
    fn summary_divides_by_the_roots_of_the_layer_s_kind() {
        let mut spans = vec![
            span("setup", 0, 10, None),
            span("x", 2, 6, Some(0)),
            span("iter", 10, 30, None),
            span("y", 12, 20, Some(2)),
            span("iter", 30, 50, None),
            span("y", 31, 43, Some(4)),
            span("x", 44, 46, Some(4)),
        ];
        spans[3].counts.push(("units", 4.0));
        spans[5].counts.push(("units", 6.0));
        let s = Summary::of(&spans);
        assert_eq!(s.roots(Root::Iter), 2);
        assert_eq!(s.ns("y"), 10.0); // (8 + 12) / 2 iterations
        assert_eq!(s.count("y", "units"), 5.0);
        assert_eq!(s.per("y", |l| l.ns, "units"), 2.0);
        // `x` ran in an iteration, so it is reported per iteration and
        // its set-up occurrence is left out.
        assert_eq!(s.ns("x"), 1.0);
        assert_eq!(s.ns("never"), 0.0);
    }

    #[test]
    fn tracer_nests_spans_and_a_disabled_one_records_nothing() {
        let t = Tracer::enabled(None);
        {
            let _root = t.root(Root::Iter);
            let a = t.span("a");
            a.count("n", 3.0);
            drop(a);
            let _b = t.span("b");
        }
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[1].counts, vec![("n", 3.0)]);
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<u64>(), spans[0].ns());

        t.set_enabled(false);
        drop(t.span("ignored"));
        assert_eq!(t.spans().len(), 3);
        let off = Tracer::disabled();
        drop(off.root(Root::Setup));
        assert!(off.spans().is_empty());
    }

    #[test]
    fn trace_file_lists_a_bounded_number_of_iterations() {
        let mut spans = vec![span("setup", 0, 1, None)];
        for i in 0..(LISTED_ITERS as u64 + 5) {
            let at = spans.len();
            spans.push(span("iter", 10 * i + 1, 10 * i + 9, None));
            spans.push(span("y", 10 * i + 2, 10 * i + 5, Some(at)));
        }
        let at = spans.len();
        spans.push(span("probe", 1000, 1010, None));
        spans.push(span("z", 1001, 1002, Some(at)));
        let json = trace_json("w", &spans);
        let listed = json.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(listed.len(), 1 + 2 * LISTED_ITERS + 2);
        // The probe's child points at the probe's index in the file.
        let z = listed.last().unwrap();
        let parent = z.get("parent").and_then(Json::as_u64).unwrap() as usize;
        assert_eq!(
            listed[parent].get("name").and_then(Json::as_str),
            Some("probe")
        );
        assert_eq!(
            json.get("spans_recorded").and_then(Json::as_u64),
            Some(spans.len() as u64)
        );
    }
}
