//! The traced pass's in-memory span recorder.
//!
//! Spans are recorded from the benchmark's own files, around calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. A span carries a name, the crate it is charged to,
//! start, end, the span that caused it and an op id. Counts are taken
//! at the same boundaries. Everything stays in memory until the run
//! ends; [`Recorder::chrome_json`] renders it for `--trace-out`.
//!
//! Two kinds of span exist. A *nested* span is a call made inside its
//! parent's interval. An *aside* is a second execution of something the
//! parent did internally (e.g. `gpu_memsim::simulate` on the works
//! `Extractor::extract_works` just simulated), run after the op has
//! closed so that it inflates nothing, and charged to the parent as if
//! it were nested — at most the time the parent has left.

use std::collections::BTreeMap;
use std::time::Instant;

/// The crate a span's self time is charged to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Layer {
    /// `emb-graph`.
    EmbGraph,
    /// `emb-workload`.
    EmbWorkload,
    /// `gpu-platform`.
    GpuPlatform,
    /// `cache-policy` (its LP solves in `milp` cannot be told apart from outside).
    CachePolicy,
    /// `emb-cache`.
    EmbCache,
    /// `extractor`.
    Extractor,
    /// `gpu-memsim`.
    GpuMemsim,
    /// `ugache`.
    UGache,
    /// `emb-serve`.
    EmbServe,
    /// `emb-telemetry`.
    EmbTelemetry,
    /// The benchmark's own loops and checks.
    Bench,
}

impl Layer {
    /// Every layer, in ledger order.
    pub const ALL: [Layer; 11] = [
        Layer::EmbGraph,
        Layer::EmbWorkload,
        Layer::GpuPlatform,
        Layer::CachePolicy,
        Layer::EmbCache,
        Layer::Extractor,
        Layer::GpuMemsim,
        Layer::UGache,
        Layer::EmbServe,
        Layer::EmbTelemetry,
        Layer::Bench,
    ];

    /// The crate name (the metric prefix).
    pub fn name(self) -> &'static str {
        match self {
            Layer::EmbGraph => "emb-graph",
            Layer::EmbWorkload => "emb-workload",
            Layer::GpuPlatform => "gpu-platform",
            Layer::CachePolicy => "cache-policy",
            Layer::EmbCache => "emb-cache",
            Layer::Extractor => "extractor",
            Layer::GpuMemsim => "gpu-memsim",
            Layer::UGache => "ugache",
            Layer::EmbServe => "emb-serve",
            Layer::EmbTelemetry => "emb-telemetry",
            Layer::Bench => "bench",
        }
    }
}

/// Name of the root span of one traced op; the ledger walks these trees.
pub const OP: &str = "op";

/// Handle of a recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The span's position in [`Recorder::spans`].
    pub fn index(self) -> usize {
        self.0
    }
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// What was called.
    pub name: &'static str,
    /// Crate charged.
    pub layer: Layer,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// Nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Op the span belongs to (0 = set-up).
    pub op: u64,
    /// Run outside the parent's interval (see module docs).
    pub aside: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Where one workload's traced op time went.
#[derive(Debug, Clone, PartialEq)]
pub struct Ledger {
    /// Number of op root spans.
    pub ops: u64,
    /// Sum of the op root spans.
    pub op_ns: u64,
    /// Self time per layer inside op trees; sums to `op_ns`.
    pub self_ns: BTreeMap<Layer, u64>,
}

impl Ledger {
    /// Share of the op span charged to `layer`.
    pub fn share(&self, layer: Layer) -> f64 {
        if self.op_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(&layer).copied().unwrap_or(0) as f64 / self.op_ns as f64
    }
}

/// In-memory span and count recorder.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<SpanId>,
    op: u64,
    counts: BTreeMap<&'static str, f64>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            op: 0,
            counts: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a nested span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, layer: Layer) -> SpanId {
        let now = self.now_ns();
        let id = SpanId(self.spans.len());
        self.spans.push(Span {
            name,
            layer,
            start_ns: now,
            end_ns: now,
            parent: self.stack.last().copied(),
            op: self.op,
            aside: false,
        });
        self.stack.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    ///
    /// # Panics
    ///
    /// Panics if spans are closed out of order (a bug in the caller).
    pub fn exit(&mut self, id: SpanId) {
        let now = self.now_ns();
        assert_eq!(self.stack.pop(), Some(id), "spans close innermost first");
        self.spans[id.0].end_ns = now;
    }

    /// Opens the root span of the next op and returns its handle.
    pub fn enter_op(&mut self) -> SpanId {
        assert!(self.stack.is_empty(), "an op starts outside every span");
        self.op += 1;
        self.enter(OP, Layer::Bench)
    }

    /// Times `f` as a nested leaf span.
    pub fn span<R>(&mut self, name: &'static str, layer: Layer, f: impl FnOnce() -> R) -> R {
        let id = self.enter(name, layer);
        let r = f();
        self.exit(id);
        r
    }

    /// Times `f` as an aside charged to the closed span `parent`.
    ///
    /// # Panics
    ///
    /// Panics if called while any span is open: an aside inside an op
    /// would be charged twice.
    pub fn aside<R>(
        &mut self,
        parent: SpanId,
        name: &'static str,
        layer: Layer,
        f: impl FnOnce() -> R,
    ) -> R {
        assert!(self.stack.is_empty(), "asides run between ops");
        let start = self.now_ns();
        let r = f();
        let end = self.now_ns();
        self.spans.push(Span {
            name,
            layer,
            start_ns: start,
            end_ns: end,
            parent: Some(parent),
            op: self.spans[parent.0].op,
            aside: true,
        });
        r
    }

    /// Adds `delta` to the count `name`.
    pub fn count(&mut self, name: &'static str, delta: f64) {
        *self.counts.entry(name).or_insert(0.0) += delta;
    }

    /// Raises the count `name` to `value` if it is below it (a maximum
    /// kept at the same boundaries as the sums).
    pub fn peak(&mut self, name: &'static str, value: f64) {
        let slot = self.counts.entry(name).or_insert(value);
        *slot = slot.max(value);
    }

    /// Sets the count `name` to `value` (a reading, not a sum).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.counts.insert(name, value);
    }

    /// The count `name` (0 if never counted).
    pub fn counted(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// Every span, in begin order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of spans named `name` and their summed duration in seconds.
    pub fn total(&self, name: &str) -> (u64, f64) {
        let mut n = 0;
        let mut ns = 0u64;
        for s in self.spans.iter().filter(|s| s.name == name) {
            n += 1;
            ns += s.dur_ns();
        }
        (n, ns as f64 / 1e9)
    }

    /// Summed duration in seconds of spans named `name`.
    pub fn secs(&self, name: &str) -> f64 {
        self.total(name).1
    }

    /// Time charged to each span (its duration; for an aside, at most what
    /// its parent had left) and each span's self time, both in ns.
    ///
    /// Parents precede children in `spans` (nested children begin after
    /// the parent, asides run after it closed), so one forward pass
    /// settles both.
    pub fn charged_and_self(&self) -> (Vec<u64>, Vec<u64>) {
        let mut charged = vec![0u64; self.spans.len()];
        let mut left = vec![0u64; self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            let c = match s.parent {
                Some(p) => s.dur_ns().min(left[p.0]),
                None => s.dur_ns(),
            };
            if let Some(p) = s.parent {
                left[p.0] -= c;
            }
            charged[i] = c;
            left[i] = c;
        }
        (charged, left)
    }

    /// Sums self time per layer over the op trees.
    pub fn ledger(&self) -> Ledger {
        let (charged, selfs) = self.charged_and_self();
        let mut in_op = vec![false; self.spans.len()];
        let mut ledger = Ledger {
            ops: 0,
            op_ns: 0,
            self_ns: BTreeMap::new(),
        };
        for (i, s) in self.spans.iter().enumerate() {
            in_op[i] = match s.parent {
                Some(p) => in_op[p.0],
                None => s.name == OP,
            };
            if !in_op[i] {
                continue;
            }
            if s.parent.is_none() {
                ledger.ops += 1;
                ledger.op_ns += charged[i];
            }
            *ledger.self_ns.entry(s.layer).or_insert(0) += selfs[i];
        }
        ledger
    }

    /// Renders the spans as Chrome trace JSON (`chrome://tracing`,
    /// Perfetto): nested spans on thread 1, asides on thread 2.
    pub fn chrome_json(&self, workload: &str) -> String {
        let mut out = String::from("{\"traceEvents\":[\n");
        out.push_str(&format!(
            "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"benchmark {workload}\"}}}}"
        ));
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or(-1, |p| p.0 as i64);
            out.push_str(&format!(
                ",\n{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{:.3},\"dur\":{:.3},\"pid\":1,\"tid\":{},\"args\":{{\"id\":{i},\"parent\":{parent},\"op\":{}}}}}",
                s.name,
                s.layer.name(),
                s.start_ns as f64 / 1e3,
                s.dur_ns() as f64 / 1e3,
                if s.aside { 2 } else { 1 },
                s.op
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spin(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < us as u128 {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_sums_to_the_op() {
        let mut rec = Recorder::new();
        let op = rec.enter_op();
        spin(200);
        let outer = rec.enter("outer", Layer::Extractor);
        spin(200);
        rec.span("inner", Layer::GpuMemsim, || spin(300));
        rec.exit(outer);
        rec.exit(op);
        rec.aside(outer, "again", Layer::EmbCache, || spin(100));

        let (charged, selfs) = rec.charged_and_self();
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        for (i, s) in spans.iter().enumerate() {
            let kids: u64 = spans
                .iter()
                .enumerate()
                .filter(|(_, c)| c.parent == Some(SpanId(i)))
                .map(|(j, _)| charged[j])
                .sum();
            assert!(kids <= charged[i], "children exceed {}", s.name);
            assert_eq!(selfs[i], charged[i] - kids);
        }
        let ledger = rec.ledger();
        assert_eq!(ledger.ops, 1);
        assert_eq!(ledger.self_ns.values().sum::<u64>(), ledger.op_ns);
        assert!(ledger.share(Layer::GpuMemsim) > 0.2);
        assert!(ledger.share(Layer::EmbCache) > 0.05);
    }

    #[test]
    fn an_aside_longer_than_its_parent_is_charged_what_the_parent_has_left() {
        let mut rec = Recorder::new();
        let op = rec.enter_op();
        let short = rec.enter("short", Layer::Extractor);
        rec.exit(short);
        rec.exit(op);
        rec.aside(short, "long", Layer::GpuMemsim, || spin(500));
        let (charged, selfs) = rec.charged_and_self();
        assert!(rec.spans()[2].dur_ns() >= 500_000);
        assert_eq!(charged[2], charged[1]);
        assert_eq!(selfs[1], 0);
    }

    #[test]
    fn set_up_spans_stay_out_of_the_ledger_and_the_json_is_balanced() {
        let mut rec = Recorder::new();
        rec.span("solve", Layer::CachePolicy, || spin(50));
        let op = rec.enter_op();
        rec.exit(op);
        rec.count("keys", 3.0);
        rec.count("keys", 4.0);
        assert_eq!(rec.counted("keys"), 7.0);
        assert_eq!(rec.ledger().share(Layer::CachePolicy), 0.0);
        assert_eq!(rec.total("solve").0, 1);
        let json = rec.chrome_json("x");
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert!(json.contains("\"cat\":\"cache-policy\""));
    }
}
