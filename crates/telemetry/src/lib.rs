//! Deterministic, scoped telemetry for the ugache-rs workspace.
//!
//! Simulation and policy code records *what happened* — bytes moved per
//! link, per-tier cache hits, LP iterations — without knowing who is
//! listening. A harness that wants the numbers wraps a computation in
//! [`collect`], which installs a thread-local collector for the duration
//! of the closure and returns everything recorded inside it as a
//! [`Report`].
//!
//! Three properties are load-bearing for the repro harness (see
//! `EXPERIMENTS.md` for the serialized schema):
//!
//! * **Deterministic.** A [`Report`] is a pure function of the wrapped
//!   computation: counters and gauges are keyed maps emitted in sorted
//!   order, events carry a per-scope sequence number assigned in record
//!   order. Because the collector is thread-local and scoped, two runs of
//!   the same computation produce byte-identical reports no matter how
//!   many *other* computations run concurrently on other threads.
//! * **Zero-cost when disabled.** Outside any [`collect`] scope every
//!   recording function returns after one thread-local check; nothing is
//!   allocated (enforced by a counting-allocator test). Call sites that
//!   must build dynamic metric names guard with [`enabled`].
//! * **A record is a row inside a scope.** An event or span is one
//!   fixed-size value of plain data appended to the scope's buffer: its
//!   names are [`Name`]s (a literal is borrowed for the life of the
//!   program, a dynamic name is interned once, e.g. by `gpu-memsim`'s
//!   per-topology table), and its [`Fields`] hold the call site's
//!   `&'static` key list once and each value as one 8-byte word.
//!   Recording allocates nothing beyond the amortised growth of the
//!   scope's buffers (enforced by `crates/serve/tests/live_alloc.rs`),
//!   and dropping a report frees those buffers without visiting a record.
//! * **A metric is a slot found by its handle.** A [`Counter`] or
//!   [`Histogram`] handle resolves its name once, for the life of the
//!   process, to an index into every scope's slots, so recording through
//!   it hashes nothing. The string-named calls ([`count`], [`observe`],
//!   …) look their name up in the same process-wide table. The slots are
//!   sorted by name once, when the scope closes.
//! * **Seed-free.** The crate never reads clocks or random state; values
//!   come exclusively from the instrumented code.
//!
//! # Example
//!
//! ```
//! use emb_telemetry::Fields;
//!
//! let ((), report) = emb_telemetry::collect(|| {
//!     emb_telemetry::count("cache.local_hits", 3.0);
//!     emb_telemetry::observe("memsim.core_util", 0.85);
//!     emb_telemetry::event("memsim.extract", || Fields::new(&["bytes"], &[4096u64.into()]));
//! });
//! assert_eq!(report.metrics.counters, vec![("cache.local_hits".to_string(), 3.0)]);
//! assert_eq!(report.events.len(), 1);
//! // Outside the scope, recording is a no-op.
//! emb_telemetry::count("cache.local_hits", 1.0);
//! assert!(!emb_telemetry::enabled());
//! ```

#![deny(missing_docs)]

use serde::ser::{SerializeMap, SerializeStruct};
use serde::{Serialize, Serializer};
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The name of an event, span, track or field, or a `Str` label.
///
/// One `&'static str`: a literal is borrowed as it is (`"x".into()`, no
/// allocation, ever), and a name built at run time
/// (`Name::from(String)`) is interned, that is kept once in a
/// process-wide table for the life of the process, so build those from
/// bounded sets such as a topology's links. Copying a name copies a
/// pointer and dropping one frees nothing. Compares, prints and
/// serializes as the plain string it holds.
#[derive(Clone, Copy, PartialEq, Eq)]
pub struct Name(&'static str);

impl Name {
    /// The name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &'static str {
        self.0
    }
}

impl From<&'static str> for Name {
    #[inline]
    fn from(s: &'static str) -> Name {
        Name(s)
    }
}

impl From<String> for Name {
    fn from(s: String) -> Name {
        Name(registry().intern(&s).1)
    }
}

impl std::ops::Deref for Name {
    type Target = str;
    #[inline]
    fn deref(&self) -> &str {
        self.0
    }
}

impl std::fmt::Debug for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.0, f)
    }
}

impl std::fmt::Display for Name {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

impl PartialEq<str> for Name {
    #[inline]
    fn eq(&self, other: &str) -> bool {
        self.0 == other
    }
}

impl PartialEq<&str> for Name {
    #[inline]
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other
    }
}

impl Serialize for Name {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        serializer.serialize_str(self.0)
    }
}

/// One value attached to a trace [`Event`] field.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventValue {
    /// An unsigned integer (counts, ids, byte totals).
    U64(u64),
    /// A float (seconds, rates, ratios).
    F64(f64),
    /// A short label (tier names, modes).
    Str(Name),
}

impl Serialize for EventValue {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        match self {
            EventValue::U64(v) => serializer.serialize_u64(*v),
            EventValue::F64(v) => serializer.serialize_f64(*v),
            EventValue::Str(v) => serializer.serialize_str(v),
        }
    }
}

/// A request correlation id linking telemetry records that belong to one
/// logical request.
///
/// The id is an opaque `u64` chosen by the instrumented code (the
/// serving layer packs `load_point << 32 | request_index`); telemetry
/// only requires that ids are unique within a scope, which makes the
/// exemplar tie-break ([`observe_with_exemplar`]) a total order. Attach
/// one to an [`Event`] or [`Span`] field via `EventValue::from(req)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ReqId(pub u64);

impl From<ReqId> for EventValue {
    #[inline]
    fn from(req: ReqId) -> EventValue {
        EventValue::U64(req.0)
    }
}

impl From<u64> for EventValue {
    #[inline]
    fn from(v: u64) -> EventValue {
        EventValue::U64(v)
    }
}

impl From<f64> for EventValue {
    #[inline]
    fn from(v: f64) -> EventValue {
        EventValue::F64(v)
    }
}

/// Most fields one [`Fields`] row holds.
pub const MAX_FIELDS: usize = 8;

/// The `kinds` tag of each [`EventValue`] variant, two bits per field.
const KIND_U64: u16 = 0;
const KIND_F64: u16 = 1;
const KIND_STR: u16 = 2;

/// The named payload of an [`Event`] or [`Span`]: one row of at most
/// [`MAX_FIELDS`] values.
///
/// Plain data: the keys are a `&'static` list (the call site's literal,
/// or a run-time list interned once per distinct list), and each value
/// is one 8-byte word (a `u64` as itself, an `f64` as its bits, so every
/// value reads back exactly, a `Str` label as its interned id). A row
/// owns no heap memory, so writing one allocates nothing and dropping
/// one does nothing. Reads back as `(Name, EventValue)` pairs in the
/// order the recorder listed them: `for (key, value) in &fields`.
#[derive(Clone, Copy, Default)]
pub struct Fields {
    keys: &'static [&'static str],
    /// `U64` as itself, `F64` as its bits, `Str` as the label's id in the
    /// name table.
    words: [u64; MAX_FIELDS],
    /// Two bits per field: which [`EventValue`] variant its word holds.
    kinds: u16,
}

impl Fields {
    /// A row of `keys` (a literal list, e.g. `&["bytes", "gbps"]`) with
    /// one value per key, in order.
    ///
    /// # Panics
    ///
    /// Panics if there are more than [`MAX_FIELDS`] keys or not one value
    /// per key.
    #[inline(always)]
    pub fn new(keys: &'static [&'static str], values: &[EventValue]) -> Fields {
        assert_eq!(keys.len(), values.len(), "one value per key");
        assert!(values.len() <= MAX_FIELDS, "more than {MAX_FIELDS} fields");
        let mut words = [0; MAX_FIELDS];
        let mut kinds = 0;
        for (i, value) in values.iter().enumerate() {
            let (kind, word) = match value {
                EventValue::U64(v) => (KIND_U64, *v),
                EventValue::F64(v) => (KIND_F64, v.to_bits()),
                EventValue::Str(label) => (KIND_STR, label_id(*label)),
            };
            kinds |= kind << (2 * i);
            words[i] = word;
        }
        Fields { keys, words, kinds }
    }

    #[inline]
    fn value(&self, i: usize) -> EventValue {
        let word = self.words[i];
        match (self.kinds >> (2 * i)) & 3 {
            KIND_U64 => EventValue::U64(word),
            KIND_F64 => EventValue::F64(f64::from_bits(word)),
            _ => EventValue::Str(Name(registry().names[word as usize])),
        }
    }

    /// Number of fields.
    #[inline]
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// True when the row has no fields.
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The `(key, value)` pairs, in the order the recorder listed them.
    #[inline]
    pub fn iter(&self) -> FieldsIter<'_> {
        FieldsIter {
            fields: self,
            next: 0,
        }
    }

    /// The value of the first field named `key`, if any.
    pub fn get(&self, key: &str) -> Option<EventValue> {
        let i = self.keys.iter().position(|&k| k == key)?;
        Some(self.value(i))
    }
}

/// The id of `label` in the name table.
#[cold]
fn label_id(label: Name) -> u64 {
    registry().intern(label.0).0 as u64
}

/// A field list built at run time (generated keys, an exemplar's context
/// list) as a row. Its key list is interned: kept once per distinct list
/// for the life of the process.
///
/// # Panics
///
/// Panics if the list has more than [`MAX_FIELDS`] entries.
impl From<Vec<(Name, EventValue)>> for Fields {
    fn from(pairs: Vec<(Name, EventValue)>) -> Fields {
        let keys: Vec<&'static str> = pairs.iter().map(|(key, _)| key.0).collect();
        let values: Vec<EventValue> = pairs.iter().map(|&(_, value)| value).collect();
        let keys = registry().key_list(&keys);
        Fields::new(keys, &values)
    }
}

/// Iterator over a [`Fields`] row's `(key, value)` pairs.
pub struct FieldsIter<'a> {
    fields: &'a Fields,
    next: usize,
}

impl Iterator for FieldsIter<'_> {
    type Item = (Name, EventValue);

    #[inline]
    fn next(&mut self) -> Option<(Name, EventValue)> {
        let i = self.next;
        let key = *self.fields.keys.get(i)?;
        self.next += 1;
        Some((Name(key), self.fields.value(i)))
    }
}

impl<'a> IntoIterator for &'a Fields {
    type Item = (Name, EventValue);
    type IntoIter = FieldsIter<'a>;
    #[inline]
    fn into_iter(self) -> FieldsIter<'a> {
        self.iter()
    }
}

/// Serializes as a JSON object of the fields, in order.
impl Serialize for Fields {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.len()))?;
        for (key, value) in self {
            map.serialize_key(&key)?;
            map.serialize_value(&value)?;
        }
        map.end()
    }
}

impl PartialEq for Fields {
    fn eq(&self, other: &Fields) -> bool {
        self.iter().eq(other.iter())
    }
}

impl std::fmt::Debug for Fields {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// One structured trace event, ordered within its [`collect`] scope.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Position of this event in its scope, starting at 0.
    pub seq: u64,
    /// Dotted event name, e.g. `memsim.extract`.
    pub name: Name,
    /// Named payload fields, in the order the recorder listed them.
    pub fields: Fields,
}

/// One simulated-time span, ordered by begin time within its [`collect`]
/// scope.
///
/// Spans live on *tracks* — stable string ids such as
/// `gpu0/link:nvlink->gpu1` or `gpu3/cores` — and carry start/end
/// instants on the scope's simulated clock (see [`clock_ns`]), in
/// nanoseconds. They are the raw material for timeline artifacts and the
/// Chrome-trace export in `ugache-bench`.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Position of this span in its scope's begin order, starting at 0.
    pub seq: u64,
    /// Track id, conventionally `<pid-group>/<sub-track>`.
    pub track: Name,
    /// Span name, e.g. `xfer`, `stall`, `iteration`, `refresh`.
    pub name: Name,
    /// Simulated start instant (scope clock, nanoseconds).
    pub start_ns: u64,
    /// Simulated end instant (scope clock, nanoseconds), `>= start_ns`.
    pub end_ns: u64,
    /// Named payload fields, in the order the recorder listed them.
    pub fields: Fields,
}

impl Span {
    /// Span duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle for a span opened with [`span_begin`] and closed with
/// [`span_end`].
///
/// The handle stays valid across nested [`collect`] scopes: ending a
/// span that belongs to an outer scope from inside an inner one finds
/// the right collector. A handle obtained while no scope was active is
/// inert — [`span_end`] on it is a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId {
    /// Unique id of the owning scope (0 = no scope was active).
    scope: u64,
    /// Index into the owning scope's span list.
    idx: usize,
}

impl SpanId {
    /// The inert handle returned when recording is disabled.
    const DISABLED: SpanId = SpanId { scope: 0, idx: 0 };
}

/// Number of exemplars each histogram retains: the K largest
/// observations recorded with [`observe_with_exemplar`].
pub const EXEMPLAR_K: usize = 8;

/// One retained histogram observation with its request linkage.
///
/// Exemplars order by value descending, ties broken by ascending
/// [`ReqId`], so the retained top-[`EXEMPLAR_K`] set is a pure function
/// of the multiset of `(value, req)` pairs observed — identical no
/// matter how the observations were chunked across worker scopes and
/// [`absorb`]ed back.
#[derive(Debug, Clone, PartialEq)]
pub struct Exemplar {
    /// The observed value (the histogram's unit).
    pub value: f64,
    /// Correlation id of the request that produced the observation.
    pub req: u64,
    /// Caller-supplied context fields, in the order the recorder listed
    /// them.
    pub fields: Vec<(Name, EventValue)>,
}

impl Serialize for Exemplar {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("Exemplar", 3)?;
        st.serialize_field("value", &self.value)?;
        st.serialize_field("req", &self.req)?;
        st.serialize_field("fields", &AsMap(&self.fields))?;
        st.end()
    }
}

/// `true` when exemplar `a` ranks before (is "larger than") `b` in the
/// retained top-K order: value descending, ties by ascending id.
fn exemplar_before(a: &Exemplar, b: &Exemplar) -> bool {
    match a.value.total_cmp(&b.value) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => a.req < b.req,
    }
}

/// Offers the observation `(value, req)` to the rank-ordered exemplar
/// list `list`, keeping at most [`EXEMPLAR_K`] entries; `fields` is only
/// invoked when the observation is retained.
fn exemplar_offer(
    list: &mut Vec<Exemplar>,
    value: f64,
    req: u64,
    fields: impl FnOnce() -> Vec<(Name, EventValue)>,
) {
    let candidate = Exemplar {
        value,
        req,
        fields: Vec::new(),
    };
    // A full list keeps the candidate only if it ranks before the last.
    if list.len() >= EXEMPLAR_K && exemplar_before(&list[EXEMPLAR_K - 1], &candidate) {
        return;
    }
    let pos = list.partition_point(|e| exemplar_before(e, &candidate));
    list.insert(
        pos,
        Exemplar {
            fields: fields(),
            ..candidate
        },
    );
    list.truncate(EXEMPLAR_K);
}

/// Count/sum/min/max digest of every [`observe`] call on one histogram.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: u64,
    /// Sum of all observed values.
    pub sum: f64,
    /// Smallest observed value.
    pub min: f64,
    /// Largest observed value.
    pub max: f64,
}

impl HistogramSummary {
    /// Folds another summary into this one: counts add, extremes widen,
    /// and `other`'s `sum` is added as one value. That is the `sum` that
    /// recording `other`'s observations here would reach only when `f64`
    /// addition is exact on them, since inline recording adds them one at
    /// a time (see [`absorb`]).
    fn merge(&mut self, other: &HistogramSummary) {
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    fn record(&mut self, value: f64) {
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    fn new(value: f64) -> Self {
        HistogramSummary {
            count: 1,
            sum: value,
            min: value,
            max: value,
        }
    }
}

/// A histogram's slot in a live scope: its digest and, once observed
/// with [`observe_with_exemplar`], its retained exemplars.
struct HistogramSlot {
    summary: HistogramSummary,
    exemplars: Option<Vec<Exemplar>>,
}

impl HistogramSlot {
    fn new(summary: HistogramSummary) -> HistogramSlot {
        HistogramSlot {
            summary,
            exemplars: None,
        }
    }
}

/// All metric instruments of one [`collect`] scope, sorted by name.
///
/// Serializes as three JSON objects (`counters`, `gauges`,
/// `histograms`) keyed by metric name; key order is the sorted name
/// order, so serialization is byte-deterministic.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Monotonic sums, `(name, total)`, sorted by name.
    pub counters: Vec<(String, f64)>,
    /// Last-write-wins values, `(name, value)`, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Distribution digests, `(name, summary)`, sorted by name.
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Retained top-[`EXEMPLAR_K`] observations per histogram recorded
    /// via [`observe_with_exemplar`], `(name, rank-ordered exemplars)`,
    /// sorted by name. Histograms observed without exemplars do not
    /// appear.
    pub exemplars: Vec<(String, Vec<Exemplar>)>,
}

impl MetricsSnapshot {
    /// True when no instrument recorded anything in the scope.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.gauges.is_empty()
            && self.histograms.is_empty()
            && self.exemplars.is_empty()
    }
}

/// Serializes `(name, value)` pairs as a JSON object.
struct AsMap<'a, K, V>(&'a [(K, V)]);

impl<K: Serialize, V: Serialize> Serialize for AsMap<'_, K, V> {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut map = serializer.serialize_map(Some(self.0.len()))?;
        for (name, value) in self.0 {
            map.serialize_key(name)?;
            map.serialize_value(value)?;
        }
        map.end()
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let mut st = serializer.serialize_struct("MetricsSnapshot", 4)?;
        st.serialize_field("counters", &AsMap(&self.counters))?;
        st.serialize_field("gauges", &AsMap(&self.gauges))?;
        st.serialize_field("histograms", &AsMap(&self.histograms))?;
        st.serialize_field("exemplars", &AsMap(&self.exemplars))?;
        st.end()
    }
}

/// Records per block of a [`Records`] list.
const BLOCK: usize = 256;

/// A scope's events or spans, in record order.
///
/// Held in blocks of a fixed number of records: growing the list adds a
/// block and never moves a record, and a dropped report hands back
/// blocks of one ordinary size, which the allocator reuses for the next
/// scope's.
#[derive(Clone, PartialEq)]
pub struct Records<T> {
    blocks: Vec<Vec<T>>,
    len: usize,
}

impl<T> Records<T> {
    /// Number of records.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when there are no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The records in order.
    #[inline]
    pub fn iter(&self) -> std::iter::Flatten<std::slice::Iter<'_, Vec<T>>> {
        self.blocks.iter().flatten()
    }

    fn get(&self, index: usize) -> Option<&T> {
        self.blocks.get(index / BLOCK)?.get(index % BLOCK)
    }

    fn get_mut(&mut self, index: usize) -> Option<&mut T> {
        self.blocks.get_mut(index / BLOCK)?.get_mut(index % BLOCK)
    }

    fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.blocks.iter_mut().flatten()
    }

    #[inline]
    fn push(&mut self, record: T) {
        match self.blocks.last_mut() {
            Some(block) if block.len() < BLOCK => block.push(record),
            _ => self.push_block(record),
        }
        self.len += 1;
    }

    #[cold]
    fn push_block(&mut self, record: T) {
        let mut block = Vec::with_capacity(BLOCK);
        block.push(record);
        self.blocks.push(block);
    }
}

impl<T> Default for Records<T> {
    fn default() -> Self {
        Records {
            blocks: Vec::new(),
            len: 0,
        }
    }
}

impl<T> std::ops::Index<usize> for Records<T> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        self.get(index).unwrap_or_else(|| {
            panic!("record {index} of {}", self.len);
        })
    }
}

impl<'a, T> IntoIterator for &'a Records<T> {
    type Item = &'a T;
    type IntoIter = std::iter::Flatten<std::slice::Iter<'a, Vec<T>>>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl<T: std::fmt::Debug> std::fmt::Debug for Records<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// Everything recorded inside one [`collect`] scope.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Counter/gauge/histogram totals, sorted by name.
    pub metrics: MetricsSnapshot,
    /// Trace events in record order (`seq` is the index).
    pub events: Records<Event>,
    /// Simulated-time spans in begin order (`seq` is the index). Spans
    /// still open when the scope closed are force-closed at the latest
    /// simulated instant the scope observed.
    pub spans: Records<Span>,
    /// Final value of the scope's simulated clock (nanoseconds).
    pub clock_ns: u64,
}

impl Report {
    /// True when the scope recorded no metrics, events, or spans.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty() && self.events.is_empty() && self.spans.is_empty()
    }
}

/// FxHash (rustc's word-at-a-time multiply-rotate): a fixed hasher for
/// short metric names. Slot order never shows, the report sorts them.
#[derive(Default)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        let mut words = bytes.chunks_exact(8);
        for w in &mut words {
            self.add(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        let rest = words.remainder();
        if !rest.is_empty() {
            // The last eight bytes, overlapping the words above, or all of
            // a shorter string's.
            let tail = match bytes.len().checked_sub(8) {
                Some(at) => u64::from_le_bytes(bytes[at..].try_into().expect("8 bytes")),
                None => rest.iter().fold(0, |w, &b| w << 8 | u64::from(b)),
            };
            self.add(tail);
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn finish(&self) -> u64 {
        // The multiply leaves the high bits best mixed; the table indexes
        // with the low ones.
        self.0.rotate_left(26)
    }
}

/// The process-wide table of names: metric names, whose ids index every
/// scope's slots, the names built at run time and the `Str` labels rows
/// refer to by id, and the key lists of rows built at run time. Each is
/// stored once, for the life of the process.
struct Registry {
    /// Indexed by id.
    names: Vec<&'static str>,
    ids: HashMap<&'static str, u32, BuildHasherDefault<FxHasher>>,
    key_lists: HashSet<&'static [&'static str], BuildHasherDefault<FxHasher>>,
}

impl Registry {
    /// The id and the stored copy of `name`, storing it on first sight.
    fn intern(&mut self, name: &str) -> (usize, &'static str) {
        if let Some((&stored, &id)) = self.ids.get_key_value(name) {
            return (id as usize, stored);
        }
        let id = u32::try_from(self.names.len()).expect("fewer than 2^32 names");
        let stored: &'static str = Box::leak(name.into());
        self.names.push(stored);
        self.ids.insert(stored, id);
        (id as usize, stored)
    }

    /// The stored copy of the key list `keys`, storing it on first sight.
    fn key_list(&mut self, keys: &[&'static str]) -> &'static [&'static str] {
        if let Some(&stored) = self.key_lists.get(keys) {
            return stored;
        }
        let stored: &'static [&'static str] = Box::leak(keys.into());
        self.key_lists.insert(stored);
        stored
    }
}

static REGISTRY: Mutex<Registry> = Mutex::new(Registry {
    names: Vec::new(),
    ids: HashMap::with_hasher(BuildHasherDefault::new()),
    key_lists: HashSet::with_hasher(BuildHasherDefault::new()),
});

fn registry() -> MutexGuard<'static, Registry> {
    REGISTRY
        .lock()
        .expect("no thread panics while holding the name table")
}

/// A metric name resolved to its id on first use.
#[derive(Debug)]
struct Resolved {
    name: &'static str,
    /// 1 + the name's id; 0 until first use.
    id: AtomicU32,
}

impl Resolved {
    const fn new(name: &'static str) -> Resolved {
        Resolved {
            name,
            id: AtomicU32::new(0),
        }
    }

    fn interned(name: &str) -> Resolved {
        let (id, name) = registry().intern(name);
        Resolved {
            name,
            id: AtomicU32::new(id as u32 + 1),
        }
    }

    #[inline]
    fn id(&self) -> usize {
        // Relaxed: the id is the only data published here. Whoever reads
        // the name behind it does so under the registry's lock.
        match self.id.load(Ordering::Relaxed) {
            0 => self.resolve(),
            id => id as usize - 1,
        }
    }

    #[cold]
    fn resolve(&self) -> usize {
        let id = registry().intern(self.name).0;
        self.id.store(id as u32 + 1, Ordering::Relaxed);
        id
    }
}

impl Clone for Resolved {
    fn clone(&self) -> Resolved {
        Resolved {
            name: self.name,
            id: AtomicU32::new(self.id.load(Ordering::Relaxed)),
        }
    }
}

/// A counter handle: [`count`] without a name lookup per call.
///
/// A literal name makes a `static`, resolved on first use:
///
/// ```
/// static CALLS: emb_telemetry::Counter = emb_telemetry::Counter::new("cache.gathers");
///
/// let ((), report) = emb_telemetry::collect(|| CALLS.add(2.0));
/// assert_eq!(report.metrics.counters, vec![("cache.gathers".to_string(), 2.0)]);
/// ```
#[derive(Debug, Clone)]
pub struct Counter(Resolved);

impl Counter {
    /// The counter `name`.
    pub const fn new(name: &'static str) -> Counter {
        Counter(Resolved::new(name))
    }

    /// The counter under a name built at run time, resolved now. The
    /// name is kept for the life of the process: build one handle per
    /// name and keep it, as `gpu-memsim`'s per-link table does.
    pub fn named(name: &str) -> Counter {
        Counter(Resolved::interned(name))
    }

    /// Adds `delta` to the counter in the active scope, like [`count`].
    #[inline]
    pub fn add(&self, delta: f64) {
        with_active(|c| add(&mut c.counters, self.0.id(), delta));
    }
}

/// A histogram handle: [`observe`] and [`observe_with_exemplar`]
/// without a name lookup per call. Built like a [`Counter`].
#[derive(Debug, Clone)]
pub struct Histogram(Resolved);

impl Histogram {
    /// The histogram `name`.
    pub const fn new(name: &'static str) -> Histogram {
        Histogram(Resolved::new(name))
    }

    /// Records `value` in the active scope, like [`observe`].
    #[inline]
    pub fn observe(&self, value: f64) {
        with_active(|c| record(&mut c.histograms, self.0.id(), value));
    }

    /// Records `value` and offers it as an exemplar of `req`, like
    /// [`observe_with_exemplar`].
    #[inline]
    pub fn observe_with_exemplar(
        &self,
        value: f64,
        req: ReqId,
        fields: impl FnOnce() -> Vec<(Name, EventValue)>,
    ) {
        with_active(|c| offer(&mut c.histograms, self.0.id(), value, req, fields));
    }
}

/// One instrument kind's slots in a scope, indexed by name id.
type Slots<V> = Vec<Option<V>>;

/// The slot of id `id`, growing `slots` to hold it.
#[inline]
fn slot<V>(slots: &mut Slots<V>, id: usize) -> &mut Option<V> {
    if id >= slots.len() {
        slots.resize_with(id + 1, || None);
    }
    &mut slots[id]
}

fn add(counters: &mut Slots<f64>, id: usize, delta: f64) {
    match slot(counters, id) {
        Some(total) => *total += delta,
        empty => *empty = Some(delta),
    }
}

fn record(histograms: &mut Slots<HistogramSlot>, id: usize, value: f64) {
    match slot(histograms, id) {
        Some(h) => h.summary.record(value),
        empty => *empty = Some(HistogramSlot::new(HistogramSummary::new(value))),
    }
}

fn offer(
    histograms: &mut Slots<HistogramSlot>,
    id: usize,
    value: f64,
    req: ReqId,
    fields: impl FnOnce() -> Vec<(Name, EventValue)>,
) {
    let h = match slot(histograms, id) {
        Some(h) => {
            h.summary.record(value);
            h
        }
        empty => empty.insert(HistogramSlot::new(HistogramSummary::new(value))),
    };
    let list = h.exemplars.get_or_insert_with(Vec::new);
    exemplar_offer(list, value, req.0, fields);
}

/// The filled slots as `(name, value)` pairs sorted by name.
fn sorted<V>(slots: Slots<V>, names: &[&'static str]) -> Vec<(String, V)> {
    let mut pairs: Vec<(String, V)> = slots
        .into_iter()
        .enumerate()
        .filter_map(|(id, v)| Some((names[id].to_string(), v?)))
        .collect();
    pairs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
    pairs
}

#[derive(Default)]
struct Collector {
    /// Unique id tying [`SpanId`] handles to this scope.
    id: u64,
    counters: Slots<f64>,
    gauges: Slots<f64>,
    histograms: Slots<HistogramSlot>,
    events: Records<Event>,
    spans: Records<Span>,
    /// Number of spans begun and not yet ended (open spans carry
    /// `end_ns == u64::MAX` as an in-progress sentinel).
    open_spans: usize,
    clock_ns: u64,
}

impl Collector {
    fn into_report(mut self) -> Report {
        let names = &registry().names;
        let (mut histograms, mut exemplars) = (Vec::new(), Vec::new());
        for (name, h) in sorted(self.histograms, names) {
            if let Some(list) = h.exemplars {
                exemplars.push((name.clone(), list));
            }
            histograms.push((name, h.summary));
        }
        // Force-close any span left open (e.g. a lifecycle span whose end
        // condition never fired before the scope ended) at the latest
        // instant the scope saw, so reports always hold well-formed spans.
        if self.open_spans > 0 {
            let horizon = self
                .spans
                .iter()
                .map(|s| {
                    if s.end_ns == u64::MAX {
                        s.start_ns
                    } else {
                        s.end_ns
                    }
                })
                .max()
                .unwrap_or(0)
                .max(self.clock_ns);
            for s in self.spans.iter_mut() {
                if s.end_ns == u64::MAX {
                    s.end_ns = s.start_ns.max(horizon);
                }
            }
        }
        Report {
            metrics: MetricsSnapshot {
                counters: sorted(self.counters, names),
                gauges: sorted(self.gauges, names),
                histograms,
                exemplars,
            },
            events: self.events,
            spans: self.spans,
            clock_ns: self.clock_ns,
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<Collector>> = const { RefCell::new(Vec::new()) };
    /// Monotonic source of scope ids; 0 is reserved for "no scope".
    static NEXT_SCOPE_ID: Cell<u64> = const { Cell::new(1) };
}

/// Pops the collector pushed by [`collect`] even if the closure panics,
/// so a panicking scope cannot leave the thread-local stack corrupted.
struct ScopeGuard;

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        STACK.with(|s| s.borrow_mut().pop());
    }
}

/// Runs `f` with a fresh telemetry scope and returns its result together
/// with everything recorded inside.
///
/// Scopes nest: recordings go to the innermost scope only, so a caller
/// that wraps an already-instrumented harness observes nothing from the
/// inner scope. The scope is thread-local — work `f` spawns onto other
/// threads is not captured.
///
/// # Panics
///
/// Propagates any panic from `f` (after unwinding the scope, so the
/// thread's telemetry stack stays usable).
pub fn collect<R>(f: impl FnOnce() -> R) -> (R, Report) {
    let id = NEXT_SCOPE_ID.with(|n| {
        let id = n.get();
        n.set(id.wrapping_add(1).max(1));
        id
    });
    STACK.with(|s| {
        s.borrow_mut().push(Collector {
            id,
            ..Collector::default()
        })
    });
    let guard = ScopeGuard;
    let result = f();
    std::mem::forget(guard);
    let collector = STACK
        .with(|s| s.borrow_mut().pop())
        .expect("scope pushed above");
    (result, collector.into_report())
}

/// True when a [`collect`] scope is active on this thread.
///
/// Code that owns dynamic names (e.g. `gpu-memsim`'s
/// `memsim.link.gpu{i}...` table) should build them only once this
/// returns true, so the disabled path stays allocation-free; plain
/// `&'static str` call sites don't need to.
pub fn enabled() -> bool {
    STACK.with(|s| !s.borrow().is_empty())
}

fn with_active(f: impl FnOnce(&mut Collector)) {
    STACK.with(|s| {
        if let Some(c) = s.borrow_mut().last_mut() {
            f(c);
        }
    });
}

/// Adds `delta` to the counter `name` (created at 0) in the active
/// scope; no-op when no scope is active.
pub fn count(name: &str, delta: f64) {
    with_active(|c| add(&mut c.counters, registry().intern(name).0, delta));
}

/// Sets the gauge `name` to `value` (last write wins) in the active
/// scope; no-op when no scope is active.
pub fn gauge(name: &str, value: f64) {
    with_active(|c| *slot(&mut c.gauges, registry().intern(name).0) = Some(value));
}

/// Records `value` into the histogram `name` in the active scope; no-op
/// when no scope is active.
pub fn observe(name: &str, value: f64) {
    with_active(|c| record(&mut c.histograms, registry().intern(name).0, value));
}

/// Records `value` into the histogram `name` like [`observe`], and
/// additionally offers it as an exemplar linked to request `req`.
///
/// Each histogram keeps its [`EXEMPLAR_K`] largest exemplar
/// observations (value descending, ties broken by ascending id — see
/// [`Exemplar`]); `fields` is only invoked when the observation
/// actually enters the retained set, so context building costs nothing
/// for non-tail observations — and, like every recorder, the whole call
/// is a no-op (and allocation-free) when no scope is active.
pub fn observe_with_exemplar(
    name: &str,
    value: f64,
    req: ReqId,
    fields: impl FnOnce() -> Vec<(Name, EventValue)>,
) {
    with_active(|c| {
        // Resolved first: `fields` may intern names itself.
        let id = registry().intern(name).0;
        offer(&mut c.histograms, id, value, req, fields);
    });
}

/// Appends a trace event named `name` to the active scope; `fields` is
/// only invoked when a scope is active, so building the payload costs
/// nothing when telemetry is disabled. Call sites return a literal-keyed
/// row, `|| Fields::new(&["bytes"], &[bytes.into()])`.
pub fn event<F: Into<Fields>>(name: impl Into<Name>, fields: impl FnOnce() -> F) {
    with_active(|c| {
        let seq = c.events.len() as u64;
        c.events.push(Event {
            seq,
            name: name.into(),
            fields: fields().into(),
        });
    });
}

/// Merges a child-scope [`Report`] into the active scope, in the
/// child's order, at the moment of this call.
///
/// This is the merge half of the deterministic worker-pool contract
/// (`emb_util::pool`): parallel chunks record into per-worker child
/// scopes ([`collect`] opened on the worker thread) and the caller
/// absorbs the resulting reports **in chunk-index order**. Semantics:
///
/// * **Counters** add the child's totals; **gauges** take the child's
///   value (last write wins, in absorb order); **histograms** fold the
///   child's digest in ([`HistogramSummary`] count/sum/min/max) and
///   re-rank the child's exemplars into the parent's retained top-K
///   (the rank order is a total order, so the merged set equals the
///   inline-recorded one regardless of chunking).
/// * **Events** are appended with fresh sequence numbers continuing the
///   parent's stream.
/// * **Spans** are appended with fresh sequence numbers and rebased onto
///   the parent timeline: the child's instant 0 maps to the parent's
///   current [`clock_ns`] cursor, and afterwards the parent clock
///   advances by the child's final clock value, so successive absorbed
///   children lay out sequentially exactly as if they had run inline.
///
/// Events, spans, gauges, counts, extremes and exemplars come out as if
/// the children had run inline. Counter totals and histogram sums need
/// not: the child's total is added as one `f64`, so recording 0.1 here
/// and absorbing a child that counted 0.2 and 0.3 gives 0.6 where
/// counting all three inline gives 0.6000000000000001. The law that
/// holds is the pool's: it opens a child scope for every chunk at every
/// width, one included, so the same chunks are absorbed in the same
/// order and every result is bit-identical across worker counts. No-op
/// when no scope is active.
pub fn absorb(child: &Report) {
    with_active(|c| {
        let base = c.clock_ns;
        let mut registry = registry();
        for &(ref name, delta) in &child.metrics.counters {
            add(&mut c.counters, registry.intern(name).0, delta);
        }
        for &(ref name, value) in &child.metrics.gauges {
            *slot(&mut c.gauges, registry.intern(name).0) = Some(value);
        }
        for (name, summary) in &child.metrics.histograms {
            match slot(&mut c.histograms, registry.intern(name).0) {
                Some(h) => h.summary.merge(summary),
                empty => *empty = Some(HistogramSlot::new(*summary)),
            }
        }
        for (name, child_list) in &child.metrics.exemplars {
            let h = slot(&mut c.histograms, registry.intern(name).0).as_mut();
            let list = h
                .expect("a histogram with exemplars is in the histograms list")
                .exemplars
                .get_or_insert_with(Vec::new);
            for x in child_list {
                exemplar_offer(list, x.value, x.req, || x.fields.clone());
            }
        }
        for event in &child.events {
            let seq = c.events.len() as u64;
            c.events.push(Event {
                seq,
                name: event.name,
                fields: event.fields,
            });
        }
        for span in &child.spans {
            let seq = c.spans.len() as u64;
            c.spans.push(Span {
                seq,
                track: span.track,
                name: span.name,
                start_ns: base.saturating_add(span.start_ns),
                end_ns: base.saturating_add(span.end_ns),
                fields: span.fields,
            });
        }
        c.clock_ns = c.clock_ns.saturating_add(child.clock_ns);
    });
}

/// The active scope's simulated clock cursor in nanoseconds (0 when no
/// scope is active).
///
/// The cursor is how independent instrumented computations lay out
/// sequentially on one scope timeline: code that simulates a window of
/// virtual time reads the cursor as its base instant, records spans at
/// `base + offset`, and [`advance_clock_ns`]-es the cursor past the
/// window when done.
pub fn clock_ns() -> u64 {
    STACK.with(|s| s.borrow().last().map_or(0, |c| c.clock_ns))
}

/// Advances the active scope's simulated clock by `delta_ns`
/// (saturating); no-op when no scope is active.
pub fn advance_clock_ns(delta_ns: u64) {
    with_active(|c| c.clock_ns = c.clock_ns.saturating_add(delta_ns));
}

/// Records a completed simulated-time span on `track`; `fields` is only
/// invoked when a scope is active (pass `Fields::default` for none).
/// `end_ns` is clamped up to `start_ns` so spans never have negative
/// duration. No-op when no scope is active.
pub fn span<F: Into<Fields>>(
    track: impl Into<Name>,
    name: impl Into<Name>,
    start_ns: u64,
    end_ns: u64,
    fields: impl FnOnce() -> F,
) {
    with_active(|c| {
        let seq = c.spans.len() as u64;
        c.spans.push(Span {
            seq,
            track: track.into(),
            name: name.into(),
            start_ns,
            end_ns: end_ns.max(start_ns),
            fields: fields().into(),
        });
    });
}

/// Opens a span on `track` at `start_ns` and returns a handle for
/// [`span_end`].
///
/// When no scope is active the returned handle is inert and nothing is
/// recorded (or allocated). A span still open when its scope closes is
/// force-closed at the latest simulated instant the scope observed —
/// see [`Report::spans`].
pub fn span_begin(track: impl Into<Name>, name: impl Into<Name>, start_ns: u64) -> SpanId {
    let mut id = SpanId::DISABLED;
    with_active(|c| {
        let seq = c.spans.len() as u64;
        id = SpanId {
            scope: c.id,
            idx: c.spans.len(),
        };
        c.open_spans += 1;
        c.spans.push(Span {
            seq,
            track: track.into(),
            name: name.into(),
            start_ns,
            end_ns: u64::MAX,
            fields: Fields::default(),
        });
    });
    id
}

/// Closes the span opened as `id` at `end_ns` (clamped up to the span's
/// start) and gives it the `fields` the closer supplies — a span has
/// none until it is closed.
///
/// Finds the owning scope even from inside a nested [`collect`] — a
/// lifecycle span begun in an outer scope can be ended while an inner
/// scope is active. No-op when the handle is inert, the owning scope is
/// gone, or the span was already ended.
pub fn span_end<F: Into<Fields>>(id: SpanId, end_ns: u64, fields: impl FnOnce() -> F) {
    if id.scope == 0 {
        return;
    }
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let Some(c) = stack.iter_mut().rev().find(|c| c.id == id.scope) else {
            return;
        };
        let Some(span) = c.spans.get_mut(id.idx) else {
            return;
        };
        if span.end_ns != u64::MAX {
            return; // already closed
        }
        span.end_ns = end_ns.max(span.start_ns);
        span.fields = fields().into();
        c.open_spans -= 1;
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_sink_records_nothing() {
        count("x", 1.0);
        gauge("y", 2.0);
        observe("z", 3.0);
        event("e", || Fields::new(&["k"], &[1u64.into()]));
        let ((), report) = collect(|| {});
        assert!(report.is_empty(), "pre-scope records must not leak in");
    }

    #[test]
    fn collect_captures_sorted_metrics_and_ordered_events() {
        let (val, report) = collect(|| {
            count("b.count", 2.0);
            count("a.count", 1.0);
            count("b.count", 3.0);
            gauge("g", 1.0);
            gauge("g", 9.0);
            observe("h", 4.0);
            observe("h", 2.0);
            event("first", Fields::default);
            event("second", || {
                Fields::new(&["n"], &[EventValue::Str("x".into())])
            });
            42
        });
        assert_eq!(val, 42);
        assert_eq!(
            report.metrics.counters,
            vec![("a.count".to_string(), 1.0), ("b.count".to_string(), 5.0)]
        );
        assert_eq!(report.metrics.gauges, vec![("g".to_string(), 9.0)]);
        assert_eq!(
            report.metrics.histograms,
            vec![(
                "h".to_string(),
                HistogramSummary {
                    count: 2,
                    sum: 6.0,
                    min: 2.0,
                    max: 4.0
                }
            )]
        );
        assert_eq!(report.events.len(), 2);
        assert_eq!(report.events[0].seq, 0);
        assert_eq!(report.events[0].name, "first");
        assert_eq!(report.events[1].seq, 1);
        assert_eq!(report.events[1].fields.len(), 1);
    }

    #[test]
    fn nested_scopes_are_isolated() {
        let ((), outer) = collect(|| {
            count("outer", 1.0);
            let ((), inner) = collect(|| count("inner", 1.0));
            assert_eq!(inner.metrics.counters, vec![("inner".to_string(), 1.0)]);
        });
        assert_eq!(outer.metrics.counters, vec![("outer".to_string(), 1.0)]);
    }

    #[test]
    fn panicking_scope_unwinds_cleanly() {
        let caught = std::panic::catch_unwind(|| {
            let _ = collect(|| panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(!enabled(), "panicked scope must pop its collector");
        let ((), report) = collect(|| count("after", 1.0));
        assert_eq!(report.metrics.counters, vec![("after".to_string(), 1.0)]);
    }

    #[test]
    fn spans_record_in_begin_order_with_clock() {
        let ((), report) = collect(|| {
            assert_eq!(clock_ns(), 0);
            span("gpu0/link:nvlink->gpu1", "xfer", 0, 250, || {
                Fields::new(&["bytes"], &[4096u64.into()])
            });
            advance_clock_ns(1_000);
            span(
                "gpu0/cores",
                "stall",
                clock_ns(),
                clock_ns() + 50,
                Fields::default,
            );
            assert_eq!(clock_ns(), 1_000);
        });
        assert_eq!(report.spans.len(), 2);
        assert_eq!(report.spans[0].seq, 0);
        assert_eq!(report.spans[0].track, "gpu0/link:nvlink->gpu1");
        assert_eq!(report.spans[0].dur_ns(), 250);
        assert_eq!(report.spans[1].start_ns, 1_000);
        assert_eq!(report.spans[1].end_ns, 1_050);
        assert_eq!(report.clock_ns, 1_000);
    }

    #[test]
    fn interleaved_open_spans_close_independently() {
        let ((), report) = collect(|| {
            let a = span_begin("t", "a", 0);
            let b = span_begin("t", "b", 10);
            span_end(a, 30, || Fields::new(&["k"], &[1u64.into()]));
            span_end(b, 20, Fields::default);
            // Double-close is a no-op.
            span_end(a, 99, Fields::default);
        });
        assert_eq!(report.spans.len(), 2);
        assert_eq!((report.spans[0].start_ns, report.spans[0].end_ns), (0, 30));
        assert_eq!(report.spans[0].fields.len(), 1);
        assert_eq!((report.spans[1].start_ns, report.spans[1].end_ns), (10, 20));
    }

    #[test]
    fn outer_scope_span_ends_from_inside_nested_scope() {
        let ((), outer) = collect(|| {
            let id = span_begin("outer/track", "lifecycle", 5);
            let ((), inner) = collect(|| {
                span("inner/track", "work", 0, 1, Fields::default);
                span_end(id, 40, Fields::default);
            });
            assert_eq!(inner.spans.len(), 1, "inner scope sees only its own span");
        });
        assert_eq!(outer.spans.len(), 1);
        assert_eq!(outer.spans[0].end_ns, 40);
    }

    #[test]
    fn open_spans_are_force_closed_at_scope_horizon() {
        let ((), report) = collect(|| {
            let _never_ended = span_begin("t", "open", 100);
            span("t", "done", 0, 500, Fields::default);
            advance_clock_ns(700);
        });
        assert_eq!(report.spans.len(), 2);
        // Horizon = max(latest end, clock) = 700.
        assert_eq!(report.spans[0].end_ns, 700);
    }

    #[test]
    fn negative_duration_is_clamped_to_zero() {
        let ((), report) = collect(|| {
            span("t", "s", 50, 10, Fields::default);
            let id = span_begin("t", "g", 80);
            span_end(id, 20, Fields::default);
        });
        assert_eq!(report.spans[0].end_ns, 50);
        assert_eq!(report.spans[1].end_ns, 80);
    }

    #[test]
    fn disabled_span_handle_is_inert() {
        let id = span_begin("t", "s", 0);
        span_end(id, 10, Fields::default);
        advance_clock_ns(1_000);
        assert_eq!(clock_ns(), 0);
        let ((), report) = collect(|| {});
        assert!(report.spans.is_empty());
        assert_eq!(report.clock_ns, 0);
    }

    #[test]
    fn stale_span_handle_after_panic_is_a_noop() {
        let caught = std::panic::catch_unwind(|| {
            collect(|| {
                let id = span_begin("t", "s", 0);
                // Leak the id out via the panic payload path: just panic —
                // the scope (and its spans) are discarded on unwind.
                let _ = id;
                panic!("boom");
            })
        });
        assert!(caught.is_err());
        assert!(!enabled(), "panicked scope must pop its collector");
        // A fresh scope gets a fresh id; ending a span from a dead scope
        // inside it must not touch the new collector.
        let ((), report) = collect(|| {
            let live = span_begin("t", "live", 0);
            span_end(live, 10, Fields::default);
        });
        assert_eq!(report.spans.len(), 1);
        assert_eq!(report.spans[0].end_ns, 10);
    }

    #[test]
    fn absorb_matches_inline_recording_but_for_f64_sums() {
        // Two values per chunk and instrument: inline recording adds each
        // value to the running total, absorbing adds each chunk's subtotal.
        let counted = |k: u64| [0.1 * (k + 1) as f64, 0.2 * (k + 1) as f64];
        let observed = |k: u64| [1.0 / (k + 3) as f64, 1.0 / (k + 7) as f64];
        let chunk = move |k: u64| {
            move || {
                for (c, h) in counted(k).into_iter().zip(observed(k)) {
                    count("pool.items", c);
                    observe("pool.h", h);
                }
                gauge("pool.last", k as f64);
                event("pool.chunk", || Fields::new(&["k"], &[k.into()]));
                let base = clock_ns();
                span("t", "work", base, base + 10 * (k + 1), Fields::default);
                advance_clock_ns(10 * (k + 1));
            }
        };
        let ((), inline) = collect(|| (0..4).for_each(|k| chunk(k)()));
        let absorb_all = |reports: &[Report]| collect(|| reports.iter().for_each(absorb)).1;
        let reports: Vec<Report> = (0..4).map(|k| collect(chunk(k)).1).collect();
        let merged = absorb_all(&reports);

        // Sums: one `f64` add per value inline, one per chunk absorbed.
        let per_value = |values: &dyn Fn(u64) -> [f64; 2]| {
            (0..4).flat_map(values).reduce(|a, b| a + b).unwrap()
        };
        let per_chunk = |values: &dyn Fn(u64) -> [f64; 2]| {
            (0..4)
                .map(|k| values(k)[0] + values(k)[1])
                .reduce(|a, b| a + b)
                .unwrap()
        };
        let (inline_sum, merged_sum) = (per_value(&counted), per_chunk(&counted));
        assert_eq!((inline_sum, merged_sum), (3.0, 3.0000000000000004));
        assert_eq!(inline.metrics.counters[0].1, inline_sum);
        assert_eq!(merged.metrics.counters[0].1, merged_sum);
        let (inline_h, merged_h) = (
            inline.metrics.histograms[0].1,
            merged.metrics.histograms[0].1,
        );
        assert_eq!(inline_h.sum, per_value(&observed));
        assert_eq!(merged_h.sum, per_chunk(&observed));
        assert_ne!(inline_h.sum, merged_h.sum);
        // Everything else comes out as if the chunks had run inline.
        assert_eq!(
            (inline_h.count, inline_h.min, inline_h.max),
            (merged_h.count, merged_h.min, merged_h.max)
        );
        assert_eq!(inline.metrics.gauges, merged.metrics.gauges);
        assert_eq!(inline.events, merged.events);
        assert_eq!(inline.spans, merged.spans);
        assert_eq!(inline.clock_ns, merged.clock_ns);

        // The law that holds: the same chunks absorbed in the same order
        // give the same bits whichever threads recorded them, which is
        // what keeps a pool's output the same at every width.
        let threaded: Vec<Report> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4)
                .map(|k| s.spawn(move || collect(chunk(k)).1))
                .collect();
            workers
                .into_iter()
                .map(|w| w.join().expect("chunk ran"))
                .collect()
        });
        let merged_on_threads = absorb_all(&threaded);
        assert_eq!(merged_on_threads, merged);
        assert_eq!(
            merged_on_threads.metrics.counters[0].1.to_bits(),
            merged_sum.to_bits()
        );
    }

    /// Every word of every row, as stored: `PartialEq` on `f64` cannot
    /// tell `-0.0` from `0.0` or see a NaN equal to itself.
    fn row_words(report: &Report) -> Vec<(u16, [u64; MAX_FIELDS])> {
        let rows = report.events.iter().map(|e| &e.fields);
        rows.chain(report.spans.iter().map(|s| &s.fields))
            .map(|f| (f.kinds, f.words))
            .collect()
    }

    #[test]
    fn absorbed_rows_equal_inline_rows_word_for_word() {
        let chunk = |k: u64| {
            move || {
                let x = f64::from_bits(0x8000_0000_0000_0001 ^ k.rotate_left(52));
                event("row.mixed", || {
                    Fields::new(
                        &["k", "x", "neg_zero", "nan", "label"],
                        &[
                            k.into(),
                            x.into(),
                            (-0.0f64).into(),
                            f64::from_bits(0x7ff8_0000_dead_beef).into(),
                            EventValue::Str(
                                if k.is_multiple_of(2) { "even" } else { "odd" }.into(),
                            ),
                        ],
                    )
                });
                let base = clock_ns();
                let id = span_begin("t", "open", base);
                span("t", "work", base, base + k + 1, || {
                    Fields::new(&["bits"], &[u64::MAX - k].map(EventValue::from))
                });
                span_end(id, base + k + 2, || {
                    Fields::new(&["secs"], &[1e-300.into()])
                });
                advance_clock_ns(k + 2);
            }
        };
        let ((), inline) = collect(|| (0..5).for_each(|k| chunk(k)()));
        let ((), merged) = collect(|| {
            for k in 0..5 {
                absorb(&collect(chunk(k)).1);
            }
        });
        assert_eq!(row_words(&inline), row_words(&merged));
        assert_eq!(inline.spans, merged.spans);
        assert_eq!(inline.clock_ns, merged.clock_ns);
        let names = |r: &Report| {
            r.events
                .iter()
                .map(|e| e.name.to_string())
                .collect::<Vec<_>>()
        };
        assert_eq!(names(&inline), names(&merged));
    }

    #[test]
    fn rows_read_back_every_value_exactly() {
        let values = [
            EventValue::U64(u64::MAX),
            EventValue::F64(-0.0),
            EventValue::F64(f64::from_bits(1)), // smallest subnormal
            EventValue::F64(0.1 + 0.2),
            EventValue::F64(f64::NEG_INFINITY),
            EventValue::Str("factored".into()),
            EventValue::Str(Name::from("gpu3/cores".to_string())),
            EventValue::U64(0),
        ];
        const KEYS: &[&str] = &["a", "b", "c", "d", "e", "f", "g", "h"];
        let row = Fields::new(KEYS, &values);
        assert_eq!(row.len(), MAX_FIELDS);
        for (i, (key, value)) in row.iter().enumerate() {
            assert_eq!(key, KEYS[i]);
            match (&value, &values[i]) {
                (EventValue::F64(a), EventValue::F64(b)) => assert_eq!(a.to_bits(), b.to_bits()),
                (a, b) => assert_eq!(a, b),
            }
        }
        assert_eq!(row.get("f"), Some(EventValue::Str("factored".into())));
        assert_eq!(row.get("z"), None);
        // A list built at run time is the same row.
        let pairs: Vec<(Name, EventValue)> =
            KEYS.iter().map(|&k| Name::from(k)).zip(values).collect();
        let built = Fields::from(pairs);
        assert_eq!(built, row);
        assert_eq!((built.kinds, built.words), (row.kinds, row.words));
        assert!(Fields::default().is_empty());
    }

    #[test]
    #[should_panic(expected = "one value per key")]
    fn a_row_needs_one_value_per_key() {
        let _ = Fields::new(&["a", "b"], &[1u64.into()]);
    }

    #[test]
    fn absorb_is_deterministic_for_f64_sums() {
        // Chunk subtotals are folded in chunk order, so the parent total
        // is bit-identical no matter which thread produced each report.
        let mk = |k: usize| {
            collect(|| {
                for i in 0..7 {
                    count("c", 0.1 * (k * 7 + i) as f64);
                    observe("h", 0.3 * (k + i) as f64);
                }
            })
            .1
        };
        let reports: Vec<Report> = (0..3).map(mk).collect();
        let run = || {
            collect(|| {
                for r in &reports {
                    absorb(r);
                }
            })
            .1
        };
        let (a, b) = (run(), run());
        assert_eq!(
            a.metrics.counters[0].1.to_bits(),
            b.metrics.counters[0].1.to_bits()
        );
        assert_eq!(a, b);
    }

    #[test]
    fn absorb_outside_scope_is_a_noop() {
        let ((), child) = collect(|| count("x", 1.0));
        absorb(&child); // no active scope
        let ((), report) = collect(|| {});
        assert!(report.is_empty());
    }

    #[test]
    fn absorb_rebases_spans_and_advances_clock() {
        let ((), child) = collect(|| {
            span("t", "s", 5, 15, Fields::default);
            advance_clock_ns(20);
        });
        let ((), parent) = collect(|| {
            advance_clock_ns(100);
            absorb(&child);
            absorb(&child);
        });
        assert_eq!(parent.spans.len(), 2);
        assert_eq!(
            (parent.spans[0].start_ns, parent.spans[0].end_ns),
            (105, 115)
        );
        assert_eq!(
            (parent.spans[1].start_ns, parent.spans[1].end_ns),
            (125, 135)
        );
        assert_eq!(parent.clock_ns, 140);
        assert_eq!(parent.spans[1].seq, 1);
    }

    #[test]
    fn exemplars_keep_top_k_by_value_then_id() {
        let ((), report) = collect(|| {
            // 2 * EXEMPLAR_K observations, values 0..16, shuffled-ish
            // record order; only the largest EXEMPLAR_K survive.
            for i in [3u64, 11, 0, 15, 7, 12, 1, 9, 14, 2, 8, 13, 4, 10, 5, 6] {
                observe_with_exemplar("h", i as f64, ReqId(i), || {
                    vec![("i".into(), EventValue::U64(i))]
                });
            }
        });
        let (name, list) = &report.metrics.exemplars[0];
        assert_eq!(name, "h");
        assert_eq!(list.len(), EXEMPLAR_K);
        let values: Vec<f64> = list.iter().map(|e| e.value).collect();
        assert_eq!(values, vec![15.0, 14.0, 13.0, 12.0, 11.0, 10.0, 9.0, 8.0]);
        // Retained entries kept their context fields.
        assert_eq!(list[0].fields, vec![("i".into(), EventValue::U64(15))]);
        // The histogram digest still counts every observation.
        let (_, h) = &report.metrics.histograms[0];
        assert_eq!(h.count, 16);
    }

    #[test]
    fn exemplar_ties_break_by_ascending_id() {
        let ((), a) = collect(|| {
            for req in [5u64, 1, 9, 3, 7, 2, 8, 4, 6, 0] {
                observe_with_exemplar("h", 1.0, ReqId(req), Vec::new);
            }
        });
        // All values equal: the K smallest ids survive, in id order.
        let ids: Vec<u64> = a.metrics.exemplars[0].1.iter().map(|e| e.req).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4, 5, 6, 7]);
        // Selection is a pure function of the (value, id) multiset:
        // reversed record order yields the identical report.
        let ((), b) = collect(|| {
            for req in [0u64, 6, 4, 8, 2, 7, 3, 9, 1, 5] {
                observe_with_exemplar("h", 1.0, ReqId(req), Vec::new);
            }
        });
        assert_eq!(a.metrics.exemplars, b.metrics.exemplars);
    }

    #[test]
    fn exemplars_merge_through_absorb_like_inline_recording() {
        let obs: Vec<(f64, u64)> = (0..24)
            .map(|i| (((i * 13) % 24) as f64 * 0.5, i as u64))
            .collect();
        let record = |chunk: &[(f64, u64)]| {
            for &(v, r) in chunk {
                observe_with_exemplar("lat", v, ReqId(r), || {
                    vec![("r".into(), EventValue::U64(r))]
                });
            }
        };
        let ((), inline) = collect(|| record(&obs));
        for split in [1usize, 3, 7, 24] {
            let ((), merged) = collect(|| {
                for chunk in obs.chunks(split) {
                    let ((), child) = collect(|| record(chunk));
                    absorb(&child);
                }
            });
            assert_eq!(
                inline.metrics.exemplars, merged.metrics.exemplars,
                "split {split}"
            );
            assert_eq!(inline.metrics.histograms, merged.metrics.histograms);
        }
    }

    #[test]
    fn an_exemplar_context_can_intern_names() {
        let ((), report) = collect(|| {
            observe_with_exemplar("h", 1.0, ReqId(1), || {
                vec![(
                    Name::from("dyn".to_string()),
                    EventValue::Str("x".to_string().into()),
                )]
            });
        });
        let (_, list) = &report.metrics.exemplars[0];
        assert_eq!(
            list[0].fields,
            vec![("dyn".into(), EventValue::Str("x".into()))]
        );
    }

    #[test]
    fn exemplar_outside_scope_is_a_noop() {
        observe_with_exemplar("h", 1.0, ReqId(1), || {
            vec![("k".into(), EventValue::U64(1))]
        });
        let ((), report) = collect(|| {});
        assert!(report.is_empty());
    }

    #[test]
    fn identical_computations_produce_identical_reports() {
        let run = || {
            collect(|| {
                for i in 0..5 {
                    count("c", i as f64);
                    observe("h", (i * i) as f64);
                    span("t", "step", i * 10, i * 10 + 5, Fields::default);
                    advance_clock_ns(10);
                }
                event("done", || Fields::new(&["n"], &[5u64.into()]));
            })
            .1
        };
        assert_eq!(run(), run());
    }
}
