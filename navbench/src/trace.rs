//! In-memory spans for the traced run, with a per-span-name and per-layer
//! self-time rollup.
//!
//! A span is a name, a start, an end, its parent span and the request or
//! trial it belongs to. A span's *self time* is its duration minus the time
//! its child spans cover; children of one parent never overlap, so the
//! covered time is the sum of their durations. The rollup is kept online as
//! spans close, so it covers every span even when the stored span list hits
//! its cap. The layer of a span is its name up to the first `.`
//! (`nn.conv` belongs to `nn`).

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::time::Instant;

/// The layer of the root spans that hold one trial or training run
/// (`campaign.trial`, `campaign.run`). Their self time is what no layer
/// span covers.
pub const ROOT_LAYER: &str = "campaign";

/// Identifies one span of a [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(u64);

/// One closed span; times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// The request (serving) or trial/run (campaigns) the span belongs to.
    pub request: u64,
}

/// Totals of every closed span sharing one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Rollup {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// See the module docs.
pub struct Tracer {
    epoch: Instant,
    next_id: u64,
    /// Child-covered nanoseconds of every span opened but not yet closed.
    covered: HashMap<SpanId, u64>,
    spans: Vec<Span>,
    cap: usize,
    dropped: u64,
    rollup: BTreeMap<&'static str, Rollup>,
}

impl Tracer {
    /// A tracer keeping at most `cap` spans in memory (the rollup always
    /// covers every span).
    pub fn new(epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            epoch,
            next_id: 0,
            covered: HashMap::new(),
            spans: Vec::new(),
            cap,
            dropped: 0,
            rollup: BTreeMap::new(),
        }
    }

    /// The instant span times count from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds from the epoch to `at` (0 for instants before it).
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// Reserves the id of a span whose children close before it does.
    pub fn open(&mut self) -> SpanId {
        let id = SpanId(self.next_id);
        self.next_id += 1;
        self.covered.insert(id, 0);
        id
    }

    /// Closes span `id` (from [`Tracer::open`]) covering `[start, end]`.
    pub fn close(
        &mut self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.close_ns(id, name, parent, request, start_ns, end_ns);
    }

    /// A leaf span: opened and closed at once.
    pub fn leaf(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        let id = self.open();
        self.close(id, name, parent, request, start, end);
    }

    /// [`Tracer::close`] on nanosecond offsets.
    pub fn close_ns(
        &mut self,
        id: SpanId,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        start_ns: u64,
        end_ns: u64,
    ) {
        let duration = end_ns.saturating_sub(start_ns);
        let covered = self.covered.remove(&id).unwrap_or(0);
        let entry = self.rollup.entry(name).or_default();
        entry.count += 1;
        entry.total_ns += duration;
        entry.self_ns += duration.saturating_sub(covered);
        if let Some(parent) = parent {
            if let Some(parent_covered) = self.covered.get_mut(&parent) {
                *parent_covered += duration;
            }
        }
        if self.spans.len() < self.cap {
            self.spans.push(Span { id, name, start_ns, end_ns, parent, request });
        } else {
            self.dropped += 1;
        }
    }

    /// The rollup of one span name (zero when it never closed).
    pub fn rollup_of(&self, name: &str) -> Rollup {
        self.rollup.get(name).copied().unwrap_or_default()
    }

    /// Every span name's rollup.
    pub fn rollups(&self) -> &BTreeMap<&'static str, Rollup> {
        &self.rollup
    }

    /// Self time summed per layer (span-name prefix up to the first `.`).
    pub fn layer_self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut layers = BTreeMap::new();
        for (name, rollup) in &self.rollup {
            let layer = name.split('.').next().unwrap_or(name);
            *layers.entry(layer).or_insert(0) += rollup.self_ns;
        }
        layers
    }

    /// The stored spans, in closing order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans closed after the cap was reached (in the rollup, not stored).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the stored spans as JSON lines, one span per line.
    pub fn spans_jsonl(&self) -> String {
        let mut out = String::new();
        for span in &self.spans {
            let parent = span.parent.map_or("null".to_string(), |p| p.0.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                span.id.0, span.name, span.start_ns, span.end_ns, parent, span.request
            );
        }
        out
    }
}

/// Self time of each span in a complete span list, by span id — the offline
/// form of the online rollup, used to check it.
#[cfg(test)]
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let mut covered: HashMap<SpanId, u64> = HashMap::new();
    for span in spans {
        if let Some(parent) = span.parent {
            *covered.entry(parent).or_insert(0) += span.end_ns.saturating_sub(span.start_ns);
        }
    }
    spans
        .iter()
        .map(|span| {
            let duration = span.end_ns.saturating_sub(span.start_ns);
            (span.id, duration.saturating_sub(covered.get(&span.id).copied().unwrap_or(0)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total_self_ns(tracer: &Tracer) -> u64 {
        tracer.layer_self_ns().values().sum()
    }

    /// root [0, 100] ⊃ a [10, 40] ⊃ a1 [15, 25]; root ⊃ b [50, 90].
    fn sample(tracer: &mut Tracer) {
        let root = tracer.open();
        let a = tracer.open();
        let a1 = tracer.open();
        tracer.close_ns(a1, "nn.conv", Some(a), 7, 15, 25);
        tracer.close_ns(a, "rl.rollout", Some(root), 7, 10, 40);
        let b = tracer.open();
        tracer.close_ns(b, "dronesim.step", Some(root), 7, 50, 90);
        tracer.close_ns(root, "campaign.trial", None, 7, 0, 100);
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut tracer = Tracer::new(Instant::now(), 16);
        sample(&mut tracer);
        assert_eq!(
            tracer.rollup_of("campaign.trial"),
            Rollup { count: 1, total_ns: 100, self_ns: 30 }
        );
        assert_eq!(tracer.rollup_of("rl.rollout").self_ns, 20);
        assert_eq!(tracer.rollup_of("nn.conv").self_ns, 10);
        assert_eq!(tracer.rollup_of("dronesim.step").self_ns, 40);
        // Self times tile the root: they sum to its duration.
        assert_eq!(total_self_ns(&tracer), 100);
    }

    #[test]
    fn offline_self_times_match_the_online_rollup() {
        let mut tracer = Tracer::new(Instant::now(), 16);
        sample(&mut tracer);
        let offline = self_times(tracer.spans());
        for span in tracer.spans() {
            let single = tracer.rollup_of(span.name);
            assert_eq!(single.count, 1);
            assert_eq!(offline[&span.id], single.self_ns, "{}", span.name);
        }
    }

    #[test]
    fn layers_group_by_name_prefix() {
        let mut tracer = Tracer::new(Instant::now(), 16);
        sample(&mut tracer);
        let layers = tracer.layer_self_ns();
        assert_eq!(layers["nn"], 10);
        assert_eq!(layers["rl"], 20);
        assert_eq!(layers["dronesim"], 40);
        assert_eq!(layers[ROOT_LAYER], 30);
    }

    #[test]
    fn cap_bounds_stored_spans_but_not_the_rollup() {
        let mut tracer = Tracer::new(Instant::now(), 2);
        sample(&mut tracer);
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.dropped(), 2);
        assert_eq!(total_self_ns(&tracer), 100);
    }

    #[test]
    fn a_child_longer_than_its_parent_clamps_self_time_at_zero() {
        let mut tracer = Tracer::new(Instant::now(), 4);
        let parent = tracer.open();
        tracer.close_ns(SpanId(99), "child", Some(parent), 0, 0, 50);
        tracer.close_ns(parent, "parent", None, 0, 10, 40);
        assert_eq!(tracer.rollup_of("parent").self_ns, 0);
    }

    #[test]
    fn spans_render_one_json_object_per_line() {
        let mut tracer = Tracer::new(Instant::now(), 16);
        sample(&mut tracer);
        let text = tracer.spans_jsonl();
        assert_eq!(text.lines().count(), 4);
        assert!(text.lines().next().unwrap().contains("\"name\":\"nn.conv\""));
        assert!(text.contains("\"parent\":null"));
    }
}
