//! Spans recorded by the harness around its calls into each layer.
//!
//! A traced operation is executed through its decomposed public-API path,
//! each step one span `{name, start_ns, end_ns, parent, op_id}`. Spans stay
//! in a preallocated buffer and are written out when the run ends. A span's
//! layer is the part of its name before the first `.`; a layer's self time
//! is each of its spans' duration minus what that span's children cover.
//!
//! A *shadow* span is a call the harness repeats on its own right after the
//! parent returned (e.g. `PMap::get` on `stored_map()` after
//! `RelationF::lookup`), standing in for the nested call it cannot see
//! inside the engine: it lies outside the parent's interval, so its whole
//! duration is subtracted from the parent.

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

pub const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub op_id: u64,
    pub shadow: bool,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    cap: usize,
    last: u32,
    pub dropped: u64,
}

impl Tracer {
    /// A tracer whose clock starts at `epoch` and that keeps at most `cap`
    /// spans (later ones are counted in `dropped`, never reallocated for).
    pub fn new(epoch: Instant, cap: usize) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::with_capacity(cap),
            cap,
            last: NO_PARENT,
            dropped: 0,
        }
    }

    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn push(&mut self, span: Span) -> u32 {
        self.last = if self.spans.len() >= self.cap {
            self.dropped += 1;
            NO_PARENT
        } else {
            self.spans.push(span);
            self.spans.len() as u32 - 1
        };
        self.last
    }

    /// Opens the root span of operation `op_id`; close it with [`Self::close`].
    pub fn open(&mut self, name: &'static str, op_id: u64) -> u32 {
        let now = self.now();
        self.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent: NO_PARENT,
            op_id,
            shadow: false,
        })
    }

    pub fn close(&mut self, idx: u32) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(idx as usize) {
            s.end_ns = now;
        }
    }

    /// Runs `f` as a child span of `parent`.
    pub fn child<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        self.timed(name, parent, false, f)
    }

    /// Runs `f` as a shadow call charged against `parent`.
    pub fn shadow<T>(&mut self, name: &'static str, parent: u32, f: impl FnOnce() -> T) -> T {
        self.timed(name, parent, true, f)
    }

    fn timed<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        shadow: bool,
        f: impl FnOnce() -> T,
    ) -> T {
        let start_ns = self.now();
        let out = f();
        let end_ns = self.now();
        let op_id = self.spans.get(parent as usize).map_or(0, |p| p.op_id);
        self.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            op_id,
            shadow,
        });
        out
    }

    /// Index of the span recorded last (to hang a shadow on a child), or
    /// [`NO_PARENT`] if the buffer was full and it was dropped.
    pub fn last(&self) -> u32 {
        self.last
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Runs `f` as a child span of `root` when this operation is traced (a
/// tracer exists and the op opened a root span), and plainly otherwise.
pub fn span<T>(
    tracer: &mut Option<Tracer>,
    root: Option<u32>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    match (tracer.as_mut(), root) {
        (Some(t), Some(root)) => t.child(name, root, f),
        _ => f(),
    }
}

/// Per-name totals over one buffer of spans.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct NameStats {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Nanoseconds of `parent` covered by its children: the union of the
/// nested children's intervals clipped to the parent, plus every shadow
/// child's full duration; never more than the parent's own duration.
fn covered_ns(parent: &Span, children: &mut [(u64, u64, bool)]) -> u64 {
    children.sort_unstable();
    let (mut covered, mut reach) = (0u64, parent.start_ns);
    for &(start, end, shadow) in children.iter() {
        if shadow {
            covered += end.saturating_sub(start);
            continue;
        }
        let (s, e) = (start.max(reach), end.min(parent.end_ns));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered.min(parent.dur())
}

/// Aggregates spans by name. Parent indices refer into `spans` itself.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, NameStats> {
    let mut children: BTreeMap<u32, Vec<(u64, u64, bool)>> = BTreeMap::new();
    for s in spans {
        if s.parent != NO_PARENT {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns, s.shadow));
        }
    }
    let mut out: BTreeMap<&'static str, NameStats> = BTreeMap::new();
    for (idx, s) in spans.iter().enumerate() {
        let covered = children
            .get_mut(&(idx as u32))
            .map_or(0, |c| covered_ns(s, c));
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += s.dur();
        e.self_ns += s.dur() - covered;
    }
    out
}

/// Merges per-client aggregates.
pub fn merge_stats(
    into: &mut BTreeMap<&'static str, NameStats>,
    from: &BTreeMap<&'static str, NameStats>,
) {
    for (name, s) in from {
        let e = into.entry(name).or_default();
        e.count += s.count;
        e.total_ns += s.total_ns;
        e.self_ns += s.self_ns;
    }
}

/// Self time per layer (the span-name prefix before the first `.`).
pub fn layer_self_ns(stats: &BTreeMap<&'static str, NameStats>) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (name, s) in stats {
        let layer = name.split('.').next().unwrap_or(name);
        *out.entry(layer).or_insert(0) += s.self_ns;
    }
    out
}

/// Durations (ns) of every span called `name`.
pub fn durations_of(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.dur() as f64)
        .collect()
}

pub fn span_json(s: &Span) -> Json {
    Json::obj([
        ("name", Json::str(s.name)),
        ("start_ns", Json::Num(s.start_ns as f64)),
        ("end_ns", Json::Num(s.end_ns as f64)),
        (
            "parent",
            if s.parent == NO_PARENT {
                Json::Null
            } else {
                Json::Num(s.parent as f64)
            },
        ),
        ("op_id", Json::Num(s.op_id as f64)),
        ("shadow", Json::Bool(s.shadow)),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32, shadow: bool) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op_id: 1,
            shadow,
        }
    }

    #[test]
    fn self_time_subtracts_children_and_shadows() {
        let spans = vec![
            span("op.read", 0, 1_000, NO_PARENT, false), // 0
            span("txn.snapshot", 100, 200, 0, false),    // 1
            span("core.lookup", 300, 800, 0, false),     // 2
            // shadow of the lookup, taken after it returned
            span("storage.pmap_get", 810, 1_110, 2, true), // 3
        ];
        let st = self_times(&spans);
        assert_eq!(st["op.read"].self_ns, 1_000 - 100 - 500);
        assert_eq!(st["txn.snapshot"].self_ns, 100);
        assert_eq!(st["core.lookup"].self_ns, 500 - 300);
        assert_eq!(st["core.lookup"].total_ns, 500);
        assert_eq!(st["storage.pmap_get"].self_ns, 300);
        let layers = layer_self_ns(&st);
        assert_eq!(layers["op"], 400);
        assert_eq!(layers["core"], 200);
        assert_eq!(layers["storage"], 300);
        assert_eq!(layers["txn"], 100);
        assert!(!layers.contains_key("durability"));
    }

    #[test]
    fn overlapping_and_overhanging_children_are_clipped() {
        let spans = vec![
            span("a.parent", 100, 200, NO_PARENT, false),
            span("b.x", 90, 150, 0, false), // starts before the parent
            span("b.y", 140, 170, 0, false), // overlaps b.x
            span("b.z", 190, 260, 0, false), // runs past the parent
        ];
        // union inside [100, 200] = [100,170] + [190,200] = 80
        assert_eq!(self_times(&spans)["a.parent"].self_ns, 20);
        // a shadow longer than its parent cannot drive self time negative
        let spans = vec![
            span("a.parent", 0, 50, NO_PARENT, false),
            span("b.shadow", 60, 200, 0, true),
        ];
        assert_eq!(self_times(&spans)["a.parent"].self_ns, 0);
    }

    #[test]
    fn tracer_nests_and_bounds_its_buffer() {
        let mut t = Tracer::new(Instant::now(), 3);
        let root = t.open("op.x", 7);
        let v = t.child("l.a", root, || 41 + 1);
        assert_eq!(v, 42);
        let a = t.last();
        t.shadow("m.b", a, || ());
        t.child("l.c", root, || ()); // over capacity
        t.close(root);
        assert_eq!(t.spans().len(), 3);
        assert_eq!(t.dropped, 1);
        let s = t.spans();
        assert_eq!((s[1].parent, s[1].op_id, s[1].shadow), (root, 7, false));
        assert_eq!((s[2].parent, s[2].op_id, s[2].shadow), (a, 7, true));
        assert!(s[0].end_ns >= s[2].end_ns, "root closed last");
        assert_eq!(durations_of(s, "l.a").len(), 1);
    }
}
