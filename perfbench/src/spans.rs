//! Spans around the public calls the benchmark makes.
//!
//! A span has a name (`<layer>.<call>`), start and end, its parent, and
//! the op it belongs to (`<workload>/pass<i>[/<cell>]`). Spans stay in
//! memory while a run measures and are written as JSONL when it ends.
//! A disabled [`Tracer`] records nothing, so untraced passes pay one
//! branch per call.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::OnceLock;
use std::time::Instant;

/// The instant every span's start and end are measured from.
fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    /// `<layer>.<call>`, e.g. `jobgraph.execute`.
    pub name: &'static str,
    /// The op the span belongs to.
    pub op: String,
    /// Index of the enclosing span in the same list.
    pub parent: Option<usize>,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    /// Nanoseconds since the tracer's origin.
    pub end_ns: u64,
}

/// Span recorder for one pass.
pub struct Tracer {
    on: bool,
    op: String,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A tracer for the op `op`; `on = false` records nothing.
    pub fn new(on: bool, op: String) -> Self {
        Self {
            on,
            op,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// The op id spans of this tracer carry.
    pub fn op(&self) -> &str {
        &self.op
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(origin()).as_nanos() as u64
    }

    /// Open a span; it encloses every span recorded until [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.ns(Instant::now());
        self.spans.push(Span {
            name,
            op: self.op.clone(),
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end_ns = self.ns(Instant::now());
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end_ns;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Record a span timed elsewhere (on a pool worker) as a child of the
    /// innermost open span.
    pub fn record(&mut self, name: &'static str, op: String, start: Instant, end: Instant) {
        if !self.on {
            return;
        }
        self.spans.push(Span {
            name,
            op,
            parent: self.open.last().copied(),
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        });
    }

    /// The recorded spans.
    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "every span closed");
        self.spans
    }
}

/// Move `src` to the end of `dst`, keeping parent links intact.
pub fn append(dst: &mut Vec<Span>, src: Vec<Span>) {
    let base = dst.len();
    dst.extend(src.into_iter().map(|mut s| {
        s.parent = s.parent.map(|p| p + base);
        s
    }));
}

/// Each span's self time: its duration minus the part of its interval
/// that its children cover (children on parallel workers may overlap, so
/// the covered part is the union of their intervals).
pub fn self_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Self time summed by span name.
pub fn self_ns_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_ns(spans)) {
        *out.entry(s.name).or_insert(0) += ns;
    }
    out
}

/// JSONL: one object per span, self time included.
pub fn to_jsonl(spans: &[Span], out: &mut String) {
    for (i, (s, own)) in spans.iter().zip(self_ns(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let _ = writeln!(
            out,
            "{{\"id\":{i},\"parent\":{parent},\"name\":\"{}\",\"op\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"self_ns\":{own}}}",
            s.name, s.op, s.start_ns, s.end_ns
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "x",
            op: String::new(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 50),
            span(Some(0), 30, 70),
            span(Some(0), 90, 120),
        ];
        assert_eq!(self_ns(&spans), vec![100 - 60 - 10, 40, 40, 30]);
    }
}
