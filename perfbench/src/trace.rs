//! In-memory spans for the traced run, recorded by the benchmark around its
//! calls into each layer (the program itself is not instrumented).

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One timed interval. Spans of one op share `op`; `parent` is the id of
/// the enclosing span (0 for an op's root span).
#[derive(Debug, Clone)]
pub struct Span {
    /// Unique within its [`Tracer`].
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Op id: `session << 32 | op index`.
    pub op: u64,
    /// Span name, `layer.call`.
    pub name: &'static str,
    /// Start, ns since the run's epoch.
    pub start_ns: u64,
    /// End, ns since the run's epoch.
    pub end_ns: u64,
}

/// A per-session span buffer. Nothing is written until the run ends.
pub struct Tracer {
    epoch: Instant,
    id_base: u64,
    next: u64,
    /// Recorded spans, in completion order.
    pub spans: Vec<Span>,
}

/// An open span; close it with [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open {
    id: u64,
    parent: u64,
    op: u64,
    name: &'static str,
    start_ns: u64,
}

impl Open {
    /// The span's id, to pass as a child's parent.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Tracer {
    /// A tracer whose span ids start above `session << 40`.
    pub fn new(epoch: Instant, session: usize) -> Tracer {
        Tracer {
            epoch,
            id_base: (session as u64) << 40,
            next: 0,
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span now.
    pub fn start(&mut self, name: &'static str, op: u64, parent: u64) -> Open {
        self.next += 1;
        Open {
            id: self.id_base + self.next,
            parent,
            op,
            name,
            start_ns: self.now_ns(),
        }
    }

    /// Close `open` now.
    pub fn end(&mut self, open: Open) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            id: open.id,
            parent: open.parent,
            op: open.op,
            name: open.name,
            start_ns: open.start_ns,
            end_ns,
        });
    }
}

/// Aggregate of one span name.
#[derive(Debug, Clone, Default)]
pub struct SelfTime {
    /// Spans of this name.
    pub count: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus the part covered by children), ns.
    pub self_ns: u64,
}

/// Self time by span name: each span's duration minus the union of its
/// children's intervals.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, SelfTime> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> = Default::default();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_ns, s.end_ns));
    }
    let mut out: BTreeMap<&'static str, SelfTime> = BTreeMap::new();
    for s in spans {
        let dur = s.end_ns.saturating_sub(s.start_ns);
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
        }
        let e = out.entry(s.name).or_default();
        e.count += 1;
        e.total_ns += dur;
        e.self_ns += dur - covered.min(dur);
    }
    out
}

/// Write `spans` as JSON lines.
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, "op", 0, 100),
            span(2, 1, "rpc.write", 10, 40),
            span(3, 1, "rpc.write", 30, 60),
            span(4, 1, "rpc.write", 90, 120),
        ];
        let t = self_times(&spans);
        // Children cover 10..60 and 90..100 of the root: 60 ns.
        assert_eq!(t["op"].self_ns, 40);
        assert_eq!(t["op"].total_ns, 100);
        assert_eq!(t["rpc.write"].count, 3);
        assert_eq!(t["rpc.write"].self_ns, 30 + 30 + 30);
    }
}
