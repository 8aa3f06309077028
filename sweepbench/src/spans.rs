//! In-memory span recorder for the traced run: one span per call into a
//! layer, with its parent and the id of the sweep it belongs to. Spans
//! are written out only when the run ends.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span; `0` means "no parent".
pub type SpanId = u32;

/// Parent id of a root span.
pub const NO_PARENT: SpanId = 0;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// This span's id (≥ 1).
    pub id: SpanId,
    /// The enclosing span, or [`NO_PARENT`].
    pub parent: SpanId,
    /// The sweep every span of one sweep shares.
    pub sweep: u32,
    /// Layer call name (e.g. `walk`, `store.put`).
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
}

impl Span {
    /// Duration in nanoseconds.
    #[must_use]
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any thread.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    next: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    #[must_use]
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            next: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, passing it the new span's id
    /// so calls it makes (on any thread) can name it as their parent.
    pub fn span<R>(
        &self,
        sweep: u32,
        parent: SpanId,
        name: &'static str,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(id);
        let end_ns = self.now_ns();
        self.spans
            .lock()
            .expect("span buffer lock: no span closure panics while holding it")
            .push(Span {
                id,
                parent,
                sweep,
                name,
                start_ns,
                end_ns,
            });
        out
    }

    /// Every span recorded so far, ordered by start time.
    #[must_use]
    pub fn spans(&self) -> Vec<Span> {
        let mut spans = self
            .spans
            .lock()
            .expect("span buffer lock: no span closure panics while holding it")
            .clone();
        spans.sort_by_key(|s| (s.start_ns, s.id));
        spans
    }
}

/// Self time of every span, by id: its duration minus the part of its
/// interval that at least one child covers. Children running in parallel
/// (from `parallel_map`) overlap each other, so their intervals are
/// merged before subtracting, never summed.
#[must_use]
pub fn self_times(spans: &[Span]) -> HashMap<SpanId, u64> {
    let bounds: HashMap<SpanId, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    let mut children: HashMap<SpanId, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(&(lo, hi)) = bounds.get(&s.parent) {
            let (a, b) = (s.start_ns.max(lo), s.end_ns.min(hi));
            if a < b {
                children.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut iv = children.remove(&s.id).unwrap_or_default();
            iv.sort_unstable();
            let mut covered = 0;
            let mut cur: Option<(u64, u64)> = None;
            for (a, b) in iv {
                match cur {
                    Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        cur = Some((a, b));
                    }
                    None => cur = Some((a, b)),
                }
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            (s.id, s.dur_ns().saturating_sub(covered))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: SpanId, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            sweep: 1,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_merges_overlapping_children() {
        // Two worker threads: children 2 and 3 overlap, 4 is disjoint and
        // 5 runs past the parent's end.
        let spans = vec![
            span(1, NO_PARENT, 0, 100),
            span(2, 1, 10, 50),
            span(3, 1, 20, 70),
            span(4, 1, 80, 90),
            span(5, 1, 95, 120),
            span(6, 2, 10, 20),
        ];
        let t = self_times(&spans);
        // Covered: [10,70] + [80,90] + [95,100] = 75.
        assert_eq!(t[&1], 25);
        assert_eq!(t[&2], 30);
        assert_eq!(t[&3], 50);
        assert_eq!(t[&6], 10);
    }

    #[test]
    fn recorder_links_parallel_children_to_their_phase() {
        let rec = Recorder::new();
        let items: Vec<u64> = (0..8).collect();
        rec.span(7, NO_PARENT, "phase", |phase| {
            prism_pipeline::parallel_map(&items, 2, |_, &x| {
                rec.span(7, phase, "item", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    x
                })
            })
        });
        let spans = rec.spans();
        assert_eq!(spans.len(), 9);
        let phase = spans.iter().find(|s| s.name == "phase").expect("phase");
        let items: Vec<&Span> = spans.iter().filter(|s| s.name == "item").collect();
        assert!(items.iter().all(|s| s.parent == phase.id && s.sweep == 7));
        let busy: u64 = items.iter().map(|s| s.dur_ns()).sum();
        // The two threads' sleeps overlap, so summed child time exceeds
        // the phase's wall time, while self time (the uncovered part)
        // stays below it.
        assert!(busy > phase.dur_ns());
        let t = self_times(&spans);
        assert!(t[&phase.id] < phase.dur_ns());
    }
}
