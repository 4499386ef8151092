//! The benchmark's own span recorder.
//!
//! Spans are recorded around the calls the benchmark makes into each layer
//! (and inside the timing wrappers the simulator calls back into); the
//! library itself is not instrumented. Spans stay in memory and are written
//! out once the run ends, as Chrome-trace JSON and folded stacks.
//!
//! Self time partitions the traced wall exactly: every instant of the root
//! span is charged to the deepest span open at that instant, split evenly
//! when several spans at that depth overlap (placement calls running on two
//! service workers at once). Summed over all spans it equals the root's
//! duration, and for strictly nested spans it is the usual "duration minus
//! the part its children cover".

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<u32>,
    /// Session number, for service spans.
    pub session: Option<u64>,
    /// Recording thread (0 = the thread that first recorded).
    pub lane: u32,
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    /// Open spans of the driving thread, innermost last.
    stack: Vec<u32>,
    /// Wall of every `place_into` call since the last take (recorded with
    /// tracing on or off).
    place_ns: Vec<u64>,
}

/// Thread-safe recorder shared by the benchmark loop and the wrappers.
pub struct Recorder {
    epoch: Instant,
    tracing: bool,
    state: Mutex<State>,
}

static NEXT_LANE: AtomicU32 = AtomicU32::new(0);

thread_local! {
    static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
}

impl Recorder {
    /// A recorder whose span calls are no-ops unless `tracing`.
    pub fn new(tracing: bool) -> Recorder {
        Recorder {
            epoch: Instant::now(),
            tracing,
            state: Mutex::new(State::default()),
        }
    }

    /// Nanoseconds since the recorder was created.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn state(&self) -> MutexGuard<'_, State> {
        self.state
            .lock()
            .expect("recorder mutex poisoned by a panicking benchmark thread")
    }

    /// Open a span on the driving thread; it encloses every span recorded
    /// until the matching [`end`](Recorder::end).
    pub fn begin(&self, name: &'static str, session: Option<u64>) {
        if !self.tracing {
            return;
        }
        let start_ns = self.now_ns();
        let lane = LANE.with(|l| *l);
        let mut s = self.state();
        let id = s.spans.len() as u32;
        let parent = s.stack.last().copied();
        s.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            session,
            lane,
        });
        s.stack.push(id);
    }

    /// Close the innermost open span, which must be `name`.
    pub fn end(&self, name: &'static str) {
        if !self.tracing {
            return;
        }
        let end_ns = self.now_ns();
        let mut s = self.state();
        let id = s.stack.pop().expect("end without begin") as usize;
        assert_eq!(s.spans[id].name, name, "spans closed out of order");
        s.spans[id].end_ns = end_ns;
    }

    /// Record a finished span from any thread, enclosed by the driving
    /// thread's innermost open span.
    pub fn leaf(&self, name: &'static str, start_ns: u64, end_ns: u64) {
        if !self.tracing {
            return;
        }
        let lane = LANE.with(|l| *l);
        let mut s = self.state();
        let parent = s.stack.last().copied();
        s.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: None,
            lane,
        });
    }

    /// Note one `place_into` wall (always kept, traced or not).
    pub fn note_place(&self, ns: u64) {
        self.state().place_ns.push(ns);
    }

    /// Take the `place_into` walls noted since the last call.
    pub fn take_place_ns(&self) -> Vec<u64> {
        std::mem::take(&mut self.state().place_ns)
    }

    /// Take the recorded spans (every span must be closed).
    pub fn take_spans(&self) -> Vec<Span> {
        let mut s = self.state();
        assert!(s.stack.is_empty(), "taking spans while some are open");
        std::mem::take(&mut s.spans)
    }
}

/// Self time of every span (ns, fractional where overlapping spans share
/// an instant); sums to the covered wall of the root spans.
pub fn self_times(spans: &[Span]) -> Vec<f64> {
    let mut depth = vec![0usize; spans.len()];
    for (i, s) in spans.iter().enumerate() {
        // Parents are recorded before their children.
        depth[i] = s.parent.map_or(0, |p| depth[p as usize] + 1);
    }
    // (time, is_start, span); ends sort before starts at equal times.
    let mut events: Vec<(u64, bool, u32)> = Vec::with_capacity(2 * spans.len());
    for (i, s) in spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.end_ns > s.start_ns)
    {
        events.push((s.start_ns, true, i as u32));
        events.push((s.end_ns, false, i as u32));
    }
    events.sort_unstable();
    let mut active: Vec<Vec<u32>> = Vec::new();
    let mut out = vec![0.0f64; spans.len()];
    let mut prev = events.first().map_or(0, |e| e.0);
    for (t, is_start, id) in events {
        if t > prev {
            if let Some(top) = active.iter().rposition(|v| !v.is_empty()) {
                let share = (t - prev) as f64 / active[top].len() as f64;
                for &i in &active[top] {
                    out[i as usize] += share;
                }
            }
            prev = t;
        }
        let d = depth[id as usize];
        if is_start {
            if active.len() <= d {
                active.resize_with(d + 1, Vec::new);
            }
            active[d].push(id);
        } else if let Some(pos) = active[d].iter().position(|&i| i == id) {
            active[d].swap_remove(pos);
        }
    }
    out
}

/// Self time summed per span name, largest first (seconds).
pub fn self_by_name(spans: &[Span], self_ns: &[f64]) -> Vec<(&'static str, f64)> {
    let mut by: BTreeMap<&'static str, f64> = BTreeMap::new();
    for (s, &ns) in spans.iter().zip(self_ns) {
        *by.entry(s.name).or_default() += ns / 1e9;
    }
    let mut v: Vec<_> = by.into_iter().collect();
    v.sort_by(|a, b| b.1.total_cmp(&a.1));
    v
}

/// Folded stacks (`root;child;leaf <self µs>`), one line per distinct path.
pub fn folded(spans: &[Span], self_ns: &[f64]) -> String {
    let mut paths: Vec<String> = Vec::with_capacity(spans.len());
    let mut by: BTreeMap<String, f64> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let path = match s.parent {
            Some(p) => format!("{};{}", paths[p as usize], s.name),
            None => s.name.to_string(),
        };
        *by.entry(path.clone()).or_default() += self_ns[i] / 1e3;
        paths.push(path);
    }
    let mut out = String::new();
    for (path, us) in by {
        let us = us.round() as u64;
        if us > 0 {
            let _ = writeln!(out, "{path} {us}");
        }
    }
    out
}

/// Chrome-trace JSON (complete "X" events, µs timestamps) of the first
/// `limit` spans, which keeps long service runs to a loadable size.
pub fn chrome_trace(spans: &[Span], limit: usize) -> String {
    let mut out = String::from("{\"traceEvents\":[\n");
    for (i, s) in spans.iter().take(limit).enumerate() {
        let _ = write!(
            out,
            "{}{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{}",
            if i == 0 { "" } else { ",\n" },
            s.name,
            s.lane,
            s.start_ns as f64 / 1e3,
            (s.end_ns - s.start_ns) as f64 / 1e3,
            i
        );
        if let Some(p) = s.parent {
            let _ = write!(out, ",\"parent\":{p}");
        }
        if let Some(session) = s.session {
            let _ = write!(out, ",\"session\":{session}");
        }
        out.push_str("}}");
    }
    out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<u32>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            session: None,
            lane: 0,
        }
    }

    #[test]
    fn nested_self_time_is_duration_minus_children() {
        let spans = vec![
            span("root", 0, 100, None),
            span("run", 10, 90, Some(0)),
            span("step", 20, 50, Some(1)),
            span("place", 25, 35, Some(2)),
            span("step", 50, 90, Some(1)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![20.0, 10.0, 20.0, 10.0, 40.0]);
        assert_eq!(st.iter().sum::<f64>(), 100.0);
        let by = self_by_name(&spans, &st);
        assert_eq!(by[0].0, "step");
        assert!((by[0].1 - 60.0e-9).abs() < 1e-18);
        assert_eq!(
            folded(&spans, &[0.0, 0.0, 2000.0, 1000.0, 3000.0]),
            "root;run;step 5\nroot;run;step;place 1\n"
        );
    }

    #[test]
    fn overlapping_siblings_share_their_instants() {
        // A drain whose two placement calls overlap on two workers.
        let spans = vec![
            span("drain", 0, 10, None),
            span("place", 1, 3, Some(0)),
            span("place", 2, 5, Some(0)),
        ];
        let st = self_times(&spans);
        assert_eq!(st, vec![6.0, 1.5, 2.5]);
        assert_eq!(st.iter().sum::<f64>(), 10.0);
    }

    #[test]
    fn zero_length_and_abutting_spans() {
        let spans = vec![
            span("root", 0, 10, None),
            span("a", 0, 5, Some(0)),
            span("b", 5, 10, Some(0)),
            span("empty", 7, 7, Some(2)),
        ];
        assert_eq!(self_times(&spans), vec![0.0, 5.0, 5.0, 0.0]);
    }

    #[test]
    fn recorder_nests_and_exports() {
        let rec = Recorder::new(true);
        rec.begin("bench", None);
        rec.begin("service.open", Some(3));
        rec.end("service.open");
        rec.leaf("core.place_into", rec.now_ns(), rec.now_ns());
        rec.end("bench");
        rec.note_place(5);
        assert_eq!(rec.take_place_ns(), vec![5]);
        let spans = rec.take_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[1].parent, spans[1].session), (Some(0), Some(3)));
        assert_eq!(spans[2].parent, Some(0));
        let json = chrome_trace(&spans, usize::MAX);
        assert_eq!(chrome_trace(&spans, 1).matches("\"ph\"").count(), 1);
        assert!(json.starts_with("{\"traceEvents\":[\n{\"name\":\"bench\""));
        assert!(json.contains("\"session\":3"));
        assert!(json.trim_end().ends_with('}'));

        let off = Recorder::new(false);
        off.begin("bench", None);
        off.leaf("x", 0, 1);
        off.end("bench");
        assert!(off.take_spans().is_empty());
    }
}
