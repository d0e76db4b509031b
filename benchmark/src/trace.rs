//! In-memory spans for the traced run.
//!
//! Each rank thread owns a recorder (thread-local, so recording takes no
//! lock and no atomic). `api.rs` opens a span around each call into a
//! layer; with no recorder installed — every untraced mode — a span is a
//! thread-local read and the call itself. Spans are kept in memory and
//! written out only when the benchmark ends.
//!
//! A layer's **self time** is its span's duration minus the part of that
//! interval its child spans cover.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::OnceLock;
use std::time::Instant;

use crate::json::Json;

/// One recorded interval on one rank. `id` is unique within the rank;
/// `parent` is the id of the span that was open when this one began.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub rank: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_json(&self) -> Json {
        Json::obj([
            ("id", Json::Num(f64::from(self.id))),
            (
                "parent",
                self.parent.map_or(Json::Null, |p| Json::Num(f64::from(p))),
            ),
            ("name", Json::str(self.name)),
            ("rank", Json::Num(f64::from(self.rank))),
            ("start_ns", Json::Num(self.start_ns as f64)),
            ("end_ns", Json::Num(self.end_ns as f64)),
        ])
    }
}

struct Recorder {
    rank: u32,
    /// Spans open only while this is set ([`record`]).
    recording: bool,
    next_id: u32,
    spans: Vec<Span>,
    /// Indices into `spans` of the currently open spans, outermost first,
    /// each with whether it was opened by [`phase`].
    open: Vec<(usize, bool)>,
}

impl Recorder {
    /// Opens a span at `start_ns` under the innermost open span.
    fn open_span(&mut self, name: &'static str, start_ns: u64, is_phase: bool) {
        let parent = self.open.last().map(|&(i, _)| self.spans[i].id);
        let id = self.next_id;
        self.next_id += 1;
        self.open.push((self.spans.len(), is_phase));
        self.spans.push(Span {
            id,
            parent,
            name,
            rank: self.rank,
            start_ns,
            end_ns: start_ns,
        });
    }

    /// Closes the innermost span at `end_ns` if it is a phase.
    fn close_phase(&mut self, end_ns: u64) {
        if let Some(&(index, true)) = self.open.last() {
            self.spans[index].end_ns = end_ns;
            self.open.pop();
        }
    }
}

thread_local! {
    static RECORDER: RefCell<Option<Recorder>> = const { RefCell::new(None) };
}

/// Nanoseconds since the first call in this process: one clock for every
/// rank thread, so spans of different ranks line up in the written trace.
fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Gives the calling thread a recorder, as `rank`. Nothing is recorded
/// outside [`record`].
pub fn install(rank: usize) {
    now_ns();
    RECORDER.with(|r| {
        *r.borrow_mut() = Some(Recorder {
            rank: rank as u32,
            recording: false,
            next_id: 0,
            spans: Vec::new(),
            open: Vec::new(),
        })
    });
}

/// Takes the calling thread's recorder away.
pub fn uninstall() {
    RECORDER.with(|r| *r.borrow_mut() = None);
}

fn set_recording(on: bool) {
    RECORDER.with(|r| {
        if let Some(rec) = r.borrow_mut().as_mut() {
            rec.recording = on;
        }
    });
}

/// Runs `f` with this thread's recorder (if it has one) switched on.
pub fn record<R>(f: impl FnOnce() -> R) -> R {
    set_recording(true);
    let result = f();
    set_recording(false);
    result
}

/// Hands the spans recorded on this thread since the last drain to
/// `consume` and forgets them (ids keep counting up, so drained batches
/// can be concatenated). The buffer is kept, so a steady stream of reps
/// records into warm memory. Must be called with no span open.
pub fn drain<R>(consume: impl FnOnce(&[Span]) -> R) -> R {
    RECORDER.with(|r| match r.borrow_mut().as_mut() {
        Some(rec) => {
            assert!(rec.open.is_empty(), "drain() inside an open span");
            let result = consume(&rec.spans);
            rec.spans.clear();
            result
        }
        None => consume(&[]),
    })
}

fn recording<R>(f: impl FnOnce(&mut Recorder) -> R) -> Option<R> {
    RECORDER.with(|r| r.borrow_mut().as_mut().filter(|rec| rec.recording).map(f))
}

fn begin(name: &'static str) -> bool {
    recording(|rec| rec.open_span(name, now_ns(), false)).is_some()
}

fn end() {
    let end_ns = now_ns();
    recording(|rec| {
        rec.close_phase(end_ns);
        let (index, _) = rec.open.pop().expect("end() without begin()");
        rec.spans[index].end_ns = end_ns;
    });
}

/// Starts the phase `name` of the enclosing span, ending the phase before
/// it at the same instant. Back-to-back phases cost one clock read each,
/// half of what a [`span`] costs; a tight solver loop is traced this way.
/// The last phase ends with [`end_phase`] or with the enclosing span.
pub fn phase(name: &'static str) {
    recording(|rec| {
        let now = now_ns();
        rec.close_phase(now);
        rec.open_span(name, now, true);
    });
}

/// Ends the current phase, if one is open.
pub fn end_phase() {
    recording(|rec| rec.close_phase(now_ns()));
}

/// Runs `f` inside a span named `name` (or just runs it when this thread
/// is not recording).
#[inline]
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !begin(name) {
        return f();
    }
    let result = f();
    end();
    result
}

/// Self time of every span in `spans`, in the same order: duration minus
/// the union of its direct children's intervals, clipped to the span
/// itself. `spans` is one drained batch of one rank, so its ids are
/// consecutive and a parent is found by offset; a parent outside the
/// batch is treated as absent.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let first_id = spans.first().map_or(0, |s| s.id);
    let index_of = |id: u32| {
        id.checked_sub(first_id)
            .map(|i| i as usize)
            .filter(|&i| spans.get(i).is_some_and(|s| s.id == id))
    };
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent.and_then(index_of) {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (lo, hi) in kids {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sums self time by span name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut totals = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        *totals.entry(s.name).or_insert(0) += own;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u32, parent: Option<u32>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            rank: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // rep [0,100] ⊃ call [10,90] ⊃ inner [20,50]
        let spans = [
            sp(0, None, "rep", 0, 100),
            sp(1, Some(0), "call", 10, 90),
            sp(2, Some(1), "inner", 20, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 50, 30]);
    }

    #[test]
    fn self_time_with_adjacent_children() {
        // Two children that touch, one gap at each end.
        let spans = [
            sp(0, None, "rep", 0, 100),
            sp(1, Some(0), "a", 10, 40),
            sp(2, Some(0), "b", 40, 90),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 30, 50]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["rep"] + by_name["a"] + by_name["b"], 100);
    }

    #[test]
    fn self_time_clips_and_unions_overlapping_children() {
        // Children of one parent never overlap when recorded by one
        // thread, but the rule is "the part covered", so the arithmetic
        // must not double count if they do, nor count time outside the
        // parent.
        let spans = [
            sp(0, None, "rep", 10, 60),
            sp(1, Some(0), "a", 0, 30),
            sp(2, Some(0), "b", 20, 50),
        ];
        assert_eq!(self_times_ns(&spans)[0], 10);
    }

    #[test]
    fn phases_are_adjacent_siblings_that_share_their_boundaries() {
        install(0);
        record(|| {
            span("rep", || {
                phase("a");
                phase("b");
                span("inside b", || ());
                phase("a");
                end_phase();
                phase("c"); // left open: the enclosing span closes it
            })
        });
        let spans = drain(<[Span]>::to_vec);
        uninstall();
        let shape: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        let rep = Some(0);
        assert_eq!(
            shape,
            vec![
                ("rep", None),
                ("a", rep),
                ("b", rep),
                ("inside b", Some(2)),
                ("a", rep),
                ("c", rep)
            ]
        );
        assert_eq!(spans[1].end_ns, spans[2].start_ns);
        assert_eq!(spans[2].end_ns, spans[4].start_ns);
        assert_eq!(spans[5].end_ns, spans[0].end_ns);
        assert!(spans.iter().all(|s| s.start_ns <= s.end_ns));
    }

    #[test]
    fn recorder_nests_and_is_inert_when_absent() {
        uninstall();
        assert_eq!(span("ignored", || 7), 7);
        assert!(drain(<[Span]>::is_empty));

        install(3);
        assert_eq!(span("not yet recording", || 8), 8);
        let value = record(|| span("outer", || span("inner", || 5) + span("inner", || 6)));
        assert_eq!(value, 11);
        let first = drain(<[Span]>::to_vec);
        record(|| span("later", || ()));
        let second = drain(<[Span]>::to_vec);
        uninstall();

        let names: Vec<_> = first
            .iter()
            .map(|s| (s.name, s.id, s.parent, s.rank))
            .collect();
        assert_eq!(
            names,
            vec![
                ("outer", 0, None, 3),
                ("inner", 1, Some(0), 3),
                ("inner", 2, Some(0), 3)
            ]
        );
        assert!(first[0].start_ns <= first[1].start_ns && first[2].end_ns <= first[0].end_ns);
        assert_eq!((second.len(), second[0].id), (1, 3));
        let by_name = self_time_by_name(&first);
        assert_eq!(by_name.values().sum::<u64>(), first[0].duration_ns());
    }
}
