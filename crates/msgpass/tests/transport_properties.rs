//! Randomized-interleaving property test for the transport layer.
//!
//! A random SPMD "plan" — per-rank send lists plus per-rank receive
//! posts, including `Source::Any` posts and payloads of mixed
//! representation (inline in the envelope, or boxed) — is executed on
//! real rank threads, and every delivered message is checked against
//! MPI's ordering contract:
//!
//! * **non-overtaking**: within one `(comm, source, tag)` triple,
//!   messages arrive in send order (asserted via per-triple sequence
//!   numbers);
//! * **cross-source freedom**: a `Source::Any` receive may legally be
//!   satisfied by *any* source holding a matching message — the test
//!   accepts whichever source arrives and only checks that source's own
//!   sequence.
//!
//! Failures shrink to a minimal plan and report a `GV_TESTKIT_SEED` for
//! exact replay (see gv-testkit docs).

use std::collections::HashMap;
use std::sync::Mutex;

use gv_msgpass::{Comm, Runtime};
use gv_testkit::prop::{check, Config, Strategy};
use gv_testkit::rng::TestRng;

/// What every message carries: `(source, tag, per-triple sequence
/// number)`. At 24 bytes it rides inline in the envelope.
type Stamp = (usize, u32, u64);

/// The stamp made too large for the envelope: boxed.
type Large = (Stamp, u64);

/// The stamp made over-aligned for the envelope: boxed.
#[repr(align(16))]
struct Wide(Stamp);

const _: () = assert!(size_of::<Stamp>() <= 24 && align_of::<Stamp>() <= 8);
const _: () = assert!(size_of::<Large>() >= 32);
const _: () = assert!(align_of::<Wide>() > 8);

/// The one representation fork the transport has: how a payload rides.
#[derive(Clone, Copy, Debug)]
enum Repr {
    Inline,
    Large,
    Wide,
}

impl Repr {
    fn send(self, comm: &Comm, dst: usize, tag: u32, stamp: Stamp, bytes: usize) {
        match self {
            Repr::Inline => comm.send_with_bytes(dst, tag, stamp, bytes),
            Repr::Large => comm.send_with_bytes(dst, tag, (stamp, 0u64), bytes),
            Repr::Wide => comm.send_with_bytes(dst, tag, Wide(stamp), bytes),
        }
    }

    /// Receives one message of this representation from `src` (`None` =
    /// `Source::Any`); returns its stamp and actual source.
    fn recv(self, comm: &Comm, src: Option<usize>, tag: u32) -> (Stamp, usize) {
        fn on<T: 'static>(comm: &Comm, src: Option<usize>, tag: u32) -> (T, usize) {
            match src {
                Some(s) => (comm.recv(s, tag), s),
                None => comm.recv_any(tag),
            }
        }
        match self {
            Repr::Inline => on::<Stamp>(comm, src, tag),
            Repr::Large => {
                let ((stamp, _), from) = on::<Large>(comm, src, tag);
                (stamp, from)
            }
            Repr::Wide => {
                let (Wide(stamp), from) = on(comm, src, tag);
                (stamp, from)
            }
        }
    }
}

/// One randomly generated SPMD exchange.
#[derive(Clone, Debug)]
struct Plan {
    p: usize,
    /// `sends[s]` = ordered `(dst, tag, modeled_bytes, representation)`
    /// list for rank `s`.
    sends: Vec<Vec<(usize, u32, usize, Repr)>>,
    /// Seed for deriving the receive posts (kept separate so shrinking
    /// the send lists re-derives consistent posts deterministically).
    post_seed: u64,
}

/// A receive post: `(None, tag)` = `Source::Any`, else a specific source.
type Post = (Option<usize>, u32);

/// The one representation of every message to an `Any`-posted
/// `(destination, tag)`.
type AnyReprs = HashMap<(usize, u32), Repr>;

impl Plan {
    /// Derives, per destination rank, a deadlock-free randomized post
    /// order covering exactly the messages the plan sends it.
    ///
    /// Per `(destination, tag)` the posts are either *all* rank-specific
    /// or *all* `Any` (mixing the two can deadlock legally: an `Any` post
    /// may consume the last message a later rank-specific post needed —
    /// that would be a test bug, not a transport bug).
    ///
    /// A receive names its type before it knows its source, so every
    /// message to an `Any`-posted `(destination, tag)` travels in one
    /// representation, returned in the second map; such a receive still
    /// drains lanes that carry the other tags' representations. Behind
    /// a rank-specific post each message keeps the representation the
    /// plan drew for it, so one triple mixes them.
    fn derive_posts(&self) -> (Vec<Vec<Post>>, AnyReprs) {
        let mut rng = TestRng::new(self.post_seed);
        let mut posts: Vec<Vec<Post>> = vec![Vec::new(); self.p];
        let mut any_repr = AnyReprs::new();
        for (d, posts_to_d) in posts.iter_mut().enumerate() {
            // Group size per (src, tag) destined to d.
            let mut groups: HashMap<(usize, u32), usize> = HashMap::new();
            for (s, sends) in self.sends.iter().enumerate() {
                for &(dst, tag, ..) in sends {
                    if dst == d {
                        *groups.entry((s, tag)).or_insert(0) += 1;
                    }
                }
            }
            let mut tags: Vec<u32> = groups.keys().map(|&(_, t)| t).collect();
            tags.sort_unstable();
            tags.dedup();
            let mut list: Vec<Post> = Vec::new();
            for tag in tags {
                let any = rng.bool();
                if any {
                    any_repr.insert((d, tag), random_repr(&mut rng));
                }
                // Deterministic sweep (never HashMap iteration order) so
                // a replayed seed rebuilds the identical post list.
                for s in 0..self.p {
                    if let Some(&n) = groups.get(&(s, tag)) {
                        let src = if any { None } else { Some(s) };
                        list.extend(std::iter::repeat_n((src, tag), n));
                    }
                }
            }
            // Fisher–Yates: the post order is where the interleaving
            // randomness beyond raw thread timing comes from.
            for i in (1..list.len()).rev() {
                list.swap(i, rng.usize_in(0..i + 1));
            }
            *posts_to_d = list;
        }
        (posts, any_repr)
    }
}

fn random_repr(rng: &mut TestRng) -> Repr {
    [Repr::Inline, Repr::Large, Repr::Wide][rng.usize_in(0..3)]
}

struct PlanStrategy;

impl Strategy for PlanStrategy {
    type Value = Plan;

    fn generate(&self, rng: &mut TestRng) -> Plan {
        let p = rng.usize_in(2..9);
        let sends = (0..p)
            .map(|_| {
                let n = rng.usize_in(0..10);
                (0..n)
                    .map(|_| {
                        let dst = rng.usize_in(0..p); // self-sends included
                        let tag = rng.usize_in(0..3) as u32;
                        let bytes = rng.usize_in(1..257);
                        (dst, tag, bytes, random_repr(rng))
                    })
                    .collect()
            })
            .collect();
        Plan {
            p,
            sends,
            post_seed: rng.next_u64(),
        }
    }

    fn shrink(&self, value: &Plan) -> Vec<Plan> {
        // Simpler = fewer messages: drop the last send of each non-empty
        // rank (posts re-derive from the same seed, so they stay valid).
        let mut candidates = Vec::new();
        for s in 0..value.p {
            if value.sends[s].is_empty() {
                continue;
            }
            let mut plan = value.clone();
            plan.sends[s].pop();
            candidates.push(plan);
        }
        candidates
    }
}

fn run_plan(plan: &Plan) -> Result<(), String> {
    let (posts, any_repr) = plan.derive_posts();
    // The representation each message travels in, per `(src, dst, tag)`
    // triple in send order.
    let mut wire: HashMap<(usize, usize, u32), Vec<Repr>> = HashMap::new();
    for (s, sends) in plan.sends.iter().enumerate() {
        for &(dst, tag, _, repr) in sends {
            let repr = any_repr.get(&(dst, tag)).copied().unwrap_or(repr);
            wire.entry((s, dst, tag)).or_default().push(repr);
        }
    }
    let failure: Mutex<Option<String>> = Mutex::new(None);
    let outcome = std::panic::catch_unwind(|| {
        Runtime::new(plan.p).run(|comm| {
            let r = comm.rank();
            // Send phase: stamp each message with its per-(src, dst,
            // tag) sequence number.
            let mut seqs: HashMap<(usize, u32), u64> = HashMap::new();
            for &(dst, tag, bytes, _) in &plan.sends[r] {
                let seq = seqs.entry((dst, tag)).or_insert(0);
                wire[&(r, dst, tag)][*seq as usize].send(comm, dst, tag, (r, tag, *seq), bytes);
                *seq += 1;
            }
            // Receive phase: whatever the interleaving, each source's
            // own sequence must come back in order.
            let mut expected: HashMap<(usize, u32), u64> = HashMap::new();
            for &(src, tag) in &posts[r] {
                let repr = match src {
                    Some(s) => {
                        let next = expected.get(&(s, tag)).copied().unwrap_or(0);
                        wire[&(s, r, tag)][next as usize]
                    }
                    None => any_repr[&(r, tag)],
                };
                let ((psrc, ptag, pseq), from) = repr.recv(comm, src, tag);
                let fail = |msg: String| {
                    *failure.lock().unwrap() = Some(msg);
                };
                if psrc != from || ptag != tag {
                    fail(format!(
                        "rank {r}: posted (src {src:?}, tag {tag}), got a packet \
                             stamped (src {psrc}, tag {ptag}) from {from}"
                    ));
                    return;
                }
                let want = expected.entry((from, tag)).or_insert(0);
                if pseq != *want {
                    fail(format!(
                        "rank {r}: overtaking on (src {from}, tag {tag}): \
                             expected seq {want}, got {pseq}"
                    ));
                    return;
                }
                *want += 1;
            }
        })
    });
    if let Some(msg) = failure.into_inner().unwrap() {
        return Err(msg);
    }
    match outcome {
        Ok(_) => Ok(()),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_else(|| "non-string panic".to_string());
            Err(format!("rank panicked: {msg}"))
        }
    }
}

#[test]
fn random_interleavings_never_overtake_within_a_triple() {
    let config = Config::new(24);
    check(
        "random_interleavings_never_overtake_within_a_triple",
        &config,
        &PlanStrategy,
        run_plan,
    );
}

#[test]
fn any_source_receives_drain_multiple_senders() {
    // Deterministic cross-source-freedom check: every rank fires at rank
    // 0 on one tag; rank 0 drains them all with `Source::Any` and must
    // see each source's stream in order, whatever the arrival order.
    let outcome = Runtime::new(6).run(|comm| {
        const PER_RANK: u64 = 5;
        if comm.rank() == 0 {
            let mut next: HashMap<usize, u64> = HashMap::new();
            for _ in 0..(comm.size() as u64 - 1) * PER_RANK {
                let ((src, seq), from) = comm.recv_any::<(usize, u64)>(2);
                assert_eq!(src, from);
                let want = next.entry(from).or_insert(0);
                assert_eq!(seq, *want, "overtaking from rank {from}");
                *want += 1;
            }
            next.len()
        } else {
            for seq in 0..PER_RANK {
                comm.send(0, 2, (comm.rank(), seq));
            }
            0
        }
    });
    assert_eq!(outcome.results[0], 5, "sources seen");
}
