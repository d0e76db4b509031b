//! A value sent inline in its envelope is owned by exactly one place at a
//! time, wherever the envelope ends up: delivered, stashed and never
//! asked for, or left in a lane when both ranks are gone.
//!
//! The witness is an `Arc<()>`: one pointer, so it rides inline, and its
//! strong count says how many copies are alive — back to 1 once the run
//! is over means every sent clone was dropped (not leaked), and a double
//! drop would be a use-after-free the count underflows on.

use std::sync::{Arc, Barrier};

use gv_msgpass::{Runtime, ShutdownError};

#[test]
fn a_received_inline_value_is_dropped_once_by_its_receiver() {
    let witness = Arc::new(());
    let counts = Runtime::new(2)
        .run(|comm| {
            if comm.rank() == 0 {
                for _ in 0..100 {
                    comm.send(1, 3, Arc::clone(&witness));
                }
                comm.barrier();
                0
            } else {
                let held: Vec<Arc<()>> = (0..100).map(|_| comm.recv(0, 3)).collect();
                let alive = Arc::strong_count(&witness);
                drop(held);
                comm.barrier();
                alive
            }
        })
        .results;
    assert_eq!(counts[1], 101, "all hundred clones were alive in the receiver");
    assert_eq!(Arc::strong_count(&witness), 1);
}

#[test]
fn a_stashed_inline_value_is_dropped_when_its_rank_exits() {
    // Rank 1 asks for tag 8 only; matching it drains the tag-7 messages
    // ahead of it into the stash, where they stay until the rank's
    // mailbox is dropped.
    let witness = Arc::new(());
    Runtime::new(2).run(|comm| {
        if comm.rank() == 0 {
            for _ in 0..5 {
                comm.send(1, 7, Arc::clone(&witness));
            }
            comm.send(1, 8, 1u64);
        } else {
            assert_eq!(comm.recv::<u64>(0, 8), 1);
            assert_eq!(Arc::strong_count(&witness), 6, "five clones sit in the stash");
        }
    });
    assert_eq!(Arc::strong_count(&witness), 1);
}

#[test]
fn inline_values_left_in_a_lane_are_dropped_with_it() {
    // Forty sends nobody receives: thirty-two fill the ring's slots, eight
    // spill to the overflow queue. The gate keeps rank 1 alive until they
    // are all deposited (a send to a dead receiver drops its value on
    // the spot, which is not the path under test).
    let witness = Arc::new(());
    let gate = Barrier::new(2);
    let outcome = Runtime::new(2).run(|comm| {
        if comm.rank() == 0 {
            for _ in 0..40 {
                comm.send(1, 3, Arc::clone(&witness));
            }
        }
        gate.wait();
    });
    assert_eq!(outcome.stats.transport.overflow_sends, 8);
    assert_eq!(Arc::strong_count(&witness), 1);
}

#[test]
fn boxed_values_take_the_same_paths() {
    // Four words: over the inline limit, so the envelope carries a box.
    let witness = Arc::new(());
    let gate = Barrier::new(2);
    Runtime::new(2).run(|comm| {
        let wide = |tag_value: u64| (tag_value, 0u64, 0u64, Arc::clone(&witness));
        if comm.rank() == 0 {
            comm.send(1, 7, wide(7)); // stashed, never received
            comm.send(1, 8, wide(8)); // received
            comm.send(1, 9, wide(9)); // left in the lane
        } else {
            let (value, _, _, held) = comm.recv::<(u64, u64, u64, Arc<()>)>(0, 8);
            assert_eq!(value, 8);
            drop(held);
        }
        gate.wait();
    });
    assert_eq!(Arc::strong_count(&witness), 1);
}

#[test]
fn receiving_the_wrong_type_names_the_triple_and_the_expected_type() {
    // Inline (`u32` asked for as `String`) and boxed (`[u64; 4]` asked
    // for as `[i64; 4]`): the same message either way, and the refused
    // value is still dropped once.
    fn mismatch<S: Send + Clone + Sync + 'static, R: 'static>(sent: S) -> String {
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            Runtime::new(2).run(|comm| {
                if comm.rank() == 0 {
                    comm.send(1, 3, sent.clone());
                } else {
                    let _: R = comm.recv(0, 3);
                }
            })
        }))
        .expect_err("a wrong-typed receive must panic");
        match payload.downcast::<String>() {
            Ok(message) => *message,
            Err(other) => panic!(
                "expected the mismatch message, got {:?}",
                other.downcast_ref::<ShutdownError>()
            ),
        }
    }

    let inline = mismatch::<u32, String>(42);
    assert!(
        inline.contains("type mismatch receiving on comm 0 from rank 0 tag 3: expected")
            && inline.contains("String"),
        "{inline}"
    );
    let boxed = mismatch::<[u64; 4], [i64; 4]>([1; 4]);
    assert!(
        boxed.contains("type mismatch receiving on comm 0 from rank 0 tag 3: expected")
            && boxed.contains("[i64; 4]"),
        "{boxed}"
    );

    let witness = Arc::new(());
    let refused = std::panic::catch_unwind(|| {
        Runtime::new(2).run(|comm| {
            if comm.rank() == 0 {
                comm.send(1, 3, Arc::clone(&witness));
            } else {
                let _: u64 = comm.recv(0, 3);
            }
        })
    });
    assert!(refused.is_err());
    assert_eq!(Arc::strong_count(&witness), 1);
}
