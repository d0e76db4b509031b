//! Wire format of the in-process transport.
//!
//! Ranks are threads, so a "message" is an owned value moved through a
//! channel — no serialization. The envelope carries what matching needs
//! (communicator id and one `u64` key) plus the cost-model timestamp; the
//! source is the lane the packet travels, and a chaos delay holds the
//! packet at its sender (`fault.rs`), so neither rides in the envelope.

use std::any::{Any, TypeId};
use std::mem::{ManuallyDrop, MaybeUninit};

/// Message tag, as in MPI. Every `u32` is the user's: a collective's
/// messages are matched by a key no tag can spell.
pub type Tag = u32;

/// What a receive matches on within one communicator and one source.
/// A point-to-point message's key is its user [`Tag`]; a collective's
/// sets the top bit above its call sequence and `TagBase`
/// (`collectives::TagBase::key`).
pub(crate) type Key = u64;

/// A message envelope: the element of a per-peer lane, moved whole
/// through one ring slot whatever its modeled size.
pub(crate) struct Packet {
    /// Id of the communicator this packet belongs to.
    pub comm_id: u64,
    /// Matching key.
    pub key: Key,
    /// Sender's virtual clock at the moment of sending.
    pub sent_at: f64,
    /// Modeled wire size in bytes.
    pub bytes: usize,
    /// The moved value.
    pub payload: Payload,
}

/// Words of inline payload storage: three, so scalars, `(f64, u64)`-style
/// pairs and a `Vec`'s `(pointer, capacity, length)` header all fit.
const INLINE_WORDS: usize = 3;

/// A sent value, type-erased. Small values ride inside the envelope;
/// only the rest pay a box.
///
/// Ranks exchange mostly machine words (a dot product's partial sum, a
/// halo cell, a segment's `Vec` header), and for those a `Box<dyn Any>`
/// is a `malloc` on the sender, one more dependent cache line for the
/// receiver to fetch and a `free` on a thread that did not allocate it.
/// A value of at most [`INLINE_WORDS`] words whose alignment a `u64`
/// satisfies is stored in the envelope itself, behind the same `TypeId`
/// check `Box<dyn Any>::downcast` makes.
pub(crate) enum Payload {
    /// The value's bytes, its type and how to drop it if undelivered.
    Inline(Inline),
    /// Too large or over-aligned for the envelope.
    Boxed(Box<dyn Any + Send>),
}

/// An inline payload. Auto-`Send` (words, a `TypeId`, a function
/// pointer); that the erased value is `Send` too is [`Payload::new`]'s
/// bound, and `new` is the only constructor.
pub(crate) struct Inline {
    /// Holds a valid `T` from construction until `take` or `drop`.
    words: [MaybeUninit<u64>; INLINE_WORDS],
    /// `TypeId::of::<T>()`.
    type_id: TypeId,
    /// `drop_erased::<T>`.
    drop_fn: unsafe fn(*mut u8),
}

/// Drops the `T` at `value`.
///
/// # Safety
/// `value` must point to a valid, suitably aligned `T` that is not used
/// again afterwards.
unsafe fn drop_erased<T>(value: *mut u8) {
    // SAFETY: forwarded to the caller.
    unsafe { std::ptr::drop_in_place(value.cast::<T>()) }
}

impl Payload {
    /// Wraps `value`, inline when it fits.
    pub(crate) fn new<T: Send + 'static>(value: T) -> Payload {
        if size_of::<T>() <= size_of::<[u64; INLINE_WORDS]>()
            && align_of::<T>() <= align_of::<u64>()
        {
            let mut words = [MaybeUninit::<u64>::uninit(); INLINE_WORDS];
            // SAFETY: the branch condition says `words` is large enough
            // and aligned for a `T`; it is a fresh local, so nothing is
            // overwritten without being dropped.
            unsafe { words.as_mut_ptr().cast::<T>().write(value) };
            Payload::Inline(Inline {
                words,
                type_id: TypeId::of::<T>(),
                drop_fn: drop_erased::<T>,
            })
        } else {
            Payload::Boxed(Box::new(value))
        }
    }

    /// Moves the value out if it is a `T`; gives the payload back
    /// untouched if it is not.
    pub(crate) fn take<T: 'static>(self) -> Result<T, Payload> {
        match self {
            Payload::Inline(inline) if inline.type_id == TypeId::of::<T>() => {
                // The value leaves by the read below; the storage must
                // not drop it a second time.
                let inline = ManuallyDrop::new(inline);
                // SAFETY: `type_id` was recorded by `new::<T>` for this
                // very `T` (equal `TypeId`s are equal types), which wrote
                // a `T` at this address, suitably aligned; `take` consumes
                // the payload and `ManuallyDrop` disarms `Inline::drop`,
                // so this is the value's only move out.
                Ok(unsafe { inline.words.as_ptr().cast::<T>().read() })
            }
            Payload::Boxed(boxed) => boxed
                .downcast::<T>()
                .map(|value| *value)
                .map_err(Payload::Boxed),
            other => Err(other),
        }
    }
}

impl Drop for Inline {
    /// An undelivered value (a packet left in a lane or a stash when its
    /// rank exits) still owns whatever it points to.
    fn drop(&mut self) {
        // SAFETY: `drop_fn` is `drop_erased::<T>` for the `T` that `new`
        // wrote into `words`; `take` wraps the storage in `ManuallyDrop`
        // before reading the value out, so a storage that reaches this
        // point still holds it, and it is not used after this call.
        unsafe { (self.drop_fn)(self.words.as_mut_ptr().cast::<u8>()) }
    }
}

impl std::fmt::Debug for Packet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Packet")
            .field("comm_id", &self.comm_id)
            .field("key", &self.key)
            .field("sent_at", &self.sent_at)
            .field("bytes", &self.bytes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn is_inline(payload: &Payload) -> bool {
        matches!(payload, Payload::Inline(_))
    }

    #[test]
    fn values_of_up_to_three_words_ride_inline_and_round_trip() {
        assert!(is_inline(&Payload::new(())));
        assert!(is_inline(&Payload::new(7u8)));
        assert!(is_inline(&Payload::new(1.5f64)));
        assert!(is_inline(&Payload::new((2.5f64, 9u64))));
        assert!(is_inline(&Payload::new([1u64, 2, 3])));
        assert!(is_inline(&Payload::new(vec![0u64; 1 << 17]))); // header only
        assert!(is_inline(&Payload::new(Some(vec![1u8]))));

        assert!(Payload::new(()).take::<()>().is_ok());
        assert_eq!(Payload::new(1.5f64).take::<f64>().ok(), Some(1.5));
        assert_eq!(
            Payload::new((2.5f64, 9u64)).take::<(f64, u64)>().ok(),
            Some((2.5, 9))
        );
        assert_eq!(
            Payload::new([1u64, 2, 3]).take::<[u64; 3]>().ok(),
            Some([1, 2, 3])
        );
        let big = Payload::new(vec![5u64; 1 << 17])
            .take::<Vec<u64>>()
            .ok()
            .unwrap();
        assert_eq!((big.len(), big[1 << 16]), (1 << 17, 5));
    }

    #[test]
    fn larger_or_over_aligned_values_are_boxed_and_round_trip() {
        #[derive(Debug, PartialEq)]
        #[repr(align(16))]
        struct Wide(u64);

        assert!(!is_inline(&Payload::new([1u8; 25])));
        assert!(!is_inline(&Payload::new([1u64; 4])));
        assert!(!is_inline(&Payload::new(Wide(3))));
        assert!(!is_inline(&Payload::new(3u128)));

        assert_eq!(
            Payload::new([1u8; 25]).take::<[u8; 25]>().ok(),
            Some([1; 25])
        );
        assert_eq!(Payload::new(Wide(3)).take::<Wide>().ok(), Some(Wide(3)));
    }

    #[test]
    fn an_inline_value_is_dropped_exactly_once_on_every_path() {
        let witness = Arc::new(());
        assert!(is_inline(&Payload::new(Arc::clone(&witness))));

        // Taken: the receiver owns it.
        let taken = Payload::new(Arc::clone(&witness))
            .take::<Arc<()>>()
            .ok()
            .unwrap();
        assert_eq!(Arc::strong_count(&witness), 2);
        drop(taken);
        assert_eq!(Arc::strong_count(&witness), 1);

        // Never taken: the envelope drops it.
        drop(Payload::new(Arc::clone(&witness)));
        assert_eq!(Arc::strong_count(&witness), 1);

        // Asked for as the wrong type: handed back whole, then dropped.
        let refused = Payload::new(Arc::clone(&witness))
            .take::<u64>()
            .err()
            .unwrap();
        assert_eq!(Arc::strong_count(&witness), 2);
        let taken = refused.take::<Arc<()>>().ok().unwrap();
        assert_eq!(Arc::strong_count(&witness), 2);
        drop(taken);
        assert_eq!(Arc::strong_count(&witness), 1);
    }

    #[test]
    fn the_wrong_type_is_refused_inline_and_boxed() {
        // Same size and alignment, different type: only the `TypeId`
        // tells them apart.
        assert!(Payload::new(1u64).take::<i64>().is_err());
        assert!(Payload::new(1u64).take::<f64>().is_err());
        assert!(Payload::new([0u64; 4]).take::<[i64; 4]>().is_err());
        assert!(Payload::new(()).take::<u8>().is_err());
    }

    #[test]
    fn a_lane_message_and_its_stamp_fit_one_128_byte_block() {
        assert!(size_of::<Packet>() <= 80, "{}", size_of::<Packet>());
        assert!(size_of::<Packet>() + size_of::<usize>() <= 128);
    }
}
