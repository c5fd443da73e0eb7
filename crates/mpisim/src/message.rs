//! Message envelope carried between ranks.
//!
//! Payloads are moved (not serialized): a message owns a `Box<dyn Any + Send>`
//! that the receiver downcasts back to the concrete type. This keeps the
//! in-process transport zero-copy while preserving MPI's typed send/recv
//! discipline: a `recv::<T>` on a message whose payload is not `T` is a
//! programming error and panics, exactly like an MPI datatype mismatch.

use std::any::Any;

/// Tag values at or above this bound are reserved for collectives.
pub(crate) const COLLECTIVE_TAG_BASE: u64 = 1 << 40;

/// A tagged, typed message envelope.
pub(crate) struct Message {
    /// Identifier of the communicator this message belongs to.
    pub(crate) comm_id: u64,
    /// Sender's rank *within that communicator*.
    pub(crate) src: usize,
    /// Message tag. User tags must be below [`COLLECTIVE_TAG_BASE`].
    pub(crate) tag: u64,
    /// Approximate wire size in bytes (what real MPI would transfer). The
    /// sender's `CommStats` count it; only the tests read it back here.
    #[cfg(test)]
    bytes: usize,
    /// The payload, to be downcast by the receiver.
    payload: Box<dyn Any + Send>,
}

impl Message {
    /// Wrap `data` into an envelope. `bytes` is the logical wire size.
    pub(crate) fn new<T: Send + 'static>(
        comm_id: u64,
        src: usize,
        tag: u64,
        bytes: usize,
        data: T,
    ) -> Self {
        #[cfg(not(test))]
        let _ = bytes;
        Message {
            comm_id,
            src,
            tag,
            #[cfg(test)]
            bytes,
            payload: Box::new(data),
        }
    }

    /// Downcast the payload to `T`, consuming the message.
    ///
    /// # Panics
    /// Panics if the payload is not a `T` (datatype mismatch).
    pub(crate) fn take<T: 'static>(self) -> T {
        *self
            .payload
            .downcast::<T>()
            .unwrap_or_else(|_| panic!("mpisim: datatype mismatch on recv (tag {})", self.tag))
    }
}

/// Logical wire size of a slice of `T`.
#[inline]
pub(crate) fn slice_bytes<T>(len: usize) -> usize {
    len * std::mem::size_of::<T>()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_typed_payload() {
        let m = Message::new(0, 3, 7, 16, vec![1u64, 2]);
        assert_eq!(m.src, 3);
        assert_eq!(m.tag, 7);
        assert_eq!(m.bytes, 16);
        let v: Vec<u64> = m.take();
        assert_eq!(v, vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "datatype mismatch")]
    fn mismatched_downcast_panics() {
        let m = Message::new(0, 0, 1, 8, 42u64);
        let _: String = m.take();
    }

    #[test]
    fn slice_bytes_counts_element_size() {
        assert_eq!(slice_bytes::<f64>(10), 80);
        assert_eq!(slice_bytes::<u8>(3), 3);
        assert_eq!(slice_bytes::<[f64; 3]>(2), 48);
    }
}
