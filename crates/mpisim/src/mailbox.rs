//! Per-rank mailbox: a condvar-guarded queue of [`Message`]s.
//!
//! Each world rank owns exactly one mailbox. Messages for every communicator
//! the rank belongs to land in the same queue; `recv` matches on
//! `(comm_id, src, tag)` the way MPI matches `(communicator, source, tag)`.

use crate::message::Message;
use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;

/// A blocking, matching mailbox.
#[derive(Default)]
pub(crate) struct Mailbox {
    queue: Mutex<VecDeque<Message>>,
    signal: Condvar,
}

impl Mailbox {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Deposit a message and wake any waiting receiver.
    pub(crate) fn post(&self, msg: Message) {
        let mut q = self.queue.lock();
        q.push_back(msg);
        // Receivers may be waiting for different (src, tag) matches, so wake
        // all of them; non-matching ones re-sleep immediately.
        drop(q);
        self.signal.notify_all();
    }

    /// Block until a message matching `(comm_id, src, tag)` is available and
    /// remove it from the queue. Messages from the same (src, tag) pair are
    /// delivered in posting order (MPI's non-overtaking guarantee).
    pub(crate) fn recv_match(&self, comm_id: u64, src: usize, tag: u64) -> Message {
        let mut q = self.queue.lock();
        loop {
            if let Some(pos) = q
                .iter()
                .position(|m| m.comm_id == comm_id && m.src == src && m.tag == tag)
            {
                return q.remove(pos).expect("position was just found");
            }
            self.signal.wait(&mut q);
        }
    }

    /// Block until a message of communicator `comm_id` whose `(src, tag)`
    /// satisfies `matches` is queued, and return that pair — the first
    /// such message in posting order — leaving the message queued for
    /// `recv_match`. Posts that do not match wake the caller only to sleep
    /// again.
    pub(crate) fn wait_any(
        &self,
        comm_id: u64,
        matches: impl Fn(usize, u64) -> bool,
    ) -> (usize, u64) {
        let mut q = self.queue.lock();
        loop {
            if let Some(m) = q
                .iter()
                .find(|m| m.comm_id == comm_id && matches(m.src, m.tag))
            {
                return (m.src, m.tag);
            }
            self.signal.wait(&mut q);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    impl Mailbox {
        /// Number of queued messages.
        fn len(&self) -> usize {
            self.queue.lock().len()
        }

        fn is_empty(&self) -> bool {
            self.queue.lock().is_empty()
        }
    }

    #[test]
    fn post_then_recv() {
        let mb = Mailbox::new();
        mb.post(Message::new(1, 0, 5, 8, 99u64));
        let m = mb.recv_match(1, 0, 5);
        assert_eq!(m.take::<u64>(), 99);
        assert!(mb.is_empty());
    }

    #[test]
    fn matching_skips_non_matching() {
        let mb = Mailbox::new();
        mb.post(Message::new(1, 0, 5, 8, 1u64));
        mb.post(Message::new(1, 1, 5, 8, 2u64));
        let m = mb.recv_match(1, 1, 5);
        assert_eq!(m.take::<u64>(), 2);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn non_overtaking_order_preserved() {
        let mb = Mailbox::new();
        for i in 0..10u64 {
            mb.post(Message::new(0, 0, 1, 8, i));
        }
        for i in 0..10u64 {
            assert_eq!(mb.recv_match(0, 0, 1).take::<u64>(), i);
        }
    }

    #[test]
    fn blocking_recv_wakes_on_post() {
        let mb = Arc::new(Mailbox::new());
        let mb2 = Arc::clone(&mb);
        let h = std::thread::spawn(move || mb2.recv_match(0, 0, 42).take::<u64>());
        std::thread::sleep(std::time::Duration::from_millis(20));
        mb.post(Message::new(0, 0, 42, 8, 7u64));
        assert_eq!(h.join().unwrap(), 7);
    }

    #[test]
    fn wait_any_returns_at_once_on_a_queued_match_and_leaves_it_queued() {
        let mb = Mailbox::new();
        mb.post(Message::new(1, 2, 6, 8, 1u64));
        mb.post(Message::new(1, 3, 5, 8, 2u64));
        mb.post(Message::new(1, 4, 5, 8, 3u64));
        // The first match in posting order.
        assert_eq!(mb.wait_any(1, |_, tag| tag == 5), (3, 5));
        assert_eq!(mb.len(), 3, "waiting consumes nothing");
        assert_eq!(mb.recv_match(1, 3, 5).take::<u64>(), 2);
    }

    #[test]
    fn wait_any_sleeps_through_posts_that_do_not_match() {
        use std::sync::mpsc;
        let mb = Arc::new(Mailbox::new());
        let (woke, woken) = mpsc::channel();
        let waiter = {
            let mb = Arc::clone(&mb);
            std::thread::spawn(move || {
                let hit = mb.wait_any(1, |src, tag| src < 2 && tag == 5);
                woke.send(hit).expect("test thread alive");
            })
        };
        // Each post wakes the waiter; none may let it return.
        mb.post(Message::new(1, 0, 6, 8, 0u64)); // other tag
        mb.post(Message::new(2, 0, 5, 8, 0u64)); // other communicator
        mb.post(Message::new(1, 2, 5, 8, 0u64)); // rejected source
        let idle = std::time::Duration::from_millis(50);
        assert!(woken.recv_timeout(idle).is_err(), "woke on a non-match");
        mb.post(Message::new(1, 1, 5, 8, 0u64));
        assert_eq!(woken.recv().expect("waiter returns"), (1, 5));
        waiter.join().expect("waiter panicked");
        assert_eq!(mb.len(), 4);
    }
}
