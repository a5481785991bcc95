//! Offline stand-in for the subset of `crossbeam` this workspace uses:
//! multi-producer multi-consumer bounded (and unbounded) channels with
//! disconnect semantics, in the `crossbeam::channel` module layout.
//!
//! The implementation is a `Mutex<VecDeque>` with two condvars (not the
//! lock-free crossbeam queues). The gateway hands each accepted
//! connection through one, and the telemetry crate its span records; a
//! request runs on the connection worker that read it and crosses no
//! channel, so at these rates the lock is not the bottleneck.

#![forbid(unsafe_code)]

/// MPMC channels with disconnect semantics.
pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex};
    use std::time::{Duration, Instant};

    struct Inner<T> {
        queue: VecDeque<T>,
        cap: Option<usize>,
        senders: usize,
        receivers: usize,
    }

    struct Chan<T> {
        inner: Mutex<Inner<T>>,
        not_empty: Condvar,
        not_full: Condvar,
    }

    /// Sending half; clonable.
    pub struct Sender<T>(Arc<Chan<T>>);

    /// Receiving half; clonable.
    pub struct Receiver<T>(Arc<Chan<T>>);

    /// The receiving side disconnected; the value is returned.
    #[derive(Debug, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Outcome of a non-blocking send attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TrySendError<T> {
        /// The queue is at capacity; the value is returned.
        Full(T),
        /// All receivers are gone; the value is returned.
        Disconnected(T),
    }

    /// All senders disconnected and the queue is drained.
    #[derive(Debug, PartialEq, Eq)]
    pub struct RecvError;

    /// Outcome of a non-blocking receive attempt.
    #[derive(Debug, PartialEq, Eq)]
    pub enum TryRecvError {
        /// Queue momentarily empty.
        Empty,
        /// All senders gone and queue drained.
        Disconnected,
    }

    /// Outcome of a bounded-wait receive.
    #[derive(Debug, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// All senders gone and queue drained.
        Disconnected,
    }

    impl<T> fmt::Debug for Sender<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Sender")
        }
    }

    impl<T> fmt::Debug for Receiver<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            f.write_str("Receiver")
        }
    }

    fn new_chan<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
        let chan = Arc::new(Chan {
            inner: Mutex::new(Inner {
                queue: VecDeque::new(),
                cap,
                senders: 1,
                receivers: 1,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
        });
        (Sender(chan.clone()), Receiver(chan))
    }

    /// A channel holding at most `cap` queued messages.
    pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
        new_chan(Some(cap))
    }

    /// A channel with no capacity limit.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        new_chan(None)
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.inner.lock().unwrap().senders += 1;
            Sender(self.0.clone())
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut inner = self.0.inner.lock().unwrap();
            inner.senders -= 1;
            if inner.senders == 0 {
                drop(inner);
                self.0.not_empty.notify_all();
            }
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.inner.lock().unwrap().receivers += 1;
            Receiver(self.0.clone())
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            let mut inner = self.0.inner.lock().unwrap();
            inner.receivers -= 1;
            if inner.receivers == 0 {
                drop(inner);
                self.0.not_full.notify_all();
            }
        }
    }

    impl<T> Sender<T> {
        /// Queue `value`, blocking while the channel is full.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut inner = self.0.inner.lock().unwrap();
            loop {
                if inner.receivers == 0 {
                    return Err(SendError(value));
                }
                match inner.cap {
                    Some(cap) if inner.queue.len() >= cap => {
                        inner = self.0.not_full.wait(inner).unwrap();
                    }
                    _ => break,
                }
            }
            inner.queue.push_back(value);
            drop(inner);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Queue `value` only if there is room right now.
        pub fn try_send(&self, value: T) -> Result<(), TrySendError<T>> {
            let mut inner = self.0.inner.lock().unwrap();
            if inner.receivers == 0 {
                return Err(TrySendError::Disconnected(value));
            }
            if let Some(cap) = inner.cap {
                if inner.queue.len() >= cap {
                    return Err(TrySendError::Full(value));
                }
            }
            inner.queue.push_back(value);
            drop(inner);
            self.0.not_empty.notify_one();
            Ok(())
        }

        /// Number of queued messages right now.
        pub fn len(&self) -> usize {
            self.0.inner.lock().unwrap().queue.len()
        }

        /// Whether the queue is momentarily empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue a message, blocking until one arrives or every sender
        /// is gone.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut inner = self.0.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvError);
                }
                inner = self.0.not_empty.wait(inner).unwrap();
            }
        }

        /// Dequeue a message, waiting at most `timeout`.
        pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
            let deadline = Instant::now() + timeout;
            let mut inner = self.0.inner.lock().unwrap();
            loop {
                if let Some(v) = inner.queue.pop_front() {
                    drop(inner);
                    self.0.not_full.notify_one();
                    return Ok(v);
                }
                if inner.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                let (guard, _) = self
                    .0
                    .not_empty
                    .wait_timeout(inner, deadline - now)
                    .unwrap();
                inner = guard;
            }
        }

        /// Dequeue a message only if one is queued right now.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut inner = self.0.inner.lock().unwrap();
            if let Some(v) = inner.queue.pop_front() {
                drop(inner);
                self.0.not_full.notify_one();
                return Ok(v);
            }
            if inner.senders == 0 {
                return Err(TryRecvError::Disconnected);
            }
            Err(TryRecvError::Empty)
        }

        /// Number of queued messages right now.
        pub fn len(&self) -> usize {
            self.0.inner.lock().unwrap().queue.len()
        }

        /// Whether the queue is momentarily empty.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::thread;

        #[test]
        fn bounded_backpressure_and_order() {
            let (tx, rx) = bounded::<u32>(2);
            tx.try_send(1).unwrap();
            tx.try_send(2).unwrap();
            assert_eq!(tx.try_send(3), Err(TrySendError::Full(3)));
            assert_eq!(rx.recv(), Ok(1));
            tx.try_send(3).unwrap();
            assert_eq!(rx.recv(), Ok(2));
            assert_eq!(rx.recv(), Ok(3));
            assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        }

        #[test]
        fn disconnect_drains_then_errors() {
            let (tx, rx) = bounded::<u32>(8);
            tx.send(7).unwrap();
            drop(tx);
            assert_eq!(rx.recv(), Ok(7));
            assert_eq!(rx.recv(), Err(RecvError));
            assert_eq!(
                rx.recv_timeout(Duration::from_millis(1)),
                Err(RecvTimeoutError::Disconnected)
            );
        }

        #[test]
        fn mpmc_across_threads_delivers_everything() {
            let (tx, rx) = bounded::<u64>(4);
            let consumers: Vec<_> = (0..3)
                .map(|_| {
                    let rx = rx.clone();
                    thread::spawn(move || {
                        let mut sum = 0u64;
                        while let Ok(v) = rx.recv() {
                            sum += v;
                        }
                        sum
                    })
                })
                .collect();
            drop(rx);
            let producers: Vec<_> = (0..2)
                .map(|p| {
                    let tx = tx.clone();
                    thread::spawn(move || {
                        for i in 0..500u64 {
                            tx.send(p * 1000 + i).unwrap();
                        }
                    })
                })
                .collect();
            drop(tx);
            for p in producers {
                p.join().unwrap();
            }
            let total: u64 = consumers.into_iter().map(|c| c.join().unwrap()).sum();
            let expect: u64 = (0..500u64).sum::<u64>() + (0..500u64).map(|i| 1000 + i).sum::<u64>();
            assert_eq!(total, expect);
        }
    }
}
