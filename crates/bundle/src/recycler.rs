//! Background cleanup thread ("delegated to a background thread", §7 /
//! Appendix B) that periodically prunes stale bundle entries and helps the
//! epoch collector advance.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A stoppable background thread that repeatedly runs a cleanup closure with
/// a configurable delay `d` between passes — the knob varied in Table 1 of
/// the paper (d ∈ {0ms, 1ms, 10ms, 100ms}).
///
/// The closure is supplied by the data structure; typically it asks its
/// [`crate::RqContext`] for the oldest announced snapshot and walks the
/// structure calling [`crate::Bundle::reclaim_up_to`] on every bundle,
/// retiring stale entries through the context's EBR collector (shared by
/// every structure built over that context).
pub struct Recycler {
    stop: Arc<AtomicBool>,
    passes: Arc<AtomicU64>,
    handle: Option<JoinHandle<()>>,
}

impl Recycler {
    /// Spawn a recycler running `cleanup` every `delay` (a zero delay means
    /// back-to-back passes, the paper's most aggressive configuration).
    pub fn spawn<F>(delay: Duration, cleanup: F) -> Self
    where
        F: Fn() + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let passes = Arc::new(AtomicU64::new(0));
        let stop2 = Arc::clone(&stop);
        let passes2 = Arc::clone(&passes);
        let handle = std::thread::Builder::new()
            .name("bundle-recycler".into())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    cleanup();
                    passes2.fetch_add(1, Ordering::Relaxed);
                    if delay.is_zero() {
                        std::thread::yield_now();
                    } else {
                        // Sleep in small slices so shutdown stays responsive
                        // even with the 100ms delay configuration.
                        let mut remaining = delay;
                        let slice = Duration::from_millis(5);
                        while !remaining.is_zero() && !stop2.load(Ordering::Acquire) {
                            let d = remaining.min(slice);
                            std::thread::sleep(d);
                            remaining = remaining.saturating_sub(d);
                        }
                    }
                }
            })
            .expect("failed to spawn recycler thread");
        Recycler {
            stop,
            passes,
            handle: Some(handle),
        }
    }

    /// Number of cleanup passes completed so far.
    pub fn passes(&self) -> u64 {
        self.passes.load(Ordering::Relaxed)
    }

    /// Request the thread to stop and wait for it to exit.
    pub fn stop(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Recycler {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

impl std::fmt::Debug for Recycler {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recycler")
            .field("passes", &self.passes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    #[test]
    fn runs_cleanup_repeatedly_until_stopped() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let r = Recycler::spawn(Duration::from_millis(1), move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        std::thread::sleep(Duration::from_millis(100));
        r.stop();
        let n = counter.load(Ordering::Relaxed);
        assert!(n > 1, "cleanup should have run multiple times (ran {n})");
    }

    #[test]
    fn drop_stops_the_thread() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        {
            let _r = Recycler::spawn(Duration::ZERO, move || {
                c2.fetch_add(1, Ordering::Relaxed);
            });
            std::thread::sleep(Duration::from_millis(20));
        }
        let after_drop = counter.load(Ordering::Relaxed);
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(counter.load(Ordering::Relaxed), after_drop);
    }

    #[test]
    fn zero_delay_runs_aggressively() {
        let counter = Arc::new(AtomicU64::new(0));
        let c2 = Arc::clone(&counter);
        let r = Recycler::spawn(Duration::ZERO, move || {
            c2.fetch_add(1, Ordering::Relaxed);
        });
        // Poll instead of sleeping a fixed time: on a loaded box the
        // recycler thread may get only a few quanta in any short window.
        let deadline = Instant::now() + Duration::from_secs(10);
        while r.passes() < 10 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        let n = r.passes();
        r.stop();
        assert!(n >= 10, "aggressive recycler should run many passes ({n})");
    }
}
