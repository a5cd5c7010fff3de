//! Open-loop pacing: sends are due on a fixed schedule whatever the
//! system does, and every latency is timed from the *due* time, so a
//! stall is charged to each send it delayed.

use std::time::{Duration, Instant};

use crate::spec::LATE_SEND_NS;

/// A fixed-rate schedule: send `i` is due `i * interval` after `start`,
/// `batch` sends sharing each due time.
pub struct Schedule {
    start: Instant,
    interval_ns: u64,
    batch: u64,
    next: u64,
}

/// What one open-loop send cost.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Sent {
    /// Completion minus due time: what the caller waited.
    pub latency_ns: u64,
    /// Send start minus due time: how late the generator ran.
    pub late_ns: u64,
}

impl Sent {
    pub fn generator_late(&self) -> bool {
        self.late_ns > LATE_SEND_NS
    }
}

/// Offsets are nanoseconds since the schedule's start.
pub fn account(due_ns: u64, send_ns: u64, done_ns: u64) -> Sent {
    Sent {
        latency_ns: done_ns.saturating_sub(due_ns),
        late_ns: send_ns.saturating_sub(due_ns),
    }
}

impl Schedule {
    pub fn new(start: Instant, interval: Duration, batch: usize) -> Self {
        Schedule {
            start,
            interval_ns: interval.as_nanos() as u64,
            batch: batch as u64,
            next: 0,
        }
    }

    /// Due offset of the next send; advances the schedule.
    pub fn next_due_ns(&mut self) -> u64 {
        let due = (self.next / self.batch) * self.interval_ns;
        self.next += 1;
        due
    }

    pub fn now_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Sleep until `due_ns` if it lies ahead; returns the send offset.
    /// (A sleeping thread wakes 60-170 us late on the reference box, and
    /// a paced latency includes that, as a periodic caller's would.
    /// Spinning up to the due time instead was tried: it takes the
    /// wake-up out, and leaves numbers of 10-20 us that swing 20-60%
    /// between identical runs with the host's memory latency.)
    pub fn wait_until(&self, due_ns: u64) -> u64 {
        let now = self.now_ns();
        if now >= due_ns {
            return now;
        }
        std::thread::sleep(Duration::from_nanos(due_ns - now));
        self.now_ns()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stalled_send_charges_the_sends_behind_it() {
        // 1 ms schedule; each send takes 100 us except the second, which
        // stalls for 3.5 ms. A closed loop would report one slow
        // operation; from due times, sends 2..4 pay for the stall too.
        let start = Instant::now();
        let mut sched = Schedule::new(start, Duration::from_millis(1), 1);
        let mut clock = 0u64;
        let mut seen = Vec::new();
        for i in 0..6 {
            let due = sched.next_due_ns();
            assert_eq!(due, i * 1_000_000);
            let send = clock.max(due);
            let service = if i == 1 { 3_500_000 } else { 100_000 };
            clock = send + service;
            seen.push(account(due, send, clock));
        }
        let lat: Vec<u64> = seen.iter().map(|s| s.latency_ns).collect();
        assert_eq!(
            lat,
            [100_000, 3_500_000, 2_600_000, 1_700_000, 800_000, 100_000]
        );
        let late: Vec<u64> = seen.iter().map(|s| s.late_ns).collect();
        assert_eq!(late, [0, 0, 2_500_000, 1_600_000, 700_000, 0]);
        assert_eq!(seen.iter().filter(|s| s.generator_late()).count(), 2);
    }

    #[test]
    fn batched_sends_share_a_due_time() {
        let mut sched = Schedule::new(Instant::now(), Duration::from_millis(1), 3);
        let dues: Vec<u64> = (0..7).map(|_| sched.next_due_ns()).collect();
        assert_eq!(dues, [0, 0, 0, 1_000_000, 1_000_000, 1_000_000, 2_000_000]);
    }
}
