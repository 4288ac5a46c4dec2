//! Open-loop load generation: messages fall due on a fixed schedule
//! whatever the system's progress, and each is timed from when it was
//! due, so a stall also delays every message queued behind it.

/// A fixed-rate schedule of `count` messages, the first due at 0.
#[derive(Copy, Clone, Debug)]
pub struct Schedule {
    interval_ns: u64,
    count: usize,
}

impl Schedule {
    /// `count` messages at `rate` per second.
    pub fn new(rate_per_s: f64, count: usize) -> Schedule {
        Schedule { interval_ns: (1e9 / rate_per_s).round() as u64, count }
    }

    /// When message `i` falls due, in ns since the start.
    pub fn due_ns(&self, i: usize) -> u64 {
        self.interval_ns * i as u64
    }

    /// How many messages have fallen due by `now_ns`.
    pub fn due_by(&self, now_ns: u64) -> usize {
        ((now_ns / self.interval_ns) as usize + 1).min(self.count)
    }
}

/// The life of one message, in ns since the start of the run.
#[derive(Copy, Clone, Debug, PartialEq)]
pub struct Record {
    /// When the schedule said to send it.
    pub due_ns: u64,
    /// When the generator actually sent it.
    pub sent_ns: u64,
    /// When its result was seen committed.
    pub done_ns: Option<u64>,
}

impl Record {
    /// Round-trip time from the due time (ms): generator lateness is
    /// part of the latency, as a user sending on schedule would see it.
    pub fn rtt_ms(&self) -> Option<f64> {
        self.done_ns.map(|d| d.saturating_sub(self.due_ns) as f64 / 1e6)
    }

    /// How late the generator sent the message (ms).
    pub fn lag_ms(&self) -> f64 {
        self.sent_ns.saturating_sub(self.due_ns) as f64 / 1e6
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn schedule_is_fixed_rate_and_capped() {
        let s = Schedule::new(20.0, 5);
        assert_eq!(s.due_ns(0), 0);
        assert_eq!(s.due_ns(3), 150_000_000);
        assert_eq!(s.due_by(0), 1);
        assert_eq!(s.due_by(49_999_999), 1);
        assert_eq!(s.due_by(50_000_000), 2);
        assert_eq!(s.due_by(10_000_000_000), 5);
    }

    #[test]
    fn latency_runs_from_due_time_and_includes_lateness() {
        // Sent 30 ms late (the generator was stuck behind a slow drain),
        // committed 5 ms after sending: the user waited 35 ms.
        let late = Record {
            due_ns: 100_000_000,
            sent_ns: 130_000_000,
            done_ns: Some(135_000_000),
        };
        assert_eq!(late.lag_ms(), 30.0);
        assert_eq!(late.rtt_ms(), Some(35.0));
        let on_time = Record {
            due_ns: 100_000_000,
            sent_ns: 100_000_000,
            done_ns: Some(105_000_000),
        };
        assert_eq!(on_time.lag_ms(), 0.0);
        assert_eq!(on_time.rtt_ms(), Some(5.0));
        let pending = Record { due_ns: 0, sent_ns: 0, done_ns: None };
        assert_eq!(pending.rtt_ms(), None);
    }

    #[test]
    fn a_stall_delays_messages_due_during_it() {
        // One stall of 120 ms starting at t=0 at 20 msg/s: messages due at
        // 0, 50 and 100 ms are all sent at 120 ms and committed at 125 ms.
        let s = Schedule::new(20.0, 4);
        let sent = 120_000_000;
        assert_eq!(s.due_by(sent), 3);
        let rtts: Vec<f64> = (0..3)
            .map(|i| Record {
                due_ns: s.due_ns(i),
                sent_ns: sent,
                done_ns: Some(125_000_000),
            })
            .map(|r| r.rtt_ms().unwrap())
            .collect();
        assert_eq!(rtts, vec![125.0, 75.0, 25.0]);
    }
}
