//! FCFS resource calendars for modeling contention.
//!
//! A [`FcfsResource`] models a single-server resource (a bus, a DRAM bank, a
//! TLB lookup port) as a calendar: a request arriving at time `t` with service
//! time `s` starts at `max(t, next_free)` and completes `s` cycles later. This
//! reproduces first-come-first-served queueing delay exactly for single-server
//! resources, at a fraction of the cost of per-beat event simulation —
//! the standard trick in transaction-level SoC models.

use crate::time::Cycle;

/// A single-server, first-come-first-served shared resource.
///
/// # Example
///
/// ```
/// use svmsyn_sim::{Cycle, FcfsResource};
/// let mut bus = FcfsResource::new("bus");
/// let (s1, d1) = bus.acquire(Cycle(0), 10);
/// let (s2, d2) = bus.acquire(Cycle(3), 10); // arrives while busy, queues
/// assert_eq!((s1, d1), (Cycle(0), Cycle(10)));
/// assert_eq!((s2, d2), (Cycle(10), Cycle(20)));
/// assert_eq!(bus.busy_cycles(), 20);
/// ```
#[derive(Debug, Clone)]
pub struct FcfsResource {
    name: String,
    next_free: Cycle,
    busy: u64,
    ops: u64,
    max_wait: u64,
    total_wait: u64,
}

impl FcfsResource {
    /// Creates an idle resource with a diagnostic `name`.
    pub fn new(name: impl Into<String>) -> Self {
        FcfsResource {
            name: name.into(),
            next_free: Cycle::ZERO,
            busy: 0,
            ops: 0,
            max_wait: 0,
            total_wait: 0,
        }
    }

    /// The diagnostic name given at construction.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Reserves the resource for `service` cycles for a request arriving at
    /// `now`. Returns `(start, done)`: service begins at `start >= now` and
    /// the resource is released at `done = start + service`.
    pub fn acquire(&mut self, now: Cycle, service: u64) -> (Cycle, Cycle) {
        let start = now.max(self.next_free);
        let done = start + service;
        let wait = (start - now).0;
        self.next_free = done;
        self.busy += service;
        self.ops += 1;
        self.total_wait += wait;
        self.max_wait = self.max_wait.max(wait);
        (start, done)
    }

    /// The earliest time a new request could begin service.
    pub fn next_free(&self) -> Cycle {
        self.next_free
    }

    /// Total cycles spent servicing requests.
    pub fn busy_cycles(&self) -> u64 {
        self.busy
    }

    /// Number of requests serviced.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Longest queueing delay any request experienced, in cycles.
    pub fn max_wait(&self) -> u64 {
        self.max_wait
    }

    /// Mean queueing delay per request, in cycles.
    pub fn mean_wait(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.total_wait as f64 / self.ops as f64
        }
    }

    /// Fraction of `elapsed` the resource spent busy, in `[0, 1]`.
    pub fn utilization(&self, elapsed: Cycle) -> f64 {
        if elapsed.0 == 0 {
            0.0
        } else {
            (self.busy as f64 / elapsed.0 as f64).min(1.0)
        }
    }

    /// Resets all counters and frees the resource (used between benchmark
    /// repetitions so a warm calendar does not leak into the next run).
    pub fn reset(&mut self) {
        self.next_free = Cycle::ZERO;
        self.busy = 0;
        self.ops = 0;
        self.max_wait = 0;
        self.total_wait = 0;
    }
}

impl svmsyn_snap::Snap for FcfsResource {
    fn save(&self, w: &mut svmsyn_snap::SnapWriter) {
        w.put_str(&self.name);
        w.put_u64(self.next_free.0);
        w.put_u64(self.busy);
        w.put_u64(self.ops);
        w.put_u64(self.max_wait);
        w.put_u64(self.total_wait);
    }
    fn load(r: &mut svmsyn_snap::SnapReader<'_>) -> Result<Self, svmsyn_snap::SnapError> {
        Ok(FcfsResource {
            name: r.take_str()?,
            next_free: Cycle(r.take_u64()?),
            busy: r.take_u64()?,
            ops: r.take_u64()?,
            max_wait: r.take_u64()?,
            total_wait: r.take_u64()?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_resource_starts_immediately() {
        let mut r = FcfsResource::new("r");
        let (start, done) = r.acquire(Cycle(100), 7);
        assert_eq!(start, Cycle(100));
        assert_eq!(done, Cycle(107));
        assert_eq!(r.ops(), 1);
        assert_eq!(r.mean_wait(), 0.0);
    }

    #[test]
    fn contention_serializes_fcfs() {
        let mut r = FcfsResource::new("r");
        let (_, d1) = r.acquire(Cycle(0), 10);
        let (s2, d2) = r.acquire(Cycle(1), 5);
        let (s3, _) = r.acquire(Cycle(2), 5);
        assert_eq!(s2, d1);
        assert_eq!(s3, d2);
        assert_eq!(r.max_wait(), 13); // request 3 waited 15 - 2
        assert!(r.mean_wait() > 0.0);
    }

    #[test]
    fn gap_leaves_idle_time() {
        let mut r = FcfsResource::new("r");
        r.acquire(Cycle(0), 10);
        let (start, _) = r.acquire(Cycle(50), 10);
        assert_eq!(start, Cycle(50));
        assert_eq!(r.busy_cycles(), 20);
        assert!((r.utilization(Cycle(60)) - 20.0 / 60.0).abs() < 1e-12);
    }

    #[test]
    fn reset_clears_state() {
        let mut r = FcfsResource::new("r");
        r.acquire(Cycle(0), 10);
        r.reset();
        assert_eq!(r.busy_cycles(), 0);
        assert_eq!(r.next_free(), Cycle::ZERO);
        assert_eq!(r.ops(), 0);
        assert_eq!(r.name(), "r");
    }

    #[test]
    fn utilization_caps_at_one() {
        let mut r = FcfsResource::new("r");
        r.acquire(Cycle(0), 100);
        assert_eq!(r.utilization(Cycle(50)), 1.0);
        assert_eq!(r.utilization(Cycle::ZERO), 0.0);
    }
}
