//! Shared-device scheduling: compute as a leased, cross-model resource.
//!
//! Through PR 7 every [`crate::InferenceEngine`] assumed it owned the
//! whole device: each engine's workers spent the full static `Threading`
//! budget as if no other model existed. That assumption breaks exactly
//! where the paper's WSC argument lives — consolidating many DNN
//! services onto one accelerator. This module makes compute a first-class
//! shared resource:
//!
//! * [`Device`] describes the capacity being shared — a CPU thread pool
//!   or an MPS-style slot count on the simulated GPU (the fluid-rate
//!   sharing model in `gpusim::engine::mps_slowdown`, where co-resident
//!   kernels divide the device by their summed demand);
//! * [`DeviceScheduler`] grants bounded [`ComputeLease`]s to engines'
//!   dispatch threads. A lease carries the thread budget the holder may
//!   spend; dropping it returns the capacity and wakes waiters. The time spent
//!   blocked in [`DeviceScheduler::acquire`] is the *lease wait* — a
//!   visible stage in traces and stats, the co-location analogue of
//!   queueing delay;
//! * [`ColocationPolicy`] sizes, per dispatch, the one knob between the
//!   two extremes studied in "Throughput Maximization of DNN Inference:
//!   Batching or Multi-Tenancy?": the coalescing window. A full window
//!   waits to fill the batch (amortize per-dispatch cost); a zero
//!   window — a zero [`crate::BatchConfig::max_delay`] — runs now on a
//!   partial device slice (cut latency). The dynamic policy picks per
//!   model from queue depth, batch fill, SLA headroom, and current
//!   device availability.
//!
//! Grants are *fair-share bounded*: with `s` engines sharing a
//! `c`-thread device, no single lease exceeds `max(1, c / s)` threads
//! while others are registered, so one model's burst cannot starve its
//! neighbors of whole-device access. Because every parallel kernel in
//! the `tensor` substrate is bitwise-identical to its sequential path at
//! any thread count, a partial lease changes *when* work runs, never
//! *what* it computes.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use tensor::Threading;

/// The shared compute resource engines lease slices of.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Device {
    /// A host CPU pool of `threads` worker threads.
    Cpu {
        /// Total schedulable worker threads.
        threads: usize,
    },
    /// The simulated GPU shared MPS-style: up to `slots` co-resident
    /// kernels, each an independent single-threaded forward pass whose
    /// *modeled* latency already reflects fluid-rate sharing
    /// (`gpusim::engine::mps_slowdown`). The lease wait models MPS
    /// admission beyond the slot count.
    SimGpuMps {
        /// Concurrent kernel slots (CUDA MPS defaults to 16 clients).
        slots: usize,
    },
}

impl Device {
    /// Total capacity in lease units (threads or kernel slots).
    pub fn capacity(&self) -> usize {
        match *self {
            Device::Cpu { threads } => threads.max(1),
            Device::SimGpuMps { slots } => slots.max(1),
        }
    }

    /// Units one lease should request for a `want`-thread inference.
    fn units_for(&self, want: usize) -> usize {
        match *self {
            Device::Cpu { .. } => want.max(1),
            // A GPU kernel occupies one MPS slot regardless of the host
            // thread budget; intra-kernel parallelism is the device's.
            Device::SimGpuMps { .. } => 1,
        }
    }

    /// The thread budget a grant of `units` translates to.
    fn threading_for(&self, units: usize) -> Threading {
        match *self {
            Device::Cpu { .. } => Threading::new(units),
            Device::SimGpuMps { .. } => Threading::SINGLE,
        }
    }
}

/// A granted slice of the device, released on drop.
///
/// Holds `granted` lease units and records how long the acquirer blocked
/// waiting for them. The engine turns the grant into the [`Threading`]
/// budget passed to `Executor::infer_budgeted_cached`.
#[derive(Debug)]
pub struct ComputeLease {
    scheduler: Arc<SchedulerInner>,
    granted: usize,
    waited: Duration,
}

impl ComputeLease {
    /// Lease units granted (threads on CPU, kernel slots on the GPU).
    pub fn granted(&self) -> usize {
        self.granted
    }

    /// Time spent blocked waiting for the grant.
    pub fn waited(&self) -> Duration {
        self.waited
    }

    /// The thread budget this lease authorizes.
    pub fn threading(&self) -> Threading {
        self.scheduler.device.threading_for(self.granted)
    }
}

impl Drop for ComputeLease {
    fn drop(&mut self) {
        if self.scheduler.dedicated {
            return; // dedicated capacity is never decremented
        }
        let mut free = self.scheduler.free.lock().unwrap();
        *free += self.granted;
        drop(free);
        // Wake everyone: grants are sized per-acquirer, so any waiter
        // may now be satisfiable.
        self.scheduler.cv.notify_all();
    }
}

#[derive(Debug)]
struct SchedulerInner {
    device: Device,
    free: Mutex<usize>,
    cv: Condvar,
    sharers: AtomicUsize,
    /// `true` for the legacy engine-private path: grants are immediate
    /// and unbounded, preserving pre-scheduler behavior exactly.
    dedicated: bool,
}

/// Grants bounded compute leases over one shared [`Device`].
///
/// One scheduler instance fronts one device; every engine placed on the
/// device shares the same `Arc<DeviceScheduler>`. Acquisition blocks
/// until at least one unit is free, then grants
/// `min(want, fair_share, free)` units where
/// `fair_share = max(1, capacity / sharers)` — work-conserving (a lone
/// engine still gets the whole device) but starvation-proof under
/// contention.
#[derive(Debug)]
pub struct DeviceScheduler {
    inner: Arc<SchedulerInner>,
}

impl DeviceScheduler {
    /// A scheduler sharing `device` between engines.
    pub fn new(device: Device) -> Self {
        DeviceScheduler {
            inner: Arc::new(SchedulerInner {
                device,
                free: Mutex::new(device.capacity()),
                cv: Condvar::new(),
                sharers: AtomicUsize::new(0),
                dedicated: false,
            }),
        }
    }

    /// The legacy engine-private mode: every acquire is granted in full,
    /// immediately, with zero wait. Engines constructed without an
    /// explicit scheduler get this, so single-tenant deployments behave
    /// exactly as before the device layer existed.
    pub fn dedicated() -> Self {
        DeviceScheduler {
            inner: Arc::new(SchedulerInner {
                device: Device::Cpu {
                    threads: usize::MAX,
                },
                free: Mutex::new(usize::MAX),
                cv: Condvar::new(),
                sharers: AtomicUsize::new(0),
                dedicated: true,
            }),
        }
    }

    /// The device being scheduled.
    pub fn device(&self) -> Device {
        self.inner.device
    }

    /// Registers one more engine sharing the device (affects fair share).
    pub fn register_sharer(&self) {
        self.inner.sharers.fetch_add(1, Ordering::Relaxed);
    }

    /// Unregisters a sharer (engine shutdown).
    pub fn unregister_sharer(&self) {
        let prev = self.inner.sharers.fetch_sub(1, Ordering::Relaxed);
        debug_assert!(prev > 0, "unregister without register");
    }

    /// Registered sharers.
    pub fn sharers(&self) -> usize {
        self.inner.sharers.load(Ordering::Relaxed)
    }

    /// Units currently unleased.
    pub fn free_units(&self) -> usize {
        if self.inner.dedicated {
            return usize::MAX;
        }
        *self.inner.free.lock().unwrap()
    }

    /// The per-lease grant cap at the current sharer count.
    fn fair_share(&self) -> usize {
        let sharers = self.sharers().max(1);
        (self.inner.device.capacity() / sharers).max(1)
    }

    /// Blocks until compute is available, then grants a lease of at most
    /// `want` threads (at least 1 unit). Never blocks on a dedicated
    /// scheduler.
    pub fn acquire(&self, want: usize) -> ComputeLease {
        if self.inner.dedicated {
            return ComputeLease {
                scheduler: Arc::clone(&self.inner),
                granted: want.max(1),
                waited: Duration::ZERO,
            };
        }
        let units = self.inner.device.units_for(want);
        let start = Instant::now();
        let mut free = self.inner.free.lock().unwrap();
        while *free == 0 {
            free = self.inner.cv.wait(free).unwrap();
        }
        let grant = units.min(self.fair_share()).min(*free).max(1);
        *free -= grant;
        ComputeLease {
            scheduler: Arc::clone(&self.inner),
            granted: grant,
            waited: start.elapsed(),
        }
    }
}

/// Per-model choice between the two ways to spend a shared device.
///
/// The batched dispatch loop asks the policy, each time it holds a
/// partial batch, how much longer to keep coalescing. `AlwaysBatch`
/// answers "the full [`crate::BatchConfig::max_delay`]" (the pre-device
/// behavior); `Dynamic` splits the difference from SLA headroom, batch
/// fill, queue state, and device availability. Never waiting — running
/// now on whatever slice is free — is a zero `max_delay`, which the loop
/// dispatches without asking.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ColocationPolicy {
    /// Always wait out the coalescing window to maximize batch fill.
    #[default]
    AlwaysBatch,
    /// Batch when there is SLA headroom and the device is busy anyway;
    /// co-locate when the SLA is tight or waiting cannot improve fill.
    Dynamic {
        /// End-to-end latency budget a request should meet.
        sla: Duration,
    },
}

impl ColocationPolicy {
    /// How much longer the dispatcher should keep coalescing.
    ///
    /// * `max_delay` — the configured coalescing window;
    /// * `oldest_wait` — how long the oldest assembled request has
    ///   already been queued + coalesced;
    /// * `assembled` / `max_batch` — current and target batch fill;
    /// * `queue_empty` — whether more work is waiting behind the batch;
    /// * `device_free` — whether the shared device has a free unit now.
    ///
    /// Returns [`Duration::ZERO`] to dispatch immediately.
    pub fn coalesce_budget(
        &self,
        max_delay: Duration,
        oldest_wait: Duration,
        assembled: usize,
        max_batch: usize,
        queue_empty: bool,
        device_free: bool,
    ) -> Duration {
        match *self {
            ColocationPolicy::AlwaysBatch => max_delay,
            ColocationPolicy::Dynamic { sla } => {
                if assembled >= max_batch {
                    return Duration::ZERO; // full: nothing to wait for
                }
                // SLA headroom left for the oldest request, after
                // reserving half the budget for service + reply.
                let headroom = (sla / 2).saturating_sub(oldest_wait);
                if headroom.is_zero() {
                    return Duration::ZERO; // already at risk: run now
                }
                if queue_empty && device_free {
                    // Nothing is arriving and compute sits idle —
                    // batching buys amortization of nothing.
                    return Duration::ZERO;
                }
                // Busy device or backlog: waiting is cheap (we'd queue
                // for the lease anyway) and improves fill. Spend at most
                // half the remaining headroom, never past the window.
                max_delay.min(headroom / 2)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::thread;

    #[test]
    fn dedicated_scheduler_grants_in_full_with_zero_wait() {
        let sched = DeviceScheduler::dedicated();
        assert!(sched.inner.dedicated);
        let a = sched.acquire(8);
        let b = sched.acquire(16); // never blocks, even while `a` is held
        assert_eq!(a.granted(), 8);
        assert_eq!(b.granted(), 16);
        assert_eq!(a.waited(), Duration::ZERO);
        assert_eq!(a.threading(), Threading::new(8));
    }

    #[test]
    fn cpu_grants_are_bounded_by_fair_share_and_free_capacity() {
        let sched = DeviceScheduler::new(Device::Cpu { threads: 8 });
        sched.register_sharer();
        sched.register_sharer();
        // Two sharers on 8 threads: fair share is 4.
        let a = sched.acquire(8);
        assert_eq!(a.granted(), 4);
        assert_eq!(sched.free_units(), 4);
        // Second acquire fits in the remainder.
        let b = sched.acquire(8);
        assert_eq!(b.granted(), 4);
        assert_eq!(sched.free_units(), 0);
        // Capacity returns on drop.
        drop(a);
        assert_eq!(sched.free_units(), 4);
        drop(b);
        assert_eq!(sched.free_units(), 8);
    }

    #[test]
    fn lone_sharer_gets_the_whole_device() {
        let sched = DeviceScheduler::new(Device::Cpu { threads: 6 });
        sched.register_sharer();
        let lease = sched.acquire(16);
        assert_eq!(lease.granted(), 6, "work-conserving when alone");
    }

    #[test]
    fn acquire_blocks_until_a_lease_is_released() {
        let sched = Arc::new(DeviceScheduler::new(Device::Cpu { threads: 2 }));
        sched.register_sharer();
        let held = sched.acquire(2);
        assert_eq!(sched.free_units(), 0, "device exhausted");

        let blocked = Arc::new(AtomicBool::new(true));
        let waiter = {
            let sched = Arc::clone(&sched);
            let blocked = Arc::clone(&blocked);
            thread::spawn(move || {
                let lease = sched.acquire(1);
                blocked.store(false, Ordering::SeqCst);
                lease.granted()
            })
        };
        thread::sleep(Duration::from_millis(30));
        assert!(blocked.load(Ordering::SeqCst), "must wait while exhausted");
        drop(held);
        let granted = waiter.join().unwrap();
        assert!(granted >= 1);
        assert!(!blocked.load(Ordering::SeqCst));
    }

    #[test]
    fn waited_records_blocking_time() {
        let sched = Arc::new(DeviceScheduler::new(Device::Cpu { threads: 1 }));
        sched.register_sharer();
        let held = sched.acquire(1);
        let waiter = {
            let sched = Arc::clone(&sched);
            thread::spawn(move || sched.acquire(1).waited())
        };
        thread::sleep(Duration::from_millis(25));
        drop(held);
        let waited = waiter.join().unwrap();
        assert!(
            waited >= Duration::from_millis(15),
            "lease wait must cover the blocked interval, got {waited:?}"
        );
    }

    #[test]
    fn mps_device_grants_one_slot_per_lease() {
        let sched = DeviceScheduler::new(Device::SimGpuMps { slots: 2 });
        sched.register_sharer();
        let a = sched.acquire(8); // thread budget irrelevant on the GPU
        assert_eq!(a.granted(), 1);
        assert_eq!(a.threading(), Threading::SINGLE);
        let b = sched.acquire(8);
        assert_eq!(b.granted(), 1);
        assert_eq!(sched.free_units(), 0, "both slots occupied");
    }

    #[test]
    fn policy_extremes_answer_the_window_and_zero() {
        let window = Duration::from_millis(4);
        let b = ColocationPolicy::AlwaysBatch;
        assert_eq!(
            b.coalesce_budget(window, Duration::ZERO, 1, 8, true, true),
            window
        );
        // A zero window is "never wait" under every policy.
        let d = ColocationPolicy::Dynamic {
            sla: Duration::from_secs(1),
        };
        for p in [b, d] {
            assert_eq!(
                p.coalesce_budget(Duration::ZERO, Duration::ZERO, 1, 8, false, false),
                Duration::ZERO
            );
        }
    }

    #[test]
    fn dynamic_policy_dispatches_when_full_tight_or_pointless() {
        let window = Duration::from_millis(4);
        let p = ColocationPolicy::Dynamic {
            sla: Duration::from_millis(20),
        };
        // Full batch: go.
        assert_eq!(
            p.coalesce_budget(window, Duration::ZERO, 8, 8, false, false),
            Duration::ZERO
        );
        // Oldest request has burned the SLA headroom: go.
        assert_eq!(
            p.coalesce_budget(window, Duration::from_millis(30), 1, 8, false, false),
            Duration::ZERO
        );
        // Idle queue + free device: batching amortizes nothing, go.
        assert_eq!(
            p.coalesce_budget(window, Duration::ZERO, 1, 8, true, true),
            Duration::ZERO
        );
        // Busy device, fresh request, partial batch: keep coalescing.
        let wait = p.coalesce_budget(window, Duration::ZERO, 1, 8, false, false);
        assert!(wait > Duration::ZERO && wait <= window);
    }
}
