//! Per-operation deadlines. A worker arms its slot when an operation
//! starts and disarms it when the operation returns; a monitor thread
//! checks the slots every 50 ms. An operation past its deadline is a
//! stall (the program's known lock-order deadlocks never return), so
//! the monitor counts it as failed, prints a failing result, removes
//! the run's scratch directory and ends the process with exit code 3
//! instead of letting the run hang.

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Exit code of a run ended by a stalled operation.
pub const STALL_EXIT: i32 = 3;

pub struct Watchdog {
    epoch: Instant,
    deadline: Duration,
    /// Per slot: nanoseconds since `epoch` at which the armed operation
    /// started, plus one; 0 when idle.
    slots: Vec<AtomicU64>,
    stop: AtomicBool,
    /// Operations attempted so far (for the failing result line).
    pub attempted: AtomicU64,
    /// Directory to remove if the run is ended by a stall.
    pub scratch: Mutex<Option<PathBuf>>,
}

impl Watchdog {
    pub fn spawn(slots: usize, deadline: Duration) -> (Arc<Watchdog>, JoinHandle<()>) {
        let wd = Arc::new(Watchdog {
            epoch: Instant::now(),
            deadline,
            slots: (0..slots).map(|_| AtomicU64::new(0)).collect(),
            stop: AtomicBool::new(false),
            attempted: AtomicU64::new(0),
            scratch: Mutex::new(None),
        });
        let monitor = Arc::clone(&wd);
        let handle = std::thread::Builder::new()
            .name("perfbench-watchdog".into())
            .spawn(move || monitor.watch())
            .expect("spawn watchdog thread");
        (wd, handle)
    }

    pub fn arm(&self, slot: usize) {
        let now = self.epoch.elapsed().as_nanos() as u64 + 1;
        self.slots[slot].store(now, Ordering::Relaxed);
    }

    pub fn disarm(&self, slot: usize) {
        self.slots[slot].store(0, Ordering::Relaxed);
    }

    pub fn stop(&self) {
        self.stop.store(true, Ordering::Relaxed);
    }

    fn watch(&self) {
        while !self.stop.load(Ordering::Relaxed) {
            std::thread::park_timeout(Duration::from_millis(50));
            let now = self.epoch.elapsed().as_nanos() as u64 + 1;
            for (slot, started) in self.slots.iter().enumerate() {
                let started = started.load(Ordering::Relaxed);
                if started != 0 && now.saturating_sub(started) > self.deadline.as_nanos() as u64 {
                    self.fire(slot);
                }
            }
        }
    }

    fn fire(&self, slot: usize) -> ! {
        eprintln!(
            "perfbench: operation in slot {slot} exceeded its {:?} deadline; counting it as \
             failed and ending the run",
            self.deadline
        );
        if let Some(dir) = self.scratch.lock().map(|g| g.clone()).unwrap_or(None) {
            let _ = std::fs::remove_dir_all(dir);
        }
        let attempted = self.attempted.load(Ordering::Relaxed).max(1);
        println!(
            "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": 1, \"metrics\": {{}}}}"
        );
        std::process::exit(STALL_EXIT);
    }
}
