//! Host-speed calibration.
//!
//! A shared host can run the same code markedly slower for seconds or
//! minutes at a time (1.6 times slower was seen on a 2-vCPU x86-64
//! container), on the CPU clock as much as on the wall clock. The
//! calibration loop is fixed work resembling the simulator's
//! own mix (ordered-map updates, a binary heap, sorting, 4 KB page copies
//! and allocations) that shares no code with the repository. Timing it
//! beside each repetition measures how fast the host runs at that moment,
//! and host times are scaled to a host on which the loop takes
//! [`REFERENCE_S`]. Work on two threads waits for the slower of two CPUs,
//! so it is calibrated on two.

use std::collections::{BTreeMap, BinaryHeap};
use std::hint::black_box;
use std::time::Instant;

/// The loop's duration on the reference host, s.
pub const REFERENCE_S: f64 = 0.02;

/// Runs the calibration loop on `threads` threads at once, as many as the
/// measured work uses, and returns the slowest one's duration, s: work
/// spread over threads waits for its slowest CPU.
pub fn calibrate(threads: usize) -> f64 {
    std::thread::scope(|s| {
        let others: Vec<_> = (1..threads).map(|_| s.spawn(calibration_loop)).collect();
        let own = calibration_loop();
        others
            .into_iter()
            .map(|l| l.join().expect("the calibration loop does not panic"))
            .fold(own, f64::max)
    })
}

fn calibration_loop() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut map = BTreeMap::new();
    let mut heap = BinaryHeap::new();
    let mut keys: Vec<u64> = Vec::with_capacity(1 << 14);
    let mut pages: Vec<Box<[u8]>> = Vec::new();
    let page = [7u8; 4096];
    for i in 0..100_000u64 {
        // xorshift64: a fixed pseudo-random sequence.
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        map.insert(x % 8192, i);
        if i % 3 == 0 {
            map.remove(&((x >> 17) % 8192));
        }
        heap.push(x >> 40);
        if heap.len() > 256 {
            heap.pop();
        }
        keys.push(x);
        if keys.len() == keys.capacity() {
            keys.sort_unstable();
            keys.clear();
        }
        if i % 16 == 0 {
            pages.push(Box::new(page));
            if pages.len() > 512 {
                pages.swap_remove((x % 512) as usize);
            }
        }
    }
    black_box((map.len(), heap.len(), keys.len(), pages.len()));
    start.elapsed().as_secs_f64()
}
