//! The reference kernel: a fixed piece of the benchmark's own code, run
//! between the iterations of a workload, so that a run can express the
//! workload's host time in units of the host's current speed.
//!
//! The host's speed drifts: on a shared 2-vCPU KVM container the same
//! simulation takes 0.8 s at one minute and 1.5 s at the next, because
//! other tenants share its caches, memory bandwidth and cores. A compute
//! loop barely notices that (±10%); what slows with the simulator is
//! memory-bound, branchy work. So the kernel does two such things, each
//! about half of its time:
//!
//! * a dependent walk through a 64 MiB random cycle (DRAM latency and TLB
//!   misses, like the calendar queue and port tables of the big fabrics);
//! * a toy discrete-event loop: a binary heap of pending events over a
//!   table of a million node states, each event reading and updating a
//!   random node and scheduling zero to two more (the simulator's own
//!   pattern of heap work, scattered loads and unpredictable branches).
//!
//! The kernel depends on nothing in the repository, so a change to the
//! simulator cannot move it: only the host can.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Host seconds of one kernel run on the host the benchmark was tuned on
/// (a 2-vCPU KVM container, where the median run took 0.16–0.23 s). It
/// turns a time in kernel runs back into seconds for the one metric that
/// must be stated in seconds, `setup_s`; it is a fixed scale, never
/// measured, so it cannot move a comparison.
pub const NOMINAL_S: f64 = 0.2;

/// Entries of the random cycle: 16 Mi × 4 B = 64 MiB.
const CYCLE_LEN: usize = 16 << 20;
/// Steps of the walk per kernel run.
const WALK_STEPS: usize = 500_000;
/// Node states of the toy event loop.
const TOY_NODES: usize = 1 << 20;
/// Events the toy loop handles per kernel run.
const TOY_EVENTS: usize = 150_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// The reference kernel and the memory it walks.
pub struct Reference {
    cycle: Vec<u32>,
}

impl Reference {
    /// Builds the 64 MiB cycle (Sattolo's shuffle, fixed seed: one cycle
    /// through every entry, the same on every run).
    pub fn new() -> Reference {
        let mut cycle: Vec<u32> = (0..CYCLE_LEN as u32).collect();
        let mut x = 0x2545_F491_4F6C_DD1D;
        for i in (1..CYCLE_LEN).rev() {
            let j = (xorshift(&mut x) % i as u64) as usize;
            cycle.swap(i, j);
        }
        Reference { cycle }
    }

    /// Runs the kernel once on each of `threads` threads at the same time,
    /// as a workload with that many workers runs, and returns the host
    /// seconds until all have finished.
    pub fn run(&self, threads: usize) -> f64 {
        let start = Instant::now();
        std::thread::scope(|s| {
            for _ in 1..threads {
                s.spawn(|| self.once());
            }
            self.once();
        });
        start.elapsed().as_secs_f64()
    }

    fn once(&self) {
        black_box(self.walk(black_box(WALK_STEPS)));
        black_box(toy_events(black_box(TOY_NODES), black_box(TOY_EVENTS)));
    }

    fn walk(&self, steps: usize) -> u32 {
        let mut i = 0u32;
        for _ in 0..steps {
            i = self.cycle[i as usize];
        }
        i
    }
}

impl Default for Reference {
    fn default() -> Reference {
        Reference::new()
    }
}

/// The toy event loop: `events` events over `nodes` node states.
fn toy_events(nodes: usize, events: usize) -> u64 {
    let mut queued: Vec<u32> = vec![0; nodes];
    let mut credit: Vec<u16> = vec![4; nodes];
    let mut pending = BinaryHeap::with_capacity(nodes / 4);
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for node in 0..nodes / 4 {
        pending.push(Reverse((xorshift(&mut x) % 1000, node as u32)));
    }
    let mut acc = 0u64;
    for _ in 0..events {
        let Some(Reverse((t, node))) = pending.pop() else {
            break;
        };
        let node = node as usize;
        let r = xorshift(&mut x);
        let next = (node.wrapping_mul(31) ^ r as usize) % nodes;
        if credit[next] > 0 {
            credit[next] -= 1;
            queued[next] += 1;
            pending.push(Reverse((t + 1 + (r >> 60), next as u32)));
        } else {
            credit[node] += 1;
            acc = acc.wrapping_add(u64::from(queued[node]));
        }
        if r & 3 == 0 && queued[node] > 0 {
            queued[node] -= 1;
            credit[node] += 1;
            pending.push(Reverse((t + 3 + (r >> 58), node as u32)));
        }
        if pending.len() < nodes / 8 {
            pending.push(Reverse((t + (r >> 54), (r as usize % nodes) as u32)));
        }
    }
    acc ^ pending.len() as u64
}
