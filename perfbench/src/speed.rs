//! Host speed. The benchmark shares a machine with other tenants, and
//! the same op runs up to 1.5x slower for minutes at a time while a
//! neighbour shares its core; a run of tens of seconds cannot average
//! that out. So a fixed probe is timed between the ops: four small
//! kernels of the kind of work the simulator does (independent integer
//! chains, an L1-resident scan, hash-map and queue churn, small heap
//! allocations). The probe's slowdown against [`NOMINAL_US`] is the
//! host's *speed factor*, and every host time a run reports is divided
//! by the factor measured around it, so it reads as time on the nominal
//! host. The probe is the benchmark's own code: no change to the
//! simulator moves it.

use crate::stats::{geomean, median};
use std::collections::{BinaryHeap, HashMap, VecDeque};
use std::hint::black_box;
use std::time::Instant;

/// Per-sample time of each probe kernel on the nominal host, µs: about
/// the median of each on a 2-vCPU Xeon guest. They only fix the scale
/// of the factor; any host's times are compared with the same values.
pub const NOMINAL_US: [f64; 4] = [1300.0, 850.0, 1100.0, 900.0];

/// How closely the simulator's host time follows the probe's: while
/// the probe runs `r` times its nominal time, a pass takes about
/// `r^ELASTICITY` times its own. The probe's kernels are all throughput
/// work, which a neighbour on the core slows more than the simulator's
/// mix, whose pointer chasing and queue walks wait on memory either way.
pub const ELASTICITY: f64 = 0.6;

/// Words of the L1-resident scan (16 KiB).
const L1_WORDS: u64 = 2048;

/// The probe and the samples taken since the last [`SpeedProbe::take_factor`].
#[derive(Debug)]
pub struct SpeedProbe {
    l1: Vec<u64>,
    samples: [Vec<f64>; 4],
}

impl Default for SpeedProbe {
    fn default() -> Self {
        SpeedProbe { l1: (0..L1_WORDS).collect(), samples: Default::default() }
    }
}

impl SpeedProbe {
    /// Times each kernel once.
    pub fn sample(&mut self) {
        let kernels: [&dyn Fn(); 4] =
            [&ilp_chains, &|| l1_scan(&self.l1), &map_churn, &alloc_churn];
        let times = kernels.map(|kernel| {
            let start = Instant::now();
            kernel();
            start.elapsed().as_secs_f64() * 1e6
        });
        for (samples, t) in self.samples.iter_mut().zip(times) {
            samples.push(t);
        }
    }

    /// The speed factor over the samples taken since the last call, and
    /// forgets them: the geomean over the kernels of each one's median
    /// time over its nominal time, raised to [`ELASTICITY`]. Above 1 the
    /// host ran slower than nominal. 1 when no sample was taken.
    pub fn take_factor(&mut self) -> f64 {
        let ratios: Option<Vec<f64>> = self
            .samples
            .iter_mut()
            .zip(NOMINAL_US)
            .map(|(samples, nominal)| {
                let m = median(samples)?;
                samples.clear();
                Some(m / nominal)
            })
            .collect();
        ratios.and_then(|r| geomean(&r)).map_or(1.0, |r| r.powf(ELASTICITY))
    }
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Eight independent rotate-xor-add chains: throughput-bound integer
/// work, the kind a neighbour on the same core slows most.
fn ilp_chains() {
    let mut a = [1u64; 8];
    for i in 0..250_000u64 {
        for (k, v) in (0u32..).zip(a.iter_mut()) {
            *v = (*v ^ i).rotate_left(k + 1).wrapping_add(u64::from(k));
        }
        black_box(&mut a);
    }
}

/// Repeated sums over a 16 KiB array.
fn l1_scan(words: &[u64]) {
    let mut sum = 0u64;
    for _ in 0..2000 {
        sum = black_box(words).iter().fold(sum, |s, w| s.wrapping_add(*w));
    }
    black_box(sum);
}

/// Hash-map, queue and heap churn over a fixed key stream.
fn map_churn() {
    let mut map: HashMap<u64, u64> = HashMap::new();
    let mut queue = VecDeque::new();
    let mut heap = BinaryHeap::new();
    let mut x = 1u64;
    for i in 0..15_000u64 {
        let k = xorshift(&mut x) % 4096;
        *map.entry(k).or_insert(0) += i;
        queue.push_back(k);
        heap.push(k ^ i);
        if queue.len() > 64 {
            let old = queue.pop_front().unwrap_or_default();
            map.remove(&old);
            heap.pop();
        }
    }
    black_box((map.len(), heap.len()));
}

/// Small heap allocations of varied size, a hundred live at a time.
fn alloc_churn() {
    let mut x = 3u64;
    let mut live: Vec<Vec<u8>> = Vec::new();
    for _ in 0..20_000 {
        #[allow(clippy::cast_possible_truncation)]
        let n = (xorshift(&mut x) % 512) as usize + 16;
        live.push(vec![1u8; n]);
        if live.len() > 100 {
            #[allow(clippy::cast_possible_truncation)]
            live.swap_remove((x % 100) as usize);
        }
    }
    black_box(live.len());
}
