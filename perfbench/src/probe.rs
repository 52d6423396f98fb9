//! A fixed piece of work that measures how fast the host runs right now.
//!
//! The benchmark's hosts are shared: the same pass over the same studies
//! takes anywhere from 1× to 2× as long from one minute to the next, while
//! the CPU clock stays put (a register-only loop times the same
//! throughout). What changes is how fast memory-touching code runs, as
//! other tenants contend for caches and memory. The probe is a mix of the
//! kinds of work a study does — a levelized gate tape over 4-word lanes,
//! hash-map inserts and lookups, a sort — written here, in the benchmark,
//! so that no change to the program changes it. Sampled between studies,
//! its median time per pass gives the host's speed during that pass, and
//! the end-to-end times are scaled to [`REFERENCE_S`], the probe's time on
//! a reference host.
//!
//! Over a 3-minute run on the shared host the benchmark was written on,
//! the log of each part's time followed the log of the pass times with
//! correlation 0.77–0.86 and slope 0.8–1.1. A streaming pass over a buffer
//! larger than L2 was tried as a fourth part and left out: it correlated
//! 0.5.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// The probe's sample time on the reference host: about its median on
/// the host the benchmark was written on (2 vCPUs of a shared 2.1 GHz
/// Intel Xeon), so that scaled times stay near the wall times read there.
pub const REFERENCE_S: f64 = 0.002;

/// Study time between two probe samples of a pass.
pub const INTERVAL: Duration = Duration::from_millis(100);

const NETS: usize = 1536;
const INPUTS: usize = 64;
const LANES: usize = 4;
const TAPE_ROUNDS: u64 = 64;
const MAP_KEYS: u64 = 4096;
const SORT_LEN: u64 = 16384;

/// One gate: kind, two operand nets, output net.
type Gate = (u8, u16, u16, u16);

pub struct Probe {
    tape: Vec<Gate>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    pub fn new() -> Probe {
        let mut x = 0x1234_5678_9abc;
        let tape = (INPUTS..NETS)
            .map(|out| {
                let r = xorshift(&mut x);
                let a = (r % out as u64) as u16;
                let b = ((r >> 24) % out as u64) as u16;
                ((r >> 50) as u8 % 4, a, b, out as u16)
            })
            .collect();
        Probe { tape }
    }

    /// Runs the probe once, on the calling thread; its duration in
    /// seconds. (Run on two threads at once, as audited-campaign's studies
    /// are, it followed their times less closely than this.)
    pub fn sample(&self) -> f64 {
        let t = Instant::now();
        let mut x = 0x9e37_79b9_u64;

        let mut nets = vec![0u64; NETS * LANES];
        for round in 0..TAPE_ROUNDS {
            for (i, w) in nets[..INPUTS * LANES].iter_mut().enumerate() {
                *w = (i as u64 + round).wrapping_mul(0x9e37_79b9_7f4a_7c15);
            }
            for &(kind, a, b, out) in &self.tape {
                let (a, b, out) = (a as usize * LANES, b as usize * LANES, out as usize * LANES);
                for l in 0..LANES {
                    let (p, q) = (nets[a + l], nets[b + l]);
                    nets[out + l] = match kind {
                        0 => p & q,
                        1 => p | q,
                        2 => p ^ q,
                        _ => !(p & q),
                    };
                }
            }
        }

        // A fixed-key hasher, so that every sample probes the same slots.
        let mut map: HashMap<u64, u64, BuildHasherDefault<DefaultHasher>> = HashMap::default();
        for i in 0..MAP_KEYS {
            map.insert(xorshift(&mut x) % (4 * MAP_KEYS), i);
        }
        let hits = (0..2 * MAP_KEYS)
            .filter(|k| map.contains_key(&(k * 7 % (4 * MAP_KEYS))))
            .count() as u64;

        let mut sorted: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut x) ^ hits).collect();
        sorted.sort_unstable();

        std::hint::black_box((&nets, &sorted));
        t.elapsed().as_secs_f64()
    }
}
