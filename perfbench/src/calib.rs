//! Host-speed calibration.
//!
//! The benchmark runs on a few cores of a shared host whose speed drifts,
//! as other tenants come and go, by up to ~40% for seconds to minutes at
//! a time. A wall-clock median over one run cannot average that out: a
//! whole run often sits in one state. So every timed stretch is bracketed
//! by a fixed reference workload, and its wall time is scaled by how much
//! slower than nominal the reference ran on either side of it.
//!
//! The reference lives here, in the benchmark, and calls nothing in the
//! program, so a change to the program never moves it. It has two halves,
//! because the host slows in two ways and the simulator feels both:
//!
//! * an interpreter loop whose every step is an unpredictable indirect
//!   call into a branchy step function, like the simulator's per-event
//!   dispatch into policy code (it slows when a neighbour shares the
//!   core);
//! * a set-associative LRU cache model fed by a skewed pseudo-random
//!   address stream over a 4 MiB array, like the simulator's tag lookups
//!   over graph-sized data (it slows when neighbours crowd the shared
//!   cache and memory).

use std::hint::black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Wall time of one [`reference`] run on an idle 2.1 GHz Xeon KVM guest,
/// the host the benchmark was tuned on. Scaled times are wall times
/// converted to that host's idle speed.
pub const NOMINAL: Duration = Duration::from_micros(68_000);

/// Interpreter steps per reference run.
const STEPS: u32 = 2_000_000;

/// Accesses the cache model takes per reference run.
const ACCESSES: u32 = 1_000_000;

/// Sets and ways of the reference cache model.
const SETS: usize = 1024;
const WAYS: usize = 16;

/// Words of the irregularly accessed array (4 MiB), and of its hot part.
const WORDS: usize = 1 << 20;
const HOT_WORDS: usize = WORDS / 8;

/// Words of the interpreter's scratch memory.
const SCRATCH: usize = 1 << 14;

/// The array the cache model walks, kept across runs so that no run pays
/// for faulting it in.
static DATA: Mutex<Vec<u32>> = Mutex::new(Vec::new());

/// Interpreter state.
struct Machine {
    regs: [u64; 8],
    mem: Vec<u32>,
    rng: u64,
}

/// One interpreter step, specialised per `K`; returns the next opcode.
#[inline(never)]
fn step<const K: u64>(m: &mut Machine) -> usize {
    m.rng ^= m.rng << 13;
    m.rng ^= m.rng >> 7;
    m.rng ^= m.rng << 17;
    let at = (m.rng ^ K) as usize & (SCRATCH - 1);
    let v = u64::from(m.mem[at]);
    let r = (K % 8) as usize;
    if v & (K | 1) == K & 3 {
        m.regs[r] = m.regs[r].wrapping_mul(K | 1).wrapping_add(v);
    } else if (m.regs[(r + 1) % 8] ^ v) & 2 == 0 {
        m.regs[r] = m.regs[r].rotate_left((K % 63) as u32) ^ v;
    } else {
        m.regs[(r + 3) % 8] = m.regs[(r + 3) % 8].wrapping_sub(v ^ K);
    }
    if m.regs[r] & 16 != 0 {
        m.mem[at] = m.mem[at].wrapping_add(m.regs[r] as u32);
    }
    (m.rng >> 20) as usize ^ m.regs[r] as usize
}

/// The opcode table.
const OPS: [fn(&mut Machine) -> usize; 8] = [
    step::<17>,
    step::<1_000_020>,
    step::<2_000_023>,
    step::<3_000_026>,
    step::<4_000_029>,
    step::<5_000_032>,
    step::<6_000_035>,
    step::<7_000_038>,
];

/// The interpreter half; returns its registers folded together.
fn interpret() -> u64 {
    let mut m = Machine {
        regs: [1; 8],
        mem: vec![7; SCRATCH],
        rng: 0x9e37_79b9_7f4a_7c15,
    };
    let mut op = 0;
    for _ in 0..STEPS {
        op = OPS[op % OPS.len()](&mut m);
    }
    m.regs.iter().fold(0, |a, &r| a ^ r)
}

/// The cache-model half; returns its miss count.
fn cache_model(data: &mut [u32]) -> u64 {
    let mut tags = vec![u64::MAX; SETS * WAYS];
    let mut stamps = vec![0u32; SETS * WAYS];
    let mut x: u64 = 0x2545_f491_4f6c_dd1d;
    let mut misses = 0;
    for clock in 1..=ACCESSES {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        // Half the accesses go to a hot eighth of the array.
        let mask = if x & 1 == 0 { HOT_WORDS - 1 } else { WORDS - 1 };
        let word = (x >> 8) as usize & mask;
        data[word] = data[word].wrapping_add(clock);
        let line = (word as u64 * 4) >> 6;
        let base = (line as usize % SETS) * WAYS;
        let ways = &mut tags[base..base + WAYS];
        let ages = &mut stamps[base..base + WAYS];
        let way = match ways.iter().position(|&t| t == line) {
            Some(hit) => hit,
            None => {
                misses += 1;
                let victim = (0..WAYS).min_by_key(|&w| ages[w]).expect("WAYS > 0");
                ways[victim] = line;
                victim
            }
        };
        ages[way] = clock;
    }
    misses
}

/// Wall time of one run of the reference workload.
pub fn reference() -> Duration {
    let mut data = DATA.lock().unwrap_or_else(|e| e.into_inner());
    if data.is_empty() {
        data.resize(WORDS, 1);
    }
    let t = Instant::now();
    black_box(interpret());
    black_box(cache_model(&mut data));
    t.elapsed()
}

/// Converts `wall` to nominal host speed, in seconds, given the time
/// `reference` that reference runs around it took (both may be totals
/// over several stretches).
pub fn scale(wall: Duration, reference: Duration) -> f64 {
    wall.as_secs_f64() * NOMINAL.as_secs_f64() / reference.as_secs_f64()
}
