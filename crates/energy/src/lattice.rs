//! Exact block settles on the ulp lattice.
//!
//! Take a positive double `x` in the binade `[2^k, 2^(k+1))`, whose ulp
//! is `u = 2^(k−52)`. Its bit pattern is `bits(2^k) + (x − 2^k)/u`: an
//! affine function of its ulp count. If `y/u` is not a half-integer and
//! the exact `x ± y` stays inside the binade, round-to-nearest lands on
//! the multiple of `u` nearest to it, which is `x ± round(y/u)·u` — so
//! `fl(x ± y)` has the bits of `x` plus or minus `round(y/u)`.
//!
//! Every element of the settle kernel ([`EnergySupply::settle_run`]) is
//! `s = e + fl(p·dt[c])`, `e = s − drain[c]`, `t += dt[c]`, `on +=
//! dt[c]`. While the energy, `t_s` and `on_time_s` stay in their
//! binades, no element is a tie and no clamp fires, a whole block is
//! therefore four integer sums over its elements: `up[c]`, `down[c]`,
//! `dt_t[c]` and `dt_on[c]`, each a function of the cycle count `c`,
//! the segment power and the three binades only. A [`BlockLattice`]
//! caches those per-count steps and their per-block sums for one
//! **generation** — one (segment power, energy binade, time binade,
//! on-time binade) — and settles a cached block with four adds.
//!
//! **Admission.** The intermediate energies of a block lie between `e −
//! Σdown` and `e + Σup`, so a block is settled on the lattice only when
//! - no element is a tie (a tie or an out-of-range step is recorded as
//!   `REJECT`, which no bound below admits);
//! - `e + Σup ≤ max_energy` (the add clamp never fires) and `e + Σup ≤
//!   2^(k+1) − u` (the energy never leaves its binade upward);
//! - `e − Σdown ≥ 2^k + u`: at least one ulp above the binade floor,
//!   because an exact result just under `2^k` rounds on the finer grid
//!   below, not on this one (this also keeps the drain clamp away);
//! - `t + Σdt_t ≤ 2^(kt+1) − u_t`, and the same for `on_time_s`.
//!
//! Anything else — and a block's first sighting in a generation — takes
//! the float kernel or the exact per-element path, unchanged.
//!
//! [`EnergySupply::settle_run`]: crate::EnergySupply::settle_run

use std::ops::Add;

use crate::supply::SETTLE_TABLE;

/// A step no admission bound accepts: more ulps than a binade holds
/// (`2^52`). A sum of up to [`SETTLE_TABLE`] of them still fits a `u64`
/// beside any bit pattern, so a single rejected element fails its
/// block's admission by arithmetic alone.
const REJECT: u64 = 1 << 53;

/// Direct-mapped block slots, indexed by the block's identity.
const BLOCK_SLOTS: usize = 256;

/// Lowest and highest biased exponents whose ulp scale `2^(52−k)` is a
/// normal double; binades outside (and zero or subnormal values) never
/// take the lattice.
const MIN_EXP: u64 = 1023 - 971;
const MAX_EXP: u64 = 2046;

/// Ulp steps of one element, or sums of them over a run.
#[derive(Debug, Clone, Copy, Default)]
struct Steps {
    /// Harvest `fl(p·dt[c])` in energy ulps.
    up: u64,
    /// Drain `drain[c]` in energy ulps.
    down: u64,
    /// `dt[c]` in `t_s` ulps.
    t: u64,
    /// `dt[c]` in `on_time_s` ulps.
    on: u64,
}

impl Add for Steps {
    type Output = Steps;

    #[inline]
    fn add(self, o: Steps) -> Steps {
        Steps {
            up: self.up + o.up,
            down: self.down + o.down,
            t: self.t + o.t,
            on: self.on + o.on,
        }
    }
}

/// One cycle count's steps, valid while `stamp` is the current
/// generation.
#[derive(Debug, Clone, Copy, Default)]
struct CountEntry {
    stamp: u32,
    steps: Steps,
}

/// One block's sums, valid while `tag` is the block and `stamp` the
/// current generation.
#[derive(Debug, Clone, Copy, Default)]
struct BlockEntry {
    /// Block identity and length: `block | len << 32`.
    tag: u64,
    stamp: u32,
    /// `rest` holds the sums: the block has been seen before in this
    /// generation.
    built: bool,
    /// The final element's cycle count `full` was summed with.
    last: u64,
    /// Sums over every element but the last.
    rest: Steps,
    /// `rest` plus the final element at `last` cycles.
    full: Steps,
}

/// The supply state one lattice settle starts from, and its tables.
#[derive(Debug, Clone, Copy)]
pub(crate) struct SettlePoint<'a> {
    /// Cached segment power, watts.
    pub p: f64,
    /// Stored energy, joules.
    pub e: f64,
    /// `t_s`.
    pub t: f64,
    /// `on_time_s`.
    pub on: f64,
    /// The capacitor's `max_energy`.
    pub max: f64,
    /// The supply's `dt[c]` and `drain[c]` tables.
    pub dt: &'a [f64; SETTLE_TABLE],
    pub drain: &'a [f64; SETTLE_TABLE],
}

/// Per-program cache of exact block settles (see the module docs).
///
/// Blocks are keyed by identity — the pc their fused dispatch was
/// admitted at — together with their length, never by the address of
/// their cost slice. A block identity must name the same per-element
/// costs for the life of the cache, which is why the intermittent
/// executor, bound to one program, owns it rather than the supply (a
/// supply can outlive a program: the stream harness carries one across
/// inputs).
#[derive(Debug, Clone)]
pub struct BlockLattice {
    /// Current generation; entries stamped otherwise are stale. Never 0,
    /// so default entries are stale.
    gen: u32,
    p_bits: u64,
    /// Packed biased exponents of energy, `t_s` and `on_time_s`.
    exps: u64,
    /// Whether the current generation's binades admit lattice settles.
    admissible: bool,
    scales: Scales,
    /// Admission bounds, as bit patterns: `e_bits − Σdown ≥ e_lo`,
    /// `e_bits + Σup ≤ e_hi`, `t_bits + Σdt_t ≤ t_hi`, `on_bits +
    /// Σdt_on ≤ on_hi`.
    e_lo: u64,
    e_hi: u64,
    t_hi: u64,
    on_hi: u64,
    counts: Vec<CountEntry>,
    blocks: Vec<BlockEntry>,
    /// Blocks settled on the lattice (tests only: it shows the path is
    /// taken).
    #[cfg(test)]
    pub(crate) lattice_settles: u64,
}

impl Default for BlockLattice {
    fn default() -> BlockLattice {
        BlockLattice::new()
    }
}

impl BlockLattice {
    /// An empty cache.
    pub fn new() -> BlockLattice {
        BlockLattice {
            gen: 0,
            p_bits: 0,
            // No packed exponent triple equals this, so the first
            // settle opens a generation.
            exps: u64::MAX,
            admissible: false,
            scales: Scales::default(),
            e_lo: 0,
            e_hi: 0,
            t_hi: 0,
            on_hi: 0,
            counts: vec![CountEntry::default(); SETTLE_TABLE],
            blocks: vec![BlockEntry::default(); BLOCK_SLOTS],
            #[cfg(test)]
            lattice_settles: 0,
        }
    }

    /// Settles block `block` on the lattice if it is cached and
    /// admitted: `rest` are every element's cycle counts but the last;
    /// `last` is the final element's full count (tail included), and
    /// every count must be in the supply's tables. Returns the new energy, `t_s` and `on_time_s`,
    /// bit-identical to the float kernel's, or `None` when the caller
    /// must settle the block itself.
    #[inline]
    pub(crate) fn settle(
        &mut self,
        at: &SettlePoint<'_>,
        block: u32,
        rest: &[u64],
        last: u64,
    ) -> Option<(f64, f64, f64)> {
        let (eb, tb, ob) = (at.e.to_bits(), at.t.to_bits(), at.on.to_bits());
        let exps = (eb >> 52) << 24 | (tb >> 52) << 12 | (ob >> 52);
        if exps != self.exps || at.p.to_bits() != self.p_bits {
            self.open_generation(at, exps);
        }
        if !self.admissible {
            return None;
        }
        let tag = u64::from(block) | (rest.len() as u64 + 1) << 32;
        let slot = block as usize & (BLOCK_SLOTS - 1);
        let gen = self.gen;
        let entry = &mut self.blocks[slot];
        if entry.tag != tag || entry.stamp != gen {
            // First sighting in this generation: the caller settles it
            // on the float kernel, so a block seen once costs no more
            // than before. The sums are built on the next sighting.
            *entry = BlockEntry {
                tag,
                stamp: gen,
                ..BlockEntry::default()
            };
            return None;
        }
        let counts = &mut self.counts;
        let scales = self.scales;
        if !entry.built {
            entry.rest = rest.iter().fold(Steps::default(), |sum, &c| {
                sum + scales.steps(counts, gen, at, c)
            });
            entry.built = true;
            entry.last = u64::MAX;
        }
        if entry.last != last {
            entry.full = entry.rest + scales.steps(counts, gen, at, last);
            entry.last = last;
        }
        let s = entry.full;
        let admitted = eb + s.up <= self.e_hi
            && eb >= self.e_lo + s.down
            && tb + s.t <= self.t_hi
            && ob + s.on <= self.on_hi;
        if !admitted {
            return None;
        }
        #[cfg(test)]
        {
            self.lattice_settles += 1;
        }
        Some((
            f64::from_bits(eb + s.up - s.down),
            f64::from_bits(tb + s.t),
            f64::from_bits(ob + s.on),
        ))
    }

    /// Starts a generation for the state `at`: every cached count and
    /// block goes stale, and the binades' scales and bounds are derived
    /// afresh.
    #[cold]
    fn open_generation(&mut self, at: &SettlePoint<'_>, exps: u64) {
        self.gen = self.gen.wrapping_add(1);
        if self.gen == 0 {
            // Stamps wrapped: clear them so none can read current.
            self.counts.fill(CountEntry::default());
            self.blocks.fill(BlockEntry::default());
            self.gen = 1;
        }
        self.exps = exps;
        self.p_bits = at.p.to_bits();
        let (ke, kt, ko) = (exps >> 24, exps >> 12 & 0xfff, exps & 0xfff);
        let in_range = |k: u64| (MIN_EXP..=MAX_EXP).contains(&k);
        self.admissible = in_range(ke) && in_range(kt) && in_range(ko) && at.p >= 0.0;
        if !self.admissible {
            return;
        }
        // 2^(52 − (k − 1023)) = 2^(1075 − k), whose biased exponent is
        // 2098 − k.
        let scale = |k: u64| f64::from_bits((2098 - k) << 52);
        let top = |k: u64| k << 52 | ((1 << 52) - 1);
        self.scales = Scales {
            e: scale(ke),
            t: scale(kt),
            on: scale(ko),
        };
        self.e_lo = (ke << 52) + 1;
        self.e_hi = top(ke).min(at.max.to_bits());
        self.t_hi = top(kt);
        self.on_hi = top(ko);
    }
}

/// `1/ulp` of the energy, `t_s` and `on_time_s` binades.
#[derive(Debug, Clone, Copy, Default)]
struct Scales {
    e: f64,
    t: f64,
    on: f64,
}

impl Scales {
    /// The steps of one element of `c` cycles in generation `gen`,
    /// filled into `counts` on first use.
    #[inline]
    fn steps(self, counts: &mut [CountEntry], gen: u32, at: &SettlePoint<'_>, c: u64) -> Steps {
        let c = c as usize;
        let entry = &mut counts[c];
        if entry.stamp != gen {
            let d = at.dt[c];
            entry.steps = Steps {
                up: ulps(at.p * d, self.e),
                down: ulps(at.drain[c], self.e),
                t: ulps(d, self.t),
                on: ulps(d, self.on),
            };
            entry.stamp = gen;
        }
        entry.steps
    }
}

/// `round(y/u)` for a non-negative `y`, with `scale = 1/u` a power of
/// two (so `y·scale` is exact), or [`REJECT`] for a tie or a step of a
/// binade's span or more.
#[inline]
fn ulps(y: f64, scale: f64) -> u64 {
    let q = y * scale;
    if q.is_nan() || q >= (1u64 << 52) as f64 {
        return REJECT;
    }
    let whole = q.floor();
    // Exact: `q` is below 2^52.
    let frac = q - whole;
    if frac == 0.5 {
        REJECT
    } else {
        whole as u64 + u64::from(frac > 0.5)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ulps_rounds_to_nearest_and_rejects_ties() {
        let scale = 2f64.powi(10);
        assert_eq!(ulps(0.0, scale), 0);
        assert_eq!(ulps(3.0 / 1024.0, scale), 3);
        assert_eq!(ulps(3.4 / 1024.0, scale), 3);
        assert_eq!(ulps(3.6 / 1024.0, scale), 4);
        assert_eq!(ulps(3.5 / 1024.0, scale), REJECT);
        assert_eq!(ulps(0.5 / 1024.0, scale), REJECT);
        assert_eq!(ulps(2f64.powi(42), scale), REJECT);
        assert_eq!(ulps(f64::NAN, scale), REJECT);
    }

    #[test]
    fn a_sum_of_rejects_still_fits_beside_any_bit_pattern() {
        let worst = REJECT * SETTLE_TABLE as u64;
        assert!(f64::MAX.to_bits().checked_add(worst).is_some());
        assert!(worst > 1 << 52);
    }
}
