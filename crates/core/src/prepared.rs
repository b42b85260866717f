//! A compiled kernel instance ready to run and score.

use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

use wn_compiler::{compile, compile_with, CompileOptions, CompiledKernel, Technique};
use wn_kernels::{Benchmark, KernelInstance, Scale};
use wn_quality::metrics::nrmse_percent;
use wn_sim::{Core, CoreConfig};

use crate::error::WnError;

/// Benchmark instances are pure functions of `(benchmark, scale, seed)`
/// and compilation of `(instance, technique, task_decompose)`, so
/// prepared runs built from them can be shared across every figure of
/// one process (several experiments compile the exact same
/// precise/8-bit/4-bit builds). The final `bool` is the task-decomposed
/// dimension: the Task substrate needs binaries with privatization and
/// commit sequences, which are distinct programs from the checkpoint
/// builds. Custom core configurations (e.g. Fig. 13's memo table)
/// bypass this cache.
type PreparedKey = (Benchmark, Scale, u64, Technique, bool);

/// Default bound on distinct cached compilations. A batch CLI compiles
/// a handful of builds and never approaches this; a long-running daemon
/// compiling arbitrary cohort submissions would otherwise grow without
/// limit. Evicting is always safe: compilation is a pure function of
/// the key, so a re-compile after eviction is bit-identical.
const DEFAULT_PREPARED_CACHE_CAP: usize = 64;

/// The service-lifetime compilation cache: bounded, least-recently-used
/// eviction, shared by every figure/fleet/service compilation in the
/// process.
struct PreparedCache {
    /// Key → (last-use tick, entry).
    map: HashMap<PreparedKey, (u64, Arc<PreparedRun>)>,
    /// Monotonic use counter backing the LRU order.
    tick: u64,
    capacity: usize,
    evictions: u64,
    hits: u64,
    misses: u64,
}

impl PreparedCache {
    /// Looks up `key`, refreshing its LRU position on a hit.
    fn get(&mut self, key: &PreparedKey) -> Option<Arc<PreparedRun>> {
        self.tick += 1;
        let tick = self.tick;
        match self.map.get_mut(key) {
            Some((last_use, entry)) => {
                *last_use = tick;
                self.hits += 1;
                Some(Arc::clone(entry))
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    /// Inserts `built` (unless a racing compile got there first, whose
    /// entry then wins so every caller shares one `Arc`), then evicts
    /// least-recently-used entries down to the capacity bound.
    fn insert(&mut self, key: PreparedKey, built: Arc<PreparedRun>) -> Arc<PreparedRun> {
        self.tick += 1;
        let tick = self.tick;
        let shared = Arc::clone(&self.map.entry(key).or_insert((tick, built)).1);
        while self.map.len() > self.capacity {
            let oldest = self
                .map
                .iter()
                .min_by_key(|(_, (last_use, _))| *last_use)
                .map(|(k, _)| *k)
                .expect("non-empty map over capacity");
            self.map.remove(&oldest);
            self.evictions += 1;
        }
        shared
    }
}

static PREPARED_CACHE: OnceLock<Mutex<PreparedCache>> = OnceLock::new();

/// The cache mutex, recovering from poisoning: the map only ever holds
/// complete entries (compilation happens outside the lock), so a panic
/// elsewhere while holding the lock cannot leave torn state — a daemon
/// must not turn one panicked worker into a permanent crash loop on
/// every subsequent compile.
fn lock_prepared_cache() -> MutexGuard<'static, PreparedCache> {
    PREPARED_CACHE
        .get_or_init(|| {
            Mutex::new(PreparedCache {
                map: HashMap::new(),
                tick: 0,
                capacity: DEFAULT_PREPARED_CACHE_CAP,
                evictions: 0,
                hits: 0,
                misses: 0,
            })
        })
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// Observable state of the process-wide compilation cache (service
/// `stats` endpoints and bounded-memory tests).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PreparedCacheStats {
    /// Entries currently cached (≤ `capacity`).
    pub len: usize,
    pub capacity: usize,
    /// Entries evicted over the process lifetime.
    pub evictions: u64,
    pub hits: u64,
    pub misses: u64,
}

/// A snapshot of the compilation cache's counters.
pub fn prepared_cache_stats() -> PreparedCacheStats {
    let cache = lock_prepared_cache();
    PreparedCacheStats {
        len: cache.map.len(),
        capacity: cache.capacity,
        evictions: cache.evictions,
        hits: cache.hits,
        misses: cache.misses,
    }
}

/// Rebounds the compilation cache (minimum 1), evicting down to the new
/// capacity immediately. Eviction never changes compiled output — only
/// how often a key recompiles.
pub fn set_prepared_cache_capacity(capacity: usize) {
    let mut cache = lock_prepared_cache();
    cache.capacity = capacity.max(1);
    while cache.map.len() > cache.capacity {
        let oldest = cache
            .map
            .iter()
            .min_by_key(|(_, (last_use, _))| *last_use)
            .map(|(k, _)| *k)
            .expect("non-empty map over capacity");
        cache.map.remove(&oldest);
        cache.evictions += 1;
    }
}

/// A kernel instance compiled at one technique: spins up cores with the
/// instance's inputs injected and scores outputs against the instance's
/// golden values.
#[derive(Debug, Clone)]
pub struct PreparedRun {
    /// The compiled kernel.
    pub compiled: CompiledKernel,
    /// The instance (inputs + golden outputs).
    pub instance: KernelInstance,
    /// Core configuration used by [`PreparedRun::fresh_core`].
    pub core_config: CoreConfig,
    /// Concatenated golden outputs as `f64`, precomputed once —
    /// `error_percent` runs at every quality-curve sample point.
    golden_f64: Vec<f64>,
}

impl PreparedRun {
    /// Compiles `instance` with `technique` under the default core
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns a compile error if the technique does not apply.
    pub fn new(instance: &KernelInstance, technique: Technique) -> Result<PreparedRun, WnError> {
        PreparedRun::with_core_config(instance, technique, CoreConfig::default())
    }

    /// The shared compilation of `benchmark` at `(scale, seed)` with
    /// `technique` under the default core configuration — cached for the
    /// lifetime of the process, since experiments across figures keep
    /// recompiling the same handful of builds.
    ///
    /// # Errors
    ///
    /// Returns a compile error if the technique does not apply.
    pub fn cached(
        benchmark: Benchmark,
        scale: Scale,
        seed: u64,
        technique: Technique,
    ) -> Result<Arc<PreparedRun>, WnError> {
        PreparedRun::cached_with_tasks(benchmark, scale, seed, technique, false)
    }

    /// As [`PreparedRun::cached`], with the task-decomposed dimension
    /// explicit: `task_decompose = true` builds the binary the Task
    /// substrate requires (privatized WAR arrays plus commit sequences
    /// at task boundaries). Checkpoint and task builds of the same
    /// kernel are distinct cache entries.
    ///
    /// # Errors
    ///
    /// Returns a compile error if the technique does not apply.
    pub fn cached_with_tasks(
        benchmark: Benchmark,
        scale: Scale,
        seed: u64,
        technique: Technique,
        task_decompose: bool,
    ) -> Result<Arc<PreparedRun>, WnError> {
        let key = (benchmark, scale, seed, technique, task_decompose);
        if let Some(hit) = lock_prepared_cache().get(&key) {
            return Ok(hit);
        }
        // Compile outside the lock: races rebuild identical values, and
        // the first insert wins so every caller shares one Arc.
        let instance = benchmark.instance(scale, seed);
        let built = if task_decompose {
            Arc::new(PreparedRun::tasked(&instance, technique)?)
        } else {
            Arc::new(PreparedRun::new(&instance, technique)?)
        };
        Ok(lock_prepared_cache().insert(key, built))
    }

    /// Compiles `instance` task-decomposed: the binary the Task
    /// substrate runs, with WAR-violating arrays privatized into shadow
    /// copies and a commit sequence emitted at every task boundary
    /// ([`CompiledKernel::tasks`] carries the resulting region table).
    ///
    /// # Errors
    ///
    /// Returns a compile error if the technique does not apply.
    pub fn tasked(instance: &KernelInstance, technique: Technique) -> Result<PreparedRun, WnError> {
        let options = CompileOptions {
            task_decompose: true,
            ..CompileOptions::default()
        };
        let compiled = compile_with(&instance.ir, technique, &options)?;
        Ok(PreparedRun::from_compiled(
            compiled,
            instance.clone(),
            CoreConfig::default(),
        ))
    }

    /// Compiles with an explicit core configuration (e.g. memoization
    /// enabled).
    ///
    /// # Errors
    ///
    /// Returns a compile error if the technique does not apply.
    pub fn with_core_config(
        instance: &KernelInstance,
        technique: Technique,
        core_config: CoreConfig,
    ) -> Result<PreparedRun, WnError> {
        let compiled = compile(&instance.ir, technique)?;
        Ok(PreparedRun::from_compiled(
            compiled,
            instance.clone(),
            core_config,
        ))
    }

    /// Builds a prepared run from an already-compiled kernel — the
    /// program depends only on (kernel, technique), so streams of inputs
    /// reuse one compilation.
    pub fn from_compiled(
        compiled: CompiledKernel,
        instance: KernelInstance,
        core_config: CoreConfig,
    ) -> PreparedRun {
        let golden_f64 = instance
            .golden
            .iter()
            .flat_map(|(_, gold)| gold.iter().map(|&v| v as f64))
            .collect();
        PreparedRun {
            compiled,
            instance,
            core_config,
            golden_f64,
        }
    }

    /// The technique this run was compiled with.
    pub fn technique(&self) -> Technique {
        self.compiled.technique
    }

    /// Creates a fresh core with all inputs encoded and injected.
    ///
    /// # Errors
    ///
    /// Returns a simulation error if input injection fails.
    pub fn fresh_core(&self) -> Result<Core, WnError> {
        let mut core = Core::new(&self.compiled.program, self.core_config)?;
        for (name, values) in &self.instance.inputs {
            let (addr, bytes) = self.compiled.encode_input(name, values);
            core.mem.write_slice(addr, &bytes)?;
        }
        Ok(core)
    }

    /// Decodes one output array from a core's memory.
    ///
    /// # Errors
    ///
    /// Returns a simulation error if the output region is unreadable.
    pub fn decode(&self, core: &Core, array: &str) -> Result<Vec<i64>, WnError> {
        let layout = self.compiled.layout(array);
        let bytes = core
            .mem
            .slice(self.compiled.addr(array), layout.byte_size())?;
        Ok(layout.decode(&bytes))
    }

    /// NRMSE (%) of the instance's scored outputs against golden, as the
    /// paper measures quality (§IV). Multiple scored outputs are
    /// concatenated.
    ///
    /// # Errors
    ///
    /// Returns [`WnError::Quality`] if outputs cannot be scored —
    /// including the unnormalizable constant-golden case; use
    /// [`PreparedRun::error_percent_checked`] to observe that case as a
    /// value instead.
    pub fn error_percent(&self, core: &Core) -> Result<f64, WnError> {
        self.error_percent_checked(core)?.ok_or_else(|| {
            WnError::Quality(
                "output not scorable: constant golden output disagrees with the \
                 actual (NRMSE has no range to normalize by)"
                    .to_string(),
            )
        })
    }

    /// As [`PreparedRun::error_percent`], but the degenerate
    /// constant-golden case (NRMSE unnormalizable — e.g. the
    /// single-value glucose reading kernel) comes back as `Ok(None)`
    /// instead of an error, for callers that can carry "no score".
    ///
    /// # Errors
    ///
    /// Returns [`WnError::Quality`] if outputs cannot be decoded, have
    /// the wrong shape, or the golden output is empty.
    pub fn error_percent_checked(&self, core: &Core) -> Result<Option<f64>, WnError> {
        let mut actual = Vec::with_capacity(self.golden_f64.len());
        for (name, gold) in &self.instance.golden {
            let decoded = self.decode(core, name)?;
            if decoded.len() != gold.len() {
                return Err(WnError::Quality(format!(
                    "output `{name}` decoded {} values, golden has {}",
                    decoded.len(),
                    gold.len()
                )));
            }
            actual.extend(decoded.iter().map(|&v| v as f64));
        }
        if self.golden_f64.is_empty() {
            return Err(WnError::Quality("empty golden output".to_string()));
        }
        Ok(nrmse_percent(&self.golden_f64, &actual))
    }

    /// Runs a fresh core to completion and returns `(cycles, error %)`.
    ///
    /// # Errors
    ///
    /// Propagates simulation and quality errors.
    pub fn run_to_completion(&self) -> Result<(u64, f64), WnError> {
        let (_, cycles, err) = self.run_to_completion_core()?;
        Ok((cycles, err))
    }

    /// Like [`PreparedRun::run_to_completion`], but also hands back the
    /// finished core so callers can decode outputs without simulating a
    /// second time.
    ///
    /// # Errors
    ///
    /// Propagates simulation and quality errors.
    pub fn run_to_completion_core(&self) -> Result<(Core, u64, f64), WnError> {
        let mut core = self.fresh_core()?;
        let outcome = core.run(u64::MAX)?;
        let err = self.error_percent(&core)?;
        Ok((core, outcome.cycles, err))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wn_kernels::{Benchmark, Scale};

    #[test]
    fn precise_runs_are_exact_for_every_benchmark() {
        for b in Benchmark::ALL {
            let inst = b.instance(Scale::Quick, 11);
            let run = PreparedRun::new(&inst, Technique::Precise).unwrap();
            let (cycles, err) = run.run_to_completion().unwrap();
            assert_eq!(err, 0.0, "{b} precise must be exact");
            assert!(cycles > 0);
        }
    }

    #[test]
    fn anytime_8bit_is_exact_at_completion_for_every_benchmark() {
        // SWP distributivity / provisioned SWV: full refinement reaches
        // the precise result (§III).
        for b in Benchmark::ALL {
            let inst = b.instance(Scale::Quick, 12);
            let run = PreparedRun::new(&inst, b.technique(8)).unwrap();
            let (_, err) = run.run_to_completion().unwrap();
            assert_eq!(err, 0.0, "{b} 8-bit anytime must be exact at completion");
        }
    }

    #[test]
    fn anytime_4bit_is_exact_at_completion_for_every_benchmark() {
        for b in Benchmark::ALL {
            let inst = b.instance(Scale::Quick, 13);
            let run = PreparedRun::new(&inst, b.technique(4)).unwrap();
            let (_, err) = run.run_to_completion().unwrap();
            assert_eq!(err, 0.0, "{b} 4-bit anytime must be exact at completion");
        }
    }

    #[test]
    fn anytime_total_runtime_exceeds_precise() {
        // §V-A: WN incurs runtime overhead to reach the precise output.
        for b in [Benchmark::Conv2d, Benchmark::MatAdd] {
            let inst = b.instance(Scale::Quick, 14);
            let precise = PreparedRun::new(&inst, Technique::Precise).unwrap();
            let wn = PreparedRun::new(&inst, b.technique(4)).unwrap();
            let (pc, _) = precise.run_to_completion().unwrap();
            let (wc, _) = wn.run_to_completion().unwrap();
            assert!(wc > pc, "{b}: wn {wc} <= precise {pc}");
        }
    }

    /// The cache is process-global: tests that assert on sharing,
    /// eviction, or capacity serialize on this lock so they don't race
    /// each other's capacity changes. Lock poisoning is irrelevant here
    /// by design (and recovering also exercises the cache's own stance).
    fn cache_test_lock() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn cached_runs_are_shared_and_match_fresh_compilations() {
        let _guard = cache_test_lock();
        set_prepared_cache_capacity(DEFAULT_PREPARED_CACHE_CAP);
        let a =
            PreparedRun::cached(Benchmark::MatAdd, Scale::Quick, 77, Technique::swv(8)).unwrap();
        let b =
            PreparedRun::cached(Benchmark::MatAdd, Scale::Quick, 77, Technique::swv(8)).unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same key must share one compilation");

        let inst = Benchmark::MatAdd.instance(Scale::Quick, 77);
        let fresh = PreparedRun::new(&inst, Technique::swv(8)).unwrap();
        assert_eq!(a.compiled.program, fresh.compiled.program);
        assert_eq!(a.instance.inputs, fresh.instance.inputs);

        let other =
            PreparedRun::cached(Benchmark::MatAdd, Scale::Quick, 78, Technique::swv(8)).unwrap();
        assert!(!Arc::ptr_eq(&a, &other), "different seed, different entry");
    }

    #[test]
    fn eviction_is_bounded_and_never_changes_compiled_output() {
        let _guard = cache_test_lock();
        // Three distinct keys through a capacity-2 cache: the first key
        // must be evicted, and its recompile must be bit-identical.
        set_prepared_cache_capacity(2);
        let keys: [u64; 3] = [9101, 9102, 9103];
        let first =
            PreparedRun::cached(Benchmark::MatAdd, Scale::Quick, keys[0], Technique::swv(8))
                .unwrap();
        let before = prepared_cache_stats();
        for seed in &keys[1..] {
            PreparedRun::cached(Benchmark::MatAdd, Scale::Quick, *seed, Technique::swv(8)).unwrap();
        }
        let after = prepared_cache_stats();
        assert!(
            after.len <= 2,
            "cache must stay within capacity, got {}",
            after.len
        );
        assert!(
            after.evictions > before.evictions,
            "three keys through capacity 2 must evict"
        );

        // The evicted key recompiles to a fresh Arc with an identical
        // program: eviction affects lifetime, never output.
        let again =
            PreparedRun::cached(Benchmark::MatAdd, Scale::Quick, keys[0], Technique::swv(8))
                .unwrap();
        assert!(
            !Arc::ptr_eq(&first, &again),
            "evicted entry must have been recompiled"
        );
        assert_eq!(again.compiled.program, first.compiled.program);
        assert_eq!(again.instance.inputs, first.instance.inputs);
        assert_eq!(again.instance.golden, first.instance.golden);

        set_prepared_cache_capacity(DEFAULT_PREPARED_CACHE_CAP);
    }

    #[test]
    fn poisoned_cache_lock_recovers_instead_of_aborting_the_service() {
        let _guard = cache_test_lock();
        // Poison the cache mutex the way a panicking worker thread
        // would; subsequent cached() calls must keep working.
        let _ = std::thread::spawn(|| {
            let _cache = lock_prepared_cache();
            panic!("deliberate poison");
        })
        .join();
        let run =
            PreparedRun::cached(Benchmark::MatAdd, Scale::Quick, 9201, Technique::Precise).unwrap();
        let inst = Benchmark::MatAdd.instance(Scale::Quick, 9201);
        let fresh = PreparedRun::new(&inst, Technique::Precise).unwrap();
        assert_eq!(run.compiled.program, fresh.compiled.program);
    }

    #[test]
    fn decode_matches_golden_after_precise_run() {
        let inst = Benchmark::Home.instance(Scale::Quick, 15);
        let run = PreparedRun::new(&inst, Technique::Precise).unwrap();
        let mut core = run.fresh_core().unwrap();
        core.run(u64::MAX).unwrap();
        let decoded = run.decode(&core, "SUM").unwrap();
        assert_eq!(decoded, inst.golden[0].1);
    }
}
