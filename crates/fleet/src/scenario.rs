//! Fleet scenarios: who is in the population and what world they live in.
//!
//! A scenario is a device population — cohorts of `count` devices, each
//! cohort fixing a benchmark × technique × substrate × capacitor ×
//! harvesting environment — plus the sweep parameters (master seed,
//! shard size, wall-clock limit). Everything a device does is a pure
//! function of the scenario and its global device index: input data is
//! seeded per cohort, the power trace per device (splitmix64 over the
//! master seed), so any device can be re-simulated bit-identically in
//! isolation — the property shard resume and `--jobs` invariance rest
//! on.
//!
//! Scenarios parse from a small TOML subset (`[fleet]` + `[[cohort]]`
//! tables, string/number/bool values) or from JSON with the same shape
//! (`{"fleet": {...}, "cohorts": [...]}`); the two lower into one
//! document model. JSON is read by the workspace's one total reader,
//! [`wn_telemetry::json::parse`], so it is strict RFC 8259 (no raw
//! control bytes in strings, no leading `+`); the TOML subset is
//! hand-rolled here and deliberately tiny.

use std::fmt;

use wn_compiler::Technique;
use wn_core::intermittent::SubstrateKind;
use wn_energy::{EnvModel, SupplyConfig};
use wn_kernels::{Benchmark, Scale};
use wn_telemetry::json::{self, JsonError, Value};

/// Default shard size: bounds peak memory at ~512 per-device outcome
/// structs regardless of fleet size, while keeping the job pool fed.
pub const DEFAULT_SHARD_SIZE: usize = 512;

/// Which substrate a cohort's devices run on (default configurations;
/// the paper's Clank and NVP checkpoint models, plus the checkpoint-free
/// task substrate).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubstrateChoice {
    Clank,
    Nvp,
    Task,
}

impl SubstrateChoice {
    /// Every parseable substrate, in the order `VALID_NAMES` lists them.
    pub const ALL: [SubstrateChoice; 3] = [
        SubstrateChoice::Clank,
        SubstrateChoice::Nvp,
        SubstrateChoice::Task,
    ];

    /// The valid `substrate = "..."` spellings, for error messages.
    pub const VALID_NAMES: &'static str = "clank, nvp, task";

    pub fn name(&self) -> &'static str {
        match self {
            SubstrateChoice::Clank => "clank",
            SubstrateChoice::Nvp => "nvp",
            SubstrateChoice::Task => "task",
        }
    }

    /// The executor-facing substrate kind (default parameters).
    pub fn kind(&self) -> SubstrateKind {
        match self {
            SubstrateChoice::Clank => SubstrateKind::clank(),
            SubstrateChoice::Nvp => SubstrateKind::nvp(),
            SubstrateChoice::Task => SubstrateKind::task(),
        }
    }

    fn parse(s: &str) -> Option<SubstrateChoice> {
        SubstrateChoice::ALL.into_iter().find(|c| c.name() == s)
    }
}

/// One cohort: `count` devices sharing a workload and an environment
/// family (each device still sees its own seeded trace).
#[derive(Debug, Clone, PartialEq)]
pub struct CohortSpec {
    /// Display name (defaults to `bench-technique-substrate-env`).
    pub name: String,
    /// Devices in this cohort.
    pub count: u64,
    pub benchmark: Benchmark,
    pub technique: Technique,
    pub substrate: SubstrateChoice,
    /// Storage capacitance in microfarads.
    pub capacitance_uf: f64,
    /// The harvesting environment family (per-device traces are seeded
    /// from the master seed and the global device index).
    pub env: EnvModel,
}

impl CohortSpec {
    /// The cohort's supply configuration: its capacitor on the default
    /// electrical model.
    pub fn supply(&self) -> SupplyConfig {
        SupplyConfig {
            capacitance_f: self.capacitance_uf * 1e-6,
            ..SupplyConfig::default()
        }
    }
}

/// A full fleet scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetScenario {
    pub name: String,
    /// Master seed: cohort inputs and device traces derive from it.
    pub seed: u64,
    /// Devices per shard (bounds peak memory; does not change results).
    pub shard_size: usize,
    /// Per-device simulated wall-clock budget, seconds.
    pub wall_limit_s: f64,
    /// Length of each synthesized power trace, seconds (traces wrap).
    pub trace_duration_s: f64,
    /// Kernel scale for every cohort.
    pub scale: Scale,
    pub cohorts: Vec<CohortSpec>,
}

impl FleetScenario {
    /// Total devices across cohorts.
    pub fn total_devices(&self) -> u64 {
        self.cohorts.iter().map(|c| c.count).sum()
    }

    /// Number of shards the sweep runs in.
    pub fn shard_count(&self) -> usize {
        let total = self.total_devices();
        if total == 0 {
            0
        } else {
            ((total - 1) / self.shard_size as u64 + 1) as usize
        }
    }

    /// The cohort a global device index belongs to. Panics if out of
    /// range (the runner only hands in valid indices).
    pub fn cohort_of(&self, device: u64) -> usize {
        let mut start = 0u64;
        for (i, c) in self.cohorts.iter().enumerate() {
            if device < start + c.count {
                return i;
            }
            start += c.count;
        }
        panic!("device index {device} beyond fleet of {}", start)
    }

    /// Per-device trace seed: splitmix64 over the master seed and the
    /// global index, so neighbouring devices get decorrelated streams.
    pub fn device_seed(&self, device: u64) -> u64 {
        splitmix64(self.seed ^ splitmix64(device.wrapping_add(0x9e37_79b9_7f4a_7c15)))
    }

    /// Per-cohort kernel-input seed (one compiled instance per cohort;
    /// compilation is the expensive step, and population statistics are
    /// about environments, not input data).
    pub fn cohort_input_seed(&self, cohort: usize) -> u64 {
        splitmix64(self.seed ^ splitmix64(0x5bf0_3635 + cohort as u64))
    }

    /// A canonical, order-stable rendering of everything that affects
    /// results — the fingerprint input for checkpoint compatibility.
    pub fn canonical(&self) -> String {
        let mut s = format!(
            "wn-fleet-scenario-v1|name={}|seed={}|shard={}|limit={}|trace={}|scale={:?}",
            self.name,
            self.seed,
            self.shard_size,
            bits(self.wall_limit_s),
            bits(self.trace_duration_s),
            self.scale,
        );
        for c in &self.cohorts {
            s.push_str(&format!(
                "|cohort:{}:{}:{}:{}:{}:{}:{}",
                c.name,
                c.count,
                c.benchmark.name(),
                c.technique,
                c.substrate.name(),
                bits(c.capacitance_uf),
                env_canonical(&c.env),
            ));
        }
        s
    }

    /// FNV-1a 64 fingerprint of [`FleetScenario::canonical`]: two
    /// scenarios with the same fingerprint produce the same sweep, so a
    /// checkpoint from one resumes the other.
    pub fn fingerprint(&self) -> u64 {
        fnv1a64(self.canonical().as_bytes())
    }

    /// Parses a scenario from TOML (default) or JSON (first
    /// non-whitespace byte `{`).
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line/field.
    pub fn parse(text: &str) -> Result<FleetScenario, ScenarioError> {
        let doc = if text.trim_start().starts_with('{') {
            doc_from_json(text)?
        } else {
            doc_from_toml(text)?
        };
        FleetScenario::from_doc(doc)
    }

    fn from_doc(doc: ScenarioDoc) -> Result<FleetScenario, ScenarioError> {
        let f = &doc.fleet;
        check_known_keys(f, "[fleet]", &[FLEET_KEYS])?;
        let scenario_name = f.str_or("name", "fleet");
        let seed = f.u64_or("seed", 42)?;
        let shard_size = f.u64_or("shard_size", DEFAULT_SHARD_SIZE as u64)? as usize;
        if shard_size == 0 {
            return Err(err("fleet.shard_size must be positive"));
        }
        let wall_limit_s = f.f64_or("wall_limit_s", 3600.0)?;
        if !wall_limit_s.is_finite() || wall_limit_s <= 0.0 {
            return Err(err("fleet.wall_limit_s must be positive"));
        }
        let trace_duration_s = f.f64_or("trace_duration_s", 60.0)?;
        if !trace_duration_s.is_finite() || trace_duration_s <= 0.0 {
            return Err(err("fleet.trace_duration_s must be positive"));
        }
        let scale = match f.str_or("scale", "quick").as_str() {
            "quick" => Scale::Quick,
            "paper" => Scale::Paper,
            other => return Err(err(&format!("unknown fleet.scale `{other}`"))),
        };
        if doc.cohorts.is_empty() {
            return Err(err("a scenario needs at least one [[cohort]]"));
        }
        let mut cohorts = Vec::with_capacity(doc.cohorts.len());
        for (i, t) in doc.cohorts.iter().enumerate() {
            cohorts.push(parse_cohort(t, i)?);
        }
        let scenario = FleetScenario {
            name: scenario_name,
            seed,
            shard_size,
            wall_limit_s,
            trace_duration_s,
            scale,
            cohorts,
        };
        if scenario.total_devices() == 0 {
            return Err(err("fleet has zero devices"));
        }
        Ok(scenario)
    }
}

fn parse_cohort(t: &TableDoc, index: usize) -> Result<CohortSpec, ScenarioError> {
    let at = |field: &str| format!("cohort[{index}].{field}");
    let count = t.u64_or("count", 1)?;
    let bench_name = t
        .str("benchmark")
        .ok_or_else(|| err(&format!("{} is required", at("benchmark"))))?;
    let benchmark = Benchmark::ALL
        .into_iter()
        .find(|b| b.name() == bench_name)
        .ok_or_else(|| err(&format!("unknown benchmark `{bench_name}`")))?;
    let technique_name = t.str_or("technique", "precise");
    let technique = parse_technique(&technique_name, benchmark).ok_or_else(|| {
        err(&format!(
            "unknown {} `{technique_name}` (valid: {TECHNIQUE_FORMS})",
            at("technique")
        ))
    })?;
    let substrate_name = t.str_or("substrate", "clank");
    let substrate = SubstrateChoice::parse(&substrate_name).ok_or_else(|| {
        err(&format!(
            "unknown {} `{substrate_name}` (valid: {})",
            at("substrate"),
            SubstrateChoice::VALID_NAMES
        ))
    })?;
    let capacitance_uf = t.f64_or("capacitance_uf", 1.0)?;
    if !capacitance_uf.is_finite() || capacitance_uf <= 0.0 {
        return Err(err(&format!("{} must be positive", at("capacitance_uf"))));
    }
    let env = parse_env(t).map_err(|e| match e {
        ScenarioError::Message(m) => err(&format!("{}: {m}", at("environment"))),
        other => other,
    })?;
    check_known_keys(
        t,
        &format!("cohort[{index}]"),
        &[
            COHORT_KEYS,
            env_param_keys(&t.str_or("environment", "rf-bursty")),
        ],
    )?;
    let mean_power_w = env.expected_mean_power_w();
    if !mean_power_w.is_finite() || mean_power_w <= 0.0 {
        return Err(err(&format!(
            "{}: environment mean power must be positive",
            at("environment")
        )));
    }
    let name = t.str_or(
        "name",
        &format!(
            "{}-{}-{}-{}",
            benchmark.name(),
            technique,
            substrate.name(),
            env.name()
        ),
    );
    Ok(CohortSpec {
        name,
        count,
        benchmark,
        technique,
        substrate,
        capacitance_uf,
        env,
    })
}

/// The valid `technique = "..."` forms, for error messages.
const TECHNIQUE_FORMS: &str = "precise, swpN, swpN+vld, swvN, swvN-unprov, anytimeN";

/// `precise`, `swpN`, `swvN`, `swpN+vld`, `swvN-unprov`, or `anytimeN`
/// (the benchmark's Table-I default technique at N bits).
fn parse_technique(s: &str, benchmark: Benchmark) -> Option<Technique> {
    if s == "precise" {
        return Some(Technique::Precise);
    }
    if let Some(bits) = s.strip_prefix("anytime").and_then(|b| b.parse().ok()) {
        return Some(benchmark.technique(bits));
    }
    if let Some(rest) = s.strip_prefix("swp") {
        if let Some(bits) = rest.strip_suffix("+vld").and_then(|b| b.parse().ok()) {
            return Some(Technique::swp_vectorized(bits));
        }
        return rest.parse().ok().map(Technique::swp);
    }
    if let Some(rest) = s.strip_prefix("swv") {
        if let Some(bits) = rest.strip_suffix("-unprov").and_then(|b| b.parse().ok()) {
            return Some(Technique::swv_unprovisioned(bits));
        }
        return rest.parse().ok().map(Technique::swv);
    }
    None
}

/// Environment from a cohort table: the `environment` family name plus
/// optional per-family parameter overrides (powers in µW, durations in
/// their named units).
fn parse_env(t: &TableDoc) -> Result<EnvModel, ScenarioError> {
    let family = t.str_or("environment", "rf-bursty");
    match family.as_str() {
        "rf-bursty" | "rf" => {
            let mut m = EnvModel::rf_default();
            if let EnvModel::RfBursty {
                mean_power_w,
                mean_burst_ms,
                mean_gap_ms,
            } = &mut m
            {
                t.override_f64("mean_power_uw", 1e-6, mean_power_w)?;
                t.override_f64("burst_ms", 1.0, mean_burst_ms)?;
                t.override_f64("gap_ms", 1.0, mean_gap_ms)?;
            }
            Ok(m)
        }
        "solar-diurnal" | "solar" => {
            let mut m = EnvModel::solar_default();
            if let EnvModel::SolarDiurnal {
                peak_power_w,
                day_s,
            } = &mut m
            {
                t.override_f64("peak_power_uw", 1e-6, peak_power_w)?;
                t.override_f64("day_s", 1.0, day_s)?;
            }
            Ok(m)
        }
        "piezo-impulse" | "piezo" => {
            let mut m = EnvModel::piezo_default();
            if let EnvModel::PiezoImpulse {
                baseline_w,
                impulse_w,
                impulse_ms,
                mean_gap_ms,
            } = &mut m
            {
                t.override_f64("baseline_uw", 1e-6, baseline_w)?;
                t.override_f64("impulse_uw", 1e-6, impulse_w)?;
                t.override_f64("impulse_ms", 1.0, impulse_ms)?;
                t.override_f64("gap_ms", 1.0, mean_gap_ms)?;
            }
            Ok(m)
        }
        other => Err(err(&format!("unknown environment family `{other}`"))),
    }
}

fn env_canonical(env: &EnvModel) -> String {
    match *env {
        EnvModel::RfBursty {
            mean_power_w,
            mean_burst_ms,
            mean_gap_ms,
        } => format!(
            "rf:{}:{}:{}",
            bits(mean_power_w),
            bits(mean_burst_ms),
            bits(mean_gap_ms)
        ),
        EnvModel::SolarDiurnal {
            peak_power_w,
            day_s,
        } => {
            format!("solar:{}:{}", bits(peak_power_w), bits(day_s))
        }
        EnvModel::PiezoImpulse {
            baseline_w,
            impulse_w,
            impulse_ms,
            mean_gap_ms,
        } => format!(
            "piezo:{}:{}:{}:{}",
            bits(baseline_w),
            bits(impulse_w),
            bits(impulse_ms),
            bits(mean_gap_ms)
        ),
    }
}

/// Exact float rendering for canonical strings.
fn bits(v: f64) -> String {
    format!("{:016x}", v.to_bits())
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// A scenario parse/validation error.
///
/// Key-shape problems get named variants (a service rejecting scenario
/// submissions wants to tell a duplicated key apart from a typo'd one);
/// everything else is a human-readable [`ScenarioError::Message`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// Malformed syntax or an invalid field value.
    Message(String),
    /// The same key appeared twice in one table. The parser used to
    /// resolve duplicates silently (first occurrence won), which turns
    /// an edited-but-not-deleted line into a quietly ignored override —
    /// rejected outright instead.
    DuplicateKey { table: String, key: String },
    /// A key no schema field or environment parameter matches — almost
    /// always a typo that would otherwise silently fall back to the
    /// default value.
    UnknownKey {
        table: String,
        key: String,
        /// Comma-separated list of the keys valid in that table.
        valid: String,
    },
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::Message(msg) => write!(f, "scenario error: {msg}"),
            ScenarioError::DuplicateKey { table, key } => write!(
                f,
                "scenario error: duplicate key `{key}` in {table} \
                 (each key may appear once; duplicates are rejected \
                 rather than silently resolved)"
            ),
            ScenarioError::UnknownKey { table, key, valid } => write!(
                f,
                "scenario error: unknown key `{key}` in {table} \
                 (valid keys: {valid})"
            ),
        }
    }
}

impl std::error::Error for ScenarioError {}

fn err(msg: &str) -> ScenarioError {
    ScenarioError::Message(msg.to_string())
}

/// Keys the `[fleet]` table accepts.
const FLEET_KEYS: &[&str] = &[
    "name",
    "seed",
    "shard_size",
    "wall_limit_s",
    "trace_duration_s",
    "scale",
];

/// Keys every `[[cohort]]` table accepts, before environment parameters.
const COHORT_KEYS: &[&str] = &[
    "name",
    "count",
    "benchmark",
    "technique",
    "substrate",
    "capacitance_uf",
    "environment",
];

/// Environment parameter keys, per harvester family.
const RF_KEYS: &[&str] = &["mean_power_uw", "burst_ms", "gap_ms"];
const SOLAR_KEYS: &[&str] = &["peak_power_uw", "day_s"];
const PIEZO_KEYS: &[&str] = &["baseline_uw", "impulse_uw", "impulse_ms", "gap_ms"];

/// Every key a section may hold whatever its values: what the TOML
/// reader admits before the per-family check in [`parse_cohort`].
const FLEET_UNIVERSE: &[&[&str]] = &[FLEET_KEYS];
const COHORT_UNIVERSE: &[&[&str]] = &[COHORT_KEYS, RF_KEYS, SOLAR_KEYS, PIEZO_KEYS];

/// The per-family environment parameter keys a cohort may override.
fn env_param_keys(family: &str) -> &'static [&'static str] {
    match family {
        "rf-bursty" | "rf" => RF_KEYS,
        "solar-diurnal" | "solar" => SOLAR_KEYS,
        "piezo-impulse" | "piezo" => PIEZO_KEYS,
        _ => &[],
    }
}

fn is_known(allowed: &[&[&str]], key: &str) -> bool {
    allowed.iter().any(|set| set.contains(&key))
}

/// The [`ScenarioError::UnknownKey`] for `key`, listing each key of the
/// `allowed` sets once.
fn unknown_key(table: &str, key: &str, allowed: &[&[&str]]) -> ScenarioError {
    let mut valid: Vec<&str> = Vec::new();
    for &k in allowed.iter().flat_map(|set| set.iter()) {
        if !valid.contains(&k) {
            valid.push(k);
        }
    }
    ScenarioError::UnknownKey {
        table: table.to_string(),
        key: key.to_string(),
        valid: valid.join(", "),
    }
}

/// Rejects the first key, in read order, that none of the `allowed`
/// sets contain — a stored entry or the table's stray key.
fn check_known_keys(t: &TableDoc, table: &str, allowed: &[&[&str]]) -> Result<(), ScenarioError> {
    let listed = t
        .entries
        .iter()
        .position(|(key, _)| !is_known(allowed, key));
    let key = match (&t.stray, listed) {
        (Some((at, key)), i) if i.is_none_or(|i| *at <= i) => key,
        (_, Some(i)) => &t.entries[i].0,
        _ => return Ok(()),
    };
    Err(unknown_key(table, key, allowed))
}

// ---------------------------------------------------------------------
// Document model shared by the TOML and JSON frontends.
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Default, PartialEq)]
struct TableDoc {
    entries: Vec<(String, Value)>,
    /// The first key read outside the section's key universe, with the
    /// number of entries read before it. It is never stored; the
    /// per-family check reports it in its read position.
    stray: Option<(usize, String)>,
}

impl TableDoc {
    fn get(&self, key: &str) -> Option<&Value> {
        self.entries.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Appends an entry. A key outside `allowed`, the section's key
    /// universe, is dropped as soon as it is read (the first one is kept
    /// as the table's stray key, for [`check_known_keys`] to report), so
    /// a table never holds more entries than the universe has keys and
    /// the duplicate scan stays bounded however long the input is. A
    /// key already present is rejected — the silent first-wins duplicate
    /// resolution this parser used to have turned edited-but-not-deleted
    /// lines into ignored overrides.
    fn push_unique(
        &mut self,
        table: &str,
        allowed: &[&[&str]],
        key: String,
        value: Value,
    ) -> Result<(), ScenarioError> {
        if !is_known(allowed, &key) {
            self.stray.get_or_insert((self.entries.len(), key));
            return Ok(());
        }
        if self.get(&key).is_some() {
            return Err(ScenarioError::DuplicateKey {
                table: table.to_string(),
                key,
            });
        }
        self.entries.push((key, value));
        Ok(())
    }

    fn str(&self, key: &str) -> Option<String> {
        match self.get(key)? {
            Value::Str(s) => Some(s.clone()),
            Value::Num(n) => Some(format!("{n}")),
            Value::Bool(b) => Some(b.to_string()),
            _ => None, // tables hold leaves only
        }
    }

    fn str_or(&self, key: &str, default: &str) -> String {
        self.str(key).unwrap_or_else(|| default.to_string())
    }

    fn f64_opt(&self, key: &str) -> Result<Option<f64>, ScenarioError> {
        match self.get(key) {
            None => Ok(None),
            Some(Value::Num(n)) => Ok(Some(*n)),
            Some(_) => Err(err(&format!("field `{key}` must be a number"))),
        }
    }

    /// Sets `field` to `key`'s value times `scale` when the table has
    /// `key` (µW keys scale by 1e-6 into watts).
    fn override_f64(&self, key: &str, scale: f64, field: &mut f64) -> Result<(), ScenarioError> {
        if let Some(v) = self.f64_opt(key)? {
            *field = v * scale;
        }
        Ok(())
    }

    fn f64_or(&self, key: &str, default: f64) -> Result<f64, ScenarioError> {
        Ok(self.f64_opt(key)?.unwrap_or(default))
    }

    fn u64_or(&self, key: &str, default: u64) -> Result<u64, ScenarioError> {
        let v = self.f64_or(key, default as f64)?;
        if v < 0.0 || v.fract() != 0.0 || v > u64::MAX as f64 {
            return Err(err(&format!(
                "field `{key}` must be a non-negative integer, got {v}"
            )));
        }
        Ok(v as u64)
    }
}

#[derive(Debug, Default)]
struct ScenarioDoc {
    fleet: TableDoc,
    cohorts: Vec<TableDoc>,
}

// ---------------------------------------------------------------------
// TOML-subset frontend: `[fleet]`, repeated `[[cohort]]`, and
// `key = value` lines with string / number / boolean values.
// ---------------------------------------------------------------------

fn doc_from_toml(text: &str) -> Result<ScenarioDoc, ScenarioError> {
    enum Section {
        None,
        Fleet,
        Cohort,
    }
    let mut doc = ScenarioDoc::default();
    let mut section = Section::None;
    for (lineno, raw) in text.lines().enumerate() {
        let line = strip_toml_comment(raw).trim().to_string();
        if line.is_empty() {
            continue;
        }
        let at = |msg: &str| err(&format!("line {}: {msg}", lineno + 1));
        if line == "[fleet]" {
            section = Section::Fleet;
            continue;
        }
        if line == "[[cohort]]" {
            doc.cohorts.push(TableDoc::default());
            section = Section::Cohort;
            continue;
        }
        if line.starts_with('[') {
            return Err(at(&format!(
                "unknown section `{line}` (expected [fleet] or [[cohort]])"
            )));
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(at("expected `key = value`"));
        };
        let key = key.trim().to_string();
        let value = parse_toml_value(value.trim())
            .ok_or_else(|| at(&format!("cannot parse value for `{key}`")))?;
        let (table, context, allowed) = match section {
            Section::Fleet => (&mut doc.fleet, "[fleet]".to_string(), FLEET_UNIVERSE),
            Section::Cohort => {
                let context = format!("cohort[{}]", doc.cohorts.len() - 1);
                (
                    doc.cohorts.last_mut().expect("pushed on [[cohort]]"),
                    context,
                    COHORT_UNIVERSE,
                )
            }
            Section::None => {
                return Err(at("key outside any section (start with [fleet])"));
            }
        };
        table.push_unique(&context, allowed, key, value)?;
    }
    Ok(doc)
}

/// Strips a `#` comment that is not inside a quoted string.
fn strip_toml_comment(line: &str) -> &str {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_toml_value(s: &str) -> Option<Value> {
    if let Some(inner) = s.strip_prefix('"').and_then(|r| r.strip_suffix('"')) {
        return Some(Value::Str(inner.to_string()));
    }
    match s {
        "true" => return Some(Value::Bool(true)),
        "false" => return Some(Value::Bool(false)),
        _ => {}
    }
    s.parse::<f64>().ok().map(Value::Num)
}

// ---------------------------------------------------------------------
// JSON frontend: `{"fleet": {...}, "cohorts": [{...}, ...]}` with
// string / number / boolean leaf values, read by the one JSON reader.
// ---------------------------------------------------------------------

fn doc_from_json(text: &str) -> Result<ScenarioDoc, ScenarioError> {
    let top = json::parse(text).map_err(|e| match e {
        JsonError::DuplicateKey(key) => ScenarioError::DuplicateKey {
            table: "a JSON object".to_string(),
            key,
        },
        e => err(&format!("JSON: {e}")),
    })?;
    let Value::Obj(top) = top else {
        return Err(err("JSON: a scenario is an object"));
    };
    let mut doc = ScenarioDoc::default();
    for (key, value) in top {
        match key.as_str() {
            "fleet" => doc.fleet = json_table(value, "[fleet]")?,
            "cohorts" => {
                let Value::Arr(tables) = value else {
                    return Err(err("JSON: `cohorts` must be an array"));
                };
                for (i, t) in tables.into_iter().enumerate() {
                    doc.cohorts.push(json_table(t, &format!("cohort[{i}]"))?);
                }
            }
            other => {
                return Err(err(&format!(
                    "unknown top-level key `{other}` (expected fleet/cohorts)"
                )))
            }
        }
    }
    Ok(doc)
}

/// One scenario table: an object whose values are all leaves.
fn json_table(value: Value, table: &str) -> Result<TableDoc, ScenarioError> {
    let Value::Obj(fields) = value else {
        return Err(err(&format!("JSON: {table} must be an object")));
    };
    if let Some((key, _)) = fields
        .iter()
        .find(|(_, v)| !matches!(v, Value::Str(_) | Value::Num(_) | Value::Bool(_)))
    {
        return Err(err(&format!(
            "JSON: {table}.{key} must be a string, number or boolean"
        )));
    }
    Ok(TableDoc {
        entries: fields.into_iter().collect(),
        stray: None,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const TOML: &str = r#"
# A two-cohort mixed fleet.
[fleet]
name = "mini"
seed = 7
shard_size = 128
wall_limit_s = 1800.0
trace_duration_s = 30.0
scale = "quick"

[[cohort]]
count = 96
benchmark = "matmul"
technique = "swp8"
substrate = "clank"
capacitance_uf = 1.0
environment = "rf-bursty"
mean_power_uw = 125.0

[[cohort]]
count = 32
benchmark = "home"          # trailing comment
technique = "precise"
substrate = "nvp"
environment = "solar"
day_s = 10.0
"#;

    #[test]
    fn toml_scenario_parses() {
        let s = FleetScenario::parse(TOML).unwrap();
        assert_eq!(s.name, "mini");
        assert_eq!(s.seed, 7);
        assert_eq!(s.shard_size, 128);
        assert_eq!(s.total_devices(), 128);
        assert_eq!(s.shard_count(), 1);
        assert_eq!(s.cohorts.len(), 2);
        let c0 = &s.cohorts[0];
        assert_eq!(c0.benchmark, Benchmark::MatMul);
        assert_eq!(c0.technique, Technique::swp(8));
        assert_eq!(c0.substrate, SubstrateChoice::Clank);
        assert!(matches!(
            c0.env,
            EnvModel::RfBursty { mean_power_w, .. } if (mean_power_w - 125e-6).abs() < 1e-12
        ));
        let c1 = &s.cohorts[1];
        assert_eq!(c1.substrate, SubstrateChoice::Nvp);
        assert!(matches!(c1.env, EnvModel::SolarDiurnal { day_s, .. } if day_s == 10.0));
        assert_eq!(c1.name, "home-precise-nvp-solar-diurnal");
    }

    #[test]
    fn json_scenario_matches_toml_scenario() {
        let json = r#"{
  "fleet": {"name": "mini", "seed": 7, "shard_size": 128,
            "wall_limit_s": 1800.0, "trace_duration_s": 30.0, "scale": "quick"},
  "cohorts": [
    {"count": 96, "benchmark": "matmul", "technique": "swp8",
     "substrate": "clank", "capacitance_uf": 1.0,
     "environment": "rf-bursty", "mean_power_uw": 125.0},
    {"count": 32, "benchmark": "home", "technique": "precise",
     "substrate": "nvp", "environment": "solar", "day_s": 10.0}
  ]
}"#;
        let a = FleetScenario::parse(TOML).unwrap();
        let b = FleetScenario::parse(json).unwrap();
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());

        // Non-ASCII names decode as UTF-8 in both frontends.
        let a = FleetScenario::parse(&TOML.replace("\"mini\"", "\"π-fleet\"")).unwrap();
        let b = FleetScenario::parse(&json.replace("\"mini\"", "\"π-fleet\"")).unwrap();
        assert_eq!(b.name, "π-fleet");
        assert_eq!(a, b);
        assert_eq!(a.fingerprint(), b.fingerprint());
    }

    #[test]
    fn device_and_cohort_indexing() {
        let s = FleetScenario::parse(TOML).unwrap();
        assert_eq!(s.cohort_of(0), 0);
        assert_eq!(s.cohort_of(95), 0);
        assert_eq!(s.cohort_of(96), 1);
        assert_eq!(s.cohort_of(127), 1);
        // Seeds are deterministic and decorrelated.
        assert_eq!(s.device_seed(3), s.device_seed(3));
        assert_ne!(s.device_seed(3), s.device_seed(4));
        assert_ne!(s.cohort_input_seed(0), s.cohort_input_seed(1));
    }

    #[test]
    fn fingerprint_tracks_every_result_affecting_field() {
        let base = FleetScenario::parse(TOML).unwrap();
        let mut seeded = base.clone();
        seeded.seed = 8;
        assert_ne!(base.fingerprint(), seeded.fingerprint());
        let mut sharded = base.clone();
        sharded.shard_size = 64;
        assert_ne!(base.fingerprint(), sharded.fingerprint());
        let mut env = base.clone();
        env.cohorts[1].env = EnvModel::SolarDiurnal {
            peak_power_w: 1e-4,
            day_s: 10.0,
        };
        assert_ne!(base.fingerprint(), env.fingerprint());
    }

    #[test]
    fn technique_parsing_covers_the_compiler_surface() {
        let b = Benchmark::MatAdd;
        assert_eq!(parse_technique("precise", b), Some(Technique::Precise));
        assert_eq!(parse_technique("swp4", b), Some(Technique::swp(4)));
        assert_eq!(
            parse_technique("swp8+vld", b),
            Some(Technique::swp_vectorized(8))
        );
        assert_eq!(parse_technique("swv8", b), Some(Technique::swv(8)));
        assert_eq!(
            parse_technique("swv4-unprov", b),
            Some(Technique::swv_unprovisioned(4))
        );
        assert_eq!(parse_technique("anytime8", b), Some(b.technique(8)));
        assert_eq!(parse_technique("warp9", b), None);
    }

    #[test]
    fn bad_scenarios_are_rejected_with_messages() {
        for (text, needle) in [
            ("[fleet]\nseed = 1\n", "at least one"),
            ("count = 1\n", "outside any section"),
            ("[fleet]\n[[cohort]]\ncount = 4\n", "benchmark"),
            (
                "[fleet]\n[[cohort]]\nbenchmark = \"nope\"\n",
                "unknown benchmark",
            ),
            (
                "[fleet]\n[[cohort]]\nbenchmark = \"home\"\nenvironment = \"wind\"\n",
                "unknown environment",
            ),
            (
                "[fleet]\nshard_size = 0\n[[cohort]]\nbenchmark = \"home\"\n",
                "shard_size",
            ),
            (
                "[fleet]\n[[cohort]]\nbenchmark = \"home\"\ncount = 0\n",
                "zero devices",
            ),
            (
                "{\"cohorts\": [{\"benchmark\": \"home\"}]} {}",
                "trailing bytes",
            ),
            // Strict RFC 8259: no raw control bytes inside strings, no
            // leading `+` on numbers.
            (
                "{\"fleet\": {\"name\": \"a\tb\"}, \"cohorts\": [{\"benchmark\": \"home\"}]}",
                "control byte in string",
            ),
            (
                "{\"fleet\": {\"seed\": +1}, \"cohorts\": [{\"benchmark\": \"home\"}]}",
                "expected a value",
            ),
        ] {
            let e = FleetScenario::parse(text).unwrap_err().to_string();
            assert!(
                e.contains(needle),
                "`{needle}` not in error `{e}` for:\n{text}"
            );
        }
    }

    #[test]
    fn task_substrate_parses() {
        let text = TOML.replace("substrate = \"nvp\"", "substrate = \"task\"");
        let s = FleetScenario::parse(&text).unwrap();
        assert_eq!(s.cohorts[1].substrate, SubstrateChoice::Task);
        assert_eq!(s.cohorts[1].substrate.name(), "task");
        assert!(matches!(
            s.cohorts[1].substrate.kind(),
            SubstrateKind::Task(_)
        ));
        assert_eq!(s.cohorts[1].name, "home-precise-task-solar-diurnal");
        // The substrate participates in the checkpoint fingerprint.
        assert_ne!(
            s.fingerprint(),
            FleetScenario::parse(TOML).unwrap().fingerprint()
        );
    }

    /// Satellite regression: an unknown substrate or technique must name
    /// the offending value and list the valid ones, not just point at a
    /// field.
    #[test]
    fn unknown_substrate_and_technique_errors_name_value_and_list_valid() {
        let bad_substrate = "[fleet]\n[[cohort]]\nbenchmark = \"home\"\nsubstrate = \"alpaca\"\n";
        let e = FleetScenario::parse(bad_substrate).unwrap_err().to_string();
        for needle in ["cohort[0].substrate", "`alpaca`", "clank, nvp, task"] {
            assert!(e.contains(needle), "`{needle}` not in `{e}`");
        }

        let bad_technique = "[fleet]\n[[cohort]]\nbenchmark = \"home\"\ntechnique = \"warp9\"\n";
        let e = FleetScenario::parse(bad_technique).unwrap_err().to_string();
        for needle in [
            "cohort[0].technique",
            "`warp9`",
            "precise",
            "swpN+vld",
            "swvN-unprov",
            "anytimeN",
        ] {
            assert!(e.contains(needle), "`{needle}` not in `{e}`");
        }
    }

    /// Satellite regression: a repeated key must be rejected with the
    /// named [`ScenarioError::DuplicateKey`] variant, never silently
    /// resolved (the parser used to keep the first occurrence and
    /// ignore the rest).
    #[test]
    fn duplicate_keys_are_rejected_in_both_frontends() {
        // TOML: duplicate in [fleet].
        let toml_fleet = "[fleet]\nseed = 1\nseed = 2\n[[cohort]]\nbenchmark = \"home\"\n";
        match FleetScenario::parse(toml_fleet) {
            Err(ScenarioError::DuplicateKey { table, key }) => {
                assert_eq!(table, "[fleet]");
                assert_eq!(key, "seed");
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        // TOML: duplicate in a cohort table, with the cohort named.
        let toml_cohort = "[fleet]\n[[cohort]]\nbenchmark = \"home\"\n\
                           [[cohort]]\nbenchmark = \"home\"\ncount = 2\ncount = 3\n";
        match FleetScenario::parse(toml_cohort) {
            Err(ScenarioError::DuplicateKey { table, key }) => {
                assert_eq!(table, "cohort[1]");
                assert_eq!(key, "count");
            }
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        // JSON: duplicate inside a table.
        let json = r#"{"fleet": {"seed": 1, "seed": 2},
                       "cohorts": [{"benchmark": "home"}]}"#;
        match FleetScenario::parse(json) {
            Err(ScenarioError::DuplicateKey { key, .. }) => assert_eq!(key, "seed"),
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        // JSON: duplicate top-level section.
        let json_top = r#"{"fleet": {"seed": 1}, "fleet": {"seed": 2},
                           "cohorts": [{"benchmark": "home"}]}"#;
        match FleetScenario::parse(json_top) {
            Err(ScenarioError::DuplicateKey { key, .. }) => assert_eq!(key, "fleet"),
            other => panic!("expected DuplicateKey, got {other:?}"),
        }
        // The error message names the key and the table.
        let e = FleetScenario::parse(toml_fleet).unwrap_err().to_string();
        assert!(
            e.contains("duplicate key `seed`") && e.contains("[fleet]"),
            "{e}"
        );
    }

    /// Satellite regression: a typo'd key must be rejected with the
    /// named [`ScenarioError::UnknownKey`] variant instead of silently
    /// falling back to the field's default.
    #[test]
    fn unknown_keys_are_rejected_with_the_valid_set() {
        // Typo in [fleet].
        let toml = "[fleet]\nsard_size = 64\n[[cohort]]\nbenchmark = \"home\"\n";
        match FleetScenario::parse(toml) {
            Err(ScenarioError::UnknownKey { table, key, valid }) => {
                assert_eq!(table, "[fleet]");
                assert_eq!(key, "sard_size");
                assert!(valid.contains("shard_size"), "{valid}");
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        // Typo in a cohort.
        let toml = "[fleet]\n[[cohort]]\nbenchmark = \"home\"\ncapacitence_uf = 3.0\n";
        match FleetScenario::parse(toml) {
            Err(ScenarioError::UnknownKey { table, key, valid }) => {
                assert_eq!(table, "cohort[0]");
                assert_eq!(key, "capacitence_uf");
                assert!(valid.contains("capacitance_uf"), "{valid}");
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        // An environment parameter of a *different* family is unknown
        // in this cohort (solar has no burst length).
        let toml = "[fleet]\n[[cohort]]\nbenchmark = \"home\"\n\
                    environment = \"solar\"\nburst_ms = 5.0\n";
        match FleetScenario::parse(toml) {
            Err(ScenarioError::UnknownKey { key, valid, .. }) => {
                assert_eq!(key, "burst_ms");
                assert!(valid.contains("peak_power_uw") && valid.contains("day_s"));
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
        // The matching family's parameters stay accepted.
        let ok = "[fleet]\n[[cohort]]\nbenchmark = \"home\"\n\
                  environment = \"solar\"\nday_s = 10.0\n";
        assert!(FleetScenario::parse(ok).is_ok());
    }

    /// A key outside the section's universe is dropped as soon as it is
    /// read: 4 MiB of distinct keys (the daemon's submit bound) is read
    /// in linear time, without scanning every earlier entry per line,
    /// and fails on the first one.
    #[test]
    fn distinct_unknown_keys_fail_on_the_first_one() {
        let mut toml = String::from("[fleet]\n");
        let mut n = 0;
        while toml.len() < 4 << 20 {
            toml.push_str(&format!("k{n} = 1\n"));
            n += 1;
        }
        match FleetScenario::parse(&toml) {
            Err(ScenarioError::UnknownKey { table, key, .. }) => {
                assert_eq!(table, "[fleet]");
                assert_eq!(key, "k0");
            }
            other => panic!("expected UnknownKey, got {other:?}"),
        }
    }

    /// The TOML reader's early drop of out-of-universe keys changes no
    /// error: the same cohort as TOML and as JSON fails with the same
    /// message — the per-family key list wherever `environment` sits,
    /// and a semantic error still ahead of an unknown key.
    #[test]
    fn unknown_key_errors_match_across_formats() {
        let cases: &[&[(&str, &str)]] = &[
            &[("benchmark", "\"home\""), ("bogus", "1")],
            &[("environment", "\"solar\""), ("bogus", "1")],
            &[("bogus", "1"), ("environment", "\"piezo\"")],
            &[
                ("gap_ms", "1"),
                ("environment", "\"solar\""),
                ("bogus", "1"),
            ],
            &[("bogus", "1"), ("day_s", "1"), ("environment", "\"rf\"")],
            &[("benchmark", "\"nope\""), ("bogus", "1")],
        ];
        for fields in cases {
            let toml = fields
                .iter()
                .fold(String::from("[fleet]\n[[cohort]]\n"), |acc, (k, v)| {
                    acc + &format!("{k} = {v}\n")
                });
            let body: Vec<String> = fields.iter().map(|(k, v)| format!("\"{k}\":{v}")).collect();
            let json = format!("{{\"fleet\":{{}},\"cohorts\":[{{{}}}]}}", body.join(","));
            let (t, j) = (FleetScenario::parse(&toml), FleetScenario::parse(&json));
            assert!(t.is_err(), "{toml}");
            assert_eq!(t, j, "{toml}");
        }
    }

    #[test]
    fn shard_count_rounds_up() {
        let mut s = FleetScenario::parse(TOML).unwrap();
        assert_eq!(s.shard_count(), 1);
        s.shard_size = 50;
        assert_eq!(s.shard_count(), 3);
        s.shard_size = 128;
        s.cohorts[0].count = 97;
        assert_eq!(s.total_devices(), 129);
        assert_eq!(s.shard_count(), 2);
    }
}
