//! The campaign spec: a sweep described as data.
//!
//! A [`CampaignSpec`] names everything a sweep crosses — policies (by their
//! `lsps_core::policy::registry` names), platforms, workload entries
//! (synthetic [`lsps_workload::WorkloadSpec`]s, named [`crate::families`],
//! or SWF/JSONL trace files), executors — plus a [`ReplicationSpec`] that
//! turns each workload entry into independent seeded replications.
//!
//! Specs deserialize from JSON with layered defaults (only `name`,
//! `policies`, `platforms` and `workloads` are required), so a minimal
//! file stays minimal; see `examples/small_campaign.json`.
//!
//! This module holds the data and its serde only. A spec that parses is
//! not yet known to be runnable: [`crate::campaign::CampaignPlan::expand`]
//! is its one check, and the bounds a spec must stay within live there.

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Error as SerdeError, Serialize, Value};

use lsps_core::allot::AllotRule;
use lsps_core::policy::{Knowledge, PolicyCtx, ReleaseMode, DEFAULT_INITIAL_ESTIMATE};
use lsps_des::Dur;
use lsps_metrics::WarmupSpec;
use lsps_workload::{FailurePolicy, FailureTraceSpec, OpenStreamSpec, WorkloadSpec};

use crate::runner::Executor;

/// SplitMix64 finalizer: a bijective avalanche mix, the standard way to
/// derive well-spread independent seeds from structured inputs.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a 64-bit: a stable, dependency-free content hash. Used for seed
/// derivation (hashing workload names) and for cache addressing — never
/// for anything adversarial.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A malformed or semantically invalid campaign spec.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpecError(pub String);

impl fmt::Display for SpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "campaign spec: {}", self.0)
    }
}

impl std::error::Error for SpecError {}

/// Where a workload entry's jobs come from.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum WorkloadSource {
    /// A synthetic generator spec, generated per replication seed.
    Spec(WorkloadSpec),
    /// A named built-in family (see [`crate::families`]) at size `n`.
    Family {
        /// Family name, resolved via [`crate::families::builtin_family`].
        family: String,
        /// Instance size (jobs).
        n: usize,
    },
    /// A Standard Workload Format trace file (path, resolved relative to
    /// the spec file). Replications repeat the same fixed job list.
    SwfFile(String),
    /// A JSON-lines trace file (lossless native format, moldable profiles
    /// included).
    JsonlFile(String),
    /// An open (steady-state) arrival stream, driven through the
    /// `des-online` executor with a stopping rule instead of a job list.
    Open(OpenEntry),
}

/// An open workload entry: the unbounded stream plus the stopping and
/// estimation rules that make its steady-state statistics meaningful.
/// Per-replication seeds seed the stream's RNG, so replications are
/// independent sample paths of the same arrival process.
#[derive(Clone, Debug, PartialEq)]
pub struct OpenEntry {
    /// The stream: target load ρ, arrival process, job-class mixture.
    pub stream: OpenStreamSpec,
    /// Primary stopping rule: stop the drive after this many counted
    /// completions (memory for response observations is proportional to
    /// this, not to simulated events).
    pub stop_completions: u64,
    /// Optional feed horizon (simulated seconds): arrivals released past
    /// it are never admitted, queued work still drains. `None` feeds until
    /// the completion target stops the driver.
    pub horizon_s: Option<f64>,
    /// Warmup (initial-transient) truncation rule. Default: drop the
    /// first 20% of completions.
    pub warmup: WarmupSpec,
    /// Batch count for the single-replication batch-means CI. Default 20.
    pub batches: usize,
}

impl OpenEntry {
    /// Layered defaults for everything the JSON omits.
    pub const DEFAULT_WARMUP: WarmupSpec = WarmupSpec::Fraction(0.2);
    /// Default batch-means batch count.
    pub const DEFAULT_BATCHES: usize = 20;
}

impl Deserialize for OpenEntry {
    fn from_value(v: &Value) -> Result<OpenEntry, SerdeError> {
        check_keys(
            v,
            &[
                "stream",
                "stop_completions",
                "horizon_s",
                "warmup",
                "batches",
            ],
        )?;
        Ok(OpenEntry {
            stream: Deserialize::from_value(serde::field(v, "stream")?)?,
            stop_completions: Deserialize::from_value(serde::field(v, "stop_completions")?)?,
            horizon_s: opt_or(v, "horizon_s", None)?,
            warmup: opt_or(v, "warmup", OpenEntry::DEFAULT_WARMUP)?,
            batches: opt_or(v, "batches", OpenEntry::DEFAULT_BATCHES)?,
        })
    }
}

impl Serialize for OpenEntry {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("stream".into(), self.stream.to_value()),
            ("stop_completions".into(), self.stop_completions.to_value()),
        ];
        if let Some(h) = self.horizon_s {
            map.push(("horizon_s".into(), h.to_value()));
        }
        map.push(("warmup".into(), self.warmup.to_value()));
        map.push(("batches".into(), self.batches.to_value()));
        Value::Map(map)
    }
}

/// One named workload of the sweep.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadEntry {
    /// Display/CSV/grouping name. Entries may share a name (e.g. explicit
    /// per-seed entries of one family) — the aggregate groups by it.
    pub name: String,
    /// Job source.
    pub source: WorkloadSource,
    /// Explicit seed: the entry contributes exactly one cell per
    /// (policy, platform, executor) with this seed, bypassing the
    /// replication block. `None` (the default) replicates normally.
    pub seed: Option<u64>,
}

/// How per-replication seeds are derived from the base seed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SeedDerivation {
    /// `seed(entry, rep) = splitmix64(splitmix64(base ⊕ fnv(entry.name)) + rep)`
    /// — replications are independent, order-insensitive, and adding an
    /// entry never perturbs another entry's draws.
    #[default]
    SplitMix,
    /// `seed(rep) = base + rep` — the legacy scheme of the hand-rolled
    /// sweeps, kept so the historical binaries reproduce byte-identical
    /// CSVs through the campaign layer.
    Sequential,
}

impl SeedDerivation {
    fn parse(s: &str) -> Result<SeedDerivation, SerdeError> {
        match s {
            "splitmix" => Ok(SeedDerivation::SplitMix),
            "sequential" => Ok(SeedDerivation::Sequential),
            other => Err(SerdeError::custom(format!(
                "unknown seed derivation `{other}` (expected `splitmix` or `sequential`)"
            ))),
        }
    }

    fn name(self) -> &'static str {
        match self {
            SeedDerivation::SplitMix => "splitmix",
            SeedDerivation::Sequential => "sequential",
        }
    }
}

/// The replication block: every workload entry without an explicit seed is
/// expanded into `replications` seeded copies.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct ReplicationSpec {
    /// Root seed of the campaign.
    pub base_seed: u64,
    /// Replications per workload entry (≥ 1).
    pub replications: usize,
    /// Seed derivation scheme.
    pub derivation: SeedDerivation,
}

impl Default for ReplicationSpec {
    fn default() -> ReplicationSpec {
        ReplicationSpec {
            base_seed: 1,
            replications: 1,
            derivation: SeedDerivation::SplitMix,
        }
    }
}

impl ReplicationSpec {
    /// The seeds an entry expands into, in replication order.
    pub fn seeds_for(&self, entry: &WorkloadEntry) -> Vec<u64> {
        if let Some(seed) = entry.seed {
            return vec![seed];
        }
        (0..self.replications as u64)
            .map(|rep| match self.derivation {
                SeedDerivation::Sequential => self.base_seed + rep,
                SeedDerivation::SplitMix => {
                    let entry_root = splitmix64(self.base_seed ^ fnv64(entry.name.as_bytes()));
                    splitmix64(entry_root.wrapping_add(rep))
                }
            })
            .collect()
    }
}

/// A named machine: identical processors, or — with `speeds` — a uniform
/// machine (the spec's *machine* axis, §2.2).
#[derive(Clone, Debug, PartialEq)]
pub struct PlatformSpec {
    /// Display/CSV name.
    pub name: String,
    /// Processor count.
    pub m: usize,
    /// Per-processor relative speeds (`None` = identical machines). When
    /// set, the length must equal `m`, every value must be positive, and
    /// every policy of the spec must be uniform-capable — validation
    /// reports violations before any cell runs.
    pub speeds: Option<Vec<f64>>,
}

impl Deserialize for PlatformSpec {
    fn from_value(v: &Value) -> Result<PlatformSpec, SerdeError> {
        check_keys(v, &["name", "m", "speeds"])?;
        Ok(PlatformSpec {
            name: Deserialize::from_value(serde::field(v, "name")?)?,
            m: Deserialize::from_value(serde::field(v, "m")?)?,
            speeds: opt_or(v, "speeds", None)?,
        })
    }
}

impl Serialize for PlatformSpec {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("name".into(), self.name.to_value()),
            ("m".into(), self.m.to_value()),
        ];
        if let Some(speeds) = &self.speeds {
            map.push(("speeds".into(), speeds.to_value()));
        }
        Value::Map(map)
    }
}

/// One point on the campaign's *failures* axis: a named failure regime ×
/// recovery policy. Every platform is crossed with every failure entry;
/// `trace: None` is the reliable baseline (today's execution path,
/// byte-identical output). A volatile entry (`trace: Some`) runs its cells
/// through the failure-aware online executor with the platform name
/// suffixed `<platform>+<entry>` in the CSVs.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureEntry {
    /// Display name; suffixes the platform name for volatile cells.
    pub name: String,
    /// Failure trace generator; `None` = reliable platform.
    pub trace: Option<FailureTraceSpec>,
    /// Recovery policy for killed jobs (ignored when `trace` is `None`).
    pub policy: FailurePolicy,
}

impl FailureEntry {
    /// The implicit axis of a spec without a `failures` block: one
    /// reliable entry, so the cross product degenerates to today's grid.
    pub fn reliable() -> FailureEntry {
        FailureEntry {
            name: "none".into(),
            trace: None,
            policy: FailurePolicy::Resubmit,
        }
    }
}

impl Deserialize for FailureEntry {
    fn from_value(v: &Value) -> Result<FailureEntry, SerdeError> {
        check_keys(v, &["name", "trace", "policy"])?;
        Ok(FailureEntry {
            name: Deserialize::from_value(serde::field(v, "name")?)?,
            trace: opt_or(v, "trace", None)?,
            policy: opt_or(v, "policy", FailurePolicy::Resubmit)?,
        })
    }
}

impl Serialize for FailureEntry {
    fn to_value(&self) -> Value {
        let mut map = vec![("name".into(), self.name.to_value())];
        if let Some(trace) = &self.trace {
            map.push(("trace".into(), trace.to_value()));
        }
        map.push(("policy".into(), self.policy.to_value()));
        Value::Map(map)
    }
}

/// The scheduling-context knobs a spec may set (reservations are runtime
/// concerns, not spec data).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CtxSpec {
    /// Release-date handling (`"online"` / `"offline"` in JSON).
    pub release_mode: ReleaseMode,
    /// Clairvoyance knob (runtime estimates are `true × factor`, ≥ 1).
    pub estimate_factor: f64,
    /// Rigidification rule (`"sequential"` / `"min-time"` / `"balanced"`).
    pub allot_rule: AllotRule,
    /// Knowledge model (`"clairvoyant"` / `"nonclairvoyant"` in JSON, the
    /// latter with an optional `initial_estimate_s` seconds knob seeding
    /// the exponential-trial doubling).
    pub knowledge: Knowledge,
}

impl Default for CtxSpec {
    fn default() -> CtxSpec {
        let d = PolicyCtx::default();
        CtxSpec {
            release_mode: d.release_mode,
            estimate_factor: d.estimate_factor,
            allot_rule: d.allot_rule,
            knowledge: d.knowledge,
        }
    }
}

impl CtxSpec {
    /// The runnable context.
    pub fn to_policy_ctx(&self) -> PolicyCtx {
        PolicyCtx {
            release_mode: self.release_mode,
            estimate_factor: self.estimate_factor,
            allot_rule: self.allot_rule,
            knowledge: self.knowledge,
            ..PolicyCtx::default()
        }
    }

    fn release_mode_name(&self) -> &'static str {
        match self.release_mode {
            ReleaseMode::Online => "online",
            ReleaseMode::Offline => "offline",
        }
    }

    fn allot_rule_name(&self) -> &'static str {
        match self.allot_rule {
            AllotRule::Sequential => "sequential",
            AllotRule::MinTime => "min-time",
            AllotRule::Balanced => "balanced",
        }
    }
}

/// A whole sweep as data. See the module docs for the JSON shape.
#[derive(Clone, Debug, PartialEq)]
pub struct CampaignSpec {
    /// Campaign name — the stem of the emitted CSV files.
    pub name: String,
    /// Registry policy names under comparison.
    pub policies: Vec<String>,
    /// Executors to run every cell under (default: `direct` only).
    pub executors: Vec<Executor>,
    /// Platforms.
    pub platforms: Vec<PlatformSpec>,
    /// Workload entries.
    pub workloads: Vec<WorkloadEntry>,
    /// Failures axis: every platform × every entry (default: one reliable
    /// entry, i.e. no axis at all).
    pub failures: Vec<FailureEntry>,
    /// Replication block.
    pub replication: ReplicationSpec,
    /// Scheduling context.
    pub ctx: CtxSpec,
}

impl CampaignSpec {
    /// A minimal spec with defaults for everything optional; callers fill
    /// the grid axes in.
    pub fn new(name: impl Into<String>) -> CampaignSpec {
        CampaignSpec {
            name: name.into(),
            policies: Vec::new(),
            executors: vec![Executor::Direct],
            platforms: Vec::new(),
            workloads: Vec::new(),
            failures: vec![FailureEntry::reliable()],
            replication: ReplicationSpec::default(),
            ctx: CtxSpec::default(),
        }
    }

    /// Whether any failure entry actually injects failures.
    pub fn is_volatile(&self) -> bool {
        self.failures.iter().any(|f| f.trace.is_some())
    }

    /// Workload replications summed over the entries: the seeds they
    /// expand into, counted without building them (saturating, as the
    /// spec may not be validated yet).
    pub fn workload_reps(&self) -> usize {
        self.workloads
            .iter()
            .map(|w| match w.seed {
                Some(_) => 1,
                None => self.replication.replications,
            })
            .fold(0, usize::saturating_add)
    }

    /// Total cell count of the expanded grid (saturating, like
    /// [`workload_reps`](Self::workload_reps)).
    pub fn cell_count(&self) -> usize {
        [
            self.policies.len(),
            self.executors.len(),
            self.platforms.len(),
            self.failures.len(),
        ]
        .into_iter()
        .fold(self.workload_reps(), usize::saturating_mul)
    }
}

fn opt<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.get(key).filter(|x| !matches!(x, Value::Null))
}

/// Reject unknown keys. With layered defaults, a misspelled optional key
/// would otherwise be *silently ignored* and the sweep would run under a
/// default the author never chose — the worst failure mode a declarative
/// format can have.
fn check_keys(v: &Value, known: &[&str]) -> Result<(), SerdeError> {
    let map = v
        .as_map()
        .ok_or_else(|| SerdeError::custom("expected object"))?;
    for (k, _) in map {
        if !known.contains(&k.as_str()) {
            return Err(SerdeError::custom(format!(
                "unknown field `{k}` (expected one of: {})",
                known.join(", ")
            )));
        }
    }
    Ok(())
}

fn opt_or<T: Deserialize>(v: &Value, key: &str, default: T) -> Result<T, SerdeError> {
    match opt(v, key) {
        Some(x) => T::from_value(x),
        None => Ok(default),
    }
}

impl Deserialize for WorkloadEntry {
    fn from_value(v: &Value) -> Result<WorkloadEntry, SerdeError> {
        check_keys(v, &["name", "source", "seed"])?;
        Ok(WorkloadEntry {
            name: Deserialize::from_value(serde::field(v, "name")?)?,
            source: Deserialize::from_value(serde::field(v, "source")?)?,
            seed: opt_or(v, "seed", None)?,
        })
    }
}

impl Serialize for WorkloadEntry {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("name".into(), self.name.to_value()),
            ("source".into(), self.source.to_value()),
        ];
        if let Some(seed) = self.seed {
            map.push(("seed".into(), seed.to_value()));
        }
        Value::Map(map)
    }
}

impl Deserialize for ReplicationSpec {
    fn from_value(v: &Value) -> Result<ReplicationSpec, SerdeError> {
        check_keys(v, &["base_seed", "replications", "derivation"])?;
        let d = ReplicationSpec::default();
        Ok(ReplicationSpec {
            base_seed: opt_or(v, "base_seed", d.base_seed)?,
            replications: opt_or(v, "replications", d.replications)?,
            derivation: match opt(v, "derivation") {
                Some(x) => SeedDerivation::parse(&String::from_value(x)?)?,
                None => d.derivation,
            },
        })
    }
}

impl Serialize for ReplicationSpec {
    fn to_value(&self) -> Value {
        Value::Map(vec![
            ("base_seed".into(), self.base_seed.to_value()),
            ("replications".into(), self.replications.to_value()),
            ("derivation".into(), self.derivation.name().to_value()),
        ])
    }
}

impl Deserialize for CtxSpec {
    fn from_value(v: &Value) -> Result<CtxSpec, SerdeError> {
        check_keys(
            v,
            &[
                "release_mode",
                "estimate_factor",
                "allot_rule",
                "knowledge",
                "initial_estimate_s",
            ],
        )?;
        let d = CtxSpec::default();
        let knowledge_name = match opt(v, "knowledge") {
            Some(x) => Some(String::from_value(x)?),
            None => None,
        };
        let knowledge = match knowledge_name.as_deref() {
            Some("nonclairvoyant") => {
                let secs: f64 = opt_or(
                    v,
                    "initial_estimate_s",
                    DEFAULT_INITIAL_ESTIMATE.as_secs_f64(),
                )?;
                Knowledge::NonClairvoyant {
                    initial_estimate: Dur::from_secs_f64(secs),
                }
            }
            Some("clairvoyant") | None => {
                if opt(v, "initial_estimate_s").is_some() {
                    return Err(SerdeError::custom(
                        "`initial_estimate_s` requires `knowledge: \"nonclairvoyant\"`",
                    ));
                }
                match knowledge_name {
                    Some(_) => Knowledge::Clairvoyant,
                    None => d.knowledge,
                }
            }
            Some(other) => {
                return Err(SerdeError::custom(format!(
                    "unknown knowledge model `{other}` \
                     (expected `clairvoyant` or `nonclairvoyant`)"
                )))
            }
        };
        Ok(CtxSpec {
            knowledge,
            release_mode: match opt(v, "release_mode") {
                Some(x) => match String::from_value(x)?.as_str() {
                    "online" => ReleaseMode::Online,
                    "offline" => ReleaseMode::Offline,
                    other => {
                        return Err(SerdeError::custom(format!(
                            "unknown release mode `{other}` (expected `online` or `offline`)"
                        )))
                    }
                },
                None => d.release_mode,
            },
            estimate_factor: opt_or(v, "estimate_factor", d.estimate_factor)?,
            allot_rule: match opt(v, "allot_rule") {
                Some(x) => match String::from_value(x)?.as_str() {
                    "sequential" => AllotRule::Sequential,
                    "min-time" => AllotRule::MinTime,
                    "balanced" => AllotRule::Balanced,
                    other => {
                        return Err(SerdeError::custom(format!(
                            "unknown allot rule `{other}` \
                             (expected `sequential`, `min-time` or `balanced`)"
                        )))
                    }
                },
                None => d.allot_rule,
            },
        })
    }
}

impl Serialize for CtxSpec {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("release_mode".into(), self.release_mode_name().to_value()),
            ("estimate_factor".into(), self.estimate_factor.to_value()),
            ("allot_rule".into(), self.allot_rule_name().to_value()),
        ];
        match self.knowledge {
            Knowledge::Clairvoyant => {
                map.push(("knowledge".into(), "clairvoyant".to_value()));
            }
            Knowledge::NonClairvoyant { initial_estimate } => {
                map.push(("knowledge".into(), "nonclairvoyant".to_value()));
                map.push((
                    "initial_estimate_s".into(),
                    initial_estimate.as_secs_f64().to_value(),
                ));
            }
        }
        Value::Map(map)
    }
}

impl Deserialize for CampaignSpec {
    fn from_value(v: &Value) -> Result<CampaignSpec, SerdeError> {
        check_keys(
            v,
            &[
                "name",
                "policies",
                "executors",
                "platforms",
                "workloads",
                "failures",
                "replication",
                "ctx",
            ],
        )?;
        let executors = match opt(v, "executors") {
            Some(x) => Vec::<String>::from_value(x)?
                .iter()
                .map(|s| Executor::from_str(s).map_err(SerdeError::custom))
                .collect::<Result<Vec<_>, _>>()?,
            None => vec![Executor::Direct],
        };
        Ok(CampaignSpec {
            name: Deserialize::from_value(serde::field(v, "name")?)?,
            policies: Deserialize::from_value(serde::field(v, "policies")?)?,
            executors,
            platforms: Deserialize::from_value(serde::field(v, "platforms")?)?,
            workloads: Deserialize::from_value(serde::field(v, "workloads")?)?,
            failures: opt_or(v, "failures", vec![FailureEntry::reliable()])?,
            replication: opt_or(v, "replication", ReplicationSpec::default())?,
            ctx: opt_or(v, "ctx", CtxSpec::default())?,
        })
    }
}

impl Serialize for CampaignSpec {
    fn to_value(&self) -> Value {
        let mut map = vec![
            ("name".into(), self.name.to_value()),
            ("policies".into(), self.policies.to_value()),
            (
                "executors".into(),
                Value::Seq(self.executors.iter().map(|e| e.name().to_value()).collect()),
            ),
            ("platforms".into(), self.platforms.to_value()),
            ("workloads".into(), self.workloads.to_value()),
        ];
        // The degenerate (reliable-only) axis is elided so the canonical
        // spec JSON — campaign ids, journals — of a pre-failure-axis spec
        // is unchanged.
        if self.failures != vec![FailureEntry::reliable()] {
            map.push(("failures".into(), self.failures.to_value()));
        }
        map.push(("replication".into(), self.replication.to_value()));
        map.push(("ctx".into(), self.ctx.to_value()));
        Value::Map(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::tests::check_spec;
    use crate::campaign::CampaignOptions;

    const MINIMAL: &str = r#"{
        "name": "mini",
        "policies": ["list-fcfs"],
        "platforms": [{"name": "m8", "m": 8}],
        "workloads": [
            {"name": "fam", "source": {"Family": {"family": "fig2-sequential", "n": 5}}}
        ]
    }"#;

    #[test]
    fn minimal_spec_gets_defaults() {
        let spec: CampaignSpec = serde_json::from_str(MINIMAL).expect("parses");
        assert_eq!(spec.executors, vec![Executor::Direct]);
        assert_eq!(spec.replication, ReplicationSpec::default());
        assert_eq!(spec.ctx, CtxSpec::default());
        assert_eq!(spec.workloads[0].seed, None);
        check_spec(&spec, &CampaignOptions::default()).expect("valid");
        assert_eq!(spec.cell_count(), 1);
    }

    #[test]
    fn spec_round_trips_through_json() {
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.executors = vec![Executor::Direct, Executor::DesOnline];
        spec.replication = ReplicationSpec {
            base_seed: 42,
            replications: 3,
            derivation: SeedDerivation::Sequential,
        };
        spec.ctx.release_mode = ReleaseMode::Offline;
        spec.workloads.push(WorkloadEntry {
            name: "trace".into(),
            source: WorkloadSource::SwfFile("data/trace.swf".into()),
            seed: Some(9),
        });
        let text = serde_json::to_string(&spec).unwrap();
        let back: CampaignSpec = serde_json::from_str(&text).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn validation_rejects_unknowns() {
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.policies = vec!["no-such-policy".into()];
        assert!(check_spec(&spec, &CampaignOptions::default())
            .unwrap_err()
            .contains("no-such-policy"));
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.workloads[0].source = WorkloadSource::Family {
            family: "no-such-family".into(),
            n: 5,
        };
        assert!(check_spec(&spec, &CampaignOptions::default())
            .unwrap_err()
            .contains("no-such-family"));
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.policies.clear();
        assert!(check_spec(&spec, &CampaignOptions::default()).is_err());
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.policies = vec!["list-fcfs".into(), "list-fcfs".into()];
        assert!(check_spec(&spec, &CampaignOptions::default())
            .unwrap_err()
            .contains("duplicate policy"));
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.platforms.push(PlatformSpec {
            name: "m8".into(),
            m: 64,
            speeds: None,
        });
        assert!(check_spec(&spec, &CampaignOptions::default())
            .unwrap_err()
            .contains("duplicate platform"));
        assert!(serde_json::from_str::<CampaignSpec>(r#"{"name": "x"}"#).is_err());
        // Misspelled keys are rejected, not silently defaulted.
        for bad in [
            r#"{"name":"x","policies":["list-fcfs"],"platforms":[{"name":"m8","m":8}],
                "workloads":[],"contex":{}}"#,
            r#"{"name":"x","policies":["list-fcfs"],"platforms":[{"name":"m8","m":8}],
                "workloads":[],"replication":{"base_sead":3}}"#,
            r#"{"name":"x","policies":["list-fcfs"],"platforms":[{"name":"m8","m":8}],
                "workloads":[],"ctx":{"release_mod":"offline"}}"#,
        ] {
            let e = serde_json::from_str::<CampaignSpec>(bad).unwrap_err();
            assert!(e.to_string().contains("unknown field"), "{e}");
        }
        assert!(serde_json::from_str::<CampaignSpec>(
            r#"{"name":"x","policies":["list-fcfs"],"platforms":[],"workloads":[],
                "executors":["warp-drive"]}"#
        )
        .is_err());
    }

    #[test]
    fn validation_reports_every_problem_at_once() {
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.policies = vec!["no-such-policy".into(), "also-missing".into()];
        spec.workloads[0].source = WorkloadSource::Family {
            family: "no-such-family".into(),
            n: 5,
        };
        spec.replication.replications = 0;
        let msg = check_spec(&spec, &CampaignOptions::default()).unwrap_err();
        for needle in [
            "no-such-policy",
            "also-missing",
            "no-such-family",
            "replications",
        ] {
            assert!(msg.contains(needle), "`{needle}` missing from: {msg}");
        }
    }

    #[test]
    fn capability_compatibility_is_validated_up_front() {
        // Non-rect policies under a DES executor are rejected by name.
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.policies = vec!["nonclairvoyant-exp-trial".into(), "uniform-mct".into()];
        spec.executors = vec![Executor::Direct, Executor::DesOnline];
        let msg = check_spec(&spec, &CampaignOptions::default()).unwrap_err();
        assert!(msg.contains("nonclairvoyant-exp-trial"), "{msg}");
        assert!(msg.contains("uniform-mct"), "{msg}");
        assert!(msg.contains("des-online"), "{msg}");
        // Under direct alone the same pair is fine.
        spec.executors = vec![Executor::Direct];
        check_spec(&spec, &CampaignOptions::default()).expect("direct handles every outcome kind");
        // A speeded platform rejects every non-uniform policy.
        let mut spec: CampaignSpec = serde_json::from_str(MINIMAL).unwrap();
        spec.platforms[0].speeds = Some(vec![1.0; 8]);
        let msg = check_spec(&spec, &CampaignOptions::default()).unwrap_err();
        assert!(msg.contains("per-processor speeds"), "{msg}");
        spec.policies = vec!["uniform-mct".into()];
        check_spec(&spec, &CampaignOptions::default()).expect("uniform policy rides the speeds");
        // Speed-vector shape is checked too.
        spec.platforms[0].speeds = Some(vec![1.0; 3]);
        let msg = check_spec(&spec, &CampaignOptions::default()).unwrap_err();
        assert!(msg.contains("3 speeds for m = 8"), "{msg}");
        spec.platforms[0].speeds = Some(vec![1.0, -1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0]);
        let msg = check_spec(&spec, &CampaignOptions::default()).unwrap_err();
        assert!(msg.contains("positive and finite"), "{msg}");
    }

    #[test]
    fn machine_and_knowledge_axes_round_trip_through_json() {
        let text = r#"{
            "name": "hetero",
            "policies": ["uniform-mct"],
            "platforms": [{"name": "two-gen", "m": 4, "speeds": [1.0, 1.0, 0.55, 0.55]}],
            "workloads": [
                {"name": "fam", "source": {"Family": {"family": "uniform-seq", "n": 5}}}
            ],
            "ctx": {"knowledge": "nonclairvoyant", "initial_estimate_s": 120.0}
        }"#;
        let spec: CampaignSpec = serde_json::from_str(text).expect("parses");
        assert_eq!(
            spec.platforms[0].speeds.as_deref(),
            Some(&[1.0, 1.0, 0.55, 0.55][..])
        );
        assert_eq!(
            spec.ctx.knowledge,
            Knowledge::NonClairvoyant {
                initial_estimate: Dur::from_secs(120)
            }
        );
        check_spec(&spec, &CampaignOptions::default()).expect("valid");
        let back: CampaignSpec =
            serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, back);
        // The runnable ctx carries the knowledge model.
        assert_eq!(spec.ctx.to_policy_ctx().knowledge, spec.ctx.knowledge);
    }

    #[test]
    fn knowledge_knob_rejects_misuse() {
        let base = r#"{
            "name": "x",
            "policies": ["list-fcfs"],
            "platforms": [{"name": "m8", "m": 8}],
            "workloads": [
                {"name": "fam", "source": {"Family": {"family": "fig2-sequential", "n": 5}}}
            ],
            "ctx": CTX
        }"#;
        // Unknown knowledge model.
        let bad = base.replace("CTX", r#"{"knowledge": "psychic"}"#);
        let e = serde_json::from_str::<CampaignSpec>(&bad).unwrap_err();
        assert!(e.to_string().contains("unknown knowledge model"), "{e}");
        // initial_estimate_s without nonclairvoyant knowledge.
        let bad = base.replace("CTX", r#"{"initial_estimate_s": 10.0}"#);
        let e = serde_json::from_str::<CampaignSpec>(&bad).unwrap_err();
        assert!(e.to_string().contains("requires"), "{e}");
        let bad = base.replace(
            "CTX",
            r#"{"knowledge": "clairvoyant", "initial_estimate_s": 10.0}"#,
        );
        assert!(serde_json::from_str::<CampaignSpec>(&bad).is_err());
        // Default estimate when nonclairvoyant omits the knob.
        let ok = base.replace("CTX", r#"{"knowledge": "nonclairvoyant"}"#);
        let spec: CampaignSpec = serde_json::from_str(&ok).unwrap();
        assert_eq!(
            spec.ctx.knowledge,
            Knowledge::NonClairvoyant {
                initial_estimate: DEFAULT_INITIAL_ESTIMATE
            }
        );
    }

    const OPEN: &str = r#"{
        "name": "open",
        "policies": ["backfill-easy"],
        "executors": ["des-online"],
        "platforms": [{"name": "m64", "m": 64}],
        "workloads": [
            {"name": "rho-0.9", "source": {"Open": {
                "stream": {
                    "rho": 0.9,
                    "arrival": "Poisson",
                    "classes": [
                        {"name": "narrow", "mix": 3.0,
                         "width": {"Fixed": 1.0}, "service_s": {"Exp": 120.0}}
                    ]
                },
                "stop_completions": 1000
            }}}
        ]
    }"#;

    #[test]
    fn open_entries_parse_with_defaults_and_round_trip() {
        let spec: CampaignSpec = serde_json::from_str(OPEN).expect("parses");
        let WorkloadSource::Open(open) = &spec.workloads[0].source else {
            panic!("open source expected");
        };
        assert_eq!(open.stop_completions, 1000);
        assert_eq!(open.horizon_s, None);
        assert_eq!(open.warmup, OpenEntry::DEFAULT_WARMUP);
        assert_eq!(open.batches, OpenEntry::DEFAULT_BATCHES);
        check_spec(&spec, &CampaignOptions::default()).expect("valid");
        let back: CampaignSpec =
            serde_json::from_str(&serde_json::to_string(&spec).unwrap()).unwrap();
        assert_eq!(spec, back);
    }

    #[test]
    fn open_entries_demand_a_uniform_des_online_campaign() {
        // Mixing open and finite entries is rejected.
        let mut spec: CampaignSpec = serde_json::from_str(OPEN).unwrap();
        spec.workloads.push(WorkloadEntry {
            name: "finite".into(),
            source: WorkloadSource::Family {
                family: "fig2-sequential".into(),
                n: 5,
            },
            seed: None,
        });
        assert!(check_spec(&spec, &CampaignOptions::default())
            .unwrap_err()
            .contains("cannot mix"));
        // Any executor list other than exactly [des-online] is rejected.
        let mut spec: CampaignSpec = serde_json::from_str(OPEN).unwrap();
        spec.executors = vec![Executor::Direct];
        assert!(check_spec(&spec, &CampaignOptions::default())
            .unwrap_err()
            .contains("des-online"));
        let mut spec: CampaignSpec = serde_json::from_str(OPEN).unwrap();
        spec.executors = vec![Executor::DesOnline, Executor::Direct];
        assert!(check_spec(&spec, &CampaignOptions::default()).is_err());
        // Offline releases would collapse the stream into one batch.
        let mut spec: CampaignSpec = serde_json::from_str(OPEN).unwrap();
        spec.ctx.release_mode = ReleaseMode::Offline;
        assert!(check_spec(&spec, &CampaignOptions::default())
            .unwrap_err()
            .contains("release_mode"));
    }

    #[test]
    fn open_entry_knobs_are_validated() {
        let mut spec: CampaignSpec = serde_json::from_str(OPEN).unwrap();
        {
            let WorkloadSource::Open(open) = &mut spec.workloads[0].source else {
                unreachable!()
            };
            open.stream.rho = 1.5; // stream validation is surfaced too
            open.stop_completions = 0;
            open.batches = 1;
            open.horizon_s = Some(-3.0);
            open.warmup = WarmupSpec::Fraction(1.0);
        }
        let msg = check_spec(&spec, &CampaignOptions::default()).unwrap_err();
        for needle in ["rho", "stop_completions", "batches", "horizon_s", "warmup"] {
            assert!(msg.contains(needle), "`{needle}` missing from: {msg}");
        }
    }

    #[test]
    fn splitmix_seeds_are_order_insensitive_and_spread() {
        let rep = ReplicationSpec {
            base_seed: 7,
            replications: 4,
            derivation: SeedDerivation::SplitMix,
        };
        let entry = |name: &str| WorkloadEntry {
            name: name.into(),
            source: WorkloadSource::Family {
                family: "fig2-sequential".into(),
                n: 5,
            },
            seed: None,
        };
        let a = rep.seeds_for(&entry("alpha"));
        let b = rep.seeds_for(&entry("beta"));
        // Pure function of (base, name, rep): recomputing any single rep
        // in isolation gives the same seed.
        let rep1 = ReplicationSpec {
            replications: 2,
            ..rep
        };
        assert_eq!(&a[..2], &rep1.seeds_for(&entry("alpha"))[..]);
        // Distinct names and reps give fully distinct seeds.
        let mut all: Vec<u64> = a.iter().chain(&b).copied().collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8);
    }

    #[test]
    fn sequential_and_explicit_seeds() {
        let rep = ReplicationSpec {
            base_seed: 100,
            replications: 3,
            derivation: SeedDerivation::Sequential,
        };
        let mut entry = WorkloadEntry {
            name: "w".into(),
            source: WorkloadSource::SwfFile("t.swf".into()),
            seed: None,
        };
        assert_eq!(rep.seeds_for(&entry), vec![100, 101, 102]);
        entry.seed = Some(7);
        assert_eq!(rep.seeds_for(&entry), vec![7], "explicit seed wins");
    }

    #[test]
    fn fnv_and_splitmix_are_stable() {
        // Pinned values: cache keys and derived seeds must never drift
        // across refactors, or every shard silently invalidates.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(splitmix64(0), 0xe220_a839_7b1d_cdaf);
    }

    /// A campaign over one `Spec` entry named `synthetic`, with `key`'s
    /// value in the generator spec replaced by `value`.
    fn finite_campaign(key: &str, value: &str, factor: &str) -> String {
        let fields = [
            ("n_jobs", "12"),
            ("arrival", r#"{"Poisson": {"mean_interarrival_s": 60.0}}"#),
            ("work_s", r#"{"LogUniform": [30.0, 600.0]}"#),
            ("parallel_fraction", "0.5"),
            ("models", r#"[{"Amdahl": {"seq_fraction": 0.1}}]"#),
            ("max_procs_frac", "[0.1, 0.5]"),
            ("weight", r#"{"Fixed": 1.0}"#),
            ("user", "0"),
        ];
        let body: Vec<String> = fields
            .iter()
            .map(|&(k, v)| format!(r#""{k}": {}"#, if k == key { value } else { v }))
            .collect();
        format!(
            r#"{{"name": "bad", "policies": ["list-fcfs"],
                "platforms": [{{"name": "m8", "m": 8}}],
                "workloads": [{{"name": "synthetic", "source": {{"Spec": {{{}}}}}}}],
                "ctx": {{"estimate_factor": {factor}}}}}"#,
            body.join(", ")
        )
    }

    /// An open campaign over one stream entry named `stream` whose single
    /// class has the given width and service distributions.
    fn open_campaign(width: &str, service: &str) -> String {
        format!(
            r#"{{"name": "bad", "policies": ["list-fcfs"], "executors": ["des-online"],
                "platforms": [{{"name": "m8", "m": 8}}],
                "workloads": [{{"name": "stream", "source": {{"Open": {{
                    "stream": {{"rho": 0.5, "arrival": "Poisson", "classes": [
                        {{"name": "only", "mix": 1.0, "width": {width}, "service_s": {service}}}
                    ]}},
                    "stop_completions": 100, "warmup": {{"Fraction": 0.2}}, "batches": 4
                }}}}}}]}}"#
        )
    }

    #[test]
    fn an_empty_platform_is_an_open_campaigns_only_problem() {
        // The open entry's release bound skips a platform that fails its
        // own check instead of dividing by its m = 0.
        let text = open_campaign(r#"{"Fixed": 1.0}"#, r#"{"Exp": 60.0}"#)
            .replace(r#""m": 8"#, r#""m": 0"#);
        let spec: CampaignSpec = serde_json::from_str(&text).expect("parses");
        let msg = check_spec(&spec, &CampaignOptions::default()).unwrap_err();
        assert_eq!(msg, "platform `m8` has m = 0");
    }

    #[test]
    fn malformed_generators_fail_expansion_instead_of_panicking() {
        let expand = |text: &str| {
            let spec: CampaignSpec = serde_json::from_str(text).expect("parses");
            check_spec(&spec, &CampaignOptions::default())
        };
        // The unmutated templates are valid, so each row fails for its own
        // reason only.
        expand(&finite_campaign("", "", "1.0")).expect("valid finite template");
        expand(&open_campaign(r#"{"Fixed": 1.0}"#, r#"{"Exp": 60.0}"#))
            .expect("valid open template");
        let rows = [
            (
                finite_campaign("work_s", r#"{"LogUniform": [600, 30]}"#, "1.0"),
                ["synthetic", "work_s"],
            ),
            (
                finite_campaign("parallel_fraction", "7", "1.0"),
                ["synthetic", "parallel_fraction"],
            ),
            (
                finite_campaign("models", r#"[{"Amdahl": {"seq_fraction": 3}}]"#, "1.0"),
                ["synthetic", "seq_fraction"],
            ),
            (
                finite_campaign("n_jobs", "0", "1.0"),
                ["synthetic", "n_jobs"],
            ),
            (
                finite_campaign(
                    "arrival",
                    r#"{"DailyCycle": {"mean_interarrival_s": 60.0, "amplitude": 1.5}}"#,
                    "1.0",
                ),
                ["synthetic", "amplitude"],
            ),
            (
                finite_campaign("max_procs_frac", "[0.5, 0.1]", "1.0"),
                ["synthetic", "max_procs_frac"],
            ),
            (
                open_campaign(r#"{"Fixed": 1.0}"#, r#"{"LogUniform": [600, 30]}"#),
                ["stream", "service_s"],
            ),
            (
                open_campaign(r#"{"Uniform": [8, 2]}"#, r#"{"Exp": 60.0}"#),
                ["stream", "width"],
            ),
            // Mean width 1, but half the draws clamp up to one processor
            // and half down to m: the stream would offer about m/2 times rho.
            (
                open_campaign(r#"{"Uniform": [-1e6, 1000002]}"#, r#"{"Exp": 60.0}"#),
                ["stream", "`width` can draw"],
            ),
            // Sizes past their bounds fail validation before anything is
            // allocated for them.
            (
                finite_campaign("", "", "1.0").replacen(
                    r#""name": "bad","#,
                    r#""name": "bad", "replication": {"replications": 100000000000},"#,
                    1,
                ),
                ["cells", "replication.replications"],
            ),
            (
                finite_campaign("", "", "1.0").replace(r#""m": 8"#, r#""m": 1000000000000"#),
                ["m8", "m = 1000000000000"],
            ),
            (
                finite_campaign("n_jobs", "100000000000", "1.0"),
                ["synthetic", "n_jobs"],
            ),
            (
                r#"{"name": "bad", "policies": ["list-fcfs"],
                    "platforms": [{"name": "m8", "m": 8}],
                    "workloads": [{"name": "fam",
                        "source": {"Family": {"family": "rigid0", "n": 100000000000}}}]}"#
                    .to_string(),
                ["fam", "`n` = 100000000000"],
            ),
            // Times past the job-time bound would wrap the tick axis.
            (
                finite_campaign("work_s", r#"{"Fixed": 1e300}"#, "1.0"),
                ["synthetic", "work_s"],
            ),
            (
                finite_campaign(
                    "arrival",
                    r#"{"Poisson": {"mean_interarrival_s": 1e9}}"#,
                    "1.0",
                ),
                ["synthetic", "arrival"],
            ),
            // Open streams answer to the same job-time bound: service
            // times, and releases over `stop_completions` gaps.
            (
                open_campaign(r#"{"Fixed": 1.0}"#, r#"{"Fixed": 1e12}"#),
                ["stream", "service_s"],
            ),
            (
                open_campaign(r#"{"Fixed": 1.0}"#, r#"{"Exp": 60.0}"#)
                    .replace(r#""rho": 0.5"#, r#""rho": 1e-15"#),
                ["stream", "arrival"],
            ),
            // A mean service under one tick would flood the drive with
            // arrivals.
            (
                open_campaign(r#"{"Fixed": 1.0}"#, r#"{"Exp": 1e-300}"#),
                ["stream", "below one tick"],
            ),
            // Open streams answer to the job-count bound through
            // `stop_completions`.
            (
                open_campaign(r#"{"Fixed": 1.0}"#, r#"{"Exp": 60.0}"#).replace(
                    r#""stop_completions": 100,"#,
                    r#""stop_completions": 100000000000,"#,
                ),
                ["stream", "`stop_completions` = 100000000000"],
            ),
            (finite_campaign("", "", "1e999"), ["ctx", "estimate_factor"]),
            // Finite but huge: the estimate saturates the tick axis, so it
            // must fail validation instead of panicking in a worker.
            (finite_campaign("", "", "1e300"), ["ctx", "estimate_factor"]),
        ];
        for (text, needles) in rows {
            match expand(&text) {
                Err(msg) => {
                    for needle in needles {
                        assert!(msg.contains(needle), "`{needle}` missing from: {msg}");
                    }
                }
                Ok(()) => panic!("expected a spec error for {needles:?}"),
            }
        }
    }
}
