//! Runtime configuration of the STM system.

use crate::contention::ContentionPolicy;
use crate::fault::FaultPlan;
use crate::watchdog::WatchdogConfig;

/// Version-management policy (paper §2.2 vs §2.3).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum Versioning {
    /// Eager versioning: transactions update shared memory in place and roll
    /// back from an undo log on abort (McRT-STM; paper's base system).
    #[default]
    Eager,
    /// Lazy versioning: transactions buffer writes privately and copy them
    /// back to shared memory after commit.
    Lazy,
}

/// The granularity at which the STM logs or buffers data versions
/// (paper §2.4).
///
/// When the granularity is wider than a single field, the system manufactures
/// writes to adjacent fields, producing the paper's *granular lost update*
/// and *granular inconsistent read* anomalies under weak atomicity.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum VersionGranularity {
    /// Undo-log / write-buffer entries cover exactly one field.
    #[default]
    PerField,
    /// Entries cover an aligned pair of fields (modelling an 8-byte log
    /// entry spanning two 4-byte fields, as in the paper's example).
    Pair,
}

impl VersionGranularity {
    /// The field indices covered by the versioning entry containing `field`
    /// in an object with `len` fields.
    #[inline]
    pub fn span(self, field: usize, len: usize) -> std::ops::Range<usize> {
        match self {
            VersionGranularity::PerField => field..field + 1,
            VersionGranularity::Pair => {
                let base = field & !1;
                base..(base + 2).min(len)
            }
        }
    }
}

/// Default stripe count for [`Granularity::Striped`] when none is given
/// (e.g. `STM_GRANULARITY=striped`). Large enough that small test heaps
/// never alias two objects onto one slot; small enough (64 KiB of padded
/// slots) to stay cache-resident.
pub const DEFAULT_STRIPES: usize = 1024;

/// Where conflict-detection transaction records live (paper §2 frames this
/// as a protocol choice; the TL2 lineage is the canonical striped design).
///
/// * `PerObject` — the paper's own layout: every object header embeds its
///   record. No false conflicts; one record per object.
/// * `Striped` — a global power-of-two array of tag-packed record words;
///   objects hash to a slot by address. Distinct objects sharing a slot
///   conflict *falsely*, traded against a fixed memory footprint and
///   barrier-friendly cache behaviour.
///
/// The protocol (Figure 7 word encoding, Figure 8 transitions, the
/// isolation-barrier instruction sequences) is identical in both modes —
/// only the record's address differs. Under dynamic escape analysis the
/// *privacy* state always lives in the embedded per-object record, so
/// private objects never touch striped slots.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Granularity {
    /// One embedded transaction record per object (the paper's layout).
    PerObject,
    /// TL2-style striped ownership-record table.
    Striped {
        /// Number of slots; must be a power of two.
        stripes: usize,
    },
}

impl Granularity {
    /// The striped mode with the default stripe count.
    pub fn striped_default() -> Self {
        Granularity::Striped { stripes: DEFAULT_STRIPES }
    }

    /// Short label for reports and experiment tables.
    pub fn label(self) -> String {
        match self {
            Granularity::PerObject => "per-object".to_string(),
            Granularity::Striped { stripes } => format!("striped:{stripes}"),
        }
    }
}

impl Default for Granularity {
    /// Defaults to `PerObject` unless the `STM_GRANULARITY` environment
    /// variable overrides it (`striped`, `striped:<n>`, or `per-object`).
    /// The override exists so a full test run can be repeated with the
    /// striped table as the ambient default (the CI matrix job does this);
    /// it is read once and cached.
    fn default() -> Self {
        static ENV_DEFAULT: std::sync::OnceLock<Granularity> = std::sync::OnceLock::new();
        *ENV_DEFAULT.get_or_init(|| {
            match std::env::var("STM_GRANULARITY").ok().as_deref() {
                Some("striped") => Granularity::striped_default(),
                Some(s) if s.starts_with("striped:") => {
                    let stripes = s["striped:".len()..]
                        .parse::<usize>()
                        .ok()
                        .filter(|n| n.is_power_of_two())
                        .unwrap_or(DEFAULT_STRIPES);
                    Granularity::Striped { stripes }
                }
                _ => Granularity::PerObject,
            }
        })
    }
}

/// The isolation level a heap enforces between transactions and the rest of
/// the program (the spectrum the paper's §2 anomaly taxonomy measures
/// against).
///
/// * `StrongAtomicity` — the paper's target: full single-global-lock
///   semantics. All §2 anomalies and write skew are forbidden.
/// * `SnapshotIsolation` — each transaction reads from a begin-time
///   snapshot (first read of a location is cached and repeated reads are
///   served from the cache) and commits under first-committer-wins
///   write-conflict detection, in the style axiomatized by Raad, Lahav &
///   Vafeiadis (arXiv 1805.06196). Read-set validation is off; the only
///   commit-time conflict is an overlapping write. This forbids every §2
///   anomaly but permits *write skew*.
/// * `QuiescencePrivatization` — per-access isolation barriers are elided
///   and the only non-transactional protection is commit-time quiescence
///   (forced on), per Khyzha, Attiya, Gotsman & Rinetzky's observation that
///   quiescence alone suffices for privatization safety but not for general
///   strong atomicity (arXiv 1801.04249). Transaction-vs-transaction
///   conflicts are still fully detected (so no write skew), while
///   transaction-vs-plain-access races reproduce the paper's Figure 6 weak
///   column per engine.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum IsolationLevel {
    /// Full strong atomicity (the repo's historical — and still default —
    /// behaviour).
    StrongAtomicity,
    /// Begin-time read snapshot + first-committer-wins writes.
    SnapshotIsolation,
    /// No per-access barriers; commit-time quiescence only.
    QuiescencePrivatization,
}

impl IsolationLevel {
    /// All levels, in spectrum order (strongest first).
    pub const ALL: [IsolationLevel; 3] = [
        IsolationLevel::StrongAtomicity,
        IsolationLevel::SnapshotIsolation,
        IsolationLevel::QuiescencePrivatization,
    ];

    /// Short label for reports, experiment tables, and failure messages.
    pub fn label(self) -> &'static str {
        match self {
            IsolationLevel::StrongAtomicity => "strong",
            IsolationLevel::SnapshotIsolation => "snapshot",
            IsolationLevel::QuiescencePrivatization => "quiescence",
        }
    }

    /// Whether transactions read through a begin-time snapshot with
    /// first-committer-wins commit checks.
    #[inline]
    pub fn snapshot_reads(self) -> bool {
        self == IsolationLevel::SnapshotIsolation
    }

    /// Whether non-transactional access barriers are elided at runtime.
    #[inline]
    pub fn elides_barriers(self) -> bool {
        self == IsolationLevel::QuiescencePrivatization
    }
}

impl Default for IsolationLevel {
    /// Defaults to `StrongAtomicity` unless the `STM_ISOLATION` environment
    /// variable overrides it (`strong`, `snapshot`/`si`, or
    /// `quiescence`/`privatization`/`qp`), mirroring `STM_GRANULARITY` so a
    /// full test run can be repeated under a weaker ambient level; read once
    /// and cached.
    fn default() -> Self {
        static ENV_DEFAULT: std::sync::OnceLock<IsolationLevel> = std::sync::OnceLock::new();
        *ENV_DEFAULT.get_or_init(|| {
            match std::env::var("STM_ISOLATION").ok().as_deref() {
                Some("snapshot") | Some("si") => IsolationLevel::SnapshotIsolation,
                Some("quiescence") | Some("privatization") | Some("qp") => {
                    IsolationLevel::QuiescencePrivatization
                }
                _ => IsolationLevel::StrongAtomicity,
            }
        })
    }
}

/// How the global version clock hands out commit stamps
/// (see [`crate::clock::VersionClock`]).
///
/// * `Global` — every committing writer draws its write version with one
///   atomic `fetch_add` on the shared counter (canonical TL2). Stamps are
///   unique and gapless, which enables the commit-time `wv == rv + 1`
///   revalidation skip and in-order multi-version publication.
/// * `ThreadLocal` — the GV5-style contention fallback: a writer's stamp is
///   `max(shared counter, its own last stamp) + 1` with *no* shared-counter
///   write. Readers that observe a stamp ahead of the counter heal it via
///   timestamp extension. The `wv == rv + 1` skip is disabled (stamps are
///   not unique), and a multi-version heap coerces the mode back to
///   `Global` (in-order publication needs gapless stamps).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum ClockMode {
    /// One shared `fetch_add` per commit (canonical TL2 clock).
    Global,
    /// GV5-style thread-local increment; no shared read-modify-write.
    ThreadLocal,
}

impl ClockMode {
    /// Both modes, for sweep axes.
    pub const ALL: [ClockMode; 2] = [ClockMode::Global, ClockMode::ThreadLocal];

    /// Short label for reports and experiment tables.
    pub fn label(self) -> &'static str {
        match self {
            ClockMode::Global => "global",
            ClockMode::ThreadLocal => "thread-local",
        }
    }
}

impl Default for ClockMode {
    /// Defaults to `Global` unless the `STM_CLOCK` environment variable
    /// overrides it (`thread-local`/`threadlocal`/`tl`/`gv5`, or `global`),
    /// mirroring `STM_GRANULARITY`/`STM_ISOLATION` so a full test run can be
    /// repeated under the fallback clock; read once and cached.
    fn default() -> Self {
        static ENV_DEFAULT: std::sync::OnceLock<ClockMode> = std::sync::OnceLock::new();
        *ENV_DEFAULT.get_or_init(|| {
            match std::env::var("STM_CLOCK").ok().as_deref() {
                Some("thread-local") | Some("threadlocal") | Some("tl") | Some("gv5") => {
                    ClockMode::ThreadLocal
                }
                _ => ClockMode::Global,
            }
        })
    }
}

/// Which non-transactional accesses execute isolation barriers.
///
/// This is a property of the *code* (the compiler decides per access site),
/// so workloads carry it alongside the heap configuration.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash, Default)]
pub enum BarrierMode {
    /// Weak atomicity: non-transactional accesses bypass the STM entirely.
    #[default]
    Weak,
    /// Strong atomicity: reads and writes both use isolation barriers
    /// (paper Figures 9 and 10).
    Strong,
    /// Only read barriers (paper Figure 16's experiment).
    ReadOnly,
    /// Only write barriers (paper Figure 17's experiment).
    WriteOnly,
}

impl BarrierMode {
    /// Whether non-transactional reads are barriered.
    #[inline]
    pub fn reads(self) -> bool {
        matches!(self, BarrierMode::Strong | BarrierMode::ReadOnly)
    }

    /// Whether non-transactional writes are barriered.
    #[inline]
    pub fn writes(self) -> bool {
        matches!(self, BarrierMode::Strong | BarrierMode::WriteOnly)
    }
}

/// Per-transaction progress policy: deadlines, retry budgets, and the
/// escalation ladder a starving block climbs before it is serialized.
///
/// A policy is attached to one atomic block via
/// [`crate::txn::atomic_with`] / [`crate::txn::try_atomic_with`]; the
/// heap-wide default is assembled from [`StmConfig::deadline`] and
/// [`StmConfig::retry_budget`] by [`TxnPolicy::from_config`]. The default
/// policy is fully permissive — no deadline, unbounded retries, escalation
/// thresholds at `u32::MAX` — so existing entry points behave exactly as
/// before.
///
/// * `deadline` — a budget of *wait rounds* (virtual time: every backoff or
///   quiescence round spent blocked on a peer consumes one) across all
///   attempts of the block. Once spent, the next wait site aborts the
///   attempt with [`crate::txn::Abort::DeadlineExceeded`] instead of
///   blocking. Conflict-free work never checks the deadline — even
///   `deadline: Some(0)` commits if it never waits.
/// * `max_retries` — a cap on re-executions: once a block has burned this
///   many attempts the wrapper returns
///   [`crate::txn::Abort::RetryExhausted`] instead of re-running.
/// * `boost_after` — after this many attempts the block's Karma age is
///   boosted below every normal age, so age-based contention management
///   treats it as the oldest (highest-priority) transaction in the system.
/// * `serialize_after` — after this many attempts the block escalates to
///   serialized "inevitable-lite" mode: it takes a global per-heap token
///   (one holder at a time) and its conflicts never self-abort on behalf of
///   peers, so it cannot be starved. Validation failures can still retry
///   it, but it retries while holding the token.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct TxnPolicy {
    /// Wait-round budget across all attempts; `None` = no deadline.
    pub deadline: Option<u32>,
    /// Maximum attempts before `RetryExhausted`; `None` = unbounded.
    pub max_retries: Option<u32>,
    /// Attempt count at which the Karma age is boosted to highest priority.
    pub boost_after: u32,
    /// Attempt count at which the block serializes on the global token.
    pub serialize_after: u32,
    /// Per-block isolation override: this block runs at the given level
    /// instead of the heap's [`StmConfig::isolation`], so mixed workloads
    /// can run cheap snapshot-isolation blocks next to strong ones on one
    /// heap. `None` (the default) inherits the heap level.
    ///
    /// The override scopes the *transaction-side* protocol: the read path
    /// (optimistic validated reads vs the pinned begin-time snapshot) and
    /// the commit gate (read-set validity vs first-committer-wins). The
    /// heap-level properties of `QuiescencePrivatization` — elided
    /// non-transactional barriers and forced commit-time quiescence — stay
    /// heap-wide, since they describe code outside any block.
    pub isolation: Option<IsolationLevel>,
}

impl Default for TxnPolicy {
    /// Fully permissive: no deadline, unbounded retries, never escalates,
    /// heap-inherited isolation.
    fn default() -> Self {
        TxnPolicy {
            deadline: None,
            max_retries: None,
            boost_after: u32::MAX,
            serialize_after: u32::MAX,
            isolation: None,
        }
    }
}

impl TxnPolicy {
    /// A hostile-environment preset: bounded waits and retries with the
    /// full escalation ladder armed (boost at 4 attempts, serialize at 8,
    /// give up after 32 attempts or 4096 wait rounds).
    pub fn bounded() -> Self {
        TxnPolicy {
            deadline: Some(4096),
            max_retries: Some(32),
            boost_after: 4,
            serialize_after: 8,
            isolation: None,
        }
    }

    /// The heap-wide default policy implied by a configuration
    /// ([`StmConfig::deadline`] + [`StmConfig::retry_budget`]; escalation is
    /// per-block opt-in and stays off).
    pub fn from_config(config: &StmConfig) -> Self {
        TxnPolicy {
            deadline: config.deadline,
            max_retries: config.retry_budget,
            ..TxnPolicy::default()
        }
    }

    /// The same policy with a different deadline.
    pub fn with_deadline(self, deadline: u32) -> Self {
        TxnPolicy { deadline: Some(deadline), ..self }
    }

    /// The same policy with a different retry cap.
    pub fn with_max_retries(self, max_retries: u32) -> Self {
        TxnPolicy { max_retries: Some(max_retries), ..self }
    }

    /// The same policy running its block at `isolation` instead of the
    /// heap's level (see [`TxnPolicy::isolation`] for exactly what the
    /// override scopes).
    pub fn with_isolation(self, isolation: IsolationLevel) -> Self {
        TxnPolicy { isolation: Some(isolation), ..self }
    }
}

/// Overload-shedding admission control (see [`crate::heap::Heap`]).
///
/// The heap keeps a sliding window of attempt outcomes (commits + aborts).
/// Each time the window fills, the abort ratio over that window decides
/// whether admission *closes* (ratio above `reject_above_permille`) or
/// *reopens* (ratio back below `reopen_below_permille` — the gap between
/// the two thresholds is the hysteresis band that stops the gate from
/// flapping). While closed, new top-level transactions are rejected with
/// [`crate::txn::Abort::Overloaded`] before they touch any shared state —
/// a typed error the caller can queue or shed, never a hang. One in every
/// eight rejected candidates is admitted anyway as a probe so the window
/// keeps sampling live pressure and the gate can reopen as it drains.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub struct AdmissionConfig {
    /// Attempt outcomes per sliding window (minimum 16).
    pub window: u32,
    /// Close admission when the windowed abort ratio exceeds this (‰).
    pub reject_above_permille: u16,
    /// Reopen admission when the ratio falls back below this (‰). Must be
    /// below `reject_above_permille` for hysteresis to bite.
    pub reopen_below_permille: u16,
}

impl Default for AdmissionConfig {
    /// Close above 80% aborts over a 256-outcome window, reopen below 50%.
    fn default() -> Self {
        AdmissionConfig {
            window: 256,
            reject_above_permille: 800,
            reopen_below_permille: 500,
        }
    }
}

/// Top-level STM configuration, fixed at heap construction.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StmConfig {
    /// Eager or lazy version management.
    pub versioning: Versioning,
    /// Where conflict-detection records live: embedded per object, or in a
    /// TL2-style striped ownership-record table.
    pub granularity: Granularity,
    /// The isolation level the heap enforces (strong atomicity, snapshot
    /// isolation, or quiescence-only privatization). Weakening this trades
    /// anomaly-freedom for cheaper access paths; the litmus crate's
    /// isolation matrix pins exactly which §2 anomalies each level admits.
    pub isolation: IsolationLevel,
    /// Versioning granularity (§2.4 anomalies): how wide an undo-log /
    /// write-buffer entry is.
    pub version_granularity: VersionGranularity,
    /// Dynamic escape analysis (paper §4): objects are allocated *private*
    /// and published on escape; barriers take the private fast path.
    pub dea: bool,
    /// Commit-time quiescence (paper §3.4): a committing transaction waits
    /// until all concurrently running transactions reach a consistent state.
    pub quiescence: bool,
    /// Number of conflict-manager retries before a transaction aborts
    /// itself (prevents deadlock between transactions). Interpreted by the
    /// contention policy: [`ContentionPolicy::Backoff`] aborts exactly at
    /// this budget, [`ContentionPolicy::Karma`] scales it by the waiter's
    /// seniority, and [`ContentionPolicy::Aggressive`] ignores it.
    pub conflict_retries: u32,
    /// Which contention manager resolves conflicts (see
    /// [`crate::contention`] for the policies and their trade-offs).
    pub contention: ContentionPolicy,
    /// Record a [`crate::heap::RaceEvent`] whenever an isolation barrier
    /// detects a conflict with a transaction (paper §3.2: "conflicts could
    /// signal a race ... Isolation barriers can thus aid in debugging
    /// concurrent programs"). The conflict is still resolved normally.
    pub record_races: bool,
    /// Aggressive (per-access) read-set validation, as in TL2-style systems
    /// the paper cites (§3.4: "aggressive read-set validation [53, 18, 58]
    /// solves neither the general problems nor the privatization problem").
    /// Provided so the litmus suite can demonstrate exactly that claim.
    pub eager_validation: bool,
    /// Seeded deterministic fault injection (see [`crate::fault`]). `None`
    /// (the default) disables the machinery entirely.
    pub fault: Option<FaultPlan>,
    /// Stuck-owner watchdog: spin sites that exhaust the configured budget
    /// consult the holder's registry slot and reclaim records orphaned by
    /// dead owners (see [`crate::watchdog`]).
    pub watchdog: WatchdogConfig,
    /// Panic-safe atomic blocks: the runners catch unwinds escaping the user
    /// closure, roll the transaction back (undo log, record release,
    /// `on_abort` compensations), then resume the unwind. Disabling this
    /// models a crashed participant — records strand in `Exclusive` state
    /// until the watchdog reclaims them.
    pub panic_safety: bool,
    /// Multi-version read concurrency: committing writers install
    /// `(commit_stamp, value)` versions into a bounded per-field ring so
    /// read-only transactions ([`crate::txn::TxnKind::ReadOnly`]) read a
    /// consistent begin-time snapshot and commit wait-free — no validation,
    /// no locks, no aborts. Readers that outlive the ring (their snapshot is
    /// older than the oldest retained version) fall back to the ordinary
    /// validated path. Orthogonal to [`StmConfig::isolation`]; defaults to
    /// the `STM_MULTIVERSION` environment variable.
    pub multiversion: bool,
    /// Heap-wide default wait-round deadline for every atomic block (see
    /// [`TxnPolicy::deadline`]). `None` (the default) leaves blocks
    /// unbounded; per-block [`TxnPolicy`] overrides win.
    pub deadline: Option<u32>,
    /// Heap-wide default retry cap for every atomic block (see
    /// [`TxnPolicy::max_retries`]). `None` (the default) keeps today's
    /// unbounded re-execution loop.
    pub retry_budget: Option<u32>,
    /// Overload admission control. `None` (the default) admits every
    /// transaction unconditionally.
    pub admission: Option<AdmissionConfig>,
    /// How the global version clock hands out commit stamps (canonical TL2
    /// `Global`, or the GV5-style `ThreadLocal` contention fallback).
    /// Defaults to the `STM_CLOCK` environment variable. Note that
    /// [`crate::heap::Heap::new`] coerces `ThreadLocal` back to `Global` on
    /// a multi-version heap — in-order version publication needs the unique,
    /// gapless stamps only the global counter provides.
    pub clock: ClockMode,
}

/// The cached `STM_MULTIVERSION` environment default (`1`/`on`/`true`
/// enable), mirroring `STM_GRANULARITY`/`STM_ISOLATION` so a full test run
/// can be repeated with multiversion as the ambient default.
fn multiversion_env_default() -> bool {
    static ENV_DEFAULT: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *ENV_DEFAULT.get_or_init(|| {
        matches!(
            std::env::var("STM_MULTIVERSION").ok().as_deref(),
            Some("1") | Some("on") | Some("true") | Some("yes")
        )
    })
}

impl Default for StmConfig {
    fn default() -> Self {
        StmConfig {
            versioning: Versioning::Eager,
            granularity: Granularity::default(),
            isolation: IsolationLevel::default(),
            version_granularity: VersionGranularity::PerField,
            dea: false,
            quiescence: false,
            conflict_retries: 64,
            contention: ContentionPolicy::default(),
            record_races: false,
            eager_validation: false,
            fault: None,
            watchdog: WatchdogConfig::default(),
            panic_safety: true,
            multiversion: multiversion_env_default(),
            deadline: None,
            retry_budget: None,
            admission: None,
            clock: ClockMode::default(),
        }
    }
}

impl StmConfig {
    /// The paper's headline configuration: eager versioning with dynamic
    /// escape analysis enabled.
    pub fn strong_default() -> Self {
        StmConfig { dea: true, ..StmConfig::default() }
    }

    /// A lazy-versioning configuration (used by the §2.3 anomaly studies and
    /// the §3.3 ordering barrier).
    pub fn lazy() -> Self {
        StmConfig { versioning: Versioning::Lazy, ..StmConfig::default() }
    }

    /// The same configuration with a different contention policy.
    pub fn with_contention(self, contention: ContentionPolicy) -> Self {
        StmConfig { contention, ..self }
    }

    /// The same configuration with a different conflict-detection
    /// granularity.
    pub fn with_granularity(self, granularity: Granularity) -> Self {
        StmConfig { granularity, ..self }
    }

    /// The same configuration at a different isolation level. Note that
    /// [`crate::heap::Heap::new`] normalizes `QuiescencePrivatization` by
    /// forcing `quiescence` on — the level is *defined* by it.
    pub fn with_isolation(self, isolation: IsolationLevel) -> Self {
        StmConfig { isolation, ..self }
    }

    /// The same configuration with multi-version read concurrency toggled.
    pub fn with_multiversion(self, multiversion: bool) -> Self {
        StmConfig { multiversion, ..self }
    }

    /// The same configuration with a heap-wide wait-round deadline.
    pub fn with_deadline(self, deadline: u32) -> Self {
        StmConfig { deadline: Some(deadline), ..self }
    }

    /// The same configuration with a heap-wide retry cap.
    pub fn with_retry_budget(self, retry_budget: u32) -> Self {
        StmConfig { retry_budget: Some(retry_budget), ..self }
    }

    /// The same configuration with overload admission control enabled.
    pub fn with_admission(self, admission: AdmissionConfig) -> Self {
        StmConfig { admission: Some(admission), ..self }
    }

    /// The same configuration with a different version-clock mode.
    pub fn with_clock_mode(self, clock: ClockMode) -> Self {
        StmConfig { clock, ..self }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn granularity_spans() {
        assert_eq!(VersionGranularity::PerField.span(3, 8), 3..4);
        assert_eq!(VersionGranularity::Pair.span(3, 8), 2..4);
        assert_eq!(VersionGranularity::Pair.span(2, 8), 2..4);
        assert_eq!(VersionGranularity::Pair.span(0, 1), 0..1, "clamped at object end");
        assert_eq!(VersionGranularity::Pair.span(4, 5), 4..5);
    }

    #[test]
    fn granularity_labels() {
        assert_eq!(Granularity::PerObject.label(), "per-object");
        assert_eq!(Granularity::Striped { stripes: 64 }.label(), "striped:64");
        assert!(matches!(
            Granularity::striped_default(),
            Granularity::Striped { stripes: DEFAULT_STRIPES }
        ));
    }

    #[test]
    fn isolation_labels_and_axes() {
        assert_eq!(IsolationLevel::StrongAtomicity.label(), "strong");
        assert_eq!(IsolationLevel::SnapshotIsolation.label(), "snapshot");
        assert_eq!(IsolationLevel::QuiescencePrivatization.label(), "quiescence");
        assert!(!IsolationLevel::StrongAtomicity.snapshot_reads());
        assert!(!IsolationLevel::StrongAtomicity.elides_barriers());
        assert!(IsolationLevel::SnapshotIsolation.snapshot_reads());
        assert!(!IsolationLevel::SnapshotIsolation.elides_barriers());
        assert!(!IsolationLevel::QuiescencePrivatization.snapshot_reads());
        assert!(IsolationLevel::QuiescencePrivatization.elides_barriers());
        assert_eq!(IsolationLevel::ALL.len(), 3);
    }

    #[test]
    fn with_isolation_builder() {
        let c = StmConfig::default().with_isolation(IsolationLevel::SnapshotIsolation);
        assert_eq!(c.isolation, IsolationLevel::SnapshotIsolation);
        // The rest of the config is untouched.
        assert_eq!(c.versioning, StmConfig::default().versioning);
    }

    #[test]
    fn with_multiversion_builder() {
        let c = StmConfig::default().with_multiversion(true);
        assert!(c.multiversion);
        assert!(!c.with_multiversion(false).multiversion);
    }

    #[test]
    fn default_policy_is_fully_permissive() {
        let p = TxnPolicy::default();
        assert_eq!(p.deadline, None);
        assert_eq!(p.max_retries, None);
        assert_eq!(p.boost_after, u32::MAX);
        assert_eq!(p.serialize_after, u32::MAX);
        // A default config implies the default (permissive) policy.
        assert_eq!(TxnPolicy::from_config(&StmConfig::default()), p);
    }

    #[test]
    fn policy_from_config_picks_up_heap_defaults() {
        let cfg = StmConfig::default().with_deadline(7).with_retry_budget(3);
        let p = TxnPolicy::from_config(&cfg);
        assert_eq!(p.deadline, Some(7));
        assert_eq!(p.max_retries, Some(3));
        // Escalation stays per-block opt-in.
        assert_eq!(p.serialize_after, u32::MAX);
    }

    #[test]
    fn bounded_policy_arms_everything() {
        let p = TxnPolicy::bounded();
        assert!(p.deadline.is_some() && p.max_retries.is_some());
        assert!(p.boost_after < p.serialize_after);
        assert!(p.serialize_after < u32::MAX);
        assert_eq!(p.with_deadline(9).deadline, Some(9));
        assert_eq!(p.with_max_retries(9).max_retries, Some(9));
    }

    #[test]
    fn admission_defaults_have_hysteresis() {
        let a = AdmissionConfig::default();
        assert!(a.reopen_below_permille < a.reject_above_permille);
        assert!(a.window >= 16);
        assert_eq!(StmConfig::default().admission, None);
        assert_eq!(
            StmConfig::default().with_admission(a).admission,
            Some(a)
        );
    }

    #[test]
    fn clock_mode_labels_and_builder() {
        assert_eq!(ClockMode::Global.label(), "global");
        assert_eq!(ClockMode::ThreadLocal.label(), "thread-local");
        assert_eq!(ClockMode::ALL.len(), 2);
        let c = StmConfig::default().with_clock_mode(ClockMode::ThreadLocal);
        assert_eq!(c.clock, ClockMode::ThreadLocal);
        assert_eq!(c.versioning, StmConfig::default().versioning);
    }

    #[test]
    fn policy_isolation_override_is_opt_in() {
        assert_eq!(TxnPolicy::default().isolation, None);
        let p = TxnPolicy::default().with_isolation(IsolationLevel::SnapshotIsolation);
        assert_eq!(p.isolation, Some(IsolationLevel::SnapshotIsolation));
        // The rest of the policy is untouched.
        assert_eq!(p.deadline, None);
        assert_eq!(p.serialize_after, u32::MAX);
    }

    #[test]
    fn barrier_mode_axes() {
        assert!(!BarrierMode::Weak.reads() && !BarrierMode::Weak.writes());
        assert!(BarrierMode::Strong.reads() && BarrierMode::Strong.writes());
        assert!(BarrierMode::ReadOnly.reads() && !BarrierMode::ReadOnly.writes());
        assert!(!BarrierMode::WriteOnly.reads() && BarrierMode::WriteOnly.writes());
    }
}
