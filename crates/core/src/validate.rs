//! Design-time RTSJ conformance validation (the feedback loop of Fig. 3).
//!
//! [`validate`] runs every rule the paper names against an
//! [`Architecture`] and returns a [`ValidationReport`] of structured
//! [`Diagnostic`]s. Rules marked *Error* make the architecture
//! non-compliant ([`ValidationReport::is_compliant`] is false); *Warning*
//! and *Info* diagnostics are advice — including, for every cross-area
//! binding, the [`CrossScopePattern`] the generated memory interceptor will
//! implement (the paper's "guidance for implementations of interfaces that
//! cross different concerns").
//!
//! [`is_compliant`] gives the same verdict without the report, and
//! [`is_compliant_in`] gives it on a facts table whose storage the caller
//! keeps between passes. Every entry point runs one rule pass, and each
//! rule is written once:
//!
//! * the pass first builds a facts table — every component's ThreadDomain
//!   ancestors (how many, the nearest, and the nearest NHRT one) and
//!   MemoryArea ancestors — from one upward walk per component, and the
//!   rules read the table instead of walking the hierarchy per question;
//! * each finding reaches a sink as its code, its severity and a closure
//!   that renders its text. [`validate`]'s sink renders every finding into
//!   the report; [`is_compliant`]'s renders none and stops the pass at the
//!   first *Error*, so a compliant architecture costs no diagnostic text.
//!   The advisory rules whose test reads past the component or binding
//!   they visit (SOL-007, SOL-009, SOL-013's unbound check, SOL-014) ask
//!   the sink first, so a verdict never runs them.
//!
//! # The scoped verdict
//!
//! [`is_compliant_after`] is the check a live reconfiguration's commit
//! runs, on storage its deployment keeps, so a warm commit allocates
//! nothing. It re-checks only what an edit could have changed, and its
//! precondition is that the architecture was compliant before the edit.
//! A reconfiguration edits the architecture in two ways only: it points
//! a binding at another server ([`Architecture::rebind_server`]), and it
//! moves the containment edge into one component `m` from one
//! ThreadDomain to another. Moving an edge into `m` changes only `m`'s
//! parents, so a component's upward walk can change only if the component
//! is `m` or lies below `m` in the edited architecture: on any walk that
//! changed, the lowest changed edge enters some moved `m`, and the
//! unchanged edges below it still lead from the component up to `m`.
//!
//! The *Error* rules read the following:
//!
//! * SOL-001, SOL-002, SOL-003 and SOL-004: a component's ancestry (and
//!   SOL-004 that of the areas on it, which lie above the component);
//! * SOL-006: a binding's protocol, its client's ancestry and its server's;
//! * SOL-005, SOL-010 and SOL-013's duplicate-client check: nothing an
//!   edit writes.
//!
//! So an architecture that was compliant before the edit is compliant
//! after it exactly when no *Error* rule fires on the edit's scope: every
//! moved component and its descendants, and every binding that was
//! rebound or has an endpoint among them. The scoped pass visits only
//! those, builds facts rows only for them, for the endpoints of the
//! synchronous bindings among them (SOL-006 reads no others) and for the
//! areas SOL-004 compares, and runs the same rules as the full pass. An
//! edit that moved nothing and rebound nothing runs no rule and no walk.
//!
//! | Code | Severity | Rule |
//! |------|----------|------|
//! | SOL-001 | Error | every active component lies in exactly one ThreadDomain |
//! | SOL-002 | Error | ThreadDomains are never nested in ThreadDomains |
//! | SOL-003 | Error | an NHRT ThreadDomain never encapsulates heap memory |
//! | SOL-004 | Error | every functional component has an unambiguous memory area |
//! | SOL-005 | Error | domain priorities match their thread class |
//! | SOL-006 | Error | no synchronous call from an NHRT domain into heap data |
//! | SOL-007 | Info  | cross-area bindings: pattern selection |
//! | SOL-008 | Warning | bindings into active servers should be asynchronous |
//! | SOL-009 | Warning | sporadic actives need an incoming async binding |
//! | SOL-010 | Error | async buffers have non-zero capacity |
//! | SOL-011 | Warning | bounded areas declare sizes, heap does not |
//! | SOL-012 | Warning | passive components directly inside a ThreadDomain |
//! | SOL-013 | Error/Warning | client interfaces bound at most once / left unbound |
//! | SOL-014 | Info | shared passive services get a priority ceiling |
//! | SOL-015 | Info | constructs serializing ThreadDomains into one parallel shard ([`parallel_coupling`], advisory — not run by [`validate`]) |
//! | SOL-016 | Error | runtime contract: observed deadline misses ([`crate::contract`], online — not run by [`validate`]) |
//! | SOL-017 | Error | runtime contract: observed jitter beyond the contracted bound ([`crate::contract`], online) |
//! | SOL-018 | Error | runtime contract: observed throughput below the contracted floor ([`crate::contract`], online) |
//! | SOL-019 | Error | runtime contract: observed latency quantile beyond its bound ([`crate::contract`], online) |
//! | SOL-020 | Error | runtime supervision: component quarantined after a contained fault (online — emitted by the runtime's `health_report`) |
//! | SOL-021 | Error | runtime supervision: restart budget exhausted, fault escalated (online) |
//! | SOL-022 | Warning | runtime supervision: messages to quarantined components counted-dropped (online) |

use std::borrow::Cow;
use std::fmt;
use std::ops::{ControlFlow, Range};

use rtsj::memory::MemoryKind;
use rtsj::thread::{Priority, ThreadKind};

use crate::arch::Architecture;
use crate::model::{
    Binding, Component, ComponentId, ComponentKind, MemoryAreaDesc, Protocol, Role,
    ThreadDomainDesc,
};

/// Diagnostic severity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory (e.g. the selected communication pattern).
    Info,
    /// Suspicious but not RTSJ-violating.
    Warning,
    /// RTSJ violation: the architecture must be fixed.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        })
    }
}

/// The cross-scope communication pattern a binding requires, drawn from the
/// published RTSJ pattern catalogs the paper cites.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CrossScopePattern {
    /// Same area, or server data lives in heap/immortal: plain reference.
    Direct,
    /// Server lives in an *enclosing* area: run via `executeInArea`.
    ExecuteInOuter,
    /// Server lives in a *nested* scope: enter it and use its portal.
    EnterInner,
    /// Sibling scopes, synchronous: deep-copy arguments through the common
    /// parent ("handoff" / "memory block").
    HandoffThroughParent,
    /// Unrelated areas, asynchronous: exchange buffer in immortal memory.
    ImmortalExchange,
}

impl fmt::Display for CrossScopePattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CrossScopePattern::Direct => "direct",
            CrossScopePattern::ExecuteInOuter => "execute-in-outer",
            CrossScopePattern::EnterInner => "enter-inner",
            CrossScopePattern::HandoffThroughParent => "handoff-through-parent",
            CrossScopePattern::ImmortalExchange => "immortal-exchange",
        })
    }
}

/// One validation finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Stable rule code (`SOL-001` …).
    pub code: &'static str,
    /// Severity class.
    pub severity: Severity,
    /// Name of the component or binding the finding concerns.
    pub subject: String,
    /// Human-readable description.
    pub message: String,
    /// Suggested remediation or pattern, when the rule has one.
    pub suggestion: Option<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[{}] {} ({}): {}",
            self.code, self.severity, self.subject, self.message
        )?;
        if let Some(s) = &self.suggestion {
            write!(f, " — suggestion: {s}")?;
        }
        Ok(())
    }
}

/// The outcome of validating an architecture.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ValidationReport {
    diagnostics: Vec<Diagnostic>,
}

impl ValidationReport {
    /// All findings, in rule order.
    pub fn diagnostics(&self) -> &[Diagnostic] {
        &self.diagnostics
    }

    /// Findings at exactly `severity`.
    pub fn with_severity(&self, severity: Severity) -> impl Iterator<Item = &Diagnostic> {
        self.diagnostics
            .iter()
            .filter(move |d| d.severity == severity)
    }

    /// True when no *Error* findings exist — the paper's "compliant with
    /// RTSJ" verdict.
    pub fn is_compliant(&self) -> bool {
        self.with_severity(Severity::Error).next().is_none()
    }

    /// Number of findings.
    pub fn len(&self) -> usize {
        self.diagnostics.len()
    }

    /// True when there are no findings at all.
    pub fn is_empty(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Findings with the given rule code.
    pub fn by_code<'a>(&'a self, code: &'a str) -> impl Iterator<Item = &'a Diagnostic> + 'a {
        self.diagnostics.iter().filter(move |d| d.code == code)
    }

    /// Appends one finding. [`Diagnostic`] fields are public precisely so
    /// online checkers (the runtime contract machinery in
    /// [`crate::contract`]) can surface verdicts through the same report
    /// type the design-time validator uses.
    pub fn append(&mut self, diagnostic: Diagnostic) {
        self.diagnostics.push(diagnostic);
    }

    /// Absorbs every finding of `other`, preserving order — used to fold
    /// per-component contract verdicts into one system-wide report.
    pub fn merge(&mut self, other: ValidationReport) {
        self.diagnostics.extend(other.diagnostics);
    }

    fn push(
        &mut self,
        code: &'static str,
        severity: Severity,
        subject: impl Into<String>,
        message: impl Into<String>,
        suggestion: Option<String>,
    ) {
        self.diagnostics.push(Diagnostic {
            code,
            severity,
            subject: subject.into(),
            message: message.into(),
            suggestion,
        });
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.diagnostics.is_empty() {
            return writeln!(f, "architecture is RTSJ-compliant (no findings)");
        }
        for d in &self.diagnostics {
            writeln!(f, "{d}")?;
        }
        Ok(())
    }
}

/// An [`Architecture`] the validator has accepted — the design-time
/// conformance witness the rest of the toolchain keys on.
///
/// The paper's contract is that RTSJ conformance is established *before*
/// generation, so the generator and runtime can trust their input. This
/// type carries that fact in the type system: `compile`/`deploy`
/// take `&ValidatedArchitecture`, and the only ways to obtain one are
/// [`validate_into`] / [`Architecture::into_validated`] (which run every
/// rule) or the explicit [`ValidatedArchitecture::assume_valid`] escape
/// hatch.
///
/// Dereferences to [`Architecture`] for read-only queries; there is no
/// mutable access — editing requires [`into_inner`](Self::into_inner) and
/// re-validation, so a witness can never silently go stale.
#[derive(Debug, Clone)]
pub struct ValidatedArchitecture {
    arch: Architecture,
    report: ValidationReport,
}

impl ValidatedArchitecture {
    /// Wraps `arch` *without* running the validator — the explicit escape
    /// hatch for callers that have established conformance by other means
    /// (e.g. loading a previously validated, trusted artifact).
    ///
    /// The RTSJ rules are **not** checked; a non-compliant architecture
    /// smuggled through here surfaces later as generator/runtime errors
    /// (or as refused substrate operations), exactly like unchecked input
    /// did before this witness existed. The attached report is empty.
    pub fn assume_valid(arch: Architecture) -> Self {
        ValidatedArchitecture {
            arch,
            report: ValidationReport::default(),
        }
    }

    /// The report the validator produced when this witness was created
    /// (advisory warnings/infos included; empty for
    /// [`assume_valid`](Self::assume_valid)).
    pub fn report(&self) -> &ValidationReport {
        &self.report
    }

    /// Read-only access to the underlying architecture (also available
    /// through `Deref`).
    pub fn architecture(&self) -> &Architecture {
        &self.arch
    }

    /// Unwraps the architecture, discarding the witness — the only way to
    /// mutate it again.
    pub fn into_inner(self) -> Architecture {
        self.arch
    }
}

impl std::ops::Deref for ValidatedArchitecture {
    type Target = Architecture;

    fn deref(&self) -> &Architecture {
        &self.arch
    }
}

impl AsRef<Architecture> for ValidatedArchitecture {
    fn as_ref(&self) -> &Architecture {
        &self.arch
    }
}

/// A consuming validation that failed: the refused architecture is handed
/// back together with the full report, so callers can fix and retry.
#[derive(Debug, Clone)]
pub struct RejectedArchitecture {
    /// The architecture the validator refused, returned to the caller.
    pub architecture: Architecture,
    /// Every finding, including the blocking errors.
    pub report: ValidationReport,
}

impl fmt::Display for RejectedArchitecture {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "architecture '{}' violates RTSJ:\n{}",
            self.architecture.name, self.report
        )
    }
}

impl std::error::Error for RejectedArchitecture {}

/// The consuming form of [`validate`]: runs every rule and returns the
/// [`ValidatedArchitecture`] witness on success, or the architecture plus
/// its report on refusal.
///
/// # Errors
///
/// [`RejectedArchitecture`] (boxed — it carries the whole architecture
/// back) when the report contains `Error` findings.
pub fn validate_into(
    arch: Architecture,
) -> Result<ValidatedArchitecture, Box<RejectedArchitecture>> {
    let report = validate(&arch);
    if report.is_compliant() {
        Ok(ValidatedArchitecture { arch, report })
    } else {
        Err(Box::new(RejectedArchitecture {
            architecture: arch,
            report,
        }))
    }
}

impl Architecture {
    /// Method form of [`validate_into`]: consumes the architecture and
    /// returns the conformance witness.
    ///
    /// # Errors
    ///
    /// [`RejectedArchitecture`] when the validator finds RTSJ violations.
    pub fn into_validated(self) -> Result<ValidatedArchitecture, Box<RejectedArchitecture>> {
        validate_into(self)
    }
}

/// Runs every conformance rule against `arch` and renders every finding.
pub fn validate(arch: &Architecture) -> ValidationReport {
    let mut report = ValidationReport::default();
    let mut storage = FactsStorage::default();
    let (facts, walk) = Facts::build(arch, &mut storage);
    // A report keeps every finding, so it never stops the pass.
    let _ = rules(&facts, walk, &mut report);
    report
}

/// The verdict of [`validate`] without its report: true when no rule finds
/// an *Error*, exactly when `validate(arch).is_compliant()`. The same rule
/// pass runs, but no finding is rendered and the pass stops at the first
/// *Error*.
pub fn is_compliant(arch: &Architecture) -> bool {
    is_compliant_in(arch, &mut FactsStorage::default())
}

/// [`is_compliant`] with its facts table built in `storage`, which keeps
/// its capacity for the next pass: once the storage has held a table as
/// large as `arch`'s, the verdict allocates nothing.
pub fn is_compliant_in(arch: &Architecture, storage: &mut FactsStorage) -> bool {
    let (facts, walk) = Facts::build(arch, storage);
    rules(&facts, walk, &mut Verdict).is_continue()
}

/// The scoped verdict (see the [module docs](self#the-scoped-verdict)):
/// [`is_compliant_in`] for an architecture that was compliant before an
/// edit which moved the containment edges into the components `moved`
/// from one ThreadDomain to another and pointed the bindings at the
/// indices `rebound` at other servers, and changed nothing else. Under
/// that precondition it equals `is_compliant(arch)`, but the rules visit
/// only the moved components, their descendants and the bindings the edit
/// touched, so its cost follows the size of the edit, not of `arch`. An
/// edit that moved nothing and rebound nothing runs no rule and no walk.
/// Like [`is_compliant_in`], it allocates nothing once `storage` has held
/// a pass of the same size.
///
/// Without the precondition the answer means nothing: a violation outside
/// the edit's scope goes unseen.
///
/// # Panics
///
/// When an id in `moved` is not a component of `arch`, or an index in
/// `rebound` not one of its bindings.
pub fn is_compliant_after(
    arch: &Architecture,
    moved: &[ComponentId],
    rebound: &[usize],
    storage: &mut FactsStorage,
) -> bool {
    if moved.is_empty() && rebound.is_empty() {
        return true;
    }
    let (facts, walk) = Facts::build_touched(arch, storage, moved, rebound);
    rules(&facts, walk, &mut Verdict).is_continue()
}

/// Computes the cross-scope pattern a binding needs, from the client's and
/// server's *effective* memory areas. Returns `None` when either endpoint
/// has no memory area assigned yet (pure business view).
pub fn cross_scope_pattern(arch: &Architecture, binding: &Binding) -> Option<CrossScopePattern> {
    let (client, c_desc) = arch.memory_area_of(binding.client.component)?;
    let (server, s_desc) = arch.memory_area_of(binding.server.component)?;
    Some(pattern_between(
        (client, c_desc.kind),
        (server, s_desc.kind),
        binding.protocol.is_async(),
        |outer, inner| arch.is_reachable(outer, inner),
    ))
}

/// The one rule that picks a binding's cross-scope pattern, from the
/// client's and the server's effective areas with their kinds, and
/// whether the binding is asynchronous. `encloses(outer, inner)` tells
/// whether area `outer` encloses the distinct area `inner`.
///
/// Generic over the area identifier: the validator decides over the
/// architecture's area components, and a running engine recompiling a
/// binding row decides over its own areas, so a pattern chosen at design
/// time and one chosen again at runtime for the same placement agree.
pub fn pattern_between<A: Copy + PartialEq>(
    (client, client_kind): (A, MemoryKind),
    (server, server_kind): (A, MemoryKind),
    asynchronous: bool,
    encloses: impl Fn(A, A) -> bool,
) -> CrossScopePattern {
    if client == server {
        return CrossScopePattern::Direct;
    }
    // Server data in heap or immortal is referenceable from anywhere.
    if matches!(server_kind, MemoryKind::Heap | MemoryKind::Immortal) {
        return CrossScopePattern::Direct;
    }
    // Server is scoped. A client outside scoped memory (heap/immortal)
    // reaches it by entering the scope chain from the primordial root.
    if !matches!(client_kind, MemoryKind::Scoped) {
        return CrossScopePattern::EnterInner;
    }
    // Both scoped: relation of the two area components in the DAG decides.
    if encloses(server, client) {
        // Server area encloses the client's: outward reference is legal.
        return CrossScopePattern::ExecuteInOuter;
    }
    if encloses(client, server) {
        // Server area nested inside the client's.
        return CrossScopePattern::EnterInner;
    }
    if asynchronous {
        CrossScopePattern::ImmortalExchange
    } else {
        CrossScopePattern::HandoffThroughParent
    }
}

/// The priority ceiling of a passive component, when it is a *shared
/// service*: invoked synchronously from clients in two or more distinct
/// ThreadDomains. RTSJ protects such monitors with priority-ceiling
/// emulation; the ceiling is the highest client priority. Returns `None`
/// for unshared or non-passive components.
pub fn shared_service_ceiling(arch: &Architecture, id: ComponentId) -> Option<u8> {
    ceiling_in(arch, id, |client| arch.thread_domain_of(client))
}

/// [`shared_service_ceiling`] over the architecture, where `domain_of`
/// answers [`Architecture::thread_domain_of`].
fn ceiling_in(
    arch: &Architecture,
    id: ComponentId,
    domain_of: impl Fn(ComponentId) -> Option<(ComponentId, ThreadDomainDesc)>,
) -> Option<u8> {
    let passive = matches!(arch.component(id).ok()?.kind, ComponentKind::Passive);
    let callers = arch
        .bindings()
        .iter()
        .filter(|b| b.server.component == id && !b.protocol.is_async())
        .filter_map(|b| domain_of(b.client.component).map(|(d, desc)| (d, desc.priority)));
    service_ceiling(passive, callers)
}

/// The one rule that decides a priority ceiling: a passive component whose
/// synchronous `callers` — the ThreadDomain and priority of each caller
/// that has one — span two or more domains gets the highest caller
/// priority; any other component gets none.
///
/// Generic over the domain identifier, like [`pattern_between`]: the
/// validator decides over the architecture's domain components, and a
/// running deployment's plan over its own domains, so the ceiling a fresh
/// deploy assigns and the one a reconfigured deployment reports agree.
pub fn service_ceiling<D: Copy + PartialEq>(
    passive: bool,
    callers: impl IntoIterator<Item = (D, u8)>,
) -> Option<u8> {
    if !passive {
        return None;
    }
    // Two distinct domains exist exactly when one differs from the first.
    let mut first = None;
    let mut shared = false;
    let mut ceiling = 0u8;
    for (d, priority) in callers {
        shared |= *first.get_or_insert(d) != d;
        ceiling = ceiling.max(priority);
    }
    shared.then_some(ceiling)
}

/// The parallel-sharding advisory (rule **SOL-015**, informational, not
/// part of [`validate`]): reports every construct that *serializes* a pair
/// of ThreadDomains into one engine shard under the parallel runtime —
/// the design-time mirror of the deploy-time partition
/// (`soleil_runtime::parallel`).
///
/// Two couplings exist:
///
/// * a **synchronous binding** whose endpoints are governed by different
///   ThreadDomains (a nested run-to-completion call cannot cross OS
///   threads), and
/// * a **shared scoped memory area**: a scope is owned by exactly one
///   engine, so domains whose components stand in the same scoped area
///   tick together.
///
/// Couplings compose transitively (a passive service called synchronously
/// from two domains serializes both, even though the passive itself has no
/// domain): the advisory unions components over synchronous bindings and
/// shared scoped areas, then reports every group that captured more than
/// one ThreadDomain, alongside the precise per-binding and per-area
/// findings.
///
/// An empty report means every ThreadDomain can tick on its own OS
/// thread. Each finding suggests the asynchronous/replicated alternative
/// that would decouple the pair.
pub fn parallel_coupling(arch: &Architecture) -> ValidationReport {
    let mut report = ValidationReport::default();
    let domain_of = |id: ComponentId| arch.thread_domain_of(id).map(|(d, _)| d);
    // A component stands in *every* scoped area on its ancestry, not just
    // the innermost one — the deploy-time planner walks the same chain,
    // so nesting must couple here exactly as it shards there.
    let stands_in = |comp: ComponentId, area: ComponentId| {
        arch.memory_areas_of(comp).iter().any(|&a| {
            a == area
                && matches!(
                    arch.component(a).map(|c| &c.kind),
                    Ok(ComponentKind::MemoryArea(d)) if d.kind == MemoryKind::Scoped
                )
        })
    };

    for b in arch.bindings() {
        if b.protocol != Protocol::Synchronous {
            continue;
        }
        let (cd, sd) = (domain_of(b.client.component), domain_of(b.server.component));
        if let (Some(cd), Some(sd)) = (cd, sd) {
            if cd != sd {
                report.push(
                    "SOL-015",
                    Severity::Info,
                    format!("{}.{}", name(arch, b.client.component), b.client.interface),
                    format!(
                        "synchronous binding into '{}' serializes ThreadDomains '{}' and '{}' \
                         into one engine shard",
                        name(arch, b.server.component),
                        name(arch, cd),
                        name(arch, sd)
                    ),
                    Some(
                        "make the binding asynchronous (bounded buffer) to let the domains \
                         tick on separate engine shards"
                            .into(),
                    ),
                );
            }
        }
    }

    // Scoped areas hosting components of more than one domain.
    for area in arch.components() {
        let ComponentKind::MemoryArea(desc) = &area.kind else {
            continue;
        };
        if desc.kind != MemoryKind::Scoped {
            continue;
        }
        let mut domains: Vec<ComponentId> = Vec::new();
        for c in arch.components() {
            if c.kind.is_functional() && stands_in(c.id(), area.id()) {
                if let Some(d) = domain_of(c.id()) {
                    if !domains.contains(&d) {
                        domains.push(d);
                    }
                }
            }
        }
        if domains.len() > 1 {
            let names: Vec<_> = domains.iter().map(|&d| name(arch, d)).collect();
            report.push(
                "SOL-015",
                Severity::Info,
                &area.name,
                format!(
                    "scoped memory area shared by ThreadDomains {}: one engine must own the \
                     scope, so these domains tick together",
                    names.join(", ")
                ),
                Some(
                    "give each domain its own scoped area (communicate by handoff or \
                     asynchronous exchange) to unlock parallel ticking"
                        .into(),
                ),
            );
        }
    }

    // Transitive serialization: union business components over synchronous
    // bindings and shared scoped areas, then flag every group that
    // captured more than one ThreadDomain (catches passive chains the
    // per-binding pass above cannot see).
    let comps: Vec<ComponentId> = arch
        .components()
        .iter()
        .filter(|c| c.kind.is_functional())
        .map(|c| c.id())
        .collect();
    let ix_of = |id: ComponentId| comps.iter().position(|&c| c == id);
    let mut uf = crate::disjoint::UnionFind::new(comps.len());
    for b in arch.bindings() {
        if b.protocol == Protocol::Synchronous {
            if let (Some(c), Some(s)) = (ix_of(b.client.component), ix_of(b.server.component)) {
                uf.union(c, s);
            }
        }
    }
    for area in arch.components() {
        if !matches!(&area.kind, ComponentKind::MemoryArea(d) if d.kind == MemoryKind::Scoped) {
            continue;
        }
        let residents: Vec<usize> = comps
            .iter()
            .enumerate()
            .filter(|(_, &c)| stands_in(c, area.id()))
            .map(|(i, _)| i)
            .collect();
        for w in residents.windows(2) {
            uf.union(w[0], w[1]);
        }
    }
    let mut domains_of_group: std::collections::HashMap<usize, Vec<ComponentId>> =
        std::collections::HashMap::new();
    for (i, &comp) in comps.iter().enumerate() {
        if let Some(d) = domain_of(comp) {
            let root = uf.find(i);
            let ds = domains_of_group.entry(root).or_default();
            if !ds.contains(&d) {
                ds.push(d);
            }
        }
    }
    let mut groups: Vec<_> = domains_of_group
        .into_iter()
        .filter(|(_, ds)| ds.len() > 1)
        .collect();
    groups.sort_by_key(|(root, _)| *root);
    for (root, ds) in groups {
        let names: Vec<_> = ds.iter().map(|&d| name(arch, d)).collect();
        report.push(
            "SOL-015",
            Severity::Info,
            name(arch, comps[root]),
            format!(
                "ThreadDomains {} are serialized into one engine shard (coupled through \
                 synchronous calls and/or shared scoped memory)",
                names.join(", ")
            ),
            Some(
                "decouple with asynchronous bindings and per-domain scoped areas to let \
                 each domain tick on its own engine shard"
                    .into(),
            ),
        );
    }
    report
}

/// A finding's text: what it concerns, what is wrong, and the suggested
/// fix. The rule pass hands it to a [`Sink`] as a closure, so only a sink
/// that keeps the text renders it.
struct Text {
    subject: String,
    message: String,
    suggestion: Option<String>,
}

impl Text {
    fn new(subject: impl Into<String>, message: impl Into<String>) -> Text {
        Text {
            subject: subject.into(),
            message: message.into(),
            suggestion: None,
        }
    }

    fn suggest(self, suggestion: impl Into<String>) -> Text {
        Text {
            suggestion: Some(suggestion.into()),
            ..self
        }
    }
}

/// Where the rule pass hands its findings, in report order.
/// [`ControlFlow::Break`] ends the pass.
trait Sink {
    /// Whether findings of `severity` matter to the sink. An advisory rule
    /// whose test reads past the component or binding it visits asks
    /// first, and skips its test when they do not.
    fn keeps(&self, severity: Severity) -> bool;

    fn emit(
        &mut self,
        code: &'static str,
        severity: Severity,
        text: impl FnOnce() -> Text,
    ) -> ControlFlow<()>;
}

/// [`validate`]'s sink: every finding, rendered.
impl Sink for ValidationReport {
    fn keeps(&self, _severity: Severity) -> bool {
        true
    }

    fn emit(
        &mut self,
        code: &'static str,
        severity: Severity,
        text: impl FnOnce() -> Text,
    ) -> ControlFlow<()> {
        let Text {
            subject,
            message,
            suggestion,
        } = text();
        self.push(code, severity, subject, message, suggestion);
        ControlFlow::Continue(())
    }
}

/// [`is_compliant`]'s sink: renders nothing and stops at the first *Error*.
struct Verdict;

impl Sink for Verdict {
    fn keeps(&self, severity: Severity) -> bool {
        severity == Severity::Error
    }

    fn emit(
        &mut self,
        _code: &'static str,
        severity: Severity,
        _text: impl FnOnce() -> Text,
    ) -> ControlFlow<()> {
        if severity == Severity::Error {
            ControlFlow::Break(())
        } else {
            ControlFlow::Continue(())
        }
    }
}

/// Storage for the facts table of a rule pass (see [`is_compliant_in`]):
/// each pass rebuilds the table in it, keeping the capacity earlier passes
/// grew.
#[derive(Debug, Default)]
pub struct FactsStorage {
    rows: Vec<Row>,
    areas: Vec<ComponentId>,
    /// The scratch every hierarchy walk of the pass runs in.
    walk: Vec<ComponentId>,
    /// A scoped pass's components: the moved ones and their descendants.
    components: Vec<ComponentId>,
    /// A scoped pass's bindings: the rebound ones and those with an
    /// endpoint among its components.
    bindings: Vec<usize>,
    /// The components whose rows a scoped pass built.
    built: Vec<ComponentId>,
}

/// What the rules ask of the containment hierarchy, answered for every
/// component the pass reads by one upward walk each.
struct Facts<'a> {
    arch: &'a Architecture,
    /// One row per component, indexed by id.
    rows: &'a [Row],
    /// Every built row's MemoryArea ancestors, nearest first, one run per
    /// row.
    areas: &'a [ComponentId],
    /// What a scoped pass visits; `None` when the pass visits everything.
    scope: Option<Scope<'a>>,
}

/// The part of the architecture a scoped pass visits, and the rows it
/// built: those of its components, of its synchronous bindings'
/// endpoints (a verdict reads no other binding's) and of the areas
/// SOL-004 compares. Every other row is left from an earlier pass and is
/// never read.
#[derive(Clone, Copy)]
struct Scope<'a> {
    components: &'a [ComponentId],
    bindings: &'a [usize],
    built: &'a [ComponentId],
}

/// One component's ancestry.
#[derive(Debug, Clone, Default)]
struct Row {
    /// How many ThreadDomains are its ancestors.
    domains: usize,
    /// The nearest of them.
    domain: Option<(ComponentId, ThreadDomainDesc)>,
    /// The nearest NHRT one.
    nhrt: Option<ComponentId>,
    /// Its run of [`Facts::areas`].
    areas: Range<usize>,
}

impl Row {
    /// Walks up from `id` in `walk` and appends its MemoryArea ancestors,
    /// nearest first, to `areas`.
    fn walk(
        arch: &Architecture,
        id: ComponentId,
        walk: &mut Vec<ComponentId>,
        areas: &mut Vec<ComponentId>,
    ) -> Row {
        arch.ancestors_into(id, walk);
        let start = areas.len();
        let mut row = Row {
            areas: start..start,
            ..Row::default()
        };
        for &a in walk.iter() {
            match kind(arch, a) {
                ComponentKind::ThreadDomain(desc) => {
                    row.domains += 1;
                    row.domain.get_or_insert((a, desc));
                    if desc.kind == ThreadKind::NoHeapRealtime {
                        row.nhrt.get_or_insert(a);
                    }
                }
                ComponentKind::MemoryArea(_) => areas.push(a),
                _ => {}
            }
        }
        row.areas.end = areas.len();
        row
    }
}

impl<'a> Facts<'a> {
    /// Walks up from every component once, each walk into the storage's
    /// scratch, and builds the table in the storage. Returns the table and
    /// the scratch, free for the rules' own walks.
    fn build(
        arch: &'a Architecture,
        storage: &'a mut FactsStorage,
    ) -> (Self, &'a mut Vec<ComponentId>) {
        let FactsStorage {
            rows, areas, walk, ..
        } = storage;
        rows.clear();
        rows.reserve(arch.components().len());
        areas.clear();
        areas.reserve(arch.components().len());
        for c in arch.components() {
            rows.push(Row::walk(arch, c.id(), walk, areas));
        }
        let facts = Facts {
            arch,
            rows,
            areas,
            scope: None,
        };
        (facts, walk)
    }

    /// The table of a scoped pass over the edit that moved the edges into
    /// `moved` and rebound the bindings `rebound`: collects the pass's
    /// components and bindings, then walks up only from the components
    /// whose rows the rules read on them.
    fn build_touched(
        arch: &'a Architecture,
        storage: &'a mut FactsStorage,
        moved: &[ComponentId],
        rebound: &[usize],
    ) -> (Self, &'a mut Vec<ComponentId>) {
        let FactsStorage {
            rows,
            areas,
            walk,
            components,
            bindings,
            built,
        } = storage;
        components.clear();
        for &m in moved {
            arch.descendants_into(m, walk);
            for &c in std::iter::once(&m).chain(walk.iter()) {
                if !components.contains(&c) {
                    components.push(c);
                }
            }
        }
        bindings.clear();
        for (ix, b) in arch.bindings().iter().enumerate() {
            if rebound.contains(&ix)
                || components.contains(&b.client.component)
                || components.contains(&b.server.component)
            {
                bindings.push(ix);
            }
        }

        rows.resize_with(arch.components().len(), Row::default);
        areas.clear();
        built.clear();
        let mut build = |id: ComponentId, rows: &mut [Row], areas: &mut Vec<ComponentId>| {
            if !built.contains(&id) {
                rows[id.0 as usize] = Row::walk(arch, id, walk, areas);
                built.push(id);
            }
        };
        for &c in components.iter() {
            build(c, rows, areas);
        }
        for &ix in bindings.iter() {
            let b = &arch.bindings()[ix];
            if !b.protocol.is_async() {
                build(b.client.component, rows, areas);
                build(b.server.component, rows, areas);
            }
        }
        // SOL-004 compares the areas of a component that has several.
        for &c in components.iter() {
            let run = rows[c.0 as usize].areas.clone();
            if run.len() > 1 {
                for i in run {
                    build(areas[i], rows, areas);
                }
            }
        }
        let facts = Facts {
            arch,
            rows,
            areas,
            scope: Some(Scope {
                components,
                bindings,
                built,
            }),
        };
        (facts, walk)
    }

    /// The components the pass visits, in id order when it visits all.
    fn components(&self) -> impl Iterator<Item = &'a Component> + 'a {
        let all = self.arch.components();
        let (every, touched) = match self.scope {
            None => (all, &[][..]),
            Some(scope) => (&all[..0], scope.components),
        };
        every
            .iter()
            .chain(touched.iter().map(move |c| &all[c.0 as usize]))
    }

    /// The bindings the pass visits, with their indices, in index order
    /// when it visits all.
    fn bindings(&self) -> impl Iterator<Item = (usize, &'a Binding)> + 'a {
        let all = self.arch.bindings();
        let (every, touched) = match self.scope {
            None => (all, &[][..]),
            Some(scope) => (&all[..0], scope.bindings),
        };
        every
            .iter()
            .enumerate()
            .chain(touched.iter().map(move |&ix| (ix, &all[ix])))
    }

    fn row(&self, id: ComponentId) -> &Row {
        debug_assert!(
            self.scope.is_none_or(|scope| scope.built.contains(&id)),
            "a scoped pass read the row of {id}, which it did not build"
        );
        &self.rows[id.0 as usize]
    }

    /// [`Architecture::memory_areas_of`].
    fn areas_of(&self, id: ComponentId) -> &[ComponentId] {
        &self.areas[self.row(id).areas.clone()]
    }

    /// [`Architecture::memory_area_of`]: the nearest MemoryArea ancestor.
    fn area_of(&self, id: ComponentId) -> Option<(ComponentId, MemoryAreaDesc)> {
        let &area = self.areas_of(id).first()?;
        match kind(self.arch, area) {
            ComponentKind::MemoryArea(desc) => Some((area, desc)),
            _ => None,
        }
    }

    /// [`Architecture::thread_domain_of`]: the ThreadDomain governing
    /// `id`, when exactly one does.
    fn domain_of(&self, id: ComponentId) -> Option<(ComponentId, ThreadDomainDesc)> {
        let row = self.row(id);
        row.domain.filter(|_| row.domains == 1)
    }

    /// Whether area `outer` encloses the distinct area `inner` — for two
    /// areas, [`Architecture::is_reachable`]`(outer, inner)`.
    fn encloses(&self, outer: ComponentId, inner: ComponentId) -> bool {
        self.areas_of(inner).contains(&outer)
    }

    /// [`cross_scope_pattern`].
    fn pattern(&self, binding: &Binding) -> Option<CrossScopePattern> {
        let (client, c_desc) = self.area_of(binding.client.component)?;
        let (server, s_desc) = self.area_of(binding.server.component)?;
        Some(pattern_between(
            (client, c_desc.kind),
            (server, s_desc.kind),
            binding.protocol.is_async(),
            |outer, inner| self.encloses(outer, inner),
        ))
    }
}

fn kind(arch: &Architecture, id: ComponentId) -> ComponentKind {
    arch.components()[id.0 as usize].kind
}

fn name(arch: &Architecture, id: ComponentId) -> Cow<'_, str> {
    arch.component(id).map_or_else(
        |_| Cow::Owned(id.to_string()),
        |c| Cow::Borrowed(c.name.as_str()),
    )
}

/// The rule pass: every rule once, in report order, over what `facts`
/// visits, handing each finding to `sink`; `walk` is the facts' scratch.
fn rules(facts: &Facts<'_>, walk: &mut Vec<ComponentId>, sink: &mut impl Sink) -> ControlFlow<()> {
    thread_domains(facts, sink)?;
    memory_areas(facts, sink)?;
    nhrt_heap(facts, walk, sink)?;
    bindings(facts, sink)?;
    shared_services(facts, sink)
}

fn thread_domains(facts: &Facts<'_>, sink: &mut impl Sink) -> ControlFlow<()> {
    let arch = facts.arch;
    for c in facts.components() {
        match c.kind {
            ComponentKind::Active(_) => {
                // SOL-001: exactly one governing ThreadDomain.
                match facts.row(c.id()).domains {
                    1 => {}
                    0 => sink.emit("SOL-001", Severity::Error, || {
                        Text::new(
                            &c.name,
                            "active component is not nested in any ThreadDomain",
                        )
                        .suggest("deploy it into a ThreadDomain in the thread-management view")
                    })?,
                    n => sink.emit("SOL-001", Severity::Error, || {
                        Text::new(
                            &c.name,
                            format!("active component is nested in {n} ThreadDomains"),
                        )
                        .suggest("an active component must have a unique ThreadDomain")
                    })?,
                }
            }
            ComponentKind::ThreadDomain(desc) => {
                // SOL-002: no ThreadDomain nesting.
                if facts.row(c.id()).domains > 0 {
                    sink.emit("SOL-002", Severity::Error, || {
                        Text::new(
                            &c.name,
                            "ThreadDomain is nested inside another ThreadDomain",
                        )
                        .suggest("flatten the domains; only MemoryAreas nest arbitrarily")
                    })?;
                }
                // SOL-005: priority band must match the thread class.
                let prio = Priority::new(desc.priority);
                let consistent = match desc.kind {
                    ThreadKind::NoHeapRealtime | ThreadKind::Realtime => prio.is_realtime(),
                    ThreadKind::Regular => !prio.is_realtime(),
                };
                if !consistent {
                    sink.emit("SOL-005", Severity::Error, || {
                        Text::new(
                            &c.name,
                            format!(
                                "priority {} is outside the band for {} threads",
                                desc.priority,
                                desc.kind.code()
                            ),
                        )
                        .suggest(format!(
                            "real-time domains need priority >= {}, regular domains < {}",
                            Priority::MIN_RT.get(),
                            Priority::MIN_RT.get()
                        ))
                    })?;
                }
                // SOL-012: passive members.
                for &child in arch.children_of(c.id()) {
                    if matches!(kind(arch, child), ComponentKind::Passive) {
                        sink.emit("SOL-012", Severity::Warning, || {
                            Text::new(
                                name(arch, child),
                                format!(
                                    "passive component placed directly in ThreadDomain '{}'",
                                    c.name
                                ),
                            )
                            .suggest(
                                "passive components need no thread; place them in a MemoryArea",
                            )
                        })?;
                    }
                }
            }
            _ => {}
        }
    }
    ControlFlow::Continue(())
}

fn memory_areas(facts: &Facts<'_>, sink: &mut impl Sink) -> ControlFlow<()> {
    let arch = facts.arch;
    for c in facts.components() {
        if c.kind.is_functional() && !matches!(c.kind, ComponentKind::Composite) {
            let areas = facts.areas_of(c.id());
            if areas.is_empty() {
                sink.emit("SOL-004", Severity::Error, || {
                    Text::new(
                        &c.name,
                        "component has no MemoryArea: its allocation region is undefined",
                    )
                    .suggest("assign it (or its ThreadDomain) to a MemoryArea in the memory view")
                })?;
                continue;
            }
            // Ambiguity: all area ancestors must form a chain; otherwise the
            // "nearest" area is ill-defined.
            for (i, &a) in areas.iter().enumerate() {
                for &b in &areas[i + 1..] {
                    if !facts.encloses(a, b) && !facts.encloses(b, a) {
                        sink.emit("SOL-004", Severity::Error, || {
                            Text::new(
                                &c.name,
                                format!(
                                    "ambiguous memory area: '{}' and '{}' both apply but are \
                                     unrelated",
                                    name(arch, a),
                                    name(arch, b)
                                ),
                            )
                            .suggest("remove one membership so a unique innermost area exists")
                        })?;
                    }
                }
            }
        }
        if let ComponentKind::MemoryArea(desc) = c.kind {
            // SOL-011: size declarations.
            match desc.kind {
                MemoryKind::Scoped | MemoryKind::Immortal if desc.size.is_none() => {
                    sink.emit("SOL-011", Severity::Warning, || {
                        Text::new(
                            &c.name,
                            format!("{} area without a size budget", desc.kind.code()),
                        )
                        .suggest("declare size=... so the bootstrapper can pre-allocate")
                    })?;
                }
                MemoryKind::Heap if desc.size.is_some() => {
                    sink.emit("SOL-011", Severity::Warning, || {
                        Text::new(
                            &c.name,
                            "heap area with an explicit size (the collector manages the heap)",
                        )
                    })?;
                }
                _ => {}
            }
        }
    }
    ControlFlow::Continue(())
}

/// SOL-003. Over everything, in the order each NHRT domain's descendants
/// are walked (`walk` is the facts' reused scratch); in a scoped pass,
/// each visited component below an NHRT domain, against the nearest.
fn nhrt_heap(
    facts: &Facts<'_>,
    walk: &mut Vec<ComponentId>,
    sink: &mut impl Sink,
) -> ControlFlow<()> {
    let arch = facts.arch;
    let all = arch.components();
    if facts.scope.is_some() {
        for dc in facts.components() {
            if let Some(domain) = facts.row(dc.id()).nhrt {
                nhrt_member(facts, &all[domain.0 as usize], dc, sink)?;
            }
        }
        return ControlFlow::Continue(());
    }
    for c in all {
        if !matches!(c.kind, ComponentKind::ThreadDomain(desc) if desc.kind == ThreadKind::NoHeapRealtime)
        {
            continue;
        }
        arch.descendants_into(c.id(), walk);
        for &d in walk.iter() {
            nhrt_member(facts, c, &all[d.0 as usize], sink)?;
        }
    }
    ControlFlow::Continue(())
}

/// SOL-003 for `dc`, a descendant of the NHRT domain `domain`.
fn nhrt_member(
    facts: &Facts<'_>,
    domain: &Component,
    dc: &Component,
    sink: &mut impl Sink,
) -> ControlFlow<()> {
    // SOL-003a: no heap MemoryArea anywhere below an NHRT domain.
    if let ComponentKind::MemoryArea(adesc) = dc.kind {
        if adesc.kind == MemoryKind::Heap {
            sink.emit("SOL-003", Severity::Error, || {
                Text::new(
                    &domain.name,
                    format!(
                        "NHRT ThreadDomain encapsulates heap MemoryArea '{}'",
                        dc.name
                    ),
                )
                .suggest("move the heap area outside the NHRT domain")
            })?;
        }
    }
    // SOL-003b: members whose effective area is the heap.
    if dc.kind.is_functional() {
        if let Some((_, adesc)) = facts.area_of(dc.id()) {
            if adesc.kind == MemoryKind::Heap {
                sink.emit("SOL-003", Severity::Error, || {
                    Text::new(
                        &dc.name,
                        format!(
                            "member of NHRT domain '{}' is allocated in heap memory",
                            domain.name
                        ),
                    )
                    .suggest("allocate NHRT members in immortal or scoped memory")
                })?;
            }
        }
    }
    ControlFlow::Continue(())
}

fn bindings(facts: &Facts<'_>, sink: &mut impl Sink) -> ControlFlow<()> {
    let arch = facts.arch;
    let bindings = arch.bindings();
    // SOL-013: client interface bound at most once, and every client bound.
    for (i, b) in facts.bindings() {
        if bindings[..i]
            .iter()
            .any(|earlier| earlier.client == b.client)
        {
            sink.emit("SOL-013", Severity::Error, || {
                Text::new(
                    format!("{}.{}", name(arch, b.client.component), b.client.interface),
                    "client interface bound more than once",
                )
                .suggest("interpose an explicit dispatcher component for fan-out")
            })?;
        }
    }
    if sink.keeps(Severity::Warning) {
        for c in facts.components() {
            for i in c.interfaces_with_role(Role::Client) {
                let bound = bindings
                    .iter()
                    .any(|b| b.client.component == c.id() && b.client.interface == i.name);
                if !bound {
                    sink.emit("SOL-013", Severity::Warning, || {
                        Text::new(
                            format!("{}.{}", c.name, i.name),
                            "client interface is unbound",
                        )
                    })?;
                }
            }
        }
    }

    for (_, b) in facts.bindings() {
        let subject = || {
            format!(
                "{}.{} -> {}.{}",
                name(arch, b.client.component),
                b.client.interface,
                name(arch, b.server.component),
                b.server.interface
            )
        };

        // SOL-010: async buffer capacity.
        if let Protocol::Asynchronous { buffer_size: 0 } = b.protocol {
            sink.emit("SOL-010", Severity::Error, || {
                Text::new(subject(), "asynchronous binding with zero-capacity buffer")
                    .suggest("declare bufferSize >= 1")
            })?;
        }

        let synchronous = !b.protocol.is_async();
        // SOL-008: active servers want async activation.
        if synchronous && kind(arch, b.server.component).is_active() {
            sink.emit("SOL-008", Severity::Warning, || {
                Text::new(
                    subject(),
                    "synchronous call into an active component breaks run-to-completion",
                )
                .suggest("use an asynchronous binding with a message buffer")
            })?;
        }

        // SOL-006: NHRT caller must never need heap data synchronously.
        if synchronous {
            if let (Some((_, ddesc)), Some((_, adesc))) = (
                facts.domain_of(b.client.component),
                facts.area_of(b.server.component),
            ) {
                if ddesc.kind == ThreadKind::NoHeapRealtime && adesc.kind == MemoryKind::Heap {
                    sink.emit("SOL-006", Severity::Error, || {
                        Text::new(
                            subject(),
                            "NHRT client calls synchronously into heap-allocated server",
                        )
                        .suggest(
                            "make the binding asynchronous with the buffer outside the heap, \
                             or move the server out of heap memory",
                        )
                    })?;
                }
            }
        }

        // SOL-007: record the pattern for every cross-area binding.
        if !sink.keeps(Severity::Info) {
            continue;
        }
        if let Some(pattern) = facts.pattern(b) {
            if pattern != CrossScopePattern::Direct {
                sink.emit("SOL-007", Severity::Info, || {
                    Text::new(
                        subject(),
                        format!("cross-scope binding: memory interceptor will use '{pattern}'"),
                    )
                    .suggest(format!("pattern {pattern} is generated automatically"))
                })?;
            }
        }
    }

    // SOL-009: sporadic actives need a trigger.
    if !sink.keeps(Severity::Warning) {
        return ControlFlow::Continue(());
    }
    for c in facts.components() {
        if matches!(
            c.kind,
            ComponentKind::Active(crate::model::ActivationKind::Sporadic)
        ) {
            let triggered = bindings
                .iter()
                .any(|b| b.server.component == c.id() && b.protocol.is_async());
            if !triggered {
                sink.emit("SOL-009", Severity::Warning, || {
                    Text::new(
                        &c.name,
                        "sporadic active component has no incoming asynchronous binding to \
                         trigger it",
                    )
                    .suggest("bind a producer to one of its server interfaces asynchronously")
                })?;
            }
        }
    }
    ControlFlow::Continue(())
}

fn shared_services(facts: &Facts<'_>, sink: &mut impl Sink) -> ControlFlow<()> {
    let arch = facts.arch;
    if !sink.keeps(Severity::Info) {
        return ControlFlow::Continue(());
    }
    for c in facts.components() {
        if let Some(ceiling) = ceiling_in(arch, c.id(), |client| facts.domain_of(client)) {
            sink.emit("SOL-014", Severity::Info, || {
                Text::new(
                    &c.name,
                    format!(
                        "passive service shared by multiple ThreadDomains: priority ceiling \
                         {ceiling}"
                    ),
                )
                .suggest("the generated monitor uses priority-ceiling emulation at this ceiling")
            })?;
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ActivationKind;

    fn domain(kind: ThreadKind, priority: u8) -> ComponentKind {
        ComponentKind::ThreadDomain(ThreadDomainDesc { kind, priority })
    }

    fn area(kind: MemoryKind, size: Option<usize>) -> ComponentKind {
        ComponentKind::MemoryArea(MemoryAreaDesc { kind, size })
    }

    /// Minimal compliant architecture: one active in one NHRT domain in
    /// immortal memory.
    fn compliant() -> Architecture {
        let mut a = Architecture::new("ok");
        let c = a
            .add_component(
                "worker",
                ComponentKind::Active(ActivationKind::Periodic {
                    period_ns: 1_000_000,
                }),
            )
            .unwrap();
        let d = a
            .add_component("nhrt", domain(ThreadKind::NoHeapRealtime, 30))
            .unwrap();
        let m = a
            .add_component("imm", area(MemoryKind::Immortal, Some(4096)))
            .unwrap();
        a.add_child(d, c).unwrap();
        a.add_child(m, d).unwrap();
        a
    }

    #[test]
    fn compliant_architecture_passes() {
        let report = validate(&compliant());
        assert!(report.is_compliant(), "{report}");
    }

    #[test]
    fn active_without_domain_flagged() {
        let mut a = Architecture::new("bad");
        let c = a
            .add_component("orphan", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let m = a
            .add_component("imm", area(MemoryKind::Immortal, Some(4096)))
            .unwrap();
        a.add_child(m, c).unwrap();
        let report = validate(&a);
        assert!(!report.is_compliant());
        assert_eq!(report.by_code("SOL-001").count(), 1);
    }

    #[test]
    fn active_in_two_domains_flagged() {
        let mut a = compliant();
        let d2 = a
            .add_component("rt2", domain(ThreadKind::Realtime, 20))
            .unwrap();
        let c = a.id_of("worker").unwrap();
        a.add_child(d2, c).unwrap();
        let m = a.id_of("imm").unwrap();
        a.add_child(m, d2).unwrap();
        let report = validate(&a);
        assert!(report
            .by_code("SOL-001")
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn nested_thread_domains_flagged() {
        let mut a = compliant();
        let outer = a
            .add_component("outer", domain(ThreadKind::Realtime, 25))
            .unwrap();
        let inner = a.id_of("nhrt").unwrap();
        a.add_child(outer, inner).unwrap();
        let m = a.id_of("imm").unwrap();
        a.add_child(m, outer).unwrap();
        let report = validate(&a);
        assert!(report.by_code("SOL-002").next().is_some());
    }

    #[test]
    fn nhrt_domain_with_heap_area_flagged() {
        let mut a = Architecture::new("bad");
        let c = a
            .add_component("w", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let d = a
            .add_component("nhrt", domain(ThreadKind::NoHeapRealtime, 30))
            .unwrap();
        let h = a.add_component("h", area(MemoryKind::Heap, None)).unwrap();
        a.add_child(d, h).unwrap();
        a.add_child(h, c).unwrap();
        let report = validate(&a);
        let sol3: Vec<_> = report.by_code("SOL-003").collect();
        assert!(
            sol3.len() >= 2,
            "area nesting and member allocation both flagged: {report}"
        );
        assert!(!report.is_compliant());
    }

    #[test]
    fn missing_memory_area_flagged() {
        let mut a = Architecture::new("bad");
        let c = a
            .add_component("w", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let d = a
            .add_component("rt", domain(ThreadKind::Realtime, 20))
            .unwrap();
        a.add_child(d, c).unwrap();
        let report = validate(&a);
        assert!(report
            .by_code("SOL-004")
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn ambiguous_memory_areas_flagged() {
        let mut a = Architecture::new("bad");
        let c = a.add_component("p", ComponentKind::Passive).unwrap();
        let m1 = a
            .add_component("imm", area(MemoryKind::Immortal, Some(1024)))
            .unwrap();
        let m2 = a
            .add_component("s", area(MemoryKind::Scoped, Some(1024)))
            .unwrap();
        a.add_child(m1, c).unwrap();
        a.add_child(m2, c).unwrap();
        let report = validate(&a);
        assert!(report
            .by_code("SOL-004")
            .any(|d| d.message.contains("ambiguous")));
    }

    #[test]
    fn nested_areas_are_not_ambiguous() {
        let mut a = Architecture::new("ok");
        let c = a.add_component("p", ComponentKind::Passive).unwrap();
        let outer = a
            .add_component("imm", area(MemoryKind::Immortal, Some(8192)))
            .unwrap();
        let inner = a
            .add_component("s", area(MemoryKind::Scoped, Some(1024)))
            .unwrap();
        a.add_child(outer, inner).unwrap();
        a.add_child(inner, c).unwrap();
        let report = validate(&a);
        assert!(report.is_compliant(), "{report}");
    }

    #[test]
    fn priority_band_mismatches_flagged() {
        let mut a = compliant();
        let c2 = a
            .add_component("aud", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let d2 = a
            .add_component("reg-high", domain(ThreadKind::Regular, 50))
            .unwrap();
        a.add_child(d2, c2).unwrap();
        let m = a.id_of("imm").unwrap();
        a.add_child(m, d2).unwrap();
        let report = validate(&a);
        assert!(report.by_code("SOL-005").next().is_some());

        let mut b = compliant();
        let c3 = b
            .add_component("x", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let d3 = b
            .add_component("nhrt-low", domain(ThreadKind::NoHeapRealtime, 3))
            .unwrap();
        b.add_child(d3, c3).unwrap();
        let m2 = b.id_of("imm").unwrap();
        b.add_child(m2, d3).unwrap();
        assert!(validate(&b).by_code("SOL-005").next().is_some());
    }

    /// Two scoped sibling areas with a sync binding across them.
    fn sibling_arch(protocol: Protocol) -> Architecture {
        let mut a = Architecture::new("x");
        let p = a
            .add_component("p", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let q = a.add_component("q", ComponentKind::Passive).unwrap();
        a.add_interface(p, "out", Role::Client, "I").unwrap();
        a.add_interface(q, "in", Role::Server, "I").unwrap();
        a.bind(p, "out", q, "in", protocol).unwrap();
        let d = a
            .add_component("rt", domain(ThreadKind::Realtime, 20))
            .unwrap();
        a.add_child(d, p).unwrap();
        let root = a
            .add_component("root", area(MemoryKind::Immortal, Some(8192)))
            .unwrap();
        let s1 = a
            .add_component("s1", area(MemoryKind::Scoped, Some(1024)))
            .unwrap();
        let s2 = a
            .add_component("s2", area(MemoryKind::Scoped, Some(1024)))
            .unwrap();
        a.add_child(root, s1).unwrap();
        a.add_child(root, s2).unwrap();
        a.add_child(s1, p).unwrap();
        a.add_child(s2, q).unwrap();
        a.add_child(root, d).unwrap();
        a
    }

    #[test]
    fn sibling_scopes_get_handoff_pattern() {
        let a = sibling_arch(Protocol::Synchronous);
        let b = &a.bindings()[0];
        assert_eq!(
            cross_scope_pattern(&a, b),
            Some(CrossScopePattern::HandoffThroughParent)
        );
        let report = validate(&a);
        assert!(report
            .by_code("SOL-007")
            .any(|d| d.message.contains("handoff-through-parent")));
    }

    #[test]
    fn sibling_scopes_async_get_immortal_exchange() {
        let a = sibling_arch(Protocol::Asynchronous { buffer_size: 4 });
        let b = &a.bindings()[0];
        assert_eq!(
            cross_scope_pattern(&a, b),
            Some(CrossScopePattern::ImmortalExchange)
        );
    }

    #[test]
    fn nested_scopes_get_directional_patterns() {
        let mut a = Architecture::new("x");
        let p = a.add_component("p", ComponentKind::Passive).unwrap();
        let q = a.add_component("q", ComponentKind::Passive).unwrap();
        a.add_interface(p, "out", Role::Client, "I").unwrap();
        a.add_interface(q, "in", Role::Server, "I").unwrap();
        a.add_interface(q, "back", Role::Client, "J").unwrap();
        a.add_interface(p, "recv", Role::Server, "J").unwrap();
        a.bind(p, "out", q, "in", Protocol::Synchronous).unwrap();
        a.bind(q, "back", p, "recv", Protocol::Synchronous).unwrap();
        let outer = a
            .add_component("outer", area(MemoryKind::Scoped, Some(8192)))
            .unwrap();
        let inner = a
            .add_component("inner", area(MemoryKind::Scoped, Some(1024)))
            .unwrap();
        a.add_child(outer, inner).unwrap();
        a.add_child(outer, p).unwrap();
        a.add_child(inner, q).unwrap();

        // p (outer) -> q (inner): enter the nested scope.
        assert_eq!(
            cross_scope_pattern(&a, &a.bindings()[0]),
            Some(CrossScopePattern::EnterInner)
        );
        // q (inner) -> p (outer): executeInArea on the enclosing scope.
        assert_eq!(
            cross_scope_pattern(&a, &a.bindings()[1]),
            Some(CrossScopePattern::ExecuteInOuter)
        );
    }

    #[test]
    fn sync_into_active_warned() {
        let mut a = compliant();
        let c2 = a.add_component("caller", ComponentKind::Passive).unwrap();
        let w = a.id_of("worker").unwrap();
        a.add_interface(c2, "out", Role::Client, "I").unwrap();
        a.add_interface(w, "in", Role::Server, "I").unwrap();
        a.bind(c2, "out", w, "in", Protocol::Synchronous).unwrap();
        let m = a.id_of("imm").unwrap();
        a.add_child(m, c2).unwrap();
        let report = validate(&a);
        assert!(report.by_code("SOL-008").next().is_some());
    }

    #[test]
    fn nhrt_sync_into_heap_is_error() {
        let mut a = Architecture::new("bad");
        let caller = a
            .add_component("caller", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let server = a.add_component("server", ComponentKind::Passive).unwrap();
        a.add_interface(caller, "out", Role::Client, "I").unwrap();
        a.add_interface(server, "in", Role::Server, "I").unwrap();
        a.bind(caller, "out", server, "in", Protocol::Synchronous)
            .unwrap();
        let d = a
            .add_component("nhrt", domain(ThreadKind::NoHeapRealtime, 30))
            .unwrap();
        a.add_child(d, caller).unwrap();
        let imm = a
            .add_component("imm", area(MemoryKind::Immortal, Some(4096)))
            .unwrap();
        a.add_child(imm, d).unwrap();
        let h = a.add_component("h", area(MemoryKind::Heap, None)).unwrap();
        a.add_child(h, server).unwrap();
        let report = validate(&a);
        assert!(report
            .by_code("SOL-006")
            .any(|d| d.severity == Severity::Error));
        assert!(!report.is_compliant());
    }

    #[test]
    fn zero_buffer_is_error() {
        let a = sibling_arch(Protocol::Asynchronous { buffer_size: 0 });
        let report = validate(&a);
        assert!(report
            .by_code("SOL-010")
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn untriggered_sporadic_warned() {
        let mut a = compliant();
        let s = a
            .add_component("sp", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let d = a.id_of("nhrt").unwrap();
        let m = a.id_of("imm").unwrap();
        // A second domain is needed (one active per domain membership is fine,
        // but reuse keeps this simple: sporadic in same domain).
        a.add_child(d, s).unwrap();
        a.add_child(m, s).unwrap();
        let report = validate(&a);
        assert!(report.by_code("SOL-009").any(|d| d.subject == "sp"));
    }

    #[test]
    fn unbound_client_warned_and_double_binding_error() {
        let mut a = compliant();
        let w = a.id_of("worker").unwrap();
        a.add_interface(w, "out", Role::Client, "I").unwrap();
        let report = validate(&a);
        assert!(report
            .by_code("SOL-013")
            .any(|d| d.severity == Severity::Warning));

        let p = a.add_component("p1", ComponentKind::Passive).unwrap();
        let q = a.add_component("p2", ComponentKind::Passive).unwrap();
        a.add_interface(p, "in", Role::Server, "I").unwrap();
        a.add_interface(q, "in", Role::Server, "I").unwrap();
        let m = a.id_of("imm").unwrap();
        a.add_child(m, p).unwrap();
        a.add_child(m, q).unwrap();
        a.bind(w, "out", p, "in", Protocol::Synchronous).unwrap();
        a.bind(w, "out", q, "in", Protocol::Synchronous).unwrap();
        let report = validate(&a);
        assert!(report
            .by_code("SOL-013")
            .any(|d| d.severity == Severity::Error));
    }

    #[test]
    fn shared_service_gets_a_ceiling() {
        // Two domains calling the same passive service synchronously.
        let mut a = Architecture::new("shared");
        let s = a.add_component("svc", ComponentKind::Passive).unwrap();
        let c1 = a
            .add_component("c1", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let c2 = a
            .add_component("c2", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        a.add_interface(s, "in", Role::Server, "I").unwrap();
        a.add_interface(c1, "out", Role::Client, "I").unwrap();
        a.add_interface(c2, "out", Role::Client, "I").unwrap();
        a.bind(c1, "out", s, "in", Protocol::Synchronous).unwrap();
        a.bind(c2, "out", s, "in", Protocol::Synchronous).unwrap();
        let d1 = a
            .add_component("d1", domain(ThreadKind::Realtime, 20))
            .unwrap();
        let d2 = a
            .add_component("d2", domain(ThreadKind::NoHeapRealtime, 33))
            .unwrap();
        a.add_child(d1, c1).unwrap();
        a.add_child(d2, c2).unwrap();
        let m = a
            .add_component("imm", area(MemoryKind::Immortal, Some(8192)))
            .unwrap();
        a.add_child(m, d1).unwrap();
        a.add_child(m, d2).unwrap();
        a.add_child(m, s).unwrap();

        assert_eq!(
            shared_service_ceiling(&a, s),
            Some(33),
            "max client priority"
        );
        let report = validate(&a);
        assert!(report
            .by_code("SOL-014")
            .any(|d| d.message.contains("ceiling 33")));
        assert!(report.is_compliant(), "info does not block: {report}");

        // A single-domain client is not shared: no ceiling.
        assert_eq!(
            shared_service_ceiling(&a, c1),
            None,
            "active components have none"
        );
        let mut single = Architecture::new("single");
        let s2 = single.add_component("svc", ComponentKind::Passive).unwrap();
        let c = single
            .add_component("c", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        single.add_interface(s2, "in", Role::Server, "I").unwrap();
        single.add_interface(c, "out", Role::Client, "I").unwrap();
        single
            .bind(c, "out", s2, "in", Protocol::Synchronous)
            .unwrap();
        let d = single
            .add_component("d", domain(ThreadKind::Realtime, 20))
            .unwrap();
        single.add_child(d, c).unwrap();
        assert_eq!(shared_service_ceiling(&single, s2), None);
    }

    #[test]
    fn report_display_is_readable() {
        let mut a = Architecture::new("bad");
        a.add_component("orphan", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let report = validate(&a);
        let text = report.to_string();
        assert!(text.contains("SOL-001"));
        assert!(text.contains("orphan"));
        // Compliant report prints a positive verdict.
        let ok = validate(&compliant());
        assert!(ok.to_string().contains("compliant") || !ok.is_empty());
    }

    // -----------------------------------------------------------------
    // SOL-015: parallel-coupling advisory
    // -----------------------------------------------------------------

    /// Two NHRT domains in immortal memory, one periodic producer and one
    /// sporadic consumer, decoupled by an asynchronous binding.
    fn two_domain_arch(protocol: Protocol) -> Architecture {
        let mut a = Architecture::new("two-domains");
        let p = a
            .add_component(
                "producer",
                ComponentKind::Active(ActivationKind::Periodic {
                    period_ns: 1_000_000,
                }),
            )
            .unwrap();
        let c = a
            .add_component("consumer", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let d1 = a
            .add_component("nhrt1", domain(ThreadKind::NoHeapRealtime, 30))
            .unwrap();
        let d2 = a
            .add_component("nhrt2", domain(ThreadKind::NoHeapRealtime, 25))
            .unwrap();
        let m = a
            .add_component("imm", area(MemoryKind::Immortal, Some(64 * 1024)))
            .unwrap();
        a.add_child(d1, p).unwrap();
        a.add_child(d2, c).unwrap();
        a.add_child(m, d1).unwrap();
        a.add_child(m, d2).unwrap();
        a.add_interface(p, "out", Role::Client, "I").unwrap();
        a.add_interface(c, "in", Role::Server, "I").unwrap();
        a.bind(p, "out", c, "in", protocol).unwrap();
        a
    }

    #[test]
    fn async_cross_domain_binding_reports_no_coupling() {
        let a = two_domain_arch(Protocol::Asynchronous { buffer_size: 8 });
        let report = parallel_coupling(&a);
        assert!(report.is_empty(), "{report}");
    }

    #[test]
    fn sync_cross_domain_binding_reports_serialization() {
        let a = two_domain_arch(Protocol::Synchronous);
        let report = parallel_coupling(&a);
        // The precise per-binding finding plus the group-level summary.
        let findings: Vec<_> = report.by_code("SOL-015").collect();
        assert_eq!(findings.len(), 2, "{report}");
        assert!(findings[0].message.contains("nhrt1"));
        assert!(findings[0].message.contains("nhrt2"));
        assert!(findings[0].suggestion.is_some());
    }

    #[test]
    fn passive_chain_couples_domains_transitively() {
        // producer (d1) -sync-> shared passive <-sync- consumer (d2):
        // neither binding links two domains directly, but the chain
        // serializes d1 and d2 — only the group pass can see it.
        let mut a = Architecture::new("chain");
        let p = a
            .add_component(
                "producer",
                ComponentKind::Active(ActivationKind::Periodic {
                    period_ns: 1_000_000,
                }),
            )
            .unwrap();
        let q = a
            .add_component("poller", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let svc = a.add_component("svc", ComponentKind::Passive).unwrap();
        let d1 = a
            .add_component("nhrt1", domain(ThreadKind::NoHeapRealtime, 30))
            .unwrap();
        let d2 = a
            .add_component("nhrt2", domain(ThreadKind::NoHeapRealtime, 25))
            .unwrap();
        let m = a
            .add_component("imm", area(MemoryKind::Immortal, Some(64 * 1024)))
            .unwrap();
        a.add_child(d1, p).unwrap();
        a.add_child(d2, q).unwrap();
        a.add_child(m, d1).unwrap();
        a.add_child(m, d2).unwrap();
        a.add_child(m, svc).unwrap();
        a.add_interface(p, "svc", Role::Client, "I").unwrap();
        a.add_interface(q, "svc", Role::Client, "I").unwrap();
        a.add_interface(svc, "svc", Role::Server, "I").unwrap();
        a.bind(p, "svc", svc, "svc", Protocol::Synchronous).unwrap();
        a.bind(q, "svc", svc, "svc", Protocol::Synchronous).unwrap();
        let report = parallel_coupling(&a);
        let findings: Vec<_> = report.by_code("SOL-015").collect();
        assert_eq!(findings.len(), 1, "{report}");
        assert!(findings[0]
            .message
            .contains("serialized into one engine shard"));
    }

    #[test]
    fn shared_scoped_area_reports_coupling() {
        let mut a = Architecture::new("shared-scope");
        let p = a
            .add_component(
                "producer",
                ComponentKind::Active(ActivationKind::Periodic {
                    period_ns: 1_000_000,
                }),
            )
            .unwrap();
        let c = a
            .add_component("consumer", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let d1 = a
            .add_component("rt1", domain(ThreadKind::Realtime, 20))
            .unwrap();
        let d2 = a
            .add_component("rt2", domain(ThreadKind::Realtime, 22))
            .unwrap();
        let s = a
            .add_component("scope", area(MemoryKind::Scoped, Some(16 * 1024)))
            .unwrap();
        a.add_child(d1, p).unwrap();
        a.add_child(d2, c).unwrap();
        a.add_child(s, d1).unwrap();
        a.add_child(s, d2).unwrap();
        let report = parallel_coupling(&a);
        // The per-area finding plus the group summary both name the scope
        // coupling.
        let findings: Vec<_> = report.by_code("SOL-015").collect();
        assert_eq!(findings.len(), 2, "{report}");
        assert!(findings.iter().any(|d| d.subject == "scope"));
    }

    #[test]
    fn motivation_style_single_domain_couplings_stay_silent() {
        // A passive called synchronously from ONE domain does not couple
        // anything: the advisory must not cry wolf.
        let mut a = compliant();
        let svc = a.add_component("svc", ComponentKind::Passive).unwrap();
        let m = a.id_of("imm").unwrap();
        a.add_child(m, svc).unwrap();
        let w = a.id_of("worker").unwrap();
        a.add_interface(w, "svc", Role::Client, "I").unwrap();
        a.add_interface(svc, "svc", Role::Server, "I").unwrap();
        a.bind(w, "svc", svc, "svc", Protocol::Synchronous).unwrap();
        assert!(parallel_coupling(&a).is_empty());
    }

    #[test]
    fn nested_scoped_areas_couple_like_the_planner_shards() {
        // producer (rt1) directly in 'outer'; consumer (rt2) in 'inner'
        // nested inside 'outer': the consumer stands in BOTH scopes, so
        // one engine must own 'outer' and the domains serialize — the
        // advisory must see the full ancestry, not just the innermost
        // area (regression: it used to report nothing here).
        let mut a = Architecture::new("nested-scope");
        let p = a
            .add_component(
                "producer",
                ComponentKind::Active(ActivationKind::Periodic {
                    period_ns: 1_000_000,
                }),
            )
            .unwrap();
        let c = a
            .add_component("consumer", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let d1 = a
            .add_component("rt1", domain(ThreadKind::Realtime, 20))
            .unwrap();
        let d2 = a
            .add_component("rt2", domain(ThreadKind::Realtime, 22))
            .unwrap();
        let outer = a
            .add_component("outer", area(MemoryKind::Scoped, Some(32 * 1024)))
            .unwrap();
        let inner = a
            .add_component("inner", area(MemoryKind::Scoped, Some(8 * 1024)))
            .unwrap();
        a.add_child(d1, p).unwrap();
        a.add_child(d2, c).unwrap();
        a.add_child(outer, d1).unwrap();
        a.add_child(outer, inner).unwrap();
        a.add_child(inner, d2).unwrap();
        let report = parallel_coupling(&a);
        let findings: Vec<_> = report.by_code("SOL-015").collect();
        assert!(
            findings.iter().any(|d| d.subject == "outer"),
            "shared ancestry through 'outer' must be reported: {report}"
        );
        assert!(
            findings
                .iter()
                .any(|d| d.message.contains("serialized into one engine shard")),
            "{report}"
        );
    }

    // -----------------------------------------------------------------
    // The facts table against the walk queries it stands in for
    // -----------------------------------------------------------------

    /// A random containment DAG with sharing (edges join a lower to a
    /// higher index) and random bindings between its functional
    /// components, each of which serves `in` and requires `out`.
    fn random_arch(
        picks: &[u8],
        edges: &[(usize, usize)],
        binds: &[(usize, usize, u8)],
    ) -> Architecture {
        let mut a = Architecture::new("facts");
        let ids: Vec<ComponentId> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                let kind = match pick {
                    0 => domain(ThreadKind::NoHeapRealtime, 30),
                    1 => domain(ThreadKind::Realtime, 20),
                    2 => area(MemoryKind::Immortal, Some(4096)),
                    3 => area(MemoryKind::Scoped, Some(1024)),
                    4 => area(MemoryKind::Heap, None),
                    5 => ComponentKind::Composite,
                    6 => ComponentKind::Passive,
                    _ => ComponentKind::Active(ActivationKind::Sporadic),
                };
                let id = a.add_component(format!("c{i}"), kind).unwrap();
                if kind.is_functional() {
                    a.add_interface(id, "in", Role::Server, "I").unwrap();
                    a.add_interface(id, "out", Role::Client, "I").unwrap();
                }
                id
            })
            .collect();
        for &(x, y) in edges {
            let (x, y) = (x % ids.len(), y % ids.len());
            if x != y {
                let _ = a.add_child(ids[x.min(y)], ids[x.max(y)]);
            }
        }
        for &(client, server, protocol) in binds {
            let protocol = if protocol == 0 {
                Protocol::Synchronous
            } else {
                Protocol::Asynchronous { buffer_size: 4 }
            };
            let (client, server) = (ids[client % ids.len()], ids[server % ids.len()]);
            let _ = a.bind(client, "out", server, "in", protocol);
        }
        a
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Every fact the rules read, and every decision they take from
        /// facts, equals what the `Architecture` walk queries answer.
        #[test]
        fn facts_answer_what_the_walk_queries_answer(
            picks in proptest::collection::vec(0..8u8, 1..20),
            edges in proptest::collection::vec((0..64usize, 0..64usize), 0..48),
            binds in proptest::collection::vec((0..64usize, 0..64usize, 0..2u8), 0..16),
        ) {
            let a = random_arch(&picks, &edges, &binds);
            let mut storage = FactsStorage::default();
            let (facts, _) = Facts::build(&a, &mut storage);
            for c in a.components() {
                let id = c.id();
                let domains = a.thread_domains_of(id);
                proptest::prop_assert_eq!(facts.row(id).domains, domains.len());
                proptest::prop_assert_eq!(
                    facts.row(id).domain.map(|(d, _)| d),
                    domains.first().copied()
                );
                proptest::prop_assert_eq!(facts.domain_of(id), a.thread_domain_of(id));
                proptest::prop_assert_eq!(facts.areas_of(id), a.memory_areas_of(id).as_slice());
                proptest::prop_assert_eq!(facts.area_of(id), a.memory_area_of(id));
                proptest::prop_assert_eq!(
                    ceiling_in(&a, id, |client| facts.domain_of(client)),
                    shared_service_ceiling(&a, id)
                );
                for other in a.components() {
                    let both_areas = matches!(c.kind, ComponentKind::MemoryArea(_))
                        && matches!(other.kind, ComponentKind::MemoryArea(_));
                    if both_areas && id != other.id() {
                        proptest::prop_assert_eq!(
                            facts.encloses(id, other.id()),
                            a.is_reachable(id, other.id())
                        );
                    }
                }
            }
            for b in a.bindings() {
                proptest::prop_assert_eq!(facts.pattern(b), cross_scope_pattern(&a, b));
            }
            proptest::prop_assert_eq!(is_compliant(&a), validate(&a).is_compliant());
            // Storage a pass over another architecture left behind holds
            // no stale fact.
            let other = random_arch(&picks[..1 + picks.len() / 2], &edges, &binds);
            let mut storage = FactsStorage::default();
            is_compliant_in(&other, &mut storage);
            proptest::prop_assert_eq!(
                is_compliant_in(&a, &mut storage),
                validate(&a).is_compliant()
            );
        }
    }

    // -----------------------------------------------------------------
    // The scoped verdict against the full one
    // -----------------------------------------------------------------

    /// A compliant architecture, by construction:
    /// * the areas `heap`, `imm`, `s1` and `s2` (scoped, in `imm`) and `s3`
    ///   (scoped, in `s1`);
    /// * the Realtime domain `d0` in `imm`, and one domain per `domains`
    ///   pick, of the kind and in the area the pick names. An NHRT domain
    ///   in `heap` stays empty: it is there to be moved into;
    /// * one component per `members` pick `(kind, host, extra)`: an active
    ///   in a domain or in a composite made before it, sometimes also
    ///   directly in an area of its host's chain; a passive directly in an
    ///   area; or a composite in a domain. Actives and passives serve `in`
    ///   and require `out`;
    /// * one binding per `binds` pick `(client, server, sync)` whose client
    ///   is still unbound, unless it is an NHRT client's synchronous call
    ///   into the heap.
    fn compliant_base(
        domains: &[u8],
        members: &[(u8, u8, u8)],
        binds: &[(usize, usize, u8)],
    ) -> Architecture {
        let mut a = Architecture::new("scoped");
        let heap = a
            .add_component("heap", area(MemoryKind::Heap, None))
            .unwrap();
        let imm = a
            .add_component("imm", area(MemoryKind::Immortal, Some(1 << 16)))
            .unwrap();
        let scoped = |a: &mut Architecture, name: &str, parent| {
            let s = a
                .add_component(name, area(MemoryKind::Scoped, Some(1024)))
                .unwrap();
            a.add_child(parent, s).unwrap();
            s
        };
        let s1 = scoped(&mut a, "s1", imm);
        let s2 = scoped(&mut a, "s2", imm);
        let s3 = scoped(&mut a, "s3", s1);
        // Each area with the areas enclosing it, innermost first.
        let chains = [
            vec![heap],
            vec![imm],
            vec![s1, imm],
            vec![s2, imm],
            vec![s3, s1, imm],
        ];

        // (container, its area's chain index): the hosts of actives.
        let mut hosts: Vec<(ComponentId, usize)> = Vec::new();
        let d0 = a
            .add_component("d0", domain(ThreadKind::Realtime, 20))
            .unwrap();
        a.add_child(imm, d0).unwrap();
        hosts.push((d0, 1));
        for (i, &pick) in domains.iter().enumerate() {
            let (kind, priority) = [
                (ThreadKind::NoHeapRealtime, 30),
                (ThreadKind::Realtime, 20),
                (ThreadKind::Regular, 5),
            ][usize::from(pick % 3)];
            let chain = usize::from(pick / 3) % chains.len();
            let d = a
                .add_component(format!("d{}", i + 1), domain(kind, priority))
                .unwrap();
            a.add_child(chains[chain][0], d).unwrap();
            if !(kind == ThreadKind::NoHeapRealtime && chain == 0) {
                hosts.push((d, chain));
            }
        }
        let domain_hosts = hosts.len();

        let mut ends = Vec::new();
        for (i, &(kind, host, extra)) in members.iter().enumerate() {
            let name = format!("m{i}");
            match kind % 4 {
                0 | 1 => {
                    let c = a
                        .add_component(name, ComponentKind::Active(ActivationKind::Sporadic))
                        .unwrap();
                    let (container, chain) = hosts[usize::from(host) % hosts.len()];
                    a.add_child(container, c).unwrap();
                    if extra % 3 == 0 {
                        let chain = &chains[chain];
                        a.add_child(chain[usize::from(extra / 3) % chain.len()], c)
                            .unwrap();
                    }
                    ends.push(c);
                }
                2 => {
                    let c = a.add_component(name, ComponentKind::Passive).unwrap();
                    a.add_child(chains[usize::from(host) % chains.len()][0], c)
                        .unwrap();
                    ends.push(c);
                }
                _ => {
                    let c = a.add_component(name, ComponentKind::Composite).unwrap();
                    let (d, chain) = hosts[usize::from(host) % domain_hosts];
                    a.add_child(d, c).unwrap();
                    hosts.push((c, chain));
                }
            }
        }
        for &c in &ends {
            a.add_interface(c, "in", Role::Server, "I").unwrap();
            a.add_interface(c, "out", Role::Client, "I").unwrap();
        }
        for &(client, server, sync) in binds {
            if ends.is_empty() {
                break;
            }
            let (client, server) = (ends[client % ends.len()], ends[server % ends.len()]);
            let nhrt_into_heap = a
                .thread_domain_of(client)
                .is_some_and(|(_, d)| d.kind == ThreadKind::NoHeapRealtime)
                && a.memory_area_of(server)
                    .is_some_and(|(_, d)| d.kind == MemoryKind::Heap);
            let bound = a.bindings().iter().any(|b| b.client.component == client);
            if bound || (sync == 0 && nhrt_into_heap) {
                continue;
            }
            let protocol = if sync == 0 {
                Protocol::Synchronous
            } else {
                Protocol::Asynchronous { buffer_size: 4 }
            };
            a.bind(client, "out", server, "in", protocol).unwrap();
        }
        a
    }

    /// One edit of the scoped property, with its undo.
    enum Edit {
        /// The containment edge into `comp` moved from the edge `removed`
        /// to the domain `new`.
        Move {
            comp: ComponentId,
            removed: Option<crate::arch::ChildEdge>,
            new: ComponentId,
        },
        Rebind(crate::arch::ServerSwap),
    }

    /// Random compliant architectures take random transactions of the two
    /// edits a reconfiguration makes: a functional component's domain edge
    /// moved to another ThreadDomain, and a binding pointed at another
    /// server. After every edit, the verdict over what the transaction
    /// touched equals the full verdict. A compliant transaction commits;
    /// any other is undone and the next one starts from the last commit.
    /// Over the run, both outcomes occur, and SOL-003, SOL-004 and SOL-006
    /// each refuse some transaction.
    #[test]
    fn the_scoped_verdict_equals_the_full_one() {
        use proptest::collection::vec;
        use proptest::strategy::Strategy;

        let strategy = (
            vec(0..15u8, 0..5),
            vec((0..4u8, 0..255u8, 0..255u8), 1..10),
            vec((0..64usize, 0..64usize, 0..2u8), 0..10),
            vec(vec((0..2u8, 0..64usize, 0..64usize), 1..4), 1..8),
        );
        let mut rng =
            proptest::test_runner::TestRng::deterministic("the_scoped_verdict_equals_the_full_one");
        let (mut committed, mut refused) = (0, 0);
        let mut refused_by = [("SOL-003", 0), ("SOL-004", 0), ("SOL-006", 0)];
        // One storage for every pass, as a deployment keeps one.
        let mut storage = FactsStorage::default();
        for _ in 0..256 {
            let (domains, members, binds, transactions) = strategy.generate(&mut rng);
            let mut a = compliant_base(&domains, &members, &binds);
            assert!(is_compliant(&a), "the base is compliant:\n{}", validate(&a));
            let domain_ids: Vec<ComponentId> = a
                .components()
                .iter()
                .filter(|c| matches!(c.kind, ComponentKind::ThreadDomain(_)))
                .map(|c| c.id())
                .collect();
            let movable: Vec<ComponentId> = a
                .components()
                .iter()
                .filter(|c| c.kind.is_functional())
                .map(|c| c.id())
                .collect();
            let servers: Vec<ComponentId> = a
                .components()
                .iter()
                .filter(|c| c.interface("in").is_some())
                .map(|c| c.id())
                .collect();
            for edits in transactions {
                let (mut moved, mut rebound, mut undo) = (Vec::new(), Vec::new(), Vec::new());
                for (kind, x, y) in edits {
                    if kind == 0 {
                        // What `reassign_domain` does to the architecture.
                        let (comp, new) =
                            (movable[x % movable.len()], domain_ids[y % domain_ids.len()]);
                        let removed = match a.thread_domain_of(comp) {
                            Some((old, _)) => match a.remove_child(old, comp) {
                                Some(edge) => Some(edge),
                                None => continue,
                            },
                            None => None,
                        };
                        if a.parents_of(comp).contains(&new) {
                            if let Some(edge) = removed {
                                a.restore_child(edge);
                            }
                            continue;
                        }
                        a.add_child(new, comp).unwrap();
                        moved.push(comp);
                        undo.push(Edit::Move { comp, removed, new });
                    } else if !a.bindings().is_empty() {
                        let client = a.bindings()[x % a.bindings().len()].client.component;
                        let swap = a
                            .rebind_server(client, "out", servers[y % servers.len()])
                            .unwrap();
                        rebound.push(swap.binding());
                        undo.push(Edit::Rebind(swap));
                    }
                    assert_eq!(
                        is_compliant_after(&a, &moved, &rebound, &mut storage),
                        is_compliant(&a),
                        "moved {moved:?}, rebound {rebound:?}:\n{}",
                        validate(&a)
                    );
                }
                if is_compliant(&a) {
                    committed += 1;
                    continue;
                }
                refused += 1;
                let report = validate(&a);
                for (code, n) in &mut refused_by {
                    if report.by_code(code).any(|d| d.severity == Severity::Error) {
                        *n += 1;
                    }
                }
                while let Some(edit) = undo.pop() {
                    match edit {
                        Edit::Move { comp, removed, new } => {
                            assert!(a.remove_child(new, comp).is_some());
                            if let Some(edge) = removed {
                                a.restore_child(edge);
                            }
                        }
                        Edit::Rebind(swap) => a.restore_server(swap),
                    }
                }
                assert!(is_compliant(&a), "the undo restores a compliant base");
            }
        }
        assert!(
            committed > 0 && refused > 0,
            "{committed} committed, {refused} refused"
        );
        for (code, n) in refused_by {
            assert!(
                n > 0,
                "no transaction was refused by {code}: {refused_by:?}"
            );
        }
    }
}
