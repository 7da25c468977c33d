//! Architecture → deployment-plan compilation.
//!
//! [`compile`] performs the analysis the paper's generator runs over the RT
//! System Architecture: it refuses non-compliant input (the validator runs
//! first), orders memory areas parent-before-child, resolves every
//! functional component's governing ThreadDomain and effective MemoryArea,
//! and places asynchronous buffers out of reach of the collector whenever
//! an NHRT touches them. The plan keeps placements only: each binding's
//! cross-scope pattern and each shared service's priority ceiling are
//! derived from them by the validator's rules when read
//! ([`SystemSpec::crossing`], [`SystemSpec::ceiling`]).

use std::fmt;

use rtsj::time::RelativeTime;
use soleil_core::model::{ActivationKind, ComponentId, ComponentKind, Protocol, Role};
use soleil_core::validate::{ValidatedArchitecture, ValidationReport};
use soleil_core::Architecture;
use soleil_membrane::FrameworkError;
use soleil_runtime::spec::{
    Activation, AreaSpec, BindingSpec, ComponentSpec, DomainSpec, ProtocolSpec,
};
use soleil_runtime::SystemSpec;

/// Failures of the generation process.
#[derive(Debug)]
#[non_exhaustive]
pub enum GeneratorError {
    /// The architecture is not RTSJ-compliant; the full report is attached
    /// (the paper: "compositions violating RTSJ will be refused").
    Validation(ValidationReport),
    /// A functional component has no content class to instantiate.
    MissingContent(String),
    /// An inconsistency the validator cannot express (internal).
    Inconsistent(String),
    /// The runtime failed to build the compiled spec.
    Build(FrameworkError),
}

impl fmt::Display for GeneratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GeneratorError::Validation(report) => {
                write!(f, "architecture violates RTSJ:\n{report}")
            }
            GeneratorError::MissingContent(c) => {
                write!(f, "component '{c}' has no content class")
            }
            GeneratorError::Inconsistent(m) => write!(f, "inconsistent architecture: {m}"),
            GeneratorError::Build(e) => write!(f, "infrastructure build failed: {e}"),
        }
    }
}

impl std::error::Error for GeneratorError {}

impl From<GeneratorError> for soleil_core::SoleilError {
    fn from(e: GeneratorError) -> Self {
        use soleil_core::SoleilError;
        match e {
            // A refused architecture keeps its full structured report.
            GeneratorError::Validation(report) => SoleilError::Validation(report),
            // Runtime build failures re-use the framework-layer conversion.
            GeneratorError::Build(framework) => SoleilError::from(framework),
            other => SoleilError::Generator(other.to_string()),
        }
    }
}

/// Compiles a validated architecture into a [`SystemSpec`].
///
/// The [`ValidatedArchitecture`] witness carries the design-time
/// conformance proof, so compilation does **not** re-run the validator —
/// that is the paper's contract made literal: the toolchain downstream of
/// validation trusts its input, and the type system guarantees the input
/// went through validation (or through the explicit
/// [`ValidatedArchitecture::assume_valid`] escape hatch, in which case
/// structural inconsistencies still surface as
/// [`GeneratorError::Inconsistent`]).
///
/// An unchecked [`Architecture`] is rejected at compile time:
///
/// ```compile_fail
/// use soleil_core::Architecture;
///
/// fn try_compile(arch: &Architecture) {
///     // ERROR: `compile` takes `&ValidatedArchitecture`, not a raw
///     // `&Architecture` — validate first.
///     let _ = soleil_generator::compile(arch);
/// }
/// ```
///
/// # Errors
///
/// See [`GeneratorError`].
pub fn compile(arch: &ValidatedArchitecture) -> Result<SystemSpec, GeneratorError> {
    compile_spec(arch)
}

pub(crate) fn compile_spec(arch: &Architecture) -> Result<SystemSpec, GeneratorError> {
    // --- Areas, parents before children. -------------------------------
    let area_components: Vec<ComponentId> = arch
        .components()
        .iter()
        .filter(|c| matches!(c.kind, ComponentKind::MemoryArea(_)))
        .map(|c| c.id())
        .collect();
    // Topological order: repeatedly take areas whose area-parent is placed.
    let mut ordered: Vec<ComponentId> = Vec::with_capacity(area_components.len());
    let area_parent = |id: ComponentId| -> Option<ComponentId> {
        arch.parents_of(id).iter().copied().find(|&p| {
            matches!(
                arch.component(p).map(|c| c.kind),
                Ok(ComponentKind::MemoryArea(_))
            )
        })
    };
    let mut remaining = area_components.clone();
    while !remaining.is_empty() {
        let before = remaining.len();
        remaining.retain(|&id| {
            let ready = match area_parent(id) {
                Some(p) => ordered.contains(&p),
                None => true,
            };
            if ready {
                ordered.push(id);
            }
            !ready
        });
        if remaining.len() == before {
            return Err(GeneratorError::Inconsistent(
                "memory-area nesting contains a cycle".into(),
            ));
        }
    }
    let mut areas = Vec::with_capacity(ordered.len());
    for &id in &ordered {
        let c = arch.component(id).expect("known area");
        let ComponentKind::MemoryArea(desc) = c.kind else {
            unreachable!("filtered on MemoryArea")
        };
        let parent = area_parent(id).map(|p| {
            ordered
                .iter()
                .position(|&o| o == p)
                .expect("parents placed first")
        });
        areas.push(AreaSpec {
            name: c.name.clone(),
            kind: desc.kind,
            size: desc.size,
            parent,
        });
    }
    let area_index = |id: ComponentId| ordered.iter().position(|&o| o == id);

    // --- Domains. -------------------------------------------------------
    let domain_components: Vec<ComponentId> = arch
        .components()
        .iter()
        .filter(|c| matches!(c.kind, ComponentKind::ThreadDomain(_)))
        .map(|c| c.id())
        .collect();
    let domains: Vec<DomainSpec> = domain_components
        .iter()
        .map(|&id| {
            let c = arch.component(id).expect("known domain");
            let ComponentKind::ThreadDomain(desc) = c.kind else {
                unreachable!("filtered on ThreadDomain")
            };
            DomainSpec {
                name: c.name.clone(),
                kind: desc.kind,
                priority: desc.priority,
            }
        })
        .collect();

    // --- Components (functional, non-composite). ------------------------
    let functional: Vec<ComponentId> = arch
        .components()
        .iter()
        .filter(|c| matches!(c.kind, ComponentKind::Active(_) | ComponentKind::Passive))
        .map(|c| c.id())
        .collect();
    let mut components = Vec::with_capacity(functional.len());
    for &id in &functional {
        let c = arch.component(id).expect("known component");
        let content_class = c
            .content_class
            .clone()
            .ok_or_else(|| GeneratorError::MissingContent(c.name.clone()))?;
        let activation = match c.kind {
            ComponentKind::Active(ActivationKind::Periodic { period_ns }) => Activation::Periodic {
                period: RelativeTime::from_nanos(period_ns),
            },
            ComponentKind::Active(ActivationKind::Sporadic) => Activation::Sporadic,
            ComponentKind::Passive => Activation::Passive,
            _ => unreachable!("filtered on functional"),
        };
        let domain = arch
            .thread_domain_of(id)
            .and_then(|(d, _)| domain_components.iter().position(|&x| x == d));
        let (area_id, _) = arch.memory_area_of(id).ok_or_else(|| {
            GeneratorError::Inconsistent(format!("component '{}' has no memory area", c.name))
        })?;
        let area = area_index(area_id).ok_or_else(|| {
            GeneratorError::Inconsistent(format!("area of '{}' not compiled", c.name))
        })?;
        components.push(ComponentSpec {
            name: c.name.clone(),
            content_class,
            activation,
            domain,
            area,
            server_ports: c
                .interfaces_with_role(Role::Server)
                .map(|i| i.name.clone())
                .collect(),
        });
    }
    let comp_index = |id: ComponentId| functional.iter().position(|&f| f == id);

    // --- Bindings. --------------------------------------------------------
    let mut spec = SystemSpec {
        name: arch.name.clone(),
        areas,
        domains,
        components,
        bindings: Vec::with_capacity(arch.bindings().len()),
    };
    for b in arch.bindings() {
        let client = comp_index(b.client.component).ok_or_else(|| {
            GeneratorError::Inconsistent("binding client is not a functional component".into())
        })?;
        let server = comp_index(b.server.component).ok_or_else(|| {
            GeneratorError::Inconsistent("binding server is not a functional component".into())
        })?;
        let protocol = match b.protocol {
            Protocol::Synchronous => ProtocolSpec::Sync,
            Protocol::Asynchronous { buffer_size } => ProtocolSpec::Async {
                capacity: buffer_size,
                placement: spec.placement(spec.seat(client), spec.seat(server)),
            },
        };
        spec.bindings.push(BindingSpec {
            client,
            client_port: b.client.interface.clone(),
            server,
            server_port: b.server.interface.clone(),
            protocol,
        });
    }

    spec.check().map_err(GeneratorError::Inconsistent)?;
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use soleil_core::adl::{from_xml, MOTIVATION_EXAMPLE_XML};
    use soleil_core::prelude::*;
    use soleil_core::validate::validate;
    use soleil_patterns::PatternKind;
    use soleil_runtime::spec::BufferPlacement;

    fn motivation() -> ValidatedArchitecture {
        from_xml(MOTIVATION_EXAMPLE_XML)
            .unwrap()
            .into_validated()
            .unwrap()
    }

    #[test]
    fn compiles_motivation_example() {
        let spec = compile(&motivation()).unwrap();
        assert_eq!(spec.name, "production-line-monitoring");
        assert_eq!(spec.areas.len(), 3);
        assert_eq!(spec.domains.len(), 3);
        assert_eq!(spec.components.len(), 4);
        assert_eq!(spec.bindings.len(), 3);

        // ProductionLine: periodic 10ms, NHRT1, Imm1.
        let pl_ix = spec.component_index("ProductionLine").unwrap();
        let pl = &spec.components[pl_ix];
        assert!(
            matches!(pl.activation, Activation::Periodic { period } if period == RelativeTime::from_millis(10))
        );
        assert_eq!(spec.domains[pl.domain.unwrap()].name, "NHRT1");
        assert_eq!(spec.areas[pl.area].name, "Imm1");

        // Console is passive in the scoped area.
        let console = &spec.components[spec.component_index("Console").unwrap()];
        assert!(matches!(console.activation, Activation::Passive));
        assert_eq!(spec.areas[console.area].kind, MemoryKind::Scoped);

        // The sync binding into Console crosses into a scope: enter-inner.
        let sync = spec
            .bindings
            .iter()
            .position(|b| matches!(b.protocol, ProtocolSpec::Sync))
            .unwrap();
        let s1 = spec.areas.iter().position(|a| a.name == "S1").unwrap();
        assert_eq!(spec.crossing(sync), (PatternKind::EnterInner, vec![s1]));

        // Async buffers: producer NHRT -> immortal placement everywhere.
        for b in &spec.bindings {
            if let ProtocolSpec::Async { placement, .. } = b.protocol {
                assert_eq!(placement, BufferPlacement::Immortal);
            }
        }
    }

    #[test]
    fn non_compliant_architectures_refused() {
        let mut b = BusinessView::new("bad");
        b.active_sporadic("orphan").unwrap();
        b.content("orphan", "X").unwrap();
        let arch = DesignFlow::new(b).merge().unwrap();
        // No domain, no area: the consuming validator refuses and hands
        // the architecture back with the report.
        let rejected = arch.into_validated().unwrap_err();
        assert!(!rejected.report.is_compliant());
        assert!(rejected.report.by_code("SOL-001").next().is_some());
        assert_eq!(rejected.architecture.name, "bad");
    }

    #[test]
    fn missing_content_class_refused() {
        let mut b = BusinessView::new("x");
        b.active_periodic("p", "10ms").unwrap(); // no content class
        let mut flow = DesignFlow::new(b);
        flow.thread_domain("d", ThreadKind::Realtime, 20, &["p"])
            .unwrap();
        flow.memory_area("m", MemoryKind::Immortal, Some(4096), &["d"])
            .unwrap();
        let arch = flow.merge().unwrap().into_validated().unwrap();
        assert!(matches!(
            compile(&arch),
            Err(GeneratorError::MissingContent(_))
        ));
    }

    #[test]
    fn heap_to_heap_regular_buffers_stay_on_heap() {
        let mut b = BusinessView::new("heapy");
        b.active_periodic("p", "5ms").unwrap();
        b.active_sporadic("q").unwrap();
        b.content("p", "P").unwrap();
        b.content("q", "Q").unwrap();
        b.require("p", "out", "I").unwrap();
        b.provide("q", "in", "I").unwrap();
        b.bind_async("p", "out", "q", "in", 4).unwrap();
        let mut flow = DesignFlow::new(b);
        flow.thread_domain("reg", ThreadKind::Regular, 5, &["p", "q"])
            .unwrap();
        flow.memory_area("h", MemoryKind::Heap, None, &["reg"])
            .unwrap();
        let spec = compile(&flow.merge().unwrap().into_validated().unwrap()).unwrap();
        let ProtocolSpec::Async { placement, .. } = spec.bindings[0].protocol else {
            panic!("async binding expected")
        };
        assert_eq!(placement, BufferPlacement::Heap);
    }

    #[test]
    fn nested_areas_order_parent_first() {
        let mut b = BusinessView::new("nested");
        b.passive("leaf").unwrap();
        b.content("leaf", "L").unwrap();
        let mut flow = DesignFlow::new(b);
        flow.memory_area("outer", MemoryKind::Scoped, Some(8192), &[])
            .unwrap();
        flow.memory_area("inner", MemoryKind::Scoped, Some(1024), &["leaf"])
            .unwrap();
        let mut arch = flow.merge().unwrap();
        // Nest inner inside outer manually (views API keeps them flat).
        let outer = arch.id_of("outer").unwrap();
        let inner = arch.id_of("inner").unwrap();
        arch.add_child(outer, inner).unwrap();
        let spec = compile(&arch.into_validated().unwrap()).unwrap();
        let outer_ix = spec.areas.iter().position(|a| a.name == "outer").unwrap();
        let inner_ix = spec.areas.iter().position(|a| a.name == "inner").unwrap();
        assert!(outer_ix < inner_ix);
        assert_eq!(spec.areas[inner_ix].parent, Some(outer_ix));
    }

    #[test]
    fn converts_into_unified_error_preserving_diagnostics() {
        // An active component with no ThreadDomain violates SOL-001; the
        // refusal must survive conversion into SoleilError with the
        // validator's structured diagnostic text intact.
        let mut b = BusinessView::new("bad");
        b.active_sporadic("orphan").unwrap();
        b.content("orphan", "O").unwrap();
        let arch = DesignFlow::new(b).merge().unwrap();
        let report = validate(&arch);
        assert!(!report.is_compliant());
        let err = GeneratorError::Validation(report.clone());
        let unified = SoleilError::from(err);
        let SoleilError::Validation(kept) = &unified else {
            panic!("expected SoleilError::Validation, got {unified}");
        };
        assert_eq!(kept.len(), report.len());
        let rendered = unified.to_string();
        for d in report.diagnostics() {
            assert!(
                rendered.contains(&d.to_string()),
                "missing '{d}' in:\n{rendered}"
            );
        }

        let missing = GeneratorError::MissingContent("pump".into());
        let text = missing.to_string();
        assert_eq!(SoleilError::from(missing).to_string(), text);
    }
}
