//! The deployment plan produced by the generator.
//!
//! A [`SystemSpec`] is the mode-independent description of everything the
//! bootstrapper must materialize: memory areas (with nesting), thread
//! domains, components (with their activation, domain and area), and
//! bindings (with protocol and buffer placement). The plan stores
//! placements only. What the RTSJ rules decide from them — a binding's
//! cross-scope pattern and enter path ([`SystemSpec::crossing`]), a
//! shared service's priority ceiling ([`SystemSpec::ceiling`]) — is
//! derived where it is read, by the validator's own rules, so a plan that
//! reconfiguration re-seats never carries a stale verdict.

use rtsj::memory::MemoryKind;
use rtsj::thread::ThreadKind;
use rtsj::time::RelativeTime;
use soleil_core::validate::{pattern_between, service_ceiling};
use soleil_patterns::PatternKind;

/// The three generation modes of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Mode {
    /// Full componentization: reified membranes, complete introspection and
    /// reconfiguration at functional *and* membrane level.
    Soleil,
    /// Membrane merged into its component: one unit per functional
    /// component, reconfiguration at functional level only.
    MergeAll,
    /// Whole system in a single static unit: only contracts, fault
    /// policies and supervisor edges reconfigure.
    UltraMerge,
}

impl std::fmt::Display for Mode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Mode::Soleil => "SOLEIL",
            Mode::MergeAll => "MERGE-ALL",
            Mode::UltraMerge => "ULTRA-MERGE",
        })
    }
}

/// A memory area to materialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaSpec {
    /// Architecture-level name (`Imm1`, `S1`, …).
    pub name: String,
    /// Region kind. `Heap` and `Immortal` map onto the substrate's
    /// primordial areas; `Scoped` areas are created and wedge-pinned.
    pub kind: MemoryKind,
    /// Size budget (scoped/immortal).
    pub size: Option<usize>,
    /// Index of the enclosing area in [`SystemSpec::areas`], for nested
    /// scopes. Parents must precede children.
    pub parent: Option<usize>,
}

/// A thread domain to materialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DomainSpec {
    /// Architecture-level name (`NHRT1`, …).
    pub name: String,
    /// Thread class of every member.
    pub kind: ThreadKind,
    /// Dispatch priority of every member.
    pub priority: u8,
}

/// How a component is released.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// Time-triggered: the engine injects a `@release` invocation per
    /// period.
    Periodic {
        /// Release period.
        period: RelativeTime,
    },
    /// Message-triggered through asynchronous bindings.
    Sporadic,
    /// Never activated on its own; invoked synchronously by others.
    Passive,
}

/// A functional component to instantiate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentSpec {
    /// Component name.
    pub name: String,
    /// Content-class name resolved through the `ContentRegistry`.
    pub content_class: String,
    /// Release pattern.
    pub activation: Activation,
    /// Index into [`SystemSpec::domains`]; `None` for passive components.
    pub domain: Option<usize>,
    /// Index into [`SystemSpec::areas`]: the component's allocation region.
    pub area: usize,
    /// Server (provided) interface names, in declaration order.
    pub server_ports: Vec<String>,
}

/// Where an asynchronous binding's buffer lives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BufferPlacement {
    /// Heap memory (only when both ends are heap-coupled).
    Heap,
    /// Immortal memory (the exchange-buffer fallback).
    Immortal,
}

/// The wire protocol of a binding.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProtocolSpec {
    /// Direct nested invocation.
    Sync,
    /// Buffered message passing.
    Async {
        /// Buffer capacity in messages.
        capacity: usize,
        /// Buffer placement.
        placement: BufferPlacement,
    },
}

/// A binding to wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BindingSpec {
    /// Client component index.
    pub client: usize,
    /// Client interface name.
    pub client_port: String,
    /// Server component index.
    pub server: usize,
    /// Server interface name.
    pub server_port: String,
    /// Protocol (and buffer settings).
    pub protocol: ProtocolSpec,
}

/// The complete deployment plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SystemSpec {
    /// System name (from the architecture).
    pub name: String,
    /// Areas, parents before children.
    pub areas: Vec<AreaSpec>,
    /// Thread domains.
    pub domains: Vec<DomainSpec>,
    /// Components.
    pub components: Vec<ComponentSpec>,
    /// Bindings.
    pub bindings: Vec<BindingSpec>,
}

impl SystemSpec {
    /// Index of the component named `name`.
    pub fn component_index(&self, name: &str) -> Option<usize> {
        self.components.iter().position(|c| c.name == name)
    }

    /// The deployment's client-port intern universe: every distinct
    /// client-port name across all bindings, in first-appearance order.
    /// The engine assigns dense `u16` port ids by position in this list
    /// (cross-domain request ports are appended by the shard compiler).
    pub fn client_port_names(&self) -> Vec<Box<str>> {
        let mut names: Vec<Box<str>> = Vec::new();
        for b in &self.bindings {
            if !names.iter().any(|n| n.as_ref() == b.client_port) {
                names.push(b.client_port.as_str().into());
            }
        }
        names
    }

    /// The scoped areas a thread standing in area `area` enters, outermost
    /// first (area indices, see [`scoped_chain`]).
    pub fn scope_chain(&self, area: usize) -> Vec<usize> {
        scoped_chain(area, |ix| (self.areas[ix].kind, self.areas[ix].parent))
    }

    /// The crossing of binding `bix` as its ends are placed now: the
    /// cross-scope pattern the memory interceptor runs, picked by the
    /// validator's rule ([`pattern_between`]) over the plan's areas, and
    /// for [`PatternKind::EnterInner`] the scoped areas to enter, outermost
    /// first, past the client's own chain ([`enter_path`]; empty for every
    /// other pattern). The engine compiles each row by the same rule.
    pub fn crossing(&self, bix: usize) -> (PatternKind, Vec<usize>) {
        let b = &self.bindings[bix];
        let (client, server) = (
            self.components[b.client].area,
            self.components[b.server].area,
        );
        // The scope chains are walked only where the rule needs them: to
        // relate two scoped ends, and for an enter-inner path.
        let pattern = pattern_between(
            (client, self.areas[client].kind),
            (server, self.areas[server].kind),
            !matches!(b.protocol, ProtocolSpec::Sync),
            |outer, inner| self.scope_chain(inner).contains(&outer),
        );
        let path = match pattern {
            PatternKind::EnterInner => {
                enter_path(&self.scope_chain(client), &self.scope_chain(server)).to_vec()
            }
            _ => Vec::new(),
        };
        (pattern, path)
    }

    /// The priority ceiling of component `c`, by the validator's rule
    /// ([`service_ceiling`]) over the domains of its synchronous callers
    /// as they are seated now: RTSJ priority-ceiling emulation for a
    /// passive service shared by two or more domains, `None` otherwise.
    pub fn ceiling(&self, c: usize) -> Option<u8> {
        let callers = self
            .bindings
            .iter()
            .filter(|b| b.server == c && matches!(b.protocol, ProtocolSpec::Sync))
            .filter_map(|b| self.components[b.client].domain)
            .map(|d| (d, self.domains[d].priority));
        service_ceiling(
            matches!(self.components[c].activation, Activation::Passive),
            callers,
        )
    }

    /// The release clock's advance per tick, on every shard: the shortest
    /// period of any periodic component (1 ms when nothing is periodic).
    pub(crate) fn tick_quantum(&self) -> RelativeTime {
        self.components
            .iter()
            .filter_map(|c| match c.activation {
                Activation::Periodic { period } => Some(period),
                _ => None,
            })
            .min()
            .unwrap_or(RelativeTime::from_millis(1))
    }

    /// Where the generator places the buffer of an asynchronous binding
    /// between two ends seated at `(area, domain)`: on the heap only when
    /// both ends stand in heap areas and neither runs in an NHRT domain,
    /// in immortal memory (the exchange-buffer fallback) otherwise.
    pub fn placement(
        &self,
        client: (usize, Option<usize>),
        server: (usize, Option<usize>),
    ) -> BufferPlacement {
        let collectable = |(area, domain): (usize, Option<usize>)| {
            self.areas[area].kind == MemoryKind::Heap
                && domain.is_none_or(|d| self.domains[d].kind != ThreadKind::NoHeapRealtime)
        };
        if collectable(client) && collectable(server) {
            BufferPlacement::Heap
        } else {
            BufferPlacement::Immortal
        }
    }

    /// Where component `c` is seated: its area and domain indices, the
    /// placement [`placement`](Self::placement) reads.
    pub fn seat(&self, c: usize) -> (usize, Option<usize>) {
        let comp = &self.components[c];
        (comp.area, comp.domain)
    }

    /// Rough byte size of the spec itself (charged as reified metadata in
    /// SOLEIL mode).
    pub fn metadata_bytes(&self) -> usize {
        let strings: usize = self
            .areas
            .iter()
            .map(|a| a.name.len())
            .chain(self.domains.iter().map(|d| d.name.len()))
            .chain(self.components.iter().flat_map(|c| {
                std::iter::once(c.name.len() + c.content_class.len())
                    .chain(c.server_ports.iter().map(|p| p.len()))
            }))
            .chain(
                self.bindings
                    .iter()
                    .map(|b| b.client_port.len() + b.server_port.len()),
            )
            .sum();
        strings
            + self.areas.len() * std::mem::size_of::<AreaSpec>()
            + self.domains.len() * std::mem::size_of::<DomainSpec>()
            + self.components.len() * std::mem::size_of::<ComponentSpec>()
            + self.bindings.len() * std::mem::size_of::<BindingSpec>()
    }

    /// Structural sanity check: indices in range, parents precede children,
    /// bound ports exist.
    ///
    /// # Errors
    ///
    /// A human-readable description of the first inconsistency.
    pub fn check(&self) -> Result<(), String> {
        for (i, a) in self.areas.iter().enumerate() {
            if let Some(p) = a.parent {
                if p >= i {
                    return Err(format!(
                        "area '{}': parent index {p} not before child {i}",
                        a.name
                    ));
                }
            }
        }
        for c in &self.components {
            if c.area >= self.areas.len() {
                return Err(format!("component '{}': area index out of range", c.name));
            }
            if let Some(d) = c.domain {
                if d >= self.domains.len() {
                    return Err(format!("component '{}': domain index out of range", c.name));
                }
            }
        }
        for b in &self.bindings {
            if b.client >= self.components.len() || b.server >= self.components.len() {
                return Err("binding endpoint index out of range".to_string());
            }
            let server = &self.components[b.server];
            if !server.server_ports.iter().any(|p| p == &b.server_port) {
                return Err(format!(
                    "binding targets unknown server port '{}' on '{}'",
                    b.server_port, server.name
                ));
            }
            if let ProtocolSpec::Async { capacity, .. } = b.protocol {
                if capacity == 0 {
                    return Err(format!(
                        "async binding {}→{} has zero capacity",
                        self.components[b.client].name, server.name
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The scoped areas area `area` stands in — itself when scoped, then every
/// scoped ancestor reached through the `parent` links — outermost first,
/// where `link` gives an area's kind and parent: [`scoped_ancestry`],
/// reversed.
pub fn scoped_chain(
    area: usize,
    link: impl Fn(usize) -> (MemoryKind, Option<usize>),
) -> Vec<usize> {
    let mut chain: Vec<usize> = scoped_ancestry(area, link).collect();
    chain.reverse();
    chain
}

/// The scoped areas area `area` stands in, innermost first: itself when
/// scoped, then every scoped ancestor reached through the `parent` links,
/// where `link` gives an area's kind and parent. The one walk up an area
/// tree: the engine's scope chains and wedge-pin paths, the parallel
/// planner's scope ownership and the generator's enter paths all take it,
/// most through [`scoped_chain`].
pub fn scoped_ancestry(
    area: usize,
    link: impl Fn(usize) -> (MemoryKind, Option<usize>),
) -> impl Iterator<Item = usize> {
    let mut cursor = Some(area);
    std::iter::from_fn(move || {
        while let Some(ix) = cursor {
            let (kind, parent) = link(ix);
            cursor = parent;
            if kind == MemoryKind::Scoped {
                return Some(ix);
            }
        }
        None
    })
}

/// The `EnterInner` path of a call from a client standing in scope chain
/// `client` into a server standing in `server` (both outermost first): the
/// server's chain past their common prefix, which is already on the
/// caller's stack — re-entering it would break the single parent rule.
pub fn enter_path<'a, A: PartialEq>(client: &[A], server: &'a [A]) -> &'a [A] {
    let common = client
        .iter()
        .zip(server)
        .take_while(|(c, s)| c == s)
        .count();
    &server[common..]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> SystemSpec {
        SystemSpec {
            name: "t".into(),
            areas: vec![AreaSpec {
                name: "imm".into(),
                kind: MemoryKind::Immortal,
                size: Some(64 * 1024),
                parent: None,
            }],
            domains: vec![DomainSpec {
                name: "rt".into(),
                kind: ThreadKind::Realtime,
                priority: 20,
            }],
            components: vec![
                ComponentSpec {
                    name: "a".into(),
                    content_class: "A".into(),
                    activation: Activation::Periodic {
                        period: RelativeTime::from_millis(10),
                    },
                    domain: Some(0),
                    area: 0,
                    server_ports: vec![],
                },
                ComponentSpec {
                    name: "b".into(),
                    content_class: "B".into(),
                    activation: Activation::Sporadic,
                    domain: Some(0),
                    area: 0,
                    server_ports: vec!["in".into()],
                },
            ],
            bindings: vec![BindingSpec {
                client: 0,
                client_port: "out".into(),
                server: 1,
                server_port: "in".into(),
                protocol: ProtocolSpec::Async {
                    capacity: 4,
                    placement: BufferPlacement::Immortal,
                },
            }],
        }
    }

    #[test]
    fn valid_spec_checks() {
        tiny_spec().check().unwrap();
        assert_eq!(tiny_spec().component_index("b"), Some(1));
        assert!(tiny_spec().metadata_bytes() > 0);
    }

    #[test]
    fn bad_specs_detected() {
        let mut s = tiny_spec();
        s.bindings[0].server_port = "ghost".into();
        assert!(s.check().is_err());

        let mut s = tiny_spec();
        s.components[0].area = 9;
        assert!(s.check().is_err());

        let mut s = tiny_spec();
        s.bindings[0].protocol = ProtocolSpec::Async {
            capacity: 0,
            placement: BufferPlacement::Immortal,
        };
        assert!(s.check().is_err());

        let mut s = tiny_spec();
        s.areas.push(AreaSpec {
            name: "s".into(),
            kind: MemoryKind::Scoped,
            size: Some(1024),
            parent: Some(5),
        });
        assert!(s.check().is_err());
    }

    #[test]
    fn client_port_names_deduplicate_in_first_appearance_order() {
        let mut s = tiny_spec();
        s.bindings.push(BindingSpec {
            client: 1,
            client_port: "log".into(),
            server: 1,
            server_port: "in".into(),
            protocol: ProtocolSpec::Sync,
        });
        s.bindings.push(BindingSpec {
            client: 1,
            client_port: "out".into(),
            server: 1,
            server_port: "in".into(),
            protocol: ProtocolSpec::Sync,
        });
        let names = s.client_port_names();
        assert_eq!(
            names,
            vec![Box::<str>::from("out"), Box::<str>::from("log")],
            "distinct names only, first appearance wins"
        );
    }

    /// Re-seating a component changes what the plan derives from it: the
    /// crossing, the priority ceiling and the buffer placement.
    #[test]
    fn derived_verdicts_follow_the_placements() {
        let mut s = tiny_spec();
        s.areas.push(AreaSpec {
            name: "scope".into(),
            kind: MemoryKind::Scoped,
            size: Some(1024),
            parent: Some(0),
        });
        s.areas.push(AreaSpec {
            name: "heap".into(),
            kind: MemoryKind::Heap,
            size: None,
            parent: None,
        });
        s.domains.push(DomainSpec {
            name: "hi".into(),
            kind: ThreadKind::NoHeapRealtime,
            priority: 30,
        });
        s.components.push(ComponentSpec {
            name: "svc".into(),
            content_class: "S".into(),
            activation: Activation::Passive,
            domain: None,
            area: 0,
            server_ports: vec!["svc".into()],
        });
        for client in [0, 1] {
            s.bindings.push(BindingSpec {
                client,
                client_port: "svc".into(),
                server: 2,
                server_port: "svc".into(),
                protocol: ProtocolSpec::Sync,
            });
        }
        s.check().unwrap();
        assert_eq!(s.crossing(1), (PatternKind::Direct, vec![]));
        assert_eq!(s.ceiling(2), None, "both callers run in 'rt'");

        s.components[2].area = 1;
        s.components[1].domain = Some(1);
        assert_eq!(s.crossing(1), (PatternKind::EnterInner, vec![1]));
        assert_eq!(s.ceiling(2), Some(30), "callers in 'rt' and 'hi'");
        assert_eq!(s.ceiling(0), None, "only passive services get one");

        assert_eq!(s.placement((2, None), (2, Some(0))), BufferPlacement::Heap);
        assert_eq!(
            s.placement((2, None), (2, Some(1))),
            BufferPlacement::Immortal,
            "an NHRT end"
        );
        assert_eq!(
            s.placement((2, None), (0, None)),
            BufferPlacement::Immortal,
            "an immortal end"
        );
    }

    #[test]
    fn mode_display() {
        assert_eq!(Mode::Soleil.to_string(), "SOLEIL");
        assert_eq!(Mode::MergeAll.to_string(), "MERGE-ALL");
        assert_eq!(Mode::UltraMerge.to_string(), "ULTRA-MERGE");
    }
}
