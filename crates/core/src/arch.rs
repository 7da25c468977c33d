//! The [`Architecture`] container: a component DAG with sharing, a binding
//! table, and the queries the validator and generator build on.
//!
//! The metamodel supports **component sharing** (a component may have
//! several super-components — the feature the paper credits to Fractal), so
//! the containment structure is a DAG, not a tree. A functional component is
//! typically shared between one ThreadDomain (fixing its thread) and one
//! MemoryArea (fixing its allocation region), or reaches them transitively.

use std::collections::{HashMap, HashSet};

use rtsj::memory::MemoryKind;
use rtsj::thread::ThreadKind;

use crate::json::JsonValue;
use crate::model::{
    ActivationKind, Binding, Component, ComponentId, ComponentKind, Endpoint, InterfaceDecl,
    MemoryAreaDesc, Protocol, Role, ThreadDomainDesc,
};
use crate::{ModelError, Result};

/// A containment edge taken out by [`Architecture::remove_child`], with its
/// positions in the parent's child list and the child's parent list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct ChildEdge {
    parent: ComponentId,
    child: ComponentId,
    in_children: usize,
    in_parents: usize,
}

/// The server a binding pointed at before [`Architecture::rebind_server`]
/// re-pointed it: the binding's index and its previous server component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[must_use]
pub struct ServerSwap {
    binding: usize,
    server: ComponentId,
}

impl ServerSwap {
    /// The index of the re-pointed binding in
    /// [`Architecture::bindings`].
    pub fn binding(&self) -> usize {
        self.binding
    }
}

/// A complete (or in-progress) component architecture.
///
/// Construction is incremental: add components, connect hierarchy edges,
/// declare interfaces, add bindings. Structural well-formedness (unique
/// names, acyclic hierarchy, endpoint existence) is enforced eagerly;
/// RTSJ conformance is checked separately by [`crate::validate::validate`].
#[derive(Debug, Clone, Default)]
pub struct Architecture {
    /// Architecture name (diagnostics, generated-code headers).
    pub name: String,
    components: Vec<Component>,
    /// `children[parent]` = list of sub-component ids.
    children: Vec<Vec<ComponentId>>,
    /// `parents[child]` = list of super-component ids (sharing!).
    parents: Vec<Vec<ComponentId>>,
    bindings: Vec<Binding>,
    /// Derived name index; rebuilt by [`Architecture::reindex`] and skipped
    /// by the JSON form.
    by_name: HashMap<String, ComponentId>,
}

impl Architecture {
    /// Creates an empty architecture.
    pub fn new(name: impl Into<String>) -> Self {
        Architecture {
            name: name.into(),
            ..Default::default()
        }
    }

    /// Rebuilds the name index (needed after deserialization).
    pub fn reindex(&mut self) {
        self.by_name = self
            .components
            .iter()
            .map(|c| (c.name.clone(), c.id))
            .collect();
    }

    // -----------------------------------------------------------------
    // Construction
    // -----------------------------------------------------------------

    /// Adds a component of the given kind.
    ///
    /// # Errors
    ///
    /// [`ModelError::DuplicateName`] if the name is taken.
    pub fn add_component(
        &mut self,
        name: impl Into<String>,
        kind: ComponentKind,
    ) -> Result<ComponentId> {
        let name = name.into();
        if self.by_name.contains_key(&name) {
            return Err(ModelError::DuplicateName(name));
        }
        let id = ComponentId(self.components.len() as u32);
        self.components.push(Component {
            id,
            name: name.clone(),
            kind,
            interfaces: Vec::new(),
            content_class: None,
        });
        self.children.push(Vec::new());
        self.parents.push(Vec::new());
        self.by_name.insert(name, id);
        Ok(id)
    }

    /// Sets the content class of a functional component.
    ///
    /// # Errors
    ///
    /// [`ModelError::KindMismatch`] for non-functional components — the
    /// paper is explicit that ThreadDomain and MemoryArea are *exclusively
    /// composite* and carry no functional behaviour.
    pub fn set_content_class(&mut self, id: ComponentId, class: impl Into<String>) -> Result<()> {
        let c = self.component_mut(id)?;
        if !c.kind.is_functional() {
            return Err(ModelError::KindMismatch {
                component: c.name.clone(),
                detail: "non-functional components cannot have a content class".into(),
            });
        }
        c.content_class = Some(class.into());
        Ok(())
    }

    /// Declares an interface on a component.
    ///
    /// # Errors
    ///
    /// * [`ModelError::DuplicateName`] if the interface name is taken on
    ///   this component.
    /// * [`ModelError::KindMismatch`] for non-functional components.
    pub fn add_interface(
        &mut self,
        id: ComponentId,
        name: impl Into<String>,
        role: Role,
        signature: impl Into<String>,
    ) -> Result<()> {
        let c = self.component_mut(id)?;
        if !c.kind.is_functional() {
            return Err(ModelError::KindMismatch {
                component: c.name.clone(),
                detail: "non-functional components expose no functional interfaces".into(),
            });
        }
        let name = name.into();
        if c.interface(&name).is_some() {
            return Err(ModelError::DuplicateName(format!("{}.{}", c.name, name)));
        }
        c.interfaces.push(InterfaceDecl {
            name,
            role,
            signature: signature.into(),
        });
        Ok(())
    }

    /// Adds a containment edge `parent -> child`. Sharing is allowed: a
    /// child may gain several parents.
    ///
    /// # Errors
    ///
    /// * [`ModelError::HierarchyCycle`] if the edge would make the DAG
    ///   cyclic (or `parent == child`).
    /// * [`ModelError::KindMismatch`] if `parent` is Active or Passive
    ///   (only composites contain).
    pub fn add_child(&mut self, parent: ComponentId, child: ComponentId) -> Result<()> {
        self.add_child_in(parent, child, &mut Vec::new())
    }

    /// [`add_child`](Self::add_child), with its cycle check walking in
    /// `walk`'s storage: no allocation once `walk` has held a walk over
    /// every component.
    ///
    /// # Errors
    ///
    /// As [`add_child`](Self::add_child).
    pub fn add_child_in(
        &mut self,
        parent: ComponentId,
        child: ComponentId,
        walk: &mut Vec<ComponentId>,
    ) -> Result<()> {
        let pc = self.component(parent)?;
        if matches!(pc.kind, ComponentKind::Active(_) | ComponentKind::Passive) {
            return Err(ModelError::KindMismatch {
                component: pc.name.clone(),
                detail: "active/passive components cannot contain sub-components".into(),
            });
        }
        self.component(child)?;
        if parent == child || self.is_reachable_in(child, parent, walk) {
            return Err(ModelError::HierarchyCycle(
                self.components[child.0 as usize].name.clone(),
            ));
        }
        if !self.children[parent.0 as usize].contains(&child) {
            self.children[parent.0 as usize].push(child);
            self.parents[child.0 as usize].push(parent);
        }
        Ok(())
    }

    /// Removes the containment edge `parent -> child`. Returns the edge with
    /// its positions in `parent`'s children and `child`'s parents — the
    /// pre-image [`restore_child`](Self::restore_child) re-inserts it at —
    /// or `None` when there is no such direct edge (the child may still be
    /// an indirect member, through a composite in between).
    pub fn remove_child(&mut self, parent: ComponentId, child: ComponentId) -> Option<ChildEdge> {
        let (p, c) = (parent.0 as usize, child.0 as usize);
        let in_children = self.children.get(p)?.iter().position(|&x| x == child)?;
        let in_parents = self.parents.get(c)?.iter().position(|&x| x == parent)?;
        self.children[p].remove(in_children);
        self.parents[c].remove(in_parents);
        Some(ChildEdge {
            parent,
            child,
            in_children,
            in_parents,
        })
    }

    /// Re-inserts an edge [`remove_child`](Self::remove_child) took out, at
    /// the positions it had — the infallible undo of a containment move, so
    /// a rolled-back edit leaves every child and parent list in its old
    /// order.
    pub fn restore_child(&mut self, edge: ChildEdge) {
        let (p, c) = (edge.parent.0 as usize, edge.child.0 as usize);
        if let (Some(children), Some(parents)) = (self.children.get_mut(p), self.parents.get_mut(c))
        {
            children.insert(edge.in_children.min(children.len()), edge.child);
            parents.insert(edge.in_parents.min(parents.len()), edge.parent);
        }
    }

    /// Adds a binding between a client interface and a server interface.
    ///
    /// # Errors
    ///
    /// * [`ModelError::UnknownInterface`] if either endpoint names a
    ///   missing interface.
    /// * [`ModelError::KindMismatch`] if the endpoint roles are wrong or
    ///   the signatures disagree.
    pub fn bind(
        &mut self,
        client: ComponentId,
        client_if: &str,
        server: ComponentId,
        server_if: &str,
        protocol: Protocol,
    ) -> Result<()> {
        self.check_endpoints(client, client_if, server, server_if)?;
        self.bindings.push(Binding {
            client: Endpoint {
                component: client,
                interface: client_if.to_string(),
            },
            server: Endpoint {
                component: server,
                interface: server_if.to_string(),
            },
            protocol,
        });
        Ok(())
    }

    /// The endpoint checks of [`bind`](Self::bind), shared with the JSON
    /// loader: both interfaces exist, the roles are client → server, and
    /// the signatures agree.
    fn check_endpoints(
        &self,
        client: ComponentId,
        client_if: &str,
        server: ComponentId,
        server_if: &str,
    ) -> Result<()> {
        let (c, s) = (self.component(client)?, self.component(server)?);
        let ci = c
            .interface(client_if)
            .ok_or_else(|| ModelError::UnknownInterface {
                component: c.name.clone(),
                interface: client_if.to_string(),
            })?;
        let si = s
            .interface(server_if)
            .ok_or_else(|| ModelError::UnknownInterface {
                component: s.name.clone(),
                interface: server_if.to_string(),
            })?;
        if ci.role != Role::Client {
            return Err(ModelError::KindMismatch {
                component: c.name.clone(),
                detail: format!("interface '{client_if}' is not a client interface"),
            });
        }
        if si.role != Role::Server {
            return Err(ModelError::KindMismatch {
                component: s.name.clone(),
                detail: format!("interface '{server_if}' is not a server interface"),
            });
        }
        if ci.signature != si.signature {
            return Err(ModelError::KindMismatch {
                component: c.name.clone(),
                detail: format!(
                    "signature mismatch: {}.{client_if}: {} vs {}.{server_if}: {}",
                    c.name, ci.signature, s.name, si.signature
                ),
            });
        }
        Ok(())
    }

    /// Removes a binding by exact endpoints; returns whether one was removed.
    pub fn unbind(&mut self, client: ComponentId, client_if: &str) -> bool {
        let before = self.bindings.len();
        self.bindings
            .retain(|b| !(b.client.component == client && b.client.interface == client_if));
        self.bindings.len() != before
    }

    /// Points the binding on `client`'s interface `client_if` at `server`'s
    /// interface of the same name as its current target, in place: the
    /// binding keeps its position in [`bindings`](Self::bindings) and its
    /// protocol. The endpoint checks of [`bind`](Self::bind) run first, so a
    /// refusal changes nothing. Returns the pre-image
    /// [`restore_server`](Self::restore_server) writes back.
    ///
    /// # Errors
    ///
    /// [`ModelError::KindMismatch`] when `client_if` is unbound; the
    /// endpoint errors of [`bind`](Self::bind).
    pub fn rebind_server(
        &mut self,
        client: ComponentId,
        client_if: &str,
        server: ComponentId,
    ) -> Result<ServerSwap> {
        let Some(binding) = self
            .bindings
            .iter()
            .position(|b| b.client.component == client && b.client.interface == client_if)
        else {
            return Err(ModelError::KindMismatch {
                component: self.component(client)?.name.clone(),
                detail: format!("client interface '{client_if}' is unbound"),
            });
        };
        let server_if = &self.bindings[binding].server.interface;
        self.check_endpoints(client, client_if, server, server_if)?;
        let server = std::mem::replace(&mut self.bindings[binding].server.component, server);
        Ok(ServerSwap { binding, server })
    }

    /// Writes a [`rebind_server`](Self::rebind_server) pre-image back — the
    /// infallible undo of an in-place rebind.
    pub fn restore_server(&mut self, swap: ServerSwap) {
        if let Some(b) = self.bindings.get_mut(swap.binding) {
            b.server.component = swap.server;
        }
    }

    // -----------------------------------------------------------------
    // Lookup and traversal
    // -----------------------------------------------------------------

    /// The component with the given id.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownComponent`] for an out-of-range id.
    pub fn component(&self, id: ComponentId) -> Result<&Component> {
        self.components
            .get(id.0 as usize)
            .ok_or_else(|| ModelError::UnknownComponent(format!("{id}")))
    }

    fn component_mut(&mut self, id: ComponentId) -> Result<&mut Component> {
        self.components
            .get_mut(id.0 as usize)
            .ok_or_else(|| ModelError::UnknownComponent(format!("{id}")))
    }

    /// Looks a component up by name.
    pub fn by_name(&self, name: &str) -> Option<&Component> {
        self.by_name
            .get(name)
            .map(|&id| &self.components[id.0 as usize])
    }

    /// Id of the component with the given name.
    ///
    /// # Errors
    ///
    /// [`ModelError::UnknownComponent`] when absent.
    pub fn id_of(&self, name: &str) -> Result<ComponentId> {
        self.by_name
            .get(name)
            .copied()
            .ok_or_else(|| ModelError::UnknownComponent(name.to_string()))
    }

    /// All components, in insertion order.
    pub fn components(&self) -> &[Component] {
        &self.components
    }

    /// All bindings, in insertion order.
    pub fn bindings(&self) -> &[Binding] {
        &self.bindings
    }

    /// Direct sub-components of `id`.
    pub fn children_of(&self, id: ComponentId) -> &[ComponentId] {
        &self.children[id.0 as usize]
    }

    /// Direct super-components of `id` (more than one under sharing).
    pub fn parents_of(&self, id: ComponentId) -> &[ComponentId] {
        &self.parents[id.0 as usize]
    }

    /// Components with no super-component.
    pub fn roots(&self) -> Vec<ComponentId> {
        self.components
            .iter()
            .filter(|c| self.parents[c.id.0 as usize].is_empty())
            .map(|c| c.id)
            .collect()
    }

    /// True when `to` is reachable from `from` following child edges.
    pub fn is_reachable(&self, from: ComponentId, to: ComponentId) -> bool {
        self.is_reachable_in(from, to, &mut Vec::new())
    }

    /// [`is_reachable`](Self::is_reachable), walking in `walk`.
    fn is_reachable_in(
        &self,
        from: ComponentId,
        to: ComponentId,
        walk: &mut Vec<ComponentId>,
    ) -> bool {
        Walk::new(&self.children, &[from], walk).any(|c| c == to)
    }

    /// Every ancestor of `id` (transitive supers, deduplicated, BFS order).
    pub fn ancestors(&self, id: ComponentId) -> Vec<ComponentId> {
        let mut out = Vec::new();
        self.ancestors_into(id, &mut out);
        out
    }

    /// Every descendant of `id` (transitive children, deduplicated).
    pub fn descendants(&self, id: ComponentId) -> Vec<ComponentId> {
        let mut out = Vec::new();
        self.descendants_into(id, &mut out);
        out
    }

    /// [`ancestors`](Self::ancestors) into `out`, replacing its contents
    /// and reusing its capacity.
    pub(crate) fn ancestors_into(&self, id: ComponentId, out: &mut Vec<ComponentId>) {
        Walk::new(&self.parents, &self.parents[id.0 as usize], out).finish();
    }

    /// [`descendants`](Self::descendants) into `out`, replacing its
    /// contents and reusing its capacity.
    pub(crate) fn descendants_into(&self, id: ComponentId, out: &mut Vec<ComponentId>) {
        Walk::new(&self.children, &self.children[id.0 as usize], out).finish();
    }

    /// The ancestors of `id`, nearest first, paired with their kinds: a
    /// walk in `walk`.
    fn ancestor_kinds<'a>(
        &'a self,
        id: ComponentId,
        walk: &'a mut Vec<ComponentId>,
    ) -> impl Iterator<Item = (ComponentId, ComponentKind)> + 'a {
        Walk::new(&self.parents, &self.parents[id.0 as usize], walk)
            .map(|a| (a, self.components[a.0 as usize].kind))
    }

    // -----------------------------------------------------------------
    // Real-time queries
    // -----------------------------------------------------------------

    /// The ancestors of `id` whose kind passes `keep`, nearest first.
    fn ancestors_where(
        &self,
        id: ComponentId,
        keep: fn(&ComponentKind) -> bool,
    ) -> Vec<ComponentId> {
        let mut kept = self.ancestors(id);
        kept.retain(|a| keep(&self.components[a.0 as usize].kind));
        kept
    }

    /// All ThreadDomain ancestors of `id` (usually exactly one for a valid
    /// architecture).
    pub fn thread_domains_of(&self, id: ComponentId) -> Vec<ComponentId> {
        self.ancestors_where(id, |k| matches!(k, ComponentKind::ThreadDomain(_)))
    }

    /// The unique ThreadDomain governing `id`, when exactly one exists.
    pub fn thread_domain_of(&self, id: ComponentId) -> Option<(ComponentId, ThreadDomainDesc)> {
        self.thread_domain_of_in(id, &mut Vec::new())
    }

    /// [`thread_domain_of`](Self::thread_domain_of), walking in `walk`'s
    /// storage: no allocation once `walk` has held a walk over every
    /// component.
    pub fn thread_domain_of_in(
        &self,
        id: ComponentId,
        walk: &mut Vec<ComponentId>,
    ) -> Option<(ComponentId, ThreadDomainDesc)> {
        let mut domains = self
            .ancestor_kinds(id, walk)
            .filter_map(|(a, kind)| match kind {
                ComponentKind::ThreadDomain(desc) => Some((a, desc)),
                _ => None,
            });
        match (domains.next(), domains.next()) {
            (Some(domain), None) => Some(domain),
            _ => None,
        }
    }

    /// All MemoryArea ancestors of `id`, nearest first.
    pub fn memory_areas_of(&self, id: ComponentId) -> Vec<ComponentId> {
        self.ancestors_where(id, |k| matches!(k, ComponentKind::MemoryArea(_)))
    }

    /// The *effective* memory area of `id`: the nearest MemoryArea ancestor
    /// (memory areas may nest, so a component's allocation region is the
    /// innermost enclosing area).
    pub fn memory_area_of(&self, id: ComponentId) -> Option<(ComponentId, MemoryAreaDesc)> {
        self.memory_area_of_in(id, &mut Vec::new())
    }

    /// [`memory_area_of`](Self::memory_area_of), walking in `walk`'s
    /// storage: no allocation once `walk` has held a walk over every
    /// component.
    pub fn memory_area_of_in(
        &self,
        id: ComponentId,
        walk: &mut Vec<ComponentId>,
    ) -> Option<(ComponentId, MemoryAreaDesc)> {
        // BFS over supers yields nearest-first.
        self.ancestor_kinds(id, walk)
            .find_map(|(a, kind)| match kind {
                ComponentKind::MemoryArea(desc) => Some((a, desc)),
                _ => None,
            })
    }

    /// All active components, in insertion order.
    pub fn actives(&self) -> Vec<ComponentId> {
        self.components
            .iter()
            .filter(|c| c.kind.is_active())
            .map(|c| c.id)
            .collect()
    }

    /// All functional (business) components.
    pub fn functional_components(&self) -> Vec<ComponentId> {
        self.components
            .iter()
            .filter(|c| c.kind.is_functional())
            .map(|c| c.id)
            .collect()
    }

    // -----------------------------------------------------------------
    // JSON form (used by `adl::to_json` / `adl::from_json`)
    // -----------------------------------------------------------------

    /// Renders the architecture as a [`JsonValue`] tree. The derived name
    /// index is not serialized; [`Architecture::reindex`] rebuilds it.
    pub(crate) fn to_json_value(&self) -> JsonValue {
        let id_list = |ids: &[ComponentId]| {
            JsonValue::Array(
                ids.iter()
                    .map(|id| JsonValue::Number(i128::from(id.0)))
                    .collect(),
            )
        };
        JsonValue::Object(vec![
            ("name".into(), JsonValue::from(self.name.as_str())),
            (
                "components".into(),
                JsonValue::Array(self.components.iter().map(component_to_json).collect()),
            ),
            (
                "children".into(),
                JsonValue::Array(self.children.iter().map(|ids| id_list(ids)).collect()),
            ),
            (
                "parents".into(),
                JsonValue::Array(self.parents.iter().map(|ids| id_list(ids)).collect()),
            ),
            (
                "bindings".into(),
                JsonValue::Array(self.bindings.iter().map(binding_to_json).collect()),
            ),
        ])
    }

    /// Rebuilds an architecture from its JSON form. The caller is expected
    /// to [`Architecture::reindex`] afterwards (mirroring deserialization).
    pub(crate) fn from_json_value(value: &JsonValue) -> Result<Architecture> {
        let name = require_str(value, "name")?.to_string();
        let components = require_array(value, "components")?
            .iter()
            .map(component_from_json)
            .collect::<Result<Vec<_>>>()?;
        let id_lists = |key: &str| -> Result<Vec<Vec<ComponentId>>> {
            require_array(value, key)?
                .iter()
                .map(|ids| {
                    ids.as_array()
                        .ok_or_else(|| json_err(format!("'{key}' entries must be arrays")))?
                        .iter()
                        .map(|id| {
                            id.as_u32()
                                .map(ComponentId)
                                .ok_or_else(|| json_err("component ids must be u32 numbers"))
                        })
                        .collect()
                })
                .collect()
        };
        let children = id_lists("children")?;
        let parents = id_lists("parents")?;
        let bindings = require_array(value, "bindings")?
            .iter()
            .map(binding_from_json)
            .collect::<Result<Vec<_>>>()?;
        if children.len() != components.len() || parents.len() != components.len() {
            return Err(json_err(
                "children/parents tables must have one entry per component",
            ));
        }
        // Stored ids are also the indices every lookup dereferences; a
        // document with holes or permutations must be refused, not loaded.
        if let Some((ix, c)) = components
            .iter()
            .enumerate()
            .find(|(ix, c)| c.id.0 as usize != *ix)
        {
            return Err(json_err(format!(
                "component '{}' has id {} but sits at index {ix}",
                c.name, c.id.0
            )));
        }
        // reindex() maps names to ids: duplicates would silently shadow
        // earlier components, so refuse them like every construction path.
        let mut names = HashSet::new();
        if let Some(c) = components.iter().find(|c| !names.insert(c.name.as_str())) {
            return Err(json_err(format!("duplicate component name '{}'", c.name)));
        }
        let component_count = components.len() as u32;
        let in_range = |id: &ComponentId| id.0 < component_count;
        if !children.iter().flatten().all(in_range)
            || !parents.iter().flatten().all(in_range)
            || !bindings
                .iter()
                .all(|b| in_range(&b.client.component) && in_range(&b.server.component))
        {
            return Err(json_err("component id out of range"));
        }
        // What the builder refuses, the loader refuses too. The tables are
        // checked in place, never rebuilt, so the document's order (and
        // with it every round-trip) is kept.
        for c in &components {
            if !c.kind.is_functional() && (!c.interfaces.is_empty() || c.content_class.is_some()) {
                return Err(json_err(format!(
                    "non-functional component '{}' declares interfaces or a content class",
                    c.name
                )));
            }
            let mut seen = HashSet::new();
            if let Some(i) = c.interfaces.iter().find(|i| !seen.insert(i.name.as_str())) {
                return Err(json_err(format!(
                    "duplicate interface '{}.{}'",
                    c.name, i.name
                )));
            }
        }
        let arch = Architecture {
            name,
            components,
            children,
            parents,
            bindings: Vec::new(),
            by_name: HashMap::new(),
        };
        arch.check_hierarchy()?;
        for (ix, b) in bindings.iter().enumerate() {
            arch.check_endpoints(
                b.client.component,
                &b.client.interface,
                b.server.component,
                &b.server.interface,
            )
            .map_err(|e| json_err(format!("binding {ix}: {e}")))?;
        }
        Ok(Architecture { bindings, ..arch })
    }

    /// The containment invariants [`add_child`](Self::add_child) keeps,
    /// checked on loaded tables: only composites contain, `parents` mirrors
    /// `children` edge for edge, and the edges form no cycle.
    fn check_hierarchy(&self) -> Result<()> {
        for (parent, kids) in self.components.iter().zip(&self.children) {
            if !kids.is_empty()
                && matches!(
                    parent.kind,
                    ComponentKind::Active(_) | ComponentKind::Passive
                )
            {
                return Err(json_err(format!(
                    "{} component '{}' cannot contain sub-components",
                    parent.kind.label(),
                    parent.name
                )));
            }
            for (i, &child) in kids.iter().enumerate() {
                if kids[..i].contains(&child)
                    || !self.parents[child.0 as usize].contains(&parent.id)
                {
                    return Err(json_err(format!(
                        "'parents' does not mirror 'children' at edge '{}' -> '{}'",
                        parent.name, self.components[child.0 as usize].name
                    )));
                }
            }
        }
        // Every child edge is listed in `parents` once; any further entry
        // is an edge `children` lacks.
        let edges = |table: &[Vec<ComponentId>]| table.iter().map(Vec::len).sum::<usize>();
        if edges(&self.parents) != edges(&self.children) {
            return Err(json_err("'parents' lists edges that 'children' lacks"));
        }
        // Peel off components whose parents are all peeled; whatever is
        // left sits on a cycle or below one.
        let mut unpeeled: Vec<usize> = self.parents.iter().map(Vec::len).collect();
        let mut ready: Vec<usize> = (0..unpeeled.len()).filter(|&c| unpeeled[c] == 0).collect();
        while let Some(parent) = ready.pop() {
            for child in &self.children[parent] {
                let n = &mut unpeeled[child.0 as usize];
                *n -= 1;
                if *n == 0 {
                    ready.push(child.0 as usize);
                }
            }
        }
        match unpeeled.iter().position(|&n| n > 0) {
            Some(c) => Err(json_err(format!(
                "containment cycle at or above component '{}'",
                self.components[c].name
            ))),
            None => Ok(()),
        }
    }
}

/// A breadth-first walk along one edge table (`children` or `parents`).
/// One `Vec` is both the visited set (all of it) and the queue (past
/// `head`), so each reachable component is yielded once, nearest first,
/// and the walk ends on any table, cyclic ones included.
struct Walk<'a> {
    edges: &'a [Vec<ComponentId>],
    visited: &'a mut Vec<ComponentId>,
    head: usize,
}

impl<'a> Walk<'a> {
    /// A walk yielding `seeds` first, kept in `visited` (cleared first).
    /// Ids index the table, so one allocation holds the whole walk, and
    /// none when `visited` already has the capacity.
    fn new(
        edges: &'a [Vec<ComponentId>],
        seeds: &[ComponentId],
        visited: &'a mut Vec<ComponentId>,
    ) -> Self {
        visited.clear();
        if !seeds.is_empty() {
            visited.reserve(edges.len());
        }
        visited.extend_from_slice(seeds);
        Walk {
            edges,
            visited,
            head: 0,
        }
    }

    /// Runs the walk to the end, leaving everything it reached in
    /// `visited`.
    fn finish(mut self) {
        while self.next().is_some() {}
    }
}

impl Iterator for Walk<'_> {
    type Item = ComponentId;

    fn next(&mut self) -> Option<ComponentId> {
        let &c = self.visited.get(self.head)?;
        self.head += 1;
        for &next in &self.edges[c.0 as usize] {
            if !self.visited.contains(&next) {
                self.visited.push(next);
            }
        }
        Some(c)
    }
}

fn json_err(detail: impl Into<String>) -> ModelError {
    ModelError::Parse {
        line: 0,
        detail: detail.into(),
    }
}

fn require_str<'a>(value: &'a JsonValue, key: &str) -> Result<&'a str> {
    value
        .get(key)
        .and_then(JsonValue::as_str)
        .ok_or_else(|| json_err(format!("missing string field '{key}'")))
}

fn require_array<'a>(value: &'a JsonValue, key: &str) -> Result<&'a [JsonValue]> {
    value
        .get(key)
        .and_then(JsonValue::as_array)
        .ok_or_else(|| json_err(format!("missing array field '{key}'")))
}

fn kind_to_json(kind: &ComponentKind) -> JsonValue {
    let mut members = vec![("type".into(), JsonValue::from(kind.label()))];
    match kind {
        ComponentKind::Active(ActivationKind::Periodic { period_ns }) => {
            members.push(("activation".into(), JsonValue::from("periodic")));
            members.push((
                "period_ns".into(),
                JsonValue::Number(i128::from(*period_ns)),
            ));
        }
        ComponentKind::Active(ActivationKind::Sporadic) => {
            members.push(("activation".into(), JsonValue::from("sporadic")));
        }
        ComponentKind::Passive | ComponentKind::Composite => {}
        ComponentKind::ThreadDomain(desc) => {
            members.push(("thread".into(), JsonValue::from(desc.kind.code())));
            members.push((
                "priority".into(),
                JsonValue::Number(i128::from(desc.priority)),
            ));
        }
        ComponentKind::MemoryArea(desc) => {
            members.push(("memory".into(), JsonValue::from(desc.kind.code())));
            members.push((
                "size".into(),
                match desc.size {
                    Some(size) => JsonValue::Number(size as i128),
                    None => JsonValue::Null,
                },
            ));
        }
    }
    JsonValue::Object(members)
}

fn kind_from_json(value: &JsonValue) -> Result<ComponentKind> {
    let tag = require_str(value, "type")?;
    match tag {
        "active" => match require_str(value, "activation")? {
            "periodic" => {
                let period_ns = value
                    .get("period_ns")
                    .and_then(JsonValue::as_u64)
                    .ok_or_else(|| json_err("periodic activation needs 'period_ns'"))?;
                Ok(ComponentKind::Active(ActivationKind::Periodic {
                    period_ns,
                }))
            }
            "sporadic" => Ok(ComponentKind::Active(ActivationKind::Sporadic)),
            other => Err(json_err(format!("unknown activation '{other}'"))),
        },
        "passive" => Ok(ComponentKind::Passive),
        "composite" => Ok(ComponentKind::Composite),
        "thread-domain" => {
            let kind = require_str(value, "thread")?;
            let kind = ThreadKind::parse(kind)
                .ok_or_else(|| json_err(format!("unknown thread kind '{kind}'")))?;
            let priority = value
                .get("priority")
                .and_then(JsonValue::as_u8)
                .ok_or_else(|| json_err("thread-domain needs a u8 'priority'"))?;
            Ok(ComponentKind::ThreadDomain(ThreadDomainDesc {
                kind,
                priority,
            }))
        }
        "memory-area" => {
            let kind = require_str(value, "memory")?;
            let kind = MemoryKind::parse(kind)
                .ok_or_else(|| json_err(format!("unknown memory kind '{kind}'")))?;
            let size = match value.get("size") {
                None | Some(JsonValue::Null) => None,
                Some(v) => Some(
                    v.as_usize()
                        .ok_or_else(|| json_err("memory-area 'size' must be a usize"))?,
                ),
            };
            Ok(ComponentKind::MemoryArea(MemoryAreaDesc { kind, size }))
        }
        other => Err(json_err(format!("unknown component kind '{other}'"))),
    }
}

pub(crate) fn component_to_json(c: &Component) -> JsonValue {
    JsonValue::Object(vec![
        ("id".into(), JsonValue::Number(i128::from(c.id.0))),
        ("name".into(), JsonValue::from(c.name.as_str())),
        ("kind".into(), kind_to_json(&c.kind)),
        (
            "interfaces".into(),
            JsonValue::Array(
                c.interfaces
                    .iter()
                    .map(|i| {
                        JsonValue::Object(vec![
                            ("name".into(), JsonValue::from(i.name.as_str())),
                            ("role".into(), JsonValue::from(i.role.to_string())),
                            ("signature".into(), JsonValue::from(i.signature.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "content_class".into(),
            match &c.content_class {
                Some(class) => JsonValue::from(class.as_str()),
                None => JsonValue::Null,
            },
        ),
    ])
}

pub(crate) fn component_from_json(value: &JsonValue) -> Result<Component> {
    let id = value
        .get("id")
        .and_then(JsonValue::as_u32)
        .map(ComponentId)
        .ok_or_else(|| json_err("component needs a u32 'id'"))?;
    let interfaces = require_array(value, "interfaces")?
        .iter()
        .map(|i| {
            let role = match require_str(i, "role")? {
                "client" => Role::Client,
                "server" => Role::Server,
                other => return Err(json_err(format!("unknown interface role '{other}'"))),
            };
            Ok(InterfaceDecl {
                name: require_str(i, "name")?.to_string(),
                role,
                signature: require_str(i, "signature")?.to_string(),
            })
        })
        .collect::<Result<Vec<_>>>()?;
    let content_class = match value.get("content_class") {
        None | Some(JsonValue::Null) => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| json_err("'content_class' must be a string or null"))?
                .to_string(),
        ),
    };
    Ok(Component {
        id,
        name: require_str(value, "name")?.to_string(),
        kind: kind_from_json(
            value
                .get("kind")
                .ok_or_else(|| json_err("component needs a 'kind'"))?,
        )?,
        interfaces,
        content_class,
    })
}

fn endpoint_to_json(e: &Endpoint) -> JsonValue {
    JsonValue::Object(vec![
        (
            "component".into(),
            JsonValue::Number(i128::from(e.component.0)),
        ),
        ("interface".into(), JsonValue::from(e.interface.as_str())),
    ])
}

fn endpoint_from_json(value: &JsonValue) -> Result<Endpoint> {
    Ok(Endpoint {
        component: value
            .get("component")
            .and_then(JsonValue::as_u32)
            .map(ComponentId)
            .ok_or_else(|| json_err("endpoint needs a u32 'component'"))?,
        interface: require_str(value, "interface")?.to_string(),
    })
}

fn binding_to_json(b: &Binding) -> JsonValue {
    let protocol = match b.protocol {
        Protocol::Synchronous => {
            JsonValue::Object(vec![("type".into(), JsonValue::from("synchronous"))])
        }
        Protocol::Asynchronous { buffer_size } => JsonValue::Object(vec![
            ("type".into(), JsonValue::from("asynchronous")),
            ("buffer_size".into(), JsonValue::Number(buffer_size as i128)),
        ]),
    };
    JsonValue::Object(vec![
        ("client".into(), endpoint_to_json(&b.client)),
        ("server".into(), endpoint_to_json(&b.server)),
        ("protocol".into(), protocol),
    ])
}

fn binding_from_json(value: &JsonValue) -> Result<Binding> {
    let protocol = value
        .get("protocol")
        .ok_or_else(|| json_err("binding needs a 'protocol'"))?;
    let protocol = match require_str(protocol, "type")? {
        "synchronous" => Protocol::Synchronous,
        "asynchronous" => Protocol::Asynchronous {
            buffer_size: protocol
                .get("buffer_size")
                .and_then(JsonValue::as_usize)
                .ok_or_else(|| json_err("asynchronous protocol needs 'buffer_size'"))?,
        },
        other => return Err(json_err(format!("unknown protocol '{other}'"))),
    };
    Ok(Binding {
        client: endpoint_from_json(
            value
                .get("client")
                .ok_or_else(|| json_err("binding needs a 'client'"))?,
        )?,
        server: endpoint_from_json(
            value
                .get("server")
                .ok_or_else(|| json_err("binding needs a 'server'"))?,
        )?,
        protocol,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsj::memory::MemoryKind;
    use rtsj::thread::ThreadKind;

    fn arch_with_sharing() -> (Architecture, ComponentId, ComponentId, ComponentId) {
        let mut a = Architecture::new("t");
        let comp = a
            .add_component("worker", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let domain = a
            .add_component(
                "nhrt",
                ComponentKind::ThreadDomain(ThreadDomainDesc {
                    kind: ThreadKind::NoHeapRealtime,
                    priority: 30,
                }),
            )
            .unwrap();
        let area = a
            .add_component(
                "imm",
                ComponentKind::MemoryArea(MemoryAreaDesc {
                    kind: MemoryKind::Immortal,
                    size: Some(1024),
                }),
            )
            .unwrap();
        a.add_child(domain, comp).unwrap();
        a.add_child(area, domain).unwrap();
        (a, comp, domain, area)
    }

    #[test]
    fn names_are_unique() {
        let mut a = Architecture::new("t");
        a.add_component("x", ComponentKind::Passive).unwrap();
        assert!(matches!(
            a.add_component("x", ComponentKind::Passive),
            Err(ModelError::DuplicateName(_))
        ));
    }

    #[test]
    fn sharing_gives_multiple_parents() {
        let (mut a, comp, domain, _area) = arch_with_sharing();
        let area2 = a
            .add_component(
                "s1",
                ComponentKind::MemoryArea(MemoryAreaDesc {
                    kind: MemoryKind::Scoped,
                    size: Some(512),
                }),
            )
            .unwrap();
        a.add_child(area2, comp).unwrap();
        assert_eq!(a.parents_of(comp).len(), 2);
        assert!(a.parents_of(comp).contains(&domain));
        assert!(a.parents_of(comp).contains(&area2));
    }

    #[test]
    fn cycles_rejected() {
        let (mut a, comp, _domain, area) = arch_with_sharing();
        assert!(matches!(
            a.add_child(comp, area),
            Err(ModelError::KindMismatch { .. })
        ));
        // Composite cycle: area -> domain -> comp; adding domain as parent of area is a cycle.
        let composite = a.add_component("outer", ComponentKind::Composite).unwrap();
        a.add_child(composite, area).unwrap();
        let err = a.add_child(area, composite).unwrap_err();
        assert!(matches!(err, ModelError::HierarchyCycle(_)));
    }

    #[test]
    fn self_edge_rejected() {
        let mut a = Architecture::new("t");
        let c = a.add_component("c", ComponentKind::Composite).unwrap();
        assert!(matches!(
            a.add_child(c, c),
            Err(ModelError::HierarchyCycle(_))
        ));
    }

    #[test]
    fn thread_domain_and_area_queries() {
        let (a, comp, domain, area) = arch_with_sharing();
        let (d, desc) = a.thread_domain_of(comp).unwrap();
        assert_eq!(d, domain);
        assert_eq!(desc.kind, ThreadKind::NoHeapRealtime);
        let (m, mdesc) = a.memory_area_of(comp).unwrap();
        assert_eq!(m, area);
        assert_eq!(mdesc.kind, MemoryKind::Immortal);
        // The domain itself lives in the area.
        assert_eq!(a.memory_area_of(domain).unwrap().0, area);
    }

    #[test]
    fn nested_areas_nearest_wins() {
        let mut a = Architecture::new("t");
        let outer = a
            .add_component(
                "outer",
                ComponentKind::MemoryArea(MemoryAreaDesc {
                    kind: MemoryKind::Immortal,
                    size: Some(4096),
                }),
            )
            .unwrap();
        let inner = a
            .add_component(
                "inner",
                ComponentKind::MemoryArea(MemoryAreaDesc {
                    kind: MemoryKind::Scoped,
                    size: Some(1024),
                }),
            )
            .unwrap();
        let c = a.add_component("c", ComponentKind::Passive).unwrap();
        a.add_child(outer, inner).unwrap();
        a.add_child(inner, c).unwrap();
        assert_eq!(a.memory_area_of(c).unwrap().0, inner);
        assert_eq!(a.memory_areas_of(c), vec![inner, outer]);
    }

    #[test]
    fn binding_role_and_signature_checked() {
        let mut a = Architecture::new("t");
        let p = a
            .add_component("producer", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let q = a.add_component("consumer", ComponentKind::Passive).unwrap();
        a.add_interface(p, "out", Role::Client, "IMsg").unwrap();
        a.add_interface(q, "in", Role::Server, "IMsg").unwrap();
        a.add_interface(q, "other", Role::Server, "IOther").unwrap();

        // Wrong direction.
        assert!(a.bind(q, "in", p, "out", Protocol::Synchronous).is_err());
        // Signature mismatch.
        assert!(a.bind(p, "out", q, "other", Protocol::Synchronous).is_err());
        // Correct.
        a.bind(p, "out", q, "in", Protocol::Asynchronous { buffer_size: 4 })
            .unwrap();
        assert_eq!(a.bindings().len(), 1);
        assert_eq!(
            (
                a.bindings()[0].client.component,
                a.bindings()[0].server.component
            ),
            (p, q)
        );
    }

    #[test]
    fn unbind_removes() {
        let mut a = Architecture::new("t");
        let p = a
            .add_component("p", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        let q = a.add_component("q", ComponentKind::Passive).unwrap();
        a.add_interface(p, "out", Role::Client, "I").unwrap();
        a.add_interface(q, "in", Role::Server, "I").unwrap();
        a.bind(p, "out", q, "in", Protocol::Synchronous).unwrap();
        assert!(a.unbind(p, "out"));
        assert!(!a.unbind(p, "out"));
        assert!(a.bindings().is_empty());
    }

    /// The undo pair of a rebind: the server swaps in place after the
    /// `bind` checks, and the pre-image writes the old server back.
    #[test]
    fn rebind_server_swaps_in_place_and_restores() {
        let mut a = Architecture::new("t");
        let p = a
            .add_component("p", ComponentKind::Active(ActivationKind::Sporadic))
            .unwrap();
        a.add_interface(p, "out", Role::Client, "I").unwrap();
        a.add_interface(p, "log", Role::Client, "I").unwrap();
        let mut servers = Vec::new();
        for (name, sig) in [("q", "I"), ("r", "I"), ("bad", "J")] {
            let id = a.add_component(name, ComponentKind::Passive).unwrap();
            a.add_interface(id, "in", Role::Server, sig).unwrap();
            servers.push(id);
        }
        let [q, r, bad] = servers[..] else {
            unreachable!()
        };
        a.bind(p, "out", q, "in", Protocol::Synchronous).unwrap();
        a.bind(p, "log", q, "in", Protocol::Synchronous).unwrap();
        let before = a.bindings().to_vec();

        assert!(a.rebind_server(p, "out", bad).is_err(), "signature checked");
        assert!(a.rebind_server(q, "out", r).is_err(), "unbound port");
        assert_eq!(a.bindings(), before, "refusals change nothing");
        let swap = a.rebind_server(p, "out", r).unwrap();
        assert_eq!(a.bindings()[0].server.component, r, "kept its position");
        a.restore_server(swap);
        assert_eq!(a.bindings(), before);
    }

    /// The undo pair of a containment move: the removed edge comes back at
    /// the positions it had in both lists.
    #[test]
    fn remove_child_restores_the_edge_at_its_positions() {
        let (mut a, comp, domain, _area) = arch_with_sharing();
        let other = a.add_component("other", ComponentKind::Passive).unwrap();
        a.add_child(domain, other).unwrap();
        let (children, parents) = (a.children_of(domain).to_vec(), a.parents_of(comp).to_vec());
        let edge = a.remove_child(domain, comp).unwrap();
        assert!(a.remove_child(domain, comp).is_none(), "edge already gone");
        assert_eq!(a.children_of(domain), [other]);
        a.add_child(domain, comp).unwrap();
        assert_eq!(a.children_of(domain), [other, comp], "re-added at the end");
        assert!(a.remove_child(domain, comp).is_some());
        a.restore_child(edge);
        assert_eq!(a.children_of(domain), children);
        assert_eq!(a.parents_of(comp), parents);
    }

    #[test]
    fn interfaces_forbidden_on_non_functional() {
        let (mut a, _comp, domain, _area) = arch_with_sharing();
        assert!(matches!(
            a.add_interface(domain, "i", Role::Server, "I"),
            Err(ModelError::KindMismatch { .. })
        ));
        assert!(matches!(
            a.set_content_class(domain, "Impl"),
            Err(ModelError::KindMismatch { .. })
        ));
    }

    #[test]
    fn roots_and_descendants() {
        let (a, comp, domain, area) = arch_with_sharing();
        assert_eq!(a.roots(), vec![area]);
        let desc = a.descendants(area);
        assert!(desc.contains(&domain));
        assert!(desc.contains(&comp));
        assert!(a.is_reachable(area, comp));
        assert!(!a.is_reachable(comp, area));
    }

    #[test]
    fn json_rejects_mismatched_component_ids() {
        // Stored ids are the indices lookups dereference: out-of-range or
        // permuted ids must be refused at load time, not panic later.
        let out_of_range = r#"{
            "name": "t",
            "components": [{"id": 99, "name": "w", "kind": {"type": "passive"},
                            "interfaces": [], "content_class": null}],
            "children": [[]],
            "parents": [[]],
            "bindings": []
        }"#;
        let err = crate::adl::from_json(out_of_range).unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("id 99"), "{err}");

        let permuted = r#"{
            "name": "t",
            "components": [
                {"id": 1, "name": "a", "kind": {"type": "passive"},
                 "interfaces": [], "content_class": null},
                {"id": 0, "name": "b", "kind": {"type": "passive"},
                 "interfaces": [], "content_class": null}
            ],
            "children": [[], []],
            "parents": [[], []],
            "bindings": []
        }"#;
        assert!(crate::adl::from_json(permuted).is_err());

        let duplicate_names = r#"{
            "name": "t",
            "components": [
                {"id": 0, "name": "a", "kind": {"type": "passive"},
                 "interfaces": [], "content_class": null},
                {"id": 1, "name": "a", "kind": {"type": "passive"},
                 "interfaces": [], "content_class": null}
            ],
            "children": [[], []],
            "parents": [[], []],
            "bindings": []
        }"#;
        let err = crate::adl::from_json(duplicate_names).unwrap_err();
        assert!(err.to_string().contains("duplicate"), "{err}");
    }

    /// A JSON document must not load what `add_child` refuses: the loaded
    /// hierarchy would pass `validate` and fail only at deploy time.
    #[test]
    fn json_rejects_containment_cycles() {
        let scope_cycle = r#"{
            "name": "t",
            "components": [
                {"id": 0, "name": "s1", "kind": {"type": "memory-area", "memory": "scope",
                 "size": 1024}, "interfaces": [], "content_class": null},
                {"id": 1, "name": "s2", "kind": {"type": "memory-area", "memory": "scope",
                 "size": 1024}, "interfaces": [], "content_class": null},
                {"id": 2, "name": "p", "kind": {"type": "passive"},
                 "interfaces": [], "content_class": null}
            ],
            "children": [[1, 2], [0], []],
            "parents": [[1], [0], [0]],
            "bindings": []
        }"#;
        let err = crate::adl::from_json(scope_cycle).unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("cycle"), "{err}");
    }

    #[test]
    fn json_rejects_parents_that_do_not_mirror_children() {
        let doc = |parents: &str| {
            format!(
                r#"{{
                "name": "t",
                "components": [
                    {{"id": 0, "name": "imm", "kind": {{"type": "memory-area",
                     "memory": "immortal", "size": 1024}}, "interfaces": [],
                     "content_class": null}},
                    {{"id": 1, "name": "p", "kind": {{"type": "passive"}},
                     "interfaces": [], "content_class": null}}
                ],
                "children": [[1], []],
                "parents": {parents},
                "bindings": []
            }}"#
            )
        };
        // The mirror loads; a missing, an extra or a doubled entry does not.
        assert!(crate::adl::from_json(&doc("[[], [0]]")).is_ok());
        for parents in ["[[], []]", "[[1], [0]]", "[[], [0, 0]]"] {
            let err = crate::adl::from_json(&doc(parents)).unwrap_err();
            assert!(matches!(err, ModelError::Parse { .. }), "{parents}: {err}");
            assert!(err.to_string().contains("mirror") || err.to_string().contains("lacks"));
        }
    }

    #[test]
    fn json_rejects_bindings_the_builder_refuses() {
        let doc = |server_if: &str| {
            format!(
                r#"{{
                "name": "t",
                "components": [
                    {{"id": 0, "name": "p", "kind": {{"type": "active",
                     "activation": "sporadic"}}, "interfaces": [{{"name": "out",
                     "role": "client", "signature": "I"}}], "content_class": null}},
                    {{"id": 1, "name": "q", "kind": {{"type": "passive"}},
                     "interfaces": [{{"name": "in", "role": "server", "signature": "I"}}],
                     "content_class": null}}
                ],
                "children": [[], []],
                "parents": [[], []],
                "bindings": [{{"client": {{"component": 0, "interface": "out"}},
                               "server": {{"component": 1, "interface": "{server_if}"}},
                               "protocol": {{"type": "synchronous"}}}}]
            }}"#
            )
        };
        assert!(crate::adl::from_json(&doc("in")).is_ok());
        let err = crate::adl::from_json(&doc("missing")).unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("missing"), "{err}");
    }

    #[test]
    fn json_rejects_components_the_builder_refuses() {
        let doc = |domain_ifs: &str, passive_ifs: &str, children: &str, parents: &str| {
            format!(
                r#"{{
                "name": "t",
                "components": [
                    {{"id": 0, "name": "d", "kind": {{"type": "thread-domain",
                     "thread": "RT", "priority": 20}}, "interfaces": {domain_ifs},
                     "content_class": null}},
                    {{"id": 1, "name": "p", "kind": {{"type": "passive"}},
                     "interfaces": {passive_ifs}, "content_class": null}}
                ],
                "children": {children},
                "parents": {parents},
                "bindings": []
            }}"#
            )
        };
        let one = r#"[{"name": "in", "role": "server", "signature": "I"}]"#;
        let two = r#"[{"name": "in", "role": "server", "signature": "I"},
                      {"name": "in", "role": "server", "signature": "J"}]"#;
        let (d_holds_p, p_holds_d) = (("[[1], []]", "[[], [0]]"), ("[[], [0]]", "[[1], []]"));
        assert!(crate::adl::from_json(&doc("[]", one, d_holds_p.0, d_holds_p.1)).is_ok());
        // Interfaces on a ThreadDomain, a doubled interface name, and a
        // passive component containing its domain.
        for (text, needle) in [
            (doc(one, one, d_holds_p.0, d_holds_p.1), "non-functional"),
            (
                doc("[]", two, d_holds_p.0, d_holds_p.1),
                "duplicate interface 'p.in'",
            ),
            (doc("[]", one, p_holds_d.0, p_holds_d.1), "cannot contain"),
        ] {
            let err = crate::adl::from_json(&text).unwrap_err();
            assert!(matches!(err, ModelError::Parse { .. }), "{err}");
            assert!(err.to_string().contains(needle), "{needle}: {err}");
        }
    }

    #[test]
    fn json_roundtrip_with_reindex() {
        let (a, comp, ..) = arch_with_sharing();
        let json = a.to_json_value().to_pretty();
        let parsed = crate::json::parse(&json).unwrap();
        let mut back = Architecture::from_json_value(&parsed).unwrap();
        back.reindex();
        assert_eq!(back.id_of("worker").unwrap(), comp);
        assert_eq!(back.components().len(), a.components().len());
    }
}
