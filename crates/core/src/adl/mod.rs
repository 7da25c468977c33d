//! The architecture description language of Fig. 4.
//!
//! The canonical form is the paper's XML dialect ([`from_xml`] /
//! [`to_xml`]); a JSON form ([`from_json`] / [`to_json`], backed by
//! [`crate::json`]) is provided for tooling. The XML structure is consistent with the metamodel
//! of Fig. 2:
//!
//! ```xml
//! <ActiveComponent name="ProductionLine" type="periodic" periodicity="10ms">
//!   <interface name="iMonitor" role="client" signature="IMonitor" />
//!   <content class="ProductionLineImpl" />
//! </ActiveComponent>
//! <Binding>
//!   <client cname="ProductionLine" iname="iMonitor" />
//!   <server cname="MonitoringSystem" iname="iMonitor" />
//!   <BindDesc protocol="asynchronous" bufferSize="10" />
//! </Binding>
//! <MemoryArea name="Imm1">
//!   <ThreadDomain name="NHRT1">
//!     <ActiveComp name="ProductionLine" />
//!     <DomainDesc type="NHRT" priority="30" />
//!   </ThreadDomain>
//!   <AreaDesc type="immortal" size="600KB" />
//! </MemoryArea>
//! ```

pub mod xml;

use rtsj::memory::MemoryKind;
use rtsj::thread::ThreadKind;

use crate::arch::Architecture;
use crate::model::{
    ActivationKind, ComponentId, ComponentKind, MemoryAreaDesc, Protocol, Role, ThreadDomainDesc,
};
use crate::units::{format_duration, format_size, parse_duration, parse_size};
use crate::{ModelError, Result};
use xml::{parse_document, write_node, XmlNode};

fn parse_err(detail: impl Into<String>) -> ModelError {
    ModelError::Parse {
        line: 0,
        detail: detail.into(),
    }
}

// ---------------------------------------------------------------------------
// XML -> Architecture
// ---------------------------------------------------------------------------

/// Parses the XML ADL dialect into an [`Architecture`].
///
/// Top-level elements may appear in any order; an optional enclosing
/// `<Architecture name="...">` element is accepted.
///
/// # Errors
///
/// [`ModelError::Parse`] on syntax errors; construction errors
/// ([`ModelError::DuplicateName`], …) when the document is structurally
/// inconsistent.
pub fn from_xml(text: &str) -> Result<Architecture> {
    let nodes = parse_document(text)?;
    // Unwrap the optional <Architecture> envelope.
    let (arch_name, top): (String, Vec<XmlNode>) = match nodes.as_slice() {
        [single] if single.name == "Architecture" => (
            single.get("name").unwrap_or("unnamed").to_string(),
            single.children.clone(),
        ),
        _ => ("unnamed".to_string(), nodes),
    };
    let mut arch = Architecture::new(arch_name);

    // Pass 1: functional components.
    for node in &top {
        match node.name.as_str() {
            "ActiveComponent" => {
                let name = node.require("name")?;
                let activation = match node.get("type").unwrap_or("sporadic") {
                    "periodic" => {
                        let period = parse_duration(node.require("periodicity")?)?;
                        ActivationKind::Periodic {
                            period_ns: period.as_nanos(),
                        }
                    }
                    "sporadic" => ActivationKind::Sporadic,
                    other => {
                        return Err(parse_err(format!(
                            "unknown activation type '{other}' on component '{name}'"
                        )))
                    }
                };
                let id = arch.add_component(name, ComponentKind::Active(activation))?;
                read_functional_children(&mut arch, id, node)?;
            }
            "PassiveComponent" => {
                let id = arch.add_component(node.require("name")?, ComponentKind::Passive)?;
                read_functional_children(&mut arch, id, node)?;
            }
            "CompositeComponent" => {
                let id = arch.add_component(node.require("name")?, ComponentKind::Composite)?;
                read_functional_children(&mut arch, id, node)?;
            }
            _ => {}
        }
    }

    // Pass 2: composite membership (needs all functional components).
    for node in &top {
        if node.name == "CompositeComponent" {
            let parent = arch.id_of(node.require("name")?)?;
            for sub in node.children_named("Sub") {
                let child = arch.id_of(sub.require("name")?)?;
                arch.add_child(parent, child)?;
            }
        }
    }

    // Pass 3: non-functional tree (MemoryAreas / ThreadDomains).
    for node in &top {
        if node.name == "MemoryArea" || node.name == "ThreadDomain" {
            read_non_functional(&mut arch, node)?;
        }
    }

    // Pass 4: bindings.
    for node in &top {
        if node.name == "Binding" {
            read_binding(&mut arch, node)?;
        }
    }

    Ok(arch)
}

fn read_functional_children(
    arch: &mut Architecture,
    id: ComponentId,
    node: &XmlNode,
) -> Result<()> {
    for child in &node.children {
        match child.name.as_str() {
            "interface" => {
                let role = match child.require("role")? {
                    "client" => Role::Client,
                    "server" => Role::Server,
                    other => return Err(parse_err(format!("unknown interface role '{other}'"))),
                };
                arch.add_interface(
                    id,
                    child.require("name")?,
                    role,
                    child.require("signature")?,
                )?;
            }
            "content" => {
                arch.set_content_class(id, child.require("class")?)?;
            }
            "Sub" => {} // handled in pass 2
            other => {
                return Err(parse_err(format!(
                    "unexpected element <{other}> inside a functional component"
                )))
            }
        }
    }
    Ok(())
}

fn read_non_functional(arch: &mut Architecture, node: &XmlNode) -> Result<ComponentId> {
    let name = node.require("name")?;
    let id = match node.name.as_str() {
        "MemoryArea" => {
            let desc = node.first_child("AreaDesc").ok_or_else(|| {
                parse_err(format!("MemoryArea '{name}' is missing its <AreaDesc>"))
            })?;
            let kind = MemoryKind::parse(desc.require("type")?)
                .ok_or_else(|| parse_err(format!("unknown memory type on area '{name}'")))?;
            let size = desc.get("size").map(parse_size).transpose()?;
            arch.add_component(
                name,
                ComponentKind::MemoryArea(MemoryAreaDesc { kind, size }),
            )?
        }
        "ThreadDomain" => {
            let desc = node.first_child("DomainDesc").ok_or_else(|| {
                parse_err(format!("ThreadDomain '{name}' is missing its <DomainDesc>"))
            })?;
            let kind = ThreadKind::parse(desc.require("type")?)
                .ok_or_else(|| parse_err(format!("unknown thread type on domain '{name}'")))?;
            let priority = match desc.get("priority") {
                Some(p) => p.parse::<u8>().map_err(|_| ModelError::BadAttribute {
                    attribute: "priority".into(),
                    value: p.to_string(),
                })?,
                None => match kind {
                    ThreadKind::Regular => 5,
                    _ => 20,
                },
            };
            arch.add_component(
                name,
                ComponentKind::ThreadDomain(ThreadDomainDesc { kind, priority }),
            )?
        }
        other => {
            return Err(parse_err(format!(
                "unexpected non-functional element <{other}>"
            )))
        }
    };

    for child in &node.children {
        match child.name.as_str() {
            "AreaDesc" | "DomainDesc" => {}
            "ActiveComp" | "PassiveComp" | "Comp" => {
                let member = arch.id_of(child.require("name")?)?;
                arch.add_child(id, member)?;
            }
            "MemoryArea" | "ThreadDomain" => {
                let sub = read_non_functional(arch, child)?;
                arch.add_child(id, sub)?;
            }
            other => {
                return Err(parse_err(format!(
                    "unexpected element <{other}> inside <{}>",
                    node.name
                )))
            }
        }
    }
    Ok(id)
}

fn read_binding(arch: &mut Architecture, node: &XmlNode) -> Result<()> {
    let client = node
        .first_child("client")
        .ok_or_else(|| parse_err("Binding missing <client>"))?;
    let server = node
        .first_child("server")
        .ok_or_else(|| parse_err("Binding missing <server>"))?;
    let protocol = match node.first_child("BindDesc") {
        None => Protocol::Synchronous,
        Some(desc) => match desc.get("protocol").unwrap_or("synchronous") {
            "synchronous" => Protocol::Synchronous,
            "asynchronous" => {
                let buffer_size = desc
                    .get("bufferSize")
                    .unwrap_or("1")
                    .parse::<usize>()
                    .map_err(|_| ModelError::BadAttribute {
                        attribute: "bufferSize".into(),
                        value: desc.get("bufferSize").unwrap_or("").to_string(),
                    })?;
                Protocol::Asynchronous { buffer_size }
            }
            other => return Err(parse_err(format!("unknown binding protocol '{other}'"))),
        },
    };
    let c = arch.id_of(client.require("cname")?)?;
    let s = arch.id_of(server.require("cname")?)?;
    arch.bind(
        c,
        client.require("iname")?,
        s,
        server.require("iname")?,
        protocol,
    )
}

// ---------------------------------------------------------------------------
// Architecture -> XML
// ---------------------------------------------------------------------------

/// Serializes an [`Architecture`] into the XML ADL dialect.
///
/// The output round-trips through [`from_xml`].
pub fn to_xml(arch: &Architecture) -> String {
    let mut root = XmlNode::new("Architecture").attr("name", &arch.name);

    // Functional components.
    for c in arch.components() {
        let node = match c.kind {
            ComponentKind::Active(activation) => {
                let mut n = XmlNode::new("ActiveComponent").attr("name", &c.name);
                match activation {
                    ActivationKind::Periodic { period_ns } => {
                        n = n.attr("type", "periodic").attr(
                            "periodicity",
                            format_duration(rtsj::time::RelativeTime::from_nanos(period_ns)),
                        );
                    }
                    ActivationKind::Sporadic => {
                        n = n.attr("type", "sporadic");
                    }
                }
                Some(n)
            }
            ComponentKind::Passive => Some(XmlNode::new("PassiveComponent").attr("name", &c.name)),
            ComponentKind::Composite => {
                let mut n = XmlNode::new("CompositeComponent").attr("name", &c.name);
                for &child in arch.children_of(c.id()) {
                    if let Ok(cc) = arch.component(child) {
                        n = n.child(XmlNode::new("Sub").attr("name", &cc.name));
                    }
                }
                Some(n)
            }
            _ => None,
        };
        if let Some(mut n) = node {
            for i in &c.interfaces {
                n = n.child(
                    XmlNode::new("interface")
                        .attr("name", &i.name)
                        .attr("role", i.role.to_string())
                        .attr("signature", &i.signature),
                );
            }
            if let Some(class) = &c.content_class {
                n = n.child(XmlNode::new("content").attr("class", class));
            }
            root = root.child(n);
        }
    }

    // Bindings.
    for b in arch.bindings() {
        let cname = |id| {
            arch.component(id)
                .map(|c| c.name.clone())
                .unwrap_or_default()
        };
        let mut n = XmlNode::new("Binding")
            .child(
                XmlNode::new("client")
                    .attr("cname", cname(b.client.component))
                    .attr("iname", &b.client.interface),
            )
            .child(
                XmlNode::new("server")
                    .attr("cname", cname(b.server.component))
                    .attr("iname", &b.server.interface),
            );
        n = match b.protocol {
            Protocol::Synchronous => {
                n.child(XmlNode::new("BindDesc").attr("protocol", "synchronous"))
            }
            Protocol::Asynchronous { buffer_size } => n.child(
                XmlNode::new("BindDesc")
                    .attr("protocol", "asynchronous")
                    .attr("bufferSize", buffer_size.to_string()),
            ),
        };
        root = root.child(n);
    }

    // Non-functional tree: emit each root-level MemoryArea/ThreadDomain.
    for c in arch.components() {
        let non_functional_root = c.kind.is_non_functional()
            && arch
                .parents_of(c.id())
                .iter()
                .all(|&p| !matches!(arch.component(p), Ok(pc) if pc.kind.is_non_functional()));
        if non_functional_root {
            root = root.child(write_non_functional(arch, c.id()));
        }
    }

    let mut out = String::new();
    write_node(&root, 0, &mut out);
    out
}

fn write_non_functional(arch: &Architecture, id: ComponentId) -> XmlNode {
    let c = arch.component(id).expect("writing known component");
    let mut node = match c.kind {
        ComponentKind::MemoryArea(desc) => {
            let mut d = XmlNode::new("AreaDesc").attr("type", desc.kind.code());
            if let Some(size) = desc.size {
                d = d.attr("size", format_size(size));
            }
            XmlNode::new("MemoryArea").attr("name", &c.name).child(d)
        }
        ComponentKind::ThreadDomain(desc) => {
            XmlNode::new("ThreadDomain").attr("name", &c.name).child(
                XmlNode::new("DomainDesc")
                    .attr("type", desc.kind.code())
                    .attr("priority", desc.priority.to_string()),
            )
        }
        _ => unreachable!("write_non_functional on functional component"),
    };
    for &child in arch.children_of(id) {
        let cc = arch.component(child).expect("child exists");
        match cc.kind {
            ComponentKind::MemoryArea(_) | ComponentKind::ThreadDomain(_) => {
                node = node.child(write_non_functional(arch, child));
            }
            ComponentKind::Active(_) => {
                node = node.child(XmlNode::new("ActiveComp").attr("name", &cc.name));
            }
            ComponentKind::Passive => {
                node = node.child(XmlNode::new("PassiveComp").attr("name", &cc.name));
            }
            ComponentKind::Composite => {
                node = node.child(XmlNode::new("Comp").attr("name", &cc.name));
            }
        }
    }
    node
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

/// Serializes an architecture as pretty-printed JSON.
pub fn to_json(arch: &Architecture) -> String {
    arch.to_json_value().to_pretty()
}

/// Parses an architecture from its JSON form.
///
/// # Errors
///
/// [`ModelError::Parse`] when the JSON is malformed or describes an
/// architecture the builder API refuses: ids that are not their table
/// indices, duplicate component or interface names, interfaces or a
/// content class on a non-functional component, sub-components of an
/// active or passive component, a `parents` table that does not mirror
/// `children`, a containment cycle, or a binding
/// [`Architecture::bind`] refuses.
pub fn from_json(text: &str) -> Result<Architecture> {
    let value = crate::json::parse(text)?;
    let mut arch = Architecture::from_json_value(&value)?;
    arch.reindex();
    Ok(arch)
}

/// The paper's Fig. 4 document, usable as a fixture by tests, examples and
/// benchmarks.
pub const MOTIVATION_EXAMPLE_XML: &str = r#"
<Architecture name="production-line-monitoring">
  <!-- Functional Components -->
  <ActiveComponent name="ProductionLine" type="periodic" periodicity="10ms">
    <interface name="iMonitor" role="client" signature="IMonitor" />
    <content class="ProductionLineImpl" />
  </ActiveComponent>
  <ActiveComponent name="MonitoringSystem" type="sporadic">
    <interface name="iMonitor" role="server" signature="IMonitor" />
    <interface name="iConsole" role="client" signature="IConsole" />
    <interface name="iAudit" role="client" signature="IAudit" />
    <content class="MonitoringSystemImpl" />
  </ActiveComponent>
  <PassiveComponent name="Console">
    <interface name="iConsole" role="server" signature="IConsole" />
    <content class="ConsoleImpl" />
  </PassiveComponent>
  <ActiveComponent name="AuditLog" type="sporadic">
    <interface name="iAudit" role="server" signature="IAudit" />
    <content class="AuditLogImpl" />
  </ActiveComponent>

  <!-- Bindings -->
  <Binding>
    <client cname="ProductionLine" iname="iMonitor" />
    <server cname="MonitoringSystem" iname="iMonitor" />
    <BindDesc protocol="asynchronous" bufferSize="10" />
  </Binding>
  <Binding>
    <client cname="MonitoringSystem" iname="iConsole" />
    <server cname="Console" iname="iConsole" />
    <BindDesc protocol="synchronous" />
  </Binding>
  <Binding>
    <client cname="MonitoringSystem" iname="iAudit" />
    <server cname="AuditLog" iname="iAudit" />
    <BindDesc protocol="asynchronous" bufferSize="10" />
  </Binding>

  <!-- Non-Functional Components -->
  <MemoryArea name="Imm1">
    <ThreadDomain name="NHRT1">
      <ActiveComp name="ProductionLine" />
      <DomainDesc type="NHRT" priority="30" />
    </ThreadDomain>
    <ThreadDomain name="NHRT2">
      <ActiveComp name="MonitoringSystem" />
      <DomainDesc type="NHRT" priority="25" />
    </ThreadDomain>
    <AreaDesc type="immortal" size="600KB" />
  </MemoryArea>
  <MemoryArea name="S1">
    <PassiveComp name="Console" />
    <AreaDesc type="scope" size="28KB" />
  </MemoryArea>
  <MemoryArea name="H1">
    <ThreadDomain name="reg1">
      <ActiveComp name="AuditLog" />
      <DomainDesc type="Regular" priority="5" />
    </ThreadDomain>
    <AreaDesc type="heap" />
  </MemoryArea>
</Architecture>
"#;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate;

    #[test]
    fn motivation_example_parses() {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML).unwrap();
        assert_eq!(arch.name, "production-line-monitoring");
        assert_eq!(arch.components().len(), 10);
        assert_eq!(arch.bindings().len(), 3);

        let pl = arch.by_name("ProductionLine").unwrap();
        assert!(matches!(
            pl.kind,
            ComponentKind::Active(ActivationKind::Periodic {
                period_ns: 10_000_000
            })
        ));
        assert_eq!(pl.content_class.as_deref(), Some("ProductionLineImpl"));

        let (domain, ddesc) = arch.thread_domain_of(pl.id()).unwrap();
        assert_eq!(arch.component(domain).unwrap().name, "NHRT1");
        assert_eq!(ddesc.kind, ThreadKind::NoHeapRealtime);
        assert_eq!(ddesc.priority, 30);

        let console = arch.by_name("Console").unwrap();
        let (_, adesc) = arch.memory_area_of(console.id()).unwrap();
        assert_eq!(adesc.kind, MemoryKind::Scoped);
        assert_eq!(adesc.size, Some(28 * 1024));
    }

    #[test]
    fn motivation_example_is_compliant() {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML).unwrap();
        let report = validate(&arch);
        assert!(report.is_compliant(), "{report}");
    }

    #[test]
    fn xml_roundtrip_preserves_structure() {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML).unwrap();
        let text = to_xml(&arch);
        let back = from_xml(&text).unwrap();
        assert_eq!(back.components().len(), arch.components().len());
        assert_eq!(back.bindings().len(), arch.bindings().len());
        for c in arch.components() {
            let bc = back.by_name(&c.name).unwrap();
            assert_eq!(bc.kind, c.kind, "kind of {}", c.name);
            assert_eq!(bc.interfaces, c.interfaces, "interfaces of {}", c.name);
            assert_eq!(bc.content_class, c.content_class);
            // Parent sets match by name.
            let mut pa: Vec<String> = arch
                .parents_of(c.id())
                .iter()
                .map(|&p| arch.component(p).unwrap().name.clone())
                .collect();
            let mut pb: Vec<String> = back
                .parents_of(bc.id())
                .iter()
                .map(|&p| back.component(p).unwrap().name.clone())
                .collect();
            pa.sort();
            pb.sort();
            assert_eq!(pa, pb, "parents of {}", c.name);
        }
    }

    #[test]
    fn json_roundtrip() {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML).unwrap();
        let json = to_json(&arch);
        let back = from_json(&json).unwrap();
        assert_eq!(to_json(&back), json, "the loader keeps every table's order");
        assert_eq!(back.components().len(), arch.components().len());
        assert_eq!(
            back.id_of("Console").unwrap(),
            arch.id_of("Console").unwrap()
        );
    }

    #[test]
    fn missing_area_desc_rejected() {
        let doc = r#"<MemoryArea name="m"><PassiveComp name="x" /></MemoryArea>"#;
        let err = from_xml(doc).unwrap_err();
        assert!(matches!(err, ModelError::Parse { .. }), "{err}");
    }

    #[test]
    fn unknown_member_rejected() {
        let doc = r#"
          <MemoryArea name="m">
            <PassiveComp name="ghost" />
            <AreaDesc type="heap" />
          </MemoryArea>"#;
        assert!(matches!(
            from_xml(doc),
            Err(ModelError::UnknownComponent(_))
        ));
    }

    #[test]
    fn unknown_protocol_rejected() {
        let doc = r#"
          <PassiveComponent name="a"><interface name="o" role="client" signature="I" /></PassiveComponent>
          <PassiveComponent name="b"><interface name="i" role="server" signature="I" /></PassiveComponent>
          <Binding>
            <client cname="a" iname="o" />
            <server cname="b" iname="i" />
            <BindDesc protocol="psychic" />
          </Binding>"#;
        assert!(from_xml(doc).is_err());
    }

    #[test]
    fn default_priorities_apply() {
        let doc = r#"
          <ActiveComponent name="a" type="sporadic" />
          <ThreadDomain name="d">
            <ActiveComp name="a" />
            <DomainDesc type="Regular" />
          </ThreadDomain>"#;
        let arch = from_xml(doc).unwrap();
        let d = arch.by_name("d").unwrap();
        match d.kind {
            ComponentKind::ThreadDomain(desc) => assert_eq!(desc.priority, 5),
            _ => panic!("expected domain"),
        }
    }

    #[test]
    fn composite_membership_roundtrips() {
        let doc = r#"
          <PassiveComponent name="leaf" />
          <CompositeComponent name="box"><Sub name="leaf" /></CompositeComponent>
        "#;
        let arch = from_xml(doc).unwrap();
        let b = arch.id_of("box").unwrap();
        assert_eq!(arch.children_of(b).len(), 1);
        let text = to_xml(&arch);
        let back = from_xml(&text).unwrap();
        assert_eq!(back.children_of(back.id_of("box").unwrap()).len(), 1);
    }
}
