//! Source emission and code-generation metrics (§5.2 / E4).
//!
//! The paper evaluates its generator against the requirements of Bordin &
//! Vardanega: separation of concerns, compactness of generated code, and a
//! clear distinction between generated and hand-written code. This module
//! renders, for each generation mode, the source listing of the execution
//! infrastructure — exactly the units the Java toolchain would emit — and
//! computes the metrics the E4 experiment reports:
//!
//! * **units** — generated compilation units (SOLEIL: one per membrane
//!   part; MERGE-ALL: one per functional component; ULTRA-MERGE: one);
//! * **lines** — total generated source lines;
//! * **indirections** — dynamic dispatch points on the invocation path.
//!
//! The emitted text is legal-looking Rust derived entirely from the spec;
//! hand-written content classes are *referenced*, never inlined, keeping
//! the generated/manual boundary visible.

use std::fmt::Write as _;

use soleil_runtime::spec::{Activation, Mode, ProtocolSpec, SystemSpec};

/// One generated compilation unit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedUnit {
    /// Unit (file/struct) name.
    pub name: String,
    /// What the unit implements.
    pub role: &'static str,
    /// Rendered source text.
    pub source: String,
}

impl GeneratedUnit {
    /// Number of source lines in the unit.
    pub fn lines(&self) -> usize {
        self.source.lines().count()
    }
}

/// The full output of one generation run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratedSource {
    /// Mode the source was generated for.
    pub mode: Mode,
    /// Generated units.
    pub units: Vec<GeneratedUnit>,
}

/// The §5.2 metrics for one mode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CodegenMetrics {
    /// Generated compilation units.
    pub units: usize,
    /// Total generated lines.
    pub lines: usize,
    /// Dynamic-dispatch points per synchronous invocation.
    pub indirections_per_call: usize,
    /// True when the mode retains membrane-level reconfiguration.
    pub membrane_reconfigurable: bool,
    /// True when the mode retains functional-level reconfiguration.
    pub functional_reconfigurable: bool,
}

impl GeneratedSource {
    /// Computes the metrics of this generation run.
    pub fn metrics(&self) -> CodegenMetrics {
        let lines = self.units.iter().map(GeneratedUnit::lines).sum();
        let (indirections, membrane_rc, functional_rc) = match self.mode {
            // lifecycle gate + membrane jump-table resolve + content
            // dispatch. The interceptor chain itself no longer counts: it
            // is compiled at deploy time into a fused enum plan with no
            // dynamic dispatch (see soleil-membrane's CompiledChain), and
            // client ports are interned into dense ids so the resolve is
            // an indexed jump, not a name scan.
            Mode::Soleil => (3, true, true),
            // compiled [slot][port_id] jump-table entry + content dispatch.
            Mode::MergeAll => (2, false, true),
            // flat jump table + content dispatch.
            Mode::UltraMerge => (1, false, false),
        };
        CodegenMetrics {
            units: self.units.len(),
            lines,
            indirections_per_call: indirections,
            membrane_reconfigurable: membrane_rc,
            functional_reconfigurable: functional_rc,
        }
    }

    /// Concatenates every unit into one listing (with unit banners).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "// ===== generated by soleil-generator | mode: {} =====",
            self.mode
        );
        for u in &self.units {
            let _ = writeln!(out, "\n// ----- unit: {} ({}) -----", u.name, u.role);
            out.push_str(&u.source);
        }
        out
    }
}

fn sanitize(name: &str) -> String {
    let mut s: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect();
    if s.chars().next().is_some_and(|c| c.is_ascii_digit()) {
        s.insert(0, '_');
    }
    s
}

/// Emits the execution-infrastructure source for `spec` in `mode`.
pub fn emit_source(spec: &SystemSpec, mode: Mode) -> GeneratedSource {
    let units = match mode {
        Mode::Soleil => emit_soleil(spec),
        Mode::MergeAll => emit_merge_all(spec),
        Mode::UltraMerge => vec![emit_ultra(spec)],
    };
    GeneratedSource { mode, units }
}

fn activation_comment(a: &Activation) -> String {
    match a {
        Activation::Periodic { period } => format!("periodic, period = {period}"),
        Activation::Sporadic => "sporadic (message-triggered)".to_string(),
        Activation::Passive => "passive service".to_string(),
    }
}

fn emit_bindings_table(spec: &SystemSpec, slot: usize, out: &mut String) {
    let universe = spec.client_port_names();
    for (bix, b) in spec.bindings.iter().enumerate() {
        if b.client != slot {
            continue;
        }
        let proto = match b.protocol {
            ProtocolSpec::Sync => "sync".to_string(),
            ProtocolSpec::Async { capacity, .. } => format!("async(cap={capacity})"),
        };
        // The dense id is the port's index in the deployment-wide intern
        // table; dispatch jumps through [slot][id], never scanning names.
        let id = universe
            .iter()
            .position(|p| p.as_ref() == b.client_port)
            .expect("bound client port is in the intern universe");
        let _ = writeln!(
            out,
            "    //   {} [id {id}] -> {}.{} [{proto}, pattern: {}]",
            b.client_port,
            spec.components[b.server].name,
            b.server_port,
            spec.crossing(bix).0
        );
    }
}

fn emit_soleil(spec: &SystemSpec) -> Vec<GeneratedUnit> {
    let mut units = Vec::new();
    for (slot, c) in spec.components.iter().enumerate() {
        let ty = sanitize(&c.name);
        // Wrapper unit referencing the hand-written content class.
        let mut src = String::new();
        let _ = writeln!(src, "/// Generated wrapper for component `{}`.", c.name);
        let _ = writeln!(src, "/// activation: {}", activation_comment(&c.activation));
        let _ = writeln!(src, "pub struct {ty}Component {{");
        let _ = writeln!(
            src,
            "    content: {},  // hand-written content class",
            c.content_class
        );
        let _ = writeln!(src, "    membrane: {ty}Membrane,");
        let _ = writeln!(src, "}}");
        units.push(GeneratedUnit {
            name: format!("{ty}Component"),
            role: "component wrapper",
            source: src,
        });

        // Membrane unit.
        let mut src = String::new();
        let _ = writeln!(src, "/// Generated membrane for `{}`.", c.name);
        let _ = writeln!(src, "pub struct {ty}Membrane {{");
        let _ = writeln!(src, "    lifecycle: LifecycleController,");
        let _ = writeln!(src, "    binding: BindingController,");
        let plan = if matches!(c.activation, Activation::Passive) {
            "[] (fusion: empty)"
        } else {
            "[ActiveInterceptor] (fusion: fused-active)"
        };
        let _ = writeln!(
            src,
            "    chain: CompiledChain,  // deploy-time plan: {plan}"
        );
        let _ = writeln!(
            src,
            "    poisoned: bool,  // set by a contained panic until a restart"
        );
        let _ = writeln!(src, "    // binding table:");
        emit_bindings_table(spec, slot, &mut src);
        let _ = writeln!(src, "}}");
        let _ = writeln!(src, "impl {ty}Membrane {{");
        let _ = writeln!(
            src,
            "    pub fn pre_invoke(&mut self, mm: &mut MemoryManager, ctx: &mut MemoryContext)"
        );
        let _ = writeln!(src, "        -> Result<(), FrameworkError> {{");
        let _ = writeln!(
            src,
            "        self.lifecycle.assert_started(\"{}\")?;",
            c.name
        );
        let _ = writeln!(
            src,
            "        if self.poisoned {{ return Err(poisoned(\"{}\")); }}  // restart required",
            c.name
        );
        if !matches!(c.activation, Activation::Passive) {
            let _ = writeln!(
                src,
                "        self.chain.guard.pre(mm, ctx)  // ActiveInterceptor inline, fused: no walk, no dyn dispatch"
            );
        } else {
            let _ = writeln!(src, "        Ok(())  // empty compiled plan");
        }
        let _ = writeln!(src, "    }}");
        let _ = writeln!(src, "}}");
        units.push(GeneratedUnit {
            name: format!("{ty}Membrane"),
            role: "membrane",
            source: src,
        });
    }
    // Memory interceptors: one per binding.
    for (ix, b) in spec.bindings.iter().enumerate() {
        let mut src = String::new();
        let client = &spec.components[b.client].name;
        let server = &spec.components[b.server].name;
        let _ = writeln!(src, "/// Generated memory interceptor for binding #{ix}:");
        let _ = writeln!(
            src,
            "/// {client}.{} -> {server}.{}",
            b.client_port, b.server_port
        );
        let _ = writeln!(
            src,
            "pub static BINDING_{ix}: MemoryPlan = MemoryPlan {{ pattern: \"{}\", server_area: \"{}\" }};",
            spec.crossing(ix).0,
            spec.areas[spec.components[b.server].area].name
        );
        units.push(GeneratedUnit {
            name: format!("MemoryInterceptor{ix}"),
            role: "memory interceptor",
            source: src,
        });
    }
    // Non-functional components are reified at runtime.
    for d in &spec.domains {
        let ty = sanitize(&d.name);
        let mut src = String::new();
        let _ = writeln!(src, "/// Generated ThreadDomain component `{}`.", d.name);
        let _ = writeln!(
            src,
            "pub struct {ty}Domain {{ kind: ThreadKind::{:?}, priority: Priority({}) }}",
            d.kind, d.priority
        );
        units.push(GeneratedUnit {
            name: format!("{ty}Domain"),
            role: "thread-domain component",
            source: src,
        });
    }
    for a in &spec.areas {
        let ty = sanitize(&a.name);
        let mut src = String::new();
        let _ = writeln!(src, "/// Generated MemoryArea component `{}`.", a.name);
        let _ = writeln!(
            src,
            "pub struct {ty}Area {{ kind: MemoryKind::{:?}, size: {:?} }}",
            a.kind, a.size
        );
        units.push(GeneratedUnit {
            name: format!("{ty}Area"),
            role: "memory-area component",
            source: src,
        });
    }
    units.push(bootstrap_unit(
        spec,
        "full componentization; membranes reified",
    ));
    units
}

fn emit_merge_all(spec: &SystemSpec) -> Vec<GeneratedUnit> {
    let mut units = Vec::new();
    for (slot, c) in spec.components.iter().enumerate() {
        let ty = sanitize(&c.name);
        let mut src = String::new();
        let _ = writeln!(src, "/// Generated merged class for `{}` —", c.name);
        let _ = writeln!(src, "/// membrane logic inlined (no reified controllers).");
        let _ = writeln!(src, "/// activation: {}", activation_comment(&c.activation));
        let _ = writeln!(src, "pub struct {ty}Merged {{");
        let _ = writeln!(src, "    content: {},", c.content_class);
        let _ = writeln!(src, "    started: bool,");
        let _ = writeln!(src, "    busy: bool,");
        let _ = writeln!(src, "    // compiled binding slots:");
        emit_bindings_table(spec, slot, &mut src);
        let _ = writeln!(src, "}}");
        let _ = writeln!(src, "impl {ty}Merged {{");
        let _ = writeln!(
            src,
            "    #[inline] pub fn invoke(&mut self, port: u16, msg: &mut Msg) {{"
        );
        let _ = writeln!(src, "        debug_assert!(self.started && !self.busy);");
        let _ = writeln!(src, "        self.busy = true;");
        let _ = writeln!(
            src,
            "        self.content.on_invoke(port, msg); // direct call"
        );
        let _ = writeln!(src, "        self.busy = false;");
        let _ = writeln!(src, "    }}");
        let _ = writeln!(src, "}}");
        units.push(GeneratedUnit {
            name: format!("{ty}Merged"),
            role: "merged component",
            source: src,
        });
    }
    units.push(bootstrap_unit(
        spec,
        "one merged class per functional component; no membrane reification",
    ));
    units
}

fn emit_ultra(spec: &SystemSpec) -> GeneratedUnit {
    let mut src = String::new();
    let _ = writeln!(src, "/// The entire system fused into one static unit.");
    let _ = writeln!(
        src,
        "/// No structural reconfiguration: dispatch is a flat jump table."
    );
    let _ = writeln!(src, "pub struct UltraSystem {{");
    for c in &spec.components {
        let _ = writeln!(
            src,
            "    {}: {},",
            sanitize(&c.name).to_lowercase(),
            c.content_class
        );
    }
    let _ = writeln!(src, "}}");
    let _ = writeln!(src, "impl UltraSystem {{");
    let _ = writeln!(src, "    pub fn transaction(&mut self) {{");
    for (slot, c) in spec.components.iter().enumerate() {
        let _ = writeln!(
            src,
            "        // {} [{}]",
            c.name,
            activation_comment(&c.activation)
        );
        emit_bindings_table(spec, slot, &mut src);
    }
    let _ = writeln!(src, "    }}");
    let _ = writeln!(src, "}}");
    let _ = writeln!(
        src,
        "// bootstrap: areas {:?}, domains {:?} fused inline.",
        spec.areas
            .iter()
            .map(|a| a.name.as_str())
            .collect::<Vec<_>>(),
        spec.domains
            .iter()
            .map(|d| d.name.as_str())
            .collect::<Vec<_>>()
    );
    GeneratedUnit {
        name: "UltraSystem".to_string(),
        role: "fused system",
        source: src,
    }
}

fn bootstrap_unit(spec: &SystemSpec, mode_note: &str) -> GeneratedUnit {
    let mut src = String::new();
    let _ = writeln!(src, "/// Generated bootstrap ({mode_note}).");
    let _ = writeln!(src, "pub fn bootstrap() {{");
    let _ = writeln!(src, "    // 1. memory areas (parents before children):");
    for a in &spec.areas {
        let _ = writeln!(
            src,
            "    let {} = create_area({:?}, size = {:?});",
            sanitize(&a.name).to_lowercase(),
            a.kind,
            a.size
        );
    }
    let _ = writeln!(src, "    // 2. thread domains:");
    for d in &spec.domains {
        let _ = writeln!(
            src,
            "    let {} = create_domain({:?}, priority = {});",
            sanitize(&d.name).to_lowercase(),
            d.kind,
            d.priority
        );
    }
    let _ = writeln!(src, "    // 3. components, buffers, bindings:");
    for c in &spec.components {
        let _ = writeln!(
            src,
            "    deploy(\"{}\", content = {}, area = \"{}\");",
            c.name, c.content_class, spec.areas[c.area].name
        );
    }
    for b in &spec.bindings {
        if let ProtocolSpec::Async {
            capacity,
            placement,
        } = b.protocol
        {
            let _ = writeln!(
                src,
                "    buffer(\"{}->{}\", capacity = {capacity}, in = {placement:?});",
                spec.components[b.client].name, spec.components[b.server].name
            );
        }
    }
    let universe = spec.client_port_names();
    if !universe.is_empty() {
        let _ = writeln!(
            src,
            "    // 4. port intern table (client port -> dense id, jump-table dispatch):"
        );
        for (id, port) in universe.iter().enumerate() {
            let _ = writeln!(src, "    //   {port} = {id}");
        }
    }
    let _ = writeln!(src, "    // 5. start all components (lifecycle).");
    let _ = writeln!(src, "}}");
    GeneratedUnit {
        name: "bootstrap".to_string(),
        role: "bootstrap",
        source: src,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::compile;
    use soleil_core::adl::{from_xml, MOTIVATION_EXAMPLE_XML};

    fn spec() -> SystemSpec {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML)
            .unwrap()
            .into_validated()
            .unwrap();
        compile(&arch).unwrap()
    }

    #[test]
    fn unit_counts_shrink_with_optimization() {
        let s = spec();
        let soleil = emit_source(&s, Mode::Soleil);
        let merged = emit_source(&s, Mode::MergeAll);
        let ultra = emit_source(&s, Mode::UltraMerge);

        // SOLEIL: 2 units per component + 1 per binding + domains + areas + bootstrap.
        assert_eq!(soleil.units.len(), 2 * 4 + 3 + 3 + 3 + 1);
        // MERGE-ALL: one merged class per functional component + bootstrap.
        assert_eq!(merged.units.len(), 4 + 1);
        // ULTRA-MERGE: a single unit.
        assert_eq!(ultra.units.len(), 1);

        let (ms, mm, mu) = (soleil.metrics(), merged.metrics(), ultra.metrics());
        assert!(ms.units > mm.units && mm.units > mu.units);
        assert!(ms.lines > mm.lines && mm.lines > mu.lines);
        assert!(ms.indirections_per_call > mm.indirections_per_call);
        assert!(mm.indirections_per_call > mu.indirections_per_call);
    }

    #[test]
    fn reconfigurability_matrix_matches_paper() {
        let s = spec();
        let ms = emit_source(&s, Mode::Soleil).metrics();
        assert!(ms.membrane_reconfigurable && ms.functional_reconfigurable);
        let mm = emit_source(&s, Mode::MergeAll).metrics();
        assert!(!mm.membrane_reconfigurable && mm.functional_reconfigurable);
        let mu = emit_source(&s, Mode::UltraMerge).metrics();
        assert!(!mu.membrane_reconfigurable && !mu.functional_reconfigurable);
    }

    #[test]
    fn generated_text_references_content_classes() {
        let s = spec();
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let text = emit_source(&s, mode).render();
            // Generated/manual boundary: content classes referenced by name.
            assert!(text.contains("ProductionLineImpl"), "{mode}");
            assert!(text.contains("ConsoleImpl"), "{mode}");
            // Pattern annotations present.
            assert!(text.contains("enter-inner"), "{mode}");
        }
    }

    #[test]
    fn sanitizer_produces_identifiers() {
        assert_eq!(sanitize("NHRT-1"), "NHRT_1");
        assert_eq!(sanitize("9lives"), "_9lives");
        assert_eq!(sanitize("ok_name"), "ok_name");
    }

    #[test]
    fn bootstrap_lists_every_area_and_buffer() {
        let s = spec();
        let src = emit_source(&s, Mode::MergeAll);
        let boot = src
            .units
            .iter()
            .find(|u| u.role == "bootstrap")
            .expect("bootstrap unit");
        assert!(boot.source.contains("Imm1"));
        assert!(boot.source.contains("S1"));
        assert!(boot.source.contains("H1"));
        assert!(boot.source.contains("capacity = 10"));
    }
}
