//! Property tests for soleil-core: units parsing, ADL escaping, validator
//! stability, the containment walks against a reference BFS, the
//! validator's verdict against its report, and fuzzing of the two
//! hand-written parsers (the XML ADL and the JSON reader).

use proptest::prelude::*;
use soleil_core::adl::xml::{parse_document, write_node, XmlNode};
use soleil_core::units::{format_size, parse_size};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Sizes round-trip: format then parse gives the same byte count for
    /// any value the formatter can represent.
    #[test]
    fn size_format_parse_roundtrip(bytes in 0usize..usize::MAX / 2) {
        let text = format_size(bytes);
        let back = parse_size(&text).expect("formatter output parses");
        prop_assert_eq!(back, bytes);
    }

    /// Parsing accepts the suffix grammar and scales correctly.
    #[test]
    fn size_parse_scales(v in 0usize..1_000_000) {
        prop_assert_eq!(parse_size(&format!("{v}")).unwrap(), v);
        prop_assert_eq!(parse_size(&format!("{v}B")).unwrap(), v);
        prop_assert_eq!(parse_size(&format!("{v}KB")).unwrap(), v * 1024);
        prop_assert_eq!(parse_size(&format!("{v}kb")).unwrap(), v * 1024);
        prop_assert_eq!(parse_size(&format!("{v} MB")).unwrap(), v * 1024 * 1024);
    }

    /// XML attribute values survive arbitrary content through escaping.
    #[test]
    fn xml_attribute_roundtrip(value in "[ -~]{0,60}") {
        let node = XmlNode::new("N").attr("v", value.clone());
        let mut text = String::new();
        write_node(&node, 0, &mut text);
        let parsed = parse_document(&text).expect("escaped output parses");
        prop_assert_eq!(parsed[0].get("v"), Some(value.as_str()));
    }

    /// Arbitrary element trees (bounded depth) round-trip through the
    /// writer and parser.
    #[test]
    fn xml_tree_roundtrip(names in proptest::collection::vec("[A-Za-z][A-Za-z0-9_]{0,8}", 1..8)) {
        // Build a left-leaning tree from the generated names.
        let mut iter = names.into_iter();
        let mut root = XmlNode::new(iter.next().expect("at least one"));
        let mut current = XmlNode::new("leaf");
        for (i, name) in iter.enumerate() {
            let mut n = XmlNode::new(name).attr("ix", i.to_string());
            n.children.push(current);
            current = n;
        }
        root.children.push(current);

        let mut text = String::new();
        write_node(&root, 0, &mut text);
        let parsed = parse_document(&text).expect("parses");
        prop_assert_eq!(&parsed[0], &root);
    }
}

mod validator_stability {
    use soleil_core::adl::{from_xml, to_xml, MOTIVATION_EXAMPLE_XML};
    use soleil_core::validate::validate;

    /// Validation is idempotent and serialization-stable: validating the
    /// round-tripped architecture yields the same diagnostics.
    #[test]
    fn diagnostics_stable_under_roundtrip() {
        let arch = from_xml(MOTIVATION_EXAMPLE_XML).unwrap();
        let r1 = validate(&arch);
        let arch2 = from_xml(&to_xml(&arch)).unwrap();
        let r2 = validate(&arch2);
        let codes = |r: &soleil_core::ValidationReport| {
            let mut v: Vec<(String, String)> = r
                .diagnostics()
                .iter()
                .map(|d| (d.code.to_string(), d.subject.clone()))
                .collect();
            v.sort();
            v
        };
        assert_eq!(codes(&r1), codes(&r2));
    }
}

mod containment_walks {
    use std::collections::{HashSet, VecDeque};

    use proptest::prelude::*;
    use rtsj::memory::MemoryKind;
    use rtsj::thread::ThreadKind;
    use soleil_core::model::{
        ActivationKind, ComponentId, ComponentKind, MemoryAreaDesc, ThreadDomainDesc,
    };
    use soleil_core::Architecture;

    /// The reference walk: a `HashSet` of visited components and a
    /// `VecDeque` queue, deduplicating on pop.
    fn reference_walk<'a>(
        seeds: &[ComponentId],
        next: impl Fn(ComponentId) -> &'a [ComponentId],
    ) -> Vec<ComponentId> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        let mut queue: VecDeque<ComponentId> = seeds.iter().copied().collect();
        while let Some(c) = queue.pop_front() {
            if seen.insert(c) {
                out.push(c);
                queue.extend(next(c).iter().copied());
            }
        }
        out
    }

    fn reference_ancestors(arch: &Architecture, id: ComponentId) -> Vec<ComponentId> {
        reference_walk(arch.parents_of(id), |c| arch.parents_of(c))
    }

    fn reference_descendants(arch: &Architecture, id: ComponentId) -> Vec<ComponentId> {
        reference_walk(arch.children_of(id), |c| arch.children_of(c))
    }

    fn reference_reachable(arch: &Architecture, from: ComponentId, to: ComponentId) -> bool {
        from == to || reference_descendants(arch, from).contains(&to)
    }

    fn kind(arch: &Architecture, id: ComponentId) -> ComponentKind {
        arch.component(id).expect("generated id").kind
    }

    fn reference_thread_domain(
        arch: &Architecture,
        id: ComponentId,
    ) -> Option<(ComponentId, ThreadDomainDesc)> {
        let domains: Vec<_> = reference_ancestors(arch, id)
            .into_iter()
            .filter_map(|a| match kind(arch, a) {
                ComponentKind::ThreadDomain(desc) => Some((a, desc)),
                _ => None,
            })
            .collect();
        match domains.as_slice() {
            [one] => Some(*one),
            _ => None,
        }
    }

    fn reference_memory_area(
        arch: &Architecture,
        id: ComponentId,
    ) -> Option<(ComponentId, MemoryAreaDesc)> {
        reference_ancestors(arch, id)
            .into_iter()
            .find_map(|a| match kind(arch, a) {
                ComponentKind::MemoryArea(desc) => Some((a, desc)),
                _ => None,
            })
    }

    /// Component `i`'s kind: the first two are ThreadDomains and the next
    /// two MemoryAreas, so every architecture has several of each; the
    /// rest are drawn from `pick`.
    fn component_kind(i: usize, pick: u8) -> ComponentKind {
        let domain =
            |kind, priority| ComponentKind::ThreadDomain(ThreadDomainDesc { kind, priority });
        let area = |kind, size| ComponentKind::MemoryArea(MemoryAreaDesc { kind, size });
        match (i, pick) {
            (0, _) => domain(ThreadKind::NoHeapRealtime, 30),
            (1, _) => domain(ThreadKind::Realtime, 20),
            (2, _) | (_, 0) => area(MemoryKind::Immortal, Some(4096)),
            (3, _) | (_, 1) => area(MemoryKind::Scoped, Some(1024)),
            (_, 2) => area(MemoryKind::Heap, None),
            (_, 3) => domain(ThreadKind::Regular, 5),
            (_, 4) => ComponentKind::Composite,
            (_, 5) => ComponentKind::Passive,
            _ => ComponentKind::Active(ActivationKind::Sporadic),
        }
    }

    /// A random containment DAG with sharing. Each edge joins a lower to
    /// a higher index where the lower one may contain, so components gain
    /// several parents, diamonds form and areas nest; the builder refuses
    /// repeated edges silently.
    fn build(picks: &[u8], edges: &[(usize, usize)]) -> Architecture {
        let mut arch = Architecture::new("walks");
        let ids: Vec<ComponentId> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                arch.add_component(format!("c{i}"), component_kind(i, pick))
                    .expect("unique names")
            })
            .collect();
        for &(a, b) in edges {
            let (a, b) = (a % ids.len(), b % ids.len());
            let (parent, child) = (ids[a.min(b)], ids[a.max(b)]);
            if parent != child
                && !matches!(
                    kind(&arch, parent),
                    ComponentKind::Active(_) | ComponentKind::Passive
                )
            {
                arch.add_child(parent, child)
                    .expect("lower-to-higher edges form a DAG");
            }
        }
        arch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Every walk query agrees with the reference BFS, order included.
        #[test]
        fn walks_match_the_reference_bfs(
            picks in proptest::collection::vec(0..8u8, 4..24),
            edges in proptest::collection::vec((0..64usize, 0..64usize), 0..64),
        ) {
            let arch = build(&picks, &edges);
            let ids: Vec<ComponentId> = arch.components().iter().map(|c| c.id()).collect();
            for &id in &ids {
                let ancestors = reference_ancestors(&arch, id);
                prop_assert_eq!(arch.ancestors(id), ancestors.clone(), "ancestors of {}", id);
                prop_assert_eq!(
                    arch.descendants(id),
                    reference_descendants(&arch, id),
                    "descendants of {}", id
                );
                prop_assert_eq!(
                    arch.thread_domain_of(id),
                    reference_thread_domain(&arch, id),
                    "thread domain of {}", id
                );
                prop_assert_eq!(
                    arch.memory_area_of(id),
                    reference_memory_area(&arch, id),
                    "memory area of {}", id
                );
                let of_kind = |domains: bool| -> Vec<ComponentId> {
                    ancestors
                        .iter()
                        .copied()
                        .filter(|&a| match kind(&arch, a) {
                            ComponentKind::ThreadDomain(_) => domains,
                            ComponentKind::MemoryArea(_) => !domains,
                            _ => false,
                        })
                        .collect()
                };
                prop_assert_eq!(arch.thread_domains_of(id), of_kind(true));
                prop_assert_eq!(arch.memory_areas_of(id), of_kind(false));
                for &to in &ids {
                    prop_assert_eq!(
                        arch.is_reachable(id, to),
                        reference_reachable(&arch, id, to),
                        "{} reaches {}", id, to
                    );
                }
            }
        }
    }
}

/// `validate` and `is_compliant` run one rule pass into two sinks, one
/// that renders every finding and one that stops at the first *Error*. On
/// random architectures they must give the same verdict. The generator
/// reaches every rule: domains in and out of their priority band, sized
/// and unsized areas of every kind, shared and nested containment, and
/// random bindings, including zero-capacity buffers and client ports
/// bound twice.
mod validator_verdicts {
    use proptest::prelude::*;
    use rtsj::memory::MemoryKind;
    use rtsj::thread::ThreadKind;
    use soleil_core::model::{
        ActivationKind, ComponentId, ComponentKind, MemoryAreaDesc, Protocol, Role,
        ThreadDomainDesc,
    };
    use soleil_core::validate::{is_compliant, validate};
    use soleil_core::Architecture;

    fn kind(pick: u8) -> ComponentKind {
        let domain =
            |kind, priority| ComponentKind::ThreadDomain(ThreadDomainDesc { kind, priority });
        let area = |kind, size| ComponentKind::MemoryArea(MemoryAreaDesc { kind, size });
        match pick {
            0 => domain(ThreadKind::NoHeapRealtime, 30),
            1 => domain(ThreadKind::NoHeapRealtime, 3),
            2 => domain(ThreadKind::Realtime, 20),
            3 => domain(ThreadKind::Regular, 5),
            4 => domain(ThreadKind::Regular, 50),
            5 => area(MemoryKind::Immortal, Some(4096)),
            6 => area(MemoryKind::Immortal, None),
            7 => area(MemoryKind::Scoped, Some(1024)),
            8 => area(MemoryKind::Scoped, None),
            9 => area(MemoryKind::Heap, None),
            10 => area(MemoryKind::Heap, Some(64)),
            11 => ComponentKind::Composite,
            12 | 13 => ComponentKind::Passive,
            14 => ComponentKind::Active(ActivationKind::Periodic {
                period_ns: 1_000_000,
            }),
            _ => ComponentKind::Active(ActivationKind::Sporadic),
        }
    }

    /// Containment edges join a lower to a higher index, so the hierarchy
    /// stays acyclic; every functional component serves `in` and requires
    /// `out` and `aux`. What the builder refuses (children of a leaf) is
    /// skipped.
    fn build(
        picks: &[u8],
        edges: &[(usize, usize)],
        binds: &[(usize, usize, u8, u8)],
    ) -> Architecture {
        let mut arch = Architecture::new("verdicts");
        let ids: Vec<ComponentId> = picks
            .iter()
            .enumerate()
            .map(|(i, &pick)| {
                arch.add_component(format!("c{i}"), kind(pick))
                    .expect("unique names")
            })
            .collect();
        for &(a, b) in edges {
            let (a, b) = (a % ids.len(), b % ids.len());
            if a != b {
                let _ = arch.add_child(ids[a.min(b)], ids[a.max(b)]);
            }
        }
        for &id in &ids {
            if arch
                .component(id)
                .expect("generated id")
                .kind
                .is_functional()
            {
                for (port, role) in [
                    ("in", Role::Server),
                    ("out", Role::Client),
                    ("aux", Role::Client),
                ] {
                    arch.add_interface(id, port, role, "I").expect("fresh port");
                }
            }
        }
        for &(client, server, aux, protocol) in binds {
            let protocol = match protocol {
                0 => Protocol::Synchronous,
                1 => Protocol::Asynchronous { buffer_size: 0 },
                _ => Protocol::Asynchronous { buffer_size: 4 },
            };
            let port = if aux == 0 { "out" } else { "aux" };
            let (client, server) = (ids[client % ids.len()], ids[server % ids.len()]);
            let _ = arch.bind(client, port, server, "in", protocol);
        }
        arch
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn is_compliant_agrees_with_the_rendered_report(
            picks in proptest::collection::vec(0..16u8, 2..20),
            edges in proptest::collection::vec((0..64usize, 0..64usize), 0..48),
            binds in proptest::collection::vec(
                (0..64usize, 0..64usize, 0..2u8, 0..3u8),
                0..16,
            ),
        ) {
            let arch = build(&picks, &edges, &binds);
            let report = validate(&arch);
            prop_assert_eq!(is_compliant(&arch), report.is_compliant(), "{}", report);
        }
    }
}

/// The XML ADL and the JSON reader are the only parsers of untrusted
/// input: arbitrary bytes and mutated copies of the motivation document
/// must never panic them, and whatever a mutant parses to must print to a
/// print → parse → print fixed point. `Architecture` has no `PartialEq`,
/// so the printed forms are compared.
mod parser_fuzzing {
    use proptest::prelude::*;
    use soleil_core::adl::{from_json, from_xml, to_json, to_xml, MOTIVATION_EXAMPLE_XML};
    use soleil_core::json;

    /// Feeds `text` to every parser; each successful parse must print to
    /// a fixed point.
    fn parse_everything(text: &str) {
        if let Ok(arch) = from_xml(text) {
            let printed = to_xml(&arch);
            let again = from_xml(&printed).expect("printed XML parses");
            assert_eq!(to_xml(&again), printed, "XML fixed point of {text:?}");
        }
        if let Ok(arch) = from_json(text) {
            let printed = to_json(&arch);
            let again = from_json(&printed).expect("printed JSON parses");
            assert_eq!(to_json(&again), printed, "JSON fixed point of {text:?}");
        }
        if let Ok(value) = json::parse(text) {
            let printed = value.to_pretty();
            let again = json::parse(&printed).expect("printed JSON value parses");
            assert_eq!(
                again.to_pretty(),
                printed,
                "JSON value fixed point of {text:?}"
            );
        }
    }

    /// One byte-level edit: `(kind, position, byte)` truncates, inserts,
    /// deletes or overwrites at `position` modulo the length.
    fn mutate(bytes: &mut Vec<u8>, (kind, position, byte): (u8, usize, u16)) {
        let at = position % (bytes.len() + 1);
        match kind {
            0 => bytes.truncate(at),
            1 => bytes.insert(at, byte as u8),
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ if at < bytes.len() => bytes[at] = byte as u8,
            _ => {}
        }
    }

    /// A mutant of `seed`: one to three byte-level edits.
    fn mutant(seed: &str, edits: &[(u8, usize, u16)]) -> String {
        let mut bytes = seed.as_bytes().to_vec();
        for &edit in edits {
            mutate(&mut bytes, edit);
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    fn edits() -> impl Strategy<Value = Vec<(u8, usize, u16)>> {
        proptest::collection::vec((0u8..4, 0usize..1 << 16, 0u16..256), 1..4)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Arbitrary bytes, lossily decoded, never panic a parser.
        #[test]
        fn arbitrary_bytes_never_panic_the_parsers(
            bytes in proptest::collection::vec(0u16..256, 0..256)
        ) {
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            parse_everything(&String::from_utf8_lossy(&bytes));
        }

        /// Mutants of the motivation document never panic a parser.
        #[test]
        fn mutated_xml_never_panics_the_parsers(edits in edits()) {
            parse_everything(&mutant(MOTIVATION_EXAMPLE_XML, &edits));
        }

        /// Mutants of the document's JSON form never panic a parser.
        #[test]
        fn mutated_json_never_panics_the_parsers(edits in edits()) {
            let seed = to_json(&from_xml(MOTIVATION_EXAMPLE_XML).expect("fixture parses"));
            parse_everything(&mutant(&seed, &edits));
        }
    }
}
