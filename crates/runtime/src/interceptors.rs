//! The paper's memory interceptor (§4.1), one pattern at a time.
//!
//! The interceptor has no object of its own: the one rule compiles each
//! binding row's pattern from where its ends are placed, and the engine's
//! one crossing routine (`System::cross_scope_call`, with `invoke_in` for
//! `EnterInner`) runs it in every generation mode. `system`'s table test
//! drives every arm of that routine at once; the tests here take its
//! scope-moving arms one by one, each in SOLEIL, MERGE-ALL and
//! ULTRA-MERGE, and observe the scope stack the only ways content can: an
//! immortal component's `EnterInner` into a scope is refused while any
//! scope is on its caller's stack and admitted from an empty one, and an
//! `ExecuteInOuter` into a scope succeeds only while that scope is on the
//! caller's stack.

#[cfg(test)]
mod tests {
    use std::sync::{Arc, Mutex};

    use rtsj::memory::MemoryKind;
    use rtsj::thread::ThreadKind;
    use rtsj::time::RelativeTime;
    use soleil_membrane::content::{Content, ContentRegistry, InvokeResult};
    use soleil_membrane::Ports;
    use soleil_patterns::PatternKind::{self, *};

    use crate::spec::{Activation, AreaSpec, BindingSpec, ComponentSpec, DomainSpec, ProtocolSpec};
    use crate::{Mode, System, SystemSpec};

    /// The payload: every station visited and how each of its calls ended.
    type Trace = Vec<String>;

    /// Records its visit, then calls its client ports in order and records
    /// how each call ended. The head also publishes the finished trace.
    #[derive(Debug)]
    struct Station {
        name: &'static str,
        calls: Vec<&'static str>,
        trace: Option<Arc<Mutex<Trace>>>,
    }
    impl Content<Trace> for Station {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut Trace,
            out: &mut dyn Ports<Trace>,
        ) -> InvokeResult {
            msg.push(self.name.into());
            for port in &self.calls {
                let ended = match out.call(port, msg) {
                    Ok(()) => "ok".to_string(),
                    Err(e) => e.to_string(),
                };
                msg.push(format!("{port}: {ended}"));
            }
            if let Some(trace) = &self.trace {
                *trace.lock().unwrap() = msg.clone();
            }
            Ok(())
        }
    }

    /// (client, port, server, the pattern the rule picks)
    type Crossing = (&'static str, &'static str, &'static str, PatternKind);

    /// Builds a system from `areas` (name and parent; area 0 is immortal,
    /// every other area scoped), the components `placed` in them and the
    /// synchronous bindings of `table`, checks that the rule picks each
    /// row's pattern as tabled, runs one transaction of the periodic
    /// `head` in every mode and returns the head's trace. Asserts that
    /// the modes agree and that the transaction leaves every scope's entry
    /// and reclaim counts where the build's pins left them: each crossing
    /// undoes what it entered, a refused one included.
    fn crossing_trace(
        areas: &[(&'static str, Option<usize>)],
        placed: &[(&'static str, usize)],
        table: &[Crossing],
    ) -> Trace {
        let index = |name: &str| placed.iter().position(|&(n, _)| n == name).unwrap();
        let spec = SystemSpec {
            name: "memory-interceptor".into(),
            areas: areas
                .iter()
                .map(|&(name, parent)| AreaSpec {
                    name: name.into(),
                    kind: if parent.is_some() {
                        MemoryKind::Scoped
                    } else {
                        MemoryKind::Immortal
                    },
                    size: Some(16 * 1024),
                    parent,
                })
                .collect(),
            domains: vec![DomainSpec {
                name: "rt".into(),
                kind: ThreadKind::Realtime,
                priority: 20,
            }],
            components: placed
                .iter()
                .map(|&(name, area)| ComponentSpec {
                    name: name.into(),
                    content_class: name.into(),
                    activation: if name == "head" {
                        Activation::Periodic {
                            period: RelativeTime::from_millis(10),
                        }
                    } else {
                        Activation::Passive
                    },
                    domain: (name == "head").then_some(0),
                    area,
                    server_ports: if name == "head" {
                        vec![]
                    } else {
                        vec!["svc".into()]
                    },
                })
                .collect(),
            bindings: table
                .iter()
                .map(|&(client, port, server, _)| BindingSpec {
                    client: index(client),
                    client_port: port.into(),
                    server: index(server),
                    server_port: "svc".into(),
                    protocol: ProtocolSpec::Sync,
                })
                .collect(),
        };
        for (bix, &(.., pattern)) in table.iter().enumerate() {
            assert_eq!(spec.crossing(bix).0, pattern, "row {bix}");
        }

        let mut runs = Vec::new();
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let trace = Arc::new(Mutex::new(Vec::new()));
            let mut reg = ContentRegistry::new();
            for &(name, _) in placed {
                let calls: Vec<&'static str> =
                    table.iter().filter(|t| t.0 == name).map(|t| t.1).collect();
                let trace = (name == "head").then(|| trace.clone());
                reg.register(name, move || {
                    Box::new(Station {
                        name,
                        calls: calls.clone(),
                        trace: trace.clone(),
                    })
                });
            }
            let mut sys = System::build(&spec, mode, &reg).unwrap();
            let scopes = |sys: &System<Trace>| -> Vec<(u32, u64)> {
                let mm = sys.memory();
                areas[1..]
                    .iter()
                    .map(|&(name, _)| {
                        let id = mm.area_by_name(name).unwrap();
                        (
                            mm.enter_count(id).unwrap(),
                            mm.stats(id).unwrap().reclaim_count,
                        )
                    })
                    .collect()
            };
            let pinned = scopes(&sys);
            let head = sys.slot_of("head").unwrap();
            sys.run_transaction(head).unwrap();
            assert_eq!(scopes(&sys), pinned, "{mode}: only the pins hold scopes");
            runs.push((mode, trace.lock().unwrap().clone()));
        }
        let (_, trace) = runs.remove(0);
        for (mode, other) in runs {
            assert_eq!(other, trace, "{mode}");
        }
        trace
    }

    /// `EnterInner` enters the server's scope around the call and leaves
    /// it after: the immortal `probe`'s entry into `S` is refused beneath
    /// the crossing, where `S` is on the stack, and admitted when the
    /// head calls `probe` again after the crossing returned.
    #[test]
    fn memory_interceptor_enter_inner_roundtrip() {
        let trace = crossing_trace(
            &[("Imm", None), ("S", Some(0))],
            &[("head", 0), ("server", 1), ("probe", 0), ("peer", 1)],
            &[
                ("head", "enter", "server", EnterInner),
                ("server", "down", "probe", Direct),
                ("probe", "walk", "peer", EnterInner),
                ("head", "again", "probe", Direct),
            ],
        );
        assert_eq!(trace[..3], ["head", "server", "probe"], "{trace:?}");
        assert!(
            trace[3].starts_with("walk: ") && trace[3].contains("single parent rule"),
            "{trace:?}"
        );
        let after = [
            "down: ok",
            "enter: ok",
            "probe",
            "peer",
            "walk: ok",
            "again: ok",
        ];
        assert_eq!(trace[4..], after, "{trace:?}");
    }

    /// A nested `EnterInner` enters the whole chain, outermost first: during
    /// the call `inner` reaches `O` outward and enters `L`, whose parent
    /// `I` must be the innermost scope on the stack. The immortal `probe`'s
    /// entry into `O` is refused there before its server runs and leaves
    /// the stack as it was: the crossing still exits cleanly, and the same
    /// entry from the head's empty stack succeeds.
    #[test]
    fn memory_interceptor_enters_nested_chains() {
        let trace = crossing_trace(
            &[
                ("Imm", None),
                ("O", Some(0)),
                ("I", Some(1)),
                ("L", Some(2)),
            ],
            &[
                ("head", 0),
                ("inner", 2),
                ("outer", 1),
                ("leaf", 3),
                ("probe", 0),
            ],
            &[
                ("head", "enter", "inner", EnterInner),
                ("inner", "up", "outer", ExecuteInOuter),
                ("inner", "deep", "leaf", EnterInner),
                ("inner", "down", "probe", Direct),
                ("probe", "walk", "outer", EnterInner),
                ("head", "again", "probe", Direct),
            ],
        );
        let nested = [
            "head", "inner", "outer", "up: ok", "leaf", "deep: ok", "probe",
        ];
        assert_eq!(trace[..7], nested, "{trace:?}");
        assert!(
            trace[7].starts_with("walk: ") && trace[7].contains("single parent rule"),
            "{trace:?}"
        );
        let after = [
            "down: ok",
            "enter: ok",
            "probe",
            "outer",
            "walk: ok",
            "again: ok",
        ];
        assert_eq!(trace[8..], after, "{trace:?}");
    }

    /// `ExecuteInOuter` runs the server in an outer scope only while that
    /// scope is on the caller's stack. `a` (in `S1` under `P`) reaches `P`.
    /// Its handoff to `b` (in `S2` under `Q` under `P`) runs `b` on `a`'s
    /// stack, which holds `P` and `S1` but not `Q`: `b`'s switch into `Q`
    /// is refused before `q` runs, and the handoff itself completes.
    #[test]
    fn memory_interceptor_execute_in_outer_roundtrip() {
        let trace = crossing_trace(
            &[
                ("Imm", None),
                ("P", Some(0)),
                ("S1", Some(1)),
                ("Q", Some(1)),
                ("S2", Some(3)),
            ],
            &[("head", 0), ("a", 2), ("outer", 1), ("b", 4), ("q", 3)],
            &[
                ("head", "enter", "a", EnterInner),
                ("a", "up", "outer", ExecuteInOuter),
                ("a", "side", "b", HandoffThroughParent),
                ("b", "stray", "q", ExecuteInOuter),
            ],
        );
        let before = ["head", "a", "outer", "up: ok", "b"];
        assert_eq!(trace[..5], before, "{trace:?}");
        assert!(
            trace[5].starts_with("stray: ") && trace[5].contains("not on the current scope stack"),
            "{trace:?}"
        );
        assert_eq!(trace[6..], ["side: ok", "enter: ok"], "{trace:?}");
    }
}
