//! The paper's memory interceptor (§4.1), one pattern at a time.
//!
//! The interceptor has no object of its own: each binding row carries the
//! pattern the one rule picked for it, and the engine's one crossing
//! routine (`System::cross_scope_call`, with `invoke_in` for `EnterInner`)
//! runs it in every generation mode. `system`'s table test drives every arm
//! of that routine at once; the tests here take its scope-moving arms one
//! by one, each in SOLEIL, MERGE-ALL and ULTRA-MERGE, and observe the scope
//! stack the only way content can: a walked `ExecuteInOuter` into a scope
//! succeeds only while that scope is on the caller's stack.

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
    /// how each call ended. The driver also publishes the finished trace.
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

    /// (client, port, server, pattern, enter path)
    type Crossing = (
        &'static str,
        &'static str,
        &'static str,
        PatternKind,
        &'static [usize],
    );

    /// Builds a system from `areas` (name and parent; area 0 is immortal,
    /// every other area scoped), the components `placed` in them and the
    /// synchronous bindings of `table`, runs one transaction of the
    /// periodic `driver` in every mode and returns the driver's trace.
    /// Asserts that the modes agree and that the transaction leaves every
    /// scope's entry and reclaim counts where the build's pins left them:
    /// each crossing undoes what it entered, a refused one included.
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
                    activation: if name == "driver" {
                        Activation::Periodic {
                            period: RelativeTime::from_millis(10),
                        }
                    } else {
                        Activation::Passive
                    },
                    domain: (name == "driver").then_some(0),
                    area,
                    server_ports: if name == "driver" {
                        vec![]
                    } else {
                        vec!["svc".into()]
                    },
                    ceiling: None,
                })
                .collect(),
            bindings: table
                .iter()
                .map(|&(client, port, server, pattern, path)| BindingSpec {
                    client: index(client),
                    client_port: port.into(),
                    server: index(server),
                    server_port: "svc".into(),
                    protocol: ProtocolSpec::Sync,
                    pattern,
                    enter_path: path.to_vec(),
                })
                .collect(),
        };

        let mut runs = Vec::new();
        for mode in [Mode::Soleil, Mode::MergeAll, Mode::UltraMerge] {
            let trace = Arc::new(Mutex::new(Vec::new()));
            let mut reg = ContentRegistry::new();
            for &(name, _) in placed {
                let calls: Vec<&'static str> =
                    table.iter().filter(|t| t.0 == name).map(|t| t.1).collect();
                let trace = (name == "driver").then(|| trace.clone());
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
            let head = sys.slot_of("driver").unwrap();
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
    /// it after: the walk from the immortal `probe` into `S` succeeds
    /// beneath the crossing and is refused when `probe` is called without
    /// one.
    #[test]
    fn memory_interceptor_enter_inner_roundtrip() {
        let trace = crossing_trace(
            &[("Imm", None), ("S", Some(0))],
            &[("driver", 0), ("server", 1), ("probe", 0), ("peer", 1)],
            &[
                ("driver", "enter", "server", EnterInner, &[1]),
                ("server", "down", "probe", Direct, &[]),
                ("probe", "walk", "peer", ExecuteInOuter, &[]),
                ("driver", "skip", "probe", Direct, &[]),
            ],
        );
        let inside = ["driver", "server", "probe", "peer", "walk: ok", "down: ok"];
        assert_eq!(trace[..6], inside, "{trace:?}");
        assert_eq!(trace[6..8], ["enter: ok", "probe"], "{trace:?}");
        assert!(
            trace[8].starts_with("walk: ") && trace[8].contains("not on the current scope stack"),
            "{trace:?}"
        );
        assert_eq!(trace[9..], ["skip: ok"], "{trace:?}");
    }

    /// A nested `EnterInner` enters the whole chain, outermost first, so
    /// both scopes are on the stack during the call. A path that skips
    /// `O` breaks the single parent rule the pins fixed: the entry is
    /// refused before the server runs, and leaves the stack as it was, so
    /// the full chain entered next on the same stack succeeds.
    #[test]
    fn memory_interceptor_enters_nested_chains() {
        let trace = crossing_trace(
            &[("Imm", None), ("O", Some(0)), ("I", Some(1))],
            &[("driver", 0), ("inner", 2), ("probe", 0), ("outer", 1)],
            &[
                ("driver", "refused", "inner", EnterInner, &[2]),
                ("driver", "enter", "inner", EnterInner, &[1, 2]),
                ("inner", "down", "probe", Direct, &[]),
                ("probe", "walk", "outer", ExecuteInOuter, &[]),
            ],
        );
        assert_eq!(trace[0], "driver");
        assert!(
            trace[1].starts_with("refused: ") && trace[1].contains("single parent rule"),
            "{trace:?}"
        );
        let nested = [
            "inner",
            "probe",
            "outer",
            "walk: ok",
            "down: ok",
            "enter: ok",
        ];
        assert_eq!(trace[2..], nested, "{trace:?}");
    }

    /// `ExecuteInOuter` runs the server in an outer scope already on the
    /// stack. The switch from `inner`, whose static chain holds `O`, is
    /// prechecked at build time; the one from the immortal `probe` walks
    /// the stack. Both behave alike on the legal path, and the walk
    /// refuses a scope that is not on the stack before the server runs.
    #[test]
    fn memory_interceptor_execute_in_outer_roundtrip() {
        let trace = crossing_trace(
            &[("Imm", None), ("O", Some(0)), ("I", Some(1))],
            &[("driver", 0), ("inner", 2), ("outer", 1), ("probe", 0)],
            &[
                ("driver", "stray", "outer", ExecuteInOuter, &[]),
                ("driver", "enter", "inner", EnterInner, &[1, 2]),
                ("inner", "up", "outer", ExecuteInOuter, &[]),
                ("inner", "down", "probe", Direct, &[]),
                ("probe", "walk", "outer", ExecuteInOuter, &[]),
            ],
        );
        assert_eq!(trace[0], "driver");
        assert!(
            trace[1].starts_with("stray: ") && trace[1].contains("not on the current scope stack"),
            "{trace:?}"
        );
        let legal = [
            "inner",
            "outer",
            "up: ok",
            "probe",
            "outer",
            "walk: ok",
            "down: ok",
            "enter: ok",
        ];
        assert_eq!(trace[2..], legal, "{trace:?}");
    }
}
