//! Control components: the membrane's controllers.
//!
//! The paper distinguishes controllers that implement non-functional logic
//! the component cannot run without, from optional units providing
//! introspection and reconfiguration (§4.2): **LifecycleController** and
//! **BindingController** belong to the optional group (present in SOLEIL
//! mode, merged away otherwise); the **MemoryAreaController** sits in the
//! membrane of a MemoryArea component and superimposes its RTSJ memory
//! concern over the members. A ThreadDomain's thread policy needs no
//! controller object: the engine keeps each domain's name, thread kind and
//! priority in its own domain table.

use std::fmt;

use rtsj::memory::AreaId;
use soleil_patterns::ScopePin;

use crate::content::PortId;
use crate::error::FrameworkError;

// ---------------------------------------------------------------------------
// Lifecycle
// ---------------------------------------------------------------------------

/// The component lifecycle state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LifecycleState {
    /// Not started (or stopped): invocations are refused.
    #[default]
    Stopped,
    /// Running: invocations flow.
    Started,
    /// Faulted and isolated by supervision: invocations are refused until
    /// the component is restarted (a plain start is not enough — the
    /// content may be half-mutated by a mid-activation panic).
    Quarantined,
}

/// Start/stop controller, the reconfiguration gate of the membrane.
///
/// In a SOLEIL deployment it is a mirror of the engine's per-slot
/// lifecycle record: the engine's one lifecycle writer sets it, through
/// [`Membrane::set_lifecycle`](crate::Membrane::set_lifecycle), in the same
/// step as the record, and nothing else in the engine writes it.
#[derive(Debug, Clone, Default)]
pub struct LifecycleController {
    state: LifecycleState,
}

impl LifecycleController {
    /// Creates a controller in the `Stopped` state.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current state.
    pub fn state(&self) -> LifecycleState {
        self.state
    }

    /// Moves to `state`.
    pub fn set(&mut self, state: LifecycleState) {
        self.state = state;
    }

    /// Moves to `Started`.
    pub fn start(&mut self) {
        self.set(LifecycleState::Started);
    }

    /// Moves to `Stopped`.
    pub fn stop(&mut self) {
        self.set(LifecycleState::Stopped);
    }

    /// Errors unless started.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Lifecycle`] when stopped or quarantined.
    #[inline]
    pub fn assert_started(&self, component: &str) -> Result<(), FrameworkError> {
        match self.state {
            LifecycleState::Started => Ok(()),
            LifecycleState::Stopped => Err(FrameworkError::Lifecycle(format!(
                "component '{component}' is stopped"
            ))),
            LifecycleState::Quarantined => Err(FrameworkError::Lifecycle(format!(
                "component '{component}' is quarantined pending restart"
            ))),
        }
    }
}

// ---------------------------------------------------------------------------
// Binding
// ---------------------------------------------------------------------------

/// Name-keyed binding table — the SOLEIL-mode `BindingController`.
///
/// The controller is the reified *resolution* step of a SOLEIL membrane:
/// it maps each client-port name to the index of the engine's compiled
/// routing row for that port. The row itself (target, protocol, carrier,
/// memory plan) lives in the engine's per-slot binding table, shared with
/// MERGE-ALL; a rebind replaces the row's header in place, so the
/// controller never changes after deployment.
///
/// Name lookups resolve by string scan; the table is a dense array scanned
/// with short-circuit compares — for the handful of ports a component
/// carries, this beats hashing the name on every invocation while keeping
/// the table introspectable and insertion-ordered. On top of that,
/// [`BindingController::compile_jump`] settles the deployment's interned
/// port ids into a jump table so the steady state resolves by a single
/// index instead of a scan; `bind` replaces entries in place, keeping
/// compiled indices stable.
#[derive(Debug, Clone, Default)]
pub struct BindingController {
    /// `(client port, row index)` in binding order.
    table: Vec<(Box<str>, u32)>,
    /// Deployment-interned port id → index into `table`; `u32::MAX` for
    /// ids this component has no binding for.
    jump: Vec<u32>,
}

impl BindingController {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Installs (or replaces) the binding of `client_port` to routing row
    /// `row`.
    pub fn bind(&mut self, client_port: impl Into<String>, row: usize) {
        let name: Box<str> = client_port.into().into();
        let row = row as u32;
        match self.table.iter_mut().find(|(k, _)| *k == name) {
            Some(entry) => entry.1 = row,
            None => self.table.push((name, row)),
        }
    }

    /// Compiles the jump table for the deployment's interned port-name
    /// universe: `names[id]` is the client-port name behind `PortId(id)`.
    /// Ids outside this controller's table resolve to "unbound".
    pub fn compile_jump(&mut self, names: &[Box<str>]) {
        let jump = names
            .iter()
            .map(|n| {
                self.table
                    .iter()
                    .position(|(k, _)| k == n)
                    .map_or(u32::MAX, |i| i as u32)
            })
            .collect();
        self.jump = jump;
    }

    /// Resolves an interned port id through the compiled jump table to its
    /// routing row; `None` when the id is unbound here or the table is not
    /// compiled.
    pub fn resolve_id(&self, id: PortId) -> Option<usize> {
        let ix = *self.jump.get(id.0 as usize)?;
        self.table.get(ix as usize).map(|&(_, row)| row as usize)
    }

    /// Resolves `client_port` to its routing row by name; `None` when
    /// unbound (the engine reports the port together with its component).
    pub fn resolve(&self, client_port: &str) -> Option<usize> {
        self.table
            .iter()
            .find(|(k, _)| k.as_ref() == client_port)
            .map(|&(_, row)| row as usize)
    }

    /// Bound client-port names, in binding order (introspection).
    pub fn ports(&self) -> Vec<&str> {
        self.table.iter().map(|(k, _)| k.as_ref()).collect()
    }

    /// Estimated bytes of table machinery (Fig. 7(c) accounting).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + self.jump.len() * std::mem::size_of::<u32>()
            + self
                .table
                .iter()
                .map(|(k, _)| k.len() + std::mem::size_of::<(Box<str>, u32)>())
                .sum::<usize>()
    }
}

// ---------------------------------------------------------------------------
// MemoryArea controller
// ---------------------------------------------------------------------------

/// The membrane of a MemoryArea component: owns the substrate area and, for
/// scoped areas, the wedge pin that keeps component state alive between
/// transactions.
pub struct MemoryAreaController {
    /// Area component name.
    pub name: String,
    /// The substrate area backing this component.
    pub area: AreaId,
    pin: Option<ScopePin>,
}

impl MemoryAreaController {
    /// Creates a controller for an unpinned area.
    pub fn new(name: impl Into<String>, area: AreaId) -> Self {
        MemoryAreaController {
            name: name.into(),
            area,
            pin: None,
        }
    }

    /// Installs the wedge pin (bootstrap of scoped areas holding state).
    pub fn set_pin(&mut self, pin: ScopePin) {
        self.pin = Some(pin);
    }

    /// The wedge pin, if installed.
    pub fn pin(&self) -> Option<&ScopePin> {
        self.pin.as_ref()
    }

    /// Removes and returns the pin (teardown).
    pub fn take_pin(&mut self) -> Option<ScopePin> {
        self.pin.take()
    }
}

impl fmt::Debug for MemoryAreaController {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemoryAreaController")
            .field("name", &self.name)
            .field("area", &self.area)
            .field("pinned", &self.pin.is_some())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_transitions() {
        let mut lc = LifecycleController::new();
        assert_eq!(lc.state(), LifecycleState::Stopped);
        assert!(lc.assert_started("c").is_err());
        lc.start();
        lc.start(); // idempotent
        assert_eq!(lc.state(), LifecycleState::Started);
        lc.assert_started("c").unwrap();
        lc.stop();
        assert_eq!(lc.state(), LifecycleState::Stopped);
        assert!(lc.assert_started("c").is_err());
    }

    #[test]
    fn quarantine_refuses_invocations_until_restarted() {
        let mut lc = LifecycleController::new();
        lc.start();
        lc.set(LifecycleState::Quarantined);
        lc.set(LifecycleState::Quarantined); // idempotent
        assert_eq!(lc.state(), LifecycleState::Quarantined);
        let err = lc.assert_started("Detector").unwrap_err();
        assert_eq!(
            err.to_string(),
            "lifecycle error: component 'Detector' is quarantined pending restart"
        );
        lc.start();
        assert_eq!(lc.state(), LifecycleState::Started);
        lc.assert_started("Detector").unwrap();
    }

    #[test]
    fn binding_table_resolve_and_rebind() {
        let mut bc = BindingController::new();
        assert!(bc.resolve("out").is_none());
        bc.bind("out", 3);
        assert_eq!(bc.resolve("out"), Some(3));
        bc.bind("out", 5);
        assert_eq!(bc.resolve("out"), Some(5));
        assert_eq!(bc.ports(), vec!["out"], "rebinding replaces in place");
        assert!(bc.footprint_bytes() > 0);
    }

    #[test]
    fn jump_table_resolves_interned_ids_and_survives_rebind() {
        let mut bc = BindingController::new();
        bc.bind("out", 3);
        bc.bind("log", 4);
        // The deployment universe: ids 0="log", 1="out", 2="ghost".
        let names: Vec<Box<str>> = vec!["log".into(), "out".into(), "ghost".into()];
        bc.compile_jump(&names);
        assert_eq!(bc.resolve_id(PortId(0)), Some(4));
        assert_eq!(bc.resolve_id(PortId(1)), Some(3));
        assert!(bc.resolve_id(PortId(2)).is_none(), "unbound id");
        assert!(bc.resolve_id(PortId(9)).is_none(), "out-of-universe id");

        // Rebind replaces in place: compiled indices stay valid.
        bc.bind("out", 7);
        assert_eq!(bc.resolve_id(PortId(1)), Some(7));
    }

    #[test]
    fn memory_area_controller_pin_lifecycle() {
        use rtsj::memory::{MemoryManager, ScopedMemoryParams};
        let mut mm = MemoryManager::default();
        let s = mm
            .create_scoped(ScopedMemoryParams::new("s", 1024))
            .unwrap();
        let mut mac = MemoryAreaController::new("S1", s);
        assert!(mac.pin().is_none());
        let pin = ScopePin::new(&mut mm, s, &[]).unwrap();
        mac.set_pin(pin);
        assert!(mac.pin().is_some());
        let mut pin = mac.take_pin().unwrap();
        pin.release(&mut mm).unwrap();
        assert!(mac.pin().is_none());
    }
}
