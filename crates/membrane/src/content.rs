//! The contract between the framework and functional code.
//!
//! Developers "implement only component content classes" (§3.3). In this
//! reproduction a content class is a type implementing [`Content`]: it
//! receives invocations on its server interfaces and emits calls on its
//! client interfaces through the [`Ports`] façade — never holding direct
//! references to other components. Everything else (activation, buffering,
//! memory-area choreography) is the membrane's and engine's business.

use std::any::Any;
use std::cell::Cell;
use std::fmt::Debug;
use std::sync::Arc;

use crate::error::FrameworkError;

/// Message payload moved along bindings.
///
/// Blanket-implemented: any `'static` type that is `Clone + Default +
/// Debug + Send` qualifies. `Clone` enables the handoff (deep-copy)
/// pattern; `Default` gives the engine a neutral value for buffer priming;
/// `Send` lets messages cross thread-domain shards — under the parallel
/// runtime every domain ticks on its own OS thread and cross-domain
/// messages move through wait-free SPSC rings, so a payload must be safe
/// to hand to another thread by value.
pub trait Payload: Any + Clone + Default + Debug + Send + 'static {}

impl<T: Any + Clone + Default + Debug + Send + 'static> Payload for T {}

/// Result of a content invocation.
pub type InvokeResult = Result<(), FrameworkError>;

/// A dense, deployment-scoped client-port id.
///
/// Ids are interned by the dispatch plan at deploy/rebind time: every
/// distinct client-port *name* in the deployment gets one id, so interned
/// dispatch is a jump-table index instead of a per-call string scan. Ids
/// are only meaningful within the deployment that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub u16);

/// Memoization state of an [`InternedPort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum InternState {
    /// Not yet resolved against the active deployment.
    Unresolved,
    /// Resolved to a dense id: dispatch through the jump table.
    Interned(PortId),
    /// The active `Ports` façade does not intern (or the name is outside
    /// the deployment's intern universe): dispatch by name forever.
    Fallback,
}

/// A client-port handle that interns its name on first use.
///
/// Content classes hold one per client interface (`const`-constructible,
/// so `static` handles work too) and route calls through it; the first
/// call asks the façade to intern the name, and every later call reuses
/// the dense id. Façades that don't intern — test doubles, the reified
/// SOLEIL membrane before plan compilation — fall back to the string path
/// transparently.
///
/// The memoized state lives in a `Cell`: content is `Send` but never
/// shared between threads (each instance belongs to exactly one
/// thread-domain engine), so no synchronization is needed.
///
/// The memo is **generation-stamped**: ids are only meaningful against the
/// dispatch plan that interned them, so the handle remembers the façade's
/// [`Ports::intern_generation`] alongside the id and re-interns whenever
/// the generations differ. That makes a memoized id safe across rebinds
/// (the engine mints a fresh generation when it recompiles jump tables)
/// and across deployments (a `static` handle reached from two deployments
/// — or from two thread-domain shards, each with its own port universe —
/// sees two distinct generations and never replays one plan's id against
/// the other's table).
#[derive(Debug)]
pub struct InternedPort {
    name: &'static str,
    state: Cell<InternState>,
    generation: Cell<u32>,
}

impl InternedPort {
    /// Creates an unresolved handle for `name`.
    pub const fn new(name: &'static str) -> Self {
        InternedPort {
            name,
            state: Cell::new(InternState::Unresolved),
            generation: Cell::new(0),
        }
    }

    /// The client-port name this handle dispatches through.
    pub fn name(&self) -> &'static str {
        self.name
    }

    fn resolve<P: Payload>(&self, out: &mut dyn Ports<P>) -> InternState {
        let generation = out.intern_generation();
        let memoized = self.state.get();
        if memoized == InternState::Unresolved || self.generation.get() != generation {
            let next = match out.intern(self.name) {
                Some(id) => InternState::Interned(id),
                None => InternState::Fallback,
            };
            self.state.set(next);
            self.generation.set(generation);
            return next;
        }
        memoized
    }

    /// Synchronous call through this port (interned when possible).
    ///
    /// # Errors
    ///
    /// As [`Ports::call`].
    pub fn call<P: Payload>(&self, out: &mut dyn Ports<P>, msg: &mut P) -> InvokeResult {
        match self.resolve(out) {
            InternState::Interned(id) => out.call_interned(id, msg),
            _ => out.call(self.name, msg),
        }
    }

    /// Asynchronous send through this port (interned when possible).
    ///
    /// # Errors
    ///
    /// As [`Ports::send`].
    pub fn send<P: Payload>(&self, out: &mut dyn Ports<P>, msg: P) -> InvokeResult {
        match self.resolve(out) {
            InternState::Interned(id) => out.send_interned(id, msg),
            _ => out.send(self.name, msg),
        }
    }
}

/// The outgoing-call façade handed to content during an invocation.
///
/// `call` performs a synchronous, nested, run-to-completion invocation
/// through the named *client* interface; `send` enqueues a message on an
/// asynchronous binding. Both resolve the actual target through the
/// binding infrastructure of the active generation mode.
pub trait Ports<P: Payload> {
    /// Synchronous call through `client_port`. The message is passed by
    /// mutable reference so the callee can write results into it.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unbound ports; callee errors
    /// propagate.
    fn call(&mut self, client_port: &str, msg: &mut P) -> InvokeResult;

    /// Asynchronous send through `client_port`: the message is moved into
    /// the binding's bounded buffer; the consumer activates later.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Binding`] for unbound or synchronous ports.
    fn send(&mut self, client_port: &str, msg: P) -> InvokeResult;

    /// Interns `client_port` into the deployment's dense id space, or
    /// `None` when this façade dispatches by name only (the default).
    fn intern(&self, client_port: &str) -> Option<PortId> {
        let _ = client_port;
        None
    }

    /// The generation of the dispatch plan behind this façade. An
    /// [`InternedPort`] memo is valid only while this value matches the one
    /// stamped at intern time: engines mint a globally unique generation
    /// per compiled plan and re-mint on every rebind or jump-table
    /// recompilation, so live memos re-intern instead of dispatching a
    /// stale id through a shifted table. Name-only façades keep the
    /// default `0`.
    fn intern_generation(&self) -> u32 {
        0
    }

    /// Synchronous call through an interned id. Façades that returned the
    /// id from [`Ports::intern`] must accept it here; the default refuses,
    /// keeping name-only façades honest.
    ///
    /// # Errors
    ///
    /// As [`Ports::call`]; additionally [`FrameworkError::Binding`] when
    /// this façade does not intern.
    fn call_interned(&mut self, id: PortId, msg: &mut P) -> InvokeResult {
        let _ = msg;
        Err(FrameworkError::Binding(format!(
            "port id {} used against a name-only port façade",
            id.0
        )))
    }

    /// Asynchronous send through an interned id (see
    /// [`Ports::call_interned`]).
    ///
    /// # Errors
    ///
    /// As [`Ports::send`]; additionally [`FrameworkError::Binding`] when
    /// this façade does not intern.
    fn send_interned(&mut self, id: PortId, msg: P) -> InvokeResult {
        let _ = msg;
        Err(FrameworkError::Binding(format!(
            "port id {} used against a name-only port façade",
            id.0
        )))
    }
}

/// A functional implementation ("content class").
///
/// ```
/// use soleil_membrane::content::{Content, InvokeResult, Ports};
///
/// /// Doubles every sample and forwards it.
/// #[derive(Debug, Default)]
/// struct Doubler;
///
/// impl Content<i64> for Doubler {
///     fn on_invoke(&mut self, port: &str, msg: &mut i64, out: &mut dyn Ports<i64>) -> InvokeResult {
///         assert_eq!(port, "in");
///         *msg *= 2;
///         out.send("out", *msg)
///     }
/// }
/// ```
///
/// Content is `Send`: a component instance lives inside exactly one
/// thread-domain engine, and the parallel runtime moves that engine (and
/// everything in it) onto its own OS thread. Shared observation state in a
/// content class therefore uses `Arc` + atomics, not `Rc<Cell<_>>`.
pub trait Content<P: Payload>: Debug + Send {
    /// Handles an invocation arriving on server interface `port`.
    ///
    /// # Errors
    ///
    /// Implementations report business failures as
    /// [`FrameworkError::Content`]; framework failures from `out` calls
    /// should be propagated unchanged.
    fn on_invoke(&mut self, port: &str, msg: &mut P, out: &mut dyn Ports<P>) -> InvokeResult;

    /// Called once when the component starts (lifecycle hook).
    fn on_start(&mut self) {}

    /// Called once when the component stops (lifecycle hook).
    fn on_stop(&mut self) {}

    /// Approximate bytes of functional state, charged to the component's
    /// memory area at bootstrap.
    fn state_bytes(&self) -> usize {
        std::mem::size_of_val(self)
    }

    /// Opt-in **Checkpoint capability**: serializes the warm state worth
    /// carrying across a supervised restart into `image` and returns
    /// `true`. The default returns `false` — the component has no
    /// checkpointable state and restarts cold.
    ///
    /// The engine hands in a [`StateImage`] preallocated to the
    /// component's [`state_bytes`](Content::state_bytes) bound (the bytes
    /// are charged to the component's allocation area when checkpointing
    /// is enabled), already [cleared](StateImage::clear). Implementations
    /// write through the `StateImage` writers and must not allocate:
    /// captures run on the supervised-restart path and, on a configurable
    /// cadence, at healthy activation boundaries. Writes beyond the bound
    /// are refused and flag the image [overflowed](StateImage::overflowed)
    /// rather than growing it.
    fn checkpoint(&self, image: &mut StateImage) -> bool {
        let _ = image;
        false
    }

    /// The restore half of the Checkpoint capability: installs warm state
    /// captured by [`checkpoint`](Content::checkpoint) into a freshly
    /// constructed instance. Called by the engine after a supervised
    /// restart replaced the faulted instance; the image is either the one
    /// captured at the restart boundary (healthy faults) or the last
    /// healthy cadence capture (after a contained panic, whose unwind may
    /// have left the final state half-mutated).
    fn restore(&mut self, image: &StateImage) {
        let _ = image;
    }
}

/// A bounded, reusable byte image of a component's warm state — the wire
/// format of the [`Content::checkpoint`]/[`Content::restore`] capability.
///
/// Storage is allocated **once**, at the declared limit, when
/// checkpointing is enabled for a component; every later capture reuses
/// it, so cadence captures and restart-boundary captures are
/// allocation-free. Writes past the limit are refused and latch the
/// [`overflowed`](StateImage::overflowed) flag instead of growing the
/// buffer — a checkpoint must stay inside the state bytes charged to the
/// component's memory area.
///
/// ```
/// use soleil_membrane::content::StateImage;
///
/// let mut img = StateImage::with_limit(16);
/// assert!(img.write_u64(7));
/// assert!(img.write_u64(11));
/// assert!(!img.write_u64(13), "third word exceeds the 16-byte bound");
/// assert!(img.overflowed());
/// assert_eq!(img.read_u64(0), Some(7));
/// assert_eq!(img.read_u64(8), Some(11));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateImage {
    bytes: Vec<u8>,
    limit: usize,
    overflowed: bool,
}

impl StateImage {
    /// An empty image whose captures may hold up to `limit` bytes; the
    /// backing storage is fully preallocated here.
    pub fn with_limit(limit: usize) -> Self {
        StateImage {
            bytes: Vec::with_capacity(limit),
            limit,
            overflowed: false,
        }
    }

    /// The capture bound, in bytes.
    pub fn limit(&self) -> usize {
        self.limit
    }

    /// Bytes written by the current capture.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// True once a write was refused for exceeding the limit (latched
    /// until the next [`clear`](StateImage::clear)).
    pub fn overflowed(&self) -> bool {
        self.overflowed
    }

    /// Resets the image for a fresh capture (storage is kept).
    pub fn clear(&mut self) {
        self.bytes.clear();
        self.overflowed = false;
    }

    /// The captured bytes.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Appends raw bytes; `false` (and the overflow latch) when the write
    /// would exceed the limit — the image is left unchanged in that case.
    pub fn write_bytes(&mut self, data: &[u8]) -> bool {
        if self.bytes.len() + data.len() > self.limit {
            self.overflowed = true;
            return false;
        }
        self.bytes.extend_from_slice(data);
        true
    }

    /// Appends one little-endian `u64`; same refusal contract as
    /// [`write_bytes`](StateImage::write_bytes).
    pub fn write_u64(&mut self, v: u64) -> bool {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Reads the little-endian `u64` at byte `offset`, if fully captured.
    pub fn read_u64(&self, offset: usize) -> Option<u64> {
        let end = offset.checked_add(8)?;
        let slice = self.bytes.get(offset..end)?;
        Some(u64::from_le_bytes(slice.try_into().expect("8-byte slice")))
    }

    /// Bytes of backing storage (footprint accounting).
    pub fn footprint_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.bytes.capacity()
    }
}

/// A shared constructor for one content class.
///
/// `Arc` rather than `Box` so the runtime can keep a per-slot clone for
/// supervised restarts (a quarantined component is rebuilt from a *fresh*
/// instance); `Send + Sync` because the engine holding those clones moves
/// onto its own OS thread under the parallel runtime.
pub type ContentFactory<P> = Arc<dyn Fn() -> Box<dyn Content<P>> + Send + Sync>;

/// A factory registry mapping content-class names (the ADL's
/// `content class="..."` attribute) to constructors.
pub struct ContentRegistry<P: Payload> {
    entries: Vec<(String, ContentFactory<P>)>,
}

impl<P: Payload> ContentRegistry<P> {
    /// Creates an empty registry.
    pub fn new() -> Self {
        ContentRegistry {
            entries: Vec::new(),
        }
    }

    /// Registers a factory for `class` (later registrations shadow earlier
    /// ones).
    pub fn register(
        &mut self,
        class: impl Into<String>,
        factory: impl Fn() -> Box<dyn Content<P>> + Send + Sync + 'static,
    ) {
        self.entries.push((class.into(), Arc::new(factory)));
    }

    /// Instantiates the content class `class`.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] when no factory is registered.
    pub fn instantiate(&self, class: &str) -> Result<Box<dyn Content<P>>, FrameworkError> {
        self.entries
            .iter()
            .rev()
            .find(|(name, _)| name == class)
            .map(|(_, f)| f())
            .ok_or_else(|| {
                FrameworkError::Content(format!("no content factory registered for '{class}'"))
            })
    }

    /// The shared factory registered for `class` — the runtime clones it
    /// per slot at deploy time so supervised restarts can rebuild a fresh
    /// content instance without consulting the registry again.
    ///
    /// # Errors
    ///
    /// [`FrameworkError::Content`] when no factory is registered.
    pub fn factory(&self, class: &str) -> Result<ContentFactory<P>, FrameworkError> {
        self.entries
            .iter()
            .rev()
            .find(|(name, _)| name == class)
            .map(|(_, f)| Arc::clone(f))
            .ok_or_else(|| {
                FrameworkError::Content(format!("no content factory registered for '{class}'"))
            })
    }

    /// Registered class names.
    pub fn classes(&self) -> Vec<&str> {
        self.entries.iter().map(|(n, _)| n.as_str()).collect()
    }
}

impl<P: Payload> Default for ContentRegistry<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: Payload> Debug for ContentRegistry<P> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ContentRegistry")
            .field("classes", &self.classes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Default)]
    struct Echo;
    impl Content<u32> for Echo {
        fn on_invoke(
            &mut self,
            _port: &str,
            msg: &mut u32,
            _out: &mut dyn Ports<u32>,
        ) -> InvokeResult {
            *msg += 1;
            Ok(())
        }
    }

    struct NullPorts;
    impl Ports<u32> for NullPorts {
        fn call(&mut self, port: &str, _msg: &mut u32) -> InvokeResult {
            Err(FrameworkError::Binding(format!("unbound port {port}")))
        }
        fn send(&mut self, port: &str, _msg: u32) -> InvokeResult {
            Err(FrameworkError::Binding(format!("unbound port {port}")))
        }
    }

    #[test]
    fn registry_instantiates_and_shadows() {
        let mut reg: ContentRegistry<u32> = ContentRegistry::new();
        reg.register("Echo", || Box::new(Echo));
        let mut c = reg.instantiate("Echo").unwrap();
        let mut v = 1u32;
        c.on_invoke("in", &mut v, &mut NullPorts).unwrap();
        assert_eq!(v, 2);
        assert!(reg.instantiate("Missing").is_err());
        assert_eq!(reg.classes(), vec!["Echo"]);
    }

    #[test]
    fn factory_clones_share_the_constructor() {
        let mut reg: ContentRegistry<u32> = ContentRegistry::new();
        reg.register("Echo", || Box::new(Echo));
        let f = reg.factory("Echo").unwrap();
        // Each call builds a fresh instance — the restart contract.
        let mut a = f();
        let mut b = f();
        let mut v = 0u32;
        a.on_invoke("in", &mut v, &mut NullPorts).unwrap();
        b.on_invoke("in", &mut v, &mut NullPorts).unwrap();
        assert_eq!(v, 2);
        assert!(reg.factory("Missing").is_err());
        // Factories are Send + Sync: engines move across threads.
        fn check<T: Send + Sync>(_t: &T) {}
        check(&f);
    }

    #[test]
    fn default_state_bytes_reflects_size() {
        let e = Echo;
        assert_eq!(Content::<u32>::state_bytes(&e), 0); // zero-sized struct
    }

    #[test]
    fn interned_port_falls_back_on_name_only_facades() {
        // NullPorts has no intern support: the handle must memoize the
        // fallback and keep dispatching by name.
        let port = InternedPort::new("out");
        assert_eq!(port.name(), "out");
        let mut v = 0u32;
        assert!(port.call(&mut NullPorts, &mut v).is_err());
        assert_eq!(port.state.get(), InternState::Fallback);
        assert!(port.send(&mut NullPorts, 1).is_err());
    }

    /// Counts interned vs. string dispatches.
    #[derive(Default)]
    struct CountingPorts {
        interned_calls: u32,
        string_calls: u32,
    }
    impl Ports<u32> for CountingPorts {
        fn call(&mut self, _port: &str, _msg: &mut u32) -> InvokeResult {
            self.string_calls += 1;
            Ok(())
        }
        fn send(&mut self, _port: &str, _msg: u32) -> InvokeResult {
            self.string_calls += 1;
            Ok(())
        }
        fn intern(&self, client_port: &str) -> Option<PortId> {
            (client_port == "out").then_some(PortId(7))
        }
        fn call_interned(&mut self, id: PortId, _msg: &mut u32) -> InvokeResult {
            assert_eq!(id, PortId(7));
            self.interned_calls += 1;
            Ok(())
        }
        fn send_interned(&mut self, id: PortId, _msg: u32) -> InvokeResult {
            assert_eq!(id, PortId(7));
            self.interned_calls += 1;
            Ok(())
        }
    }

    #[test]
    fn interned_port_memoizes_dense_id() {
        let port = InternedPort::new("out");
        let mut p = CountingPorts::default();
        let mut v = 0u32;
        port.call(&mut p, &mut v).unwrap();
        port.send(&mut p, 1).unwrap();
        assert_eq!(port.state.get(), InternState::Interned(PortId(7)));
        assert_eq!(p.interned_calls, 2);
        assert_eq!(p.string_calls, 0);

        // A name outside the intern universe memoizes the fallback.
        let stray = InternedPort::new("stray");
        stray.call(&mut p, &mut v).unwrap();
        assert_eq!(stray.state.get(), InternState::Fallback);
        assert_eq!(p.string_calls, 1);
    }

    /// A façade whose dispatch plan can be "recompiled": each generation
    /// interns the same name to a different id, and dispatch asserts the
    /// id belongs to the current generation.
    struct Regenerating {
        generation: u32,
        calls: u32,
    }
    impl Ports<u32> for Regenerating {
        fn call(&mut self, port: &str, _msg: &mut u32) -> InvokeResult {
            Err(FrameworkError::Binding(format!(
                "string dispatch of {port}"
            )))
        }
        fn send(&mut self, port: &str, _msg: u32) -> InvokeResult {
            Err(FrameworkError::Binding(format!(
                "string dispatch of {port}"
            )))
        }
        fn intern(&self, _client_port: &str) -> Option<PortId> {
            Some(PortId(self.generation as u16))
        }
        fn intern_generation(&self) -> u32 {
            self.generation
        }
        fn call_interned(&mut self, id: PortId, _msg: &mut u32) -> InvokeResult {
            assert_eq!(
                u32::from(id.0),
                self.generation,
                "memoized id from a stale generation reached dispatch"
            );
            self.calls += 1;
            Ok(())
        }
        fn send_interned(&mut self, id: PortId, msg: u32) -> InvokeResult {
            let mut m = msg;
            self.call_interned(id, &mut m)
        }
    }

    #[test]
    fn stale_memo_reinterns_when_the_plan_generation_changes() {
        let port = InternedPort::new("out");
        let mut p = Regenerating {
            generation: 1,
            calls: 0,
        };
        let mut v = 0u32;
        port.call(&mut p, &mut v).unwrap();
        assert_eq!(port.state.get(), InternState::Interned(PortId(1)));

        // "Rebind": the plan recompiles under a fresh generation. The memo
        // must be refused and re-interned, never replayed.
        p.generation = 2;
        port.call(&mut p, &mut v).unwrap();
        port.send(&mut p, 0).unwrap();
        assert_eq!(port.state.get(), InternState::Interned(PortId(2)));
        assert_eq!(p.calls, 3);

        // Same handle against a name-only façade (generation 0): the memo
        // from generation 2 is stale there too — it falls back to strings
        // instead of replaying id 2.
        assert!(port.call(&mut NullPorts, &mut v).is_err());
        assert_eq!(port.state.get(), InternState::Fallback);

        // And back: generation 2 is re-interned, not trusted.
        port.call(&mut p, &mut v).unwrap();
        assert_eq!(port.state.get(), InternState::Interned(PortId(2)));
    }

    #[test]
    fn default_interned_dispatch_refuses_with_id_in_message() {
        let mut v = 0u32;
        let err = Ports::call_interned(&mut NullPorts, PortId(3), &mut v).unwrap_err();
        assert!(err.to_string().contains("port id 3"));
        assert!(Ports::send_interned(&mut NullPorts, PortId(3), 0).is_err());
    }
}
