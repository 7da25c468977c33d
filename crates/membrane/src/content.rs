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
/// `Send` lets a deployment, with the messages waiting in its buffers and
/// in the wait-free SPSC rings between its thread-domain shards, move to
/// another thread, so a payload must be safe to hand to another thread by
/// value.
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

/// A client-port handle that interns its name on first use.
///
/// Content classes hold one per client interface (`const`-constructible,
/// so `static` handles work too) and route calls through it: each call is
/// one virtual call, [`Ports::call_port`] or [`Ports::send_port`], and the
/// façade behind it resolves the handle. An interning façade (the engine)
/// reads the dense id memoized here and, on first use, interns the name
/// and memoizes the id; façades that don't intern — test doubles, say —
/// take the default methods, which dispatch by name.
///
/// The memo lives in `Cell`s: content is `Send` but never shared between
/// threads (each instance belongs to exactly one thread-domain engine), so
/// no synchronization is needed.
///
/// The memo is **generation-stamped**: ids are only meaningful against the
/// dispatch plan that interned them, so the handle remembers the
/// generation of that plan alongside the id, and [`InternedPort::id_in`]
/// re-interns whenever the generations differ. That makes a memoized id
/// safe across rebinds (the engine mints a fresh generation when it
/// recompiles jump tables) and across deployments (a `static` handle
/// reached from two deployments — or from two thread-domain shards, each
/// with its own port universe — sees two distinct generations and never
/// replays one plan's id against the other's table). Generation 0 is never
/// minted: a fresh handle memoizes "no id" under it.
#[derive(Debug)]
pub struct InternedPort {
    name: &'static str,
    /// The generation `id` was interned under.
    generation: Cell<u32>,
    /// The memoized id; `None` when the name is outside that plan's intern
    /// universe (dispatch by name).
    id: Cell<Option<PortId>>,
}

impl InternedPort {
    /// Creates an unresolved handle for `name`.
    pub const fn new(name: &'static str) -> Self {
        InternedPort {
            name,
            generation: Cell::new(0),
            id: Cell::new(None),
        }
    }

    /// The client-port name this handle dispatches through.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The id memoized under dispatch-plan `generation` — the façade side
    /// of the memo. When the memo carries another generation, `intern`
    /// resolves the name afresh and the memo is re-stamped. `None` means
    /// dispatch by name.
    #[inline]
    pub fn id_in(
        &self,
        generation: u32,
        intern: impl FnOnce(&str) -> Option<PortId>,
    ) -> Option<PortId> {
        if self.generation.get() == generation {
            return self.id.get();
        }
        self.reintern(generation, intern)
    }

    #[cold]
    #[inline(never)]
    fn reintern(
        &self,
        generation: u32,
        intern: impl FnOnce(&str) -> Option<PortId>,
    ) -> Option<PortId> {
        let id = intern(self.name);
        self.id.set(id);
        self.generation.set(generation);
        id
    }

    /// Synchronous call through this port: one call of
    /// [`Ports::call_port`].
    ///
    /// # Errors
    ///
    /// As [`Ports::call`].
    #[inline]
    pub fn call<P: Payload>(&self, out: &mut dyn Ports<P>, msg: &mut P) -> InvokeResult {
        out.call_port(self, msg)
    }

    /// Asynchronous send through this port: one call of
    /// [`Ports::send_port`].
    ///
    /// # Errors
    ///
    /// As [`Ports::send`].
    #[inline]
    pub fn send<P: Payload>(&self, out: &mut dyn Ports<P>, msg: P) -> InvokeResult {
        out.send_port(self, msg)
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

    /// Synchronous call through an [`InternedPort`] handle. An interning
    /// façade resolves the handle's memo against its own dispatch plan
    /// ([`InternedPort::id_in`]) and dispatches by id; the default
    /// dispatches by name.
    ///
    /// # Errors
    ///
    /// As [`Ports::call`].
    fn call_port(&mut self, port: &InternedPort, msg: &mut P) -> InvokeResult {
        self.call(port.name(), msg)
    }

    /// Asynchronous send through an [`InternedPort`] handle (see
    /// [`Ports::call_port`]).
    ///
    /// # Errors
    ///
    /// As [`Ports::send`].
    fn send_port(&mut self, port: &InternedPort, msg: P) -> InvokeResult {
        self.send(port.name(), msg)
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
/// thread-domain engine, and a deployment (with every engine in it) may
/// move to another thread. Shared observation state in a content class
/// therefore uses `Arc` + atomics, not `Rc<Cell<_>>`.
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
/// instance); `Send + Sync` because the engine holding those clones may
/// move to another thread with its deployment.
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
        // NullPorts does not intern: its default port methods dispatch by
        // name and leave the memo untouched.
        let port = InternedPort::new("out");
        assert_eq!(port.name(), "out");
        let mut v = 0u32;
        assert!(port.call(&mut NullPorts, &mut v).is_err());
        assert!(port.send(&mut NullPorts, 1).is_err());
        assert_eq!((port.generation.get(), port.id.get()), (0, None));
    }

    /// Counts interned vs. string dispatches, and the interning scans.
    /// One dispatch plan (generation 1) in which only "out" interns.
    #[derive(Default)]
    struct CountingPorts {
        interned_calls: u32,
        string_calls: u32,
        interns: u32,
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
        fn call_port(&mut self, port: &InternedPort, msg: &mut u32) -> InvokeResult {
            let interns = &mut self.interns;
            let id = port.id_in(1, |name| {
                *interns += 1;
                (name == "out").then_some(PortId(7))
            });
            match id {
                Some(id) => {
                    assert_eq!(id, PortId(7));
                    self.interned_calls += 1;
                    Ok(())
                }
                None => self.call(port.name(), msg),
            }
        }
        fn send_port(&mut self, port: &InternedPort, msg: u32) -> InvokeResult {
            let mut m = msg;
            self.call_port(port, &mut m)
        }
    }

    #[test]
    fn interned_port_memoizes_dense_id() {
        let port = InternedPort::new("out");
        let mut p = CountingPorts::default();
        let mut v = 0u32;
        port.call(&mut p, &mut v).unwrap();
        port.send(&mut p, 1).unwrap();
        assert_eq!(port.id.get(), Some(PortId(7)));
        assert_eq!(p.interned_calls, 2);
        assert_eq!(p.string_calls, 0);
        assert_eq!(p.interns, 1, "the second dispatch reads the memo");

        // A name outside the intern universe memoizes the fallback.
        let stray = InternedPort::new("stray");
        stray.call(&mut p, &mut v).unwrap();
        stray.call(&mut p, &mut v).unwrap();
        assert_eq!((stray.generation.get(), stray.id.get()), (1, None));
        assert_eq!(p.string_calls, 2);
        assert_eq!(p.interns, 2);
    }

    /// A façade whose dispatch plan can be "recompiled": each generation
    /// interns the same name to a different id, and dispatch asserts the
    /// id belongs to the current generation.
    struct Regenerating {
        generation: u32,
        interns: u32,
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
        fn call_port(&mut self, port: &InternedPort, _msg: &mut u32) -> InvokeResult {
            let generation = self.generation;
            let interns = &mut self.interns;
            let id = port.id_in(generation, |_| {
                *interns += 1;
                Some(PortId(generation as u16))
            });
            assert_eq!(
                id.map(|id| u32::from(id.0)),
                Some(self.generation),
                "memoized id from a stale generation reached dispatch"
            );
            self.calls += 1;
            Ok(())
        }
        fn send_port(&mut self, port: &InternedPort, msg: u32) -> InvokeResult {
            let mut m = msg;
            self.call_port(port, &mut m)
        }
    }

    #[test]
    fn stale_memo_reinterns_when_the_plan_generation_changes() {
        let port = InternedPort::new("out");
        let mut p = Regenerating {
            generation: 1,
            interns: 0,
            calls: 0,
        };
        let mut v = 0u32;
        port.call(&mut p, &mut v).unwrap();
        assert_eq!(port.id.get(), Some(PortId(1)));
        assert_eq!(p.interns, 1);

        // "Rebind": the plan recompiles under a fresh generation. The memo
        // must be refused and re-interned, never replayed.
        p.generation = 2;
        port.call(&mut p, &mut v).unwrap();
        port.send(&mut p, 0).unwrap();
        assert_eq!(port.id.get(), Some(PortId(2)));
        assert_eq!((p.interns, p.calls), (2, 3));

        // A name-only façade dispatches by name and leaves the memo alone;
        // generation 2 names one plan only, so its id stays valid there.
        assert!(port.call(&mut NullPorts, &mut v).is_err());
        port.call(&mut p, &mut v).unwrap();
        assert_eq!((p.interns, p.calls), (2, 4));

        // Any other generation, an older one included, re-interns.
        p.generation = 1;
        port.call(&mut p, &mut v).unwrap();
        assert_eq!(port.id.get(), Some(PortId(1)));
        assert_eq!((p.interns, p.calls), (3, 5));
    }

    #[test]
    fn default_port_dispatch_goes_by_name() {
        let port = InternedPort::new("x");
        let mut v = 0u32;
        let err = Ports::call_port(&mut NullPorts, &port, &mut v).unwrap_err();
        assert_eq!(err.to_string(), "binding error: unbound port x");
        let err = Ports::send_port(&mut NullPorts, &port, 0).unwrap_err();
        assert_eq!(err.to_string(), "binding error: unbound port x");
    }
}
