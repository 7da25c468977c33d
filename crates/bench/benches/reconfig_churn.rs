//! Reconfiguration-churn bench: the cost of a transactional rebind cycle
//! under live traffic, per generation mode.
//!
//! Each iteration flips a synchronous client port between two equivalent
//! services inside one `reconfigure` transaction (stop → rebind → start),
//! paying the full transactional machinery: undo journaling, the
//! architectural edit, and commit-time RTSJ re-validation. In SOLEIL and
//! MERGE-ALL alike the engine half of the rebind replaces one binding row's
//! header in place (SOLEIL also re-derives that row's memory interceptor
//! and gate; its BindingController still maps the port to the same row),
//! and a rollback writes the row's pre-image back. This seeds the perf
//! trajectory for the multi-deployment/scale direction — reconfiguration
//! is the control-plane hot path.

use criterion::{criterion_group, criterion_main, Criterion};
use soleil::prelude::*;

#[derive(Debug, Default)]
struct Caller;
impl Content<u64> for Caller {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, out: &mut dyn Ports<u64>) -> InvokeResult {
        out.call("svc", msg)
    }
}

#[derive(Debug, Default)]
struct Svc;
impl Content<u64> for Svc {
    fn on_invoke(&mut self, _p: &str, msg: &mut u64, _o: &mut dyn Ports<u64>) -> InvokeResult {
        *msg += 1;
        Ok(())
    }
}

fn fixture(mode: Mode) -> Deployment<u64> {
    let mut b = BusinessView::new("churn");
    b.active_periodic("caller", "5ms").expect("design");
    b.passive("svc-a").expect("design");
    b.passive("svc-b").expect("design");
    b.content("caller", "Caller").expect("design");
    b.content("svc-a", "Svc").expect("design");
    b.content("svc-b", "Svc").expect("design");
    b.require("caller", "svc", "ISvc").expect("design");
    b.provide("svc-a", "svc", "ISvc").expect("design");
    b.provide("svc-b", "svc", "ISvc").expect("design");
    b.bind_sync("caller", "svc", "svc-a", "svc")
        .expect("design");
    let mut flow = DesignFlow::new(b);
    flow.thread_domain("rt", ThreadKind::Realtime, 22, &["caller"])
        .expect("design");
    flow.memory_area(
        "imm",
        MemoryKind::Immortal,
        Some(64 * 1024),
        &["rt", "svc-a", "svc-b"],
    )
    .expect("design");
    let arch = flow
        .merge()
        .expect("merges")
        .into_validated()
        .expect("valid");
    deploy(&arch, mode, &{
        let mut r: ContentRegistry<u64> = ContentRegistry::new();
        r.register("Caller", || Box::new(Caller));
        r.register("Svc", || Box::new(Svc));
        r
    })
    .expect("deploys")
}

fn bench_reconfig_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("reconfig_churn");
    for mode in [Mode::Soleil, Mode::MergeAll] {
        let mut dep = fixture(mode);
        let caller = dep.resolve("caller").expect("caller");
        let a = dep.resolve("svc-a").expect("svc-a");
        let b = dep.resolve("svc-b").expect("svc-b");
        let mut target_b = true;
        group.bench_function(format!("{mode}/rebind_txn"), |bench| {
            bench.iter(|| {
                let target = if target_b { b } else { a };
                target_b = !target_b;
                dep.reconfigure(|txn| {
                    txn.stop(caller)?;
                    txn.rebind(caller, "svc", target)?;
                    txn.start(caller)
                })
                .expect("transaction commits");
                // Keep traffic flowing between churns so rebinds hit a
                // live, running engine.
                dep.run_transaction(caller).expect("transaction");
            });
        });
    }
    group.finish();
}

criterion_group!(benches, bench_reconfig_churn);
criterion_main!(benches);
