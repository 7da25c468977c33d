//! Memory-footprint accounting (Fig. 7(c)).
//!
//! A [`FootprintReport`] combines per-area substrate consumption (component
//! state, buffers — what the application itself needs) with the *framework
//! machinery* bytes of the active generation mode (membranes, binding
//! tables, reified metadata). The paper's Fig. 7(c) compares exactly this
//! across OO / SOLEIL / MERGE-ALL / ULTRA-MERGE.

use std::fmt;

use rtsj::memory::{AreaId, MemoryManager};

/// Footprint of one substrate area, under the architecture-level names
/// of the areas it backs.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AreaFootprint {
    /// Architecture-level area name; the names joined with `+` when
    /// several declared areas share the substrate area.
    pub name: String,
    /// Bytes currently consumed in the substrate area.
    pub consumed: usize,
    /// High watermark.
    pub high_watermark: usize,
    /// Configured budget, if bounded.
    pub budget: Option<usize>,
}

/// The complete footprint picture for one deployed system.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintReport {
    /// Label (mode name or "OO").
    pub label: String,
    /// Per-area application consumption.
    pub areas: Vec<AreaFootprint>,
    /// Bytes of framework machinery (membranes, tables, metadata).
    ///
    /// This is the Fig. 7(c) axis: only machinery that *varies with the
    /// generation mode* is counted here, so the SOLEIL / MERGE-ALL /
    /// ULTRA-MERGE comparison reflects what generation actually removes.
    pub framework_bytes: usize,
    /// Bytes pinned by the real-time release engine: the preallocated
    /// timer-queue slots plus any attached contract monitors. Identical in
    /// every mode (the engine is shared infrastructure, not generated
    /// machinery), so it is reported alongside — not inside — the
    /// mode-dependent framework figure.
    pub release_engine_bytes: usize,
}

impl FootprintReport {
    /// Collects a report from the substrate plus framework- and
    /// release-engine-byte figures computed by the caller. Declared areas
    /// that share one substrate area — every immortal area folds into the
    /// one immortal budget, every heap area into the heap — are listed
    /// once, under their names joined with `+`, so that area's bytes
    /// count once.
    pub fn collect(
        label: String,
        mm: &MemoryManager,
        areas: Vec<(String, AreaId)>,
        framework_bytes: usize,
        release_engine_bytes: usize,
    ) -> Self {
        let mut ids: Vec<AreaId> = Vec::with_capacity(areas.len());
        let mut listed: Vec<AreaFootprint> = Vec::with_capacity(areas.len());
        for (name, id) in areas {
            if let Some(seen) = ids.iter().position(|&s| s == id) {
                listed[seen].name.push('+');
                listed[seen].name.push_str(&name);
                continue;
            }
            let s = mm.stats(id).expect("area registered at bootstrap");
            ids.push(id);
            listed.push(AreaFootprint {
                name,
                consumed: s.consumed,
                high_watermark: s.high_watermark,
                budget: s.size_limit,
            });
        }
        FootprintReport {
            label,
            areas: listed,
            framework_bytes,
            release_engine_bytes,
        }
    }

    /// Total application bytes across areas (current consumption).
    pub fn application_bytes(&self) -> usize {
        self.areas.iter().map(|a| a.consumed).sum()
    }

    /// Application + framework + release-engine bytes.
    pub fn total_bytes(&self) -> usize {
        self.application_bytes() + self.framework_bytes + self.release_engine_bytes
    }

    /// Framework overhead relative to a baseline report (e.g. OO):
    /// `total - baseline_total`, saturating at zero.
    pub fn overhead_vs(&self, baseline: &FootprintReport) -> usize {
        self.total_bytes().saturating_sub(baseline.total_bytes())
    }
}

impl fmt::Display for FootprintReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "footprint [{}]", self.label)?;
        for a in &self.areas {
            write!(f, "  area {:<12} {:>8} B", a.name, a.consumed)?;
            if let Some(b) = a.budget {
                write!(f, " / {b} B budget")?;
            }
            writeln!(f)?;
        }
        writeln!(f, "  framework     {:>8} B", self.framework_bytes)?;
        if self.release_engine_bytes > 0 {
            writeln!(f, "  release eng   {:>8} B", self.release_engine_bytes)?;
        }
        writeln!(f, "  total         {:>8} B", self.total_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rtsj::thread::ThreadKind;

    #[test]
    fn collect_and_aggregate() {
        let mut mm = MemoryManager::new(0, 1 << 20);
        let ctx = mm.context(ThreadKind::Regular);
        mm.alloc_raw(&ctx, AreaId::IMMORTAL, 500).unwrap();
        let report = FootprintReport::collect(
            "TEST".into(),
            &mm,
            vec![("imm".into(), AreaId::IMMORTAL)],
            1234,
            256,
        );
        assert_eq!(report.framework_bytes, 1234);
        assert_eq!(report.release_engine_bytes, 256);
        assert!(report.application_bytes() >= 500);
        assert_eq!(
            report.total_bytes(),
            report.application_bytes() + 1234 + 256
        );
        let display = report.to_string();
        assert!(display.contains("imm"));
        assert!(display.contains("framework"));
        assert!(display.contains("release eng"));
    }

    /// Two declared immortal areas are one substrate area: listed once,
    /// under both names, and counted once.
    #[test]
    fn a_shared_substrate_area_counts_once() {
        let mut mm = MemoryManager::new(0, 1 << 20);
        let ctx = mm.context(ThreadKind::Realtime);
        mm.alloc_raw(&ctx, AreaId::IMMORTAL, 500).unwrap();
        let report = FootprintReport::collect(
            "TEST".into(),
            &mm,
            vec![
                ("immA".into(), AreaId::IMMORTAL),
                ("heap".into(), AreaId::HEAP),
                ("immB".into(), AreaId::IMMORTAL),
            ],
            0,
            0,
        );
        let names: Vec<&str> = report.areas.iter().map(|a| a.name.as_str()).collect();
        assert_eq!(names, ["immA+immB", "heap"]);
        assert_eq!(report.application_bytes(), mm.total_consumed());
    }

    #[test]
    fn overhead_vs_baseline() {
        let base = FootprintReport {
            label: "OO".into(),
            areas: vec![],
            framework_bytes: 0,
            release_engine_bytes: 0,
        };
        let other = FootprintReport {
            label: "SOLEIL".into(),
            areas: vec![],
            framework_bytes: 700,
            release_engine_bytes: 0,
        };
        assert_eq!(other.overhead_vs(&base), 700);
        assert_eq!(base.overhead_vs(&other), 0);
    }
}
