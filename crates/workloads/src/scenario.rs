//! The evaluation workloads (§7.1.1, Figs. 5 and 8).
//!
//! A workload is a sequence of applications started with fixed delays.
//! Names follow the paper: application letters (W = n-weight, P = PageRank,
//! C = Go-Cache, M = k-means) followed by the inter-job delay in seconds —
//! e.g. `MMW 180` starts two k-means jobs and an n-weight job 180 s apart.

use m3_sim::clock::SimDuration;
use m3_sim::trace::Criticality;
use serde::{Deserialize, Serialize};

use crate::faults::FaultPlan;

/// The kinds of application the evaluation schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AppKind {
    /// HiBench k-means on Spark ('M').
    KMeans,
    /// HiBench PageRank on Spark ('P').
    PageRank,
    /// HiBench n-weight on Spark ('W').
    NWeight,
    /// The Go-Cache benchmark ('C').
    GoCache,
    /// Memcached under memtier (Fig. 9 only).
    Memcached,
}

impl AppKind {
    /// The one-letter code used in workload names.
    pub fn code(self) -> char {
        match self {
            AppKind::KMeans => 'M',
            AppKind::PageRank => 'P',
            AppKind::NWeight => 'W',
            AppKind::GoCache => 'C',
            AppKind::Memcached => 'X',
        }
    }

    /// Parses a one-letter code.
    pub fn from_code(c: char) -> Option<Self> {
        match c {
            'M' => Some(AppKind::KMeans),
            'P' => Some(AppKind::PageRank),
            'W' => Some(AppKind::NWeight),
            'C' => Some(AppKind::GoCache),
            'X' => Some(AppKind::Memcached),
            _ => None,
        }
    }
}

/// Criticality class and optional latency SLO of one scheduled job.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobClass {
    /// The job's criticality class.
    pub crit: Criticality,
    /// Latency SLO in milliseconds; 0 declares no SLO.
    pub slo_ms: u64,
}

impl Default for JobClass {
    fn default() -> Self {
        JobClass {
            crit: Criticality::Standard,
            slo_ms: 0,
        }
    }
}

impl JobClass {
    /// A classed job with an SLO (`slo_ms == 0` declares none).
    pub fn new(crit: Criticality, slo_ms: u64) -> Self {
        JobClass { crit, slo_ms }
    }

    /// True for the implicit class of unclassified jobs.
    pub fn is_default(&self) -> bool {
        *self == JobClass::default()
    }
}

/// One evaluation workload: applications with start offsets, plus the
/// per-application annotations a run honours (criticality classes and an
/// injected fault plan, both indexed by schedule position).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// The paper-style name, e.g. `"MMW 180"`.
    pub name: String,
    /// `(kind, start offset)` per application, in schedule order.
    pub apps: Vec<(AppKind, SimDuration)>,
    /// Per-application criticality classes, parallel to `apps`. Empty means
    /// every job is `Standard` with no SLO (the pre-classification default),
    /// which keeps unclassified scenarios content-addressing exactly as
    /// before classes existed.
    pub classes: Vec<JobClass>,
    /// What goes wrong during the run; its app-targeted events name
    /// schedule indices. Part of the memo key, so a faulted run never
    /// shares a cache entry with the fault-free one.
    pub faults: FaultPlan,
}

impl Scenario {
    /// Builds a scenario from letter codes and a uniform inter-job delay in
    /// seconds (the paper's naming scheme).
    ///
    /// # Panics
    ///
    /// Panics on an unknown letter.
    pub fn uniform(codes: &str, delay_secs: u64) -> Self {
        let apps = codes
            .chars()
            .enumerate()
            .map(|(i, c)| {
                let kind = AppKind::from_code(c)
                    .unwrap_or_else(|| panic!("unknown app code {c:?} in {codes:?}"));
                (kind, SimDuration::from_secs(delay_secs * i as u64))
            })
            .collect();
        Scenario {
            name: format!("{codes} {delay_secs}"),
            apps,
            classes: Vec::new(),
            faults: FaultPlan::none(),
        }
    }

    /// Attaches criticality classes, one per application.
    ///
    /// # Panics
    ///
    /// Panics if `classes` is non-empty and its length differs from the
    /// application count.
    pub fn with_classes(mut self, classes: Vec<JobClass>) -> Self {
        assert!(
            classes.is_empty() || classes.len() == self.apps.len(),
            "classes must be empty or one per application ({} apps, {} classes)",
            self.apps.len(),
            classes.len()
        );
        // An all-default vector is the same declaration as an empty one;
        // normalise so the two content-address identically.
        if classes.iter().all(JobClass::is_default) {
            self.classes = Vec::new();
        } else {
            self.classes = classes;
        }
        self
    }

    /// The class of application `job` (default for unclassified scenarios).
    pub fn class_of(&self, job: usize) -> JobClass {
        self.classes.get(job).copied().unwrap_or_default()
    }

    /// True if any job declares a non-default class or an SLO.
    pub fn is_classified(&self) -> bool {
        !self.classes.is_empty()
    }

    /// Number of applications.
    pub fn len(&self) -> usize {
        self.apps.len()
    }

    /// True if the scenario schedules nothing.
    pub fn is_empty(&self) -> bool {
        self.apps.is_empty()
    }

    /// True if every application is the same kind started at the same time
    /// — the theoretical worst case for M3 (§7.1.1: "identical
    /// applications, with no delay, guarantee that there is no possibility
    /// for improvement").
    pub fn is_worst_case(&self) -> bool {
        let Some(&(first, _)) = self.apps.first() else {
            return false;
        };
        self.apps.iter().all(|&(k, d)| k == first && d.is_zero())
    }
}

/// The twelve Fig. 5 workloads, in the paper's order.
pub fn figure5_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::uniform("WPM", 180),
        Scenario::uniform("MCM", 180),
        Scenario::uniform("CPW", 180),
        Scenario::uniform("WMP", 240),
        Scenario::uniform("CWM", 180),
        Scenario::uniform("CCW", 300),
        Scenario::uniform("WMM", 300),
        Scenario::uniform("MMM", 180),
        Scenario::uniform("CMW", 180),
        Scenario::uniform("MWP", 180),
        Scenario::uniform("MMW", 180),
        Scenario::uniform("CCC", 480),
    ]
}

/// The four theoretical-worst-case workloads of Fig. 8.
pub fn figure8_scenarios() -> Vec<Scenario> {
    vec![
        Scenario::uniform("PPP", 0),
        Scenario::uniform("WW", 0),
        Scenario::uniform("CCC", 0),
        Scenario::uniform("MMM", 0),
    ]
}

/// All sixteen evaluation workloads.
pub fn all_scenarios() -> Vec<Scenario> {
    let mut v = figure5_scenarios();
    v.extend(figure8_scenarios());
    v
}

/// The canonical fleet workload: six mixed jobs arriving two minutes apart
/// — enough jobs to exercise placement, reservation-based admission and
/// deferral on a small fleet, pinned by the golden snapshot test.
pub fn fleet_canonical() -> Scenario {
    Scenario::uniform("MMWMCM", 120)
}

/// The fleet-scale workload: ten waves of `nodes` jobs each (so `10 *
/// nodes` jobs total), waves sixteen minutes apart. Every job in a wave
/// arrives at the same instant — the scheduler's placements, not arrival
/// jitter, provide the per-node variety, which keeps node schedules
/// content-addressable across a large homogeneous fleet: with waves that
/// drain between arrivals, the fleet's nodes fall into a handful of
/// schedule classes regardless of N. The mix is k-means-dominated with an
/// n-weight and a go-cache job sprinkled across the waves (1/32 each of
/// the heavy kinds, which outlive a wave gap and monopolise a big node),
/// so admission control and deferral stay exercised at every scale.
pub fn fleet_scale_scenario(nodes: usize) -> Scenario {
    const WAVES: usize = 10;
    const WAVE_GAP_S: u64 = 960;
    let mut apps = Vec::with_capacity(WAVES * nodes);
    for wave in 0..WAVES {
        let at = SimDuration::from_secs(wave as u64 * WAVE_GAP_S);
        for i in 0..nodes {
            // Deterministic, wave-shifted sprinkle of heavy jobs.
            let kind = match (wave * 7 + i) % 64 {
                5 => AppKind::NWeight,
                37 => AppKind::GoCache,
                _ => AppKind::KMeans,
            };
            apps.push((kind, at));
        }
    }
    Scenario {
        name: format!("fleet-scale {nodes}x{WAVES}"),
        apps,
        classes: Vec::new(),
        faults: FaultPlan::none(),
    }
}

/// The mixed-criticality co-location workload: a latency-critical
/// memcached-style cache tier scheduled *after* `batch` Spark k-means jobs,
/// so a criticality-blind newest-first policy would shoot the cache first
/// under pressure. The cache declares a latency SLO; the batch jobs are
/// expendable.
pub fn mixed_criticality_scenario(batch: usize, slo_ms: u64) -> Scenario {
    let mut apps: Vec<(AppKind, SimDuration)> = (0..batch)
        .map(|i| (AppKind::KMeans, SimDuration::from_secs(30 * i as u64)))
        .collect();
    let mut classes = vec![JobClass::new(Criticality::Batch, 0); batch];
    apps.push((
        AppKind::Memcached,
        SimDuration::from_secs(30 * batch as u64),
    ));
    classes.push(JobClass::new(Criticality::LatencyCritical, slo_ms));
    Scenario {
        name: format!("mixed-crit {batch}xM+X"),
        apps,
        classes,
        faults: FaultPlan::none(),
    }
}

/// The fleet evaluation workloads: the canonical mix, a simultaneous-
/// arrival burst (admission control under a thundering herd), and a
/// memory-heavy sequence that forces deferrals.
pub fn fleet_scenarios() -> Vec<Scenario> {
    vec![
        fleet_canonical(),
        Scenario::uniform("MMMM", 0),
        Scenario::uniform("WWCC", 300),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_builds_offsets() {
        let s = Scenario::uniform("MMW", 180);
        assert_eq!(s.name, "MMW 180");
        assert_eq!(s.len(), 3);
        assert_eq!(s.apps[0], (AppKind::KMeans, SimDuration::ZERO));
        assert_eq!(s.apps[1], (AppKind::KMeans, SimDuration::from_secs(180)));
        assert_eq!(s.apps[2], (AppKind::NWeight, SimDuration::from_secs(360)));
    }

    #[test]
    fn paper_has_sixteen_workloads() {
        assert_eq!(figure5_scenarios().len(), 12);
        assert_eq!(figure8_scenarios().len(), 4);
        assert_eq!(all_scenarios().len(), 16);
    }

    #[test]
    fn worst_case_detection() {
        assert!(Scenario::uniform("PPP", 0).is_worst_case());
        assert!(Scenario::uniform("CCC", 0).is_worst_case());
        assert!(!Scenario::uniform("CCC", 480).is_worst_case());
        assert!(!Scenario::uniform("MMW", 0).is_worst_case());
        assert!(!Scenario::uniform("MMM", 180).is_worst_case());
    }

    #[test]
    fn figure8_are_all_worst_cases() {
        assert!(figure8_scenarios().iter().all(Scenario::is_worst_case));
        assert!(!figure5_scenarios().iter().any(Scenario::is_worst_case));
    }

    #[test]
    fn fleet_scenarios_are_well_formed() {
        let all = fleet_scenarios();
        assert_eq!(all[0].name, fleet_canonical().name);
        for s in &all {
            assert!(s.len() >= 4, "fleet workloads keep several nodes busy");
        }
        assert!(
            all.iter().any(|s| s.apps.iter().all(|(_, d)| d.is_zero())),
            "one burst workload with simultaneous arrivals"
        );
    }

    #[test]
    fn fleet_scale_scenario_shape() {
        let s = fleet_scale_scenario(8);
        assert_eq!(s.len(), 80, "ten waves of `nodes` jobs");
        assert_eq!(s.apps[0].1, SimDuration::ZERO);
        assert_eq!(s.apps[8].1, SimDuration::from_secs(960));
        assert_eq!(s.apps[79].1, SimDuration::from_secs(9 * 960));
        let heavy = s
            .apps
            .iter()
            .filter(|(k, _)| !matches!(k, AppKind::KMeans))
            .count();
        assert!(heavy > 0, "some heavy jobs in the mix");
        assert!(heavy * 4 < s.len(), "but k-means dominates");
        // Same node count, same scenario — byte-identical generation.
        assert_eq!(fleet_scale_scenario(8), s);
    }

    #[test]
    fn codes_round_trip() {
        for k in [
            AppKind::KMeans,
            AppKind::PageRank,
            AppKind::NWeight,
            AppKind::GoCache,
            AppKind::Memcached,
        ] {
            assert_eq!(AppKind::from_code(k.code()), Some(k));
        }
        assert_eq!(AppKind::from_code('z'), None);
    }

    #[test]
    #[should_panic(expected = "unknown app code")]
    fn bad_letters_rejected() {
        Scenario::uniform("MZ", 0);
    }

    #[test]
    fn classes_default_to_standard() {
        let s = Scenario::uniform("MMW", 180);
        assert!(!s.is_classified());
        assert_eq!(s.class_of(0), JobClass::default());
        assert_eq!(s.class_of(99), JobClass::default());
    }

    #[test]
    fn with_classes_attaches_and_normalises() {
        let classed = Scenario::uniform("MM", 0).with_classes(vec![
            JobClass::new(Criticality::Batch, 0),
            JobClass::new(Criticality::LatencyCritical, 500),
        ]);
        assert!(classed.is_classified());
        assert_eq!(classed.class_of(1).slo_ms, 500);
        // All-default classes normalise to the unclassified representation,
        // so the two content-address identically.
        let plain = Scenario::uniform("MM", 0).with_classes(vec![JobClass::default(); 2]);
        assert_eq!(plain, Scenario::uniform("MM", 0));
    }

    #[test]
    #[should_panic(expected = "one per application")]
    fn with_classes_rejects_length_mismatch() {
        let _ = Scenario::uniform("MMW", 0).with_classes(vec![JobClass::default()]);
    }

    #[test]
    fn mixed_criticality_scenario_shape() {
        let s = mixed_criticality_scenario(4, 500);
        assert_eq!(s.len(), 5);
        assert!(s.is_classified());
        // The cache tier arrives last — newest under a newest-first posture.
        assert_eq!(s.apps[4].0, AppKind::Memcached);
        assert!(s.apps[4].1 > s.apps[3].1);
        assert_eq!(s.class_of(4).crit, Criticality::LatencyCritical);
        assert_eq!(s.class_of(4).slo_ms, 500);
        for job in 0..4 {
            assert_eq!(s.class_of(job).crit, Criticality::Batch);
        }
    }
}
