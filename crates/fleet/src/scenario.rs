//! The fleet fault corpus behind `mms-ctl fleet <corpus|list|NAME>`: a
//! table of [`FleetScenario`]s, scripted *node* deaths across the
//! fleet, run by `mms_server`'s scenario engine. Every case is fully
//! deterministic — seeded traffic, seeded consensus message delivery —
//! so its rendered report is byte-identical at any thread count.

use crate::fleet::{FleetBuilder, FleetError, FleetEvent, FleetMetrics, TrafficReport};
use mms_server::scenario::{Case, Corpus, Report};
use mms_sim::{SplitMix64, StepMode};

/// A named, scripted fleet scenario.
#[derive(Debug, Clone)]
pub struct FleetScenario {
    /// Unique corpus name (CLI handle).
    pub name: &'static str,
    /// One-line human summary.
    pub summary: &'static str,
    /// Nodes in the ring.
    pub nodes: usize,
    /// Catalog size (uniform movies × tracks).
    pub movies: usize,
    /// Tracks per movie.
    pub tracks: u64,
    /// Cycles of Zipf/Poisson traffic to drive.
    pub cycles: u64,
    /// Poisson arrival rate, sessions per cycle (fleet-wide).
    pub rate: f64,
    /// Zipf skew over the catalog.
    pub theta: f64,
    /// Seed for both traffic and consensus delivery order.
    pub seed: u64,
    /// Scripted node/disk events.
    pub events: Vec<FleetEvent>,
    /// Invariants the run must satisfy.
    pub checks: Vec<FleetCheck>,
}

/// An invariant checked after a scenario run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FleetCheck {
    /// Replication must absorb every failover: zero tracks lost.
    NoTracksLost,
    /// Replication must be exhausted at least once (negative control).
    ExpectDataLoss,
    /// No stream may end the run stuck waiting for a failover decree.
    NoStalledStreams,
    /// At least one stream must end the run stalled (quorum loss).
    ExpectStalledStreams,
    /// Worst per-stream failover hiccup is at most this many cycles
    /// (the consensus commit bound).
    BoundedFailoverHiccups(u64),
    /// The control plane re-elected a leader at least this many times.
    ReElected(u64),
    /// At least this many sessions were admitted.
    MinAdmitted(u64),
    /// At least this many live streams were failed over.
    ReRouted(u64),
}

/// Outcome of one scenario run.
#[derive(Debug, Clone, Default)]
pub struct FleetCaseReport {
    /// The scenario name.
    pub name: &'static str,
    /// Traffic aggregate of the run.
    pub traffic: TrafficReport,
    /// Fleet counters at the end of the run.
    pub metrics: FleetMetrics,
    /// Streams still in failover limbo at the end.
    pub stalled: usize,
    /// Leader elections the control plane performed.
    pub elections: u64,
    /// Per-check verdicts, in scenario order: `(check, held)`.
    pub verdicts: Vec<(FleetCheck, bool)>,
    /// A hard error (not a data-loss verdict — those are absorbed).
    pub error: Option<String>,
}

impl Report for FleetCaseReport {
    /// Whether every check held and no hard error occurred.
    fn passed(&self) -> bool {
        self.error.is_none() && self.verdicts.iter().all(|&(_, held)| held)
    }

    fn render(&self) -> String {
        let mut out = String::new();
        if let Some(e) = &self.error {
            out.push_str(&format!("  ERROR {e}\n"));
            return out;
        }
        let m = &self.metrics;
        out.push_str(&format!(
            "  traffic: offered={} admitted={} rejected={} unavailable={}\n",
            self.traffic.offered,
            self.traffic.admitted,
            self.traffic.rejected,
            self.traffic.unavailable,
        ));
        out.push_str(&format!(
            "  failover: rounds={} re_routed={} dropped={} max_gap={} hiccup_cycles={}\n",
            m.failovers,
            m.re_routed_streams,
            m.dropped_on_failover,
            m.max_failover_gap,
            m.failover_hiccup_cycles,
        ));
        out.push_str(&format!(
            "  verdicts: tracks_lost={} data_loss_events={} stalled={} elections={}\n",
            m.tracks_lost, m.data_loss_events, self.stalled, self.elections,
        ));
        for (check, held) in &self.verdicts {
            out.push_str(&format!(
                "  [{}] {check:?}\n",
                if *held { "PASS" } else { "FAIL" }
            ));
        }
        out
    }
}

fn check_holds(check: FleetCheck, r: &FleetCaseReport) -> bool {
    let m = &r.metrics;
    match check {
        FleetCheck::NoTracksLost => m.tracks_lost == 0,
        FleetCheck::ExpectDataLoss => m.data_loss_events > 0,
        FleetCheck::NoStalledStreams => r.stalled == 0,
        FleetCheck::ExpectStalledStreams => r.stalled > 0,
        FleetCheck::BoundedFailoverHiccups(bound) => m.max_failover_gap <= bound,
        FleetCheck::ReElected(min) => r.elections >= min,
        FleetCheck::MinAdmitted(min) => r.traffic.admitted >= min,
        FleetCheck::ReRouted(min) => m.re_routed_streams >= min,
    }
}

impl Case for FleetScenario {
    type Report = FleetCaseReport;

    fn name(&self) -> &'static str {
        self.name
    }

    fn summary(&self) -> &'static str {
        self.summary
    }

    /// Run the scenario to completion and evaluate its checks. The
    /// fleet's nodes step cycle by cycle whatever `_step_mode` says.
    fn run(&self, _run: usize, _step_mode: StepMode) -> FleetCaseReport {
        let mut report = FleetCaseReport {
            name: self.name,
            ..FleetCaseReport::default()
        };
        if let Err(e) = self.drive(&mut report) {
            report.error = Some(e.to_string());
        }
        report
    }
}

impl FleetScenario {
    /// Build the fleet, script its events, drive the traffic and
    /// record the verdicts; a hard error stops the run where it occurs.
    fn drive(&self, report: &mut FleetCaseReport) -> Result<(), FleetError> {
        let mut fleet = FleetBuilder::new(self.nodes)
            .catalog(self.movies, self.tracks)
            .control_seed(self.seed)
            .build()?;
        for &event in &self.events {
            fleet.inject(event)?;
        }
        let mut rng = SplitMix64::new(self.seed);
        report.traffic = fleet.run_with_traffic(self.cycles, self.rate, self.theta, &mut rng)?;
        report.metrics = *fleet.metrics();
        report.stalled = fleet.stalled_sessions();
        report.elections = fleet.control_stats().elections;
        report.verdicts = self
            .checks
            .iter()
            .map(|&c| (c, check_holds(c, report)))
            .collect();
        Ok(())
    }
}

/// Worst-case decree-commit gap the corpus tolerates: twice the
/// control plane's own bounded-commit test margin, with slack for a
/// concurrent election.
const HICCUP_BOUND: u64 = 64;

/// The named fleet corpus (the `mms-ctl fleet` table).
///
/// `quick` halves the traffic horizon of the longer soaks; scripted
/// events always stay inside the shortened horizon so verdicts are
/// mode-independent.
#[must_use]
pub fn corpus(quick: bool) -> Corpus<FleetScenario> {
    let soak = |cycles: u64| if quick { cycles / 2 } else { cycles };
    let ring = |name, summary, seed, events, checks| FleetScenario {
        name,
        summary,
        nodes: 4,
        movies: 8,
        tracks: 120,
        cycles: soak(400),
        rate: 1.5,
        theta: 0.271,
        seed,
        events,
        checks,
    };
    let cases = vec![
        ring(
            "fleet-failover",
            "one node dies mid-traffic; chained secondary absorbs every stream",
            9501,
            vec![FleetEvent::fail_node(60, 2)],
            vec![
                FleetCheck::NoTracksLost,
                FleetCheck::ReRouted(1),
                FleetCheck::BoundedFailoverHiccups(HICCUP_BOUND),
                FleetCheck::NoStalledStreams,
                FleetCheck::MinAdmitted(20),
            ],
        ),
        ring(
            "fleet-leader-failover",
            "the consensus leader itself dies; the ring elects its right neighbor",
            9502,
            vec![FleetEvent::fail_node(50, 0)],
            vec![
                FleetCheck::NoTracksLost,
                FleetCheck::ReElected(1),
                FleetCheck::BoundedFailoverHiccups(HICCUP_BOUND),
                FleetCheck::NoStalledStreams,
            ],
        ),
        ring(
            "fleet-repair",
            "fail then repair one node; primaries return only after the NodeUp decree",
            9503,
            vec![
                FleetEvent::fail_node(50, 1),
                FleetEvent::repair_node(150, 1),
            ],
            vec![
                FleetCheck::NoTracksLost,
                FleetCheck::NoStalledStreams,
                FleetCheck::MinAdmitted(20),
            ],
        ),
        FleetScenario {
            nodes: 5,
            movies: 10,
            // Long movies: the hold (tracks/k cycles) must exceed the
            // decree-commit gap, or every stream expires before the
            // second failover can find replication exhausted.
            tracks: 400,
            rate: 2.0,
            ..ring(
                "fleet-replication-exhausted",
                "adjacent double fault with quorum intact: typed data loss, fleet survives",
                9504,
                vec![FleetEvent::fail_node(40, 1), FleetEvent::fail_node(120, 2)],
                vec![
                    FleetCheck::ExpectDataLoss,
                    FleetCheck::NoStalledStreams,
                    FleetCheck::MinAdmitted(20),
                ],
            )
        },
        ring(
            "fleet-quorum-loss",
            "two of four nodes down: the second NodeDown decree can never commit",
            9505,
            vec![FleetEvent::fail_node(40, 0), FleetEvent::fail_node(120, 2)],
            vec![
                FleetCheck::NoTracksLost,
                FleetCheck::ExpectStalledStreams,
                FleetCheck::ReElected(1),
            ],
        ),
        FleetScenario {
            nodes: 6,
            movies: 12,
            cycles: soak(600),
            rate: 2.0,
            ..ring(
                "fleet-storm",
                "rolling fail/repair storm, never two down at once: zero loss throughout",
                9506,
                vec![
                    FleetEvent::fail_node(40, 0),
                    FleetEvent::repair_node(120, 0),
                    FleetEvent::fail_node(180, 3),
                    FleetEvent::repair_node(260, 3),
                    FleetEvent::fail_node(320, 5),
                    FleetEvent::repair_node(400, 5),
                ],
                vec![
                    FleetCheck::NoTracksLost,
                    FleetCheck::BoundedFailoverHiccups(HICCUP_BOUND),
                    FleetCheck::NoStalledStreams,
                    FleetCheck::MinAdmitted(40),
                ],
            )
        },
    ];
    Corpus {
        label: "fleet corpus",
        cases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mms_exec::Parallelism;
    use mms_server::RunConfig;

    fn render(threads: Parallelism, quick: bool) -> (String, bool) {
        corpus(quick).render(&RunConfig {
            threads,
            ..RunConfig::default()
        })
    }

    #[test]
    fn corpus_names_are_unique() {
        let corpus = corpus(true);
        let cases = &corpus.cases;
        assert!(cases.len() >= 6, "fleet corpus shrank to {}", cases.len());
        let mut names: Vec<&str> = cases.iter().map(|c| c.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len(), "duplicate fleet scenario names");
        assert!(corpus.clone().only("fleet-failover").is_some());
        assert!(corpus.only("no-such-scenario").is_none());
    }

    #[test]
    fn corpus_passes_in_both_modes() {
        for quick in [true, false] {
            let (text, passed) = render(Parallelism::Sequential, quick);
            assert!(passed, "fleet corpus failed (quick={quick}):\n{text}");
        }
    }

    #[test]
    fn corpus_is_thread_count_invariant() {
        let base = render(Parallelism::threads(1), true);
        for threads in [2, 8] {
            let other = render(Parallelism::threads(threads), true);
            assert_eq!(
                base.0, other.0,
                "fleet corpus text diverged at {threads} threads"
            );
        }
    }
}
