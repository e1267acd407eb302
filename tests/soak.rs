//! Soak test: a long stochastic run with accelerated disk failures and
//! repairs, Poisson arrivals, and byte verification — the closest thing
//! to the production duty cycle the paper's server would face.

use ft_media_server::disk::{ReliabilityParams, Time};
use ft_media_server::layout::{BandwidthClass, MediaObject, ObjectId};
use ft_media_server::sched::SchemeScheduler;
use ft_media_server::sim::{
    AdmissionPolicy, ArrivalProcess, DataMode, FailureSchedule, SessionEngine,
};
use ft_media_server::{Scheme, ServerBuilder};
use rand::rngs::StdRng;
use rand::SeedableRng;

const CYCLES: u64 = 1_500;

#[test]
fn stochastic_soak_across_all_schemes() {
    let mut rng = StdRng::seed_from_u64(0x51_6D0D);
    for scheme in Scheme::ALL {
        let disks = if scheme == Scheme::ImprovedBandwidth {
            8
        } else {
            10
        };
        let mut builder = ServerBuilder::new(scheme)
            .disks(disks)
            .parity_group(5)
            .data_mode(DataMode::Verified { track_bytes: 48 });
        let titles: Vec<(ObjectId, u64)> = (0..4u64).map(|i| (ObjectId(i), 40 + 12 * i)).collect();
        for &(id, tracks) in &titles {
            builder = builder.object(MediaObject::new(
                id,
                format!("title{}", id.0),
                tracks,
                BandwidthClass::Mpeg1,
            ));
        }
        let mut server = builder.build().unwrap();

        // Accelerated failures: each disk fails a few times over the
        // horizon and is repaired within ~20 cycles (the paper's 1-hour
        // MTTR would outlast this compressed horizon entirely).
        let t_cyc = server.cycle_config().t_cyc();
        let rel = ReliabilityParams {
            mttf: ReliabilityParams::paper().mttf,
            mttr: Time::from_secs(t_cyc.as_secs() * 20.0),
        };
        let schedule = FailureSchedule::stochastic(&mut rng, disks, rel, t_cyc, CYCLES, 2.0e6);
        let injected = schedule.remaining();
        server.simulator_mut().set_failures(schedule);

        // Open-loop Poisson arrivals: each viewer watches a whole title,
        // holding its slot for that title's own length.
        let cfg = *server.cycle_config();
        let catalog = titles
            .iter()
            .map(|&(id, tracks)| (id, cfg.session_cycles(tracks)))
            .collect();
        let arrivals = ArrivalProcess::poisson(0.15);
        let mut engine = SessionEngine::new(catalog, 0.271, arrivals, AdmissionPolicy::Reject);
        let mut wrng = StdRng::seed_from_u64(7 + disks as u64);
        // Catastrophes (two overlapping failures) are possible under the
        // acceleration; the run must stay consistent regardless.
        server.run_sessions(CYCLES, &mut engine, &mut wrng).unwrap();

        let m = server.metrics().clone();
        assert!(injected > 0, "{scheme:?}: the soak needs failures");
        assert!(
            m.streams_finished > 20,
            "{scheme:?}: {}",
            m.streams_finished
        );
        assert_eq!(m.delivered, m.verified, "{scheme:?}: all bytes checked");
        // Even with repeated failures, the overwhelming majority of
        // deliveries succeed.
        assert!(
            m.delivery_rate() > 0.97,
            "{scheme:?}: delivery rate {}",
            m.delivery_rate()
        );
        // Buffers never leak across the whole horizon.
        let residual = server.simulator().scheduler().buffer_in_use();
        let active = server.active_streams();
        assert!(
            active > 0 || residual == 0,
            "{scheme:?}: {residual} tracks leaked with no active streams"
        );
    }
}
