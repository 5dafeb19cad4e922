//! Optimistic travel bookings with compensation (COMPE, §4).
//!
//! ```text
//! cargo run --example travel_saga
//! ```
//!
//! A travel agency books seats and rooms *optimistically*: every replica
//! applies the reservation MSet before the itinerary globally commits
//! (customers see seats held immediately). If payment later fails, the
//! coordinator broadcasts an abort and each replica compensates —
//! directly when the intervening bookings commute, or by rolling back
//! and replaying the log suffix when they don't.

use esr::core::{EpsilonSpec, ObjectId, ObjectOp, Operation, SiteId};
use esr::replica::cluster::{ClusterConfig, Method, SimCluster};
use esr::sim::time::VirtualTime;

const FLIGHT_SEATS: ObjectId = ObjectId(0);
const HOTEL_ROOMS: ObjectId = ObjectId(1);

fn main() {
    println!("== simulated cluster: random payment failures ==");
    // 30% of itineraries fail payment after a 20ms authorization delay.
    let cfg = ClusterConfig::new(Method::Compe)
        .with_sites(3)
        .with_seed(31)
        .with_abort_prob(0.3);
    let mut agency = SimCluster::new(cfg);

    println!("booking 30 itineraries (1 seat + 1 room each)…");
    for i in 0..30u64 {
        agency.advance_to(VirtualTime::from_millis(i * 3));
        agency.submit_update(
            SiteId(i % 3),
            vec![
                ObjectOp::new(FLIGHT_SEATS, Operation::Decr(1)),
                ObjectOp::new(HOTEL_ROOMS, Operation::Decr(1)),
            ],
        );
    }

    // A capacity dashboard reads mid-flight: the charge counts the
    // bookings still at risk of compensation (§4.2's conservative bound).
    let dash = agency.try_query(
        SiteId(1),
        &[FLIGHT_SEATS, HOTEL_ROOMS],
        EpsilonSpec::UNBOUNDED,
    );
    println!(
        "dashboard: seats={} rooms={} (bookings still at risk: {})",
        dash.values[0], dash.values[1], dash.charged
    );

    agency.run_until_quiescent();
    assert!(agency.converged());
    assert!(agency.matches_oracle());
    let s = agency.stats();
    println!(
        "payments failed: {} — compensated via fast path {} times, suffix rollback {} times",
        s.aborts, s.fast_compensations, s.suffix_rollbacks
    );
    let snap = agency.snapshot_of(SiteId(2));
    println!(
        "final inventory deltas: seats={} rooms={} (only paid bookings remain)",
        snap[&FLIGHT_SEATS], snap[&HOTEL_ROOMS]
    );
    assert_eq!(
        snap[&FLIGHT_SEATS], snap[&HOTEL_ROOMS],
        "every surviving itinerary took one of each"
    );

    println!();
    println!("== the client drives commit/abort ==");
    let mut desk = SimCluster::new(
        ClusterConfig::new(Method::Compe)
            .with_sites(3)
            .with_seed(32),
    );
    let holiday = desk.submit_update_pending(
        SiteId(0),
        vec![
            ObjectOp::new(FLIGHT_SEATS, Operation::Decr(2)),
            ObjectOp::new(HOTEL_ROOMS, Operation::Decr(1)),
        ],
    );
    desk.advance_to(VirtualTime::from_millis(1));
    let business = desk.submit_update_pending(
        SiteId(1),
        vec![ObjectOp::new(FLIGHT_SEATS, Operation::Decr(1))],
    );
    // Payment clears for the holiday, bounces for the business trip.
    desk.advance_to(VirtualTime::from_millis(2));
    desk.resolve(holiday, true);
    desk.advance_to(VirtualTime::from_millis(3));
    desk.resolve(business, false);
    desk.run_until_quiescent();
    assert!(desk.converged());
    let snap = desk.snapshot_of(SiteId(2));
    let (seats, rooms) = (&snap[&FLIGHT_SEATS], &snap[&HOTEL_ROOMS]);
    println!("after commit(holiday) + abort(business): seats={seats} rooms={rooms}");
    assert_eq!(seats.as_int(), Some(-2), "only the holiday's 2 seats held");
    assert_eq!(rooms.as_int(), Some(-1));
    println!("the aborted booking left no trace on any replica");
}
