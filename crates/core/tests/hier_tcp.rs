//! The hierarchical schedule over real loopback sockets: the TCP backend
//! must reproduce the in-process frame and trace bit-exactly while
//! dialing only the schedule's own links — swap partners, placements, the
//! leader overlay and the gather — instead of the full `O(P²)` mesh.

use rt_core::{ComposeConfig, ComposePlan, IntraMethod, Method, Run, TransportKind};
use rt_imaging::image::reference_composite;
use rt_imaging::synth::band_partials;
use rt_net::Topology;
use std::time::Duration;

#[test]
fn hier_over_tcp_matches_inproc_bit_exactly_on_restricted_sockets() {
    let (p, k, w) = (16, 4, 24);
    let intra = IntraMethod::BinarySwap;
    let plan = Method::Hier { k, intra }.plan(p, w, p).unwrap();
    let ComposePlan::Schedule(schedule) = &plan else {
        panic!("a hierarchical plan is a span schedule");
    };

    // The schedule's topology is an O(P·k + (P/k)²) set — per group the
    // swap pairs plus the one placement link they miss, and the leader
    // mesh — far below the full mesh.
    let links = schedule.links(0, None);
    let topo = Topology::from_links(links.iter().copied());
    assert_eq!(topo.socket_count(p), 4 * 5 + 6);
    assert!(topo.socket_count(p) < p * (p - 1) / 2);

    let partials = band_partials(p, w, p);
    let expected = reference_composite(&partials).unwrap();

    let inproc = ComposeConfig::default();
    let (in_results, in_trace) = Run::new(&plan, &inproc).execute(partials.clone());

    // The TCP run goes through the plan-derived restricted topology
    // (see `plan_topology` in the harness): establishment would fail if
    // any transfer needed a link outside the plan's set.
    let tcp = ComposeConfig::default()
        .with_transport(TransportKind::TcpLoopback)
        .with_timeout(Duration::from_secs(30));
    let (tcp_results, tcp_trace) = Run::new(&plan, &tcp).execute(partials);

    let in_frame = in_results[0].as_ref().unwrap().frame.as_ref().unwrap();
    let tcp_frame = tcp_results[0].as_ref().unwrap().frame.as_ref().unwrap();
    assert_eq!(tcp_frame.pixels(), expected.pixels());
    assert_eq!(tcp_frame.pixels(), in_frame.pixels());
    // The trace records what was sent, not how: bit-identical backends.
    assert_eq!(tcp_trace, in_trace);
}
