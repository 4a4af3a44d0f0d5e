//! The hierarchical plan over real loopback sockets: the TCP backend
//! must reproduce the in-process frame and trace bit-exactly while
//! dialing only the plan's topology — group meshes plus the leader
//! overlay — instead of the full `O(P²)` mesh.

use rt_core::{ComposeConfig, ComposePlan, HierPlan, IntraMethod, Run, TransportKind};
use rt_imaging::image::reference_composite;
use rt_imaging::synth::band_partials;
use rt_net::Topology;
use std::time::Duration;

#[test]
fn hier_over_tcp_matches_inproc_bit_exactly_on_restricted_sockets() {
    let (p, k, w) = (16, 4, 24);
    let plan = HierPlan::build(p, k, IntraMethod::BinarySwap, w, p).unwrap();

    // The plan's topology is the O(P·k + (P/k)²) set, far below the mesh.
    let links = plan.links(0, None);
    let topo = Topology::from_links(links.iter().copied());
    assert_eq!(topo.socket_count(p), 4 * 6 + 6);
    assert!(topo.socket_count(p) < p * (p - 1) / 2);

    let plan = ComposePlan::Hier(plan);
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
