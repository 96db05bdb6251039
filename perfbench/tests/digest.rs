//! The request streams are a pure function of the workload seed.

use perfbench::gen::{generate, stream_digest, Fixture, Workload};

#[test]
fn same_seed_same_stream_other_seed_other_stream() {
    let catalog = |mut fx: Fixture| {
        let wires = fx.infer_in_process();
        fx.set_catalog(&wires);
        fx
    };
    let fixture = catalog(Fixture::build());
    let rebuilt = catalog(Fixture::build());
    for workload in Workload::ALL {
        let first = stream_digest(&fixture, &generate(&fixture, workload, 7));
        let again = stream_digest(&rebuilt, &generate(&rebuilt, workload, 7));
        let other = stream_digest(&fixture, &generate(&fixture, workload, 8));
        assert_eq!(
            first,
            again,
            "{}: same seed, different stream",
            workload.name()
        );
        assert_ne!(
            first,
            other,
            "{}: seed does not reach the stream",
            workload.name()
        );
    }
}
