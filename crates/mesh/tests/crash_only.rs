//! The crash-only oracle at the backend tier: an idle kv or sql replica
//! taken through a maintenance op is the replica [`backend::boot`] builds,
//! system and application alike.

use vampos_apps::App;
use vampos_mesh::{backend, BackendInstance, BackendOpKind, MeshTopology};
use vampos_sim::{Nanos, SimClock};

type Image = (Vec<(String, Option<u64>, Option<usize>)>, u64);

/// Every component's logical state and resident arena bytes, plus the
/// application's digest. Function-log lengths are compared at the core
/// and fleet tiers only: a replica that boots over the database it left
/// behind loads it, where a first boot creates the table, so the two logs
/// hold the same state in a different number of entries.
fn image(inst: &BackendInstance) -> Image {
    let entry = |name: String| {
        let digest = inst.sys.state_digest(&name);
        let resident = inst.sys.arena_resident_bytes(&name);
        (name, digest, resident)
    };
    let components = inst.sys.component_names().into_iter().map(entry);
    (components.collect(), inst.app.state_digest())
}

#[test]
fn a_replica_maintained_from_idle_is_a_freshly_booted_one() {
    let topology = MeshTopology::standard(1, true);
    // `kv` persists through an AOF, `sql` through its database file.
    for svc in [1, 2] {
        let spec = &topology.services[svc];
        let shared = backend::image(spec.kind).expect("image");
        let booted =
            || backend::boot(spec, svc, 0, 42, &shared, SimClock::default()).expect("boot");
        let fresh = image(&booted());
        // `vfs` is in every backend set; `lwip` is not in sql's.
        let ops = [
            BackendOpKind::Rejuvenate,
            BackendOpKind::FullReboot,
            BackendOpKind::SpuriousReboot {
                component: "vfs".to_owned(),
            },
        ];
        for first in &ops {
            let mut inst = booted();
            first.apply(&mut inst, Nanos::from_millis(1)).expect("op");
            assert_eq!(image(&inst), fresh, "{}: {first:?}", spec.name);
            for second in &ops {
                second.apply(&mut inst, Nanos::from_millis(60)).expect("op");
                let label = format!("{}: {first:?}, then {second:?}", spec.name);
                assert_eq!(image(&inst), fresh, "{label}");
            }
        }
    }
}
