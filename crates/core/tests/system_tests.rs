//! End-to-end tests of the VampOS runtime over the real component stack.

use vampos_core::{ComponentSet, InjectedFault, Mode, System, Whence};
use vampos_host::HostHandle;
use vampos_oslib::vfs::OpenFlags;
use vampos_sim::Nanos;
use vampos_ukernel::OsError;

fn sqlite_sys(mode: Mode) -> System {
    System::builder()
        .mode(mode)
        .components(ComponentSet::sqlite())
        .build()
        .expect("boot")
}

fn staged_host() -> HostHandle {
    let host = HostHandle::new();
    host.with(|w| {
        w.ninep_mut().put_file("/etc/motd", b"hello world");
        w.ninep_mut()
            .put_file("/www/index.html", b"<html>hi</html>");
    });
    host
}

// ---------- boot & basic syscalls ----------

#[test]
fn boots_all_paper_component_sets_in_all_modes() {
    for set in [
        ComponentSet::sqlite(),
        ComponentSet::nginx(),
        ComponentSet::redis(),
        ComponentSet::echo(),
    ] {
        for mode in [
            Mode::unikraft(),
            Mode::vampos_noop(),
            Mode::vampos_das(),
            Mode::vampos_fsm(),
            Mode::vampos_netm(),
        ] {
            // FSm needs 9pfs; echo has none — merged groups with a single
            // present member degenerate gracefully.
            let sys = System::builder()
                .mode(mode.clone())
                .components(set.clone())
                .build()
                .unwrap_or_else(|e| panic!("boot {} {}: {e}", set.name(), mode.label()));
            assert!(!sys.has_failed());
        }
    }
}

#[test]
fn mpk_tag_counts_match_section_six() {
    let sys = sqlite_sys(Mode::vampos_das());
    assert_eq!(sys.mpk_tags(), 10); // app + 7 comps + msgdom + sched
    let nginx = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::nginx())
        .build()
        .unwrap();
    assert_eq!(nginx.mpk_tags(), 12);
}

#[test]
fn merged_components_share_a_tag() {
    let sys = System::builder()
        .mode(Mode::vampos_fsm())
        .components(ComponentSet::sqlite())
        .build()
        .unwrap();
    // vfs+9pfs merged: one tag fewer than the unmerged 10.
    assert_eq!(sys.mpk_tags(), 9);
}

#[test]
fn file_round_trip_through_the_whole_stack() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host.clone())
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    assert_eq!(sys.os().read(fd, 5).unwrap(), b"hello");
    assert_eq!(sys.os().read(fd, 6).unwrap(), b" world");
    sys.os().lseek(fd, 0, Whence::Set).unwrap();
    sys.os().write(fd, b"HELLO").unwrap();
    sys.os().close(fd).unwrap();
    assert_eq!(
        host.with(|w| w.ninep().read_file("/etc/motd")),
        Some(b"HELLO world".to_vec())
    );
}

#[test]
fn log_sizes_measured_on_the_hop_match_recomputation() {
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(staged_host())
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.os().read(fd, 5).unwrap();
    sys.os().write(fd, b"HELLO").unwrap();
    let kept = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.os().close(fd).unwrap();
    sys.os().read(kept, 3).unwrap();
    let mut downcalls = 0;
    let mut bytes = 0;
    for name in sys.component_names() {
        for entry in sys.log_entries(&name) {
            downcalls += entry.downcalls.len();
            bytes += entry.byte_len();
        }
    }
    assert!(downcalls > 0, "the run recorded no downcall");
    assert_eq!(sys.total_log_bytes(), bytes);
}

#[test]
fn missing_file_is_not_found_and_creat_creates() {
    let mut sys = sqlite_sys(Mode::vampos_das());
    assert_eq!(
        sys.os().open("/nope", OpenFlags::RDONLY),
        Err(OsError::NotFound)
    );
    let fd = sys
        .os()
        .open("/new.txt", OpenFlags::RDWR | OpenFlags::CREAT)
        .unwrap();
    sys.os().write(fd, b"x").unwrap();
    assert_eq!(sys.os().fstat(fd).unwrap(), 1);
}

#[test]
fn utility_syscalls_work_in_both_modes() {
    for mode in [Mode::unikraft(), Mode::vampos_das()] {
        let mut sys = sqlite_sys(mode);
        assert_eq!(sys.os().getpid().unwrap(), 1);
        assert_eq!(sys.os().getuid().unwrap(), 0);
        assert!(sys.os().uname().unwrap().contains("VampOS"));
        let t0 = sys.os().clock_gettime().unwrap();
        sys.os().nanosleep(1_000_000).unwrap();
        assert!(sys.os().clock_gettime().unwrap() >= t0 + 1_000_000);
    }
}

// ---------- mode cost ordering (Fig. 5 sanity) ----------

#[test]
fn message_passing_costs_more_than_direct_calls() {
    let mut times = Vec::new();
    for mode in [Mode::unikraft(), Mode::vampos_noop(), Mode::vampos_das()] {
        let mut sys = sqlite_sys(mode);
        let (_, took) = {
            let start = sys.clock().now();
            sys.os().getpid().unwrap();
            ((), sys.clock().now() - start)
        };
        times.push(took);
    }
    // Unikraft < DaS < Noop for getpid.
    assert!(
        times[0] < times[2],
        "unikraft {} !< das {}",
        times[0],
        times[2]
    );
    assert!(times[2] < times[1], "das {} !< noop {}", times[2], times[1]);
}

#[test]
fn fs_merge_reduces_open_cost() {
    let host = staged_host();
    let mut das = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host.clone())
        .build()
        .unwrap();
    let host2 = staged_host();
    let mut fsm = System::builder()
        .mode(Mode::vampos_fsm())
        .components(ComponentSet::sqlite())
        .host(host2)
        .build()
        .unwrap();
    let t_das = {
        let s = das.clock().now();
        das.os().open("/etc/motd", OpenFlags::RDONLY).unwrap();
        das.clock().now() - s
    };
    let t_fsm = {
        let s = fsm.clock().now();
        fsm.os().open("/etc/motd", OpenFlags::RDONLY).unwrap();
        fsm.clock().now() - s
    };
    assert!(t_fsm < t_das, "fsm {t_fsm} !< das {t_das}");
}

// ---------- component reboot & restoration ----------

#[test]
fn vfs_reboot_preserves_fds_and_offsets() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    assert_eq!(sys.os().read(fd, 6).unwrap(), b"hello ");

    let digest_before = sys.state_digest("vfs").unwrap();
    let outcome = sys.reboot_component("vfs").unwrap();
    assert!(outcome.replayed >= 2, "mount + open + read replayed");
    assert_eq!(sys.state_digest("vfs").unwrap(), digest_before);

    // The offset survived: the next read continues at byte 6.
    assert_eq!(sys.os().read(fd, 5).unwrap(), b"world");
}

#[test]
fn ninepfs_reboot_preserves_fid_table() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    let digest = sys.state_digest("9pfs").unwrap();
    let outcome = sys.reboot_component("9pfs").unwrap();
    assert!(outcome.replayed >= 2);
    assert_eq!(sys.state_digest("9pfs").unwrap(), digest);
    // The file is still readable through the restored fid.
    assert_eq!(sys.os().read(fd, 5).unwrap(), b"hello");
}

#[test]
fn reboot_does_not_disturb_other_components() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let _fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    let digest_9pfs = sys.state_digest("9pfs").unwrap();
    let host_requests_before = sys.host().with(|w| w.ninep().request_count());

    sys.reboot_component("vfs").unwrap();

    // Encapsulated restoration: no host traffic, no 9PFS state change.
    assert_eq!(sys.state_digest("9pfs").unwrap(), digest_9pfs);
    assert_eq!(
        sys.host().with(|w| w.ninep().request_count()),
        host_requests_before
    );
}

#[test]
fn stateless_component_reboot_is_fast_and_replay_free() {
    let mut sys = sqlite_sys(Mode::vampos_das());
    sys.os().getpid().unwrap();
    let outcome = sys.reboot_component("process").unwrap();
    assert_eq!(outcome.replayed, 0);
    assert_eq!(outcome.snapshot_bytes, 0);
    // Stateless reboots are orders of magnitude faster than stateful ones.
    let stateful = sys.reboot_component("vfs").unwrap();
    assert!(outcome.downtime * 10 < stateful.downtime);
    // And the component still works.
    assert_eq!(sys.os().getpid().unwrap(), 1);
}

#[test]
fn merged_group_reboots_as_a_composite() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_fsm())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    let outcome = sys.reboot_component("vfs").unwrap();
    assert_eq!(outcome.component, "vfs+9pfs");
    assert_eq!(sys.os().read(fd, 5).unwrap(), b"hello");
}

#[test]
fn downtime_counters_match_the_outcomes() {
    let mut sys = System::builder()
        .mode(Mode::vampos_fsm())
        .components(ComponentSet::sqlite())
        .host(staged_host())
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    let mut outcomes = Vec::new();
    for round in 0..4 {
        // Reads grow the composite's log, so its windows differ in length.
        for _ in 0..round {
            sys.os().pread(fd, 5, 0).unwrap();
        }
        outcomes.push(sys.reboot_component("vfs").unwrap());
        outcomes.extend(sys.rejuvenate_all().unwrap());
    }
    assert!(outcomes.iter().any(|o| o.component == "vfs+9pfs"));
    let full = sys.full_reboot().unwrap();

    let stats = sys.stats();
    let component_total: Nanos = outcomes.iter().map(|o| o.downtime).sum();
    assert_eq!(stats.total_downtime(), component_total + full.downtime);
    assert_eq!(stats.component_reboots, outcomes.len() as u64);
    assert_eq!(stats.full_reboots, 1);
    assert_eq!(stats.longest_full_reboot(), full.downtime);
    for name in sys.component_names() {
        // A composite's window is charged to every member.
        let own: Vec<Nanos> = outcomes
            .iter()
            .filter(|o| o.component.split('+').any(|m| m == name))
            .map(|o| o.downtime)
            .collect();
        let counters = sys.component_counters(&name).unwrap();
        assert_eq!(counters.recoveries, own.len() as u64, "{name}");
        assert_eq!(counters.downtime, own.iter().copied().sum(), "{name}");
        let longest = own.iter().copied().max().unwrap_or(Nanos::ZERO);
        assert_eq!(counters.longest_downtime, longest, "{name}");
    }
    let composite: Vec<Nanos> = outcomes
        .iter()
        .filter(|o| o.component == "vfs+9pfs")
        .map(|o| o.downtime)
        .collect();
    assert!(
        composite.iter().any(|w| *w != composite[0]),
        "{composite:?}"
    );
}

#[test]
fn virtio_reboot_is_refused_but_force_breaks_io() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .auto_recover(false)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    assert_eq!(
        sys.reboot_component("virtio"),
        Err(OsError::Unrebootable {
            component: "virtio".into()
        })
    );
    // Forcing it desynchronises the host-shared rings: I/O now fails (§VIII).
    sys.force_reboot_component("virtio").unwrap();
    assert!(sys.os().read(fd, 5).is_err());
    assert!(sys.host().with(|w| w.rings_desynced()));
}

#[test]
fn rejuvenate_all_reboots_every_rebootable_component_once() {
    let mut sys = sqlite_sys(Mode::vampos_das());
    let outcomes = sys.rejuvenate_all().unwrap();
    // sqlite set: 7 components, virtio excluded → 6 reboots.
    assert_eq!(outcomes.len(), 6);
    assert!(outcomes.iter().all(|o| o.component != "virtio"));
    assert_eq!(sys.stats().component_reboots, 6);
}

#[test]
fn rejuvenation_clears_software_aging() {
    let mut sys = sqlite_sys(Mode::vampos_das());
    sys.inject_fault(InjectedFault::leak_per_op("vfs", 1024));
    for i in 0..20 {
        let fd = sys
            .os()
            .open(&format!("/f{i}"), OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        sys.os().close(fd).unwrap();
    }
    // Aging accumulated… (leak fires on every VFS call)
    // …and a component reboot clears it.
    sys.reboot_component("vfs").unwrap();
    let digest_ok = sys.state_digest("vfs").is_some();
    assert!(digest_ok);
    assert_eq!(sys.reboot_count("vfs"), 1);
}

// ---------- failure recovery ----------

#[test]
fn injected_panic_recovers_in_line() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.inject_fault(InjectedFault::panic_next("9pfs"));

    // The read triggers the panic in 9PFS; VampOS reboots it and re-executes.
    assert_eq!(sys.os().read(fd, 5).unwrap(), b"hello");
    assert_eq!(sys.stats().failures, 1);
    assert_eq!(sys.stats().component_reboots, 1);
    assert_eq!(sys.stats().recovered_calls, 1);
    assert!(!sys.has_failed());
}

#[test]
fn deterministic_fault_fail_stops() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.inject_fault(InjectedFault::panic_deterministic("9pfs"));

    let err = sys.os().read(fd, 5).unwrap_err();
    assert!(matches!(err, OsError::FailStop { .. }), "got {err}");
    assert!(sys.has_failed());
    // Everything afterwards fail-stops too.
    assert!(matches!(sys.os().getpid(), Err(OsError::FailStop { .. })));
}

#[test]
fn hang_detection_reboots_after_threshold() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.inject_fault(InjectedFault::hang_next("9pfs"));
    let before = sys.clock().now();
    assert_eq!(sys.os().read(fd, 5).unwrap(), b"hello");
    // The hang burned at least the 1 s detection threshold.
    assert!(sys.clock().now() - before >= vampos_sim::Nanos::SECOND);
    assert_eq!(sys.stats().component_reboots, 1);
}

#[test]
fn auto_recover_off_surfaces_the_raw_failure() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .auto_recover(false)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.inject_fault(InjectedFault::panic_next("9pfs"));
    assert!(matches!(sys.os().read(fd, 5), Err(OsError::Panic { .. })));
    assert_eq!(sys.stats().component_reboots, 0);
}

// ---------- protection domains ----------

#[test]
fn isolation_confines_wild_writes() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let _fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    let digest_9pfs = sys.state_digest("9pfs").unwrap();

    let err = sys.trigger_wild_write("vfs", "9pfs").unwrap_err();
    assert!(matches!(err, OsError::ProtectionFault(_)));
    // Victim untouched; the faulty component was rebooted.
    assert_eq!(sys.state_digest("9pfs").unwrap(), digest_9pfs);
    assert_eq!(sys.reboot_count("vfs"), 1);
}

#[test]
fn without_isolation_wild_writes_corrupt_silently() {
    let mut cfg = match Mode::vampos_das() {
        Mode::VampOs(c) => c,
        _ => unreachable!(),
    };
    cfg.isolation = false;
    let mut sys = System::builder()
        .mode(Mode::VampOs(cfg))
        .components(ComponentSet::sqlite())
        .build()
        .unwrap();
    // No fault raised — the write lands in the victim's heap.
    sys.trigger_wild_write("vfs", "9pfs").unwrap();
    assert_eq!(sys.stats().failures, 0);
}

#[test]
fn a_wild_write_materialises_only_the_victims_heap() {
    use vampos_ukernel::Component;
    let mut cfg = match Mode::vampos_das() {
        Mode::VampOs(c) => c,
        _ => unreachable!(),
    };
    cfg.isolation = false;
    let mut sys = System::builder()
        .mode(Mode::VampOs(cfg))
        .components(ComponentSet::sqlite())
        .host(staged_host())
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.os().read(fd, 5).unwrap();
    let resident = |sys: &System| -> Vec<(String, usize)> {
        sys.component_names()
            .into_iter()
            .map(|name| {
                let bytes = sys.arena_resident_bytes(&name).unwrap();
                (name, bytes)
            })
            .filter(|&(_, bytes)| bytes > 0)
            .collect()
    };
    // Components account their state by `alloc`/`free` alone: booting and
    // serving writes no arena byte, so nothing is backed.
    assert_eq!(resident(&sys), []);
    let arenas = sys.memory_report().arenas;

    sys.trigger_wild_write("vfs", "9pfs").unwrap();
    let victim_heap = vampos_oslib::NinePFs::new().descriptor().layout().heap;
    assert_eq!(resident(&sys), [("9pfs".to_owned(), victim_heap)]);
    assert_eq!(
        sys.memory_report().arenas,
        arenas,
        "Fig. 7b sizes are logical"
    );

    sys.full_reboot().unwrap();
    assert_eq!(resident(&sys), []);
    assert_eq!(sys.arena_resident_bytes("nope"), None);
}

// ---------- full reboot baseline ----------

#[test]
fn full_reboot_loses_everything() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::unikraft())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.os().read(fd, 5).unwrap();

    let outcome = sys.full_reboot().unwrap();
    assert!(outcome.downtime >= sys.costs().full_boot);
    // The fd is gone — the whole application restarted.
    assert_eq!(sys.os().read(fd, 5), Err(OsError::BadFd));
    // But the filesystem (host state) persists.
    let fd2 = sys.os().open("/etc/motd", OpenFlags::RDONLY).unwrap();
    assert_eq!(sys.os().read(fd2, 5).unwrap(), b"hello");
}

#[test]
fn full_reboot_downtime_dwarfs_component_reboot() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let _fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    let comp = sys.reboot_component("vfs").unwrap();
    let full = sys.full_reboot().unwrap();
    assert!(
        comp.downtime * 5 < full.downtime,
        "component {} vs full {}",
        comp.downtime,
        full.downtime
    );
}

// ---------- log shrinking ----------

#[test]
fn close_cancels_log_sessions() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let baseline = sys.log_len("vfs");
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    sys.os().read(fd, 4).unwrap();
    sys.os().write(fd, b"yy").unwrap();
    assert!(sys.log_len("vfs") > baseline);
    sys.os().close(fd).unwrap();
    // Open/read/write/close all cancelled; back to the baseline (mount).
    assert_eq!(sys.log_len("vfs"), baseline);
    assert!(sys.stats().log_removed > 0);
}

#[test]
fn shrink_threshold_compacts_open_sessions() {
    let host = staged_host();
    let mut cfg = match Mode::vampos_das() {
        Mode::VampOs(c) => c,
        _ => unreachable!(),
    };
    cfg.shrink_threshold = 20;
    let mut sys = System::builder()
        .mode(Mode::VampOs(cfg))
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    for _ in 0..50 {
        sys.os().pwrite(fd, b"z", 0).unwrap();
    }
    // Compaction kept the log near the threshold instead of 50+.
    assert!(
        sys.log_len("vfs") <= 25,
        "log grew to {}",
        sys.log_len("vfs")
    );
    // And the fd still replays correctly across a reboot.
    sys.os().lseek(fd, 7, Whence::Set).unwrap();
    sys.reboot_component("vfs").unwrap();
    assert_eq!(sys.os().lseek(fd, 0, Whence::Cur).unwrap(), 7);
}

#[test]
fn reboot_after_shrinking_still_restores_correctly() {
    let host = staged_host();
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::sqlite())
        .host(host)
        .build()
        .unwrap();
    // Open/close several files to exercise shrinking, leaving two live fds.
    for i in 0..5 {
        let fd = sys
            .os()
            .open(&format!("/tmp{i}"), OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        sys.os().write(fd, b"data").unwrap();
        sys.os().close(fd).unwrap();
    }
    let a = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
    let b = sys
        .os()
        .open("/live.txt", OpenFlags::RDWR | OpenFlags::CREAT)
        .unwrap();
    sys.os().read(a, 6).unwrap();
    sys.os().write(b, b"keep").unwrap();

    let digest = sys.state_digest("vfs").unwrap();
    sys.reboot_component("vfs").unwrap();
    assert_eq!(sys.state_digest("vfs").unwrap(), digest);
    assert_eq!(sys.os().read(a, 5).unwrap(), b"world");
    assert_eq!(sys.os().lseek(b, 0, Whence::Cur).unwrap(), 4);
}

// ---------- memory accounting ----------

#[test]
fn vampos_memory_overhead_is_logs_plus_message_domains() {
    let mut uni = sqlite_sys(Mode::unikraft());
    let mut vamp = sqlite_sys(Mode::vampos_das());
    for sys in [&mut uni, &mut vamp] {
        let fd = sys
            .os()
            .open("/x", OpenFlags::RDWR | OpenFlags::CREAT)
            .unwrap();
        sys.os().write(fd, &[0u8; 256]).unwrap();
    }
    assert_eq!(uni.memory_report().vampos_overhead(), 0);
    let report = vamp.memory_report();
    assert!(report.vampos_overhead() > 0);
    assert_eq!(
        report.total(),
        report.arenas + report.msg_domains + report.logs
    );
}

// ---------- pipes across reboot ----------

#[test]
fn pipe_contents_survive_vfs_reboot() {
    let mut sys = sqlite_sys(Mode::vampos_das());
    let (r, w) = sys.os().pipe().unwrap();
    sys.os().write(w, b"in-flight").unwrap();
    sys.reboot_component("vfs").unwrap();
    assert_eq!(sys.os().read(r, 64).unwrap(), b"in-flight");
}

// ---------- determinism ----------

#[test]
fn same_seed_same_timeline() {
    let run = || {
        let host = staged_host();
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::sqlite())
            .host(host)
            .seed(42)
            .build()
            .unwrap();
        let fd = sys.os().open("/etc/motd", OpenFlags::RDWR).unwrap();
        sys.os().read(fd, 5).unwrap();
        sys.reboot_component("vfs").unwrap();
        sys.os().read(fd, 6).unwrap();
        (sys.clock().now(), sys.state_digest("vfs").unwrap())
    };
    assert_eq!(run(), run());
}

// ---------- additional fault-model coverage ----------

#[test]
fn bit_flip_corrupts_memory_and_reboot_heals_it() {
    let mut sys = sqlite_sys(Mode::vampos_das());
    // Flip a bit in VFS's data region (past the read-only text).
    let offset = (20 << 10) as u64; // inside .data for the large layout
    sys.inject_fault(InjectedFault::bit_flip("vfs", offset + (256 << 10), 3));
    let fd = sys
        .os()
        .open("/bits", OpenFlags::RDWR | OpenFlags::CREAT)
        .unwrap();
    // The flip fired on the open; logical state is fine but the memory
    // image differs from a clean run. A reboot restores the checkpoint.
    sys.reboot_component("vfs").unwrap();
    sys.os().write(fd, b"still works").unwrap();
    assert_eq!(sys.os().fstat(fd).unwrap(), 11);
    assert!(!sys.has_failed());
}

#[test]
fn hang_in_exempt_component_is_not_treated_as_failure() {
    // LWIP legitimately waits on external events (§V-A): the detector must
    // not reboot it; the caller just sees the slow, blocked call.
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .build()
        .unwrap();
    let fd = sys.os().socket().unwrap();
    sys.inject_fault(InjectedFault::hang_next("lwip"));
    let before = sys.clock().now();
    let err = sys.os().bind(fd, 7).unwrap_err();
    assert_eq!(err, OsError::WouldBlock);
    assert!(sys.clock().now() - before >= vampos_sim::Nanos::SECOND);
    assert_eq!(
        sys.stats().component_reboots,
        0,
        "no reboot for exempt hangs"
    );
    // The stack still works afterwards.
    sys.os().bind(fd, 7).unwrap();
    sys.os().listen(fd, 4).unwrap();
}

#[test]
fn logged_function_sets_match_paper_table_two() {
    // Table II pins the logged interfaces; this is documentation-as-test.
    let sys = sqlite_sys(Mode::vampos_das());
    let _ = sys;
    use vampos_oslib::{Lwip, NinePFs, Vfs};
    use vampos_ukernel::Component;

    let vfs = Vfs::new();
    let vfs_logged: Vec<&str> = vfs.descriptor().logged_functions().collect();
    for func in [
        "create",
        "open",
        "write",
        "pwrite",
        "read",
        "pread",
        "close",
        "mount",
        "fcntl",
        "lseek",
        "vfscore_vget",
        "pipe",
        "ioctl",
        "writev",
        "fsync",
        "vfs_alloc_socket",
    ] {
        assert!(vfs_logged.contains(&func), "VFS must log {func}");
    }
    assert_eq!(vfs_logged.len(), 16, "exactly the Table II VFS set");
    assert!(
        !vfs.descriptor().is_logged("fstat"),
        "state-unchanged calls skip logging"
    );

    let lwip = Lwip::new();
    let lwip_logged: Vec<&str> = lwip.descriptor().logged_functions().collect();
    for func in [
        "socket",
        "bind",
        "listen",
        "connect",
        "getsockopt",
        "setsockopt",
        "shutdown",
        "sock_net_close",
        "sock_net_ioctl",
    ] {
        assert!(lwip_logged.contains(&func), "LWIP must log {func}");
    }
    assert_eq!(lwip_logged.len(), 9);
    assert!(!lwip.descriptor().is_logged("recv"));

    let ninepfs = NinePFs::new();
    let p_logged: Vec<&str> = ninepfs.descriptor().logged_functions().collect();
    for func in [
        "uk_9pfs_mount",
        "uk_9pfs_unmount",
        "uk_9pfs_open",
        "uk_9pfs_close",
        "uk_9pfs_lookup",
        "uk_9pfs_inactive",
        "uk_9pfs_mkdir",
    ] {
        assert!(p_logged.contains(&func), "9PFS must log {func}");
    }
    assert_eq!(p_logged.len(), 7);
    assert!(!ninepfs.descriptor().is_logged("uk_9pfs_read"));
}

#[test]
fn paper_statefulness_split_matches_section_six() {
    // §VI: PROCESS, SYSINFO, USER, NETDEV reboot without logging or
    // restoration; VFS, LWIP, 9PFS are the stateful ones; VIRTIO is not
    // rebooted at all.
    let sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::nginx())
        .build()
        .unwrap();
    let _ = sys;
    use vampos_oslib::{Lwip, NetDev, NinePFs, Process, SysInfo, Timer, User, Vfs, Virtio};
    use vampos_ukernel::Component;

    for (stateless, name) in [
        (Box::new(Process::new()) as Box<dyn Component>, "process"),
        (Box::new(SysInfo::new()), "sysinfo"),
        (Box::new(User::new()), "user"),
        (Box::new(Timer::new()), "timer"),
        (Box::new(NetDev::new()), "netdev"),
    ] {
        assert!(!stateless.descriptor().is_stateful(), "{name} is stateless");
        assert!(stateless.descriptor().is_rebootable());
        assert_eq!(stateless.descriptor().logged_functions().count(), 0);
    }
    for (stateful, name) in [
        (Box::new(Vfs::new()) as Box<dyn Component>, "vfs"),
        (Box::new(NinePFs::new()), "9pfs"),
        (Box::new(Lwip::new()), "lwip"),
    ] {
        assert!(stateful.descriptor().is_stateful(), "{name} is stateful");
        assert!(stateful.descriptor().uses_checkpoint_init());
    }
    let virtio = Virtio::new();
    assert!(!virtio.descriptor().is_rebootable());
}

#[test]
fn scheduler_pkru_grants_exactly_own_domain_plus_message_reads() {
    use vampos_mpk::AccessKind;
    let mut sys = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::nginx())
        .build()
        .unwrap();
    let vfs_pkru = sys.pkru_for("vfs").unwrap();
    let lwip_pkru = sys.pkru_for("lwip").unwrap();
    assert_ne!(vfs_pkru, lwip_pkru, "distinct components, distinct rights");
    // A wild write under isolation is denied by that register…
    assert!(matches!(
        sys.trigger_wild_write("vfs", "lwip"),
        Err(OsError::ProtectionFault(_))
    ));
    // …and writes within one's own domain are of course allowed: the
    // register permits write on at least one key (its own).
    let own_writable =
        (0..16).any(|k| vfs_pkru.permits(vampos_mpk::ProtKey::new(k), AccessKind::Write));
    assert!(own_writable);
}

#[test]
fn merged_components_may_write_each_other() {
    // §V-F: a merged composite shares one MPK tag, so intra-merge stores
    // are legal (and therefore uncaught) even with isolation on.
    let mut sys = System::builder()
        .mode(Mode::vampos_fsm())
        .components(ComponentSet::sqlite())
        .build()
        .unwrap();
    sys.trigger_wild_write("vfs", "9pfs")
        .expect("intra-merge write is permitted by the shared tag");
    assert_eq!(sys.stats().failures, 0);
}

#[test]
fn shared_clock_multiplexes_two_systems() {
    // Two systems built over clones of one SimClock live on a single
    // timeline: booting the second starts at the first's current time, and
    // advances made by either are visible to both.
    let clock = vampos_sim::SimClock::new();
    let mut a = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .clock(clock.clone())
        .build()
        .unwrap();
    let boot_a = clock.now();
    assert!(
        boot_a > vampos_sim::Nanos::ZERO,
        "boot charges virtual time"
    );
    let b = System::builder()
        .mode(Mode::vampos_das())
        .components(ComponentSet::echo())
        .clock(clock.clone())
        .build()
        .unwrap();
    assert!(
        b.booted_at() > boot_a,
        "second instance boots where the first left off"
    );
    assert_eq!(b.booted_at(), clock.now());
    let before = clock.now();
    a.os().getpid().unwrap();
    assert!(
        b.clock().now() > before,
        "time spent in one system elapses for the other"
    );
    assert_eq!(a.clock().now(), b.clock().now());
}
