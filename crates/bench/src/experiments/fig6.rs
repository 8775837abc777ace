//! Fig. 6 — component reboot times.
//!
//! Paper setup: reboot PROCESS, VFS, LWIP, 9PFS, and the two composites
//! (VFS+9PFS, LWIP+NETDEV) after sending 1 000 GET requests to Nginx; ten
//! trials. Expected shape: the stateless PROCESS reboot is microseconds;
//! stateful reboots are dominated by snapshot restoration (so 9PFS — heap
//! snapshot only — is the fastest stateful component, and the composites
//! pay for both members).

use vampos_apps::{App, MiniHttpd};
use vampos_core::{ComponentSet, Mode, System};
use vampos_sim::Summary;

use super::build;

/// One bar of Fig. 6.
#[derive(Debug, Clone)]
pub struct Fig6Row {
    /// Rebooted component (composites join names with `+`).
    pub component: String,
    /// Mean reboot time, milliseconds.
    pub mean_ms: f64,
    /// Standard deviation, milliseconds.
    pub sd_ms: f64,
    /// Log entries replayed per reboot (last trial).
    pub replayed: usize,
    /// Snapshot bytes restored per reboot (last trial).
    pub snapshot_bytes: usize,
}

/// The full Fig. 6 result.
#[derive(Debug, Clone)]
pub struct Fig6Result {
    /// Warm-up GET requests issued before rebooting.
    pub requests: usize,
    /// Trials per component.
    pub trials: usize,
    /// One row per rebooted unit.
    pub rows: Vec<Fig6Row>,
}

/// Boots Nginx under `mode` and serves `requests` GETs to warm the logs.
fn warmed_nginx(mode: Mode, requests: usize) -> (System, MiniHttpd) {
    let mut sys = build(mode, ComponentSet::nginx());
    let mut app = MiniHttpd::default();
    app.boot(&mut sys).expect("app boot");
    let conn = sys.host().with(|w| w.network_mut().connect(80));
    app.poll(&mut sys).expect("handshake");
    for _ in 0..requests {
        sys.host().with(|w| {
            w.network_mut()
                .send(conn, b"GET /index.html HTTP/1.1\r\n\r\n")
                .unwrap()
        });
        app.poll(&mut sys).expect("serve");
        sys.host().with(|w| w.network_mut().recv(conn).unwrap());
    }
    (sys, app)
}

fn measure(sys: &mut System, component: &str, trials: usize) -> Fig6Row {
    let mut times = Summary::new();
    let mut last = None;
    for _ in 0..trials {
        let outcome = sys.reboot_component(component).expect("reboot");
        times.record(outcome.downtime.as_millis_f64());
        last = Some(outcome);
    }
    let last = last.expect("at least one trial");
    Fig6Row {
        component: last.component.to_string(),
        mean_ms: times.mean(),
        sd_ms: times.std_dev(),
        replayed: last.replayed,
        snapshot_bytes: last.snapshot_bytes,
    }
}

/// Runs the experiment (paper: 1 000 requests, 10 trials).
pub fn run(requests: usize, trials: usize) -> Fig6Result {
    let mut rows = Vec::new();

    // Primitive components on the DaS build.
    let (mut sys, _app) = warmed_nginx(Mode::vampos_das(), requests);
    for component in ["process", "vfs", "lwip", "9pfs"] {
        rows.push(measure(&mut sys, component, trials));
    }

    // VFS+9PFS composite on the FSm build.
    let (mut sys, _app) = warmed_nginx(Mode::vampos_fsm(), requests);
    rows.push(measure(&mut sys, "vfs", trials));

    // LWIP+NETDEV composite on the NETm build.
    let (mut sys, _app) = warmed_nginx(Mode::vampos_netm(), requests);
    rows.push(measure(&mut sys, "lwip", trials));

    Fig6Result {
        requests,
        trials,
        rows,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shape_matches_the_paper() {
        let result = run(100, 3);
        let row = |name: &str| {
            result
                .rows
                .iter()
                .find(|r| r.component == name)
                .unwrap_or_else(|| panic!("row {name}"))
        };
        // Stateless PROCESS is orders of magnitude faster than stateful
        // reboots (paper: <7.5us vs tens of ms).
        assert!(row("process").mean_ms * 100.0 < row("vfs").mean_ms);
        assert_eq!(row("process").replayed, 0);
        // 9PFS (heap-only snapshot) is the fastest stateful component.
        assert!(row("9pfs").mean_ms < row("vfs").mean_ms);
        assert!(row("9pfs").mean_ms < row("lwip").mean_ms);
        assert!(row("9pfs").snapshot_bytes < row("vfs").snapshot_bytes);
        // Composites pay for both members.
        assert!(row("vfs+9pfs").mean_ms > row("vfs").mean_ms);
        assert!(row("netdev+lwip").mean_ms > row("lwip").mean_ms);
        // Everything is within the paper's "tens of milliseconds" band.
        for r in &result.rows {
            assert!(r.mean_ms < 200.0, "{} took {}ms", r.component, r.mean_ms);
        }
    }
}
