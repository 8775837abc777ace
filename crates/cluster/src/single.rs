//! A bare single-system reference run, written directly against
//! [`vampos_core::System`] with no fleet machinery.
//!
//! This exists so the fleet-of-1 equivalence test has an *independent*
//! implementation to compare against: a [`crate::Fleet`] of one instance
//! under round-robin with an empty plan must produce byte-identical
//! request records and telemetry to this loop. If a refactor makes the
//! fleet layer perturb the simulation — an extra syscall, a reordered
//! clock advance — the comparison breaks.

use vampos_apps::{App, MiniHttpd};
use vampos_core::System;
use vampos_host::{ClientConnId, ClientConnState, HostHandle};
use vampos_sim::{derive_seed, Nanos};
use vampos_telemetry::TelemetrySink;
use vampos_ukernel::OsError;
use vampos_workloads::{LoadReport, RequestRecord};

use crate::fleet::{note_serve_span, FleetConfig, FleetLoad, CLIENT_TIMEOUT};

struct BareClient {
    conn: Option<ClientConnId>,
    next_send: Nanos,
    sent: usize,
}

/// Runs `load` against one bare system built exactly as fleet instance 0
/// would be (same staged host, same derived seed), returning the load
/// report and — when `cfg.telemetry` is set — the Chrome trace JSON.
///
/// # Errors
///
/// Propagates boot and unrecovered system failures.
pub fn run_single(
    cfg: &FleetConfig,
    load: &FleetLoad,
) -> Result<(LoadReport, Option<String>), OsError> {
    let host = HostHandle::new();
    host.with(|w| {
        for (path, bytes) in &cfg.files {
            w.ninep_mut().put_file(path, bytes);
        }
    });
    let sink = cfg.telemetry.then(TelemetrySink::new);
    let mut builder = System::builder()
        .mode(cfg.mode.clone())
        .components(cfg.set.clone())
        .host(host)
        .seed(derive_seed(cfg.seed, 0));
    if let Some(sink) = &sink {
        builder = builder.telemetry(sink.clone());
    }
    let mut sys = builder.build()?;
    let mut app = MiniHttpd::default();
    app.boot(&mut sys)?;

    let mut report = LoadReport::default();
    let started = sys.clock().now();
    let one_way = sys.costs().net_rtt(0, load.remote) / 2;
    let n_clients = load.clients.max(1);
    let mut clients: Vec<BareClient> = (0..n_clients)
        .map(|i| BareClient {
            conn: None,
            next_send: started
                + Nanos::from_nanos(load.think_time.as_nanos() * i as u64 / n_clients as u64),
            sent: 0,
        })
        .collect();
    let mut next_free = Nanos::ZERO;
    // Issue sequence number, matching the fleet's journey minting.
    let mut issued: u64 = 0;

    let conn_dead = |sys: &System, conn: ClientConnId| {
        !matches!(
            sys.host().with(|w| w.network().state(conn)),
            Ok(ClientConnState::Established)
        )
    };

    loop {
        let next = clients
            .iter()
            .enumerate()
            .filter(|(_, c)| c.sent < load.requests_per_client)
            .map(|(i, c)| (c.next_send, i))
            .min();
        let Some((due, idx)) = next else { break };
        sys.clock().advance_to(due);
        issued += 1;

        let t0 = sys.clock().now();
        let conn = match clients[idx].conn {
            Some(conn) => conn,
            None => {
                let conn = sys
                    .host()
                    .with(|w| w.network_mut().connect(vampos_apps::httpd::HTTP_PORT));
                app.poll(&mut sys)?;
                clients[idx].conn = Some(conn);
                conn
            }
        };
        let request = format!("GET {} HTTP/1.1\r\nHost: vampos\r\n\r\n", load.path);
        let send_ok = sys
            .host()
            .with(|w| w.network_mut().send(conn, request.as_bytes()))
            .is_ok();
        let mut served = false;
        if send_ok {
            sys.clock().advance(one_way);
            app.poll(&mut sys)?;
            sys.clock().advance(one_way);
            let response = sys
                .host()
                .with(|w| w.network_mut().recv(conn))
                .unwrap_or_default();
            served = response.starts_with(b"HTTP/1.1 200") && !conn_dead(&sys, conn);
        }
        let delta = sys.clock().now().saturating_sub(t0);
        let service = delta.saturating_sub(one_way + one_way);
        let arrival = due + one_way;
        let busy_from = arrival.max(next_free);
        let end = busy_from + service + one_way;
        let ok = served && end.saturating_sub(due) <= CLIENT_TIMEOUT;
        if served {
            next_free = busy_from + service;
            note_serve_span(sink.as_ref(), issued, busy_from, arrival, service);
        } else {
            clients[idx].conn = None;
        }
        report.records.push(RequestRecord {
            start: due,
            end,
            ok,
        });
        clients[idx].sent += 1;
        clients[idx].next_send = due + load.think_time;
    }
    report.duration = sys.clock().now().saturating_sub(started);
    let trace = sink.map(|s| s.with(|hub| hub.chrome_trace_json()));
    Ok((report, trace))
}
