//! The metric tables (`BENCHMARK.json` lists the same names, units and
//! directions; a test holds them together) and the derivation of the
//! per-layer table from a trace file.

use crate::stats::median;
use crate::trace::Trace;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn def(name: &'static str, unit: &'static str, better: Better) -> MetricDef {
    MetricDef { name, unit, better }
}

use Better::{Higher, Lower};

/// End-to-end metrics, from the untraced run. "host" is the wall clock,
/// "virt" the simulated one. The `virt_*` values are exact for a seed: a
/// host-side speed-up must leave them bit-identical (ROADMAP 4(c)).
pub const END_TO_END: [MetricDef; 6] = [
    def("sim_ops_per_s", "ops/s", Higher),
    def("setup_s", "s", Lower),
    def("peak_rss_mb", "MiB", Lower),
    def("virt_success_pct", "%", Higher),
    def("virt_p99_us", "virt_us", Lower),
    def("virt_span_s", "virt_s", Lower),
];

/// Per-layer metrics, from the traced run, bottom layer first.
pub const PER_LAYER: [MetricDef; 54] = [
    def("sim.histogram.record_ns", "ns", Lower),
    def("sim.histogram.merge_us", "us", Lower),
    def("mem.snapshot.capture_us", "us", Lower),
    def("mem.snapshot.restore_us", "us", Lower),
    def("host.netpeer.send_ns", "ns", Lower),
    def("host.netpeer.recv_ns", "ns", Lower),
    def("core.boot.system_ms", "ms", Lower),
    def("core.syscall.file_ns", "ns", Lower),
    def("core.funclog.append_ns", "ns", Lower),
    def("core.funclog.close_session_ns", "ns", Lower),
    def("core.funclog.compact_ns", "ns", Lower),
    def("core.reboot.component_us", "us", Lower),
    def("core.reboot.rejuvenate_all_us", "us", Lower),
    def("core.reboot.full_ms", "ms", Lower),
    def("core.recovery.panic_retry_us", "us", Lower),
    def("core.reboot.count", "count", Lower),
    def("core.reboot.share", "ratio", Lower),
    def("apps.httpd.get_ns", "ns", Lower),
    def("apps.kv.set_ns", "ns", Lower),
    def("apps.sql.insert_ns", "ns", Lower),
    def("apps.echo.msg_ns", "ns", Lower),
    def("workloads.report.histogram_ms", "ms", Lower),
    def("cluster.boot.ms_per_instance", "ms", Lower),
    def("cluster.run.us_per_request", "us", Lower),
    def("cluster.events.per_s", "1/s", Higher),
    def("cluster.engine.push_pop_ns", "ns", Lower),
    def("cluster.balancer.route_ns.recovery-aware", "ns", Lower),
    def("cluster.balancer.migrate_ns.recovery-aware", "ns", Lower),
    def("cluster.balancer.migrate_ns.least-outstanding", "ns", Lower),
    def("cluster.instances.lone_us", "us", Lower),
    def("cluster.instances.roundrobin_us", "us", Lower),
    def("cluster.run.workingset_share", "ratio", Lower),
    def("cluster.run.unattributed_share", "ratio", Lower),
    def("cluster.report.merge_ms", "ms", Lower),
    def("cluster.redirects.count", "count", Lower),
    def("mesh.boot.ms", "ms", Lower),
    def("mesh.run.us_per_journey", "us", Lower),
    def("mesh.run.us_per_hop", "us", Lower),
    def("mesh.depth1.us_per_request", "us", Lower),
    def("mesh.pipeline.share", "ratio", Lower),
    def("mesh.hops.useful_ratio", "ratio", Higher),
    def("mesh.hops.cached.count", "count", Lower),
    def("telemetry.run.slowdown", "ratio", Lower),
    def("telemetry.spans.per_request", "count", Lower),
    def("telemetry.evicted.count", "count", Lower),
    def("telemetry.hub.push_span_ns", "ns", Lower),
    def("telemetry.span_processes.ns_per_span", "ns", Lower),
    def("telemetry.analyze.ns_per_span", "ns", Lower),
    def("telemetry.merged_metrics.ms", "ms", Lower),
    def("telemetry.prometheus.render_us", "us", Lower),
    def("telemetry.perfetto.ns_per_span", "ns", Lower),
    def("telemetry.perfetto.mb", "MiB", Lower),
    def("telemetry.perfetto.growth_x2", "ratio", Lower),
    def("trace.overhead_ratio", "ratio", Lower),
];

/// True for the per-layer metrics that are pure functions of the seed
/// (counts, and ratios of counts): two traced runs must agree on them
/// exactly.
pub fn is_count(name: &str) -> bool {
    name.ends_with(".count")
        || name.ends_with(".per_request")
        || name.ends_with(".mb")
        || name == "mesh.hops.useful_ratio"
}

/// One derived per-layer value with the number of timed spans behind it
/// (0 for values computed from counts alone).
#[derive(Debug, Clone, PartialEq)]
pub struct LayerValue {
    pub def: MetricDef,
    pub value: f64,
    pub spans: usize,
}

/// Computes every [`PER_LAYER`] metric from a trace file's contents.
///
/// # Errors
///
/// Names the first span or count the trace lacks: a traced run that did
/// not exercise a layer must not report a number for it.
pub fn derive_per_layer(trace: &Trace) -> Result<Vec<LayerValue>, String> {
    let d = Derive { trace };
    let mut out = Vec::with_capacity(PER_LAYER.len());
    for def in PER_LAYER {
        let (value, spans) = d.metric(def.name)?;
        out.push(LayerValue { def, value, spans });
    }
    Ok(out)
}

/// The [`is_count`] subset of [`derive_per_layer`], from the trace's counts
/// alone.
#[cfg(test)]
pub fn derive_counts(trace: &Trace) -> Result<Vec<(&'static str, f64)>, String> {
    let d = Derive { trace };
    PER_LAYER
        .iter()
        .filter(|def| is_count(def.name))
        .map(|def| d.value(def.name).map(|v| (def.name, v)))
        .collect()
}

struct Derive<'a> {
    trace: &'a Trace,
}

impl Derive<'_> {
    /// Median host nanoseconds per call over the spans named `span`.
    fn per_call(&self, span: &str) -> Result<(f64, usize), String> {
        let samples = self.trace.per_call_ns(span);
        if samples.is_empty() {
            return Err(format!("no span named {span} in the trace"));
        }
        Ok((median(&samples), samples.len()))
    }

    /// Median host nanoseconds per span (whatever it covers).
    fn per_span(&self, span: &str) -> Result<(f64, usize), String> {
        let samples: Vec<f64> = self
            .trace
            .spans
            .iter()
            .filter(|s| s.name == span)
            .map(|s| s.duration_ns() as f64)
            .collect();
        if samples.is_empty() {
            return Err(format!("no span named {span} in the trace"));
        }
        Ok((median(&samples), samples.len()))
    }

    fn count(&self, name: &str) -> Result<f64, String> {
        self.trace
            .counts
            .get(name)
            .map(|&v| v as f64)
            .ok_or_else(|| format!("no count named {name} in the trace"))
    }

    fn scaled(&self, span: &str, div: f64) -> Result<(f64, usize), String> {
        self.per_call(span).map(|(ns, n)| (ns / div, n))
    }

    fn value(&self, metric: &str) -> Result<f64, String> {
        self.metric(metric).map(|(v, _)| v)
    }

    fn metric(&self, name: &str) -> Result<(f64, usize), String> {
        const US: f64 = 1e3;
        const MS: f64 = 1e6;
        match name {
            "sim.histogram.record_ns" => self.per_call("sim.histogram_record"),
            "sim.histogram.merge_us" => self.scaled("sim.stat_merge", US),
            "mem.snapshot.capture_us" => self.scaled("mem.snapshot", US),
            "mem.snapshot.restore_us" => self.scaled("mem.restore", US),
            "host.netpeer.send_ns" => self.per_call("host.net_send"),
            "host.netpeer.recv_ns" => self.per_call("host.net_recv"),
            "core.boot.system_ms" => self.scaled("core.boot_httpd", MS),
            "core.syscall.file_ns" => self.per_call("core.file_syscalls"),
            "core.funclog.append_ns" => self.per_call("core.funclog_append"),
            "core.funclog.close_session_ns" => self.per_call("core.funclog_close"),
            "core.funclog.compact_ns" => self.per_call("core.funclog_compact"),
            "core.reboot.component_us" => self.scaled("core.reboot_component", US),
            "core.reboot.rejuvenate_all_us" => self
                .per_span("core.rejuvenate_all")
                .map(|(ns, n)| (ns / US, n)),
            "core.reboot.full_ms" => self.scaled("core.full_reboot", MS),
            "core.recovery.panic_retry_us" => self.scaled("core.panic_retry", US),
            "core.reboot.count" => Ok((self.count("rep.component_reboots")?, 0)),
            "core.reboot.share" => {
                // The rep's reboots are all rejuvenation sweeps, so they are
                // priced per component of a probe sweep, not at the lone
                // `vfs` reboot's cost (VFS carries the longest log).
                let (rep_ns, n) = self.per_span("rep")?;
                let (reboot_ns, _) = self.per_call("core.rejuvenate_all")?;
                Ok((self.count("rep.component_reboots")? * reboot_ns / rep_ns, n))
            }
            "apps.httpd.get_ns" => self.per_call("apps.httpd_get"),
            "apps.kv.set_ns" => self.per_call("apps.kv_set"),
            "apps.sql.insert_ns" => self.per_call("apps.sql_insert"),
            "apps.echo.msg_ns" => self.per_call("apps.echo_msg"),
            "workloads.report.histogram_ms" => self.scaled("workloads.report_histogram", MS),
            "cluster.boot.ms_per_instance" => self.scaled("cluster.fleet_new", MS),
            "cluster.run.us_per_request" => self.scaled("cluster.fleet_run", US),
            "cluster.events.per_s" => {
                let events = self.count("steady.issued")?
                    + self.count("steady.completed")?
                    + self.count("steady.plan_ops")?;
                let (run_ns, n) = self.per_span("cluster.fleet_run")?;
                Ok((events / run_ns * 1e9, n))
            }
            "cluster.engine.push_pop_ns" => self.per_call("cluster.heap_cycle"),
            "cluster.balancer.route_ns.recovery-aware" => {
                self.per_call("cluster.route.recovery-aware")
            }
            "cluster.balancer.migrate_ns.recovery-aware" => {
                self.per_call("cluster.migrate.recovery-aware")
            }
            "cluster.balancer.migrate_ns.least-outstanding" => {
                self.per_call("cluster.migrate.least-outstanding")
            }
            "cluster.instances.lone_us" => self.scaled("cluster.instance_get.lone", US),
            "cluster.instances.roundrobin_us" => self.scaled("cluster.instance_get.roundrobin", US),
            "cluster.run.workingset_share" => {
                let spread = self.value("cluster.instances.roundrobin_us")?
                    - self.value("cluster.instances.lone_us")?;
                Ok((spread / self.value("cluster.run.us_per_request")?, 0))
            }
            "cluster.run.unattributed_share" => {
                // Per request the steady fleet pays one instance-stack
                // request on a cold working set, one heap push + pop, and
                // one migrate decision of the policy it runs.
                let attributed = self.value("cluster.instances.roundrobin_us")?
                    + (self.value("cluster.engine.push_pop_ns")?
                        + self.value("cluster.balancer.migrate_ns.recovery-aware")?)
                        / US;
                Ok((
                    1.0 - attributed / self.value("cluster.run.us_per_request")?,
                    0,
                ))
            }
            "cluster.report.merge_ms" => self.scaled("cluster.report_merge", MS),
            "cluster.redirects.count" => Ok((self.count("audit.redirects")?, 0)),
            "mesh.boot.ms" => self.scaled("mesh.new", MS),
            "mesh.run.us_per_journey" => self.scaled("mesh.run", US),
            "mesh.run.us_per_hop" => {
                let (run_ns, n) = self.per_span("mesh.run")?;
                Ok((run_ns / self.count("mesh.hops_attempted")? / US, n))
            }
            "mesh.depth1.us_per_request" => self.scaled("mesh.run.depth1", US),
            "mesh.pipeline.share" => Ok((
                1.0 - self.value("mesh.depth1.us_per_request")?
                    / self.value("mesh.run.us_per_journey")?,
                0,
            )),
            "mesh.hops.useful_ratio" => Ok((
                self.count("mesh.hops_ok")? / self.count("mesh.hops_attempted")?,
                0,
            )),
            "mesh.hops.cached.count" => Ok((self.count("mesh.hops_cached")?, 0)),
            "telemetry.run.slowdown" => {
                let (on, n) = self.per_span("cluster.fleet_run.telemetry")?;
                let (off, _) = self.per_span("cluster.fleet_run.telemetry_off")?;
                Ok((on / off, n))
            }
            "telemetry.spans.per_request" => Ok((
                self.count("audit.spans")? / self.count("audit.requests")?,
                0,
            )),
            "telemetry.evicted.count" => Ok((self.count("audit.evicted")?, 0)),
            "telemetry.hub.push_span_ns" => self.per_call("telemetry.hub_push_span"),
            "telemetry.span_processes.ns_per_span" => self.per_call("telemetry.span_processes"),
            "telemetry.analyze.ns_per_span" => self.per_call("telemetry.analyze"),
            "telemetry.merged_metrics.ms" => self.scaled("telemetry.merged_metrics", MS),
            "telemetry.prometheus.render_us" => self.scaled("telemetry.prometheus_render", US),
            "telemetry.perfetto.ns_per_span" => self.per_call("telemetry.perfetto"),
            "telemetry.perfetto.mb" => {
                Ok((self.count("audit.perfetto_bytes")? / (1u64 << 20) as f64, 0))
            }
            "telemetry.perfetto.growth_x2" => {
                let (full, n) = self.per_span("telemetry.perfetto")?;
                let (half, _) = self.per_span("telemetry.perfetto.half")?;
                Ok((full / half, n))
            }
            "trace.overhead_ratio" => {
                let (traced, n) = self.per_span("rep")?;
                let (untraced, _) = self.per_span("rep.untraced")?;
                Ok((traced / untraced, n))
            }
            other => Err(format!("no derivation for per-layer metric {other}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surface::{parse_json, Json};
    use std::collections::BTreeSet;

    fn legal_name(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    fn legal_unit(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn metric_names_and_units_stay_in_the_contract_charset() {
        let mut seen = BTreeSet::new();
        for def in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(legal_name(def.name), "bad metric name {:?}", def.name);
            assert!(
                legal_unit(def.unit),
                "bad unit {:?} on {}",
                def.unit,
                def.name
            );
            assert!(seen.insert(def.name), "{} is listed twice", def.name);
        }
        assert!(!legal_name("µs"));
        assert!(!legal_name(".leading"));
        assert!(!legal_name("has space"));
    }

    #[test]
    fn every_per_layer_metric_has_a_derivation() {
        let empty = Trace {
            workload: "t".to_owned(),
            seed: 0,
            spans: Vec::new(),
            counts: Default::default(),
        };
        let d = Derive { trace: &empty };
        for def in PER_LAYER {
            let err = d.metric(def.name).expect_err("empty trace has no values");
            assert!(
                !err.starts_with("no derivation"),
                "{} has no derivation",
                def.name
            );
        }
    }

    /// `BENCHMARK.json` is what the driver reads; these tables are what the
    /// program prints. They must list the same metrics.
    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let doc = parse_json(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json");
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = doc.get(key).and_then(Json::as_arr).expect(key);
            assert_eq!(listed.len(), table.len(), "{key} length");
            for (entry, def) in listed.iter().zip(table) {
                assert_eq!(entry.get("name").and_then(Json::as_str), Ok(def.name));
                assert_eq!(entry.get("unit").and_then(Json::as_str), Ok(def.unit));
                assert_eq!(
                    entry.get("better").and_then(Json::as_str),
                    Ok(def.better.name())
                );
            }
        }
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .expect("workloads")
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
            .collect();
        let ours: Vec<&str> = crate::workloads::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(workloads, ours);
    }
}
