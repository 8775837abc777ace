//! The reboot engine: component-level reboots with checkpoint-based
//! initialization (§V-E) and encapsulated restoration (§V-B), failure
//! handling with in-line recovery and fail-stop on recurrence (§II-B), and
//! the full-reboot baseline (§II-A).

use std::rc::Rc;

use vampos_sim::{Name, Nanos};
use vampos_telemetry::RecoveryPhase;
use vampos_ukernel::{OsError, Value};

use crate::image::Bound;
use crate::runtime::{Ctx, PendingRecovery, ReplayState, System};
use crate::stats::DowntimeWindow;

/// The result of a component-level reboot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RebootOutcome {
    /// The rebooted component (composite reboots join names with `+`),
    /// shared with its slot.
    pub component: Name,
    /// Virtual time the reboot occupied.
    pub downtime: Nanos,
    /// Log entries replayed during encapsulated restoration.
    pub replayed: usize,
    /// Bytes of checkpoint snapshot restored.
    pub snapshot_bytes: usize,
}

/// The result of a full (whole-application) reboot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FullRebootOutcome {
    /// Virtual time the boot occupied (application state restoration, e.g.
    /// an AOF replay, is charged by the application on top of this).
    pub downtime: Nanos,
    /// Client connections that were reset.
    pub connections_reset: u64,
}

impl System {
    /// Reboots one component (or, if it is merged, its composite group)
    /// while the application and the remaining components keep running.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] for unknown names,
    /// [`OsError::Unrebootable`] for components whose state is shared with
    /// the host (VIRTIO), [`OsError::ReplayMismatch`] when restoration
    /// cannot reproduce the pre-reboot state (the system then fail-stops).
    pub fn reboot_component(&mut self, name: &str) -> Result<RebootOutcome, OsError> {
        let idx = self.rebootable_index(name)?;
        self.reboot_index(idx)
    }

    /// Reboots a component even if it is marked unrebootable. Exists to
    /// demonstrate §VIII: forcing a VIRTIO reboot desynchronises the
    /// host-shared rings and subsequent I/O fails.
    ///
    /// # Errors
    ///
    /// Same as [`System::reboot_component`], minus the rebootability check.
    pub fn force_reboot_component(&mut self, name: &str) -> Result<RebootOutcome, OsError> {
        let idx = self.index_of(name)?;
        self.reboot_index(idx)
    }

    /// Proactively reboots every rebootable component, one at a time —
    /// the software-rejuvenation pattern of §VII-D.
    ///
    /// # Errors
    ///
    /// Stops at the first failed reboot.
    pub fn rejuvenate_all(&mut self) -> Result<Vec<RebootOutcome>, OsError> {
        let mut outcomes = Vec::with_capacity(self.slots.len());
        let mut done_groups = Vec::with_capacity(self.slots.len());
        for idx in 0..self.slots.len() {
            let group = self.slots[idx].group;
            if !self.slots[idx].desc.is_rebootable() || done_groups.contains(&group) {
                continue; // unrebootable, or a composite already rebooted with its leader
            }
            done_groups.push(group);
            outcomes.push(self.reboot_index(idx)?);
        }
        Ok(outcomes)
    }

    /// An explicit reboot (admin / rejuvenation).
    pub(crate) fn reboot_index(&mut self, idx: usize) -> Result<RebootOutcome, OsError> {
        self.recover(idx, "admin")
    }

    /// The one way a component comes back, whatever asked for it: restore
    /// the boot-phase image, replay the function log, resume. A failure
    /// path has stashed its detection ([`System::detect`]), which names the
    /// trigger and back-dates the recovery span to when detection began, so
    /// downtime reads off the span directly; a recovery nothing detected
    /// runs under `unprompted` and starts now.
    pub(crate) fn recover(
        &mut self,
        idx: usize,
        unprompted: &'static str,
    ) -> Result<RebootOutcome, OsError> {
        // A merged component reboots as a composite: load every member's
        // snapshot and replay each member's log (§V-F). The members are the
        // slots of `idx`'s group, in slot order.
        let group = self.slots[idx].group;
        let members = self.slots.iter().filter(|s| s.group == group).count();
        // A lone component's label is its slot's name, shared as such.
        let label = if members == 1 {
            self.slots[idx].name.clone()
        } else {
            Name::from(
                self.slots
                    .iter()
                    .filter(|s| s.group == group)
                    .map(|s| s.name.as_str())
                    .collect::<Vec<_>>()
                    .join("+"),
            )
        };

        let start = self.clock.now();
        let why = self.pending_recovery.take().unwrap_or(PendingRecovery {
            kind: unprompted,
            detect_start: start,
            detect_end: start,
        });
        let (detect_start, detect_end) = (why.detect_start, why.detect_end);
        for slot in self.slots.iter_mut().filter(|s| s.group == group) {
            slot.counters.recoveries += 1;
        }
        self.emit(|c| c.recovery_begin(&label, why.kind, detect_start));
        self.emit(|c| {
            c.recovery_phase(
                &label,
                RecoveryPhase::FailureDetect,
                detect_start,
                detect_end,
            )
        });
        let mut replayed_total = 0usize;
        let mut snapshot_total = 0usize;
        for member in 0..self.slots.len() {
            if self.slots[member].group != group {
                continue;
            }
            match self.reboot_one(member) {
                Ok((replayed, snap)) => {
                    replayed_total += replayed;
                    snapshot_total += snap;
                }
                Err(e) => {
                    let at = self.clock.now();
                    let detail = e.to_string();
                    self.emit(|c| c.recovery_abort(&label, at, &detail));
                    return Err(e);
                }
            }
        }
        let end = self.clock.now();
        self.stats.component_reboots += 1;
        self.stats.replayed_entries += replayed_total as u64;
        self.stats.downtime.push(DowntimeWindow {
            component: label.clone(),
            start,
            end,
        });
        self.emit(|c| c.recovery_end(&label, end, replayed_total, snapshot_total));
        Ok(RebootOutcome {
            component: label,
            downtime: end.saturating_sub(start),
            replayed: replayed_total,
            snapshot_bytes: snapshot_total,
        })
    }

    /// Reboots a single slot: stop thread → checkpoint restore → respawn →
    /// encapsulated replay → runtime-data restore.
    fn reboot_one(&mut self, idx: usize) -> Result<(usize, usize), OsError> {
        let member_name = self.slots[idx].name.clone();
        let restore_start = self.clock.now();
        self.slots[idx].up = false;
        self.clock.advance(self.costs.ctx_switch); // stop the thread

        let mut comp = self.slots[idx]
            .comp
            .take()
            .ok_or_else(|| OsError::Io(format!("{} busy during reboot", self.slots[idx].name)))?;

        // Corrupted checkpoint bytes (chaos fault injection): the stored
        // boot image fails validation before anything is restored. The
        // slot stays down; only a full reboot recaptures the checkpoint.
        if self.slots[idx].checkpoint_corrupt {
            self.slots[idx].comp = Some(comp);
            return Err(OsError::Io(format!(
                "{member_name} boot checkpoint fails validation (corrupt bytes)"
            )));
        }

        // Runtime-data extraction (§V-B): data replay cannot rebuild.
        let extract = comp.extract_runtime();

        // Checkpoint-based initialization (§V-E): the component comes back
        // as its boot image and its memory as the boot-phase checkpoint,
        // instead of running shutdown/boot routines.
        let slot = &mut self.slots[idx];
        slot.boot_image.copy_into(&mut comp);
        if slot.desc.is_host_shared() {
            // The guest's ring mirrors go with the discarded component; the
            // host side keeps its own (§VIII).
            self.host.with(|w| w.guest_reset_rings());
        }
        let prior_rejuvenations = slot.arena.aging().rejuvenations();
        slot.arena.reset();
        let mut snapshot_bytes = 0usize;
        if let Some(snap) = &slot.boot_snapshot {
            snapshot_bytes = snap.byte_len();
            slot.arena
                .restore(snap)
                .map_err(|e| OsError::Io(format!("checkpoint restore: {e}")))?;
            self.clock
                .advance(self.costs.snapshot_restore(snapshot_bytes));
            // The boot image predates every rejuvenation; re-establish the
            // cumulative count, this reboot included.
            slot.arena
                .aging_mut()
                .rejuvenate_times(prior_rejuvenations + 1);
        }

        let restore_end = self.clock.now();
        self.emit(|c| {
            c.recovery_phase(
                &member_name,
                RecoveryPhase::CheckpointRestore,
                restore_start,
                restore_end,
            )
        });

        // Attach a fresh thread (§V-A).
        self.clock.advance(self.costs.thread_spawn);

        // Reboot-during-reboot (chaos fault injection): a second reboot
        // request preempts this one after the checkpoint phase. The
        // runtime data goes back into the component so the follow-up
        // attempt (which consumes the armed interrupt) can re-extract it;
        // the slot stays down until then.
        if self.reboot_interrupts.remove(member_name.as_str()) {
            let restored = match extract {
                Some(data) => comp.restore_runtime(data, &mut self.slots[idx].arena),
                None => Ok(()),
            };
            self.slots[idx].comp = Some(comp);
            restored?;
            return Err(OsError::Io(format!(
                "reboot of {member_name} interrupted by a second reboot request"
            )));
        }

        // Encapsulated restoration: replay the selected log entries with
        // downcalls answered from the return-value log.
        let replay_start = self.clock.now();
        let mut replayed = 0usize;
        if self.slots[idx].desc.is_stateful() {
            let entries = self.slots[idx].log.replay_entries();
            let name = self.slots[idx].name.clone();
            for entry in entries {
                self.clock.advance(self.costs.replay_entry);
                let mut ctx = Ctx {
                    sys: self,
                    me: idx,
                    pending: None,
                    replay: Some(ReplayState {
                        entry: Rc::clone(&entry),
                        next: 0,
                        component: name.clone(),
                    }),
                };
                // The entry shares the descriptor's name, so this finds
                // the function by pointer.
                let result = match ctx.sys.slots[idx].desc.fn_id_of(&entry.func) {
                    Some(func) => comp.call(&mut ctx, func, &entry.args),
                    None => Err(OsError::UnknownFunc {
                        component: name.to_string(),
                        func: entry.func.to_string(),
                    }),
                };
                match result {
                    Ok(ret) if ret == entry.ret => {}
                    Ok(ret) => {
                        self.failed = true;
                        self.slots[idx].comp = Some(comp);
                        return Err(OsError::ReplayMismatch {
                            component: name.to_string(),
                            detail: format!(
                                "{} replayed to {ret} (logged {})",
                                entry.func, entry.ret
                            ),
                        });
                    }
                    Err(e) => {
                        self.failed = true;
                        self.slots[idx].comp = Some(comp);
                        return Err(OsError::ReplayMismatch {
                            component: name.to_string(),
                            detail: format!("{} failed during replay: {e}", entry.func),
                        });
                    }
                }
                replayed += 1;
            }
        }

        let replay_end = self.clock.now();
        self.emit(|c| {
            c.recovery_phase(
                &member_name,
                RecoveryPhase::LogReplay,
                replay_start,
                replay_end,
            )
        });

        let arena = &mut self.slots[idx].arena;
        let restored = extract.map_or(Ok(()), |data| comp.restore_runtime(data, arena));
        comp.finish_replay();

        self.slots[idx].comp = Some(comp);
        restored?; // refused: the slot stays down, with its component in it
        self.slots[idx].up = true;
        self.slots[idx].reboots += 1;
        let resume_end = self.clock.now();
        self.emit(|c| {
            c.recovery_phase(&member_name, RecoveryPhase::Resume, replay_end, resume_end)
        });
        Ok((replayed, snapshot_bytes))
    }

    /// Forces a fail-stop failure of `component` right now — the §VII-E
    /// experiment "intentionally inject\[s\] a fail-stop failure into 9PFS …
    /// we force 9PFS to call `panic()` and trigger its reboot". The failure
    /// detector fires immediately and (under auto-recovery) the component is
    /// rebooted and restored.
    ///
    /// # Errors
    ///
    /// [`OsError::FailStop`] when the component is unrebootable or
    /// auto-recovery is off; reboot errors otherwise.
    pub fn force_component_failure(&mut self, component: &str) -> Result<RebootOutcome, OsError> {
        let tid = self.index_of(component)?;
        self.stats.failures += 1;
        let detected = self.detect(tid, "panic");
        if !self.auto_recover || !self.slots[tid].desc.is_rebootable() {
            return Err(self.terminal_failure(
                tid,
                &format!("component {component} fail-stopped without recovery"),
            ));
        }
        self.pending_recovery = Some(detected);
        self.reboot_index(tid)
    }

    /// The failure detector's check of `tid`: pays for the heart-beat,
    /// reports a failure of `kind`, and returns the detection for the
    /// caller to stash once it has decided to recover.
    fn detect(&mut self, tid: usize, kind: &'static str) -> PendingRecovery {
        let detect_start = self.clock.now();
        self.clock.advance(self.costs.detector_check);
        let detect_end = self.clock.now();
        let name = &self.slots[tid].name;
        self.emit(|c| c.failure_detected(name, kind, detect_end));
        PendingRecovery {
            kind,
            detect_start,
            detect_end,
        }
    }

    /// Fires the failure detector against a perfectly healthy component —
    /// a detector *false positive* (chaos fault injection). The detector
    /// pays its usual check cost, reports a spurious failure, and the
    /// component is needlessly rebooted, opening a real downtime window
    /// with no fault behind it.
    ///
    /// # Errors
    ///
    /// [`OsError::UnknownComponent`] for unknown names,
    /// [`OsError::Unrebootable`] for host-shared components; reboot errors
    /// otherwise.
    pub fn spurious_detection(&mut self, component: &str) -> Result<RebootOutcome, OsError> {
        let tid = self.rebootable_index(component)?;
        self.stats.spurious_detections += 1;
        self.pending_recovery = Some(self.detect(tid, "spurious"));
        self.reboot_index(tid)
    }

    /// The conventional recovery baseline: restart the whole
    /// unikernel-linked application. Every client connection is reset, all
    /// component state and logs are discarded, and the application layer
    /// must rebuild its own state afterwards (e.g. Redis replays its AOF).
    ///
    /// # Errors
    ///
    /// Propagates boot-time failures (e.g. the root re-mount).
    pub fn full_reboot(&mut self) -> Result<FullRebootOutcome, OsError> {
        let start = self.clock.now();
        let resets_before = self.host.with(|w| w.network().resets_seen());

        // The VM goes down: peers see their connections die; the host side
        // of the devices is reinitialised by the hypervisor.
        self.host.with(|w| {
            w.network_mut().reset_all();
            w.ninep_mut().drop_all_fids();
        });
        for slot in &mut self.slots {
            if let Some(comp) = slot.comp.as_mut() {
                slot.boot_image.copy_into(comp);
            }
            slot.arena.reset();
            slot.log.clear();
            slot.up = true;
            slot.condemned = false;
            slot.checkpoint_corrupt = false;
        }
        // The guest's ring mirrors go with the components, and a *full*
        // reboot resets the host side too (the hypervisor re-creates the
        // device) — unlike a component-local VIRTIO reboot. Guest first:
        // its reset counts the descriptors it loses.
        self.host.with(|w| {
            w.guest_reset_rings();
            w.host_device_reset();
        });

        self.clock.advance(self.costs.full_boot);
        self.failed = false;
        self.faults.clear();
        self.detector_suppressed = 0;
        self.reboot_interrupts.clear();

        self.mount_and_checkpoint(false)?;

        let end = self.clock.now();
        self.stats.full_reboots += 1;
        self.stats.downtime.push(DowntimeWindow {
            component: Name::from("*"),
            start,
            end,
        });
        let resets_after = self.host.with(|w| w.network().resets_seen());
        let connections_reset = resets_after - resets_before;
        self.emit(|c| c.full_reboot(start, end, connections_reset));
        Ok(FullRebootOutcome {
            downtime: end.saturating_sub(start),
            connections_reset,
        })
    }

    /// Failure handling: detect → reboot the failed component → replay the
    /// in-flight message once. A failure that recurs on the retry is
    /// treated as deterministic and the system fail-stops (§II-B).
    pub(crate) fn handle_failure(
        &mut self,
        err: OsError,
        caller: Option<usize>,
        callee: &Bound,
        args: &[Value],
    ) -> Result<Value, OsError> {
        let tid = callee.slot;
        let target = self.slots[tid].name.clone();
        if self.detector_suppressed > 0 {
            // False-negative window (chaos fault injection): the detector
            // sleeps through this failure. The component stays down and
            // the raw error propagates with no recovery attempt — only an
            // outside actor (e.g. an escalation rung) brings it back.
            self.detector_suppressed -= 1;
            self.stats.missed_detections += 1;
            self.slots[tid].up = false;
            let at = self.clock.now();
            let text = format!("detector missed failure of {target}: {err}");
            self.emit(|c| c.note(&text, at));
            return Err(err);
        }
        self.stats.failures += 1;
        let kind = match &err {
            OsError::Panic { .. } => "panic",
            OsError::Hang { .. } => "hang",
            OsError::ProtectionFault(_) => "mpk-violation",
            _ => "failure",
        };
        let mut detected = self.detect(tid, kind);

        if !self.auto_recover {
            return Err(err);
        }
        if !self.slots[tid].desc.is_rebootable() {
            return Err(
                self.terminal_failure(tid, &format!("unrebootable component failed: {err}"))
            );
        }
        match self.retry_depth {
            0 => {
                self.pending_recovery = Some(detected);
                self.reboot_index(tid)?;
            }
            1 if self.alternates.contains_key(target.as_str()) => {
                // The failure recurred on the re-executed input: a
                // deterministic bug in the component's code. Swap in the
                // registered alternate version (§VIII multi-versioning) —
                // its code differs, so the buggy path is gone — restore it
                // from the same log, and try once more.
                let alt = self
                    .alternates
                    .remove(target.as_str())
                    .expect("checked contains_key");
                self.faults.clear_component(&target);
                detected.kind = "version-swap";
                self.swap_component(tid, alt, Some(detected))?;
                self.stats.version_swaps += 1;
            }
            _ => {
                // No more remedies: deterministic fault, outside the fault
                // model (§II-B).
                return Err(
                    self.terminal_failure(tid, &format!("failure recurred after recovery: {err}"))
                );
            }
        }

        // Re-execute the in-flight message, bound again: a swap may have
        // renumbered the function.
        let retry = self.rebind(caller, callee);
        self.retry_depth += 1;
        let result = self.invoke_bound(caller, &retry, args);
        self.retry_depth -= 1;
        match result {
            Ok(v) => {
                self.stats.recovered_calls += 1;
                Ok(v)
            }
            // Deeper failure handling already produced the terminal error
            // (fail-stop or condemnation); pass it through.
            Err(e) => Err(e),
        }
    }

    /// The end of the line for one component's recovery: either the whole
    /// system fail-stops (§II-B) or, under graceful degradation (§VIII),
    /// only the component is condemned and the rest keeps serving.
    pub(crate) fn terminal_failure(&mut self, tid: usize, reason: &str) -> OsError {
        let name = self.slots[tid].name.clone();
        if self.graceful {
            self.slots[tid].up = false;
            self.slots[tid].condemned = true;
            let text = format!("component {name} condemned; system degraded: {reason}");
            let at = self.clock.now();
            self.emit(|c| c.note(&text, at));
            return OsError::FailStop {
                reason: format!("{reason} (component {name} condemned; system degraded)"),
            };
        }
        self.failed = true;
        OsError::FailStop {
            reason: reason.to_owned(),
        }
    }
}
