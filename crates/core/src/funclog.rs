//! The function-call and return-value log (§V-B) and session-aware log
//! shrinking (§V-F).
//!
//! Every logged inbound call becomes a [`LogEntry`]: function, arguments,
//! return value, **and the return values of every downcall the component
//! made while executing it** ([`DownRec`]). Encapsulated restoration replays
//! the entries in order, answering the component's downcalls from the
//! recorded values so that the restoration has no side effects on running
//! components.
//!
//! Shrinking removes sessions retired by *canceling functions* (`close`),
//! and threshold-triggered compaction summarises still-open sessions
//! (replacing a run of reads/writes with one synthetic offset-setting
//! entry).
//!
//! # Implementation notes
//!
//! The log is one `Vec<Rc<LogEntry>>` in replay order, and every shrinking
//! operation is one scan of it: no workload keeps more than
//! `shrink_threshold + 1` entries (101 by default), and a cancel finds
//! about 20 to 26 of them, so per-session indices would buy nothing. The
//! runtime's virtual clock charges the scan as such
//! (`log_shrink_scan × (removed + len)`).
//!
//! `byte_len` and `record_count` are maintained incrementally — each
//! entry's size is measured once, when it is stored — and
//! [`FunctionLog::replay_entries`] hands out `Rc`-shared entries instead of
//! deep clones — an outstanding replay snapshot stays frozen even if the
//! live log keeps shrinking (copy-on-write of the one mutable field, an
//! `Open` entry's live-session set).

use std::rc::Rc;

use vampos_sim::Name;
use vampos_ukernel::{OsError, SessionEvent, TouchSynthesis, Value};

/// One recorded downcall made while executing a logged entry.
#[derive(Debug, Clone, PartialEq)]
pub struct DownRec {
    /// Component that was invoked.
    pub target: Name,
    /// Function that was invoked.
    pub func: Name,
    /// The outcome the downcall produced (errors are part of the recorded
    /// control flow: a `NotFound` from `lookup` steers `open` into its
    /// create path, and replay must reproduce that).
    pub ret: Result<Value, OsError>,
}

impl DownRec {
    /// Approximate in-memory size of the record in bytes; its part of the
    /// enclosing entry's [`LogEntry::byte_len`].
    pub(crate) fn byte_len(&self) -> usize {
        32 + self.func.len()
            + match &self.ret {
                Ok(v) => v.byte_len(),
                Err(_) => 16,
            }
    }
}

/// The downcalls a logged call records while it runs, with their summed
/// [`DownRec::byte_len`], measured as each is recorded.
#[derive(Debug, Default)]
pub(crate) struct Recording {
    pub(crate) downcalls: Vec<DownRec>,
    pub(crate) bytes: usize,
}

impl Recording {
    pub(crate) fn push(&mut self, rec: DownRec) {
        self.bytes += rec.byte_len();
        self.downcalls.push(rec);
    }
}

/// Session classification stored with an entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EntryTag {
    /// Not session-bound; always kept.
    Free,
    /// Creates sessions. `created` is immutable (what a replay of the entry
    /// recreates); `live` shrinks as sessions close, and the entry is
    /// removed when `live` empties.
    Open {
        /// Sessions this entry creates on replay.
        created: Vec<u64>,
        /// Created sessions not yet closed.
        live: Vec<u64>,
    },
    /// Belongs to the session.
    Touch(u64),
    /// A canceling entry kept because a surviving `Open` entry still
    /// recreates one of these sessions on replay (e.g. the close of one
    /// pipe end while the pipe-creating entry must stay).
    Close(Vec<u64>),
}

/// One logged function call.
#[derive(Debug, Clone, PartialEq)]
pub struct LogEntry {
    /// Monotonic sequence number within the component's log.
    pub seq: u64,
    /// The calling component (or `"app"`).
    pub caller: Name,
    /// Invoked function.
    pub func: Name,
    /// Marshalled arguments.
    pub args: Vec<Value>,
    /// The value the call returned.
    pub ret: Value,
    /// Downcall return values recorded during the call.
    pub downcalls: Vec<DownRec>,
    /// Session classification.
    pub tag: EntryTag,
    /// True for compaction-synthesised entries.
    pub synthetic: bool,
    /// [`LogEntry::byte_len`] as measured when the entry was stored; what
    /// the log's running total adds and subtracts.
    size: usize,
}

impl LogEntry {
    /// Approximate in-memory size of the entry in bytes (space accounting
    /// for Fig. 7b and Table III), computed from its contents.
    pub fn byte_len(&self) -> usize {
        let args: usize = self.args.iter().map(Value::byte_len).sum();
        let downs: usize = self.downcalls.iter().map(DownRec::byte_len).sum();
        Self::base_len(&self.caller, &self.func) + args + self.ret.byte_len() + downs
    }

    /// The part of [`LogEntry::byte_len`] that is not payload.
    fn base_len(caller: &str, func: &str) -> usize {
        64 + func.len() + caller.len()
    }

    /// Records in this entry count as `1 + downcalls` "log entries" in the
    /// paper's Table III terminology (function-call log + return-value log).
    pub fn record_count(&self) -> usize {
        1 + self.downcalls.len()
    }
}

/// A per-component function-call / return-value log.
#[derive(Debug, Clone, Default)]
pub struct FunctionLog {
    /// The entries in replay order.
    entries: Vec<Rc<LogEntry>>,
    /// Incrementally maintained total of [`LogEntry::byte_len`].
    bytes: usize,
    /// Incrementally maintained total of [`LogEntry::record_count`].
    records: usize,
    next_seq: u64,
    removed_total: u64,
}

impl FunctionLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        FunctionLog::default()
    }

    /// Number of entries currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total byte size of the log.
    pub fn byte_len(&self) -> usize {
        self.bytes
    }

    /// Total "records" in the paper's Table III sense (entries + recorded
    /// downcall return values).
    pub fn record_count(&self) -> usize {
        self.records
    }

    /// Entries removed by shrinking over the log's lifetime.
    pub fn removed_total(&self) -> u64 {
        self.removed_total
    }

    /// Iterates the entries in replay order.
    pub fn iter(&self) -> impl Iterator<Item = &LogEntry> {
        self.entries.iter().map(|e| &**e)
    }

    /// A cheap snapshot of the entries for replay: the `Rc`s are shared
    /// with the live log, which keeps accumulating (and shrinking)
    /// independently — a later mutation of an `Open` entry's live set
    /// copies only that entry.
    pub fn replay_entries(&self) -> Vec<Rc<LogEntry>> {
        self.entries.clone()
    }

    /// Clears the log (full reboot).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.bytes = 0;
        self.records = 0;
    }

    /// Chaos hook: overwrites the newest entry's logged return value so
    /// the next replay deterministically diverges from the log
    /// (replay-divergence fault injection). The incremental byte total is
    /// kept consistent. Returns whether an entry was corrupted (false on
    /// an empty log).
    pub fn corrupt_newest_ret(&mut self) -> bool {
        let Some(rc) = self.entries.last_mut() else {
            return false;
        };
        let entry = Rc::make_mut(rc);
        let before = entry.size;
        entry.size -= entry.ret.byte_len();
        entry.ret = Value::from("corrupted-log-record");
        entry.size += entry.ret.byte_len();
        self.bytes = self.bytes - before + entry.size;
        true
    }

    /// Appends `entry`, adding it to the totals.
    fn insert(&mut self, entry: LogEntry) {
        self.bytes += entry.size;
        self.records += entry.record_count();
        self.entries.push(Rc::new(entry));
    }

    /// Removes every entry `kill` selects, keeping the survivors' order
    /// and the totals. `kill` may mutate an entry it keeps. Returns the
    /// entries removed.
    fn remove_where(&mut self, mut kill: impl FnMut(&mut Rc<LogEntry>) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain_mut(|e| {
            if !kill(e) {
                return true;
            }
            self.bytes -= e.size;
            self.records -= e.record_count();
            false
        });
        let removed = before - self.entries.len();
        self.removed_total += removed as u64;
        removed
    }

    /// Appends a logged call, applying session-aware shrinking when
    /// `shrinking` is enabled and the event is a cancel. The runtime passes
    /// the names it already shares with its slot and descriptor tables;
    /// string literals work too and allocate only if the entry is kept.
    /// Returns the entries the cancel removed.
    // The parameters are the fields of the entry being built; bundling them
    // into a struct would only move the same list one call site up.
    #[allow(clippy::too_many_arguments)]
    pub fn append(
        &mut self,
        caller: impl Into<Name>,
        func: impl Into<Name>,
        args: &[Value],
        ret: &Value,
        downcalls: Vec<DownRec>,
        event: SessionEvent,
        shrinking: bool,
    ) -> usize {
        let args_bytes: usize = args.iter().map(Value::byte_len).sum();
        let down_bytes: usize = downcalls.iter().map(DownRec::byte_len).sum();
        let payload = args_bytes + ret.byte_len() + down_bytes;
        self.append_sized(
            caller, func, args, ret, downcalls, event, shrinking, payload,
        )
    }

    /// [`FunctionLog::append`] with the entry's payload — its arguments',
    /// return value's and downcalls' byte lengths — already summed, as the
    /// runtime has them from charging the call's hops.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn append_sized(
        &mut self,
        caller: impl Into<Name>,
        func: impl Into<Name>,
        args: &[Value],
        ret: &Value,
        downcalls: Vec<DownRec>,
        event: SessionEvent,
        shrinking: bool,
        payload: usize,
    ) -> usize {
        let mut removed = 0usize;

        let tag = match &event {
            SessionEvent::None => EntryTag::Free,
            SessionEvent::Open(sessions) => EntryTag::Open {
                created: sessions.clone(),
                live: sessions.clone(),
            },
            SessionEvent::Touch(s) => EntryTag::Touch(*s),
            SessionEvent::Close(sessions) => {
                if shrinking {
                    removed = self.cancel_sessions(sessions);
                    // Keep this canceling entry only while some surviving
                    // entry would recreate one of its sessions on replay.
                    let still_recreated = self.iter().any(|e| {
                        matches!(&e.tag, EntryTag::Open { created, .. }
                            if created.iter().any(|s| sessions.contains(s)))
                    });
                    if !still_recreated {
                        return removed;
                    }
                    EntryTag::Close(sessions.clone())
                } else {
                    EntryTag::Free
                }
            }
        };

        let (caller, func) = (caller.into(), func.into());
        let entry = LogEntry {
            seq: self.next_seq,
            size: LogEntry::base_len(&caller, &func) + payload,
            caller,
            func,
            args: args.to_vec(),
            ret: ret.clone(),
            downcalls,
            tag,
            synthetic: false,
        };
        self.next_seq += 1;
        self.insert(entry);
        removed
    }

    /// Session-aware shrinking on a cancel (§V-F), one scan of the log:
    /// drops the closing sessions' touches and every `Open` entry whose
    /// live set loses its last session, then cascades to the kept
    /// canceling entries those entries recreated. Returns the entries
    /// removed.
    fn cancel_sessions(&mut self, sessions: &[u64]) -> usize {
        // Everything a removed `Open` entry created is now dead.
        let mut fully_dead: Vec<u64> = Vec::new();
        let mut removed = self.remove_where(|rc| match &rc.tag {
            EntryTag::Touch(s) => sessions.contains(s),
            EntryTag::Open { created, live } if live.iter().any(|s| sessions.contains(s)) => {
                if live.iter().all(|s| sessions.contains(s)) {
                    fully_dead.extend_from_slice(created);
                    return true;
                }
                // Copy-on-write: shared only while a replay snapshot is
                // outstanding, in which case the snapshot must stay frozen.
                if let EntryTag::Open { live, .. } = &mut Rc::make_mut(rc).tag {
                    live.retain(|s| !sessions.contains(s));
                }
                false
            }
            _ => false,
        });

        // Cascade: kept canceling entries whose every session lost its
        // creator replay against nothing — remove them too. A stored
        // `Close` list is never empty.
        if !fully_dead.is_empty() {
            removed += self.remove_where(|rc| {
                matches!(&rc.tag, EntryTag::Close(ss) if ss.iter().all(|s| fully_dead.contains(s)))
            });
        }
        removed
    }

    /// All sessions with at least one `Touch` entry (compaction candidates).
    pub fn touched_sessions(&self) -> Vec<u64> {
        let mut sessions: Vec<u64> = self
            .iter()
            .filter_map(|e| match e.tag {
                EntryTag::Touch(s) => Some(s),
                _ => None,
            })
            .collect();
        sessions.sort_unstable();
        sessions.dedup();
        sessions
    }

    /// Applies one session's compaction decision: removes its `Touch`
    /// entries and, for [`TouchSynthesis::Replace`], appends the synthetic
    /// summary entry. Returns the number of entries removed.
    pub fn compact_session(&mut self, session: u64, decision: TouchSynthesis) -> usize {
        if matches!(decision, TouchSynthesis::Keep) {
            return 0;
        }
        let removed = self.remove_where(|rc| matches!(rc.tag, EntryTag::Touch(s) if s == session));
        let TouchSynthesis::Replace { func, args, ret } = decision else {
            return removed;
        };
        if removed == 0 {
            return 0;
        }
        let mut entry = LogEntry {
            seq: self.next_seq,
            caller: Name::from("compactor"),
            func,
            args,
            ret,
            downcalls: Vec::new(),
            tag: EntryTag::Touch(session),
            synthetic: true,
            size: 0,
        };
        entry.size = entry.byte_len();
        self.insert(entry);
        self.next_seq += 1;
        removed - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn append_simple(
        log: &mut FunctionLog,
        func: &str,
        event: SessionEvent,
        shrinking: bool,
    ) -> usize {
        log.append("app", func, &[], &Value::Unit, Vec::new(), event, shrinking)
    }

    #[test]
    fn appends_accumulate_in_order() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "a", SessionEvent::None, true);
        append_simple(&mut log, "b", SessionEvent::None, true);
        let funcs: Vec<&str> = log.iter().map(|e| e.func.as_str()).collect();
        assert_eq!(funcs, ["a", "b"]);
        assert_eq!(log.record_count(), 2);
    }

    #[test]
    fn close_cancels_a_whole_session() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "open", SessionEvent::Open(vec![3]), true);
        append_simple(&mut log, "read", SessionEvent::Touch(3), true);
        append_simple(&mut log, "write", SessionEvent::Touch(3), true);
        let removed = append_simple(&mut log, "close", SessionEvent::Close(vec![3]), true);
        assert_eq!(removed, 3);
        assert!(log.is_empty(), "open/read/write/close all gone");
    }

    #[test]
    fn close_spares_other_sessions() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "open", SessionEvent::Open(vec![3]), true);
        append_simple(&mut log, "open", SessionEvent::Open(vec![4]), true);
        append_simple(&mut log, "read", SessionEvent::Touch(4), true);
        append_simple(&mut log, "close", SessionEvent::Close(vec![3]), true);
        let funcs: Vec<&str> = log.iter().map(|e| e.func.as_str()).collect();
        assert_eq!(funcs, ["open", "read"]);
    }

    #[test]
    fn pipe_close_is_kept_until_both_ends_close() {
        // Pipe case: one entry creates two sessions. The close of one end
        // must stay in the log (replaying `pipe` recreates both fds), and
        // everything cascades away when the second end closes.
        let mut log = FunctionLog::new();
        append_simple(&mut log, "pipe", SessionEvent::Open(vec![3, 4]), true);
        append_simple(&mut log, "write", SessionEvent::Touch(4), true);
        append_simple(&mut log, "close", SessionEvent::Close(vec![4]), true);
        let funcs: Vec<&str> = log.iter().map(|e| e.func.as_str()).collect();
        assert_eq!(funcs, ["pipe", "close"]);

        // Closing the read end empties the pipe entry's live set; the kept
        // close of the write end is cascaded away too.
        append_simple(&mut log, "close", SessionEvent::Close(vec![3]), true);
        assert!(
            log.is_empty(),
            "log = {:?}",
            log.iter().map(|e| &e.func).collect::<Vec<_>>()
        );
    }

    #[test]
    fn shrinking_disabled_keeps_everything() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "open", SessionEvent::Open(vec![3]), false);
        append_simple(&mut log, "close", SessionEvent::Close(vec![3]), false);
        assert_eq!(log.len(), 2);
        assert_eq!(log.removed_total(), 0);
    }

    #[test]
    fn multi_session_close_requires_all_opens() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "open", SessionEvent::Open(vec![3]), true);
        append_simple(
            &mut log,
            "vget",
            SessionEvent::Open(vec![1 << 32 | 7]),
            true,
        );
        let removed = append_simple(
            &mut log,
            "close",
            SessionEvent::Close(vec![3, 1 << 32 | 7]),
            true,
        );
        assert_eq!(removed, 2);
        assert!(log.is_empty());
    }

    #[test]
    fn compaction_replaces_touches_with_synthetic_entry() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "open", SessionEvent::Open(vec![3]), true);
        for _ in 0..10 {
            append_simple(&mut log, "read", SessionEvent::Touch(3), true);
        }
        let removed = log.compact_session(
            3,
            TouchSynthesis::Replace {
                func: "vfs_set_offset".into(),
                args: vec![Value::U64(3), Value::U64(40)],
                ret: Value::Unit,
            },
        );
        assert_eq!(removed, 9); // 10 touches → 1 synthetic
        assert_eq!(log.len(), 2);
        let last = log.iter().last().unwrap();
        assert!(last.synthetic);
        assert_eq!(last.func, "vfs_set_offset");
        // The synthetic entry is still session-bound: a later close removes it.
        append_simple(&mut log, "close", SessionEvent::Close(vec![3]), true);
        assert!(log.is_empty());
    }

    #[test]
    fn compaction_drop_removes_without_replacement() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "open", SessionEvent::Open(vec![5]), true);
        append_simple(&mut log, "read", SessionEvent::Touch(5), true);
        append_simple(&mut log, "read", SessionEvent::Touch(5), true);
        assert_eq!(log.compact_session(5, TouchSynthesis::Drop), 2);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn compaction_keep_is_a_no_op() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "read", SessionEvent::Touch(5), true);
        assert_eq!(log.compact_session(5, TouchSynthesis::Keep), 0);
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn touched_sessions_deduplicates() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "read", SessionEvent::Touch(5), true);
        append_simple(&mut log, "read", SessionEvent::Touch(5), true);
        append_simple(&mut log, "read", SessionEvent::Touch(9), true);
        assert_eq!(log.touched_sessions(), vec![5, 9]);
    }

    #[test]
    fn byte_len_grows_with_payloads() {
        let mut log = FunctionLog::new();
        log.append(
            "app",
            "write",
            &[Value::U64(3), Value::Bytes(vec![0; 1000])],
            &Value::U64(1000),
            Vec::new(),
            SessionEvent::Touch(3),
            true,
        );
        assert!(log.byte_len() > 1000);
    }

    #[test]
    fn downcalls_count_as_records() {
        let mut log = FunctionLog::new();
        log.append(
            "app",
            "open",
            &[],
            &Value::U64(3),
            vec![
                DownRec {
                    target: "9pfs".into(),
                    func: "lookup".into(),
                    ret: Ok(Value::U64(1)),
                },
                DownRec {
                    target: "9pfs".into(),
                    func: "open".into(),
                    ret: Ok(Value::Unit),
                },
            ],
            SessionEvent::Open(vec![3]),
            true,
        );
        assert_eq!(log.record_count(), 3);
    }

    #[test]
    fn replay_entries_is_a_snapshot() {
        let mut log = FunctionLog::new();
        append_simple(&mut log, "open", SessionEvent::Open(vec![3]), true);
        let snap = log.replay_entries();
        append_simple(&mut log, "read", SessionEvent::Touch(3), true);
        assert_eq!(snap.len(), 1);
        assert_eq!(log.len(), 2);
    }

    #[test]
    fn replay_snapshot_is_frozen_across_shrinking() {
        // An outstanding replay snapshot must not see later mutations of an
        // Open entry's live set (copy-on-write path of Rc::make_mut).
        let mut log = FunctionLog::new();
        append_simple(&mut log, "pipe", SessionEvent::Open(vec![3, 4]), true);
        let snap = log.replay_entries();
        append_simple(&mut log, "close", SessionEvent::Close(vec![4]), true);
        let EntryTag::Open { live, .. } = &snap[0].tag else {
            panic!("expected Open entry in snapshot");
        };
        assert_eq!(live, &[3, 4], "snapshot saw the live-set shrink");
        let EntryTag::Open { live, .. } = &log.iter().next().unwrap().tag else {
            panic!("expected Open entry in live log");
        };
        assert_eq!(live, &[3], "live log did not shrink");
    }

    fn assert_totals_match(log: &FunctionLog) {
        let bytes: usize = log.iter().map(LogEntry::byte_len).sum();
        let records: usize = log.iter().map(LogEntry::record_count).sum();
        assert_eq!(log.byte_len(), bytes);
        assert_eq!(log.record_count(), records);
        assert_eq!(log.len(), log.iter().count());
    }

    #[test]
    fn incremental_totals_match_recomputation() {
        let mut log = FunctionLog::new();
        let lookup = |ret| DownRec {
            target: "9pfs".into(),
            func: "lookup".into(),
            ret,
        };
        for s in 0..50u64 {
            log.append(
                "app",
                "open",
                &[Value::from("/f")],
                &Value::U64(s),
                vec![
                    lookup(Ok(Value::from("/f"))),
                    lookup(Err(OsError::NotFound)),
                ],
                SessionEvent::Open(vec![s]),
                true,
            );
            for _ in 0..4 {
                log.append(
                    "app",
                    "write",
                    &[Value::U64(s), Value::Bytes(vec![0; 32])],
                    &Value::U64(32),
                    Vec::new(),
                    SessionEvent::Touch(s),
                    true,
                );
            }
            if s % 2 == 0 {
                append_simple(&mut log, "close", SessionEvent::Close(vec![s]), true);
            }
        }
        assert_totals_match(&log);

        // Compaction: a synthetic replacement, and a plain drop.
        log.compact_session(
            1,
            TouchSynthesis::Replace {
                func: "vfs_set_offset".into(),
                args: vec![Value::U64(1), Value::U64(128)],
                ret: Value::Unit,
            },
        );
        log.compact_session(3, TouchSynthesis::Drop);
        assert_totals_match(&log);

        // A cancel cascade: the kept close of one pipe end goes with the
        // pipe when the other end closes.
        append_simple(&mut log, "pipe", SessionEvent::Open(vec![100, 101]), true);
        append_simple(&mut log, "close", SessionEvent::Close(vec![101]), true);
        append_simple(&mut log, "close", SessionEvent::Close(vec![100]), true);
        assert_totals_match(&log);

        // Closing every odd session empties the log.
        for s in (1..50u64).step_by(2) {
            append_simple(&mut log, "close", SessionEvent::Close(vec![s]), true);
        }
        assert!(log.is_empty());
        assert_totals_match(&log);

        append_simple(&mut log, "open", SessionEvent::Open(vec![7]), true);
        assert!(log.corrupt_newest_ret());
        assert_totals_match(&log);
    }
}
