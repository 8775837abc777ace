//! The SQLite insert workload (§VII-C: 10 000 inserts of a 1-byte item).

use vampos_apps::MiniSql;
use vampos_core::System;
use vampos_ukernel::OsError;

use crate::disruption::Schedule;
use crate::report::{LoadReport, RequestRecord};

/// Configuration of a SQL insert run.
#[derive(Debug, Clone)]
pub struct SqlLoad {
    /// Number of INSERT statements.
    pub inserts: usize,
    /// Payload per item (paper: 1 byte).
    pub item_len: usize,
}

impl Default for SqlLoad {
    fn default() -> Self {
        SqlLoad {
            inserts: 10_000,
            item_len: 1,
        }
    }
}

impl SqlLoad {
    /// Runs the workload: creates the table (if absent) and times each
    /// insert.
    ///
    /// # Errors
    ///
    /// Propagates SQL/storage errors.
    pub fn run(&self, sys: &mut System, db: &mut MiniSql) -> Result<LoadReport, OsError> {
        self.run_with_disruptions(sys, db, &mut Schedule::default())
    }

    /// Like [`SqlLoad::run`], but fires `schedule` at its virtual times
    /// between statements (SQLite is embedded — there is no connection to
    /// lose, but component reboots and injected faults still land on the
    /// file-system path every INSERT exercises). The caller keeps the
    /// schedule for liveness checks.
    ///
    /// # Errors
    ///
    /// Propagates SQL/storage errors and system fail-stops.
    pub fn run_with_disruptions(
        &self,
        sys: &mut System,
        db: &mut MiniSql,
        schedule: &mut Schedule,
    ) -> Result<LoadReport, OsError> {
        let mut report = LoadReport::default();
        let started = sys.clock().now();
        if db.row_count("items").is_none() {
            db.execute(sys, "CREATE TABLE items (id, body)")?;
        }
        let body = "x".repeat(self.item_len.max(1));
        for i in 0..self.inserts {
            schedule.fire_due(sys.clock().now().saturating_sub(started), sys, db)?;
            let start = sys.clock().now();
            let result = db.execute(sys, &format!("INSERT INTO items VALUES ({i}, '{body}')"));
            report.records.push(RequestRecord {
                start,
                end: sys.clock().now(),
                ok: result.is_ok(),
            });
            result?;
        }
        // Quiesce: a disruption can come due during the final insert's
        // recovery window (recovery jumps the clock); fire it before
        // handing the schedule back.
        schedule.fire_due(sys.clock().now().saturating_sub(started), sys, db)?;
        report.duration = sys.clock().now().saturating_sub(started);
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_apps::App;
    use vampos_core::{ComponentSet, Mode};

    #[test]
    fn insert_workload_completes_and_persists() {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::sqlite())
            .build()
            .unwrap();
        let mut db = MiniSql::new();
        db.boot(&mut sys).unwrap();
        let load = SqlLoad {
            inserts: 50,
            item_len: 1,
        };
        let report = load.run(&mut sys, &mut db).unwrap();
        assert_eq!(report.successes(), 50);
        assert_eq!(db.row_count("items"), Some(50));
        assert!(report.throughput() > 0.0);
    }

    #[test]
    fn vanilla_is_faster_than_message_passing_noop() {
        let run = |mode| {
            let mut sys = System::builder()
                .mode(mode)
                .components(ComponentSet::sqlite())
                .build()
                .unwrap();
            let mut db = MiniSql::new();
            db.boot(&mut sys).unwrap();
            SqlLoad {
                inserts: 30,
                item_len: 1,
            }
            .run(&mut sys, &mut db)
            .unwrap()
            .duration
        };
        let vanilla = run(Mode::unikraft());
        let noop = run(Mode::vampos_noop());
        assert!(vanilla < noop, "{vanilla} !< {noop}");
    }
}
