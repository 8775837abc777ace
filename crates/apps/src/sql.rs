//! MiniSql: the SQLite stand-in — an embedded relational store.
//!
//! SQLite in the paper's evaluation is linked directly to the unikernel (no
//! network); its workload "performs 10,000 inserts of a 1-byte data item"
//! (§VII-C), each of which hits the file-system components (VFS → 9PFS →
//! VIRTIO) with journal and database writes plus an `fsync`. MiniSql
//! reproduces that I/O pattern behind a tiny SQL dialect:
//!
//! ```sql
//! CREATE TABLE items (id, body)
//! INSERT INTO items VALUES (1, 'x')
//! SELECT * FROM items WHERE id = 1
//! SELECT COUNT(*) FROM items
//! DELETE FROM items WHERE id = 1
//! ```

use std::collections::BTreeMap;

use vampos_core::System;
use vampos_oslib::OpenFlags;
use vampos_ukernel::OsError;

use crate::App;

/// Database file path on the 9P share.
pub const DB_PATH: &str = "/db.sql";
/// Rollback-journal path.
pub const JOURNAL_PATH: &str = "/db.sql-journal";

/// Result of one SQL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum QueryResult {
    /// Statement executed, nothing to return (CREATE).
    Done,
    /// Rows matched by a SELECT.
    Rows(Vec<Vec<String>>),
    /// Rows affected (INSERT/DELETE) or COUNT(*) value.
    Count(usize),
}

#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<String>>,
}

/// The embedded SQL store.
#[derive(Debug, Default)]
pub struct MiniSql {
    tables: BTreeMap<String, Table>,
    db_fd: Option<u64>,
    journal_fd: Option<u64>,
    statements: u64,
}

/// Parse error text for malformed SQL.
fn sql_err(msg: &str) -> OsError {
    OsError::Io(format!("sql: {msg}"))
}

impl MiniSql {
    /// Creates an unbooted store.
    pub fn new() -> Self {
        MiniSql::default()
    }

    /// Statements executed since creation.
    pub fn statements(&self) -> u64 {
        self.statements
    }

    /// Number of rows in `table`, if it exists.
    pub fn row_count(&self, table: &str) -> Option<usize> {
        self.tables.get(table).map(|t| t.rows.len())
    }

    fn persist_line(&mut self, sys: &mut System, line: &str) -> Result<(), OsError> {
        let db_fd = self.db_fd.ok_or_else(|| sql_err("database not open"))?;
        if let Some(journal_fd) = self.journal_fd {
            // Rollback journal: record the pre-image size, flush, then write.
            let size = sys.os().fstat(db_fd)?;
            sys.os()
                .pwrite(journal_fd, format!("{size}\n").as_bytes(), 0)?;
            sys.os().fsync(journal_fd)?;
        }
        sys.os().write(db_fd, line.as_bytes())?;
        sys.os().fsync(db_fd)?;
        if let Some(journal_fd) = self.journal_fd {
            // Commit: clear the journal.
            sys.os().pwrite(journal_fd, b"0\n", 0)?;
        }
        Ok(())
    }

    fn rewrite_db(&mut self, sys: &mut System) -> Result<(), OsError> {
        // DELETE compacts by rewriting the database file.
        let mut content = String::new();
        for (name, table) in &self.tables {
            content.push_str(&format!("T|{}|{}\n", name, table.columns.join(",")));
            for row in &table.rows {
                content.push_str(&format!("R|{}|{}\n", name, row.join(",")));
            }
        }
        if let Some(fd) = self.db_fd {
            sys.os().close(fd)?;
        }
        let fd = sys.os().open(
            DB_PATH,
            OpenFlags::RDWR | OpenFlags::CREAT | OpenFlags::TRUNC,
        )?;
        sys.os().write(fd, content.as_bytes())?;
        sys.os().fsync(fd)?;
        self.db_fd = Some(fd);
        Ok(())
    }

    fn load(&mut self, sys: &mut System) -> Result<(), OsError> {
        let db_fd = self.db_fd.ok_or_else(|| sql_err("database not open"))?;
        let size = sys.os().fstat(db_fd)?;
        if size == 0 {
            return Ok(());
        }
        let data = sys.os().pread(db_fd, size, 0)?;
        for line in String::from_utf8_lossy(&data).lines() {
            let mut parts = line.splitn(3, '|');
            match (parts.next(), parts.next(), parts.next()) {
                (Some("T"), Some(name), Some(cols)) => {
                    self.tables.insert(
                        name.to_owned(),
                        Table {
                            columns: cols.split(',').map(str::to_owned).collect(),
                            rows: Vec::new(),
                        },
                    );
                }
                (Some("R"), Some(name), Some(vals)) => {
                    if let Some(table) = self.tables.get_mut(name) {
                        table
                            .rows
                            .push(vals.split(',').map(str::to_owned).collect());
                    }
                }
                _ => {}
            }
        }
        sys.os()
            .lseek(db_fd, size as i64, vampos_core::Whence::Set)?;
        Ok(())
    }

    /// Executes one SQL statement.
    ///
    /// # Errors
    ///
    /// `Io("sql: …")` for malformed statements or unknown tables/columns;
    /// file-system errors from the persistence path.
    pub fn execute(&mut self, sys: &mut System, sql: &str) -> Result<QueryResult, OsError> {
        self.statements += 1;
        let sql = sql.trim().trim_end_matches(';').trim();
        let upper = sql.to_ascii_uppercase();

        if upper.starts_with("CREATE TABLE") {
            let rest = &sql["CREATE TABLE".len()..];
            let open = rest.find('(').ok_or_else(|| sql_err("expected ("))?;
            let close = rest.rfind(')').ok_or_else(|| sql_err("expected )"))?;
            let name = rest[..open].trim().to_owned();
            if name.is_empty() {
                return Err(sql_err("missing table name"));
            }
            if self.tables.contains_key(&name) {
                return Err(sql_err("table already exists"));
            }
            let columns: Vec<String> = rest[open + 1..close]
                .split(',')
                .map(|c| c.trim().to_owned())
                .filter(|c| !c.is_empty())
                .collect();
            if columns.is_empty() {
                return Err(sql_err("no columns"));
            }
            let line = format!("T|{}|{}\n", name, columns.join(","));
            self.persist_line(sys, &line)?;
            self.tables.insert(
                name,
                Table {
                    columns,
                    rows: Vec::new(),
                },
            );
            return Ok(QueryResult::Done);
        }

        if upper.starts_with("INSERT INTO") {
            let rest = &sql["INSERT INTO".len()..];
            let values_pos = rest
                .to_ascii_uppercase()
                .find("VALUES")
                .ok_or_else(|| sql_err("expected VALUES"))?;
            let name = rest[..values_pos].trim().to_owned();
            let vals_part = &rest[values_pos + "VALUES".len()..];
            let open = vals_part.find('(').ok_or_else(|| sql_err("expected ("))?;
            let close = vals_part.rfind(')').ok_or_else(|| sql_err("expected )"))?;
            let values: Vec<String> = vals_part[open + 1..close]
                .split(',')
                .map(|v| v.trim().trim_matches('\'').to_owned())
                .collect();
            let table = self
                .tables
                .get(&name)
                .ok_or_else(|| sql_err("no such table"))?;
            if values.len() != table.columns.len() {
                return Err(sql_err("value count does not match column count"));
            }
            let line = format!("R|{}|{}\n", name, values.join(","));
            self.persist_line(sys, &line)?;
            self.tables
                .get_mut(&name)
                .expect("checked")
                .rows
                .push(values);
            return Ok(QueryResult::Count(1));
        }

        if upper.starts_with("SELECT") {
            let from_pos = upper.find("FROM").ok_or_else(|| sql_err("expected FROM"))?;
            let projection = sql["SELECT".len()..from_pos].trim().to_owned();
            let rest = &sql[from_pos + 4..];
            let (name, filter) = Self::parse_from_where(rest)?;
            let table = self
                .tables
                .get(&name)
                .ok_or_else(|| sql_err("no such table"))?;
            let matching: Vec<Vec<String>> = table
                .rows
                .iter()
                .filter(|row| Self::row_matches(table, row, &filter))
                .cloned()
                .collect();
            if projection.eq_ignore_ascii_case("COUNT(*)") {
                return Ok(QueryResult::Count(matching.len()));
            }
            return Ok(QueryResult::Rows(matching));
        }

        if upper.starts_with("DELETE FROM") {
            let rest = &sql["DELETE FROM".len()..];
            let (name, filter) = Self::parse_from_where(rest)?;
            let table = self
                .tables
                .get_mut(&name)
                .ok_or_else(|| sql_err("no such table"))?;
            let before = table.rows.len();
            let columns = table.columns.clone();
            table.rows.retain(|row| {
                !Self::row_matches(
                    &Table {
                        columns: columns.clone(),
                        rows: Vec::new(),
                    },
                    row,
                    &filter,
                )
            });
            let removed = before - table.rows.len();
            if removed > 0 {
                self.rewrite_db(sys)?;
            }
            return Ok(QueryResult::Count(removed));
        }

        Err(sql_err("unsupported statement"))
    }

    fn parse_from_where(rest: &str) -> Result<(String, Option<(String, String)>), OsError> {
        let upper = rest.to_ascii_uppercase();
        if let Some(where_pos) = upper.find("WHERE") {
            let name = rest[..where_pos].trim().to_owned();
            let cond = &rest[where_pos + "WHERE".len()..];
            let eq = cond.find('=').ok_or_else(|| sql_err("expected ="))?;
            let col = cond[..eq].trim().to_owned();
            let val = cond[eq + 1..].trim().trim_matches('\'').to_owned();
            Ok((name, Some((col, val))))
        } else {
            Ok((rest.trim().to_owned(), None))
        }
    }

    fn row_matches(table: &Table, row: &[String], filter: &Option<(String, String)>) -> bool {
        match filter {
            None => true,
            Some((col, val)) => table
                .columns
                .iter()
                .position(|c| c == col)
                .map(|i| row.get(i).is_some_and(|v| v == val))
                .unwrap_or(false),
        }
    }
}

impl App for MiniSql {
    fn name(&self) -> &'static str {
        "sqlite"
    }

    fn boot(&mut self, sys: &mut System) -> Result<(), OsError> {
        let db_fd = sys.os().open(DB_PATH, OpenFlags::RDWR | OpenFlags::CREAT)?;
        self.db_fd = Some(db_fd);
        let journal_fd = sys
            .os()
            .open(JOURNAL_PATH, OpenFlags::RDWR | OpenFlags::CREAT)?;
        self.journal_fd = Some(journal_fd);
        if self.tables.is_empty() {
            self.load(sys)?;
        }
        Ok(())
    }

    fn crash(&mut self) {
        *self = MiniSql::new();
    }

    fn poll(&mut self, _sys: &mut System) -> Result<usize, OsError> {
        // SQLite is embedded: there is no network to poll.
        Ok(0)
    }

    fn state_digest(&self) -> u64 {
        // Schema plus row contents, table names sorted. The statements
        // counter is excluded: it resets on a full reboot while the
        // database file restores the tables.
        let mut names: Vec<&String> = self.tables.keys().collect();
        names.sort();
        let mut d = vampos_ukernel::digest::DigestBuilder::new().u64(names.len() as u64);
        for name in names {
            let table = &self.tables[name];
            d = d.str(name).u64(table.columns.len() as u64);
            for col in &table.columns {
                d = d.str(col);
            }
            d = d.u64(table.rows.len() as u64);
            for row in &table.rows {
                for cell in row {
                    d = d.str(cell);
                }
            }
        }
        d.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vampos_core::{ComponentSet, Mode, System};

    fn booted() -> (MiniSql, System) {
        let mut sys = System::builder()
            .mode(Mode::vampos_das())
            .components(ComponentSet::sqlite())
            .build()
            .unwrap();
        let mut app = MiniSql::new();
        app.boot(&mut sys).unwrap();
        (app, sys)
    }

    #[test]
    fn create_insert_select() {
        let (mut db, mut sys) = booted();
        db.execute(&mut sys, "CREATE TABLE items (id, body)")
            .unwrap();
        db.execute(&mut sys, "INSERT INTO items VALUES (1, 'x')")
            .unwrap();
        db.execute(&mut sys, "INSERT INTO items VALUES (2, 'y')")
            .unwrap();
        let rows = db
            .execute(&mut sys, "SELECT * FROM items WHERE id = 2")
            .unwrap();
        assert_eq!(
            rows,
            QueryResult::Rows(vec![vec!["2".to_owned(), "y".to_owned()]])
        );
        assert_eq!(
            db.execute(&mut sys, "SELECT COUNT(*) FROM items").unwrap(),
            QueryResult::Count(2)
        );
    }

    #[test]
    fn delete_with_filter() {
        let (mut db, mut sys) = booted();
        db.execute(&mut sys, "CREATE TABLE t (a)").unwrap();
        for i in 0..5 {
            db.execute(&mut sys, &format!("INSERT INTO t VALUES ({i})"))
                .unwrap();
        }
        assert_eq!(
            db.execute(&mut sys, "DELETE FROM t WHERE a = 3").unwrap(),
            QueryResult::Count(1)
        );
        assert_eq!(db.row_count("t"), Some(4));
    }

    #[test]
    fn inserts_hit_storage_with_journal_and_fsync() {
        let (mut db, mut sys) = booted();
        db.execute(&mut sys, "CREATE TABLE t (a)").unwrap();
        let fsyncs_before = sys.host().with(|w| w.ninep().fsync_count());
        db.execute(&mut sys, "INSERT INTO t VALUES (9)").unwrap();
        // journal fsync + db fsync
        assert_eq!(
            sys.host().with(|w| w.ninep().fsync_count()),
            fsyncs_before + 2
        );
        let db_file = sys.host().with(|w| w.ninep().read_file(DB_PATH)).unwrap();
        assert!(String::from_utf8_lossy(&db_file).contains("R|t|9"));
    }

    #[test]
    fn database_survives_full_reboot_via_storage() {
        let (mut db, mut sys) = booted();
        db.execute(&mut sys, "CREATE TABLE t (a, b)").unwrap();
        db.execute(&mut sys, "INSERT INTO t VALUES (1, 'one')")
            .unwrap();
        sys.full_reboot().unwrap();
        let mut cold = MiniSql::new();
        cold.boot(&mut sys).unwrap();
        assert_eq!(
            cold.execute(&mut sys, "SELECT * FROM t").unwrap(),
            QueryResult::Rows(vec![vec!["1".to_owned(), "one".to_owned()]])
        );
    }

    #[test]
    fn inserts_survive_component_rejuvenation() {
        let (mut db, mut sys) = booted();
        db.execute(&mut sys, "CREATE TABLE t (a)").unwrap();
        db.execute(&mut sys, "INSERT INTO t VALUES (1)").unwrap();
        sys.rejuvenate_all().unwrap();
        db.execute(&mut sys, "INSERT INTO t VALUES (2)").unwrap();
        assert_eq!(
            db.execute(&mut sys, "SELECT COUNT(*) FROM t").unwrap(),
            QueryResult::Count(2)
        );
    }

    #[test]
    fn malformed_sql_is_rejected() {
        let (mut db, mut sys) = booted();
        assert!(db.execute(&mut sys, "DROP TABLE x").is_err());
        assert!(db.execute(&mut sys, "CREATE TABLE ()").is_err());
        assert!(db
            .execute(&mut sys, "INSERT INTO missing VALUES (1)")
            .is_err());
        db.execute(&mut sys, "CREATE TABLE t (a, b)").unwrap();
        assert!(db.execute(&mut sys, "INSERT INTO t VALUES (1)").is_err());
        assert!(db.execute(&mut sys, "CREATE TABLE t (a)").is_err());
    }
}
