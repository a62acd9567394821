//! # sbu-bench — the experiment harness
//!
//! One module per experiment of `EXPERIMENTS.md` (E1–E15), each regenerating
//! the corresponding table from the paper's claims. Run them via the `exp`
//! binary:
//!
//! ```sh
//! cargo run --release -p sbu-bench --bin exp -- all
//! cargo run --release -p sbu-bench --bin exp -- e3
//! ```
//!
//! The paper is a theory paper: its "evaluation" is Theorem 6.6, the §6.4
//! complexity paragraph, the Figure 2/§4 observations and the §1/§7
//! hierarchy claims. Each experiment measures the implemented system and
//! reports the *shape* predicted by the paper (who wins, what grows how
//! fast, where the separations fall).
//!
//! The plumbing every experiment shares lives here: one timed thread loop
//! (`ops_per_sec`), one column list per table (`Table`, from which both
//! the text table and the `rows` of `BENCH_<exp>.json` are built), and one
//! artifact writer (`write_artifacts`). The `exp` binary dispatches every
//! experiment through one table.

pub mod e10_stress;
pub mod e11_recovery;
pub mod e12_service;
pub mod e13_faults;
pub mod e14_batch;
pub mod e15_socket;
pub mod e1_sticky_byte;
pub mod e2_election;
pub mod e3_space;
pub mod e4_time;
pub mod e5_crash;
pub mod e6_hierarchy;
pub mod e7_randomized;
pub mod e8_throughput;
pub mod e9_explore;

use sbu_mem::Pid;
use sbu_obs::{Json, Snapshot};
use std::time::Instant;

/// Run `work` once on each of `threads` scoped threads (`Pid(0)` up) and
/// return the aggregate rate, counting `ops_per_thread` operations per
/// thread. Thread start-up is inside the timed window.
pub(crate) fn ops_per_sec(threads: usize, ops_per_thread: usize, work: impl Fn(Pid) + Sync) -> f64 {
    let t0 = Instant::now();
    std::thread::scope(|s| {
        for i in 0..threads {
            let work = &work;
            s.spawn(move || work(Pid(i)));
        }
    });
    (threads * ops_per_thread) as f64 / t0.elapsed().as_secs_f64()
}

type FieldFn<R, T> = Box<dyn Fn(&R) -> T>;

/// One column of a [`Table`]: a header and a text form for the printed
/// table, a key and a JSON value for the `BENCH_<exp>.json` rows, or both.
struct Column<R> {
    text: Option<(String, FieldFn<R, String>)>,
    json: Option<(&'static str, FieldFn<R, Json>)>,
}

/// A titled column list: the one description of a table from which both
/// its text form ([`Table::render`]) and its JSON rows ([`json_rows`]) are
/// built. Columns print in the order they are added; JSON objects keep
/// their keys sorted whatever the order.
pub(crate) struct Table<R> {
    title: String,
    columns: Vec<Column<R>>,
}

impl<R> Table<R> {
    /// An empty table titled `title`.
    pub(crate) fn new(title: impl Into<String>) -> Self {
        Table {
            title: title.into(),
            columns: Vec::new(),
        }
    }

    fn push(
        mut self,
        text: Option<(String, FieldFn<R, String>)>,
        json: Option<(&'static str, FieldFn<R, Json>)>,
    ) -> Self {
        self.columns.push(Column { text, json });
        self
    }

    /// A column printed as `text` under `header` and stored as `json`
    /// under `key`.
    pub(crate) fn col(
        self,
        header: impl Into<String>,
        key: &'static str,
        text: impl Fn(&R) -> String + 'static,
        json: impl Fn(&R) -> Json + 'static,
    ) -> Self {
        self.push(
            Some((header.into(), Box::new(text))),
            Some((key, Box::new(json))),
        )
    }

    /// A number, printed with `decimals` places and stored as is.
    pub(crate) fn num(
        self,
        header: impl Into<String>,
        key: &'static str,
        decimals: usize,
        value: impl Fn(&R) -> f64 + Copy + 'static,
    ) -> Self {
        self.col(
            header,
            key,
            move |r| format!("{:.decimals$}", value(r)),
            move |r| Json::Num(value(r)),
        )
    }

    /// A printed-only column (a ratio of other columns, a marker).
    pub(crate) fn text(
        self,
        header: impl Into<String>,
        text: impl Fn(&R) -> String + 'static,
    ) -> Self {
        self.push(Some((header.into(), Box::new(text))), None)
    }

    /// A stored-only field.
    pub(crate) fn json(self, key: &'static str, json: impl Fn(&R) -> Json + 'static) -> Self {
        self.push(None, Some((key, Box::new(json))))
    }

    /// The printed table of `rows`.
    pub(crate) fn render(&self, rows: &[R]) -> String {
        let texts: Vec<_> = self
            .columns
            .iter()
            .filter_map(|c| c.text.as_ref())
            .collect();
        let header: Vec<&str> = texts.iter().map(|(h, _)| h.as_str()).collect();
        let cells: Vec<Vec<String>> = rows
            .iter()
            .map(|r| texts.iter().map(|(_, f)| f(r)).collect())
            .collect();
        render_table(&self.title, &header, &cells)
    }
}

/// The `rows` array of a `BENCH_<exp>.json`: one object per row holding
/// the keyed columns of every table in `tables` (E11 prints one row set
/// as two tables).
pub(crate) fn json_rows<R>(rows: &[R], tables: &[&Table<R>]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                let fields = tables
                    .iter()
                    .flat_map(|t| t.columns.iter().filter_map(|c| c.json.as_ref()))
                    .map(|(k, f)| (*k, f(r)))
                    .collect();
                Json::obj(fields)
            })
            .collect(),
    )
}

/// The `OBS_<exp>.json` document (schema in EXPERIMENTS.md).
pub(crate) fn obs_document(exp: &str, metrics: &Snapshot) -> Json {
    Json::obj(vec![
        ("experiment", Json::Str(exp.into())),
        ("metrics", metrics.to_json()),
    ])
}

/// Write `BENCH_<exp>.json` (when `bench` is given; smoke runs pass
/// `None`) and `OBS_<exp>.json` (when `metrics` is non-empty, i.e. under
/// the `obs` feature) into the working directory, returning one report
/// line per file.
pub(crate) fn write_artifacts(exp: &str, bench: Option<&Json>, metrics: &Snapshot) -> String {
    let obs = (!metrics.is_empty()).then(|| obs_document(exp, metrics));
    let mut out = String::new();
    for (kind, doc) in [("BENCH", bench), ("OBS", obs.as_ref())] {
        let Some(doc) = doc else { continue };
        let path = format!("{kind}_{exp}.json");
        match std::fs::write(&path, doc.render()) {
            Ok(()) => out.push_str(&format!("wrote {path}\n")),
            Err(e) => out.push_str(&format!("could not write {path}: {e}\n")),
        }
    }
    out
}

/// Render a table: header row plus data rows, columns padded.
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(title);
    out.push('\n');
    let fmt_row = |cells: &[String]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:>w$}", c, w = widths.get(i).copied().unwrap_or(c.len())))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_renders_aligned() {
        let t = render_table(
            "T",
            &["a", "bbbb"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
        assert!(t.contains("T\n"));
        assert!(t.contains("333"));
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 5);
    }

    #[test]
    fn a_table_prints_its_headed_columns_and_stores_its_keyed_ones() {
        let table = Table::<(u32, f64)>::new("T")
            .num("n", "n", 0, |r| f64::from(r.0))
            .text("half", |r| format!("{:.1}", r.1 / 2.0))
            .json("raw", |r| Json::Num(r.1));
        let rows = [(1, 3.0), (22, 5.0)];
        let printed = render_table(
            "T",
            &["n", "half"],
            &[
                vec!["1".into(), "1.5".into()],
                vec!["22".into(), "2.5".into()],
            ],
        );
        assert_eq!(table.render(&rows), printed);
        let stored = Json::Arr(vec![
            Json::obj(vec![("n", Json::Num(1.0)), ("raw", Json::Num(3.0))]),
            Json::obj(vec![("n", Json::Num(22.0)), ("raw", Json::Num(5.0))]),
        ]);
        assert_eq!(json_rows(&rows, &[&table]), stored);
    }
}
