//! One column-described result table per `repro` sweep.
//!
//! The same column list drives both outputs: [`Table::render`] prints the
//! text table and [`Table::emit`] writes `BENCH_<name>.json`, whose envelope
//! is `{"experiment":"<name>",<params...>,"rows":[{<key>:<cell>,...},...]}`.

use std::fmt::Display;
use std::io;
use std::path::Path;

/// How a column's cells are aligned and printed.
#[derive(Clone, Copy, Debug)]
pub(crate) enum Format {
    /// Left-aligned, quoted in JSON.
    Label,
    /// Right-aligned integer.
    Int,
    /// Right-aligned: `text` decimals then `unit` in the table, `json`
    /// decimals in the artifact.
    Float { text: usize, json: usize, unit: &'static str },
}

/// One column. An empty `header` keeps it out of the text table, an empty
/// `key` out of the artifact.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Column {
    key: &'static str,
    header: &'static str,
    width: usize,
    format: Format,
}

impl Column {
    /// A left-aligned label column.
    pub(crate) const fn label(key: &'static str, header: &'static str, width: usize) -> Self {
        Column { key, header, width, format: Format::Label }
    }

    /// A right-aligned integer column.
    pub(crate) const fn int(key: &'static str, header: &'static str, width: usize) -> Self {
        Column { key, header, width, format: Format::Int }
    }

    /// A right-aligned float column with `(text, json)` decimals.
    pub(crate) const fn float(
        key: &'static str,
        header: &'static str,
        width: usize,
        (text, json): (usize, usize),
    ) -> Self {
        Column { key, header, width, format: Format::Float { text, json, unit: "" } }
    }

    /// This float column with `unit` after each number in the text table.
    pub(crate) const fn unit(mut self, unit: &'static str) -> Self {
        if let Format::Float { text, json, .. } = self.format {
            self.format = Format::Float { text, json, unit };
        }
        self
    }

    fn pad(&self, s: &str) -> String {
        let w = self.width;
        match self.format {
            Format::Label => format!("{s:<w$}"),
            _ => format!("{s:>w$}"),
        }
    }

    fn text(&self, cell: &Cell) -> String {
        match (cell, self.format) {
            (Cell::Text(s), _) => s.clone(),
            (Cell::Int(n), _) => n.to_string(),
            (Cell::Float(x), Format::Float { text, unit, .. }) => format!("{x:.text$}{unit}"),
            _ => "-".to_string(),
        }
    }

    fn json(&self, cell: &Cell) -> String {
        match (cell, self.format) {
            (Cell::Text(s), _) => format!("\"{}\"", s.replace('\\', "\\\\").replace('"', "\\\"")),
            (Cell::Int(n), _) => n.to_string(),
            (Cell::Float(x), Format::Float { json, .. }) => format!("{x:.json$}"),
            _ => "null".to_string(),
        }
    }
}

/// One typed cell; `Missing` prints `-` in the table and `null` in JSON.
#[derive(Clone, Debug, PartialEq)]
pub(crate) enum Cell {
    Text(String),
    Int(u64),
    Float(f64),
    Missing,
}

macro_rules! cell_from {
    ($($ty:ty => $variant:ident),*) => {$(
        impl From<$ty> for Cell {
            fn from(v: $ty) -> Self {
                Cell::$variant(v.into())
            }
        }
    )*};
}

cell_from!(&str => Text, String => Text, u64 => Int, f64 => Float);

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl<T: Into<Cell>> From<Option<T>> for Cell {
    fn from(v: Option<T>) -> Self {
        v.map_or(Cell::Missing, Into::into)
    }
}

/// A sweep's result: envelope parameters plus rows over a fixed column list.
#[derive(Clone, Debug)]
pub(crate) struct Table {
    name: &'static str,
    params: Vec<(&'static str, String)>,
    columns: &'static [Column],
    rows: Vec<Vec<Cell>>,
}

impl Table {
    /// An empty table for experiment `name`.
    pub(crate) fn new(name: &'static str, columns: &'static [Column]) -> Self {
        Table { name, params: Vec::new(), columns, rows: Vec::new() }
    }

    /// Adds envelope parameter `key`, written verbatim: a number, a bool,
    /// or an already rendered JSON value.
    pub(crate) fn param(mut self, key: &'static str, value: impl Display) -> Self {
        self.params.push((key, value.to_string()));
        self
    }

    /// Appends a row of one cell per column.
    ///
    /// # Panics
    /// Panics if the cells do not match the columns in number or type.
    pub(crate) fn push(&mut self, row: Vec<Cell>) {
        assert_eq!(row.len(), self.columns.len(), "{}: row width", self.name);
        for (c, cell) in self.columns.iter().zip(&row) {
            let fits = matches!(
                (c.format, cell),
                (_, Cell::Missing)
                    | (Format::Label, Cell::Text(_))
                    | (Format::Int, Cell::Int(_))
                    | (Format::Float { .. }, Cell::Float(_))
            );
            assert!(fits, "{}: {cell:?} in column `{}`", self.name, c.key);
        }
        self.rows.push(row);
    }

    /// The rows, read back by column key.
    pub(crate) fn rows(&self) -> impl Iterator<Item = Row<'_>> {
        self.rows.iter().map(|cells| Row { columns: self.columns, cells })
    }

    /// The text table: a header line, then one line per row.
    pub(crate) fn render(&self) -> String {
        let line = |cells: Vec<String>| cells.join(" ") + "\n";
        let shown = self.columns.iter().filter(|c| !c.header.is_empty());
        let mut out = line(shown.map(|c| c.pad(c.header)).collect());
        for row in &self.rows {
            let shown = self.columns.iter().zip(row).filter(|(c, _)| !c.header.is_empty());
            out += &line(shown.map(|(c, cell)| c.pad(&c.text(cell))).collect());
        }
        out
    }

    /// The `BENCH_<name>.json` artifact.
    pub(crate) fn json(&self) -> String {
        let mut out = format!("{{\"experiment\":\"{}\"", self.name);
        for (key, value) in &self.params {
            out += &format!(",\"{key}\":{value}");
        }
        let object = |row: &Vec<Cell>| {
            let fields = self.columns.iter().zip(row).filter(|(c, _)| !c.key.is_empty());
            let fields: Vec<String> =
                fields.map(|(c, cell)| format!("\"{}\":{}", c.key, c.json(cell))).collect();
            format!("{{{}}}", fields.join(","))
        };
        let rows: Vec<String> = self.rows.iter().map(object).collect();
        out + &format!(",\"rows\":{}}}\n", json_list(&rows))
    }

    /// Appends the text table to `out`, writes `BENCH_<name>.json` into
    /// `dir`, and notes the written file in `out`.
    pub(crate) fn emit(&self, dir: &Path, out: &mut String) -> io::Result<()> {
        out.push_str(&self.render());
        let path = dir.join(format!("BENCH_{}.json", self.name));
        std::fs::write(&path, self.json())
            .map_err(|e| io::Error::new(e.kind(), format!("writing {}: {e}", path.display())))?;
        out.push_str(&format!("\nwrote {} ({} rows)\n", path.display(), self.rows.len()));
        Ok(())
    }
}

/// A JSON array of already rendered values, one per line.
pub(crate) fn json_list(items: &[String]) -> String {
    format!("[\n  {}\n]", items.join(",\n  "))
}

/// One table row, read by column key (the first column with that key).
#[derive(Clone, Copy, Debug)]
pub(crate) struct Row<'a> {
    columns: &'a [Column],
    cells: &'a [Cell],
}

impl<'a> Row<'a> {
    fn get(&self, key: &str) -> &'a Cell {
        let i = self.columns.iter().position(|c| c.key == key);
        &self.cells[i.unwrap_or_else(|| panic!("no column `{key}`"))]
    }

    /// The integer under `key`.
    pub(crate) fn int(&self, key: &str) -> u64 {
        match self.get(key) {
            Cell::Int(n) => *n,
            other => panic!("`{key}` is not an integer: {other:?}"),
        }
    }

    /// The number under `key`.
    pub(crate) fn float(&self, key: &str) -> f64 {
        match self.get(key) {
            Cell::Float(x) => *x,
            Cell::Int(n) => *n as f64,
            other => panic!("`{key}` is not a number: {other:?}"),
        }
    }

    /// The label under `key`.
    pub(crate) fn text(&self, key: &str) -> &'a str {
        match self.get(key) {
            Cell::Text(s) => s,
            other => panic!("`{key}` is not a label: {other:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn text_and_json_follow_one_column_list() {
        const COLUMNS: &[Column] = &[
            Column::label("mode", "mode", 6),
            Column::int("threads", "thr", 4),
            Column::int("ops", "", 0),
            Column::float("rate", "rate", 8, (1, 3)).unit("x"),
            Column::float("late", "late", 6, (2, 4)),
        ];
        let mut t = Table::new("sample", COLUMNS).param("ops_per_thread", 7);
        t.push(vec!["a".into(), 1u64.into(), 7u64.into(), 1.23456.into(), Some(0.5).into()]);
        t.push(vec!["b".into(), 2u64.into(), 14u64.into(), 2.0.into(), None::<f64>.into()]);

        assert_eq!(
            t.render(),
            "mode    thr     rate   late\n\
             a         1     1.2x   0.50\n\
             b         2     2.0x      -\n"
        );
        assert_eq!(
            t.json(),
            "{\"experiment\":\"sample\",\"ops_per_thread\":7,\"rows\":[\n  \
             {\"mode\":\"a\",\"threads\":1,\"ops\":7,\"rate\":1.235,\"late\":0.5000},\n  \
             {\"mode\":\"b\",\"threads\":2,\"ops\":14,\"rate\":2.000,\"late\":null}\n]}\n"
        );
        let rows: Vec<Row<'_>> = t.rows().collect();
        assert_eq!((rows[1].text("mode"), rows[1].int("ops")), ("b", 14));
        assert_eq!(rows[0].float("rate"), 1.23456);
        assert_eq!(rows[1].get("late"), &Cell::Missing);
    }
}
