//! Minimal CSV reading and writing for point clouds.
//!
//! The real UCI data sets the paper uses are distributed as comma-separated
//! numeric files.  This module lets users swap our simulated surrogates for
//! the genuine files: every row becomes one point, non-numeric trailing
//! columns (such as the KDD Cup class label) can be skipped, and the loader
//! validates that all rows share one dimension.
//!
//! # One parser, in parallel blocks
//!
//! [`parse_flat`] (and [`load_flat`] for a path) is the only reader: it
//! fills one [`FlatPoints`] buffer at the target storage precision, and
//! [`parse_points`]/[`load_points`] are views over it at `f64`.
//!
//! * **Blocks.** The input is read in fixed-size blocks (4 MiB).  Each block
//!   is cut after its last newline and the partial line after it is carried
//!   over to the next block, so every block holds whole lines; a line longer
//!   than a block simply makes its block longer.
//! * **Batches.** One batch of `width` blocks is read, parsed in parallel
//!   (one block per task), and appended in file order to the single output
//!   buffer; then the next batch reuses the same block buffers.  `width` is
//!   [`rayon::current_num_threads`], so the CLI's `--threads` /
//!   `KCENTER_THREADS` budget sets it.
//! * **Memory.** The file is never held whole: beyond the output buffer the
//!   parser keeps `width` blocks and their parsed rows, about
//!   `width × (block + its rows)`.
//! * **Errors.** The result is the one a line-at-a-time reader would give:
//!   the first error in file order wins, whichever block found it.  A
//!   coordinate beyond the storage scalar's safe magnitude
//!   ([`Scalar::MAX_ABS_COORD`], checked on the parsed `f64` before
//!   narrowing) is reported only when the rest of the file parses, as
//!   [`CsvError::OutOfRange`] with its line and column.
//!
//! Every field still goes through `str::parse::<f64>` and then
//! [`Scalar::from_f64`], so the stored coordinates do not depend on the
//! block size or the width.

use kcenter_metric::{FlatPoints, Point, Scalar};
use rayon::prelude::*;
use std::fmt;
use std::fs::File;
use std::io::{self, BufWriter, Read, Write};
use std::path::Path;

/// Bytes read per block.  Big enough that a batch's thread fan-out and the
/// in-order append are small next to the parse, small enough that `width`
/// blocks stay a sliver of the output buffer.
const BLOCK_BYTES: usize = 4 << 20;

/// Options controlling how a CSV file is interpreted.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsvOptions {
    /// Skip this many header lines before parsing data rows.
    pub skip_header_lines: usize,
    /// Ignore this many trailing columns (e.g. a class label).
    pub skip_trailing_columns: usize,
    /// Silently drop columns that fail to parse as numbers instead of
    /// raising an error (useful for mixed categorical/numeric files).
    pub drop_non_numeric_columns: bool,
    /// Field delimiter, a comma by default.
    pub delimiter: char,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self {
            skip_header_lines: 0,
            skip_trailing_columns: 0,
            drop_non_numeric_columns: false,
            delimiter: ',',
        }
    }
}

/// Errors raised while loading points from CSV input.
#[derive(Debug)]
pub enum CsvError {
    /// An I/O error occurred (a line that is not UTF-8 included).
    Io(std::io::Error),
    /// A field could not be parsed as a finite number.
    Parse {
        /// 1-based line number.
        line: usize,
        /// 0-based column index.
        column: usize,
        /// The offending field text.
        field: String,
    },
    /// A row had a different number of usable columns from earlier rows.
    InconsistentDimension {
        /// 1-based line number.
        line: usize,
        /// Number of columns found.
        found: usize,
        /// Number of columns expected.
        expected: usize,
    },
    /// A coordinate exceeds the storage scalar's safe magnitude
    /// ([`Scalar::MAX_ABS_COORD`]): its squared distances could overflow.
    OutOfRange {
        /// 1-based line number.
        line: usize,
        /// 0-based column index.
        column: usize,
        /// The parsed coordinate.
        value: f64,
        /// The storage scalar's limit.
        limit: f64,
    },
    /// No data rows were found.
    Empty,
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "I/O error: {e}"),
            CsvError::Parse {
                line,
                column,
                field,
            } => {
                write!(
                    f,
                    "line {line}, column {column}: cannot parse {field:?} as a finite number"
                )
            }
            CsvError::InconsistentDimension {
                line,
                found,
                expected,
            } => {
                write!(f, "line {line}: found {found} columns, expected {expected}")
            }
            CsvError::OutOfRange {
                line,
                column,
                value,
                limit,
            } => {
                write!(
                    f,
                    "line {line}, column {column}: coordinate {value} exceeds the storage limit {limit:e}"
                )
            }
            CsvError::Empty => write!(f, "no data rows found"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e)
    }
}

impl CsvError {
    /// Moves a block-relative line number to its line in the file.
    fn after_lines(mut self, lines_before: usize) -> Self {
        if let CsvError::Parse { line, .. }
        | CsvError::InconsistentDimension { line, .. }
        | CsvError::OutOfRange { line, .. } = &mut self
        {
            *line += lines_before;
        }
        self
    }
}

/// The error a line reader gives for a line that is not UTF-8.
fn invalid_utf8() -> CsvError {
    CsvError::Io(io::Error::new(
        io::ErrorKind::InvalidData,
        "stream did not contain valid UTF-8",
    ))
}

/// Parses a CSV stream into a flat store at precision `S`, one batch of
/// [`rayon::current_num_threads`] blocks at a time (see the module docs).
pub fn parse_flat<S: Scalar>(
    reader: impl Read,
    options: &CsvOptions,
) -> Result<FlatPoints<S>, CsvError> {
    parse_blocks(reader, options, BLOCK_BYTES, rayon::current_num_threads())
}

/// Loads a CSV file on disk into a flat store at precision `S`.
pub fn load_flat<S: Scalar>(
    path: impl AsRef<Path>,
    options: &CsvOptions,
) -> Result<FlatPoints<S>, CsvError> {
    parse_flat(File::open(path)?, options)
}

/// Parses points from any reader using the given options: [`parse_flat`]
/// at `f64`, one owned [`Point`] per row (so a coordinate beyond `f64`'s
/// storage limit of `1e150` is a [`CsvError::OutOfRange`]).
pub fn parse_points<R: Read>(reader: R, options: &CsvOptions) -> Result<Vec<Point>, CsvError> {
    Ok(parse_flat::<f64>(reader, options)?.to_points())
}

/// Loads points from a CSV file on disk.
pub fn load_points<P: AsRef<Path>>(path: P, options: &CsvOptions) -> Result<Vec<Point>, CsvError> {
    parse_points(File::open(path)?, options)
}

/// [`parse_flat`] with an explicit block size and batch width.
fn parse_blocks<S: Scalar>(
    reader: impl Read,
    options: &CsvOptions,
    block_bytes: usize,
    width: usize,
) -> Result<FlatPoints<S>, CsvError> {
    let mut input = Blocks {
        reader,
        carry: Vec::new(),
        block_bytes,
        done: false,
    };
    let mut batch: Vec<Block<S>> = (0..width.max(1)).map(|_| Block::default()).collect();
    let mut coords = Vec::new();
    // Lines before the next block, the rows' dimension, and the first
    // coordinate beyond the storage limit.
    let mut lines = 0;
    let mut dim = None;
    let mut beyond = None;
    let mut header_left = options.skip_header_lines;
    while !input.done {
        let mut filled = 0;
        let mut read_error = None;
        for block in &mut batch {
            if input.done {
                break;
            }
            read_error = input.next_into(&mut block.bytes).err();
            filled += 1;
            if header_left > 0 {
                let dropped = strip_header(&mut block.bytes, header_left)?;
                header_left -= dropped;
                lines += dropped;
            }
            if read_error.is_some() {
                break;
            }
        }
        batch[..filled]
            .par_iter_mut()
            .for_each(|block| block.parse(options));
        // Append in file order, stopping at the first error.  Each block
        // checked its rows against its own first row; that row is checked
        // here against the file's.
        for block in &mut batch[..filled] {
            if let Some((line, found)) = block.first_row {
                match dim {
                    None => dim = Some(found),
                    Some(expected) if expected != found => {
                        return Err(CsvError::InconsistentDimension {
                            line: lines + line,
                            found,
                            expected,
                        })
                    }
                    Some(_) => {}
                }
            }
            if let Some(e) = block.error.take() {
                return Err(e.after_lines(lines));
            }
            if beyond.is_none() {
                beyond = block.beyond.take().map(|e| e.after_lines(lines));
            }
            coords.extend_from_slice(&block.coords);
            lines += block.lines;
        }
        if let Some(e) = read_error {
            return Err(CsvError::Io(e));
        }
    }
    if let Some(e) = beyond {
        return Err(e);
    }
    let dim = dim.ok_or(CsvError::Empty)?;
    Ok(FlatPoints::from_coords(coords, dim)
        .expect("parsed coordinates are finite and within the storage limit"))
}

/// The input, handed out as blocks of whole lines.
struct Blocks<R> {
    reader: R,
    /// The partial line after the last block's final newline.
    carry: Vec<u8>,
    block_bytes: usize,
    done: bool,
}

impl<R: Read> Blocks<R> {
    /// Refills `block` with the next run of whole lines: the carried-over
    /// partial line and fresh bytes up to `block_bytes` in all (so a reused
    /// buffer never outgrows that), then `block_bytes` more at a time while
    /// no newline has arrived, cut after the last newline.  At the end of
    /// the input the block keeps everything, a final line without a newline
    /// included; on a read error it keeps the whole lines read before it.
    fn next_into(&mut self, block: &mut Vec<u8>) -> io::Result<()> {
        block.clear();
        block.append(&mut self.carry);
        loop {
            let start = block.len();
            let want = if start < self.block_bytes {
                self.block_bytes - start
            } else {
                self.block_bytes
            };
            block.reserve_exact(want);
            match (&mut self.reader).take(want as u64).read_to_end(block) {
                Ok(n) if n < want => {
                    self.done = true;
                    return Ok(());
                }
                Ok(_) => {
                    if let Some(last) = block[start..].iter().rposition(|&b| b == b'\n') {
                        let cut = start + last + 1;
                        self.carry.extend_from_slice(&block[cut..]);
                        block.truncate(cut);
                        return Ok(());
                    }
                }
                Err(e) => {
                    self.done = true;
                    let whole = block.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
                    block.truncate(whole);
                    return Err(e);
                }
            }
        }
    }
}

/// Drops up to `count` leading lines of `block` (header lines, each still
/// required to be UTF-8, as a line reader would) and returns how many it
/// dropped.
fn strip_header(block: &mut Vec<u8>, count: usize) -> Result<usize, CsvError> {
    let mut end = 0;
    let mut dropped = 0;
    for line in block.split_inclusive(|&b| b == b'\n').take(count) {
        std::str::from_utf8(line).map_err(|_| invalid_utf8())?;
        end += line.len();
        dropped += 1;
    }
    block.drain(..end);
    Ok(dropped)
}

/// One block's bytes and what parsing them found, reused from batch to
/// batch.  Line numbers count from the block's first line.
struct Block<S> {
    bytes: Vec<u8>,
    coords: Vec<S>,
    lines: usize,
    /// Line and dimension of the block's first row.
    first_row: Option<(usize, usize)>,
    /// The error that stopped the parse.
    error: Option<CsvError>,
    /// The first coordinate beyond [`Scalar::MAX_ABS_COORD`].
    beyond: Option<CsvError>,
}

impl<S> Default for Block<S> {
    fn default() -> Self {
        Self {
            bytes: Vec::new(),
            coords: Vec::new(),
            lines: 0,
            first_row: None,
            error: None,
            beyond: None,
        }
    }
}

impl<S: Scalar> Block<S> {
    fn parse(&mut self, options: &CsvOptions) {
        self.coords.clear();
        self.lines = 0;
        self.first_row = None;
        self.beyond = None;
        self.error = self.rows(options).err();
    }

    fn rows(&mut self, options: &CsvOptions) -> Result<(), CsvError> {
        // One UTF-8 check for the block; the lines before an invalid one
        // still parse first, since an error among them comes first.
        let (text, valid) = match std::str::from_utf8(&self.bytes) {
            Ok(text) => (text, true),
            Err(e) => {
                let prefix = std::str::from_utf8(&self.bytes[..e.valid_up_to()])
                    .expect("the bytes before valid_up_to are UTF-8");
                (&prefix[..prefix.rfind('\n').map_or(0, |i| i + 1)], false)
            }
        };
        for text_line in text.lines() {
            self.lines += 1;
            let line = self.lines;
            let trimmed = text_line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let usable = match options.skip_trailing_columns {
                0 => usize::MAX,
                skip => trimmed
                    .split(options.delimiter)
                    .count()
                    .saturating_sub(skip),
            };
            let start = self.coords.len();
            for (column, field) in trimmed.split(options.delimiter).take(usable).enumerate() {
                match field.trim().parse::<f64>() {
                    Ok(v) if v.is_finite() => {
                        if v.abs() > S::MAX_ABS_COORD && self.beyond.is_none() {
                            self.beyond = Some(CsvError::OutOfRange {
                                line,
                                column,
                                value: v,
                                limit: S::MAX_ABS_COORD,
                            });
                        }
                        self.coords.push(S::from_f64(v));
                    }
                    _ if options.drop_non_numeric_columns => {}
                    _ => {
                        return Err(CsvError::Parse {
                            line,
                            column,
                            field: field.to_string(),
                        })
                    }
                }
            }
            let found = self.coords.len() - start;
            match self.first_row {
                _ if found == 0 => {}
                None => self.first_row = Some((line, found)),
                Some((_, expected)) if found != expected => {
                    return Err(CsvError::InconsistentDimension {
                        line,
                        found,
                        expected,
                    })
                }
                Some(_) => {}
            }
        }
        if valid {
            Ok(())
        } else {
            Err(invalid_utf8())
        }
    }
}

/// Writes points to a writer as plain CSV (one row per point).
pub fn write_points<W: Write>(writer: W, points: &[Point]) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    for p in points {
        for (i, c) in p.coords().iter().enumerate() {
            if i > 0 {
                w.write_all(b",")?;
            }
            write!(w, "{c}")?;
        }
        w.write_all(b"\n")?;
    }
    w.flush()
}

/// Writes points to a CSV file on disk.
pub fn save_points<P: AsRef<Path>>(path: P, points: &[Point]) -> std::io::Result<()> {
    write_points(File::create(path)?, points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::DatasetSpec;
    use proptest::prelude::*;
    use std::io::{BufRead, BufReader};

    #[test]
    fn parse_simple_rows() {
        let data = "1.0,2.0\n3.5,-4.25\n";
        let pts = parse_points(data.as_bytes(), &CsvOptions::default()).unwrap();
        assert_eq!(pts, vec![Point::xy(1.0, 2.0), Point::xy(3.5, -4.25)]);
    }

    #[test]
    fn parse_skips_header_and_blank_lines() {
        let data = "x,y\n\n1,2\n\n3,4\n";
        let opts = CsvOptions {
            skip_header_lines: 1,
            ..Default::default()
        };
        let pts = parse_points(data.as_bytes(), &opts).unwrap();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn parse_skips_trailing_label_column() {
        let data = "1,2,normal\n3,4,attack\n";
        let opts = CsvOptions {
            skip_trailing_columns: 1,
            ..Default::default()
        };
        let pts = parse_points(data.as_bytes(), &opts).unwrap();
        assert_eq!(pts, vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)]);
    }

    #[test]
    fn parse_can_drop_non_numeric_columns() {
        let data = "tcp,1,2\nudp,3,4\n";
        let opts = CsvOptions {
            drop_non_numeric_columns: true,
            ..Default::default()
        };
        let pts = parse_points(data.as_bytes(), &opts).unwrap();
        assert_eq!(pts, vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)]);
    }

    #[test]
    fn parse_reports_bad_field() {
        let err = parse_points("1,abc\n".as_bytes(), &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CsvError::Parse {
                line: 1,
                column: 1,
                ..
            }
        ));
        assert!(err.to_string().contains("abc"));
    }

    #[test]
    fn parse_reports_inconsistent_dimension() {
        let err = parse_points("1,2\n1,2,3\n".as_bytes(), &CsvOptions::default()).unwrap_err();
        assert!(matches!(
            err,
            CsvError::InconsistentDimension {
                line: 2,
                found: 3,
                expected: 2
            }
        ));
    }

    #[test]
    fn parse_reports_empty_input() {
        let err = parse_points("".as_bytes(), &CsvOptions::default()).unwrap_err();
        assert!(matches!(err, CsvError::Empty));
    }

    #[test]
    fn parse_supports_alternative_delimiters() {
        let opts = CsvOptions {
            delimiter: ';',
            ..Default::default()
        };
        let pts = parse_points("1;2\n3;4\n".as_bytes(), &opts).unwrap();
        assert_eq!(pts.len(), 2);
    }

    #[test]
    fn write_then_parse_round_trips() {
        let pts = vec![Point::xyz(1.0, 2.5, -3.0), Point::xyz(0.0, 0.125, 7.0)];
        let mut buf = Vec::new();
        write_points(&mut buf, &pts).unwrap();
        let parsed = parse_points(buf.as_slice(), &CsvOptions::default()).unwrap();
        assert_eq!(parsed, pts);
    }

    #[test]
    fn save_and_load_round_trips_via_disk() {
        let dir = std::env::temp_dir().join("kcenter-data-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("points.csv");
        let pts = vec![Point::xy(1.0, 2.0), Point::xy(3.0, 4.0)];
        save_points(&path, &pts).unwrap();
        let loaded = load_points(&path, &CsvOptions::default()).unwrap();
        assert_eq!(loaded, pts);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_reports_missing_file() {
        let err = load_points(
            "/nonexistent/definitely/missing.csv",
            &CsvOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, CsvError::Io(_)));
    }

    /// The line-at-a-time reader [`parse_flat`] replaced, followed by the
    /// range check the CLI ran over its rows: the reference `parse_flat`
    /// must match, rows bit for bit and errors in kind and position.
    fn line_loop<S: Scalar>(
        reader: impl Read,
        options: &CsvOptions,
    ) -> Result<FlatPoints<S>, CsvError> {
        let reader = BufReader::new(reader);
        let mut points = Vec::new();
        let mut expected_dim: Option<usize> = None;
        let mut beyond = None;
        for (idx, line) in reader.lines().enumerate() {
            let line = line?;
            if idx < options.skip_header_lines {
                continue;
            }
            let trimmed = line.trim();
            if trimmed.is_empty() {
                continue;
            }
            let fields: Vec<&str> = trimmed.split(options.delimiter).collect();
            let usable = fields.len().saturating_sub(options.skip_trailing_columns);
            let mut coords = Vec::with_capacity(usable);
            for (col, field) in fields[..usable].iter().enumerate() {
                match field.trim().parse::<f64>() {
                    Ok(v) if v.is_finite() => {
                        if v.abs() > S::MAX_ABS_COORD && beyond.is_none() {
                            beyond = Some(CsvError::OutOfRange {
                                line: idx + 1,
                                column: col,
                                value: v,
                                limit: S::MAX_ABS_COORD,
                            });
                        }
                        coords.push(v)
                    }
                    _ if options.drop_non_numeric_columns => continue,
                    _ => {
                        return Err(CsvError::Parse {
                            line: idx + 1,
                            column: col,
                            field: field.to_string(),
                        })
                    }
                }
            }
            if coords.is_empty() {
                continue;
            }
            match expected_dim {
                None => expected_dim = Some(coords.len()),
                Some(d) if d != coords.len() => {
                    return Err(CsvError::InconsistentDimension {
                        line: idx + 1,
                        found: coords.len(),
                        expected: d,
                    })
                }
                _ => {}
            }
            points.push(Point::new(coords));
        }
        if points.is_empty() {
            return Err(CsvError::Empty);
        }
        if let Some(e) = beyond {
            return Err(e);
        }
        Ok(FlatPoints::from_points(&points))
    }

    /// A parse result reduced to what must match exactly: the dimension and
    /// every coordinate's bits (widened to `f64`, which is exact and
    /// injective), or the error's kind and position.
    fn outcome<S: Scalar>(
        result: Result<FlatPoints<S>, CsvError>,
    ) -> Result<(usize, Vec<u64>), String> {
        match result {
            Ok(flat) => Ok((
                flat.dim(),
                flat.coords().iter().map(|c| c.to_f64().to_bits()).collect(),
            )),
            Err(CsvError::Io(e)) => Err(format!("Io({:?})", e.kind())),
            Err(e) => Err(format!("{e:?}")),
        }
    }

    /// Finite field texts, some padded with ASCII or non-ASCII whitespace.
    const NUMBERS: &[&str] = &[
        "1",
        "-2.5",
        " 3e2 ",
        "\u{a0}4.25",
        "0.1\u{2003}",
        "-0",
        "7\t",
        "1e-320",
        "0.30000000000000004",
        "\u{3000}-6.02e13",
        "1e15",
        "-1e15",
    ];
    /// Non-finite and malformed field texts.
    const BAD: &[&str] = &["abc", "", "nan", "inf", "1e400", "1.5.2", "normal"];
    const DELIMITERS: &[char] = &[',', ';', '\t', '§', '→'];
    const ENDINGS: &[&str] = &["\n", "\r\n", "\n", "\u{85}\n"];

    /// The text of one generated field: mostly a finite number, rarely one
    /// just past the f32 or the f64 storage limit, and in noisy inputs
    /// sometimes a bad field.
    fn field_text(pick: u8, noisy: bool) -> &'static str {
        match pick {
            250 => "1.00000001e15",
            249 => "-1e151",
            240.. if noisy => BAD[usize::from(pick - 240) % BAD.len()],
            _ => NUMBERS[usize::from(pick) % NUMBERS.len()],
        }
    }

    /// One generated line: a kind selector, field picks, and an ending.
    type LineSpec = (u8, Vec<u8>, u8);

    /// Renders generated lines into CSV bytes.  Lines are blank,
    /// whitespace-only, or hold `dim` fields plus `labels` trailing labels;
    /// a noisy input also has ragged rows, bad fields and lines that are
    /// not UTF-8.
    fn render(
        lines: &[LineSpec],
        dim: usize,
        labels: usize,
        delimiter: char,
        noisy: bool,
        final_newline: bool,
    ) -> Vec<u8> {
        let mut out = Vec::new();
        for (i, (kind, picks, ending)) in lines.iter().enumerate() {
            let kind = match kind % 24 {
                2..=4 if !noisy => 5,
                k => k,
            };
            let fields = match kind {
                2 => dim + 1,
                3 => dim - 1,
                _ => dim,
            };
            match kind {
                0 => {}
                1 => out.extend_from_slice(" \t\u{3000}".as_bytes()),
                _ => {
                    for f in 0..fields + labels {
                        if f > 0 {
                            out.extend_from_slice(delimiter.to_string().as_bytes());
                        }
                        let text = match picks.get(f) {
                            _ if f >= fields => "label",
                            Some(&pick) => field_text(pick, noisy),
                            None => NUMBERS[f % NUMBERS.len()],
                        };
                        out.extend_from_slice(text.as_bytes());
                    }
                    if kind == 4 {
                        out.extend_from_slice(b"\xff\xfe");
                    }
                }
            }
            if final_newline || i + 1 < lines.len() {
                out.extend_from_slice(ENDINGS[usize::from(*ending) % ENDINGS.len()].as_bytes());
            }
        }
        out
    }

    fn line_spec() -> impl Strategy<Value = LineSpec> {
        (
            any::<u16>().prop_map(|k| k as u8),
            prop::collection::vec(any::<u16>().prop_map(|p| (p % 251) as u8), 0..8),
            0u8..8,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(400))]

        #[test]
        fn block_parser_matches_the_line_loop(
            lines in prop::collection::vec(line_spec(), 0..40),
            shape in (1usize..5, 0usize..3, 0usize..DELIMITERS.len(), 0usize..3),
            flags in (any::<bool>(), any::<bool>(), any::<bool>(), 0u8..4),
            block_bytes in 1usize..24,
            width in 1usize..5,
        ) {
            let (dim, labels, delimiter, header) = shape;
            let (noisy, drop, final_newline, extra_skip) = flags;
            let options = CsvOptions {
                skip_header_lines: header,
                skip_trailing_columns: labels + (extra_skip == 0) as usize,
                drop_non_numeric_columns: drop,
                delimiter: DELIMITERS[delimiter],
            };
            let input = render(&lines, dim, labels, options.delimiter, noisy, final_newline);
            let expected64 = outcome(line_loop::<f64>(&input[..], &options));
            prop_assert_eq!(
                outcome(parse_blocks::<f64>(&input[..], &options, block_bytes, width)),
                expected64.clone(),
                "f64, block {} width {} input {:?}", block_bytes, width, String::from_utf8_lossy(&input)
            );
            prop_assert_eq!(
                outcome(parse_flat::<f64>(&input[..], &options)),
                expected64
            );
            prop_assert_eq!(
                outcome(parse_blocks::<f32>(&input[..], &options, block_bytes, width)),
                outcome(line_loop::<f32>(&input[..], &options)),
                "f32, block {} width {} input {:?}", block_bytes, width, String::from_utf8_lossy(&input)
            );
        }
    }

    #[test]
    fn the_first_error_in_file_order_wins_across_blocks() {
        let opts = CsvOptions::default();
        // A bad field in an early block beats a later ragged row, a later
        // invalid line and an earlier out-of-range coordinate.
        let input = b"1,2\n1e200,0\n3,x\n4,5,6\n\xff\n";
        for (block_bytes, width) in [(1, 1), (4, 2), (5, 3), (BLOCK_BYTES, 8)] {
            let err = parse_blocks::<f64>(&input[..], &opts, block_bytes, width).unwrap_err();
            assert!(
                matches!(
                    err,
                    CsvError::Parse {
                        line: 3,
                        column: 1,
                        ..
                    }
                ),
                "block {block_bytes} width {width}: {err}"
            );
        }
        // With nothing else wrong the range error surfaces, with its position.
        let err = parse_flat::<f64>(&b"1,2\n1e200,0\n"[..], &opts).unwrap_err();
        assert!(matches!(
            err,
            CsvError::OutOfRange {
                line: 2,
                column: 0,
                ..
            }
        ));
        assert!(err.to_string().contains("line 2, column 0"));
        // A line that is not UTF-8 is the same I/O error a line reader gives.
        let err = parse_blocks::<f64>(&b"1,2\n\xff\n3,x\n"[..], &opts, 2, 2).unwrap_err();
        assert!(matches!(err, CsvError::Io(ref e) if e.kind() == io::ErrorKind::InvalidData));
    }

    #[test]
    fn a_read_error_comes_after_the_whole_lines_before_it() {
        /// Yields its bytes, then fails.
        struct Failing<'a>(&'a [u8]);
        impl Read for Failing<'_> {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                if self.0.is_empty() {
                    return Err(io::Error::other("disk gone"));
                }
                let n = buf.len().min(self.0.len());
                buf[..n].copy_from_slice(&self.0[..n]);
                self.0 = &self.0[n..];
                Ok(n)
            }
        }
        let opts = CsvOptions::default();
        // The partial last line is never parsed: the read error wins.
        let err = parse_blocks::<f64>(Failing(b"1,2\n3,4\n5,x"), &opts, 3, 2).unwrap_err();
        assert!(matches!(err, CsvError::Io(ref e) if e.kind() == io::ErrorKind::Other));
        // An error on a whole line before it wins over the read error.
        let err = parse_blocks::<f64>(Failing(b"1,2\n3,x\n5,6"), &opts, 3, 2).unwrap_err();
        assert!(matches!(err, CsvError::Parse { line: 2, .. }));
    }

    /// A GAU CSV on disk, `n` rows at d = 3.
    fn gau_csv(name: &str, n: usize) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("kcenter-data-csv-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(name);
        save_points(&path, &DatasetSpec::Gau { n, k_prime: 7 }.generate(3)).unwrap();
        path
    }

    #[test]
    fn load_flat_f32_equals_narrowing_the_f64_rows() {
        let path = gau_csv("narrow.csv", 5_000);
        let opts = CsvOptions::default();
        let narrow = load_flat::<f32>(&path, &opts).unwrap();
        let reference = FlatPoints::<f32>::from_points(&load_points(&path, &opts).unwrap());
        assert_eq!(
            outcome(Ok::<_, CsvError>(narrow)),
            outcome(Ok::<_, CsvError>(reference))
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_flat_is_identical_at_every_thread_budget() {
        // `parse_flat` passes the thread budget as the width; 64 KiB blocks
        // split this ~1 MB file into several batches at every width.
        let path = gau_csv("widths.csv", 20_000);
        let opts = CsvOptions::default();
        let reference = outcome(load_flat::<f64>(&path, &opts));
        assert_eq!(
            reference.as_ref().map(|(d, c)| (*d, c.len())),
            Ok((3, 60_000))
        );
        for width in [1, 2, 3, 8] {
            let file = File::open(&path).unwrap();
            assert_eq!(
                outcome(parse_blocks::<f64>(file, &opts, 1 << 16, width)),
                reference,
                "width {width}"
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// `write_points` as it was before it stopped allocating per row: the
    /// byte oracle.
    fn joined_rows(points: &[Point]) -> Vec<u8> {
        let mut out = Vec::new();
        for p in points {
            let row: Vec<String> = p.coords().iter().map(|c| format!("{c}")).collect();
            writeln!(out, "{}", row.join(",")).unwrap();
        }
        out
    }

    #[test]
    fn write_points_bytes_are_unchanged_for_every_family() {
        let n = 300;
        let specs = [
            DatasetSpec::Unif { n },
            DatasetSpec::Gau { n, k_prime: 5 },
            DatasetSpec::Unb { n, k_prime: 5 },
            DatasetSpec::PokerHand { n },
            DatasetSpec::KddCup { n },
            DatasetSpec::Exp { n, k_prime: 6 },
            DatasetSpec::Dup { n, distinct: 9 },
            DatasetSpec::PlantedOutliers {
                n,
                k_prime: 5,
                outliers: 12,
            },
            DatasetSpec::HighDim {
                n,
                k_prime: 3,
                dim: 64,
            },
        ];
        for spec in specs {
            let points = spec.generate(11);
            let mut written = Vec::new();
            write_points(&mut written, &points).unwrap();
            assert_eq!(written, joined_rows(&points), "{}", spec.family());
        }
    }
}
