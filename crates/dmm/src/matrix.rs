//! The 2-D bank×column matrix view of DMM memory, used to render the
//! paper's Figures 1–3 style depictions (rows = banks, contiguous address
//! space laid out column-major).

use crate::BankModel;
use std::fmt::Write as _;

/// Annotation of one memory cell for rendering.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatrixCell {
    /// Address not populated.
    #[default]
    Empty,
    /// Element owned (read) by a thread, with an alignment classification.
    Owned {
        /// Thread (lane) that reads this element during the merge scan.
        thread: usize,
        /// Classification mirroring the paper's figure colours.
        class: CellClass,
    },
}

/// The paper's figure colour classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellClass {
    /// Green: aligned — read in step `j` while residing in bank `s + j`.
    Aligned,
    /// Red: misaligned — inside the chosen `E` banks but read off-step.
    Misaligned,
    /// Gray: filler in the other `w − E` banks; never contributes.
    Filler,
}

/// A `w × columns` matrix of annotated cells over a [`BankModel`].
#[derive(Debug, Clone)]
pub struct BankMatrix {
    model: BankModel,
    columns: usize,
    cells: Vec<MatrixCell>, // row-major: bank * columns + column
}

impl BankMatrix {
    /// An empty matrix with `columns` columns.
    #[must_use]
    pub fn new(model: BankModel, columns: usize) -> Self {
        Self { model, columns, cells: vec![MatrixCell::Empty; model.banks() * columns] }
    }

    /// Annotate the cell holding `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` falls outside the matrix.
    pub fn set_addr(&mut self, addr: usize, cell: MatrixCell) {
        let bank = self.model.bank_of(addr);
        let col = self.model.column_of(addr);
        assert!(col < self.columns, "address {addr} beyond column {col} of {}", self.columns);
        self.cells[bank * self.columns + col] = cell;
    }

    /// Cell at `(bank, column)`.
    #[must_use]
    fn get(&self, bank: usize, column: usize) -> MatrixCell {
        self.cells[bank * self.columns + column]
    }

    /// Count cells in a class.
    #[must_use]
    pub fn count_class(&self, class: CellClass) -> usize {
        self.cells
            .iter()
            .filter(|c| matches!(c, MatrixCell::Owned { class: k, .. } if *k == class))
            .count()
    }

    /// Render as ASCII in the paper's figure style: one row per bank,
    /// each populated cell showing its owning thread, with a class marker
    /// (`=` aligned, `!` misaligned, `.` filler).
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        let width = self
            .cells
            .iter()
            .filter_map(|c| match c {
                MatrixCell::Owned { thread, .. } => Some(decimal_width(*thread)),
                MatrixCell::Empty => None,
            })
            .max()
            .unwrap_or(1);
        for bank in 0..self.model.banks() {
            let _ = write!(out, "{bank:>3}: ");
            for col in 0..self.columns {
                match self.get(bank, col) {
                    MatrixCell::Empty => {
                        let _ = write!(out, " {:>w$} ", "-", w = width + 1);
                    }
                    MatrixCell::Owned { thread, class } => {
                        let mark = match class {
                            CellClass::Aligned => '=',
                            CellClass::Misaligned => '!',
                            CellClass::Filler => '.',
                        };
                        let _ = write!(out, " {thread:>width$}{mark} ");
                    }
                }
            }
            out.push('\n');
        }
        out
    }
}

fn decimal_width(mut n: usize) -> usize {
    let mut w = 1;
    while n >= 10 {
        n /= 10;
        w += 1;
    }
    w
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_get_roundtrip() {
        let mut m = BankMatrix::new(BankModel::new(16), 4);
        m.set_addr(17, MatrixCell::Owned { thread: 3, class: CellClass::Aligned });
        // addr 17 → bank 1, column 1.
        assert!(matches!(m.get(1, 1), MatrixCell::Owned { thread: 3, .. }));
        assert_eq!(m.get(0, 0), MatrixCell::Empty);
    }

    #[test]
    fn class_counting() {
        let mut m = BankMatrix::new(BankModel::new(8), 2);
        m.set_addr(0, MatrixCell::Owned { thread: 0, class: CellClass::Aligned });
        m.set_addr(1, MatrixCell::Owned { thread: 0, class: CellClass::Aligned });
        m.set_addr(2, MatrixCell::Owned { thread: 1, class: CellClass::Filler });
        assert_eq!(m.count_class(CellClass::Aligned), 2);
        assert_eq!(m.count_class(CellClass::Filler), 1);
        assert_eq!(m.count_class(CellClass::Misaligned), 0);
    }

    #[test]
    fn render_contains_all_banks() {
        let mut m = BankMatrix::new(BankModel::new(4), 2);
        m.set_addr(5, MatrixCell::Owned { thread: 12, class: CellClass::Misaligned });
        let r = m.render();
        assert_eq!(r.lines().count(), 4);
        assert!(r.contains("12!"));
    }

    #[test]
    #[should_panic(expected = "beyond column")]
    fn out_of_range_addr_panics() {
        let mut m = BankMatrix::new(BankModel::new(4), 1);
        m.set_addr(4, MatrixCell::Empty);
    }

    #[test]
    fn decimal_width_boundaries() {
        assert_eq!(decimal_width(0), 1);
        assert_eq!(decimal_width(9), 1);
        assert_eq!(decimal_width(10), 2);
        assert_eq!(decimal_width(99), 2);
        assert_eq!(decimal_width(100), 3);
    }
}
