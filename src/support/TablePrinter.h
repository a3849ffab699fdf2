//===- TablePrinter.h - Aligned text tables for bench output ----*- C++ -*-===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A tiny helper that renders rows of strings as an aligned, ruled text
/// table. The benchmark harnesses use it to print the paper's tables.
///
//===----------------------------------------------------------------------===//

#ifndef EARTHCC_SUPPORT_TABLEPRINTER_H
#define EARTHCC_SUPPORT_TABLEPRINTER_H

#include <ostream>
#include <string>
#include <vector>

namespace earthcc {

/// Accumulates rows of cells and prints them with aligned columns.
class TablePrinter {
public:
  explicit TablePrinter(std::vector<std::string> Header);

  /// Appends one data row; short rows are padded with empty cells.
  void addRow(std::vector<std::string> Cells);

  /// Appends a horizontal rule between the rows added before and after. A
  /// trailing rule is not printed twice: the closing border replaces it.
  void addRule();

  /// Renders the table to \p OS.
  void print(std::ostream &OS) const;

  /// Renders the table to a string (handy in tests).
  std::string str() const;

  /// Formats a double with \p Precision digits after the decimal point.
  static std::string fmt(double Value, int Precision = 2);

private:
  struct Row {
    bool IsRule = false;
    std::vector<std::string> Cells;
  };

  std::vector<std::string> Header;
  std::vector<Row> Rows;
};

} // namespace earthcc

#endif // EARTHCC_SUPPORT_TABLEPRINTER_H
