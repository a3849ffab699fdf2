//===- TablePrinter.cpp ---------------------------------------------------===//
//
// Part of the earthcc project.
//
//===----------------------------------------------------------------------===//

#include "support/TablePrinter.h"

#include <algorithm>
#include <iomanip>
#include <sstream>

using namespace earthcc;

TablePrinter::TablePrinter(std::vector<std::string> Header)
    : Header(std::move(Header)) {}

void TablePrinter::addRow(std::vector<std::string> Cells) {
  Cells.resize(Header.size());
  Rows.push_back({/*IsRule=*/false, std::move(Cells)});
}

void TablePrinter::addRule() { Rows.push_back({/*IsRule=*/true, {}}); }

std::string TablePrinter::fmt(double Value, int Precision) {
  std::ostringstream OS;
  OS << std::fixed << std::setprecision(Precision) << Value;
  return OS.str();
}

void TablePrinter::print(std::ostream &OS) const {
  std::vector<size_t> Widths(Header.size());
  for (size_t I = 0; I != Header.size(); ++I)
    Widths[I] = Header[I].size();
  for (const Row &R : Rows)
    for (size_t I = 0; I != R.Cells.size(); ++I)
      Widths[I] = std::max(Widths[I], R.Cells[I].size());

  auto printRule = [&] {
    for (size_t W : Widths)
      OS << '+' << std::string(W + 2, '-');
    OS << "+\n";
  };
  auto printCells = [&](const std::vector<std::string> &Cells) {
    for (size_t I = 0; I != Widths.size(); ++I) {
      const std::string &Cell = I < Cells.size() ? Cells[I] : std::string();
      OS << "| " << Cell << std::string(Widths[I] - Cell.size() + 1, ' ');
    }
    OS << "|\n";
  };

  printRule();
  printCells(Header);
  printRule();
  // A trailing rule is dropped: the closing border replaces it.
  size_t End = Rows.size();
  if (End && Rows[End - 1].IsRule)
    --End;
  for (size_t I = 0; I != End; ++I) {
    if (Rows[I].IsRule)
      printRule();
    else
      printCells(Rows[I].Cells);
  }
  printRule();
}

std::string TablePrinter::str() const {
  std::ostringstream OS;
  print(OS);
  return OS.str();
}
