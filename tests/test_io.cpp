#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "io/csv.hpp"
#include "io/experiment_record.hpp"
#include "io/table_printer.hpp"
#include "support/rng.hpp"

namespace sea {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

TEST(TablePrinter, FormatsAlignedColumns) {
  TablePrinter t({"dataset", "CPU time (seconds)"});
  t.AddRow({"IOC72a", TablePrinter::Num(18.6697)});
  t.AddRow({"IO72b", TablePrinter::Num(438.3519)});
  std::ostringstream os;
  t.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("IOC72a"), std::string::npos);
  EXPECT_NE(out.find("438.3519"), std::string::npos);
  EXPECT_NE(out.find("---"), std::string::npos);
  // Header, rule, two rows.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);
}

TEST(TablePrinter, NumAndIntHelpers) {
  EXPECT_EQ(TablePrinter::Num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::Num(2.0, 4), "2.0000");
  EXPECT_EQ(TablePrinter::Int(-42), "-42");
}

TEST(TablePrinter, RejectsRaggedRows) {
  TablePrinter t({"a", "b"});
  EXPECT_THROW(t.AddRow({"only-one"}), InvalidArgument);
}

TEST(Csv, RoundTripWithQuoting) {
  const std::string path = TempPath("sea_test_quoting.csv");
  // The last row's note holds both commas and quotes, as free text may.
  const std::string note = "paper says \"fast\", we measure slower";
  WriteCsv(path, {"name", "note"},
           {{"a", "plain"},
            {"b", "has,comma"},
            {"c", "has \"quotes\""},
            {"d,with,commas", note}});
  const auto rows = ReadCsv(path);
  ASSERT_EQ(rows.size(), 5u);
  EXPECT_EQ(rows[0][1], "note");
  EXPECT_EQ(rows[2][1], "has,comma");
  EXPECT_EQ(rows[3][1], "has \"quotes\"");
  ASSERT_EQ(rows[4].size(), 2u);  // the note did not shear the row
  EXPECT_EQ(rows[4][0], "d,with,commas");
  EXPECT_EQ(rows[4][1], note);
  std::remove(path.c_str());
}

TEST(Csv, MatrixRoundTrip) {
  Rng rng(1);
  DenseMatrix m(7, 5);
  for (double& v : m.Flat()) v = rng.Uniform(-100.0, 100.0);
  const std::string path = TempPath("sea_test_matrix.csv");
  WriteMatrixCsv(path, m);
  const auto back = ReadMatrixCsv(path);
  ASSERT_EQ(back.rows(), 7u);
  ASSERT_EQ(back.cols(), 5u);
  EXPECT_LT(back.MaxAbsDiff(m), 1e-12);
  std::remove(path.c_str());
}

TEST(Csv, ReadMissingFileThrows) {
  EXPECT_THROW(ReadCsv("/nonexistent/definitely/missing.csv"),
               InvalidArgument);
}

// Writes raw CSV text to a temp file and returns the path.
std::string WriteFixture(const char* name, const char* text) {
  const std::string path = TempPath(name);
  std::ofstream f(path);
  f << text;
  return path;
}

// Expects fn() to throw InvalidArgument whose message contains every
// fragment — the errors must name the file and the offending cell.
template <typename Fn>
void ExpectThrowContaining(Fn fn, std::initializer_list<const char*> parts) {
  try {
    fn();
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    for (const char* part : parts)
      EXPECT_NE(what.find(part), std::string::npos)
          << "missing '" << part << "' in: " << what;
  }
}

TEST(Csv, RejectsNanCellNamingLocation) {
  const std::string path =
      WriteFixture("sea_test_nan_cell.csv", "1,2\n3,nan\n");
  ExpectThrowContaining([&] { ReadMatrixCsv(path); },
                        {"non-finite", "nan", "row 2", "column 2"});
  std::remove(path.c_str());
}

TEST(Csv, RejectsInfCellNamingLocation) {
  const std::string path =
      WriteFixture("sea_test_inf_cell.csv", "inf,2\n3,4\n");
  ExpectThrowContaining([&] { ReadMatrixCsv(path); },
                        {"non-finite", "row 1", "column 1"});
  std::remove(path.c_str());
}

TEST(Csv, RejectsGarbageCellNamingLocation) {
  const std::string path =
      WriteFixture("sea_test_garbage_cell.csv", "1,2\n3,4x\n");
  ExpectThrowContaining([&] { ReadMatrixCsv(path); },
                        {"malformed", "4x", "row 2", "column 2"});
  std::remove(path.c_str());
}

TEST(Csv, RejectsRaggedRowsNamingWidths) {
  const std::string path =
      WriteFixture("sea_test_ragged.csv", "1,2,3\n4,5\n");
  ExpectThrowContaining(
      [&] { ReadMatrixCsv(path); },
      {"ragged", "row 2", "2 cells", "expected 3"});
  std::remove(path.c_str());
}

TEST(Csv, RejectsEmptyCell) {
  const std::string path =
      WriteFixture("sea_test_empty_cell.csv", "1,\n3,4\n");
  ExpectThrowContaining([&] { ReadMatrixCsv(path); },
                        {"empty cell", "row 1", "column 2"});
  std::remove(path.c_str());
}

TEST(Csv, ReadVectorAcceptsColumnAndRowLayouts) {
  const std::string col = WriteFixture("sea_test_vec_col.csv", "1\n2\n3\n");
  const std::string row = WriteFixture("sea_test_vec_row.csv", "1,2,3\n");
  const std::vector<double> want{1.0, 2.0, 3.0};
  EXPECT_EQ(ReadVectorCsv(col), want);
  EXPECT_EQ(ReadVectorCsv(row), want);
  std::remove(col.c_str());
  std::remove(row.c_str());
}

TEST(Csv, ReadVectorRejectsBadCellNamingLocation) {
  const std::string path =
      WriteFixture("sea_test_vec_bad.csv", "1\nbogus\n");
  ExpectThrowContaining([&] { ReadVectorCsv(path); },
                        {"malformed", "bogus", "row 2"});
  std::remove(path.c_str());
}

TEST(ExperimentLog, PrintsPaperComparison) {
  ExperimentLog log;
  log.Add("table1", "1000x1000", "cpu_seconds", 12.5, 483.2065);
  log.Add("table6", "IO72b", "speedup_p2", 1.9, 1.93, "simulated");
  std::ostringstream os;
  log.Print(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("table1"), std::string::npos);
  EXPECT_NE(out.find("483.2065"), std::string::npos);
  EXPECT_NE(out.find("simulated"), std::string::npos);
  // Ratio column present for rows with paper values.
  EXPECT_NE(out.find("measured/paper"), std::string::npos);
}

TEST(ExperimentLog, HandlesMissingPaperValue) {
  ExperimentLog log;
  log.Add("table3", "S2000", "cpu_seconds", 1.0);
  std::ostringstream os;
  log.Print(os);
  EXPECT_NE(os.str().find('-'), std::string::npos);
}

TEST(Csv, EscapeQuotesOnlyWhenNeeded) {
  EXPECT_EQ(CsvEscape("plain"), "plain");
  EXPECT_EQ(CsvEscape("a,b"), "\"a,b\"");
  EXPECT_EQ(CsvEscape("say \"hi\""), "\"say \"\"hi\"\"\"");
}

}  // namespace
}  // namespace sea
