/**
 * @file
 * Minimal aligned-table and CSV writers for the benchmark harness, plus
 * the text sparkline the CLI and examples draw run dynamics with.
 *
 * Every bench binary prints the paper's rows/series through this class so
 * output formatting stays uniform across experiments.
 */

#ifndef CIDRE_STATS_TABLE_H
#define CIDRE_STATS_TABLE_H

#include <initializer_list>
#include <ostream>
#include <string>
#include <vector>

namespace cidre::stats {

/** A simple column-aligned text table that can also dump itself as CSV. */
class Table
{
  public:
    /** Create a table with the given column headers. */
    explicit Table(std::vector<std::string> headers);
    Table(std::initializer_list<std::string> headers);

    /** Append a pre-formatted row; must match the header count. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format doubles with @p precision decimal places. */
    void addRow(const std::string &label, const std::vector<double> &values,
                int precision = 2);

    std::size_t rows() const { return rows_.size(); }
    std::size_t columns() const { return headers_.size(); }

    /** Cell accessor (for tests). */
    const std::string &cell(std::size_t row, std::size_t col) const;

    /** Print with aligned columns. */
    void print(std::ostream &out) const;

    /** Dump as RFC-4180-ish CSV (quotes cells containing commas). */
    void writeCsv(std::ostream &out) const;

    /** Write CSV to a file path; throws on I/O failure. */
    void writeCsvFile(const std::string &path) const;

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with fixed precision (helper for bench binaries). */
std::string formatFixed(double value, int precision = 2);

/**
 * Render @p values as a unicode block sparkline of at most @p width
 * characters, scaled to the largest value (negative values draw as the
 * lowest block).  More values than @p width are split into contiguous
 * runs, each drawn as its maximum.  No values or a zero width render
 * as "".
 */
std::string sparkline(const std::vector<double> &values, std::size_t width);

} // namespace cidre::stats

#endif // CIDRE_STATS_TABLE_H
