#include "stats/table.h"

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iomanip>
#include <sstream>
#include <stdexcept>

namespace cidre::stats {

Table::Table(std::vector<std::string> headers)
    : headers_(std::move(headers))
{
    if (headers_.empty())
        throw std::invalid_argument("Table: need at least one column");
}

Table::Table(std::initializer_list<std::string> headers)
    : Table(std::vector<std::string>(headers))
{
}

void
Table::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headers_.size())
        throw std::invalid_argument("Table::addRow: column count mismatch");
    rows_.push_back(std::move(cells));
}

void
Table::addRow(const std::string &label, const std::vector<double> &values,
              int precision)
{
    if (values.size() + 1 != headers_.size())
        throw std::invalid_argument("Table::addRow: column count mismatch");
    std::vector<std::string> cells;
    cells.reserve(headers_.size());
    cells.push_back(label);
    for (const double v : values)
        cells.push_back(formatFixed(v, precision));
    rows_.push_back(std::move(cells));
}

const std::string &
Table::cell(std::size_t row, std::size_t col) const
{
    return rows_.at(row).at(col);
}

void
Table::print(std::ostream &out) const
{
    std::vector<std::size_t> widths(headers_.size());
    for (std::size_t c = 0; c < headers_.size(); ++c)
        widths[c] = headers_[c].size();
    for (const auto &row : rows_)
        for (std::size_t c = 0; c < row.size(); ++c)
            widths[c] = std::max(widths[c], row[c].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            out << std::left << std::setw(static_cast<int>(widths[c]))
                << row[c];
            out << (c + 1 < row.size() ? "  " : "");
        }
        out << '\n';
    };

    print_row(headers_);
    std::size_t total = 0;
    for (const std::size_t w : widths)
        total += w + 2;
    out << std::string(total > 2 ? total - 2 : total, '-') << '\n';
    for (const auto &row : rows_)
        print_row(row);
}

namespace {

std::string
csvEscape(const std::string &cell)
{
    if (cell.find_first_of(",\"\n") == std::string::npos)
        return cell;
    std::string out = "\"";
    for (const char ch : cell) {
        if (ch == '"')
            out += '"';
        out += ch;
    }
    out += '"';
    return out;
}

} // namespace

void
Table::writeCsv(std::ostream &out) const
{
    auto write_row = [&](const std::vector<std::string> &row) {
        for (std::size_t c = 0; c < row.size(); ++c) {
            if (c)
                out << ',';
            out << csvEscape(row[c]);
        }
        out << '\n';
    };
    write_row(headers_);
    for (const auto &row : rows_)
        write_row(row);
}

void
Table::writeCsvFile(const std::string &path) const
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("Table: cannot open " + path);
    writeCsv(out);
    if (!out)
        throw std::runtime_error("Table: write failed for " + path);
}

std::string
formatFixed(double value, int precision)
{
    std::ostringstream out;
    out << std::fixed << std::setprecision(precision) << value;
    return out.str();
}

std::string
sparkline(const std::vector<double> &values, std::size_t width)
{
    if (values.empty() || width == 0)
        return "";
    static const char *kLevels[] = {"▁", "▂", "▃", "▄",
                                    "▅", "▆", "▇", "█"};
    const double top = *std::max_element(values.begin(), values.end());
    const std::size_t cells = std::min(width, values.size());
    std::string out;
    for (std::size_t cell = 0; cell < cells; ++cell) {
        // cells <= values.size(), so every run holds at least one value.
        const auto first = values.begin() +
            static_cast<std::ptrdiff_t>(cell * values.size() / cells);
        const auto last = values.begin() +
            static_cast<std::ptrdiff_t>((cell + 1) * values.size() / cells);
        const double value = *std::max_element(first, last);
        const int level = top <= 0.0 || value <= 0.0
            ? 0
            : std::min(7, static_cast<int>(value / top * 7.999));
        out += kLevels[level];
    }
    return out;
}

} // namespace cidre::stats
