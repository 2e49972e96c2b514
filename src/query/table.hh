/**
 * @file
 * Result table of a trace query: a small typed column/row container
 * with text, CSV and JSON renderers. Keeping cell values typed (not
 * pre-formatted strings) lets the CSV/JSON emitters print numbers as
 * numbers and lets tests compare results exactly.
 */

#ifndef QUERY_TABLE_HH
#define QUERY_TABLE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace supmon
{
namespace query
{

/** One table cell: text, unsigned integer, or real. */
struct Value
{
    enum class Kind
    {
        Text,
        Int,
        Real,
    };

    Kind kind = Kind::Text;
    std::string text;
    std::uint64_t integer = 0;
    double real = 0.0;

    static Value
    str(std::string s)
    {
        Value v;
        v.kind = Kind::Text;
        v.text = std::move(s);
        return v;
    }

    static Value
    count(std::uint64_t n)
    {
        Value v;
        v.kind = Kind::Int;
        v.integer = n;
        return v;
    }

    static Value
    number(double d)
    {
        Value v;
        v.kind = Kind::Real;
        v.real = d;
        return v;
    }

    /** Render for the text/CSV emitters. */
    std::string toString() const;
};

/** Output format of a rendered table. */
enum class OutputFormat
{
    Text,
    Csv,
    Json,
};

/** Parse "text" / "csv" / "json"; false on anything else. */
bool parseOutputFormat(const std::string &name, OutputFormat &fmt);

struct Table
{
    std::vector<std::string> columns;
    std::vector<std::vector<Value>> rows;

    /** Append a row built in place from @p cells (moved in, where an
     *  initializer list would copy each one). */
    template <typename... Cells>
    void
    emplaceRow(Cells &&...cells)
    {
        std::vector<Value> &row = rows.emplace_back();
        row.reserve(sizeof...(cells));
        (row.push_back(std::forward<Cells>(cells)), ...);
    }

    /** Column-aligned plain text with a header row. */
    std::string toText() const;

    /** RFC 4180 CSV (fields quoted when needed). */
    std::string toCsv() const;

    /** JSON array of objects, one per row. */
    std::string toJson() const;

    std::string render(OutputFormat fmt) const;
};

} // namespace query
} // namespace supmon

#endif // QUERY_TABLE_HH
