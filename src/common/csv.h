#ifndef PERFXPLAIN_COMMON_CSV_H_
#define PERFXPLAIN_COMMON_CSV_H_

#include <string>
#include <vector>

#include "common/status.h"

namespace perfxplain {

/// Minimal RFC-4180-style CSV support used for persisting execution logs.
/// Fields containing commas, quotes or newlines are quoted; embedded quotes
/// are doubled. A quoted field may span lines.

/// Encodes one field; `force_quotes` quotes it even when it needs none.
std::string CsvEncodeField(const std::string& field, bool force_quotes = false);

/// Encodes one row.
std::string CsvEncodeRow(const std::vector<std::string>& fields);

/// Parses one physical line into fields. Fails on unterminated quotes.
Result<std::vector<std::string>> CsvParseRow(const std::string& line);

/// Encodes all rows as one text blob, one '\n'-terminated line per row
/// (the in-memory twin of CsvWriteFile, used by the checkpoint writer to
/// checksum the bytes before they touch disk).
std::string CsvEncodeRows(const std::vector<std::vector<std::string>>& rows);

/// Parses a whole CSV text blob. Blank lines between rows are skipped;
/// errors carry `context` (a path or description) and the number of the
/// line the failing row starts on. When `quoted` is non-null it receives,
/// per field, whether the field was quoted.
Result<std::vector<std::vector<std::string>>> CsvParseText(
    const std::string& text, const std::string& context,
    std::vector<std::vector<bool>>* quoted = nullptr);

/// Writes all rows to `path`, overwriting it.
Status CsvWriteFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows);

/// Reads all rows from `path`, as CsvParseText.
Result<std::vector<std::vector<std::string>>> CsvReadFile(
    const std::string& path,
    std::vector<std::vector<bool>>* quoted = nullptr);

}  // namespace perfxplain

#endif  // PERFXPLAIN_COMMON_CSV_H_
