#include "common/csv.h"

#include <algorithm>
#include <fstream>
#include <sstream>

namespace perfxplain {

namespace {

/// Splits `text` into rows of fields. A line break ends a row unless a
/// quoted field is open; blank lines are skipped. `quoted`, when non-null,
/// receives whether each field was quoted. An unterminated quote fails,
/// with *error_line set to the line it opened on.
Result<std::vector<std::vector<std::string>>> ParseRows(
    const std::string& text, std::vector<std::vector<bool>>* quoted,
    std::size_t* error_line) {
  std::vector<std::vector<std::string>> rows;
  std::vector<std::string> fields;
  std::vector<bool> flags;
  std::string field;
  bool in_quotes = false;
  bool was_quoted = false;
  std::size_t quote_at = 0;  // offset of the last opening quote
  // A line break past the end closes the last row.
  for (std::size_t i = 0; i <= text.size(); ++i) {
    const char c = i < text.size() ? text[i] : '\n';
    if (in_quotes && i < text.size()) {
      if (c != '"') {
        field += c;
      } else if (i + 1 < text.size() && text[i + 1] == '"') {
        field += text[i++];
      } else {
        in_quotes = false;
      }
    } else if (in_quotes) {
      const std::size_t line_start = text.rfind('\n', quote_at) + 1;
      *error_line = 1 + std::count(text.begin(), text.begin() + line_start,
                                   '\n');
      return Status::ParseError(
          "unterminated quote (opened at column " +
          std::to_string(quote_at - line_start + 1) + ") in CSV row: " +
          text.substr(line_start, text.find('\n', line_start) - line_start));
    } else if (c == '"') {
      in_quotes = was_quoted = true;
      quote_at = i;
    } else if (c == ',' || (c == '\n' && (!fields.empty() || !field.empty() ||
                                          was_quoted))) {
      fields.push_back(std::move(field));
      flags.push_back(was_quoted);
      field.clear();
      was_quoted = false;
      if (c == '\n') {
        rows.push_back(std::move(fields));
        fields.clear();
        if (quoted != nullptr) quoted->push_back(std::move(flags));
        flags.clear();
      }
    } else if (c != '\n' && c != '\r') {  // blank lines and CRs are dropped
      field += c;
    }
  }
  return rows;
}

}  // namespace

std::string CsvEncodeField(const std::string& field, bool force_quotes) {
  if (!force_quotes && field.find_first_of(",\"\n\r") == std::string::npos) {
    return field;
  }
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

std::string CsvEncodeRow(const std::vector<std::string>& fields) {
  std::string out;
  for (std::size_t i = 0; i < fields.size(); ++i) {
    if (i > 0) out += ',';
    out += CsvEncodeField(fields[i]);
  }
  return out;
}

Result<std::vector<std::string>> CsvParseRow(const std::string& line) {
  std::size_t error_line = 0;
  auto rows = ParseRows(line, nullptr, &error_line);
  if (!rows.ok()) return rows.status();
  if (rows->empty()) return std::vector<std::string>{""};
  return std::move(rows->front());
}

std::string CsvEncodeRows(const std::vector<std::vector<std::string>>& rows) {
  std::string out;
  for (const auto& row : rows) {
    out += CsvEncodeRow(row);
    out += '\n';
  }
  return out;
}

Result<std::vector<std::vector<std::string>>> CsvParseText(
    const std::string& text, const std::string& context,
    std::vector<std::vector<bool>>* quoted) {
  std::size_t error_line = 0;
  auto rows = ParseRows(text, quoted, &error_line);
  if (!rows.ok()) {
    return Status(rows.status().code(),
                  context + " line " + std::to_string(error_line) + ": " +
                      rows.status().message());
  }
  return rows;
}

Status CsvWriteFile(const std::string& path,
                    const std::vector<std::vector<std::string>>& rows) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << CsvEncodeRows(rows);
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

Result<std::vector<std::vector<std::string>>> CsvReadFile(
    const std::string& path, std::vector<std::vector<bool>>* quoted) {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open for reading: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) return Status::IoError("read failed: " + path);
  return CsvParseText(buffer.str(), path, quoted);
}

}  // namespace perfxplain
