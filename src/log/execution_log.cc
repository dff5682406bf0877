#include "log/execution_log.h"

#include <fstream>
#include <utility>

#include "common/csv.h"

namespace perfxplain {

const ExecutionRecord& ExecutionLog::at(std::size_t i) const {
  PX_CHECK_LT(i, records_.size());
  return records_[i];
}

Status CheckValueKinds(const Schema& schema, const ExecutionRecord& record) {
  for (std::size_t f = 0; f < record.values.size(); ++f) {
    const Value& v = record.values[f];
    if (!v.is_missing() && v.kind() != schema.at(f).kind) {
      return Status::InvalidArgument("record '" + record.id + "' feature '" +
                                     schema.at(f).name + "' has wrong kind");
    }
  }
  return Status::OK();
}

Status ExecutionLog::Add(ExecutionRecord record) {
  if (record.values.size() != schema_.size()) {
    return Status::InvalidArgument(
        "record '" + record.id + "' has " +
        std::to_string(record.values.size()) + " values, schema has " +
        std::to_string(schema_.size()));
  }
  if (by_id_.count(record.id) > 0) {
    return Status::InvalidArgument("duplicate record id: " + record.id);
  }
  PX_RETURN_IF_ERROR(CheckValueKinds(schema_, record));
  by_id_.emplace(record.id, records_.size());
  records_.push_back(std::move(record));
  return Status::OK();
}

Result<std::size_t> ExecutionLog::Find(const std::string& id) const {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return Status::NotFound("no record with id: " + id);
  }
  return it->second;
}

const Value& ExecutionLog::ValueAt(std::size_t record_index,
                                   std::size_t feature_index) const {
  PX_CHECK_LT(record_index, records_.size());
  PX_CHECK_LT(feature_index, schema_.size());
  return records_[record_index].values[feature_index];
}

ExecutionLog ExecutionLog::Filter(
    const std::function<bool(const ExecutionRecord&)>& keep) const {
  ExecutionLog out(schema_);
  for (const auto& record : records_) {
    if (keep(record)) {
      PX_CHECK(out.Add(record).ok());
    }
  }
  return out;
}

std::pair<ExecutionLog, ExecutionLog> ExecutionLog::RandomSplit(
    double first_fraction, Rng& rng) const {
  ExecutionLog first(schema_);
  ExecutionLog second(schema_);
  for (const auto& record : records_) {
    if (rng.Bernoulli(first_fraction)) {
      PX_CHECK(first.Add(record).ok());
    } else {
      PX_CHECK(second.Add(record).ok());
    }
  }
  return {std::move(first), std::move(second)};
}

Status ExecutionLog::EnsureRecords(const ExecutionLog& source,
                                   const std::vector<std::string>& ids) {
  if (!(source.schema() == schema_)) {
    return Status::InvalidArgument("EnsureRecords: schema mismatch");
  }
  for (const std::string& id : ids) {
    if (by_id_.count(id) > 0) continue;
    auto idx = source.Find(id);
    if (!idx.ok()) return idx.status();
    PX_RETURN_IF_ERROR(Add(source.at(idx.value())));
  }
  return Status::OK();
}

std::string ExecutionLog::ToCsvText() const {
  std::vector<std::string> header = {"id"};
  std::vector<std::string> kinds = {"id"};
  for (const auto& def : schema_.defs()) {
    header.push_back(def.name);
    kinds.push_back(def.kind == ValueKind::kNumeric ? "numeric" : "nominal");
  }
  std::string out = CsvEncodeRows({header, kinds});
  for (const auto& record : records_) {
    out += CsvEncodeField(record.id);
    for (const auto& v : record.values) {
      out += ',';
      // A quoted field reads back as a nominal, so the nominals that a bare
      // field would read as missing are quoted.
      out += CsvEncodeField(v.ToString(), v.is_nominal() &&
                                              (v.nominal().empty() ||
                                               v.nominal() == "?"));
    }
    out += '\n';
  }
  return out;
}

Result<ExecutionLog> ExecutionLog::LoadCsv(const std::string& path) {
  std::vector<std::vector<bool>> quoted;
  auto rows_or = CsvReadFile(path, &quoted);
  if (!rows_or.ok()) return rows_or.status();
  const auto& rows = rows_or.value();
  if (rows.size() < 2) {
    return Status::ParseError("log CSV needs header and kind rows: " + path);
  }
  const auto& header = rows[0];
  const auto& kinds = rows[1];
  if (header.size() != kinds.size() || header.empty() || header[0] != "id") {
    return Status::ParseError("malformed log CSV header: " + path);
  }
  Schema schema;
  for (std::size_t i = 1; i < header.size(); ++i) {
    ValueKind kind;
    if (kinds[i] == "numeric") {
      kind = ValueKind::kNumeric;
    } else if (kinds[i] == "nominal") {
      kind = ValueKind::kNominal;
    } else {
      return Status::ParseError("unknown feature kind '" + kinds[i] + "'");
    }
    PX_RETURN_IF_ERROR(schema.Add(header[i], kind));
  }
  ExecutionLog log(std::move(schema));
  for (std::size_t r = 2; r < rows.size(); ++r) {
    const auto& row = rows[r];
    if (row.size() != header.size()) {
      return Status::ParseError("row " + std::to_string(r) +
                                " has wrong arity in " + path);
    }
    std::vector<Value> values;
    values.reserve(row.size() - 1);
    for (std::size_t i = 1; i < row.size(); ++i) {
      const ValueKind kind = log.schema().at(i - 1).kind;
      values.push_back(quoted[r][i] && kind == ValueKind::kNominal
                           ? Value::Nominal(row[i])
                           : Value::FromString(row[i], kind));
    }
    PX_RETURN_IF_ERROR(log.Add(ExecutionRecord(row[0], std::move(values))));
  }
  return log;
}

Status ExecutionLog::SaveCsv(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open for writing: " + path);
  out << ToCsvText();
  out.flush();
  if (!out) return Status::IoError("write failed: " + path);
  return Status::OK();
}

}  // namespace perfxplain
