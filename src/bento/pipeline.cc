#include "bento/pipeline.h"

#include <cmath>

namespace bento::run {

using col::Scalar;
using col::TypeId;
using frame::Op;
using frame::OpKind;
using frame::Stage;
using kern::AggKind;
using kern::AggSpec;
using kern::SortKey;

std::vector<PipelineStep> Pipeline::StageSteps(Stage stage) const {
  std::vector<PipelineStep> out;
  for (const PipelineStep& step : steps) {
    if (step.stage == stage) out.push_back(step);
  }
  return out;
}

namespace {

Result<double> NumericField(const col::Table& table, int64_t row,
                            const std::string& name) {
  int c = table.schema()->IndexOf(name);
  if (c < 0) return Status::KeyError("row fn: no column '", name, "'");
  const col::Array& a = *table.column(c);
  if (a.IsNull(row)) return std::nan("");
  switch (a.type()) {
    case TypeId::kFloat64:
      return a.float64_data()[row];
    case TypeId::kInt64:
    case TypeId::kTimestamp:
      return static_cast<double>(a.int64_data()[row]);
    case TypeId::kBool:
      return a.bool_data()[row] != 0 ? 1.0 : 0.0;
    default:
      return Status::TypeError("row fn: column '", name, "' is not numeric");
  }
}

Scalar MaybeDouble(double v) {
  return std::isnan(v) ? Scalar::Null() : Scalar::Double(v);
}

}  // namespace

Result<kern::RowFn> LookupRowFn(const std::string& name) {
  if (name == "bmi") {
    // weight[kg] / (height[cm] / 100)^2
    return kern::RowFn([](const col::Table& t, int64_t r) -> Result<Scalar> {
      BENTO_ASSIGN_OR_RETURN(double w, NumericField(t, r, "weight"));
      BENTO_ASSIGN_OR_RETURN(double h, NumericField(t, r, "height"));
      if (std::isnan(w) || std::isnan(h) || h <= 0) return Scalar::Null();
      const double meters = h / 100.0;
      return Scalar::Double(w / (meters * meters));
    });
  }
  if (name == "height_m") {
    return kern::RowFn([](const col::Table& t, int64_t r) -> Result<Scalar> {
      BENTO_ASSIGN_OR_RETURN(double h, NumericField(t, r, "height"));
      return MaybeDouble(h / 100.0);
    });
  }
  if (name == "payment_ratio") {
    // loan: yearly payment share of income.
    return kern::RowFn([](const col::Table& t, int64_t r) -> Result<Scalar> {
      BENTO_ASSIGN_OR_RETURN(double amount, NumericField(t, r, "loan_amnt"));
      BENTO_ASSIGN_OR_RETURN(double income, NumericField(t, r, "annual_inc"));
      if (std::isnan(amount) || std::isnan(income) || income <= 0) {
        return Scalar::Null();
      }
      return Scalar::Double(amount / income);
    });
  }
  if (name == "age_decade") {
    return kern::RowFn([](const col::Table& t, int64_t r) -> Result<Scalar> {
      BENTO_ASSIGN_OR_RETURN(double age, NumericField(t, r, "driver_age"));
      if (std::isnan(age)) return Scalar::Null();
      return Scalar::Int(static_cast<int64_t>(age / 10.0) * 10);
    });
  }
  if (name == "total_check") {
    // taxi: recompute total from parts and compare.
    return kern::RowFn([](const col::Table& t, int64_t r) -> Result<Scalar> {
      BENTO_ASSIGN_OR_RETURN(double fare, NumericField(t, r, "fare_amount"));
      BENTO_ASSIGN_OR_RETURN(double tip, NumericField(t, r, "tip_amount"));
      BENTO_ASSIGN_OR_RETURN(double tolls, NumericField(t, r, "tolls_amount"));
      BENTO_ASSIGN_OR_RETURN(double total, NumericField(t, r, "total_amount"));
      if (std::isnan(fare) || std::isnan(total)) return Scalar::Null();
      return Scalar::Double(total - (fare + tip + tolls));
    });
  }
  return Status::KeyError("unknown row function '", name, "'");
}

namespace {

Result<Op> NamedApplyRow(const std::string& fn_name,
                         const std::string& new_name, TypeId out_type) {
  BENTO_ASSIGN_OR_RETURN(auto fn, LookupRowFn(fn_name));
  Op op = Op::ApplyRow(new_name, fn, out_type);
  op.text = fn_name;  // keeps the registered name for JSON round-trips
  return op;
}

Result<Pipeline> AthletePipeline() {
  Pipeline p;
  p.dataset = "athlete";
  auto add = [&](Stage stage, Op op, bool carry = true) {
    p.steps.push_back(PipelineStep{stage, std::move(op), carry});
  };
  // EDA — isna / outlier / srchptn / sort dominate (95% of EDA time).
  add(Stage::kEDA, Op::IsNa());
  add(Stage::kEDA, Op::LocateOutliers("age"));
  add(Stage::kEDA, Op::SearchPattern("event", "ing"));
  add(Stage::kEDA, Op::SortValues({SortKey{"year", false}}));
  add(Stage::kEDA, Op::GetColumns());
  add(Stage::kEDA, Op::GetDtypes());
  add(Stage::kEDA, Op::Describe());
  add(Stage::kEDA, Op::Query("height > 120"));
  // DT
  add(Stage::kDT, Op::Cast("year", TypeId::kFloat64));
  add(Stage::kDT, Op::Pivot("season", "sport", "weight", AggKind::kMean),
      /*carry=*/false);
  add(Stage::kDT, Op::ApplyExpr("bmi", "weight / ((height / 100) ** 2)"));
  {
    Op merge = Op::Merge(nullptr, "noc", "noc", kern::JoinType::kLeft);
    merge.text = "regions";  // resolved by the runner's table registry
    add(Stage::kDT, std::move(merge));
  }
  add(Stage::kDT, Op::GetDummies("season"));
  add(Stage::kDT, Op::CatCodes("medal"));
  add(Stage::kDT,
      Op::GroupByAgg({"team"}, {AggSpec{"age", AggKind::kMean, ""}}),
      /*carry=*/false);
  add(Stage::kDT, Op::DropColumns({"games"}));
  add(Stage::kDT, Op::Rename({{"noc", "country_code"}}));
  // DC — dedup accounts for ~70% of the stage.
  add(Stage::kDC, Op::DropNa({"age"}));
  add(Stage::kDC, Op::StrLower("event"));
  add(Stage::kDC, Op::Round("height", 1));
  add(Stage::kDC, Op::DropDuplicates());
  add(Stage::kDC, Op::FillNaMean("weight"));
  add(Stage::kDC, Op::Replace("sex", Scalar::Str("M"), Scalar::Str("Male")));
  {
    BENTO_ASSIGN_OR_RETURN(auto op, NamedApplyRow("height_m", "height_m", TypeId::kFloat64));
    add(Stage::kDC, std::move(op));
  }
  return p;
}

Result<Pipeline> LoanPipeline() {
  Pipeline p;
  p.dataset = "loan";
  auto add = [&](Stage stage, Op op, bool carry = true) {
    p.steps.push_back(PipelineStep{stage, std::move(op), carry});
  };
  add(Stage::kEDA, Op::IsNa());
  add(Stage::kEDA, Op::LocateOutliers("annual_inc"));
  add(Stage::kEDA, Op::SearchPattern("desc", "loan"));
  add(Stage::kEDA, Op::SortValues({SortKey{"int_rate", true}}));
  add(Stage::kEDA, Op::GetColumns());
  add(Stage::kEDA, Op::GetDtypes());
  add(Stage::kEDA, Op::Describe());
  add(Stage::kEDA, Op::Query("loan_amnt > 1000"));
  add(Stage::kDT, Op::Cast("loan_amnt", TypeId::kInt64));
  add(Stage::kDT, Op::Pivot("grade", "purpose", "loan_amnt", AggKind::kMean),
      /*carry=*/false);
  add(Stage::kDT, Op::ApplyExpr("installment",
                                "loan_amnt * (int_rate / 1200)"));
  add(Stage::kDT, Op::GetDummies("purpose"));
  add(Stage::kDT, Op::CatCodes("grade"));
  add(Stage::kDT,
      Op::GroupByAgg({"sub_grade"},
                     {AggSpec{"int_rate", AggKind::kMean, ""},
                      AggSpec{"loan_amnt", AggKind::kSum, ""}}),
      /*carry=*/false);
  add(Stage::kDT, Op::ToDatetime("issue_d"));
  add(Stage::kDT, Op::DropColumns({"num_0", "num_1"}));
  add(Stage::kDT, Op::Rename({{"dti", "debt_to_income"}}));
  add(Stage::kDC, Op::DropNa({"annual_inc"}));
  add(Stage::kDC, Op::StrLower("emp_title"));
  add(Stage::kDC, Op::Round("int_rate", 2));
  add(Stage::kDC, Op::DropDuplicates({"emp_title", "sub_grade", "term"}));
  add(Stage::kDC, Op::FillNaMean("debt_to_income"));
  add(Stage::kDC, Op::Replace("term", Scalar::Str(" 36 months"),
                              Scalar::Str("36")));
  {
    BENTO_ASSIGN_OR_RETURN(auto op, NamedApplyRow("payment_ratio", "payment_ratio", TypeId::kFloat64));
    add(Stage::kDC, std::move(op));
  }
  return p;
}

Result<Pipeline> PatrolPipeline() {
  Pipeline p;
  p.dataset = "patrol";
  auto add = [&](Stage stage, Op op, bool carry = true) {
    p.steps.push_back(PipelineStep{stage, std::move(op), carry});
  };
  add(Stage::kEDA, Op::IsNa());
  add(Stage::kEDA, Op::LocateOutliers("driver_age"));
  add(Stage::kEDA, Op::SearchPattern("violation_raw", "Spe"));
  add(Stage::kEDA, Op::SortValues({SortKey{"stop_date", true}}));
  add(Stage::kEDA, Op::GetColumns());
  add(Stage::kEDA, Op::GetDtypes());
  add(Stage::kEDA, Op::Describe());
  add(Stage::kEDA, Op::Query("driver_age >= 16"));
  add(Stage::kDT, Op::Cast("officer_id", TypeId::kFloat64));
  add(Stage::kDT, Op::ApplyExpr("fine_adj", "fillna(fine, 0.0) * 1.07"));
  add(Stage::kDT, Op::GetDummies("stop_outcome"));
  add(Stage::kDT, Op::CatCodes("driver_race"));
  add(Stage::kDT,
      Op::GroupByAgg({"violation"},
                     {AggSpec{"driver_age", AggKind::kCount, ""}}),
      /*carry=*/false);
  add(Stage::kDT, Op::DropColumns({"ann_0", "ann_1"}));
  add(Stage::kDT, Op::Rename({{"county_name", "county"}}));
  // DC — the paper highlights dropna + chdate as the Patrol DC pair.
  add(Stage::kDC, Op::DropNa({"driver_gender"}));
  add(Stage::kDC, Op::ToDatetime("stop_date"));
  add(Stage::kDC, Op::StrLower("county"));
  add(Stage::kDC, Op::Round("fine", 0));
  add(Stage::kDC, Op::FillNaMean("fine"));
  add(Stage::kDC, Op::Replace("driver_gender", Scalar::Str("M"),
                              Scalar::Str("male")));
  {
    BENTO_ASSIGN_OR_RETURN(auto op, NamedApplyRow("age_decade", "age_decade", TypeId::kInt64));
    add(Stage::kDC, std::move(op));
  }
  return p;
}

Result<Pipeline> TaxiPipeline() {
  Pipeline p;
  p.dataset = "taxi";
  auto add = [&](Stage stage, Op op, bool carry = true) {
    p.steps.push_back(PipelineStep{stage, std::move(op), carry});
  };
  add(Stage::kEDA, Op::IsNa());
  add(Stage::kEDA, Op::LocateOutliers("trip_duration"));
  add(Stage::kEDA, Op::SearchPattern("pickup_datetime", "2015-07"));
  add(Stage::kEDA, Op::SortValues({SortKey{"pickup_datetime", true}}));
  add(Stage::kEDA, Op::GetColumns());
  add(Stage::kEDA, Op::GetDtypes());
  add(Stage::kEDA, Op::Describe());
  add(Stage::kEDA, Op::Query("passenger_count <= 6"));
  add(Stage::kDT, Op::Cast("passenger_count", TypeId::kFloat64));
  add(Stage::kDT,
      Op::ApplyExpr("speed_kmh",
                    "trip_distance / ((trip_duration + 1) / 3600)"));
  add(Stage::kDT, Op::GetDummies("store_and_fwd_flag"));
  add(Stage::kDT,
      Op::GroupByAgg({"vendor_id"},
                     {AggSpec{"fare_amount", AggKind::kMean, ""},
                      AggSpec{"tip_amount", AggKind::kMax, ""}}),
      /*carry=*/false);
  add(Stage::kDT, Op::ToDatetime("pickup_datetime"));
  add(Stage::kDT, Op::DropColumns({"extra"}));
  add(Stage::kDT, Op::Rename({{"rate_code", "rate"}}));
  add(Stage::kDC, Op::DropNa());
  add(Stage::kDC, Op::Round("fare_amount", 1));
  add(Stage::kDC, Op::FillNa("tip_amount", Scalar::Double(0.0)));
  add(Stage::kDC, Op::Replace("vendor_id", Scalar::Int(2), Scalar::Int(20)));
  {
    BENTO_ASSIGN_OR_RETURN(auto op, NamedApplyRow("total_check", "total_check", TypeId::kFloat64));
    add(Stage::kDC, std::move(op));
  }
  return p;
}

}  // namespace

Result<Pipeline> PipelineFor(const std::string& dataset) {
  if (dataset == "athlete") return AthletePipeline();
  if (dataset == "loan") return LoanPipeline();
  if (dataset == "patrol") return PatrolPipeline();
  if (dataset == "taxi") return TaxiPipeline();
  return Status::KeyError("no pipeline for dataset '", dataset, "'");
}

// ---------------------------------------------------------------------------
// JSON round-trip.
// ---------------------------------------------------------------------------

namespace {

JsonValue ScalarToJson(const Scalar& s) {
  JsonValue v = JsonValue::Object();
  switch (s.kind()) {
    case Scalar::Kind::kNull:
      v.Set("kind", JsonValue::Str("null"));
      break;
    case Scalar::Kind::kInt:
      v.Set("kind", JsonValue::Str("int"));
      v.Set("value", JsonValue::Int(s.int_value()));
      break;
    case Scalar::Kind::kDouble:
      v.Set("kind", JsonValue::Str("double"));
      v.Set("value", JsonValue::Number(s.double_value()));
      break;
    case Scalar::Kind::kBool:
      v.Set("kind", JsonValue::Str("bool"));
      v.Set("value", JsonValue::Bool(s.bool_value()));
      break;
    case Scalar::Kind::kString:
      v.Set("kind", JsonValue::Str("string"));
      v.Set("value", JsonValue::Str(s.string_value()));
      break;
    case Scalar::Kind::kTimestamp:
      v.Set("kind", JsonValue::Str("timestamp"));
      v.Set("value", JsonValue::Int(s.int_value()));
      break;
  }
  return v;
}

/// Integer member `key` of `v`, `fallback` when absent; Invalid when it is
/// present but not an int64.
Result<int64_t> IntMember(const JsonValue& v, const std::string& key,
                          int64_t fallback) {
  if (!v.Has(key)) return fallback;
  Result<int64_t> value = v.Get(key).int_value();
  if (!value.ok()) {
    return Status::Invalid("\"", key, "\" is ", value.status().message());
  }
  return value;
}

Result<Scalar> ScalarFromJson(const JsonValue& v) {
  const std::string kind = v.GetString("kind", "null");
  if (kind == "null") return Scalar::Null();
  if (kind == "int" || kind == "timestamp") {
    BENTO_ASSIGN_OR_RETURN(int64_t value, IntMember(v, "value", 0));
    return kind == "int" ? Scalar::Int(value) : Scalar::Timestamp(value);
  }
  if (kind == "double") return Scalar::Double(v.GetNumber("value"));
  if (kind == "bool") return Scalar::Bool(v.GetBool("value"));
  if (kind == "string") return Scalar::Str(v.GetString("value"));
  return Status::Invalid("bad scalar kind '", kind, "'");
}

Result<TypeId> TypeFromName(const std::string& name) {
  for (TypeId t : {TypeId::kInt64, TypeId::kFloat64, TypeId::kBool,
                   TypeId::kString, TypeId::kTimestamp, TypeId::kCategorical}) {
    if (name == col::TypeName(t)) return t;
  }
  return Status::Invalid("unknown type '", name, "'");
}

Result<AggKind> AggFromName(const std::string& name) {
  for (AggKind k : {AggKind::kSum, AggKind::kMean, AggKind::kMin,
                    AggKind::kMax, AggKind::kCount, AggKind::kStd}) {
    if (name == kern::AggName(k)) return k;
  }
  return Status::Invalid("unknown aggregation '", name, "'");
}

Result<Stage> StageFromName(const std::string& name) {
  if (name == "I/O") return Stage::kIO;
  if (name == "EDA") return Stage::kEDA;
  if (name == "DT") return Stage::kDT;
  if (name == "DC") return Stage::kDC;
  return Status::Invalid("unknown stage '", name, "'");
}

JsonValue StringsToJson(const std::vector<std::string>& values) {
  JsonValue arr = JsonValue::Array();
  for (const std::string& v : values) arr.Append(JsonValue::Str(v));
  return arr;
}

std::vector<std::string> StringsFromJson(const JsonValue& arr) {
  std::vector<std::string> out;
  for (const JsonValue& v : arr.items()) out.push_back(v.string_value());
  return out;
}

JsonValue OpToJson(const Op& op) {
  JsonValue v = JsonValue::Object();
  v.Set("op", JsonValue::Str(frame::OpKindName(op.kind)));
  if (!op.column.empty()) v.Set("column", JsonValue::Str(op.column));
  if (!op.columns.empty()) v.Set("columns", StringsToJson(op.columns));
  if (!op.text.empty()) v.Set("text", JsonValue::Str(op.text));
  if (!op.new_name.empty()) v.Set("new_name", JsonValue::Str(op.new_name));
  if (!op.renames.empty()) {
    JsonValue arr = JsonValue::Array();
    for (const auto& [from, to] : op.renames) {
      JsonValue pair = JsonValue::Object();
      pair.Set("from", JsonValue::Str(from));
      pair.Set("to", JsonValue::Str(to));
      arr.Append(std::move(pair));
    }
    v.Set("renames", std::move(arr));
  }
  if (!op.sort_keys.empty()) {
    JsonValue arr = JsonValue::Array();
    for (const SortKey& key : op.sort_keys) {
      JsonValue kj = JsonValue::Object();
      kj.Set("column", JsonValue::Str(key.column));
      kj.Set("ascending", JsonValue::Bool(key.ascending));
      arr.Append(std::move(kj));
    }
    v.Set("sort_keys", std::move(arr));
  }
  if (!op.aggs.empty()) {
    JsonValue arr = JsonValue::Array();
    for (const AggSpec& agg : op.aggs) {
      JsonValue aj = JsonValue::Object();
      aj.Set("column", JsonValue::Str(agg.column));
      aj.Set("agg", JsonValue::Str(kern::AggName(agg.kind)));
      if (!agg.output_name.empty()) {
        aj.Set("as", JsonValue::Str(agg.output_name));
      }
      arr.Append(std::move(aj));
    }
    v.Set("aggs", std::move(arr));
  }
  switch (op.kind) {
    case OpKind::kLocateOutliers:
      v.Set("lower_q", JsonValue::Number(op.lower_q));
      v.Set("upper_q", JsonValue::Number(op.upper_q));
      break;
    case OpKind::kCast:
      v.Set("type", JsonValue::Str(col::TypeName(op.type)));
      break;
    case OpKind::kPivot:
      v.Set("index", JsonValue::Str(op.pivot_index));
      v.Set("pivot_columns", JsonValue::Str(op.pivot_columns));
      v.Set("values", JsonValue::Str(op.pivot_values));
      v.Set("agg", JsonValue::Str(kern::AggName(op.pivot_agg)));
      break;
    case OpKind::kMerge:
      v.Set("left_key", JsonValue::Str(op.left_key));
      v.Set("right_key", JsonValue::Str(op.right_key));
      v.Set("how", JsonValue::Str(op.join_type == kern::JoinType::kLeft
                                      ? "left"
                                      : "inner"));
      break;
    case OpKind::kRound:
      v.Set("decimals", JsonValue::Int(op.decimals));
      break;
    case OpKind::kFillNa:
      if (op.fill_with_mean) {
        v.Set("strategy", JsonValue::Str("mean"));
      } else {
        v.Set("value", ScalarToJson(op.scalar_a));
      }
      break;
    case OpKind::kReplace:
      v.Set("from", ScalarToJson(op.scalar_a));
      v.Set("to", ScalarToJson(op.scalar_b));
      break;
    case OpKind::kApplyRow:
      // `text` carries the registered row-function name.
      v.Set("out_type", JsonValue::Str(col::TypeName(op.row_fn_type)));
      break;
    default:
      break;
  }
  return v;
}

Result<Op> OpFromJson(const JsonValue& v) {
  Op op;
  BENTO_ASSIGN_OR_RETURN(op.kind, frame::OpKindFromName(v.GetString("op")));

  op.column = v.GetString("column");
  op.columns = StringsFromJson(v.Get("columns"));
  op.text = v.GetString("text");
  op.new_name = v.GetString("new_name");
  for (const JsonValue& pair : v.Get("renames").items()) {
    op.renames.emplace_back(pair.GetString("from"), pair.GetString("to"));
  }
  for (const JsonValue& kj : v.Get("sort_keys").items()) {
    op.sort_keys.push_back(
        SortKey{kj.GetString("column"), kj.GetBool("ascending", true)});
  }
  for (const JsonValue& aj : v.Get("aggs").items()) {
    BENTO_ASSIGN_OR_RETURN(AggKind kind, AggFromName(aj.GetString("agg")));
    op.aggs.push_back(AggSpec{aj.GetString("column"), kind,
                              aj.GetString("as")});
  }
  switch (op.kind) {
    case OpKind::kLocateOutliers:
      op.lower_q = v.GetNumber("lower_q", 0.01);
      op.upper_q = v.GetNumber("upper_q", 0.99);
      break;
    case OpKind::kCast: {
      BENTO_ASSIGN_OR_RETURN(op.type, TypeFromName(v.GetString("type")));
      break;
    }
    case OpKind::kPivot: {
      op.pivot_index = v.GetString("index");
      op.pivot_columns = v.GetString("pivot_columns");
      op.pivot_values = v.GetString("values");
      BENTO_ASSIGN_OR_RETURN(op.pivot_agg,
                             AggFromName(v.GetString("agg", "mean")));
      break;
    }
    case OpKind::kMerge:
      op.left_key = v.GetString("left_key");
      op.right_key = v.GetString("right_key");
      op.join_type = v.GetString("how", "inner") == "left"
                         ? kern::JoinType::kLeft
                         : kern::JoinType::kInner;
      break;
    case OpKind::kRound: {
      BENTO_ASSIGN_OR_RETURN(int64_t decimals, IntMember(v, "decimals", 2));
      op.decimals = static_cast<int>(decimals);
      break;
    }
    case OpKind::kFillNa:
      if (v.GetString("strategy") == "mean") {
        op.fill_with_mean = true;
      } else {
        BENTO_ASSIGN_OR_RETURN(op.scalar_a, ScalarFromJson(v.Get("value")));
      }
      break;
    case OpKind::kReplace: {
      BENTO_ASSIGN_OR_RETURN(op.scalar_a, ScalarFromJson(v.Get("from")));
      BENTO_ASSIGN_OR_RETURN(op.scalar_b, ScalarFromJson(v.Get("to")));
      break;
    }
    case OpKind::kApplyRow: {
      BENTO_ASSIGN_OR_RETURN(op.row_fn, LookupRowFn(op.text));
      BENTO_ASSIGN_OR_RETURN(op.row_fn_type,
                             TypeFromName(v.GetString("out_type", "float64")));
      break;
    }
    default:
      break;
  }
  return op;
}

}  // namespace

Result<Pipeline> PipelineFromJson(const JsonValue& spec) {
  Pipeline p;
  p.dataset = spec.GetString("dataset");
  for (const JsonValue& sj : spec.Get("steps").items()) {
    PipelineStep step;
    BENTO_ASSIGN_OR_RETURN(step.stage, StageFromName(sj.GetString("stage")));
    BENTO_ASSIGN_OR_RETURN(step.op, OpFromJson(sj));
    step.carry = sj.GetBool("carry", true);
    p.steps.push_back(std::move(step));
  }
  return p;
}

JsonValue PipelineToJson(const Pipeline& pipeline) {
  JsonValue spec = JsonValue::Object();
  spec.Set("dataset", JsonValue::Str(pipeline.dataset));
  JsonValue steps = JsonValue::Array();
  for (const PipelineStep& step : pipeline.steps) {
    JsonValue sj = OpToJson(step.op);
    sj.Set("stage", JsonValue::Str(frame::StageName(step.stage)));
    if (!step.carry) sj.Set("carry", JsonValue::Bool(false));
    steps.Append(std::move(sj));
  }
  spec.Set("steps", std::move(steps));
  return spec;
}

}  // namespace bento::run
