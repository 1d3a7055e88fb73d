#include "plan/expr.h"

#include "common/table_printer.h"

namespace qpi {

const char* CompareOpName(CompareOp op) {
  switch (op) {
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

/// Resolve "name" or "table.name" against a schema.
Status ResolveColumn(const Schema& schema, const std::string& ref,
                     size_t* out_index) {
  size_t dot = ref.find('.');
  std::optional<size_t> idx;
  if (dot == std::string::npos) {
    idx = schema.FindColumn(ref);
  } else {
    idx = schema.FindQualified(ref.substr(0, dot), ref.substr(dot + 1));
  }
  if (!idx.has_value()) {
    return Status::NotFound(StrFormat("column %s not found in schema %s",
                                      ref.c_str(),
                                      schema.ToString().c_str()));
  }
  *out_index = *idx;
  return Status::OK();
}

class BoundComparison : public BoundPredicate {
 public:
  BoundComparison(size_t index, CompareOp op, Value literal)
      : index_(index), op_(op), literal_(std::move(literal)) {}

  bool Evaluate(const Row& row) const override {
    const Value& v = row[index_];
    if (v.is_null()) return false;  // SQL semantics: NULL comparisons fail
    return CompareOpHolds(op_, v.Compare(literal_));
  }

 private:
  size_t index_;
  CompareOp op_;
  Value literal_;
};

class BoundBinaryLogic : public BoundPredicate {
 public:
  BoundBinaryLogic(BinaryLogicPredicate::Kind kind,
                   std::unique_ptr<BoundPredicate> left,
                   std::unique_ptr<BoundPredicate> right)
      : kind_(kind), left_(std::move(left)), right_(std::move(right)) {}

  bool Evaluate(const Row& row) const override {
    if (kind_ == BinaryLogicPredicate::Kind::kAnd) {
      return left_->Evaluate(row) && right_->Evaluate(row);
    }
    return left_->Evaluate(row) || right_->Evaluate(row);
  }

 private:
  BinaryLogicPredicate::Kind kind_;
  std::unique_ptr<BoundPredicate> left_;
  std::unique_ptr<BoundPredicate> right_;
};

class BoundNot : public BoundPredicate {
 public:
  explicit BoundNot(std::unique_ptr<BoundPredicate> inner)
      : inner_(std::move(inner)) {}
  bool Evaluate(const Row& row) const override {
    return !inner_->Evaluate(row);
  }

 private:
  std::unique_ptr<BoundPredicate> inner_;
};

}  // namespace

ComparisonPredicate::ComparisonPredicate(std::string column, CompareOp op,
                                         Value literal)
    : column_(std::move(column)), op_(op), literal_(std::move(literal)) {}

Status ComparisonPredicate::Bind(const Schema& schema,
                                 std::unique_ptr<BoundPredicate>* out) const {
  size_t index = 0;
  QPI_RETURN_NOT_OK(ResolveColumn(schema, column_, &index));
  // A string never compares with a number: reject the mix here instead of
  // ordering the two kinds at run time.
  const bool column_is_string =
      schema.column(index).type == ValueType::kString;
  if (!literal_.is_null() &&
      column_is_string != (literal_.type() == ValueType::kString)) {
    return Status::InvalidArgument(
        StrFormat("cannot compare %s column %s with %s literal %s",
                  column_is_string ? "string" : "numeric", column_.c_str(),
                  column_is_string ? "numeric" : "string",
                  literal_.ToString().c_str()));
  }
  *out = std::make_unique<BoundComparison>(index, op_, literal_);
  return Status::OK();
}

std::string ComparisonPredicate::ToString() const {
  return column_ + " " + CompareOpName(op_) + " " + literal_.ToString();
}

std::unique_ptr<Predicate> ComparisonPredicate::Clone() const {
  return std::make_unique<ComparisonPredicate>(column_, op_, literal_);
}

BinaryLogicPredicate::BinaryLogicPredicate(Kind kind, PredicatePtr left,
                                           PredicatePtr right)
    : kind_(kind), left_(std::move(left)), right_(std::move(right)) {}

Status BinaryLogicPredicate::Bind(
    const Schema& schema, std::unique_ptr<BoundPredicate>* out) const {
  std::unique_ptr<BoundPredicate> left;
  std::unique_ptr<BoundPredicate> right;
  QPI_RETURN_NOT_OK(left_->Bind(schema, &left));
  QPI_RETURN_NOT_OK(right_->Bind(schema, &right));
  *out = std::make_unique<BoundBinaryLogic>(kind_, std::move(left),
                                            std::move(right));
  return Status::OK();
}

std::string BinaryLogicPredicate::ToString() const {
  const char* name = kind_ == Kind::kAnd ? " AND " : " OR ";
  return "(" + left_->ToString() + name + right_->ToString() + ")";
}

std::unique_ptr<Predicate> BinaryLogicPredicate::Clone() const {
  return std::make_unique<BinaryLogicPredicate>(kind_, left_->Clone(),
                                                right_->Clone());
}

NotPredicate::NotPredicate(PredicatePtr inner) : inner_(std::move(inner)) {}

Status NotPredicate::Bind(const Schema& schema,
                          std::unique_ptr<BoundPredicate>* out) const {
  std::unique_ptr<BoundPredicate> inner;
  QPI_RETURN_NOT_OK(inner_->Bind(schema, &inner));
  *out = std::make_unique<BoundNot>(std::move(inner));
  return Status::OK();
}

std::string NotPredicate::ToString() const {
  return "NOT (" + inner_->ToString() + ")";
}

std::unique_ptr<Predicate> NotPredicate::Clone() const {
  return std::make_unique<NotPredicate>(inner_->Clone());
}

PredicatePtr MakeCompare(std::string column, CompareOp op, Value literal) {
  return std::make_unique<ComparisonPredicate>(std::move(column), op,
                                               std::move(literal));
}

PredicatePtr MakeAnd(PredicatePtr left, PredicatePtr right) {
  return std::make_unique<BinaryLogicPredicate>(
      BinaryLogicPredicate::Kind::kAnd, std::move(left), std::move(right));
}

PredicatePtr MakeOr(PredicatePtr left, PredicatePtr right) {
  return std::make_unique<BinaryLogicPredicate>(
      BinaryLogicPredicate::Kind::kOr, std::move(left), std::move(right));
}

PredicatePtr MakeNot(PredicatePtr inner) {
  return std::make_unique<NotPredicate>(std::move(inner));
}

}  // namespace qpi
