#ifndef QPI_PLAN_EXPR_H_
#define QPI_PLAN_EXPR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/row.h"
#include "common/schema.h"
#include "common/status.h"

namespace qpi {

/// Comparison operators supported by selection predicates.
enum class CompareOp { kEq, kNe, kLt, kLe, kGt, kGe };

const char* CompareOpName(CompareOp op);

/// Whether `op` holds for a Value::Compare result `cmp` (a <op> b for
/// cmp = a.Compare(b)).
inline bool CompareOpHolds(CompareOp op, int cmp) {
  switch (op) {
    case CompareOp::kEq:
      return cmp == 0;
    case CompareOp::kNe:
      return cmp != 0;
    case CompareOp::kLt:
      return cmp < 0;
    case CompareOp::kLe:
      return cmp <= 0;
    case CompareOp::kGt:
      return cmp > 0;
    case CompareOp::kGe:
      return cmp >= 0;
  }
  return false;
}

class BoundPredicate;

/// \brief An unbound selection predicate over named columns.
///
/// A small expression tree: comparisons of a (possibly qualified) column
/// against a literal, combined with AND / OR / NOT. Bind() resolves column
/// names against a schema to produce an evaluable BoundPredicate.
class Predicate {
 public:
  virtual ~Predicate() = default;

  /// Resolve column references against `schema`. On success fills `*out`.
  virtual Status Bind(const Schema& schema,
                      std::unique_ptr<BoundPredicate>* out) const = 0;

  virtual std::string ToString() const = 0;

  /// Deep copy (plan specs are value-like and get reused across runs).
  virtual std::unique_ptr<Predicate> Clone() const = 0;
};

using PredicatePtr = std::unique_ptr<Predicate>;

/// column <op> literal
class ComparisonPredicate : public Predicate {
 public:
  /// `column` may be "name" or "table.name".
  ComparisonPredicate(std::string column, CompareOp op, Value literal);

  Status Bind(const Schema& schema,
              std::unique_ptr<BoundPredicate>* out) const override;
  std::string ToString() const override;
  std::unique_ptr<Predicate> Clone() const override;

  const std::string& column() const { return column_; }
  CompareOp op() const { return op_; }
  const Value& literal() const { return literal_; }

 private:
  std::string column_;
  CompareOp op_;
  Value literal_;
};

/// AND / OR over two sub-predicates.
class BinaryLogicPredicate : public Predicate {
 public:
  enum class Kind { kAnd, kOr };

  BinaryLogicPredicate(Kind kind, PredicatePtr left, PredicatePtr right);

  Status Bind(const Schema& schema,
              std::unique_ptr<BoundPredicate>* out) const override;
  std::string ToString() const override;
  std::unique_ptr<Predicate> Clone() const override;

  Kind kind() const { return kind_; }
  const Predicate& left() const { return *left_; }
  const Predicate& right() const { return *right_; }

 private:
  Kind kind_;
  PredicatePtr left_;
  PredicatePtr right_;
};

/// NOT over a sub-predicate.
class NotPredicate : public Predicate {
 public:
  explicit NotPredicate(PredicatePtr inner);

  Status Bind(const Schema& schema,
              std::unique_ptr<BoundPredicate>* out) const override;
  std::string ToString() const override;
  std::unique_ptr<Predicate> Clone() const override;

  const Predicate& inner() const { return *inner_; }

 private:
  PredicatePtr inner_;
};

/// \brief A predicate with column references resolved to row indices.
class BoundPredicate {
 public:
  virtual ~BoundPredicate() = default;
  virtual bool Evaluate(const Row& row) const = 0;
};

/// Convenience constructors.
PredicatePtr MakeCompare(std::string column, CompareOp op, Value literal);
PredicatePtr MakeAnd(PredicatePtr left, PredicatePtr right);
PredicatePtr MakeOr(PredicatePtr left, PredicatePtr right);
PredicatePtr MakeNot(PredicatePtr inner);

}  // namespace qpi

#endif  // QPI_PLAN_EXPR_H_
