// Tests for the temporal-database substrate: vocabularies, relations, states,
// histories, updates, relevant sets, ultimately periodic databases.

#include <gtest/gtest.h>

#include "db/history.h"
#include "db/relation.h"
#include "db/state.h"
#include "db/update.h"
#include "db/vocabulary.h"

namespace tic {
namespace {

TEST(VocabularyTest, RegisterAndLookup) {
  Vocabulary v;
  auto p = v.AddPredicate("Sub", 1);
  ASSERT_TRUE(p.ok());
  auto r = v.AddPredicate("R", 3);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(v.num_predicates(), 2u);
  EXPECT_EQ(*v.FindPredicate("Sub"), *p);
  EXPECT_TRUE(v.FindPredicate("Nope").status().IsNotFound());
  EXPECT_EQ(v.predicate(*r).arity, 3u);
  EXPECT_EQ(v.MaxArity(), 3u);
}

TEST(VocabularyTest, RejectsDuplicatesAndArityZero) {
  Vocabulary v;
  ASSERT_TRUE(v.AddPredicate("p", 1).ok());
  EXPECT_TRUE(v.AddPredicate("p", 2).status().IsAlreadyExists());
  EXPECT_TRUE(v.AddPredicate("zero", 0).status().IsInvalidArgument());
}

TEST(VocabularyTest, Constants) {
  Vocabulary v;
  auto c = v.AddConstant("alice");
  ASSERT_TRUE(c.ok());
  EXPECT_TRUE(v.AddConstant("alice").status().IsAlreadyExists());
  EXPECT_EQ(v.constant_name(*c), "alice");
  EXPECT_EQ(*v.FindConstant("alice"), *c);
}

TEST(VocabularyTest, Builtins) {
  Vocabulary v;
  auto leq = v.AddBuiltin("leq", Builtin::kLessEq);
  ASSERT_TRUE(leq.ok());
  EXPECT_EQ(v.predicate(*leq).arity, 2u);
  auto zero = v.AddBuiltin("Zero", Builtin::kZero);
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(v.predicate(*zero).arity, 1u);
  EXPECT_TRUE(v.HasBuiltins());
  // Builtins do not count toward the data max arity.
  ASSERT_TRUE(v.AddPredicate("p", 1).ok());
  EXPECT_EQ(v.MaxArity(), 1u);
  EXPECT_TRUE(v.AddBuiltin("bad", Builtin::kNone).status().IsInvalidArgument());
}

TEST(RelationTest, InsertEraseContains) {
  Relation r(2);
  EXPECT_TRUE(r.Insert({1, 2}).ok());
  EXPECT_TRUE(r.Insert({1, 2}).ok());  // idempotent
  EXPECT_EQ(r.size(), 1u);
  EXPECT_TRUE(r.Contains({1, 2}));
  EXPECT_FALSE(r.Contains({2, 1}));
  EXPECT_TRUE(r.Erase({1, 2}).ok());
  EXPECT_TRUE(r.empty());
  EXPECT_TRUE(r.Insert({1}).IsInvalidArgument());
  EXPECT_TRUE(r.Erase({1}).IsInvalidArgument());
}

TEST(RelationTest, CollectElements) {
  Relation r(2);
  ASSERT_TRUE(r.Insert({1, 5}).ok());
  ASSERT_TRUE(r.Insert({5, 9}).ok());
  std::unordered_set<Value> out;
  r.CollectElements(&out);
  EXPECT_EQ(out, (std::unordered_set<Value>{1, 5, 9}));
}

class StateTest : public ::testing::Test {
 protected:
  StateTest() {
    auto v = std::make_shared<Vocabulary>();
    p_ = *v->AddPredicate("p", 1);
    leq_ = *v->AddBuiltin("leq", Builtin::kLessEq);
    vocab_ = v;
  }
  VocabularyPtr vocab_;
  PredicateId p_, leq_;
};

TEST_F(StateTest, InsertAndHolds) {
  DatabaseState s(vocab_);
  EXPECT_TRUE(s.Insert(p_, {4}).ok());
  EXPECT_TRUE(s.Holds(p_, {4}));
  EXPECT_FALSE(s.Holds(p_, {5}));
  EXPECT_EQ(s.TotalTuples(), 1u);
}

TEST_F(StateTest, BuiltinRelationsAreImmutable) {
  DatabaseState s(vocab_);
  EXPECT_TRUE(s.Insert(leq_, {1, 2}).IsInvalidArgument());
}

TEST_F(StateTest, EqualityAndActiveDomain) {
  DatabaseState a(vocab_), b(vocab_);
  EXPECT_TRUE(a == b);
  ASSERT_TRUE(a.Insert(p_, {3}).ok());
  EXPECT_FALSE(a == b);
  std::unordered_set<Value> dom;
  a.CollectActiveDomain(&dom);
  EXPECT_EQ(dom, (std::unordered_set<Value>{3}));
}

TEST_F(StateTest, ApplyTransactionInPlaceIsAllOrNothing) {
  DatabaseState s(vocab_);
  ASSERT_TRUE(ApplyTransaction(&s, {UpdateOp::Insert(p_, {1}),
                                    UpdateOp::Insert(p_, {2})})
                  .ok());
  ASSERT_TRUE(ApplyTransaction(&s, {UpdateOp::Delete(p_, {1})}).ok());
  EXPECT_FALSE(s.Holds(p_, {1}));
  EXPECT_TRUE(s.Holds(p_, {2}));
  const DatabaseState before = s;
  // Each bad op comes after a valid one, which must not land either.
  for (const UpdateOp& bad :
       {UpdateOp::Insert(p_, {5, 6}), UpdateOp::Delete(p_, {}),
        UpdateOp::Insert(leq_, {1, 2}), UpdateOp::Insert(99, {1})}) {
    Status st = ApplyTransaction(&s, {UpdateOp::Insert(p_, {3}), bad});
    EXPECT_FALSE(st.ok());
    EXPECT_EQ(st.IsOutOfRange(), bad.predicate == 99) << st.ToString();
    EXPECT_TRUE(s == before) << st.ToString();
  }
}

class HistoryTest : public ::testing::Test {
 protected:
  HistoryTest() {
    auto v = std::make_shared<Vocabulary>();
    p_ = *v->AddPredicate("p", 2);
    c_ = *v->AddConstant("c");
    vocab_ = v;
  }
  VocabularyPtr vocab_;
  PredicateId p_;
  ConstantId c_;
};

TEST_F(HistoryTest, ConstantInterpretationRequired) {
  EXPECT_TRUE(History::Create(vocab_, {}).status().IsInvalidArgument());
  auto h = History::Create(vocab_, {42});
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->ConstantValue(c_), 42);
}

TEST_F(HistoryTest, AppendAndRelevantSet) {
  History h = *History::Create(vocab_, {42});
  DatabaseState* s0 = h.AppendEmptyState();
  ASSERT_TRUE(s0->Insert(p_, {1, 7}).ok());
  DatabaseState* s1 = *h.AppendCopyOfLast();
  ASSERT_TRUE(s1->Insert(p_, {7, 9}).ok());
  EXPECT_EQ(h.length(), 2u);
  EXPECT_TRUE(h.state(1).Holds(p_, {1, 7}));  // copied forward
  EXPECT_FALSE(h.state(0).Holds(p_, {7, 9}));
  // Relevant set: constants + all elements in all states, sorted.
  EXPECT_EQ(h.RelevantSet(), (std::vector<Value>{1, 7, 9, 42}));
}

TEST_F(HistoryTest, AppendCopyNeedsState) {
  History h = *History::Create(vocab_, {0});
  EXPECT_TRUE(h.AppendCopyOfLast().status().IsOutOfRange());
}

TEST_F(HistoryTest, ApplyTransaction) {
  History h = *History::Create(vocab_, {0});
  Transaction t1{UpdateOp::Insert(p_, {1, 2}), UpdateOp::Insert(p_, {3, 4})};
  ASSERT_TRUE(ApplyTransaction(&h, t1).ok());
  EXPECT_EQ(h.length(), 1u);
  EXPECT_TRUE(h.state(0).Holds(p_, {1, 2}));
  Transaction t2{UpdateOp::Delete(p_, {1, 2})};
  ASSERT_TRUE(ApplyTransaction(&h, t2).ok());
  EXPECT_EQ(h.length(), 2u);
  EXPECT_FALSE(h.state(1).Holds(p_, {1, 2}));
  EXPECT_TRUE(h.state(1).Holds(p_, {3, 4}));
  EXPECT_TRUE(h.state(0).Holds(p_, {1, 2}));  // past states immutable
}

TEST_F(HistoryTest, RejectedTransactionAppendsNothing) {
  History h = *History::Create(vocab_, {0});
  ASSERT_TRUE(ApplyTransaction(&h, {UpdateOp::Insert(p_, {1, 2})}).ok());
  EXPECT_TRUE(
      ApplyTransaction(&h, {UpdateOp::Insert(p_, {3, 4}), UpdateOp::Insert(p_, {5})})
          .IsInvalidArgument());
  ASSERT_EQ(h.length(), 1u);
  EXPECT_FALSE(h.state(0).Holds(p_, {3, 4}));
}

TEST_F(HistoryTest, UltimatelyPeriodicDbIndexing) {
  DatabaseState a(vocab_), b(vocab_), c(vocab_);
  ASSERT_TRUE(a.Insert(p_, {1, 1}).ok());
  ASSERT_TRUE(b.Insert(p_, {2, 2}).ok());
  ASSERT_TRUE(c.Insert(p_, {3, 3}).ok());
  UltimatelyPeriodicDb db(vocab_, {0}, {a}, {b, c});
  EXPECT_TRUE(db.StateAt(0).Holds(p_, {1, 1}));
  EXPECT_TRUE(db.StateAt(1).Holds(p_, {2, 2}));
  EXPECT_TRUE(db.StateAt(2).Holds(p_, {3, 3}));
  EXPECT_TRUE(db.StateAt(3).Holds(p_, {2, 2}));  // loops
  EXPECT_TRUE(db.StateAt(102).Holds(p_, {3, 3}));
  EXPECT_EQ(db.RelevantSet(), (std::vector<Value>{0, 1, 2, 3}));
  auto prefix = db.TakePrefix(2);
  ASSERT_TRUE(prefix.ok());
  EXPECT_EQ(prefix->length(), 2u);
  EXPECT_TRUE(prefix->state(1).Holds(p_, {2, 2}));
}

}  // namespace
}  // namespace tic
