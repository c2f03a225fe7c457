// Operation base classes: leaf, split, merge, stream.
//
// "The nodes on the graph are user-written functions deriving from the
// elementary DPS operations: leaf operation, split operation, merge
// operation, and stream operation." (paper, section 2)
//
// A user operation names the thread class it runs on and its input/output
// token-type lists:
//
//   class SplitString : public SplitOperation<MainThread,
//                                             TV<StringToken>, TV<CharToken>> {
//    public:
//     void execute(StringToken* in) override {
//       for (int i = 0; i < n; ++i) postToken(new CharToken(in->str[i], i));
//     }
//     DPS_IDENTIFY_OPERATION(SplitString);
//   };
//
// Cardinality contracts (enforced by the engine, per the paper's model):
//   leaf:   exactly one postToken per execute;
//   split:  any number; DPS tracks the count so the matching merge knows
//           when it has collected everything;
//   merge:  consumes every token of its context through waitForNextToken
//           (which returns an empty Ptr once all have arrived) and posts
//           exactly one result;
//   stream: consumes like a merge but may postToken at any time, any count
//           — this is what pipelines successive split–merge constructs.
#pragma once

#include <string>
#include <type_traits>
#include <vector>

#include "core/ids.hpp"
#include "core/thread.hpp"
#include "core/typelist.hpp"
#include "serial/registry.hpp"
#include "sim/domain.hpp"
#include "util/error.hpp"

namespace dps {

namespace detail {

/// Engine services an operation execution runs against (implemented by the
/// controller's dispatch machinery).
class OpServices {
 public:
  virtual ~OpServices() = default;
  virtual void post(Ptr<Token> token) = 0;
  /// Posts one token to every listed destination thread of the successor
  /// collection (multicast collective). Split/stream only.
  virtual void post_multicast(Ptr<Token> token,
                              const std::vector<int>& threads) = 0;
  /// Releases the held-back last posted token immediately (split/stream
  /// only; see Operation::flushTokens below for the contract).
  virtual void flush_posted() = 0;
  virtual Ptr<Token> wait_next() = 0;
  virtual Thread* user_thread() = 0;
  virtual ExecDomain& domain() = 0;
  virtual int thread_index() const = 0;
  virtual int collection_size() const = 0;
};

}  // namespace detail

/// Type-erased operation base driven by the engine.
class Operation {
 public:
  Operation() = default;
  Operation(const Operation&) = delete;
  Operation& operator=(const Operation&) = delete;
  virtual ~Operation() = default;

  /// Dispatches the input token to the typed execute overload.
  virtual void run_erased(Token* input) = 0;

 public:
  /// Virtual time (or wall time) since the start of the run, seconds.
  double now() const { return services_->domain().now(); }

  /// Accounts modeled CPU cost for this operation (no-op under wall clock,
  /// advances the actor under virtual time). Use for calibrated kernels.
  void charge(double seconds) { services_->domain().charge(seconds); }

  /// Models a blocking delay, e.g. disk latency (really sleeps under wall
  /// clock, charges under virtual time).
  void sleepFor(double seconds) { services_->domain().sleep(seconds); }

  /// Index of the executing DPS thread within its collection, and the
  /// collection's size — the classic SPMD coordinates.
  int threadIndex() const { return services_->thread_index(); }
  int threadCount() const { return services_->collection_size(); }

 protected:
  void postTokenErased(Ptr<Token> token) {
    DPS_CHECK(services_ != nullptr, "postToken outside an execution");
    services_->post(std::move(token));
  }
  void postTokenMulticastErased(Ptr<Token> token,
                                const std::vector<int>& threads) {
    DPS_CHECK(services_ != nullptr,
              "postTokenMulticast outside an execution");
    services_->post_multicast(std::move(token), threads);
  }
  Ptr<Token> waitForNextTokenErased() {
    DPS_CHECK(services_ != nullptr, "waitForNextToken outside an execution");
    return services_->wait_next();
  }
  void flushTokensErased() {
    DPS_CHECK(services_ != nullptr, "flushTokens outside an execution");
    services_->flush_posted();
  }
  Thread* threadErased() const { return services_->user_thread(); }

 private:
  friend class Controller;
  detail::OpServices* services_ = nullptr;
};

namespace detail {

/// Generates one pure-virtual execute overload per declared input type and
/// a dynamic dispatcher over them.
template <class List>
class ExecDispatch;

template <>
class ExecDispatch<TV<>> {
 public:
  virtual ~ExecDispatch() = default;

 protected:
  void dispatch_input(Token* t) {
    raise(Errc::kTypeMismatch,
          "operation received token type '" + t->typeInfo().name +
              "' not in its input list");
  }
  // Anchor for the `using ... ::execute` chain in derived dispatchers.
  void execute();
};

template <class T, class... Rest>
class ExecDispatch<TV<T, Rest...>> : public ExecDispatch<TV<Rest...>> {
 public:
  using ExecDispatch<TV<Rest...>>::execute;
  virtual void execute(T* input) = 0;

 protected:
  void dispatch_input(Token* t) {
    if (auto* typed = dynamic_cast<T*>(t)) {
      execute(typed);
    } else {
      ExecDispatch<TV<Rest...>>::dispatch_input(t);
    }
  }
};

/// Common typed base parameterized by kind.
template <class ThreadT, class In, class Out, OpKind K>
class TypedOperation : public Operation, public ExecDispatch<In> {
  static_assert(std::is_base_of_v<Thread, ThreadT>,
                "first template parameter must be a dps::Thread subclass");
  static_assert(tl::all_tokens_v<In> && tl::all_tokens_v<Out>,
                "input/output lists must contain Token subclasses");
  static_assert(In::size > 0, "operations need at least one input type");

 public:
  using ThreadType = ThreadT;
  using InputList = In;
  using OutputList = Out;
  static constexpr OpKind kKind = K;

  void run_erased(Token* input) final { this->dispatch_input(input); }

  /// Emits an output token. Takes ownership (pass `new T(...)`, as in the
  /// paper, or a Ptr). The type must be in the declared output list.
  template <class T>
  void postToken(T* token) {
    static_assert(tl::contains_v<T, Out>,
                  "postToken: type is not in this operation's output list");
    postTokenErased(Ptr<Token>(token));
  }
  template <class T>
  void postToken(const Ptr<T>& token) {
    static_assert(tl::contains_v<T, Out>,
                  "postToken: type is not in this operation's output list");
    postTokenErased(token);
  }

  /// Multicast collective: posts `token` once to every thread index in
  /// `threads` of the successor collection (split/stream only). Counts as
  /// threads.size() posts toward the context total. The token object is
  /// SHARED by co-located destinations and by the encoder — receivers must
  /// treat it as read-only. Cross-node destinations get one encode into one
  /// pooled buffer and one frame per node.
  template <class T>
  void postTokenMulticast(T* token, const std::vector<int>& threads) {
    static_assert(tl::contains_v<T, Out>,
                  "postTokenMulticast: type is not in this operation's "
                  "output list");
    postTokenMulticastErased(Ptr<Token>(token), threads);
  }
  template <class T>
  void postTokenMulticast(const Ptr<T>& token,
                          const std::vector<int>& threads) {
    static_assert(tl::contains_v<T, Out>,
                  "postTokenMulticast: type is not in this operation's "
                  "output list");
    postTokenMulticastErased(token, threads);
  }

  /// The executing DPS thread's user state.
  ThreadT* thread() const { return static_cast<ThreadT*>(threadErased()); }
};

}  // namespace detail

/// Leaf operation: one input, exactly one output per execution.
template <class ThreadT, class In, class Out>
class LeafOperation
    : public detail::TypedOperation<ThreadT, In, Out, OpKind::kLeaf> {};

/// Split operation: one input, any number of outputs.
template <class ThreadT, class In, class Out>
class SplitOperation
    : public detail::TypedOperation<ThreadT, In, Out, OpKind::kSplit> {
 public:
  /// Releases the most recently posted token right now instead of letting
  /// it pipeline one post behind.
  ///
  /// The engine normally holds back each posted token until the next post
  /// (or until execute returns), because the LAST token of the context must
  /// carry the total count that tells the downstream merge when it is done.
  /// For throughput workloads the one-token delay is invisible, but a
  /// paced source (sleepFor between posts) would otherwise see every token
  /// delayed by a full pacing interval. Call flushTokens() after a post to
  /// ship it immediately.
  ///
  /// Contract: at least one more postToken must follow before execute
  /// returns — the engine needs a final un-flushed token to stamp the
  /// context total into, and raises Errc::kState otherwise. Only call this
  /// when you know the post was not the last one.
  void flushTokens() { this->flushTokensErased(); }
};

/// Merge operation: collects every token of its context, posts one result.
template <class ThreadT, class In, class Out>
class MergeOperation
    : public detail::TypedOperation<ThreadT, In, Out, OpKind::kMerge> {
 public:
  /// Next token of this merge context; empty when all tokens produced by
  /// the matching split have been delivered ("The programmer does not have
  /// to know how many data objects arrive at the merge operation").
  Ptr<Token> waitForNextToken() { return this->waitForNextTokenErased(); }
};

/// Stream operation: merge-like collection with split-like posting, the
/// construct that pipelines successive parallel phases (paper, section 3).
template <class ThreadT, class In, class Out>
class StreamOperation
    : public detail::TypedOperation<ThreadT, In, Out, OpKind::kStream> {
 public:
  Ptr<Token> waitForNextToken() { return this->waitForNextTokenErased(); }

  /// Same semantics and contract as SplitOperation::flushTokens: ship the
  /// held-back last post immediately; at least one more postToken must
  /// follow before execute returns.
  void flushTokens() { this->flushTokensErased(); }
};

namespace detail {

struct OperationTypeInfo {
  std::string name;
  OpKind kind = OpKind::kLeaf;
  Operation* (*create)() = nullptr;
  std::vector<uint64_t> input_type_ids;
  std::vector<uint64_t> output_type_ids;
  std::string thread_type_name;
};

class OperationTypeRegistry {
 public:
  static OperationTypeRegistry& instance();
  void add(const OperationTypeInfo* info);
  const OperationTypeInfo& find(const std::string& name) const;

 private:
  struct Impl;
  Impl& impl() const;
};

template <class T>
const OperationTypeInfo& register_operation(const char* name) {
  static_assert(std::is_base_of_v<Operation, T>,
                "DPS_IDENTIFY_OPERATION is for DPS operation classes");
  static_assert(std::is_default_constructible_v<T>,
                "operations are instantiated by the framework and need a "
                "default constructor");
  static const OperationTypeInfo info = [&] {
    OperationTypeInfo i;
    i.name = name;
    i.kind = T::kKind;
    i.create = []() -> Operation* { return new T(); };
    i.input_type_ids = tl::type_ids<typename T::InputList>::get();
    i.output_type_ids = tl::type_ids<typename T::OutputList>::get();
    i.thread_type_name = T::ThreadType::staticThreadInfo().name;
    return i;
  }();
  OperationTypeRegistry::instance().add(&info);
  return info;
}

}  // namespace detail
}  // namespace dps

/// Registers the enclosing operation class. Mirrors the paper's
/// IDENTIFYOPERATION(SplitString);
#define DPS_IDENTIFY_OPERATION(T)                                        \
 public:                                                                 \
  static const ::dps::detail::OperationTypeInfo& staticOperationInfo() { \
    static const ::dps::detail::OperationTypeInfo& info =                \
        ::dps::detail::register_operation<T>(#T);                        \
    return info;                                                         \
  }                                                                      \
                                                                         \
 private:                                                                \
  inline static const bool dps_operation_registered_ =                   \
      (T::staticOperationInfo(), true)
