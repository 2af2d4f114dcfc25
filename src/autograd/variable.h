#ifndef DIFFODE_AUTOGRAD_VARIABLE_H_
#define DIFFODE_AUTOGRAD_VARIABLE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "autograd/arena.h"
#include "core/alloc_stats.h"
#include "tensor/tensor.h"

namespace diffode::ag {

// One node of the reverse-mode tape. Nodes own their forward value and an
// accumulated gradient buffer. Intermediate nodes are created afresh on every
// forward pass (from the thread's TapeArena when a scope is active);
// parameter nodes are long-lived and shared between passes, so gradient
// accumulation across samples falls out naturally.
struct Node {
  // Parent pointers live in the same arena as the node itself (or on the
  // heap for arena-less nodes; the allocator captures the choice at node
  // construction).
  using ParentVec =
      std::vector<std::shared_ptr<Node>, ArenaAllocator<std::shared_ptr<Node>>>;

  Tensor value;
  // Same shape as value once set. Interior nodes (those with a backward_fn)
  // hold it only while Backward sweeps through them: the first incoming
  // gradient is adopted, later ones are added, and the buffer is released
  // as soon as backward_fn has propagated it. Leaves keep theirs.
  Tensor grad;
  bool requires_grad = false;
  // Registration slot in the current GradSink generation, or -1. Written by
  // GradSink construction (single-threaded, before shards fan out), read by
  // Accumulate on pool threads. A stale slot from an earlier sink is
  // harmless: Accumulate verifies nodes_[slot] == this before trusting it.
  std::int32_t sink_slot = -1;
  // Last traversal that visited this node (see TopoSort in variable.cc).
  // Epochs are globally unique per Backward call, so a concurrent traversal
  // writing its own epoch into a shared leaf can never alias this one's;
  // relaxed atomics only rule out torn values.
  std::atomic<std::uint64_t> visit_mark{0};
  ParentVec parents;
  // Scatters this node's gradient into its parents' gradients.
  std::function<void(Node&)> backward_fn;

  // Grad buffers are allocated once and then reused: ZeroGrad clears them in
  // place, so at steady state this is a shape compare and nothing else.
  void EnsureGrad() {
    if (grad.shape() != value.shape()) grad = Tensor(value.shape());
  }

  // Accumulates g into this node's gradient. Every backward_fn must route
  // gradient scatter through this (not `grad +=` directly): when a GradSink
  // scope is active on the current thread, gradients of registered
  // (parameter) nodes are redirected into the sink's private buffers so that
  // concurrent Backward() calls over tapes sharing parameters never race.
  // An unset grad takes g as is (copied, or adopted by the rvalue overload)
  // rather than zero-filling and adding: bitwise the same up to the sign of
  // an exact zero.
  void AccumulateGrad(const Tensor& g);
  void AccumulateGrad(Tensor&& g);
};

// A private parameter-gradient buffer for one shard of a data-parallel
// batch. Construct one per shard over the model's parameter list, install it
// with a Scope for the duration of the shard's forward/backward, then merge
// shards deterministically and flush into the shared parameter nodes from a
// single thread:
//
//   ag::GradSink sink(params);
//   {
//     ag::GradSink::Scope scope(&sink);
//     loss.Backward();               // param grads land in `sink`
//   }
//   sink_a.MergeFrom(sink_b);        // fixed merge order => deterministic
//   sink_a.FlushToNodes();           // node->grad += buffer
//
// While a scope is active, gradients of *unregistered* leaf nodes that do
// not require grad (shared constants) are dropped instead of accumulated:
// nothing reads them, and writing would race across shards.
class GradSink {
 public:
  explicit GradSink(const std::vector<class Var>& params);

  // Accumulates into the buffer for `node` if registered; false otherwise.
  bool Accumulate(const Node* node, const Tensor& g);
  // Adds other's buffers into this one (parameter registration order).
  void MergeFrom(const GradSink& other);
  // Adds the buffered gradients into the registered nodes' grad fields.
  // Call from one thread only, with no scope active.
  void FlushToNodes();

  // The sink installed on the current thread, or nullptr.
  static GradSink* Active();

  // RAII installer; scopes may not nest on a thread.
  class Scope {
   public:
    explicit Scope(GradSink* sink);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
  };

 private:
  // Raw pointers: registered params are owned by the caller for the sink's
  // whole lifetime (the trainer holds the Vars across the step). Lookup is
  // by Node::sink_slot — one sink is built per shard per step, and a hash
  // map per sink (plus a probe per accumulated gradient) was measurable.
  std::vector<Node*> nodes_;   // registration order
  std::vector<Tensor> grads_;  // lazily shaped, same order
};

// Allocates a tape node: from the calling thread's active TapeArena when a
// scope is installed (wholesale reclamation at step end), or from the heap
// otherwise. Defined in variable.cc.
std::shared_ptr<Node> AllocateNode();

// Per-thread gradient mode. While grad is enabled (the default), every op
// builds a tape node; with grad disabled, ops return value-only Vars — no
// node, no parent capture, no backward closure — so a forward pass is pure
// kernel calls over pooled tensors. Thread-local because data-parallel
// shards and eval loops toggle it independently per pool thread.
class GradMode {
 public:
  static bool IsEnabled() { return tls_enabled_; }
  static void SetEnabled(bool enabled) { tls_enabled_ = enabled; }

 private:
  inline static thread_local bool tls_enabled_ = true;
};

// RAII grad-off scope for inference / evaluation. Nests: the previous mode
// is restored on exit, so a NoGradScope inside another is harmless.
class NoGradScope {
 public:
  NoGradScope() : prev_(GradMode::IsEnabled()) { GradMode::SetEnabled(false); }
  ~NoGradScope() { GradMode::SetEnabled(prev_); }
  NoGradScope(const NoGradScope&) = delete;
  NoGradScope& operator=(const NoGradScope&) = delete;

 private:
  bool prev_;
};

// Lightweight handle to a tape node (shared ownership), or — in no-grad
// mode — to a bare value. A value-only Var holds its tensor behind a
// refcounted holder and never touches the node allocators, so copying one is
// a refcount bump exactly like copying a node-backed Var (models store Vars
// in maps and vectors on the hot path; a buffer copy per insert would eat
// the tape savings). The holder's refcount is deliberately NON-atomic: a
// no-grad forward churns through thousands of value-only temporaries, all
// born and destroyed on the thread running that forward, and the atomic
// inc/dec pairs of a shared_ptr were a measurable slice of the serving
// forward. The rule this buys into: a value-only Var may move between
// threads only across a synchronization point (e.g. the trainer joining its
// eval shards), never be copied concurrently. Long-lived cross-thread state
// (parameters) is node-backed and keeps shared_ptr semantics.
//
// Using a value-only Var as the operand of a grad-mode op wraps it in a
// fresh constant node (detached-leaf semantics).
class Var {
 public:
  Var() = default;
  // Nodes that require grad are parameters: long-lived, so they are always
  // heap-allocated and never touch the (per-step) arena — even inside a
  // NoGradScope, so a model can be constructed or loaded under either mode.
  // Non-parameter wraps become value-only when grad is off.
  explicit Var(Tensor value, bool requires_grad = false) {
    if (requires_grad) {
      node_ = std::make_shared<Node>();
      node_->value = std::move(value);
      node_->requires_grad = true;
    } else if (GradMode::IsEnabled()) {
      node_ = AllocateNode();
      node_->value = std::move(value);
    } else {
      core::AllocStats::RecordValueOnlyVar();
      value_ = MakeValueHolder(std::move(value));
    }
  }
  explicit Var(std::shared_ptr<Node> node) : node_(std::move(node)) {}

  Var(const Var& other) : node_(other.node_), value_(other.value_) {
    if (value_ != nullptr) ++value_->refs;
  }
  Var(Var&& other) noexcept
      : node_(std::move(other.node_)), value_(other.value_) {
    other.value_ = nullptr;
  }
  Var& operator=(const Var& other) {
    if (this != &other) {
      ValueHolder* const keep = other.value_;  // self-alias via holder
      if (keep != nullptr) ++keep->refs;
      ReleaseValue();
      node_ = other.node_;
      value_ = keep;
    }
    return *this;
  }
  Var& operator=(Var&& other) noexcept {
    if (this != &other) {
      ReleaseValue();
      node_ = std::move(other.node_);
      value_ = other.value_;
      other.value_ = nullptr;
    }
    return *this;
  }
  ~Var() { ReleaseValue(); }

  bool defined() const { return node_ != nullptr || value_ != nullptr; }
  const Tensor& value() const { return node_ ? node_->value : value_->value; }
  Tensor& mutable_value() { return node_ ? node_->value : value_->value; }
  Tensor& grad() {
    DIFFODE_CHECK_MSG(node_ != nullptr,
                      "grad() on a value-only (no-grad) Var");
    node_->EnsureGrad();
    return node_->grad;
  }
  bool requires_grad() const { return node_ && node_->requires_grad; }
  const std::shared_ptr<Node>& node() const { return node_; }

  // The tape node backing this Var, wrapping a value-only Var in a fresh
  // constant node. Op construction uses this so detached / no-grad-produced
  // values can feed a grad-mode graph as constant leaves.
  std::shared_ptr<Node> EnsureNode() const {
    if (node_) return node_;
    auto node = AllocateNode();
    node->value = value_->value;
    return node;
  }

  // A value-only copy of this Var: same forward value, no tape history, so
  // gradients never flow through it (and downstream no-grad forwards stay
  // node-free). The detached handle is always durable — backed by pool/heap
  // storage, never the tape arena — so it survives TapeArena::Reset; a
  // pool-backed value-only source is shared (refcount bump), everything else
  // is copied out. The serving entry point together with Module::Freeze().
  Var Detach() const {
    Var out;
    if (node_) {
      out.value_ = MakeDurableHolder(Tensor(node_->value));
    } else if (value_ != nullptr) {
      if (value_->arena_owned) {
        out.value_ = MakeDurableHolder(Tensor(value_->value));
      } else {
        ++value_->refs;
        out.value_ = value_;
      }
    }
    return out;
  }

  Index rows() const { return value().rows(); }
  Index cols() const { return value().cols(); }
  const Shape& shape() const { return value().shape(); }

  // Runs reverse-mode accumulation from this (scalar) node. Seeds the output
  // gradient with 1 (or `seed` if given) and walks the tape in reverse
  // topological order. Only leaves (parameters and other requires_grad
  // leaves) keep their gradients: each interior node's grad is released once
  // propagated, so grad() on one reads zeros afterwards and a second
  // Backward over shared interior nodes never counts the first one's
  // gradient again.
  void Backward();
  void Backward(const Tensor& seed);

  // Zeroes the gradient in place, reusing the existing buffer (allocates
  // only on first use or shape change).
  void ZeroGrad() {
    if (!node_) return;
    if (node_->grad.shape() == node_->value.shape()) {
      node_->grad.SetZero();
    } else {
      node_->grad = Tensor(node_->value.shape());
    }
  }

 private:
  // Intrusive, thread-confined refcount (see the class comment for why it is
  // not atomic). Starts at 1 for the constructing Var.
  struct ValueHolder {
    explicit ValueHolder(Tensor v) : value(std::move(v)) {}
    Tensor value;
    std::uint32_t refs = 1;
    // Memory reclaimed wholesale by TapeArena::Reset rather than freed at
    // refs == 0 (the destructor still runs then, returning the tensor's
    // buffer to its pool). Same lifetime rule as tape nodes: every Var into
    // the arena must be gone before Reset().
    bool arena_owned = false;
  };

  // Holder storage is bump-allocated from the thread's tape arena when a
  // scope is active (one holder per op in a no-grad forward — the arena
  // gives it away for a pointer bump, exactly as it does for the tape nodes
  // the no-grad path replaces), else from the BufferPool, else the heap.
  static ValueHolder* MakeValueHolder(Tensor value) {
    if (TapeArena* arena = TapeArena::Active()) {
      void* mem = arena->Allocate(sizeof(ValueHolder), alignof(ValueHolder));
      auto* h = ::new (mem) ValueHolder(std::move(value));
      h->arena_owned = true;
      return h;
    }
    return MakeDurableHolder(std::move(value));
  }

  // A holder that survives TapeArena::Reset (for Detach / serving handles).
  static ValueHolder* MakeDurableHolder(Tensor value) {
    void* mem = tensor::BufferPool::Allocate(sizeof(ValueHolder));
    return ::new (mem) ValueHolder(std::move(value));
  }

  void ReleaseValue() noexcept {
    ValueHolder* h = value_;
    value_ = nullptr;
    if (h == nullptr || --h->refs != 0) return;
    const bool arena_owned = h->arena_owned;
    h->~ValueHolder();  // returns the tensor buffer to its pool
    if (!arena_owned) tensor::BufferPool::Deallocate(h, sizeof(ValueHolder));
  }

  std::shared_ptr<Node> node_;
  // Value-only representation (node_ == nullptr): the tensor lives behind a
  // refcounted holder so Var copies never copy the buffer. Non-null even for
  // zero-element tensors, so emptiness stays representable.
  ValueHolder* value_ = nullptr;
};

// Creates a non-trainable constant node.
inline Var Constant(Tensor value) { return Var(std::move(value), false); }

// Creates a trainable parameter node (long-lived; gradients accumulate).
inline Var Param(Tensor value) { return Var(std::move(value), true); }

}  // namespace diffode::ag

#endif  // DIFFODE_AUTOGRAD_VARIABLE_H_
