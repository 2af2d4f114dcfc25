#include "autograd/variable.h"

#include <utility>

#include "core/alloc_stats.h"

namespace diffode::ag {
namespace {

// Per-thread scratch for Backward. The containers keep their capacity
// between calls, so a warm backward pass performs no scratch allocation.
struct BackwardScratch {
  std::vector<Node*> order;
  std::vector<std::pair<Node*, std::size_t>> stack;
};

BackwardScratch& Scratch() {
  static thread_local BackwardScratch scratch;
  return scratch;
}

// Traversal epoch source. Each Backward call takes a globally unique epoch
// and stamps it into Node::visit_mark as its visited test — a hash set over
// a million-node tape was a measurable share of backward time. Shards share
// only leaf nodes (params, constants), so a concurrent traversal clobbering
// a shared leaf's mark at worst re-pushes that leaf; leaves have no
// backward_fn, so a duplicate in `order` is a no-op.
std::atomic<std::uint64_t> g_visit_epoch{0};

// Iterative post-order DFS over parents; returns nodes so that every node
// appears after all nodes that depend on it when iterated in reverse.
void TopoSort(Node* root, BackwardScratch& s, std::uint64_t epoch) {
  s.order.clear();
  s.stack.clear();
  s.stack.emplace_back(root, 0);
  root->visit_mark.store(epoch, std::memory_order_relaxed);
  while (!s.stack.empty()) {
    auto& [node, next_child] = s.stack.back();
    if (next_child < node->parents.size()) {
      Node* child = node->parents[next_child].get();
      ++next_child;
      if (child != nullptr &&
          child->visit_mark.load(std::memory_order_relaxed) != epoch) {
        child->visit_mark.store(epoch, std::memory_order_relaxed);
        s.stack.emplace_back(child, 0);
      }
    } else {
      s.order.push_back(node);
      s.stack.pop_back();
    }
  }
}

thread_local GradSink* tls_sink = nullptr;

}  // namespace

std::shared_ptr<Node> AllocateNode() {
  if (TapeArena* arena = TapeArena::Active()) {
    core::AllocStats::RecordArenaNode();
    return std::allocate_shared<Node>(ArenaAllocator<Node>(arena));
  }
  core::AllocStats::RecordHeapNode();
  return std::make_shared<Node>();
}

namespace {

// Both AccumulateGrad overloads: the GradSink redirect and drop rules first,
// then an unset grad takes g (copied or moved) and a set one adds it.
template <typename G>
void AccumulateInto(Node* node, G&& g) {
  if (GradSink* sink = tls_sink) {
    if (sink->Accumulate(node, g)) return;
    // Unregistered leaves that don't require grad are shared read-only
    // inputs under data-parallel training; drop their gradients rather than
    // racing on them (nothing reads a constant's gradient).
    if (!node->requires_grad && !node->backward_fn && node->parents.empty())
      return;
  }
  if (node->grad.shape() == node->value.shape()) {
    node->grad += g;
  } else {
    DIFFODE_CHECK_MSG(g.shape() == node->value.shape(),
                      "gradient shape mismatch");
    node->grad = std::forward<G>(g);
  }
}

}  // namespace

void Node::AccumulateGrad(const Tensor& g) { AccumulateInto(this, g); }

void Node::AccumulateGrad(Tensor&& g) { AccumulateInto(this, std::move(g)); }

GradSink::GradSink(const std::vector<Var>& params) {
  nodes_.reserve(params.size());
  grads_.resize(params.size());
  for (const auto& p : params) {
    DIFFODE_CHECK(p.defined());
    p.node()->sink_slot = static_cast<std::int32_t>(nodes_.size());
    nodes_.push_back(p.node().get());
  }
}

bool GradSink::Accumulate(const Node* node, const Tensor& g) {
  const std::int32_t slot = node->sink_slot;
  if (slot < 0 || static_cast<std::size_t>(slot) >= nodes_.size() ||
      nodes_[static_cast<std::size_t>(slot)] != node)
    return false;
  Tensor& buf = grads_[static_cast<std::size_t>(slot)];
  if (buf.shape() != node->value.shape()) buf = Tensor(node->value.shape());
  buf += g;
  return true;
}

void GradSink::MergeFrom(const GradSink& other) {
  DIFFODE_CHECK_EQ(static_cast<Index>(nodes_.size()),
                   static_cast<Index>(other.nodes_.size()));
  for (std::size_t i = 0; i < grads_.size(); ++i) {
    const Tensor& theirs = other.grads_[i];
    if (theirs.empty()) continue;
    Tensor& mine = grads_[i];
    if (mine.empty()) {
      mine = theirs;
    } else {
      mine += theirs;
    }
  }
}

void GradSink::FlushToNodes() {
  for (std::size_t i = 0; i < grads_.size(); ++i) {
    if (grads_[i].empty()) continue;
    Node* n = nodes_[i];
    n->EnsureGrad();
    n->grad += grads_[i];
  }
}

GradSink* GradSink::Active() { return tls_sink; }

GradSink::Scope::Scope(GradSink* sink) {
  DIFFODE_CHECK(tls_sink == nullptr);
  tls_sink = sink;
}

GradSink::Scope::~Scope() { tls_sink = nullptr; }

void Var::Backward() {
  DIFFODE_CHECK_MSG(node_ != nullptr,
                    "Backward on a value-only (no-grad) Var");
  Backward(Tensor::Ones(node_->value.shape()));
}

void Var::Backward(const Tensor& seed) {
  DIFFODE_CHECK_MSG(node_ != nullptr,
                    "Backward on a value-only (no-grad) Var");
  DIFFODE_CHECK(seed.shape() == node_->value.shape());
  BackwardScratch& s = Scratch();
  const std::uint64_t epoch =
      g_visit_epoch.fetch_add(1, std::memory_order_relaxed) + 1;
  TopoSort(node_.get(), s, epoch);
  node_->AccumulateGrad(seed);
  // Post-order places dependencies first; walk from the root backwards.
  // Every consumer of an interior node precedes it in this order, so its
  // gradient is complete when reached and dead once propagated: releasing it
  // here keeps the live gradient set to the sweep's frontier, which a warm
  // thread's buffer-pool cache can hold.
  for (auto it = s.order.rbegin(); it != s.order.rend(); ++it) {
    Node* n = *it;
    if (n->backward_fn) {
      n->EnsureGrad();
      n->backward_fn(*n);
      n->grad = Tensor();
    }
  }
}

}  // namespace diffode::ag
