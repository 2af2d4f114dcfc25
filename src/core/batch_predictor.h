#ifndef DIFFODE_CORE_BATCH_PREDICTOR_H_
#define DIFFODE_CORE_BATCH_PREDICTOR_H_

#include <vector>

#include "core/batched_model.h"

namespace diffode::core {

// Micro-batched serving front-end (docs/performance.md, "Execution
// batching"): collects up to max_batch requests, then serves them through
// BatchedDispatch in lockstep NoGradScope forwards. Requests with query
// times are regression requests (PredictAtBatched); requests without are
// classification requests (ClassifyLogitsBatched). Flush splits each kind,
// in enqueue order, into micro-batches of a fixed 8 rows and runs every
// micro-batch as one task on the shared thread pool. The split never
// depends on the thread count, so results are bitwise identical at any
// DIFFODE_NUM_THREADS.
//
// Usage: Enqueue() returns a request id; call Flush() (or let the queue
// auto-flush at max_batch pending requests), then read result(id). Enqueued
// series must stay alive until the flush.
class BatchPredictor {
 public:
  struct Result {
    Tensor logits;                    // 1 x C (classification requests)
    std::vector<Tensor> predictions;  // one 1 x f row per query time
  };

  BatchPredictor(SequenceModel* model, Index max_batch);

  // Queues a request and returns its id; flushes automatically once
  // max_batch requests are pending.
  Index Enqueue(const data::IrregularSeries& series,
                std::vector<Scalar> times = {});

  // Serves every pending request, one batched forward per micro-batch.
  void Flush();

  // Result for a request id; its flush must have happened.
  const Result& result(Index id) const;

  Index pending() const { return static_cast<Index>(pending_.size()); }
  Index max_batch() const { return max_batch_; }
  // True when the model integrates batches in lockstep (native engine).
  bool native() const { return dispatch_.native(); }

 private:
  struct Pending {
    Index id;
    const data::IrregularSeries* series;
    std::vector<Scalar> times;
  };

  BatchedDispatch dispatch_;
  Index max_batch_;
  std::vector<Pending> pending_;
  std::vector<Result> results_;
  std::vector<bool> done_;
};

}  // namespace diffode::core

#endif  // DIFFODE_CORE_BATCH_PREDICTOR_H_
