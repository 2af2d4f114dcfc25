#include "core/batch_predictor.h"

#include <algorithm>
#include <utility>

#include "autograd/variable.h"
#include "core/parallel.h"

namespace diffode::core {
namespace {

// Rows per micro-batch. A constant, never derived from the thread count:
// micro-batch boundaries then depend only on enqueue order, so served
// results are bitwise identical at any DIFFODE_NUM_THREADS.
constexpr Index kRowsPerMicroBatch = 8;

}  // namespace

BatchPredictor::BatchPredictor(SequenceModel* model, Index max_batch)
    : dispatch_(model), max_batch_(max_batch) {
  DIFFODE_CHECK_GT(max_batch_, 0);
}

Index BatchPredictor::Enqueue(const data::IrregularSeries& series,
                              std::vector<Scalar> times) {
  const Index id = static_cast<Index>(results_.size());
  results_.emplace_back();
  done_.push_back(false);
  pending_.push_back(Pending{id, &series, std::move(times)});
  if (static_cast<Index>(pending_.size()) >= max_batch_) Flush();
  return id;
}

void BatchPredictor::Flush() {
  if (pending_.empty()) return;
  std::vector<Pending*> cls;
  std::vector<Pending*> reg;
  for (Pending& p : pending_) (p.times.empty() ? cls : reg).push_back(&p);
  struct MicroBatch {
    bool classify;
    Pending* const* rows;
    std::size_t count;
  };
  std::vector<MicroBatch> chunks;
  for (const std::vector<Pending*>* kind : {&cls, &reg})
    for (std::size_t i = 0; i < kind->size(); i += kRowsPerMicroBatch)
      chunks.push_back(MicroBatch{
          kind == &cls, kind->data() + i,
          std::min<std::size_t>(kRowsPerMicroBatch, kind->size() - i)});
  // One pool task per micro-batch; each writes only its own results_ slots.
  // GradMode is thread-local, so every task pins NoGrad itself.
  parallel::ThreadPool::Get().Run(
      static_cast<Index>(chunks.size()), [&](Index c) {
        ag::NoGradScope no_grad;
        const MicroBatch& mb = chunks[static_cast<std::size_t>(c)];
        std::vector<const data::IrregularSeries*> series;
        series.reserve(mb.count);
        for (std::size_t i = 0; i < mb.count; ++i)
          series.push_back(mb.rows[i]->series);
        const data::SequenceBatch batch = data::MakeSequenceBatch(series);
        if (mb.classify) {
          const Tensor logits = dispatch_.ClassifyLogitsBatched(batch);
          for (std::size_t i = 0; i < mb.count; ++i)
            results_[static_cast<std::size_t>(mb.rows[i]->id)].logits =
                logits.Row(static_cast<Index>(i));
          return;
        }
        std::vector<std::vector<Scalar>> times;
        times.reserve(mb.count);
        for (std::size_t i = 0; i < mb.count; ++i)
          times.push_back(std::move(mb.rows[i]->times));
        std::vector<std::vector<Tensor>> preds =
            dispatch_.PredictAtBatched(batch, times);
        for (std::size_t i = 0; i < mb.count; ++i)
          results_[static_cast<std::size_t>(mb.rows[i]->id)].predictions =
              std::move(preds[i]);
      });
  // done_ is a packed std::vector<bool>: mark it here, never from the tasks.
  for (const Pending& p : pending_)
    done_[static_cast<std::size_t>(p.id)] = true;
  pending_.clear();
}

const BatchPredictor::Result& BatchPredictor::result(Index id) const {
  DIFFODE_CHECK_GE(id, 0);
  DIFFODE_CHECK_LT(id, static_cast<Index>(results_.size()));
  DIFFODE_CHECK_MSG(done_[static_cast<std::size_t>(id)],
                    "BatchPredictor::result before its Flush");
  return results_[static_cast<std::size_t>(id)];
}

}  // namespace diffode::core
